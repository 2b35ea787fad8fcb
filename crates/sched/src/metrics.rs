//! Operational metrics: latency percentiles, per-shard busy accounting, the
//! rolling window the service reports while it is live, and the
//! [`ServiceReport`] it returns at shutdown, whose counts the completer
//! folds into one `Tally` as it reaps, issues and delivers.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::complete::ShardCompletion;
use crate::job::{JobError, JobResult};
use crate::shard::{CommandFailure, ShardCommand};
use crate::trace::{StageBreakdown, StragglerReport, TraceLog};

/// Latency distribution over a set of completed jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples the statistics cover.
    pub count: usize,
    /// Mean latency.
    pub mean: Duration,
    /// Median (50th percentile, nearest-rank).
    pub p50: Duration,
    /// 90th percentile (nearest-rank).
    pub p90: Duration,
    /// 99th percentile (nearest-rank).
    pub p99: Duration,
    /// 99.9th percentile (nearest-rank) — separates a fat tail (p999 ≈ max)
    /// from a lone outlier.
    pub p999: Duration,
    /// Maximum observed latency.
    pub max: Duration,
}

impl LatencyStats {
    /// Computes the statistics from unordered latencies.
    pub fn from_latencies(latencies: &[Duration]) -> LatencyStats {
        let mut sorted = latencies.to_vec();
        sorted.sort();
        let Some(&max) = sorted.last() else {
            return LatencyStats::default();
        };
        // Mean via integer nanoseconds: `Duration / u32` would truncate the
        // count (and divide by zero) for batches beyond u32::MAX samples.
        let total: Duration = sorted.iter().sum();
        let mean = Duration::from_nanos((total.as_nanos() / sorted.len() as u128) as u64);
        LatencyStats {
            count: sorted.len(),
            mean,
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            p99: percentile(&sorted, 99.0),
            p999: percentile(&sorted, 99.9),
            max,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `pct` is outside `(0, 100]`.
pub fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!(pct > 0.0 && pct <= 100.0, "percentile must be in (0, 100]");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Rolling window over the most recent job completions, for live metrics
/// while the streaming service runs.
///
/// The window keeps the last `capacity` completions (latency plus completion
/// instant); [`RollingWindow::stats`] and [`RollingWindow::throughput`]
/// describe only that window, so a long-running service reports its *recent*
/// behavior rather than an all-time average that a morning burst would skew
/// forever.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    capacity: usize,
    entries: VecDeque<(Instant, Duration)>,
}

impl RollingWindow {
    /// Creates a window covering the last `capacity` completions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> RollingWindow {
        assert!(capacity > 0, "window capacity must be positive");
        RollingWindow {
            capacity,
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Records one completion at instant `at` with the given end-to-end
    /// latency, evicting the oldest entry once the window is full. The
    /// instant is passed in, so [`RollingWindow::throughput`] is
    /// deterministically testable and the engine books a delivery at the
    /// instant its completer round already read. Entries are expected in
    /// non-decreasing instant order.
    pub fn record_at(&mut self, at: Instant, latency: Duration) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((at, latency));
    }

    /// Latency distribution of the completions inside the window.
    pub fn stats(&self) -> LatencyStats {
        let latencies: Vec<Duration> = self.entries.iter().map(|(_, l)| *l).collect();
        LatencyStats::from_latencies(&latencies)
    }

    /// Recent throughput: the unbiased inter-completion rate over the
    /// window — `len - 1` intervals divided by the span from the oldest to
    /// the newest windowed completion. (Dividing `len` events by the span
    /// would overestimate by `len / (len - 1)`.) Zero until the window
    /// holds at least two completions, and zero while every windowed
    /// completion shares one instant — the engine stamps all the jobs one
    /// settle delivers alike — since no measurable interval has passed.
    pub fn throughput(&self) -> f64 {
        let (Some((oldest, _)), Some((newest, _))) = (self.entries.front(), self.entries.back())
        else {
            return 0.0;
        };
        let span = newest.duration_since(*oldest).as_secs_f64();
        if span == 0.0 {
            return 0.0;
        }
        (self.entries.len() - 1) as f64 / span
    }
}

/// Busy-time accounting for one shard (simulated SSD), folded by the
/// completer from the device's answers and the issues on its queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Shard index (lexicographic range order).
    pub shard: usize,
    /// Total time the device spent serving commands (both kinds).
    pub busy: Duration,
    /// Number of intersection commands served (one per job whose query
    /// slice was dispatched to this shard; zero for empty padding shards,
    /// which are never commanded).
    pub jobs: u64,
    /// Total query k-mers this shard scanned across all commands. With
    /// range-partitioned dispatch the per-job sum across shards equals the
    /// job's query count |Q| — not the N·|Q| a broadcast would cost.
    pub query_items: u64,
    /// Number of Step 3 commands served: a job with candidates issues one,
    /// a job without none.
    pub step3_jobs: u64,
    /// Total reads this device mapped across its Step 3 commands (the sum
    /// of the served samples' read counts). A job's one command maps its
    /// whole sample, so the per-job sum across shards equals the job's
    /// read count — each read is mapped exactly once.
    pub step3_items: u64,
    /// Of [`ShardStats::step3_items`], the reads this device mapped for a
    /// Step 3 command whose shard-of-record is another shard — one the
    /// completer routed here because that shard is dead (failover); 0 on a
    /// healthy array. Failover moves only the physical service: the result
    /// stays tagged with the shard-of-record, so the completer's fold is
    /// unchanged.
    pub stolen_items: u64,
    /// High-water mark of commands concurrently outstanding on this shard's
    /// NVMe-style queue (submitted, completion not yet reaped); bounded by
    /// [`crate::EngineConfig::queue_depth`]. A value ≥ 2 means several
    /// samples' commands were genuinely in flight on the device at once.
    pub peak_inflight: usize,
    /// Commands this device answered with an injected failure (transient
    /// errors, dead-shard rejections and caught panics; zero without a
    /// [`crate::fault::FaultPlan`]).
    pub faults: u64,
    /// Commands re-issued after a transient failure, a dead-shard rejection
    /// or a deadline expiry, charged to the command's shard-of-record. With
    /// a fully recoverable plan, `sum(retries) == sum(faults)` across
    /// shards.
    pub retries: u64,
    /// Re-issues routed to a *different* (surviving) shard because this
    /// shard-of-record was dead; a subset of [`ShardStats::retries`].
    pub failovers: u64,
    /// Whether the device answered any command with a dead-shard rejection
    /// (fault plan shard death) — the flag the completer routes by.
    pub dead: bool,
}

/// The counts a [`ServiceReport`] carries beyond the live ones. The
/// completer owns the one tally; its fields are private to this module, so
/// its folds are the only [`ShardStats`] writers.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    /// One per shard, in shard order.
    shards: Vec<ShardStats>,
    stage_overlap_events: u64,
    mapped_reads: u64,
    failed_jobs: u64,
    /// Sum and count of the delivered jobs' stage breakdowns.
    breakdown_sum: StageBreakdown,
    breakdown_count: usize,
}

impl Tally {
    /// The tally of an engine on `shards` shards that has counted nothing.
    pub(crate) fn new(shards: usize) -> Tally {
        let shards = (0..shards).map(|shard| ShardStats {
            shard,
            ..ShardStats::default()
        });
        Tally {
            shards: shards.collect(),
            ..Tally::default()
        }
    }

    /// One answer, credited to the device that gave it: a fault (a dead-shard
    /// rejection marks the device dead for good), or the command's busy time
    /// and items — query k-mers, or Step 3 reads, stolen when mapped for
    /// another shard-of-record.
    pub(crate) fn answered(&mut self, answer: &ShardCompletion) {
        let device = answer.device;
        let stats = &mut self.shards[device];
        if let Err(failure) = answer.result {
            stats.faults += 1;
            stats.dead |= failure == CommandFailure::ShardDead;
            return;
        }
        stats.busy += answer.busy;
        match &answer.command {
            ShardCommand::Intersect(c) => {
                stats.jobs += 1;
                stats.query_items += c.range.len() as u64;
            }
            ShardCommand::Step3(c) => {
                let reads = c.sample.len() as u64;
                stats.step3_jobs += 1;
                stats.step3_items += reads;
                if c.record_shard != device {
                    stats.stolen_items += reads;
                }
            }
        }
    }

    pub(crate) fn is_dead(&self, device: usize) -> bool {
        self.shards[device].dead
    }

    /// The per-shard counts so far, in shard order.
    #[cfg(test)]
    pub(crate) fn shards(&self) -> &[ShardStats] {
        &self.shards
    }

    /// A command took a depth slot of `shard`, now at `inflight`; `overlaps`
    /// when a command of the other stage was outstanding.
    pub(crate) fn issued(&mut self, shard: usize, inflight: usize, overlaps: bool) {
        let stats = &mut self.shards[shard];
        stats.peak_inflight = stats.peak_inflight.max(inflight);
        self.stage_overlap_events += u64::from(overlaps);
    }

    /// A command of shard-of-record `shard` was re-issued, to another
    /// device when `failover`.
    pub(crate) fn retried(&mut self, shard: usize, failover: bool) {
        let stats = &mut self.shards[shard];
        stats.retries += 1;
        stats.failovers += u64::from(failover);
    }

    /// A job left the in-SSD stage with `outcome`.
    pub(crate) fn delivered(&mut self, outcome: &Result<JobResult, JobError>) {
        match outcome {
            Ok(result) => {
                self.mapped_reads += result.output.mapped_reads;
                if let Some(breakdown) = &result.breakdown {
                    self.breakdown_sum.accumulate(breakdown);
                    self.breakdown_count += 1;
                }
            }
            Err(_) => self.failed_jobs += 1,
        }
    }

    /// A report carrying the tally's counts: the per-shard stats, the
    /// stage-overlap, mapped-read and failed-job counts and the mean stage
    /// breakdown over the delivered jobs that carried one. Every fact the
    /// tally does not hold is zero or empty, for the engine to fill.
    pub(crate) fn into_report(self) -> ServiceReport {
        ServiceReport {
            completed: 0,
            uptime: Duration::ZERO,
            stage_breakdown: (self.breakdown_count > 0)
                .then(|| self.breakdown_sum.mean_of(self.breakdown_count)),
            shard_stats: self.shards,
            resident_database_bytes: 0,
            mapped_reads: self.mapped_reads,
            stage_overlap_events: self.stage_overlap_events,
            failed_jobs: self.failed_jobs,
            window: LatencyStats::default(),
            straggler: None,
            trace: None,
        }
    }
}

/// Final accounting returned by [`crate::StreamingEngine::shutdown`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Jobs completed over the service lifetime.
    pub completed: u64,
    /// Wall-clock time from service start to shutdown.
    pub uptime: Duration,
    /// Per-shard busy accounting over the service lifetime.
    pub shard_stats: Vec<ShardStats>,
    /// Host heap bytes the shard set kept resident, counting the shared
    /// columnar storage once ([`crate::ShardSet::resident_bytes`]): the
    /// shards are zero-copy views, so this stays ≈ 1× the database at any
    /// shard count.
    pub resident_database_bytes: u64,
    /// Reads mapped during Step 3 across all delivered jobs.
    pub mapped_reads: u64,
    /// Times a command of one in-SSD stage was submitted while a command of
    /// the other stage was outstanding on the device array — evidence that
    /// one sample's Step 3 mapping overlapped another sample's Step 2
    /// intersection in the command queues.
    pub stage_overlap_events: u64,
    /// Jobs that failed with a [`crate::JobError`] while the engine kept
    /// serving (per-job failure isolation); their handles resolved to `Err`
    /// and they are not counted in [`ServiceReport::completed`].
    pub failed_jobs: u64,
    /// Latency distribution over the final rolling window.
    pub window: LatencyStats,
    /// Mean per-job stage breakdown over the delivered jobs, each folded by
    /// the completer from the job's own timeline; `None` when tracing was
    /// disabled or no job was delivered.
    pub stage_breakdown: Option<StageBreakdown>,
    /// Per-device straggler analysis of the traced run; `None` when tracing
    /// was disabled.
    pub straggler: Option<StragglerReport>,
    /// The raw event log ([`TraceLog::to_json`] exports it); `None` when
    /// tracing was disabled.
    pub trace: Option<TraceLog>,
}

impl ServiceReport {
    /// Fraction of the service uptime each shard's worker was busy, in
    /// shard order.
    pub fn shard_utilization(&self) -> Vec<f64> {
        let uptime = self.uptime.as_secs_f64();
        self.shard_stats
            .iter()
            .map(|s| {
                if uptime > 0.0 {
                    s.busy.as_secs_f64() / uptime
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Renders a compact plain-text summary. The degraded-mode and
    /// trace-overflow lines appear only when there is something to report,
    /// so a clean default run always prints the same seven lines.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let stats = &self.shard_stats;
        let sum = |f: fn(&ShardStats) -> u64| -> u64 { stats.iter().map(f).sum() };
        let per_shard = |f: fn(&ShardStats) -> String| -> String {
            stats.iter().map(f).collect::<Vec<_>>().join(", ")
        };
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "service: {} jobs over {:.3} s uptime (rolling window of {})",
            self.completed,
            self.uptime.as_secs_f64(),
            self.window.count,
        );
        let _ = writeln!(
            out,
            "latency: mean {:.1} ms, p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, \
             p999 {:.1} ms, max {:.1} ms",
            ms(self.window.mean),
            ms(self.window.p50),
            ms(self.window.p90),
            ms(self.window.p99),
            ms(self.window.p999),
            ms(self.window.max),
        );
        let utilization: Vec<String> = self
            .shard_utilization()
            .iter()
            .map(|u| format!("{:.0}%", u * 100.0))
            .collect();
        let _ = writeln!(out, "shard utilization: [{}]", utilization.join(", "));
        let _ = writeln!(
            out,
            "peak commands in flight per shard: [{}]",
            per_shard(|s| s.peak_inflight.to_string()),
        );
        let _ = writeln!(
            out,
            "host-resident database: {:.2} MB across {} shard views (shared storage, \
             counted once)",
            self.resident_database_bytes as f64 / 1e6,
            stats.len(),
        );
        let _ = writeln!(
            out,
            "step 3: {} reads mapped; per-shard reads served: [{}]; \
             stage overlap events: {}",
            self.mapped_reads,
            per_shard(|s| s.step3_items.to_string()),
            self.stage_overlap_events,
        );
        let (faults, retries) = (sum(|s| s.faults), sum(|s| s.retries));
        let dead: Vec<String> = stats
            .iter()
            .filter(|s| s.dead)
            .map(|s| s.shard.to_string())
            .collect();
        if faults + retries + self.failed_jobs > 0 || !dead.is_empty() {
            let dead = if dead.is_empty() {
                "none".to_string()
            } else {
                format!("[{}]", dead.join(", "))
            };
            let _ = writeln!(
                out,
                "degraded mode: {faults} command faults, {retries} retries ({} failovers), \
                 dead shards: {dead}, failed jobs: {}; {} reads served for dead shards",
                sum(|s| s.failovers),
                self.failed_jobs,
                sum(|s| s.stolen_items),
            );
        }
        match &self.stage_breakdown {
            Some(breakdown) => {
                let _ = writeln!(out, "stage breakdown (mean): {}", breakdown.summary_line());
            }
            None => out.push_str("stage breakdown (mean): n/a (tracing disabled)\n"),
        }
        // The straggler analysis reads the ring, so it is computed from a
        // truncated log if the ring evicted events; the breakdowns above are
        // folded by the completer and never read it.
        if let Some(trace) = self.trace.as_ref().filter(|trace| trace.dropped > 0) {
            let _ = writeln!(
                out,
                "trace: {} events, {} dropped — straggler figures are incomplete",
                trace.events.len(),
                trace.dropped,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// A report over `shard_stats` with nothing else to say.
    fn report(shard_stats: Vec<ShardStats>, failed_jobs: u64) -> ServiceReport {
        ServiceReport {
            completed: 0,
            uptime: ms(100),
            shard_stats,
            resident_database_bytes: 0,
            mapped_reads: 0,
            stage_overlap_events: 0,
            failed_jobs,
            window: LatencyStats::default(),
            stage_breakdown: None,
            straggler: None,
            trace: None,
        }
    }

    #[test]
    fn degraded_line_appears_only_under_fault_activity() {
        let clean = vec![ShardStats::default(), ShardStats::default()];
        let summary = report(clean.clone(), 0).summary();
        assert!(!summary.contains("degraded mode"), "{summary}");
        assert_eq!(summary.lines().count(), 7, "{summary}");

        let mut stats = clean.clone();
        stats[1].shard = 1;
        stats[1].faults = 3;
        stats[1].retries = 3;
        stats[1].failovers = 1;
        stats[1].dead = true;
        stats[0].stolen_items = 40;
        let summary = report(stats, 2).summary();
        assert!(
            summary.contains(
                "degraded mode: 3 command faults, 3 retries (1 failovers), dead shards: [1], \
                 failed jobs: 2; 40 reads served for dead shards\n"
            ),
            "{summary}"
        );

        let failed_only = report(clean, 1).summary();
        assert!(failed_only.contains("dead shards: none"), "{failed_only}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&sorted, 50.0), ms(50));
        assert_eq!(percentile(&sorted, 90.0), ms(90));
        assert_eq!(percentile(&sorted, 99.0), ms(99));
        assert_eq!(
            percentile(&sorted, 99.9),
            ms(100),
            "ceil(99.9) ranks last of 100"
        );
        assert_eq!(percentile(&sorted, 100.0), ms(100));
        assert_eq!(percentile(&[ms(7)], 50.0), ms(7));
    }

    #[test]
    fn tail_percentiles_populate_from_latencies() {
        let latencies: Vec<Duration> = (1..=1000).map(ms).collect();
        let stats = LatencyStats::from_latencies(&latencies);
        assert_eq!(stats.p90, ms(900));
        assert_eq!(stats.p99, ms(990));
        // 99.9/100 × 1000 lands a hair above 999.0 in f64, so the ceil rank
        // is 1000: p999 coincides with max at this sample count.
        assert_eq!(stats.p999, ms(1000));
        assert_eq!(stats.max, ms(1000));
        // At 10000 samples the p999/max distinction is real.
        let latencies: Vec<Duration> = (1..=10000).map(ms).collect();
        let stats = LatencyStats::from_latencies(&latencies);
        assert_eq!(stats.p999, ms(9991));
        assert_eq!(stats.max, ms(10000));
    }

    #[test]
    fn latency_stats_from_unordered_input() {
        let stats = LatencyStats::from_latencies(&[ms(30), ms(10), ms(20)]);
        assert_eq!(stats.count, 3);
        assert_eq!(stats.mean, ms(20));
        assert_eq!(stats.p50, ms(20));
        assert_eq!(stats.max, ms(30));
    }

    #[test]
    fn mean_is_exact_for_non_dividing_sums() {
        // 1ms + 2ms over 2 samples: the mean is 1.5ms exactly, computed in
        // integer nanoseconds rather than `Duration / u32`.
        let stats = LatencyStats::from_latencies(&[ms(1), ms(2)]);
        assert_eq!(stats.mean, Duration::from_micros(1500));
        // 7ns over 3 samples floors to 2ns — no panic, no precision loss
        // beyond the final integer nanosecond.
        let ns = |v: u64| Duration::from_nanos(v);
        let stats = LatencyStats::from_latencies(&[ns(1), ns(2), ns(4)]);
        assert_eq!(stats.mean, ns(2));
    }

    #[test]
    fn rolling_window_evicts_oldest() {
        let mut w = RollingWindow::new(3);
        let epoch = Instant::now();
        assert_eq!(w.stats().count, 0);
        assert_eq!(w.throughput(), 0.0);
        w.record_at(epoch, ms(10));
        assert_eq!(w.throughput(), 0.0, "one completion spans no interval");
        for v in [20, 30, 40] {
            w.record_at(epoch + ms(v), ms(v));
        }
        let stats = w.stats();
        assert_eq!(stats.count, 3, "window holds only the newest 3");
        assert_eq!(stats.max, ms(40), "oldest entry was evicted");
        assert_eq!(stats.p50, ms(30));
        assert!(w.throughput() > 0.0);
    }

    #[test]
    fn record_at_makes_throughput_deterministic() {
        let mut w = RollingWindow::new(8);
        let epoch = Instant::now();
        // Four completions exactly 250 ms apart: 3 intervals over 750 ms is
        // exactly 4 completions/s — assertable only with injected instants.
        for i in 0..4u64 {
            w.record_at(epoch + Duration::from_millis(250 * i), ms(10));
        }
        let throughput = w.throughput();
        assert!(
            (throughput - 4.0).abs() < 1e-9,
            "expected exactly 4/s, got {throughput}"
        );
        assert_eq!(w.stats().count, 4);
        // Eviction keeps the unbiased estimator anchored on the oldest
        // *windowed* entry, not the all-time oldest.
        let mut w = RollingWindow::new(2);
        w.record_at(epoch, ms(1));
        w.record_at(epoch + Duration::from_secs(100), ms(1));
        w.record_at(epoch + Duration::from_secs(101), ms(1));
        assert!((w.throughput() - 1.0).abs() < 1e-9, "1 interval over 1 s");
    }

    #[test]
    fn a_burst_at_one_instant_has_no_throughput_yet() {
        // Every job one settle delivers is stamped with the same instant:
        // until a later completion arrives the window spans no interval,
        // and dividing by a clamped span read about 10^9 per second.
        let mut w = RollingWindow::new(8);
        let epoch = Instant::now();
        w.record_at(epoch, ms(10));
        w.record_at(epoch, ms(12));
        assert_eq!(w.throughput(), 0.0);
        w.record_at(epoch + ms(500), ms(11));
        assert!(
            (w.throughput() - 4.0).abs() < 1e-9,
            "2 intervals over 0.5 s"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_window_rejected() {
        RollingWindow::new(0);
    }

    #[test]
    fn empty_latencies_give_zeroes() {
        let stats = LatencyStats::from_latencies(&[]);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.max, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile(&[], 50.0);
    }
}
