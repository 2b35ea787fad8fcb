//! Operational metrics: latency percentiles, per-shard busy accounting, the
//! rolling window the service reports while it is live, and the
//! [`ServiceReport`] it returns at shutdown.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

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
        if latencies.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort();
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
            max: *sorted.last().unwrap(),
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
    total: u64,
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
            total: 0,
        }
    }

    /// Records one completion (now) with the given end-to-end latency,
    /// evicting the oldest entry once the window is full.
    pub fn record(&mut self, latency: Duration) {
        self.record_at(Instant::now(), latency);
    }

    /// Records one completion at an explicit instant — the injectable form
    /// [`RollingWindow::record`] wraps, so [`RollingWindow::throughput`] is
    /// deterministically testable. Entries are expected in non-decreasing
    /// instant order (the engine records completions as they happen).
    pub fn record_at(&mut self, at: Instant, latency: Duration) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((at, latency));
        self.total += 1;
    }

    /// Number of completions currently inside the window.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has completed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Completions recorded over the window's whole lifetime (not just the
    /// entries still inside it).
    pub fn total_recorded(&self) -> u64 {
        self.total
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
    /// holds at least two completions.
    pub fn throughput(&self) -> f64 {
        let (Some((oldest, _)), Some((newest, _))) = (self.entries.front(), self.entries.back())
        else {
            return 0.0;
        };
        if self.entries.len() < 2 {
            return 0.0;
        }
        let span = newest.duration_since(*oldest).as_secs_f64();
        (self.entries.len() - 1) as f64 / span.max(1e-9)
    }
}

/// Busy-time accounting for one shard (simulated SSD) worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Shard index (lexicographic range order).
    pub shard: usize,
    /// Total time the shard's worker spent computing (both command kinds).
    pub busy: Duration,
    /// Number of intersection commands served (one per job whose query
    /// slice was dispatched to this shard; zero for empty padding shards,
    /// which are never commanded).
    pub jobs: u64,
    /// Total query k-mers this shard scanned across all commands. With
    /// range-partitioned dispatch the per-job sum across shards equals the
    /// job's query count |Q| — not the N·|Q| a broadcast would cost.
    pub query_items: u64,
    /// Number of Step 3 commands served: one per read range of a job with
    /// candidates (a job cuts its reads into at most one range per device,
    /// fewer when it has few reads, none when it has no candidates).
    pub step3_jobs: u64,
    /// Total reads this device mapped across its Step 3 commands (the sum
    /// of the served read-range lengths). A job's ranges are disjoint and
    /// cover its sample, so the per-job sum across shards equals the job's
    /// read count — each read is mapped on exactly one device.
    pub step3_items: u64,
    /// Of [`ShardStats::step3_items`], the reads this device mapped for a
    /// command it adopted off a *dead* peer's queue (failover: live workers
    /// serve what a dead shard left queued); 0 on a healthy array. Adoption
    /// moves only the physical service: the result stays tagged with the
    /// shard-of-record, so the completer's fold is unchanged.
    pub stolen_items: u64,
    /// High-water mark of commands concurrently outstanding on this shard's
    /// NVMe-style queue (submitted, completion not yet reaped); bounded by
    /// [`crate::EngineConfig::queue_depth`]. A value ≥ 2 means several
    /// samples' commands were genuinely in flight on the device at once.
    pub peak_inflight: usize,
    /// Injected command faults this shard's worker reported (transient
    /// errors plus dead-shard rejections; zero without a
    /// [`crate::fault::FaultPlan`]).
    pub faults: u64,
    /// Commands re-issued after a transient failure or deadline expiry,
    /// charged to the command's shard-of-record. With a fully recoverable
    /// plan, `sum(retries) == sum(faults)` across shards.
    pub retries: u64,
    /// Re-issues routed to a *different* (surviving) shard because this
    /// shard-of-record was dead; a subset of [`ShardStats::retries`].
    pub failovers: u64,
    /// Whether the shard's worker died permanently during the run (fault
    /// plan shard death).
    pub dead: bool,
}

/// Named accessors for the counters other modules report into a
/// [`ShardStats`]. Mutating the counter fields directly outside this module
/// is a `megis-lint` diagnostic (`shardstats-accessor`): funneling every
/// write through a named method keeps the accounting invariants — which
/// counter means what, and who owns it — reviewable in one place.
impl ShardStats {
    /// Records the high-water mark of commands concurrently outstanding on
    /// this shard's queue ([`ShardStats::peak_inflight`]), taken from the
    /// dispatcher's shared gate state at teardown.
    pub fn set_peak_inflight(&mut self, peak: usize) {
        self.peak_inflight = peak;
    }

    /// Records the re-issues charged to this shard-of-record
    /// ([`ShardStats::retries`]), taken from the completer's shared ledger
    /// counters at teardown.
    pub fn set_retries(&mut self, retries: u64) {
        self.retries = retries;
    }

    /// Records the re-issues routed away from this dead shard-of-record
    /// ([`ShardStats::failovers`]), taken from the completer's shared
    /// ledger counters at teardown.
    pub fn set_failovers(&mut self, failovers: u64) {
        self.failovers = failovers;
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
    /// Mean per-job stage breakdown over the jobs whose timelines the trace
    /// captured; `None` when tracing was disabled or no breakdown could be
    /// reconstructed.
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
                 dead shards: {dead}, failed jobs: {}; {} reads served off dead peers' queues",
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
        // Every traced figure above was computed from a truncated log if the
        // bounded ring evicted events.
        if let Some(trace) = self.trace.as_ref().filter(|trace| trace.dropped > 0) {
            let _ = writeln!(
                out,
                "trace: {} events, {} dropped — breakdown and straggler figures are incomplete",
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
                 failed jobs: 2; 40 reads served off dead peers' queues\n"
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
    fn rolling_window_evicts_oldest_and_counts_lifetime() {
        let mut w = RollingWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.throughput(), 0.0);
        w.record(ms(10));
        assert_eq!(w.throughput(), 0.0, "one completion spans no interval");
        for v in [20, 30, 40] {
            w.record(ms(v));
        }
        assert_eq!(w.len(), 3, "window holds only the newest 3");
        assert_eq!(w.total_recorded(), 4);
        let stats = w.stats();
        assert_eq!(stats.count, 3);
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
        assert_eq!(w.total_recorded(), 4);
        // Eviction keeps the unbiased estimator anchored on the oldest
        // *windowed* entry, not the all-time oldest.
        let mut w = RollingWindow::new(2);
        w.record_at(epoch, ms(1));
        w.record_at(epoch + Duration::from_secs(100), ms(1));
        w.record_at(epoch + Duration::from_secs(101), ms(1));
        assert!((w.throughput() - 1.0).abs() < 1e-9, "1 interval over 1 s");
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
