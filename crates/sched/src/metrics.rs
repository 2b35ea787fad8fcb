//! Operational metrics: latency percentiles, throughput, and per-shard
//! utilization for one batch run, plus the rolling window the streaming
//! service reports while it is live.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::job::{JobError, JobResult};
use crate::model::ModeledAccount;
use crate::trace::{StageBreakdown, StragglerReport, TraceLog};

/// Latency distribution over the completed jobs of a batch.
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
    /// Coalescing does not change this: a shared command is charged every
    /// member's slice length, same as the commands it replaced.
    pub query_items: u64,
    /// Of [`ShardStats::jobs`], the intersect commands that carried more
    /// than one member sample — shared sweeps the cross-sample coalescing
    /// window formed. Zero with the window off (the default).
    pub coalesced_commands: u64,
    /// Total member samples across this shard's coalesced commands (each
    /// such command contributes its member count, ≥ 2). Together with
    /// [`ShardStats::coalesced_commands`] this gives the mean batch
    /// occupancy; `coalesced_members - coalesced_commands` is the number of
    /// database sweeps coalescing saved on this shard.
    pub coalesced_members: u64,
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
    /// command taken off a *peer's* queue via work stealing or dead-shard
    /// adoption (zero when stealing is disabled or the load was balanced).
    /// Stealing moves only the physical service: the result stays tagged
    /// with the shard-of-record, so the completer's fold is unchanged.
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

/// Everything a batch run reports.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job results, sorted by [`crate::job::JobId`].
    pub results: Vec<JobResult>,
    /// Jobs that failed in isolation (retry budget exhausted, worker panic,
    /// no live shard), sorted by job id; empty on a clean run. The engine
    /// kept serving the jobs in [`BatchReport::results`].
    pub failed: Vec<JobError>,
    /// Wall-clock time of the whole batch (first dispatch to last
    /// completion).
    pub wall_time: Duration,
    /// Latency distribution (submission to completion).
    pub latency: LatencyStats,
    /// Completed samples per wall-clock second.
    pub throughput: f64,
    /// Per-shard busy accounting.
    pub shard_stats: Vec<ShardStats>,
    /// Host heap bytes the engine's shard set keeps resident, counting the
    /// shared columnar storage once ([`crate::ShardSet::resident_bytes`]).
    /// With zero-copy shard views this is ≈ 1× the database regardless of
    /// the shard count — not the 2× a deep-copy partition would pin.
    pub resident_database_bytes: u64,
    /// Times a command of one in-SSD stage was submitted while a command of
    /// the *other* stage was outstanding somewhere on the device array —
    /// direct evidence that one sample's Step 3 mapping overlapped another
    /// sample's Step 2 intersection in the command queues.
    pub stage_overlap_events: u64,
    /// Modeled-time account at paper scale for this batch shape
    /// (cross-checks `MegisTimingModel::multi_sample_breakdown`); `None`
    /// when the batch was empty and there is no shape to model.
    pub modeled: Option<ModeledAccount>,
    /// Mean per-job stage breakdown over the jobs whose timelines the trace
    /// captured; `None` when tracing was disabled (the default) or no job's
    /// breakdown could be reconstructed.
    pub stage_breakdown: Option<StageBreakdown>,
    /// Per-device straggler analysis of the traced run; `None` when tracing
    /// was disabled.
    pub straggler: Option<StragglerReport>,
    /// The raw event log ([`TraceLog::to_json`] exports it); `None` when
    /// tracing was disabled.
    pub trace: Option<TraceLog>,
}

impl BatchReport {
    /// Fraction of the batch wall time each shard's intersect worker was
    /// busy, in shard order.
    pub fn shard_utilization(&self) -> Vec<f64> {
        let wall = self.wall_time.as_secs_f64();
        self.shard_stats
            .iter()
            .map(|s| {
                if wall > 0.0 {
                    s.busy.as_secs_f64() / wall
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Total reads mapped during Step 3 across the batch's results.
    pub fn mapped_reads(&self) -> u64 {
        self.results.iter().map(|r| r.output.mapped_reads).sum()
    }

    /// Renders a compact plain-text summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "batch: {} jobs in {:.3} s ({:.2} samples/s)",
            self.results.len(),
            self.wall_time.as_secs_f64(),
            self.throughput,
        );
        out.push_str(&latency_line(&self.latency));
        let utils: Vec<String> = self
            .shard_utilization()
            .iter()
            .map(|u| format!("{:.0}%", u * 100.0))
            .collect();
        let _ = writeln!(out, "shard utilization: [{}]", utils.join(", "));
        let peaks: Vec<String> = self
            .shard_stats
            .iter()
            .map(|s| s.peak_inflight.to_string())
            .collect();
        let _ = writeln!(
            out,
            "peak commands in flight per shard: [{}]",
            peaks.join(", ")
        );
        out.push_str(&residency_and_step3_lines(
            self.resident_database_bytes,
            &self.shard_stats,
            self.mapped_reads(),
            self.stage_overlap_events,
        ));
        if let Some(line) = coalescing_line(&self.shard_stats) {
            out.push_str(&line);
        }
        if let Some(line) = degraded_line(&self.shard_stats, self.failed.len() as u64) {
            out.push_str(&line);
        }
        out.push_str(&stage_breakdown_line(self.stage_breakdown.as_ref()));
        if let Some(line) = trace_overflow_line(self.trace.as_ref()) {
            out.push_str(&line);
        }
        match &self.modeled {
            Some(modeled) => {
                let _ = writeln!(
                    out,
                    "modeled ({} samples, {} shards): independent {:.1} s, pipelined {:.1} s \
                     ({:.2}x); per-shard db stream {:.1} s, step3 index stream {:.1} s",
                    modeled.samples,
                    modeled.shards,
                    modeled.independent_total().as_secs(),
                    modeled.pipelined_total().as_secs(),
                    modeled.pipelining_speedup(),
                    modeled.shard_stream_time.as_secs(),
                    modeled.step3_stream_time.as_secs(),
                );
            }
            None => {
                let _ = writeln!(out, "modeled: n/a (empty batch)");
            }
        }
        out
    }
}

/// Renders the latency line shared verbatim by [`BatchReport::summary`] and
/// [`crate::service::ServiceReport::summary`].
pub(crate) fn latency_line(latency: &LatencyStats) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    format!(
        "latency: mean {:.1} ms, p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, \
         p999 {:.1} ms, max {:.1} ms\n",
        ms(latency.mean),
        ms(latency.p50),
        ms(latency.p90),
        ms(latency.p99),
        ms(latency.p999),
        ms(latency.max),
    )
}

/// Renders the mean stage-breakdown line shared verbatim by both report
/// summaries ("n/a" when tracing was disabled, so the line — and its golden
/// tests — exist in both modes).
pub(crate) fn stage_breakdown_line(breakdown: Option<&StageBreakdown>) -> String {
    match breakdown {
        Some(breakdown) => format!("stage breakdown (mean): {}\n", breakdown.summary_line()),
        None => "stage breakdown (mean): n/a (tracing disabled)\n".to_string(),
    }
}

/// Renders the trace-overflow warning shared by both report summaries —
/// only when the bounded ring evicted events, because every traced figure
/// above it (stage breakdown, straggler report) was then computed from a
/// truncated log. Clean summaries stay byte-identical.
pub(crate) fn trace_overflow_line(trace: Option<&TraceLog>) -> Option<String> {
    let trace = trace.filter(|trace| trace.dropped > 0)?;
    Some(format!(
        "trace: {} events, {} dropped — breakdown and straggler figures are incomplete\n",
        trace.events.len(),
        trace.dropped,
    ))
}

/// Renders the resident-database and Step 3 summary lines shared verbatim
/// by [`BatchReport::summary`] and
/// [`crate::service::ServiceReport::summary`], so the two reports cannot
/// drift apart.
pub(crate) fn residency_and_step3_lines(
    resident_database_bytes: u64,
    shard_stats: &[ShardStats],
    mapped_reads: u64,
    stage_overlap_events: u64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "host-resident database: {:.2} MB across {} shard views (shared storage, \
         counted once)",
        resident_database_bytes as f64 / 1e6,
        shard_stats.len(),
    );
    let step3_items: Vec<String> = shard_stats
        .iter()
        .map(|s| s.step3_items.to_string())
        .collect();
    let _ = writeln!(
        out,
        "step 3: {mapped_reads} reads mapped; per-shard reads served: [{}]; \
         stage overlap events: {stage_overlap_events}",
        step3_items.join(", "),
    );
    let stolen_items: Vec<String> = shard_stats
        .iter()
        .map(|s| s.stolen_items.to_string())
        .collect();
    let total_stolen: u64 = shard_stats.iter().map(|s| s.stolen_items).sum();
    let _ = writeln!(
        out,
        "work stealing: {total_stolen} reads served for peers; \
         per-device stolen reads: [{}]",
        stolen_items.join(", "),
    );
    out
}

/// Renders the cross-sample coalescing summary line shared by both report
/// summaries — only when at least one shared sweep was formed, so runs with
/// the window off (the default) keep their summaries byte-identical to the
/// pre-coalescing format.
///
/// Mean batch occupancy counts every intersect command (singletons
/// included): it is the average number of samples one database sweep
/// served. Sweeps saved is the number of per-sample sweeps coalescing
/// avoided — the members that rode along on someone else's pass.
pub(crate) fn coalescing_line(shard_stats: &[ShardStats]) -> Option<String> {
    let coalesced: u64 = shard_stats.iter().map(|s| s.coalesced_commands).sum();
    if coalesced == 0 {
        return None;
    }
    let sweeps: u64 = shard_stats.iter().map(|s| s.jobs).sum();
    let coalesced_members: u64 = shard_stats.iter().map(|s| s.coalesced_members).sum();
    let member_slices = (sweeps - coalesced) + coalesced_members;
    let occupancy = member_slices as f64 / sweeps.max(1) as f64;
    let saved = member_slices - sweeps;
    Some(format!(
        "query coalescing: {coalesced} shared sweeps served {coalesced_members} member \
         slices; mean batch occupancy {occupancy:.2}, {saved} sweeps saved\n"
    ))
}

/// Renders the degraded-mode summary line shared by both report summaries —
/// only when there was fault activity (injected faults, retries, failovers,
/// dead shards, or failed jobs), so clean-run summaries are byte-identical
/// to the pre-fault-tolerance format.
pub(crate) fn degraded_line(shard_stats: &[ShardStats], failed_jobs: u64) -> Option<String> {
    let faults: u64 = shard_stats.iter().map(|s| s.faults).sum();
    let retries: u64 = shard_stats.iter().map(|s| s.retries).sum();
    let failovers: u64 = shard_stats.iter().map(|s| s.failovers).sum();
    let dead: Vec<String> = shard_stats
        .iter()
        .filter(|s| s.dead)
        .map(|s| s.shard.to_string())
        .collect();
    if faults == 0 && retries == 0 && failovers == 0 && dead.is_empty() && failed_jobs == 0 {
        return None;
    }
    let dead_text = if dead.is_empty() {
        "none".to_string()
    } else {
        format!("[{}]", dead.join(", "))
    };
    Some(format!(
        "degraded mode: {faults} command faults, {retries} retries ({failovers} failovers), \
         dead shards: {dead_text}, failed jobs: {failed_jobs}\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn degraded_line_appears_only_under_fault_activity() {
        let clean = vec![ShardStats::default(), ShardStats::default()];
        assert_eq!(degraded_line(&clean, 0), None);

        let mut stats = clean.clone();
        stats[1].shard = 1;
        stats[1].faults = 3;
        stats[1].retries = 3;
        stats[1].failovers = 1;
        stats[1].dead = true;
        let line = degraded_line(&stats, 2).expect("fault activity renders the line");
        assert!(line.contains("3 command faults"), "{line}");
        assert!(line.contains("3 retries (1 failovers)"), "{line}");
        assert!(line.contains("dead shards: [1]"), "{line}");
        assert!(line.contains("failed jobs: 2"), "{line}");

        let failed_only = degraded_line(&clean, 1).expect("failed jobs alone render the line");
        assert!(failed_only.contains("dead shards: none"), "{failed_only}");
    }

    #[test]
    fn coalescing_line_appears_only_when_sweeps_were_shared() {
        let mut stats = vec![ShardStats::default(), ShardStats::default()];
        stats[0].jobs = 4;
        stats[1].shard = 1;
        stats[1].jobs = 4;
        assert_eq!(
            coalescing_line(&stats),
            None,
            "window off: no coalesced commands, no line"
        );

        // Shard 0: 2 singleton sweeps + 2 coalesced sweeps carrying 3
        // members each; shard 1: 4 singletons. 8 sweeps served 12 member
        // slices: occupancy 12/8 = 1.50, 4 sweeps saved.
        stats[0].coalesced_commands = 2;
        stats[0].coalesced_members = 6;
        let line = coalescing_line(&stats).expect("shared sweeps render the line");
        assert!(
            line.contains("2 shared sweeps served 6 member slices"),
            "{line}"
        );
        assert!(line.contains("mean batch occupancy 1.50"), "{line}");
        assert!(line.contains("4 sweeps saved"), "{line}");
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
