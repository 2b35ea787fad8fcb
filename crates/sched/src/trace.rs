//! Pipeline tracing: per-command lifecycle events, per-job stage-latency
//! breakdowns, and the straggler report of the device array.
//!
//! The engine's aggregate metrics ([`crate::metrics::ShardStats`],
//! end-to-end latency) say *that* the 8-device Step 3 sweep regresses, not
//! *why*: they cannot distinguish a command waiting in a queue from a device
//! mapping a sample's reads from a delivery barriering on one slow command.
//! This module records what GenStore-style in-storage accounting
//! records inside the device — the lifecycle of every command — and holds
//! the answers the completer folds as it goes:
//!
//! * [`TraceSink`] — a cheap, bounded, multi-producer ring buffer of
//!   timestamped [`TraceEvent`]s. Every thread that records (submitters,
//!   and the pool threads that run Step 1, serve the devices and settle the
//!   decision core) holds a clone and records the events it owns:
//!   admission, Step 1 start/end, per `(seq, shard)` command
//!   issued/started/completed for both command kinds, reduce start/end,
//!   delivery. The sink is **zero-cost when
//!   disabled**: [`TraceSink::disabled`] carries no buffer at all, and
//!   [`TraceSink::record`] is an inlined `None` check — the repository
//!   benchmark's `sched.trace.overhead_frac` row measures the whole-engine
//!   cost of turning it on. The ring is an export-only recorder of
//!   [`DEFAULT_TRACE_CAPACITY`] events: only the [`TraceLog`] a report
//!   carries reads it, and no figure does.
//! * [`StageBreakdown`] — the per-job answer: the job's
//!   submission→delivery wall clock partitioned into consecutive stage
//!   segments (queue wait, Step 1, per-stage queue wait vs. device service,
//!   reduce barrier, reduce). The completer folds the device stamps each
//!   completion carries into the job's timeline and builds the breakdown at
//!   delivery, never reading the ring. The segments **telescope**: their
//!   sum matches the independently measured [`crate::JobResult::latency`]
//!   to well under 1%.
//! * [`StragglerReport`] — the per-device answer: busy / stall / idle
//!   fractions per device over the run, and per-device Step 3 busy time
//!   with the max/min skew — the direct evidence of how evenly the per-job
//!   Step 3 commands spread over the array. The completer's tally folds it
//!   beside [`crate::metrics::ShardStats`] as it settles, tracing on or
//!   off; fault, retry and failover counts stay in `ShardStats`.
//!
//! Events are stamped as [`Duration`]s since the sink's epoch (the engine's
//! start), so a whole trace serializes losslessly with
//! [`TraceLog::to_json`]. A caller that stamps an event itself passes a
//! [`TraceStamp`], which only [`TraceSink::now`] makes: the sink's epoch is
//! the one clock an event can be stamped with.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::lock::Leaf;

/// Sequence key used for events recorded before the job has an in-SSD
/// dispatch position (admission happens before the scheduler assigns one).
pub const NO_SEQ: usize = usize::MAX;

/// Ring-buffer capacity of the engine's sink when tracing is on (events,
/// not bytes; a `TraceEvent` is a few machine words).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Which in-SSD command kind a device-side event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceStage {
    /// Step 2 intersection finding.
    Intersect,
    /// Step 3 of one job: its unified-index merge plus the mapping of
    /// every read.
    Step3,
}

impl TraceStage {
    /// Short label for reports and the JSON export.
    pub fn label(self) -> &'static str {
        match self {
            TraceStage::Intersect => "intersect",
            TraceStage::Step3 => "step3",
        }
    }
}

/// What happened. Each producer records only the variants it owns; the
/// payloads carry exactly what that producer knows at that instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A job was admitted ([`crate::StreamingEngine::submit_all`]). Keyed by
    /// job id: no dispatch position exists yet.
    Admitted {
        /// The admitted job's id ([`crate::JobId`] payload).
        job: u64,
    },
    /// A pool thread popped the job and started host-side Step 1; binds
    /// the job id to its dispatch sequence for the analysis join.
    Step1Started {
        /// The job's id.
        job: u64,
    },
    /// Host-side Step 1 finished; the prepared sample heads to the
    /// completer, which opens it for the in-SSD stage in dispatch order.
    Step1Finished,
    /// A command was issued onto a shard's NVMe-style queue: the
    /// completer's backlog issues both kinds, and a retry re-issues one.
    CommandIssued {
        /// Command kind.
        stage: TraceStage,
        /// The device the command was put on — the one that serves it (a
        /// device serves only its own queue), which under failover differs
        /// from the shard-of-record.
        shard: usize,
    },
    /// The device began serving the command. `started - issued` is the
    /// command's in-queue wait.
    CommandStarted {
        /// Command kind.
        stage: TraceStage,
        /// Serving device.
        shard: usize,
    },
    /// The device finished the command and reported its completion.
    CommandCompleted {
        /// Command kind.
        stage: TraceStage,
        /// Serving device.
        shard: usize,
    },
    /// The completer began finishing the job (its Step 3 result reaped
    /// *and* every earlier sequence delivered — the in-order barrier).
    ReduceStarted,
    /// The reduce finished and the output was assembled.
    ReduceFinished,
    /// The result left on the job's handle.
    Delivered {
        /// The job's id.
        job: u64,
    },
    /// A device failed the command (injected transient error, dead shard,
    /// or caught worker panic) instead of completing it.
    Fault {
        /// Command kind.
        stage: TraceStage,
        /// Shard-of-record of the failed command.
        shard: usize,
    },
    /// The completer re-issued a failed command against its retry budget.
    Retry {
        /// Command kind.
        stage: TraceStage,
        /// Shard-of-record of the retried command.
        shard: usize,
        /// The re-issue's attempt number (1 for the first retry).
        attempt: u32,
    },
    /// A retry was routed to a different device because the shard-of-record
    /// is dead (zero-copy failover: every worker holds the shared storage).
    Failover {
        /// Command kind.
        stage: TraceStage,
        /// The dead shard-of-record.
        from: usize,
        /// The surviving device the command was re-issued to.
        to: usize,
    },
}

/// One timestamped lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Time since the sink's epoch.
    pub at: Duration,
    /// In-SSD dispatch sequence (= `start_position`) the event belongs to;
    /// [`NO_SEQ`] for admission events, which precede dispatch.
    pub seq: usize,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A time since a sink's epoch, as [`TraceSink::now`] read it.
///
/// Only this module makes one, so [`TraceSink::record_at`] cannot be handed
/// a clock read of the caller's own (`Instant::now()`, `.elapsed()`): that
/// read would run even with tracing disabled, against the zero-cost
/// contract of [`TraceSink::disabled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceStamp(Duration);

impl TraceStamp {
    /// The time since the sink's epoch.
    pub fn since_epoch(self) -> Duration {
        self.0
    }
}

/// Bounded ring of recorded events plus the count evicted once full.
#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

#[derive(Debug)]
struct SinkInner {
    epoch: Instant,
    ring: Leaf<Ring>,
}

impl SinkInner {
    /// The sink's one clock read.
    fn stamp(&self) -> TraceStamp {
        TraceStamp(self.epoch.elapsed())
    }
}

/// A cheap, bounded, multi-producer trace sink.
///
/// Clone it into every producer thread; clones share one ring buffer. The
/// disabled sink ([`TraceSink::disabled`]) holds nothing and records
/// nothing: [`TraceSink::record`] is then a single inlined branch, so the
/// engine pays ~zero for the instrumentation points it never uses.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl TraceSink {
    /// The no-op sink: records nothing, allocates nothing.
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// An enabled sink whose ring keeps the most recent `capacity` events
    /// (oldest evicted first; [`TraceSink::dropped`] counts evictions).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> TraceSink {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                epoch: Instant::now(),
                ring: Leaf::new(Ring {
                    events: VecDeque::with_capacity(capacity.min(4096)),
                    capacity,
                    dropped: 0,
                }),
            })),
        }
    }

    /// Whether events are recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Time since the sink's epoch (zero for a disabled sink).
    pub fn now(&self) -> TraceStamp {
        self.inner
            .as_ref()
            .map_or(TraceStamp(Duration::ZERO), |inner| inner.stamp())
    }

    /// Records one event stamped now. On a disabled sink this is a single
    /// branch — no lock, no clock read, no allocation.
    #[inline]
    pub fn record(&self, seq: usize, kind: TraceEventKind) {
        if let Some(inner) = &self.inner {
            let at = inner.stamp().0;
            Self::push(inner, TraceEvent { at, seq, kind });
        }
    }

    /// Records one event with an explicit timestamp (a [`TraceSink::now`]
    /// the caller already took, so a derived computation and its event agree
    /// on the instant).
    ///
    /// ```
    /// use megis_sched::{TraceEventKind, TraceSink};
    ///
    /// let sink = TraceSink::bounded(16);
    /// let at = sink.now();
    /// sink.record_at(at, 0, TraceEventKind::ReduceStarted);
    /// assert_eq!(sink.events()[0].at, at.since_epoch());
    /// ```
    ///
    /// A stamp comes only from the sink: a clock read of the caller's own
    /// does not compile.
    ///
    /// ```compile_fail,E0308
    /// use megis_sched::{TraceEventKind, TraceSink};
    /// use std::time::Instant;
    ///
    /// let sink = TraceSink::bounded(16);
    /// sink.record_at(Instant::now().elapsed(), 0, TraceEventKind::ReduceStarted);
    /// ```
    #[inline]
    pub fn record_at(&self, at: TraceStamp, seq: usize, kind: TraceEventKind) {
        if let Some(inner) = &self.inner {
            Self::push(
                inner,
                TraceEvent {
                    at: at.0,
                    seq,
                    kind,
                },
            );
        }
    }

    fn push(inner: &SinkInner, event: TraceEvent) {
        inner.ring.with(|ring| {
            if ring.events.len() == ring.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.events.push_back(event);
        });
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| inner.ring.with(|ring| ring.dropped))
            .unwrap_or(0)
    }

    /// Snapshot of every held event, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map(|inner| inner.ring.with(|ring| Vec::from(ring.events.clone())))
            .unwrap_or_default()
    }
}

/// The full trace of one engine run: the surviving events plus the count the
/// bounded ring evicted (a nonzero `dropped` means early events are missing
/// and whole-run analyses under-count).
#[derive(Debug, Clone)]
pub struct TraceLog {
    /// Recorded events in record order.
    pub events: Vec<TraceEvent>,
    /// Events the ring evicted before this snapshot.
    pub dropped: u64,
}

impl TraceLog {
    /// Serializes the trace as a JSON document (one object per event;
    /// timestamps in microseconds since the engine's epoch).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\n  \"trace\": \"megis-sched\",\n  \"events\": {},\n  \"dropped\": {},",
            self.events.len(),
            self.dropped,
        );
        out.push_str("  \"records\": [\n");
        for (i, event) in self.events.iter().enumerate() {
            let at_us = event.at.as_secs_f64() * 1e6;
            let seq = if event.seq == NO_SEQ {
                "null".to_string()
            } else {
                event.seq.to_string()
            };
            let body = match event.kind {
                TraceEventKind::Admitted { job } => {
                    format!("\"kind\": \"admitted\", \"job\": {job}")
                }
                TraceEventKind::Step1Started { job } => {
                    format!("\"kind\": \"step1_started\", \"job\": {job}")
                }
                TraceEventKind::Step1Finished => "\"kind\": \"step1_finished\"".to_string(),
                TraceEventKind::CommandIssued { stage, shard } => format!(
                    "\"kind\": \"command_issued\", \"stage\": \"{}\", \"shard\": {shard}",
                    stage.label()
                ),
                TraceEventKind::CommandStarted { stage, shard } => format!(
                    "\"kind\": \"command_started\", \"stage\": \"{}\", \"shard\": {shard}",
                    stage.label()
                ),
                TraceEventKind::CommandCompleted { stage, shard } => format!(
                    "\"kind\": \"command_completed\", \"stage\": \"{}\", \"shard\": {shard}",
                    stage.label()
                ),
                TraceEventKind::ReduceStarted => "\"kind\": \"reduce_started\"".to_string(),
                TraceEventKind::ReduceFinished => "\"kind\": \"reduce_finished\"".to_string(),
                TraceEventKind::Delivered { job } => {
                    format!("\"kind\": \"delivered\", \"job\": {job}")
                }
                TraceEventKind::Fault { stage, shard } => format!(
                    "\"kind\": \"fault\", \"stage\": \"{}\", \"shard\": {shard}",
                    stage.label()
                ),
                TraceEventKind::Retry {
                    stage,
                    shard,
                    attempt,
                } => format!(
                    "\"kind\": \"retry\", \"stage\": \"{}\", \"shard\": {shard}, \"attempt\": {attempt}",
                    stage.label()
                ),
                TraceEventKind::Failover { stage, from, to } => format!(
                    "\"kind\": \"failover\", \"stage\": \"{}\", \"from\": {from}, \"to\": {to}",
                    stage.label()
                ),
            };
            let _ = write!(
                out,
                "    {{ \"at_us\": {at_us:.3}, \"seq\": {seq}, {body} }}"
            );
            out.push_str(if i + 1 == self.events.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One job's submission→delivery wall clock, partitioned into consecutive
/// stage segments: its measured queue wait and Step 1, then the differences
/// of its timeline points from the Step 1 finish to the delivery. They
/// telescope: [`StageBreakdown::total`] matches the independently measured
/// [`crate::JobResult::latency`] to well under 1%.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Admission → Step 1 start: time queued under the admission policy.
    pub queue_wait: Duration,
    /// Step 1 start → end: host-side k-mer extraction, sorting, exclusion.
    pub step1: Duration,
    /// Step 1 end → earliest intersect command *started*: the dispatch
    /// reorder wait plus time queued behind other commands on the devices.
    pub step2_wait: Duration,
    /// Earliest intersect started → latest intersect completed: the window
    /// the device array spent serving this job's Step 2 commands.
    pub step2_service: Duration,
    /// Latest intersect completed → Step 3 command started: the presence
    /// call plus backlog and queue wait for the Step 3 command.
    pub step3_wait: Duration,
    /// Step 3 started → completed: the device generating the unified index
    /// and mapping the reads.
    pub step3_service: Duration,
    /// Step 3 completed → reduce start: the in-order delivery barrier
    /// (waiting on earlier sequences still in flight).
    pub reduce_barrier: Duration,
    /// Reduce start → delivery: output assembly and handle send.
    pub reduce: Duration,
}

impl StageBreakdown {
    /// Sum of every segment — the traced admission→delivery span.
    pub fn total(&self) -> Duration {
        self.queue_wait
            + self.step1
            + self.step2_wait
            + self.step2_service
            + self.step3_wait
            + self.step3_service
            + self.reduce_barrier
            + self.reduce
    }

    /// Adds another breakdown segment-wise (for aggregation).
    pub fn accumulate(&mut self, other: &StageBreakdown) {
        self.queue_wait += other.queue_wait;
        self.step1 += other.step1;
        self.step2_wait += other.step2_wait;
        self.step2_service += other.step2_service;
        self.step3_wait += other.step3_wait;
        self.step3_service += other.step3_service;
        self.reduce_barrier += other.reduce_barrier;
        self.reduce += other.reduce;
    }

    /// Divides every segment by `count`: the mean of `count` accumulated
    /// breakdowns, in integer nanoseconds (`Duration / u32` would truncate
    /// the count). Returns the zero breakdown for `count == 0`.
    pub fn mean_of(self, count: usize) -> StageBreakdown {
        if count == 0 {
            return StageBreakdown::default();
        }
        let mean = |d: Duration| Duration::from_nanos((d.as_nanos() / count as u128) as u64);
        StageBreakdown {
            queue_wait: mean(self.queue_wait),
            step1: mean(self.step1),
            step2_wait: mean(self.step2_wait),
            step2_service: mean(self.step2_service),
            step3_wait: mean(self.step3_wait),
            step3_service: mean(self.step3_service),
            reduce_barrier: mean(self.reduce_barrier),
            reduce: mean(self.reduce),
        }
    }

    /// One-line rendering used by both report summaries.
    pub fn summary_line(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        format!(
            "queue {:.1} ms | step1 {:.1} ms | step2 wait {:.1} + svc {:.1} ms | \
             step3 wait {:.1} + svc {:.1} ms | reduce barrier {:.1} + reduce {:.1} ms",
            ms(self.queue_wait),
            ms(self.step1),
            ms(self.step2_wait),
            ms(self.step2_service),
            ms(self.step3_wait),
            ms(self.step3_service),
            ms(self.reduce_barrier),
            ms(self.reduce),
        )
    }
}

/// The device-side points of one job's timeline, as the serving devices
/// stamped them: folded from its accepted completions in whatever order
/// they arrive, and turned into its [`StageBreakdown`] at delivery.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JobTimeline {
    /// Earliest intersect start, latest intersect finish.
    intersect: Option<(TraceStamp, TraceStamp)>,
    /// The Step 3 command's start and finish.
    step3: Option<(TraceStamp, TraceStamp)>,
}

impl JobTimeline {
    /// Folds one served `stage` command: a stage's window opens at its
    /// earliest start and closes at its latest finish.
    pub(crate) fn fold(&mut self, stage: TraceStage, started: TraceStamp, done: TraceStamp) {
        let window = match stage {
            TraceStage::Intersect => &mut self.intersect,
            TraceStage::Step3 => &mut self.step3,
        };
        *window = Some(window.map_or((started, done), |(first, last)| {
            (first.min(started), last.max(done))
        }));
    }

    /// The breakdown of a job that queued `queue_wait` and ran Step 1 for
    /// `step1` until `step1_done`; a stage it never entered (no query
    /// k-mers, no candidates) is zero-width, so the sum still telescopes.
    pub(crate) fn breakdown(
        &self,
        queue_wait: Duration,
        step1: Duration,
        step1_done: TraceStamp,
        reduce_started: TraceStamp,
        delivered: TraceStamp,
    ) -> StageBreakdown {
        let mut cursor = step1_done;
        let mut advance = |to: Option<TraceStamp>| -> Duration {
            let Some(to) = to.map(|to| to.max(cursor)) else {
                return Duration::ZERO;
            };
            let width = to.0 - cursor.0;
            cursor = to;
            width
        };
        let step2_wait = advance(self.intersect.map(|(first, _)| first));
        let step2_service = advance(self.intersect.map(|(_, last)| last));
        let step3_wait = advance(self.step3.map(|(started, _)| started));
        let step3_service = advance(self.step3.map(|(_, done)| done));
        let reduce_barrier = advance(Some(reduce_started));
        let reduce = advance(Some(delivered));
        StageBreakdown {
            queue_wait,
            step1,
            step2_wait,
            step2_service,
            step3_wait,
            step3_service,
            reduce_barrier,
            reduce,
        }
    }
}

/// Busy / stall / idle accounting for one device over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceUsage {
    /// Device (shard) index.
    pub device: usize,
    /// Commands the device served (both kinds): its
    /// [`crate::ShardStats`] `jobs + step3_jobs`.
    pub commands: u64,
    /// Time the device spent serving commands, both kinds together: its
    /// [`crate::ShardStats::busy`].
    pub busy: Duration,
    /// Busy time attributable to Step 3 commands alone — the quantity whose
    /// per-device skew shows how evenly the per-job Step 3 commands spread.
    pub step3_busy: Duration,
    /// Busy time attributable to intersect commands alone.
    pub intersect_busy: Duration,
    /// Time the device was occupied — a command queued on it or being
    /// served — without serving: queue wait no thread picked up, and the
    /// hand-offs between a settle and the service it brackets.
    pub stall: Duration,
    /// Span minus occupied time: the device had nothing to do.
    pub idle: Duration,
}

/// Per-device straggler analysis of one run: each device's busy/stall/idle
/// split, folded by the completer as it settles (see `complete.rs`), so
/// `busy + stall + idle == span` for every device.
///
/// The devices are logical: one pool of host threads serves them all. A
/// command queued on a device while every thread is busy elsewhere counts
/// as that device's stall, and a device whose next command waits on host
/// work — a Step 1, another device's command — that itself waits for a
/// free thread counts as idle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StragglerReport {
    /// Wall-clock span from the first admission to the last settle.
    pub span: Duration,
    /// Per-device accounting, in device order.
    pub devices: Vec<DeviceUsage>,
}

impl StragglerReport {
    /// Max over min per-device Step 3 busy time, across devices that served
    /// any Step 3 work — how evenly the per-job Step 3 commands spread over
    /// the array. `1.0` when at most one device served Step 3.
    pub fn step3_busy_skew(&self) -> f64 {
        let busy: Vec<f64> = self
            .devices
            .iter()
            .filter(|d| !d.step3_busy.is_zero())
            .map(|d| d.step3_busy.as_secs_f64())
            .collect();
        if busy.len() < 2 {
            return 1.0;
        }
        let max = busy.iter().cloned().fold(f64::MIN, f64::max);
        let min = busy.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    }

    /// Renders the analysis. The first line is the stable, greppable
    /// header CI keys on.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "straggler report: per-device busy/stall/idle");
        let span = self.span.as_secs_f64().max(1e-9);
        for d in &self.devices {
            let _ = writeln!(
                out,
                "  device {}: {} cmds; busy {:5.1}% ({:8.1} ms: step3 {:8.1} ms, \
                 intersect {:8.1} ms), stall {:5.1}%, idle {:5.1}%",
                d.device,
                d.commands,
                d.busy.as_secs_f64() / span * 100.0,
                d.busy.as_secs_f64() * 1e3,
                d.step3_busy.as_secs_f64() * 1e3,
                d.intersect_busy.as_secs_f64() * 1e3,
                d.stall.as_secs_f64() / span * 100.0,
                d.idle.as_secs_f64() / span * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "  step 3 busy skew across devices (max/min): {:.2}x",
            self.step3_busy_skew()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::ShardCompletion;
    use crate::metrics::Tally;
    use crate::shard::CommandOutput;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn stamp(v: u64) -> TraceStamp {
        TraceStamp(ms(v))
    }

    #[test]
    fn disabled_sink_records_nothing_and_reports_empty() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        for i in 0..1000 {
            sink.record(i, TraceEventKind::Step1Finished);
        }
        assert_eq!(sink.dropped(), 0);
        assert!(sink.events().is_empty());
        assert_eq!(sink.now().since_epoch(), Duration::ZERO);
    }

    #[test]
    fn bounded_ring_evicts_oldest_and_counts_drops() {
        let sink = TraceSink::bounded(4);
        for seq in 0..6 {
            sink.record_at(stamp(seq as u64), seq, TraceEventKind::ReduceStarted);
        }
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(events.first().unwrap().seq, 2, "oldest evicted first");
        assert_eq!(events.last().unwrap().seq, 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_sink_rejected() {
        TraceSink::bounded(0);
    }

    /// A complete single-job timeline across two devices.
    fn fixture_events() -> Vec<TraceEvent> {
        use TraceEventKind::*;
        use TraceStage::*;
        let e = |at, seq, kind| TraceEvent {
            at: ms(at),
            seq,
            kind,
        };
        vec![
            e(0, NO_SEQ, Admitted { job: 1 }),
            e(2, 0, Step1Started { job: 1 }),
            e(5, 0, Step1Finished),
            e(
                5,
                0,
                CommandIssued {
                    stage: Intersect,
                    shard: 0,
                },
            ),
            e(
                5,
                0,
                CommandIssued {
                    stage: Intersect,
                    shard: 1,
                },
            ),
            e(
                6,
                0,
                CommandStarted {
                    stage: Intersect,
                    shard: 0,
                },
            ),
            e(
                7,
                0,
                CommandStarted {
                    stage: Intersect,
                    shard: 1,
                },
            ),
            e(
                9,
                0,
                CommandCompleted {
                    stage: Intersect,
                    shard: 0,
                },
            ),
            e(
                11,
                0,
                CommandCompleted {
                    stage: Intersect,
                    shard: 1,
                },
            ),
            e(
                12,
                0,
                CommandIssued {
                    stage: Step3,
                    shard: 0,
                },
            ),
            e(
                12,
                0,
                CommandIssued {
                    stage: Step3,
                    shard: 1,
                },
            ),
            e(
                13,
                0,
                CommandStarted {
                    stage: Step3,
                    shard: 0,
                },
            ),
            e(
                13,
                0,
                CommandStarted {
                    stage: Step3,
                    shard: 1,
                },
            ),
            e(
                16,
                0,
                CommandCompleted {
                    stage: Step3,
                    shard: 0,
                },
            ),
            e(
                20,
                0,
                CommandCompleted {
                    stage: Step3,
                    shard: 1,
                },
            ),
            e(21, 0, ReduceStarted),
            e(22, 0, ReduceFinished),
            e(22, 0, Delivered { job: 1 }),
        ]
    }

    /// The fixture's job folded as the completer folds it: queued 2 ms,
    /// Step 1 for 3 ms until 5, its two intersect commands served 6..9 and
    /// 7..11 — folded out of start order — its Step 3 command 13..20, the
    /// reduce from 21 and the delivery at 22.
    fn fixture_breakdown() -> StageBreakdown {
        let mut timeline = JobTimeline::default();
        timeline.fold(TraceStage::Intersect, stamp(7), stamp(11));
        timeline.fold(TraceStage::Intersect, stamp(6), stamp(9));
        timeline.fold(TraceStage::Step3, stamp(13), stamp(20));
        timeline.breakdown(ms(2), ms(3), stamp(5), stamp(21), stamp(22))
    }

    #[test]
    fn breakdown_segments_telescope_to_the_delivery_span() {
        let breakdown = fixture_breakdown();
        assert_eq!(breakdown.queue_wait, ms(2));
        assert_eq!(breakdown.step1, ms(3));
        assert_eq!(breakdown.step2_wait, ms(1), "step1 end 5 -> first start 6");
        assert_eq!(
            breakdown.step2_service,
            ms(5),
            "first start 6 -> last done 11"
        );
        assert_eq!(
            breakdown.step3_wait,
            ms(2),
            "last intersect 11 -> step3 start 13"
        );
        assert_eq!(breakdown.step3_service, ms(7), "13 -> 20");
        assert_eq!(breakdown.reduce_barrier, ms(1), "20 -> reduce 21");
        assert_eq!(breakdown.reduce, ms(1), "21 -> delivered 22");
        assert_eq!(breakdown.total(), ms(22), "segments telescope exactly");
    }

    #[test]
    fn breakdown_collapses_stages_the_job_never_entered() {
        // No intersect or step3 command at all (empty query list, no
        // candidates): the middle segments are zero and the sum still
        // telescopes.
        let b = JobTimeline::default().breakdown(ms(1), ms(3), stamp(4), stamp(6), stamp(7));
        assert_eq!(b.queue_wait, ms(1));
        assert_eq!(b.step1, ms(3));
        assert_eq!(b.step2_wait + b.step2_service, Duration::ZERO);
        assert_eq!(b.step3_wait + b.step3_service, Duration::ZERO);
        assert_eq!(b.reduce_barrier, ms(2));
        assert_eq!(b.reduce, ms(1));
        assert_eq!(b.total(), ms(7));
    }

    #[test]
    fn breakdown_aggregation_means_segment_wise() {
        let b = fixture_breakdown();
        let mut sum = StageBreakdown::default();
        sum.accumulate(&b);
        sum.accumulate(&b);
        assert_eq!(sum.step2_service, ms(10));
        let mean = sum.mean_of(2);
        assert_eq!(mean.step2_service, b.step2_service);
        assert_eq!(mean.total(), b.total());
        assert_eq!(
            StageBreakdown::default().mean_of(0),
            StageBreakdown::default()
        );
        let line = mean.summary_line();
        assert!(line.contains("step2 wait"));
        assert!(line.contains("reduce barrier"));
    }

    #[test]
    fn the_mean_of_more_than_u32_max_breakdowns_divides_exactly() {
        // 2^32 jobs: a `u32` count would wrap to zero and panic.
        let segment = Duration::from_nanos(3 << 32);
        let sum = StageBreakdown {
            queue_wait: segment,
            reduce: segment * 2,
            ..StageBreakdown::default()
        };
        let mean = sum.mean_of(1 << 32);
        assert_eq!(mean.queue_wait, Duration::from_nanos(3));
        assert_eq!(mean.reduce, Duration::from_nanos(6));
        assert_eq!(mean.total(), Duration::from_nanos(9));
    }

    /// A served `stage` command's answer from `device`, busy for `busy`.
    fn served(device: usize, stage: TraceStage, busy: Duration) -> ShardCompletion {
        use crate::shard::{IntersectCommand, ShardCommand, Step3Command};
        let command = match stage {
            TraceStage::Intersect => ShardCommand::Intersect(IntersectCommand {
                shard: device,
                attempt: 0,
                seq: 0,
                queries: Arc::default(),
                range: 0..0,
            }),
            TraceStage::Step3 => ShardCommand::Step3(Step3Command {
                seq: 0,
                record_shard: device,
                attempt: 0,
                sample: Arc::default(),
                presence: Arc::default(),
            }),
        };
        ShardCompletion {
            command,
            device,
            busy,
            started: stamp(0),
            done: stamp(0),
            result: Ok(CommandOutput::Intersection(Default::default())),
        }
    }

    /// The report the tally folds from the fixture's job on two devices:
    /// admitted at 0; both intersect commands queued at 5 and served 6..9
    /// and 7..11; both Step 3 commands queued at 12 and served 13..16 and
    /// 13..20; the last settle at 22.
    fn fixture_report() -> StragglerReport {
        use TraceStage::*;
        let epoch = Instant::now();
        let mut tally = Tally::new(2);
        tally.admitted(epoch);
        // Each settle at its instant, after the answer it reaped, if any.
        let settles = [
            (5, None, [true, true]),
            (9, Some(served(0, Intersect, ms(3))), [false, true]),
            (11, Some(served(1, Intersect, ms(4))), [false, false]),
            (12, None, [true, true]),
            (16, Some(served(0, Step3, ms(3))), [false, true]),
            (20, Some(served(1, Step3, ms(7))), [false, false]),
            (22, None, [false, false]),
        ];
        for (at, answer, occupied) in settles {
            if let Some(answer) = answer {
                tally.answered(&answer);
            }
            tally.settled(occupied.into_iter(), epoch + ms(at));
        }
        tally.into_report().straggler.expect("every report has one")
    }

    #[test]
    fn straggler_report_accounts_busy_stall_and_idle_per_device() {
        let report = fixture_report();
        assert_eq!(report.span, ms(22));
        assert_eq!(report.devices.len(), 2);
        // Device 0: intersect 6..9 (3 ms) + step3 13..16 (3 ms).
        assert_eq!(report.devices[0].busy, ms(6));
        assert_eq!(report.devices[0].intersect_busy, ms(3));
        assert_eq!(report.devices[0].step3_busy, ms(3));
        assert_eq!(report.devices[0].commands, 2);
        // Device 1: intersect 7..11 (4 ms) + step3 13..20 (7 ms).
        assert_eq!(report.devices[1].step3_busy, ms(7));
        // Device 0 stall: intersect queued at 5, started 6 (1 ms); step3
        // queued 12, started 13 (1 ms).
        assert_eq!(report.devices[0].stall, ms(2));
        // Device 0 idle: span 22 - occupied (5..9 + 12..16 = 8 ms).
        assert_eq!(report.devices[0].idle, ms(14));
        for d in &report.devices {
            assert_eq!(d.busy + d.stall + d.idle, report.span, "{d:?}");
        }
        let skew = report.step3_busy_skew();
        assert!((skew - 7.0 / 3.0).abs() < 1e-9, "skew 7/3, got {skew}");
        let text = report.report();
        assert!(text.starts_with("straggler report: per-device busy/stall/idle\n"));
        assert!(text.contains("  device 1: 2 cmds;"), "{text}");
        assert!(text.contains("step 3 busy skew across devices (max/min): 2.33x"));
    }

    #[test]
    fn straggler_report_of_empty_trace_is_empty_but_valid() {
        // A tally that admitted and served nothing.
        let report = Tally::new(3).into_report().straggler.expect("always");
        assert_eq!(report.span, Duration::ZERO);
        assert_eq!(report.devices.len(), 3);
        assert_eq!(report.step3_busy_skew(), 1.0);
        assert!(report
            .report()
            .contains("skew across devices (max/min): 1.00x"));
    }

    #[test]
    fn trace_log_serializes_every_event_kind() {
        let log = TraceLog {
            events: fixture_events(),
            dropped: 0,
        };
        let json = log.to_json();
        for kind in [
            "admitted",
            "step1_started",
            "step1_finished",
            "command_issued",
            "command_started",
            "command_completed",
            "reduce_started",
            "reduce_finished",
            "delivered",
        ] {
            assert!(json.contains(kind), "missing {kind} in:\n{json}");
        }
        assert!(json.contains("\"seq\": null"), "NO_SEQ serializes as null");
        assert!(json.contains("\"stage\": \"step3\""));
        assert!(json.contains("\"dropped\": 0"));
    }

    #[test]
    fn fault_retry_and_failover_events_serialize() {
        use TraceEventKind::*;
        use TraceStage::*;
        let e = |at, seq, kind| TraceEvent {
            at: ms(at),
            seq,
            kind,
        };
        let events = vec![
            e(
                1,
                0,
                Fault {
                    stage: Intersect,
                    shard: 1,
                },
            ),
            e(
                2,
                0,
                Retry {
                    stage: Intersect,
                    shard: 1,
                    attempt: 1,
                },
            ),
            e(
                3,
                0,
                Failover {
                    stage: Step3,
                    from: 1,
                    to: 0,
                },
            ),
        ];
        let json = TraceLog { events, dropped: 0 }.to_json();
        for needle in [
            "\"kind\": \"fault\"",
            "\"kind\": \"retry\"",
            "\"attempt\": 1",
            "\"kind\": \"failover\"",
            "\"from\": 1, \"to\": 0",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn clean_straggler_report_renders_no_fault_lines() {
        // Fault counts belong to `ShardStats` and the service summary's
        // degraded-mode line: the report is the header, one line per device
        // and the skew line.
        let text = fixture_report().report();
        assert_eq!(text.lines().count(), 4, "{text}");
        assert!(!text.contains("fault"));
        assert!(!text.contains("failover"));
    }

    #[test]
    fn sink_timestamps_are_monotone_per_producer() {
        let sink = TraceSink::bounded(16);
        sink.record(0, TraceEventKind::Step1Finished);
        sink.record(0, TraceEventKind::ReduceStarted);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert!(events[1].at >= events[0].at);
    }
}
