//! Pipeline tracing: per-command lifecycle events, per-job stage-latency
//! breakdowns, and the straggler analyzer for the device array.
//!
//! The engine's aggregate metrics ([`crate::metrics::ShardStats`],
//! end-to-end latency) say *that* the 8-device Step 3 sweep regresses, not
//! *why*: they cannot distinguish a command waiting in a queue from a device
//! mapping its read range from a delivery barriering on one slow range.
//! This module records what GenStore-style in-storage accounting
//! records inside the device — the lifecycle of every command — and turns it
//! back into answers:
//!
//! * [`TraceSink`] — a cheap, bounded, multi-producer ring buffer of
//!   timestamped [`TraceEvent`]s. Every pipeline thread (submitters, Step 1
//!   workers, the dispatcher, the shard workers, the completer) holds a
//!   clone and records the events it owns: admission, Step 1 start/end, per
//!   `(seq, shard)` command issued/started/completed for both command
//!   kinds, reduce start/end, delivery. The sink is **zero-cost when
//!   disabled**: [`TraceSink::disabled`] carries no buffer at all, and
//!   [`TraceSink::record`] is an inlined `None` check — the repository
//!   benchmark's `sched.trace.overhead_frac` row measures the whole-engine
//!   cost of turning it on.
//! * [`StageBreakdown`] — the analysis layer's per-job answer: the job's
//!   submission→delivery wall clock partitioned into consecutive stage
//!   segments (queue wait, Step 1, per-stage queue wait vs. device service,
//!   reduce barrier, reduce). The segments are differences of consecutive
//!   timeline points reconstructed from the job's events, so they
//!   **telescope**: their sum is exactly the traced admission→delivery span,
//!   which matches the independently measured [`crate::JobResult::latency`]
//!   to well under 1% whenever the ring still holds the admission.
//! * [`StragglerReport`] — the analysis layer's per-device answer: busy /
//!   stall / idle fractions per device over the run, per-device Step 3 busy
//!   time with the max/min skew, and, per job, the device whose last Step 3
//!   completion gated the reduce — the direct evidence of how evenly the
//!   read ranges spread Step 3 over the array.
//!
//! Events are stamped as [`Duration`]s since the sink's epoch (the engine's
//! start), so a whole trace serializes losslessly with
//! [`TraceLog::to_json`].

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Sequence key used for events recorded before the job has an in-SSD
/// dispatch position (admission happens before the scheduler assigns one).
pub const NO_SEQ: usize = usize::MAX;

/// Default ring-buffer capacity of an enabled sink (events, not bytes; a
/// `TraceEvent` is a few machine words).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Which in-SSD command kind a device-side event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceStage {
    /// Step 2 intersection finding.
    Intersect,
    /// Step 3 read mapping over one read range (and the job's one
    /// unified-index merge, on the first command served).
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
    /// A Step 1 worker popped the job and started host-side Step 1; binds
    /// the job id to its dispatch sequence for the analysis join.
    Step1Started {
        /// The job's id.
        job: u64,
    },
    /// Host-side Step 1 finished; the prepared sample heads to the in-SSD
    /// dispatcher.
    Step1Finished,
    /// A command was issued onto a shard's NVMe-style queue (dispatcher for
    /// intersections, completer backlog for Step 3).
    CommandIssued {
        /// Command kind.
        stage: TraceStage,
        /// Target device.
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
    /// The completer began finishing the job's Step 3 (all read ranges
    /// reaped and folded *and* every earlier sequence delivered — the
    /// in-order barrier).
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
    ring: Mutex<Ring>,
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
                ring: Mutex::new(Ring {
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
    pub fn now(&self) -> Duration {
        self.inner
            .as_ref()
            .map(|inner| inner.epoch.elapsed())
            .unwrap_or(Duration::ZERO)
    }

    /// Records one event stamped now. On a disabled sink this is a single
    /// branch — no lock, no clock read, no allocation.
    #[inline]
    pub fn record(&self, seq: usize, kind: TraceEventKind) {
        if let Some(inner) = &self.inner {
            let at = inner.epoch.elapsed();
            Self::push(inner, TraceEvent { at, seq, kind });
        }
    }

    /// Records one event with an explicit timestamp (a [`TraceSink::now`]
    /// the caller already took, so a derived computation and its event agree
    /// on the instant).
    #[inline]
    pub fn record_at(&self, at: Duration, seq: usize, kind: TraceEventKind) {
        if let Some(inner) = &self.inner {
            Self::push(inner, TraceEvent { at, seq, kind });
        }
    }

    fn push(inner: &SinkInner, event: TraceEvent) {
        let mut ring = inner.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| {
                inner
                    .ring
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .dropped
            })
            .unwrap_or(0)
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map(|inner| {
                inner
                    .ring
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .events
                    .len()
            })
            .unwrap_or(0)
    }

    /// Returns `true` if no events are held (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every held event, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map(|inner| {
                inner
                    .ring
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .events
                    .iter()
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Snapshot of one job's events: everything keyed on `seq`, plus the
    /// admission event keyed on `job` (admission precedes the sequence
    /// assignment). Record order is preserved.
    pub fn events_for(&self, seq: usize, job: u64) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .events
            .iter()
            .filter(|e| {
                e.seq == seq || matches!(e.kind, TraceEventKind::Admitted { job: j } if j == job)
            })
            .copied()
            .collect()
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
/// stage segments reconstructed from its trace events.
///
/// The segments are differences of consecutive timeline points, so they
/// telescope: [`StageBreakdown::total`] equals the traced
/// admission→delivery span exactly, and matches the independently measured
/// [`crate::JobResult::latency`] to well under 1%.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Admission → Step 1 start: time queued under the admission policy.
    pub queue_wait: Duration,
    /// Step 1 start → end: host-side k-mer extraction, sorting, exclusion.
    pub step1: Duration,
    /// Step 1 end → first intersect command *started*: the dispatch reorder
    /// wait plus time queued behind other commands on the devices.
    pub step2_wait: Duration,
    /// First intersect started → last intersect completed: the window the
    /// device array spent serving this job's Step 2 commands.
    pub step2_service: Duration,
    /// Last intersect completed → first Step 3 command started: host-side
    /// taxID retrieval plus backlog and queue wait for the Step 3 commands.
    pub step3_wait: Duration,
    /// First Step 3 started → last Step 3 completed: the window the device
    /// array spent generating the unified index and mapping reads.
    pub step3_service: Duration,
    /// Last Step 3 completed → reduce start: the in-order delivery barrier
    /// (waiting on earlier sequences still in flight).
    pub reduce_barrier: Duration,
    /// Reduce start → delivery: count normalization, output assembly,
    /// handle send.
    pub reduce: Duration,
    /// The device whose Step 3 completion arrived last — the straggler that
    /// gated this job's reduce (`None` when the job had no Step 3 commands).
    pub gating_device: Option<usize>,
}

impl StageBreakdown {
    /// Reconstructs the breakdown from one job's events ([`TraceSink::events_for`])
    /// plus the delivery timestamp. Returns `None` when the events are too
    /// sparse to anchor a timeline (no admission or Step 1 events — e.g. a
    /// disabled sink, or a ring that evicted the job's early events).
    pub fn from_events(events: &[TraceEvent], delivered_at: Duration) -> Option<StageBreakdown> {
        let mut admitted = None;
        let mut step1_start = None;
        let mut step1_end = None;
        let mut first_intersect_start = None;
        let mut last_intersect_done = None;
        let mut first_step3_start = None;
        let mut last_step3_done: Option<(Duration, usize)> = None;
        let mut reduce_start = None;
        for event in events {
            match event.kind {
                TraceEventKind::Admitted { .. } => admitted = Some(event.at),
                TraceEventKind::Step1Started { .. } => step1_start = Some(event.at),
                TraceEventKind::Step1Finished => step1_end = Some(event.at),
                TraceEventKind::CommandStarted { stage, .. } => match stage {
                    TraceStage::Intersect => {
                        if first_intersect_start.is_none() {
                            first_intersect_start = Some(event.at);
                        }
                    }
                    TraceStage::Step3 => {
                        if first_step3_start.is_none() {
                            first_step3_start = Some(event.at);
                        }
                    }
                },
                TraceEventKind::CommandCompleted { stage, shard } => match stage {
                    TraceStage::Intersect => last_intersect_done = Some(event.at),
                    TraceStage::Step3 => {
                        if last_step3_done
                            .map(|(at, _)| event.at >= at)
                            .unwrap_or(true)
                        {
                            last_step3_done = Some((event.at, shard));
                        }
                    }
                },
                TraceEventKind::ReduceStarted => reduce_start = Some(event.at),
                TraceEventKind::CommandIssued { .. }
                | TraceEventKind::ReduceFinished
                | TraceEventKind::Delivered { .. }
                | TraceEventKind::Fault { .. }
                | TraceEventKind::Retry { .. }
                | TraceEventKind::Failover { .. } => {}
            }
        }
        // The bounded ring may have evicted the admission by now; anchor on
        // Step 1 with a zero queue wait in that case.
        let start = admitted.or(step1_start)?;
        let step1_start = step1_start?;
        // Walk a monotone cursor through the timeline; stages the job never
        // entered (no candidates, empty query list) collapse to zero-width
        // segments instead of breaking the telescoping sum.
        let mut cursor = start;
        let mut advance = |to: Option<Duration>| -> Duration {
            let Some(to) = to else {
                return Duration::ZERO;
            };
            let to = to.max(cursor);
            let width = to - cursor;
            cursor = to;
            width
        };
        let queue_wait = advance(Some(step1_start));
        let step1 = advance(step1_end);
        let step2_wait = advance(first_intersect_start);
        let step2_service = advance(last_intersect_done);
        let step3_wait = advance(first_step3_start);
        let step3_service = advance(last_step3_done.map(|(at, _)| at));
        let reduce_barrier = advance(reduce_start);
        let reduce = advance(Some(delivered_at));
        Some(StageBreakdown {
            queue_wait,
            step1,
            step2_wait,
            step2_service,
            step3_wait,
            step3_service,
            reduce_barrier,
            reduce,
            gating_device: last_step3_done.map(|(_, shard)| shard),
        })
    }

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

    /// Adds another breakdown segment-wise (for aggregation); the gating
    /// device, a per-job notion, is cleared.
    pub fn accumulate(&mut self, other: &StageBreakdown) {
        self.queue_wait += other.queue_wait;
        self.step1 += other.step1;
        self.step2_wait += other.step2_wait;
        self.step2_service += other.step2_service;
        self.step3_wait += other.step3_wait;
        self.step3_service += other.step3_service;
        self.reduce_barrier += other.reduce_barrier;
        self.reduce += other.reduce;
        self.gating_device = None;
    }

    /// Divides every segment by `count`: the mean of `count` accumulated
    /// breakdowns. Returns the zero breakdown for `count == 0`.
    pub fn mean_of(mut self, count: usize) -> StageBreakdown {
        if count == 0 {
            return StageBreakdown::default();
        }
        let n = count as u32;
        self.queue_wait /= n;
        self.step1 /= n;
        self.step2_wait /= n;
        self.step2_service /= n;
        self.step3_wait /= n;
        self.step3_service /= n;
        self.reduce_barrier /= n;
        self.reduce /= n;
        self
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

/// Busy / stall / idle accounting for one device over a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceUsage {
    /// Device (shard) index.
    pub device: usize,
    /// Commands the device served (both kinds).
    pub commands: u64,
    /// Time the device spent serving commands, both kinds together.
    pub busy: Duration,
    /// Busy time attributable to Step 3 commands alone — the quantity whose
    /// per-device skew gates the reduce.
    pub step3_busy: Duration,
    /// Busy time attributable to intersect commands alone.
    pub intersect_busy: Duration,
    /// Time at least one command was issued-but-unserved on the device's
    /// queue while the device was *not* serving anything: head-of-line wait
    /// the device could not hide.
    pub stall: Duration,
    /// Run span minus (busy-or-pending) time: the device had nothing to do.
    pub idle: Duration,
}

/// Per-device and per-job straggler analysis of one traced run.
///
/// Built by [`StragglerReport::from_events`] from a whole-run event
/// snapshot. Identifies, for every job that ran Step 3 on the array, the
/// device whose last Step 3 completion gated the job's reduce, and accounts
/// each device's busy/stall/idle split over the run.
#[derive(Debug, Clone)]
pub struct StragglerReport {
    /// Wall-clock span the events cover (first to last event).
    pub span: Duration,
    /// Per-device accounting, in device order.
    pub devices: Vec<DeviceUsage>,
    /// `(seq, gating device)` per job that ran Step 3, in sequence order.
    pub gating: Vec<(usize, usize)>,
    /// Jobs gated per device (`histogram[d]` = jobs whose reduce waited on
    /// device `d` last), in device order.
    pub histogram: Vec<u64>,
    /// Injected or real command faults per device (shard-of-record), in
    /// device order. All zero on a clean run.
    pub faults: Vec<u64>,
    /// Commands re-issued per device (shard-of-record), in device order.
    pub retries: Vec<u64>,
    /// Retries routed away from a dead shard-of-record, per (dead) device,
    /// in device order.
    pub failovers: Vec<u64>,
}

impl StragglerReport {
    /// Reconstructs the analysis from a whole-run event snapshot.
    pub fn from_events(events: &[TraceEvent], devices: usize) -> StragglerReport {
        let span = match (events.first(), events.last()) {
            (Some(first), Some(last)) => last.at.saturating_sub(first.at),
            _ => Duration::ZERO,
        };
        // Per-device interval sets. The devices serve serially, so service
        // intervals never overlap and sum directly; pending intervals
        // (issued→completed) do overlap and need a union. Commands are
        // matched FIFO per `(seq, stage)` rather than per device: under
        // failover a command can complete on a different device than it
        // was issued to, so a per-device pairing would orphan the
        // issue timestamp. A job's same-stage commands are issued together,
        // so the within-key FIFO mismatch is negligible, and the
        // `.min(started)` clamp keeps every pending interval covering its
        // service interval (busy + stall + idle always closes to the span).
        let mut usage: Vec<DeviceUsage> = (0..devices)
            .map(|device| DeviceUsage {
                device,
                ..DeviceUsage::default()
            })
            .collect();
        let mut service: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); devices];
        let mut pending: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); devices];
        let mut issued_fifo: HashMap<(usize, TraceStage), VecDeque<Duration>> = HashMap::new();
        let mut started_at: Vec<Option<Duration>> = vec![None; devices];
        let mut last_step3: Vec<Option<(Duration, usize)>> = Vec::new();
        let mut step3_seqs: Vec<usize> = Vec::new();
        let mut faults = vec![0u64; devices];
        let mut retries = vec![0u64; devices];
        let mut failovers = vec![0u64; devices];
        for event in events {
            match event.kind {
                TraceEventKind::Fault { shard, .. } if shard < devices => {
                    faults[shard] += 1;
                }
                TraceEventKind::Retry { shard, .. } if shard < devices => {
                    retries[shard] += 1;
                }
                TraceEventKind::Failover { from, .. } if from < devices => {
                    failovers[from] += 1;
                }
                TraceEventKind::CommandIssued { stage, shard } if shard < devices => {
                    issued_fifo
                        .entry((event.seq, stage))
                        .or_default()
                        .push_back(event.at);
                }
                TraceEventKind::CommandStarted { shard, .. } if shard < devices => {
                    started_at[shard] = Some(event.at);
                }
                TraceEventKind::CommandCompleted { stage, shard } if shard < devices => {
                    let started = started_at[shard].take().unwrap_or(event.at);
                    service[shard].push((started, event.at));
                    let issued = issued_fifo
                        .get_mut(&(event.seq, stage))
                        .and_then(|q| q.pop_front())
                        .unwrap_or(started)
                        .min(started);
                    pending[shard].push((issued, event.at));
                    usage[shard].commands += 1;
                    let width = event.at.saturating_sub(started);
                    usage[shard].busy += width;
                    match stage {
                        TraceStage::Intersect => usage[shard].intersect_busy += width,
                        TraceStage::Step3 => {
                            usage[shard].step3_busy += width;
                            let slot = match step3_seqs.iter().position(|&s| s == event.seq) {
                                Some(slot) => slot,
                                None => {
                                    step3_seqs.push(event.seq);
                                    last_step3.push(None);
                                    step3_seqs.len() - 1
                                }
                            };
                            if last_step3[slot]
                                .map(|(at, _)| event.at >= at)
                                .unwrap_or(true)
                            {
                                last_step3[slot] = Some((event.at, shard));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        let mut histogram = vec![0u64; devices];
        let mut gating: Vec<(usize, usize)> = step3_seqs
            .iter()
            .zip(&last_step3)
            .filter_map(|(&seq, last)| last.map(|(_, device)| (seq, device)))
            .collect();
        gating.sort_unstable();
        for &(_, device) in &gating {
            histogram[device] += 1;
        }
        for device in 0..devices {
            let occupied = union_len(&mut pending[device]);
            let busy = union_len(&mut service[device]);
            usage[device].stall = occupied.saturating_sub(busy);
            usage[device].idle = span.saturating_sub(occupied);
        }
        StragglerReport {
            span,
            devices: usage,
            gating,
            histogram,
            faults,
            retries,
            failovers,
        }
    }

    /// Max over min per-device Step 3 busy time, across devices that served
    /// any Step 3 work — the skew that gates the reduce under equal-count
    /// partitioning. `1.0` when at most one device served Step 3.
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

    /// Flatness of the gating-device histogram: max over mean of
    /// `histogram`, across all devices. `1.0` is perfectly flat (every
    /// device gates its fair share of reduces — the cost-aware-partition
    /// goal); the worst case is the device count (one device gates every
    /// job — the equal-count cliff). Returns `1.0` when no job ran Step 3
    /// or there are no devices, so "no evidence of skew" reads as flat.
    pub fn gating_histogram_flatness(&self) -> f64 {
        let total: u64 = self.histogram.iter().sum();
        if total == 0 || self.histogram.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.histogram.len() as f64;
        let max = *self.histogram.iter().max().unwrap() as f64;
        max / mean
    }

    /// The device gating the most jobs, with its count (`None` when no job
    /// ran Step 3).
    pub fn dominant_gater(&self) -> Option<(usize, u64)> {
        self.histogram
            .iter()
            .enumerate()
            .max_by_key(|(_, count)| **count)
            .filter(|(_, count)| **count > 0)
            .map(|(device, count)| (device, *count))
    }

    /// Renders the analysis. The first line is the stable, greppable
    /// header CI keys on.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "straggler report: per-device busy/stall/idle and per-job step-3 gating"
        );
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
        let gating: Vec<String> = self
            .gating
            .iter()
            .map(|(seq, device)| format!("job seq {seq} -> device {device}"))
            .collect();
        let _ = writeln!(out, "  reduce gated by: [{}]", gating.join(", "));
        let _ = writeln!(
            out,
            "  gating-device histogram: [{}]{}",
            self.histogram
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            match self.dominant_gater() {
                Some((device, count)) => format!(" — device {device} gated {count} job(s)"),
                None => " — no job ran step 3".to_string(),
            },
        );
        // Fault lines appear only when the run actually degraded, so clean
        // reports stay byte-identical to the pre-fault-injection renderer.
        if self.faults.iter().any(|&n| n > 0) || self.retries.iter().any(|&n| n > 0) {
            let _ = writeln!(
                out,
                "  command faults per device: [{}]; retries per device: [{}]",
                self.faults
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
                self.retries
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
        if self.failovers.iter().any(|&n| n > 0) {
            let _ = writeln!(
                out,
                "  failovers away from dead shards: [{}]",
                self.failovers
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
        out
    }
}

/// Total length of a union of (possibly overlapping) intervals; sorts in
/// place.
fn union_len(intervals: &mut [(Duration, Duration)]) -> Duration {
    intervals.sort_unstable();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((_, cur_end)) if start <= cur_end => {
                let (cur_start, cur_end) = current.take().unwrap();
                current = Some((cur_start, cur_end.max(end)));
            }
            Some((cur_start, cur_end)) => {
                total += cur_end - cur_start;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((start, end)) = current {
        total += end - start;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn disabled_sink_records_nothing_and_reports_empty() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        for i in 0..1000 {
            sink.record(i, TraceEventKind::Step1Finished);
        }
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
        assert!(sink.events().is_empty());
        assert!(sink.events_for(3, 3).is_empty());
        assert_eq!(sink.now(), Duration::ZERO);
    }

    #[test]
    fn bounded_ring_evicts_oldest_and_counts_drops() {
        let sink = TraceSink::bounded(4);
        for seq in 0..6 {
            sink.record_at(ms(seq as u64), seq, TraceEventKind::ReduceStarted);
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 2);
        let events = sink.events();
        assert_eq!(events.first().unwrap().seq, 2, "oldest evicted first");
        assert_eq!(events.last().unwrap().seq, 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_sink_rejected() {
        TraceSink::bounded(0);
    }

    #[test]
    fn events_for_joins_seq_events_with_the_admission_by_job_id() {
        let sink = TraceSink::bounded(64);
        sink.record_at(ms(0), NO_SEQ, TraceEventKind::Admitted { job: 7 });
        sink.record_at(ms(1), NO_SEQ, TraceEventKind::Admitted { job: 8 });
        sink.record_at(ms(2), 0, TraceEventKind::Step1Started { job: 7 });
        sink.record_at(ms(3), 1, TraceEventKind::Step1Started { job: 8 });
        let events = sink.events_for(0, 7);
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0].kind,
            TraceEventKind::Admitted { job: 7 }
        ));
        assert_eq!(events[1].seq, 0);
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

    #[test]
    fn breakdown_segments_telescope_to_the_delivery_span() {
        let breakdown = StageBreakdown::from_events(&fixture_events(), ms(22)).unwrap();
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
        assert_eq!(
            breakdown.gating_device,
            Some(1),
            "device 1 finished step 3 last"
        );
    }

    #[test]
    fn breakdown_collapses_stages_the_job_never_entered() {
        use TraceEventKind::*;
        let e = |at, seq, kind| TraceEvent {
            at: ms(at),
            seq,
            kind,
        };
        // No intersect or step3 commands at all (empty query list, no
        // candidates): the middle segments are zero and the sum still
        // telescopes.
        let events = vec![
            e(0, NO_SEQ, Admitted { job: 2 }),
            e(1, 3, Step1Started { job: 2 }),
            e(4, 3, Step1Finished),
            e(6, 3, ReduceStarted),
            e(7, 3, Delivered { job: 2 }),
        ];
        let b = StageBreakdown::from_events(&events, ms(7)).unwrap();
        assert_eq!(b.queue_wait, ms(1));
        assert_eq!(b.step1, ms(3));
        assert_eq!(b.step2_wait + b.step2_service, Duration::ZERO);
        assert_eq!(b.step3_wait + b.step3_service, Duration::ZERO);
        assert_eq!(b.reduce_barrier, ms(2));
        assert_eq!(b.reduce, ms(1));
        assert_eq!(b.total(), ms(7));
        assert_eq!(b.gating_device, None);
    }

    #[test]
    fn breakdown_without_admission_anchors_on_step1() {
        // With the admission evicted from the ring, the breakdown starts at
        // Step 1 with zero queue wait rather than returning None.
        let events: Vec<TraceEvent> = fixture_events()
            .into_iter()
            .filter(|e| !matches!(e.kind, TraceEventKind::Admitted { .. }))
            .collect();
        let b = StageBreakdown::from_events(&events, ms(22)).unwrap();
        assert_eq!(b.queue_wait, Duration::ZERO);
        assert_eq!(b.total(), ms(20), "anchored at step1 start (2) -> 22");
    }

    #[test]
    fn breakdown_of_no_events_is_none() {
        assert!(StageBreakdown::from_events(&[], ms(5)).is_none());
    }

    #[test]
    fn breakdown_aggregation_means_segment_wise() {
        let b = StageBreakdown::from_events(&fixture_events(), ms(22)).unwrap();
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
    fn straggler_report_accounts_devices_and_names_gaters() {
        let report = StragglerReport::from_events(&fixture_events(), 2);
        assert_eq!(report.span, ms(22));
        assert_eq!(report.devices.len(), 2);
        // Device 0: intersect 6..9 (3 ms) + step3 13..16 (3 ms).
        assert_eq!(report.devices[0].busy, ms(6));
        assert_eq!(report.devices[0].intersect_busy, ms(3));
        assert_eq!(report.devices[0].step3_busy, ms(3));
        assert_eq!(report.devices[0].commands, 2);
        // Device 1: intersect 7..11 (4 ms) + step3 13..20 (7 ms).
        assert_eq!(report.devices[1].step3_busy, ms(7));
        // Device 0 stall: intersect issued at 5, started 6 (1 ms); step3
        // issued 12, started 13 (1 ms).
        assert_eq!(report.devices[0].stall, ms(2));
        // Device 0 idle: span 22 - pending union (5..9 + 12..16 = 8 ms).
        assert_eq!(report.devices[0].idle, ms(14));
        assert_eq!(report.gating, vec![(0, 1)]);
        assert_eq!(report.histogram, vec![0, 1]);
        assert_eq!(report.dominant_gater(), Some((1, 1)));
        let skew = report.step3_busy_skew();
        assert!((skew - 7.0 / 3.0).abs() < 1e-9, "skew 7/3, got {skew}");
        let text = report.report();
        assert!(text.starts_with("straggler report:"));
        assert!(text.contains("step 3 busy skew"));
        assert!(text.contains("job seq 0 -> device 1"));
        assert!(text.contains("gating-device histogram"));
    }

    #[test]
    fn straggler_report_of_empty_trace_is_empty_but_valid() {
        let report = StragglerReport::from_events(&[], 3);
        assert_eq!(report.span, Duration::ZERO);
        assert_eq!(report.devices.len(), 3);
        assert!(report.gating.is_empty());
        assert_eq!(report.step3_busy_skew(), 1.0);
        assert_eq!(report.dominant_gater(), None);
        assert_eq!(report.gating_histogram_flatness(), 1.0);
        assert!(report.report().contains("no job ran step 3"));
    }

    #[test]
    fn gating_histogram_flatness_is_max_over_mean() {
        let base = StragglerReport::from_events(&[], 4);
        // One device gates everything: worst case = device count.
        let mut worst = base.clone();
        worst.histogram = vec![8, 0, 0, 0];
        assert!((worst.gating_histogram_flatness() - 4.0).abs() < 1e-9);
        // Perfectly flat split: 1.0.
        let mut flat = base.clone();
        flat.histogram = vec![2, 2, 2, 2];
        assert!((flat.gating_histogram_flatness() - 1.0).abs() < 1e-9);
        // Mild skew: max 3 over mean 2.
        let mut mild = base;
        mild.histogram = vec![3, 2, 2, 1];
        assert!((mild.gating_histogram_flatness() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn union_len_merges_overlaps() {
        let mut intervals = vec![
            (ms(5), ms(9)),
            (ms(0), ms(2)),
            (ms(8), ms(12)),
            (ms(1), ms(2)),
        ];
        assert_eq!(union_len(&mut intervals), ms(9), "2 + 7");
        assert_eq!(union_len(&mut []), Duration::ZERO);
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
    fn fault_retry_and_failover_events_serialize_and_are_counted() {
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
        let json = TraceLog {
            events: events.clone(),
            dropped: 0,
        }
        .to_json();
        for needle in [
            "\"kind\": \"fault\"",
            "\"kind\": \"retry\"",
            "\"attempt\": 1",
            "\"kind\": \"failover\"",
            "\"from\": 1, \"to\": 0",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        let report = StragglerReport::from_events(&events, 2);
        assert_eq!(report.faults, vec![0, 1]);
        assert_eq!(report.retries, vec![0, 1]);
        assert_eq!(report.failovers, vec![0, 1]);
        let text = report.report();
        assert!(text
            .starts_with("straggler report: per-device busy/stall/idle and per-job step-3 gating"));
        assert!(text.contains("command faults per device: [0, 1]"));
        assert!(text.contains("failovers away from dead shards: [0, 1]"));
        // The new kinds never perturb a job's stage breakdown.
        let mut with_faults = fixture_events();
        with_faults.extend(events);
        let clean = StageBreakdown::from_events(&fixture_events(), ms(22)).unwrap();
        let faulted = StageBreakdown::from_events(&with_faults, ms(22)).unwrap();
        assert_eq!(clean, faulted);
    }

    #[test]
    fn clean_straggler_report_renders_no_fault_lines() {
        let report = StragglerReport::from_events(&fixture_events(), 2);
        assert_eq!(report.faults, vec![0, 0]);
        let text = report.report();
        assert!(!text.contains("command faults"));
        assert!(!text.contains("failovers"));
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
