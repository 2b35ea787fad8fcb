//! Service mode: the continuously scheduled streaming executor.
//!
//! [`StreamingEngine`] keeps the paper's multi-sample pipeline — a pool of
//! host Step 1 workers feeding a sharded in-SSD stage (§4.7) — running as a
//! long-lived service. Jobs can be submitted from any thread *while the
//! engine runs*: admission goes through one shared queue, and each Step 1
//! worker picks its next job with a live `pop_next` at dispatch time, so a
//! high-priority sample submitted mid-stream competes under the policy
//! immediately instead of waiting for a batch boundary. MetaStore and
//! GenStore frame in-storage genomics accelerators the same way:
//! continuously fed, not drained once.
//!
//! **A closed batch** is the same engine fed once:
//! [`StreamingEngine::submit_all`] admits the whole set in one critical
//! section — all of it or none — so no worker can pop between two
//! admissions and the assigned service positions follow the policy over the
//! whole set exactly; [`StreamingEngine::shutdown`] drains it and reports,
//! and each [`JobHandle::wait`] then returns at once.
//!
//! **The in-SSD stage: tagged command queues with bounded depth, serving
//! both Steps 2 and 3.** The stage runs as two threads around one
//! `ShardWorker` (see [`crate::shard`]) per database shard; each worker's queue
//! carries commands of *two kinds* — Step 2 (intersection finding fused
//! with taxID retrieval, §4.3) and Step 3 (unified-index generation plus
//! read mapping, §4.4) — so the whole pipeline after Step 1 is per-device
//! work, only counts cross back to the host side, and the coordinator never
//! serializes a stage:
//!
//! * The *dispatcher* serves prepared samples strictly in dispatch order
//!   (reorder buffer, below). For each sample it slices the sorted query
//!   list into per-shard sub-ranges with [`ShardSet::slice_queries`] —
//!   binary search on the shard key bounds, so each simulated SSD only ever
//!   sees the slice of the query list overlapping its disjoint database
//!   range, and total query-side work stays O(|Q|) across shards instead of
//!   the O(N·|Q|) a broadcast would cost. Each sub-range becomes one
//!   intersect command tagged `(sequence, shard)` on that shard's command
//!   queue. Queues are NVMe-style bounded: at most
//!   [`crate::EngineConfig::queue_depth`] commands may be outstanding per
//!   shard (submitted but not yet reaped by the completer), so several
//!   samples' commands are in flight on every device at once while
//!   backpressure still bounds memory.
//! * The *completer* reaps per-shard completions **out of order** — shard A
//!   may finish sample 3 before shard B finishes sample 1 — and keeps
//!   per-job accounting per stage. A Step 2 completion carries the slice's
//!   hit count and per-taxon sketch support — the device already retrieved
//!   the taxIDs through the database-joined KSS
//!   (`megis::step2::sweep`), so no k-mer list ever crosses the completion
//!   channel — and supports over disjoint query slices add, so each is
//!   **folded the moment it arrives** behind a hard folded-twice check per
//!   `(seq, shard)`. Once a job's shards have all reported, what is left of
//!   Step 2 is the presence call over the sum; the completer then cuts the
//!   sample's *reads* into contiguous ranges — one per device, fewer when a
//!   range would fall under about a millisecond of mapping — and issues one
//!   Step 3 command per range back onto the *same* tagged, depth-bounded
//!   queues, starting at shard `seq % shards` so single-command samples
//!   rotate over the array.
//!   The commands share the job's candidate list and one `OnceLock` slot:
//!   the first device to serve one generates the unified index by a single
//!   sequential merge (§4.4, Fig. 9), every command maps only its own reads
//!   against it, so the index is merged once and every read mapped once
//!   however wide the array. The completer submits Step 3 commands without
//!   ever blocking on queue space — commands wait in a backlog and take
//!   slots as reaping frees them, so reaping (the only thing that frees
//!   slots) can never deadlock behind submission. Each reaped range is
//!   per-candidate mapped-read counts, **folded the moment it arrives**
//!   (`step3::MappedCounts::merge`): ranges are disjoint and every range
//!   saw every candidate, so counts simply add — commutative, no part
//!   order, nothing held back — and only the normalization into an
//!   abundance profile is left when the last device reports. The fold is
//!   not idempotent, so each job asserts that no range is folded twice.
//!   When a job's ranges are all in — and every earlier sequence number has
//!   been delivered — the completer normalizes and delivers.
//!   Delivery order equals dispatch order equals policy order no matter how
//!   completions interleave.
//!
//! Because both command kinds share the per-device queues, one sample's
//! Step 3 mapping genuinely overlaps the next sample's Step 2 intersection
//! on the same device — [`ServiceReport::stage_overlap_events`] counts the
//! submissions that observed a command of the other stage outstanding.
//!
//! **Shard-of-record.** The per-device queues are deques, not channels
//! (`CommandQueues`): a device serves the back of its own queue, and when a
//! peer's worker has died the survivors serve what it left queued (failover,
//! below). A result therefore stays tagged with the *shard-of-record* (the
//! queue the command was issued to), which keeps the completer's depth
//! accounting and exactly-once fold independent of who served it; trace
//! events and [`ShardStats`] credit the *physical* serving device, so the
//! straggler analyzer sees real per-device busy time and
//! [`ShardStats::stolen_items`] counts the reads a device mapped off a dead
//! peer's queue — 0 on a healthy array.
//!
//! Commands are only issued to shards with work to do: a device whose key
//! range no query of a sample falls into is skipped for that sample's
//! Step 2, and a sample with no candidates (or no reads) issues no Step 3
//! command at all, rather than no-op work that would burn a queue slot.
//!
//! **One event channel.** Job records, issued-command registrations,
//! completions and the dispatcher's exit all reach the completer on one
//! channel, and the completer blocks on it: whatever happens wakes it. A
//! sample that commands no device at all (no query k-mer, or none inside
//! any shard's key range) is therefore delivered by its own job record, not
//! by a poll interval running out. A timeout is armed only while commands
//! are outstanding — to notice a panicked worker, a blown deadline or a due
//! retry — and [`ServiceSnapshot::completer_timeouts`] counts the waits
//! that ended on it.
//!
//! **Memory.** The shard workers hold zero-copy views over the analyzer's
//! columnar database storage (see [`crate::shard`]): spinning up an N-shard
//! service does not duplicate the database, and [`ServiceReport`] records
//! the deduplicated footprint as `resident_database_bytes`.
//!
//! **Ordering guarantee.** Dispatch order (the `start_position` assigned in
//! the same critical section as the pop) *is* policy order at dispatch time.
//! Step 1 workers may finish out of that order, so the dispatcher holds
//! early arrivals in a reorder buffer keyed on `start_position` and issues
//! commands strictly in dispatch order — and the completer's in-order
//! delivery extends the guarantee through Steps 2–3. A dispatch lookahead
//! gate keeps workers from running more than
//! `max(2 * workers + 2, queue_depth + workers)` positions ahead of in-SSD
//! delivery, so the reorder buffer, the per-job merge table, and peak
//! prepared-sample memory all stay O(workers + depth) even when one
//! sample's Step 1 is far slower than the rest — while still admitting
//! enough samples into the stage to actually fill a deep queue.
//!
//! **One owner per command.** Every command serves exactly one sample: the
//! dispatcher issues a sample's intersect commands the moment the sample is
//! next in dispatch order, and a completion, a retry or a failure settles
//! only the job that owns the command.
//!
//! **Failure.** Failure handling is layered, mirroring how a real device
//! array degrades, and every layer is exercised deterministically by an
//! injected [`crate::FaultPlan`] ([`crate::EngineConfig::with_fault_plan`]):
//!
//! 1. *Retry.* A command that fails transiently is re-issued by the
//!    completer with capped exponential backoff
//!    ([`crate::EngineConfig::with_retry_backoff`]) against a per-command
//!    retry budget ([`crate::EngineConfig::with_retry_budget`]); an optional
//!    command deadline ([`crate::EngineConfig::with_command_deadline`])
//!    treats a stuck command as a transient failure of its current attempt,
//!    so a hung device cannot stall a job forever. A command keeps its NVMe
//!    queue-depth slot from first issue to final resolution — retries never
//!    double-count against the depth gate, and stale completions of
//!    superseded attempts are ignored.
//! 2. *Failover.* When a shard's worker dies permanently, surviving workers
//!    adopt the commands still queued on the dead shard's deque, and retries
//!    of its failed commands are re-issued to a surviving queue. Every
//!    worker holds the zero-copy [`ShardSet`], so any device can serve any
//!    shard's database range and outputs stay byte-identical; results stay
//!    keyed on the *shard-of-record*, so failover is invisible to the merge
//!    bookkeeping.
//! 3. *Per-job failure.* A worker panic (caught at the serving seam) or an
//!    exhausted retry budget fails only the owning job: its [`JobHandle`]
//!    resolves to `Err(`[`JobError`]`)`, delivered in dispatch order like
//!    any result, and the engine keeps serving every other job.
//! 4. *Poison.* Only unrecoverable pipeline failures — a Step 1 worker, the
//!    dispatcher, or the completer panicking — poison the whole service:
//!    [`StreamingEngine::drain`] and [`StreamingEngine::shutdown`] propagate
//!    the failure as a panic instead of blocking forever, every outstanding
//!    [`JobHandle`] resolves to `Err(JobError::EngineStopped)` the moment
//!    the poison is set — while the engine is still alive — later
//!    submissions are rejected with [`AdmissionError::ShuttingDown`], and
//!    dropping the engine joins its threads without panicking.
//!
//! **Delivery.** Each submission returns a [`JobHandle`]; the result is sent
//! on the handle's channel the moment the job completes, so clients consume
//! results incrementally instead of waiting for a closed batch. A rolling
//! window ([`crate::metrics::RollingWindow`]) over recent completions backs
//! the live [`ServiceSnapshot`].
//!
//! **Shutdown.** [`StreamingEngine::drain`] blocks until the service is
//! quiescent; [`StreamingEngine::shutdown`] closes admission, drains, joins
//! every thread, and reports. Dropping the engine performs the same graceful
//! shutdown.
//!
//! # Observability
//!
//! With [`crate::EngineConfig::with_tracing`] the engine records every
//! pipeline lifecycle event into a shared [`crate::trace::TraceSink`]
//! (bounded ring, multi-producer): admission at `submit`, Step 1 start/end
//! in the workers, `CommandIssued` per `(seq, shard)` at the dispatcher's
//! intersect submission and the completer's Step 3 backlog submission,
//! `CommandStarted`/`CommandCompleted` in the shard workers (bracketing the
//! device service), `ReduceStarted`/`ReduceFinished` around the
//! completer's reduce, and `Delivered` at handle send. At `finalize` the
//! completer reconstructs the job's [`crate::trace::StageBreakdown`] from
//! its own events (attached to [`JobResult::breakdown`] and averaged into
//! the report summaries), and at shutdown the whole event log yields the
//! [`crate::trace::StragglerReport`] — per-device busy/stall/idle and the
//! device that gated each job's Step 3 reduce — plus the exportable
//! [`crate::trace::TraceLog`].
//!
//! **Overhead contract:** tracing is off by default and the disabled sink's
//! record path is a single inlined branch — no lock, no clock read, no
//! allocation — so the instrumentation points cost the engine nothing when
//! unused. The repository benchmark reports the traced-vs-untraced wall
//! clock as `sched.trace.overhead_frac` (`benchmark/README.md`).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use megis::kss::Support;
use megis::step1::Step1Output;
use megis::step3;
use megis::{MegisAnalyzer, MegisOutput};
use megis_genomics::database::UnifiedReferenceIndex;
use megis_genomics::profile::PresenceResult;
use megis_genomics::sample::Sample;

use crate::engine::EngineConfig;
use crate::fault::FaultDecision;
use crate::job::{JobError, JobId, JobResult, JobSpec, Priority};
use crate::metrics::{LatencyStats, RollingWindow, ServiceReport, ShardStats};
use crate::queue::{AdmissionError, JobQueue};
use crate::shard::{
    CommandFailure, CommandOutput, IntersectCommand, ShardCommand, ShardSet, ShardWorker,
    Step3Command,
};
use crate::trace::{
    StageBreakdown, StragglerReport, TraceEventKind, TraceLog, TraceSink, TraceStage, NO_SEQ,
};

/// A Step 1 output in flight between the host stage and the in-SSD stage.
struct PreparedJob {
    id: JobId,
    label: String,
    priority: Priority,
    start_position: usize,
    /// Shared so the job's per-device Step 3 commands can map the reads
    /// without copying the sample.
    sample: Arc<Sample>,
    submitted_at: Instant,
    queue_wait: Duration,
    step1_time: Duration,
    step1: Step1Output,
}

/// One completion reaped from a shard, tagged with its origin. Completions
/// are Result-shaped: a served command reports `Ok(output)`, a faulted one
/// reports `Err(failure)` and the completer decides between retry,
/// failover, and per-job failure.
struct ShardCompletion {
    /// The *shard-of-record*: the queue the command was issued to, not
    /// necessarily the device that served it (a live peer may have adopted
    /// it from a dead shard's queue). Depth accounting and the exactly-once
    /// folds key on this, so failover is invisible to the completer's merge
    /// bookkeeping.
    shard: usize,
    seq: usize,
    /// The attempt this completion settles; stale completions of superseded
    /// attempts (a deadline re-issue overtook them) are ignored.
    attempt: u32,
    /// The command kind, carried explicitly so failed completions (which
    /// have no output to infer it from) still settle the right stage
    /// counter.
    stage: TraceStage,
    result: Result<CommandOutput, CommandFailure>,
}

/// The per-device command queues: one shared deque array rather than N
/// private channels, so a dead shard's queue stays reachable by its peers.
///
/// Discipline per queue: producers push at the back; the owner pops from
/// the back (the freshest command, whose sample data is hottest); live
/// peers adopt a *dead* shard's queue from the front (the command that has
/// waited longest). A live shard's queue is served by its owner only.
///
/// Producer accounting replaces channel disconnection for shutdown: each
/// producing side (dispatcher, completer) holds a [`QueueProducer`] guard,
/// and a worker exits when its own queue is empty, no dead peer has
/// anything queued, and no producer guard remains.
#[derive(Debug)]
struct CommandQueues {
    inner: Mutex<QueuesInner>,
    /// Signaled on push and on producer release.
    ready: Condvar,
}

#[derive(Debug)]
struct QueuesInner {
    queues: Vec<VecDeque<ShardCommand>>,
    /// Outstanding [`QueueProducer`] guards.
    producers: usize,
    /// Shards whose worker died permanently (an injected shard death).
    /// Commands left on a dead shard's queue are adopted by live peers —
    /// *any* command kind — and retries of its failed commands are
    /// re-issued elsewhere.
    dead: Vec<bool>,
}

/// One command handed to a worker, with its provenance. The command itself
/// names its shard-of-record ([`ShardCommand::record_shard`]) — under
/// failover re-issue that can differ from the queue it sat on, so the queue
/// index is deliberately not carried here.
struct PoppedCommand {
    command: ShardCommand,
    /// `true` when the serving device adopted the command off a dead
    /// peer's queue.
    stolen: bool,
}

impl CommandQueues {
    fn new(shard_count: usize) -> Arc<CommandQueues> {
        Arc::new(CommandQueues {
            inner: Mutex::new(QueuesInner {
                queues: (0..shard_count).map(|_| VecDeque::new()).collect(),
                producers: 0,
                dead: vec![false; shard_count],
            }),
            ready: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, QueuesInner> {
        // Same poison recovery as `Shared::lock`: the engine's own poison
        // flag is the failure signal, and teardown must keep draining while
        // a panic unwinds.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a producing side; commands can be pushed while the guard
    /// lives, and workers only wind down once every guard is dropped.
    fn producer(self: &Arc<Self>) -> QueueProducer {
        self.lock().producers += 1;
        QueueProducer {
            queues: Arc::clone(self),
        }
    }

    /// Marks a shard's worker permanently dead (injected shard death) and
    /// wakes every waiting peer so its queue can be adopted immediately.
    fn mark_dead(&self, index: usize) {
        self.lock().dead[index] = true;
        self.ready.notify_all();
    }

    /// Whether a shard's worker died permanently.
    fn is_dead(&self, index: usize) -> bool {
        self.lock().dead[index]
    }

    /// Blocks until device `index` has a command to serve — its own queue's
    /// back, or the front of a dead peer's abandoned queue — or returns
    /// `None` when no command can ever arrive again (queues drained,
    /// producers gone).
    fn pop(&self, index: usize) -> Option<PoppedCommand> {
        let mut inner = self.lock();
        loop {
            if let Some(command) = inner.queues[index].pop_back() {
                return Some(PoppedCommand {
                    command,
                    stolen: false,
                });
            }
            // A dead peer's queue can never be served by its owner again:
            // adopt its oldest command — *any* kind, since every worker
            // holds the whole shard set and an [`IntersectCommand`] names
            // its database range explicitly.
            {
                let n = inner.queues.len();
                for offset in 1..n {
                    let peer = (index + offset) % n;
                    if inner.dead[peer] {
                        if let Some(command) = inner.queues[peer].pop_front() {
                            return Some(PoppedCommand {
                                command,
                                stolen: true,
                            });
                        }
                    }
                }
            }
            if inner.producers == 0 {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// RAII registration of one producing side on the [`CommandQueues`];
/// dropping it is the shutdown hand-over that lets idle workers exit.
#[derive(Debug)]
struct QueueProducer {
    queues: Arc<CommandQueues>,
}

impl QueueProducer {
    /// Enqueues a command on `shard`'s queue. Infallible: worker liveness
    /// is reported through the engine's poison flag, not through send
    /// errors.
    fn send(&self, shard: usize, command: ShardCommand) {
        self.queues.lock().queues[shard].push_back(command);
        self.queues.ready.notify_all();
    }
}

impl Drop for QueueProducer {
    fn drop(&mut self) {
        self.queues.lock().producers -= 1;
        // Wake every waiting worker so it can re-check the exit condition.
        self.queues.ready.notify_all();
    }
}

/// Dispatcher → completer record for one sample entering the in-SSD stage;
/// sent *before* any of the sample's commands, so the completer always knows
/// a sequence number before its first completion can arrive.
struct IspMeta {
    seq: usize,
    /// Observed hand-off rank, stamped independently of `start_position` so
    /// the ordering regression tests genuinely fail if the reorder buffer is
    /// ever bypassed.
    isp_position: usize,
    /// Number of per-shard commands the dispatcher will issue for this job.
    expected: usize,
    isp_start: Instant,
    prepared: PreparedJob,
}

/// Everything the completer reacts to, on **one** channel: whatever arrives
/// wakes it, so a sample that issues no command at all (no query k-mer, or
/// none inside any shard's key range) is delivered the moment its `Job`
/// record lands instead of when a poll interval runs out. The channel keeps
/// the order things happened in across senders: the dispatcher sends a
/// sample's `Job` before any of its commands, and each `Issued` record
/// *before* the command is pushed onto a shard queue, so a command's
/// registration is always received ahead of any completion of it — the
/// invariant the retry machinery keys on.
enum CompleterMsg {
    /// A sample entered the in-SSD stage.
    Job(IspMeta),
    /// An intersect command was issued to `shard`'s queue; the command
    /// itself is carried (cheap: `Arc`-shared payloads) so the completer
    /// can re-issue it on failure. Step 3 commands register directly in
    /// `submit_backlog` — same thread as the reaping — and don't pass
    /// through here.
    Issued {
        /// The target queue (= shard-of-record).
        shard: usize,
        command: ShardCommand,
    },
    /// A shard worker finished (or failed) one command.
    Completed(ShardCompletion),
    /// The dispatcher exited: no further job will ever arrive.
    DispatcherExited,
}

/// The dispatcher's end of the completer channel; dropping it — on a clean
/// exit or while a panic unwinds — tells the completer no job will follow.
struct DispatcherTx(Sender<CompleterMsg>);

impl Drop for DispatcherTx {
    fn drop(&mut self) {
        let _ = self.0.send(CompleterMsg::DispatcherExited);
    }
}

/// Fewest reads worth a Step 3 command of their own (about a millisecond
/// of mapping): cutting an 80-read sample eight ways instead costs ~10 %
/// more CPU per sample in issuing, reaping and folding the extra commands.
const MIN_READS_PER_COMMAND: usize = 128;

/// Per-job state machine at the completer: Step 2 support folding, then
/// Step 3 dispatch and count folding, then (in delivery order) delivery.
/// Neither stage leaves a list here — the devices return counts, and counts
/// add.
struct MergeState {
    meta: IspMeta,
    /// The job's Step 2 result so far: the hit count and per-taxon support
    /// of every shard reaped, summed the moment each arrives.
    step2: Support,
    /// Shards-of-record whose support has been folded into `step2`.
    /// Addition is not idempotent, so a second fold of one `(seq, shard)`
    /// must be a crash, not a silently doubled support.
    step2_folded: Vec<bool>,
    /// Intersect completions still outstanding.
    remaining: usize,
    /// Step 2's presence call over the folded support, made the moment the
    /// last shard's support is in.
    presence: Option<PresenceResult>,
    /// The Step 3 counts of every read range reaped so far, merged the
    /// moment each arrives; the work left at delivery is the normalization.
    step3: step3::MappedCounts,
    /// Shards-of-record whose read range has been folded into `step3`. The
    /// count merge is not idempotent, so a second fold of one range must be
    /// a crash, not a silently doubled abundance.
    step3_folded: Vec<bool>,
    /// Step 3 completions still outstanding.
    step3_remaining: usize,
    /// Set once presence was called and the job's Step 3 commands were
    /// handed to the submission backlog (also set for jobs with no
    /// candidates, whose Step 3 is trivially complete).
    step3_dispatched: bool,
    /// Set when the job failed (worker panic, exhausted retry budget, no
    /// live shard): the job is delivered as `Err` at its turn in dispatch
    /// order, isolated from every other job.
    failed: Option<JobError>,
}

impl MergeState {
    /// The state of a job entering the in-SSD stage on `shard_count` shards.
    fn new(meta: IspMeta, shard_count: usize) -> MergeState {
        MergeState {
            step2: Support::default(),
            step2_folded: vec![false; shard_count],
            remaining: meta.expected,
            presence: None,
            step3: step3::MappedCounts::default(),
            step3_folded: vec![false; shard_count],
            step3_remaining: 0,
            step3_dispatched: false,
            failed: None,
            meta,
        }
    }

    /// Every expected completion of both stages has been reaped — or the
    /// job failed and is ready to deliver its error at its ordered turn.
    fn is_complete(&self) -> bool {
        self.failed.is_some()
            || (self.remaining == 0 && self.step3_dispatched && self.step3_remaining == 0)
    }

    /// Folds the support `shard` reported for this job's query slice.
    ///
    /// # Panics
    ///
    /// Panics if that shard's support was already folded.
    fn fold_step2(&mut self, shard: usize, support: Support) {
        assert!(
            !std::mem::replace(&mut self.step2_folded[shard], true),
            "step 2 support of shard {shard} folded twice"
        );
        self.step2.fold(support);
        self.remaining -= 1;
    }

    /// Folds the reaped counts of the read range issued under
    /// `record_shard`.
    ///
    /// # Panics
    ///
    /// Panics if that range was already folded.
    fn fold_step3(&mut self, record_shard: usize, counts: step3::MappedCounts) {
        assert!(
            !std::mem::replace(&mut self.step3_folded[record_shard], true),
            "step 3 range of shard-of-record {record_shard} folded twice"
        );
        self.step3.merge(counts);
        self.step3_remaining -= 1;
    }
}

/// State shared by submitters, Step 1 workers, and the in-SSD stage.
#[derive(Debug)]
struct ServiceState {
    /// The live admission queue; workers `pop_next` it at dispatch time.
    queue: JobQueue,
    /// Per-job result channels, removed at delivery. A failed job's error
    /// travels the same channel as a result would, so handles resolve in
    /// either case.
    senders: HashMap<u64, mpsc::Sender<Result<JobResult, JobError>>>,
    /// Next service position to assign (same critical section as the pop).
    next_position: usize,
    /// Jobs popped but not yet completed by the in-SSD stage.
    in_flight: usize,
    /// Positions fully served by the in-SSD stage (the completer's
    /// `next_to_deliver`, mirrored here for the dispatch lookahead gate).
    isp_served: usize,
    /// Maximum positions workers may dispatch ahead of the in-SSD stage;
    /// bounds the reorder buffer and prepared-sample memory at
    /// O(workers + queue depth).
    lookahead: usize,
    /// Commands outstanding per shard (both kinds): submitted, not yet
    /// reaped by the completer. The dispatcher blocks while a shard sits at
    /// [`EngineConfig::queue_depth`] — the NVMe queue-depth bound. (The
    /// completer never blocks on it; its Step 3 submissions wait in a
    /// backlog instead.)
    shard_inflight: Vec<usize>,
    /// High-water mark of `shard_inflight`, per shard, over the service
    /// lifetime; reported as [`ShardStats::peak_inflight`].
    shard_inflight_peak: Vec<usize>,
    /// Intersect commands outstanding across all shards (subset of
    /// `shard_inflight` sums), for stage-overlap observation.
    intersect_inflight: usize,
    /// Step 3 commands outstanding across all shards.
    step3_inflight: usize,
    /// Submissions that observed a command of the *other* stage
    /// outstanding; reported as [`ServiceReport::stage_overlap_events`].
    stage_overlap_events: u64,
    /// Commands re-issued after a failure, per shard-of-record; merged into
    /// [`ShardStats::retries`] at shutdown.
    shard_retries: Vec<u64>,
    /// Retries routed to a different device because the shard-of-record is
    /// dead, per (dead) shard-of-record; merged into
    /// [`ShardStats::failovers`] at shutdown.
    shard_failovers: Vec<u64>,
    /// Jobs that failed with a [`JobError`] while the engine kept serving.
    failed_jobs: u64,
    /// Times the completer's wait ended on its poll timeout instead of an
    /// event; reported as [`ServiceSnapshot::completer_timeouts`].
    completer_timeouts: u64,
    /// Reads mapped during Step 3 across all delivered jobs.
    mapped_reads: u64,
    /// Set when a pipeline thread panics; drain/shutdown propagate it as a
    /// panic instead of waiting forever on work that can never complete.
    poisoned: bool,
    /// Cleared when a graceful shutdown begins; submissions then reject.
    accepting: bool,
    /// Set after the final drain; idle workers exit instead of waiting.
    stopping: bool,
    /// Jobs completed over the service lifetime.
    completed: u64,
    /// Rolling latency/throughput window over recent completions.
    window: RollingWindow,
    /// Segment-wise sum of every delivered job's traced stage breakdown
    /// (zero while tracing is disabled).
    breakdown_sum: StageBreakdown,
    /// Jobs whose breakdown was reconstructed and accumulated.
    breakdown_count: usize,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<ServiceState>,
    /// Signaled on submission (workers wait here when the queue is empty).
    job_ready: Condvar,
    /// Signaled on completion (drain waits here for quiescence).
    idle: Condvar,
    /// Signaled when a shard queue slot frees up (the dispatcher waits here
    /// when a shard is at its configured queue depth).
    queue_space: Condvar,
}

impl Shared {
    /// The state of an engine that has served nothing yet.
    fn new(config: &EngineConfig, shard_count: usize) -> Shared {
        Shared {
            state: Mutex::new(ServiceState {
                queue: JobQueue::new(config.policy, config.queue_capacity),
                senders: HashMap::new(),
                next_position: 0,
                in_flight: 0,
                isp_served: 0,
                // Memory bound and depth headroom: each in-flight sample
                // contributes at most one outstanding command per shard, so
                // reaching `queue_depth` outstanding commands needs at least
                // `queue_depth` samples inside the in-SSD stage (plus the
                // workers' hands). With the default depth the second term is
                // never larger, so the classic `2 * workers + 2` bound is
                // unchanged; deep queues widen the gate instead of being
                // silently capped below the configured depth.
                lookahead: (2 * config.workers + 2).max(config.queue_depth + config.workers),
                shard_inflight: vec![0; shard_count],
                shard_inflight_peak: vec![0; shard_count],
                intersect_inflight: 0,
                step3_inflight: 0,
                stage_overlap_events: 0,
                shard_retries: vec![0; shard_count],
                shard_failovers: vec![0; shard_count],
                failed_jobs: 0,
                completer_timeouts: 0,
                mapped_reads: 0,
                poisoned: false,
                accepting: true,
                stopping: false,
                completed: 0,
                window: RollingWindow::new(config.metrics_window),
                breakdown_sum: StageBreakdown::default(),
                breakdown_count: 0,
            }),
            job_ready: Condvar::new(),
            idle: Condvar::new(),
            queue_space: Condvar::new(),
        }
    }

    /// Locks the state, recovering from std mutex poisoning: the engine's
    /// own `poisoned` flag (set by [`PanicGuard`]) is the real failure
    /// signal, and teardown must keep working while a panic unwinds —
    /// a `lock().unwrap()` during unwind would panic-within-panic and
    /// abort the process.
    fn lock(&self) -> MutexGuard<'_, ServiceState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl ServiceState {
    /// Books one `stage` command onto `shard`'s queue: takes a depth slot,
    /// raises the shard's high-water mark, and counts a stage overlap if a
    /// command of the other stage is outstanding.
    fn occupy(&mut self, shard: usize, stage: TraceStage) {
        self.shard_inflight[shard] += 1;
        self.shard_inflight_peak[shard] =
            self.shard_inflight_peak[shard].max(self.shard_inflight[shard]);
        let (own, other) = match stage {
            TraceStage::Intersect => (&mut self.intersect_inflight, self.step3_inflight),
            TraceStage::Step3 => (&mut self.step3_inflight, self.intersect_inflight),
        };
        *own += 1;
        if other > 0 {
            self.stage_overlap_events += 1;
        }
    }

    /// Frees the slot [`ServiceState::occupy`] took, exactly once per
    /// command: at its final reap or when its job fails.
    fn release(&mut self, shard: usize, stage: TraceStage) {
        self.shard_inflight[shard] -= 1;
        match stage {
            TraceStage::Intersect => self.intersect_inflight -= 1,
            TraceStage::Step3 => self.step3_inflight -= 1,
        }
    }
}

/// Live snapshot of a running service.
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// Jobs admitted but not yet dispatched to Step 1.
    pub pending: usize,
    /// Jobs dispatched but not yet completed.
    pub in_flight: usize,
    /// Jobs completed since the service started.
    pub completed: u64,
    /// Whether submissions are currently accepted.
    pub accepting: bool,
    /// Commands currently outstanding per shard (submitted, completion not
    /// yet reaped) — the live NVMe-style queue occupancy.
    pub shard_inflight: Vec<usize>,
    /// Latency distribution over the rolling completion window.
    pub window: LatencyStats,
    /// Completions per second over the rolling window.
    pub window_throughput: f64,
    /// Times the completer woke because its poll interval ran out rather
    /// than because something happened. Jobs, issued commands and
    /// completions all wake it as events; a timeout is armed only while
    /// commands are outstanding (to notice a dead worker, a blown deadline
    /// or a due retry), so an idle or healthy engine reads 0 and no sample
    /// ever waits one out.
    pub completer_timeouts: u64,
}

/// Claim on one submitted job's result.
///
/// The outcome is sent the moment the job settles; [`JobHandle::wait`]
/// blocks until then and resolves `Ok(JobResult)` for a served job or
/// `Err(`[`JobError`]`)` for one that failed while the engine kept serving
/// (per-job failure isolation). If the engine stops — or is poisoned —
/// before the job is served, waiting yields `Err(JobError::EngineStopped)`.
#[derive(Debug)]
pub struct JobHandle {
    id: JobId,
    rx: Receiver<Result<JobResult, JobError>>,
}

impl JobHandle {
    /// The admitted job's identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Blocks until the job settles and returns its outcome;
    /// `Err(JobError::EngineStopped)` if the engine stopped without serving
    /// it.
    pub fn wait(self) -> Result<JobResult, JobError> {
        self.rx
            .recv()
            .unwrap_or(Err(JobError::EngineStopped { job: self.id }))
    }

    /// Returns the outcome if the job has already settled, without
    /// blocking.
    pub fn try_wait(&self) -> Option<Result<JobResult, JobError>> {
        self.rx.try_recv().ok()
    }

    /// Blocks up to `timeout` for the outcome.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobResult, JobError>> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// The long-running streaming engine (service mode).
///
/// See the [module docs](self) for the execution model. Methods take
/// `&self`, so the engine can be shared across submitter threads behind an
/// [`Arc`].
#[derive(Debug)]
pub struct StreamingEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    completer: Option<JoinHandle<()>>,
    /// Each shard worker returns its lifetime [`ShardStats`] when it exits.
    shard_handles: Vec<JoinHandle<ShardStats>>,
    shards: ShardSet,
    config: EngineConfig,
    started_at: Instant,
    trace: TraceSink,
}

impl StreamingEngine {
    /// Builds and starts a service around an analyzer, sharding its database
    /// across the configured number of simulated SSDs. Worker, shard, and
    /// in-SSD stage threads are running when this returns.
    pub fn new(analyzer: MegisAnalyzer, config: EngineConfig) -> StreamingEngine {
        assert!(config.workers > 0, "at least one worker is required");
        assert!(config.shards > 0, "at least one shard is required");
        assert!(config.queue_depth > 0, "queue depth must be positive");
        let shards = ShardSet::build(analyzer.database(), config.shards);
        let analyzer = Arc::new(analyzer);
        let shard_count = shards.shard_count();
        let trace = match config.trace_capacity {
            Some(capacity) => TraceSink::bounded(capacity),
            None => TraceSink::disabled(),
        };
        let shared = Arc::new(Shared::new(&config, shard_count));

        // In-SSD stage, part 1: one worker per database shard, all sharing
        // the deque-per-device [`CommandQueues`] — carrying both Step 2
        // intersect commands and Step 3 index-generation/mapping commands —
        // and reporting completions out of order on the completer's one
        // event channel. The producer guards are taken *before* any worker
        // spawns so no worker can observe a producerless instant and exit
        // early.
        let queues = CommandQueues::new(shard_count);
        let dispatcher_producer = queues.producer();
        let completer_producer = queues.producer();
        let (resp_tx, events) = mpsc::channel::<CompleterMsg>();
        let mut shard_handles = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let queues = Arc::clone(&queues);
            let worker = ShardWorker::new(shards.clone(), Arc::clone(&analyzer));
            let resp_tx = resp_tx.clone();
            let shared = Arc::clone(&shared);
            let fault_plan = config.fault_plan.clone();
            let trace = trace.clone();
            shard_handles.push(thread::spawn(move || {
                let _guard = PanicGuard(&shared);
                let mut busy = Duration::ZERO;
                let mut served = 0u64;
                let mut query_items = 0u64;
                let mut step3_served = 0u64;
                let mut step3_items = 0u64;
                let mut stolen_items = 0u64;
                let mut faults = 0u64;
                let mut dead = false;
                let mut popped_total = 0u64;
                let death_after = fault_plan.as_ref().and_then(|p| p.death_after(index));
                while let Some(popped) = queues.pop(index) {
                    let command = popped.command;
                    let stage = command.stage();
                    let seq = command.seq();
                    // The command's *own* record shard, not the queue it was
                    // popped from: after a failover re-issue the two differ,
                    // and completions must carry the identity the completer
                    // keyed the outstanding entry (and the Step 3 fold
                    // slot) on.
                    let record = command.record_shard();
                    let attempt = command.attempt();
                    popped_total += 1;
                    // Every injected failure is reported the same way: count
                    // it, trace it, and answer the command with the failure
                    // so the completer can retry, fail over, or fail the
                    // job. `false` once the completer is gone.
                    let mut fail = |failure: CommandFailure| {
                        faults += 1;
                        trace.record(
                            seq,
                            TraceEventKind::Fault {
                                stage,
                                shard: record,
                            },
                        );
                        let failed = ShardCompletion {
                            shard: record,
                            seq,
                            attempt,
                            stage,
                            result: Err(failure),
                        };
                        resp_tx.send(CompleterMsg::Completed(failed)).is_ok()
                    };
                    // Injected permanent shard death: after serving
                    // `death_after` commands the worker dies with the next
                    // command in hand. That command fails with a dead-shard
                    // error (the completer fails it over to a survivor) and
                    // everything still queued here is adopted by live peers
                    // via `CommandQueues::pop`.
                    if death_after.is_some_and(|after| popped_total > after) {
                        queues.mark_dead(index);
                        dead = true;
                        fail(CommandFailure::ShardDead);
                        break;
                    }
                    // Fault decisions key on the command identity — the
                    // *record* shard, never the physical server — so a
                    // plan's schedule is independent of failover routing.
                    // The fault-free hot path pays one `Option` check.
                    let mut spike = Duration::ZERO;
                    match fault_plan
                        .as_ref()
                        .and_then(|p| p.decide(seq, record, stage, attempt))
                    {
                        Some(FaultDecision::Transient) => {
                            if fail(CommandFailure::Transient) {
                                continue;
                            }
                            break;
                        }
                        Some(FaultDecision::Panic) => {
                            // Caught right here at the serving seam: the
                            // injected panic must fail only the owning job,
                            // never unwind the worker (the `PanicGuard`
                            // stays un-tripped and the engine keeps
                            // serving).
                            let caught = std::panic::catch_unwind(|| {
                                // lint:allow(panic-hygiene, the injected
                                // worker panic is caught by the enclosing
                                // catch_unwind at the serving seam and
                                // surfaces as a per-job error, not a thread
                                // death)
                                panic!("injected worker panic");
                            });
                            debug_assert!(caught.is_err());
                            if fail(CommandFailure::Panicked) {
                                continue;
                            }
                            break;
                        }
                        Some(FaultDecision::Spike(extra)) => spike = extra,
                        None => {}
                    }
                    // Trace events and stats credit the *physical* serving
                    // device (`index`): the straggler analyzer sums real
                    // per-device service intervals, which under failover
                    // differ from the shard-of-record's queue. The service
                    // interval's start stamp is taken here and its
                    // Started/Completed pair is emitted after serving.
                    let trace_started = trace.now();
                    let t0 = Instant::now();
                    // An injected latency spike stalls the device before it
                    // serves — busy time the command deadline exists to cut
                    // short, and the only simulated dwell on the serving
                    // path: device *time* is priced analytically
                    // (`crate::model`), the engine spends real CPU time.
                    if !spike.is_zero() {
                        thread::sleep(spike);
                    }
                    let output = worker.serve(&command);
                    busy += t0.elapsed();
                    match &command {
                        ShardCommand::Intersect(c) => {
                            served += 1;
                            query_items += c.range.len() as u64;
                        }
                        ShardCommand::Step3(c) => {
                            step3_served += 1;
                            step3_items += c.reads.len() as u64;
                            if popped.stolen {
                                stolen_items += c.reads.len() as u64;
                            }
                        }
                    }
                    trace.record_at(
                        trace_started,
                        seq,
                        TraceEventKind::CommandStarted {
                            stage,
                            shard: index,
                        },
                    );
                    trace.record(
                        seq,
                        TraceEventKind::CommandCompleted {
                            stage,
                            shard: index,
                        },
                    );
                    let completion = ShardCompletion {
                        shard: record,
                        seq,
                        attempt,
                        stage,
                        result: Ok(output),
                    };
                    if resp_tx.send(CompleterMsg::Completed(completion)).is_err() {
                        break;
                    }
                }
                ShardStats {
                    shard: index,
                    busy,
                    jobs: served,
                    query_items,
                    step3_jobs: step3_served,
                    step3_items,
                    stolen_items,
                    peak_inflight: 0,
                    faults,
                    retries: 0,
                    failovers: 0,
                    dead,
                }
            }));
        }
        // The dispatcher takes the last sender: with the workers' clones it
        // is every sender there is, so the channel closes exactly when the
        // in-SSD stage has wound down.
        let meta_tx = DispatcherTx(resp_tx);

        // Bounded hand-off between the stages (§4.7 lookahead): together
        // with the dispatch lookahead gate in `step1_worker`, at most
        // `lookahead` prepared samples exist at once — in workers' hands,
        // in this channel, in the dispatcher's reorder buffer, or in the
        // completer's merge table — so peak memory stays O(workers + depth)
        // while the in-SSD stage stays fed.
        let (s1_tx, s1_rx) = mpsc::sync_channel::<PreparedJob>(config.workers + 1);

        // Host stage: Step 1 worker pool. Only the workers hold senders, so
        // the dispatcher's receiver closes exactly when the last worker
        // exits.
        let mut workers = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let shared = Arc::clone(&shared);
            let analyzer = Arc::clone(&analyzer);
            let s1_tx = s1_tx.clone();
            let trace = trace.clone();
            workers.push(thread::spawn(move || {
                step1_worker(&shared, &analyzer, &s1_tx, &trace);
            }));
        }
        drop(s1_tx);

        // In-SSD stage, part 2: dispatcher (reorder + slice + bounded-depth
        // intersect submission) and completer (out-of-order reaping, per-job
        // two-stage merge accounting, backlogged Step 3 submission onto the
        // same queues, in-dispatch-order delivery). Both hold producer
        // guards on the shard queues; the completer releases its guard once
        // no more Step 3 commands can ever be issued, which is what lets
        // the shard workers (and then the completer itself) wind down.
        let dispatcher = {
            let shared = Arc::clone(&shared);
            let shard_set = shards.clone();
            let queue_depth = config.queue_depth;
            let trace = trace.clone();
            thread::spawn(move || {
                isp_dispatcher(
                    &shared,
                    &shard_set,
                    s1_rx,
                    dispatcher_producer,
                    meta_tx,
                    queue_depth,
                    &trace,
                );
            })
        };
        let completer = {
            let shared = Arc::clone(&shared);
            let queues = Arc::clone(&queues);
            let queue_depth = config.queue_depth;
            let retry_budget = config.retry_budget;
            let retry_backoff = config.retry_backoff;
            let command_deadline = config.command_deadline;
            let trace = trace.clone();
            thread::spawn(move || {
                IspCompleter {
                    shared: &shared,
                    analyzer: &analyzer,
                    producer: Some(completer_producer),
                    queues,
                    shard_count,
                    queue_depth,
                    pending: BTreeMap::new(),
                    backlog: VecDeque::new(),
                    outstanding: HashMap::new(),
                    retry_due: Vec::new(),
                    retry_budget,
                    retry_backoff,
                    command_deadline,
                    next_to_deliver: 0,
                    meta_open: true,
                    trace,
                }
                .run(events);
            })
        };

        StreamingEngine {
            shared,
            workers,
            dispatcher: Some(dispatcher),
            completer: Some(completer),
            shard_handles,
            shards,
            config,
            started_at: Instant::now(),
            trace,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The sharded database layout.
    pub fn shards(&self) -> &ShardSet {
        &self.shards
    }

    /// The engine's trace sink (disabled unless
    /// [`EngineConfig::trace_capacity`] was set). Live snapshots of the
    /// event log are available while the service runs; the final
    /// [`ServiceReport`] carries the analyzed form.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Jobs admitted but not yet dispatched to Step 1.
    pub fn pending(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Submits one job to the running service, from any thread: the
    /// one-job case of [`StreamingEngine::submit_all`]. On success the
    /// returned [`JobHandle`] delivers the result as soon as the job
    /// completes.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, AdmissionError> {
        let mut handles = self.submit_all([spec])?;
        Ok(handles.pop().expect("one job admitted, one handle"))
    }

    /// Admits a closed set of jobs, from any thread: all of them or none,
    /// in **one** critical section. No worker can pop between two of the
    /// admissions, so the service positions the set is assigned follow the
    /// policy over the whole set exactly — (priority desc, submission asc)
    /// under [`crate::SchedPolicy::Priority`] — whatever the worker count.
    /// Ids are dense and in submission order; the handles come back in that
    /// order too.
    ///
    /// Admission is bounded by the configured queue capacity **counting
    /// in-flight work**: a job occupies its slot from admission until its
    /// result is delivered, so at most `queue_capacity` jobs are ever
    /// inside the service, and a set that does not fit as a whole is
    /// rejected as a whole with [`AdmissionError::QueueFull`]. Admission
    /// closes once a graceful shutdown begins — or the engine is poisoned —
    /// and then rejects with [`AdmissionError::ShuttingDown`].
    pub fn submit_all<I: IntoIterator<Item = JobSpec>>(
        &self,
        specs: I,
    ) -> Result<Vec<JobHandle>, AdmissionError> {
        let specs: Vec<JobSpec> = specs.into_iter().collect();
        let handles: Vec<JobHandle> = {
            let mut state = self.shared.lock();
            if !state.accepting {
                return Err(AdmissionError::ShuttingDown);
            }
            let capacity = state.queue.capacity();
            if state.queue.len() + state.in_flight + specs.len() > capacity {
                return Err(AdmissionError::QueueFull { capacity });
            }
            specs
                .into_iter()
                .map(|spec| {
                    let id = state
                        .queue
                        .submit(spec)
                        .expect("the whole set fits: checked against the capacity above");
                    let (tx, rx) = mpsc::channel();
                    state.senders.insert(id.0, tx);
                    JobHandle { id, rx }
                })
                .collect()
        };
        // Stamp every admission before waking anyone: the traced span of
        // the set's last job must not start late by the wake-ups of the
        // jobs before it.
        for handle in &handles {
            self.trace
                .record(NO_SEQ, TraceEventKind::Admitted { job: handle.id.0 });
        }
        if handles.len() == 1 {
            self.shared.job_ready.notify_one();
        } else {
            self.shared.job_ready.notify_all();
        }
        Ok(handles)
    }

    /// Blocks until the service is quiescent: no job queued and none in
    /// flight. Admission stays open, so jobs submitted by other threads
    /// while draining extend the wait.
    ///
    /// # Panics
    ///
    /// Panics if a pipeline thread has panicked (the service is poisoned):
    /// a dispatched job that can never complete would otherwise block the
    /// drain forever.
    pub fn drain(&self) {
        assert!(
            self.wait_quiescent(),
            "streaming engine poisoned: a pipeline thread panicked"
        );
    }

    /// Blocks until no job is queued and none is in flight; `false` — at
    /// once — if the service is poisoned, whose jobs can never all complete.
    fn wait_quiescent(&self) -> bool {
        let mut state = self.shared.lock();
        loop {
            if state.poisoned {
                return false;
            }
            if state.queue.is_empty() && state.in_flight == 0 {
                return true;
            }
            state = self
                .shared
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A live snapshot: queue depths, lifetime completions, per-shard
    /// command-queue occupancy, and the rolling latency/throughput window.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let state = self.shared.lock();
        ServiceSnapshot {
            pending: state.queue.len(),
            in_flight: state.in_flight,
            completed: state.completed,
            accepting: state.accepting,
            shard_inflight: state.shard_inflight.clone(),
            window: state.window.stats(),
            window_throughput: state.window.throughput(),
            completer_timeouts: state.completer_timeouts,
        }
    }

    /// Graceful shutdown: closes admission, drains every queued and
    /// in-flight job, joins all threads, and reports.
    ///
    /// # Panics
    ///
    /// Panics like [`StreamingEngine::drain`] if the service is poisoned
    /// (the engine's threads are still joined, by its destructor).
    pub fn shutdown(mut self) -> ServiceReport {
        self.shared.lock().accepting = false;
        self.drain();
        self.join_and_report()
    }

    /// Stops and joins every pipeline thread of a drained (or poisoned)
    /// service and assembles the report.
    fn join_and_report(&mut self) -> ServiceReport {
        self.shared.lock().stopping = true;
        self.shared.job_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        // A shard worker that panicked yields no stats.
        let mut shard_stats: Vec<ShardStats> = self
            .shard_handles
            .drain(..)
            .filter_map(|handle| handle.join().ok())
            .collect();
        if let Some(completer) = self.completer.take() {
            let _ = completer.join();
        }
        let state = self.shared.lock();
        for stats in &mut shard_stats {
            stats.set_peak_inflight(state.shard_inflight_peak[stats.shard]);
            stats.set_retries(state.shard_retries[stats.shard]);
            stats.set_failovers(state.shard_failovers[stats.shard]);
        }
        let (stage_breakdown, straggler, trace) = if self.trace.is_enabled() {
            let events = self.trace.events();
            let straggler = StragglerReport::from_events(&events, self.shards.shard_count());
            let trace = TraceLog {
                events,
                dropped: self.trace.dropped(),
            };
            let stage_breakdown = (state.breakdown_count > 0)
                .then(|| state.breakdown_sum.mean_of(state.breakdown_count));
            (stage_breakdown, Some(straggler), Some(trace))
        } else {
            (None, None, None)
        };
        ServiceReport {
            completed: state.completed,
            uptime: self.started_at.elapsed(),
            shard_stats,
            resident_database_bytes: self.shards.resident_bytes(),
            mapped_reads: state.mapped_reads,
            stage_overlap_events: state.stage_overlap_events,
            failed_jobs: state.failed_jobs,
            window: state.window.stats(),
            stage_breakdown,
            straggler,
            trace,
        }
    }
}

impl Drop for StreamingEngine {
    fn drop(&mut self) {
        // Dropping without an explicit shutdown still tears down gracefully
        // (drain, then join), so no thread outlives the engine. A poisoned
        // service — this is also the drop of `self` after `shutdown`'s drain
        // propagated the poison — skips the drain and only joins: its
        // threads exit on the poison flag, and a destructor must not panic.
        if !self.workers.is_empty() || self.dispatcher.is_some() {
            self.shared.lock().accepting = false;
            let _ = self.wait_quiescent();
            let _ = self.join_and_report();
        }
    }
}

/// Poisons the service if its thread unwinds: a dispatched position that
/// will never complete must turn `drain`/`shutdown` into a propagated panic
/// rather than a deadlock. In the same critical section admission closes
/// and every undelivered job's result sender is dropped, so waiting
/// [`JobHandle`]s resolve to `EngineStopped` now, not when the engine is
/// eventually dropped.
struct PanicGuard<'a>(&'a Shared);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            let mut state = self.0.lock();
            state.poisoned = true;
            state.accepting = false;
            state.senders.clear();
            drop(state);
            self.0.job_ready.notify_all();
            self.0.idle.notify_all();
            self.0.queue_space.notify_all();
        }
    }
}

/// One Step 1 worker: live-pops the shared queue, runs Step 1, and hands the
/// prepared sample to the in-SSD dispatcher.
fn step1_worker(
    shared: &Shared,
    analyzer: &MegisAnalyzer,
    s1_tx: &SyncSender<PreparedJob>,
    trace: &TraceSink,
) {
    let _guard = PanicGuard(shared);
    loop {
        // The policy decision and the service-position assignment happen in
        // one critical section, so dispatch order is exactly policy order
        // over the jobs queued at this instant. The lookahead gate refuses
        // to dispatch more than `lookahead` positions ahead of the in-SSD
        // stage, bounding the dispatcher's reorder buffer even when one
        // sample's Step 1 is far slower than the rest.
        let (job, start_position) = {
            let mut state = shared.lock();
            loop {
                if state.poisoned {
                    return;
                }
                if state.next_position < state.isp_served + state.lookahead {
                    if let Some(job) = state.queue.pop_next() {
                        let position = state.next_position;
                        state.next_position += 1;
                        state.in_flight += 1;
                        break (job, position);
                    }
                }
                if state.stopping && state.queue.is_empty() {
                    return;
                }
                // Woken by a submission, by the completer advancing the
                // gate, or by shutdown/poison.
                state = shared
                    .job_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Step1Started binds the job id to its dispatch sequence — the join
        // key the analysis layer uses to attach the admission event.
        trace.record(
            start_position,
            TraceEventKind::Step1Started { job: job.id.0 },
        );
        let started = Instant::now();
        let step1 = analyzer.run_step1(&job.spec.sample);
        trace.record(start_position, TraceEventKind::Step1Finished);
        let prepared = PreparedJob {
            id: job.id,
            label: job.spec.label,
            priority: job.spec.priority,
            start_position,
            sample: Arc::new(job.spec.sample),
            submitted_at: job.submitted_at,
            queue_wait: started.duration_since(job.submitted_at),
            step1_time: started.elapsed(),
            step1,
        };
        // lint:allow(bounded-send, the hand-off channel is bounded by
        // workers + 1 and the dispatcher drains it unconditionally until
        // its receiver closes; a closed receiver (teardown) returns Err
        // here and exits the worker, so this send cannot wedge a shutdown)
        if s1_tx.send(prepared).is_err() {
            return;
        }
    }
}

/// The in-SSD dispatcher: reorders Step 1 completions back into dispatch
/// order, slices each sample's sorted query list into per-shard sub-ranges,
/// and issues tagged commands onto the bounded per-shard queues — every
/// sample the moment it is next in dispatch order.
fn isp_dispatcher(
    shared: &Shared,
    shards: &ShardSet,
    s1_rx: Receiver<PreparedJob>,
    producer: QueueProducer,
    meta_tx: DispatcherTx,
    queue_depth: usize,
    trace: &TraceSink,
) {
    let _guard = PanicGuard(shared);
    // The reorder buffer behind the ordering guarantee: positions are dense
    // (assigned at pop time), so dispatching strictly ascending positions
    // makes in-SSD dispatch order equal policy order no matter how Step 1
    // completions interleave across the worker pool.
    let mut next_to_dispatch = 0usize;
    let mut reorder: BTreeMap<usize, PreparedJob> = BTreeMap::new();
    // Counts actual hand-offs to the in-SSD stage, independently of the
    // positions used for reordering: the stamp recorded as `isp_position`.
    // With the reorder buffer it always equals `start_position`; without it
    // the stamp would record arrival rank, so the ordering regression tests
    // genuinely fail if the buffer is ever bypassed.
    let mut dispatched = 0usize;
    for prepared in s1_rx {
        reorder.insert(prepared.start_position, prepared);
        while let Some(prepared) = reorder.remove(&next_to_dispatch) {
            next_to_dispatch += 1;
            let issued = dispatch_sample(
                shared,
                shards,
                &producer,
                &meta_tx.0,
                prepared,
                dispatched,
                queue_depth,
                trace,
            );
            if !issued {
                return;
            }
            dispatched += 1;
        }
    }
    // On a clean shutdown every dispatched position was issued and the
    // buffer is empty; if a Step 1 worker panicked, its position never
    // arrives and later arrivals stay buffered here — the poison flag, not
    // this loop, reports that failure.
    //
    // Returning drops `meta_tx`, which tells the completer no further job
    // will arrive, and the producer guard, which releases the dispatcher's
    // claim on the shard queues; the completer holds its own guard for Step 3
    // commands and releases it once every pending job's Step 3 is
    // dispatched. Only then do the shard workers exit (reporting their
    // lifetime stats), and the completer ends after the last completion.
}

/// Issues one prepared sample's per-shard intersect commands: its job
/// record first, then one command per shard whose slice of the sample's
/// query list is non-empty, each under one queue-depth slot. Returns
/// `false` if the service is tearing down (poisoned or receivers gone).
#[allow(clippy::too_many_arguments)]
fn dispatch_sample(
    shared: &Shared,
    shards: &ShardSet,
    producer: &QueueProducer,
    meta_tx: &Sender<CompleterMsg>,
    mut prepared: PreparedJob,
    isp_position: usize,
    queue_depth: usize,
    trace: &TraceSink,
) -> bool {
    let isp_start = Instant::now();
    let seq = prepared.start_position;
    // Step 1's arena itself, moved: the commands below share the allocation
    // the worker sorted, and delivery only reads the counters `take_kmers`
    // leaves behind.
    let queries = Arc::new(prepared.step1.take_kmers());
    // Range-partitioned dispatch: each shard sees only the sub-slice of the
    // sorted query list overlapping its key range, so per-device query-side
    // work is proportional to the slice, not the whole list. A shard whose
    // slice is empty — every padding shard, and any populated shard this
    // sample's queries miss entirely — is skipped: an empty slice can only
    // intersect to nothing, and a no-op command would waste a queue slot.
    let targets: Vec<(usize, Range<usize>)> = shards
        .slice_queries(&queries)
        .into_iter()
        .enumerate()
        .filter(|(_, range)| !range.is_empty())
        .collect();
    let meta = IspMeta {
        seq,
        isp_position,
        expected: targets.len(),
        isp_start,
        prepared,
    };
    // Register the job with the completer before any command that could
    // complete for it is built.
    if meta_tx.send(CompleterMsg::Job(meta)).is_err() {
        return false;
    }
    for (shard, range) in targets {
        // NVMe queue-depth gate: at most `queue_depth` commands outstanding
        // per shard (submitted, completion not yet reaped). Blocking here is
        // the backpressure that bounds per-device memory; the completer
        // frees slots as it reaps. (Only the dispatcher ever blocks here —
        // the completer's Step 3 submissions go through a non-blocking
        // backlog, so reaping can always proceed.)
        {
            let mut state = shared.lock();
            loop {
                if state.poisoned {
                    return false;
                }
                if state.shard_inflight[shard] < queue_depth {
                    break;
                }
                state = shared
                    .queue_space
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.occupy(shard, TraceStage::Intersect);
        }
        let command = ShardCommand::Intersect(IntersectCommand {
            shard,
            attempt: 0,
            seq,
            queries: Arc::clone(&queries),
            range,
        });
        // Register the issued command with the completer *before* it can
        // reach a shard queue: the workers' completions travel the same
        // channel, so the registration is received ahead of any of them and
        // every completion finds its command outstanding.
        if meta_tx
            .send(CompleterMsg::Issued {
                shard,
                command: command.clone(),
            })
            .is_err()
        {
            return false;
        }
        trace.record(
            seq,
            TraceEventKind::CommandIssued {
                stage: TraceStage::Intersect,
                shard,
            },
        );
        producer.send(shard, command);
    }
    true
}

/// Deterministic capped exponential backoff for retry attempt `attempt`
/// (0-based): `base × 2^min(attempt, 3)`. A zero base means immediate
/// re-issue — the default, and what keeps the chaos tests fast.
fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    if base.is_zero() {
        Duration::ZERO
    } else {
        base * (1u32 << attempt.min(3))
    }
}

/// Identity of one outstanding command: `(seq, shard-of-record, stage)`.
/// Stable across retries and failover — re-issues keep the key and bump
/// only the attempt counter, so a completion always finds the entry for
/// the command it answers (or finds a newer attempt and is discarded as
/// stale).
type CommandKey = (usize, usize, TraceStage);

/// One issued-but-unreaped command, retained by the completer so it can be
/// re-issued on a transient failure, a dead shard, or a blown deadline.
/// Cheap to keep: commands share their sample/query payloads through
/// `Arc`s.
struct OutstandingCommand {
    command: ShardCommand,
    /// When the current attempt was issued; the command deadline measures
    /// from here.
    issued_at: Instant,
}

/// The in-SSD completer: reaps per-shard completions of *both* stages out
/// of order, keeps a per-job state machine (per-shard Step 2 supports folded
/// as they arrive → presence call → per-read-range Step 3 counts folded as
/// they arrive), submits Step 3 commands onto the same tagged shard queues
/// through a non-blocking depth-bounded backlog, and once a job's ranges are
/// all in — and every earlier sequence number has been delivered —
/// normalizes the counts and delivers the result strictly in dispatch order.
struct IspCompleter<'a> {
    shared: &'a Shared,
    analyzer: &'a Arc<MegisAnalyzer>,
    /// Producer guard on the per-shard command queues; set to `None` once
    /// no further command — Step 3 *or* a retry of either stage — can ever
    /// be issued, releasing the shard workers (and then this completer) to
    /// wind down.
    producer: Option<QueueProducer>,
    /// The shard queues themselves, for failure routing: `is_dead` picks a
    /// live target for re-issues away from a dead shard.
    queues: Arc<CommandQueues>,
    shard_count: usize,
    queue_depth: usize,
    pending: BTreeMap<usize, MergeState>,
    /// `(shard, command)` Step 3 submissions awaiting a free queue slot, in
    /// issue order. The completer drains it opportunistically instead of
    /// blocking on the depth gate: reaping is the only thing that frees
    /// slots, so the thread that reaps must never wait for one.
    backlog: VecDeque<(usize, ShardCommand)>,
    /// Every issued command awaiting its final completion — the retry and
    /// failover ledger. A command's queue-depth slot is held from its
    /// *first* issue to its final resolution, so re-issues never re-gate
    /// (see the failure model in the module docs).
    outstanding: HashMap<CommandKey, OutstandingCommand>,
    /// Commands waiting out a retry backoff: `(due, key)` pairs, fired by
    /// `fire_due_retries` once due.
    retry_due: Vec<(Instant, CommandKey)>,
    retry_budget: u32,
    retry_backoff: Duration,
    command_deadline: Option<Duration>,
    next_to_deliver: usize,
    /// `false` once the dispatcher exited (no further jobs will ever
    /// arrive).
    meta_open: bool,
    trace: TraceSink,
}

impl IspCompleter<'_> {
    fn run(mut self, events: Receiver<CompleterMsg>) {
        let _guard = PanicGuard(self.shared);
        loop {
            self.advance_ready_jobs();
            self.submit_backlog();
            self.fire_due_retries();
            self.expire_stuck_commands();
            self.deliver_ready();
            self.maybe_release_txs();
            // A poisoned service's dispatcher may have exited between
            // registering a job and issuing its commands. Such a job can
            // never complete, and no result can be delivered any more (the
            // poison dropped every sender), so the completer lets go rather
            // than wait for it: dropping its producer releases the shard
            // workers, and teardown's joins return.
            if !self.meta_open && self.shared.lock().poisoned {
                return;
            }
            // Everything that can give the completer work arrives as an
            // event, so with nothing outstanding it simply blocks. A
            // panicked shard worker can never respond (its siblings keep
            // the channel open), so while commands are outstanding the wait
            // is a poll of the poison flag: the completer then panics —
            // poisoning teardown cleanly — instead of blocking forever.
            let event = match self.poll_timeout() {
                Some(timeout) => events.recv_timeout(timeout),
                None => events.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match event {
                Ok(msg) => {
                    self.handle(msg);
                    // Whatever else is already queued rides the same round
                    // of bookkeeping.
                    while let Ok(msg) = events.try_recv() {
                        self.handle(msg);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let poisoned = {
                        let mut state = self.shared.lock();
                        state.completer_timeouts += 1;
                        state.poisoned
                    };
                    if self.pending.values().any(|j| !j.is_complete()) {
                        assert!(
                            !poisoned,
                            "shard worker panicked while commands were outstanding"
                        );
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // The dispatcher and every shard worker exited, which
                    // implies both the dispatcher and this completer
                    // released their queue producers: every *servable*
                    // command was served and every event has been consumed
                    // above. Jobs still incomplete here lost their last live
                    // shard — every worker died before their commands could
                    // be re-issued — so they fail rather than hang.
                    self.advance_ready_jobs();
                    let stuck: Vec<usize> = self
                        .pending
                        .iter()
                        .filter(|(_, job)| !job.is_complete())
                        .map(|(seq, _)| *seq)
                        .collect();
                    for seq in stuck {
                        self.fail_job(seq, |job| JobError::NoLiveShards { job });
                    }
                    self.deliver_ready();
                    return;
                }
            }
        }
    }

    /// How long to wait for the next event: without limit (`None`) while no
    /// command is outstanding and no retry is waiting (only an event can
    /// create work then), short while a retry is waiting out its backoff or
    /// a deadline is armed over outstanding commands, relaxed otherwise.
    fn poll_timeout(&self) -> Option<Duration> {
        if !self.retry_due.is_empty() {
            Some(Duration::from_millis(1))
        } else if self.outstanding.is_empty() {
            None
        } else if self.command_deadline.is_some() {
            Some(Duration::from_millis(5))
        } else {
            Some(Duration::from_millis(50))
        }
    }

    /// Books one event: a new job's meta, an issued command's registration
    /// (the dispatcher sends it *before* the command reaches a shard queue,
    /// and Step 3 issues register on this thread, so every completion's
    /// command is in `outstanding` by the time it is reaped), a completion,
    /// or the end of the job stream.
    fn handle(&mut self, msg: CompleterMsg) {
        match msg {
            CompleterMsg::Job(meta) => {
                self.pending
                    .insert(meta.seq, MergeState::new(meta, self.shard_count));
            }
            CompleterMsg::Issued { shard, command } => {
                self.outstanding.insert(
                    (command.seq(), shard, command.stage()),
                    OutstandingCommand {
                        command,
                        issued_at: Instant::now(),
                    },
                );
            }
            CompleterMsg::Completed(completion) => self.reap(completion),
            CompleterMsg::DispatcherExited => self.meta_open = false,
        }
    }

    /// Books one reaped completion into its job's state machine and frees
    /// the command's queue slot — or, for a failed attempt, retries, fails
    /// over, or fails the owning job. Completions whose command is no
    /// longer outstanding (the job already failed) or whose attempt counter
    /// is stale (the command was already re-issued after a blown deadline)
    /// are discarded entirely: their slot was already freed exactly once.
    fn reap(&mut self, completion: ShardCompletion) {
        let key: CommandKey = (completion.seq, completion.shard, completion.stage);
        let Some(entry) = self.outstanding.get(&key) else {
            return;
        };
        if entry.command.attempt() != completion.attempt {
            return;
        }
        if let Err(failure) = completion.result.as_ref() {
            self.handle_failure(key, *failure);
            return;
        }
        let output = completion.result.expect("failure handled above");
        self.outstanding.remove(&key);
        self.shared
            .lock()
            .release(completion.shard, completion.stage);
        // Reaping freed a slot in the shard's command queue.
        self.shared.queue_space.notify_all();
        // An outstanding command's job is pending and unfailed: failing a
        // job retires its commands from the ledger.
        let job = self
            .pending
            .get_mut(&completion.seq)
            .expect("completion for a dispatched job");
        match output {
            CommandOutput::Intersection(support) => job.fold_step2(completion.shard, support),
            CommandOutput::Step3(counts) => job.fold_step3(completion.shard, counts),
        }
    }

    /// One command attempt failed: schedule a retry within the budget, or
    /// fail the owning job (panics are non-recoverable by design — the
    /// worker state after a caught panic is not trusted for a replay).
    fn handle_failure(&mut self, key: CommandKey, failure: CommandFailure) {
        let (seq, shard, stage) = key;
        let Some(entry) = self.outstanding.get(&key) else {
            return;
        };
        let attempt = entry.command.attempt();
        if failure == CommandFailure::Panicked {
            self.fail_job(seq, |job| JobError::WorkerPanicked { job, shard });
        } else if attempt >= self.retry_budget {
            self.fail_job(seq, |job| JobError::RetriesExhausted {
                job,
                stage: stage.label(),
                shard,
                attempts: attempt + 1,
            });
        } else {
            let delay = backoff_delay(self.retry_backoff, attempt);
            if delay.is_zero() {
                self.reissue(key);
            } else {
                self.retry_due.push((Instant::now() + delay, key));
            }
        }
    }

    /// Re-issues one outstanding command with a bumped attempt counter,
    /// routed to its record shard if alive and failed over to the next live
    /// shard otherwise (every worker holds the whole `ShardSet`, so any
    /// survivor serves the command identically).
    fn reissue(&mut self, key: CommandKey) {
        let (seq, shard, stage) = key;
        if !self.outstanding.contains_key(&key) {
            return;
        }
        let Some(target) = self.pick_target(shard) else {
            self.fail_job(seq, |job| JobError::NoLiveShards { job });
            return;
        };
        let entry = self.outstanding.get_mut(&key).expect("checked above");
        entry.command.bump_attempt();
        entry.issued_at = Instant::now();
        let attempt = entry.command.attempt();
        let command = entry.command.clone();
        {
            let mut state = self.shared.lock();
            state.shard_retries[shard] += 1;
            if target != shard {
                state.shard_failovers[shard] += 1;
            }
        }
        self.trace.record(
            seq,
            TraceEventKind::Retry {
                stage,
                shard,
                attempt,
            },
        );
        if target != shard {
            self.trace.record(
                seq,
                TraceEventKind::Failover {
                    stage,
                    from: shard,
                    to: target,
                },
            );
        }
        self.trace.record(
            seq,
            TraceEventKind::CommandIssued {
                stage,
                shard: target,
            },
        );
        if let Some(producer) = &self.producer {
            producer.send(target, command);
        }
    }

    /// The shard a re-issue should go to: the record shard while it lives,
    /// else the nearest live shard by index; `None` when every shard died.
    fn pick_target(&self, record: usize) -> Option<usize> {
        if !self.queues.is_dead(record) {
            return Some(record);
        }
        (1..self.shard_count)
            .map(|offset| (record + offset) % self.shard_count)
            .find(|&shard| !self.queues.is_dead(shard))
    }

    /// Re-issues every backoff-delayed retry whose due time has passed.
    fn fire_due_retries(&mut self) {
        if self.retry_due.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        self.retry_due.retain(|&(at, key)| {
            if at <= now {
                due.push(key);
                false
            } else {
                true
            }
        });
        for key in due {
            self.reissue(key);
        }
    }

    /// Treats any outstanding command older than the configured deadline as
    /// a transient failure — the guard against a stuck device. Commands
    /// already waiting out a retry backoff are exempt (their entry is aging
    /// by design); if the stuck attempt completes later anyway, its stale
    /// attempt counter gets it discarded.
    fn expire_stuck_commands(&mut self) {
        let Some(deadline) = self.command_deadline else {
            return;
        };
        let expired: Vec<CommandKey> = self
            .outstanding
            .iter()
            .filter(|(key, entry)| {
                entry.issued_at.elapsed() > deadline
                    && !self.retry_due.iter().any(|(_, k)| k == *key)
            })
            .map(|(key, _)| *key)
            .collect();
        for key in expired {
            self.handle_failure(key, CommandFailure::Transient);
        }
    }

    /// Marks job `seq` failed in place — the first error sticks, and
    /// `deliver_ready` surfaces it at the job's turn in dispatch order — and
    /// retires every command of the job still ledgered, backlogged or
    /// waiting out a backoff: ledgered ones free their queue-depth slots
    /// exactly once, and a late completion of one finds nothing to settle.
    fn fail_job(&mut self, seq: usize, error: impl FnOnce(JobId) -> JobError) {
        let Some(job) = self.pending.get_mut(&seq) else {
            return;
        };
        if job.failed.is_none() {
            job.failed = Some(error(job.meta.prepared.id));
        }
        let keys: Vec<CommandKey> = self
            .outstanding
            .keys()
            .filter(|key| key.0 == seq)
            .copied()
            .collect();
        if !keys.is_empty() {
            let mut state = self.shared.lock();
            for (_, shard, stage) in keys {
                self.outstanding.remove(&(seq, shard, stage));
                state.release(shard, stage);
            }
            drop(state);
            self.shared.queue_space.notify_all();
        }
        self.backlog.retain(|(_, command)| command.seq() != seq);
        self.retry_due.retain(|(_, key)| key.0 != seq);
    }

    /// Calls presence and hands Step 3 to the backlog for every job whose
    /// shards have all reported — including jobs that never had an
    /// intersect command (empty query lists).
    fn advance_ready_jobs(&mut self) {
        let ready: Vec<usize> = self
            .pending
            .iter()
            .filter(|(_, job)| job.remaining == 0 && !job.step3_dispatched && job.failed.is_none())
            .map(|(seq, _)| *seq)
            .collect();
        for seq in ready {
            self.start_step3(seq);
        }
    }

    /// Finishes one job's Step 2 — the devices already intersected and
    /// retrieved, and their supports were summed at reap time, so only the
    /// presence call over the sum is left — then cuts the sample's reads
    /// into contiguous ranges and issues one Step 3 command per range onto
    /// the submission backlog, all sharing the job's candidate list and
    /// index slot.
    fn start_step3(&mut self, seq: usize) {
        let shard_count = self.shard_count;
        let job = self.pending.get_mut(&seq).expect("ready job is pending");
        let presence = self.analyzer.call_presence(&job.step2);
        let candidates = Arc::new(self.analyzer.candidate_positions(&presence));
        job.presence = Some(presence);
        job.step3_dispatched = true;
        let sample = Arc::clone(&job.meta.prepared.sample);
        let reads = sample.len();
        // A job with no candidates (or no reads) maps nothing: no command,
        // complete immediately, default abundance.
        let parts = if candidates.is_empty() {
            0
        } else {
            shard_count.min(reads.div_ceil(MIN_READS_PER_COMMAND))
        };
        let index = Arc::new(OnceLock::new());
        job.step3_remaining = parts;
        let ranges = step3::read_ranges(reads, parts).enumerate();
        self.backlog.extend(ranges.map(|(part, reads)| {
            // One range per shard-of-record, so `(seq, shard, Step3)` still
            // names the command in the ledger and the fold.
            let shard = (seq + part) % shard_count;
            let command = ShardCommand::Step3(Step3Command {
                seq,
                record_shard: shard,
                attempt: 0,
                sample: Arc::clone(&sample),
                candidates: Arc::clone(&candidates),
                index: Arc::clone(&index),
                reads,
            });
            (shard, command)
        }));
    }

    /// Submits backlogged Step 3 commands to every shard with a free queue
    /// slot — the same `(sequence, shard)` tagging and depth bound as the
    /// dispatcher's intersect path, but never blocking: commands left over
    /// take slots as future reaps free them.
    fn submit_backlog(&mut self) {
        if self.backlog.is_empty() {
            return;
        }
        let Some(producer) = &self.producer else {
            return;
        };
        let mut to_send = Vec::new();
        {
            let mut state = self.shared.lock();
            let mut kept = VecDeque::with_capacity(self.backlog.len());
            for (shard, command) in self.backlog.drain(..) {
                if state.shard_inflight[shard] < self.queue_depth {
                    state.occupy(shard, TraceStage::Step3);
                    to_send.push((shard, command));
                } else {
                    kept.push_back((shard, command));
                }
            }
            self.backlog = kept;
        }
        for (shard, command) in to_send {
            self.trace.record(
                command.seq(),
                TraceEventKind::CommandIssued {
                    stage: TraceStage::Step3,
                    shard,
                },
            );
            // Register before the send — same thread as the reap loop, so
            // the completion cannot be observed before this insert.
            self.outstanding.insert(
                (command.seq(), shard, TraceStage::Step3),
                OutstandingCommand {
                    command: command.clone(),
                    issued_at: Instant::now(),
                },
            );
            producer.send(shard, command);
        }
    }

    /// Drops the completer's producer guard once no further Step 3 command
    /// can ever be issued: the dispatcher has exited (so no new jobs), every
    /// pending job's Step 3 is dispatched, and the backlog is drained. The
    /// shard workers then wind down as their queues empty, which closes the
    /// completion channel and ends the completer — the hand-over that
    /// breaks the shutdown cycle between workers waiting for producers and
    /// the completer waiting for completions.
    fn maybe_release_txs(&mut self) {
        if self.producer.is_some()
            && !self.meta_open
            && self.backlog.is_empty()
            && self.pending.is_empty()
        {
            self.producer = None;
        }
    }

    /// Delivers every fully reduced job at the head of the sequence:
    /// completions are collected out of order, but results leave in
    /// dispatch order.
    fn deliver_ready(&mut self) {
        loop {
            match self.pending.get(&self.next_to_deliver) {
                Some(job) if job.is_complete() => {}
                _ => return,
            }
            let job = self
                .pending
                .remove(&self.next_to_deliver)
                .expect("checked above");
            self.next_to_deliver += 1;
            self.finalize(job);
        }
    }

    /// Finishes one job's Step 3 — the ranges' counts were already folded at
    /// reap time, so only their normalization into an abundance profile
    /// runs here — and delivers the result. A failed job delivers its error
    /// instead.
    fn finalize(&self, job: MergeState) {
        if let Some(error) = job.failed.clone() {
            self.finalize_failed(job.meta, error);
            return;
        }
        let MergeState {
            meta,
            step2,
            presence,
            step3,
            ..
        } = job;
        let seq = meta.prepared.start_position;
        self.trace.record(seq, TraceEventKind::ReduceStarted);
        // The devices shared the unified index and never hand it back.
        let step3 = step3.into_output(UnifiedReferenceIndex::default());
        let output = MegisOutput {
            presence: presence.expect("complete job called presence"),
            abundance: step3.abundance,
            intersecting_kmers: step2.hits,
            selected_kmers: meta.prepared.step1.selected_kmers,
            mapped_reads: step3.mapped_reads,
        };
        self.trace.record(seq, TraceEventKind::ReduceFinished);
        // Reconstruct the job's stage timeline from its own events, stamped
        // with the same instant the Delivered event gets, so the breakdown's
        // telescoping total spans exactly admission→delivery.
        let job_id = meta.prepared.id.0;
        let breakdown = if self.trace.is_enabled() {
            let delivered_at = self.trace.now();
            let events = self.trace.events_for(seq, job_id);
            self.trace
                .record_at(delivered_at, seq, TraceEventKind::Delivered { job: job_id });
            StageBreakdown::from_events(&events, delivered_at)
        } else {
            None
        };
        let result = JobResult {
            id: meta.prepared.id,
            label: meta.prepared.label,
            priority: meta.prepared.priority,
            start_position: meta.prepared.start_position,
            isp_position: meta.isp_position,
            output,
            queue_wait: meta.prepared.queue_wait,
            step1_time: meta.prepared.step1_time,
            isp_time: meta.isp_start.elapsed(),
            latency: meta.prepared.submitted_at.elapsed(),
            breakdown,
        };
        // Deliver before signaling idle, all under the lock: a drain()
        // returning quiescent must imply every result has already reached
        // its handle.
        let mut state = self.shared.lock();
        if let Some(breakdown) = &result.breakdown {
            state.breakdown_sum.accumulate(breakdown);
            state.breakdown_count += 1;
        }
        state.window.record(result.latency);
        state.completed += 1;
        state.in_flight -= 1;
        state.isp_served += 1;
        state.mapped_reads += result.output.mapped_reads;
        if let Some(tx) = state.senders.remove(&result.id.0) {
            // lint:allow(guard-across-blocking, std mpsc Sender::send never
            // blocks on an unbounded channel, and delivery must happen under
            // the lock so a quiescent drain implies every result has already
            // reached its handle)
            let _ = tx.send(Ok(result));
        }
        drop(state);
        self.shared.idle.notify_all();
        // Advancing isp_served reopens the dispatch lookahead gate.
        self.shared.job_ready.notify_all();
    }

    /// Delivers one failed job's error in dispatch order. The failure is
    /// isolated: the job's slot leaves `in_flight` and — critically — its
    /// sequence still advances `isp_served`, so the dispatch lookahead gate
    /// keeps opening for the jobs behind it. The rolling latency window and
    /// the completion counter record only successes.
    fn finalize_failed(&self, meta: IspMeta, error: JobError) {
        let seq = meta.prepared.start_position;
        let job_id = meta.prepared.id.0;
        self.trace
            .record(seq, TraceEventKind::Delivered { job: job_id });
        let mut state = self.shared.lock();
        state.failed_jobs += 1;
        state.in_flight -= 1;
        state.isp_served += 1;
        if let Some(tx) = state.senders.remove(&job_id) {
            // lint:allow(guard-across-blocking, std mpsc Sender::send never
            // blocks on an unbounded channel, and the error is delivered
            // under the lock for the same drain-implies-delivered guarantee
            // successful results get)
            let _ = tx.send(Err(error));
        }
        drop(state);
        self.shared.idle.notify_all();
        // Advancing isp_served reopens the dispatch lookahead gate.
        self.shared.job_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::queue::SchedPolicy;
    use megis::config::MegisConfig;
    use megis_genomics::sample::{CommunityConfig, Diversity};

    fn community() -> megis_genomics::sample::Community {
        CommunityConfig::preset(Diversity::Medium)
            .with_reads(100)
            .with_database_species(10)
            .build(23)
    }

    fn analyzer(c: &megis_genomics::sample::Community) -> MegisAnalyzer {
        MegisAnalyzer::build(c.references(), MegisConfig::small())
    }

    /// A plan that makes every command dwell on its device for `duration`
    /// before it is served: the one way to hold commands in flight long
    /// enough for a test to observe an interleaving. A spike is not a
    /// fault — no counter moves and no `Fault` event is emitted.
    fn dwell(duration: Duration) -> FaultPlan {
        FaultPlan::seeded(1).with_latency_spike(1.0, duration)
    }

    #[test]
    fn results_are_delivered_incrementally() {
        let c = community();
        let a = analyzer(&c);
        let expected = a.analyze(c.sample());
        let engine = StreamingEngine::new(a, EngineConfig::new().with_workers(2).with_shards(2));
        for i in 0..3 {
            let handle = engine
                .submit(JobSpec::new(format!("s{i}"), c.sample().clone()))
                .unwrap();
            // Each result arrives without any drain or batch boundary.
            let result = handle.wait().expect("job served while engine runs");
            assert_eq!(result.output, expected);
            assert_eq!(result.isp_position, result.start_position);
        }
        let snap = engine.snapshot();
        assert_eq!(snap.completed, 3);
        assert!(snap.accepting);
        assert_eq!(snap.window.count, 3);
        assert_eq!(snap.shard_inflight, vec![0, 0], "quiescent queues");
        let report = engine.shutdown();
        assert_eq!(report.completed, 3);
        assert_eq!(report.shard_stats.len(), 2);
        for s in &report.shard_stats {
            assert_eq!(s.jobs, 3);
        }
    }

    #[test]
    fn the_dispatcher_shares_step1s_arena_instead_of_copying_it() {
        let c = community();
        let a = analyzer(&c);
        let config = EngineConfig::new().with_workers(1).with_shards(2);
        let shards = ShardSet::build(a.database(), config.shards);
        let step1 = a.run_step1(c.sample());
        let (arena, queries) = (step1.kmers().as_ptr(), step1.sorted_kmers());
        let prepared = PreparedJob {
            id: JobId(0),
            label: "s0".into(),
            priority: Priority::default(),
            start_position: 0,
            sample: Arc::new(c.sample().clone()),
            submitted_at: Instant::now(),
            queue_wait: Duration::ZERO,
            step1_time: Duration::ZERO,
            step1,
        };
        // Workerless queues: the issued commands stay where the test can
        // read them off the dispatcher → completer channel.
        let producer = CommandQueues::new(config.shards).producer();
        let (meta_tx, meta_rx) = mpsc::channel();
        assert!(dispatch_sample(
            &Shared::new(&config, config.shards),
            &shards,
            &producer,
            &meta_tx,
            prepared,
            0,
            config.queue_depth,
            &TraceSink::disabled(),
        ));
        drop(meta_tx);
        let mut issued = 0;
        for msg in meta_rx {
            match msg {
                CompleterMsg::Job(meta) => {
                    assert_eq!(meta.prepared.step1.selected_kmers, queries.len() as u64)
                }
                CompleterMsg::Issued { command, .. } => {
                    let ShardCommand::Intersect(command) = command else {
                        panic!("the dispatcher issues intersect commands only");
                    };
                    assert_eq!(command.queries.as_ptr(), arena, "moved, not copied");
                    assert_eq!(*command.queries, queries);
                    assert_eq!(command.seq, 0);
                    issued += 1;
                }
                CompleterMsg::Completed(_) | CompleterMsg::DispatcherExited => {
                    panic!("issuing a sample sends job and command records only")
                }
            }
        }
        assert_eq!(issued, config.shards, "both shards hold genome k-mers");

        // And the job delivered through the same path is unchanged.
        let expected = a.analyze(c.sample());
        let engine = StreamingEngine::new(a, config);
        let handle = engine.submit(JobSpec::new("s0", c.sample().clone()));
        assert_eq!(handle.unwrap().wait().unwrap().output, expected);
    }

    #[test]
    fn drain_waits_for_quiescence() {
        let c = community();
        let engine = StreamingEngine::new(
            analyzer(&c),
            EngineConfig::new().with_workers(2).with_shards(2),
        );
        let handles: Vec<JobHandle> = (0..6)
            .map(|i| {
                engine
                    .submit(JobSpec::new(format!("s{i}"), c.sample().clone()))
                    .unwrap()
            })
            .collect();
        engine.drain();
        // After a drain every result must already be deliverable without
        // blocking.
        for handle in handles {
            assert!(handle.try_wait().is_some(), "drain implies delivery");
        }
        let snap = engine.snapshot();
        assert_eq!(snap.pending, 0);
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.completed, 6);
    }

    #[test]
    fn admission_rejects_when_full_then_recovers() {
        let c = community();
        // One worker and a tiny queue: fill it faster than it drains.
        let engine = StreamingEngine::new(
            analyzer(&c),
            EngineConfig::new().with_workers(1).with_queue_capacity(1),
        );
        let mut rejected = false;
        let mut handles = Vec::new();
        for i in 0..64 {
            match engine.submit(JobSpec::new(format!("s{i}"), c.sample().clone())) {
                Ok(h) => handles.push(h),
                Err(AdmissionError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        assert!(rejected, "a 1-deep queue must reject a fast submitter");
        engine.drain();
        // Rejection is transient: capacity frees up as jobs complete.
        let handle = engine
            .submit(JobSpec::new("late", c.sample().clone()))
            .unwrap();
        assert!(handle.wait().is_ok());
        for handle in handles {
            assert!(handle.wait().is_ok(), "admitted jobs all complete");
        }
    }

    #[test]
    fn admission_bound_counts_in_flight_work() {
        // Regression (satellite): `JobQueue::submit` alone rejects only on
        // *queued* >= capacity, so a drained-but-busy service used to admit
        // past its documented bound. The service-level check must count
        // in-flight work: with capacity 1, a job that has been popped (queue
        // empty) but not delivered still occupies the only slot.
        let c = community();
        let engine = StreamingEngine::new(
            analyzer(&c),
            EngineConfig::new()
                .with_workers(1)
                .with_queue_capacity(1)
                // Dwelling commands keep the job in flight long enough to
                // observe the drained-but-busy window.
                .with_fault_plan(dwell(Duration::from_millis(25))),
        );
        let first = engine
            .submit(JobSpec::new("first", c.sample().clone()))
            .unwrap();
        // Wait for the worker to pop the job: the queue is empty, the
        // service is busy.
        let mut observed_busy = false;
        for _ in 0..2000 {
            let snap = engine.snapshot();
            if snap.completed == 1 {
                break;
            }
            if snap.pending == 0 && snap.in_flight == 1 {
                observed_busy = true;
                assert_eq!(
                    engine
                        .submit(JobSpec::new("second", c.sample().clone()))
                        .unwrap_err(),
                    AdmissionError::QueueFull { capacity: 1 },
                    "a drained-but-busy service must not admit past capacity"
                );
                break;
            }
            thread::sleep(Duration::from_micros(100));
        }
        assert!(observed_busy, "never observed the drained-but-busy window");
        assert!(first.wait().is_ok());
        // The slot frees once the result is delivered.
        let late = engine
            .submit(JobSpec::new("late", c.sample().clone()))
            .unwrap();
        assert!(late.wait().is_ok());
    }

    #[test]
    fn in_flight_never_exceeds_the_dispatch_lookahead() {
        // The lookahead gate bounds dispatched-but-unserved positions (and
        // with them the reorder buffer) at 2 * workers + 2, keeping peak
        // prepared-sample memory O(workers) instead of O(backlog).
        let c = community();
        let engine = StreamingEngine::new(
            analyzer(&c),
            EngineConfig::new().with_workers(2).with_shards(2),
        );
        let handles: Vec<JobHandle> = (0..24)
            .map(|i| {
                engine
                    .submit(JobSpec::new(format!("s{i}"), c.sample().clone()))
                    .unwrap()
            })
            .collect();
        let bound = 2 * 2 + 2;
        loop {
            let snap = engine.snapshot();
            assert!(
                snap.in_flight <= bound,
                "{} jobs in flight exceeds the lookahead bound {bound}",
                snap.in_flight
            );
            if snap.completed == 24 {
                break;
            }
            thread::sleep(Duration::from_micros(200));
        }
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn shard_inflight_respects_the_configured_queue_depth() {
        let c = community();
        let depth = 2;
        let engine = StreamingEngine::new(
            analyzer(&c),
            EngineConfig::new()
                .with_workers(2)
                .with_shards(2)
                .with_queue_depth(depth)
                // Dwelling commands so the dispatcher actually hits the
                // gate.
                .with_fault_plan(dwell(Duration::from_millis(2))),
        );
        let handles: Vec<JobHandle> = (0..12)
            .map(|i| {
                engine
                    .submit(JobSpec::new(format!("s{i}"), c.sample().clone()))
                    .unwrap()
            })
            .collect();
        loop {
            let snap = engine.snapshot();
            for (shard, inflight) in snap.shard_inflight.iter().enumerate() {
                assert!(
                    *inflight <= depth,
                    "shard {shard} holds {inflight} commands, depth bound is {depth}"
                );
            }
            if snap.completed == 12 {
                break;
            }
            thread::sleep(Duration::from_micros(200));
        }
        let report = engine.shutdown();
        for stats in &report.shard_stats {
            assert!(stats.peak_inflight <= depth);
            assert!(stats.peak_inflight >= 1, "some command was outstanding");
        }
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn step3_flows_through_the_shard_queues_and_overlaps_step2() {
        // Sharded Step 3: every sample with candidates must have its
        // unified-index generation and read mapping served as per-device
        // commands (not a coordinator call), every read mapped on exactly
        // one device, results byte-identical to the sequential analyzer —
        // and with commands dwelling on their devices, some sample's Step 3
        // command must be submitted while another sample's intersect
        // command is outstanding (the per-stage pipeline overlap).
        let reads = 2 * MIN_READS_PER_COMMAND as u64 + 44;
        let c = CommunityConfig::preset(Diversity::Medium)
            .with_reads(reads as usize)
            .with_database_species(10)
            .build(23);
        let a = analyzer(&c);
        let expected = a.analyze(c.sample());
        assert!(expected.mapped_reads > 0, "fixture must exercise mapping");
        assert!(!expected.presence.is_empty(), "fixture needs candidates");
        let engine = StreamingEngine::new(
            a,
            EngineConfig::new()
                .with_workers(2)
                .with_shards(2)
                .with_queue_depth(4)
                .with_fault_plan(dwell(Duration::from_millis(1))),
        );
        let jobs = 6u64;
        let handles: Vec<JobHandle> = (0..jobs)
            .map(|i| {
                engine
                    .submit(JobSpec::new(format!("s{i}"), c.sample().clone()))
                    .unwrap()
            })
            .collect();
        for handle in handles {
            let result = handle.wait().expect("job served");
            assert_eq!(result.output, expected);
        }
        let report = engine.shutdown();
        assert_eq!(report.mapped_reads, jobs * expected.mapped_reads);
        let step3_jobs: u64 = report.shard_stats.iter().map(|s| s.step3_jobs).sum();
        let step3_items: u64 = report.shard_stats.iter().map(|s| s.step3_items).sum();
        assert_eq!(
            step3_jobs,
            jobs * 2,
            "enough reads for both devices: one read range each per job"
        );
        assert_eq!(
            step3_items,
            jobs * reads,
            "each read must be mapped on exactly one device per job"
        );
        for stats in &report.shard_stats {
            assert!(
                stats.step3_jobs == jobs,
                "shard {} served {} of {jobs} step-3 commands",
                stats.shard,
                stats.step3_jobs
            );
        }
        assert!(
            report.stage_overlap_events > 0,
            "step 3 of one sample must overlap step 2 of another"
        );
        let summary = report.summary();
        assert!(summary.contains("reads mapped"));
        assert!(summary.contains("stage overlap events"));
    }

    #[test]
    fn a_job_without_candidates_issues_no_step3_command() {
        // Reads from another seed's references intersect nothing: Step 2
        // reports no candidate, so there is nothing to merge or map against.
        let c = community();
        let foreign = CommunityConfig::preset(Diversity::Medium)
            .with_reads(2 * MIN_READS_PER_COMMAND)
            .with_database_species(10)
            .build(4242);
        let a = analyzer(&c);
        let expected = a.analyze(foreign.sample());
        assert!(
            expected.presence.is_empty(),
            "fixture must miss the database"
        );
        let engine = StreamingEngine::new(a, EngineConfig::new().with_workers(1).with_shards(2));
        let handle = engine
            .submit(JobSpec::new("foreign", foreign.sample().clone()))
            .unwrap();
        let output = handle.wait().expect("job served").output;
        assert_eq!(output, expected);
        assert!(output.abundance.is_empty() && output.mapped_reads == 0);
        let report = engine.shutdown();
        for stats in &report.shard_stats {
            assert_eq!((stats.step3_jobs, stats.step3_items), (0, 0));
        }
    }

    /// A job on two shards with both stages' completions outstanding.
    fn two_shard_job(c: &megis_genomics::sample::Community) -> MergeState {
        let meta = IspMeta {
            seq: 0,
            isp_position: 0,
            expected: 2,
            isp_start: Instant::now(),
            prepared: PreparedJob {
                id: JobId(0),
                label: "s0".into(),
                priority: Priority::default(),
                start_position: 0,
                sample: Arc::new(c.sample().clone()),
                submitted_at: Instant::now(),
                queue_wait: Duration::ZERO,
                step1_time: Duration::ZERO,
                step1: Step1Output::default(),
            },
        };
        MergeState::new(meta, 2)
    }

    #[test]
    #[should_panic(expected = "shard-of-record 1 folded twice")]
    fn a_step3_range_folded_twice_panics() {
        // Counts add, so a range folded twice would silently double its
        // reads: the per-job fold refuses. (The ledger discards duplicate
        // and stale completions before they get here; this is the backstop.)
        let mut job = two_shard_job(&community());
        job.step3_remaining = 2;
        job.fold_step3(1, step3::MappedCounts::default());
        assert_eq!(job.step3_remaining, 1);
        job.fold_step3(1, step3::MappedCounts::default());
    }

    #[test]
    #[should_panic(expected = "step 2 support of shard 1 folded twice")]
    fn a_step2_support_folded_twice_panics() {
        // Supports add too: the same backstop, per `(seq, shard)`.
        let mut job = two_shard_job(&community());
        let support = || Support {
            hits: 3,
            counts: vec![1, 0, 2],
        };
        job.fold_step2(1, support());
        assert_eq!((job.remaining, job.step2.hits), (1, 3));
        job.fold_step2(0, support());
        assert_eq!((job.remaining, job.step2.hits), (0, 6));
        assert_eq!(job.step2.counts, vec![2, 0, 4]);
        job.fold_step2(1, support());
    }

    #[test]
    fn a_sample_without_commands_is_delivered_by_its_own_event() {
        // Regression: a sample that issues no intersect command — Step 1
        // selected nothing — reaches the completer as a bare job record.
        // That record used to sit on a channel the completer was not
        // waiting on, until its 50 ms completion poll ran out; now every
        // record is an event on the one channel it blocks on. Counted, not
        // timed: delivery on an idle engine must not consume a poll timeout.
        let c = community();
        let a = analyzer(&c);
        let empty = Sample::from_reads(megis_genomics::read::ReadSet::new());
        let expected = a.analyze(&empty);
        assert_eq!(expected.selected_kmers, 0, "nothing to intersect");
        let engine = StreamingEngine::new(a, EngineConfig::new().with_workers(1).with_shards(2));
        let before = engine.snapshot().completer_timeouts;
        let handle = engine.submit(JobSpec::new("empty", empty)).unwrap();
        let result = handle.wait().expect("job served");
        assert_eq!(result.output, expected);
        assert_eq!(
            engine.snapshot().completer_timeouts,
            before,
            "the job record itself must wake the completer"
        );
        let report = engine.shutdown();
        let commands: u64 = report
            .shard_stats
            .iter()
            .map(|s| s.jobs + s.step3_jobs)
            .sum();
        assert_eq!(commands, 0, "an empty sample commands no device");
    }

    #[test]
    fn an_array_wider_than_the_read_ranges_maps_every_read_once() {
        use megis_genomics::dna::{Base, PackedSequence};
        use megis_genomics::read::{Read, ReadSet};
        use megis_genomics::reference::{ReferenceCollection, ReferenceGenome};
        use megis_genomics::taxonomy::{TaxId, Taxonomy};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Skewed candidate sizes (one giant genome next to three small
        // ones) do not skew Step 3 — every read range maps against all
        // four — and the array is wider than the sample's read ranges: its
        // reads fill two commands, so per sample two of the eight devices
        // serve a Step 3 command on top of their intersect while six serve
        // the intersect alone. Every command stays on the queue it was
        // issued to.
        let mut rng = StdRng::seed_from_u64(97);
        let lengths = [6000usize, 400, 400, 400];
        let taxonomy = Taxonomy::synthetic(1, lengths.len());
        let mut genomes = Vec::new();
        let mut reads = ReadSet::new();
        for (s, &len) in lengths.iter().enumerate() {
            let taxid = TaxId(1000 + s as u32 + 1);
            let mut seq = PackedSequence::with_capacity(len);
            for _ in 0..len {
                seq.push(Base::from_code(rng.gen_range(0..4)));
            }
            // Error-free tiling reads (stride < read_len - k_max) so every
            // species — including the giant — clears the sketch containment
            // and support thresholds and becomes a Step 3 candidate.
            let (read_len, stride) = (100, 40);
            let mut start = 0;
            let mut i = 0;
            while start + read_len <= len {
                reads.push(Read::new(
                    format!("r{s}-{i}"),
                    seq.subsequence(start, read_len),
                ));
                start += stride;
                i += 1;
            }
            genomes.push(ReferenceGenome::new(taxid, format!("skew{s}"), seq));
        }
        let references = ReferenceCollection::new(genomes, taxonomy);
        let sample = Sample::from_reads(reads);
        let read_count = sample.len() as u64;
        assert_eq!(read_count.div_ceil(MIN_READS_PER_COMMAND as u64), 2);
        let analyzer = MegisAnalyzer::build(&references, MegisConfig::small());
        let expected = analyzer.analyze(&sample);
        assert_eq!(
            expected.presence.len(),
            lengths.len(),
            "every species must become a Step 3 candidate"
        );
        assert!(expected.mapped_reads > 0, "fixture must exercise mapping");

        let jobs = 8u64;
        let engine = StreamingEngine::new(
            analyzer,
            EngineConfig::new()
                .with_workers(2)
                .with_shards(8)
                .with_queue_depth(4),
        );
        let handles = engine
            .submit_all((0..jobs).map(|i| JobSpec::new(format!("s{i}"), sample.clone())))
            .unwrap();
        let report = engine.shutdown();
        for handle in handles {
            assert_eq!(handle.wait().expect("job served").output, expected);
        }
        let served = |f: fn(&ShardStats) -> u64| -> u64 { report.shard_stats.iter().map(f).sum() };
        assert_eq!(served(|s| s.step3_items), jobs * read_count);
        assert_eq!(served(|s| s.step3_jobs), jobs * 2);
        assert_eq!(
            served(|s| s.stolen_items),
            0,
            "a healthy array adopts nothing"
        );
    }

    #[test]
    fn dropping_the_engine_serves_queued_jobs() {
        let c = community();
        let a = analyzer(&c);
        let expected = a.analyze(c.sample());
        let handles: Vec<JobHandle> = {
            let engine =
                StreamingEngine::new(a, EngineConfig::new().with_workers(2).with_shards(3));
            (0..4)
                .map(|i| {
                    engine
                        .submit(JobSpec::new(format!("s{i}"), c.sample().clone()))
                        .unwrap()
                })
                .collect()
            // Engine dropped here: drop performs a graceful drain + join.
        };
        for handle in handles {
            let result = handle.wait().expect("drop drains queued jobs");
            assert_eq!(result.output, expected);
        }
    }

    #[test]
    fn priority_submitted_mid_stream_overtakes_queued_normals() {
        let c = community();
        // One worker so the queue actually builds up behind the head job.
        let engine = StreamingEngine::new(
            analyzer(&c),
            EngineConfig::new()
                .with_workers(1)
                .with_policy(SchedPolicy::Priority),
        );
        let mut handles = Vec::new();
        for i in 0..5 {
            handles.push(
                engine
                    .submit(JobSpec::new(format!("normal-{i}"), c.sample().clone()))
                    .unwrap(),
            );
        }
        // Submitted last, while earlier normals are still queued: the live
        // pop must pick it next among whatever is waiting.
        let stat = engine
            .submit(JobSpec::new("stat", c.sample().clone()).with_priority(Priority::High))
            .unwrap();
        engine.drain();
        let stat_result = stat.try_wait().unwrap().unwrap();
        let normal_positions: Vec<usize> = handles
            .into_iter()
            .map(|h| h.try_wait().unwrap().unwrap().start_position)
            .collect();
        // Some head-of-line normals may already have been dispatched before
        // the high submission arrived (the lookahead gate allows up to
        // 2*1+2 = 4 positions ahead), but the live pop must schedule the
        // stat job before whatever is still queued. Requiring at least one
        // overtake keeps the assertion meaningful without racing the OS
        // scheduler: it can only fail if the submitting thread stalls for
        // several full service times mid-loop.
        let overtaken = normal_positions
            .iter()
            .filter(|p| **p > stat_result.start_position)
            .count();
        assert!(
            overtaken >= 1,
            "high priority must overtake the queued normals: stat at {}, normals {:?}",
            stat_result.start_position,
            normal_positions
        );
        assert_eq!(stat_result.isp_position, stat_result.start_position);
    }

    #[test]
    fn submit_all_assigns_policy_order_over_the_whole_set() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Four idle workers race to pop the instant a job is queued. Were
        // the set admitted job by job under separate lock holds, a worker
        // would take the first job — whatever its priority — before a later
        // high-priority one was queued; admitted in one critical section,
        // the set's positions are exactly (priority desc, submission asc).
        // Empty samples keep Step 1 out of the way of the race.
        const JOBS: u64 = 12;
        let c = community();
        let engine = StreamingEngine::new(
            analyzer(&c),
            EngineConfig::new()
                .with_workers(4)
                .with_policy(SchedPolicy::Priority),
        );
        let mut rng = StdRng::seed_from_u64(2407);
        for trial in 0..24u64 {
            let priorities: Vec<Priority> = (0..JOBS)
                .map(|_| {
                    [Priority::Low, Priority::Normal, Priority::High][rng.gen_range(0..3usize)]
                })
                .collect();
            let empty = || Sample::from_reads(megis_genomics::read::ReadSet::new());
            let handles = engine
                .submit_all(
                    priorities
                        .iter()
                        .map(|p| JobSpec::new("job", empty()).with_priority(*p)),
                )
                .unwrap();
            let ids: Vec<u64> = handles.iter().map(|h| h.id().0).collect();
            let first = trial * JOBS;
            assert_eq!(ids, (first..first + JOBS).collect::<Vec<_>>(), "dense ids");
            let mut served: Vec<(usize, u64)> = handles
                .into_iter()
                .map(|h| h.wait().expect("job served"))
                .map(|r| (r.start_position, r.id.0))
                .collect();
            served.sort_unstable();
            let served: Vec<u64> = served.into_iter().map(|(_, id)| id).collect();
            let mut policy_order = ids;
            policy_order.sort_by_key(|id| std::cmp::Reverse(priorities[(id - first) as usize]));
            assert_eq!(served, policy_order, "trial {trial}: {priorities:?}");
        }
    }

    #[test]
    fn submit_all_is_rejected_whole_once_shutdown_began() {
        // `shutdown` consumes the engine, so only its own first step —
        // closing admission — can be observed by a submitter; take it here
        // from another thread.
        let c = community();
        let engine = StreamingEngine::new(analyzer(&c), EngineConfig::new());
        thread::scope(|scope| {
            scope.spawn(|| engine.shared.lock().accepting = false);
        });
        let jobs = (0..3).map(|i| JobSpec::new(format!("s{i}"), c.sample().clone()));
        assert_eq!(
            engine.submit_all(jobs).unwrap_err(),
            AdmissionError::ShuttingDown
        );
        assert_eq!(engine.pending(), 0, "nothing was admitted");
        assert_eq!(engine.shutdown().completed, 0);
    }

    #[test]
    fn wait_timeout_is_none_until_the_job_settles() {
        let c = community();
        let a = analyzer(&c);
        let expected = a.analyze(c.sample());
        let engine = StreamingEngine::new(
            a,
            EngineConfig::new().with_fault_plan(dwell(Duration::from_millis(100))),
        );
        let handle = engine
            .submit(JobSpec::new("held", c.sample().clone()))
            .unwrap();
        assert!(
            handle.wait_timeout(Duration::from_millis(5)).is_none(),
            "its first command is still dwelling"
        );
        let settled = handle.wait_timeout(Duration::from_secs(60));
        assert_eq!(settled.expect("settled").expect("served").output, expected);
    }

    /// Poisons `engine` the way a panicking pipeline thread does: by
    /// unwinding through a `PanicGuard`.
    fn poison(engine: &StreamingEngine) {
        let tripped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = PanicGuard(&engine.shared);
            panic!("simulated pipeline panic");
        }));
        assert!(tripped.is_err());
    }

    #[test]
    fn a_poisoned_engine_releases_its_clients_and_drops_cleanly() {
        // Failure layer 4. Regression: the result senders used to sit in the
        // shared state until the engine was dropped, so a client waiting on
        // a poisoned engine hung for as long as it lived — and dropping it
        // panicked out of the destructor's drain.
        let c = community();
        let engine = StreamingEngine::new(
            analyzer(&c),
            EngineConfig::new()
                .with_workers(1)
                .with_shards(1)
                // Keeps the early job unsettled until the poison lands.
                .with_fault_plan(dwell(Duration::from_millis(50))),
        );
        let spec = || JobSpec::new("job", c.sample().clone());
        let early = engine.submit(spec()).unwrap();
        poison(&engine);
        assert!(
            matches!(early.wait(), Err(JobError::EngineStopped { job: JobId(0) })),
            "a handle taken before the poison resolves while the engine lives"
        );
        assert_eq!(
            engine.submit(spec()).unwrap_err(),
            AdmissionError::ShuttingDown
        );
        assert_eq!(
            engine.submit_all([spec(), spec()]).unwrap_err(),
            AdmissionError::ShuttingDown
        );
        assert!(!engine.snapshot().accepting);
        drop(engine);
    }

    #[test]
    #[should_panic(expected = "streaming engine poisoned")]
    fn draining_a_poisoned_engine_panics() {
        let c = community();
        let engine = StreamingEngine::new(analyzer(&c), EngineConfig::new());
        poison(&engine);
        // The unwind then drops the engine, which must not panic again.
        engine.drain();
    }
}
