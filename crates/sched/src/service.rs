//! Service mode: the threaded shell around the engine's decision core.
//!
//! [`StreamingEngine`] keeps the paper's multi-sample pipeline — host-side
//! Step 1 feeding a sharded in-SSD stage (§4.7) — running as a long-lived
//! service. Jobs can be submitted from any thread *while the engine runs*,
//! and a pool thread pops the next job under the policy at the moment it
//! dispatches it, so a high-priority sample submitted mid-stream competes
//! immediately instead of waiting for a batch boundary. MetaStore and
//! GenStore frame in-storage genomics accelerators the same way:
//! continuously fed, not drained once.
//!
//! **A closed batch** is the same engine fed once:
//! [`StreamingEngine::submit_all`] admits the whole set in one critical
//! section — all of it or none — so no pool thread can pop between two
//! admissions and the assigned service positions follow the policy over the
//! whole set exactly; [`StreamingEngine::shutdown`] drains it and reports,
//! and each [`JobHandle::wait`] then returns at once.
//!
//! **Every decision is the core's.** Admission, the lookahead gate, the
//! device command queues, the pick, the completer (slicing, issue through
//! depth-bounded queues, out-of-order folds, retry, failover, in-order
//! delivery) and the wake rule live in the crate-private `complete::Core`,
//! whose module docs describe them. This shell keeps the core behind one
//! state lock and adds only what needs threads:
//!
//! * **the pool** — exactly [`crate::EngineConfig::workers`] threads, each
//!   in one loop (`pool_thread`): lock, settle the core with the unit it
//!   just finished, send the deliveries, pick, unlock, wake the other
//!   threads if the core says so, and run the unit — or park on the `work`
//!   condvar until the core's next timer, or return once shutdown began and
//!   the core is idle;
//! * **the serving seam** — `prepare` runs Step 1; `serve` runs a command
//!   as its device under the [`crate::FaultPlan`]'s verdict, panicking and
//!   catching an injected worker panic right there; `dwell` holds an
//!   injected latency spike in slices no longer than the core's next timer,
//!   settling the core between them, so a command deadline fires on time
//!   even while every thread dwells;
//! * **delivery** — a [`JobHandle`] receives its outcome in the settle
//!   that completes the job, under the lock that counts it delivered, so a
//!   quiescent [`StreamingEngine::drain`] implies every outcome has reached
//!   its handle; a rolling window over recent completions backs the live
//!   [`ServiceSnapshot`];
//! * **poison** — a pool thread panicking outside the serving seam, in
//!   Step 1 or in the core, poisons the service:
//!   [`StreamingEngine::drain`] and [`StreamingEngine::shutdown`] propagate
//!   the failure as a panic instead of blocking forever, every outstanding
//!   [`JobHandle`] resolves to `Err(JobError::EngineStopped)` the moment the
//!   poison is set, later submissions are rejected with
//!   [`AdmissionError::ShuttingDown`], every pool thread returns at once,
//!   and dropping the engine joins them without panicking. Every other
//!   failure — a transient device error, a blown deadline, a dead device, a
//!   caught panic, an exhausted retry budget — is the core's to retry, fail
//!   over, or deliver as the owning job's [`JobError`].
//!
//! **Memory.** The pool serves every device through zero-copy views over
//! the analyzer's database storage ([`crate::shard`]), whose one copy
//! [`ServiceReport`] records as `resident_database_bytes`.
//!
//! # Observability
//!
//! The core is the one place that counts: each completion carries the
//! device that answered, its busy time and its start and finish stamps, and
//! the core folds those — with every admission, issue, re-issue, settle
//! and delivery — into one tally that becomes the [`ServiceReport`]'s
//! counters, its device report among them. With
//! [`crate::EngineConfig::with_tracing`] the engine also records every
//! lifecycle event into a shared [`crate::trace::TraceSink`]: admission at
//! `submit`, Step 1 start/end and `CommandStarted`/`CommandCompleted`
//! (bracketing the device service) in the pool threads, and issue,
//! re-issue, reduce and delivery in the core. Each job's
//! [`crate::trace::StageBreakdown`] is folded from its own timeline at
//! delivery ([`JobResult::breakdown`]); the ring is read only at shutdown,
//! for the exportable [`crate::trace::TraceLog`]. Tracing is off by default,
//! and the disabled sink's record path is a single inlined branch; the
//! repository benchmark reports the traced-vs-untraced wall clock as
//! `sched.trace.overhead_frac` (`benchmark/README.md`).

use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Condvar};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use megis::MegisAnalyzer;

use crate::complete::{Core, Event, PreparedJob, Settled, ShardCompletion, Work};
use crate::engine::EngineConfig;
use crate::fault::FaultPlan;
use crate::job::{JobError, JobId, JobResult, JobSpec};
use crate::lock::{self, Guard, Lock, Unlocked};
use crate::metrics::{LatencyStats, RollingWindow, ServiceReport};
use crate::queue::{AdmissionError, QueuedJob};
use crate::shard::{CommandFailure, ShardCommand, ShardSet, ShardWorker};
use crate::trace::{TraceEventKind, TraceLog, TraceSink, DEFAULT_TRACE_CAPACITY, NO_SEQ};

/// State shared by submitters and the pool threads.
#[derive(Debug)]
struct ServiceState {
    /// Every decision of the engine, and the tally.
    core: Core,
    /// Per-job result channels, removed at delivery. A failed job's error
    /// travels the same channel as a result would, so handles resolve in
    /// either case.
    senders: HashMap<u64, mpsc::Sender<Result<JobResult, JobError>>>,
    /// Set when a pipeline thread panics; drain/shutdown propagate it as a
    /// panic instead of waiting forever on work that can never complete.
    poisoned: bool,
    /// Cleared when a graceful shutdown begins; submissions then reject.
    accepting: bool,
    /// Set after the final drain; pool threads then exit once the core is
    /// idle.
    stopping: bool,
    /// Jobs completed over the service lifetime.
    completed: u64,
    /// Rolling latency/throughput window over recent completions.
    window: RollingWindow,
}

/// What the pool threads share: the state behind one lock, the two things
/// a thread waits for on it, and what serving reads.
#[derive(Debug)]
struct Shared {
    state: Lock<ServiceState>,
    /// Parks the pool threads with nothing to pick. Notified when the
    /// core's wake rule says so ([`Settled::notify`]), on a submission, on
    /// a pool thread's exit, and on shutdown or poison.
    work: Condvar,
    /// Signaled on delivery (drain waits here for quiescence).
    idle: Condvar,
    analyzer: Arc<MegisAnalyzer>,
    /// Serves any device's commands: it holds the whole zero-copy
    /// [`ShardSet`].
    device: ShardWorker,
    plan: Option<Arc<FaultPlan>>,
    trace: TraceSink,
}

impl Shared {
    /// The shared side of an engine over `shards` that has served nothing
    /// yet.
    fn new(
        config: &EngineConfig,
        analyzer: MegisAnalyzer,
        shards: &ShardSet,
        trace: TraceSink,
    ) -> Shared {
        let analyzer = Arc::new(analyzer);
        let core = Core::new(Arc::clone(&analyzer), shards.clone(), config, trace.clone());
        Shared {
            state: Lock::new(ServiceState {
                core,
                senders: HashMap::new(),
                poisoned: false,
                accepting: true,
                stopping: false,
                completed: 0,
                window: RollingWindow::new(config.metrics_window),
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            device: ShardWorker::new(shards.clone(), Arc::clone(&analyzer)),
            analyzer,
            plan: config.fault_plan.clone(),
            trace,
        }
    }
}

/// Live snapshot of a running service.
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// Jobs admitted but not yet dispatched to Step 1.
    pub pending: usize,
    /// Jobs dispatched but not yet delivered.
    pub in_flight: usize,
    /// Jobs completed since the service started.
    pub completed: u64,
    /// Whether submissions are currently accepted.
    pub accepting: bool,
    /// Commands currently outstanding per shard (issued, not yet resolved)
    /// — the live NVMe-style queue occupancy.
    pub shard_inflight: Vec<usize>,
    /// Latency distribution over the rolling completion window.
    pub window: LatencyStats,
    /// Completions per second over the rolling window.
    pub window_throughput: f64,
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
    #[expect(clippy::disallowed_methods, reason = "callers hold no engine guard")]
    pub fn wait(self) -> Result<JobResult, JobError> {
        let stopped = JobError::EngineStopped { job: self.id };
        self.rx.recv().unwrap_or(Err(stopped))
    }

    /// Returns the outcome if the job has already settled, without
    /// blocking: `Some(Err(JobError::EngineStopped))` if the engine stopped
    /// without serving it, `None` while it is still being served.
    pub fn try_wait(&self) -> Option<Result<JobResult, JobError>> {
        match self.rx.try_recv() {
            Err(TryRecvError::Empty) => None,
            outcome => Some(outcome.unwrap_or(Err(JobError::EngineStopped { job: self.id }))),
        }
    }

    /// Blocks up to `timeout` for the outcome, then answers like
    /// [`JobHandle::try_wait`].
    #[expect(clippy::disallowed_methods, reason = "callers hold no engine guard")]
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobResult, JobError>> {
        match self.rx.recv_timeout(timeout) {
            Err(RecvTimeoutError::Timeout) => None,
            outcome => Some(outcome.unwrap_or(Err(JobError::EngineStopped { job: self.id }))),
        }
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
    /// The pool threads; empty once joined.
    workers: Vec<JoinHandle<()>>,
    shards: ShardSet,
    config: EngineConfig,
    started_at: Instant,
}

impl StreamingEngine {
    /// Builds and starts a service around an analyzer, sharding its database
    /// across the configured number of simulated SSDs. The pool is running
    /// when this returns: exactly `workers` threads, whatever the shard
    /// count.
    pub fn new(analyzer: MegisAnalyzer, config: EngineConfig) -> StreamingEngine {
        assert!(config.workers > 0, "at least one worker is required");
        assert!(config.shards > 0, "at least one shard is required");
        assert!(config.queue_depth > 0, "queue depth must be positive");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let shards = ShardSet::build(analyzer.database(), config.shards);
        let trace = if config.tracing {
            TraceSink::bounded(DEFAULT_TRACE_CAPACITY)
        } else {
            TraceSink::disabled()
        };
        let shared = Arc::new(Shared::new(&config, analyzer, &shards, trace));
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || pool_thread(&shared))
            })
            .collect();
        StreamingEngine {
            shared,
            workers,
            shards,
            config,
            started_at: Instant::now(),
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

    /// The engine's trace sink (disabled unless [`EngineConfig::tracing`]
    /// is set). Live snapshots of the event log are available while the
    /// service runs; the final [`ServiceReport`] carries the whole log.
    pub fn trace(&self) -> &TraceSink {
        &self.shared.trace
    }

    /// Jobs admitted but not yet dispatched to Step 1.
    pub fn pending(&self) -> usize {
        self.shared.state.lock(&mut caller()).core.pending()
    }

    /// Submits one job to the running service, from any thread: the
    /// one-job case of [`StreamingEngine::submit_all`]. On success the
    /// returned [`JobHandle`] delivers the result as soon as the job
    /// completes.
    #[expect(
        clippy::expect_used,
        reason = "`submit_all` returns one handle per job it admits"
    )]
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, AdmissionError> {
        let mut handles = self.submit_all([spec])?;
        Ok(handles.pop().expect("one job admitted, one handle"))
    }

    /// Admits a closed set of jobs, from any thread: all of them or none,
    /// in **one** critical section. No pool thread can pop between two of
    /// the admissions, so the service positions the set is assigned follow
    /// the policy over the whole set exactly — (priority desc, submission
    /// asc) under [`crate::SchedPolicy::Priority`] — whatever the worker
    /// count. Ids are dense and in submission order; the handles come back
    /// in that order too.
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
        let handles: Vec<JobHandle> = {
            let mut token = caller();
            let mut state = self.shared.state.lock(&mut token);
            if !state.accepting {
                return Err(AdmissionError::ShuttingDown);
            }
            // Read under the lock, so admission instants follow id order.
            let ids = state
                .core
                .admit(specs.into_iter().collect(), Instant::now())?;
            ids.into_iter()
                .map(|id| {
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
            self.shared
                .trace
                .record(NO_SEQ, TraceEventKind::Admitted { job: handle.id.0 });
        }
        if handles.len() == 1 {
            self.shared.work.notify_one();
        } else {
            self.shared.work.notify_all();
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
            self.wait_quiescent(&mut caller()),
            "streaming engine poisoned: a pipeline thread panicked"
        );
    }

    /// Blocks until the core is idle; `false` — at once — if the service is
    /// poisoned, whose jobs can never all complete.
    fn wait_quiescent(&self, token: &mut Unlocked) -> bool {
        let mut state = self.shared.state.lock(token);
        loop {
            if state.poisoned {
                return false;
            }
            if state.core.idle() {
                return true;
            }
            state = self.shared.state.wait(&self.shared.idle, state);
        }
    }

    /// A live snapshot: queue depths, lifetime completions, per-shard
    /// command-queue occupancy, and the rolling latency/throughput window.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let mut token = caller();
        let state = self.shared.state.lock(&mut token);
        ServiceSnapshot {
            pending: state.core.pending(),
            in_flight: state.core.in_flight(),
            completed: state.completed,
            accepting: state.accepting,
            shard_inflight: state.core.inflight().to_vec(),
            window: state.window.stats(),
            window_throughput: state.window.throughput(),
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
        self.shared.state.lock(&mut caller()).accepting = false;
        self.drain();
        self.join_and_report(&mut caller())
    }

    /// Stops and joins the pool of a drained (or poisoned) service and
    /// assembles the report from the core's tally. Setting `stopping` lets
    /// each pool thread exit once the core is idle.
    fn join_and_report(&mut self, token: &mut Unlocked) -> ServiceReport {
        self.shared.state.lock(token).stopping = true;
        self.shared.work.notify_all();
        let _ = lock::join_all(token, self.workers.drain(..));
        let sink = &self.shared.trace;
        let trace = sink.is_enabled().then(|| TraceLog {
            events: sink.events(),
            dropped: sink.dropped(),
        });
        let mut state = self.shared.state.lock(token);
        let counts = state.core.take_tally().into_report();
        ServiceReport {
            completed: state.completed,
            uptime: self.started_at.elapsed(),
            resident_database_bytes: self.shards.resident_bytes(),
            window: state.window.stats(),
            trace,
            ..counts
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
        if !self.workers.is_empty() {
            let mut token = caller();
            self.shared.state.lock(&mut token).accepting = false;
            let _ = self.wait_quiescent(&mut token);
            let _ = self.join_and_report(&mut token);
        }
    }
}

/// The token of a thread calling the engine's API.
#[expect(clippy::disallowed_methods, reason = "guards never leave the crate")]
fn caller() -> Unlocked {
    Unlocked::mint()
}

/// Poisons the service if its thread unwinds: a dispatched position that
/// will never complete must turn `drain`/`shutdown` into a propagated panic
/// rather than a deadlock. In the same critical section admission closes
/// and every undelivered job's result sender is dropped, so waiting
/// [`JobHandle`]s resolve to `EngineStopped` now, not when the engine is
/// eventually dropped. It owns its thread's token; any guard the thread
/// held died in the unwind before this drop.
struct PanicGuard<'a>(&'a Shared, Unlocked);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            let mut state = self.0.state.lock(&mut self.1);
            state.poisoned = true;
            state.accepting = false;
            state.senders.clear();
            drop(state);
            self.0.work.notify_all();
            self.0.idle.notify_all();
        }
    }
}

/// One pool thread: under one lock it settles the core with the unit it
/// finished last and picks its next unit, then runs that unit outside the
/// lock — or parks until woken or the core's next timer. It returns once
/// shutdown began and the core is idle, or at once on poison.
fn pool_thread(shared: &Shared) {
    #[expect(clippy::disallowed_methods, reason = "a new thread holds no guard")]
    let mut guard = PanicGuard(shared, Unlocked::mint());
    let token = &mut guard.1;
    let mut finished = None;
    loop {
        let (mut state, settled) = settle(shared, token, finished.take());
        if state.poisoned {
            return;
        }
        let Some(work) = state.core.pick() else {
            // Wake the others before parking, or — with nothing left to
            // run — let them see that too.
            let exit = state.stopping && state.core.idle();
            if settled.notify || exit {
                shared.work.notify_all();
            }
            if exit {
                return;
            }
            drop(shared.state.wait_until(&shared.work, state, settled.wake));
            continue;
        };
        drop(state);
        if settled.notify {
            shared.work.notify_all();
        }
        finished = Some(match work {
            Work::Command(device, popped, command) => {
                Event::Completed(serve(shared, token, device, popped, command))
            }
            Work::Step1(job, position) => Event::Prepared(prepare(shared, job, position)),
        });
    }
}

/// Locks the state, settles the core with `finished` at the current instant
/// and sends every delivery, then hands the guard back still held, so the
/// caller picks in the same critical section.
fn settle<'a>(
    shared: &'a Shared,
    token: &'a mut Unlocked,
    finished: Option<Event>,
) -> (Guard<'a, ServiceState>, Settled) {
    let mut state = shared.state.lock(token);
    // Read under the lock, so the rolling window's instants never decrease.
    let now = Instant::now();
    let mut settled = state.core.settle(finished, now);
    if !settled.deliveries.is_empty() {
        shared.idle.notify_all();
    }
    for (id, outcome) in settled.deliveries.drain(..) {
        // A failed job still counts as delivered, so the lookahead gate
        // keeps opening behind it; the rolling window and the completion
        // counter record only successes, at the instant the round settled.
        if let Ok(result) = outcome.as_ref() {
            state.window.record_at(now, result.latency);
            state.completed += 1;
        }
        if let Some(tx) = state.senders.remove(&id.0) {
            // An unbounded mpsc send never blocks, and delivery under the
            // lock makes a quiescent drain imply every outcome has already
            // reached its handle.
            let _ = tx.send(outcome);
        }
    }
    (state, settled)
}

/// Runs Step 1 for the job dispatched at position `seq`.
fn prepare(shared: &Shared, job: QueuedJob, seq: usize) -> PreparedJob {
    let trace = &shared.trace;
    // Step1Started binds the job id to its dispatch sequence — the join
    // key the analysis layer uses to attach the admission event.
    trace.record(seq, TraceEventKind::Step1Started { job: job.id.0 });
    let started = Instant::now();
    let step1 = shared.analyzer.run_step1(&job.spec.sample);
    let step1_done = trace.now();
    trace.record_at(step1_done, seq, TraceEventKind::Step1Finished);
    PreparedJob {
        id: job.id,
        label: job.spec.label,
        priority: job.spec.priority,
        start_position: seq,
        sample: Arc::new(job.spec.sample),
        submitted_at: job.submitted_at,
        queue_wait: started.duration_since(job.submitted_at),
        step1_time: started.elapsed(),
        step1_done,
        step1,
    }
}

/// Serves one command as `device`, its `popped`-th, under the fault plan's
/// verdict — after an injected spike, or answered with the injected
/// failure — tagged with this device.
fn serve(
    shared: &Shared,
    token: &mut Unlocked,
    device: usize,
    popped: u64,
    command: ShardCommand,
) -> ShardCompletion {
    use TraceEventKind::{CommandCompleted, CommandStarted, Fault};
    let trace = &shared.trace;
    let (seq, stage) = (command.seq(), command.stage());
    // The fault-free hot path pays one `Option` check.
    let verdict = shared.plan.as_deref().map_or(Ok(Duration::ZERO), |plan| {
        plan.verdict(device, popped, &command)
    });
    let started = trace.now();
    let t0 = Instant::now();
    // An injected latency spike stalls the device before it serves — busy
    // time the command deadline exists to cut short, and the only simulated
    // dwell on the serving path: device *time* is priced analytically
    // (`crate::model`), the engine spends real CPU time.
    let result = match verdict {
        Ok(spike) => {
            if !spike.is_zero() {
                dwell(shared, token, spike);
            }
            Ok(shared.device.serve(&command))
        }
        Err(CommandFailure::Panicked) => Err(injected_panic()),
        Err(failure) => Err(failure),
    };
    let busy = t0.elapsed();
    let done = trace.now();
    // The service interval credits the *physical* serving device, as the
    // tally credits the busy time; a failure names
    // the command's shard-of-record, and the core decides between retry,
    // failover and failing the job.
    if result.is_ok() {
        let shard = device;
        trace.record_at(started, seq, CommandStarted { stage, shard });
        trace.record_at(done, seq, CommandCompleted { stage, shard });
    } else {
        let shard = command.record_shard();
        trace.record_at(started, seq, Fault { stage, shard });
    }
    ShardCompletion {
        command,
        device,
        busy,
        started,
        done,
        result,
    }
}

/// Holds this thread for an injected latency spike, in slices no longer
/// than the core's next timer, settling the core between them: a command
/// deadline fires on time even while every pool thread dwells.
fn dwell(shared: &Shared, token: &mut Unlocked, spike: Duration) {
    let until = Instant::now() + spike;
    loop {
        let (state, settled) = settle(shared, token, None);
        drop(state);
        if settled.notify {
            shared.work.notify_all();
        }
        let now = Instant::now();
        if now >= until {
            return;
        }
        let slice_end = settled.wake.map_or(until, |at| at.min(until));
        lock::sleep(token, slice_end.saturating_duration_since(now));
    }
}

/// The injected worker panic, caught right here at the serving seam: it
/// must fail only the owning job, never unwind the pool thread (the
/// `PanicGuard` stays un-tripped and the engine keeps serving).
#[expect(
    clippy::panic,
    reason = "the injected worker panic is caught by the enclosing catch_unwind at the \
              serving seam and surfaces as a per-job error, not a thread death"
)]
fn injected_panic() -> CommandFailure {
    let caught = std::panic::catch_unwind(|| {
        panic!("injected worker panic");
    });
    debug_assert!(caught.is_err());
    CommandFailure::Panicked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use crate::queue::SchedPolicy;
    use megis::config::MegisConfig;
    use megis_genomics::sample::{CommunityConfig, Diversity, Sample};

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
            lock::sleep(&mut lock::test_token(), Duration::from_micros(100));
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
    fn the_one_issuer_keeps_dispatch_order_behind_depth_one_queues() {
        // The riskiest path of the single issuer. Sample 0 carries 20x the
        // reads of the rest, so later positions finish Step 1 first and
        // wait in the completer's reorder buffer; seeded latency spikes
        // hold commands on their devices, so intersect and Step 3 commands
        // of several jobs wait together in the backlog behind depth-1
        // slots.
        let big = CommunityConfig::preset(Diversity::Medium)
            .with_reads(20 * 64)
            .with_database_species(10)
            .build(23);
        let small = Sample::from_reads(big.sample().reads().iter().take(64).cloned().collect());
        let a = analyzer(&big);
        let expected = [a.analyze(big.sample()), a.analyze(&small)];
        assert!(expected[1].mapped_reads > 0, "every sample reaches Step 3");
        let engine = StreamingEngine::new(
            a,
            EngineConfig::new()
                .with_workers(3)
                .with_shards(3)
                .with_queue_depth(1)
                .with_tracing()
                .with_fault_plan(
                    FaultPlan::seeded(5).with_latency_spike(0.3, Duration::from_millis(3)),
                ),
        );
        let jobs = 12;
        let handles = engine
            .submit_all((0..jobs).map(|i| {
                let sample = if i == 0 { big.sample() } else { &small };
                JobSpec::new(format!("s{i}"), sample.clone())
            }))
            .unwrap();
        let report = engine.shutdown();
        for (i, handle) in handles.into_iter().enumerate() {
            let result = handle.wait().expect("job served");
            assert_eq!(result.start_position, i, "FIFO serves in submission order");
            assert_eq!(result.isp_position, result.start_position);
            assert_eq!(result.output, expected[usize::from(i > 0)]);
        }
        let delivered: Vec<u64> = report
            .trace
            .expect("tracing is on")
            .events
            .iter()
            .filter_map(|event| match event.kind {
                TraceEventKind::Delivered { job } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, (0..jobs).collect::<Vec<u64>>(), "delivery order");
        for stats in &report.shard_stats {
            assert!(stats.peak_inflight <= 1, "shard {}", stats.shard);
        }
    }

    #[test]
    fn step3_flows_through_the_shard_queues_and_overlaps_step2() {
        // Step 3 on the devices: every sample with candidates must have its
        // unified-index generation and read mapping served as one device
        // command (not a coordinator call), rotating over the array, every
        // read mapped exactly once, results byte-identical to the
        // sequential analyzer — and with commands dwelling on their
        // devices, some sample's Step 3 command must be submitted while
        // another sample's intersect command is outstanding (the per-stage
        // pipeline overlap).
        let reads = 300u64;
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
        assert_eq!(step3_jobs, jobs, "one step-3 command per job");
        assert_eq!(
            step3_items,
            jobs * reads,
            "each read must be mapped exactly once per job"
        );
        for stats in &report.shard_stats {
            assert!(
                stats.step3_jobs > 0,
                "shard {} served none of the {jobs} step-3 commands",
                stats.shard
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
            .with_reads(256)
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

    #[test]
    fn a_sample_without_commands_is_delivered_by_its_own_event() {
        // Regression: a sample that issues no intersect command — Step 1
        // selected nothing — reaches the completer as a bare job record.
        // That record once waited on a completion poll to run out; now the
        // pool thread that prepared it settles it, and no completion ever
        // has to arrive for it to be delivered.
        let c = community();
        let a = analyzer(&c);
        let empty = Sample::from_reads(megis_genomics::read::ReadSet::new());
        let expected = a.analyze(&empty);
        assert_eq!(expected.selected_kmers, 0, "nothing to intersect");
        let engine = StreamingEngine::new(a, EngineConfig::new().with_workers(1).with_shards(2));
        let handle = engine.submit(JobSpec::new("empty", empty)).unwrap();
        let result = handle.wait().expect("job served");
        assert_eq!(result.output, expected);
        let report = engine.shutdown();
        let commands: u64 = report
            .shard_stats
            .iter()
            .map(|s| s.jobs + s.step3_jobs)
            .sum();
        assert_eq!(commands, 0, "an empty sample commands no device");
    }

    #[test]
    fn an_array_wider_than_one_command_maps_every_read_once() {
        use megis_genomics::dna::{Base, PackedSequence};
        use megis_genomics::read::{Read, ReadSet};
        use megis_genomics::reference::{ReferenceCollection, ReferenceGenome};
        use megis_genomics::taxonomy::{TaxId, Taxonomy};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Skewed candidate sizes (one giant genome next to three small
        // ones) on an array far wider than one command: each sample's one
        // Step 3 command maps every read against all four candidates on one
        // of the eight devices, while the others serve intersects alone.
        // Every command stays on the queue it was issued to.
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
        let served =
            |f: fn(&crate::ShardStats) -> u64| -> u64 { report.shard_stats.iter().map(f).sum() };
        assert_eq!(served(|s| s.step3_items), jobs * read_count);
        assert_eq!(served(|s| s.step3_jobs), jobs, "one command per sample");
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
            scope.spawn(|| engine.shared.state.lock(&mut lock::test_token()).accepting = false);
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
            let _guard = PanicGuard(&engine.shared, lock::test_token());
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
        let second = engine.submit(spec()).unwrap();
        poison(&engine);
        assert!(
            matches!(early.wait(), Err(JobError::EngineStopped { job: JobId(0) })),
            "a handle taken before the poison resolves while the engine lives"
        );
        // Regression: the non-blocking forms used to read a stopped engine
        // as a job still being served, forever.
        let stopped = |outcome: Option<Result<JobResult, JobError>>| {
            matches!(
                outcome,
                Some(Err(JobError::EngineStopped { job: JobId(1) }))
            )
        };
        assert!(stopped(second.try_wait()), "try_wait on a stopped engine");
        assert!(
            stopped(second.wait_timeout(Duration::from_secs(1))),
            "wait_timeout on a stopped engine"
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
