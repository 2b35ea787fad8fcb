//! The engine's one decision core: a pure state machine, with the clock
//! passed in.
//!
//! [`Core`] makes every decision of the engine, and `crate::service` only
//! runs what it hands out. The core spawns nothing, owns no channel or lock
//! and never reads the time, so a test drives any schedule step by step
//! with a fake clock. It owns:
//!
//! * **admission** — the one capacity check (queued plus in-flight jobs),
//!   the policy's job queue, the next dispatch position and the lookahead
//!   gate: Step 1 runs at most `max(2·workers + 2, queue_depth + workers)`
//!   positions ahead of delivery, which bounds the reorder buffer, the job
//!   table and prepared-sample memory;
//! * **the devices** — per device, the commands issued onto its queue,
//!   whether a pool thread is serving it, and how many commands it has
//!   popped (the count a [`crate::FaultPlan`] kills it at);
//! * **the pick** and **the wake rule** of the pool (below);
//! * **the completer** — it reorders prepared samples into dispatch order,
//!   opens each one (its query list sliced into per-shard intersect
//!   commands), issues both command kinds through one depth-bounded
//!   backlog, folds completions as they arrive, retries, fails over, fails
//!   a job, and delivers in dispatch order.
//!
//! **The pool.** Each of the engine's `workers` threads runs one loop.
//! Under the state lock it hands the unit it just finished to
//! [`Core::settle`], sends the deliveries, and takes its next unit from
//! [`Core::pick`]; then it runs the unit outside the lock, or parks until a
//! notify or the settle's `wake` instant. The pick takes the queued command
//! with the smallest `(dispatch seq, device, queue position)` among the
//! devices no thread is serving, and marks its device busy; with no such
//! command it takes Step 1 for the next job the gate admits. A device thus
//! serves one command at a time, at most `workers` units run at once, and
//! the head of delivery order is served first — its delivery is what opens
//! the gate.
//!
//! **The wake rule** ([`Settled::notify`]) keeps the pool work-conserving —
//! no thread parks while `pick` would hand out work — without waking it in
//! a loop. A settle wakes the parked threads when it issued a command,
//! delivered a job (the gate may open), or armed a timer earlier than the
//! core's previous next timer. Only an *earlier* timer wakes them: every
//! thread parked without a notify holds a timer no later than the core's
//! current next timer, so it wakes on time by itself, while a woken
//! thread's own settle would wake the others for an unchanged timer, and
//! they it, without end. A device freed with commands still queued needs
//! no wake: the thread that freed it picks in the same critical section,
//! and while any thread is parked no other idle device holds a command, so
//! it takes that device's oldest command itself.
//!
//! **One ledger.** Every issued command stays in one ordered map, keyed on
//! `(seq, shard-of-record, stage)`, from its first issue to its final
//! resolution. The entry records the command at its current attempt, when
//! that attempt was issued, and — while it waits out a retry backoff — when
//! it is due again. Both timers are read off this map: a blown command
//! deadline is a transient failure of the current attempt, a due retry is a
//! re-issue, and the next timer is the earliest of either. The map is
//! ordered, so timers fire in key order and one schedule always yields the
//! same decisions. A command holds its queue-depth slot on its
//! shard-of-record for as long as it is in the ledger, so re-issues never
//! re-gate and a slot is freed exactly once. A command that leaves the
//! ledger with its job, or whose queued attempt a re-issue supersedes,
//! leaves its device queue too: a retired command is never served.
//!
//! **Per-job progress.** A job's Step 2 supports are folded the moment each
//! arrives; the fold that brings its outstanding intersect count to zero
//! (or the opening of a job with no intersect command) calls presence and
//! appends the job's one Step 3 command to the backlog. A job is delivered
//! once its Step 3 slot is filled — or it failed — and every earlier
//! dispatch position has been delivered, with the stage breakdown folded
//! from the device stamps its accepted completions carried.
//!
//! **One tally.** Every completion reaped — stale ones too: the device did
//! the work — and every issue, re-issue and delivery is folded into the
//! [`Tally`] that becomes the [`crate::ServiceReport`]'s counters, and every
//! settle books, at its `now`, which devices it leaves occupied.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use megis::kss::Support;
use megis::step1::Step1Output;
use megis::step3::Step3Output;
use megis::{MegisAnalyzer, MegisOutput};
use megis_genomics::profile::PresenceResult;
use megis_genomics::sample::Sample;

use crate::engine::EngineConfig;
use crate::job::{JobError, JobId, JobResult, JobSpec, Priority};
use crate::metrics::Tally;
use crate::queue::{AdmissionError, JobQueue, QueuedJob};
use crate::shard::{
    CommandFailure, CommandOutput, IntersectCommand, ShardCommand, ShardSet, Step3Command,
};
use crate::trace::{JobTimeline, TraceEventKind, TraceSink, TraceStage, TraceStamp};

/// A Step 1 output in flight between the host stage and the in-SSD stage.
pub(crate) struct PreparedJob {
    pub(crate) id: JobId,
    pub(crate) label: String,
    pub(crate) priority: Priority,
    pub(crate) start_position: usize,
    /// Shared so the job's Step 3 command can map the reads without copying
    /// the sample.
    pub(crate) sample: Arc<Sample>,
    pub(crate) submitted_at: Instant,
    pub(crate) queue_wait: Duration,
    pub(crate) step1_time: Duration,
    /// When Step 1 finished, on the trace clock.
    pub(crate) step1_done: TraceStamp,
    pub(crate) step1: Step1Output,
}

/// One answer from a device: `Ok(output)` for a served command, or the
/// `Err(failure)` the core retries, fails over, or fails the job on.
pub(crate) struct ShardCompletion {
    /// The command as popped: its key and attempt find the ledger entry it
    /// settles, and its size is what the tally credits.
    pub(crate) command: ShardCommand,
    /// The device that answered — under failover not the shard-of-record.
    pub(crate) device: usize,
    /// Service time; a failure's is not counted.
    pub(crate) busy: Duration,
    /// Service start and finish on the trace clock (zero with tracing off).
    pub(crate) started: TraceStamp,
    pub(crate) done: TraceStamp,
    pub(crate) result: Result<CommandOutput, CommandFailure>,
}

/// A unit of work a pool thread finished.
pub(crate) enum Event {
    /// It ran Step 1 and prepared a sample for the in-SSD stage.
    Prepared(PreparedJob),
    /// It served (or failed) one command as a device.
    Completed(ShardCompletion),
}

/// A unit of work [`Core::pick`] hands a pool thread.
pub(crate) enum Work {
    /// Serve the command as device `.0`, the `.1`-th command popped from it.
    Command(usize, u64, ShardCommand),
    /// Run Step 1 for this job at this dispatch position.
    Step1(QueuedJob, usize),
}

/// What one [`Core::settle`] asks of the pool.
pub(crate) struct Settled {
    /// Outcomes to send to their handles, in dispatch order.
    pub(crate) deliveries: Vec<(JobId, Result<JobResult, JobError>)>,
    /// Wake the parked pool threads (the wake rule, see the module docs).
    pub(crate) notify: bool,
    /// The core's next timer: a parked thread wakes no later than this.
    pub(crate) wake: Option<Instant>,
}

/// Deterministic capped exponential backoff for retry attempt `attempt`
/// (0-based): `base × 2^min(attempt, 3)`. A zero base means immediate
/// re-issue — the default, and what keeps the chaos tests fast.
fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    base * (1u32 << attempt.min(3))
}

/// Identity of one outstanding command: `(seq, shard-of-record, stage)`.
/// Stable across retries and failover — re-issues keep the key and bump
/// only the attempt counter, so a completion always finds the entry for
/// the command it answers (or finds a newer attempt and is discarded as
/// stale).
type CommandKey = (usize, usize, TraceStage);

/// The ledger key of `command`.
fn key(command: &ShardCommand) -> CommandKey {
    (command.seq(), command.record_shard(), command.stage())
}

/// One issued-but-unresolved command, retained so it can be re-issued on a
/// transient failure, a dead shard, or a blown deadline. Cheap to keep:
/// commands share their sample/query payloads through `Arc`s.
struct OutstandingCommand {
    command: ShardCommand,
    /// When the current attempt was issued; the command deadline measures
    /// from here.
    issued_at: Instant,
    /// When the command is re-issued after a failure, once its backoff has
    /// run out. A command waiting here has no deadline (its entry ages by
    /// design).
    retry_at: Option<Instant>,
}

/// One logical device: the commands issued onto its queue, whether a pool
/// thread is serving it, and how many commands it has popped.
#[derive(Default)]
struct Device {
    queue: VecDeque<ShardCommand>,
    busy: bool,
    popped: u64,
}

/// One sample in the in-SSD stage, from its opening to its delivery.
/// Neither stage leaves a list here — the devices return counts.
struct Job {
    prepared: PreparedJob,
    /// Observed hand-off rank, stamped independently of `start_position` so
    /// the ordering regression tests genuinely fail if the reorder buffer is
    /// ever bypassed.
    isp_position: usize,
    isp_start: Instant,
    /// The job's Step 2 result so far: the hit count and per-taxon support
    /// of every shard reaped, summed the moment each arrives.
    step2: Support,
    /// Shards-of-record whose support has been folded into `step2`.
    /// Addition is not idempotent, so a second fold of one `(seq, shard)`
    /// must be a crash, not a silently doubled support.
    step2_folded: Vec<bool>,
    /// When the devices served the job's accepted commands.
    timeline: JobTimeline,
    /// Intersect completions still outstanding.
    remaining: usize,
    /// Step 2's presence call over the folded support, made the moment the
    /// last shard's support is in. Shared with the Step 3 command.
    presence: Option<Arc<PresenceResult>>,
    /// The job's Step 3 result: what its one Step 3 command reported, or
    /// the empty result of a job with no candidates. Filled once.
    step3: Option<Step3Output>,
    /// Set when the job failed (worker panic, exhausted retry budget, no
    /// live shard): the job is delivered as `Err` at its turn in dispatch
    /// order, isolated from every other job.
    failed: Option<JobError>,
}

impl Job {
    /// A job opened at `isp_start` with `expected` intersect commands on
    /// `shards` shards.
    fn new(
        prepared: PreparedJob,
        isp_position: usize,
        expected: usize,
        isp_start: Instant,
        shards: usize,
    ) -> Job {
        Job {
            prepared,
            isp_position,
            isp_start,
            step2: Support::default(),
            step2_folded: vec![false; shards],
            timeline: JobTimeline::default(),
            remaining: expected,
            presence: None,
            step3: None,
            failed: None,
        }
    }

    /// Every expected completion of both stages has been reaped — or the
    /// job failed and is ready to deliver its error at its ordered turn.
    fn is_complete(&self) -> bool {
        self.failed.is_some() || (self.remaining == 0 && self.step3.is_some())
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

    /// Fills the job's Step 3 slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already filled.
    fn fold_step3(&mut self, output: Step3Output) {
        assert!(
            self.step3.replace(output).is_none(),
            "step 3 result folded twice"
        );
    }
}

/// The engine's decision core (see the module docs).
pub(crate) struct Core {
    analyzer: Arc<MegisAnalyzer>,
    /// The sharded database layout the query lists are sliced against.
    shards: ShardSet,
    trace: TraceSink,
    queue_depth: usize,
    retry_budget: u32,
    retry_backoff: Duration,
    command_deadline: Option<Duration>,
    /// How many jobs may be queued or in flight at once.
    capacity: usize,
    /// The live admission queue, popped at dispatch under the policy.
    queue: JobQueue,
    /// The next dispatch position to assign.
    next_position: usize,
    /// How far dispatch may run ahead of delivery.
    lookahead: usize,
    devices: Vec<Device>,
    /// The reorder buffer behind the ordering guarantee: prepared samples
    /// that arrived ahead of an earlier dispatch position, keyed on
    /// `start_position`.
    reorder: BTreeMap<usize, PreparedJob>,
    /// Samples opened so far — the next dispatch position to open, and the
    /// `isp_position` stamp.
    opened: usize,
    /// Opened jobs not yet delivered, keyed on dispatch position.
    jobs: BTreeMap<usize, Job>,
    next_to_deliver: usize,
    /// Commands of both kinds awaiting a free depth slot on their
    /// shard-of-record, in the order they were built.
    backlog: VecDeque<ShardCommand>,
    /// Every issued command awaiting its final resolution: the retry,
    /// failover and timer ledger.
    outstanding: BTreeMap<CommandKey, OutstandingCommand>,
    /// Occupied depth slots per shard-of-record: its ledger entries.
    inflight: Vec<usize>,
    /// Ledger entries per stage (indexed by `TraceStage as usize`), for
    /// stage-overlap observation.
    stage_inflight: [usize; 2],
    /// Every count the report carries. Its dead flags — set by a device's
    /// dead-shard rejection — are what [`Core::pick_target`] routes every
    /// issue and re-issue away from.
    tally: Tally,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("pending", &self.queue.len())
            .field("dispatched", &self.next_position)
            .field("delivered", &self.next_to_deliver)
            .field("inflight", &self.inflight)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// The core of an engine built from `config` over `shards`, with no job
    /// yet.
    pub(crate) fn new(
        analyzer: Arc<MegisAnalyzer>,
        shards: ShardSet,
        config: &EngineConfig,
        trace: TraceSink,
    ) -> Core {
        let shard_count = shards.shard_count();
        Core {
            analyzer,
            shards,
            trace,
            queue_depth: config.queue_depth,
            retry_budget: config.retry_budget,
            retry_backoff: config.retry_backoff,
            command_deadline: config.command_deadline,
            capacity: config.queue_capacity,
            queue: JobQueue::new(config.policy),
            next_position: 0,
            // Each in-flight sample holds at most one outstanding command
            // per shard, so a full `queue_depth` needs that many samples in
            // the in-SSD stage plus the workers' hands; at the default depth
            // the classic `2 * workers + 2` is the larger term.
            lookahead: (2 * config.workers + 2).max(config.queue_depth + config.workers),
            devices: (0..shard_count).map(|_| Device::default()).collect(),
            reorder: BTreeMap::new(),
            opened: 0,
            jobs: BTreeMap::new(),
            next_to_deliver: 0,
            backlog: VecDeque::new(),
            outstanding: BTreeMap::new(),
            inflight: vec![0; shard_count],
            stage_inflight: [0; 2],
            tally: Tally::new(shard_count),
        }
    }

    /// Admits a closed set of jobs submitted at `now`, all of it or none:
    /// the set must fit the capacity *counting in-flight work*, so a job
    /// holds its slot from admission to delivery. Returns the ids in
    /// submission order.
    pub(crate) fn admit(
        &mut self,
        specs: Vec<JobSpec>,
        now: Instant,
    ) -> Result<Vec<JobId>, AdmissionError> {
        let capacity = self.capacity;
        if self.queue.len() + self.in_flight() + specs.len() > capacity {
            return Err(AdmissionError::QueueFull { capacity });
        }
        self.tally.admitted(now);
        let ids = specs.into_iter().map(|spec| self.queue.submit(spec, now));
        Ok(ids.collect())
    }

    /// Settles the core at `now` after `finished`, the unit a pool thread
    /// just ran (`None` for a woken or dwelling thread): books it — freeing
    /// the device a completion names — fires the due timers, issues every
    /// backlogged command that has a slot onto its device queue, and
    /// delivers every finished job at the head of the dispatch order.
    pub(crate) fn settle(&mut self, finished: Option<Event>, now: Instant) -> Settled {
        let before = self.next_wake();
        if let Some(event) = finished {
            self.on(event, now);
        }
        let issued = self.fire_timers(now) | self.submit_backlog(now);
        let deliveries = self.deliver(now);
        let occupied = self.devices.iter().map(|d| d.busy || !d.queue.is_empty());
        self.tally.settled(occupied, now);
        let wake = self.next_wake();
        let earlier = wake.is_some_and(|at| before.is_none_or(|held| at < held));
        Settled {
            notify: issued || !deliveries.is_empty() || earlier,
            deliveries,
            wake,
        }
    }

    /// Hands a pool thread its next unit: the queued command with the
    /// smallest `(dispatch seq, device, queue position)` among the devices
    /// no thread is serving, marking its device busy — else Step 1 for the
    /// next job under the policy, if the lookahead gate admits its
    /// position. The pop and the position share one critical section, so
    /// dispatch order is exactly policy order.
    pub(crate) fn pick(&mut self) -> Option<Work> {
        let ready = self.ready_command().and_then(|(index, at)| {
            let command = self.devices[index].queue.remove(at)?;
            Some((index, command))
        });
        if let Some((index, command)) = ready {
            let device = &mut self.devices[index];
            device.busy = true;
            device.popped += 1;
            return Some(Work::Command(index, device.popped, command));
        }
        if !self.step1_ready() {
            return None;
        }
        let job = self.queue.pop_next()?;
        let position = self.next_position;
        self.next_position += 1;
        Some(Work::Step1(job, position))
    }

    /// No job is queued or undelivered: quiescence for `drain`, and — once
    /// shutdown began — a pool thread's exit. No command waits on a device
    /// then: a delivered job's commands were all answered or retired.
    pub(crate) fn idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight() == 0
    }

    /// Jobs admitted but not yet dispatched to Step 1.
    pub(crate) fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Jobs dispatched to Step 1 and not yet delivered, failed ones
    /// included.
    pub(crate) fn in_flight(&self) -> usize {
        self.next_position - self.next_to_deliver
    }

    /// Occupied depth slots per shard.
    pub(crate) fn inflight(&self) -> &[usize] {
        &self.inflight
    }

    /// The counts the core folded so far, leaving an empty tally.
    pub(crate) fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }

    /// The `(device, queue position)` of the command [`Core::pick`] would
    /// take.
    fn ready_command(&self) -> Option<(usize, usize)> {
        let (_, index, at) = self
            .devices
            .iter()
            .enumerate()
            .filter(|(_, device)| !device.busy)
            .flat_map(|(index, device)| {
                let queued = device.queue.iter().enumerate();
                queued.map(move |(at, command)| (command.seq(), index, at))
            })
            .min()?;
        Some((index, at))
    }

    /// A job is queued and the lookahead gate admits its position.
    fn step1_ready(&self) -> bool {
        !self.queue.is_empty() && self.in_flight() < self.lookahead
    }

    /// The earliest instant a timer of the ledger is due: a retry's backoff
    /// running out or a command's deadline passing. `None` while no timer is
    /// armed — then only an event can give the core work.
    fn next_wake(&self) -> Option<Instant> {
        self.outstanding
            .values()
            .filter_map(|entry| {
                entry
                    .retry_at
                    .or_else(|| Some(entry.issued_at + self.command_deadline?))
            })
            .min()
    }

    /// Books one event at `now`: a prepared sample (opened at once if it is
    /// next in dispatch order, together with every buffered sample it
    /// unblocks) or a completion, whose device it frees.
    fn on(&mut self, event: Event, now: Instant) {
        match event {
            Event::Prepared(prepared) => {
                self.reorder.insert(prepared.start_position, prepared);
                while let Some(prepared) = self.reorder.remove(&self.opened) {
                    self.open(prepared, now);
                }
            }
            Event::Completed(completion) => {
                self.devices[completion.device].busy = false;
                self.reap(completion, now);
            }
        }
    }

    /// Removes every finished job at the head of the dispatch order, with
    /// its outcome.
    fn deliver(&mut self, now: Instant) -> Vec<(JobId, Result<JobResult, JobError>)> {
        let mut deliveries = Vec::new();
        while let Entry::Occupied(entry) = self.jobs.entry(self.next_to_deliver) {
            if !entry.get().is_complete() {
                break;
            }
            let job = entry.remove();
            self.next_to_deliver += 1;
            let id = job.prepared.id;
            let outcome = self.finalize(job, now);
            self.tally.delivered(&outcome);
            deliveries.push((id, outcome));
        }
        deliveries
    }

    /// Opens one prepared sample: its job record, stamped with the next
    /// `isp_position`, and one intersect command per shard whose slice of
    /// the sample's query list is non-empty, appended to the backlog. A
    /// sample with no such command goes straight to its presence call.
    fn open(&mut self, mut prepared: PreparedJob, now: Instant) {
        let seq = prepared.start_position;
        // Step 1's arena itself, moved: the commands below share the
        // allocation the worker sorted, and delivery only reads the counters
        // `take_kmers` leaves behind.
        let queries = Arc::new(prepared.step1.take_kmers());
        // Range-partitioned dispatch: each shard sees only the sub-slice of
        // the sorted query list overlapping its key range. A shard whose
        // slice is empty — every padding shard, and any populated shard this
        // sample's queries miss entirely — is skipped: an empty slice can
        // only intersect to nothing, and a no-op command would waste a slot.
        let before = self.backlog.len();
        for (shard, range) in self.shards.slice_queries(&queries).into_iter().enumerate() {
            if !range.is_empty() {
                self.backlog
                    .push_back(ShardCommand::Intersect(IntersectCommand {
                        shard,
                        attempt: 0,
                        seq,
                        queries: Arc::clone(&queries),
                        range,
                    }));
            }
        }
        let expected = self.backlog.len() - before;
        let job = Job::new(
            prepared,
            self.opened,
            expected,
            now,
            self.shards.shard_count(),
        );
        self.opened += 1;
        self.jobs.insert(seq, job);
        if expected == 0 {
            self.start_step3(seq);
        }
    }

    /// Counts one completion against the device that answered — whatever
    /// it settles, the device did the work — then books it into its job and
    /// frees the command's slot, or, for a failed attempt, schedules a retry
    /// or fails the owning job. A completion whose command left the ledger
    /// (its job failed) or whose attempt is stale (a blown deadline already
    /// re-issued it) settles nothing: its slot was freed exactly once.
    fn reap(&mut self, completion: ShardCompletion, now: Instant) {
        self.tally.answered(&completion);
        let key = key(&completion.command);
        let Some(entry) = self.outstanding.get(&key) else {
            return;
        };
        if entry.command.attempt() != completion.command.attempt() {
            return;
        }
        let output = match completion.result {
            Ok(output) => output,
            Err(failure) => return self.handle_failure(key, failure, now),
        };
        let (seq, shard, stage) = key;
        self.outstanding.remove(&key);
        self.release(shard, stage);
        #[expect(
            clippy::expect_used,
            reason = "a ledgered command's job is open and unfailed: failing a job retires \
                      its commands from the ledger"
        )]
        let job = self.jobs.get_mut(&seq).expect("completion for an open job");
        job.timeline
            .fold(stage, completion.started, completion.done);
        match output {
            CommandOutput::Intersection(support) => {
                job.fold_step2(shard, support);
                if job.remaining == 0 {
                    self.start_step3(seq);
                }
            }
            CommandOutput::Step3(output) => job.fold_step3(output),
        }
    }

    /// One command attempt failed: arm a retry within the budget, or fail
    /// the owning job (panics are non-recoverable by design — the worker
    /// state after a caught panic is not trusted for a replay).
    fn handle_failure(&mut self, key: CommandKey, failure: CommandFailure, now: Instant) {
        let (seq, shard, stage) = key;
        let Some(entry) = self.outstanding.get_mut(&key) else {
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
            entry.retry_at = Some(now + backoff_delay(self.retry_backoff, attempt));
        }
    }

    /// Fires every timer due at `now`, in key order: a command past its
    /// deadline fails its current attempt transiently, then every command
    /// whose retry is due — one that just failed with a zero backoff
    /// included — is re-issued. Returns whether it issued a command.
    fn fire_timers(&mut self, now: Instant) -> bool {
        if let Some(deadline) = self.command_deadline {
            let expired: Vec<CommandKey> = self
                .outstanding
                .iter()
                .filter(|(_, entry)| entry.retry_at.is_none() && entry.issued_at + deadline <= now)
                .map(|(key, _)| *key)
                .collect();
            for key in expired {
                self.handle_failure(key, CommandFailure::Transient, now);
            }
        }
        let due: Vec<CommandKey> = self
            .outstanding
            .iter()
            .filter(|(_, entry)| entry.retry_at.is_some_and(|at| at <= now))
            .map(|(key, _)| *key)
            .collect();
        let mut issued = false;
        for key in due {
            issued |= self.reissue(key, now);
        }
        issued
    }

    /// Re-issues one ledgered command with a bumped attempt counter to
    /// [`Core::pick_target`]'s device (every device serves from the whole
    /// `ShardSet`, so any survivor serves the command identically), or
    /// fails its job when every device is dead. The new attempt replaces a
    /// stale one still queued. Returns whether it issued.
    fn reissue(&mut self, key: CommandKey, now: Instant) -> bool {
        let (seq, shard, stage) = key;
        let target = self.pick_target(shard);
        let Some(entry) = self.outstanding.get_mut(&key) else {
            return false;
        };
        let Some(target) = target else {
            self.fail_job(seq, |job| JobError::NoLiveShards { job });
            return false;
        };
        entry.command.bump_attempt();
        entry.issued_at = now;
        entry.retry_at = None;
        let attempt = entry.command.attempt();
        let command = entry.command.clone();
        self.tally.retried(shard, target != shard);
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
        self.unqueue(|queued| queued == key);
        self.devices[target].queue.push_back(command);
        true
    }

    /// The device a command of shard-of-record `record` is put on — the
    /// one place a device is chosen, for first issues and re-issues alike:
    /// the record shard while it lives, else the next live shard by index;
    /// `None` when every device is dead.
    fn pick_target(&self, record: usize) -> Option<usize> {
        let shard_count = self.shards.shard_count();
        (0..shard_count)
            .map(|offset| (record + offset) % shard_count)
            .find(|&shard| !self.tally.is_dead(shard))
    }

    /// Marks job `seq` failed in place — the first error sticks, and the job
    /// is delivered at its turn in dispatch order — and retires every
    /// command of the job still ledgered, backlogged or queued on a device:
    /// ledgered ones free their depth slots exactly once, a late completion
    /// of one finds nothing to settle, and a queued one is never served.
    fn fail_job(&mut self, seq: usize, error: impl FnOnce(JobId) -> JobError) {
        let Some(job) = self.jobs.get_mut(&seq) else {
            return;
        };
        let id = job.prepared.id;
        job.failed.get_or_insert_with(|| error(id));
        let keys: Vec<CommandKey> = self
            .outstanding
            .range((seq, 0, TraceStage::Intersect)..=(seq, usize::MAX, TraceStage::Step3))
            .map(|(key, _)| *key)
            .collect();
        for (_, shard, stage) in keys {
            self.outstanding.remove(&(seq, shard, stage));
            self.release(shard, stage);
        }
        self.backlog.retain(|command| command.seq() != seq);
        self.unqueue(|(queued, _, _)| queued == seq);
    }

    /// Drops every queued command whose key `retired` matches from the
    /// device queues.
    fn unqueue(&mut self, retired: impl Fn(CommandKey) -> bool) {
        for device in &mut self.devices {
            device.queue.retain(|command| !retired(key(command)));
        }
    }

    /// Finishes one job's Step 2 — the devices already intersected and
    /// retrieved, and their supports were summed as they arrived, so only
    /// the presence call over the sum is left — then hands the job's whole
    /// Step 3 to the backlog as one command on shard `seq % shards`. A job
    /// with no candidates maps nothing: no command, and its Step 3 result is
    /// the empty one.
    fn start_step3(&mut self, seq: usize) {
        #[expect(
            clippy::expect_used,
            reason = "Step 3 starts only for an open job: `open` just inserted it, or its \
                      last support was folded into it"
        )]
        let job = self.jobs.get_mut(&seq).expect("an open job");
        let presence = Arc::new(self.analyzer.call_presence(&job.step2));
        job.presence = Some(Arc::clone(&presence));
        if presence.is_empty() {
            job.fold_step3(Step3Output::default());
            return;
        }
        self.backlog.push_back(ShardCommand::Step3(Step3Command {
            seq,
            record_shard: seq % self.shards.shard_count(),
            attempt: 0,
            sample: Arc::clone(&job.prepared.sample),
            presence,
        }));
    }

    /// Issues backlogged commands of both kinds whose shard-of-record has a
    /// free depth slot, in backlog order per shard; the rest take slots as
    /// later completions free them. Each issue occupies the record shard's
    /// slot, records `CommandIssued` for the device
    /// [`Core::pick_target`] chose and enters the ledger as it joins that
    /// device's queue. With every device dead the command goes to its
    /// record shard, which rejects it, and the re-issue fails the job.
    /// Returns whether it issued a command.
    fn submit_backlog(&mut self, now: Instant) -> bool {
        let mut issued = false;
        for command in std::mem::take(&mut self.backlog) {
            let (seq, record, stage) = key(&command);
            if self.inflight[record] >= self.queue_depth {
                self.backlog.push_back(command);
                continue;
            }
            self.occupy(record, stage);
            let device = self.pick_target(record).unwrap_or(record);
            self.trace.record(
                seq,
                TraceEventKind::CommandIssued {
                    stage,
                    shard: device,
                },
            );
            self.outstanding.insert(
                (seq, record, stage),
                OutstandingCommand {
                    command: command.clone(),
                    issued_at: now,
                    retry_at: None,
                },
            );
            self.devices[device].queue.push_back(command);
            issued = true;
        }
        issued
    }

    /// Takes one depth slot of `shard` for a `stage` command and tallies
    /// the shard's occupancy and whether a command of the other stage is
    /// outstanding.
    fn occupy(&mut self, shard: usize, stage: TraceStage) {
        self.inflight[shard] += 1;
        self.stage_inflight[stage as usize] += 1;
        let overlaps = self.stage_inflight[1 - stage as usize] > 0;
        self.tally.issued(shard, self.inflight[shard], overlaps);
    }

    /// Frees the slot [`Core::occupy`] took, exactly once per command:
    /// when it leaves the ledger.
    fn release(&mut self, shard: usize, stage: TraceStage) {
        self.inflight[shard] -= 1;
        self.stage_inflight[stage as usize] -= 1;
    }

    /// Assembles one job's output from its folded Step 2 support, presence
    /// call and Step 3 result, and — with tracing on — its stage breakdown
    /// from its folded timeline; a failed job yields its error.
    fn finalize(&self, job: Job, now: Instant) -> Result<JobResult, JobError> {
        let seq = job.prepared.start_position;
        let job_id = job.prepared.id.0;
        if let Some(error) = job.failed {
            self.trace
                .record(seq, TraceEventKind::Delivered { job: job_id });
            return Err(error);
        }
        let reduce_started = self.trace.now();
        self.trace
            .record_at(reduce_started, seq, TraceEventKind::ReduceStarted);
        #[expect(
            clippy::expect_used,
            reason = "an unfailed complete job has its Step 3 result, and `start_step3` \
                      called presence before any Step 3 result could fill the slot"
        )]
        let (step3, presence) = (
            job.step3.expect("complete job has its step 3 result"),
            job.presence.expect("complete job called presence"),
        );
        let output = MegisOutput {
            presence: Arc::unwrap_or_clone(presence),
            abundance: step3.abundance,
            intersecting_kmers: job.step2.hits,
            selected_kmers: job.prepared.step1.selected_kmers,
            mapped_reads: step3.mapped_reads,
        };
        self.trace.record(seq, TraceEventKind::ReduceFinished);
        let prepared = job.prepared;
        // The breakdown ends at the instant the Delivered event gets.
        let breakdown = self.trace.is_enabled().then(|| {
            let delivered = self.trace.now();
            self.trace
                .record_at(delivered, seq, TraceEventKind::Delivered { job: job_id });
            job.timeline.breakdown(
                prepared.queue_wait,
                prepared.step1_time,
                prepared.step1_done,
                reduce_started,
                delivered,
            )
        });
        Ok(JobResult {
            id: prepared.id,
            label: prepared.label,
            priority: prepared.priority,
            start_position: prepared.start_position,
            isp_position: job.isp_position,
            output,
            queue_wait: prepared.queue_wait,
            step1_time: prepared.step1_time,
            isp_time: now.saturating_duration_since(job.isp_start),
            latency: now.saturating_duration_since(prepared.submitted_at),
            breakdown,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::OnceLock;

    use megis::config::MegisConfig;
    use megis_genomics::read::ReadSet;
    use megis_genomics::sample::{CommunityConfig, Diversity};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::fault::FaultPlan;
    use crate::shard::ShardWorker;
    use crate::trace::DEFAULT_TRACE_CAPACITY;

    impl Core {
        /// Every opened job is delivered and no command waits for a slot.
        fn is_done(&self) -> bool {
            self.backlog.is_empty() && self.jobs.is_empty()
        }

        /// Some issued command has not been resolved.
        fn has_outstanding(&self) -> bool {
            !self.outstanding.is_empty()
        }

        /// Commands waiting on the device queues.
        fn queued(&self) -> usize {
            self.devices.iter().map(|device| device.queue.len()).sum()
        }
    }

    /// The analyzer, the samples the schedules draw from, their Step 1
    /// outputs and the sequential oracle's answers: built once.
    struct Fixture {
        analyzer: Arc<MegisAnalyzer>,
        samples: Vec<Arc<Sample>>,
        step1: Vec<Step1Output>,
        expected: Vec<MegisOutput>,
    }

    /// The fixture's first sample, mapped against the database. The others
    /// are a smaller mapped one, an empty one (no command at all) and one
    /// from another seed's references (no candidate, so no Step 3 command).
    const MAPPED: usize = 0;

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let community = CommunityConfig::preset(Diversity::Medium)
                .with_reads(100)
                .with_database_species(10)
                .build(23);
            let foreign = CommunityConfig::preset(Diversity::Medium)
                .with_reads(60)
                .with_database_species(10)
                .build(4242);
            let analyzer = MegisAnalyzer::build(community.references(), MegisConfig::small());
            let reads = community
                .sample()
                .reads()
                .iter()
                .take(30)
                .cloned()
                .collect();
            let samples: Vec<Arc<Sample>> = [
                community.sample().clone(),
                Sample::from_reads(reads),
                Sample::from_reads(ReadSet::new()),
                foreign.sample().clone(),
            ]
            .into_iter()
            .map(Arc::new)
            .collect();
            let step1 = samples.iter().map(|s| analyzer.run_step1(s)).collect();
            let expected = samples.iter().map(|s| analyzer.analyze(s)).collect();
            Fixture {
                analyzer: Arc::new(analyzer),
                samples,
                step1,
                expected,
            }
        })
    }

    fn prepared(position: usize, sample: usize, now: Instant) -> PreparedJob {
        let f = fixture();
        PreparedJob {
            id: JobId(position as u64),
            label: format!("s{position}"),
            priority: Priority::default(),
            start_position: position,
            sample: Arc::clone(&f.samples[sample]),
            submitted_at: now,
            queue_wait: Duration::ZERO,
            step1_time: Duration::ZERO,
            step1_done: TraceSink::disabled().now(),
            step1: f.step1[sample].clone(),
        }
    }

    /// A core on `config.shards` shards recording into `trace`, and a
    /// device that serves any of the shards.
    fn traced_core(config: &EngineConfig, trace: TraceSink) -> (Core, ShardWorker) {
        let f = fixture();
        let shards = ShardSet::build(f.analyzer.database(), config.shards);
        let device = ShardWorker::new(shards.clone(), Arc::clone(&f.analyzer));
        let core = Core::new(Arc::clone(&f.analyzer), shards, config, trace);
        (core, device)
    }

    /// [`traced_core`] with tracing off.
    fn core(config: &EngineConfig) -> (Core, ShardWorker) {
        traced_core(config, TraceSink::disabled())
    }

    /// `device`'s answer to `command`: `result`, with no busy time and
    /// untraced stamps.
    fn completion(
        command: &ShardCommand,
        device: usize,
        result: Result<CommandOutput, CommandFailure>,
    ) -> ShardCompletion {
        let at = TraceSink::disabled().now();
        ShardCompletion {
            command: command.clone(),
            device,
            busy: Duration::ZERO,
            started: at,
            done: at,
            result,
        }
    }

    /// The shard-of-record's answer to `command` with `result`.
    fn answer(command: &ShardCommand, result: Result<CommandOutput, CommandFailure>) -> Event {
        Event::Completed(completion(command, command.record_shard(), result))
    }

    /// Per-shard `f` of the core's tally.
    fn per_shard<T>(core: &Core, f: impl Fn(&crate::ShardStats) -> T) -> Vec<T> {
        core.tally.shards().iter().map(f).collect()
    }

    /// The command `core` picks next; panics on anything else.
    fn pick_command(core: &mut Core) -> ShardCommand {
        match core.pick() {
            Some(Work::Command(_, _, command)) => command,
            Some(Work::Step1(..)) => panic!("picked a Step 1, not a command"),
            None => panic!("nothing to pick"),
        }
    }

    /// Settles `event` into `core` at `now`; returns the delivered outcomes.
    fn settle(core: &mut Core, event: Event, now: Instant) -> Vec<Result<JobResult, JobError>> {
        let settled = core.settle(Some(event), now);
        settled.deliveries.into_iter().map(|(_, o)| o).collect()
    }

    /// Serves `first`, if given, and then every command the core picks,
    /// until it picks none; returns the delivered outcomes.
    fn serve_until_delivered(
        core: &mut Core,
        device: &ShardWorker,
        first: Option<ShardCommand>,
        now: Instant,
    ) -> Vec<Result<JobResult, JobError>> {
        let mut delivered = Vec::new();
        let mut next = first;
        while let Some(command) = next.take().or_else(|| match core.pick() {
            Some(Work::Command(_, _, command)) => Some(command),
            _ => None,
        }) {
            let event = answer(&command, Ok(device.serve(&command)));
            delivered.extend(settle(core, event, now));
        }
        delivered
    }

    /// A job on two shards with both stages' completions outstanding.
    fn two_shard_job() -> Job {
        let now = Instant::now();
        Job::new(prepared(0, MAPPED, now), 0, 2, now, 2)
    }

    #[test]
    #[should_panic(expected = "step 3 result folded twice")]
    fn a_step3_result_folded_twice_panics() {
        // A job has one Step 3 slot: a second result would silently replace
        // the first, so the fold refuses. (The ledger discards duplicate and
        // stale completions before they get here; this is the backstop.)
        let mut job = two_shard_job();
        assert!(!job.is_complete());
        job.remaining = 0;
        job.fold_step3(Step3Output::default());
        assert!(job.is_complete());
        job.fold_step3(Step3Output::default());
    }

    #[test]
    #[should_panic(expected = "step 2 support of shard 1 folded twice")]
    fn a_step2_support_folded_twice_panics() {
        // Supports add too: the same backstop, per `(seq, shard)`.
        let mut job = two_shard_job();
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
    fn admission_counts_in_flight_work_and_rejects_a_set_whole() {
        let config = EngineConfig::new().with_shards(1).with_queue_capacity(3);
        let (mut core, _) = core(&config);
        let now = Instant::now();
        let specs = |n: usize| {
            let empty = || Sample::clone(&fixture().samples[2]);
            (0..n)
                .map(|i| JobSpec::new(format!("s{i}"), empty()))
                .collect()
        };
        assert_eq!(core.admit(specs(2), now), Ok(vec![JobId(0), JobId(1)]));
        // The first job leaves the queue for Step 1 and keeps its slot.
        let Some(Work::Step1(job, 0)) = core.pick() else {
            panic!("Step 1 of the first job");
        };
        assert_eq!(job.submitted_at, now, "stamped with the instant passed in");
        assert_eq!((core.pending(), core.in_flight()), (1, 1));
        // One queued and one in flight: two more do not fit a capacity of 3.
        let full = Err(AdmissionError::QueueFull { capacity: 3 });
        assert_eq!(core.admit(specs(2), now), full);
        assert_eq!(
            core.pending(),
            1,
            "nothing of the rejected set was admitted"
        );
        assert_eq!(
            core.admit(specs(1), now),
            Ok(vec![JobId(2)]),
            "the rejected set consumed no id"
        );
        assert_eq!(core.admit(specs(1), now), full);
    }

    #[test]
    fn opening_a_sample_shares_step1s_arena_instead_of_copying_it() {
        let f = fixture();
        let config = EngineConfig::new().with_workers(1).with_shards(2);
        let (mut core, device) = core(&config);
        let now = Instant::now();
        let job = prepared(0, MAPPED, now);
        let (arena, queries) = (job.step1.kmers().as_ptr(), job.step1.sorted_kmers());
        core.on(Event::Prepared(job), now);
        let opened = &core.jobs[&0];
        assert_eq!(
            (opened.prepared.start_position, opened.isp_position),
            (0, 0)
        );
        assert_eq!(opened.prepared.step1.selected_kmers, queries.len() as u64);
        assert_eq!(opened.remaining, core.backlog.len());
        for command in &core.backlog {
            let ShardCommand::Intersect(command) = command else {
                panic!("a sample opens with intersect commands only");
            };
            assert_eq!(command.queries.as_ptr(), arena, "moved, not copied");
            assert_eq!(*command.queries, queries);
            assert_eq!(command.seq, 0);
        }
        assert_eq!(
            core.backlog.len(),
            config.shards,
            "both shards hold genome k-mers"
        );

        // And the job delivered through the same core is unchanged.
        core.settle(None, now);
        let delivered = serve_until_delivered(&mut core, &device, None, now);
        let [Ok(result)] = &delivered[..] else {
            panic!("one job served: {delivered:?}");
        };
        assert_eq!(result.output, f.expected[MAPPED]);
        assert!(!core.has_outstanding());
    }

    #[test]
    fn backoff_timers_fire_at_their_instant_and_not_before() {
        // Base backoff b doubles per failed attempt and caps at 8b: the
        // core asks to be woken exactly then, and a settle a microsecond
        // early issues nothing.
        let b = Duration::from_millis(10);
        let config = EngineConfig::new()
            .with_shards(1)
            .with_retry_budget(8)
            .with_retry_backoff(b);
        let (mut core, device) = core(&config);
        let mut now = Instant::now();
        core.settle(Some(Event::Prepared(prepared(0, MAPPED, now))), now);
        let mut command = pick_command(&mut core);
        assert_eq!(core.next_wake(), None, "no timer without a deadline");
        for (attempt, factor) in [1u32, 2, 4, 8, 8].into_iter().enumerate() {
            assert_eq!(command.attempt(), attempt as u32);
            now += Duration::from_micros(300);
            core.settle(Some(answer(&command, Err(CommandFailure::Transient))), now);
            let due = now + b * factor;
            assert_eq!(core.next_wake(), Some(due), "attempt {attempt}");
            let early = core.settle(None, due - Duration::from_micros(1));
            assert!(early.deliveries.is_empty() && core.queued() == 0);
            assert_eq!(core.inflight(), [1], "a retry keeps its slot");
            now = due;
            core.settle(None, now);
            assert_eq!(core.queued(), 1, "attempt {attempt} re-issued when due");
            command = pick_command(&mut core);
        }
        let delivered = serve_until_delivered(&mut core, &device, Some(command), now);
        let [Ok(result)] = &delivered[..] else {
            panic!("the job survives its retries: {delivered:?}");
        };
        assert_eq!(result.output, fixture().expected[MAPPED]);
        assert_eq!(per_shard(&core, |s| s.retries), [5]);
    }

    #[test]
    fn a_blown_deadline_reissues_and_the_late_answer_is_ignored() {
        let deadline = Duration::from_millis(5);
        let config = EngineConfig::new()
            .with_shards(1)
            .with_command_deadline(deadline);
        let (mut core, device) = core(&config);
        let start = Instant::now();
        core.settle(Some(Event::Prepared(prepared(0, MAPPED, start))), start);
        // The device takes the command before its deadline and sits on it.
        let stuck = pick_command(&mut core);
        assert_eq!(core.next_wake(), Some(start + deadline));
        let early = core.settle(None, start + deadline - Duration::from_micros(1));
        assert!(early.deliveries.is_empty() && core.queued() == 0);
        let now = start + deadline;
        core.settle(None, now);
        assert_eq!(core.queued(), 1, "re-issued at the deadline");
        assert_eq!(
            core.next_wake(),
            Some(now + deadline),
            "the deadline re-arms"
        );
        // The stuck attempt answers late: stale, so nothing is folded and
        // the slot is not freed a second time — yet the device did the
        // work, and the tally credits it.
        let busy = |ms| Duration::from_millis(ms);
        let late = ShardCompletion {
            busy: busy(3),
            ..completion(&stuck, 0, Ok(device.serve(&stuck)))
        };
        core.on(Event::Completed(late), now);
        assert_eq!(core.inflight(), [1]);
        assert_eq!(core.jobs[&0].remaining, 1);
        let ShardCommand::Intersect(intersect) = &stuck else {
            panic!("a sample opens with an intersect command");
        };
        let items = intersect.range.len() as u64;
        assert_eq!(per_shard(&core, |s| (s.jobs, s.query_items)), [(1, items)]);
        assert_eq!(per_shard(&core, |s| s.busy), [busy(3)]);
        let retry = pick_command(&mut core);
        assert_eq!(retry.attempt(), stuck.attempt() + 1);
        let current = ShardCompletion {
            busy: busy(2),
            ..completion(&retry, 0, Ok(device.serve(&retry)))
        };
        core.on(Event::Completed(current), now);
        assert_eq!(core.inflight(), [0], "freed once, by the current attempt");
        assert_eq!(
            per_shard(&core, |s| (s.jobs, s.query_items, s.busy)),
            [(2, 2 * items, busy(5))],
            "the late answer and the current one both count"
        );
        core.settle(None, now);
        let delivered = serve_until_delivered(&mut core, &device, None, now);
        let [Ok(result)] = &delivered[..] else {
            panic!("the job survives its deadline: {delivered:?}");
        };
        assert_eq!(result.output, fixture().expected[MAPPED]);
        assert_eq!(per_shard(&core, |s| s.retries), [1]);
    }

    #[test]
    fn a_command_that_waits_out_its_deadline_in_its_queue_is_served_once() {
        // Regression: the re-issue used to queue beside the stale attempt
        // still waiting, and the device served both.
        let deadline = Duration::from_millis(5);
        let config = EngineConfig::new()
            .with_shards(1)
            .with_command_deadline(deadline);
        let (mut core, device) = core(&config);
        let start = Instant::now();
        core.settle(Some(Event::Prepared(prepared(0, MAPPED, start))), start);
        let now = start + deadline;
        core.settle(None, now);
        assert_eq!(core.queued(), 1, "the re-issue replaced the stale attempt");
        let Some(Work::Command(0, 1, command)) = core.pick() else {
            panic!("the device's first pick");
        };
        assert_eq!(command.attempt(), 1, "picked at attempt 1");
        let delivered = serve_until_delivered(&mut core, &device, Some(command), now);
        let [Ok(result)] = &delivered[..] else {
            panic!("the job survives its deadline: {delivered:?}");
        };
        assert_eq!(result.output, fixture().expected[MAPPED]);
        assert_eq!(per_shard(&core, |s| (s.jobs, s.retries)), [(1, 1)]);
    }

    #[test]
    fn a_failed_jobs_queued_commands_are_never_served() {
        // Regression: failing a job retired its commands from the ledger but
        // not from the device queues, so a pool thread still served them.
        let config = EngineConfig::new().with_shards(2);
        let (mut core, _) = core(&config);
        let now = Instant::now();
        core.settle(Some(Event::Prepared(prepared(0, MAPPED, now))), now);
        let first = pick_command(&mut core);
        assert_eq!(first.record_shard(), 0, "the oldest command, lowest device");
        assert_eq!(core.queued(), 1, "shard 1's command waits on device 1");
        let delivered = settle(
            &mut core,
            answer(&first, Err(CommandFailure::Panicked)),
            now,
        );
        let [Err(JobError::WorkerPanicked { shard: 0, .. })] = &delivered[..] else {
            panic!("the job fails on its panic: {delivered:?}");
        };
        assert!(core.pick().is_none(), "shard 1's command was retired");
        assert_eq!(core.devices[1].popped, 0);
        assert_eq!(per_shard(&core, |s| s.jobs), [0, 0]);
    }

    /// Serves `command` on its shard-of-record as a device that started at
    /// `started` and finished at `done`.
    fn served_at(
        device: &ShardWorker,
        command: &ShardCommand,
        started: TraceStamp,
        done: TraceStamp,
    ) -> Event {
        Event::Completed(ShardCompletion {
            started,
            done,
            ..completion(command, command.record_shard(), Ok(device.serve(command)))
        })
    }

    /// A traced sink and a clock on it that moves by at least a millisecond
    /// per reading.
    fn ticking_trace() -> (TraceSink, impl Fn() -> TraceStamp) {
        let trace = TraceSink::bounded(1024);
        let clock = trace.clone();
        let tick = move || {
            crate::lock::sleep(&mut crate::lock::test_token(), Duration::from_millis(1));
            clock.now()
        };
        (trace, tick)
    }

    #[test]
    fn step2_wait_runs_to_the_earliest_device_start_whatever_the_completion_order() {
        // The job's two intersect commands overlap on two devices, and the
        // later-started one finishes first, so its completion arrives first.
        // Step 2's window still opens at the earlier start and closes at the
        // later finish.
        let (trace, tick) = ticking_trace();
        let (mut core, device) = traced_core(&EngineConfig::new().with_shards(2), trace);
        let now = Instant::now();
        let step1_done = tick();
        let job = PreparedJob {
            step1_done,
            ..prepared(0, MAPPED, now)
        };
        core.settle(Some(Event::Prepared(job)), now);
        let (early, late) = (pick_command(&mut core), pick_command(&mut core));
        let (early_start, late_start, late_done, early_done) = (tick(), tick(), tick(), tick());
        core.settle(Some(served_at(&device, &late, late_start, late_done)), now);
        core.settle(
            Some(served_at(&device, &early, early_start, early_done)),
            now,
        );
        let delivered = serve_until_delivered(&mut core, &device, None, now);
        let [Ok(result)] = &delivered[..] else {
            panic!("one job served: {delivered:?}");
        };
        let b = result.breakdown.expect("tracing is on");
        let span = |from: TraceStamp, to: TraceStamp| to.since_epoch() - from.since_epoch();
        assert_eq!(b.step2_wait, span(step1_done, early_start));
        assert_eq!(b.step2_service, span(early_start, early_done));
    }

    #[test]
    fn a_faulted_attempt_leaves_the_job_timeline_alone() {
        // The first attempt fails at an early instant; only the retry that
        // served the command opens the job's Step 2 window.
        let (trace, tick) = ticking_trace();
        let (mut core, device) = traced_core(&EngineConfig::new().with_shards(1), trace);
        let now = Instant::now();
        let step1_done = tick();
        let job = PreparedJob {
            step1_done,
            ..prepared(0, MAPPED, now)
        };
        core.settle(Some(Event::Prepared(job)), now);
        let first = pick_command(&mut core);
        let failed_at = tick();
        let failed = Event::Completed(ShardCompletion {
            started: failed_at,
            done: failed_at,
            ..completion(&first, 0, Err(CommandFailure::Transient))
        });
        core.settle(Some(failed), now);
        let retry = pick_command(&mut core);
        let (started, done) = (tick(), tick());
        core.settle(Some(served_at(&device, &retry, started, done)), now);
        let delivered = serve_until_delivered(&mut core, &device, None, now);
        let [Ok(result)] = &delivered[..] else {
            panic!("the job survives its fault: {delivered:?}");
        };
        let b = result.breakdown.expect("tracing is on");
        let span = |from: TraceStamp, to: TraceStamp| to.since_epoch() - from.since_epoch();
        assert_eq!(b.step2_wait, span(step1_done, started));
        assert_eq!(b.step2_service, span(started, done));
        assert_eq!(per_shard(&core, |s| s.faults), [1]);
    }

    /// One virtual pool thread of the explorer, modelled on `pool_thread`.
    enum Thread {
        /// Runs a round next: just started, notified, or its timer passed.
        Ready,
        /// Runs a unit `pick` handed it at this instant.
        Running(Work, Instant),
        /// Parked until a notify, or until the clock passes its timer.
        Parked(Option<Instant>),
        /// Returned: shutdown began and the core was idle.
        Exited,
    }

    /// One seeded schedule over the core, run by `workers` virtual pool
    /// threads on a fake clock. Each thread runs the rounds `pool_thread`
    /// runs — settle, pick, wake the others if told to, park — and the
    /// units its picks hand it: Step 1 from the fixture, commands through
    /// [`ShardWorker::serve`] under the fault plan's verdict. Every choice —
    /// which thread acts next, how long a unit takes, faults, a device's
    /// death — comes from the seed.
    struct Schedule {
        seed: u64,
        core: Core,
        device: ShardWorker,
        depth: usize,
        plan: FaultPlan,
        /// The fixture sample of each job, by id.
        jobs: Vec<usize>,
        threads: Vec<Thread>,
        /// When the batch was admitted, on the fake clock.
        admitted: Instant,
        now: Instant,
        /// Rounds run since the last finished unit or clock jump: how long
        /// the current notify cascade has run.
        cascade: usize,
        faults: u64,
        /// Answers that served their command.
        served: u64,
        /// Per device, whether it rejected a command as dead.
        answered_dead: Vec<bool>,
        /// Per shard, whether a command of that shard-of-record was picked.
        picked: Vec<bool>,
        failed_attempts: HashSet<(CommandKey, u32)>,
        deadline_expired: bool,
        delivered: Vec<(JobId, Result<JobResult, JobError>)>,
    }

    impl Schedule {
        /// Thread `t`'s round after `finished`: the critical section of
        /// `pool_thread`.
        fn round(&mut self, t: usize, finished: Option<Event>) {
            let settled = self.core.settle(finished, self.now);
            // Latency runs from admission to delivery on the fake clock.
            for (_, outcome) in &settled.deliveries {
                if let Ok(result) = outcome {
                    assert_eq!(
                        result.latency,
                        self.now - self.admitted,
                        "seed {}: job {:?}",
                        self.seed,
                        result.id
                    );
                }
            }
            self.delivered.extend(settled.deliveries);
            // Shutdown began at admission: the batch is closed.
            let (next, exit) = match self.core.pick() {
                Some(work) => (Thread::Running(work, self.now), false),
                None if self.core.idle() => (Thread::Exited, true),
                None => (Thread::Parked(settled.wake), false),
            };
            if settled.notify || exit {
                self.notify_all();
            }
            self.threads[t] = next;
        }

        /// The condvar's `notify_all`: every parked thread becomes ready.
        fn notify_all(&mut self) {
            for thread in &mut self.threads {
                if matches!(thread, Thread::Parked(_)) {
                    *thread = Thread::Ready;
                }
            }
        }

        /// Wakes every parked thread whose timer the clock has passed.
        fn wake_due(&mut self) {
            let now = self.now;
            for thread in &mut self.threads {
                if matches!(thread, Thread::Parked(Some(at)) if *at <= now) {
                    *thread = Thread::Ready;
                }
            }
        }

        /// Runs one unit picked at `picked` to its end and returns the
        /// event it produced; a command was busy until now.
        fn finish(&mut self, work: Work, picked: Instant) -> Event {
            let (device, popped, command) = match work {
                Work::Step1(job, position) => {
                    let sample = self.jobs[job.id.0 as usize];
                    return Event::Prepared(PreparedJob {
                        id: job.id,
                        ..prepared(position, sample, job.submitted_at)
                    });
                }
                Work::Command(device, popped, command) => (device, popped, command),
            };
            self.picked[command.record_shard()] = true;
            let result = match self.plan.verdict(device, popped, &command) {
                Ok(_) => Ok(self.device.serve(&command)),
                Err(failure) => Err(failure),
            };
            match result {
                Ok(_) => self.served += 1,
                Err(failure) => {
                    self.faults += 1;
                    self.answered_dead[device] |= failure == CommandFailure::ShardDead;
                    self.failed_attempts
                        .insert((key(&command), command.attempt()));
                }
            }
            Event::Completed(ShardCompletion {
                busy: self.now - picked,
                ..completion(&command, device, result)
            })
        }

        /// One step: a ready thread runs its round, or a running thread
        /// finishes its unit after a random time and runs its round, or —
        /// with every thread parked — the clock jumps to the earliest timer.
        /// Returns `false` once every thread has exited.
        fn step(&mut self, rng: &mut StdRng) -> bool {
            let actors: Vec<usize> = (0..self.threads.len())
                .filter(|&t| matches!(self.threads[t], Thread::Ready | Thread::Running(..)))
                .collect();
            if actors.is_empty() {
                let timers = self.threads.iter().filter_map(|thread| match thread {
                    Thread::Parked(at) => Some(at.expect("the pool hangs: parked with no timer")),
                    _ => None,
                });
                let Some(at) = timers.min() else {
                    return false;
                };
                self.now = self.now.max(at);
                self.cascade = 0;
            } else {
                let t = actors[rng.gen_range(0..actors.len())];
                match std::mem::replace(&mut self.threads[t], Thread::Ready) {
                    Thread::Running(work, picked) => {
                        self.now += Duration::from_micros(rng.gen_range(0..=2000));
                        self.cascade = 0;
                        let event = self.finish(work, picked);
                        self.round(t, Some(event));
                    }
                    _ => {
                        self.cascade += 1;
                        self.round(t, None);
                    }
                }
            }
            self.wake_due();
            true
        }

        /// The invariants every step keeps.
        fn check(&mut self) {
            let (seed, workers) = (self.seed, self.threads.len());
            let core = &self.core;
            // (i) Work conservation.
            if self.threads.iter().any(|t| matches!(t, Thread::Parked(_))) {
                assert!(
                    core.ready_command().is_none() && !core.step1_ready(),
                    "seed {seed}: a thread is parked while pick would hand out work"
                );
            }
            // (ii) Quiescence: a notify cascade with no new event ends.
            assert!(
                self.cascade <= workers,
                "seed {seed}: {} rounds of notify cascade with no new event",
                self.cascade
            );
            // (iii) One command per device, at most `workers` units.
            let mut serving = vec![0; core.devices.len()];
            for thread in &self.threads {
                if let Thread::Running(Work::Command(device, ..), _) = thread {
                    serving[*device] += 1;
                }
            }
            for (device, state) in core.devices.iter().enumerate() {
                assert_eq!(
                    usize::from(state.busy),
                    serving[device],
                    "seed {seed}: device {device} serves one command at a time"
                );
            }
            let running = self
                .threads
                .iter()
                .filter(|t| matches!(t, Thread::Running(..)));
            assert!(running.count() <= workers, "seed {seed}");
            // (iv) The lookahead gate and the queue depth.
            assert!(
                core.in_flight() <= core.lookahead,
                "seed {seed}: {} jobs in flight, lookahead {}",
                core.in_flight(),
                core.lookahead
            );
            for (shard, &inflight) in core.inflight().iter().enumerate() {
                let ledgered = core.outstanding.keys().filter(|k| k.1 == shard);
                assert_eq!(inflight, ledgered.count(), "seed {seed}: shard {shard}");
                assert!(inflight <= self.depth, "seed {seed}: shard {shard}");
            }
            if core.idle() {
                assert_eq!(core.queued(), 0, "seed {seed}: idle with a queued command");
            }
            // An attempt issued without its predecessor failing: that one
            // blew its deadline.
            self.deadline_expired |= core.outstanding.iter().any(|(key, entry)| {
                let attempt = entry.command.attempt();
                attempt > 0 && !self.failed_attempts.contains(&(*key, attempt - 1))
            });
        }
    }

    /// Runs one schedule of `jobs` (sample indices, admitted as one closed
    /// batch) on a core recording into `trace` to the end and checks the
    /// invariants after every step; returns it for the caller's end-state
    /// assertions.
    fn explore(seed: u64, config: &EngineConfig, jobs: &[usize], trace: TraceSink) -> Schedule {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut core, device) = traced_core(config, trace);
        let specs = jobs
            .iter()
            .enumerate()
            .map(|(i, &sample)| JobSpec::new(format!("s{i}"), Sample::clone(&f.samples[sample])));
        let admitted = Instant::now();
        core.admit(specs.collect(), admitted)
            .expect("the batch fits");
        let mut s = Schedule {
            seed,
            core,
            device,
            depth: config.queue_depth,
            plan: config.fault_plan.as_deref().cloned().unwrap_or_default(),
            jobs: jobs.to_vec(),
            threads: (0..config.workers).map(|_| Thread::Ready).collect(),
            admitted,
            now: admitted,
            cascade: 0,
            faults: 0,
            served: 0,
            answered_dead: vec![false; config.shards],
            picked: vec![false; config.shards],
            failed_attempts: HashSet::new(),
            deadline_expired: false,
            delivered: Vec::new(),
        };
        for step in 0.. {
            assert!(step < 100_000, "seed {seed}: the schedule does not end");
            if !s.step(&mut rng) {
                break;
            }
            s.check();
        }
        assert!(
            s.core.is_done(),
            "seed {seed}: stopped before every job was delivered"
        );
        let ids: Vec<u64> = s.delivered.iter().map(|(id, _)| id.0).collect();
        assert_eq!(
            ids,
            (0..jobs.len() as u64).collect::<Vec<_>>(),
            "seed {seed}: delivery order"
        );
        // The tally counted exactly what the devices answered.
        let sum = |f: fn(&crate::ShardStats) -> u64| -> u64 { per_shard(&s.core, f).iter().sum() };
        assert_eq!(sum(|st| st.faults), s.faults, "seed {seed}: faults");
        assert_eq!(
            sum(|st| st.jobs + st.step3_jobs),
            s.served,
            "seed {seed}: served commands"
        );
        assert_eq!(
            per_shard(&s.core, |st| st.dead),
            s.answered_dead,
            "seed {seed}: dead devices"
        );
        for (shard, stats) in s.core.tally.shards().iter().enumerate() {
            assert!(stats.peak_inflight <= s.depth, "seed {seed}: shard {shard}");
            if s.picked[shard] {
                assert!(stats.peak_inflight >= 1, "seed {seed}: shard {shard}");
            }
        }
        // The device report closes on the fake clock: it spans admission to
        // the last settle, and each device's busy time lies inside the time
        // it was occupied, which lies inside the span.
        let report = straggler(&s.core);
        assert_eq!(report.span, s.now - admitted, "seed {seed}: span");
        for (device, stats) in report.devices.iter().zip(s.core.tally.shards()) {
            let d = device.device;
            assert_eq!(
                device.busy + device.stall + device.idle,
                report.span,
                "seed {seed}: device {d} closes"
            );
            assert_eq!(device.busy, stats.busy, "seed {seed}: device {d}");
            assert_eq!(device.step3_busy + device.intersect_busy, stats.busy);
            assert_eq!(device.commands, stats.jobs + stats.step3_jobs);
        }
        s
    }

    /// The straggler report of the counts `core` folded so far.
    fn straggler(core: &Core) -> crate::StragglerReport {
        let report = core.tally.clone().into_report();
        report.straggler.expect("every report has one")
    }

    /// Runs `check` for `seed`, naming the seed if it fails.
    fn with_seed(seed: u64, check: impl FnOnce()) {
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)).is_err() {
            panic!("schedule seed {seed} failed; rerun that seed to replay it");
        }
    }

    /// The engine configuration and job list schedule `seed` explores:
    /// 1–3 shards, workers and depths, transient faults, and — by seed — a
    /// device death, a retry backoff or a command deadline.
    fn seeded_schedule(seed: u64) -> (EngineConfig, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let shards = 1 + (seed % 3) as usize;
        let mut plan = FaultPlan::seeded(seed).with_transient_rate(0.15);
        // Every 4th schedule kills one device of several.
        if seed % 4 == 3 && shards > 1 {
            plan = plan.with_shard_death(rng.gen_range(0..shards), rng.gen_range(0..6u64));
        }
        let mut config = EngineConfig::new()
            .with_workers(1 + (seed / 6 % 3) as usize)
            .with_shards(shards)
            .with_queue_depth(1 + (seed / 3 % 2) as usize)
            .with_fault_plan(plan);
        if seed % 5 == 1 {
            config = config.with_retry_backoff(Duration::from_millis(1));
        }
        if seed % 7 == 2 {
            // Well above a step (0–2 ms), yet reachable while a command
            // waits its turn.
            config = config.with_command_deadline(Duration::from_millis(40));
        }
        let jobs = (0..rng.gen_range(3..=6usize))
            .map(|_| rng.gen_range(0..fixture().samples.len()))
            .collect();
        (config, jobs)
    }

    #[test]
    fn seeded_schedules_deliver_the_oracle_in_dispatch_order() {
        let f = fixture();
        for seed in 0..64u64 {
            with_seed(seed, || {
                let (config, jobs) = seeded_schedule(seed);
                let s = explore(seed, &config, &jobs, TraceSink::disabled());
                for ((_, outcome), &sample) in s.delivered.iter().zip(&jobs) {
                    match outcome {
                        Ok(result) => {
                            assert_eq!(result.output, f.expected[sample]);
                            assert_eq!(result.isp_position, result.start_position);
                        }
                        // The documented cost of a deadline: a command that
                        // keeps missing it exhausts its retry budget.
                        Err(JobError::RetriesExhausted { .. }) if s.deadline_expired => {}
                        Err(error) => panic!("unexpected failure: {error}"),
                    }
                }
                if !s.deadline_expired {
                    let retries: u64 = per_shard(&s.core, |st| st.retries).iter().sum();
                    assert_eq!(retries, s.faults, "every fault is retried once");
                }
            });
        }
    }

    #[test]
    fn an_overflowed_trace_ring_changes_no_figure() {
        // A ring far smaller than the schedule's event count evicts most of
        // it, and the exported log is incomplete; the device report and the
        // stage breakdowns are folded by the core and never read the ring.
        let seed = 7;
        let (config, jobs) = seeded_schedule(seed);
        let run = |trace: TraceSink| {
            let s = explore(seed, &config, &jobs, trace.clone());
            for (id, outcome) in &s.delivered {
                let result = outcome.as_ref().expect("seed 7 delivers every job");
                assert!(result.breakdown.is_some(), "job {id:?} has its breakdown");
            }
            (straggler(&s.core), trace.dropped())
        };
        let (small, dropped) = run(TraceSink::bounded(32));
        assert!(dropped > 0, "the schedule overflows a 32-event ring");
        let (full, dropped) = run(TraceSink::bounded(DEFAULT_TRACE_CAPACITY));
        assert_eq!(dropped, 0, "the default ring holds the schedule");
        assert_eq!(small, full);
    }

    #[test]
    fn with_every_device_dead_every_job_fails_and_none_hangs() {
        for seed in 0..16u64 {
            with_seed(seed, || {
                let shards = 1 + (seed % 3) as usize;
                // Every sample commands a device; every device rejects its
                // first command and all that follow.
                let plan = (0..shards).fold(FaultPlan::seeded(seed), |plan, device| {
                    plan.with_shard_death(device, 0)
                });
                let config = EngineConfig::new()
                    .with_workers(1 + (seed / 3 % 3) as usize)
                    .with_shards(shards)
                    .with_queue_depth(1 + (seed % 2) as usize)
                    .with_fault_plan(plan);
                let s = explore(seed, &config, &[0, 1, 3, 0], TraceSink::disabled());
                for (id, outcome) in &s.delivered {
                    assert!(
                        matches!(outcome, Err(JobError::NoLiveShards { job }) if job == id),
                        "job {id:?}: {outcome:?}"
                    );
                }
                assert!(per_shard(&s.core, |st| st.dead).iter().all(|&dead| dead));
            });
        }
    }
}
