//! `megis-sched`: a multi-sample scheduler with sharded multi-SSD execution
//! for the MegIS reproduction — one continuously scheduled streaming engine,
//! fed job by job or a closed batch at a time.
//!
//! The MegIS paper gets its largest end-to-end wins from two scheduling
//! ideas: overlapping host-side Step 1 of sample *i + 1* with the in-SSD
//! Steps 2–3 of sample *i* (§4.7, Fig. 21), and partitioning the sorted
//! k-mer database disjointly across several SSDs (Fig. 15). This crate turns
//! both from analytic models into a running analysis engine:
//!
//! * [`job`] — what clients submit ([`JobSpec`] with a [`Priority`]) and get
//!   back ([`JobResult`]: the analysis output plus per-job wait/latency
//!   accounting),
//! * [`queue`] — deterministic service order ([`SchedPolicy::Fifo`] or
//!   [`SchedPolicy::Priority`]) and why a submission is refused
//!   ([`AdmissionError`]),
//! * [`shard`] — the database partitioned into contiguous sorted ranges,
//!   one per simulated SSD ([`ShardSet`]), the range-partitioned query
//!   dispatch ([`ShardSet::slice_queries`]): each device only ever sees the
//!   sub-slice of a sample's sorted query list overlapping its key range —
//!   plus the per-device serving path for both command kinds: Step 2
//!   intersections and Step 3 — one command per job, which generates the
//!   job's unified index and maps every read through the same
//!   `MegisAnalyzer::run_step3` the sequential path runs,
//! * [`service`] — the streaming executor ([`StreamingEngine`]): the
//!   threaded shell around the decision core — exactly
//!   [`EngineConfig::workers`] host threads that run Step 1 and serve an
//!   in-SSD stage of NVMe-style bounded per-shard command queues (tagged
//!   commands, configurable [`EngineConfig::queue_depth`], out-of-order
//!   completion with in-dispatch-order delivery), built on std threads, one
//!   lock and its two condvars. A pool thread settles the core with the
//!   unit it just finished and picks its next one in one critical section,
//!   and runs the unit outside it,
//! * `complete` — every decision of the engine as a thread-free state
//!   machine with the clock passed in: admission and the lookahead gate,
//!   the device queues, the pool's pick and wake rule, and the completer —
//!   it reorders prepared samples, slices their query lists, and issues
//!   Step 2 *and* Step 3 commands through one backlog, one Step 3 command
//!   per sample rotating over the device array, so one sample's read
//!   mapping overlaps the next sample's intersection
//!   ([`ServiceReport::stage_overlap_events`] counts the observations); it
//!   keeps one ledger of outstanding commands whose retry and deadline
//!   timers it fires when settled, and delivers in dispatch order. Tests
//!   drive it through seeded schedules of virtual pool threads on one
//!   thread,
//! * [`engine`] — the engine's configuration ([`EngineConfig`]),
//! * [`fault`] — deterministic seeded fault injection ([`FaultPlan`]):
//!   transient command failures, latency spikes, permanent shard death, and
//!   targeted worker panics, decided purely from `(seed, command identity)`
//!   so chaos runs replay exactly. The executor's recovery machinery —
//!   per-command retry with capped backoff, command deadlines, shard
//!   failover, per-job failure isolation ([`JobError`]) — lives in
//!   `complete` and is exercised by its schedule explorer and by the seeded
//!   chaos suite (`tests/fault_tolerance.rs`),
//! * [`metrics`] — operational metrics ([`ServiceReport`]: latency
//!   percentiles, per-shard utilization and busy accounting, degraded-mode
//!   counters, folded by the completer; [`RollingWindow`] for the live view),
//! * [`model`] — the paper-scale modeled-time account ([`ModeledAccount`]),
//!   cross-checking a batch shape against
//!   `MegisTimingModel::multi_sample_breakdown` and the Fig. 15 shard
//!   scaling series. It is the only model of *device* time in the crate:
//!   the engine itself spends real host CPU time and nothing else,
//! * [`trace`] — the pipeline tracing subsystem ([`TraceSink`],
//!   [`StageBreakdown`], [`StragglerReport`]): per-command lifecycle events
//!   and the analyses built on them (see *Observability* below).
//!
//! # One engine
//!
//! [`StreamingEngine`] is a long-running service: `submit` from any thread
//! **while it runs** (it takes `&self`; share it behind an `Arc`), get a
//! [`JobHandle`] that delivers the result the moment the job completes,
//! watch live behavior through [`ServiceSnapshot`]'s rolling window, and
//! stop with a graceful [`StreamingEngine::drain`] /
//! [`StreamingEngine::shutdown`], which returns the [`ServiceReport`].
//! Scheduling decisions happen at dispatch time with a live `pop_next` on
//! the shared queue, so a high-priority job submitted mid-stream overtakes
//! everything still queued.
//!
//! A closed batch — a cohort study, an experiment whose workload is known up
//! front — is the same engine fed once: [`StreamingEngine::submit_all`]
//! admits the whole set atomically (all or none, so its service order is
//! the policy order over the whole set), `shutdown` drains it, and every
//! handle's [`JobHandle::wait`] then returns at once.
//!
//! **Ordering guarantee:** the in-SSD stage serves samples in dispatch
//! order — which is policy order over the queue at each dispatch instant —
//! regardless of the worker count. Step 1 completions are reordered
//! through a buffer keyed on service position before the in-SSD hand-off,
//! so a low-priority sample can never have its Steps 2–3 served ahead of a
//! high-priority sample that entered service first ([`JobResult`] records
//! both positions; `isp_position == start_position` always).
//!
//! **Determinism contract:** scheduling decides only *when* work happens,
//! never *what* is computed. Every job's output is byte-identical to
//! `MegisAnalyzer::analyze` on the same sample, for any worker count, shard
//! count, admission policy, or submission concurrency (enforced by the
//! workspace integration tests).
//!
//! # Observability
//!
//! Enable pipeline tracing with [`EngineConfig::with_tracing`]. Every
//! pipeline thread then records timestamped lifecycle events into one
//! bounded, multi-producer [`TraceSink`]: job admission, Step 1 start/end,
//! per-`(seq, shard)` command issued/started/completed for both in-SSD
//! command kinds, reduce start/end, delivery. Two analyses are surfaced on
//! [`JobResult`] and [`ServiceReport`]:
//!
//! * [`StageBreakdown`] — each job's submission→delivery wall clock,
//!   partitioned into telescoping stage segments (queue wait, Step 1,
//!   per-stage queue wait vs. device service, reduce barrier, reduce), so
//!   the segments sum to the job's end-to-end latency. The completer folds
//!   it from the job's own timeline, never from the ring;
//! * [`StragglerReport`] — per-device busy/stall/idle fractions and
//!   per-device Step 3 busy time with the max/min skew.
//!
//! **Overhead contract:** tracing is disabled by default;
//! [`trace::TraceSink::disabled`] records through a single inlined branch
//! (no lock, no clock read, no allocation), so instrumented hot paths cost
//! nothing when tracing is off. The repository benchmark measures the
//! enabled-vs-disabled wall clock as its `sched.trace.overhead_frac` row
//! (`benchmark/README.md`).
//!
//! # Machine-checked invariants
//!
//! The concurrency rules this crate lives by are checked by machine, each
//! by the cheapest checker that can express it. Each encodes an incident
//! class from this crate's own history.
//!
//! Types and clippy (`cargo clippy --all-targets -- -D warnings` in CI):
//!
//! * **Poison-safe locking** — every mutex is a `Lock<T>` (or the trace
//!   ring's `Leaf<T>`) whose `lock` (and condvar `wait`) returns the guard
//!   recovered from poisoning; there is no `Result` to unwrap. A worker
//!   panic poisons the locks it held; the engine reports that through its
//!   own poison flag and keeps shutting down, and an `unwrap` on a
//!   poisoned lock reached *during that unwind* (e.g. `Drop` → teardown)
//!   would panic within the panic and abort the process instead, as the
//!   shutdown path once did. Clippy's `disallowed_types` (`clippy.toml`)
//!   rejects a bare `std::sync::Mutex` or `RwLock` outside `lock.rs`.
//! * **Unbounded pipeline channels** — clippy's `disallowed_methods`
//!   rejects `mpsc::sync_channel`: a bounded send that blocks forever is
//!   the stuck-pipeline class; the lookahead gate and the queue depth bound
//!   what travels on the unbounded channels instead.
//! * **Trace stamps from the sink's clock** — [`TraceSink::record_at`]
//!   takes a [`TraceStamp`], which only [`TraceSink::now`] makes, so a
//!   caller cannot stamp an event with an inline `Instant::now()` that
//!   disabled tracing would still pay for (the overhead contract above).
//! * **No accidental panic** — the pool threads run the decision core,
//!   Step 1 and every device command, and a panic on one poisons the whole
//!   engine. The crate root denies clippy's `unwrap_used`, `expect_used`, `panic`,
//!   `unreachable`, `todo` and `unimplemented` in all non-test code (the
//!   root `clippy.toml` exempts tests), and `allow_attributes_without_reason`.
//!   Where a check and its take can be one operation they are (`let ..
//!   else`, a map entry); a panic that guards an invariant across
//!   structures stays, under an `#[expect(.., reason = "..")]` that names
//!   the invariant. `assert!` is not flagged.
//! * **One writer per counter** — the tally the core folds every
//!   [`ShardStats`] counter into keeps its fields private to `metrics.rs`,
//!   so its folds are the only writers and the `faults == retries`
//!   cross-checks hold.
//! * **No guard across blocking** — a state-lock guard mutably borrows
//!   its thread's zero-sized `Unlocked` token for as long as it lives, and
//!   the only sleep and join (`lock::sleep`, `lock::join_all`) take that
//!   token too, so a guard alive at either is a borrow error (E0499), even
//!   when it flows across functions. Blocking while holding the state lock
//!   is the shutdown-deadlock class: teardown once joined the pool while
//!   holding the lock every pool thread needed to see `stopping`. A guard
//!   parks only through `Lock::wait`, which releases the lock while parked.
//!   `crates/sched/clippy.toml` disallows `thread::sleep`,
//!   `JoinHandle::join`, `Receiver::recv`/`recv_timeout` (only
//!   `JobHandle`'s waits, on caller threads, receive) and
//!   `Unlocked::mint`, which appears at two sites, each under an
//!   `#[expect(.., reason = "..")]`: a pool thread's start, whose token
//!   its panic guard owns, and `caller`, the helper every public
//!   `StreamingEngine` method takes its token from (guards never leave
//!   the crate). Sends need no token — every channel is unbounded — so
//!   delivery sends under the state lock. `compile_fail` doctests on
//!   `Lock::lock`, each with a compiling twin, pin both incidents.
//!
//! # Example
//!
//! ```
//! use megis::config::MegisConfig;
//! use megis::MegisAnalyzer;
//! use megis_genomics::sample::{CommunityConfig, Diversity};
//! use megis_sched::{EngineConfig, JobSpec, StreamingEngine};
//!
//! let community = CommunityConfig::preset(Diversity::Low)
//!     .with_reads(80)
//!     .with_database_species(8)
//!     .build(7);
//! let analyzer = MegisAnalyzer::build(community.references(), MegisConfig::small());
//! let expected = analyzer.analyze(community.sample());
//!
//! let engine = StreamingEngine::new(
//!     analyzer,
//!     EngineConfig::new().with_workers(2).with_shards(2),
//! );
//! // A closed batch: admit it whole, drain, collect.
//! let handles = engine
//!     .submit_all((0..4).map(|i| JobSpec::new(format!("sample-{i}"), community.sample().clone())))
//!     .unwrap();
//! let report = engine.shutdown();
//! assert_eq!(report.completed, 4);
//! for handle in handles {
//!     assert_eq!(handle.wait().unwrap().output, expected);
//! }
//! ```

// The whole workspace is safe Rust ([workspace.lints] forbids it too);
// this attribute keeps the guarantee visible at the crate root.
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]
mod complete;
pub mod engine;
pub mod fault;
pub mod job;
#[doc(hidden)]
pub mod lock;
pub mod metrics;
pub mod model;
pub mod queue;
pub mod service;
pub mod shard;
pub mod trace;

pub use engine::EngineConfig;
pub use fault::{FaultDecision, FaultPlan};
pub use job::{JobError, JobId, JobResult, JobSpec, Priority};
pub use metrics::{LatencyStats, RollingWindow, ServiceReport, ShardStats};
pub use model::ModeledAccount;
pub use queue::{AdmissionError, SchedPolicy};
pub use service::{JobHandle, ServiceSnapshot, StreamingEngine};
pub use shard::ShardSet;
pub use trace::{
    DeviceUsage, StageBreakdown, StragglerReport, TraceEvent, TraceEventKind, TraceLog, TraceSink,
    TraceStage, TraceStamp,
};
