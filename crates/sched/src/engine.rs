//! The engine's configuration.
//!
//! [`EngineConfig`] is everything a [`crate::StreamingEngine`] is built
//! from: how many host threads and database shards the §4.7
//! inter-sample pipeline runs on, the admission policy and bounds, the
//! per-shard NVMe-style queue depth, and the optional mechanisms — tracing,
//! fault injection with its retry policy — each of which is off by default
//! and leaves every output byte-identical to
//! [`megis::MegisAnalyzer::analyze`] when on. Scheduling changes only *when*
//! work happens, never *what* is computed.

use std::sync::Arc;
use std::time::Duration;

use megis_genomics::sample::Diversity;
use megis_host::accelerators::SortingAccelerator;
use megis_host::system::SystemConfig;
use megis_ssd::config::SsdConfig;
use megis_ssd::timing::ByteSize;
use megis_tools::workload::WorkloadSpec;

use crate::fault::FaultPlan;
use crate::queue::SchedPolicy;

/// Configuration of a [`crate::StreamingEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Host threads; each runs Step 1, serves device commands and runs the
    /// completer between them. The engine runs exactly `workers` threads,
    /// whatever the shard count.
    pub workers: usize,
    /// Simulated SSDs the database is sharded across: logical devices, each
    /// with its own command queue, depth slots and counters, served by the
    /// `workers` host threads — one command per device at a time.
    pub shards: usize,
    /// Admission/service-order policy.
    pub policy: SchedPolicy,
    /// Maximum jobs inside the service — queued *plus* in flight — before
    /// admission rejects.
    pub queue_capacity: usize,
    /// NVMe-style command-queue depth per shard: how many commands of
    /// either kind may be outstanding on one simulated SSD (issued by the
    /// completer, completion not yet reaped). Depth ≥ 2 lets several
    /// samples' intersections be in flight per device — the inter-sample
    /// overlap of §4.7 — while depth 1 serializes each device against the
    /// host round trip.
    pub queue_depth: usize,
    /// Whether the engine records its lifecycle events into a ring of
    /// [`crate::trace::DEFAULT_TRACE_CAPACITY`]; `false` (the default) is
    /// the zero-cost [`crate::trace::TraceSink::disabled`] path.
    pub tracing: bool,
    /// Deterministic seeded fault-injection schedule applied at the
    /// serving seam; `None` (the default) injects nothing and the
    /// fault path costs one `Option` check per command.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Maximum *retries* per command (re-issues after the initial attempt)
    /// before the owning job fails with
    /// [`crate::JobError::RetriesExhausted`].
    pub retry_budget: u32,
    /// Base backoff before a transient-failure re-issue; doubled per
    /// attempt (capped at 8×), deterministic. Zero (the default) re-issues
    /// immediately.
    pub retry_backoff: Duration,
    /// Deadline after which an outstanding command is considered stuck and
    /// re-issued (counting against the retry budget); `None` (the default)
    /// never re-issues on time. Protects the completer against a
    /// latency-spiked or wedged device.
    pub command_deadline: Option<Duration>,
    /// Completions covered by the rolling metrics window.
    pub metrics_window: usize,
    /// Base system for the modeled-time account: the pipelining comparison
    /// runs on it as given, and the shard-scaling series replicates its
    /// first SSD over `1..=shards` devices.
    pub system: SystemConfig,
    /// Paper-scale workload the modeled-time account is evaluated on.
    pub workload: WorkloadSpec,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 2,
            shards: 2,
            policy: SchedPolicy::Fifo,
            queue_capacity: 1024,
            queue_depth: 4,
            tracing: false,
            fault_plan: None,
            retry_budget: 3,
            retry_backoff: Duration::ZERO,
            command_deadline: None,
            metrics_window: 256,
            // The paper's multi-sample configuration (Fig. 21): without the
            // sorting accelerator, host-side sorting dominates and hides the
            // in-SSD work entirely, which would make the modeled pipelining
            // gain degenerate to zero.
            system: SystemConfig::reference(SsdConfig::ssd_c())
                .with_dram_capacity(ByteSize::from_gb(256.0))
                .with_sorting_accelerator(SortingAccelerator::default()),
            workload: WorkloadSpec::cami(Diversity::Medium),
        }
    }
}

impl EngineConfig {
    /// The default configuration (2 workers, 2 shards, FIFO).
    pub fn new() -> EngineConfig {
        EngineConfig::default()
    }

    /// Sets the host thread count (each runs Step 1 and serves device
    /// commands).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_workers(mut self, workers: usize) -> EngineConfig {
        assert!(workers > 0, "at least one worker is required");
        self.workers = workers;
        self
    }

    /// Sets the shard (simulated SSD) count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: usize) -> EngineConfig {
        assert!(shards > 0, "at least one shard is required");
        self.shards = shards;
        self
    }

    /// Sets the admission policy.
    pub fn with_policy(mut self, policy: SchedPolicy) -> EngineConfig {
        self.policy = policy;
        self
    }

    /// Sets the admission queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_queue_capacity(mut self, capacity: usize) -> EngineConfig {
        assert!(capacity > 0, "queue capacity must be positive");
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-shard NVMe-style command-queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_queue_depth(mut self, depth: usize) -> EngineConfig {
        assert!(depth > 0, "queue depth must be positive");
        self.queue_depth = depth;
        self
    }

    /// Enables pipeline tracing: each job's result then carries a
    /// [`crate::trace::StageBreakdown`], and the report the raw
    /// [`crate::trace::TraceLog`].
    pub fn with_tracing(mut self) -> EngineConfig {
        self.tracing = true;
        self
    }

    /// Installs a deterministic seeded [`FaultPlan`]: a pool thread
    /// consults it before serving every command and injects the transient
    /// errors, latency spikes, shard deaths, and serving panics it
    /// schedules. A latency spike holds the thread serving it for the whole
    /// dwell, which it spends asleep except to settle the completer's due
    /// timers. The engine's recovery machinery (retry, failover, per-job
    /// failure isolation) then runs for real — with a recoverable plan the
    /// output stays byte-identical to the sequential oracle.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> EngineConfig {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Sets the per-command retry budget (re-issues after the initial
    /// attempt; default 3). Every failed attempt a re-issue answers counts
    /// against it: transient faults, blown deadlines, and dead-shard
    /// rejections — each command a dying shard held in hand *or* still
    /// queued is re-issued to a survivor as a retry. A budget of zero fails
    /// a job on its first transient fault or dead-shard rejection.
    pub fn with_retry_budget(mut self, budget: u32) -> EngineConfig {
        self.retry_budget = budget;
        self
    }

    /// Sets the base retry backoff (default zero = immediate re-issue).
    /// The delay before attempt `n + 1` is `backoff × 2^min(n, 3)` —
    /// capped, deterministic exponential. A retry fires like a command
    /// deadline ([`EngineConfig::with_command_deadline`]): late while every
    /// pool thread is busy with real work.
    pub fn with_retry_backoff(mut self, backoff: Duration) -> EngineConfig {
        self.retry_backoff = backoff;
        self
    }

    /// Sets the command deadline: an outstanding command unanswered for
    /// this long is re-issued (counting against the retry budget), so a
    /// stuck device delays its job instead of wedging the completer.
    ///
    /// The clock runs from each attempt's issue, queue wait included, and an
    /// attempt superseded by a re-issue is discarded when it answers late.
    /// A deadline shorter than a command's real service time plus its wait
    /// behind queued neighbours therefore supersedes every attempt before
    /// it can answer, and the job fails with
    /// [`crate::JobError::RetriesExhausted`] on a healthy device.
    ///
    /// The pool threads fire it: a parked thread wakes for it, and one
    /// dwelling in an injected latency spike settles between slices of the
    /// dwell. While every pool thread is busy with real work (Step 1 or a
    /// command), it fires when the first of those units finishes.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn with_command_deadline(mut self, deadline: Duration) -> EngineConfig {
        assert!(!deadline.is_zero(), "command deadline must be positive");
        self.command_deadline = Some(deadline);
        self
    }

    /// Sets the number of completions the rolling metrics window covers.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_metrics_window(mut self, window: usize) -> EngineConfig {
        assert!(window > 0, "metrics window must be positive");
        self.metrics_window = window;
        self
    }
}

#[cfg(test)]
mod tests {
    //! What a configuration means for a closed batch: `submit_all` +
    //! `shutdown` on the one engine, under each knob that shapes a batch.

    use super::*;
    use crate::job::{JobId, JobResult, JobSpec, Priority};
    use crate::model::ModeledAccount;
    use crate::queue::AdmissionError;
    use crate::{ServiceReport, StreamingEngine};
    use megis::config::MegisConfig;
    use megis::MegisAnalyzer;
    use megis_genomics::sample::CommunityConfig;

    fn community() -> megis_genomics::sample::Community {
        CommunityConfig::preset(Diversity::Medium)
            .with_reads(120)
            .with_database_species(12)
            .build(91)
    }

    fn analyzer(c: &megis_genomics::sample::Community) -> MegisAnalyzer {
        MegisAnalyzer::build(c.references(), MegisConfig::small())
    }

    fn specs(c: &megis_genomics::sample::Community, n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec::new(format!("sample-{i}"), c.sample().clone()))
            .collect()
    }

    /// Runs `jobs` as one closed batch; results come back in submission
    /// order.
    fn run_batch(
        analyzer: MegisAnalyzer,
        config: EngineConfig,
        jobs: Vec<JobSpec>,
    ) -> (Vec<JobResult>, ServiceReport) {
        let engine = StreamingEngine::new(analyzer, config);
        let handles = engine.submit_all(jobs).unwrap();
        let report = engine.shutdown();
        let results = handles
            .into_iter()
            .map(|h| h.wait().expect("job served"))
            .collect();
        (results, report)
    }

    #[test]
    fn engine_matches_sequential_analyzer() {
        let c = community();
        let a = analyzer(&c);
        let expected = a.analyze(c.sample());
        let probe = a.clone();
        let config = EngineConfig::new().with_workers(2).with_shards(3);
        let (results, report) = run_batch(a, config, specs(&c, 4));
        assert_eq!((results.len(), report.completed), (4, 4));
        for r in &results {
            assert_eq!(r.output, expected, "{} diverged", r.label);
        }
        // The engine's copy shares the analyzer's databases; serving the
        // batch built neither the sketch tables nor the KSS tables.
        assert!(!probe.oracle_tables_built());
    }

    #[test]
    fn empty_run_reports_nothing() {
        let c = community();
        let (results, report) = run_batch(analyzer(&c), EngineConfig::new(), Vec::new());
        assert!(results.is_empty(), "no job, no handle");
        assert_eq!((report.completed, report.failed_jobs), (0, 0));
        let shards: Vec<usize> = report.shard_stats.iter().map(|s| s.shard).collect();
        assert_eq!(shards, [0, 1], "one `ShardStats` per shard");
    }

    #[test]
    fn results_are_sorted_by_job_id() {
        let c = community();
        let config = EngineConfig::new().with_workers(4).with_shards(2);
        let (results, _) = run_batch(analyzer(&c), config, specs(&c, 8));
        let ids: Vec<u64> = results.iter().map(|r| r.id.0).collect();
        assert_eq!(
            ids,
            (0..8).collect::<Vec<_>>(),
            "dense, in submission order"
        );
    }

    #[test]
    fn priority_jobs_start_first() {
        let c = community();
        let config = EngineConfig::new()
            .with_workers(1)
            .with_policy(SchedPolicy::Priority);
        let mut jobs = specs(&c, 6);
        jobs[4] = jobs[4].clone().with_priority(Priority::High);
        jobs[1] = jobs[1].clone().with_priority(Priority::Low);
        let (results, _) = run_batch(analyzer(&c), config, jobs);
        assert_eq!(results[4].id, JobId(4));
        assert_eq!(
            results[4].start_position, 0,
            "high priority enters service first"
        );
        assert_eq!(
            results[1].start_position, 5,
            "low priority enters service last"
        );
    }

    #[test]
    fn isp_service_order_matches_policy_order_with_many_workers() {
        // Regression: with several workers, prepared jobs used to
        // reach the in-SSD stage in Step 1 *completion* order, letting a
        // low-priority job be served Steps 2–3 ahead of a high-priority one.
        // The reorder buffer must keep in-SSD service in dispatch (= policy)
        // order for every worker count.
        let c = community();
        let config = EngineConfig::new()
            .with_workers(4)
            .with_shards(2)
            .with_policy(SchedPolicy::Priority);
        let mut jobs = specs(&c, 10);
        for i in [2usize, 7, 9] {
            jobs[i] = jobs[i].clone().with_priority(Priority::High);
        }
        for i in [0usize, 5] {
            jobs[i] = jobs[i].clone().with_priority(Priority::Low);
        }
        let expected_priority = |id: u64| match id {
            2 | 7 | 9 => Priority::High,
            0 | 5 => Priority::Low,
            _ => Priority::Normal,
        };
        let (results, _) = run_batch(analyzer(&c), config, jobs);

        for r in &results {
            assert_eq!(
                r.isp_position, r.start_position,
                "{}: in-SSD service must follow dispatch order",
                r.label
            );
        }
        let mut served: Vec<&JobResult> = results.iter().collect();
        served.sort_by_key(|r| r.isp_position);
        let served_ids: Vec<u64> = served.iter().map(|r| r.id.0).collect();
        let mut policy_order: Vec<u64> = (0..10).collect();
        policy_order.sort_by_key(|id| (std::cmp::Reverse(expected_priority(*id)), *id));
        assert_eq!(
            served_ids, policy_order,
            "in-SSD service order must be (priority desc, submission asc)"
        );
    }

    #[test]
    fn shard_workers_all_serve_every_job() {
        let c = community();
        let config = EngineConfig::new().with_shards(4);
        let (_, report) = run_batch(analyzer(&c), config, specs(&c, 3));
        assert_eq!(report.shard_stats.len(), 4);
        for s in &report.shard_stats {
            assert_eq!(s.jobs, 3);
        }
        assert_eq!(report.shard_utilization().len(), 4);
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn modeled_account_is_attached_and_consistent() {
        // The configuration carries the paper-scale system and workload;
        // callers that print a modeled account compute it from them.
        let config = EngineConfig::new().with_shards(4);
        let modeled = ModeledAccount::compute(&config.system, &config.workload, 8, config.shards);
        assert_eq!((modeled.samples, modeled.shards), (8, 4));
        assert!(modeled.is_consistent(0.9));
        assert!(modeled.pipelining_speedup() > 1.0);
    }

    #[test]
    fn admission_limit_is_enforced() {
        // Admission of a set is all-or-nothing: a set that does not fit
        // leaves nothing behind, and the engine keeps serving.
        let c = community();
        let a = analyzer(&c);
        let expected = a.analyze(c.sample());
        let engine = StreamingEngine::new(a, EngineConfig::new().with_queue_capacity(2));
        let err = engine.submit_all(specs(&c, 3)).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { capacity: 2 });
        assert_eq!(engine.pending(), 0, "nothing was admitted");
        let late = engine.submit_all(specs(&c, 2)).expect("a set that fits");
        assert_eq!(late[0].id(), JobId(0), "the rejected set consumed no id");
        for handle in late {
            assert_eq!(handle.wait().expect("job served").output, expected);
        }
        assert_eq!(engine.shutdown().completed, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_queue_capacity_rejected() {
        let _ = EngineConfig::new().with_queue_capacity(0);
    }
}
