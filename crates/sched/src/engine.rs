//! The batch engine: admission → host Step 1 workers → sharded in-SSD stage.
//!
//! Execution follows the paper's inter-sample pipeline (§4.7): a pool of
//! host worker threads runs Step 1 (k-mer extraction, bucketed sorting,
//! exclusion) on upcoming samples while the in-SSD stage — one intersect
//! worker per database shard behind an NVMe-style bounded command queue,
//! plus a dispatcher/completer pair for slicing, merge accounting, taxID
//! retrieval, and Step 3 — processes the current ones (plural: with
//! [`EngineConfig::queue_depth`] ≥ 2, several samples' intersections are in
//! flight per device at once). Each shard sees only the sub-range of the
//! sorted query list overlapping its disjoint key range
//! ([`ShardSet::slice_queries`]), and the per-shard intersections merge back
//! in shard order (Fig. 15's disjoint multi-SSD partitioning), so the
//! merged intersection is identical to streaming the unsharded database
//! while per-shard query-side work stays O(|Q|/N) on average instead of the
//! O(|Q|) a broadcast would cost every device.
//!
//! [`BatchEngine::run`] is a thin wrapper over the service-mode executor in
//! [`crate::service`]: it hands the closed batch to a fresh
//! [`StreamingEngine`], drains it, and assembles the [`BatchReport`]. Batch
//! mode therefore inherits the executor's guarantees by construction — live
//! policy-order dispatch, and the in-SSD stage serving samples in dispatch
//! order even when many Step 1 workers complete out of order (the reorder
//! buffer described in the [service docs](crate::service)).
//!
//! Every per-job computation routes through the step-level entry points of
//! [`MegisAnalyzer`], which makes the engine's output byte-identical to
//! calling [`MegisAnalyzer::analyze`] per sample — for any worker count,
//! shard count, or admission policy. Scheduling changes only *when* work
//! happens, never *what* is computed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use megis::MegisAnalyzer;
use megis_genomics::sample::Diversity;
use megis_host::accelerators::SortingAccelerator;
use megis_host::system::SystemConfig;
use megis_ssd::config::SsdConfig;
use megis_ssd::timing::ByteSize;
use megis_tools::workload::WorkloadSpec;

use crate::fault::FaultPlan;
use crate::job::{JobError, JobId, JobResult, JobSpec};
use crate::metrics::{BatchReport, LatencyStats, ShardStats};
use crate::model::ModeledAccount;
use crate::queue::{AdmissionError, JobQueue, SchedPolicy};
use crate::service::{JobHandle, StreamingEngine};
use crate::shard::ShardSet;

/// Configuration of a [`BatchEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Host-side Step 1 worker threads.
    pub workers: usize,
    /// Simulated SSDs the database is sharded across.
    pub shards: usize,
    /// Admission/service-order policy.
    pub policy: SchedPolicy,
    /// Maximum jobs waiting for service before admission rejects. In
    /// service mode the bound counts queued *plus* in-flight jobs.
    pub queue_capacity: usize,
    /// NVMe-style command-queue depth per shard: how many intersection
    /// commands may be outstanding on one simulated SSD (submitted by the
    /// dispatcher, completion not yet reaped). Depth ≥ 2 lets several
    /// samples' intersections be in flight per device — the inter-sample
    /// overlap of §4.7 — while depth 1 serializes each device against the
    /// host round trip.
    pub queue_depth: usize,
    /// Whether idle devices steal queued Step 3 commands from loaded peers'
    /// queues (`true` by default). Step 2 intersections stay pinned — they
    /// need the owner's database slice — but Step 3 commands resolve against
    /// the shared analyzer and can run anywhere; stealing keeps the whole
    /// array busy when a sample has fewer read ranges than there are
    /// devices. Results stay tagged with the shard-of-record, so outputs
    /// are byte-identical with stealing on or off.
    pub work_stealing: bool,
    /// Capacity of the pipeline trace ring buffer; `None` (the default)
    /// disables tracing entirely — the zero-cost
    /// [`crate::trace::TraceSink::disabled`] path.
    pub trace_capacity: Option<usize>,
    /// Deterministic seeded fault-injection schedule applied at the
    /// shard-worker seam; `None` (the default) injects nothing and the
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
    /// never re-issues on time. Protects the reaping loop against a
    /// latency-spiked or wedged device.
    pub command_deadline: Option<Duration>,
    /// Cross-sample query coalescing window; `None` (the default) disables
    /// coalescing — every sample dispatches its own per-shard commands,
    /// byte-identical to the uncoalesced engine. `Some(window)` lets the
    /// dispatcher hold a ready sample's commands up to this long to admit
    /// co-resident samples' query slices into one shared
    /// multi-member intersect command per shard (one galloping sweep over
    /// the shard's database range serves every member). Batch size is
    /// bounded by the queue depth and, upstream, by the Step 1 dispatch
    /// lookahead gate.
    pub coalescing_window: Option<Duration>,
    /// Completions covered by the service-mode rolling metrics window.
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
            work_stealing: true,
            trace_capacity: None,
            fault_plan: None,
            retry_budget: 3,
            retry_backoff: Duration::ZERO,
            command_deadline: None,
            coalescing_window: None,
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

    /// Sets the Step 1 worker count.
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

    /// Enables or disables Step 3 work stealing between devices (enabled by
    /// default). Disabling pins every command to its shard-of-record — the
    /// pre-stealing execution model — which tests use to compare stolen and
    /// pinned runs byte-for-byte.
    pub fn with_work_stealing(mut self, enabled: bool) -> EngineConfig {
        self.work_stealing = enabled;
        self
    }

    /// Enables pipeline tracing with the default ring capacity
    /// ([`crate::trace::DEFAULT_TRACE_CAPACITY`] events). The engine then
    /// records every lifecycle event and its reports carry a
    /// [`crate::trace::StageBreakdown`], a
    /// [`crate::trace::StragglerReport`], and the raw
    /// [`crate::trace::TraceLog`].
    pub fn with_tracing(self) -> EngineConfig {
        self.with_trace_capacity(crate::trace::DEFAULT_TRACE_CAPACITY)
    }

    /// Enables pipeline tracing with an explicit ring capacity (events kept;
    /// oldest evicted beyond it).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_trace_capacity(mut self, capacity: usize) -> EngineConfig {
        assert!(capacity > 0, "trace capacity must be positive");
        self.trace_capacity = Some(capacity);
        self
    }

    /// Installs a deterministic seeded [`FaultPlan`]: the shard workers
    /// consult it before serving every command and inject the transient
    /// errors, latency spikes, shard deaths, and worker panics it
    /// schedules. The engine's recovery machinery (retry, failover, per-job
    /// failure isolation) then runs for real — with a recoverable plan the
    /// output stays byte-identical to the sequential oracle.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> EngineConfig {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Sets the per-command retry budget (re-issues after the initial
    /// attempt; default 3). A budget of zero fails a job on its first
    /// transient fault.
    pub fn with_retry_budget(mut self, budget: u32) -> EngineConfig {
        self.retry_budget = budget;
        self
    }

    /// Sets the base retry backoff (default zero = immediate re-issue).
    /// The delay before attempt `n + 1` is `backoff × 2^min(n, 3)` —
    /// capped, deterministic exponential.
    pub fn with_retry_backoff(mut self, backoff: Duration) -> EngineConfig {
        self.retry_backoff = backoff;
        self
    }

    /// Sets the command deadline: an outstanding command unanswered for
    /// this long is re-issued (counting against the retry budget), so a
    /// stuck device delays its job instead of wedging the reaping loop.
    ///
    /// The clock runs from each attempt's issue, queue wait included, and an
    /// attempt superseded by a re-issue is discarded when it answers late.
    /// A deadline shorter than a command's real service time plus its wait
    /// behind queued neighbours therefore supersedes every attempt before
    /// it can answer, and the job fails with
    /// [`crate::JobError::RetriesExhausted`] on a healthy device.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn with_command_deadline(mut self, deadline: Duration) -> EngineConfig {
        assert!(!deadline.is_zero(), "command deadline must be positive");
        self.command_deadline = Some(deadline);
        self
    }

    /// Enables cross-sample query coalescing: the dispatcher may hold a
    /// ready sample's per-shard commands up to `window` to merge
    /// co-resident samples' sorted query slices into one multi-member
    /// intersect command per shard — a single galloping sweep over the
    /// shard's database range serving every member, with per-`(seq, shard)`
    /// result demultiplexing at the completer. Off by default; results are
    /// byte-identical either way, only the sweep count changes.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (use the default to disable coalescing).
    pub fn with_coalescing_window(mut self, window: Duration) -> EngineConfig {
        assert!(!window.is_zero(), "coalescing window must be positive");
        self.coalescing_window = Some(window);
        self
    }

    /// Sets the number of completions the service-mode rolling metrics
    /// window covers.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_metrics_window(mut self, window: usize) -> EngineConfig {
        assert!(window > 0, "metrics window must be positive");
        self.metrics_window = window;
        self
    }

    /// Sets the modeled system template (its first SSD is replicated per
    /// shard).
    pub fn with_system(mut self, system: SystemConfig) -> EngineConfig {
        self.system = system;
        self
    }
}

/// Error from [`BatchEngine::submit_all`]: a submission was rejected after
/// some jobs had already been admitted. The admitted jobs remain queued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialAdmission {
    /// Jobs admitted before the rejection, in submission order.
    pub admitted: Vec<JobId>,
    /// The rejection that stopped the batch.
    pub error: AdmissionError,
}

impl std::fmt::Display for PartialAdmission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} after {} jobs were admitted",
            self.error,
            self.admitted.len()
        )
    }
}

impl std::error::Error for PartialAdmission {}

/// The multi-sample batch engine.
#[derive(Debug)]
pub struct BatchEngine {
    analyzer: Arc<MegisAnalyzer>,
    shards: ShardSet,
    queue: JobQueue,
    config: EngineConfig,
}

impl BatchEngine {
    /// Builds an engine around an analyzer, sharding its database across the
    /// configured number of simulated SSDs.
    pub fn new(analyzer: MegisAnalyzer, config: EngineConfig) -> BatchEngine {
        assert!(config.workers > 0, "at least one worker is required");
        assert!(config.shards > 0, "at least one shard is required");
        let shards = ShardSet::build(analyzer.database(), config.shards);
        BatchEngine {
            analyzer: Arc::new(analyzer),
            shards,
            queue: JobQueue::new(config.policy, config.queue_capacity),
            config,
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

    /// Number of jobs waiting for service.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Submits one job for the next batch run.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, AdmissionError> {
        self.queue.submit(spec)
    }

    /// Submits many jobs; stops at the first admission rejection.
    ///
    /// On rejection the error carries the ids of the jobs admitted before
    /// it — those jobs stay queued and will run, so callers must not treat
    /// the error as "nothing was submitted".
    pub fn submit_all<I: IntoIterator<Item = JobSpec>>(
        &mut self,
        specs: I,
    ) -> Result<Vec<JobId>, PartialAdmission> {
        let mut admitted = Vec::new();
        for spec in specs {
            match self.submit(spec) {
                Ok(id) => admitted.push(id),
                Err(error) => return Err(PartialAdmission { admitted, error }),
            }
        }
        Ok(admitted)
    }

    /// Runs every queued job through the pipelined executor and reports.
    ///
    /// This is a thin batch-mode wrapper over [`StreamingEngine`]: the
    /// already-admitted jobs are handed to a fresh service executor in
    /// service order (ids and submission times preserved), the service is
    /// drained and shut down, and the per-job results are collected from
    /// their handles. Because jobs enter the executor's queue in policy
    /// order before any dispatch race can matter, the assigned service
    /// positions follow the policy exactly, and the executor's reorder
    /// buffer guarantees the in-SSD stage serves them in that same order.
    ///
    /// Returns an empty report (zero throughput, no results) if nothing is
    /// queued.
    pub fn run(&mut self) -> BatchReport {
        let jobs = self.queue.drain_ordered();
        let sample_count = jobs.len();
        let shard_count = self.shards.shard_count();
        if jobs.is_empty() {
            return BatchReport {
                results: Vec::new(),
                failed: Vec::new(),
                wall_time: Duration::ZERO,
                latency: LatencyStats::default(),
                throughput: 0.0,
                shard_stats: (0..shard_count)
                    .map(|shard| ShardStats {
                        shard,
                        ..ShardStats::default()
                    })
                    .collect(),
                resident_database_bytes: self.shards.resident_bytes(),
                stage_overlap_events: 0,
                modeled: None,
                stage_breakdown: None,
                straggler: None,
                trace: None,
            };
        }
        let modeled = ModeledAccount::compute(
            &self.config.system,
            &self.config.workload,
            sample_count,
            shard_count,
        );

        let batch_start = Instant::now();
        let service = StreamingEngine::from_parts(
            Arc::clone(&self.analyzer),
            self.shards.clone(),
            self.config.clone(),
        );
        let handles: Vec<JobHandle> = jobs
            .into_iter()
            .map(|job| service.dispatch_admitted(job))
            .collect();
        // shutdown() performs the graceful drain itself.
        let service_report = service.shutdown();
        let wall_time = batch_start.elapsed();

        let mut results: Vec<JobResult> = Vec::new();
        let mut failed: Vec<JobError> = Vec::new();
        for handle in handles {
            match handle.wait() {
                Ok(result) => results.push(result),
                Err(error) => failed.push(error),
            }
        }
        results.sort_by_key(|r| r.id);
        failed.sort_by_key(JobError::job);
        let latencies: Vec<Duration> = results.iter().map(|r| r.latency).collect();
        BatchReport {
            latency: LatencyStats::from_latencies(&latencies),
            throughput: sample_count as f64 / wall_time.as_secs_f64().max(1e-9),
            results,
            failed,
            wall_time,
            shard_stats: service_report.shard_stats,
            resident_database_bytes: service_report.resident_database_bytes,
            stage_overlap_events: service_report.stage_overlap_events,
            modeled: Some(modeled),
            stage_breakdown: service_report.stage_breakdown,
            straggler: service_report.straggler,
            trace: service_report.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use megis::config::MegisConfig;
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

    #[test]
    fn engine_matches_sequential_analyzer() {
        let c = community();
        let a = analyzer(&c);
        let expected = a.analyze(c.sample());
        let mut engine = BatchEngine::new(a, EngineConfig::new().with_workers(2).with_shards(3));
        engine.submit_all(specs(&c, 4)).unwrap();
        let report = engine.run();
        assert_eq!(report.results.len(), 4);
        for r in &report.results {
            assert_eq!(r.output, expected, "{} diverged", r.label);
        }
    }

    #[test]
    fn empty_run_reports_nothing() {
        let c = community();
        let mut engine = BatchEngine::new(analyzer(&c), EngineConfig::new());
        let report = engine.run();
        assert!(report.results.is_empty());
        assert_eq!(report.throughput, 0.0);
        assert_eq!(report.shard_stats.len(), 2);
        assert!(
            report.modeled.is_none(),
            "empty batch has no modeled account"
        );
    }

    #[test]
    fn results_are_sorted_by_job_id() {
        let c = community();
        let mut engine = BatchEngine::new(
            analyzer(&c),
            EngineConfig::new().with_workers(4).with_shards(2),
        );
        engine.submit_all(specs(&c, 8)).unwrap();
        let report = engine.run();
        let ids: Vec<u64> = report.results.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn priority_jobs_start_first() {
        let c = community();
        let mut engine = BatchEngine::new(
            analyzer(&c),
            EngineConfig::new()
                .with_workers(1)
                .with_policy(SchedPolicy::Priority),
        );
        let mut jobs = specs(&c, 6);
        jobs[4] = jobs[4].clone().with_priority(Priority::High);
        jobs[1] = jobs[1].clone().with_priority(Priority::Low);
        engine.submit_all(jobs).unwrap();
        let report = engine.run();
        let by_id = |id: u64| {
            report
                .results
                .iter()
                .find(|r| r.id.0 == id)
                .unwrap()
                .start_position
        };
        assert_eq!(by_id(4), 0, "high priority enters service first");
        assert_eq!(by_id(1), 5, "low priority enters service last");
    }

    #[test]
    fn isp_service_order_matches_policy_order_with_many_workers() {
        // Regression: with several Step 1 workers, prepared jobs used to
        // reach the in-SSD stage in Step 1 *completion* order, letting a
        // low-priority job be served Steps 2–3 ahead of a high-priority one.
        // The reorder buffer must keep in-SSD service in dispatch (= policy)
        // order for every worker count.
        let c = community();
        let mut engine = BatchEngine::new(
            analyzer(&c),
            EngineConfig::new()
                .with_workers(4)
                .with_shards(2)
                .with_policy(SchedPolicy::Priority),
        );
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
        engine.submit_all(jobs).unwrap();
        let report = engine.run();

        for r in &report.results {
            assert_eq!(
                r.isp_position, r.start_position,
                "{}: in-SSD service must follow dispatch order",
                r.label
            );
        }
        let mut served: Vec<&JobResult> = report.results.iter().collect();
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
        let mut engine = BatchEngine::new(analyzer(&c), EngineConfig::new().with_shards(4));
        engine.submit_all(specs(&c, 3)).unwrap();
        let report = engine.run();
        assert_eq!(report.shard_stats.len(), 4);
        for s in &report.shard_stats {
            assert_eq!(s.jobs, 3);
        }
        assert_eq!(report.shard_utilization().len(), 4);
    }

    #[test]
    fn modeled_account_is_attached_and_consistent() {
        let c = community();
        let mut engine = BatchEngine::new(analyzer(&c), EngineConfig::new().with_shards(4));
        engine.submit_all(specs(&c, 8)).unwrap();
        let report = engine.run();
        let modeled = report
            .modeled
            .as_ref()
            .expect("non-empty batch has an account");
        assert_eq!(modeled.samples, 8);
        assert_eq!(modeled.shards, 4);
        assert!(modeled.is_consistent(0.9));
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn admission_limit_is_enforced() {
        let c = community();
        let mut engine = BatchEngine::new(analyzer(&c), EngineConfig::new().with_queue_capacity(2));
        let err = engine.submit_all(specs(&c, 3)).unwrap_err();
        assert_eq!(err.error, AdmissionError::QueueFull { capacity: 2 });
        assert_eq!(
            err.admitted,
            vec![JobId(0), JobId(1)],
            "rejection reports the jobs that did get in"
        );
        assert_eq!(engine.pending(), 2);
        // The admitted jobs still run.
        let report = engine.run();
        assert_eq!(report.results.len(), 2);
    }
}
