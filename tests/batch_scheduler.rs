//! Integration tests for closed batches on the `megis-sched` engine
//! (`submit_all` + `shutdown`): determinism across worker/shard counts,
//! scheduling-policy ordering, and agreement of the modeled-time account
//! with the analytic multi-sample models.

use megis::config::MegisConfig;
use megis::pipeline::{baseline_multi_sample, MegisTimingModel};
use megis::{MegisAnalyzer, MegisOutput};
use megis_genomics::sample::{CommunityConfig, Diversity, Sample};
use megis_host::system::SystemConfig;
use megis_sched::{
    AdmissionError, EngineConfig, FaultPlan, JobResult, JobSpec, ModeledAccount, Priority,
    SchedPolicy, ServiceReport, ShardSet, StreamingEngine,
};
use megis_ssd::config::SsdConfig;
use megis_tools::workload::WorkloadSpec;

fn cohort(n: usize) -> (MegisAnalyzer, Vec<Sample>) {
    cohort_of(n, 100)
}

/// `n` samples of `reads` reads each over one shared database.
fn cohort_of(n: usize, reads: usize) -> (MegisAnalyzer, Vec<Sample>) {
    let base = CommunityConfig::preset(Diversity::Medium)
        .with_reads(reads)
        .with_database_species(12);
    let reference_community = base.build(512);
    let analyzer = MegisAnalyzer::build(reference_community.references(), MegisConfig::small());
    // Same references (seed 512), independent read streams per sample.
    let samples = (0..n)
        .map(|i| {
            base.build_cohort_sample(512, 7000 + i as u64)
                .sample()
                .clone()
        })
        .collect();
    (analyzer, samples)
}

fn specs(samples: &[Sample]) -> Vec<JobSpec> {
    samples
        .iter()
        .enumerate()
        .map(|(i, s)| JobSpec::new(format!("s{i}"), s.clone()))
        .collect()
}

/// Runs `jobs` as one closed batch — admitted whole, drained by `shutdown` —
/// and returns the results in submission (= job id) order with the report.
fn run_batch(
    analyzer: MegisAnalyzer,
    config: EngineConfig,
    jobs: impl IntoIterator<Item = JobSpec>,
) -> (Vec<JobResult>, ServiceReport) {
    let engine = StreamingEngine::new(analyzer, config);
    let handles = engine.submit_all(jobs).expect("admission");
    let report = engine.shutdown();
    let results = handles
        .into_iter()
        .map(|h| h.wait().expect("job served"))
        .collect();
    (results, report)
}

#[test]
fn batch_results_identical_to_sequential_at_any_worker_and_shard_count() {
    // The headline determinism contract: a 16-sample batch yields
    // byte-identical presence/abundance results to sequential
    // `MegisAnalyzer::analyze` for every sample, at every worker/shard
    // combination exercised here.
    let (analyzer, samples) = cohort(16);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    for (workers, shards) in [(1usize, 1usize), (2, 2), (4, 4), (8, 8), (1, 8), (8, 1)] {
        let config = EngineConfig::new()
            .with_workers(workers)
            .with_shards(shards);
        let (results, _) = run_batch(analyzer.clone(), config.clone(), specs(&samples));
        assert_eq!(results.len(), 16);
        for (result, expected) in results.iter().zip(&expected) {
            assert_eq!(
                result.output, *expected,
                "{} diverged with {workers} workers / {shards} shards",
                result.label
            );
            assert_eq!(result.output.presence, expected.presence);
            assert_eq!(result.output.abundance, expected.abundance);
        }
        // The modeled account for the batch shape upholds the paper's
        // claims: pipelined strictly below independent runs, and
        // intersection scaling within 90% of linear in the shard count.
        let modeled = ModeledAccount::compute(&config.system, &config.workload, 16, shards);
        assert!(
            modeled.pipelined_total() < modeled.independent_total(),
            "pipelined model must beat independent runs"
        );
        assert!(modeled.is_consistent(0.9));
    }
}

#[test]
fn batch_results_identical_across_queue_depths() {
    // Queue depth changes only how many commands dwell on each simulated
    // SSD, never what is computed: every worker/shard/depth combination
    // must reproduce the sequential analyzer byte for byte, with every
    // command dwelling briefly on its device.
    let (analyzer, samples) = cohort(8);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    for (workers, shards, depth) in [
        (1usize, 1usize, 1usize),
        (2, 2, 1),
        (2, 4, 2),
        (4, 2, 4),
        (2, 3, 8),
    ] {
        let config = EngineConfig::new()
            .with_workers(workers)
            .with_shards(shards)
            .with_queue_depth(depth)
            .with_fault_plan(
                FaultPlan::seeded(1).with_latency_spike(1.0, std::time::Duration::from_micros(100)),
            );
        let (results, report) = run_batch(analyzer.clone(), config, specs(&samples));
        assert_eq!(results.len(), 8);
        for (result, expected) in results.iter().zip(&expected) {
            assert_eq!(
                result.output, *expected,
                "{} diverged at {workers} workers / {shards} shards / depth {depth}",
                result.label
            );
        }
        for stats in &report.shard_stats {
            assert!(
                stats.peak_inflight <= depth,
                "shard {} exceeded depth {depth}: {}",
                stats.shard,
                stats.peak_inflight
            );
        }
    }
}

#[test]
fn zero_copy_shard_views_share_one_storage_and_stay_byte_identical() {
    // The shards are range views over the analyzer database's columnar
    // storage: building a shard set at any count must keep exactly one
    // resident copy of the database (not the 2x a deep-copy partition held
    // next to the analyzer's own copy), and the engine's results through
    // those views must stay byte-identical to the sequential analyzer for
    // every worker/shard/depth combination.
    let (analyzer, samples) = cohort(8);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();
    let one_copy = analyzer.database().storage().heap_bytes();
    assert!(one_copy > 0);

    for shards in [1usize, 2, 4, 8, 17] {
        let set = ShardSet::build(analyzer.database(), shards);
        assert_eq!(
            set.resident_bytes(),
            one_copy,
            "{shards} shards must not duplicate the database"
        );
        for shard in set.shards() {
            assert!(
                shard.shares_storage_with(analyzer.database()),
                "every shard must view the analyzer's storage"
            );
        }
        // The logical on-device bytes still cover the whole database.
        assert_eq!(
            set.shard_bytes().iter().sum::<u64>(),
            analyzer.database().encoded_bytes()
        );
    }

    for (workers, shards, depth) in [(1usize, 2usize, 2usize), (2, 4, 1), (4, 8, 4), (2, 3, 8)] {
        let config = EngineConfig::new()
            .with_workers(workers)
            .with_shards(shards)
            .with_queue_depth(depth);
        let (results, report) = run_batch(analyzer.clone(), config, specs(&samples));
        assert_eq!(
            report.resident_database_bytes, one_copy,
            "engine at {workers}w/{shards}s/qd{depth} must hold one database copy"
        );
        assert_eq!(results.len(), 8);
        for (result, expected) in results.iter().zip(&expected) {
            assert_eq!(
                result.output, *expected,
                "{} diverged through zero-copy views at {workers}w/{shards}s/qd{depth}",
                result.label
            );
        }
    }
}

#[test]
fn sharded_step3_accounts_every_candidate_once_and_stays_byte_identical() {
    // Step 3 runs as one device command per job with candidates, through
    // the same queues as the intersections: across a worker/shard/depth
    // matrix, every read of every such job must be mapped exactly once
    // (the per-shard step3 items sum to those jobs' reads), the command
    // count must be one per such job on one shard or eight, the mapped-read
    // totals must surface in the report, and every output must stay
    // byte-identical to the sequential analyzer.
    const READS: usize = 300;
    let (analyzer, samples) = cohort_of(8, READS);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();
    let with_candidates = expected.iter().filter(|e| !e.presence.is_empty()).count() as u64;
    let expected_mapped: u64 = expected.iter().map(|e| e.mapped_reads).sum();
    assert!(expected_mapped > 0, "fixture must exercise read mapping");

    for (workers, shards, depth) in [(1usize, 1usize, 1usize), (2, 4, 2), (4, 2, 4), (2, 8, 8)] {
        let config = EngineConfig::new()
            .with_workers(workers)
            .with_shards(shards)
            .with_queue_depth(depth);
        let (results, report) = run_batch(analyzer.clone(), config, specs(&samples));
        for (result, expected) in results.iter().zip(&expected) {
            assert_eq!(
                result.output, *expected,
                "{} diverged at {workers}w/{shards}s/qd{depth}",
                result.label
            );
        }
        assert_eq!(
            report.mapped_reads, expected_mapped,
            "mapped-read total at {workers}w/{shards}s/qd{depth}"
        );
        let step3_items: u64 = report.shard_stats.iter().map(|s| s.step3_items).sum();
        assert_eq!(
            step3_items,
            with_candidates * READS as u64,
            "each read mapped on exactly one device at {workers}w/{shards}s/qd{depth}"
        );
        let step3_jobs: u64 = report.shard_stats.iter().map(|s| s.step3_jobs).sum();
        assert_eq!(
            step3_jobs, with_candidates,
            "one command per job with candidates at {workers}w/{shards}s/qd{depth}"
        );
        // Every command stays on the queue it was issued to: a device
        // serves at most one command per job, and a healthy array adopts
        // nothing.
        for stats in &report.shard_stats {
            assert!(
                stats.step3_jobs <= samples.len() as u64,
                "device {} served {} step-3 commands of {} jobs",
                stats.shard,
                stats.step3_jobs,
                samples.len()
            );
            assert_eq!(stats.stolen_items, 0, "no shard died");
        }
        let summary = report.summary();
        assert!(summary.contains("reads mapped"));
        assert!(summary.contains("stage overlap events"));
    }
}

#[test]
fn more_shards_than_database_entries_stays_correct() {
    // `SortedKmerDatabase::partition` pads with empty trailing shards when
    // parts > len; those dead shards must never be commanded (0 jobs), must
    // not corrupt results, and must not turn utilization reporting into
    // NaN/Inf nonsense.
    let base = CommunityConfig::preset(Diversity::Low)
        .with_species(2)
        .with_database_species(2)
        .with_reads(30)
        .with_genome_len(40);
    let community = base.build(99);
    let analyzer = MegisAnalyzer::build(community.references(), MegisConfig::small());
    let entries = analyzer.database().len();
    let shards = entries + 8;
    assert!(entries > 0, "tiny community still indexes something");

    let expected = analyzer.analyze(community.sample());
    let (results, report) = run_batch(
        analyzer,
        EngineConfig::new().with_workers(2).with_shards(shards),
        (0..3).map(|i| JobSpec::new(format!("s{i}"), community.sample().clone())),
    );
    assert_eq!(results.len(), 3);
    for result in &results {
        assert_eq!(result.output, expected, "{} diverged", result.label);
    }
    assert_eq!(report.shard_stats.len(), shards);
    // Entry-holding shards serve every job's intersection; entry-less
    // padding shards are never *intersect*-commanded (their key range is
    // empty). They may still serve Step 3: its commands rotate over the
    // whole device array — Step 3 resolves candidates against the
    // analyzer's memoized indexes, not the shard's database range. So
    // `busy` is only pinned to zero for shards that served neither
    // command kind.
    for stats in &report.shard_stats {
        if stats.shard < entries {
            assert_eq!(stats.jobs, 3, "shard {} holds entries", stats.shard);
        } else {
            assert_eq!(stats.jobs, 0, "shard {} is padding", stats.shard);
            assert_eq!(stats.query_items, 0);
            if stats.step3_jobs == 0 {
                assert_eq!(stats.busy, std::time::Duration::ZERO);
            }
        }
    }
    let utilization = report.shard_utilization();
    assert_eq!(utilization.len(), shards);
    for (shard, util) in utilization.iter().enumerate() {
        assert!(
            util.is_finite() && *util >= 0.0,
            "shard {shard} utilization is nonsense: {util}"
        );
    }
    assert!(!report.summary().is_empty());
}

#[test]
fn fifo_and_priority_policies_order_service_differently() {
    let (analyzer, samples) = cohort(6);
    let build_jobs = || {
        let mut jobs = specs(&samples);
        jobs[3] = jobs[3].clone().with_priority(Priority::High);
        jobs[5] = jobs[5].clone().with_priority(Priority::High);
        jobs[0] = jobs[0].clone().with_priority(Priority::Low);
        jobs
    };

    let policy = |policy| EngineConfig::new().with_workers(1).with_policy(policy);
    let (fifo_run, _) = run_batch(analyzer.clone(), policy(SchedPolicy::Fifo), build_jobs());
    let fifo_order: Vec<usize> = fifo_run.iter().map(|r| r.start_position).collect();
    assert_eq!(
        fifo_order,
        [0, 1, 2, 3, 4, 5],
        "FIFO serves submission order"
    );

    let (prio_run, _) = run_batch(analyzer, policy(SchedPolicy::Priority), build_jobs());
    let pos = |id: usize| {
        assert_eq!(prio_run[id].id.0, id as u64, "results are in job id order");
        prio_run[id].start_position
    };
    // High before normal before low; ties by submission order.
    assert_eq!(pos(3), 0);
    assert_eq!(pos(5), 1);
    assert_eq!(pos(1), 2);
    assert_eq!(pos(0), 5, "low priority runs last");
    // Policies change order only — outputs stay identical.
    for (a, b) in fifo_run.iter().zip(&prio_run) {
        assert_eq!(a.output, b.output);
    }
}

#[test]
fn modeled_account_tracks_analytic_multi_sample_models() {
    // The engine's modeled account must agree with the pipeline module's
    // analytic models evaluated directly.
    let system = SystemConfig::reference(SsdConfig::ssd_c());
    let workload = WorkloadSpec::cami(Diversity::Medium);
    let acct = ModeledAccount::compute(&system, &workload, 16, 1);

    let single = MegisTimingModel::full().presence_breakdown(&system, &workload);
    let independent = baseline_multi_sample(&single, 16);
    let pipelined = MegisTimingModel::full().multi_sample_breakdown(&system, &workload, 16);
    assert_eq!(
        acct.independent_total().as_secs(),
        independent.total().as_secs()
    );
    assert_eq!(
        acct.pipelined_total().as_secs(),
        pipelined.total().as_secs()
    );
    assert!(acct.pipelining_speedup() > 1.0);
}

#[test]
fn modeled_shard_scaling_is_near_linear_to_eight() {
    let system = SystemConfig::reference(SsdConfig::ssd_c()).with_ssd_count(8);
    let workload = WorkloadSpec::cami(Diversity::Medium);
    let acct = ModeledAccount::compute(&system, &workload, 4, 8);
    for (count, speedup) in &acct.shard_speedups {
        assert!(
            *speedup >= 0.9 * *count as f64,
            "{count} shards reach only {speedup:.2}x"
        );
    }
}

#[test]
fn a_batch_that_does_not_fit_admits_nothing_and_the_engine_keeps_serving() {
    // Admission of a set is all-or-nothing: six jobs against a capacity of
    // four leave nothing queued — not the first four — and the same engine
    // then serves sets that fit, byte-identical to the sequential analyzer.
    let (analyzer, samples) = cohort(6);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();
    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new()
            .with_workers(2)
            .with_shards(2)
            .with_queue_capacity(4),
    );
    let err = engine.submit_all(specs(&samples)).unwrap_err();
    assert_eq!(err, AdmissionError::QueueFull { capacity: 4 });
    assert_eq!(engine.pending(), 0, "nothing got in before the wall");

    let first = engine.submit_all(specs(&samples[..4])).expect("four fit");
    engine.drain();
    let retry = engine
        .submit(JobSpec::new("retry", samples[4].clone()))
        .expect("capacity freed by the drain");
    for (handle, expected) in first.into_iter().chain([retry]).zip(&expected) {
        let result = handle.wait().expect("job served");
        assert_eq!(
            result.output, *expected,
            "{} diverged after the rejection",
            result.label
        );
    }
    assert_eq!(engine.shutdown().completed, 5);
}

#[test]
fn per_job_metrics_are_populated() {
    let (analyzer, samples) = cohort(4);
    let config = EngineConfig::new().with_workers(2).with_shards(2);
    let (results, report) = run_batch(analyzer, config, specs(&samples));
    assert!(report.uptime.as_nanos() > 0);
    assert_eq!((report.completed, report.window.count), (4, 4));
    assert!(report.window.p99 >= report.window.p50);
    for result in &results {
        assert!(result.latency >= result.step1_time);
        assert!(result.latency >= result.isp_time);
        assert!(result.output.selected_kmers > 0);
    }
    for stats in &report.shard_stats {
        assert_eq!(stats.jobs, 4, "every shard serves every job");
    }
}
