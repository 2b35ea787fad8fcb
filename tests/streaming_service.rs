//! Integration tests for `megis-sched` service mode: submissions from many
//! concurrent threads while the engine runs, graceful drain, byte-identical
//! results versus the sequential analyzer, and the in-SSD ordering
//! guarantee.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;

use megis::config::MegisConfig;
use megis::{MegisAnalyzer, MegisOutput};
use megis_genomics::sample::{CommunityConfig, Diversity, Sample};
use megis_genomics::sketch::SketchConfig;
use megis_sched::{
    EngineConfig, FaultPlan, JobHandle, JobResult, JobSpec, Priority, SchedPolicy, StreamingEngine,
};

fn cohort(n: usize) -> (MegisAnalyzer, Vec<Sample>) {
    let base = CommunityConfig::preset(Diversity::Medium)
        .with_reads(100)
        .with_database_species(12);
    let reference_community = base.build(512);
    let analyzer = MegisAnalyzer::build(reference_community.references(), MegisConfig::small());
    // Same references (seed 512), independent read streams per sample.
    let samples = (0..n)
        .map(|i| {
            base.build_cohort_sample(512, 9000 + i as u64)
                .sample()
                .clone()
        })
        .collect();
    (analyzer, samples)
}

#[test]
fn concurrent_submitters_get_results_identical_to_sequential_analyze() {
    // The acceptance scenario: jobs arrive from 4 submitter threads while
    // the engine is running, the service drains gracefully, and every
    // result is byte-identical to per-sample `MegisAnalyzer::analyze`.
    const SAMPLES: usize = 16;
    const SUBMITTERS: usize = 4;
    let (analyzer, samples) = cohort(SAMPLES);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    let engine = Arc::new(StreamingEngine::new(
        analyzer,
        EngineConfig::new().with_workers(4).with_shards(3),
    ));
    let handles: Vec<(usize, JobHandle)> = thread::scope(|scope| {
        let mut joins = Vec::new();
        for submitter in 0..SUBMITTERS {
            let engine = Arc::clone(&engine);
            let samples = &samples;
            joins.push(scope.spawn(move || {
                (submitter..SAMPLES)
                    .step_by(SUBMITTERS)
                    .map(|i| {
                        let handle = engine
                            .submit(JobSpec::new(format!("s{i}"), samples[i].clone()))
                            .expect("admission while running");
                        (i, handle)
                    })
                    .collect::<Vec<_>>()
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("submitter thread"))
            .collect()
    });
    assert_eq!(handles.len(), SAMPLES);

    engine.drain();
    let mut positions = Vec::new();
    for (i, handle) in handles {
        let result = handle
            .try_wait()
            .expect("drained job already delivered")
            .expect("job succeeded");
        assert_eq!(
            result.output, expected[i],
            "{} diverged from sequential analyze",
            result.label
        );
        assert_eq!(
            result.isp_position, result.start_position,
            "in-SSD stage must serve dispatch order"
        );
        positions.push(result.start_position);
    }
    positions.sort_unstable();
    assert_eq!(
        positions,
        (0..SAMPLES).collect::<Vec<_>>(),
        "service positions are dense"
    );

    let engine = Arc::try_unwrap(engine).expect("all submitters done");
    let report = engine.shutdown();
    assert_eq!(report.completed, SAMPLES as u64);
    for stats in &report.shard_stats {
        assert_eq!(stats.jobs, SAMPLES as u64, "every shard serves every job");
    }
}

#[test]
fn interleaved_submit_and_submit_all_keep_ids_and_positions_dense() {
    // One thread submits job by job while another admits closed sets of
    // three: both go through the one admission path, so whatever the
    // interleaving, ids and service positions are each exactly 0..N, a set's
    // ids are consecutive, and every result matches `analyze`.
    const SINGLES: usize = 6;
    const SETS: usize = 4;
    let (analyzer, samples) = cohort(SINGLES + 3 * SETS);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();
    let engine = StreamingEngine::new(analyzer, EngineConfig::new().with_workers(3).with_shards(2));
    let spec = |i: usize| JobSpec::new(format!("s{i}"), samples[i].clone());
    let (singles, sets) = thread::scope(|scope| {
        let singles = scope.spawn(|| -> Vec<(usize, JobHandle)> {
            (0..SINGLES)
                .map(|i| (i, engine.submit(spec(i)).expect("admission")))
                .collect()
        });
        let sets = scope.spawn(|| -> Vec<(usize, JobHandle)> {
            let mut admitted = Vec::new();
            for first in (SINGLES..SINGLES + 3 * SETS).step_by(3) {
                let set = engine
                    .submit_all((first..first + 3).map(spec))
                    .expect("admission");
                let ids: Vec<u64> = set.iter().map(|h| h.id().0).collect();
                assert_eq!(ids, [ids[0], ids[0] + 1, ids[0] + 2], "a set's ids");
                admitted.extend((first..first + 3).zip(set));
            }
            admitted
        });
        (singles.join().unwrap(), sets.join().unwrap())
    });
    let (mut ids, mut positions) = (Vec::new(), Vec::new());
    for (i, handle) in singles.into_iter().chain(sets) {
        let result = handle.wait().expect("job served");
        assert_eq!(result.output, expected[i], "{} diverged", result.label);
        assert_eq!(result.isp_position, result.start_position);
        ids.push(result.id.0 as usize);
        positions.push(result.start_position);
    }
    ids.sort_unstable();
    positions.sort_unstable();
    let dense: Vec<usize> = (0..SINGLES + 3 * SETS).collect();
    assert_eq!((ids, positions), (dense.clone(), dense));
}

#[test]
fn full_width_sketch_shapes_stay_byte_identical_to_sequential_analyze() {
    // Every other suite runs `MegisConfig::small()`, k = 31: Step 1 on
    // half-width words. k_max = 45 counts on full-width words, and 32 / 33
    // sit on either side of the width rule; the engine must agree with
    // `analyze` on each, and `analyze` must still find the sample's species.
    for (k_max, seed) in [(45usize, 2345u64), (33, 2333), (32, 2332)] {
        let sketch = SketchConfig {
            k_max,
            k_min: k_max - 10,
            k_step: 5,
            fraction: 0.2,
        };
        let config = MegisConfig {
            sketch,
            ..MegisConfig::small()
        };
        let base = CommunityConfig::preset(Diversity::Medium)
            .with_reads(120)
            .with_database_species(12);
        let analyzer = MegisAnalyzer::build(base.build(seed).references(), config);
        let samples: Vec<Sample> = (0..5)
            .map(|i| base.build_cohort_sample(seed, 77 + i).sample().clone())
            .collect();
        let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();
        for (sample, output) in samples.iter().zip(&expected) {
            // `analyze` and the engine share Step 1's counting routine, so an
            // ordered set built k-mer by k-mer is the witness that this
            // width's instantiation sorts: the query list is that set, and
            // the hits are its members the database holds.
            let mut queries = BTreeSet::new();
            for read in sample.reads().iter() {
                queries.extend(read.kmers(k_max).map(|kmer| kmer.canonical()));
            }
            let step1 = analyzer.run_step1(sample);
            assert!(step1.kmers().iter().eq(&queries), "k_max {k_max}: Step 1");
            assert_eq!(output.selected_kmers, queries.len() as u64);
            let hits = queries
                .iter()
                .filter(|q| analyzer.database().lookup(**q).is_some());
            assert_eq!(
                output.intersecting_kmers,
                hits.count() as u64,
                "k_max {k_max}"
            );
            assert!(output.intersecting_kmers > 0, "k_max {k_max}: nothing hit");
            assert!(!output.presence.is_empty(), "k_max {k_max}: no species");
            assert!(output.mapped_reads > 0, "k_max {k_max}: nothing mapped");
        }

        let engine =
            StreamingEngine::new(analyzer, EngineConfig::new().with_workers(2).with_shards(2));
        let handles: Vec<JobHandle> = samples
            .iter()
            .enumerate()
            .map(|(i, sample)| {
                engine
                    .submit(JobSpec::new(format!("k{k_max}-s{i}"), sample.clone()))
                    .expect("admission while running")
            })
            .collect();
        for (handle, expected) in handles.into_iter().zip(&expected) {
            let result = handle.wait().expect("job succeeded");
            assert_eq!(
                &result.output, expected,
                "{} diverged from sequential analyze",
                result.label
            );
        }
        engine.shutdown();
    }
}

#[test]
fn isp_service_order_follows_priority_policy_with_four_workers() {
    // Acceptance: with `SchedPolicy::Priority` and `workers = 4`, in-SSD
    // service order follows (priority desc, submission asc) exactly. The
    // batch is admitted whole (`submit_all`) so the policy order is fully
    // determined; four workers race Step 1 completion, and the reorder
    // buffer must still hand samples to the in-SSD stage in policy order.
    let (analyzer, samples) = cohort(12);
    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new()
            .with_workers(4)
            .with_shards(2)
            .with_policy(SchedPolicy::Priority),
    );
    let priority_of = |id: u64| match id {
        1 | 6 | 10 => Priority::High,
        0 | 4 | 8 => Priority::Low,
        _ => Priority::Normal,
    };
    let handles = engine
        .submit_all(samples.iter().enumerate().map(|(i, sample)| {
            JobSpec::new(format!("s{i}"), sample.clone()).with_priority(priority_of(i as u64))
        }))
        .unwrap();
    let results: Vec<JobResult> = handles.into_iter().map(|h| h.wait().unwrap()).collect();

    let mut served: Vec<&JobResult> = results.iter().collect();
    served.sort_by_key(|r| r.isp_position);
    let served_ids: Vec<u64> = served.iter().map(|r| r.id.0).collect();
    let mut expected: Vec<u64> = (0..12).collect();
    expected.sort_by_key(|id| (std::cmp::Reverse(priority_of(*id)), *id));
    assert_eq!(
        served_ids, expected,
        "in-SSD service order must be (priority desc, submission asc)"
    );
    for r in &results {
        assert_eq!(r.isp_position, r.start_position);
    }
}

#[test]
fn several_samples_intersections_are_in_flight_per_shard() {
    // Acceptance: with per-shard query slicing and queue depth >= 2, at
    // least two samples' intersection commands are concurrently in flight
    // on one shard (peak queue occupancy >= 2), while delivery still
    // respects dispatch order and every result stays byte-identical to the
    // sequential analyzer. An injected latency spike on every command
    // makes the overlap deterministic: commands dwell on the device long
    // enough for the completer to queue the next sample's command behind
    // them.
    use std::time::Duration;
    let (analyzer, samples) = cohort(10);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();
    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new()
            .with_workers(2)
            .with_shards(2)
            .with_queue_depth(4)
            .with_fault_plan(
                FaultPlan::seeded(1).with_latency_spike(1.0, Duration::from_millis(2)),
            ),
    );
    let handles: Vec<JobHandle> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            engine
                .submit(JobSpec::new(format!("s{i}"), s.clone()))
                .unwrap()
        })
        .collect();
    engine.drain();
    for (handle, expected) in handles.into_iter().zip(&expected) {
        let result = handle
            .try_wait()
            .expect("drained job delivered")
            .expect("job succeeded");
        assert_eq!(result.output, *expected, "{} diverged", result.label);
        assert_eq!(
            result.isp_position, result.start_position,
            "delivery must respect dispatch order"
        );
    }
    let report = engine.shutdown();
    let peak = report
        .shard_stats
        .iter()
        .map(|s| s.peak_inflight)
        .max()
        .unwrap();
    assert!(
        peak >= 2,
        "with depth 4 and dwelling commands, some shard must hold >= 2 \
         samples' intersections at once (observed peak {peak})"
    );
    for stats in &report.shard_stats {
        assert!(
            stats.peak_inflight <= 4,
            "shard {} exceeded the configured depth: {}",
            stats.shard,
            stats.peak_inflight
        );
    }
}

#[test]
fn per_shard_query_work_sums_to_the_query_count() {
    // Work accounting for the range-partitioned dispatch: across all
    // shards, the query items scanned must equal the batch's total selected
    // k-mers |Q| (each query slice visits exactly one shard) — not the
    // N·|Q| the old broadcast dispatch cost.
    let (analyzer, samples) = cohort(6);
    for shards in [1usize, 2, 4, 8] {
        let engine = StreamingEngine::new(
            analyzer.clone(),
            EngineConfig::new().with_workers(2).with_shards(shards),
        );
        let handles: Vec<JobHandle> = samples
            .iter()
            .enumerate()
            .map(|(i, s)| {
                engine
                    .submit(JobSpec::new(format!("s{i}"), s.clone()))
                    .unwrap()
            })
            .collect();
        engine.drain();
        let total_queries: u64 = handles
            .into_iter()
            .map(|h| {
                h.try_wait()
                    .expect("drained")
                    .expect("succeeded")
                    .output
                    .selected_kmers
            })
            .sum();
        let report = engine.shutdown();
        let scanned: u64 = report.shard_stats.iter().map(|s| s.query_items).sum();
        assert_eq!(
            scanned, total_queries,
            "{shards} shards must scan each query exactly once"
        );
    }
}

#[test]
fn snapshot_tracks_rolling_window_and_lifecycle() {
    let (analyzer, samples) = cohort(8);
    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new()
            .with_workers(2)
            .with_shards(2)
            .with_metrics_window(4),
    );
    let handles: Vec<JobHandle> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            engine
                .submit(JobSpec::new(format!("s{i}"), s.clone()))
                .unwrap()
        })
        .collect();
    engine.drain();
    let snap = engine.snapshot();
    assert!(snap.accepting);
    assert_eq!(snap.pending, 0);
    assert_eq!(snap.in_flight, 0);
    assert_eq!(snap.completed, 8);
    assert_eq!(
        snap.window.count, 4,
        "rolling window keeps only the newest completions"
    );
    assert!(snap.window.p99 >= snap.window.p50);
    assert!(snap.window_throughput > 0.0);
    drop(handles);
    let report = engine.shutdown();
    assert_eq!(report.completed, 8);
    assert!(report.uptime.as_nanos() > 0);
    assert_eq!(report.window.count, 4);
}
