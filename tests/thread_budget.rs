//! The engine's thread budget: a `StreamingEngine` runs exactly `workers`
//! threads, whatever its shard count, and joins all of them at shutdown.
//!
//! The test is alone in its binary, so no other test's threads can move
//! the count it reads.

#[cfg(target_os = "linux")]
#[test]
fn an_engine_runs_exactly_workers_threads() {
    use megis::config::MegisConfig;
    use megis::MegisAnalyzer;
    use megis_genomics::sample::{CommunityConfig, Diversity};
    use megis_sched::{EngineConfig, JobSpec, StreamingEngine};
    use std::time::{Duration, Instant};

    /// Threads of this process: the entries of its task directory.
    fn threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs lists this process's threads")
            .count()
    }

    const WORKERS: usize = 3;
    let community = CommunityConfig::preset(Diversity::Medium)
        .with_reads(100)
        .with_database_species(10)
        .build(23);
    let analyzer = MegisAnalyzer::build(community.references(), MegisConfig::small());
    let expected = analyzer.analyze(community.sample());

    let baseline = threads();
    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new().with_workers(WORKERS).with_shards(8),
    );
    let handles = engine
        .submit_all((0..4).map(|i| JobSpec::new(format!("s{i}"), community.sample().clone())))
        .expect("admitted");
    for handle in handles {
        assert_eq!(handle.wait().expect("served").output, expected);
    }
    assert_eq!(
        threads(),
        baseline + WORKERS,
        "a running engine adds its pool and nothing else"
    );
    let report = engine.shutdown();
    assert_eq!(report.completed, 4);
    // A joined thread can still be listed for the moment the kernel takes
    // to release it after its exit woke the joiner.
    let released = Instant::now() + Duration::from_secs(1);
    while threads() > baseline && Instant::now() < released {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), baseline, "shutdown joins every thread");
}
