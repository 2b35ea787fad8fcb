//! Cross-sample query coalescing: byte-parity matrix and fault-path
//! interaction tests.
//!
//! The coalescing window is a pure scheduling knob: it changes how many
//! galloping sweeps the shard workers run, never what any sample computes.
//! The oracle for every test here is therefore the same as the engine's
//! own: [`MegisAnalyzer::analyze`] per sample. The matrix test drives the
//! window across worker/shard/queue-depth combinations and checks the
//! outputs and the query-item accounting against an uncoalesced twin run;
//! the fault tests point a seeded [`FaultPlan`] at shared commands and
//! check that retry and failover treat a multi-member command as one unit.

use std::time::Duration;

use megis::config::MegisConfig;
use megis::MegisAnalyzer;
use megis_genomics::sample::{Community, CommunityConfig, Diversity};
use megis_sched::{
    EngineConfig, FaultPlan, JobResult, JobSpec, ServiceReport, ShardStats, StreamingEngine,
};

fn community() -> Community {
    CommunityConfig::preset(Diversity::Medium)
        .with_reads(120)
        .with_database_species(12)
        .build(91)
}

fn analyzer(c: &Community) -> MegisAnalyzer {
    MegisAnalyzer::build(c.references(), MegisConfig::small())
}

fn specs(c: &Community, n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec::new(format!("sample-{i}"), c.sample().clone()))
        .collect()
}

/// Runs `jobs` copies of the sample as one closed batch; every job must be
/// served, and the results come back in submission order.
fn run(c: &Community, config: EngineConfig, jobs: usize) -> (Vec<JobResult>, ServiceReport) {
    let engine = StreamingEngine::new(analyzer(c), config);
    let handles = engine.submit_all(specs(c, jobs)).unwrap();
    let report = engine.shutdown();
    let results = handles
        .into_iter()
        .map(|h| h.wait().expect("job served"))
        .collect();
    (results, report)
}

/// A generous window: it only delays dispatch while the group is still
/// filling, and with as many jobs as the group cap the wait ends as soon
/// as the last Step 1 finishes — so "generous" costs milliseconds, not the
/// window, while making the grouping deterministic even on a loaded CI
/// host.
const WINDOW: Duration = Duration::from_secs(2);

fn step2_commands(stats: &[ShardStats]) -> u64 {
    stats.iter().map(|s| s.jobs).sum()
}

fn query_items(stats: &[ShardStats]) -> u64 {
    stats.iter().map(|s| s.query_items).sum()
}

fn coalesced_commands(stats: &[ShardStats]) -> u64 {
    stats.iter().map(|s| s.coalesced_commands).sum()
}

fn coalesced_members(stats: &[ShardStats]) -> u64 {
    stats.iter().map(|s| s.coalesced_members).sum()
}

/// Member slices served across the array: singleton commands carry one
/// each, shared commands carry their member count. Coalescing must
/// conserve this — every (sample, shard) slice is swept exactly once.
fn member_slices(stats: &[ShardStats]) -> u64 {
    (step2_commands(stats) - coalesced_commands(stats)) + coalesced_members(stats)
}

/// Tentpole oracle: for every worker × shard × queue-depth corner, the
/// coalesced engine's outputs are byte-identical to the uncoalesced twin
/// and to the sequential analyzer, and the per-shard query-item accounting
/// (how many query k-mers crossed the array) is unchanged — coalescing
/// amortizes sweeps, it does not reshape the query-side work.
#[test]
fn window_matrix_is_byte_identical_to_uncoalesced_runs() {
    let c = community();
    let expected = analyzer(&c).analyze(c.sample());
    let jobs = 5;
    for workers in [1, 2] {
        for shards in [1, 3] {
            for depth in [1, 4] {
                let base = EngineConfig::new()
                    .with_workers(workers)
                    .with_shards(shards)
                    .with_queue_depth(depth);
                let (off_results, off) = run(&c, base.clone(), jobs);
                let (on_results, on) = run(&c, base.with_coalescing_window(WINDOW), jobs);
                let corner = format!("workers={workers} shards={shards} depth={depth}");
                assert_eq!(on_results.len(), jobs, "{corner}");
                for (a, b) in off_results.iter().zip(&on_results) {
                    assert_eq!(a.id, b.id, "{corner}");
                    assert_eq!(a.output, expected, "{corner}: uncoalesced diverged");
                    assert_eq!(b.output, expected, "{corner}: coalesced diverged");
                }
                assert_eq!(
                    query_items(&off.shard_stats),
                    query_items(&on.shard_stats),
                    "{corner}: coalescing changed the query-item accounting"
                );
                assert_eq!(
                    member_slices(&on.shard_stats),
                    step2_commands(&off.shard_stats),
                    "{corner}: a member slice was dropped or swept twice"
                );
                assert_eq!(
                    coalesced_commands(&off.shard_stats),
                    0,
                    "{corner}: the default engine must never share a sweep"
                );
            }
        }
    }
}

/// With a window and room in the queue, co-resident samples genuinely
/// share sweeps: fewer physical Step 2 commands than member slices, and
/// the ShardStats occupancy counters surface it.
#[test]
fn co_resident_samples_share_sweeps() {
    let c = community();
    let jobs = 4;
    let config = EngineConfig::new()
        .with_workers(2)
        .with_shards(2)
        .with_queue_depth(jobs)
        .with_coalescing_window(WINDOW);
    let (_, report) = run(&c, config, jobs);
    let stats = &report.shard_stats;
    assert!(
        coalesced_commands(stats) >= 1,
        "no sweep was shared despite a {WINDOW:?} window: {stats:?}"
    );
    assert!(
        step2_commands(stats) < member_slices(stats),
        "sharing saved no sweeps: {stats:?}"
    );
    let summary = report.summary();
    assert!(
        summary.contains("query coalescing:"),
        "summary is missing the coalescing line:\n{summary}"
    );
}

/// A transient fault on a shared command retries the whole command as one
/// unit: results stay byte-identical, every member's hits come back from
/// the retried sweep, and the `faults == retries` exactness the seeded
/// plan guarantees for singleton commands survives coalescing (both count
/// physical commands, not members).
#[test]
fn transient_fault_retries_a_shared_command_whole() {
    let c = community();
    let expected = analyzer(&c).analyze(c.sample());
    let jobs = 4;
    let config = EngineConfig::new()
        .with_workers(2)
        .with_shards(2)
        .with_queue_depth(jobs)
        .with_coalescing_window(WINDOW)
        .with_fault_plan(FaultPlan::seeded(7).with_transient_rate(1.0));
    let (results, report) = run(&c, config, jobs);
    assert_eq!((results.len(), report.failed_jobs), (jobs, 0));
    for r in &results {
        assert_eq!(r.output, expected, "{} diverged after retry", r.label);
    }
    let stats = &report.shard_stats;
    let faults: u64 = stats.iter().map(|s| s.faults).sum();
    let retries: u64 = stats.iter().map(|s| s.retries).sum();
    assert!(faults > 0, "the plan fails every command once: {stats:?}");
    assert_eq!(
        faults, retries,
        "a recovered shared command must count one fault and one retry: {stats:?}"
    );
    assert!(
        coalesced_commands(stats) >= 1,
        "the fault path never saw a shared command: {stats:?}"
    );
}

/// Killing a shard while shared commands are in flight fails over the
/// coalesced backlog to survivors *without splitting members*: with all
/// four jobs grouped per shard, the array still serves exactly one shared
/// sweep per shard — the adopted command keeps its full member list — and
/// every sample's output is byte-identical.
#[test]
fn dead_shard_failover_adopts_shared_commands_whole() {
    let c = community();
    let expected = analyzer(&c).analyze(c.sample());
    let jobs = 4;
    let shards = 3;
    let config = EngineConfig::new()
        .with_workers(2)
        .with_shards(shards)
        .with_queue_depth(jobs)
        .with_coalescing_window(WINDOW)
        .with_fault_plan(FaultPlan::seeded(11).with_shard_death(0, 0));
    let (results, report) = run(&c, config, jobs);
    assert_eq!((results.len(), report.failed_jobs), (jobs, 0));
    for r in &results {
        assert_eq!(r.output, expected, "{} diverged after failover", r.label);
    }
    let stats = &report.shard_stats;
    let failovers: u64 = stats.iter().map(|s| s.failovers).sum();
    assert!(
        failovers >= 1,
        "the dead shard never failed over: {stats:?}"
    );
    assert!(stats[0].dead, "shard 0 should be marked dead: {stats:?}");
    // Every job overlaps every shard's key range in this community, so
    // grouping all four jobs yields one 4-member command per shard. The
    // adopted command must arrive at its survivor intact: one shared sweep
    // per shard-of-record, each carrying all four members.
    assert_eq!(
        coalesced_commands(stats),
        shards as u64,
        "a shared command was split across re-issues: {stats:?}"
    );
    assert_eq!(
        coalesced_members(stats),
        (shards * jobs) as u64,
        "the failed-over command lost members: {stats:?}"
    );
}
