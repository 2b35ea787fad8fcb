//! A many-client batch analysis service built on `megis-sched`.
//!
//! Simulates a sequencing facility where many clients — routine cohort
//! studies and time-critical clinical cases — submit samples against one
//! shared reference database. The engine admits the closed batch whole under
//! a priority policy (`submit_all`), runs host-side Step 1 on a worker pool,
//! shards intersection finding across four simulated SSDs, overlaps the
//! stages exactly as §4.7 of the paper prescribes, and is drained by
//! `shutdown`. Every result is checked byte-identical to running
//! `MegisAnalyzer::analyze` per sample; the program exits non-zero if one is
//! not.
//!
//! Run with: `cargo run -p megis-examples --bin batch_service`

use std::process::ExitCode;

use megis::config::MegisConfig;
use megis::{MegisAnalyzer, MegisOutput};
use megis_genomics::sample::{CommunityConfig, Diversity};
use megis_sched::{
    EngineConfig, JobResult, JobSpec, ModeledAccount, Priority, SchedPolicy, StreamingEngine,
};

fn main() -> ExitCode {
    println!("MegIS batch analysis service");
    println!("============================\n");

    // One shared reference database for the whole service.
    let base = CommunityConfig::preset(Diversity::Medium)
        .with_reads(150)
        .with_database_species(16);
    let reference_community = base.build(7);
    let analyzer = MegisAnalyzer::build(reference_community.references(), MegisConfig::small());

    // Many clients submit: 20 cohort samples, 3 stat clinical cases, and a
    // background re-analysis sweep.
    let mut jobs = Vec::new();
    for i in 0..20 {
        let sample = base.build_cohort_sample(7, 1000 + i).sample().clone();
        jobs.push(JobSpec::new(format!("cohort/{i:02}"), sample));
    }
    for i in 0..3 {
        let sample = base.build_cohort_sample(7, 2000 + i).sample().clone();
        jobs.push(JobSpec::new(format!("clinical/STAT-{i}"), sample).with_priority(Priority::High));
    }
    let sweep = base.build_cohort_sample(7, 3000).sample().clone();
    jobs.push(JobSpec::new("background/resweep", sweep).with_priority(Priority::Low));
    // The sequential reference every engine result is compared against.
    let expected: Vec<MegisOutput> = jobs.iter().map(|j| analyzer.analyze(&j.sample)).collect();

    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new()
            .with_workers(4)
            .with_shards(4)
            .with_policy(SchedPolicy::Priority)
            .with_queue_capacity(64),
    );
    let config = engine.config().clone();
    println!(
        "engine: {} host threads, {} database shards ({} entries total), {} policy\n",
        config.workers,
        engine.shards().shard_count(),
        engine.shards().total_entries(),
        config.policy.label(),
    );

    println!("submitting {} jobs; running the batch...\n", jobs.len());
    let handles = engine.submit_all(jobs).expect("admission");
    let report = engine.shutdown();
    let results: Vec<JobResult> = handles
        .into_iter()
        .map(|h| h.wait().expect("job served"))
        .collect();

    println!(
        "{:<22} {:>8} {:>7} {:>10} {:>10} {:>8}",
        "job", "priority", "order", "wait ms", "lat ms", "species"
    );
    let mut by_start: Vec<&JobResult> = results.iter().collect();
    by_start.sort_by_key(|r| r.start_position);
    for r in &by_start {
        println!(
            "{:<22} {:>8} {:>7} {:>10.1} {:>10.1} {:>8}",
            r.label,
            r.priority.label(),
            r.start_position,
            r.queue_wait.as_secs_f64() * 1e3,
            r.latency.as_secs_f64() * 1e3,
            r.output.presence.len(),
        );
    }

    print!("\n{}", report.summary());
    let modeled = ModeledAccount::compute(
        &config.system,
        &config.workload,
        results.len(),
        config.shards,
    );
    println!(
        "modeled ({} samples, {} shards): independent {:.1} s, pipelined {:.1} s ({:.2}x); \
         per-shard db stream {:.1} s, one-device step3 index stream {:.1} s per job",
        modeled.samples,
        modeled.shards,
        modeled.independent_total().as_secs(),
        modeled.pipelined_total().as_secs(),
        modeled.pipelining_speedup(),
        modeled.shard_stream_time.as_secs(),
        modeled.step3_stream_time.as_secs(),
    );
    let speedups: Vec<String> = modeled
        .shard_speedups
        .iter()
        .map(|(n, s)| format!("{n} SSD: {s:.2}x"))
        .collect();
    println!("modeled intersection scaling: {}", speedups.join(", "));

    let identical = results.iter().zip(&expected).all(|(r, e)| r.output == *e);
    let clinical_first = by_start[..3].iter().all(|r| r.priority == Priority::High);
    println!(
        "\nparity with sequential analyzer: {}",
        if identical { "identical" } else { "DIVERGED" }
    );
    if clinical_first {
        println!("High-priority clinical samples entered service first.");
    } else {
        println!("High-priority clinical samples did NOT enter service first.");
    }
    if identical && clinical_first {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
