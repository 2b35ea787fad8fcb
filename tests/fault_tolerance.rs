//! Seeded chaos tests for the fault-tolerant device array: deterministic
//! fault injection at the shard-worker seam, retry/backoff accounting,
//! zero-copy shard failover, and per-job failure isolation. Every
//! recoverable scenario must end byte-identical to the sequential
//! `MegisAnalyzer::analyze` oracle.

use std::time::Duration;

use megis::config::MegisConfig;
use megis::{MegisAnalyzer, MegisOutput};
use megis_genomics::sample::{CommunityConfig, Diversity, Sample};
use megis_sched::{
    EngineConfig, FaultPlan, JobError, JobHandle, JobSpec, StreamingEngine, TraceEventKind,
};

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
    let samples = (0..n)
        .map(|i| {
            base.build_cohort_sample(512, 9000 + i as u64)
                .sample()
                .clone()
        })
        .collect();
    (analyzer, samples)
}

/// Submits `samples` in order as jobs `s0`, `s1`, ….
fn submit_all(engine: &StreamingEngine, samples: &[Sample]) -> Vec<JobHandle> {
    samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            engine
                .submit(JobSpec::new(format!("s{i}"), s.clone()))
                .expect("admission")
        })
        .collect()
}

/// Runs `samples` through a streaming engine under `config`, asserting
/// every job succeeds, and returns the outputs in submission order plus
/// the shutdown report.
fn run_expecting_success(
    analyzer: MegisAnalyzer,
    samples: &[Sample],
    config: EngineConfig,
) -> (Vec<MegisOutput>, megis_sched::ServiceReport) {
    let engine = StreamingEngine::new(analyzer, config);
    let outputs = submit_all(&engine, samples)
        .into_iter()
        .map(|h| h.wait().expect("job recovered").output)
        .collect();
    (outputs, engine.shutdown())
}

/// Every command faults exactly once (rate 1.0, burst 1) across a grid of
/// worker/shard shapes; the engine retries each in place and the results
/// stay byte-identical to the sequential oracle, with exact
/// faults == retries accounting.
#[test]
fn transient_fault_storm_is_invisible_to_results() {
    const SAMPLES: usize = 6;
    let (analyzer, samples) = cohort(SAMPLES);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    for (workers, shards, seed) in [(1usize, 1usize, 7u64), (2, 3, 11), (4, 4, 13)] {
        let plan = FaultPlan::seeded(seed).with_transient_rate(1.0);
        let (outputs, report) = run_expecting_success(
            analyzer.clone(),
            &samples,
            EngineConfig::new()
                .with_workers(workers)
                .with_shards(shards)
                .with_fault_plan(plan),
        );
        for (i, output) in outputs.iter().enumerate() {
            assert_eq!(
                *output, expected[i],
                "w{workers}/s{shards}: sample {i} diverged under transient faults"
            );
        }
        let faults: u64 = report.shard_stats.iter().map(|s| s.faults).sum();
        let retries: u64 = report.shard_stats.iter().map(|s| s.retries).sum();
        assert!(
            faults > 0,
            "w{workers}/s{shards}: the plan injected nothing"
        );
        assert_eq!(
            faults, retries,
            "w{workers}/s{shards}: every transient fault is retried exactly once"
        );
        assert_eq!(report.failed_jobs, 0);
        assert_eq!(report.completed, SAMPLES as u64);
        assert!(
            report.summary().contains("degraded"),
            "faulted run surfaces a degraded-mode line:\n{}",
            report.summary()
        );
    }
}

/// With tracing on, the event log's fault/retry events reconcile with the
/// shard counters, and command issues balance completions plus faults.
#[test]
fn trace_events_reconcile_with_fault_counters() {
    const SAMPLES: usize = 5;
    let (analyzer, samples) = cohort(SAMPLES);
    let plan = FaultPlan::seeded(21).with_transient_rate(1.0);
    let (_, report) = run_expecting_success(
        analyzer,
        &samples,
        EngineConfig::new()
            .with_workers(2)
            .with_shards(3)
            .with_fault_plan(plan)
            .with_tracing(),
    );

    let trace = report.trace.as_ref().expect("tracing on");
    assert_eq!(trace.dropped, 0, "chaos run fits the default ring");
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut fault_events = 0u64;
    let mut retry_events = 0u64;
    for event in &trace.events {
        match event.kind {
            TraceEventKind::CommandIssued { .. } => issued += 1,
            TraceEventKind::CommandCompleted { .. } => completed += 1,
            TraceEventKind::Fault { .. } => fault_events += 1,
            TraceEventKind::Retry { .. } => retry_events += 1,
            _ => {}
        }
    }
    let faults: u64 = report.shard_stats.iter().map(|s| s.faults).sum();
    let retries: u64 = report.shard_stats.iter().map(|s| s.retries).sum();
    assert_eq!(fault_events, faults, "trace and counters agree on faults");
    assert_eq!(retry_events, retries, "trace and counters agree on retries");
    assert_eq!(
        issued,
        completed + faults,
        "every issue ends in exactly one completion or fault"
    );
}

/// A shard dies permanently after its first command; its outstanding and
/// future commands fail over to the surviving device (which holds the same
/// zero-copy storage) and every result stays byte-identical.
#[test]
fn dead_shard_fails_over_without_losing_a_job() {
    const SAMPLES: usize = 6;
    let (analyzer, samples) = cohort(SAMPLES);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    let plan = FaultPlan::seeded(5).with_shard_death(0, 1);
    let (outputs, report) = run_expecting_success(
        analyzer,
        &samples,
        EngineConfig::new()
            .with_workers(2)
            .with_shards(2)
            .with_fault_plan(plan),
    );
    for (i, output) in outputs.iter().enumerate() {
        assert_eq!(*output, expected[i], "sample {i} diverged after failover");
    }
    assert!(report.shard_stats[0].dead, "shard 0 reported dead");
    assert!(!report.shard_stats[1].dead, "shard 1 survived");
    let failovers: u64 = report.shard_stats.iter().map(|s| s.failovers).sum();
    assert!(failovers > 0, "commands rerouted off the dead shard");
    assert_eq!(report.failed_jobs, 0);
    assert_eq!(report.completed, SAMPLES as u64);
}

/// Each job's Step 3 is one command whose result fills the job's one
/// Step 3 slot, so a command whose result is lost would hang or drop the
/// job and one folded twice would trip the completer's double-fill assert.
/// Every command's first attempt faults and is retried in place; then a
/// shard dies holding a command and the commands issued under it are
/// re-served by the survivors. Either way every command is folded exactly
/// once — outputs equal the oracle, every read is served once, and the
/// double-fill assert never poisons the engine.
#[test]
fn step3_commands_are_folded_exactly_once_under_retry_and_failover() {
    const SAMPLES: usize = 6;
    const READS: usize = 300;
    let (analyzer, samples) = cohort_of(SAMPLES, READS);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();
    assert!(expected.iter().all(|e| e.mapped_reads > 0));

    for (label, plan) in [
        ("retry", FaultPlan::seeded(31).with_transient_rate(1.0)),
        ("failover", FaultPlan::seeded(32).with_shard_death(1, 3)),
    ] {
        let (outputs, report) = run_expecting_success(
            analyzer.clone(),
            &samples,
            EngineConfig::new()
                .with_workers(2)
                .with_shards(3)
                .with_fault_plan(plan),
        );
        assert_eq!(outputs, expected, "{label}: a result was lost or doubled");
        let served = |f: fn(&megis_sched::ShardStats) -> u64| -> u64 {
            report.shard_stats.iter().map(f).sum()
        };
        assert_eq!(served(|s| s.step3_jobs), SAMPLES as u64, "{label}");
        assert_eq!(served(|s| s.step3_items), (READS * SAMPLES) as u64);
        assert!(
            served(|s| s.retries) > 0,
            "{label}: the plan injected nothing"
        );
        assert_eq!(report.failed_jobs, 0, "{label}");
        assert_eq!(report.shard_stats[1].dead, label == "failover");
        if label == "failover" {
            // Step 3 commands issued under the dead shard-of-record kept
            // arriving and were mapped by the survivors.
            assert!(served(|s| s.stolen_items) > 0);
        }
    }
}

/// Failover is one re-issue path: a dead shard rejects every command it
/// pops, and the completer marks it dead on the first rejection it reads,
/// re-issues each rejected command to a survivor and routes that shard's
/// later commands there directly. Across array shapes, with shard 0 dying
/// after `death_after` commands: outputs equal the oracle, the dead shard
/// served exactly `death_after` commands, it rejected at most `queue_depth`
/// — a command keeps its shard-of-record's depth slot until it resolves,
/// so no more than `depth` can be out on the dead device before the first
/// rejection is read — and every rejection was re-issued exactly once.
#[test]
fn a_dead_shard_rejects_at_most_a_queue_depth_before_the_completer_routes_around_it() {
    const SAMPLES: usize = 12;
    const READS: usize = 300;
    let (analyzer, samples) = cohort_of(SAMPLES, READS);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    let shapes = [(2usize, 4usize, 1u64), (3, 2, 3), (4, 4, 0), (2, 1, 2)];
    for (seed, (shards, depth, death_after)) in (60u64..).zip(shapes) {
        let shape = format!("{shards} shards, depth {depth}, death after {death_after}");
        let (outputs, report) = run_expecting_success(
            analyzer.clone(),
            &samples,
            EngineConfig::new()
                .with_workers(2)
                .with_shards(shards)
                .with_queue_depth(depth)
                .with_fault_plan(FaultPlan::seeded(seed).with_shard_death(0, death_after)),
        );
        assert_eq!(outputs, expected, "{shape}");
        let dead = &report.shard_stats[0];
        assert!(dead.dead, "{shape}: shard 0 reported dead");
        assert_eq!(dead.jobs + dead.step3_jobs, death_after, "{shape}");
        assert!(
            (1..=depth as u64).contains(&dead.faults),
            "{shape}: {} rejections",
            dead.faults
        );
        let sum = |f: fn(&megis_sched::ShardStats) -> u64| -> u64 {
            report.shard_stats.iter().map(f).sum()
        };
        assert_eq!(sum(|s| s.faults), sum(|s| s.retries), "{shape}");
        assert_eq!(report.failed_jobs, 0, "{shape}");
    }
}

/// With every device dead, each command is rejected and its re-issue finds
/// no live shard: every job fails with `NoLiveShards`, isolated and in
/// order, and shutdown still returns.
#[test]
fn every_shard_dead_fails_each_job_with_no_live_shards() {
    const SAMPLES: usize = 4;
    let (analyzer, samples) = cohort(SAMPLES);
    let plan = FaultPlan::seeded(9)
        .with_shard_death(0, 0)
        .with_shard_death(1, 0);
    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new()
            .with_workers(2)
            .with_shards(2)
            .with_fault_plan(plan),
    );
    for handle in submit_all(&engine, &samples) {
        let job = handle.id();
        assert_eq!(handle.wait().unwrap_err(), JobError::NoLiveShards { job });
    }
    let report = engine.shutdown();
    assert_eq!(report.failed_jobs, SAMPLES as u64);
    assert_eq!(report.completed, 0);
    for stats in &report.shard_stats {
        assert!(stats.dead, "shard {} reported dead", stats.shard);
        assert_eq!(
            stats.jobs + stats.step3_jobs,
            0,
            "a dead shard serves nothing"
        );
    }
}

/// Step 2's reduce adds too: each shard returns the hit count and per-taxon
/// support of its query slice and the completer sums them, so a
/// `(seq, shard)` support folded twice would inflate the hit count and the
/// support (and with them, possibly, the presence call) and a lost one
/// would deflate them. Under transient faults on every command, under
/// deadline re-issues whose superseded attempts still answer late, under a
/// shard death, and under all three at once, every support is folded
/// exactly once: outputs equal the oracle — `intersecting_kmers` is the
/// folded hit count itself — and the completer's folded-twice assert never
/// poisons the engine.
#[test]
fn step2_supports_are_folded_exactly_once_under_retry_deadline_and_failover() {
    const SAMPLES: usize = 5;
    const SPIKE: Duration = Duration::from_millis(200);
    const DEADLINE: Duration = Duration::from_millis(150);
    let (analyzer, samples) = cohort(SAMPLES);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();
    assert!(expected
        .iter()
        .all(|e| e.intersecting_kmers > 0 && !e.presence.is_empty()));

    let plans = [
        (
            "retry",
            FaultPlan::seeded(41).with_transient_rate(1.0),
            None,
        ),
        (
            "deadline",
            FaultPlan::seeded(42).with_latency_spike(0.5, SPIKE),
            Some(DEADLINE),
        ),
        (
            "failover",
            FaultPlan::seeded(43).with_shard_death(1, 2),
            None,
        ),
        (
            "all three",
            FaultPlan::seeded(44)
                .with_transient_rate(0.5)
                .with_latency_spike(0.25, SPIKE)
                .with_shard_death(2, 4),
            Some(DEADLINE),
        ),
    ];
    for (label, plan, deadline) in plans {
        let mut config = EngineConfig::new()
            .with_workers(2)
            .with_shards(3)
            .with_fault_plan(plan)
            .with_retry_budget(8);
        if let Some(deadline) = deadline {
            config = config.with_command_deadline(deadline);
        }
        let (outputs, report) = run_expecting_success(analyzer.clone(), &samples, config);
        assert_eq!(outputs, expected, "{label}: a support was lost or doubled");
        let retries: u64 = report.shard_stats.iter().map(|s| s.retries).sum();
        assert!(retries > 0, "{label}: the plan injected nothing");
        assert_eq!(report.failed_jobs, 0, "{label}");
        assert_eq!(report.completed, SAMPLES as u64, "{label}");
    }
}

/// An injected worker panic fails only the targeted job: the affected
/// handle resolves to `Err(WorkerPanicked)`, sibling jobs complete with
/// oracle-identical output, and the engine keeps accepting work afterward.
#[test]
fn worker_panic_is_isolated_to_one_job() {
    const SAMPLES: usize = 4;
    let (analyzer, samples) = cohort(SAMPLES + 1);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    // One worker, two shards: seq 1's intersect command on shard 0 panics.
    let plan = FaultPlan::seeded(3).with_worker_panic(1, 0);
    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new()
            .with_workers(1)
            .with_shards(2)
            .with_fault_plan(plan),
    );
    let handles: Vec<_> = samples[..SAMPLES]
        .iter()
        .enumerate()
        .map(|(i, s)| {
            engine
                .submit(JobSpec::new(format!("s{i}"), s.clone()))
                .expect("admission")
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(result) => assert_eq!(result.output, expected[i], "surviving sample {i} diverged"),
            Err(JobError::WorkerPanicked { shard, .. }) => {
                assert_eq!(i, 1, "only the targeted job fails");
                assert_eq!(shard, 0, "failure names the panicking device");
            }
            Err(other) => panic!("sample {i}: unexpected failure {other}"),
        }
    }

    // The engine is not poisoned: a fresh submission still completes.
    let late = engine
        .submit(JobSpec::new("late", samples[SAMPLES].clone()))
        .expect("admission after panic");
    let result = late.wait().expect("engine still serves after the panic");
    assert_eq!(result.output, expected[SAMPLES]);

    let report = engine.shutdown();
    assert_eq!(report.failed_jobs, 1);
    assert_eq!(report.completed, SAMPLES as u64, "4 of 5 jobs delivered Ok");
    let error = JobError::WorkerPanicked {
        job: megis_sched::JobId(1),
        shard: 0,
    };
    assert!(error.to_string().contains("failed"), "{error}");
    let dynamic: &dyn std::error::Error = &error;
    assert!(dynamic.to_string().contains("job#"), "{dynamic}");
}

/// A fault burst deeper than the retry budget exhausts it: the job fails
/// with `RetriesExhausted { attempts: budget + 1 }` and the engine drains
/// cleanly instead of hanging on the never-succeeding command.
#[test]
fn retry_budget_exhaustion_fails_the_job_not_the_engine() {
    let (analyzer, samples) = cohort(2);

    // Burst 10 >> budget 2: the first sampled command can never succeed.
    let plan = FaultPlan::seeded(17)
        .with_transient_rate(1.0)
        .with_transient_burst(10);
    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new()
            .with_workers(1)
            .with_shards(1)
            .with_fault_plan(plan)
            .with_retry_budget(2)
            .with_retry_backoff(Duration::from_micros(50)),
    );
    let doomed = engine
        .submit(JobSpec::new("doomed", samples[0].clone()))
        .expect("admission");
    match doomed.wait() {
        Err(JobError::RetriesExhausted { attempts, .. }) => {
            assert_eq!(attempts, 3, "budget 2 allows attempts 0, 1, 2");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }

    // Rate 1.0 dooms every command equally, so prove the engine itself
    // survived by letting the second job exhaust too, then draining.
    let second = engine
        .submit(JobSpec::new("also-doomed", samples[1].clone()))
        .expect("admission after failure");
    assert!(second.wait().is_err());
    let report = engine.shutdown();
    assert_eq!(report.failed_jobs, 2);
    assert_eq!(report.completed, 0);
}

/// Device count of the stuck-device fixture.
const STUCK_SHARDS: usize = 2;

/// The stuck-device fixture: 2 shards × depth 2 under `plan`, traced, with
/// the command deadline armed.
fn stuck_device_engine(
    analyzer: &MegisAnalyzer,
    plan: FaultPlan,
    deadline: Duration,
    budget: u32,
) -> StreamingEngine {
    let config = EngineConfig::new()
        .with_workers(2)
        .with_shards(STUCK_SHARDS)
        .with_queue_depth(2)
        .with_fault_plan(plan)
        .with_command_deadline(deadline)
        .with_retry_budget(budget)
        .with_tracing();
    StreamingEngine::new(analyzer.clone(), config)
}

/// The stuck-device path, recoverable pairing: every command's first
/// attempt stalls on its device for longer than the command deadline but
/// shorter than `deadline × (retry_budget + 1)`. The completer re-issues the
/// stuck attempt; the re-issue queues behind its own sleeping device, so the
/// deadline re-arms per attempt until the device wakes and serves a current
/// one. The superseded attempts still complete — late, with a stale attempt
/// counter — and must be discarded without freeing a queue slot twice.
#[test]
fn command_deadline_recovers_spiked_commands() {
    const SAMPLES: usize = 4;
    // The deadline has to clear a debug build's real per-command service
    // time plus the wait behind a queued neighbour with room to spare: an
    // attempt superseded before the device can answer it is discarded.
    const SPIKE: Duration = Duration::from_millis(200);
    const DEADLINE: Duration = Duration::from_millis(150);
    // Spikes stack: at depth 2 a current attempt can wait out the sleep in
    // progress, its neighbour's first attempt, and its own superseded first
    // attempt (the owner pops freshest-first), so the budget covers three
    // spikes, not one.
    const BUDGET: u32 = 7;
    let (analyzer, samples) = cohort(SAMPLES);
    let expected: Vec<MegisOutput> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    let plan = FaultPlan::seeded(29).with_latency_spike(1.0, SPIKE);
    let engine = stuck_device_engine(&analyzer, plan, DEADLINE, BUDGET);
    let handles = submit_all(&engine, &samples);
    engine.drain();
    assert_eq!(
        engine.snapshot().shard_inflight,
        vec![0; STUCK_SHARDS],
        "every queue slot is freed exactly once"
    );
    for (i, handle) in handles.into_iter().enumerate() {
        let result = handle
            .try_wait()
            .expect("drained job delivered")
            .unwrap_or_else(|e| panic!("sample {i} failed: {e}"));
        assert_eq!(
            result.output, expected[i],
            "sample {i} diverged after a deadline re-issue"
        );
    }
    let report = engine.shutdown();
    assert_eq!(report.failed_jobs, 0);
    assert_eq!(report.completed, SAMPLES as u64);
    let retries: u64 = report.shard_stats.iter().map(|s| s.retries).sum();
    let faults: u64 = report.shard_stats.iter().map(|s| s.faults).sum();
    assert!(
        retries > 0,
        "the deadline must have re-issued stuck commands"
    );
    assert_eq!(faults, 0, "a spike is not a fault");
    // Every attempt is eventually served, superseded or not, and at most
    // one command exists per (sample, shard, stage): more completions than
    // that means superseded attempts answered late — and, by the parity
    // above, were discarded.
    let trace = report.trace.as_ref().expect("tracing on");
    assert_eq!(trace.dropped, 0);
    let served_attempts = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::CommandCompleted { .. }))
        .count();
    assert!(
        served_attempts > SAMPLES * STUCK_SHARDS * 2,
        "only {served_attempts} attempts were served"
    );
}

/// The stuck-device path, unrecoverable pairing: the spike outlasts
/// `deadline × (retry_budget + 1)` many times over, so the spiked jobs
/// exhaust their budget while their devices are still asleep. They must
/// fail alone: the engine drains, frees their queue slots, and — once the
/// devices wake — serves a later, unspiked job byte-identically.
#[test]
fn command_deadline_fails_hopelessly_stuck_jobs_and_keeps_serving() {
    use megis_sched::{FaultDecision, TraceStage};
    const SPIKED_JOBS: usize = 2;
    const SPIKE: Duration = Duration::from_millis(500);
    const DEADLINE: Duration = Duration::from_millis(100);
    const BUDGET: u32 = 1;
    let (analyzer, samples) = cohort(SPIKED_JOBS + 1);
    let expected_late = analyzer.analyze(&samples[SPIKED_JOBS]);

    // Decisions are a pure function of (seed, seq, shard, stage), so the
    // first seed whose schedule has the wanted shape can simply be looked
    // up: both intersects of every early job spiked, nothing of the late
    // job spiked.
    let spiked_shards = |plan: &FaultPlan, seq: usize, stage: TraceStage| {
        (0..STUCK_SHARDS)
            .filter(|&shard| {
                matches!(
                    plan.decide(seq, shard, stage, 0),
                    Some(FaultDecision::Spike(_))
                )
            })
            .count()
    };
    let plan = (0u64..)
        .map(|seed| FaultPlan::seeded(seed).with_latency_spike(0.5, SPIKE))
        .find(|plan| {
            (0..SPIKED_JOBS)
                .all(|seq| spiked_shards(plan, seq, TraceStage::Intersect) == STUCK_SHARDS)
                && [TraceStage::Intersect, TraceStage::Step3]
                    .into_iter()
                    .all(|stage| spiked_shards(plan, SPIKED_JOBS, stage) == 0)
        })
        .expect("some seed has the wanted schedule");

    let engine = stuck_device_engine(&analyzer, plan, DEADLINE, BUDGET);
    let doomed = submit_all(&engine, &samples[..SPIKED_JOBS]);
    for (i, handle) in doomed.into_iter().enumerate() {
        match handle.wait() {
            Err(JobError::RetriesExhausted { attempts, .. }) => {
                assert_eq!(attempts, BUDGET + 1, "sample {i} used its whole budget")
            }
            other => panic!("sample {i}: expected RetriesExhausted, got {other:?}"),
        }
    }
    engine.drain();
    assert_eq!(
        engine.snapshot().shard_inflight,
        vec![0; STUCK_SHARDS],
        "the failed jobs' queue slots are freed"
    );

    // The devices are still asleep on the abandoned attempts they popped.
    // The doomed jobs' attempts still queued were retired with them and are
    // never served, so the array is idle again once each device has
    // answered the attempt it slept on.
    let sleeping_devices = || {
        let events = engine.trace().events();
        let answered = |device: usize| {
            events.iter().any(|e| {
                matches!(e.kind, TraceEventKind::CommandCompleted { shard, .. } if shard == device)
            })
        };
        (0..STUCK_SHARDS)
            .filter(|&device| !answered(device))
            .count()
    };
    let patience = std::time::Instant::now();
    while sleeping_devices() != 0 {
        assert!(
            patience.elapsed() < Duration::from_secs(30),
            "the spiked devices never woke"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let late = engine
        .submit(JobSpec::new("late", samples[SPIKED_JOBS].clone()))
        .expect("admission after the failures");
    let result = late
        .wait()
        .unwrap_or_else(|e| panic!("the late job failed: {e}"));
    assert_eq!(result.output, expected_late);

    let report = engine.shutdown();
    assert_eq!(report.failed_jobs, SPIKED_JOBS as u64);
    assert_eq!(report.completed, 1);
}
