//! Integration tests for the `megis-sched` pipeline tracing subsystem:
//! end-to-end stage breakdowns that telescope to the measured latency,
//! straggler analysis over the device array, the disabled-by-default
//! contract, the engine's thread budget read off the trace, and the report
//! summary pinned line by line.

use std::collections::HashMap;
use std::time::Duration;

use megis::config::MegisConfig;
use megis::MegisAnalyzer;
use megis_genomics::sample::{CommunityConfig, Diversity, Sample};
use megis_sched::{
    EngineConfig, FaultPlan, JobSpec, LatencyStats, ServiceReport, ShardStats, StageBreakdown,
    StreamingEngine, TraceEvent, TraceEventKind,
};

fn cohort(n: usize) -> (MegisAnalyzer, Vec<Sample>) {
    let base = CommunityConfig::preset(Diversity::Medium)
        .with_reads(100)
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

#[test]
fn traced_streaming_run_reconstructs_breakdowns_and_stragglers() {
    const SAMPLES: usize = 8;
    const SHARDS: usize = 4;
    let (analyzer, samples) = cohort(SAMPLES);
    let engine = StreamingEngine::new(
        analyzer,
        EngineConfig::new()
            .with_workers(2)
            .with_shards(SHARDS)
            .with_fault_plan(FaultPlan::seeded(1).with_latency_spike(1.0, Duration::from_millis(2)))
            .with_tracing(),
    );
    let handles: Vec<_> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            engine
                .submit(JobSpec::new(format!("s{i}"), s.clone()))
                .expect("admission")
        })
        .collect();

    for handle in handles {
        let result = handle.wait().expect("job served");
        let breakdown = result
            .breakdown
            .expect("tracing is on, so every job carries a breakdown");
        // The breakdown's segments telescope over the traced
        // admission→delivery span, which for streaming submissions is the
        // same wall clock `latency` measures independently: the two must
        // agree to well under 1%.
        let total = breakdown.total().as_secs_f64();
        let latency = result.latency.as_secs_f64().max(1e-9);
        assert!(
            (total - latency).abs() / latency < 0.01,
            "{}: breakdown total {:.3} ms vs measured latency {:.3} ms",
            result.label,
            total * 1e3,
            latency * 1e3,
        );
        // Every job intersects on the array, so Step 2 service is nonzero;
        // every job has candidates, and the per-command dwell makes its
        // Step 3 service observable.
        assert!(breakdown.step2_service > Duration::ZERO, "{}", result.label);
        assert!(breakdown.step3_service > Duration::ZERO, "{}", result.label);
    }

    let report = engine.shutdown();
    let straggler = report
        .straggler
        .as_ref()
        .expect("straggler analysis present");
    assert_eq!(straggler.devices.len(), SHARDS);
    assert!(straggler.step3_busy_skew() >= 1.0);
    // The trace and the shard counters agree on who served what.
    for (device, stats) in straggler.devices.iter().zip(&report.shard_stats) {
        assert_eq!(device.commands, stats.jobs + stats.step3_jobs);
    }
    let busy_devices = straggler
        .devices
        .iter()
        .filter(|d| d.busy > Duration::ZERO)
        .count();
    assert!(busy_devices > 0, "the array did traced work");
    // The rendered report names every device and the Step 3 skew.
    let rendered = straggler.report();
    assert!(
        rendered.starts_with("straggler report: per-device busy/stall/idle\n"),
        "{rendered}"
    );
    for device in 0..SHARDS {
        assert!(
            rendered.contains(&format!("device {device}:")),
            "{rendered}"
        );
    }
    assert!(
        rendered.contains("step 3 busy skew across devices (max/min): "),
        "{rendered}"
    );

    let trace = report.trace.as_ref().expect("event log present");
    assert!(!trace.events.is_empty());
    assert_eq!(trace.dropped, 0, "a small run fits the default ring");
    assert!(trace.to_json().contains("\"trace\""));

    let summary = report.summary();
    assert!(
        summary.contains("stage breakdown (mean): queue "),
        "{summary}"
    );
    assert!(!summary.contains("tracing disabled"), "{summary}");
    assert!(!summary.contains("dropped"), "{summary}");
}

#[test]
fn an_overflowed_trace_ring_is_flagged_in_the_summary() {
    // A ring far smaller than the run's event count evicts early events, so
    // the straggler analysis is computed from a truncated log; the summary
    // must say so (a clean run prints no such line — asserted above). The
    // breakdowns never read the ring: every job still carries one that
    // telescopes to its measured latency.
    const CAPACITY: usize = 32;
    let (analyzer, samples) = cohort(4);
    let config = EngineConfig::new()
        .with_workers(2)
        .with_shards(2)
        .with_trace_capacity(CAPACITY);
    let engine = StreamingEngine::new(analyzer, config);
    let jobs = samples.iter().enumerate();
    let handles = engine
        .submit_all(jobs.map(|(i, s)| JobSpec::new(format!("s{i}"), s.clone())))
        .expect("admission");
    let report = engine.shutdown();
    for handle in handles {
        let result = handle.wait().expect("job served");
        let breakdown = result
            .breakdown
            .expect("an overflowed ring costs no job its breakdown");
        let total = breakdown.total().as_secs_f64();
        let latency = result.latency.as_secs_f64().max(1e-9);
        assert!(
            (total - latency).abs() / latency < 0.01,
            "{}: breakdown total {:.3} ms vs measured latency {:.3} ms",
            result.label,
            total * 1e3,
            latency * 1e3,
        );
    }
    let trace = report.trace.as_ref().expect("tracing on");
    assert_eq!(trace.events.len(), CAPACITY, "the ring is full");
    assert!(trace.dropped > 0, "the run must overflow the ring");
    let line = format!(
        "trace: {CAPACITY} events, {} dropped — straggler figures are incomplete\n",
        trace.dropped
    );
    let summary = report.summary();
    assert!(summary.ends_with(&line), "{summary}");
}

#[test]
fn tracing_is_disabled_by_default() {
    let (analyzer, samples) = cohort(3);
    let engine = StreamingEngine::new(analyzer, EngineConfig::new().with_workers(2).with_shards(2));
    let jobs = samples.iter().enumerate();
    let handles = engine
        .submit_all(jobs.map(|(i, s)| JobSpec::new(format!("s{i}"), s.clone())))
        .expect("admission");
    let report = engine.shutdown();
    for handle in handles {
        assert!(handle.wait().expect("job served").breakdown.is_none());
    }
    assert!(report.stage_breakdown.is_none());
    assert!(report.straggler.is_none());
    assert!(report.trace.is_none());
    assert!(
        report
            .summary()
            .ends_with("stage breakdown (mean): n/a (tracing disabled)\n"),
        "{}",
        report.summary()
    );
}

/// The traced work spans of one run: every Step 1 (`None`) and every
/// served command (`Some(device)`), as `(start, end, device)`.
fn work_spans(events: &[TraceEvent]) -> Vec<(Duration, Duration, Option<usize>)> {
    let mut open = HashMap::new();
    let mut spans = Vec::new();
    for event in events {
        let (key, starts) = match event.kind {
            TraceEventKind::Step1Started { .. } => ((event.seq, None, None), true),
            TraceEventKind::Step1Finished => ((event.seq, None, None), false),
            TraceEventKind::CommandStarted { stage, shard } => {
                ((event.seq, Some(stage), Some(shard)), true)
            }
            TraceEventKind::CommandCompleted { stage, shard } => {
                ((event.seq, Some(stage), Some(shard)), false)
            }
            _ => continue,
        };
        if starts {
            assert!(
                open.insert(key, event.at).is_none(),
                "{key:?} started twice"
            );
        } else {
            let start = open.remove(&key).expect("a span ends after it starts");
            spans.push((start, event.at, key.2));
        }
    }
    assert!(open.is_empty(), "unfinished spans: {open:?}");
    spans
}

#[test]
fn the_pool_runs_at_most_workers_spans_and_one_command_per_device() {
    // One pool of `workers` host threads runs Step 1 and serves every
    // device, so the trace must show (a) no two commands of one device in
    // service at once and (b) never more than `workers` units of work —
    // Step 1s and commands together — open at one instant. One thread per
    // device breaks (b): at workers = 1 a Step 1 overlaps device service.
    // workers = 1 also pins that a single thread serves every stage.
    const SAMPLES: usize = 6;
    let (analyzer, samples) = cohort(SAMPLES);
    let expected: Vec<_> = samples.iter().map(|s| analyzer.analyze(s)).collect();
    for workers in [1, 3] {
        for shards in [2, 8] {
            let config = EngineConfig::new()
                .with_workers(workers)
                .with_shards(shards)
                .with_queue_depth(2)
                .with_tracing();
            let engine = StreamingEngine::new(analyzer.clone(), config);
            let jobs = samples.iter().enumerate();
            let handles = engine
                .submit_all(jobs.map(|(i, s)| JobSpec::new(format!("s{i}"), s.clone())))
                .expect("admission");
            let report = engine.shutdown();
            for (handle, expected) in handles.into_iter().zip(&expected) {
                assert_eq!(&handle.wait().expect("job served").output, expected);
            }
            let trace = report.trace.expect("tracing is on");
            assert_eq!(trace.dropped, 0, "a small run fits the default ring");
            let mut spans = work_spans(&trace.events);
            assert!(spans.iter().any(|s| s.2.is_some()), "commands were served");

            spans.sort_unstable();
            for device in 0..shards {
                let served: Vec<_> = spans.iter().filter(|s| s.2 == Some(device)).collect();
                for pair in served.windows(2) {
                    assert!(
                        pair[1].0 >= pair[0].1,
                        "workers {workers}, shards {shards}: device {device} served \
                         {:?} and {:?} at once",
                        pair[0],
                        pair[1]
                    );
                }
            }

            // A span that ends at the instant another starts does not
            // overlap it: ends sort before starts.
            let mut edges: Vec<(Duration, i32)> =
                spans.iter().flat_map(|s| [(s.0, 1), (s.1, -1)]).collect();
            edges.sort_unstable();
            let (mut running, mut peak) = (0, 0);
            for (_, delta) in edges {
                running += delta;
                peak = peak.max(running);
            }
            assert!(
                peak <= workers as i32,
                "workers {workers}, shards {shards}: {peak} spans open at once"
            );
        }
    }
}

/// A three-shard report; `degraded` adds a dead third shard whose one
/// failed command was failed over and whose Step 3 commands its peers
/// mapped.
fn summary_fixture(degraded: bool) -> ServiceReport {
    let hit = u64::from(degraded);
    let shard_stats = (0..3)
        .map(|shard| ShardStats {
            shard,
            busy: Duration::from_millis(40 + shard as u64 * 10),
            jobs: 5,
            query_items: 1000,
            step3_jobs: 4,
            step3_items: 80 - shard as u64 * 10,
            stolen_items: if shard < 2 {
                hit * 20 * (shard as u64 + 1)
            } else {
                0
            },
            peak_inflight: 2 + shard,
            faults: if shard == 2 { hit } else { 0 },
            retries: if shard == 2 { hit } else { 0 },
            failovers: if shard == 2 { hit } else { 0 },
            dead: degraded && shard == 2,
        })
        .collect();
    let latencies: Vec<Duration> = (1..=20).map(|i| Duration::from_millis(i * 5)).collect();
    ServiceReport {
        completed: 20,
        uptime: Duration::from_millis(500),
        shard_stats,
        resident_database_bytes: 2_000_000,
        mapped_reads: 64,
        stage_overlap_events: 17,
        failed_jobs: 0,
        window: LatencyStats::from_latencies(&latencies),
        stage_breakdown: Some(StageBreakdown {
            queue_wait: Duration::from_millis(4),
            step1: Duration::from_millis(6),
            step2_wait: Duration::from_millis(2),
            step2_service: Duration::from_millis(9),
            step3_wait: Duration::from_millis(1),
            step3_service: Duration::from_millis(12),
            reduce_barrier: Duration::from_millis(3),
            reduce: Duration::from_millis(5),
        }),
        straggler: None,
        trace: None,
    }
}

#[test]
fn the_service_summary_is_pinned_line_by_line() {
    let healthy = summary_fixture(false);
    assert_eq!(healthy.shard_utilization(), [0.08, 0.1, 0.12]);
    // Seven lines, no degraded-mode or overflow line.
    assert_eq!(
        healthy.summary(),
        "service: 20 jobs over 0.500 s uptime (rolling window of 20)\n\
         latency: mean 52.5 ms, p50 50.0 ms, p90 90.0 ms, p99 100.0 ms, \
         p999 100.0 ms, max 100.0 ms\n\
         shard utilization: [8%, 10%, 12%]\n\
         peak commands in flight per shard: [2, 3, 4]\n\
         host-resident database: 2.00 MB across 3 shard views (shared storage, \
         counted once)\n\
         step 3: 64 reads mapped; per-shard reads served: [80, 70, 60]; \
         stage overlap events: 17\n\
         stage breakdown (mean): queue 4.0 ms | step1 6.0 ms | \
         step2 wait 2.0 + svc 9.0 ms | step3 wait 1.0 + svc 12.0 ms | \
         reduce barrier 3.0 + reduce 5.0 ms\n"
    );
    // Reads mapped for a dead shard show up in the degraded-mode line,
    // which only fault activity prints.
    let degraded = summary_fixture(true).summary();
    assert!(
        degraded.contains(
            "stage overlap events: 17\n\
             degraded mode: 1 command faults, 1 retries (1 failovers), dead shards: [2], \
             failed jobs: 0; 60 reads served for dead shards\n\
             stage breakdown (mean): queue 4.0 ms"
        ),
        "{degraded}"
    );
}
