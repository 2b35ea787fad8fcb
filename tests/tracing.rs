//! Integration tests for the `megis-sched` pipeline tracing subsystem:
//! end-to-end stage breakdowns that telescope to the measured latency,
//! straggler analysis over the device array, the disabled-by-default
//! contract, and the shared observability lines of both report summaries.

use std::time::Duration;

use megis::config::MegisConfig;
use megis::MegisAnalyzer;
use megis_genomics::sample::{CommunityConfig, Diversity, Sample};
use megis_sched::{
    BatchEngine, BatchReport, EngineConfig, FaultPlan, JobSpec, LatencyStats, ServiceReport,
    ShardStats, StageBreakdown, StreamingEngine,
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
        // the per-command dwell makes Step 3 service observable whenever
        // the job had candidates.
        assert!(breakdown.step2_service > Duration::ZERO, "{}", result.label);
        assert!(
            breakdown.gating_device.is_some(),
            "{}: a job with step 3 commands names its gating device",
            result.label
        );
    }

    let report = engine.shutdown();
    let straggler = report
        .straggler
        .as_ref()
        .expect("straggler analysis present");
    assert_eq!(straggler.devices.len(), SHARDS);
    assert_eq!(
        straggler.gating.len(),
        SAMPLES,
        "every job's reduce was gated by some device"
    );
    assert!(straggler.step3_busy_skew() >= 1.0);
    assert_eq!(straggler.histogram.iter().sum::<u64>(), SAMPLES as u64);
    let busy_devices = straggler
        .devices
        .iter()
        .filter(|d| d.busy > Duration::ZERO)
        .count();
    assert!(busy_devices > 0, "the array did traced work");
    // The rendered report names every device and every job's gating device.
    let rendered = straggler.report();
    assert!(
        rendered
            .starts_with("straggler report: per-device busy/stall/idle and per-job step-3 gating"),
        "{rendered}"
    );
    for device in 0..SHARDS {
        assert!(
            rendered.contains(&format!("device {device}:")),
            "{rendered}"
        );
    }
    assert!(
        rendered.contains("reduce gated by: [job seq 0 -> device"),
        "{rendered}"
    );
    assert!(rendered.contains("gating-device histogram:"), "{rendered}");
    assert!(straggler.gating_histogram_flatness() >= 1.0);

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
fn an_overflowed_trace_ring_is_flagged_in_both_summaries() {
    // A ring far smaller than the run's event count evicts early events, so
    // every traced figure is computed from a truncated log; both summaries
    // must say so (a clean run prints no such line — asserted above).
    const CAPACITY: usize = 32;
    let (analyzer, samples) = cohort(4);
    let specs = |samples: &[Sample]| -> Vec<JobSpec> {
        samples
            .iter()
            .enumerate()
            .map(|(i, s)| JobSpec::new(format!("s{i}"), s.clone()))
            .collect()
    };
    let config = EngineConfig::new()
        .with_workers(2)
        .with_shards(2)
        .with_trace_capacity(CAPACITY);

    let mut batch = BatchEngine::new(analyzer.clone(), config.clone());
    batch.submit_all(specs(&samples)).expect("admission");
    let batch_report = batch.run();
    let batch_trace = batch_report.trace.as_ref().expect("tracing on");

    let service = StreamingEngine::new(analyzer, config);
    for spec in specs(&samples) {
        service.submit(spec).expect("admission");
    }
    let service_report = service.shutdown();
    let service_trace = service_report.trace.as_ref().expect("tracing on");

    for (name, trace, summary) in [
        ("batch", batch_trace, batch_report.summary()),
        ("service", service_trace, service_report.summary()),
    ] {
        assert_eq!(trace.events.len(), CAPACITY, "{name}: the ring is full");
        assert!(trace.dropped > 0, "{name}: the run must overflow the ring");
        let line = format!(
            "trace: {CAPACITY} events, {} dropped — breakdown and straggler figures are incomplete",
            trace.dropped
        );
        assert!(summary.contains(&line), "{name}:\n{summary}");
    }
}

#[test]
fn tracing_is_disabled_by_default() {
    let (analyzer, samples) = cohort(3);
    let mut engine = BatchEngine::new(analyzer, EngineConfig::new().with_workers(2).with_shards(2));
    engine
        .submit_all(
            samples
                .iter()
                .enumerate()
                .map(|(i, s)| JobSpec::new(format!("s{i}"), s.clone())),
        )
        .expect("admission");
    let report = engine.run();
    assert!(report.results.iter().all(|r| r.breakdown.is_none()));
    assert!(report.stage_breakdown.is_none());
    assert!(report.straggler.is_none());
    assert!(report.trace.is_none());
    assert!(
        report
            .summary()
            .contains("stage breakdown (mean): n/a (tracing disabled)"),
        "{}",
        report.summary()
    );
}

/// One fixture drives both renderers, so the shared observability lines —
/// residency, step 3, stage overlap, latency tail, stage breakdown —
/// cannot drift apart between batch and service summaries.
fn observability_fixture() -> (Vec<ShardStats>, LatencyStats, StageBreakdown) {
    let shard_stats = (0..3)
        .map(|shard| ShardStats {
            shard,
            busy: Duration::from_millis(40 + shard as u64 * 10),
            jobs: 5,
            query_items: 1000,
            coalesced_commands: 0,
            coalesced_members: 0,
            step3_jobs: 4,
            step3_items: 80 - shard as u64 * 10,
            stolen_items: shard as u64 * 20,
            peak_inflight: 2,
            faults: 0,
            retries: 0,
            failovers: 0,
            dead: false,
        })
        .collect();
    let latencies: Vec<Duration> = (1..=20).map(|i| Duration::from_millis(i * 5)).collect();
    let latency = LatencyStats::from_latencies(&latencies);
    let breakdown = StageBreakdown {
        queue_wait: Duration::from_millis(4),
        step1: Duration::from_millis(6),
        step2_wait: Duration::from_millis(2),
        step2_service: Duration::from_millis(9),
        step3_wait: Duration::from_millis(1),
        step3_service: Duration::from_millis(12),
        reduce_barrier: Duration::from_millis(3),
        reduce: Duration::from_millis(5),
        gating_device: Some(1),
    };
    (shard_stats, latency, breakdown)
}

#[test]
fn batch_and_service_summaries_share_the_observability_lines() {
    let (shard_stats, latency, breakdown) = observability_fixture();
    let batch = BatchReport {
        results: Vec::new(),
        failed: Vec::new(),
        wall_time: Duration::from_millis(500),
        latency,
        throughput: 8.0,
        shard_stats: shard_stats.clone(),
        resident_database_bytes: 2_000_000,
        stage_overlap_events: 17,
        modeled: None,
        stage_breakdown: Some(breakdown),
        straggler: None,
        trace: None,
    };
    let service = ServiceReport {
        completed: 20,
        uptime: Duration::from_millis(500),
        shard_stats,
        resident_database_bytes: 2_000_000,
        mapped_reads: 64,
        stage_overlap_events: 17,
        failed_jobs: 0,
        window: latency,
        stage_breakdown: Some(breakdown),
        straggler: None,
        trace: None,
    };

    for (name, summary) in [("batch", batch.summary()), ("service", service.summary())] {
        // Latency tail, including the new p90/p999 percentiles.
        assert!(summary.contains("p50 50.0 ms"), "{name}:\n{summary}");
        assert!(summary.contains("p90 90.0 ms"), "{name}:\n{summary}");
        assert!(summary.contains("p99 100.0 ms"), "{name}:\n{summary}");
        assert!(summary.contains("p999 100.0 ms"), "{name}:\n{summary}");
        // Zero-copy residency line.
        assert!(
            summary.contains("host-resident database: 2.00 MB across 3 shard views"),
            "{name}:\n{summary}"
        );
        // Step 3 and overlap lines (batch sums mapped reads over its —
        // here empty — results; the fixture's service counts 64).
        assert!(summary.contains("reads mapped"), "{name}:\n{summary}");
        assert!(
            summary.contains("per-shard reads served: [80, 70, 60]"),
            "{name}:\n{summary}"
        );
        assert!(
            summary.contains("stage overlap events: 17"),
            "{name}:\n{summary}"
        );
        // The work-stealing line: total stolen reads plus the per-device
        // split, rendered identically by both summaries.
        assert!(
            summary.contains(
                "work stealing: 60 reads served for peers; \
                 per-device stolen reads: [0, 20, 40]"
            ),
            "{name}:\n{summary}"
        );
        // The traced stage breakdown, rendered by the shared line.
        assert!(
            summary.contains(
                "stage breakdown (mean): queue 4.0 ms | step1 6.0 ms | \
                 step2 wait 2.0 + svc 9.0 ms | step3 wait 1.0 + svc 12.0 ms | \
                 reduce barrier 3.0 + reduce 5.0 ms"
            ),
            "{name}:\n{summary}"
        );
    }
}
