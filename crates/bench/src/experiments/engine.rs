//! Engine-driven counterparts of the scaling figures: Fig. 15 (multi-SSD
//! sharding) and Fig. 21 (multi-sample batching) executed by the real
//! `megis-sched` engine instead of the analytic models alone, plus an
//! analysis sweeping offered load against latency.
//!
//! Each experiment runs a functional batch on synthetic data — checking that
//! the engine's results stay byte-identical to the sequential analyzer — and
//! pairs the measured operational metrics with the paper-scale modeled-time
//! account for the same batch shape.

use std::time::{Duration, Instant};

use megis::config::MegisConfig;
use megis::{MegisAnalyzer, MegisOutput};
use megis_genomics::sample::{CommunityConfig, Diversity, Sample};
use megis_host::accelerators::SortingAccelerator;
use megis_host::system::SystemConfig;
use megis_sched::{
    EngineConfig, JobSpec, ModeledAccount, SchedPolicy, ServiceReport, StreamingEngine,
};
use megis_ssd::config::SsdConfig;
use megis_ssd::timing::ByteSize;
use megis_tools::workload::WorkloadSpec;

use crate::report::Report;

fn cohort(n: usize) -> (MegisAnalyzer, Vec<Sample>) {
    let base = CommunityConfig::preset(Diversity::Medium)
        .with_reads(80)
        .with_database_species(12);
    let reference_community = base.build(2024);
    let analyzer = MegisAnalyzer::build(reference_community.references(), MegisConfig::small());
    // Same references (seed 2024), independent read streams: a real cohort
    // sharing one database.
    let samples = (0..n)
        .map(|i| {
            base.build_cohort_sample(2024, 3000 + i as u64)
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
        .map(|(i, s)| JobSpec::new(format!("sample-{i}"), s.clone()))
        .collect()
}

/// Runs `samples` as one closed batch (admitted whole, drained by
/// `shutdown`): whether every output equals `expected`, and the report.
fn run_batch(
    analyzer: MegisAnalyzer,
    config: EngineConfig,
    samples: &[Sample],
    expected: &[MegisOutput],
) -> (bool, ServiceReport) {
    let engine = StreamingEngine::new(analyzer, config);
    let handles = engine.submit_all(specs(samples)).expect("admission");
    let report = engine.shutdown();
    let parity = handles
        .into_iter()
        .zip(expected)
        .all(|(handle, e)| handle.wait().is_ok_and(|r| r.output == *e));
    (parity, report)
}

/// Completed samples per second of service uptime.
fn throughput(report: &ServiceReport) -> f64 {
    report.completed as f64 / report.uptime.as_secs_f64().max(1e-9)
}

/// Fig. 15 (engine path): the engine with the database sharded across
/// 1/2/4/8 simulated SSDs — functional parity against the sequential
/// analyzer, measured shard utilization, and the modeled intersection-phase
/// scaling.
pub fn fig15_sharded_engine() -> String {
    let mut report = Report::new();
    report.title("Figure 15 (engine): sharded multi-SSD execution via megis-sched");
    let (analyzer, samples) = cohort(6);
    let expected: Vec<_> = samples.iter().map(|s| analyzer.analyze(s)).collect();

    report.table_header(&["shards", "parity", "modeled x", "util avg", "samples/s"]);
    let mut all_parity = true;
    for shards in [1usize, 2, 4, 8] {
        let config = EngineConfig::new().with_workers(2).with_shards(shards);
        let modeled =
            ModeledAccount::compute(&config.system, &config.workload, samples.len(), shards);
        let (parity, run) = run_batch(analyzer.clone(), config, &samples, &expected);
        all_parity &= parity;
        let util = run.shard_utilization();
        let util_avg = util.iter().sum::<f64>() / util.len() as f64;
        report.table_row(
            &shards.to_string(),
            &[
                if parity { 1.0 } else { 0.0 },
                modeled.shard_speedup(),
                util_avg,
                throughput(&run),
            ],
        );
    }
    report.line("");
    report.line(&format!(
        "parity with sequential analyzer: {}",
        if all_parity { "identical" } else { "DIVERGED" }
    ));
    report.line("parity = 1: every sharded result byte-identical to the sequential analyzer.");
    report.line("modeled x: paper-scale intersection-phase speedup over one SSD — near-linear,");
    report.line("matching Fig. 15's disjoint database partitioning across devices.");
    report.finish()
}

/// Fig. 21 (engine path): multi-sample batches through the engine — measured
/// latency distribution and throughput for the functional batch, alongside
/// the paper-scale pipelined-vs-independent account (256 GB DRAM + sorting
/// accelerator, the figure's configuration).
pub fn fig21_batch_engine() -> String {
    let mut report = Report::new();
    report.title("Figure 21 (engine): multi-sample batch scheduling via megis-sched");
    let fig21_system = SystemConfig::reference(SsdConfig::ssd_c())
        .with_dram_capacity(ByteSize::from_gb(256.0))
        .with_sorting_accelerator(SortingAccelerator::default());
    let workload = WorkloadSpec::cami(Diversity::Medium);

    report.section("modeled account (paper scale)");
    report.table_header(&["samples", "indep (h)", "piped (h)", "speedup"]);
    for samples in [1usize, 4, 8, 16] {
        let acct = ModeledAccount::compute(&fig21_system, &workload, samples, 1);
        report.table_row(
            &samples.to_string(),
            &[
                acct.independent_total().as_secs() / 3600.0,
                acct.pipelined_total().as_secs() / 3600.0,
                acct.pipelining_speedup(),
            ],
        );
    }

    report.section("functional batch (16 samples, 2 workers, 2 shards, priority policy)");
    let (analyzer, samples) = cohort(16);
    let expected: Vec<_> = samples.iter().map(|s| analyzer.analyze(s)).collect();
    let config = EngineConfig::new()
        .with_workers(2)
        .with_shards(2)
        .with_policy(SchedPolicy::Priority);
    let (parity, run) = run_batch(analyzer, config, &samples, &expected);
    report.line(&format!(
        "parity with sequential analyzer: {}",
        if parity { "identical" } else { "DIVERGED" }
    ));
    report.line(&format!(
        "throughput {:.2} samples/s; latency p50 {:.1} ms, p99 {:.1} ms",
        throughput(&run),
        run.window.p50.as_secs_f64() * 1e3,
        run.window.p99.as_secs_f64() * 1e3,
    ));
    report.line("");
    report.line("Paper: buffering k-mers across samples streams the database once per group,");
    report.line("so pipelined modeled time stays strictly below independent runs (Fig. 21).");
    report.finish()
}

/// Streaming-load analysis: the `megis-sched` engine under paced open-loop
/// arrivals. The sweep calibrates the mean
/// per-sample service time, then offers load at a fraction/multiple of the
/// single-worker service capacity and reports the rolling-window latency
/// distribution. Below saturation the p99 tracks the service time; at and
/// above it, queueing delay dominates the tail — the capacity-planning view
/// a front end needs before putting the engine behind a network service.
pub fn streaming_load_analysis() -> String {
    let mut report = Report::new();
    report.title("Streaming-load analysis: offered load vs. latency (megis-sched service mode)");
    let (analyzer, samples) = cohort(8);

    // Calibrate: mean sequential service time per sample on this host.
    let t0 = Instant::now();
    for sample in &samples {
        let _ = analyzer.analyze(sample);
    }
    let service_time = t0.elapsed() / samples.len() as u32;
    report.line(&format!(
        "calibrated mean service time: {:.2} ms/sample (single worker)",
        service_time.as_secs_f64() * 1e3,
    ));
    report.line("");

    report.table_header(&["offered", "p50 ms", "p99 ms", "max ms", "samples/s"]);
    // Offered load relative to one worker's capacity: inter-arrival gap =
    // service_time / load. 2.0x overloads the service, so latency must grow
    // with queue depth; 0.5x leaves headroom, so latency stays near the
    // bare service time.
    for load in [0.5f64, 1.0, 2.0] {
        let engine = StreamingEngine::new(
            analyzer.clone(),
            EngineConfig::new()
                .with_workers(1)
                .with_shards(2)
                .with_metrics_window(64),
        );
        let gap = Duration::from_secs_f64(service_time.as_secs_f64() / load);
        let handles: Vec<_> = samples
            .iter()
            .enumerate()
            .map(|(i, sample)| {
                let handle = engine
                    .submit(JobSpec::new(format!("s{i}"), sample.clone()))
                    .expect("admission");
                std::thread::sleep(gap);
                handle
            })
            .collect();
        engine.drain();
        let snapshot = engine.snapshot();
        report.table_row(
            &format!("{load:.2}x"),
            &[
                snapshot.window.p50.as_secs_f64() * 1e3,
                snapshot.window.p99.as_secs_f64() * 1e3,
                snapshot.window.max.as_secs_f64() * 1e3,
                snapshot.window_throughput,
            ],
        );
        let served = engine.shutdown().completed;
        assert_eq!(served, handles.len() as u64);
        drop(handles);
    }
    report.line("");
    report.line("offered = arrival rate relative to one worker's service capacity. Above");
    report.line("1.0x the queue grows for the whole run, so tail latency reflects queueing");
    report.line("delay rather than service time (completions served in policy order).");
    report.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn engine_reports_confirm_parity() {
        for report in [super::fig15_sharded_engine(), super::fig21_batch_engine()] {
            assert!(report.contains("parity with sequential analyzer: identical"));
            assert!(!report.contains("DIVERGED"));
        }
    }

    #[test]
    fn streaming_load_report_covers_the_sweep() {
        let report = super::streaming_load_analysis();
        assert!(report.contains("calibrated mean service time"));
        for load in ["0.50x", "1.00x", "2.00x"] {
            assert!(report.contains(load), "missing load point {load}");
        }
    }
}
