//! One run of one workload: generate the inputs from the seed, build the
//! databases, measure, check every output against the sequential oracle,
//! and hand back the metrics of the requested mode.
//!
//! * `--trace 0` — the end-to-end metrics, from untraced timed passes.
//! * `--trace 1` — the per-layer metrics, from three sources kept apart:
//!   the layer replay (R), the engine's own report over untraced passes (E),
//!   and traced passes (T, never mixed into an end-to-end number). The two
//!   `sched.model.*` rows are the only modeled numbers.

use std::time::{Duration, Instant};

use megis::kss::KssTables;
use megis::{MegisAnalyzer, MegisOutput};
use megis_genomics::database::{ReferenceIndex, SortedKmerDatabase};
use megis_genomics::reference::ReferenceCollection;
use megis_genomics::sample::Sample;
use megis_genomics::sketch::SketchDatabase;
use megis_sched::{ModeledAccount, ShardSet, StreamingEngine};

use crate::load::{run_pass, Pass};
use crate::replay::{replay_cohort, Counts, Recorder, PIPELINE_LAYERS};
use crate::report::Metrics;
use crate::stats::{faster_half, median, percentile, sorted, supports_percentile, Summary};
use crate::workload::WorkloadSpec;
use crate::{procfs, OUT_DIR};

/// Set-up is repeated at least `SETUP_REPS` times, and until `SETUP_SHARE`
/// of `--seconds` has passed on top of the measuring time (at most
/// `MAX_SETUP_REPS` times).
const SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 40;
const SETUP_SHARE: f64 = 0.1;
/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Samples the replay walks per repetition.
const REPLAY_SAMPLES: usize = 8;
/// Shares of `--seconds` a per-layer run gives its three sources.
const UNTRACED_SHARE: f64 = 0.4;
const REPLAY_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub spec: WorkloadSpec,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Per-layer mode (`--trace 1`) instead of end-to-end mode.
    pub trace: bool,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Reasons the run is not correct, beyond failed jobs (replay ≠ oracle,
    /// modeled values differ, trace dropped events, …).
    pub problems: Vec<String>,
}

/// Runs one workload in the requested mode.
pub fn run(run: &Run) -> Outcome {
    let references = run.spec.references(run.seed);
    let samples = run.spec.samples(run.seed);
    if run.trace {
        per_layer(run, &references, &samples)
    } else {
        end_to_end(run, &references, &samples)
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Timed passes of one engine configuration.
struct Measured {
    /// The faster half of the timed passes (by wall time), fastest first:
    /// what every pass-level metric is computed over. Interference from the
    /// host only ever slows a pass, so this is the less disturbed half.
    kept: Vec<Pass>,
    /// Wall seconds of every timed pass, kept or not — the noise floor
    /// printed next to the medians.
    all_wall_s: Vec<f64>,
    /// Jobs submitted and jobs failed over every pass, warm-up included.
    attempted: usize,
    failed: usize,
}

/// What every pass of a run shares: the databases, the cohort and its
/// oracle outputs.
struct Cohort<'a> {
    spec: &'a WorkloadSpec,
    analyzer: &'a MegisAnalyzer,
    samples: &'a [Sample],
    oracle: &'a [MegisOutput],
}

impl Cohort<'_> {
    /// Runs an optional discarded warm-up pass (page faults, allocator
    /// growth, lazy statics; only its failures count), then timed passes for
    /// `budget_s` seconds (at least `min_passes`), each through a fresh
    /// engine built outside the timed region.
    fn measure(
        &self,
        config: &megis_sched::EngineConfig,
        warm_up: bool,
        budget_s: f64,
        min_passes: usize,
    ) -> Measured {
        let pass = || {
            run_pass(
                self.analyzer,
                config.clone(),
                self.samples,
                self.oracle,
                self.spec.outstanding,
            )
        };
        let mut failed = if warm_up { pass().failed() } else { 0 };
        let started = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < min_passes || secs(started.elapsed()) < budget_s {
            passes.push(pass());
        }
        failed += passes.iter().map(Pass::failed).sum::<usize>();
        let attempted = (passes.len() + usize::from(warm_up)) * self.samples.len();
        let all_wall_s = passes.iter().map(|p| secs(p.wall)).collect();
        passes.sort_by_key(|p| p.wall);
        passes.truncate(passes.len().div_ceil(2));
        Measured {
            kept: passes,
            all_wall_s,
            attempted,
            failed,
        }
    }
}

/// Whether set-up should be repeated once more after `reps` repetitions.
fn more_setup(run: &Run, reps: usize, started: Instant) -> bool {
    let budget_s = run.seconds * SETUP_SHARE;
    reps < SETUP_REPS || (reps < MAX_SETUP_REPS && secs(started.elapsed()) < budget_s)
}

fn oracle_of(analyzer: &MegisAnalyzer, samples: &[Sample]) -> Vec<MegisOutput> {
    samples.iter().map(|s| analyzer.analyze(s)).collect()
}

fn end_to_end(run: &Run, references: &ReferenceCollection, samples: &[Sample]) -> Outcome {
    let spec = &run.spec;
    let config = spec.engine_config();

    // Set-up as a user pays it: build the databases, start the engine.
    let mut setup_s = Vec::new();
    let mut built = None;
    let setup_started = Instant::now();
    while more_setup(run, setup_s.len(), setup_started) {
        let started = Instant::now();
        let analyzer = MegisAnalyzer::build(references, spec.megis_config());
        let build = started.elapsed();
        let owned = analyzer.clone();
        let started = Instant::now();
        let engine = StreamingEngine::new(owned, config.clone());
        let start = started.elapsed();
        engine.shutdown();
        setup_s.push(secs(build + start));
        built = Some(analyzer);
    }
    let analyzer = built.expect("set-up ran at least once");
    let oracle = oracle_of(&analyzer, samples);

    let cohort = Cohort {
        spec,
        analyzer: &analyzer,
        samples,
        oracle: &oracle,
    };
    let measured = cohort.measure(&config, true, run.seconds, MIN_PASSES);
    let passes = &measured.kept;
    let n = samples.len() as f64;

    let mut metrics = Metrics::default();
    let throughput: Vec<f64> = passes
        .iter()
        .map(|p| p.samples_per_s(samples.len()))
        .collect();
    let all_throughput: Vec<f64> = measured.all_wall_s.iter().map(|wall| n / wall).collect();
    metrics
        .value("samples_per_s", "1/s", median(&throughput))
        .spread = Some(Summary::of(&all_throughput));

    let latencies = sorted(
        &passes
            .iter()
            .flat_map(|p| p.latencies.iter().map(|l| ms(*l)))
            .collect::<Vec<f64>>(),
    );
    if latencies.is_empty() {
        metrics.invalid("latency_p50_ms", "ms", "no job was delivered");
        metrics.invalid("latency_p90_ms", "ms", "no job was delivered");
    } else {
        let pooled = latencies.len();
        metrics
            .value("latency_p50_ms", "ms", percentile(&latencies, 50.0))
            .note = format!("n={pooled} pooled over the faster {} passes", passes.len());
        metrics
            .value("latency_p90_ms", "ms", percentile(&latencies, 90.0))
            .note = if supports_percentile(pooled, 90.0) {
            format!("n={pooled}, highest percentile with 10 beyond")
        } else {
            format!("n={pooled}: fewer than 10 samples beyond p90")
        };
    }

    let cpu_per_sample: Vec<f64> = passes.iter().map(|p| ms(p.cpu) / n).collect();
    metrics
        .value(
            "cpu_ms_per_sample",
            "ms",
            cpu_per_sample.iter().sum::<f64>() / passes.len() as f64,
        )
        .spread = Some(Summary::of(&cpu_per_sample));
    metrics.value("peak_rss_mb", "MB", procfs::peak_rss_mb());
    metrics.timing("setup_s", "s", &setup_s);

    Outcome {
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
        problems: Vec::new(),
    }
}

/// Medians of the set-up layers, each built through its public constructor.
fn setup_layers(
    metrics: &mut Metrics,
    run: &Run,
    references: &ReferenceCollection,
) -> MegisAnalyzer {
    let spec = &run.spec;
    let config = spec.megis_config();
    let (mut database, mut sketch_kss, mut index, mut shardset) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let setup_started = Instant::now();
    while more_setup(run, database.len(), setup_started) {
        let started = Instant::now();
        let db = SortedKmerDatabase::build(references, config.k());
        database.push(secs(started.elapsed()));

        let started = Instant::now();
        let sketches = SketchDatabase::build(references, config.sketch);
        std::hint::black_box(KssTables::build(&sketches));
        sketch_kss.push(secs(started.elapsed()));

        let started = Instant::now();
        for genome in references.genomes() {
            std::hint::black_box(ReferenceIndex::build(genome, config.mapping_k));
        }
        index.push(secs(started.elapsed()));

        let started = Instant::now();
        std::hint::black_box(ShardSet::build(&db, spec.shards));
        shardset.push(secs(started.elapsed()));
    }
    metrics.timing("setup.database_build_s", "s", &database);
    metrics.timing("setup.sketch_kss_build_s", "s", &sketch_kss);
    metrics.timing("setup.reference_index_build_s", "s", &index);
    metrics.timing("setup.shardset_build_s", "s", &shardset);
    MegisAnalyzer::build(references, config)
}

fn per_layer(run: &Run, references: &ReferenceCollection, samples: &[Sample]) -> Outcome {
    let spec = &run.spec;
    let config = spec.engine_config();
    let mut metrics = Metrics::default();
    let mut problems = Vec::new();

    let analyzer = setup_layers(&mut metrics, run, references);
    let oracle = oracle_of(&analyzer, samples);

    let cohort = Cohort {
        spec,
        analyzer: &analyzer,
        samples,
        oracle: &oracle,
    };

    // E: the engine's own report over untraced passes.
    let untraced = cohort.measure(&config, true, run.seconds * UNTRACED_SHARE, MIN_PASSES);
    let passes = &untraced.kept;
    let engine_start: Vec<f64> = passes.iter().map(|p| secs(p.engine_start)).collect();
    metrics.timing("setup.engine_start_s", "s", &engine_start);

    // R: the replay, the cohort's first samples per repetition.
    let replayed = samples.len().min(REPLAY_SAMPLES);
    let (samples_r, oracle_r) = (&samples[..replayed], &oracle[..replayed]);
    let shards = ShardSet::build(analyzer.database(), spec.shards);
    let mut recorder = Recorder::default();
    let mut counts: Option<Counts> = None;
    let started = Instant::now();
    loop {
        let rep = replay_cohort(&mut recorder, &analyzer, &shards, samples_r, oracle_r);
        if rep.mismatched > 0 {
            problems.push(format!(
                "replay: {} outputs differ from the oracle",
                rep.mismatched
            ));
        }
        if counts.is_some_and(|first| first != rep) {
            problems.push("replay: counts differ between repetitions".to_string());
        }
        counts = Some(rep);
        if recorder.reps() >= MIN_PASSES && secs(started.elapsed()) >= run.seconds * REPLAY_SHARE {
            break;
        }
        recorder.next_rep();
    }
    let counts = counts.expect("the replay ran");
    let replay = replay_metrics(&mut metrics, &recorder, &counts, spec);
    engine_metrics(&mut metrics, spec, passes, samples.len(), &replay);

    // T: traced passes, only ever compared with the untraced ones above.
    let traced = cohort.measure(
        &config.clone().with_tracing(),
        false,
        run.seconds * TRACED_SHARE,
        1,
    );
    trace_metrics(&mut metrics, &mut problems, &untraced, &traced.kept);

    // Modeled, and labelled so: must be bit-identical between two computes.
    let model =
        || ModeledAccount::compute(&config.system, &config.workload, spec.samples, spec.shards);
    let (first, second) = (model(), model());
    for (name, a, b) in [
        (
            "sched.model.pipelining_speedup",
            first.pipelining_speedup(),
            second.pipelining_speedup(),
        ),
        (
            "sched.model.shard_speedup",
            first.shard_speedup(),
            second.shard_speedup(),
        ),
    ] {
        if a.to_bits() != b.to_bits() {
            problems.push(format!("{name}: modeled twice, got {a} and {b}"));
        }
        metrics.value(name, "x", a).note = "modeled, not measured".to_string();
    }

    let failed = untraced.failed + traced.failed;
    let attempted = untraced.attempted + traced.attempted;
    metrics.value("failed_frac", "ratio", failed as f64 / attempted as f64);

    if let Err(e) = write_trace_file(run, &recorder, traced.kept.first()) {
        problems.push(format!("trace file: {e}"));
    }
    Outcome {
        attempted,
        failed,
        metrics,
        problems,
    }
}

/// Per-sample times the E rows are based on.
struct ReplayTimes {
    /// `core.analyze.us_per_sample`.
    analyze_us: f64,
    /// The walked (sharded) sample, glue included.
    walked_us: f64,
}

/// R rows. Times are per-repetition totals under the [`faster_half`] rule;
/// counts are exact.
fn replay_metrics(
    metrics: &mut Metrics,
    recorder: &Recorder,
    counts: &Counts,
    spec: &WorkloadSpec,
) -> ReplayTimes {
    let n = counts.samples as f64;
    // (metric, unit, span timed, what one unit of the metric is per).
    let timings: [(&'static str, &'static str, &str, f64); 11] = [
        ("core.analyze.us_per_sample", "us", "core.analyze", n),
        ("core.step1.us_per_sample", "us", "core.step1", n),
        (
            "sched.shard.slice_us_per_sample",
            "us",
            "sched.shard.slice",
            n,
        ),
        (
            "genomics.intersect.ns_per_query_kmer",
            "ns",
            "genomics.intersect",
            counts.query_kmers as f64,
        ),
        (
            "genomics.intersect_multi.ns_per_query_kmer",
            "ns",
            "genomics.intersect_multi",
            counts.multi_query_kmers as f64,
        ),
        (
            "core.kss.retrieve_us_per_sample",
            "us",
            "core.kss.retrieve",
            n,
        ),
        (
            "core.step2.presence_us_per_sample",
            "us",
            "core.step2.presence",
            n,
        ),
        (
            "core.step3.partition_us_per_sample",
            "us",
            "core.step3.partition",
            n,
        ),
        (
            "genomics.unified_index.merge_us_per_sample",
            "us",
            "genomics.unified_index.merge",
            n,
        ),
        (
            "genomics.unified_index.map_ns_per_read",
            "ns",
            "genomics.unified_index.map",
            counts.reads as f64,
        ),
        (
            "core.step3.reduce_us_per_sample",
            "us",
            "core.step3.reduce",
            n,
        ),
    ];
    let per = |span: &str, unit: &str, divisor: f64| -> Vec<f64> {
        let scale = if unit == "us" { 1e3 } else { 1.0 };
        let self_ns = recorder.self_ns_per_rep(span).into_iter();
        self_ns.map(|ns| ns / scale / divisor.max(1.0)).collect()
    };
    for (name, unit, span, divisor) in timings {
        metrics.timing(name, unit, &per(span, unit, divisor));
    }
    let exact_counts = [
        (
            "core.step1.query_kmers",
            "count",
            counts.query_kmers as f64 / n,
        ),
        (
            "genomics.intersect.hit_ratio",
            "ratio",
            counts.intersecting_kmers as f64 / counts.query_kmers.max(1) as f64,
        ),
        (
            "core.step2.candidates",
            "count",
            counts.candidates as f64 / n,
        ),
        (
            "core.step3.mapped_frac",
            "ratio",
            counts.mapped_reads as f64 / counts.reads.max(1) as f64,
        ),
    ];
    for (name, unit, value) in exact_counts {
        metrics.value(name, unit, value).note = "exact count".to_string();
    }
    let us_per_sample = |span: &str| per(span, "us", n);

    // The table closes against the whole it was cut from (the walked sample,
    // glue included). That whole does more work than `analyze`: partitioned
    // Step 3 maps every read once per part, which is its own row.
    let steady = |times: &[f64]| median(&faster_half(times));
    let layers: f64 = PIPELINE_LAYERS
        .iter()
        .map(|l| steady(&us_per_sample(l)))
        .sum();
    let walked: Vec<f64> = recorder
        .total_ns_per_rep("replay.sample")
        .into_iter()
        .map(|ns| ns / 1e3 / n)
        .collect();
    let closure = layers / steady(&walked);
    metrics.value("replay.closure_frac", "ratio", closure).note = if (0.9..=1.1).contains(&closure)
    {
        "layer self times / walked sample; within 0.9-1.1, the table is valid".to_string()
    } else {
        "layer self times / walked sample; OUTSIDE 0.9-1.1, the table does not close".to_string()
    };
    let analyze_us = steady(&us_per_sample("core.analyze"));
    metrics
        .value(
            "replay.sharded_vs_analyze",
            "x",
            steady(&walked) / analyze_us,
        )
        .note = format!(
        "walked sample ({} parts) / core.analyze (1 part)",
        spec.shards
    );
    ReplayTimes {
        analyze_us,
        walked_us: steady(&walked),
    }
}

/// E rows, from the public fields of `JobResult`, `ServiceReport` and
/// `ShardStats` of the untraced passes.
fn engine_metrics(
    metrics: &mut Metrics,
    spec: &WorkloadSpec,
    passes: &[Pass],
    samples: usize,
    replay: &ReplayTimes,
) {
    let over_passes = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let shard_sum = |p: &Pass, f: &dyn Fn(&megis_sched::ShardStats) -> u64| -> f64 {
        p.report.shard_stats.iter().map(f).sum::<u64>() as f64
    };
    let total = |f: &dyn Fn(&Pass) -> f64| -> f64 { passes.iter().map(f).sum() };
    // Exact counts are the same in every pass; read them off the first.
    let any = passes.first().expect("at least one untraced pass");

    let throughput = median(&over_passes(&|p| p.samples_per_s(samples)));
    metrics
        .value(
            "sched.service.speedup_vs_sequential",
            "x",
            throughput * replay.analyze_us / 1e6,
        )
        .note = "samples_per_s x core.analyze.us_per_sample; < 1 loses to a for loop".to_string();

    let commands = |p: &Pass| shard_sum(p, &|s| s.jobs + s.step3_jobs);
    let overhead: Vec<f64> = passes
        .iter()
        .map(|p| (secs(p.cpu) * 1e6 - samples as f64 * replay.walked_us) / commands(p).max(1.0))
        .collect();
    metrics
        .median("sched.service.cpu_overhead_us_per_command", "us", &overhead)
        .note = "(pass CPU - samples x replay time per sample) / commands".to_string();
    metrics
        .value(
            "sched.service.commands_per_sample",
            "count",
            commands(any) / samples as f64,
        )
        .note = "exact count".to_string();

    let pooled = |f: &dyn Fn(&megis_sched::JobResult) -> Duration| -> f64 {
        let values: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.results.iter().map(|r| ms(f(r))))
            .collect();
        if values.is_empty() {
            0.0
        } else {
            percentile(&sorted(&values), 50.0)
        }
    };
    metrics.value(
        "sched.service.queue_wait_ms_p50",
        "ms",
        pooled(&|r| r.queue_wait),
    );
    metrics.value(
        "sched.service.step1_ms_p50",
        "ms",
        pooled(&|r| r.step1_time),
    );
    metrics.value("sched.service.isp_ms_p50", "ms", pooled(&|r| r.isp_time));

    let busy_frac = over_passes(&|p| {
        let busy: f64 = p.report.shard_stats.iter().map(|s| secs(s.busy)).sum();
        busy / (spec.shards as f64 * secs(p.wall))
    });
    metrics.median("sched.shard.busy_frac", "ratio", &busy_frac);
    let busy_skew = over_passes(&|p| {
        let busy = p.report.shard_stats.iter().map(|s| secs(s.busy));
        let (min, max) = busy.fold((f64::MAX, 0.0f64), |(lo, hi), b| (lo.min(b), hi.max(b)));
        if min > 0.0 {
            max / min
        } else {
            1.0
        }
    });
    metrics
        .median("sched.shard.busy_skew", "x", &busy_skew)
        .note = "max / min per-device busy time".to_string();
    let peak = passes
        .iter()
        .flat_map(|p| p.report.shard_stats.iter().map(|s| s.peak_inflight))
        .max();
    metrics.value(
        "sched.shard.peak_inflight",
        "count",
        peak.unwrap_or(0) as f64,
    );
    metrics.median(
        "sched.shard.stolen_items",
        "count",
        &over_passes(&|p| shard_sum(p, &|s| s.stolen_items)),
    );
    metrics
        .value(
            "sched.shard.query_items",
            "count",
            shard_sum(any, &|s| s.query_items),
        )
        .note = "exact count, per pass".to_string();
    metrics
        .value(
            "sched.shard.step3_items",
            "count",
            shard_sum(any, &|s| s.step3_items),
        )
        .note = "exact count, per pass".to_string();

    metrics.median(
        "sched.service.stage_overlap_events",
        "count",
        &over_passes(&|p| p.report.stage_overlap_events as f64),
    );
    metrics.value(
        "sched.service.failed_jobs",
        "count",
        total(&|p| p.report.failed_jobs as f64),
    );
    metrics.value(
        "sched.shard.faults",
        "count",
        total(&|p| shard_sum(p, &|s| s.faults)),
    );
    metrics.value(
        "sched.shard.retries",
        "count",
        total(&|p| shard_sum(p, &|s| s.retries)),
    );
    metrics.value(
        "sched.queue.admission_rejects",
        "count",
        total(&|p| p.refused as f64),
    );
    metrics
        .value(
            "sched.service.resident_database_bytes",
            "B",
            any.report.resident_database_bytes as f64,
        )
        .note = "exact count".to_string();
}

/// T rows, from the traced passes' `StageBreakdown`, `StragglerReport` and
/// `TraceLog`. A trace that dropped events invalidates every row.
fn trace_metrics(
    metrics: &mut Metrics,
    problems: &mut Vec<String>,
    untraced: &Measured,
    traced: &[Pass],
) {
    type Stage = fn(&megis_sched::StageBreakdown) -> Duration;
    const STAGES: [(&str, Stage); 8] = [
        ("sched.trace.queue_wait_ms", |b| b.queue_wait),
        ("sched.trace.step1_ms", |b| b.step1),
        ("sched.trace.step2_wait_ms", |b| b.step2_wait),
        ("sched.trace.step2_service_ms", |b| b.step2_service),
        ("sched.trace.step3_wait_ms", |b| b.step3_wait),
        ("sched.trace.step3_service_ms", |b| b.step3_service),
        ("sched.trace.reduce_barrier_ms", |b| b.reduce_barrier),
        ("sched.trace.reduce_ms", |b| b.reduce),
    ];
    const OTHERS: [(&str, &str); 6] = [
        ("sched.trace.device_busy_frac", "ratio"),
        ("sched.trace.device_stall_frac", "ratio"),
        ("sched.trace.device_idle_frac", "ratio"),
        ("sched.trace.step3_busy_skew", "x"),
        ("sched.trace.overhead_frac", "ratio"),
        ("sched.trace.closure_frac", "ratio"),
    ];
    let dropped: u64 = traced
        .iter()
        .filter_map(|p| p.report.trace.as_ref())
        .map(|t| t.dropped)
        .sum();
    let complete = traced.iter().all(|p| {
        p.report.stage_breakdown.is_some()
            && p.report.straggler.is_some()
            && p.report.trace.is_some()
    });
    if dropped > 0 || !complete {
        let why = if dropped > 0 {
            format!("trace dropped {dropped} events")
        } else {
            "a traced pass reported no breakdown".to_string()
        };
        problems.push(format!("sched.trace: {why}"));
        for (name, _) in STAGES {
            metrics.invalid(name, "ms", &why);
        }
        for (name, unit) in OTHERS {
            metrics.invalid(name, unit, &why);
        }
    } else {
        let over = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
        for (name, field) in STAGES {
            let mean_ms = over(&|p| ms(field(p.report.stage_breakdown.as_ref().expect("checked"))));
            metrics.median(name, "ms", &mean_ms).note = "mean per job".to_string();
        }
        let device_frac = |f: fn(&megis_sched::DeviceUsage) -> Duration| {
            over(&|p| {
                let report = p.report.straggler.as_ref().expect("checked");
                let sum: f64 = report.devices.iter().map(|d| secs(f(d))).sum();
                sum / (report.devices.len() as f64 * secs(report.span)).max(f64::MIN_POSITIVE)
            })
        };
        let busy = device_frac(|d| d.busy);
        metrics.median("sched.trace.device_busy_frac", "ratio", &busy);
        let stall = device_frac(|d| d.stall);
        metrics.median("sched.trace.device_stall_frac", "ratio", &stall);
        let idle = device_frac(|d| d.idle);
        metrics.median("sched.trace.device_idle_frac", "ratio", &idle);
        metrics.median(
            "sched.trace.step3_busy_skew",
            "x",
            &over(&|p| {
                p.report
                    .straggler
                    .as_ref()
                    .expect("checked")
                    .step3_busy_skew()
            }),
        );

        let untraced_all = Summary::of(&untraced.all_wall_s);
        let untraced_wall = median(
            &untraced
                .kept
                .iter()
                .map(|p| secs(p.wall))
                .collect::<Vec<_>>(),
        );
        let traced_wall = median(&over(&|p| secs(p.wall)));
        let overhead = metrics.value(
            "sched.trace.overhead_frac",
            "ratio",
            traced_wall / untraced_wall - 1.0,
        );
        overhead.note = if traced_wall <= untraced_all.max {
            "inconclusive: not above the untraced passes' min-max spread".to_string()
        } else {
            "above the untraced passes' min-max spread".to_string()
        };
        let closure = over(&|p| {
            let (mut traced_total, mut measured) = (0.0, 0.0);
            for r in &p.results {
                if let Some(b) = r.breakdown {
                    traced_total += secs(b.total());
                    measured += secs(r.latency);
                }
            }
            traced_total / f64::max(measured, f64::MIN_POSITIVE)
        });
        metrics
            .median("sched.trace.closure_frac", "ratio", &closure)
            .note = "breakdown totals / measured latencies".to_string();
    }
    let events = traced
        .first()
        .and_then(|p| p.report.trace.as_ref())
        .map_or(0, |t| t.events.len());
    metrics
        .value("sched.trace.events", "count", events as f64)
        .note = "fastest traced pass".to_string();
    metrics.value("sched.trace.dropped", "count", dropped as f64);
}

/// Writes the replay's spans and the fastest traced pass's engine trace to
/// `out/trace_<workload>.json`.
fn write_trace_file(run: &Run, recorder: &Recorder, traced: Option<&Pass>) -> std::io::Result<()> {
    let engine_trace = traced
        .and_then(|p| p.report.trace.as_ref())
        .map_or("null".to_string(), |t| t.to_json());
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(
        format!("{OUT_DIR}/trace_{}.json", run.spec.name),
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"spans\": {},\n  \"engine_trace\": {}\n}}\n",
            run.spec.name,
            run.seed,
            recorder.to_json(),
            engine_trace.trim_end()
        ),
    )
}
