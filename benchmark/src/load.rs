//! The load generator: one timed pass of a cohort through a fresh engine.
//!
//! The generator is the calling thread. It keeps up to `outstanding` jobs in
//! the engine — the whole cohort for a closed batch, two for the closed
//! loop — always waiting for the oldest before submitting the next, and
//! stamps every job on its own clock: submit → `JobHandle::wait` return.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use megis::{MegisAnalyzer, MegisOutput};
use megis_genomics::sample::Sample;
use megis_sched::{EngineConfig, JobResult, JobSpec, ServiceReport, StreamingEngine};

use crate::procfs;

/// Everything one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// `StreamingEngine::new`, outside the timed region.
    pub engine_start: Duration,
    /// First `submit` → last `wait` return.
    pub wall: Duration,
    /// Process CPU time over the same region (all engine threads included).
    pub cpu: Duration,
    /// Submit → `wait` return per delivered job, in submission order.
    pub latencies: Vec<Duration>,
    /// The delivered jobs' results, in submission order.
    pub results: Vec<JobResult>,
    /// Jobs `submit` refused.
    pub refused: usize,
    /// Jobs whose handle resolved to `Err`.
    pub errored: usize,
    /// Delivered jobs whose output differs from the sequential oracle.
    pub mismatched: usize,
    /// The engine's own accounting, from `shutdown` after the timed region.
    pub report: ServiceReport,
}

impl Pass {
    /// Jobs that count as failed: refused, errored, or wrong.
    pub fn failed(&self) -> usize {
        self.refused + self.errored + self.mismatched
    }

    pub fn samples_per_s(&self, samples: usize) -> f64 {
        samples as f64 / self.wall.as_secs_f64()
    }
}

/// Runs `samples` through a fresh engine with at most `outstanding` jobs in
/// flight, and checks every delivered output against `oracle`.
pub fn run_pass(
    analyzer: &MegisAnalyzer,
    config: EngineConfig,
    samples: &[Sample],
    oracle: &[MegisOutput],
    outstanding: usize,
) -> Pass {
    assert_eq!(samples.len(), oracle.len(), "one oracle output per sample");
    assert!(outstanding > 0, "the generator keeps at least one job out");
    let specs: Vec<JobSpec> = samples
        .iter()
        .enumerate()
        .map(|(i, sample)| JobSpec::new(format!("sample-{i}"), sample.clone()))
        .collect();
    let owned = analyzer.clone();
    let started = Instant::now();
    let engine = StreamingEngine::new(owned, config);
    let engine_start = started.elapsed();

    let mut settled = Vec::with_capacity(specs.len());
    let mut in_flight = VecDeque::new();
    let mut refused = 0;
    let cpu_before = procfs::cpu_time();
    let first_submit = Instant::now();
    for (i, spec) in specs.into_iter().enumerate() {
        if in_flight.len() == outstanding {
            settled.push(reap(&mut in_flight));
        }
        let submitted = Instant::now();
        match engine.submit(spec) {
            Ok(handle) => in_flight.push_back((i, submitted, handle)),
            Err(_) => refused += 1,
        }
    }
    while !in_flight.is_empty() {
        settled.push(reap(&mut in_flight));
    }
    let wall = first_submit.elapsed();
    let cpu = procfs::cpu_time().saturating_sub(cpu_before);
    let report = engine.shutdown();

    let mut pass = Pass {
        engine_start,
        wall,
        cpu,
        latencies: Vec::new(),
        results: Vec::new(),
        refused,
        errored: 0,
        mismatched: 0,
        report,
    };
    for (i, latency, outcome) in settled {
        match outcome {
            Ok(result) => {
                if result.output != oracle[i] {
                    pass.mismatched += 1;
                }
                pass.latencies.push(latency);
                pass.results.push(result);
            }
            Err(_) => pass.errored += 1,
        }
    }
    pass
}

type InFlight = VecDeque<(usize, Instant, megis_sched::JobHandle)>;
type Settled = (usize, Duration, Result<JobResult, megis_sched::JobError>);

/// Waits for the oldest outstanding job and stamps its latency.
fn reap(in_flight: &mut InFlight) -> Settled {
    let (i, submitted, handle) = in_flight.pop_front().expect("a job is outstanding");
    let outcome = handle.wait();
    (i, submitted.elapsed(), outcome)
}
