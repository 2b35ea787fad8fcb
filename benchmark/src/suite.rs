//! The whole suite: every workload in its own child process (so
//! `peak_rss_mb` is per workload), both modes, and the A/A self-check that
//! runs the suite twice and holds the two against the declared bounds.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Value;
use crate::report::Declaration;

/// How the suite runs its workloads.
#[derive(Debug, Clone, Copy)]
pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// What one child run printed on its result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in emission order.
    pub metrics: Vec<(String, f64)>,
}

impl ChildResult {
    /// Parses a result line.
    pub fn parse(line: &str) -> Result<ChildResult, String> {
        let doc = Value::parse(line)?;
        let count = |key: &str| -> Result<u64, String> {
            let n = doc.get(key).and_then(Value::as_f64);
            n.map(|n| n as u64)
                .ok_or(format!("result line has no `{key}`"))
        };
        let metrics = doc.get("metrics").ok_or("result line has no `metrics`")?;
        Ok(ChildResult {
            correct: doc
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("result line has no `correct`")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: metrics
                .members()
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    value
                        .map(|v| (name.clone(), v))
                        .ok_or(format!("{name} has no value"))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// One workload's two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub end_to_end: ChildResult,
    pub per_layer: ChildResult,
}

/// Runs one workload in one mode as a child of `exe`, echoing what it prints.
fn run_child(
    exe: &Path,
    workload: &str,
    trace: bool,
    options: &SuiteOptions,
) -> Result<ChildResult, String> {
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: child printed nothing"))?;
    let result = ChildResult::parse(line).map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() || !result.correct || result.failed > 0 {
        return Err(format!(
            "{workload} (--trace {}): {} of {} jobs failed, correct = {}, {}",
            u8::from(trace),
            result.failed,
            result.attempted,
            result.correct,
            output.status
        ));
    }
    Ok(result)
}

/// Runs every declared workload, end-to-end mode then per-layer mode.
pub fn run_suite(exe: &Path, options: &SuiteOptions) -> Result<Vec<WorkloadResult>, String> {
    Declaration::load()
        .workloads
        .into_iter()
        .map(|workload| {
            Ok(WorkloadResult {
                end_to_end: run_child(exe, &workload, false, options)?,
                per_layer: run_child(exe, &workload, true, options)?,
                workload,
            })
        })
        .collect()
}

/// Per-layer rows that are counts or modeled values: two runs of the same
/// code on the same seed must agree on them exactly.
pub const IDENTICAL_BETWEEN_RUNS: [&str; 8] = [
    "sched.model.pipelining_speedup",
    "sched.model.shard_speedup",
    "core.step1.query_kmers",
    "core.step2.candidates",
    "sched.shard.query_items",
    "sched.shard.step3_items",
    "sched.service.commands_per_sample",
    "sched.service.resident_database_bytes",
];

/// The A/A comparison of two suite runs: per end-to-end metric × workload
/// both values, their relative difference, the bound and a verdict; then the
/// rows that must be identical. Returns the printed report and whether every
/// pairing is within its bound.
pub fn compare(first: &[WorkloadResult], second: &[WorkloadResult]) -> (String, bool) {
    let declaration = Declaration::load();
    let mut report = String::from("A/A self-check: two runs of the same code\n");
    let mut all_ok = true;
    for (a, b) in first.iter().zip(second) {
        for metric in &declaration.end_to_end {
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = match (
                a.end_to_end.get(&metric.name),
                b.end_to_end.get(&metric.name),
            ) {
                (Some(x), Some(y)) => {
                    let difference = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
                    let ok = difference <= bound;
                    format!(
                        "{x:>12.4} {y:>12.4} {:<6} diff {difference:>7.4} bound {bound:.2} {}",
                        metric.unit,
                        if ok { "ok" } else { "exceeds" }
                    )
                }
                _ => "missing exceeds".to_string(),
            };
            all_ok &= verdict.ends_with("ok");
            report.push_str(&format!(
                "  {:<18} {:<20} {verdict}\n",
                a.workload, metric.name
            ));
        }
        for name in IDENTICAL_BETWEEN_RUNS {
            let (x, y) = (a.per_layer.get(name), b.per_layer.get(name));
            let same = x.is_some() && x.map(f64::to_bits) == y.map(f64::to_bits);
            all_ok &= same;
            if !same {
                report.push_str(&format!(
                    "  {:<18} {name}: {x:?} then {y:?} — must be identical, exceeds\n",
                    a.workload
                ));
            }
        }
    }
    report.push_str(if all_ok {
        "A/A self-check: every pairing ok, every count identical\n"
    } else {
        "A/A self-check: FAILED\n"
    });
    (report, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, scale: f64) -> WorkloadResult {
        let d = Declaration::load();
        let child = |names: Vec<String>, scale: f64| ChildResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: names.into_iter().map(|n| (n, 100.0 * scale)).collect(),
        };
        WorkloadResult {
            workload: workload.to_string(),
            end_to_end: child(d.end_to_end.iter().map(|m| m.name.clone()).collect(), scale),
            per_layer: child(IDENTICAL_BETWEEN_RUNS.map(String::from).to_vec(), 1.0),
        }
    }

    #[test]
    fn compare_accepts_small_differences_and_flags_large_ones() {
        let base = [result("w", 1.0)];
        let (report, ok) = compare(&base, &[result("w", 1.01)]);
        assert!(ok, "{report}");
        assert!(!report.contains("exceeds"));
        let (report, ok) = compare(&base, &[result("w", 2.0)]);
        assert!(!ok);
        assert!(report.contains("exceeds") && report.contains("FAILED"));
    }

    #[test]
    fn compare_requires_identical_counts() {
        let base = [result("w", 1.0)];
        let mut other = result("w", 1.0);
        other.per_layer.metrics[2].1 += 1.0;
        let (report, ok) = compare(&base, &[other]);
        assert!(!ok);
        assert!(report.contains("must be identical"));
    }
}
