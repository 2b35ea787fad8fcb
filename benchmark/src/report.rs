//! Metrics as the benchmark reports them: the declaration in
//! `BENCHMARK.json` (the single list of names, units, directions and
//! bounds), the measured values, the human-readable table and the result
//! line the driver reads.

use crate::json::Value;
use crate::stats::{faster_half, median, Summary};

/// `BENCHMARK.json`, compiled in so the binary and the declaration cannot
/// drift apart.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Declaration {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics if the file is not the shape the contract fixes — a build-time
    /// mistake, caught by the crate's tests.
    pub fn load() -> Declaration {
        let doc = Value::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
        let field = |key: &str| {
            doc.get(key)
                .unwrap_or_else(|| panic!("BENCHMARK.json has `{key}`"))
        };
        let metrics = |key: &str| -> Vec<Declared> {
            field(key)
                .items()
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .unwrap_or_else(|| panic!("{key} metric has a string `{k}`"))
                    };
                    Declared {
                        name: text("name").to_string(),
                        unit: text("unit").to_string(),
                        higher_is_better: match text("better") {
                            "higher" => true,
                            "lower" => false,
                            other => panic!("`better` is higher or lower, not {other}"),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    }
                })
                .collect()
        };
        Declaration {
            run_seconds: field("run_seconds")
                .as_f64()
                .expect("run_seconds is a number"),
            workloads: field("workloads")
                .items()
                .iter()
                .map(|w| {
                    let name = w.get("name").and_then(Value::as_str);
                    name.expect("workload has a name").to_string()
                })
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// Whether `name` is a legal metric or workload name: 1–64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn is_valid_name(name: &str) -> bool {
    let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(legal)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `None` marks a row whose source was invalid (e.g. a trace that
    /// dropped events): printed as `invalid`, left out of the result line,
    /// and the run is reported incorrect.
    pub value: Option<f64>,
    /// Min/max/n of the repeated measurements behind a median.
    pub spread: Option<Summary>,
    /// `measured` provenance is the default; anything else is said here
    /// (`modeled`, `exact count`, `inconclusive: …`, `n=…`).
    pub note: String,
}

/// The metrics one run emits, in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A single measured value.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) -> &mut Metric {
        self.0.push(Metric {
            name,
            unit,
            value: Some(value),
            spread: None,
            note: String::new(),
        });
        self.0.last_mut().expect("just pushed")
    }

    /// The median of repeated measurements, with their min/max/n alongside.
    pub fn median(
        &mut self,
        name: &'static str,
        unit: &'static str,
        values: &[f64],
    ) -> &mut Metric {
        let spread = Summary::of(values);
        let metric = self.value(name, unit, spread.median);
        metric.spread = Some(spread);
        metric
    }

    /// A repeated timing (lower is faster): the median of the faster half of
    /// `times` (see [`faster_half`]), with the min/max/n of all of them
    /// alongside.
    pub fn timing(&mut self, name: &'static str, unit: &'static str, times: &[f64]) -> &mut Metric {
        let metric = self.value(name, unit, median(&faster_half(times)));
        metric.spread = Some(Summary::of(times));
        metric
    }

    /// A row whose source was invalid.
    pub fn invalid(&mut self, name: &'static str, unit: &'static str, why: &str) {
        let metric = self.value(name, unit, 0.0);
        metric.value = None;
        metric.note = why.to_string();
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).and_then(|m| m.value)
    }

    /// Problems with this set against what `BENCHMARK.json` declares for the
    /// mode: every declared name exactly once with the declared unit, no
    /// undeclared name, every value finite.
    pub fn problems_against(&self, declared: &[Declared]) -> Vec<String> {
        let mut problems = Vec::new();
        for d in declared {
            let emitted: Vec<&Metric> = self.0.iter().filter(|m| m.name == d.name).collect();
            match emitted.as_slice() {
                [one] if one.unit == d.unit => {}
                [one] => problems.push(format!(
                    "{}: emitted in `{}`, declared in `{}`",
                    d.name, one.unit, d.unit
                )),
                many => problems.push(format!(
                    "{}: declared once, emitted {} times",
                    d.name,
                    many.len()
                )),
            }
        }
        for m in &self.0 {
            if !declared.iter().any(|d| d.name == m.name) {
                problems.push(format!("{}: emitted but not declared", m.name));
            }
            match m.value {
                Some(v) if !v.is_finite() => problems.push(format!("{}: value is {v}", m.name)),
                None => problems.push(format!("{}: invalid ({})", m.name, m.note)),
                Some(_) => {}
            }
        }
        problems
    }

    /// The human-readable table: every metric by name, with its unit, the
    /// spread behind a median, and its provenance note.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let value = match m.value {
                Some(v) => format!("{v:.4}"),
                None => "invalid".to_string(),
            };
            out.push_str(&format!("  {:<46} {:>16} {:<8}", m.name, value, m.unit));
            if let Some(s) = m.spread {
                out.push_str(&format!(" min {:.4} max {:.4} n {}", s.min, s.max, s.n));
            }
            if !m.note.is_empty() {
                out.push_str(&format!(" [{}]", m.note));
            }
            out.push('\n');
        }
        out
    }
}

/// The result line the driver reads: one JSON object, values with all their
/// digits.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let members: Vec<String> = metrics
        .0
        .iter()
        .filter_map(|m| {
            let value = m.value.filter(|v| v.is_finite())?;
            Some(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        members.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_meets_the_contract() {
        let d = Declaration::load();
        assert!((1.0..=60.0).contains(&d.run_seconds) && d.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&d.workloads.len()));
        assert!((1..=16).contains(&d.end_to_end.len()));
        assert!((1..=128).contains(&d.per_layer.len()));
        let mut names: Vec<&str> = d.workloads.iter().map(String::as_str).collect();
        names.extend(
            d.end_to_end
                .iter()
                .chain(&d.per_layer)
                .map(|m| m.name.as_str()),
        );
        for (i, name) in names.iter().enumerate() {
            assert!(is_valid_name(name), "{name}");
            assert!(!names[..i].contains(name), "{name} is used twice");
        }
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            let legal = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                (1..=16).contains(&m.unit.len()) && m.unit.chars().all(legal),
                "{}",
                m.unit
            );
        }
        for m in &d.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has a bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = d
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let largest = d
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        // The code's workloads are the declared ones, in order.
        let coded: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(coded, d.workloads);
    }

    #[test]
    fn name_rule() {
        for good in ["a", "sched.trace.step1_ms", "9x", "a-b_c.d"] {
            assert!(is_valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "-a", "a b", "a/b", "µs", long.as_str()] {
            assert!(!is_valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_round_trips_and_omits_invalid_rows() {
        let mut m = Metrics::default();
        m.value("a.b", "ms", 1.25);
        m.median("c", "1/s", &[3.0, 1.0, 2.0]);
        m.timing("t", "s", &[4.0, 1.0, 2.0, 8.0]);
        assert_eq!(m.get("t"), Some(1.5));
        m.invalid("d", "ms", "trace dropped 3 events");
        let line = result_line(false, 10, 1, &m);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
        let metrics = v.get("metrics").unwrap();
        assert_eq!(metrics.members().len(), 3);
        assert_eq!(
            metrics.get("c").unwrap().get("value").unwrap().as_f64(),
            Some(2.0)
        );
        assert!(m.table().contains("invalid"));
        assert!(m.table().contains("min 1.0000 max 3.0000 n 3"));
    }

    #[test]
    fn problems_name_missing_duplicate_undeclared_and_wrong_unit() {
        let declared = |name: &str, unit: &str| Declared {
            name: name.to_string(),
            unit: unit.to_string(),
            higher_is_better: false,
            bound: None,
        };
        let decl = [declared("a", "ms"), declared("b", "ms"), declared("c", "s")];
        let mut m = Metrics::default();
        m.value("a", "ms", 1.0);
        m.value("a", "ms", 2.0);
        m.value("c", "ms", 1.0);
        m.value("z", "ms", f64::NAN);
        let problems = m.problems_against(&decl).join("\n");
        assert!(problems.contains("a: declared once, emitted 2 times"));
        assert!(problems.contains("b: declared once, emitted 0 times"));
        assert!(problems.contains("c: emitted in `ms`, declared in `s`"));
        assert!(problems.contains("z: emitted but not declared"));
        assert!(problems.contains("z: value is NaN"));
    }
}
