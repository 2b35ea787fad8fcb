//! `--quick` smoke: every workload end to end in both modes at tiny counts.
//! No timing assertions — only that outputs match the oracle, that each name
//! `BENCHMARK.json` declares is emitted exactly once with its unit, and that
//! the workloads exercise and bypass the layers they are meant to.
//!
//! One test per workload: a per-layer run writes `out/trace_<workload>.json`,
//! and parallel tests must not share a file.

use megis_benchmark::report::{is_valid_name, result_line, Declaration};
use megis_benchmark::runner::{run, Run};
use megis_benchmark::suite::ChildResult;
use megis_benchmark::workload::WorkloadSpec;

/// Both modes of one workload: every declared metric once, outputs equal to
/// the oracle, and the layers the workload is meant to exercise or bypass.
fn smoke(workload: &str) {
    let declaration = Declaration::load();
    let spec = WorkloadSpec::named(workload).expect(workload);
    for (trace, declared) in [
        (false, &declaration.end_to_end),
        (true, &declaration.per_layer),
    ] {
        let outcome = run(&Run {
            spec: spec.quick(),
            seed: 7,
            seconds: 0.0,
            trace,
        });
        let label = format!("{} --trace {}", spec.name, u8::from(trace));
        assert!(outcome.attempted > 0, "{label}");
        assert_eq!(outcome.failed, 0, "{label}");
        assert_eq!(outcome.problems, Vec::<String>::new(), "{label}");
        assert_eq!(
            outcome.metrics.problems_against(declared),
            Vec::<String>::new(),
            "{label}"
        );
        for metric in &outcome.metrics.0 {
            assert!(is_valid_name(metric.name), "{label}: {}", metric.name);
        }

        // The result line carries exactly the declared names and parses
        // back to the same values.
        let line = result_line(true, outcome.attempted, outcome.failed, &outcome.metrics);
        let parsed = ChildResult::parse(&line).expect(&label);
        assert_eq!(parsed.metrics.len(), declared.len(), "{label}");
        for d in declared {
            assert_eq!(
                parsed.get(&d.name),
                outcome.metrics.get(&d.name),
                "{label}: {}",
                d.name
            );
        }

        if trace {
            let get = |name: &str| outcome.metrics.get(name).expect(name);
            if spec.name == "cohort_foreign" {
                assert_eq!(get("genomics.intersect.hit_ratio"), 0.0);
                assert_eq!(get("core.step2.candidates"), 0.0);
                assert_eq!(get("sched.shard.step3_items"), 0.0);
            } else {
                assert!(get("genomics.intersect.hit_ratio") > 0.0, "{label}");
                assert!(get("core.step2.candidates") > 0.0, "{label}");
                assert!(get("core.step3.mapped_frac") > 0.0, "{label}");
            }
            assert_eq!(get("failed_frac"), 0.0, "{label}");
            assert_eq!(get("sched.trace.dropped"), 0.0, "{label}");
        }
    }
}

#[test]
fn cohort_mapped_quick() {
    smoke("cohort_mapped");
}

#[test]
fn cohort_foreign_quick() {
    smoke("cohort_foreign");
}

#[test]
fn cohort_tiny_wide_quick() {
    smoke("cohort_tiny_wide");
}

#[test]
fn stream_closed2_quick() {
    smoke("stream_closed2");
}
