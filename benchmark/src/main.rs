//! `megis-benchmark` — see `README.md`.
//!
//! ```text
//! megis-benchmark [--seed N] [--seconds S] [--quick]            whole suite, one child per workload and mode
//! megis-benchmark --check [--seed N] [--seconds S] [--quick]    the suite twice, compared against the bounds
//! megis-benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S] [--quick]   one run (what the driver calls)
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

use megis_benchmark::report::{result_line, Declaration};
use megis_benchmark::runner::{run, Run};
use megis_benchmark::suite::{compare, run_suite, SuiteOptions};
use megis_benchmark::workload::WorkloadSpec;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    check: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2024,
        seconds: None,
        trace: false,
        check: false,
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is not within 0..=3600"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace is 0 or 1, not {other}")),
                }
            }
            "--check" => args.check = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("megis-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let declaration = Declaration::load();
    let seconds = match (args.seconds, args.quick) {
        (Some(seconds), _) => seconds,
        (None, true) => 0.0,
        (None, false) => declaration.run_seconds,
    };
    match &args.workload {
        Some(name) => one_run(name, &args, seconds, &declaration),
        None => whole_suite(&args, seconds),
    }
}

fn one_run(name: &str, args: &Args, seconds: f64, declaration: &Declaration) -> ExitCode {
    let Some(spec) = WorkloadSpec::named(name) else {
        eprintln!("megis-benchmark: no workload named {name}");
        return ExitCode::from(2);
    };
    let spec = if args.quick { spec.quick() } else { spec };
    let outcome = run(&Run {
        spec,
        seed: args.seed,
        seconds,
        trace: args.trace,
    });
    let declared = if args.trace {
        &declaration.per_layer
    } else {
        &declaration.end_to_end
    };
    let mut problems = outcome.problems.clone();
    problems.extend(outcome.metrics.problems_against(declared));
    let correct = outcome.failed == 0 && problems.is_empty();

    println!(
        "{} seed {} ({}): {} samples x {} reads, {} workers, {} shards, {:.0} s",
        spec.name,
        args.seed,
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        spec.samples,
        spec.reads,
        spec.workers,
        spec.shards,
        seconds
    );
    print!("{}", outcome.metrics.table());
    for problem in &problems {
        println!("  PROBLEM {problem}");
    }
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn whole_suite(args: &Args, seconds: f64) -> ExitCode {
    let options = SuiteOptions {
        seed: args.seed,
        seconds,
        quick: args.quick,
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("megis-benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let suite = || run_suite(&exe, &options).map_err(|e| eprintln!("megis-benchmark: {e}"));
    let Ok(first) = suite() else {
        return ExitCode::FAILURE;
    };
    if args.check {
        let Ok(second) = suite() else {
            return ExitCode::FAILURE;
        };
        let (report, ok) = compare(&first, &second);
        print!("{report}");
        if !ok {
            return ExitCode::FAILURE;
        }
    }
    println!(
        "megis-benchmark: {} workloads, every output equal to the sequential oracle",
        first.len()
    );
    ExitCode::SUCCESS
}
