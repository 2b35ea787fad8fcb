//! `megis-bench <name> | all | --list`: regenerates one experiment of the
//! MegIS evaluation by name, the whole suite in paper order, or lists the
//! names (see `megis_bench::experiments::EXPERIMENTS`).
//!
//! `megis-bench hotpath` additionally writes its measurement to
//! `BENCH_hotpath.json` (override with `--out <path>`) — the repo's
//! kernel-level performance trajectory record.

use std::process::ExitCode;

use megis_bench::experiments::{self, EXPERIMENTS};

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    match name.as_str() {
        "--list" => {
            for (name, _) in EXPERIMENTS {
                println!("{name}");
            }
        }
        "all" => print!("{}", experiments::all()),
        "hotpath" => {
            let measurement = experiments::hotpath_measure();
            print!("{}", measurement.report());
            let path = megis_bench::out_path("BENCH_hotpath.json");
            if let Err(e) = std::fs::write(&path, measurement.to_json()) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        other => match EXPERIMENTS.iter().find(|(name, _)| *name == other) {
            Some((_, run)) => print!("{}", run()),
            None => {
                eprintln!("megis-bench: no experiment named {other:?}");
                eprintln!("usage: megis-bench <name> | all | --list");
                return ExitCode::FAILURE;
            }
        },
    }
    ExitCode::SUCCESS
}
