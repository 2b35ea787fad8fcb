//! `megis-bench <name> | all | --list`: regenerates one experiment of the
//! MegIS evaluation by name, the whole suite in paper order, or lists the
//! names (see `megis_bench::experiments::EXPERIMENTS`).

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
