//! The measured end-to-end benchmark of the MegIS reproduction.
//!
//! One command generates inputs from a seed, drives four CPU-bound workloads
//! through the streaming engine, checks every output against the sequential
//! `MegisAnalyzer::analyze` oracle, and prints every metric `BENCHMARK.json`
//! declares by name with its unit. See `README.md` for what each workload
//! and each layer row is for.

#![forbid(unsafe_code)]

pub mod json;
pub mod load;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod runner;
pub mod stats;
pub mod suite;
pub mod workload;

/// Where span and engine traces are written: `out/` inside this package.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
