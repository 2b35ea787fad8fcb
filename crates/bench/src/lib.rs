//! Benchmark harness for the MegIS reproduction.
//!
//! Each figure and table of the paper's evaluation (§3 and §6) has a
//! corresponding function in [`experiments`] that evaluates the models of the
//! workspace at paper scale and renders the same rows/series the paper
//! reports. The `megis-bench` binary runs one by name (`cargo run -p
//! megis-bench -- fig12_presence_speedup`), the whole suite (`all`), or lists
//! the names (`--list`).
//!
//! These reports regenerate the paper's *modeled* figures; measured
//! performance lives in the repository benchmark (`benchmark/README.md`).

// The whole workspace is safe Rust ([workspace.lints] forbids it too);
// this attribute keeps the guarantee visible at the crate root.
#![forbid(unsafe_code)]
pub mod experiments;
pub mod report;

pub use report::Report;
