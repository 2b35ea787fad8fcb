//! Benchmark harness for the MegIS reproduction.
//!
//! Each figure and table of the paper's evaluation (§3 and §6) has a
//! corresponding function in [`experiments`] that evaluates the models of the
//! workspace at paper scale and renders the same rows/series the paper
//! reports. The `megis-bench` binary runs one by name (`cargo run -p
//! megis-bench -- fig12_presence_speedup`), the whole suite (`all`), or lists
//! the names (`--list`).
//!
//! These reports regenerate the paper's *modeled* figures plus one measured
//! kernel microbenchmark (`hotpath`); measured end-to-end performance lives
//! in the repository benchmark (`benchmark/README.md`).

// The whole workspace is safe Rust ([workspace.lints] forbids it too);
// this attribute keeps the guarantee visible at the crate root.
#![forbid(unsafe_code)]
pub mod experiments;
pub mod report;

pub use report::Report;

/// Resolves the value of a `--flag <value>` / `--flag=<value>` pair in an
/// argument list. Used by `megis-bench hotpath` for `--out`, so CI and
/// local runs can redirect the JSON record instead of clobbering the
/// committed `BENCH_hotpath.json` baseline in the working directory.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == flag {
            return args.next().cloned();
        }
        if let Some(value) = arg.strip_prefix(&format!("{flag}=")) {
            return Some(value.to_string());
        }
    }
    None
}

/// The output path for the JSON record: the `--out` argument if given, the
/// hardcoded committed-baseline default otherwise.
pub fn out_path(default: &str) -> String {
    let args: Vec<String> = std::env::args().skip(1).collect();
    flag_value(&args, "--out").unwrap_or_else(|| default.to_string())
}

#[cfg(test)]
mod tests {
    use super::flag_value;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_supports_both_spellings_and_absence() {
        assert_eq!(
            flag_value(&args(&["--out", "/tmp/x.json"]), "--out"),
            Some("/tmp/x.json".to_string())
        );
        assert_eq!(
            flag_value(&args(&["--out=/tmp/y.json"]), "--out"),
            Some("/tmp/y.json".to_string())
        );
        assert_eq!(flag_value(&args(&["--other", "z"]), "--out"), None);
        assert_eq!(flag_value(&args(&[]), "--out"), None);
        assert_eq!(
            flag_value(&args(&["--out", "a", "--trace-out", "b"]), "--trace-out"),
            Some("b".to_string())
        );
        // A dangling flag with no value resolves to nothing rather than
        // panicking.
        assert_eq!(flag_value(&args(&["--out"]), "--out"), None);
    }
}
