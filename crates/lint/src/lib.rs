//! `megis-lint` — a dependency-free static-analysis pass enforcing the
//! pipeline's one concurrency invariant no type can express.
//!
//! An invariant rustc or clippy can check is checked there; this crate
//! keeps only the repo-specific rule neither can express. It hand-rolls a
//! small Rust token scanner ([`scan`]) and a rule engine ([`rules`]) that
//! walks every workspace source file. One rule:
//!
//! * **guard-across-blocking** — a `let`-bound `MutexGuard` must not be
//!   live across `.send(..)`, `.recv(..)`, `.recv_timeout(..)`, `.join(..)`
//!   or `thread::sleep(..)`. Blocking while holding a pipeline lock is the
//!   completer-deadlock class.
//!   `Condvar::wait` releases the lock while parked and is allow-listed.
//!
//! Five earlier rules are now checked by the compiler instead:
//!
//! * *poison-safety* (no `.lock().unwrap()`) — `megis-sched`'s `Lock<T>`
//!   is the only mutex, and its `lock` returns the guard already recovered
//!   from poisoning; clippy's `disallowed_types` (`clippy.toml`, denied in
//!   the root `Cargo.toml`) rejects `std::sync::Mutex` and `RwLock`
//!   everywhere else.
//! * *clock-injection* (no inline clock read stamping a trace event) —
//!   `TraceSink::record_at` takes a `TraceStamp`, which only
//!   `TraceSink::now` makes.
//! * *bounded-send* (no blocking send on a bounded channel) — clippy's
//!   `disallowed_methods` rejects `std::sync::mpsc::sync_channel`.
//! * *panic-hygiene* (no unannotated panic on a pipeline thread) — clippy's
//!   `unwrap_used`, `expect_used`, `panic`, `unreachable`, `todo` and
//!   `unimplemented` are denied over all of `megis-sched`'s non-test code,
//!   so a deliberate panic is an `#[expect(.., reason = "..")]` naming its
//!   invariant.
//! * *shardstats-accessor* (no `ShardStats` counter written outside the
//!   tally fold) — the tally's fields are private to `metrics.rs`, so its
//!   folds are the only writers the compiler lets through.
//!
//! Deliberate exceptions are annotated at the offending line (or the
//! comment block directly above it):
//!
//! ```text
//! // lint:allow(rule-name, why the invariant holds here)
//! ```
//!
//! The reason is mandatory; a reasonless or unknown-rule annotation is an
//! `allow-hygiene` diagnostic, which cannot be suppressed. Suppressions are
//! not silent — they are listed in the report and counted in the verdict
//! line.
//!
//! The binary (`cargo run --release -p megis-lint`) prints the listing,
//! writes a JSON artifact with `--out`, ends with a verdict line CI greps
//! (`megis lint: clean (...)`), and exits non-zero on any unsuppressed
//! diagnostic.

// The whole workspace is safe Rust ([workspace.lints] forbids it too);
// this attribute keeps the guarantee visible at the crate root.
#![forbid(unsafe_code)]

pub mod report;
pub mod rules;
pub mod scan;

use report::LintReport;
use rules::lint_source;
use std::path::{Path, PathBuf};

/// Collects every workspace `.rs` file under `root`, sorted for
/// deterministic reports. Skips build output (`target/`), VCS metadata
/// (`.git/`) and lint fixtures (`fixtures/` — they contain deliberate
/// violations).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints the given files, labeling diagnostics with paths relative to
/// `root` where possible.
pub fn lint_files(root: &Path, files: &[PathBuf]) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    for path in files {
        let source = std::fs::read_to_string(path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let outcome = lint_source(&label, &source);
        report.diagnostics.extend(outcome.diagnostics);
        report.suppressed.extend(outcome.suppressed);
        report.files_scanned += 1;
    }
    Ok(report)
}

/// Walks and lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let files = workspace_files(root)?;
    lint_files(root, &files)
}
