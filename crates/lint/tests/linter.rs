//! Integration tests: the fixture corpus (the rule's positive and
//! negative cases, tokenization traps, annotation handling) and the
//! self-check that the live workspace lints clean.

use megis_lint::report::LintReport;
use megis_lint::rules::{lint_source, LintOutcome, ALLOW_HYGIENE, GUARD_ACROSS_BLOCKING};
use std::path::{Path, PathBuf};

fn fixture(rel: &str) -> LintOutcome {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    lint_source(&format!("tests/fixtures/{rel}"), &source)
}

fn rule_counts(outcome: &LintOutcome, rule: &str) -> usize {
    outcome
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .count()
}

#[test]
fn guard_fixtures() {
    let bad = fixture("guard_violation.rs");
    assert_eq!(
        rule_counts(&bad, GUARD_ACROSS_BLOCKING),
        3,
        "{:?}",
        bad.diagnostics
    );
    assert_eq!(bad.diagnostics.len(), 3);
    // Each diagnostic names the guard and where it was locked.
    assert!(bad
        .diagnostics
        .iter()
        .all(|d| d.message.contains("`guard`")));

    let good = fixture("guard_clean.rs");
    assert!(good.diagnostics.is_empty(), "{:?}", good.diagnostics);
}

#[test]
fn tokenizer_traps_stay_clean() {
    let out = fixture("tokenizer_tricky.rs");
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    assert!(out.suppressed.is_empty());
}

#[test]
fn allow_fixtures() {
    let suppressed = fixture("allow_suppressed.rs");
    assert!(
        suppressed.diagnostics.is_empty(),
        "{:?}",
        suppressed.diagnostics
    );
    assert_eq!(suppressed.suppressed.len(), 2);
    assert!(suppressed
        .suppressed
        .iter()
        .all(|s| s.rule == GUARD_ACROSS_BLOCKING && !s.reason.is_empty()));

    let malformed = fixture("allow_missing_reason.rs");
    assert_eq!(
        rule_counts(&malformed, ALLOW_HYGIENE),
        2,
        "{:?}",
        malformed.diagnostics
    );
    assert_eq!(
        rule_counts(&malformed, GUARD_ACROSS_BLOCKING),
        1,
        "a reasonless annotation must not suppress: {:?}",
        malformed.diagnostics
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// The self-check the CI lint step relies on: the live workspace has no
/// unsuppressed violations, and every suppression in it carries a reason.
#[test]
fn live_workspace_lints_clean() {
    let root = workspace_root();
    let report = megis_lint::lint_workspace(&root).expect("lint workspace");
    assert!(
        report.files_scanned > 50,
        "workspace walk found only {} files — wrong root?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace has unsuppressed violations:\n{}",
        report.render_text()
    );
    assert!(report.verdict_line().contains("megis lint: clean"));
    assert!(report.suppressed.iter().all(|s| !s.reason.is_empty()));
}

/// The fixture corpus contains deliberate violations; the workspace walk
/// must skip it or the self-check above would be meaningless.
#[test]
fn workspace_walk_skips_fixtures_and_target() {
    let root = workspace_root();
    let files = megis_lint::workspace_files(&root).expect("walk workspace");
    assert!(!files.is_empty());
    for file in &files {
        let s = file.to_string_lossy();
        assert!(!s.contains("fixtures"), "fixture leaked into the walk: {s}");
        assert!(
            !s.contains("/target/"),
            "build output leaked into the walk: {s}"
        );
    }
}

/// Holding the state lock while teardown joins the pipeline threads is
/// the shutdown deadlock: a pool thread cannot see `stopping` without
/// that lock, so the join never returns. Simulated by linting the live
/// service.rs with teardown's one-statement lock turned into a binding
/// that stays live across the joins.
#[test]
fn reintroducing_the_service_shutdown_bug_is_caught() {
    let root = workspace_root();
    let service = root.join("crates/sched/src/service.rs");
    let source = std::fs::read_to_string(&service).expect("read service.rs");
    let fixed = "self.shared.state.lock().stopping = true;";
    assert!(
        source.contains(fixed),
        "service.rs teardown no longer matches the statement this test reverts"
    );
    let reverted = source.replace(
        fixed,
        "let mut held = self.shared.state.lock();\n        held.stopping = true;",
    );

    let clean = lint_source("crates/sched/src/service.rs", &source);
    assert!(clean.diagnostics.is_empty(), "{:?}", clean.diagnostics);
    let broken = lint_source("crates/sched/src/service.rs", &reverted);
    assert!(
        !broken.diagnostics.is_empty()
            && broken
                .diagnostics
                .iter()
                .all(|d| d.rule == GUARD_ACROSS_BLOCKING && d.message.contains("`held`")),
        "the reverted shutdown bug must produce guard-across-blocking diagnostics only: {:?}",
        broken.diagnostics
    );

    // And a dirty report's verdict is not grepable as clean.
    let report = LintReport {
        files_scanned: 1,
        diagnostics: broken.diagnostics,
        suppressed: broken.suppressed,
    };
    assert!(!report.render_text().contains("megis lint: clean"));
    assert!(report.to_json().contains("\"clean\": false"));
}
