//! Report assembly: the human-readable diagnostic listing, the one-line
//! verdict CI greps for, and the machine-readable JSON artifact.
//!
//! The JSON writer is hand-rolled (the whole crate is dependency-free so it
//! builds offline); the schema is small and flat on purpose:
//!
//! ```json
//! {
//!   "files_scanned": 42,
//!   "clean": true,
//!   "diagnostics": [ { "file", "line", "rule", "message", "hint" } ],
//!   "suppressed":  [ { "file", "line", "rule", "reason" } ]
//! }
//! ```

use crate::rules::{Diagnostic, SuppressedDiagnostic};
use std::fmt::Write as _;

/// Aggregated outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Unsuppressed violations across all files.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations covered by `lint:allow` annotations (deliberate
    /// exceptions, kept visible).
    pub suppressed: Vec<SuppressedDiagnostic>,
}

impl LintReport {
    /// Whether the scanned tree has no unsuppressed violations.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The one-line verdict. CI greps the output for `megis lint: clean`;
    /// the dirty form deliberately does not contain that substring.
    pub fn verdict_line(&self) -> String {
        if self.is_clean() {
            format!(
                "megis lint: clean ({} files scanned, {} suppression(s))",
                self.files_scanned,
                self.suppressed.len()
            )
        } else {
            let files: std::collections::BTreeSet<&str> =
                self.diagnostics.iter().map(|d| d.file.as_str()).collect();
            format!(
                "megis lint: {} violation(s) across {} file(s)",
                self.diagnostics.len(),
                files.len()
            )
        }
    }

    /// The full human-readable listing: diagnostics with hints, suppressions,
    /// then the verdict line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
            let _ = writeln!(out, "    hint: {}", d.hint);
        }
        if !self.suppressed.is_empty() {
            let _ = writeln!(out, "suppressions in effect:");
            for s in &self.suppressed {
                let _ = writeln!(
                    out,
                    "    {}:{}: [{}] allowed: {}",
                    s.file, s.line, s.rule, s.reason
                );
            }
        }
        let _ = writeln!(out, "{}", self.verdict_line());
        out
    }

    /// The machine-readable report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{ \"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"hint\": {} }}",
                json_str(&d.file),
                d.line,
                json_str(d.rule),
                json_str(&d.message),
                json_str(&d.hint)
            );
        }
        out.push_str(if self.diagnostics.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{ \"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {} }}",
                json_str(&s.file),
                s.line,
                json_str(s.rule),
                json_str(&s.reason)
            );
        }
        out.push_str(if self.suppressed.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// JSON string literal with the escapes the report can actually contain
/// (quotes, backslashes in Windows-style paths, control characters from
/// source snippets).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::GUARD_ACROSS_BLOCKING;

    fn dirty_report() -> LintReport {
        LintReport {
            files_scanned: 3,
            diagnostics: vec![Diagnostic {
                file: "crates/sched/src/service.rs".to_string(),
                line: 1017,
                rule: GUARD_ACROSS_BLOCKING,
                message: "say \"why\"".to_string(),
                hint: "drop the guard".to_string(),
            }],
            suppressed: Vec::new(),
        }
    }

    #[test]
    fn clean_verdict_is_grepable_and_dirty_is_not() {
        let clean = LintReport {
            files_scanned: 7,
            ..LintReport::default()
        };
        assert!(clean.verdict_line().contains("megis lint: clean"));
        let dirty = dirty_report();
        assert!(!dirty.verdict_line().contains("megis lint: clean"));
        assert!(!dirty.render_text().contains("megis lint: clean"));
        assert!(dirty.verdict_line().contains("1 violation(s)"));
    }

    #[test]
    fn text_listing_carries_location_rule_and_hint() {
        let text = dirty_report().render_text();
        assert!(text.contains("crates/sched/src/service.rs:1017: [guard-across-blocking]"));
        assert!(text.contains("hint: drop the guard"));
    }

    #[test]
    fn json_escapes_quotes_and_reports_cleanliness() {
        let json = dirty_report().to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("say \\\"why\\\""));
        assert!(json.contains("\"line\": 1017"));
        let clean = LintReport {
            files_scanned: 2,
            ..LintReport::default()
        };
        let json = clean.to_json();
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"diagnostics\": []"));
    }
}
