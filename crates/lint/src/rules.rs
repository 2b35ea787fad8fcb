//! The rule engine: repo-specific concurrency invariants over the token
//! stream.
//!
//! Each rule matches a *lexical* pattern the scheduler's incident history
//! has shown to be load-bearing (see the crate docs for the incidents).
//! Rules are deliberately syntactic and local — no type information, no
//! macro expansion — and each diagnostic names the violated invariant and a
//! fix. Deliberate exceptions are annotated in-source:
//!
//! ```text
//! // lint:allow(rule-name, why this occurrence is correct)
//! ```
//!
//! on the offending line or the comment block directly above it. The reason
//! text is mandatory: an allow without one (or naming an unknown rule) is
//! itself a diagnostic (`allow-hygiene`), and `allow-hygiene` diagnostics
//! cannot be suppressed.

use crate::scan::{scan, Comment, ScannedFile, Token, TokenKind};

/// The guard-across-blocking rule: a `MutexGuard` live across
/// `send`/`recv`/`join`/`thread::sleep`.
pub const GUARD_ACROSS_BLOCKING: &str = "guard-across-blocking";
/// Meta-rule for malformed `lint:allow` annotations; not suppressible.
pub const ALLOW_HYGIENE: &str = "allow-hygiene";

/// Every suppressible rule, in report order.
pub const RULES: [&str; 1] = [GUARD_ACROSS_BLOCKING];

/// One violation: file, line, the invariant violated, and the fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Display path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule name (one of [`RULES`] or [`ALLOW_HYGIENE`]).
    pub rule: &'static str,
    /// What invariant was violated, concretely.
    pub message: String,
    /// How to fix it (or suppress it deliberately).
    pub hint: String,
}

/// One diagnostic that a `lint:allow(rule, reason)` annotation suppressed;
/// kept in the report so deliberate exceptions stay visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressedDiagnostic {
    /// Display path of the annotated file.
    pub file: String,
    /// 1-based line of the suppressed diagnostic.
    pub line: u32,
    /// The suppressed rule.
    pub rule: &'static str,
    /// The annotation's mandatory reason text.
    pub reason: String,
}

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Unsuppressed violations.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations a `lint:allow` annotation covered.
    pub suppressed: Vec<SuppressedDiagnostic>,
}

/// Lints one source file; `file` is the display path diagnostics carry.
pub fn lint_source(file: &str, source: &str) -> LintOutcome {
    let scanned = scan(source);
    let ctx = Ctx::new(file, &scanned);
    let raw = guard_across_blocking(&ctx);

    let (allows, mut hygiene) = parse_allows(file, &scanned.comments);
    let mut out = LintOutcome::default();
    for diag in raw {
        match allows.iter().find(|a| a.covers(diag.rule, diag.line)) {
            Some(allow) => out.suppressed.push(SuppressedDiagnostic {
                file: diag.file,
                line: diag.line,
                rule: diag.rule,
                reason: allow.reason.clone(),
            }),
            None => out.diagnostics.push(diag),
        }
    }
    out.diagnostics.append(&mut hygiene);
    out.diagnostics.sort_by_key(|d| (d.line, d.rule));
    out
}

/// A parsed `lint:allow(rule, reason)` annotation. It covers diagnostics of
/// its rule on any line of its comment block and on the line directly below
/// the block (the annotated statement).
struct Allow {
    rule: &'static str,
    reason: String,
    start_line: u32,
    end_line: u32,
}

impl Allow {
    fn covers(&self, rule: &str, line: u32) -> bool {
        self.rule == rule && line >= self.start_line && line <= self.end_line + 1
    }
}

fn parse_allows(file: &str, comments: &[Comment]) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for comment in comments {
        // Doc comments describe the annotation syntax (this crate's own
        // docs do!); only regular comments can apply it.
        if comment.doc {
            continue;
        }
        let mut rest = comment.text.as_str();
        while let Some(at) = rest.find("lint:allow") {
            rest = &rest[at + "lint:allow".len()..];
            let Some(open) = rest.trim_start().strip_prefix('(') else {
                diags.push(allow_hygiene(
                    file,
                    comment.start_line,
                    "`lint:allow` must be followed by `(rule, reason)`",
                ));
                continue;
            };
            let Some(close) = open.find(')') else {
                diags.push(allow_hygiene(
                    file,
                    comment.start_line,
                    "unterminated `lint:allow(` annotation",
                ));
                break;
            };
            let body = &open[..close];
            rest = &open[close + 1..];
            let (rule_name, reason) = match body.split_once(',') {
                Some((r, reason)) => (r.trim(), reason.trim()),
                None => (body.trim(), ""),
            };
            let Some(rule) = RULES.iter().find(|r| **r == rule_name) else {
                diags.push(allow_hygiene(
                    file,
                    comment.start_line,
                    &format!("`lint:allow` names unknown rule `{rule_name}`"),
                ));
                continue;
            };
            if reason.is_empty() {
                diags.push(allow_hygiene(
                    file,
                    comment.start_line,
                    &format!(
                        "`lint:allow({rule})` is missing its reason — suppression must say *why* \
                         the invariant holds here"
                    ),
                ));
                continue;
            }
            allows.push(Allow {
                rule,
                reason: reason.to_string(),
                start_line: comment.start_line,
                end_line: comment.end_line,
            });
        }
    }
    (allows, diags)
}

fn allow_hygiene(file: &str, line: u32, message: &str) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        rule: ALLOW_HYGIENE,
        message: message.to_string(),
        hint: "write `// lint:allow(rule-name, reason)` with a non-empty reason".to_string(),
    }
}

/// Token-stream context shared by the rules: nesting depths, precomputed in
/// one pass.
struct Ctx<'a> {
    file: &'a str,
    tokens: &'a [Token],
    /// Brace-nesting level *containing* each token (an opening `{` carries
    /// the outer level; so does its matching `}`).
    brace_depth: Vec<u32>,
    /// Combined `(`/`[` nesting level containing each token.
    group_depth: Vec<u32>,
}

impl<'a> Ctx<'a> {
    fn new(file: &'a str, scanned: &'a ScannedFile) -> Ctx<'a> {
        let tokens = &scanned.tokens;
        let mut brace_depth = Vec::with_capacity(tokens.len());
        let mut group_depth = Vec::with_capacity(tokens.len());
        let (mut braces, mut groups) = (0u32, 0u32);
        for tok in tokens {
            let (mut b, mut g) = (braces, groups);
            if tok.kind == TokenKind::Punct {
                match tok.text.as_str() {
                    "{" => braces += 1,
                    "}" => {
                        braces = braces.saturating_sub(1);
                        b = braces;
                    }
                    "(" | "[" => groups += 1,
                    ")" | "]" => {
                        groups = groups.saturating_sub(1);
                        g = groups;
                    }
                    _ => {}
                }
            }
            brace_depth.push(b);
            group_depth.push(g);
        }
        Ctx {
            file,
            tokens,
            brace_depth,
            group_depth,
        }
    }

    fn is_p(&self, i: usize, s: &str) -> bool {
        matches!(self.tokens.get(i), Some(t) if t.kind == TokenKind::Punct && t.text == s)
    }

    fn is_i(&self, i: usize, s: &str) -> bool {
        matches!(self.tokens.get(i), Some(t) if t.kind == TokenKind::Ident && t.text == s)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i) {
            Some(t) if t.kind == TokenKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    fn line(&self, i: usize) -> u32 {
        self.tokens[i].line
    }

    /// Index just past the bracket group opened at `open` (`(`, `[` or `{`).
    fn close_of_group(&self, open: usize) -> usize {
        let (o, c) = match self.tokens[open].text.as_str() {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            _ => ("{", "}"),
        };
        let mut depth = 0i64;
        for i in open..self.tokens.len() {
            if self.is_p(i, o) {
                depth += 1;
            } else if self.is_p(i, c) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.tokens.len().saturating_sub(1)
    }

    /// Matches `.lock()` starting at the `.` token.
    fn is_lock_call(&self, i: usize) -> bool {
        self.is_p(i, ".")
            && self.is_i(i + 1, "lock")
            && self.is_p(i + 2, "(")
            && self.is_p(i + 3, ")")
    }

    fn diag(&self, i: usize, rule: &'static str, message: String, hint: &str) -> Diagnostic {
        Diagnostic {
            file: self.file.to_string(),
            line: self.line(i),
            rule,
            message,
            hint: hint.to_string(),
        }
    }
}

/// A tracked `MutexGuard` binding for the guard-across-blocking rule.
struct GuardBinding {
    name: String,
    /// Brace level of the `let`; the binding dies when that block closes.
    depth: u32,
    line: u32,
}

/// **guard-across-blocking** — a `let`-bound `MutexGuard` must not be live
/// across `.send(..)`, `.recv(..)`, `.recv_timeout(..)`, `.join(..)` or
/// `thread::sleep(..)`: blocking while holding a pipeline lock is the PR 5
/// completer deadlock class. `Condvar::wait` is the sanctioned way to block
/// with a guard (it releases the lock while parked), so it is not in the
/// blocking set.
///
/// A binding counts as a guard when its initializer's method chain *ends*
/// at `.lock()` (optionally followed by one `unwrap`/`expect`/
/// `unwrap_or_else` adapter) — `db.lock().…().collect()` temporaries drop
/// their guard at the end of the statement and are not tracked.
fn guard_across_blocking(ctx: &Ctx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut guards: Vec<GuardBinding> = Vec::new();
    let n = ctx.tokens.len();
    for i in 0..n {
        if ctx.is_p(i, "}") {
            let level = ctx.brace_depth[i];
            guards.retain(|g| g.depth <= level);
            continue;
        }
        // `drop(guard)` ends the region early.
        if ctx.is_i(i, "drop") && ctx.is_p(i + 1, "(") && ctx.is_p(i + 3, ")") {
            if let Some(name) = ctx.ident(i + 2) {
                guards.retain(|g| g.name != name);
            }
        }
        // Blocking call while a guard is live?
        if ctx.is_p(i, ".") && ctx.is_p(i + 2, "(") {
            if let Some(m) = ctx.ident(i + 1) {
                if matches!(m, "send" | "recv" | "recv_timeout" | "join") {
                    report_blocking(ctx, &guards, i + 1, &format!(".{m}(..)"), &mut out);
                }
            }
        }
        if ctx.is_i(i, "thread")
            && ctx.is_p(i + 1, ":")
            && ctx.is_p(i + 2, ":")
            && ctx.is_i(i + 3, "sleep")
        {
            report_blocking(ctx, &guards, i + 3, "thread::sleep(..)", &mut out);
        }
        // New guard binding?
        if !ctx.is_i(i, "let")
            || ctx.is_i(i.wrapping_sub(1), "if")
            || ctx.is_i(i.wrapping_sub(1), "while")
        {
            continue;
        }
        let mut j = i + 1;
        if ctx.is_i(j, "mut") {
            j += 1;
        }
        let Some(name) = ctx.ident(j) else {
            continue;
        };
        // Find the `=` (skipping a `: Type` annotation) and the terminating
        // `;` at the same nesting as the `let`.
        let (let_brace, let_group) = (ctx.brace_depth[i], ctx.group_depth[i]);
        let mut eq = None;
        for k in j + 1..n {
            if ctx.brace_depth[k] == let_brace && ctx.group_depth[k] == let_group {
                if ctx.is_p(k, "=") && !ctx.is_p(k + 1, "=") && !ctx.is_p(k.wrapping_sub(1), "=") {
                    eq = Some(k);
                    break;
                }
                if ctx.is_p(k, ";") {
                    break;
                }
            }
        }
        let Some(eq) = eq else { continue };
        let mut semi = None;
        for k in eq + 1..n {
            if ctx.is_p(k, ";")
                && ctx.brace_depth[k] == let_brace
                && ctx.group_depth[k] == let_group
            {
                semi = Some(k);
                break;
            }
        }
        let Some(semi) = semi else { continue };
        if initializer_yields_guard(ctx, eq + 1, semi) {
            guards.push(GuardBinding {
                name: name.to_string(),
                depth: let_brace,
                line: ctx.line(i),
            });
        }
    }
    out
}

/// Whether the initializer tokens in `(start..end)` end in a `.lock()` call
/// (with at most one poison adapter after it), i.e. the binding holds the
/// guard itself rather than something derived from a temporary guard.
fn initializer_yields_guard(ctx: &Ctx<'_>, start: usize, end: usize) -> bool {
    for i in start..end {
        if !ctx.is_lock_call(i) {
            continue;
        }
        let mut after = i + 4; // just past `.lock()`
        if ctx.is_p(after, ".") {
            match ctx.ident(after + 1) {
                Some("unwrap_or_else") | Some("unwrap") | Some("expect")
                    if ctx.is_p(after + 2, "(") =>
                {
                    after = ctx.close_of_group(after + 2) + 1;
                }
                _ => return false, // chain continues: guard is a temporary
            }
        }
        return after == end;
    }
    false
}

fn report_blocking(
    ctx: &Ctx<'_>,
    guards: &[GuardBinding],
    at: usize,
    call: &str,
    out: &mut Vec<Diagnostic>,
) {
    for guard in guards {
        out.push(ctx.diag(
            at,
            GUARD_ACROSS_BLOCKING,
            format!(
                "`MutexGuard` `{}` (locked on line {}) is still live across this blocking \
                 `{call}` call — blocking while holding a pipeline lock is the completer \
                 deadlock class",
                guard.name, guard.line
            ),
            "drop the guard before blocking (scope it in a block, or call `drop(guard)`), or \
             block through `Condvar::wait`, which releases the lock while parked",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        lint_source("test.rs", src).diagnostics
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        diags(src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn guard_across_blocking_fires_on_send_recv_join_sleep() {
        for call in ["tx.send(x)", "rx.recv()", "rx.recv_timeout(t)", "h.join()"] {
            let src = format!(
                "fn f() {{ let g = m.lock().unwrap_or_else(PoisonError::into_inner); {call}; }}"
            );
            assert_eq!(rules_of(&src), vec![GUARD_ACROSS_BLOCKING], "{call}");
        }
        let src = "fn f() { let g = m.lock(); thread::sleep(d); }";
        assert_eq!(rules_of(src), vec![GUARD_ACROSS_BLOCKING]);
    }

    #[test]
    fn guard_dies_at_scope_close_or_drop() {
        let src = "fn f() { { let g = m.lock(); } tx.send(x); }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
        let src = "fn f() { let g = m.lock(); drop(g); tx.send(x); }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }

    #[test]
    fn condvar_wait_is_allow_listed() {
        let src = "fn f() { let mut g = m.lock(); while !done { g = cv.wait(g); } }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }

    #[test]
    fn consumed_guard_temporaries_are_not_tracked() {
        // The chain continues past `.lock()`, so the guard is a temporary
        // dropped at the end of the statement — sending afterwards is fine.
        let src = "fn f() { let v = m.lock().unwrap_or_else(PoisonError::into_inner).iter().collect(); tx.send(v); }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }

    /// A guard live across a send on line 3, under `comment` on line 2.
    fn annotated_send(comment: &str) -> String {
        format!("fn f() {{ let g = m.lock();\n    {comment}\n    tx.send(x);\n}}")
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_recorded() {
        let src = "fn f() {\n    let g = m.lock();\n    // lint:allow(guard-across-blocking, the channel is unbounded,\n    // so the send never blocks deliberately)\n    tx.send(x);\n}";
        let out = lint_source("test.rs", src);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.suppressed[0].rule, GUARD_ACROSS_BLOCKING);
        assert!(out.suppressed[0].reason.contains("deliberately"));
    }

    #[test]
    fn allow_same_line_suppresses() {
        let src = "fn f() { let g = m.lock(); tx.send(x); } // lint:allow(guard-across-blocking, test-only)";
        let out = lint_source("test.rs", src);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert_eq!(out.suppressed.len(), 1);
    }

    #[test]
    fn allow_without_reason_is_a_diagnostic() {
        let out = lint_source(
            "test.rs",
            &annotated_send("// lint:allow(guard-across-blocking)"),
        );
        let rules: Vec<&str> = out.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&ALLOW_HYGIENE), "{rules:?}");
        assert!(
            rules.contains(&GUARD_ACROSS_BLOCKING),
            "a reasonless allow must not suppress: {rules:?}"
        );
    }

    #[test]
    fn allow_unknown_rule_is_a_diagnostic() {
        let src = "// lint:allow(made-up-rule, whatever)\nfn f() {}";
        let out = lint_source("test.rs", src);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, ALLOW_HYGIENE);
    }

    #[test]
    fn allow_does_not_cover_other_rules_or_far_lines() {
        // A retired rule's name is an unknown rule now: it suppresses nothing.
        let out = lint_source(
            "test.rs",
            &annotated_send("// lint:allow(panic-hygiene, wrong rule)"),
        );
        let rules: Vec<&str> = out.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, [ALLOW_HYGIENE, GUARD_ACROSS_BLOCKING]);
        let src = "// lint:allow(guard-across-blocking, too far away)\nfn a() {}\nfn f() { let g = m.lock(); tx.send(x); }";
        let out = lint_source("test.rs", src);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, GUARD_ACROSS_BLOCKING);
    }

    #[test]
    fn doc_comments_neither_suppress_nor_trip_allow_hygiene() {
        // Docs *describing* the syntax must not parse as annotations…
        let src = "//! Write `lint:allow(rule-name, reason)` above the line.\nfn f() {}";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
        // …and must not suppress a real diagnostic either.
        let out = lint_source(
            "test.rs",
            &annotated_send("/// lint:allow(guard-across-blocking, docs are not annotations)"),
        );
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, GUARD_ACROSS_BLOCKING);
        assert!(out.suppressed.is_empty());
    }

    #[test]
    fn nested_closures_and_raw_strings_do_not_confuse_the_rules() {
        let src = r##"
fn f() {
    let body = r#"let g = m.lock(); tx.send(x);"#;
    let run = |g: &str| {
        let inner = move || g.len();
        inner()
    };
    run(body);
}
"##;
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }
}
