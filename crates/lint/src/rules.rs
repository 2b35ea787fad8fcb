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

/// The poison-safety rule: `.lock().unwrap()` / `.lock().expect(..)`.
pub const POISON_SAFETY: &str = "poison-safety";
/// The guard-across-blocking rule: a `MutexGuard` live across
/// `send`/`recv`/`join`/`thread::sleep`.
pub const GUARD_ACROSS_BLOCKING: &str = "guard-across-blocking";
/// The clock-injection rule: `Instant::now()` outside the trace module's
/// clock seams, or inline clock reads in `record_at` arguments.
pub const CLOCK_INJECTION: &str = "clock-injection";
/// The panic-hygiene rule: unannotated panics inside `thread::spawn` bodies.
pub const PANIC_HYGIENE: &str = "panic-hygiene";
/// The bounded-send rule: a plain `.send(..)` on a bounded-channel sender
/// (`mpsc::sync_channel` / `SyncSender`) without a reasoned annotation.
pub const BOUNDED_SEND: &str = "bounded-send";
/// The shardstats-accessor rule: a `ShardStats` counter field mutated
/// directly (`stats.retries = n`, `stats.jobs += 1`) outside `metrics.rs`.
pub const SHARDSTATS_ACCESSOR: &str = "shardstats-accessor";
/// Meta-rule for malformed `lint:allow` annotations; not suppressible.
pub const ALLOW_HYGIENE: &str = "allow-hygiene";

/// Every suppressible rule, in report order.
pub const RULES: [&str; 6] = [
    POISON_SAFETY,
    GUARD_ACROSS_BLOCKING,
    CLOCK_INJECTION,
    PANIC_HYGIENE,
    BOUNDED_SEND,
    SHARDSTATS_ACCESSOR,
];

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

/// Lints one source file. `file` is the display path; its basename selects
/// file-scoped rules (the clock-seam rule applies to `trace.rs`).
pub fn lint_source(file: &str, source: &str) -> LintOutcome {
    let scanned = scan(source);
    let ctx = Ctx::new(file, &scanned);
    let mut raw = Vec::new();
    raw.extend(poison_safety(&ctx));
    raw.extend(guard_across_blocking(&ctx));
    raw.extend(clock_injection(&ctx));
    raw.extend(panic_hygiene(&ctx));
    raw.extend(bounded_send(&ctx));
    raw.extend(shardstats_accessor(&ctx));
    raw.sort_by_key(|d| (d.line, d.rule));

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

/// Token-stream context shared by the rules: nesting depths and enclosing
/// function names, precomputed in one pass.
struct Ctx<'a> {
    file: &'a str,
    basename: &'a str,
    tokens: &'a [Token],
    /// Brace-nesting level *containing* each token (an opening `{` carries
    /// the outer level; so does its matching `}`).
    brace_depth: Vec<u32>,
    /// Combined `(`/`[` nesting level containing each token.
    group_depth: Vec<u32>,
    /// Name of the innermost `fn` whose body contains each token.
    enclosing_fn: Vec<Option<usize>>,
    fn_names: Vec<String>,
}

impl<'a> Ctx<'a> {
    fn new(file: &'a str, scanned: &'a ScannedFile) -> Ctx<'a> {
        let tokens = &scanned.tokens;
        let mut brace_depth = Vec::with_capacity(tokens.len());
        let mut group_depth = Vec::with_capacity(tokens.len());
        let mut enclosing_fn = Vec::with_capacity(tokens.len());
        let mut fn_names: Vec<String> = Vec::new();
        // (brace level the body's `{` sits at, fn_names index)
        let mut fn_stack: Vec<(u32, usize)> = Vec::new();
        // Set after `fn name`, consumed by the body's `{` (or dropped by a
        // `;` — a bodyless trait/extern declaration).
        let mut pending_fn: Option<usize> = None;
        let (mut braces, mut groups) = (0u32, 0u32);
        for (i, tok) in tokens.iter().enumerate() {
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
            enclosing_fn.push(fn_stack.last().map(|&(_, name)| name));
            if tok.kind == TokenKind::Ident && tok.text == "fn" {
                if let Some(next) = tokens.get(i + 1) {
                    if next.kind == TokenKind::Ident {
                        fn_names.push(next.text.clone());
                        pending_fn = Some(fn_names.len() - 1);
                    }
                }
            } else if tok.kind == TokenKind::Punct {
                match tok.text.as_str() {
                    "{" if groups == 0 => {
                        if let Some(name) = pending_fn.take() {
                            fn_stack.push((b, name));
                            // The body itself is attributed to the fn.
                            *enclosing_fn.last_mut().expect("just pushed") = Some(name);
                        }
                    }
                    ";" if groups == 0 => {
                        pending_fn = None;
                    }
                    "}" => {
                        if let Some(&(open_depth, _)) = fn_stack.last() {
                            if open_depth == b {
                                fn_stack.pop();
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        Ctx {
            file,
            basename: file.rsplit(['/', '\\']).next().unwrap_or(file),
            tokens,
            brace_depth,
            group_depth,
            enclosing_fn,
            fn_names,
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

    fn fn_name_at(&self, i: usize) -> Option<&str> {
        self.enclosing_fn[i].map(|idx| self.fn_names[idx].as_str())
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

    /// Matches `Instant::now` starting at the `Instant` token.
    fn is_instant_now(&self, i: usize) -> bool {
        self.is_i(i, "Instant")
            && self.is_p(i + 1, ":")
            && self.is_p(i + 2, ":")
            && self.is_i(i + 3, "now")
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

/// **poison-safety** — `.lock().unwrap()` / `.lock().expect(..)` is
/// forbidden: pipeline threads must survive std mutex poisoning (the
/// engine's own `poisoned` flag is the failure signal), and an `unwrap`
/// reached while another panic is unwinding panics-within-panic and aborts
/// the process. Required idiom: `.lock().unwrap_or_else(PoisonError::
/// into_inner)` or the module's named lock accessor.
fn poison_safety(ctx: &Ctx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in 0..ctx.tokens.len() {
        if !ctx.is_lock_call(i) || !ctx.is_p(i + 4, ".") {
            continue;
        }
        let Some(method) = ctx.ident(i + 5) else {
            continue;
        };
        if (method == "unwrap" || method == "expect") && ctx.is_p(i + 6, "(") {
            out.push(ctx.diag(
                i + 5,
                POISON_SAFETY,
                format!(
                    "`.lock().{method}(..)` on a pipeline mutex: it panics again if the mutex \
                     was poisoned — during an unwind that is a panic-within-panic, which aborts \
                     the process instead of letting the engine's poison flag report the failure"
                ),
                "recover the guard with `.lock().unwrap_or_else(PoisonError::into_inner)` or \
                 route through the module's named lock accessor",
            ));
        }
    }
    out
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

/// Functions allowed to read the clock directly: the trace epoch
/// constructor and the `record`/`now` convenience seams that wrap the
/// injectable `record_at` form.
const CLOCK_SEAMS: [&str; 3] = ["bounded", "now", "record"];

/// **clock-injection** — the tracing subsystem's "< 2% overhead when
/// disabled" contract requires that no clock is read on behalf of tracing
/// unless the sink is enabled. Two patterns break it:
///
/// 1. in `trace.rs`, an `Instant::now()` outside the designated seams
///    (every timestamp must derive from the shared epoch inside the
///    enabled branch), and
/// 2. anywhere, an inline `Instant::now()` / `.elapsed()` in the argument
///    list of a `.record_at(..)` call — the read then happens even when the
///    sink is disabled; the stamp must come through the injectable seam.
fn clock_injection(ctx: &Ctx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if ctx.basename == "trace.rs" {
        for i in 0..ctx.tokens.len() {
            if ctx.is_instant_now(i) && !is_clock_seam(ctx.fn_name_at(i)) {
                out.push(ctx.diag(
                    i,
                    CLOCK_INJECTION,
                    "`Instant::now()` outside the trace module's clock seams: timestamps must \
                     derive from the sink's shared epoch behind the enabled check, or disabled \
                     tracing pays a clock read on the hot path"
                        .to_string(),
                    "derive the stamp from the epoch inside the enabled branch (`TraceSink::now`),\
                     or add this fn to the seam set with a `lint:allow(clock-injection, ..)`",
                ));
            }
        }
    }
    for i in 0..ctx.tokens.len() {
        if !(ctx.is_p(i, ".") && ctx.is_i(i + 1, "record_at") && ctx.is_p(i + 2, "(")) {
            continue;
        }
        if is_clock_seam(ctx.fn_name_at(i)) {
            continue;
        }
        let close = ctx.close_of_group(i + 2);
        for k in i + 3..close {
            let inline_clock = ctx.is_instant_now(k)
                || (ctx.is_p(k, ".") && ctx.is_i(k + 1, "elapsed") && ctx.is_p(k + 2, "("));
            if inline_clock {
                out.push(ctx.diag(
                    k,
                    CLOCK_INJECTION,
                    "inline clock read in a `record_at(..)` argument: the read happens even \
                     when the trace sink is disabled, breaking the zero-cost-when-disabled \
                     contract"
                        .to_string(),
                    "take the stamp through the injectable seam (e.g. a caller-held `trace.now()`\
                     value) or hoist the read behind an `is_enabled()` check",
                ));
            }
        }
    }
    out
}

fn is_clock_seam(name: Option<&str>) -> bool {
    matches!(name, Some(n) if CLOCK_SEAMS.contains(&n))
}

/// **panic-hygiene** — inside a `thread::spawn` closure body, `unwrap`,
/// `expect`, panicking macros, and `[..]`-indexing of channel results must
/// carry an inline `lint:allow(panic-hygiene, reason)`: a panic on a
/// pipeline thread is how the engine's poison propagation starts, so every
/// potential panic site must be visibly deliberate.
///
/// The rule is syntactically local: it inspects the spawn closure's own
/// body, not the functions it calls (those run under the same
/// `PanicGuard`, but their panics are owned by their own modules).
fn panic_hygiene(ctx: &Ctx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = ctx.tokens.len();
    for i in 0..n {
        if !(ctx.is_i(i, "thread")
            && ctx.is_p(i + 1, ":")
            && ctx.is_p(i + 2, ":")
            && ctx.is_i(i + 3, "spawn"))
        {
            continue;
        }
        if !ctx.is_p(i + 4, "(") {
            continue;
        }
        let call_close = ctx.close_of_group(i + 4);
        // Locate the closure body: `(move? |args| { body })` — fall back to
        // the whole argument list when no block follows the closure head.
        let mut j = i + 5;
        if ctx.is_i(j, "move") {
            j += 1;
        }
        let (start, end) = if ctx.is_p(j, "|") {
            let mut params_end = j + 1;
            while params_end < call_close && !ctx.is_p(params_end, "|") {
                params_end += 1;
            }
            if ctx.is_p(params_end + 1, "{") {
                let close = ctx.close_of_group(params_end + 1);
                (params_end + 2, close)
            } else {
                (params_end + 1, call_close)
            }
        } else {
            (i + 5, call_close)
        };
        scan_spawn_body(ctx, start, end, &mut out);
    }
    out
}

fn scan_spawn_body(ctx: &Ctx<'_>, start: usize, end: usize, out: &mut Vec<Diagnostic>) {
    let hint = "handle the failure on the pipeline thread, or mark the panic deliberate with \
                `// lint:allow(panic-hygiene, why this panic is the intended poison signal)`";
    for k in start..end {
        if ctx.is_p(k, ".") && ctx.is_p(k + 2, "(") {
            match ctx.ident(k + 1) {
                Some("unwrap") if ctx.is_p(k + 3, ")") => {
                    out.push(
                        ctx.diag(
                            k + 1,
                            PANIC_HYGIENE,
                            "`.unwrap()` inside a `thread::spawn` body: an implicit panic here \
                         poisons the whole pipeline without the intent being visible"
                                .to_string(),
                            hint,
                        ),
                    );
                }
                Some("expect") => {
                    out.push(
                        ctx.diag(
                            k + 1,
                            PANIC_HYGIENE,
                            "`.expect(..)` inside a `thread::spawn` body: an implicit panic here \
                         poisons the whole pipeline without the intent being visible"
                                .to_string(),
                            hint,
                        ),
                    );
                }
                _ => {}
            }
        }
        if ctx.is_p(k + 1, "!") {
            if let Some(mac) = ctx.ident(k) {
                if matches!(mac, "panic" | "unreachable" | "todo" | "unimplemented") {
                    out.push(ctx.diag(
                        k,
                        PANIC_HYGIENE,
                        format!(
                            "`{mac}!(..)` inside a `thread::spawn` body: an explicit panic must \
                             be annotated as the deliberate poison signal it is"
                        ),
                        hint,
                    ));
                }
            }
        }
        // `[..]` indexing into a channel result: scan the current statement
        // prefix for a recv-family call feeding the indexed expression.
        if ctx.is_p(k, "[") {
            let indexable_before = ctx.is_p(k.wrapping_sub(1), ")")
                || ctx.is_p(k.wrapping_sub(1), "]")
                || ctx.ident(k.wrapping_sub(1)).is_some();
            if indexable_before {
                let mut s = k;
                while s > start {
                    if ctx.is_p(s - 1, ";") || ctx.is_p(s - 1, "{") || ctx.is_p(s - 1, "}") {
                        break;
                    }
                    s -= 1;
                }
                let mut e = k;
                while e < end && !ctx.is_p(e, ";") && !ctx.is_p(e, "{") && !ctx.is_p(e, "}") {
                    e += 1;
                }
                let feeds_from_channel = (s..e)
                    .any(|t| matches!(ctx.ident(t), Some("recv" | "try_recv" | "recv_timeout")));
                if feeds_from_channel {
                    out.push(
                        ctx.diag(
                            k,
                            PANIC_HYGIENE,
                            "`[..]`-indexing a channel result inside a `thread::spawn` body: an \
                         out-of-range index panics the pipeline thread implicitly"
                                .to_string(),
                            hint,
                        ),
                    );
                }
            }
        }
    }
}

/// **bounded-send** — a plain `.send(..)` on a *bounded* channel sender
/// blocks forever when the receiver stops draining, which on a pipeline
/// thread is the stuck-shutdown class the command-deadline machinery exists
/// for. Senders are recognized lexically: the first binding of a
/// `let (tx, rx) = mpsc::sync_channel(..)` destructuring, and any binding
/// annotated with a `SyncSender` type (fn params, struct fields). Each
/// plain `.send(..)` through such a name needs either the non-blocking
/// variants (`try_send`, `send_timeout` — exempt by construction) or a
/// reasoned `lint:allow(bounded-send, ..)` arguing its drain story.
fn bounded_send(ctx: &Ctx<'_>) -> Vec<Diagnostic> {
    let mut bounded: Vec<String> = Vec::new();
    let n = ctx.tokens.len();
    for i in 0..n {
        // `let (tx, rx) = mpsc::sync_channel(..)`: walk back from the call
        // to the destructuring `let (` and take the tuple's first binding.
        if ctx.is_i(i, "sync_channel") {
            let mut j = i;
            while j > 0 {
                if ctx.is_i(j, "let") && ctx.is_p(j + 1, "(") {
                    if let Some(name) = ctx.ident(j + 2) {
                        bounded.push(name.to_string());
                    }
                    break;
                }
                if ctx.is_p(j, ";") || ctx.is_p(j, "{") || ctx.is_p(j, "}") {
                    break;
                }
                j -= 1;
            }
        }
        // `name: SyncSender<..>` / `name: &SyncSender<..>`: walk back over
        // the type path to the annotated binding.
        if ctx.is_i(i, "SyncSender") {
            let mut j = i;
            while j > 0 {
                let prev = j - 1;
                let skip = match ctx.tokens.get(prev) {
                    Some(t) if t.kind == TokenKind::Punct => {
                        matches!(t.text.as_str(), ":" | "&" | "<" | "'")
                    }
                    Some(t) if t.kind == TokenKind::Ident => {
                        matches!(t.text.as_str(), "mpsc" | "std" | "sync" | "Option" | "Arc")
                            || ctx.is_p(prev.wrapping_sub(1), "'")
                    }
                    _ => false,
                };
                if !skip {
                    break;
                }
                j = prev;
            }
            let Some(j) = j.checked_sub(1) else {
                continue;
            };
            if ctx.is_p(j + 1, ":") {
                if let Some(name) = ctx.ident(j) {
                    bounded.push(name.to_string());
                }
            }
        }
    }
    let mut out = Vec::new();
    for i in 0..n {
        if ctx.is_p(i + 1, ".") && ctx.is_i(i + 2, "send") && ctx.is_p(i + 3, "(") {
            if let Some(name) = ctx.ident(i) {
                if bounded.iter().any(|b| b == name) {
                    out.push(ctx.diag(
                        i + 2,
                        BOUNDED_SEND,
                        format!(
                            "plain `.send(..)` on bounded sender `{name}`: when the receiver \
                             stops draining, this blocks the pipeline thread forever — the \
                             stuck-shutdown class the retry/deadline machinery exists for"
                        ),
                        "use `try_send`/`send_timeout` with explicit failure handling, or \
                         annotate with `// lint:allow(bounded-send, why the receiver always \
                         drains)` stating the drain story",
                    ));
                }
            }
        }
    }
    out
}

/// The `ShardStats` counter fields whose writes must go through named
/// accessors. Identity fields (`shard`, `dead`) are not counters and are
/// out of scope.
const SHARDSTATS_COUNTERS: [&str; 10] = [
    "busy",
    "jobs",
    "query_items",
    "step3_jobs",
    "step3_items",
    "stolen_items",
    "peak_inflight",
    "faults",
    "retries",
    "failovers",
];

/// **shardstats-accessor** — `ShardStats` counter fields may only be
/// mutated through their named accessors; a direct `=`/`+=` (or any other
/// compound assignment) outside `metrics.rs` is a diagnostic. Funneling
/// every write through a named method keeps the accounting invariants —
/// which counter means what, who owns it, and when it is written — in one
/// reviewable place, so a new code path cannot silently skew the
/// `faults == retries` style cross-checks the fault suite asserts.
///
/// Receivers are recognized lexically: the identifier (or `[..]`-indexed
/// identifier) before the field access must contain `stats`
/// (case-insensitive), so `usage[shard].busy += w` on an unrelated struct
/// does not fire. Reads (`stats.jobs == 3`, `s.retries`) are untouched.
fn shardstats_accessor(ctx: &Ctx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // metrics.rs *is* the accessor module: the named methods' own field
    // writes (and the module's tests) live there by design.
    if ctx.basename == "metrics.rs" {
        return out;
    }
    let n = ctx.tokens.len();
    for i in 0..n {
        if !ctx.is_p(i, ".") {
            continue;
        }
        let Some(field) = ctx.ident(i + 1) else {
            continue;
        };
        if !SHARDSTATS_COUNTERS.contains(&field) {
            continue;
        }
        // A mutation is `field =` (but not `field ==`) or a compound
        // assignment `field op=`; puncts are single-char tokens.
        let op = if ctx.is_p(i + 2, "=") && !ctx.is_p(i + 3, "=") {
            "="
        } else if ["+", "-", "*", "/", "%", "|", "&", "^"]
            .iter()
            .any(|op| ctx.is_p(i + 2, op))
            && ctx.is_p(i + 3, "=")
        {
            "op="
        } else {
            continue;
        };
        // Walk back to the receiver identifier, skipping one `[..]` index
        // group (`shard_stats[i].retries = ..`).
        let mut j = i;
        if j > 0 && ctx.is_p(j - 1, "]") {
            let mut depth = 0i64;
            while j > 0 {
                j -= 1;
                if ctx.is_p(j, "]") {
                    depth += 1;
                } else if ctx.is_p(j, "[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
        }
        let Some(receiver) = j.checked_sub(1).and_then(|r| ctx.ident(r)) else {
            continue;
        };
        if !receiver.to_ascii_lowercase().contains("stats") {
            continue;
        }
        out.push(ctx.diag(
            i + 1,
            SHARDSTATS_ACCESSOR,
            format!(
                "direct `{op}` write to `ShardStats` counter field `{field}` (receiver \
                 `{receiver}`) outside `metrics.rs`: counter writes must go through the named \
                 accessors so the accounting invariants stay reviewable in one place"
            ),
            "route the write through the field's named accessor on `ShardStats` (adding one in \
             `metrics.rs` if missing), or annotate a deliberate exception with \
             `// lint:allow(shardstats-accessor, why this direct write is sound)`",
        ));
    }
    out
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
    fn poison_safety_fires_on_unwrap_and_expect() {
        let src = "fn f() { let g = m.lock().unwrap(); }";
        assert_eq!(rules_of(src), vec![POISON_SAFETY]);
        let src = "fn f() { let g = m.lock().expect(\"poisoned\"); }";
        assert_eq!(rules_of(src), vec![POISON_SAFETY]);
    }

    #[test]
    fn poison_safety_accepts_the_into_inner_idiom() {
        let src = "fn f() { let g = m.lock().unwrap_or_else(PoisonError::into_inner); }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }

    #[test]
    fn poison_safety_spans_lines_and_ignores_strings() {
        let src = "fn f() {\n    let g = m\n        .lock()\n        .unwrap();\n}";
        let d = diags(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 4, "diag lands on the unwrap line");
        let src = "fn f() { let s = \".lock().unwrap()\"; }";
        assert!(diags(src).is_empty());
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

    #[test]
    fn clock_injection_guards_trace_rs_seams() {
        let src = "impl S { fn bounded() { let e = Instant::now(); } fn hot(&self) { let t = Instant::now(); } }";
        let out = lint_source("crates/sched/src/trace.rs", src);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, CLOCK_INJECTION);
        // Same source under any other basename: no seam restriction.
        assert!(lint_source("other.rs", src).diagnostics.is_empty());
    }

    #[test]
    fn clock_injection_rejects_inline_reads_in_record_at() {
        let src = "fn hot(&self) { self.sink.record_at(Instant::now(), seq, kind); }";
        assert_eq!(rules_of(src), vec![CLOCK_INJECTION]);
        let src = "fn hot(&self) { self.sink.record_at(t0.elapsed(), seq, kind); }";
        assert_eq!(rules_of(src), vec![CLOCK_INJECTION]);
        // The convenience `record` seam wrapping `record_at` is the one
        // place an inline read is the design.
        let src = "fn record(&mut self) { self.record_at(Instant::now(), latency); }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
        // A caller-held stamp through the seam is the required idiom.
        let src = "fn hot(&self) { let at = self.sink.now(); self.sink.record_at(at, seq, kind); }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }

    #[test]
    fn panic_hygiene_fires_inside_spawn_bodies_only() {
        let src = "fn f() { thread::spawn(move || { let x = rx.recv().unwrap(); }); }";
        assert_eq!(rules_of(src), vec![PANIC_HYGIENE]);
        let src = "fn f() { thread::spawn(move || { panic!(\"boom\"); }); }";
        assert_eq!(rules_of(src), vec![PANIC_HYGIENE]);
        let src = "fn f() { let x = rx.recv().unwrap(); }";
        assert!(
            diags(src).is_empty(),
            "outside spawn bodies is other rules' business"
        );
    }

    #[test]
    fn panic_hygiene_flags_indexing_channel_results() {
        let src = "fn f() { thread::spawn(move || { let x = buf[rx.try_recv().unwrap_or(0)]; }); }";
        assert_eq!(rules_of(src), vec![PANIC_HYGIENE]);
        let src = "fn f() { thread::spawn(move || { let x = table[i]; }); }";
        assert!(
            diags(src).is_empty(),
            "plain indexing is not channel indexing"
        );
    }

    #[test]
    fn bounded_send_fires_on_sync_channel_tuple_binding() {
        let src = "fn f() { let (tx, rx) = mpsc::sync_channel::<u32>(4); tx.send(1); }";
        assert_eq!(rules_of(src), vec![BOUNDED_SEND]);
    }

    #[test]
    fn bounded_send_fires_on_sync_sender_typed_params_and_fields() {
        let src = "fn f(s1_tx: &SyncSender<Job>) { s1_tx.send(job); }";
        assert_eq!(rules_of(src), vec![BOUNDED_SEND]);
        let src = "struct S { tx: std::sync::mpsc::SyncSender<u32> }\nfn f(s: &S) { tx.send(1); }";
        assert_eq!(rules_of(src), vec![BOUNDED_SEND]);
    }

    #[test]
    fn bounded_send_exempts_nonblocking_variants_and_unbounded_senders() {
        let src = "fn f() { let (tx, rx) = mpsc::sync_channel::<u32>(4); tx.try_send(1); }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
        let src = "fn f() { let (tx, rx) = mpsc::sync_channel::<u32>(4); tx.send_timeout(1, t); }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
        // Unbounded `mpsc::channel` senders never block: out of scope.
        let src = "fn f() { let (tx, rx) = mpsc::channel::<u32>(); tx.send(1); }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
        // A `use` import of the type is not a binding.
        let src = "use std::sync::mpsc::SyncSender;\nfn f() { other.send(1); }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }

    #[test]
    fn bounded_send_allow_with_reason_suppresses() {
        let src = "fn f(s1_tx: &SyncSender<Job>) {\n    // lint:allow(bounded-send, the dispatcher drains until teardown)\n    s1_tx.send(job);\n}";
        let out = lint_source("test.rs", src);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.suppressed[0].rule, BOUNDED_SEND);
    }

    #[test]
    fn shardstats_accessor_fires_on_direct_counter_writes() {
        let src = "fn f(stats: &mut ShardStats) { stats.retries = 3; }";
        assert_eq!(rules_of(src), vec![SHARDSTATS_ACCESSOR]);
        let src = "fn f(stats: &mut ShardStats) { stats.jobs += 1; }";
        assert_eq!(rules_of(src), vec![SHARDSTATS_ACCESSOR]);
        let src = "fn f(shard_stats: &mut [ShardStats]) { shard_stats[i].query_items += 2; }";
        assert_eq!(rules_of(src), vec![SHARDSTATS_ACCESSOR]);
    }

    #[test]
    fn shardstats_accessor_spares_reads_accessors_and_other_structs() {
        // Comparisons and reads are not writes.
        let src = "fn f(stats: &ShardStats) { assert!(stats.retries == 3); let j = stats.jobs; }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
        // The named accessor is the required idiom.
        let src = "fn f(stats: &mut ShardStats) { stats.set_retries(3); }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
        // Same field name on a non-stats receiver (e.g. `DeviceUsage`).
        let src = "fn f(usage: &mut [DeviceUsage]) { usage[shard].busy += width; }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
        // Struct-literal construction is initialization, not mutation.
        let src = "fn f() -> ShardStats { ShardStats { jobs: served, ..ShardStats::default() } }";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }

    #[test]
    fn shardstats_accessor_exempts_metrics_rs_and_honors_allow() {
        let src = "impl ShardStats { pub fn set_retries(&mut self, n: u64) { self.retries = n; } }";
        assert!(
            lint_source("crates/sched/src/metrics.rs", src)
                .diagnostics
                .is_empty(),
            "the accessor module owns the field writes"
        );
        // `self` does not contain `stats`, so accessor bodies outside
        // metrics.rs are also out of reach of the lexical heuristic —
        // but a stats-named receiver elsewhere is not.
        let src = "fn f() {\n    // lint:allow(shardstats-accessor, teardown aggregation owns these counters)\n    stats.failovers = n;\n}";
        let out = lint_source("other.rs", src);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.suppressed[0].rule, SHARDSTATS_ACCESSOR);
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_recorded() {
        let src = "fn f() {\n    // lint:allow(poison-safety, the mutex under test is poisoned\n    // deliberately)\n    let g = m.lock().unwrap();\n}";
        let out = lint_source("test.rs", src);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.suppressed[0].rule, POISON_SAFETY);
        assert!(out.suppressed[0].reason.contains("deliberately"));
    }

    #[test]
    fn allow_same_line_suppresses() {
        let src = "fn f() { let g = m.lock().unwrap(); } // lint:allow(poison-safety, test-only)";
        let out = lint_source("test.rs", src);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert_eq!(out.suppressed.len(), 1);
    }

    #[test]
    fn allow_without_reason_is_a_diagnostic() {
        let src = "fn f() {\n    // lint:allow(poison-safety)\n    let g = m.lock().unwrap();\n}";
        let out = lint_source("test.rs", src);
        let rules: Vec<&str> = out.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&ALLOW_HYGIENE), "{rules:?}");
        assert!(
            rules.contains(&POISON_SAFETY),
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
        let src = "fn f() {\n    // lint:allow(panic-hygiene, wrong rule)\n    let g = m.lock().unwrap();\n}";
        let out = lint_source("test.rs", src);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, POISON_SAFETY);
        let src = "// lint:allow(poison-safety, too far away)\nfn a() {}\nfn f() { let g = m.lock().unwrap(); }";
        let out = lint_source("test.rs", src);
        assert_eq!(out.diagnostics.len(), 1);
    }

    #[test]
    fn doc_comments_neither_suppress_nor_trip_allow_hygiene() {
        // Docs *describing* the syntax must not parse as annotations…
        let src = "//! Write `lint:allow(rule-name, reason)` above the line.\nfn f() {}";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
        // …and must not suppress a real diagnostic either.
        let src = "fn f() {\n    /// lint:allow(poison-safety, docs are not annotations)\n    let g = m.lock().unwrap();\n}";
        let out = lint_source("test.rs", src);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, POISON_SAFETY);
        assert!(out.suppressed.is_empty());
    }

    #[test]
    fn nested_closures_and_raw_strings_do_not_confuse_the_rules() {
        let src = r##"
fn f() {
    let body = r#"thread::spawn(|| { x.unwrap(); })"#;
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
