//! The four whole-program analyses over a loaded [`Workspace`]:
//!
//! - **panic-reachability** — every fn reachable from the serving entry
//!   points (`handle_connection`, `run_model_thread` in `autoac-serve`)
//!   must be panic-free: no `.unwrap()`/`.expect()`, no `panic!`-family
//!   macros, no slice indexing without a visible guard on the same base
//!   in the same fn. Silenced per-site with `analyze:allow(panic, why)`.
//! - **env-contract** — every `AUTOAC_*` name in the workspace must be in
//!   the checked registry; every `env::var("AUTOAC_*")` read must sit in
//!   a fn that calls the registry's strict parser for that variable; when
//!   README.md/DESIGN.md exist at the root, every registry entry must be
//!   documented in them and must actually occur in code (no stale knobs).
//! - **rng-discipline** — no entropy sources (`OsRng`, `thread_rng`), no
//!   time-derived seeds, `StdRng::from_state` only in the sanctioned
//!   checkpoint-resume paths, and per-batch stream derivation only inside
//!   `batch_rng` (seeding from `epoch`/`batch` anywhere else is exactly
//!   the ad-hoc stream that silently breaks bitwise reproducibility).
//! - **unsafe-safety** — every `unsafe` occurrence needs an adjacent
//!   SAFETY comment (same line or up to three lines above; `/// # Safety`
//!   doc sections count) naming the invariant that makes it sound.
//!
//! Allow markers use `analyze:allow(rule, reason)`; the reason is
//! mandatory — a marker without one is itself reported — and every
//! accepted suppression is recorded in the output's `allowed` list so the
//! baseline documents each one.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;

use super::source::{FileKind, SourceFile, UnsafeKind};
use super::workspace::{FnId, Workspace};
use crate::diag::{Analysis, Diagnostic, Report};
use crate::lint;

/// Rule id for panic-reachability findings.
pub const RULE_PANIC: &str = "panic-reachability";
/// Rule id for env-var contract findings.
pub const RULE_ENV: &str = "env-contract";
/// Rule id for RNG-stream discipline findings.
pub const RULE_RNG: &str = "rng-discipline";
/// Rule id for the unsafe/SAFETY audit.
pub const RULE_UNSAFE: &str = "unsafe-safety";

/// Serving entry points the reachability pass starts from. `route()`
/// funnels every HTTP endpoint through `handle_connection`, and the model
/// thread consumes batches in `run_model_thread`; both live in
/// `autoac-serve`. A test in `tests/analyze_workspace.rs` asserts this
/// list stays in sync with the serve crate.
pub const SERVE_ENTRY_POINTS: &[&str] = &["handle_connection", "run_model_thread"];

/// The checked `AUTOAC_*` registry: variable name → the strict parser
/// every read site must go through.
pub const ENV_REGISTRY: &[(&str, &str)] = &[
    ("AUTOAC_CHECK", "parse_bool_env"),
    ("AUTOAC_FLIGHT", "parse_bool_env"),
    ("AUTOAC_NUM_THREADS", "parse_threads_env"),
    ("AUTOAC_OBS", "parse_bool_env"),
    ("AUTOAC_POOL", "parse_bool_env"),
    ("AUTOAC_SLOW_TESTS", "parse_bool_env"),
    ("AUTOAC_TRACE", "parse_bool_env"),
];

/// Files whose `StdRng::from_state` use is sanctioned (checkpoint-resume
/// restores a serialized stream; everywhere else must derive streams from
/// seeds so runs stay replayable from the config alone).
const FROM_STATE_SANCTIONED: &[&str] = &[
    "crates/core/src/search.rs",
    "crates/core/src/trainer.rs",
    "crates/core/src/infer.rs",
];

/// One accepted suppression, recorded for the baseline.
#[derive(Debug, Clone)]
pub struct AllowedFinding {
    /// Rule that would have fired.
    pub rule: &'static str,
    /// `file:line` of the suppressed site.
    pub location: String,
    /// The marker's justification text.
    pub reason: String,
}

/// Workspace-level counters, exported into the baseline so coverage
/// regressions (an entry point dropping out, the graph shrinking) show up
/// as a diff even when findings stay at zero.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Files loaded.
    pub files: usize,
    /// Fn definitions indexed.
    pub fns: usize,
    /// Call sites classified.
    pub call_sites: usize,
    /// Call sites resolved to a unique workspace def.
    pub resolved_edges: usize,
    /// Fns reachable from the serving entry points.
    pub reachable_fns: usize,
    /// `unsafe` occurrences audited.
    pub unsafe_sites: usize,
    /// `env::var("AUTOAC_*")` read sites checked.
    pub env_reads: usize,
}

/// Everything one `--analyze` run produces.
#[derive(Debug, Clone, Default)]
pub struct AnalysisOutput {
    /// Non-suppressed findings (lint rules + the four analyses).
    pub report: Report,
    /// Accepted suppressions with their reasons.
    pub allowed: Vec<AllowedFinding>,
    /// Entry points found, as `name @ file:line`.
    pub entry_points: Vec<String>,
    /// Ambiguous call names hit from reachable code → candidate count
    /// (the analyzer's explicit blind spots).
    pub ambiguous: BTreeMap<String, usize>,
    /// Coverage counters.
    pub stats: Stats,
}

impl AnalysisOutput {
    /// Deterministic pretty-JSON document (the `results/ANALYSIS.json`
    /// baseline format). Hand-rolled; strings are escaped minimally.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 1,\n");
        s.push_str(&format!("  \"summary\": {},\n", self.report.json_summary()));
        s.push_str("  \"findings\": [");
        for (i, d) in self.report.diagnostics.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"analysis\": \"{}\", \"rule\": \"{}\", \"location\": \"{}\", \"message\": \"{}\"}}",
                d.analysis.name(),
                d.rule,
                esc(&d.location),
                esc(&d.message)
            ));
        }
        s.push_str(if self.report.diagnostics.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"allowed\": [");
        for (i, a) in self.allowed.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"location\": \"{}\", \"reason\": \"{}\"}}",
                a.rule,
                esc(&a.location),
                esc(&a.reason)
            ));
        }
        s.push_str(if self.allowed.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"entry_points\": [");
        for (i, e) in self.entry_points.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!("    \"{}\"", esc(e)));
        }
        s.push_str(if self.entry_points.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"ambiguous_at_reachable_calls\": {");
        for (i, (name, n)) in self.ambiguous.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!("    \"{}\": {}", esc(name), n));
        }
        s.push_str(if self.ambiguous.is_empty() { "},\n" } else { "\n  },\n" });
        s.push_str(&format!(
            "  \"stats\": {{\"files\": {}, \"fns\": {}, \"call_sites\": {}, \"resolved_edges\": {}, \"reachable_fns\": {}, \"unsafe_sites\": {}, \"env_reads\": {}}}\n",
            self.stats.files,
            self.stats.fns,
            self.stats.call_sites,
            self.stats.resolved_edges,
            self.stats.reachable_fns,
            self.stats.unsafe_sites,
            self.stats.env_reads
        ));
        s.push_str("}\n");
        s
    }

    /// Human-readable rendering: findings (or a clean line) plus the
    /// coverage footer.
    pub fn render_text(&self) -> String {
        let mut out = self.report.render();
        out.push('\n');
        out.push_str(&format!(
            "entry points: {}\n",
            if self.entry_points.is_empty() { "NONE".into() } else { self.entry_points.join(", ") }
        ));
        out.push_str(&format!(
            "graph: {} fns, {}/{} calls resolved, {} reachable from serving; {} ambiguous name(s) at reachable calls\n",
            self.stats.fns,
            self.stats.resolved_edges,
            self.stats.call_sites,
            self.stats.reachable_fns,
            self.ambiguous.len()
        ));
        out.push_str(&format!(
            "audited: {} unsafe site(s), {} env read(s); {} allowed finding(s) with reasons",
            self.stats.unsafe_sites,
            self.stats.env_reads,
            self.allowed.len()
        ));
        out
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Loads `root` and runs the full analysis: migrated lint rules plus the
/// four whole-program analyses, all over one workspace load.
pub fn analyze_root(root: &Path) -> std::io::Result<AnalysisOutput> {
    let ws = Workspace::load(root)?;
    let mut out = analyze(&ws);
    // The migrated lint rules (library sources under crates/ only, same
    // scope as `autoac-lint` without --analyze).
    out.report.merge(lint::lint_workspace(&ws, root));
    Ok(out)
}

/// Runs the four whole-program analyses over a loaded workspace.
pub fn analyze(ws: &Workspace) -> AnalysisOutput {
    let mut out = AnalysisOutput::default();
    out.stats.files = ws.files.len();
    out.stats.fns = ws.fn_defs().count();
    out.stats.call_sites = ws.call_sites;
    out.stats.resolved_edges = ws.resolved_edges;

    panic_reachability(ws, &mut out);
    env_contract(ws, &mut out);
    rng_discipline(ws, &mut out);
    unsafe_audit(ws, &mut out);
    missing_reason_markers(ws, &mut out);
    out.report.inspected += ws.files.len();
    out
}

/// Emits a finding unless an `analyze:allow(rule, reason)` marker covers
/// the site; accepted suppressions are recorded with their reason.
fn emit(
    out: &mut AnalysisOutput,
    file: &SourceFile,
    analysis: Analysis,
    rule: &'static str,
    line: u32,
    message: String,
) {
    let location = format!("{}:{}", file.rel, line);
    if let Some(marker) = file.allow_for("analyze", rule, line) {
        if !marker.reason.is_empty() {
            out.allowed.push(AllowedFinding { rule, location, reason: marker.reason.clone() });
            return;
        }
        // Reason-less markers do not suppress; the marker itself is also
        // reported by `missing_reason_markers`.
    }
    out.report.push(Diagnostic { analysis, rule, message, location });
}

/// Every `analyze:allow` marker must carry a reason — a bare one is a
/// finding in its own right, so the allowlist stays self-documenting.
fn missing_reason_markers(ws: &Workspace, out: &mut AnalysisOutput) {
    for file in &ws.files {
        for m in &file.allows {
            if m.scheme == "analyze" && m.reason.is_empty() {
                out.report.push(Diagnostic {
                    analysis: Analysis::Env,
                    rule: "allow-missing-reason",
                    message: format!(
                        "`analyze:allow({})` without a reason; write `analyze:allow({}, why)`",
                        m.rule, m.rule
                    ),
                    location: format!("{}:{}", file.rel, m.line),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// 1. panic-reachability
// ---------------------------------------------------------------------

/// Macro names whose invocation is an unconditional panic.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Method names a guard on the indexed base can be recognized by.
const GUARD_METHODS: &[&str] = &["len", "get", "get_mut", "is_empty"];

fn panic_reachability(ws: &Workspace, out: &mut AnalysisOutput) {
    // Entry points: the named serving fns in the serve crate's libraries.
    let mut entries: Vec<FnId> = Vec::new();
    for (id, def) in ws.fn_defs() {
        let file = &ws.files[id.0];
        if file.krate == "serve"
            && file.file_kind == FileKind::Lib
            && SERVE_ENTRY_POINTS.contains(&def.name.as_str())
        {
            entries.push(id);
            out.entry_points.push(format!("{} @ {}:{}", def.name, file.rel, def.line));
        }
    }
    let has_serve = ws.files.iter().any(|f| f.krate == "serve");
    if has_serve {
        for want in SERVE_ENTRY_POINTS {
            if !out.entry_points.iter().any(|e| e.starts_with(&format!("{want} @"))) {
                out.report.push(Diagnostic {
                    analysis: Analysis::Panic,
                    rule: RULE_PANIC,
                    message: format!(
                        "serving entry point `{want}` not found in autoac-serve — the \
                         reachability pass no longer covers the request path it anchored"
                    ),
                    location: "crates/serve".into(),
                });
            }
        }
    }

    let reachable: BTreeSet<FnId> = ws.reachable(&entries);
    out.stats.reachable_fns = reachable.len();
    out.ambiguous = ws.ambiguous_from(&reachable);

    for &(fi, di) in &reachable {
        let file = &ws.files[fi];
        let def = &file.fns[di];
        let (a, b) = def.body;
        if b <= a {
            continue;
        }
        // Idents whose bounds are visibly checked somewhere in this fn.
        let mut guarded: HashSet<&str> = HashSet::new();
        for i in a..=b {
            if file.toks[i].kind != super::lexer::TokKind::Ident {
                continue;
            }
            if GUARD_METHODS.contains(&file.tok_text(i)) {
                if let Some(dot) = file.prev_code(i) {
                    if file.is_punct(dot, '.') {
                        if let Some(base) = file.prev_code(dot) {
                            if file.toks[base].kind == super::lexer::TokKind::Ident {
                                guarded.insert(file.tok_text(base));
                            }
                        }
                    }
                }
            }
        }
        for i in a..=b {
            let line = file.toks[i].line;
            match file.toks[i].kind {
                super::lexer::TokKind::Ident => {
                    let name = file.tok_text(i);
                    let next_open = file.next_code(i).filter(|&n| file.is_punct(n, '('));
                    let after_dot =
                        file.prev_code(i).is_some_and(|p| file.is_punct(p, '.'));
                    if after_dot && next_open.is_some() && (name == "unwrap" || name == "expect") {
                        emit(
                            out,
                            file,
                            Analysis::Panic,
                            RULE_PANIC,
                            line,
                            format!(
                                "`.{name}()` in `{}` is reachable from serving entry points; \
                                 propagate the error or handle it",
                                def.name
                            ),
                        );
                    } else if PANIC_MACROS.contains(&name)
                        && file.next_code(i).is_some_and(|n| file.is_punct(n, '!'))
                    {
                        emit(
                            out,
                            file,
                            Analysis::Panic,
                            RULE_PANIC,
                            line,
                            format!(
                                "`{name}!` in `{}` is reachable from serving entry points",
                                def.name
                            ),
                        );
                    }
                }
                super::lexer::TokKind::Punct if file.tok_text(i) == "[" => {
                    // Indexing: `expr[` where expr ends in an ident, `)`,
                    // or `]`. Skip when the base ident has a visible
                    // len/get/is_empty guard in this fn.
                    let Some(p) = file.prev_code(i) else { continue };
                    // `expr[..]` takes the full range and never panics.
                    if let Some(a) = file.next_code(i) {
                        if let Some(b) = file.next_code(a) {
                            if let Some(c) = file.next_code(b) {
                                if file.is_punct(a, '.')
                                    && file.is_punct(b, '.')
                                    && file.is_punct(c, ']')
                                {
                                    continue;
                                }
                            }
                        }
                    }
                    let base = if file.toks[p].kind == super::lexer::TokKind::Ident {
                        let t = file.tok_text(p);
                        // `for x in [a, b]`, `return [..]` — a keyword
                        // before `[` means array literal, not indexing.
                        if matches!(t, "in" | "as" | "return" | "else" | "match" | "if" | "move") {
                            continue;
                        }
                        Some(t)
                    } else if file.is_punct(p, ')') || file.is_punct(p, ']') {
                        None
                    } else {
                        continue; // type position, array literal, attribute…
                    };
                    if let Some(name) = base {
                        if guarded.contains(name) {
                            continue;
                        }
                    }
                    let shown = base.unwrap_or("<expr>");
                    emit(
                        out,
                        file,
                        Analysis::Panic,
                        RULE_PANIC,
                        line,
                        format!(
                            "unguarded index `{shown}[…]` in `{}` is reachable from serving \
                             entry points; bounds-check or use `.get()`",
                            def.name
                        ),
                    );
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. env-contract
// ---------------------------------------------------------------------

fn env_contract(ws: &Workspace, out: &mut AnalysisOutput) {
    let registry: BTreeMap<&str, &str> = ENV_REGISTRY.iter().copied().collect();
    let mut seen_names: BTreeSet<String> = BTreeSet::new();

    for file in &ws.files {
        let mut reported: HashSet<String> = HashSet::new();
        // The registry's own literals are not occurrences: a name only the
        // registry (and the docs) mention is a stale entry.
        let registry_def = registry_definition(file);
        for i in 0..file.toks.len() {
            match file.toks[i].kind {
                super::lexer::TokKind::Str | super::lexer::TokKind::RawStr
                    if !registry_def.is_some_and(|(a, b)| (a..=b).contains(&i)) =>
                {
                    for name in autoac_words(file.tok_text(i)) {
                        seen_names.insert(name.clone());
                        if !registry.contains_key(name.as_str())
                            && reported.insert(name.clone())
                        {
                            emit(
                                out,
                                file,
                                Analysis::Env,
                                RULE_ENV,
                                file.toks[i].line,
                                format!(
                                    "`{name}` is not in the checked env registry \
                                     (analyze::rules::ENV_REGISTRY); register it with a \
                                     strict parser or rename it"
                                ),
                            );
                        }
                    }
                }
                super::lexer::TokKind::Ident if file.is_ident(i, "var") => {
                    // `env::var("AUTOAC_X")` — check the read goes through
                    // the registered strict parser in the same fn.
                    let Some(p) = file.prev_code(i) else { continue };
                    if !file.is_punct(p, ':') {
                        continue;
                    }
                    let qual = file
                        .prev_code(p)
                        .and_then(|pp| file.prev_code(pp))
                        .filter(|&q| file.is_ident(q, "env"));
                    if qual.is_none() {
                        continue;
                    }
                    let Some(open) = file.next_code(i).filter(|&n| file.is_punct(n, '(')) else {
                        continue;
                    };
                    let Some(arg) = file.next_code(open) else { continue };
                    if file.toks[arg].kind != super::lexer::TokKind::Str {
                        continue;
                    }
                    let lit = file.tok_text(arg).trim_matches('"');
                    if !lit.starts_with("AUTOAC_") {
                        continue;
                    }
                    out.stats.env_reads += 1;
                    let Some(parser) = registry.get(lit) else { continue };
                    let fn_body = enclosing_fn_body(file, i);
                    let strict = fn_body.is_some_and(|(a, b)| {
                        (a..=b).any(|j| file.is_ident(j, parser))
                    });
                    if !strict {
                        emit(
                            out,
                            file,
                            Analysis::Env,
                            RULE_ENV,
                            file.toks[i].line,
                            format!(
                                "`{lit}` is read without its strict parser `{parser}` in the \
                                 same fn; loose parsing silently mis-reads typos"
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
    }

    // Docs cross-reference + staleness: only against the real repo root
    // (fixture trees carry no README/DESIGN and skip this).
    if ws.has_docs {
        for (name, _) in ENV_REGISTRY {
            if !contains_word_text(&ws.docs_text, name) {
                out.report.push(Diagnostic {
                    analysis: Analysis::Env,
                    rule: RULE_ENV,
                    message: format!(
                        "registered env var `{name}` is documented in neither README.md nor \
                         DESIGN.md"
                    ),
                    location: "README.md".into(),
                });
            }
            if !seen_names.contains(*name) {
                out.report.push(Diagnostic {
                    analysis: Analysis::Env,
                    rule: RULE_ENV,
                    message: format!(
                        "registered env var `{name}` never occurs in the workspace — stale \
                         registry entry"
                    ),
                    location: "crates/check/src/analyze/rules.rs".into(),
                });
            }
        }
    }
}

/// Token range of the `const ENV_REGISTRY … ;` item, if `file` defines it.
fn registry_definition(file: &SourceFile) -> Option<(usize, usize)> {
    let start = (0..file.toks.len()).find(|&i| {
        file.is_ident(i, "ENV_REGISTRY")
            && file.prev_code(i).is_some_and(|p| file.is_ident(p, "const"))
    })?;
    let end = (start..file.toks.len()).find(|&j| file.is_punct(j, ';'))?;
    Some((start, end))
}

/// `AUTOAC_*` words inside a string literal's text.
fn autoac_words(lit: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = lit.as_bytes();
    let mut i = 0;
    while let Some(pos) = lit[i..].find("AUTOAC_") {
        let at = i + pos;
        let before_ok = at == 0
            || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let mut end = at + "AUTOAC_".len();
        while end < lit.len()
            && (bytes[end].is_ascii_uppercase() || bytes[end].is_ascii_digit() || bytes[end] == b'_')
        {
            end += 1;
        }
        let name = lit[at..end].trim_end_matches('_');
        if before_ok && name.len() > "AUTOAC_".len() {
            out.push(name.to_string());
        }
        i = end;
    }
    out
}

fn contains_word_text(text: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = text[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= text.len()
            || !text[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len().max(1);
    }
    false
}

/// Smallest fn body containing token `i`.
fn enclosing_fn_body(file: &SourceFile, i: usize) -> Option<(usize, usize)> {
    file.fns
        .iter()
        .filter(|d| d.body.0 <= i && i <= d.body.1 && d.body.1 > d.body.0)
        .map(|d| d.body)
        .min_by_key(|(a, b)| b - a)
}

/// Name of the smallest fn containing token `i`.
fn enclosing_fn_name<'a>(file: &'a SourceFile, i: usize) -> Option<&'a str> {
    file.fns
        .iter()
        .filter(|d| d.body.0 <= i && i <= d.body.1 && d.body.1 > d.body.0)
        .min_by_key(|d| d.body.1 - d.body.0)
        .map(|d| d.name.as_str())
}

// ---------------------------------------------------------------------
// 3. rng-discipline
// ---------------------------------------------------------------------

fn rng_discipline(ws: &Workspace, out: &mut AnalysisOutput) {
    for file in &ws.files {
        let resume_ok = FROM_STATE_SANCTIONED.iter().any(|s| file.rel.ends_with(s))
            || file.rel.starts_with("crates/ckpt/")
            || matches!(file.file_kind, FileKind::Test | FileKind::Bench);
        for i in 0..file.toks.len() {
            if file.toks[i].kind != super::lexer::TokKind::Ident {
                continue;
            }
            let line = file.toks[i].line;
            match file.tok_text(i) {
                name @ ("OsRng" | "thread_rng") => {
                    emit(
                        out,
                        file,
                        Analysis::Rng,
                        RULE_RNG,
                        line,
                        format!(
                            "`{name}` draws OS entropy — even in tests this breaks bitwise \
                             reproducibility; use `StdRng::seed_from_u64` with a fixed seed"
                        ),
                    );
                }
                "from_state" => {
                    let qualified_stdrng = file
                        .prev_code(i)
                        .filter(|&p| file.is_punct(p, ':'))
                        .and_then(|p| file.prev_code(p))
                        .and_then(|pp| file.prev_code(pp))
                        .is_some_and(|q| file.is_ident(q, "StdRng"));
                    if qualified_stdrng && !resume_ok {
                        emit(
                            out,
                            file,
                            Analysis::Rng,
                            RULE_RNG,
                            line,
                            "`StdRng::from_state` outside the sanctioned checkpoint-resume \
                             paths; derive streams from seeds so runs replay from config alone"
                                .into(),
                        );
                    }
                }
                "seed_from_u64" => {
                    let Some(open) = file.next_code(i).filter(|&n| file.is_punct(n, '(')) else {
                        continue;
                    };
                    let args = balanced_paren_range(file, open);
                    let mut time_based = false;
                    let mut stream_idents = false;
                    for j in args.0..=args.1 {
                        if file.toks[j].kind != super::lexer::TokKind::Ident {
                            continue;
                        }
                        match file.tok_text(j) {
                            "SystemTime" | "Instant" | "now" | "elapsed" => time_based = true,
                            "epoch" | "batch" => stream_idents = true,
                            _ => {}
                        }
                    }
                    if time_based {
                        emit(
                            out,
                            file,
                            Analysis::Rng,
                            RULE_RNG,
                            line,
                            "time-derived RNG seed; seeds must come from config so runs are \
                             replayable"
                                .into(),
                        );
                    } else if stream_idents && enclosing_fn_name(file, i) != Some("batch_rng") {
                        emit(
                            out,
                            file,
                            Analysis::Rng,
                            RULE_RNG,
                            line,
                            "per-batch stream derived ad hoc from epoch/batch; use \
                             `core::sampler::batch_rng` — the one sanctioned batch-stream \
                             constructor"
                                .into(),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// Token range strictly inside the paren opened at `open` (inclusive
/// bounds; empty call → `(open+1, open)`).
fn balanced_paren_range(file: &SourceFile, open: usize) -> (usize, usize) {
    let mut depth = 0usize;
    for i in open..file.toks.len() {
        if file.is_punct(i, '(') {
            depth += 1;
        } else if file.is_punct(i, ')') {
            depth -= 1;
            if depth == 0 {
                return (open + 1, i.saturating_sub(1));
            }
        }
    }
    (open + 1, file.toks.len().saturating_sub(1))
}

// ---------------------------------------------------------------------
// 4. unsafe-safety
// ---------------------------------------------------------------------

fn unsafe_audit(ws: &Workspace, out: &mut AnalysisOutput) {
    for file in &ws.files {
        if file.unsafe_sites.is_empty() {
            continue;
        }
        // Lines covered by a comment mentioning "safety" (case-insensitive
        // — `// SAFETY:` and `/// # Safety` both count).
        let mut safety_lines: BTreeSet<u32> = BTreeSet::new();
        for (i, t) in file.toks.iter().enumerate() {
            if !matches!(
                t.kind,
                super::lexer::TokKind::LineComment | super::lexer::TokKind::BlockComment
            ) {
                continue;
            }
            let text = file.tok_text(i);
            if text.to_ascii_lowercase().contains("safety") {
                let lines = text.matches('\n').count() as u32;
                for l in t.line..=t.line + lines {
                    safety_lines.insert(l);
                }
            }
        }
        for site in &file.unsafe_sites {
            let covered = (site.line.saturating_sub(3)..=site.line)
                .any(|l| safety_lines.contains(&l));
            if covered {
                continue;
            }
            let what = match site.kind {
                UnsafeKind::Block => "unsafe block",
                UnsafeKind::Fn => "unsafe fn",
                UnsafeKind::Impl => "unsafe impl",
                UnsafeKind::Trait => "unsafe trait",
            };
            emit(
                out,
                file,
                Analysis::Unsafe,
                RULE_UNSAFE,
                site.line,
                format!(
                    "{what} without an adjacent SAFETY comment; state the invariant that \
                     makes it sound (`// SAFETY: …`)"
                ),
            );
        }
        out.stats.unsafe_sites += file.unsafe_sites.len();
    }
}
