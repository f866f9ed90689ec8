//! Source lint enforcing project invariants over the crates' library
//! sources. Since the `analyze` layer landed, every rule runs on the
//! token stream ([`crate::analyze::lexer`]) and the brace-matched item
//! tree ([`crate::analyze::source`]) — string literals, comments, and
//! char literals can never leak patterns into the rules or desync the
//! structure tracking, which was the documented limit of the old
//! line-stripping scanner.
//!
//! Rules:
//!
//! - **op-gradcheck-coverage** — every `pub fn` op in
//!   `crates/tensor/src/ops/` must be exercised by name in
//!   `crates/tensor/tests/gradcheck.rs`. New ops without a gradient test are
//!   exactly how silent autograd bugs ship.
//! - **raw-alloc-in-hotpath** — no `Matrix::from_vec` in hot-path modules
//!   (`crates/tensor/src/ops/`, `optim.rs`, `autograd.rs`, `sparse.rs`).
//!   `Matrix::zeros` is pool-backed in this codebase, so the constructor
//!   that actually escapes the recycler is `from_vec` (an adopted `Vec` is
//!   almost never bucket-shaped); hot paths must use
//!   `Matrix::from_slice`/`full`/`zeros` instead.
//! - **unwrap-in-lib** — no `.unwrap()` in library code outside tests
//!   (binaries under `src/bin/` are application code and exempt). Library
//!   failures must carry context via `expect` or propagate.
//! - **instant-in-kernel-loop** — no `Instant::now` inside a loop in
//!   `crates/tensor/src/` or `crates/obs/src/`: timing calls inside kernel
//!   inner loops perturb exactly the code being measured. The only
//!   sanctioned home for raw timing is the span machinery itself
//!   (`crates/obs/src/span.rs`), which is exempt.
//! - **eprintln-in-lib** — no bare `eprintln!` in library crates: stderr
//!   diagnostics must go through `autoac_obs::warn`, which prints the same
//!   line *and* counts/exports it. The obs crate itself
//!   (`crates/obs/src/`) is exempt — it is where the routing lives.
//! - **dispatch-parity-coverage** — every `*_scalar` / `*_blocked` kernel
//!   fn in `crates/tensor/src/ops/microkernel.rs` must be named in the
//!   parity harness (`crates/tensor/tests/kernel_parity.rs`). A kernel the
//!   harness never names is one whose bitwise-equality contract nothing
//!   checks. The rule fails closed: a tree with the harness but no kernels
//!   in that file (moved, renamed, or deleted) is itself a finding.
//!
//! A finding can be silenced with a `lint:allow(<rule>)` marker (in a
//! comment) on the same or the preceding line; the allowlist is meant to be
//! rare and always accompanied by a justification.

use std::path::Path;

use crate::analyze::lexer::TokKind;
use crate::analyze::source::{FileKind, SourceFile};
use crate::analyze::workspace::Workspace;
use crate::diag::{Analysis, Diagnostic, Report};

/// Rule identifiers, shared between findings and `lint:allow(...)` markers.
const RULE_UNWRAP: &str = "unwrap-in-lib";
const RULE_RAW_ALLOC: &str = "raw-alloc-in-hotpath";
const RULE_INSTANT: &str = "instant-in-kernel-loop";
const RULE_GRADCHECK: &str = "op-gradcheck-coverage";
const RULE_EPRINTLN: &str = "eprintln-in-lib";
const RULE_DISPATCH_PARITY: &str = "dispatch-parity-coverage";

/// True when `needle` occurs in `text` delimited by non-identifier chars.
/// Used for coverage checks against the gradcheck/parity harness *text*
/// (a mention in a string or comment counts as coverage, by design — the
/// harnesses name kernels inside `check("…")` calls).
fn contains_word(text: &str, needle: &str) -> bool {
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

/// True for modules where every per-iteration allocation must recycle.
fn is_hotpath(rel: &str) -> bool {
    rel.contains("crates/tensor/src/ops/")
        || rel.ends_with("crates/tensor/src/optim.rs")
        || rel.ends_with("crates/tensor/src/autograd.rs")
        || rel.ends_with("crates/tensor/src/sparse.rs")
}

/// Crate dir name from a repo-relative path (`crates/x/src/lib.rs` → `x`).
fn krate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("autoac")
}

/// Scans one file's text and returns its findings. `rel` is the
/// repo-relative path used for rule selection and locations.
pub fn scan_source(rel: &str, text: &str, gradcheck_text: &str) -> Report {
    let file = SourceFile::parse(rel, krate_of(rel), FileKind::Lib, text.to_string());
    scan_file(&file, gradcheck_text)
}

/// Token-stream rule pass over one parsed library file.
pub(crate) fn scan_file(file: &SourceFile, gradcheck_text: &str) -> Report {
    let rel = &file.rel;
    let hotpath = is_hotpath(rel);
    let timing_scope = rel.contains("crates/tensor/src/")
        || (rel.contains("crates/obs/src/") && !rel.ends_with("span.rs"));
    let obs_crate = rel.contains("crates/obs/src/");
    let ops_file = rel.contains("crates/tensor/src/ops/") && !rel.ends_with("mod.rs");

    let mut report = Report::new();
    let mut diag = |rule: &'static str, line: u32, message: String| {
        report.push(Diagnostic {
            analysis: Analysis::Lint,
            rule,
            message,
            location: format!("{rel}:{line}"),
        });
    };

    for i in 0..file.toks.len() {
        if file.toks[i].kind != TokKind::Ident || file.in_test_region(i) {
            continue;
        }
        let line = file.toks[i].line;
        let allowed = |rule: &str| file.allow_for("lint", rule, line).is_some();
        match file.tok_text(i) {
            "unwrap" => {
                let method_call = file.prev_code(i).is_some_and(|p| file.is_punct(p, '.'))
                    && file.next_code(i).is_some_and(|n| file.is_punct(n, '('));
                if method_call && !allowed(RULE_UNWRAP) {
                    diag(
                        RULE_UNWRAP,
                        line,
                        "`.unwrap()` in library code; use `expect` with context or propagate"
                            .into(),
                    );
                }
            }
            "Matrix" if hotpath => {
                if qualified_by(file, i, "from_vec")
                    && !allowed(RULE_RAW_ALLOC)
                {
                    diag(
                        RULE_RAW_ALLOC,
                        line,
                        "raw `Matrix::from_vec` allocation in a pooled hot path; \
                         use `Matrix::from_slice`/`full`/`zeros` (pool-backed) instead"
                            .into(),
                    );
                }
            }
            "Instant" if timing_scope => {
                if qualified_by(file, i, "now") && file.in_loop(i) && !allowed(RULE_INSTANT) {
                    diag(
                        RULE_INSTANT,
                        line,
                        "`Instant::now` inside a kernel loop perturbs the code being measured; \
                         hoist timing out of the loop (raw timing is sanctioned only inside \
                         the obs span internals, crates/obs/src/span.rs)"
                            .into(),
                    );
                }
            }
            "eprintln" if !obs_crate => {
                if file.next_code(i).is_some_and(|n| file.is_punct(n, '!'))
                    && !allowed(RULE_EPRINTLN)
                {
                    diag(
                        RULE_EPRINTLN,
                        line,
                        "bare `eprintln!` in library code; route it through `autoac_obs::warn` \
                         so the message is also counted and exported"
                            .into(),
                    );
                }
            }
            _ => {}
        }
    }

    if ops_file {
        for def in &file.fns {
            if !def.is_pub || def.in_test || contains_word(gradcheck_text, &def.name) {
                continue;
            }
            if file.allow_for("lint", RULE_GRADCHECK, def.line).is_some() {
                continue;
            }
            diag(
                RULE_GRADCHECK,
                def.line,
                format!(
                    "op `{}` has no gradcheck coverage \
                     (crates/tensor/tests/gradcheck.rs never mentions it)",
                    def.name
                ),
            );
        }
    }

    report.inspected = 1;
    report
}

/// True when ident token `i` starts the path `Name::member(` for the given
/// member (the `(` is not required — `Instant::now` may be passed as a
/// fn pointer, and the old scanner matched it bare as well).
fn qualified_by(file: &SourceFile, i: usize, member: &str) -> bool {
    let Some(c1) = file.next_code(i) else { return false };
    if !file.is_punct(c1, ':') {
        return false;
    }
    let Some(c2) = file.next_code(c1) else { return false };
    if !file.is_punct(c2, ':') {
        return false;
    }
    file.next_code(c2).is_some_and(|m| file.is_ident(m, member))
}

/// The kernels file whose `*_scalar` / `*_blocked` fns the
/// dispatch-parity-coverage rule checks.
const KERNELS_REL: &str = "crates/tensor/src/ops/microkernel.rs";
/// The parity harness that must name every kernel.
const PARITY_REL: &str = "crates/tensor/tests/kernel_parity.rs";

fn parse_kernels(text: &str) -> SourceFile {
    SourceFile::parse(KERNELS_REL, "tensor", FileKind::Lib, text.to_string())
}

/// The kernel registry: every non-test fn in a kernels file named
/// `*_scalar` or `*_blocked`, with its line, in definition order.
fn registry_of(file: &SourceFile) -> Vec<(String, u32)> {
    file.fns
        .iter()
        .filter(|d| !d.in_test && (d.name.ends_with("_scalar") || d.name.ends_with("_blocked")))
        .map(|d| (d.name.clone(), d.line))
        .collect()
}

/// The dispatch-parity-coverage rule over in-memory texts: every kernel in
/// `kernels_text` (see [`registry_of`]) must occur (word-delimited) in
/// `parity_text`. A missing kernels file (`None`) or one defining no
/// kernels is a finding, so moving the kernels cannot switch the rule off.
/// Split out from the root-level check for direct unit testing.
pub fn scan_dispatch_parity(kernels_text: Option<&str>, parity_text: &str) -> Report {
    let mut report = Report::new();
    let file = parse_kernels(kernels_text.unwrap_or_default());
    let variants = registry_of(&file);
    if variants.is_empty() {
        report.push(Diagnostic {
            analysis: Analysis::Lint,
            rule: RULE_DISPATCH_PARITY,
            message: format!(
                "kernel registry missing: {KERNELS_REL} defines no `*_scalar`/`*_blocked` \
                 kernels for {PARITY_REL} to cover"
            ),
            location: KERNELS_REL.to_string(),
        });
        return report;
    }
    for (name, line) in variants {
        if contains_word(parity_text, &name)
            || file.allow_for("lint", RULE_DISPATCH_PARITY, line).is_some()
        {
            continue;
        }
        report.push(Diagnostic {
            analysis: Analysis::Lint,
            rule: RULE_DISPATCH_PARITY,
            message: format!("kernel `{name}` is never exercised in {PARITY_REL}"),
            location: format!("{KERNELS_REL}:{line}"),
        });
    }
    report
}

/// Runs every lint rule over a loaded workspace's library sources under
/// `crates/` (bins, tests, and benches are exempt, as is the root
/// package). `root` is only used to read the coverage harnesses when the
/// workspace didn't load them (missing files degrade to empty coverage).
pub fn lint_workspace(ws: &Workspace, root: &Path) -> Report {
    let text_of = |rel: &str| -> Option<&str> {
        ws.files.iter().find(|f| f.rel == rel).map(|f| f.text.as_str())
    };
    let gradcheck_owned;
    let gradcheck_text = match text_of("crates/tensor/tests/gradcheck.rs") {
        Some(t) => t,
        None => {
            gradcheck_owned = std::fs::read_to_string(root.join("crates/tensor/tests/gradcheck.rs"))
                .unwrap_or_default();
            &gradcheck_owned
        }
    };

    let mut report = Report::new();
    for file in &ws.files {
        if file.file_kind != FileKind::Lib || !file.rel.starts_with("crates/") {
            continue;
        }
        report.merge(scan_file(file, gradcheck_text));
    }
    // Inert only for trees with neither side (e.g. the analyze fixtures):
    // a harness without kernels, or kernels without a harness, report.
    let (kernels_text, parity_text) = (text_of(KERNELS_REL), text_of(PARITY_REL));
    if kernels_text.is_some() || parity_text.is_some() {
        report.merge(scan_dispatch_parity(kernels_text, parity_text.unwrap_or_default()));
    }
    report
}

/// Lints every library source under `root/crates/*/src/` against all rules.
/// `root` is a repository layout root — the fixture tests point this at a
/// directory mirroring the layout with seeded violations.
pub fn lint_root(root: &Path) -> Report {
    if !root.join("crates").is_dir() {
        let mut report = Report::new();
        report.push(Diagnostic {
            analysis: Analysis::Lint,
            rule: "bad-root",
            message: format!("{} has no crates/ directory", root.display()),
            location: String::new(),
        });
        return report;
    }
    match Workspace::load(root) {
        Ok(ws) => lint_workspace(&ws, root),
        Err(e) => {
            let mut report = Report::new();
            report.push(Diagnostic {
                analysis: Analysis::Lint,
                rule: "bad-root",
                message: format!("failed to load {}: {e}", root.display()),
                location: String::new(),
            });
            report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_patterns_inside_string_literals_never_fire() {
        // Pinned regression: a rule pattern inside ANY string literal —
        // ordinary, raw, hash-delimited raw, or raw-byte — must not reach
        // the rule scanner. The pre-fix scanner treated `\` inside raw
        // strings as an escape and `"` inside `r#"…"#` as a terminator,
        // so patterns leaked out (false positives) or real code after a
        // backslash-final raw string was swallowed (false negatives).
        // This test is written against the public `scan_source` entry so
        // it keeps guarding the behavior across scanner rewrites.
        for text in [
            "fn f() -> String { \"x.unwrap()\".into() }\n",
            "fn f() -> String { r\"x.unwrap()\".into() }\n",
            "fn f() -> &'static str { r#\"say \"hi\" then .unwrap()\"# }\n",
            "fn f() -> &'static [u8] { br#\"eprintln!(\"boom\") and .unwrap()\"# }\n",
        ] {
            let report = scan_source("crates/x/src/lib.rs", text, "");
            assert!(report.is_clean(), "false positive on {text:?}:\n{}", report.render());
        }
        // A backslash-final raw string must not desync the scanner into
        // hiding the real violation on the same line.
        let text = "fn f(&self) { let _p = r\"C:\\\"; self.0.unwrap(); }\n";
        let report = scan_source("crates/x/src/lib.rs", text, "");
        assert_eq!(report.diagnostics.len(), 1, "hidden violation:\n{}", report.render());
        assert_eq!(report.diagnostics[0].rule, RULE_UNWRAP);
    }

    #[test]
    fn unwrap_in_lib_code_is_flagged_but_tests_and_allows_are_not() {
        let text = "\
impl X {
    fn f(&self) {
        self.0.unwrap();
    }
    fn g(&self) {
        self.0.unwrap(); // lint:allow(unwrap) — infallible by construction
    }
}

#[cfg(test)]
mod tests {
    fn t() {
        x.unwrap();
    }
}
";
        let report = scan_source("crates/x/src/lib.rs", text, "");
        let findings: Vec<_> = report.diagnostics.iter().map(|d| &d.location).collect();
        assert_eq!(findings.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(findings[0], "crates/x/src/lib.rs:3");
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        // The old scanner matched the literal `.unwrap()`; the token rule
        // must be exactly as precise about neighboring method names.
        let text = "fn f() { x.lock().unwrap_or_else(|p| p.into_inner()); }\n";
        assert!(scan_source("crates/x/src/lib.rs", text, "").is_clean());
    }

    #[test]
    fn raw_alloc_only_flagged_in_hotpath_modules() {
        let text = "fn f() { let m = Matrix::from_vec(1, 1, vec![0.0]); }\n";
        assert_eq!(scan_source("crates/tensor/src/ops/arith.rs", text, "").diagnostics.len(), 1);
        assert_eq!(scan_source("crates/data/src/loader.rs", text, "").diagnostics.len(), 0);
    }

    #[test]
    fn instant_flagged_only_inside_loops_of_kernel_crate() {
        let inside = "fn f() {\n    for i in 0..n {\n        let t = Instant::now();\n    }\n}\n";
        let outside = "fn f() {\n    let t = Instant::now();\n    for i in 0..n {}\n}\n";
        assert_eq!(scan_source("crates/tensor/src/matrix.rs", inside, "").diagnostics.len(), 1);
        assert_eq!(scan_source("crates/tensor/src/matrix.rs", outside, "").diagnostics.len(), 0);
        assert_eq!(scan_source("crates/core/src/trainer.rs", inside, "").diagnostics.len(), 0);
    }

    #[test]
    fn impl_trait_for_type_is_not_a_loop() {
        // `impl Iterator for Chunks { … }` — the old line scanner saw the
        // word `for` and treated the impl body as a loop, so an
        // `Instant::now` in a trait method was misflagged.
        let text = "\
impl Iterator for Chunks {
    fn next(&mut self) -> Option<()> {
        let t = Instant::now();
        None
    }
}
";
        assert_eq!(
            scan_source("crates/tensor/src/matrix.rs", text, "").diagnostics.len(),
            0,
            "impl-for is not a loop"
        );
    }

    #[test]
    fn instant_rule_covers_obs_except_span_internals() {
        let inside = "fn f() {\n    for i in 0..n {\n        let t = Instant::now();\n    }\n}\n";
        assert_eq!(scan_source("crates/obs/src/hist.rs", inside, "").diagnostics.len(), 1);
        assert_eq!(scan_source("crates/obs/src/span.rs", inside, "").diagnostics.len(), 0);
    }

    #[test]
    fn eprintln_flagged_in_lib_but_not_in_obs_tests_or_allows() {
        let text = "\
fn f() {
    eprintln!(\"boom\");
    eprintln!(\"fine\"); // lint:allow(eprintln) — CLI-facing usage text
}

#[cfg(test)]
mod tests {
    fn t() {
        eprintln!(\"test-only\");
    }
}
";
        let report = scan_source("crates/core/src/search.rs", text, "");
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].rule, RULE_EPRINTLN);
        assert_eq!(report.diagnostics[0].location, "crates/core/src/search.rs:2");
        // The obs crate is the router and therefore exempt.
        assert_eq!(scan_source("crates/obs/src/metrics.rs", text, "").diagnostics.len(), 0);
    }

    #[test]
    fn dispatch_parity_flags_uncovered_variants_with_word_boundaries() {
        let kernels = "\
/// kernels
pub(crate) fn foo_scalar() {}
pub(crate) fn foo_blocked() {}
pub(crate) fn foo_helper() {}

#[cfg(test)]
mod tests {
    fn bar_scalar() {}
}
";
        assert_eq!(registry_names(kernels), ["foo_scalar", "foo_blocked"]);
        // `foo_scalar_x` is not word-delimited coverage of `foo_scalar`.
        let report =
            scan_dispatch_parity(Some(kernels), "run(foo_scalar_x); check(\"foo_blocked\");");
        assert_eq!(report.diagnostics.len(), 1, "{}", report.render());
        assert_eq!(report.diagnostics[0].rule, RULE_DISPATCH_PARITY);
        assert_eq!(report.diagnostics[0].location, "crates/tensor/src/ops/microkernel.rs:2");
        // Covered both ways -> clean.
        assert!(scan_dispatch_parity(Some(kernels), "foo_scalar foo_blocked").is_clean());
    }

    fn registry_names(kernels_text: &str) -> Vec<String> {
        registry_of(&parse_kernels(kernels_text)).into_iter().map(|(n, _)| n).collect()
    }

    #[test]
    fn parity_rule_reads_the_real_kernel_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../tensor/src/ops/microkernel.rs");
        let text = std::fs::read_to_string(path).expect("the kernels file the parity rule reads");
        assert_eq!(
            registry_names(&text),
            [
                "matmul_scalar",
                "matmul_blocked",
                "matmul_tn_scalar",
                "matmul_tn_blocked",
                "matmul_nt_scalar",
                "matmul_nt_blocked",
                "spmm_scalar",
                "spmm_blocked",
            ]
        );
    }

    #[test]
    fn dispatch_parity_fails_closed_without_a_kernel_registry() {
        // A harness with no kernels file, or a kernels file that defines
        // no `*_scalar`/`*_blocked` fns, is one finding naming the
        // missing registry — never a silent pass.
        for kernels in [None, Some("pub fn f() {}")] {
            let report = scan_dispatch_parity(kernels, "matmul_scalar matmul_blocked");
            assert_eq!(report.diagnostics.len(), 1, "{}", report.render());
            let d = &report.diagnostics[0];
            assert_eq!(d.rule, RULE_DISPATCH_PARITY);
            assert!(d.message.contains("registry missing"), "{}", d.message);
            assert!(d.message.contains("crates/tensor/src/ops/microkernel.rs"), "{}", d.message);
        }
    }

    #[test]
    fn gradcheck_coverage_uses_word_boundaries() {
        let ops = "impl T {\n    pub fn sum(&self) {}\n    pub fn sum_rows(&self) {}\n}\n";
        // A call to `sum_rows` does NOT count as coverage for `sum`.
        let report = scan_source("crates/tensor/src/ops/reduce.rs", ops, "let s = t.sum_rows();");
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert!(report.diagnostics[0].message.contains("`sum`"));
    }
}
