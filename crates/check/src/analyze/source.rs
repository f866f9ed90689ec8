//! Per-file structural model over the token stream: a brace-matched item
//! tree (modules, fns, impls/traits, loops, unsafe sites) plus the
//! allow-marker index.
//!
//! The tree is approximate in the ways a hand-rolled analyzer must be —
//! it tracks brace pairing and a small pending-item state machine rather
//! than parsing full Rust — but because it runs on *typed tokens*, braces
//! in strings, chars, or comments can never desync it, which was the
//! fundamental limit of the old line scanner.

use super::lexer::{lex, TokKind};

/// A token with owned span indices into the file text (the borrow-free
/// sibling of [`super::lexer::Tok`], so files can own text and tokens
/// together).
#[derive(Debug, Clone, Copy)]
pub struct STok {
    /// Token classification.
    pub kind: TokKind,
    /// Byte range in the file text.
    pub start: usize,
    /// End of the byte range.
    pub end: usize,
    /// 1-based line of the token's first byte.
    pub line: u32,
}

/// Which compilation role a file plays (decides which rules apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under `src/` (not `src/bin/`).
    Lib,
    /// Application code under `src/bin/`.
    Bin,
    /// Integration tests under `tests/`.
    Test,
    /// Benchmarks under `benches/`.
    Bench,
}

/// One function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name, e.g. `handle_connection`.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body (open brace inclusive, close brace
    /// inclusive). Empty for declarations without a body.
    pub body: (usize, usize),
    /// Self type of the enclosing `impl`/`trait` block, when any — this
    /// is what makes a def a *method* for call resolution.
    pub impl_type: Option<String>,
    /// Inline-module path from the file root, e.g. `["signals"]`.
    pub mods: Vec<String>,
    /// True when the def lives inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// True for `pub fn` (exactly; `pub(crate) fn` is not public API).
    pub is_pub: bool,
}

/// What kind of `unsafe` occurrence a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { … }` block.
    Block,
    /// `unsafe fn …`.
    Fn,
    /// `unsafe impl …`.
    Impl,
    /// `unsafe trait …`.
    Trait,
}

/// One `unsafe` keyword occurrence.
#[derive(Debug, Clone, Copy)]
pub struct UnsafeSite {
    /// Index of the `unsafe` token.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// Occurrence kind.
    pub kind: UnsafeKind,
}

/// A parsed `lint:allow(...)` / `analyze:allow(...)` marker.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// `lint` or `analyze` — which scheme the marker uses.
    pub scheme: &'static str,
    /// The rule (or rule group) named in the marker, `_` → `-` folded.
    pub rule: String,
    /// Free-text justification (everything after the first comma). Empty
    /// when the marker carries none — the analyzer reports that itself.
    pub reason: String,
    /// 1-based line the marker sits on.
    pub line: u32,
}

/// A lexed file plus its structural index.
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    /// Crate directory name (`serve`, `tensor`, …; `autoac` for the root
    /// package).
    pub krate: String,
    /// Role of the file.
    pub file_kind: FileKind,
    /// The full source text.
    pub text: String,
    /// The lossless token stream.
    pub toks: Vec<STok>,
    /// Function definitions, in source order.
    pub fns: Vec<FnDef>,
    /// Token-index ranges (inclusive) lying inside `#[cfg(test)]` modules.
    pub test_regions: Vec<(usize, usize)>,
    /// Token-index ranges (inclusive) of loop bodies.
    pub loop_regions: Vec<(usize, usize)>,
    /// Every `unsafe` keyword occurrence.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// All allow markers, in source order.
    pub allows: Vec<AllowMarker>,
}

impl SourceFile {
    /// Lexes and indexes one file.
    pub fn parse(rel: &str, krate: &str, file_kind: FileKind, text: String) -> SourceFile {
        let toks: Vec<STok> = lex(&text)
            .iter()
            .map(|t| {
                let start = t.text.as_ptr() as usize - text.as_ptr() as usize;
                STok { kind: t.kind, start, end: start + t.text.len(), line: t.line }
            })
            .collect();
        let mut file = SourceFile {
            rel: rel.to_string(),
            krate: krate.to_string(),
            file_kind,
            text,
            toks,
            fns: Vec::new(),
            test_regions: Vec::new(),
            loop_regions: Vec::new(),
            unsafe_sites: Vec::new(),
            allows: Vec::new(),
        };
        build_structure(&mut file);
        file.allows = collect_allow_markers(&file);
        file
    }

    /// The text of token `i`.
    pub fn tok_text(&self, i: usize) -> &str {
        let t = &self.toks[i];
        &self.text[t.start..t.end]
    }

    /// True when token `i` is an identifier with exactly this text.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.toks[i].kind == TokKind::Ident && self.tok_text(i) == name
    }

    /// True when token `i` is the punctuation byte `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks[i].kind == TokKind::Punct && self.tok_text(i) == c.to_string().as_str()
    }

    /// Index of the previous non-trivia token before `i`, if any.
    pub fn prev_code(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| !is_trivia(self.toks[j].kind))
    }

    /// Index of the next non-trivia token after `i`, if any.
    pub fn next_code(&self, i: usize) -> Option<usize> {
        (i + 1..self.toks.len()).find(|&j| !is_trivia(self.toks[j].kind))
    }

    /// True when token index `i` lies inside a `#[cfg(test)]` module.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// True when token index `i` lies inside a loop body.
    pub fn in_loop(&self, i: usize) -> bool {
        self.loop_regions.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// The innermost fn whose body spans `line`, as `Type::name` for a
    /// method and `name` otherwise; empty outside every fn body.
    pub fn enclosing_fn(&self, line: u32) -> String {
        self.fns
            .iter()
            .filter(|f| {
                let (a, b) = f.body;
                b > a && self.toks[a].line <= line && line <= self.toks[b].line
            })
            .max_by_key(|f| f.body.0)
            .map(|f| match &f.impl_type {
                Some(t) => format!("{t}::{}", f.name),
                None => f.name.clone(),
            })
            .unwrap_or_default()
    }

    /// Allow markers that silence a finding on `line` for `rule` under
    /// `scheme` (marker on the same line or the one above). Returns the
    /// first matching marker.
    pub fn allow_for(&self, scheme: &str, rule: &str, line: u32) -> Option<&AllowMarker> {
        self.allows.iter().find(|m| {
            m.scheme == scheme
                && (m.line == line || m.line + 1 == line)
                && marker_rule_matches(&m.rule, rule)
        })
    }
}

fn is_trivia(k: TokKind) -> bool {
    matches!(k, TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment)
}

/// Marker rule spellings: the full rule id, or its shorthand (the id up
/// to the first `-`), so `lint:allow(unwrap)` silences `unwrap-in-lib`
/// and `analyze:allow(panic, …)` silences `panic-reachability`.
fn marker_rule_matches(named: &str, rule: &str) -> bool {
    if named == rule {
        return true;
    }
    let shorthand: &str = match rule {
        "unwrap-in-lib" => "unwrap",
        "raw-alloc-in-hotpath" => "raw-alloc",
        "instant-in-kernel-loop" => "instant",
        "op-gradcheck-coverage" => "gradcheck",
        "eprintln-in-lib" => "eprintln",
        "dispatch-parity-coverage" => "dispatch-parity",
        "panic-reachability" => "panic",
        "env-contract" => "env",
        "rng-discipline" => "rng",
        "unsafe-safety" => "unsafe",
        _ => return false,
    };
    named == shorthand
}

/// Extracts `lint:allow(...)`/`analyze:allow(...)` markers from comment
/// tokens. Reason grammar: everything after the first comma up to the
/// last `)` in the comment (so reasons may themselves contain parens).
fn collect_allow_markers(file: &SourceFile) -> Vec<AllowMarker> {
    let mut out = Vec::new();
    for (i, t) in file.toks.iter().enumerate() {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let text = file.tok_text(i);
        // Doc comments document the marker grammar itself (rule tables,
        // module docs); only plain comments carry live markers.
        if text.starts_with("///") || text.starts_with("//!")
            || text.starts_with("/**") || text.starts_with("/*!")
        {
            continue;
        }
        for scheme in ["lint", "analyze"] {
            let tag = format!("{scheme}:allow(");
            let mut from = 0;
            while let Some(pos) = text[from..].find(&tag) {
                let args_start = from + pos + tag.len();
                let rest = &text[args_start..];
                // The marker's argument list ends at the last `)` in the
                // comment (reasons may contain parens of their own).
                let Some(close) = rest.rfind(')') else { break };
                let args = &rest[..close];
                let (rule, reason) = match args.split_once(',') {
                    Some((r, why)) => (r, why.trim()),
                    None => (args, ""),
                };
                // Count the line offset of the marker inside a multi-line
                // block comment.
                let line_off = text[..from + pos].matches('\n').count() as u32;
                out.push(AllowMarker {
                    scheme,
                    rule: rule.trim().replace('_', "-"),
                    reason: reason.to_string(),
                    line: t.line + line_off,
                });
                from = args_start + close;
            }
        }
    }
    out
}

/// What a pending open brace will become.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Opened {
    Mod { test: bool },
    Fn { def: usize },
    ImplOrTrait,
    Loop,
    Other,
}

/// One brace-matching pass that builds fns, test/loop regions, impl
/// contexts, and unsafe sites.
fn build_structure(file: &mut SourceFile) {
    let code: Vec<usize> =
        (0..file.toks.len()).filter(|&i| !is_trivia(file.toks[i].kind)).collect();

    let mut stack: Vec<Opened> = Vec::new();
    let mut mod_path: Vec<String> = Vec::new();
    let mut impl_stack: Vec<String> = Vec::new();
    let mut test_open: Vec<usize> = Vec::new();
    let mut loop_open: Vec<usize> = Vec::new();
    let mut fn_open: Vec<usize> = Vec::new(); // indices into file.fns

    // Pending-item state, consumed by the next `{` (or cleared by `;`).
    let mut pending_cfg_test = false;
    let mut pending_mod: Option<(String, bool)> = None;
    let mut pending_fn: Option<usize> = None; // index into file.fns
    let mut pending_impl: Option<String> = None;
    let mut pending_loop = false;

    let mut k = 0usize;
    while k < code.len() {
        let i = code[k];
        let tok = file.toks[i];
        match tok.kind {
            TokKind::Punct if file.is_punct(i, '#') => {
                // `#[cfg(test)]` attribute — token shape # [ cfg ( test ) ]
                if let Some(close) = attr_end(file, &code, k) {
                    let body: Vec<&str> =
                        code[k + 1..=close].iter().map(|&j| file.tok_text(j)).collect();
                    if body.len() >= 6 && body[1] == "cfg" && body[3] == "test" {
                        pending_cfg_test = true;
                    }
                    k = close + 1;
                    continue;
                }
            }
            TokKind::Ident => match file.tok_text(i) {
                "mod" => {
                    if let Some(nk) = code.get(k + 1) {
                        if file.toks[*nk].kind == TokKind::Ident {
                            pending_mod =
                                Some((file.tok_text(*nk).to_string(), pending_cfg_test));
                            pending_cfg_test = false;
                            k += 2;
                            continue;
                        }
                    }
                }
                "fn" => {
                    // `#[cfg(test)] fn helper` — attribute on a fn, not a
                    // module: the flag must not leak to a later mod.
                    pending_cfg_test = false;
                    if let Some(&nk) = code.get(k + 1) {
                        if file.toks[nk].kind == TokKind::Ident {
                            let is_pub = is_plain_pub_before(file, &code, k);
                            file.fns.push(FnDef {
                                name: file.tok_text(nk).to_string(),
                                line: tok.line,
                                body: (0, 0),
                                impl_type: impl_stack.last().cloned(),
                                mods: mod_path.clone(),
                                in_test: !test_open.is_empty(),
                                is_pub,
                            });
                            pending_fn = Some(file.fns.len() - 1);
                            k += 2;
                            continue;
                        }
                    }
                }
                "impl" | "trait" => {
                    if pending_fn.is_none() {
                        // `-> impl Trait` inside a fn signature must not
                        // open an impl context; a real impl/trait item is
                        // never pending behind a fn.
                        pending_impl = Some(impl_self_type(file, &code, k));
                    }
                }
                "for" | "while" | "loop" => {
                    let impl_for = file.tok_text(i) == "for"
                        && file.prev_code(i).is_some_and(|p| {
                            matches!(file.toks[p].kind, TokKind::Ident)
                                || file.is_punct(p, '>')
                        });
                    let hrtb = file.tok_text(i) == "for"
                        && file.next_code(i).is_some_and(|n| file.is_punct(n, '<'));
                    if !impl_for && !hrtb && pending_fn.is_none() && pending_impl.is_none() {
                        pending_loop = true;
                    }
                }
                "unsafe" => {
                    let kind = match file.next_code(i).map(|n| file.tok_text(n)) {
                        Some("{") => UnsafeKind::Block,
                        Some("fn") => UnsafeKind::Fn,
                        Some("impl") => UnsafeKind::Impl,
                        Some("trait") => UnsafeKind::Trait,
                        _ => UnsafeKind::Block, // `unsafe extern`, edge forms
                    };
                    file.unsafe_sites.push(UnsafeSite { tok: i, line: tok.line, kind });
                }
                _ => {}
            },
            TokKind::Punct => match file.tok_text(i) {
                ";" => {
                    // Declarations without bodies: `mod x;`, trait fn
                    // decls, `for` seen in non-loop positions.
                    if let Some(def) = pending_fn.take() {
                        // Body-less decl: drop the def (nothing to scan).
                        if def + 1 == file.fns.len() {
                            file.fns.pop();
                        }
                    }
                    pending_mod = None;
                    pending_loop = false;
                    pending_impl = None;
                }
                "{" => {
                    let opened = if let Some(def) = pending_fn.take() {
                        file.fns[def].body.0 = i;
                        fn_open.push(def);
                        Opened::Fn { def }
                    } else if let Some((name, test)) = pending_mod.take() {
                        mod_path.push(name);
                        if test && test_open.is_empty() {
                            test_open.push(i);
                        } else if test {
                            test_open.push(usize::MAX); // nested; outer wins
                        }
                        Opened::Mod { test }
                    } else if let Some(ty) = pending_impl.take() {
                        impl_stack.push(ty);
                        Opened::ImplOrTrait
                    } else if pending_loop {
                        loop_open.push(i);
                        Opened::Loop
                    } else {
                        Opened::Other
                    };
                    // A consumed `{` resolves every pending item.
                    pending_loop = false;
                    pending_mod = None;
                    pending_impl = None;
                    stack.push(opened);
                }
                "}" => match stack.pop() {
                    Some(Opened::Fn { def }) => {
                        file.fns[def].body.1 = i;
                        fn_open.pop();
                    }
                    Some(Opened::Mod { test }) => {
                        mod_path.pop();
                        if test {
                            if let Some(open) = test_open.pop() {
                                if open != usize::MAX {
                                    file.test_regions.push((open, i));
                                }
                            }
                        }
                    }
                    Some(Opened::ImplOrTrait) => {
                        impl_stack.pop();
                    }
                    Some(Opened::Loop) => {
                        if let Some(open) = loop_open.pop() {
                            file.loop_regions.push((open, i));
                        }
                    }
                    _ => {}
                },
                _ => {}
            },
            _ => {}
        }
        k += 1;
    }
    // Unclosed fns (unbalanced braces mid-edit): close at EOF so body
    // ranges stay usable.
    for def in fn_open {
        file.fns[def].body.1 = file.toks.len().saturating_sub(1);
    }
}

/// If `code[k]` is `#` and `code[k+1]` is `[`, returns the code index of
/// the matching `]`.
fn attr_end(file: &SourceFile, code: &[usize], k: usize) -> Option<usize> {
    if !file.is_punct(*code.get(k + 1)?, '[') {
        return None;
    }
    let mut depth = 0usize;
    for (off, &j) in code[k + 1..].iter().enumerate() {
        if file.is_punct(j, '[') {
            depth += 1;
        } else if file.is_punct(j, ']') {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1 + off);
            }
        }
    }
    None
}

/// True when the token right before `code[k]` (the `fn` keyword) is a
/// bare `pub` (not `pub(crate)`, whose last token before `fn` is `)`).
fn is_plain_pub_before(file: &SourceFile, code: &[usize], k: usize) -> bool {
    k > 0 && file.is_ident(code[k - 1], "pub")
}

/// Self-type heuristic for `impl …` / `trait …` headers: the first ident
/// at angle-depth 0 after `for` (when present before the body brace),
/// else the first non-keyword ident after the header keyword's generics.
fn impl_self_type(file: &SourceFile, code: &[usize], k: usize) -> String {
    let mut angle = 0i32;
    let mut after_for = false;
    let mut first: Option<String> = None;
    let mut first_after_for: Option<String> = None;
    for &j in &code[k + 1..] {
        let text = file.tok_text(j);
        match file.toks[j].kind {
            TokKind::Punct => match text {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" | ";" => break,
                _ => {}
            },
            TokKind::Ident if angle == 0 => match text {
                "for" => after_for = true,
                "mut" | "dyn" | "const" | "unsafe" | "where" => {}
                name => {
                    if after_for && first_after_for.is_none() {
                        first_after_for = Some(name.to_string());
                    }
                    if first.is_none() {
                        first = Some(name.to_string());
                    }
                    if after_for {
                        break;
                    }
                }
            },
            _ => {}
        }
    }
    first_after_for.or(first).unwrap_or_else(|| "?".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs", "x", FileKind::Lib, text.to_string())
    }

    #[test]
    fn fns_and_methods_carry_impl_and_test_context() {
        let f = parse(
            "pub fn free() {}\n\
             impl Foo { fn method(&self) {} }\n\
             impl Bar for Baz { fn trait_method(&self) {} }\n\
             trait Qux { fn with_default(&self) { self.x(); } }\n\
             #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
        );
        let names: Vec<(&str, Option<&str>, bool, bool)> = f
            .fns
            .iter()
            .map(|d| (d.name.as_str(), d.impl_type.as_deref(), d.in_test, d.is_pub))
            .collect();
        assert_eq!(
            names,
            [
                ("free", None, false, true),
                ("method", Some("Foo"), false, false),
                ("trait_method", Some("Baz"), false, false),
                ("with_default", Some("Qux"), false, false),
                ("t", None, true, false),
            ]
        );
    }

    #[test]
    fn impl_for_is_not_a_loop_but_real_loops_are() {
        let f = parse(
            "impl Iterator for Foo {\n    fn next(&mut self) {\n        for i in 0..3 { work(i); }\n    }\n}\n",
        );
        assert_eq!(f.loop_regions.len(), 1, "{:?}", f.loop_regions);
        let (a, b) = f.loop_regions[0];
        let span: String = (a..=b).map(|i| f.tok_text(i)).collect();
        assert!(span.contains("work"), "{span}");
    }

    #[test]
    fn return_position_impl_trait_does_not_open_impl_context() {
        let f = parse("fn f() -> impl Fn() { || {} }\nimpl Real { fn g(&self) {} }\n");
        assert_eq!(f.fns[1].impl_type.as_deref(), Some("Real"));
        assert_eq!(f.fns[0].impl_type, None);
    }

    #[test]
    fn unsafe_sites_classified() {
        let f = parse(
            "unsafe impl Send for P {}\n\
             unsafe fn raw() {}\n\
             fn f() { unsafe { danger(); } }\n",
        );
        let kinds: Vec<UnsafeKind> = f.unsafe_sites.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [UnsafeKind::Impl, UnsafeKind::Fn, UnsafeKind::Block]);
    }

    #[test]
    fn allow_markers_parse_rule_and_reason() {
        let f = parse(
            "fn f() {\n    x(); // analyze:allow(panic, bounds checked above (twice))\n    y(); // lint:allow(unwrap)\n}\n",
        );
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].scheme, "analyze");
        assert_eq!(f.allows[0].rule, "panic");
        assert_eq!(f.allows[0].reason, "bounds checked above (twice)");
        assert!(f.allow_for("analyze", "panic-reachability", 2).is_some());
        assert!(f.allow_for("analyze", "panic-reachability", 3).is_some(), "next-line carry");
        assert!(f.allow_for("lint", "unwrap-in-lib", 3).is_some());
        assert!(f.allow_for("lint", "unwrap-in-lib", 2).is_none());
    }

    #[test]
    fn cfg_test_on_fn_does_not_open_a_test_region() {
        let f = parse("#[cfg(test)]\nfn helper() {}\nmod real { fn g() {} }\n");
        assert!(f.test_regions.is_empty());
        assert!(!f.fns.iter().any(|d| d.in_test));
    }
}
