//! The whole-workspace analyses must trip on every seeded violation in the
//! analyze fixture tree — exactly once per rule — and stay silent on the
//! real repository.

use std::collections::HashMap;
use std::path::PathBuf;

use autoac_check::analyze::rules::{
    self, RULE_ENV, RULE_PANIC, RULE_RNG, RULE_UNSAFE, SERVE_ENTRY_POINTS,
};
use autoac_check::analyze::source::{FileKind, SourceFile};
use autoac_check::analyze::workspace::Workspace;

fn fixture_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/analyze"))
}

fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn fixture_tree_trips_each_analysis_exactly_once() {
    let ws = Workspace::load(&fixture_root()).expect("fixture tree loads");
    let out = rules::analyze(&ws);
    let rules_hit: Vec<&str> = out.report.diagnostics.iter().map(|d| d.rule).collect();
    for rule in [RULE_PANIC, RULE_ENV, RULE_RNG, RULE_UNSAFE] {
        assert_eq!(
            rules_hit.iter().filter(|r| **r == rule).count(),
            1,
            "expected exactly one `{rule}` finding in the analyze fixtures:\n{}",
            out.report.render()
        );
    }
    assert_eq!(out.report.diagnostics.len(), 4, "{}", out.report.render());
    for d in &out.report.diagnostics {
        let loc = &d.location;
        assert!(
            loc.starts_with("crates/serve/src/server.rs:")
                || loc.starts_with("crates/serve/src/env_knob.rs:")
                || loc.starts_with("crates/nn/src/sample.rs:")
                || loc.starts_with("crates/tensor/src/raw.rs:"),
            "finding outside the seeded files: {loc}"
        );
    }
    // Both entry points exist in the fixture serve crate and were found.
    assert_eq!(out.entry_points.len(), SERVE_ENTRY_POINTS.len());
}

#[test]
fn real_repository_is_analysis_clean() {
    // The acceptance bar for the analysis layer: zero non-allowlisted
    // findings over the real workspace, and every allowlisted one carries
    // a reason.
    let out = rules::analyze_root(&repo_root()).expect("repo loads");
    assert!(
        out.report.is_clean(),
        "the repo must stay analysis-clean; fix or `analyze:allow(rule, reason)`:\n{}",
        out.report.render()
    );
    for a in &out.allowed {
        assert!(
            !a.reason.trim().is_empty(),
            "allowlist entry without a reason at {}",
            a.location
        );
    }
    assert!(out.stats.files >= 120, "only {} files loaded", out.stats.files);
}

#[test]
fn panic_reachability_covers_every_serving_entry_point() {
    // The entry-point list is part of the analysis contract: if a serving
    // entry point is renamed or removed, this test (and the analysis, which
    // reports a finding for missing entries) must be updated together.
    let ws = Workspace::load(&repo_root()).expect("repo loads");
    let out = rules::analyze(&ws);
    assert_eq!(
        SERVE_ENTRY_POINTS,
        &["handle_connection", "run_model_thread"],
        "update this test together with the entry-point registry"
    );
    for name in SERVE_ENTRY_POINTS {
        assert!(
            out.entry_points.iter().any(|e| e.contains(name)),
            "entry point `{name}` was not located in crates/serve: {:?}",
            out.entry_points
        );
    }
    // Every located entry point resolves to a real fn in the serve crate.
    for e in &out.entry_points {
        assert!(e.contains("crates/serve/src/"), "entry outside serve: {e}");
    }
}

#[test]
fn a_name_only_the_registry_and_the_docs_mention_is_stale() {
    // Every registered name is read through its strict parser and
    // documented, except that the first one occurs nowhere but in the
    // registry's own definition: that entry must be reported stale.
    let (stale, _) = rules::ENV_REGISTRY[0];
    let entries: String =
        rules::ENV_REGISTRY.iter().map(|(n, p)| format!("(\"{n}\", \"{p}\"), ")).collect();
    let registry = format!("pub const ENV_REGISTRY: &[(&str, &str)] = &[{entries}];\n");
    let reads: String = rules::ENV_REGISTRY
        .iter()
        .filter(|(n, _)| *n != stale)
        .map(|(n, p)| {
            format!("pub fn read_{}() {{ {p}(std::env::var(\"{n}\")); }}\n", n.to_lowercase())
        })
        .collect();
    let rules_rs = "crates/check/src/analyze/rules.rs";
    let ws = Workspace {
        files: vec![
            SourceFile::parse(rules_rs, "check", FileKind::Lib, registry),
            SourceFile::parse("crates/obs/src/env.rs", "obs", FileKind::Lib, reads),
        ],
        calls: HashMap::new(),
        call_sites: 0,
        resolved_edges: 0,
        has_docs: true,
        docs_text: rules::ENV_REGISTRY.iter().map(|(n, _)| format!("`{n}`\n")).collect(),
        dep_closure: HashMap::new(),
    };
    let out = rules::analyze(&ws);
    let env: Vec<&str> = out
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule == RULE_ENV)
        .map(|d| d.message.as_str())
        .collect();
    assert_eq!(env.len(), 1, "{env:?}");
    assert!(env[0].contains(stale) && env[0].contains("stale registry entry"), "{env:?}");
}

/// A one-file serve crate: both entry points reach `decode_request`,
/// whose one panic site is allowed.
const SERVER_RS: &str = "\
pub fn handle_connection(reqs: &[u32]) -> u32 {
    decode_request(reqs)
}

pub fn run_model_thread(reqs: &[u32]) -> u32 {
    decode_request(reqs)
}

fn decode_request(reqs: &[u32]) -> u32 {
    // analyze:allow(panic, callers send at least one request)
    *reqs.first().unwrap()
}
";

/// The baseline document of a tree holding only `server_rs` as
/// `crates/serve/src/server.rs`.
fn serve_fixture_doc(tag: &str, server_rs: &str) -> String {
    let root = std::env::temp_dir().join(format!("autoac_analyze_{}_{tag}", std::process::id()));
    let src = root.join("crates/serve/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(src.join("server.rs"), server_rs).expect("write fixture");
    let ws = Workspace::load(&root).expect("fixture loads");
    let _ = std::fs::remove_dir_all(&root);
    let out = rules::analyze(&ws);
    assert!(out.report.is_clean(), "{}", out.report.render());
    out.to_json()
}

#[test]
fn a_blank_line_above_an_allowed_site_leaves_the_baseline_unchanged() {
    let before = serve_fixture_doc("before", SERVER_RS);
    let key = "\"file\": \"crates/serve/src/server.rs\", \"fn\": \"decode_request\", \
               \"reason\": \"callers send at least one request\", \"count\": 1}";
    assert!(before.contains(key), "{before}");
    assert!(before.contains("\"handle_connection @ crates/serve/src/server.rs\""), "{before}");
    // The blank line moves the entry points and the allowed site down.
    let after = serve_fixture_doc("after", &format!("\n{SERVER_RS}"));
    assert_eq!(before, after);
}

#[test]
fn a_second_allowed_site_in_one_fn_raises_its_count() {
    let twice = SERVER_RS.replace(
        "    *reqs.first().unwrap()\n",
        "    let first = *reqs.first().unwrap();\n    \
         // analyze:allow(panic, callers send at least one request)\n    \
         first + *reqs.last().unwrap()\n",
    );
    let doc = serve_fixture_doc("twice", &twice);
    let key = "\"fn\": \"decode_request\", \"reason\": \"callers send at least one request\", \
               \"count\": 2}";
    assert!(doc.contains(key), "{doc}");
    assert_ne!(doc, serve_fixture_doc("once", SERVER_RS));
}
