//! Shared diagnostics for every analysis in `autoac-check`.
//!
//! Every analysis (tape verifier, pool sanitizer frontend, source lint,
//! and the `--analyze` rules) funnels its findings through [`Diagnostic`]
//! and [`Report`], so new checks plug in without inventing another report
//! format. A [`Report`] renders both as human-readable text (one finding
//! per line, `file:line`-style locations where applicable) and as a
//! one-line JSON summary for CI tooling (`autoac-lint --json`).

use std::fmt;

/// Which analysis produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analysis {
    /// Autograd tape verifier (shapes, topo order, dead parameters).
    Tape,
    /// Pool provenance sanitizer (use-after-release / double-release).
    Pool,
    /// Hand-rolled source lint.
    Lint,
    /// Panic-reachability over the serving-path call graph.
    Panic,
    /// `AUTOAC_*` environment-variable contract.
    Env,
    /// RNG-stream discipline (sanctioned constructors only).
    Rng,
    /// `unsafe` audit (adjacent SAFETY comments).
    Unsafe,
}

impl Analysis {
    /// Stable lowercase name used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Analysis::Tape => "tape",
            Analysis::Pool => "pool",
            Analysis::Lint => "lint",
            Analysis::Panic => "panic",
            Analysis::Env => "env",
            Analysis::Rng => "rng",
            Analysis::Unsafe => "unsafe",
        }
    }
}

/// One finding from one analysis.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Producing analysis.
    pub analysis: Analysis,
    /// Short machine-friendly rule identifier, e.g. `shape-mismatch`,
    /// `dead-param`, `unwrap-in-lib`.
    pub rule: &'static str,
    /// Human-readable description naming the offending op / file / buffer.
    pub message: String,
    /// `file:line` for lint findings, `op \`name\` (node #id)` style for
    /// tape findings; empty when there is no meaningful anchor.
    pub location: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.location.is_empty() {
            write!(f, "[{}/{}] {}", self.analysis.name(), self.rule, self.message)
        } else {
            write!(
                f,
                "[{}/{}] {}: {}",
                self.analysis.name(),
                self.rule,
                self.location,
                self.message
            )
        }
    }
}

/// A batch of findings plus coverage counters for the run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Units inspected (graph nodes for tape runs, files for lint runs).
    pub inspected: usize,
}

impl Report {
    /// A report with no findings yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no analysis found anything.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merges another report (findings and coverage counters).
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
        self.inspected += other.inspected;
    }

    /// Findings produced by one analysis.
    pub fn by_analysis(&self, a: Analysis) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.analysis == a)
    }

    /// Multi-line human-readable rendering (one finding per line), or a
    /// single "clean" line.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return format!("clean ({} inspected)", self.inspected);
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} finding(s) across {} inspected",
            self.diagnostics.len(),
            self.inspected
        ));
        out
    }

    /// One-line JSON summary: per-analysis violation counts plus totals.
    /// Hand-rolled (no serde in this workspace); keys are fixed and values
    /// are integers, so escaping is not needed.
    pub fn json_summary(&self) -> String {
        let count = |a: Analysis| self.by_analysis(a).count();
        format!(
            "{{\"inspected\":{},\"violations\":{},\"tape\":{},\"pool\":{},\"lint\":{},\"panic\":{},\"env\":{},\"rng\":{},\"unsafe\":{}}}",
            self.inspected,
            self.diagnostics.len(),
            count(Analysis::Tape),
            count(Analysis::Pool),
            count(Analysis::Lint),
            count(Analysis::Panic),
            count(Analysis::Env),
            count(Analysis::Rng),
            count(Analysis::Unsafe),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_json_cover_counts() {
        let mut r = Report::new();
        r.inspected = 3;
        assert!(r.is_clean());
        assert_eq!(
            r.json_summary(),
            "{\"inspected\":3,\"violations\":0,\"tape\":0,\"pool\":0,\"lint\":0,\"panic\":0,\"env\":0,\"rng\":0,\"unsafe\":0}"
        );
        r.push(Diagnostic {
            analysis: Analysis::Tape,
            rule: "shape-mismatch",
            message: "op `matmul` inner dims 3 vs 4".into(),
            location: "node #7".into(),
        });
        r.push(Diagnostic {
            analysis: Analysis::Lint,
            rule: "unwrap-in-lib",
            message: "unwrap() outside tests".into(),
            location: "crates/x/src/lib.rs:10".into(),
        });
        assert!(!r.is_clean());
        let text = r.render();
        assert!(text.contains("[tape/shape-mismatch] node #7"), "{text}");
        assert!(text.contains("2 finding(s)"), "{text}");
        assert!(r.json_summary().contains("\"violations\":2"));
        assert_eq!(r.by_analysis(Analysis::Lint).count(), 1);
    }
}
