//! `autoac-lint` — runs the hand-rolled project lint (and, with
//! `--analyze`, the whole-workspace static analyses) over the repository.
//!
//! Usage:
//!
//! ```text
//! cargo run -p autoac-check --bin autoac-lint              # lint the repo
//! cargo run -p autoac-check --bin autoac-lint -- --json    # JSON summary only
//! cargo run -p autoac-check --bin autoac-lint -- --analyze # lint + analyses
//! cargo run -p autoac-check --bin autoac-lint -- --analyze --json
//! cargo run -p autoac-check --bin autoac-lint -- --root path/to/tree
//! ```
//!
//! `--analyze` runs the token-level lint plus the four whole-program
//! analyses (panic-reachability on the serving path, env-var contract,
//! RNG discipline, unsafe audit); with `--json` it prints the
//! `results/ANALYSIS.json` baseline document on stdout and the finding
//! summary and coverage counters, which the document leaves out, as one
//! JSON line on stderr.
//!
//! Exits 1 when any finding survives, 0 on a clean tree, 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut json = false;
    let mut analyze = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--analyze" => analyze = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("autoac-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("autoac-lint: unknown argument `{other}`");
                eprintln!("usage: autoac-lint [--root <dir>] [--analyze] [--json]");
                return ExitCode::from(2);
            }
        }
    }

    if analyze {
        let out = match autoac_check::analyze::rules::analyze_root(&root) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("autoac-lint: failed to load {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        if json {
            print!("{}", out.to_json());
            eprintln!("{}", out.counts_json());
        } else {
            println!("{}", out.render_text());
        }
        return if out.report.is_clean() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let report = autoac_check::lint::lint_root(&root);
    if json {
        println!("{}", report.json_summary());
    } else {
        println!("{}", report.render());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
