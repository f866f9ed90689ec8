//! # benchmark
//!
//! One benchmark for the AutoAC stack: four workloads, end-to-end metrics
//! from untraced runs, per-layer metrics from traced runs. See README.md.
//!
//! ```text
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//!     one workload in this process; the last stdout line is the result
//! benchmark [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//!     every workload, each in its own child process
//! benchmark --repeat R [--workload W] [--seed N] [--seconds S] [--out FILE]
//!     R untraced runs per workload with seeds N..N+R, and their spreads
//! ```

mod doc;
mod layers;
mod openloop;
mod probe;
mod serve;
mod stats;
mod sys;
mod train;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use autoac_data::json::{self, Value};

use crate::doc::{checked_json, num, obj, text, Header, RunResult, END_TO_END};

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = [
    "autoac-dblp-simplehgn",
    "autoac-imdb-magnn",
    "sampled-50k",
    serve::NAME,
];

/// Measured seconds per workload run (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 30.0;
/// Measured seconds per workload in `--smoke` mode.
const SMOKE_SECONDS: f64 = 2.0;
/// Scratch space for checkpoints, flight dumps and probe snapshots; inside
/// the working directory and removed when the run ends.
const SCRATCH: &str = ".bench_tmp";

const USAGE: &str = "usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--out FILE] [--repeat R]";

/// Settings every workload reads.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Drives data generation, run seeds and the request stream.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny scales and short phases.
    pub smoke: bool,
}

struct Args {
    opts: Opts,
    workload: Option<String>,
    out: Option<PathBuf>,
    repeat: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        opts: Opts {
            seed: 0,
            seconds: f64::NAN,
            trace: false,
            smoke: false,
        },
        workload: None,
        out: None,
        repeat: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).map(String::as_str);
        let mut take = |what: &str| -> Result<&str, String> {
            i += 1;
            value.ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag {
            "--workload" => {
                let w = take("a workload name")?;
                if !WORKLOADS.contains(&w) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                a.workload = Some(w.to_string());
            }
            "--seed" => a.opts.seed = take("an integer")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = take("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                a.opts.seconds = s;
            }
            // `--trace` alone means a traced run; `--trace 0|1` is explicit.
            "--trace" => match value {
                Some("0") | Some("1") => a.opts.trace = take("0 or 1")? == "1",
                _ => a.opts.trace = true,
            },
            "--smoke" => a.opts.smoke = true,
            "--out" => a.out = Some(PathBuf::from(take("a file")?)),
            "--repeat" => {
                let r: usize = take("a count")?.parse().map_err(|_| "bad --repeat")?;
                if r < 2 {
                    return Err("--repeat needs at least 2 runs".into());
                }
                a.repeat = Some(r);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    if a.opts.seconds.is_nan() {
        a.opts.seconds = if a.opts.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    if a.opts.smoke && a.out.is_some() {
        return Err("--smoke writes nothing outside its scratch directory; drop --out".into());
    }
    if a.repeat.is_some() && a.opts.trace {
        return Err("--repeat measures untraced runs only".into());
    }
    Ok(a)
}

/// How many set-ups a run times, given how long one took: enough to take
/// about 1.5 s, at least 3 and at most 25, so short set-ups (milliseconds,
/// dominated by scheduling jitter) get more samples. Runs spread them over
/// their time, because the machine's speed changes from second to second.
pub fn setup_count(one_s: f64) -> usize {
    ((1.5 / one_s) as usize).clamp(3, 25)
}

/// A scratch directory under [`SCRATCH`], removed on drop (also when a
/// workload panics and unwinds).
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = Path::new(SCRATCH).join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

fn write_out(path: &Path, contents: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, format!("{contents}\n"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Runs one workload in this process and prints its document and result.
fn run_one(workload: &str, opts: &Opts, out: Option<&Path>) {
    let header = Header::collect(opts.seed, opts.smoke, opts.seconds, opts.trace);
    // Untraced runs measure with obs off; traced runs force it on for
    // every thread.
    autoac_obs::set_force(Some(opts.trace));
    let scratch = Scratch::new(workload);
    let mut res: RunResult = if workload == serve::NAME {
        serve::run(opts, &scratch.0)
    } else {
        let spec = train::spec(workload, opts.smoke).expect("workload names are validated");
        train::run(&spec, opts, &scratch.0)
    };
    drop(scratch);
    res.finish(if opts.trace {
        doc::per_layer()
    } else {
        END_TO_END
    });
    let document = checked_json(&res.document(workload, &header));
    println!("document {document}");
    if let Some(path) = out {
        write_out(path, &document);
    }
    println!("{}", checked_json(&res.result_line()));
}

/// What a child run printed: its document and its result line.
struct Child {
    document: Value,
    result: Value,
}

fn run_child(workload: &str, opts: &Opts) -> Child {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| panic!("start {workload}: {e}"));
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout
        .lines()
        .filter(|l| !l.starts_with("document ") && !l.starts_with('{'))
    {
        println!("{line}");
    }
    assert!(
        output.status.success(),
        "{workload} exited with {}",
        output.status
    );
    let document = stdout
        .lines()
        .find_map(|l| l.strip_prefix("document "))
        .and_then(|d| json::parse(d).ok())
        .unwrap_or_else(|| panic!("{workload} printed no document"));
    let result = stdout
        .lines()
        .last()
        .and_then(|l| json::parse(l).ok())
        .unwrap_or_else(|| panic!("{workload} printed no result line"));
    Child { document, result }
}

fn field_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Every workload in its own child process (so peak memory and process-wide
/// state are per workload); prints one combined result.
fn run_all(opts: &Opts, out: Option<&Path>) {
    let header = Header::collect(opts.seed, opts.smoke, opts.seconds, opts.trace);
    let mut docs = vec![];
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = vec![];
    for w in WORKLOADS {
        let child = run_child(w, opts);
        correct &= matches!(child.result.get("correct"), Some(Value::Bool(true)));
        attempted += field_f64(&child.result, "attempted");
        failed += field_f64(&child.result, "failed");
        if let Some(Value::Obj(ms)) = child.result.get("metrics") {
            metrics.extend(ms.iter().map(|(k, v)| (format!("{w}/{k}"), v.clone())));
        }
        docs.push(child.document);
    }
    let combined = obj(vec![
        ("schema", text("autoac-benchmark/1")),
        ("header", header.to_json()),
        ("workloads", Value::Arr(docs)),
    ]);
    if let Some(path) = out {
        write_out(path, &checked_json(&combined));
    }
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(attempted)),
        ("failed", num(failed)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", checked_json(&line));
}

/// `runs` untraced runs of each workload with consecutive seeds; reports
/// each end-to-end metric's median, quartiles and spread (interquartile
/// distance over the median) — the acceptance rule's view of noise.
fn repeat(only: Option<&str>, runs: usize, opts: &Opts, out: Option<&Path>) {
    let header = Header::collect(opts.seed, opts.smoke, opts.seconds, false);
    let mut per_workload = vec![];
    let mut all_correct = true;
    for w in WORKLOADS
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let mut values: Vec<Vec<f64>> = vec![vec![]; END_TO_END.len()];
        let mut correct = true;
        for r in 0..runs {
            let run_opts = Opts {
                seed: opts.seed + r as u64,
                ..opts.clone()
            };
            let child = run_child(w, &run_opts);
            correct &= matches!(child.result.get("correct"), Some(Value::Bool(true)));
            for (spec, vs) in END_TO_END.iter().zip(&mut values) {
                let m = child.result.get("metrics").and_then(|m| m.get(spec.name));
                vs.push(m.map_or(f64::NAN, |m| field_f64(m, "value")));
            }
        }
        all_correct &= correct;
        let mut metrics = vec![];
        for (spec, vs) in END_TO_END.iter().zip(&values) {
            let q = stats::quartiles(vs).unwrap_or([f64::NAN; 3]);
            let spread = stats::spread(vs).unwrap_or(f64::NAN);
            println!(
                "{w:>24} {:>20} median {:>12.5} spread {spread:.4}",
                spec.name,
                stats::median(vs)
            );
            metrics.push((
                spec.name.to_string(),
                obj(vec![
                    ("unit", text(spec.unit)),
                    ("values", Value::Arr(vs.iter().map(|&v| num(v)).collect())),
                    ("median", num(stats::median(vs))),
                    ("q1", num(q[0])),
                    ("q3", num(q[2])),
                    ("spread", num(spread)),
                ]),
            ));
        }
        per_workload.push((
            w.to_string(),
            obj(vec![
                ("correct", Value::Bool(correct)),
                ("metrics", Value::Obj(metrics)),
            ]),
        ));
    }
    let combined = obj(vec![
        ("schema", text("autoac-benchmark-spread/1")),
        ("header", header.to_json()),
        ("runs", num(runs as f64)),
        ("first_seed", num(opts.seed as f64)),
        ("correct", Value::Bool(all_correct)),
        ("workloads", Value::Obj(per_workload)),
    ]);
    if let Some(path) = out {
        write_out(path, &checked_json(&combined));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let out = args.out.as_deref();
    match (&args.workload, args.repeat) {
        (w, Some(runs)) => repeat(w.as_deref(), runs, &args.opts, out),
        (Some(w), None) => run_one(w, &args.opts, out),
        (None, None) => run_all(&args.opts, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn harness_invocation_parses() {
        let a = args("--workload serve-open --seed 3 --seconds 25 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-open"));
        assert_eq!(
            (a.opts.seed, a.opts.seconds, a.opts.trace),
            (3, 25.0, false)
        );
        assert!(args("--workload sampled-50k --trace 1").unwrap().opts.trace);
        assert!(args("--trace --seed 1").unwrap().opts.trace);
        assert_eq!(args("--smoke").unwrap().opts.seconds, SMOKE_SECONDS);
        assert_eq!(args("").unwrap().opts.seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn bad_invocations_are_rejected() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--bogus",
            "--smoke --out f",
            "--repeat 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
