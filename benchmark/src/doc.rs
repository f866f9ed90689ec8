//! The benchmark's output: metric names and units, the run header, and the
//! JSON document (re-parsed with `autoac_data::json` before it leaves the
//! process) plus the one-line result a regression harness reads.

use std::path::Path;
use std::sync::OnceLock;

use autoac_data::json::{self, Value};

use crate::stats::{unstolen, Summary, Timed};
use crate::sys::{HostSpeed, REFERENCE_PROBE_MS};

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, accuracy).
    Higher,
}

impl Better {
    fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's identity: name, unit, direction and the layer (crate) it
/// belongs to. Every workload reports every metric of its kind; a per-layer
/// metric of a layer the workload does not exercise reads 0 with n 0.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The layer the metric is attributed to.
    pub layer: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, layer: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        layer,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by untraced runs. The README defines what
/// each means on the training and on the serving workloads.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Lower, "end-to-end"),
    spec("peak_rss_mb", "MB", Lower, "end-to-end"),
    spec("model_step_ms", "ms", Lower, "end-to-end"),
    spec("completion_step_ms", "ms", Lower, "end-to-end"),
    spec("cpu_ms_per_step", "ms", Lower, "end-to-end"),
    spec("throughput_per_s", "1/s", Higher, "end-to-end"),
    spec("test_micro_f1", "ratio", Higher, "end-to-end"),
];

/// Kernels whose achieved rate is reported against the roofline.
pub const KERNELS: [&str; 4] = ["matmul", "matmul_tn", "matmul_nt", "spmm"];

/// Per-layer metrics, reported by traced runs. A "step" is a training
/// epoch, or one forward of the served model.
pub fn per_layer() -> &'static [Spec] {
    static SPECS: OnceLock<Vec<Spec>> = OnceLock::new();
    SPECS.get_or_init(build_per_layer)
}

fn build_per_layer() -> Vec<Spec> {
    let mut out = vec![
        spec("data.generate_ms", "ms", Lower, "data"),
        spec("graph.setup_ms", "ms", Lower, "graph"),
        spec("graph.opcache_builds_per_step", "count", Lower, "graph"),
        spec("completion.missing_nodes", "count", Lower, "completion"),
        spec("completion.assigned_ms", "ms", Lower, "completion"),
        spec("completion.mixture_ms", "ms", Lower, "completion"),
        spec("nn.encode_ms", "ms", Lower, "nn"),
        spec("nn.forward_ms", "ms", Lower, "nn"),
        spec("nn.infer_ms", "ms", Lower, "nn"),
        spec("tensor.backward_ms", "ms", Lower, "tensor"),
        spec("tensor.optim_ms", "ms", Lower, "tensor"),
        spec("tensor.peak_gflops", "GFLOP/s", Higher, "tensor"),
        spec("tensor.peak_gbytes_s", "GB/s", Higher, "tensor"),
        spec("tensor.kernel_share", "ratio", Lower, "tensor"),
        spec("tensor.pool_hit_rate", "ratio", Higher, "tensor"),
        spec("tensor.pool_misses_per_step", "count", Lower, "tensor"),
    ];
    for op in KERNELS {
        out.extend(kernel_specs(op));
    }
    out.extend([
        spec("tensor.csr_transpose.ms_per_step", "ms", Lower, "tensor"),
        spec(
            "tensor.csr_transpose.calls_per_step",
            "count",
            Lower,
            "tensor",
        ),
        spec("core.alpha_ms", "ms", Lower, "core"),
        spec("core.omega_ms", "ms", Lower, "core"),
        spec("core.cluster_ms", "ms", Lower, "core"),
        spec("core.prox_ms", "ms", Lower, "core"),
        spec("core.eval_ms", "ms", Lower, "core"),
        spec("core.probe_epoch_ms", "ms", Lower, "core"),
        spec("core.sample_batch_ms", "ms", Lower, "core"),
        spec("core.batch_nodes", "count", Lower, "core"),
        spec("core.batch_edges", "count", Lower, "core"),
        spec("ckpt.write_ms", "ms", Lower, "ckpt"),
        spec("ckpt.snapshot_bytes", "B", Lower, "ckpt"),
        spec("ckpt.writes_per_step", "count", Lower, "ckpt"),
        spec("serve.queue_wait_us_p50", "us", Lower, "serve"),
        spec("serve.queue_wait_us_p99", "us", Lower, "serve"),
        spec("serve.batch_wait_us_p50", "us", Lower, "serve"),
        spec("serve.batch_wait_us_p99", "us", Lower, "serve"),
        spec("serve.compute_us_p50", "us", Lower, "serve"),
        spec("serve.compute_us_p99", "us", Lower, "serve"),
        spec("serve.mean_batch", "count", Higher, "serve"),
        spec("serve.forwards_per_classify", "ratio", Lower, "serve"),
        spec("serve.worker_cpu_us_per_req", "us", Lower, "serve"),
        spec("serve.model_cpu_us_per_req", "us", Lower, "serve"),
        spec("serve.other_cpu_us_per_req", "us", Lower, "serve"),
        spec("serve.classify_p99_ms", "ms", Lower, "serve"),
        spec("serve.gen_late_p99_ms", "ms", Lower, "serve"),
        spec("obs.overhead_pct", "%", Lower, "obs"),
    ]);
    out
}

fn kernel_specs(op: &'static str) -> [Spec; 5] {
    // Built once per process (see `per_layer`), so leaking is bounded.
    let name = |suffix: &str| -> &'static str {
        Box::leak(format!("tensor.{op}.{suffix}").into_boxed_str())
    };
    [
        spec(name("ms_per_step"), "ms", Lower, "tensor"),
        spec(name("calls_per_step"), "count", Lower, "tensor"),
        spec(name("gflops"), "GFLOP/s", Higher, "tensor"),
        spec(name("gbytes_s"), "GB/s", Higher, "tensor"),
        spec(name("roofline_frac"), "ratio", Higher, "tensor"),
    ]
}

/// Looks up a metric's spec among both kinds.
pub fn find_spec(name: &str) -> Option<Spec> {
    END_TO_END
        .iter()
        .copied()
        .chain(per_layer().iter().copied())
        .find(|s| s.name == name)
}

/// One reported metric: its spec and statistics.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Identity.
    pub spec: Spec,
    /// Median, MAD and n.
    pub summary: Summary,
}

/// Shorthand for building a JSON object.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Shorthand for a JSON number.
pub fn num(x: f64) -> Value {
    Value::Num(x)
}

/// Shorthand for a JSON string.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Facts that make a result comparable: revision, machine, settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Git revision of the checkout, or `unknown` outside a git checkout.
    pub revision: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel (tensor) worker threads the program will use.
    pub kernel_threads: usize,
    /// Every `AUTOAC_*` variable set in the environment, sorted.
    pub env: Vec<(String, String)>,
    /// Workload seed.
    pub seed: u64,
    /// `full` or `smoke`.
    pub profile: String,
    /// Measured seconds per workload.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not.
    pub trace: bool,
}

impl Header {
    /// Reads the header facts for this process.
    pub fn collect(seed: u64, smoke: bool, seconds: f64, trace: bool) -> Header {
        let mut env: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("AUTOAC_"))
            .collect();
        env.sort();
        Header {
            revision: git_revision(Path::new(".")),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: crate::sys::cpu_model(),
            kernel_threads: autoac_tensor::parallel::num_threads(),
            env,
            seed,
            profile: if smoke { "smoke" } else { "full" }.to_string(),
            seconds,
            trace,
        }
    }

    /// The header as a JSON object.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("revision", text(&self.revision)),
            ("nproc", num(self.nproc as f64)),
            ("cpu_model", text(&self.cpu_model)),
            ("kernel_threads", num(self.kernel_threads as f64)),
            (
                "env",
                Value::Obj(self.env.iter().map(|(k, v)| (k.clone(), text(v))).collect()),
            ),
            ("seed", num(self.seed as f64)),
            ("profile", text(&self.profile)),
            ("seconds", num(self.seconds)),
            ("trace", Value::Bool(self.trace)),
        ])
    }

    /// Inverse of [`Header::to_json`].
    #[cfg(test)]
    pub fn from_json(v: &Value) -> Option<Header> {
        let env = match v.get("env")? {
            Value::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(Header {
            revision: v.get("revision")?.as_str()?.to_string(),
            nproc: v.get("nproc")?.as_usize()?,
            cpu_model: v.get("cpu_model")?.as_str()?.to_string(),
            kernel_threads: v.get("kernel_threads")?.as_usize()?,
            env,
            seed: v.get("seed")?.as_usize()? as u64,
            profile: v.get("profile")?.as_str()?.to_string(),
            seconds: v.get("seconds")?.as_f64()?,
            trace: matches!(v.get("trace")?, Value::Bool(true)),
        })
    }
}

/// The revision `root/.git` points at: a detached hash, or the hash its
/// branch ref resolves to (loose or packed).
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Failure descriptions kept per run; the count is always exact.
const MAX_FAILURE_NOTES: usize = 20;

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Reported metrics, in spec order.
    pub metrics: Vec<Metric>,
    /// Context that is not a gated metric (per-phase tables, stage
    /// breakdowns, coverage checks).
    pub info: Vec<(String, Value)>,
    /// Per timed metric: the samples dropped because the hypervisor took
    /// the machine during them, the samples taken, and the factor the kept
    /// ones were scaled by (see [`unstolen`]).
    pub stolen: Vec<(String, usize, usize, f64)>,
    /// The host-speed probes and the metrics stated at the reference speed,
    /// with their measured medians (see [`RunResult::at_host_speed`]).
    pub host_speed: Option<Value>,
}

impl RunResult {
    /// Records one checked operation; `Err` describes a wrong output.
    pub fn check(&mut self, outcome: Result<(), String>) {
        let notes = outcome.err().into_iter().collect();
        self.tally(1, 0, notes);
    }

    /// Records `attempted` checked operations of which `failed` went
    /// wrong, plus failure descriptions (each one also counts as failed
    /// when `failed` is smaller than the number of notes).
    pub fn tally(&mut self, attempted: u64, failed: u64, notes: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed.max(notes.len() as u64);
        for e in notes {
            eprintln!("benchmark: check failed: {e}");
            if self.failures.len() < MAX_FAILURE_NOTES {
                self.failures.push(e);
            }
        }
    }

    /// Records a metric by name; panics on a name missing from the specs
    /// (a benchmark bug, not an input problem).
    pub fn metric(&mut self, name: &str, summary: Summary) {
        let spec = find_spec(name).unwrap_or_else(|| panic!("metric {name} has no spec"));
        self.metrics.push(Metric { spec, summary });
    }

    /// Records a timing metric from `(value, steal share)` samples, over
    /// what [`unstolen`] makes of them.
    pub fn timed(&mut self, name: &str, kind: Timed, samples: &[(f64, f64)]) {
        let (kept, factor) = unstolen(samples, kind);
        let dropped = samples.len() - kept.len();
        self.stolen
            .push((name.to_string(), dropped, samples.len(), factor));
        self.metric(name, Summary::of(&kept));
    }

    /// States the named metrics, already recorded, at the reference host
    /// speed: a time (lower is better) times `host.factor()`, a rate divided
    /// by it. The document keeps each measured median.
    pub fn at_host_speed(&mut self, names: &[&str], host: &HostSpeed) {
        let f = host.factor();
        let mut measured = vec![];
        for m in self
            .metrics
            .iter_mut()
            .filter(|m| names.contains(&m.spec.name))
        {
            measured.push((m.spec.name.to_string(), num(m.summary.median)));
            let scale = match m.spec.better {
                Lower => f,
                Higher => 1.0 / f,
            };
            m.summary.median *= scale;
            m.summary.mad *= scale;
        }
        self.host_speed = Some(obj(vec![
            ("probe_ms", num(host.probe_ms())),
            ("probes", num(host.probes() as f64)),
            ("reference_probe_ms", num(REFERENCE_PROBE_MS)),
            ("factor", num(f)),
            ("measured_medians", Value::Obj(measured)),
        ]));
    }

    /// Records metrics of layers this workload does not exercise.
    pub fn idle(&mut self, names: &[&str]) {
        for name in names {
            self.metric(name, Summary::idle());
        }
    }

    /// Adds an informational entry to the document.
    pub fn info(&mut self, key: &str, v: Value) {
        self.info.push((key.to_string(), v));
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Orders metrics by their spec list and verifies that exactly the
    /// expected set was reported.
    pub fn finish(&mut self, expected: &[Spec]) {
        let missing: Vec<&str> = expected
            .iter()
            .filter(|s| !self.metrics.iter().any(|m| m.spec.name == s.name))
            .map(|s| s.name)
            .collect();
        assert!(missing.is_empty(), "benchmark did not report {missing:?}");
        let bad: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| !m.summary.median.is_finite())
            .map(|m| m.spec.name)
            .collect();
        assert!(
            bad.is_empty(),
            "benchmark measured no finite value for {bad:?}"
        );
        let order = |name: &str| {
            expected
                .iter()
                .position(|s| s.name == name)
                .unwrap_or(usize::MAX)
        };
        self.metrics.sort_by_key(|m| order(m.spec.name));
        self.metrics.retain(|m| order(m.spec.name) != usize::MAX);
    }

    /// The full document for one workload.
    pub fn document(&self, workload: &str, header: &Header) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.spec.name.to_string(),
                    obj(vec![
                        ("unit", text(m.spec.unit)),
                        ("better", text(m.spec.better.tag())),
                        ("layer", text(m.spec.layer)),
                        ("median", num(m.summary.median)),
                        ("mad", num(m.summary.mad)),
                        ("n", num(m.summary.n as f64)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("schema", text("autoac-benchmark/1")),
            ("workload", text(workload)),
            ("header", header.to_json()),
            ("correct", Value::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(text).collect()),
            ),
            ("metrics", Value::Obj(metrics)),
            (
                "steal",
                Value::Obj(
                    self.stolen
                        .iter()
                        .map(|(name, dropped, of, factor)| {
                            let counts = obj(vec![
                                ("dropped", num(*dropped as f64)),
                                ("of", num(*of as f64)),
                                ("scaled_by", num(*factor)),
                            ]);
                            (name.clone(), counts)
                        })
                        .collect(),
                ),
            ),
            ("host_speed", self.host_speed.clone().unwrap_or(Value::Null)),
            ("info", Value::Obj(self.info.clone())),
        ])
    }

    /// The one-line result a regression harness reads: reported value and
    /// unit per metric.
    pub fn result_line(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.spec.name.to_string(),
                    obj(vec![
                        ("value", num(m.summary.median)),
                        ("unit", text(m.spec.unit)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", num(self.attempted.max(1) as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// Serializes `v` and proves `autoac_data::json` reads it back to the same
/// text; a mismatch (non-finite numbers, escaping bugs) is a benchmark bug.
pub fn checked_json(v: &Value) -> String {
    let out = json::to_string(v);
    let back = json::parse(&out).unwrap_or_else(|e| panic!("benchmark emitted invalid JSON: {e}"));
    assert_eq!(
        json::to_string(&back),
        out,
        "benchmark JSON does not round-trip"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header {
            revision: "0123abcd".into(),
            nproc: 2,
            cpu_model: "Test CPU \"quoted\" @ 2.1GHz".into(),
            kernel_threads: 2,
            env: vec![("AUTOAC_NUM_THREADS".into(), "1".into())],
            seed: 7,
            profile: "smoke".into(),
            seconds: 2.5,
            trace: true,
        }
    }

    #[test]
    fn header_json_round_trip() {
        let h = header();
        let text = checked_json(&h.to_json());
        let back = Header::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn metric_names_are_unique_and_valid() {
        let all: Vec<Spec> = END_TO_END
            .iter()
            .copied()
            .chain(per_layer().iter().copied())
            .collect();
        for (i, s) in all.iter().enumerate() {
            assert!(s.name.len() <= 64 && s.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(s.unit.len() <= 16);
            assert!(
                all[..i].iter().all(|o| o.name != s.name),
                "duplicate {}",
                s.name
            );
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut r = RunResult::default();
        r.check(Ok(()));
        r.metric("setup_s", Summary::of(&[0.5, 0.7, 0.6]));
        let line = checked_json(&r.result_line());
        let v = json::parse(&line).unwrap();
        let Value::Obj(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("value"),
            Some(&num(0.6))
        );
    }

    #[test]
    fn host_speed_scales_times_down_and_rates_up_on_a_slow_host() {
        let mut r = RunResult::default();
        r.metric("model_step_ms", Summary::of(&[100.0, 110.0, 90.0]));
        r.metric("throughput_per_s", Summary::one(10.0));
        r.metric("test_micro_f1", Summary::one(0.8));
        // Probes twice the reference time, one of them stolen and dropped.
        let slow = 2.0 * REFERENCE_PROBE_MS;
        let host = HostSpeed::from_probes(vec![(slow, 0.0), (slow, 0.0), (50.0, 0.5)]);
        r.at_host_speed(&["model_step_ms", "throughput_per_s"], &host);
        let value = |name: &str| {
            let m = r.metrics.iter().find(|m| m.spec.name == name).unwrap();
            (m.summary.median, m.summary.mad)
        };
        assert_eq!(value("model_step_ms"), (50.0, 5.0));
        assert_eq!(value("throughput_per_s"), (20.0, 0.0));
        assert_eq!(value("test_micro_f1"), (0.8, 0.0));
        let doc = r.host_speed.as_ref().unwrap();
        assert_eq!(doc.get("factor"), Some(&num(0.5)));
        let measured = doc.get("measured_medians").unwrap();
        assert_eq!(measured.get("model_step_ms"), Some(&num(100.0)));
    }

    #[test]
    fn benchmark_json_names_the_metrics_reported_here() {
        // BENCHMARK.json sits at the repository root, one level up.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(raw) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = json::parse(&raw).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |specs: &[Spec]| -> Vec<(String, String, String)> {
            specs
                .iter()
                .map(|s| (s.name.into(), s.unit.into(), s.better.tag().into()))
                .collect()
        };
        assert_eq!(names("end_to_end"), ours(END_TO_END));
        assert_eq!(names("per_layer"), ours(per_layer()));
    }
}
