//! The serving workload: a small AutoAC model trained untimed, served
//! in-process over HTTP, and driven from one generator thread, with every
//! response checked. An untraced run repeats, until its time is used, a
//! round of short phases: classify and attrs open loop at a fixed
//! reference rate, then classify closed loop at saturation. A traced run
//! holds the reference rate for half its time and attributes it to the
//! serving stages and threads, then times the served forward and its
//! kernels.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use autoac_ckpt::ServeState;
use autoac_core::{
    train_serve_state, Backbone, ClsOutcome, InferenceModel, ServeTrainSpec, TrainConfig,
};
use autoac_data::json::{self, Value};
use autoac_data::{presets, synth, Dataset, Scale};
use autoac_graph::OpCache;
use autoac_nn::GnnConfig;
use autoac_obs::SloConfig;
use autoac_serve::{BatchConfig, ServeConfig, Server};

use crate::doc::{num, obj, text, RunResult};
use crate::layers::{self, Traced};
use crate::openloop::{self, Conn, Kind, PhaseStats, Planned, Response, NODES_PER_REQUEST};
use crate::stats::{median, percentile, tail_percentile, unstolen, Summary, Timed};
use crate::sys::{self, HostSpeed, Stopwatch};
use crate::{probe, Opts};

/// Workload name.
pub const NAME: &str = "serve-open";
/// The serving SLO's latency objective (p99).
const P99_LIMIT_MS: f64 = 25.0;
/// Keep-alive connections; never more than the cores the box has.
const CONNECTIONS: usize = 2;
/// The fixed open-loop rate latency and CPU time are measured at.
const REF_RATE: f64 = 500.0;
/// Requests a saturation phase keeps in flight on each connection.
const DEPTH: usize = 8;
/// Length of one phase of an untraced run.
const PHASE_S: f64 = 0.6;
/// Slice of a phase whose median latency, or answered count, is one
/// sample.
const WINDOW_S: f64 = 0.2;

/// The model trained for serving: no search (every missing node completed
/// by the mean op), then a fixed 60-epoch budget.
fn train_spec(seed: u64, smoke: bool) -> ServeTrainSpec {
    let epochs = if smoke { 4 } else { 60 };
    ServeTrainSpec {
        preset: "imdb".into(),
        scale: if smoke { "tiny" } else { "small" }.into(),
        data_seed: seed,
        backbone: Backbone::Gcn,
        gnn: GnnConfig {
            in_dim: 16,
            hidden: 16,
            out_dim: 0,
            layers: 2,
            heads: 2,
            dropout: 0.0,
            slope: 0.05,
            edge_dim: 32,
            beta: 0.05,
        },
        train: TrainConfig {
            epochs,
            patience: epochs,
            lr: 5e-3,
            weight_decay: 1e-4,
        },
        search: None,
        seed,
    }
}

fn serve_config(flight_dir: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: CONNECTIONS,
        batch: BatchConfig {
            batching: true,
            batch_max: 64,
            flush_us: 200,
        },
        trace_seed: 0xa07a_c0de_0000_0001,
        slo: SloConfig {
            latency_objective_ns: P99_LIMIT_MS * 1e6,
            availability_target: 0.999,
            tick_ns: 1_000_000_000,
            fast_ticks: 60,
            slow_ticks: 300,
            burn_fast: 14.4,
            burn_slow: 6.0,
        },
        flight_dir: flight_dir.to_path_buf(),
        run: "benchmark".into(),
    }
}

/// Checks one response against its request: 200, one row per requested
/// node in order, labels below the class count, full-width rows.
fn check_response(p: &Planned, r: &Response, classes: usize, dim: usize) -> Result<(), String> {
    let what = || format!("{:?} {:?}", p.kind, p.nodes);
    if r.status != 200 {
        return Err(format!("{} answered {}", what(), r.status));
    }
    let body = std::str::from_utf8(&r.body).map_err(|_| format!("{}: non-utf8 body", what()))?;
    let doc = json::parse(body).map_err(|e| format!("{}: {e}", what()))?;
    let rows = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no results", what()))?;
    if rows.len() != p.nodes.len() {
        return Err(format!(
            "{}: {} rows for {} nodes",
            what(),
            rows.len(),
            p.nodes.len()
        ));
    }
    for (row, &node) in rows.iter().zip(&p.nodes) {
        if row.get("node").and_then(Value::as_usize) != Some(node as usize) {
            return Err(format!("{}: rows out of order", what()));
        }
        let ok = match p.kind {
            Kind::Classify => {
                row.get("label")
                    .and_then(Value::as_usize)
                    .is_some_and(|l| l < classes)
                    && row
                        .get("logits")
                        .and_then(Value::as_arr)
                        .is_some_and(|l| l.len() == classes)
            }
            Kind::Attrs => row
                .get("attrs")
                .and_then(Value::as_arr)
                .is_some_and(|a| a.len() == dim),
        };
        if !ok {
            return Err(format!("{}: bad row {}", what(), json::to_string(row)));
        }
    }
    Ok(())
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: autoac\r\n\r\n").into_bytes()
}

const TIMEOUT: Duration = Duration::from_secs(30);

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        if let Ok(mut c) = Conn::open(addr) {
            if c.round_trip(&get("/healthz"), TIMEOUT)
                .is_ok_and(|r| r.status == 200)
            {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err("server never became healthy".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Starts a server on `state` and waits until `/healthz` answers, timing
/// both into `times` as `(seconds, steal share)`.
fn start_timed(state: &ServeState, cfg: &ServeConfig, times: &mut Vec<(f64, f64)>) -> Server {
    let watch = Stopwatch::start();
    let server = Server::start(state.clone(), cfg).expect("server starts");
    wait_healthy(server.addr()).expect("server answers /healthz");
    times.push(watch.stop());
    server
}

/// The canonical probe requests: classify and attrs for each node set the
/// load uses.
fn probe_set(sets: &[[u32; NODES_PER_REQUEST]]) -> Vec<Planned> {
    sets.iter()
        .flat_map(|&nodes| {
            [Kind::Classify, Kind::Attrs].map(|kind| Planned {
                due_ns: 0,
                conn: 0,
                kind,
                nodes,
            })
        })
        .collect()
}

fn run_probes(conn: &mut Conn, probes: &[Planned]) -> Vec<Result<Vec<u8>, String>> {
    probes
        .iter()
        .map(|p| conn.round_trip(&p.bytes(), TIMEOUT).map(|r| r.body))
        .collect()
}

/// Compares a probe pass with the first one, byte for byte.
fn compare_probes(
    label: &str,
    base: &[Result<Vec<u8>, String>],
    now: &[Result<Vec<u8>, String>],
    res: &mut RunResult,
) {
    let notes: Vec<String> = base
        .iter()
        .zip(now)
        .enumerate()
        .filter(|(_, (a, b))| !matches!((a, b), (Ok(x), Ok(y)) if x == y))
        .map(|(i, _)| format!("probe request {i} changed or failed at {label}"))
        .collect();
    res.tally(base.len() as u64, 0, notes);
}

/// `/metrics` gauges and counters the stage breakdown needs.
fn scrape(conn: &mut Conn) -> Vec<(String, f64)> {
    let Ok(r) = conn.round_trip(&get("/metrics"), TIMEOUT) else {
        return Vec::new();
    };
    String::from_utf8_lossy(&r.body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((
                name.strip_prefix("autoac_")?.to_string(),
                value.parse().ok()?,
            ))
        })
        .collect()
}

fn scraped(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// One phase's row of the document; a saturation phase has no offered
/// rate and no lateness (both `null`).
fn phase_doc(label: &str, kind: Kind, st: &PhaseStats, steal: f64) -> Value {
    let mut sorted: Vec<f64> = st.latency.iter().map(|&(_, ms)| ms).collect();
    sorted.sort_by(f64::total_cmp);
    let tail = tail_percentile(sorted.len());
    obj(vec![
        ("phase", text(label)),
        ("endpoint", text(format!("{kind:?}"))),
        ("rate", num(st.rate)),
        ("seconds", num(st.seconds)),
        ("offered", num(st.offered as f64)),
        ("in_time", num(st.in_time as f64)),
        ("answered_per_s", num(st.in_time as f64 / st.seconds)),
        ("completed", num(st.completed as f64)),
        ("failed", num(st.failed as f64)),
        ("n", num(sorted.len() as f64)),
        ("p50_ms", num(median(&sorted))),
        ("p99_ms", num(st.p99_ms())),
        ("tail_percentile", tail.map_or(Value::Null, num)),
        (
            "tail_ms",
            tail.map_or(Value::Null, |p| num(percentile(&sorted, p))),
        ),
        ("gen_late_p99_ms", num(st.late_p99_ms())),
        ("valid", Value::Bool(st.valid())),
        ("steal_share", num(steal)),
    ])
}

fn thread_delta(before: &[(String, f64)], after: &[(String, f64)], prefix: &str) -> f64 {
    let sum = |v: &[(String, f64)]| {
        v.iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, c)| c)
            .sum::<f64>()
    };
    sum(after) - sum(before)
}

/// Process CPU seconds minus the calling (generator) thread's, and every
/// live thread's, at one instant.
struct CpuMark {
    server_s: f64,
    threads: Vec<(String, f64)>,
}

impl CpuMark {
    fn now() -> CpuMark {
        CpuMark {
            server_s: sys::process_cpu_s() - sys::thread_cpu_s(),
            threads: sys::threads_cpu_s(),
        }
    }
}

/// Checks one response against its request.
type Check = dyn Fn(&Planned, &Response) -> Result<(), String>;

/// One phase as the serving loop measured it.
struct Measured {
    st: PhaseStats,
    /// The machine's steal share during the load.
    steal: f64,
    /// CPU time at the start and at the end of the load.
    cpu: [CpuMark; 2],
}

impl Measured {
    /// Server CPU seconds spent during the load.
    fn server_cpu_s(&self) -> f64 {
        self.cpu[1].server_s - self.cpu[0].server_s
    }

    /// Responses that passed their check.
    fn answered(&self) -> f64 {
        self.st.latency.len().max(1) as f64
    }

    /// Each window's median latency, with the phase's steal share.
    fn window_p50s(&self) -> Vec<(f64, f64)> {
        let steal = self.steal;
        self.st
            .window_p50s(WINDOW_S)
            .into_iter()
            .map(|x| (x, steal))
            .collect()
    }

    /// Each window's answered rate, with the phase's steal share.
    fn window_rates(&self) -> Vec<(f64, f64)> {
        let steal = self.steal;
        self.st
            .window_rates(WINDOW_S)
            .into_iter()
            .map(|x| (x, steal))
            .collect()
    }
}

/// What the load needs once the server runs: the served graph, the node
/// sets, the probes and their first responses, the connections, and the
/// phase tables so far.
struct Served {
    data: Dataset,
    classes: usize,
    dim: usize,
    sets: Vec<[u32; NODES_PER_REQUEST]>,
    probes: Vec<Planned>,
    base: Vec<Result<Vec<u8>, String>>,
    conns: Vec<Conn>,
    phases: Vec<Value>,
}

impl Served {
    fn check(&self) -> impl Fn(&Planned, &Response) -> Result<(), String> {
        let (classes, dim) = (self.classes, self.dim);
        move |p, r| check_response(p, r, classes, dim)
    }

    /// Runs one open-loop phase of `kind` requests (see [`Served::measure`]).
    fn phase(
        &mut self,
        label: &str,
        kind: Kind,
        rate: f64,
        seconds: f64,
        seed: u64,
        res: &mut RunResult,
    ) -> Measured {
        let plan = openloop::schedule(seed, rate, seconds, kind, &self.sets, CONNECTIONS);
        let grace = Duration::from_secs_f64(seconds.min(1.0));
        self.measure(label, kind, res, |conns, check| {
            openloop::run_phase(conns, &plan, rate, seconds, grace, TIMEOUT, check)
        })
    }

    /// Runs one classify saturation phase, [`DEPTH`] requests in flight per
    /// connection (see [`Served::measure`]).
    fn saturate(&mut self, label: &str, seconds: f64, res: &mut RunResult) -> Measured {
        let sets = self.sets.clone();
        self.measure(label, Kind::Classify, res, |conns, check| {
            openloop::run_saturated(conns, Kind::Classify, &sets, DEPTH, seconds, TIMEOUT, check)
        })
    }

    /// Runs `load` on the connections with every response checked, notes
    /// the steal share and CPU time around it, then re-runs the probes,
    /// tallies both and adds the phase's row to the document.
    fn measure(
        &mut self,
        label: &str,
        kind: Kind,
        res: &mut RunResult,
        load: impl FnOnce(&mut [Conn], &Check) -> PhaseStats,
    ) -> Measured {
        let check = self.check();
        let (watch, cpu0) = (Stopwatch::start(), CpuMark::now());
        let st = load(&mut self.conns, &check);
        let (cpu1, steal) = (CpuMark::now(), watch.stop().1);
        let now = run_probes(&mut self.conns[0], &self.probes);
        compare_probes(label, &self.base, &now, res);
        res.tally(st.offered as u64, st.failed as u64, st.failures.clone());
        self.phases.push(phase_doc(label, kind, &st, steal));
        Measured {
            st,
            steal,
            cpu: [cpu0, cpu1],
        }
    }

    /// Quality as served: classifies every test node over HTTP and checks
    /// the labels give exactly the checkpoint's test micro-F1.
    fn quality(&mut self, outcome: &ClsOutcome, res: &mut RunResult) -> f64 {
        let mut pred = Vec::new();
        let mut truth = Vec::new();
        for chunk in self.data.split.test.chunks(256) {
            let ids: Vec<String> = chunk.iter().map(u32::to_string).collect();
            let body = format!("{{\"nodes\":[{}]}}", ids.join(","));
            let req = format!(
                "POST /v1/classify HTTP/1.1\r\nHost: autoac\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let classes = self.classes;
            let labels = self.conns[0]
                .round_trip(req.as_bytes(), TIMEOUT)
                .and_then(|r| {
                    let doc = json::parse(&String::from_utf8_lossy(&r.body))
                        .map_err(|e| e.to_string())?;
                    let rows = doc
                        .get("results")
                        .and_then(Value::as_arr)
                        .ok_or("no results")?;
                    rows.iter()
                        .map(|row| {
                            row.get("label")
                                .and_then(Value::as_usize)
                                .filter(|&l| l < classes)
                                .ok_or("bad label".to_string())
                        })
                        .collect::<Result<Vec<usize>, String>>()
                });
            match labels {
                Ok(l) if l.len() == chunk.len() => {
                    res.check(Ok(()));
                    pred.extend(l.iter().map(|&x| x as u32));
                    truth.extend(chunk.iter().map(|&v| self.data.label_of(v)));
                }
                Ok(_) => res.check(Err("test-node classify returned the wrong row count".into())),
                Err(e) => res.check(Err(format!("test-node classify: {e}"))),
            }
        }
        let served_f1 = autoac_eval::f1_scores(&pred, &truth, self.classes).micro_f1;
        res.check(if (served_f1 - outcome.micro_f1).abs() < 1e-12 {
            Ok(())
        } else {
            Err(format!(
                "served test micro-F1 {served_f1} differs from the checkpoint's {}",
                outcome.micro_f1
            ))
        });
        served_f1
    }
}

/// Runs the workload.
pub fn run(opts: &Opts, tmp: &Path) -> RunResult {
    let mut res = RunResult::default();
    let seed = opts.seed;
    let spec = train_spec(seed, opts.smoke);

    let t = Instant::now();
    let scale = Scale::parse(&spec.scale).expect("scale string is valid");
    let preset = presets::by_name(&spec.preset).expect("preset exists");
    let data = synth::generate(&preset, scale, spec.data_seed);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;

    // Untimed: the AutoAC calls that produce the served model.
    let t = Instant::now();
    let (state, outcome) = train_serve_state(&spec).expect("train the served model");
    println!(
        "{NAME}: trained {} epochs in {:.2}s, checkpoint test micro-F1 {:.4}",
        outcome.epochs_run,
        t.elapsed().as_secs_f64(),
        outcome.micro_f1
    );

    let cfg = serve_config(tmp);
    let mut setup_s = vec![];
    let server = start_timed(&state, &cfg, &mut setup_s);
    let setups = crate::setup_count(setup_s[0].0);
    // A traced run times its set-ups here; an untraced run times one in
    // every round of its load, with a second server started and stopped.
    while opts.trace && setup_s.len() < setups {
        start_timed(&state, &cfg, &mut setup_s).stop();
    }
    let addr = server.addr();
    println!(
        "{NAME}: set-up {:.3}s, serving on {addr}",
        median(&unstolen(&setup_s, Timed::Duration).0)
    );

    let sets = openloop::node_sets(data.graph.num_nodes());
    let probes = probe_set(&sets);
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::open(addr).expect("connect to the server"))
        .collect();
    let base = run_probes(&mut conns[0], &probes);
    let (classes, dim) = (data.num_classes, spec.gnn.in_dim);
    for (p, b) in probes.iter().zip(&base) {
        res.check(b.as_ref().map_err(String::clone).and_then(|body| {
            let r = Response {
                status: 200,
                body: body.clone(),
            };
            check_response(p, &r, classes, dim)
        }));
    }
    let mut served = Served {
        data,
        classes,
        dim,
        sets,
        probes,
        base,
        conns,
        phases: vec![],
    };

    if opts.trace {
        traced(&mut served, opts, &mut res);
        served.quality(&outcome, &mut res);
        drop(served.conns);
        server.stop();
        res.info("phases", Value::Arr(served.phases));
        let n_missing = state.assignment.len();
        res.metric("data.generate_ms", Summary::one(generate_ms));
        let t = Instant::now();
        let cache = OpCache::new(&served.data.graph);
        drop(autoac_completion::CompletionContext::build_cached(
            &served.data.graph,
            &served.data.has_attr(),
            &cache,
        ));
        res.metric(
            "graph.setup_ms",
            Summary::one(t.elapsed().as_secs_f64() * 1e3),
        );
        res.metric("completion.missing_nodes", Summary::one(n_missing as f64));
        served_forward(
            &InferenceModel::from_state(&state).expect("load the served model"),
            &mut res,
        );
        res.idle(&[
            "completion.assigned_ms",
            "completion.mixture_ms",
            "nn.encode_ms",
            "nn.forward_ms",
            "tensor.backward_ms",
            "tensor.optim_ms",
            "core.eval_ms",
            "core.probe_epoch_ms",
            "core.sample_batch_ms",
            "core.batch_nodes",
            "core.batch_edges",
            "ckpt.write_ms",
            "ckpt.snapshot_bytes",
        ]);
        return res;
    }

    // Rounds of a classify and an attrs phase at the reference rate and a
    // classify saturation phase, until the run's time is used; a phase
    // also waits for its last responses and re-runs the probes. Every
    // sample carries the steal share of the phase it came from.
    let start = Instant::now();
    let fits = |s: f64| start.elapsed().as_secs_f64() + s + 0.5 <= opts.seconds;
    let phase_s = if opts.smoke { 0.3 } else { PHASE_S };
    let (mut classify_p50, mut attrs_p50) = (vec![], vec![]);
    let (mut cpu_ms, mut saturated) = (vec![], vec![]);
    let mut round = 0u64;
    let mut host = HostSpeed::default();
    while fits(phase_s) {
        round += 1;
        host.tick();
        if setup_s.len() < setups {
            start_timed(&state, &cfg, &mut setup_s).stop();
        }
        let phase_seed = seed ^ (round << 20);
        let m = served.phase(
            &format!("reference-classify-{round}"),
            Kind::Classify,
            REF_RATE,
            phase_s,
            phase_seed,
            &mut res,
        );
        classify_p50.extend(m.window_p50s());
        cpu_ms.push(m.server_cpu_s() / m.answered() * 1e3);
        if fits(phase_s) {
            let m = served.phase(
                &format!("reference-attrs-{round}"),
                Kind::Attrs,
                REF_RATE,
                phase_s,
                phase_seed ^ 1,
                &mut res,
            );
            attrs_p50.extend(m.window_p50s());
        }
        if fits(phase_s) {
            let m = served.saturate(&format!("saturated-{round}"), phase_s, &mut res);
            saturated.extend(m.window_rates());
        }
    }
    println!(
        "  {round} rounds: classify p50 {:.3} ms, attrs p50 {:.3} ms (median windows), \
saturated {:.0}/s",
        median(&unstolen(&classify_p50, Timed::Duration).0),
        median(&unstolen(&attrs_p50, Timed::Duration).0),
        median(&unstolen(&saturated, Timed::Rate).0),
    );
    let served_f1 = served.quality(&outcome, &mut res);
    drop(served.conns);
    server.stop();

    res.info("phases", Value::Arr(served.phases));
    res.timed("setup_s", Timed::Duration, &setup_s);
    res.timed("model_step_ms", Timed::Duration, &classify_p50);
    res.timed("completion_step_ms", Timed::Duration, &attrs_p50);
    res.metric("cpu_ms_per_step", Summary::of(&cpu_ms));
    res.timed("throughput_per_s", Timed::Rate, &saturated);
    res.metric("test_micro_f1", Summary::one(served_f1));
    res.metric("peak_rss_mb", Summary::one(sys::peak_rss_mb()));
    // The attrs read is not stated at the reference speed: its latency
    // does not follow the host's compute speed (see README).
    res.at_host_speed(
        &["model_step_ms", "cpu_ms_per_step", "throughput_per_s"],
        &host,
    );
    res
}

/// The traced run's serving: one classify phase at the reference rate for
/// half the run, attributed to the serving stages (`/metrics`, scraped
/// right after it) and to threads (`/proc`).
fn traced(served: &mut Served, opts: &Opts, res: &mut RunResult) {
    let seconds = opts.seconds * 0.5;
    // Clears the registry `/metrics` reads, so the scrape covers the phase.
    let _ = autoac_obs::drain();
    let m = served.phase(
        "traced-classify",
        Kind::Classify,
        REF_RATE,
        seconds,
        opts.seed ^ 0x7ace,
        res,
    );
    let stages = scrape(&mut served.conns[0]);
    let answered = m.answered();
    let us = |s: f64| Summary::one(s / answered * 1e6);
    let [cpu0, cpu1] = &m.cpu;
    let workers_s = thread_delta(&cpu0.threads, &cpu1.threads, "serve-worker");
    let model_s = thread_delta(&cpu0.threads, &cpu1.threads, "serve-model");
    res.metric("serve.worker_cpu_us_per_req", us(workers_s));
    res.metric("serve.model_cpu_us_per_req", us(model_s));
    res.metric(
        "serve.other_cpu_us_per_req",
        us(m.server_cpu_s() - workers_s - model_s),
    );
    let st = &m.st;
    let stage_us = |name: &str| Summary::one(scraped(&stages, name) / 1e3);
    for (metric, gauge) in [
        ("serve.queue_wait_us_p50", "serve_queue_wait_ns_p50"),
        ("serve.queue_wait_us_p99", "serve_queue_wait_ns_p99"),
        ("serve.batch_wait_us_p50", "serve_batch_wait_ns_p50"),
        ("serve.batch_wait_us_p99", "serve_batch_wait_ns_p99"),
        ("serve.compute_us_p50", "serve_compute_ns_p50"),
        ("serve.compute_us_p99", "serve_compute_ns_p99"),
    ] {
        res.metric(metric, stage_us(gauge));
    }
    let batches = scraped(&stages, "serve_batches_total");
    res.metric(
        "serve.mean_batch",
        Summary::one(scraped(&stages, "serve_batched_requests_total") / batches),
    );
    res.metric(
        "serve.forwards_per_classify",
        Summary::one(batches / scraped(&stages, "serve_classify_ns_count")),
    );
    res.metric("serve.classify_p99_ms", Summary::one(st.p99_ms()));
    res.metric("serve.gen_late_p99_ms", Summary::one(st.late_p99_ms()));
}

/// The served forward (`InferenceModel::logits`) in this thread: its time,
/// obs's cost on it, and its kernels, tensor pool and kernel share per
/// forward, against the machine's ceilings.
fn served_forward(model: &InferenceModel, res: &mut RunResult) {
    let _ = autoac_obs::drain();
    autoac_tensor::pool::reset_stats();
    let (infer, obs_pct) = probe::obs_overhead(|| {
        std::hint::black_box(model.logits());
    });
    let pool = autoac_tensor::pool::stats_reset();
    let report = autoac_obs::drain();
    res.metric("nn.infer_ms", Summary::of(&infer));
    res.metric("obs.overhead_pct", Summary::one(obs_pct));
    let peaks = probe::peaks(res);
    let traced = Traced {
        report: &report,
        wall_s: infer.iter().sum::<f64>() / 1e3,
        pool,
        steps: infer.len() as f64,
    };
    layers::record(&traced, &peaks, res);
}
