//! The server proper: acceptor, worker pool, routing, and lifecycle.
//!
//! ## Thread layout
//!
//! ```text
//!  acceptor ──streams──▶ workers (N) ──Job──▶ model thread (1)
//!     │                     │  ▲                  │ logits block, one
//!     │ poll(2), 10 ms      │  └── per-job reply ─┘ forward per checkpoint
//!     ▼                     ▼
//!  shutdown flag      SharedView slot (Arc swap, read-only endpoints)
//! ```
//!
//! The model thread owns the resident checkpoint's logits block and
//! answers classify jobs by copying rows out of it; it is also where a
//! reload builds the (non-`Send`) pipeline and runs the new checkpoint's
//! one forward before the swap.
//!
//! ## Graceful shutdown
//!
//! `POST /admin/shutdown`, a SIGINT/SIGTERM (when [`signals::install`]ed),
//! or [`ServerHandle::request_shutdown`] sets one atomic flag. The
//! acceptor stops accepting and exits, which disconnects the stream
//! channel; each worker finishes the request it is on (including waiting
//! for its batch reply), notices the flag at the next request boundary,
//! and exits; only after every worker has dropped its job sender does the
//! job channel disconnect and the model thread return. The ordering
//! guarantees zero dropped in-flight requests.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use autoac_ckpt::ServeState;
use autoac_data::json::{self, Value};
use autoac_obs::{
    counter_add, flight_record, hist_record_ex, now_ns, warn, FlightKind, SloConfig, SloEngine,
};

use crate::batch::{BatchConfig, Job, JobTiming};
use crate::host::{current_view, SharedView, ViewSlot};
use crate::http::{read_request, write_response, write_response_with, ReadOutcome, Request};
use crate::trace::{Timeline, TraceIds, TraceStore};

/// Upper bound on node ids per classify/attrs request.
pub const MAX_NODES_PER_REQUEST: usize = 4096;

/// How many timelines `GET /debug/traces` returns (the slowest retained).
pub const DEBUG_TRACES_LIMIT: usize = 32;

const JSON_CT: &str = "application/json";
const PROM_CT: &str = "text/plain; version=0.0.4";

/// Server settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker (connection-handling) threads.
    pub workers: usize,
    /// Micro-batching knobs for the model thread.
    pub batch: BatchConfig,
    /// Seed for the trace-id mint: ids are a pure function of this seed
    /// and the accept order, independent of wall clock and OS entropy.
    pub trace_seed: u64,
    /// SLO objective and burn-rate windows for `/slo`.
    pub slo: SloConfig,
    /// Where `POST /admin/flight` writes `FLIGHT_<run>.jsonl`.
    pub flight_dir: std::path::PathBuf,
    /// Run label used in the flight dump filename and meta line.
    pub run: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            batch: BatchConfig::default(),
            trace_seed: 0xa07a_c0de_0000_0001,
            slo: SloConfig::default(),
            flight_dir: std::path::PathBuf::from("results"),
            run: "serve".into(),
        }
    }
}

/// Process-global signal → shutdown-flag bridge, opt-in via
/// [`signals::install`] (the `autoac_serve` binary installs it; library
/// users like tests and the benchmark typically don't).
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Routes SIGINT and SIGTERM into the serving shutdown flag.
    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: installing a handler that only stores an atomic.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    /// No-op off unix.
    #[cfg(not(unix))]
    pub fn install() {}

    /// True once a routed signal has fired.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// Everything a worker needs to serve requests.
#[derive(Clone)]
struct Ctx {
    slot: ViewSlot,
    jobs: Sender<Job>,
    shutdown: Arc<AtomicBool>,
    ids: Arc<TraceIds>,
    traces: Arc<TraceStore>,
    slo: Arc<SloEngine>,
    flight_dir: Arc<std::path::PathBuf>,
    run: Arc<String>,
}

impl Ctx {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signals::requested()
    }
}

/// A running server; dropping it (or calling [`ServerHandle::stop`])
/// shuts it down gracefully.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    model: Option<JoinHandle<()>>,
    /// Held only until `join`: dropping the last job sender is what lets
    /// the model thread exit.
    jobs: Option<Sender<Job>>,
}

/// Alias kept close to the docs' vocabulary.
pub type ServerHandle = Server;

impl Server {
    /// Binds, loads the checkpoint and runs its one forward on the model
    /// thread, and returns once the server is ready to answer requests
    /// (or the checkpoint failed to load).
    pub fn start(state: ServeState, cfg: &ServeConfig) -> io::Result<Server> {
        // `/metrics` is part of the serving contract, so the obs registry
        // must record regardless of AUTOAC_OBS in the environment.
        autoac_obs::set_force(Some(true));
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let (ready_tx, ready_rx) = mpsc::channel();
        let batch = cfg.batch;
        let model = std::thread::Builder::new()
            .name("serve-model".into())
            .spawn(move || crate::batch::run_model_thread(state, batch, jobs_rx, ready_tx))?;
        let slot = match ready_rx.recv() {
            Ok(Ok(slot)) => slot,
            Ok(Err(e)) => {
                let _ = model.join();
                return Err(io::Error::new(io::ErrorKind::InvalidData, e));
            }
            Err(_) => {
                let _ = model.join();
                return Err(io::Error::new(io::ErrorKind::Other, "model thread died during load"));
            }
        };

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let ctx = Ctx {
            slot,
            jobs: jobs_tx.clone(),
            shutdown: Arc::clone(&shutdown),
            ids: Arc::new(TraceIds::new(cfg.trace_seed)),
            traces: Arc::new(TraceStore::new()),
            slo: Arc::new(SloEngine::new(cfg.slo)),
            flight_dir: Arc::new(cfg.flight_dir.clone()),
            run: Arc::new(cfg.run.clone()),
        };
        flight_record(
            FlightKind::Lifecycle,
            0,
            u64::from(addr.port()),
            &format!("server ready on {addr}"),
        );

        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&conn_rx);
            let ctx = ctx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(rx, ctx))?,
            );
        }

        let flag = Arc::clone(&shutdown);
        let acceptor = std::thread::Builder::new().name("serve-accept".into()).spawn(move || {
            accept_loop(listener, conn_tx, flag);
        })?;

        Ok(Server {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            workers,
            model: Some(model),
            jobs: Some(jobs_tx),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown without waiting.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the server to finish — it only does once shutdown is
    /// requested via flag, signal, or `POST /admin/shutdown`.
    pub fn join(mut self) {
        self.join_inner();
    }

    /// Requests shutdown and waits for completion.
    pub fn stop(self) {
        self.request_shutdown();
        self.join();
    }

    fn join_inner(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Last sender gone → model thread's channel disconnects → exits.
        self.jobs = None;
        if let Some(h) = self.model.take() {
            let _ = h.join();
            flight_record(FlightKind::Shutdown, 0, 0, "server stopped (all threads joined)");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.request_shutdown();
        self.join_inner();
    }
}

/// How long the acceptor waits for a connection before it rechecks the
/// shutdown flag: the bound on shutdown and SIGTERM latency.
const ACCEPT_WAIT: Duration = Duration::from_millis(10);

/// Blocks until `listener` has a pending connection or [`ACCEPT_WAIT`]
/// passes, whichever is first.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener) {
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type NFds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 };
    // SAFETY: `fd` is one live, exclusively borrowed pollfd and nfds is 1;
    // the listener outlives the call. Any result (ready, timeout, EINTR)
    // just sends the caller back to its flag check and `accept`.
    unsafe {
        poll(&mut fd, 1, ACCEPT_WAIT.as_millis() as i32);
    }
}

/// Sleeps [`ACCEPT_WAIT`] where `poll(2)` is not declared.
#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener) {
    std::thread::sleep(ACCEPT_WAIT);
}

fn accept_loop(listener: TcpListener, conn_tx: Sender<TcpStream>, shutdown: Arc<AtomicBool>) {
    loop {
        if shutdown.load(Ordering::SeqCst) || signals::requested() {
            return; // drops conn_tx; workers drain the queue then exit
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Responses are small and latency-bound; never Nagle them.
                let _ = stream.set_nodelay(true);
                if conn_tx.send(stream).is_err() {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                wait_for_connection(&listener);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                warn("serve", &format!("accept failed: {e}"));
                std::thread::sleep(ACCEPT_WAIT);
            }
        }
    }
}

fn worker_loop(conn_rx: Arc<Mutex<mpsc::Receiver<TcpStream>>>, ctx: Ctx) {
    loop {
        // Holding the lock across `recv` is the classic shared-queue
        // pattern: exactly one idle worker waits, the rest park on the
        // mutex; disconnect (acceptor gone) wakes them all in turn.
        let stream = {
            let rx = conn_rx.lock().unwrap_or_else(|p| p.into_inner());
            rx.recv()
        };
        match stream {
            Ok(stream) => handle_connection(stream, &ctx),
            Err(_) => return,
        }
    }
}

fn handle_connection(mut stream: TcpStream, ctx: &Ctx) {
    if let Err(e) = stream.set_read_timeout(Some(Duration::from_millis(100))) {
        warn("serve", &format!("set_read_timeout failed: {e}"));
        return;
    }
    let mut buf = Vec::new();
    loop {
        match read_request(&mut stream, &mut buf, &ctx.ids) {
            Ok(ReadOutcome::Request(req)) => {
                let keep = req.keep_alive;
                if let Err(e) = route(&mut stream, &req, ctx) {
                    warn("serve", &format!("response write failed: {e}"));
                    return;
                }
                // A hammering keep-alive client never lets the stream go
                // idle, so the stopping check must also sit here or a
                // signal/`/admin/shutdown` could never finish joining.
                if !keep || ctx.stopping() {
                    return;
                }
            }
            Ok(ReadOutcome::Idle) => {
                if ctx.stopping() {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Bad(status, msg)) => {
                counter_add("serve_errors_total", 1);
                let _ = respond_error(&mut stream, status, msg, false);
                return;
            }
            Err(e) => {
                warn("serve", &format!("read failed: {e}"));
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// The single request funnel: every route — success or error — leaves
/// through one response write, so the trace timeline, the SLO observation,
/// the flight-recorder request summary, and the latency exemplars are
/// recorded for *every* request exactly once.
fn route(stream: &mut TcpStream, req: &Request, ctx: &Ctx) -> io::Result<()> {
    counter_add("serve_requests_total", 1);
    let keep = req.keep_alive;
    let t0 = Instant::now();
    let mut nodes = 0usize;
    let mut timing = JobTiming::default();
    let outcome: Result<(&'static str, Vec<u8>), (u16, String)> =
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/classify") => classify(req, ctx).map(|(doc, t, n)| {
                timing = t;
                nodes = n;
                (JSON_CT, json::to_string(&doc).into_bytes())
            }),
            ("POST", "/v1/attrs") => attrs(req, ctx).map(|(doc, n)| {
                nodes = n;
                (JSON_CT, json::to_string(&doc).into_bytes())
            }),
            ("GET", "/healthz") => Ok((JSON_CT, json::to_string(&healthz(ctx)).into_bytes())),
            ("GET", "/metrics") => {
                // Publish SLO gauges into the registry first, so the
                // scrape that follows sees them.
                let _ = ctx.slo.export_gauges();
                Ok((PROM_CT, autoac_obs::snapshot().prom_dump().into_bytes()))
            }
            ("GET", "/debug/traces") => Ok((JSON_CT, debug_traces(ctx).into_bytes())),
            ("GET", "/slo") => {
                Ok((JSON_CT, json::to_string(&slo_doc(&ctx.slo.status())).into_bytes()))
            }
            ("POST", "/admin/flight") => {
                flight_dump(ctx).map(|doc| (JSON_CT, json::to_string(&doc).into_bytes()))
            }
            ("POST", "/admin/reload") => {
                reload(req, ctx).map(|doc| (JSON_CT, json::to_string(&doc).into_bytes()))
            }
            ("POST", "/admin/shutdown") => {
                flight_record(
                    FlightKind::Shutdown,
                    req.trace_id,
                    0,
                    "shutdown requested via POST /admin/shutdown",
                );
                ctx.shutdown.store(true, Ordering::SeqCst);
                let doc = Value::Obj(vec![("ok".into(), Value::Bool(true))]);
                Ok((JSON_CT, json::to_string(&doc).into_bytes()))
            }
            (
                _,
                "/v1/classify" | "/v1/attrs" | "/admin/reload" | "/admin/shutdown"
                | "/admin/flight",
            ) => Err((405, "use POST".to_string())),
            (_, "/healthz" | "/metrics" | "/slo" | "/debug/traces") => {
                Err((405, "use GET".to_string()))
            }
            _ => Err((404, format!("no route for {}", req.path))),
        };
    let (status, ctype, body) = match outcome {
        Ok((ct, b)) => (200, ct, b),
        Err((status, msg)) => {
            counter_add("serve_errors_total", 1);
            let b = json::to_string(&Value::Obj(vec![("error".into(), Value::Str(msg))]));
            (status, JSON_CT, b.into_bytes())
        }
    };
    let hist = match req.path.as_str() {
        "/v1/classify" => "serve_classify_ns",
        "/v1/attrs" => "serve_attrs_ns",
        "/metrics" => "serve_metrics_ns",
        _ => "serve_other_ns",
    };
    hist_record_ex(hist, t0.elapsed().as_nanos() as f64, req.trace_id);
    if timing.batch_size > 0 {
        hist_record_ex("serve_queue_wait_ns", timing.queue_ns as f64, req.trace_id);
        hist_record_ex("serve_batch_wait_ns", timing.batch_wait_ns as f64, req.trace_id);
        hist_record_ex("serve_compute_ns", timing.compute_ns as f64, req.trace_id);
    }
    let extra = [("x-autoac-trace", format!("{:016x}", req.trace_id))];
    let write_start = Instant::now();
    let res = write_response_with(stream, status, ctype, &body, keep, &extra);
    let write_ns = write_start.elapsed().as_nanos() as u64;
    let total_ns = now_ns().saturating_sub(req.t0_ns);
    ctx.slo.observe(total_ns as f64, status >= 500);
    flight_record(
        FlightKind::Request,
        req.trace_id,
        total_ns,
        &format!("{status} {} {}", req.method, req.path),
    );
    ctx.traces.push(Timeline {
        trace_id: req.trace_id,
        t0_ns: req.t0_ns,
        method: req.method.clone(),
        path: req.path.clone(),
        status,
        nodes,
        batch_size: timing.batch_size,
        parse_ns: req.parse_ns,
        queue_ns: timing.queue_ns,
        batch_wait_ns: timing.batch_wait_ns,
        compute_ns: timing.compute_ns,
        write_ns,
        total_ns,
    });
    res
}

/// `GET /debug/traces` body: the slowest retained timelines, slowest
/// first, serialized by [`Timeline::to_json`].
fn debug_traces(ctx: &Ctx) -> String {
    let items: Vec<String> =
        ctx.traces.slowest(DEBUG_TRACES_LIMIT).iter().map(Timeline::to_json).collect();
    format!("{{\"count\":{},\"traces\":[{}]}}", items.len(), items.join(","))
}

fn window_doc(w: &autoac_obs::WindowStat) -> Value {
    // /slo is strict JSON: quantiles over an empty window are NaN, which
    // the encoder would print as null — map them to 0 like the gauges do.
    let fin = |v: f64| Value::Num(if v.is_finite() { v } else { 0.0 });
    Value::Obj(vec![
        ("ticks".into(), Value::Num(w.ticks as f64)),
        ("total".into(), Value::Num(w.total as f64)),
        ("errors".into(), Value::Num(w.errors as f64)),
        ("bad".into(), Value::Num(w.bad as f64)),
        ("error_rate".into(), fin(w.error_rate)),
        ("bad_rate".into(), fin(w.bad_rate)),
        ("burn_rate".into(), fin(w.burn_rate)),
        ("p50_ns".into(), fin(w.p50_ns)),
        ("p90_ns".into(), fin(w.p90_ns)),
        ("p99_ns".into(), fin(w.p99_ns)),
    ])
}

fn slo_doc(s: &autoac_obs::SloStatus) -> Value {
    Value::Obj(vec![
        ("objective_ns".into(), Value::Num(s.objective_ns)),
        ("target".into(), Value::Num(s.target)),
        ("burn_fast_threshold".into(), Value::Num(s.burn_fast_threshold)),
        ("burn_slow_threshold".into(), Value::Num(s.burn_slow_threshold)),
        ("firing".into(), Value::Bool(s.firing)),
        ("fast".into(), window_doc(&s.fast)),
        ("slow".into(), window_doc(&s.slow)),
    ])
}

/// `POST /admin/flight`: dumps the ring to `FLIGHT_<run>.jsonl` under the
/// configured directory and reports where it went.
fn flight_dump(ctx: &Ctx) -> Result<Value, (u16, String)> {
    match autoac_obs::flight_dump_to(&ctx.flight_dir, &ctx.run) {
        Ok((path, records)) => Ok(Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("path".into(), Value::Str(path.display().to_string())),
            ("records".into(), Value::Num(records as f64)),
        ])),
        Err(e) => Err((500, format!("flight dump failed: {e}"))),
    }
}

fn respond_error(stream: &mut TcpStream, status: u16, msg: &str, keep: bool) -> io::Result<()> {
    let body = json::to_string(&Value::Obj(vec![("error".into(), Value::Str(msg.into()))]));
    write_response(stream, status, "application/json", body.as_bytes(), keep)
}

type Handled = Result<Value, (u16, String)>;

/// Parses and bounds-checks the `{"nodes": [...]}` request body.
fn parse_nodes(body: &[u8], view: &SharedView) -> Result<Vec<usize>, (u16, String)> {
    let text = std::str::from_utf8(body).map_err(|_| (400, "body is not utf-8".to_string()))?;
    let doc = json::parse(text).map_err(|e| (400, format!("bad json: {e}")))?;
    let nodes = doc
        .get("nodes")
        .and_then(Value::as_arr)
        .ok_or_else(|| (400, "body must be an object with a \"nodes\" array".to_string()))?;
    if nodes.is_empty() {
        return Err((400, "\"nodes\" must not be empty".to_string()));
    }
    if nodes.len() > MAX_NODES_PER_REQUEST {
        return Err((400, format!("at most {MAX_NODES_PER_REQUEST} nodes per request")));
    }
    nodes
        .iter()
        .map(|v| match v.as_usize() {
            Some(n) if n < view.num_nodes => Ok(n),
            Some(n) => Err((400, format!("node {n} out of range (graph has {})", view.num_nodes))),
            None => Err((400, "node ids must be non-negative integers".to_string())),
        })
        .collect()
}

fn classify(req: &Request, ctx: &Ctx) -> Result<(Value, JobTiming, usize), (u16, String)> {
    let view = current_view(&ctx.slot);
    let nodes = parse_nodes(&req.body, &view)?;
    let node_count = nodes.len();
    let (reply_tx, reply_rx) = mpsc::channel();
    ctx.jobs
        .send(Job::Classify {
            nodes,
            reply: reply_tx,
            enqueued_ns: now_ns(),
        })
        .map_err(|_| (503, "model thread unavailable".to_string()))?;
    let reply = reply_rx.recv().map_err(|_| (503, "model thread unavailable".to_string()))?;
    let results = reply
        .rows
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("node".into(), Value::Num(r.node as f64)),
                ("label".into(), Value::Num(r.label as f64)),
                ("logits".into(), Value::Arr(r.logits.iter().map(|&v| Value::Num(v as f64)).collect())),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("ckpt".into(), Value::Str(reply.ckpt)),
        ("results".into(), Value::Arr(results)),
    ]);
    Ok((doc, reply.timing, node_count))
}

fn attrs(req: &Request, ctx: &Ctx) -> Result<(Value, usize), (u16, String)> {
    let view = current_view(&ctx.slot);
    let nodes = parse_nodes(&req.body, &view)?;
    let node_count = nodes.len();
    let results = nodes
        .iter()
        .map(|&n| {
            // Bounds were checked against this same view.
            let row = view.attr_row(n).unwrap_or(&[]);
            Value::Obj(vec![
                ("node".into(), Value::Num(n as f64)),
                ("attrs".into(), Value::Arr(row.iter().map(|&v| Value::Num(v as f64)).collect())),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("ckpt".into(), Value::Str(view.info.config_fp_hex.clone())),
        ("dim".into(), Value::Num(view.attr_dim as f64)),
        ("results".into(), Value::Arr(results)),
    ]);
    Ok((doc, node_count))
}

fn healthz(ctx: &Ctx) -> Value {
    let view = current_view(&ctx.slot);
    Value::Obj(vec![
        ("status".into(), Value::Str("ok".into())),
        ("ckpt".into(), Value::Str(view.info.config_fp_hex.clone())),
        ("backbone".into(), Value::Str(view.info.backbone.clone())),
        ("preset".into(), Value::Str(view.info.preset.clone())),
        ("nodes".into(), Value::Num(view.num_nodes as f64)),
        ("classes".into(), Value::Num(view.num_classes as f64)),
        ("attr_dim".into(), Value::Num(view.attr_dim as f64)),
        ("epochs".into(), Value::Num(view.info.epochs_done as f64)),
        ("macro_f1".into(), Value::Num(view.info.macro_f1)),
        ("micro_f1".into(), Value::Num(view.info.micro_f1)),
    ])
}

fn reload(req: &Request, ctx: &Ctx) -> Handled {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| (400, "body is not utf-8".to_string()))?;
    let doc = json::parse(text).map_err(|e| (400, format!("bad json: {e}")))?;
    let path = doc
        .get("checkpoint")
        .and_then(Value::as_str)
        .ok_or_else(|| (400, "body must carry a \"checkpoint\" path".to_string()))?;
    let state = ServeState::read(std::path::Path::new(path))
        .map_err(|e| (400, format!("cannot load checkpoint: {e}")))?;
    let (reply_tx, reply_rx) = mpsc::channel();
    ctx.jobs
        .send(Job::Reload { state: Box::new(state), reply: reply_tx })
        .map_err(|_| (503, "model thread unavailable".to_string()))?;
    match reply_rx.recv() {
        Ok(Ok(info)) => Ok(Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("ckpt".into(), Value::Str(info.config_fp_hex)),
        ])),
        Ok(Err(msg)) => Err((409, msg)),
        Err(_) => Err((503, "model thread unavailable".to_string())),
    }
}
