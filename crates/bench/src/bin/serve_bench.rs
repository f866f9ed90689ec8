//! Serving benchmark and HTTP driver.
//!
//! Two modes:
//!
//! **In-process A/B (default)** — trains a small checkpoint, then runs the
//! same closed-loop concurrent client load twice against an in-process
//! server: once with micro-batching enabled, once disabled. Reports
//! throughput, client-observed p50/p99 latency (obs power-of-two
//! histogram quantiles), and server-side batch statistics, asserts the
//! two phases' responses are **bitwise identical**, and writes
//! `results/BENCH_serve.json`.
//!
//! **External driver (`--connect HOST:PORT`)** — drives an already
//! running `autoac_serve` process with the same closed-loop load, checks
//! `/healthz`, validates that `/metrics` parses as Prometheus exposition
//! text and counts exactly one served forward (the daemon loads one
//! checkpoint and never reloads, so the load itself must run none),
//! prints the response digest (so `scripts/verify.sh` can diff a batched
//! against an unbatched server), and optionally issues a graceful
//! `POST /admin/shutdown` (`--shutdown`).
//!
//! ```text
//! serve_bench [--smoke] [--out FILE]              # in-process A/B
//! serve_bench --connect HOST:PORT [--clients N] [--requests N]
//!             [--shutdown]                        # drive external server
//! ```
//!
//! `--smoke` clamps the load for CI and, unless `--out` is given
//! explicitly, writes its report to a temp path so a smoke run can never
//! clobber the committed `results/BENCH_serve.json` measurement.
//!
//! A third mode, `--validate-flight PATH`, strictly parses a flight-
//! recorder dump (`FLIGHT_<run>.jsonl`) line by line and exits non-zero
//! on the first malformed record — `scripts/verify.sh` runs it against
//! the dump a terminated daemon leaves behind.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use autoac_core::{train_serve_state, InferenceModel, ServeTrainSpec, TrainConfig};
use autoac_data::json::{self, Value};
use autoac_serve::{BatchConfig, Client, ServeConfig, Server};

/// Fixed pool of node sets every client cycles through, so each (set,
/// checkpoint) pair has one well-defined canonical response.
const NUM_SETS: usize = 32;
const NODES_PER_SET: usize = 4;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn make_sets(num_nodes: usize) -> Vec<Vec<usize>> {
    (0..NUM_SETS)
        .map(|i| (0..NODES_PER_SET).map(|j| (i * 37 + j * 11 + 1) % num_nodes).collect())
        .collect()
}

fn nodes_body(nodes: &[usize]) -> String {
    let ids: Vec<String> = nodes.iter().map(usize::to_string).collect();
    format!("{{\"nodes\":[{}]}}", ids.join(","))
}

struct PhaseStats {
    wall_secs: f64,
    total_requests: usize,
    p50_us: f64,
    p99_us: f64,
    /// Canonical response body per node set.
    canon: Vec<String>,
    digest: u64,
    /// Everything recorded while the phase ran — client latency plus the
    /// server-side `serve_*` counters and histograms (shared registry).
    report: autoac_obs::ObsReport,
}

/// Closed-loop load: `clients` threads, each issuing `requests` classify
/// calls over one keep-alive connection. Asserts that every response for
/// a given node set is identical across clients and over time.
fn run_phase(addr: &str, clients: usize, requests: usize, sets: &[Vec<usize>]) -> PhaseStats {
    let _ = autoac_obs::drain(); // clean slate for the latency histogram
    let sets = Arc::new(sets.to_vec());
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|ci| {
            let sets = Arc::clone(&sets);
            let addr = addr.to_string();
            thread::spawn(move || {
                let mut c = Client::connect(addr.as_str()).expect("connect");
                let mut seen: Vec<Option<String>> = vec![None; sets.len()];
                for i in 0..requests {
                    let si = (ci * 7 + i) % sets.len();
                    let body = nodes_body(&sets[si]);
                    let r0 = Instant::now();
                    let r = c.post("/v1/classify", &body).expect("classify");
                    autoac_obs::hist_record("bench_client_ns", r0.elapsed().as_nanos() as f64);
                    assert_eq!(r.status, 200, "{}", r.text());
                    let text = r.text();
                    match &seen[si] {
                        Some(prev) => assert_eq!(
                            prev, &text,
                            "responses for one node set must never vary"
                        ),
                        None => seen[si] = Some(text),
                    }
                }
                seen
            })
        })
        .collect();

    let mut canon: Vec<Option<String>> = vec![None; sets.len()];
    for h in handles {
        for (si, body) in h.join().expect("client thread").into_iter().enumerate() {
            let Some(body) = body else { continue };
            match &canon[si] {
                Some(prev) => {
                    assert_eq!(prev, &body, "responses must agree across clients")
                }
                None => canon[si] = Some(body),
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();

    let rep = autoac_obs::drain();
    let (p50, p99) = match rep.hists.get("bench_client_ns") {
        Some(h) => (h.quantile(0.5) / 1e3, h.quantile(0.99) / 1e3),
        None => (f64::NAN, f64::NAN),
    };
    let canon: Vec<String> = canon.into_iter().map(Option::unwrap_or_default).collect();
    let mut all = Vec::new();
    for body in &canon {
        all.extend_from_slice(body.as_bytes());
        all.push(b'\n');
    }
    PhaseStats {
        wall_secs,
        total_requests: clients * requests,
        p50_us: p50,
        p99_us: p99,
        digest: fnv1a64(&all),
        canon,
        report: rep,
    }
}

/// Validates Prometheus exposition text: every line is a comment or
/// `name[{labels}] value`, optionally followed by an OpenMetrics exemplar
/// suffix (` # {labels} value`), with parseable values. Returns the
/// series count.
fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut series = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let mut line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Exemplars ride after the sample value: `... # {trace_id="…"} v`.
        // Validate and strip the suffix so the plain-series check below
        // only sees `name{labels} value`.
        if let Some((sample, exemplar)) = line.split_once(" # ") {
            let (labels, ex_value) = exemplar
                .strip_prefix('{')
                .and_then(|rest| rest.split_once("} "))
                .ok_or_else(|| format!("line {}: malformed exemplar: {line:?}", lineno + 1))?;
            if labels.contains('{') || labels.contains('}') {
                return Err(format!("line {}: malformed exemplar labels: {line:?}", lineno + 1));
            }
            if ex_value.parse::<f64>().is_err() {
                return Err(format!("line {}: bad exemplar value {ex_value:?}", lineno + 1));
            }
            line = sample;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let name_end = name_part.find('{').unwrap_or(name_part.len());
        let name = &name_part[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name: {line:?}", lineno + 1));
        }
        if name_part[name_end..].starts_with('{') && !name_part.ends_with('}') {
            return Err(format!("line {}: unclosed label set: {line:?}", lineno + 1));
        }
        let ok = matches!(value_part, "+Inf" | "-Inf" | "NaN")
            || value_part.parse::<f64>().is_ok();
        if !ok {
            return Err(format!("line {}: bad value {value_part:?}", lineno + 1));
        }
        series += 1;
    }
    if series == 0 {
        return Err("no series in exposition text".into());
    }
    Ok(series)
}

fn main() {
    let mut out_path: Option<PathBuf> = None;
    let mut connect: Option<String> = None;
    let mut smoke = false;
    let mut shutdown = false;
    let mut clients = 8usize;
    let mut requests = 200usize;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().expect("flag takes a value");
        match flag.as_str() {
            "--out" => out_path = Some(PathBuf::from(value())),
            "--connect" => connect = Some(value()),
            "--validate-flight" => return validate_flight(&PathBuf::from(value())),
            "--clients" => clients = value().parse().expect("--clients N"),
            "--requests" => requests = value().parse().expect("--requests N"),
            "--smoke" => smoke = true,
            "--shutdown" => shutdown = true,
            other => panic!("unknown flag {other:?}"),
        }
    }
    if smoke {
        clients = clients.min(4);
        requests = requests.min(40);
    }
    // `--smoke` is a correctness pass, not a measurement: unless the
    // caller explicitly routed the output somewhere, keep it away from
    // the committed `results/BENCH_serve.json` artifact.
    let out_path = out_path.unwrap_or_else(|| {
        if smoke {
            std::env::temp_dir().join(format!("BENCH_serve_smoke_{}.json", std::process::id()))
        } else {
            PathBuf::from("results/BENCH_serve.json")
        }
    });
    autoac_obs::set_force(Some(true));

    match connect {
        Some(addr) => drive_external(&addr, clients, requests, shutdown),
        None => ab_benchmark(&out_path, clients, requests, smoke),
    }
}

/// Strictly parses a flight-recorder dump: every line must be valid
/// JSON, the first line must be the ring's meta header, and the body
/// must contain at least the request summaries a served run produces.
fn validate_flight(path: &std::path::Path) {
    let text = fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read flight dump {}: {e}", path.display()));
    let mut records = 0usize;
    for (i, line) in text.lines().enumerate() {
        let v = json::parse(line)
            .unwrap_or_else(|e| panic!("flight line {} invalid: {e}: {line}", i + 1));
        if i == 0 {
            assert_eq!(
                v.get("kind").and_then(Value::as_str),
                Some("flight"),
                "first line must be the ring meta header"
            );
        } else {
            assert!(v.get("kind").and_then(Value::as_str).is_some(), "record without kind");
            records += 1;
        }
    }
    assert!(records > 0, "flight dump has a header but no records");
    println!("flight dump: ok ({records} records, {})", path.display());
}

/// p50 of a server-side stage histogram in microseconds; `0.0` when the
/// stage never fired (keeps the JSON artifact strictly parseable —
/// `NaN` is not JSON).
fn stage_p50_us(rep: &autoac_obs::ObsReport, name: &str) -> f64 {
    rep.hists.get(name).filter(|h| h.count > 0).map_or(0.0, |h| h.quantile(0.5) / 1e3)
}

fn drive_external(addr: &str, clients: usize, requests: usize, shutdown: bool) {
    let mut c = Client::connect(addr).expect("connect");
    let health = c.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200, "{}", health.text());
    let doc = json::parse(&health.text()).expect("healthz json");
    let num_nodes = doc.get("nodes").and_then(Value::as_usize).expect("nodes field");
    let ckpt = doc.get("ckpt").and_then(Value::as_str).expect("ckpt field").to_string();
    println!("healthz: ok, ckpt={ckpt}, nodes={num_nodes}");

    let sets = make_sets(num_nodes);
    let stats = run_phase(addr, clients, requests, &sets);
    println!(
        "load: {} requests in {:.2}s ({:.0} req/s), p50 {:.0}us p99 {:.0}us",
        stats.total_requests,
        stats.wall_secs,
        stats.total_requests as f64 / stats.wall_secs,
        stats.p50_us,
        stats.p99_us,
    );
    println!("digest: {:016x}", stats.digest);

    let m = c.get("/metrics").expect("metrics");
    assert_eq!(m.status, 200);
    let text = m.text();
    let series = validate_exposition(&text).expect("exposition text must parse");
    assert!(
        text.contains("autoac_serve_requests_total"),
        "serving counters must be exported"
    );
    assert!(
        text.lines().any(|l| l == "autoac_serve_forward_ns_count 1"),
        "one checkpoint loaded, so exactly one served forward:\n{text}"
    );
    println!("metrics: ok ({series} series, 1 forward)");

    // The observability surface of a live server: SLO status and the
    // retained slowest-request timelines must both be well-formed JSON.
    let s = c.get("/slo").expect("slo");
    assert_eq!(s.status, 200, "{}", s.text());
    let slo = json::parse(&s.text()).expect("slo json");
    assert!(slo.get("firing").is_some(), "slo status carries `firing`");
    let t = c.get("/debug/traces").expect("debug/traces");
    assert_eq!(t.status, 200, "{}", t.text());
    let traces = json::parse(&t.text()).expect("traces json");
    let count = traces.get("count").and_then(Value::as_usize).expect("count field");
    println!("slo: ok, traces: {count} retained");

    if shutdown {
        let r = c.post("/admin/shutdown", "{}").expect("shutdown");
        assert_eq!(r.status, 200);
        println!("shutdown: ok");
    }
}

fn ab_benchmark(out_path: &PathBuf, clients: usize, requests: usize, smoke: bool) {
    let epochs = if smoke { 2 } else { 20 };
    let spec = ServeTrainSpec {
        train: TrainConfig { epochs, patience: epochs, ..Default::default() },
        ..Default::default()
    };
    println!(
        "serve_bench: training {} / {} ({} epochs), then {clients} clients x {requests} requests",
        spec.preset, spec.scale, epochs
    );
    let (state, outcome) = train_serve_state(&spec).expect("train");
    let ckpt = format!("{:016x}", state.meta.config_fp);
    let num_nodes = InferenceModel::from_state(&state).expect("load").num_nodes();
    let sets = make_sets(num_nodes);

    let mut phases = Vec::new();
    for batching in [true, false] {
        let cfg = ServeConfig {
            workers: clients.max(2),
            batch: BatchConfig { batching, ..Default::default() },
            ..Default::default()
        };
        let srv = Server::start(state.clone(), &cfg).expect("start server");
        let addr = srv.addr().to_string();
        let stats = run_phase(&addr, clients, requests, &sets);
        srv.stop();
        // Server-side batch statistics share the registry with the client
        // latency histogram, so they come out of the phase's own report.
        let batches = stats.report.counter("serve_batches_total");
        let mean_batch = stats
            .report
            .hists
            .get("serve_batch_size")
            .filter(|h| h.count > 0)
            .map_or(f64::NAN, |h| h.sum / h.count as f64);
        println!(
            "  batching={batching:<5} {:>7.0} req/s  p50 {:>6.0}us  p99 {:>6.0}us  \
             {batches} batches, mean batch {mean_batch:.2}",
            stats.total_requests as f64 / stats.wall_secs,
            stats.p50_us,
            stats.p99_us,
        );
        phases.push((batching, stats, batches, mean_batch));
    }

    let (_, on, on_batches, on_mean) = &phases[0];
    let (_, off, off_batches, off_mean) = &phases[1];
    assert_eq!(
        on.canon, off.canon,
        "batched responses must be bitwise identical to single-request responses"
    );
    assert_eq!(on.digest, off.digest);
    println!(
        "  digests : {:016x} == {:016x} (batched responses bitwise identical)",
        on.digest, off.digest
    );

    let rps_on = on.total_requests as f64 / on.wall_secs;
    let rps_off = off.total_requests as f64 / off.wall_secs;
    // Server-side stage medians from the request timelines: where a
    // request actually spends its time (queue → batch window → compute).
    let stage = |rep: &autoac_obs::ObsReport| {
        format!(
            "\"queue_wait_p50_us\": {:.1},\n    \"batch_wait_p50_us\": {:.1},\n    \
             \"compute_p50_us\": {:.1}",
            stage_p50_us(rep, "serve_queue_wait_ns"),
            stage_p50_us(rep, "serve_batch_wait_ns"),
            stage_p50_us(rep, "serve_compute_ns"),
        )
    };
    let json = format!(
        "{{\n  \"preset\": \"{}\",\n  \"scale\": \"{}\",\n  \"ckpt\": \"{ckpt}\",\n  \
         \"macro_f1\": {:.6},\n  \"micro_f1\": {:.6},\n  \
         \"clients\": {clients},\n  \"requests_per_client\": {requests},\n  \
         \"batching_on\": {{\n    \"throughput_rps\": {rps_on:.1},\n    \
         \"p50_us\": {:.1},\n    \"p99_us\": {:.1},\n    {},\n    \
         \"batches\": {on_batches},\n    \"mean_batch\": {on_mean:.2}\n  }},\n  \
         \"batching_off\": {{\n    \"throughput_rps\": {rps_off:.1},\n    \
         \"p50_us\": {:.1},\n    \"p99_us\": {:.1},\n    {},\n    \
         \"batches\": {off_batches},\n    \"mean_batch\": {off_mean:.2}\n  }},\n  \
         \"throughput_speedup\": {:.2},\n  \
         \"digest\": \"{:016x}\",\n  \"bitwise_identical\": true\n}}\n",
        spec.preset,
        spec.scale,
        outcome.macro_f1,
        outcome.micro_f1,
        on.p50_us,
        on.p99_us,
        stage(&on.report),
        off.p50_us,
        off.p99_us,
        stage(&off.report),
        rps_on / rps_off,
        on.digest,
    );
    if let Some(dir) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(dir).expect("create results dir");
    }
    fs::write(out_path, json).expect("write bench report");
    println!("  wrote   : {}", out_path.display());
}

#[cfg(test)]
mod tests {
    use super::validate_exposition;

    #[test]
    fn validator_accepts_warn_family_with_tag_labels() {
        let text = "# TYPE autoac_warnings counter\n\
                    autoac_warnings{tag=\"ckpt\"} 3\n\
                    autoac_warnings{tag=\"reload_rejected\"} 1\n";
        assert_eq!(validate_exposition(text), Ok(2));
    }

    #[test]
    fn validator_accepts_exemplar_suffixed_bucket_lines() {
        let text = "# TYPE autoac_serve_request_ns histogram\n\
                    autoac_serve_request_ns_bucket{le=\"1024.0\"} 2 # {trace_id=\"000000000000beef\"} 1000.0\n\
                    autoac_serve_request_ns_bucket{le=\"+Inf\"} 2\n\
                    autoac_serve_request_ns_count 2\n";
        assert_eq!(validate_exposition(text), Ok(3));
    }

    #[test]
    fn validator_rejects_torn_exemplars() {
        for bad in [
            "m_bucket{le=\"1.0\"} 2 # trace_id=\"beef\" 1.0\n", // no braces
            "m_bucket{le=\"1.0\"} 2 # {trace_id=\"beef\"}\n",   // no value
            "m_bucket{le=\"1.0\"} 2 # {trace_id=\"beef\"} x\n", // bad value
        ] {
            assert!(validate_exposition(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn validator_still_rejects_plain_garbage() {
        assert!(validate_exposition("no_value_here\n").is_err());
        assert!(validate_exposition("bad name{x=\"1\"} 2\n").is_err());
        assert!(validate_exposition("m 1.5e3\n").is_ok());
    }
}
