//! Drives real `autoac_serve` processes end to end: a checkpoint trained
//! by the binary itself, then a batched and a `--no-batching` daemon on
//! it, each under concurrent closed-loop classify load. Both must answer
//! every node set with the same bytes (pinned by digest), export valid
//! Prometheus text that counts exactly one served forward, shut down on
//! `POST /admin/shutdown` with exit 0, and leave a strictly parseable
//! flight-recorder dump behind. Also pins the CLI's exit codes.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use autoac_data::json::{self, Value};
use autoac_serve::Client;

const BIN: &str = env!("CARGO_BIN_EXE_autoac_serve");

/// Fixed pool of node sets every client cycles through, so each (set,
/// checkpoint) pair has one canonical response.
const NUM_SETS: usize = 32;
const NODES_PER_SET: usize = 4;
const CLIENTS: usize = 4;
const REQUESTS: usize = 40;

/// FNV-1a digest of the canonical bodies of the 6-epoch, seed-7
/// checkpoint, one per node set and each followed by `\n`. Batching must
/// not move it, and neither may thread count, the buffer pool or the
/// armed checks.
const DIGEST: &str = "ee6d88197a63078f";

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

#[test]
fn help_exits_zero_and_bad_arguments_exit_two() {
    let help = Command::new(BIN).arg("--help").output().expect("run --help");
    assert_eq!(help.status.code(), Some(0), "--help must exit 0");
    let usage = String::from_utf8_lossy(&help.stdout);
    assert!(usage.starts_with("usage: autoac_serve"), "usage on stdout: {usage:?}");
    for bad in [&["--no-such-flag"][..], &["--workers", "many"], &["--checkpoint"]] {
        let out = Command::new(BIN).args(bad).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{bad:?} must exit 2");
        assert!(out.stdout.is_empty(), "{bad:?} wrote to stdout");
    }
}

/// A spawned daemon, killed if the test fails before it exits on its own.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

fn wait_for_port(port_file: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(s) = std::fs::read_to_string(port_file) {
            if !s.is_empty() {
                return s;
            }
        }
        assert!(Instant::now() < deadline, "autoac_serve never became ready");
        thread::sleep(Duration::from_millis(20));
    }
}

/// Closed-loop load: `CLIENTS` threads, each issuing `REQUESTS` classify
/// calls over one keep-alive connection. Every response for a node set
/// must be identical across clients and over time; returns the canonical
/// body per set.
fn drive(addr: &str, sets: &[Vec<usize>]) -> Vec<String> {
    let sets = Arc::new(sets.to_vec());
    let clients: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            let sets = Arc::clone(&sets);
            let addr = addr.to_string();
            thread::spawn(move || {
                let mut c = Client::connect(addr.as_str()).expect("connect");
                let mut seen: Vec<Option<String>> = vec![None; sets.len()];
                for i in 0..REQUESTS {
                    let si = (ci * 7 + i) % sets.len();
                    let r = c.post("/v1/classify", &nodes_body(&sets[si])).expect("classify");
                    assert_eq!(r.status, 200, "{}", r.text());
                    let text = r.text();
                    match &seen[si] {
                        Some(prev) => assert_eq!(prev, &text, "a node set's response varied"),
                        None => seen[si] = Some(text),
                    }
                }
                seen
            })
        })
        .collect();
    let mut canon: Vec<Option<String>> = vec![None; sets.len()];
    for h in clients {
        for (si, body) in h.join().expect("client thread").into_iter().enumerate() {
            let Some(body) = body else { continue };
            match &canon[si] {
                Some(prev) => assert_eq!(prev, &body, "responses must agree across clients"),
                None => canon[si] = Some(body),
            }
        }
    }
    canon.into_iter().map(|b| b.expect("every node set was requested")).collect()
}

/// Parses a flight-recorder dump strictly: every line is JSON, the first
/// is the ring's meta header, and request records follow it.
fn check_flight_dump(path: &Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing flight dump {}: {e}", path.display()));
    let mut records = 0usize;
    for (i, line) in text.lines().enumerate() {
        let v = json::parse(line)
            .unwrap_or_else(|e| panic!("flight line {i} invalid: {e}: {line}"));
        let kind = v.get("kind").and_then(Value::as_str);
        if i == 0 {
            assert_eq!(kind, Some("flight"), "first line must be the ring meta header");
        } else {
            assert!(kind.is_some(), "flight record without kind: {line}");
            records += 1;
        }
    }
    assert!(records > 0, "flight dump has a header but no records");
}

/// Serves `ckpt` from a fresh daemon, drives it, checks its observability
/// surface, shuts it down over HTTP and returns the response digest.
fn serve_and_drive(dir: &Path, ckpt: &Path, run: &str, extra: &[&str]) -> String {
    let port_file = dir.join(format!("{run}.port"));
    let mut daemon = Daemon(
        Command::new(BIN)
            .args(["--checkpoint", &ckpt.display().to_string()])
            .args(["--addr", "127.0.0.1:0", "--workers", "4"])
            .args(["--port-file", &port_file.display().to_string()])
            .args(["--flight-dir", &dir.display().to_string(), "--run", run])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn autoac_serve"),
    );
    let addr = wait_for_port(&port_file);
    let mut c = Client::connect(addr.as_str()).expect("connect");

    let health = c.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200, "{}", health.text());
    let doc = json::parse(&health.text()).expect("healthz json");
    let num_nodes = doc.get("nodes").and_then(Value::as_usize).expect("nodes field");
    assert!(doc.get("ckpt").and_then(Value::as_str).is_some(), "healthz names the checkpoint");

    let canon = drive(&addr, &make_sets(num_nodes));
    let mut all = Vec::new();
    for body in &canon {
        all.extend_from_slice(body.as_bytes());
        all.push(b'\n');
    }
    let digest = format!("{:016x}", fnv1a64(&all));

    let m = c.get("/metrics").expect("metrics");
    assert_eq!(m.status, 200);
    let text = m.text();
    validate_exposition(&text).expect("/metrics must parse as exposition text");
    assert!(text.contains("autoac_serve_requests_total"), "serving counters exported");
    assert!(
        text.lines().any(|l| l == "autoac_serve_forward_ns_count 1"),
        "one checkpoint loaded, so exactly one served forward:\n{text}"
    );

    let s = c.get("/slo").expect("slo");
    assert_eq!(s.status, 200, "{}", s.text());
    let slo = json::parse(&s.text()).expect("slo json");
    assert!(slo.get("firing").is_some(), "slo status carries `firing`");
    let t = c.get("/debug/traces").expect("debug/traces");
    assert_eq!(t.status, 200, "{}", t.text());
    let traces = json::parse(&t.text()).expect("traces json");
    assert!(traces.get("count").and_then(Value::as_usize).is_some(), "traces carry `count`");

    let r = c.post("/admin/shutdown", "{}").expect("shutdown");
    assert_eq!(r.status, 200, "{}", r.text());
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "{run}: daemon did not exit after /admin/shutdown");
        thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "{run}: graceful shutdown must exit 0, got {status:?}");
    check_flight_dump(&dir.join(format!("FLIGHT_{run}.jsonl")));
    digest
}

#[test]
fn batched_and_unbatched_daemons_serve_the_pinned_digest() {
    let dir: PathBuf = std::env::temp_dir().join(format!("autoac_daemon_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("serve.ckpt");
    let trained = Command::new(BIN)
        .args(["--train-out", &ckpt.display().to_string(), "--epochs", "6", "--seed", "7"])
        .stdout(Stdio::null())
        .status()
        .expect("run autoac_serve --train-out");
    assert!(trained.success(), "training the checkpoint failed: {trained:?}");

    let batched = serve_and_drive(&dir, &ckpt, "batched", &[]);
    let single = serve_and_drive(&dir, &ckpt, "single", &["--no-batching"]);
    assert_eq!(batched, DIGEST, "batched daemon digest");
    assert_eq!(single, DIGEST, "--no-batching daemon digest");
    let _ = std::fs::remove_dir_all(&dir);
}
