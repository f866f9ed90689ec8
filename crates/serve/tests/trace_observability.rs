//! End-to-end observability tests: the `x-autoac-trace` echo,
//! `/debug/traces` timelines with stage timings, `/slo` burn-rate status,
//! and `POST /admin/flight` dumps.

use autoac_ckpt::ServeState;
use autoac_core::{train_serve_state, ServeTrainSpec, TrainConfig};
use autoac_data::json::{self, Value};
use autoac_serve::{BatchConfig, Client, ServeConfig, Server};

fn quick_state(seed: u64) -> ServeState {
    let spec = ServeTrainSpec {
        train: TrainConfig { epochs: 2, patience: 2, ..Default::default() },
        seed,
        ..Default::default()
    };
    train_serve_state(&spec).expect("train").0
}

fn nodes_body(nodes: &[usize]) -> String {
    let ids: Vec<String> = nodes.iter().map(usize::to_string).collect();
    format!("{{\"nodes\":[{}]}}", ids.join(","))
}

fn server_in(dir: &std::path::Path, run: &str, state: ServeState) -> Server {
    let cfg = ServeConfig {
        workers: 2,
        batch: BatchConfig::default(),
        flight_dir: dir.to_path_buf(),
        run: run.into(),
        ..Default::default()
    };
    Server::start(state, &cfg).expect("start server")
}

#[test]
fn debug_traces_slo_and_flight_dump_work_end_to_end() {
    let dir = std::env::temp_dir().join(format!("autoac_trace_e2e_{}", std::process::id()));
    let srv = server_in(&dir, "e2e", quick_state(62));
    let mut c = Client::connect(srv.addr()).expect("connect");

    let mut echoed = Vec::new();
    for i in 0..10usize {
        let r = c.post("/v1/classify", &nodes_body(&[i, i + 1])).expect("post");
        assert_eq!(r.status, 200);
        echoed.push(r.trace_id().expect("traced"));
    }

    // /debug/traces: non-empty, slowest-first, stage fields present, and
    // the ids we saw in response headers are resolvable.
    let t = c.get("/debug/traces").expect("traces");
    assert_eq!(t.status, 200);
    let doc = json::parse(&t.text()).expect("traces json");
    let traces = doc.get("traces").and_then(Value::as_arr).expect("traces array");
    assert!(!traces.is_empty(), "timelines were retained");
    let totals: Vec<f64> =
        traces.iter().map(|t| t.get("total_ns").and_then(Value::as_f64).expect("total")).collect();
    assert!(totals.windows(2).all(|w| w[0] >= w[1]), "slowest first: {totals:?}");
    let classify = traces
        .iter()
        .find(|t| t.get("path").and_then(Value::as_str) == Some("/v1/classify"))
        .expect("a classify timeline");
    for field in
        ["trace_id", "t0_ns", "parse_ns", "queue_ns", "batch_wait_ns", "compute_ns", "write_ns"]
    {
        assert!(classify.get(field).is_some(), "timeline misses {field}");
    }
    assert!(
        classify.get("compute_ns").and_then(Value::as_f64).expect("compute") > 0.0,
        "classify passed through the model thread"
    );
    let listed: Vec<&str> =
        traces.iter().filter_map(|t| t.get("trace_id").and_then(Value::as_str)).collect();
    for id in &echoed {
        let hex = format!("{id:016x}");
        assert!(listed.contains(&hex.as_str()), "echoed id {hex} not in /debug/traces");
    }

    // /slo: structured burn-rate status over both windows.
    let s = c.get("/slo").expect("slo");
    assert_eq!(s.status, 200);
    let doc = json::parse(&s.text()).expect("slo json");
    let fast = doc.get("fast").expect("fast window");
    assert!(fast.get("total").and_then(Value::as_f64).expect("total") >= 10.0);
    assert!(fast.get("burn_rate").and_then(Value::as_f64).is_some());
    assert_eq!(doc.get("firing").map(|v| matches!(v, Value::Bool(_))), Some(true));

    // /metrics: SLO gauges and an exemplar-annotated exposition that
    // still parses line-by-line.
    let m = c.get("/metrics").expect("metrics");
    let text = m.text();
    assert!(text.contains("# TYPE autoac_slo_burn_rate_fast gauge"), "{text}");
    assert!(text.contains("autoac_slo_alert_firing"), "{text}");
    assert!(text.contains("trace_id=\""), "tail buckets carry exemplars: {text}");

    // /admin/flight: dump lands where configured and is strict JSONL.
    let f = c.post("/admin/flight", "").expect("flight");
    assert_eq!(f.status, 200, "{}", f.text());
    let doc = json::parse(&f.text()).expect("flight ack json");
    let path = doc.get("path").and_then(Value::as_str).expect("path");
    assert!(doc.get("records").and_then(Value::as_f64).expect("records") > 0.0);
    let dump = std::fs::read_to_string(path).expect("dump file readable");
    let mut kinds = Vec::new();
    for (i, line) in dump.lines().enumerate() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("line {i} invalid: {e}: {line}"));
        if i == 0 {
            assert_eq!(v.get("kind").and_then(Value::as_str), Some("flight"));
        } else {
            kinds.extend(v.get("kind").and_then(Value::as_str).map(str::to_string));
        }
    }
    assert!(kinds.iter().any(|k| k == "request"), "request summaries recorded: {kinds:?}");
    assert!(kinds.iter().any(|k| k == "flush"), "batch flush decisions recorded: {kinds:?}");

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flight dump that cannot be written answers 500 with a JSON `error`,
/// and the server goes on serving: classify bodies are byte-identical to
/// those before the failure and `/healthz` answers 200. The directory lies
/// below a regular file, which stops its creation even for root (mode bits
/// would not).
#[test]
fn failed_flight_dump_answers_500_and_serving_goes_on() {
    let base = std::env::temp_dir().join(format!("autoac_flight_fault_{}", std::process::id()));
    std::fs::create_dir_all(&base).expect("temp dir");
    let file = base.join("regular_file");
    std::fs::write(&file, "not a directory").expect("write the blocking file");
    let flight_dir = file.join("flight");
    let srv = server_in(&flight_dir, "fault", quick_state(67));
    let mut c = Client::connect(srv.addr()).expect("connect");
    let sets: Vec<Vec<usize>> = (0..4).map(|i| vec![i, i + 3]).collect();
    let classify = |c: &mut Client| -> Vec<String> {
        sets.iter()
            .map(|s| {
                let r = c.post("/v1/classify", &nodes_body(s)).expect("post");
                assert_eq!(r.status, 200, "{}", r.text());
                r.text()
            })
            .collect()
    };
    let before = classify(&mut c);

    let f = c.post("/admin/flight", "").expect("flight");
    assert_eq!(f.status, 500, "{}", f.text());
    let doc = json::parse(&f.text()).expect("error body is json");
    let error = doc.get("error").and_then(Value::as_str).expect("error field");
    assert!(error.starts_with("flight dump failed"), "{error}");
    assert!(!flight_dir.exists());

    assert_eq!(classify(&mut c), before, "classify bodies must not change");
    assert_eq!(c.get("/healthz").expect("healthz").status, 200);
    srv.stop();
    let _ = std::fs::remove_dir_all(&base);
}
