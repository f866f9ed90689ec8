//! End-to-end serving tests over real sockets: batched-vs-single bitwise
//! identity, hot-reload under sustained concurrent load with zero dropped
//! requests, endpoint coverage, and graceful shutdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use autoac_ckpt::ServeState;
use autoac_core::{train_serve_state, InferenceModel, ServeTrainSpec, TrainConfig};
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

fn server(state: ServeState, batching: bool) -> Server {
    let cfg = ServeConfig {
        workers: 4,
        batch: BatchConfig { batching, ..Default::default() },
        ..Default::default()
    };
    Server::start(state, &cfg).expect("start server")
}

fn nodes_body(nodes: &[usize]) -> String {
    let ids: Vec<String> = nodes.iter().map(usize::to_string).collect();
    format!("{{\"nodes\":[{}]}}", ids.join(","))
}

#[test]
fn batched_responses_are_bitwise_identical_to_single_requests() {
    let state = quick_state(11);
    let num_nodes = InferenceModel::from_state(&state).expect("load").num_nodes();
    let batched = server(state.clone(), true);
    let unbatched = server(state, false);

    let sets: Vec<Vec<usize>> =
        (0..16).map(|i| vec![i % num_nodes, (i * 7 + 1) % num_nodes]).collect();

    // Singles against the batching-disabled server: the per-request
    // forward baseline.
    let mut single = Vec::new();
    {
        let mut c = Client::connect(unbatched.addr()).expect("connect");
        for s in &sets {
            let r = c.post("/v1/classify", &nodes_body(s)).expect("post");
            assert_eq!(r.status, 200);
            single.push(r.text());
        }
    }

    // The same sets fired concurrently at the batching server, twice, so
    // requests genuinely coalesce.
    for _round in 0..2 {
        let addr = batched.addr();
        let handles: Vec<_> = sets
            .iter()
            .cloned()
            .map(|s| {
                thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let r = c.post("/v1/classify", &nodes_body(&s)).expect("post");
                    assert_eq!(r.status, 200);
                    r.text()
                })
            })
            .collect();
        for (h, want) in handles.into_iter().zip(&single) {
            let got = h.join().expect("client thread");
            assert_eq!(&got, want, "batched response must be bitwise identical");
        }
    }

    batched.stop();
    unbatched.stop();
}

#[test]
fn hot_reload_under_sustained_load_drops_nothing() {
    const CLIENTS: usize = 6;
    // Requests each client sends after the reload is acknowledged.
    const AFTER_ACK: usize = 10;

    // Same dataset recipe (graph), independently trained models.
    let state_a = quick_state(21);
    let state_b = quick_state(22);
    let hex_a = format!("{:016x}", state_a.meta.config_fp);
    let hex_b = format!("{:016x}", state_b.meta.config_fp);
    assert_ne!(hex_a, hex_b);

    let dir = std::env::temp_dir().join(format!("autoac_serve_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path_b = dir.join("b.ckpt");
    state_b.write_atomic(&path_b).expect("write ckpt");

    let num_nodes = InferenceModel::from_state(&state_a).expect("load").num_nodes();
    // A worker holds a keep-alive connection until it closes, so every
    // client, the reload and the post-ack check each get their own worker:
    // the reload is then served while the clients are still sending.
    let cfg = ServeConfig { workers: CLIENTS + 2, ..Default::default() };
    let srv = Server::start(state_a, &cfg).expect("start server");
    let addr = srv.addr();

    let sets: Vec<Vec<usize>> = (0..8).map(|i| vec![i % num_nodes, (i + 3) % num_nodes]).collect();

    // Canonical per-checkpoint bodies, captured while each checkpoint is
    // (or will be) resident.
    let mut canon_a = Vec::new();
    {
        let mut c = Client::connect(addr).expect("connect");
        for s in &sets {
            canon_a.push(c.post("/v1/classify", &nodes_body(s)).expect("post").text());
        }
    }

    // Sustained closed-loop load from every client until the reload is
    // acknowledged, then AFTER_ACK more requests each, so the load spans
    // the swap on both sides.
    let sets = Arc::new(sets);
    // Each client reports its first answer (from A) here, so the reload is
    // sent while all of them are loading.
    let (started_tx, started) = mpsc::channel::<()>();
    let acked = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            let sets = Arc::clone(&sets);
            let started = started_tx.clone();
            let acked = Arc::clone(&acked);
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut sent = 0usize;
                let mut out = Vec::new();
                let mut left = AFTER_ACK;
                while left > 0 {
                    let after_ack = acked.load(Ordering::SeqCst);
                    let set_idx = (ci + sent) % sets.len();
                    sent += 1;
                    let r = c.post("/v1/classify", &nodes_body(&sets[set_idx])).expect("post");
                    out.push((set_idx, after_ack, r.status, r.text()));
                    if sent == 1 {
                        let _ = started.send(());
                    }
                    if after_ack {
                        left -= 1;
                    }
                }
                (sent, out)
            })
        })
        .collect();

    // Swap to checkpoint B once every client has had an answer from A.
    for _ in 0..CLIENTS {
        started.recv_timeout(Duration::from_secs(60)).expect("every client starts loading");
    }
    let ack = {
        let mut c = Client::connect(addr).expect("connect");
        let body = format!("{{\"checkpoint\":{}}}", json::to_string(&Value::Str(
            path_b.display().to_string(),
        )));
        let r = c.post("/admin/reload", &body).expect("reload");
        assert_eq!(r.status, 200, "{}", r.text());
        r.text()
    };
    acked.store(true, Ordering::SeqCst);
    assert!(ack.contains(&hex_b), "reload ack must carry the new fingerprint: {ack}");

    // After the ack, a fresh request must be served by B.
    let mut canon_b = Vec::new();
    {
        let mut c = Client::connect(addr).expect("connect");
        for s in sets.iter() {
            let r = c.post("/v1/classify", &nodes_body(s)).expect("post");
            assert!(r.text().contains(&hex_b), "post-ack responses must come from B");
            canon_b.push(r.text());
        }
    }

    let mut sent = 0usize;
    let mut from_a = 0usize;
    let mut from_b = 0usize;
    for h in clients {
        let (client_sent, out) = h.join().expect("client thread");
        sent += client_sent;
        for (set_idx, after_ack, status, body) in out {
            assert_eq!(status, 200, "no request may error across the swap: {body}");
            if after_ack {
                assert_eq!(body, canon_b[set_idx], "requests sent after the ack come from B");
            }
            if body == canon_a[set_idx] {
                from_a += 1;
            } else if body == canon_b[set_idx] {
                from_b += 1;
            } else {
                panic!("response matches neither checkpoint bitwise: {body}");
            }
        }
    }
    assert_eq!(from_a + from_b, sent, "every request answered");
    assert!(from_a > 0, "some responses must come from the old checkpoint");
    assert!(from_b > 0, "some responses must come from the new checkpoint");

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_only_endpoints_serve_from_the_shared_view() {
    let state = quick_state(31);
    let model = InferenceModel::from_state(&state).expect("load");
    let hex = model.info().config_fp_hex.clone();
    let srv = server(state, true);
    let mut c = Client::connect(srv.addr()).expect("connect");

    // /healthz carries identity and shape.
    let h = c.get("/healthz").expect("healthz");
    assert_eq!(h.status, 200);
    let doc = json::parse(&h.text()).expect("healthz json");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(doc.get("ckpt").and_then(Value::as_str), Some(hex.as_str()));
    assert_eq!(doc.get("nodes").and_then(Value::as_usize), Some(model.num_nodes()));
    assert_eq!(doc.get("classes").and_then(Value::as_usize), Some(model.num_classes()));

    // /v1/attrs rows are the materialized completion, bit-for-bit.
    let a = c.post("/v1/attrs", &nodes_body(&[0, 5])).expect("attrs");
    assert_eq!(a.status, 200);
    let doc = json::parse(&a.text()).expect("attrs json");
    let results = doc.get("results").and_then(Value::as_arr).expect("results");
    for (r, &node) in results.iter().zip(&[0usize, 5]) {
        let got: Vec<f32> = r
            .get("attrs")
            .and_then(Value::as_arr)
            .expect("attrs row")
            .iter()
            .map(|v| v.as_f64().expect("num") as f32)
            .collect();
        assert_eq!(got, model.attrs().row(node), "attr row {node} must be bit-exact");
    }

    // /metrics is Prometheus exposition text with serving series.
    let m = c.get("/metrics").expect("metrics");
    assert_eq!(m.status, 200);
    let text = m.text();
    assert!(text.contains("# TYPE autoac_serve_requests_total counter"), "{text}");
    assert!(text.contains("autoac_serve_classify_ns_count"), "{text}");

    // Errors are JSON with the right statuses.
    assert_eq!(c.get("/nope").expect("404").status, 404);
    assert_eq!(c.get("/v1/classify").expect("405").status, 405);
    assert_eq!(c.post("/v1/classify", "{").expect("400").status, 400);
    assert_eq!(c.post("/v1/classify", "{\"nodes\":[999999]}").expect("range").status, 400);
    assert_eq!(c.post("/v1/classify", "{\"nodes\":[]}").expect("empty").status, 400);

    srv.stop();
}

#[test]
fn admin_shutdown_is_graceful() {
    let state = quick_state(41);
    let srv = server(state, true);
    let addr = srv.addr();
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(c.post("/v1/classify", &nodes_body(&[0])).expect("warm").status, 200);
    let r = c.post("/admin/shutdown", "{}").expect("shutdown");
    assert_eq!(r.status, 200);
    // join() returns only when acceptor, workers, and model thread have
    // all exited — i.e. the shutdown actually propagated.
    srv.join();
}
