//! Fault injection on `POST /admin/reload` under classify load: corrupt
//! files are refused with 400, loadable checkpoints that cannot replace
//! the resident one with 409, and after every refusal the old checkpoint
//! keeps serving byte-identical bodies and its forward never reruns.
//!
//! This binary holds one test so the process-wide obs registry behind
//! `/metrics` counts only this test's server.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use autoac_ckpt::ServeState;
use autoac_core::{train_serve_state, ServeTrainSpec, TrainConfig};
use autoac_data::json::{self, Value};
use autoac_serve::{Client, ServeConfig, Server};

const CLIENTS: usize = 2;

fn quick_state(seed: u64, data_seed: u64) -> ServeState {
    let spec = ServeTrainSpec {
        data_seed,
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

/// The value of the unlabelled series `name` in a `/metrics` scrape.
fn series(c: &mut Client, name: &str) -> f64 {
    let text = c.get("/metrics").expect("metrics").text();
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from /metrics:\n{text}"))
}

fn healthz_ckpt(c: &mut Client) -> String {
    let h = c.get("/healthz").expect("healthz");
    assert_eq!(h.status, 200, "{}", h.text());
    let doc = json::parse(&h.text()).expect("healthz json");
    doc.get("ckpt").and_then(Value::as_str).expect("ckpt field").to_string()
}

fn reload_body(path: &Path) -> String {
    format!("{{\"checkpoint\":{}}}", json::to_string(&Value::Str(path.display().to_string())))
}

#[test]
fn refused_reloads_under_load_leave_the_resident_checkpoint_serving() {
    let state = quick_state(91, 1);
    let hex = format!("{:016x}", state.meta.config_fp);
    let dir = std::env::temp_dir().join(format!("autoac_reload_faults_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let valid = dir.join("valid.ckpt");
    state.write_atomic(&valid).expect("write ckpt");
    let bytes = std::fs::read(&valid).expect("read ckpt");

    let truncated = dir.join("truncated.ckpt");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).expect("write truncated");
    let flipped = dir.join("flipped.ckpt");
    let mut flip = bytes.clone();
    flip[bytes.len() / 2] ^= 0xff;
    std::fs::write(&flipped, &flip).expect("write flipped");
    // A different data seed regenerates a different graph.
    let foreign = dir.join("foreign.ckpt");
    quick_state(92, 2).write_atomic(&foreign).expect("write foreign");
    // Same graph and identity, one parameter short of the pipeline.
    let short = dir.join("short.ckpt");
    let mut short_state = state.clone();
    short_state.params.pop();
    short_state.write_atomic(&short).expect("write short");

    let srv = Server::start(state, &ServeConfig::default()).expect("start server");
    let addr = srv.addr();
    let sets: Vec<Vec<usize>> = (0..4).map(|i| vec![i, i + 5]).collect();
    let canon: Vec<String> = {
        let mut c = Client::connect(addr).expect("connect");
        sets.iter().map(|s| c.post("/v1/classify", &nodes_body(s)).expect("post").text()).collect()
    };

    // Every response the load receives must be the resident checkpoint's
    // canonical body, byte for byte.
    let (sets, canon) = (Arc::new(sets), Arc::new(canon));
    let stop = Arc::new(AtomicBool::new(false));
    // One message per answered request.
    let (answered_tx, answered) = mpsc::channel::<()>();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            let (sets, canon) = (Arc::clone(&sets), Arc::clone(&canon));
            let (stop, answered) = (Arc::clone(&stop), answered_tx.clone());
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut i = ci;
                while !stop.load(Ordering::SeqCst) {
                    let set = i % sets.len();
                    let r = c.post("/v1/classify", &nodes_body(&sets[set])).expect("post");
                    assert_eq!(r.status, 200, "{}", r.text());
                    assert_eq!(r.text(), canon[set], "a refused reload must not change bytes");
                    let _ = answered.send(());
                    i += 1;
                }
            })
        })
        .collect();
    // Waits until the load has answered `n` requests after this call.
    let served_more = |n: usize| {
        answered.try_iter().for_each(drop);
        for _ in 0..n {
            answered.recv_timeout(Duration::from_secs(60)).expect("classify load stalled");
        }
    };

    let mut admin = Client::connect(addr).expect("connect");
    assert_eq!(series(&mut admin, "autoac_serve_forward_ns_count"), 1.0);
    for (what, path, status) in [
        ("truncated", &truncated, 400),
        ("byte-flipped", &flipped, 400),
        ("foreign-graph", &foreign, 409),
        ("parameter-list", &short, 409),
    ] {
        served_more(CLIENTS);
        let r = admin.post("/admin/reload", &reload_body(path)).expect("reload");
        assert_eq!(r.status, status, "{what} checkpoint: {}", r.text());
        served_more(CLIENTS);
        assert_eq!(healthz_ckpt(&mut admin), hex, "{what}: the old checkpoint stays resident");
        assert_eq!(
            series(&mut admin, "autoac_serve_forward_ns_count"),
            1.0,
            "{what}: a refused checkpoint never runs its forward"
        );
    }

    stop.store(true, Ordering::SeqCst);
    for h in clients {
        h.join().expect("client thread");
    }
    drop(admin);
    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
