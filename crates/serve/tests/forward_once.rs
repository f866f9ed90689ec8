//! Pins one forward per loaded checkpoint: classify rows are copied out
//! of the logits block computed at load, bit for bit, and `/metrics`
//! counts exactly one `serve_forward_ns` sample per checkpoint loaded.
//!
//! This binary holds one test so the process-wide obs registry behind
//! `/metrics` counts only this test's server.

use autoac_ckpt::ServeState;
use autoac_core::{train_serve_state, InferenceModel, ServeTrainSpec, TrainConfig};
use autoac_data::json::{self, Value};
use autoac_serve::{Client, ServeConfig, Server};
use autoac_tensor::Matrix;

const REQUESTS: usize = 20;

fn quick_state(seed: u64) -> ServeState {
    let spec = ServeTrainSpec {
        train: TrainConfig { epochs: 2, patience: 2, ..Default::default() },
        seed,
        ..Default::default()
    };
    train_serve_state(&spec).expect("train").0
}

/// The value of the unlabelled series `name` in a `/metrics` scrape.
fn series(c: &mut Client, name: &str) -> f64 {
    let text = c.get("/metrics").expect("metrics").text();
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from /metrics:\n{text}"))
}

/// Classifies each node alone and checks every returned logits row is
/// the matching row of `want`, bit for bit.
fn check_rows(c: &mut Client, want: &Matrix, ckpt: &str) {
    for node in 0..REQUESTS {
        let r = c.post("/v1/classify", &format!("{{\"nodes\":[{node}]}}")).expect("classify");
        assert_eq!(r.status, 200, "{}", r.text());
        let doc = json::parse(&r.text()).expect("classify json");
        assert_eq!(doc.get("ckpt").and_then(Value::as_str), Some(ckpt));
        let row = doc.get("results").and_then(Value::as_arr).and_then(|a| a.first()).expect("row");
        let got: Vec<u32> = row
            .get("logits")
            .and_then(Value::as_arr)
            .expect("logits")
            .iter()
            .map(|v| (v.as_f64().expect("num") as f32).to_bits())
            .collect();
        let bits: Vec<u32> = want.row(node).iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, bits, "node {node}: served logits must be the forward's row");
    }
}

#[test]
fn each_checkpoint_runs_one_forward_and_serves_its_rows() {
    let state_a = quick_state(81);
    let state_b = quick_state(82);
    let logits_a = InferenceModel::from_state(&state_a).expect("load a").logits();
    let logits_b = InferenceModel::from_state(&state_b).expect("load b").logits();
    let hex_a = format!("{:016x}", state_a.meta.config_fp);
    let hex_b = format!("{:016x}", state_b.meta.config_fp);

    let dir = std::env::temp_dir().join(format!("autoac_forward_once_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path_b = dir.join("b.ckpt");
    state_b.write_atomic(&path_b).expect("write ckpt");

    let srv = Server::start(state_a, &ServeConfig::default()).expect("start server");
    let mut c = Client::connect(srv.addr()).expect("connect");
    check_rows(&mut c, &logits_a, &hex_a);
    assert_eq!(
        series(&mut c, "autoac_serve_forward_ns_count"),
        1.0,
        "{REQUESTS} classify requests, one forward"
    );

    let body =
        format!("{{\"checkpoint\":{}}}", json::to_string(&Value::Str(path_b.display().to_string())));
    let r = c.post("/admin/reload", &body).expect("reload");
    assert_eq!(r.status, 200, "{}", r.text());
    check_rows(&mut c, &logits_b, &hex_b);
    assert_eq!(series(&mut c, "autoac_serve_forward_ns_count"), 2.0, "one forward per checkpoint");

    drop(c);
    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
