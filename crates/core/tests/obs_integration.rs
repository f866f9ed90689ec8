//! End-to-end obs integration: a full search + retrain run with obs on
//! must (a) produce bitwise-identical training results to an obs-off run,
//! (b) record the span hierarchy and trajectory series the exporters
//! promise, and (c) emit JSONL that the hand-rolled JSON parser (which
//! obs itself cannot depend on) accepts line by line.
//!
//! Obs drains are process-global, so each test holds [`OBS_LOCK`] while
//! it records, and one sequential body keeps its runs and the report
//! inspection ordered.

use std::sync::{Mutex, MutexGuard};

use autoac_core::{
    run_autoac_classification, search, search_minibatch, AutoAcConfig, Backbone,
    ClassificationTask, MinibatchConfig, TrainConfig,
};
use autoac_data::{presets, synth, Dataset, Scale};
use autoac_graph::OpCache;
use autoac_nn::GnnConfig;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny(seed: u64) -> Dataset {
    synth::generate(&presets::imdb(), Scale::Tiny, seed)
}

/// The α step differentiates only α: with ω frozen, the encoder and the
/// completion ops are constants, so no weight gradient (`matmul_tn`) runs
/// under `search/epoch/alpha` while the ω step still runs them.
#[test]
fn alpha_step_computes_no_weight_gradient() {
    let _lock = obs_lock();
    let data = synth::generate(&presets::dblp(), Scale::Tiny, 1);
    let gnn_cfg = GnnConfig {
        in_dim: 16,
        hidden: 16,
        out_dim: data.num_classes,
        layers: 2,
        ..Default::default()
    };
    let ac = AutoAcConfig {
        clusters: 4,
        search_epochs: 3,
        omega_warmup: 1,
        train: TrainConfig { epochs: 2, ..Default::default() },
        ..Default::default()
    };
    let task = ClassificationTask::new(&data);
    let _ = autoac_obs::drain();
    autoac_obs::with_obs(true, || search(&data, Backbone::SimpleHgn, &gnn_cfg, &ac, &task, 5));
    let rep = autoac_obs::drain();
    let tree = rep.render_tree();
    let alpha = rep.span("search/epoch/alpha").unwrap_or_else(|| panic!("no α step:\n{tree}"));
    assert_eq!(alpha.count, 2, "one α step per epoch after the warm-up:\n{tree}");
    assert!(rep.span("search/epoch/alpha/matmul_nt").is_some(), "the α backward ran:\n{tree}");
    assert!(rep.span("search/epoch/omega/matmul_tn").is_some(), "ω trains:\n{tree}");
    assert!(
        rep.span("search/epoch/alpha/matmul_tn").is_none(),
        "the α step computed a weight gradient:\n{tree}"
    );
}

#[test]
fn obs_on_run_is_bitwise_identical_and_fully_exported() {
    let _lock = obs_lock();
    let data = tiny(7);
    let gnn_cfg = GnnConfig {
        in_dim: 16,
        hidden: 16,
        out_dim: data.num_classes,
        layers: 2,
        dropout: 0.2,
        ..Default::default()
    };
    let ac = AutoAcConfig {
        clusters: 4,
        search_epochs: 5,
        omega_warmup: 1,
        train: TrainConfig { epochs: 4, ..Default::default() },
        ..Default::default()
    };
    const SEED: u64 = 42;

    let baseline = autoac_obs::with_obs(false, || {
        run_autoac_classification(&data, Backbone::Gcn, &gnn_cfg, &ac, SEED)
    });

    let _ = autoac_obs::drain();
    let observed = autoac_obs::with_obs(true, || {
        run_autoac_classification(&data, Backbone::Gcn, &gnn_cfg, &ac, SEED)
    });
    let rep = autoac_obs::drain();

    // (a) Observability must be read-only: identical bits, not just close.
    assert_eq!(
        baseline.outcome.macro_f1.to_bits(),
        observed.outcome.macro_f1.to_bits(),
        "macro-F1 must be bitwise identical with obs on vs off"
    );
    assert_eq!(
        baseline.outcome.micro_f1.to_bits(),
        observed.outcome.micro_f1.to_bits(),
        "micro-F1 must be bitwise identical with obs on vs off"
    );
    assert_eq!(baseline.search.assignment, observed.search.assignment);
    let (ba, oa) = (baseline.search.alpha.data(), observed.search.alpha.data());
    assert_eq!(ba.len(), oa.len());
    assert!(
        ba.iter().zip(oa).all(|(x, y)| x.to_bits() == y.to_bits()),
        "final α must be bitwise identical with obs on vs off"
    );

    // (b) Span hierarchy: search / epoch / kernel levels, plus retraining.
    let tree = rep.render_tree();
    let search = rep.span("search").unwrap_or_else(|| panic!("no search span:\n{tree}"));
    assert_eq!(search.count, 1);
    let epoch = rep.span("search/epoch").unwrap_or_else(|| panic!("no epoch span:\n{tree}"));
    assert_eq!(epoch.count, ac.search_epochs as u64);
    assert!(
        rep.span("search/epoch/alpha").is_some() && rep.span("search/epoch/omega").is_some(),
        "bilevel step spans missing:\n{tree}"
    );
    assert!(
        rep.spans.iter().any(|s| {
            s.count > 0
                && s.path.starts_with("search/epoch/")
                && (s.path.ends_with("matmul") || s.path.ends_with("spmm"))
        }),
        "kernel spans must nest under the search epochs:\n{tree}"
    );
    let train = rep.span("train").unwrap_or_else(|| panic!("no train span:\n{tree}"));
    assert!(train.count >= 1);
    assert!(rep.span("train/epoch").is_some(), "retrain epochs missing:\n{tree}");
    // Self-time never exceeds total time.
    assert!(rep.spans.iter().all(|s| s.self_ns <= s.total_ns));

    // (b) Trajectory series: the Fig. 4/5 recorder ran every epoch.
    let series_count = |rep: &autoac_obs::ObsReport, name: &str| {
        rep.events
            .iter()
            .filter(|e| matches!(e, autoac_obs::Event::Series { name: n, .. } if *n == name))
            .count()
    };
    let assert_search_series = |rep: &autoac_obs::ObsReport| {
        assert_eq!(series_count(rep, "alpha_entropy"), ac.search_epochs);
        assert_eq!(series_count(rep, "pool_hit_rate"), ac.search_epochs);
        assert_eq!(series_count(rep, "search_val_loss"), ac.search_epochs - ac.omega_warmup);
        assert_eq!(series_count(rep, "omega_grad_norm"), ac.search_epochs);
        assert_eq!(series_count(rep, "gmoc_loss"), ac.search_epochs);
    };
    assert_search_series(&rep);
    assert!(series_count(&rep, "train_loss") >= 1, "retrain loss series missing");
    assert!(series_count(&rep, "val_micro_f1") >= 1 && series_count(&rep, "val_macro_f1") >= 1);
    // α entropy carries one value per cluster.
    let ent_width = rep
        .events
        .iter()
        .find_map(|e| match e {
            autoac_obs::Event::Series { name: "alpha_entropy", values, .. } => Some(values.len()),
            _ => None,
        })
        .unwrap();
    assert_eq!(ent_width, ac.clusters);

    // (b) Registry: the OpCache reported through obs.
    assert!(rep.counter("opcache_misses") > 0, "cache must have built operators");
    assert!(rep.counter("opcache_hits") > 0, "search+retrain must share operators");

    // (c) The JSONL export parses line by line with the data crate's
    // strict parser, and carries every record type we emitted.
    let dir = std::env::temp_dir().join(format!("autoac_obs_it_{}", std::process::id()));
    let path = dir.join("OBS_it.jsonl");
    rep.write_jsonl(&path, "it").expect("write jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut types_seen = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let v = autoac_data::json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON ({e}): {line}", i + 1));
        let ty = v.get("type").and_then(|t| t.as_str()).map(str::to_string);
        let ty = ty.unwrap_or_else(|| panic!("line {} lacks a type: {line}", i + 1));
        match ty.as_str() {
            "meta" => assert_eq!(v.get("run").and_then(|r| r.as_str()), Some("it")),
            "span" => assert!(v.get("path").is_some() && v.get("total_ns").is_some()),
            "series" => assert!(v.get("step").is_some() && v.get("values").is_some()),
            "counter" | "gauge" => assert!(v.get("value").is_some()),
            "hist" => assert!(v.get("buckets").is_some()),
            "shape" => assert!(v.get("op").is_some() && v.get("count").is_some()),
            "warn" => assert!(v.get("msg").is_some()),
            other => panic!("unknown record type {other:?} on line {}", i + 1),
        }
        types_seen.insert(ty);
    }
    for required in ["meta", "span", "series", "counter"] {
        assert!(types_seen.contains(required), "no {required} records in {path:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The sampled search runs on the same search loop, so it records the
    // same per-epoch trajectory series.
    let mb = MinibatchConfig { batch_size: 24, fanout: Some(5), ..Default::default() };
    let cache = OpCache::new(&data.graph);
    let _ = autoac_obs::drain();
    autoac_obs::with_obs(true, || search_minibatch(&data, &gnn_cfg, &ac, &mb, SEED, &cache, None));
    let rep = autoac_obs::drain();
    assert_search_series(&rep);
}
