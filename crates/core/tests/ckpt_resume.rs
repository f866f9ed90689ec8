//! Fault-injection tests for crash-safe checkpointing: a run killed mid-way
//! and resumed from its last snapshot must be **bitwise identical** to an
//! uninterrupted run — same α bits, same assignment, same test metrics.
//!
//! The crash is simulated in-process: running a stage with a truncated
//! epoch budget while checkpointing, then rerunning with the full budget
//! and `resume`, is exactly equivalent to a SIGKILL landing after the last
//! snapshot (the epochs past it are discarded either way, and the process
//! state is rebuilt from disk in both cases). `scripts/verify.sh` also
//! exercises the literal `kill -9` path end-to-end.

use std::path::PathBuf;

use autoac_ckpt::{CheckpointPolicy, CkptError, Snapshot};
use autoac_completion::CompletionOp;
use autoac_core::{
    run_autoac_classification, run_autoac_classification_checkpointed, search_checkpointed,
    search_minibatch, train_node_classification, train_node_classification_checkpointed,
    train_node_classification_minibatch, AutoAcConfig, Backbone, ClassificationTask, ClsOutcome,
    ClusteringMode, CompletionMode, MinibatchConfig, MinibatchPipeline, Pipeline, SearchOutcome,
    TrainConfig,
};
use autoac_data::{presets, synth, Dataset};
use autoac_graph::OpCache;
use autoac_nn::GnnConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 17;

fn tiny_imdb() -> Dataset {
    synth::generate(&presets::imdb(), synth::Scale::Tiny, 0)
}

fn small_cfg(data: &Dataset) -> GnnConfig {
    GnnConfig {
        in_dim: 16,
        hidden: 16,
        out_dim: data.num_classes,
        layers: 2,
        dropout: 0.2,
        ..Default::default()
    }
}

fn small_ac() -> AutoAcConfig {
    AutoAcConfig {
        clusters: 4,
        search_epochs: 8,
        omega_warmup: 2,
        clustering: ClusteringMode::GmoC,
        train: TrainConfig { epochs: 6, patience: 6, ..Default::default() },
        ..Default::default()
    }
}

/// A test's checkpoint root, removed on drop, so a test that panics (as
/// the `fails_loudly` ones do by design) leaves nothing behind either.
struct CkptRoot(PathBuf);

impl Drop for CkptRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fresh unique checkpoint root for one test.
fn ckpt_root(test: &str) -> CkptRoot {
    let root = std::env::temp_dir().join(format!("autoac-resume-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    CkptRoot(root)
}

fn bits32(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Equality of search outcomes at the bit level (timing excluded).
fn assert_search_identical(a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(a.assignment, b.assignment, "op assignment diverged");
    assert_eq!(a.cluster_of, b.cluster_of, "cluster assignment diverged");
    assert_eq!(a.op_histogram, b.op_histogram);
    assert_eq!(a.alpha.shape(), b.alpha.shape());
    assert_eq!(bits32(a.alpha.data()), bits32(b.alpha.data()), "α bits diverged");
    assert_eq!(bits32(&a.gmoc_trace), bits32(&b.gmoc_trace), "L_GmoC trace diverged");
}

/// Runs the search stage, optionally truncated to `epochs` and/or
/// checkpointed under `policy`.
fn run_search(
    data: &Dataset,
    epochs: usize,
    policy: Option<&CheckpointPolicy>,
) -> SearchOutcome {
    let cfg = small_cfg(data);
    let mut ac = small_ac();
    ac.search_epochs = epochs;
    let task = ClassificationTask::new(data);
    let cache = OpCache::new(&data.graph);
    search_checkpointed(data, Backbone::Gcn, &cfg, &ac, &task, SEED, &cache, policy)
}

#[test]
fn killed_search_resumes_bit_identically() {
    let data = tiny_imdb();
    let baseline = run_search(&data, 8, None);

    // "Crash" after epoch 5 with snapshots at epochs 2 and 4, then restart
    // with the full budget: the rerun must fast-forward to epoch 4 and land
    // on exactly the baseline's bits.
    let root = ckpt_root("search");
    let policy = CheckpointPolicy::new(&root.0).checkpoint_every(2);
    run_search(&data, 5, Some(&policy));
    let resumed = run_search(&data, 8, Some(&policy));
    assert_search_identical(&baseline, &resumed);

    // The run also checkpoints its own final epochs; a no-op "resume" at the
    // full budget replays nothing and still reports the same outcome.
    let rerun = run_search(&data, 8, Some(&policy));
    assert_search_identical(&baseline, &rerun);
}

#[test]
fn corrupted_latest_snapshot_falls_back_to_previous_good_one() {
    let data = tiny_imdb();
    let baseline = run_search(&data, 8, None);

    let root = ckpt_root("corrupt");
    let policy = CheckpointPolicy::new(&root.0).checkpoint_every(2);
    run_search(&data, 5, Some(&policy));

    // Flip the last byte of the newest snapshot (epoch 4): that is inside
    // the final section's CRC, so the file must now fail its integrity
    // check...
    let latest = root.0.join("ckpt-000004.bin");
    let mut bytes = std::fs::read(&latest).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 0xFF;
    std::fs::write(&latest, &bytes).unwrap();
    match Snapshot::read(&latest) {
        Err(CkptError::Crc { .. }) => {}
        other => panic!("corruption not caught by CRC: {other:?}"),
    }

    // ...and the resume must fall back to the epoch-2 snapshot, replay
    // epochs 2..8, and still match the uninterrupted run bit for bit.
    let resumed = run_search(&data, 8, Some(&policy));
    assert_search_identical(&baseline, &resumed);
}

#[test]
#[should_panic(expected = "refusing to resume")]
fn resuming_with_a_different_config_fails_loudly() {
    let data = tiny_imdb();
    let root = ckpt_root("mismatch");
    let policy = CheckpointPolicy::new(&root.0).checkpoint_every(2);
    run_search(&data, 5, Some(&policy));

    // Same snapshots, different λ: the trajectory the snapshots belong to
    // no longer matches the requested config, so resume must refuse.
    let cfg = small_cfg(&data);
    let mut ac = small_ac();
    ac.lambda += 0.1;
    let task = ClassificationTask::new(&data);
    let cache = OpCache::new(&data.graph);
    search_checkpointed(&data, Backbone::Gcn, &cfg, &ac, &task, SEED, &cache, Some(&policy));
}

#[test]
fn killed_retraining_resumes_bit_identically() {
    let data = tiny_imdb();
    let cfg = small_cfg(&data);
    let tc = TrainConfig { epochs: 10, patience: 10, ..Default::default() };
    // The pipeline is rebuilt deterministically from the seed on every
    // "process start", exactly like a real restart would.
    let pipe = |data: &Dataset| {
        let mut rng = StdRng::seed_from_u64(SEED);
        Pipeline::new(data, Backbone::Gcn, &cfg, CompletionMode::Zero, &mut rng)
    };
    let baseline = train_node_classification(&pipe(&data), &data, &tc, SEED);

    let root = ckpt_root("train");
    let policy = CheckpointPolicy::new(&root.0).checkpoint_every(2);
    let truncated = TrainConfig { epochs: 6, ..tc };
    train_node_classification_checkpointed(&pipe(&data), &data, &truncated, SEED, Some(&policy));
    let resumed =
        train_node_classification_checkpointed(&pipe(&data), &data, &tc, SEED, Some(&policy));

    assert_eq!(baseline.macro_f1.to_bits(), resumed.macro_f1.to_bits(), "Macro-F1 diverged");
    assert_eq!(baseline.micro_f1.to_bits(), resumed.micro_f1.to_bits(), "Micro-F1 diverged");
    assert_eq!(baseline.epochs_run, resumed.epochs_run);
}

#[test]
fn full_run_killed_mid_search_resumes_to_identical_metrics() {
    let data = tiny_imdb();
    let cfg = small_cfg(&data);
    let ac = small_ac();
    let baseline = run_autoac_classification(&data, Backbone::Gcn, &cfg, &ac, SEED);

    // Crash during the search stage of a full AutoAC run: only the search
    // substage has snapshots on disk; retraining never started.
    let root = ckpt_root("full");
    let policy = CheckpointPolicy::new(&root.0).checkpoint_every(2);
    {
        let mut trunc = ac;
        trunc.search_epochs = 5;
        let task = ClassificationTask::new(&data);
        let cache = OpCache::new(&data.graph);
        let sub = policy.substage("search");
        search_checkpointed(
            &data,
            Backbone::Gcn,
            &cfg,
            &trunc,
            &task,
            SEED,
            &cache,
            Some(&sub),
        );
    }
    let resumed =
        run_autoac_classification_checkpointed(&data, Backbone::Gcn, &cfg, &ac, SEED, Some(&policy));

    assert_search_identical(&baseline.search, &resumed.search);
    assert_eq!(
        baseline.outcome.macro_f1.to_bits(),
        resumed.outcome.macro_f1.to_bits(),
        "Macro-F1 diverged"
    );
    assert_eq!(
        baseline.outcome.micro_f1.to_bits(),
        resumed.outcome.micro_f1.to_bits(),
        "Micro-F1 diverged"
    );
    assert_eq!(baseline.outcome.epochs_run, resumed.outcome.epochs_run);
}

/// The batched (neighbor-sampled) schedule.
fn sampled() -> MinibatchConfig {
    MinibatchConfig { batch_size: 24, fanout: Some(5), ..Default::default() }
}

fn run_search_minibatch(
    data: &Dataset,
    mb: &MinibatchConfig,
    epochs: usize,
    policy: Option<&CheckpointPolicy>,
) -> SearchOutcome {
    let cfg = small_cfg(data);
    let mut ac = small_ac();
    ac.search_epochs = epochs;
    let cache = OpCache::new(&data.graph);
    search_minibatch(data, &cfg, &ac, mb, SEED, &cache, policy)
}

fn train_minibatch(
    data: &Dataset,
    mb: &MinibatchConfig,
    epochs: usize,
    policy: Option<&CheckpointPolicy>,
) -> ClsOutcome {
    let cfg = small_cfg(data);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mode = CompletionMode::Single(CompletionOp::Mean);
    let pipe = MinibatchPipeline::new(data, &cfg, mode, &mut rng);
    let tc = TrainConfig { epochs, patience: 10, ..Default::default() };
    train_node_classification_minibatch(&pipe, data, &tc, mb, SEED, policy)
}

#[test]
fn killed_minibatch_search_resumes_bit_identically() {
    let data = tiny_imdb();
    let mb = sampled();
    let baseline = run_search_minibatch(&data, &mb, 8, None);
    let root = ckpt_root("search-mb");
    let policy = CheckpointPolicy::new(&root.0).checkpoint_every(2);
    run_search_minibatch(&data, &mb, 5, Some(&policy));
    let resumed = run_search_minibatch(&data, &mb, 8, Some(&policy));
    assert_search_identical(&baseline, &resumed);
}

#[test]
fn killed_minibatch_training_resumes_bit_identically() {
    let data = tiny_imdb();
    let mb = sampled();
    let baseline = train_minibatch(&data, &mb, 10, None);
    let root = ckpt_root("train-mb");
    let policy = CheckpointPolicy::new(&root.0).checkpoint_every(2);
    train_minibatch(&data, &mb, 6, Some(&policy));
    let resumed = train_minibatch(&data, &mb, 10, Some(&policy));
    assert_eq!(baseline.macro_f1.to_bits(), resumed.macro_f1.to_bits(), "Macro-F1");
    assert_eq!(baseline.micro_f1.to_bits(), resumed.micro_f1.to_bits(), "Micro-F1");
    assert_eq!(baseline.epochs_run, resumed.epochs_run, "epochs run");
}

#[test]
#[should_panic(expected = "refusing to resume: snapshot segment fingerprint")]
fn resuming_with_a_different_batch_size_fails_loudly() {
    let data = tiny_imdb();
    let root = ckpt_root("batch-size");
    let policy = CheckpointPolicy::new(&root.0).checkpoint_every(2);
    run_search_minibatch(&data, &sampled(), 5, Some(&policy));

    // Same graph, config and seed, but the snapshots belong to a schedule
    // of 24-node batches: a rerun with 48-node batches must refuse them.
    let wider = MinibatchConfig { batch_size: 48, ..sampled() };
    run_search_minibatch(&data, &wider, 8, Some(&policy));
}
