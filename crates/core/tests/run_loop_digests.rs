//! Pins the exact trajectories of the search and training loops.
//!
//! Every test runs one loop configuration at tiny scale and folds the bits
//! of its results into a 64-bit [`Fingerprint`]: the searched assignment,
//! the cluster map, α, the `L_GmoC` trace, the test metrics and the number
//! of epochs run (never wall-clock seconds). The constants were computed
//! once and must not change: a refactor of the loops that moves any of
//! them has changed the RNG draw order, the parameter order or the
//! arithmetic of some run. Kernels are bitwise-deterministic across thread
//! counts and the buffer pool and `AUTOAC_CHECK` are output-invisible, so
//! the constants hold under every configuration `scripts/verify.sh` runs.

use autoac_ckpt::{CheckpointPolicy, Fingerprint};
use autoac_core::{
    run_autoac_classification, run_autoac_classification_checkpointed,
    run_autoac_link_prediction, search, search_minibatch, train_link_prediction,
    train_node_classification, train_node_classification_minibatch, AutoAcConfig, Backbone,
    ClassificationTask, ClsOutcome, ClusteringMode, CompletionMode, LpOutcome, MinibatchConfig,
    MinibatchPipeline, Pipeline, SearchOutcome, TrainConfig,
};
use autoac_completion::CompletionOp;
use autoac_data::{mask_edges, presets, synth, Dataset, LinkSplit, Scale};
use autoac_graph::OpCache;
use autoac_nn::GnnConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_imdb() -> Dataset {
    synth::generate(&presets::imdb(), Scale::Tiny, 0)
}

fn lastfm_split() -> LinkSplit {
    let data = synth::generate(&presets::lastfm(), Scale::Tiny, 2);
    mask_edges(&data, 0.1, &mut StdRng::seed_from_u64(2))
}

fn gnn(data: &Dataset) -> GnnConfig {
    GnnConfig {
        in_dim: 16,
        hidden: 16,
        out_dim: data.num_classes,
        layers: 2,
        dropout: 0.2,
        ..Default::default()
    }
}

fn ac(clustering: ClusteringMode, discrete: bool) -> AutoAcConfig {
    AutoAcConfig {
        clusters: 4,
        clustering,
        discrete,
        search_epochs: 8,
        omega_warmup: 1,
        // Patience 2 makes early stopping and best-epoch restore part of
        // every retraining trajectory pinned here.
        train: TrainConfig { epochs: 8, patience: 2, lr: 0.02, ..Default::default() },
        ..Default::default()
    }
}

fn sampled() -> MinibatchConfig {
    MinibatchConfig { batch_size: 24, fanout: Some(5), ..Default::default() }
}

fn f32s(fp: Fingerprint, xs: &[f32]) -> Fingerprint {
    xs.iter().fold(fp.u64(xs.len() as u64), |fp, &x| fp.f32(x))
}

fn search_fp(fp: Fingerprint, s: &SearchOutcome) -> Fingerprint {
    let fp = s.assignment.iter().fold(fp.u64(s.assignment.len() as u64), |fp, op| {
        fp.u64(op.index() as u64)
    });
    let fp = s.cluster_of.iter().fold(fp.u64(s.cluster_of.len() as u64), |fp, &c| {
        fp.u64(u64::from(c))
    });
    let (rows, cols) = s.alpha.shape();
    let fp = f32s(fp.u64(rows as u64).u64(cols as u64), s.alpha.data());
    f32s(fp, &s.gmoc_trace)
}

fn cls_fp(fp: Fingerprint, o: &ClsOutcome) -> Fingerprint {
    fp.u64(o.macro_f1.to_bits()).u64(o.micro_f1.to_bits()).u64(o.epochs_run as u64)
}

fn lp_fp(fp: Fingerprint, o: &LpOutcome) -> Fingerprint {
    fp.u64(o.roc_auc.to_bits()).u64(o.mrr.to_bits()).u64(o.epochs_run as u64)
}

fn whole_graph_search(clustering: ClusteringMode, discrete: bool) -> u64 {
    let data = tiny_imdb();
    let task = ClassificationTask::new(&data);
    let out = search(&data, Backbone::Gcn, &gnn(&data), &ac(clustering, discrete), &task, 3);
    search_fp(Fingerprint::new(), &out).finish()
}

fn autoac_classification(backbone: Backbone) -> u64 {
    let data = tiny_imdb();
    let run = run_autoac_classification(
        &data,
        backbone,
        &gnn(&data),
        &ac(ClusteringMode::GmoC, true),
        5,
    );
    cls_fp(search_fp(Fingerprint::new(), &run.search), &run.outcome).finish()
}

fn minibatch_search() -> u64 {
    let data = tiny_imdb();
    let cache = OpCache::new(&data.graph);
    let out = search_minibatch(
        &data,
        &gnn(&data),
        &ac(ClusteringMode::GmoC, true),
        &sampled(),
        7,
        &cache,
        None,
    );
    search_fp(Fingerprint::new(), &out).finish()
}

fn minibatch_training() -> u64 {
    let data = tiny_imdb();
    let mut rng = StdRng::seed_from_u64(8);
    let mode = CompletionMode::Single(CompletionOp::Mean);
    let pipe = MinibatchPipeline::new(&data, &gnn(&data), mode, &mut rng);
    let tc = TrainConfig { epochs: 10, patience: 3, ..Default::default() };
    let out = train_node_classification_minibatch(&pipe, &data, &tc, &sampled(), 8, None);
    cls_fp(Fingerprint::new(), &out).finish()
}

#[test]
fn search_gmoc_discrete() {
    assert_eq!(whole_graph_search(ClusteringMode::GmoC, true), 0xd242243900ea4e9a);
}

#[test]
fn search_gmoc_relaxed() {
    assert_eq!(whole_graph_search(ClusteringMode::GmoC, false), 0x541af80f32f16e08);
}

#[test]
fn search_no_cluster_discrete() {
    assert_eq!(whole_graph_search(ClusteringMode::NoCluster, true), 0x3a8478f8b08f43fa);
}

#[test]
fn search_no_cluster_relaxed() {
    assert_eq!(whole_graph_search(ClusteringMode::NoCluster, false), 0x76cd39bd20d5ade2);
}

#[test]
fn search_em_discrete() {
    assert_eq!(whole_graph_search(ClusteringMode::Em, true), 0xd1111b175a37ae12);
}

#[test]
fn search_em_relaxed() {
    assert_eq!(whole_graph_search(ClusteringMode::Em, false), 0x6e54b2a2072a6906);
}

#[test]
fn search_em_warmup_discrete() {
    assert_eq!(whole_graph_search(ClusteringMode::EmWarmup(2), true), 0x35238d9a6f67631d);
}

#[test]
fn search_em_warmup_relaxed() {
    assert_eq!(whole_graph_search(ClusteringMode::EmWarmup(2), false), 0xfe8190772cac65e5);
}

#[test]
fn autoac_classification_simple_hgn() {
    assert_eq!(autoac_classification(Backbone::SimpleHgn), 0x60c9dcaef55ab05b);
}

#[test]
fn autoac_classification_magnn() {
    assert_eq!(autoac_classification(Backbone::Magnn), 0x19d878adc6365273);
}

#[test]
fn autoac_classification_han() {
    assert_eq!(autoac_classification(Backbone::Han), 0xa78bee710cb9769e);
}

#[test]
fn autoac_link_prediction() {
    let split = lastfm_split();
    let gnn = GnnConfig { in_dim: 16, hidden: 16, out_dim: 16, layers: 2, ..Default::default() };
    let run = run_autoac_link_prediction(
        &split,
        Backbone::SimpleHgnLp,
        &gnn,
        &ac(ClusteringMode::GmoC, true),
        2,
    );
    let digest = lp_fp(search_fp(Fingerprint::new(), &run.search), &run.outcome).finish();
    assert_eq!(digest, 0x59524198a4010000);
}

#[test]
fn classification_training() {
    let data = tiny_imdb();
    let mut rng = StdRng::seed_from_u64(4);
    let mode = CompletionMode::Single(CompletionOp::OneHot);
    let pipe = Pipeline::new(&data, Backbone::Gcn, &gnn(&data), mode, &mut rng);
    let tc = TrainConfig { epochs: 10, patience: 3, ..Default::default() };
    let out = train_node_classification(&pipe, &data, &tc, 4);
    assert_eq!(cls_fp(Fingerprint::new(), &out).finish(), 0x89953ee30feb3c2a);
}

#[test]
fn link_prediction_training() {
    let split = lastfm_split();
    let gnn = GnnConfig { in_dim: 16, hidden: 16, out_dim: 16, layers: 2, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(6);
    let mode = CompletionMode::Single(CompletionOp::Mean);
    let pipe = Pipeline::new(&split.train_data, Backbone::Gcn, &gnn, mode, &mut rng);
    let tc = TrainConfig { epochs: 10, patience: 3, ..Default::default() };
    let out = train_link_prediction(&pipe, &split, &tc, 6);
    assert_eq!(lp_fp(Fingerprint::new(), &out).finish(), 0x1afe17ad263569f9);
}

#[test]
fn sampled_search() {
    assert_eq!(minibatch_search(), 0x9986502edd7fd6dc);
}

#[test]
fn sampled_training() {
    assert_eq!(minibatch_training(), 0xb50a028ceca1ca6d);
}

#[test]
fn autoac_classification_checkpointed_every_epoch() {
    let data = tiny_imdb();
    let root = std::env::temp_dir()
        .join(format!("autoac-run-loop-digest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let policy = CheckpointPolicy::new(&root).checkpoint_every(1);
    let run = run_autoac_classification_checkpointed(
        &data,
        Backbone::Gcn,
        &gnn(&data),
        &ac(ClusteringMode::GmoC, true),
        9,
        Some(&policy),
    );
    std::fs::remove_dir_all(&root).unwrap();
    let digest = cls_fp(search_fp(Fingerprint::new(), &run.search), &run.outcome).finish();
    assert_eq!(digest, 0xc630387a52984b15);
}
