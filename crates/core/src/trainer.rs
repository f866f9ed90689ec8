//! The training loop shared by every trainer — Adam, early stopping on a
//! validation score, best-epoch restore and crash-safe checkpointing — and
//! its node-classification and link-prediction epochs over any
//! [`ForwardPipe`].

use std::time::Instant;

use autoac_ckpt::{CheckpointPolicy, CkptError, Fingerprint, RunMeta, Snapshot, TrainState};
use autoac_data::{Dataset, LinkSplit};
use autoac_eval::{f1_scores, mrr, roc_auc, F1Scores};
use autoac_tensor::{Adam, AdamConfig, Matrix, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pipeline::ForwardPipe;

/// Optimization settings for the GNN weights ω (paper §V-B: Adam,
/// lr 5e-4, wd 1e-4; our synthetic datasets converge with a slightly larger
/// lr at `small` scale, so the rate is configurable).
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Early-stopping patience (epochs without validation improvement).
    pub patience: usize,
    /// Learning rate for ω.
    pub lr: f32,
    /// Weight decay for ω.
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 150, patience: 25, lr: 5e-3, weight_decay: 1e-4 }
    }
}

impl TrainConfig {
    /// Fingerprint of the trajectory-shaping fields, recorded in snapshots
    /// so resume against a different optimizer setup fails loudly. `epochs`
    /// is deliberately excluded: it only bounds the horizon, and resuming an
    /// interrupted run with a longer budget is a legitimate use.
    pub fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .f32(self.lr)
            .f32(self.weight_decay)
            .u64(self.patience as u64)
            .finish()
    }
}

/// Node-classification outcome.
#[derive(Debug, Clone)]
pub struct ClsOutcome {
    /// Test Macro-F1.
    pub macro_f1: f64,
    /// Test Micro-F1.
    pub micro_f1: f64,
    /// Wall-clock training seconds.
    pub seconds: f64,
    /// Epochs actually run.
    pub epochs_run: usize,
}

impl ClsOutcome {
    /// Seconds per epoch.
    pub fn per_epoch(&self) -> f64 {
        self.seconds / self.epochs_run.max(1) as f64
    }
}

/// Link-prediction outcome.
#[derive(Debug, Clone)]
pub struct LpOutcome {
    /// Test ROC-AUC.
    pub roc_auc: f64,
    /// Test MRR.
    pub mrr: f64,
    /// Wall-clock training seconds.
    pub seconds: f64,
    /// Epochs actually run.
    pub epochs_run: usize,
}

impl LpOutcome {
    /// Seconds per epoch.
    pub fn per_epoch(&self) -> f64 {
        self.seconds / self.epochs_run.max(1) as f64
    }
}

/// Snapshot of parameter values (for best-epoch restoration).
pub fn snapshot(params: &[Tensor]) -> Vec<Matrix> {
    params.iter().map(Tensor::to_matrix).collect()
}

/// Restores a snapshot taken by [`snapshot`].
pub fn restore(params: &[Tensor], snap: &[Matrix]) {
    for (p, m) in params.iter().zip(snap) {
        p.set_value(m.clone());
    }
}

/// The training loop of every trainer. Each epoch `epoch_fn(epoch, opt,
/// rng)` takes its optimizer steps on `params` and returns the validation
/// score that early stopping maximizes. Afterwards the best-scoring
/// parameters are restored; returns `(epochs_run, seconds)`.
///
/// With a policy, the full optimization state (parameters, Adam moments,
/// RNG, early-stopping counters) is snapshotted at epoch boundaries, and a
/// rerun with the same `meta` resumes bit-identically from the latest good
/// snapshot. `rng` must be freshly seeded; on resume it is replaced by the
/// snapshotted stream.
pub(crate) fn fit(
    params: &[Tensor],
    cfg: &TrainConfig,
    meta: RunMeta,
    rng: &mut StdRng,
    policy: Option<&CheckpointPolicy>,
    mut epoch_fn: impl FnMut(usize, &mut Adam, &mut StdRng) -> f64,
) -> (usize, f64) {
    let mut opt = Adam::new(params.to_vec(), AdamConfig::with(cfg.lr, cfg.weight_decay));
    let mut best_val = f64::NEG_INFINITY;
    let mut best_snap = snapshot(params);
    let mut bad_epochs = 0;
    let mut start_epoch = 0usize;
    let mut elapsed_prior = 0.0f64;
    if let Some(state) = policy.and_then(|pol| resume::<TrainState>(pol, &meta, params.len())) {
        restore(params, &state.params);
        opt.import_state(state.opt);
        best_val = state.best_val;
        best_snap = state.best_snap;
        bad_epochs = state.bad_epochs as usize;
        *rng = StdRng::from_state(state.rng);
        start_epoch = state.epochs_done as usize;
        elapsed_prior = state.elapsed_seconds;
    }

    let start = Instant::now();
    let _obs_train = autoac_obs::span("train");
    let mut epochs_run = start_epoch;
    for epoch in start_epoch..cfg.epochs {
        // The patience check sits at the loop top (rather than breaking
        // right after the counter update) so the stopping epoch itself gets
        // checkpointed; `bad_epochs > 0` keeps the control flow identical
        // even at `patience == 0`, where the original still ran one epoch
        // before its post-increment check could fire.
        if bad_epochs > 0 && bad_epochs >= cfg.patience {
            break;
        }
        let _obs_epoch = autoac_obs::span("epoch");
        epochs_run = epoch + 1;
        let val = epoch_fn(epoch, &mut opt, rng);
        if val > best_val {
            best_val = val;
            best_snap = snapshot(params);
            bad_epochs = 0;
        } else {
            bad_epochs += 1;
        }

        if let Some(pol) = policy {
            if pol.should_checkpoint(epoch + 1) {
                let state = TrainState {
                    meta: meta.clone(),
                    epochs_done: (epoch + 1) as u64,
                    elapsed_seconds: elapsed_prior + start.elapsed().as_secs_f64(),
                    rng: rng.state(),
                    params: snapshot(params),
                    opt: opt.export_state(),
                    best_val,
                    best_snap: best_snap.clone(),
                    bad_epochs: bad_epochs as u64,
                };
                save_snapshot(pol, epoch + 1, &state);
            }
            pol.throttle();
        }
    }
    drop(_obs_train);
    restore(params, &best_snap);
    (epochs_run, elapsed_prior + start.elapsed().as_secs_f64())
}

/// One optimizer step on `loss`: verify its tape (when checks are armed),
/// backpropagate, clip the gradient norm to 5 and step. Returns the norm
/// before clipping.
pub(crate) fn descend(opt: &mut Adam, loss: &Tensor) -> f32 {
    autoac_check::tape::verify_backward_if_enabled(loss);
    loss.backward();
    let norm = opt.clip_grad_norm(5.0);
    opt.step();
    norm
}

/// Records an epoch's validation F1 pair and returns the score early
/// stopping maximizes (Micro-F1).
pub(crate) fn f1_score(epoch: usize, scores: &F1Scores) -> f64 {
    if autoac_obs::enabled() {
        autoac_obs::series("val_micro_f1", epoch as u64, scores.micro_f1);
        autoac_obs::series("val_macro_f1", epoch as u64, scores.macro_f1);
    }
    scores.micro_f1
}

/// A loop state the checkpoint helpers write and resume: training
/// ([`TrainState`]) or search ([`autoac_ckpt::SearchState`]).
pub(crate) trait RunState: Sized {
    /// Stage name for error messages.
    const STAGE: &'static str;
    /// Serializes into a snapshot container.
    fn encode(&self) -> Snapshot;
    /// Deserializes from a snapshot container.
    fn decode(snap: &Snapshot) -> Result<Self, CkptError>;
    /// The run identity the snapshot was written under.
    fn meta(&self) -> &RunMeta;
    /// Parameter leaves the snapshot carries.
    fn leaves(&self) -> usize;
}

impl RunState for TrainState {
    const STAGE: &'static str = "training";

    fn encode(&self) -> Snapshot {
        self.to_snapshot()
    }

    fn decode(snap: &Snapshot) -> Result<Self, CkptError> {
        Self::from_snapshot(snap)
    }

    fn meta(&self) -> &RunMeta {
        &self.meta
    }

    fn leaves(&self) -> usize {
        self.params.len()
    }
}

/// Writes one snapshot under an obs `ckpt` span, recording the write
/// latency; a failure is counted and warned about (visible in the run
/// summary), never fatal — a failed snapshot must not kill a healthy run.
pub(crate) fn save_snapshot<S: RunState>(pol: &CheckpointPolicy, epochs_done: usize, state: &S) {
    let _obs = autoac_obs::span("ckpt");
    let write_start = Instant::now();
    match pol.save(epochs_done, &state.encode()) {
        Ok(_) => {
            autoac_obs::hist_record("ckpt_write_ns", write_start.elapsed().as_nanos() as f64);
        }
        Err(e) => {
            autoac_obs::counter_add("ckpt_write_failures", 1);
            autoac_obs::warn("ckpt", &format!("failed to write {} snapshot: {e}", S::STAGE));
        }
    }
}

/// Loads and validates the latest snapshot under `pol`, panicking on
/// identity mismatches (wrong graph/config/seed/segment) and on
/// parameter-count drift; returns `None` when there is nothing to resume
/// from.
pub(crate) fn resume<S: RunState>(
    pol: &CheckpointPolicy,
    expected: &RunMeta,
    leaves: usize,
) -> Option<S> {
    let resumed = pol
        .resume_snapshot()
        .unwrap_or_else(|e| panic!("autoac-ckpt: cannot resume {}: {e}", S::STAGE));
    let (_, snap) = resumed?;
    let state = S::decode(&snap)
        .unwrap_or_else(|e| panic!("autoac-ckpt: invalid {} snapshot: {e}", S::STAGE));
    state.meta().validate(expected).unwrap_or_else(|e| panic!("autoac-ckpt: {e}"));
    assert_eq!(
        state.leaves(),
        leaves,
        "autoac-ckpt: snapshot has a different parameter count"
    );
    Some(state)
}

/// Trains a pipeline for node classification and evaluates on the test
/// split. Early stops on validation Micro-F1.
pub fn train_node_classification(
    pipe: &dyn ForwardPipe,
    data: &Dataset,
    cfg: &TrainConfig,
    seed: u64,
) -> ClsOutcome {
    train_node_classification_checkpointed(pipe, data, cfg, seed, None)
}

/// [`train_node_classification`] with optional crash-safe checkpointing:
/// with a policy, the full optimization state (parameters, Adam moments,
/// RNG, early-stopping counters) is snapshotted at epoch boundaries, and a
/// rerun over the same pipeline resumes bit-identically from the latest
/// good snapshot.
pub fn train_node_classification_checkpointed(
    pipe: &dyn ForwardPipe,
    data: &Dataset,
    cfg: &TrainConfig,
    seed: u64,
    policy: Option<&CheckpointPolicy>,
) -> ClsOutcome {
    assert!(data.num_classes > 0, "dataset has no classification task");
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = data.global_labels();
    let graph_fp = data.graph.structural_fingerprint();
    let meta = RunMeta::whole_graph("train-cls", graph_fp, cfg.fingerprint(), seed);
    let (epochs_run, seconds) = fit(&pipe.params(), cfg, meta, &mut rng, policy, |epoch, opt, rng| {
        opt.zero_grad();
        let fwd = pipe.forward(true, rng);
        let loss = fwd.output.cross_entropy_rows(&labels, &data.split.train);
        if autoac_obs::enabled() {
            // item() re-reads the already-computed scalar; no extra math.
            autoac_obs::series("train_loss", epoch as u64, f64::from(loss.item()));
        }
        descend(opt, &loss);
        f1_score(epoch, &eval_classification(pipe, data, &data.split.val, rng))
    });
    let test = eval_classification(pipe, data, &data.split.test, &mut rng);
    ClsOutcome { macro_f1: test.macro_f1, micro_f1: test.micro_f1, seconds, epochs_run }
}

/// Evaluates classification F1 on a node subset.
pub fn eval_classification(
    pipe: &dyn ForwardPipe,
    data: &Dataset,
    nodes: &[u32],
    rng: &mut StdRng,
) -> F1Scores {
    autoac_tensor::no_grad(|| {
        let fwd = pipe.forward(false, rng);
        let out = fwd.output.value();
        // Per-row argmax directly on the logits — same tie-breaking as
        // `argmax_predictions` (first maximum wins) without building a flat
        // copy of the selected rows.
        let pred: Vec<u32> =
            nodes.iter().map(|&v| out.argmax_row(v as usize) as u32).collect();
        let truth: Vec<u32> = nodes.iter().map(|&v| data.label_of(v)).collect();
        f1_scores(&pred, &truth, data.num_classes)
    })
}

/// Trains a pipeline for link prediction on a masked split and evaluates
/// ROC-AUC / MRR on the held-out edges. Training positives are the
/// remaining target-type edges; negatives are resampled every epoch.
pub fn train_link_prediction(
    pipe: &dyn ForwardPipe,
    split: &LinkSplit,
    cfg: &TrainConfig,
    seed: u64,
) -> LpOutcome {
    train_link_prediction_checkpointed(pipe, split, cfg, seed, None)
}

/// [`train_link_prediction`] with optional crash-safe checkpointing; see
/// [`train_node_classification_checkpointed`] for the resume semantics. The
/// per-epoch negative samples are not snapshotted: they are a pure function
/// of the RNG state, which is.
pub fn train_link_prediction_checkpointed(
    pipe: &dyn ForwardPipe,
    split: &LinkSplit,
    cfg: &TrainConfig,
    seed: u64,
    policy: Option<&CheckpointPolicy>,
) -> LpOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = &split.train_data;
    let all_pos: Vec<(u32, u32)> = data.graph.edges_of_type(split.edge_type).to_vec();
    assert!(!all_pos.is_empty(), "no training edges left after masking");
    // Hold out 10% of the remaining positives for early stopping.
    let n_val = (all_pos.len() / 10).max(1);
    let val_pos = &all_pos[..n_val];
    let train_pos = &all_pos[n_val..];
    let val_neg =
        autoac_data::sample_train_negatives(data, split.edge_type, val_pos.len(), &mut rng);

    let graph_fp = data.graph.structural_fingerprint();
    let meta = RunMeta::whole_graph("train-lp", graph_fp, cfg.fingerprint(), seed);
    let (epochs_run, seconds) = fit(&pipe.params(), cfg, meta, &mut rng, policy, |epoch, opt, rng| {
        let negs = autoac_data::sample_train_negatives(
            data,
            split.edge_type,
            train_pos.len(),
            rng,
        );
        opt.zero_grad();
        let fwd = pipe.forward(true, rng);
        let loss = autoac_nn::lp::lp_loss(&fwd.output, train_pos, &negs);
        if autoac_obs::enabled() {
            autoac_obs::series("train_loss", epoch as u64, f64::from(loss.item()));
        }
        descend(opt, &loss);
        let val = eval_link_prediction(pipe, val_pos, &val_neg, rng).0;
        if autoac_obs::enabled() {
            autoac_obs::series("val_auc", epoch as u64, val);
        }
        val
    });
    let (auc, m) = eval_link_prediction(pipe, &split.test_pos, &split.test_neg, &mut rng);
    LpOutcome { roc_auc: auc, mrr: m, seconds, epochs_run }
}

/// Evaluates (ROC-AUC, MRR) for positive/negative pair sets.
pub fn eval_link_prediction(
    pipe: &dyn ForwardPipe,
    pos: &[(u32, u32)],
    neg: &[(u32, u32)],
    rng: &mut StdRng,
) -> (f64, f64) {
    autoac_tensor::no_grad(|| {
        let fwd = pipe.forward(false, rng);
        let pos_scores = autoac_nn::lp::score_probs(&fwd.output, pos);
        let neg_scores = autoac_nn::lp::score_probs(&fwd.output, neg);
        let mut scores = pos_scores.clone();
        scores.extend_from_slice(&neg_scores);
        let mut labels = vec![1.0f32; pos_scores.len()];
        labels.extend(std::iter::repeat_n(0.0, neg_scores.len()));
        (roc_auc(&scores, &labels), mrr(&pos_scores, &neg_scores))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Backbone, CompletionMode, Pipeline};
    use autoac_completion::CompletionOp;
    use autoac_data::{mask_edges, presets, synth};
    use autoac_nn::GnnConfig;

    fn tiny(name: &str) -> Dataset {
        synth::generate(&presets::by_name(name).unwrap(), synth::Scale::Tiny, 0)
    }

    #[test]
    fn classification_beats_chance_on_tiny_imdb() {
        let data = tiny("imdb");
        let cfg = GnnConfig {
            in_dim: 32,
            hidden: 32,
            out_dim: data.num_classes,
            layers: 2,
            dropout: 0.3,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let pipe = Pipeline::new(
            &data,
            Backbone::Gcn,
            &cfg,
            CompletionMode::Single(CompletionOp::OneHot),
            &mut rng,
        );
        let out = train_node_classification(
            &pipe,
            &data,
            &TrainConfig { epochs: 60, patience: 60, ..Default::default() },
            0,
        );
        let chance = 1.0 / data.num_classes as f64;
        assert!(
            out.micro_f1 > chance + 0.15,
            "micro-f1 {:.3} vs chance {:.3}",
            out.micro_f1,
            chance
        );
        assert!(out.epochs_run <= 60);
        assert!(out.seconds > 0.0);
    }

    #[test]
    fn cached_pipeline_trains_bit_identically_to_uncached() {
        // The operator cache must be invisible to training: pipelines built
        // through a shared cache reuse the Rc<Csr> allocations but compute
        // the exact same numbers.
        let data = tiny("imdb");
        let cfg = GnnConfig {
            in_dim: 16,
            hidden: 16,
            out_dim: data.num_classes,
            layers: 2,
            ..Default::default()
        };
        let tc = TrainConfig { epochs: 5, patience: 5, ..Default::default() };
        let mode = || CompletionMode::Single(CompletionOp::Mean);
        let mut rng = StdRng::seed_from_u64(9);
        let plain = Pipeline::new(&data, Backbone::Gcn, &cfg, mode(), &mut rng);
        let cache = autoac_graph::OpCache::new(&data.graph);
        let mut rng = StdRng::seed_from_u64(9);
        let cached = Pipeline::new_cached(&data, Backbone::Gcn, &cfg, mode(), &cache, &mut rng);
        // Â is one allocation, held by the cache, the completion context,
        // the GCN backbone and this handle.
        let a_hat = cache.sym_norm_adj(&data.graph);
        assert!(std::rc::Rc::ptr_eq(&a_hat, &cached.ops.ctx().sym_adj));
        assert_eq!(std::rc::Rc::strong_count(&a_hat), 4, "Â must be shared, not rebuilt");
        let a = train_node_classification(&plain, &data, &tc, 7);
        let b = train_node_classification(&cached, &data, &tc, 7);
        assert_eq!(a.macro_f1, b.macro_f1);
        assert_eq!(a.micro_f1, b.micro_f1);
        assert_eq!(a.epochs_run, b.epochs_run);
    }

    #[test]
    fn early_stopping_halts_before_max_epochs() {
        let data = tiny("imdb");
        let cfg = GnnConfig {
            in_dim: 8,
            hidden: 8,
            out_dim: data.num_classes,
            layers: 1,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let pipe =
            Pipeline::new(&data, Backbone::Gcn, &cfg, CompletionMode::Zero, &mut rng);
        let out = train_node_classification(
            &pipe,
            &data,
            &TrainConfig { epochs: 500, patience: 3, lr: 0.0, ..Default::default() },
            1,
        );
        // With lr 0 validation never improves → stop after patience+1.
        assert!(out.epochs_run <= 5, "ran {} epochs", out.epochs_run);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let p = Tensor::param(Matrix::ones(2, 2));
        let snap = snapshot(std::slice::from_ref(&p));
        p.set_value(Matrix::zeros(2, 2));
        restore(std::slice::from_ref(&p), &snap);
        assert_eq!(p.to_matrix(), Matrix::ones(2, 2));
    }

    #[test]
    fn link_prediction_beats_chance_on_tiny_lastfm() {
        let data = tiny("lastfm");
        let mut rng = StdRng::seed_from_u64(2);
        let split = mask_edges(&data, 0.1, &mut rng);
        let cfg = GnnConfig {
            in_dim: 32,
            hidden: 32,
            out_dim: 32,
            layers: 2,
            dropout: 0.2,
            ..Default::default()
        };
        let pipe = Pipeline::new(
            &split.train_data,
            Backbone::Gcn,
            &cfg,
            CompletionMode::Single(CompletionOp::OneHot),
            &mut rng,
        );
        let out = train_link_prediction(
            &pipe,
            &split,
            &TrainConfig { epochs: 40, patience: 40, ..Default::default() },
            2,
        );
        assert!(out.roc_auc > 0.6, "auc {:.3}", out.roc_auc);
        assert!(out.mrr > 0.0 && out.mrr <= 1.0);
    }
}
