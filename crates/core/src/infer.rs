//! Inference-only forward entry point, split out of the trainer.
//!
//! The training loops in [`crate::trainer`] interleave forwards with
//! optimizer state, checkpoint policies, and early stopping; a serving
//! process needs none of that. [`InferenceModel`] is the read-side
//! counterpart: it reconstructs a pipeline from a
//! [`ServeState`](autoac_ckpt::ServeState) checkpoint — regenerating the
//! dataset from its recipe, replaying the recorded construction RNG so
//! parameter shapes come out identical, restoring the trained leaves —
//! and then **materializes the completed attributes once**. After load,
//! [`InferenceModel::logits`] is a single backbone forward from that fixed
//! input under [`no_grad`], with a fresh RNG seeded from the checkpoint's
//! `infer_seed`. `autoac-serve` calls it once per loaded checkpoint and
//! answers every query by copying rows out of the result.
//!
//! That reseeding is the serving determinism contract: logits depend only
//! on (checkpoint, node id), never on batch composition or request order,
//! so micro-batched responses are bitwise-identical to one-at-a-time
//! responses by construction. `autoac-serve` asserts this end to end.

use autoac_ckpt::{CkptError, RunMeta, ServeState, SERVE_KIND};
use autoac_completion::CompletionOp;
use autoac_data::{presets, synth, Dataset, Scale};
use autoac_graph::OpCache;
use autoac_nn::models::GnnConfig;
use autoac_tensor::{no_grad, Matrix, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pipeline::{Backbone, CompletionMode, ForwardPipe, Pipeline};
use crate::search::{search_checkpointed, AutoAcConfig, ClassificationTask};
use crate::trainer::{restore, snapshot, train_node_classification, ClsOutcome, TrainConfig};

fn malformed(section: &str, reason: &'static str) -> CkptError {
    CkptError::Malformed { section: section.to_string(), reason }
}

/// A loaded, query-ready model: dataset, resident [`OpCache`], backbone,
/// and the materialized completed-attribute block.
pub struct InferenceModel {
    data: Dataset,
    /// Kept alive so reloads over the same graph could share operators and
    /// because the pipeline's CSRs borrow nothing from it (Rc-shared).
    #[allow(dead_code)]
    cache: OpCache,
    pipe: Pipeline,
    /// Materialized completed attributes, `(N, in_dim)`.
    attrs: Matrix,
    /// The same block as a constant tensor — the fixed input of every
    /// inference forward.
    x: Tensor,
    infer_seed: u64,
    state: ServeStateInfo,
}

/// Checkpoint identity surfaced in responses and `/healthz`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStateInfo {
    /// `meta.config_fp` as fixed-width hex — the string clients see in the
    /// `ckpt` response field.
    pub config_fp_hex: String,
    /// Graph structural fingerprint.
    pub graph_fp: u64,
    /// Backbone tag.
    pub backbone: String,
    /// Dataset preset name.
    pub preset: String,
    /// Training epochs completed at export.
    pub epochs_done: u64,
    /// Test macro-F1 at export.
    pub macro_f1: f64,
    /// Test micro-F1 at export.
    pub micro_f1: f64,
}

impl InferenceModel {
    /// Reconstructs a query-ready model from a serving checkpoint. Fails
    /// loudly (never silently serves the wrong model) when the regenerated
    /// graph's fingerprint, the parameter count, or any parameter shape
    /// disagrees with the checkpoint.
    pub fn from_state(state: &ServeState) -> Result<Self, CkptError> {
        state.validate_self()?;
        let spec = presets::by_name(&state.preset)
            .ok_or_else(|| malformed("data.preset", "unknown dataset preset"))?;
        let scale = Scale::parse(&state.scale)
            .ok_or_else(|| malformed("data.scale", "unparseable dataset scale"))?;
        let data = synth::generate(&spec, scale, state.data_seed);
        let graph_fp = data.graph.structural_fingerprint();
        if graph_fp != state.meta.graph_fp {
            return Err(CkptError::Mismatch {
                field: "graph fingerprint",
                found: state.meta.graph_fp,
                expected: graph_fp,
            });
        }
        let backbone = Backbone::parse(&state.backbone)
            .ok_or_else(|| malformed("model.backbone", "unknown backbone tag"))?;
        let cfg = GnnConfig {
            in_dim: state.in_dim as usize,
            hidden: state.hidden as usize,
            out_dim: state.out_dim as usize,
            layers: state.layers as usize,
            heads: state.heads as usize,
            dropout: state.dropout,
            slope: state.slope,
            edge_dim: state.edge_dim as usize,
            beta: state.beta,
        };
        if cfg.out_dim != data.num_classes {
            return Err(malformed("model.dims", "out_dim disagrees with dataset classes"));
        }
        let missing = data.missing_nodes().len();
        if state.assignment.len() != missing {
            return Err(malformed("assignment", "length disagrees with missing-node count"));
        }
        let assignment: Vec<CompletionOp> = state
            .assignment
            .iter()
            .map(|&i| CompletionOp::ALL.get(i as usize).copied())
            .collect::<Option<_>>()
            .ok_or_else(|| malformed("assignment", "op index out of range"))?;

        let cache = OpCache::new(&data.graph);
        // Replaying the recorded construction RNG makes every sampled
        // initial parameter (hence every parameter shape and ordering)
        // identical to the exporting process.
        let mut rng = StdRng::from_state(state.ctor_rng);
        let pipe = Pipeline::new_cached(
            &data,
            backbone,
            &cfg,
            CompletionMode::Assigned(assignment),
            &cache,
            &mut rng,
        );
        let params = pipe.params();
        if params.len() != state.params.len() {
            return Err(malformed("params", "parameter count disagrees with pipeline"));
        }
        for (p, m) in params.iter().zip(&state.params) {
            if p.shape() != m.shape() {
                return Err(malformed("params", "parameter shape disagrees with pipeline"));
            }
        }
        restore(&params, &state.params);

        // Materialize once: completion ops never run again after this.
        let attrs = no_grad(|| pipe.completed_x().to_matrix());
        let x = Tensor::constant(attrs.clone());
        Ok(Self {
            data,
            cache,
            pipe,
            attrs,
            x,
            infer_seed: state.infer_seed,
            state: ServeStateInfo {
                config_fp_hex: format!("{:016x}", state.meta.config_fp),
                graph_fp,
                backbone: state.backbone.clone(),
                preset: state.preset.clone(),
                epochs_done: state.epochs_done,
                macro_f1: state.macro_f1,
                micro_f1: state.micro_f1,
            },
        })
    }

    /// One full-graph inference forward: `(N, C)` logits. A fresh RNG
    /// seeded from `infer_seed` per call (plus the fixed materialized
    /// input) is what makes the result independent of when — and alongside
    /// which other requests — the forward runs.
    pub fn logits(&self) -> Matrix {
        no_grad(|| {
            let mut rng = StdRng::seed_from_u64(self.infer_seed);
            self.pipe.model.forward(&self.x, false, &mut rng).output.to_matrix()
        })
    }

    /// The materialized completed-attribute block, `(N, in_dim)`.
    pub fn attrs(&self) -> &Matrix {
        &self.attrs
    }

    /// Total node count (valid classify/attrs ids are `0..num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.data.graph.num_nodes()
    }

    /// Number of classes (logit columns).
    pub fn num_classes(&self) -> usize {
        self.data.num_classes
    }

    /// Checkpoint identity for responses and health reporting.
    pub fn info(&self) -> &ServeStateInfo {
        &self.state
    }
}

/// Recipe for training a model and exporting it as a [`ServeState`] — the
/// write side of the serving checkpoint, used by `serve --train`, the
/// serving benchmark, and tests.
#[derive(Debug, Clone)]
pub struct ServeTrainSpec {
    /// Dataset preset name.
    pub preset: String,
    /// Dataset scale string.
    pub scale: String,
    /// Dataset generation seed.
    pub data_seed: u64,
    /// Backbone to train.
    pub backbone: Backbone,
    /// GNN dimensions (`out_dim` is overwritten with the dataset's class
    /// count).
    pub gnn: GnnConfig,
    /// Optimizer settings for retraining.
    pub train: TrainConfig,
    /// Completion-op search settings; `None` skips the search and assigns
    /// [`CompletionOp::Mean`] everywhere (fast path for smoke tests).
    pub search: Option<AutoAcConfig>,
    /// Run seed (search, construction, and training derive from it).
    pub seed: u64,
}

impl Default for ServeTrainSpec {
    fn default() -> Self {
        Self {
            preset: "imdb".into(),
            scale: "tiny".into(),
            data_seed: 1,
            backbone: Backbone::Gcn,
            gnn: GnnConfig { in_dim: 16, hidden: 16, layers: 2, dropout: 0.0, ..Default::default() },
            train: TrainConfig { epochs: 20, patience: 20, ..Default::default() },
            search: None,
            seed: 7,
        }
    }
}

/// Trains per the spec and packages the result as a self-contained
/// [`ServeState`]. The construction RNG state is captured immediately
/// before pipeline assembly, so [`InferenceModel::from_state`] rebuilds
/// the exact same pipeline.
pub fn train_serve_state(spec: &ServeTrainSpec) -> Result<(ServeState, ClsOutcome), CkptError> {
    let preset = presets::by_name(&spec.preset)
        .ok_or_else(|| malformed("data.preset", "unknown dataset preset"))?;
    let scale = Scale::parse(&spec.scale)
        .ok_or_else(|| malformed("data.scale", "unparseable dataset scale"))?;
    let data = synth::generate(&preset, scale, spec.data_seed);
    if data.num_classes == 0 {
        return Err(malformed("data.preset", "dataset has no classification task"));
    }
    let mut cfg = spec.gnn;
    cfg.out_dim = data.num_classes;

    let cache = OpCache::new(&data.graph);
    let assignment: Vec<CompletionOp> = match &spec.search {
        Some(ac) => {
            let task = ClassificationTask::new(&data);
            search_checkpointed(&data, spec.backbone, &cfg, ac, &task, spec.seed, &cache, None)
                .assignment
        }
        None => vec![CompletionOp::Mean; data.missing_nodes().len()],
    };

    // Same seed derivation as the full AutoAC run: `^ 0x5eed` constructs,
    // `^ 0x7e7e` trains.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5eed);
    let ctor_rng = rng.state();
    let pipe = Pipeline::new_cached(
        &data,
        spec.backbone,
        &cfg,
        CompletionMode::Assigned(assignment.clone()),
        &cache,
        &mut rng,
    );
    let outcome = train_node_classification(&pipe, &data, &spec.train, spec.seed ^ 0x7e7e);
    let params = snapshot(&pipe.params());

    let mut state = ServeState {
        meta: RunMeta {
            kind: SERVE_KIND.into(),
            graph_fp: data.graph.structural_fingerprint(),
            config_fp: 0,
            seed: spec.seed,
            segment_fp: 0,
        },
        preset: spec.preset.clone(),
        scale: spec.scale.clone(),
        data_seed: spec.data_seed,
        backbone: spec.backbone.tag().into(),
        in_dim: cfg.in_dim as u64,
        hidden: cfg.hidden as u64,
        out_dim: cfg.out_dim as u64,
        layers: cfg.layers as u64,
        heads: cfg.heads as u64,
        edge_dim: cfg.edge_dim as u64,
        dropout: cfg.dropout,
        slope: cfg.slope,
        beta: cfg.beta,
        assignment: assignment.iter().map(|op| op.index() as u32).collect(),
        ctor_rng,
        infer_seed: spec.seed ^ 0xCAFE,
        params,
        epochs_done: outcome.epochs_run as u64,
        macro_f1: outcome.macro_f1,
        micro_f1: outcome.micro_f1,
    };
    state.meta.config_fp = state.config_fingerprint();
    Ok((state, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(seed: u64) -> ServeTrainSpec {
        ServeTrainSpec {
            train: TrainConfig { epochs: 4, patience: 4, ..Default::default() },
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn exported_state_reloads_and_reproduces_training_process_logits() {
        let (state, outcome) = train_serve_state(&quick_spec(7)).unwrap();
        assert!(outcome.epochs_run > 0);
        // Through the wire format, in a "fresh process".
        let bytes = state.to_snapshot().encode();
        let reloaded =
            ServeState::from_snapshot(&autoac_ckpt::Snapshot::decode(&bytes).unwrap()).unwrap();
        let model = InferenceModel::from_state(&reloaded).unwrap();
        assert!(model.num_nodes() > 0);
        assert_eq!(model.num_classes(), model.logits().cols());

        // Bitwise-identical logits across two loads and across calls.
        let model2 = InferenceModel::from_state(&state).unwrap();
        let (a, b) = (model.logits(), model2.logits());
        assert_eq!(a, b);
        assert_eq!(a, model.logits());
        // And the completed attributes are identical too.
        assert_eq!(model.attrs(), model2.attrs());
    }

    #[test]
    fn different_seeds_export_different_models_with_shared_graph() {
        let (a, _) = train_serve_state(&quick_spec(7)).unwrap();
        let (b, _) = train_serve_state(&quick_spec(8)).unwrap();
        assert_eq!(a.meta.graph_fp, b.meta.graph_fp, "same dataset recipe, same graph");
        assert_ne!(a.meta.config_fp, b.meta.config_fp, "ctor RNG differs");
        let la = InferenceModel::from_state(&a).unwrap().logits();
        let lb = InferenceModel::from_state(&b).unwrap().logits();
        assert_ne!(la, lb, "independently trained models must differ");
    }

    #[test]
    fn tampered_checkpoints_fail_loudly() {
        let (state, _) = train_serve_state(&quick_spec(7)).unwrap();

        let mut wrong_graph = state.clone();
        wrong_graph.data_seed += 1; // regenerates a different graph
        wrong_graph.meta.config_fp = wrong_graph.config_fingerprint();
        assert!(matches!(
            InferenceModel::from_state(&wrong_graph),
            Err(CkptError::Mismatch { field: "graph fingerprint", .. })
        ));

        let mut bad_assign = state.clone();
        bad_assign.assignment.pop();
        bad_assign.meta.config_fp = bad_assign.config_fingerprint();
        assert!(InferenceModel::from_state(&bad_assign).is_err());

        let mut bad_op = state;
        bad_op.assignment[0] = 99;
        bad_op.meta.config_fp = bad_op.config_fingerprint();
        assert!(InferenceModel::from_state(&bad_op).is_err());
    }
}
