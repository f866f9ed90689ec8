//! # autoac-core
//!
//! The paper's primary contribution: AutoAC's differentiable
//! attribute-completion search — continuous relaxation over the op search
//! space, bi-level optimization (Eq. 6/12) with NASP-style discrete
//! constraints solved by proximal iteration (Algorithm 1), and the
//! auxiliary modularity-clustering task (Eq. 9–11) — plus every baseline it
//! is compared against (HGNN-AC, single-op and random completion) and the
//! shared training machinery.
//!
//! ```no_run
//! use autoac_core::{run_autoac_classification, AutoAcConfig, Backbone};
//! use autoac_data::{presets, synth};
//! use autoac_nn::GnnConfig;
//!
//! let data = synth::generate(&presets::imdb(), synth::Scale::Small, 0);
//! let gnn = GnnConfig { out_dim: data.num_classes, ..Default::default() };
//! let run = run_autoac_classification(
//!     &data, Backbone::SimpleHgn, &gnn, &AutoAcConfig::default(), 0);
//! println!("Micro-F1 {:.4}", run.outcome.micro_f1);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod hgca;
pub mod hgnnac;
pub mod infer;
pub mod minibatch;
pub mod pipeline;
pub mod proximal;
pub mod sampler;
pub mod search;
pub mod trainer;

pub use hgca::{pretrain_hgca, run_hgca_classification, HgcaConfig, HgcaPipe};
pub use infer::{train_serve_state, InferenceModel, ServeStateInfo, ServeTrainSpec};
pub use hgnnac::{run_hgnnac_classification, HgnnAcConfig, HgnnAcPipe};
pub use minibatch::{
    search_minibatch, train_node_classification_minibatch, MinibatchConfig, MinibatchPipeline,
};
pub use pipeline::{random_assignment, Backbone, CompletionMode, ForwardPipe, Pipeline};
pub use sampler::{batch_rng, NeighborSampler, SampledBatch};
pub use search::{
    derive_assignment, run_autoac_classification, run_autoac_classification_checkpointed,
    run_autoac_link_prediction, run_autoac_link_prediction_checkpointed, search,
    search_checkpointed, AutoAcClsRun, AutoAcConfig, AutoAcLpRun, ClassificationTask,
    ClusteringMode, LinkPredictionTask, SearchOutcome,
};
pub use trainer::{
    eval_classification, eval_link_prediction, train_link_prediction,
    train_link_prediction_checkpointed, train_node_classification,
    train_node_classification_checkpointed, ClsOutcome, LpOutcome, TrainConfig,
};
