//! Pipeline assembly: feature encoder → attribute completion → GNN
//! backbone, plus the backbone factory shared by every experiment.

use autoac_completion::{complete_assigned, CompletionContext, CompletionOp, CompletionOps};
use autoac_data::Dataset;
use autoac_graph::OpCache;
use autoac_nn::models::{Gat, GatneLite, Gcn, GtnLite, Han, HetGnnLite, HetSannLite, HgtLite, Magnn, SimpleHgn};
use autoac_nn::{FeatureEncoder, Forward, Gnn, GnnConfig};
use autoac_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Xavier-initialized `(in, out)` parameter leaf.
pub fn linear_param(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Tensor {
    Tensor::param(autoac_tensor::init::xavier_uniform(in_dim, out_dim, rng))
}

/// The GNN backbones evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backbone {
    /// GCN baseline.
    Gcn,
    /// GAT baseline.
    Gat,
    /// SimpleHGN (node classification).
    SimpleHgn,
    /// SimpleHGN with L2-normalized output (link prediction).
    SimpleHgnLp,
    /// MAGNN.
    Magnn,
    /// HAN.
    Han,
    /// HetSANN (simplified).
    HetSann,
    /// HGT (simplified).
    Hgt,
    /// HetGNN (simplified).
    HetGnn,
    /// GTN (simplified).
    Gtn,
    /// GATNE (simplified, embedding-based, link prediction).
    Gatne,
}

impl Backbone {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Backbone::Gcn => "GCN",
            Backbone::Gat => "GAT",
            Backbone::SimpleHgn | Backbone::SimpleHgnLp => "SimpleHGN",
            Backbone::Magnn => "MAGNN",
            Backbone::Han => "HAN",
            Backbone::HetSann => "HetSANN",
            Backbone::Hgt => "HGT",
            Backbone::HetGnn => "HetGNN",
            Backbone::Gtn => "GTN",
            Backbone::Gatne => "GATNE",
        }
    }

    /// Stable lowercase tag, unique per variant (unlike [`Self::name`],
    /// which maps both SimpleHGN variants to one display string). Used as
    /// the on-disk identity in serving checkpoints.
    pub fn tag(self) -> &'static str {
        match self {
            Backbone::Gcn => "gcn",
            Backbone::Gat => "gat",
            Backbone::SimpleHgn => "simple_hgn",
            Backbone::SimpleHgnLp => "simple_hgn_lp",
            Backbone::Magnn => "magnn",
            Backbone::Han => "han",
            Backbone::HetSann => "het_sann",
            Backbone::Hgt => "hgt",
            Backbone::HetGnn => "het_gnn",
            Backbone::Gtn => "gtn",
            Backbone::Gatne => "gatne",
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn parse(s: &str) -> Option<Backbone> {
        let all = [
            Backbone::Gcn,
            Backbone::Gat,
            Backbone::SimpleHgn,
            Backbone::SimpleHgnLp,
            Backbone::Magnn,
            Backbone::Han,
            Backbone::HetSann,
            Backbone::Hgt,
            Backbone::HetGnn,
            Backbone::Gtn,
            Backbone::Gatne,
        ];
        all.into_iter().find(|b| b.tag() == s)
    }

    /// Instantiates the backbone for a dataset.
    pub fn build(self, data: &Dataset, cfg: &GnnConfig, rng: &mut StdRng) -> Box<dyn Gnn> {
        self.build_cached(data, cfg, &OpCache::new(&data.graph), rng)
    }

    /// Like [`Backbone::build`], but graph operators the backbone needs are
    /// fetched through `cache` (GCN's `Â` is also what PPNP completion
    /// propagates over, so sharing a cache avoids renormalizing the graph).
    pub fn build_cached(
        self,
        data: &Dataset,
        cfg: &GnnConfig,
        cache: &OpCache,
        rng: &mut StdRng,
    ) -> Box<dyn Gnn> {
        let g = &data.graph;
        match self {
            Backbone::Gcn => Box::new(Gcn::with_adj(cache.sym_norm_adj(g), cfg, rng)),
            Backbone::Gat => Box::new(Gat::new(g, cfg, rng)),
            Backbone::SimpleHgn => Box::new(SimpleHgn::new(g, cfg, rng)),
            Backbone::SimpleHgnLp => Box::new(SimpleHgn::new_for_lp(g, cfg, rng)),
            Backbone::Magnn => Box::new(Magnn::new(g, data.target_type, cfg, 8, rng)),
            Backbone::Han => Box::new(Han::new(g, data.target_type, cfg, 32, rng)),
            Backbone::HetSann => Box::new(HetSannLite::new(g, cfg, rng)),
            Backbone::Hgt => Box::new(HgtLite::new(g, cfg, rng)),
            Backbone::HetGnn => Box::new(HetGnnLite::new(g, cfg, 5, 10, rng)),
            Backbone::Gtn => Box::new(GtnLite::new(g, cfg, rng)),
            Backbone::Gatne => Box::new(GatneLite::new(g, cfg, rng)),
        }
    }
}

/// How the zero rows of the initial embedding block are filled before the
/// backbone runs.
#[derive(Debug, Clone)]
pub enum CompletionMode {
    /// Leave missing rows zero (no completion).
    Zero,
    /// One operation for every `V⁻` node (Table VI/VII single-op rows).
    Single(CompletionOp),
    /// Fixed per-node assignment (AutoAC's result, or random baseline).
    Assigned(Vec<CompletionOp>),
}

impl CompletionMode {
    /// The op of each missing node of a completion context, given the
    /// node's one-hot table row (its position in the whole graph's missing
    /// list); `None` for [`CompletionMode::Zero`], which completes nothing.
    pub fn assignment(&self, onehot_rows: &[u32]) -> Option<Vec<CompletionOp>> {
        match self {
            CompletionMode::Zero => None,
            CompletionMode::Single(op) => Some(vec![*op; onehot_rows.len()]),
            CompletionMode::Assigned(assign) => {
                Some(onehot_rows.iter().map(|&p| assign[p as usize]).collect())
            }
        }
    }

    /// The parameters of the ops this mode activates, in
    /// [`CompletionOp::ALL`] order.
    pub fn op_params(&self, ops: &CompletionOps) -> Vec<Tensor> {
        match self {
            CompletionMode::Zero => Vec::new(),
            CompletionMode::Single(op) => ops.op_params(*op),
            CompletionMode::Assigned(assign) => CompletionOp::ALL
                .into_iter()
                .filter(|op| assign.contains(op))
                .flat_map(|op| ops.op_params(op))
                .collect(),
        }
    }
}

/// Uniformly random per-node op assignment (the Random_AC baseline).
pub fn random_assignment(n: usize, rng: &mut StdRng) -> Vec<CompletionOp> {
    (0..n).map(|_| CompletionOp::from_index(rng.gen_range(0..CompletionOp::ALL.len()))).collect()
}

/// Anything the generic trainer can optimize: a forward pass producing
/// hidden + output blocks, and its trainable parameters.
pub trait ForwardPipe {
    /// Runs the full pipeline.
    fn forward(&self, training: bool, rng: &mut StdRng) -> Forward;
    /// All trainable parameters.
    fn params(&self) -> Vec<Tensor>;
}

/// The standard pipeline: encoder → completion (fixed mode) → backbone.
pub struct Pipeline {
    /// Per-type input projections.
    pub encoder: FeatureEncoder,
    /// Completion op parameters and graph operators.
    pub ops: CompletionOps,
    /// The GNN backbone.
    pub model: Box<dyn Gnn>,
    mode: CompletionMode,
}

impl Pipeline {
    /// Assembles the pipeline for a dataset.
    pub fn new(
        data: &Dataset,
        backbone: Backbone,
        cfg: &GnnConfig,
        mode: CompletionMode,
        rng: &mut StdRng,
    ) -> Self {
        Self::new_cached(data, backbone, cfg, mode, &OpCache::new(&data.graph), rng)
    }

    /// Like [`Pipeline::new`], but all normalized graph operators come from
    /// `cache`. Pass the same cache when assembling several pipelines over
    /// one dataset (search then retrain, seed sweeps, baselines) so each CSR
    /// is built once; even a single pipeline benefits, because the
    /// completion context and a GCN backbone share `Â`.
    pub fn new_cached(
        data: &Dataset,
        backbone: Backbone,
        cfg: &GnnConfig,
        mode: CompletionMode,
        cache: &OpCache,
        rng: &mut StdRng,
    ) -> Self {
        let encoder = FeatureEncoder::new(&data.graph, &data.features, cfg.in_dim, rng);
        let ctx = CompletionContext::build_cached(&data.graph, &data.has_attr(), cache);
        let ops = CompletionOps::new(ctx, cfg.in_dim, rng);
        let model = backbone.build_cached(data, cfg, cache, rng);
        Self { encoder, ops, model, mode }
    }

    /// The `(N, d)` projected-attribute block (zeros at missing rows).
    pub fn x0(&self) -> Tensor {
        self.encoder.encode()
    }

    /// The completed initial embedding under the pipeline's mode.
    pub fn completed_x(&self) -> Tensor {
        let x0 = self.x0();
        match self.mode.assignment(self.ops.identity_rows()) {
            None => x0,
            Some(assign) => complete_assigned(&self.ops, &x0, &assign),
        }
    }

    /// Replaces the completion mode (e.g. after a search).
    pub fn set_mode(&mut self, mode: CompletionMode) {
        self.mode = mode;
    }

    /// The current completion mode.
    pub fn mode(&self) -> &CompletionMode {
        &self.mode
    }
}

impl ForwardPipe for Pipeline {
    fn forward(&self, training: bool, rng: &mut StdRng) -> Forward {
        self.model.forward(&self.completed_x(), training, rng)
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.encoder.params();
        p.extend(self.mode.op_params(&self.ops));
        p.extend(self.model.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoac_data::{presets, synth};
    use rand::SeedableRng;

    fn tiny_imdb() -> Dataset {
        synth::generate(&presets::imdb(), synth::Scale::Tiny, 0)
    }

    #[test]
    fn all_backbones_build_and_run() {
        let data = tiny_imdb();
        let cfg = GnnConfig {
            in_dim: 16,
            hidden: 16,
            out_dim: data.num_classes,
            layers: 2,
            heads: 2,
            dropout: 0.0,
            ..Default::default()
        };
        for backbone in [
            Backbone::Gcn,
            Backbone::Gat,
            Backbone::SimpleHgn,
            Backbone::Magnn,
            Backbone::Han,
            Backbone::HetSann,
            Backbone::Hgt,
            Backbone::HetGnn,
            Backbone::Gtn,
            Backbone::Gatne,
        ] {
            let mut rng = StdRng::seed_from_u64(0);
            let pipe = Pipeline::new(
                &data,
                backbone,
                &cfg,
                CompletionMode::Single(CompletionOp::OneHot),
                &mut rng,
            );
            let f = pipe.forward(false, &mut rng);
            assert_eq!(
                f.output.shape(),
                (data.graph.num_nodes(), data.num_classes),
                "{}",
                backbone.name()
            );
            assert!(f.output.value().check_finite().is_ok(), "{}", backbone.name());
        }
    }

    #[test]
    fn zero_mode_leaves_missing_rows_zero() {
        let data = tiny_imdb();
        let cfg = GnnConfig { in_dim: 8, out_dim: data.num_classes, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let pipe = Pipeline::new(&data, Backbone::Gcn, &cfg, CompletionMode::Zero, &mut rng);
        let x = pipe.completed_x();
        let v = x.value();
        for &m in &data.missing_nodes()[..10.min(data.missing_nodes().len())] {
            assert!(v.row(m as usize).iter().all(|&z| z == 0.0));
        }
    }

    #[test]
    fn single_mode_fills_missing_rows() {
        let data = tiny_imdb();
        let cfg = GnnConfig { in_dim: 8, out_dim: data.num_classes, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(2);
        let pipe = Pipeline::new(
            &data,
            Backbone::Gcn,
            &cfg,
            CompletionMode::Single(CompletionOp::OneHot),
            &mut rng,
        );
        let x = pipe.completed_x();
        let v = x.value();
        let missing = data.missing_nodes();
        let nonzero = missing
            .iter()
            .filter(|&&m| v.row(m as usize).iter().any(|&z| z != 0.0))
            .count();
        assert_eq!(nonzero, missing.len(), "all missing rows must be filled");
    }

    #[test]
    fn params_depend_on_mode() {
        let data = tiny_imdb();
        let cfg = GnnConfig { in_dim: 8, out_dim: data.num_classes, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let mut pipe =
            Pipeline::new(&data, Backbone::Gcn, &cfg, CompletionMode::Zero, &mut rng);
        let zero_params = pipe.params().len();
        pipe.set_mode(CompletionMode::Single(CompletionOp::Mean));
        let single_params = pipe.params().len();
        assert_eq!(single_params, zero_params + 1, "mean op adds one W");
    }

    #[test]
    fn random_assignment_covers_ops() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_assignment(400, &mut rng);
        for op in CompletionOp::ALL {
            assert!(a.contains(&op), "{op} never sampled");
        }
    }
}
