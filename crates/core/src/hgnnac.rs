//! HGNN-AC baseline (Jin et al., WWW'21): attention-based attribute
//! completion driven by *pre-learned* topological embeddings.
//!
//! Stage 1 (pre-learning, the expensive phase of Table IV): metapath2vec-
//! style random walks + skip-gram with negative sampling, implemented with
//! hand-rolled SGD (no autograd) exactly because that is how word2vec
//! pipelines run in practice.
//!
//! Stage 2: each no-attribute node completes its attribute as an
//! attention-weighted mean of its attributed 1-hop neighbors, with
//! attention = softmax of topo-embedding dot products. One shared
//! completion operation for all nodes — the coarse-grained design AutoAC
//! improves on.

use std::rc::Rc;
use std::time::Instant;

use autoac_data::Dataset;
use autoac_graph::{walk, Adjacency};
use autoac_nn::{FeatureEncoder, Forward, Gnn, GnnConfig};
use autoac_tensor::{spmm, Csr, Matrix, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pipeline::{Backbone, ForwardPipe};
use crate::trainer::{train_node_classification, ClsOutcome, TrainConfig};

/// Pre-learning and completion hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct HgnnAcConfig {
    /// Topological embedding dimension.
    pub emb_dim: usize,
    /// Random-walk length.
    pub walk_len: usize,
    /// Walks per start node.
    pub walks_per_node: usize,
    /// Skip-gram window.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Skip-gram epochs over the pair corpus.
    pub sg_epochs: usize,
    /// Skip-gram learning rate.
    pub sg_lr: f32,
}

impl Default for HgnnAcConfig {
    fn default() -> Self {
        // metapath2vec-faithful volume (the original uses 40 walks of
        // length ~100 per node): this is what makes HGNN-AC's pre-learning
        // the dominant end-to-end cost in Table IV.
        Self {
            emb_dim: 64,
            walk_len: 80,
            walks_per_node: 40,
            window: 5,
            negatives: 5,
            sg_epochs: 2,
            sg_lr: 0.025,
        }
    }
}

/// Skip-gram with negative sampling over random walks. Returns `(N, dim)`
/// center embeddings.
pub fn train_topo_embeddings(
    data: &Dataset,
    cfg: &HgnnAcConfig,
    rng: &mut StdRng,
) -> Matrix {
    let n = data.graph.num_nodes();
    let adj = Adjacency::build(&data.graph);
    let walks = walk::uniform_walks(
        &adj,
        0..n as u32,
        cfg.walk_len,
        cfg.walks_per_node,
        rng,
    );
    let pairs = walk::skipgram_pairs(&walks, cfg.window);
    let dim = cfg.emb_dim;
    let mut emb = vec![0.0f32; n * dim];
    let mut ctx = vec![0.0f32; n * dim];
    for v in emb.iter_mut() {
        *v = (rng.gen::<f32>() - 0.5) / dim as f32;
    }
    let lr = cfg.sg_lr;
    for _ in 0..cfg.sg_epochs {
        for &(c, x) in &pairs {
            let (c, x) = (c as usize, x as usize);
            sgns_update(&mut emb, &mut ctx, c, x, 1.0, lr, dim);
            for _ in 0..cfg.negatives {
                let neg = rng.gen_range(0..n);
                if neg != x {
                    sgns_update(&mut emb, &mut ctx, c, neg, 0.0, lr, dim);
                }
            }
        }
    }
    Matrix::from_vec(n, dim, emb)
}

#[inline]
fn sgns_update(
    emb: &mut [f32],
    ctx: &mut [f32],
    center: usize,
    context: usize,
    label: f32,
    lr: f32,
    dim: usize,
) {
    let (e, c) = (center * dim, context * dim);
    let mut score = 0.0f32;
    for i in 0..dim {
        score += emb[e + i] * ctx[c + i];
    }
    let g = (1.0 / (1.0 + (-score).exp()) - label) * lr;
    for i in 0..dim {
        let ev = emb[e + i];
        emb[e + i] -= g * ctx[c + i];
        ctx[c + i] -= g * ev;
    }
}

/// Builds the attention-completion operator: row `v ∈ V⁻` holds softmax
/// weights (over attributed 1-hop neighbors) of topo-embedding dot
/// products.
pub fn attention_completion_csr(data: &Dataset, topo: &Matrix) -> Csr {
    let g = &data.graph;
    let has = data.has_attr();
    let n = g.num_nodes();
    let scale = 1.0 / (topo.cols() as f32).sqrt();
    // Collect attributed neighbors per missing node.
    let mut nbrs: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (_, s, d) in g.all_edges() {
        if !has[s as usize] && has[d as usize] {
            nbrs[s as usize].push(d);
        }
        if !has[d as usize] && has[s as usize] {
            nbrs[d as usize].push(s);
        }
    }
    let mut triplets = Vec::new();
    for (v, list) in nbrs.iter().enumerate() {
        if list.is_empty() {
            continue;
        }
        let mut scores: Vec<f32> = list
            .iter()
            .map(|&u| autoac_tensor::dot(topo.row(v), topo.row(u as usize)) * scale)
            .collect();
        autoac_tensor::softmax_in_place(&mut scores);
        for (&u, &w) in list.iter().zip(&scores) {
            triplets.push((v as u32, u, w));
        }
    }
    Csr::from_coo(n, n, triplets)
}

/// The HGNN-AC pipeline: encoder → attention completion → backbone.
pub struct HgnnAcPipe {
    encoder: FeatureEncoder,
    model: Box<dyn Gnn>,
    w: Tensor,
    att: Rc<Csr>,
    att_t: Rc<Csr>,
    missing: Vec<u32>,
    num_nodes: usize,
}

impl HgnnAcPipe {
    /// Assembles the pipeline given pre-learned topological embeddings.
    pub fn new(
        data: &Dataset,
        backbone: Backbone,
        gnn_cfg: &GnnConfig,
        topo: &Matrix,
        rng: &mut StdRng,
    ) -> Self {
        let encoder = FeatureEncoder::new(&data.graph, &data.features, gnn_cfg.in_dim, rng);
        let model = backbone.build(data, gnn_cfg, rng);
        let att = attention_completion_csr(data, topo);
        let att_t = att.transpose();
        Self {
            encoder,
            model,
            w: crate::pipeline::linear_param(gnn_cfg.in_dim, gnn_cfg.in_dim, rng),
            att: Rc::new(att),
            att_t: Rc::new(att_t),
            missing: data.missing_nodes(),
            num_nodes: data.graph.num_nodes(),
        }
    }

    /// The attention-completed initial embedding block.
    pub fn completed_x(&self) -> Tensor {
        let x0 = self.encoder.encode();
        if self.missing.is_empty() {
            return x0;
        }
        let agg = spmm(&self.att, &self.att_t, &x0).gather_rows(&self.missing);
        let completed = agg.matmul(&self.w);
        x0.add(&completed.scatter_add_rows(&self.missing, self.num_nodes))
    }
}

impl ForwardPipe for HgnnAcPipe {
    fn forward(&self, training: bool, rng: &mut StdRng) -> Forward {
        self.model.forward(&self.completed_x(), training, rng)
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.encoder.params();
        p.push(self.w.clone());
        p.extend(self.model.params());
        p
    }
}

/// Full HGNN-AC run: timed pre-learning, then joint training. Returns
/// `(pre-learning seconds, outcome)`.
pub fn run_hgnnac_classification(
    data: &Dataset,
    backbone: Backbone,
    gnn_cfg: &GnnConfig,
    hc: &HgnnAcConfig,
    train: &TrainConfig,
    seed: u64,
) -> (f64, ClsOutcome) {
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let topo = {
        let _obs = autoac_obs::span("prelearn");
        train_topo_embeddings(data, hc, &mut rng)
    };
    let prelearn_seconds = start.elapsed().as_secs_f64();
    let pipe = HgnnAcPipe::new(data, backbone, gnn_cfg, &topo, &mut rng);
    let outcome = train_node_classification(&pipe, data, train, seed ^ 0xac);
    (prelearn_seconds, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoac_data::{presets, synth};

    fn tiny_imdb() -> Dataset {
        synth::generate(&presets::imdb(), synth::Scale::Tiny, 0)
    }

    fn tiny_cfg() -> HgnnAcConfig {
        HgnnAcConfig {
            emb_dim: 16,
            walk_len: 8,
            walks_per_node: 2,
            window: 3,
            negatives: 2,
            sg_epochs: 1,
            ..Default::default()
        }
    }

    #[test]
    fn topo_embeddings_capture_adjacency() {
        let data = tiny_imdb();
        let mut rng = StdRng::seed_from_u64(0);
        let topo = train_topo_embeddings(&data, &tiny_cfg(), &mut rng);
        assert_eq!(topo.rows(), data.graph.num_nodes());
        // Connected pairs should, on average, have higher dot products than
        // random pairs.
        let mut edge_sim = 0.0f64;
        let mut count = 0;
        for (_, s, d) in data.graph.all_edges() {
            edge_sim += autoac_tensor::dot(topo.row(s as usize), topo.row(d as usize)) as f64;
            count += 1;
            if count >= 500 {
                break;
            }
        }
        edge_sim /= count as f64;
        let mut rand_sim = 0.0f64;
        for i in 0..500 {
            let a = (i * 37) % data.graph.num_nodes();
            let b = (i * 101 + 13) % data.graph.num_nodes();
            rand_sim += autoac_tensor::dot(topo.row(a), topo.row(b)) as f64;
        }
        rand_sim /= 500.0;
        assert!(
            edge_sim > rand_sim,
            "edge similarity {edge_sim:.4} must exceed random {rand_sim:.4}"
        );
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let data = tiny_imdb();
        let mut rng = StdRng::seed_from_u64(1);
        let topo = train_topo_embeddings(&data, &tiny_cfg(), &mut rng);
        let att = attention_completion_csr(&data, &topo);
        let has = data.has_attr();
        for (v, s) in att.row_sums().iter().enumerate() {
            if has[v] {
                assert_eq!(*s, 0.0, "attributed node {v} must have empty row");
            } else {
                assert!(
                    *s == 0.0 || (s - 1.0).abs() < 1e-5,
                    "row {v} sums to {s}"
                );
            }
        }
    }

    #[test]
    fn pipeline_fills_missing_rows_with_attributed_neighbors() {
        let data = tiny_imdb();
        let mut rng = StdRng::seed_from_u64(2);
        let topo = train_topo_embeddings(&data, &tiny_cfg(), &mut rng);
        let cfg = GnnConfig { in_dim: 8, out_dim: data.num_classes, ..Default::default() };
        let pipe = HgnnAcPipe::new(&data, Backbone::Gcn, &cfg, &topo, &mut rng);
        let x = pipe.completed_x();
        let v = x.value();
        // A missing node with at least one attributed neighbor gets filled.
        let adj = Adjacency::build(&data.graph);
        let has = data.has_attr();
        let candidate = data
            .missing_nodes()
            .into_iter()
            .find(|&m| adj.neighbors(m as usize).iter().any(|&u| has[u as usize]))
            .expect("some missing node has an attributed neighbor");
        assert!(v.row(candidate as usize).iter().any(|&z| z != 0.0));
    }

    #[test]
    fn end_to_end_run_reports_prelearn_time() {
        let data = tiny_imdb();
        let cfg = GnnConfig {
            in_dim: 16,
            hidden: 16,
            out_dim: data.num_classes,
            layers: 2,
            dropout: 0.2,
            ..Default::default()
        };
        let (prelearn, outcome) = run_hgnnac_classification(
            &data,
            Backbone::Gcn,
            &cfg,
            &tiny_cfg(),
            &TrainConfig { epochs: 20, patience: 20, ..Default::default() },
            3,
        );
        assert!(prelearn > 0.0);
        let chance = 1.0 / data.num_classes as f64;
        assert!(outcome.micro_f1 > chance, "micro {:.3}", outcome.micro_f1);
    }
}
