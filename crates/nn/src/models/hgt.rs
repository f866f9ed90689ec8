//! HGT-lite — Heterogeneous Graph Transformer (Hu et al., WWW'20),
//! simplified: node-type-specific Q/K/V projections, a learnable per-edge-
//! type attention prior, scaled dot-product edge attention, residual
//! connections. (The full model's type-specific message matrices per edge
//! type are folded into the V projection; DESIGN.md §1.)

use autoac_graph::HeteroGraph;
use autoac_tensor::{Matrix, Tensor};
use rand::rngs::StdRng;

use crate::edges::EdgeIndex;
use crate::layers::Linear;
use crate::models::{Forward, Gnn, GnnConfig};

struct HgtLayer {
    wq: Vec<Linear>,
    wk: Vec<Linear>,
    wv: Vec<Linear>,
    mu: Tensor, // (num_etypes, 1) attention prior
    w_out: Linear,
}

/// Simplified Heterogeneous Graph Transformer.
pub struct HgtLite {
    idx: EdgeIndex,
    type_rows: Vec<Vec<u32>>,
    layers: Vec<HgtLayer>,
    classifier: Linear,
    dropout: f32,
    scale: f32,
}

impl HgtLite {
    /// Builds the model over the typed edge index.
    pub fn new(graph: &HeteroGraph, cfg: &GnnConfig, rng: &mut StdRng) -> Self {
        let idx = EdgeIndex::typed(graph);
        let num_types = graph.num_node_types();
        let type_rows: Vec<Vec<u32>> = (0..num_types)
            .map(|t| graph.nodes_of_type(t).map(|v| v as u32).collect())
            .collect();
        let mut layers = Vec::with_capacity(cfg.layers);
        let mut in_dim = cfg.in_dim;
        for _ in 0..cfg.layers {
            layers.push(HgtLayer {
                wq: (0..num_types).map(|_| Linear::new(in_dim, cfg.hidden, false, rng)).collect(),
                wk: (0..num_types).map(|_| Linear::new(in_dim, cfg.hidden, false, rng)).collect(),
                wv: (0..num_types).map(|_| Linear::new(in_dim, cfg.hidden, false, rng)).collect(),
                mu: Tensor::param(Matrix::zeros(idx.num_etypes, 1)),
                w_out: Linear::new(cfg.hidden, cfg.hidden, true, rng),
            });
            in_dim = cfg.hidden;
        }
        let classifier = Linear::new(cfg.hidden, cfg.out_dim, true, rng);
        Self {
            idx,
            type_rows,
            layers,
            classifier,
            dropout: cfg.dropout,
            scale: 1.0 / (cfg.hidden as f32).sqrt(),
        }
    }

    /// Applies per-node-type linear layers and reassembles the full block
    /// (type id ranges are contiguous, so concatenation preserves order).
    fn per_type(&self, x: &Tensor, linears: &[Linear]) -> Tensor {
        let blocks: Vec<Tensor> = self
            .type_rows
            .iter()
            .zip(linears)
            .map(|(rows, l)| l.forward(&x.gather_rows(rows)))
            .collect();
        let refs: Vec<&Tensor> = blocks.iter().collect();
        Tensor::concat_rows(&refs)
    }
}

impl Gnn for HgtLite {
    fn name(&self) -> &'static str {
        "HGT"
    }

    fn forward(&self, x0: &Tensor, training: bool, rng: &mut StdRng) -> Forward {
        let n = self.idx.num_nodes;
        let mut h = x0.clone();
        let mut hidden = h.clone();
        for layer in &self.layers {
            let hd = h.dropout(self.dropout, training, rng);
            let q = self.per_type(&hd, &layer.wq);
            let k = self.per_type(&hd, &layer.wk);
            let v = self.per_type(&hd, &layer.wv);
            let q_dst = q.gather_rows(&self.idx.dst);
            let k_src = k.gather_rows(&self.idx.src);
            let prior = layer.mu.gather_rows(&self.idx.etype);
            let score = q_dst.rowwise_dot(&k_src).scale(self.scale).add(&prior);
            let att = score.group_softmax(&self.idx.dst, n);
            let agg = v.edge_aggregate(&self.idx.src, &self.idx.dst, &att, n);
            let mut out = layer.w_out.forward(&agg.relu());
            if out.shape() == h.shape() {
                out = out.add(&h); // residual
            }
            h = out;
            hidden = h.clone();
        }
        let output = self.classifier.forward(&h.dropout(self.dropout, training, rng));
        Forward { hidden, output }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        for layer in &self.layers {
            for l in layer.wq.iter().chain(&layer.wk).chain(&layer.wv) {
                p.extend(l.params());
            }
            p.push(layer.mu.clone());
            p.extend(layer.w_out.params());
        }
        p.extend(self.classifier.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy() -> HeteroGraph {
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 4);
        let a = b.add_node_type("a", 2);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 4);
        b.add_edge(e, 1, 4);
        b.add_edge(e, 2, 5);
        b.add_edge(e, 3, 5);
        b.build()
    }

    #[test]
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = GnnConfig { in_dim: 8, hidden: 8, out_dim: 3, layers: 2, ..Default::default() };
        let model = HgtLite::new(&toy(), &cfg, &mut rng);
        let x = Tensor::constant(Matrix::ones(6, 8));
        let f = model.forward(&x, false, &mut rng);
        assert_eq!(f.output.shape(), (6, 3));
        assert_eq!(f.hidden.shape(), (6, 8));
    }

    #[test]
    fn trains() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = GnnConfig {
            in_dim: 4,
            hidden: 8,
            out_dim: 2,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        };
        let g = toy();
        let model = HgtLite::new(&g, &cfg, &mut rng);
        let x = Tensor::constant(autoac_tensor::init::random_normal(6, 4, 1.0, &mut rng));
        let targets = vec![0u32, 0, 1, 1, 0, 1];
        let rows = vec![0u32, 1, 2, 3];
        let mut opt =
            autoac_tensor::Adam::new(model.params(), autoac_tensor::AdamConfig::with(0.02, 0.0));
        let (mut first, mut last) = (f32::NAN, f32::NAN);
        for i in 0..80 {
            opt.zero_grad();
            let f = model.forward(&x, true, &mut rng);
            let loss = f.output.cross_entropy_rows(&targets, &rows);
            if i == 0 {
                first = loss.item();
            }
            last = loss.item();
            loss.backward();
            opt.step();
        }
        assert!(last < first * 0.6, "loss must drop: {first} -> {last}");
    }

    #[test]
    fn per_type_projection_respects_ranges() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = GnnConfig { in_dim: 4, hidden: 4, out_dim: 2, layers: 1, ..Default::default() };
        let g = toy();
        let model = HgtLite::new(&g, &cfg, &mut rng);
        let x = Tensor::constant(autoac_tensor::init::random_normal(6, 4, 1.0, &mut rng));
        let q = model.per_type(&x, &model.layers[0].wq);
        // Movie rows use wq[0], actor rows wq[1].
        let manual_movie = model.layers[0].wq[0].forward(&x.gather_rows(&[1]));
        for (a, b) in q.value().row(1).iter().zip(manual_movie.value().row(0)) {
            assert!((a - b).abs() < 1e-6);
        }
        let manual_actor = model.layers[0].wq[1].forward(&x.gather_rows(&[5]));
        for (a, b) in q.value().row(5).iter().zip(manual_actor.value().row(0)) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
