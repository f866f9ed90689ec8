//! HetSANN-lite (Hong et al., AAAI'20), simplified: graph attention with
//! *relation-specific attention vectors* — each edge type gets its own
//! source/destination attention parameters — but no metapaths and no
//! edge-type embeddings in the messages (that is SimpleHGN's extension).

use autoac_graph::HeteroGraph;
use autoac_tensor::Tensor;
use rand::rngs::StdRng;

use crate::edges::EdgeIndex;
use crate::layers::{Embedding, Linear};
use crate::models::{Forward, Gnn, GnnConfig};

struct HetSannLayer {
    w: Linear,
    /// `(num_etypes, out_dim)` relation-specific source attention vectors.
    a_src: Embedding,
    /// `(num_etypes, out_dim)` relation-specific destination vectors.
    a_dst: Embedding,
}

/// Simplified HetSANN.
pub struct HetSannLite {
    idx: EdgeIndex,
    layers: Vec<HetSannLayer>,
    classifier: Linear,
    slope: f32,
    dropout: f32,
}

impl HetSannLite {
    /// Builds the model over the typed directed edge index.
    pub fn new(graph: &HeteroGraph, cfg: &GnnConfig, rng: &mut StdRng) -> Self {
        let idx = EdgeIndex::typed(graph);
        let mut layers = Vec::with_capacity(cfg.layers);
        let mut in_dim = cfg.in_dim;
        for _ in 0..cfg.layers {
            layers.push(HetSannLayer {
                w: Linear::new(in_dim, cfg.hidden, false, rng),
                a_src: Embedding::new(idx.num_etypes, cfg.hidden, rng),
                a_dst: Embedding::new(idx.num_etypes, cfg.hidden, rng),
            });
            in_dim = cfg.hidden;
        }
        let classifier = Linear::new(cfg.hidden, cfg.out_dim, true, rng);
        Self { idx, layers, classifier, slope: cfg.slope, dropout: cfg.dropout }
    }
}

impl Gnn for HetSannLite {
    fn name(&self) -> &'static str {
        "HetSANN"
    }

    fn forward(&self, x0: &Tensor, training: bool, rng: &mut StdRng) -> Forward {
        let n = self.idx.num_nodes;
        let mut h = x0.clone();
        let mut hidden = h.clone();
        for layer in &self.layers {
            let hd = h.dropout(self.dropout, training, rng);
            let z = layer.w.forward(&hd);
            let zs = z.gather_rows(&self.idx.src);
            let zd = z.gather_rows(&self.idx.dst);
            // Relation-specific attention: ⟨z_s, a_src[ψ]⟩ + ⟨z_d, a_dst[ψ]⟩.
            let a_s = layer.a_src.forward(&self.idx.etype);
            let a_d = layer.a_dst.forward(&self.idx.etype);
            let score = zs.rowwise_dot(&a_s).add(&zd.rowwise_dot(&a_d));
            let att = score.leaky_relu(self.slope).group_softmax(&self.idx.dst, n);
            let agg = z.edge_aggregate(&self.idx.src, &self.idx.dst, &att, n);
            h = agg.elu();
            hidden = h.clone();
        }
        let output = self.classifier.forward(&h.dropout(self.dropout, training, rng));
        Forward { hidden, output }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        for layer in &self.layers {
            p.extend(layer.w.params());
            p.extend(layer.a_src.params());
            p.extend(layer.a_dst.params());
        }
        p.extend(self.classifier.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoac_tensor::Matrix;
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
        let model = HetSannLite::new(&toy(), &cfg, &mut rng);
        let x = Tensor::constant(Matrix::ones(6, 8));
        let f = model.forward(&x, false, &mut rng);
        assert_eq!(f.output.shape(), (6, 3));
        assert_eq!(f.hidden.shape(), (6, 8));
        assert_eq!(model.name(), "HetSANN");
    }

    #[test]
    fn relation_attention_differs_by_edge_type() {
        // Parameters per edge type must be distinct objects.
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = GnnConfig { in_dim: 4, hidden: 4, out_dim: 2, layers: 1, ..Default::default() };
        let model = HetSannLite::new(&toy(), &cfg, &mut rng);
        let table = model.layers[0].a_src.table.to_matrix();
        assert_ne!(table.row(0), table.row(1));
    }

    #[test]
    fn trains() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = GnnConfig {
            in_dim: 4,
            hidden: 8,
            out_dim: 2,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        };
        let g = toy();
        let model = HetSannLite::new(&g, &cfg, &mut rng);
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
}
