//! Graph attention layer, parameterized to cover both plain GAT and
//! SimpleHGN (learnable edge-type embeddings in the attention logits, edge
//! attention residual β, node residual connections).
//!
//! Per head `h` over the edge index `(src, dst, etype)`:
//! ```text
//! z     = X W_h
//! e_ij  = LeakyReLU(a_srcᵀ z_i + a_dstᵀ z_j + a_eᵀ r_ψ(ij))   (r: etype embedding)
//! α̂     = softmax over incoming edges of j
//! α     = (1-β) α̂ + β α_prev                                   (edge residual)
//! out_j = Σ_i α_ij z_i  (+ residual W_r x_j)
//! ```
//!
//! Cost scales with nodes, not edges: no tensor the layer builds has
//! `E × d` entries. Each logit term depends on one endpoint or on the edge
//! type only, so it is computed once per node (`z a_src`, `z a_dst`: `N×1`)
//! or per edge type (`R a_e` over the embedding table `R`: `T×1`) and
//! gathered to the edges; the `E×1` logits and attentions are the only
//! per-edge tensors. The messages `α_ij z_i` are summed by
//! [`Tensor::edge_aggregate`] without being materialized.
//!
//! The forward pass is bitwise equal to the per-edge formulation (gather
//! `z` to `E×d` edge rows, one matrix–vector product per term, then
//! `mul_col_vec` and `scatter_add_rows`): the matmul kernels accumulate
//! every output element in ascending `p` whatever the row count, so a
//! gathered node score is the same dot product as the per-edge one, and
//! `edge_aggregate` runs the composed chain's scalar operations in its
//! order. Gradients differ only in f32 summation order.

use autoac_tensor::{Act, Tensor};
use rand::rngs::StdRng;

use crate::edges::EdgeIndex;
use crate::layers::{Embedding, Linear};

/// Configuration for [`GatLayer`].
#[derive(Debug, Clone, Copy)]
pub struct GatConfig {
    /// Input feature dimension.
    pub in_dim: usize,
    /// Output dimension per head.
    pub out_dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Negative slope of the attention LeakyReLU.
    pub slope: f32,
    /// Feature dropout probability (applied to the layer input).
    pub dropout: f32,
    /// Edge-type embedding dimension; 0 disables edge-type terms (plain GAT).
    pub edge_dim: usize,
    /// Edge attention residual weight β (SimpleHGN); 0 disables it.
    pub beta: f32,
    /// Whether to add a node residual connection.
    pub residual: bool,
    /// `true`: concatenate heads (hidden layers); `false`: average them
    /// (output layers, as in GAT/SimpleHGN).
    pub concat: bool,
}

impl Default for GatConfig {
    fn default() -> Self {
        Self {
            in_dim: 64,
            out_dim: 64,
            heads: 1,
            slope: 0.05,
            dropout: 0.5,
            edge_dim: 0,
            beta: 0.0,
            residual: false,
            concat: true,
        }
    }
}

struct Head {
    w: Linear,
    a_src: Tensor,
    a_dst: Tensor,
    a_edge: Option<Tensor>,
}

/// Multi-head graph attention layer.
pub struct GatLayer {
    cfg: GatConfig,
    heads: Vec<Head>,
    etype_emb: Option<Embedding>,
    w_res: Option<Linear>,
}

impl GatLayer {
    /// Creates the layer; `num_etypes` sizes the edge-type embedding table
    /// when `cfg.edge_dim > 0`.
    pub fn new(cfg: GatConfig, num_etypes: usize, rng: &mut StdRng) -> Self {
        let heads = (0..cfg.heads)
            .map(|_| Head {
                w: Linear::new(cfg.in_dim, cfg.out_dim, false, rng),
                a_src: Tensor::param(autoac_tensor::init::xavier_uniform(cfg.out_dim, 1, rng)),
                a_dst: Tensor::param(autoac_tensor::init::xavier_uniform(cfg.out_dim, 1, rng)),
                a_edge: (cfg.edge_dim > 0).then(|| {
                    Tensor::param(autoac_tensor::init::xavier_uniform(cfg.edge_dim, 1, rng))
                }),
            })
            .collect();
        let etype_emb =
            (cfg.edge_dim > 0).then(|| Embedding::new(num_etypes, cfg.edge_dim, rng));
        let out_total = if cfg.concat { cfg.out_dim * cfg.heads } else { cfg.out_dim };
        let w_res = (cfg.residual).then(|| Linear::new(cfg.in_dim, out_total, false, rng));
        Self { cfg, heads, etype_emb, w_res }
    }

    /// Output dimension (accounting for head concatenation).
    pub fn out_total(&self) -> usize {
        if self.cfg.concat {
            self.cfg.out_dim * self.cfg.heads
        } else {
            self.cfg.out_dim
        }
    }

    /// Forward pass. `prev_att` is the per-head attention from the previous
    /// layer (for the β edge residual); the returned attention can be fed
    /// to the next layer.
    pub fn forward(
        &self,
        x: &Tensor,
        idx: &EdgeIndex,
        prev_att: Option<&[Tensor]>,
        training: bool,
        rng: &mut StdRng,
    ) -> (Tensor, Vec<Tensor>) {
        let x = x.dropout(self.cfg.dropout, training, rng);
        let n = idx.num_nodes;
        let mut outputs = Vec::with_capacity(self.heads.len());
        let mut attentions = Vec::with_capacity(self.heads.len());
        for (h, head) in self.heads.iter().enumerate() {
            let z = head.w.forward(&x);
            let mut score = z
                .matmul(&head.a_src)
                .gather_rows(&idx.src)
                .add(&z.matmul(&head.a_dst).gather_rows(&idx.dst));
            if let (Some(emb), Some(ae)) = (&self.etype_emb, &head.a_edge) {
                score = score.add(&emb.table.matmul(ae).gather_rows(&idx.etype));
            }
            let mut att = score.leaky_relu(self.cfg.slope).group_softmax(&idx.dst, n);
            if self.cfg.beta > 0.0 {
                if let Some(prev) = prev_att {
                    att = att
                        .scale(1.0 - self.cfg.beta)
                        .add(&prev[h].scale(self.cfg.beta));
                }
            }
            outputs.push(z.edge_aggregate(&idx.src, &idx.dst, &att, n));
            attentions.push(att);
        }
        let mut out = if self.cfg.concat {
            let refs: Vec<&Tensor> = outputs.iter().collect();
            Tensor::concat_cols(&refs)
        } else {
            let mut acc = outputs[0].clone();
            for o in &outputs[1..] {
                acc = acc.add(o);
            }
            acc.scale(1.0 / outputs.len() as f32)
        };
        if let Some(w_res) = &self.w_res {
            out = out.add(&w_res.forward(&x));
        }
        (out, attentions)
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        for h in &self.heads {
            p.extend(h.w.params());
            p.push(h.a_src.clone());
            p.push(h.a_dst.clone());
            if let Some(a) = &h.a_edge {
                p.push(a.clone());
            }
        }
        if let Some(e) = &self.etype_emb {
            p.extend(e.params());
        }
        if let Some(r) = &self.w_res {
            p.extend(r.params());
        }
        p
    }
}

/// Semantic (metapath-level) attention used by HAN and MAGNN: each metapath
/// view `(N, d)` is summarized by `mean(tanh(X W + b) q)` and the views are
/// combined with softmax weights.
pub struct SemanticAttention {
    w: Linear,
    q: Tensor,
}

impl SemanticAttention {
    /// Creates the semantic attention block (`att_dim` is the summary
    /// projection width, 128 in HAN's defaults).
    pub fn new(in_dim: usize, att_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            w: Linear::new(in_dim, att_dim, true, rng),
            q: Tensor::param(autoac_tensor::init::xavier_uniform(att_dim, 1, rng)),
        }
    }

    /// Combines per-metapath node representations (all `(N, d)`).
    pub fn forward(&self, views: &[Tensor]) -> Tensor {
        assert!(!views.is_empty(), "semantic attention needs ≥ 1 view");
        // Per-view scalar score: mean over nodes of tanh(x W + b) · q.
        let scores: Vec<Tensor> = views
            .iter()
            .map(|v| self.w.forward_act(v, Act::Tanh).matmul(&self.q).mean())
            .collect();
        let refs: Vec<&Tensor> = scores.iter().collect();
        let weights = Tensor::concat_cols(&refs).softmax_rows(); // (1, V)
        let mut out: Option<Tensor> = None;
        for (i, v) in views.iter().enumerate() {
            let wi = weights.slice_cols(i, 1); // (1,1)
            let term = v.mul_scalar_tensor(&wi);
            out = Some(match out {
                Some(acc) => acc.add(&term),
                None => term,
            });
        }
        out.expect("non-empty views")
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        let mut p = self.w.params();
        p.push(self.q.clone());
        p
    }
}

/// Renormalizes rows of `x` to unit L2 norm (SimpleHGN applies this to its
/// link-prediction output embeddings).
pub fn l2_normalize_rows(x: &Tensor) -> Tensor {
    let norms = x.square().sum_rows().add_scalar(1e-12).sqrt();
    let inv = Tensor::constant(norms.value().map(|v| 1.0 / v));
    // Constant inverse keeps the op simple; gradient flows through x only,
    // which is the standard approximation for output normalization.
    x.mul_col_vec(&inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoac_tensor::{init, Matrix};
    use autoac_graph::HeteroGraph;
    use rand::{Rng, SeedableRng};

    /// The per-edge formulation `GatLayer::forward` replaced, kept as its
    /// bitwise reference: `z` gathered into `E×d` edge rows, one
    /// matrix–vector product per logit term over them, the edge-type
    /// embedding gathered per edge, and the `E×d` messages materialized
    /// before the scatter.
    fn per_edge_forward(
        layer: &GatLayer,
        x: &Tensor,
        idx: &EdgeIndex,
        prev_att: Option<&[Tensor]>,
        training: bool,
        rng: &mut StdRng,
    ) -> (Tensor, Vec<Tensor>) {
        let cfg = layer.cfg;
        let x = x.dropout(cfg.dropout, training, rng);
        let n = idx.num_nodes;
        let mut outputs = Vec::new();
        let mut attentions = Vec::new();
        let edge_feat = layer.etype_emb.as_ref().map(|emb| emb.forward(&idx.etype));
        for (h, head) in layer.heads.iter().enumerate() {
            let z = head.w.forward(&x);
            let zs = z.gather_rows(&idx.src);
            let zd = z.gather_rows(&idx.dst);
            let mut score = zs.matmul(&head.a_src).add(&zd.matmul(&head.a_dst));
            if let (Some(ef), Some(ae)) = (&edge_feat, &head.a_edge) {
                score = score.add(&ef.matmul(ae));
            }
            let mut att = score.leaky_relu(cfg.slope).group_softmax(&idx.dst, n);
            if cfg.beta > 0.0 {
                if let Some(prev) = prev_att {
                    att = att.scale(1.0 - cfg.beta).add(&prev[h].scale(cfg.beta));
                }
            }
            outputs.push(zs.mul_col_vec(&att).scatter_add_rows(&idx.dst, n));
            attentions.push(att);
        }
        let mut out = if cfg.concat {
            let refs: Vec<&Tensor> = outputs.iter().collect();
            Tensor::concat_cols(&refs)
        } else {
            let mut acc = outputs[0].clone();
            for o in &outputs[1..] {
                acc = acc.add(o);
            }
            acc.scale(1.0 / outputs.len() as f32)
        };
        if let Some(w_res) = &layer.w_res {
            out = out.add(&w_res.forward(&x));
        }
        (out, attentions)
    }

    /// A random three-type graph: 25 nodes, 45 stored edges with repeats,
    /// so 115 directed edges with self-loops and uneven in-degrees.
    fn random_graph(seed: u64) -> HeteroGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = HeteroGraph::builder();
        let p = b.add_node_type("p", 12);
        let a = b.add_node_type("a", 8);
        let t = b.add_node_type("t", 5);
        let pa = b.add_edge_type("p-a", p, a);
        let pt = b.add_edge_type("p-t", p, t);
        for _ in 0..30 {
            b.add_edge(pa, rng.gen_range(0..12), rng.gen_range(12..20));
        }
        b.add_edge(pa, 0, 12); // a repeated edge, whatever the draws
        b.add_edge(pa, 0, 12);
        for _ in 0..13 {
            b.add_edge(pt, rng.gen_range(0..12), rng.gen_range(20..25));
        }
        b.build()
    }

    fn assert_bitwise_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    /// Runs `GatLayer::forward` and the per-edge reference on the same
    /// parameters, input and dropout stream, and asserts that outputs and
    /// attentions are bitwise equal and that every gradient (parameters,
    /// input, previous attention) is within 1e-5 of its tensor's largest
    /// absolute gradient — the fused path sums the same terms in a
    /// different order.
    fn assert_matches_per_edge(cfg: GatConfig, idx: &EdgeIndex, with_prev: bool, training: bool) {
        let mut rng = StdRng::seed_from_u64(11);
        let layer = GatLayer::new(cfg, idx.num_etypes, &mut rng);
        let (n, e) = (idx.num_nodes, idx.len());
        let x = Tensor::param(init::random_normal(n, cfg.in_dim, 1.0, &mut rng));
        let prev: Vec<Tensor> = (0..cfg.heads)
            .map(|_| Tensor::param(init::random_uniform(e, 1, 0.0, 1.0, &mut rng)))
            .collect();
        let out_probe = Tensor::constant(init::random_normal(n, layer.out_total(), 1.0, &mut rng));
        let att_probe = Tensor::constant(init::random_normal(e, 1, 1.0, &mut rng));
        let mut leaves = layer.params();
        leaves.push(x.clone());
        leaves.extend(prev.iter().cloned());

        let run = |fused: bool| {
            let mut drop_rng = StdRng::seed_from_u64(5);
            let prev_att = with_prev.then_some(&prev[..]);
            let (out, att) = if fused {
                layer.forward(&x, idx, prev_att, training, &mut drop_rng)
            } else {
                per_edge_forward(&layer, &x, idx, prev_att, training, &mut drop_rng)
            };
            let mut loss = out.mul(&out_probe).sum();
            for a in &att {
                loss = loss.add(&a.mul(&att_probe).sum());
            }
            loss.backward();
            let grads: Vec<Option<Matrix>> = leaves.iter().map(Tensor::grad).collect();
            for l in &leaves {
                l.zero_grad();
            }
            (out.to_matrix(), att.iter().map(Tensor::to_matrix).collect::<Vec<_>>(), grads)
        };
        let (out_new, att_new, g_new) = run(true);
        let (out_ref, att_ref, g_ref) = run(false);

        assert_bitwise_eq(&out_new, &out_ref, "output");
        assert_eq!(att_new.len(), att_ref.len());
        for (h, (a, b)) in att_new.iter().zip(&att_ref).enumerate() {
            assert_bitwise_eq(a, b, &format!("attention of head {h}"));
        }
        for (i, (a, b)) in g_new.iter().zip(&g_ref).enumerate() {
            let (Some(a), Some(b)) = (a, b) else {
                assert_eq!(a.is_some(), b.is_some(), "leaf {i}: gradient presence differs");
                continue;
            };
            assert_eq!(a.shape(), b.shape(), "leaf {i}: gradient shape");
            let scale = b.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (j, (u, v)) in a.data().iter().zip(b.data()).enumerate() {
                assert!(
                    (u - v).abs() <= 1e-5 * scale,
                    "leaf {i} element {j}: {u} vs reference {v} (largest |grad| {scale})"
                );
            }
        }
    }

    #[test]
    fn plain_gat_matches_the_per_edge_reference() {
        let idx = EdgeIndex::homogeneous(&random_graph(21));
        let cfg = GatConfig { in_dim: 7, out_dim: 6, heads: 2, dropout: 0.0, ..Default::default() };
        assert_matches_per_edge(cfg, &idx, false, false);
    }

    #[test]
    fn simple_hgn_matches_the_per_edge_reference() {
        let idx = EdgeIndex::typed(&random_graph(22));
        // A hidden layer: concatenated heads, dropout drawn in training.
        let hidden = GatConfig {
            in_dim: 7,
            out_dim: 6,
            heads: 2,
            dropout: 0.5,
            edge_dim: 5,
            beta: 0.05,
            residual: true,
            concat: true,
            ..Default::default()
        };
        assert_matches_per_edge(hidden, &idx, false, true);
        assert_matches_per_edge(hidden, &idx, true, true);
        // An output layer: averaged heads, β residual over `prev_att`.
        let output = GatConfig { heads: 3, concat: false, beta: 0.3, ..hidden };
        assert_matches_per_edge(output, &idx, true, false);
        assert_matches_per_edge(output, &idx, true, true);
    }

    fn toy_index() -> EdgeIndex {
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 3);
        let a = b.add_node_type("a", 2);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 3);
        b.add_edge(e, 1, 3);
        b.add_edge(e, 2, 4);
        EdgeIndex::typed(&b.build())
    }

    #[test]
    fn gat_layer_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let idx = toy_index();
        let cfg = GatConfig { in_dim: 6, out_dim: 4, heads: 2, ..Default::default() };
        let layer = GatLayer::new(cfg, idx.num_etypes, &mut rng);
        let x = Tensor::constant(Matrix::ones(5, 6));
        let (out, att) = layer.forward(&x, &idx, None, false, &mut rng);
        assert_eq!(out.shape(), (5, 8));
        assert_eq!(att.len(), 2);
        assert_eq!(att[0].shape(), (idx.len(), 1));
        assert_eq!(layer.out_total(), 8);
    }

    #[test]
    fn attention_sums_to_one_per_destination() {
        let mut rng = StdRng::seed_from_u64(1);
        let idx = toy_index();
        let cfg = GatConfig { in_dim: 4, out_dim: 4, dropout: 0.0, ..Default::default() };
        let layer = GatLayer::new(cfg, idx.num_etypes, &mut rng);
        let x = Tensor::constant(autoac_tensor::init::random_normal(5, 4, 1.0, &mut rng));
        let (_, att) = layer.forward(&x, &idx, None, false, &mut rng);
        let a = att[0].to_matrix();
        let mut per_dst = [0.0f32; 5];
        for (i, &d) in idx.dst.iter().enumerate() {
            per_dst[d as usize] += a.get(i, 0);
        }
        for (d, s) in per_dst.iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-5, "dst {d} attention sums to {s}");
        }
    }

    #[test]
    fn edge_residual_mixes_previous_attention() {
        let mut rng = StdRng::seed_from_u64(2);
        let idx = toy_index();
        let cfg = GatConfig {
            in_dim: 4,
            out_dim: 4,
            edge_dim: 4,
            beta: 0.5,
            dropout: 0.0,
            ..Default::default()
        };
        let layer = GatLayer::new(cfg, idx.num_etypes, &mut rng);
        let x = Tensor::constant(autoac_tensor::init::random_normal(5, 4, 1.0, &mut rng));
        let (_, att1) = layer.forward(&x, &idx, None, false, &mut rng);
        let (_, att2) = layer.forward(&x, &idx, Some(&att1), false, &mut rng);
        // With β = 0.5 and identical logits, att2 = att1 (fixed point).
        for (a, b) in att1[0].value().data().iter().zip(att2[0].value().data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_reach_all_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let idx = toy_index();
        let cfg = GatConfig {
            in_dim: 4,
            out_dim: 3,
            heads: 2,
            edge_dim: 2,
            residual: true,
            dropout: 0.0,
            ..Default::default()
        };
        let layer = GatLayer::new(cfg, idx.num_etypes, &mut rng);
        let x = Tensor::constant(autoac_tensor::init::random_normal(5, 4, 1.0, &mut rng));
        let (out, _) = layer.forward(&x, &idx, None, true, &mut rng);
        out.square().sum().backward();
        for (i, p) in layer.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} has no grad");
        }
    }

    #[test]
    fn semantic_attention_convex_combination() {
        let mut rng = StdRng::seed_from_u64(4);
        let sem = SemanticAttention::new(3, 8, &mut rng);
        let a = Tensor::constant(Matrix::full(4, 3, 1.0));
        let b = Tensor::constant(Matrix::full(4, 3, 3.0));
        let out = sem.forward(&[a, b]).to_matrix();
        // Every element must lie in [1, 3] (convex combination).
        assert!(out.data().iter().all(|&v| (1.0..=3.0).contains(&v)), "{out:?}");
        assert_eq!(sem.params().len(), 3);
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let x = Tensor::param(Matrix::from_rows(&[&[3.0, 4.0], &[0.5, 0.0]]));
        let y = l2_normalize_rows(&x);
        let v = y.to_matrix();
        for r in 0..2 {
            let n: f32 = v.row(r).iter().map(|a| a * a).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4, "row {r} norm {n}");
        }
        y.sum().backward();
        assert!(x.grad().is_some());
    }
}
