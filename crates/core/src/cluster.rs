//! Auxiliary unsupervised node clustering (paper §IV-D).
//!
//! The assignment matrix `C = softmax(H W_c)` is trained jointly with the
//! GNN by minimizing
//! `L_GmoC = −(1/2|E|)·Tr(Cᵀ B C) + (√M/|V|)·‖Σᵢ Cᵢ‖_F`
//! where `B = A − d dᵀ / 2|E|` is the modularity matrix. `B` is never
//! materialized: the adjacency term is accumulated edge-wise
//! (`Tr(CᵀAC) = Σ_{(i,j)∈E} ⟨Cᵢ, Cⱼ⟩`, both directions) and the degree term
//! factorizes through `dᵀC`.
//!
//! Also provides the k-means (EM) clustering baselines of Figure 3.

use autoac_graph::HeteroGraph;
use autoac_tensor::{Matrix, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

use crate::pipeline::linear_param;

/// Precomputed graph quantities for the modularity loss.
pub struct ModularityContext {
    /// Directed edge endpoints (both directions of each stored edge).
    src: Vec<u32>,
    dst: Vec<u32>,
    /// Node degrees as a `(1, N)` row vector.
    degrees: Matrix,
    /// `2|E|` (sum of degrees).
    two_m: f32,
    /// `√M / |V|` collapse-regularization coefficient.
    collapse_coeff: f32,
    /// Number of clusters M.
    pub num_clusters: usize,
}

impl ModularityContext {
    /// Builds the context for a graph and cluster count.
    pub fn build(graph: &HeteroGraph, num_clusters: usize) -> Self {
        assert!(num_clusters >= 2, "modularity: need at least 2 clusters");
        let n = graph.num_nodes();
        let mut src = Vec::with_capacity(2 * graph.num_edges());
        let mut dst = Vec::with_capacity(2 * graph.num_edges());
        for (_, s, d) in graph.all_edges() {
            src.push(s);
            dst.push(d);
            src.push(d);
            dst.push(s);
        }
        let deg = graph.undirected_degrees();
        let degrees =
            Matrix::from_vec(1, n, deg.iter().map(|&d| d as f32).collect());
        let two_m = (2 * graph.num_edges()) as f32;
        Self {
            src,
            dst,
            degrees,
            two_m: two_m.max(1.0),
            collapse_coeff: (num_clusters as f32).sqrt() / n as f32,
            num_clusters,
        }
    }

    /// The differentiable clustering loss `L_GmoC` for a soft assignment
    /// `C` of shape `(N, M)`.
    pub fn loss(&self, c: &Tensor) -> Tensor {
        let (n, m) = c.shape();
        assert_eq!(m, self.num_clusters, "modularity: cluster count mismatch");
        assert_eq!(n, self.degrees.cols(), "modularity: node count mismatch");
        // Tr(CᵀAC) = Σ over directed edges ⟨C_s, C_d⟩.
        let cs = c.gather_rows(&self.src);
        let cd = c.gather_rows(&self.dst);
        let adj_term = cs.rowwise_dot(&cd).sum();
        // Tr(Cᵀ d dᵀ C)/2|E| = ‖dᵀC‖² / 2|E|.
        let dt_c = Tensor::constant(self.degrees.clone()).matmul(c); // (1, M)
        let deg_term = dt_c.square().sum().scale(1.0 / self.two_m);
        let modularity = adj_term.sub(&deg_term).scale(-1.0 / self.two_m);
        // Collapse regularization: √M/|V| · ‖Σᵢ Cᵢ‖_F.
        let collapse = c.sum_cols().frob().scale(self.collapse_coeff);
        modularity.add(&collapse)
    }
}

/// The trainable clustering head: `C = softmax(H W_c)`.
pub struct ClusterHead {
    w: Tensor,
}

impl ClusterHead {
    /// Xavier-initialized head from hidden dim to `M` clusters.
    pub fn new(hidden: usize, num_clusters: usize, rng: &mut StdRng) -> Self {
        Self { w: linear_param(hidden, num_clusters, rng) }
    }

    /// Soft assignment `(N, M)`.
    pub fn assign_soft(&self, hidden: &Tensor) -> Tensor {
        hidden.matmul(&self.w).softmax_rows()
    }

    /// Hard assignment (argmax row) per node.
    pub fn assign_hard(&self, hidden: &Tensor) -> Vec<u32> {
        autoac_tensor::no_grad(|| {
            let c = self.assign_soft(hidden);
            let v = c.value();
            (0..v.rows()).map(|r| v.argmax_row(r) as u32).collect()
        })
    }

    /// The trainable parameter.
    pub fn params(&self) -> Vec<Tensor> {
        vec![self.w.clone()]
    }
}

/// Plain k-means over matrix rows (the EM baseline of Figure 3).
/// Returns per-row cluster ids. Deterministic in `rng`.
pub fn kmeans(rows: &Matrix, k: usize, iters: usize, rng: &mut StdRng) -> Vec<u32> {
    let n = rows.rows();
    assert!(k >= 1, "kmeans: k must be positive");
    if n == 0 {
        return Vec::new();
    }
    let d = rows.cols();
    // k-means++-lite init: random distinct rows.
    let mut centers = Matrix::zeros(k, d);
    for c in 0..k {
        let pick = rng.gen_range(0..n);
        centers.row_mut(c).copy_from_slice(rows.row(pick));
    }
    let mut assign = vec![0u32; n];
    for _ in 0..iters {
        // E-step.
        let mut changed = false;
        for (i, slot) in assign.iter_mut().enumerate() {
            let mut best = 0u32;
            let mut best_d = f32::INFINITY;
            for c in 0..k {
                let dist: f32 = rows
                    .row(i)
                    .iter()
                    .zip(centers.row(c))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if dist < best_d {
                    best_d = dist;
                    best = c as u32;
                }
            }
            if *slot != best {
                *slot = best;
                changed = true;
            }
        }
        // M-step.
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for (i, &a) in assign.iter().enumerate() {
            let c = a as usize;
            counts[c] += 1;
            for (s, &v) in sums.row_mut(c).iter_mut().zip(rows.row(i)) {
                *s += v;
            }
        }
        for (c, &count) in counts.iter().enumerate() {
            if count > 0 {
                let inv = 1.0 / count as f32;
                for (ctr, &s) in centers.row_mut(c).iter_mut().zip(sums.row(c)) {
                    *ctr = s * inv;
                }
            }
        }
        if !changed {
            break;
        }
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Two 3-cliques joined by one edge — the canonical modular graph.
    fn two_cliques() -> HeteroGraph {
        let mut b = HeteroGraph::builder();
        let t = b.add_node_type("n", 6);
        let e = b.add_edge_type("n-n", t, t);
        for &(s, d) in &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)] {
            b.add_edge(e, s, d);
        }
        b.build()
    }

    #[test]
    fn soft_loss_agrees_with_hard_modularity_direction() {
        let ctx = ModularityContext::build(&two_cliques(), 2);
        let good = Tensor::constant(Matrix::from_rows(&[
            &[1.0, 0.0],
            &[1.0, 0.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[0.0, 1.0],
            &[0.0, 1.0],
        ]));
        let bad = Tensor::constant(Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
        ]));
        // Lower loss = better clustering (loss = −Q + collapse; collapse is
        // equal for both balanced assignments).
        assert!(ctx.loss(&good).item() < ctx.loss(&bad).item());
    }

    #[test]
    fn collapse_regularizer_penalizes_single_cluster() {
        let ctx = ModularityContext::build(&two_cliques(), 2);
        let collapsed = Tensor::constant(Matrix::from_rows(&[
            &[1.0, 0.0],
            &[1.0, 0.0],
            &[1.0, 0.0],
            &[1.0, 0.0],
            &[1.0, 0.0],
            &[1.0, 0.0],
        ]));
        let balanced = Tensor::constant(Matrix::from_rows(&[
            &[1.0, 0.0],
            &[1.0, 0.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[0.0, 1.0],
            &[0.0, 1.0],
        ]));
        // The all-in-one assignment has Q ≈ 0 and maximal collapse penalty.
        assert!(ctx.loss(&collapsed).item() > ctx.loss(&balanced).item());
    }

    #[test]
    fn gradient_descent_on_loss_recovers_communities() {
        let g = two_cliques();
        let ctx = ModularityContext::build(&g, 2);
        let mut rng = StdRng::seed_from_u64(7);
        // Direct soft-assignment logits as parameters.
        let logits = Tensor::param(autoac_tensor::init::random_normal(6, 2, 0.1, &mut rng));
        let mut opt = autoac_tensor::Adam::new(
            vec![logits.clone()],
            autoac_tensor::AdamConfig::with(0.1, 0.0),
        );
        for _ in 0..200 {
            opt.zero_grad();
            let loss = ctx.loss(&logits.softmax_rows());
            autoac_check::tape::verify_backward_if_enabled(&loss);
            loss.backward();
            opt.step();
        }
        let c = logits.softmax_rows();
        let v = c.value();
        let assign: Vec<usize> = (0..6).map(|r| v.argmax_row(r)).collect();
        // Both cliques internally consistent and different from each other.
        assert_eq!(assign[0], assign[1]);
        assert_eq!(assign[1], assign[2]);
        assert_eq!(assign[3], assign[4]);
        assert_eq!(assign[4], assign[5]);
        assert_ne!(assign[0], assign[3], "cliques must split: {assign:?}");
    }

    #[test]
    fn cluster_head_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let head = ClusterHead::new(8, 4, &mut rng);
        let h = Tensor::constant(autoac_tensor::init::random_normal(5, 8, 1.0, &mut rng));
        let soft = head.assign_soft(&h);
        assert_eq!(soft.shape(), (5, 4));
        for r in 0..5 {
            let s: f32 = soft.value().row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        let hard = head.assign_hard(&h);
        assert_eq!(hard.len(), 5);
        assert!(hard.iter().all(|&c| c < 4));
    }

    #[test]
    fn kmeans_separates_obvious_clusters() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut rows = Matrix::zeros(20, 2);
        for i in 0..10 {
            rows.set(i, 0, 10.0 + (i as f32) * 0.01);
        }
        for i in 10..20 {
            rows.set(i, 1, 10.0 + (i as f32) * 0.01);
        }
        let assign = kmeans(&rows, 2, 50, &mut rng);
        let first = assign[0];
        assert!(assign[..10].iter().all(|&a| a == first));
        assert!(assign[10..].iter().all(|&a| a != first));
    }

    #[test]
    fn kmeans_empty_input() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(kmeans(&Matrix::zeros(0, 3), 2, 10, &mut rng).is_empty());
    }
}
