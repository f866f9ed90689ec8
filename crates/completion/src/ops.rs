//! The attribute-completion operation search space `O` (paper §IV-A):
//! topology-dependent mean / GCN / PPNP aggregation and topology-independent
//! one-hot completion. `|O| = 4`.

use std::fmt;
use std::rc::Rc;

use autoac_graph::{norm, ppr, AttrAggs, HeteroGraph, OpCache};
use autoac_tensor::{spmm, Csr, Tensor};
use rand::rngs::StdRng;

/// One completion operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompletionOp {
    /// Mean of attributed 1-hop neighbors (Eq. 2, GraphSage-style).
    Mean,
    /// Degree-normalized sum of attributed 1-hop neighbors (Eq. 3).
    Gcn,
    /// Personalized-PageRank propagation over the whole graph (Eq. 4).
    Ppnp,
    /// One-hot identity (topology-independent), linearly transformed.
    OneHot,
}

impl CompletionOp {
    /// The full search space, in the paper's order.
    pub const ALL: [CompletionOp; 4] =
        [CompletionOp::Mean, CompletionOp::Gcn, CompletionOp::Ppnp, CompletionOp::OneHot];

    /// Index of the op within [`CompletionOp::ALL`].
    pub fn index(self) -> usize {
        match self {
            CompletionOp::Mean => 0,
            CompletionOp::Gcn => 1,
            CompletionOp::Ppnp => 2,
            CompletionOp::OneHot => 3,
        }
    }

    /// Inverse of [`CompletionOp::index`].
    pub fn from_index(i: usize) -> CompletionOp {
        Self::ALL[i]
    }

    /// Short name matching the paper's ablation tables.
    pub fn name(self) -> &'static str {
        match self {
            CompletionOp::Mean => "MEAN_AC",
            CompletionOp::Gcn => "GCN_AC",
            CompletionOp::Ppnp => "PPNP_AC",
            CompletionOp::OneHot => "One-hot_AC",
        }
    }
}

impl fmt::Display for CompletionOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Precomputed graph operators shared by the completion module.
pub struct CompletionContext {
    /// Mean aggregation over attributed neighbors, rows restricted to `V⁻`.
    pub mean_agg: Rc<Csr>,
    /// Its transpose (for autograd).
    pub mean_agg_t: Rc<Csr>,
    /// GCN aggregation over attributed neighbors, rows restricted to `V⁻`.
    pub gcn_agg: Rc<Csr>,
    /// Its transpose.
    pub gcn_agg_t: Rc<Csr>,
    /// Symmetric normalized adjacency with self-loops (PPNP propagation).
    pub sym_adj: Rc<Csr>,
    /// Global ids of `V⁻`, sorted ascending.
    pub missing: Vec<u32>,
    /// Total node count.
    pub num_nodes: usize,
}

impl CompletionContext {
    /// Builds all operators for a graph and attribute mask, each exactly
    /// once. This is the build of a graph that is used once (a sampled
    /// batch or a shard); the result equals
    /// [`CompletionContext::build_cached`]'s bit for bit.
    pub fn build(graph: &HeteroGraph, has_attr: &[bool]) -> Self {
        let _obs = autoac_obs::span("completion_context");
        let sym_adj = Rc::new(norm::sym_norm_adj(graph));
        Self::assemble(graph, has_attr, AttrAggs::build(graph, has_attr), sym_adj)
    }

    /// Like [`CompletionContext::build`], but fetches every operator through
    /// a shared [`OpCache`] so repeated pipeline construction over the same
    /// graph (search stage, retraining stage, multiple seeds) reuses the
    /// CSR matrices instead of rebuilding them.
    pub fn build_cached(graph: &HeteroGraph, has_attr: &[bool], cache: &OpCache) -> Self {
        let aggs = cache.attr_aggs(graph, has_attr);
        Self::assemble(graph, has_attr, aggs, cache.sym_norm_adj(graph))
    }

    /// The one body of both builders. The aggregators hold rows at `V⁻`
    /// only, so each spmm costs O(edges incident to `V⁻`).
    fn assemble(graph: &HeteroGraph, has_attr: &[bool], aggs: AttrAggs, sym_adj: Rc<Csr>) -> Self {
        Self {
            mean_agg: aggs.mean,
            mean_agg_t: aggs.mean_t,
            gcn_agg: aggs.gcn,
            gcn_agg_t: aggs.gcn_t,
            sym_adj,
            missing: missing_nodes(has_attr),
            num_nodes: graph.num_nodes(),
        }
    }

    /// Number of no-attribute nodes `N⁻`.
    pub fn num_missing(&self) -> usize {
        self.missing.len()
    }
}

/// Ids of the nodes without attributes (`V⁻`), ascending.
fn missing_nodes(has_attr: &[bool]) -> Vec<u32> {
    has_attr.iter().enumerate().filter_map(|(v, &h)| (!h).then_some(v as u32)).collect()
}

/// Trainable parameters of the four ops plus the kernels that evaluate each
/// op's completed attributes for every `V⁻` node.
pub struct CompletionOps {
    ctx: CompletionContext,
    /// `0..N⁻`: the one-hot table row of each missing node of `ctx`, the
    /// `onehot_rows` the whole-graph entry points pass to their `_in` twins.
    identity: Vec<u32>,
    w_mean: crate::module::Transform,
    w_gcn: crate::module::Transform,
    w_ppnp: crate::module::Transform,
    onehot: Tensor,
    /// PPNP restart probability (Eq. 4's α).
    pub ppnp_alpha: f32,
    /// PPNP power-iteration steps.
    pub ppnp_k: usize,
}

impl CompletionOps {
    /// Creates the op parameters over an embedding dimension `dim`.
    pub fn new(ctx: CompletionContext, dim: usize, rng: &mut StdRng) -> Self {
        let onehot = Tensor::param(autoac_tensor::init::random_normal(
            ctx.num_missing().max(1),
            dim,
            0.1,
            rng,
        ));
        Self {
            identity: (0..ctx.num_missing() as u32).collect(),
            w_mean: crate::module::Transform::new(dim, rng),
            w_gcn: crate::module::Transform::new(dim, rng),
            w_ppnp: crate::module::Transform::new(dim, rng),
            onehot,
            ctx,
            ppnp_alpha: 0.15,
            ppnp_k: 8,
        }
    }

    /// The shared graph-operator context.
    pub fn ctx(&self) -> &CompletionContext {
        &self.ctx
    }

    /// `0..N⁻`, the one-hot rows of this instance's own context.
    pub fn identity_rows(&self) -> &[u32] {
        &self.identity
    }

    /// Evaluates one op for all `V⁻` nodes: returns `(N⁻, d)`.
    ///
    /// `x0` is the `(N, d)` projected attribute block with zero rows at
    /// missing nodes.
    pub fn op_output(&self, op: CompletionOp, x0: &Tensor) -> Tensor {
        self.op_output_in(&self.ctx, &self.identity, op, x0)
    }

    /// All four op outputs in [`CompletionOp::ALL`] order.
    pub fn all_op_outputs(&self, x0: &Tensor) -> Vec<Tensor> {
        self.all_op_outputs_in(&self.ctx, &self.identity, x0)
    }

    /// Evaluates one op against an *external* context — the minibatch path
    /// builds a [`CompletionContext`] over a sampled subgraph and reuses
    /// this instance's trainable parameters on it.
    ///
    /// `ctx` indexes nodes in its own (subgraph-local) id space; `x0` is the
    /// `(n_sub, d)` projected block of the subgraph. `onehot_rows[i]` maps
    /// the `i`-th missing node of `ctx` to its row in this instance's global
    /// one-hot table, so one-hot completion stays per-node and
    /// differentiable (gradients land on exactly the sampled rows).
    pub fn op_output_in(
        &self,
        ctx: &CompletionContext,
        onehot_rows: &[u32],
        op: CompletionOp,
        x0: &Tensor,
    ) -> Tensor {
        assert_eq!(
            onehot_rows.len(),
            ctx.num_missing(),
            "op_output_in: onehot_rows must map every missing node of the context"
        );
        self.op_rows(ctx, op, x0, &ctx.missing, onehot_rows)
    }

    /// All four op outputs against an external context, in
    /// [`CompletionOp::ALL`] order.
    pub fn all_op_outputs_in(
        &self,
        ctx: &CompletionContext,
        onehot_rows: &[u32],
        x0: &Tensor,
    ) -> Vec<Tensor> {
        CompletionOp::ALL
            .iter()
            .map(|&op| self.op_output_in(ctx, onehot_rows, op, x0))
            .collect()
    }

    /// Evaluates `op` at the missing nodes `nodes` of `ctx` (ids in `ctx`'s
    /// space), whose one-hot table rows are `table_rows`: returns
    /// `(nodes.len(), d)`, row `i` for `nodes[i]`.
    ///
    /// Only these rows are transformed: Mean and GCN aggregate, gather,
    /// then apply `W`; PPNP propagates over the whole graph, then gathers;
    /// one-hot gathers its table. The matmul kernels are row-independent,
    /// so each row is bitwise the row of the whole-graph evaluation.
    pub(crate) fn op_rows(
        &self,
        ctx: &CompletionContext,
        op: CompletionOp,
        x0: &Tensor,
        nodes: &[u32],
        table_rows: &[u32],
    ) -> Tensor {
        match op {
            CompletionOp::Mean => self
                .w_mean
                .forward(&spmm(&ctx.mean_agg, &ctx.mean_agg_t, x0).gather_rows(nodes)),
            CompletionOp::Gcn => {
                self.w_gcn.forward(&spmm(&ctx.gcn_agg, &ctx.gcn_agg_t, x0).gather_rows(nodes))
            }
            CompletionOp::Ppnp => ppr::ppnp_propagate(
                &ctx.sym_adj,
                &self.w_ppnp.forward(x0),
                self.ppnp_alpha,
                self.ppnp_k,
            )
            .gather_rows(nodes),
            CompletionOp::OneHot => self.onehot.gather_rows(table_rows),
        }
    }

    /// Trainable parameters of every op.
    pub fn params(&self) -> Vec<Tensor> {
        vec![
            self.w_mean.w.clone(),
            self.w_gcn.w.clone(),
            self.w_ppnp.w.clone(),
            self.onehot.clone(),
        ]
    }

    /// Parameters of a single op (used to freeze unused ops in discrete
    /// mode).
    pub fn op_params(&self, op: CompletionOp) -> Vec<Tensor> {
        match op {
            CompletionOp::Mean => vec![self.w_mean.w.clone()],
            CompletionOp::Gcn => vec![self.w_gcn.w.clone()],
            CompletionOp::Ppnp => vec![self.w_ppnp.w.clone()],
            CompletionOp::OneHot => vec![self.onehot.clone()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoac_tensor::Matrix;
    use rand::SeedableRng;

    fn toy() -> (HeteroGraph, Vec<bool>) {
        // movies 0-2 attributed; actors 3-4 missing.
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 3);
        let a = b.add_node_type("a", 2);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 3);
        b.add_edge(e, 1, 3);
        b.add_edge(e, 2, 4);
        let g = b.build();
        let has = vec![true, true, true, false, false];
        (g, has)
    }

    #[test]
    fn op_enum_roundtrip() {
        for (i, op) in CompletionOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert_eq!(CompletionOp::from_index(i), *op);
        }
        assert_eq!(CompletionOp::Mean.to_string(), "MEAN_AC");
    }

    #[test]
    fn context_identifies_missing_nodes() {
        let (g, has) = toy();
        let ctx = CompletionContext::build(&g, &has);
        assert_eq!(ctx.missing, vec![3, 4]);
        assert_eq!(ctx.num_missing(), 2);
        // Restricted aggregators have rows only at missing ids.
        assert_eq!(ctx.mean_agg.row_nnz(0), 0);
        assert!(ctx.mean_agg.row_nnz(3) > 0);
    }

    #[test]
    fn mean_op_averages_attributed_neighbors() {
        let (g, has) = toy();
        let ctx = CompletionContext::build(&g, &has);
        let mut rng = StdRng::seed_from_u64(0);
        let ops = CompletionOps::new(ctx, 2, &mut rng);
        // Identity transform to observe the raw aggregation.
        ops.w_mean.w.set_value(Matrix::eye(2));
        let x0 = Tensor::constant(Matrix::from_rows(&[
            &[1.0, 0.0],
            &[3.0, 2.0],
            &[5.0, 5.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
        ]));
        let out = ops.op_output(CompletionOp::Mean, &x0).to_matrix();
        // Node 3's attributed neighbors: movies 0, 1 → mean (2, 1).
        assert_eq!(out.row(0), &[2.0, 1.0]);
        // Node 4: movie 2 only.
        assert_eq!(out.row(1), &[5.0, 5.0]);
    }

    #[test]
    fn all_ops_produce_missing_shaped_outputs() {
        let (g, has) = toy();
        let ctx = CompletionContext::build(&g, &has);
        let mut rng = StdRng::seed_from_u64(1);
        let ops = CompletionOps::new(ctx, 4, &mut rng);
        let x0 = Tensor::constant(Matrix::ones(5, 4));
        for out in ops.all_op_outputs(&x0) {
            assert_eq!(out.shape(), (2, 4));
        }
        assert_eq!(ops.params().len(), 4);
    }

    #[test]
    fn onehot_is_topology_independent() {
        let (g, has) = toy();
        let ctx = CompletionContext::build(&g, &has);
        let mut rng = StdRng::seed_from_u64(2);
        let ops = CompletionOps::new(ctx, 4, &mut rng);
        let a = ops.op_output(CompletionOp::OneHot, &Tensor::constant(Matrix::ones(5, 4)));
        let b = ops.op_output(CompletionOp::OneHot, &Tensor::constant(Matrix::zeros(5, 4)));
        assert_eq!(a.to_matrix(), b.to_matrix());
    }

    #[test]
    fn ppnp_reaches_multi_hop_signal() {
        // Chain: movie0 — actor2 — movie1(?): build a graph where actor 3's
        // only neighbor is unattributed, so mean/GCN see nothing but PPNP
        // does.
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 1);
        let a = b.add_node_type("a", 2); // 1, 2; node 2's neighbor is node 1
        let e1 = b.add_edge_type("m-a", m, a);
        let e2 = b.add_edge_type("a-a", a, a);
        b.add_edge(e1, 0, 1);
        b.add_edge(e2, 1, 2);
        let g = b.build();
        let has = vec![true, false, false];
        let ctx = CompletionContext::build(&g, &has);
        let mut rng = StdRng::seed_from_u64(3);
        let ops = CompletionOps::new(ctx, 1, &mut rng);
        ops.w_mean.w.set_value(Matrix::eye(1));
        ops.w_ppnp.w.set_value(Matrix::eye(1));
        let x0 = Tensor::constant(Matrix::from_rows(&[&[1.0], &[0.0], &[0.0]]));
        let mean = ops.op_output(CompletionOp::Mean, &x0).to_matrix();
        let ppnp = ops.op_output(CompletionOp::Ppnp, &x0).to_matrix();
        // Node 2 (second missing row): no attributed 1-hop neighbor.
        assert_eq!(mean.get(1, 0), 0.0);
        assert!(ppnp.get(1, 0) > 0.0, "PPNP must reach 2-hop signal");
    }

    #[test]
    fn gradients_flow_into_op_params() {
        let (g, has) = toy();
        let ctx = CompletionContext::build(&g, &has);
        let mut rng = StdRng::seed_from_u64(4);
        let ops = CompletionOps::new(ctx, 3, &mut rng);
        let x0 = Tensor::constant(Matrix::ones(5, 3));
        let outs = ops.all_op_outputs(&x0);
        let mut loss = outs[0].sum();
        for o in &outs[1..] {
            loss = loss.add(&o.sum());
        }
        loss.backward();
        for (i, p) in ops.params().iter().enumerate() {
            assert!(p.grad().is_some(), "op param {i} has no grad");
        }
    }
}
