//! Completion assembly: mixture (continuous relaxation, Eq. 5) and
//! discrete-assignment completion, plus small shared helpers.

use autoac_tensor::Tensor;
use rand::Rng;

use crate::ops::{CompletionOp, CompletionOps};

/// Square trainable transform (the paper's per-op `W`).
pub struct Transform {
    /// `(d, d)` weight.
    pub w: Tensor,
}

impl Transform {
    /// Xavier-initialized square transform.
    pub fn new(dim: usize, rng: &mut impl Rng) -> Self {
        Self { w: Tensor::param(autoac_tensor::init::xavier_uniform(dim, dim, rng)) }
    }

    /// Applies the transform.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.matmul(&self.w)
    }
}

/// Completes the zero rows of `x0` with a *weighted mixture* of all ops
/// (Eq. 5 after softmax/discretization has produced `weights`).
///
/// `weights` is `(N⁻, |O|)`; gradients flow into the weights, every op's
/// parameters, and `x0`.
pub fn complete_mixture(ops: &CompletionOps, x0: &Tensor, weights: &Tensor) -> Tensor {
    complete_mixture_in(ops, ops.ctx(), ops.identity_rows(), x0, weights)
}

/// Completes the zero rows of `x0` with one discrete op per `V⁻` node
/// (the lower-level optimization of Algorithm 1: only *activated* ops are
/// evaluated — ops assigned to no node cost nothing).
pub fn complete_assigned(ops: &CompletionOps, x0: &Tensor, assignment: &[CompletionOp]) -> Tensor {
    complete_assigned_in(ops, ops.ctx(), ops.identity_rows(), x0, assignment)
}

/// [`complete_mixture`] against an external (subgraph) context: `ctx` and
/// `x0` live in the subgraph's id space, `weights` is
/// `(ctx.num_missing(), |O|)`, and `onehot_rows` maps each missing node to
/// its row in the global one-hot table (see
/// [`CompletionOps::op_output_in`]).
pub fn complete_mixture_in(
    ops: &CompletionOps,
    ctx: &crate::ops::CompletionContext,
    onehot_rows: &[u32],
    x0: &Tensor,
    weights: &Tensor,
) -> Tensor {
    assert_eq!(
        weights.shape(),
        (ctx.num_missing(), CompletionOp::ALL.len()),
        "complete_mixture: weight shape mismatch"
    );
    if ctx.num_missing() == 0 {
        return x0.clone();
    }
    let outputs = ops.all_op_outputs_in(ctx, onehot_rows, x0);
    let mut completed: Option<Tensor> = None;
    for (o, out) in outputs.iter().enumerate() {
        let w = weights.slice_cols(o, 1); // (N⁻, 1)
        let term = out.mul_col_vec(&w);
        completed = Some(match completed {
            Some(acc) => acc.add(&term),
            None => term,
        });
    }
    let completed = completed.expect("|O| > 0");
    x0.add(&completed.scatter_add_rows(&ctx.missing, ctx.num_nodes))
}

/// [`complete_assigned`] against an external (subgraph) context; see
/// [`complete_mixture_in`] for the id-space conventions. Each op
/// transforms only the rows assigned to it.
pub fn complete_assigned_in(
    ops: &CompletionOps,
    ctx: &crate::ops::CompletionContext,
    onehot_rows: &[u32],
    x0: &Tensor,
    assignment: &[CompletionOp],
) -> Tensor {
    assert_eq!(
        assignment.len(),
        ctx.num_missing(),
        "complete_assigned: assignment length mismatch"
    );
    assert_eq!(
        onehot_rows.len(),
        ctx.num_missing(),
        "complete_assigned: onehot_rows must map every missing node of the context"
    );
    let mut result = x0.clone();
    for &op in &CompletionOp::ALL {
        // The missing nodes assigned to this op and their one-hot rows.
        let (nodes, table_rows): (Vec<u32>, Vec<u32>) = assignment
            .iter()
            .zip(ctx.missing.iter().zip(onehot_rows))
            .filter_map(|(&a, (&v, &t))| (a == op).then_some((v, t)))
            .unzip();
        if nodes.is_empty() {
            continue;
        }
        let rows = ops.op_rows(ctx, op, x0, &nodes, &table_rows);
        result = result.add(&rows.scatter_add_rows(&nodes, ctx.num_nodes));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CompletionContext;
    use autoac_graph::HeteroGraph;
    use autoac_tensor::{spmm, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CompletionOps, Tensor) {
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 3);
        let a = b.add_node_type("a", 2);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 3);
        b.add_edge(e, 1, 3);
        b.add_edge(e, 2, 4);
        let g = b.build();
        let has = vec![true, true, true, false, false];
        let ctx = CompletionContext::build(&g, &has);
        let mut rng = StdRng::seed_from_u64(0);
        let ops = CompletionOps::new(ctx, 3, &mut rng);
        let x0 = Tensor::constant(Matrix::from_rows(&[
            &[1.0, 0.0, 2.0],
            &[3.0, 2.0, 0.0],
            &[5.0, 5.0, 1.0],
            &[0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0],
        ]));
        (ops, x0)
    }

    #[test]
    fn mixture_preserves_attributed_rows() {
        let (ops, x0) = setup();
        let w = Tensor::constant(Matrix::full(2, 4, 0.25));
        let out = complete_mixture(&ops, &x0, &w);
        let v = out.to_matrix();
        let x = x0.to_matrix();
        for r in 0..3 {
            assert_eq!(v.row(r), x.row(r), "attributed row {r} must be unchanged");
        }
        // Missing rows are filled.
        assert!(v.row(3).iter().any(|&z| z != 0.0));
    }

    #[test]
    fn one_hot_mixture_equals_assignment() {
        let (ops, x0) = setup();
        // Node 3 → Mean (col 0), node 4 → OneHot (col 3).
        let w = Tensor::constant(Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]));
        let via_mixture = complete_mixture(&ops, &x0, &w).to_matrix();
        let via_assign =
            complete_assigned(&ops, &x0, &[CompletionOp::Mean, CompletionOp::OneHot]).to_matrix();
        for (a, b) in via_mixture.data().iter().zip(via_assign.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn mixture_weights_receive_gradients() {
        let (ops, x0) = setup();
        let w = Tensor::param(Matrix::full(2, 4, 0.25));
        complete_mixture(&ops, &x0, &w).square().sum().backward();
        let g = w.grad().expect("weights must get a gradient");
        assert!(g.frob() > 0.0);
    }

    #[test]
    fn assigned_only_touches_used_op_params() {
        let (ops, x0) = setup();
        let out = complete_assigned(&ops, &x0, &[CompletionOp::Mean, CompletionOp::Mean]);
        out.square().sum().backward();
        assert!(
            ops.op_params(CompletionOp::Mean)[0].grad().is_some(),
            "used op must get grads"
        );
        assert!(
            ops.op_params(CompletionOp::Ppnp)[0].grad().is_none(),
            "unused op must not be evaluated"
        );
        assert!(ops.op_params(CompletionOp::OneHot)[0].grad().is_none());
    }

    #[test]
    fn external_ctx_on_whole_graph_matches_legacy() {
        let (ops, x0) = setup();
        let identity: Vec<u32> = (0..ops.ctx().num_missing() as u32).collect();
        let assignment = [CompletionOp::Mean, CompletionOp::OneHot];
        let legacy = complete_assigned(&ops, &x0, &assignment).to_matrix();
        let external =
            complete_assigned_in(&ops, ops.ctx(), &identity, &x0, &assignment).to_matrix();
        assert_eq!(legacy, external);
        let w = Tensor::constant(Matrix::full(2, 4, 0.25));
        let legacy_mix = complete_mixture(&ops, &x0, &w).to_matrix();
        let external_mix = complete_mixture_in(&ops, ops.ctx(), &identity, &x0, &w).to_matrix();
        assert_eq!(legacy_mix, external_mix);
    }

    #[test]
    fn subgraph_mean_rows_of_core_nodes_are_exact() {
        // Full graph: movies 0-2 attributed, actors 3-4 missing. A sampled
        // batch around actor 3 that keeps all its neighbors is {0, 1, 3};
        // the mean row of actor 3 computed on that subgraph must be bitwise
        // the row computed on the whole graph.
        let (ops, x0) = setup();
        let full = complete_assigned(&ops, &x0, &[CompletionOp::Mean, CompletionOp::Mean])
            .to_matrix();

        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 2); // movies 0, 1 (global 0, 1)
        let a = b.add_node_type("a", 1); // actor 2 (global 3)
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 2);
        b.add_edge(e, 1, 2);
        let sub = b.build();
        let sub_ctx = CompletionContext::build(&sub, &[true, true, false]);
        let sub_x0 = Tensor::constant(Matrix::from_rows(&[
            &[1.0, 0.0, 2.0],
            &[3.0, 2.0, 0.0],
            &[0.0, 0.0, 0.0],
        ]));
        // Actor 3 is row 0 of the global one-hot table.
        let out =
            complete_assigned_in(&ops, &sub_ctx, &[0], &sub_x0, &[CompletionOp::Mean]).to_matrix();
        let got: Vec<u32> = out.row(2).iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = full.row(3).iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "core mean row must be exact on a subgraph with its neighbors");
    }

    #[test]
    fn external_onehot_rows_route_gradients_to_sampled_rows() {
        let (ops, x0) = setup();
        // Sample only the second missing node (global one-hot row 1).
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 1); // movie 2 (global 2)
        let a = b.add_node_type("a", 1); // actor 4 (global 4)
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 1);
        let sub = b.build();
        let sub_ctx = CompletionContext::build(&sub, &[true, false]);
        let sub_x0 = Tensor::constant(x0.to_matrix().gather_rows(&[2, 4]));
        let out = complete_assigned_in(&ops, &sub_ctx, &[1], &sub_x0, &[CompletionOp::OneHot]);
        out.square().sum().backward();
        let g = ops.op_params(CompletionOp::OneHot)[0].grad().expect("onehot grad");
        assert!(g.row(1).iter().any(|&v| v != 0.0), "sampled row must get a gradient");
        assert!(g.row(0).iter().all(|&v| v == 0.0), "unsampled row must stay zero");
    }

    /// The whole-graph formulation `complete_assigned` replaced: each
    /// assigned op evaluates its whole `(N⁻, d)` output, then gathers the
    /// rows assigned to it.
    fn whole_output_then_gather(
        ops: &CompletionOps,
        x0: &Tensor,
        assignment: &[CompletionOp],
    ) -> Tensor {
        let ctx = ops.ctx();
        let mut result = x0.clone();
        for &op in &CompletionOp::ALL {
            let positions: Vec<u32> = (0..assignment.len() as u32)
                .filter(|&i| assignment[i as usize] == op)
                .collect();
            if positions.is_empty() {
                continue;
            }
            let w = &ops.op_params(op)[0];
            let whole = match op {
                CompletionOp::Mean => spmm(&ctx.mean_agg, &ctx.mean_agg_t, x0).matmul(w),
                CompletionOp::Gcn => spmm(&ctx.gcn_agg, &ctx.gcn_agg_t, x0).matmul(w),
                CompletionOp::Ppnp => autoac_graph::ppr::ppnp_propagate(
                    &ctx.sym_adj,
                    &x0.matmul(w),
                    ops.ppnp_alpha,
                    ops.ppnp_k,
                ),
                CompletionOp::OneHot => w.clone(),
            };
            let whole =
                if op == CompletionOp::OneHot { whole } else { whole.gather_rows(&ctx.missing) };
            let globals: Vec<u32> = positions.iter().map(|&p| ctx.missing[p as usize]).collect();
            let rows = whole.gather_rows(&positions);
            result = result.add(&rows.scatter_add_rows(&globals, ctx.num_nodes));
        }
        result
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn assigned_completion_transforms_only_its_rows_bit_for_bit() {
        use autoac_data::{presets, synth, Scale};
        use rand::Rng;
        use std::collections::BTreeMap;

        let data = synth::generate(&presets::dblp(), Scale::Tiny, 3);
        let has = data.has_attr();
        let n = data.graph.num_nodes();
        let dim = 8;
        let mut rng = StdRng::seed_from_u64(11);
        let ops = CompletionOps::new(CompletionContext::build(&data.graph, &has), dim, &mut rng);
        let n_minus = ops.ctx().num_missing();
        assert!(n_minus > 8, "the fixture needs missing nodes");
        // A trainable projected block with zero rows at missing nodes.
        let mut x0m = autoac_tensor::init::random_normal(n, dim, 1.0, &mut rng);
        for &v in &ops.ctx().missing {
            x0m.row_mut(v as usize).fill(0.0);
        }
        let x0 = Tensor::param(x0m);
        let seed = autoac_tensor::init::random_normal(n, dim, 1.0, &mut rng);

        let mut assignments: Vec<Vec<CompletionOp>> = Vec::new();
        for &op in &CompletionOp::ALL {
            // All rows, and one row (the rest to the next op).
            assignments.push(vec![op; n_minus]);
            let next = CompletionOp::from_index((op.index() + 1) % 4);
            let mut one = vec![next; n_minus];
            one[n_minus / 3] = op;
            assignments.push(one);
        }
        // Some rows of every op.
        let mixed = (0..n_minus).map(|_| CompletionOp::from_index(rng.gen_range(0..4)));
        assignments.push(mixed.collect());

        let grads = |f: &dyn Fn() -> Tensor| {
            for p in ops.params().iter().chain([&x0]) {
                p.zero_grad();
            }
            let out = f();
            out.backward_with(seed.clone());
            let mut all = vec![out.to_matrix()];
            all.extend(ops.params().iter().chain([&x0]).map(|p| {
                p.grad().unwrap_or_else(|| Matrix::zeros(0, 0))
            }));
            all
        };
        for assignment in &assignments {
            let got = grads(&|| complete_assigned(&ops, &x0, assignment));
            let want = grads(&|| whole_output_then_gather(&ops, &x0, assignment));
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                // 0: the completed block; 1-4: op parameters; 5: x0.
                assert_eq!(bits(g), bits(w), "assignment {assignment:?}: tensor {k}");
            }

            // Mean and GCN transform exactly their assigned rows; PPNP
            // transforms the whole graph before it propagates.
            let count = |op| assignment.iter().filter(|&&a| a == op).count();
            let mut want: BTreeMap<[usize; 4], usize> = BTreeMap::new();
            for op in [CompletionOp::Mean, CompletionOp::Gcn] {
                if count(op) > 0 {
                    *want.entry([count(op), dim, dim, 0]).or_default() += 1;
                }
            }
            if count(CompletionOp::Ppnp) > 0 {
                *want.entry([n, dim, dim, 0]).or_default() += 1;
            }
            let _ = autoac_obs::drain();
            autoac_obs::with_obs(true, || complete_assigned(&ops, &x0, assignment));
            let matmuls: BTreeMap<[usize; 4], usize> = autoac_obs::drain()
                .shapes
                .iter()
                .filter(|(k, _)| k.op == "matmul")
                .map(|(k, &c)| (k.dims, c as usize))
                .collect();
            assert_eq!(matmuls, want, "matmul shapes of {assignment:?}");
        }
    }

    #[test]
    fn empty_missing_set_is_identity() {
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 2);
        let e = b.add_edge_type("m-m", m, m);
        b.add_edge(e, 0, 1);
        let g = b.build();
        let ctx = CompletionContext::build(&g, &[true, true]);
        let mut rng = StdRng::seed_from_u64(1);
        let ops = CompletionOps::new(ctx, 2, &mut rng);
        let x0 = Tensor::constant(Matrix::ones(2, 2));
        let w = Tensor::constant(Matrix::zeros(0, 4));
        let out = complete_mixture(&ops, &x0, &w);
        assert_eq!(out.to_matrix(), x0.to_matrix());
        let out2 = complete_assigned(&ops, &x0, &[]);
        assert_eq!(out2.to_matrix(), x0.to_matrix());
    }
}
