//! Finite-difference gradient checks for every differentiable op.
//!
//! Each check builds a scalar loss from the op under test, computes the
//! analytic gradient via `backward`, and compares against central finite
//! differences of the forward pass. This is the single most important test
//! file in the tensor crate: if these pass, the whole GNN stack trains
//! against correct gradients.

use std::rc::Rc;

use autoac_tensor::{spmm, Csr, Matrix, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f32 = 2e-3;
const TOL: f32 = 2e-2;

/// Checks d(loss)/d(param) against central differences.
///
/// `forward` must rebuild the full graph from the given leaf each call.
fn gradcheck(init: Matrix, forward: impl Fn(&Tensor) -> Tensor) {
    let p = Tensor::param(init.clone());
    let loss = forward(&p);
    loss.backward();
    let analytic = p.grad().expect("gradient must exist");

    let (rows, cols) = init.shape();
    for r in 0..rows {
        for c in 0..cols {
            let mut plus = init.clone();
            plus.set(r, c, plus.get(r, c) + EPS);
            let mut minus = init.clone();
            minus.set(r, c, minus.get(r, c) - EPS);
            let fp = forward(&Tensor::param(plus)).item();
            let fm = forward(&Tensor::param(minus)).item();
            let numeric = (fp - fm) / (2.0 * EPS);
            let a = analytic.get(r, c);
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            assert!(
                (a - numeric).abs() / denom < TOL,
                "grad mismatch at ({r},{c}): analytic {a} vs numeric {numeric}"
            );
        }
    }
}

fn test_input(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    autoac_tensor::init::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
}

#[test]
fn grad_add_sub() {
    let other = Tensor::constant(test_input(3, 4, 10));
    gradcheck(test_input(3, 4, 1), |p| p.add(&other).sub(&other.scale(0.5)).square().sum());
}

#[test]
fn grad_mul_elementwise() {
    let other = Tensor::constant(test_input(3, 4, 11));
    gradcheck(test_input(3, 4, 2), |p| p.mul(&other).sum());
}

#[test]
fn grad_mul_both_sides() {
    // p appears on both sides of the Hadamard product: p ∘ p.
    gradcheck(test_input(2, 3, 3), |p| p.mul(p).sum());
}

#[test]
fn grad_mul_scalar_tensor_data() {
    let s = Tensor::constant(Matrix::from_vec(1, 1, vec![0.7]));
    gradcheck(test_input(3, 4, 60), |p| p.mul_scalar_tensor(&s).square().sum());
}

#[test]
fn grad_mul_scalar_tensor_scalar() {
    let x = Tensor::constant(test_input(3, 4, 61));
    gradcheck(test_input(1, 1, 62), |p| x.mul_scalar_tensor(p).square().sum());
}

#[test]
fn grad_matmul_left() {
    let w = Tensor::constant(test_input(4, 5, 12));
    gradcheck(test_input(3, 4, 4), |p| p.matmul(&w).square().sum());
}

#[test]
fn grad_matmul_right() {
    let x = Tensor::constant(test_input(3, 4, 13));
    gradcheck(test_input(4, 2, 5), |p| x.matmul(p).square().sum());
}

#[test]
fn grad_transpose() {
    let w = Tensor::constant(test_input(3, 2, 14));
    gradcheck(test_input(3, 4, 6), |p| p.transpose().matmul(&w).sum());
}

#[test]
fn grad_add_row_vec_bias() {
    let x = Tensor::constant(test_input(5, 3, 15));
    gradcheck(test_input(1, 3, 7), |p| x.add_row_vec(p).square().sum());
}

#[test]
fn grad_mul_col_vec_data() {
    let col = Tensor::constant(test_input(4, 1, 16));
    gradcheck(test_input(4, 3, 8), |p| p.mul_col_vec(&col).square().sum());
}

#[test]
fn grad_mul_col_vec_weights() {
    let x = Tensor::constant(test_input(4, 3, 17));
    gradcheck(test_input(4, 1, 9), |p| x.mul_col_vec(p).square().sum());
}

#[test]
fn grad_rowwise_dot() {
    let other = Tensor::constant(test_input(4, 3, 18));
    gradcheck(test_input(4, 3, 20), |p| p.rowwise_dot(&other).square().sum());
}

#[test]
fn grad_concat_cols() {
    let other = Tensor::constant(test_input(3, 2, 19));
    gradcheck(test_input(3, 2, 21), |p| {
        Tensor::concat_cols(&[p, &other, p]).square().sum()
    });
}

#[test]
fn grad_concat_rows() {
    let other = Tensor::constant(test_input(2, 3, 22));
    gradcheck(test_input(2, 3, 23), |p| Tensor::concat_rows(&[&other, p]).square().sum());
}

#[test]
fn grad_slice_cols() {
    gradcheck(test_input(3, 5, 24), |p| p.slice_cols(1, 3).square().sum());
}

#[test]
fn grad_relu() {
    // Shift away from 0 to avoid the kink.
    let mut init = test_input(3, 4, 25);
    init.map_assign(|v| if v.abs() < 0.05 { v + 0.2 } else { v });
    gradcheck(init, |p| p.relu().square().sum());
}

#[test]
fn grad_leaky_relu() {
    let mut init = test_input(3, 4, 26);
    init.map_assign(|v| if v.abs() < 0.05 { v + 0.2 } else { v });
    gradcheck(init, |p| p.leaky_relu(0.05).square().sum());
}

#[test]
fn grad_elu() {
    let mut init = test_input(3, 4, 27);
    init.map_assign(|v| if v.abs() < 0.05 { v + 0.2 } else { v });
    gradcheck(init, |p| p.elu().square().sum());
}

#[test]
fn grad_sigmoid_tanh() {
    gradcheck(test_input(3, 4, 28), |p| p.sigmoid().mul(&p.tanh()).sum());
}

#[test]
fn grad_exp_ln() {
    let init = test_input(3, 3, 29).map(|v| v.abs() + 0.5);
    gradcheck(init, |p| p.exp().sum().add(&p.ln().sum()));
}

#[test]
fn grad_sqrt_square() {
    let init = test_input(3, 3, 30).map(|v| v.abs() + 0.5);
    gradcheck(init, |p| p.sqrt().sum().add(&p.square().sum()));
}

#[test]
fn grad_softmax_rows() {
    let target = Tensor::constant(test_input(3, 5, 31));
    gradcheck(test_input(3, 5, 32), |p| p.softmax_rows().mul(&target).sum());
}

#[test]
fn grad_log_softmax_rows() {
    let target = Tensor::constant(test_input(3, 5, 33));
    gradcheck(test_input(3, 5, 34), |p| p.log_softmax_rows().mul(&target).sum());
}

#[test]
fn grad_sum_rows_cols_mean() {
    let w = Tensor::constant(test_input(1, 4, 35));
    gradcheck(test_input(4, 4, 36), |p| {
        let a = p.sum_rows().square().sum();
        let b = p.sum_cols().mul(&w).sum();
        let c = p.mean();
        a.add(&b).add(&c)
    });
}

#[test]
fn grad_frobenius() {
    let init = test_input(3, 3, 37).map(|v| v + 2.0); // keep norm away from 0
    gradcheck(init, |p| p.frob());
}

#[test]
fn grad_gather_rows() {
    let idx = vec![2u32, 0, 2, 1, 2];
    gradcheck(test_input(3, 4, 38), |p| p.gather_rows(&idx).square().sum());
}

#[test]
fn grad_scatter_add_rows() {
    let idx = vec![1u32, 1, 0, 2];
    gradcheck(test_input(4, 3, 39), |p| p.scatter_add_rows(&idx, 3).square().sum());
}

#[test]
fn grad_edge_aggregate() {
    // Duplicate edges (0→1 twice), an unread source row (3) and an empty
    // destination (2); square() makes both gradients depend on the value.
    let (src, dst) = (vec![0u32, 0, 2, 1, 2], vec![1u32, 1, 0, 0, 3]);
    let w = Tensor::constant(test_input(5, 1, 82));
    gradcheck(test_input(4, 3, 83), |p| p.edge_aggregate(&src, &dst, &w, 4).square().sum());
    let x = Tensor::constant(test_input(4, 3, 84));
    gradcheck(test_input(5, 1, 85), |p| x.edge_aggregate(&src, &dst, p, 4).square().sum());
}

#[test]
fn grad_segment_mean() {
    let idx = vec![0u32, 0, 1, 2, 2, 2];
    gradcheck(test_input(6, 2, 40), |p| p.segment_mean(&idx, 4).square().sum());
}

#[test]
fn grad_group_softmax() {
    let group = vec![0u32, 0, 1, 1, 1, 2];
    let target = Tensor::constant(test_input(6, 1, 41));
    gradcheck(test_input(6, 1, 42), |p| p.group_softmax(&group, 3).mul(&target).sum());
}

#[test]
fn grad_spmm() {
    let a = Rc::new(Csr::from_coo(
        3,
        4,
        vec![(0, 0, 1.0), (0, 2, -0.5), (1, 1, 2.0), (2, 3, 0.7), (2, 0, 0.3)],
    ));
    let at = Rc::new(a.transpose());
    gradcheck(test_input(4, 3, 43), |p| spmm(&a, &at, p).square().sum());
}

#[test]
fn grad_nll_loss_rows() {
    let targets = vec![0u32, 2, 1, 0];
    let rows = vec![0u32, 2, 3];
    gradcheck(test_input(4, 3, 44), |p| {
        p.log_softmax_rows().nll_loss_rows(&targets, &rows)
    });
}

#[test]
fn grad_cross_entropy_matches_manual_composition() {
    let targets = vec![1u32, 0];
    let rows = vec![0u32, 1];
    let init = test_input(2, 3, 45);
    let p1 = Tensor::param(init.clone());
    p1.cross_entropy_rows(&targets, &rows).backward();
    let p2 = Tensor::param(init);
    p2.log_softmax_rows().nll_loss_rows(&targets, &rows).backward();
    let (g1, g2) = (p1.grad().unwrap(), p2.grad().unwrap());
    for (a, b) in g1.data().iter().zip(g2.data()) {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
fn grad_bce_with_logits() {
    let labels = vec![1.0f32, 0.0, 1.0, 0.0, 1.0];
    gradcheck(test_input(5, 1, 46), |p| p.bce_with_logits(&labels));
}

#[test]
fn grad_multilabel_bce_rows() {
    let targets = test_input(4, 3, 63).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
    let rows = vec![0u32, 2, 3];
    gradcheck(test_input(4, 3, 64), |p| p.multilabel_bce_rows(&targets, &rows));
}

#[test]
fn grad_mse() {
    let target = test_input(3, 3, 47);
    gradcheck(test_input(3, 3, 48), |p| p.mse(&target));
}

#[test]
fn grad_composite_gnn_like_layer() {
    // One full message-passing layer: gather → score → edge softmax →
    // weighted scatter → nonlinearity → loss. Exercises op composition.
    let src = vec![0u32, 1, 2, 2, 3];
    let dst = vec![1u32, 2, 0, 3, 0];
    let att = Tensor::constant(test_input(3, 1, 49));
    let targets = vec![0u32, 1, 0, 1];
    let rows = vec![0u32, 1, 2, 3];
    gradcheck(test_input(4, 3, 50), |x| {
        let h = x.gather_rows(&src);
        let scores = h.matmul(&att).leaky_relu(0.2);
        let w = scores.group_softmax(&dst, 4);
        let msg = h.mul_col_vec(&w);
        let agg = msg.scatter_add_rows(&dst, 4);
        let out = agg.elu();
        // 3 -> 2 classes via slicing keeps the test self-contained.
        out.slice_cols(0, 2).cross_entropy_rows(&targets, &rows)
    });
}

#[test]
fn grad_neg_and_add_scalar() {
    gradcheck(test_input(3, 4, 70), |p| p.neg().add_scalar(1.5).square().sum());
}

#[test]
fn grad_dropout_deterministic_mask() {
    // Re-seeding the rng inside the closure gives every forward pass the
    // same Bernoulli mask, so finite differences see a fixed linear map.
    gradcheck(test_input(4, 5, 71), |p| {
        let mut rng = StdRng::seed_from_u64(99);
        p.dropout(0.4, true, &mut rng).square().sum()
    });
}

#[test]
fn grad_dropout_eval_mode_is_identity() {
    gradcheck(test_input(3, 3, 72), |p| {
        let mut rng = StdRng::seed_from_u64(99);
        p.dropout(0.4, false, &mut rng).square().sum()
    });
}

#[test]
fn grad_linear_fused_weight_and_bias() {
    use autoac_tensor::Act;
    let x = Tensor::constant(test_input(4, 3, 73));
    let b = Tensor::constant(test_input(1, 2, 74));
    // Gradient w.r.t. the weight through the fused linear+activation op.
    gradcheck(test_input(3, 2, 75), |w| {
        x.linear(w, Some(&b), Act::LeakyRelu(0.2)).square().sum()
    });
    // Gradient w.r.t. the bias row.
    let w = Tensor::constant(test_input(3, 2, 76));
    gradcheck(test_input(1, 2, 77), |b| x.linear(&w, Some(b), Act::Tanh).square().sum());
}

#[test]
fn grad_mean_rows() {
    gradcheck(test_input(3, 5, 78), |p| p.mean_rows().square().sum());
}

#[test]
fn grad_frob_sq_and_frob_inner() {
    gradcheck(test_input(3, 4, 79), |p| p.frob_sq());
    let other = Tensor::constant(test_input(3, 4, 80));
    gradcheck(test_input(3, 4, 81), |p| p.frob_inner(&other));
}
