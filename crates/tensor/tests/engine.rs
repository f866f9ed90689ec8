//! Engine-level behaviour tests: autograd bookkeeping, evaluation mode,
//! dropout semantics, optimizer interactions — the parts gradcheck.rs
//! doesn't cover.

use autoac_tensor::{no_grad, Adam, AdamConfig, Matrix, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn no_grad_nests_and_restores() {
    let p = Tensor::param(Matrix::ones(1, 1));
    no_grad(|| {
        let a = p.add(&p);
        assert!(!a.requires_grad());
        no_grad(|| {
            let b = p.add(&p);
            assert!(!b.requires_grad());
        });
        // Still disabled after the inner scope.
        let c = p.add(&p);
        assert!(!c.requires_grad());
    });
    // Re-enabled outside.
    let d = p.add(&p);
    assert!(d.requires_grad());
}

#[test]
fn backward_with_explicit_seed() {
    let p = Tensor::param(Matrix::ones(2, 2));
    let y = p.scale(3.0);
    y.backward_with(Matrix::full(2, 2, 2.0));
    let g = p.grad().unwrap();
    assert!(g.data().iter().all(|&v| (v - 6.0).abs() < 1e-6));
}

#[test]
fn dropout_eval_mode_is_identity() {
    let mut rng = StdRng::seed_from_u64(0);
    let p = Tensor::param(Matrix::full(10, 10, 1.0));
    let out = p.dropout(0.7, false, &mut rng);
    assert_eq!(out.to_matrix(), p.to_matrix());
}

#[test]
fn dropout_train_mode_scales_survivors() {
    let mut rng = StdRng::seed_from_u64(1);
    let p = Tensor::param(Matrix::full(50, 50, 1.0));
    let out = p.dropout(0.5, true, &mut rng).to_matrix();
    let kept: Vec<f32> = out.data().iter().copied().filter(|&v| v != 0.0).collect();
    assert!(!kept.is_empty());
    assert!(kept.iter().all(|&v| (v - 2.0).abs() < 1e-6), "survivors scale by 1/(1-p)");
    // Expectation preserved within tolerance.
    let mean = out.mean();
    assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
}

#[test]
fn dropout_zero_probability_is_identity() {
    let mut rng = StdRng::seed_from_u64(2);
    let p = Tensor::param(Matrix::full(4, 4, 3.0));
    let out = p.dropout(0.0, true, &mut rng);
    assert_eq!(out.to_matrix(), p.to_matrix());
}

#[test]
fn group_softmax_handles_empty_groups() {
    // Groups 0 and 2 are populated; group 1 is empty.
    let scores = Tensor::param(Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
    let out = scores.group_softmax(&[0, 0, 2], 3).to_matrix();
    assert!((out.get(0, 0) + out.get(1, 0) - 1.0).abs() < 1e-6);
    assert!((out.get(2, 0) - 1.0).abs() < 1e-6);
}

#[test]
fn adam_handles_mixed_grad_presence() {
    let a = Tensor::param(Matrix::from_vec(1, 1, vec![1.0]));
    let b = Tensor::param(Matrix::from_vec(1, 1, vec![1.0]));
    let mut opt = Adam::new(vec![a.clone(), b.clone()], AdamConfig::with(0.1, 0.0));
    // Only `a` participates in the loss.
    a.square().sum().backward();
    opt.step();
    assert!(a.item() < 1.0, "a must move");
    assert_eq!(b.item(), 1.0, "b must not move without a gradient");
}

#[test]
fn optimizer_state_survives_zero_grad() {
    // Momentum must persist across steps (not be reset by zero_grad).
    let x = Tensor::param(Matrix::from_vec(1, 1, vec![10.0]));
    let mut opt = Adam::new(vec![x.clone()], AdamConfig::with(0.5, 0.0));
    let mut prev = x.item();
    let mut speeds = Vec::new();
    for _ in 0..5 {
        opt.zero_grad();
        x.square().sum().backward();
        opt.step();
        speeds.push((prev - x.item()).abs());
        prev = x.item();
    }
    // With momentum building up, later steps are not all smaller than the
    // first despite the shrinking gradient.
    assert!(speeds.iter().skip(1).any(|&s| s >= speeds[0] * 0.5), "{speeds:?}");
}

#[test]
fn graph_reuse_across_multiple_backwards() {
    // Two different losses built from the same intermediate must each get
    // correct leaf gradients when computed in separate passes.
    let p = Tensor::param(Matrix::from_vec(1, 1, vec![2.0]));
    let shared = p.square(); // 4
    shared.sum().backward();
    assert_eq!(p.grad().unwrap().data()[0], 4.0); // d(x²)/dx = 2x
    p.zero_grad();
    let other = shared.scale(3.0); // graph extended after first backward
    other.sum().backward();
    assert_eq!(p.grad().unwrap().data()[0], 12.0);
}

#[test]
fn set_value_shape_guard() {
    let p = Tensor::param(Matrix::zeros(2, 3));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        p.set_value(Matrix::zeros(3, 2));
    }));
    assert!(result.is_err(), "shape mismatch must panic");
}
