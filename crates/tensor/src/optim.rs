//! First-order optimizers over parameter leaves.
//!
//! The AutoAC search uses two independent parameter groups with distinct
//! learning rates and weight decays (paper §V-B): the GNN weights ω
//! (lr 5e-4, wd 1e-4) and the completion parameters α (lr 5e-3, wd 1e-5).
//! Each group is a separate [`Adam`] instance.

use crate::autograd::Tensor;
use crate::matrix::Matrix;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator stabilizer.
    pub eps: f32,
    /// Decoupled (AdamW-style) weight decay.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

impl AdamConfig {
    /// Configuration with a given learning rate and weight decay.
    pub fn with(lr: f32, weight_decay: f32) -> Self {
        Self { lr, weight_decay, ..Self::default() }
    }
}

/// Adam with decoupled weight decay.
pub struct Adam {
    config: AdamConfig,
    params: Vec<Tensor>,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u64,
}

/// A frozen copy of an [`Adam`] instance's mutable state: the step counter
/// and the first/second moment estimates, one matrix pair per managed
/// parameter. Captured by [`Adam::export_state`] and reinstated by
/// [`Adam::import_state`] so checkpointing code can resume optimization
/// bit-identically (the moments fully determine the next update given the
/// same gradients).
#[derive(Debug, Clone)]
pub struct AdamState {
    /// Steps taken so far (drives bias correction).
    pub t: u64,
    /// First-moment estimates, aligned with the parameter list.
    pub m: Vec<Matrix>,
    /// Second-moment estimates, aligned with the parameter list.
    pub v: Vec<Matrix>,
}

impl Adam {
    /// Creates an optimizer over the given parameter leaves.
    pub fn new(params: Vec<Tensor>, config: AdamConfig) -> Self {
        let m = params.iter().map(|p| { let (r, c) = p.shape(); Matrix::zeros(r, c) }).collect();
        let v = params.iter().map(|p| { let (r, c) = p.shape(); Matrix::zeros(r, c) }).collect();
        Self { config, params, m, v, t: 0 }
    }

    /// The parameters managed by this optimizer.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.config.lr
    }

    /// Clears the gradients of every managed parameter.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Copies out the optimizer's mutable state (step count + moments).
    pub fn export_state(&self) -> AdamState {
        AdamState { t: self.t, m: self.m.clone(), v: self.v.clone() }
    }

    /// Reinstates state captured by [`Adam::export_state`].
    ///
    /// Panics if the moment shapes do not match the managed parameters —
    /// that means the state belongs to a differently-shaped model and
    /// resuming from it would silently diverge.
    pub fn import_state(&mut self, state: AdamState) {
        assert_eq!(
            (state.m.len(), state.v.len()),
            (self.params.len(), self.params.len()),
            "Adam::import_state: state covers a different number of parameters"
        );
        for (i, p) in self.params.iter().enumerate() {
            assert_eq!(
                (state.m[i].shape(), state.v[i].shape()),
                (p.shape(), p.shape()),
                "Adam::import_state: moment shape mismatch at parameter {i}"
            );
        }
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }

    /// Applies one Adam step using the accumulated gradients. Parameters
    /// without a gradient are skipped.
    pub fn step(&mut self) {
        self.t += 1;
        let c = self.config;
        let bc1 = 1.0 - c.beta1.powi(self.t as i32);
        let bc2 = 1.0 - c.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            // Borrow (not clone) the gradient: the update only reads it.
            let Some(grad) = p.grad_ref() else { continue };
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            p.update_value(|value| {
                for (((mv, vv), g), x) in m
                    .data_mut()
                    .iter_mut()
                    .zip(v.data_mut())
                    .zip(grad.data())
                    .zip(value.data_mut())
                {
                    *mv = c.beta1 * *mv + (1.0 - c.beta1) * g;
                    *vv = c.beta2 * *vv + (1.0 - c.beta2) * g * g;
                    let m_hat = *mv / bc1;
                    let v_hat = *vv / bc2;
                    // Decoupled weight decay, then the Adam update.
                    *x -= c.lr * c.weight_decay * *x;
                    *x -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
                }
            });
        }
    }

    /// Global gradient-norm clipping across all managed parameters.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&self, max_norm: f32) -> f32 {
        let mut total = 0.0f32;
        for p in &self.params {
            if let Some(g) = p.grad_ref() {
                total += g.frob_sq();
            }
        }
        let norm = total.sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &self.params {
                p.with_grad_mut(|g| g.scale_assign(scale));
            }
        }
        norm
    }
}

impl Tensor {
    /// Public gradient accumulation (custom search steps write gradients
    /// directly): moves the buffer into an empty gradient slot instead of
    /// cloning it.
    pub fn accum_grad_public_owned(&self, g: Matrix) {
        self.accum_grad_owned(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x − 3)² and checks convergence.
    #[test]
    fn adam_converges_on_quadratic() {
        let x = Tensor::param(Matrix::zeros(1, 1));
        let mut opt = Adam::new(vec![x.clone()], AdamConfig::with(0.1, 0.0));
        for _ in 0..300 {
            opt.zero_grad();
            let loss = x.add_scalar(-3.0).square().sum();
            loss.backward();
            opt.step();
        }
        assert!((x.item() - 3.0).abs() < 1e-2, "x = {}", x.item());
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let x = Tensor::param(Matrix::from_vec(1, 1, vec![1.0]));
        let mut opt = Adam::new(vec![x.clone()], AdamConfig::with(0.01, 0.5));
        // Zero-gradient steps: only decay acts.
        for _ in 0..10 {
            opt.zero_grad();
            let loss = x.scale(0.0).sum();
            loss.backward();
            opt.step();
        }
        assert!(x.item() < 1.0, "decay must shrink the weight, got {}", x.item());
    }

    #[test]
    fn params_without_grad_are_skipped() {
        let x = Tensor::param(Matrix::from_vec(1, 1, vec![5.0]));
        let mut opt = Adam::new(vec![x.clone()], AdamConfig::default());
        opt.step();
        assert_eq!(x.item(), 5.0);
    }

    #[test]
    fn export_import_state_resumes_bit_identically() {
        // Optimize the same quadratic twice: once straight through, once
        // with a state export/import halfway. Trajectories must match bit
        // for bit.
        let run = |split: bool| -> u32 {
            let x = Tensor::param(Matrix::from_vec(1, 1, vec![10.0]));
            let mut opt = Adam::new(vec![x.clone()], AdamConfig::with(0.05, 0.01));
            for step in 0..40 {
                if split && step == 20 {
                    let state = opt.export_state();
                    let mut fresh =
                        Adam::new(vec![x.clone()], AdamConfig::with(0.05, 0.01));
                    fresh.import_state(state);
                    opt = fresh;
                }
                opt.zero_grad();
                let loss = x.add_scalar(-3.0).square().sum();
                loss.backward();
                opt.step();
            }
            x.item().to_bits()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "moment shape mismatch")]
    fn import_state_rejects_wrong_shapes() {
        let x = Tensor::param(Matrix::zeros(2, 3));
        let mut opt = Adam::new(vec![x], AdamConfig::default());
        let bad = AdamState { t: 1, m: vec![Matrix::zeros(3, 2)], v: vec![Matrix::zeros(3, 2)] };
        opt.import_state(bad);
    }

    #[test]
    fn clip_grad_norm_bounds_gradient() {
        let x = Tensor::param(Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let opt = Adam::new(vec![x.clone()], AdamConfig::default());
        x.accum_grad_public_owned(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let pre = opt.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let g = x.grad().unwrap();
        assert!((g.frob() - 1.0).abs() < 1e-5);
    }
}
