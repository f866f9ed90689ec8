//! Differentiable loss functions.

use std::rc::Rc;

use crate::autograd::Tensor;
use crate::matrix::Matrix;

impl Tensor {
    /// Negative log-likelihood over a subset of rows of a `(N, C)`
    /// log-probability matrix (the output of [`Tensor::log_softmax_rows`]).
    ///
    /// `targets[i]` is the class of node `i` (length `N`); `rows` selects
    /// which nodes contribute (e.g. the training split). Returns the mean
    /// NLL as a `(1,1)` tensor.
    pub fn nll_loss_rows(&self, targets: &[u32], rows: &[u32]) -> Tensor {
        let _op = crate::chk::op_scope("nll_loss_rows");
        let (n, c) = self.shape();
        assert_eq!(targets.len(), n, "nll_loss_rows: target length mismatch");
        assert!(!rows.is_empty(), "nll_loss_rows: empty row subset");
        let logp = self.value();
        let inv = 1.0 / rows.len() as f32;
        let mut loss = 0.0;
        for &r in rows {
            let r = r as usize;
            let t = targets[r] as usize;
            debug_assert!(t < c, "nll_loss_rows: target {t} out of range");
            loss -= logp.get(r, t);
        }
        drop(logp);
        Tensor::from_op(Matrix::full(1, 1, loss * inv), &[self], |_| {
            let a = self.clone();
            let targets: Rc<[u32]> = targets.into();
            let rows: Rc<[u32]> = rows.into();
            Box::new(move |g| {
                let scale = g.data()[0] * inv;
                let mut dx = Matrix::zeros(n, c);
                for &r in rows.iter() {
                    let r = r as usize;
                    dx.set(r, targets[r] as usize, -scale);
                }
                a.accum_grad_owned(dx);
            })
        })
    }

    /// Cross-entropy with logits over row subset: `log_softmax` + NLL.
    pub fn cross_entropy_rows(&self, targets: &[u32], rows: &[u32]) -> Tensor {
        self.log_softmax_rows().nll_loss_rows(targets, rows)
    }

    /// Binary cross-entropy with logits for an `(E, 1)` score column against
    /// `{0, 1}` labels. Numerically stable formulation; returns the mean.
    pub fn bce_with_logits(&self, labels: &[f32]) -> Tensor {
        let _op = crate::chk::op_scope("bce_with_logits");
        let (e, c) = self.shape();
        assert_eq!(c, 1, "bce_with_logits: expected an (E, 1) logit column");
        assert_eq!(labels.len(), e, "bce_with_logits: label length mismatch");
        assert!(e > 0, "bce_with_logits: empty input");
        let inv = 1.0 / e as f32;
        let mut loss = 0.0;
        for (zi, &y) in self.value().data().iter().zip(labels) {
            // max(z, 0) − z·y + ln(1 + e^{−|z|})
            loss += zi.max(0.0) - zi * y + (1.0 + (-zi.abs()).exp()).ln();
        }
        Tensor::from_op(Matrix::full(1, 1, loss * inv), &[self], |_| {
            let (a, z) = (self.clone(), self.to_matrix());
            let labels: Rc<[f32]> = labels.into();
            Box::new(move |g| {
                let scale = g.data()[0] * inv;
                let mut dx = Matrix::scratch(z.rows(), 1); // every entry written
                for ((d, zi), &y) in dx.data_mut().iter_mut().zip(z.data()).zip(labels.iter()) {
                    let sig = 1.0 / (1.0 + (-zi).exp());
                    *d = scale * (sig - y);
                }
                a.accum_grad_owned(dx);
            })
        })
    }
}
