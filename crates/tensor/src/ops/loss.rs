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

    /// Multi-label binary cross-entropy with logits over a row subset of an
    /// `(N, C)` logit matrix against a `{0,1}` target matrix of the same
    /// shape. Returns the mean over `rows × C` entries.
    pub fn multilabel_bce_rows(&self, targets: &Matrix, rows: &[u32]) -> Tensor {
        let _op = crate::chk::op_scope("multilabel_bce_rows");
        let (n, c) = self.shape();
        assert_eq!(targets.shape(), (n, c), "multilabel_bce_rows: target shape mismatch");
        assert!(!rows.is_empty(), "multilabel_bce_rows: empty row subset");
        let inv = 1.0 / (rows.len() * c) as f32;
        let mut loss = 0.0;
        let z = self.value();
        for &r in rows {
            let r = r as usize;
            for (zi, &y) in z.row(r).iter().zip(targets.row(r)) {
                loss += zi.max(0.0) - zi * y + (1.0 + (-zi.abs()).exp()).ln();
            }
        }
        drop(z);
        Tensor::from_op(Matrix::full(1, 1, loss * inv), &[self], |_| {
            let (a, z) = (self.clone(), self.to_matrix());
            let targets = targets.clone();
            let rows: Rc<[u32]> = rows.into();
            Box::new(move |g| {
                let scale = g.data()[0] * inv;
                let mut dx = Matrix::zeros(n, c);
                for &r in rows.iter() {
                    let r = r as usize;
                    for ((d, zi), &y) in
                        dx.row_mut(r).iter_mut().zip(z.row(r)).zip(targets.row(r))
                    {
                        let sig = 1.0 / (1.0 + (-zi).exp());
                        *d = scale * (sig - y);
                    }
                }
                a.accum_grad_owned(dx);
            })
        })
    }

    /// Mean squared error against a constant target of the same shape.
    pub fn mse(&self, target: &Matrix) -> Tensor {
        assert_eq!(self.shape(), target.shape(), "mse: shape mismatch");
        let diff = self.sub(&Tensor::constant(target.clone()));
        diff.square().mean()
    }
}
