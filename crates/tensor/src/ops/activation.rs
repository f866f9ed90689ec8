//! Differentiable pointwise nonlinearities and row-softmax ops.

use rand::Rng;

use crate::autograd::Tensor;
use crate::matrix::Matrix;

impl Tensor {
    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let _op = crate::chk::op_scope("relu");
        let value = self.value().map(|v| v.max(0.0));
        Tensor::from_op(value, &[self], |_| {
            let (a, x) = (self.clone(), self.to_matrix());
            Box::new(move |g| {
                a.accum_grad_owned(g.zip_map(&x, |gv, xv| if xv > 0.0 { gv } else { 0.0 }));
            })
        })
    }

    /// Leaky ReLU with negative slope `slope`.
    pub fn leaky_relu(&self, slope: f32) -> Tensor {
        let _op = crate::chk::op_scope("leaky_relu");
        let value = self.value().map(|v| if v > 0.0 { v } else { slope * v });
        Tensor::from_op(value, &[self], |_| {
            let (a, x) = (self.clone(), self.to_matrix());
            Box::new(move |g| {
                a.accum_grad_owned(g.zip_map(&x, |gv, xv| if xv > 0.0 { gv } else { slope * gv }));
            })
        })
    }

    /// Exponential linear unit (alpha = 1).
    pub fn elu(&self) -> Tensor {
        let _op = crate::chk::op_scope("elu");
        let value = self.value().map(|v| if v > 0.0 { v } else { v.exp() - 1.0 });
        Tensor::from_op(value, &[self], |y| {
            let (a, x, y) = (self.clone(), self.to_matrix(), y.clone());
            Box::new(move |g| {
                // d/dx elu = 1 for x>0, exp(x) = y+1 otherwise.
                let mut dg = g.clone();
                for ((d, &xv), &yv) in dg.data_mut().iter_mut().zip(x.data()).zip(y.data()) {
                    if xv <= 0.0 {
                        *d *= yv + 1.0;
                    }
                }
                a.accum_grad_owned(dg);
            })
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let _op = crate::chk::op_scope("sigmoid");
        let value = self.value().map(|v| 1.0 / (1.0 + (-v).exp()));
        Tensor::from_op(value, &[self], |y| {
            let (a, y) = (self.clone(), y.clone());
            Box::new(move |g| a.accum_grad_owned(g.zip_map(&y, |gv, yv| gv * yv * (1.0 - yv))))
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        let _op = crate::chk::op_scope("tanh");
        let value = self.value().map(f32::tanh);
        Tensor::from_op(value, &[self], |y| {
            let (a, y) = (self.clone(), y.clone());
            Box::new(move |g| a.accum_grad_owned(g.zip_map(&y, |gv, yv| gv * (1.0 - yv * yv))))
        })
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        let _op = crate::chk::op_scope("exp");
        let value = self.value().map(f32::exp);
        Tensor::from_op(value, &[self], |y| {
            let (a, y) = (self.clone(), y.clone());
            Box::new(move |g| a.accum_grad_owned(g.mul(&y)))
        })
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        let _op = crate::chk::op_scope("ln");
        let value = self.value().map(f32::ln);
        Tensor::from_op(value, &[self], |_| {
            let (a, x) = (self.clone(), self.to_matrix());
            Box::new(move |g| a.accum_grad_owned(g.zip_map(&x, |gv, xv| gv / xv)))
        })
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        let _op = crate::chk::op_scope("sqrt");
        let value = self.value().map(f32::sqrt);
        Tensor::from_op(value, &[self], |y| {
            let (a, y) = (self.clone(), y.clone());
            Box::new(move |g| {
                a.accum_grad_owned(g.zip_map(&y, |gv, yv| gv * 0.5 / yv.max(1e-12)));
            })
        })
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        let _op = crate::chk::op_scope("square");
        let value = self.value().map(|v| v * v);
        Tensor::from_op(value, &[self], |_| {
            let (a, x) = (self.clone(), self.to_matrix());
            Box::new(move |g| a.accum_grad_owned(g.zip_map(&x, |gv, xv| gv * 2.0 * xv)))
        })
    }

    /// Inverted-scale dropout. A no-op when `training` is false or `p == 0`.
    pub fn dropout(&self, p: f32, training: bool, rng: &mut impl Rng) -> Tensor {
        let _op = crate::chk::op_scope("dropout");
        assert!((0.0..1.0).contains(&p), "dropout: p must be in [0, 1)");
        if !training || p == 0.0 {
            return self.clone();
        }
        let keep = 1.0 - p;
        let (rows, cols) = self.shape();
        let mut mask = Matrix::zeros(rows, cols);
        for m in mask.data_mut() {
            if rng.gen::<f32>() >= p {
                *m = 1.0 / keep;
            }
        }
        let value = self.value().mul(&mask);
        Tensor::from_op(value, &[self], |_| {
            let a = self.clone();
            Box::new(move |g| a.accum_grad_owned(g.mul(&mask)))
        })
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let _op = crate::chk::op_scope("softmax_rows");
        let value = self.value().softmax_rows();
        Tensor::from_op(value, &[self], |y| {
            let (a, y) = (self.clone(), y.clone());
            Box::new(move |g| {
                // dx_r = y_r ∘ (g_r − ⟨g_r, y_r⟩)
                let mut dx = g.clone();
                for r in 0..dx.rows() {
                    let yr = y.row(r);
                    let inner: f32 = dx.row(r).iter().zip(yr).map(|(gv, yv)| gv * yv).sum();
                    for (d, &yv) in dx.row_mut(r).iter_mut().zip(yr) {
                        *d = yv * (*d - inner);
                    }
                }
                a.accum_grad_owned(dx);
            })
        })
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&self) -> Tensor {
        let _op = crate::chk::op_scope("log_softmax_rows");
        let value = self.value().log_softmax_rows();
        Tensor::from_op(value, &[self], |logp| {
            let (a, softmax) = (self.clone(), logp.map(f32::exp));
            Box::new(move |g| {
                // dx_r = g_r − softmax_r · Σ g_r
                let mut dx = g.clone();
                for r in 0..dx.rows() {
                    let gsum: f32 = dx.row(r).iter().sum();
                    for (d, &sv) in dx.row_mut(r).iter_mut().zip(softmax.row(r)) {
                        *d -= sv * gsum;
                    }
                }
                a.accum_grad_owned(dx);
            })
        })
    }
}
