//! Differentiable reductions.

use crate::autograd::Tensor;
use crate::matrix::Matrix;

impl Tensor {
    /// Sum of all elements, as a `(1,1)` tensor.
    pub fn sum(&self) -> Tensor {
        let _op = crate::chk::op_scope("sum");
        let (rows, cols) = self.shape();
        let value = Matrix::full(1, 1, self.value().sum());
        Tensor::from_op(value, &[self], |_| {
            let a = self.clone();
            Box::new(move |g| a.accum_grad_owned(Matrix::full(rows, cols, g.data()[0])))
        })
    }

    /// Mean of all elements, as a `(1,1)` tensor.
    pub fn mean(&self) -> Tensor {
        let (rows, cols) = self.shape();
        let n = (rows * cols).max(1) as f32;
        self.sum().scale(1.0 / n)
    }

    /// Row sums, as a `(rows, 1)` tensor.
    pub fn sum_rows(&self) -> Tensor {
        let _op = crate::chk::op_scope("sum_rows");
        let (rows, cols) = self.shape();
        let value = self.value().sum_rows();
        Tensor::from_op(value, &[self], |_| {
            let a = self.clone();
            Box::new(move |g| {
                let mut dx = Matrix::scratch(rows, cols); // every entry written
                for r in 0..rows {
                    let gv = g.get(r, 0);
                    for d in dx.row_mut(r) {
                        *d = gv;
                    }
                }
                a.accum_grad_owned(dx);
            })
        })
    }

    /// Column sums, as a `(1, cols)` tensor.
    pub fn sum_cols(&self) -> Tensor {
        let _op = crate::chk::op_scope("sum_cols");
        let (rows, cols) = self.shape();
        let value = self.value().sum_cols();
        Tensor::from_op(value, &[self], |_| {
            let a = self.clone();
            Box::new(move |g| {
                let mut dx = Matrix::scratch(rows, cols); // every entry written
                for r in 0..rows {
                    dx.row_mut(r).copy_from_slice(g.row(0));
                }
                a.accum_grad_owned(dx);
            })
        })
    }

    /// Row means, as a `(rows, 1)` tensor.
    pub fn mean_rows(&self) -> Tensor {
        let (_, cols) = self.shape();
        self.sum_rows().scale(1.0 / cols.max(1) as f32)
    }

    /// Squared Frobenius norm, as a `(1,1)` tensor.
    pub fn frob_sq(&self) -> Tensor {
        self.square().sum()
    }

    /// Frobenius norm, as a `(1,1)` tensor.
    pub fn frob(&self) -> Tensor {
        self.frob_sq().sqrt()
    }

    /// Scalar trace of `selfᵀ · other` (the Frobenius inner product),
    /// computed without materializing the product matrix.
    pub fn frob_inner(&self, other: &Tensor) -> Tensor {
        self.mul(other).sum()
    }
}
