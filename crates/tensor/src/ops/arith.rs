//! Differentiable arithmetic and linear-algebra ops.
//!
//! Backward closures hand their gradient temporaries to
//! `accum_grad_owned`: the buffer is moved into the parent's empty gradient
//! slot (no clone) or scattered in place, so every per-op gradient
//! allocation recycles through the pool.
//!
//! A multi-input op builds an input's gradient only for an input that
//! [takes one](Tensor::takes_grad), and copies an operand's value only when
//! such a gradient reads it: `Some((target, operand))` per input, `None`
//! for a constant or frozen one.

use crate::autograd::Tensor;
use crate::matrix::Matrix;

impl Tensor {
    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let _op = crate::chk::op_scope("add");
        let value = self.value().add(&other.value());
        Tensor::from_op(value, &[self, other], |_| {
            let (a, b) = (self.grad_target(), other.grad_target());
            Box::new(move |g| {
                if let Some(a) = &a {
                    a.accum_grad(g);
                }
                if let Some(b) = &b {
                    b.accum_grad(g);
                }
            })
        })
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let _op = crate::chk::op_scope("sub");
        let value = self.value().sub(&other.value());
        Tensor::from_op(value, &[self, other], |_| {
            let (a, b) = (self.grad_target(), other.grad_target());
            Box::new(move |g| {
                if let Some(a) = &a {
                    a.accum_grad(g);
                }
                if let Some(b) = &b {
                    b.accum_grad_owned(g.scale(-1.0));
                }
            })
        })
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let _op = crate::chk::op_scope("mul");
        let value = self.value().mul(&other.value());
        Tensor::from_op(value, &[self, other], |_| {
            let a = self.grad_target().map(|a| (a, other.to_matrix()));
            let b = other.grad_target().map(|b| (b, self.to_matrix()));
            Box::new(move |g| {
                if let Some((a, bv)) = &a {
                    a.accum_grad_owned(g.mul(bv));
                }
                if let Some((b, av)) = &b {
                    b.accum_grad_owned(g.mul(av));
                }
            })
        })
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f32) -> Tensor {
        let _op = crate::chk::op_scope("scale");
        let value = self.value().scale(s);
        Tensor::from_op(value, &[self], |_| {
            let a = self.clone();
            Box::new(move |g| a.accum_grad_owned(g.scale(s)))
        })
    }

    /// Adds a scalar offset to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let _op = crate::chk::op_scope("add_scalar");
        let value = self.value().map(|v| v + s);
        Tensor::from_op(value, &[self], |_| {
            let a = self.clone();
            Box::new(move |g| a.accum_grad(g))
        })
    }

    /// Multiplies every element by a trainable `(1,1)` scalar tensor.
    pub fn mul_scalar_tensor(&self, s: &Tensor) -> Tensor {
        let _op = crate::chk::op_scope("mul_scalar_tensor");
        assert_eq!(s.shape(), (1, 1), "mul_scalar_tensor: scalar must be (1,1)");
        let sv = s.item();
        let value = self.value().scale(sv);
        Tensor::from_op(value, &[self, s], |_| {
            let a = self.grad_target();
            let b = s.grad_target().map(|b| (b, self.to_matrix()));
            Box::new(move |g| {
                if let Some(a) = &a {
                    a.accum_grad_owned(g.scale(sv));
                }
                if let Some((b, av)) = &b {
                    let ds = g.mul(av).sum();
                    b.accum_grad_owned(Matrix::full(1, 1, ds));
                }
            })
        })
    }

    /// Matrix product.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let _op = crate::chk::op_scope("matmul");
        let value = self.value().matmul(&other.value());
        Tensor::from_op(value, &[self, other], |_| {
            // dA = g · Bᵀ reads B; dB = Aᵀ · g reads A.
            let a = self.grad_target().map(|a| (a, other.to_matrix()));
            let b = other.grad_target().map(|b| (b, self.to_matrix()));
            Box::new(move |g| {
                if let Some((a, bv)) = &a {
                    a.accum_grad_owned(g.matmul_nt(bv));
                }
                if let Some((b, av)) = &b {
                    b.accum_grad_owned(av.matmul_tn(g));
                }
            })
        })
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let _op = crate::chk::op_scope("transpose");
        let value = self.value().transpose();
        Tensor::from_op(value, &[self], |_| {
            let a = self.clone();
            Box::new(move |g| a.accum_grad_owned(g.transpose()))
        })
    }

    /// Adds a `(1, cols)` bias row to every row.
    pub fn add_row_vec(&self, bias: &Tensor) -> Tensor {
        let _op = crate::chk::op_scope("add_row_vec");
        let value = self.value().add_row_vec(&bias.value());
        Tensor::from_op(value, &[self, bias], |_| {
            let (a, b) = (self.grad_target(), bias.grad_target());
            Box::new(move |g| {
                if let Some(a) = &a {
                    a.accum_grad(g);
                }
                if let Some(b) = &b {
                    b.accum_grad_owned(g.sum_cols());
                }
            })
        })
    }

    /// Multiplies each row by the matching entry of a `(rows, 1)` column
    /// vector (per-row scaling, e.g. attention weights applied to messages).
    pub fn mul_col_vec(&self, col: &Tensor) -> Tensor {
        let _op = crate::chk::op_scope("mul_col_vec");
        let value = self.value().mul_col_vec(&col.value());
        Tensor::from_op(value, &[self, col], |_| {
            let a = self.grad_target().map(|a| (a, col.to_matrix()));
            let b = col.grad_target().map(|b| (b, self.to_matrix()));
            Box::new(move |g| {
                if let Some((a, bv)) = &a {
                    a.accum_grad_owned(g.mul_col_vec(bv));
                }
                if let Some((b, av)) = &b {
                    b.accum_grad_owned(g.rowwise_dot(av));
                }
            })
        })
    }

    /// Per-row dot product with another same-shape tensor, as `(rows, 1)`.
    pub fn rowwise_dot(&self, other: &Tensor) -> Tensor {
        let _op = crate::chk::op_scope("rowwise_dot");
        let value = self.value().rowwise_dot(&other.value());
        Tensor::from_op(value, &[self, other], |_| {
            let a = self.grad_target().map(|a| (a, other.to_matrix()));
            let b = other.grad_target().map(|b| (b, self.to_matrix()));
            Box::new(move |g| {
                if let Some((a, bv)) = &a {
                    a.accum_grad_owned(bv.mul_col_vec(g));
                }
                if let Some((b, av)) = &b {
                    b.accum_grad_owned(av.mul_col_vec(g));
                }
            })
        })
    }

    /// Horizontal concatenation.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        let _op = crate::chk::op_scope("concat_cols");
        let values: Vec<_> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Matrix> = values.iter().map(|v| &**v).collect();
        let value = Matrix::concat_cols(&refs);
        let widths: Vec<usize> = refs.iter().map(|v| v.cols()).collect();
        Tensor::from_op(value, parts, |_| {
            let targets: Vec<Option<Tensor>> = parts.iter().map(|p| p.grad_target()).collect();
            Box::new(move |g| {
                let mut off = 0;
                for (p, &w) in targets.iter().zip(&widths) {
                    if let Some(p) = p {
                        p.accum_grad_owned(g.slice_cols(off, w));
                    }
                    off += w;
                }
            })
        })
    }

    /// Vertical concatenation.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        let _op = crate::chk::op_scope("concat_rows");
        let values: Vec<_> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Matrix> = values.iter().map(|v| &**v).collect();
        let value = Matrix::concat_rows(&refs);
        let heights: Vec<usize> = refs.iter().map(|v| v.rows()).collect();
        Tensor::from_op(value, parts, |_| {
            let targets: Vec<Option<Tensor>> = parts.iter().map(|p| p.grad_target()).collect();
            Box::new(move |g| {
                let mut off = 0;
                for (p, &h) in targets.iter().zip(&heights) {
                    if let Some(p) = p {
                        let cols = g.cols();
                        let block =
                            Matrix::from_slice(h, cols, &g.data()[off * cols..(off + h) * cols]);
                        p.accum_grad_owned(block);
                    }
                    off += h;
                }
            })
        })
    }

    /// Extracts the column block `[start, start+len)`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor {
        let _op = crate::chk::op_scope("slice_cols");
        let value = self.value().slice_cols(start, len);
        let (rows, cols) = self.shape();
        Tensor::from_op(value, &[self], |_| {
            let a = self.clone();
            Box::new(move |g| {
                let mut padded = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    padded.row_mut(r)[start..start + len].copy_from_slice(g.row(r));
                }
                a.accum_grad_owned(padded);
            })
        })
    }
}
