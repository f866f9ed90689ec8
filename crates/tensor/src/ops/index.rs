//! Differentiable row-indexing ops: gather / scatter-add / embedding lookup,
//! fused weighted edge aggregation, and grouped (per-destination) softmax —
//! the primitives behind all message-passing and attention layers in the
//! GNN stack.

use std::rc::Rc;

use crate::autograd::Tensor;
use crate::matrix::{dot, Matrix};

/// `out[dst[e]] += x[src[e]] · w[e]` for ascending `e`, into zeros: the
/// loop of [`Matrix::scatter_add_rows`] with the gather and the per-edge
/// scale folded into its inner statement.
fn aggregate(x: &Matrix, src: &[u32], dst: &[u32], w: &Matrix, num_out: usize) -> Matrix {
    let d = x.cols();
    let mut out = Matrix::zeros(num_out, d);
    for ((&s, &t), &we) in src.iter().zip(dst).zip(w.data()) {
        let t = t as usize;
        debug_assert!(t < num_out, "edge_aggregate: destination {t} out of bounds");
        let out_row = &mut out.data_mut()[t * d..(t + 1) * d];
        for (o, &v) in out_row.iter_mut().zip(x.row(s as usize)) {
            *o += v * we;
        }
    }
    out
}

impl Tensor {
    /// Gathers rows by index: `out[i] = self[idx[i]]`. Duplicate indices are
    /// allowed; gradients scatter-add back.
    pub fn gather_rows(&self, idx: &[u32]) -> Tensor {
        let _op = crate::chk::op_scope("gather_rows");
        let (rows, _) = self.shape();
        let value = self.value().gather_rows(idx);
        Tensor::from_op(value, &[self], |_| {
            let a = self.clone();
            let idx: Rc<[u32]> = idx.into();
            Box::new(move |g| a.accum_grad_owned(g.scatter_add_rows(&idx, rows)))
        })
    }

    /// Scatter-adds rows by index into a `(num_out, cols)` tensor:
    /// `out[idx[i]] += self[i]`. The adjoint of [`Tensor::gather_rows`].
    pub fn scatter_add_rows(&self, idx: &[u32], num_out: usize) -> Tensor {
        let _op = crate::chk::op_scope("scatter_add_rows");
        let value = self.value().scatter_add_rows(idx, num_out);
        Tensor::from_op(value, &[self], |_| {
            let a = self.clone();
            let idx: Rc<[u32]> = idx.into();
            Box::new(move |g| a.accum_grad_owned(g.gather_rows(&idx)))
        })
    }

    /// Fused weighted edge aggregation into a `(num_out, cols)` tensor:
    /// `out[dst[e]] += self[src[e]] · w[e]`, with `w` an `(E, 1)` column of
    /// per-edge weights (attention coefficients). One graph node and no
    /// `E × cols` intermediate.
    ///
    /// Every scalar operation, and its order, is that of
    /// `self.gather_rows(src).mul_col_vec(w).scatter_add_rows(dst, num_out)`,
    /// so the value and both gradients are bitwise equal to the chain's:
    /// `dx` is this kernel with `src` and `dst` swapped (the chain's
    /// `mul_col_vec` then `scatter_add_rows` backward), and
    /// `dw[e] = dot(g[dst[e]], x[src[e]])` (its `rowwise_dot`). Serial,
    /// like `scatter_add_rows`.
    pub fn edge_aggregate(&self, src: &[u32], dst: &[u32], w: &Tensor, num_out: usize) -> Tensor {
        let _op = crate::chk::op_scope("edge_aggregate");
        assert!(
            src.len() == dst.len() && w.shape() == (src.len(), 1),
            "edge_aggregate: {} sources, {} destinations and a {:?} weight column disagree",
            src.len(),
            dst.len(),
            w.shape()
        );
        let value = {
            let _obs = autoac_obs::span("edge_aggregate");
            aggregate(&self.value(), src, dst, &w.value(), num_out)
        };
        let rows = self.shape().0;
        Tensor::from_op(value, &[self, w], |_| {
            // dx reads the weights; dw reads x.
            let x = self.grad_target().map(|x| (x, w.to_matrix()));
            let wt = w.grad_target().map(|wt| (wt, self.to_matrix()));
            let (src, dst): (Rc<[u32]>, Rc<[u32]>) = (src.into(), dst.into());
            Box::new(move |g| {
                let _obs = autoac_obs::span("edge_aggregate");
                if let Some((x, wv)) = &x {
                    x.accum_grad_owned(aggregate(g, &dst, &src, wv, rows));
                }
                if let Some((wt, xv)) = &wt {
                    let mut dw = Matrix::scratch(src.len(), 1); // every entry written below
                    for (o, (&s, &t)) in dw.data_mut().iter_mut().zip(src.iter().zip(dst.iter()))
                    {
                        *o = dot(g.row(t as usize), xv.row(s as usize));
                    }
                    wt.accum_grad_owned(dw);
                }
            })
        })
    }

    /// Mean-aggregates rows into groups: `out[k] = mean of self rows with
    /// idx == k` (zero row for empty groups).
    pub fn segment_mean(&self, idx: &[u32], num_out: usize) -> Tensor {
        let mut counts = vec![0.0f32; num_out];
        for &i in idx {
            counts[i as usize] += 1.0;
        }
        let mut inv = Matrix::scratch(num_out, 1); // every entry written below
        for (o, &c) in inv.data_mut().iter_mut().zip(&counts) {
            *o = if c > 0.0 { 1.0 / c } else { 0.0 };
        }
        let summed = self.scatter_add_rows(idx, num_out);
        summed.mul_col_vec(&Tensor::constant(inv))
    }

    /// Grouped softmax over a `(E, 1)` score column: scores sharing the same
    /// `group[i]` are softmax-normalized together. This is the edge-softmax
    /// used by attention GNNs (groups = destination nodes).
    pub fn group_softmax(&self, group: &[u32], num_groups: usize) -> Tensor {
        let _op = crate::chk::op_scope("group_softmax");
        let (rows, cols) = self.shape();
        assert_eq!(cols, 1, "group_softmax: expected an (E, 1) score column");
        assert_eq!(rows, group.len(), "group_softmax: group length mismatch");
        let x = self.value();
        // Numerically stable per-group softmax: subtract per-group max.
        let mut gmax = vec![f32::NEG_INFINITY; num_groups];
        for (i, &gid) in group.iter().enumerate() {
            let gid = gid as usize;
            gmax[gid] = gmax[gid].max(x.data()[i]);
        }
        let mut out = Matrix::scratch(rows, 1); // every entry written below
        let mut gsum = vec![0.0f32; num_groups];
        for (i, &gid) in group.iter().enumerate() {
            let gid = gid as usize;
            let e = (x.data()[i] - gmax[gid]).exp();
            out.data_mut()[i] = e;
            gsum[gid] += e;
        }
        for (i, &gid) in group.iter().enumerate() {
            let s = gsum[gid as usize];
            if s > 0.0 {
                out.data_mut()[i] /= s;
            }
        }
        Tensor::from_op(out, &[self], |y| {
            let y = y.clone();
            let a = self.clone();
            let group: Rc<[u32]> = group.into();
            Box::new(move |g| {
                // Within each group: dx_i = y_i (g_i − Σ_j y_j g_j).
                let mut inner = vec![0.0f32; num_groups];
                for (i, &gid) in group.iter().enumerate() {
                    inner[gid as usize] += y.data()[i] * g.data()[i];
                }
                let mut dx = Matrix::scratch(y.rows(), 1); // every entry written
                for (i, &gid) in group.iter().enumerate() {
                    dx.data_mut()[i] = y.data()[i] * (g.data()[i] - inner[gid as usize]);
                }
                a.accum_grad_owned(dx);
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_bitwise_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn edge_aggregate_matches_the_composed_chain_bitwise() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(7);
        // 64 edges from 8 source rows into 6 destinations: about 16 terms
        // per destination and 9 per source row read, so any change to the
        // order of the adds shows in the bits. Source 7 is never read and
        // destinations 4 and 5 receive nothing; draws repeat (src, dst)
        // pairs many times over.
        let (num_in, num_out, edges) = (8, 6, 64);
        let src: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..7)).collect();
        let dst: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..4)).collect();
        let mut xm = crate::init::random_uniform(num_in, 5, -1.0, 1.0, &mut rng);
        xm.set(2, 1, -0.0);
        xm.set(5, 0, 0.0);
        let mut wm = crate::init::random_uniform(edges, 1, -1.0, 1.0, &mut rng);
        // Zero weights of both signs: x · ±0.0 is a signed zero, and the
        // sign of a zero sum depends on the order of the adds.
        for (e, z) in [(1, 0.0), (3, -0.0), (8, -0.0), (9, 0.0)] {
            wm.set(e, 0, z);
        }
        let seed = crate::init::random_uniform(num_out, 5, -1.0, 1.0, &mut rng);

        let (x1, w1) = (Tensor::param(xm.clone()), Tensor::param(wm.clone()));
        let fused = x1.edge_aggregate(&src, &dst, &w1, num_out);
        fused.backward_with(seed.clone());

        let (x2, w2) = (Tensor::param(xm), Tensor::param(wm));
        let chain = x2.gather_rows(&src).mul_col_vec(&w2).scatter_add_rows(&dst, num_out);
        chain.backward_with(seed);

        let parents: Vec<u64> = fused.parents().iter().map(Tensor::id).collect();
        assert_eq!(parents, [x1.id(), w1.id()], "one node over the inputs");
        assert_bitwise_eq(&fused.to_matrix(), &chain.to_matrix(), "value");
        assert_bitwise_eq(&x1.grad().unwrap(), &x2.grad().unwrap(), "dx");
        assert_bitwise_eq(&w1.grad().unwrap(), &w2.grad().unwrap(), "dw");
        let v = fused.to_matrix();
        assert!(v.row(4).iter().chain(v.row(5)).all(|&e| e.to_bits() == 0), "empty rows are +0.0");
        assert!(x1.grad().unwrap().row(7).iter().all(|&e| e.to_bits() == 0), "unread source");
    }

    #[test]
    #[should_panic(expected = "edge_aggregate")]
    fn edge_aggregate_rejects_mismatched_lengths() {
        let x = Tensor::param(Matrix::ones(3, 2));
        let w = Tensor::param(Matrix::ones(3, 1));
        let _ = x.edge_aggregate(&[0, 2], &[1, 1], &w, 2);
    }
}
