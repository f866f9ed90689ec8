//! Compressed-sparse-row matrices and the differentiable sparse-dense
//! product (`spmm`) used for graph convolutions and PPNP propagation.

use std::rc::Rc;

use crate::autograd::Tensor;
use crate::matrix::Matrix;
use crate::ops::microkernel;

/// Immutable CSR matrix of `f32` weights.
///
/// Built once per graph (adjacency, normalized adjacency, …) and shared via
/// [`Rc`]; the autograd closures clone the `Rc`, never the buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds from COO triplets. Duplicate coordinates are summed.
    pub fn from_coo(
        n_rows: usize,
        n_cols: usize,
        triplets: impl IntoIterator<Item = (u32, u32, f32)>,
    ) -> Self {
        let mut rows: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n_rows];
        for (r, c, v) in triplets {
            assert!((r as usize) < n_rows, "from_coo: row {r} out of bounds");
            assert!((c as usize) < n_cols, "from_coo: col {c} out of bounds");
            rows[r as usize].push((c, v));
        }
        let mut indptr = Vec::with_capacity(n_rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for row in &mut rows {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut last: Option<u32> = None;
            for &(c, v) in row.iter() {
                if last == Some(c) {
                    *values.last_mut().expect("value present for duplicate") += v;
                } else {
                    indices.push(c);
                    values.push(v);
                    last = Some(c);
                }
            }
            indptr.push(indices.len());
        }
        Self { n_rows, n_cols, indptr, indices, values }
    }

    /// Identity matrix in CSR form.
    pub fn eye(n: usize) -> Self {
        Self::from_coo(n, n, (0..n as u32).map(|i| (i, i, 1.0)))
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over `(col, weight)` of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let range = self.indptr[r]..self.indptr[r + 1];
        self.indices[range.clone()].iter().copied().zip(self.values[range].iter().copied())
    }

    /// Out-degree (stored entry count) per row.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Weighted row sums (`A · 1`).
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.n_rows).map(|r| self.row(r).map(|(_, v)| v).sum()).collect()
    }

    /// Copy with only the listed rows kept; every other row becomes empty.
    /// The shape is unchanged. Duplicates in `rows` are harmless; rows out
    /// of range panic.
    pub fn restrict_rows(&self, rows: &[u32]) -> Csr {
        let mut keep = vec![false; self.n_rows];
        for &r in rows {
            assert!((r as usize) < self.n_rows, "restrict_rows: row {r} out of bounds");
            keep[r as usize] = true;
        }
        let mut indptr = Vec::with_capacity(self.n_rows + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.n_rows {
            if keep[r] {
                let range = self.indptr[r]..self.indptr[r + 1];
                indices.extend_from_slice(&self.indices[range.clone()]);
                values.extend_from_slice(&self.values[range]);
            }
            indptr.push(indices.len());
        }
        Csr { n_rows: self.n_rows, n_cols: self.n_cols, indptr, indices, values }
    }

    /// Transposed copy (CSC view rebuilt as CSR).
    ///
    /// Large matrices use a two-pass parallel counting sort: per-chunk
    /// column histograms, a serial prefix scan that assigns each chunk a
    /// disjoint cursor range per column, then a parallel scatter. Chunks
    /// write in source-row order, so the output is identical to the serial
    /// counting sort bit for bit.
    pub fn transpose(&self) -> Csr {
        let _obs = autoac_obs::span("csr_transpose");
        let threads =
            crate::parallel::threads_for(self.nnz().saturating_mul(2)).min(self.n_rows.max(1));
        if threads <= 1 {
            return self.transpose_serial();
        }
        let ranges = crate::parallel::partition_rows(self.n_rows, threads);

        // Pass 1: column histogram of each row chunk.
        let chunk_counts: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .iter()
                .cloned()
                .map(|range| {
                    s.spawn(move || {
                        let mut counts = vec![0usize; self.n_cols];
                        for &c in &self.indices[self.indptr[range.start]..self.indptr[range.end]] {
                            counts[c as usize] += 1;
                        }
                        counts
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("transpose histogram worker")).collect()
        });

        // Serial scan: global indptr, plus each chunk's starting cursor per
        // column (chunks stack within a column in source-row order).
        let mut indptr = vec![0usize; self.n_cols + 1];
        let mut cursors = chunk_counts;
        let mut base = 0usize;
        for c in 0..self.n_cols {
            indptr[c] = base;
            for cursor in cursors.iter_mut() {
                let here = cursor[c];
                cursor[c] = base;
                base += here;
            }
        }
        indptr[self.n_cols] = base;
        debug_assert_eq!(base, self.nnz());

        // Pass 2: scatter. Each chunk owns the disjoint per-column slot
        // ranges computed above, so the raw-pointer writes never alias.
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        struct SendPtr<T>(*mut T);
        // SAFETY: the pointer targets a Vec that outlives every worker, and
        // pass 2 hands each thread disjoint per-column slot ranges, so
        // cross-thread writes never alias.
        unsafe impl<T> Send for SendPtr<T> {}
        impl<T> Clone for SendPtr<T> {
            fn clone(&self) -> Self {
                Self(self.0)
            }
        }
        impl<T> SendPtr<T> {
            /// # Safety
            /// `i` must be in bounds and not written by any other thread.
            unsafe fn write(&self, i: usize, v: T) {
                unsafe { *self.0.add(i) = v }
            }
        }
        let idx_ptr = SendPtr(indices.as_mut_ptr());
        let val_ptr = SendPtr(values.as_mut_ptr());
        std::thread::scope(|s| {
            for (range, mut cursor) in ranges.into_iter().zip(cursors) {
                let idx_ptr = idx_ptr.clone();
                let val_ptr = val_ptr.clone();
                s.spawn(move || {
                    for r in range {
                        for (c, v) in self.row(r) {
                            let slot = cursor[c as usize];
                            cursor[c as usize] += 1;
                            // SAFETY: `slot` lies in this chunk's private
                            // range of column `c`; ranges of different
                            // chunks/columns are disjoint and cover 0..nnz.
                            unsafe {
                                idx_ptr.write(slot, r as u32);
                                val_ptr.write(slot, v);
                            }
                        }
                    }
                });
            }
        });
        Csr { n_rows: self.n_cols, n_cols: self.n_rows, indptr, indices, values }
    }

    fn transpose_serial(&self) -> Csr {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.n_rows {
            for (c, v) in self.row(r) {
                let slot = cursor[c as usize];
                indices[slot] = r as u32;
                values[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr { n_rows: self.n_cols, n_cols: self.n_rows, indptr, indices, values }
    }

    /// Dense sparse-dense product `A · X` on raw matrices.
    ///
    /// Runs the register-blocked microkernel. Output rows are independent
    /// (`out[r] = Σ A[r,c] · X[c]`), so they are split across worker
    /// threads (see [`crate::parallel`]); each row accumulates its
    /// nonzeros in storage order, making the result bitwise equal to
    /// `Csr::matmul_dense_reference` at any thread count.
    pub fn matmul_dense(&self, x: &Matrix) -> Matrix {
        self.matmul_dense_with(x, microkernel::spmm_blocked)
    }

    /// [`Csr::matmul_dense`] on the scalar reference kernel: the bitwise
    /// oracle for the parity harness and `bench_kernels`.
    #[doc(hidden)]
    pub fn matmul_dense_reference(&self, x: &Matrix) -> Matrix {
        self.matmul_dense_with(x, microkernel::spmm_scalar)
    }

    fn matmul_dense_with(&self, x: &Matrix, kernel: microkernel::SpmmKernel) -> Matrix {
        assert_eq!(
            self.n_cols,
            x.rows(),
            "spmm: inner dimension mismatch ({} vs {})",
            self.n_cols,
            x.rows()
        );
        let _obs = autoac_obs::span("spmm");
        let cols = x.cols();
        autoac_obs::shape_record("spmm", [self.n_rows, self.n_cols, cols, self.nnz()]);
        let (mut out, zeroed) = Matrix::accum_scratch(self.n_rows, cols);
        let work = self.nnz().saturating_mul(cols);
        crate::parallel::for_each_row_chunk(out.data_mut(), cols, work, |first_row, chunk| {
            kernel(
                &self.indptr,
                &self.indices,
                &self.values,
                x.data(),
                cols,
                first_row,
                chunk,
                zeroed,
            );
        });
        out
    }

    /// Dense materialization (test helper; avoid for real graphs).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            for (c, v) in self.row(r) {
                m.set(r, c as usize, v);
            }
        }
        m
    }
}

/// Differentiable sparse-dense product `out = A · x`.
///
/// The sparse structure is constant; gradients flow into `x` only
/// (`dx = Aᵀ · g`). Pass the precomputed transpose — for symmetric operators
/// (e.g. symmetrically normalized adjacency) simply pass the same `Rc` twice.
pub fn spmm(a: &Rc<Csr>, a_t: &Rc<Csr>, x: &Tensor) -> Tensor {
    let _op = crate::chk::op_scope("spmm");
    debug_assert_eq!(a.n_rows(), a_t.n_cols(), "spmm: transpose shape mismatch");
    debug_assert_eq!(a.n_cols(), a_t.n_rows(), "spmm: transpose shape mismatch");
    let value = a.matmul_dense(&x.value());
    let xt = x.clone();
    let a_t = Rc::clone(a_t);
    Tensor::from_op(
        value,
        vec![x.clone()],
        Box::new(move |g| {
            xt.accum_grad_owned(a_t.matmul_dense(g));
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[0, 2, 0],
        //  [1, 0, 3],
        //  [0, 0, 0],
        //  [4, 5, 6]]
        Csr::from_coo(
            4,
            3,
            vec![(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0), (3, 0, 4.0), (3, 1, 5.0), (3, 2, 6.0)],
        )
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let c = Csr::from_coo(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.to_dense(), Matrix::from_rows(&[&[3.5, 0.0], &[0.0, 1.0]]));
    }

    #[test]
    fn row_iteration_sorted() {
        let c = sample();
        let row3: Vec<_> = c.row(3).collect();
        assert_eq!(row3, vec![(0, 4.0), (1, 5.0), (2, 6.0)]);
        assert_eq!(c.row_nnz(2), 0);
    }

    #[test]
    fn matmul_dense_matches_dense_product() {
        let c = sample();
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let got = c.matmul_dense(&x);
        let want = c.to_dense().matmul(&x);
        assert_eq!(got, want);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let c = sample();
        assert_eq!(c.transpose().to_dense(), c.to_dense().transpose());
    }

    #[test]
    fn transpose_involution() {
        let c = sample();
        assert_eq!(c.transpose().transpose(), c);
    }

    #[test]
    fn row_sums_values() {
        let c = sample();
        assert_eq!(c.row_sums(), vec![2.0, 4.0, 0.0, 15.0]);
    }

    #[test]
    fn eye_acts_as_identity() {
        let i = Csr::eye(3);
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(i.matmul_dense(&x), x);
    }

    #[test]
    fn spmm_gradient_is_transpose_product() {
        let a = Rc::new(sample());
        let at = Rc::new(a.transpose());
        let x = Tensor::param(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let out = spmm(&a, &at, &x);
        out.sum().backward();
        // d/dx sum(A x) = Aᵀ · 1
        let ones = Matrix::ones(4, 2);
        let want = at.matmul_dense(&ones);
        assert_eq!(x.grad().unwrap(), want);
    }
}
