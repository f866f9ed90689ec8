//! Dense row-major `f32` matrix with the kernels needed by the GNN stack.
//!
//! This is deliberately a 2-D-only type: every quantity in the AutoAC
//! pipeline (node-feature blocks, weight matrices, per-edge feature blocks,
//! completion parameters) is naturally a matrix, and vectors are represented
//! as `(n, 1)` or `(1, n)` matrices. Keeping a single concrete layout keeps
//! the kernels simple and cache-friendly.
//!
//! Storage lives in a [`crate::pool::PoolVec`]: buffers come from (and
//! return to) a size-bucketed thread-local free list, so the per-iteration
//! graph rebuild recycles memory instead of hitting the allocator. Kernels
//! that fully overwrite their output use [`Matrix::scratch`] — recycled
//! memory with stale contents — which is only sound because every element is
//! written before the matrix escapes; kernels that accumulate start from
//! [`Matrix::zeros`]. Elementwise kernels run through
//! [`crate::parallel::for_each_row_chunk`] with the same work threshold and
//! bitwise-identical chunking guarantees as `matmul`.

use std::fmt;

use crate::ops::microkernel;
use crate::pool::PoolVec;

/// Dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: PoolVec,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix with **unspecified contents** (recycled memory).
    ///
    /// Internal building block for kernels that overwrite every element
    /// before the matrix is visible anywhere else; that full overwrite is
    /// what keeps results bitwise identical with the pool on or off.
    #[inline]
    pub(crate) fn scratch(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: PoolVec::scratch(rows * cols) }
    }

    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: PoolVec::zeroed(rows * cols) }
    }

    /// A matrix for accumulating kernels: either already zeroed (second
    /// element `true`) or unspecified, in which case the kernel must clear
    /// every output row before accumulating into it. See
    /// [`PoolVec::accum_scratch`] for why recycled buffers defer the clear
    /// to the kernel.
    #[inline]
    pub(crate) fn accum_scratch(rows: usize, cols: usize) -> (Self, bool) {
        let (data, zeroed) = PoolVec::accum_scratch(rows * cols);
        (Self { rows, cols, data }, zeroed)
    }

    /// Creates a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: PoolVec::filled(rows * cols, value) }
    }

    /// Creates a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data: PoolVec::from_vec(data) }
    }

    /// Builds a matrix by copying a row-major slice into **pooled** storage.
    /// Hot-path code must prefer this over [`Matrix::from_vec`]: an adopted
    /// `Vec` is almost never bucket-shaped, so it escapes the recycler and
    /// pays a fresh allocation every iteration (`autoac-lint` flags such
    /// sites).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_slice: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        let mut m = Self::scratch(rows, cols);
        m.data.copy_from_slice(data);
        m
    }

    /// Builds a matrix from nested row slices (test helper).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data: PoolVec::from_vec(data) }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the underlying buffer (which escapes
    /// the pool).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        // analyze:allow(panic, hot-path accessor; bounds are the documented caller contract enforced by the debug_assert)
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        // analyze:allow(panic, hot-path accessor; bounds are the documented caller contract enforced by the debug_assert)
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    // ---------------------------------------------------------------------
    // Elementwise arithmetic
    //
    // The whole family funnels through two scratch-backed helpers that split
    // the output across worker threads exactly like `matmul` does: same
    // `MIN_PARALLEL_WORK` threshold, same row-aligned chunking, each element
    // computed by the identical scalar expression — so results are bitwise
    // equal for any thread count and for pool on/off.
    // ---------------------------------------------------------------------

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }

    /// Shared kernel for the binary elementwise family (shape-checked).
    fn elementwise_binary(&self, other: &Matrix, op: &str, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        self.assert_same_shape(other, op);
        let mut out = Matrix::scratch(self.rows, self.cols);
        let width = self.cols.max(1);
        let (a, b): (&[f32], &[f32]) = (&self.data, &other.data);
        crate::parallel::for_each_row_chunk(&mut out.data, width, a.len(), |first, chunk| {
            let off = first * width;
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = f(a[off + i], b[off + i]);
            }
        });
        out
    }

    /// Shared kernel for the unary elementwise family.
    fn elementwise_unary(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = Matrix::scratch(self.rows, self.cols);
        let width = self.cols.max(1);
        let a: &[f32] = &self.data;
        crate::parallel::for_each_row_chunk(&mut out.data, width, a.len(), |first, chunk| {
            let off = first * width;
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = f(a[off + i]);
            }
        });
        out
    }

    /// Shared kernel for in-place binary updates (shape-checked).
    fn zip_apply_impl(&mut self, other: &Matrix, op: &str, f: impl Fn(f32, f32) -> f32 + Sync) {
        self.assert_same_shape(other, op);
        let width = self.cols.max(1);
        let b: &[f32] = &other.data;
        let work = b.len();
        crate::parallel::for_each_row_chunk(&mut self.data, width, work, |first, chunk| {
            let off = first * width;
            for (i, a) in chunk.iter_mut().enumerate() {
                *a = f(*a, b[off + i]);
            }
        });
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.elementwise_binary(other, "add", |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.elementwise_binary(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        self.elementwise_binary(other, "mul", |a, b| a * b)
    }

    /// Elementwise division.
    pub fn div(&self, other: &Matrix) -> Matrix {
        self.elementwise_binary(other, "div", |a, b| a / b)
    }

    /// Elementwise combine of two same-shape matrices.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        self.elementwise_binary(other, "zip_map", f)
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f32) -> Matrix {
        self.elementwise_unary(|a| a * s)
    }

    /// Applies `f` to every element, producing a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        self.elementwise_unary(f)
    }

    /// In-place elementwise accumulation: `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.zip_apply_impl(other, "add_assign", |a, b| a + b);
    }

    /// In-place scaled accumulation: `self += scale * other` (axpy).
    pub fn add_scaled_assign(&mut self, other: &Matrix, scale: f32) {
        self.zip_apply_impl(other, "add_scaled_assign", |a, b| a + scale * b);
    }

    /// In-place elementwise combine: `self[i] = f(self[i], other[i])`.
    pub fn zip_apply(&mut self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) {
        self.zip_apply_impl(other, "zip_apply", f);
    }

    /// In-place scalar multiple.
    pub fn scale_assign(&mut self, s: f32) {
        self.map_assign(|a| a * s);
    }

    /// Applies `f` to every element in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let width = self.cols.max(1);
        let work = self.data.len();
        crate::parallel::for_each_row_chunk(&mut self.data, width, work, |_, chunk| {
            for a in chunk.iter_mut() {
                *a = f(*a);
            }
        });
    }

    // ---------------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------------

    /// Matrix product `self * other`.
    ///
    /// The single hottest kernel in the whole stack. Runs the
    /// register-blocked microkernel (see `ops/microkernel.rs`); output rows
    /// are independent, so they are split across worker threads (see
    /// [`crate::parallel`]). The kernel keeps the scalar ikj loop's
    /// per-element accumulation order, so the result is bitwise equal to
    /// `Matrix::matmul_reference` at any thread count.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_with(other, microkernel::matmul_blocked)
    }

    /// [`Matrix::matmul`] on the scalar reference kernel: the bitwise
    /// oracle for the parity harness and `bench_kernels`.
    #[doc(hidden)]
    pub fn matmul_reference(&self, other: &Matrix) -> Matrix {
        self.matmul_with(other, microkernel::matmul_scalar)
    }

    fn matmul_with(&self, other: &Matrix, kernel: microkernel::MatmulKernel) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimension mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let _obs = autoac_obs::span("matmul");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        autoac_obs::shape_record("matmul", [m, k, n, 0]);
        let (mut out, zeroed) = Matrix::accum_scratch(m, n);
        let work = m.saturating_mul(k).saturating_mul(n);
        crate::parallel::for_each_row_chunk(&mut out.data, n, work, |first_row, chunk| {
            kernel(&self.data, &other.data, k, n, first_row, chunk, zeroed);
        });
        out
    }

    /// `selfᵀ * other` without materializing the transpose.
    ///
    /// Hot in backward passes (`dW = Xᵀ·dY`). Parallel over output rows;
    /// every output element accumulates its `p`-terms in ascending order —
    /// the same order as the serial scalar kernel — so results are bitwise
    /// equal to `Matrix::matmul_tn_reference` at any thread count.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        self.matmul_tn_with(other, microkernel::matmul_tn_blocked)
    }

    /// [`Matrix::matmul_tn`] on the scalar reference kernel: the bitwise
    /// oracle for the parity harness and `bench_kernels`.
    #[doc(hidden)]
    pub fn matmul_tn_reference(&self, other: &Matrix) -> Matrix {
        self.matmul_tn_with(other, microkernel::matmul_tn_scalar)
    }

    fn matmul_tn_with(&self, other: &Matrix, kernel: microkernel::MatmulTnKernel) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: leading dimension mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let _obs = autoac_obs::span("matmul_tn");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        autoac_obs::shape_record("matmul_tn", [m, k, n, 0]);
        let (mut out, zeroed) = Matrix::accum_scratch(m, n);
        let work = k.saturating_mul(m).saturating_mul(n);
        crate::parallel::for_each_row_chunk(&mut out.data, n, work, |first_row, chunk| {
            kernel(&self.data, &other.data, k, m, n, first_row, chunk, zeroed);
        });
        out
    }

    /// `self * otherᵀ` without materializing the transpose.
    ///
    /// Hot in backward passes (`dX = dY·Wᵀ`). Output rows are independent
    /// dot products, split across worker threads; the blocked kernel keeps
    /// each dot's sequential accumulation order, so results are bitwise
    /// equal to `Matrix::matmul_nt_reference` at any thread count.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        self.matmul_nt_with(other, microkernel::matmul_nt_blocked)
    }

    /// [`Matrix::matmul_nt`] on the scalar reference kernel: the bitwise
    /// oracle for the parity harness and `bench_kernels`.
    #[doc(hidden)]
    pub fn matmul_nt_reference(&self, other: &Matrix) -> Matrix {
        self.matmul_nt_with(other, microkernel::matmul_nt_scalar)
    }

    fn matmul_nt_with(&self, other: &Matrix, kernel: microkernel::MatmulNtKernel) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: trailing dimension mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let _obs = autoac_obs::span("matmul_nt");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        autoac_obs::shape_record("matmul_nt", [m, k, n, 0]);
        let mut out = Matrix::scratch(m, n);
        let work = m.saturating_mul(k).saturating_mul(n);
        crate::parallel::for_each_row_chunk(&mut out.data, n, work, |first_row, chunk| {
            kernel(&self.data, &other.data, k, n, first_row, chunk);
        });
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::scratch(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    // ---------------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------------

    /// Sum over all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean over all elements (0 for empty matrices).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Row sums as an `(rows, 1)` matrix.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::scratch(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Column sums as a `(1, cols)` matrix.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Maximum element (NaN-ignoring; `-inf` for empty matrices).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element in row `r`.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Squared Frobenius norm.
    pub fn frob_sq(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum()
    }

    /// Frobenius norm.
    pub fn frob(&self) -> f32 {
        self.frob_sq().sqrt()
    }

    // ---------------------------------------------------------------------
    // Row indexing kernels (the backbone of message passing)
    // ---------------------------------------------------------------------

    /// Gathers rows by index: `out[i] = self[idx[i]]`.
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::scratch(idx.len(), self.cols);
        for (i, &src) in idx.iter().enumerate() {
            let src = src as usize;
            debug_assert!(src < self.rows, "gather_rows: index {src} out of bounds");
            out.row_mut(i).copy_from_slice(self.row(src));
        }
        out
    }

    /// Scatter-adds rows by index into a fresh `(num_out, cols)` matrix:
    /// `out[idx[i]] += self[i]`.
    pub fn scatter_add_rows(&self, idx: &[u32], num_out: usize) -> Matrix {
        assert_eq!(idx.len(), self.rows, "scatter_add_rows: index length mismatch");
        let mut out = Matrix::zeros(num_out, self.cols);
        for (i, &dst) in idx.iter().enumerate() {
            let dst = dst as usize;
            debug_assert!(dst < num_out, "scatter_add_rows: index {dst} out of bounds");
            let src = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[dst * self.cols..(dst + 1) * self.cols];
            for (o, &s) in out_row.iter_mut().zip(src) {
                *o += s;
            }
        }
        out
    }

    /// Copies selected rows into a new matrix (clone of `gather_rows` for
    /// `usize` indices, used by dataset splits).
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::scratch(idx.len(), self.cols);
        for (i, &src) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(src));
        }
        out
    }

    /// Horizontally concatenates matrices with equal row counts.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols: row count mismatch");
        }
        let mut out = Matrix::scratch(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            let out_row = &mut out.data[r * cols..(r + 1) * cols];
            for p in parts {
                out_row[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// Vertically concatenates matrices with equal column counts.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows: column count mismatch");
        }
        let mut out = Matrix::scratch(rows, cols);
        let mut off = 0;
        for p in parts {
            out.data[off..off + p.data.len()].copy_from_slice(&p.data);
            off += p.data.len();
        }
        out
    }

    /// Extracts the column block `[start, start+len)`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.cols, "slice_cols: out of bounds");
        let mut out = Matrix::scratch(self.rows, len);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..start + len]);
        }
        out
    }

    /// Adds a `(1, cols)` row vector to every row.
    pub fn add_row_vec(&self, v: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_vec_assign(v);
        out
    }

    /// In-place broadcast add of a `(1, cols)` row vector to every row.
    pub fn add_row_vec_assign(&mut self, v: &Matrix) {
        assert_eq!(v.rows, 1, "add_row_vec: expected a row vector");
        assert_eq!(v.cols, self.cols, "add_row_vec: width mismatch");
        let width = self.cols.max(1);
        let b: &[f32] = &v.data;
        let work = self.data.len();
        crate::parallel::for_each_row_chunk(&mut self.data, width, work, |_, chunk| {
            for row in chunk.chunks_mut(width) {
                for (o, &bv) in row.iter_mut().zip(b) {
                    *o += bv;
                }
            }
        });
    }

    /// Multiplies each row by the matching entry of a `(rows, 1)` column
    /// vector.
    pub fn mul_col_vec(&self, v: &Matrix) -> Matrix {
        assert_eq!(v.cols, 1, "mul_col_vec: expected a column vector");
        assert_eq!(v.rows, self.rows, "mul_col_vec: height mismatch");
        let mut out = Matrix::scratch(self.rows, self.cols);
        let width = self.cols.max(1);
        let (a, s): (&[f32], &[f32]) = (&self.data, &v.data);
        crate::parallel::for_each_row_chunk(&mut out.data, width, a.len(), |first, chunk| {
            for (i, row) in chunk.chunks_mut(width).enumerate() {
                let r = first + i;
                let sv = s[r];
                for (o, &av) in row.iter_mut().zip(&a[r * width..(r + 1) * width]) {
                    *o = av * sv;
                }
            }
        });
        out
    }

    /// Per-row dot product of two same-shape matrices, as `(rows, 1)`.
    pub fn rowwise_dot(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "rowwise_dot");
        let mut out = Matrix::scratch(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = dot(self.row(r), other.row(r));
        }
        out
    }

    // ---------------------------------------------------------------------
    // Row-softmax family (numerically stabilized)
    // ---------------------------------------------------------------------

    /// Row-wise softmax: one fused max/exp-sum/normalize sweep per row, one
    /// output allocation, rows split across worker threads. Each row runs
    /// the same scalar sequence as [`softmax_in_place`], so large logits
    /// (±1e4) stay finite and results are bitwise equal at any thread count.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = Matrix::scratch(self.rows, self.cols);
        let width = self.cols.max(1);
        let a: &[f32] = &self.data;
        crate::parallel::for_each_row_chunk(&mut out.data, width, a.len(), |first, chunk| {
            for (i, out_row) in chunk.chunks_mut(width).enumerate() {
                let r = first + i;
                let src = &a[r * width..(r + 1) * width];
                let mx = src.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0;
                for (o, &v) in out_row.iter_mut().zip(src) {
                    *o = (v - mx).exp();
                    sum += *o;
                }
                if sum > 0.0 {
                    for o in out_row.iter_mut() {
                        *o /= sum;
                    }
                }
            }
        });
        out
    }

    /// Row-wise log-softmax (same fused single-allocation layout as
    /// [`Matrix::softmax_rows`], with the log-sum-exp shifted by the row
    /// max).
    pub fn log_softmax_rows(&self) -> Matrix {
        let mut out = Matrix::scratch(self.rows, self.cols);
        let width = self.cols.max(1);
        let a: &[f32] = &self.data;
        crate::parallel::for_each_row_chunk(&mut out.data, width, a.len(), |first, chunk| {
            for (i, out_row) in chunk.chunks_mut(width).enumerate() {
                let r = first + i;
                let src = &a[r * width..(r + 1) * width];
                let mx = src.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let lse = src.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln() + mx;
                for (o, &v) in out_row.iter_mut().zip(src) {
                    *o = v - lse;
                }
            }
        });
        out
    }

    /// Checks that every element is finite; returns the first offending
    /// coordinate otherwise.
    pub fn check_finite(&self) -> Result<(), (usize, usize, f32)> {
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.get(r, c);
                if !v.is_finite() {
                    return Err((r, c, v));
                }
            }
        }
        Ok(())
    }
}

/// Numerically stable in-place softmax over a slice.
pub fn softmax_in_place(row: &mut [f32]) {
    let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - mx).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let m = Matrix::from_vec(3, 3, (0..9).map(|i| i as f32).collect());
        let i = Matrix::eye(3);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-1.0, 2.0]]);
        let direct = a.transpose().matmul(&b);
        assert_eq!(a.matmul_tn(&b), direct);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, 2.0], &[-1.0, 2.0, 0.0]]);
        let direct = a.matmul(&b.transpose());
        assert_eq!(a.matmul_nt(&b), direct);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[6.0, 8.0], &[10.0, 12.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[4.0, 4.0], &[4.0, 4.0]]));
        assert_eq!(a.mul(&b), Matrix::from_rows(&[&[5.0, 12.0], &[21.0, 32.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0], &[6.0, 8.0]]));
        assert_eq!(
            b.div(&a),
            Matrix::from_rows(&[&[5.0, 3.0], &[7.0 / 3.0, 2.0]])
        );
    }

    #[test]
    fn in_place_family_matches_out_of_place() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c, a.add(&b));
        let mut c = a.clone();
        c.add_scaled_assign(&b, 0.5);
        assert_eq!(c, a.add(&b.scale(0.5)));
        let mut c = a.clone();
        c.zip_apply(&b, |x, y| x * y);
        assert_eq!(c, a.mul(&b));
        let mut c = a.clone();
        c.add_row_vec_assign(&Matrix::from_rows(&[&[10.0, 20.0]]));
        assert_eq!(c, a.add_row_vec(&Matrix::from_rows(&[&[10.0, 20.0]])));
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.sum_rows(), Matrix::from_rows(&[&[3.0], &[7.0]]));
        assert_eq!(m.sum_cols(), Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.argmax_row(0), 1);
        assert!((m.frob() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn gather_and_scatter_are_adjoint() {
        // <gather(X, idx), Y> == <X, scatter(Y, idx)> — the adjoint identity
        // that autograd relies on.
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let idx = vec![2u32, 0, 2, 1];
        let y = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.5], &[0.0, 1.0], &[3.0, 3.0]]);
        let lhs = x.gather_rows(&idx).mul(&y).sum();
        let rhs = x.mul(&y.scatter_add_rows(&idx, 3)).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let src = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let out = src.scatter_add_rows(&[1, 1, 0], 3);
        assert_eq!(out, Matrix::from_rows(&[&[4.0], &[3.0], &[0.0]]));
    }

    #[test]
    fn concat_cols_layout() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c, Matrix::from_rows(&[&[1.0, 3.0, 4.0], &[2.0, 5.0, 6.0]]));
    }

    #[test]
    fn concat_rows_layout() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn slice_cols_extracts_block() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.slice_cols(1, 2), Matrix::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]]));
    }

    #[test]
    fn broadcast_helpers() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bias = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(m.add_row_vec(&bias), Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
        let col = Matrix::from_rows(&[&[2.0], &[0.5]]);
        assert_eq!(m.mul_col_vec(&col), Matrix::from_rows(&[&[2.0, 4.0], &[1.5, 2.0]]));
    }

    #[test]
    fn softmax_rows_normalizes() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
        // Large inputs must not overflow thanks to the max-shift.
        assert!(s.check_finite().is_ok());
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_matches_softmax_in_place_bitwise() {
        let m = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[-3.0, 0.0, 7.5]]);
        let fused = m.softmax_rows();
        let mut reference = m.clone();
        for r in 0..reference.rows() {
            softmax_in_place(reference.row_mut(r));
        }
        for (a, b) in fused.data().iter().zip(reference.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let m = Matrix::from_rows(&[&[0.5, -1.0, 2.0]]);
        let a = m.log_softmax_rows();
        let b = m.softmax_rows().map(f32::ln);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn rowwise_dot_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.rowwise_dot(&b), Matrix::from_rows(&[&[17.0], &[53.0]]));
    }

    #[test]
    fn check_finite_reports_nan() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 0, f32::NAN);
        assert_eq!(m.check_finite().map_err(|(r, c, _)| (r, c)), Err((1, 0)));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn clone_is_deep() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut b = a.clone();
        assert_ne!(a.data().as_ptr(), b.data().as_ptr());
        b.set(0, 0, 9.0);
        assert_eq!(a.get(0, 0), 1.0);
    }

    // Every member of the elementwise family must reject shape mismatches
    // the same way — an unconditional panic naming the op — so a silent
    // broadcast bug can never slip in through one of them. (Same-element-
    // count mismatches like 2×3 vs 3×2 are the treacherous case: the flat
    // data lengths agree, only the shape check catches them.)
    macro_rules! shape_mismatch_panics {
        ($($name:ident: |$a:ident, $b:ident| $call:expr;)*) => {$(
            #[test]
            #[should_panic(expected = "shape mismatch")]
            fn $name() {
                #[allow(unused_mut)]
                let mut $a = Matrix::zeros(2, 3);
                let $b = Matrix::zeros(3, 2);
                let _ = $call;
            }
        )*};
    }

    shape_mismatch_panics! {
        add_rejects_shape_mismatch: |a, b| a.add(&b);
        sub_rejects_shape_mismatch: |a, b| a.sub(&b);
        mul_rejects_shape_mismatch: |a, b| a.mul(&b);
        div_rejects_shape_mismatch: |a, b| a.div(&b);
        zip_map_rejects_shape_mismatch: |a, b| a.zip_map(&b, |x, y| x + y);
        add_assign_rejects_shape_mismatch: |a, b| a.add_assign(&b);
        add_scaled_assign_rejects_shape_mismatch: |a, b| a.add_scaled_assign(&b, 0.5);
        zip_apply_rejects_shape_mismatch: |a, b| a.zip_apply(&b, |x, y| x + y);
        rowwise_dot_rejects_shape_mismatch: |a, b| a.rowwise_dot(&b);
    }

    #[test]
    fn div_matches_elementwise_division() {
        let a = Matrix::from_rows(&[&[6.0, 9.0], &[-4.0, 1.0]]);
        let b = Matrix::from_rows(&[&[3.0, 3.0], &[2.0, 4.0]]);
        assert_eq!(a.div(&b), Matrix::from_rows(&[&[2.0, 3.0], &[-2.0, 0.25]]));
    }
}
