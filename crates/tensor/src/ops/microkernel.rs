//! Register-blocked microkernels for the dense/sparse matmul family.
//!
//! Each kernel here exists in two variants sharing one contract:
//!
//! - `*_blocked` — register-blocked loops (MR×NR output tiles held in
//!   local `[f32; NR]` accumulators). These are the only kernels the
//!   public ops run: [`crate::Matrix::matmul`], `matmul_tn`, `matmul_nt`
//!   and [`crate::Csr::matmul_dense`].
//! - `*_scalar` — the original streaming loops, kept verbatim as the
//!   bitwise oracle. Only the doc-hidden `*_reference` twins of the ops
//!   run them, for the parity harness (`tests/kernel_parity.rs`) and
//!   `bench_kernels`.
//!
//! The blocked variants compute **the same floating-point operations in
//! the same order per output element** and are therefore bitwise equal to
//! the scalar ones. autoac-lint's `dispatch-parity-coverage` rule reads
//! the `*_scalar` / `*_blocked` fn names in this file and requires each to
//! be named in the parity harness.
//!
//! # Why blocking is bitwise-safe here
//!
//! Every output element of every kernel in this family is a sum
//! `Σ_p a_p · b_p` accumulated left to right in ascending `p` (for CSR, in
//! nonzero storage order). f32 addition is not associative, so the *order*
//! of those adds is the contract — but *where* the partial sum lives is
//! not: Rust lowers `f32` arithmetic to strict IEEE-754 single precision
//! (no FMA contraction, no x87 excess precision on any supported target),
//! so a partial sum round-trips through a register, the stack, or the
//! output buffer without changing a single bit. The blocked kernels
//! therefore reorganize only:
//!
//! - **which registers hold partial sums** (an NR-wide column panel of
//!   accumulators instead of read-modify-writing the output row through
//!   memory once per `p`), and
//! - **how many rows share one pass over `b`** (an MR-row tile reuses each
//!   loaded `b` lane for MR independent accumulator chains),
//!
//! while keeping, per output element, the exact scalar sequence: ascending
//! `p`, the same `a == 0.0` skip (dropping the skip would *not* be bitwise
//! neutral: `0.0 * -x` flips the sign of a `-0.0` partial sum and
//! `0.0 * ±inf` is NaN), and plain `mul` + `add` (never `mul_add`).
//!
//! The practical speedup comes from breaking the single latency-bound
//! dependency chain per element: MR×NR independent chains keep the FPU
//! pipeline full, and the panel accumulators eliminate one output-row load
//! and store per `p` iteration.
//!
//! # Chunk interface
//!
//! Kernels operate on a row-aligned output chunk handed out by
//! [`crate::parallel::for_each_row_chunk`] — `(first_row, chunk)` with
//! `chunk.len() == rows * n`. Row grouping into MR-tiles restarts at every
//! chunk boundary; since tiling only affects *sharing of loads*, never the
//! per-element add order, results are bitwise equal for any thread count,
//! matching the guarantee documented in [`crate::parallel`].
//!
//! `zeroed` mirrors [`crate::matrix::Matrix::accum_scratch`]: scalar
//! variants accumulate in place and must clear recycled rows first. Most
//! blocked variants overwrite every element exactly once from their
//! accumulators and ignore the flag; [`matmul_tn_blocked`] accumulates in
//! place (its partial sums round-trip through the output buffer, which is
//! bit-exact per the argument above) and clears the chunk itself when
//! handed unzeroed scratch.

/// Column-panel width: one panel of NR accumulators lives in registers.
pub(crate) const NR: usize = 8;

/// Row-tile height: MR output rows share each streamed `b` panel load.
pub(crate) const MR: usize = 4;

/// k-slab depth for [`matmul_blocked`]: bounds the `b` sub-panel working
/// set to `KC × NR` floats (8 KiB) so it stays L1-resident while every
/// row tile of the chunk streams through it.
pub(crate) const KC: usize = 256;

/// Wide-panel width for [`matmul_blocked`]'s main pass: 32 columns (four
/// 8-lane vectors) per row halves the per-flop branch and loop overhead
/// relative to the NR tile while still fitting the accumulators plus a
/// `b` panel in the register file at [`MR2`] rows.
pub(crate) const NRW: usize = 32;

/// Row-tile height for the wide pass.
pub(crate) const MR2: usize = 2;

/// `(a, b, k, n, first_row, chunk, zeroed)`: the [`matmul_scalar`] /
/// [`matmul_blocked`] signature.
pub(crate) type MatmulKernel = fn(&[f32], &[f32], usize, usize, usize, &mut [f32], bool);

/// `(a, b, k, m, n, first_row, chunk, zeroed)`: the [`matmul_tn_scalar`] /
/// [`matmul_tn_blocked`] signature.
pub(crate) type MatmulTnKernel = fn(&[f32], &[f32], usize, usize, usize, usize, &mut [f32], bool);

/// `(a, b, k, n, first_row, chunk)`: the [`matmul_nt_scalar`] /
/// [`matmul_nt_blocked`] signature.
pub(crate) type MatmulNtKernel = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);

/// `(indptr, indices, values, x, n, first_row, chunk, zeroed)`: the
/// [`spmm_scalar`] / [`spmm_blocked`] signature.
pub(crate) type SpmmKernel = fn(&[usize], &[u32], &[f32], &[f32], usize, usize, &mut [f32], bool);

// ---------------------------------------------------------------------
// matmul: C[m×n] = A[m×k] · B[k×n]
// ---------------------------------------------------------------------

/// Reference kernel for [`crate::Matrix::matmul`]: ikj loop order, inner
/// loop streaming contiguously over the `b` row and the output row.
pub(crate) fn matmul_scalar(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
    zeroed: bool,
) {
    for (i, out_row) in chunk.chunks_mut(n).enumerate() {
        if !zeroed {
            out_row.fill(0.0);
        }
        let row = first_row + i;
        let a_row = &a[row * k..(row + 1) * k];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Register-blocked [`crate::Matrix::matmul`] kernel: MR×NR output tiles,
/// ascending-`p` accumulation, bitwise equal to [`matmul_scalar`].
///
/// Column panels are the *outer* loop so one `b` panel (`k × NR` values,
/// strided but cache-resident) is reused by every row tile of the chunk
/// before moving on — the loop interchange that makes large-`k` shapes
/// win. Writing output panel-major instead of row-major touches the same
/// disjoint elements; per-element order is unaffected.
pub(crate) fn matmul_blocked(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
    _zeroed: bool,
) {
    let rows = if n == 0 { 0 } else { chunk.len() / n };
    if k == 0 {
        // No adds at all: match the scalar kernel's cleared output.
        chunk.fill(0.0);
        return;
    }
    let a = &a[first_row * k..(first_row + rows) * k];
    let mut j = 0;
    // Wide pass: MR2 × NRW tiles. Each `a` element loaded feeds 32
    // outputs and each `p` iteration costs two branches instead of the
    // NR tile's four, so this pass dominates whenever n ≥ 32.
    while j + NRW <= n {
        // k-blocking: each KC slab keeps its `b` sub-panel cache-resident
        // across every row tile of the chunk. Partial sums park in the
        // output between slabs and are reloaded bit-exactly; per element
        // the adds still run p = 0..k ascending.
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + KC).min(k);
            let mut i = 0;
            while i + MR2 <= rows {
                let a0 = &a[i * k..(i + 1) * k];
                let a1 = &a[(i + 1) * k..(i + 2) * k];
                let mut acc0 = [0.0f32; NRW];
                let mut acc1 = [0.0f32; NRW];
                if p0 > 0 {
                    acc0.copy_from_slice(&chunk[i * n + j..i * n + j + NRW]);
                    acc1.copy_from_slice(&chunk[(i + 1) * n + j..(i + 1) * n + j + NRW]);
                }
                for p in p0..p1 {
                    let bp = &b[p * n + j..p * n + j + NRW];
                    let (v0, v1) = (a0[p], a1[p]);
                    if v0 != 0.0 {
                        for l in 0..NRW {
                            acc0[l] += v0 * bp[l];
                        }
                    }
                    if v1 != 0.0 {
                        for l in 0..NRW {
                            acc1[l] += v1 * bp[l];
                        }
                    }
                }
                chunk[i * n + j..i * n + j + NRW].copy_from_slice(&acc0);
                chunk[(i + 1) * n + j..(i + 1) * n + j + NRW].copy_from_slice(&acc1);
                i += MR2;
            }
            // Remainder row, same per-element order.
            while i < rows {
                let a_row = &a[i * k..(i + 1) * k];
                let mut acc = [0.0f32; NRW];
                if p0 > 0 {
                    acc.copy_from_slice(&chunk[i * n + j..i * n + j + NRW]);
                }
                for p in p0..p1 {
                    let av = a_row[p];
                    if av == 0.0 {
                        continue;
                    }
                    let bp = &b[p * n + j..p * n + j + NRW];
                    for l in 0..NRW {
                        acc[l] += av * bp[l];
                    }
                }
                chunk[i * n + j..i * n + j + NRW].copy_from_slice(&acc);
                i += 1;
            }
            p0 = p1;
        }
        j += NRW;
    }
    // Narrow pass: NR-wide MR-row tiles cover the remaining columns.
    while j + NR <= n {
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + KC).min(k);
            let mut i = 0;
            while i + MR <= rows {
                let a0 = &a[i * k..(i + 1) * k];
                let a1 = &a[(i + 1) * k..(i + 2) * k];
                let a2 = &a[(i + 2) * k..(i + 3) * k];
                let a3 = &a[(i + 3) * k..(i + 4) * k];
                let mut acc0 = [0.0f32; NR];
                let mut acc1 = [0.0f32; NR];
                let mut acc2 = [0.0f32; NR];
                let mut acc3 = [0.0f32; NR];
                if p0 > 0 {
                    acc0.copy_from_slice(&chunk[i * n + j..i * n + j + NR]);
                    acc1.copy_from_slice(&chunk[(i + 1) * n + j..(i + 1) * n + j + NR]);
                    acc2.copy_from_slice(&chunk[(i + 2) * n + j..(i + 2) * n + j + NR]);
                    acc3.copy_from_slice(&chunk[(i + 3) * n + j..(i + 3) * n + j + NR]);
                }
                for p in p0..p1 {
                    let bp = &b[p * n + j..p * n + j + NR];
                    let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
                    if v0 != 0.0 {
                        for l in 0..NR {
                            acc0[l] += v0 * bp[l];
                        }
                    }
                    if v1 != 0.0 {
                        for l in 0..NR {
                            acc1[l] += v1 * bp[l];
                        }
                    }
                    if v2 != 0.0 {
                        for l in 0..NR {
                            acc2[l] += v2 * bp[l];
                        }
                    }
                    if v3 != 0.0 {
                        for l in 0..NR {
                            acc3[l] += v3 * bp[l];
                        }
                    }
                }
                chunk[i * n + j..i * n + j + NR].copy_from_slice(&acc0);
                chunk[(i + 1) * n + j..(i + 1) * n + j + NR].copy_from_slice(&acc1);
                chunk[(i + 2) * n + j..(i + 2) * n + j + NR].copy_from_slice(&acc2);
                chunk[(i + 3) * n + j..(i + 3) * n + j + NR].copy_from_slice(&acc3);
                i += MR;
            }
            // Remainder rows (< MR): single-row panels, same order.
            while i < rows {
                let a_row = &a[i * k..(i + 1) * k];
                let mut acc = [0.0f32; NR];
                if p0 > 0 {
                    acc.copy_from_slice(&chunk[i * n + j..i * n + j + NR]);
                }
                for p in p0..p1 {
                    let av = a_row[p];
                    if av == 0.0 {
                        continue;
                    }
                    let bp = &b[p * n + j..p * n + j + NR];
                    for l in 0..NR {
                        acc[l] += av * bp[l];
                    }
                }
                chunk[i * n + j..i * n + j + NR].copy_from_slice(&acc);
                i += 1;
            }
            p0 = p1;
        }
        j += NR;
    }
    if j < n {
        // Column tail (`n % NR` trailing columns): per-row partial
        // accumulator panels, identical add order.
        let t = n - j;
        for i in 0..rows {
            let a_row = &a[i * k..(i + 1) * k];
            let mut acc = [0.0f32; NR];
            for p in 0..k {
                let av = a_row[p];
                if av == 0.0 {
                    continue;
                }
                let bp = &b[p * n + j..p * n + j + t];
                for l in 0..t {
                    acc[l] += av * bp[l];
                }
            }
            chunk[i * n + j..i * n + j + t].copy_from_slice(&acc[..t]);
        }
    }
}

// ---------------------------------------------------------------------
// matmul_tn: C[m×n] = Aᵀ[m×k] · B[k×n], with A stored k×m
// ---------------------------------------------------------------------

/// Reference kernel for [`crate::Matrix::matmul_tn`]: ascending-`p`
/// accumulation with a strided `a` read (`a[p·m + i]`).
pub(crate) fn matmul_tn_scalar(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
    zeroed: bool,
) {
    for (i_off, out_row) in chunk.chunks_mut(n).enumerate() {
        if !zeroed {
            out_row.fill(0.0);
        }
        let i = first_row + i_off;
        for p in 0..k {
            let av = a[p * m + i];
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Loop-interchanged [`crate::Matrix::matmul_tn`] kernel. `a` is stored
/// k×m, so the chunk's slice of any stored row `p` — `a[p·m + first_row
/// ..]` — is *contiguous*: iterating `p` outermost streams `a` exactly
/// once in its natural layout (the scalar kernel's strided `a[p·m + i]`
/// walk is what made it slow at large `k`) and reads each `b` row once
/// total instead of once per output row. Output rows are accumulated in
/// place; each element still receives its adds in ascending-`p` order
/// with the same zero skip, and f32 partial sums round-trip through
/// memory bit-exactly, so this is bitwise equal to [`matmul_tn_scalar`].
pub(crate) fn matmul_tn_blocked(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
    zeroed: bool,
) {
    let rows = if n == 0 { 0 } else { chunk.len() / n };
    if !zeroed {
        chunk.fill(0.0);
    }
    for p in 0..k {
        let a_strip = &a[p * m + first_row..p * m + first_row + rows];
        let b_row = &b[p * n..(p + 1) * n];
        for (r, &av) in a_strip.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out = &mut chunk[r * n..(r + 1) * n];
            for (o, &bv) in out.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------
// matmul_nt: C[m×n] = A[m×k] · Bᵀ[k×n], with B stored n×k
// ---------------------------------------------------------------------

/// Reference kernel for [`crate::Matrix::matmul_nt`]: each output element
/// is an independent sequential dot product ([`crate::dot`]).
pub(crate) fn matmul_nt_scalar(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
) {
    for (i_off, out_row) in chunk.chunks_mut(n).enumerate() {
        let i = first_row + i_off;
        let a_row = &a[i * k..(i + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            *o = crate::matrix::dot(a_row, b_row);
        }
    }
}

/// Register-blocked [`crate::Matrix::matmul_nt`] kernel: MR adjacent
/// output columns (rows of the stored `b`) accumulate simultaneously,
/// sharing one stream over `a_row` while each dot keeps the scalar's
/// sequential `((0 + a₀b₀) + a₁b₁) + …` chain. Breaking the single
/// latency-bound chain into MR independent ones is the entire speedup.
/// Bitwise equal to [`matmul_nt_scalar`].
pub(crate) fn matmul_nt_blocked(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
) {
    for (i_off, out_row) in chunk.chunks_mut(n).enumerate() {
        let i = first_row + i_off;
        let a_row = &a[i * k..(i + 1) * k];
        let mut j = 0;
        while j + MR <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            // `dot` is `Iterator::sum`, whose f32 identity is -0.0 (the
            // true additive identity: x + -0.0 == x bitwise for every x,
            // while +0.0 + -0.0 == +0.0). Start the chains the same way.
            let (mut s0, mut s1, mut s2, mut s3) = (-0.0f32, -0.0f32, -0.0f32, -0.0f32);
            for p in 0..k {
                let av = a_row[p];
                s0 += av * b0[p];
                s1 += av * b1[p];
                s2 += av * b2[p];
                s3 += av * b3[p];
            }
            out_row[j] = s0;
            out_row[j + 1] = s1;
            out_row[j + 2] = s2;
            out_row[j + 3] = s3;
            j += MR;
        }
        for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
            let b_row = &b[jj * k..(jj + 1) * k];
            *o = crate::matrix::dot(a_row, b_row);
        }
    }
}

// ---------------------------------------------------------------------
// spmm: C[m×n] = A_csr[m×k] · X[k×n]
// ---------------------------------------------------------------------

/// Reference kernel for [`crate::Csr::matmul_dense`]: per output row,
/// accumulate each stored nonzero (CSR order) into the full output row.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spmm_scalar(
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
    zeroed: bool,
) {
    for (i, out_row) in chunk.chunks_mut(n).enumerate() {
        if !zeroed {
            out_row.fill(0.0);
        }
        let r = first_row + i;
        for (c, v) in indices[indptr[r]..indptr[r + 1]]
            .iter()
            .zip(&values[indptr[r]..indptr[r + 1]])
        {
            let x_row = &x[*c as usize * n..(*c as usize + 1) * n];
            for (o, &xv) in out_row.iter_mut().zip(x_row) {
                *o += v * xv;
            }
        }
    }
}

/// Register-blocked [`crate::Csr::matmul_dense`] kernel: NR-column panels
/// accumulate a row's nonzeros (in CSR storage order) in registers instead
/// of read-modify-writing the output row once per nonzero. Rows are not
/// tiled — CSR rows have ragged nonzero counts. Bitwise equal to
/// [`spmm_scalar`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn spmm_blocked(
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
    n: usize,
    first_row: usize,
    chunk: &mut [f32],
    _zeroed: bool,
) {
    for (i, out_row) in chunk.chunks_mut(n).enumerate() {
        let r = first_row + i;
        let cols = &indices[indptr[r]..indptr[r + 1]];
        let vals = &values[indptr[r]..indptr[r + 1]];
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [0.0f32; NR];
            for (c, &v) in cols.iter().zip(vals) {
                let xp = &x[*c as usize * n + j..*c as usize * n + j + NR];
                for l in 0..NR {
                    acc[l] += v * xp[l];
                }
            }
            out_row[j..j + NR].copy_from_slice(&acc);
            j += NR;
        }
        if j < n {
            let t = n - j;
            let mut acc = [0.0f32; NR];
            for (c, &v) in cols.iter().zip(vals) {
                let xp = &x[*c as usize * n + j..*c as usize * n + j + t];
                for l in 0..t {
                    acc[l] += v * xp[l];
                }
            }
            out_row[j..j + t].copy_from_slice(&acc[..t]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bitwise(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: len");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    /// Deterministic pseudo-random fill with exact zeros sprinkled in to
    /// exercise the zero-skip path.
    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = ((s >> 33) as u32 % 2000) as f32 / 500.0 - 2.0;
                if (s >> 17) % 7 == 0 {
                    0.0
                } else {
                    r
                }
            })
            .collect()
    }

    #[test]
    fn blocked_matmul_bitwise_matches_scalar_on_awkward_shapes() {
        // (3, 300, 10) and (2, 600, 8) cross the KC k-slab boundary so the
        // park-and-reload path is exercised.
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 3, 8),
            (5, 7, 13),
            (9, 16, 17),
            (3, 0, 5),
            (0, 4, 4),
            (13, 5, 1),
            (3, 300, 10),
            (2, 600, 8),
            (5, 9, 33),
            (6, 300, 65),
            (3, 17, 32),
        ] {
            let a = fill(m * k, 1 + (m * 31 + k * 7 + n) as u64);
            let b = fill(k * n, 2 + (m + k + n) as u64);
            let mut c_s = vec![9.0f32; m * n];
            let mut c_b = vec![7.0f32; m * n];
            matmul_scalar(&a, &b, k, n, 0, &mut c_s, false);
            matmul_blocked(&a, &b, k, n, 0, &mut c_b, false);
            assert_bitwise(&c_s, &c_b, &format!("matmul {m}x{k}x{n}"));
        }
    }

    #[test]
    fn blocked_matmul_tn_bitwise_matches_scalar() {
        for &(k, m, n) in &[(3, 4, 8), (7, 5, 13), (16, 9, 17), (0, 3, 5), (5, 13, 1), (4, 1, 9)] {
            let a = fill(k * m, 3 + (m * 17 + k + n) as u64);
            let b = fill(k * n, 4 + (m + k * 3 + n) as u64);
            let mut c_s = vec![9.0f32; m * n];
            let mut c_b = vec![7.0f32; m * n];
            matmul_tn_scalar(&a, &b, k, m, n, 0, &mut c_s, false);
            matmul_tn_blocked(&a, &b, k, m, n, 0, &mut c_b, false);
            assert_bitwise(&c_s, &c_b, &format!("matmul_tn {k}x{m}x{n}"));
        }
    }

    #[test]
    fn blocked_matmul_nt_bitwise_matches_scalar() {
        for &(m, k, n) in &[(4, 3, 8), (5, 7, 13), (9, 16, 3), (3, 0, 5), (1, 5, 1)] {
            let a = fill(m * k, 5 + (m + k + n * 11) as u64);
            let b = fill(n * k, 6 + (m * 5 + k + n) as u64);
            let mut c_s = vec![9.0f32; m * n];
            let mut c_b = vec![7.0f32; m * n];
            matmul_nt_scalar(&a, &b, k, n, 0, &mut c_s);
            matmul_nt_blocked(&a, &b, k, n, 0, &mut c_b);
            assert_bitwise(&c_s, &c_b, &format!("matmul_nt {m}x{k}x{n}"));
        }
    }

    #[test]
    fn blocked_kernels_ignore_garbage_scratch() {
        // Blocked variants must fully overwrite the chunk even when handed
        // unzeroed recycled scratch (zeroed = false with garbage contents).
        let (m, k, n) = (6, 5, 11);
        let a = fill(m * k, 42);
        let b = fill(k * n, 43);
        let mut clean = vec![0.0f32; m * n];
        let mut dirty = vec![f32::NAN; m * n];
        matmul_blocked(&a, &b, k, n, 0, &mut clean, true);
        matmul_blocked(&a, &b, k, n, 0, &mut dirty, false);
        assert_bitwise(&clean, &dirty, "garbage scratch");

        // matmul_tn_blocked accumulates in place, so it must clear the
        // chunk itself when the scratch arrives unzeroed.
        let at = fill(k * m, 44);
        let mut clean_tn = vec![0.0f32; m * n];
        let mut dirty_tn = vec![f32::NAN; m * n];
        matmul_tn_blocked(&at, &b, k, m, n, 0, &mut clean_tn, true);
        matmul_tn_blocked(&at, &b, k, m, n, 0, &mut dirty_tn, false);
        assert_bitwise(&clean_tn, &dirty_tn, "garbage scratch tn");
    }

    #[test]
    fn chunked_blocked_matmul_matches_unchunked() {
        // Tiling restarts at chunk boundaries; the result must not care.
        let (m, k, n) = (11, 6, 9);
        let a = fill(m * k, 77);
        let b = fill(k * n, 78);
        let mut whole = vec![0.0f32; m * n];
        matmul_blocked(&a, &b, k, n, 0, &mut whole, true);
        for split in [1, 3, 5, 10] {
            let mut parts = vec![0.0f32; m * n];
            let (lo, hi) = parts.split_at_mut(split * n);
            matmul_blocked(&a, &b, k, n, 0, lo, true);
            matmul_blocked(&a, &b, k, n, split, hi, true);
            assert_bitwise(&whole, &parts, &format!("split at {split}"));
        }
    }
}
