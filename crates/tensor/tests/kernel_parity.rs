//! Property-style parity harness for the matmul-family kernels.
//!
//! Every public op runs its register-blocked microkernel; its doc-hidden
//! `*_reference` twin runs the scalar kernel through the same entry code.
//! The contract under test: for *any* shape and *any* thread count, each
//! op is bitwise equal to its serial reference. Shapes are drawn from an
//! adversarial generator biased toward the places kernels break —
//! tile-width boundaries (NR = 8, NRW = 32, MR edges), the KC = 256
//! k-slab seam, single-row/column outputs — and the data generator
//! sprinkles exact `0.0` and `-0.0` to exercise the zero-skip path whose
//! removal would *not* be bitwise neutral.
//!
//! Kernel coverage (checked by the `dispatch-parity-coverage` lint):
//! matmul_scalar vs matmul_blocked, matmul_tn_scalar vs matmul_tn_blocked,
//! matmul_nt_scalar vs matmul_nt_blocked, and spmm_scalar vs spmm_blocked,
//! each at 1, 2, and 8 threads.

use autoac_tensor::parallel::with_threads;
use autoac_tensor::{Csr, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Cases per op. Each case runs the op and its reference at 3 thread
/// counts.
const CASES: usize = 25;

/// Dimensions clustered on power-of-two tile boundaries ±1 — the places
/// where panel main loops hand off to tail code — plus a tail of larger
/// sizes that cross the KC k-slab seam when drawn for `k`.
fn adversarial_dim(rng: &mut StdRng) -> usize {
    const BOUNDARY: [usize; 18] = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96];
    match rng.gen_range(0..10) {
        0..=6 => BOUNDARY[rng.gen_range(0..BOUNDARY.len())],
        7 | 8 => rng.gen_range(1..128),
        _ => rng.gen_range(200..300),
    }
}

/// Random values with exact `0.0` (zero-skip path) and `-0.0` (whose sign
/// an unskipped `0.0 * x` add could flip) sprinkled in.
fn adversarial_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| match rng.gen_range(0..13) {
                0 | 1 => 0.0,
                2 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect(),
    )
}

fn adversarial_csr(rng: &mut StdRng, rows: usize, cols: usize) -> Csr {
    let nnz = rng.gen_range(0..rows * cols.min(16) + 1);
    Csr::from_coo(
        rows,
        cols,
        (0..nnz).map(|_| {
            (
                rng.gen_range(0..rows) as u32,
                rng.gen_range(0..cols) as u32,
                rng.gen_range(-1.0f32..1.0),
            )
        }),
    )
}

fn assert_bitwise(want: &Matrix, got: &Matrix, what: &str) {
    assert_eq!(want.shape(), got.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in want.data().iter().zip(got.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs bitwise: {x} vs {y}"
        );
    }
}

/// An op and its scalar `*_reference` twin, both `(lhs, rhs) -> out`.
type Op<A> = (fn(&A, &Matrix) -> Matrix, fn(&A, &Matrix) -> Matrix);
const MATMUL: Op<Matrix> = (Matrix::matmul, Matrix::matmul_reference);
const MATMUL_TN: Op<Matrix> = (Matrix::matmul_tn, Matrix::matmul_tn_reference);
const MATMUL_NT: Op<Matrix> = (Matrix::matmul_nt, Matrix::matmul_nt_reference);
const SPMM: Op<Csr> = (Csr::matmul_dense, Csr::matmul_dense_reference);

/// Runs the op and its reference at every thread count and asserts all
/// six results are bitwise equal to the serial reference.
fn check<A>((op, reference): Op<A>, lhs: &A, rhs: &Matrix, what: &str) {
    let want = with_threads(1, || reference(lhs, rhs));
    for nt in THREAD_COUNTS {
        let got = with_threads(nt, || op(lhs, rhs));
        assert_bitwise(&want, &got, &format!("{what} [blocked @ {nt} threads]"));
        let again = with_threads(nt, || reference(lhs, rhs));
        assert_bitwise(&want, &again, &format!("{what} [reference @ {nt} threads]"));
    }
}

#[test]
fn matmul_scalar_and_matmul_blocked_agree_on_adversarial_shapes() {
    let mut rng = StdRng::seed_from_u64(0xAC01);
    for case in 0..CASES {
        let (m, k, n) =
            (adversarial_dim(&mut rng), adversarial_dim(&mut rng), adversarial_dim(&mut rng));
        let a = adversarial_matrix(&mut rng, m, k);
        let b = adversarial_matrix(&mut rng, k, n);
        check(MATMUL, &a, &b, &format!("matmul case {case}: {m}x{k}x{n}"));
    }
}

#[test]
fn matmul_tn_scalar_and_matmul_tn_blocked_agree_on_adversarial_shapes() {
    let mut rng = StdRng::seed_from_u64(0xAC02);
    for case in 0..CASES {
        let (m, k, n) =
            (adversarial_dim(&mut rng), adversarial_dim(&mut rng), adversarial_dim(&mut rng));
        let a = adversarial_matrix(&mut rng, k, m);
        let b = adversarial_matrix(&mut rng, k, n);
        check(MATMUL_TN, &a, &b, &format!("matmul_tn case {case}: {m}x{k}x{n}"));
    }
}

#[test]
fn matmul_nt_scalar_and_matmul_nt_blocked_agree_on_adversarial_shapes() {
    let mut rng = StdRng::seed_from_u64(0xAC03);
    for case in 0..CASES {
        let (m, k, n) =
            (adversarial_dim(&mut rng), adversarial_dim(&mut rng), adversarial_dim(&mut rng));
        let a = adversarial_matrix(&mut rng, m, k);
        let b = adversarial_matrix(&mut rng, n, k);
        check(MATMUL_NT, &a, &b, &format!("matmul_nt case {case}: {m}x{k}x{n}"));
    }
}

#[test]
fn spmm_scalar_and_spmm_blocked_agree_on_adversarial_shapes() {
    let mut rng = StdRng::seed_from_u64(0xAC04);
    for case in 0..CASES {
        let (m, k, n) =
            (adversarial_dim(&mut rng), adversarial_dim(&mut rng), adversarial_dim(&mut rng));
        let a = adversarial_csr(&mut rng, m, k);
        let x = adversarial_matrix(&mut rng, k, n);
        check(SPMM, &a, &x, &format!("spmm case {case}: {m}x{k}x{n} nnz={}", a.nnz()));
    }
}

#[test]
fn fixed_seam_shapes_match_the_reference() {
    // Deterministic seam shapes that the random draw might miss: exact
    // tile widths, one past them, the KC k-slab boundary, and n = 1
    // column-vector outputs with k past KC (attention-score products).
    let mut rng = StdRng::seed_from_u64(0xAC05);
    for (m, k, n) in [
        (4, 256, 32),
        (5, 257, 33),
        (2, 512, 40),
        (8, 300, 8),
        (3, 300, 1),
        (64, 300, 1),
        (5, 257, 1),
        (1, 1, 1),
        (9, 16, 7),
    ] {
        let a = adversarial_matrix(&mut rng, m, k);
        let b = adversarial_matrix(&mut rng, k, n);
        check(MATMUL, &a, &b, &format!("seam matmul {m}x{k}x{n}"));
        let at = adversarial_matrix(&mut rng, k, m);
        check(MATMUL_TN, &at, &b, &format!("seam matmul_tn {m}x{k}x{n}"));
        let bt = adversarial_matrix(&mut rng, n, k);
        check(MATMUL_NT, &a, &bt, &format!("seam matmul_nt {m}x{k}x{n}"));
        let s = adversarial_csr(&mut rng, m, k);
        check(SPMM, &s, &b, &format!("seam spmm {m}x{k}x{n}"));
    }
}

/// A CSR block with average degree under 4: most rows hold 1–3 nonzeros
/// and every fifth row is empty (isolated nodes in a sampled batch).
fn low_degree_csr(rng: &mut StdRng, rows: usize, cols: usize) -> Csr {
    let mut coo = Vec::new();
    for r in 0..rows {
        if r % 5 == 0 {
            continue;
        }
        for _ in 0..rng.gen_range(1..4) {
            coo.push((r as u32, rng.gen_range(0..cols) as u32, rng.gen_range(-1.0f32..1.0)));
        }
    }
    Csr::from_coo(rows, cols, coo)
}

#[test]
fn low_degree_spmm_matches_the_reference() {
    // The sampled-batch and low-degree relation shapes that take the
    // blocked spmm kernel: average degree under 4, empty rows, and
    // n = 8, 32 and 64 (one panel, several panels, the hidden width).
    let mut rng = StdRng::seed_from_u64(0xAC06);
    for (rows, cols) in [(300, 300), (97, 1000), (1024, 257)] {
        let a = low_degree_csr(&mut rng, rows, cols);
        assert!(a.nnz() < 4 * rows, "average degree must stay under 4");
        assert!((0..rows).any(|r| a.row_nnz(r) == 0), "some rows must be empty");
        for n in [8, 32, 64] {
            let x = adversarial_matrix(&mut rng, cols, n);
            check(SPMM, &a, &x, &format!("low-degree spmm {rows}x{cols}x{n} nnz={}", a.nnz()));
        }
    }
}
