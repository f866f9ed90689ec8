//! Kernel A/B benchmark: register-blocked microkernels vs the scalar
//! reference.
//!
//! Every matmul-family op (`Matrix::matmul`, `matmul_tn`, `matmul_nt`,
//! `Csr::matmul_dense`) runs its register-blocked kernel (see
//! `crates/tensor/src/ops/microkernel.rs`); its doc-hidden `*_reference`
//! twin runs the scalar kernel through the same entry code. This binary
//! times the two on a fixed set of paper-scale and workload shapes,
//! asserts they agree bitwise on every measured shape at 1, 2 and 8
//! threads, and writes `results/BENCH_kernels.json`.
//!
//! ```text
//! bench_kernels [--out FILE] [--iters-ms N] [--smoke x]
//! ```
//!
//! `--smoke x` shrinks shapes and iteration budgets for the verify.sh
//! smoke pass; `--iters-ms` sets the per-measurement time budget.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use autoac_tensor::parallel::with_threads;
use autoac_tensor::{Csr, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmarked ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    MatMul,
    MatMulTn,
    MatMulNt,
    Spmm,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::MatMul => "matmul",
            Op::MatMulTn => "matmul_tn",
            Op::MatMulNt => "matmul_nt",
            Op::Spmm => "spmm",
        }
    }
}

/// One benchmarked kernel invocation.
#[derive(Clone, Copy, Debug)]
struct Shape {
    op: Op,
    /// Output rows (dense) / CSR rows (spmm).
    m: usize,
    /// Inner dimension (dense) / CSR cols (spmm).
    k: usize,
    /// Output cols.
    n: usize,
    /// Stored nonzeros; 0 for dense ops.
    nnz: usize,
}

/// Paper-scale defaults: the forward/backward shapes a SimpleHGN/MAGNN
/// training step actually runs on the HGB datasets (DBLP 4057 target
/// nodes × 334 attrs, ACM ~3k × 1902, hidden 64), adversarial narrow and
/// mid-size shapes, and the benchmark workloads' column-vector products
/// and low-degree (under 4 nonzeros per row) aggregations.
fn default_shapes(smoke: bool) -> Vec<Shape> {
    use Op::*;
    if smoke {
        return vec![
            Shape { op: MatMul, m: 256, k: 64, n: 64, nnz: 0 },
            Shape { op: MatMul, m: 256, k: 64, n: 1, nnz: 0 },
            Shape { op: MatMulTn, m: 64, k: 256, n: 64, nnz: 0 },
            Shape { op: MatMulNt, m: 256, k: 64, n: 64, nnz: 0 },
            Shape { op: Spmm, m: 512, k: 512, n: 64, nnz: 4096 },
            Shape { op: Spmm, m: 512, k: 512, n: 32, nnz: 1024 },
        ];
    }
    vec![
        // Forward projections and GNN layers.
        Shape { op: MatMul, m: 4057, k: 334, n: 64, nnz: 0 },
        Shape { op: MatMul, m: 3025, k: 1902, n: 64, nnz: 0 },
        Shape { op: MatMul, m: 4057, k: 64, n: 64, nnz: 0 },
        Shape { op: MatMul, m: 4057, k: 64, n: 7, nnz: 0 },
        Shape { op: MatMul, m: 128, k: 64, n: 64, nnz: 0 },
        // Attention-score column vectors (n = 1) from the full-batch
        // workloads.
        Shape { op: MatMul, m: 3267, k: 64, n: 1, nnz: 0 },
        Shape { op: MatMul, m: 2678, k: 128, n: 1, nnz: 0 },
        // Backward: dW = Xᵀ·dY (tn) and dX = dY·Wᵀ (nt).
        Shape { op: MatMulTn, m: 334, k: 4057, n: 64, nnz: 0 },
        Shape { op: MatMulTn, m: 64, k: 4057, n: 64, nnz: 0 },
        Shape { op: MatMulTn, m: 64, k: 128, n: 64, nnz: 0 },
        Shape { op: MatMulTn, m: 64, k: 3267, n: 1, nnz: 0 },
        Shape { op: MatMulNt, m: 4057, k: 64, n: 334, nnz: 0 },
        Shape { op: MatMulNt, m: 4057, k: 64, n: 64, nnz: 0 },
        Shape { op: MatMulNt, m: 128, k: 7, n: 64, nnz: 0 },
        // Aggregation: adjacency × features at HGB-ish densities.
        Shape { op: Spmm, m: 4057, k: 4057, n: 64, nnz: 20_000 },
        Shape { op: Spmm, m: 3025, k: 3025, n: 64, nnz: 30_000 },
        Shape { op: Spmm, m: 4057, k: 4057, n: 7, nnz: 20_000 },
        Shape { op: Spmm, m: 1024, k: 1024, n: 64, nnz: 2048 },
        // Low-degree relations and sampled batches: under 4 nonzeros per
        // row, up to the 50k-node evaluation product.
        Shape { op: Spmm, m: 3267, k: 3267, n: 64, nnz: 12_831 },
        Shape { op: Spmm, m: 2678, k: 2678, n: 64, nnz: 4979 },
        Shape { op: Spmm, m: 300, k: 300, n: 32, nnz: 1000 },
        Shape { op: Spmm, m: 50_000, k: 50_000, n: 32, nnz: 60_026 },
    ]
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

fn random_csr(rng: &mut StdRng, rows: usize, cols: usize, nnz: usize) -> Csr {
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

/// Inputs for one shape, built once and reused by both kernels so they
/// measure identical data.
enum Inputs {
    Dense(Matrix, Matrix),
    Sparse(Csr, Matrix),
}

impl Shape {
    fn build(&self, rng: &mut StdRng) -> Inputs {
        match self.op {
            Op::MatMul => {
                Inputs::Dense(random_matrix(rng, self.m, self.k), random_matrix(rng, self.k, self.n))
            }
            // tn computes selfᵀ·other with self stored k×m.
            Op::MatMulTn => {
                Inputs::Dense(random_matrix(rng, self.k, self.m), random_matrix(rng, self.k, self.n))
            }
            // nt computes self·otherᵀ with other stored n×k.
            Op::MatMulNt => {
                Inputs::Dense(random_matrix(rng, self.m, self.k), random_matrix(rng, self.n, self.k))
            }
            Op::Spmm => Inputs::Sparse(
                random_csr(rng, self.m, self.k, self.nnz),
                random_matrix(rng, self.k, self.n),
            ),
        }
    }

    /// Runs the op on the scalar reference kernel (`reference`) or the
    /// blocked kernel the public op uses.
    fn run(&self, inputs: &Inputs, reference: bool) -> Matrix {
        match (self.op, inputs, reference) {
            (Op::MatMul, Inputs::Dense(a, b), false) => a.matmul(b),
            (Op::MatMul, Inputs::Dense(a, b), true) => a.matmul_reference(b),
            (Op::MatMulTn, Inputs::Dense(a, b), false) => a.matmul_tn(b),
            (Op::MatMulTn, Inputs::Dense(a, b), true) => a.matmul_tn_reference(b),
            (Op::MatMulNt, Inputs::Dense(a, b), false) => a.matmul_nt(b),
            (Op::MatMulNt, Inputs::Dense(a, b), true) => a.matmul_nt_reference(b),
            (Op::Spmm, Inputs::Sparse(a, x), false) => a.matmul_dense(x),
            (Op::Spmm, Inputs::Sparse(a, x), true) => a.matmul_dense_reference(x),
            _ => unreachable!("inputs built for the same op"),
        }
    }
}

/// Median wall-time in milliseconds of `[reference, blocked]`, from `reps`
/// timed batches each sized to run for roughly `budget_ms`. The two are
/// measured **interleaved** (reference, blocked, reference, …) so slow
/// drift — frequency scaling, another process waking up — lands on both
/// equally instead of biasing whichever was measured last.
fn measure(shape: &Shape, inputs: &Inputs, budget_ms: f64, reps: usize) -> [f64; 2] {
    const KERNELS: [bool; 2] = [true, false];
    // Calibrate the batch size on the slower kernel's warm-up call so
    // every batch meets the budget.
    let once_ms = KERNELS
        .iter()
        .map(|&reference| {
            let t0 = Instant::now();
            std::hint::black_box(shape.run(inputs, reference));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(0.0f64, f64::max);
    let batch = ((budget_ms / once_ms.max(1e-4)) as usize).clamp(1, 10_000);
    let mut times = [const { Vec::new() }; 2];
    for _ in 0..reps {
        for (v, &reference) in KERNELS.iter().enumerate() {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(shape.run(std::hint::black_box(inputs), reference));
            }
            times[v].push(t.elapsed().as_secs_f64() * 1e3 / batch as f64);
        }
    }
    times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    })
}

fn assert_bitwise(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// Measured A/B cell for one shape.
struct Cell {
    shape: Shape,
    scalar_ms: f64,
    blocked_ms: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.scalar_ms / self.blocked_ms
    }
}

fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let mut out_path = PathBuf::from("results/BENCH_kernels.json");
    let mut smoke = false;
    let mut budget_ms: f64 = 60.0;
    let _args = autoac_bench::Args::parse_extra(|flag, value| match flag {
        "--out" => {
            out_path = PathBuf::from(value);
            true
        }
        "--smoke" => {
            smoke = true;
            true
        }
        "--iters-ms" => {
            budget_ms = value.parse().expect("--iters-ms takes milliseconds");
            true
        }
        _ => false,
    });
    if smoke {
        budget_ms = budget_ms.min(10.0);
    }
    let reps = if smoke { 3 } else { 5 };

    let mut rng = StdRng::seed_from_u64(7);
    let mut cells: Vec<Cell> = Vec::new();
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>9} {:>11} {:>11} {:>8}",
        "op", "m", "k", "n", "nnz", "scalar ms", "blocked ms", "speedup"
    );
    for shape in default_shapes(smoke) {
        let inputs = shape.build(&mut rng);
        // Bitwise parity on the measured inputs, at every thread count the
        // parity harness covers: the blocked kernel must reproduce the
        // serial reference exactly.
        let want = with_threads(1, || shape.run(&inputs, true));
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || shape.run(&inputs, false));
            assert_bitwise(&want, &got, &format!("{} @ {threads} threads", shape.op.name()));
        }
        let [scalar_ms, blocked_ms] = measure(&shape, &inputs, budget_ms, reps);
        let cell = Cell { shape, scalar_ms, blocked_ms };
        println!(
            "{:<10} {:>6} {:>6} {:>6} {:>9} {:>11.4} {:>11.4} {:>8.2}",
            shape.op.name(),
            shape.m,
            shape.k,
            shape.n,
            shape.nnz,
            scalar_ms,
            blocked_ms,
            cell.speedup(),
        );
        cells.push(cell);
    }

    let paper_dense: Vec<f64> = cells
        .iter()
        .filter(|c| c.shape.op != Op::Spmm && c.shape.m * c.shape.k * c.shape.n >= 10_000_000)
        .map(Cell::speedup)
        .collect();
    let spmm: Vec<f64> = cells
        .iter()
        .filter(|c| c.shape.op == Op::Spmm && c.shape.n >= 8)
        .map(Cell::speedup)
        .collect();
    let geomean = |v: &[f64]| {
        if v.is_empty() {
            1.0
        } else {
            (v.iter().map(|s| s.ln()).sum::<f64>() / v.len() as f64).exp()
        }
    };

    let mut json = String::from("{\n  \"schema\": 2,\n  \"shapes\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"op\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"nnz\": {}, \
             \"scalar_ms\": {}, \"blocked_ms\": {}, \"speedup\": {}}}{}\n",
            c.shape.op.name(),
            c.shape.m,
            c.shape.k,
            c.shape.n,
            c.shape.nnz,
            jnum(c.scalar_ms),
            jnum(c.blocked_ms),
            jnum(c.speedup()),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"summary\": {{\"dense_speedup_geomean\": {}, \"spmm_speedup_geomean\": {}, \
         \"smoke\": {}}}\n}}\n",
        jnum(geomean(&paper_dense)),
        jnum(geomean(&spmm)),
        smoke
    ));
    if let Some(parent) = out_path.parent() {
        fs::create_dir_all(parent).expect("create results dir");
    }
    fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    println!(
        "\ndense speedup (paper-scale geomean): {:.2}x, spmm: {:.2}x -> {}",
        geomean(&paper_dense),
        geomean(&spmm),
        out_path.display()
    );
    println!("bitwise parity at 1, 2 and 8 threads: ok");
}
