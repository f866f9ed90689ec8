//! `check_smoke` — one-shot demonstration that every analysis in
//! `autoac-check` actually catches its class of bug.
//!
//! Runs the tape verifier and the pool sanitizer against seeded
//! violations in capture mode (so nothing panics), plus the source lint
//! over the seeded fixture tree, and prints a one-line JSON summary.
//! Exits 1 if any analysis failed to catch its seeded bug — this is the
//! "the smoke detector beeps when you hold a match under it" test wired
//! into `scripts/verify.sh`.

use std::path::PathBuf;
use std::process::ExitCode;

use autoac_check::tape;
use autoac_tensor::{chk, pool, Matrix, Tensor};

/// Builds a small graph, corrupts an intermediate's shape behind the
/// tape's back, and counts verifier findings.
fn tape_demo() -> usize {
    chk::with_check(true, || {
        let x = Tensor::new(Matrix::ones(3, 4), true);
        let w = Tensor::new(Matrix::ones(4, 2), true);
        let h = x.matmul(&w);
        let loss = h.relu().sum();
        // Shape corruption: the tape recorded matmul(3x4, 4x2) -> 3x2.
        h.update_value(|m| *m = Matrix::ones(5, 5));
        tape::verify_loss(&loss).diagnostics.len()
    })
}

/// Seeds one use-after-release and one double-release against the buffer
/// pool and counts sanitizer reports.
fn pool_demo() -> usize {
    pool::with_pool(true, || {
        chk::with_check(true, || {
            pool::trim();
            let (_, violations) = pool::capture_pool_violations(|| {
                pool::seed_use_after_release_for_tests();
                pool::seed_double_release_for_tests();
            });
            pool::trim();
            violations.len()
        })
    })
}

/// Lints the seeded fixture tree (one deliberate violation per rule).
fn lint_demo() -> usize {
    let fixtures = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"));
    autoac_check::lint::lint_root(&fixtures).diagnostics.len()
}

fn main() -> ExitCode {
    let tape = tape_demo();
    let pool = pool_demo();
    let lint = lint_demo();
    let ok = tape > 0 && pool >= 2 && lint >= 4;
    println!("{{\"tape\":{tape},\"pool\":{pool},\"lint\":{lint},\"all_caught\":{ok}}}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
