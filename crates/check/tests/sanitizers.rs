//! Integration tests for the runtime sanitizer re-exported by
//! `autoac-check`: the pool provenance sanitizer. Each seeded bug must be
//! caught deterministically, and a clean workload must produce zero
//! findings.

use autoac_check::{capture_pool_violations, PoolViolationKind};
use autoac_tensor::parallel;
use autoac_tensor::{chk, pool, Matrix, Tensor};

#[test]
fn seeded_use_after_release_is_reported_with_op_names() {
    pool::with_pool(true, || {
        chk::with_check(true, || {
            pool::trim();
            let (_, violations) = capture_pool_violations(|| {
                pool::seed_use_after_release_for_tests();
            });
            pool::trim();
            assert_eq!(violations.len(), 1, "{violations:?}");
            let v = &violations[0];
            assert_eq!(v.kind, PoolViolationKind::UseAfterRelease);
            assert_eq!(v.alloc_op, "uar_fixture");
            assert_eq!(v.release_op, "uar_fixture");
            let text = v.to_string();
            assert!(text.contains("use-after-release"), "{text}");
        })
    });
}

#[test]
fn seeded_double_release_is_reported_and_quarantined() {
    pool::with_pool(true, || {
        chk::with_check(true, || {
            pool::trim();
            let (_, violations) = capture_pool_violations(|| {
                pool::seed_double_release_for_tests();
            });
            pool::trim();
            assert_eq!(violations.len(), 1, "{violations:?}");
            assert_eq!(violations[0].kind, PoolViolationKind::DoubleRelease);
            assert_eq!(violations[0].release_op, "dr_fixture");
        })
    });
}

#[test]
fn clean_training_step_produces_zero_sanitizer_findings() {
    pool::with_pool(true, || {
        chk::with_check(true, || {
            pool::trim();
            let ((), pool_violations) = capture_pool_violations(|| {
                // A realistic mini training step: forward, backward,
                // parallel kernel work — all recycling through the pool.
                for step in 0..5 {
                    let x = Tensor::new(Matrix::ones(16, 8), true);
                    let w = Tensor::new(Matrix::ones(8, 4), true);
                    let loss = x.matmul(&w).relu().sum();
                    loss.backward();
                    let mut buf = vec![0.0f32; 64 * 4];
                    parallel::for_each_row_chunk(&mut buf, 4, 64, |start, rows| {
                        for (i, row) in rows.chunks_mut(4).enumerate() {
                            row[0] = (start + i + step) as f32;
                        }
                    });
                }
            });
            pool::trim();
            assert!(pool_violations.is_empty(), "{pool_violations:?}");
        })
    });
}
