//! Obs records from the tensor kernels: span nesting across
//! `for_each_row_chunk` worker threads, and the `shape` records the kernel
//! entry points emit.
//!
//! Worker threads cannot see the launcher's thread-local obs override, so
//! these tests arm obs with the process-global force switch — and
//! therefore live in their own test binary (test binaries are separate
//! processes). Tests *within* this binary share the force switch and the
//! global accumulators, so each holds [`OBS_LOCK`] while armed.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use autoac_obs::ShapeKey;
use autoac_tensor::parallel::{for_each_row_chunk, with_threads};
use autoac_tensor::{Csr, Matrix};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn worker_spans_nest_under_the_launching_call_site() {
    let _lock = obs_lock();
    autoac_obs::set_force(Some(true));
    let _ = autoac_obs::drain();

    let rows = 64usize;
    let width = 8usize;
    let mut data = vec![0.0f32; rows * width];
    {
        let _outer = autoac_obs::span("launch");
        // Force real workers regardless of AUTOAC_NUM_THREADS.
        with_threads(4, || {
            // work=1M clears any parallelism threshold.
            for_each_row_chunk(&mut data, width, 1_000_000, |first_row, chunk| {
                let _k = autoac_obs::span("worker_kernel");
                for (i, row) in chunk.chunks_mut(width).enumerate() {
                    row.fill((first_row + i) as f32);
                }
            });
        });
    }
    let rep = autoac_obs::drain();
    autoac_obs::set_force(None);

    // The kernel ran correctly in parallel.
    for r in 0..rows {
        assert!(data[r * width..(r + 1) * width].iter().all(|&v| v == r as f32));
    }

    let launch = rep.span("launch").expect("launcher span recorded");
    assert_eq!(launch.count, 1);
    let nested = rep
        .span("launch/worker_kernel")
        .expect("worker span must nest under the adopted launcher path");
    assert_eq!(
        nested.count, 4,
        "one worker_kernel span per worker thread; got:\n{}",
        rep.render_tree()
    );
    // No orphaned top-level worker_kernel: adoption placed every one.
    assert!(
        rep.span("worker_kernel").is_none(),
        "worker spans must not surface at the root:\n{}",
        rep.render_tree()
    );

    // Real kernels adopt too: a matmul launched inside a span nests there.
    autoac_obs::set_force(Some(true));
    let _ = autoac_obs::drain();
    let a = Matrix::from_vec(32, 32, vec![1.0; 32 * 32]);
    {
        let _outer = autoac_obs::span("launch");
        let _c = with_threads(4, || a.matmul(&a));
    }
    let rep = autoac_obs::drain();
    autoac_obs::set_force(None);
    let mm = rep.span("launch/matmul").expect("matmul span nests under launch");
    assert_eq!(mm.count, 1);
}

/// The benchmark's per-kernel GFLOP/s and roofline metrics are computed
/// from these records, so every matmul-family entry point must emit one
/// per call, with `[m, k, n, nnz]` dims (`nnz` = 0 for dense ops).
#[test]
fn each_kernel_entry_point_records_its_shape_once() {
    let _lock = obs_lock();
    autoac_obs::set_force(Some(true));
    let _ = autoac_obs::drain();
    let _ = Matrix::zeros(5, 3).matmul(&Matrix::zeros(3, 2));
    let _ = Matrix::zeros(7, 4).matmul_tn(&Matrix::zeros(7, 6));
    let _ = Matrix::zeros(2, 9).matmul_nt(&Matrix::zeros(11, 9));
    let s = Csr::from_coo(6, 8, [(0, 1, 1.0), (2, 7, -2.0), (5, 0, 0.5)]);
    let _ = s.matmul_dense(&Matrix::zeros(8, 10));
    let rep = autoac_obs::drain();
    autoac_obs::set_force(None);

    let want = BTreeMap::from([
        (ShapeKey { op: "matmul", dims: [5, 3, 2, 0] }, 1),
        // matmul_tn computes selfᵀ·other: m is self's cols, k its rows.
        (ShapeKey { op: "matmul_tn", dims: [4, 7, 6, 0] }, 1),
        (ShapeKey { op: "matmul_nt", dims: [2, 9, 11, 0] }, 1),
        (ShapeKey { op: "spmm", dims: [6, 8, 10, 3] }, 1),
    ]);
    assert_eq!(rep.shapes, want);
}
