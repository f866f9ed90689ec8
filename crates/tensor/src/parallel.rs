//! Data-parallel kernel execution.
//!
//! Parallelism in this crate lives strictly *inside* kernels: the autograd
//! tape is `Rc`-based and stays on one thread, while individual kernels
//! (`Matrix::matmul`, `Csr::matmul_dense`, `Csr::transpose`) split their
//! output rows into disjoint `chunks_mut` slices and hand each slice to a
//! scoped worker thread (`std::thread::scope` — no pool, no 'static bounds,
//! no unsafe in the row-chunk path).
//!
//! Every row of the output is computed by exactly one thread running the
//! identical serial inner loop, so results are **bitwise equal** to the
//! serial kernel for any thread count — parallelism never perturbs training.
//!
//! Thread-count policy, in priority order:
//!
//! 1. [`with_threads`] — a scoped, test-friendly override.
//! 2. The `AUTOAC_NUM_THREADS` environment variable (read once, parsed
//!    strictly — a malformed value aborts instead of silently falling back).
//!    An explicit setting is honored even for small inputs; `1` restores the
//!    exact serial code path.
//! 3. Default: `std::thread::available_parallelism`, but only for inputs
//!    above a minimum work size — spawning threads for tiny kernels costs
//!    more than it saves.

use std::cell::Cell;
use std::sync::OnceLock;

/// Below this many scalar operations a kernel stays serial unless the
/// thread count was set explicitly (env var or [`with_threads`]).
pub const MIN_PARALLEL_WORK: usize = 16_384;

thread_local! {
    /// Override installed by [`with_threads`]; 0 means unset. Thread-local
    /// so concurrently running tests can pin different counts without
    /// racing — kernels are always launched from the calling thread.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Strict parser for `AUTOAC_NUM_THREADS`: a positive decimal integer, with
/// surrounding whitespace ignored. Empty values, garbage, zero, and
/// out-of-range numbers are errors — a malformed setting must abort instead
/// of silently falling back to the hardware default.
pub fn parse_threads_env(raw: &str) -> Result<usize, String> {
    let t = raw.trim();
    if t.is_empty() {
        return Err(
            "AUTOAC_NUM_THREADS is set but empty; use a positive integer (or unset it)".into(),
        );
    }
    match t.parse::<usize>() {
        Ok(0) => Err("AUTOAC_NUM_THREADS=0 is invalid; thread count must be >= 1".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "AUTOAC_NUM_THREADS={t:?} is not a positive integer (overflow counts as invalid)"
        )),
    }
}

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("AUTOAC_NUM_THREADS").ok()?;
        Some(
            parse_threads_env(&raw)
                .unwrap_or_else(|e| panic!("autoac-tensor: {e}")),
        )
    })
}

fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The thread count kernels will use for large inputs right now.
pub fn num_threads() -> usize {
    match OVERRIDE.with(Cell::get) {
        0 => env_threads().unwrap_or_else(hardware_threads),
        n => n,
    }
}

/// Thread count for a kernel performing roughly `work` scalar operations:
/// an explicit setting (override or env var) is honored as-is; the
/// hardware default only kicks in above [`MIN_PARALLEL_WORK`].
pub fn threads_for(work: usize) -> usize {
    match OVERRIDE.with(Cell::get) {
        0 => match env_threads() {
            Some(n) => n,
            None if work >= MIN_PARALLEL_WORK => hardware_threads(),
            None => 1,
        },
        n => n,
    }
}

/// Runs `f` with this thread's kernel thread count pinned to `n`, restoring
/// the previous setting afterwards (also on panic). Used by parity tests and
/// by callers that want serial sections without touching process-global env.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    assert!(n >= 1, "with_threads: thread count must be >= 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(n)));
    f()
}

/// Splits `rows` into at most `parts` contiguous, near-equal ranges.
pub fn partition_rows(rows: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, rows.max(1));
    let base = rows / parts;
    let extra = rows % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len == 0 {
            break;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Runs `f(first_row, rows_chunk)` over disjoint row-aligned chunks of
/// `data` (a row-major buffer of `width`-wide rows), one chunk per worker.
///
/// `work` is the caller's estimate of total scalar operations; it feeds
/// [`threads_for`]. With one effective thread this degenerates to a single
/// inline `f(0, data)` call — the exact serial path, no spawn. An empty
/// buffer (zero rows or zero width) never invokes `f`.
pub fn for_each_row_chunk<T, F>(data: &mut [T], width: usize, work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    let rows = if width == 0 { 0 } else { data.len() / width };
    assert_eq!(rows * width, data.len(), "for_each_row_chunk: ragged buffer");
    let threads = threads_for(work).min(rows.max(1));
    if threads <= 1 {
        f(0, data);
        return;
    }
    let ranges = partition_rows(rows, threads);
    // Workers are scoped threads with no access to the launcher's
    // thread-locals, so capture the launcher's span position here and have
    // each worker adopt it: spans the worker opens then nest under the
    // launching call site (e.g. search/epoch/omega/matmul). Both calls are
    // single-branch no-ops when obs is disabled.
    let obs_path = autoac_obs::current_path();
    std::thread::scope(|scope| {
        let f = &f;
        let obs_path = &obs_path;
        let mut rest = data;
        for range in ranges {
            let (chunk, tail) = rest.split_at_mut(range.len() * width);
            rest = tail;
            let first_row = range.start;
            scope.spawn(move || {
                let _nest = autoac_obs::adopt(obs_path);
                f(first_row, chunk)
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly() {
        for rows in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 2000] {
                let ranges = partition_rows(rows, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at {r:?} ({rows} rows / {parts})");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, rows, "coverage for {rows} rows / {parts} parts");
                assert!(ranges.len() <= parts.max(1));
                // Near-equal: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn row_chunks_visit_every_row_once() {
        for threads in [1usize, 2, 5, 8] {
            with_threads(threads, || {
                let width = 3;
                let mut data = vec![0u32; 17 * width];
                for_each_row_chunk(&mut data, width, usize::MAX, |first_row, chunk| {
                    for (i, row) in chunk.chunks_mut(width).enumerate() {
                        for v in row.iter_mut() {
                            *v += (first_row + i) as u32 + 1;
                        }
                    }
                });
                let expect: Vec<u32> =
                    (0..17u32).flat_map(|r| [r + 1, r + 1, r + 1]).collect();
                assert_eq!(data, expect, "threads = {threads}");
            });
        }
    }

    #[test]
    fn empty_and_zero_width_buffers_never_invoke() {
        let mut empty: Vec<f32> = Vec::new();
        for_each_row_chunk(&mut empty, 4, usize::MAX, |_, _| panic!("empty buffer"));
        for_each_row_chunk(&mut empty, 0, usize::MAX, |_, _| panic!("zero width"));
    }

    #[test]
    fn with_threads_restores_on_exit_and_panic() {
        let before = num_threads();
        with_threads(3, || assert_eq!(num_threads(), 3));
        assert_eq!(num_threads(), before);
        let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(num_threads(), before);
    }

    #[test]
    fn threads_env_parses_strictly() {
        assert_eq!(parse_threads_env("1"), Ok(1));
        assert_eq!(parse_threads_env(" 8 "), Ok(8));
        for bad in ["", "  ", "0", "-1", "four", "1.5", "1e3", "99999999999999999999999"] {
            let err = parse_threads_env(bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("AUTOAC_NUM_THREADS"), "error must name the variable: {err}");
        }
    }

    #[test]
    fn threads_for_respects_work_threshold() {
        // Unset override: small work stays serial regardless of hardware.
        with_threads(1, || assert_eq!(threads_for(usize::MAX), 1));
        // Explicit override is honored even for tiny work.
        with_threads(4, || assert_eq!(threads_for(1), 4));
    }
}
