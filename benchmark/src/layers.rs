//! Per-layer metrics read from the obs report of a traced run: search-step
//! spans, operator-cache builds, checkpoint writes, and kernel time, calls,
//! achieved FLOP/s and bytes/s from the kernel spans and the `shape`
//! records the tensor dispatcher already emits.

use autoac_data::json::Value;
use autoac_obs::ObsReport;

use crate::doc::{num, obj, RunResult, KERNELS};
use crate::probe::Peaks;
use crate::stats::Summary;

/// FLOPs and compulsory bytes of one kernel call with the recorded
/// `[m, k, n, nnz]` dims. Dense products (`matmul`, `matmul_tn`,
/// `matmul_nt` all record `m×k · k×n`) read both operands and write the
/// result once; `spmm` (`rows×cols` CSR with `nnz` entries times a
/// `cols×n` block) reads values, column indices and row pointers, the
/// dense block, and writes `rows×n`. `f32` values, `u32` indices, `usize`
/// row pointers.
pub fn flops_bytes(op: &str, dims: [usize; 4]) -> (f64, f64) {
    let [m, k, n, nnz] = dims.map(|d| d as f64);
    if op == "spmm" {
        let (rows, cols) = (m, k);
        (
            2.0 * nnz * n,
            8.0 * nnz + 8.0 * (rows + 1.0) + 4.0 * cols * n + 4.0 * rows * n,
        )
    } else {
        (2.0 * m * k * n, 4.0 * (m * k + k * n + m * n))
    }
}

/// Achieved share of the roofline bound: the lower of peak compute and
/// peak bandwidth times arithmetic intensity.
pub fn roofline_frac(gflops: f64, gbytes_s: f64, peak_gflops: f64, peak_gbytes_s: f64) -> f64 {
    let intensity = gflops / gbytes_s; // FLOP per byte
    gflops / peak_gflops.min(peak_gbytes_s * intensity)
}

/// Total nanoseconds and call count of every span whose leaf is `name`.
fn span_sum(rep: &ObsReport, name: &str) -> (f64, f64) {
    rep.spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0.0), |(ns, n), s| {
            (ns + s.total_ns as f64, n + s.count as f64)
        })
}

/// Epochs of the `search` and `train` loops in a report.
pub fn epochs_of(rep: &ObsReport, root: &str) -> f64 {
    rep.span(&format!("{root}/epoch"))
        .map_or(0.0, |s| s.count as f64)
}

/// What a traced run measured around the calls it attributes to layers.
pub struct Traced<'a> {
    /// Obs report drained right after the calls.
    pub report: &'a ObsReport,
    /// Wall seconds of the calls.
    pub wall_s: f64,
    /// Tensor-pool counters accumulated over the calls.
    pub pool: autoac_tensor::pool::PoolStats,
    /// Steps the calls ran: training epochs, or served forwards.
    pub steps: f64,
}

/// Records the span-derived per-layer metrics (search steps, operator
/// builds, checkpoint writes, tensor pool, kernels) against the measured
/// compute and bandwidth ceilings, and the search-epoch coverage check.
pub fn record(t: &Traced, peaks: &Peaks, res: &mut RunResult) {
    let (peak_gflops, peak_gbytes_s) = (peaks.gflops, peaks.gbytes_s);
    let rep = t.report;
    let search_epochs = epochs_of(rep, "search");
    let steps = t.steps.max(1.0);
    for (metric, spans) in [
        ("core.alpha_ms", &["alpha"][..]),
        ("core.omega_ms", &["omega"]),
        ("core.cluster_ms", &["cluster"]),
        ("core.prox_ms", &["prox_c1", "prox_c2"]),
    ] {
        if search_epochs == 0.0 {
            res.idle(&[metric]);
        } else {
            let ns: f64 = spans.iter().map(|n| span_sum(rep, n).0).sum();
            res.metric(metric, Summary::one(ns / 1e6 / search_epochs));
        }
    }
    res.metric(
        "graph.opcache_builds_per_step",
        Summary::one(span_sum(rep, "opcache_build").1 / steps),
    );
    let writes = rep
        .hists
        .get("ckpt_write_ns")
        .map_or(0.0, |h| h.count as f64);
    res.metric("ckpt.writes_per_step", Summary::one(writes / steps));
    res.metric("tensor.pool_hit_rate", Summary::one(t.pool.hit_rate()));
    res.metric(
        "tensor.pool_misses_per_step",
        Summary::one(t.pool.misses as f64 / steps),
    );

    let mut kernel_ns = 0.0;
    let mut table = Vec::new();
    for op in KERNELS {
        let (ns, calls) = span_sum(rep, op);
        let (flops, bytes) = rep
            .shapes
            .iter()
            .filter(|(key, _)| key.op == op)
            .map(|(key, &count)| {
                let (f, b) = flops_bytes(op, key.dims);
                (f * count as f64, b * count as f64)
            })
            .fold((0.0, 0.0), |a, x| (a.0 + x.0, a.1 + x.1));
        kernel_ns += ns;
        // FLOP per ns is GFLOP/s; byte per ns is GB/s. A kernel that never
        // ran reports zero rates rather than NaN.
        let per_ns = |x: f64| if ns > 0.0 { x / ns } else { 0.0 };
        let (gflops, gbytes_s) = (per_ns(flops), per_ns(bytes));
        let frac = if gflops > 0.0 {
            roofline_frac(gflops, gbytes_s, peak_gflops, peak_gbytes_s)
        } else {
            0.0
        };
        res.metric(
            &format!("tensor.{op}.ms_per_step"),
            Summary::one(ns / 1e6 / steps),
        );
        res.metric(
            &format!("tensor.{op}.calls_per_step"),
            Summary::one(calls / steps),
        );
        res.metric(&format!("tensor.{op}.gflops"), Summary::one(gflops));
        res.metric(&format!("tensor.{op}.gbytes_s"), Summary::one(gbytes_s));
        res.metric(&format!("tensor.{op}.roofline_frac"), Summary::one(frac));
        let shapes: Vec<Value> = rep
            .shapes
            .iter()
            .filter(|(key, _)| key.op == op)
            .map(|(key, &count)| {
                Value::Arr(
                    key.dims
                        .iter()
                        .chain([&(count as usize)])
                        .map(|&d| num(d as f64))
                        .collect(),
                )
            })
            .collect();
        table.push((
            op.to_string(),
            obj(vec![("shapes_mknz_count", Value::Arr(shapes))]),
        ));
    }
    // The CSR transpose records no shape: only its time and calls.
    let (ns, calls) = span_sum(rep, "csr_transpose");
    kernel_ns += ns;
    res.metric(
        "tensor.csr_transpose.ms_per_step",
        Summary::one(ns / 1e6 / steps),
    );
    res.metric(
        "tensor.csr_transpose.calls_per_step",
        Summary::one(calls / steps),
    );
    res.metric(
        "tensor.kernel_share",
        Summary::one(kernel_ns / (t.wall_s * 1e9)),
    );
    res.info("kernel_shapes", Value::Obj(table));

    // Share of a search epoch its child spans cover (the alpha, omega and
    // cluster steps, and where present batch sampling, operator builds and
    // snapshot writes); the rest is work no span explains.
    if let Some(s) = rep.span("search/epoch") {
        let share = 1.0 - s.self_ns as f64 / s.total_ns as f64;
        res.info(
            "search_epoch_span_coverage",
            obj(vec![
                ("share", num(share)),
                ("required", num(0.95)),
                ("passed", Value::Bool(share >= 0.95)),
            ]),
        );
    }
    res.info("span_tree", Value::Str(rep.render_tree()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_flop_and_byte_formulas() {
        // 334×4057 · 4057×64: the paper-scale DBLP backward product.
        let (f, b) = flops_bytes("matmul_tn", [334, 4057, 64, 0]);
        assert_eq!(f, 2.0 * 334.0 * 4057.0 * 64.0);
        assert_eq!(b, 4.0 * (334.0 * 4057.0 + 4057.0 * 64.0 + 334.0 * 64.0));
        assert_eq!(
            flops_bytes("matmul", [2, 3, 4, 0]),
            (48.0, 4.0 * (6.0 + 12.0 + 8.0))
        );
        assert_eq!(
            flops_bytes("matmul_nt", [2, 3, 4, 0]),
            flops_bytes("matmul", [2, 3, 4, 0])
        );
    }

    #[test]
    fn csr_flop_and_byte_formulas() {
        // 10×20 CSR with 30 entries times a 20×8 block.
        let (f, b) = flops_bytes("spmm", [10, 20, 8, 30]);
        assert_eq!(f, 2.0 * 30.0 * 8.0);
        assert_eq!(
            b,
            8.0 * 30.0 + 8.0 * 11.0 + 4.0 * 20.0 * 8.0 + 4.0 * 10.0 * 8.0
        );
    }

    #[test]
    fn roofline_takes_the_lower_ceiling() {
        // Intensity 0.25 FLOP/B at 10 GB/s peak → memory bound at 2.5.
        assert!((roofline_frac(1.0, 4.0, 100.0, 10.0) - 0.4).abs() < 1e-12);
        // Intensity 100 → compute bound at 50.
        assert!((roofline_frac(25.0, 0.25, 50.0, 10.0) - 0.5).abs() < 1e-12);
    }
}
