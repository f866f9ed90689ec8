//! Autograd tape verifier.
//!
//! Walks the recorded graph **before** `backward()` runs and statically
//! re-derives what every op's output shape must be from its parents' shapes
//! (the same shape algebra the kernels implement), flags:
//!
//! - **shape-mismatch** — a node whose stored value no longer satisfies its
//!   op's shape rule (e.g. a fused backward closure or an in-place
//!   `update_value` corrupted an intermediate). Gradient accumulation shapes
//!   follow from these rules (every op's parent gradient has the parent's
//!   shape), so checking the forward rules checks the accumulation too; the
//!   runtime assert in `accum_grad` is the belt-and-braces second line.
//! - **arity-mismatch** — an op recorded with the wrong number of parents.
//! - **topo-violation** — a parent created *after* its child. Node ids are
//!   allocated monotonically, so `parent.id() < child.id()` must hold for
//!   every edge; a violation means the tape was stitched together out of
//!   order and reverse-id iteration would fire closures early.
//! - **dead-param** — a parameter unreachable from the loss: it silently
//!   never trains. [`verify_with_params`] takes named parameters and an
//!   allowlist for parameters that are legitimately unused in a given mode.
//! - **frozen-param** — a parameter with `requires_grad == false`: reachable
//!   or not, gradients will never flow into it.
//!
//! Ops the verifier does not know are skipped (never a false positive);
//! every op in `crates/tensor/src/ops/` plus `spmm` has a rule below.

use std::collections::{HashMap, HashSet};

use autoac_tensor::Tensor;

use crate::diag::{Analysis, Diagnostic, Report};

type Shape = (usize, usize);

/// Re-derives the output shape constraint for `op` from parent shapes.
/// `Ok(())` means consistent; `Err` carries the human-readable reason.
/// Unknown ops are accepted (zero false positives by construction).
fn shape_rule(op: &str, out: Shape, ps: &[Shape]) -> Result<(), String> {
    let arity = |want: usize| -> Result<(), String> {
        if ps.len() == want {
            Ok(())
        } else {
            Err(format!("expected {want} parent(s), recorded {}", ps.len()))
        }
    };
    let same_as_first = |out: Shape, ps: &[Shape]| -> Result<(), String> {
        if out == ps[0] {
            Ok(())
        } else {
            Err(format!(
                "output {}x{} must match input {}x{}",
                out.0, out.1, ps[0].0, ps[0].1
            ))
        }
    };
    match op {
        // Elementwise binary: both parents and the output share one shape.
        "add" | "sub" | "mul" => {
            arity(2)?;
            if ps[0] != ps[1] {
                return Err(format!(
                    "operand shapes differ: {}x{} vs {}x{}",
                    ps[0].0, ps[0].1, ps[1].0, ps[1].1
                ));
            }
            same_as_first(out, ps)
        }
        // Elementwise unary: output preserves the input shape.
        "scale" | "add_scalar" | "relu" | "leaky_relu" | "elu" | "sigmoid" | "tanh" | "exp"
        | "ln" | "sqrt" | "square" | "dropout" | "softmax_rows" | "log_softmax_rows"
        | "group_softmax" => {
            arity(1)?;
            same_as_first(out, ps)
        }
        "mul_scalar_tensor" => {
            arity(2)?;
            if ps[1] != (1, 1) {
                return Err(format!("scalar operand must be 1x1, got {}x{}", ps[1].0, ps[1].1));
            }
            same_as_first(out, ps)
        }
        "matmul" => {
            arity(2)?;
            if ps[0].1 != ps[1].0 {
                return Err(format!(
                    "inner dimensions differ: {}x{} · {}x{}",
                    ps[0].0, ps[0].1, ps[1].0, ps[1].1
                ));
            }
            if out != (ps[0].0, ps[1].1) {
                return Err(format!(
                    "product of {}x{} · {}x{} must be {}x{}, recorded {}x{}",
                    ps[0].0, ps[0].1, ps[1].0, ps[1].1, ps[0].0, ps[1].1, out.0, out.1
                ));
            }
            Ok(())
        }
        "transpose" => {
            arity(1)?;
            if out != (ps[0].1, ps[0].0) {
                return Err(format!(
                    "transpose of {}x{} must be {}x{}, recorded {}x{}",
                    ps[0].0, ps[0].1, ps[0].1, ps[0].0, out.0, out.1
                ));
            }
            Ok(())
        }
        "add_row_vec" => {
            arity(2)?;
            if ps[1] != (1, ps[0].1) {
                return Err(format!(
                    "bias must be 1x{}, got {}x{}",
                    ps[0].1, ps[1].0, ps[1].1
                ));
            }
            same_as_first(out, ps)
        }
        "mul_col_vec" => {
            arity(2)?;
            if ps[1] != (ps[0].0, 1) {
                return Err(format!(
                    "column vector must be {}x1, got {}x{}",
                    ps[0].0, ps[1].0, ps[1].1
                ));
            }
            same_as_first(out, ps)
        }
        "rowwise_dot" => {
            arity(2)?;
            if ps[0] != ps[1] {
                return Err(format!(
                    "operand shapes differ: {}x{} vs {}x{}",
                    ps[0].0, ps[0].1, ps[1].0, ps[1].1
                ));
            }
            if out != (ps[0].0, 1) {
                return Err(format!("output must be {}x1, recorded {}x{}", ps[0].0, out.0, out.1));
            }
            Ok(())
        }
        "concat_cols" => {
            if ps.is_empty() {
                return Err("no parents recorded".into());
            }
            let rows = ps[0].0;
            if ps.iter().any(|p| p.0 != rows) {
                return Err("parts disagree on row count".into());
            }
            let cols: usize = ps.iter().map(|p| p.1).sum();
            if out != (rows, cols) {
                return Err(format!(
                    "concat of {} parts must be {}x{}, recorded {}x{}",
                    ps.len(),
                    rows,
                    cols,
                    out.0,
                    out.1
                ));
            }
            Ok(())
        }
        "concat_rows" => {
            if ps.is_empty() {
                return Err("no parents recorded".into());
            }
            let cols = ps[0].1;
            if ps.iter().any(|p| p.1 != cols) {
                return Err("parts disagree on column count".into());
            }
            let rows: usize = ps.iter().map(|p| p.0).sum();
            if out != (rows, cols) {
                return Err(format!(
                    "concat of {} parts must be {}x{}, recorded {}x{}",
                    ps.len(),
                    rows,
                    cols,
                    out.0,
                    out.1
                ));
            }
            Ok(())
        }
        "slice_cols" => {
            arity(1)?;
            if out.0 != ps[0].0 || out.1 > ps[0].1 {
                return Err(format!(
                    "slice of {}x{} cannot be {}x{}",
                    ps[0].0, ps[0].1, out.0, out.1
                ));
            }
            Ok(())
        }
        "linear" => {
            if ps.len() != 2 && ps.len() != 3 {
                return Err(format!("expected 2 or 3 parents, recorded {}", ps.len()));
            }
            if ps[0].1 != ps[1].0 {
                return Err(format!(
                    "inner dimensions differ: {}x{} · {}x{}",
                    ps[0].0, ps[0].1, ps[1].0, ps[1].1
                ));
            }
            if let Some(b) = ps.get(2) {
                if *b != (1, ps[1].1) {
                    return Err(format!("bias must be 1x{}, got {}x{}", ps[1].1, b.0, b.1));
                }
            }
            if out != (ps[0].0, ps[1].1) {
                return Err(format!(
                    "affine output must be {}x{}, recorded {}x{}",
                    ps[0].0, ps[1].1, out.0, out.1
                ));
            }
            Ok(())
        }
        // Row-indexing ops change the row count data-dependently; the
        // column count must survive.
        "gather_rows" | "scatter_add_rows" | "spmm" => {
            arity(1)?;
            if out.1 != ps[0].1 {
                return Err(format!(
                    "column count must survive: input {}x{}, output {}x{}",
                    ps[0].0, ps[0].1, out.0, out.1
                ));
            }
            Ok(())
        }
        // Weighted edge aggregation: `(n_in, d)` rows times an `(E, 1)`
        // weight column, summed into `(num_out, d)`. Both row counts are
        // data-dependent; the weight column and the width are not.
        "edge_aggregate" => {
            arity(2)?;
            if ps[1].1 != 1 {
                return Err(format!(
                    "edge weights must be an Ex1 column, got {}x{}",
                    ps[1].0, ps[1].1
                ));
            }
            if out.1 != ps[0].1 {
                return Err(format!(
                    "column count must survive: input {}x{}, output {}x{}",
                    ps[0].0, ps[0].1, out.0, out.1
                ));
            }
            Ok(())
        }
        // Scalar-valued reductions and losses.
        "sum" | "nll_loss_rows" | "multilabel_bce_rows" => {
            arity(1)?;
            if out != (1, 1) {
                return Err(format!("scalar output must be 1x1, recorded {}x{}", out.0, out.1));
            }
            Ok(())
        }
        "bce_with_logits" => {
            arity(1)?;
            if ps[0].1 != 1 {
                return Err(format!("input must be an Ex1 column, got {}x{}", ps[0].0, ps[0].1));
            }
            if out != (1, 1) {
                return Err(format!("scalar output must be 1x1, recorded {}x{}", out.0, out.1));
            }
            Ok(())
        }
        "sum_rows" => {
            arity(1)?;
            if out != (ps[0].0, 1) {
                return Err(format!("output must be {}x1, recorded {}x{}", ps[0].0, out.0, out.1));
            }
            Ok(())
        }
        "sum_cols" => {
            arity(1)?;
            if out != (1, ps[0].1) {
                return Err(format!("output must be 1x{}, recorded {}x{}", ps[0].1, out.0, out.1));
            }
            Ok(())
        }
        // Leaves and ops this verifier does not model.
        _ => Ok(()),
    }
}

/// Walks every node reachable from `loss` (through all parents, including
/// non-differentiable constants — their shapes feed the rules) and checks
/// shape rules and topo-order integrity. `Report.inspected` counts visited
/// nodes.
pub fn verify_loss(loss: &Tensor) -> Report {
    let mut report = Report::new();
    let mut visited: HashSet<u64> = HashSet::new();
    let mut stack = vec![loss.clone()];
    visited.insert(loss.id());
    while let Some(t) = stack.pop() {
        report.inspected += 1;
        if !t.is_leaf() {
            let ps: Vec<(usize, usize)> = t.parents().iter().map(Tensor::shape).collect();
            if let Err(why) = shape_rule(t.op_name(), t.shape(), &ps) {
                report.push(Diagnostic {
                    analysis: Analysis::Tape,
                    rule: "shape-mismatch",
                    message: format!("op `{}`: {}", t.op_name(), why),
                    location: format!("node #{}", t.id()),
                });
            }
            for p in t.parents() {
                if p.id() >= t.id() {
                    report.push(Diagnostic {
                        analysis: Analysis::Tape,
                        rule: "topo-violation",
                        message: format!(
                            "op `{}` (node #{}) has parent `{}` (node #{}) created after it",
                            t.op_name(),
                            t.id(),
                            p.op_name(),
                            p.id()
                        ),
                        location: format!("node #{}", t.id()),
                    });
                }
            }
        }
        for p in t.parents() {
            if visited.insert(p.id()) {
                stack.push(p.clone());
            }
        }
    }
    report
}

/// Ids of every node reachable from `loss`.
fn reachable_ids(loss: &Tensor) -> HashSet<u64> {
    let mut visited: HashSet<u64> = HashSet::new();
    let mut stack = vec![loss.clone()];
    visited.insert(loss.id());
    while let Some(t) = stack.pop() {
        for p in t.parents() {
            if visited.insert(p.id()) {
                stack.push(p.clone());
            }
        }
    }
    visited
}

/// [`verify_loss`] plus dead/frozen-parameter detection over named
/// parameters. `allow_dead` lists parameter names that are legitimately
/// unreachable in this configuration (each entry should carry a comment at
/// the call site explaining why).
pub fn verify_with_params(
    loss: &Tensor,
    params: &[(String, Tensor)],
    allow_dead: &[&str],
) -> Report {
    let mut report = verify_loss(loss);
    let reachable = reachable_ids(loss);
    let mut seen_names: HashMap<&str, usize> = HashMap::new();
    for (name, p) in params {
        *seen_names.entry(name.as_str()).or_insert(0) += 1;
        if !p.requires_grad() {
            report.push(Diagnostic {
                analysis: Analysis::Tape,
                rule: "frozen-param",
                message: format!(
                    "parameter `{name}` ({}x{}) has requires_grad == false and can never train",
                    p.shape().0,
                    p.shape().1
                ),
                location: format!("node #{}", p.id()),
            });
        }
        if !reachable.contains(&p.id()) && !allow_dead.contains(&name.as_str()) {
            report.push(Diagnostic {
                analysis: Analysis::Tape,
                rule: "dead-param",
                message: format!(
                    "parameter `{name}` ({}x{}) is unreachable from the loss and silently never trains",
                    p.shape().0,
                    p.shape().1
                ),
                location: format!("node #{}", p.id()),
            });
        }
    }
    report
}

/// Trainer hook: when `AUTOAC_CHECK` is armed, verifies the tape (shape and
/// topo rules — *not* dead-parameter detection, which is configuration
/// dependent and audited separately) and panics with the full report on any
/// finding. A no-op costing one thread-local read when checks are off.
pub fn verify_backward_if_enabled(loss: &Tensor) {
    if !autoac_tensor::chk::enabled() {
        return;
    }
    let report = verify_loss(loss);
    assert!(
        report.is_clean(),
        "autoac-check: tape verification failed before backward():\n{}",
        report.render()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoac_tensor::{Matrix, Tensor};

    #[test]
    fn clean_graph_is_accepted() {
        let x = Tensor::param(Matrix::ones(3, 4));
        let w = Tensor::param(Matrix::ones(4, 2));
        let b = Tensor::param(Matrix::ones(1, 2));
        let loss = x.matmul(&w).add_row_vec(&b).relu().sum();
        let report = verify_loss(&loss);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.inspected >= 7, "walk must cover the whole graph");
    }

    #[test]
    fn corrupted_intermediate_is_rejected_naming_the_op() {
        let x = Tensor::param(Matrix::ones(3, 4));
        let w = Tensor::param(Matrix::ones(4, 2));
        let h = x.matmul(&w);
        let loss = h.sum();
        // Simulate a corrupting in-place mutation of the recorded value.
        h.update_value(|m| *m = Matrix::ones(5, 5));
        let report = verify_loss(&loss);
        assert!(!report.is_clean());
        let msg = report.render();
        assert!(msg.contains("`matmul`"), "must name the offending op: {msg}");
    }

    #[test]
    fn dead_and_frozen_params_are_flagged_and_allowlisted() {
        let used = Tensor::param(Matrix::ones(2, 2));
        let dead = Tensor::param(Matrix::ones(3, 3));
        let frozen = Tensor::new(Matrix::ones(2, 2), false);
        let loss = used.sum();
        let params = vec![
            ("used".to_string(), used.clone()),
            ("dead".to_string(), dead.clone()),
            ("frozen".to_string(), frozen.clone()),
        ];
        let report = verify_with_params(&loss, &params, &[]);
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"dead-param"), "{rules:?}");
        assert!(rules.contains(&"frozen-param"), "{rules:?}");
        assert!(
            report.render().contains("`dead`"),
            "must name the dead parameter: {}",
            report.render()
        );
        // Allowlisting silences dead-param (frozen stays flagged: frozen is
        // a property of the tensor, not of reachability).
        let report = verify_with_params(&loss, &params, &["dead", "frozen"]);
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert!(!rules.contains(&"dead-param"), "{rules:?}");
        assert!(rules.contains(&"frozen-param"), "{rules:?}");
    }
}
