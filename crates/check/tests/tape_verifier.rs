//! Property-based tests for the tape verifier: every well-formed graph the
//! op layer can build must verify clean, and a shape corruption injected
//! anywhere in the graph must be rejected with a diagnostic naming the
//! offending op.

use autoac_check::tape;
use autoac_tensor::{chk, Matrix, Tensor};
use proptest::prelude::*;

/// Unary, shape-aware ops the random chains draw from. Each is a *known*
/// op to the verifier's shape table, so corruptions are always detectable.
#[derive(Debug, Clone, Copy)]
enum OpChoice {
    Relu,
    Tanh,
    Sigmoid,
    Square,
    Scale,
    AddScalar,
    Transpose,
}

fn op_choice() -> impl Strategy<Value = OpChoice> {
    (0usize..7).prop_map(|i| match i {
        0 => OpChoice::Relu,
        1 => OpChoice::Tanh,
        2 => OpChoice::Sigmoid,
        3 => OpChoice::Square,
        4 => OpChoice::Scale,
        5 => OpChoice::AddScalar,
        _ => OpChoice::Transpose,
    })
}

/// Applies one op, returning the new tensor and its (rows, cols).
fn apply(t: &Tensor, c: OpChoice, rows: usize, cols: usize) -> (Tensor, usize, usize) {
    match c {
        OpChoice::Relu => (t.relu(), rows, cols),
        OpChoice::Tanh => (t.tanh(), rows, cols),
        OpChoice::Sigmoid => (t.sigmoid(), rows, cols),
        OpChoice::Square => (t.square(), rows, cols),
        OpChoice::Scale => (t.scale(0.5), rows, cols),
        OpChoice::AddScalar => (t.add_scalar(0.25), rows, cols),
        OpChoice::Transpose => (t.transpose(), cols, rows),
    }
}

/// Builds a random chain `param -> unary ops -> matmul(const) -> sum` and
/// returns (loss, every intermediate op tensor in order).
fn build_chain(rows: usize, cols: usize, chain: &[OpChoice]) -> (Tensor, Vec<Tensor>) {
    let p = Tensor::new(Matrix::ones(rows, cols), true);
    let (mut t, mut r, mut c) = (p, rows, cols);
    let mut nodes = Vec::new();
    for &choice in chain {
        let (nt, nr, nc) = apply(&t, choice, r, c);
        t = nt;
        r = nr;
        c = nc;
        nodes.push(t.clone());
    }
    let k = Tensor::new(Matrix::ones(c, 2), false);
    let h = t.matmul(&k);
    nodes.push(h.clone());
    let loss = h.sum();
    nodes.push(loss.clone());
    (loss, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_valid_graphs_verify_clean(
        rows in 2usize..6,
        cols in 2usize..6,
        chain in proptest::collection::vec(op_choice(), 0..6),
    ) {
        let (loss, nodes) = build_chain(rows, cols, &chain);
        let report = tape::verify_loss(&loss);
        prop_assert!(report.is_clean(), "clean graph rejected:\n{}", report.render());
        // Every node we built (plus param + constant) was inspected.
        prop_assert!(report.inspected >= nodes.len() + 2);
    }

    #[test]
    fn corrupted_node_is_rejected_naming_the_op(
        rows in 2usize..6,
        cols in 2usize..6,
        chain in proptest::collection::vec(op_choice(), 1..6),
        pick in 0usize..32,
    ) {
        let (loss, nodes) = build_chain(rows, cols, &chain);
        let victim = &nodes[pick % nodes.len()];
        let op = victim.op_name();
        // Shape corruption behind the tape's back: no op ever produces a
        // 13x17 from these chains.
        victim.update_value(|m| *m = Matrix::ones(13, 17));
        let report = tape::verify_loss(&loss);
        prop_assert!(!report.is_clean(), "corruption of `{op}` not detected");
        let named = report
            .diagnostics
            .iter()
            .any(|d| d.message.contains(&format!("`{op}`")));
        prop_assert!(named, "no diagnostic names `{op}`:\n{}", report.render());
    }
}

#[test]
fn backward_hook_panics_on_corruption_only_when_enabled() {
    let build = || {
        let x = Tensor::new(Matrix::ones(3, 4), true);
        let w = Tensor::new(Matrix::ones(4, 2), true);
        let h = x.matmul(&w);
        let loss = h.relu().sum();
        h.update_value(|m| *m = Matrix::ones(9, 9));
        loss
    };
    // Disabled: the hook is a no-op even on a corrupted graph.
    chk::with_check(false, || {
        tape::verify_backward_if_enabled(&build());
    });
    // Enabled: the hook panics with the rendered report.
    let err = std::panic::catch_unwind(|| {
        chk::with_check(true, || {
            tape::verify_backward_if_enabled(&build());
        });
    })
    .expect_err("corrupted graph must panic under AUTOAC_CHECK");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("matmul"), "panic should name the op: {msg}");
}

#[test]
fn edge_aggregate_shape_rule_reports_a_wrong_width_or_weight_column() {
    // Three source rows aggregated over four edges into two destinations.
    let build = || {
        let x = Tensor::new(Matrix::ones(3, 4), true);
        let w = Tensor::new(Matrix::ones(4, 1), true);
        let agg = x.edge_aggregate(&[0, 1, 2, 2], &[1, 1, 0, 1], &w, 2);
        let loss = agg.sum();
        (loss, agg, w)
    };
    let (loss, agg, _) = build();
    assert_eq!(agg.op_name(), "edge_aggregate");
    let report = tape::verify_loss(&loss);
    assert!(report.is_clean(), "clean aggregation rejected:\n{}", report.render());

    // The output lost a column: the width must survive the aggregation.
    agg.update_value(|m| *m = Matrix::ones(2, 3));
    let report = tape::verify_loss(&loss);
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "shape-mismatch" && d.message.contains("`edge_aggregate`"))
        .unwrap_or_else(|| panic!("wrong output width not reported:\n{}", report.render()));
    assert!(hit.message.contains("column count must survive"), "{}", hit.message);

    // The weights are no longer one column.
    let (loss, _, w) = build();
    w.update_value(|m| *m = Matrix::ones(4, 2));
    let report = tape::verify_loss(&loss);
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.message.contains("`edge_aggregate`"))
        .unwrap_or_else(|| panic!("two-column weights not reported:\n{}", report.render()));
    assert!(hit.message.contains("Ex1 column"), "{}", hit.message);
}
