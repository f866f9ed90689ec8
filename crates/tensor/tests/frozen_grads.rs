//! Gradients only where read: every multi-input op builds an input's
//! gradient only for an input that takes one, and [`frozen`] turns
//! trainable leaves into constants for a scope.
//!
//! For each op and each of its inputs, a backward with every input
//! trainable is compared against one with that input frozen: the frozen
//! input gets no gradient, and every other input's gradient (and the
//! value) is bitwise the same.

use std::panic::{catch_unwind, AssertUnwindSafe};

use autoac_tensor::pool::{thread_stats, with_pool};
use autoac_tensor::{frozen, no_grad, Act, Matrix, Tensor};

/// Deterministic mixed-sign values with exact zeros of both signs.
fn mat(rows: usize, cols: usize, seed: u32) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| {
            let v = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed.wrapping_mul(97));
            match v % 11 {
                0 => 0.0,
                1 => -0.0,
                r => (r as f32 - 5.5) * 0.37,
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

type OpFn = Box<dyn Fn(&[Tensor]) -> Tensor>;

/// A multi-input op: its name, input values and how it combines them.
struct Case {
    name: String,
    inputs: Vec<Matrix>,
    op: OpFn,
}

fn case(name: &str, inputs: Vec<Matrix>, op: impl Fn(&[Tensor]) -> Tensor + 'static) -> Case {
    Case { name: name.to_string(), inputs, op: Box::new(op) }
}

fn cases() -> Vec<Case> {
    let (src, dst) = (vec![0u32, 2, 4, 2, 1, 0], vec![1u32, 0, 1, 2, 2, 1]);
    let mut all = vec![
        case("add", vec![mat(3, 4, 1), mat(3, 4, 2)], |t| t[0].add(&t[1])),
        case("sub", vec![mat(3, 4, 1), mat(3, 4, 2)], |t| t[0].sub(&t[1])),
        case("mul", vec![mat(3, 4, 1), mat(3, 4, 2)], |t| t[0].mul(&t[1])),
        case("mul_scalar_tensor", vec![mat(3, 4, 1), mat(1, 1, 3)], |t| {
            t[0].mul_scalar_tensor(&t[1])
        }),
        case("matmul", vec![mat(3, 4, 1), mat(4, 5, 2)], |t| t[0].matmul(&t[1])),
        case("add_row_vec", vec![mat(3, 4, 1), mat(1, 4, 2)], |t| t[0].add_row_vec(&t[1])),
        case("mul_col_vec", vec![mat(3, 4, 1), mat(3, 1, 2)], |t| t[0].mul_col_vec(&t[1])),
        case("rowwise_dot", vec![mat(3, 4, 1), mat(3, 4, 2)], |t| t[0].rowwise_dot(&t[1])),
        case("concat_cols", vec![mat(3, 2, 1), mat(3, 3, 2), mat(3, 1, 3)], |t| {
            Tensor::concat_cols(&[&t[0], &t[1], &t[2]])
        }),
        case("concat_rows", vec![mat(2, 3, 1), mat(1, 3, 2), mat(4, 3, 3)], |t| {
            Tensor::concat_rows(&[&t[0], &t[1], &t[2]])
        }),
        case("edge_aggregate", vec![mat(5, 3, 1), mat(6, 1, 2)], move |t| {
            t[0].edge_aggregate(&src, &dst, &t[1], 3)
        }),
    ];
    let acts = [
        Act::Identity,
        Act::Relu,
        Act::LeakyRelu(0.05),
        Act::Elu,
        Act::Sigmoid,
        Act::Tanh,
    ];
    for act in acts {
        all.push(case(&format!("linear {act:?}"), vec![mat(4, 3, 1), mat(3, 5, 2)], move |t| {
            t[0].linear(&t[1], None, act)
        }));
        all.push(case(
            &format!("linear {act:?} + bias"),
            vec![mat(4, 3, 1), mat(3, 5, 2), mat(1, 5, 3)],
            move |t| t[0].linear(&t[1], Some(&t[2]), act),
        ));
    }
    all
}

/// Runs the op over trainable leaves (`frozen_input` frozen, if any) and
/// backpropagates a fixed seed: the value and each leaf's gradient.
fn run(c: &Case, frozen_input: Option<usize>) -> (Matrix, Vec<Option<Matrix>>) {
    let leaves: Vec<Tensor> = c.inputs.iter().cloned().map(Tensor::param).collect();
    let body = || {
        let out = (c.op)(&leaves);
        let (rows, cols) = out.shape();
        out.backward_with(mat(rows, cols, 9));
        out.to_matrix()
    };
    let value = match frozen_input {
        None => body(),
        Some(i) => frozen(&leaves[i..=i], body),
    };
    for (i, leaf) in leaves.iter().enumerate() {
        assert!(leaf.requires_grad(), "{}: input {i} must be trainable again", c.name);
    }
    (value, leaves.iter().map(Tensor::grad).collect())
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn freezing_an_input_drops_only_its_gradient() {
    for c in cases() {
        let (value, grads) = run(&c, None);
        assert!(grads.iter().all(Option::is_some), "{}: every input trains", c.name);
        for i in 0..c.inputs.len() {
            let (v, g) = run(&c, Some(i));
            assert_eq!(bits(&v), bits(&value), "{} (input {i} frozen): value", c.name);
            for (j, (got, want)) in g.iter().zip(&grads).enumerate() {
                if j == i {
                    assert!(got.is_none(), "{}: frozen input {i} got a gradient", c.name);
                } else {
                    let (got, want) = (got.as_ref().unwrap(), want.as_ref().unwrap());
                    assert_eq!(bits(got), bits(want), "{} (input {i} frozen): grad {j}", c.name);
                }
            }
        }
    }
}

#[test]
fn an_op_over_frozen_or_constant_inputs_records_no_node() {
    for c in cases() {
        let mut leaves: Vec<Tensor> = c.inputs.iter().cloned().map(Tensor::param).collect();
        // The first input a constant, the rest frozen.
        leaves[0] = Tensor::constant(c.inputs[0].clone());
        let out = frozen(&leaves[1..], || (c.op)(&leaves));
        assert_eq!(out.op_name(), "leaf", "{}", c.name);
        assert!(out.parents().is_empty() && !out.requires_grad(), "{}", c.name);
    }
}

#[test]
fn frozen_restores_each_flag_on_return() {
    let (p, q) = (Tensor::param(Matrix::ones(2, 2)), Tensor::param(Matrix::ones(2, 2)));
    let c = Tensor::constant(Matrix::ones(2, 2));
    frozen(&[p.clone(), c.clone(), p.clone()], || {
        assert!(!p.requires_grad() && !c.requires_grad());
        assert!(q.requires_grad(), "only the listed leaves freeze");
        // Nested scopes restore to the outer scope's state.
        frozen(std::slice::from_ref(&q), || assert!(!q.requires_grad()));
        assert!(q.requires_grad());
        p.add(&q).sum().backward();
    });
    assert!(p.requires_grad(), "a leaf listed twice gets its original flag back");
    assert!(!c.requires_grad(), "a constant stays constant");
    assert!(p.grad().is_none());
    assert!(q.grad().is_some());
}

#[test]
fn frozen_restores_each_flag_after_a_caught_panic() {
    let p = Tensor::param(Matrix::ones(2, 2));
    let caught = catch_unwind(AssertUnwindSafe(|| {
        frozen(std::slice::from_ref(&p), || {
            assert!(!p.requires_grad());
            panic!("inside the frozen scope");
        })
    }));
    assert!(caught.is_err());
    assert!(p.requires_grad(), "the flag must come back when the scope unwinds");
}

#[test]
#[should_panic(expected = "frozen: `add`")]
fn frozen_rejects_an_op_result() {
    let p = Tensor::param(Matrix::ones(2, 2));
    frozen(&[p.add(&p)], || ());
}

#[test]
fn linear_runs_only_the_kernels_its_trainable_inputs_need() {
    let spans = |x: &Tensor, w: &Tensor, freeze: &[Tensor]| {
        let _ = autoac_obs::drain();
        autoac_obs::with_obs(true, || {
            frozen(freeze, || x.linear(w, None, Act::Relu).sum().backward());
        });
        let rep = autoac_obs::drain();
        (rep.span("matmul_nt").is_some(), rep.span("matmul_tn").is_some())
    };
    let (x, w) = (Tensor::param(mat(6, 4, 1)), Tensor::param(mat(4, 3, 2)));
    assert_eq!(spans(&x, &w, &[]), (true, true), "dX and dW");
    let frozen_w = std::slice::from_ref(&w);
    assert_eq!(spans(&x, &w, frozen_w), (true, false), "frozen W: no matmul_tn");
    let constant_x = Tensor::constant(mat(6, 4, 1));
    assert_eq!(spans(&constant_x, &w, &[]), (false, true), "constant x: no matmul_nt");
}

/// Pool allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    with_pool(true, || {
        let before = thread_stats();
        f();
        let after = thread_stats();
        after.hits + after.misses - before.hits - before.misses
    })
}

#[test]
fn an_op_that_records_no_node_copies_no_operand() {
    // Under no_grad each op allocates what its Matrix-level forward does:
    // no operand copies for a backward that will never run.
    let (a, b) = (Tensor::param(mat(8, 6, 1)), Tensor::param(mat(6, 5, 2)));
    let col = Tensor::param(mat(8, 1, 3));
    let matmul = allocations(|| drop(a.value().matmul(&b.value())));
    assert_eq!(allocations(|| drop(no_grad(|| a.matmul(&b)))), matmul, "matmul");
    let linear = || drop(no_grad(|| a.linear(&b, None, Act::Identity)));
    assert_eq!(allocations(linear), matmul, "linear");
    let mul = allocations(|| drop(a.value().mul(&a.value())));
    assert_eq!(allocations(|| drop(no_grad(|| a.mul(&a)))), mul, "mul");
    let scaled = allocations(|| drop(a.value().mul_col_vec(&col.value())));
    assert_eq!(allocations(|| drop(no_grad(|| a.mul_col_vec(&col)))), scaled, "mul_col_vec");
}
