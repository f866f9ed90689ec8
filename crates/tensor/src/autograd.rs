//! Tape-free reverse-mode automatic differentiation.
//!
//! Every [`Tensor`] is a reference-counted node in an implicit DAG. Forward
//! ops record a backward closure that, given the upstream gradient, scatters
//! gradient contributions into the op's parents. Calling
//! [`Tensor::backward`] on a scalar loss runs the closures in reverse
//! topological order.
//!
//! The graph is rebuilt on every forward pass (define-by-run); parameters are
//! leaf tensors that persist across passes and accumulate gradients until
//! [`Tensor::zero_grad`] is called.
//!
//! Gradients exist only where something reads them. An op records a node
//! only when some input [takes a gradient](Tensor::takes_grad), and builds
//! (and captures operands for) only those inputs' gradients; [`no_grad`]
//! turns recording off and [`frozen`] makes chosen leaves constants for a
//! scope, as each level of the bi-level search does to the other's.

use std::cell::{Cell, Ref, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::matrix::Matrix;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Runs `f` with gradient recording disabled (evaluation mode). Ops executed
/// inside produce constant tensors with no parents, which skips closure
/// allocation and graph retention.
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    let prev = GRAD_ENABLED.with(|g| g.replace(false));
    let out = f();
    GRAD_ENABLED.with(|g| g.set(prev));
    out
}

/// True when ops should record backward closures.
pub fn grad_enabled() -> bool {
    GRAD_ENABLED.with(|g| g.get())
}

/// Runs `f` with the given leaves treated as constants: an op run inside
/// `f` records no gradient path into them, so no backward computes or
/// accumulates their gradients through it. Each leaf gets its previous
/// `requires_grad` back when `f` returns or unwinds.
///
/// # Panics
/// Panics if a tensor is not a leaf (an op result's flag is derived from
/// its inputs, so there is nothing to freeze).
pub fn frozen<T>(leaves: &[Tensor], f: impl FnOnce() -> T) -> T {
    /// Restores the saved flags in reverse, so a leaf listed twice ends
    /// with the flag it had before the first entry.
    struct Restore(Vec<(Tensor, bool)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            for (t, flag) in self.0.iter().rev() {
                t.node.requires_grad.set(*flag);
            }
        }
    }
    for t in leaves {
        assert!(t.is_leaf(), "frozen: `{}` (node #{}) is not a leaf", t.op_name(), t.id());
    }
    let _restore =
        Restore(leaves.iter().map(|t| (t.clone(), t.node.requires_grad.replace(false))).collect());
    f()
}

pub(crate) type BackwardFn = Box<dyn Fn(&Matrix)>;

pub(crate) struct Node {
    id: u64,
    value: RefCell<Matrix>,
    grad: RefCell<Option<Matrix>>,
    /// A `Cell` so [`frozen`] can clear it on a leaf for a scope.
    requires_grad: Cell<bool>,
    parents: Vec<Tensor>,
    backward: Option<BackwardFn>,
    /// Name of the op that produced this node (`"leaf"` for leaves) —
    /// captured from [`crate::chk::current_op`] so sanitizer reports and the
    /// tape verifier can name the op instead of a bare node id.
    op: &'static str,
}

thread_local! {
    static DROP_STATE: RefCell<DropState> = RefCell::new(DropState { queue: Vec::new(), draining: false });
}

struct DropState {
    queue: Vec<(Vec<Tensor>, Option<BackwardFn>)>,
    draining: bool,
}

// Long op chains (e.g. many-step PPNP propagation or deep unrolled loops)
// form deep `Rc` chains; the default recursive drop would overflow the
// stack. Instead, each node hands its parents and backward closure to a
// thread-local queue that the outermost drop drains iteratively.
impl Drop for Node {
    fn drop(&mut self) {
        if self.parents.is_empty() && self.backward.is_none() {
            return; // leaf: nothing to defer
        }
        let parents = std::mem::take(&mut self.parents);
        let backward = self.backward.take();
        let drain_here = DROP_STATE.with(|s| {
            let mut st = s.borrow_mut();
            st.queue.push((parents, backward));
            !std::mem::replace(&mut st.draining, true)
        });
        if drain_here {
            loop {
                let item = DROP_STATE.with(|s| s.borrow_mut().queue.pop());
                match item {
                    // Dropping may re-enter `Node::drop`, which only pushes
                    // onto the queue (recursion depth stays O(1)).
                    Some(item) => drop(item),
                    None => break,
                }
            }
            DROP_STATE.with(|s| s.borrow_mut().draining = false);
        }
    }
}

/// A matrix-valued node in the autograd graph.
///
/// Cloning a `Tensor` is cheap (reference-count bump) and clones share both
/// value and gradient storage.
#[derive(Clone)]
pub struct Tensor {
    pub(crate) node: Rc<Node>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.node.value.borrow();
        write!(
            f,
            "Tensor(id={}, {}x{}, requires_grad={})",
            self.node.id,
            v.rows(),
            v.cols(),
            self.node.requires_grad.get()
        )
    }
}

impl Tensor {
    /// Creates a leaf tensor. `requires_grad` marks it as a trainable
    /// parameter whose gradient is retained after `backward`.
    pub fn new(value: Matrix, requires_grad: bool) -> Self {
        Tensor {
            node: Rc::new(Node {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad: Cell::new(requires_grad),
                parents: Vec::new(),
                backward: None,
                op: "leaf",
            }),
        }
    }

    /// Creates a trainable parameter leaf.
    pub fn param(value: Matrix) -> Self {
        Self::new(value, true)
    }

    /// Creates a constant (non-differentiable) leaf.
    pub fn constant(value: Matrix) -> Self {
        Self::new(value, false)
    }

    /// Scalar constant as a `(1, 1)` tensor.
    pub fn scalar(v: f32) -> Self {
        Self::constant(Matrix::full(1, 1, v))
    }

    /// Internal constructor for op results. The node is recorded only when
    /// some parent [takes a gradient](Tensor::takes_grad); only then is
    /// `backward` called (with the op's output value) to build the closure,
    /// so an op that records no node captures and copies nothing.
    pub(crate) fn from_op(
        value: Matrix,
        parents: &[&Tensor],
        backward: impl FnOnce(&Matrix) -> BackwardFn,
    ) -> Self {
        if !parents.iter().any(|p| p.takes_grad()) {
            return Self::constant(value);
        }
        let backward = backward(&value);
        Tensor {
            node: Rc::new(Node {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad: Cell::new(true),
                parents: parents.iter().map(|&p| p.clone()).collect(),
                backward: Some(backward),
                op: crate::chk::current_op(),
            }),
        }
    }

    /// Unique node id (monotonically increasing with creation order).
    pub fn id(&self) -> u64 {
        self.node.id
    }

    /// Name of the op that produced this node; `"leaf"` for leaves and for
    /// op results that recorded no node (under [`no_grad`], or over
    /// constant or [`frozen`] inputs only: their history is dropped).
    pub fn op_name(&self) -> &'static str {
        self.node.op
    }

    /// The op inputs this node was recorded with. Empty for leaves. Unlike
    /// the internal topo walk this exposes *all* parents, including
    /// non-differentiable constants — the tape verifier needs their shapes.
    pub fn parents(&self) -> &[Tensor] {
        &self.node.parents
    }

    /// True for tensors with no recorded history (parameters, constants).
    pub fn is_leaf(&self) -> bool {
        self.node.parents.is_empty() && self.node.backward.is_none()
    }

    /// Whether this tensor participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.node.requires_grad.get()
    }

    /// The one predicate for "an op over this input computes its gradient":
    /// gradients are enabled and the input requires one. Multi-input ops
    /// build (and capture operands for) each input's gradient only when it
    /// holds.
    pub(crate) fn takes_grad(&self) -> bool {
        grad_enabled() && self.requires_grad()
    }

    /// `Some(self)` when [`Tensor::takes_grad`]: the handle a backward
    /// closure scatters this input's gradient into.
    pub(crate) fn grad_target(&self) -> Option<Tensor> {
        self.takes_grad().then(|| self.clone())
    }

    /// Borrow of the forward value.
    pub fn value(&self) -> Ref<'_, Matrix> {
        self.node.value.borrow()
    }

    /// Owned copy of the forward value.
    pub fn to_matrix(&self) -> Matrix {
        self.node.value.borrow().clone()
    }

    /// `(rows, cols)` of the forward value.
    pub fn shape(&self) -> (usize, usize) {
        self.node.value.borrow().shape()
    }

    /// Scalar value of a `(1,1)` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1x1`.
    pub fn item(&self) -> f32 {
        let v = self.node.value.borrow();
        assert_eq!(v.shape(), (1, 1), "item: tensor is not a scalar");
        v.data()[0]
    }

    /// Replaces the forward value in place (used by optimizers and proximal
    /// projections on leaves).
    ///
    /// # Panics
    /// Panics if the new value has a different shape.
    pub fn set_value(&self, value: Matrix) {
        let mut v = self.node.value.borrow_mut();
        assert_eq!(v.shape(), value.shape(), "set_value: shape mismatch");
        *v = value;
    }

    /// Applies `f` to the stored value in place.
    pub fn update_value(&self, f: impl FnOnce(&mut Matrix)) {
        f(&mut self.node.value.borrow_mut());
    }

    /// Owned copy of the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Matrix> {
        self.node.grad.borrow().clone()
    }

    /// Borrow of the accumulated gradient, if any (no copy — optimizers
    /// read gradients through this instead of cloning every step).
    pub fn grad_ref(&self) -> Option<Ref<'_, Matrix>> {
        Ref::filter_map(self.node.grad.borrow(), Option::as_ref).ok()
    }

    /// Moves the accumulated gradient out, leaving the slot empty. The
    /// caller takes ownership of the (pooled) buffer instead of copying it.
    pub fn take_grad(&self) -> Option<Matrix> {
        self.node.grad.borrow_mut().take()
    }

    /// Applies `f` to the accumulated gradient in place, if any.
    pub fn with_grad_mut(&self, f: impl FnOnce(&mut Matrix)) {
        if let Some(g) = self.node.grad.borrow_mut().as_mut() {
            f(g);
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.node.grad.borrow_mut() = None;
    }

    /// Under `AUTOAC_CHECK`, every gradient contribution must match the
    /// shape of the value it flows into — a mismatch means a backward
    /// closure scattered into the wrong parent or mis-transposed.
    fn check_grad_shape(&self, g: &Matrix) {
        if !crate::chk::enabled() {
            return;
        }
        let vs = self.node.value.borrow().shape();
        if g.shape() != vs {
            panic!(
                "autoac-check: gradient accumulation shape mismatch into `{}` \
                 (node #{}): value is {}x{} but gradient is {}x{} (context: {})",
                self.node.op,
                self.node.id,
                vs.0,
                vs.1,
                g.rows(),
                g.cols(),
                crate::chk::op_context(),
            );
        }
    }

    /// Accumulates `g` into this node's gradient buffer.
    pub(crate) fn accum_grad(&self, g: &Matrix) {
        if !self.requires_grad() {
            return;
        }
        self.check_grad_shape(g);
        let mut slot = self.node.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => existing.add_assign(g),
            None => *slot = Some(g.clone()),
        }
    }

    /// Accumulates an **owned** gradient contribution: moves the buffer into
    /// an empty slot instead of cloning it, and scatters in place otherwise.
    /// Backward closures produce owned temporaries, so this recycles every
    /// per-op gradient allocation on the first-contribution path.
    pub(crate) fn accum_grad_owned(&self, g: Matrix) {
        if !self.requires_grad() {
            return;
        }
        self.check_grad_shape(&g);
        let mut slot = self.node.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => existing.add_assign(&g),
            None => *slot = Some(g),
        }
    }

    /// Detaches from the graph: returns a constant leaf sharing no history
    /// with `self` (value is copied).
    pub fn detach(&self) -> Tensor {
        Tensor::constant(self.to_matrix())
    }

    /// Runs reverse-mode differentiation from this scalar.
    ///
    /// Gradients accumulate into every reachable tensor with
    /// `requires_grad == true`; call [`Tensor::zero_grad`] on parameters
    /// between steps.
    ///
    /// # Panics
    /// Panics if the tensor is not `1x1`.
    pub fn backward(&self) {
        assert_eq!(self.shape(), (1, 1), "backward: loss must be a scalar");
        self.backward_with(Matrix::ones(1, 1));
    }

    /// Reverse-mode differentiation seeded with an explicit upstream
    /// gradient (any shape matching this tensor).
    pub fn backward_with(&self, seed: Matrix) {
        assert_eq!(self.shape(), seed.shape(), "backward_with: seed shape mismatch");
        if !self.requires_grad() {
            return;
        }
        let order = self.topo_order();
        self.accum_grad_owned(seed);
        for t in order.iter().rev() {
            let Some(f) = t.node.backward.as_ref() else {
                continue; // leaf: retains its accumulated gradient
            };
            // Intermediate (non-leaf) gradients are no longer needed once
            // their backward closure has fired; taking (not cloning) them
            // bounds peak memory on long chains and returns the buffer to
            // the pool as soon as the closure finishes.
            if let Some(g) = t.node.grad.borrow_mut().take() {
                // Re-install the recorded op name (plus the backward-phase
                // marker) so pool/race reports name the op whose closure
                // allocated or raced.
                let _phase = crate::chk::backward_scope();
                let _op = crate::chk::op_scope(t.node.op);
                f(&g);
            }
        }
    }

    /// Iterative post-order DFS over the requires-grad subgraph.
    fn topo_order(&self) -> Vec<Tensor> {
        let mut order = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // Stack of (tensor, child_cursor).
        let mut stack: Vec<(Tensor, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.node.id);
        while let Some((t, cursor)) = stack.pop() {
            let parents = &t.node.parents;
            if cursor < parents.len() {
                let child = parents[cursor].clone();
                stack.push((t, cursor + 1));
                if child.requires_grad() && visited.insert(child.node.id) {
                    stack.push((child, 0));
                }
            } else {
                order.push(t);
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_properties() {
        let p = Tensor::param(Matrix::ones(2, 2));
        assert!(p.requires_grad());
        assert_eq!(p.shape(), (2, 2));
        assert!(p.grad().is_none());
        let c = Tensor::constant(Matrix::ones(1, 1));
        assert!(!c.requires_grad());
        assert_eq!(c.item(), 1.0);
    }

    #[test]
    fn clone_shares_storage() {
        let p = Tensor::param(Matrix::zeros(1, 1));
        let q = p.clone();
        p.set_value(Matrix::from_vec(1, 1, vec![7.0]));
        assert_eq!(q.item(), 7.0);
    }

    #[test]
    fn no_grad_produces_constants() {
        let p = Tensor::param(Matrix::ones(1, 1));
        let out = no_grad(|| p.add(&p));
        assert!(!out.requires_grad());
        assert!(grad_enabled(), "flag must be restored");
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let p = Tensor::param(Matrix::ones(1, 1));
        let l1 = p.add(&p); // 2p
        l1.backward();
        let l2 = p.add(&p);
        l2.backward();
        assert_eq!(p.grad().unwrap().data()[0], 4.0);
        p.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    fn diamond_graph_accumulates_once_per_path() {
        // y = p + p uses p twice; dy/dp = 2.
        let p = Tensor::param(Matrix::from_vec(1, 1, vec![3.0]));
        let y = p.add(&p);
        y.backward();
        assert_eq!(p.grad().unwrap().data()[0], 2.0);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let p = Tensor::param(Matrix::from_vec(1, 1, vec![1.0]));
        let mut x = p.clone();
        for _ in 0..50_000 {
            x = x.scale(1.0);
        }
        x.backward();
        assert_eq!(p.grad().unwrap().data()[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "backward: loss must be a scalar")]
    fn backward_rejects_non_scalar() {
        let p = Tensor::param(Matrix::ones(2, 2));
        p.add(&p).backward();
    }
}
