//! Hierarchical RAII spans with thread-aware nesting.
//!
//! Design constraints, in order:
//!
//! - **Disabled cost is one branch**: [`span`] checks [`enabled`] and
//!   returns an inert guard without touching any thread-local state.
//! - **Lock-light when enabled**: each thread owns an arena of span nodes
//!   (`Vec<Node>` + a cursor) and records into it without synchronization.
//!   The process-wide mutex is taken only when a thread exits (its state is
//!   merged into the global tree) and at [`drain`](crate::drain) time.
//! - **Bounded memory**: spans are aggregated online per *path* — opening
//!   the same `matmul` span a million times under `search/epoch/omega`
//!   touches one node a million times instead of buffering a million
//!   events. Count and total nanoseconds per distinct path is all the
//!   exporters need.
//! - **Cross-thread nesting**: `for_each_row_chunk` workers are scoped
//!   threads with no access to the launcher's thread-locals, so the
//!   launcher captures [`current_path`] before spawning and each worker
//!   installs it with [`adopt`]; kernel spans opened by the worker then
//!   nest under the launcher's position (e.g. `search/epoch/omega/matmul`).
//!   The adopt guard's drop also flushes the worker's arena into the
//!   global tree: `thread::scope` only orders the worker *closure* before
//!   the join, not TLS teardown, so waiting for thread exit would let a
//!   drain right after the region race the merge.
//!
//! Timing uses [`Instant`], the only monotonic clock in std; this module
//! is the one place in the workspace where kernels' time is read (the
//! `instant-in-kernel-loop` lint points here).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::env::enabled;
use crate::metrics::Event;

/// Index of the implicit root node in every arena.
const ROOT: usize = 0;

/// One aggregated span node: a (name, parent) position in the tree.
struct Node {
    name: &'static str,
    parent: usize,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
}

impl Node {
    fn root() -> Node {
        Node { name: "", parent: ROOT, children: Vec::new(), count: 0, total_ns: 0 }
    }
}

/// Monotonically increasing generation, bumped every time a thread's state
/// is replaced (drain, or reuse after a flush). A guard created under one
/// generation refuses to record into a newer one: its arena indices would
/// be dangling.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// Process-start anchor for event timestamps.
fn start_instant() -> &'static Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now)
}

/// Nanoseconds since the first obs call in this process; used to order
/// events from different threads in the JSONL output, and exported for
/// the serving layer's trace timelines and flight-recorder timestamps so
/// every subsystem shares one clock anchor.
pub fn now_ns() -> u64 {
    start_instant().elapsed().as_nanos() as u64
}

struct ThreadState {
    generation: u64,
    nodes: Vec<Node>,
    current: usize,
    events: Vec<Event>,
}

impl ThreadState {
    fn new() -> ThreadState {
        ThreadState {
            generation: GENERATION.fetch_add(1, Ordering::Relaxed),
            nodes: vec![Node::root()],
            current: ROOT,
            events: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.events.is_empty()
    }

    /// Finds or creates the child of `parent` named `name`.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        // Names are &'static str, usually the same literal: pointer
        // equality catches almost every lookup before the byte compare.
        for &c in &self.nodes[parent].children {
            let n = self.nodes[c].name;
            if std::ptr::eq(n.as_ptr(), name.as_ptr()) || n == name {
                return c;
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name,
            parent,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
        });
        self.nodes[parent].children.push(idx);
        idx
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        if !self.is_empty() {
            flush_into_global(self);
        }
    }
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::new());
}

/// The global accumulator: dead threads' trees merged together, plus
/// every buffered event. `drain` empties it.
pub(crate) struct Global {
    pub(crate) nodes: Vec<Node2>,
    pub(crate) events: Vec<Event>,
}

/// Global-tree node (same shape as the per-thread one, but owned strings
/// are unnecessary — names stay `&'static str`).
pub(crate) struct Node2 {
    pub(crate) name: &'static str,
    pub(crate) children: Vec<usize>,
    pub(crate) count: u64,
    pub(crate) total_ns: u64,
}

impl Global {
    fn new() -> Global {
        Global {
            nodes: vec![Node2 { name: "", children: Vec::new(), count: 0, total_ns: 0 }],
            events: Vec::new(),
        }
    }

    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        for &c in &self.nodes[parent].children {
            let n = self.nodes[c].name;
            if std::ptr::eq(n.as_ptr(), name.as_ptr()) || n == name {
                return c;
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(Node2 { name, children: Vec::new(), count: 0, total_ns: 0 });
        self.nodes[parent].children.push(idx);
        idx
    }

    fn merge_subtree(&mut self, st: &ThreadState, src: usize, dst: usize) {
        // Walk the thread tree recursively; depth equals span nesting
        // depth, which is small (search/epoch/omega/matmul ≈ 4).
        let children: Vec<usize> = st.nodes[src].children.clone();
        for c in children {
            let d = self.child(dst, st.nodes[c].name);
            self.nodes[d].count += st.nodes[c].count;
            self.nodes[d].total_ns += st.nodes[c].total_ns;
            self.merge_subtree(st, c, d);
        }
    }
}

fn global() -> &'static Mutex<Global> {
    static GLOBAL: OnceLock<Mutex<Global>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Global::new()))
}

fn flush_into_global(st: &ThreadState) {
    let mut g = global().lock().unwrap_or_else(|p| p.into_inner());
    g.merge_subtree(st, ROOT, ROOT);
    g.events.extend(st.events.iter().cloned());
}

/// Buffers an event on the current thread (no lock taken).
pub(crate) fn push_event(ev: Event) {
    STATE.with(|s| s.borrow_mut().events.push(ev));
}

/// Flushes the calling thread's buffered state and removes everything from
/// the global accumulator, returning the merged tree + events. Open spans
/// on *this* thread at drain time are discarded (their guards detect the
/// generation change and skip recording); other live threads keep their
/// in-progress state and flush it at their own exit.
pub(crate) fn take_all() -> Global {
    let local = STATE.with(|s| std::mem::replace(&mut *s.borrow_mut(), ThreadState::new()));
    // Dropping the old state flushes it into the global accumulator
    // (same path a dying thread takes), then we steal the whole thing.
    drop(local);
    let mut g = global().lock().unwrap_or_else(|p| p.into_inner());
    let mut out = Global::new();
    std::mem::swap(&mut *g, &mut out);
    out
}

/// RAII guard returned by [`span`]; records elapsed time into the span
/// node on drop. Inert (`None`) when obs was disabled at open time.
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    start: Instant,
    node: usize,
    prev: usize,
    generation: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let elapsed = a.start.elapsed().as_nanos() as u64;
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            if st.generation != a.generation {
                return; // drained mid-span; indices no longer ours
            }
            let n = &mut st.nodes[a.node];
            n.count += 1;
            n.total_ns += elapsed;
            st.current = a.prev;
        });
    }
}

/// Opens a hierarchical span named `name`, nested under whatever span is
/// currently open on this thread. Returns an inert guard (one branch, no
/// thread-local access) when obs is disabled. `name` must not contain `/`
/// — paths are formed by runtime nesting, and slashes would make them
/// ambiguous.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    span_slow(name)
}

fn span_slow(name: &'static str) -> SpanGuard {
    debug_assert!(!name.contains('/'), "span name {name:?} must not contain '/'");
    let (node, prev, generation) = STATE.with(|s| {
        let mut st = s.borrow_mut();
        let prev = st.current;
        let node = st.child(prev, name);
        st.current = node;
        (node, prev, st.generation)
    });
    SpanGuard(Some(ActiveSpan { start: Instant::now(), node, prev, generation }))
}

/// A captured span position: the chain of span names from the root down
/// to the currently open span. Cheap to clone across a scoped-thread
/// boundary.
#[derive(Clone, Debug, Default)]
pub struct SpanPath(Vec<&'static str>);

impl SpanPath {
    /// Whether this path captures no position (obs disabled, or no span
    /// open at capture time).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Captures the calling thread's current span position so a worker thread
/// can [`adopt`] it. Returns an empty path (again: one branch) when obs is
/// disabled.
pub fn current_path() -> SpanPath {
    if !enabled() {
        return SpanPath(Vec::new());
    }
    STATE.with(|s| {
        let st = s.borrow();
        let mut names = Vec::new();
        let mut at = st.current;
        while at != ROOT {
            names.push(st.nodes[at].name);
            at = st.nodes[at].parent;
        }
        names.reverse();
        SpanPath(names)
    })
}

/// RAII guard returned by [`adopt`]; restores the worker thread's span
/// cursor on drop. Inert when obs was disabled or the path empty.
pub struct AdoptGuard(Option<(usize, u64)>);

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        let Some((prev, generation)) = self.0.take() else { return };
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            if st.generation != generation {
                return;
            }
            st.current = prev;
            // Eager flush for scoped workers: `thread::scope` unblocks when
            // the worker *closure* returns, but TLS destructors (the normal
            // flush path) run later, during thread teardown — so a launcher
            // draining right after the parallel region could miss this
            // worker's spans. This drop runs inside the closure, which the
            // scope join orders before the launcher resumes. Only safe when
            // the cursor returned to the root (no open spans whose arena
            // indices a flush would invalidate).
            if prev == ROOT && !st.is_empty() {
                // Replacing bumps the generation; the replaced state's own
                // Drop performs the merge into the global accumulator.
                drop(std::mem::replace(&mut *st, ThreadState::new()));
            }
        });
    }
}

/// Installs a captured [`SpanPath`] as the nesting context on the calling
/// (worker) thread: spans it opens afterwards nest under the launcher's
/// position. Adoption is position-only — it never counts or times the
/// adopted ancestors (the launcher's own guards do that).
pub fn adopt(path: &SpanPath) -> AdoptGuard {
    if !enabled() || path.0.is_empty() {
        return AdoptGuard(None);
    }
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let prev = st.current;
        let mut at = st.current;
        for name in &path.0 {
            at = st.child(at, name);
        }
        st.current = at;
        AdoptGuard(Some((prev, st.generation)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::with_obs;

    #[test]
    fn disabled_span_touches_nothing() {
        with_obs(false, || {
            let g = span("never");
            drop(g);
            assert!(current_path().is_empty());
        });
    }

    #[test]
    fn nesting_builds_paths_and_drain_resets() {
        let _serial = crate::test_lock();
        with_obs(true, || {
            let _ = take_all(); // isolate from earlier flushes
            {
                let _a = span("outer");
                {
                    let _b = span("inner");
                    let p = current_path();
                    assert_eq!(p.0, ["outer", "inner"]);
                }
                let _c = span("inner"); // same position → same node
            }
            let g = take_all();
            // root → outer → inner
            let outer = g.nodes[ROOT]
                .children
                .iter()
                .copied()
                .find(|&c| g.nodes[c].name == "outer")
                .expect("outer span recorded");
            assert_eq!(g.nodes[outer].count, 1);
            let inner = g.nodes[outer]
                .children
                .iter()
                .copied()
                .find(|&c| g.nodes[c].name == "inner")
                .expect("inner span recorded");
            assert_eq!(g.nodes[inner].count, 2, "two openings aggregate into one node");
            assert!(g.nodes[outer].total_ns >= g.nodes[inner].total_ns);
        });
    }

    #[test]
    fn guard_outliving_a_drain_is_dropped_silently() {
        let _serial = crate::test_lock();
        with_obs(true, || {
            let _ = take_all();
            let g = span("stale");
            let drained = take_all();
            // "stale" exists as a node but was never closed → count 0.
            let n = drained.nodes[ROOT]
                .children
                .iter()
                .copied()
                .find(|&c| drained.nodes[c].name == "stale");
            if let Some(n) = n {
                assert_eq!(drained.nodes[n].count, 0);
            }
            drop(g); // must not panic or corrupt the fresh generation
            let after = take_all();
            assert!(
                after.nodes[ROOT].children.is_empty(),
                "stale guard must not record into the new generation"
            );
        });
    }

    #[test]
    fn adopt_nests_worker_spans_under_captured_path() {
        let _serial = crate::test_lock();
        crate::set_force(Some(true));
        let _ = take_all();
        let path = {
            let _outer = span("launch");
            current_path()
        };
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _ad = adopt(&path);
                    let _k = span("kernel");
                })
                .join()
                .unwrap();
        });
        let g = take_all();
        crate::set_force(None);
        let launch = g.nodes[ROOT]
            .children
            .iter()
            .copied()
            .find(|&c| g.nodes[c].name == "launch")
            .expect("launch node present");
        assert_eq!(g.nodes[launch].count, 1, "adoption must not re-count ancestors");
        let kernel = g.nodes[launch]
            .children
            .iter()
            .copied()
            .find(|&c| g.nodes[c].name == "kernel")
            .expect("worker span nests under adopted path");
        assert_eq!(g.nodes[kernel].count, 1);
    }
}
