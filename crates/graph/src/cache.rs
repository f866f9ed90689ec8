//! Per-graph memoization of normalized graph operators.
//!
//! Building a normalized CSR ([`norm::sym_norm_adj`] and friends) walks
//! every edge and sorts every row. The AutoAC driver builds the *same*
//! operators repeatedly — the completion context and the GCN backbone both
//! want `Â`, and the search stage and the retraining stage each assemble a
//! fresh pipeline over one unchanged graph. [`OpCache`] makes those rebuilds
//! free: operators (plus their row-restricted forms and transposes) are
//! computed once and shared as [`Rc<Csr>`] clones.
//!
//! A cache is bound to exactly one graph at construction via
//! [`HeteroGraph::structural_fingerprint`]; every lookup re-checks the
//! fingerprint (which the graph computes once and keeps, so the check is
//! O(1)) and panics on mismatch, so a cache can never silently serve
//! operators for the wrong graph. There is no invalidation — graphs are
//! immutable, so entries stay valid for the cache's lifetime. Keys store the
//! full attribute mask / row set (not hashes of them), so lookups are exact.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use autoac_tensor::Csr;

use crate::hetero::HeteroGraph;
use crate::norm;

/// Which normalized operator an entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormOp {
    /// [`norm::sym_norm_adj`] — `Â`, symmetric norm with self-loops.
    SymNorm,
    /// [`norm::row_norm_adj`] — `D⁻¹A`, no self-loops.
    RowNorm,
    /// [`norm::mean_attr_agg`] — mean over attributed neighbors (masked).
    MeanAttr,
    /// [`norm::gcn_attr_agg`] — degree-normalized sum over attributed
    /// neighbors (masked).
    GcnAttr,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    op: NormOp,
    mask: Option<Vec<bool>>,
    rows: Option<Vec<u32>>,
    transposed: bool,
}

/// Memoized normalized operators for one immutable [`HeteroGraph`].
///
/// Single-threaded by design (interior mutability via [`RefCell`]), matching
/// the `Rc`-based tensor layer; kernel parallelism lives *inside* the CSR
/// kernels (`autoac_tensor::parallel`), not across cache entries.
pub struct OpCache {
    fingerprint: u64,
    entries: RefCell<HashMap<CacheKey, Rc<Csr>>>,
    hits: Cell<usize>,
    misses: Cell<usize>,
}

impl OpCache {
    /// Creates an empty cache bound to `g`'s structure.
    pub fn new(g: &HeteroGraph) -> Self {
        Self {
            fingerprint: g.structural_fingerprint(),
            entries: RefCell::new(HashMap::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The fingerprint this cache is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// `(hits, misses)` since construction. A miss that derives from a
    /// cached base (e.g. the transpose of an already-cached operator) counts
    /// one miss for the derived entry and one hit for the base.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits.get(), self.misses.get())
    }

    /// Number of distinct operators currently cached.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether the cache holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches (building on first use) an operator variant:
    ///
    /// * `mask` — attribute mask, required for [`NormOp::MeanAttr`] /
    ///   [`NormOp::GcnAttr`], forbidden for the topology-only ops;
    /// * `rows` — if set, the operator is row-restricted
    ///   ([`Csr::restrict_rows`]) to these rows;
    /// * `transposed` — if set, the transpose of the (possibly restricted)
    ///   operator is returned.
    ///
    /// Panics if `g` does not match the graph the cache was built for.
    pub fn get(
        &self,
        g: &HeteroGraph,
        op: NormOp,
        mask: Option<&[bool]>,
        rows: Option<&[u32]>,
        transposed: bool,
    ) -> Rc<Csr> {
        assert_eq!(
            g.structural_fingerprint(),
            self.fingerprint,
            "OpCache: graph does not match the one this cache was built for"
        );
        match op {
            NormOp::SymNorm | NormOp::RowNorm => {
                assert!(mask.is_none(), "OpCache: {op:?} takes no attribute mask")
            }
            NormOp::MeanAttr | NormOp::GcnAttr => {
                assert!(mask.is_some(), "OpCache: {op:?} requires an attribute mask")
            }
        }
        self.fetch(g, op, mask, rows, transposed)
    }

    fn fetch(
        &self,
        g: &HeteroGraph,
        op: NormOp,
        mask: Option<&[bool]>,
        rows: Option<&[u32]>,
        transposed: bool,
    ) -> Rc<Csr> {
        // Â is symmetric, and the symmetric-norm weight `d_s^-1/2 d_d^-1/2`
        // is computed identically for both directions, so the unrestricted
        // transpose is bitwise the same matrix — share the entry.
        let transposed = transposed && !(op == NormOp::SymNorm && rows.is_none());
        let key = CacheKey {
            op,
            mask: mask.map(<[bool]>::to_vec),
            rows: rows.map(<[u32]>::to_vec),
            transposed,
        };
        if let Some(hit) = self.entries.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            autoac_obs::counter_add("opcache_hits", 1);
            return Rc::clone(hit);
        }
        self.misses.set(self.misses.get() + 1);
        autoac_obs::counter_add("opcache_misses", 1);
        let _obs = autoac_obs::span("opcache_build");
        let built = if transposed {
            Rc::new(self.fetch(g, op, mask, rows, false).transpose())
        } else if let Some(rows) = rows {
            Rc::new(self.fetch(g, op, mask, None, false).restrict_rows(rows))
        } else {
            Rc::new(match op {
                NormOp::SymNorm => norm::sym_norm_adj(g),
                NormOp::RowNorm => norm::row_norm_adj(g),
                NormOp::MeanAttr => norm::mean_attr_agg(g, mask.expect("mask checked in get")),
                NormOp::GcnAttr => norm::gcn_attr_agg(g, mask.expect("mask checked in get")),
            })
        };
        self.entries.borrow_mut().insert(key, Rc::clone(&built));
        built
    }

    /// Cached [`norm::sym_norm_adj`].
    pub fn sym_norm_adj(&self, g: &HeteroGraph) -> Rc<Csr> {
        self.get(g, NormOp::SymNorm, None, None, false)
    }

    /// Cached [`norm::row_norm_adj`].
    pub fn row_norm_adj(&self, g: &HeteroGraph) -> Rc<Csr> {
        self.get(g, NormOp::RowNorm, None, None, false)
    }

    /// Cached [`norm::mean_attr_agg`].
    pub fn mean_attr_agg(&self, g: &HeteroGraph, has_attr: &[bool]) -> Rc<Csr> {
        self.get(g, NormOp::MeanAttr, Some(has_attr), None, false)
    }

    /// Cached [`norm::gcn_attr_agg`].
    pub fn gcn_attr_agg(&self, g: &HeteroGraph, has_attr: &[bool]) -> Rc<Csr> {
        self.get(g, NormOp::GcnAttr, Some(has_attr), None, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (HeteroGraph, Vec<bool>) {
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 3);
        let a = b.add_node_type("a", 2);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 3);
        b.add_edge(e, 1, 3);
        b.add_edge(e, 2, 4);
        (b.build(), vec![true, true, true, false, false])
    }

    #[test]
    fn cached_operators_match_direct_construction() {
        let (g, has) = toy();
        let cache = OpCache::new(&g);
        assert_eq!(*cache.sym_norm_adj(&g), norm::sym_norm_adj(&g));
        assert_eq!(*cache.row_norm_adj(&g), norm::row_norm_adj(&g));
        assert_eq!(*cache.mean_attr_agg(&g, &has), norm::mean_attr_agg(&g, &has));
        assert_eq!(*cache.gcn_attr_agg(&g, &has), norm::gcn_attr_agg(&g, &has));
    }

    #[test]
    fn repeated_fetch_hits_and_shares_the_allocation() {
        let (g, _) = toy();
        let cache = OpCache::new(&g);
        let first = cache.sym_norm_adj(&g);
        let second = cache.sym_norm_adj(&g);
        assert!(Rc::ptr_eq(&first, &second), "hit must share the Rc");
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn restricted_and_transposed_variants_derive_from_cached_base() {
        let (g, has) = toy();
        let cache = OpCache::new(&g);
        let rows = [3u32, 4];
        let restricted = cache.get(&g, NormOp::MeanAttr, Some(&has), Some(&rows), false);
        let want = norm::mean_attr_agg(&g, &has).restrict_rows(&rows);
        assert_eq!(*restricted, want);
        let transposed = cache.get(&g, NormOp::MeanAttr, Some(&has), Some(&rows), true);
        assert_eq!(*transposed, want.transpose());
        // Base, restricted, and restricted-transposed are three entries.
        assert_eq!(cache.len(), 3);
        // Re-fetching any of them is a pure hit.
        let before = cache.stats();
        cache.get(&g, NormOp::MeanAttr, Some(&has), Some(&rows), true);
        let after = cache.stats();
        assert_eq!(after.0, before.0 + 1);
        assert_eq!(after.1, before.1);
    }

    #[test]
    fn sym_norm_transpose_shares_the_symmetric_entry() {
        let (g, _) = toy();
        let cache = OpCache::new(&g);
        let a = cache.get(&g, NormOp::SymNorm, None, None, false);
        let at = cache.get(&g, NormOp::SymNorm, None, None, true);
        assert!(Rc::ptr_eq(&a, &at), "Â is symmetric; transpose shares the entry");
        assert_eq!(*at, a.transpose());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_graph_is_rejected() {
        let (g, _) = toy();
        let cache = OpCache::new(&g);
        let mut b = HeteroGraph::builder();
        b.add_node_type("x", 4);
        let other = b.build();
        let _ = cache.sym_norm_adj(&other);
    }

    #[test]
    #[should_panic(expected = "requires an attribute mask")]
    fn masked_op_without_mask_is_rejected() {
        let (g, _) = toy();
        let cache = OpCache::new(&g);
        let _ = cache.get(&g, NormOp::MeanAttr, None, None, false);
    }
}
