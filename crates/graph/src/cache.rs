//! Per-graph memo of the normalized operators whole-graph pipelines build.
//!
//! Building a normalized CSR ([`norm::sym_norm_adj`] and friends) walks
//! every edge and sorts every row. The AutoAC driver builds the *same*
//! operators repeatedly — the completion context and the GCN backbone both
//! want `Â`, and the search stage and the retraining stage each assemble a
//! fresh pipeline over one unchanged graph. [`OpCache`] makes those rebuilds
//! free. It holds exactly two things, each built on first use and shared as
//! [`Rc<Csr>`] clones afterwards:
//!
//! * `Â` ([`OpCache::sym_norm_adj`]);
//! * the `V⁻`-row attribute aggregators of one attribute mask with their
//!   transposes ([`OpCache::attr_aggs`]).
//!
//! A cache is bound to exactly one graph at construction via
//! [`HeteroGraph::structural_fingerprint`], and to the first attribute mask
//! it is asked for. Every lookup re-checks the fingerprint (which the graph
//! computes once and keeps, so the check is O(1)), every aggregator lookup
//! compares the whole mask, and either mismatch panics, so a cache can never
//! silently serve operators for the wrong graph or mask. There is no
//! invalidation — graphs are immutable, so entries stay valid for the
//! cache's lifetime.

use std::cell::OnceCell;
use std::rc::Rc;

use autoac_tensor::Csr;

use crate::hetero::HeteroGraph;
use crate::norm;

/// The attribute aggregators completion reads: [`norm::mean_attr_agg`] and
/// [`norm::gcn_attr_agg`] of one mask (rows at `V⁻` only), with the
/// transposes their autograd needs.
#[derive(Clone)]
pub struct AttrAggs {
    /// Mean aggregation over attributed neighbors.
    pub mean: Rc<Csr>,
    /// Its transpose.
    pub mean_t: Rc<Csr>,
    /// GCN aggregation over attributed neighbors.
    pub gcn: Rc<Csr>,
    /// Its transpose.
    pub gcn_t: Rc<Csr>,
}

impl AttrAggs {
    /// Builds the four operators of `g` under `has_attr`, each once.
    pub fn build(g: &HeteroGraph, has_attr: &[bool]) -> Self {
        let mean = norm::mean_attr_agg(g, has_attr);
        let gcn = norm::gcn_attr_agg(g, has_attr);
        Self {
            mean_t: Rc::new(mean.transpose()),
            mean: Rc::new(mean),
            gcn_t: Rc::new(gcn.transpose()),
            gcn: Rc::new(gcn),
        }
    }
}

/// Memoized normalized operators for one immutable [`HeteroGraph`].
///
/// Single-threaded by design (interior mutability via [`OnceCell`]),
/// matching the `Rc`-based tensor layer; kernel parallelism lives *inside*
/// the CSR kernels (`autoac_tensor::parallel`), not across cache entries.
pub struct OpCache {
    fingerprint: u64,
    sym_adj: OnceCell<Rc<Csr>>,
    /// The mask the aggregators were built for, and the aggregators.
    attr_aggs: OnceCell<(Vec<bool>, AttrAggs)>,
}

impl OpCache {
    /// Creates an empty cache bound to `g`'s structure.
    pub fn new(g: &HeteroGraph) -> Self {
        Self {
            fingerprint: g.structural_fingerprint(),
            sym_adj: OnceCell::new(),
            attr_aggs: OnceCell::new(),
        }
    }

    /// Cached [`norm::sym_norm_adj`]. Panics if `g` is not the cache's
    /// graph.
    pub fn sym_norm_adj(&self, g: &HeteroGraph) -> Rc<Csr> {
        self.check_graph(g);
        Rc::clone(memo(&self.sym_adj, || Rc::new(norm::sym_norm_adj(g))))
    }

    /// Cached [`AttrAggs::build`]. Panics if `g` is not the cache's graph,
    /// or `has_attr` is not the mask of the cache's first aggregator
    /// lookup.
    pub fn attr_aggs(&self, g: &HeteroGraph, has_attr: &[bool]) -> AttrAggs {
        self.check_graph(g);
        let (mask, aggs) =
            memo(&self.attr_aggs, || (has_attr.to_vec(), AttrAggs::build(g, has_attr)));
        assert!(
            mask.as_slice() == has_attr,
            "OpCache: attribute mask does not match the one this cache was built for"
        );
        aggs.clone()
    }

    fn check_graph(&self, g: &HeteroGraph) {
        assert_eq!(
            g.structural_fingerprint(),
            self.fingerprint,
            "OpCache: graph does not match the one this cache was built for"
        );
    }
}

/// The value of `cell`, built by `build` under an `opcache_build` span on
/// first use; counts the lookup as an `opcache_hits` or `opcache_misses`.
fn memo<T>(cell: &OnceCell<T>, build: impl FnOnce() -> T) -> &T {
    if let Some(hit) = cell.get() {
        autoac_obs::counter_add("opcache_hits", 1);
        return hit;
    }
    autoac_obs::counter_add("opcache_misses", 1);
    let _obs = autoac_obs::span("opcache_build");
    cell.get_or_init(build)
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
        let aggs = cache.attr_aggs(&g, &has);
        let mean = norm::mean_attr_agg(&g, &has);
        let gcn = norm::gcn_attr_agg(&g, &has);
        assert_eq!(*aggs.mean_t, mean.transpose());
        assert_eq!(*aggs.mean, mean);
        assert_eq!(*aggs.gcn_t, gcn.transpose());
        assert_eq!(*aggs.gcn, gcn);
    }

    #[test]
    fn repeated_fetch_hits_and_shares_the_allocation() {
        let (g, has) = toy();
        let cache = OpCache::new(&g);
        let first = cache.sym_norm_adj(&g);
        let second = cache.sym_norm_adj(&g);
        assert!(Rc::ptr_eq(&first, &second), "hit must share the Rc");
        let (a, b) = (cache.attr_aggs(&g, &has), cache.attr_aggs(&g, &has));
        let pairs = [(a.mean, b.mean), (a.mean_t, b.mean_t), (a.gcn, b.gcn), (a.gcn_t, b.gcn_t)];
        for (x, y) in &pairs {
            assert!(Rc::ptr_eq(x, y), "hit must share every aggregator");
        }
    }

    #[test]
    fn sym_norm_transpose_shares_the_symmetric_entry() {
        // Â is symmetric, bit for bit, so the one entry also serves as its
        // own transpose (the GCN layer passes it as both spmm operands).
        let (g, _) = toy();
        let a = OpCache::new(&g).sym_norm_adj(&g);
        assert_eq!(*a, a.transpose());
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
    #[should_panic(expected = "attribute mask does not match")]
    fn another_mask_is_rejected() {
        let (g, has) = toy();
        let cache = OpCache::new(&g);
        let _ = cache.attr_aggs(&g, &has);
        let _ = cache.attr_aggs(&g, &[true, true, false, false, false]);
    }
}
