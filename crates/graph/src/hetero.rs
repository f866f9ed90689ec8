//! Heterogeneous graph store.
//!
//! Follows the HGB convention: node ids are global (`0..num_nodes`) with all
//! nodes of one type occupying a contiguous id range; edges are grouped by
//! edge type, each edge type connecting a fixed (source-type, target-type)
//! pair.

use std::ops::Range;
use std::sync::OnceLock;

/// Index of a node type.
pub type NodeTypeId = usize;
/// Index of an edge type.
pub type EdgeTypeId = usize;

/// Metadata of one edge type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeType {
    /// Human-readable name, e.g. `"paper-author"`.
    pub name: String,
    /// Source node type.
    pub src: NodeTypeId,
    /// Target node type.
    pub dst: NodeTypeId,
}

/// An immutable heterogeneous graph.
#[derive(Debug, Clone)]
pub struct HeteroGraph {
    node_type_names: Vec<String>,
    /// `type_offsets[t]..type_offsets[t+1]` is the global id range of type `t`.
    type_offsets: Vec<usize>,
    edge_types: Vec<EdgeType>,
    /// Per edge type, `(src, dst)` pairs in global ids.
    edges: Vec<Vec<(u32, u32)>>,
    /// [`HeteroGraph::structural_fingerprint`], computed on first use. Empty
    /// in every graph whose edges were just set (`build`, `without_edges`).
    fingerprint: OnceLock<u64>,
}

/// Incremental builder for [`HeteroGraph`].
#[derive(Debug, Default)]
pub struct HeteroGraphBuilder {
    node_type_names: Vec<String>,
    type_counts: Vec<usize>,
    edge_types: Vec<EdgeType>,
    edges: Vec<Vec<(u32, u32)>>,
}

impl HeteroGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a node type with `count` nodes; returns its id. Node ids of
    /// this type start where the previous type ended.
    pub fn add_node_type(&mut self, name: impl Into<String>, count: usize) -> NodeTypeId {
        self.node_type_names.push(name.into());
        self.type_counts.push(count);
        self.node_type_names.len() - 1
    }

    /// Declares an edge type between two node types; returns its id.
    pub fn add_edge_type(
        &mut self,
        name: impl Into<String>,
        src: NodeTypeId,
        dst: NodeTypeId,
    ) -> EdgeTypeId {
        assert!(src < self.node_type_names.len(), "unknown src node type");
        assert!(dst < self.node_type_names.len(), "unknown dst node type");
        self.edge_types.push(EdgeType { name: name.into(), src, dst });
        self.edges.push(Vec::new());
        self.edge_types.len() - 1
    }

    /// Adds one edge in *global* node ids.
    pub fn add_edge(&mut self, etype: EdgeTypeId, src: u32, dst: u32) {
        // analyze:allow(panic, etype is the id returned by add_edge_type which pushed the matching edges entry)
        self.edges[etype].push((src, dst));
    }

    /// Finalizes the graph, validating that every edge endpoint lies in the
    /// declared type range of its edge type.
    pub fn build(self) -> HeteroGraph {
        let mut type_offsets = Vec::with_capacity(self.type_counts.len() + 1);
        type_offsets.push(0);
        for &c in &self.type_counts {
            type_offsets.push(type_offsets.last().expect("non-empty") + c);
        }
        let g = HeteroGraph {
            node_type_names: self.node_type_names,
            type_offsets,
            edge_types: self.edge_types,
            edges: self.edges,
            fingerprint: OnceLock::new(),
        };
        for (et, list) in g.edge_types.iter().zip(&g.edges) {
            let sr = g.nodes_of_type(et.src);
            let dr = g.nodes_of_type(et.dst);
            for &(s, d) in list {
                assert!(
                    sr.contains(&(s as usize)),
                    "edge type '{}': source {s} outside type range {sr:?}",
                    et.name
                );
                assert!(
                    dr.contains(&(d as usize)),
                    "edge type '{}': target {d} outside type range {dr:?}",
                    et.name
                );
            }
        }
        g
    }
}

impl HeteroGraph {
    /// Starts a builder.
    pub fn builder() -> HeteroGraphBuilder {
        HeteroGraphBuilder::new()
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        *self.type_offsets.last().expect("offsets non-empty")
    }

    /// Total number of (directed, as-stored) edges across all types.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Number of node types.
    pub fn num_node_types(&self) -> usize {
        self.node_type_names.len()
    }

    /// Number of edge types.
    pub fn num_edge_types(&self) -> usize {
        self.edge_types.len()
    }

    /// Name of node type `t`.
    pub fn node_type_name(&self, t: NodeTypeId) -> &str {
        &self.node_type_names[t]
    }

    /// Metadata of edge type `e`.
    pub fn edge_type(&self, e: EdgeTypeId) -> &EdgeType {
        &self.edge_types[e]
    }

    /// Global id range of node type `t`.
    pub fn nodes_of_type(&self, t: NodeTypeId) -> Range<usize> {
        // analyze:allow(panic, type_offsets has one entry per declared node type plus a sentinel; t is a declared type id)
        self.type_offsets[t]..self.type_offsets[t + 1]
    }

    /// Number of nodes of type `t`.
    pub fn num_nodes_of_type(&self, t: NodeTypeId) -> usize {
        self.nodes_of_type(t).len()
    }

    /// Node type of global node `v`.
    pub fn type_of(&self, v: usize) -> NodeTypeId {
        debug_assert!(v < self.num_nodes(), "node {v} out of range");
        // type_offsets is sorted; partition_point returns the first offset > v.
        self.type_offsets.partition_point(|&o| o <= v) - 1
    }

    /// Index of node `v` *within* its type (e.g. for one-hot encodings).
    pub fn local_index(&self, v: usize) -> usize {
        v - self.type_offsets[self.type_of(v)]
    }

    /// Edges of type `e` as stored (source, target) global-id pairs.
    pub fn edges_of_type(&self, e: EdgeTypeId) -> &[(u32, u32)] {
        &self.edges[e]
    }

    /// Order-sensitive structural hash over node-type sizes, edge-type
    /// endpoints, and every stored edge (names excluded — they don't affect
    /// any operator). [`crate::cache::OpCache`] uses this to refuse serving
    /// operators computed for a different graph.
    ///
    /// The hash walks every edge once per graph: the first call computes it
    /// and later calls (and clones) return the kept value.
    pub fn structural_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.type_offsets.hash(&mut h);
            for et in &self.edge_types {
                et.src.hash(&mut h);
                et.dst.hash(&mut h);
            }
            self.edges.hash(&mut h);
            h.finish()
        })
    }

    /// Iterates over `(edge_type, src, dst)` for all edges.
    pub fn all_edges(&self) -> impl Iterator<Item = (EdgeTypeId, u32, u32)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .flat_map(|(e, list)| list.iter().map(move |&(s, d)| (e, s, d)))
    }

    /// Returns a copy of this graph with a subset of edges of one type
    /// removed (used for link-prediction masking). `keep[i]` marks whether
    /// the `i`-th edge of `etype` survives.
    pub fn without_edges(&self, etype: EdgeTypeId, keep: &[bool]) -> HeteroGraph {
        assert_eq!(keep.len(), self.edges[etype].len(), "without_edges: mask length mismatch");
        let mut g = self.clone();
        g.edges[etype] = self.edges[etype]
            .iter()
            .zip(keep)
            .filter_map(|(&e, &k)| k.then_some(e))
            .collect();
        // The clone kept this graph's fingerprint; the edges differ now.
        g.fingerprint = OnceLock::new();
        g
    }

    /// Undirected degree of every node (each stored edge contributes to both
    /// endpoints).
    pub fn undirected_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_nodes()];
        for (_, s, d) in self.all_edges() {
            // analyze:allow(panic, node ids index per-node arrays of num_nodes entries; HeteroGraph::build range-checks every edge)
            deg[s as usize] += 1;
            // analyze:allow(panic, node ids index per-node arrays of num_nodes entries; HeteroGraph::build range-checks every edge)
            deg[d as usize] += 1;
        }
        deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn toy() -> HeteroGraph {
        toy_with(&[(0, 3), (1, 3), (1, 4), (2, 4)])
    }

    /// The toy graph with the given movie-actor edges.
    fn toy_with(movie_actor: &[(u32, u32)]) -> HeteroGraph {
        // 3 movies (0-2), 2 actors (3-4), 1 director (5).
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("movie", 3);
        let a = b.add_node_type("actor", 2);
        let d = b.add_node_type("director", 1);
        let ma = b.add_edge_type("movie-actor", m, a);
        let md = b.add_edge_type("movie-director", m, d);
        for &(s, t) in movie_actor {
            b.add_edge(ma, s, t);
        }
        b.add_edge(md, 0, 5);
        b.add_edge(md, 2, 5);
        b.build()
    }

    #[test]
    fn counts_and_ranges() {
        let g = toy();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.num_node_types(), 3);
        assert_eq!(g.num_edge_types(), 2);
        assert_eq!(g.nodes_of_type(0), 0..3);
        assert_eq!(g.nodes_of_type(1), 3..5);
        assert_eq!(g.nodes_of_type(2), 5..6);
        assert_eq!(g.edge_type(0).name, "movie-actor");
    }

    #[test]
    fn type_of_and_local_index() {
        let g = toy();
        assert_eq!(g.type_of(0), 0);
        assert_eq!(g.type_of(2), 0);
        assert_eq!(g.type_of(3), 1);
        assert_eq!(g.type_of(5), 2);
        assert_eq!(g.local_index(3), 0);
        assert_eq!(g.local_index(4), 1);
        assert_eq!(g.local_index(5), 0);
    }

    #[test]
    fn without_edges_masks_only_target_type() {
        let g = toy();
        let g2 = g.without_edges(0, &[true, false, false, true]);
        assert_eq!(g2.edges_of_type(0), &[(0, 3), (2, 4)]);
        assert_eq!(g2.edges_of_type(1).len(), 2);
        assert_eq!(g.edges_of_type(0).len(), 4, "original untouched");
    }

    #[test]
    fn a_clone_reports_the_freshly_computed_fingerprint() {
        let g = toy();
        let kept = g.structural_fingerprint();
        let fresh = toy().structural_fingerprint();
        assert_eq!(kept, fresh);
        assert_eq!(g.clone().structural_fingerprint(), fresh);
    }

    #[test]
    fn without_edges_computes_its_own_fingerprint() {
        let g = toy();
        // Computed (and kept) on the parent before masking: the masked copy
        // must not inherit it.
        let parent_fp = g.structural_fingerprint();
        let masked = g.without_edges(0, &[true, false, false, true]);
        let scratch = toy_with(&[(0, 3), (2, 4)]);
        assert_eq!(masked.structural_fingerprint(), scratch.structural_fingerprint());
        assert_ne!(masked.structural_fingerprint(), parent_fp);
        assert_eq!(g.structural_fingerprint(), parent_fp, "parent untouched");
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn an_opcache_of_the_parent_refuses_the_masked_graph() {
        let g = toy();
        let cache = crate::cache::OpCache::new(&g);
        let masked = g.without_edges(0, &[true, false, false, true]);
        let _ = cache.sym_norm_adj(&masked);
    }

    #[test]
    fn undirected_degrees_count_both_endpoints() {
        let g = toy();
        let deg = g.undirected_degrees();
        assert_eq!(deg, vec![2, 2, 2, 2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "outside type range")]
    fn build_rejects_out_of_range_edges() {
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 2);
        let a = b.add_node_type("a", 2);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 0); // 0 is a movie, not an actor
        b.build();
    }
}
