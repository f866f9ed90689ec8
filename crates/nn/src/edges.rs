//! Flattened directed edge index for message-passing layers.
//!
//! Attention GNNs (GAT, SimpleHGN, HGT) consume the graph as parallel
//! arrays `src[i] → dst[i]` with an edge-type id per edge. Each stored
//! (undirected) edge contributes both directions — the reverse direction
//! gets its own edge type, as in SimpleHGN — and every node gets a
//! self-loop with a dedicated type.

use autoac_graph::HeteroGraph;

/// Parallel edge arrays.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    /// Message source per directed edge.
    pub src: Vec<u32>,
    /// Message destination per directed edge.
    pub dst: Vec<u32>,
    /// Edge-type id per directed edge.
    pub etype: Vec<u32>,
    /// Total number of edge types (forward + reverse + self-loop).
    pub num_etypes: usize,
    /// Number of nodes.
    pub num_nodes: usize,
}

impl EdgeIndex {
    /// Builds the typed directed index: stored edges forward (types
    /// `0..E`), reversed (types `E..2E`), and self-loops (type `2E`).
    pub fn typed(g: &HeteroGraph) -> Self {
        let e_stored = g.num_edge_types();
        let n = g.num_nodes();
        let m = g.num_edges();
        let mut src = Vec::with_capacity(2 * m + n);
        let mut dst = Vec::with_capacity(2 * m + n);
        let mut etype = Vec::with_capacity(2 * m + n);
        for (e, s, d) in g.all_edges() {
            src.push(s);
            dst.push(d);
            etype.push(e as u32);
            src.push(d);
            dst.push(s);
            etype.push((e + e_stored) as u32);
        }
        for v in 0..n as u32 {
            src.push(v);
            dst.push(v);
            etype.push(2 * e_stored as u32);
        }
        Self { src, dst, etype, num_etypes: 2 * e_stored + 1, num_nodes: n }
    }

    /// Homogeneous view: both directions plus self-loops, all edge type 0.
    pub fn homogeneous(g: &HeteroGraph) -> Self {
        let mut idx = Self::typed(g);
        for t in &mut idx.etype {
            *t = 0;
        }
        idx.num_etypes = 1;
        idx
    }

    /// Builds an index from explicit directed pairs (metapath neighbor
    /// graphs), adding self-loops; single edge type.
    pub fn from_pairs(pairs: &[(u32, u32)], num_nodes: usize, self_loops: bool) -> Self {
        let mut src: Vec<u32> = pairs.iter().map(|&(s, _)| s).collect();
        let mut dst: Vec<u32> = pairs.iter().map(|&(_, d)| d).collect();
        if self_loops {
            src.extend(0..num_nodes as u32);
            dst.extend(0..num_nodes as u32);
        }
        let etype = vec![0; src.len()];
        Self { src, dst, etype, num_etypes: 1, num_nodes }
    }

    /// Number of directed edges (including self-loops).
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True when there are no edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> HeteroGraph {
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 2);
        let a = b.add_node_type("a", 2);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 2);
        b.add_edge(e, 1, 3);
        b.build()
    }

    #[test]
    fn typed_index_counts() {
        let g = toy();
        let idx = EdgeIndex::typed(&g);
        assert_eq!(idx.len(), 2 * 2 + 4);
        assert_eq!(idx.num_etypes, 3); // forward, reverse, self-loop
        // Forward edge present with type 0, reverse with type 1.
        assert!(idx
            .src
            .iter()
            .zip(&idx.dst)
            .zip(&idx.etype)
            .any(|((&s, &d), &t)| (s, d, t) == (0, 2, 0)));
        assert!(idx
            .src
            .iter()
            .zip(&idx.dst)
            .zip(&idx.etype)
            .any(|((&s, &d), &t)| (s, d, t) == (2, 0, 1)));
        // Self-loops all have type 2.
        let loops = idx
            .src
            .iter()
            .zip(&idx.dst)
            .zip(&idx.etype)
            .filter(|((s, d), _)| s == d)
            .count();
        assert_eq!(loops, 4);
    }

    #[test]
    fn homogeneous_collapses_types() {
        let g = toy();
        let idx = EdgeIndex::homogeneous(&g);
        assert_eq!(idx.num_etypes, 1);
        assert!(idx.etype.iter().all(|&t| t == 0));
    }

    #[test]
    fn from_pairs_with_self_loops() {
        let idx = EdgeIndex::from_pairs(&[(0, 1), (1, 2)], 3, true);
        assert_eq!(idx.len(), 5);
        let idx2 = EdgeIndex::from_pairs(&[(0, 1)], 3, false);
        assert_eq!(idx2.len(), 1);
        assert!(!idx2.is_empty());
    }
}
