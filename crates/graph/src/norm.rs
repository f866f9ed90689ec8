//! Normalized adjacency constructions.
//!
//! These feed three consumers: plain GCN/GAT layers (symmetric norm over the
//! whole graph), the PPNP completion operation (same), and the mean/GCN
//! completion operations, which aggregate only from *attributed* 1-hop
//! neighbors (`N_v⁺` in the paper, Eqs. 2–3) into the nodes without
//! attributes (`V⁻`), the only rows completion reads.
//!
//! # Multigraph semantics
//!
//! [`HeteroGraph`] permits duplicate edges (HGB dumps contain them, e.g. an
//! author appearing twice on one paper). Every operator here treats them
//! *occurrence-counted*, consistently: each occurrence increments the
//! degrees **and** contributes one weight term, which [`Csr::from_coo`]
//! sums into a single entry. A doubled edge therefore carries twice the
//! normalized weight of a single edge — it is never silently deduplicated,
//! and it never breaks stochasticity: rows of [`mean_attr_agg`] still sum
//! to exactly 1 (or 0 for nodes with no attributed neighbor), and
//! [`sym_norm_adj`] stays symmetric. The property tests in
//! `tests/graph_properties.rs` pin this down with explicitly repeated
//! edges.

use autoac_tensor::Csr;

use crate::hetero::HeteroGraph;

/// Symmetrically normalized adjacency with self-loops,
/// `Â = D̃^{-1/2} (A + I) D̃^{-1/2}`, over the whole (undirected) graph.
pub fn sym_norm_adj(g: &HeteroGraph) -> Csr {
    let n = g.num_nodes();
    let mut deg = vec![1.0f32; n]; // self-loop contributes 1
    for (_, s, d) in g.all_edges() {
        // analyze:allow(panic, node ids index per-node arrays of num_nodes entries; HeteroGraph::build range-checks every edge)
        deg[s as usize] += 1.0;
        // analyze:allow(panic, node ids index per-node arrays of num_nodes entries; HeteroGraph::build range-checks every edge)
        deg[d as usize] += 1.0;
    }
    let inv_sqrt: Vec<f32> = deg.iter().map(|&d| 1.0 / d.sqrt()).collect();
    let triplets = g
        .all_edges()
        .flat_map(|(_, s, d)| {
            // analyze:allow(panic, node ids index per-node arrays of num_nodes entries; HeteroGraph::build range-checks every edge)
            let w = inv_sqrt[s as usize] * inv_sqrt[d as usize];
            [(s, d, w), (d, s, w)]
        })
        // analyze:allow(panic, node ids index per-node arrays of num_nodes entries; HeteroGraph::build range-checks every edge)
        .chain((0..n as u32).map(|v| (v, v, inv_sqrt[v as usize] * inv_sqrt[v as usize])));
    Csr::from_coo(n, n, triplets)
}

/// Mean aggregation operator over *attributed* neighbors (paper Eq. 2):
/// row `v ∈ V⁻` holds `1/|N_v⁺|` at each attributed neighbor `u ∈ N_v⁺`.
/// Rows of attributed nodes are empty (completion never reads them), and
/// so are rows of nodes with no attributed neighbor (their completed
/// attribute falls back to zero, matching the paper's zero-fill).
pub fn mean_attr_agg(g: &HeteroGraph, has_attr: &[bool]) -> Csr {
    assert_eq!(has_attr.len(), g.num_nodes(), "mean_attr_agg: mask length mismatch");
    let n = g.num_nodes();
    let mut attr_deg = vec![0usize; n];
    for (_, s, d) in g.all_edges() {
        if has_attr[d as usize] {
            // analyze:allow(panic, node ids index per-node arrays of num_nodes entries; HeteroGraph::build range-checks every edge)
            attr_deg[s as usize] += 1;
        }
        if has_attr[s as usize] {
            // analyze:allow(panic, node ids index per-node arrays of num_nodes entries; HeteroGraph::build range-checks every edge)
            attr_deg[d as usize] += 1;
        }
    }
    Csr::from_coo(
        n,
        n,
        // analyze:allow(panic, node ids index per-node arrays of num_nodes entries; HeteroGraph::build range-checks every edge)
        missing_row_triplets(g, has_attr, |v, _| 1.0 / attr_deg[v as usize] as f32),
    )
}

/// GCN-style aggregation operator over *attributed* neighbors (paper Eq. 3):
/// row `v ∈ V⁻` holds `(deg(v)·deg(u))^{-1/2}` at each attributed neighbor
/// `u`; rows of attributed nodes are empty. Degrees are full undirected
/// degrees (not restricted to attributed neighbors), matching the
/// renormalized convolution form.
pub fn gcn_attr_agg(g: &HeteroGraph, has_attr: &[bool]) -> Csr {
    assert_eq!(has_attr.len(), g.num_nodes(), "gcn_attr_agg: mask length mismatch");
    let n = g.num_nodes();
    let deg = g.undirected_degrees();
    let inv_sqrt: Vec<f32> =
        deg.iter().map(|&d| if d > 0 { 1.0 / (d as f32).sqrt() } else { 0.0 }).collect();
    Csr::from_coo(
        n,
        n,
        // analyze:allow(panic, node ids index per-node arrays of num_nodes entries; HeteroGraph::build range-checks every edge)
        missing_row_triplets(g, has_attr, |v, u| inv_sqrt[v as usize] * inv_sqrt[u as usize]),
    )
}

/// The `(v, u, weight(v, u))` triplet of every edge occurrence that joins a
/// node `v` without attributes to an attributed neighbor `u`, in edge
/// order. [`Csr::from_coo`] buckets triplets per row in input order, so
/// each row is the one a build with a row at every node would give, bit
/// for bit.
fn missing_row_triplets<'a>(
    g: &'a HeteroGraph,
    has_attr: &'a [bool],
    weight: impl Fn(u32, u32) -> f32 + 'a,
) -> impl Iterator<Item = (u32, u32, f32)> + 'a {
    g.all_edges().filter_map(move |(_, s, d)| {
        // analyze:allow(panic, has_attr has num_nodes entries, which both callers assert; HeteroGraph::build range-checks every edge)
        match (has_attr[s as usize], has_attr[d as usize]) {
            (false, true) => Some((s, d, weight(s, d))),
            (true, false) => Some((d, s, weight(d, s))),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> HeteroGraph {
        // movie 0,1 — actor 2,3; edges (0,2),(0,3),(1,3)
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("movie", 2);
        let a = b.add_node_type("actor", 2);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 2);
        b.add_edge(e, 0, 3);
        b.add_edge(e, 1, 3);
        b.build()
    }

    #[test]
    fn sym_norm_rows_and_symmetry() {
        let g = toy();
        let a = sym_norm_adj(&g);
        assert_eq!(a.n_rows(), 4);
        let dense = a.to_dense();
        // Symmetric.
        assert_eq!(dense, dense.transpose());
        // deg+1: node0 = 3, node2 = 2 → entry (0,2) = 1/sqrt(3·2).
        let want = 1.0 / (3.0f32 * 2.0).sqrt();
        assert!((dense.get(0, 2) - want).abs() < 1e-6);
        // Self-loop present.
        assert!(dense.get(0, 0) > 0.0);
    }

    #[test]
    fn sym_norm_spectral_radius_at_most_one() {
        // Power iteration on Â must not blow up (largest |eigenvalue| ≤ 1).
        let g = toy();
        let a = sym_norm_adj(&g);
        let mut x = autoac_tensor::Matrix::ones(4, 1);
        for _ in 0..50 {
            x = a.matmul_dense(&x);
        }
        assert!(x.data().iter().all(|v| v.abs() <= 1.5), "power iteration diverged: {x:?}");
    }

    #[test]
    fn mean_attr_agg_restricts_to_attributed() {
        let g = toy();
        // Only movies (0, 1) have attributes.
        let has = vec![true, true, false, false];
        let m = mean_attr_agg(&g, &has);
        let dense = m.to_dense();
        // Actor 3 has attributed neighbors {0, 1} → 1/2 each.
        assert!((dense.get(3, 0) - 0.5).abs() < 1e-6);
        assert!((dense.get(3, 1) - 0.5).abs() < 1e-6);
        // Actor 2 has attributed neighbor {0} → 1.
        assert!((dense.get(2, 0) - 1.0).abs() < 1e-6);
        // Movie rows aggregate only from attributed neighbors; actors have
        // none, so movie rows are empty.
        assert_eq!(m.row_nnz(0), 0);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn gcn_attr_agg_weights() {
        let g = toy();
        let has = vec![true, true, false, false];
        let m = gcn_attr_agg(&g, &has);
        let dense = m.to_dense();
        // deg(3) = 2, deg(0) = 2 → (2·2)^{-1/2} = 0.5
        assert!((dense.get(3, 0) - 0.5).abs() < 1e-6);
        // deg(2) = 1, deg(0) = 2 → (1·2)^{-1/2}
        assert!((dense.get(2, 0) - 1.0 / 2.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn isolated_nodes_have_empty_completion_rows() {
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("m", 1);
        let a = b.add_node_type("a", 2); // actor 2 is isolated
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 1);
        let g = b.build();
        let has = vec![true, false, false];
        let mm = mean_attr_agg(&g, &has);
        assert_eq!(mm.row_nnz(2), 0);
        let gg = gcn_attr_agg(&g, &has);
        assert_eq!(gg.row_nnz(2), 0);
    }
}
