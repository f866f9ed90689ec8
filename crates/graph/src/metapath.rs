//! Metapath machinery for metapath-based HGNNs (HAN, MAGNN).
//!
//! A metapath is a node-type sequence such as `M-A-M` (movie–actor–movie).
//! Two views are provided:
//!   * [`metapath_adjacency`] — the homogeneous neighbor graph connecting
//!     endpoints of metapath instances (what HAN consumes);
//!   * [`sample_instances`] — concrete node sequences per start node,
//!     capped per node (what MAGNN's instance encoders consume).

use autoac_tensor::Csr;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::adjacency::Adjacency;
use crate::hetero::NodeTypeId;

/// A metapath: a sequence of node types of length ≥ 2 whose first and last
/// types are the "endpoint" types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metapath(pub Vec<NodeTypeId>);

impl Metapath {
    /// Creates a metapath, validating the length.
    pub fn new(types: impl Into<Vec<NodeTypeId>>) -> Self {
        let types = types.into();
        assert!(types.len() >= 2, "metapath needs at least two node types");
        Self(types)
    }

    /// The start node type.
    pub fn start(&self) -> NodeTypeId {
        self.0[0]
    }

    /// The terminal node type.
    pub fn end(&self) -> NodeTypeId {
        *self.0.last().expect("non-empty")
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.0.len() - 1
    }
}

/// One concrete metapath instance: the full global-id node sequence.
pub type Instance = Vec<u32>;

/// Samples up to `cap` metapath instances starting at `start` (which must be
/// of the metapath's start type). Neighbors at each hop are visited in
/// random order so the cap yields an unbiased-ish sample instead of a
/// lexicographic prefix.
pub fn sample_instances(
    adj: &Adjacency,
    mp: &Metapath,
    start: u32,
    cap: usize,
    rng: &mut impl Rng,
) -> Vec<Instance> {
    let mut out = Vec::new();
    let mut path = vec![start];
    extend(adj, mp, 1, &mut path, cap, &mut out, rng);
    out
}

fn extend(
    adj: &Adjacency,
    mp: &Metapath,
    depth: usize,
    path: &mut Vec<u32>,
    cap: usize,
    out: &mut Vec<Instance>,
    rng: &mut impl Rng,
) {
    if out.len() >= cap {
        return;
    }
    if depth == mp.0.len() {
        out.push(path.clone());
        return;
    }
    let last = *path.last().expect("path non-empty") as usize;
    let mut nbrs: Vec<u32> = adj.typed_neighbors(last, mp.0[depth]).to_vec();
    nbrs.shuffle(rng);
    for nb in nbrs {
        if out.len() >= cap {
            break;
        }
        path.push(nb);
        extend(adj, mp, depth + 1, path, cap, out, rng);
        path.pop();
    }
}

/// Builds the metapath-based neighbor graph: entry `(u, v)` counts metapath
/// instances from `u` to `v` (both of the endpoint types, in global ids over
/// the whole node set). Instances per start node are capped at
/// `cap_per_node` to bound cost on hub-heavy graphs.
pub fn metapath_adjacency(
    adj: &Adjacency,
    mp: &Metapath,
    start_nodes: impl Iterator<Item = u32>,
    cap_per_node: usize,
    rng: &mut impl Rng,
) -> Csr {
    let n = adj.num_nodes();
    let mut triplets = Vec::new();
    for s in start_nodes {
        for inst in sample_instances(adj, mp, s, cap_per_node, rng) {
            let t = *inst.last().expect("instance non-empty");
            triplets.push((s, t, 1.0));
        }
    }
    Csr::from_coo(n, n, triplets)
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::HeteroGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> (HeteroGraph, Adjacency) {
        // movies 0..3, actors 3..5: edges (0,3),(1,3),(1,4),(2,4)
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("movie", 3);
        let a = b.add_node_type("actor", 2);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 3);
        b.add_edge(e, 1, 3);
        b.add_edge(e, 1, 4);
        b.add_edge(e, 2, 4);
        let g = b.build();
        let adj = Adjacency::build(&g);
        (g, adj)
    }

    #[test]
    fn instances_follow_schema() {
        let (_, adj) = toy();
        let mp = Metapath::new(vec![0, 1, 0]); // M-A-M
        let mut rng = StdRng::seed_from_u64(0);
        let mut inst = sample_instances(&adj, &mp, 0, 100, &mut rng);
        inst.sort();
        // From movie 0: 0-3-0, 0-3-1.
        assert_eq!(inst, vec![vec![0, 3, 0], vec![0, 3, 1]]);
    }

    #[test]
    fn cap_limits_instance_count() {
        let (_, adj) = toy();
        let mp = Metapath::new(vec![0, 1, 0]);
        let mut rng = StdRng::seed_from_u64(0);
        let inst = sample_instances(&adj, &mp, 1, 2, &mut rng);
        assert_eq!(inst.len(), 2); // movie 1 has 4 M-A-M instances, capped at 2
    }

    #[test]
    fn metapath_adjacency_counts_paths() {
        let (g, adj) = toy();
        let mp = Metapath::new(vec![0, 1, 0]);
        let mut rng = StdRng::seed_from_u64(0);
        let a = metapath_adjacency(
            &adj,
            &mp,
            g.nodes_of_type(0).map(|v| v as u32),
            1000,
            &mut rng,
        );
        let d = a.to_dense();
        // Movie 1 reaches movie 0 via actor 3, movie 2 via actor 4, itself twice.
        assert_eq!(d.get(1, 0), 1.0);
        assert_eq!(d.get(1, 2), 1.0);
        assert_eq!(d.get(1, 1), 2.0);
        // Movies 0 and 2 share no actor.
        assert_eq!(d.get(0, 2), 0.0);
    }

    #[test]
    fn longer_metapaths() {
        let (_, adj) = toy();
        let mp = Metapath::new(vec![1, 0, 1, 0]); // A-M-A-M
        let mut rng = StdRng::seed_from_u64(0);
        let inst = sample_instances(&adj, &mp, 3, 100, &mut rng);
        assert!(inst.iter().all(|p| p.len() == 4));
        // 3-1-4-1 and 3-1-4-2 reachable, plus back-tracking paths.
        assert!(inst.contains(&vec![3, 1, 4, 2]));
    }
}
