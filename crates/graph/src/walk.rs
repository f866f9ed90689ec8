//! Random walks over heterogeneous graphs.
//!
//! Backs the metapath2vec-style pre-learning stage of the HGNN-AC baseline
//! (Table IV's expensive "Pre-learn" phase) and the HetGNN-lite neighbor
//! sampler.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::adjacency::Adjacency;

/// Uniform random walks: at each step, jump to a uniformly random neighbor
/// (any type). Walks stop early at isolated nodes.
pub fn uniform_walks(
    adj: &Adjacency,
    starts: impl Iterator<Item = u32>,
    walk_len: usize,
    walks_per_node: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<u32>> {
    let mut walks = Vec::new();
    for s in starts {
        for _ in 0..walks_per_node {
            let mut walk = Vec::with_capacity(walk_len + 1);
            walk.push(s);
            let mut cur = s as usize;
            for _ in 0..walk_len {
                let nbrs = adj.neighbors(cur);
                let Some(&next) = nbrs.choose(rng) else { break };
                walk.push(next);
                cur = next as usize;
            }
            walks.push(walk);
        }
    }
    walks
}

/// Extracts skip-gram `(center, context)` pairs within `window` of each
/// other from a corpus of walks.
pub fn skipgram_pairs(walks: &[Vec<u32>], window: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for walk in walks {
        for (i, &c) in walk.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(walk.len());
            for (j, &ctx) in walk.iter().enumerate().take(hi).skip(lo) {
                if i != j {
                    pairs.push((c, ctx));
                }
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::HeteroGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> (HeteroGraph, Adjacency) {
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
    fn uniform_walks_stay_on_edges() {
        let (g, adj) = toy();
        let mut rng = StdRng::seed_from_u64(7);
        let walks =
            uniform_walks(&adj, 0..g.num_nodes() as u32, 10, 3, &mut rng);
        assert_eq!(walks.len(), g.num_nodes() * 3);
        for w in &walks {
            for pair in w.windows(2) {
                let t = g.type_of(pair[1] as usize);
                assert!(adj.has_edge(pair[0] as usize, pair[1], t), "non-edge step {pair:?}");
            }
        }
    }

    #[test]
    fn walks_stop_at_dead_ends() {
        // Movie 1 is isolated: its walks never leave the start node.
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("movie", 2);
        let a = b.add_node_type("actor", 1);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 2);
        let adj = Adjacency::build(&b.build());
        let mut rng = StdRng::seed_from_u64(9);
        let walks = uniform_walks(&adj, [1u32].into_iter(), 5, 2, &mut rng);
        assert_eq!(walks, vec![vec![1u32], vec![1]]);
    }

    #[test]
    fn skipgram_pairs_window() {
        let walks = vec![vec![1u32, 2, 3, 4]];
        let pairs = skipgram_pairs(&walks, 1);
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(2, 1)));
        assert!(pairs.contains(&(3, 4)));
        assert!(!pairs.contains(&(1, 3)), "outside window");
        assert_eq!(pairs.len(), 6);
    }
}
