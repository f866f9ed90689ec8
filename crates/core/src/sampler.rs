//! Deterministic neighbor-sampled minibatches for 100×-scale training.
//!
//! A [`NeighborSampler`] draws GraphSAGE-style batches: a core set of target
//! nodes is expanded by `hops` rounds of (optionally fanout-capped) neighbor
//! selection, and the batch graph is the *induced* subgraph over the
//! selected nodes — every stored edge whose endpoints were both selected,
//! with its edge type intact, so per-type neighborhoods survive sampling.
//!
//! Determinism contract: batch composition is a pure function of the RNG
//! handed to [`NeighborSampler::sample`]. The trainers derive that RNG from
//! `(seed, epoch, batch)` via [`batch_rng`], so the schedule never touches
//! the training RNG stream — dropout draws are unchanged whether a run is
//! fresh or resumed mid-epoch-schedule.

use autoac_graph::{Adjacency, EdgeTypeId, HeteroGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer — decorrelates structured `(seed, epoch, batch)`
/// triples into independent RNG seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The per-batch sampling RNG: seeded from `(seed, epoch, batch)` so every
/// batch is reproducible in isolation (resume re-derives it exactly).
pub fn batch_rng(seed: u64, epoch: u64, batch: u64) -> StdRng {
    let mixed = splitmix64(seed ^ splitmix64(epoch ^ splitmix64(batch)));
    StdRng::seed_from_u64(mixed)
}

/// One sampled minibatch: the selected nodes (sorted global ids), which of
/// them are core (loss-bearing) nodes, and the induced heterogeneous
/// subgraph in batch-local ids.
#[derive(Debug, Clone)]
pub struct SampledBatch {
    /// Selected global node ids, sorted ascending (= batch-local id order).
    pub nodes: Vec<u32>,
    /// `is_core[i]` ⇔ `nodes[i]` was in the requested core set.
    pub is_core: Vec<bool>,
    /// Induced subgraph over `nodes`, same node/edge types as the parent.
    pub graph: HeteroGraph,
}

impl SampledBatch {
    /// Batch-local id of global node `v`, if selected.
    pub fn sub_of(&self, v: u32) -> Option<usize> {
        self.nodes.binary_search(&v).ok()
    }

    /// Global id of batch-local node `i`.
    pub fn global_of(&self, i: usize) -> u32 {
        self.nodes[i]
    }

    /// Gathers a per-node value vector of the parent graph into batch-local
    /// order.
    pub fn gather_values<T: Clone>(&self, parent: &[T]) -> Vec<T> {
        self.nodes.iter().map(|&v| parent[v as usize].clone()).collect()
    }
}

/// Neighbor sampler over one heterogeneous graph.
///
/// Construction builds a per-node *source-incidence* index over the stored
/// edges (node → the `(edge_type, dst)` pairs it sources), so extracting a
/// batch's induced edge set costs `O(Σ out-degree of selected nodes)` — it
/// never rescans the full edge list the way one-shot shard extraction does.
pub struct NeighborSampler {
    adj: Adjacency,
    inc_indptr: Vec<usize>,
    // (edge type, stored dst, position within its type), grouped by src.
    // The position lets `induce` re-emit edges in stored order, so inducing
    // over all nodes reproduces the parent's structural fingerprint exactly.
    inc_edges: Vec<(u32, u32, u32)>,
    num_nodes: usize,
    /// Structural fingerprint of the indexed graph: `sample` reads stored
    /// edges by position, so it refuses any other graph.
    graph_fp: u64,
}

impl NeighborSampler {
    /// Builds the sampler's adjacency and incidence indices (one `O(N + E)`
    /// pass; batches afterwards touch only what they select).
    pub fn new(g: &HeteroGraph) -> Self {
        let _obs = autoac_obs::span("sampler_build");
        let n = g.num_nodes();
        let adj = Adjacency::build(g);
        let mut counts = vec![0usize; n + 1];
        for (_, s, _) in g.all_edges() {
            counts[s as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let inc_indptr = counts.clone();
        let mut cursor = counts;
        let mut inc_edges = vec![(0u32, 0u32, 0u32); g.num_edges()];
        let mut pos_in_type = vec![0u32; g.num_edge_types()];
        for (et, s, d) in g.all_edges() {
            let slot = cursor[s as usize];
            inc_edges[slot] = (et as u32, d, pos_in_type[et]);
            pos_in_type[et] += 1;
            cursor[s as usize] += 1;
        }
        Self { adj, inc_indptr, inc_edges, num_nodes: n, graph_fp: g.structural_fingerprint() }
    }

    /// Number of nodes in the parent graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Draws one minibatch: `core` nodes plus `hops` rounds of neighbor
    /// expansion, each node contributing at most `fanout` sampled neighbors
    /// per round (`None` = all neighbors). The batch graph is the induced
    /// subgraph over the selection.
    ///
    /// `core` may be in any order and must be duplicate-free; the RNG should
    /// come from [`batch_rng`].
    pub fn sample(
        &self,
        g: &HeteroGraph,
        core: &[u32],
        fanout: Option<usize>,
        hops: usize,
        rng: &mut StdRng,
    ) -> SampledBatch {
        assert!(!core.is_empty(), "sampler: empty core set");
        assert_eq!(
            g.structural_fingerprint(),
            self.graph_fp,
            "sampler: graph does not match the one this sampler indexed"
        );
        let _obs = autoac_obs::span("sample_batch");
        let mut selected: Vec<u32> = core.to_vec();
        selected.sort_unstable();
        debug_assert!(
            selected.windows(2).all(|w| w[0] < w[1]),
            "sampler: core set has duplicates"
        );
        let core_sorted = selected.clone();
        // One flag per parent node; `!replace(.., true)` is "newly seen".
        let mut seen = vec![false; self.num_nodes];
        for &v in &selected {
            seen[v as usize] = true;
        }
        let mut frontier = selected.clone();
        let mut scratch: Vec<u32> = Vec::new();
        for _ in 0..hops {
            let mut next = Vec::new();
            // The frontier is iterated in sorted id order, so the sequence
            // of RNG draws — hence the batch — is independent of how the
            // caller ordered the core set.
            for &v in &frontier {
                let neigh = self.adj.neighbors(v as usize);
                let take = fanout.unwrap_or(neigh.len()).min(neigh.len());
                if take == neigh.len() {
                    for &u in neigh {
                        if !std::mem::replace(&mut seen[u as usize], true) {
                            next.push(u);
                        }
                    }
                } else {
                    // Partial Fisher–Yates: the first `take` slots become a
                    // uniform sample without replacement.
                    scratch.clear();
                    scratch.extend_from_slice(neigh);
                    for i in 0..take {
                        let j = rng.gen_range(i..scratch.len());
                        scratch.swap(i, j);
                        let u = scratch[i];
                        if !std::mem::replace(&mut seen[u as usize], true) {
                            next.push(u);
                        }
                    }
                }
            }
            next.sort_unstable();
            selected.extend_from_slice(&next);
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        selected.sort_unstable();
        let is_core: Vec<bool> =
            selected.iter().map(|&v| core_sorted.binary_search(&v).is_ok()).collect();
        let graph = self.induce(g, &selected);
        autoac_obs::counter_add("sampler_nodes", selected.len() as u64);
        autoac_obs::counter_add("sampler_edges", graph.num_edges() as u64);
        SampledBatch { nodes: selected, is_core, graph }
    }

    /// Induced subgraph over sorted-unique `nodes`, via the source-incidence
    /// index: `O(Σ out-deg)` plus one pass over a node array and an edge
    /// bitmap of the parent (`N` words and `E / 64` words), no sort.
    fn induce(&self, g: &HeteroGraph, nodes: &[u32]) -> HeteroGraph {
        let mut b = HeteroGraph::builder();
        let mut cursor = 0usize;
        for t in 0..g.num_node_types() {
            let range = g.nodes_of_type(t);
            let start = cursor;
            while cursor < nodes.len() && (nodes[cursor] as usize) < range.end {
                cursor += 1;
            }
            b.add_node_type(g.node_type_name(t), cursor - start);
        }
        assert_eq!(cursor, nodes.len(), "sampler: node id out of range");
        for e in 0..g.num_edge_types() {
            let et = g.edge_type(e);
            b.add_edge_type(et.name.clone(), et.src, et.dst);
        }
        // Batch-local id of every selected parent node.
        let mut local = vec![u32::MAX; self.num_nodes];
        for (i, &v) in nodes.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        // Mark each kept edge at its stored position within its type, then
        // scan the marks in order: induced edges keep the parent's storage
        // order, so inducing over all nodes reproduces the parent graph
        // bit-for-bit (fingerprint included). The mark is an unconditional
        // OR of the keep bit: on hub-heavy batches about half the entries
        // are kept, and a branch on it mispredicts.
        let mut kept: Vec<Vec<u64>> = (0..g.num_edge_types())
            .map(|e| vec![0u64; g.edges_of_type(e).len().div_ceil(64)])
            .collect();
        for &v in nodes {
            let lo = self.inc_indptr[v as usize];
            let hi = self.inc_indptr[v as usize + 1];
            for &(et, d, pos) in &self.inc_edges[lo..hi] {
                let keep = u64::from(local[d as usize] != u32::MAX);
                kept[et as usize][pos as usize / 64] |= keep << (pos % 64);
            }
        }
        for (et, words) in kept.iter().enumerate() {
            let stored = g.edges_of_type(et);
            for (w, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let (s, d) = stored[w * 64 + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    b.add_edge(et as EdgeTypeId, local[s as usize], local[d as usize]);
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoac_data::{presets, synth};

    fn tiny() -> HeteroGraph {
        synth::generate(&presets::imdb(), synth::Scale::Tiny, 0).graph
    }

    #[test]
    fn full_expansion_of_everything_is_the_whole_graph() {
        let g = tiny();
        let sampler = NeighborSampler::new(&g);
        let core: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut rng = batch_rng(0, 0, 0);
        let batch = sampler.sample(&g, &core, None, 1, &mut rng);
        assert_eq!(batch.nodes.len(), g.num_nodes());
        assert_eq!(batch.graph.num_edges(), g.num_edges());
        assert_eq!(
            batch.graph.structural_fingerprint(),
            g.structural_fingerprint(),
            "induced graph over all nodes must be the graph itself"
        );
        assert!(batch.is_core.iter().all(|&c| c));
    }

    #[test]
    fn same_coordinates_reproduce_the_same_batch() {
        let g = tiny();
        let sampler = NeighborSampler::new(&g);
        let core = [0u32, 5, 9];
        let a = sampler.sample(&g, &core, Some(3), 2, &mut batch_rng(7, 3, 1));
        let b = sampler.sample(&g, &core, Some(3), 2, &mut batch_rng(7, 3, 1));
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(
            a.graph.structural_fingerprint(),
            b.graph.structural_fingerprint()
        );
        let c = sampler.sample(&g, &core, Some(3), 2, &mut batch_rng(7, 3, 2));
        // A different batch index draws a different neighborhood (with
        // overwhelming probability on this graph).
        assert!(a.nodes != c.nodes || a.graph.num_edges() != c.graph.num_edges());
    }

    #[test]
    fn core_order_does_not_change_the_batch() {
        let g = tiny();
        let sampler = NeighborSampler::new(&g);
        let a = sampler.sample(&g, &[9, 0, 5], Some(2), 2, &mut batch_rng(1, 0, 0));
        let b = sampler.sample(&g, &[0, 5, 9], Some(2), 2, &mut batch_rng(1, 0, 0));
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn fanout_caps_expansion() {
        let g = tiny();
        let sampler = NeighborSampler::new(&g);
        let mut rng = batch_rng(0, 1, 0);
        let capped = sampler.sample(&g, &[0], Some(2), 1, &mut rng);
        // One core node with fanout 2 and one hop selects at most 3 nodes.
        assert!(capped.nodes.len() <= 3, "selected {:?}", capped.nodes);
        assert_eq!(capped.is_core.iter().filter(|&&c| c).count(), 1);
    }

    #[test]
    fn induced_edges_keep_their_types() {
        let g = tiny();
        let sampler = NeighborSampler::new(&g);
        let mut rng = batch_rng(3, 0, 0);
        let batch = sampler.sample(&g, &[0, 1, 2, 3], None, 1, &mut rng);
        assert_eq!(batch.graph.num_node_types(), g.num_node_types());
        assert_eq!(batch.graph.num_edge_types(), g.num_edge_types());
        // Every induced edge corresponds to a stored parent edge of the
        // same type between the mapped endpoints.
        for (et, s, d) in batch.graph.all_edges() {
            let gs = batch.global_of(s as usize);
            let gd = batch.global_of(d as usize);
            assert!(
                g.edges_of_type(et).contains(&(gs, gd)),
                "edge ({gs},{gd}) of type {et} not in parent"
            );
        }
    }
}
