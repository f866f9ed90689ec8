//! Heterogeneity-aware graph partitioning.
//!
//! A [`ShardPlan`] assigns every node to exactly one of `k` shards; a
//! [`Shard`] materializes one shard as an induced [`HeteroGraph`] over the
//! shard's *core* nodes plus their full 1-hop halo. Keeping the complete
//! 1-hop neighborhood of every core node means the per-type neighbor
//! multisets that attribute-completion operators consume are bitwise
//! preserved inside the shard: a `mean_attr_agg` row of a core node computed
//! on the shard equals the same row computed on the whole graph (the row
//! depends only on the node's own neighbors and their attribute mask).
//! Degree-normalized operators (`gcn_attr_agg`) and K-hop propagation (PPNP)
//! additionally read *halo* degrees / deeper hops and are approximations
//! under sharding — documented, never silently assumed exact.
//!
//! One strategy, [`ShardStrategy::DegreeLocality`]: deterministic BFS growth
//! seeded from the highest-degree unassigned node, capacity-capped at
//! `ceil(n/k)`; it clusters neighborhoods into the same shard so halos (and
//! therefore per-shard operator size) shrink.
//!
//! A plan is a deterministic function of `(graph, k)`, and exposes a
//! [`ShardPlan::fingerprint`] over the graph, the strategy tag, `k` and the
//! resulting assignment so checkpoint identity guards can bind a resumed
//! run to the same partition.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use crate::adjacency::Adjacency;
use crate::hetero::{HeteroGraph, NodeTypeId};

/// Partitioning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardStrategy {
    /// Capacity-capped BFS growth from degree-sorted seeds.
    DegreeLocality,
}

impl ShardStrategy {
    /// Stable numeric tag, used in plan and checkpoint fingerprints; it
    /// must stay 1 so that plan fingerprints and checkpoint `segment_fp`
    /// values written so far still match.
    pub fn tag(self) -> u8 {
        match self {
            ShardStrategy::DegreeLocality => 1,
        }
    }
}

/// A complete node→shard assignment for one graph.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    strategy: ShardStrategy,
    num_shards: usize,
    graph_fp: u64,
    /// Per global node, the owning shard.
    shard_of: Vec<u32>,
    /// Core (owned) node count per shard.
    core_counts: Vec<usize>,
}

impl ShardPlan {
    /// Partitions every node of `g` into `num_shards` shards.
    ///
    /// Deterministic: the same `(graph, num_shards)` always yields the same
    /// assignment, at any thread count.
    pub fn partition(g: &HeteroGraph, strategy: ShardStrategy, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "ShardPlan: num_shards must be >= 1");
        let _span = autoac_obs::span("shard_partition");
        let shard_of = match strategy {
            ShardStrategy::DegreeLocality => degree_locality_assign(g, num_shards),
        };
        let mut core_counts = vec![0usize; num_shards];
        for &s in &shard_of {
            core_counts[s as usize] += 1;
        }
        let plan = Self {
            strategy,
            num_shards,
            graph_fp: g.structural_fingerprint(),
            shard_of,
            core_counts,
        };
        autoac_obs::gauge_set("shard_balance", plan.balance());
        plan
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Owning shard of global node `v`.
    pub fn shard_of(&self, v: usize) -> usize {
        self.shard_of[v] as usize
    }

    /// Core (owned) node count of shard `s`.
    pub fn core_count(&self, s: usize) -> usize {
        self.core_counts[s]
    }

    /// Load-balance factor: `max core size / mean core size` (1.0 = perfect).
    pub fn balance(&self) -> f64 {
        let max = self.core_counts.iter().copied().max().unwrap_or(0);
        let mean = self.shard_of.len() as f64 / self.num_shards as f64;
        if mean > 0.0 { max as f64 / mean } else { 1.0 }
    }

    /// Identity hash over `(graph fingerprint, strategy, k, assignment)` —
    /// the value checkpoint guards store so a resume refuses a run that was
    /// partitioned differently.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.graph_fp.hash(&mut h);
        self.strategy.tag().hash(&mut h);
        self.num_shards.hash(&mut h);
        self.shard_of.hash(&mut h);
        h.finish()
    }

    /// Extracts every shard, sharing one adjacency build.
    pub fn extract_all(&self, g: &HeteroGraph) -> Vec<Shard> {
        let adj = Adjacency::build(g);
        (0..self.num_shards).map(|s| self.extract_with(g, &adj, s)).collect()
    }

    /// Extracts shard `s` as core ∪ full 1-hop halo, with the induced
    /// subgraph over that node set.
    pub fn extract_with(&self, g: &HeteroGraph, adj: &Adjacency, s: usize) -> Shard {
        assert!(s < self.num_shards, "ShardPlan: shard {s} out of range");
        assert_eq!(
            g.structural_fingerprint(),
            self.graph_fp,
            "ShardPlan: graph does not match the one this plan partitioned"
        );
        let _span = autoac_obs::span("shard_extract");
        let n = g.num_nodes();
        let mut selected = vec![false; n];
        for v in 0..n {
            if self.shard_of[v] == s as u32 {
                selected[v] = true;
                for &u in adj.neighbors(v) {
                    selected[u as usize] = true;
                }
            }
        }
        let nodes: Vec<u32> =
            (0..n as u32).filter(|&v| selected[v as usize]).collect();
        let is_core: Vec<bool> =
            nodes.iter().map(|&v| self.shard_of[v as usize] == s as u32).collect();
        let halo = nodes.len() - is_core.iter().filter(|&&c| c).count();
        autoac_obs::counter_add("shard_halo_nodes", halo as u64);
        let graph = induce_subgraph(g, &nodes);
        Shard { index: s, nodes, is_core, graph }
    }
}

/// Deterministic capacity-capped BFS growth: shards are filled one at a
/// time; each pulls the highest-degree unassigned node as a BFS seed and
/// claims unassigned neighbors (in adjacency order) until `ceil(n/k)` nodes
/// are claimed or no unassigned node remains.
fn degree_locality_assign(g: &HeteroGraph, k: usize) -> Vec<u32> {
    let n = g.num_nodes();
    let adj = Adjacency::build(g);
    let deg = g.undirected_degrees();
    let mut by_deg: Vec<u32> = (0..n as u32).collect();
    by_deg.sort_by_key(|&v| (std::cmp::Reverse(deg[v as usize]), v));
    let cap = n.div_ceil(k);
    let mut shard_of = vec![u32::MAX; n];
    let mut seed_cursor = 0usize;
    let mut queue: VecDeque<u32> = VecDeque::new();
    for s in 0..k as u32 {
        let mut claimed = 0usize;
        queue.clear();
        'fill: while claimed < cap {
            let v = if let Some(v) = queue.pop_front() {
                v
            } else {
                while seed_cursor < n && shard_of[by_deg[seed_cursor] as usize] != u32::MAX {
                    seed_cursor += 1;
                }
                if seed_cursor == n {
                    break 'fill; // every node assigned
                }
                let seed = by_deg[seed_cursor];
                shard_of[seed as usize] = s;
                claimed += 1;
                seed
            };
            for &u in adj.neighbors(v as usize) {
                if claimed == cap {
                    continue 'fill;
                }
                if shard_of[u as usize] == u32::MAX {
                    shard_of[u as usize] = s;
                    claimed += 1;
                    queue.push_back(u);
                }
            }
        }
    }
    // k * cap >= n, so the loop above assigns every node; the sweep is a
    // defensive backstop that keeps the "exactly one shard" invariant even
    // if the capacity arithmetic ever changes.
    for slot in shard_of.iter_mut() {
        if *slot == u32::MAX {
            *slot = k as u32 - 1;
        }
    }
    shard_of
}

/// Builds the induced subgraph of `g` over `nodes` (sorted global ids).
/// Because global ids are type-contiguous and `nodes` is sorted, sub-ids are
/// automatically type-contiguous too, so the result is a valid
/// [`HeteroGraph`] with the same node/edge-type schema. Edge order follows
/// the parent's stored order, so induction is deterministic.
fn induce_subgraph(g: &HeteroGraph, nodes: &[u32]) -> HeteroGraph {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must be sorted unique");
    let mut sub_of = vec![u32::MAX; g.num_nodes()];
    for (i, &v) in nodes.iter().enumerate() {
        sub_of[v as usize] = i as u32;
    }
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
    for e in 0..g.num_edge_types() {
        let et = g.edge_type(e);
        b.add_edge_type(et.name.clone(), et.src, et.dst);
    }
    for (e, s, d) in g.all_edges() {
        let (ss, dd) = (sub_of[s as usize], sub_of[d as usize]);
        if ss != u32::MAX && dd != u32::MAX {
            b.add_edge(e, ss, dd);
        }
    }
    b.build()
}

/// One materialized shard: the core nodes it owns, their 1-hop halo, and the
/// induced subgraph over both.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Shard index within its plan.
    pub index: usize,
    /// Sorted global ids of every node present (core ∪ halo).
    pub nodes: Vec<u32>,
    /// Parallel to `nodes`: whether the node is core (owned) vs halo.
    pub is_core: Vec<bool>,
    /// Induced subgraph in shard-local ids (`nodes[i]` ↦ `i`).
    pub graph: HeteroGraph,
}

impl Shard {
    /// Shard-local id of global node `v`, if present in this shard.
    pub fn sub_of(&self, v: u32) -> Option<usize> {
        self.nodes.binary_search(&v).ok()
    }

    /// Global id of shard-local node `i`.
    pub fn global_of(&self, i: usize) -> u32 {
        self.nodes[i]
    }

    /// Per-type neighbor list of a *core* node, read from the induced
    /// subgraph but reported in global ids — the unit the completion-op
    /// preservation tests compare against the parent graph.
    pub fn core_typed_neighbors(
        &self,
        adj: &Adjacency,
        v: u32,
        t: NodeTypeId,
    ) -> Option<Vec<u32>> {
        let sub = self.sub_of(v)?;
        if !self.is_core[sub] {
            return None;
        }
        Some(
            adj.typed_neighbors(sub, t)
                .iter()
                .map(|&u| self.global_of(u as usize))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> HeteroGraph {
        // 3 movies (0-2), 2 actors (3-4), 1 director (5).
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("movie", 3);
        let a = b.add_node_type("actor", 2);
        let d = b.add_node_type("director", 1);
        let ma = b.add_edge_type("movie-actor", m, a);
        let md = b.add_edge_type("movie-director", m, d);
        b.add_edge(ma, 0, 3);
        b.add_edge(ma, 1, 3);
        b.add_edge(ma, 1, 4);
        b.add_edge(ma, 2, 4);
        b.add_edge(md, 0, 5);
        b.add_edge(md, 2, 5);
        b.build()
    }

    #[test]
    fn every_node_in_exactly_one_shard_both_strategies() {
        let g = toy();
        for k in 1..=4 {
            let plan = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, k);
            let mut counts = vec![0usize; k];
            for v in 0..g.num_nodes() {
                counts[plan.shard_of(v)] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), g.num_nodes());
            for s in 0..k {
                assert_eq!(counts[s], plan.core_count(s), "k={k}");
            }
        }
    }

    #[test]
    fn degree_locality_respects_capacity() {
        let g = toy();
        let plan = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, 3);
        let cap = g.num_nodes().div_ceil(3);
        for s in 0..3 {
            assert!(plan.core_count(s) <= cap, "shard {s} over capacity");
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let g = toy();
        let a = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, 2);
        let b = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, 2);
        assert_eq!(a.shard_of, b.shard_of);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_binds_strategy_and_k() {
        let g = toy();
        let loc2 = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, 2);
        let loc3 = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, 3);
        assert_ne!(loc2.fingerprint(), loc3.fingerprint());
    }

    #[test]
    fn shard_keeps_core_typed_neighborhoods_intact() {
        let g = toy();
        let full = Adjacency::build(&g);
        let plan = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, 2);
        for shard in plan.extract_all(&g) {
            let sub_adj = Adjacency::build(&shard.graph);
            for (i, &v) in shard.nodes.iter().enumerate() {
                if !shard.is_core[i] {
                    continue;
                }
                for t in 0..g.num_node_types() {
                    let mut want: Vec<u32> = full.typed_neighbors(v as usize, t).to_vec();
                    want.sort_unstable();
                    let mut got =
                        shard.core_typed_neighbors(&sub_adj, v, t).expect("core node present");
                    got.sort_unstable();
                    assert_eq!(got, want, "node {v} type {t}");
                }
            }
        }
    }

    #[test]
    fn induced_subgraph_preserves_schema_and_type_contiguity() {
        let g = toy();
        let plan = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, 2);
        let shard = &plan.extract_all(&g)[0];
        assert_eq!(shard.graph.num_node_types(), g.num_node_types());
        assert_eq!(shard.graph.num_edge_types(), g.num_edge_types());
        // Every present node's type matches its parent's type.
        for (i, &v) in shard.nodes.iter().enumerate() {
            assert_eq!(shard.graph.type_of(i), g.type_of(v as usize));
        }
        // Round trip of the id maps.
        for (i, &v) in shard.nodes.iter().enumerate() {
            assert_eq!(shard.sub_of(v), Some(i));
            assert_eq!(shard.global_of(i), v);
        }
    }

    #[test]
    fn single_shard_is_the_whole_graph() {
        let g = toy();
        let plan = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, 1);
        let shard = &plan.extract_all(&g)[0];
        assert_eq!(shard.nodes.len(), g.num_nodes());
        assert!(shard.is_core.iter().all(|&c| c), "every node is core");
        assert_eq!(
            shard.graph.structural_fingerprint(),
            g.structural_fingerprint(),
            "one shard with full halo must induce the identical graph"
        );
    }

    #[test]
    fn balance_is_one_for_perfect_split() {
        let g = toy();
        let plan = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, 2);
        assert!((plan.balance() - 1.0).abs() < 1e-9, "6 nodes / 2 shards caps at 3+3");
    }
}
