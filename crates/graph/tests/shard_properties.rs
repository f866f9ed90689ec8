//! Property-based tests for the partitioner: every node lands in exactly
//! one shard's core, and per-type core neighborhoods survive sharding
//! intact.

use autoac_graph::{Adjacency, HeteroGraph, ShardPlan, ShardStrategy};
use proptest::prelude::*;

/// Strategy: a random 3-type graph with two cross-type edge types (possibly
/// with duplicate edges — shards must tolerate multigraph semantics).
fn random_graph() -> impl Strategy<Value = HeteroGraph> {
    (
        2usize..8,
        2usize..8,
        1usize..5,
        proptest::collection::vec((0u32..8, 0u32..8, 0u32..2), 0..40),
    )
        .prop_map(|(na, nb, nc, edges)| {
            let mut b = HeteroGraph::builder();
            let ta = b.add_node_type("a", na);
            let tb = b.add_node_type("b", nb);
            let tc = b.add_node_type("c", nc);
            let eab = b.add_edge_type("a-b", ta, tb);
            let eac = b.add_edge_type("a-c", ta, tc);
            for (s, d, which) in edges {
                let s = s % na as u32;
                if which == 0 {
                    b.add_edge(eab, s, (d % nb as u32) + na as u32);
                } else {
                    b.add_edge(eac, s, (d % nc as u32) + (na + nb) as u32);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_node_is_core_in_exactly_one_shard(
        g in random_graph(),
        k in 1usize..5,
    ) {
        let plan = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, k);
        // The plan's map covers every node with a valid shard index…
        for v in 0..g.num_nodes() {
            prop_assert!(plan.shard_of(v) < k, "shard index out of range");
        }
        // …and the extracted shards' cores tile the node set exactly.
        let mut core_seen = vec![0usize; g.num_nodes()];
        for shard in plan.extract_all(&g) {
            for (i, &v) in shard.nodes.iter().enumerate() {
                if shard.is_core[i] {
                    prop_assert_eq!(
                        plan.shard_of(v as usize), shard.index,
                        "core node outside its planned shard"
                    );
                    core_seen[v as usize] += 1;
                }
            }
        }
        prop_assert!(
            core_seen.iter().all(|&c| c == 1),
            "cores must tile the node set exactly once, got {core_seen:?}"
        );
    }

    #[test]
    fn per_type_core_neighborhoods_survive_sharding(
        g in random_graph(),
        k in 1usize..5,
    ) {
        let adj = Adjacency::build(&g);
        let plan = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, k);
        for shard in plan.extract_all(&g) {
            let sub_adj = Adjacency::build(&shard.graph);
            for (i, &v) in shard.nodes.iter().enumerate() {
                if !shard.is_core[i] {
                    continue;
                }
                // A core node's full typed neighborhood is inside the
                // shard (core ∪ 1-hop halo), with multiplicities intact.
                for t in 0..g.num_node_types() {
                    let mut want: Vec<u32> = adj.typed_neighbors(v as usize, t).to_vec();
                    let mut got: Vec<u32> = sub_adj
                        .typed_neighbors(i, t)
                        .iter()
                        .map(|&j| shard.global_of(j as usize))
                        .collect();
                    want.sort_unstable();
                    got.sort_unstable();
                    prop_assert_eq!(
                        got, want,
                        "type-{} neighborhood of core node {} mangled", t, v
                    );
                }
            }
        }
    }

    #[test]
    fn shard_fingerprint_is_stable_and_strategy_sensitive(
        g in random_graph(),
        k in 2usize..5,
    ) {
        let a = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, k);
        let b = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, k);
        prop_assert_eq!(a.fingerprint(), b.fingerprint(), "same inputs, same fingerprint");
        let c = ShardPlan::partition(&g, ShardStrategy::DegreeLocality, k + 1);
        prop_assert!(
            a.fingerprint() != c.fingerprint(),
            "shard count must be fingerprinted"
        );
    }
}
