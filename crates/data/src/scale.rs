//! Streaming power-law graph generation for 100×-scale benchmarking.
//!
//! [`synth::generate`](crate::synth::generate) mirrors the paper's Table I
//! statistics faithfully, but its rank samplers and dedup sets hold
//! O(nodes + edges) floating-point state that makes 10M-node graphs slow
//! and memory-hungry. This module trades the planted-semantics fidelity for
//! scale: endpoints are drawn by an **inverse-CDF Zipf** sampler (O(1)
//! state), ranks are scrambled into node ids by an O(1) modular bijection,
//! and latent classes come from a stateless hash — so edge construction
//! streams straight into the graph builder with no whole-graph temporaries
//! beyond the edge lists the graph itself stores. Multi-edges are possible
//! but rare (no dedup set); these graphs back throughput benchmarks, not
//! link-prediction masking.
//!
//! The companion [`DegreeProfile`] summarizes a generated (or any) graph's
//! degree distribution — min/max/mean plus a maximum-likelihood power-law
//! exponent estimate — and validates that the generator actually produced
//! the heavy-tailed shape the sampled benchmark workload assumes.

use autoac_graph::HeteroGraph;
use autoac_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::{Dataset, Split};

/// Specification of a scale-benchmark graph: three node types (labeled
/// `target`, attributed `attr`, attribute-less `plain`) wired by two
/// power-law edge types (`target-attr`, `target-plain`).
#[derive(Debug, Clone)]
pub struct ScaleSpec {
    /// Dataset name.
    pub name: &'static str,
    /// Labeled, attribute-less target nodes.
    pub target_nodes: usize,
    /// Attributed auxiliary nodes.
    pub attr_nodes: usize,
    /// Attribute-less auxiliary nodes.
    pub plain_nodes: usize,
    /// `target-attr` edges.
    pub attr_edges: usize,
    /// `target-plain` edges.
    pub plain_edges: usize,
    /// Zipf exponent for endpoint rank draws (>1; ~2.1 matches web-scale
    /// degree tails).
    pub gamma: f64,
    /// Label classes on the target type.
    pub num_classes: usize,
    /// Probability that an edge connects same-latent-class endpoints.
    pub assortativity: f64,
    /// Attribute dimension of the `attr` type; `0` generates no feature
    /// matrix at all (every node missing — generation/profiling runs only).
    pub feature_dim: usize,
    /// Fraction of labels flipped to a random class.
    pub label_noise: f64,
}

impl ScaleSpec {
    /// A balanced spec totalling roughly `n` nodes: 40% target, 40%
    /// attributed, 20% plain, with ~4 edges per node.
    pub fn with_total_nodes(name: &'static str, n: usize) -> Self {
        let n = n.max(100);
        Self {
            name,
            target_nodes: n * 2 / 5,
            attr_nodes: n * 2 / 5,
            plain_nodes: n / 5,
            attr_edges: n * 3,
            plain_edges: n,
            gamma: 2.1,
            num_classes: 8,
            assortativity: 0.75,
            feature_dim: 32,
            label_noise: 0.05,
        }
    }

    /// Total node count across all three types.
    pub fn total_nodes(&self) -> usize {
        self.target_nodes + self.attr_nodes + self.plain_nodes
    }
}

/// SplitMix64 — the stateless mixer used for hash-derived classes and the
/// rank-scrambling bijection.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// O(1)-state Zipf sampler over ranks `0..n` with exponent `gamma`: inverse
/// transform of the continuous power-law CDF on `[1, n+1)`. Rank 0 is the
/// heaviest.
struct Zipf {
    n: usize,
    gamma: f64,
    /// `(n+1)^{1-γ} − 1`, precomputed for the inverse CDF (γ ≠ 1).
    span: f64,
}

impl Zipf {
    fn new(n: usize, gamma: f64) -> Self {
        assert!(n > 0, "scale: Zipf over empty domain");
        let span = if (gamma - 1.0).abs() < 1e-9 {
            0.0
        } else {
            ((n as f64) + 1.0).powf(1.0 - gamma) - 1.0
        };
        Self { n, gamma, span }
    }

    fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        let x = if (self.gamma - 1.0).abs() < 1e-9 {
            (u * ((self.n as f64) + 1.0).ln()).exp()
        } else {
            (1.0 + u * self.span).powf(1.0 / (1.0 - self.gamma))
        };
        ((x as usize).saturating_sub(1)).min(self.n - 1)
    }
}

/// O(1) bijection `rank → local id` inside one node type, so hub ranks land
/// on scattered ids instead of a sorted prefix, as in real graphs' id
/// orders.
struct Scramble {
    a: u64,
    b: u64,
    n: u64,
}

impl Scramble {
    fn new(n: usize, salt: u64) -> Self {
        let n = n as u64;
        // A multiplier coprime with n makes `a·r + b mod n` a bijection.
        let mut a = splitmix64(salt) % n;
        a = a.max(1) | 1;
        while gcd(a, n) != 1 {
            a = (a + 2) % n;
            a = a.max(1) | 1;
        }
        Self { a, b: splitmix64(salt ^ 0x5eed) % n, n }
    }

    fn id_of_rank(&self, rank: usize) -> u32 {
        ((self.a.wrapping_mul(rank as u64).wrapping_add(self.b)) % self.n) as u32
    }
}

/// Generates a [`ScaleSpec`] dataset, deterministically in `seed`.
///
/// Construction is streaming: every edge is one Zipf draw per endpoint
/// (plus a capped assortativity retry loop) appended directly to the
/// builder; the only O(nodes) allocations are the label vector, the split,
/// and the optional feature matrix the dataset itself carries.
pub fn generate_scale(spec: &ScaleSpec, seed: u64) -> Dataset {
    let _span = autoac_obs::span("scale_generate");
    assert!(spec.gamma > 1.0, "scale: gamma must exceed 1 for a normalizable tail");
    assert!(spec.num_classes > 0, "scale: need at least one class");
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = spec.num_classes as u64;
    let class_salt = splitmix64(seed ^ 0xc1a5_5e5a);
    // Stateless latent class of a *global* node id.
    let class_of = move |v: u32| (splitmix64(class_salt ^ u64::from(v)) % classes) as u32;

    let mut b = HeteroGraph::builder();
    let t_target = b.add_node_type("target", spec.target_nodes);
    let t_attr = b.add_node_type("attr", spec.attr_nodes);
    let t_plain = b.add_node_type("plain", spec.plain_nodes);
    let e_attr = b.add_edge_type("target-attr", t_target, t_attr);
    let e_plain = b.add_edge_type("target-plain", t_target, t_plain);

    let offsets = [0u32, spec.target_nodes as u32, (spec.target_nodes + spec.attr_nodes) as u32];
    let zipf_target = Zipf::new(spec.target_nodes, spec.gamma);
    let scr_target = Scramble::new(spec.target_nodes, splitmix64(seed ^ 1));
    let mut wire = |e: usize, dst_t: usize, dst_n: usize, n_edges: usize, rng: &mut StdRng| {
        let zipf_dst = Zipf::new(dst_n, spec.gamma);
        let scr_dst = Scramble::new(dst_n, splitmix64(seed ^ (dst_t as u64 + 2)));
        for _ in 0..n_edges {
            let s = scr_target.id_of_rank(zipf_target.sample(rng));
            let s_class = class_of(s);
            let mut d = scr_dst.id_of_rank(zipf_dst.sample(rng));
            if rng.gen_bool(spec.assortativity) {
                // Capped rejection: retry the Zipf draw until the class
                // matches. 32 tries bound the worst case (a class absent
                // from the head); the cap keeps the cost O(1) per edge.
                for _ in 0..32 {
                    if class_of(offsets[dst_t] + d) == s_class {
                        break;
                    }
                    d = scr_dst.id_of_rank(zipf_dst.sample(rng));
                }
            }
            b.add_edge(e, s, offsets[dst_t] + d);
        }
    };
    wire(e_attr, t_attr, spec.attr_nodes, spec.attr_edges, &mut rng);
    wire(e_plain, t_plain, spec.plain_nodes, spec.plain_edges, &mut rng);
    let graph = b.build();
    autoac_obs::counter_add("scale_nodes", graph.num_nodes() as u64);
    autoac_obs::counter_add("scale_edges", graph.num_edges() as u64);

    // Class-informative attr features: a class-indexed spike plus one
    // random word — two nonzeros per row, enough signal for aggregation
    // ops to beat one-hot on attributed neighborhoods.
    let features: Vec<Option<Matrix>> = vec![
        None,
        (spec.feature_dim > 0).then(|| {
            let dim = spec.feature_dim;
            let mut m = Matrix::zeros(spec.attr_nodes, dim);
            for i in 0..spec.attr_nodes {
                let c = class_of(offsets[1] + i as u32) as usize;
                m.set(i, c % dim, 1.0);
                let w = rng.gen_range(0..dim);
                let cur = m.get(i, w);
                m.set(i, w, cur + 0.5);
            }
            m
        }),
        None,
    ];

    let mut labels: Vec<u32> = (0..spec.target_nodes as u32).map(class_of).collect();
    for l in &mut labels {
        if rng.gen_bool(spec.label_noise) {
            *l = rng.gen_range(0..spec.num_classes) as u32;
        }
    }
    let split = Split::hgb(0..spec.target_nodes as u32, &mut rng);

    Dataset {
        name: spec.name.to_string(),
        graph,
        features,
        labels,
        num_classes: spec.num_classes,
        target_type: t_target,
        split,
        lp_edge_type: None,
    }
}

/// Summary of a graph's undirected degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeProfile {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Maximum-likelihood power-law exponent estimate over nonzero degrees
    /// (continuous approximation with the standard −0.5 discreteness
    /// correction at `d_min = 1`).
    pub gamma_hat: f64,
}

/// Computes the [`DegreeProfile`] of a graph (one O(N + E) degree pass).
pub fn degree_profile(g: &HeteroGraph) -> DegreeProfile {
    let _span = autoac_obs::span("degree_profile");
    let deg = g.undirected_degrees();
    assert!(!deg.is_empty(), "degree_profile: empty graph");
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0u64;
    let mut log_sum = 0.0f64;
    let mut nonzero = 0usize;
    for &d in &deg {
        min = min.min(d);
        max = max.max(d);
        sum += d as u64;
        if d > 0 {
            log_sum += (d as f64 / 0.5).ln();
            nonzero += 1;
        }
    }
    let gamma_hat = if nonzero == 0 { f64::NAN } else { 1.0 + nonzero as f64 / log_sum };
    DegreeProfile { min, max, mean: sum as f64 / deg.len() as f64, gamma_hat }
}

impl DegreeProfile {
    /// Internal-consistency check plus a heavy-tail sanity test; returns a
    /// description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.min > self.max {
            return Err(format!("degree min {} exceeds max {}", self.min, self.max));
        }
        if !(self.min as f64 <= self.mean && self.mean <= self.max as f64) {
            return Err(format!(
                "mean degree {:.3} outside [{}, {}]",
                self.mean, self.min, self.max
            ));
        }
        if !self.gamma_hat.is_finite() || self.gamma_hat <= 1.0 {
            return Err(format!(
                "power-law exponent estimate {:.3} is not a normalizable tail (must be > 1)",
                self.gamma_hat
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: usize) -> ScaleSpec {
        ScaleSpec::with_total_nodes("scale-test", n)
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec(5_000);
        let a = generate_scale(&s, 42);
        let b = generate_scale(&s, 42);
        assert_eq!(
            a.graph.structural_fingerprint(),
            b.graph.structural_fingerprint()
        );
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.split.train, b.split.train);
        assert_eq!(
            a.features[1].as_ref().expect("attr features").data(),
            b.features[1].as_ref().expect("attr features").data()
        );
        let c = generate_scale(&s, 43);
        assert_ne!(
            a.graph.structural_fingerprint(),
            c.graph.structural_fingerprint()
        );
    }

    #[test]
    fn spec_shapes_the_graph() {
        let s = spec(5_000);
        let d = generate_scale(&s, 0);
        assert_eq!(d.graph.num_nodes(), s.total_nodes());
        assert_eq!(d.graph.num_edges(), s.attr_edges + s.plain_edges);
        assert_eq!(d.graph.num_node_types(), 3);
        assert_eq!(d.labels.len(), s.target_nodes);
        assert_eq!(d.split.len(), s.target_nodes);
        // Only the attr type carries features: target and plain are V⁻.
        assert_eq!(d.missing_nodes().len(), s.target_nodes + s.plain_nodes);
    }

    #[test]
    fn degrees_are_heavy_tailed_and_profile_validates() {
        let d = generate_scale(&spec(20_000), 7);
        let p = degree_profile(&d.graph);
        p.validate().expect("profile must validate");
        assert_eq!(p.min, 0, "a Zipf tail leaves some nodes isolated");
        assert!(p.max > 100, "expected hubs, max degree {}", p.max);
        assert!(p.mean > 1.0 && p.mean < 20.0, "mean {}", p.mean);
        assert!(
            p.gamma_hat > 1.2 && p.gamma_hat < 5.0,
            "gamma_hat {:.3} outside the plausible band",
            p.gamma_hat
        );
    }

    #[test]
    fn edges_are_assortative_in_latent_class() {
        let mut s = spec(10_000);
        s.label_noise = 0.0;
        let d = generate_scale(&s, 3);
        // An edge's endpoints agree on latent class far above chance; use
        // labels (= target latents at zero noise) against attr latents
        // recovered from the feature spike.
        let feats = d.features[1].as_ref().expect("attr features");
        let attr_start = d.graph.nodes_of_type(1).start;
        let mut same = 0usize;
        let mut total = 0usize;
        for &(t, a) in d.graph.edges_of_type(0) {
            let a_local = a as usize - attr_start;
            let a_class = (0..s.feature_dim)
                .max_by(|&i, &j| {
                    feats.get(a_local, i).partial_cmp(&feats.get(a_local, j)).expect("finite")
                })
                .expect("nonempty row") as u32;
            same += usize::from(d.labels[t as usize] == a_class);
            total += 1;
        }
        let frac = same as f64 / total as f64;
        let chance = 1.0 / s.num_classes as f64;
        assert!(
            frac > chance + 0.2,
            "same-class edge fraction {frac:.3} vs chance {chance:.3}"
        );
    }

    #[test]
    fn scramble_is_a_bijection() {
        for n in [7usize, 100, 4096, 9999] {
            let s = Scramble::new(n, 123);
            let mut seen = vec![false; n];
            for r in 0..n {
                let id = s.id_of_rank(r) as usize;
                assert!(!seen[id], "id {id} hit twice (n={n})");
                seen[id] = true;
            }
        }
    }

    #[test]
    fn zipf_head_dominates_tail() {
        let z = Zipf::new(10_000, 2.1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut head = 0usize;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With γ=2.1, the top 1% of ranks draws the vast majority of mass.
        assert!(head > 7_000, "head draws {head}/10000");
    }
}
