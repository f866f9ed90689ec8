//! Pins neighbor-sampled batches on a hub-heavy multigraph.
//!
//! The tiny presets behind `run_loop_digests.rs` repeat few edges, so a
//! change to how a batch is sampled or induced could keep those digests
//! and still reorder or drop the multi-edges that hubs collect. This file
//! samples batches from a 5k-node power-law graph (the `sampled-50k`
//! benchmark's generator at a tenth of its size) and folds each batch's
//! nodes, core flags and per-type induced edge sequence into a
//! [`Fingerprint`]. The constants were computed once and must not change.
//!
//! On the same batches, the completion context a batch builds
//! (`CompletionContext::build`) must equal the one fetched through a fresh
//! operator cache (`build_cached`) bit for bit: every row's entries and
//! value bits, and the missing-node list.

use autoac_ckpt::Fingerprint;
use autoac_completion::CompletionContext;
use autoac_core::{batch_rng, NeighborSampler, SampledBatch};
use autoac_data::{generate_scale, Dataset, ScaleSpec};
use autoac_graph::OpCache;
use autoac_tensor::Csr;
use rand::seq::SliceRandom;

const BATCH_SIZE: usize = 64;
const FANOUT: Option<usize> = Some(5);
const HOPS: usize = 2;

fn hub_graph() -> Dataset {
    generate_scale(&ScaleSpec::with_total_nodes("hub-5k", 5_000), 3)
}

/// Batch `batch` of epoch `epoch`: the train split shuffled by a
/// `(seed, epoch)` stream, cut into `BATCH_SIZE` cores, expanded under the
/// `(seed, epoch, batch)` stream — the shape of a sampled training epoch.
fn sample(
    data: &Dataset,
    sampler: &NeighborSampler,
    seed: u64,
    epoch: u64,
    batch: u64,
) -> SampledBatch {
    let mut order = data.split.train.clone();
    order.shuffle(&mut batch_rng(seed, epoch, u64::MAX));
    let core = order
        .chunks(BATCH_SIZE)
        .nth(batch as usize)
        .expect("the train split has this many batches");
    sampler.sample(&data.graph, core, FANOUT, HOPS, &mut batch_rng(seed, epoch, batch))
}

fn batch_fp(b: &SampledBatch) -> u64 {
    let mut fp = Fingerprint::new().u64(b.nodes.len() as u64);
    for (&v, &core) in b.nodes.iter().zip(&b.is_core) {
        fp = fp.u64(u64::from(v)).bool(core);
    }
    for et in 0..b.graph.num_edge_types() {
        let edges = b.graph.edges_of_type(et);
        fp = fp.u64(edges.len() as u64);
        for &(s, d) in edges {
            fp = fp.u64(u64::from(s)).u64(u64::from(d));
        }
    }
    fp.finish()
}

/// Every row's length, column indices and value bits.
fn csr_fp(m: &Csr) -> u64 {
    let mut fp = Fingerprint::new().u64(m.n_rows() as u64).u64(m.n_cols() as u64);
    for r in 0..m.n_rows() {
        fp = fp.u64(m.row_nnz(r) as u64);
        for (c, v) in m.row(r) {
            fp = fp.u64(u64::from(c)).f32(v);
        }
    }
    fp.finish()
}

fn context_fps(ctx: &CompletionContext) -> [u64; 5] {
    [
        csr_fp(&ctx.mean_agg),
        csr_fp(&ctx.mean_agg_t),
        csr_fp(&ctx.gcn_agg),
        csr_fp(&ctx.gcn_agg_t),
        csr_fp(&ctx.sym_adj),
    ]
}

/// `(seed, epoch, batch)` coordinates and the digest of each batch.
const PINNED: [((u64, u64, u64), u64); 6] = [
    ((0, 0, 0), 0x0b7e5d5bd70c2313),
    ((0, 0, 3), 0xf06462fc2e20528f),
    ((0, 1, 1), 0x9b31b3eeaa675656),
    ((7, 2, 0), 0x57cdee21b5101e6c),
    ((7, 5, 4), 0x7912ae71903003ca),
    ((900, 0, 2), 0xd501255efc80079b),
];

#[test]
fn sampled_batches_are_pinned() {
    let data = hub_graph();
    let sampler = NeighborSampler::new(&data.graph);
    let mut repeated = 0usize;
    for &((seed, epoch, batch), want) in &PINNED {
        let b = sample(&data, &sampler, seed, epoch, batch);
        for et in 0..b.graph.num_edge_types() {
            let mut edges = b.graph.edges_of_type(et).to_vec();
            let stored = edges.len();
            edges.sort_unstable();
            edges.dedup();
            repeated += stored - edges.len();
        }
        assert_eq!(
            batch_fp(&b),
            want,
            "batch ({seed}, {epoch}, {batch}) changed: {:#018x}",
            batch_fp(&b)
        );
    }
    assert!(repeated > 0, "the pinned batches must hold repeated (multi-)edges");
}

#[test]
fn batch_context_equals_the_cached_build() {
    let data = hub_graph();
    let sampler = NeighborSampler::new(&data.graph);
    let has_attr = data.has_attr();
    for &((seed, epoch, batch), _) in &PINNED {
        let b = sample(&data, &sampler, seed, epoch, batch);
        let has_attr_sub: Vec<bool> = b.nodes.iter().map(|&v| has_attr[v as usize]).collect();
        let direct = CompletionContext::build(&b.graph, &has_attr_sub);
        let cached = CompletionContext::build_cached(
            &b.graph,
            &has_attr_sub,
            &OpCache::new(&b.graph),
        );
        assert!(!direct.missing.is_empty(), "batch ({seed}, {epoch}, {batch}) has no V⁻ node");
        assert_eq!(direct.missing, cached.missing);
        assert_eq!(direct.num_nodes, cached.num_nodes);
        assert_eq!(
            context_fps(&direct),
            context_fps(&cached),
            "batch ({seed}, {epoch}, {batch}): operators differ"
        );
    }
}
