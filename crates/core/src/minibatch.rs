//! The neighbor-sampled minibatch schedule for the AutoAC search and
//! retraining loops, for graphs two orders of magnitude beyond the
//! full-batch path.
//!
//! Every epoch shuffles the train split, cuts it into cores of
//! `batch_size` nodes, and expands each core with the deterministic
//! [`NeighborSampler`](crate::sampler::NeighborSampler). It runs on the one
//! training loop and the one search loop the whole-graph path uses. Both
//! entry points refuse `batch_size == 0`: whole-graph runs call
//! [`train_node_classification_checkpointed`](crate::train_node_classification_checkpointed)
//! and [`search_checkpointed`](crate::search_checkpointed) directly.
//!
//! Checkpoints written by the minibatch loops carry a non-zero
//! `RunMeta::segment_fp` (a hash of the schedule), so resuming a run
//! under a different schedule fails loudly instead of silently mixing
//! batch trajectories.

use autoac_ckpt::{CheckpointPolicy, Fingerprint, RunMeta};
use autoac_completion::{
    complete_assigned, complete_assigned_in, complete_mixture_in, CompletionContext,
    CompletionOp, CompletionOps,
};
use autoac_data::Dataset;
use autoac_graph::{HeteroGraph, OpCache, ShardStrategy};
use autoac_nn::models::{Gcn, Gnn};
use autoac_nn::{FeatureEncoder, Forward, GnnConfig};
use autoac_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cluster::ModularityContext;
use crate::pipeline::{CompletionMode, ForwardPipe};
use crate::sampler::{batch_rng, NeighborSampler, SampledBatch};
use crate::search::{run_search, AutoAcConfig, ClusteringMode, Fill, SearchOutcome, SearchSchedule};
use crate::trainer::{descend, eval_classification, f1_score, fit, ClsOutcome, TrainConfig};

/// Reserved `batch` coordinate for per-epoch schedule shuffles (never
/// collides with real batch indices).
const SCHEDULE_DRAW: u64 = u64::MAX;
/// Reserved `epoch` coordinate for one-time validation-batch sampling.
const VAL_DRAW: u64 = u64::MAX;

/// Minibatch schedule configuration.
#[derive(Debug, Clone, Copy)]
pub struct MinibatchConfig {
    /// Core nodes per sampled batch, at least 1: both entry points refuse
    /// the default `0`.
    pub batch_size: usize,
    /// Per-node neighbor cap per expansion hop (`None` = all neighbors).
    pub fanout: Option<usize>,
    /// Neighbor-expansion rounds around each core (2 matches the default
    /// 2-layer GCN receptive field).
    pub hops: usize,
    /// Sampled batches per epoch; `0` covers the whole train split once.
    pub batches_per_epoch: usize,
    /// The deleted shard schedule's shard count. Only `0` and `1` run;
    /// both entry points refuse `≥ 2`. The field stays because the
    /// benchmark's struct literal names it.
    pub shards: usize,
    /// Partitioning strategy of the deleted shard schedule; one value, kept
    /// for the same reason as `shards`.
    pub strategy: ShardStrategy,
}

impl Default for MinibatchConfig {
    fn default() -> Self {
        Self {
            batch_size: 0,
            fanout: None,
            hops: 2,
            batches_per_epoch: 0,
            shards: 0,
            strategy: ShardStrategy::DegreeLocality,
        }
    }
}

impl MinibatchConfig {
    /// Panics before anything runs in place of what `self` asks for:
    /// `shards ≥ 2` selected the deleted shard schedule, and
    /// `batch_size == 0` samples no batch (the message names `whole_graph`,
    /// the function that trains on the whole graph).
    fn refuse_unsampled(&self, whole_graph: &str) {
        assert!(
            self.shards <= 1,
            "MinibatchConfig: shards = {} selects the shard schedule, which was deleted; \
             use batch_size (neighbor sampling) or shards <= 1",
            self.shards
        );
        assert!(
            self.batch_size > 0,
            "MinibatchConfig: batch_size = 0 samples no batch; call {whole_graph} to train on \
             the whole graph"
        );
    }

    /// Segment fingerprint recorded in checkpoints (whole-graph runs record
    /// `0`): a hash of every schedule-shaping field. The last word stood for
    /// the shard plan's fingerprint and is 0, so values written so far still
    /// match.
    pub fn segment_fp(&self) -> u64 {
        Fingerprint::new()
            .u64(self.batch_size as u64)
            .u64(self.fanout.map_or(0, |f| f as u64 + 1))
            .u64(self.hops as u64)
            .u64(self.batches_per_epoch as u64)
            .u64(self.shards as u64)
            .u64(u64::from(self.strategy.tag()))
            .u64(0)
            .finish()
    }
}

/// A prepared batch: the subgraph, its completion operators, label and
/// loss-row bookkeeping, and the index maps back into the parent graph.
struct BatchData {
    /// Selected global ids, sorted (batch-local id order).
    nodes: Vec<u32>,
    /// The induced subgraph in batch-local ids.
    graph: HeteroGraph,
    /// Completion operators over the batch subgraph (local id space);
    /// `ctx.sym_adj` doubles as the GCN operator.
    ctx: CompletionContext,
    /// Global missing-list position of each batch-local missing node.
    onehot_rows: Vec<u32>,
    /// Global labels gathered into batch-local order.
    labels: Vec<u32>,
    /// Batch-local rows the training loss reads (core ∩ train split).
    loss_rows: Vec<u32>,
    /// Batch-local rows of core validation nodes.
    val_rows: Vec<u32>,
}

/// Pipeline variant that can run both whole-graph and batch-local forwards
/// with one set of weights. The backbone is a concrete [`Gcn`] (the only
/// backbone whose layer stack is defined over an arbitrary normalized
/// adjacency); construction consumes RNG draws exactly like
/// [`Pipeline::new_cached`](crate::pipeline::Pipeline::new_cached) with
/// [`Backbone::Gcn`], so a same-seed
/// [`MinibatchPipeline`] and `Pipeline` hold bitwise-identical parameters.
pub struct MinibatchPipeline {
    /// Per-type input projections.
    pub encoder: FeatureEncoder,
    /// Completion op parameters and whole-graph operators.
    pub ops: CompletionOps,
    /// GCN backbone (whole-graph `Â` inside; batches supply their own).
    pub gcn: Gcn,
    mode: CompletionMode,
    has_attr: Vec<bool>,
    /// Global node id → position in the global missing list
    /// (`u32::MAX` for attributed nodes).
    missing_index: Vec<u32>,
}

impl MinibatchPipeline {
    /// Assembles the pipeline with a private operator cache.
    pub fn new(
        data: &Dataset,
        cfg: &GnnConfig,
        mode: CompletionMode,
        rng: &mut StdRng,
    ) -> Self {
        Self::new_cached(data, cfg, mode, &OpCache::new(&data.graph), rng)
    }

    /// Assembles the pipeline; whole-graph operators come from `cache`.
    pub fn new_cached(
        data: &Dataset,
        cfg: &GnnConfig,
        mode: CompletionMode,
        cache: &OpCache,
        rng: &mut StdRng,
    ) -> Self {
        let has_attr = data.has_attr();
        // Same construction (and RNG-draw) order as Pipeline::new_cached.
        let encoder = FeatureEncoder::new(&data.graph, &data.features, cfg.in_dim, rng);
        let ctx = CompletionContext::build_cached(&data.graph, &has_attr, cache);
        let ops = CompletionOps::new(ctx, cfg.in_dim, rng);
        let gcn = Gcn::with_adj(cache.sym_norm_adj(&data.graph), cfg, rng);
        let mut missing_index = vec![u32::MAX; data.graph.num_nodes()];
        for (i, &v) in ops.ctx().missing.iter().enumerate() {
            missing_index[v as usize] = i as u32;
        }
        Self { encoder, ops, gcn, mode, has_attr, missing_index }
    }

    /// Batch-local forward: encode only the batch's nodes, complete its
    /// missing rows with the shared op parameters against the batch
    /// operators, and run the GCN stack over the batch's `Â`.
    fn forward_batch(&self, bd: &BatchData, training: bool, rng: &mut StdRng) -> Forward {
        let x0 = self.encoder.encode_subset(&bd.nodes);
        let x = match self.mode.assignment(&bd.onehot_rows) {
            None => x0,
            Some(sub) => complete_assigned_in(&self.ops, &bd.ctx, &bd.onehot_rows, &x0, &sub),
        };
        self.gcn.forward_on(&bd.ctx.sym_adj, &x, training, rng)
    }
}

impl ForwardPipe for MinibatchPipeline {
    fn forward(&self, training: bool, rng: &mut StdRng) -> Forward {
        let x0 = self.encoder.encode();
        let x = match self.mode.assignment(self.ops.identity_rows()) {
            None => x0,
            Some(assign) => complete_assigned(&self.ops, &x0, &assign),
        };
        self.gcn.forward(&x, training, rng)
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.encoder.params();
        p.extend(self.mode.op_params(&self.ops));
        p.extend(self.gcn.params());
        p
    }
}

/// The batch schedule of one run, fixed at its start, with what building
/// a batch needs: labels and split membership by global id.
struct Schedule<'a> {
    pipe: &'a MinibatchPipeline,
    data: &'a Dataset,
    mb: MinibatchConfig,
    seed: u64,
    labels: Vec<u32>,
    in_train: Vec<bool>,
    in_val: Vec<bool>,
    sampler: NeighborSampler,
    /// The fixed validation batch (`None` without a validation split).
    val_batch: Option<BatchData>,
}

fn membership_mask(n: usize, ids: &[u32]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &v in ids {
        mask[v as usize] = true;
    }
    mask
}

impl<'a> Schedule<'a> {
    /// Builds the run's schedule and its fixed validation batch (a
    /// deterministic subset of the val split plus sampled halo). Draws
    /// nothing from the training RNG.
    fn new(
        pipe: &'a MinibatchPipeline,
        data: &'a Dataset,
        mb: &MinibatchConfig,
        seed: u64,
    ) -> Self {
        let n = data.graph.num_nodes();
        let mut s = Schedule {
            pipe,
            data,
            mb: *mb,
            seed,
            labels: data.global_labels(),
            in_train: membership_mask(n, &data.split.train),
            in_val: membership_mask(n, &data.split.val),
            sampler: NeighborSampler::new(&data.graph),
            val_batch: None,
        };
        s.val_batch = (!data.split.val.is_empty()).then(|| {
            // A fixed, deterministic validation core: up to one batch
            // worth of val nodes (at least 256 for a stable early-stop
            // signal).
            let mut val_ids = data.split.val.clone();
            val_ids.shuffle(&mut batch_rng(seed, VAL_DRAW, 0));
            val_ids.truncate(mb.batch_size.max(256).min(val_ids.len()));
            s.sample(&val_ids, VAL_DRAW, 1)
        });
        s
    }

    /// The sampled batch around `core`, expanded under the `(seed, epoch,
    /// batch)` stream — the one builder of every batch: the subgraph, its
    /// completion operators and its label and loss-row bookkeeping.
    fn sample(&self, core: &[u32], epoch: u64, batch: u64) -> BatchData {
        let mut rng = batch_rng(self.seed, epoch, batch);
        let SampledBatch { nodes, is_core, graph } =
            self.sampler.sample(&self.data.graph, core, self.mb.fanout, self.mb.hops, &mut rng);
        let has_attr_sub: Vec<bool> =
            nodes.iter().map(|&v| self.pipe.has_attr[v as usize]).collect();
        let ctx = CompletionContext::build(&graph, &has_attr_sub);
        let onehot_rows: Vec<u32> = ctx
            .missing
            .iter()
            .map(|&i| {
                let p = self.pipe.missing_index[nodes[i as usize] as usize];
                assert!(p != u32::MAX, "batch missing node is attributed globally");
                p
            })
            .collect();
        let labels: Vec<u32> = nodes.iter().map(|&v| self.labels[v as usize]).collect();
        let mut loss_rows = Vec::new();
        let mut val_rows = Vec::new();
        for (i, &v) in nodes.iter().enumerate() {
            if !is_core[i] {
                continue;
            }
            if self.in_train[v as usize] {
                loss_rows.push(i as u32);
            } else if self.in_val[v as usize] {
                val_rows.push(i as u32);
            }
        }
        BatchData { nodes, graph, ctx, onehot_rows, labels, loss_rows, val_rows }
    }

    /// The batch cores for one epoch: the train split shuffled by a
    /// `(seed, epoch)`-derived RNG and cut into `batch_size` chunks,
    /// optionally truncated to `batches_per_epoch`.
    fn cores(&self, epoch: usize) -> Vec<Vec<u32>> {
        let mut order = self.data.split.train.clone();
        order.shuffle(&mut batch_rng(self.seed, epoch as u64, SCHEDULE_DRAW));
        let mut cores: Vec<Vec<u32>> =
            order.chunks(self.mb.batch_size).map(<[u32]>::to_vec).collect();
        if self.mb.batches_per_epoch > 0 {
            cores.truncate(self.mb.batches_per_epoch);
        }
        cores
    }

    /// Validation F1 for one epoch, scored on the fixed validation batch.
    fn val_scores(&self, rng: &mut StdRng) -> autoac_eval::F1Scores {
        autoac_tensor::no_grad(|| {
            let mut pred = Vec::new();
            let mut truth = Vec::new();
            for bd in self.val_batch.iter().filter(|bd| !bd.val_rows.is_empty()) {
                let fwd = self.pipe.forward_batch(bd, false, rng);
                let out = fwd.output.value();
                for &r in &bd.val_rows {
                    pred.push(out.argmax_row(r as usize) as u32);
                    truth.push(bd.labels[r as usize]);
                }
            }
            autoac_eval::f1_scores(&pred, &truth, self.data.num_classes)
        })
    }
}

/// Minibatch node-classification training.
///
/// Each epoch steps through the schedule's batches, early-stops on
/// (approximate) validation Micro-F1, and the run finishes with an
/// **exact** whole-graph test evaluation. Panics on `batch_size == 0`
/// (call [`train_node_classification_checkpointed`](crate::train_node_classification_checkpointed)
/// instead) and on `shards ≥ 2` (the deleted shard schedule).
pub fn train_node_classification_minibatch(
    pipe: &MinibatchPipeline,
    data: &Dataset,
    cfg: &TrainConfig,
    mb: &MinibatchConfig,
    seed: u64,
    policy: Option<&CheckpointPolicy>,
) -> ClsOutcome {
    mb.refuse_unsampled("train_node_classification_checkpointed");
    assert!(data.num_classes > 0, "dataset has no classification task");
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = Schedule::new(pipe, data, mb, seed);
    let graph_fp = data.graph.structural_fingerprint();
    let meta = RunMeta {
        segment_fp: mb.segment_fp(),
        ..RunMeta::whole_graph("train-cls-mb", graph_fp, cfg.fingerprint(), seed)
    };
    let (epochs_run, seconds) = fit(&pipe.params(), cfg, meta, &mut rng, policy, |epoch, opt, rng| {
        let mut loss_sum = 0.0f64;
        let mut steps = 0u32;
        for (b, core) in schedule.cores(epoch).iter().enumerate() {
            let bd = schedule.sample(core, epoch as u64, b as u64);
            if bd.loss_rows.is_empty() {
                continue;
            }
            opt.zero_grad();
            let fwd = pipe.forward_batch(&bd, true, rng);
            let loss = fwd.output.cross_entropy_rows(&bd.labels, &bd.loss_rows);
            if autoac_obs::enabled() {
                loss_sum += f64::from(loss.item());
                steps += 1;
            }
            descend(opt, &loss);
            autoac_obs::counter_add("minibatch_steps", 1);
        }
        if autoac_obs::enabled() && steps > 0 {
            autoac_obs::series("train_loss", epoch as u64, loss_sum / f64::from(steps));
        }
        f1_score(epoch, &schedule.val_scores(rng))
    });
    // Exact whole-graph test evaluation (the sampling approximation only
    // ever touches the training trajectory, never the reported metric).
    let test = eval_classification(pipe, data, &data.split.test, &mut rng);
    ClsOutcome { macro_f1: test.macro_f1, micro_f1: test.micro_f1, seconds, epochs_run }
}

/// The batched search schedule: each epoch's α step runs on the fixed
/// validation batch and its ω step on a train-cored batch, rotating
/// through the epoch's cores.
struct Batched<'a> {
    schedule: Schedule<'a>,
    clusters: usize,
    hidden_dim: usize,
    /// This epoch's train batch.
    sampled: Option<BatchData>,
}

impl Batched<'_> {
    fn train_batch(&self) -> &BatchData {
        self.sampled.as_ref().expect("begin_epoch samples the epoch's train batch")
    }
}

impl SearchSchedule for Batched<'_> {
    fn num_missing(&self) -> usize {
        self.schedule.pipe.ops.ctx().num_missing()
    }

    fn omega(&self) -> Vec<Tensor> {
        let pipe = self.schedule.pipe;
        let mut omega = pipe.encoder.params();
        omega.extend(pipe.ops.params());
        omega.extend(pipe.gcn.params());
        omega
    }

    fn hidden_dim(&self, _rng: &mut StdRng) -> usize {
        self.hidden_dim
    }

    fn begin_epoch(&mut self, epoch: usize) {
        // Drop the last epoch's batch before sampling this one, so one
        // sampled batch is alive at a time.
        self.sampled = None;
        let cores = self.schedule.cores(epoch);
        let core = &cores[epoch % cores.len()];
        self.sampled = Some(self.schedule.sample(core, epoch as u64, 0));
    }

    fn forward(
        &self,
        validation: bool,
        fill: Fill,
        cluster_of: &[u32],
        rng: &mut StdRng,
    ) -> Option<(Forward, Tensor)> {
        let bd = if validation { &self.schedule.val_batch } else { &self.sampled }.as_ref()?;
        let rows = if validation { &bd.val_rows } else { &bd.loss_rows };
        if rows.is_empty() {
            return None;
        }
        let pipe = self.schedule.pipe;
        let x0 = pipe.encoder.encode_subset(&bd.nodes);
        let x = match fill {
            Fill::Mixture(w) => {
                let clusters: Vec<u32> =
                    bd.onehot_rows.iter().map(|&p| cluster_of[p as usize]).collect();
                let per_node = w.gather_rows(&clusters);
                complete_mixture_in(&pipe.ops, &bd.ctx, &bd.onehot_rows, &x0, &per_node)
            }
            Fill::Assigned(assignment) => {
                let sub: Vec<CompletionOp> =
                    bd.onehot_rows.iter().map(|&p| assignment[p as usize]).collect();
                complete_assigned_in(&pipe.ops, &bd.ctx, &bd.onehot_rows, &x0, &sub)
            }
        };
        let fwd = pipe.gcn.forward_on(&bd.ctx.sym_adj, &x, true, rng);
        let loss = fwd.output.cross_entropy_rows(&bd.labels, rows);
        Some((fwd, loss))
    }

    fn modularity_loss(&self, c: &Tensor) -> Tensor {
        ModularityContext::build(&self.train_batch().graph, self.clusters).loss(c)
    }

    fn missing_rows(&self) -> (&[u32], &[u32]) {
        let bd = self.train_batch();
        (&bd.ctx.missing, &bd.onehot_rows)
    }
}

/// Minibatch AutoAC search (classification) on the one search loop: one α
/// step (on a val-cored batch) and one ω step (on a train-cored batch) per
/// epoch, rotating through the schedule. Panics on `batch_size == 0` (call
/// [`search_checkpointed`](crate::search_checkpointed) with
/// [`Backbone::Gcn`](crate::Backbone::Gcn) instead) and on `shards ≥ 2` (the
/// deleted shard schedule).
///
/// Supported clustering modes: [`ClusteringMode::GmoC`] (modularity built
/// over the batch subgraph; cluster ids refreshed incrementally for the
/// missing nodes each batch touches) and [`ClusteringMode::NoCluster`]. The
/// EM variants need whole-graph hidden states and are rejected.
#[allow(clippy::too_many_arguments)]
pub fn search_minibatch(
    data: &Dataset,
    gnn_cfg: &GnnConfig,
    ac: &AutoAcConfig,
    mb: &MinibatchConfig,
    seed: u64,
    cache: &OpCache,
    policy: Option<&CheckpointPolicy>,
) -> SearchOutcome {
    mb.refuse_unsampled("search_checkpointed with Backbone::Gcn");
    assert!(
        matches!(ac.clustering, ClusteringMode::GmoC | ClusteringMode::NoCluster),
        "search_minibatch supports GmoC and NoCluster clustering only"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let pipe = MinibatchPipeline::new_cached(data, gnn_cfg, CompletionMode::Zero, cache, &mut rng);
    let schedule = Schedule::new(&pipe, data, mb, seed);
    let graph_fp = data.graph.structural_fingerprint();
    let meta = RunMeta {
        segment_fp: mb.segment_fp(),
        ..RunMeta::whole_graph("search-mb", graph_fp, ac.fingerprint(), seed)
    };
    // The GCN's penultimate width is static — no whole-graph dry forward
    // needed to size the clustering head.
    let hidden_dim = if gnn_cfg.layers >= 2 { gnn_cfg.hidden } else { gnn_cfg.in_dim };
    let clusters = ac.clusters.max(2);
    let batched = Batched { schedule, clusters, hidden_dim, sampled: None };
    run_search(batched, ac, meta, &mut rng, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Backbone, Pipeline};
    use autoac_data::{presets, synth};

    fn tiny() -> Dataset {
        synth::generate(&presets::imdb(), synth::Scale::Tiny, 0)
    }

    fn cfg(data: &Dataset) -> GnnConfig {
        GnnConfig {
            in_dim: 16,
            hidden: 16,
            out_dim: data.num_classes,
            layers: 2,
            dropout: 0.2,
            ..Default::default()
        }
    }

    #[test]
    fn segment_fp_values_are_pinned() {
        // Checkpoints store these values, so a resume across versions
        // needs them unchanged: the benchmark's `sampled-50k` schedule and
        // the one the tests run.
        let bench = MinibatchConfig {
            batch_size: 256,
            fanout: Some(10),
            hops: 2,
            batches_per_epoch: 4,
            ..Default::default()
        };
        assert_eq!(bench.segment_fp(), 0x7749e11769fd26a6);
        let tests = MinibatchConfig { batch_size: 24, fanout: Some(5), ..Default::default() };
        assert_eq!(tests.segment_fp(), 0xe95e30181b142b98);
    }

    #[test]
    #[should_panic(expected = "selects the shard schedule, which was deleted")]
    fn search_minibatch_refuses_shards() {
        let data = tiny();
        let mb = MinibatchConfig { shards: 2, ..Default::default() };
        let cache = OpCache::new(&data.graph);
        search_minibatch(&data, &cfg(&data), &AutoAcConfig::default(), &mb, 0, &cache, None);
    }

    #[test]
    #[should_panic(expected = "selects the shard schedule, which was deleted")]
    fn minibatch_training_refuses_shards() {
        let data = tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let pipe = MinibatchPipeline::new(&data, &cfg(&data), CompletionMode::Zero, &mut rng);
        let mb = MinibatchConfig { shards: 2, ..Default::default() };
        train_node_classification_minibatch(&pipe, &data, &TrainConfig::default(), &mb, 0, None);
    }

    #[test]
    #[should_panic(expected = "samples no batch; call search_checkpointed")]
    fn search_minibatch_refuses_batch_size_zero() {
        let data = tiny();
        let cache = OpCache::new(&data.graph);
        let mb = MinibatchConfig::default();
        search_minibatch(&data, &cfg(&data), &AutoAcConfig::default(), &mb, 0, &cache, None);
    }

    #[test]
    #[should_panic(expected = "samples no batch; call train_node_classification_checkpointed")]
    fn minibatch_training_refuses_batch_size_zero() {
        let data = tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let pipe = MinibatchPipeline::new(&data, &cfg(&data), CompletionMode::Zero, &mut rng);
        let mb = MinibatchConfig::default();
        train_node_classification_minibatch(&pipe, &data, &TrainConfig::default(), &mb, 0, None);
    }

    #[test]
    fn minibatch_pipeline_is_bitwise_identical_to_legacy_pipeline() {
        // Two inputs: tiny IMDB with mean completion, and a 2,000-node
        // power-law `generate_scale` graph with zero-filled attributes.
        let imdb = tiny();
        let scale = autoac_data::generate_scale(
            &autoac_data::ScaleSpec::with_total_nodes("scale-2k", 2_000),
            0,
        );
        let scale_gnn = GnnConfig {
            in_dim: 32,
            hidden: 32,
            out_dim: scale.num_classes,
            heads: 1,
            dropout: 0.1,
            edge_dim: 8,
            ..Default::default()
        };
        let cases = [
            (&imdb, cfg(&imdb), CompletionMode::Single(CompletionOp::Mean), 11, 5, 4),
            (&scale, scale_gnn, CompletionMode::Zero, 0, 0, 8),
        ];
        for (data, gnn, mode, build_seed, seed, epochs) in cases {
            let tc = TrainConfig { epochs, patience: epochs, ..Default::default() };
            let mut rng = StdRng::seed_from_u64(build_seed);
            let legacy = Pipeline::new(data, Backbone::Gcn, &gnn, mode.clone(), &mut rng);
            let a = crate::trainer::train_node_classification(&legacy, data, &tc, seed);

            // Whole-graph training of the minibatch pipeline: the forward
            // its exact test evaluation runs after sampled training.
            let mut rng = StdRng::seed_from_u64(build_seed);
            let mbp = MinibatchPipeline::new(data, &gnn, mode, &mut rng);
            let b = crate::trainer::train_node_classification(&mbp, data, &tc, seed);
            let what = data.name.as_str();
            assert_eq!(a.micro_f1.to_bits(), b.micro_f1.to_bits(), "{what}: micro-F1");
            assert_eq!(a.macro_f1.to_bits(), b.macro_f1.to_bits(), "{what}: macro-F1");
            assert_eq!(a.epochs_run, b.epochs_run, "{what}: epochs");
        }
    }

    #[test]
    fn sampled_training_learns_and_is_deterministic() {
        let data = tiny();
        let gnn = cfg(&data);
        let tc = TrainConfig { epochs: 25, patience: 25, ..Default::default() };
        let mb = MinibatchConfig {
            batch_size: 24,
            fanout: Some(5),
            ..Default::default()
        };
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let pipe = MinibatchPipeline::new(
                &data,
                &gnn,
                CompletionMode::Single(CompletionOp::OneHot),
                &mut rng,
            );
            train_node_classification_minibatch(&pipe, &data, &tc, &mb, seed, None)
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a.micro_f1.to_bits(), b.micro_f1.to_bits(), "must be deterministic");
        assert_eq!(a.epochs_run, b.epochs_run);
        let chance = 1.0 / data.num_classes as f64;
        assert!(a.micro_f1 > chance + 0.1, "micro-f1 {:.3} vs chance {chance:.3}", a.micro_f1);
    }

    #[test]
    fn minibatch_search_produces_valid_assignment() {
        let data = tiny();
        let gnn = cfg(&data);
        let ac = AutoAcConfig {
            clusters: 4,
            search_epochs: 8,
            omega_warmup: 2,
            train: TrainConfig { epochs: 5, ..Default::default() },
            ..Default::default()
        };
        let mb = MinibatchConfig { batch_size: 24, fanout: Some(5), ..Default::default() };
        let cache = OpCache::new(&data.graph);
        let out = search_minibatch(&data, &gnn, &ac, &mb, 0, &cache, None);
        assert_eq!(out.assignment.len(), data.missing_nodes().len());
        assert!(out.cluster_of.iter().all(|&c| c < 4));
        assert_eq!(out.op_histogram.iter().sum::<usize>(), out.assignment.len());
        assert!(out.alpha.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn minibatch_search_nocluster_runs() {
        let data = tiny();
        let gnn = cfg(&data);
        let ac = AutoAcConfig {
            clustering: ClusteringMode::NoCluster,
            search_epochs: 5,
            omega_warmup: 1,
            train: TrainConfig { epochs: 3, ..Default::default() },
            ..Default::default()
        };
        let mb = MinibatchConfig { batch_size: 24, fanout: Some(5), ..Default::default() };
        let cache = OpCache::new(&data.graph);
        let out = search_minibatch(&data, &gnn, &ac, &mb, 1, &cache, None);
        let n_minus = data.missing_nodes().len();
        assert_eq!(out.assignment.len(), n_minus);
        assert_eq!(out.alpha.rows(), n_minus);
    }

    #[test]
    fn end_to_end_minibatch_autoac_beats_chance() {
        let data = tiny();
        let gnn = cfg(&data);
        let ac = AutoAcConfig {
            clusters: 4,
            search_epochs: 6,
            omega_warmup: 2,
            train: TrainConfig { epochs: 40, patience: 40, ..Default::default() },
            ..Default::default()
        };
        let mb = MinibatchConfig { batch_size: 32, fanout: Some(8), ..Default::default() };
        let cache = OpCache::new(&data.graph);
        let search = search_minibatch(&data, &gnn, &ac, &mb, 2, &cache, None);
        let mut rng = StdRng::seed_from_u64(2 ^ 0x5eed);
        let mode = CompletionMode::Assigned(search.assignment);
        let pipe = MinibatchPipeline::new_cached(&data, &gnn, mode, &cache, &mut rng);
        let outcome =
            train_node_classification_minibatch(&pipe, &data, &ac.train, &mb, 2 ^ 0x7e7e, None);
        let chance = 1.0 / data.num_classes as f64;
        assert!(
            outcome.micro_f1 > chance + 0.1,
            "micro-f1 {:.3} vs chance {chance:.3}",
            outcome.micro_f1
        );
    }
}
