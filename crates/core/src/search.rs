//! The AutoAC differentiable completion-operation search (paper §IV-B/C):
//! bi-level optimization with a first-order approximation, NASP-style
//! discrete constraints solved by proximal iteration (Algorithm 1), and the
//! auxiliary modularity clustering that shrinks α from `N⁻×|O|` to `M×|O|`.

use std::time::Instant;

use autoac_ckpt::{CheckpointPolicy, CkptError, Fingerprint, RunMeta, SearchState, Snapshot};
use autoac_completion::{complete_assigned, complete_mixture, CompletionOp};
use autoac_data::{Dataset, LinkSplit};
use autoac_graph::OpCache;
use autoac_nn::{Forward, GnnConfig};
use autoac_tensor::{frozen, Adam, AdamConfig, Matrix, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::{kmeans, ClusterHead, ModularityContext};
use crate::pipeline::{Backbone, CompletionMode, ForwardPipe, Pipeline};
use crate::proximal::{argmax_rows, prox_c1, prox_c2};
use crate::trainer::{
    descend, resume, save_snapshot, train_link_prediction_checkpointed,
    train_node_classification_checkpointed, ClsOutcome, LpOutcome, RunState, TrainConfig,
};

/// How `V⁻` nodes are grouped for the completion parameters α.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusteringMode {
    /// Joint modularity clustering (the paper's method, Eq. 12).
    GmoC,
    /// No clustering: one α row per `V⁻` node ("w/o cluster" in Fig. 3).
    NoCluster,
    /// k-means on the hidden representations after every epoch ("EM").
    Em,
    /// k-means after a fixed warm-up of frozen random clusters
    /// ("EM with warmup").
    EmWarmup(usize),
}

/// AutoAC hyperparameters (paper §V-B defaults).
#[derive(Debug, Clone, Copy)]
pub struct AutoAcConfig {
    /// Number of clusters M.
    pub clusters: usize,
    /// Clustering-loss weight λ.
    pub lambda: f32,
    /// Learning rate for α (5e-3 in the paper).
    pub alpha_lr: f32,
    /// Weight decay for α (1e-5 in the paper).
    pub alpha_wd: f32,
    /// `true`: Algorithm 1 with discrete constraints (proximal iteration);
    /// `false`: relaxed softmax-mixture search (the Table VIII ablation).
    pub discrete: bool,
    /// Clustering mode.
    pub clustering: ClusteringMode,
    /// Search epochs (each = one α step + one ω step).
    pub search_epochs: usize,
    /// Initial epochs that update only ω (α gradients are uninformative
    /// while the GNN weights are still random — standard DARTS warm-up).
    pub omega_warmup: usize,
    /// ω optimization settings (also used for the retraining stage).
    pub train: TrainConfig,
}

impl Default for AutoAcConfig {
    fn default() -> Self {
        Self {
            clusters: 8,
            lambda: 0.4,
            alpha_lr: 5e-3,
            alpha_wd: 1e-5,
            discrete: true,
            clustering: ClusteringMode::GmoC,
            search_epochs: 40,
            omega_warmup: 5,
            train: TrainConfig::default(),
        }
    }
}

impl AutoAcConfig {
    /// Fingerprint over every field that shapes the per-epoch search
    /// trajectory, recorded in checkpoints so a resume against a different
    /// configuration fails loudly. `search_epochs` (and `train.epochs`,
    /// unused by the search loop) are deliberately excluded: they only set
    /// the horizon, so an interrupted run may be resumed with a longer
    /// budget.
    pub fn fingerprint(&self) -> u64 {
        let (mode, warmup) = match self.clustering {
            ClusteringMode::GmoC => (0u64, 0u64),
            ClusteringMode::NoCluster => (1, 0),
            ClusteringMode::Em => (2, 0),
            ClusteringMode::EmWarmup(w) => (3, w as u64),
        };
        Fingerprint::new()
            .u64(self.clusters as u64)
            .f32(self.lambda)
            .f32(self.alpha_lr)
            .f32(self.alpha_wd)
            .bool(self.discrete)
            .u64(mode)
            .u64(warmup)
            .u64(self.omega_warmup as u64)
            .f32(self.train.lr)
            .f32(self.train.weight_decay)
            .finish()
    }
}

/// Result of the search stage.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Searched completion op per `V⁻` node (aligned with
    /// `Dataset::missing_nodes`).
    pub assignment: Vec<CompletionOp>,
    /// Cluster id per `V⁻` node.
    pub cluster_of: Vec<u32>,
    /// Final completion parameters α (`rows × |O|`).
    pub alpha: Matrix,
    /// Wall-clock seconds of the search stage.
    pub search_seconds: f64,
    /// Per-epoch trace of the clustering loss `L_GmoC` (Fig. 4).
    pub gmoc_trace: Vec<f32>,
    /// Ops histogram over `V⁻` (Fig. 5).
    pub op_histogram: [usize; 4],
}

/// A task the search can optimize: losses on the train and validation
/// splits given the model's `(N, out)` output block.
pub trait SearchTask {
    /// Training loss.
    fn train_loss(&self, output: &Tensor, rng: &mut StdRng) -> Tensor;
    /// Validation loss (drives the α updates).
    fn val_loss(&self, output: &Tensor, rng: &mut StdRng) -> Tensor;
}

/// Node classification (cross-entropy on the HGB splits).
pub struct ClassificationTask {
    labels: Vec<u32>,
    train: Vec<u32>,
    val: Vec<u32>,
}

impl ClassificationTask {
    /// Builds the task from a dataset.
    pub fn new(data: &Dataset) -> Self {
        Self {
            labels: data.global_labels(),
            train: data.split.train.clone(),
            val: data.split.val.clone(),
        }
    }
}

impl SearchTask for ClassificationTask {
    fn train_loss(&self, output: &Tensor, _rng: &mut StdRng) -> Tensor {
        output.cross_entropy_rows(&self.labels, &self.train)
    }

    fn val_loss(&self, output: &Tensor, _rng: &mut StdRng) -> Tensor {
        output.cross_entropy_rows(&self.labels, &self.val)
    }
}

/// Link prediction (BCE on remaining edges vs. resampled negatives).
pub struct LinkPredictionTask {
    split: LinkSplit,
    train_pos: Vec<(u32, u32)>,
    val_pos: Vec<(u32, u32)>,
}

impl LinkPredictionTask {
    /// Builds the task from a masked split (10% of remaining positives are
    /// held out as the search-validation set).
    pub fn new(split: &LinkSplit) -> Self {
        let all: Vec<(u32, u32)> =
            split.train_data.graph.edges_of_type(split.edge_type).to_vec();
        let n_val = (all.len() / 10).max(1);
        Self {
            split: split.clone(),
            val_pos: all[..n_val].to_vec(),
            train_pos: all[n_val..].to_vec(),
        }
    }

    fn loss_on(&self, output: &Tensor, pos: &[(u32, u32)], rng: &mut StdRng) -> Tensor {
        let negs = autoac_data::sample_train_negatives(
            &self.split.train_data,
            self.split.edge_type,
            pos.len(),
            rng,
        );
        autoac_nn::lp::lp_loss(output, pos, &negs)
    }
}

impl SearchTask for LinkPredictionTask {
    fn train_loss(&self, output: &Tensor, rng: &mut StdRng) -> Tensor {
        self.loss_on(output, &self.train_pos, rng)
    }

    fn val_loss(&self, output: &Tensor, rng: &mut StdRng) -> Tensor {
        self.loss_on(output, &self.val_pos, rng)
    }
}

/// Runs the AutoAC search stage and returns the discovered per-node
/// completion operations.
pub fn search(
    data: &Dataset,
    backbone: Backbone,
    gnn_cfg: &GnnConfig,
    ac: &AutoAcConfig,
    task: &dyn SearchTask,
    seed: u64,
) -> SearchOutcome {
    search_checkpointed(data, backbone, gnn_cfg, ac, task, seed, &OpCache::new(&data.graph), None)
}

/// [`search`] with an explicit operator cache, so the retraining stage (and
/// any repeated searches over one dataset) can reuse the normalized CSR
/// operators the search pipeline already built, and with crash-safe
/// checkpointing: when a [`CheckpointPolicy`] is given, the full loop state
/// (ω leaves, both Adam states, α, cluster assignments, best-so-far
/// tracking, RNG state) is snapshotted at the policy's cadence, and — if
/// the policy allows resuming and a readable snapshot exists — the search
/// restarts from it **bit-identically** to an uninterrupted run. Snapshots
/// from a different graph, config, or seed are rejected loudly.
#[allow(clippy::too_many_arguments)]
pub fn search_checkpointed(
    data: &Dataset,
    backbone: Backbone,
    gnn_cfg: &GnnConfig,
    ac: &AutoAcConfig,
    task: &dyn SearchTask,
    seed: u64,
    cache: &OpCache,
    policy: Option<&CheckpointPolicy>,
) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let pipe = Pipeline::new_cached(data, backbone, gnn_cfg, CompletionMode::Zero, cache, &mut rng);
    let positions = (0..pipe.ops.ctx().num_missing() as u32).collect();
    let modularity = ModularityContext::build(&data.graph, ac.clusters.max(2));
    let graph_fp = data.graph.structural_fingerprint();
    let meta = RunMeta::whole_graph("search", graph_fp, ac.fingerprint(), seed);
    run_search(WholeGraph { pipe, task, modularity, positions }, ac, meta, &mut rng, policy)
}

/// How a search forward fills the missing rows of its batch.
pub(crate) enum Fill {
    /// Op weights per α row, mixed per node through its cluster.
    Mixture(Tensor),
    /// One op per `V⁻` node, in global missing-list order.
    Assigned(Vec<CompletionOp>),
}

/// What the search loop ([`run_search`]) needs from the graph it searches
/// over: the whole graph ([`WholeGraph`]: any backbone, any
/// [`SearchTask`]) or sampled or sharded batches
/// (`crate::minibatch::Batched`: GCN, classification).
pub(crate) trait SearchSchedule {
    /// `|V⁻|`, the global missing-list length.
    fn num_missing(&self) -> usize;
    /// ω leaves except the clustering head, in snapshot order: encoder,
    /// completion ops, backbone.
    fn omega(&self) -> Vec<Tensor>;
    /// Width of the hidden block the clustering head reads.
    fn hidden_dim(&self, rng: &mut StdRng) -> usize;
    /// Prepares the batches of `epoch`.
    fn begin_epoch(&mut self, epoch: usize);
    /// One training-mode forward over this epoch's α batch (`validation`)
    /// or ω batch, its missing rows filled per `fill`, with that level's
    /// loss; `None` when the batch has no rows for the loss.
    fn forward(
        &self,
        validation: bool,
        fill: Fill,
        cluster_of: &[u32],
        rng: &mut StdRng,
    ) -> Option<(Forward, Tensor)>;
    /// `L_GmoC` of a soft assignment over this epoch's ω batch.
    fn modularity_loss(&self, c: &Tensor) -> Tensor;
    /// Rows of the ω batch's hidden block that hold `V⁻` nodes, and each
    /// one's position in the global missing list.
    fn missing_rows(&self) -> (&[u32], &[u32]);
}

/// The whole-graph schedule: both levels of every epoch run over the full
/// graph.
struct WholeGraph<'a> {
    pipe: Pipeline,
    task: &'a dyn SearchTask,
    modularity: ModularityContext,
    /// `0..N⁻`: every `V⁻` node is in every forward.
    positions: Vec<u32>,
}

impl SearchSchedule for WholeGraph<'_> {
    fn num_missing(&self) -> usize {
        self.positions.len()
    }

    fn omega(&self) -> Vec<Tensor> {
        let mut omega = self.pipe.encoder.params();
        omega.extend(self.pipe.ops.params());
        omega.extend(self.pipe.model.params());
        omega
    }

    fn hidden_dim(&self, rng: &mut StdRng) -> usize {
        // Dry forward to size the clustering head.
        autoac_tensor::no_grad(|| self.pipe.forward(false, rng)).hidden.shape().1
    }

    fn begin_epoch(&mut self, _epoch: usize) {}

    fn forward(
        &self,
        validation: bool,
        fill: Fill,
        cluster_of: &[u32],
        rng: &mut StdRng,
    ) -> Option<(Forward, Tensor)> {
        let x0 = self.pipe.x0();
        let x = match fill {
            Fill::Mixture(w) => complete_mixture(&self.pipe.ops, &x0, &w.gather_rows(cluster_of)),
            Fill::Assigned(assignment) => complete_assigned(&self.pipe.ops, &x0, &assignment),
        };
        let fwd = self.pipe.model.forward(&x, true, rng);
        let loss = if validation {
            self.task.val_loss(&fwd.output, rng)
        } else {
            self.task.train_loss(&fwd.output, rng)
        };
        Some((fwd, loss))
    }

    fn modularity_loss(&self, c: &Tensor) -> Tensor {
        self.modularity.loss(c)
    }

    fn missing_rows(&self) -> (&[u32], &[u32]) {
        (&self.pipe.ops.ctx().missing, &self.positions)
    }
}

impl RunState for SearchState {
    const STAGE: &'static str = "search";

    fn encode(&self) -> Snapshot {
        self.to_snapshot()
    }

    fn decode(snap: &Snapshot) -> Result<Self, CkptError> {
        Self::from_snapshot(snap)
    }

    fn meta(&self) -> &RunMeta {
        &self.meta
    }

    fn leaves(&self) -> usize {
        self.omega.len()
    }
}

/// Algorithm 1 over a schedule: per epoch one α step on the validation
/// loss (after `omega_warmup` epochs), one ω step on the training loss plus
/// `λ·L_GmoC`, then the cluster refresh. Tracks the best-validation
/// configuration, records the trajectory series, and snapshots and resumes
/// under `policy` with identity `meta`. `rng` must be the stream the
/// schedule was built from: the loop continues it with the α noise, the
/// clustering head and the initial clusters.
pub(crate) fn run_search<S: SearchSchedule>(
    mut s: S,
    ac: &AutoAcConfig,
    meta: RunMeta,
    rng: &mut StdRng,
    policy: Option<&CheckpointPolicy>,
) -> SearchOutcome {
    let n_minus = s.num_missing();
    let num_ops = CompletionOp::ALL.len();
    if n_minus == 0 {
        return SearchOutcome {
            assignment: Vec::new(),
            cluster_of: Vec::new(),
            alpha: Matrix::zeros(0, num_ops),
            search_seconds: 0.0,
            gmoc_trace: Vec::new(),
            op_histogram: [0; 4],
        };
    }
    let use_clusters = ac.clustering != ClusteringMode::NoCluster;
    let gmoc = ac.clustering == ClusteringMode::GmoC;
    let alpha_rows = if use_clusters { ac.clusters } else { n_minus };

    // α initialized uniformly inside C₂ with tiny symmetry-breaking noise.
    let mut alpha_init = Matrix::full(alpha_rows, num_ops, 1.0 / num_ops as f32);
    for v in alpha_init.data_mut() {
        *v += rng.gen_range(-0.01..0.01);
    }
    let alpha = Tensor::param(alpha_init);
    let mut alpha_opt =
        Adam::new(vec![alpha.clone()], AdamConfig::with(ac.alpha_lr, ac.alpha_wd));

    let head = ClusterHead::new(s.hidden_dim(rng), ac.clusters.max(2), rng);
    // ω: encoder + all op params + backbone + clustering head.
    let mut omega = s.omega();
    if gmoc {
        omega.extend(head.params());
    }
    let mut omega_opt =
        Adam::new(omega.clone(), AdamConfig::with(ac.train.lr, ac.train.weight_decay));

    // Initial clustering: random (refined during the search).
    let mut cluster_of: Vec<u32> = if use_clusters {
        (0..n_minus).map(|_| rng.gen_range(0..ac.clusters) as u32).collect()
    } else {
        (0..n_minus as u32).collect()
    };

    let mut gmoc_trace = Vec::with_capacity(ac.search_epochs);
    // Track the discretized configuration with the best validation loss
    // seen during the search; final-epoch noise can flip argmaxes into a
    // poor assignment (standard NAS practice: report the best-val arch).
    let mut best_val = f32::INFINITY;
    let mut best_snapshot: Option<(Matrix, Vec<u32>)> = None;

    // Resume: the setup above re-derived everything deterministic from the
    // seed; a snapshot overwrites the parts that evolved during the
    // interrupted run, restarting the loop at the captured epoch boundary.
    let mut start_epoch = 0usize;
    let mut elapsed_prior = 0.0f64;
    if let Some(state) = policy.and_then(|pol| resume::<SearchState>(pol, &meta, omega.len())) {
        alpha.set_value(state.alpha);
        for (p, m) in omega.iter().zip(state.omega) {
            p.set_value(m);
        }
        alpha_opt.import_state(state.alpha_opt);
        omega_opt.import_state(state.omega_opt);
        cluster_of = state.cluster_of;
        best_val = state.best_val;
        best_snapshot = state.best;
        gmoc_trace = state.gmoc_trace;
        *rng = StdRng::from_state(state.rng);
        start_epoch = state.epochs_done as usize;
        elapsed_prior = state.elapsed_seconds;
    }

    let start = Instant::now();
    let _obs_search = autoac_obs::span("search");
    for epoch in start_epoch..ac.search_epochs {
        let _obs_epoch = autoac_obs::span("epoch");
        s.begin_epoch(epoch);
        // ------- Upper level: update α on the validation loss -----------
        // Each level differentiates only its own variables: ω is frozen
        // here, so the encoder and the completion ops are constants and the
        // backward runs only the GNN's input-gradient chain down to α.
        alpha_opt.zero_grad();
        if epoch >= ac.omega_warmup {
            let _obs = autoac_obs::span("alpha");
            // Alg. 1 line 3: discrete ᾱ = prox_C1(α); the gradient is taken
            // w.r.t. ᾱ (a fresh proxy leaf), then applied to the continuous
            // α. The relaxed ablation mixes softmax(α), gradient directly
            // on α.
            let proxy = ac.discrete.then(|| Tensor::param(prox_c1(&alpha.value())));
            let weights = proxy.clone().unwrap_or_else(|| alpha.softmax_rows());
            let val = frozen(&omega, || {
                let (_, loss) = s.forward(true, Fill::Mixture(weights), &cluster_of, rng)?;
                autoac_check::tape::verify_backward_if_enabled(&loss);
                loss.backward();
                Some(loss.item())
            });
            if let Some(val) = val {
                autoac_obs::series("search_val_loss", epoch as u64, f64::from(val));
                if val < best_val {
                    best_val = val;
                    best_snapshot = Some((alpha.to_matrix(), cluster_of.clone()));
                }
                // The proxy is a throwaway leaf: move its gradient across
                // instead of cloning it.
                if let Some(g) = proxy.and_then(|p| p.take_grad()) {
                    alpha.accum_grad_public_owned(g);
                }
                alpha_opt.step();
                if ac.discrete {
                    // Alg. 1 line 4: α ← prox_C2(α − ε∇).
                    alpha.update_value(|m| *m = prox_c2(m));
                }
            }
        }

        // ------- Lower level: update ω on the training loss -------------
        // α is frozen: in the relaxed ablation the mixture reads softmax(α)
        // as a constant (in discrete mode α is not on the tape at all).
        omega_opt.zero_grad();
        let hidden = frozen(std::slice::from_ref(&alpha), || {
            let _obs = autoac_obs::span("omega");
            let fill = if ac.discrete {
                // Alg. 1 lines 5–6: refined discrete choices; only
                // activated ops are evaluated.
                Fill::Assigned(derive_assignment(&alpha.value(), &cluster_of))
            } else {
                Fill::Mixture(alpha.softmax_rows())
            };
            s.forward(false, fill, &cluster_of, rng).map(|(fwd, mut loss)| {
                if gmoc {
                    let c = head.assign_soft(&fwd.hidden);
                    let l_gmoc = s.modularity_loss(&c);
                    let gmoc_item = l_gmoc.item();
                    gmoc_trace.push(gmoc_item);
                    autoac_obs::series("gmoc_loss", epoch as u64, f64::from(gmoc_item));
                    loss = loss.add(&l_gmoc.scale(ac.lambda));
                }
                let grad_norm = descend(&mut omega_opt, &loss);
                autoac_obs::series("omega_grad_norm", epoch as u64, f64::from(grad_norm));
                fwd.hidden
            })
        });

        // ------- Refresh the node → cluster map --------------------------
        // Only the `V⁻` nodes of the ω batch move; a batched schedule
        // reaches full coverage as it rotates through the graph.
        if let Some(hidden) = hidden {
            let _obs = autoac_obs::span("cluster");
            let (rows, positions) = s.missing_rows();
            let fresh = match ac.clustering {
                ClusteringMode::GmoC => {
                    Some(autoac_tensor::no_grad(|| head.assign_hard(&hidden.gather_rows(rows))))
                }
                ClusteringMode::Em => Some(kmeans_rows(&hidden, rows, ac.clusters, rng)),
                ClusteringMode::EmWarmup(warmup) if epoch >= warmup => {
                    Some(kmeans_rows(&hidden, rows, ac.clusters, rng))
                }
                ClusteringMode::EmWarmup(_) | ClusteringMode::NoCluster => None,
            };
            if let Some(fresh) = fresh {
                for (&p, c) in positions.iter().zip(fresh) {
                    cluster_of[p as usize] = c;
                }
            }
        }

        // ------- Search-trajectory recording (Fig. 4/5 data) --------------
        // Read-only w.r.t. RNG and parameters: training stays bitwise
        // identical with obs on or off.
        if autoac_obs::enabled() {
            autoac_obs::series_vec(
                "alpha_entropy",
                epoch as u64,
                &alpha_row_entropies(&alpha.value()),
            );
            let pool = autoac_tensor::pool::stats_snapshot();
            autoac_obs::series("pool_hit_rate", epoch as u64, pool.hit_rate());
        }

        // ------- Snapshot the completed epoch -----------------------------
        if let Some(pol) = policy {
            if pol.should_checkpoint(epoch + 1) {
                let state = SearchState {
                    meta: meta.clone(),
                    epochs_done: (epoch + 1) as u64,
                    elapsed_seconds: elapsed_prior + start.elapsed().as_secs_f64(),
                    rng: rng.state(),
                    alpha: alpha.to_matrix(),
                    omega: omega.iter().map(Tensor::to_matrix).collect(),
                    alpha_opt: alpha_opt.export_state(),
                    omega_opt: omega_opt.export_state(),
                    cluster_of: cluster_of.clone(),
                    best_val,
                    best: best_snapshot.clone(),
                    gmoc_trace: gmoc_trace.clone(),
                };
                save_snapshot(pol, epoch + 1, &state);
            }
            pol.throttle();
        }
    }
    let search_seconds = elapsed_prior + start.elapsed().as_secs_f64();

    let (alpha, cluster_of) = best_snapshot.unwrap_or_else(|| (alpha.to_matrix(), cluster_of));
    let assignment = derive_assignment(&alpha, &cluster_of);
    let mut op_histogram = [0usize; 4];
    for a in &assignment {
        op_histogram[a.index()] += 1;
    }
    SearchOutcome { assignment, cluster_of, alpha, search_seconds, gmoc_trace, op_histogram }
}

/// k-means over the given rows of the hidden block.
fn kmeans_rows(hidden: &Tensor, rows: &[u32], k: usize, rng: &mut StdRng) -> Vec<u32> {
    autoac_tensor::no_grad(|| kmeans(&hidden.value().gather_rows(rows), k, 20, rng))
}

/// Per-row Shannon entropy (nats) of the α matrix, one value per cluster —
/// the Fig. 4-style convergence signal: entropy falling toward 0 means the
/// cluster has committed to one completion op. Rows are normalized to a
/// distribution first (α lives in the C₂ box, not on the simplex); an
/// all-zero row reports the uniform-distribution entropy.
fn alpha_row_entropies(alpha: &Matrix) -> Vec<f64> {
    let (rows, cols) = alpha.shape();
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = alpha.row(r);
        let sum: f64 = row.iter().map(|&v| f64::from(v.max(0.0))).sum();
        let h = if sum <= 0.0 {
            (cols as f64).ln()
        } else {
            -row.iter()
                .map(|&v| f64::from(v.max(0.0)) / sum)
                .filter(|&p| p > 0.0)
                .map(|p| p * p.ln())
                .sum::<f64>()
        };
        out.push(h);
    }
    out
}

/// Derives per-`V⁻`-node ops: each node takes the argmax op of its α row.
pub fn derive_assignment(alpha: &Matrix, cluster_of: &[u32]) -> Vec<CompletionOp> {
    let row_ops = argmax_rows(alpha);
    cluster_of
        .iter()
        .map(|&c| CompletionOp::from_index(row_ops[c as usize]))
        .collect()
}

/// Search + retrain outcome for node classification.
#[derive(Debug, Clone)]
pub struct AutoAcClsRun {
    /// Search-stage result.
    pub search: SearchOutcome,
    /// Retraining (evaluation-stage) result.
    pub outcome: ClsOutcome,
}

/// Full AutoAC for node classification: search, then retrain a fresh
/// pipeline with the discovered assignment.
pub fn run_autoac_classification(
    data: &Dataset,
    backbone: Backbone,
    gnn_cfg: &GnnConfig,
    ac: &AutoAcConfig,
    seed: u64,
) -> AutoAcClsRun {
    run_autoac_classification_checkpointed(data, backbone, gnn_cfg, ac, seed, None)
}

/// [`run_autoac_classification`] with crash-safe checkpointing: the search
/// and retraining stages each snapshot under a substage directory
/// (`<dir>/search`, `<dir>/retrain`) of the given policy, and a rerun after
/// a crash fast-forwards through whatever the snapshots already cover.
pub fn run_autoac_classification_checkpointed(
    data: &Dataset,
    backbone: Backbone,
    gnn_cfg: &GnnConfig,
    ac: &AutoAcConfig,
    seed: u64,
    policy: Option<&CheckpointPolicy>,
) -> AutoAcClsRun {
    let task = ClassificationTask::new(data);
    let (search, outcome) =
        search_then_retrain(data, backbone, gnn_cfg, ac, &task, seed, policy, |pipe, seed, pol| {
            train_node_classification_checkpointed(pipe, data, &ac.train, seed, pol)
        });
    AutoAcClsRun { search, outcome }
}

/// Search + retrain outcome for link prediction.
#[derive(Debug, Clone)]
pub struct AutoAcLpRun {
    /// Search-stage result.
    pub search: SearchOutcome,
    /// Retraining (evaluation-stage) result.
    pub outcome: LpOutcome,
}

/// Full AutoAC for link prediction on a masked split.
pub fn run_autoac_link_prediction(
    split: &LinkSplit,
    backbone: Backbone,
    gnn_cfg: &GnnConfig,
    ac: &AutoAcConfig,
    seed: u64,
) -> AutoAcLpRun {
    run_autoac_link_prediction_checkpointed(split, backbone, gnn_cfg, ac, seed, None)
}

/// [`run_autoac_link_prediction`] with crash-safe checkpointing; see
/// [`run_autoac_classification_checkpointed`] for the substage layout.
pub fn run_autoac_link_prediction_checkpointed(
    split: &LinkSplit,
    backbone: Backbone,
    gnn_cfg: &GnnConfig,
    ac: &AutoAcConfig,
    seed: u64,
    policy: Option<&CheckpointPolicy>,
) -> AutoAcLpRun {
    let task = LinkPredictionTask::new(split);
    let data = &split.train_data;
    let (search, outcome) =
        search_then_retrain(data, backbone, gnn_cfg, ac, &task, seed, policy, |pipe, seed, pol| {
            train_link_prediction_checkpointed(pipe, split, &ac.train, seed, pol)
        });
    AutoAcLpRun { search, outcome }
}

/// The search stage under `<policy>/search`, then `retrain(pipe, seed,
/// policy)` of a fresh pipeline completing with the searched assignment,
/// under `<policy>/retrain`. One operator cache spans both stages, so the
/// retrain pipeline's operators are all hits.
#[allow(clippy::too_many_arguments)]
fn search_then_retrain<T>(
    data: &Dataset,
    backbone: Backbone,
    gnn_cfg: &GnnConfig,
    ac: &AutoAcConfig,
    task: &dyn SearchTask,
    seed: u64,
    policy: Option<&CheckpointPolicy>,
    retrain: impl FnOnce(&Pipeline, u64, Option<&CheckpointPolicy>) -> T,
) -> (SearchOutcome, T) {
    let cache = OpCache::new(&data.graph);
    let search_pol = policy.map(|p| p.substage("search"));
    let search =
        search_checkpointed(data, backbone, gnn_cfg, ac, task, seed, &cache, search_pol.as_ref());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mode = CompletionMode::Assigned(search.assignment.clone());
    let pipe = Pipeline::new_cached(data, backbone, gnn_cfg, mode, &cache, &mut rng);
    let retrain_pol = policy.map(|p| p.substage("retrain"));
    let outcome = retrain(&pipe, seed ^ 0x7e7e, retrain_pol.as_ref());
    (search, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoac_data::{presets, synth};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn tiny_imdb() -> Dataset {
        synth::generate(&presets::imdb(), synth::Scale::Tiny, 0)
    }

    fn small_cfg(data: &Dataset) -> GnnConfig {
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
    fn search_produces_valid_assignment() {
        let data = tiny_imdb();
        let gnn_cfg = small_cfg(&data);
        let ac = AutoAcConfig {
            clusters: 4,
            search_epochs: 6,
            train: TrainConfig { epochs: 5, ..Default::default() },
            ..Default::default()
        };
        let task = ClassificationTask::new(&data);
        let out = search(&data, Backbone::Gcn, &gnn_cfg, &ac, &task, 0);
        assert_eq!(out.assignment.len(), data.missing_nodes().len());
        assert_eq!(out.cluster_of.len(), out.assignment.len());
        assert!(out.cluster_of.iter().all(|&c| c < 4));
        assert_eq!(out.alpha.shape(), (4, 4));
        // α stays inside C₂.
        assert!(out.alpha.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(out.op_histogram.iter().sum::<usize>(), out.assignment.len());
        assert_eq!(out.gmoc_trace.len(), 6);
        assert!(out.search_seconds > 0.0);
    }

    #[test]
    fn gmoc_trace_decreases() {
        let data = tiny_imdb();
        let gnn_cfg = small_cfg(&data);
        let ac = AutoAcConfig {
            clusters: 4,
            search_epochs: 15,
            train: TrainConfig { epochs: 5, ..Default::default() },
            ..Default::default()
        };
        let task = ClassificationTask::new(&data);
        let out = search(&data, Backbone::Gcn, &gnn_cfg, &ac, &task, 1);
        let first: f32 = out.gmoc_trace[..3].iter().sum::<f32>() / 3.0;
        let last: f32 = out.gmoc_trace[out.gmoc_trace.len() - 3..].iter().sum::<f32>() / 3.0;
        assert!(
            last < first + 0.05,
            "clustering loss should not increase: {first} -> {last} ({:?})",
            out.gmoc_trace
        );
    }

    #[test]
    fn no_cluster_mode_has_per_node_alpha() {
        let data = tiny_imdb();
        let gnn_cfg = small_cfg(&data);
        let ac = AutoAcConfig {
            clustering: ClusteringMode::NoCluster,
            search_epochs: 3,
            train: TrainConfig { epochs: 3, ..Default::default() },
            ..Default::default()
        };
        let task = ClassificationTask::new(&data);
        let out = search(&data, Backbone::Gcn, &gnn_cfg, &ac, &task, 2);
        let n_minus = data.missing_nodes().len();
        assert_eq!(out.alpha.rows(), n_minus);
        assert_eq!(out.cluster_of, (0..n_minus as u32).collect::<Vec<_>>());
    }

    #[test]
    fn mixture_mode_runs_without_discrete_constraints() {
        let data = tiny_imdb();
        let gnn_cfg = small_cfg(&data);
        let ac = AutoAcConfig {
            discrete: false,
            clusters: 4,
            search_epochs: 4,
            train: TrainConfig { epochs: 3, ..Default::default() },
            ..Default::default()
        };
        let task = ClassificationTask::new(&data);
        let out = search(&data, Backbone::Gcn, &gnn_cfg, &ac, &task, 3);
        assert_eq!(out.assignment.len(), data.missing_nodes().len());
    }

    #[test]
    fn full_run_beats_chance() {
        let data = tiny_imdb();
        let gnn_cfg = small_cfg(&data);
        let ac = AutoAcConfig {
            clusters: 4,
            search_epochs: 8,
            train: TrainConfig { epochs: 50, patience: 50, ..Default::default() },
            ..Default::default()
        };
        let run = run_autoac_classification(&data, Backbone::Gcn, &gnn_cfg, &ac, 4);
        let chance = 1.0 / data.num_classes as f64;
        assert!(
            run.outcome.micro_f1 > chance + 0.15,
            "micro-f1 {:.3} vs chance {chance:.3}",
            run.outcome.micro_f1
        );
    }

    /// The whole-graph schedule, watched: at every forward it checks that
    /// the level being stepped differentiates only its own variables.
    struct Watched<'a> {
        inner: WholeGraph<'a>,
        omega: Vec<Tensor>,
        /// α, taken from the relaxed mixture weights of an α forward.
        alpha: Rc<RefCell<Option<Tensor>>>,
        /// α's gradient when the last ω forward started.
        alpha_grad_before_omega: RefCell<Option<Option<Matrix>>>,
        /// (α forwards, ω forwards) seen.
        forwards: Rc<Cell<(usize, usize)>>,
    }

    impl Watched<'_> {
        /// The ω step must have left α's gradient as it found it.
        fn check_alpha_untouched(&self) {
            let (Some(alpha), Some(before)) =
                (self.alpha.borrow().clone(), self.alpha_grad_before_omega.take())
            else {
                return;
            };
            let bits = |g: Option<Matrix>| {
                g.map(|m| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            assert_eq!(bits(alpha.grad()), bits(before), "the ω step changed α's gradient");
        }
    }

    impl SearchSchedule for Watched<'_> {
        fn num_missing(&self) -> usize {
            self.inner.num_missing()
        }

        fn omega(&self) -> Vec<Tensor> {
            self.inner.omega()
        }

        fn hidden_dim(&self, rng: &mut StdRng) -> usize {
            self.inner.hidden_dim(rng)
        }

        fn begin_epoch(&mut self, epoch: usize) {
            self.check_alpha_untouched();
            self.inner.begin_epoch(epoch);
        }

        fn forward(
            &self,
            validation: bool,
            fill: Fill,
            cluster_of: &[u32],
            rng: &mut StdRng,
        ) -> Option<(Forward, Tensor)> {
            let (alphas, omegas) = self.forwards.get();
            if validation {
                self.forwards.set((alphas + 1, omegas));
                assert!(self.omega.iter().all(|p| !p.requires_grad()), "ω must be frozen");
                if let Fill::Mixture(w) = &fill {
                    assert!(w.requires_grad(), "the α step differentiates the mixture weights");
                    if let [alpha] = w.parents() {
                        *self.alpha.borrow_mut() = Some(alpha.clone());
                    }
                }
            } else {
                self.forwards.set((alphas, omegas + 1));
                assert!(self.omega.iter().all(Tensor::requires_grad), "ω must train");
                if let Fill::Mixture(w) = &fill {
                    assert!(!w.requires_grad(), "the ω step reads softmax(α) as a constant");
                }
                if let Some(alpha) = self.alpha.borrow().as_ref() {
                    assert!(!alpha.requires_grad(), "α must be frozen");
                    *self.alpha_grad_before_omega.borrow_mut() = Some(alpha.grad());
                }
            }
            self.inner.forward(validation, fill, cluster_of, rng)
        }

        fn modularity_loss(&self, c: &Tensor) -> Tensor {
            self.inner.modularity_loss(c)
        }

        fn missing_rows(&self) -> (&[u32], &[u32]) {
            self.inner.missing_rows()
        }
    }

    #[test]
    fn each_level_freezes_the_other_levels_variables() {
        let data = tiny_imdb();
        let gnn_cfg = small_cfg(&data);
        let task = ClassificationTask::new(&data);
        for discrete in [true, false] {
            let ac = AutoAcConfig {
                discrete,
                clusters: 4,
                search_epochs: 4,
                omega_warmup: 1,
                train: TrainConfig { epochs: 3, ..Default::default() },
                ..Default::default()
            };
            let mut rng = StdRng::seed_from_u64(6);
            let cache = OpCache::new(&data.graph);
            let pipe = Pipeline::new_cached(
                &data,
                Backbone::Gcn,
                &gnn_cfg,
                CompletionMode::Zero,
                &cache,
                &mut rng,
            );
            let positions = (0..pipe.ops.ctx().num_missing() as u32).collect();
            let modularity = ModularityContext::build(&data.graph, ac.clusters);
            let inner = WholeGraph { pipe, task: &task, modularity, positions };
            let omega = inner.omega();
            let alpha = Rc::new(RefCell::new(None));
            let forwards = Rc::new(Cell::new((0, 0)));
            let watched = Watched {
                inner,
                omega: omega.clone(),
                alpha: Rc::clone(&alpha),
                alpha_grad_before_omega: RefCell::new(None),
                forwards: Rc::clone(&forwards),
            };
            let meta = RunMeta::whole_graph("search", 0, ac.fingerprint(), 6);
            let _ = run_search(watched, &ac, meta, &mut rng, None);

            // One α step per epoch after the warm-up, one ω step per epoch.
            assert_eq!(forwards.get(), (3, 4), "discrete = {discrete}");
            assert!(omega.iter().all(Tensor::requires_grad), "every ω leaf trains again");
            let alpha = alpha.borrow().clone();
            assert_eq!(alpha.is_some(), !discrete, "the relaxed α step mixes softmax(α)");
            if let Some(alpha) = alpha {
                assert!(alpha.requires_grad(), "α trains again");
            }
        }
    }

    #[test]
    fn derive_assignment_maps_clusters() {
        let alpha = Matrix::from_rows(&[
            &[0.9, 0.0, 0.1, 0.0], // cluster 0 → Mean
            &[0.0, 0.0, 0.0, 1.0], // cluster 1 → OneHot
        ]);
        let assign = derive_assignment(&alpha, &[1, 0, 1]);
        assert_eq!(
            assign,
            vec![CompletionOp::OneHot, CompletionOp::Mean, CompletionOp::OneHot]
        );
    }

    #[test]
    fn empty_missing_set_short_circuits() {
        let mut data = tiny_imdb();
        // Give every type raw attributes.
        for t in 0..data.graph.num_node_types() {
            data = data.with_onehot_features(t);
        }
        let gnn_cfg = small_cfg(&data);
        let ac = AutoAcConfig::default();
        let task = ClassificationTask::new(&data);
        let out = search(&data, Backbone::Gcn, &gnn_cfg, &ac, &task, 5);
        assert!(out.assignment.is_empty());
        assert_eq!(out.search_seconds, 0.0);
    }
}
