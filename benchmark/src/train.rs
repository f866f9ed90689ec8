//! The three training workloads: an AutoAC search followed by retraining
//! with the searched completion. An untraced run measures one repetition of
//! each of several inputs derived from its seed, and repeats the last input
//! while the run's time allows.
//!
//! Epoch times of the full-batch workloads are read from outside the
//! trainer: the benchmark hands the search its task and the retrainer its
//! pipeline through the public `SearchTask` and `ForwardPipe` traits, and
//! notes the time of the one call each epoch makes into them.

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

use autoac_ckpt::CheckpointPolicy;
use autoac_completion::{CompletionContext, CompletionOp};
use autoac_core::search::{search_checkpointed, SearchTask};
use autoac_core::{
    search_minibatch, train_node_classification_checkpointed, train_node_classification_minibatch,
    AutoAcConfig, Backbone, ClassificationTask, ClsOutcome, ClusteringMode, CompletionMode,
    ForwardPipe, MinibatchConfig, MinibatchPipeline, Pipeline, SearchOutcome, TrainConfig,
};
use autoac_data::json::Value;
use autoac_data::{presets, synth, Dataset, Scale, ScaleSpec};
use autoac_graph::{OpCache, ShardStrategy};
use autoac_nn::{Forward, GnnConfig};
use autoac_tensor::{no_grad, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::doc::{num, obj, text, RunResult};
use crate::layers::{self, Traced};
use crate::probe::{self, ProbeScope};
use crate::stats::{median, unstolen, Summary, Timed};
use crate::sys::{self, HostSpeed, Stopwatch};
use crate::Opts;

/// Where a workload's graph comes from.
#[derive(Debug, Clone)]
pub enum Data {
    /// A Table I preset through `synth::generate`.
    Preset { name: &'static str, scale: Scale },
    /// The streaming power-law generator (`generate_scale`).
    Power(ScaleSpec),
}

/// Everything one training workload runs, spelled out here so that edits
/// to shared defaults elsewhere cannot change a workload silently.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Workload name.
    pub name: &'static str,
    /// Graph source.
    pub data: Data,
    /// GNN backbone.
    pub backbone: Backbone,
    /// GNN dimensions; `out_dim` is replaced by the dataset's class count.
    pub gnn: GnnConfig,
    /// Search settings; `ac.train` is the retraining schedule.
    pub ac: AutoAcConfig,
    /// Sampled minibatch schedule (`None`: full batch).
    pub minibatch: Option<MinibatchConfig>,
    /// Snapshot search and retraining after every epoch.
    pub checkpoint_every_epoch: bool,
    /// Lowest acceptable test micro-F1 (`None`: only require [0, 1]).
    pub f1_floor: Option<f64>,
    /// Distinct inputs (see [`input_seed`]) an untraced run measures, one
    /// repetition each, so that no single input's cost decides the run:
    /// about as many as fit in its time.
    pub inputs: usize,
}

/// The seed of a run's `i`-th input: it generates the dataset and seeds
/// the search and the retraining. Input 0 is the run's own seed.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn gnn(
    in_dim: usize,
    hidden: usize,
    layers: usize,
    heads: usize,
    dropout: f32,
    edge_dim: usize,
) -> GnnConfig {
    GnnConfig {
        in_dim,
        hidden,
        out_dim: 0,
        layers,
        heads,
        dropout,
        slope: 0.05,
        edge_dim,
        beta: 0.05,
    }
}

fn autoac(
    clusters: usize,
    lambda: f32,
    search_epochs: usize,
    omega_warmup: usize,
    epochs: usize,
) -> AutoAcConfig {
    AutoAcConfig {
        clusters,
        lambda,
        alpha_lr: 5e-3,
        alpha_wd: 1e-5,
        discrete: true,
        clustering: ClusteringMode::GmoC,
        search_epochs,
        omega_warmup,
        // Patience equal to the budget: every run trains the full budget.
        train: TrainConfig {
            epochs,
            patience: epochs,
            lr: 5e-3,
            weight_decay: 1e-4,
        },
    }
}

fn power_law(nodes: usize) -> ScaleSpec {
    ScaleSpec {
        name: "sampled",
        target_nodes: nodes * 2 / 5,
        attr_nodes: nodes * 2 / 5,
        plain_nodes: nodes / 5,
        attr_edges: nodes * 3,
        plain_edges: nodes,
        gamma: 2.1,
        num_classes: 8,
        assortativity: 0.75,
        feature_dim: 32,
        label_noise: 0.05,
    }
}

fn sampled_schedule(batch_size: usize, fanout: usize, batches_per_epoch: usize) -> MinibatchConfig {
    MinibatchConfig {
        batch_size,
        fanout: Some(fanout),
        hops: 2,
        batches_per_epoch,
        shards: 0,
        strategy: ShardStrategy::DegreeLocality,
    }
}

/// The training workload called `name`, at full or smoke size.
pub fn spec(name: &str, smoke: bool) -> Option<TrainSpec> {
    let s = match name {
        "autoac-dblp-simplehgn" => TrainSpec {
            name: "autoac-dblp-simplehgn",
            data: Data::Preset {
                name: "dblp",
                scale: if smoke { Scale::Tiny } else { Scale::Small },
            },
            backbone: Backbone::SimpleHgn,
            gnn: gnn(64, 64, 2, 2, 0.4, 32),
            ac: if smoke {
                autoac(8, 0.4, 3, 1, 3)
            } else {
                autoac(8, 0.4, 8, 1, 8)
            },
            minibatch: None,
            checkpoint_every_epoch: false,
            // Four classes (chance 0.25); 22 seeds scored 0.74–0.87 after the
            // fixed epochs, so 0.60 catches training gone wrong, not a seed.
            f1_floor: (!smoke).then_some(0.60),
            inputs: if smoke { 2 } else { 4 },
        },
        "autoac-imdb-magnn" => TrainSpec {
            name: "autoac-imdb-magnn",
            data: Data::Preset {
                name: "imdb",
                scale: if smoke { Scale::Tiny } else { Scale::Small },
            },
            backbone: Backbone::Magnn,
            gnn: gnn(64, 64, 1, 2, 0.4, 32),
            ac: if smoke {
                autoac(16, 0.5, 3, 1, 3)
            } else {
                autoac(16, 0.5, 10, 3, 8)
            },
            minibatch: None,
            checkpoint_every_epoch: true,
            // Five classes (chance 0.2); 22 seeds scored 0.74–0.91.
            f1_floor: (!smoke).then_some(0.60),
            inputs: if smoke { 2 } else { 6 },
        },
        "sampled-50k" => TrainSpec {
            name: "sampled-50k",
            data: Data::Power(power_law(if smoke { 5_000 } else { 50_000 })),
            backbone: Backbone::Gcn,
            gnn: gnn(32, 32, 2, 1, 0.1, 8),
            ac: if smoke {
                autoac(8, 0.4, 2, 1, 2)
            } else {
                autoac(8, 0.4, 3, 1, 2)
            },
            minibatch: Some(if smoke {
                sampled_schedule(64, 5, 2)
            } else {
                sampled_schedule(256, 10, 4)
            }),
            checkpoint_every_epoch: false,
            // Labels are hash-assigned: chance level (1/8) is all there is.
            f1_floor: None,
            inputs: if smoke { 2 } else { 32 },
        },
        _ => return None,
    };
    Some(s)
}

/// One dataset generation plus the graph operators every pipeline needs.
struct Setup {
    data: Dataset,
    cache: OpCache,
    task: ClassificationTask,
    generate_ms: f64,
    graph_ms: f64,
}

fn set_up(spec: &TrainSpec, seed: u64) -> Setup {
    let t = Instant::now();
    let data = match &spec.data {
        Data::Preset { name, scale } => synth::generate(
            &presets::by_name(name).expect("preset exists"),
            *scale,
            seed,
        ),
        Data::Power(s) => autoac_data::generate_scale(s, seed),
    };
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let cache = OpCache::new(&data.graph);
    // Builds (and caches) every completion operator and the normalized
    // adjacency, exactly as the first pipeline would.
    drop(CompletionContext::build_cached(
        &data.graph,
        &data.has_attr(),
        &cache,
    ));
    let task = ClassificationTask::new(&data);
    let graph_ms = t.elapsed().as_secs_f64() * 1e3;
    Setup {
        data,
        cache,
        task,
        generate_ms,
        graph_ms,
    }
}

/// The timed set-ups of a run: `(seconds, steal share)` of each, and the
/// part that generated the dataset and the part that built the graph.
#[derive(Default)]
struct SetupTimes {
    s: Vec<(f64, f64)>,
    gen_ms: Vec<f64>,
    graph_ms: Vec<f64>,
}

impl SetupTimes {
    /// Sets `input` up `n` times (at least once), timing each, with one
    /// set-up in memory at a time; returns the last.
    fn take(&mut self, spec: &TrainSpec, input: u64, n: usize) -> Setup {
        let mut last = None;
        for _ in 0..n.max(1) {
            drop(last.take());
            let watch = Stopwatch::start();
            let one = set_up(spec, input);
            self.s.push(watch.stop());
            self.gen_ms.push(one.generate_ms);
            self.graph_ms.push(one.graph_ms);
            last = Some(one);
        }
        last.expect("at least one set-up")
    }
}

/// The instants (wall clock, steal and process CPU) at which each epoch
/// made its one call into a hooked trait.
#[derive(Default)]
struct Marks(RefCell<Vec<(Stopwatch, f64)>>);

/// One epoch: wall ms, the machine's steal share during it, CPU ms.
#[derive(Debug, Clone, Copy)]
struct Period {
    wall_ms: f64,
    steal: f64,
    cpu_ms: f64,
}

impl Marks {
    fn mark(&self) {
        self.0
            .borrow_mut()
            .push((Stopwatch::start(), sys::process_cpu_s()));
    }

    /// The periods between consecutive marks: one per epoch after the
    /// first, skipping the first `skip` of them.
    fn periods(&self, skip: usize) -> Vec<Period> {
        self.0
            .borrow()
            .windows(2)
            .skip(skip)
            .map(|w| {
                let (wall_s, steal) = w[0].0.until(&w[1].0);
                Period {
                    wall_ms: wall_s * 1e3,
                    steal,
                    cpu_ms: (w[1].1 - w[0].1) * 1e3,
                }
            })
            .collect()
    }
}

/// The retraining pipeline, marking each training forward: the trainer
/// makes one per epoch, first thing in the epoch.
struct MarkedPipe<'a> {
    inner: &'a dyn ForwardPipe,
    marks: &'a Marks,
}

impl ForwardPipe for MarkedPipe<'_> {
    fn forward(&self, training: bool, rng: &mut StdRng) -> Forward {
        if training {
            self.marks.mark();
        }
        self.inner.forward(training, rng)
    }

    fn params(&self) -> Vec<Tensor> {
        self.inner.params()
    }
}

/// The search's task, marking each training loss: the search takes one
/// per epoch, in its ω step.
struct MarkedTask<'a> {
    inner: &'a ClassificationTask,
    marks: &'a Marks,
}

impl SearchTask for MarkedTask<'_> {
    fn train_loss(&self, output: &Tensor, rng: &mut StdRng) -> Tensor {
        self.marks.mark();
        self.inner.train_loss(output, rng)
    }

    fn val_loss(&self, output: &Tensor, rng: &mut StdRng) -> Tensor {
        self.inner.val_loss(output, rng)
    }
}

/// What one search + retrain repetition measured.
struct Rep {
    search_s: f64,
    /// The machine's steal share during the search call.
    search_steal: f64,
    build_s: f64,
    train_s: f64,
    /// The machine's steal share during the retraining call.
    train_steal: f64,
    train_cpu_s: f64,
    /// Process CPU seconds of the search, the build and the retraining.
    cpu_s: f64,
    /// Each bi-level search epoch (full batch only).
    search_epochs: Vec<Period>,
    /// Each retraining epoch after the first (full batch only).
    retrain_epochs: Vec<Period>,
    search: SearchOutcome,
    outcome: ClsOutcome,
}

fn gnn_for(spec: &TrainSpec, data: &Dataset) -> GnnConfig {
    GnnConfig {
        out_dim: data.num_classes.max(2),
        ..spec.gnn
    }
}

/// The pipeline retraining uses, built exactly as the AutoAC entry points
/// build it (`seed ^ 0x5eed` construction RNG).
enum Retrain {
    Full(Pipeline),
    Sampled(MinibatchPipeline),
}

impl Retrain {
    fn pipe(&self) -> &dyn ForwardPipe {
        match self {
            Retrain::Full(p) => p,
            Retrain::Sampled(p) => p,
        }
    }
}

fn retrain_pipeline(
    spec: &TrainSpec,
    s: &Setup,
    assignment: &[CompletionOp],
    seed: u64,
) -> Retrain {
    let cfg = gnn_for(spec, &s.data);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mode = CompletionMode::Assigned(assignment.to_vec());
    match spec.minibatch {
        None => Retrain::Full(Pipeline::new_cached(
            &s.data,
            spec.backbone,
            &cfg,
            mode,
            &s.cache,
            &mut rng,
        )),
        Some(_) => Retrain::Sampled(MinibatchPipeline::new_cached(
            &s.data, &cfg, mode, &s.cache, &mut rng,
        )),
    }
}

/// One AutoAC run in the call order of `run_autoac_classification`: search
/// over the shared cache, build the retraining pipeline, retrain.
fn repetition(spec: &TrainSpec, s: &Setup, seed: u64, ckpt: Option<&Path>) -> (Rep, Retrain) {
    let cfg = gnn_for(spec, &s.data);
    let policy = ckpt.map(|dir| CheckpointPolicy::new(dir).checkpoint_every(1).fresh());
    let search_pol = policy.as_ref().map(|p| p.substage("search"));
    let retrain_pol = policy.as_ref().map(|p| p.substage("retrain"));
    let (search_marks, retrain_marks) = (Marks::default(), Marks::default());

    let rep_cpu0 = sys::process_cpu_s();
    let watch = Stopwatch::start();
    let search = match &spec.minibatch {
        None => search_checkpointed(
            &s.data,
            spec.backbone,
            &cfg,
            &spec.ac,
            &MarkedTask {
                inner: &s.task,
                marks: &search_marks,
            },
            seed,
            &s.cache,
            search_pol.as_ref(),
        ),
        Some(mb) => search_minibatch(
            &s.data,
            &cfg,
            &spec.ac,
            mb,
            seed,
            &s.cache,
            search_pol.as_ref(),
        ),
    };
    let (search_s, search_steal) = watch.stop();

    let t = Instant::now();
    let retrain = retrain_pipeline(spec, s, &search.assignment, seed);
    let build_s = t.elapsed().as_secs_f64();

    let cpu0 = sys::process_cpu_s();
    let watch = Stopwatch::start();
    let outcome = match (&retrain, &spec.minibatch) {
        (Retrain::Full(p), _) => train_node_classification_checkpointed(
            &MarkedPipe {
                inner: p,
                marks: &retrain_marks,
            },
            &s.data,
            &spec.ac.train,
            seed ^ 0x7e7e,
            retrain_pol.as_ref(),
        ),
        (Retrain::Sampled(p), Some(mb)) => train_node_classification_minibatch(
            p,
            &s.data,
            &spec.ac.train,
            mb,
            seed ^ 0x7e7e,
            retrain_pol.as_ref(),
        ),
        (Retrain::Sampled(_), None) => unreachable!("sampled pipelines come with a schedule"),
    };
    let (train_s, train_steal) = watch.stop();
    let cpu1 = sys::process_cpu_s();
    (
        Rep {
            search_s,
            search_steal,
            build_s,
            train_s,
            train_steal,
            train_cpu_s: cpu1 - cpu0,
            cpu_s: cpu1 - rep_cpu0,
            // The period from epoch e's training loss to epoch e+1's holds
            // epoch e+1's α step, so it is bi-level once e+1 ≥ warm-up.
            search_epochs: search_marks.periods(spec.ac.omega_warmup.saturating_sub(1)),
            retrain_epochs: retrain_marks.periods(0),
            search,
            outcome,
        },
        retrain,
    )
}

/// Checks one repetition's outputs: a complete assignment, finite losses,
/// an F1 in range and above the workload's floor.
fn check_rep(spec: &TrainSpec, s: &Setup, rep: &Rep, res: &mut RunResult) {
    let n_minus = s.data.missing_nodes().len();
    res.check(if rep.search.assignment.len() == n_minus {
        Ok(())
    } else {
        Err(format!(
            "search assigned {} of {n_minus} missing nodes",
            rep.search.assignment.len()
        ))
    });
    res.check(
        match rep.search.gmoc_trace.iter().find(|l| !l.is_finite()) {
            None => Ok(()),
            Some(l) => Err(format!("search clustering loss {l}")),
        },
    );
    let f1 = rep.outcome.micro_f1;
    res.check(if (0.0..=1.0).contains(&f1) {
        Ok(())
    } else {
        Err(format!("test micro-F1 {f1} outside [0, 1]"))
    });
    if let Some(floor) = spec.f1_floor {
        res.check(if f1 >= floor {
            Ok(())
        } else {
            Err(format!(
                "test micro-F1 {f1:.4} below the {floor} floor after the fixed epochs"
            ))
        });
    }
}

/// The retrained model's training loss must be finite.
fn check_final_loss(s: &Setup, retrain: &Retrain, seed: u64, res: &mut RunResult) {
    let labels = s.data.global_labels();
    let loss = no_grad(|| {
        let out = retrain
            .pipe()
            .forward(false, &mut StdRng::seed_from_u64(seed));
        out.output
            .cross_entropy_rows(&labels, &s.data.split.train)
            .item()
    });
    res.check(if loss.is_finite() {
        Ok(())
    } else {
        Err(format!("final training loss {loss}"))
    });
}

/// Per-epoch samples of one run: search epoch wall ms and retraining
/// epoch wall ms, each with the machine's steal share during it, and
/// retraining epoch CPU ms (which steal does not count in). Full-batch
/// workloads give one per hooked epoch; the sampled one (whose trainers
/// take no hookable trait) gives each repetition's call over its epochs.
type EpochSamples = (Vec<(f64, f64)>, Vec<(f64, f64)>, Vec<f64>);

fn epoch_samples(spec: &TrainSpec, reps: &[&Rep]) -> EpochSamples {
    let (mut search, mut retrain, mut cpu) = (vec![], vec![], vec![]);
    for r in reps {
        if spec.minibatch.is_none() {
            search.extend(r.search_epochs.iter().map(|e| (e.wall_ms, e.steal)));
            retrain.extend(r.retrain_epochs.iter().map(|e| (e.wall_ms, e.steal)));
            cpu.extend(r.retrain_epochs.iter().map(|e| e.cpu_ms));
        } else {
            let epochs = r.outcome.epochs_run.max(1) as f64;
            let search_ms = 1e3 * r.search_s / spec.ac.search_epochs as f64;
            search.push((search_ms, r.search_steal));
            retrain.push((1e3 * r.train_s / epochs, r.train_steal));
            cpu.push(1e3 * r.train_cpu_s / epochs);
        }
    }
    (search, retrain, cpu)
}

/// Search + retrain repetitions of one input until `share_s` seconds are
/// used (at least one; exactly one for a share of 0), each checked and
/// required to reproduce the first bit for bit. Returns the last retraining
/// pipeline.
fn repeat_input(
    spec: &TrainSpec,
    s: &Setup,
    input: u64,
    share_s: f64,
    tmp: &Path,
    reps: &mut Vec<Rep>,
    res: &mut RunResult,
) -> Retrain {
    let first = reps.len();
    let start = Instant::now();
    loop {
        let dir = tmp.join(format!("ckpt-{}", reps.len()));
        let ckpt = spec.checkpoint_every_epoch.then_some(dir.as_path());
        let (rep, retrain) = repetition(spec, s, input, ckpt);
        if let Some(d) = ckpt {
            let _ = std::fs::remove_dir_all(d);
        }
        check_rep(spec, s, &rep, res);
        if let Some(f) = reps.get(first) {
            res.check(
                if f.search.assignment == rep.search.assignment
                    && f.outcome.micro_f1.to_bits() == rep.outcome.micro_f1.to_bits()
                {
                    Ok(())
                } else {
                    Err("a repetition of the same input gave a different search or F1".into())
                },
            );
        }
        println!(
            "  rep {}: search {:.2}s ({} epochs), retrain {:.2}s ({} epochs), micro-F1 {:.4}, ops {:?}",
            reps.len(),
            rep.search_s,
            spec.ac.search_epochs,
            rep.train_s,
            rep.outcome.epochs_run,
            rep.outcome.micro_f1,
            rep.search.op_histogram
        );
        reps.push(rep);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / (reps.len() - first) as f64 > share_s {
            return retrain;
        }
    }
}

fn rep_doc(r: &Rep) -> Value {
    obj(vec![
        ("search_s", num(r.search_s)),
        ("search_steal_share", num(r.search_steal)),
        ("pipeline_build_s", num(r.build_s)),
        ("retrain_s", num(r.train_s)),
        ("retrain_steal_share", num(r.train_steal)),
        ("retrain_epochs", num(r.outcome.epochs_run as f64)),
        ("autoac_total_s", num(r.search_s + r.build_s + r.train_s)),
        ("autoac_total_cpu_s", num(r.cpu_s)),
        ("test_micro_f1", num(r.outcome.micro_f1)),
        ("test_macro_f1", num(r.outcome.macro_f1)),
    ])
}

/// Runs the workload: the run's inputs one after another while another
/// fits in the run's time, each set up several times (see `setup_count`)
/// and run once; the last input repeats while the time allows. The timed
/// samples come from each input's first repetition, so every input weighs
/// the same. A traced run uses the run's own seed as its only input.
pub fn run(spec: &TrainSpec, opts: &Opts, tmp: &Path) -> RunResult {
    let mut res = RunResult::default();
    let seed = opts.seed;
    // A traced run also spends part of its time on the layer probe.
    let (inputs, budget_s) = if opts.trace {
        (1, opts.seconds * 0.5)
    } else {
        (spec.inputs, opts.seconds)
    };
    // Every input's set-up is timed the same number of times, so the
    // samples spread over the run.
    let mut setups = SetupTimes::default();
    let mut s = setups.take(spec, seed, 1);
    let per_input = (crate::setup_count(setups.s[0].0) / inputs).max(1);
    if per_input > 1 {
        drop(s);
        s = setups.take(spec, seed, per_input - 1);
    }
    println!(
        "{}: {inputs} inputs, set-up {:.3}s",
        spec.name,
        median(&unstolen(&setups.s, Timed::Duration).0)
    );

    autoac_tensor::pool::reset_stats();
    let _ = autoac_obs::drain();
    let start = Instant::now();
    let mut reps: Vec<Rep> = vec![];
    // Index of each input's first repetition in `reps`.
    let mut firsts = vec![];
    let mut input_docs = vec![];
    // Untraced runs probe the host's speed between inputs.
    let mut host = HostSpeed::default();
    for i in 0..inputs {
        if !opts.trace {
            host.tick();
        }
        let input = input_seed(seed, i);
        if i > 0 {
            // Each input runs at least once, so on a slow machine the last
            // inputs are left out rather than the run overrunning its time.
            let spent_s = start.elapsed().as_secs_f64();
            if spent_s + spent_s / reps.len() as f64 > budget_s {
                println!(" input {i}: left out, the run's time is used");
                break;
            }
            drop(s);
            s = setups.take(spec, input, per_input);
        }
        println!(
            " input {i}: {} nodes, {} edges, {:.1}% missing",
            s.data.graph.num_nodes(),
            s.data.graph.num_edges(),
            100.0 * s.data.missing_rate()
        );
        let first = reps.len();
        firsts.push(first);
        let share_s = if i + 1 == inputs {
            budget_s - start.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let retrain = repeat_input(spec, &s, input, share_s, tmp, &mut reps, &mut res);
        check_final_loss(&s, &retrain, input, &mut res);
        input_docs.push(obj(vec![
            // A string: input seeds exceed a JSON number's exact range.
            ("seed", text(input.to_string())),
            ("nodes", num(s.data.graph.num_nodes() as f64)),
            ("edges", num(s.data.graph.num_edges() as f64)),
            ("missing_rate", num(s.data.missing_rate())),
            (
                "repetitions",
                Value::Arr(reps[first..].iter().map(rep_doc).collect()),
            ),
        ]));
    }
    let wall_s = start.elapsed().as_secs_f64();
    if !opts.trace {
        host.tick();
    }
    let pool = autoac_tensor::pool::stats_reset();
    let report = autoac_obs::drain();

    res.info("inputs", Value::Arr(input_docs));
    res.info(
        "workload",
        obj(vec![
            ("backbone", text(spec.backbone.name())),
            ("search_epochs", num(spec.ac.search_epochs as f64)),
            ("retrain_epochs", num(spec.ac.train.epochs as f64)),
        ]),
    );

    if opts.trace {
        res.metric("data.generate_ms", Summary::of(&setups.gen_ms));
        res.metric("graph.setup_ms", Summary::of(&setups.graph_ms));
        let assignment = reps[0].search.assignment.clone();
        // The probe drives the whole-graph pipeline; for the sampled GCN it
        // holds the same parameters as the minibatch pipeline.
        let cfg = gnn_for(spec, &s.data);
        let mode = CompletionMode::Assigned(assignment.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let pipe = Pipeline::new_cached(&s.data, spec.backbone, &cfg, mode, &s.cache, &mut rng);
        let scope = ProbeScope {
            checkpointed: spec.checkpoint_every_epoch,
            sampled: spec.minibatch,
        };
        let probe_epoch_ms = probe::run(&s.data, &pipe, &assignment, seed, &scope, tmp, &mut res);
        let peaks = probe::peaks(&mut res);
        let steps = layers::epochs_of(&report, "search") + layers::epochs_of(&report, "train");
        let traced = Traced {
            report: &report,
            wall_s,
            pool,
            steps,
        };
        layers::record(&traced, &peaks, &mut res);
        if spec.minibatch.is_none() {
            probe_coverage(&report, probe_epoch_ms, &mut res);
        }
        res.idle(SERVE_LAYER);
    } else {
        let timed: Vec<&Rep> = firsts.iter().map(|&k| &reps[k]).collect();
        let (search_ms, retrain_ms, retrain_cpu_ms) = epoch_samples(spec, &timed);
        let per_rep = |f: fn(&Rep) -> f64| timed.iter().map(|&r| f(r)).collect::<Vec<_>>();
        res.timed("setup_s", Timed::Duration, &setups.s);
        res.timed("model_step_ms", Timed::Duration, &retrain_ms);
        res.timed("completion_step_ms", Timed::Duration, &search_ms);
        res.metric("cpu_ms_per_step", Summary::of(&retrain_cpu_ms));
        // AutoAC runs (search, build, retrain) per second of one core's
        // CPU: the rate a machine completes runs when every core runs one.
        res.metric("throughput_per_s", Summary::of(&per_rep(|r| 1.0 / r.cpu_s)));
        res.metric(
            "test_micro_f1",
            Summary::of(&per_rep(|r| r.outcome.micro_f1)),
        );
        res.metric("peak_rss_mb", Summary::one(sys::peak_rss_mb()));
        res.at_host_speed(
            &[
                "model_step_ms",
                "completion_step_ms",
                "cpu_ms_per_step",
                "throughput_per_s",
            ],
            &host,
        );
    }
    res
}

/// Per-layer metrics of the serving layer, which training does not use.
const SERVE_LAYER: &[&str] = &[
    "serve.queue_wait_us_p50",
    "serve.queue_wait_us_p99",
    "serve.batch_wait_us_p50",
    "serve.batch_wait_us_p99",
    "serve.compute_us_p50",
    "serve.compute_us_p99",
    "serve.mean_batch",
    "serve.forwards_per_classify",
    "serve.worker_cpu_us_per_req",
    "serve.model_cpu_us_per_req",
    "serve.other_cpu_us_per_req",
    "serve.classify_p99_ms",
    "serve.gen_late_p99_ms",
];

/// The probe's rebuilt epoch (encode, completion, forward, loss, backward,
/// optimizer, evaluation, and the snapshot where the workload checkpoints)
/// against the traced training epoch.
fn probe_coverage(report: &autoac_obs::ObsReport, probe_epoch_ms: f64, res: &mut RunResult) {
    let Some(epoch) = report.span("train/epoch") else {
        return;
    };
    let traced_ms = epoch.total_ns as f64 / 1e6 / epoch.count.max(1) as f64;
    let ratio = probe_epoch_ms / traced_ms;
    res.info(
        "probe_epoch_coverage",
        obj(vec![
            ("probe_epoch_ms", num(probe_epoch_ms)),
            ("traced_train_epoch_ms", num(traced_ms)),
            ("ratio", num(ratio)),
            ("required_within", num(0.15)),
            ("passed", Value::Bool((ratio - 1.0).abs() <= 0.15)),
        ]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_give_one_period_per_epoch_after_the_first() {
        let m = Marks::default();
        for _ in 0..4 {
            m.mark();
        }
        assert_eq!(m.periods(0).len(), 3);
        assert_eq!(m.periods(2).len(), 1);
        assert!(m
            .periods(0)
            .iter()
            .all(|p| p.wall_ms >= 0.0 && p.cpu_ms >= 0.0 && p.steal >= 0.0));
        assert!(Marks::default().periods(0).is_empty());
    }

    #[test]
    fn inputs_start_at_the_run_seed_and_differ() {
        assert_eq!(input_seed(7, 0), 7);
        let seeds: Vec<u64> = (0..8).map(|i| input_seed(7, i)).collect();
        for (i, s) in seeds.iter().enumerate() {
            assert!(!seeds[..i].contains(s), "input {i} repeats");
            assert_ne!(*s, input_seed(8, 0), "input {i} of seed 7 is seed 8");
        }
        assert_eq!(input_seed(7, 3), seeds[3]);
    }

    #[test]
    fn every_workload_has_epoch_samples() {
        // Hooked full-batch runs need two marks per stage for one period;
        // the search needs one bi-level period after its warm-up.
        for name in crate::WORKLOADS
            .iter()
            .filter(|w| **w != crate::serve::NAME)
        {
            for smoke in [false, true] {
                let s = spec(name, smoke).unwrap();
                assert!(s.inputs >= 1, "{name}");
                assert!(s.ac.train.epochs >= 2, "{name}");
                assert!(
                    s.ac.search_epochs > s.ac.omega_warmup.max(1),
                    "{name} has no bi-level search period"
                );
            }
        }
    }
}
