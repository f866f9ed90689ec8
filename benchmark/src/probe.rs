//! The layer probe of a traced run: on the pipeline a training workload
//! built, it times repeated calls of each layer's public functions (median,
//! MAD, n). Also the machine's compute and bandwidth ceilings, and the cost
//! of obs itself from inference passes alternating tracing off and on.

use std::path::Path;
use std::time::Instant;

use autoac_ckpt::{CheckpointPolicy, RunMeta, TrainState};
use autoac_completion::{complete_assigned, complete_mixture, CompletionOp};
use autoac_core::{
    batch_rng, eval_classification, ForwardPipe, MinibatchConfig, NeighborSampler, Pipeline,
};
use autoac_data::Dataset;
use autoac_tensor::{no_grad, Adam, AdamConfig, Matrix, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::doc::RunResult;
use crate::stats::{median, Summary};

/// The roofline ceilings kernel rates are compared against.
pub struct Peaks {
    /// `Matrix::matmul` at 1024³.
    pub gflops: f64,
    /// Single-threaded copy bandwidth over a block far beyond cache.
    pub gbytes_s: f64,
}

/// What the workload exercises beyond the common training step.
pub struct ProbeScope {
    /// The trainer snapshots every epoch: time the snapshot write and count
    /// it in the rebuilt epoch.
    pub checkpointed: bool,
    /// The trainer samples neighbourhood batches on this schedule: time the
    /// sampler on one of its batches.
    pub sampled: Option<MinibatchConfig>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Calls per probed function: five, or fewer when one training step is
/// slow (paper-scale and larger graphs), so the probe fits the run.
fn calls_for(step_ms: f64) -> usize {
    match step_ms {
        s if s < 1000.0 => 5,
        s if s < 4000.0 => 3,
        _ => 2,
    }
}

/// Runs the probe, records its per-layer metrics and returns the rebuilt
/// epoch: the sum of the per-stage medians of one training epoch.
pub fn run(
    data: &Dataset,
    pipe: &Pipeline,
    assignment: &[CompletionOp],
    seed: u64,
    scope: &ProbeScope,
    tmp: &Path,
    res: &mut RunResult,
) -> f64 {
    let labels = data.global_labels();
    let train = &data.split.train;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9806e);
    let params = pipe.params();
    let mut opt = Adam::new(params.clone(), AdamConfig::with(5e-3, 1e-4));

    // Warm-up step (pool free lists, page faults); also sizes the probe.
    let t = Instant::now();
    let x = complete_assigned(&pipe.ops, &pipe.x0(), assignment);
    let loss = pipe
        .model
        .forward(&x, true, &mut rng)
        .output
        .cross_entropy_rows(&labels, train);
    loss.backward();
    opt.clip_grad_norm(5.0);
    opt.step();
    let warm_loss = loss.item();
    let calls = calls_for(ms_since(t));
    res.check(if warm_loss.is_finite() {
        Ok(())
    } else {
        Err(format!("probe training loss is {warm_loss}"))
    });

    let (mut encode, mut assigned, mut forward, mut backward, mut optim, mut eval) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let policy = CheckpointPolicy::new(tmp.join("probe-ckpt")).fresh();
    let (mut ckpt, mut snapshot_bytes) = (vec![], 0);
    let mut x_last = None;
    for call in 0..calls {
        opt.zero_grad();
        let t = Instant::now();
        let x0 = pipe.x0();
        encode.push(ms_since(t));
        let t = Instant::now();
        let x = complete_assigned(&pipe.ops, &x0, assignment);
        assigned.push(ms_since(t));
        let t = Instant::now();
        let loss = pipe
            .model
            .forward(&x, true, &mut rng)
            .output
            .cross_entropy_rows(&labels, train);
        forward.push(ms_since(t));
        let t = Instant::now();
        loss.backward();
        backward.push(ms_since(t));
        let t = Instant::now();
        opt.clip_grad_norm(5.0);
        opt.step();
        optim.push(ms_since(t));
        let t = Instant::now();
        let f1 = eval_classification(pipe, data, &data.split.val, &mut rng).micro_f1;
        eval.push(ms_since(t));
        res.check(if (0.0..=1.0).contains(&f1) {
            Ok(())
        } else {
            Err(format!("probe validation micro-F1 {f1} outside [0, 1]"))
        });
        if scope.checkpointed {
            let t = Instant::now();
            let saved = policy.save(
                call + 1,
                &train_snapshot(data, &params, &opt, seed).to_snapshot(),
            );
            ckpt.push(ms_since(t));
            res.check(match saved {
                Ok(path) => {
                    snapshot_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                    Ok(())
                }
                Err(e) => Err(format!("probe checkpoint write: {e}")),
            });
        }
        x_last = Some(x0);
    }
    let x0 = x_last.expect("at least one probe call");

    let n_minus = pipe.ops.ctx().num_missing();
    let weights = Tensor::constant(Matrix::full(
        n_minus,
        CompletionOp::ALL.len(),
        1.0 / CompletionOp::ALL.len() as f32,
    ));
    let mixture: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            let _ = complete_mixture(&pipe.ops, &x0, &weights);
            ms_since(t)
        })
        .collect();
    // Inference as serving runs it: a materialized constant input under
    // no_grad.
    let x_const =
        Tensor::constant(no_grad(|| complete_assigned(&pipe.ops, &x0, assignment)).to_matrix());
    let (infer, obs_pct) = obs_overhead(|| {
        let out = no_grad(|| {
            pipe.model
                .forward(&x_const, false, &mut StdRng::seed_from_u64(seed))
        });
        std::hint::black_box(out.output.to_matrix());
    });

    let epoch_ms = [
        &encode, &assigned, &forward, &backward, &optim, &eval, &ckpt,
    ]
    .iter()
    .filter(|v| !v.is_empty())
    .map(|v| median(v))
    .sum::<f64>();
    res.metric("completion.missing_nodes", Summary::one(n_minus as f64));
    res.metric("nn.encode_ms", Summary::of(&encode));
    res.metric("completion.assigned_ms", Summary::of(&assigned));
    res.metric("completion.mixture_ms", Summary::of(&mixture));
    res.metric("nn.forward_ms", Summary::of(&forward));
    res.metric("nn.infer_ms", Summary::of(&infer));
    res.metric("tensor.backward_ms", Summary::of(&backward));
    res.metric("tensor.optim_ms", Summary::of(&optim));
    res.metric("core.eval_ms", Summary::of(&eval));
    res.metric("core.probe_epoch_ms", Summary::one(epoch_ms));
    res.metric("obs.overhead_pct", Summary::one(obs_pct));
    if scope.checkpointed {
        res.metric("ckpt.write_ms", Summary::of(&ckpt));
        res.metric("ckpt.snapshot_bytes", Summary::one(snapshot_bytes as f64));
    } else {
        res.idle(&["ckpt.write_ms", "ckpt.snapshot_bytes"]);
    }
    if let Some(mb) = &scope.sampled {
        sample_batches(data, mb, seed, calls, res);
    } else {
        res.idle(&[
            "core.sample_batch_ms",
            "core.batch_nodes",
            "core.batch_edges",
        ]);
    }
    epoch_ms
}

/// Times `pass` in blocks of eight in ABBA BAAB order of obs on and off,
/// so a linear drift of the machine's speed cancels out of obs's cost;
/// short passes get more blocks, up to about a second. Returns the traced
/// pass times (ms) and obs's cost in percent (total time on over total
/// time off). Leaves obs forced on, as the traced run has it.
pub fn obs_overhead(mut pass: impl FnMut()) -> (Vec<f64>, f64) {
    let (mut on, mut off) = (vec![], vec![]);
    let t_blocks = Instant::now();
    while on.is_empty() || (ms_since(t_blocks) < 1000.0 && on.len() < 256) {
        for obs_on in [true, false, false, true, false, true, true, false] {
            autoac_obs::set_force(Some(obs_on));
            let t = Instant::now();
            pass();
            if obs_on { &mut on } else { &mut off }.push(ms_since(t));
        }
    }
    autoac_obs::set_force(Some(true));
    let pct = (on.iter().sum::<f64>() / off.iter().sum::<f64>() - 1.0) * 100.0;
    (on, pct)
}

/// `NeighborSampler::sample` of one batch of the workload's schedule (its
/// core size, fanout and hops), with the core drawn from the training split.
fn sample_batches(
    data: &Dataset,
    mb: &MinibatchConfig,
    seed: u64,
    calls: usize,
    res: &mut RunResult,
) {
    let sampler = NeighborSampler::new(&data.graph);
    let mut core = data.split.train.clone();
    core.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5a3b));
    core.truncate(mb.batch_size);
    let mut times = vec![];
    let mut shape = (0.0, 0.0);
    for b in 0..calls {
        let t = Instant::now();
        let batch = sampler.sample(
            &data.graph,
            &core,
            mb.fanout,
            mb.hops,
            &mut batch_rng(seed, 0, b as u64),
        );
        times.push(ms_since(t));
        shape = (batch.nodes.len() as f64, batch.graph.num_edges() as f64);
    }
    res.metric("core.sample_batch_ms", Summary::of(&times));
    res.metric("core.batch_nodes", Summary::one(shape.0));
    res.metric("core.batch_edges", Summary::one(shape.1));
}

/// The training state the trainer snapshots each epoch (parameters, best
/// copy, Adam state), built from the probe's pipeline.
fn train_snapshot(data: &Dataset, params: &[Tensor], opt: &Adam, seed: u64) -> TrainState {
    let snap_params: Vec<Matrix> = params.iter().map(Tensor::to_matrix).collect();
    TrainState {
        meta: RunMeta::whole_graph("train-cls", data.graph.structural_fingerprint(), 0, seed),
        epochs_done: 1,
        elapsed_seconds: 0.0,
        rng: StdRng::seed_from_u64(seed).state(),
        params: snap_params.clone(),
        opt: opt.export_state(),
        best_val: 0.0,
        best_snap: snap_params,
        bad_epochs: 0,
    }
}

/// Measures and records the roofline ceilings.
pub fn peaks(res: &mut RunResult) -> Peaks {
    let p = Peaks {
        gflops: peak_matmul_gflops(),
        gbytes_s: peak_copy_gbytes_s(),
    };
    res.metric("tensor.peak_gflops", Summary::one(p.gflops));
    res.metric("tensor.peak_gbytes_s", Summary::one(p.gbytes_s));
    p
}

/// Median of three `Matrix::matmul` calls at 1024³, in GFLOP/s.
fn peak_matmul_gflops() -> f64 {
    const N: usize = 1024;
    let a = Matrix::full(N, N, 0.5);
    let b = Matrix::full(N, N, 0.25);
    let rates: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(a.matmul(&b));
            2.0 * (N * N * N) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// Median of three copies of a 64 MiB block, counting read plus write.
fn peak_copy_gbytes_s() -> f64 {
    const LEN: usize = 16 << 20;
    let src = vec![1.0f32; LEN];
    let mut dst = vec![0.0f32; LEN];
    let rates: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&dst);
            2.0 * (LEN * 4) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}
