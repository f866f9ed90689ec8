//! The model thread: adaptive micro-batching over the resident logits.
//!
//! Workers enqueue [`Job`]s over an mpsc channel; this thread coalesces
//! concurrent classify requests into one batch and answers each member
//! by copying its rows out of the logits block the
//! [`ModelHost`](crate::host::ModelHost) computed when the checkpoint was
//! loaded. No forward runs per batch: the checkpoint's one forward read
//! only the materialized attribute block under a fixed `infer_seed` (see
//! `autoac_core::infer`), so the rows a request receives are bitwise
//! independent of which other requests shared its batch.
//!
//! With no forward left to share, batching only coalesces row copies and
//! saves no work (DESIGN.md §10 has the numbers). The queue stays for now
//! because the `serve-open` benchmark workload configures batching and
//! reads its counters and stage gauges (ROADMAP item 4).
//!
//! ## Flush policy
//!
//! A batch opens when the first classify job arrives and closes when
//! either `batch_max` jobs are queued or an adaptive flush window
//! expires. The window is `flush_us` scaled by the EWMA of recent batch
//! sizes relative to `batch_max`: a lightly loaded server converges to a
//! near-zero window (single requests don't idle waiting for company that
//! never comes), while under concurrency the window grows toward
//! `flush_us` and batches fill. Admin jobs (reload) end collection early
//! and apply *between* batches, so in-flight requests are always answered
//! by the checkpoint that was resident when their batch started.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::{Duration, Instant};

use autoac_ckpt::ServeState;
use autoac_core::ServeStateInfo;
use autoac_obs::{counter_add, flight_record, hist_record, now_ns, FlightKind};

use crate::host::{ModelHost, ViewSlot};

/// Micro-batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// When false, every request is its own batch (the A/B baseline).
    pub batching: bool,
    /// Maximum classify jobs coalesced into one batch.
    pub batch_max: usize,
    /// Upper bound on the flush window, in microseconds.
    pub flush_us: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { batching: true, batch_max: 64, flush_us: 200 }
    }
}

/// Scores for one requested node.
#[derive(Debug, Clone)]
pub struct NodeScore {
    /// The node id as requested.
    pub node: usize,
    /// Argmax class.
    pub label: usize,
    /// Full logit row.
    pub logits: Vec<f32>,
}

/// Answer to one classify job.
#[derive(Debug, Clone)]
pub struct ClassifyReply {
    /// Config fingerprint (hex) of the checkpoint that produced the
    /// scores — lets clients attribute every response across hot-reloads.
    pub ckpt: String,
    /// One entry per requested node, in request order.
    pub rows: Vec<NodeScore>,
    /// Model-thread stage timing for this job (trace timeline input).
    pub timing: JobTiming,
}

/// Where a classify job's time went inside the model thread, in
/// nanoseconds on the `autoac_obs::now_ns` clock. Rides back to the
/// worker on [`ClassifyReply`] so the request timeline and the stage
/// histograms are built from the model thread's own measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobTiming {
    /// Enqueue → dequeued by the model thread (channel wait).
    pub queue_ns: u64,
    /// Dequeued → the batch's row copies started (coalescing wait).
    pub batch_wait_ns: u64,
    /// Copying every member's rows out of the logits block, attributed
    /// whole to every member.
    pub compute_ns: u64,
    /// How many classify jobs shared the batch.
    pub batch_size: usize,
}

/// Work item for the model thread. Node ids are validated worker-side
/// against the published view before enqueueing (reloads never change
/// the graph, so the bound stays correct across swaps).
pub enum Job {
    /// Score `nodes`; answer on `reply`.
    Classify {
        /// Requested node ids, each `< num_nodes`.
        nodes: Vec<usize>,
        /// Where the (single) reply goes.
        reply: Sender<ClassifyReply>,
        /// `autoac_obs::now_ns()` at enqueue, for queue-wait attribution.
        enqueued_ns: u64,
    },
    /// Swap in a new checkpoint between batches.
    Reload {
        /// The replacement checkpoint.
        state: Box<ServeState>,
        /// `Ok` with the new identity, or why it was refused.
        reply: Sender<Result<ServeStateInfo, String>>,
    },
}

/// Body of the model thread. Builds the host in-thread (the pipeline is
/// not `Send`), which runs the checkpoint's forward before readiness is
/// reported through `ready`, then serves jobs until every [`Job`] sender
/// is dropped — which is the graceful-shutdown signal: the channel only
/// disconnects after all workers have finished their final requests, so
/// nothing in flight is ever dropped.
pub fn run_model_thread(
    state: ServeState,
    cfg: BatchConfig,
    jobs: Receiver<Job>,
    ready: Sender<Result<ViewSlot, String>>,
) {
    let mut host = match ModelHost::new(&state) {
        Ok(h) => h,
        Err(e) => {
            let _ = ready.send(Err(e));
            return;
        }
    };
    let _ = ready.send(Ok(host.slot()));

    // Seed the EWMA at 1: an idle server starts with a near-zero window
    // and only earns a longer one by actually observing batches.
    let mut ewma = 1.0f64;
    loop {
        let first = match jobs.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // One queued classify job plus its model-thread arrival stamp.
        struct Pending {
            nodes: Vec<usize>,
            reply: Sender<ClassifyReply>,
            enqueued_ns: u64,
            dequeued_ns: u64,
        }
        let mut batch: Vec<Pending> = Vec::new();
        let mut admin = Vec::new();
        match first {
            Job::Classify { nodes, reply, enqueued_ns } => {
                batch.push(Pending { nodes, reply, enqueued_ns, dequeued_ns: now_ns() })
            }
            Job::Reload { state, reply } => {
                let _ = reply.send(host.reload(&state));
                continue;
            }
        }
        // Why this batch stopped collecting, for the flight recorder.
        let mut flush_reason = "unbatched";
        let mut window_us = 0u64;
        if cfg.batching {
            let scale = (ewma / cfg.batch_max.max(1) as f64).min(1.0);
            window_us = (cfg.flush_us as f64 * scale).ceil() as u64;
            let deadline = Instant::now() + Duration::from_micros(window_us);
            flush_reason = "full";
            while batch.len() < cfg.batch_max {
                match jobs.try_recv() {
                    Ok(Job::Classify { nodes, reply, enqueued_ns }) => {
                        batch.push(Pending { nodes, reply, enqueued_ns, dequeued_ns: now_ns() })
                    }
                    Ok(job) => {
                        // Stop collecting: run what we have, then apply.
                        admin.push(job);
                        flush_reason = "admin";
                        break;
                    }
                    Err(TryRecvError::Empty) => {
                        if Instant::now() >= deadline {
                            flush_reason = "deadline";
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(20));
                    }
                    Err(TryRecvError::Disconnected) => {
                        flush_reason = "disconnect";
                        break;
                    }
                }
            }
        }
        ewma = 0.8 * ewma + 0.2 * batch.len() as f64;
        flight_record(FlightKind::Flush, batch.len() as u64, window_us, flush_reason);

        // Every member's rows come out of the resident logits block; the
        // checkpoint's forward ran once, when it was loaded.
        let build_start_ns = now_ns();
        let t0 = Instant::now();
        let answers: Vec<Vec<NodeScore>> = batch.iter().map(|p| host.scores(&p.nodes)).collect();
        let compute_ns = t0.elapsed().as_nanos() as u64;
        hist_record("serve_batch_size", batch.len() as f64);
        counter_add("serve_batches_total", 1);
        counter_add("serve_batched_requests_total", batch.len() as u64);
        let batch_size = batch.len();
        for (p, rows) in batch.into_iter().zip(answers) {
            let timing = JobTiming {
                queue_ns: p.dequeued_ns.saturating_sub(p.enqueued_ns),
                batch_wait_ns: build_start_ns.saturating_sub(p.dequeued_ns),
                compute_ns,
                batch_size,
            };
            // A send failure only means the requesting worker gave up
            // (client disconnect); nothing to do.
            let _ = p.reply.send(ClassifyReply { ckpt: host.ckpt().to_string(), rows, timing });
        }
        for job in admin {
            if let Job::Reload { state, reply } = job {
                counter_add("serve_reloads_total", 1);
                let _ = reply.send(host.reload(&state));
            }
        }
    }
}
