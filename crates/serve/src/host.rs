//! Checkpoint residency and hot-reload.
//!
//! AutoAC serving is transductive: one fixed graph, one trained model, so
//! a checkpoint's logits are a pure function of (checkpoint, node id).
//! [`ModelHost`] therefore runs each checkpoint's full-graph forward
//! exactly once, when the checkpoint is loaded, and keeps the `(N, C)`
//! logits block plus the checkpoint identity; the [`InferenceModel`] and
//! its pipeline are dropped as soon as the block and the view are built.
//! Every classify batch is answered by copying rows out of that block
//! (see [`crate::batch`]).
//!
//! The pipeline types hold `Rc`-shared tensors and are deliberately not
//! `Send`, so loading happens on the one model thread. Worker threads
//! never touch the host directly; what they *can* read without a
//! round-trip — the materialized attribute rows, node/class counts, and
//! checkpoint identity — is published as an immutable [`SharedView`]
//! behind an `Arc` swap, so `/v1/attrs` and `/healthz` are served
//! entirely worker-side.
//!
//! Hot-reload builds the replacement [`InferenceModel`], refuses a
//! foreign graph before running its forward, computes its logits and its
//! view, and only then swaps logits, identity and view together. A failed
//! reload leaves all three as they were, and an accepted reload is
//! atomic: every request is answered wholly by one checkpoint or the
//! other, never a blend.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use autoac_ckpt::ServeState;
use autoac_core::{InferenceModel, ServeStateInfo};
use autoac_tensor::Matrix;

use crate::batch::NodeScore;

/// Immutable worker-visible snapshot of the loaded model: everything the
/// read-only endpoints need, in `Send + Sync` form.
pub struct SharedView {
    /// Materialized completed attributes, row-major `(num_nodes, attr_dim)`.
    pub attrs: Vec<f32>,
    /// Attribute dimensionality (`in_dim`).
    pub attr_dim: usize,
    /// Total node count; valid ids are `0..num_nodes`.
    pub num_nodes: usize,
    /// Logit columns.
    pub num_classes: usize,
    /// Checkpoint identity (config fingerprint hex, backbone, F1s, ...).
    pub info: ServeStateInfo,
}

impl SharedView {
    fn from_model(model: &InferenceModel) -> Self {
        let attrs = model.attrs();
        Self {
            attrs: (0..attrs.rows()).flat_map(|r| attrs.row(r).iter().copied()).collect(),
            attr_dim: attrs.cols(),
            num_nodes: model.num_nodes(),
            num_classes: model.num_classes(),
            info: model.info().clone(),
        }
    }

    /// One attribute row, or `None` when `node` is out of range.
    pub fn attr_row(&self, node: usize) -> Option<&[f32]> {
        if node >= self.num_nodes {
            return None;
        }
        // analyze:allow(panic, node < num_nodes was checked above and attrs holds num_nodes rows of attr_dim)
        Some(&self.attrs[node * self.attr_dim..(node + 1) * self.attr_dim])
    }
}

/// The slot workers read the current [`SharedView`] from. Cloning the
/// inner `Arc` out is the whole critical section, so the lock is never
/// held across any real work.
pub type ViewSlot = Arc<Mutex<Arc<SharedView>>>;

/// Reads the current view out of the slot.
pub fn current_view(slot: &ViewSlot) -> Arc<SharedView> {
    // A poisoned slot only means some thread panicked *after* a completed
    // swap (the stored Arc is always whole), so serving from it is sound.
    Arc::clone(&slot.lock().unwrap_or_else(|p| p.into_inner()))
}

/// Runs `model`'s one forward and builds its view. The forward's time is
/// recorded as `serve_forward_ns`: once per load, never per request.
fn materialize(model: &InferenceModel) -> (Matrix, SharedView) {
    let t0 = Instant::now();
    let logits = model.logits();
    autoac_obs::hist_record("serve_forward_ns", t0.elapsed().as_nanos() as f64);
    (logits, SharedView::from_model(model))
}

/// The resident checkpoint's logits block and identity plus the
/// published view, owned by the model thread.
pub struct ModelHost {
    /// `(N, C)` logits from the checkpoint's single forward.
    logits: Matrix,
    info: ServeStateInfo,
    slot: ViewSlot,
}

impl ModelHost {
    /// Loads the initial checkpoint, runs its forward, and publishes its
    /// view into a fresh slot.
    pub fn new(state: &ServeState) -> Result<Self, String> {
        let model = InferenceModel::from_state(state).map_err(|e| e.to_string())?;
        autoac_obs::flight_record(
            autoac_obs::FlightKind::Lifecycle,
            model.info().graph_fp,
            0,
            &format!("model loaded: {}", model.info().config_fp_hex),
        );
        let (logits, view) = materialize(&model);
        let slot = Arc::new(Mutex::new(Arc::new(view)));
        Ok(Self { logits, info: model.info().clone(), slot })
    }

    /// The slot workers should read views from.
    pub fn slot(&self) -> ViewSlot {
        Arc::clone(&self.slot)
    }

    /// Scores for `nodes`, in order, copied out of the resident logits
    /// block. Ids must be `< num_nodes`; workers validate them against the
    /// published view, and reloads never change the graph.
    pub fn scores(&self, nodes: &[usize]) -> Vec<NodeScore> {
        nodes
            .iter()
            .map(|&n| NodeScore {
                node: n,
                label: self.logits.argmax_row(n),
                logits: self.logits.row(n).to_vec(),
            })
            .collect()
    }

    /// Config fingerprint (hex) of the resident checkpoint.
    pub fn ckpt(&self) -> &str {
        &self.info.config_fp_hex
    }

    /// Replaces the resident checkpoint with `state`, keeping the old one
    /// on any failure. The new checkpoint must describe the *same graph*
    /// (identical structural fingerprint) so node ids keep their meaning
    /// across the swap; a foreign graph is refused before its forward
    /// runs. Callers surface a refusal as HTTP 409.
    pub fn reload(&mut self, state: &ServeState) -> Result<ServeStateInfo, String> {
        use autoac_obs::{flight_record, FlightKind};
        let next = match InferenceModel::from_state(state) {
            Ok(m) => m,
            Err(e) => {
                flight_record(FlightKind::Reload, 0, 0, &format!("rejected: {e}"));
                return Err(e.to_string());
            }
        };
        if next.info().graph_fp != self.info.graph_fp {
            flight_record(
                FlightKind::Reload,
                self.info.graph_fp,
                next.info().graph_fp,
                "rejected: graph fingerprint mismatch",
            );
            return Err(format!(
                "graph fingerprint mismatch: serving {:016x}, checkpoint {:016x} — \
                 node ids would silently change meaning",
                self.info.graph_fp,
                next.info().graph_fp
            ));
        }
        let (logits, view) = materialize(&next);
        let info = next.info().clone();
        flight_record(
            FlightKind::Reload,
            info.graph_fp,
            0,
            &format!("accepted: {}", info.config_fp_hex),
        );
        self.logits = logits;
        self.info = info.clone();
        *self.slot.lock().unwrap_or_else(|p| p.into_inner()) = Arc::new(view);
        Ok(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoac_core::{train_serve_state, ServeTrainSpec, TrainConfig};

    fn quick_state(seed: u64, data_seed: u64) -> ServeState {
        let spec = ServeTrainSpec {
            data_seed,
            train: TrainConfig { epochs: 2, patience: 2, ..Default::default() },
            seed,
            ..Default::default()
        };
        train_serve_state(&spec).expect("train").0
    }

    #[test]
    fn view_exposes_attr_rows_and_bounds() {
        let host = ModelHost::new(&quick_state(3, 1)).expect("load");
        let view = current_view(&host.slot());
        assert_eq!(view.num_nodes * view.attr_dim, view.attrs.len());
        assert!(view.attr_row(0).is_some());
        assert!(view.attr_row(view.num_nodes).is_none());
        assert_eq!(view.attr_row(1).map(<[f32]>::len), Some(view.attr_dim));
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        (0..m.rows()).flat_map(|r| m.row(r).iter().map(|v| v.to_bits())).collect()
    }

    /// Every node's served logits, flattened to bits.
    fn scored_bits(host: &ModelHost) -> Vec<u32> {
        let nodes: Vec<usize> = (0..current_view(&host.slot()).num_nodes).collect();
        host.scores(&nodes).iter().flat_map(|s| s.logits.iter().map(|v| v.to_bits())).collect()
    }

    #[test]
    fn reload_swaps_view_atomically_and_rejects_foreign_graphs() {
        let mut host = ModelHost::new(&quick_state(3, 1)).expect("load");
        let slot = host.slot();
        let before = current_view(&slot).info.config_fp_hex.clone();

        // Same graph, different seed: accepted; logits, identity and view
        // swapped together.
        let next = quick_state(4, 1);
        let info = host.reload(&next).expect("reload");
        assert_ne!(info.config_fp_hex, before);
        assert_eq!(current_view(&slot).info.config_fp_hex, info.config_fp_hex);
        assert_eq!(host.ckpt(), info.config_fp_hex);
        let want = InferenceModel::from_state(&next).expect("load").logits();
        assert_eq!(scored_bits(&host), bits(&want), "the block is the new checkpoint's forward");

        // Different data seed regenerates a different graph: rejected,
        // old logits, identity and view all kept.
        let err = host.reload(&quick_state(5, 2)).expect_err("must reject");
        assert!(err.contains("graph fingerprint mismatch"), "{err}");
        assert_eq!(current_view(&slot).info.config_fp_hex, info.config_fp_hex);
        assert_eq!(host.ckpt(), info.config_fp_hex);
        assert_eq!(scored_bits(&host), bits(&want));
    }
}
