//! Typed run states layered on the section container: what a search or
//! retraining loop must persist to restart bit-identically, plus the
//! metadata that makes a resume against the wrong run fail loudly.

use autoac_tensor::{AdamState, Matrix};

use crate::format::{CkptError, Snapshot};

/// A tiny FNV-1a accumulator for config fingerprints. Callers feed every
/// field that shapes the per-epoch trajectory; horizon fields (total epoch
/// counts) are deliberately left out so an interrupted run can be resumed
/// with a longer budget.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Fresh accumulator (FNV-1a offset basis).
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Mixes a `u64`.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes an `f32` by bit pattern.
    pub fn f32(self, v: f32) -> Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    /// Mixes a bool.
    pub fn bool(self, v: bool) -> Self {
        self.bytes(&[v as u8])
    }

    /// Final digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Identity of a run: which stage wrote the snapshot and the fingerprints a
/// resume must match. `graph_fp` is the structural fingerprint of the graph
/// (`autoac_graph::HeteroGraph::structural_fingerprint`), `config_fp` a
/// [`Fingerprint`] over the trajectory-shaping config fields, and `seed` the
/// run seed — together they guarantee a snapshot is only ever applied to the
/// run that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Stage tag, e.g. `"search"` or `"train-cls"`.
    pub kind: String,
    /// Structural fingerprint of the graph the run operates on.
    pub graph_fp: u64,
    /// Fingerprint of the trajectory-shaping config fields.
    pub config_fp: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Fingerprint of the minibatch schedule the run trains over
    /// (`MinibatchConfig::segment_fp` in `autoac-core`), or `0` for
    /// whole-graph full-batch runs. Resuming a run under a different batch
    /// schedule would silently diverge, so the schedule is part of the
    /// identity.
    pub segment_fp: u64,
}

impl RunMeta {
    /// Whole-graph identity (no batch schedule).
    pub fn whole_graph(kind: impl Into<String>, graph_fp: u64, config_fp: u64, seed: u64) -> Self {
        Self { kind: kind.into(), graph_fp, config_fp, seed, segment_fp: 0 }
    }

    pub(crate) fn write(&self, snap: &mut Snapshot) {
        snap.put_str("meta.kind", &self.kind);
        snap.put_u64("meta.graph_fp", self.graph_fp);
        snap.put_u64("meta.config_fp", self.config_fp);
        snap.put_u64("meta.seed", self.seed);
        snap.put_u64("meta.segment_fp", self.segment_fp);
    }

    pub(crate) fn read(snap: &Snapshot) -> Result<Self, CkptError> {
        Ok(Self {
            kind: snap.get_str("meta.kind")?,
            graph_fp: snap.get_u64("meta.graph_fp")?,
            config_fp: snap.get_u64("meta.config_fp")?,
            seed: snap.get_u64("meta.seed")?,
            // Absent in snapshots written before segment awareness: those
            // were whole-graph runs by construction.
            segment_fp: if snap.contains("meta.segment_fp") {
                snap.get_u64("meta.segment_fp")?
            } else {
                0
            },
        })
    }

    /// Checks that a snapshot's identity matches the resuming run; any
    /// disagreement is a hard error (resuming would silently diverge).
    pub fn validate(&self, expected: &Self) -> Result<(), CkptError> {
        if self.kind != expected.kind {
            return Err(CkptError::Malformed {
                section: "meta.kind".to_string(),
                reason: "snapshot was written by a different run stage",
            });
        }
        for (field, found, want) in [
            ("graph fingerprint", self.graph_fp, expected.graph_fp),
            ("config fingerprint", self.config_fp, expected.config_fp),
            ("seed", self.seed, expected.seed),
            ("segment fingerprint", self.segment_fp, expected.segment_fp),
        ] {
            if found != want {
                return Err(CkptError::Mismatch { field, found, expected: want });
            }
        }
        Ok(())
    }
}

fn write_adam(snap: &mut Snapshot, prefix: &str, state: &AdamState) {
    snap.put_u64(&format!("{prefix}.t"), state.t);
    snap.put_matrices(&format!("{prefix}.m"), &state.m);
    snap.put_matrices(&format!("{prefix}.v"), &state.v);
}

fn read_adam(snap: &Snapshot, prefix: &str) -> Result<AdamState, CkptError> {
    Ok(AdamState {
        t: snap.get_u64(&format!("{prefix}.t"))?,
        m: snap.get_matrices(&format!("{prefix}.m"))?,
        v: snap.get_matrices(&format!("{prefix}.v"))?,
    })
}

/// Everything the AutoAC bi-level search loop needs to restart a run at an
/// epoch boundary bit-identically: ω parameter leaves, both optimizer
/// states, the α matrix, cluster assignments, best-so-far tracking, the
/// clustering-loss trace, and the raw RNG state.
#[derive(Debug, Clone)]
pub struct SearchState {
    /// Run identity (validated on resume).
    pub meta: RunMeta,
    /// Completed search epochs.
    pub epochs_done: u64,
    /// Wall-clock seconds spent before this snapshot (for cumulative
    /// timing across resumes; not part of the bit-exactness contract).
    pub elapsed_seconds: f64,
    /// xoshiro256++ state of the search RNG.
    pub rng: [u64; 4],
    /// The α matrix (continuous completion parameters).
    pub alpha: Matrix,
    /// Every ω parameter leaf, in optimizer order.
    pub omega: Vec<Matrix>,
    /// Adam state of the α group.
    pub alpha_opt: AdamState,
    /// Adam state of the ω group.
    pub omega_opt: AdamState,
    /// Cluster id per `V⁻` node.
    pub cluster_of: Vec<u32>,
    /// Best validation loss seen so far.
    pub best_val: f32,
    /// Best-validation snapshot of `(α, cluster_of)`, if any epoch has
    /// produced one yet.
    pub best: Option<(Matrix, Vec<u32>)>,
    /// Per-epoch clustering-loss trace.
    pub gmoc_trace: Vec<f32>,
}

impl SearchState {
    /// Serializes into a snapshot container.
    pub fn to_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.meta.write(&mut snap);
        snap.put_u64("epochs_done", self.epochs_done);
        snap.put_f64("elapsed_seconds", self.elapsed_seconds);
        snap.put_u64s("rng", &self.rng);
        snap.put_matrix("alpha", &self.alpha);
        snap.put_matrices("omega", &self.omega);
        write_adam(&mut snap, "alpha_opt", &self.alpha_opt);
        write_adam(&mut snap, "omega_opt", &self.omega_opt);
        snap.put_u32s("cluster_of", &self.cluster_of);
        snap.put_f32s("best_val", &[self.best_val]);
        if let Some((alpha, clusters)) = &self.best {
            snap.put_matrix("best.alpha", alpha);
            snap.put_u32s("best.cluster_of", clusters);
        }
        snap.put_f32s("gmoc_trace", &self.gmoc_trace);
        snap
    }

    /// Deserializes from a snapshot container.
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, CkptError> {
        let rng_vec = snap.get_u64s("rng")?;
        let rng: [u64; 4] = rng_vec.as_slice().try_into().map_err(|_| {
            CkptError::Malformed { section: "rng".to_string(), reason: "expected 4 u64 words" }
        })?;
        let best = if snap.contains("best.alpha") {
            Some((snap.get_matrix("best.alpha")?, snap.get_u32s("best.cluster_of")?))
        } else {
            None
        };
        let best_val = snap.get_f32s("best_val")?;
        let &[best_val] = best_val.as_slice() else {
            return Err(CkptError::Malformed {
                section: "best_val".to_string(),
                reason: "expected a single f32",
            });
        };
        Ok(Self {
            meta: RunMeta::read(snap)?,
            epochs_done: snap.get_u64("epochs_done")?,
            elapsed_seconds: snap.get_f64("elapsed_seconds")?,
            rng,
            alpha: snap.get_matrix("alpha")?,
            omega: snap.get_matrices("omega")?,
            alpha_opt: read_adam(snap, "alpha_opt")?,
            omega_opt: read_adam(snap, "omega_opt")?,
            cluster_of: snap.get_u32s("cluster_of")?,
            best_val,
            best,
            gmoc_trace: snap.get_f32s("gmoc_trace")?,
        })
    }
}

/// Everything the retraining/early-stopping loop needs to restart at an
/// epoch boundary bit-identically.
#[derive(Debug, Clone)]
pub struct TrainState {
    /// Run identity (validated on resume).
    pub meta: RunMeta,
    /// Completed training epochs.
    pub epochs_done: u64,
    /// Wall-clock seconds spent before this snapshot.
    pub elapsed_seconds: f64,
    /// xoshiro256++ state of the training RNG.
    pub rng: [u64; 4],
    /// Every parameter leaf, in `ForwardPipe::params` order.
    pub params: Vec<Matrix>,
    /// Adam state of the parameter group.
    pub opt: AdamState,
    /// Best validation metric so far.
    pub best_val: f64,
    /// Parameter snapshot at the best-validation epoch.
    pub best_snap: Vec<Matrix>,
    /// Consecutive epochs without validation improvement.
    pub bad_epochs: u64,
}

impl TrainState {
    /// Serializes into a snapshot container.
    pub fn to_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.meta.write(&mut snap);
        snap.put_u64("epochs_done", self.epochs_done);
        snap.put_f64("elapsed_seconds", self.elapsed_seconds);
        snap.put_u64s("rng", &self.rng);
        snap.put_matrices("params", &self.params);
        write_adam(&mut snap, "opt", &self.opt);
        snap.put_f64("best_val", self.best_val);
        snap.put_matrices("best_snap", &self.best_snap);
        snap.put_u64("bad_epochs", self.bad_epochs);
        snap
    }

    /// Deserializes from a snapshot container.
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, CkptError> {
        let rng_vec = snap.get_u64s("rng")?;
        let rng: [u64; 4] = rng_vec.as_slice().try_into().map_err(|_| {
            CkptError::Malformed { section: "rng".to_string(), reason: "expected 4 u64 words" }
        })?;
        Ok(Self {
            meta: RunMeta::read(snap)?,
            epochs_done: snap.get_u64("epochs_done")?,
            elapsed_seconds: snap.get_f64("elapsed_seconds")?,
            rng,
            params: snap.get_matrices("params")?,
            opt: read_adam(snap, "opt")?,
            best_val: snap.get_f64("best_val")?,
            best_snap: snap.get_matrices("best_snap")?,
            bad_epochs: snap.get_u64("bad_epochs")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta {
        RunMeta { kind: "search".into(), graph_fp: 0xAB, config_fp: 0xCD, seed: 7, segment_fp: 0 }
    }

    fn search_state() -> SearchState {
        SearchState {
            meta: meta(),
            epochs_done: 12,
            elapsed_seconds: 3.5,
            rng: [9, 8, 7, 6],
            alpha: Matrix::from_rows(&[&[0.1, 0.9], &[-0.0, f32::NAN]]),
            omega: vec![Matrix::ones(2, 2), Matrix::zeros(1, 3)],
            alpha_opt: AdamState { t: 12, m: vec![Matrix::zeros(2, 2)], v: vec![Matrix::zeros(2, 2)] },
            omega_opt: AdamState {
                t: 12,
                m: vec![Matrix::ones(2, 2), Matrix::zeros(1, 3)],
                v: vec![Matrix::ones(2, 2), Matrix::zeros(1, 3)],
            },
            cluster_of: vec![0, 1, 1, 0],
            best_val: 0.25,
            best: Some((Matrix::eye(2), vec![1, 0, 0, 1])),
            gmoc_trace: vec![-0.1, -0.2],
        }
    }

    #[test]
    fn search_state_roundtrip() {
        let s = search_state();
        let snap = Snapshot::decode(&s.to_snapshot().encode()).unwrap();
        let back = SearchState::from_snapshot(&snap).unwrap();
        assert_eq!(back.meta, s.meta);
        assert_eq!(back.epochs_done, 12);
        assert_eq!(back.rng, [9, 8, 7, 6]);
        assert_eq!(back.alpha.get(1, 0).to_bits(), (-0.0f32).to_bits());
        assert!(back.alpha.get(1, 1).is_nan());
        assert_eq!(back.omega.len(), 2);
        assert_eq!(back.omega_opt.t, 12);
        assert_eq!(back.cluster_of, vec![0, 1, 1, 0]);
        assert_eq!(back.best.as_ref().unwrap().1, vec![1, 0, 0, 1]);
        assert_eq!(back.gmoc_trace, vec![-0.1, -0.2]);
    }

    #[test]
    fn search_state_without_best_roundtrips() {
        let mut s = search_state();
        s.best = None;
        let snap = Snapshot::decode(&s.to_snapshot().encode()).unwrap();
        assert!(SearchState::from_snapshot(&snap).unwrap().best.is_none());
    }

    #[test]
    fn train_state_roundtrip() {
        let s = TrainState {
            meta: RunMeta { kind: "train-cls".into(), ..meta() },
            epochs_done: 40,
            elapsed_seconds: 1.0,
            rng: [1, 2, 3, 4],
            params: vec![Matrix::ones(3, 3)],
            opt: AdamState { t: 40, m: vec![Matrix::zeros(3, 3)], v: vec![Matrix::zeros(3, 3)] },
            best_val: 0.875,
            best_snap: vec![Matrix::eye(3)],
            bad_epochs: 5,
        };
        let snap = Snapshot::decode(&s.to_snapshot().encode()).unwrap();
        let back = TrainState::from_snapshot(&snap).unwrap();
        assert_eq!(back.meta.kind, "train-cls");
        assert_eq!(back.best_val, 0.875);
        assert_eq!(back.bad_epochs, 5);
        assert_eq!(back.best_snap[0], Matrix::eye(3));
    }

    #[test]
    fn validate_catches_mismatches() {
        let a = meta();
        assert!(a.validate(&a).is_ok());
        let mut b = meta();
        b.config_fp ^= 1;
        assert!(matches!(
            a.validate(&b),
            Err(CkptError::Mismatch { field: "config fingerprint", .. })
        ));
        let mut c = meta();
        c.seed += 1;
        assert!(matches!(a.validate(&c), Err(CkptError::Mismatch { field: "seed", .. })));
        let mut d = meta();
        d.kind = "train-cls".into();
        assert!(a.validate(&d).is_err());
        let mut e = meta();
        e.segment_fp = 0x5A5A;
        assert!(matches!(
            a.validate(&e),
            Err(CkptError::Mismatch { field: "segment fingerprint", .. })
        ));
    }

    #[test]
    fn segment_fp_defaults_to_whole_graph_when_absent() {
        // A snapshot written without the segment field (the older format)
        // reads back as segment_fp = 0, i.e. a whole-graph run.
        let mut snap = Snapshot::new();
        let m = meta();
        snap.put_str("meta.kind", &m.kind);
        snap.put_u64("meta.graph_fp", m.graph_fp);
        snap.put_u64("meta.config_fp", m.config_fp);
        snap.put_u64("meta.seed", m.seed);
        let back = RunMeta::read(&snap).unwrap();
        assert_eq!(back.segment_fp, 0);
        assert!(back.validate(&RunMeta::whole_graph("search", 0xAB, 0xCD, 7)).is_ok());
    }

    #[test]
    fn fingerprint_is_field_sensitive() {
        let base = Fingerprint::new().u64(8).f32(0.4).bool(true).finish();
        assert_eq!(base, Fingerprint::new().u64(8).f32(0.4).bool(true).finish());
        assert_ne!(base, Fingerprint::new().u64(9).f32(0.4).bool(true).finish());
        assert_ne!(base, Fingerprint::new().u64(8).f32(0.5).bool(true).finish());
        assert_ne!(base, Fingerprint::new().u64(8).f32(0.4).bool(false).finish());
        // -0.0 and 0.0 hash differently (bit-pattern hashing).
        assert_ne!(
            Fingerprint::new().f32(0.0).finish(),
            Fingerprint::new().f32(-0.0).finish()
        );
    }
}
