//! The serving checkpoint: a self-contained export of a trained model that
//! a fresh process can load and answer queries from, bit-identically to
//! the process that trained it.
//!
//! Unlike [`SearchState`](crate::SearchState)/[`TrainState`](crate::TrainState)
//! — mid-run freezes that assume the loop around them will regenerate the
//! dataset and rebuild the pipeline — a [`ServeState`] carries everything
//! needed to do that reconstruction itself: the dataset recipe (preset
//! name, scale, seed), the backbone tag and dimensions, the searched
//! completion-operator assignment, the exact RNG state the pipeline was
//! constructed with (construction samples initial parameters, so replaying
//! it is what makes the rebuilt pipeline structurally identical), and the
//! trained parameter leaves. The same [`RunMeta`] identity guards apply:
//! loading validates the regenerated graph's structural fingerprint and
//! the recomputed config fingerprint against the stored ones, so a stale
//! or mislabeled checkpoint fails loudly instead of serving garbage.

use autoac_tensor::Matrix;

use crate::format::{CkptError, Snapshot};
use crate::state::{Fingerprint, RunMeta};

/// The [`RunMeta::kind`] tag for serving checkpoints.
pub const SERVE_KIND: &str = "serve";

/// Everything needed to reconstruct a trained model for inference in a
/// process with no memory of the training run.
#[derive(Debug, Clone)]
pub struct ServeState {
    /// Run identity; `kind` is [`SERVE_KIND`], `graph_fp` the structural
    /// fingerprint of the regenerated graph, `config_fp` the value of
    /// [`Self::config_fingerprint`], `seed` the training run seed.
    pub meta: RunMeta,
    /// Dataset preset name (`autoac_data::presets::by_name`).
    pub preset: String,
    /// Dataset scale string (`autoac_data::Scale::parse`).
    pub scale: String,
    /// Dataset generation seed.
    pub data_seed: u64,
    /// Backbone tag (`autoac_core::Backbone::parse`).
    pub backbone: String,
    /// GNN input (shared embedding) dimension.
    pub in_dim: u64,
    /// GNN hidden dimension.
    pub hidden: u64,
    /// GNN output dimension (number of classes).
    pub out_dim: u64,
    /// Message-passing layers.
    pub layers: u64,
    /// Attention heads.
    pub heads: u64,
    /// Edge-type embedding dimension (SimpleHGN).
    pub edge_dim: u64,
    /// Feature dropout (inactive at inference, but part of identity).
    pub dropout: f32,
    /// LeakyReLU negative slope.
    pub slope: f32,
    /// Edge-attention residual β (SimpleHGN).
    pub beta: f32,
    /// Completion-operator index per attribute-missing node, in
    /// `CompletionOp::ALL` order — the search's output.
    pub assignment: Vec<u32>,
    /// xoshiro256++ state captured immediately before pipeline
    /// construction; replaying it reproduces construction-time sampling
    /// (parameter init) exactly.
    pub ctor_rng: [u64; 4],
    /// Seed for the inference RNG. The served forward reseeds from this
    /// value, which is what makes logits a pure function of (checkpoint,
    /// node id) (the serving determinism contract).
    pub infer_seed: u64,
    /// Trained parameter leaves, in `ForwardPipe::params` order.
    pub params: Vec<Matrix>,
    /// Training epochs completed (surfaced by `/healthz`).
    pub epochs_done: u64,
    /// Test macro-F1 at export time (surfaced by `/healthz`).
    pub macro_f1: f64,
    /// Test micro-F1 at export time (surfaced by `/healthz`).
    pub micro_f1: f64,
}

impl ServeState {
    /// Fingerprint over every field that shapes inference output: the
    /// dataset recipe, backbone and dimensions, the completion assignment,
    /// the construction RNG, and the inference seed. Stored in
    /// `meta.config_fp` at export and recomputed + compared at load.
    pub fn config_fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new()
            .bytes(self.preset.as_bytes())
            .bytes(self.scale.as_bytes())
            .u64(self.data_seed)
            .bytes(self.backbone.as_bytes())
            .u64(self.in_dim)
            .u64(self.hidden)
            .u64(self.out_dim)
            .u64(self.layers)
            .u64(self.heads)
            .u64(self.edge_dim)
            .f32(self.dropout)
            .f32(self.slope)
            .f32(self.beta)
            .u64(self.infer_seed);
        for &op in &self.assignment {
            fp = fp.u64(op as u64);
        }
        for &w in &self.ctor_rng {
            fp = fp.u64(w);
        }
        fp.finish()
    }

    /// Checks internal consistency: the kind tag and that the stored
    /// config fingerprint matches the recomputed one (a mismatch means the
    /// file was produced by an incompatible writer or tampered with).
    pub fn validate_self(&self) -> Result<(), CkptError> {
        if self.meta.kind != SERVE_KIND {
            return Err(CkptError::Malformed {
                section: "meta.kind".to_string(),
                reason: "not a serving checkpoint",
            });
        }
        let want = self.config_fingerprint();
        if self.meta.config_fp != want {
            return Err(CkptError::Mismatch {
                field: "config fingerprint",
                found: self.meta.config_fp,
                expected: want,
            });
        }
        Ok(())
    }

    /// Serializes into a snapshot container.
    pub fn to_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.meta.write(&mut snap);
        snap.put_str("data.preset", &self.preset);
        snap.put_str("data.scale", &self.scale);
        snap.put_u64("data.seed", self.data_seed);
        snap.put_str("model.backbone", &self.backbone);
        snap.put_u64s(
            "model.dims",
            &[self.in_dim, self.hidden, self.out_dim, self.layers, self.heads, self.edge_dim],
        );
        snap.put_f32s("model.floats", &[self.dropout, self.slope, self.beta]);
        snap.put_u32s("assignment", &self.assignment);
        snap.put_u64s("ctor_rng", &self.ctor_rng);
        snap.put_u64("infer_seed", self.infer_seed);
        snap.put_matrices("params", &self.params);
        snap.put_u64("epochs_done", self.epochs_done);
        snap.put_f64("macro_f1", self.macro_f1);
        snap.put_f64("micro_f1", self.micro_f1);
        snap
    }

    /// Deserializes from a snapshot container (and [`Self::validate_self`]s).
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, CkptError> {
        let dims = snap.get_u64s("model.dims")?;
        let &[in_dim, hidden, out_dim, layers, heads, edge_dim] = dims.as_slice() else {
            return Err(CkptError::Malformed {
                section: "model.dims".to_string(),
                reason: "expected 6 u64 dims",
            });
        };
        let floats = snap.get_f32s("model.floats")?;
        let &[dropout, slope, beta] = floats.as_slice() else {
            return Err(CkptError::Malformed {
                section: "model.floats".to_string(),
                reason: "expected 3 f32 fields",
            });
        };
        let rng_vec = snap.get_u64s("ctor_rng")?;
        let ctor_rng: [u64; 4] = rng_vec.as_slice().try_into().map_err(|_| {
            CkptError::Malformed { section: "ctor_rng".to_string(), reason: "expected 4 u64 words" }
        })?;
        let state = Self {
            meta: RunMeta::read(snap)?,
            preset: snap.get_str("data.preset")?,
            scale: snap.get_str("data.scale")?,
            data_seed: snap.get_u64("data.seed")?,
            backbone: snap.get_str("model.backbone")?,
            in_dim,
            hidden,
            out_dim,
            layers,
            heads,
            edge_dim,
            dropout,
            slope,
            beta,
            assignment: snap.get_u32s("assignment")?,
            ctor_rng,
            infer_seed: snap.get_u64("infer_seed")?,
            params: snap.get_matrices("params")?,
            epochs_done: snap.get_u64("epochs_done")?,
            macro_f1: snap.get_f64("macro_f1")?,
            micro_f1: snap.get_f64("micro_f1")?,
        };
        state.validate_self()?;
        Ok(state)
    }

    /// Writes the checkpoint to `path` atomically (tmp file + rename).
    pub fn write_atomic(&self, path: &std::path::Path) -> Result<(), CkptError> {
        self.to_snapshot().write_atomic(path)
    }

    /// Reads and validates a checkpoint file.
    pub fn read(path: &std::path::Path) -> Result<Self, CkptError> {
        Self::from_snapshot(&Snapshot::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServeState {
        let mut s = ServeState {
            meta: RunMeta {
                kind: SERVE_KIND.into(),
                graph_fp: 0x1234,
                config_fp: 0,
                seed: 11,
                segment_fp: 0,
            },
            preset: "imdb".into(),
            scale: "tiny".into(),
            data_seed: 5,
            backbone: "gcn".into(),
            in_dim: 16,
            hidden: 32,
            out_dim: 4,
            layers: 2,
            heads: 4,
            edge_dim: 8,
            dropout: 0.5,
            slope: 0.05,
            beta: 0.05,
            assignment: vec![0, 2, 1, 1],
            ctor_rng: [1, 2, 3, 4],
            infer_seed: 0xCAFE,
            params: vec![
                Matrix::from_rows(&[&[0.5, -0.0], &[f32::NAN, 1.5e-42]]),
                Matrix::eye(3),
            ],
            epochs_done: 40,
            macro_f1: 0.5,
            micro_f1: 0.625,
        };
        s.meta.config_fp = s.config_fingerprint();
        s
    }

    #[test]
    fn roundtrips_bit_exactly_through_encode() {
        let s = state();
        let snap = Snapshot::decode(&s.to_snapshot().encode()).unwrap();
        let back = ServeState::from_snapshot(&snap).unwrap();
        assert_eq!(back.meta, s.meta);
        assert_eq!((back.preset.as_str(), back.scale.as_str()), ("imdb", "tiny"));
        assert_eq!(back.backbone, "gcn");
        assert_eq!(
            (back.in_dim, back.hidden, back.out_dim, back.layers, back.heads, back.edge_dim),
            (16, 32, 4, 2, 4, 8)
        );
        assert_eq!(back.assignment, vec![0, 2, 1, 1]);
        assert_eq!(back.ctor_rng, [1, 2, 3, 4]);
        // Exact bit patterns survive: -0.0, NaN, subnormals.
        assert_eq!(back.params[0].get(0, 1).to_bits(), (-0.0f32).to_bits());
        assert!(back.params[0].get(1, 0).is_nan());
        assert_eq!(back.params[0].get(1, 1).to_bits(), 1.5e-42f32.to_bits());
        assert_eq!(back.epochs_done, 40);
        assert_eq!(back.micro_f1, 0.625);
    }

    #[test]
    fn roundtrips_through_a_file() {
        let dir = std::env::temp_dir().join(format!("autoac_serve_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.bin");
        let s = state();
        s.write_atomic(&path).unwrap();
        let back = ServeState::read(&path).unwrap();
        assert_eq!(back.meta, s.meta);
        assert_eq!(back.params.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_fingerprint_is_field_sensitive() {
        let base = state().config_fingerprint();
        let mut s = state();
        s.assignment[1] = 3;
        assert_ne!(base, s.config_fingerprint());
        let mut s = state();
        s.infer_seed ^= 1;
        assert_ne!(base, s.config_fingerprint());
        let mut s = state();
        s.backbone = "gat".into();
        assert_ne!(base, s.config_fingerprint());
        let mut s = state();
        s.ctor_rng[3] ^= 1;
        assert_ne!(base, s.config_fingerprint());
    }

    #[test]
    fn loading_rejects_wrong_kind_and_stale_fingerprint() {
        let mut s = state();
        s.meta.kind = "train-cls".into();
        let snap = Snapshot::decode(&s.to_snapshot().encode()).unwrap();
        assert!(matches!(
            ServeState::from_snapshot(&snap),
            Err(CkptError::Malformed { .. })
        ));

        let mut s = state();
        s.infer_seed ^= 1; // config changed but stored fp not updated
        let snap = Snapshot::decode(&s.to_snapshot().encode()).unwrap();
        assert!(matches!(
            ServeState::from_snapshot(&snap),
            Err(CkptError::Mismatch { field: "config fingerprint", .. })
        ));
    }
}
