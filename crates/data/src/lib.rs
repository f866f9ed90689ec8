//! # autoac-data
//!
//! Synthetic heterogeneous-graph datasets for the AutoAC reproduction.
//!
//! Real HGB benchmark data requires network access and an evaluation
//! server; instead this crate generates graphs that mirror the paper's
//! Table I statistics with planted, learnable structure (see `DESIGN.md`
//! for the substitution rationale). Also provides HGB-style node splits
//! and link-prediction edge masking.

#![warn(missing_docs)]

mod dataset;
pub mod json;
pub mod masking;
pub mod presets;
pub mod scale;
pub mod synth;

pub use dataset::{Dataset, Split};
pub use masking::{mask_edges, mask_edges_of_type, sample_train_negatives, LinkSplit};
pub use scale::{degree_profile, generate_scale, DegreeProfile, ScaleSpec};
pub use synth::{generate, EdgeTypeSpec, GraphSpec, NodeTypeSpec, Scale};
