//! # autoac-graph
//!
//! Heterogeneous graph store and graph kernels for the AutoAC reproduction:
//! typed node/edge storage (HGB conventions), normalized adjacency
//! constructions, PPNP propagation, metapath enumeration, and random walks.

#![warn(missing_docs)]

mod adjacency;
pub mod cache;
mod hetero;
pub mod metapath;
pub mod norm;
pub mod ppr;
pub mod shard;
pub mod walk;

pub use adjacency::Adjacency;
pub use cache::{AttrAggs, OpCache};
pub use hetero::{EdgeType, EdgeTypeId, HeteroGraph, HeteroGraphBuilder, NodeTypeId};
pub use shard::ShardStrategy;
