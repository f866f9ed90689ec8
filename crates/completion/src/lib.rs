//! # autoac-completion
//!
//! The attribute-completion operation search space of AutoAC (paper §IV-A):
//! four completion operations (mean / GCN / PPNP / one-hot), precomputed
//! graph operators, and the two assembly modes the search alternates
//! between — weighted mixture (continuous relaxation, Eq. 5) and discrete
//! per-node assignment (Algorithm 1's lower-level step).

#![warn(missing_docs)]

mod module;
mod ops;

pub use module::{
    complete_assigned, complete_assigned_in, complete_mixture, complete_mixture_in, Transform,
};
pub use ops::{CompletionContext, CompletionOp, CompletionOps};
