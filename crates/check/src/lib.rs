//! `autoac-check` — the checking layer for the AutoAC stack.
//!
//! Three cooperating analyses share one diagnostics/report module
//! ([`diag`]):
//!
//! 1. **Tape verifier** ([`tape`]) — walks the autograd graph *before*
//!    `backward()` runs, validating per-op shape algebra, gradient
//!    accumulation shapes, topological order, and (against a parameter
//!    list) dead or frozen parameters.
//! 2. **Pool provenance sanitizer** — lives in
//!    `autoac_tensor::pool` (generation counters + canary words on pooled
//!    buffers); this crate re-exports its capture API and exercises it in
//!    integration tests.
//! 3. **Source lint** ([`lint`]) — a hand-rolled scanner enforcing
//!    project invariants over the crates' source text, driven by the
//!    `autoac-lint` binary.
//!
//! The two runtime analyses (1 and 2) are gated on `AUTOAC_CHECK`
//! (strictly parsed; see `autoac_tensor::chk`) and cost nothing when
//! disabled. Parallel kernels need none: `for_each_row_chunk` gives each
//! worker a disjoint `split_at_mut` slice of one row partition.

#![warn(missing_docs)]

pub mod analyze;
pub mod diag;
pub mod lint;
pub mod tape;

pub use diag::{Analysis, Diagnostic, Report};

// The pool sanitizer's capture API, re-exported so downstream tests depend
// only on autoac-check for the whole checking surface.
pub use autoac_tensor::pool::{capture_pool_violations, PoolViolation, PoolViolationKind};
