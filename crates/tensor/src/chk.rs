//! Runtime-check control surface (`AUTOAC_CHECK`) and op-provenance context.
//!
//! This module is the tensor-side half of the `autoac-check` subsystem: it
//! decides *whether* the expensive runtime checks are armed and records
//! *which op* is currently executing so the pool sanitizer can name the
//! allocating / releasing op in its reports.
//!
//! Control surface, in priority order:
//!
//! 1. [`with_check`] — a scoped, per-thread override used by tests (it lets
//!    one process compare checked and unchecked runs bit-for-bit).
//! 2. The `AUTOAC_CHECK` environment variable, read once and parsed
//!    **strictly**: `1/true/on/yes` arm the checks, `0/false/off/no` disarm
//!    them, anything else aborts with a clear message instead of silently
//!    defaulting (a typo like `AUTOAC_CHECK=ture` must not run unchecked).
//! 3. Default: disabled — zero overhead beyond one thread-local read.
//!
//! Op provenance: every primitive tensor op installs an [`op_scope`] guard
//! at entry, and [`Tensor::backward_with`](crate::Tensor::backward_with)
//! re-installs the recorded op name (plus a backward-phase marker) around
//! each backward closure. [`op_context`] renders the current label, e.g.
//! `matmul` or `matmul [backward]`.

use std::cell::Cell;
use std::sync::OnceLock;

/// Strict boolean-flag env parser, shared with `AUTOAC_POOL` and
/// `AUTOAC_OBS`. The single implementation now lives in `autoac-obs` (the
/// bottom of the dependency graph); this re-export keeps the historical
/// `autoac_tensor::chk::parse_bool_env` import path working.
pub use autoac_obs::parse_bool_env;

fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("AUTOAC_CHECK") {
        Ok(raw) => parse_bool_env("AUTOAC_CHECK", &raw)
            .unwrap_or_else(|e| panic!("autoac-tensor: {e}")),
        Err(_) => false,
    })
}

thread_local! {
    /// Scoped override installed by [`with_check`]; `None` defers to the env.
    static OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };

    /// Name of the tensor op currently executing on this thread.
    static CURRENT_OP: Cell<&'static str> = const { Cell::new("<no-op>") };

    /// Whether the thread is inside a backward closure right now.
    static IN_BACKWARD: Cell<bool> = const { Cell::new(false) };
}

/// Whether runtime checks (pool sanitizer, tape verification hooks) are
/// armed on this thread right now.
pub fn enabled() -> bool {
    OVERRIDE.with(Cell::get).unwrap_or_else(env_enabled)
}

/// Runs `f` with runtime checks forced on/off on this thread, restoring the
/// previous setting afterwards (also on panic). This is how tests arm the
/// sanitizers without touching process-global env, and how the bitwise
/// checked-vs-unchecked comparison runs inside one process.
pub fn with_check<T>(on: bool, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(on))));
    f()
}

/// RAII guard restoring the previous op label on drop; see [`op_scope`].
pub struct OpScope {
    prev: &'static str,
}

impl Drop for OpScope {
    fn drop(&mut self) {
        CURRENT_OP.with(|c| c.set(self.prev));
    }
}

/// Labels the current thread as executing op `name` until the guard drops.
/// Nested scopes shadow outer ones (a composite op reports its innermost
/// primitive), and the previous label is restored even on panic.
pub fn op_scope(name: &'static str) -> OpScope {
    OpScope { prev: CURRENT_OP.with(|c| c.replace(name)) }
}

/// The op label installed by the innermost live [`op_scope`] guard.
pub fn current_op() -> &'static str {
    CURRENT_OP.with(Cell::get)
}

/// RAII guard marking the backward phase; see [`backward_scope`].
pub struct PhaseScope {
    prev: bool,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        IN_BACKWARD.with(|c| c.set(self.prev));
    }
}

/// Marks the current thread as running a backward closure until the guard
/// drops. Installed by the autograd engine around each closure invocation.
pub(crate) fn backward_scope() -> PhaseScope {
    PhaseScope { prev: IN_BACKWARD.with(|c| c.replace(true)) }
}

/// True while a backward closure is executing on this thread.
pub fn in_backward() -> bool {
    IN_BACKWARD.with(Cell::get)
}

/// The current op label with a backward-phase marker, e.g. `matmul` or
/// `matmul [backward]` — the string sanitizer reports embed.
pub fn op_context() -> String {
    let op = current_op();
    if in_backward() {
        format!("{op} [backward]")
    } else {
        op.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_env_accepts_canonical_spellings() {
        for on in ["1", "true", "TRUE", " on ", "Yes"] {
            assert_eq!(parse_bool_env("X", on), Ok(true), "{on:?}");
        }
        for off in ["0", "false", "Off", " no "] {
            assert_eq!(parse_bool_env("X", off), Ok(false), "{off:?}");
        }
    }

    #[test]
    fn bool_env_rejects_empty_and_garbage() {
        for bad in ["", "  ", "2", "yess", "ture", "enabled", "-1", "0x1"] {
            let err = parse_bool_env("AUTOAC_CHECK", bad)
                .expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("AUTOAC_CHECK"), "error must name the variable: {err}");
        }
    }

    #[test]
    fn with_check_overrides_and_restores() {
        let baseline = enabled();
        with_check(true, || {
            assert!(enabled());
            with_check(false, || assert!(!enabled()));
            assert!(enabled());
        });
        assert_eq!(enabled(), baseline);
        let caught = std::panic::catch_unwind(|| with_check(true, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(enabled(), baseline);
    }

    #[test]
    fn op_scopes_nest_and_restore() {
        assert_eq!(current_op(), "<no-op>");
        {
            let _a = op_scope("outer");
            assert_eq!(current_op(), "outer");
            {
                let _b = op_scope("inner");
                assert_eq!(current_op(), "inner");
                assert_eq!(op_context(), "inner");
            }
            assert_eq!(current_op(), "outer");
            let _bw = backward_scope();
            assert!(in_backward());
            assert_eq!(op_context(), "outer [backward]");
        }
        assert_eq!(current_op(), "<no-op>");
        assert!(!in_backward());
    }
}
