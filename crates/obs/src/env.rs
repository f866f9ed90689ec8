//! The `AUTOAC_OBS` control surface.
//!
//! Observability follows the same discipline as the other runtime switches
//! (`AUTOAC_CHECK`, `AUTOAC_POOL`, `AUTOAC_NUM_THREADS`): strict parsing,
//! one env read per process, and a disabled path that costs a single branch.
//! Priority order:
//!
//! 1. [`with_obs`] — scoped per-thread override, for tests that compare
//!    instrumented and uninstrumented runs bit-for-bit in one process.
//! 2. [`set_force`] — process-global override, for harness binaries
//!    (`table4_runtime`, `obs_smoke`, the benchmark) that always want the
//!    span data regardless of the environment, and for tests that need
//!    worker threads (which never inherit a thread-local override) to see
//!    obs as enabled.
//! 3. The `AUTOAC_OBS` environment variable, read once and parsed strictly
//!    by [`parse_bool_env`]: a typo like `AUTOAC_OBS=ture` aborts instead of
//!    silently running un-instrumented.
//! 4. Default: disabled.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Strict parser for boolean-flag environment variables (`AUTOAC_OBS`,
/// `AUTOAC_CHECK`, `AUTOAC_POOL`). Accepts `1/true/on/yes` and
/// `0/false/off/no` (case-insensitive, surrounding whitespace ignored);
/// anything else — including an empty value — is an error so malformed
/// settings fail loudly instead of silently defaulting.
///
/// This is the single workspace-wide implementation; `autoac_tensor::chk`
/// re-exports it so existing callers keep their import path.
pub fn parse_bool_env(var: &str, raw: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Ok(true),
        "0" | "false" | "off" | "no" => Ok(false),
        "" => Err(format!(
            "{var} is set but empty; use 1/true/on/yes or 0/false/off/no (or unset it)"
        )),
        other => Err(format!(
            "{var}={other:?} is not a recognized flag; use 1/true/on/yes or 0/false/off/no"
        )),
    }
}

fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("AUTOAC_OBS") {
        Ok(raw) => {
            // analyze:allow(panic, malformed AUTOAC_* values abort at startup by design instead of silently defaulting)
            parse_bool_env("AUTOAC_OBS", &raw).unwrap_or_else(|e| panic!("autoac-obs: {e}"))
        }
        Err(_) => false,
    })
}

/// Process-global override: 0 = unset (defer to env), 1 = forced off,
/// 2 = forced on.
static FORCE: AtomicU8 = AtomicU8::new(0);

thread_local! {
    /// Scoped override installed by [`with_obs`]; `None` defers to
    /// [`FORCE`] and then the env.
    static OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Whether observability is armed on this thread right now. This is the
/// single branch every instrumentation site pays when obs is disabled.
#[inline]
pub fn enabled() -> bool {
    if let Some(v) = OVERRIDE.with(Cell::get) {
        return v;
    }
    match FORCE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => env_enabled(),
    }
}

/// Process-global force switch. `Some(true)`/`Some(false)` win over the
/// env for every thread (workers included); `None` restores env control.
/// Harness binaries call `set_force(Some(true))` at startup so their span
/// data exists regardless of how they were launched.
pub fn set_force(on: Option<bool>) {
    let v = match on {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    FORCE.store(v, Ordering::Relaxed);
}

/// Runs `f` with obs forced on/off on this thread, restoring the previous
/// setting afterwards (also on panic). Worker threads spawned inside `f`
/// do **not** inherit the override (thread-locals don't cross threads);
/// tests that need workers instrumented use [`set_force`] in a dedicated
/// test binary instead.
pub fn with_obs<T>(on: bool, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = OVERRIDE.with(|o| {
        let prev = o.get();
        o.set(Some(on));
        Restore(prev)
    });
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_truthy_and_falsy_spellings() {
        for raw in ["1", "true", "on", "yes", " TRUE ", "On", "YES"] {
            assert_eq!(parse_bool_env("AUTOAC_OBS", raw), Ok(true), "raw={raw:?}");
        }
        for raw in ["0", "false", "off", "no", " FALSE ", "Off", "NO"] {
            assert_eq!(parse_bool_env("AUTOAC_OBS", raw), Ok(false), "raw={raw:?}");
        }
    }

    #[test]
    fn parse_rejects_empty_and_garbage() {
        for raw in ["", "  ", "ture", "2", "yes!", "enabled", "0x1"] {
            let err = parse_bool_env("AUTOAC_OBS", raw).unwrap_err();
            assert!(err.contains("AUTOAC_OBS"), "error should name the var: {err}");
        }
    }

    #[test]
    fn with_obs_overrides_and_restores() {
        // Assertions stay inside override scopes: sibling tests may toggle
        // the process-global force switch concurrently, so only the
        // thread-local layer is deterministic here.
        with_obs(true, || {
            assert!(enabled());
            with_obs(false, || assert!(!enabled()));
            assert!(enabled(), "inner scope must restore outer override");
        });
    }

    #[test]
    fn thread_override_beats_force() {
        let _serial = crate::test_lock();
        with_obs(false, || {
            set_force(Some(true));
            assert!(!enabled(), "thread-local override outranks set_force");
            set_force(None);
        });
    }
}
