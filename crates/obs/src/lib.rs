//! # autoac-obs — observability for the AutoAC stack
//!
//! Zero-dependency structured tracing, metrics, and search-trajectory
//! telemetry, sitting at the very bottom of the workspace dependency
//! graph so every layer (tensor kernels included) can emit into it.
//!
//! Three pieces:
//!
//! 1. **Hierarchical spans** ([`span`], [`span!`]) — RAII guards with
//!    monotonic timing and thread-aware nesting. Kernel launchers capture
//!    [`current_path`] and workers [`adopt`] it, so worker-side spans nest
//!    under the launching call site. Aggregated online per distinct path:
//!    memory is bounded by tree shape, not call count.
//! 2. **Metrics registry** ([`counter_add`], [`gauge_set`],
//!    [`hist_record`], [`series`], [`series_vec`], [`warn`]) — counters,
//!    gauges, log-bucketed [`Histogram`]s with exact min/max/sum, and the
//!    per-epoch trajectory series (α entropy, ω grad norms, losses) that
//!    regenerate the paper's Fig. 4/5 data as a side effect of any run.
//! 3. **Exporters** ([`drain`] → [`ObsReport`]) — JSONL event sink
//!    (`results/OBS_<run>.jsonl` via [`finish`]), human span-tree report
//!    ([`ObsReport::render_tree`]), and a Prometheus text snapshot
//!    ([`ObsReport::prom_dump`]).
//!
//! Everything is gated on the strictly-parsed `AUTOAC_OBS` env var (see
//! [`parse_bool_env`]); when disabled, every instrumentation site costs a
//! single branch and the instrumented code is bitwise-identical to the
//! uninstrumented run — obs never reads RNG state or mutates tensors.

mod env;
mod flight;
mod hist;
mod metrics;
mod report;
mod slo;
mod span;

pub use env::{enabled, parse_bool_env, set_force, with_obs};
pub use flight::{
    flight_dump_to, flight_jsonl, flight_record, flight_snapshot,
    install_panic_dump, FlightKind, FlightRecord, Ring, FLIGHT_CAPACITY, MSG_MAX,
};
pub use hist::{bucket_bounds, bucket_index, Exemplar, Histogram, MAX_EXEMPLARS, NUM_BUCKETS};
pub use metrics::{
    counter_add, gauge_set, hist_record, hist_record_ex, series, series_vec, shape_record, warn,
    Event, ShapeKey, MAX_SHAPE_KEYS,
};
pub use report::{ObsReport, SpanStat};
pub use slo::{SloConfig, SloEngine, SloStatus, WindowStat};
pub use span::{adopt, current_path, now_ns, span, AdoptGuard, SpanGuard, SpanPath};

/// Opens a span: `let _g = span!("epoch");`. Thin macro alias for the
/// [`span`] function, for call sites that prefer the macro form.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Flushes the calling thread's buffers and removes all accumulated
/// observability state from the process, returning it as an [`ObsReport`].
/// The next drain starts from zero — harness binaries that time several
/// runs in one process call `drain()` between them.
///
/// Spans still open on the calling thread are discarded (their guards
/// detect the reset and skip recording); spans open on *other* live
/// threads stay with those threads and surface in a later drain.
pub fn drain() -> ObsReport {
    let mut g = span::take_all();
    let reg = metrics::take_registry();
    let mut events = std::mem::take(&mut g.events);
    events.sort_by_key(Event::ts_ns);
    let spans = report::build_spans(&g);
    ObsReport {
        spans,
        events,
        counters: reg.counters,
        gauges: reg.gauges,
        hists: reg.hists,
        shapes: reg.shapes,
        warns: reg.warns,
    }
}

/// Non-destructive snapshot of the metrics registry (counters, gauges,
/// histograms, shapes) as an [`ObsReport`]. Unlike [`drain`], nothing is
/// reset and no thread buffers are flushed, so span statistics and
/// buffered events are *not* included — this is the live-export path for
/// the serving layer's `/metrics` endpoint, which must scrape repeatedly
/// without zeroing state between scrapes.
pub fn snapshot() -> ObsReport {
    let reg = metrics::clone_registry();
    ObsReport {
        spans: Vec::new(),
        events: Vec::new(),
        counters: reg.counters,
        gauges: reg.gauges,
        hists: reg.hists,
        shapes: reg.shapes,
        warns: reg.warns,
    }
}

/// Drains and writes `OBS_<run>.jsonl` under `dir`, returning the report
/// for further inspection (span-tree printing, assertions). Returns `None`
/// without draining when obs is disabled on the calling thread, so library
/// code can call it unconditionally at exit.
pub fn finish_to(dir: &std::path::Path, run: &str) -> Option<ObsReport> {
    if !enabled() {
        return None;
    }
    let rep = drain();
    let path = dir.join(format!("OBS_{run}.jsonl"));
    if let Err(e) = rep.write_jsonl(&path, run) {
        warn("obs", &format!("failed to write {}: {e}", path.display()));
    }
    Some(rep)
}

/// [`finish_to`] with the conventional `results/` output directory.
pub fn finish(run: &str) -> Option<ObsReport> {
    finish_to(std::path::Path::new("results"), run)
}

/// Serializes unit tests that touch process-global obs state (the force
/// switch, the global span accumulator, the metrics registry).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_combines_spans_events_and_registry() {
        let _serial = test_lock();
        let _ = drain();
        with_obs(true, || {
            {
                let _s = span!("search");
                let _e = span!("epoch");
                series("val_loss", 0, 0.5);
            }
            counter_add("opcache_hits", 2);
        });
        let rep = drain();
        assert!(rep.span("search").is_some());
        let epoch = rep.span("search/epoch").expect("nested path present");
        assert_eq!(epoch.count, 1);
        assert_eq!(rep.counter("opcache_hits"), 2);
        assert_eq!(rep.events.len(), 1);
        let jsonl = rep.to_jsonl("t");
        assert!(jsonl.contains(r#""path":"search/epoch""#));
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let _serial = test_lock();
        let _ = drain();
        with_obs(true, || {
            counter_add("served", 3);
            hist_record("lat_ns", 42.0);
        });
        let snap1 = snapshot();
        assert_eq!(snap1.counter("served"), 3);
        assert_eq!(snap1.hists.get("lat_ns").map(|h| h.count), Some(1));
        // A second snapshot sees the same state; drain still gets it all.
        let snap2 = snapshot();
        assert_eq!(snap2.counter("served"), 3);
        let rep = drain();
        assert_eq!(rep.counter("served"), 3);
        assert!(drain().counters.is_empty());
    }

    #[test]
    fn finish_returns_none_when_disabled() {
        with_obs(false, || {
            assert!(finish("never-written").is_none());
        });
    }

    #[test]
    fn finish_to_writes_parseable_jsonl() {
        let _serial = test_lock();
        let _ = drain();
        let dir = std::env::temp_dir().join(format!("autoac_obs_test_{}", std::process::id()));
        let rep = with_obs(true, || {
            let _s = span!("search");
            drop(_s);
            series("pool_hit_rate", 0, 1.0);
            finish_to(&dir, "unit").expect("enabled → Some")
        });
        assert!(rep.span("search").is_some());
        let text = std::fs::read_to_string(dir.join("OBS_unit.jsonl")).unwrap();
        assert!(text.lines().next().unwrap().contains(r#""type":"meta""#));
        assert!(text.contains("pool_hit_rate"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
