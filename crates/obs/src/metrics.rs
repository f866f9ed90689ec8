//! Metrics registry (counters / gauges / histograms) and the event buffer
//! (time series + warnings).
//!
//! Counters, gauges and histograms are *registry* state: name-keyed,
//! aggregated in place, exported once at drain. Series points and warnings
//! are *events*: they carry a step/timestamp and are buffered per thread
//! (in the span module's thread state, so one flush path covers both),
//! then ordered by timestamp in the JSONL output.
//!
//! Every recording function is a no-op behind a single [`enabled`] branch
//! — except [`warn`], which always prints to stderr (a dropped checkpoint
//! must be visible even with obs off) and only the *counting* is gated.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::env::enabled;
use crate::hist::Histogram;
use crate::span::{now_ns, push_event};

/// A buffered observability event.
#[derive(Clone, Debug)]
pub enum Event {
    /// One step of a named time series (e.g. per-epoch validation loss).
    /// Multi-valued steps carry one entry per cluster / class / etc.
    Series {
        /// Series name, e.g. `alpha_entropy`.
        name: &'static str,
        /// Step index (epoch number for training series).
        step: u64,
        /// Values recorded at this step.
        values: Vec<f64>,
        /// Nanoseconds since process obs start, for cross-thread ordering.
        ts_ns: u64,
    },
    /// A counted warning (also printed to stderr at emit time).
    Warn {
        /// Subsystem tag, e.g. `ckpt`.
        tag: &'static str,
        /// Human-readable message.
        msg: String,
        /// Nanoseconds since process obs start.
        ts_ns: u64,
    },
}

impl Event {
    /// Timestamp used to order events in the JSONL output.
    pub fn ts_ns(&self) -> u64 {
        match self {
            Event::Series { ts_ns, .. } | Event::Warn { ts_ns, .. } => *ts_ns,
        }
    }
}

/// Key identifying one recorded kernel shape: the op name plus its
/// `[m, k, n, nnz]` dimensions (`nnz` is 0 for dense ops). Shapes in a
/// training loop are highly repetitive — the same layer dims every epoch —
/// so aggregating counts per exact key stays small.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShapeKey {
    /// Kernel op name, e.g. `matmul` or `spmm`.
    pub op: &'static str,
    /// `[m, k, n, nnz]`; unused slots are 0.
    pub dims: [usize; 4],
}

/// Distinct shape keys retained per drain; further *new* shapes are dropped
/// (counted under `kernel.shape_dropped`) to bound memory on adversarial
/// workloads. Existing keys keep counting.
pub const MAX_SHAPE_KEYS: usize = 4096;

#[derive(Clone, Default)]
pub(crate) struct Registry {
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) gauges: BTreeMap<&'static str, f64>,
    pub(crate) hists: BTreeMap<&'static str, Histogram>,
    pub(crate) shapes: BTreeMap<ShapeKey, u64>,
    pub(crate) warns: BTreeMap<&'static str, u64>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Empties the registry, returning its contents (drain-time helper).
pub(crate) fn take_registry() -> Registry {
    std::mem::take(&mut *registry())
}

/// Clones the registry without emptying it (snapshot-time helper): the
/// serving `/metrics` endpoint must be able to export at any moment
/// without resetting counters for the next scrape or for the process-exit
/// drain.
pub(crate) fn clone_registry() -> Registry {
    registry().clone()
}

/// Adds `n` to the counter `name`. Counters only go up between drains.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    *registry().counters.entry(name).or_insert(0) += n;
}

/// Sets the gauge `name` to `v` (last write wins).
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    registry().gauges.insert(name, v);
}

/// Records `v` into the histogram `name`.
#[inline]
pub fn hist_record(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    registry().hists.entry(name).or_default().record(v);
}

/// Records `v` into the histogram `name` with a trace-id exemplar: the
/// value lands in the buckets exactly as [`hist_record`] would place it
/// (bitwise-identical aggregates), and when `trace_id != 0` the
/// recording is additionally retained as an [`crate::Exemplar`] if it is
/// among the histogram's largest — so `/metrics` tail buckets carry a
/// concrete request id to look up in `/debug/traces`.
#[inline]
pub fn hist_record_ex(name: &'static str, v: f64, trace_id: u64) {
    if !enabled() {
        return;
    }
    let ts = now_ns();
    registry().hists.entry(name).or_default().record_exemplar(v, trace_id, ts);
}

/// Records one execution of a kernel with the given shape. Aggregated per
/// exact `(op, dims)` key and exported as `"type":"shape"` JSONL records.
/// The matmul-family entry points emit one per call; the benchmark reads
/// them to compute each kernel's GFLOP/s, bytes/s and roofline fraction.
/// No tuner replays them: every op runs one kernel.
#[inline]
pub fn shape_record(op: &'static str, dims: [usize; 4]) {
    if !enabled() {
        return;
    }
    let mut reg = registry();
    let key = ShapeKey { op, dims };
    if reg.shapes.len() >= MAX_SHAPE_KEYS && !reg.shapes.contains_key(&key) {
        *reg.counters.entry("kernel.shape_dropped").or_insert(0) += 1;
        return;
    }
    *reg.shapes.entry(key).or_insert(0) += 1;
}

/// Records a single-valued time-series point.
#[inline]
pub fn series(name: &'static str, step: u64, value: f64) {
    if !enabled() {
        return;
    }
    push_event(Event::Series { name, step, values: vec![value], ts_ns: now_ns() });
}

/// Records a multi-valued time-series point (one value per cluster, class,
/// …) — the shape of the Fig. 4/5 trajectory data.
#[inline]
pub fn series_vec(name: &'static str, step: u64, values: &[f64]) {
    if !enabled() {
        return;
    }
    push_event(Event::Series { name, step, values: values.to_vec(), ts_ns: now_ns() });
}

/// Emits a warning: always printed to stderr (this is the sanctioned
/// routing for what used to be bare `eprintln!` in library crates — the
/// `eprintln-in-lib` lint points here), and, when obs is enabled,
/// additionally buffered as a [`Event::Warn`] and counted under
/// `warnings_total` so run summaries surface it.
pub fn warn(tag: &'static str, msg: &str) {
    eprintln!("autoac-{tag}: {msg}");
    // The flight recorder is its own always-on system (gated only by
    // AUTOAC_FLIGHT): a warning must survive into a post-mortem dump even
    // when the metrics registry is off.
    crate::flight::flight_record(
        crate::flight::FlightKind::Warn,
        0,
        0,
        &format!("{tag}: {msg}"),
    );
    if !enabled() {
        return;
    }
    let mut reg = registry();
    *reg.counters.entry("warnings_total").or_insert(0) += 1;
    *reg.warns.entry(tag).or_insert(0) += 1;
    drop(reg);
    push_event(Event::Warn { tag, msg: msg.to_string(), ts_ns: now_ns() });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::with_obs;

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _serial = crate::test_lock();
        let _ = crate::drain();
        with_obs(false, || {
            counter_add("c", 5);
            gauge_set("g", 1.0);
            hist_record("h", 2.0);
            series("s", 0, 1.0);
        });
        let rep = crate::drain();
        assert_eq!(rep.counter("c"), 0);
        assert!(rep.gauges.is_empty() && rep.hists.is_empty() && rep.events.is_empty());
    }

    #[test]
    fn registry_aggregates_and_drains() {
        let _serial = crate::test_lock();
        let _ = crate::drain();
        with_obs(true, || {
            counter_add("hits", 2);
            counter_add("hits", 3);
            gauge_set("rate", 0.25);
            gauge_set("rate", 0.75);
            hist_record("lat", 3.0);
            series_vec("ent", 7, &[0.1, 0.2]);
        });
        let rep = crate::drain();
        assert_eq!(rep.counter("hits"), 5);
        assert_eq!(rep.gauges.get("rate"), Some(&0.75));
        let h = rep.hists.get("lat").expect("histogram present");
        assert_eq!((h.count, h.min, h.max), (1, 3.0, 3.0));
        match &rep.events[..] {
            [Event::Series { name, step, values, .. }] => {
                assert_eq!((*name, *step), ("ent", 7));
                assert_eq!(values, &[0.1, 0.2]);
            }
            other => panic!("expected one series event, got {other:?}"),
        }
        // Second drain is empty: drain removes what it returns.
        let rep2 = crate::drain();
        assert_eq!(rep2.counter("hits"), 0);
        assert!(rep2.events.is_empty());
    }

    #[test]
    fn shape_record_aggregates_per_exact_key() {
        let _serial = crate::test_lock();
        let _ = crate::drain();
        with_obs(true, || {
            shape_record("matmul", [128, 64, 32, 0]);
            shape_record("matmul", [128, 64, 32, 0]);
            shape_record("spmm", [128, 128, 32, 900]);
        });
        with_obs(false, || shape_record("matmul", [1, 1, 1, 0]));
        let rep = crate::drain();
        assert_eq!(rep.shapes.len(), 2);
        assert_eq!(
            rep.shapes.get(&ShapeKey { op: "matmul", dims: [128, 64, 32, 0] }),
            Some(&2)
        );
        assert_eq!(
            rep.shapes.get(&ShapeKey { op: "spmm", dims: [128, 128, 32, 900] }),
            Some(&1)
        );
    }

    #[test]
    fn warn_counts_only_when_enabled() {
        let _serial = crate::test_lock();
        let _ = crate::drain();
        with_obs(false, || warn("test", "invisible to the registry"));
        with_obs(true, || warn("test", "counted"));
        let rep = crate::drain();
        assert_eq!(rep.counter("warnings_total"), 1);
        assert_eq!(rep.events.len(), 1);
        assert_eq!(rep.warns.get("test"), Some(&1), "per-tag count follows the gate");
    }

    #[test]
    fn warns_aggregate_per_tag() {
        let _serial = crate::test_lock();
        let _ = crate::drain();
        with_obs(true, || {
            warn("ckpt", "a");
            warn("ckpt", "b");
            warn("serve", "c");
        });
        let rep = crate::drain();
        assert_eq!(rep.counter("warnings_total"), 3);
        assert_eq!(rep.warns.get("ckpt"), Some(&2));
        assert_eq!(rep.warns.get("serve"), Some(&1));
    }

    #[test]
    fn hist_record_ex_matches_plain_record_population() {
        let _serial = crate::test_lock();
        let _ = crate::drain();
        with_obs(true, || {
            hist_record("plain", 5.0);
            hist_record_ex("traced", 5.0, 0xabc);
            hist_record_ex("traced", 9.0, 0); // untraced recording
        });
        let rep = crate::drain();
        let plain = rep.hists.get("plain").expect("plain");
        let traced = rep.hists.get("traced").expect("traced");
        assert_eq!(traced.count, 2);
        assert_eq!(plain.buckets, {
            let mut b = traced.buckets;
            // Remove the second recording's bucket to compare the first.
            b[crate::bucket_index(9.0)] -= 1;
            b
        });
        let ex: Vec<_> = traced.exemplars().collect();
        assert_eq!(ex.len(), 1, "only the traced recording leaves an exemplar");
        assert_eq!(ex[0].trace_id, 0xabc);
    }
}
