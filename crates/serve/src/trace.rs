//! Request-scoped tracing: trace-id minting, per-request stage timelines,
//! and the bounded in-memory store behind `GET /debug/traces`.
//!
//! Tracing is always on: every request gets a 64-bit trace id once it is
//! parsed, stamped from its first byte (see [`TraceIds::mint`]). The id
//! stays with the request on its worker, and the model thread's stage
//! timings ride back to it on the reply; the completed [`Timeline`] —
//! accept → parse → queue-wait → batch-wait → compute → write — is
//! echoed back to the client in the `x-autoac-trace` response header,
//! attached as an exemplar to the serving latency histograms, and
//! retained in a fixed-capacity [`TraceStore`] ordered ring for
//! `/debug/traces`.
//!
//! ## Determinism contract
//!
//! Ids come from `splitmix64` over a config-supplied seed plus a
//! process-local counter — pure arithmetic, no OS entropy, no wall
//! clock — so tracing never perturbs model RNG streams or response
//! *bodies*; the header and these side tables are all it adds.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Completed request timelines retained for `/debug/traces` (oldest
/// evicted first).
pub const TRACE_STORE_CAPACITY: usize = 256;

/// `splitmix64` finalizer: the standard 64-bit avalanche used to spread a
/// sequential counter into well-distributed ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Trace-id mint: a seeded counter pushed through [`splitmix64`].
/// `trace_id == 0` is reserved to mean *no request* throughout the stack
/// (flight events and exemplars not tied to one), so the mint never
/// returns 0.
#[derive(Debug)]
pub struct TraceIds {
    seed: u64,
    counter: AtomicU64,
}

impl TraceIds {
    /// A mint whose id sequence is a pure function of `seed`.
    pub fn new(seed: u64) -> TraceIds {
        TraceIds { seed, counter: AtomicU64::new(0) }
    }

    /// Next trace id (never 0).
    pub fn mint(&self) -> u64 {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(self.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if id == 0 {
            1
        } else {
            id
        }
    }
}

/// Per-request stage timeline, all durations in nanoseconds on the
/// process-wide `autoac_obs::now_ns` clock.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// The request's trace id (never 0).
    pub trace_id: u64,
    /// `now_ns()` when the request's first byte was accepted.
    pub t0_ns: u64,
    /// HTTP method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Node count for classify/attrs requests, 0 otherwise.
    pub nodes: usize,
    /// Size of the micro-batch this request was answered in (0 when the
    /// request never reached the model thread).
    pub batch_size: usize,
    /// First byte → request fully parsed.
    pub parse_ns: u64,
    /// Enqueue → dequeued by the model thread.
    pub queue_ns: u64,
    /// Dequeued → the batch's row copies started (coalescing wait).
    pub batch_wait_ns: u64,
    /// Copying the batch's rows out of the resident logits block.
    pub compute_ns: u64,
    /// Response serialization + socket write.
    pub write_ns: u64,
    /// First byte → response written.
    pub total_ns: u64,
}

impl Timeline {
    /// Serializes as one JSON object (the `/debug/traces` element shape).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"trace_id\":\"{:016x}\",\"t0_ns\":{},\"method\":{},\"path\":{},",
                "\"status\":{},\"nodes\":{},\"batch_size\":{},\"parse_ns\":{},",
                "\"queue_ns\":{},\"batch_wait_ns\":{},\"compute_ns\":{},",
                "\"write_ns\":{},\"total_ns\":{}}}"
            ),
            self.trace_id,
            self.t0_ns,
            autoac_data::json::to_string(&autoac_data::json::Value::Str(self.method.clone())),
            autoac_data::json::to_string(&autoac_data::json::Value::Str(self.path.clone())),
            self.status,
            self.nodes,
            self.batch_size,
            self.parse_ns,
            self.queue_ns,
            self.batch_wait_ns,
            self.compute_ns,
            self.write_ns,
            self.total_ns,
        )
    }
}

/// Fixed-capacity store of completed [`Timeline`]s (insertion-ordered,
/// oldest evicted) shared by the workers and `/debug/traces`.
#[derive(Debug, Default)]
pub struct TraceStore {
    inner: Mutex<VecDeque<Timeline>>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// Retains `t`, evicting the oldest stored timeline at capacity.
    pub fn push(&self, t: Timeline) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if g.len() >= TRACE_STORE_CAPACITY {
            g.pop_front();
        }
        g.push_back(t);
    }

    /// Number of retained timelines.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether no timeline has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `n` slowest retained timelines by `total_ns`, slowest first —
    /// the `/debug/traces` payload.
    pub fn slowest(&self, n: usize) -> Vec<Timeline> {
        let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut all: Vec<Timeline> = g.iter().cloned().collect();
        drop(g);
        all.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.trace_id.cmp(&b.trace_id)));
        all.truncate(n);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_deterministic_nonzero_and_distinct() {
        let a = TraceIds::new(42);
        let b = TraceIds::new(42);
        let ids: Vec<u64> = (0..1000).map(|_| a.mint()).collect();
        let ids2: Vec<u64> = (0..1000).map(|_| b.mint()).collect();
        assert_eq!(ids, ids2, "same seed → same id stream");
        assert!(ids.iter().all(|&i| i != 0));
        let set: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len(), "no collisions in a short stream");
        let c = TraceIds::new(43);
        assert_ne!(a.mint(), c.mint(), "different seeds diverge");
    }

    #[test]
    fn store_evicts_oldest_and_ranks_by_total() {
        let store = TraceStore::new();
        for i in 0..(TRACE_STORE_CAPACITY + 10) {
            store.push(Timeline {
                trace_id: i as u64 + 1,
                total_ns: i as u64,
                ..Timeline::default()
            });
        }
        assert_eq!(store.len(), TRACE_STORE_CAPACITY);
        let top = store.slowest(3);
        let totals: Vec<u64> = top.iter().map(|t| t.total_ns).collect();
        let newest = (TRACE_STORE_CAPACITY + 9) as u64;
        assert_eq!(totals, vec![newest, newest - 1, newest - 2]);
        // The 10 oldest were evicted.
        let all = store.slowest(usize::MAX);
        assert!(all.iter().all(|t| t.total_ns >= 10));
    }

    #[test]
    fn timeline_json_is_parseable_by_the_strict_parser() {
        let t = Timeline {
            trace_id: 0xdead_beef,
            t0_ns: 5,
            method: "POST".into(),
            path: "/v1/\"classify\"".into(),
            status: 200,
            nodes: 3,
            batch_size: 2,
            parse_ns: 1,
            queue_ns: 2,
            batch_wait_ns: 3,
            compute_ns: 4,
            write_ns: 5,
            total_ns: 15,
        };
        let v = autoac_data::json::parse(&t.to_json()).expect("valid JSON");
        assert_eq!(v.get("trace_id").and_then(|x| x.as_str()), Some("00000000deadbeef"));
        assert_eq!(v.get("total_ns").and_then(|x| x.as_f64()), Some(15.0));
        assert_eq!(v.get("path").and_then(|x| x.as_str()), Some("/v1/\"classify\""));
    }
}
