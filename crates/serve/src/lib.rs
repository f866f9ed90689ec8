//! # autoac-serve
//!
//! Online attribute-completion and inference serving for trained AutoAC
//! models: a zero-dependency HTTP/1.1 server over `std::net` with a
//! fixed worker pool, a model thread that answers classify requests from
//! logits computed once per checkpoint, and atomic checkpoint hot-reload.
//!
//! ## Endpoints
//!
//! | route              | method | purpose                                        |
//! |--------------------|--------|------------------------------------------------|
//! | `/v1/classify`     | POST   | node ids → logits + argmax labels (batched)    |
//! | `/v1/attrs`        | POST   | node ids → completed attribute rows            |
//! | `/healthz`         | GET    | liveness + loaded-checkpoint identity          |
//! | `/metrics`         | GET    | Prometheus exposition text (obs registry, SLO gauges, exemplars) |
//! | `/slo`             | GET    | burn-rate SLO status (fast + slow windows)     |
//! | `/debug/traces`    | GET    | slowest request timelines as JSON              |
//! | `/admin/reload`    | POST   | hot-swap to a new checkpoint (same graph only) |
//! | `/admin/shutdown`  | POST   | graceful shutdown                              |
//! | `/admin/flight`    | POST   | dump the flight-recorder ring to disk          |
//!
//! ## Determinism contract
//!
//! Every classify response is **bitwise-identical** whether the request
//! was answered alone or coalesced into a batch, and across restarts on
//! the same checkpoint. Each loaded checkpoint runs exactly one
//! full-graph forward, before it starts serving: it reads a materialized
//! constant attribute block under an RNG seeded from the checkpoint's
//! `infer_seed`, so its logits are a pure function of (checkpoint, node
//! id). Every classify copies its rows out of that one block.
//! `serve_bench` and the integration tests diff response digests
//! batched-vs-unbatched, and `/metrics` counts the forwards
//! (`autoac_serve_forward_ns_count`, one per loaded checkpoint).
//!
//! ```no_run
//! use autoac_core::{train_serve_state, ServeTrainSpec};
//! use autoac_serve::{Client, ServeConfig, Server};
//!
//! let (state, _) = train_serve_state(&ServeTrainSpec::default()).unwrap();
//! let server = Server::start(state, &ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client.post("/v1/classify", r#"{"nodes":[0,1,2]}"#).unwrap();
//! println!("{}", reply.text());
//! server.stop();
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod client;
pub mod host;
pub mod http;
pub mod server;
pub mod trace;

pub use batch::{BatchConfig, ClassifyReply, Job, JobTiming, NodeScore};

/// Serializes unit tests that touch process-global trace state (the
/// `set_trace_force` switch shared by every test thread).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
pub use client::{Client, Response};
pub use host::{current_view, ModelHost, SharedView, ViewSlot};
pub use server::{signals, ServeConfig, Server, ServerHandle, MAX_NODES_PER_REQUEST};
pub use trace::{
    set_trace_force, tracing_enabled, Timeline, TraceIds, TraceStore, TRACE_STORE_CAPACITY,
};
