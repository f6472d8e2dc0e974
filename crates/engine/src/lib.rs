//! # ise-engine — concurrent batch solving for calibration scheduling
//!
//! A serving layer over [`ise_sched`]: a fixed worker pool consumes solve
//! requests from a bounded queue, deduplicates work through a sharded LRU
//! result cache, enforces per-request deadlines via the solver's
//! cooperative [`CancelToken`](ise_sched::cancel::CancelToken) hook, and
//! degrades to a greedy (valid, non-approximate) schedule when a deadline
//! expires. The `ise serve` CLI mode wraps [`serve::serve`] around stdin /
//! file JSONL streams.
//!
//! Module map:
//!
//! * [`queue`] — bounded MPMC request queue with blocking or rejecting
//!   backpressure.
//! * [`cache`] — sharded LRU keyed by a canonical hash of
//!   `(instance, options)`, plus a warm-start LP-basis cache keyed on the
//!   job set alone so machine-budget sweeps skip simplex phase 1.
//! * [`metrics`] — atomic counters plus log₂ latency histograms, each
//!   declared once and rendered to JSON and Prometheus text.
//! * [`fallback`] — the infallible greedy schedule used on timeout.
//! * [`engine`] — the worker pool tying the above together, plus the
//!   incremental-session registry (`open`/`delta`/`solve`/`close`
//!   commands over [`ise_session::Session`]).
//! * [`serve`] — JSONL request/response streaming.
//! * [`net`] — the `--listen` TCP frontend: acceptor + per-connection
//!   threads running the [`serve`] loop with connection-scoped sessions,
//!   load shedding, idle timeouts, and graceful drain shutdown.

pub mod cache;
pub mod engine;
pub mod fallback;
pub mod metrics;
pub mod net;
pub mod queue;
pub mod serve;

pub use cache::{basis_key, cache_key, ShardedLru};
pub use engine::{
    status, Backpressure, Engine, EngineConfig, EngineRequest, EngineResponse, ResponseSlot,
    SessionCmd, SessionInfo, SubmitError, GLOBAL_SCOPE, SESSION_ID_BASE,
};
pub use fallback::greedy_fallback;
pub use metrics::{
    prometheus_text, EngineMetrics, MetricsSnapshot, NetMetrics, NetMetricsSnapshot,
};
pub use net::{NetOptions, NetServer, NetSummary};
pub use serve::{serve, serve_with, ServeOptions, ServeSummary, FALLBACK_ID_BASE};
