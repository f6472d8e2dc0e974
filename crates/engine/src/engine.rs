//! The worker pool: accepts [`EngineRequest`]s, runs them on a fixed set
//! of threads, caches results, enforces per-request deadlines, and
//! degrades to the greedy fallback when a deadline expires.
//!
//! Lifecycle: [`Engine::new`] spawns the workers; [`Engine::submit`]
//! enqueues a request and returns a [`ResponseSlot`] the caller waits on;
//! [`Engine::shutdown`] (also run on drop) closes the queue, lets workers
//! drain it, and joins them.

use crate::cache::{basis_key, cache_key, ShardedLru};
use crate::fallback::greedy_fallback_trimmed;
use crate::metrics::{inc, EngineMetrics, MetricsSnapshot};
use crate::queue::{BoundedQueue, PushError};
use ise_model::{Instance, Schedule};
use ise_obs::PhaseTimings;
use ise_sched::cancel::CancelToken;
use ise_sched::{solve_with_speed, LpTelemetry, MmBackend, SchedError, SolverOptions};
use ise_session::{DeltaMsg, Session, SessionError, SessionTelemetry, Verdict};
use ise_simplex::Basis;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a producer does when the request queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backpressure {
    /// Wait for a free slot (default).
    #[default]
    Block,
    /// Fail the submit with [`SubmitError::QueueFull`].
    Reject,
}

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads.
    pub workers: usize,
    /// Bounded request-queue capacity.
    pub queue_capacity: usize,
    /// Result-cache capacity (entries, across all shards).
    pub cache_capacity: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Behavior when the queue is full.
    pub backpressure: Backpressure,
    /// Deadline applied to requests that do not carry their own
    /// `timeout_ms`. `None` means no deadline.
    pub default_timeout: Option<Duration>,
    /// Rescue timed-out solves with the greedy fallback instead of
    /// returning a timeout error.
    pub fallback_on_timeout: bool,
    /// Run every request under a per-request [`ise_obs::Trace`] and attach
    /// the drained per-phase timings to the response (`phases` field).
    pub trace_phases: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 1024,
            cache_shards: 8,
            backpressure: Backpressure::Block,
            default_timeout: None,
            fallback_on_timeout: true,
            trace_phases: true,
        }
    }
}

/// One solve request, as carried on the wire (JSONL) and in the queue.
#[derive(Clone, Debug, Deserialize)]
pub struct EngineRequest {
    /// Caller-chosen correlation id, echoed in the response. Defaults to
    /// the request's position when omitted in a JSONL stream.
    pub id: Option<u64>,
    /// The instance to solve. Required for plain solve requests and for
    /// the `open` session command; other session commands omit it.
    pub instance: Option<Instance>,
    /// Per-request deadline in milliseconds; overrides the engine default.
    pub timeout_ms: Option<u64>,
    /// MM backend name (`auto`, `exact`, `greedy`, `unit`, `lp-round`,
    /// `portfolio`); engine default is `auto`.
    pub mm: Option<String>,
    /// Trim empty calibrations from the result.
    pub trim: Option<bool>,
    /// Speed augmentation factor (`>= 1`); default 1.
    pub speed: Option<i64>,
    /// Session command (`open`/`delta`/`solve`/`close`); a request that
    /// carries one is routed to the session registry instead of the
    /// worker pool.
    pub session: Option<SessionCmd>,
}

impl EngineRequest {
    /// A plain request for `instance` with engine defaults.
    pub fn new(instance: Instance) -> EngineRequest {
        EngineRequest {
            id: None,
            instance: Some(instance),
            timeout_ms: None,
            mm: None,
            trim: None,
            speed: None,
            session: None,
        }
    }
}

/// One session command, as carried on the wire: `{"session": {"op":
/// "open"}, "instance": {...}}` opens a session (the response carries the
/// assigned `sid`); `{"session": {"op": "delta", "sid": N, "delta":
/// {...}}}` stages a typed delta; `{"session": {"op": "solve", "sid": N}}`
/// commits the staged deltas and solves incrementally; `{"session": {"op":
/// "close", "sid": N}}` discards the session.
#[derive(Clone, Debug, Default, Deserialize)]
pub struct SessionCmd {
    /// `open`, `delta`, `solve`, or `close`.
    pub op: String,
    /// Target session id (from the `open` response); required for every op
    /// but `open`.
    pub sid: Option<u64>,
    /// The delta to stage, for the `delta` op (see
    /// [`ise_session::DeltaMsg`] for the format).
    pub delta: Option<DeltaMsg>,
}

/// Session state echoed in session-command responses.
#[derive(Clone, Debug, Serialize)]
pub struct SessionInfo {
    /// The session id ([`SESSION_ID_BASE`]-namespaced).
    pub sid: u64,
    /// The command this response answers.
    pub op: String,
    /// Staged (uncommitted) deltas after the command.
    pub staged: u64,
    /// Commits performed so far.
    pub commits: u64,
    /// Per-commit reuse telemetry (`solve` responses only).
    pub telemetry: Option<SessionTelemetry>,
}

/// Response status values (`status` field of [`EngineResponse`]).
pub mod status {
    /// Solved by the full pipeline (possibly from cache).
    pub const OK: &str = "ok";
    /// Deadline expired; the greedy fallback produced the schedule.
    pub const FALLBACK: &str = "fallback";
    /// No schedule: solver error, timeout with fallback disabled, or
    /// rejected submit.
    pub const ERROR: &str = "error";
    /// Session `solve` only: the materialized instance is certifiably
    /// infeasible. The commit still advanced the session.
    pub const INFEASIBLE: &str = "infeasible";
}

/// Session scope of streams that are not connection-pinned (the stdin /
/// file serve path and direct [`Engine::session_command`] callers).
/// Sessions opened under the global scope are never force-closed by
/// [`Engine::close_scope`].
pub const GLOBAL_SCOPE: u64 = 0;

/// First session id the engine assigns (`2^62`). Session ids live in
/// `[2^62, 2^63)` — disjoint from both explicit request ids (`< 2^63` but
/// chosen by callers, who should stay below this too only if they want to
/// avoid confusion; the engine never collides sids with request ids
/// because sids are a separate field) and the serve fallback-id range
/// (`>= 2^63`).
pub const SESSION_ID_BASE: u64 = 1 << 62;

/// One solve response, as written to the JSONL output.
#[derive(Clone, Debug, Serialize)]
pub struct EngineResponse {
    /// Echo of the request id.
    pub id: u64,
    /// `"ok"`, `"fallback"`, or `"error"` (see [`status`]).
    pub status: String,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Whether the solve hit its deadline (true for fallback and
    /// timeout-error responses).
    pub timed_out: bool,
    /// Calibration count of the schedule, when one exists.
    pub calibrations: Option<u64>,
    /// The schedule, when one exists.
    pub schedule: Option<Schedule>,
    /// Error message for `"error"` responses.
    pub error: Option<String>,
    /// Wall-clock microseconds spent producing this response (0 for cache
    /// hits).
    pub solve_us: u64,
    /// LP-solver telemetry (iterations, refactorizations, build/solve
    /// wall-time, warm-start flag), when the long-window pipeline ran.
    pub lp: Option<LpTelemetry>,
    /// Per-phase wall-time breakdown (queue wait, cache probe, solver
    /// phases), when [`EngineConfig::trace_phases`] is on.
    pub phases: Option<PhaseTimings>,
    /// Session state, for responses to session commands.
    pub session: Option<SessionInfo>,
}

impl EngineResponse {
    /// A response with only `id` and `status` set; callers fill in the
    /// fields that apply.
    pub(crate) fn new(id: u64, status: &str) -> EngineResponse {
        EngineResponse {
            id,
            status: status.to_string(),
            cached: false,
            timed_out: false,
            calibrations: None,
            schedule: None,
            error: None,
            solve_us: 0,
            lp: None,
            phases: None,
            session: None,
        }
    }
}

/// Why [`Engine::submit`] refused a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// `Reject` backpressure and the queue is at capacity.
    QueueFull,
    /// The engine is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "request queue full"),
            SubmitError::ShuttingDown => write!(f, "engine shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One-shot slot the engine fills with the response.
#[derive(Clone)]
pub struct ResponseSlot {
    inner: Arc<(Mutex<Option<EngineResponse>>, Condvar)>,
}

impl ResponseSlot {
    fn new() -> ResponseSlot {
        ResponseSlot {
            inner: Arc::new((Mutex::new(None), Condvar::new())),
        }
    }

    fn fill(&self, response: EngineResponse) {
        let (lock, cv) = &*self.inner;
        *lock.lock().unwrap() = Some(response);
        cv.notify_all();
    }

    /// Block until the response arrives.
    pub fn wait(&self) -> EngineResponse {
        let (lock, cv) = &*self.inner;
        let mut guard = lock.lock().unwrap();
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = cv.wait(guard).unwrap();
        }
    }
}

struct QueuedJob {
    request: EngineRequest,
    id: u64,
    slot: ResponseSlot,
    enqueued: Instant,
}

struct Shared {
    queue: BoundedQueue<QueuedJob>,
    cache: ShardedLru<CachedSolve>,
    /// Warm-start bases keyed by [`basis_key`] (jobs + calibration
    /// length + speed, *not* machines), so duplicate-shaped requests,
    /// including machine-budget sweeps over one job set, skip simplex
    /// phase 1.
    bases: ShardedLru<Basis>,
    metrics: EngineMetrics,
    config: EngineConfig,
}

struct CachedSolve {
    schedule: Schedule,
    calibrations: usize,
    lp: Option<LpTelemetry>,
}

/// The batch-solving engine. See the module docs for the lifecycle.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: std::sync::atomic::AtomicU64,
    /// Open incremental sessions, keyed by sid. Session commands run on
    /// the caller's thread (they are ordered stream state, not pooled
    /// work), serialized by this lock.
    sessions: Mutex<HashMap<u64, ScopedSession>>,
    next_session: std::sync::atomic::AtomicU64,
    next_scope: std::sync::atomic::AtomicU64,
}

/// A session plus the scope (connection) that owns it. Sessions are
/// pinned: commands from another scope are refused, and closing the
/// scope force-closes the session.
struct ScopedSession {
    session: Session,
    scope: u64,
}

impl Engine {
    /// Spawn `config.workers` worker threads and return the handle.
    pub fn new(config: EngineConfig) -> Engine {
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity.max(1)),
            cache: ShardedLru::new(config.cache_capacity.max(1), config.cache_shards),
            bases: ShardedLru::new(config.cache_capacity.max(1), config.cache_shards),
            metrics: EngineMetrics::default(),
            config: config.clone(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ise-engine-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine {
            shared,
            workers,
            next_id: std::sync::atomic::AtomicU64::new(0),
            sessions: Mutex::new(HashMap::new()),
            next_session: std::sync::atomic::AtomicU64::new(0),
            next_scope: std::sync::atomic::AtomicU64::new(GLOBAL_SCOPE + 1),
        }
    }

    /// Submit a request. Returns a slot that will receive the response;
    /// blocks or rejects on a full queue per the configured backpressure.
    pub fn submit(&self, request: EngineRequest) -> Result<ResponseSlot, SubmitError> {
        let id = request.id.unwrap_or_else(|| {
            self.next_id
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        });
        let slot = ResponseSlot::new();
        let job = QueuedJob {
            id,
            request,
            slot: slot.clone(),
            enqueued: Instant::now(),
        };
        let pushed = match self.shared.config.backpressure {
            Backpressure::Block => self.shared.queue.push_blocking(job),
            Backpressure::Reject => self.shared.queue.try_push(job),
        };
        match pushed {
            Ok(()) => {
                inc(&self.shared.metrics.requests);
                Ok(slot)
            }
            Err((_, PushError::Full)) => {
                inc(&self.shared.metrics.rejected);
                Err(SubmitError::QueueFull)
            }
            Err((_, PushError::Closed)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Live metrics counters, with the gauges (`cache_evictions`,
    /// `basis_cache_entries`, `sessions_open`) first sampled from live
    /// engine state.
    pub fn metrics(&self) -> MetricsSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        let shared = &self.shared;
        let evictions = shared.cache.evictions() + shared.bases.evictions();
        let entries = shared.bases.len() as u64;
        let sessions = self.lock_sessions().len() as u64;
        let m = &shared.metrics;
        m.cache_evictions.store(evictions, Relaxed);
        m.basis_cache_entries.store(entries, Relaxed);
        m.sessions_open.store(sessions, Relaxed);
        m.snapshot()
    }

    /// Lock the session registry, recovering from poisoning. Sessions are
    /// transactional (a failed or panicking commit rolls back), so a
    /// poisoned lock does not imply corrupt sessions — recovery just
    /// clears the flag and keeps them.
    fn lock_sessions(&self) -> std::sync::MutexGuard<'_, HashMap<u64, ScopedSession>> {
        match self.sessions.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.sessions.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Allocate a fresh session scope. Network connections call this once
    /// on accept; sessions they open are pinned to the scope and reaped by
    /// [`Engine::close_scope`] on disconnect.
    pub fn new_scope(&self) -> u64 {
        self.next_scope
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Force-close every session owned by `scope`, returning how many were
    /// closed. A no-op for [`GLOBAL_SCOPE`]: globally-scoped sessions have
    /// no connection to die with.
    pub fn close_scope(&self, scope: u64) -> usize {
        if scope == GLOBAL_SCOPE {
            return 0;
        }
        let mut sessions = self.lock_sessions();
        let before = sessions.len();
        sessions.retain(|_, s| s.scope != scope);
        before - sessions.len()
    }

    /// [`Engine::session_command_scoped`] under the global scope.
    pub fn session_command(&self, id: u64, request: &EngineRequest) -> EngineResponse {
        self.session_command_scoped(id, request, GLOBAL_SCOPE)
    }

    /// Execute a session command (`open`/`delta`/`solve`/`close`) on the
    /// calling thread. Session state is ordered — a delta must precede the
    /// solve that should see it — so these commands bypass the worker pool
    /// and run synchronously. Sessions opened under `scope` belong to it:
    /// commands naming a sid owned by a different scope get an error
    /// response, so one TCP connection can never read or mutate another
    /// connection's session state.
    pub fn session_command_scoped(
        &self,
        id: u64,
        request: &EngineRequest,
        scope: u64,
    ) -> EngineResponse {
        let error = |message: String, session: Option<SessionInfo>| {
            inc(&self.shared.metrics.errors);
            EngineResponse {
                error: Some(message),
                ..session_response(id, status::ERROR, session)
            }
        };
        let Some(cmd) = &request.session else {
            return error("not a session request".to_string(), None);
        };
        let info = |sid: u64, session: &Session| SessionInfo {
            sid,
            op: cmd.op.clone(),
            staged: session.staged() as u64,
            commits: session.commits() as u64,
            telemetry: None,
        };
        match cmd.op.as_str() {
            "open" => {
                let Some(instance) = &request.instance else {
                    return error("session open requires `instance`".to_string(), None);
                };
                if request.speed.is_some_and(|s| s != 1) {
                    return error(
                        "sessions solve at speed 1; `speed` is not supported".to_string(),
                        None,
                    );
                }
                let mm = match parse_backend(request.mm.as_deref().unwrap_or("auto")) {
                    Ok(mm) => mm,
                    Err(message) => return error(message, None),
                };
                let opts = SolverOptions {
                    mm,
                    trim_empty_calibrations: request.trim.unwrap_or(false),
                    ..SolverOptions::default()
                };
                let sid = SESSION_ID_BASE
                    + self
                        .next_session
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let session = Session::with_options(instance.clone(), opts);
                let i = info(sid, &session);
                self.lock_sessions()
                    .insert(sid, ScopedSession { session, scope });
                session_response(id, status::OK, Some(i))
            }
            "delta" => {
                let Some(sid) = cmd.sid else {
                    return error("session delta requires `sid`".to_string(), None);
                };
                let Some(msg) = &cmd.delta else {
                    return error("session delta requires `delta`".to_string(), None);
                };
                let delta = match msg.decode() {
                    Ok(d) => d,
                    Err(e) => return error(e.to_string(), None),
                };
                let mut sessions = self.lock_sessions();
                let Some(entry) = sessions.get_mut(&sid) else {
                    return error(format!("unknown session id {sid}"), None);
                };
                if entry.scope != scope {
                    return error(
                        format!("session {sid} is pinned to another connection"),
                        None,
                    );
                }
                let session = &mut entry.session;
                match session.apply(&delta) {
                    Ok(()) => {
                        let i = info(sid, session);
                        session_response(id, status::OK, Some(i))
                    }
                    Err(e) => {
                        let i = info(sid, session);
                        error(e.to_string(), Some(i))
                    }
                }
            }
            "solve" => {
                let Some(sid) = cmd.sid else {
                    return error("session solve requires `sid`".to_string(), None);
                };
                let mut sessions = self.lock_sessions();
                let Some(entry) = sessions.get_mut(&sid) else {
                    return error(format!("unknown session id {sid}"), None);
                };
                if entry.scope != scope {
                    return error(
                        format!("session {sid} is pinned to another connection"),
                        None,
                    );
                }
                let session = &mut entry.session;
                match session.commit() {
                    Ok(commit) => {
                        let tier_counter = match commit.telemetry.tier {
                            ise_session::ReuseTier::Basis => {
                                &self.shared.metrics.session_reuse_basis
                            }
                            ise_session::ReuseTier::Warm => &self.shared.metrics.session_reuse_warm,
                            ise_session::ReuseTier::Cold => &self.shared.metrics.session_reuse_cold,
                        };
                        inc(tier_counter);
                        self.shared
                            .metrics
                            .solve_time
                            .record(Duration::from_micros(commit.telemetry.solve_us));
                        let mut i = info(sid, session);
                        let solve_us = commit.telemetry.solve_us;
                        i.telemetry = Some(commit.telemetry);
                        let mut r = match commit.verdict {
                            Verdict::Feasible { report, schedule } => {
                                let mut r = session_response(id, status::OK, Some(i));
                                r.calibrations = Some(report.stats.calibrations as u64);
                                if let Some(t) = &report.lp {
                                    record_lp_numerics(&self.shared.metrics, t);
                                }
                                r.lp = report.lp;
                                r.schedule = Some(schedule);
                                r
                            }
                            Verdict::Infeasible { reason } => {
                                let mut r = session_response(id, status::INFEASIBLE, Some(i));
                                r.error = Some(reason);
                                r
                            }
                        };
                        r.solve_us = solve_us;
                        r
                    }
                    Err(e @ SessionError::InvalidDelta(_))
                    | Err(e @ SessionError::Solve(_))
                    | Err(e @ SessionError::SolvePanicked) => {
                        let i = info(sid, session);
                        error(e.to_string(), Some(i))
                    }
                }
            }
            "close" => {
                let Some(sid) = cmd.sid else {
                    return error("session close requires `sid`".to_string(), None);
                };
                let mut sessions = self.lock_sessions();
                match sessions.get(&sid) {
                    Some(entry) if entry.scope != scope => error(
                        format!("session {sid} is pinned to another connection"),
                        None,
                    ),
                    Some(_) => {
                        let entry = sessions.remove(&sid).expect("present above");
                        let i = info(sid, &entry.session);
                        session_response(id, status::OK, Some(i))
                    }
                    None => error(format!("unknown session id {sid}"), None),
                }
            }
            other => error(
                format!("unknown session op `{other}` (expected open, delta, solve, or close)"),
                None,
            ),
        }
    }

    /// Record time spent serializing a response on behalf of the caller
    /// (the serve loop, which owns the writer side the engine never sees).
    pub fn record_serialize_time(&self, d: Duration) {
        self.shared.metrics.serialize_time.record(d);
    }

    /// Close the queue, drain outstanding requests, and join the workers.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let wait = job.enqueued.elapsed();
        shared.metrics.queue_wait.record(wait);
        let trace = shared
            .config
            .trace_phases
            .then(|| ise_obs::Trace::new(TRACE_CAPACITY));
        let mut response = {
            let _guard = trace.as_ref().map(ise_obs::Trace::install);
            ise_obs::Span::record("engine.queue_wait", wait);
            handle_request(shared, job.id, &job.request)
        };
        if let Some(trace) = trace {
            let phases = PhaseTimings::from_records(&trace.drain());
            if !phases.is_empty() {
                response.phases = Some(phases);
            }
        }
        inc(&shared.metrics.completed);
        job.slot.fill(response);
    }
}

/// Span capacity of a per-request trace. One request emits a handful of
/// engine spans plus the solver-phase spans — well under this; overflow
/// just drops spans rather than blocking a worker.
const TRACE_CAPACITY: usize = 256;

fn parse_backend(name: &str) -> Result<MmBackend, String> {
    name.parse::<MmBackend>()
        .map_err(|()| format!("unknown mm backend {name:?}"))
}

/// Skeleton response for session commands; callers fill in the
/// command-specific fields.
fn session_response(id: u64, status: &str, session: Option<SessionInfo>) -> EngineResponse {
    EngineResponse {
        session,
        ..EngineResponse::new(id, status)
    }
}

fn handle_request(shared: &Shared, id: u64, request: &EngineRequest) -> EngineResponse {
    let error = |message: String, timed_out: bool| {
        inc(&shared.metrics.errors);
        EngineResponse {
            timed_out,
            error: Some(message),
            ..EngineResponse::new(id, status::ERROR)
        }
    };

    let Some(instance) = &request.instance else {
        return error("request has no `instance`".to_string(), false);
    };
    let mm = match parse_backend(request.mm.as_deref().unwrap_or("auto")) {
        Ok(mm) => mm,
        Err(message) => return error(message, false),
    };
    let trim = request.trim.unwrap_or(false);
    let speed = request.speed.unwrap_or(1);
    if speed < 1 {
        return error(format!("speed must be >= 1, got {speed}"), false);
    }

    // Cache lookup under the canonical key. Only deterministic inputs go
    // into the key — the timeout does not, so a request that previously
    // completed without a deadline can satisfy a tightly-budgeted
    // duplicate.
    let key = cache_key(instance, &(mm, trim, speed));
    let probe_span = ise_obs::Span::enter("engine.cache_probe");
    let probed = shared.cache.get(key);
    drop(probe_span);
    if let Some(hit) = probed {
        inc(&shared.metrics.cache_hits);
        return EngineResponse {
            cached: true,
            calibrations: Some(hit.calibrations as u64),
            schedule: Some(hit.schedule.clone()),
            lp: hit.lp,
            ..EngineResponse::new(id, status::OK)
        };
    }
    inc(&shared.metrics.cache_misses);

    // Warm-start lookup: a prior solve of the same jobs/calibration
    // length/speed (at any machine budget) left its optimal LP basis
    // behind; reusing it lets the long-window LP skip phase 1. An
    // incompatible basis is ignored by the solver, so a stale hit only
    // costs one refactorization attempt.
    let bkey = basis_key(instance, speed);
    let warm_basis = shared.bases.get(bkey);
    if warm_basis.is_some() {
        inc(&shared.metrics.basis_hits);
    } else {
        inc(&shared.metrics.basis_misses);
    }

    let budget = request
        .timeout_ms
        .map(Duration::from_millis)
        .or(shared.config.default_timeout);
    let cancel = match budget {
        Some(b) => CancelToken::with_timeout(b),
        None => CancelToken::new(),
    };
    let mut opts = SolverOptions {
        mm,
        trim_empty_calibrations: trim,
        cancel: cancel.clone(),
        ..SolverOptions::default()
    };
    opts.long.warm_basis = warm_basis.map(|b| (*b).clone());

    let started = Instant::now();
    let solve_span = ise_obs::Span::enter("engine.solve");
    let result = solve_with_speed(instance, &opts, speed);
    drop(solve_span);
    // The token is polled at phase boundaries, so a solve can also finish
    // *after* its deadline; treat that as a timeout too for predictable
    // `0 ms => fallback` semantics.
    let overran = budget.is_some() && cancel.is_cancelled();
    let elapsed = started.elapsed();
    shared.metrics.solve_time.record(elapsed);
    let solve_us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;

    match result {
        Ok(outcome) if !overran => {
            let calibrations = outcome.schedule.num_calibrations();
            let lp = LpTelemetry::from_outcome(&outcome);
            if let Some(t) = &lp {
                record_lp_numerics(&shared.metrics, t);
            }
            if let Some(basis) = outcome
                .long
                .as_ref()
                .and_then(|l| l.fractional.basis.clone())
            {
                shared.bases.insert(bkey, Arc::new(basis));
            }
            shared.cache.insert(
                key,
                Arc::new(CachedSolve {
                    schedule: outcome.schedule.clone(),
                    calibrations,
                    lp,
                }),
            );
            EngineResponse {
                calibrations: Some(calibrations as u64),
                schedule: Some(outcome.schedule),
                solve_us,
                lp,
                ..EngineResponse::new(id, status::OK)
            }
        }
        Ok(_) | Err(SchedError::Cancelled) => {
            inc(&shared.metrics.timeouts);
            if shared.config.fallback_on_timeout {
                inc(&shared.metrics.fallbacks);
                let schedule = greedy_fallback_trimmed(instance, trim);
                EngineResponse {
                    timed_out: true,
                    calibrations: Some(schedule.num_calibrations() as u64),
                    schedule: Some(schedule),
                    solve_us,
                    ..EngineResponse::new(id, status::FALLBACK)
                }
            } else {
                let mut r = error("solve timed out".to_string(), true);
                r.solve_us = solve_us;
                r
            }
        }
        Err(e) => {
            let mut r = error(e.to_string(), false);
            r.solve_us = solve_us;
            r
        }
    }
}

/// Fold one solve's LP numerics into the engine counters: one residual
/// histogram sample per monitored solve, per-rung recovery counts, and
/// the LU basis-kernel counters (fill-in is tracked as a worst-seen
/// gauge; updates and triangular-solve paths accumulate).
fn record_lp_numerics(metrics: &EngineMetrics, t: &LpTelemetry) {
    use std::sync::atomic::Ordering;
    if t.residual_checks > 0 {
        metrics.lp_residual.record(t.max_residual);
    }
    for (counter, n) in [
        (&metrics.lp_recoveries_refactor, t.recoveries_refactor),
        (&metrics.lp_recoveries_tighten, t.recoveries_tighten),
        (&metrics.lp_recoveries_dantzig, t.recoveries_dantzig),
        (&metrics.lp_recoveries_eta, t.recoveries_eta),
        (&metrics.lp_recoveries_dense, t.recoveries_dense),
        (&metrics.lp_lu_ft_updates, t.lu_ft_updates),
        (&metrics.lp_lu_sparse_solves, t.lu_sparse_solves),
        (&metrics.lp_lu_dense_solves, t.lu_dense_solves),
    ] {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }
    metrics
        .lp_lu_fill_nnz
        .fetch_max(t.lu_fill_nnz, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_instance(p: i64) -> Instance {
        Instance::new([(0, 30, p), (0, 40, p)], 1, 10).unwrap()
    }

    #[test]
    fn solves_and_caches() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let a = engine
            .submit(EngineRequest::new(tiny_instance(4)))
            .unwrap()
            .wait();
        assert_eq!(a.status, status::OK);
        assert!(!a.cached);
        ise_model::validate(&tiny_instance(4), &a.schedule.unwrap()).unwrap();
        let b = engine
            .submit(EngineRequest::new(tiny_instance(4)))
            .unwrap()
            .wait();
        assert_eq!(b.status, status::OK);
        assert!(b.cached);
        let m = engine.metrics();
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        // The long-window pipeline ran once; its residual monitor feeds the
        // LP numerics histogram, and a healthy solve climbs no ladder rung.
        assert_eq!(m.lp_residual.count, 1);
        assert_eq!(m.lp_recoveries_refactor, 0);
        assert_eq!(m.lp_recoveries_eta, 0);
        assert_eq!(m.lp_recoveries_dense, 0);
        // The default kernel is LU: the solve must report its fill-in.
        assert!(m.lp_lu_fill_nnz > 0, "LU fill-in gauge is fed");
    }

    #[test]
    fn budget_sweep_warm_starts_the_lp() {
        // Same long-window jobs at two machine budgets: the second solve
        // misses the result cache (machines is part of the cache key) but
        // hits the basis cache (machines is not part of the basis key), so
        // its LP warm-starts from the first solve's optimal basis.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let jobs = [(0, 120, 7), (5, 130, 9), (10, 140, 6), (0, 125, 8)];
        let cold = engine
            .submit(EngineRequest::new(Instance::new(jobs, 1, 10).unwrap()))
            .unwrap()
            .wait();
        assert_eq!(cold.status, status::OK);
        let cold_lp = cold.lp.expect("long pipeline ran");
        assert!(!cold_lp.warm_started);
        assert!(cold_lp.iterations > 0);

        let warm = engine
            .submit(EngineRequest::new(Instance::new(jobs, 2, 10).unwrap()))
            .unwrap()
            .wait();
        assert_eq!(warm.status, status::OK);
        assert!(!warm.cached, "different machine budget must miss the cache");
        let warm_lp = warm.lp.expect("long pipeline ran");
        assert!(warm_lp.warm_started, "basis cache hit should warm-start");

        let m = engine.metrics();
        assert_eq!(m.basis_misses, 1);
        assert_eq!(m.basis_hits, 1);
    }

    #[test]
    fn responses_carry_phase_timings() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        // Mixed instance so both pipelines (and the LP) show up.
        let inst = Instance::new([(0, 40, 7), (0, 12, 6)], 1, 10).unwrap();
        let resp = engine
            .submit(EngineRequest::new(inst.clone()))
            .unwrap()
            .wait();
        assert_eq!(resp.status, status::OK);
        let phases = resp.phases.expect("trace_phases defaults on");
        for name in ["engine.queue_wait", "engine.solve", "solve", "lp.solve"] {
            assert!(
                phases.total_us(name).is_some(),
                "missing phase {name}: {:?}",
                phases.phases
            );
        }
        // Cache hits still report the engine-side phases.
        let hit = engine.submit(EngineRequest::new(inst)).unwrap().wait();
        assert!(hit.cached);
        let phases = hit.phases.expect("cache hit keeps engine phases");
        assert!(phases.total_us("engine.cache_probe").is_some());
        assert!(phases.total_us("engine.solve").is_none());
    }

    #[test]
    fn trace_phases_off_omits_phases() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            trace_phases: false,
            ..EngineConfig::default()
        });
        let resp = engine
            .submit(EngineRequest::new(tiny_instance(4)))
            .unwrap()
            .wait();
        assert_eq!(resp.status, status::OK);
        assert!(resp.phases.is_none());
    }

    #[test]
    fn session_lifecycle_tiers_and_metrics() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        // Mixed instance: long jobs feed the LP, short jobs feed the memo.
        let inst = Instance::new([(0, 40, 7), (5, 50, 6), (0, 12, 6)], 1, 10).unwrap();
        let mut open_req = EngineRequest::new(inst);
        open_req.session = Some(SessionCmd {
            op: "open".to_string(),
            ..SessionCmd::default()
        });
        let opened = engine.session_command(1, &open_req);
        assert_eq!(opened.status, status::OK);
        let sid = opened.session.as_ref().unwrap().sid;
        assert!(sid >= SESSION_ID_BASE, "sid {sid} must be namespaced");
        assert_eq!(engine.metrics().sessions_open, 1);

        let cmd = |op: &str, delta: Option<DeltaMsg>| EngineRequest {
            id: Some(2),
            instance: None,
            timeout_ms: None,
            mm: None,
            trim: None,
            speed: None,
            session: Some(SessionCmd {
                op: op.to_string(),
                sid: Some(sid),
                delta,
            }),
        };

        // First solve is cold.
        let cold = engine.session_command(2, &cmd("solve", None));
        assert_eq!(cold.status, status::OK);
        assert!(cold.schedule.is_some());
        let t = cold.session.as_ref().unwrap().telemetry.as_ref().unwrap();
        assert_eq!(t.tier, ise_session::ReuseTier::Cold);

        // Machine-budget delta solves at the basis tier with a warm LP.
        let machines = DeltaMsg {
            op: "set_machines".to_string(),
            machines: Some(2),
            ..DeltaMsg::default()
        };
        let staged = engine.session_command(2, &cmd("delta", Some(machines)));
        assert_eq!(staged.status, status::OK);
        assert_eq!(staged.session.as_ref().unwrap().staged, 1);
        let basis = engine.session_command(2, &cmd("solve", None));
        assert_eq!(basis.status, status::OK);
        let t = basis.session.as_ref().unwrap().telemetry.as_ref().unwrap();
        assert_eq!(t.tier, ise_session::ReuseTier::Basis);
        assert!(t.warm_started, "budget-only delta must skip LP phase 1");

        // Job delta solves at the warm tier.
        let add = DeltaMsg {
            op: "add_jobs".to_string(),
            jobs: Some(vec![(10, 60, 9)]),
            ..DeltaMsg::default()
        };
        engine.session_command(2, &cmd("delta", Some(add)));
        let warm = engine.session_command(2, &cmd("solve", None));
        let t = warm.session.as_ref().unwrap().telemetry.as_ref().unwrap();
        assert_eq!(t.tier, ise_session::ReuseTier::Warm);
        assert!(t.memo_hits >= 1, "unchanged short interval must replay");

        let closed = engine.session_command(2, &cmd("close", None));
        assert_eq!(closed.status, status::OK);
        let m = engine.metrics();
        assert_eq!(m.sessions_open, 0);
        assert_eq!(m.session_reuse_cold, 1);
        assert_eq!(m.session_reuse_basis, 1);
        assert_eq!(m.session_reuse_warm, 1);
    }

    #[test]
    fn session_errors_are_responses() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let mut req = EngineRequest {
            id: Some(1),
            instance: None,
            timeout_ms: None,
            mm: None,
            trim: None,
            speed: None,
            session: Some(SessionCmd {
                op: "solve".to_string(),
                sid: Some(SESSION_ID_BASE + 99),
                delta: None,
            }),
        };
        let resp = engine.session_command(1, &req);
        assert_eq!(resp.status, status::ERROR);
        assert!(resp.error.unwrap().contains("unknown session id"));

        // Open without an instance is an error.
        req.session = Some(SessionCmd {
            op: "open".to_string(),
            ..SessionCmd::default()
        });
        let resp = engine.session_command(1, &req);
        assert_eq!(resp.status, status::ERROR);
        assert!(resp.error.unwrap().contains("requires `instance`"));

        // Unknown op is an error.
        req.instance = Some(tiny_instance(4));
        req.session = Some(SessionCmd {
            op: "warp".to_string(),
            ..SessionCmd::default()
        });
        let resp = engine.session_command(1, &req);
        assert_eq!(resp.status, status::ERROR);
        assert!(resp.error.unwrap().contains("unknown session op"));
        assert_eq!(engine.metrics().errors, 3);
    }

    #[test]
    fn session_scopes_isolate_and_reap() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let scope_a = engine.new_scope();
        let scope_b = engine.new_scope();
        assert_ne!(scope_a, scope_b);
        assert_ne!(scope_a, GLOBAL_SCOPE);

        let mut open_req = EngineRequest::new(tiny_instance(4));
        open_req.session = Some(SessionCmd {
            op: "open".to_string(),
            ..SessionCmd::default()
        });
        let opened = engine.session_command_scoped(1, &open_req, scope_a);
        assert_eq!(opened.status, status::OK);
        let sid = opened.session.as_ref().unwrap().sid;

        // Another scope can neither solve, stage, nor close the session.
        let cmd = |op: &str| EngineRequest {
            id: Some(2),
            instance: None,
            timeout_ms: None,
            mm: None,
            trim: None,
            speed: None,
            session: Some(SessionCmd {
                op: op.to_string(),
                sid: Some(sid),
                delta: None,
            }),
        };
        for op in ["solve", "close"] {
            let resp = engine.session_command_scoped(3, &cmd(op), scope_b);
            assert_eq!(resp.status, status::ERROR, "{op}");
            assert!(
                resp.error.unwrap().contains("pinned to another connection"),
                "{op}"
            );
        }
        // The owner still can.
        let resp = engine.session_command_scoped(4, &cmd("solve"), scope_a);
        assert_eq!(resp.status, status::OK);

        // Reaping a foreign scope leaves the session; reaping the owner
        // scope closes it.
        assert_eq!(engine.close_scope(scope_b), 0);
        assert_eq!(engine.metrics().sessions_open, 1);
        assert_eq!(engine.close_scope(scope_a), 1);
        assert_eq!(engine.metrics().sessions_open, 0);
        assert_eq!(engine.close_scope(GLOBAL_SCOPE), 0);
    }

    #[test]
    fn missing_instance_on_plain_request_is_an_error() {
        let engine = Engine::new(EngineConfig::default());
        let req = EngineRequest {
            id: Some(7),
            instance: None,
            timeout_ms: None,
            mm: None,
            trim: None,
            speed: None,
            session: None,
        };
        let resp = engine.submit(req).unwrap().wait();
        assert_eq!(resp.status, status::ERROR);
        assert!(resp.error.unwrap().contains("no `instance`"));
    }

    #[test]
    fn zero_timeout_falls_back() {
        let engine = Engine::new(EngineConfig::default());
        let mut req = EngineRequest::new(tiny_instance(5));
        req.timeout_ms = Some(0);
        let resp = engine.submit(req).unwrap().wait();
        assert_eq!(resp.status, status::FALLBACK);
        assert!(resp.timed_out);
        ise_model::validate(&tiny_instance(5), &resp.schedule.unwrap()).unwrap();
        assert_eq!(engine.metrics().timeouts, 1);
        assert_eq!(engine.metrics().fallbacks, 1);
    }

    #[test]
    fn zero_timeout_without_fallback_is_error() {
        let engine = Engine::new(EngineConfig {
            fallback_on_timeout: false,
            ..EngineConfig::default()
        });
        let mut req = EngineRequest::new(tiny_instance(5));
        req.timeout_ms = Some(0);
        let resp = engine.submit(req).unwrap().wait();
        assert_eq!(resp.status, status::ERROR);
        assert!(resp.timed_out);
        assert!(resp.schedule.is_none());
    }

    #[test]
    fn bad_backend_is_an_error_response() {
        let engine = Engine::new(EngineConfig::default());
        let mut req = EngineRequest::new(tiny_instance(3));
        req.mm = Some("bogus".to_string());
        let resp = engine.submit(req).unwrap().wait();
        assert_eq!(resp.status, status::ERROR);
        assert!(resp.error.unwrap().contains("bogus"));
    }

    #[test]
    fn reject_backpressure_reports_queue_full() {
        // 1 worker, queue of 1: stuff enough requests in that at least one
        // submit observes a full queue.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            queue_capacity: 1,
            backpressure: Backpressure::Reject,
            ..EngineConfig::default()
        });
        let mut slots = Vec::new();
        let mut saw_full = false;
        for i in 0..200 {
            let mut req = EngineRequest::new(tiny_instance(2 + (i % 7)));
            req.id = Some(i as u64);
            match engine.submit(req) {
                Ok(slot) => slots.push(slot),
                Err(SubmitError::QueueFull) => saw_full = true,
                Err(SubmitError::ShuttingDown) => unreachable!("engine is live"),
            }
        }
        for slot in slots {
            let _ = slot.wait();
        }
        assert!(saw_full, "queue of capacity 1 never filled");
        assert!(engine.metrics().rejected > 0);
    }

    #[test]
    fn shutdown_drains_outstanding_work() {
        let mut engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let slots: Vec<ResponseSlot> = (0..10)
            .map(|i| {
                engine
                    .submit(EngineRequest::new(tiny_instance(2 + (i % 5))))
                    .unwrap()
            })
            .collect();
        engine.shutdown();
        // Every slot is already filled, so none of these waits blocks; a
        // missing response shows up as a timeout instead of a hang.
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter =
            std::thread::spawn(move || slots.into_iter().for_each(|s| tx.send(s.wait()).unwrap()));
        for _ in 0..10 {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("response missing after drain");
        }
        waiter.join().unwrap();
        assert!(matches!(
            engine.submit(EngineRequest::new(tiny_instance(2))),
            Err(SubmitError::ShuttingDown)
        ));
    }
}
