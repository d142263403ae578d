//! The multi-tenant query service: admission, dispatch, retries.
//!
//! One [`QueryService`] owns a worker pool and a [`Steno`] engine.
//! Callers [`submit`](QueryService::submit) a [`QueryRequest`] and get a
//! [`QueryTicket`] back immediately; the answer (or a structured
//! [`ServeError`]) arrives through the ticket. Admission is decided at
//! submit time against bounded per-tenant queues, so overload turns into
//! explicit [`ServeError::Rejected`] shedding instead of unbounded
//! memory growth — the queue either has room or the caller learns *now*
//! that it must back off.
//!
//! The execution pipeline per admitted job:
//!
//! 1. re-check deadline and cancellation at dequeue (a job that expired
//!    in the queue costs nothing),
//! 2. negative-cache lookup — a query this tenant already failed
//!    deterministically fails again without recompiling,
//! 3. compile through the shared [`Steno`] cache, at the tier chosen by
//!    the [`CompileBreaker`],
//! 4. execute under an [`Interrupt`] carrying the deadline and the
//!    caller's cancel token, inside `catch_unwind`,
//! 5. on a *transient* failure (injected fault, contained panic), retry
//!    with deterministically jittered, cancellation-aware backoff up to
//!    the [`RetryPolicy`] budget; *deterministic* failures fail fast.
//!
//! Unsupported query shapes take the facade's iterator fallback, which
//! polls the same deadline/cancel interrupt per stride of elements, so
//! even unoptimized queries stop within their latency bound.
//!
//! When the engine is adaptive ([`Steno::with_adaptive`]), compiled
//! plans run through its feedback loop — profiled sampling, drift
//! detection, bounded re-optimization — but only while the
//! [`CompileBreaker`] is closed: a degraded service must not spend
//! compile budget on speculative re-optimizations.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use steno::{Exec, Steno, StenoError};
use steno_cluster::sync::{Condvar, Mutex};
use steno_cluster::{CancelToken, FailureClass, FaultKind, FaultPlan, RetryPolicy};
use steno_expr::{DataContext, UdfRegistry, Value};
use steno_obs::{Anomaly, Note, SpanId, TraceMeta, Tracer};
use steno_query::typing::SourceTypes;
use steno_query::QueryExpr;
use steno_vm::plan_key::{probe, PlanKey};
use steno_vm::{CancelProbe, CompiledQuery, Interrupt, StenoOptions, VmError};

use crate::breaker::{BreakerConfig, CompileBreaker};

/// Service-level tuning. The defaults suit tests and examples; a real
/// deployment sizes `workers` to cores and the queue bounds to its
/// latency SLO (queue depth × mean service time ≈ worst queue wait).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing admitted queries.
    pub workers: usize,
    /// Per-tenant bound on *queued* (admitted, not yet running) jobs.
    /// Submissions beyond it are shed with [`ServeError::Rejected`].
    pub queue_depth: usize,
    /// Per-tenant bound on concurrently *running* jobs — one flooding
    /// tenant cannot occupy every worker.
    pub max_in_flight: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Duration,
    /// How long past the deadline [`QueryTicket::wait`] keeps listening
    /// before giving up locally (covers reply propagation).
    pub wait_grace: Duration,
    /// The back-off hint returned with [`ServeError::Rejected`].
    pub shed_retry_after: Duration,
    /// Retry budget and backoff shape for transient failures.
    pub retry: RetryPolicy,
    /// Deterministic fault injection, keyed by (sequence number,
    /// attempt) — the service-layer analogue of the cluster's vertex
    /// fault plan. Empty in production.
    pub faults: FaultPlan,
    /// Compile-pressure breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 32,
            max_in_flight: 2,
            default_deadline: Duration::from_secs(1),
            wait_grace: Duration::from_millis(500),
            shed_retry_after: Duration::from_millis(25),
            retry: RetryPolicy::default(),
            faults: FaultPlan::none(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// A query submission: who is asking, what to run, against what data,
/// and how long they are willing to wait.
#[derive(Clone)]
pub struct QueryRequest {
    /// Tenant identity, the unit of admission-control isolation.
    pub tenant: String,
    /// The query to execute.
    pub query: QueryExpr,
    /// The tenant's data (`Arc`-backed columns: cloning is cheap).
    pub ctx: DataContext,
    /// UDFs referenced by the query.
    pub udfs: UdfRegistry,
    /// Latency budget; `None` takes [`ServeConfig::default_deadline`].
    pub deadline: Option<Duration>,
}

impl QueryRequest {
    /// A request with the default deadline.
    pub fn new(
        tenant: impl Into<String>,
        query: QueryExpr,
        ctx: DataContext,
        udfs: UdfRegistry,
    ) -> QueryRequest {
        QueryRequest {
            tenant: tenant.into(),
            query,
            ctx,
            udfs,
            deadline: None,
        }
    }

    /// Sets an explicit latency budget.
    #[must_use = "with_deadline returns the configured request"]
    pub fn with_deadline(mut self, budget: Duration) -> QueryRequest {
        self.deadline = Some(budget);
        self
    }
}

/// Why the service did not return a value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Shed at admission: the tenant's queue is full. Back off for at
    /// least `retry_after` before resubmitting.
    Rejected {
        /// Suggested minimum back-off.
        retry_after: Duration,
    },
    /// The deadline passed before a result was produced.
    DeadlineExceeded,
    /// The caller cancelled the ticket.
    Cancelled,
    /// The query failed. `class` says whether resubmitting can help:
    /// [`FailureClass::Transient`] failures already exhausted the retry
    /// budget; [`FailureClass::Deterministic`] failures will fail
    /// identically every time.
    QueryFailed {
        /// Human-readable cause.
        message: String,
        /// Retryability classification.
        class: FailureClass,
    },
    /// The service is shutting down and no longer accepts or runs work.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected { retry_after } => {
                write!(f, "rejected: tenant queue full, retry after {retry_after:?}")
            }
            ServeError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            ServeError::Cancelled => write!(f, "query cancelled"),
            ServeError::QueryFailed { message, class } => {
                write!(f, "query failed ({class:?}): {message}")
            }
            ServeError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The caller's handle to an admitted query.
///
/// The ticket shares the request with the worker that runs it. The
/// worker lets go of the request before it replies, so the request is
/// freed by [`QueryTicket::wait`] on the thread that built it — or, if
/// the ticket is dropped unwaited, by the worker.
pub struct QueryTicket {
    seq: u64,
    deadline: Instant,
    grace: Duration,
    cancel: CancelToken,
    rx: mpsc::Receiver<Result<Value, ServeError>>,
    req: Arc<QueryRequest>,
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket")
            .field("seq", &self.seq)
            .field("deadline", &self.deadline)
            .field("tenant", &self.req.tenant)
            .finish_non_exhaustive()
    }
}

impl QueryTicket {
    /// The service-assigned sequence number (also the retry-jitter and
    /// fault-injection key for this job).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The absolute deadline this job runs under.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }

    /// Requests cancellation. The running query aborts at its next
    /// interrupt poll; a queued query aborts at dequeue.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the result arrives. Bounded: if nothing arrives by
    /// deadline + grace, the job is cancelled and
    /// [`ServeError::DeadlineExceeded`] returned locally.
    pub fn wait(self) -> Result<Value, ServeError> {
        let hard = self.deadline + self.grace;
        loop {
            let now = Instant::now();
            if now >= hard {
                self.cancel.cancel();
                return Err(ServeError::DeadlineExceeded);
            }
            let step = (hard - now).min(Duration::from_millis(25));
            match self.rx.recv_timeout(step) {
                Ok(result) => return result,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ServeError::ShuttingDown)
                }
            }
        }
    }
}

/// One admitted unit of work. `req` is shared with the caller's
/// ticket (see [`QueryTicket`]); `tenant` is the tenant's index in
/// [`Dispatch::tenants`].
struct Job {
    seq: u64,
    tenant: usize,
    req: Arc<QueryRequest>,
    deadline: Instant,
    submitted: Instant,
    cancel: CancelToken,
    reply: mpsc::SyncSender<Result<Value, ServeError>>,
}

#[derive(Default)]
struct TenantState {
    queue: VecDeque<Job>,
    in_flight: usize,
}

/// Shared dispatch state. A tenant is interned on its first submission
/// and keeps its index for the service's life. Invariant: a tenant
/// index is in `rr` exactly once iff its queue is non-empty.
#[derive(Default)]
struct Dispatch {
    ids: HashMap<String, usize>,
    tenants: Vec<TenantState>,
    rr: VecDeque<usize>,
    shutdown: bool,
}

impl Dispatch {
    /// The index of tenant `name`, interning it on first use.
    fn tenant_id(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.tenants.len();
        self.tenants.push(TenantState::default());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Pops the next runnable job round-robin across tenants, skipping
    /// tenants at their in-flight quota.
    fn take_next(&mut self, max_in_flight: usize) -> Option<Job> {
        for _ in 0..self.rr.len() {
            let tenant = self.rr.pop_front()?;
            let state = self.tenants.get_mut(tenant)?;
            if state.in_flight >= max_in_flight {
                self.rr.push_back(tenant);
                continue;
            }
            let job = state.queue.pop_front()?;
            state.in_flight += 1;
            if !state.queue.is_empty() {
                self.rr.push_back(tenant);
            }
            return Some(job);
        }
        None
    }
}

/// Entries kept in the deterministic-failure negative cache.
const NEGATIVE_CACHE_CAPACITY: usize = 128;

/// Bounded FIFO of `(tenant, query) → message` for failures that are
/// deterministic at compile time: re-submissions fail fast instead of
/// re-running the whole compile pipeline to the same rejection. Keyed
/// like the plan cache (a [`PlanKey`] scoped by the tenant's index), so
/// a lookup hashes the query in place and prints nothing.
#[derive(Default)]
struct NegativeCache {
    cap: usize,
    /// Message and insertion stamp per key.
    map: HashMap<PlanKey<usize>, (u64, String)>,
    stamp: u64,
}

impl NegativeCache {
    fn get(&self, tenant: usize, query: &QueryExpr) -> Option<String> {
        let key = (tenant, query);
        self.map
            .get(probe(&key))
            .map(|(_, message)| message.clone())
    }

    fn insert(&mut self, tenant: usize, query: &QueryExpr, message: String) {
        if self.map.contains_key(probe(&(tenant, query))) {
            return;
        }
        if self.map.len() >= self.cap {
            if let Some(oldest) = self.map.values().map(|(stamp, _)| *stamp).min() {
                self.map.retain(|_, (stamp, _)| *stamp != oldest);
            }
        }
        self.stamp += 1;
        self.map
            .insert(PlanKey::new(tenant, query), (self.stamp, message));
    }
}

struct Shared {
    engine: Steno,
    cfg: ServeConfig,
    dispatch: Mutex<Dispatch>,
    work_ready: Condvar,
    breaker: CompileBreaker,
    negcache: Mutex<NegativeCache>,
    seq: AtomicU64,
}

/// The service front end. Dropping it shuts down and joins the workers.
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Starts the worker pool over a configured engine. Metrics flow
    /// into the engine's collector under `serve.*` names.
    pub fn start(engine: Steno, cfg: ServeConfig) -> QueryService {
        let shared = Arc::new(Shared {
            negcache: Mutex::new(NegativeCache {
                cap: NEGATIVE_CACHE_CAPACITY,
                ..NegativeCache::default()
            }),
            breaker: CompileBreaker::new(cfg.breaker.clone()),
            cfg,
            engine,
            dispatch: Mutex::new(Dispatch::default()),
            work_ready: Condvar::new(),
            seq: AtomicU64::new(0),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        QueryService { shared, workers }
    }

    /// The engine (shared plan cache, options, collector).
    pub fn engine(&self) -> &Steno {
        &self.shared.engine
    }

    /// The compile breaker, for observability.
    pub fn breaker(&self) -> &CompileBreaker {
        &self.shared.breaker
    }

    /// Admits or sheds a request. On admission the job is queued behind
    /// the tenant's earlier jobs and the ticket returned immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when the tenant's queue is full,
    /// [`ServeError::ShuttingDown`] after shutdown.
    pub fn submit(&self, req: QueryRequest) -> Result<QueryTicket, ServeError> {
        let shared = &self.shared;
        let collector = shared.engine.collector();
        collector.add("serve.submitted", 1);
        collector.add_labeled("serve.tenant.submitted", &req.tenant, 1);
        let now = Instant::now();
        let deadline = now + req.deadline.unwrap_or(shared.cfg.default_deadline);
        let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        let (tx, rx) = mpsc::sync_channel(1);
        let req = Arc::new(req);

        let mut d = shared.dispatch.lock();
        let shed = || {
            collector.add("serve.shed", 1);
            collector.add_labeled("serve.tenant.shed", &req.tenant, 1);
        };
        if d.shutdown {
            shed();
            return Err(ServeError::ShuttingDown);
        }
        let tenant = d.tenant_id(&req.tenant);
        let state = &mut d.tenants[tenant];
        if state.queue.len() >= shared.cfg.queue_depth {
            shed();
            return Err(ServeError::Rejected {
                retry_after: shared.cfg.shed_retry_after,
            });
        }
        let was_empty = state.queue.is_empty();
        state.queue.push_back(Job {
            seq,
            tenant,
            req: Arc::clone(&req),
            deadline,
            submitted: now,
            cancel: cancel.clone(),
            reply: tx,
        });
        collector.observe_ns("serve.queue_depth", state.queue.len() as u64);
        if was_empty {
            d.rr.push_back(tenant);
        }
        drop(d);
        shared.work_ready.notify_all();
        collector.add("serve.admitted", 1);
        Ok(QueryTicket {
            seq,
            deadline,
            grace: shared.cfg.wait_grace,
            cancel,
            rx,
            req,
        })
    }

    /// Submit and wait: the one-call form.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`].
    pub fn execute_blocking(&self, req: QueryRequest) -> Result<Value, ServeError> {
        self.submit(req)?.wait()
    }

    /// Stops accepting work, fails every queued job with
    /// [`ServeError::ShuttingDown`], and wakes the workers so they can
    /// exit once in-flight jobs finish. Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        let mut d = self.shared.dispatch.lock();
        d.shutdown = true;
        let drained: Vec<Job> = d
            .tenants
            .iter_mut()
            .flat_map(|t| t.queue.drain(..))
            .collect();
        d.rr.clear();
        drop(d);
        for job in drained {
            let _ = job.reply.send(Err(ServeError::ShuttingDown));
        }
        self.shared.work_ready.notify_all();
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut d = shared.dispatch.lock();
            loop {
                if let Some(job) = d.take_next(shared.cfg.max_in_flight.max(1)) {
                    break job;
                }
                if d.shutdown {
                    return;
                }
                // Timed wait: quota-blocked tenants become runnable when
                // a job finishes, and notify_all covers the rest; the
                // timeout is a belt-and-braces bound, not the mechanism.
                d = shared
                    .work_ready
                    .wait_timeout(d, Duration::from_millis(10));
            }
        };
        let tenant = job.tenant;
        process(shared, job);
        let mut d = shared.dispatch.lock();
        if let Some(state) = d.tenants.get_mut(tenant) {
            state.in_flight = state.in_flight.saturating_sub(1);
        }
        drop(d);
        // A tenant parked at its in-flight quota may now be runnable.
        shared.work_ready.notify_all();
    }
}

/// Runs one job end to end and replies on its channel.
///
/// When the engine carries a flight recorder, a per-query tracer is
/// opened with its clock anchored at *submission* time, so the queue
/// wait (which happened before any worker touched the job) lands at
/// offset zero of the trace. The `serve.request` root span is reserved
/// up front — children link to it — and recorded retroactively once the
/// outcome is known. The worker's reference to the request is dropped
/// before the reply is sent (see [`QueryTicket`]).
fn process(shared: &Shared, job: Job) {
    let collector = shared.engine.collector();
    let tenant = job.req.tenant.as_str();
    let tracer = shared
        .engine
        .flight_recorder()
        .map(|r| r.begin_at(job.submitted))
        .unwrap_or_else(Tracer::disabled);
    let root = tracer.reserve();

    let wait_ns = u64::try_from(job.submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
    collector.observe_ns("serve.queue_wait_ns", wait_ns);
    collector.observe_ns_labeled("serve.tenant.queue_wait_ns", tenant, wait_ns);
    if tracer.enabled() {
        // Admission happened inside `submit`, effectively instantaneous
        // at the trace origin; everything since is queue wait.
        tracer.record("serve.admit", root, 0, 0, vec![("seq", Note::U64(job.seq))]);
        tracer.record(
            "serve.queue",
            root,
            0,
            tracer.now_ns(),
            vec![("wait_ns", Note::U64(wait_ns))],
        );
    }

    let exec_start = Instant::now();
    let mut used_options = None;
    let result = {
        let mut dspan = tracer.span("serve.dispatch", root);
        let r = run_job(shared, &job, &tracer, dspan.id(), &mut used_options);
        if let Err(e) = &r {
            dspan.note("error", Note::Text(e.to_string()));
        }
        r
    };
    // Execution time (dequeue → outcome) separate from end-to-end
    // latency: under load the two diverge by exactly the queue wait,
    // and conflating them hides whether the service is slow or full.
    let exec_ns = u64::try_from(exec_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    collector.observe_ns("serve.exec_ns", exec_ns);

    let outcome = match &result {
        Ok(_) => {
            collector.add("serve.completed", 1);
            collector.add_labeled("serve.tenant.completed", tenant, 1);
            "completed"
        }
        Err(ServeError::DeadlineExceeded) => {
            collector.add("serve.deadline_exceeded", 1);
            collector.add_labeled("serve.tenant.deadline_exceeded", tenant, 1);
            "deadline-exceeded"
        }
        Err(ServeError::Cancelled) => {
            collector.add("serve.cancelled", 1);
            collector.add_labeled("serve.tenant.cancelled", tenant, 1);
            "cancelled"
        }
        Err(_) => {
            collector.add("serve.failed", 1);
            collector.add_labeled("serve.tenant.failed", tenant, 1);
            "failed"
        }
    };
    let latency = u64::try_from(job.submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
    collector.observe_ns("serve.latency_ns", latency);
    collector.observe_ns_labeled("serve.tenant.latency_ns", tenant, latency);

    if tracer.enabled() {
        finish_trace(shared, &job, &tracer, root, &result, outcome, used_options);
    }
    let Job { req, reply, .. } = job;
    drop(req);
    // The caller may have stopped listening; that's their prerogative.
    let _ = reply.send(result);
}

/// Classifies the outcome as a flight-recorder anomaly, attaches the
/// query's EXPLAIN JSON when the trace is headed for a dump, records
/// the retroactive `serve.request` root span, and hands the finished
/// trace to the recorder.
fn finish_trace(
    shared: &Shared,
    job: &Job,
    tracer: &Tracer,
    root: Option<SpanId>,
    result: &Result<Value, ServeError>,
    outcome: &'static str,
    options: Option<StenoOptions>,
) {
    let Some(recorder) = shared.engine.flight_recorder() else {
        return;
    };
    let (anomaly, detail) = match result {
        // Cancellation is the caller's choice, not a service anomaly.
        Ok(_) | Err(ServeError::Cancelled) => (None, None),
        Err(ServeError::DeadlineExceeded) => (Some(Anomaly::DeadlineExceeded), None),
        Err(ServeError::QueryFailed { message, .. }) => {
            let kind = if message.contains("plan verification failed")
                || message.contains("tape verification failed")
            {
                Anomaly::VerifierReject
            } else {
                Anomaly::Trap
            };
            (Some(kind), Some(message.clone()))
        }
        Err(_) => (None, None),
    };
    // EXPLAIN is attached only when this trace will dump: an anomaly is
    // already known, or the wall time crossed the slow-query threshold.
    // (A re-opt-only anomaly is derived inside the recorder; its dump
    // goes without EXPLAIN rather than paying an explain call — albeit
    // a cache hit — on every clean query.)
    let slow = recorder
        .config()
        .slow_query
        .is_some_and(|t| u128::from(tracer.now_ns()) >= t.as_nanos());
    let explain_json = (anomaly.is_some() || slow)
        .then(|| {
            let opts = options.unwrap_or_else(|| *shared.engine.options());
            shared
                .engine
                .explain_with_options(
                    &job.req.query,
                    SourceTypes::from(&job.req.ctx),
                    &job.req.udfs,
                    opts,
                )
                .ok()
                .map(|e| e.to_json())
        })
        .flatten();
    if let Some(id) = root {
        tracer.record_reserved(
            id,
            "serve.request",
            None,
            0,
            tracer.now_ns(),
            vec![
                ("tenant", Note::Text(job.req.tenant.clone())),
                ("seq", Note::U64(job.seq)),
                ("outcome", Note::Str(outcome)),
            ],
        );
    }
    recorder.finish(
        tracer,
        TraceMeta {
            query: job.req.query.to_string(),
            tenant: Some(job.req.tenant.clone()),
            anomaly,
            detail,
            explain_json,
        },
    );
}

/// Compile (through the breaker tier) and execute (with retries).
/// Writes the plan options actually used into `used_options` so the
/// caller can attach a faithful EXPLAIN to the flight-recorder trace.
fn run_job(
    shared: &Shared,
    job: &Job,
    tracer: &Tracer,
    parent: Option<SpanId>,
    used_options: &mut Option<StenoOptions>,
) -> Result<Value, ServeError> {
    let collector = shared.engine.collector();
    if job.cancel.is_cancelled() {
        return Err(ServeError::Cancelled);
    }
    if Instant::now() >= job.deadline {
        return Err(ServeError::DeadlineExceeded);
    }

    let req = &job.req;
    let negative = shared.negcache.lock().get(job.tenant, &req.query);
    if let Some(message) = negative {
        collector.add("serve.negcache_hits", 1);
        return Err(ServeError::QueryFailed {
            message,
            class: FailureClass::Deterministic,
        });
    }

    let (options, degraded) = shared.breaker.plan_options(shared.engine.options());
    *used_options = Some(options);
    if degraded {
        collector.add("serve.degraded_compiles", 1);
    }
    let exec = Exec {
        tracer,
        parent,
        options: Some(options),
        // Adaptive re-optimization costs a compile; a service already
        // shedding compile load (breaker open, degraded tier) must not
        // add speculative ones.
        reopt: !degraded,
        ..Exec::default()
    };
    let compile_start = Instant::now();
    let compiled = shared
        .engine
        .compile_with(&req.query, &req.ctx, &req.udfs, &exec);
    let compile_took = compile_start.elapsed();

    let plan = match compiled {
        Ok(plan) => {
            shared.breaker.record_compile(compile_took, true);
            Some(plan)
        }
        Err(e) if e.is_unsupported() => {
            // The engine's iterator fallback runs it: no second lookup.
            collector.add("serve.fallback_exec", 1);
            None
        }
        Err(e) => {
            // A genuine compile failure, or an independent verifier
            // rejected the compiled query (the plan verifier caught an
            // optimizer bug, or the tape verifier a backend miscompile).
            // Either way it is deterministic for this query: remember
            // it, and count verifier rejections against the breaker.
            if matches!(e, StenoError::Verify(_) | StenoError::TapeCheck(_)) {
                shared.breaker.record_verifier_failure();
            }
            let message = e.to_string();
            shared
                .negcache
                .lock()
                .insert(job.tenant, &req.query, message.clone());
            return Err(ServeError::QueryFailed {
                message,
                class: FailureClass::Deterministic,
            });
        }
    };
    execute_with_retries(shared, job, plan.as_deref(), &exec)
}

/// The attempt/retry loop shared by the compiled and fallback paths.
/// `plan: None` runs the engine's iterator fallback (unsupported shapes
/// — polled per element stride, so the deadline holds mid-run too).
fn execute_with_retries(
    shared: &Shared,
    job: &Job,
    plan: Option<&CompiledQuery>,
    exec: &Exec<'_>,
) -> Result<Value, ServeError> {
    let collector = shared.engine.collector();
    let cancel = job.cancel.clone();
    let probe: CancelProbe = Arc::new(move || cancel.is_cancelled());
    let max_attempts = shared.cfg.retry.max_attempts.max(1);

    for attempt in 0..max_attempts {
        if job.cancel.is_cancelled() {
            return Err(ServeError::Cancelled);
        }
        if Instant::now() >= job.deadline {
            return Err(ServeError::DeadlineExceeded);
        }

        let mut aspan = exec.tracer.span("serve.attempt", exec.parent);
        aspan.note("attempt", attempt as u64);
        let attempt_span = aspan.id();

        let fault = shared.cfg.faults.lookup(job.seq as usize, attempt).cloned();
        let failure = match fault {
            Some(FaultKind::Error) => Some(format!(
                "injected transient fault (seq {}, attempt {attempt})",
                job.seq
            )),
            Some(FaultKind::Delay(d)) => {
                aspan.note("injected_delay_ns", u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
                if !job.cancel.sleep_cooperatively(d) {
                    return Err(ServeError::Cancelled);
                }
                None
            }
            _ => None,
        };

        let failure = match failure {
            Some(f) => f,
            None => {
                let interrupt = Interrupt::none()
                    .with_deadline(job.deadline)
                    .with_cancel_probe(Arc::clone(&probe));
                let inject_panic = matches!(fault, Some(FaultKind::Panic));
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if inject_panic {
                        // Scripted fault injection: the unwind is caught
                        // immediately below — the containment path is
                        // exactly what the denied lint normally guards.
                        #[allow(clippy::panic)]
                        std::panic::panic_any(format!(
                            "injected panic (seq {}, attempt {attempt})",
                            job.seq
                        ));
                    }
                    let attempt = Exec {
                        interrupt: &interrupt,
                        parent: attempt_span,
                        ..*exec
                    };
                    run_attempt(shared, job, plan, &attempt)
                }));
                match outcome {
                    Ok(Ok(value)) => return Ok(value),
                    Ok(Err(e)) => {
                        aspan.note("error", Note::Text(e.to_string()));
                        return Err(e);
                    }
                    Err(payload) => {
                        collector.add("serve.panics_contained", 1);
                        payload_message(payload.as_ref())
                    }
                }
            }
        };

        // The attempt span covers the attempt itself, not the backoff
        // sleep that may follow.
        aspan.note("failed", Note::Text(failure.clone()));
        drop(aspan);

        if attempt + 1 >= max_attempts {
            return Err(ServeError::QueryFailed {
                message: format!("{failure} (retries exhausted after {max_attempts} attempts)"),
                class: FailureClass::Transient,
            });
        }
        collector.add("serve.retries", 1);
        if !shared
            .cfg
            .retry
            .backoff_sleep(&job.cancel, job.seq, attempt + 1)
        {
            return Err(ServeError::Cancelled);
        }
    }
    // max_attempts >= 1, so the loop always returns before this.
    Err(ServeError::QueryFailed {
        message: "retry budget was zero".to_string(),
        class: FailureClass::Transient,
    })
}

/// One execution attempt on the chosen path. All errors here are
/// terminal for the job: transient failures only enter via fault
/// injection and contained panics, which the retry loop sees directly.
/// On an adaptive engine with `exec.reopt` set, the run feeds profiled
/// samples and bounded drift-triggered re-optimization; a live tracer
/// forces the profiled run, so per-loop spans record.
fn run_attempt(
    shared: &Shared,
    job: &Job,
    plan: Option<&CompiledQuery>,
    exec: &Exec<'_>,
) -> Result<Value, ServeError> {
    shared
        .engine
        .run_compiled(&job.req.query, &job.req.ctx, &job.req.udfs, plan, exec)
        .map(|(value, _, _)| value)
        .map_err(|e| match e {
            StenoError::Vm(VmError::Cancelled) => ServeError::Cancelled,
            StenoError::Vm(VmError::DeadlineExceeded) => ServeError::DeadlineExceeded,
            // Data-dependent errors (division by zero and friends) are
            // deterministic: a retry re-reads the same data. Not
            // negative-cached — they depend on the data, which may
            // change between submissions.
            other => ServeError::QueryFailed {
                message: other.to_string(),
                class: FailureClass::Deterministic,
            },
        })
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::{Expr, Ty};
    use steno_obs::MemoryCollector;
    use steno_query::{QFn2, Query};

    fn sum_query(threshold: f64) -> QueryExpr {
        Query::source("xs")
            .where_(Expr::var("x").gt(Expr::litf(threshold)), "x")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build()
    }

    fn ctx(n: usize) -> DataContext {
        DataContext::new().with_source("xs", (0..n).map(|i| i as f64).collect::<Vec<_>>())
    }

    fn service_with(cfg: ServeConfig) -> (QueryService, Arc<MemoryCollector>) {
        let metrics = Arc::new(MemoryCollector::new());
        let engine = Steno::new().with_collector(metrics.clone());
        (QueryService::start(engine, cfg), metrics)
    }

    #[test]
    fn serves_a_query_end_to_end() {
        let (svc, metrics) = service_with(ServeConfig::default());
        let req = QueryRequest::new("acme", sum_query(0.5), ctx(100), UdfRegistry::new());
        let got = svc.execute_blocking(req).unwrap();
        let want = Steno::new()
            .execute(&sum_query(0.5), &ctx(100), &UdfRegistry::new())
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(metrics.counter_value("serve.completed"), 1);
        assert_eq!(metrics.counter_value("serve.shed"), 0);
    }

    #[test]
    fn full_tenant_queue_sheds_with_rejected() {
        let (svc, metrics) = service_with(ServeConfig {
            workers: 1,
            queue_depth: 1,
            max_in_flight: 1,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        });
        // Big enough that the single worker cannot drain a burst of
        // instantaneous submissions.
        let data = ctx(400_000);
        let mut tickets = Vec::new();
        let mut shed = 0u32;
        for i in 0..32 {
            let req = QueryRequest::new(
                "flood",
                sum_query(f64::from(i)),
                data.clone(),
                UdfRegistry::new(),
            );
            match svc.submit(req) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Rejected { retry_after }) => {
                    assert!(retry_after > Duration::ZERO);
                    shed += 1;
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        assert!(shed > 0, "burst past queue capacity must shed");
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(metrics.counter_value("serve.shed"), u64::from(shed));
        assert_eq!(
            metrics.counter_value("serve.admitted") + u64::from(shed),
            metrics.counter_value("serve.submitted"),
        );
    }

    #[test]
    fn expired_deadline_is_reported_in_bounded_time() {
        let (svc, metrics) = service_with(ServeConfig::default());
        let req = QueryRequest::new("acme", sum_query(0.0), ctx(1000), UdfRegistry::new())
            .with_deadline(Duration::ZERO);
        let start = Instant::now();
        let err = svc.execute_blocking(req).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(metrics.counter_value("serve.deadline_exceeded"), 1);
    }

    #[test]
    fn cancelled_ticket_stops_a_queued_job() {
        let (svc, metrics) = service_with(ServeConfig {
            workers: 1,
            max_in_flight: 1,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        });
        let data = ctx(400_000);
        // Occupy the worker, then cancel a queued job before it runs.
        let busy: Vec<QueryTicket> = (0..4)
            .map(|i| {
                svc.submit(QueryRequest::new(
                    "acme",
                    sum_query(f64::from(i)),
                    data.clone(),
                    UdfRegistry::new(),
                ))
                .unwrap()
            })
            .collect();
        let victim = svc
            .submit(QueryRequest::new(
                "acme",
                sum_query(99.0),
                data.clone(),
                UdfRegistry::new(),
            ))
            .unwrap();
        victim.cancel();
        assert_eq!(victim.wait().unwrap_err(), ServeError::Cancelled);
        for t in busy {
            t.wait().unwrap();
        }
        assert_eq!(metrics.counter_value("serve.cancelled"), 1);
    }

    /// `frac_above` of the `n` values are 10.0 (above the 5.0
    /// threshold used by the adaptive tests), the rest 0.0.
    fn density_ctx(n: usize, frac_above: f64) -> DataContext {
        let period = (1.0 / frac_above.max(1e-9)).round() as usize;
        let xs: Vec<f64> = (0..n)
            .map(|i| if i % period == 0 { 10.0 } else { 0.0 })
            .collect();
        DataContext::new().with_source("xs", xs)
    }

    #[test]
    fn fallback_queries_stop_at_their_deadline_mid_run() {
        // Concat is outside QUIL, so this runs on the iterator
        // fallback — which now polls the interrupt per element stride
        // instead of running to completion past the deadline.
        let (svc, metrics) = service_with(ServeConfig::default());
        let q = Query::source("xs")
            .concat(Query::source("xs"))
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let req = QueryRequest::new("acme", q, ctx(1_000_000), UdfRegistry::new())
            .with_deadline(Duration::from_millis(25));
        let start = Instant::now();
        let err = svc.execute_blocking(req).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        // Well under the seconds a 2M-element interpreted run costs.
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline must interrupt the fallback mid-run"
        );
        assert_eq!(metrics.counter_value("serve.fallback_exec"), 1);
        assert_eq!(metrics.counter_value("serve.deadline_exceeded"), 1);
    }

    #[test]
    fn adaptive_engine_reoptimizes_through_the_service() {
        // The service feeds the engine's profile→plan loop: a workload
        // whose filter density collapses triggers one bounded
        // re-optimization, surfaced in the engine's metrics.
        let metrics = Arc::new(MemoryCollector::new());
        let engine = Steno::new()
            .with_adaptive(true)
            .with_collector(metrics.clone());
        let svc = QueryService::start(engine, ServeConfig::default());
        let q = sum_query(5.0);
        let dense = density_ctx(200_000, 0.95);
        let sparse = density_ctx(200_000, 0.02);
        for _ in 0..12 {
            let req = QueryRequest::new("acme", q.clone(), dense.clone(), UdfRegistry::new());
            svc.execute_blocking(req).unwrap();
        }
        for _ in 0..96 {
            let req = QueryRequest::new("acme", q.clone(), sparse.clone(), UdfRegistry::new());
            svc.execute_blocking(req).unwrap();
            if metrics.counter_value("steno.reopt") > 0 {
                break;
            }
        }
        assert_eq!(metrics.counter_value("steno.reopt"), 1);
        // Settle: the sustained sparse regime must not flap the plan.
        for _ in 0..48 {
            let req = QueryRequest::new("acme", q.clone(), sparse.clone(), UdfRegistry::new());
            svc.execute_blocking(req).unwrap();
        }
        assert_eq!(metrics.counter_value("steno.reopt"), 1);
    }

    #[test]
    fn open_breaker_suppresses_adaptive_reoptimization() {
        // A zero compile budget marks every compile slow: the breaker
        // trips after the first one and every later job runs degraded.
        // Degraded jobs must not spend compiles on re-optimization even
        // when the workload drifts hard.
        let metrics = Arc::new(MemoryCollector::new());
        let engine = Steno::new()
            .with_adaptive(true)
            .with_collector(metrics.clone());
        let svc = QueryService::start(
            engine,
            ServeConfig {
                breaker: BreakerConfig {
                    compile_budget: Duration::ZERO,
                    trip_threshold: 1,
                    ..BreakerConfig::default()
                },
                ..ServeConfig::default()
            },
        );
        let q = sum_query(5.0);
        let dense = density_ctx(50_000, 0.95);
        let sparse = density_ctx(50_000, 0.02);
        for _ in 0..12 {
            let req = QueryRequest::new("acme", q.clone(), dense.clone(), UdfRegistry::new());
            svc.execute_blocking(req).unwrap();
        }
        for _ in 0..40 {
            let req = QueryRequest::new("acme", q.clone(), sparse.clone(), UdfRegistry::new());
            svc.execute_blocking(req).unwrap();
        }
        assert!(
            metrics.counter_value("serve.degraded_compiles") > 0,
            "breaker must have degraded the service"
        );
        assert_eq!(
            metrics.counter_value("steno.reopt"),
            0,
            "degraded service must not re-optimize"
        );
    }

    #[test]
    fn injected_transient_faults_are_retried_to_success() {
        // Seq 0, attempts 0 and 1 fail; attempt 2 runs clean.
        let faults = FaultPlan::none()
            .with(0, 0, FaultKind::Error)
            .with(0, 1, FaultKind::Error);
        let (svc, metrics) = service_with(ServeConfig {
            faults,
            ..ServeConfig::default()
        });
        let got = svc
            .execute_blocking(QueryRequest::new(
                "acme",
                sum_query(0.5),
                ctx(100),
                UdfRegistry::new(),
            ))
            .unwrap();
        let want = Steno::new()
            .execute(&sum_query(0.5), &ctx(100), &UdfRegistry::new())
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(metrics.counter_value("serve.retries"), 2);
    }

    #[test]
    fn injected_panics_are_contained_and_retried() {
        let (svc, metrics) = service_with(ServeConfig {
            faults: FaultPlan::panic_once(0),
            ..ServeConfig::default()
        });
        let got = svc
            .execute_blocking(QueryRequest::new(
                "acme",
                sum_query(0.5),
                ctx(100),
                UdfRegistry::new(),
            ))
            .unwrap();
        assert_eq!(
            got,
            Steno::new()
                .execute(&sum_query(0.5), &ctx(100), &UdfRegistry::new())
                .unwrap()
        );
        assert_eq!(metrics.counter_value("serve.panics_contained"), 1);
        assert_eq!(metrics.counter_value("serve.retries"), 1);
    }

    #[test]
    fn exhausted_retries_surface_as_transient_failure() {
        let faults = (0..5).fold(FaultPlan::none(), |p, k| p.with(0, k, FaultKind::Error));
        let (svc, metrics) = service_with(ServeConfig {
            faults,
            ..ServeConfig::default()
        });
        let err = svc
            .execute_blocking(QueryRequest::new(
                "acme",
                sum_query(0.5),
                ctx(100),
                UdfRegistry::new(),
            ))
            .unwrap_err();
        match err {
            ServeError::QueryFailed { class, message } => {
                assert_eq!(class, FailureClass::Transient);
                assert!(message.contains("retries exhausted"), "{message}");
            }
            other => panic!("want QueryFailed, got {other:?}"),
        }
        // Default budget: 3 attempts, so 2 retries.
        assert_eq!(metrics.counter_value("serve.retries"), 2);
    }

    #[test]
    fn deterministic_failures_fail_fast_and_negative_cache() {
        let (svc, metrics) = service_with(ServeConfig::default());
        // `missing` is not a source in the context: a deterministic
        // compile-time failure.
        let bad = Query::source("missing").sum().build();
        for _ in 0..2 {
            let err = svc
                .execute_blocking(QueryRequest::new(
                    "acme",
                    bad.clone(),
                    ctx(10),
                    UdfRegistry::new(),
                ))
                .unwrap_err();
            match err {
                ServeError::QueryFailed { class, .. } => {
                    assert_eq!(class, FailureClass::Deterministic);
                }
                other => panic!("want QueryFailed, got {other:?}"),
            }
        }
        assert_eq!(
            metrics.counter_value("serve.negcache_hits"),
            1,
            "second submission must hit the negative cache"
        );
        assert_eq!(metrics.counter_value("serve.retries"), 0);
    }

    #[test]
    fn compile_failures_are_negative_cached_per_tenant() {
        let (svc, metrics) = service_with(ServeConfig::default());
        let bad = Query::source("missing").sum().build();
        let fail = |tenant: &str| {
            let req = QueryRequest::new(tenant, bad.clone(), ctx(10), UdfRegistry::new());
            match svc.execute_blocking(req) {
                Err(ServeError::QueryFailed { class, .. }) => {
                    assert_eq!(class, FailureClass::Deterministic);
                }
                other => panic!("want QueryFailed, got {other:?}"),
            }
            (
                metrics.counter_value("serve.negcache_hits"),
                metrics.counter_value("steno.compile.error"),
            )
        };
        assert_eq!(fail("acme"), (0, 1));
        assert_eq!(fail("acme"), (1, 1), "acme's repeat hits its entry");
        assert_eq!(fail("globex"), (1, 2), "globex compiles for itself");
        assert_eq!(fail("globex"), (2, 2));
        // A different query of the same tenant is not covered.
        let other = Query::source("missing").count().build();
        let req = QueryRequest::new("acme", other, ctx(10), UdfRegistry::new());
        assert!(svc.execute_blocking(req).is_err());
        assert_eq!(metrics.counter_value("steno.compile.error"), 3);
    }

    type ThreadSlot = Arc<Mutex<Option<std::thread::ThreadId>>>;

    /// Records the thread that drops it.
    struct DropProbe(ThreadSlot);

    impl Drop for DropProbe {
        fn drop(&mut self) {
            *self.0.lock() = Some(std::thread::current().id());
        }
    }

    /// A registry whose UDF closure is the only owner of a
    /// [`DropProbe`], and the slot the probe fills when the last copy
    /// of the registry is dropped.
    fn probed_udfs() -> (UdfRegistry, ThreadSlot) {
        let slot = ThreadSlot::default();
        let probe = DropProbe(Arc::clone(&slot));
        let mut udfs = UdfRegistry::new();
        udfs.register("probe", vec![Ty::F64], Ty::F64, move |args| {
            let _ = &probe;
            args[0].clone()
        });
        (udfs, slot)
    }

    #[test]
    fn a_waited_request_is_freed_on_the_submitting_thread() {
        let (svc, _) = service_with(ServeConfig::default());
        let (udfs, dropped) = probed_udfs();
        let ticket = svc
            .submit(QueryRequest::new("acme", sum_query(0.0), ctx(10), udfs))
            .unwrap();
        assert!(dropped.lock().is_none());
        ticket.wait().unwrap();
        assert_eq!(*dropped.lock(), Some(std::thread::current().id()));
    }

    #[test]
    fn an_unwaited_request_is_freed_on_the_worker() {
        let (svc, _) = service_with(ServeConfig {
            workers: 1,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        });
        // The first job holds the only worker until the gate opens.
        let (open, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let mut gated = UdfRegistry::new();
        gated.register("gate", vec![Ty::F64], Ty::F64, move |args| {
            let _ = gate.lock().recv();
            args[0].clone()
        });
        let blocker = Query::source("xs")
            .select(Expr::call("gate", vec![Expr::var("x")]), "x")
            .sum()
            .build();
        let first = svc
            .submit(QueryRequest::new("acme", blocker, ctx(4), gated))
            .unwrap();
        let (udfs, dropped) = probed_udfs();
        let unwaited = svc
            .submit(QueryRequest::new("acme", sum_query(0.0), ctx(10), udfs))
            .unwrap();
        drop(unwaited);
        assert!(
            dropped.lock().is_none(),
            "the worker still holds the request"
        );
        drop(open);
        first.wait().unwrap();
        // One worker runs the tenant's jobs in order: once a later job
        // answers, the unwaited one has been processed and let go.
        svc.execute_blocking(QueryRequest::new(
            "acme",
            sum_query(1.0),
            ctx(10),
            UdfRegistry::new(),
        ))
        .unwrap();
        let freed_on = dropped.lock().expect("the request was freed");
        assert_ne!(freed_on, std::thread::current().id());
    }

    #[test]
    fn verifier_rejections_reach_every_tenant() {
        // The negative cache is per tenant, so the second tenant's
        // submission compiles again. A rejected plan never enters the
        // engine's plan cache, so that compile is rejected too instead
        // of running the unverified plan.
        let svc = QueryService::start(Steno::new().with_verify(true), ServeConfig::default());
        let bad = Query::source("ns")
            .aggregate_assoc(
                Expr::liti(0),
                "a",
                "x",
                Expr::var("a") + Expr::var("x"),
                QFn2::new("p", "q", Expr::var("p") - Expr::var("q")),
            )
            .build();
        let data = DataContext::new().with_source("ns", (0..100).collect::<Vec<i64>>());
        for tenant in ["acme", "globex"] {
            let req = QueryRequest::new(tenant, bad.clone(), data.clone(), UdfRegistry::new());
            match svc.execute_blocking(req) {
                Err(ServeError::QueryFailed { class, message }) => {
                    assert_eq!(class, FailureClass::Deterministic, "{tenant}");
                    assert!(message.contains("plan verification failed"), "{message}");
                }
                other => panic!("{tenant}: want QueryFailed, got {other:?}"),
            }
        }
        assert_eq!(svc.engine().detailed_cache_stats().len, 0);
    }

    #[test]
    fn unsupported_shapes_run_the_fallback_path() {
        let (svc, metrics) = service_with(ServeConfig::default());
        let q = Query::source("xs").concat(Query::source("xs")).count().build();
        let got = svc
            .execute_blocking(QueryRequest::new("acme", q.clone(), ctx(8), UdfRegistry::new()))
            .unwrap();
        assert_eq!(got, Value::I64(16));
        assert_eq!(metrics.counter_value("serve.fallback_exec"), 1);
    }

    #[test]
    fn unsupported_shapes_are_looked_up_once() {
        // The fallback runs straight off the failed compile: no second
        // cache lookup, compile error or `engine.compile` span.
        let (svc, metrics) = service_with(ServeConfig::default());
        let q = Query::source("xs")
            .concat(Query::source("xs"))
            .count()
            .build();
        svc.execute_blocking(QueryRequest::new("acme", q, ctx(8), UdfRegistry::new()))
            .unwrap();
        assert_eq!(svc.engine().detailed_cache_stats().misses, 1);
        assert_eq!(metrics.counter_value("steno.compile.error"), 1);
    }

    #[test]
    fn flooding_tenant_does_not_shed_a_light_tenant() {
        let (svc, _) = service_with(ServeConfig {
            workers: 2,
            queue_depth: 2,
            max_in_flight: 1,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        });
        let data = ctx(400_000);
        // Tenant A floods far past its queue depth.
        let mut a_tickets = Vec::new();
        for i in 0..16 {
            if let Ok(t) = svc.submit(QueryRequest::new(
                "a",
                sum_query(f64::from(i)),
                data.clone(),
                UdfRegistry::new(),
            )) {
                a_tickets.push(t);
            }
        }
        // Tenant B's occasional queries are admitted and answered:
        // admission is per-tenant, and round-robin dispatch guarantees
        // B's turn comes up regardless of A's backlog.
        for i in 0..3 {
            let got = svc
                .execute_blocking(QueryRequest::new(
                    "b",
                    sum_query(f64::from(i)),
                    ctx(100),
                    UdfRegistry::new(),
                ))
                .unwrap();
            assert_eq!(
                got,
                Steno::new()
                    .execute(&sum_query(f64::from(i)), &ctx(100), &UdfRegistry::new())
                    .unwrap()
            );
        }
        for t in a_tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn shutdown_fails_queued_work_and_rejects_new_submissions() {
        let (svc, _) = service_with(ServeConfig {
            workers: 1,
            max_in_flight: 1,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        });
        let data = ctx(400_000);
        let tickets: Vec<QueryTicket> = (0..6)
            .map(|i| {
                svc.submit(QueryRequest::new(
                    "acme",
                    sum_query(f64::from(i)),
                    data.clone(),
                    UdfRegistry::new(),
                ))
                .unwrap()
            })
            .collect();
        svc.shutdown();
        assert_eq!(
            svc.submit(QueryRequest::new(
                "acme",
                sum_query(0.0),
                ctx(10),
                UdfRegistry::new()
            ))
            .unwrap_err(),
            ServeError::ShuttingDown
        );
        let mut shut_down = 0;
        for t in tickets {
            match t.wait() {
                Ok(_) => {}
                Err(ServeError::ShuttingDown) => shut_down += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(shut_down > 0, "queued jobs must be failed by shutdown");
    }

    #[test]
    fn round_robin_take_next_respects_quota_and_rotation() {
        let (tx, _rx) = mpsc::sync_channel(1);
        let mut d = Dispatch::default();
        for (tenant, seq) in [("a", 0), ("a", 1), ("b", 2)] {
            let id = d.tenant_id(tenant);
            let job = Job {
                seq,
                tenant: id,
                req: Arc::new(QueryRequest::new(
                    tenant,
                    sum_query(0.0),
                    DataContext::new(),
                    UdfRegistry::new(),
                )),
                deadline: Instant::now() + Duration::from_secs(1),
                submitted: Instant::now(),
                cancel: CancelToken::new(),
                reply: tx.clone(),
            };
            if d.tenants[id].queue.is_empty() {
                d.rr.push_back(id);
            }
            d.tenants[id].queue.push_back(job);
        }
        // Round-robin alternates tenants; quota 1 parks tenant "a"
        // after its first job until in_flight drops.
        let first = d.take_next(1).unwrap();
        assert_eq!(first.req.tenant, "a");
        let second = d.take_next(1).unwrap();
        assert_eq!(second.req.tenant, "b");
        assert!(d.take_next(1).is_none(), "a is at its in-flight quota");
        let a = d.tenant_id("a");
        d.tenants[a].in_flight = 0;
        assert_eq!(d.take_next(1).unwrap().seq, 1);
        assert!(d.take_next(1).is_none(), "all queues drained");
    }

    #[test]
    fn negative_cache_is_bounded_fifo() {
        let mut nc = NegativeCache {
            cap: 2,
            ..NegativeCache::default()
        };
        let (a, b, c) = (sum_query(1.0), sum_query(2.0), sum_query(3.0));
        nc.insert(0, &a, "1".into());
        nc.insert(0, &b, "2".into());
        nc.insert(0, &c, "3".into());
        assert!(nc.get(0, &a).is_none(), "oldest entry evicted");
        assert_eq!(nc.get(0, &b).as_deref(), Some("2"));
        assert_eq!(nc.get(0, &c).as_deref(), Some("3"));
        assert_eq!(nc.map.len(), 2);
        // The key is (tenant, query): another tenant's entry is its own.
        assert!(nc.get(1, &b).is_none());
        // Re-inserting a present key neither replaces nor evicts.
        nc.insert(0, &b, "again".into());
        assert_eq!(nc.get(0, &b).as_deref(), Some("2"));
        assert_eq!(nc.map.len(), 2);
    }
}
