//! The cluster scheduler: map vertices on a worker pool, then reduce —
//! now with the Dryad re-execution contract of §6.
//!
//! Dryad's promise to DryadLINQ programs is that a failed or slow vertex
//! is re-executed (possibly speculatively) *without changing the job's
//! answer*. The runtime here reproduces that contract at one-machine
//! scale:
//!
//! * **Panic isolation** — vertex bodies run under `catch_unwind`; a
//!   panicking UDF becomes a structured failure instead of unwinding
//!   through the scheduler and aborting the job.
//! * **Retry with backoff** — transient failures (injected faults,
//!   panics, timeouts) are retried up to
//!   [`RetryPolicy::max_attempts`], with deterministic exponential
//!   backoff and jitter.
//! * **Speculative re-execution** — a vertex running far longer than the
//!   quantile of its completed siblings gets a backup attempt; the first
//!   result wins and the loser is cooperatively cancelled.
//! * **Error taxonomy** — deterministic, data-dependent errors
//!   (`VmError::DivisionByZero` and friends) are *never* retried and
//!   surface byte-identical to the single-node engines, so the
//!   distributed path cannot disagree with reference semantics about
//!   failures.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use steno_expr::eval::{eval, Env};
use steno_expr::{Column, DataContext, Ty, UdfRegistry, Value};
use steno_query::typing::SourceTypes;
use steno_query::QueryExpr;
use steno_quil::ir::{QuilChain, SrcDesc};
use steno_quil::parallel::{self, ParallelPlan, Reduce};
use steno_quil::{lower, passes, LowerError};
use steno_vm::CompiledQuery;

use crate::chain_interp;
use crate::fault::{self, CancelToken, FailureClass, FaultKind, FaultPlan, VertexFailure};
use crate::job::JobGraph;
use crate::partition::DistributedCollection;
use crate::retry::{RetryPolicy, SpeculationPolicy};
use crate::sync::{Condvar, Mutex};

/// Which executor runs inside each map vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VertexEngine {
    /// Steno-optimized: the subchain compiled once and applied per
    /// partition (the `HomomorphicApply` of §6).
    Steno,
    /// Unoptimized: the same subchain through boxed iterator state
    /// machines.
    Linq,
}

/// The simulated cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    /// Number of worker threads executing vertices.
    pub workers: usize,
}

impl Default for ClusterSpec {
    fn default() -> ClusterSpec {
        ClusterSpec { workers: 4 }
    }
}

/// The fault-tolerance knobs of a distributed run: retry budget,
/// straggler speculation, and (for tests) the fault-injection schedule.
#[derive(Clone, Debug, Default)]
pub struct RuntimeConfig {
    /// Retry/backoff/deadline policy for transient vertex failures.
    pub retry: RetryPolicy,
    /// When to launch speculative duplicates of stragglers.
    pub speculation: SpeculationPolicy,
    /// Deterministic fault injection (empty in production).
    pub faults: FaultPlan,
}

impl RuntimeConfig {
    /// A default runtime with the given fault-injection schedule.
    pub fn with_faults(faults: FaultPlan) -> RuntimeConfig {
        RuntimeConfig {
            faults,
            ..RuntimeConfig::default()
        }
    }
}

/// One retry decision, for the [`JobReport`] log.
#[derive(Clone, Debug)]
pub struct RetryEvent {
    /// The vertex whose attempt failed.
    pub vertex: usize,
    /// The attempt (0-based) that failed transiently.
    pub attempt: u32,
    /// Why it failed.
    pub reason: String,
    /// The backoff applied before the replacement attempt.
    pub backoff: Duration,
}

impl fmt::Display for RetryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vertex {} attempt {} failed ({}); retrying after {:?}",
            self.vertex, self.attempt, self.reason, self.backoff
        )
    }
}

/// What the fault-tolerant `HomomorphicApply` did, beyond the values.
#[derive(Clone, Debug, Default)]
pub struct ApplyStats {
    /// Re-executions caused by transient failures (not speculation).
    pub retries: usize,
    /// Speculative backup attempts launched for stragglers.
    pub speculation_launched: usize,
    /// Vertices whose winning result came from a speculative backup.
    pub speculation_wins: usize,
    /// Attempts launched per vertex (1 = clean first run).
    pub vertex_attempts: Vec<u32>,
    /// Wall time of the winning attempt, per vertex.
    pub vertex_wall: Vec<Duration>,
    /// Every retry decision, in the order taken.
    pub retry_log: Vec<RetryEvent>,
}

/// What a distributed run did, for experiments and tests.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Number of input partitions (map vertices).
    pub partitions: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Which engine ran the map vertices.
    pub engine: VertexEngine,
    /// One-off optimization cost (zero for [`VertexEngine::Linq`]).
    pub compile_time: Duration,
    /// Wall time of the map phase.
    pub map_wall: Duration,
    /// Wall time of the reduce phase.
    pub reduce_wall: Duration,
    /// Elements crossing the map → reduce boundary (the coordination
    /// volume that partial aggregation shrinks, §6).
    pub exchanged_elements: usize,
    /// Total input elements across all partitions (map-phase volume).
    pub input_elements: usize,
    /// Input elements per map vertex (for per-vertex throughput).
    pub vertex_elements: Vec<usize>,
    /// Which VM tier the Steno-compiled map vertices ran on
    /// (`None` for [`VertexEngine::Linq`]).
    pub map_vm_engine: Option<steno_vm::EngineKind>,
    /// Whether the plan used `Agg_i`/partial-sink decomposition.
    pub partial_aggregation: bool,
    /// The job graph that ran.
    pub graph: JobGraph,
    /// Map-vertex re-executions caused by transient failures.
    pub retries: usize,
    /// Speculative backup attempts launched for stragglers.
    pub speculation_launched: usize,
    /// Vertices whose result came from a speculative backup.
    pub speculation_wins: usize,
    /// Attempts launched per map vertex (1 = clean first run).
    pub vertex_attempts: Vec<u32>,
    /// Wall time of the winning attempt, per map vertex.
    pub vertex_wall: Vec<Duration>,
    /// Every retry decision taken during the map phase.
    pub retry_log: Vec<RetryEvent>,
}

/// `elems / wall`, `None` when the wall clock rounded to zero (sub-tick
/// phases on coarse clocks must not divide by zero).
fn throughput(elems: usize, wall: Duration) -> Option<f64> {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        Some(elems as f64 / secs)
    } else {
        None
    }
}

impl JobReport {
    /// Map-phase throughput in input elements per second, `None` when
    /// the phase was too fast to measure.
    pub fn map_elements_per_sec(&self) -> Option<f64> {
        throughput(self.input_elements, self.map_wall)
    }

    /// Reduce-phase throughput in exchanged elements per second, `None`
    /// when the phase was too fast to measure.
    pub fn reduce_elements_per_sec(&self) -> Option<f64> {
        throughput(self.exchanged_elements, self.reduce_wall)
    }

    /// Per-vertex throughput (input elements per second of the winning
    /// attempt); `None` entries are vertices too fast to measure.
    pub fn vertex_elements_per_sec(&self) -> Vec<Option<f64>> {
        self.vertex_elements
            .iter()
            .zip(&self.vertex_wall)
            .map(|(&n, &wall)| throughput(n, wall))
            .collect()
    }

    /// Total attempts launched across all map vertices (equals the
    /// partition count on a clean run).
    pub fn total_attempts(&self) -> u64 {
        self.vertex_attempts.iter().map(|&a| u64::from(a)).sum()
    }

    /// Folds the report into a metrics [`steno_obs::Collector`]:
    /// volume/fault counters plus phase, per-vertex, and retry-backoff
    /// wall-time histograms. Cheap no-op on a disabled collector, so
    /// callers can record unconditionally.
    pub fn record_to(&self, c: &dyn steno_obs::Collector) {
        fn ns(d: Duration) -> u64 {
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
        }
        if !c.enabled() {
            return;
        }
        c.add("cluster.jobs", 1);
        c.add("cluster.input_elements", self.input_elements as u64);
        c.add("cluster.exchanged_elements", self.exchanged_elements as u64);
        c.add("cluster.retries", self.retries as u64);
        c.add(
            "cluster.speculation_launched",
            self.speculation_launched as u64,
        );
        c.add("cluster.speculation_wins", self.speculation_wins as u64);
        c.add("cluster.vertex_attempts", self.total_attempts());
        c.add("cluster.retry_events", self.retry_log.len() as u64);
        c.observe_ns("cluster.compile_ns", ns(self.compile_time));
        c.observe_ns("cluster.map_wall_ns", ns(self.map_wall));
        c.observe_ns("cluster.reduce_wall_ns", ns(self.reduce_wall));
        for w in &self.vertex_wall {
            c.observe_ns("cluster.vertex_wall_ns", ns(*w));
        }
        for ev in &self.retry_log {
            c.observe_ns("cluster.retry_backoff_ns", ns(ev.backoff));
        }
    }

    /// Records the job's phase timings as retroactive spans under
    /// `parent`: `cluster.job` wrapping `cluster.compile` →
    /// `cluster.map` (one `cluster.vertex` child per map vertex,
    /// anchored at the map phase start — vertices ran concurrently) →
    /// `cluster.reduce`. The job report only keeps phase durations, so
    /// the spans are laid out sequentially backwards from
    /// `tracer.now_ns()`; that preserves every duration and the parent
    /// structure, which is what the flight-recorder dump needs. No-op
    /// on a disabled tracer.
    pub fn record_spans(&self, tracer: &steno_obs::Tracer, parent: Option<steno_obs::SpanId>) {
        use steno_obs::Note;

        if !tracer.enabled() {
            return;
        }
        fn ns(d: Duration) -> u64 {
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
        }
        let (compile, map, reduce) = (
            ns(self.compile_time),
            ns(self.map_wall),
            ns(self.reduce_wall),
        );
        let end = tracer.now_ns();
        let start = end.saturating_sub(compile + map + reduce);
        let job = tracer.record(
            "cluster.job",
            parent,
            start,
            end,
            vec![
                ("partitions", Note::from(self.partitions as u64)),
                ("workers", Note::from(self.workers as u64)),
                ("input_elements", Note::from(self.input_elements as u64)),
                (
                    "exchanged_elements",
                    Note::from(self.exchanged_elements as u64),
                ),
                ("retries", Note::from(self.retries as u64)),
            ],
        );
        let compile_end = start + compile;
        tracer.record("cluster.compile", job, start, compile_end, Vec::new());
        let map_end = compile_end + map;
        let map_id = tracer.record("cluster.map", job, compile_end, map_end, Vec::new());
        for (i, wall) in self.vertex_wall.iter().enumerate() {
            let attempts = self.vertex_attempts.get(i).copied().unwrap_or(1);
            let elements = self.vertex_elements.get(i).copied().unwrap_or(0);
            tracer.record(
                "cluster.vertex",
                map_id,
                compile_end,
                compile_end + ns(*wall),
                vec![
                    ("vertex", Note::from(i as u64)),
                    ("attempts", Note::from(u64::from(attempts))),
                    ("elements", Note::from(elements as u64)),
                ],
            );
        }
        tracer.record("cluster.reduce", job, map_end, map_end + reduce, Vec::new());
    }
}

impl fmt::Display for JobReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let engine = match (self.engine, self.map_vm_engine) {
            (VertexEngine::Steno, Some(vm)) => format!("steno/{vm}"),
            (VertexEngine::Steno, None) => "steno".to_string(),
            (VertexEngine::Linq, _) => "linq".to_string(),
        };
        write!(
            f,
            "job: {} partitions on {} workers, engine {engine}; \
             map {:?} ({}), reduce {:?} ({}); {} in → {} exchanged; \
             retries {}, speculation {}/{}, {} attempts, {} retry events",
            self.partitions,
            self.workers,
            self.map_wall,
            match self.map_elements_per_sec() {
                Some(eps) => format!("{eps:.0} elem/s"),
                None => "too fast to measure".to_string(),
            },
            self.reduce_wall,
            match self.reduce_elements_per_sec() {
                Some(eps) => format!("{eps:.0} elem/s"),
                None => "too fast to measure".to_string(),
            },
            self.input_elements,
            self.exchanged_elements,
            self.retries,
            self.speculation_wins,
            self.speculation_launched,
            self.total_attempts(),
            self.retry_log.len(),
        )
    }
}

/// A distributed execution error.
#[derive(Debug)]
pub enum DistError {
    /// The query could not be lowered to QUIL.
    Lower(LowerError),
    /// The query's root source is not the partitioned collection.
    BadRoot(String),
    /// A driver-side stage failed (compilation, reduce, merge).
    Vertex(String),
    /// A map vertex failed *deterministically*: re-execution must fail
    /// identically, so it was never retried. `message` is byte-identical
    /// to the single-node engine's error for the same data.
    VertexFailed {
        /// The failing vertex (partition index).
        vertex: usize,
        /// Attempts launched for this vertex (1 = failed on first run).
        attempts: u32,
        /// The single-node-identical error message.
        message: String,
    },
    /// A map vertex panicked on every allowed attempt. The panic was
    /// caught at the vertex boundary; the worker pool survived.
    VertexPanic {
        /// The panicking vertex (partition index).
        vertex: usize,
        /// The panic payload (stringified).
        payload: String,
    },
    /// Transient failures exhausted the retry budget.
    RetriesExhausted {
        /// The failing vertex (partition index).
        vertex: usize,
        /// Attempts consumed.
        attempts: u32,
        /// The last transient failure observed.
        last: String,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Lower(e) => write!(f, "{e}"),
            DistError::BadRoot(msg) => write!(f, "bad root source: {msg}"),
            DistError::Vertex(msg) => write!(f, "vertex failed: {msg}"),
            DistError::VertexFailed {
                vertex,
                attempts,
                message,
            } => write!(
                f,
                "vertex {vertex} failed deterministically (attempt {attempts}, not retried): {message}"
            ),
            DistError::VertexPanic { vertex, payload } => {
                write!(f, "vertex {vertex} panicked: {payload}")
            }
            DistError::RetriesExhausted {
                vertex,
                attempts,
                last,
            } => write!(
                f,
                "vertex {vertex} still failing after {attempts} attempts: {last}"
            ),
        }
    }
}

impl std::error::Error for DistError {}

// ---------------------------------------------------------------------
// The fault-tolerant vertex scheduler.
// ---------------------------------------------------------------------

/// A scheduled execution of one vertex attempt.
struct Task {
    vertex: usize,
    attempt: u32,
    speculative: bool,
    not_before: Instant,
    cancel: CancelToken,
}

enum SlotState {
    Pending,
    Done,
    Failed,
}

/// A running attempt of a vertex.
struct Inflight {
    attempt: u32,
    started: Instant,
    cancel: CancelToken,
}

/// Per-vertex scheduler state.
struct Slot {
    state: SlotState,
    value: Option<Value>,
    /// Attempt ids handed out so far (also the count of launches).
    next_attempt: u32,
    /// Attempts that have failed transiently.
    failed_attempts: u32,
    /// Tasks for this vertex sitting in the queue.
    queued: usize,
    /// Attempts currently executing.
    inflight: Vec<Inflight>,
    /// Speculative backups launched.
    backups: usize,
    /// Wall time of the winning attempt.
    wall: Duration,
    /// Whether the winning attempt was a speculative backup.
    won_by_speculation: bool,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: SlotState::Pending,
            value: None,
            next_attempt: 1, // attempt 0 is seeded into the queue
            failed_attempts: 0,
            queued: 1,
            inflight: Vec::new(),
            backups: 0,
            wall: Duration::ZERO,
            won_by_speculation: false,
        }
    }

    fn is_pending(&self) -> bool {
        matches!(self.state, SlotState::Pending)
    }
}

struct Shared {
    queue: Mutex<Vec<Task>>,
    cv: Condvar,
    slots: Vec<Mutex<Slot>>,
    done: AtomicBool,
    terminal: AtomicUsize,
    fatal: Mutex<Option<DistError>>,
    retries: AtomicUsize,
    spec_launched: AtomicUsize,
    spec_wins: AtomicUsize,
    retry_log: Mutex<Vec<RetryEvent>>,
}

impl Shared {
    fn new(n: usize) -> Shared {
        let now = Instant::now();
        Shared {
            queue: Mutex::new(
                (0..n)
                    .map(|v| Task {
                        vertex: v,
                        attempt: 0,
                        speculative: false,
                        not_before: now,
                        cancel: CancelToken::new(),
                    })
                    .collect(),
            ),
            cv: Condvar::new(),
            slots: (0..n).map(|_| Mutex::new(Slot::new())).collect(),
            done: AtomicBool::new(false),
            terminal: AtomicUsize::new(0),
            fatal: Mutex::new(None),
            retries: AtomicUsize::new(0),
            spec_launched: AtomicUsize::new(0),
            spec_wins: AtomicUsize::new(0),
            retry_log: Mutex::new(Vec::new()),
        }
    }

    /// Marks one vertex terminally resolved; stops the pool when all are.
    fn finish_one(&self) {
        if self.terminal.fetch_add(1, Ordering::SeqCst) + 1 == self.slots.len() {
            self.stop();
        }
    }

    /// Records the job-fatal error (first one wins) and stops the pool.
    fn fail_job(&self, e: DistError) {
        {
            let mut f = self.fatal.lock();
            if f.is_none() {
                *f = Some(e);
            }
        }
        self.stop();
    }

    fn stop(&self) {
        self.done.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Pops the next eligible task, waiting for backoff windows; `None`
    /// once the pool is shutting down.
    fn next_task(&self) -> Option<Task> {
        let mut q = self.queue.lock();
        loop {
            if self.is_done() {
                return None;
            }
            let now = Instant::now();
            if let Some(pos) = q.iter().position(|t| t.not_before <= now) {
                return Some(q.swap_remove(pos));
            }
            let wait = q
                .iter()
                .map(|t| t.not_before.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(5))
                .max(Duration::from_micros(100));
            q = self.cv.wait_timeout(q, wait);
        }
    }

    /// Handles a transient attempt failure: schedule a retry while the
    /// budget lasts, otherwise fail the job once no sibling attempt can
    /// still rescue the vertex. Caller holds the slot lock.
    fn transient_failure(
        &self,
        cfg: &RuntimeConfig,
        slot: &mut Slot,
        vertex: usize,
        attempt: u32,
        fail: VertexFailure,
    ) {
        slot.failed_attempts += 1;
        let job_failing = self.fatal.lock().is_some();
        if !job_failing && slot.failed_attempts < cfg.retry.max_attempts {
            let next = slot.next_attempt;
            slot.next_attempt += 1;
            slot.queued += 1;
            let backoff = cfg.retry.backoff(vertex, slot.failed_attempts);
            self.retries.fetch_add(1, Ordering::SeqCst);
            self.retry_log.lock().push(RetryEvent {
                vertex,
                attempt,
                reason: fail.message,
                backoff,
            });
            self.queue.lock().push(Task {
                vertex,
                attempt: next,
                speculative: false,
                not_before: Instant::now() + backoff,
                cancel: CancelToken::new(),
            });
            self.cv.notify_all();
        } else if slot.inflight.is_empty() && slot.queued == 0 {
            // Nothing left that could still produce a result.
            slot.state = SlotState::Failed;
            let e = if fail.panicked {
                DistError::VertexPanic {
                    vertex,
                    payload: fail.message,
                }
            } else {
                DistError::RetriesExhausted {
                    vertex,
                    attempts: slot.failed_attempts,
                    last: fail.message,
                }
            };
            self.fail_job(e);
        }
        // Otherwise a queued retry or speculative sibling may still win.
    }
}

/// The deliberate injection point for [`FaultKind::Panic`] — the one
/// place non-test scheduler code is allowed to panic, because the panic
/// is immediately caught by the vertex boundary it exists to test.
#[allow(clippy::panic)]
fn injected_panic(vertex: usize, attempt: u32) -> Value {
    panic!("injected panic: vertex {vertex} attempt {attempt}")
}

/// Runs one attempt: consult the fault plan, then the real vertex body
/// under `catch_unwind`. `None` means the attempt was cooperatively
/// cancelled mid-stall and produced no outcome.
fn run_attempt<F>(
    cfg: &RuntimeConfig,
    task: &Task,
    part: &Column,
    f: &F,
) -> Option<Result<Value, VertexFailure>>
where
    F: Fn(usize, &Column) -> Result<Value, VertexFailure> + Sync,
{
    match cfg.faults.lookup(task.vertex, task.attempt) {
        Some(FaultKind::Error) => {
            return Some(Err(VertexFailure::transient(format!(
                "injected fault: vertex {} attempt {}",
                task.vertex, task.attempt
            ))))
        }
        Some(FaultKind::Panic) => {
            let r = catch_unwind(AssertUnwindSafe(|| injected_panic(task.vertex, task.attempt)));
            return Some(match r {
                Ok(v) => Ok(v), // unreachable: injected_panic always panics
                Err(p) => Err(VertexFailure::panic(fault::panic_payload(p.as_ref()))),
            });
        }
        // Cancelled while stalling: a losing straggler with no outcome.
        Some(FaultKind::Delay(d)) if !task.cancel.sleep_cooperatively(*d) => return None,
        Some(FaultKind::Delay(_)) => {}
        None => {}
    }
    match catch_unwind(AssertUnwindSafe(|| f(task.vertex, part))) {
        Ok(r) => Some(r),
        Err(p) => Some(Err(VertexFailure::panic(fault::panic_payload(p.as_ref())))),
    }
}

/// Records the outcome of an attempt against its vertex slot.
fn record_outcome(
    sh: &Shared,
    cfg: &RuntimeConfig,
    task: &Task,
    started: Instant,
    outcome: Option<Result<Value, VertexFailure>>,
) {
    let mut slot = sh.slots[task.vertex].lock();
    // De-register from inflight. An attempt the monitor already declared
    // timed out is no longer tracked; its failure was accounted there.
    let tracked = match slot.inflight.iter().position(|i| i.attempt == task.attempt) {
        Some(pos) => {
            slot.inflight.swap_remove(pos);
            true
        }
        None => false,
    };
    let Some(outcome) = outcome else {
        return; // cancelled stall: no result to record
    };
    if !slot.is_pending() {
        return; // a sibling attempt already resolved this vertex
    }
    match outcome {
        Ok(v) => {
            slot.state = SlotState::Done;
            slot.value = Some(v);
            slot.wall = started.elapsed();
            slot.won_by_speculation = task.speculative;
            if task.speculative {
                sh.spec_wins.fetch_add(1, Ordering::SeqCst);
            }
            for i in slot.inflight.drain(..) {
                i.cancel.cancel();
            }
            sh.finish_one();
        }
        Err(fail) => match fail.class {
            FailureClass::Deterministic => {
                // Dryad's contract says re-execution cannot change the
                // answer; a deterministic failure *is* the answer.
                slot.state = SlotState::Failed;
                for i in slot.inflight.drain(..) {
                    i.cancel.cancel();
                }
                let attempts = slot.next_attempt;
                sh.fail_job(DistError::VertexFailed {
                    vertex: task.vertex,
                    attempts,
                    message: fail.message,
                });
            }
            FailureClass::Transient => {
                if tracked {
                    sh.transient_failure(cfg, &mut slot, task.vertex, task.attempt, fail);
                }
            }
        },
    }
}

/// The monitor pass: declare timed-out attempts transient failures and
/// launch speculative backups for stragglers.
fn monitor_tick(sh: &Shared, cfg: &RuntimeConfig) {
    let now = Instant::now();
    // Attempt deadlines → transient failures (the stuck attempt keeps
    // running — threads are not preemptible — but a replacement is
    // scheduled and the stall, if injected, is cooperatively cancelled).
    if let Some(deadline) = cfg.retry.attempt_deadline {
        for (v, s) in sh.slots.iter().enumerate() {
            let mut slot = s.lock();
            if !slot.is_pending() {
                continue;
            }
            let mut expired = Vec::new();
            let mut live = Vec::new();
            for i in slot.inflight.drain(..) {
                if now.duration_since(i.started) > deadline {
                    expired.push(i);
                } else {
                    live.push(i);
                }
            }
            slot.inflight = live;
            for i in expired {
                i.cancel.cancel();
                let fail = VertexFailure::transient(format!(
                    "attempt deadline {deadline:?} exceeded at vertex {v}"
                ));
                sh.transient_failure(cfg, &mut slot, v, i.attempt, fail);
            }
        }
    }
    // Straggler speculation.
    if cfg.speculation.enabled {
        let completed: Vec<Duration> = sh
            .slots
            .iter()
            .filter_map(|s| {
                let slot = s.lock();
                match slot.state {
                    SlotState::Done => Some(slot.wall),
                    _ => None,
                }
            })
            .collect();
        let Some(threshold) = cfg.speculation.threshold(&completed) else {
            return;
        };
        for (v, s) in sh.slots.iter().enumerate() {
            let mut slot = s.lock();
            if !slot.is_pending()
                || slot.backups >= cfg.speculation.max_backups
                || slot.inflight.is_empty()
            {
                continue;
            }
            let Some(oldest) = slot.inflight.iter().map(|i| i.started).min() else {
                continue;
            };
            if now.duration_since(oldest) <= threshold {
                continue;
            }
            let attempt = slot.next_attempt;
            slot.next_attempt += 1;
            slot.backups += 1;
            slot.queued += 1;
            sh.spec_launched.fetch_add(1, Ordering::SeqCst);
            sh.queue.lock().push(Task {
                vertex: v,
                attempt,
                speculative: true,
                not_before: now,
                cancel: CancelToken::new(),
            });
            sh.cv.notify_all();
        }
    }
}

/// The fault-tolerant `HomomorphicApply`: applies `f` to every partition
/// on a pool of `workers` threads, retrying transient failures with
/// backoff, speculatively duplicating stragglers, and isolating panics —
/// results are collected in partition order.
///
/// # Errors
///
/// [`DistError::VertexFailed`] for deterministic failures (never
/// retried), [`DistError::VertexPanic`] / [`DistError::RetriesExhausted`]
/// when the transient-retry budget runs out.
pub fn homomorphic_apply_rt<F>(
    partitions: &[Column],
    workers: usize,
    cfg: &RuntimeConfig,
    f: F,
) -> Result<(Vec<Value>, ApplyStats), DistError>
where
    F: Fn(usize, &Column) -> Result<Value, VertexFailure> + Sync,
{
    let n = partitions.len();
    if n == 0 {
        return Ok((Vec::new(), ApplyStats::default()));
    }
    let workers = workers.clamp(1, n);
    let sh = Shared::new(n);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(task) = sh.next_task() {
                    {
                        let mut slot = sh.slots[task.vertex].lock();
                        slot.queued = slot.queued.saturating_sub(1);
                        if !slot.is_pending() {
                            continue; // stale task for a resolved vertex
                        }
                        slot.inflight.push(Inflight {
                            attempt: task.attempt,
                            started: Instant::now(),
                            cancel: task.cancel.clone(),
                        });
                    }
                    let started = Instant::now();
                    let outcome = run_attempt(cfg, &task, &partitions[task.vertex], &f);
                    record_outcome(&sh, cfg, &task, started, outcome);
                }
            });
        }
        // This thread is the monitor: watch for stragglers / timeouts.
        while !sh.is_done() {
            std::thread::sleep(Duration::from_micros(500));
            monitor_tick(&sh, cfg);
        }
        // Shutting down: release any attempt still stalling cooperatively.
        for s in &sh.slots {
            for i in &s.lock().inflight {
                i.cancel.cancel();
            }
        }
    });

    if let Some(e) = sh.fatal.lock().take() {
        return Err(e);
    }
    let mut values = Vec::with_capacity(n);
    let mut stats = ApplyStats {
        retries: sh.retries.load(Ordering::SeqCst),
        speculation_launched: sh.spec_launched.load(Ordering::SeqCst),
        speculation_wins: sh.spec_wins.load(Ordering::SeqCst),
        vertex_attempts: Vec::with_capacity(n),
        vertex_wall: Vec::with_capacity(n),
        retry_log: std::mem::take(&mut *sh.retry_log.lock()),
    };
    for (i, s) in sh.slots.into_iter().enumerate() {
        let slot = s.into_inner();
        stats.vertex_attempts.push(slot.next_attempt);
        stats.vertex_wall.push(slot.wall);
        match (slot.state, slot.value) {
            (SlotState::Done, Some(v)) => values.push(v),
            _ => {
                // Unreachable when the scheduler is correct: every vertex
                // either resolves or fails the job with its cause.
                return Err(DistError::Vertex(format!(
                    "vertex {i} left unresolved by the scheduler"
                )));
            }
        }
    }
    Ok((values, stats))
}

/// Applies `f` to every partition on a pool of `workers` threads and
/// collects results in partition order — the `HomomorphicApply` operator
/// added to PLINQ in §6 ("maps a function across partitions in parallel,
/// as opposed to each element").
///
/// Errors from `f` are treated as deterministic (never retried),
/// matching the pre-fault-tolerance contract of this function; panics in
/// `f` are isolated and retried. Use [`homomorphic_apply_rt`] for the
/// full classified interface.
///
/// # Errors
///
/// As [`homomorphic_apply_rt`].
pub fn homomorphic_apply<F>(
    partitions: &[Column],
    workers: usize,
    f: F,
) -> Result<Vec<Value>, DistError>
where
    F: Fn(usize, &Column) -> Result<Value, String> + Sync,
{
    let cfg = RuntimeConfig::default();
    homomorphic_apply_rt(partitions, workers, &cfg, |i, part| {
        f(i, part).map_err(VertexFailure::deterministic)
    })
    .map(|(values, _)| values)
}

fn count_exchanged(values: &[Value]) -> usize {
    values
        .iter()
        .map(|v| match v {
            Value::Seq(s) => s.len(),
            _ => 1,
        })
        .sum()
}

fn run_chain_serial(
    chain: &QuilChain,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    engine: VertexEngine,
) -> Result<Value, DistError> {
    match engine {
        VertexEngine::Steno => {
            let compiled = CompiledQuery::from_chain(chain, udfs)
                .map_err(|e| DistError::Vertex(e.to_string()))?;
            compiled
                .run(ctx, udfs)
                .map_err(|e| DistError::Vertex(e.to_string()))
        }
        VertexEngine::Linq => chain_interp::execute_chain(chain, ctx, udfs)
            .map_err(|e| DistError::Vertex(e.to_string())),
    }
}

/// Executes a query over a partitioned collection on the simulated
/// cluster (§6), with the default fault-tolerance runtime (retries and
/// speculation on, no injected faults).
///
/// The query's root source must be `input`; any other named source it
/// references is *broadcast* — available in full at every vertex (the
/// k-means centroids, §7.2).
///
/// # Errors
///
/// Returns [`DistError`] for unloweable queries, mismatched roots, or
/// vertex failures.
pub fn execute_distributed(
    q: &QueryExpr,
    input: &DistributedCollection,
    broadcast: &DataContext,
    udfs: &UdfRegistry,
    spec: &ClusterSpec,
    engine: VertexEngine,
) -> Result<(Value, JobReport), DistError> {
    execute_distributed_with(q, input, broadcast, udfs, spec, engine, &RuntimeConfig::default())
}

/// As [`execute_distributed`], with an explicit [`RuntimeConfig`]
/// (retry policy, speculation policy, fault injection).
///
/// # Errors
///
/// As [`execute_distributed`].
#[allow(clippy::too_many_arguments)]
pub fn execute_distributed_with(
    q: &QueryExpr,
    input: &DistributedCollection,
    broadcast: &DataContext,
    udfs: &UdfRegistry,
    spec: &ClusterSpec,
    engine: VertexEngine,
    runtime: &RuntimeConfig,
) -> Result<(Value, JobReport), DistError> {
    // Types: the partitioned source plus broadcast sources.
    let mut sources = SourceTypes::from(broadcast);
    let elem_ty = input
        .partitions
        .first()
        .map(Column::elem_ty)
        .unwrap_or(Ty::F64);
    sources.insert(input.name.clone(), elem_ty);

    let t0 = Instant::now();
    let chain = lower(q, &sources, udfs).map_err(DistError::Lower)?;
    let chain = passes::optimize(&chain);
    match &chain.src {
        SrcDesc::Collection { name, .. } if *name == input.name => {}
        other => {
            return Err(DistError::BadRoot(format!(
                "query iterates {other:?}, expected the partitioned collection `{}`",
                input.name
            )))
        }
    }
    let plan = parallel::plan(&chain);
    let compiled_map = match engine {
        VertexEngine::Steno => Some(
            CompiledQuery::from_chain(&plan.map_chain, udfs)
                .map_err(|e| DistError::Vertex(e.to_string()))?,
        ),
        VertexEngine::Linq => None,
    };
    let compile_time = t0.elapsed();

    // ---- map phase (fault-tolerant) ----
    let t_map = Instant::now();
    let map_chain = &plan.map_chain;
    let (partials, stats) =
        homomorphic_apply_rt(&input.partitions, spec.workers, runtime, |_, part| {
            let mut ctx = broadcast.clone();
            ctx.insert(input.name.clone(), part.clone());
            match &compiled_map {
                // Engine runtime errors are data-dependent: deterministic,
                // never retried, surfaced identical to single-node runs.
                Some(c) => c
                    .run(&ctx, udfs)
                    .map_err(|e| VertexFailure::deterministic(e.to_string())),
                None => chain_interp::execute_chain(map_chain, &ctx, udfs)
                    .map_err(|e| VertexFailure::deterministic(e.to_string())),
            }
        })?;
    let map_wall = t_map.elapsed();
    let exchanged_elements = count_exchanged(&partials);
    let vertex_elements: Vec<usize> = input.partitions.iter().map(Column::len).collect();
    let input_elements: usize = vertex_elements.iter().sum();

    // ---- reduce phase ----
    let t_reduce = Instant::now();
    let result = reduce(&plan, partials, broadcast, udfs, engine)?;
    let reduce_wall = t_reduce.elapsed();

    let report = JobReport {
        partitions: input.partition_count(),
        workers: spec.workers,
        engine,
        compile_time,
        map_wall,
        reduce_wall,
        exchanged_elements,
        input_elements,
        vertex_elements,
        map_vm_engine: compiled_map.as_ref().map(CompiledQuery::engine),
        partial_aggregation: plan.uses_partial_aggregation(),
        graph: JobGraph::from_plan(&plan, input.partition_count()),
        retries: stats.retries,
        speculation_launched: stats.speculation_launched,
        speculation_wins: stats.speculation_wins,
        vertex_attempts: stats.vertex_attempts,
        vertex_wall: stats.vertex_wall,
        retry_log: stats.retry_log,
    };
    Ok((result, report))
}

/// Rebuilds a type-specialized column from boxed values, so downstream
/// Steno-compiled chains get the indexed access they were generated for.
/// Falls back to a boxed column when any element has an unexpected shape.
fn typed_column(values: Vec<Value>, elem_ty: &Ty) -> Column {
    fn collect<T>(values: &[Value], get: impl Fn(&Value) -> Option<T>) -> Option<Vec<T>> {
        values.iter().map(get).collect()
    }
    match elem_ty {
        Ty::F64 => match collect(&values, Value::as_f64) {
            Some(xs) => Column::from_f64(xs),
            None => Column::from_values(values),
        },
        Ty::I64 => match collect(&values, Value::as_i64) {
            Some(xs) => Column::from_i64(xs),
            None => Column::from_values(values),
        },
        Ty::Bool => match collect(&values, Value::as_bool) {
            Some(xs) => Column::from_bool(xs),
            None => Column::from_values(values),
        },
        _ => Column::from_values(values),
    }
}

fn reduce(
    plan: &ParallelPlan,
    partials: Vec<Value>,
    broadcast: &DataContext,
    udfs: &UdfRegistry,
    engine: VertexEngine,
) -> Result<Value, DistError> {
    let vertex = |e: steno_expr::EvalError| DistError::Vertex(e.to_string());
    match &plan.reduce {
        Reduce::Concat => {
            let mut out = Vec::new();
            for p in partials {
                match p {
                    Value::Seq(s) => out.extend(s.iter().cloned()),
                    other => out.push(other),
                }
            }
            Ok(Value::seq(out))
        }
        Reduce::CombinePartials(agg) => {
            // The Agg* vertex of Fig. 12.
            let mut iter = partials.into_iter();
            let mut acc = iter
                .next()
                .ok_or_else(|| DistError::Vertex("no partitions".into()))?;
            for p in iter {
                acc = chain_interp::combine_agg(agg, acc, p, udfs).map_err(vertex)?;
            }
            chain_interp::finish_agg(agg, acc, udfs).map_err(vertex)
        }
        Reduce::MergeGroupedPartials {
            agg,
            key_param,
            agg_param,
            result,
        } => {
            // Merge per-key partials in partition order, then finish and
            // apply the result selector.
            let mut index = std::collections::HashMap::new();
            let mut entries: Vec<(Value, Value)> = Vec::new();
            for p in partials {
                let Value::Seq(pairs) = p else {
                    return Err(DistError::Vertex(
                        "grouped map vertex did not yield pairs".into(),
                    ));
                };
                for kv in pairs.iter() {
                    let (k, partial) = kv
                        .as_pair()
                        .ok_or_else(|| DistError::Vertex("expected (key, acc) pairs".into()))?;
                    match index.get(&k.key()) {
                        None => {
                            index.insert(k.key(), entries.len());
                            entries.push((k.clone(), partial.clone()));
                        }
                        Some(&slot) => {
                            let merged = chain_interp::combine_agg(
                                agg,
                                entries[slot].1.clone(),
                                partial.clone(),
                                udfs,
                            )
                            .map_err(vertex)?;
                            entries[slot].1 = merged;
                        }
                    }
                }
            }
            let mut out = Vec::with_capacity(entries.len());
            for (k, acc) in entries {
                let fin = chain_interp::finish_agg(agg, acc, udfs).map_err(vertex)?;
                let env = Env::new()
                    .with(key_param.clone(), k)
                    .with(agg_param.clone(), fin);
                out.push(eval(result, &env, udfs).map_err(vertex)?);
            }
            Ok(Value::seq(out))
        }
        Reduce::MergeSorted {
            param,
            key,
            descending,
        } => {
            // Partition outputs are sorted runs; merge by key.
            let mut decorated: Vec<(Value, Value)> = Vec::new();
            for p in partials {
                let Value::Seq(items) = p else {
                    return Err(DistError::Vertex("sorted vertex did not yield a run".into()));
                };
                for v in items.iter() {
                    let env = Env::new().with(param.clone(), v.clone());
                    let k = eval(key, &env, udfs).map_err(vertex)?;
                    decorated.push((k, v.clone()));
                }
            }
            decorated.sort_by(|(a, _), (b, _)| {
                let ord = a.cmp_total(b);
                if *descending {
                    ord.reverse()
                } else {
                    ord
                }
            });
            Ok(Value::seq(decorated.into_iter().map(|(_, v)| v).collect()))
        }
        Reduce::SerialRest { ops, agg } => {
            // Concatenate and run the remainder serially.
            let mut merged = Vec::new();
            for p in partials {
                match p {
                    Value::Seq(s) => merged.extend(s.iter().cloned()),
                    other => merged.push(other),
                }
            }
            let elem_ty = plan.map_chain.elem_ty();
            let rest_chain = QuilChain {
                src: SrcDesc::Collection {
                    name: "__cluster_merged".into(),
                    elem_ty: elem_ty.clone(),
                },
                ops: ops.clone(),
                agg: agg.clone(),
            };
            let mut ctx = broadcast.clone();
            ctx.insert("__cluster_merged", typed_column(merged, &elem_ty));
            run_chain_serial(&rest_chain, &ctx, udfs, engine)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::Expr;
    use steno_linq::interp;
    use steno_query::{GroupResult, Query};

    fn x() -> Expr {
        Expr::var("x")
    }

    /// Structural equality with a relative tolerance on floats:
    /// partitioned partial aggregation reassociates floating-point sums,
    /// so distributed results may differ from serial ones in the last
    /// ulps (as on the real system).
    fn assert_close(a: &Value, b: &Value, what: &str) {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => {
                let close = (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
                    || (x.is_nan() && y.is_nan());
                assert!(close, "{what}: {x} vs {y}");
            }
            (Value::Seq(xs), Value::Seq(ys)) => {
                assert_eq!(xs.len(), ys.len(), "{what}: length");
                for (x, y) in xs.iter().zip(ys.iter()) {
                    assert_close(x, y, what);
                }
            }
            (Value::Pair(x), Value::Pair(y)) => {
                assert_close(&x.0, &y.0, what);
                assert_close(&x.1, &y.1, what);
            }
            (x, y) => assert_eq!(x.key(), y.key(), "{what}"),
        }
    }

    /// Distributed result == serial interpreter result, on both engines.
    #[track_caller]
    fn check_equivalence(q: QueryExpr, data: Vec<f64>, partitions: usize) {
        let udfs = UdfRegistry::new();
        let serial_ctx = DataContext::new().with_source("xs", data.clone());
        let expected = interp::execute(&q, &serial_ctx, &udfs).unwrap();
        let input = DistributedCollection::from_f64("xs", data, partitions);
        let spec = ClusterSpec { workers: 3 };
        for engine in [VertexEngine::Steno, VertexEngine::Linq] {
            let (got, _) = execute_distributed(
                &q,
                &input,
                &DataContext::new(),
                &udfs,
                &spec,
                engine,
            )
            .unwrap();
            assert_close(&got, &expected, &format!("engine {engine:?}, query {q}"));
        }
    }

    #[test]
    fn partial_sums_match_serial() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.01 - 3.0).collect();
        let q = Query::source("xs").select(x() * x(), "x").sum().build();
        check_equivalence(q, data, 7);
    }

    #[test]
    fn elementwise_chains_concatenate_in_order() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let q = Query::source("xs")
            .where_((x() % Expr::litf(3.0)).eq(Expr::litf(0.0)), "x")
            .select(x() * Expr::litf(2.0), "x")
            .build();
        check_equivalence(q, data, 4);
    }

    #[test]
    fn grouped_aggregation_merges_across_partitions() {
        let data: Vec<f64> = (0..500).map(|i| (i % 13) as f64).collect();
        let q = Query::source("xs")
            .group_by_result(
                x().floor(),
                "x",
                GroupResult::keyed("k", "g", Query::over(Expr::var("g")).count().build()),
            )
            .build();
        check_equivalence(q, data, 5);
    }

    #[test]
    fn average_finishes_after_combining() {
        let data: Vec<f64> = (1..=101).map(|i| i as f64).collect();
        let q = Query::source("xs").average().build();
        check_equivalence(q, data, 8);
    }

    #[test]
    fn order_by_merges_sorted_runs() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 7919) % 451) as f64).collect();
        let q = Query::source("xs").order_by(x(), "x").build();
        check_equivalence(q, data, 6);
    }

    #[test]
    fn take_runs_serial_remainder() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let q = Query::source("xs")
            .select(x() + Expr::litf(1.0), "x")
            .take(10)
            .sum()
            .build();
        check_equivalence(q, data, 4);
    }

    #[test]
    fn partial_aggregation_reduces_exchange_volume() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let q = Query::source("xs").sum().build();
        let input = DistributedCollection::from_f64("xs", data, 10);
        let udfs = UdfRegistry::new();
        let (_, report) = execute_distributed(
            &q,
            &input,
            &DataContext::new(),
            &udfs,
            &ClusterSpec { workers: 2 },
            VertexEngine::Steno,
        )
        .unwrap();
        assert!(report.partial_aggregation);
        // One partial accumulator per partition, not 10k elements.
        assert_eq!(report.exchanged_elements, 10);
        assert_eq!(report.partitions, 10);
        assert!(report.graph.to_string().contains("Agg*"));
        // A fault-free run does no recovery work.
        assert_eq!(report.retries, 0);
        assert_eq!(report.speculation_wins, 0);
        assert!(report.vertex_attempts.iter().all(|&a| a == 1));
        assert_eq!(report.vertex_wall.len(), 10);
        // Vectorized map vertices and coherent throughput accounting.
        assert_eq!(report.map_vm_engine, Some(steno_vm::EngineKind::Vectorized));
        assert_eq!(report.input_elements, 10_000);
        assert_eq!(report.vertex_elements, vec![1_000; 10]);
        // Throughput is either measurable and positive, or None on a
        // sub-tick phase — never a division by zero.
        if let Some(eps) = report.map_elements_per_sec() {
            assert!(eps > 0.0);
        }
        assert_eq!(report.vertex_elements_per_sec().len(), 10);
        let shown = report.to_string();
        assert!(shown.contains("steno/vectorized"), "display: {shown}");
        assert!(shown.contains("10000 in"), "display: {shown}");
        // The fault-tolerance summary is part of the human-readable form.
        assert!(shown.contains("retries 0"), "display: {shown}");
        assert!(shown.contains("speculation 0/"), "display: {shown}");
        assert!(shown.contains("10 attempts"), "display: {shown}");
        assert!(shown.contains("0 retry events"), "display: {shown}");
    }

    #[test]
    fn job_reports_fold_into_a_collector() {
        use steno_obs::{Collector, MemoryCollector};

        let data: Vec<f64> = (0..1_000).map(|i| i as f64).collect();
        let q = Query::source("xs").sum().build();
        let input = DistributedCollection::from_f64("xs", data, 4);
        let runtime = RuntimeConfig::with_faults(FaultPlan::fail_each_once(4));
        let (_, report) = execute_distributed_with(
            &q,
            &input,
            &DataContext::new(),
            &UdfRegistry::new(),
            &ClusterSpec { workers: 2 },
            VertexEngine::Steno,
            &runtime,
        )
        .unwrap();
        let metrics = MemoryCollector::new();
        report.record_to(&metrics);
        assert_eq!(metrics.counter_value("cluster.jobs"), 1);
        assert_eq!(metrics.counter_value("cluster.input_elements"), 1_000);
        assert_eq!(metrics.counter_value("cluster.retries"), report.retries as u64);
        assert!(metrics.counter_value("cluster.retries") >= 4);
        assert_eq!(
            metrics.counter_value("cluster.vertex_attempts"),
            report.total_attempts()
        );
        assert_eq!(
            metrics.counter_value("cluster.retry_events"),
            report.retry_log.len() as u64
        );
        let snap = metrics.snapshot();
        let vertex_hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "cluster.vertex_wall_ns")
            .unwrap();
        assert_eq!(vertex_hist.count as usize, report.vertex_wall.len());
        // Recording twice accumulates; a disabled collector is a no-op.
        report.record_to(&metrics);
        assert_eq!(metrics.counter_value("cluster.jobs"), 2);
        let noop = steno_obs::NoopCollector;
        assert!(!noop.enabled());
        report.record_to(&noop);
    }

    #[test]
    fn linq_vertices_report_no_vm_engine() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let q = Query::source("xs").sum().build();
        let input = DistributedCollection::from_f64("xs", data, 4);
        let (_, report) = execute_distributed(
            &q,
            &input,
            &DataContext::new(),
            &UdfRegistry::new(),
            &ClusterSpec { workers: 2 },
            VertexEngine::Linq,
        )
        .unwrap();
        assert_eq!(report.map_vm_engine, None);
        assert!(report.to_string().contains("engine linq"));
    }

    #[test]
    fn broadcast_sources_reach_every_vertex() {
        // xs.Select(x => x * scale.First()) with `scale` broadcast.
        let q = Query::source("xs")
            .select_query(
                Query::source("scale").first(),
                "x",
            )
            .sum()
            .build();
        let data: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0];
        let input = DistributedCollection::from_f64("xs", data, 2);
        let broadcast = DataContext::new().with_source("scale", vec![2.5f64]);
        let udfs = UdfRegistry::new();
        let (v, _) = execute_distributed(
            &q,
            &input,
            &broadcast,
            &udfs,
            &ClusterSpec { workers: 2 },
            VertexEngine::Steno,
        )
        .unwrap();
        assert_eq!(v, Value::F64(10.0));
    }

    #[test]
    fn root_must_be_the_partitioned_collection() {
        let q = Query::source("ys").sum().build();
        let input = DistributedCollection::from_f64("xs", vec![1.0], 1);
        let broadcast = DataContext::new().with_source("ys", vec![1.0f64]);
        let err = execute_distributed(
            &q,
            &input,
            &broadcast,
            &UdfRegistry::new(),
            &ClusterSpec::default(),
            VertexEngine::Steno,
        );
        assert!(matches!(err, Err(DistError::BadRoot(_))));
    }

    #[test]
    fn homomorphic_apply_collects_in_partition_order() {
        let parts: Vec<Column> =
            (0..6).map(|i| Column::from_f64(vec![i as f64])).collect();
        let got = homomorphic_apply(&parts, 3, |i, c| {
            Ok(Value::F64(c.to_values()[0].as_f64().unwrap() + i as f64))
        })
        .unwrap();
        let want: Vec<Value> = (0..6).map(|i| Value::F64(2.0 * i as f64)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn homomorphic_apply_surfaces_string_errors_without_retry() {
        let parts: Vec<Column> = (0..3).map(|_| Column::from_f64(vec![1.0])).collect();
        let err = homomorphic_apply(&parts, 2, |i, _| {
            if i == 1 {
                Err("bad partition".to_string())
            } else {
                Ok(Value::F64(0.0))
            }
        })
        .unwrap_err();
        match err {
            DistError::VertexFailed {
                vertex,
                attempts,
                message,
            } => {
                assert_eq!(vertex, 1);
                assert_eq!(attempts, 1, "string errors are deterministic: no retry");
                assert_eq!(message, "bad partition");
            }
            other => panic!("expected VertexFailed, got {other:?}"),
        }
    }

    #[test]
    fn panicking_closure_is_isolated_and_reported() {
        let parts: Vec<Column> = (0..2).map(|_| Column::from_f64(vec![1.0])).collect();
        let cfg = RuntimeConfig::default();
        let err = homomorphic_apply_rt(&parts, 2, &cfg, |i, _| {
            if i == 0 {
                panic!("udf exploded");
            }
            Ok(Value::F64(1.0))
        })
        .unwrap_err();
        match err {
            DistError::VertexPanic { vertex, payload } => {
                assert_eq!(vertex, 0);
                assert!(payload.contains("udf exploded"), "payload: {payload}");
            }
            other => panic!("expected VertexPanic, got {other:?}"),
        }
    }

    #[test]
    fn transient_injection_is_retried_to_success() {
        let parts: Vec<Column> =
            (0..4).map(|i| Column::from_f64(vec![i as f64])).collect();
        let cfg = RuntimeConfig::with_faults(FaultPlan::fail_once(2));
        let (values, stats) = homomorphic_apply_rt(&parts, 2, &cfg, |_, c| {
            Ok(Value::F64(c.to_values()[0].as_f64().unwrap()))
        })
        .unwrap();
        assert_eq!(values.len(), 4);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.vertex_attempts[2], 2);
        assert_eq!(stats.retry_log.len(), 1);
        assert_eq!(stats.retry_log[0].vertex, 2);
    }
}
