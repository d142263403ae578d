//! steno-trace: hierarchical spans and the flight recorder.
//!
//! A [`Tracer`] is a cheap per-query handle: span ids, parent links,
//! monotonic timestamps (nanosecond offsets from the trace origin), and
//! per-span key/value [`Note`]s. Finished spans land in a bounded
//! thread-local ring — no locks on the record path, and a hot loop that
//! out-runs the drain simply overwrites its oldest spans instead of
//! growing. A disabled tracer ([`Tracer::disabled`]) never reads the
//! clock and never allocates; every operation is a branch on `None`.
//!
//! The [`FlightRecorder`] sits on top: it allocates trace ids, collects
//! each query's spans at completion into a [`QueryTrace`], classifies
//! anomalies (deadline exceeded, trap, verifier reject, slow query),
//! and keeps a bounded in-memory ring of recent traces so the
//! last moments before an incident can be dumped after the fact.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Spans kept per thread before the oldest are overwritten. Sized for a
/// worst-case single query (a few spans per loop, hundreds of loops)
/// with room for several queries between drains.
pub const SPAN_RING_CAPACITY: usize = 4096;

/// A span's identity within its trace. Ids are allocated from a
/// per-trace counter, so `(trace_id, SpanId)` is globally unique.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One key/value annotation on a span.
#[derive(Clone, Debug, PartialEq)]
pub enum Note {
    /// An unsigned magnitude (element counts, batch counts, bytes).
    U64(u64),
    /// A ratio or rate (selection density, ns/elem).
    F64(f64),
    /// A static label (tier names, outcome labels).
    Str(&'static str),
    /// An owned label (tenant names, error detail).
    Text(String),
}

impl From<u64> for Note {
    fn from(v: u64) -> Note {
        Note::U64(v)
    }
}
impl From<usize> for Note {
    fn from(v: usize) -> Note {
        Note::U64(v as u64)
    }
}
impl From<f64> for Note {
    fn from(v: f64) -> Note {
        Note::F64(v)
    }
}
impl From<&'static str> for Note {
    fn from(v: &'static str) -> Note {
        Note::Str(v)
    }
}
impl From<String> for Note {
    fn from(v: String) -> Note {
        Note::Text(v)
    }
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Note::U64(v) => write!(f, "{v}"),
            Note::F64(v) => write!(f, "{v:.4}"),
            Note::Str(v) => write!(f, "{v}"),
            Note::Text(v) => write!(f, "{v}"),
        }
    }
}

/// A finished span: identity, parent link, monotonic `[start, end)`
/// nanosecond offsets from the trace origin, and annotations.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// The owning trace.
    pub trace: u64,
    /// This span's id within the trace.
    pub id: SpanId,
    /// The enclosing span, `None` for roots.
    pub parent: Option<SpanId>,
    /// The span's name (a compile-time constant, greppable).
    pub name: &'static str,
    /// Start offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    /// End offset from the trace origin, nanoseconds.
    pub end_ns: u64,
    /// Key/value annotations, in the order added.
    pub notes: Vec<(&'static str, Note)>,
}

impl SpanRecord {
    /// The span's duration in nanoseconds (0 when the clock did not
    /// advance between start and end).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The value of note `key`, if present.
    pub fn note(&self, key: &str) -> Option<&Note> {
        self.notes.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// The per-thread span ring: bounded, overwrites oldest on overflow.
struct SpanRing {
    buf: VecDeque<SpanRecord>,
    dropped: u64,
}

impl SpanRing {
    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() >= SPAN_RING_CAPACITY {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// Removes and returns every span belonging to `trace`, plus the
    /// overwrite count accumulated since the last drain.
    fn drain(&mut self, trace: u64) -> (Vec<SpanRecord>, u64) {
        let mut out = Vec::new();
        self.buf.retain(|rec| {
            if rec.trace == trace {
                out.push(rec.clone());
                false
            } else {
                true
            }
        });
        let dropped = self.dropped;
        self.dropped = 0;
        (out, dropped)
    }
}

thread_local! {
    static RING: RefCell<SpanRing> = const {
        RefCell::new(SpanRing { buf: VecDeque::new(), dropped: 0 })
    };
}

fn ring_push(rec: SpanRecord) {
    RING.with(|r| r.borrow_mut().push(rec));
}

/// Shared identity of one trace: id, clock origin, span-id allocator.
#[derive(Debug)]
struct TraceInner {
    id: u64,
    origin: Instant,
    next: AtomicU32,
}

impl TraceInner {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn alloc(&self) -> SpanId {
        SpanId(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

/// A per-query trace handle. Clone-cheap (one `Arc` bump); the disabled
/// form is a `None` and every operation on it is free — the engine
/// threads a `&Tracer` through the hot path unconditionally and pays
/// nothing when tracing is off.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TraceInner>>,
}

impl Tracer {
    /// The inert tracer: records nothing, never reads the clock.
    pub const fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    fn active(id: u64, origin: Instant) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TraceInner {
                id,
                origin,
                next: AtomicU32::new(0),
            })),
        }
    }

    /// `true` when spans recorded through this tracer are kept.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, `None` when disabled.
    pub fn trace_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// Nanoseconds since the trace origin (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map(|i| i.now_ns()).unwrap_or(0)
    }

    /// Allocates a span id without recording anything — for spans whose
    /// children finish first (a root recorded retroactively at the end
    /// of a request still needs its id up front for parent links).
    pub fn reserve(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|i| i.alloc())
    }

    /// Opens a live span; it records itself into the thread ring on
    /// drop. On a disabled tracer this is free and records nothing.
    pub fn span(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { state: None },
            Some(inner) => SpanGuard {
                state: Some(GuardState {
                    inner: Arc::clone(inner),
                    id: inner.alloc(),
                    parent,
                    name,
                    start_ns: inner.now_ns(),
                    notes: Vec::new(),
                }),
            },
        }
    }

    /// Records a span retroactively with explicit offsets (for phases
    /// measured before the recording thread picked the work up, like
    /// queue wait). Returns the allocated id for parent links.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        notes: Vec<(&'static str, Note)>,
    ) -> Option<SpanId> {
        let id = self.reserve()?;
        self.record_reserved(id, name, parent, start_ns, end_ns, notes);
        Some(id)
    }

    /// Records a span under a previously [`reserve`](Tracer::reserve)d id.
    pub fn record_reserved(
        &self,
        id: SpanId,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        notes: Vec<(&'static str, Note)>,
    ) {
        if let Some(inner) = &self.inner {
            ring_push(SpanRecord {
                trace: inner.id,
                id,
                parent,
                name,
                start_ns,
                end_ns,
                notes,
            });
        }
    }

    /// Removes this trace's spans from the *current thread's* ring,
    /// sorted by `(start_ns, id)`, plus the count of spans the ring
    /// overwrote since its last drain. Spans recorded on other threads
    /// stay in their rings and age out — the serve layer records a whole
    /// query on the worker thread that runs it, so the drain sees
    /// everything.
    pub fn drain(&self) -> (Vec<SpanRecord>, u64) {
        let Some(inner) = &self.inner else {
            return (Vec::new(), 0);
        };
        let (mut spans, dropped) = RING.with(|r| r.borrow_mut().drain(inner.id));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        (spans, dropped)
    }
}

/// State of a live span; absent on a disabled tracer.
struct GuardState {
    inner: Arc<TraceInner>,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    notes: Vec<(&'static str, Note)>,
}

/// A live span: records itself into the thread ring when dropped, so a
/// span cut short by `?`-propagation still shows up (truncated) in the
/// trace — exactly what a deadline-abort dump needs.
pub struct SpanGuard {
    state: Option<GuardState>,
}

impl SpanGuard {
    /// A guard that records nothing (matches `Tracer::disabled()`).
    pub fn disabled() -> SpanGuard {
        SpanGuard { state: None }
    }

    /// This span's id for parent links, `None` when disabled.
    pub fn id(&self) -> Option<SpanId> {
        self.state.as_ref().map(|s| s.id)
    }

    /// Attaches a key/value annotation. No-op when disabled.
    pub fn note(&mut self, key: &'static str, value: impl Into<Note>) {
        if let Some(s) = &mut self.state {
            s.notes.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            let end_ns = s.inner.now_ns();
            ring_push(SpanRecord {
                trace: s.inner.id,
                id: s.id,
                parent: s.parent,
                name: s.name,
                start_ns: s.start_ns,
                end_ns,
                notes: s.notes,
            });
        }
    }
}

/// Why a trace was flagged for dumping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anomaly {
    /// The query ran past its deadline and was aborted.
    DeadlineExceeded,
    /// Execution trapped (division by zero, index out of bounds, …).
    Trap,
    /// The plan verifier rejected a compiled plan.
    VerifierReject,
    /// End-to-end latency exceeded the configured slow-query threshold.
    SlowQuery,
}

impl Anomaly {
    /// The stable lowercase label used in dumps and tests.
    pub fn label(&self) -> &'static str {
        match self {
            Anomaly::DeadlineExceeded => "deadline-exceeded",
            Anomaly::Trap => "trap",
            Anomaly::VerifierReject => "verifier-reject",
            Anomaly::SlowQuery => "slow-query",
        }
    }
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Flight-recorder sizing and anomaly thresholds.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Recent traces kept (oldest evicted beyond this).
    pub capacity: usize,
    /// Spans kept per trace (a runaway loop cannot balloon one entry).
    pub max_spans: usize,
    /// Latency at or above which a clean query is still flagged
    /// [`Anomaly::SlowQuery`]; `None` disables the threshold.
    pub slow_query: Option<Duration>,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: 64,
            max_spans: 512,
            slow_query: None,
        }
    }
}

/// Completion metadata the lifecycle owner hands to
/// [`FlightRecorder::finish`].
#[derive(Clone, Debug, Default)]
pub struct TraceMeta {
    /// The query text.
    pub query: String,
    /// The submitting tenant, when the query came through the service.
    pub tenant: Option<String>,
    /// An anomaly the caller already classified (deadline, trap,
    /// verifier reject). Slow-query is derived here.
    pub anomaly: Option<Anomaly>,
    /// Free-form detail (the error message, the rejected rewrite).
    pub detail: Option<String>,
    /// The query's EXPLAIN JSON, attached verbatim to dumps.
    pub explain_json: Option<String>,
}

/// One query's complete annotated trace.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// The trace id (monotonic per recorder).
    pub trace_id: u64,
    /// The query text.
    pub query: String,
    /// The submitting tenant, if any.
    pub tenant: Option<String>,
    /// Why this trace was flagged, `None` for a clean query.
    pub anomaly: Option<Anomaly>,
    /// Free-form anomaly detail.
    pub detail: Option<String>,
    /// End-to-end wall time (origin → finish), nanoseconds.
    pub wall_ns: u64,
    /// Spans sorted by `(start_ns, id)`.
    pub spans: Vec<SpanRecord>,
    /// Spans lost to ring overwrite or the per-trace cap.
    pub dropped_spans: u64,
    /// EXPLAIN JSON captured at finish, when available.
    pub explain_json: Option<String>,
}

impl QueryTrace {
    /// The first span named `name`, if any.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Renders the trace as an indented span tree with annotations,
    /// followed by the attached EXPLAIN JSON. This is the flight-recorder
    /// dump format.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {} anomaly={} wall={:.3}ms query={:?}\n",
            self.trace_id,
            self.anomaly.map(|a| a.label()).unwrap_or("none"),
            self.wall_ns as f64 / 1e6,
            self.query,
        );
        if let Some(t) = &self.tenant {
            out.push_str(&format!("tenant: {t}\n"));
        }
        if let Some(d) = &self.detail {
            out.push_str(&format!("detail: {d}\n"));
        }
        if self.dropped_spans > 0 {
            out.push_str(&format!("dropped spans: {}\n", self.dropped_spans));
        }
        // Indent each span one level under its parent; orphans (parent
        // aged out of the ring) render at the root.
        let ids: std::collections::BTreeSet<SpanId> = self.spans.iter().map(|s| s.id).collect();
        let mut depth: std::collections::BTreeMap<SpanId, usize> = std::collections::BTreeMap::new();
        for s in &self.spans {
            let d = match s.parent.filter(|p| ids.contains(p)) {
                Some(p) => depth.get(&p).copied().unwrap_or(0) + 1,
                None => 0,
            };
            depth.insert(s.id, d);
        }
        for s in &self.spans {
            let pad = "  ".repeat(depth.get(&s.id).copied().unwrap_or(0) + 1);
            let notes: Vec<String> = s.notes.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(
                "{pad}{} {} @{:.3}ms +{:.3}ms{}{}\n",
                s.id,
                s.name,
                s.start_ns as f64 / 1e6,
                s.duration_ns() as f64 / 1e6,
                if notes.is_empty() { "" } else { "  " },
                notes.join(" "),
            ));
        }
        if let Some(js) = &self.explain_json {
            out.push_str("explain:\n");
            out.push_str(js);
            if !js.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded in-memory ring of recent query traces.
///
/// `begin` hands out a [`Tracer`]; `finish` collects its spans,
/// classifies anomalies, and stores the [`QueryTrace`]. The ring holds
/// the last [`TraceConfig::capacity`] traces regardless of volume, so a
/// service can run it continuously and dump the recent history the
/// moment something trips.
///
/// A producer that answers its caller before finishing a trace announces
/// the trace with [`pending`](FlightRecorder::pending): until it is
/// finished, every reader waits for it, so a caller that has its answer
/// also sees the trace.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: TraceConfig,
    next_id: AtomicU64,
    recorded: AtomicU64,
    anomalies: AtomicU64,
    ring: Mutex<Ring>,
    /// Signalled when the last pending trace is settled.
    settled: Condvar,
}

/// The stored traces and the number announced but not yet finished.
#[derive(Debug, Default)]
struct Ring {
    traces: VecDeque<QueryTrace>,
    pending: usize,
}

/// A trace announced by [`FlightRecorder::pending`]. Readers of the
/// recorder wait until it is finished or dropped.
#[derive(Debug)]
pub struct PendingTrace<'a> {
    recorder: &'a FlightRecorder,
}

impl PendingTrace<'_> {
    /// Finishes the announced trace (see [`FlightRecorder::finish`]).
    pub fn finish(self, tracer: &Tracer, meta: TraceMeta) -> Option<Anomaly> {
        self.recorder.finish(tracer, meta)
    }
}

impl Drop for PendingTrace<'_> {
    fn drop(&mut self) {
        let mut ring = lock(&self.recorder.ring);
        ring.pending -= 1;
        if ring.pending == 0 {
            self.recorder.settled.notify_all();
        }
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(TraceConfig::default())
    }
}

impl FlightRecorder {
    /// Creates a recorder with the given sizing/thresholds.
    pub fn new(cfg: TraceConfig) -> FlightRecorder {
        FlightRecorder {
            cfg,
            next_id: AtomicU64::new(1),
            recorded: AtomicU64::new(0),
            anomalies: AtomicU64::new(0),
            ring: Mutex::new(Ring::default()),
            settled: Condvar::new(),
        }
    }

    /// The recorder's configuration.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Starts a trace whose clock origin is now.
    pub fn begin(&self) -> Tracer {
        self.begin_at(Instant::now())
    }

    /// Starts a trace whose clock origin is `origin` — lets a service
    /// anchor the trace at submission time so queue wait (which happened
    /// before any worker touched the job) still lands at offset zero.
    pub fn begin_at(&self, origin: Instant) -> Tracer {
        Tracer::active(self.next_id.fetch_add(1, Ordering::Relaxed), origin)
    }

    /// Completes a trace: drains its spans from the current thread's
    /// ring, derives the slow-query anomaly, and stores the trace.
    /// Returns the final anomaly classification. No-op on a disabled
    /// tracer.
    pub fn finish(&self, tracer: &Tracer, meta: TraceMeta) -> Option<Anomaly> {
        let trace_id = tracer.trace_id()?;
        let wall_ns = tracer.now_ns();
        let (mut spans, mut dropped) = tracer.drain();
        if spans.len() > self.cfg.max_spans {
            dropped += (spans.len() - self.cfg.max_spans) as u64;
            spans.truncate(self.cfg.max_spans);
        }
        let anomaly = meta.anomaly.or_else(|| {
            self.cfg
                .slow_query
                .filter(|t| wall_ns >= u64::try_from(t.as_nanos()).unwrap_or(u64::MAX))
                .map(|_| Anomaly::SlowQuery)
        });
        let trace = QueryTrace {
            trace_id,
            query: meta.query,
            tenant: meta.tenant,
            anomaly,
            detail: meta.detail,
            wall_ns,
            spans,
            dropped_spans: dropped,
            explain_json: meta.explain_json,
        };
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if anomaly.is_some() {
            self.anomalies.fetch_add(1, Ordering::Relaxed);
        }
        let mut ring = lock(&self.ring);
        if ring.traces.len() >= self.cfg.capacity.max(1) {
            ring.traces.pop_front();
        }
        ring.traces.push_back(trace);
        anomaly
    }

    /// Announces a trace that will be finished later, through the
    /// returned guard. Until then every reader below waits for it.
    pub fn pending(&self) -> PendingTrace<'_> {
        lock(&self.ring).pending += 1;
        PendingTrace { recorder: self }
    }

    /// The ring, once no announced trace is pending.
    fn settled(&self) -> MutexGuard<'_, Ring> {
        let mut ring = lock(&self.ring);
        while ring.pending > 0 {
            ring = self
                .settled
                .wait(ring)
                .unwrap_or_else(PoisonError::into_inner);
        }
        ring
    }

    /// The recent traces, oldest first.
    pub fn recent(&self) -> Vec<QueryTrace> {
        self.settled().traces.iter().cloned().collect()
    }

    /// The recent *anomalous* traces, oldest first — what an operator
    /// dumps after an incident.
    pub fn dumps(&self) -> Vec<QueryTrace> {
        self.settled()
            .traces
            .iter()
            .filter(|t| t.anomaly.is_some())
            .cloned()
            .collect()
    }

    /// The most recent anomalous trace, rendered.
    pub fn last_dump(&self) -> Option<String> {
        self.settled()
            .traces
            .iter()
            .rev()
            .find(|t| t.anomaly.is_some())
            .map(QueryTrace::render)
    }

    /// Total traces finished through this recorder.
    pub fn recorded(&self) -> u64 {
        let _settled = self.settled();
        self.recorded.load(Ordering::Relaxed)
    }

    /// Total traces classified anomalous.
    pub fn anomaly_count(&self) -> u64 {
        let _settled = self.settled();
        self.anomalies.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(q: &str) -> TraceMeta {
        TraceMeta {
            query: q.to_string(),
            ..TraceMeta::default()
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.trace_id(), None);
        assert_eq!(t.now_ns(), 0);
        assert_eq!(t.reserve(), None);
        let mut g = t.span("x", None);
        g.note("k", 1u64);
        assert_eq!(g.id(), None);
        drop(g);
        assert_eq!(t.record("y", None, 0, 1, Vec::new()), None);
        let (spans, dropped) = t.drain();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn spans_nest_with_parent_links_and_notes() {
        let rec = FlightRecorder::default();
        let t = rec.begin();
        let root = t.span("root", None);
        let root_id = root.id();
        {
            let mut child = t.span("child", root_id);
            child.note("elements", 42u64);
            child.note("tier", "vectorized");
        }
        drop(root);
        let (spans, _) = t.drain();
        assert_eq!(spans.len(), 2);
        // Sorted by start: root first (started earlier).
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].name, "child");
        assert_eq!(spans[1].parent, root_id);
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].note("elements"), Some(&Note::U64(42)));
        assert_eq!(spans[1].note("tier"), Some(&Note::Str("vectorized")));
        assert_eq!(spans[1].note("missing"), None);
    }

    #[test]
    fn retroactive_records_support_reserved_roots() {
        let rec = FlightRecorder::default();
        let t = rec.begin();
        let root = t.reserve().unwrap();
        let child = t
            .record("queue", Some(root), 10, 250, vec![("wait_ns", Note::U64(240))])
            .unwrap();
        t.record_reserved(root, "request", None, 0, 300, Vec::new());
        let (spans, _) = t.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "request");
        assert_eq!(spans[0].id, root);
        assert_eq!(spans[1].id, child);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].duration_ns(), 240);
    }

    #[test]
    fn thread_ring_is_bounded() {
        let rec = FlightRecorder::default();
        let t = rec.begin();
        for i in 0..(SPAN_RING_CAPACITY + 500) {
            t.record("s", None, i as u64, i as u64 + 1, Vec::new());
        }
        let (spans, dropped) = t.drain();
        assert_eq!(spans.len(), SPAN_RING_CAPACITY);
        assert_eq!(dropped, 500);
    }

    #[test]
    fn per_trace_span_cap_truncates() {
        let rec = FlightRecorder::new(TraceConfig {
            max_spans: 8,
            ..TraceConfig::default()
        });
        let t = rec.begin();
        for _ in 0..20 {
            drop(t.span("s", None));
        }
        rec.finish(&t, meta("q"));
        let traces = rec.recent();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].spans.len(), 8);
        assert_eq!(traces[0].dropped_spans, 12);
    }

    #[test]
    fn flight_recorder_ring_is_bounded_under_sustained_load() {
        // Satellite guardrail: 10⁵ queries through a small ring must not
        // grow memory — the ring holds exactly `capacity` traces at the
        // end and every anomaly is still counted.
        let rec = FlightRecorder::new(TraceConfig {
            capacity: 32,
            slow_query: Some(Duration::ZERO), // everything is "slow"
            ..TraceConfig::default()
        });
        for i in 0..100_000u64 {
            let t = rec.begin();
            drop(t.span("vm.run", None));
            rec.finish(
                &t,
                TraceMeta {
                    query: format!("q{i}"),
                    ..TraceMeta::default()
                },
            );
        }
        assert_eq!(rec.recorded(), 100_000);
        assert_eq!(rec.anomaly_count(), 100_000);
        assert_eq!(rec.recent().len(), 32);
        assert_eq!(rec.dumps().len(), 32);
        // The freshest trace is retained, the oldest evicted.
        assert_eq!(rec.recent().last().unwrap().query, "q99999");
    }

    #[test]
    fn anomalies_classify_explicit_and_slow() {
        let rec = FlightRecorder::new(TraceConfig {
            slow_query: Some(Duration::from_nanos(1)),
            ..TraceConfig::default()
        });
        // Explicit anomaly wins.
        let t = rec.begin();
        let got = rec.finish(
            &t,
            TraceMeta {
                query: "q".into(),
                anomaly: Some(Anomaly::DeadlineExceeded),
                ..TraceMeta::default()
            },
        );
        assert_eq!(got, Some(Anomaly::DeadlineExceeded));
        // Otherwise the slow-query threshold applies.
        let t = rec.begin();
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(rec.finish(&t, meta("q")), Some(Anomaly::SlowQuery));
        assert_eq!(rec.anomaly_count(), 2);
    }

    #[test]
    fn clean_queries_are_not_dumped() {
        let rec = FlightRecorder::default(); // no slow threshold
        let t = rec.begin();
        drop(t.span("vm.run", None));
        assert_eq!(rec.finish(&t, meta("q")), None);
        assert_eq!(rec.recorded(), 1);
        assert_eq!(rec.anomaly_count(), 0);
        assert!(rec.dumps().is_empty());
        assert!(rec.last_dump().is_none());
        assert_eq!(rec.recent().len(), 1);
    }

    #[test]
    fn render_shows_tree_notes_and_explain() {
        let rec = FlightRecorder::default();
        let t = rec.begin();
        let root = t.reserve().unwrap();
        t.record(
            "vm.loop",
            Some(root),
            100,
            900,
            vec![("tier", Note::Str("vectorized")), ("elements", Note::U64(7))],
        );
        t.record_reserved(root, "serve.request", None, 0, 1000, Vec::new());
        rec.finish(
            &t,
            TraceMeta {
                query: "xs.sum()".into(),
                tenant: Some("acme".into()),
                anomaly: Some(Anomaly::Trap),
                detail: Some("division by zero".into()),
                explain_json: Some("{\"query\": \"xs.sum()\"}".into()),
            },
        );
        let dump = rec.last_dump().unwrap();
        assert!(dump.contains("anomaly=trap"), "{dump}");
        assert!(dump.contains("tenant: acme"), "{dump}");
        assert!(dump.contains("detail: division by zero"), "{dump}");
        assert!(dump.contains("serve.request"), "{dump}");
        // Child indented one level deeper than the root.
        assert!(dump.contains("\n    #"), "child indent in {dump}");
        assert!(dump.contains("tier=vectorized elements=7"), "{dump}");
        assert!(dump.contains("explain:\n{\"query\": \"xs.sum()\"}"), "{dump}");
    }

    #[test]
    fn readers_wait_for_a_pending_trace() {
        let rec = FlightRecorder::default();
        std::thread::scope(|s| {
            let pending = rec.pending();
            let reader = s.spawn(|| rec.dumps().len());
            std::thread::sleep(Duration::from_millis(20));
            assert!(!reader.is_finished(), "the reader waits for the trace");
            let t = rec.begin();
            pending.finish(
                &t,
                TraceMeta {
                    anomaly: Some(Anomaly::Trap),
                    ..meta("xs.sum()")
                },
            );
            assert_eq!(reader.join().unwrap(), 1);
        });
        // A guard dropped unfinished releases its readers too.
        drop(rec.pending());
        assert_eq!(rec.recorded(), 1);
    }
}
