//! The Steno observability core: metrics, spans, and JSON snapshots.
//!
//! Every layer of the Steno pipeline reports *where time and elements
//! went* — which VM tier a loop landed in, how many batches a query
//! executed, how often the cluster retried a vertex — through one small,
//! dependency-free instrumentation surface (the build environment is
//! offline; neither `tracing` nor `metrics` is available, and nothing
//! here needs them):
//!
//! * [`Collector`] — the pluggable sink. Instrumented code calls
//!   [`Collector::add`] (monotonic counters), [`Collector::observe_ns`]
//!   (latency/size distributions), and [`Collector::time`] (RAII spans).
//! * [`NoopCollector`] — the default. `enabled()` is `false`, every hook
//!   is an empty inlineable body, and [`Span`] skips even the clock
//!   read, so un-instrumented runs pay nothing measurable.
//! * [`MemoryCollector`] — the in-process implementation: lock-free
//!   atomic counters and log2-bucketed histograms behind a name
//!   registry, snapshotted on demand.
//! * [`MetricsSnapshot`] — a point-in-time copy with a stable,
//!   hand-rolled JSON form ([`MetricsSnapshot::to_json`]) for the bench
//!   harness and external tooling, plus a human-readable
//!   [`MetricsSnapshot::render`].
//! * [`json`] — the minimal JSON escape/parse helpers shared by every
//!   exporter in the workspace (bench records, EXPLAIN plans, query
//!   profiles round-trip through it in tests).
//! * [`trace`] — steno-trace: hierarchical per-query spans ([`Tracer`],
//!   [`SpanGuard`]) with parent links, monotonic timestamps, key/value
//!   annotations, and bounded per-thread span rings; plus the
//!   [`FlightRecorder`] — a bounded ring of recent [`QueryTrace`]s that
//!   flags anomalies (deadline exceeded, trap, verifier reject, slow
//!   query) and renders annotated dumps with EXPLAIN attached.
//! * [`openmetrics`] — [`MetricsSnapshot::to_openmetrics`] text
//!   exposition (per-tenant label families included) and the scrape
//!   linter ([`openmetrics::lint`], [`openmetrics::counters_monotone`])
//!   CI runs against live output.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod json;
pub mod metrics;
pub mod openmetrics;
pub mod trace;

pub use metrics::{
    Collector, HistogramSnapshot, MemoryCollector, MetricsSnapshot, NoopCollector, Span,
};
pub use trace::{
    Anomaly, FlightRecorder, Note, PendingTrace, QueryTrace, SpanGuard, SpanId, SpanRecord,
    TraceConfig, TraceMeta, Tracer,
};
