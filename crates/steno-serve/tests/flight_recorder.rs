//! End-to-end flight-recorder acceptance: a query served through the
//! full admit → queue → compile → execute pipeline that trips an
//! anomaly must leave a complete annotated trace — parent-linked spans
//! for every lifecycle phase plus the query's EXPLAIN JSON — in the
//! engine's flight recorder.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use steno::Steno;
use steno_expr::{DataContext, Expr, Ty, UdfRegistry};
use steno_obs::{Anomaly, FlightRecorder, MemoryCollector, SpanRecord, TraceConfig};
use steno_query::{Query, QueryExpr};
use steno_serve::{QueryRequest, QueryService, ServeConfig, ServeError};

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

/// Asserts `child` is present and parented under `parent`.
fn assert_child_of(spans: &[SpanRecord], child: &str, parent: &str) {
    let p = spans
        .iter()
        .find(|s| s.name == parent)
        .unwrap_or_else(|| panic!("missing span {parent}"));
    let c = spans
        .iter()
        .find(|s| s.name == child)
        .unwrap_or_else(|| panic!("missing span {child}"));
    assert_eq!(
        c.parent,
        Some(p.id),
        "{child} must be a child of {parent}, got parent {:?}",
        c.parent
    );
}

/// The acceptance scenario: a single worker, a 50ms deadline, and a
/// pure UDF in the query that sleeps 200ms on its first call only. The
/// compile completes in budget, the first call sleeps the run past the
/// deadline, and the VM aborts at its next interrupt poll — *inside* a
/// loop whose span has already opened. Deterministic: no data race, no
/// timing sensitivity beyond 200ms ≫ 50ms.
#[test]
fn deadline_exceeded_query_dumps_a_fully_linked_trace() {
    let recorder = Arc::new(FlightRecorder::new(TraceConfig::default()));
    let engine = Steno::new().with_flight_recorder(recorder.clone());
    let svc = QueryService::start(
        engine,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );

    let napped = AtomicBool::new(false);
    let mut udfs = UdfRegistry::new();
    udfs.register_pure("nap", vec![Ty::F64], Ty::F64, move |args| {
        if !napped.swap(true, Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(200));
        }
        args[0].clone()
    });
    let q = Query::source("xs")
        .where_(Expr::var("x").gt(Expr::litf(0.5)), "x")
        .select(
            Expr::call("nap", vec![Expr::var("x")]) * Expr::var("x"),
            "x",
        )
        .sum()
        .build();
    let req =
        QueryRequest::new("acme", q, ctx(10_000), udfs).with_deadline(Duration::from_millis(50));
    let err = svc.execute_blocking(req).unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded);

    let dumps = recorder.dumps();
    assert_eq!(dumps.len(), 1, "exactly one anomalous trace");
    let trace = &dumps[0];
    assert_eq!(trace.anomaly, Some(Anomaly::DeadlineExceeded));
    assert_eq!(trace.tenant.as_deref(), Some("acme"));

    // The whole lifecycle, parent-linked: request root over admission,
    // queue wait, and dispatch; compile and execution under dispatch;
    // the VM run under execution; the aborted loop under the run.
    let spans = &trace.spans;
    let root = trace.span("serve.request").expect("serve.request root");
    assert_eq!(root.parent, None, "the request span is the trace root");
    assert_child_of(spans, "serve.admit", "serve.request");
    assert_child_of(spans, "serve.queue", "serve.request");
    assert_child_of(spans, "serve.dispatch", "serve.request");
    assert_child_of(spans, "engine.compile", "serve.dispatch");
    assert_child_of(spans, "serve.execute", "serve.dispatch");
    assert_child_of(spans, "vm.run", "serve.execute");
    assert_child_of(spans, "vm.loop", "vm.run");

    // Annotations survive: the queue span carries its measured wait,
    // the root the outcome.
    assert!(trace.span("serve.queue").unwrap().note("wait_ns").is_some());
    assert_eq!(
        trace.span("serve.request").unwrap().note("outcome").map(ToString::to_string),
        Some("deadline-exceeded".to_string())
    );

    // EXPLAIN rides along, as valid JSON.
    let explain = trace.explain_json.as_deref().expect("EXPLAIN attached");
    steno_obs::json::parse(explain).expect("EXPLAIN JSON parses");
    assert!(explain.contains("\"optimized\": true"), "{explain}");
    assert!(explain.contains("\"quil\""), "{explain}");

    // The rendered dump is the operator-facing artifact.
    let dump = recorder.last_dump().expect("a rendered dump");
    for needle in ["serve.request", "serve.queue", "vm.loop", "explain:"] {
        assert!(dump.contains(needle), "dump missing {needle}:\n{dump}");
    }
}

/// A clean query under a zero slow-query threshold still dumps (the
/// threshold comparison is `>=`), with EXPLAIN attached — and the
/// service's per-tenant metric families record the outcome.
#[test]
fn slow_query_threshold_and_tenant_families() {
    let metrics = Arc::new(MemoryCollector::new());
    let recorder = Arc::new(FlightRecorder::new(TraceConfig {
        slow_query: Some(Duration::ZERO),
        ..TraceConfig::default()
    }));
    let engine = Steno::new()
        .with_collector(metrics.clone())
        .with_flight_recorder(recorder.clone());
    let svc = QueryService::start(engine, ServeConfig::default());

    let start = Instant::now();
    svc.execute_blocking(QueryRequest::new(
        "zeta",
        sum_query(0.5),
        ctx(1_000),
        UdfRegistry::new(),
    ))
    .unwrap();
    assert!(start.elapsed() < Duration::from_secs(5));

    let dumps = recorder.dumps();
    assert_eq!(dumps.len(), 1);
    assert_eq!(dumps[0].anomaly, Some(Anomaly::SlowQuery));
    assert!(dumps[0].explain_json.is_some(), "slow dumps carry EXPLAIN");
    assert!(dumps[0].span("vm.loop").is_some(), "execution spans present");

    assert_eq!(metrics.labeled_counter_value("serve.tenant.submitted", "zeta"), 1);
    assert_eq!(metrics.labeled_counter_value("serve.tenant.completed", "zeta"), 1);
    assert_eq!(metrics.labeled_counter_value("serve.tenant.completed", "acme"), 0);
    let snap = metrics.snapshot();
    assert!(
        snap.labeled_histograms
            .iter()
            .any(|(tenant, h)| tenant == "zeta" && h.name == "serve.tenant.latency_ns"),
        "per-tenant latency family recorded: {:?}",
        snap.labeled_histograms
            .iter()
            .map(|(t, h)| (t.clone(), h.name.clone()))
            .collect::<Vec<_>>()
    );
}
