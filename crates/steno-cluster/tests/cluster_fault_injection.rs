//! Fault-injection tests for the cluster runtime (Dryad §6's
//! re-execution contract): transient failures are retried and change
//! nothing, deterministic failures are never retried and surface
//! byte-identical to single-node runs, panics are isolated at the vertex
//! boundary, and straggler speculation preserves the answer.

use std::time::Duration;

use steno_cluster::exec::execute_distributed_with;
use steno_cluster::{
    execute_distributed, ClusterSpec, DistError, DistributedCollection, FaultKind, FaultPlan,
    RetryPolicy, RuntimeConfig, SpeculationPolicy, VertexEngine,
};
use steno_expr::{DataContext, Expr, Ty, UdfRegistry, Value};
use steno_query::{GroupResult, Query, QueryExpr};
use steno_vm::CompiledQuery;

const PARTITIONS: usize = 6;

fn f64_data(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64) * 0.75 - 40.0).collect()
}

/// `xs.Select(x => x * x + 1).Sum()` — an associative aggregate, so the
/// plan decomposes into per-partition partials (§6).
fn sum_query() -> QueryExpr {
    Query::source("xs")
        .select(
            Expr::var("x") * Expr::var("x") + Expr::litf(1.0),
            "x",
        )
        .sum()
        .build()
}

/// `ns.GroupBy(x => x % 5).Select((k, g) => (k, g.Count()))` — the
/// histogram shape, exercising the grouped-partial merge.
fn histogram_query() -> QueryExpr {
    Query::source("ns")
        .group_by_result(
            Expr::var("x") % Expr::liti(5),
            "x",
            GroupResult::keyed("k", "g", Query::over(Expr::var("g")).count().build()),
        )
        .build()
}

fn run(
    q: &QueryExpr,
    input: &DistributedCollection,
    engine: VertexEngine,
    runtime: &RuntimeConfig,
) -> Result<(Value, steno_cluster::JobReport), DistError> {
    let broadcast = DataContext::new();
    let udfs = UdfRegistry::new();
    let spec = ClusterSpec { workers: 3 };
    execute_distributed_with(q, input, &broadcast, &udfs, &spec, engine, runtime)
}

// ---------------------------------------------------------------------
// Transient failures: retried, answer unchanged.
// ---------------------------------------------------------------------

#[test]
fn transient_fault_is_retried_and_the_answer_is_unchanged() {
    let q = sum_query();
    let input = DistributedCollection::from_f64("xs", f64_data(600), PARTITIONS);
    for engine in [VertexEngine::Steno, VertexEngine::Linq] {
        let (clean, clean_report) = run(&q, &input, engine, &RuntimeConfig::default()).unwrap();
        assert_eq!(clean_report.retries, 0);

        let runtime = RuntimeConfig::with_faults(FaultPlan::fail_once(2));
        let (recovered, report) = run(&q, &input, engine, &runtime).unwrap();
        assert_eq!(recovered.key(), clean.key(), "engine {engine:?}");
        assert_eq!(report.retries, 1);
        assert_eq!(report.vertex_attempts[2], 2, "vertex 2 needed a retry");
        for (v, &attempts) in report.vertex_attempts.iter().enumerate() {
            if v != 2 {
                assert_eq!(attempts, 1, "vertex {v} ran clean");
            }
        }
        assert_eq!(report.retry_log.len(), 1);
        assert_eq!(report.retry_log[0].vertex, 2);
        assert_eq!(report.retry_log[0].attempt, 0);
    }
}

#[test]
fn every_vertex_failing_once_still_recovers_identically() {
    // The acceptance bar: fail each map vertex's first attempt for both
    // workload shapes; the recovered answers must be identical.
    let sum_q = sum_query();
    let sum_input = DistributedCollection::from_f64("xs", f64_data(600), PARTITIONS);
    let hist_q = histogram_query();
    let hist_input = DistributedCollection::from_i64(
        "ns",
        (0..500).map(|i| (i * 7 + 3) % 23).collect(),
        PARTITIONS,
    );

    let runtime = RuntimeConfig::with_faults(FaultPlan::fail_each_once(PARTITIONS));
    let (clean_sum, _) = run(&sum_q, &sum_input, VertexEngine::Steno, &RuntimeConfig::default())
        .unwrap();
    let (sum, sum_report) = run(&sum_q, &sum_input, VertexEngine::Steno, &runtime).unwrap();
    assert_eq!(sum.key(), clean_sum.key());
    assert!(
        sum_report.retries >= PARTITIONS,
        "expected >= {PARTITIONS} retries, got {}",
        sum_report.retries
    );

    let (clean_hist, _) = run(
        &hist_q,
        &hist_input,
        VertexEngine::Steno,
        &RuntimeConfig::default(),
    )
    .unwrap();
    let (hist, hist_report) = run(&hist_q, &hist_input, VertexEngine::Steno, &runtime).unwrap();
    assert_eq!(hist.key(), clean_hist.key());
    assert!(hist_report.retries >= PARTITIONS);
    assert!(hist_report.vertex_attempts.iter().all(|&a| a >= 2));
}

#[test]
fn retries_exhausted_surfaces_the_last_transient_error() {
    let q = sum_query();
    let input = DistributedCollection::from_f64("xs", f64_data(120), PARTITIONS);
    // Vertex 1 fails transiently on every attempt the budget allows.
    let faults = (0..8).fold(FaultPlan::none(), |p, a| {
        p.with(1, a, FaultKind::Error)
    });
    let runtime = RuntimeConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
        speculation: SpeculationPolicy::disabled(),
        faults,
    };
    let err = run(&q, &input, VertexEngine::Steno, &runtime).unwrap_err();
    match err {
        DistError::RetriesExhausted {
            vertex,
            attempts,
            ref last,
        } => {
            assert_eq!(vertex, 1);
            assert_eq!(attempts, 3);
            assert!(last.contains("injected fault"), "last = {last}");
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Deterministic failures: never retried, single-node-identical message.
// ---------------------------------------------------------------------

#[test]
fn deterministic_errors_are_not_retried_and_match_single_node() {
    // One partition holds a zero divisor: integer division by zero is
    // data-dependent, so re-execution must fail identically — the runtime
    // fails fast instead of retrying.
    let mut data: Vec<i64> = (1..=240).collect();
    data[200] = 0; // lands in a late partition
    let q = Query::source("ns")
        .select(Expr::liti(100) / Expr::var("x"), "x")
        .sum()
        .build();

    // The single-node reference error.
    let ctx = DataContext::new().with_source("ns", data.clone());
    let udfs = UdfRegistry::new();
    let compiled = CompiledQuery::compile(&q, (&ctx).into(), &udfs).unwrap();
    let single_node = compiled.run(&ctx, &udfs).unwrap_err().to_string();
    assert_eq!(single_node, "integer division by zero");

    let input = DistributedCollection::from_i64("ns", data, PARTITIONS);
    for engine in [VertexEngine::Steno, VertexEngine::Linq] {
        let err = run(&q, &input, engine, &RuntimeConfig::default()).unwrap_err();
        match err {
            DistError::VertexFailed {
                attempts,
                ref message,
                ..
            } => {
                assert_eq!(
                    attempts, 1,
                    "deterministic failures must not be retried ({engine:?})"
                );
                assert_eq!(
                    message, &single_node,
                    "distributed error must be byte-identical to the \
                     single-node engine ({engine:?})"
                );
            }
            other => panic!("expected VertexFailed, got {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// Panic isolation.
// ---------------------------------------------------------------------

#[test]
fn panicking_udf_is_isolated_and_reported() {
    let mut udfs = UdfRegistry::new();
    udfs.register("boom", vec![Ty::F64], Ty::F64, |args| {
        let x = args[0].as_f64().unwrap_or(0.0);
        assert!(x >= 0.0, "boom: negative input");
        Value::F64(x)
    });
    let q = Query::source("xs")
        .select(Expr::call("boom", vec![Expr::var("x")]), "x")
        .sum()
        .build();
    let input = DistributedCollection::from_f64("xs", f64_data(600), PARTITIONS);
    let broadcast = DataContext::new();
    let spec = ClusterSpec { workers: 3 };

    // f64_data starts at -40.0, so partition 0 panics on every attempt:
    // the panic is caught at the vertex boundary, retried as transient,
    // and finally reported as VertexPanic — the process never aborts.
    let err = execute_distributed(
        &q,
        &input,
        &broadcast,
        &udfs,
        &spec,
        VertexEngine::Steno,
    )
    .unwrap_err();
    match err {
        DistError::VertexPanic { ref payload, .. } => {
            assert!(payload.contains("boom"), "payload = {payload}");
        }
        other => panic!("expected VertexPanic, got {other}"),
    }

    // The pool survives: the same process immediately runs a clean job.
    let ok_q = sum_query();
    let ok = execute_distributed(
        &ok_q,
        &input,
        &broadcast,
        &UdfRegistry::new(),
        &spec,
        VertexEngine::Steno,
    );
    assert!(ok.is_ok(), "a clean job after a panic must succeed");
}

#[test]
fn injected_panic_is_retried_and_recovers() {
    let q = sum_query();
    let input = DistributedCollection::from_f64("xs", f64_data(600), PARTITIONS);
    let (clean, _) = run(&q, &input, VertexEngine::Steno, &RuntimeConfig::default()).unwrap();

    // Speculation off: under load a straggler backup of vertex 1 can win
    // before its panicking attempt is retried, which counts no retry.
    let runtime = RuntimeConfig {
        speculation: SpeculationPolicy::disabled(),
        ..RuntimeConfig::with_faults(FaultPlan::panic_once(1))
    };
    let (recovered, report) = run(&q, &input, VertexEngine::Steno, &runtime).unwrap();
    assert_eq!(recovered.key(), clean.key());
    assert_eq!(report.vertex_attempts[1], 2);
    assert_eq!(report.retries, 1);
}

#[test]
fn unrelenting_panics_exhaust_the_budget_as_vertex_panic() {
    let q = sum_query();
    let input = DistributedCollection::from_f64("xs", f64_data(120), PARTITIONS);
    let runtime = RuntimeConfig {
        speculation: SpeculationPolicy::disabled(),
        ..RuntimeConfig::with_faults(FaultPlan::panic_always(3, 8))
    };
    let err = run(&q, &input, VertexEngine::Steno, &runtime).unwrap_err();
    match err {
        DistError::VertexPanic { vertex, ref payload } => {
            assert_eq!(vertex, 3);
            assert!(payload.contains("injected panic"), "payload = {payload}");
        }
        other => panic!("expected VertexPanic, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Straggler speculation.
// ---------------------------------------------------------------------

#[test]
fn straggler_speculation_preserves_the_answer() {
    let q = sum_query();
    let input = DistributedCollection::from_f64("xs", f64_data(600), PARTITIONS);
    let (clean, _) = run(&q, &input, VertexEngine::Steno, &RuntimeConfig::default()).unwrap();

    // Vertex 0's first attempt stalls half a second; an aggressive
    // speculation policy launches a backup which wins.
    let runtime = RuntimeConfig {
        speculation: SpeculationPolicy::aggressive(Duration::from_millis(20)),
        faults: FaultPlan::delay_once(0, Duration::from_millis(500)),
        ..RuntimeConfig::default()
    };
    let (recovered, report) = run(&q, &input, VertexEngine::Steno, &runtime).unwrap();
    assert_eq!(
        recovered.key(),
        clean.key(),
        "speculative re-execution changed the answer"
    );
    assert!(
        report.speculation_launched >= 1,
        "no backup launched for the straggler"
    );
    assert!(
        report.speculation_wins >= 1,
        "the 500ms straggler should lose to its backup"
    );
}
