//! Vertex failures on the cluster: each map vertex runs once, so a
//! data-dependent error surfaces byte-identical to the single-node
//! engine's and names the lowest-numbered failing vertex, and a panic is
//! isolated at the vertex boundary without taking the pool down.

use steno_cluster::{
    execute_distributed, ClusterSpec, DistError, DistributedCollection, VertexEngine,
};
use steno_expr::{DataContext, Expr, Ty, UdfRegistry, Value};
use steno_query::{Query, QueryExpr};
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

/// `ns.Select(x => 100 / x).Sum()` — integer division, which fails on a
/// zero divisor.
fn div_query() -> QueryExpr {
    Query::source("ns")
        .select(Expr::liti(100) / Expr::var("x"), "x")
        .sum()
        .build()
}

/// The single-node engine's error for `q` over `data`.
fn single_node_error(q: &QueryExpr, data: &[i64]) -> String {
    let ctx = DataContext::new().with_source("ns", data.to_vec());
    let udfs = UdfRegistry::new();
    let compiled = CompiledQuery::compile(q, (&ctx).into(), &udfs).unwrap();
    compiled.run(&ctx, &udfs).unwrap_err().to_string()
}

fn run(
    q: &QueryExpr,
    input: &DistributedCollection,
    workers: usize,
    engine: VertexEngine,
) -> Result<(Value, steno_cluster::JobReport), DistError> {
    let spec = ClusterSpec { workers };
    execute_distributed(q, input, &DataContext::new(), &UdfRegistry::new(), &spec, engine)
}

// ---------------------------------------------------------------------
// Deterministic failures: single-node-identical message.
// ---------------------------------------------------------------------

#[test]
fn deterministic_errors_are_not_retried_and_match_single_node() {
    // One partition holds a zero divisor: integer division by zero is
    // data-dependent, so the vertex's error is the job's answer.
    let mut data: Vec<i64> = (1..=240).collect();
    data[200] = 0; // lands in a late partition
    let q = div_query();
    let single_node = single_node_error(&q, &data);
    assert_eq!(single_node, "integer division by zero");

    let input = DistributedCollection::from_i64("ns", data, PARTITIONS);
    for engine in [VertexEngine::Steno, VertexEngine::Linq] {
        let err = run(&q, &input, 3, engine).unwrap_err();
        match err {
            DistError::VertexFailed { ref message, .. } => {
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

#[test]
fn the_lowest_failing_vertex_is_reported_every_time() {
    // Zero divisors in partitions 1 and 3, one worker per partition, so
    // both failing vertices race; the report must not depend on which
    // finishes first.
    let partitions = 4;
    let mut data: Vec<i64> = (1..=400).collect();
    data[100 + 7] = 0; // partition 1
    data[300 + 7] = 0; // partition 3
    let q = div_query();
    let single_node = single_node_error(&q, &data);
    let input = DistributedCollection::from_i64("ns", data, partitions);
    for engine in [VertexEngine::Steno, VertexEngine::Linq] {
        for round in 0..20 {
            match run(&q, &input, partitions, engine).unwrap_err() {
                DistError::VertexFailed { vertex, message } => {
                    assert_eq!(vertex, 1, "round {round}, engine {engine:?}");
                    assert_eq!(message, single_node, "round {round}, engine {engine:?}");
                }
                other => panic!("expected VertexFailed, got {other}"),
            }
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

    // f64_data starts at -40.0, so partition 0 panics: the panic is
    // caught at the vertex boundary and reported as VertexPanic — the
    // process never aborts.
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
