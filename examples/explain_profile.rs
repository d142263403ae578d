//! Observability tour: EXPLAIN plans, per-query profiles, and the
//! metrics collector.
//!
//! Walks the full `steno-obs` surface:
//!
//! 1. `Steno::explain` — where the optimizer sent each loop (vectorized
//!    or scalar) and, when vectorization was refused, the exact reason,
//! 2. `Steno::execute_with` with `profile: true` — the per-query
//!    `QueryProfile` (batches, selection density, scalar work, cache
//!    hits),
//! 3. `MemoryCollector` — engine- and cluster-level counters and
//!    latency histograms, snapshotted as stable JSON.
//!
//! Run with `cargo run --release --example explain_profile`.

use std::sync::Arc;

use steno::prelude::*;

fn main() -> Result<(), StenoError> {
    let data: Vec<f64> = (0..10_000).map(|i| f64::from(i) / 100.0).collect();
    let ctx = DataContext::new().with_source("xs", data.clone());
    let udfs = UdfRegistry::new();

    // Wire a collector into the engine. The default is a NoopCollector:
    // zero-cost, nothing recorded.
    let metrics = Arc::new(MemoryCollector::new());
    let engine = Steno::new().with_collector(metrics.clone());

    // ---- 1. EXPLAIN: a fully vectorizable pipeline. ----
    let q = Query::source("xs")
        .where_(Expr::var("x").gt(Expr::litf(25.0)), "x")
        .select(Expr::var("x") * Expr::var("x"), "x")
        .sum()
        .build();
    let explain = engine.explain(&q, (&ctx).into(), &udfs)?;
    println!("{explain}");
    println!("as JSON: {}\n", explain.to_json());

    // The backend optimizer's decisions ride along in the same plan:
    // fused batch kernels (whole-tape single-pass loops), recycled batch
    // columns, hoisted constants, and threaded scalar pairs.
    let q_int = Query::source("ns")
        .where_((Expr::var("x") % Expr::liti(3)).eq(Expr::liti(0)), "x")
        .select(Expr::var("x") * Expr::var("x"), "x")
        .sum()
        .build();
    let ctx_int =
        DataContext::new().with_source("ns", (0..10_000).collect::<Vec<i64>>());
    let explain_int = engine.explain(&q_int, (&ctx_int).into(), &udfs)?;
    println!("{explain_int}");

    // ---- 2. EXPLAIN: a UDF refuses vectorization; the plan says why. ----
    let mut with_udf = UdfRegistry::new();
    with_udf.register("clip", vec![Ty::F64], Ty::F64, |args: &[Value]| {
        Value::F64(args[0].as_f64().unwrap_or(0.0).min(50.0))
    });
    let q_udf = Query::source("xs")
        .select(Expr::call("clip", vec![Expr::var("x")]), "x")
        .sum()
        .build();
    println!("{}", engine.explain(&q_udf, (&ctx).into(), &with_udf)?);

    // ---- 3. Per-query profile: what the run actually did. ----
    let profiled = Exec {
        profile: true,
        ..Exec::default()
    };
    let (value, path, profile) = engine.execute_with(&q, &ctx, &udfs, &profiled)?;
    let profile = profile.unwrap_or_default();
    println!("result {value} via {path:?}");
    println!("{profile}");
    println!("profile JSON: {}\n", profile.to_json());

    // Run it twice more: the compiled program is served from the cache.
    for _ in 0..2 {
        engine.execute(&q, &ctx, &udfs)?;
    }

    // ---- 4. Cluster telemetry folds into the same collector. ----
    let input = DistributedCollection::from_f64("xs", data, 8);
    let (_, report) = engine.execute_distributed(
        &q,
        &input,
        &DataContext::new(),
        &udfs,
        &ClusterSpec { workers: 4 },
        VertexEngine::Steno,
    )?;
    println!("{report}\n");

    // ---- 5. Feedback-directed optimization: the profile→plan loop. ----
    // An adaptive engine keeps decayed per-plan statistics and
    // recompiles when the workload departs the plan's assumptions. The
    // query is spelled pessimally — the keep-everything filter first —
    // and the initial compile has no observations, so it must trust the
    // text order.
    let adaptive = Steno::new().with_adaptive(true).with_collector(metrics.clone());
    let q_drift = Query::source("xs")
        .where_(Expr::var("x").gt(Expr::litf(-1.0e9)), "x") // keeps everything
        .where_(Expr::var("x").gt(Expr::litf(25.0)), "x") // selective after the drift
        .select(Expr::var("x") * Expr::var("x"), "x")
        .sum()
        .build();
    let n = 200_000;
    let dense: Vec<f64> = (0..n)
        .map(|i| if i % 20 == 0 { 1.0 } else { 30.0 })
        .collect();
    let sparse: Vec<f64> = (0..n)
        .map(|i| if i % 50 == 0 { 30.0 } else { 1.0 })
        .collect();
    let dense_ctx = DataContext::new().with_source("xs", dense);
    let sparse_ctx = DataContext::new().with_source("xs", sparse);
    for _ in 0..24 {
        adaptive.execute(&q_drift, &dense_ctx, &udfs)?;
    }
    // The workload drifts: the second filter's selectivity collapses
    // from ~95% to ~2%. The drift detector (decayed stats, hysteresis)
    // notices, re-optimizes against the live data, and the verifier
    // checks the rewritten plan before it is installed.
    for _ in 0..128 {
        adaptive.execute(&q_drift, &sparse_ctx, &udfs)?;
        let explained = adaptive.explain(&q_drift, (&sparse_ctx).into(), &udfs)?;
        if explained.render().contains("reopt:") {
            break;
        }
    }
    println!("{}", adaptive.explain(&q_drift, (&sparse_ctx).into(), &udfs)?);

    // ---- 6. The metrics snapshot: counters + histograms, as JSON. ----
    let snapshot = metrics.snapshot();
    println!("{snapshot}");
    println!("snapshot JSON: {}", snapshot.to_json());
    Ok(())
}
