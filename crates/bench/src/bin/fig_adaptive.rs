//! `fig_adaptive`: the feedback-directed optimization ablation, and the
//! producer of the `adaptive_*` rows in `BENCH_vm.json`.
//!
//! Two workloads, both deliberately spelled so that *static* compilation
//! is pessimal and only observed behavior can fix the plan:
//!
//! * `adaptive_filter_reorder` — a UDF pipeline whose first filter is an
//!   expensive degree-15 polynomial score that keeps everything and
//!   whose second is a one-comparison cut that keeps ~2%. Every plan is
//!   compiled with `VectorizationPolicy::Off`, because predicate order
//!   shows only on the scalar tier (batch compute is dense, so the batch
//!   tier evaluates both predicates on every lane in either order), and
//!   the rewrite pass — fed the selectivities measured on a 512-element
//!   sample — moves the cheap selective cut first. Rows: `vm_static` (rewrites off),
//!   `vm_adaptive` (feedback-directed), `hand` (the optimal-order loop).
//! * `adaptive_drift` — a pipeline of the same score against an
//!   *opposing* range cut (`x < cut`), under a workload shift. The plan
//!   is first optimized against a regime where the polynomial score is
//!   the selective filter and the cut drops nothing (so text order is
//!   correct *for that data*, and the cost×selectivity rank agrees),
//!   then the input drifts past the cut: now the score passes
//!   everything and the one-comparison cut rejects everything — the
//!   cached plan pays the degree-15 polynomial per element for nothing.
//!   Rows: `vm_stale` (the pre-drift plan on post-drift data — exactly
//!   what a cache serves until the drift detector fires), `vm_reopt`
//!   (the plan the re-optimizer installs), `hand`.
//!
//! Both workloads assert the feedback-directed plan is at least 2x the
//! pessimal one — the acceptance bar — and that the static/adaptive
//! results agree exactly before anything is timed. Results merge into
//! `BENCH_vm.json` (the `fig_vectorized` rows survive). `--smoke` runs
//! the short deterministic mode and the shared regression gate, same as
//! `fig_vectorized`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bench::harness::{best_time, median_time, merge_bench_json, smoke_gate, BenchRecord};
use bench::workloads::{scaled, uniform_doubles};
use steno_expr::{DataContext, Expr, Ty, UdfRegistry, Value};
use steno_query::{Query, QueryExpr};
use steno_vm::query::CompileFeedback;
use steno_vm::{CompiledQuery, StenoOptions, VectorizationPolicy};

const SAMPLES: usize = 7;
const SMOKE_SAMPLES: usize = 5;
const SMOKE_TOLERANCE: f64 = 1.25;
/// The acceptance bar: the feedback-directed plan must beat the
/// pessimal static plan by at least this factor.
const MIN_SPEEDUP: f64 = 2.0;

static SMOKE: AtomicBool = AtomicBool::new(false);

fn bench_time<O>(routine: impl FnMut() -> O) -> Duration {
    if SMOKE.load(Ordering::Relaxed) {
        best_time(SMOKE_SAMPLES, routine)
    } else {
        median_time(SAMPLES, routine)
    }
}

/// Coefficients of the expensive score polynomial, low degree first.
/// All positive, so the score is strictly increasing on x >= 0 and the
/// drift workload can steer its selectivity purely through the input
/// range.
const POLY: [f64; 16] = [
    0.11, 0.07, 0.13, 0.05, 0.17, 0.03, 0.19, 0.02, 0.23, 0.08, 0.29, 0.04, 0.31, 0.06, 0.37,
    0.09,
];

/// The score as an expression over `x`, in Horner form: 30 florps per
/// element, versus one comparison for the cheap cut.
fn poly_expr() -> Expr {
    let mut e = Expr::litf(POLY[POLY.len() - 1]);
    for &c in POLY.iter().rev().skip(1) {
        e = e * Expr::var("x") + Expr::litf(c);
    }
    e
}

/// The score as a hand loop, in the same Horner order so filter
/// decisions (and therefore sums) match the VM bit-for-bit.
fn poly_eval(x: f64) -> f64 {
    let mut e = POLY[POLY.len() - 1];
    for &c in POLY.iter().rev().skip(1) {
        e = e * x + c;
    }
    e
}

/// One pure UDF in the output position: its purity fact is what lets
/// the rewrite pass reorder around it at all. (A pure call no longer
/// keeps a loop off the batch tier; [`scalar_opts`] does.)
fn registry() -> UdfRegistry {
    let mut udfs = UdfRegistry::new();
    udfs.register_pure("boost", vec![Ty::F64], Ty::F64, |args: &[Value]| {
        Value::F64(args[0].as_f64().unwrap_or(0.0) * 2.0)
    });
    udfs
}

/// `xs.where(score(x) > lo).where(x > cut).select(boost(x)).sum()` —
/// expensive unselective filter first: the pessimal spelling.
fn pipeline(score_floor: f64, cut: f64) -> QueryExpr {
    Query::source("xs")
        .where_(poly_expr().gt(Expr::litf(score_floor)), "x")
        .where_(Expr::var("x").gt(Expr::litf(cut)), "x")
        .select(Expr::call("boost", vec![Expr::var("x")]), "x")
        .sum()
        .build()
}

/// The drift pipeline spells the cheap cut `x < cut`. Both predicates
/// of [`pipeline`] are monotone *increasing* in `x`, so the score
/// filter's survivors always pass any cut below the score threshold —
/// the conditioned selectivity estimator could never observe the second
/// filter rejecting, and no drift could make the cached order pessimal.
/// An opposing cut lets the input shift starve one filter while feeding
/// the other.
fn pipeline_lt(score_floor: f64, cut: f64) -> QueryExpr {
    Query::source("xs")
        .where_(poly_expr().gt(Expr::litf(score_floor)), "x")
        .where_(Expr::var("x").lt(Expr::litf(cut)), "x")
        .select(Expr::call("boost", vec![Expr::var("x")]), "x")
        .sum()
        .build()
}

/// The options of every plan here: the scalar tier, where predicate
/// order shows (see the module docs).
fn scalar_opts() -> StenoOptions {
    StenoOptions {
        vectorize: VectorizationPolicy::Off,
        ..StenoOptions::default()
    }
}

fn compile_static(q: &QueryExpr, ctx: &DataContext, udfs: &UdfRegistry) -> CompiledQuery {
    let opts = StenoOptions {
        rewrites: false,
        ..scalar_opts()
    };
    CompiledQuery::compile_with(q, ctx.into(), udfs, opts, CompileFeedback::default())
        .expect("compile static")
}

/// Feedback-directed compile: the rewrite pass sees selectivities
/// sampled from `sample` — which is also how the drift workload builds
/// its "stale" plan, by sampling the *pre-drift* regime.
fn compile_feedback(q: &QueryExpr, sample: &DataContext, udfs: &UdfRegistry) -> CompiledQuery {
    let fb = CompileFeedback {
        sample_ctx: Some(sample),
        loop_stats: None,
    };
    CompiledQuery::compile_with(q, sample.into(), udfs, scalar_opts(), fb)
        .expect("compile feedback")
}

fn applied(c: &CompiledQuery, rule: &str) -> bool {
    c.rewrite_log().iter().any(|ev| ev.applied && ev.rule == rule)
}

struct Row {
    engine: &'static str,
    median: Duration,
}

/// Prints the rows (speedups relative to the first, pessimal row) and
/// pushes their records.
fn report(workload: &str, n: usize, rows: Vec<Row>, records: &mut Vec<BenchRecord>) {
    println!("\n== {workload} ({n} elements) ==");
    let base_ns = rows[0].median.as_nanos() as f64;
    let base_engine = rows[0].engine;
    for row in rows {
        let rec = BenchRecord::from_wall(workload, row.engine, n, row.median);
        let vs = base_ns / (row.median.as_nanos() as f64).max(1.0);
        println!(
            "{:>12}  {:>12?}  {:>8.3} ns/elem  {:>12.0} elem/s  ({:>5.2}x vs {base_engine})",
            row.engine, row.median, rec.ns_per_elem, rec.elements_per_sec, vs
        );
        records.push(rec);
    }
}

/// Asserts the acceptance speedup between two engines of a workload.
fn assert_speedup(records: &[BenchRecord], workload: &str, slow: &str, fast: &str) {
    let ns = |engine: &str| {
        records
            .iter()
            .find(|r| r.workload == workload && r.engine == engine)
            .map(|r| r.ns_per_elem)
            .expect("record")
    };
    let speedup = ns(slow) / ns(fast);
    println!("{workload}: {fast} is {speedup:.2}x {slow}");
    assert!(
        speedup >= MIN_SPEEDUP,
        "{workload}: {fast} must be at least {MIN_SPEEDUP}x {slow}, got {speedup:.2}x"
    );
}

/// Pessimal static filter order vs the feedback-reordered plan.
fn adaptive_filter_reorder(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data = uniform_doubles(n, 11); // [0, 1)
    let ctx = DataContext::new().with_source("xs", data.clone());
    let udfs = registry();
    // Score floor 0.0: every element passes (all coefficients are
    // positive). Cut 0.98: ~2% pass.
    let cut = 0.98;
    let q = pipeline(0.0, cut);

    let stat = compile_static(&q, &ctx, &udfs);
    let adap = compile_feedback(&q, &ctx, &udfs);
    assert_eq!(
        stat.engine(),
        adap.engine(),
        "both plans must land on the same tier for the comparison to be about plan shape"
    );
    assert!(
        applied(&adap, "reorder-filters"),
        "feedback must reorder the pessimal filters: {:?}",
        adap.rewrite_log()
    );

    let expect = {
        let mut s = 0.0;
        for &x in &data {
            if x > cut && poly_eval(x) > 0.0 {
                s += x * 2.0;
            }
        }
        s
    };
    for c in [&stat, &adap] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::F64(expect));
    }

    let rows = vec![
        Row {
            engine: "vm_static",
            median: bench_time(|| stat.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_adaptive",
            median: bench_time(|| adap.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| {
                let mut s = 0.0;
                for &x in &data {
                    if x > cut && poly_eval(x) > 0.0 {
                        s += x * 2.0;
                    }
                }
                s
            }),
        },
    ];
    report("adaptive_filter_reorder", n, rows, records);
}

/// Workload drift: the plan optimized for the pre-drift regime served
/// on post-drift data, vs the plan the re-optimizer installs.
fn adaptive_drift(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    // Pre-drift regime: x in [2, 3) — the score cut keeps ~2% and the
    // `x < 3.0` cut keeps everything, so the expensive-but-selective
    // score filter is genuinely the right one to run first. The
    // cost-aware rank agrees: 63/(1−0.02) ≈ 64 for the score versus
    // 3/(1−1.0) → unbounded for a filter that drops nothing.
    let pre: Vec<f64> = uniform_doubles(n, 12).iter().map(|x| x + 2.0).collect();
    // Post-drift regime: x in [4, 5) — the score (strictly increasing)
    // now keeps everything and the cut keeps nothing: the selectivities
    // have swapped and the cached score-first plan pays the degree-15
    // polynomial on every element before the one-comparison cut drops it.
    let post: Vec<f64> = pre.iter().map(|x| x + 2.0).collect();
    let pre_ctx = DataContext::new().with_source("xs", pre);
    let post_ctx = DataContext::new().with_source("xs", post.clone());
    let udfs = registry();
    // Score floor p(2.98): keeps ~2% of [2, 3), all of [4, 5) — the
    // score is strictly increasing. Cut 3.0: keeps all of [2, 3) and
    // nothing of [4, 5).
    let floor = poly_eval(2.98);
    let range_cut = 3.0;
    let q = pipeline_lt(floor, range_cut);

    let stale = compile_feedback(&q, &pre_ctx, &udfs);
    let reopt = compile_feedback(&q, &post_ctx, &udfs);
    assert!(
        !applied(&stale, "reorder-filters"),
        "pre-drift the text order is already optimal: {:?}",
        stale.rewrite_log()
    );
    assert!(
        applied(&reopt, "reorder-filters"),
        "post-drift the re-optimizer must reorder: {:?}",
        reopt.rewrite_log()
    );

    let expect = {
        let mut s = 0.0;
        for &x in &post {
            if x < range_cut && poly_eval(x) > floor {
                s += x * 2.0;
            }
        }
        s
    };
    for c in [&stale, &reopt] {
        assert_eq!(c.run(&post_ctx, &udfs).expect("run"), Value::F64(expect));
    }

    let rows = vec![
        Row {
            engine: "vm_stale",
            median: bench_time(|| stale.run(&post_ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_reopt",
            median: bench_time(|| reopt.run(&post_ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| {
                let mut s = 0.0;
                for &x in &post {
                    if x < range_cut && poly_eval(x) > floor {
                        s += x * 2.0;
                    }
                }
                s
            }),
        },
    ];
    report("adaptive_drift", n, rows, records);
}

fn measure() -> Vec<BenchRecord> {
    let mut records = Vec::new();
    adaptive_filter_reorder(&mut records);
    adaptive_drift(&mut records);
    records
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        SMOKE.store(true, Ordering::Relaxed);
        if std::env::var("BENCH_VM_JSON").is_err() {
            std::env::set_var("BENCH_VM_JSON", "target/BENCH_adaptive_smoke.json");
        }
    }
    println!("Feedback-directed optimization ablation (adaptive_* rows of BENCH_vm.json)");
    let records = measure();

    let path = std::env::var("BENCH_VM_JSON").unwrap_or_else(|_| "BENCH_vm.json".to_string());
    merge_bench_json(&path, &records).expect("write bench JSON");
    println!("\nmerged {} records into {path}", records.len());

    assert_speedup(&records, "adaptive_filter_reorder", "vm_static", "vm_adaptive");
    assert_speedup(&records, "adaptive_drift", "vm_stale", "vm_reopt");

    if smoke {
        // Same retry discipline as fig_vectorized: contention comes in
        // phases, so a failing gate backs off, re-measures, and gates on
        // the per-row floor across attempts.
        let mut merged = records;
        for attempt in 0.. {
            match smoke_gate(&merged, SMOKE_TOLERANCE) {
                Ok(()) => break,
                Err(failures) if attempt < 2 => {
                    eprintln!(
                        "smoke gate: {} row(s) over tolerance; backing off and re-measuring \
                         (attempt {}/3)",
                        failures.len(),
                        attempt + 2
                    );
                    std::thread::sleep(Duration::from_secs(60));
                    let retry = measure();
                    for r in &mut merged {
                        if let Some(t) = retry
                            .iter()
                            .find(|t| t.workload == r.workload && t.engine == r.engine)
                        {
                            if t.ns_per_elem < r.ns_per_elem {
                                *r = t.clone();
                            }
                        }
                    }
                }
                Err(failures) => {
                    for f in &failures {
                        eprintln!("smoke gate: {f}");
                    }
                    std::process::exit(1);
                }
            }
        }
    }
}
