//! `fig_vectorized`: the batch-vectorization ablation (§9's MonetDB/X100
//! direction), and the producer of `BENCH_vm.json`.
//!
//! Each workload runs on up to four engines:
//!
//! * `linq` — the unoptimized boxed-iterator chains (§2's baseline),
//! * `vm_scalar` — the bytecode VM with vectorization off
//!   (per-instruction dispatch over unboxed registers),
//! * `vm_vectorized` — the typed column-batch engine (the default), and
//! * `hand` — the hand-written Rust loop, as the floor.
//!
//! Results print as a table and are written to `BENCH_vm.json`
//! (workload, engine, elements, ns/elem, elements/sec). Scale the
//! element counts with `STENO_SCALE`; set `BENCH_VM_JSON` to redirect
//! the output path.
//!
//! `--smoke` runs a short deterministic mode for CI: fewer samples with
//! min-of-samples timing (the floor is far more stable than the median
//! on a shared runner), results written to a scratch path (the
//! checked-in `BENCH_vm.json` is the *baseline*, not the output), and a
//! regression gate that fails the process if any engine regresses more
//! than 25% against that baseline, both in absolute ns/elem and
//! normalized by each workload's `hand` row, with per-row
//! observed-noise ceilings as the final escape hatch (see
//! [`smoke_gate`] for why all three); a failing gate backs off and
//! re-measures before failing, so a single scheduler burst cannot
//! break the build. Element counts stay at full scale — shrinking them
//! makes the streaming workloads cache-resident, which speeds `hand`
//! up ~2x and skews the normalization against every CPU-bound engine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bench::harness::{best_time, median_time, merge_bench_json, smoke_gate, BenchRecord};
use bench::workloads::{scaled, uniform_doubles};
use steno_expr::{DataContext, Expr, Ty, UdfRegistry, Value};
use steno_linq::Enumerable;
use steno_query::{Query, QueryExpr};
use steno_vm::query::StenoOptions;
use steno_vm::{CompiledQuery, EngineKind, VectorizationPolicy};

const SAMPLES: usize = 7;
const SMOKE_SAMPLES: usize = 5;
/// Allowed hand-normalized ratio vs the checked-in baseline before the
/// smoke gate fails.
const SMOKE_TOLERANCE: f64 = 1.25;

static SMOKE: AtomicBool = AtomicBool::new(false);

/// Times one engine row: median-of-samples normally, min-of-samples in
/// smoke mode (the floor is the reproducible statistic on a noisy CI
/// runner — the median still carries scheduler bursts).
fn bench_time<O>(routine: impl FnMut() -> O) -> Duration {
    if SMOKE.load(Ordering::Relaxed) {
        best_time(SMOKE_SAMPLES, routine)
    } else {
        median_time(SAMPLES, routine)
    }
}

fn opts(vectorize: VectorizationPolicy) -> StenoOptions {
    StenoOptions {
        vectorize,
        ..StenoOptions::default()
    }
}

/// Compiles `q` two ways and checks the engines landed where expected.
fn compile_tiers(
    q: &QueryExpr,
    ctx: &DataContext,
    udfs: &UdfRegistry,
) -> (CompiledQuery, CompiledQuery) {
    let compile = |o| CompiledQuery::compile_with(q, ctx.into(), udfs, o);
    let scalar = compile(opts(VectorizationPolicy::Off)).expect("compile scalar");
    let vectorized = compile(opts(VectorizationPolicy::Auto)).expect("compile vectorized");
    assert_eq!(scalar.engine(), EngineKind::Scalar);
    assert_eq!(
        vectorized.engine(),
        EngineKind::Vectorized,
        "workload must vectorize; fallbacks: {:?}",
        vectorized.batch_fallbacks()
    );
    (scalar, vectorized)
}

struct Row {
    engine: &'static str,
    median: Duration,
}

fn report(workload: &str, n: usize, rows: Vec<Row>, records: &mut Vec<BenchRecord>) {
    println!("\n== {workload} ({n} elements) ==");
    let scalar_ns = rows
        .iter()
        .find(|r| r.engine == "vm_scalar")
        .map(|r| r.median.as_nanos() as f64)
        .unwrap_or(f64::NAN);
    for row in rows {
        let rec = BenchRecord::from_wall(workload, row.engine, n, row.median);
        let vs = scalar_ns / (row.median.as_nanos() as f64).max(1.0);
        println!(
            "{:>14}  {:>12?}  {:>8.3} ns/elem  {:>12.0} elem/s  ({:>5.2}x vs vm_scalar)",
            row.engine, row.median, rec.ns_per_elem, rec.elements_per_sec, vs
        );
        records.push(rec);
    }
}

/// Sum of squares of 10^6 doubles — the acceptance workload.
fn sum_of_squares(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data = uniform_doubles(n, 42);
    let ctx = DataContext::new().with_source("xs", data.clone());
    let udfs = UdfRegistry::new();
    let q = Query::source("xs")
        .select(Expr::var("x") * Expr::var("x"), "x")
        .sum()
        .build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    // All engines agree before any of them is timed.
    let expect = {
        let mut s = 0.0;
        for &x in &data {
            s += x * x;
        }
        s
    };
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::F64(expect));
    }

    let xs = Enumerable::from_vec(data.clone());
    let rows = vec![
        Row {
            engine: "linq",
            median: bench_time(|| xs.select(|x| x * x).sum()),
        },
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| {
                let mut s = 0.0;
                for &x in &data {
                    s += x * x;
                }
                s
            }),
        },
    ];
    report("sum_of_squares", n, rows, records);
}

/// Filtered sum: `xs.Where(x > 0.5).Select(x * 2).Sum()` — exercises the
/// selection-vector path.
fn filtered_sum(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data = uniform_doubles(n, 7);
    let ctx = DataContext::new().with_source("xs", data.clone());
    let udfs = UdfRegistry::new();
    let q = Query::source("xs")
        .where_(Expr::var("x").gt(Expr::litf(0.5)), "x")
        .select(Expr::var("x") * Expr::litf(2.0), "x")
        .sum()
        .build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    let expect = {
        let mut s = 0.0;
        for &x in &data {
            if x > 0.5 {
                s += x * 2.0;
            }
        }
        s
    };
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::F64(expect));
    }

    let xs = Enumerable::from_vec(data.clone());
    let rows = vec![
        Row {
            engine: "linq",
            median: bench_time(|| {
                xs.where_(|x| x > 0.5).select(|x| x * 2.0).sum()
            }),
        },
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| {
                let mut s = 0.0;
                for &x in &data {
                    if x > 0.5 {
                        s += x * 2.0;
                    }
                }
                s
            }),
        },
    ];
    report("filtered_sum", n, rows, records);
}

/// Filtered max: `xs.Where(x > 0.5).Max()` — the fused masked loop
/// folds `total_cmp` order images, with `i64::MIN` on filtered-out lanes.
fn filtered_max(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data = uniform_doubles(n, 29);
    let ctx = DataContext::new().with_source("xs", data.clone());
    let udfs = UdfRegistry::new();
    let q = Query::source("xs")
        .where_(Expr::var("x").gt(Expr::litf(0.5)), "x")
        .max()
        .build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    let hand = |data: &[f64]| {
        let mut m = f64::NEG_INFINITY;
        for &x in data {
            if x > 0.5 && x.total_cmp(&m).is_gt() {
                m = x;
            }
        }
        m
    };
    let expect = hand(&data);
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::F64(expect));
    }

    let xs = Enumerable::from_vec(data.clone());
    let rows = vec![
        Row {
            engine: "linq",
            median: bench_time(|| xs.where_(|x| x > 0.5).max()),
        },
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| hand(&data)),
        },
    ];
    report("filtered_max", n, rows, records);
}

/// Integer pipeline: sum of squares of the multiples of 3 — the i64
/// lanes plus a filter.
fn int_even_squares(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data: Vec<i64> = (0..n as i64).collect();
    let ctx = DataContext::new().with_source("ns", data.clone());
    let udfs = UdfRegistry::new();
    let q = Query::source("ns")
        .where_((Expr::var("x") % Expr::liti(3)).eq(Expr::liti(0)), "x")
        .select(Expr::var("x") * Expr::var("x"), "x")
        .sum()
        .build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    let expect = {
        let mut s = 0i64;
        for &x in &data {
            if x % 3 == 0 {
                s = s.wrapping_add(x.wrapping_mul(x));
            }
        }
        s
    };
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::I64(expect));
    }

    let rows = vec![
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| {
                let mut s = 0i64;
                for &x in &data {
                    if x % 3 == 0 {
                        s = s.wrapping_add(x.wrapping_mul(x));
                    }
                }
                s
            }),
        },
    ];
    report("int_mult3_sumsq", n, rows, records);
}

/// Guarded division under a conditional: the Collatz step
/// `if x % 2 == 0 { x / 2 } else { 3x + 1 }`. Before range analysis the
/// vectorizer refused this loop outright ("trapping op under a
/// conditional branch"), so its batch-tier time *was* the vm_scalar
/// row; the interval proof that both divisors exclude zero drops the
/// per-lane guards and admits it to the batch tier.
fn guarded_div_collatz(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data: Vec<i64> = (1..=n as i64).collect();
    let ctx = DataContext::new().with_source("ns", data.clone());
    let udfs = UdfRegistry::new();
    let x = || Expr::var("x");
    let q = Query::source("ns")
        .select(
            Expr::if_(
                (x() % Expr::liti(2)).eq(Expr::liti(0)),
                x() / Expr::liti(2),
                Expr::liti(3) * x() + Expr::liti(1),
            ),
            "x",
        )
        .sum_by(Expr::var("y"), "y")
        .build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);
    assert!(
        vectorized.guards_dropped() >= 2,
        "range analysis must drop both the % 2 and / 2 guards: {}",
        vectorized.guards_dropped()
    );

    let expect = {
        let mut s = 0i64;
        for &x in &data {
            s = s.wrapping_add(if x % 2 == 0 {
                x / 2
            } else {
                3i64.wrapping_mul(x).wrapping_add(1)
            });
        }
        s
    };
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::I64(expect));
    }

    let rows = vec![
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| {
                let mut s = 0i64;
                for &x in &data {
                    s = s.wrapping_add(if x % 2 == 0 {
                        x / 2
                    } else {
                        3i64.wrapping_mul(x).wrapping_add(1)
                    });
                }
                s
            }),
        },
    ];
    report("guarded_div_collatz", n, rows, records);
}

/// `xs.Average()` of 10^6 doubles. The `(sum, count)` accumulator is a
/// pair; the code generator's scalar replacement splits it into two
/// scalar locals, which is what admits the loop to the batch tier.
fn average(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data = uniform_doubles(n, 11);
    let ctx = DataContext::new().with_source("xs", data.clone());
    let udfs = UdfRegistry::new();
    let q = Query::source("xs").average().build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    let hand = |data: &[f64]| {
        let (mut s, mut c) = (0.0, 0i64);
        for &x in data {
            s += x;
            c += 1;
        }
        s / c as f64
    };
    let expect = hand(&data);
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::F64(expect));
    }

    let xs = Enumerable::from_vec(data.clone());
    let rows = vec![
        Row {
            engine: "linq",
            median: bench_time(|| xs.average()),
        },
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| hand(&data)),
        },
    ];
    report("average", n, rows, records);
}

/// `ns.Skip(n/1000).Take(9n/10).Sum()`: the leading positional operators
/// fold into the loop's index window, so the batch loop reads only the
/// window's slice of the column and the scalar loop starts and stops at
/// its bounds.
fn take_skip(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let (skip, take) = (n / 1000, n / 10 * 9);
    let data: Vec<i64> = (0..n as i64).collect();
    let ctx = DataContext::new().with_source("ns", data.clone());
    let udfs = UdfRegistry::new();
    let q = Query::source("ns").skip(skip).take(take).sum().build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    let hand = |data: &[i64]| {
        let mut s = 0i64;
        for &x in &data[skip..skip + take] {
            s = s.wrapping_add(x);
        }
        s
    };
    let expect = hand(&data);
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::I64(expect));
    }

    let ns = Enumerable::from_vec(data.clone());
    let rows = vec![
        Row {
            engine: "linq",
            median: bench_time(|| ns.skip(skip).take(take).sum()),
        },
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| hand(&data)),
        },
    ];
    report("take_skip", n, rows, records);
}

/// `xs.TakeWhile(x < 2.0).Count()` over uniform `[0, 1)` doubles: the
/// predicate never fails, so the batch loop's first-failing-lane cut is
/// checked on every batch and never fires.
fn take_while(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data = uniform_doubles(n, 13);
    let ctx = DataContext::new().with_source("xs", data.clone());
    let udfs = UdfRegistry::new();
    let q = Query::source("xs")
        .take_while(Expr::var("x").lt(Expr::litf(2.0)), "x")
        .count()
        .build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    let hand = |data: &[f64]| {
        let mut c = 0i64;
        for &x in data {
            if x < 2.0 {
                c += 1;
            } else {
                break;
            }
        }
        c
    };
    let expect = hand(&data);
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::I64(expect));
    }

    let xs = Enumerable::from_vec(data.clone());
    let rows = vec![
        Row {
            engine: "linq",
            median: bench_time(|| xs.take_while(|x| x < 2.0).count()),
        },
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| hand(&data)),
        },
    ];
    report("take_while", n, rows, records);
}

/// The pure UDF of [`pure_udf`], as the hand loop calls it.
fn scale(x: f64) -> f64 {
    x * 1.5 + 0.25
}

/// `xs.Select(|x| f(x)).Sum()` with `f` registered pure: the batch loop
/// calls `f` once per lane from its `Call` op, the scalar loop once per
/// element through boxed registers, and the hand loop calls the Rust
/// function directly.
fn pure_udf(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data = uniform_doubles(n, 17);
    let ctx = DataContext::new().with_source("xs", data.clone());
    let mut udfs = UdfRegistry::new();
    udfs.register_pure("f", vec![Ty::F64], Ty::F64, |args: &[Value]| {
        Value::F64(scale(args[0].as_f64().unwrap_or(f64::NAN)))
    });
    let q = Query::source("xs")
        .select(Expr::call("f", vec![Expr::var("x")]), "x")
        .sum()
        .build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    let hand = |data: &[f64]| {
        let mut s = 0.0;
        for &x in data {
            s += scale(x);
        }
        s
    };
    let expect = hand(&data);
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::F64(expect));
    }

    let rows = vec![
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| hand(&data)),
        },
    ];
    report("pure_udf", n, rows, records);
}

/// `xs.OrderBy(x => x).Take(10).Sum()` over uniform doubles: the
/// sort sink's only reader is a static 10-element window, so the
/// vectorized push loop keeps a top-10 of unboxed keys; the scalar VM
/// sorts every key it pushed, and the hand loop sorts a full copy.
fn order_take(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data = uniform_doubles(n, 19);
    let ctx = DataContext::new().with_source("xs", data.clone());
    let udfs = UdfRegistry::new();
    let x = || Expr::var("x");
    let q = Query::source("xs").order_by(x(), "x").take(10).sum().build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    let hand = |data: &[f64]| {
        let mut v = data.to_vec();
        v.sort_by(f64::total_cmp);
        v.iter().take(10).sum::<f64>()
    };
    let expect = hand(&data);
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::F64(expect));
    }

    let xs = Enumerable::from_vec(data.clone());
    let rows = vec![
        Row {
            engine: "linq",
            median: bench_time(|| xs.order_by_with(f64::total_cmp).take(10).sum()),
        },
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| hand(&data)),
        },
    ];
    report("order_take", n, rows, records);
}

/// `ns.GroupBy(x => x % 16).Select(g => (g.Key, g.Sum()))` over
/// non-negative integers: the key's interval is `-15..=15`, so the
/// vectorized upsert loop aggregates into a direct-indexed slot array,
/// as the hand loop does.
fn group_agg(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data: Vec<i64> = uniform_doubles(n, 23)
        .into_iter()
        .map(|u| (u * 1e6) as i64)
        .collect();
    let ctx = DataContext::new().with_source("ns", data.clone());
    let udfs = UdfRegistry::new();
    let (q, _) = steno_syntax::parse_query("ns.groupBy(|x| x % 16).select(|kv| (kv.0, kv.1.sum()))")
        .expect("parse group_agg");
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    let hand = |data: &[i64]| {
        let mut slot = [usize::MAX; 16];
        let mut sums: Vec<(i64, i64)> = Vec::new();
        for &x in data {
            let k = x % 16;
            let at = &mut slot[k as usize];
            if *at == usize::MAX {
                *at = sums.len();
                sums.push((k, 0));
            }
            sums[*at].1 = sums[*at].1.wrapping_add(x);
        }
        sums
    };
    let expect = Value::seq(
        hand(&data)
            .into_iter()
            .map(|(k, s)| Value::pair(Value::I64(k), Value::I64(s)))
            .collect(),
    );
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), expect);
    }

    let ns = Enumerable::from_vec(data.clone());
    let rows = vec![
        Row {
            engine: "linq",
            median: bench_time(|| {
                ns.group_by_select(|x| x % 16, |k, g| (k, g.sum()))
                    .to_vec()
            }),
        },
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| hand(&data)),
        },
    ];
    report("group_agg", n, rows, records);
}

/// Filtered count: `xs.Where(x < 0.3).Count()` over uniform `[0, 1)`
/// doubles — the generic tape's filter and its count, which adds the
/// live-lane count per batch instead of folding a broadcast `1`.
fn filtered_count(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data = uniform_doubles(n, 17);
    let ctx = DataContext::new().with_source("xs", data.clone());
    let udfs = UdfRegistry::new();
    let q = Query::source("xs")
        .where_(Expr::var("x").lt(Expr::litf(0.3)), "x")
        .count()
        .build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    let hand = |data: &[f64]| {
        let mut c = 0i64;
        for &x in data {
            if x < 0.3 {
                c += 1;
            }
        }
        c
    };
    let expect = hand(&data);
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::I64(expect));
    }

    let xs = Enumerable::from_vec(data.clone());
    let rows = vec![
        Row {
            engine: "linq",
            median: bench_time(|| xs.where_(|x| x < 0.3).count()),
        },
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| hand(&data)),
        },
    ];
    report("filtered_count", n, rows, records);
}

/// `ns.Where(x % 7 == 3).Select(x * x - x).Sum()` over uniform
/// `0..10^6` integers: a strength-reduced remainder, a selection vector,
/// and a map whose result the slot packer writes over the loaded column.
fn int_mod_filter(records: &mut Vec<BenchRecord>) {
    let n = scaled(1_000_000);
    let data: Vec<i64> = uniform_doubles(n, 19)
        .into_iter()
        .map(|u| (u * 1_000_000.0) as i64)
        .collect();
    let ctx = DataContext::new().with_source("ns", data.clone());
    let udfs = UdfRegistry::new();
    let x = || Expr::var("x");
    let q = Query::source("ns")
        .where_((x() % Expr::liti(7)).eq(Expr::liti(3)), "x")
        .select(x() * x() - x(), "x")
        .sum()
        .build();
    let (scalar, vectorized) = compile_tiers(&q, &ctx, &udfs);

    let hand = |data: &[i64]| {
        let mut s = 0i64;
        for &x in data {
            if x % 7 == 3 {
                s = s.wrapping_add(x.wrapping_mul(x).wrapping_sub(x));
            }
        }
        s
    };
    let expect = hand(&data);
    for c in [&scalar, &vectorized] {
        assert_eq!(c.run(&ctx, &udfs).expect("run"), Value::I64(expect));
    }

    let ns = Enumerable::from_vec(data.clone());
    let rows = vec![
        Row {
            engine: "linq",
            median: bench_time(|| ns.where_(|x| x % 7 == 3).select(|x| x * x - x).sum()),
        },
        Row {
            engine: "vm_scalar",
            median: bench_time(|| scalar.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "vm_vectorized",
            median: bench_time(|| vectorized.run(&ctx, &udfs).expect("run")),
        },
        Row {
            engine: "hand",
            median: bench_time(|| hand(&data)),
        },
    ];
    report("int_mod_filter", n, rows, records);
}

/// One observed run of the acceptance workload through the facade with
/// a live collector: prints the per-query profile and the metrics
/// snapshot, and proves the snapshot JSON parses back.
fn profiled_acceptance_run() {
    use std::sync::Arc;

    let n = scaled(1_000_000);
    let data = uniform_doubles(n, 42);
    let ctx = DataContext::new().with_source("xs", data);
    let udfs = UdfRegistry::new();
    let metrics = Arc::new(steno_obs::MemoryCollector::new());
    let engine = steno::Steno::new().with_collector(metrics.clone());
    let q = Query::source("xs")
        .select(Expr::var("x") * Expr::var("x"), "x")
        .sum()
        .build();
    let profiled = steno::Exec {
        profile: true,
        ..steno::Exec::default()
    };
    let (_, _, profile) = engine
        .execute_with(&q, &ctx, &udfs, &profiled)
        .expect("profiled run");
    let profile = profile.expect("a profiled run returns its profile");
    println!("\n== profiled sum_of_squares ==");
    println!("{profile}");
    let snapshot = metrics.snapshot();
    println!("{snapshot}");
    let json = snapshot.to_json();
    steno_obs::json::parse(&json).expect("snapshot JSON must parse back");
    let path =
        std::env::var("METRICS_VM_JSON").unwrap_or_else(|_| "METRICS_vm.json".to_string());
    std::fs::write(&path, &json).expect("write METRICS_vm.json");
    println!("wrote metrics snapshot to {path}");
}

/// Runs all thirteen workloads and returns their records.
fn measure() -> Vec<BenchRecord> {
    let mut records = Vec::new();
    sum_of_squares(&mut records);
    filtered_sum(&mut records);
    filtered_max(&mut records);
    int_even_squares(&mut records);
    guarded_div_collatz(&mut records);
    average(&mut records);
    take_skip(&mut records);
    take_while(&mut records);
    pure_udf(&mut records);
    order_take(&mut records);
    group_agg(&mut records);
    filtered_count(&mut records);
    int_mod_filter(&mut records);
    records
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        SMOKE.store(true, Ordering::Relaxed);
        // Short deterministic mode: min-of-samples timing over fewer
        // samples, and scratch output paths so the checked-in artifacts
        // stay the baseline. Element counts stay at full scale so the
        // hand-normalization compares like with like (see the module
        // docs). Explicit env settings still win.
        if std::env::var("BENCH_VM_JSON").is_err() {
            std::env::set_var("BENCH_VM_JSON", "target/BENCH_vm_smoke.json");
        }
        if std::env::var("METRICS_VM_JSON").is_err() {
            std::env::set_var("METRICS_VM_JSON", "target/METRICS_vm_smoke.json");
        }
    }
    println!("Vectorized-vs-scalar VM ablation (BENCH_vm.json producer)");
    let records = measure();
    profiled_acceptance_run();

    let path = std::env::var("BENCH_VM_JSON").unwrap_or_else(|_| "BENCH_vm.json".to_string());
    merge_bench_json(&path, &records).expect("write BENCH_vm.json");
    println!("\nmerged {} records into {path}", records.len());
    let reread = std::fs::read_to_string(&path).expect("reread BENCH_vm.json");
    assert!(
        bench::harness::parse_bench_json(&reread)
            .expect("BENCH_vm.json must parse back")
            .len()
            >= records.len()
    );

    // The acceptance bar: vectorized ≥2× the scalar VM on sum-of-squares.
    let ns = |engine: &str| {
        records
            .iter()
            .find(|r| r.workload == "sum_of_squares" && r.engine == engine)
            .map(|r| r.ns_per_elem)
            .expect("record")
    };
    let speedup = ns("vm_scalar") / ns("vm_vectorized");
    println!("sum_of_squares: vectorized is {speedup:.2}x the scalar VM");

    if smoke {
        // Contention on a shared runner comes in multi-minute phases, so
        // a failing gate backs off and re-measures (up to twice), gating
        // on the per-row floor across all attempts. A floor only ever
        // improves with more attempts, so retries can rescue a noisy
        // run but never mask a real regression.
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
