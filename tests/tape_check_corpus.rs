//! Zero-false-positive gate for the tape verifier: every program the
//! compiler produces for the differential-test corpora must pass
//! [`steno_vm::check_program`]. The mutation harness
//! (`crates/steno-vm/tests/tape_mutation.rs`) proves the checker
//! rejects miscompiles; this test proves it accepts correct compiles —
//! across every tier (scalar, vectorized) and with and without the
//! rewrite pass.

use steno_expr::{Column, DataContext, Expr, Ty, UdfRegistry, Value};
use steno_query::typing::SourceTypes;
use steno_query::{GroupResult, Query, QueryExpr};
use steno_vm::query::StenoOptions;
use steno_vm::{CompiledQuery, VectorizationPolicy};

fn x() -> Expr {
    Expr::var("x")
}

/// Mirrors the contexts used by the differential suites: dense f64 and
/// i64 columns (large enough to trip the batch tier), a boolean lane,
/// fixed-width rows, and a small secondary f64 source for `select_many`.
fn ctx() -> DataContext {
    DataContext::new()
        .with_source(
            "xs",
            (0..2500).map(|i| f64::from(i) * 0.25 - 300.0).collect::<Vec<_>>(),
        )
        .with_source("ns", (1..=1500i64).collect::<Vec<_>>())
        .with_source("ys", vec![0.5f64, -1.5, 2.0, 4.0])
        .with_source(
            "bs",
            Column::from_bool((0..1100).map(|i| i % 3 != 1).collect::<Vec<_>>()),
        )
        .with_source(
            "pts",
            Column::from_rows(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3),
        )
}

/// The option combinations the engine actually runs: every tier toggle
/// plus the rewrite toggle. Each compiled program — whichever passes
/// produced it — must satisfy the full obligation catalogue.
fn option_matrix() -> Vec<StenoOptions> {
    let auto = StenoOptions::default();
    vec![
        auto,
        StenoOptions {
            vectorize: VectorizationPolicy::Off,
            ..auto
        },
        StenoOptions {
            rewrites: false,
            ..auto
        },
    ]
}

/// Compiles `q` under every option combination and runs the tape
/// verifier over each result. Returns the number of programs checked (a
/// query whose shape the optimizer rejects under every mode contributes
/// zero).
fn check_all_modes(q: &QueryExpr, data: &DataContext, udfs: &UdfRegistry, label: &str) -> usize {
    let mut checked = 0usize;
    for opts in option_matrix() {
        if let Ok(c) = CompiledQuery::compile_with(q, SourceTypes::from(data), udfs, opts) {
            let report = steno_vm::check_program(c.program()).unwrap_or_else(|e| {
                panic!("false positive on `{label}` (opts {opts:?}): {e}")
            });
            assert!(report.cfg > 0, "checker discharged no CFG obligations");
            checked += 1;
        }
    }
    checked
}

/// The text corpus from `rewrite_differential.rs`: parser-driven
/// queries covering filters, maps, pagination, ordering, grouping,
/// distinct, and guarded integer division — plus the pair-typed locals
/// the code generator scalar-replaces (a filtered average, tuple
/// aggregates including a swap and nested pairs, a pair `select`) and
/// the positional early exits (windows over a source and over a sorted
/// sink, a counter `take` after a filter, `take_while` after a select).
const TEXT_CORPUS: &[&str] = &[
    "from x in ns where x % 2 == 0 select x * x",
    "(from x in xs select x * x).sum()",
    "xs.where(|x| x > -100.0).where(|x| x > 60.0).sum()",
    "xs.where(|x| x > 60.0).where(|x| x > -100.0).sum()",
    "xs.select(|x| x + 1.5).where(|x| x < 0.0).sum()",
    "xs.select(|x| x * 2.0).select(|x| x + 1.0).sum()",
    "xs.select(|x| x * 2.0).where(|x| x > 100.0).count()",
    "(from x in ns select x).skip(20).take(30).sum()",
    "ns.take(50).take(10).sum()",
    "ns.skip(5).skip(5).sum()",
    "ns.select(|x| x * 3).take(7).sum()",
    "xs.where(|x| x > 0.0).select(|x| x + 1.5).where(|x| x < 40.0).sum()",
    "ns.where(|x| x % 3 == 0).where(|x| x > 90).count()",
    "xs.min()",
    "xs.max()",
    "xs.average()",
    "xs.take_while(|x| x < 50.0).count()",
    "xs.skip_while(|x| x < 0.0).min()",
    "from x in xs where x > 0.0 orderby x descending select x + 1.0",
    "from x in ns group x * x by x % 7",
    "ns.select(|x| x % 9).distinct().order_by(|x| x)",
    "ns.where(|x| x != 0).select(|x| 60 / x).sum()",
    "xs.order_by(|x| x).take(3).sum()",
    "xs.where(|x| x > 0.5).average()",
    "xs.aggregate((0.0, 0), |acc, x| (acc.0 + x, acc.1 + 1))",
    "xs.aggregate((0.0, 1.0), |acc, x| (acc.1, acc.0 + x))",
    "xs.aggregate(((0.0, 0.0), 0), |acc, x| ((acc.0.0 + x, acc.0.1 + x * x), acc.1 + 1))",
    "xs.select(|x| (x, x * 2.0)).select(|p| p.0 + p.1).sum()",
    "ns.select(|x| 1000 / x).take(40).sum()",
    "ns.where(|x| x % 4 == 1).take(25).sum()",
    "xs.select(|x| x * 0.5).take_while(|x| x < 20.0).sum()",
    "xs.take(0).sum()",
    "ns.skip(5000).count()",
    "xs.order_by(|x| 0.0 - x).skip(2).take(5)",
    "xs.order_by_descending(|x| x).take(4).sum()",
    "ns.order_by(|x| x).skip(3).take(8)",
    "ns.groupBy(|x| x % 16).select(|kv| (kv.0, kv.1.sum()))",
    "ns.groupBy(|x| x / 7).select(|kv| (kv.0, kv.1.count()))",
    "ns.select(|x| x % 11 - 5).distinct()",
];

#[test]
fn text_corpus_has_zero_false_positives() {
    let data = ctx();
    let udfs = UdfRegistry::new();
    let mut checked = 0usize;
    for text in TEXT_CORPUS {
        let (q, _) = steno_syntax::parse_query(text)
            .unwrap_or_else(|e| panic!("corpus query failed to parse: `{text}`: {e}"));
        checked += check_all_modes(&q, &data, &udfs, text);
    }
    assert!(
        checked >= 3 * TEXT_CORPUS.len(),
        "corpus must actually compile under most modes, checked {checked}"
    );
}

/// Builder-based queries mirroring `vectorized_differential.rs` and
/// `fused_kernel_differential.rs`: the fused-kernel shapes (sum, sum of
/// squares, scaled sums, predicated sums on either comparison side),
/// the batch-tier i64 shapes (modulo filters, guarded division), and
/// the scalar-fallback shapes (order_by, distinct, pagination,
/// select_many, average, first, boolean lanes, rows, grouping).
fn builder_corpus() -> Vec<(QueryExpr, &'static str)> {
    let inner_count = Query::over(Expr::var("g")).count().build();
    let inner_sum = Query::over(Expr::var("g")).sum().build();
    vec![
        // Fused-kernel shapes (f64).
        (Query::source("xs").sum().build(), "sum(x):f64"),
        (
            Query::source("xs").select(x() * x(), "x").sum().build(),
            "sum(x*x):f64",
        ),
        (
            Query::source("xs")
                .select(x() * Expr::litf(2.5), "x")
                .sum()
                .build(),
            "sum(x*2.5):f64",
        ),
        (
            Query::source("xs")
                .where_(x().gt(Expr::litf(0.5)), "x")
                .select(x() * Expr::litf(2.0), "x")
                .sum()
                .build(),
            "filter(x>0.5)·sum(x*2):f64",
        ),
        (
            Query::source("xs")
                .where_(Expr::litf(0.5).lt(x()), "x")
                .select(x() * x(), "x")
                .sum()
                .build(),
            "filter(0.5<x)·sum(x*x):f64",
        ),
        (
            Query::source("xs")
                .where_(x().le(Expr::litf(-1.0)), "x")
                .sum()
                .build(),
            "filter(x<=-1)·sum(x):f64",
        ),
        (
            Query::source("xs")
                .where_(x().gt(Expr::litf(0.0)), "x")
                .select(x() + Expr::litf(1.5), "x")
                .sum()
                .build(),
            "filter·map·sum:f64",
        ),
        // Batch-tier i64 shapes, including guarded division (the
        // div-proof obligation) and superinstruction-heavy loops.
        (Query::source("ns").sum().build(), "sum(x):i64"),
        (
            Query::source("ns")
                .where_((x() % Expr::liti(3)).eq(Expr::liti(0)), "x")
                .select(x() * x(), "x")
                .sum()
                .build(),
            "filter(x%3==0)·sum(x*x):i64",
        ),
        (
            Query::source("ns")
                .select(x() / (x() - Expr::liti(2000)), "x")
                .sum()
                .build(),
            "sum(x/(x-2000)):i64",
        ),
        (
            Query::source("ns")
                .where_(x().ne(Expr::liti(0)), "x")
                .select(Expr::liti(60) / x(), "x")
                .sum()
                .build(),
            "filter(x!=0)·sum(60/x):i64",
        ),
        (Query::source("ns").min().build(), "min:i64"),
        (Query::source("xs").max().build(), "max:f64"),
        (Query::source("xs").count().build(), "count:f64"),
        // Scalar-fallback shapes.
        (Query::source("xs").order_by(x(), "x").build(), "order_by"),
        (Query::source("ns").distinct().build(), "distinct"),
        (Query::source("xs").take(3).sum().build(), "take·sum"),
        (Query::source("xs").skip(2).take(3).build(), "skip·take"),
        (
            Query::source("xs")
                .select_many(Query::source("ys").select(x() * Expr::var("y"), "y"), "x")
                .sum()
                .build(),
            "select_many·sum",
        ),
        (Query::source("xs").average().build(), "average"),
        (Query::source("xs").first().build(), "first"),
        (Query::source("bs").all_by(x(), "x").build(), "all_by:bool"),
        (
            Query::source("bs").any_by(x().not(), "x").build(),
            "any_by:bool",
        ),
        (
            Query::source("pts")
                .select(Expr::var("p").row_index(Expr::liti(1)), "p")
                .sum()
                .build(),
            "row_index·sum",
        ),
        (
            Query::source("ns")
                .group_by_result(
                    x() % Expr::liti(7),
                    "x",
                    GroupResult::keyed("k", "g", inner_count),
                )
                .build(),
            "group_by·count",
        ),
        (
            Query::source("ns")
                .group_by_result(
                    x() % Expr::liti(5),
                    "x",
                    GroupResult::keyed("k", "g", inner_sum),
                )
                .build(),
            "group_by·sum",
        ),
    ]
}

#[test]
fn builder_corpus_has_zero_false_positives() {
    let data = ctx();
    let udfs = UdfRegistry::new();
    let corpus = builder_corpus();
    let mut checked = 0usize;
    for (q, label) in &corpus {
        checked += check_all_modes(q, &data, &udfs, label);
    }
    assert!(
        checked >= 3 * corpus.len(),
        "builder corpus must compile under most modes, checked {checked}"
    );
}

/// UDF calls, pure and impure, across every lane signature: batch
/// `Call`s (after a filter, as a filter, inside a window, after a cut,
/// with a literal argument) discharge the call obligation; calls the
/// vectorizer refuses (impure, before a cut, under a conditional, two
/// trap kinds) compile to scalar tapes that must pass as well.
#[test]
fn udf_corpus_has_zero_false_positives() {
    let data = ctx();
    let mut udfs = UdfRegistry::new();
    udfs.register_pure("lin", vec![Ty::F64], Ty::F64, |v: &[Value]| {
        Value::F64(v[0].as_f64().unwrap_or(0.0) * 1.5 + 0.25)
    });
    udfs.register_pure("mix", vec![Ty::F64, Ty::F64], Ty::F64, |v: &[Value]| {
        Value::F64(v[0].as_f64().unwrap_or(0.0) - v[1].as_f64().unwrap_or(0.0))
    });
    udfs.register_pure("odd", vec![Ty::I64], Ty::Bool, |v: &[Value]| {
        Value::Bool(v[0].as_i64().unwrap_or(0) % 2 != 0)
    });
    udfs.register_pure("sq", vec![Ty::I64], Ty::I64, |v: &[Value]| {
        let n = v[0].as_i64().unwrap_or(0);
        Value::I64(n.wrapping_mul(n))
    });
    udfs.register("logged", vec![Ty::F64], Ty::F64, |v: &[Value]| v[0].clone());
    let texts = [
        "xs.select(|x| lin(x)).sum()",
        "xs.where(|x| x > 0.0).select(|x| mix(x, 2.0)).sum()",
        "ns.where(|x| odd(x)).count()",
        "ns.select(|x| sq(x)).skip(3).take(50).sum()",
        "xs.take_while(|x| x < 100.0).select(|x| lin(x) + mix(x, x)).max()",
        "xs.select(|x| logged(x)).sum()",
        "xs.take_while(|x| lin(x) < 100.0).count()",
        "ns.select(|x| sq(x) / x).sum()",
        "ns.where(|x| odd(x)).select(|x| sq(x)).sum()",
    ];
    let mut checked = 0usize;
    let mut calls = 0u32;
    for text in texts {
        let (q, _) = steno_syntax::parse_query(text)
            .unwrap_or_else(|e| panic!("UDF query failed to parse: `{text}`: {e}"));
        checked += check_all_modes(&q, &data, &udfs, text);
        let c = CompiledQuery::compile(&q, SourceTypes::from(&data), &udfs)
            .unwrap_or_else(|e| panic!("`{text}` failed to compile: {e}"));
        calls += steno_vm::check_program(c.program()).map_or(0, |r| r.call);
    }
    assert!(
        checked >= 3 * texts.len(),
        "UDF corpus must compile, checked {checked}"
    );
    assert!(
        calls >= 5,
        "batch calls must discharge call obligations, got {calls}"
    );
}
