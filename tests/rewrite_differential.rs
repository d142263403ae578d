//! Differential testing of the algebraic rewrite pass (`merge-limits`
//! and `hoist-limit`): every query in the corpus is compiled twice —
//! once with the rewrite pass enabled, once with it disabled — and the
//! two plans must agree *bit-for-bit* on their results (`f64` compared
//! by bit pattern, not `==`). Trap parity is part of the contract: a
//! query that traps without rewrites must trap identically with them,
//! which is exactly what the may-trap gate on hoisting protects. Two
//! controls bracket the purity reasoning: an impure UDF must block
//! hoisting a limit past the map that calls it, and the same function
//! registered pure must permit it.

use steno_expr::{DataContext, Expr, UdfRegistry, Value};
use steno_query::typing::SourceTypes;
use steno_query::{Query, QueryExpr};
use steno_vm::{CompiledQuery, StenoOptions, VmError};

/// Sources for the corpus: thresholds split `xs`/`ns` at various
/// densities, and `ns` contains the divisor zero of the trap control.
fn ctx() -> DataContext {
    DataContext::new()
        .with_source(
            "xs",
            (0..400).map(|i| f64::from(i) * 0.25 - 30.0).collect::<Vec<_>>(),
        )
        .with_source("ns", (1..=100i64).collect::<Vec<_>>())
        .with_source("ys", vec![0.5f64, -1.5, 2.0, 4.0])
}

/// Compiles `q` with the rewrite pass on and off. `None` when the shape
/// is unsupported by the optimizer — in which case both modes must
/// agree it is.
fn compile_pair(
    q: &QueryExpr,
    data: &DataContext,
    udfs: &UdfRegistry,
) -> Option<(CompiledQuery, CompiledQuery)> {
    let on = StenoOptions::default();
    assert!(on.rewrites, "rewrites must default on");
    let off = StenoOptions {
        rewrites: false,
        ..on
    };
    let with = CompiledQuery::compile_with(q, SourceTypes::from(data), udfs, on);
    let without = CompiledQuery::compile_with(q, SourceTypes::from(data), udfs, off);
    match (with, without) {
        (Ok(a), Ok(b)) => {
            assert!(
                b.rewrite_log().is_empty(),
                "rewrites off must skip the pass for `{q}`"
            );
            Some((a, b))
        }
        (Err(_), Err(_)) => None,
        (a, b) => panic!(
            "rewrite toggle changed compilability for `{q}`: with={} without={}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

/// Bit-for-bit equality: floats by bit pattern (so `-0.0` vs `0.0` or a
/// NaN payload difference is a failure, not a pass).
fn assert_bits_eq(a: &Value, b: &Value, q: &str) {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "f64 bits differ for `{q}`: {x} vs {y}");
        }
        (Value::Row(xs), Value::Row(ys)) => {
            assert_eq!(xs.len(), ys.len(), "row length differs for `{q}`");
            for (x, y) in xs.iter().zip(ys.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "row f64 bits differ for `{q}`");
            }
        }
        (Value::Pair(p), Value::Pair(r)) => {
            assert_bits_eq(&p.0, &r.0, q);
            assert_bits_eq(&p.1, &r.1, q);
        }
        (Value::Seq(xs), Value::Seq(ys)) => {
            assert_eq!(xs.len(), ys.len(), "sequence length differs for `{q}`");
            for (x, y) in xs.iter().zip(ys.iter()) {
                assert_bits_eq(x, y, q);
            }
        }
        _ => assert_eq!(a, b, "values differ for `{q}`"),
    }
}

/// Runs both plans and checks agreement — on values bit-for-bit, and on
/// traps by exact error. Returns how many rewrites were applied, so
/// callers can assert the suite actually exercised the pass.
fn check_agreement(q: &QueryExpr, data: &DataContext, udfs: &UdfRegistry) -> usize {
    let Some((with, without)) = compile_pair(q, data, udfs) else {
        return 0;
    };
    // Belt and braces: the final rewritten chain re-passes the
    // independent verifier (each individual rewrite already did).
    steno_analysis::verify(with.chain(), udfs)
        .unwrap_or_else(|e| panic!("rewritten chain failed verification for `{q}`: {e}"));
    match (with.run(data, udfs), without.run(data, udfs)) {
        (Ok(a), Ok(b)) => assert_bits_eq(&a, &b, &q.to_string()),
        (Err(a), Err(b)) => assert_eq!(a, b, "trap identity differs for `{q}`"),
        (a, b) => panic!(
            "trap parity broken for `{q}`: with-rewrites ok={} without ok={}",
            a.is_ok(),
            b.is_ok()
        ),
    }
    with.rewrite_log().iter().filter(|ev| ev.applied).count()
}

/// Text-spellable corpus: the end-to-end shapes plus the limit-bearing
/// pipelines the rewrite rules target (adjacent takes and skips, limits
/// hoistable past pure maps) and multi-filter pipelines neither rule
/// touches.
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
    "ns.skip(3).take(40).take(20).sum()",
    "xs.select(|x| x * 0.5).skip(10).count()",
    "ns.select(|x| x + 1).skip(2).skip(3).take(5).sum()",
];

#[test]
fn text_corpus_agrees_bit_for_bit() {
    let data = ctx();
    let udfs = UdfRegistry::new();
    let mut applied = 0usize;
    for text in TEXT_CORPUS {
        let (q, _) = steno_syntax::parse_query(text)
            .unwrap_or_else(|e| panic!("corpus query failed to parse: `{text}`: {e}"));
        applied += check_agreement(&q, &data, &udfs);
    }
    assert!(
        applied >= 5,
        "corpus must actually exercise the rewrite pass, applied {applied}"
    );
}

/// Whether `c` applied the `hoist-limit` rule.
fn hoisted(c: &CompiledQuery) -> bool {
    c.rewrite_log()
        .iter()
        .any(|ev| ev.applied && ev.rule == "hoist-limit")
}

#[test]
fn trap_parity_is_preserved() {
    let data = ctx();
    let udfs = UdfRegistry::new();
    // `60 / (x - 50)` traps at x = 50, which `ns` contains, and the
    // `skip(60)` after it drops that element. Hoisting the skip would
    // stop the map from ever seeing 50, so the may-trap gate must keep
    // the skip in place, and both plans trap — identically.
    let trapping = Query::source("ns")
        .select(Expr::liti(60) / (Expr::var("x") - Expr::liti(50)), "x")
        .skip(60)
        .sum()
        .build();
    let (with, without) = compile_pair(&trapping, &data, &udfs).expect("supported shape");
    assert!(
        !hoisted(&with),
        "a limit must not hoist past a trapping map: {:?}",
        with.rewrite_log()
    );
    let a = with.run(&data, &udfs);
    let b = without.run(&data, &udfs);
    assert_eq!(a, b, "trap behavior must agree");
    assert_eq!(a, Err(VmError::DivisionByZero));

    // The guarded variant computes a value in both modes.
    let guarded = Query::source("ns")
        .where_(Expr::var("x").ne(Expr::liti(50)), "x")
        .select(Expr::liti(60) / (Expr::var("x") - Expr::liti(50)), "x")
        .sum()
        .build();
    assert!(compile_pair(&guarded, &data, &udfs).is_some());
    check_agreement(&guarded, &data, &udfs);
}

/// `xs.select(|x| scale(x)).skip(100).sum()`, with `scale` doubling its
/// argument and registered pure or impure.
fn scaled_skip(pure: bool) -> (QueryExpr, UdfRegistry) {
    let mut udfs = UdfRegistry::new();
    let scale = |args: &[Value]| Value::F64(args[0].as_f64().unwrap_or(0.0) * 2.0);
    let (args, ret) = (vec![steno_expr::Ty::F64], steno_expr::Ty::F64);
    if pure {
        udfs.register_pure("scale", args, ret, scale);
    } else {
        udfs.register("scale", args, ret, scale);
    }
    let q = Query::source("xs")
        .select(Expr::call("scale", vec![Expr::var("x")]), "x")
        .skip(100)
        .sum()
        .build();
    (q, udfs)
}

#[test]
fn impure_udf_blocks_limit_hoist() {
    // Negative control: `scale` is registered WITHOUT a purity fact, so
    // the skip after it must stay put even though moving it would save
    // 100 calls.
    let data = ctx();
    let (q, udfs) = scaled_skip(false);
    let Some((with, without)) = compile_pair(&q, &data, &udfs) else {
        panic!("UDF query must compile");
    };
    assert!(
        !hoisted(&with),
        "impure UDF must block hoisting: {:?}",
        with.rewrite_log()
    );
    let a = with.run(&data, &udfs).unwrap();
    assert_bits_eq(&a, &without.run(&data, &udfs).unwrap(), "impure-udf control");
}

#[test]
fn pure_udf_permits_limit_hoist() {
    // Positive control: the identical pipeline with `scale` registered
    // pure. The purity fact is the only difference, and it must be
    // exactly what unlocks the rewrite.
    let data = ctx();
    let (q, udfs) = scaled_skip(true);
    let Some((with, without)) = compile_pair(&q, &data, &udfs) else {
        panic!("UDF query must compile");
    };
    assert!(
        hoisted(&with),
        "pure UDF must permit hoisting: {:?}",
        with.rewrite_log()
    );
    let a = with.run(&data, &udfs).unwrap();
    assert_bits_eq(&a, &without.run(&data, &udfs).unwrap(), "pure-udf control");
}
