//! Cross-crate integration: the paper's workloads through every executor
//! — unoptimized iterators, the runtime Steno pipeline (with fallback),
//! and query text — agreeing on results.

use steno::prelude::*;
use steno_linq::interp;

fn ctx() -> DataContext {
    DataContext::new()
        .with_source("xs", (0..500).map(|i| (i as f64) * 0.25 - 30.0).collect::<Vec<_>>())
        .with_source("ns", (0..100i64).collect::<Vec<_>>())
        .with_source("ys", vec![0.5f64, -1.5, 2.0, 4.0])
}

#[track_caller]
fn agree(text: &str) {
    let c = ctx();
    let udfs = UdfRegistry::new();
    let engine = Steno::new();
    let (q, _) = steno::syntax::parse_query(text).expect("parse");
    let via_interp = interp::execute(&q, &c, &udfs).expect("interp");
    let (via_engine, _, _) = engine
        .execute_with(&q, &c, &udfs, &Exec::default())
        .expect("engine");
    assert_eq!(via_interp.key(), via_engine.key(), "query: {text}");
}

#[test]
fn paper_running_example() {
    agree("from x in ns where x % 2 == 0 select x * x");
}

#[test]
fn microbenchmark_shapes() {
    agree("(from x in xs select x).sum()");
    agree("(from x in xs select x * x).sum()");
    agree("(from x in xs from y in ys select x * y).sum()");
    agree("xs.group_by(|x| x.floor()).select(|kv| (kv.0, kv.1.count()))");
}

#[test]
fn comprehension_clauses() {
    agree("from x in xs where x > 0.0 orderby x descending select x + 1.0");
    agree("from x in ns group x * x by x % 7");
    agree("(from x in ns select x).skip(20).take(30).sum()");
    agree("xs.take_while(|x| x < 50.0).count()");
    agree("xs.skip_while(|x| x < 0.0).min()");
}

#[test]
fn aggregates_via_text() {
    agree("xs.min()");
    agree("xs.max()");
    agree("xs.average()");
    agree("xs.count(|x| x > 0.0)");
    agree("xs.any(|x| x > 90.0)");
    agree("xs.all(|x| x > -100.0)");
    agree("ns.aggregate(1, |acc, x| acc * (x % 5 + 1))");
    agree("xs.first()");
}

#[test]
fn nested_queries_via_text() {
    agree("xs.select(|x| ys.count(|y| y > x)).sum()");
    agree("(from x in ys from y in ys select x + y).to_array().count()");
    agree("ns.where(|x| ns.any(|y| y == x + 50)).count()");
}

#[test]
fn sinks_via_text() {
    agree("ns.select(|x| x % 9).distinct().order_by(|x| x)");
    agree("from kv in (from x in ns group x by x % 4) where kv.0 > 0 select kv.0");
}

#[test]
fn fallback_handles_unsupported_shapes() {
    // Concat is outside QUIL: the engine must still answer, via the
    // unoptimized executor.
    let c = ctx();
    let udfs = UdfRegistry::new();
    let engine = Steno::new();
    let q = Query::source("xs").concat(Query::source("ys")).count().build();
    let (v, path, _) = engine.execute_with(&q, &c, &udfs, &Exec::default()).unwrap();
    assert_eq!(v, Value::I64(504));
    assert_eq!(path, ExecutionPath::Fallback);
}

#[test]
fn generated_code_matches_figures() {
    // The even-squares query generates exactly the loop of §2's
    // hand-optimized example: guard, transform, yield.
    let c = ctx();
    let udfs = UdfRegistry::new();
    let engine = Steno::new();
    let (q, _) =
        steno::syntax::parse_query("from x in ns where x % 2 == 0 select x * x").unwrap();
    let compiled = engine.compile(&q, (&c).into(), &udfs).unwrap();
    assert_eq!(compiled.quil(), "Src Pred Trans Ret");
    let src = compiled.rust_source();
    let guard = src.find("continue").expect("predicate guard");
    let transform = src.find("(elem_0 * elem_0)").expect("inlined transform");
    let push = src.find("__out.push").expect("yield");
    assert!(guard < transform && transform < push, "statement order:\n{src}");
}

#[test]
fn udfs_flow_through_the_whole_pipeline() {
    let mut udfs = UdfRegistry::new();
    udfs.register("clamp01", vec![Ty::F64], Ty::F64, |args| {
        Value::F64(args[0].as_f64().unwrap().clamp(0.0, 1.0))
    });
    let c = ctx();
    let engine = Steno::new();
    let (q, _) = steno::syntax::parse_query("xs.select(|x| clamp01(x)).sum()").unwrap();
    let via_interp = interp::execute(&q, &c, &udfs).unwrap();
    let via_engine = engine.execute(&q, &c, &udfs).unwrap();
    assert_eq!(via_interp.key(), via_engine.key());
}

#[test]
fn cache_survives_across_queries() {
    let c = ctx();
    let udfs = UdfRegistry::new();
    let engine = Steno::new();
    for _ in 0..3 {
        engine.execute_text("xs.sum()", &c, &udfs).unwrap();
        engine.execute_text("xs.min()", &c, &udfs).unwrap();
    }
    let stats = engine.detailed_cache_stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 4);
}

#[test]
fn join_canonicalizes_to_the_section_5_form_and_executes() {
    // The §5 equi-join example: xs.SelectMany(x => ys.Where(y => x == y)).
    use steno::query::QFn2;
    let people = DataContext::new()
        .with_source("ids", vec![1i64, 2, 3, 4])
        .with_source("owned", vec![1i64, 3, 3, 9]);
    let udfs = UdfRegistry::new();
    let engine = Steno::new();
    let q = Query::source("ids")
        .join(
            Query::source("owned"),
            "o",
            Expr::var("o"),
            "i",
            Expr::var("i"),
            QFn2::new("o", "i", Expr::var("o") * Expr::liti(10) + Expr::var("i")),
        )
        .build();
    // After canonicalization there is no Join node left.
    assert!(
        q.to_string().contains("SelectMany"),
        "canonical form: {q}"
    );
    let via_interp = interp::execute(&q, &people, &udfs).unwrap();
    let (via_engine, path, _) = engine
        .execute_with(&q, &people, &udfs, &Exec::default())
        .unwrap();
    assert_eq!(via_interp.key(), via_engine.key());
    // The canonical form is fully optimizable: no fallback.
    assert_eq!(path, ExecutionPath::Optimized);
    assert_eq!(
        via_engine,
        Value::seq(vec![Value::I64(11), Value::I64(33), Value::I64(33)])
    );
}

#[test]
fn join_via_text_syntax() {
    let ctx = DataContext::new()
        .with_source("a", vec![1i64, 2, 3])
        .with_source("b", vec![2i64, 3, 4]);
    let udfs = UdfRegistry::new();
    let engine = Steno::new();
    let v = engine
        .execute_text(
            "a.join(b, |o| o % 2, |i| i % 2, |o, i| o * 100 + i).count()",
            &ctx,
            &udfs,
        )
        .unwrap();
    // Keys: a = [1,0,1], b = [0,1,0] → matches: 1×{3}, 2×{2,4}, 3×{3} = 1+2+1
    assert_eq!(v, Value::I64(4));
}
