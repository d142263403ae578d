//! Back-end ablation: where does the Steno speedup come from?
//!
//! SumSq through: the AST interpreter (no optimization at all), the
//! scalar VM (generated loops, per-instruction dispatch), the
//! batch-vectorized VM (the default), and the boxed-iterator LINQ
//! baseline for reference.

use bench::harness::Criterion;
use bench::{criterion_group, criterion_main};
use steno_expr::{DataContext, Expr, UdfRegistry};
use steno_linq::{interp, Enumerable};
use steno_query::Query;
use steno_vm::query::{StenoOptions, VectorizationPolicy};
use steno_vm::{CompiledQuery, EngineKind};

fn backends(c: &mut Criterion) {
    let n = 300_000;
    let data = bench::workloads::uniform_doubles(n, 42);
    let ctx = DataContext::new().with_source("xs", data.clone());
    let udfs = UdfRegistry::new();
    let q = Query::source("xs")
        .select(Expr::var("x") * Expr::var("x"), "x")
        .sum()
        .build();

    let vectorized = CompiledQuery::compile(&q, (&ctx).into(), &udfs).unwrap();
    assert_eq!(vectorized.engine(), EngineKind::Vectorized);
    let scalar = CompiledQuery::compile_with(
        &q,
        (&ctx).into(),
        &udfs,
        StenoOptions {
            vectorize: VectorizationPolicy::Off,
            ..StenoOptions::default()
        },
    )
    .unwrap();
    assert_eq!(scalar.engine(), EngineKind::Scalar);
    let xs = Enumerable::from_vec(data);

    let mut group = c.benchmark_group("ablation_backends_sumsq");
    group.sample_size(10);
    group.bench_function("ast_interp", |b| {
        b.iter(|| std::hint::black_box(interp::execute(&q, &ctx, &udfs).unwrap()))
    });
    group.bench_function("linq_typed", |b| {
        b.iter(|| std::hint::black_box(xs.select(|x| x * x).sum()))
    });
    group.bench_function("vm_scalar", |b| {
        b.iter(|| std::hint::black_box(scalar.run(&ctx, &udfs).unwrap()))
    });
    group.bench_function("vm_vectorized", |b| {
        b.iter(|| std::hint::black_box(vectorized.run(&ctx, &udfs).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, backends);
criterion_main!(benches);
