//! The §4.3 ablation: GroupByAggregate specialization on vs off.
//!
//! With the specialization the sink stores one accumulator per key; with
//! it off, the plan materializes every group's bag and reduces it
//! afterwards ("we can save memory by storing per-key partial aggregates
//! instead of the group of values").

use bench::harness::Criterion;
use bench::{criterion_group, criterion_main};
use steno_expr::{DataContext, Expr, UdfRegistry};
use steno_query::{GroupResult, Query};
use steno_quil::LowerOptions;
use steno_vm::query::StenoOptions;
use steno_vm::CompiledQuery;

fn specialization(c: &mut Criterion) {
    let n = 300_000;
    let data = bench::workloads::mixture_of_gaussians(n, 43);
    let ctx = DataContext::new().with_source("xs", data);
    let udfs = UdfRegistry::new();
    let q = Query::source("xs")
        .group_by_result(
            Expr::var("x").floor(),
            "x",
            GroupResult::keyed("k", "g", Query::over(Expr::var("g")).count().build()),
        )
        .build();

    let specialized = CompiledQuery::compile(&q, (&ctx).into(), &udfs).unwrap();
    let naive = CompiledQuery::compile_with(
        &q,
        (&ctx).into(),
        &udfs,
        StenoOptions {
            lower: LowerOptions {
                specialize_group_aggregate: false,
            },
            ..StenoOptions::default()
        },
    )
    .unwrap();
    // The plans genuinely differ.
    assert!(specialized.quil().contains("GroupByAggregate"));
    assert!(!naive.quil().contains("GroupByAggregate"));
    // And agree on the answer.
    assert_eq!(
        specialized.run(&ctx, &udfs).unwrap().key(),
        naive.run(&ctx, &udfs).unwrap().key()
    );

    let mut group = c.benchmark_group("ablation_group_by_aggregate");
    group.sample_size(10);
    group.bench_function("naive_group_then_reduce", |b| {
        b.iter(|| std::hint::black_box(naive.run(&ctx, &udfs).unwrap()))
    });
    group.bench_function("specialized_sink", |b| {
        b.iter(|| std::hint::black_box(specialized.run(&ctx, &udfs).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, specialization);
criterion_main!(benches);
