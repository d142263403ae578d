//! One-off measurement: tape-checker cost relative to compile cost.
use std::time::Instant;

use steno_expr::{DataContext, Expr, UdfRegistry};
use steno_query::Query;
use steno_vm::query::StenoOptions;
use steno_vm::{CompiledQuery, VectorizationPolicy};

fn x() -> Expr {
    Expr::var("x")
}

fn main() {
    let udfs = UdfRegistry::new();
    let ctx = DataContext::new()
        .with_source("xs", (0..3000).map(|i| f64::from(i) * 0.25 - 40.0).collect::<Vec<_>>())
        .with_source("ns", (0..3000i64).map(|i| i * 3 - 700).collect::<Vec<_>>());
    let queries = vec![
        ("sumsq", Query::source("xs").select(x() * x(), "x").sum().build()),
        ("fms", Query::source("xs")
            .where_(x().gt(Expr::litf(2.0)), "x")
            .select(x() * Expr::litf(3.0), "x")
            .sum()
            .build()),
        ("i64filter", Query::source("ns")
            .where_((x() % Expr::liti(3)).eq(Expr::liti(0)), "x")
            .select(x() * x(), "x")
            .sum()
            .build()),
        ("i64div", Query::source("ns")
            .select(x() / (x() * x() + Expr::liti(1)), "x")
            .sum()
            .build()),
    ];
    let reps = 200;
    for (mode, opts) in [
        ("auto", StenoOptions::default()),
        ("scalar", StenoOptions { vectorize: VectorizationPolicy::Off, ..StenoOptions::default() }),
    ] {
        for (name, q) in &queries {
            let mut compile_ns = 0u128;
            let mut check_ns = 0u128;
            for _ in 0..reps {
                let t0 = Instant::now();
                let c = CompiledQuery::compile_with(q, (&ctx).into(), &udfs, opts).unwrap();
                compile_ns += t0.elapsed().as_nanos();
                let t1 = Instant::now();
                steno_vm::check_program(c.program()).unwrap();
                check_ns += t1.elapsed().as_nanos();
            }
            // Isolate the equivalence pass: same program, shadow stripped.
            let mut noshadow_ns = 0u128;
            {
                let c = CompiledQuery::compile_with(q, (&ctx).into(), &udfs, opts).unwrap();
                let mut p2 = c.program().clone();
                p2.shadow = None;
                for _ in 0..reps {
                    let t = Instant::now();
                    steno_vm::check_program(&p2).unwrap();
                    noshadow_ns += t.elapsed().as_nanos();
                }
            }
            println!(
                "{name}/{mode}: compile {} us, check {} us (no-shadow {} us), ratio {:.1}%",
                compile_ns / reps / 1000,
                check_ns / reps / 1000,
                noshadow_ns / reps / 1000,
                100.0 * check_ns as f64 / compile_ns as f64
            );
        }
    }
}
