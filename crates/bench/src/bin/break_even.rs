//! The break-even analysis of §7.1: "Summing 10 million doubles with
//! LINQ takes approximately 83 ms, whereas with Steno it takes 25 ms plus
//! 69 ms for compilation. The break-even point is approximately 12
//! million doubles." Also demonstrates amortization through the query
//! cache (§3.3).

use std::time::Instant;

use bench::workloads::{scaled, uniform_doubles};
use steno_expr::{DataContext, UdfRegistry};
use steno_linq::Enumerable;
use steno_query::Query;
use steno_vm::query::OptimizeError;
use steno_vm::{CompiledQuery, QueryCache, StenoOptions};

fn main() {
    let udfs = UdfRegistry::new();
    let q = Query::source("xs").sum().build();

    println!("Break-even: one-shot Steno (compile + run) vs LINQ, summing n doubles\n");
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>10}",
        "n", "linq", "steno comp", "steno run", "one-shot?"
    );
    let mut break_even = None;
    for exp in 12..=24u32 {
        let n = scaled(1usize << exp);
        let data = uniform_doubles(n, 9);
        let xs = Enumerable::from_vec(data.clone());
        let t = Instant::now();
        let _ = xs.sum();
        let linq = t.elapsed();
        let ctx = DataContext::new().with_source("xs", data);
        let t = Instant::now();
        let compiled = CompiledQuery::compile(&q, (&ctx).into(), &udfs).unwrap();
        let compile = t.elapsed();
        let t = Instant::now();
        let _ = compiled.run(&ctx, &udfs).unwrap();
        let run = t.elapsed();
        let wins = compile + run < linq;
        if wins && break_even.is_none() {
            break_even = Some(n);
        }
        println!(
            "{:>12} {:>12.2?} {:>12.2?} {:>12.2?} {:>10}",
            n,
            linq,
            compile,
            run,
            if wins { "steno" } else { "linq" }
        );
    }
    match break_even {
        Some(n) => println!("\nbreak-even at ~{n} doubles (paper: ~1.2e7, with csc's ~69 ms cost)"),
        None => println!("\nno break-even reached in the sweep"),
    }

    // Amortization via the cache: "the compiled query object can then be
    // cached by the application" (§3.3, §7.1).
    let cache = QueryCache::new();
    let opts = StenoOptions::default();
    let data = uniform_doubles(scaled(1 << 20), 10);
    let ctx = DataContext::new().with_source("xs", data);
    let t = Instant::now();
    for _ in 0..50 {
        let (compiled, _) = cache
            .get_or_compile(&q, &ctx, &udfs, opts, |_| {
                Ok::<_, OptimizeError>(())
            })
            .unwrap();
        let _ = compiled.run(&ctx, &udfs).unwrap();
    }
    let amortized = t.elapsed() / 50;
    let stats = cache.detailed_stats();
    println!(
        "cached executions: {amortized:.2?}/run over 50 runs (cache hits {}, misses {})",
        stats.hits, stats.misses
    );
}
