//! The Group workload of §7.1: a binned histogram of samples from a
//! mixture of Gaussians, exercising the GroupByAggregate specialization
//! (§4.3).
//!
//! Run with `cargo run --release --example histogram`.

use std::time::Instant;

use steno::prelude::*;
use steno::vm::query::StenoOptions;
use steno::vm::CompiledQuery;
use steno_quil::LowerOptions;

fn sample_mixture(n: usize, seed: u64) -> Vec<f64> {
    use steno_repro::prng::SplitMix64;
    let mut rng = SplitMix64::new(seed);
    let components = [(-4.0, 1.0), (0.0, 0.5), (3.0, 2.0)];
    (0..n)
        .map(|_| {
            let (mean, sd) = components[rng.index(components.len())];
            let u1: f64 = rng.next_f64().max(1e-12);
            let u2: f64 = rng.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            mean + sd * z
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 2_000_000;
    let data = sample_mixture(n, 7);
    let ctx = DataContext::new().with_source("samples", data);
    let udfs = UdfRegistry::new();

    // GroupBy with an aggregating result selector: histogram counts.
    let q = Query::source("samples")
        .group_by_result(
            Expr::var("x").floor(),
            "x",
            GroupResult::keyed("bin", "g", Query::over(Expr::var("g")).count().build()),
        )
        .order_by(Expr::var("kv").field(0), "kv")
        .build();

    // Specialized plan (GroupByAggregate sink)...
    let specialized = CompiledQuery::compile(&q, (&ctx).into(), &udfs)?;
    let t = Instant::now();
    let hist = specialized.run(&ctx, &udfs)?;
    let fast = t.elapsed();

    // ...versus the naive plan (materialize every bag, then count).
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
    )?;
    let t = Instant::now();
    let hist2 = naive.run(&ctx, &udfs)?;
    let slow = t.elapsed();
    assert_eq!(hist.key(), hist2.key());

    println!("plan with §4.3 specialization: {}", specialized.quil());
    println!("naive plan:                    {}\n", naive.quil());
    println!("histogram of {n} mixture-of-Gaussians samples:");
    for kv in hist.as_seq().unwrap() {
        let (bin, count) = kv.as_pair().unwrap();
        let c = count.as_i64().unwrap();
        let bar = "#".repeat((c as usize * 60 / n).max(usize::from(c > 0)));
        println!("{:>6} | {bar} {c}", format!("{}", bin.as_f64().unwrap()));
    }
    println!("\nspecialized sink: {fast:?}   naive group-then-reduce: {slow:?}");
    println!(
        "speedup from the GroupByAggregate specialization: {:.1}x",
        slow.as_secs_f64() / fast.as_secs_f64()
    );
    Ok(())
}
