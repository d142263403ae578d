//! CI gate for the tape verifier: compiles a representative query set
//! across tiers, runs [`steno_vm::check_program`] over every tape, and
//! exits non-zero on any rejection.
//!
//! Setting `STENO_TAPECHECK_FORCE_MUTANT=1` injects a known miscompile
//! (swapped subtraction operands in the batch tape) before checking.
//! CI runs the gate once normally (must exit 0) and once with the
//! mutant forced (must exit 1) — proving the job actually fails when
//! the checker fires, not just that it is wired in.

use std::process::ExitCode;
use std::sync::Arc;

use steno_expr::{DataContext, Expr, UdfRegistry};
use steno_query::{Query, QueryExpr};
use steno_vm::batch::{BOp, FOp};
use steno_vm::query::StenoOptions;
use steno_vm::{CompiledQuery, Instr, Program, VectorizationPolicy};

fn x() -> Expr {
    Expr::var("x")
}

fn queries() -> Vec<(&'static str, QueryExpr)> {
    vec![
        (
            "sum(x*x):f64",
            Query::source("xs").select(x() * x(), "x").sum().build(),
        ),
        (
            "filter·map·sum:f64",
            Query::source("xs")
                .where_(x().gt(Expr::litf(2.0)), "x")
                .select(x() * Expr::litf(3.0), "x")
                .sum()
                .build(),
        ),
        (
            "sum(x-1.5):f64",
            Query::source("xs")
                .select(x() - Expr::litf(1.5), "x")
                .sum()
                .build(),
        ),
        (
            "count(x<10):f64",
            Query::source("xs")
                .where_(x().lt(Expr::litf(10.0)), "x")
                .count()
                .build(),
        ),
        (
            "rem-filter·sum(x*x):i64",
            Query::source("ns")
                .where_((x() % Expr::liti(3)).eq(Expr::liti(0)), "x")
                .select(x() * x(), "x")
                .sum()
                .build(),
        ),
        (
            "sum(x/(x*x+1)):i64",
            Query::source("ns")
                .select(x() / (x() * x() + Expr::liti(1)), "x")
                .sum()
                .build(),
        ),
    ]
}

/// Swaps the operands of the first f64 subtraction in the first
/// batch loop — the register-allocation bug class from the mutation
/// harness. Returns false if the program has no such instruction.
fn inject_mutant(p: &mut Program) -> bool {
    for ins in &mut p.instrs {
        if let Instr::BatchLoop(bp) = ins {
            let mut owned = (**bp).clone();
            for op in &mut owned.tape {
                if let BOp::BinF(FOp::Sub, _, a, b) = op {
                    if a != b {
                        std::mem::swap(a, b);
                        *ins = Instr::BatchLoop(Arc::new(owned));
                        return true;
                    }
                }
            }
        }
    }
    false
}

fn main() -> ExitCode {
    let force_mutant = std::env::var("STENO_TAPECHECK_FORCE_MUTANT").as_deref() == Ok("1");
    let udfs = UdfRegistry::new();
    let ctx = DataContext::new()
        .with_source(
            "xs",
            (0..3000).map(|i| f64::from(i) * 0.25 - 40.0).collect::<Vec<_>>(),
        )
        .with_source("ns", (0..3000i64).map(|i| i * 3 - 700).collect::<Vec<_>>());
    let modes = [
        ("auto", StenoOptions::default()),
        (
            "scalar",
            StenoOptions {
                vectorize: VectorizationPolicy::Off,
                ..StenoOptions::default()
            },
        ),
    ];
    let mut checked = 0usize;
    let mut mutated = false;
    for (name, q) in queries() {
        for (mode, opts) in &modes {
            let c = match CompiledQuery::compile_with(&q, (&ctx).into(), &udfs, *opts) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("tapecheck-gate: {name}/{mode}: compile error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut p = c.program().clone();
            if force_mutant && !mutated {
                mutated = inject_mutant(&mut p);
                if mutated {
                    eprintln!("tapecheck-gate: injected mutant into {name}/{mode}");
                }
            }
            match steno_vm::check_program(&p) {
                Ok(rep) => {
                    println!("tapecheck-gate: {name}/{mode}: {}", rep.summary());
                    checked += 1;
                }
                Err(e) => {
                    eprintln!("tapecheck-gate: {name}/{mode}: REJECTED: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if force_mutant && !mutated {
        eprintln!("tapecheck-gate: mutant injection found no target instruction");
        return ExitCode::FAILURE;
    }
    println!("tapecheck-gate: {checked} tapes verified");
    ExitCode::SUCCESS
}
