//! Mutation self-test for the tape verifier ([`steno_vm::check`]).
//!
//! Each test compiles a real query, injects one class of deliberate
//! miscompile into the resulting `Program` — the kinds of silent bug a
//! backend pass could introduce — and asserts the checker rejects it
//! with the right proof obligation. Together with the zero-false-
//! positive corpus run (`tape_check_corpus.rs`), this is the same
//! differential-strength evidence the execution tiers have: the checker
//! accepts every real tape and refuses every mutant.

use std::sync::Arc;

use steno_expr::{DataContext, Expr, UdfRegistry};
use steno_query::{Query, QueryExpr};
use steno_vm::batch::BOp;
use steno_vm::check::{check_program, ObligationKind};
use steno_vm::query::{CompileFeedback, StenoOptions};
use steno_vm::{CompiledQuery, Instr, Program, VectorizationPolicy};

fn x() -> Expr {
    Expr::var("x")
}

fn fctx() -> DataContext {
    let data: Vec<f64> = (0..2500).map(|i| i as f64 * 0.5 - 300.0).collect();
    DataContext::new().with_source("xs", data)
}

fn ictx() -> DataContext {
    let data: Vec<i64> = (0..2500).map(|i| i * 3 - 700).collect();
    DataContext::new().with_source("ns", data)
}

fn compile(q: &QueryExpr, ctx: &DataContext, opts: StenoOptions) -> Program {
    let udfs = UdfRegistry::new();
    let c = CompiledQuery::compile_with(q, ctx.into(), &udfs, opts, CompileFeedback::default())
        .unwrap_or_else(|e| panic!("compile failed for {q}: {e}"));
    assert!(
        check_program(c.program()).is_ok(),
        "pristine tape must pass before mutation: {:?}",
        check_program(c.program())
    );
    c.program().clone()
}

fn scalar_opts() -> StenoOptions {
    StenoOptions {
        vectorize: VectorizationPolicy::Off,
        ..StenoOptions::default()
    }
}

/// Applies `mutate` to the first `BatchLoop` in the program and
/// reinstalls it (fresh `Arc`), panicking if there is none.
fn mutate_batch(p: &mut Program, mutate: impl FnOnce(&mut steno_vm::batch::BatchProgram)) {
    for ins in &mut p.instrs {
        if let Instr::BatchLoop(bp) = ins {
            let mut owned = (**bp).clone();
            mutate(&mut owned);
            *ins = Instr::BatchLoop(Arc::new(owned));
            return;
        }
    }
    panic!("no BatchLoop in program");
}

#[track_caller]
fn assert_rejected(p: &Program, expect: &[ObligationKind], what: &str) {
    match check_program(p) {
        Ok(rep) => panic!("{what}: mutant accepted ({})", rep.summary()),
        Err(e) => {
            assert!(
                expect.contains(&e.kind),
                "{what}: rejected under {:?}, expected one of {expect:?} ({e})",
                e.kind
            );
            println!("{what}: caught: {e}");
        }
    }
}

// ---------------------------------------------------------------------
// 1. Swapped registers: a non-commutative operation with its operands
//    exchanged — the classic register-allocation bug.
// ---------------------------------------------------------------------
#[test]
fn swapped_registers_caught() {
    let q = Query::source("xs")
        .select(x() - Expr::litf(1.5), "x")
        .sum()
        .build();
    let mut p = compile(&q, &fctx(), StenoOptions::default());
    let mut swapped = false;
    mutate_batch(&mut p, |bp| {
        for op in &mut bp.tape {
            if let BOp::SubF(_, a, b) = op {
                if a != b {
                    std::mem::swap(a, b);
                    swapped = true;
                    break;
                }
            }
        }
    });
    assert!(swapped, "expected a SubF in the batch tape");
    assert_rejected(&p, &[ObligationKind::Equiv], "swapped batch registers");
}

#[test]
fn swapped_scalar_registers_caught() {
    let q = Query::source("ns")
        .select(x() - Expr::liti(7), "x")
        .sum()
        .build();
    let mut p = compile(&q, &ictx(), scalar_opts());
    let mut swapped = false;
    for ins in &mut p.instrs {
        if let Instr::SubI(_, a, b) = ins {
            if a != b {
                std::mem::swap(a, b);
                swapped = true;
                break;
            }
        }
    }
    assert!(swapped, "expected a SubI in the scalar tape");
    assert_rejected(&p, &[ObligationKind::Equiv], "swapped scalar registers");
}

// ---------------------------------------------------------------------
// 2. Dropped zero-guard: a trapping division replaced by its unchecked
//    form without an interval proof.
// ---------------------------------------------------------------------
#[test]
fn dropped_zero_guard_caught() {
    // x - 1 spans zero, so the compiler must emit a checked DivI.
    let q = Query::source("ns")
        .select(x() / (x() - Expr::liti(1)), "x")
        .sum()
        .build();
    let mut p = compile(&q, &ictx(), StenoOptions::default());
    let mut dropped = false;
    mutate_batch(&mut p, |bp| {
        for op in &mut bp.tape {
            if let BOp::DivI(d, a, b) = *op {
                *op = BOp::DivIUnchecked(d, a, b);
                dropped = true;
                break;
            }
        }
    });
    assert!(dropped, "expected a checked DivI in the batch tape");
    assert_rejected(&p, &[ObligationKind::Div], "dropped zero-guard");
}

// ---------------------------------------------------------------------
// 3. Skipped poll: the loop back-edge degenerates into a spin that
//    never crosses the interpreter's poll point.
// ---------------------------------------------------------------------
#[test]
fn skipped_poll_caught() {
    let q = Query::source("ns")
        .where_(x().gt(Expr::liti(0)), "x")
        .count()
        .build();
    let mut p = compile(&q, &ictx(), scalar_opts());
    let mut retargeted = false;
    for pc in 0..p.instrs.len() {
        let self_pc = pc as u32;
        match &mut p.instrs[pc] {
            Instr::Jump(t) | Instr::IncJump { target: t, .. } if (*t as usize) < pc => {
                *t = self_pc;
                retargeted = true;
            }
            _ => {}
        }
        if retargeted {
            break;
        }
    }
    assert!(retargeted, "expected a backward jump in the scalar tape");
    assert_rejected(&p, &[ObligationKind::Polls], "skipped poll");
}

// ---------------------------------------------------------------------
// 4. Off-by-one branch target: a branch lands one instruction away
//    from where it should.
// ---------------------------------------------------------------------
#[test]
fn off_by_one_branch_target_caught() {
    let q = Query::source("ns")
        .where_(x().gt(Expr::liti(0)), "x")
        .count()
        .build();
    let mut p = compile(&q, &ictx(), scalar_opts());
    let mut bumped = false;
    for ins in &mut p.instrs {
        match ins {
            Instr::BrCmpI { target, .. }
            | Instr::BrCmpF { target, .. }
            | Instr::JumpIfTrue(_, target)
            | Instr::JumpIfFalse(_, target) => {
                *target += 1;
                bumped = true;
                break;
            }
            _ => {}
        }
    }
    assert!(bumped, "expected a conditional branch in the scalar tape");
    assert_rejected(
        &p,
        &[
            ObligationKind::Equiv,
            ObligationKind::Cfg,
            ObligationKind::Dataflow,
            ObligationKind::Polls,
        ],
        "off-by-one branch target",
    );
}

#[test]
fn out_of_bounds_branch_target_caught() {
    let q = Query::source("ns").count().build();
    let mut p = compile(&q, &ictx(), scalar_opts());
    let len = p.instrs.len() as u32;
    let mut bumped = false;
    for ins in &mut p.instrs {
        match ins {
            Instr::Jump(t) | Instr::IncJump { target: t, .. } => {
                *t = len + 3;
                bumped = true;
                break;
            }
            _ => {}
        }
    }
    assert!(bumped, "expected a jump in the scalar tape");
    assert_rejected(&p, &[ObligationKind::Cfg], "out-of-bounds branch target");
}

// ---------------------------------------------------------------------
// 5. Premature slot reuse: a batch read remapped to the wrong column,
//    as a buggy `pack_batch_slots` would after reusing a live slot.
// ---------------------------------------------------------------------
#[test]
fn premature_slot_reuse_caught() {
    let q = Query::source("xs")
        .select(x() + Expr::litf(1.5), "x")
        .sum()
        .build();
    let mut p = compile(&q, &fctx(), StenoOptions::default());
    let mut remapped = false;
    mutate_batch(&mut p, |bp| {
        // Redirect the sum's result into a different slot, as a buggy
        // `pack_batch_slots` would when it reuses a slot it wrongly
        // believes dead: the reduction downstream still reads the old
        // slot, which now holds the stale source column.
        assert!(bp.n_f >= 2, "expected at least two f64 slots");
        for op in &mut bp.tape {
            if let BOp::AddF(d, _, _) = op {
                *d = if *d == 0 { 1 } else { 0 };
                remapped = true;
                break;
            }
        }
    });
    assert!(remapped, "expected an AddF in the batch tape");
    assert_rejected(
        &p,
        &[ObligationKind::Equiv, ObligationKind::Dataflow],
        "premature slot reuse",
    );
}

// ---------------------------------------------------------------------
// 6. Type-confused column: a comparison reads slot N of the wrong
//    bank — the index is "valid", the type is not.
// ---------------------------------------------------------------------
#[test]
fn type_confused_column_caught() {
    let q = Query::source("ns")
        .where_(x().lt(Expr::liti(100)), "x")
        .select(x() + Expr::liti(1), "x")
        .sum()
        .build();
    let mut p = compile(&q, &ictx(), StenoOptions::default());
    let mut confused = false;
    mutate_batch(&mut p, |bp| {
        for op in &mut bp.tape {
            if let BOp::LtIB(d, a, b) = *op {
                *op = BOp::LtFB(d, a, b);
                confused = true;
                break;
            }
        }
    });
    assert!(confused, "expected an i64 comparison in the batch tape");
    assert_rejected(
        &p,
        &[ObligationKind::Dataflow, ObligationKind::Equiv],
        "type-confused column",
    );
}

// ---------------------------------------------------------------------
// 7. Mangled superinstruction: a fused compare-and-branch with its
//    polarity inverted — takes the loop exit on the wrong condition.
// ---------------------------------------------------------------------
#[test]
fn mangled_superinstruction_caught() {
    let q = Query::source("ns")
        .where_(x().gt(Expr::liti(0)), "x")
        .count()
        .build();
    let mut p = compile(&q, &ictx(), scalar_opts());
    let mut flipped = false;
    for ins in &mut p.instrs {
        match ins {
            Instr::BrCmpI { on_true, .. } | Instr::BrCmpF { on_true, .. } => {
                *on_true = !*on_true;
                flipped = true;
                break;
            }
            _ => {}
        }
    }
    assert!(
        flipped,
        "expected a BrCmp superinstruction in the scalar tape (pair fusion ran)"
    );
    assert_rejected(&p, &[ObligationKind::Equiv], "mangled superinstruction");
}

// ---------------------------------------------------------------------
// 8. Hoisted non-invariant: the preamble carries a different value
//    than the loop body recomputes — what hoisting something that is
//    not actually loop-invariant looks like.
// ---------------------------------------------------------------------
#[test]
fn hoisted_non_invariant_caught() {
    let q = Query::source("ns")
        .select(x() * Expr::liti(3), "x")
        .sum()
        .build();
    let mut p = compile(&q, &ictx(), scalar_opts());
    let mut corrupted = false;
    for ins in &mut p.instrs {
        if let Instr::ConstI(_, v) = ins {
            if *v == 3 {
                *v = 4;
                corrupted = true;
                break;
            }
        }
    }
    assert!(corrupted, "expected the literal 3 in the optimized tape");
    assert_rejected(&p, &[ObligationKind::Equiv], "hoisted non-invariant");
}

// ---------------------------------------------------------------------
// 9. Mangled fused kernel: the whole-loop kernel claims a different
//    shape than the tape it replaced.
// ---------------------------------------------------------------------
#[test]
fn mangled_fused_kernel_caught() {
    use steno_vm::fuse_kernels::{FusedTape, MapF};
    let q = Query::source("xs")
        .select(x() * x(), "x")
        .sum()
        .build();
    let mut p = compile(&q, &fctx(), StenoOptions::default());
    let mut mangled = false;
    mutate_batch(&mut p, |bp| {
        if let Some(FusedTape::SumF { map, .. }) = &mut bp.fused {
            // sum(x*x) silently becomes sum(x).
            *map = MapF::X;
            mangled = true;
        }
    });
    assert!(mangled, "expected a fused SumF kernel");
    assert_rejected(&p, &[ObligationKind::Equiv], "mangled fused kernel");
}
