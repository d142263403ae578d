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

use steno_expr::{DataContext, Expr, Ty, UdfRegistry, Value};
use steno_query::{Query, QueryExpr};
use steno_vm::batch::{BOp, FOp, IOp, Lane, RedK};
use steno_vm::check::{check_program, ObligationKind};
use steno_vm::instr::CmpOp;
use steno_vm::query::StenoOptions;
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
    compile_with_udfs(q, ctx, &UdfRegistry::new(), opts)
}

fn compile_with_udfs(
    q: &QueryExpr,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    opts: StenoOptions,
) -> Program {
    let c = CompiledQuery::compile_with(q, ctx.into(), udfs, opts)
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
/// reinstalls it (fresh `Arc`), panicking if there is none. The scalar
/// shadow names a batch loop by identity, so it is pointed at the mutant
/// too: the mutant is then judged by the batch tape's own obligations,
/// as a backend pass that rewrote the loop in place would be.
fn mutate_batch(p: &mut Program, mutate: impl FnOnce(&mut steno_vm::batch::BatchProgram)) {
    let at = p
        .instrs
        .iter()
        .position(|ins| matches!(ins, Instr::BatchLoop(_)))
        .expect("no BatchLoop in program");
    let Instr::BatchLoop(old) = &p.instrs[at] else {
        unreachable!()
    };
    let old = Arc::clone(old);
    let mut owned = (*old).clone();
    mutate(&mut owned);
    let new = Arc::new(owned);
    p.instrs[at] = Instr::BatchLoop(Arc::clone(&new));
    if let Some(shadow) = &mut p.shadow {
        let mut s = (**shadow).clone();
        for ins in &mut s.instrs {
            if matches!(ins, Instr::BatchLoop(b) if Arc::ptr_eq(b, &old)) {
                *ins = Instr::BatchLoop(Arc::clone(&new));
            }
        }
        *shadow = Arc::new(s);
    }
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
            if let BOp::BinF(FOp::Sub, _, a, b) = op {
                if a != b {
                    std::mem::swap(a, b);
                    swapped = true;
                    break;
                }
            }
        }
    });
    assert!(swapped, "expected an f64 subtraction in the batch tape");
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
            if let BOp::BinF(FOp::Add, d, _, _) = op {
                *d = if *d == 0 { 1 } else { 0 };
                remapped = true;
                break;
            }
        }
    });
    assert!(remapped, "expected an f64 addition in the batch tape");
    assert_rejected(
        &p,
        &[ObligationKind::Equiv, ObligationKind::Dataflow],
        "premature slot reuse",
    );
}

// ---------------------------------------------------------------------
// 6. Confused operands: a comparison reads slot N of the wrong bank —
//    the index is "valid", the type is not — or an op carries the wrong
//    operator.
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
            if let BOp::Cmp(lane @ Lane::I, CmpOp::Lt, ..) = op {
                *lane = Lane::F;
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

/// Each op keeps its lane and slots but carries a neighbouring operator:
/// a batch `<` becomes `<=`, a generic-tape (unfused) `min` fold becomes
/// `max`, and an i64 `+` becomes `-`.
#[test]
fn confused_operator_caught() {
    let lt = Query::source("ns")
        .where_(x().lt(Expr::liti(100)), "x")
        .select(x() + Expr::liti(1), "x")
        .sum()
        .build();
    let min_abs = Query::source("ns").select(x().abs(), "x").min().build();
    let add = Query::source("ns")
        .select(x() + Expr::liti(7), "x")
        .sum()
        .build();
    type Confuse = fn(&mut BOp) -> bool;
    let mutants: [(&QueryExpr, Confuse, &str); 3] = [
        (
            &lt,
            |op| match op {
                BOp::Cmp(_, cmp @ CmpOp::Lt, ..) => {
                    *cmp = CmpOp::Le;
                    true
                }
                _ => false,
            },
            "cmp < → <=",
        ),
        (
            &min_abs,
            |op| match op {
                BOp::Red { red: red @ RedK::Min, .. } => {
                    *red = RedK::Max;
                    true
                }
                _ => false,
            },
            "fold min → max",
        ),
        (
            &add,
            |op| match op {
                BOp::BinI(o @ IOp::Add, ..) => {
                    *o = IOp::Sub;
                    true
                }
                _ => false,
            },
            "i64 + → -",
        ),
    ];
    for (q, confuse, what) in mutants {
        let mut p = compile(q, &ictx(), StenoOptions::default());
        let mut confused = false;
        mutate_batch(&mut p, |bp| {
            if what.starts_with("fold") {
                assert!(bp.fused.is_none(), "expected a generic tape for {q}");
            }
            confused = bp.tape.iter_mut().any(confuse);
        });
        assert!(confused, "expected an op to confuse ({what})");
        assert_rejected(&p, &[ObligationKind::Equiv], &format!("confused operator ({what})"));
    }
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
//    shape than the tape it replaced — a different map, or a different
//    reduction folded by the same masked loop.
// ---------------------------------------------------------------------
#[test]
fn mangled_fused_kernel_caught() {
    use steno_vm::fuse_kernels::{FusedTape, MapF};
    let sum_sq = Query::source("xs")
        .select(x() * x(), "x")
        .sum()
        .build();
    let filtered_min = Query::source("xs")
        .where_(x().gt(Expr::litf(0.5)), "x")
        .min()
        .build();
    // sum(x*x) silently becomes sum(x); sum(x*x) becomes max(x*x);
    // filter(x>0.5)·min(x) becomes filter(x>0.5)·max(x).
    type Mangle = fn(&mut RedK, &mut MapF) -> bool;
    let mutants: [(&QueryExpr, Mangle, &str); 3] = [
        (&sum_sq, |_, map| std::mem::replace(map, MapF::X) == MapF::Sq, "map"),
        (&sum_sq, |red, _| std::mem::replace(red, RedK::Max) == RedK::Sum, "sum → max"),
        (&filtered_min, |red, _| std::mem::replace(red, RedK::Max) == RedK::Min, "min → max"),
    ];
    for (q, mangle, what) in mutants {
        let mut p = compile(q, &fctx(), StenoOptions::default());
        let mut mangled = false;
        mutate_batch(&mut p, |bp| {
            if let Some(FusedTape::F { red, map, .. }) = &mut bp.fused {
                mangled = mangle(red, map);
            }
        });
        assert!(mangled, "expected a fused f64 kernel to mangle ({what})");
        assert_rejected(&p, &[ObligationKind::Equiv], &format!("mangled fused kernel ({what})"));
    }
}

// ---------------------------------------------------------------------
// 10. Broken early exit: a fold hoisted above a `take_while` cut (it
//     would fold lanes past the exit), or a loop's index window widened
//     against the one its shadow recorded (it would read elements a
//     `skip`/`take` excludes).
// ---------------------------------------------------------------------
#[test]
fn fold_moved_above_a_cut_caught() {
    let q = Query::source("xs")
        .take_while(x().lt(Expr::litf(2.0)), "x")
        .sum()
        .build();
    let mut p = compile(&q, &fctx(), StenoOptions::default());
    let mut moved = false;
    mutate_batch(&mut p, |bp| {
        let cut = bp.tape.iter().position(|op| matches!(op, BOp::Cut(_)));
        let fold = bp.tape.iter().position(|op| matches!(op, BOp::Red { .. }));
        if let (Some(cut), Some(fold)) = (cut, fold) {
            let op = bp.tape.remove(fold);
            bp.tape.insert(cut, op);
            moved = true;
        }
    });
    assert!(moved, "expected a Cut and a fold in the batch tape");
    assert_rejected(&p, &[ObligationKind::Cut], "fold moved above a cut");
}

#[test]
fn widened_window_caught() {
    let q = Query::source("ns").skip(10).take(100).sum().build();
    let mut p = compile(&q, &ictx(), StenoOptions::default());
    let mut widened = false;
    mutate_batch(&mut p, |bp| {
        assert_eq!(bp.window, 10..110);
        bp.window = 0..usize::MAX;
        widened = true;
    });
    assert!(widened);
    assert_rejected(&p, &[ObligationKind::Equiv], "widened window");
}

// ---------------------------------------------------------------------
// 11. Unsound batch calls: a batch tape calling a UDF the program does
//     not record as pure (a stale purity fact), or a call whose result
//     lands in a lane its recorded signature does not return.
// ---------------------------------------------------------------------
fn pure_udf_program() -> Program {
    let mut udfs = UdfRegistry::new();
    udfs.register_pure("f", vec![Ty::F64], Ty::F64, |args: &[Value]| {
        Value::F64(args[0].as_f64().unwrap_or(0.0) * 1.5)
    });
    let q = Query::source("xs")
        .select(Expr::call("f", vec![x()]), "x")
        .sum()
        .build();
    compile_with_udfs(&q, &fctx(), &udfs, StenoOptions::default())
}

#[test]
fn batch_call_to_an_impure_udf_caught() {
    let mut p = pure_udf_program();
    let sig = p.udf_sigs[0].as_mut().expect("the batch call is recorded");
    sig.pure = false;
    assert_rejected(&p, &[ObligationKind::Call], "batch call to an impure udf");
}

#[test]
fn lane_mismatched_call_caught() {
    let mut p = pure_udf_program();
    let mut retyped = false;
    mutate_batch(&mut p, |bp| {
        for op in &mut bp.tape {
            if let BOp::Call { dst, .. } = op {
                dst.0 = Lane::I;
                retyped = true;
            }
        }
    });
    assert!(retyped, "expected a Call in the batch tape");
    assert_rejected(&p, &[ObligationKind::Call], "lane-mismatched call");
}

// ---------------------------------------------------------------------
// 12. Unsound typed sinks: a top-k bound narrowed below its reader's
//     window end (the reader would read elements the sink dropped), a
//     top-k sink given a second reader, a direct-indexed group table
//     narrower than the key interval its proof re-derives, and a sort
//     append moved above a `take_while` cut (it would append lanes past
//     the exit).
// ---------------------------------------------------------------------
fn text_program(text: &str, ctx: &DataContext) -> Program {
    let (q, _) = steno_syntax::parse_query(text).expect("corpus text parses");
    compile(&q, ctx, StenoOptions::default())
}

#[test]
fn narrowed_top_k_bound_caught() {
    let mut p = text_program("xs.order_by_descending(|x| x).skip(3).take(10)", &fctx());
    let mut narrowed = false;
    for ins in &mut p.instrs {
        if let Instr::SinkNewSorted(_, spec) = ins {
            assert_eq!(spec.limit, Some(13));
            spec.limit = Some(12);
            narrowed = true;
        }
    }
    assert!(narrowed, "expected a top-k sort sink");
    assert_rejected(&p, &[ObligationKind::Sink], "narrowed top-k bound");
}

#[test]
fn second_reader_of_a_top_k_sink_caught() {
    let mut p = text_program("xs.order_by(|x| x).take(10).sum()", &fctx());
    let reader = p
        .instrs
        .iter()
        .rposition(|ins| matches!(ins, Instr::BatchLoop(_)))
        .expect("a batch reader");
    let again = p.instrs[reader].clone();
    p.instrs.insert(reader, again);
    assert_rejected(&p, &[ObligationKind::Sink], "second reader of a top-k sink");
}

#[test]
fn narrowed_direct_key_range_caught() {
    let mut p = text_program(
        "ns.groupBy(|x| x % 16).select(|kv| (kv.0, kv.1.sum()))",
        &ictx(),
    );
    let mut narrowed = false;
    for ins in &mut p.instrs {
        if let Instr::SinkNewGroupAggSI(_, _, _, Some(range)) = ins {
            let mut r = (**range).clone();
            assert_eq!((r.lo, r.hi), (-15, 15));
            r.lo = 0;
            *range = Arc::new(r);
            narrowed = true;
        }
    }
    assert!(narrowed, "expected a direct-indexed group table");
    assert_rejected(&p, &[ObligationKind::Sink], "narrowed direct key range");
}

#[test]
fn sort_append_moved_above_a_cut_caught() {
    let mut p = text_program("xs.take_while(|x| x < 2.0).order_by(|x| x)", &fctx());
    let mut moved = false;
    mutate_batch(&mut p, |bp| {
        let cut = bp.tape.iter().position(|op| matches!(op, BOp::Cut(_)));
        let push = bp.tape.iter().position(|op| matches!(op, BOp::SortPush { .. }));
        if let (Some(cut), Some(push)) = (cut, push) {
            let op = bp.tape.remove(push);
            bp.tape.insert(cut, op);
            moved = true;
        }
    });
    assert!(moved, "expected a Cut and a SortPush in the batch tape");
    assert_rejected(&p, &[ObligationKind::Sink], "sort append moved above a cut");
}
