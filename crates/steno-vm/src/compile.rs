//! Assembling imperative programs into register bytecode.
//!
//! Types flow from the [`ImpProgram`]'s declarations into register-bank
//! assignment: `f64` expressions compile to F-bank instructions, `i64` and
//! boolean expressions to I-bank instructions, and only compound values
//! touch the boxed V bank. This is where the paper's type specialization
//! (§4.2) pays off at run time: a numeric query's inner loop never boxes.

use std::collections::HashMap;

use steno_codegen::imp::{ImpProgram, LoopHeader, SinkDecl, Stmt, Terminal, Window};
use steno_expr::expr::{BinOp, UnOp};
use steno_expr::{Expr, Ty, UdfRegistry, Value};

use crate::instr::{CmpOp, FallbackReason, Instr, LoopPlan, LoopTier, Pc, Program, UdfSig};
use crate::sink::{SortCols, SortSpec};

/// An error during bytecode assembly. Programs generated from lowered
/// chains assemble cleanly; errors indicate unsupported shapes.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileError(pub String);

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bytecode assembly failed: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

fn err(msg: impl Into<String>) -> CompileError {
    CompileError(msg.into())
}

/// A register location.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Loc {
    F(u32),
    I(u32),
    V(u32),
}

/// How a grouped-aggregate sink stores accumulators.
#[derive(Clone, Copy, Debug, PartialEq)]
enum AccRepr {
    /// Unboxed f64 accumulator with an unboxed scalar key (the fully
    /// type-specialized table).
    SF,
    /// Unboxed i64 accumulator with an unboxed scalar key.
    SI,
    F,
    I,
    V,
}

struct SinkMeta {
    id: u32,
    acc: Option<(AccRepr, Ty)>,
    /// Where the sink's `SinkNew*` instruction sits: a push site fixes a
    /// sort or distinct sink's columns, an update site a group table's
    /// key range, and a vectorized reader a sort's top-k bound, each by
    /// patching it.
    new_pc: usize,
    /// Loops that read the sink (a top-k bound needs exactly one).
    readers: usize,
    /// Whether a push site has fixed the columns.
    cols_fixed: bool,
    /// Group update sites compiled so far.
    key_sites: u32,
}

struct LoopCtx {
    cont_patches: Vec<usize>,
    break_patches: Vec<usize>,
}

struct Compiler<'a> {
    instrs: Vec<Instr>,
    nf: u32,
    ni: u32,
    nv: u32,
    scope: HashMap<String, (Loc, Ty)>,
    src_ids: HashMap<String, u32>,
    src_names: Vec<String>,
    udf_ids: HashMap<String, u32>,
    udf_names: Vec<String>,
    /// Per UDF id, the signature batch tapes call it under.
    udf_sigs: Vec<Option<UdfSig>>,
    udfs: &'a UdfRegistry,
    sinks: HashMap<String, SinkMeta>,
    /// Per sink name, the loops that read it (counted before assembly).
    sink_readers: HashMap<String, usize>,
    n_sinks: u32,
    n_batch: u32,
    batch_fallbacks: Vec<FallbackReason>,
    n_guards_dropped: u32,
    loop_plans: Vec<LoopPlan>,
    fused_kernels: Vec<String>,
    n_slots_reused: u32,
    loops: Vec<LoopCtx>,
    vectorize: bool,
}

const PATCH: Pc = u32::MAX;

impl<'a> Compiler<'a> {
    fn f(&mut self) -> u32 {
        self.nf += 1;
        self.nf - 1
    }

    fn i(&mut self) -> u32 {
        self.ni += 1;
        self.ni - 1
    }

    fn v(&mut self) -> u32 {
        self.nv += 1;
        self.nv - 1
    }

    fn emit(&mut self, instr: Instr) -> usize {
        self.instrs.push(instr);
        self.instrs.len() - 1
    }

    fn here(&self) -> Pc {
        self.instrs.len() as Pc
    }

    fn patch(&mut self, at: usize, target: Pc) {
        match &mut self.instrs[at] {
            Instr::Jump(p) | Instr::JumpIfFalse(_, p) | Instr::JumpIfTrue(_, p) => *p = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn alloc(&mut self, ty: &Ty) -> Loc {
        match ty {
            Ty::F64 => Loc::F(self.f()),
            Ty::I64 | Ty::Bool => Loc::I(self.i()),
            _ => Loc::V(self.v()),
        }
    }

    fn src_id(&mut self, name: &str) -> u32 {
        if let Some(id) = self.src_ids.get(name) {
            return *id;
        }
        let id = self.src_names.len() as u32;
        self.src_names.push(name.to_string());
        self.src_ids.insert(name.to_string(), id);
        id
    }

    fn udf_id(&mut self, name: &str) -> u32 {
        if let Some(id) = self.udf_ids.get(name) {
            return *id;
        }
        let id = self.udf_names.len() as u32;
        self.udf_names.push(name.to_string());
        self.udf_sigs.push(None);
        self.udf_ids.insert(name.to_string(), id);
        id
    }

    // ------------------------------------------------------------------
    // Type inference over the compile-time scope.
    // ------------------------------------------------------------------

    fn infer(&self, e: &Expr) -> Result<Ty, CompileError> {
        match e {
            Expr::Var(name) => self
                .scope
                .get(name)
                .map(|(_, t)| t.clone())
                .ok_or_else(|| err(format!("unbound variable `{name}` in generated code"))),
            Expr::LitF64(_) => Ok(Ty::F64),
            Expr::LitI64(_) => Ok(Ty::I64),
            Expr::LitBool(_) => Ok(Ty::Bool),
            Expr::Bin(op, a, b) => {
                let ta = self.infer(a)?;
                if op.is_comparison() || op.is_logical() {
                    Ok(Ty::Bool)
                } else {
                    let _ = b;
                    Ok(ta)
                }
            }
            Expr::Un(UnOp::Not, _) => Ok(Ty::Bool),
            Expr::Un(_, a) => self.infer(a),
            Expr::Call(name, _) => self
                .udfs
                .get(name)
                .map(|u| u.ret.clone())
                .ok_or_else(|| err(format!("unknown udf `{name}`"))),
            Expr::Field(a, i) => match self.infer(a)? {
                Ty::Pair(x, y) => Ok(if *i == 0 { *x } else { *y }),
                other => Err(err(format!("projection on non-pair {other}"))),
            },
            Expr::RowIndex(..) => Ok(Ty::F64),
            Expr::RowLen(_) => Ok(Ty::I64),
            Expr::MkPair(a, b) => Ok(Ty::pair(self.infer(a)?, self.infer(b)?)),
            Expr::If(_, t, _) => self.infer(t),
            Expr::Cast(ty, _) => Ok(ty.clone()),
        }
    }

    // ------------------------------------------------------------------
    // Boxing helpers.
    // ------------------------------------------------------------------

    fn box_to_v(&mut self, loc: Loc, ty: &Ty) -> u32 {
        match loc {
            Loc::V(r) => r,
            Loc::F(r) => {
                let dst = self.v();
                self.emit(Instr::FToV(dst, r));
                dst
            }
            Loc::I(r) => {
                let dst = self.v();
                if *ty == Ty::Bool {
                    self.emit(Instr::BToV(dst, r));
                } else {
                    self.emit(Instr::IToV(dst, r));
                }
                dst
            }
        }
    }

    fn unbox_from_v(&mut self, src: u32, ty: &Ty) -> Loc {
        match ty {
            Ty::F64 => {
                let dst = self.f();
                self.emit(Instr::VToF(dst, src));
                Loc::F(dst)
            }
            Ty::I64 => {
                let dst = self.i();
                self.emit(Instr::VToI(dst, src));
                Loc::I(dst)
            }
            Ty::Bool => {
                let dst = self.i();
                self.emit(Instr::VToB(dst, src));
                Loc::I(dst)
            }
            _ => Loc::V(src),
        }
    }

    fn mov(&mut self, dst: Loc, src: Loc) {
        match (dst, src) {
            (Loc::F(d), Loc::F(s)) => {
                if d != s {
                    self.emit(Instr::MovF(d, s));
                }
            }
            (Loc::I(d), Loc::I(s)) => {
                if d != s {
                    self.emit(Instr::MovI(d, s));
                }
            }
            (Loc::V(d), Loc::V(s)) => {
                if d != s {
                    self.emit(Instr::MovV(d, s));
                }
            }
            (d, s) => unreachable!("register bank mismatch: {d:?} <- {s:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Expression compilation.
    // ------------------------------------------------------------------

    fn expr(&mut self, e: &Expr) -> Result<(Loc, Ty), CompileError> {
        match e {
            Expr::Var(name) => self
                .scope
                .get(name)
                .cloned()
                .ok_or_else(|| err(format!("unbound variable `{name}` in generated code"))),
            Expr::LitF64(x) => {
                let r = self.f();
                self.emit(Instr::ConstF(r, *x));
                Ok((Loc::F(r), Ty::F64))
            }
            Expr::LitI64(x) => {
                let r = self.i();
                self.emit(Instr::ConstI(r, *x));
                Ok((Loc::I(r), Ty::I64))
            }
            Expr::LitBool(b) => {
                let r = self.i();
                self.emit(Instr::ConstI(r, i64::from(*b)));
                Ok((Loc::I(r), Ty::Bool))
            }
            Expr::Bin(op, a, b) if op.is_logical() => {
                // Short-circuit, preserving the reference evaluator's
                // semantics for traps in the right operand.
                let (la, _) = self.expr(a)?;
                let Loc::I(ra) = la else {
                    return Err(err("logical operand not boolean"));
                };
                let dst = self.i();
                self.emit(Instr::MovI(dst, ra));
                let jump = match op {
                    BinOp::And => self.emit(Instr::JumpIfFalse(dst, PATCH)),
                    _ => self.emit(Instr::JumpIfTrue(dst, PATCH)),
                };
                let (lb, _) = self.expr(b)?;
                let Loc::I(rb) = lb else {
                    return Err(err("logical operand not boolean"));
                };
                self.emit(Instr::MovI(dst, rb));
                let end = self.here();
                self.patch(jump, end);
                Ok((Loc::I(dst), Ty::Bool))
            }
            Expr::Bin(op, a, b) => {
                let (la, ta) = self.expr(a)?;
                let (lb, tb) = self.expr(b)?;
                if let Some(cmp) = CmpOp::of(*op) {
                    let dst = self.i();
                    match (la, lb) {
                        (Loc::F(x), Loc::F(y)) => {
                            self.emit(Instr::CmpF(cmp, dst, x, y));
                        }
                        (Loc::I(x), Loc::I(y)) => {
                            self.emit(Instr::CmpI(cmp, dst, x, y));
                        }
                        (Loc::V(x), Loc::V(y)) => match cmp {
                            CmpOp::Eq => {
                                self.emit(Instr::EqV(dst, x, y));
                            }
                            CmpOp::Ne => {
                                self.emit(Instr::EqV(dst, x, y));
                                self.emit(Instr::NotB(dst, dst));
                            }
                            _ => {
                                return Err(err(format!(
                                    "ordering comparison on compound values ({ta}, {tb})"
                                )))
                            }
                        },
                        _ => return Err(err("comparison operand bank mismatch")),
                    }
                    return Ok((Loc::I(dst), Ty::Bool));
                }
                // Arithmetic / min / max.
                match (la, lb) {
                    (Loc::F(x), Loc::F(y)) => {
                        let dst = self.f();
                        let instr = match op {
                            BinOp::Add => Instr::AddF(dst, x, y),
                            BinOp::Sub => Instr::SubF(dst, x, y),
                            BinOp::Mul => Instr::MulF(dst, x, y),
                            BinOp::Div => Instr::DivF(dst, x, y),
                            BinOp::Rem => Instr::RemF(dst, x, y),
                            BinOp::Min => Instr::MinF(dst, x, y),
                            BinOp::Max => Instr::MaxF(dst, x, y),
                            _ => unreachable!(),
                        };
                        self.emit(instr);
                        Ok((Loc::F(dst), Ty::F64))
                    }
                    (Loc::I(x), Loc::I(y)) => {
                        let dst = self.i();
                        let instr = match op {
                            BinOp::Add => Instr::AddI(dst, x, y),
                            BinOp::Sub => Instr::SubI(dst, x, y),
                            BinOp::Mul => Instr::MulI(dst, x, y),
                            BinOp::Div => Instr::DivI(dst, x, y),
                            BinOp::Rem => Instr::RemI(dst, x, y),
                            BinOp::Min => Instr::MinI(dst, x, y),
                            BinOp::Max => Instr::MaxI(dst, x, y),
                            _ => unreachable!(),
                        };
                        self.emit(instr);
                        Ok((Loc::I(dst), Ty::I64))
                    }
                    _ => Err(err(format!(
                        "arithmetic on non-scalar operands ({ta}, {tb})"
                    ))),
                }
            }
            Expr::Un(op, a) => {
                let (la, ta) = self.expr(a)?;
                match (op, la) {
                    (UnOp::Neg, Loc::F(x)) => {
                        let dst = self.f();
                        self.emit(Instr::NegF(dst, x));
                        Ok((Loc::F(dst), Ty::F64))
                    }
                    (UnOp::Neg, Loc::I(x)) => {
                        let dst = self.i();
                        self.emit(Instr::NegI(dst, x));
                        Ok((Loc::I(dst), Ty::I64))
                    }
                    (UnOp::Not, Loc::I(x)) => {
                        let dst = self.i();
                        self.emit(Instr::NotB(dst, x));
                        Ok((Loc::I(dst), Ty::Bool))
                    }
                    (UnOp::Abs, Loc::F(x)) => {
                        let dst = self.f();
                        self.emit(Instr::AbsF(dst, x));
                        Ok((Loc::F(dst), Ty::F64))
                    }
                    (UnOp::Abs, Loc::I(x)) => {
                        let dst = self.i();
                        self.emit(Instr::AbsI(dst, x));
                        Ok((Loc::I(dst), Ty::I64))
                    }
                    (UnOp::Sqrt, Loc::F(x)) => {
                        let dst = self.f();
                        self.emit(Instr::SqrtF(dst, x));
                        Ok((Loc::F(dst), Ty::F64))
                    }
                    (UnOp::Floor, Loc::F(x)) => {
                        let dst = self.f();
                        self.emit(Instr::FloorF(dst, x));
                        Ok((Loc::F(dst), Ty::F64))
                    }
                    _ => Err(err(format!("unary {} on {ta}", op.symbol()))),
                }
            }
            Expr::Call(name, args) => {
                let udf = self
                    .udfs
                    .get(name)
                    .ok_or_else(|| err(format!("unknown udf `{name}`")))?;
                let ret = udf.ret.clone();
                let mut vregs = Vec::with_capacity(args.len());
                for a in args {
                    let (loc, ty) = self.expr(a)?;
                    vregs.push(self.box_to_v(loc, &ty));
                }
                let udf_id = self.udf_id(name);
                let dst = self.v();
                self.emit(Instr::CallUdf {
                    dst,
                    udf: udf_id,
                    args: vregs,
                });
                Ok((self.unbox_from_v(dst, &ret), ret))
            }
            Expr::Field(a, idx) => {
                let (la, ta) = self.expr(a)?;
                let Loc::V(src) = la else {
                    return Err(err("projection on unboxed value"));
                };
                let Ty::Pair(x, y) = ta else {
                    return Err(err(format!("projection on non-pair {ta}")));
                };
                let component = if *idx == 0 { *x } else { *y };
                let dst = self.v();
                if *idx == 0 {
                    self.emit(Instr::Field0(dst, src));
                } else {
                    self.emit(Instr::Field1(dst, src));
                }
                Ok((self.unbox_from_v(dst, &component), component))
            }
            Expr::RowIndex(a, i) => {
                let (la, _) = self.expr(a)?;
                let (li, _) = self.expr(i)?;
                let (Loc::V(row), Loc::I(idx)) = (la, li) else {
                    return Err(err("row indexing bank mismatch"));
                };
                let dst = self.f();
                self.emit(Instr::RowIdx(dst, row, idx));
                Ok((Loc::F(dst), Ty::F64))
            }
            Expr::RowLen(a) => {
                let (la, _) = self.expr(a)?;
                let Loc::V(row) = la else {
                    return Err(err("row length on unboxed value"));
                };
                let dst = self.i();
                self.emit(Instr::RowLen(dst, row));
                Ok((Loc::I(dst), Ty::I64))
            }
            Expr::MkPair(a, b) => {
                let (la, ta) = self.expr(a)?;
                let ra = self.box_to_v(la, &ta);
                let (lb, tb) = self.expr(b)?;
                let rb = self.box_to_v(lb, &tb);
                let dst = self.v();
                self.emit(Instr::MkPair(dst, ra, rb));
                Ok((Loc::V(dst), Ty::pair(ta, tb)))
            }
            Expr::If(c, t, els) => {
                let result_ty = self.infer(t)?;
                let dst = self.alloc(&result_ty);
                let (lc, _) = self.expr(c)?;
                let Loc::I(rc) = lc else {
                    return Err(err("if condition not boolean"));
                };
                let jelse = self.emit(Instr::JumpIfFalse(rc, PATCH));
                let (lt, _) = self.expr(t)?;
                self.mov(dst, lt);
                let jend = self.emit(Instr::Jump(PATCH));
                let else_pc = self.here();
                self.patch(jelse, else_pc);
                let (le, _) = self.expr(els)?;
                self.mov(dst, le);
                let end = self.here();
                self.patch(jend, end);
                Ok((dst, result_ty))
            }
            Expr::Cast(ty, a) => {
                let (la, ta) = self.expr(a)?;
                match (la, ty) {
                    (Loc::F(x), Ty::I64) => {
                        let dst = self.i();
                        self.emit(Instr::F2I(dst, x));
                        Ok((Loc::I(dst), Ty::I64))
                    }
                    (Loc::I(x), Ty::F64) => {
                        let dst = self.f();
                        self.emit(Instr::I2F(dst, x));
                        Ok((Loc::F(dst), Ty::F64))
                    }
                    (loc, t) if *t == ta => Ok((loc, ta)),
                    (_, t) => Err(err(format!("unsupported cast {ta} -> {t}"))),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Statement compilation.
    // ------------------------------------------------------------------

    fn bool_expr(&mut self, e: &Expr) -> Result<u32, CompileError> {
        let (loc, _) = self.expr(e)?;
        match loc {
            Loc::I(r) => Ok(r),
            _ => Err(err("expected a boolean expression")),
        }
    }

    fn cont_jump_if_false(&mut self, cond: u32) -> Result<(), CompileError> {
        let at = self.emit(Instr::JumpIfFalse(cond, PATCH));
        self.loops
            .last_mut()
            .ok_or_else(|| err("continue outside a loop"))?
            .cont_patches
            .push(at);
        Ok(())
    }

    fn stmt(&mut self, p: &ImpProgram, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Decl { name, ty, init } => {
                let slot = self.alloc(ty);
                let (loc, _) = self.expr(init)?;
                self.mov(slot, loc);
                self.scope.insert(name.clone(), (slot, ty.clone()));
                Ok(())
            }
            Stmt::Assign { name, expr } => {
                let (slot, _) = self
                    .scope
                    .get(name)
                    .cloned()
                    .ok_or_else(|| err(format!("assignment to undeclared `{name}`")))?;
                let (loc, _) = self.expr(expr)?;
                self.mov(slot, loc);
                Ok(())
            }
            Stmt::For {
                header,
                elem_var,
                body,
                window,
            } => {
                // Tier order: vectorized (typed batches, selection
                // vectors) first, then the generic scalar loop. A refused
                // vectorization leaves no trace in the emitted program.
                let mut vectorize_fallback = None;
                if self.vectorize {
                    match self.try_vectorize_loop(p, header, elem_var, *body, *window) {
                        Ok(()) => {
                            self.loop_plans.push(LoopPlan {
                                tier: LoopTier::Vectorized,
                                vectorize_fallback: None,
                            });
                            return Ok(());
                        }
                        Err(reason) => {
                            if !self.batch_fallbacks.contains(&reason) {
                                self.batch_fallbacks.push(reason.clone());
                            }
                            vectorize_fallback = Some(reason);
                        }
                    }
                }
                // Record the plan before compiling the body, so for
                // nested loops the outer plan precedes the inner ones.
                self.loop_plans.push(LoopPlan {
                    tier: LoopTier::Scalar,
                    vectorize_fallback,
                });
                self.compile_loop(p, header, elem_var, *body, *window)
            }
            Stmt::IfNotContinue { cond } => {
                let c = self.bool_expr(cond)?;
                self.cont_jump_if_false(c)
            }
            Stmt::IfBreak { cond } => {
                let c = self.bool_expr(cond)?;
                let at = self.emit(Instr::JumpIfTrue(c, PATCH));
                self.loops
                    .last_mut()
                    .ok_or_else(|| err("break outside a loop"))?
                    .break_patches
                    .push(at);
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                let c = self.bool_expr(cond)?;
                let jelse = self.emit(Instr::JumpIfFalse(c, PATCH));
                for s in then {
                    self.stmt(p, s)?;
                }
                if els.is_empty() {
                    let end = self.here();
                    self.patch(jelse, end);
                } else {
                    let jend = self.emit(Instr::Jump(PATCH));
                    let else_pc = self.here();
                    self.patch(jelse, else_pc);
                    for s in els {
                        self.stmt(p, s)?;
                    }
                    let end = self.here();
                    self.patch(jend, end);
                }
                Ok(())
            }
            Stmt::Continue => {
                let at = self.emit(Instr::Jump(PATCH));
                self.loops
                    .last_mut()
                    .ok_or_else(|| err("continue outside a loop"))?
                    .cont_patches
                    .push(at);
                Ok(())
            }
            Stmt::DeclSink { name, decl } => {
                let id = self.n_sinks;
                self.n_sinks += 1;
                let new_pc;
                let acc = match decl {
                    SinkDecl::Group => {
                        new_pc = self.emit(Instr::SinkNewGroup(id));
                        None
                    }
                    SinkDecl::GroupAgg {
                        init,
                        acc_ty,
                        key_ty,
                    } => {
                        let (loc, ty) = self.expr(init)?;
                        let key_lane = crate::batch::Lane::of(key_ty);
                        match (loc, acc_ty, key_lane) {
                            (Loc::F(r), Ty::F64, Some(k)) => {
                                new_pc = self.emit(Instr::SinkNewGroupAggSF(id, r, k, None));
                                Some((AccRepr::SF, Ty::F64))
                            }
                            (Loc::I(r), Ty::I64, Some(k)) => {
                                new_pc = self.emit(Instr::SinkNewGroupAggSI(id, r, k, None));
                                Some((AccRepr::SI, Ty::I64))
                            }
                            (Loc::F(r), Ty::F64, None) => {
                                new_pc = self.emit(Instr::SinkNewGroupAggF(id, r));
                                Some((AccRepr::F, Ty::F64))
                            }
                            (Loc::I(r), Ty::I64, None) => {
                                new_pc = self.emit(Instr::SinkNewGroupAggI(id, r));
                                Some((AccRepr::I, Ty::I64))
                            }
                            (loc, _, _) => {
                                let vr = self.box_to_v(loc, &ty);
                                new_pc = self.emit(Instr::SinkNewGroupAggV(id, vr));
                                Some((AccRepr::V, acc_ty.clone()))
                            }
                        }
                    }
                    SinkDecl::SortedVec { descending } => {
                        // Boxed until the push site fixes the columns.
                        new_pc = self.emit(Instr::SinkNewSorted(
                            id,
                            SortSpec {
                                cols: SortCols::Boxed,
                                descending: *descending,
                                limit: None,
                            },
                        ));
                        None
                    }
                    SinkDecl::DistinctVec => {
                        new_pc = self.emit(Instr::SinkNewDistinct(id, None));
                        None
                    }
                    SinkDecl::Vec => {
                        new_pc = self.emit(Instr::SinkNewVec(id));
                        None
                    }
                };
                let readers = self.sink_readers.get(name).copied().unwrap_or(0);
                self.sinks.insert(
                    name.clone(),
                    SinkMeta {
                        id,
                        acc,
                        new_pc,
                        readers,
                        cols_fixed: false,
                        key_sites: 0,
                    },
                );
                Ok(())
            }
            Stmt::GroupPut { sink, key, value } => {
                let id = self.sink_id(sink)?;
                let (kl, kt) = self.expr(key)?;
                let kv = self.box_to_v(kl, &kt);
                let (vl, vt) = self.expr(value)?;
                let vv = self.box_to_v(vl, &vt);
                self.emit(Instr::GroupPut(id, kv, vv));
                Ok(())
            }
            Stmt::GroupAggUpdate {
                sink,
                key,
                acc_param,
                elem_param,
                value,
                update,
            } => {
                let (id, (acc, acc_ty)) = {
                    let meta = self
                        .sinks
                        .get(sink)
                        .ok_or_else(|| err(format!("unknown sink `{sink}`")))?;
                    (
                        meta.id,
                        meta.acc
                            .clone()
                            .ok_or_else(|| err("sink is not a grouped aggregate"))?,
                    )
                };
                // Fully-scalar tables take the key straight from its
                // scalar register; others box it.
                if matches!(acc, AccRepr::SF | AccRepr::SI) {
                    let bound = self.key_bound(None, key);
                    self.record_key_site(sink, bound);
                }
                let (kl, kt) = self.expr(key)?;
                let skey = match (kl, &kt) {
                    (Loc::F(r), Ty::F64) => Some(crate::instr::SKey::F(r)),
                    (Loc::I(r), Ty::I64) => Some(crate::instr::SKey::I(r)),
                    (Loc::I(r), Ty::Bool) => Some(crate::instr::SKey::B(r)),
                    _ => None,
                };
                let kv = if matches!(acc, AccRepr::SF | AccRepr::SI) {
                    0 // unused: the scalar path reads the key register
                } else {
                    self.box_to_v(kl, &kt)
                };
                let (vl, vt) = self.expr(value)?;
                // Bind the element parameter.
                let saved_elem = self.scope.insert(elem_param.clone(), (vl, vt));
                // Load the accumulator.
                let acc_slot = match acc {
                    AccRepr::SF => {
                        let r = self.f();
                        let sk = skey.ok_or_else(|| err("scalar sink with boxed key"))?;
                        self.emit(Instr::GroupAccLoadSF(id, r, sk));
                        (Loc::F(r), Ty::F64)
                    }
                    AccRepr::SI => {
                        let r = self.i();
                        let sk = skey.ok_or_else(|| err("scalar sink with boxed key"))?;
                        self.emit(Instr::GroupAccLoadSI(id, r, sk));
                        (Loc::I(r), Ty::I64)
                    }
                    AccRepr::F => {
                        let r = self.f();
                        self.emit(Instr::GroupAccLoadF(id, r, kv));
                        (Loc::F(r), Ty::F64)
                    }
                    AccRepr::I => {
                        let r = self.i();
                        self.emit(Instr::GroupAccLoadI(id, r, kv));
                        (Loc::I(r), Ty::I64)
                    }
                    AccRepr::V => {
                        let r = self.v();
                        self.emit(Instr::GroupAccLoadV(id, r, kv));
                        (Loc::V(r), acc_ty.clone())
                    }
                };
                let saved_acc = self.scope.insert(acc_param.clone(), acc_slot.clone());
                let (ul, ut) = self.expr(update)?;
                match acc {
                    AccRepr::SF => {
                        let Loc::F(r) = ul else {
                            return Err(err("grouped aggregate update bank mismatch"));
                        };
                        self.emit(Instr::GroupAccStoreSF(id, r));
                    }
                    AccRepr::SI => {
                        let Loc::I(r) = ul else {
                            return Err(err("grouped aggregate update bank mismatch"));
                        };
                        self.emit(Instr::GroupAccStoreSI(id, r));
                    }
                    AccRepr::F => {
                        let Loc::F(r) = ul else {
                            return Err(err("grouped aggregate update bank mismatch"));
                        };
                        self.emit(Instr::GroupAccStoreF(id, r));
                    }
                    AccRepr::I => {
                        let Loc::I(r) = ul else {
                            return Err(err("grouped aggregate update bank mismatch"));
                        };
                        self.emit(Instr::GroupAccStoreI(id, r));
                    }
                    AccRepr::V => {
                        let r = self.box_to_v(ul, &ut);
                        self.emit(Instr::GroupAccStoreV(id, r));
                    }
                }
                // Restore shadowed bindings.
                restore(&mut self.scope, elem_param, saved_elem);
                restore(&mut self.scope, acc_param, saved_acc);
                Ok(())
            }
            Stmt::SinkPush { sink, value, key } => {
                let id = self.sink_id(sink)?;
                let (vl, vt) = self.expr(value)?;
                let vv = self.box_to_v(vl, &vt);
                match key {
                    Some(k) => {
                        let (kl, kt) = self.expr(k)?;
                        self.fix_sink_cols(sink, Some((k, &kt)), value, &vt)?;
                        let kv = self.box_to_v(kl, &kt);
                        self.emit(Instr::SinkPushKeyed(id, kv, vv));
                    }
                    None => {
                        self.fix_sink_cols(sink, None, value, &vt)?;
                        self.emit(Instr::SinkPush(id, vv));
                    }
                }
                Ok(())
            }
            Stmt::SinkSeal { sink } => {
                let id = self.sink_id(sink)?;
                self.emit(Instr::SinkSeal(id));
                Ok(())
            }
            Stmt::Yield { value } => {
                let (vl, vt) = self.expr(value)?;
                let vv = self.box_to_v(vl, &vt);
                self.emit(Instr::OutPush(vv));
                Ok(())
            }
            Stmt::Return { value } => {
                let (vl, vt) = self.expr(value)?;
                match vl {
                    Loc::F(r) => {
                        self.emit(Instr::HaltF(r));
                    }
                    Loc::I(r) => {
                        if vt == Ty::Bool {
                            self.emit(Instr::HaltB(r));
                        } else {
                            self.emit(Instr::HaltI(r));
                        }
                    }
                    Loc::V(r) => {
                        self.emit(Instr::HaltV(r));
                    }
                }
                Ok(())
            }
            Stmt::ReturnSink { .. } => Err(err("ReturnSink is not emitted by the generator")),
            Stmt::BlockRef(_) => unreachable!("flatten removes block refs"),
        }
    }

    /// Fixes a sort or distinct sink's representation from its push
    /// site's types (see [`Compiler::push_layout`]).
    fn fix_sink_cols(
        &mut self,
        sink: &str,
        key: Option<(&Expr, &Ty)>,
        value: &Expr,
        value_ty: &Ty,
    ) -> Result<(), CompileError> {
        if let Some(layout) = self.push_layout(sink, key, value, value_ty)? {
            self.set_push_layout(sink, layout);
        }
        Ok(())
    }

    /// The representation a push site gives a sort or distinct sink:
    /// unboxed columns when the key and element are `f64`/`i64`/`bool`
    /// lanes, a boxed buffer otherwise; `None` for other sinks. The
    /// choice depends on types only, so every tier and every push site
    /// makes the same one; a site that disagrees with a layout already
    /// fixed is an assembly error.
    fn push_layout(
        &self,
        sink: &str,
        key: Option<(&Expr, &Ty)>,
        value: &Expr,
        value_ty: &Ty,
    ) -> Result<Option<PushLayout>, CompileError> {
        use crate::batch::Lane;
        let Some(meta) = self.sinks.get(sink) else {
            return Err(err(format!("unknown sink `{sink}`")));
        };
        let val = Lane::of(value_ty);
        let layout = match (&self.instrs[meta.new_pc], key) {
            (Instr::SinkNewSorted(_, spec), Some((k, kt))) => {
                let cols = match (Lane::of(kt), val) {
                    (Some(kl), Some(_)) if k == value => SortCols::Key(kl),
                    (Some(kl), Some(vl)) => SortCols::KeyVal(kl, vl),
                    _ => SortCols::Boxed,
                };
                if meta.cols_fixed && spec.cols != cols {
                    return Err(err(format!("sort sink `{sink}` pushed with two layouts")));
                }
                PushLayout::Sorted(cols)
            }
            (Instr::SinkNewDistinct(_, lane), None) => {
                if meta.cols_fixed && *lane != val {
                    return Err(err(format!("distinct sink `{sink}` pushed with two lanes")));
                }
                PushLayout::Distinct(val)
            }
            _ => return Ok(None),
        };
        Ok(Some(layout))
    }

    /// Records a push site's layout on its sink's `SinkNew*` instruction.
    fn set_push_layout(&mut self, sink: &str, layout: PushLayout) {
        let Some(meta) = self.sinks.get_mut(sink) else {
            return;
        };
        meta.cols_fixed = true;
        match (&mut self.instrs[meta.new_pc], layout) {
            (Instr::SinkNewSorted(_, spec), PushLayout::Sorted(cols)) => spec.cols = cols,
            (Instr::SinkNewDistinct(_, lane), PushLayout::Distinct(l)) => *lane = l,
            _ => {}
        }
    }

    /// The interval evidence for a group key: `Some((proof, lo, hi))`
    /// when the key is `i64` and interval analysis bounds it to at most
    /// [`crate::sink::DIRECT_SLOTS`] values. `at` supplies the loop
    /// locals of a vectorization attempt.
    fn key_bound(&self, at: Option<&VecAttempt>, key: &Expr) -> Option<KeyBound> {
        let (range, env) = self.interval(at, key);
        let r = range?;
        let (lo, hi) = (r.lo?, r.hi?);
        if hi.checked_sub(lo)? >= crate::sink::DIRECT_SLOTS {
            return None;
        }
        Some((crate::sink::KeyProof { key: key.clone(), env }, lo, hi))
    }

    /// Records a group update site's key bound on its sink. The table is
    /// direct-indexed when its one update site bounds an `i64` key (the
    /// generator emits one site per sink); any other table hashes.
    fn record_key_site(&mut self, sink: &str, bound: Option<KeyBound>) {
        let Some(meta) = self.sinks.get_mut(sink) else {
            return;
        };
        meta.key_sites += 1;
        let first = meta.key_sites == 1;
        if let Instr::SinkNewGroupAggSF(_, _, kl, range) | Instr::SinkNewGroupAggSI(_, _, kl, range) =
            &mut self.instrs[meta.new_pc]
        {
            let direct = bound.filter(|_| first && *kl == crate::batch::Lane::I);
            *range = direct.map(|(proof, lo, hi)| {
                std::sync::Arc::new(crate::sink::KeyRange {
                    lo,
                    hi,
                    proofs: vec![proof],
                })
            });
        }
    }

    fn sink_id(&self, name: &str) -> Result<u32, CompileError> {
        self.sinks
            .get(name)
            .map(|m| m.id)
            .ok_or_else(|| err(format!("unknown sink `{name}`")))
    }

    fn compile_loop(
        &mut self,
        p: &ImpProgram,
        header: &LoopHeader,
        elem_var: &str,
        body: steno_codegen::imp::BlockId,
        window: Window,
    ) -> Result<(), CompileError> {
        // Pre-loop setup producing: a length register, an index register,
        // and a closure-free per-iteration element load. The window
        // starts the index at its `lo` and clamps the length to its `hi`.
        enum Load {
            SrcF(u32),
            SrcI(u32),
            SrcB(u32),
            SrcV(u32),
            RangeAdd { start: u32 },
            Fixed, // element preloaded before the loop (Repeat)
            RowF(u32),
            SeqV { seq: u32, elem_ty: Ty },
            SinkV { sink: u32, elem_ty: Ty },
        }
        let idx = self.i();
        let len = self.i();
        self.emit(Instr::ConstI(idx, index_imm(window.skip)));
        let (load, elem_slot): (Load, (Loc, Ty)) = match header {
            LoopHeader::Source { name, elem_ty } => {
                let sid = self.src_id(name);
                self.emit(Instr::SrcLen(len, sid));
                let slot = self.alloc(elem_ty);
                let load = match (elem_ty, slot) {
                    (Ty::F64, Loc::F(_)) => Load::SrcF(sid),
                    (Ty::I64, Loc::I(_)) => Load::SrcI(sid),
                    (Ty::Bool, Loc::I(_)) => Load::SrcB(sid),
                    (_, Loc::V(_)) => Load::SrcV(sid),
                    _ => unreachable!(),
                };
                (load, (slot, elem_ty.clone()))
            }
            LoopHeader::Range { start, count } => {
                self.emit(Instr::ConstI(len, *count as i64));
                let start_reg = self.i();
                self.emit(Instr::ConstI(start_reg, *start));
                let slot = self.alloc(&Ty::I64);
                (Load::RangeAdd { start: start_reg }, (slot, Ty::I64))
            }
            LoopHeader::Repeat { value, count } => {
                self.emit(Instr::ConstI(len, *count as i64));
                let ty = value.ty();
                let slot = self.alloc(&ty);
                match (value, slot) {
                    (Value::F64(x), Loc::F(r)) => {
                        self.emit(Instr::ConstF(r, *x));
                    }
                    (Value::I64(x), Loc::I(r)) => {
                        self.emit(Instr::ConstI(r, *x));
                    }
                    (Value::Bool(b), Loc::I(r)) => {
                        self.emit(Instr::ConstI(r, i64::from(*b)));
                    }
                    (v, Loc::V(r)) => {
                        self.emit(Instr::ConstV(r, v.clone()));
                    }
                    _ => unreachable!(),
                }
                (Load::Fixed, (slot, ty))
            }
            LoopHeader::SeqExpr { expr, elem_ty } => {
                let (loc, ty) = self.expr(expr)?;
                let Loc::V(seq) = loc else {
                    return Err(err("sequence source is not boxed"));
                };
                if ty == Ty::Row {
                    self.emit(Instr::RowLen(len, seq));
                    let slot = self.alloc(&Ty::F64);
                    (Load::RowF(seq), (slot, Ty::F64))
                } else {
                    self.emit(Instr::SeqLen(len, seq));
                    let slot = self.alloc(elem_ty);
                    (
                        Load::SeqV {
                            seq,
                            elem_ty: elem_ty.clone(),
                        },
                        (slot, elem_ty.clone()),
                    )
                }
            }
            LoopHeader::Sink { name, elem_ty } => {
                let id = self.sink_id(name)?;
                self.emit(Instr::SinkFreeze(id));
                self.emit(Instr::SinkLen(len, id));
                let slot = self.alloc(elem_ty);
                (
                    Load::SinkV {
                        sink: id,
                        elem_ty: elem_ty.clone(),
                    },
                    (slot, elem_ty.clone()),
                )
            }
        };
        if let Some(hi) = window.end() {
            let r = self.i();
            self.emit(Instr::ConstI(r, index_imm(hi)));
            self.emit(Instr::MinI(len, len, r));
        }

        let top = self.here();
        let cmp = self.i();
        self.emit(Instr::CmpI(CmpOp::Lt, cmp, idx, len));
        let exit_jump = self.emit(Instr::JumpIfFalse(cmp, PATCH));

        // Per-iteration element load.
        match (&load, elem_slot.0) {
            (Load::SrcF(s), Loc::F(r)) => {
                self.emit(Instr::SrcGetF(r, *s, idx));
            }
            (Load::SrcI(s), Loc::I(r)) => {
                self.emit(Instr::SrcGetI(r, *s, idx));
            }
            (Load::SrcB(s), Loc::I(r)) => {
                self.emit(Instr::SrcGetB(r, *s, idx));
            }
            (Load::SrcV(s), Loc::V(r)) => {
                self.emit(Instr::SrcGetV(r, *s, idx));
            }
            (Load::RangeAdd { start }, Loc::I(r)) => {
                self.emit(Instr::AddI(r, *start, idx));
            }
            (Load::Fixed, _) => {}
            (Load::RowF(seq), Loc::F(r)) => {
                self.emit(Instr::RowIdx(r, *seq, idx));
            }
            (Load::SeqV { seq, elem_ty }, slot) => {
                let tmp = self.v();
                self.emit(Instr::SeqIdx(tmp, *seq, idx));
                let unboxed = self.unbox_from_v(tmp, elem_ty);
                self.mov(slot, unboxed);
            }
            (Load::SinkV { sink, elem_ty }, slot) => {
                let tmp = self.v();
                self.emit(Instr::SinkGet(tmp, *sink, idx));
                let unboxed = self.unbox_from_v(tmp, elem_ty);
                self.mov(slot, unboxed);
            }
            _ => unreachable!("element load bank mismatch"),
        }
        let saved = self.scope.insert(elem_var.to_string(), elem_slot);

        self.loops.push(LoopCtx {
            cont_patches: Vec::new(),
            break_patches: Vec::new(),
        });
        for s in p.flatten(body) {
            self.stmt(p, &s)?;
        }
        let Some(ctx) = self.loops.pop() else {
            return Err(err("loop context underflow"));
        };

        // Continue target: the induction-variable increment.
        let cont = self.here();
        for at in ctx.cont_patches {
            self.patch(at, cont);
        }
        self.emit(Instr::IncI(idx));
        self.emit(Instr::Jump(top));
        let end = self.here();
        self.patch(exit_jump, end);
        for at in ctx.break_patches {
            self.patch(at, end);
        }
        restore(&mut self.scope, elem_var, saved);
        Ok(())
    }
}

/// A loop index bound as an i64 immediate, saturating at `i64::MAX`
/// (past the end of any collection).
fn index_imm(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

fn restore(
    scope: &mut HashMap<String, (Loc, Ty)>,
    name: &str,
    saved: Option<(Loc, Ty)>,
) {
    match saved {
        Some(v) => {
            scope.insert(name.to_string(), v);
        }
        None => {
            scope.remove(name);
        }
    }
}

/// Counts, per sink name, the loops that read the sink.
fn count_sink_readers(p: &ImpProgram, stmts: &[Stmt], out: &mut HashMap<String, usize>) {
    for s in stmts {
        match s {
            Stmt::For { header, body, .. } => {
                if let LoopHeader::Sink { name, .. } = header {
                    *out.entry(name.clone()).or_default() += 1;
                }
                count_sink_readers(p, &p.flatten(*body), out);
            }
            Stmt::If { then, els, .. } => {
                count_sink_readers(p, then, out);
                count_sink_readers(p, els, out);
            }
            _ => {}
        }
    }
}

/// Assembles an imperative program into bytecode.
///
/// # Errors
///
/// Returns [`CompileError`] for shapes the VM cannot execute (none are
/// produced by the standard lower → generate pipeline).
pub fn assemble(p: &ImpProgram, udfs: &UdfRegistry) -> Result<Program, CompileError> {
    assemble_hinted(p, udfs, false, true, None)
}

/// As [`assemble`], with the vectorized tier switchable (the back-end
/// ablation and the engine's `VectorizationPolicy`). Every loop the
/// vectorizer refuses runs on the scalar tier.
///
/// `fusion` is ignored: the loop-fusion tier it switched was removed
/// (the batch tier covers its loops). The last parameter is
/// uninhabited: only `None` can be passed, so no caller can hand in a
/// tier hint. Both remain only for callers not yet updated.
///
/// # Errors
///
/// As [`assemble`].
pub fn assemble_hinted(
    p: &ImpProgram,
    udfs: &UdfRegistry,
    _fusion: bool,
    vectorize: bool,
    _tier_hint: Option<std::convert::Infallible>,
) -> Result<Program, CompileError> {
    let mut sink_readers = HashMap::new();
    count_sink_readers(p, &p.flatten(p.root), &mut sink_readers);
    let mut c = Compiler {
        instrs: Vec::new(),
        nf: 0,
        ni: 0,
        nv: 0,
        scope: HashMap::new(),
        src_ids: HashMap::new(),
        src_names: Vec::new(),
        udf_ids: HashMap::new(),
        udf_names: Vec::new(),
        udf_sigs: Vec::new(),
        udfs,
        sinks: HashMap::new(),
        sink_readers,
        n_sinks: 0,
        n_batch: 0,
        batch_fallbacks: Vec::new(),
        n_guards_dropped: 0,
        loop_plans: Vec::new(),
        fused_kernels: Vec::new(),
        n_slots_reused: 0,
        loops: Vec::new(),
        vectorize,
    };
    for s in p.flatten(p.root) {
        c.stmt(p, &s)?;
    }
    let result_ty = match &p.terminal {
        Terminal::Scalar(ty) => ty.clone(),
        Terminal::Sequence(elem) => {
            c.emit(Instr::HaltOut);
            Ty::seq(elem.clone())
        }
    };
    let mut program = Program {
        instrs: c.instrs,
        n_fregs: c.nf,
        n_iregs: c.ni,
        n_vregs: c.nv,
        n_sinks: c.n_sinks,
        n_batch: c.n_batch,
        batch_fallbacks: c.batch_fallbacks,
        n_guards_dropped: c.n_guards_dropped,
        loop_plans: c.loop_plans,
        fused_kernels: c.fused_kernels,
        n_slots_reused: c.n_slots_reused,
        n_hoisted: 0,
        n_superinstrs: 0,
        source_names: c.src_names,
        udf_names: c.udf_names,
        udf_sigs: c.udf_sigs,
        result_ty,
        shadow: None,
    };
    // Reference tape for the tape verifier: the program exactly as
    // assembled, before any backend pass rewrites it. The clone shares
    // the Arc'd BatchLoop payloads, so this is shallow in the loop
    // bodies.
    program.shadow = Some(std::sync::Arc::new(crate::instr::ScalarShadow {
        instrs: program.instrs.clone(),
        n_fregs: program.n_fregs,
        n_iregs: program.n_iregs,
        n_vregs: program.n_vregs,
    }));
    // Backend passes over the assembled bytecode (see crate::lifetimes):
    // pull loop-invariant constants to the entry, thread the hottest
    // scalar pairs into superinstructions, then drop the register frame
    // down to what the rewritten program still touches.
    crate::lifetimes::hoist_loop_invariant_consts(&mut program);
    crate::lifetimes::fuse_scalar_pairs(&mut program);
    crate::lifetimes::shrink_frames(&mut program);
    Ok(program)
}

// ---------------------------------------------------------------------
// The vectorized tier (see crate::batch).
// ---------------------------------------------------------------------

/// Builder state for one vectorization attempt. All state is local to
/// the attempt: a failed attempt leaves the compiler untouched.
struct VecAttempt {
    n_f: u16,
    n_i: u16,
    n_b: u16,
    prologue: Vec<crate::batch::BInit>,
    tape: Vec<crate::batch::BOp>,
    /// Loop-local scalars → (lane, slot).
    locals: HashMap<String, (crate::batch::Lane, u8)>,
    /// The loop element when it is a `(key, accumulator)` pair read from
    /// a grouped-aggregate sink: its two component columns.
    pairs: HashMap<String, PairSlots>,
    /// Group update sites and their key bounds, recorded on the sink
    /// only when the attempt succeeds.
    key_sites: Vec<(String, Option<KeyBound>)>,
    /// Sort and distinct push sites and the layouts they fix, recorded
    /// on the sink only when the attempt succeeds.
    push_sites: Vec<(String, PushLayout)>,
    /// Constant caches: value image → broadcast slot.
    consts_f: HashMap<u64, u8>,
    consts_i: HashMap<i64, u8>,
    consts_b: [Option<u8>; 2],
    /// Loop-invariant registers → broadcast slot, per destination lane.
    f_param_slots: HashMap<u32, u8>,
    i_param_slots: HashMap<u32, u8>,
    b_param_slots: HashMap<u32, u8>,
    /// F-bank registers snapshotted at loop entry.
    f_params: Vec<u32>,
    /// I-bank registers snapshotted at loop entry (i64 *and* bool —
    /// booleans live in I registers).
    i_params: Vec<u32>,
    i_param_idx: HashMap<u32, u8>,
    /// Accumulators: name → index, plus their registers in order.
    f_acc_ids: HashMap<String, u8>,
    f_accs: Vec<u32>,
    i_acc_ids: HashMap<String, u8>,
    i_accs: Vec<u32>,
    /// Trapping ops (integer div/rem, UDF calls) emitted so far.
    /// Snapshotted around lazily-evaluated subexpressions (short-circuit
    /// right operands, conditional branches): batch execution is eager,
    /// so a trap there could fire on lanes the scalar semantics never
    /// evaluates.
    n_traps: u32,
    /// The one error kind every trapping op on the tape raises (see
    /// [`VecAttempt::trap`]).
    trap_kind: Option<TrapKind>,
    /// The UDFs the tape calls, by first call, with the signature each
    /// call was compiled against. Registered in the program only when
    /// the attempt succeeds.
    calls: Vec<(String, UdfSig)>,
    /// Integer divisions whose zero-divisor guard was dropped because
    /// range analysis proved the divisor excludes zero. Tallied into
    /// `Program::n_guards_dropped` only when the attempt succeeds.
    guards_dropped: u32,
    /// Interval evidence for each dropped guard, in emission order —
    /// recorded on the batch program for the tape verifier to re-derive.
    div_proofs: Vec<crate::batch::DivProof>,
    /// Yields emitted so far (at most one: a second yield per iteration
    /// interleaves per element, which batching would reorder).
    n_outs: u32,
    /// Whether any observable effect (fold, group upsert, yield) exists.
    effects: bool,
}

const VEC_SLOT_CAP: u16 = 200;

/// The representation a push site fixes on a sort or distinct sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PushLayout {
    /// A sort sink's columns.
    Sorted(SortCols),
    /// A distinct sink's element lane; `None` for boxed elements.
    Distinct(Option<crate::batch::Lane>),
}

/// A group key's interval evidence and bounds (see
/// `Compiler::key_bound`).
type KeyBound = (crate::sink::KeyProof, i64, i64);

/// The bank and slot of each component of a pair-valued loop element.
type PairSlots = ((crate::batch::Lane, u8), (crate::batch::Lane, u8));

/// The error a batch trapping op raises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TrapKind {
    /// A checked `DivI`/`RemI`: `VmError::DivisionByZero`.
    DivisionByZero,
    /// A UDF call whose result unboxes into this lane: the lane's
    /// `VmError::Shape` text.
    Unbox(crate::batch::Lane),
}

impl VecAttempt {
    /// Records a trapping op. A tape holds trapping ops of one error kind
    /// only: the batch runs each op over the whole batch before the next,
    /// so of two ops that fail on different lanes it reports the first
    /// op's error, while the scalar loop reports the first lane's. With
    /// one kind both errors are the same value.
    fn trap(&mut self, kind: TrapKind) -> Result<(), FallbackReason> {
        if self.trap_kind.is_some_and(|k| k != kind) {
            return Err(FallbackReason::MixedTrapKinds);
        }
        self.trap_kind = Some(kind);
        self.n_traps += 1;
        Ok(())
    }

    fn slot(&mut self, lane: crate::batch::Lane) -> Result<u8, FallbackReason> {
        match lane {
            crate::batch::Lane::F => self.slot_f(),
            crate::batch::Lane::I => self.slot_i(),
            crate::batch::Lane::B => self.slot_b(),
        }
    }

    fn slot_f(&mut self) -> Result<u8, FallbackReason> {
        if self.n_f >= VEC_SLOT_CAP {
            return Err(FallbackReason::Budget("f64 slot"));
        }
        self.n_f += 1;
        Ok((self.n_f - 1) as u8)
    }

    fn slot_i(&mut self) -> Result<u8, FallbackReason> {
        if self.n_i >= VEC_SLOT_CAP {
            return Err(FallbackReason::Budget("i64 slot"));
        }
        self.n_i += 1;
        Ok((self.n_i - 1) as u8)
    }

    fn slot_b(&mut self) -> Result<u8, FallbackReason> {
        if self.n_b >= VEC_SLOT_CAP {
            return Err(FallbackReason::Budget("bool slot"));
        }
        self.n_b += 1;
        Ok((self.n_b - 1) as u8)
    }

    fn const_f(&mut self, x: f64) -> Result<u8, FallbackReason> {
        if let Some(s) = self.consts_f.get(&x.to_bits()) {
            return Ok(*s);
        }
        let s = self.slot_f()?;
        self.prologue.push(crate::batch::BInit::ConstF(s, x));
        self.consts_f.insert(x.to_bits(), s);
        Ok(s)
    }

    fn const_i(&mut self, x: i64) -> Result<u8, FallbackReason> {
        if let Some(s) = self.consts_i.get(&x) {
            return Ok(*s);
        }
        let s = self.slot_i()?;
        self.prologue.push(crate::batch::BInit::ConstI(s, x));
        self.consts_i.insert(x, s);
        Ok(s)
    }

    fn const_b(&mut self, x: bool) -> Result<u8, FallbackReason> {
        if let Some(s) = self.consts_b[usize::from(x)] {
            return Ok(s);
        }
        let s = self.slot_b()?;
        self.prologue.push(crate::batch::BInit::ConstB(s, x));
        self.consts_b[usize::from(x)] = Some(s);
        Ok(s)
    }

    /// Index of an I-bank register in the loop-entry snapshot.
    fn iparam_index(&mut self, reg: u32) -> Result<u8, FallbackReason> {
        if let Some(i) = self.i_param_idx.get(&reg) {
            return Ok(*i);
        }
        if self.i_params.len() >= VEC_SLOT_CAP as usize {
            return Err(FallbackReason::Budget("parameter"));
        }
        let idx = self.i_params.len() as u8;
        self.i_params.push(reg);
        self.i_param_idx.insert(reg, idx);
        Ok(idx)
    }

    fn param_f(&mut self, reg: u32) -> Result<u8, FallbackReason> {
        if let Some(s) = self.f_param_slots.get(&reg) {
            return Ok(*s);
        }
        if self.f_params.len() >= VEC_SLOT_CAP as usize {
            return Err(FallbackReason::Budget("parameter"));
        }
        let s = self.slot_f()?;
        let idx = self.f_params.len() as u8;
        self.f_params.push(reg);
        self.prologue.push(crate::batch::BInit::ParamF(s, idx));
        self.f_param_slots.insert(reg, s);
        Ok(s)
    }

    fn param_i(&mut self, reg: u32) -> Result<u8, FallbackReason> {
        if let Some(s) = self.i_param_slots.get(&reg) {
            return Ok(*s);
        }
        let s = self.slot_i()?;
        let idx = self.iparam_index(reg)?;
        self.prologue.push(crate::batch::BInit::ParamI(s, idx));
        self.i_param_slots.insert(reg, s);
        Ok(s)
    }

    fn param_b(&mut self, reg: u32) -> Result<u8, FallbackReason> {
        if let Some(s) = self.b_param_slots.get(&reg) {
            return Ok(*s);
        }
        let s = self.slot_b()?;
        let idx = self.iparam_index(reg)?;
        self.prologue.push(crate::batch::BInit::ParamB(s, idx));
        self.b_param_slots.insert(reg, s);
        Ok(s)
    }
}

/// One-word description of a statement for the fallback taxonomy.
fn stmt_kind(s: &Stmt) -> &'static str {
    match s {
        Stmt::Decl { .. } => "declaration",
        Stmt::Assign { .. } => "assignment",
        Stmt::For { .. } => "nested loop",
        Stmt::IfNotContinue { .. } => "filter",
        Stmt::IfBreak { .. } => "early break",
        Stmt::If { .. } => "branching statement",
        Stmt::Continue => "continue",
        Stmt::DeclSink { .. } => "sink declaration",
        Stmt::GroupPut { .. } => "group-put sink",
        Stmt::GroupAggUpdate { .. } => "grouped aggregate",
        Stmt::SinkPush { .. } => "order-sensitive sink push",
        Stmt::SinkSeal { .. } => "sink seal",
        Stmt::Yield { .. } => "yield",
        Stmt::Return { .. } => "return",
        Stmt::ReturnSink { .. } => "return-sink",
        Stmt::BlockRef(_) => "block reference",
    }
}

/// One-word description of an expression for the fallback taxonomy.
fn expr_kind(e: &Expr) -> &'static str {
    match e {
        Expr::Var(_) => "variable",
        Expr::LitF64(_) | Expr::LitI64(_) | Expr::LitBool(_) => "literal",
        Expr::Bin(..) => "binary operator",
        Expr::Un(..) => "unary operator",
        Expr::Call(..) => "udf call",
        Expr::Field(..) => "pair projection",
        Expr::RowIndex(..) => "row indexing",
        Expr::RowLen(_) => "row length",
        Expr::MkPair(..) => "pair construction",
        Expr::If(..) => "conditional",
        Expr::Cast(..) => "cast",
    }
}

/// Conservative syntactic check: could evaluating `e` trap at run time?
/// Used for expressions the vectorizer would *drop* (a grouped-count's
/// unused value operand): dropping a trapping expression would erase an
/// error the scalar semantics produces.
fn may_trap(e: &Expr) -> bool {
    match e {
        // Type-blind: f64 div/rem never traps, but we cannot tell here.
        Expr::Bin(BinOp::Div | BinOp::Rem, ..) | Expr::RowIndex(..) => true,
        Expr::Bin(_, a, b) | Expr::MkPair(a, b) => may_trap(a) || may_trap(b),
        Expr::Un(_, a) | Expr::Field(a, _) | Expr::Cast(_, a) | Expr::RowLen(a) => may_trap(a),
        Expr::If(c, t, els) => may_trap(c) || may_trap(t) || may_trap(els),
        Expr::Call(_, args) => args.iter().any(may_trap),
        Expr::Var(_) | Expr::LitF64(_) | Expr::LitI64(_) | Expr::LitBool(_) => false,
    }
}

impl<'a> Compiler<'a> {
    /// Whether range analysis proves the integer divisor `e` can never
    /// be zero, on *any* input — the proof that lets the vectorizer
    /// drop the per-lane zero-divisor guard (and, because the division
    /// then counts as non-trapping, accept loops whose divisions sit
    /// under conditionals or short-circuit operands). Conservative:
    /// unknown types and unbounded intervals answer `None`.
    ///
    /// On success this returns the *evidence* — the divisor and the type
    /// environment it was analyzed under — which is recorded on the batch
    /// program so the tape verifier can independently re-derive the fact
    /// rather than trusting that the compiler checked it. The environment
    /// is name-sorted within each binding group (outer scope, then loop
    /// locals, which shadow) so the record is byte-stable across compiles
    /// of the same query.
    fn divisor_proof(&self, at: &VecAttempt, e: &Expr) -> Option<crate::batch::DivProof> {
        let (range, env) = self.interval(Some(at), e);
        range.is_some_and(|r| r.excludes_zero()).then(|| crate::batch::DivProof {
            divisor: e.clone(),
            env,
        })
    }

    /// The interval analysis of `e` under [`Compiler::range_env`], and
    /// that environment (the evidence a proof records).
    fn interval(
        &self,
        at: Option<&VecAttempt>,
        e: &Expr,
    ) -> (Option<steno_analysis::Interval>, Vec<(String, Ty)>) {
        let env = self.range_env(at);
        (crate::batch::recorded_interval(e, &env), env)
    }

    /// The scalar bindings in scope, name-sorted, with a vectorization
    /// attempt's loop locals (which shadow outer registers) last — the
    /// environment interval evidence is recorded under.
    fn range_env(&self, at: Option<&VecAttempt>) -> Vec<(String, Ty)> {
        let mut bindings: Vec<(String, Ty)> = self
            .scope
            .iter()
            .filter(|(_, (_, ty))| matches!(ty, Ty::F64 | Ty::I64 | Ty::Bool))
            .map(|(name, (_, ty))| (name.clone(), ty.clone()))
            .collect();
        bindings.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        // Loop locals shadow outer registers, so they bind last.
        let Some(at) = at else {
            return bindings;
        };
        let mut locals: Vec<(String, Ty)> = at
            .locals
            .iter()
            .map(|(name, (lane, _))| (name.clone(), lane.ty()))
            .collect();
        locals.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        bindings.extend(locals);
        bindings
    }

    /// Attempts to compile a loop with the vectorized tier, emitting one
    /// [`Instr::BatchLoop`] on success. On failure nothing is emitted,
    /// no compiler state changes, and the returned reason joins the
    /// program's fallback taxonomy.
    fn try_vectorize_loop(
        &mut self,
        p: &ImpProgram,
        header: &LoopHeader,
        elem_var: &str,
        body: steno_codegen::imp::BlockId,
        window: Window,
    ) -> Result<(), FallbackReason> {
        use crate::batch::{BOp, BatchProgram, BatchSrc, Lane, RedK};

        // The loop iterates a source column, or a typed sink's columns.
        let (read_sink, src_lane, snd_lane) = match header {
            LoopHeader::Source { elem_ty, .. } => {
                let lane = Lane::of(elem_ty)
                    .ok_or_else(|| FallbackReason::BoxedSource(elem_ty.clone()))?;
                (None, lane, None)
            }
            LoopHeader::Sink { name, elem_ty } => {
                let meta = self
                    .sinks
                    .get(name)
                    .ok_or_else(|| FallbackReason::UnknownSink(name.clone()))?;
                let cols = match &self.instrs[meta.new_pc] {
                    Instr::SinkNewSorted(_, spec) => match spec.cols {
                        SortCols::Key(l) | SortCols::KeyVal(_, l) => Some((l, None)),
                        SortCols::Boxed => None,
                    },
                    Instr::SinkNewDistinct(_, lane) => lane.map(|l| (l, None)),
                    Instr::SinkNewGroupAggSF(_, _, k, _) => Some((*k, Some(Lane::F))),
                    Instr::SinkNewGroupAggSI(_, _, k, _) => Some((*k, Some(Lane::I))),
                    _ => return Err(FallbackReason::NotSourceLoop),
                };
                let (lane, snd) =
                    cols.ok_or_else(|| FallbackReason::BoxedSource(elem_ty.clone()))?;
                let want = match snd {
                    None => lane.ty(),
                    Some(l) => Ty::pair(lane.ty(), l.ty()),
                };
                if *elem_ty != want {
                    return Err(FallbackReason::LaneMismatch("sink element"));
                }
                (Some((name, meta.id)), lane, snd)
            }
            _ => return Err(FallbackReason::NotSourceLoop),
        };
        let stmts = p.flatten(body);

        // Pre-scan: statement shapes, and which names are assigned (those
        // must be unboxed accumulators declared outside the loop).
        let mut assigned: Vec<&str> = Vec::new();
        for s in &stmts {
            match s {
                Stmt::Decl { ty, .. } => {
                    if Lane::of(ty).is_none() {
                        return Err(FallbackReason::BoxedLocal(ty.clone()));
                    }
                }
                Stmt::IfNotContinue { .. }
                | Stmt::IfBreak { .. }
                | Stmt::GroupAggUpdate { .. }
                | Stmt::SinkPush { .. }
                | Stmt::Yield { .. } => {}
                Stmt::Assign { name, .. } => assigned.push(name),
                other => {
                    return Err(FallbackReason::Statement(stmt_kind(other)))
                }
            }
        }

        let mut at = VecAttempt {
            n_f: 0,
            n_i: 0,
            n_b: 0,
            prologue: Vec::new(),
            tape: Vec::new(),
            locals: HashMap::new(),
            pairs: HashMap::new(),
            key_sites: Vec::new(),
            push_sites: Vec::new(),
            consts_f: HashMap::new(),
            consts_i: HashMap::new(),
            consts_b: [None, None],
            f_param_slots: HashMap::new(),
            i_param_slots: HashMap::new(),
            b_param_slots: HashMap::new(),
            f_params: Vec::new(),
            i_params: Vec::new(),
            i_param_idx: HashMap::new(),
            f_acc_ids: HashMap::new(),
            f_accs: Vec::new(),
            i_acc_ids: HashMap::new(),
            i_accs: Vec::new(),
            n_traps: 0,
            trap_kind: None,
            calls: Vec::new(),
            guards_dropped: 0,
            div_proofs: Vec::new(),
            n_outs: 0,
            effects: false,
        };

        // Register accumulators up front so expression compilation can
        // reject reads of them inside value pipelines.
        for name in &assigned {
            if at.f_acc_ids.contains_key(*name) || at.i_acc_ids.contains_key(*name) {
                continue;
            }
            match self.scope.get(*name) {
                Some((Loc::F(reg), Ty::F64)) => {
                    if at.f_accs.len() >= VEC_SLOT_CAP as usize {
                        return Err(FallbackReason::Budget("accumulator"));
                    }
                    let id = at.f_accs.len() as u8;
                    at.f_accs.push(*reg);
                    at.f_acc_ids.insert((*name).to_string(), id);
                }
                Some((Loc::I(reg), Ty::I64)) => {
                    if at.i_accs.len() >= VEC_SLOT_CAP as usize {
                        return Err(FallbackReason::Budget("accumulator"));
                    }
                    let id = at.i_accs.len() as u8;
                    at.i_accs.push(*reg);
                    at.i_acc_ids.insert((*name).to_string(), id);
                }
                _ => {
                    return Err(FallbackReason::NotUnboxedAccumulator((*name).to_string()))
                }
            }
        }

        // The loop element.
        let s = at.slot(src_lane)?;
        at.tape.push(BOp::Load(src_lane, s));
        match snd_lane {
            None => {
                at.locals.insert(elem_var.to_string(), (src_lane, s));
            }
            Some(l) => {
                let s2 = at.slot(l)?;
                at.tape.push(BOp::LoadSnd(l, s2));
                at.pairs.insert(elem_var.to_string(), ((src_lane, s), (l, s2)));
            }
        }

        // Compile the body in statement order onto the unified tape.
        for s in &stmts {
            match s {
                Stmt::Decl { name, ty, init } => {
                    let (lane, slot) = self.vec_expr(&mut at, init)?;
                    if Lane::of(ty) != Some(lane) {
                        return Err(FallbackReason::DeclLaneMismatch(ty.clone()));
                    }
                    at.locals.insert(name.clone(), (lane, slot));
                }
                Stmt::IfNotContinue { cond } => {
                    let (lane, c) = self.vec_expr(&mut at, cond)?;
                    if lane != Lane::B {
                        return Err(FallbackReason::Shape("filter predicate is not boolean"));
                    }
                    at.tape.push(BOp::Filter(c));
                }
                Stmt::IfBreak { cond } => {
                    let (lane, c) = self.vec_expr(&mut at, cond)?;
                    if lane != Lane::B {
                        return Err(FallbackReason::Shape("break condition is not boolean"));
                    }
                    // A batch runs everything before the cut on lanes
                    // past it, which the scalar loop never reaches: only
                    // pure, non-trapping work may precede it.
                    if at.n_traps > 0 {
                        return Err(FallbackReason::TrapBeforeCut);
                    }
                    if at.effects {
                        return Err(FallbackReason::EffectBeforeCut);
                    }
                    at.tape.push(BOp::Cut(c));
                }
                Stmt::Assign { name, expr } => {
                    // Recognize acc = acc + e / acc.min(e) / acc.max(e).
                    let (red, e) = match expr {
                        Expr::Bin(BinOp::Add, a, b) => {
                            if **a == Expr::Var(name.clone()) {
                                (RedK::Sum, b.as_ref())
                            } else if **b == Expr::Var(name.clone()) {
                                (RedK::Sum, a.as_ref())
                            } else {
                                return Err(FallbackReason::Shape("assignment is not an accumulator fold"));
                            }
                        }
                        Expr::Bin(BinOp::Min, a, b) if **a == Expr::Var(name.clone()) => {
                            (RedK::Min, b.as_ref())
                        }
                        Expr::Bin(BinOp::Max, a, b) if **a == Expr::Var(name.clone()) => {
                            (RedK::Max, b.as_ref())
                        }
                        _ => return Err(FallbackReason::Shape("assignment is not an accumulator fold")),
                    };
                    let (vlane, val) = self.vec_expr(&mut at, e)?;
                    let (lane, acc) = if let Some(acc) = at.f_acc_ids.get(name.as_str()) {
                        (Lane::F, *acc)
                    } else if let Some(acc) = at.i_acc_ids.get(name.as_str()) {
                        (Lane::I, *acc)
                    } else {
                        return Err(FallbackReason::Shape("assignment target is not an accumulator"));
                    };
                    if vlane != lane {
                        return Err(FallbackReason::LaneMismatch("fold"));
                    }
                    at.tape.push(BOp::Red { red, lane, acc, val });
                    at.effects = true;
                }
                Stmt::GroupAggUpdate {
                    sink,
                    key,
                    acc_param,
                    elem_param,
                    value,
                    update,
                } => {
                    let Some(meta) = self.sinks.get(sink) else {
                        return Err(FallbackReason::UnknownSink(sink.clone()));
                    };
                    let id = meta.id;
                    let repr = match &meta.acc {
                        Some((AccRepr::SF, _)) => AccRepr::SF,
                        Some((AccRepr::SI, _)) => AccRepr::SI,
                        _ => return Err(FallbackReason::Shape("grouped aggregate is not fully scalar")),
                    };
                    let bound = self.key_bound(Some(&at), key);
                    at.key_sites.push((sink.clone(), bound));
                    let key = self.vec_expr(&mut at, key)?;
                    // The scalar semantics evaluates `value` per element
                    // even when the fold ignores it; dropping it is only
                    // sound when it cannot trap.
                    let update_vars = steno_expr::subst::free_vars(update);
                    if !update_vars.contains(elem_param) && may_trap(value) {
                        return Err(FallbackReason::DroppedValueMayTrap);
                    }
                    let u = steno_expr::subst::subst(update, elem_param, value);
                    let acc_var = Expr::Var(acc_param.clone());
                    let Expr::Bin(BinOp::Add, a, b) = &u else {
                        return Err(FallbackReason::Shape("grouped fold is not a sum"));
                    };
                    let e = if **a == acc_var {
                        &**b
                    } else if **b == acc_var {
                        &**a
                    } else {
                        return Err(FallbackReason::Shape("grouped fold is not `acc + e`"));
                    };
                    if steno_expr::subst::free_vars(e).contains(acc_param) {
                        return Err(FallbackReason::Shape("grouped fold reads the accumulator non-linearly"));
                    }
                    let (vlane, val) = self.vec_expr(&mut at, e)?;
                    let lane = match (repr, vlane) {
                        (AccRepr::SF, Lane::F) => Lane::F,
                        (AccRepr::SI, Lane::I) => Lane::I,
                        _ => return Err(FallbackReason::LaneMismatch("grouped fold")),
                    };
                    at.tape.push(BOp::GroupAdd { lane, sink: id, key, val });
                    at.effects = true;
                }
                Stmt::Yield { value } => {
                    if at.n_outs >= 1 {
                        return Err(FallbackReason::Shape("multiple yields per iteration"));
                    }
                    let pair = match value {
                        Expr::MkPair(a, b) => {
                            Some((self.vec_expr(&mut at, a)?, self.vec_expr(&mut at, b)?))
                        }
                        Expr::Var(n) => at.pairs.get(n).copied(),
                        _ => None,
                    };
                    if let Some((a, b)) = pair {
                        at.tape.push(BOp::OutPair(a, b));
                    } else {
                        let (lane, slot) = self.vec_expr(&mut at, value)?;
                        at.tape.push(BOp::Out(lane, slot));
                    }
                    at.n_outs += 1;
                    at.effects = true;
                }
                Stmt::SinkPush { sink, value, key } => {
                    let Some(meta) = self.sinks.get(sink) else {
                        return Err(FallbackReason::UnknownSink(sink.clone()));
                    };
                    let id = meta.id;
                    let (vlane, vslot) = self.vec_expr(&mut at, value)?;
                    let key = match key {
                        Some(k) => Some((k, self.vec_expr(&mut at, k)?)),
                        None => None,
                    };
                    // The push site fixes the sink's columns by type, as
                    // the scalar tier does, once the attempt succeeds.
                    let key_ty = key.map(|(k, (l, _))| (k, l.ty()));
                    let layout = self
                        .push_layout(sink, key_ty.as_ref().map(|(k, t)| (*k, t)), value, &vlane.ty())
                        .map_err(|_| FallbackReason::Shape("sink pushed with two layouts"))?;
                    let op = match (layout, key) {
                        (Some(PushLayout::Sorted(cols)), Some((_, k))) if cols != SortCols::Boxed => {
                            BOp::SortPush {
                                sink: id,
                                key: k,
                                val: (vlane, vslot),
                            }
                        }
                        (Some(PushLayout::Distinct(Some(_))), None) => BOp::DistinctPush {
                            sink: id,
                            val: (vlane, vslot),
                        },
                        _ => return Err(FallbackReason::Statement(stmt_kind(s))),
                    };
                    if let Some(layout) = layout {
                        if at.push_sites.iter().any(|(n, l)| n == sink && *l != layout) {
                            return Err(FallbackReason::Shape("sink pushed with two layouts"));
                        }
                        at.push_sites.push((sink.clone(), layout));
                    }
                    at.tape.push(op);
                    at.effects = true;
                }
                other => {
                    return Err(FallbackReason::Statement(stmt_kind(other)))
                }
            }
        }
        if !at.effects {
            return Err(FallbackReason::Shape("loop has no batchable effects"));
        }

        // Success: only now does compiler state change.
        for (udf, sig) in at.calls {
            let id = self.udf_id(&udf);
            self.udf_sigs[id as usize] = Some(sig);
        }
        for (sink, bound) in at.key_sites {
            self.record_key_site(&sink, bound);
        }
        for (sink, layout) in at.push_sites {
            self.set_push_layout(&sink, layout);
        }
        let src = match (header, read_sink) {
            (LoopHeader::Source { name, .. }, _) => BatchSrc::Source(self.src_id(name)),
            (_, Some((name, id))) => {
                // The only reader of a sort, through a static window,
                // needs only the window's end sorted: a top-k sink.
                if let (Some(meta), Some(end)) = (self.sinks.get(name), window.end()) {
                    if meta.readers == 1 {
                        if let Instr::SinkNewSorted(_, spec) = &mut self.instrs[meta.new_pc] {
                            spec.limit = Some(end);
                        }
                    }
                }
                BatchSrc::Sink(id)
            }
            _ => unreachable!("loop header checked above"),
        };
        self.n_batch += 1;
        self.n_guards_dropped += at.guards_dropped;
        let mut bp = BatchProgram {
            src,
            src_lane,
            snd_lane,
            window: window.skip..window.end().unwrap_or(usize::MAX),
            f_params: at.f_params,
            i_params: at.i_params,
            f_accs: at.f_accs,
            i_accs: at.i_accs,
            n_f: at.n_f as u8,
            n_i: at.n_i as u8,
            n_b: at.n_b as u8,
            prologue: at.prologue,
            tape: at.tape,
            fused: None,
            shadow: None,
            div_proofs: at.div_proofs,
        };
        // Reference tape for the tape verifier, captured before the
        // backend passes below rewrite the slots and ops.
        bp.shadow = Some(std::sync::Arc::new(crate::batch::BatchShadow {
            window: bp.window.clone(),
            n_f: bp.n_f,
            n_i: bp.n_i,
            n_b: bp.n_b,
            prologue: bp.prologue.clone(),
            tape: bp.tape.clone(),
        }));
        // Backend passes: recognize a whole-tape fused kernel first (the
        // planner reads the SSA tape the vectorizer emitted), then fuse
        // adjacent kernel pairs, then pack column lifetimes. FusedTape
        // addresses accumulators by position, so packing cannot
        // invalidate it.
        bp.fused = crate::fuse_kernels::plan(&bp);
        if let Some(ft) = &bp.fused {
            self.fused_kernels.push(ft.label());
        }
        for name in crate::fuse_kernels::peephole(&mut bp) {
            self.fused_kernels.push(name.to_string());
        }
        self.n_slots_reused += crate::lifetimes::pack_batch_slots(&mut bp);
        self.emit(Instr::BatchLoop(std::sync::Arc::new(bp)));
        Ok(())
    }

    /// Compiles an expression into a typed batch slot, or fails the
    /// attempt with a taxonomy reason.
    fn vec_expr(
        &mut self,
        at: &mut VecAttempt,
        e: &Expr,
    ) -> Result<(crate::batch::Lane, u8), FallbackReason> {
        use crate::batch::{BOp, FOp, FUnOp, IOp, IUnOp, Lane};
        match e {
            Expr::Var(name) => {
                if let Some(ls) = at.locals.get(name) {
                    return Ok(*ls);
                }
                if at.f_acc_ids.contains_key(name) || at.i_acc_ids.contains_key(name) {
                    return Err(FallbackReason::AccumulatorInPipeline(name.clone()));
                }
                match self.scope.get(name) {
                    Some((Loc::F(reg), Ty::F64)) => {
                        let reg = *reg;
                        Ok((Lane::F, at.param_f(reg)?))
                    }
                    Some((Loc::I(reg), Ty::I64)) => {
                        let reg = *reg;
                        Ok((Lane::I, at.param_i(reg)?))
                    }
                    Some((Loc::I(reg), Ty::Bool)) => {
                        let reg = *reg;
                        Ok((Lane::B, at.param_b(reg)?))
                    }
                    _ => Err(FallbackReason::NotUnboxedScalar(name.clone())),
                }
            }
            Expr::LitF64(x) => Ok((Lane::F, at.const_f(*x)?)),
            Expr::LitI64(x) => Ok((Lane::I, at.const_i(*x)?)),
            Expr::LitBool(b) => Ok((Lane::B, at.const_b(*b)?)),
            Expr::Bin(op, a, b) if op.is_logical() => {
                let (la, ra) = self.vec_expr(at, a)?;
                let traps_before = at.n_traps;
                let (lb, rb) = self.vec_expr(at, b)?;
                if la != Lane::B || lb != Lane::B {
                    return Err(FallbackReason::Shape("logical operand is not boolean"));
                }
                if at.n_traps != traps_before {
                    // Eager evaluation would trap on lanes the scalar
                    // short-circuit never reaches.
                    return Err(FallbackReason::TrapUnderShortCircuit);
                }
                let d = at.slot_b()?;
                at.tape.push(match op {
                    BinOp::And => BOp::AndB(d, ra, rb),
                    _ => BOp::OrB(d, ra, rb),
                });
                Ok((Lane::B, d))
            }
            Expr::Bin(op, a, b) if op.is_comparison() => {
                let (la, ra) = self.vec_expr(at, a)?;
                let (lb, rb) = self.vec_expr(at, b)?;
                if la != lb {
                    return Err(FallbackReason::LaneMismatch("comparison"));
                }
                let d = at.slot_b()?;
                let Some(cmp) = CmpOp::of(*op) else {
                    unreachable!("non-comparison op in comparison arm")
                };
                if la == Lane::B && !matches!(cmp, CmpOp::Eq | CmpOp::Ne) {
                    return Err(FallbackReason::Shape("ordering comparison on booleans"));
                }
                at.tape.push(BOp::Cmp(la, cmp, d, ra, rb));
                Ok((Lane::B, d))
            }
            Expr::Bin(op, a, b) => {
                let (la, ra) = self.vec_expr(at, a)?;
                let (lb, rb) = self.vec_expr(at, b)?;
                if la != lb {
                    return Err(FallbackReason::LaneMismatch("arithmetic"));
                }
                match la {
                    Lane::F => {
                        let d = at.slot_f()?;
                        let fop = match op {
                            BinOp::Add => FOp::Add,
                            BinOp::Sub => FOp::Sub,
                            BinOp::Mul => FOp::Mul,
                            BinOp::Div => FOp::Div,
                            BinOp::Rem => FOp::Rem,
                            BinOp::Min => FOp::Min,
                            BinOp::Max => FOp::Max,
                            _ => {
                                return Err(FallbackReason::Operator {
                                    op: op.symbol(),
                                    lane: "f64",
                                })
                            }
                        };
                        at.tape.push(BOp::BinF(fop, d, ra, rb));
                        Ok((Lane::F, d))
                    }
                    Lane::I => {
                        let d = at.slot_i()?;
                        let bin = |o| BOp::BinI(o, d, ra, rb);
                        let bop = match op {
                            BinOp::Add => bin(IOp::Add),
                            BinOp::Sub => bin(IOp::Sub),
                            BinOp::Mul => bin(IOp::Mul),
                            BinOp::Min => bin(IOp::Min),
                            BinOp::Max => bin(IOp::Max),
                            BinOp::Div => {
                                if let Some(proof) = self.divisor_proof(at, b) {
                                    at.guards_dropped += 1;
                                    at.div_proofs.push(proof);
                                    BOp::DivIUnchecked(d, ra, rb)
                                } else {
                                    at.trap(TrapKind::DivisionByZero)?;
                                    BOp::DivI(d, ra, rb)
                                }
                            }
                            BinOp::Rem => {
                                if let Some(proof) = self.divisor_proof(at, b) {
                                    at.guards_dropped += 1;
                                    at.div_proofs.push(proof);
                                    BOp::RemIUnchecked(d, ra, rb)
                                } else {
                                    at.trap(TrapKind::DivisionByZero)?;
                                    BOp::RemI(d, ra, rb)
                                }
                            }
                            _ => {
                                return Err(FallbackReason::Operator {
                                    op: op.symbol(),
                                    lane: "i64",
                                })
                            }
                        };
                        at.tape.push(bop);
                        Ok((Lane::I, d))
                    }
                    Lane::B => Err(FallbackReason::Shape("arithmetic on booleans")),
                }
            }
            Expr::Un(op, a) => {
                let (la, ra) = self.vec_expr(at, a)?;
                let wrong = FallbackReason::UnaryWrongLane(op.symbol());
                let d = match la {
                    Lane::F => {
                        let o = match op {
                            UnOp::Neg => FUnOp::Neg,
                            UnOp::Abs => FUnOp::Abs,
                            UnOp::Sqrt => FUnOp::Sqrt,
                            UnOp::Floor => FUnOp::Floor,
                            UnOp::Not => return Err(wrong),
                        };
                        let d = at.slot_f()?;
                        at.tape.push(BOp::UnF(o, d, ra));
                        d
                    }
                    Lane::I => {
                        let o = match op {
                            UnOp::Neg => IUnOp::Neg,
                            UnOp::Abs => IUnOp::Abs,
                            _ => return Err(wrong),
                        };
                        let d = at.slot_i()?;
                        at.tape.push(BOp::UnI(o, d, ra));
                        d
                    }
                    Lane::B => {
                        if *op != UnOp::Not {
                            return Err(wrong);
                        }
                        let d = at.slot_b()?;
                        at.tape.push(BOp::NotB(d, ra));
                        d
                    }
                };
                Ok((la, d))
            }
            Expr::If(c, t, els) => {
                let (lc, rc) = self.vec_expr(at, c)?;
                if lc != Lane::B {
                    return Err(FallbackReason::Shape("conditional condition is not boolean"));
                }
                let traps_before = at.n_traps;
                let (lt, rt) = self.vec_expr(at, t)?;
                let (le, re) = self.vec_expr(at, els)?;
                if at.n_traps != traps_before {
                    // Lane-wise select evaluates both branches on every
                    // lane; the scalar semantics evaluates only one.
                    return Err(FallbackReason::TrapUnderConditional);
                }
                if lt != le {
                    return Err(FallbackReason::LaneMismatch("conditional branch"));
                }
                let d = at.slot(lt)?;
                at.tape.push(BOp::Sel {
                    lane: lt,
                    dst: d,
                    mask: rc,
                    t: rt,
                    e: re,
                });
                Ok((lt, d))
            }
            Expr::Cast(ty, a) => {
                let (la, ra) = self.vec_expr(at, a)?;
                match (la, ty) {
                    (Lane::F, Ty::I64) => {
                        let d = at.slot_i()?;
                        at.tape.push(BOp::F2I(d, ra));
                        Ok((Lane::I, d))
                    }
                    (Lane::I, Ty::F64) => {
                        let d = at.slot_f()?;
                        at.tape.push(BOp::I2F(d, ra));
                        Ok((Lane::F, d))
                    }
                    (Lane::F, Ty::F64) | (Lane::I, Ty::I64) | (Lane::B, Ty::Bool) => {
                        Ok((la, ra))
                    }
                    _ => Err(FallbackReason::CastUnsupported(ty.clone())),
                }
            }
            Expr::Field(inner, i) => match &**inner {
                Expr::Var(n) => {
                    let pair = at.pairs.get(n).ok_or(FallbackReason::Expression("pair projection"))?;
                    Ok(if *i == 0 { pair.0 } else { pair.1 })
                }
                _ => Err(FallbackReason::Expression("pair projection")),
            },
            Expr::Call(name, args) => {
                let udfs = self.udfs;
                let udf = udfs.get(name).ok_or(FallbackReason::Shape("unknown udf"))?;
                let lanes: Option<Vec<Lane>> = udf.params.iter().map(Lane::of).collect();
                let (Some(params), Some(ret)) = (lanes, Lane::of(&udf.ret)) else {
                    return Err(FallbackReason::BoxedUdf(name.clone()));
                };
                if !udf.pure {
                    return Err(FallbackReason::ImpureUdf(name.clone()));
                }
                if params.len() != args.len() {
                    return Err(FallbackReason::Shape("udf arity mismatch"));
                }
                let mut slots = Vec::with_capacity(args.len());
                for (a, want) in args.iter().zip(&params) {
                    let (lane, s) = self.vec_expr(at, a)?;
                    if lane != *want {
                        return Err(FallbackReason::LaneMismatch("udf argument"));
                    }
                    slots.push((lane, s));
                }
                let args = crate::batch::CallArgs::new(&slots)
                    .ok_or(FallbackReason::Budget("udf argument"))?;
                at.trap(TrapKind::Unbox(ret))?;
                let sig = UdfSig {
                    params: udf.params.clone(),
                    ret: udf.ret.clone(),
                    pure: true,
                };
                let udf = self.attempt_udf_id(at, name, sig);
                let d = at.slot(ret)?;
                at.tape.push(BOp::Call {
                    udf,
                    args,
                    dst: (ret, d),
                });
                Ok((ret, d))
            }
            other => Err(FallbackReason::Expression(expr_kind(other))),
        }
    }

    /// The id `name` has in the program, or gets when the attempt
    /// succeeds (fresh names register in first-call order).
    fn attempt_udf_id(&self, at: &mut VecAttempt, name: &str, sig: UdfSig) -> u32 {
        if !at.calls.iter().any(|(n, _)| n == name) {
            at.calls.push((name.to_string(), sig));
        }
        if let Some(id) = self.udf_ids.get(name) {
            return *id;
        }
        let fresh_before = at
            .calls
            .iter()
            .take_while(|(n, _)| n != name)
            .filter(|(n, _)| !self.udf_ids.contains_key(n))
            .count();
        (self.udf_names.len() + fresh_before) as u32
    }
}
