//! Assembling imperative programs into register bytecode.
//!
//! Types flow from the [`ImpProgram`]'s declarations into register-bank
//! assignment: `f64` expressions compile to F-bank instructions, `i64` and
//! boolean expressions to I-bank instructions, and only compound values
//! touch the boxed V bank. This is where the paper's type specialization
//! (§4.2) pays off at run time: a numeric query's inner loop never boxes.

use std::collections::HashMap;

use steno_codegen::imp::{ImpProgram, LoopHeader, SinkDecl, Stmt, Terminal};
use steno_expr::expr::{BinOp, UnOp};
use steno_expr::{Expr, Ty, UdfRegistry, Value};

use crate::instr::{FallbackReason, Instr, LoopPlan, LoopTier, Pc, Program};

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
    udfs: &'a UdfRegistry,
    sinks: HashMap<String, SinkMeta>,
    n_sinks: u32,
    n_batch: u32,
    batch_fallbacks: Vec<FallbackReason>,
    n_guards_dropped: u32,
    loop_plans: Vec<LoopPlan>,
    fused_kernels: Vec<String>,
    n_slots_reused: u32,
    loops: Vec<LoopCtx>,
    vectorize: bool,
    /// Cost-model tier advice from profiled runs (see `steno-opt`):
    /// `PreferScalar` skips the batch tier for every loop, with the
    /// rationale recorded on the loop's plan. `None` keeps the static
    /// tier order.
    tier_hint: Option<(steno_opt::TierAdvice, String)>,
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
                if op.is_comparison() {
                    let dst = self.i();
                    match (la, lb) {
                        (Loc::F(x), Loc::F(y)) => {
                            let instr = match op {
                                BinOp::Eq => Instr::EqF(dst, x, y),
                                BinOp::Ne => Instr::NeF(dst, x, y),
                                BinOp::Lt => Instr::LtF(dst, x, y),
                                BinOp::Le => Instr::LeF(dst, x, y),
                                BinOp::Gt => Instr::GtF(dst, x, y),
                                BinOp::Ge => Instr::GeF(dst, x, y),
                                _ => unreachable!(),
                            };
                            self.emit(instr);
                        }
                        (Loc::I(x), Loc::I(y)) => {
                            let instr = match op {
                                BinOp::Eq => Instr::EqI(dst, x, y),
                                BinOp::Ne => Instr::NeI(dst, x, y),
                                BinOp::Lt => Instr::LtI(dst, x, y),
                                BinOp::Le => Instr::LeI(dst, x, y),
                                BinOp::Gt => Instr::GtI(dst, x, y),
                                BinOp::Ge => Instr::GeI(dst, x, y),
                                _ => unreachable!(),
                            };
                            self.emit(instr);
                        }
                        (Loc::V(x), Loc::V(y)) => match op {
                            BinOp::Eq => {
                                self.emit(Instr::EqV(dst, x, y));
                            }
                            BinOp::Ne => {
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
            } => {
                // Tier order: vectorized (typed batches, selection
                // vectors) first, then the generic scalar loop. A refused
                // vectorization leaves no trace in the emitted program.
                // A cost-model hint (observed element counts below the
                // batch break-even, §7.1) overrides the static order and
                // skips the batch tier outright.
                let chosen_by = self.tier_hint.as_ref().map(|(_, why)| why.clone());
                let skip_batch = matches!(
                    self.tier_hint,
                    Some((steno_opt::TierAdvice::PreferScalar, _))
                );
                let mut vectorize_fallback = None;
                if self.vectorize && !skip_batch {
                    match self.try_vectorize_loop(p, header, elem_var, *body) {
                        Ok(()) => {
                            self.loop_plans.push(LoopPlan {
                                tier: LoopTier::Vectorized,
                                vectorize_fallback: None,
                                chosen_by,
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
                    chosen_by,
                });
                self.compile_loop(p, header, elem_var, *body)
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
                let acc = match decl {
                    SinkDecl::Group => {
                        self.emit(Instr::SinkNewGroup(id));
                        None
                    }
                    SinkDecl::GroupAgg {
                        init,
                        acc_ty,
                        key_ty,
                    } => {
                        let (loc, ty) = self.expr(init)?;
                        let scalar_key = key_ty.is_scalar();
                        match (loc, acc_ty) {
                            (Loc::F(r), Ty::F64) if scalar_key => {
                                self.emit(Instr::SinkNewGroupAggSF(id, r));
                                Some((AccRepr::SF, Ty::F64))
                            }
                            (Loc::I(r), Ty::I64) if scalar_key => {
                                self.emit(Instr::SinkNewGroupAggSI(id, r));
                                Some((AccRepr::SI, Ty::I64))
                            }
                            (Loc::F(r), Ty::F64) => {
                                self.emit(Instr::SinkNewGroupAggF(id, r));
                                Some((AccRepr::F, Ty::F64))
                            }
                            (Loc::I(r), Ty::I64) => {
                                self.emit(Instr::SinkNewGroupAggI(id, r));
                                Some((AccRepr::I, Ty::I64))
                            }
                            (loc, _) => {
                                let vr = self.box_to_v(loc, &ty);
                                self.emit(Instr::SinkNewGroupAggV(id, vr));
                                Some((AccRepr::V, acc_ty.clone()))
                            }
                        }
                    }
                    SinkDecl::SortedVec { descending } => {
                        self.emit(Instr::SinkNewSorted(id, *descending));
                        None
                    }
                    SinkDecl::DistinctVec => {
                        self.emit(Instr::SinkNewDistinct(id));
                        None
                    }
                    SinkDecl::Vec => {
                        self.emit(Instr::SinkNewVec(id));
                        None
                    }
                };
                self.sinks.insert(name.clone(), SinkMeta { id, acc });
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
                        let kv = self.box_to_v(kl, &kt);
                        self.emit(Instr::SinkPushKeyed(id, kv, vv));
                    }
                    None => {
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
    ) -> Result<(), CompileError> {
        // Pre-loop setup producing: a length register, an index register,
        // and a closure-free per-iteration element load.
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
        self.emit(Instr::ConstI(idx, 0));
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

        let top = self.here();
        let cmp = self.i();
        self.emit(Instr::LtI(cmp, idx, len));
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
/// ablation and the engine's `VectorizationPolicy`) and an optional
/// cost-model tier hint (observed element counts and selection
/// density from profiled runs of a previous compilation of the same
/// query). `PreferScalar` advice
/// skips the batch-vectorized tier — below the break-even element count
/// its per-loop setup costs more than it saves — and the rationale is
/// recorded on each loop's [`LoopPlan::chosen_by`] for `EXPLAIN`.
///
/// `fusion` is ignored: the loop-fusion tier it switched was removed
/// (the batch tier covers its loops), and the argument remains only
/// for callers not yet updated. Every loop the vectorizer refuses runs
/// on the scalar tier.
///
/// # Errors
///
/// As [`assemble`].
pub fn assemble_hinted(
    p: &ImpProgram,
    udfs: &UdfRegistry,
    _fusion: bool,
    vectorize: bool,
    tier_hint: Option<(steno_opt::TierAdvice, String)>,
) -> Result<Program, CompileError> {
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
        udfs,
        sinks: HashMap::new(),
        n_sinks: 0,
        n_batch: 0,
        batch_fallbacks: Vec::new(),
        n_guards_dropped: 0,
        loop_plans: Vec::new(),
        fused_kernels: Vec::new(),
        n_slots_reused: 0,
        loops: Vec::new(),
        vectorize,
        tier_hint,
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
    /// Trapping ops (integer div/rem) emitted so far. Snapshotted around
    /// lazily-evaluated subexpressions (short-circuit right operands,
    /// conditional branches): batch execution is eager, so a trap there
    /// could fire on lanes the scalar semantics never evaluates.
    n_traps: u32,
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

impl VecAttempt {
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
        use crate::batch::Lane;
        let mut bindings: Vec<(String, Ty)> = self
            .scope
            .iter()
            .filter(|(_, (_, ty))| matches!(ty, Ty::F64 | Ty::I64 | Ty::Bool))
            .map(|(name, (_, ty))| (name.clone(), ty.clone()))
            .collect();
        bindings.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        // Loop locals shadow outer registers, so they bind last.
        let mut locals: Vec<(String, Ty)> = at
            .locals
            .iter()
            .map(|(name, (lane, _))| {
                let ty = match lane {
                    Lane::F => Ty::F64,
                    Lane::I => Ty::I64,
                    Lane::B => Ty::Bool,
                };
                (name.clone(), ty)
            })
            .collect();
        locals.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        bindings.extend(locals);
        let mut env = steno_expr::typecheck::TyEnv::new();
        for (name, ty) in &bindings {
            env = env.with(name.clone(), ty.clone());
        }
        let facts = steno_analysis::analyze(e, &env);
        if facts.range.is_some_and(|r| r.excludes_zero()) {
            Some(crate::batch::DivProof {
                divisor: e.clone(),
                env: bindings,
            })
        } else {
            None
        }
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
    ) -> Result<(), FallbackReason> {
        use crate::batch::{BOp, BatchProgram, KeyRef, Lane};

        let LoopHeader::Source { name, elem_ty } = header else {
            return Err(FallbackReason::NotSourceLoop);
        };
        let src_lane = match elem_ty {
            Ty::F64 => Lane::F,
            Ty::I64 => Lane::I,
            Ty::Bool => Lane::B,
            other => return Err(FallbackReason::BoxedSource(other.clone())),
        };
        let stmts = p.flatten(body);

        // Pre-scan: statement shapes, and which names are assigned (those
        // must be unboxed accumulators declared outside the loop).
        let mut assigned: Vec<&str> = Vec::new();
        for s in &stmts {
            match s {
                Stmt::Decl { ty, .. } => {
                    if !matches!(ty, Ty::F64 | Ty::I64 | Ty::Bool) {
                        return Err(FallbackReason::BoxedLocal(ty.clone()));
                    }
                }
                Stmt::IfNotContinue { .. }
                | Stmt::GroupAggUpdate { .. }
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
        let elem_slot = match src_lane {
            Lane::F => {
                let s = at.slot_f()?;
                at.tape.push(BOp::LoadF(s));
                (Lane::F, s)
            }
            Lane::I => {
                let s = at.slot_i()?;
                at.tape.push(BOp::LoadI(s));
                (Lane::I, s)
            }
            Lane::B => {
                let s = at.slot_b()?;
                at.tape.push(BOp::LoadB(s));
                (Lane::B, s)
            }
        };
        at.locals.insert(elem_var.to_string(), elem_slot);

        // Compile the body in statement order onto the unified tape.
        for s in &stmts {
            match s {
                Stmt::Decl { name, ty, init } => {
                    let (lane, slot) = self.vec_expr(&mut at, init)?;
                    let matches_ty = matches!(
                        (ty, lane),
                        (Ty::F64, Lane::F) | (Ty::I64, Lane::I) | (Ty::Bool, Lane::B)
                    );
                    if !matches_ty {
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
                Stmt::Assign { name, expr } => {
                    // Recognize acc = acc + e / acc.min(e) / acc.max(e).
                    let (kind, e) = match expr {
                        Expr::Bin(BinOp::Add, a, b) => {
                            if **a == Expr::Var(name.clone()) {
                                ('+', b.as_ref())
                            } else if **b == Expr::Var(name.clone()) {
                                ('+', a.as_ref())
                            } else {
                                return Err(FallbackReason::Shape("assignment is not an accumulator fold"));
                            }
                        }
                        Expr::Bin(BinOp::Min, a, b) if **a == Expr::Var(name.clone()) => {
                            ('<', b.as_ref())
                        }
                        Expr::Bin(BinOp::Max, a, b) if **a == Expr::Var(name.clone()) => {
                            ('>', b.as_ref())
                        }
                        _ => return Err(FallbackReason::Shape("assignment is not an accumulator fold")),
                    };
                    let (lane, val) = self.vec_expr(&mut at, e)?;
                    if let Some(acc) = at.f_acc_ids.get(name.as_str()).copied() {
                        if lane != Lane::F {
                            return Err(FallbackReason::LaneMismatch("fold"));
                        }
                        at.tape.push(match kind {
                            '+' => BOp::RedAddF { acc, val },
                            '<' => BOp::RedMinF { acc, val },
                            _ => BOp::RedMaxF { acc, val },
                        });
                    } else if let Some(acc) = at.i_acc_ids.get(name.as_str()).copied() {
                        if lane != Lane::I {
                            return Err(FallbackReason::LaneMismatch("fold"));
                        }
                        at.tape.push(match kind {
                            '+' => BOp::RedAddI { acc, val },
                            '<' => BOp::RedMinI { acc, val },
                            _ => BOp::RedMaxI { acc, val },
                        });
                    } else {
                        return Err(FallbackReason::Shape("assignment target is not an accumulator"));
                    }
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
                    let (klane, kslot) = self.vec_expr(&mut at, key)?;
                    let keyref = match klane {
                        Lane::F => KeyRef::F(kslot),
                        Lane::I => KeyRef::I(kslot),
                        Lane::B => KeyRef::B(kslot),
                    };
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
                    match (repr, vlane) {
                        (AccRepr::SF, Lane::F) => at.tape.push(BOp::GroupAddF {
                            sink: id,
                            key: keyref,
                            val,
                        }),
                        (AccRepr::SI, Lane::I) => at.tape.push(BOp::GroupAddI {
                            sink: id,
                            key: keyref,
                            val,
                        }),
                        _ => return Err(FallbackReason::LaneMismatch("grouped fold")),
                    }
                    at.effects = true;
                }
                Stmt::Yield { value } => {
                    if at.n_outs >= 1 {
                        return Err(FallbackReason::Shape("multiple yields per iteration"));
                    }
                    let (lane, slot) = self.vec_expr(&mut at, value)?;
                    at.tape.push(match lane {
                        Lane::F => BOp::OutF(slot),
                        Lane::I => BOp::OutI(slot),
                        Lane::B => BOp::OutB(slot),
                    });
                    at.n_outs += 1;
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
        let sid = self.src_id(name);
        self.n_batch += 1;
        self.n_guards_dropped += at.guards_dropped;
        let mut bp = BatchProgram {
            src: sid,
            src_lane,
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
        use crate::batch::{BOp, Lane};
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
                let bop = match (la, op) {
                    (Lane::F, BinOp::Eq) => BOp::EqFB(d, ra, rb),
                    (Lane::F, BinOp::Ne) => BOp::NeFB(d, ra, rb),
                    (Lane::F, BinOp::Lt) => BOp::LtFB(d, ra, rb),
                    (Lane::F, BinOp::Le) => BOp::LeFB(d, ra, rb),
                    (Lane::F, BinOp::Gt) => BOp::GtFB(d, ra, rb),
                    (Lane::F, BinOp::Ge) => BOp::GeFB(d, ra, rb),
                    (Lane::I, BinOp::Eq) => BOp::EqIB(d, ra, rb),
                    (Lane::I, BinOp::Ne) => BOp::NeIB(d, ra, rb),
                    (Lane::I, BinOp::Lt) => BOp::LtIB(d, ra, rb),
                    (Lane::I, BinOp::Le) => BOp::LeIB(d, ra, rb),
                    (Lane::I, BinOp::Gt) => BOp::GtIB(d, ra, rb),
                    (Lane::I, BinOp::Ge) => BOp::GeIB(d, ra, rb),
                    (Lane::B, BinOp::Eq) => BOp::EqBB(d, ra, rb),
                    (Lane::B, BinOp::Ne) => BOp::NeBB(d, ra, rb),
                    (Lane::B, _) => return Err(FallbackReason::Shape("ordering comparison on booleans")),
                    _ => unreachable!("non-comparison op in comparison arm"),
                };
                at.tape.push(bop);
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
                        let bop = match op {
                            BinOp::Add => BOp::AddF(d, ra, rb),
                            BinOp::Sub => BOp::SubF(d, ra, rb),
                            BinOp::Mul => BOp::MulF(d, ra, rb),
                            BinOp::Div => BOp::DivF(d, ra, rb),
                            BinOp::Rem => BOp::RemF(d, ra, rb),
                            BinOp::Min => BOp::MinF(d, ra, rb),
                            BinOp::Max => BOp::MaxF(d, ra, rb),
                            _ => {
                                return Err(FallbackReason::Operator {
                                    op: op.symbol(),
                                    lane: "f64",
                                })
                            }
                        };
                        at.tape.push(bop);
                        Ok((Lane::F, d))
                    }
                    Lane::I => {
                        let d = at.slot_i()?;
                        let bop = match op {
                            BinOp::Add => BOp::AddI(d, ra, rb),
                            BinOp::Sub => BOp::SubI(d, ra, rb),
                            BinOp::Mul => BOp::MulI(d, ra, rb),
                            BinOp::Min => BOp::MinI(d, ra, rb),
                            BinOp::Max => BOp::MaxI(d, ra, rb),
                            BinOp::Div => {
                                if let Some(proof) = self.divisor_proof(at, b) {
                                    at.guards_dropped += 1;
                                    at.div_proofs.push(proof);
                                    BOp::DivIUnchecked(d, ra, rb)
                                } else {
                                    at.n_traps += 1;
                                    BOp::DivI(d, ra, rb)
                                }
                            }
                            BinOp::Rem => {
                                if let Some(proof) = self.divisor_proof(at, b) {
                                    at.guards_dropped += 1;
                                    at.div_proofs.push(proof);
                                    BOp::RemIUnchecked(d, ra, rb)
                                } else {
                                    at.n_traps += 1;
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
                match (op, la) {
                    (UnOp::Neg, Lane::F) => {
                        let d = at.slot_f()?;
                        at.tape.push(BOp::NegF(d, ra));
                        Ok((Lane::F, d))
                    }
                    (UnOp::Abs, Lane::F) => {
                        let d = at.slot_f()?;
                        at.tape.push(BOp::AbsF(d, ra));
                        Ok((Lane::F, d))
                    }
                    (UnOp::Sqrt, Lane::F) => {
                        let d = at.slot_f()?;
                        at.tape.push(BOp::SqrtF(d, ra));
                        Ok((Lane::F, d))
                    }
                    (UnOp::Floor, Lane::F) => {
                        let d = at.slot_f()?;
                        at.tape.push(BOp::FloorF(d, ra));
                        Ok((Lane::F, d))
                    }
                    (UnOp::Neg, Lane::I) => {
                        let d = at.slot_i()?;
                        at.tape.push(BOp::NegI(d, ra));
                        Ok((Lane::I, d))
                    }
                    (UnOp::Abs, Lane::I) => {
                        let d = at.slot_i()?;
                        at.tape.push(BOp::AbsI(d, ra));
                        Ok((Lane::I, d))
                    }
                    (UnOp::Not, Lane::B) => {
                        let d = at.slot_b()?;
                        at.tape.push(BOp::NotB(d, ra));
                        Ok((Lane::B, d))
                    }
                    _ => Err(FallbackReason::UnaryWrongLane(op.symbol())),
                }
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
                match lt {
                    Lane::F => {
                        let d = at.slot_f()?;
                        at.tape.push(BOp::SelF {
                            dst: d,
                            mask: rc,
                            t: rt,
                            e: re,
                        });
                        Ok((Lane::F, d))
                    }
                    Lane::I => {
                        let d = at.slot_i()?;
                        at.tape.push(BOp::SelI {
                            dst: d,
                            mask: rc,
                            t: rt,
                            e: re,
                        });
                        Ok((Lane::I, d))
                    }
                    Lane::B => {
                        let d = at.slot_b()?;
                        at.tape.push(BOp::SelB {
                            dst: d,
                            mask: rc,
                            t: rt,
                            e: re,
                        });
                        Ok((Lane::B, d))
                    }
                }
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
            other => Err(FallbackReason::Expression(expr_kind(other))),
        }
    }
}
