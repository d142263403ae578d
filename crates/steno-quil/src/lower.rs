//! Lowering query ASTs to QUIL chains (§3.1).
//!
//! "Steno translates this AST into a chain of operators, by post-order
//! traversing the tree, and yielding a canonical operator for each
//! method-call expression." Lowering also resolves operator overloads,
//! annotates every operator with element types, canonicalizes the built-in
//! aggregates into [`AggDesc`] folds, and — when enabled — inserts the
//! specialized `GroupByAggregate` sink for aggregating result selectors
//! (§4.3).
//!
//! Operators Steno does not know how to optimize (e.g. `Concat`) are
//! reported as [`LowerError::Unsupported`]; callers fall back to the
//! unoptimized LINQ executor, exactly as the real system leaves
//! unoptimizable queries to the stock LINQ implementation.

use std::fmt;

use steno_expr::subst::subst;
use steno_expr::typecheck::TyEnv;
use steno_expr::{Expr, Ty, TypeError, UdfRegistry};
use steno_query::typing::{expr_ty, SourceTypes};
use steno_query::{AggOp, GroupResult, QBody, QFn, QueryExpr, SourceRef};

use crate::grammar::Pda;
use crate::ir::{
    AggDesc, AggKind, NestedTrans, OpSpan, PredKind, QuilChain, QuilOp, SinkKind, SinkOp, SrcDesc,
    TransKind,
};
use crate::substitute::subst_chain;

/// Options controlling lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LowerOptions {
    /// Insert the specialized `GroupByAggregate` sink for aggregating
    /// result selectors (§4.3). Disabling this yields the naive
    /// GroupBy-then-reduce plan, used by the specialization ablation.
    pub specialize_group_aggregate: bool,
}

impl Default for LowerOptions {
    fn default() -> LowerOptions {
        LowerOptions {
            specialize_group_aggregate: true,
        }
    }
}

/// An error produced during lowering.
#[derive(Clone, Debug, PartialEq)]
pub enum LowerError {
    /// The query is ill-typed.
    Type(TypeError),
    /// The query uses a shape Steno does not optimize; callers should fall
    /// back to the unoptimized executor.
    Unsupported(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Type(e) => write!(f, "type error during lowering: {e}"),
            LowerError::Unsupported(msg) => write!(f, "unsupported query shape: {msg}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<TypeError> for LowerError {
    fn from(e: TypeError) -> LowerError {
        LowerError::Type(e)
    }
}

fn unsupported(msg: impl Into<String>) -> LowerError {
    LowerError::Unsupported(msg.into())
}

struct Lowerer<'a> {
    sources: &'a SourceTypes,
    udfs: &'a UdfRegistry,
    opts: LowerOptions,
}

impl<'a> Lowerer<'a> {
    fn expr_ty_with(&self, e: &Expr, env: &TyEnv, param: &str, ty: &Ty) -> Result<Ty, LowerError> {
        let mut inner = env.clone();
        inner.bind(param.to_string(), ty.clone());
        Ok(expr_ty(e, &inner, self.udfs)?)
    }

    fn lower_chain(&self, q: &QueryExpr, env: &TyEnv) -> Result<QuilChain, LowerError> {
        match q {
            QueryExpr::Source(s) => {
                let src = match s {
                    SourceRef::Named(name) => {
                        let elem_ty = self
                            .sources
                            .get(name)
                            .cloned()
                            .ok_or_else(|| {
                                LowerError::Type(TypeError::UnboundVariable(format!(
                                    "source `{name}`"
                                )))
                            })?;
                        SrcDesc::Collection {
                            name: name.clone(),
                            elem_ty,
                        }
                    }
                    SourceRef::Range { start, count } => SrcDesc::Range {
                        start: *start,
                        count: *count,
                    },
                    SourceRef::Repeat { value, count } => SrcDesc::Repeat {
                        value: value.clone(),
                        count: *count,
                    },
                    SourceRef::Expr(e) => {
                        let elem_ty = match expr_ty(e, env, self.udfs)? {
                            Ty::Seq(t) => *t,
                            Ty::Row => Ty::F64,
                            other => {
                                return Err(LowerError::Type(TypeError::Mismatch {
                                    context: "query source".into(),
                                    expected: "sequence".into(),
                                    found: other,
                                }))
                            }
                        };
                        SrcDesc::Expr {
                            expr: e.clone(),
                            elem_ty,
                        }
                    }
                };
                Ok(QuilChain {
                    src,
                    ops: Vec::new(),
                    agg: None,
                })
            }
            QueryExpr::Select { input, f } => {
                let mut chain = self.input_chain(input, env)?;
                let in_ty = chain.elem_ty();
                let span = OpSpan::at(chain.ops.len() as u32, "Select");
                let op = match &f.body {
                    QBody::Expr(e) => {
                        let out_ty = self.expr_ty_with(e, env, &f.param, &in_ty)?;
                        QuilOp::Trans {
                            param: f.param.clone(),
                            kind: TransKind::Expr(e.clone()),
                            in_ty,
                            out_ty,
                            span,
                        }
                    }
                    QBody::Query(nested) => {
                        let mut inner_env = env.clone();
                        inner_env.bind(f.param.clone(), in_ty.clone());
                        let nested_chain = self.lower_chain(nested, &inner_env)?;
                        if !nested_chain.is_scalar() {
                            return Err(unsupported(
                                "Select with a sequence-valued nested query; use SelectMany",
                            ));
                        }
                        let out_ty = nested_chain.result_ty();
                        QuilOp::Trans {
                            param: f.param.clone(),
                            kind: TransKind::Nested(NestedTrans {
                                chain: Box::new(nested_chain),
                                wrap: None,
                            }),
                            in_ty,
                            out_ty,
                            span,
                        }
                    }
                };
                chain.ops.push(op);
                Ok(chain)
            }
            QueryExpr::Where { input, p } => {
                let mut chain = self.input_chain(input, env)?;
                let elem_ty = chain.elem_ty();
                let kind = match &p.body {
                    QBody::Expr(e) => {
                        let t = self.expr_ty_with(e, env, &p.param, &elem_ty)?;
                        if t != Ty::Bool {
                            return Err(LowerError::Type(TypeError::Mismatch {
                                context: "Where predicate".into(),
                                expected: "bool".into(),
                                found: t,
                            }));
                        }
                        PredKind::Expr(e.clone())
                    }
                    QBody::Query(nested) => {
                        let mut inner_env = env.clone();
                        inner_env.bind(p.param.clone(), elem_ty.clone());
                        let nested_chain = self.lower_chain(nested, &inner_env)?;
                        if nested_chain.result_ty() != Ty::Bool {
                            return Err(LowerError::Type(TypeError::Mismatch {
                                context: "Where predicate query".into(),
                                expected: "bool".into(),
                                found: nested_chain.result_ty(),
                            }));
                        }
                        PredKind::Nested(Box::new(nested_chain))
                    }
                };
                let span = OpSpan::at(chain.ops.len() as u32, "Where");
                chain.ops.push(QuilOp::Pred {
                    param: p.param.clone(),
                    kind,
                    elem_ty,
                    span,
                });
                Ok(chain)
            }
            QueryExpr::SelectMany { input, f } => {
                let mut chain = self.input_chain(input, env)?;
                let in_ty = chain.elem_ty();
                let mut inner_env = env.clone();
                inner_env.bind(f.param.clone(), in_ty.clone());
                let nested_chain = match &f.body {
                    QBody::Query(nested) => self.lower_chain(nested, &inner_env)?,
                    QBody::Expr(e) => {
                        // SelectMany over a sequence-valued expression is a
                        // nested chain with that expression as its source.
                        let elem_ty = match expr_ty(e, &inner_env, self.udfs)? {
                            Ty::Seq(t) => *t,
                            Ty::Row => Ty::F64,
                            other => {
                                return Err(LowerError::Type(TypeError::Mismatch {
                                    context: "SelectMany selector".into(),
                                    expected: "sequence".into(),
                                    found: other,
                                }))
                            }
                        };
                        QuilChain {
                            src: SrcDesc::Expr {
                                expr: e.clone(),
                                elem_ty,
                            },
                            ops: Vec::new(),
                            agg: None,
                        }
                    }
                };
                if nested_chain.is_scalar() {
                    return Err(unsupported(
                        "SelectMany with a scalar-valued nested query; use Select",
                    ));
                }
                let out_ty = nested_chain.elem_ty();
                let span = OpSpan::at(chain.ops.len() as u32, "SelectMany");
                chain.ops.push(QuilOp::Trans {
                    param: f.param.clone(),
                    kind: TransKind::Nested(NestedTrans {
                        chain: Box::new(nested_chain),
                        wrap: None,
                    }),
                    in_ty,
                    out_ty,
                    span,
                });
                Ok(chain)
            }
            QueryExpr::Take { input, count } => {
                self.stateful_pred(input, env, PredKind::Take(*count), "it")
            }
            QueryExpr::Skip { input, count } => {
                self.stateful_pred(input, env, PredKind::Skip(*count), "it")
            }
            QueryExpr::TakeWhile { input, p } => {
                let body = self.expr_pred_body(p)?;
                self.stateful_pred(input, env, PredKind::TakeWhile(body), &p.param)
            }
            QueryExpr::SkipWhile { input, p } => {
                let body = self.expr_pred_body(p)?;
                self.stateful_pred(input, env, PredKind::SkipWhile(body), &p.param)
            }
            QueryExpr::GroupBy {
                input,
                key,
                elem,
                result,
            } => self.lower_group_by(input, key, elem.as_ref(), result.as_ref(), env),
            QueryExpr::OrderBy {
                input,
                key,
                descending,
            } => {
                let mut chain = self.input_chain(input, env)?;
                let elem_ty = chain.elem_ty();
                let key_body = match &key.body {
                    QBody::Expr(e) => e.clone(),
                    QBody::Query(_) => {
                        return Err(unsupported("OrderBy with a nested-query key selector"))
                    }
                };
                let _ = self.expr_ty_with(&key_body, env, &key.param, &elem_ty)?;
                let span = OpSpan::at(chain.ops.len() as u32, "OrderBy");
                chain.ops.push(QuilOp::Sink(SinkOp {
                    param: key.param.clone(),
                    kind: SinkKind::OrderBy {
                        key: key_body,
                        descending: *descending,
                    },
                    in_ty: elem_ty.clone(),
                    out_ty: elem_ty,
                    span,
                }));
                Ok(chain)
            }
            QueryExpr::Distinct { input } => {
                let mut chain = self.input_chain(input, env)?;
                let elem_ty = chain.elem_ty();
                let span = OpSpan::at(chain.ops.len() as u32, "Distinct");
                chain.ops.push(QuilOp::Sink(SinkOp {
                    param: "it".into(),
                    kind: SinkKind::Distinct,
                    in_ty: elem_ty.clone(),
                    out_ty: elem_ty,
                    span,
                }));
                Ok(chain)
            }
            QueryExpr::ToVec { input } => {
                let mut chain = self.input_chain(input, env)?;
                let elem_ty = chain.elem_ty();
                let span = OpSpan::at(chain.ops.len() as u32, "ToVec");
                chain.ops.push(QuilOp::Sink(SinkOp {
                    param: "it".into(),
                    kind: SinkKind::ToVec,
                    in_ty: elem_ty.clone(),
                    out_ty: elem_ty,
                    span,
                }));
                Ok(chain)
            }
            QueryExpr::Concat { .. } => Err(unsupported(
                "Concat is not in the QUIL operator classes; executed unoptimized",
            )),
            QueryExpr::Join { .. } => Err(unsupported(
                "Join must be canonicalized into its SelectMany form before \
                 lowering (QueryExpr::canonicalize / Query::build)",
            )),
            QueryExpr::Aggregate {
                input,
                seed,
                func,
                combine,
            } => {
                let mut chain = self.input_chain(input, env)?;
                let elem_ty = chain.elem_ty();
                let acc_ty = expr_ty(seed, env, self.udfs)?;
                // Verify the fold body type.
                let mut fenv = env.clone();
                fenv.bind(func.param0.clone(), acc_ty.clone());
                fenv.bind(func.param1.clone(), elem_ty.clone());
                let body_ty = expr_ty(&func.body, &fenv, self.udfs)?;
                if body_ty != acc_ty {
                    return Err(LowerError::Type(TypeError::Mismatch {
                        context: "Aggregate function".into(),
                        expected: acc_ty.to_string(),
                        found: body_ty,
                    }));
                }
                let combine_expr = combine.as_ref().map(|c| {
                    // Rename the combiner parameters onto the canonical
                    // (acc, rhs) names, avoiding capture with a temporary.
                    let tmp = subst(&c.body, &c.param0, &Expr::var("__combine_lhs"));
                    let tmp = subst(&tmp, &c.param1, &Expr::var(func.param0.clone() + "__rhs"));
                    subst(&tmp, "__combine_lhs", &Expr::var(func.param0.clone()))
                });
                chain.agg = Some(AggDesc {
                    kind: AggKind::Fold,
                    acc_ty: acc_ty.clone(),
                    out_ty: acc_ty,
                    elem_ty,
                    init: seed.clone(),
                    acc_param: func.param0.clone(),
                    elem_param: func.param1.clone(),
                    rhs_param: func.param0.clone() + "__rhs",
                    update: func.body.clone(),
                    finish: None,
                    combine: combine_expr,
                });
                Ok(chain)
            }
            QueryExpr::Agg { input, op, f } => {
                if f.is_some() {
                    return Err(unsupported(
                        "shorthand aggregate overloads must be canonicalized before lowering",
                    ));
                }
                let mut chain = self.input_chain(input, env)?;
                let elem_ty = chain.elem_ty();
                chain.agg = Some(builtin_agg(*op, &elem_ty)?);
                Ok(chain)
            }
        }
    }

    /// Lowers `input` and rejects chains that already ended in an
    /// aggregate (the grammar's "Agg may only appear as the penultimate
    /// symbol").
    fn input_chain(&self, input: &QueryExpr, env: &TyEnv) -> Result<QuilChain, LowerError> {
        let chain = self.lower_chain(input, env)?;
        if chain.is_scalar() {
            return Err(unsupported("operator applied after an aggregate"));
        }
        Ok(chain)
    }

    fn expr_pred_body(&self, p: &QFn) -> Result<Expr, LowerError> {
        match &p.body {
            QBody::Expr(e) => Ok(e.clone()),
            QBody::Query(_) => Err(unsupported(
                "TakeWhile/SkipWhile with nested-query predicates",
            )),
        }
    }

    fn stateful_pred(
        &self,
        input: &QueryExpr,
        env: &TyEnv,
        kind: PredKind,
        param: &str,
    ) -> Result<QuilChain, LowerError> {
        let mut chain = self.input_chain(input, env)?;
        let elem_ty = chain.elem_ty();
        if let PredKind::TakeWhile(e) | PredKind::SkipWhile(e) = &kind {
            let t = self.expr_ty_with(e, env, param, &elem_ty)?;
            if t != Ty::Bool {
                return Err(LowerError::Type(TypeError::Mismatch {
                    context: "While predicate".into(),
                    expected: "bool".into(),
                    found: t,
                }));
            }
        }
        let operator = match &kind {
            PredKind::Take(_) => "Take",
            PredKind::Skip(_) => "Skip",
            PredKind::TakeWhile(_) => "TakeWhile",
            PredKind::SkipWhile(_) => "SkipWhile",
            PredKind::Expr(_) | PredKind::Nested(_) => "Where",
        };
        let span = OpSpan::at(chain.ops.len() as u32, operator);
        chain.ops.push(QuilOp::Pred {
            param: param.to_string(),
            kind,
            elem_ty,
            span,
        });
        Ok(chain)
    }

    fn lower_group_by(
        &self,
        input: &QueryExpr,
        key: &QFn,
        elem: Option<&QFn>,
        result: Option<&GroupResult>,
        env: &TyEnv,
    ) -> Result<QuilChain, LowerError> {
        let mut chain = self.input_chain(input, env)?;
        let in_ty = chain.elem_ty();
        let key_body = match &key.body {
            QBody::Expr(e) => e.clone(),
            QBody::Query(_) => return Err(unsupported("GroupBy with a nested-query key selector")),
        };
        let key_ty = self.expr_ty_with(&key_body, env, &key.param, &in_ty)?;
        // Rename the element selector onto the key selector's parameter so
        // the sink has a single binder.
        let elem_body = match elem {
            None => None,
            Some(sel) => match &sel.body {
                QBody::Expr(e) => Some(subst(e, &sel.param, &Expr::var(key.param.clone()))),
                QBody::Query(_) => {
                    return Err(unsupported("GroupBy with a nested-query element selector"))
                }
            },
        };
        let val_ty = match &elem_body {
            None => in_ty.clone(),
            Some(e) => self.expr_ty_with(e, env, &key.param, &in_ty)?,
        };

        let Some(r) = result else {
            let out_ty = Ty::pair(key_ty.clone(), Ty::seq(val_ty.clone()));
            let span = OpSpan::at(chain.ops.len() as u32, "GroupBy");
            chain.ops.push(QuilOp::Sink(SinkOp {
                param: key.param.clone(),
                kind: SinkKind::GroupBy {
                    key: key_body,
                    elem: elem_body,
                    key_ty,
                    val_ty,
                },
                in_ty,
                out_ty,
                span,
            }));
            return Ok(chain);
        };

        // Lower the per-group aggregation query with the group in scope.
        let mut genv = env.clone();
        genv.bind(r.group_param.clone(), Ty::seq(val_ty.clone()));
        let gchain = self.lower_chain(&r.agg_query, &genv)?;
        if !gchain.is_scalar() {
            return Err(unsupported(
                "GroupBy result selector whose aggregation is not scalar-valued",
            ));
        }

        if self.opts.specialize_group_aggregate {
            if let Some(agg) = compose_group_aggregate(&gchain, &r.group_param) {
                // §4.3: store per-key partial aggregates instead of bags.
                let mut renv = env.clone();
                renv.bind(r.key_param.clone(), key_ty.clone());
                renv.bind(r.agg_param.clone(), agg.out_ty.clone());
                let out_ty = expr_ty(&r.result, &renv, self.udfs)?;
                let span = OpSpan::at(chain.ops.len() as u32, "GroupBy");
                chain.ops.push(QuilOp::Sink(SinkOp {
                    param: key.param.clone(),
                    kind: SinkKind::GroupByAggregate {
                        key: key_body,
                        elem: elem_body,
                        agg,
                        key_param: r.key_param.clone(),
                        agg_param: r.agg_param.clone(),
                        result: r.result.clone(),
                        key_ty,
                    },
                    in_ty,
                    out_ty,
                    span,
                }));
                return Ok(chain);
            }
        }

        // Fallback (specialization off, or unrecognized aggregation):
        // a plain GroupBy sink followed by a nested-query transform over
        // each (key, group) pair.
        let pair_param = format!("{}_kv", r.group_param);
        let pair_ty = Ty::pair(key_ty.clone(), Ty::seq(val_ty.clone()));
        let span = OpSpan::at(chain.ops.len() as u32, "GroupBy");
        chain.ops.push(QuilOp::Sink(SinkOp {
            param: key.param.clone(),
            kind: SinkKind::GroupBy {
                key: key_body,
                elem: elem_body,
                key_ty: key_ty.clone(),
                val_ty,
            },
            in_ty,
            out_ty: pair_ty.clone(),
            span,
        }));
        let group_ref = Expr::var(pair_param.clone()).field(1);
        let nested = subst_chain(&gchain, &r.group_param, &group_ref);
        let wrap_expr = subst(
            &r.result,
            &r.key_param,
            &Expr::var(pair_param.clone()).field(0),
        );
        let mut renv = env.clone();
        renv.bind(pair_param.clone(), pair_ty.clone());
        renv.bind(r.agg_param.clone(), nested.result_ty());
        let out_ty = expr_ty(&wrap_expr, &renv, self.udfs)?;
        let span = OpSpan::at(chain.ops.len() as u32, "GroupBy");
        chain.ops.push(QuilOp::Trans {
            param: pair_param,
            kind: TransKind::Nested(NestedTrans {
                chain: Box::new(nested),
                wrap: Some((r.agg_param.clone(), wrap_expr)),
            }),
            in_ty: pair_ty,
            out_ty,
            span,
        });
        Ok(chain)
    }
}

/// Attempts to compose a group-aggregation chain into a single fused
/// [`AggDesc`] suitable for the `GroupByAggregate` sink (§4.3).
///
/// The chain must iterate the group directly (`Src = group`), contain only
/// element-wise expression operators, and end in an aggregate. Transforms
/// are inlined into the aggregate's update expression; predicates become a
/// guard around it — the same fusion the code generator performs, applied
/// at the IR level.
pub fn compose_group_aggregate(gchain: &QuilChain, group_param: &str) -> Option<AggDesc> {
    compose_group_aggregate_over(gchain, &Expr::var(group_param))
}

/// As [`compose_group_aggregate`], but matching an arbitrary source
/// expression (e.g. `kv.1` after the fallback lowering).
pub fn compose_group_aggregate_over(gchain: &QuilChain, group_source: &Expr) -> Option<AggDesc> {
    match &gchain.src {
        SrcDesc::Expr { expr, .. } if expr == group_source => {}
        _ => return None,
    }
    let agg = gchain.agg.as_ref()?;
    let elem_name = "__gx";
    let mut cur = Expr::var(elem_name);
    let mut guards: Vec<Expr> = Vec::new();
    let mut elem_ty = gchain.src.elem_ty();
    for op in &gchain.ops {
        match op {
            QuilOp::Trans {
                param,
                kind: TransKind::Expr(e),
                out_ty,
                ..
            } => {
                cur = subst(e, param, &cur);
                elem_ty = out_ty.clone();
            }
            QuilOp::Pred {
                param,
                kind: PredKind::Expr(p),
                ..
            } => guards.push(subst(p, param, &cur)),
            _ => return None,
        }
    }
    let _ = elem_ty;
    let update = subst(&agg.update, &agg.elem_param, &cur);
    let update = match guards.into_iter().reduce(Expr::and) {
        None => update,
        Some(guard) => Expr::if_(guard, update, Expr::var(agg.acc_param.clone())),
    };
    Some(AggDesc {
        elem_param: elem_name.to_string(),
        update,
        elem_ty: gchain.src.elem_ty(),
        ..agg.clone()
    })
}

/// Builds the canonical fold for a built-in aggregate over `elem_ty`.
///
/// # Errors
///
/// Returns an error for unsupported element types (e.g. `First` over
/// non-scalar elements, `Sum` over booleans).
pub fn builtin_agg(op: AggOp, elem_ty: &Ty) -> Result<AggDesc, LowerError> {
    let acc = || Expr::var("acc");
    let x = || Expr::var("x");
    let rhs = || Expr::var("rhs");
    let numeric = |context: &str| -> Result<(), LowerError> {
        if elem_ty.is_numeric() {
            Ok(())
        } else {
            Err(LowerError::Type(TypeError::Mismatch {
                context: context.into(),
                expected: "numeric element".into(),
                found: elem_ty.clone(),
            }))
        }
    };
    let zero = || {
        if *elem_ty == Ty::I64 {
            Expr::liti(0)
        } else {
            Expr::litf(0.0)
        }
    };
    let base = |kind, acc_ty: Ty, out_ty: Ty, init, update, finish, combine| AggDesc {
        kind,
        acc_ty,
        out_ty,
        elem_ty: elem_ty.clone(),
        init,
        acc_param: "acc".into(),
        elem_param: "x".into(),
        rhs_param: "rhs".into(),
        update,
        finish,
        combine,
    };
    match op {
        AggOp::Sum => {
            numeric("Sum")?;
            Ok(base(
                AggKind::Sum,
                elem_ty.clone(),
                elem_ty.clone(),
                zero(),
                acc() + x(),
                None,
                Some(acc() + rhs()),
            ))
        }
        AggOp::Count => Ok(base(
            AggKind::Count,
            Ty::I64,
            Ty::I64,
            Expr::liti(0),
            acc() + Expr::liti(1),
            None,
            Some(acc() + rhs()),
        )),
        AggOp::Min => {
            numeric("Min")?;
            let init = if *elem_ty == Ty::I64 {
                Expr::liti(i64::MAX)
            } else {
                Expr::litf(f64::INFINITY)
            };
            Ok(base(
                AggKind::Min,
                elem_ty.clone(),
                elem_ty.clone(),
                init,
                acc().min(x()),
                None,
                Some(acc().min(rhs())),
            ))
        }
        AggOp::Max => {
            numeric("Max")?;
            let init = if *elem_ty == Ty::I64 {
                Expr::liti(i64::MIN)
            } else {
                Expr::litf(f64::NEG_INFINITY)
            };
            Ok(base(
                AggKind::Max,
                elem_ty.clone(),
                elem_ty.clone(),
                init,
                acc().max(x()),
                None,
                Some(acc().max(rhs())),
            ))
        }
        AggOp::Average => {
            numeric("Average")?;
            let xf = if *elem_ty == Ty::I64 {
                x().cast(Ty::F64)
            } else {
                x()
            };
            // acc = (sum, count)
            Ok(base(
                AggKind::Average,
                Ty::pair(Ty::F64, Ty::I64),
                Ty::F64,
                Expr::mk_pair(Expr::litf(0.0), Expr::liti(0)),
                Expr::mk_pair(acc().field(0) + xf, acc().field(1) + Expr::liti(1)),
                Some(acc().field(0) / acc().field(1).cast(Ty::F64)),
                Some(Expr::mk_pair(
                    acc().field(0) + rhs().field(0),
                    acc().field(1) + rhs().field(1),
                )),
            ))
        }
        AggOp::Any => Ok(base(
            AggKind::Any,
            Ty::Bool,
            Ty::Bool,
            Expr::litb(false),
            Expr::litb(true),
            None,
            Some(acc().or(rhs())),
        )),
        AggOp::All => {
            if *elem_ty != Ty::Bool {
                return Err(LowerError::Type(TypeError::Mismatch {
                    context: "All".into(),
                    expected: "bool element".into(),
                    found: elem_ty.clone(),
                }));
            }
            Ok(base(
                AggKind::All,
                Ty::Bool,
                Ty::Bool,
                Expr::litb(true),
                acc().and(x()),
                None,
                Some(acc().and(rhs())),
            ))
        }
        AggOp::First => {
            let default = match elem_ty {
                Ty::F64 => Expr::litf(0.0),
                Ty::I64 => Expr::liti(0),
                Ty::Bool => Expr::litb(false),
                other => {
                    return Err(unsupported(format!(
                        "FirstOrDefault over non-scalar elements ({other})"
                    )))
                }
            };
            // acc = (taken, value)
            Ok(base(
                AggKind::First,
                Ty::pair(Ty::Bool, elem_ty.clone()),
                elem_ty.clone(),
                Expr::mk_pair(Expr::litb(false), default),
                Expr::if_(
                    acc().field(0),
                    acc(),
                    Expr::mk_pair(Expr::litb(true), x()),
                ),
                Some(acc().field(1)),
                Some(Expr::if_(acc().field(0), acc(), rhs())),
            ))
        }
    }
}

/// Lowers a canonicalized query to a QUIL chain with default options.
///
/// # Errors
///
/// See [`LowerError`].
pub fn lower(
    q: &QueryExpr,
    sources: &SourceTypes,
    udfs: &UdfRegistry,
) -> Result<QuilChain, LowerError> {
    lower_with(q, sources, &TyEnv::new(), udfs, LowerOptions::default())
}

/// Lowers a canonicalized query with explicit outer scope and options.
///
/// The resulting chain is guaranteed to satisfy the QUIL grammar (checked
/// with the pushdown recognizer of §5.1).
///
/// # Errors
///
/// See [`LowerError`].
pub fn lower_with(
    q: &QueryExpr,
    sources: &SourceTypes,
    env: &TyEnv,
    udfs: &UdfRegistry,
    opts: LowerOptions,
) -> Result<QuilChain, LowerError> {
    let lowerer = Lowerer {
        sources,
        udfs,
        opts,
    };
    let chain = lowerer.lower_chain(q, env)?;
    debug_assert!(
        Pda::accepts(&chain.tokens()),
        "lowering produced an invalid QUIL sentence: {chain}"
    );
    Ok(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::QuilSym;
    use steno_query::Query;

    fn srcs() -> SourceTypes {
        SourceTypes::new()
            .with("xs", Ty::F64)
            .with("ns", Ty::I64)
            .with("ys", Ty::F64)
    }

    fn lower_q(q: &QueryExpr) -> QuilChain {
        lower(q, &srcs(), &UdfRegistry::new()).unwrap()
    }

    #[test]
    fn sum_of_squares_lowers_to_src_trans_agg_ret() {
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let chain = lower_q(&q);
        assert_eq!(
            chain.symbols(),
            vec![QuilSym::Src, QuilSym::Trans, QuilSym::Agg, QuilSym::Ret]
        );
        let agg = chain.agg.as_ref().unwrap();
        assert_eq!(agg.kind, AggKind::Sum);
        assert!(agg.is_associative());
        assert_eq!(chain.result_ty(), Ty::F64);
    }

    #[test]
    fn where_lowered_as_pred_with_type() {
        let q = Query::source("ns")
            .where_((Expr::var("x") % Expr::liti(2)).eq(Expr::liti(0)), "x")
            .build();
        let chain = lower_q(&q);
        match &chain.ops[0] {
            QuilOp::Pred {
                kind: PredKind::Expr(_),
                elem_ty,
                ..
            } => assert_eq!(*elem_ty, Ty::I64),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_select_many_lowers_to_nested_trans() {
        let q = Query::source("xs")
            .select_many(
                Query::source("ys").select(Expr::var("x") * Expr::var("y"), "y"),
                "x",
            )
            .sum()
            .build();
        let chain = lower_q(&q);
        assert_eq!(chain.depth(), 2);
        match &chain.ops[0] {
            QuilOp::Trans {
                kind: TransKind::Nested(n),
                ..
            } => {
                assert!(!n.chain.is_scalar(), "SelectMany chain yields elements");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Pda::accepts(&chain.tokens()));
    }

    #[test]
    fn select_with_scalar_nested_query() {
        let q = Query::source("xs")
            .select_query(
                Query::source("ys")
                    .select(Expr::var("x") - Expr::var("y"), "y")
                    .min(),
                "x",
            )
            .build();
        let chain = lower_q(&q);
        match &chain.ops[0] {
            QuilOp::Trans {
                kind: TransKind::Nested(n),
                out_ty,
                ..
            } => {
                assert!(n.chain.is_scalar());
                assert_eq!(*out_ty, Ty::F64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_with_sequence_nested_query_is_rejected() {
        let q = Query::source("xs")
            .select_query(Query::source("ys").take(2), "x")
            .build();
        assert!(matches!(
            lower(&q, &srcs(), &UdfRegistry::new()),
            Err(LowerError::Unsupported(_))
        ));
    }

    #[test]
    fn take_skip_are_stateful_predicates() {
        let q = Query::source("xs").skip(2).take(3).build();
        let chain = lower_q(&q);
        assert!(matches!(
            chain.ops[0],
            QuilOp::Pred {
                kind: PredKind::Skip(2),
                ..
            }
        ));
        assert!(matches!(
            chain.ops[1],
            QuilOp::Pred {
                kind: PredKind::Take(3),
                ..
            }
        ));
        assert!(!chain.ops[0].is_homomorphic());
    }

    #[test]
    fn group_by_with_aggregating_result_specializes() {
        // ns.GroupBy(x % 3, (k, g) => (k, g.Sum()))
        let q = Query::source("ns")
            .group_by_result(
                Expr::var("x") % Expr::liti(3),
                "x",
                GroupResult::keyed("k", "g", Query::over(Expr::var("g")).sum().build()),
            )
            .build();
        let chain = lower_q(&q);
        assert_eq!(chain.ops.len(), 1);
        match &chain.ops[0] {
            QuilOp::Sink(s) => match &s.kind {
                SinkKind::GroupByAggregate { agg, key_ty, .. } => {
                    assert_eq!(agg.kind, AggKind::Sum);
                    assert_eq!(*key_ty, Ty::I64);
                    assert_eq!(s.out_ty, Ty::pair(Ty::I64, Ty::I64));
                }
                other => panic!("expected GroupByAggregate, got {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_by_specialization_fuses_inner_transforms() {
        // g.Select(v => v * v).Where(v > 0).Sum() fuses into the update.
        let inner = Query::over(Expr::var("g"))
            .select(Expr::var("v") * Expr::var("v"), "v")
            .where_(Expr::var("w").gt(Expr::liti(0)), "w")
            .sum()
            .build();
        let q = Query::source("ns")
            .group_by_result(
                Expr::var("x") % Expr::liti(3),
                "x",
                GroupResult::keyed("k", "g", inner),
            )
            .build();
        let chain = lower_q(&q);
        match &chain.ops[0] {
            QuilOp::Sink(s) => match &s.kind {
                SinkKind::GroupByAggregate { agg, .. } => {
                    let u = agg.update.to_string();
                    assert!(u.contains("if"), "predicate guard expected: {u}");
                    assert!(u.contains("(__gx * __gx)"), "transform inlined: {u}");
                }
                other => panic!("expected GroupByAggregate, got {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_by_specialization_can_be_disabled() {
        let q = Query::source("ns")
            .group_by_result(
                Expr::var("x") % Expr::liti(3),
                "x",
                GroupResult::keyed("k", "g", Query::over(Expr::var("g")).sum().build()),
            )
            .build();
        let opts = LowerOptions {
            specialize_group_aggregate: false,
        };
        let chain = lower_with(&q, &srcs(), &TyEnv::new(), &UdfRegistry::new(), opts).unwrap();
        // Fallback plan: GroupBy sink + nested transform over the pairs.
        assert_eq!(chain.ops.len(), 2);
        assert!(matches!(
            &chain.ops[0],
            QuilOp::Sink(SinkOp {
                kind: SinkKind::GroupBy { .. },
                ..
            })
        ));
        match &chain.ops[1] {
            QuilOp::Trans {
                kind: TransKind::Nested(n),
                ..
            } => {
                assert!(n.chain.is_scalar());
                assert!(n.wrap.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn builtin_aggregates_have_expected_shapes() {
        let sum = builtin_agg(AggOp::Sum, &Ty::F64).unwrap();
        assert_eq!(sum.init.to_string(), "0.0");
        assert!(sum.finish.is_none());
        let avg = builtin_agg(AggOp::Average, &Ty::I64).unwrap();
        assert_eq!(avg.acc_ty, Ty::pair(Ty::F64, Ty::I64));
        assert!(avg.finish.is_some());
        assert!(avg.is_associative());
        let first = builtin_agg(AggOp::First, &Ty::I64).unwrap();
        assert_eq!(first.acc_ty, Ty::pair(Ty::Bool, Ty::I64));
        assert!(builtin_agg(AggOp::Sum, &Ty::Bool).is_err());
        assert!(builtin_agg(AggOp::First, &Ty::Row).is_err());
        assert!(builtin_agg(AggOp::All, &Ty::I64).is_err());
    }

    #[test]
    fn concat_is_unsupported() {
        let q = Query::source("xs").concat(Query::source("ys")).build();
        assert!(matches!(
            lower(&q, &srcs(), &UdfRegistry::new()),
            Err(LowerError::Unsupported(_))
        ));
    }

    #[test]
    fn user_aggregate_with_combiner() {
        let q = Query::source("ns")
            .aggregate_assoc(
                Expr::liti(0),
                "a",
                "x",
                Expr::var("a") + Expr::var("x"),
                steno_query::QFn2::new("p", "q", Expr::var("p") + Expr::var("q")),
            )
            .build();
        let chain = lower_q(&q);
        let agg = chain.agg.as_ref().unwrap();
        assert_eq!(agg.kind, AggKind::Fold);
        assert_eq!(
            agg.combine.as_ref().unwrap().to_string(),
            "(a + a__rhs)"
        );
    }

    #[test]
    fn orderby_distinct_tovec_are_sinks() {
        let q = Query::source("xs")
            .distinct()
            .order_by(Expr::var("x"), "x")
            .to_vec()
            .build();
        let chain = lower_q(&q);
        assert_eq!(
            chain.symbols(),
            vec![
                QuilSym::Src,
                QuilSym::Sink,
                QuilSym::Sink,
                QuilSym::Sink,
                QuilSym::Ret
            ]
        );
    }

    #[test]
    fn group_having_pattern() {
        // GROUP BY ... HAVING (§4.2): GroupBy then Where on the groups.
        let q = Query::source("ns")
            .group_by(Expr::var("x") % Expr::liti(3), "x")
            .where_(Expr::var("kv").field(0).gt(Expr::liti(0)), "kv")
            .build();
        let chain = lower_q(&q);
        assert_eq!(
            chain.symbols(),
            vec![QuilSym::Src, QuilSym::Sink, QuilSym::Pred, QuilSym::Ret]
        );
    }
}
