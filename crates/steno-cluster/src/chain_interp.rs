//! The unoptimized vertex executor: a QUIL chain run through boxed
//! iterator state machines with per-element expression interpretation.
//!
//! This executes *exactly the same plan* as the Steno-compiled vertex —
//! including partial grouped aggregation — but through the lazy iterator
//! machinery of `steno-linq`, paying the virtual-call and interpretation
//! overheads that Steno eliminates. It is the "unoptimized" bar in the
//! distributed k-means experiment (Fig. 14).
//!
//! Environments are threaded through the iterator closures as a shared
//! cell with bind/restore bracketing (a stack discipline), rather than
//! cloned per element — the interpreter models the *iterator* overheads
//! under study, not accidental allocation.
//!
//! # Error discipline
//!
//! Data-dependent failures (division by zero, shape mismatches, unknown
//! UDFs) are *propagated as [`EvalError`]s*, never panics: the
//! fault-tolerant scheduler classifies engine errors as deterministic
//! (§6's contract — a re-executed vertex must fail identically), and that
//! only works if this engine reports failures the same structured way
//! `steno-vm` does. Because `steno_linq` iterator closures cannot return
//! `Result`, errors inside a pull are recorded in a shared first-error
//! cell (`Scope`) and surfaced when the chain's driver loop finishes;
//! closures yield inert placeholder values after a failure so the
//! remaining pulls are cheap and side-effect free.

use std::cell::RefCell;
use std::rc::Rc;

use steno_expr::eval::{eval, Env};
use steno_expr::{DataContext, EvalError, Expr, UdfRegistry, Value};
use steno_linq::Enumerable;
use steno_quil::ir::{AggDesc, PredKind, QuilChain, QuilOp, SinkKind, SrcDesc, TransKind};

/// The shared evaluation state threaded through iterator closures: the
/// variable environment plus a first-error cell.
#[derive(Clone)]
struct Scope {
    env: Rc<RefCell<Env>>,
    err: Rc<RefCell<Option<EvalError>>>,
}

impl Scope {
    fn new(env: Env) -> Scope {
        Scope {
            env: Rc::new(RefCell::new(env)),
            err: Rc::new(RefCell::new(None)),
        }
    }

    /// Records `e` unless an earlier failure already holds the cell.
    fn fail(&self, e: EvalError) {
        let mut slot = self.err.borrow_mut();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// `true` once any closure has failed.
    fn failed(&self) -> bool {
        self.err.borrow().is_some()
    }

    /// Surfaces the recorded failure, if any.
    fn check(&self) -> Result<(), EvalError> {
        match &*self.err.borrow() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

/// The inert value closures yield after a failure has been recorded; it
/// is never observable (the driver loop surfaces the error instead).
fn placeholder() -> Value {
    Value::I64(0)
}

/// Applies an aggregate's finish projection.
///
/// # Errors
///
/// Propagates evaluation failures of the finish expression.
pub fn finish_agg(agg: &AggDesc, acc: Value, udfs: &UdfRegistry) -> Result<Value, EvalError> {
    match &agg.finish {
        None => Ok(acc),
        Some(f) => {
            let env = Env::new().with(agg.acc_param.clone(), acc);
            eval(f, &env, udfs)
        }
    }
}

/// Combines two partial accumulators with the aggregate's combiner.
///
/// # Errors
///
/// Returns [`EvalError::TypeMismatch`] if the aggregate declares no
/// combiner (callers normally check [`AggDesc::is_associative`] first),
/// and propagates evaluation failures of the combiner body.
pub fn combine_agg(
    agg: &AggDesc,
    a: Value,
    b: Value,
    udfs: &UdfRegistry,
) -> Result<Value, EvalError> {
    let combine = agg.combine.as_ref().ok_or_else(|| {
        EvalError::TypeMismatch("aggregate has no combiner for partial merge".into())
    })?;
    let env = Env::new()
        .with(agg.acc_param.clone(), a)
        .with(agg.rhs_param.clone(), b);
    eval(combine, &env, udfs)
}

fn value_to_enumerable(v: Value) -> Result<Enumerable<Value>, EvalError> {
    match v {
        Value::Seq(s) => Ok(Enumerable::from_vec(s.as_ref().clone())),
        Value::Row(r) => Ok(Enumerable::from_vec(
            r.iter().map(|x| Value::F64(*x)).collect(),
        )),
        other => Err(EvalError::TypeMismatch(format!(
            "expected a sequence-shaped value, found {other}"
        ))),
    }
}

/// Evaluates `body` with `param` bound to `arg`, restoring any shadowed
/// binding afterwards. On failure, records the error in `scope` and
/// yields a placeholder.
fn eval_with(body: &Expr, param: &str, arg: Value, scope: &Scope, udfs: &UdfRegistry) -> Value {
    if scope.failed() {
        return placeholder();
    }
    let mut e = scope.env.borrow_mut();
    let shadowed = e.bind_shadowing(param, arg);
    let out = eval(body, &e, udfs);
    e.restore(param, shadowed);
    drop(e);
    match out {
        Ok(v) => v,
        Err(err) => {
            scope.fail(err);
            placeholder()
        }
    }
}

/// As [`eval_with`] for predicate positions: a failure (or a non-boolean
/// result) is recorded and reads as `false`, so the stream drains without
/// further evaluation.
fn eval_bool_with(
    body: &Expr,
    param: &str,
    arg: Value,
    scope: &Scope,
    udfs: &UdfRegistry,
) -> bool {
    if scope.failed() {
        return false;
    }
    match eval_with(body, param, arg, scope, udfs).as_bool() {
        Some(b) => !scope.failed() && b,
        None => {
            scope.fail(EvalError::TypeMismatch(
                "predicate must yield a boolean".into(),
            ));
            false
        }
    }
}

fn src_enumerable(
    src: &SrcDesc,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    scope: &Scope,
) -> Result<Enumerable<Value>, EvalError> {
    match src {
        SrcDesc::Collection { name, .. } => {
            let col = ctx
                .source(name)
                .ok_or_else(|| EvalError::UnboundVariable(format!("source `{name}`")))?;
            Ok(Enumerable::from_vec(col.to_values()))
        }
        SrcDesc::Range { start, count } => Ok(Enumerable::range(*start, *count).select(Value::I64)),
        SrcDesc::Repeat { value, count } => Ok(Enumerable::repeat(value.clone(), *count)),
        SrcDesc::Expr { expr, .. } => {
            let v = eval(expr, &scope.env.borrow(), udfs)?;
            value_to_enumerable(v)
        }
    }
}

fn chain_enumerable(
    chain: &QuilChain,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    scope: &Scope,
) -> Result<Enumerable<Value>, EvalError> {
    let mut e = src_enumerable(&chain.src, ctx, udfs, scope)?;
    for op in &chain.ops {
        e = apply_op(e, op, ctx, udfs, scope);
    }
    Ok(e)
}

fn apply_op(
    input: Enumerable<Value>,
    op: &QuilOp,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    scope: &Scope,
) -> Enumerable<Value> {
    let ctx = ctx.clone();
    let udfs = udfs.clone();
    let scope = scope.clone();
    match op {
        QuilOp::Trans { param, kind, .. } => match kind.clone() {
            TransKind::Expr(body) => {
                let param = param.clone();
                input.select(move |v| eval_with(&body, &param, v, &scope, &udfs))
            }
            TransKind::Nested(nested) => {
                let param = param.clone();
                if nested.chain.is_scalar() {
                    // One scalar per element, optionally wrapped.
                    input.select(move |v| {
                        if scope.failed() {
                            return placeholder();
                        }
                        let shadowed = scope.env.borrow_mut().bind_shadowing(&param, v);
                        let agg = match execute_chain_cell(&nested.chain, &ctx, &udfs, &scope) {
                            Ok(agg) => agg,
                            Err(e) => {
                                scope.fail(e);
                                placeholder()
                            }
                        };
                        let out = match &nested.wrap {
                            None => agg,
                            Some((p, w)) => eval_with(w, p, agg, &scope, &udfs),
                        };
                        scope.env.borrow_mut().restore(&param, shadowed);
                        out
                    })
                } else {
                    // Splice (SelectMany). The binding must stay live
                    // while the inner enumerator is pulled; the select
                    // over the (eagerly materialized) inner results makes
                    // the bracketing safe.
                    input.select_many(move |v| {
                        if scope.failed() {
                            return Enumerable::from_vec(Vec::new());
                        }
                        let shadowed = scope.env.borrow_mut().bind_shadowing(&param, v);
                        let items = match chain_enumerable(&nested.chain, &ctx, &udfs, &scope) {
                            Ok(inner) => {
                                let items = inner.to_vec();
                                if scope.failed() {
                                    Vec::new()
                                } else {
                                    items
                                }
                            }
                            Err(e) => {
                                scope.fail(e);
                                Vec::new()
                            }
                        };
                        scope.env.borrow_mut().restore(&param, shadowed);
                        Enumerable::from_vec(items)
                    })
                }
            }
        },
        QuilOp::Pred { param, kind, .. } => match kind.clone() {
            PredKind::Expr(body) => {
                let param = param.clone();
                input.where_(move |v| eval_bool_with(&body, &param, v.clone(), &scope, &udfs))
            }
            PredKind::Nested(chain) => {
                let param = param.clone();
                input.where_(move |v| {
                    if scope.failed() {
                        return false;
                    }
                    let shadowed = scope.env.borrow_mut().bind_shadowing(&param, v.clone());
                    let out = match execute_chain_cell(&chain, &ctx, &udfs, &scope) {
                        Ok(v) => match v.as_bool() {
                            Some(b) => b,
                            None => {
                                scope.fail(EvalError::TypeMismatch(
                                    "nested predicate must yield a boolean".into(),
                                ));
                                false
                            }
                        },
                        Err(e) => {
                            scope.fail(e);
                            false
                        }
                    };
                    scope.env.borrow_mut().restore(&param, shadowed);
                    out
                })
            }
            PredKind::Take(n) => input.take(n),
            PredKind::Skip(n) => input.skip(n),
            PredKind::TakeWhile(body) => {
                let param = param.clone();
                input.take_while(move |v| eval_bool_with(&body, &param, v.clone(), &scope, &udfs))
            }
            PredKind::SkipWhile(body) => {
                let param = param.clone();
                // On failure the element reads as "keep from here": the
                // stream continues draining cheaply (every later eval is
                // short-circuited) and the recorded error surfaces at the
                // driver loop.
                input.skip_while(move |v| eval_bool_with(&body, &param, v.clone(), &scope, &udfs))
            }
        },
        QuilOp::Sink(sink) => {
            let sink = sink.clone();
            match sink.kind.clone() {
                SinkKind::GroupBy { key, elem, .. } => {
                    let param = sink.param.clone();
                    Enumerable::new(move || {
                        let mut index = std::collections::HashMap::new();
                        let mut groups: Vec<(Value, Vec<Value>)> = Vec::new();
                        let mut it = input.get_enumerator();
                        while it.move_next() {
                            if scope.failed() {
                                break;
                            }
                            let item = it.current();
                            let k = eval_with(&key, &param, item.clone(), &scope, &udfs);
                            let v = match &elem {
                                Some(sel) => eval_with(sel, &param, item, &scope, &udfs),
                                None => item,
                            };
                            let slot = *index.entry(k.key()).or_insert_with(|| {
                                groups.push((k, Vec::new()));
                                groups.len() - 1
                            });
                            groups[slot].1.push(v);
                        }
                        let pairs: Vec<Value> = groups
                            .into_iter()
                            .map(|(k, vs)| Value::pair(k, Value::seq(vs)))
                            .collect();
                        Enumerable::from_vec(pairs).get_enumerator()
                    })
                }
                SinkKind::GroupByAggregate {
                    key,
                    elem,
                    agg,
                    key_param,
                    agg_param,
                    result,
                    ..
                } => {
                    let param = sink.param.clone();
                    Enumerable::new(move || {
                        let init = match eval(&agg.init, &scope.env.borrow(), &udfs) {
                            Ok(v) => v,
                            Err(e) => {
                                scope.fail(e);
                                placeholder()
                            }
                        };
                        let mut index = std::collections::HashMap::new();
                        let mut entries: Vec<(Value, Value)> = Vec::new();
                        let mut it = input.get_enumerator();
                        while it.move_next() {
                            if scope.failed() {
                                break;
                            }
                            let item = it.current();
                            let k = eval_with(&key, &param, item.clone(), &scope, &udfs);
                            let v = match &elem {
                                Some(sel) => eval_with(sel, &param, item, &scope, &udfs),
                                None => item,
                            };
                            let slot = *index.entry(k.key()).or_insert_with(|| {
                                entries.push((k, init.clone()));
                                entries.len() - 1
                            });
                            // acc' = update(acc, v)
                            let mut e = scope.env.borrow_mut();
                            let s1 = e.bind_shadowing(&agg.acc_param, entries[slot].1.clone());
                            let s2 = e.bind_shadowing(&agg.elem_param, v);
                            let next = eval(&agg.update, &e, &udfs);
                            e.restore(&agg.elem_param, s2);
                            e.restore(&agg.acc_param, s1);
                            drop(e);
                            match next {
                                Ok(v) => entries[slot].1 = v,
                                Err(err) => {
                                    scope.fail(err);
                                    break;
                                }
                            }
                        }
                        let out: Vec<Value> = entries
                            .into_iter()
                            .map(|(k, acc)| {
                                if scope.failed() {
                                    return placeholder();
                                }
                                let fin = match finish_agg(&agg, acc, &udfs) {
                                    Ok(v) => v,
                                    Err(e) => {
                                        scope.fail(e);
                                        placeholder()
                                    }
                                };
                                let mut e = scope.env.borrow_mut();
                                let s1 = e.bind_shadowing(&key_param, k);
                                let s2 = e.bind_shadowing(&agg_param, fin);
                                let r = eval(&result, &e, &udfs);
                                e.restore(&agg_param, s2);
                                e.restore(&key_param, s1);
                                drop(e);
                                match r {
                                    Ok(v) => v,
                                    Err(err) => {
                                        scope.fail(err);
                                        placeholder()
                                    }
                                }
                            })
                            .collect();
                        Enumerable::from_vec(out).get_enumerator()
                    })
                }
                SinkKind::OrderBy { key, descending } => {
                    let param = sink.param.clone();
                    Enumerable::new(move || {
                        let mut decorated: Vec<(Value, Value)> = Vec::new();
                        let mut it = input.get_enumerator();
                        while it.move_next() {
                            if scope.failed() {
                                break;
                            }
                            let item = it.current();
                            decorated.push((
                                eval_with(&key, &param, item.clone(), &scope, &udfs),
                                item,
                            ));
                        }
                        decorated.sort_by(|(a, _), (b, _)| {
                            let ord = a.cmp_total(b);
                            if descending {
                                ord.reverse()
                            } else {
                                ord
                            }
                        });
                        let items: Vec<Value> =
                            decorated.into_iter().map(|(_, v)| v).collect();
                        Enumerable::from_vec(items).get_enumerator()
                    })
                }
                SinkKind::Distinct => input.distinct_by(|v| v.key()),
                SinkKind::ToVec => {
                    let materialized = input.to_vec();
                    Enumerable::from_vec(materialized)
                }
            }
        }
    }
}

fn execute_chain_cell(
    chain: &QuilChain,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    scope: &Scope,
) -> Result<Value, EvalError> {
    let stream = chain_enumerable(chain, ctx, udfs, scope)?;
    match &chain.agg {
        None => {
            let items = stream.to_vec();
            scope.check()?;
            Ok(Value::seq(items))
        }
        Some(agg) => {
            let mut acc = eval(&agg.init, &scope.env.borrow(), udfs)?;
            let mut it = stream.get_enumerator();
            while it.move_next() {
                scope.check()?;
                let item = it.current();
                let mut e = scope.env.borrow_mut();
                let s1 = e.bind_shadowing(&agg.acc_param, acc);
                let s2 = e.bind_shadowing(&agg.elem_param, item);
                let next = eval(&agg.update, &e, udfs);
                e.restore(&agg.elem_param, s2);
                e.restore(&agg.acc_param, s1);
                drop(e);
                acc = next?;
            }
            scope.check()?;
            finish_agg(agg, acc, udfs)
        }
    }
}

/// Executes a QUIL chain through iterator state machines, with an
/// enclosing scope (nested chains reference outer variables).
///
/// # Errors
///
/// Returns a structured [`EvalError`] for unresolvable sources *and* for
/// data-dependent failures (division by zero, shape mismatches, unknown
/// UDFs) — never panics, so the distributed runtime can classify engine
/// errors as deterministic.
pub fn execute_chain_in(
    chain: &QuilChain,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    env: &Env,
) -> Result<Value, EvalError> {
    let scope = Scope::new(env.clone());
    execute_chain_cell(chain, ctx, udfs, &scope)
}

/// Executes a QUIL chain with an empty enclosing scope.
///
/// # Errors
///
/// As [`execute_chain_in`].
pub fn execute_chain(
    chain: &QuilChain,
    ctx: &DataContext,
    udfs: &UdfRegistry,
) -> Result<Value, EvalError> {
    execute_chain_in(chain, ctx, udfs, &Env::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::{Expr, Ty};
    use steno_linq::interp;
    use steno_query::{GroupResult, Query};
    use steno_quil::lower;

    fn ctx() -> DataContext {
        DataContext::new()
            .with_source("xs", vec![1.0, -2.0, 3.0, 4.5])
            .with_source("ns", vec![5i64, 2, 7, 2, 9])
    }

    /// chain-interp == AST interp for a set of plans.
    #[track_caller]
    fn check(q: steno_query::QueryExpr) {
        let c = ctx();
        let udfs = UdfRegistry::new();
        let chain = lower(&q, &(&c).into(), &udfs).unwrap();
        let via_chain = execute_chain(&chain, &c, &udfs).unwrap();
        let via_ast = interp::execute(&q, &c, &udfs).unwrap();
        assert_eq!(via_chain.key(), via_ast.key(), "query {q}");
    }

    #[test]
    fn matches_ast_interpreter() {
        use steno_expr::Expr;
        let x = || Expr::var("x");
        check(Query::source("xs").select(x() * x(), "x").sum().build());
        check(
            Query::source("ns")
                .where_((x() % Expr::liti(2)).eq(Expr::liti(0)), "x")
                .build(),
        );
        check(Query::source("xs").take(2).min().build());
        check(
            Query::source("ns")
                .group_by_result(
                    x() % Expr::liti(3),
                    "x",
                    GroupResult::keyed("k", "g", Query::over(Expr::var("g")).sum().build()),
                )
                .build(),
        );
        check(
            Query::source("xs")
                .select_many(
                    Query::source("xs").select(Expr::var("y") * x(), "y"),
                    "x",
                )
                .sum()
                .build(),
        );
        check(Query::source("xs").order_by(x(), "x").build());
        check(Query::source("ns").distinct().count().build());
        // Same parameter name reused across nesting levels: the
        // bind/restore stack discipline must keep them straight.
        check(
            Query::source("xs")
                .select_many(
                    Query::source("xs").select(Expr::var("x") + Expr::litf(1.0), "x"),
                    "x",
                )
                .sum()
                .build(),
        );
    }

    #[test]
    fn combine_and_finish_helpers() {
        let udfs = UdfRegistry::new();
        let agg = steno_quil::lower::builtin_agg(steno_query::AggOp::Average, &Ty::F64).unwrap();
        // Two partials: (sum, count) = (6, 2) and (4, 2).
        let a = Value::pair(Value::F64(6.0), Value::I64(2));
        let b = Value::pair(Value::F64(4.0), Value::I64(2));
        let merged = combine_agg(&agg, a, b, &udfs).unwrap();
        let fin = finish_agg(&agg, merged, &udfs).unwrap();
        assert_eq!(fin, Value::F64(2.5));
    }

    #[test]
    fn combine_without_combiner_errors_instead_of_panicking() {
        let udfs = UdfRegistry::new();
        // A user fold without a declared combiner is non-associative.
        let c = ctx();
        let q = Query::source("ns")
            .aggregate(Expr::liti(1), "a", "v", Expr::var("a") * Expr::var("v"))
            .build();
        let chain = lower(&q, &(&c).into(), &udfs).unwrap();
        let agg = chain.agg.expect("fold aggregates");
        assert!(!agg.is_associative());
        let err = combine_agg(&agg, Value::F64(1.0), Value::F64(2.0), &udfs).unwrap_err();
        assert!(matches!(err, EvalError::TypeMismatch(_)));
    }

    #[test]
    fn division_by_zero_is_an_error_not_a_panic() {
        let c = ctx();
        let udfs = UdfRegistry::new();
        // 100 / x over ns hits x == 2? no — force a zero divisor.
        let q = Query::source("ns")
            .select(Expr::liti(100) / (Expr::var("x") - Expr::liti(2)), "x")
            .sum()
            .build();
        let chain = lower(&q, &(&c).into(), &udfs).unwrap();
        let err = execute_chain(&chain, &c, &udfs).unwrap_err();
        assert_eq!(err, EvalError::DivisionByZero);
        // Byte-identical to the single-node VM's message for the same data.
        assert_eq!(err.to_string(), "integer division by zero");
    }

    #[test]
    fn failing_predicate_surfaces_first_error() {
        let c = ctx();
        let udfs = UdfRegistry::new();
        let q = Query::source("ns")
            .where_(
                (Expr::liti(7) % (Expr::var("x") - Expr::liti(2))).eq(Expr::liti(1)),
                "x",
            )
            .count()
            .build();
        let chain = lower(&q, &(&c).into(), &udfs).unwrap();
        let err = execute_chain(&chain, &c, &udfs).unwrap_err();
        assert_eq!(err, EvalError::DivisionByZero);
    }

    #[test]
    fn grouped_aggregate_errors_propagate() {
        let c = ctx();
        let udfs = UdfRegistry::new();
        let q = Query::source("ns")
            .group_by_result(
                Expr::liti(10) / (Expr::var("x") - Expr::liti(2)),
                "x",
                GroupResult::keyed("k", "g", Query::over(Expr::var("g")).count().build()),
            )
            .build();
        let chain = lower(&q, &(&c).into(), &udfs).unwrap();
        let err = execute_chain(&chain, &c, &udfs).unwrap_err();
        assert_eq!(err, EvalError::DivisionByZero);
    }
}
