//! The unoptimized executor: runs query ASTs through iterator chains.
//!
//! This module instantiates the typed operator layer at
//! [`Value`] and drives it from a
//! [`QueryExpr`], evaluating the expression-tree
//! lambdas per element. It is the executor a DryadLINQ vertex uses when
//! Steno is *not* applied, and the reference implementation against which
//! the Steno VM and macro back ends are differentially tested.
//!
//! # Errors
//!
//! [`execute`] type-checks the query up front and reports structural
//! problems as errors. Data-dependent evaluation failures inside operator
//! closures (integer division by zero, row index out of range) are
//! errors too: the iterator closures cannot return a `Result`, so the
//! first failure in pull order is recorded in a first-error cell shared
//! by every closure of the execution, later closures yield an inert
//! placeholder, and the cell is surfaced when the driver finishes — the
//! same discipline as `steno-cluster`'s chain interpreter, and the error
//! the VM tiers return for the same element.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use steno_expr::eval::{eval, Env};
use steno_expr::{DataContext, EvalError, Ty, UdfRegistry, Value};
use steno_query::typing::{self, SourceTypes};
use steno_query::{AggOp, QBody, QFn, QueryExpr, SourceRef};

use crate::enumerable::Enumerable;

/// Why an interruptible execution was asked to stop (see
/// [`execute_interruptible`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// A deadline expired.
    Deadline,
    /// The caller cancelled the query.
    Cancelled,
}

/// A cancellation probe for the iterator executor: returns `Some` once
/// the caller wants the query aborted. A boxed closure (rather than a
/// concrete interrupt type) keeps this crate free of a dependency on
/// the VM's `Interrupt` — any deadline/cancel source can drive it.
pub type StopProbe = Arc<dyn Fn() -> Option<Stop> + Send + Sync>;

/// Elements enumerated between probe calls. The interpreter costs
/// hundreds of nanoseconds per element, so even a modest stride bounds
/// detection latency to well under a millisecond while keeping the
/// per-element overhead to one shared counter increment.
const INTERP_POLL_STRIDE: u64 = 256;

/// Shared runtime state captured by operator closures.
#[derive(Clone)]
struct Rt {
    ctx: Arc<DataContext>,
    udfs: Arc<UdfRegistry>,
    /// `Some` only under [`execute_interruptible`]: sources then poll it
    /// every [`INTERP_POLL_STRIDE`] elements.
    probe: Option<StopProbe>,
    /// Elements enumerated so far, across every source of the execution.
    ticks: Rc<Cell<u64>>,
    /// The first failure of this execution, in pull order.
    err: Rc<RefCell<Option<EvalError>>>,
}

impl Rt {
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

    /// The value of `r`, or — recording its error — the inert
    /// placeholder a failed closure yields. The placeholder is never
    /// observable: the driver surfaces the recorded error instead.
    fn value(&self, r: Result<Value, EvalError>) -> Value {
        r.unwrap_or_else(|e| {
            self.fail(e);
            Value::I64(0)
        })
    }

    /// Wraps a source enumerable with per-element interrupt polling
    /// when this execution is interruptible; the identity otherwise.
    /// Instrumenting at the sources covers every chain shape — all
    /// operators, including the eagerly-materializing ones (`GroupBy`,
    /// `OrderBy`) and bare aggregates like `Count`, pull their elements
    /// up from a source. An instrumented source also stops yielding once
    /// any failure (the interrupt included) is recorded, so the chain
    /// drains at once.
    fn instrument(&self, src: Enumerable<Value>) -> Enumerable<Value> {
        if self.probe.is_none() {
            return src;
        }
        let rt = self.clone();
        src.take_while(move |_| {
            let n = rt.ticks.get();
            rt.ticks.set(n + 1);
            if n.is_multiple_of(INTERP_POLL_STRIDE) {
                if let Some(stop) = rt.probe.as_ref().and_then(|p| p()) {
                    rt.fail(interrupted(stop));
                }
            }
            !rt.failed()
        })
    }
}

fn interrupted(stop: Stop) -> EvalError {
    EvalError::Interrupted {
        deadline: stop == Stop::Deadline,
    }
}

/// The "default value" conventions this reproduction uses for aggregates
/// over empty sequences (LINQ throws; we return the fold identity so that
/// all back ends agree — see DESIGN.md).
pub fn default_value(ty: &Ty) -> Value {
    match ty {
        Ty::F64 => Value::F64(0.0),
        Ty::I64 => Value::I64(0),
        Ty::Bool => Value::Bool(false),
        Ty::Row => Value::row(Vec::new()),
        Ty::Pair(a, b) => Value::pair(default_value(a), default_value(b)),
        Ty::Seq(_) => Value::seq(Vec::new()),
    }
}

/// The identity element for `Min` over `ty` (positive infinity / `i64::MAX`).
pub fn min_identity(ty: &Ty) -> Value {
    match ty {
        Ty::I64 => Value::I64(i64::MAX),
        _ => Value::F64(f64::INFINITY),
    }
}

/// The identity element for `Max` over `ty` (negative infinity / `i64::MIN`).
pub fn max_identity(ty: &Ty) -> Value {
    match ty {
        Ty::I64 => Value::I64(i64::MIN),
        _ => Value::F64(f64::NEG_INFINITY),
    }
}

fn ty_env_of(env: &Env) -> steno_expr::typecheck::TyEnv {
    let mut te = steno_expr::typecheck::TyEnv::new();
    for (name, value) in env.iter() {
        te.bind(name, value.ty());
    }
    te
}

/// Converts a sequence-shaped value into an enumerable.
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

/// Applies `f` to `arg`; once any closure has failed, or if this one
/// does, yields the placeholder (see [`Rt::value`]).
fn apply_qfn(f: &QFn, arg: Value, rt: &Rt, env: &Env) -> Value {
    if rt.failed() {
        return Value::I64(0);
    }
    let mut inner = env.clone();
    inner.bind(f.param.clone(), arg);
    rt.value(match &f.body {
        QBody::Expr(e) => eval(e, &inner, &rt.udfs),
        QBody::Query(q) => execute_in(q, rt, &inner),
    })
}

/// As [`apply_qfn`] for predicate positions: after a failure every
/// predicate reads `false`, so the stream drains without evaluating.
fn test_qfn(p: &QFn, arg: Value, rt: &Rt, env: &Env) -> bool {
    let b = apply_qfn(p, arg, rt, env);
    !rt.failed() && b.as_bool().expect("predicate must yield bool")
}

fn enumerable_of(q: &QueryExpr, rt: &Rt, env: &Env) -> Result<Enumerable<Value>, EvalError> {
    match q {
        QueryExpr::Source(s) => {
            let base = match s {
                SourceRef::Named(name) => {
                    let col = rt
                        .ctx
                        .source(name)
                        .ok_or_else(|| EvalError::UnboundVariable(format!("source `{name}`")))?;
                    Enumerable::from_vec(col.to_values())
                }
                SourceRef::Range { start, count } => {
                    Enumerable::range(*start, *count).select(Value::I64)
                }
                SourceRef::Repeat { value, count } => Enumerable::repeat(value.clone(), *count),
                SourceRef::Expr(e) => value_to_enumerable(eval(e, env, &rt.udfs)?)?,
            };
            Ok(rt.instrument(base))
        }
        QueryExpr::Select { input, f } => {
            let src = enumerable_of(input, rt, env)?;
            let f = f.clone();
            let rt = rt.clone();
            let env = env.clone();
            Ok(src.select(move |v| apply_qfn(&f, v, &rt, &env)))
        }
        QueryExpr::Where { input, p } => {
            let src = enumerable_of(input, rt, env)?;
            let p = p.clone();
            let rt = rt.clone();
            let env = env.clone();
            Ok(src.where_(move |v| test_qfn(&p, v, &rt, &env)))
        }
        QueryExpr::SelectMany { input, f } => {
            let src = enumerable_of(input, rt, env)?;
            let f = f.clone();
            let rt = rt.clone();
            let env = env.clone();
            Ok(src.select_many(move |v| {
                // A nested sequence-valued query; materialized per element,
                // then enumerated — the iterator-of-iterators of §5.
                let inner = match &f.body {
                    _ if rt.failed() => return Enumerable::from_vec(Vec::new()),
                    QBody::Query(q) => {
                        let mut inner = env.clone();
                        inner.bind(f.param.clone(), v);
                        enumerable_of(q, &rt, &inner)
                    }
                    QBody::Expr(_) => value_to_enumerable(apply_qfn(&f, v, &rt, &env)),
                };
                inner.unwrap_or_else(|e| {
                    rt.fail(e);
                    Enumerable::from_vec(Vec::new())
                })
            }))
        }
        QueryExpr::Take { input, count } => Ok(enumerable_of(input, rt, env)?.take(*count)),
        QueryExpr::Skip { input, count } => Ok(enumerable_of(input, rt, env)?.skip(*count)),
        QueryExpr::TakeWhile { input, p } => {
            let src = enumerable_of(input, rt, env)?;
            let p = p.clone();
            let rt = rt.clone();
            let env = env.clone();
            Ok(src.take_while(move |v| test_qfn(&p, v, &rt, &env)))
        }
        QueryExpr::SkipWhile { input, p } => {
            let src = enumerable_of(input, rt, env)?;
            let p = p.clone();
            let rt = rt.clone();
            let env = env.clone();
            Ok(src.skip_while(move |v| test_qfn(&p, v, &rt, &env)))
        }
        QueryExpr::GroupBy {
            input,
            key,
            elem,
            result,
        } => {
            let src = enumerable_of(input, rt, env)?;
            let key = key.clone();
            let elem = elem.clone();
            let result = result.clone();
            let rt = rt.clone();
            let env = env.clone();
            // Group eagerly into (key, seq) pairs, preserving key order of
            // first appearance — the Sink of Fig. 7(b).
            Ok(Enumerable::new(move || {
                let mut index = std::collections::HashMap::new();
                let mut groups: Vec<(Value, Vec<Value>)> = Vec::new();
                let mut e = src.get_enumerator();
                while e.move_next() {
                    let item = e.current();
                    let k = apply_qfn(&key, item.clone(), &rt, &env);
                    let v = match &elem {
                        Some(sel) => apply_qfn(sel, item, &rt, &env),
                        None => item,
                    };
                    let slot = *index.entry(k.key()).or_insert_with(|| {
                        groups.push((k, Vec::new()));
                        groups.len() - 1
                    });
                    groups[slot].1.push(v);
                }
                let pairs: Vec<Value> = match &result {
                    // Plain GroupBy: (key, group) pairs.
                    None => groups
                        .into_iter()
                        .map(|(k, vs)| Value::pair(k, Value::seq(vs)))
                        .collect(),
                    // Result-selector overload: aggregate each group, then
                    // apply the result expression to (key, aggregate).
                    Some(r) => groups
                        .into_iter()
                        .map(|(k, vs)| {
                            let mut genv = env.clone();
                            genv.bind(r.group_param.clone(), Value::seq(vs));
                            let agg = rt.value(execute_in(&r.agg_query, &rt, &genv));
                            let mut renv = env.clone();
                            renv.bind(r.key_param.clone(), k);
                            renv.bind(r.agg_param.clone(), agg);
                            rt.value(eval(&r.result, &renv, &rt.udfs))
                        })
                        .collect(),
                };
                Enumerable::from_vec(pairs).get_enumerator()
            }))
        }
        QueryExpr::OrderBy {
            input,
            key,
            descending,
        } => {
            let src = enumerable_of(input, rt, env)?;
            let key = key.clone();
            let rt = rt.clone();
            let env = env.clone();
            let descending = *descending;
            // Decorate-sort-undecorate to evaluate each key once.
            Ok(Enumerable::new(move || {
                let mut decorated: Vec<(Value, Value)> = Vec::new();
                let mut e = src.get_enumerator();
                while e.move_next() {
                    let item = e.current();
                    decorated.push((apply_qfn(&key, item.clone(), &rt, &env), item));
                }
                decorated.sort_by(|(ka, _), (kb, _)| {
                    let ord = ka.cmp_total(kb);
                    if descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                let items: Vec<Value> = decorated.into_iter().map(|(_, v)| v).collect();
                Enumerable::from_vec(items).get_enumerator()
            }))
        }
        QueryExpr::Distinct { input } => {
            Ok(enumerable_of(input, rt, env)?.distinct_by(|v| v.key()))
        }
        QueryExpr::ToVec { input } => {
            let materialized = enumerable_of(input, rt, env)?.to_vec();
            Ok(Enumerable::from_vec(materialized))
        }
        QueryExpr::Concat { input, other } => {
            Ok(enumerable_of(input, rt, env)?.concat(&enumerable_of(other, rt, env)?))
        }
        QueryExpr::Join { .. } => {
            // Execute through the canonical §5 rewrite (hash-join quality
            // is not this executor's concern; it is the unoptimized
            // baseline).
            let canon = q.clone().canonicalize();
            if matches!(canon, QueryExpr::Join { .. }) {
                return Err(EvalError::TypeMismatch(
                    "Join with nested-query key selectors is unsupported".into(),
                ));
            }
            enumerable_of(&canon, rt, env)
        }
        QueryExpr::Aggregate { .. } | QueryExpr::Agg { .. } => Err(EvalError::TypeMismatch(
            "scalar query used where a sequence was expected".into(),
        )),
    }
}

fn add(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => Value::F64(x + y),
        (Value::I64(x), Value::I64(y)) => Value::I64(x.wrapping_add(*y)),
        _ => panic!("sum over non-numeric elements"),
    }
}

fn execute_in(q: &QueryExpr, rt: &Rt, env: &Env) -> Result<Value, EvalError> {
    match q {
        QueryExpr::Aggregate {
            input, seed, func, ..
        } => {
            let src = enumerable_of(input, rt, env)?;
            let mut acc = eval(seed, env, &rt.udfs)?;
            let mut e = src.get_enumerator();
            while e.move_next() && !rt.failed() {
                let mut inner = env.clone();
                inner.bind(func.param0.clone(), acc);
                inner.bind(func.param1.clone(), e.current());
                acc = eval(&func.body, &inner, &rt.udfs)?;
            }
            Ok(acc)
        }
        QueryExpr::Agg { input, op, f } => {
            debug_assert!(f.is_none(), "run canonicalize() before execution");
            let src = enumerable_of(input, rt, env)?;
            // Element type decides the identity conventions for empty input.
            let elem_ty = typing::elem_ty(
                input,
                &SourceTypes::from(rt.ctx.as_ref()),
                &ty_env_of(env),
                &rt.udfs,
            )
            .map_err(|e| EvalError::TypeMismatch(e.to_string()))?;
            // Once a closure has failed, the elements still pulled are
            // placeholders: the folds keep their accumulator.
            let live = || !rt.failed();
            match op {
                AggOp::Sum => Ok(src.aggregate(default_value(&elem_ty), |a, x| {
                    if live() {
                        add(&a, &x)
                    } else {
                        a
                    }
                })),
                AggOp::Count => Ok(Value::I64(src.count() as i64)),
                AggOp::Min => Ok(src.aggregate(min_identity(&elem_ty), |a, x| {
                    if x.cmp_total(&a).is_lt() {
                        x
                    } else {
                        a
                    }
                })),
                AggOp::Max => Ok(src.aggregate(max_identity(&elem_ty), |a, x| {
                    if x.cmp_total(&a).is_gt() {
                        x
                    } else {
                        a
                    }
                })),
                AggOp::Average => {
                    let (n, s) = src.aggregate((0i64, 0.0f64), |(n, s), x| {
                        (n + 1, s + x.as_f64().expect("average over non-numeric"))
                    });
                    Ok(Value::F64(s / n as f64))
                }
                AggOp::Any => Ok(Value::Bool(src.any(|_| true))),
                AggOp::All => Ok(Value::Bool(
                    src.all(|v| !live() || v.as_bool().expect("All over non-boolean")),
                )),
                AggOp::First => Ok(src
                    .first()
                    .unwrap_or_else(|| default_value(&elem_ty))),
            }
        }
        _ => {
            let src = enumerable_of(q, rt, env)?;
            Ok(Value::seq(src.to_vec()))
        }
    }
}

/// Executes a query over the given data context through unoptimized
/// iterator chains.
///
/// The query is type-checked first; run [`QueryExpr::canonicalize`] (or
/// build with [`steno_query::Query::build`]) before calling.
///
/// # Errors
///
/// Returns an error if the query is ill-typed or references unknown
/// sources, and the first data-dependent failure in pull order (for
/// instance [`EvalError::DivisionByZero`]).
pub fn execute(
    q: &QueryExpr,
    ctx: &DataContext,
    udfs: &UdfRegistry,
) -> Result<Value, EvalError> {
    run(q, ctx, udfs, None)
}

/// As [`execute`], polling `probe` cooperatively so deadlines and
/// cancellation can stop the iterator chains mid-run — the non-VM
/// analogue of the VM's back-edge interrupt polling. Detection latency
/// is bounded by the polling stride (a few hundred elements at
/// interpreter speeds).
///
/// # Errors
///
/// As [`execute`], plus [`EvalError::Interrupted`] once the probe fires
/// (`deadline: true` for [`Stop::Deadline`]) before any other failure.
pub fn execute_interruptible(
    q: &QueryExpr,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    probe: StopProbe,
) -> Result<Value, EvalError> {
    run(q, ctx, udfs, Some(probe))
}

/// The body of [`execute`] and [`execute_interruptible`].
fn run(
    q: &QueryExpr,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    probe: Option<StopProbe>,
) -> Result<Value, EvalError> {
    typing::check_with_context(q, ctx, udfs)
        .map_err(|e| EvalError::TypeMismatch(e.to_string()))?;
    // Check once up front so an already-expired deadline never starts
    // the query at all.
    if let Some(stop) = probe.as_ref().and_then(|p| p()) {
        return Err(interrupted(stop));
    }
    let rt = Rt {
        ctx: Arc::new(ctx.clone()),
        udfs: Arc::new(udfs.clone()),
        probe,
        ticks: Rc::default(),
        err: Rc::default(),
    };
    let out = execute_in(q, &rt, &Env::new());
    match rt.err.take() {
        Some(e) => Err(e),
        None => out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::Expr;
    use steno_query::Query;

    fn ctx() -> DataContext {
        DataContext::new()
            .with_source("xs", vec![1.0, 2.0, 3.0, 4.0])
            .with_source("ns", vec![1i64, 2, 3, 4, 5, 6])
    }

    fn run(q: &QueryExpr) -> Value {
        execute(q, &ctx(), &UdfRegistry::new()).unwrap()
    }

    #[test]
    fn even_squares() {
        let q = Query::source("ns")
            .where_((Expr::var("x") % Expr::liti(2)).eq(Expr::liti(0)), "x")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .build();
        assert_eq!(
            run(&q),
            Value::seq(vec![Value::I64(4), Value::I64(16), Value::I64(36)])
        );
    }

    #[test]
    fn sum_of_squares() {
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        assert_eq!(run(&q), Value::F64(30.0));
    }

    #[test]
    fn aggregates() {
        let q = Query::source("ns").count().build();
        assert_eq!(run(&q), Value::I64(6));
        let q = Query::source("ns").min().build();
        assert_eq!(run(&q), Value::I64(1));
        let q = Query::source("ns").max().build();
        assert_eq!(run(&q), Value::I64(6));
        let q = Query::source("xs").average().build();
        assert_eq!(run(&q), Value::F64(2.5));
        let q = Query::source("ns")
            .any_by(Expr::var("x").gt(Expr::liti(5)), "x")
            .build();
        assert_eq!(run(&q), Value::Bool(true));
        let q = Query::source("ns")
            .all_by(Expr::var("x").gt(Expr::liti(0)), "x")
            .build();
        assert_eq!(run(&q), Value::Bool(true));
        let q = Query::source("ns").first().build();
        assert_eq!(run(&q), Value::I64(1));
    }

    #[test]
    fn empty_aggregate_conventions() {
        let empty = DataContext::new().with_source("e", Vec::<f64>::new());
        let udfs = UdfRegistry::new();
        let sum = Query::source("e").sum().build();
        assert_eq!(execute(&sum, &empty, &udfs).unwrap(), Value::F64(0.0));
        let min = Query::source("e").min().build();
        assert_eq!(
            execute(&min, &empty, &udfs).unwrap(),
            Value::F64(f64::INFINITY)
        );
        let first = Query::source("e").first().build();
        assert_eq!(execute(&first, &empty, &udfs).unwrap(), Value::F64(0.0));
    }

    #[test]
    fn cartesian_product_via_nested_query() {
        // xs.SelectMany(x => ns.Select(n => x * n)).Sum() — §5's shape.
        let q = Query::source("ns")
            .select_many(
                Query::source("ns").select(Expr::var("x") * Expr::var("y"), "y"),
                "x",
            )
            .sum()
            .build();
        // sum_{x,y in 1..=6} x*y = 21 * 21
        assert_eq!(run(&q), Value::I64(441));
    }

    #[test]
    fn nested_scalar_query_in_select() {
        // ns.Select(x => xs.Count()) — nested query with scalar result.
        let q = Query::source("ns")
            .take(2)
            .select_query(Query::source("xs").count(), "x")
            .build();
        assert_eq!(run(&q), Value::seq(vec![Value::I64(4), Value::I64(4)]));
    }

    #[test]
    fn nested_query_uses_outer_variable() {
        // ns.Where(x => ns.Any(y => y == x + 5)) keeps only x = 1
        let q = Query::source("ns")
            .where_(Expr::var("x").le(Expr::liti(1)), "x")
            .select_query(
                Query::source("ns")
                    .count_by(Expr::var("y").gt(Expr::var("x")), "y"),
                "x",
            )
            .build();
        assert_eq!(run(&q), Value::seq(vec![Value::I64(5)]));
    }

    #[test]
    fn group_by_yields_pairs_in_first_key_order() {
        let q = Query::source("ns")
            .group_by(Expr::var("x") % Expr::liti(3), "x")
            .build();
        let out = run(&q);
        let seq = out.as_seq().unwrap();
        assert_eq!(seq.len(), 3);
        let (k0, g0) = seq[0].as_pair().unwrap();
        assert_eq!(*k0, Value::I64(1));
        assert_eq!(*g0, Value::seq(vec![Value::I64(1), Value::I64(4)]));
    }

    #[test]
    fn group_by_then_aggregate_groups() {
        // The GROUP BY ... aggregate pattern of §4.3: per-key sums.
        let q = Query::source("ns")
            .group_by(Expr::var("x") % Expr::liti(2), "x")
            .select(
                Expr::mk_pair(
                    Expr::var("kv").field(0),
                    Expr::var("kv").field(1), // placeholder, replaced below
                ),
                "kv",
            )
            .build();
        // Instead of expression-level seq support, aggregate via nested query:
        let q2 = Query::source("ns")
            .group_by(Expr::var("x") % Expr::liti(2), "x")
            .select_query(
                Query::over(Expr::var("kv").field(1)).sum(),
                "kv",
            )
            .build();
        let _ = q; // the pair-of-seq shape itself is exercised above
        assert_eq!(
            run(&q2),
            Value::seq(vec![Value::I64(9), Value::I64(12)])
        );
    }

    #[test]
    fn order_take_skip_distinct() {
        let ctx = DataContext::new().with_source("v", vec![3i64, 1, 2, 3, 1]);
        let udfs = UdfRegistry::new();
        let q = Query::source("v")
            .distinct()
            .order_by(Expr::var("x"), "x")
            .build();
        assert_eq!(
            execute(&q, &ctx, &udfs).unwrap(),
            Value::seq(vec![Value::I64(1), Value::I64(2), Value::I64(3)])
        );
        let q = Query::source("v")
            .order_by_desc(Expr::var("x"), "x")
            .take(2)
            .build();
        assert_eq!(
            execute(&q, &ctx, &udfs).unwrap(),
            Value::seq(vec![Value::I64(3), Value::I64(3)])
        );
        let q = Query::source("v").skip(3).build();
        assert_eq!(
            execute(&q, &ctx, &udfs).unwrap(),
            Value::seq(vec![Value::I64(3), Value::I64(1)])
        );
    }

    #[test]
    fn take_while_skip_while_and_concat() {
        let q = Query::source("ns")
            .take_while(Expr::var("x").lt(Expr::liti(4)), "x")
            .concat(Query::source("ns").skip_while(Expr::var("x").lt(Expr::liti(6)), "x"))
            .build();
        assert_eq!(
            run(&q),
            Value::seq(vec![
                Value::I64(1),
                Value::I64(2),
                Value::I64(3),
                Value::I64(6)
            ])
        );
    }

    #[test]
    fn range_and_repeat_sources() {
        let udfs = UdfRegistry::new();
        let q = Query::range(5, 3).sum().build();
        assert_eq!(
            execute(&q, &DataContext::new(), &udfs).unwrap(),
            Value::I64(18)
        );
        let q = Query::repeat(2.5f64, 4).sum().build();
        assert_eq!(
            execute(&q, &DataContext::new(), &udfs).unwrap(),
            Value::F64(10.0)
        );
    }

    #[test]
    fn generic_aggregate_fold() {
        let q = Query::source("ns")
            .aggregate(
                Expr::liti(1),
                "acc",
                "x",
                Expr::var("acc") * Expr::var("x"),
            )
            .build();
        assert_eq!(run(&q), Value::I64(720));
    }

    #[test]
    fn ill_typed_query_is_rejected() {
        let q = Query::source("xs")
            .where_(Expr::var("x") + Expr::litf(1.0), "x")
            .build();
        assert!(execute(&q, &ctx(), &UdfRegistry::new()).is_err());
        let q = Query::source("missing").count().build();
        assert!(execute(&q, &ctx(), &UdfRegistry::new()).is_err());
    }

    #[test]
    fn to_vec_materializes() {
        let q = Query::source("ns").to_vec().count().build();
        assert_eq!(run(&q), Value::I64(6));
    }

    #[test]
    fn inert_probe_matches_plain_execution() {
        let q = Query::source("ns")
            .where_((Expr::var("x") % Expr::liti(2)).eq(Expr::liti(0)), "x")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let probe: StopProbe = Arc::new(|| None);
        assert_eq!(
            execute_interruptible(&q, &ctx(), &UdfRegistry::new(), probe).unwrap(),
            run(&q)
        );
    }

    #[test]
    fn prefired_probe_stops_before_execution() {
        let q = Query::source("ns").sum().build();
        let probe: StopProbe = Arc::new(|| Some(Stop::Deadline));
        assert_eq!(
            execute_interruptible(&q, &ctx(), &UdfRegistry::new(), probe),
            Err(EvalError::Interrupted { deadline: true })
        );
        let probe: StopProbe = Arc::new(|| Some(Stop::Cancelled));
        assert_eq!(
            execute_interruptible(&q, &ctx(), &UdfRegistry::new(), probe),
            Err(EvalError::Interrupted { deadline: false })
        );
    }

    #[test]
    fn mid_run_cancellation_stops_the_iterator_chain() {
        use std::sync::atomic::{AtomicU64, Ordering};

        // The probe fires on its third call: well into the enumeration
        // of a 100k-element chain, long before it completes. The probe
        // call count also proves the stride amortization — polling per
        // element would have asked tens of thousands of times.
        let calls = Arc::new(AtomicU64::new(0));
        let probe: StopProbe = {
            let calls = Arc::clone(&calls);
            Arc::new(move || {
                if calls.fetch_add(1, Ordering::Relaxed) >= 3 {
                    Some(Stop::Cancelled)
                } else {
                    None
                }
            })
        };
        let big = DataContext::new()
            .with_source("big", (0..100_000i64).collect::<Vec<_>>());
        let q = Query::source("big")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        assert_eq!(
            execute_interruptible(&q, &big, &UdfRegistry::new(), probe),
            Err(EvalError::Interrupted { deadline: false })
        );
        let asked = calls.load(Ordering::Relaxed);
        assert!(asked >= 4, "probe must be polled mid-run, asked {asked}");
        assert!(asked < 100, "polling must be stride-amortized, asked {asked}");
    }

    #[test]
    fn interruption_reaches_eager_and_aggregate_operators() {
        // GroupBy materializes eagerly and Count never runs a per-element
        // lambda; both must still observe cancellation because polling
        // is instrumented at the sources they drain.
        let big = DataContext::new()
            .with_source("big", (0..50_000i64).collect::<Vec<_>>());
        let fire_late = || -> StopProbe {
            use std::sync::atomic::{AtomicU64, Ordering};
            let calls = Arc::new(AtomicU64::new(0));
            Arc::new(move || {
                if calls.fetch_add(1, Ordering::Relaxed) >= 2 {
                    Some(Stop::Deadline)
                } else {
                    None
                }
            })
        };
        let grouped = Query::source("big")
            .group_by(Expr::var("x") % Expr::liti(7), "x")
            .build();
        assert_eq!(
            execute_interruptible(&grouped, &big, &UdfRegistry::new(), fire_late()),
            Err(EvalError::Interrupted { deadline: true })
        );
        let counted = Query::source("big").count().build();
        assert_eq!(
            execute_interruptible(&counted, &big, &UdfRegistry::new(), fire_late()),
            Err(EvalError::Interrupted { deadline: true })
        );
    }

    #[test]
    fn data_errors_return_the_first_failure() {
        let udfs = UdfRegistry::new();
        let x = || Expr::var("x");
        let zeros = DataContext::new().with_source("ns", vec![5i64, 0, 3, 0]);
        // A select, a predicate, a sort key and a group key that divide
        // by zero, with and without a probe.
        let queries = [
            Query::source("ns").select(Expr::liti(60) / x(), "x").sum().build(),
            Query::source("ns")
                .where_((Expr::liti(60) / x()).gt(Expr::liti(1)), "x")
                .count()
                .build(),
            Query::source("ns").order_by(Expr::liti(100) / x(), "x").take(2).sum().build(),
            Query::source("ns").group_by(Expr::liti(7) % x(), "x").build(),
        ];
        for q in &queries {
            assert_eq!(execute(q, &zeros, &udfs), Err(EvalError::DivisionByZero), "{q}");
            let probe: StopProbe = Arc::new(|| None);
            assert_eq!(
                execute_interruptible(q, &zeros, &udfs, probe),
                Err(EvalError::DivisionByZero),
                "{q}"
            );
        }
        // The first failure in pull order wins: each row indexes itself
        // out of bounds at its own first coordinate, and the error names
        // the first row's.
        let pts = DataContext::new()
            .with_source("pts", steno_expr::Column::from_rows(vec![3.0, 0.0, 7.0, 0.0], 2));
        let p = || Expr::var("p");
        let self_index = || p().row_index(p().row_index(Expr::liti(0)).cast(Ty::I64));
        for q in [
            Query::source("pts").select(self_index(), "p").sum().build(),
            Query::source("pts").order_by(self_index(), "p").count().build(),
        ] {
            assert_eq!(
                execute(&q, &pts, &udfs),
                Err(EvalError::IndexOutOfBounds { index: 3, len: 2 }),
                "{q}"
            );
        }
        // A trap the lazy chain never pulls is never raised.
        let q = Query::source("ns").take(1).select(Expr::liti(60) / x(), "x").sum().build();
        assert_eq!(execute(&q, &zeros, &udfs), Ok(Value::I64(12)));
    }

    #[test]
    fn rows_iterate_as_floats() {
        let ctx = DataContext::new().with_source(
            "pts",
            steno_expr::Column::from_rows(vec![1.0, 2.0, 3.0, 4.0], 2),
        );
        // pts.SelectMany(p => p).Sum(): flatten coordinates.
        let q = Query::source("pts")
            .select_many_expr(Expr::var("p"), "p")
            .sum()
            .build();
        assert_eq!(
            execute(&q, &ctx, &UdfRegistry::new()).unwrap(),
            Value::F64(10.0)
        );
    }
}
