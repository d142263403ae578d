//! The reference tree-walking evaluator.
//!
//! This is the semantics that every execution back end (the baseline LINQ
//! interpreter, the Steno VM, and the proc-macro expansion) must agree
//! with; the differential property tests in the workspace compare them all
//! against it.

use std::collections::HashMap;

use crate::error::EvalError;
use crate::expr::{BinOp, Expr, Lambda, UnOp};
use crate::ty::Ty;
use crate::udf::UdfRegistry;
use crate::value::Value;

/// A runtime environment: variable name → value.
#[derive(Clone, Debug, Default)]
pub struct Env {
    vars: HashMap<String, Value>,
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Binds `name` to `value`, returning `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, value: Value) -> Env {
        self.vars.insert(name.into(), value);
        self
    }

    /// Binds `name` to `value` in place.
    pub fn bind(&mut self, name: impl Into<String>, value: Value) {
        self.vars.insert(name.into(), value);
    }

    /// Looks up `name`.
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// Iterates over `(name, value)` bindings in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.vars.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Binds `name`, returning the shadowed value (if any) so callers can
    /// [`Env::restore`] it — the allocation-free alternative to cloning
    /// the environment per element in interpreter hot loops.
    pub fn bind_shadowing(&mut self, name: &str, value: Value) -> Option<Value> {
        self.vars.insert(name.to_string(), value)
    }

    /// Undoes a [`Env::bind_shadowing`]: reinstates the shadowed value or
    /// removes the binding.
    pub fn restore(&mut self, name: &str, shadowed: Option<Value>) {
        match shadowed {
            Some(v) => {
                self.vars.insert(name.to_string(), v);
            }
            None => {
                self.vars.remove(name);
            }
        }
    }
}

fn num2(
    op: BinOp,
    a: &Value,
    b: &Value,
    ff: impl Fn(f64, f64) -> Result<f64, EvalError>,
    ii: impl Fn(i64, i64) -> Result<i64, EvalError>,
) -> Result<Value, EvalError> {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => Ok(Value::F64(ff(*x, *y)?)),
        (Value::I64(x), Value::I64(y)) => Ok(Value::I64(ii(*x, *y)?)),
        _ => Err(EvalError::TypeMismatch(format!(
            "operator {} on {:?} and {:?}",
            op.symbol(),
            a.ty(),
            b.ty()
        ))),
    }
}

fn compare(op: BinOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    let ord = match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.partial_cmp(y),
        (Value::I64(x), Value::I64(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        _ => {
            return Err(EvalError::TypeMismatch(format!(
                "comparison {} on {:?} and {:?}",
                op.symbol(),
                a.ty(),
                b.ty()
            )))
        }
    };
    let result = match op {
        // IEEE semantics: NaN compares unequal/false, like C#.
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => ord.is_some_and(|o| o.is_lt()),
        BinOp::Le => ord.is_some_and(|o| o.is_le()),
        BinOp::Gt => ord.is_some_and(|o| o.is_gt()),
        BinOp::Ge => ord.is_some_and(|o| o.is_ge()),
        _ => unreachable!("compare called with non-comparison operator"),
    };
    Ok(Value::Bool(result))
}

/// Evaluates `expr` under `env`.
///
/// # Errors
///
/// Returns an [`EvalError`] for unbound variables, shape mismatches,
/// out-of-bounds row indexing, unknown UDFs, or integer division by zero.
/// A well-typed tree (per [`crate::typecheck::infer`]) only fails for the
/// two data-dependent conditions.
pub fn eval(expr: &Expr, env: &Env, udfs: &UdfRegistry) -> Result<Value, EvalError> {
    match expr {
        Expr::Var(name) => env
            .lookup(name)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable(name.clone())),
        Expr::LitF64(x) => Ok(Value::F64(*x)),
        Expr::LitI64(x) => Ok(Value::I64(*x)),
        Expr::LitBool(b) => Ok(Value::Bool(*b)),
        Expr::Bin(op, a, b) => {
            // Short-circuit the logical operators before evaluating `b`.
            if matches!(op, BinOp::And | BinOp::Or) {
                let va = eval(a, env, udfs)?;
                let la = va
                    .as_bool()
                    .ok_or_else(|| EvalError::TypeMismatch("logical operand".into()))?;
                if (*op == BinOp::And && !la) || (*op == BinOp::Or && la) {
                    return Ok(Value::Bool(la));
                }
                let vb = eval(b, env, udfs)?;
                return vb
                    .as_bool()
                    .map(Value::Bool)
                    .ok_or_else(|| EvalError::TypeMismatch("logical operand".into()));
            }
            let va = eval(a, env, udfs)?;
            let vb = eval(b, env, udfs)?;
            match op {
                BinOp::Add => num2(*op, &va, &vb, |x, y| Ok(x + y), |x, y| Ok(x.wrapping_add(y))),
                BinOp::Sub => num2(*op, &va, &vb, |x, y| Ok(x - y), |x, y| Ok(x.wrapping_sub(y))),
                BinOp::Mul => num2(*op, &va, &vb, |x, y| Ok(x * y), |x, y| Ok(x.wrapping_mul(y))),
                BinOp::Div => num2(
                    *op,
                    &va,
                    &vb,
                    |x, y| Ok(x / y),
                    |x, y| {
                        if y == 0 {
                            Err(EvalError::DivisionByZero)
                        } else {
                            Ok(x.wrapping_div(y))
                        }
                    },
                ),
                BinOp::Rem => num2(
                    *op,
                    &va,
                    &vb,
                    |x, y| Ok(x % y),
                    |x, y| {
                        if y == 0 {
                            Err(EvalError::DivisionByZero)
                        } else {
                            Ok(x.wrapping_rem(y))
                        }
                    },
                ),
                // f64 min/max follow `total_cmp`, as the `Min`/`Max`
                // aggregates do: the right operand wins only when it
                // orders strictly first (last), so a NaN or a signed zero
                // gives the same answer on every tier.
                BinOp::Min => num2(
                    *op,
                    &va,
                    &vb,
                    |x, y| Ok(if y.total_cmp(&x).is_lt() { y } else { x }),
                    |x, y| Ok(x.min(y)),
                ),
                BinOp::Max => num2(
                    *op,
                    &va,
                    &vb,
                    |x, y| Ok(if y.total_cmp(&x).is_gt() { y } else { x }),
                    |x, y| Ok(x.max(y)),
                ),
                _ => compare(*op, &va, &vb),
            }
        }
        Expr::Un(op, a) => {
            let va = eval(a, env, udfs)?;
            match (op, va) {
                (UnOp::Neg, Value::F64(x)) => Ok(Value::F64(-x)),
                (UnOp::Neg, Value::I64(x)) => Ok(Value::I64(x.wrapping_neg())),
                (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                (UnOp::Abs, Value::F64(x)) => Ok(Value::F64(x.abs())),
                (UnOp::Abs, Value::I64(x)) => Ok(Value::I64(x.wrapping_abs())),
                (UnOp::Sqrt, Value::F64(x)) => Ok(Value::F64(x.sqrt())),
                (UnOp::Floor, Value::F64(x)) => Ok(Value::F64(x.floor())),
                (op, v) => Err(EvalError::TypeMismatch(format!(
                    "operator {} on {:?}",
                    op.symbol(),
                    v.ty()
                ))),
            }
        }
        Expr::Call(name, args) => {
            let udf = udfs
                .get(name)
                .ok_or_else(|| EvalError::UnknownUdf(name.clone()))?;
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval(a, env, udfs)?);
            }
            Ok((udf.imp)(&values))
        }
        Expr::Field(a, i) => {
            let v = eval(a, env, udfs)?;
            let (x, y) = v
                .as_pair()
                .ok_or_else(|| EvalError::TypeMismatch("projection of non-pair".into()))?;
            Ok(if *i == 0 { x.clone() } else { y.clone() })
        }
        Expr::RowIndex(a, i) => {
            let row = eval(a, env, udfs)?;
            let idx = eval(i, env, udfs)?;
            let row = row
                .as_row()
                .ok_or_else(|| EvalError::TypeMismatch("indexing of non-row".into()))?;
            let idx = idx
                .as_i64()
                .ok_or_else(|| EvalError::TypeMismatch("non-integer row index".into()))?;
            if idx < 0 || idx as usize >= row.len() {
                return Err(EvalError::IndexOutOfBounds {
                    index: idx,
                    len: row.len(),
                });
            }
            Ok(Value::F64(row[idx as usize]))
        }
        Expr::RowLen(a) => {
            let row = eval(a, env, udfs)?;
            let row = row
                .as_row()
                .ok_or_else(|| EvalError::TypeMismatch("length of non-row".into()))?;
            Ok(Value::I64(row.len() as i64))
        }
        Expr::MkPair(a, b) => Ok(Value::pair(eval(a, env, udfs)?, eval(b, env, udfs)?)),
        Expr::If(c, t, e) => {
            let vc = eval(c, env, udfs)?;
            let cond = vc
                .as_bool()
                .ok_or_else(|| EvalError::TypeMismatch("if condition".into()))?;
            if cond {
                eval(t, env, udfs)
            } else {
                eval(e, env, udfs)
            }
        }
        Expr::Cast(ty, a) => {
            let v = eval(a, env, udfs)?;
            match (v, ty) {
                (Value::F64(x), Ty::I64) => Ok(Value::I64(x as i64)),
                (Value::I64(x), Ty::F64) => Ok(Value::F64(x as f64)),
                (v @ Value::F64(_), Ty::F64) | (v @ Value::I64(_), Ty::I64) => Ok(v),
                (v, ty) => Err(EvalError::TypeMismatch(format!(
                    "cast of {:?} to {ty}",
                    v.ty()
                ))),
            }
        }
    }
}

/// Applies a lambda to argument values.
///
/// # Errors
///
/// Returns [`EvalError::TypeMismatch`] if the argument count differs from
/// the lambda arity, and propagates body evaluation errors.
pub fn apply(
    lambda: &Lambda,
    args: &[Value],
    env: &Env,
    udfs: &UdfRegistry,
) -> Result<Value, EvalError> {
    if args.len() != lambda.arity() {
        return Err(EvalError::TypeMismatch(format!(
            "lambda of arity {} applied to {} arguments",
            lambda.arity(),
            args.len()
        )));
    }
    let mut inner = env.clone();
    for ((name, _), value) in lambda.params.iter().zip(args) {
        inner.bind(name.clone(), value.clone());
    }
    eval(&lambda.body, &inner, udfs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(e: &Expr) -> Value {
        eval(e, &Env::new(), &UdfRegistry::new()).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev(&(Expr::litf(2.0) * Expr::litf(3.0) + Expr::litf(1.0))), Value::F64(7.0));
        assert_eq!(ev(&(Expr::liti(7) % Expr::liti(2))), Value::I64(1));
        assert_eq!(ev(&(-Expr::liti(5))), Value::I64(-5));
        assert_eq!(ev(&Expr::litf(2.25).sqrt()), Value::F64(1.5));
        assert_eq!(ev(&Expr::litf(2.75).floor()), Value::F64(2.0));
        assert_eq!(ev(&Expr::litf(4.0).min(Expr::litf(3.0))), Value::F64(3.0));
    }

    #[test]
    fn integer_division_by_zero_is_an_error() {
        let e = Expr::liti(1) / Expr::liti(0);
        assert_eq!(
            eval(&e, &Env::new(), &UdfRegistry::new()),
            Err(EvalError::DivisionByZero)
        );
        // Float division by zero follows IEEE.
        assert_eq!(ev(&(Expr::litf(1.0) / Expr::litf(0.0))), Value::F64(f64::INFINITY));
    }

    #[test]
    fn short_circuit_skips_rhs() {
        // The right operand would fail with division by zero if evaluated.
        let trap = (Expr::liti(1) / Expr::liti(0)).eq(Expr::liti(0));
        let e = Expr::litb(false).and(trap.clone());
        assert_eq!(ev(&e), Value::Bool(false));
        let e = Expr::litb(true).or(trap);
        assert_eq!(ev(&e), Value::Bool(true));
    }

    #[test]
    fn nan_comparisons_are_false() {
        let nan = Expr::litf(f64::NAN);
        assert_eq!(ev(&nan.clone().eq(nan.clone())), Value::Bool(false));
        assert_eq!(ev(&nan.clone().lt(Expr::litf(0.0))), Value::Bool(false));
        assert_eq!(ev(&nan.clone().ne(nan)), Value::Bool(true));
    }

    #[test]
    fn rows_and_pairs() {
        let env = Env::new()
            .with("p", Value::row(vec![3.0, 4.0]))
            .with("kv", Value::pair(Value::I64(7), Value::F64(0.5)));
        let udfs = UdfRegistry::new();
        assert_eq!(
            eval(&Expr::var("p").row_index(Expr::liti(1)), &env, &udfs),
            Ok(Value::F64(4.0))
        );
        assert_eq!(eval(&Expr::var("p").row_len(), &env, &udfs), Ok(Value::I64(2)));
        assert_eq!(
            eval(&Expr::var("p").row_index(Expr::liti(5)), &env, &udfs),
            Err(EvalError::IndexOutOfBounds { index: 5, len: 2 })
        );
        assert_eq!(eval(&Expr::var("kv").field(0), &env, &udfs), Ok(Value::I64(7)));
    }

    #[test]
    fn udf_call() {
        let mut udfs = UdfRegistry::new();
        udfs.register("twice", vec![Ty::F64], Ty::F64, |args| {
            Value::F64(args[0].as_f64().unwrap() * 2.0)
        });
        let e = Expr::call("twice", vec![Expr::litf(21.0)]);
        assert_eq!(eval(&e, &Env::new(), &udfs), Ok(Value::F64(42.0)));
        let missing = Expr::call("missing", vec![]);
        assert_eq!(
            eval(&missing, &Env::new(), &udfs),
            Err(EvalError::UnknownUdf("missing".into()))
        );
    }

    #[test]
    fn lambda_application() {
        let udfs = UdfRegistry::new();
        let square = Lambda::unary("x", Ty::F64, Expr::var("x") * Expr::var("x"));
        assert_eq!(
            apply(&square, &[Value::F64(3.0)], &Env::new(), &udfs),
            Ok(Value::F64(9.0))
        );
        assert!(apply(&square, &[], &Env::new(), &udfs).is_err());
    }

    #[test]
    fn casts() {
        assert_eq!(ev(&Expr::litf(2.9).cast(Ty::I64)), Value::I64(2));
        assert_eq!(ev(&Expr::liti(2).cast(Ty::F64)), Value::F64(2.0));
    }

    #[test]
    fn conditional_picks_branch() {
        let e = Expr::if_(
            Expr::liti(1).lt(Expr::liti(2)),
            Expr::litf(1.0),
            Expr::litf(2.0),
        );
        assert_eq!(ev(&e), Value::F64(1.0));
    }
}
