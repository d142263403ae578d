//! Verified algebraic rewrites over QUIL chains.
//!
//! Two rules, applied in a fixed order, each justified by the
//! `steno-analysis` effect/totality facts and re-checked by the
//! independent plan verifier after *every* application:
//!
//! 1. **merge-limits** — `Take(a)·Take(b) → Take(min(a,b))`,
//!    `Skip(a)·Skip(b) → Skip(a+b)` (always sound; Take/Skip never
//!    commute with each other).
//! 2. **hoist-limit** — `Trans(f)·Take(n) → Take(n)·Trans(f)` (same for
//!    `Skip`) when `f` is a pure, total 1:1 map: it preserves element
//!    counts, and hoisting the limit means `f` runs on `n` elements
//!    instead of all of them. Requires totality because the hoisted form
//!    no longer evaluates `f` on dropped elements. Purity is what
//!    justifies reordering around UDF calls: a map calling an *impure*
//!    UDF keeps its limit after it, because hoisting changes how often
//!    the UDF runs.
//!
//! Both rules are profitable on every input, so the pass needs no run
//! time facts: a plan is compiled once, blind, and never revisited.
//! Fusion is left to the element-wise fuser
//! (`steno_quil::passes::fuse_elementwise`) that runs right after this
//! pass: it composes adjacent maps and folds adjacent filters into one
//! conjunction.

use std::convert::Infallible;
use std::fmt;

use steno_analysis::{analyze, verify};
use steno_expr::typecheck::TyEnv;
use steno_expr::{Expr, Ty, UdfRegistry};
use steno_quil::ir::{PredKind, QuilChain, QuilOp, TransKind};

/// One rewrite decision: which rule fired where, and whether the
/// rewritten plan survived re-verification (`applied: false` means the
/// verifier rejected it and the rewrite was dropped).
#[derive(Clone, Debug, PartialEq)]
pub struct RewriteEvent {
    /// Stable rule name (`"merge-limits"` or `"hoist-limit"`).
    pub rule: &'static str,
    /// Human-readable description of the specific application.
    pub detail: String,
    /// `false` when the plan verifier rejected the rewritten chain and
    /// the rewrite was reverted.
    pub applied: bool,
}

impl fmt::Display for RewriteEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.applied {
            write!(f, "{}: {}", self.rule, self.detail)
        } else {
            write!(f, "{}: {} [dropped: failed verification]", self.rule, self.detail)
        }
    }
}

/// The rewritten chain plus the full decision log.
#[derive(Clone, Debug)]
pub struct RewriteOutcome {
    /// The (possibly) rewritten chain.
    pub chain: QuilChain,
    /// Every rewrite attempted, in application order.
    pub log: Vec<RewriteEvent>,
}

/// Applies the algebraic rewrite rules to `chain`.
///
/// Every applied rewrite has been re-checked by
/// [`steno_analysis::verify`](fn@steno_analysis::verify); rewrites the
/// verifier rejects are reverted and logged with `applied: false`. The
/// third parameter is uninhabited: only `None` can be passed, and it
/// stays only so existing callers compile unchanged.
pub fn rewrite(
    chain: &QuilChain,
    udfs: &UdfRegistry,
    _unused: Option<Infallible>,
) -> RewriteOutcome {
    let mut cur = chain.clone();
    let mut log = Vec::new();
    merge_limits(&mut cur, udfs, &mut log);
    hoist_limits(&mut cur, udfs, &mut log);
    RewriteOutcome { chain: cur, log }
}

/// Applies `candidate` if the independent plan verifier accepts it,
/// logging the decision either way. Returns whether it was applied.
fn apply_verified(
    cur: &mut QuilChain,
    candidate: QuilChain,
    udfs: &UdfRegistry,
    rule: &'static str,
    detail: String,
    log: &mut Vec<RewriteEvent>,
) -> bool {
    let ok = verify(&candidate, udfs).is_ok();
    if ok {
        *cur = candidate;
    }
    log.push(RewriteEvent {
        rule,
        detail,
        applied: ok,
    });
    ok
}

// ---------------------------------------------------------------------
// Purity / totality facts.
// ---------------------------------------------------------------------

/// `true` when evaluating `body` (with `param: elem_ty` in scope) is
/// *safe to reorder, duplicate, or skip*: deterministic, effect-free,
/// and total (provably cannot trap).
///
/// The abstract interpreter marks any expression containing a UDF call
/// impure ("the analysis cannot see into it"); we refine that with the
/// registry's caller-supplied purity contract — an expression whose only
/// opacity is calls to functions registered via
/// [`UdfRegistry::register_pure`] counts as pure. Trap facts stay with
/// the analyzer: a division whose divisor flows from a call result is
/// unproven and blocks the rewrite.
fn safe_to_reorder(body: &Expr, param: &str, elem_ty: &Ty, udfs: &UdfRegistry) -> bool {
    let env = TyEnv::new().with(param, elem_ty.clone());
    let facts = analyze(body, &env);
    if facts.may_trap() {
        return false;
    }
    if facts.pure {
        return true;
    }
    // Impurity can only come from calls; accept iff every callee is
    // registered pure.
    let mut all_pure = true;
    body.visit(&mut |e| {
        if let Expr::Call(name, _) = e {
            all_pure &= udfs.is_pure(name);
        }
    });
    all_pure
}

/// A short display of a predicate/operator position for the log.
fn at(op: &QuilOp) -> String {
    match op.span().op_index {
        Some(i) => format!("op#{i}"),
        None => "op#?".to_string(),
    }
}

// ---------------------------------------------------------------------
// Rule 1: merge adjacent Take/Take and Skip/Skip.
// ---------------------------------------------------------------------

fn merge_limits(cur: &mut QuilChain, udfs: &UdfRegistry, log: &mut Vec<RewriteEvent>) {
    let mut i = 0;
    while i + 1 < cur.ops.len() {
        let merged = match (&cur.ops[i], &cur.ops[i + 1]) {
            (
                QuilOp::Pred {
                    param,
                    kind: PredKind::Take(a),
                    elem_ty,
                    span,
                },
                QuilOp::Pred {
                    kind: PredKind::Take(b),
                    ..
                },
            ) => Some((
                QuilOp::Pred {
                    param: param.clone(),
                    kind: PredKind::Take((*a).min(*b)),
                    elem_ty: elem_ty.clone(),
                    span: *span,
                },
                format!("Take({a})·Take({b}) → Take({})", (*a).min(*b)),
            )),
            (
                QuilOp::Pred {
                    param,
                    kind: PredKind::Skip(a),
                    elem_ty,
                    span,
                },
                QuilOp::Pred {
                    kind: PredKind::Skip(b),
                    ..
                },
            ) => Some((
                QuilOp::Pred {
                    param: param.clone(),
                    kind: PredKind::Skip(a.saturating_add(*b)),
                    elem_ty: elem_ty.clone(),
                    span: *span,
                },
                format!("Skip({a})·Skip({b}) → Skip({})", a.saturating_add(*b)),
            )),
            _ => None,
        };
        match merged {
            Some((op, detail)) => {
                let mut candidate = cur.clone();
                candidate.ops.splice(i..=i + 1, [op]);
                if !apply_verified(cur, candidate, udfs, "merge-limits", detail, log) {
                    i += 1;
                }
            }
            None => i += 1,
        }
    }
}

// ---------------------------------------------------------------------
// Rule 2: hoist Take/Skip before pure total maps.
// ---------------------------------------------------------------------

fn hoist_limits(cur: &mut QuilChain, udfs: &UdfRegistry, log: &mut Vec<RewriteEvent>) {
    // Bubble each limit leftward to a fixpoint (bounded by ops²).
    let mut moved = true;
    while moved {
        moved = false;
        let mut i = 0;
        while i + 1 < cur.ops.len() {
            let hoist = match (&cur.ops[i], &cur.ops[i + 1]) {
                (
                    QuilOp::Trans {
                        param,
                        kind: TransKind::Expr(f),
                        in_ty,
                        ..
                    },
                    QuilOp::Pred {
                        param: lim_param,
                        kind: kind @ (PredKind::Take(_) | PredKind::Skip(_)),
                        span: lim_span,
                        ..
                    },
                ) if safe_to_reorder(f, param, in_ty, udfs) => Some((
                    QuilOp::Pred {
                        param: lim_param.clone(),
                        kind: kind.clone(),
                        elem_ty: in_ty.clone(),
                        span: *lim_span,
                    },
                    format!(
                        "{} moved before map {} (1:1, pure, total)",
                        match kind {
                            PredKind::Take(n) => format!("Take({n})"),
                            PredKind::Skip(n) => format!("Skip({n})"),
                            _ => String::new(),
                        },
                        at(&cur.ops[i])
                    ),
                )),
                _ => None,
            };
            match hoist {
                Some((limit, detail)) => {
                    let mut candidate = cur.clone();
                    let trans = candidate.ops.remove(i);
                    candidate.ops[i] = limit;
                    candidate.ops.insert(i + 1, trans);
                    if apply_verified(cur, candidate, udfs, "hoist-limit", detail, log) {
                        moved = true;
                    }
                    i += 1;
                }
                None => i += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::typecheck::TyEnv;
    use steno_query::typing::SourceTypes;
    use steno_query::Query;
    use steno_quil::lower::{lower_with, LowerOptions};

    fn f64_srcs() -> SourceTypes {
        SourceTypes::new().with("xs", Ty::F64)
    }

    fn lower_q(q: &steno_query::QueryExpr, udfs: &UdfRegistry) -> QuilChain {
        lower_with(q, &f64_srcs(), &TyEnv::new(), udfs, LowerOptions::default()).unwrap()
    }

    #[test]
    fn adjacent_takes_merge() {
        let q = Query::source("xs").take(10).take(3).sum().build();
        let chain = lower_q(&q, &UdfRegistry::new());
        let out = rewrite(&chain, &UdfRegistry::new(), None);
        assert_eq!(out.log.len(), 1);
        assert_eq!(out.log[0].rule, "merge-limits");
        assert!(out.log[0].applied);
        assert_eq!(out.chain.ops.len(), 1);
        assert!(matches!(
            &out.chain.ops[0],
            QuilOp::Pred {
                kind: PredKind::Take(3),
                ..
            }
        ));
    }

    #[test]
    fn take_hoists_before_pure_map() {
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::litf(2.0), "x")
            .take(5)
            .sum()
            .build();
        let chain = lower_q(&q, &UdfRegistry::new());
        let out = rewrite(&chain, &UdfRegistry::new(), None);
        assert!(out.log.iter().any(|e| e.rule == "hoist-limit" && e.applied));
        assert!(matches!(
            &out.chain.ops[0],
            QuilOp::Pred {
                kind: PredKind::Take(5),
                ..
            }
        ));
        assert!(matches!(&out.chain.ops[1], QuilOp::Trans { .. }));
    }

    #[test]
    fn take_does_not_hoist_past_impure_map() {
        let mut udfs = UdfRegistry::new();
        udfs.register("noise", vec![Ty::F64], Ty::F64, |args| args[0].clone());
        let q = Query::source("xs")
            .select(Expr::call("noise", vec![Expr::var("x")]), "x")
            .take(5)
            .sum()
            .build();
        let chain = lower_q(&q, &udfs);
        let out = rewrite(&chain, &udfs, None);
        assert!(!out.log.iter().any(|e| e.rule == "hoist-limit"));
        assert!(matches!(&out.chain.ops[0], QuilOp::Trans { .. }));
    }

    #[test]
    fn rewritten_chains_evaluate_identically() {
        // End-to-end spot check at the rewrite layer (the full corpus
        // differential lives in tests/rewrite_differential.rs).
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::litf(2.0), "x")
            .select(Expr::var("y") + Expr::litf(1.0), "y")
            .take(9)
            .take(4)
            .sum()
            .build();
        let chain = lower_q(&q, &UdfRegistry::new());
        let out = rewrite(&chain, &UdfRegistry::new(), None);
        assert!(out.log.iter().all(|e| e.applied));
        assert!(!out.log.is_empty());
        assert!(verify(&out.chain, &UdfRegistry::new()).is_ok());
    }
}
