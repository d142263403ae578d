//! Verified algebraic rewrites over QUIL chains.
//!
//! Four rules, applied in a fixed order, each justified by the
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
//!    no longer evaluates `f` on dropped elements.
//! 3. **reorder-filters** — adjacent pure, total `Pred(p)·Pred(q)` swap
//!    when cost × *observed* selectivity says `q` should run first: each
//!    predicate is ranked by `cost / (1 − selectivity)` (static
//!    expression cost over measured rejection rate — the classic rule
//!    that minimizes expected filter work for independent predicates),
//!    and a cheaper-per-rejection filter bubbles ahead, with a relative
//!    margin so noise cannot flap the order. The win is on the scalar
//!    tier, where conjoined predicates short-circuit; the batch tier
//!    evaluates predicate columns densely and is order-insensitive.
//! 4. **pushdown-filter** — `Trans(f)·Pred(p) → Pred(p∘f)·Trans(f)` when
//!    `f` and `p` are pure and total and observed selectivity says the
//!    filter keeps at most half the elements. Purity is what justifies
//!    reordering around UDF calls: an *impure* UDF in either body blocks
//!    the rewrite, because pushing the filter changes how often the map
//!    runs. Survivors re-run `f`, so the rule also guards against
//!    duplicating non-trivial work into a predicate that uses its
//!    parameter more than once.
//!
//! Fusion is deliberately left to the element-wise fuser
//! (`steno_quil::passes::fuse_elementwise`) that runs right after this
//! pass: it composes adjacent maps (`Trans(f)·Trans(g) → Trans(g∘f)`,
//! under the same no-duplicated-work guard pushdown uses) and folds
//! adjacent filters into one conjunction (sequential guards and a
//! short-circuit `&&` are equivalent). This pass's job is to put the
//! filters in the cheapest order first, which the fuser then preserves
//! inside the conjunction.
//!
//! Rules 3 and 4 only fire with measured selectivities (from
//! [`observe_selectivities`] or the profile-driven re-optimization
//! path); a fresh compile with no feedback applies only the statically
//! profitable rules 1–2.

use std::collections::HashMap;
use std::fmt;

use steno_analysis::{analyze, verify};
use steno_expr::eval::{eval, Env};
use steno_expr::subst::subst;
use steno_expr::typecheck::TyEnv;
use steno_expr::{DataContext, Expr, Ty, UdfRegistry};
use steno_quil::ir::{PredKind, QuilChain, QuilOp, SrcDesc, TransKind};

/// One rewrite decision: which rule fired where, and whether the
/// rewritten plan survived re-verification (`applied: false` means the
/// verifier rejected it and the rewrite was dropped).
#[derive(Clone, Debug, PartialEq)]
pub struct RewriteEvent {
    /// Stable rule name (`"merge-limits"`, `"hoist-limit"`,
    /// `"reorder-filters"`, `"pushdown-filter"`).
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

/// Relative rank margin for filter reordering: a swap only fires when
/// the later filter's rank is below this fraction of the earlier one's —
/// hysteresis so measurement noise cannot flip filter order back and
/// forth across recompiles.
const RANK_MARGIN: f64 = 0.9;

/// Cost weight of one UDF call relative to a primitive expression node:
/// a registered function call (dynamic dispatch, boxed arguments) is far
/// heavier than an inline arithmetic op.
const CALL_COST: usize = 8;

/// Pushdown only fires when the filter is observed to keep at most this
/// fraction of elements (otherwise the duplicated map work cannot pay).
const PUSHDOWN_MAX_SELECTIVITY: f64 = 0.5;

/// Applies the algebraic rewrite rules to `chain`.
///
/// `selectivity` maps a predicate's lowered operator index
/// ([`steno_quil::ir::OpSpan::op_index`]) to its observed pass fraction
/// in `[0, 1]`; `None` (or a missing entry) disables the
/// feedback-directed rules for that predicate. Every applied rewrite has
/// been re-checked by
/// [`steno_analysis::verify`](fn@steno_analysis::verify); rewrites the
/// verifier rejects are reverted and logged with `applied: false`.
pub fn rewrite(
    chain: &QuilChain,
    udfs: &UdfRegistry,
    selectivity: Option<&HashMap<u32, f64>>,
) -> RewriteOutcome {
    let mut cur = chain.clone();
    let mut log = Vec::new();

    merge_limits(&mut cur, udfs, &mut log);
    hoist_limits(&mut cur, udfs, &mut log);
    if let Some(sel) = selectivity {
        reorder_filters(&mut cur, udfs, sel, &mut log);
        pushdown_filters(&mut cur, udfs, sel, &mut log);
    }

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

/// Static per-evaluation cost of an expression: node count with UDF
/// calls weighted [`CALL_COST`]× — the per-predicate cost estimate that
/// lets reordering weigh cost × selectivity rather than selectivity
/// alone.
fn expr_cost(e: &Expr) -> f64 {
    let mut n = 0usize;
    e.visit(&mut |node| {
        n += if matches!(node, Expr::Call(..)) {
            CALL_COST
        } else {
            1
        };
    });
    n as f64
}

/// Ordering rank for an independent predicate: expected evaluation cost
/// per rejected element, `cost / (1 − selectivity)`. Running filters in
/// ascending rank minimizes total expected filter work; a filter that
/// rejects nothing (selectivity → 1) ranks unboundedly late.
fn filter_rank(cost: f64, sel: f64) -> f64 {
    cost / (1.0 - sel).max(1e-6)
}

/// Counts free occurrences of `name` in `e`.
fn occurrences(e: &Expr, name: &str) -> usize {
    let mut n = 0;
    e.visit(&mut |node| {
        if matches!(node, Expr::Var(v) if v == name) {
            n += 1;
        }
    });
    n
}

/// `true` for expressions cheap enough to duplicate (mirrors the
/// element-wise fuser's guard).
fn is_trivial(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Var(_) | Expr::LitF64(_) | Expr::LitI64(_) | Expr::LitBool(_)
    ) || matches!(e, Expr::Field(inner, _) if matches!(**inner, Expr::Var(_)))
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

// ---------------------------------------------------------------------
// Rule 3: cost × selectivity filter reordering.
// ---------------------------------------------------------------------

fn reorder_filters(
    cur: &mut QuilChain,
    udfs: &UdfRegistry,
    sel: &HashMap<u32, f64>,
    log: &mut Vec<RewriteEvent>,
) {
    // Bubble-sort adjacent filter pairs by rank = cost / (1 − observed
    // selectivity); at most ops² passes, each swap individually verified.
    let mut swapped = true;
    while swapped {
        swapped = false;
        let mut i = 0;
        while i + 1 < cur.ops.len() {
            let swap = match (&cur.ops[i], &cur.ops[i + 1]) {
                (
                    a @ QuilOp::Pred {
                        param: pa,
                        kind: PredKind::Expr(ea),
                        elem_ty,
                        ..
                    },
                    b @ QuilOp::Pred {
                        param: pb,
                        kind: PredKind::Expr(eb),
                        ..
                    },
                ) => {
                    let (sa, sb) = match (
                        a.span().op_index.and_then(|k| sel.get(&k)),
                        b.span().op_index.and_then(|k| sel.get(&k)),
                    ) {
                        (Some(sa), Some(sb)) => (*sa, *sb),
                        _ => {
                            i += 1;
                            continue;
                        }
                    };
                    let (ca, cb) = (expr_cost(ea), expr_cost(eb));
                    let (ra, rb) = (filter_rank(ca, sa), filter_rank(cb, sb));
                    if rb < ra * RANK_MARGIN
                        && safe_to_reorder(ea, pa, elem_ty, udfs)
                        && safe_to_reorder(eb, pb, elem_ty, udfs)
                    {
                        Some(format!(
                            "filter {} (cost {cb:.0} × sel≈{sb:.2}, rank {rb:.1}) before \
                             filter {} (cost {ca:.0} × sel≈{sa:.2}, rank {ra:.1})",
                            at(b),
                            at(a),
                        ))
                    } else {
                        None
                    }
                }
                _ => None,
            };
            match swap {
                Some(detail) => {
                    let mut candidate = cur.clone();
                    candidate.ops.swap(i, i + 1);
                    if apply_verified(cur, candidate, udfs, "reorder-filters", detail, log) {
                        swapped = true;
                    }
                    i += 1;
                }
                None => i += 1,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 4: predicate pushdown past pure maps.
// ---------------------------------------------------------------------

fn pushdown_filters(
    cur: &mut QuilChain,
    udfs: &UdfRegistry,
    sel: &HashMap<u32, f64>,
    log: &mut Vec<RewriteEvent>,
) {
    let mut moved = true;
    while moved {
        moved = false;
        let mut i = 0;
        while i + 1 < cur.ops.len() {
            let push = match (&cur.ops[i], &cur.ops[i + 1]) {
                (
                    QuilOp::Trans {
                        param: fp,
                        kind: TransKind::Expr(f),
                        in_ty,
                        out_ty,
                        ..
                    },
                    pred @ QuilOp::Pred {
                        param: pp,
                        kind: PredKind::Expr(p),
                        span: pred_span,
                        ..
                    },
                ) => {
                    let observed = pred.span().op_index.and_then(|k| sel.get(&k)).copied();
                    let selective = observed.is_some_and(|s| s <= PUSHDOWN_MAX_SELECTIVITY);
                    // Substitution safety: the predicate must use its
                    // parameter at most once (or the map be trivial) so
                    // the map body is not duplicated inside the
                    // predicate, and it must not capture the map's own
                    // parameter name.
                    let no_capture = pp == fp || occurrences(p, fp) == 0;
                    if selective
                        && no_capture
                        && (occurrences(p, pp) <= 1 || is_trivial(f))
                        && safe_to_reorder(f, fp, in_ty, udfs)
                        && safe_to_reorder(p, pp, out_ty, udfs)
                    {
                        Some((
                            QuilOp::Pred {
                                param: fp.clone(),
                                kind: PredKind::Expr(subst(p, pp, f)),
                                elem_ty: in_ty.clone(),
                                span: *pred_span,
                            },
                            format!(
                                "filter {} (sel≈{:.2}) pushed before map {}",
                                at(pred),
                                observed.unwrap_or(f64::NAN),
                                at(&cur.ops[i]),
                            ),
                        ))
                    } else {
                        None
                    }
                }
                _ => None,
            };
            match push {
                Some((pushed, detail)) => {
                    let mut candidate = cur.clone();
                    let trans = candidate.ops.remove(i);
                    candidate.ops[i] = pushed;
                    candidate.ops.insert(i + 1, trans);
                    if apply_verified(cur, candidate, udfs, "pushdown-filter", detail, log) {
                        moved = true;
                    }
                    i += 1;
                }
                None => i += 1,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Selectivity observation.
// ---------------------------------------------------------------------

/// Measures per-predicate selectivity by evaluating the chain's leading
/// element-wise prefix over (at most `cap` elements of) the actual
/// source data.
///
/// Returns `op_index → pass fraction` for each `Pred(expr)` in the
/// prefix, *conditioned on the predicates before it* — exactly the
/// quantity the scalar tier's short-circuit evaluation cares about.
/// Sampling walks `Trans(expr)` ops through the reference evaluator and
/// stops at the first operator it cannot model (nested chains, sinks,
/// Take/Skip, or any evaluation error): predicates beyond that point
/// simply get no entry, which disables the feedback rules for them.
pub fn observe_selectivities(
    chain: &QuilChain,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    cap: usize,
) -> HashMap<u32, f64> {
    let mut counts: HashMap<u32, (u64, u64)> = HashMap::new();
    let SrcDesc::Collection { name, .. } = &chain.src else {
        return HashMap::new();
    };
    let Some(col) = ctx.source(name) else {
        return HashMap::new();
    };

    // The evaluable prefix: Trans(expr) and Pred(expr) only.
    let mut prefix = 0;
    for op in &chain.ops {
        match op {
            QuilOp::Trans {
                kind: TransKind::Expr(_),
                ..
            }
            | QuilOp::Pred {
                kind: PredKind::Expr(_),
                ..
            } => prefix += 1,
            _ => break,
        }
    }

    let n = col.len().min(cap);
    'elems: for idx in 0..n {
        let mut val = col.value_at(idx);
        for op in &chain.ops[..prefix] {
            match op {
                QuilOp::Trans {
                    param,
                    kind: TransKind::Expr(e),
                    ..
                } => {
                    let env = Env::new().with(param.clone(), val);
                    match eval(e, &env, udfs) {
                        Ok(v) => val = v,
                        Err(_) => break 'elems,
                    }
                }
                QuilOp::Pred {
                    param,
                    kind: PredKind::Expr(e),
                    span,
                    ..
                } => {
                    let env = Env::new().with(param.clone(), val.clone());
                    let pass = match eval(e, &env, udfs) {
                        Ok(v) => v.as_bool().unwrap_or(false),
                        Err(_) => break 'elems,
                    };
                    if let Some(k) = span.op_index {
                        let entry = counts.entry(k).or_insert((0, 0));
                        entry.1 += 1;
                        if pass {
                            entry.0 += 1;
                        }
                    }
                    if !pass {
                        continue 'elems;
                    }
                }
                _ => break 'elems,
            }
        }
    }

    counts
        .into_iter()
        .filter(|(_, (_, total))| *total > 0)
        .map(|(k, (passed, total))| (k, passed as f64 / total as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::typecheck::TyEnv;
    use steno_expr::Value;
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
    fn filters_reorder_by_observed_selectivity() {
        let q = Query::source("xs")
            .where_(Expr::var("x").gt(Expr::litf(0.0)), "x") // op#0, not selective
            .where_(Expr::var("x").lt(Expr::litf(0.1)), "x") // op#1, very selective
            .sum()
            .build();
        let chain = lower_q(&q, &UdfRegistry::new());
        let sel = HashMap::from([(0u32, 0.9), (1u32, 0.05)]);
        let out = rewrite(&chain, &UdfRegistry::new(), Some(&sel));
        assert!(out
            .log
            .iter()
            .any(|e| e.rule == "reorder-filters" && e.applied));
        // The selective filter now runs first.
        match &out.chain.ops[0] {
            QuilOp::Pred {
                kind: PredKind::Expr(e),
                ..
            } => assert!(e.to_string().contains('<'), "got {e}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn close_selectivities_do_not_flap() {
        let q = Query::source("xs")
            .where_(Expr::var("x").gt(Expr::litf(0.0)), "x")
            .where_(Expr::var("x").lt(Expr::litf(0.1)), "x")
            .sum()
            .build();
        let chain = lower_q(&q, &UdfRegistry::new());
        let sel = HashMap::from([(0u32, 0.50), (1u32, 0.48)]);
        let out = rewrite(&chain, &UdfRegistry::new(), Some(&sel));
        assert!(!out.log.iter().any(|e| e.rule == "reorder-filters"));
    }

    #[test]
    fn cheap_filter_bubbles_before_expensive_one_at_equal_selectivity() {
        // Same observed selectivity, but the first filter calls a UDF
        // (CALL_COST-weighted) while the second is a bare comparison:
        // rank = cost / (1 − sel) puts the cheap predicate first.
        let mut udfs = UdfRegistry::new();
        udfs.register_pure("score", vec![Ty::F64], Ty::Bool, |_| Value::Bool(true));
        let q = Query::source("xs")
            .where_(Expr::call("score", vec![Expr::var("x")]), "x") // op#0, expensive
            .where_(Expr::var("x").lt(Expr::litf(0.1)), "x") // op#1, cheap
            .sum()
            .build();
        let chain = lower_q(&q, &udfs);
        let sel = HashMap::from([(0u32, 0.5), (1u32, 0.5)]);
        let out = rewrite(&chain, &udfs, Some(&sel));
        let ev = out
            .log
            .iter()
            .find(|e| e.rule == "reorder-filters" && e.applied)
            .unwrap_or_else(|| panic!("no reorder event in {:?}", out.log));
        assert!(ev.detail.contains("rank"), "{}", ev.detail);
        // The cheap comparison now runs first.
        match &out.chain.ops[0] {
            QuilOp::Pred {
                kind: PredKind::Expr(e),
                ..
            } => assert!(e.to_string().contains('<'), "got {e}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn impure_filter_blocks_reordering() {
        let mut udfs = UdfRegistry::new();
        udfs.register("flaky", vec![Ty::F64], Ty::Bool, |_| Value::Bool(true));
        let q = Query::source("xs")
            .where_(Expr::call("flaky", vec![Expr::var("x")]), "x")
            .where_(Expr::var("x").lt(Expr::litf(0.1)), "x")
            .sum()
            .build();
        let chain = lower_q(&q, &udfs);
        let sel = HashMap::from([(0u32, 0.9), (1u32, 0.05)]);
        let out = rewrite(&chain, &udfs, Some(&sel));
        assert!(!out.log.iter().any(|e| e.rule == "reorder-filters"));
    }

    #[test]
    fn pure_registered_filter_reorders() {
        let mut udfs = UdfRegistry::new();
        udfs.register_pure("always", vec![Ty::F64], Ty::Bool, |_| Value::Bool(true));
        let q = Query::source("xs")
            .where_(Expr::call("always", vec![Expr::var("x")]), "x")
            .where_(Expr::var("x").lt(Expr::litf(0.1)), "x")
            .sum()
            .build();
        let chain = lower_q(&q, &udfs);
        let sel = HashMap::from([(0u32, 0.9), (1u32, 0.05)]);
        let out = rewrite(&chain, &udfs, Some(&sel));
        assert!(out
            .log
            .iter()
            .any(|e| e.rule == "reorder-filters" && e.applied));
    }

    #[test]
    fn selective_filter_pushes_past_pure_map() {
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::litf(2.0), "x") // op#0
            .where_(Expr::var("x").lt(Expr::litf(0.1)), "x") // op#1
            .sum()
            .build();
        let chain = lower_q(&q, &UdfRegistry::new());
        let sel = HashMap::from([(1u32, 0.05)]);
        let out = rewrite(&chain, &UdfRegistry::new(), Some(&sel));
        assert!(out
            .log
            .iter()
            .any(|e| e.rule == "pushdown-filter" && e.applied));
        match &out.chain.ops[0] {
            QuilOp::Pred {
                kind: PredKind::Expr(e),
                ..
            } => assert!(e.to_string().contains('*'), "map body must be inlined, got {e}"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&out.chain.ops[1], QuilOp::Trans { .. }));
    }

    #[test]
    fn unselective_filter_stays_after_map() {
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::litf(2.0), "x")
            .where_(Expr::var("x").lt(Expr::litf(0.1)), "x")
            .sum()
            .build();
        let chain = lower_q(&q, &UdfRegistry::new());
        let sel = HashMap::from([(1u32, 0.9)]);
        let out = rewrite(&chain, &UdfRegistry::new(), Some(&sel));
        assert!(!out.log.iter().any(|e| e.rule == "pushdown-filter"));
    }

    #[test]
    fn impure_map_blocks_pushdown() {
        let mut udfs = UdfRegistry::new();
        udfs.register("tick", vec![Ty::F64], Ty::F64, |args| args[0].clone());
        let q = Query::source("xs")
            .select(Expr::call("tick", vec![Expr::var("x")]), "x")
            .where_(Expr::var("x").lt(Expr::litf(0.1)), "x")
            .sum()
            .build();
        let chain = lower_q(&q, &udfs);
        let sel = HashMap::from([(1u32, 0.05)]);
        let out = rewrite(&chain, &udfs, Some(&sel));
        assert!(!out.log.iter().any(|e| e.rule == "pushdown-filter"));
        assert!(matches!(&out.chain.ops[0], QuilOp::Trans { .. }));
    }

    #[test]
    fn observed_selectivity_matches_data() {
        let q = Query::source("xs")
            .where_(Expr::var("x").gt(Expr::litf(0.0)), "x")
            .where_(Expr::var("x").gt(Expr::litf(2.5)), "x")
            .sum()
            .build();
        let chain = lower_q(&q, &UdfRegistry::new());
        let ctx = DataContext::new().with_source("xs", vec![-1.0, 1.0, 2.0, 3.0]);
        let sel = observe_selectivities(&chain, &ctx, &UdfRegistry::new(), 512);
        // op#0 passes 3/4; op#1 sees the 3 survivors and passes 1.
        assert_eq!(sel.get(&0).copied(), Some(0.75));
        assert!((sel.get(&1).copied().unwrap() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_aborts_on_eval_error() {
        // Division by the element traps on 0 — sampling must bail out
        // and report nothing rather than guess.
        let q = Query::source("ns")
            .where_((Expr::liti(10) / Expr::var("x")).gt(Expr::liti(2)), "x")
            .sum()
            .build();
        let srcs = SourceTypes::new().with("ns", Ty::I64);
        let chain =
            lower_with(&q, &srcs, &TyEnv::new(), &UdfRegistry::new(), LowerOptions::default())
                .unwrap();
        let ctx = DataContext::new().with_source("ns", vec![0i64, 1, 2]);
        let sel = observe_selectivities(&chain, &ctx, &UdfRegistry::new(), 512);
        assert!(sel.is_empty());
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
