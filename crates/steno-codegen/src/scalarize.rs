//! Scalar replacement of pair-typed locals (record flattening).
//!
//! The paper's generated C# declares each aggregate as a local at α and
//! updates it at μ (Figs. 7a, 8a); the JIT keeps such a local in
//! registers. A pair-typed local — `average`'s `(sum, count)`, a tuple
//! seed of `aggregate`, a `select` producing a tuple — would otherwise be
//! one boxed value rebuilt every iteration. This pass splits it into one
//! scalar local per leaf, the record-flattening step of "Building
//! Efficient Query Engines in a High-Level Language", so the back end
//! sees only `f64`/`i64`/`bool` locals.
//!
//! Rules:
//! * **Candidate:** a [`Stmt::Decl`] whose type is a tree of pairs with
//!   only `f64`/`i64`/`bool` leaves, declared once, whose initializer and
//!   every assignment are pair-construction trees matching that type.
//!   Anything else (a pair-valued `if`, a UDF returning a pair, a copy of
//!   another pair) leaves the local boxed, untouched.
//! * **Reads:** `name.i.j…` down to a leaf becomes the leaf local; a read
//!   of the whole value or of an inner pair is rebuilt with `MkPair`
//!   from the leaves.
//! * **Assignments:** `name = (e0, e1)` becomes one assignment per leaf,
//!   still evaluated left to right, so trap order is unchanged. When a
//!   leaf expression reads a leaf assigned earlier in the same group (a
//!   swap), every leaf is first evaluated into a fresh temporary.
//!
//! Leaf and temporary names come from the caller's fresh-name source,
//! so they never collide with generator or user names.

use steno_expr::{Expr, Ty};

use crate::imp::{ImpProgram, LoopHeader, SinkDecl, Stmt};

/// The scalar locals standing in for one pair-typed local.
enum Shape {
    Leaf(String, Ty),
    Pair(Box<Shape>, Box<Shape>),
}

impl Shape {
    fn new(ty: &Ty, fresh: &mut dyn FnMut() -> String) -> Shape {
        match ty {
            Ty::Pair(a, b) => Shape::Pair(
                Box::new(Shape::new(a, fresh)),
                Box::new(Shape::new(b, fresh)),
            ),
            leaf => Shape::Leaf(fresh(), leaf.clone()),
        }
    }

    /// The leaves (name, type), left to right.
    fn leaves(&self, out: &mut Vec<(String, Ty)>) {
        match self {
            Shape::Leaf(name, ty) => out.push((name.clone(), ty.clone())),
            Shape::Pair(a, b) => {
                a.leaves(out);
                b.leaves(out);
            }
        }
    }

    /// The value this shape holds, rebuilt from its leaves.
    fn rebuild(&self) -> Expr {
        match self {
            Shape::Leaf(name, _) => Expr::var(name.clone()),
            Shape::Pair(a, b) => Expr::mk_pair(a.rebuild(), b.rebuild()),
        }
    }
}

/// Whether `ty` is a pair tree with only scalar leaves.
fn flattenable(ty: &Ty) -> bool {
    fn scalar_tree(ty: &Ty) -> bool {
        match ty {
            Ty::F64 | Ty::I64 | Ty::Bool => true,
            Ty::Pair(a, b) => scalar_tree(a) && scalar_tree(b),
            _ => false,
        }
    }
    matches!(ty, Ty::Pair(..)) && scalar_tree(ty)
}

/// Whether `e` is a pair-construction tree matching `ty` down to its
/// scalar leaves.
fn is_tree(e: &Expr, ty: &Ty) -> bool {
    match (ty, e) {
        (Ty::Pair(ta, tb), Expr::MkPair(a, b)) => is_tree(a, ta) && is_tree(b, tb),
        (Ty::Pair(..), _) => false,
        _ => true,
    }
}

/// The leaf expressions of a construction tree, left to right. A leaf
/// has a scalar type, so it is never itself a `MkPair`.
fn tree_leaves(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::MkPair(a, b) => {
            tree_leaves(*a, out);
            tree_leaves(*b, out);
        }
        leaf => out.push(leaf),
    }
}

fn reads(e: &Expr, name: &str) -> bool {
    let mut found = false;
    e.visit(&mut |n| found |= matches!(n, Expr::Var(v) if v == name));
    found
}

/// Visits every statement reachable from `stmts` in program text order,
/// descending into spliced blocks, loop bodies and branches.
fn visit<'a>(p: &'a ImpProgram, stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::BlockRef(b) | Stmt::For { body: b, .. } => visit(p, p.block(*b), f),
            Stmt::If { then, els, .. } => {
                visit(p, then, f);
                visit(p, els, f);
            }
            _ => {}
        }
    }
}

/// Replaces every candidate pair-typed local of `p` by scalar locals.
/// `fresh(name)` returns a new, unused variable name for a leaf or a
/// temporary of the local `name`. A program without candidates is left
/// unchanged and draws no names.
pub(crate) fn scalarize(p: &mut ImpProgram, fresh: &mut dyn FnMut(&str) -> String) {
    // Candidates in text order: flattenable declarations initialized by a
    // construction tree. Most programs have none and stop here.
    let root = p.block(p.root);
    let mut order: Vec<(&str, &Ty)> = Vec::new();
    visit(p, root, &mut |s| {
        if let Stmt::Decl { name, ty, init } = s {
            if flattenable(ty) && is_tree(init, ty) {
                order.push((name, ty));
            }
        }
    });
    if order.is_empty() {
        return;
    }
    // Then everything that disqualifies one: a second declaration, an
    // assignment that is not a construction tree, or a binder that
    // reuses the name.
    let mut decls = vec![0usize; order.len()];
    let mut keep = vec![true; order.len()];
    let index = |name: &str| order.iter().position(|(n, _)| *n == name);
    visit(p, root, &mut |s| {
        let binders = match s {
            Stmt::Decl { name, .. } => {
                if let Some(i) = index(name) {
                    decls[i] += 1;
                }
                return;
            }
            Stmt::Assign { name, expr } => {
                if let Some(i) = index(name) {
                    keep[i] &= is_tree(expr, order[i].1);
                }
                return;
            }
            Stmt::For { elem_var, .. } => [Some(elem_var), None],
            Stmt::GroupAggUpdate {
                acc_param,
                elem_param,
                ..
            } => [Some(acc_param), Some(elem_param)],
            _ => return,
        };
        for i in binders.into_iter().flatten().filter_map(|n| index(n)) {
            keep[i] = false;
        }
    });
    let shapes: Vec<(String, Shape)> = order
        .iter()
        .zip(decls)
        .zip(keep)
        .filter(|((_, n), k)| *n == 1 && *k)
        .map(|(((name, ty), _), _)| (name.to_string(), Shape::new(ty, &mut || fresh(name))))
        .collect();
    if shapes.is_empty() {
        return;
    }

    let mut rw = Rewriter { shapes, fresh };
    for i in 0..p.blocks.len() {
        let block = std::mem::take(&mut p.blocks[i]);
        p.blocks[i] = rw.stmts(block);
    }
}

struct Rewriter<'f> {
    /// Each replaced local and its leaves.
    shapes: Vec<(String, Shape)>,
    fresh: &'f mut dyn FnMut(&str) -> String,
}

impl Rewriter<'_> {
    fn shape(&self, name: &str) -> Option<&Shape> {
        self.shapes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, shape)| shape)
    }

    fn stmts(&mut self, stmts: Vec<Stmt>) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.stmt(s, &mut out);
        }
        out
    }

    fn stmt(&mut self, mut s: Stmt, out: &mut Vec<Stmt>) {
        match s {
            Stmt::Decl { name, init, .. } if self.shape(&name).is_some() => {
                for (leaf, ty, init) in self.split(&name, init) {
                    out.push(Stmt::Decl {
                        name: leaf,
                        ty,
                        init,
                    });
                }
            }
            Stmt::Assign { name, expr } if self.shape(&name).is_some() => {
                let parts = self.split(&name, expr);
                let clobbers = parts
                    .iter()
                    .enumerate()
                    .any(|(k, (_, _, e))| parts[..k].iter().any(|(leaf, ..)| reads(e, leaf)));
                if !clobbers {
                    for (leaf, _, expr) in parts {
                        out.push(Stmt::Assign { name: leaf, expr });
                    }
                    return;
                }
                let mut moves = Vec::with_capacity(parts.len());
                for (leaf, ty, init) in parts {
                    let tmp = (self.fresh)(&name);
                    moves.push(Stmt::Assign {
                        name: leaf,
                        expr: Expr::var(tmp.clone()),
                    });
                    out.push(Stmt::Decl {
                        name: tmp,
                        ty,
                        init,
                    });
                }
                out.extend(moves);
            }
            _ => {
                self.stmt_exprs(&mut s);
                out.push(s);
            }
        }
    }

    /// Rewrites the reads in every expression of `s`, in place.
    fn stmt_exprs(&mut self, s: &mut Stmt) {
        match s {
            Stmt::Decl { init: e, .. }
            | Stmt::Assign { expr: e, .. }
            | Stmt::IfNotContinue { cond: e }
            | Stmt::IfBreak { cond: e }
            | Stmt::Yield { value: e }
            | Stmt::Return { value: e }
            | Stmt::DeclSink {
                decl: SinkDecl::GroupAgg { init: e, .. },
                ..
            }
            | Stmt::For {
                header: LoopHeader::SeqExpr { expr: e, .. },
                ..
            } => self.expr(e),
            Stmt::If { cond, then, els } => {
                self.expr(cond);
                *then = self.stmts(std::mem::take(then));
                *els = self.stmts(std::mem::take(els));
            }
            Stmt::GroupPut { key, value, .. } => {
                self.expr(key);
                self.expr(value);
            }
            // The statement's own parameters never name a replaced local
            // (`scalarize` rejects those), so every other name in
            // `update` is free and reads the enclosing scope.
            Stmt::GroupAggUpdate {
                key, value, update, ..
            } => {
                self.expr(key);
                self.expr(value);
                self.expr(update);
            }
            Stmt::SinkPush { value, key, .. } => {
                self.expr(value);
                if let Some(k) = key {
                    self.expr(k);
                }
            }
            _ => {}
        }
    }

    /// For a replaced local `name`: each leaf with its type and its
    /// rewritten part of the construction tree `e` (which the candidate
    /// scan checked).
    fn split(&self, name: &str, e: Expr) -> Vec<(String, Ty, Expr)> {
        let (mut leaves, mut parts) = (Vec::new(), Vec::new());
        if let Some(shape) = self.shape(name) {
            shape.leaves(&mut leaves);
        }
        tree_leaves(e, &mut parts);
        leaves
            .into_iter()
            .zip(parts)
            .map(|((leaf, ty), mut part)| {
                self.expr(&mut part);
                (leaf, ty, part)
            })
            .collect()
    }

    /// The part of a replaced local that `e` reads, when `e` is
    /// `name.i.j…` or a bare `name`.
    fn project(&self, e: &Expr) -> Option<&Shape> {
        match e {
            Expr::Var(v) => self.shape(v),
            Expr::Field(a, i) => match self.project(a)? {
                Shape::Pair(l, r) => Some(if *i == 0 { l } else { r }),
                Shape::Leaf(..) => None,
            },
            _ => None,
        }
    }

    /// Rewrites the reads of replaced locals in `e`, in place.
    fn expr(&self, e: &mut Expr) {
        if let Some(shape) = self.project(e) {
            *e = shape.rebuild();
            return;
        }
        match e {
            Expr::Var(_) | Expr::LitF64(_) | Expr::LitI64(_) | Expr::LitBool(_) => {}
            Expr::Bin(_, a, b) | Expr::RowIndex(a, b) | Expr::MkPair(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Expr::Un(_, a) | Expr::Field(a, _) | Expr::RowLen(a) | Expr::Cast(_, a) => self.expr(a),
            Expr::Call(_, args) => args.iter_mut().for_each(|a| self.expr(a)),
            Expr::If(c, t, els) => {
                self.expr(c);
                self.expr(t);
                self.expr(els);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use steno_expr::UdfRegistry;
    use steno_query::typing::SourceTypes;
    use steno_query::Query;
    use steno_quil::lower;

    fn acc() -> Expr {
        Expr::var("acc")
    }

    fn gen_aggregate(seed: Expr, update: Expr) -> ImpProgram {
        let q = Query::source("xs")
            .aggregate(seed, "acc", "x", update)
            .build();
        let chain = lower(
            &q,
            &SourceTypes::new().with("xs", Ty::F64),
            &UdfRegistry::new(),
        )
        .unwrap();
        generate(&chain).unwrap()
    }

    fn loop_body(p: &ImpProgram) -> Vec<Stmt> {
        let flat = p.flatten(p.root);
        let Some(Stmt::For { body, .. }) = flat.iter().find(|s| matches!(s, Stmt::For { .. }))
        else {
            panic!("no loop in {flat:?}");
        };
        p.flatten(*body)
    }

    fn render(stmts: &[Stmt]) -> Vec<String> {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Decl { name, init, .. } => format!("let {name} = {init}"),
                Stmt::Assign { name, expr } => format!("{name} = {expr}"),
                Stmt::Return { value } => format!("return {value}"),
                other => format!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_swap_evaluates_every_leaf_into_a_temporary_first() {
        let p = gen_aggregate(
            Expr::mk_pair(Expr::litf(0.0), Expr::litf(1.0)),
            Expr::mk_pair(acc().field(1), acc().field(0) + Expr::var("x")),
        );
        assert_eq!(
            render(&loop_body(&p)),
            [
                "let agg_3 = agg_2",
                "let agg_4 = (agg_1 + elem_0)",
                "agg_1 = agg_3",
                "agg_2 = agg_4",
            ]
        );
        let flat = p.flatten(p.root);
        assert_eq!(render(&flat[3..]), ["return (agg_1, agg_2)"]);
    }

    #[test]
    fn reads_of_later_leaves_need_no_temporaries() {
        // Leaf 0 reads leaf 1, which is assigned after it: sequential
        // assignment already sees the old value.
        let p = gen_aggregate(
            Expr::mk_pair(Expr::litf(0.0), Expr::liti(0)),
            Expr::mk_pair(
                acc().field(0) + Expr::var("x") * acc().field(1).cast(Ty::F64),
                acc().field(1) + Expr::liti(1),
            ),
        );
        assert_eq!(
            render(&loop_body(&p)),
            [
                "agg_1 = (agg_1 + (elem_0 * (agg_2 as f64)))",
                "agg_2 = (agg_2 + 1)"
            ]
        );
    }

    #[test]
    fn nested_pairs_flatten_to_every_leaf() {
        let seed = Expr::mk_pair(
            Expr::mk_pair(Expr::litf(0.0), Expr::litf(0.0)),
            Expr::liti(0),
        );
        let update = Expr::mk_pair(
            Expr::mk_pair(
                acc().field(0).field(0) + Expr::var("x"),
                acc().field(0).field(1) + Expr::var("x") * Expr::var("x"),
            ),
            acc().field(1) + Expr::liti(1),
        );
        let p = gen_aggregate(seed, update);
        let flat = p.flatten(p.root);
        assert_eq!(
            render(&flat[..3]),
            ["let agg_1 = 0.0", "let agg_2 = 0.0", "let agg_3 = 0"]
        );
        assert_eq!(
            render(&loop_body(&p)),
            [
                "agg_1 = (agg_1 + elem_0)",
                "agg_2 = (agg_2 + (elem_0 * elem_0))",
                "agg_3 = (agg_3 + 1)",
            ]
        );
        assert_eq!(render(&flat[4..]), ["return ((agg_1, agg_2), agg_3)"]);
    }

    #[test]
    fn a_pair_valued_if_keeps_the_local_boxed() {
        let update = Expr::if_(
            Expr::var("x").gt(Expr::litf(0.5)),
            Expr::mk_pair(
                acc().field(0) + Expr::var("x"),
                acc().field(1) + Expr::liti(1),
            ),
            acc(),
        );
        let p = gen_aggregate(Expr::mk_pair(Expr::litf(0.0), Expr::liti(0)), update);
        let flat = p.flatten(p.root);
        assert!(matches!(&flat[0], Stmt::Decl { name, ty: Ty::Pair(..), .. } if name == "agg_0"));
        let body = loop_body(&p);
        assert!(
            matches!(&body[..], [Stmt::Assign { name, expr: Expr::If(..) }] if name == "agg_0")
        );
    }

    #[test]
    fn programs_without_candidates_are_unchanged() {
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let chain = lower(
            &q,
            &SourceTypes::new().with("xs", Ty::F64),
            &UdfRegistry::new(),
        )
        .unwrap();
        let mut p = generate(&chain).unwrap();
        let before = p.blocks.clone();
        let mut drawn = 0;
        scalarize(&mut p, &mut |_| {
            drawn += 1;
            String::new()
        });
        assert_eq!(p.blocks, before);
        assert_eq!(drawn, 0);
    }
}
