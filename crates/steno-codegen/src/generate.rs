//! The pushdown-automaton code generator (§4.2, §5).

use steno_expr::subst::subst;
use steno_expr::{Expr, Ty};
use steno_quil::ir::{
    AggDesc, PredKind, QuilChain, QuilOp, SinkKind, SrcDesc, TransKind,
};
use steno_quil::substitute::subst_chain;

use crate::imp::{BlockId, ImpProgram, LoopHeader, SinkDecl, Stmt, Terminal, Window};
use crate::scalarize::scalarize;

/// An internal invariant violation during code generation. Lowered,
/// grammar-valid chains never produce one.
#[derive(Clone, Debug, PartialEq)]
pub struct GenError(pub String);

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "code generation failed: {}", self.0)
    }
}

impl std::error::Error for GenError {}

/// An `(α, μ, ω)` insertion-pointer triple (Fig. 5): statements are
/// appended to the ends of these blocks.
#[derive(Clone, Debug)]
struct Ptrs {
    alpha: BlockId,
    mu: BlockId,
    omega: BlockId,
    /// The block holding the `For` whose body is `μ`, while the pointers
    /// are that loop's own; `None` after a Fig. 11 splice, whose stream
    /// spans several loops and so has no single index window.
    head: Option<BlockId>,
    /// The bodies of the loops the stream runs through, outermost
    /// first: one for a plain stream, more after a splice. An early exit
    /// must leave every one of them.
    bodies: Vec<BlockId>,
}

/// What iterating the pending sink produces, beyond the raw element.
#[derive(Clone, Debug)]
enum SinkPost {
    /// The sink yields usable elements directly.
    None,
    /// A `GroupByAggregate` sink yields `(key, accumulator)` pairs that
    /// must be projected through `finish` and the result selector.
    GroupAgg {
        key_param: String,
        agg_param: String,
        result: Expr,
        finish: Option<Expr>,
        acc_param: String,
        out_ty: Ty,
    },
}

/// The automaton state (Fig. 4), carried together with the current element
/// variable.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum State {
    /// Elements stream through `elem`.
    Iterating {
        /// Current element variable name.
        elem: String,
    },
    /// Elements have been folded into `sink`; iterating it yields
    /// `elem_ty` elements (after `post` projection).
    Sinking {
        /// Sink variable name.
        sink: String,
        /// Raw element type the sink yields.
        elem_ty: Ty,
        /// Post-projection for specialized sinks.
        post: SinkPost,
    },
}

struct Gen {
    blocks: Vec<Vec<Stmt>>,
    stack: Vec<Ptrs>,
    elem_n: usize,
    agg_n: usize,
    sink_n: usize,
    ctrl_n: usize,
    sources: Vec<String>,
}

impl Gen {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Vec::new());
        BlockId(self.blocks.len() - 1)
    }

    fn push_stmt(&mut self, at: BlockId, stmt: Stmt) {
        self.blocks[at.0].push(stmt);
    }

    fn ptrs(&self) -> Ptrs {
        self.stack
            .last()
            .expect("insertion-pointer stack empty")
            .clone()
    }

    /// Folds a positional operator into the window of the current loop,
    /// when the pointers are the loop's own and its body `μ` so far
    /// satisfies `fits`. Returns whether it folded.
    fn fold_window(
        &mut self,
        fits: fn(&[Stmt]) -> bool,
        op: impl FnOnce(Window) -> Window,
    ) -> bool {
        let Ptrs { mu, head, .. } = self.ptrs();
        let Some(at) = head else {
            return false;
        };
        if !fits(&self.blocks[mu.0]) {
            return false;
        }
        for s in &mut self.blocks[at.0] {
            if let Stmt::For { body, window, .. } = s {
                if *body == mu {
                    *window = op(*window);
                    return true;
                }
            }
        }
        unreachable!("loop head block lacks the loop")
    }

    /// Puts `IfBreak(cond)` first in each of `bodies`.
    fn break_at_tops(&mut self, bodies: &[BlockId], cond: &Expr) {
        for b in bodies {
            self.blocks[b.0].insert(0, Stmt::IfBreak { cond: cond.clone() });
        }
    }

    fn fresh_elem(&mut self) -> String {
        let name = format!("elem_{}", self.elem_n);
        self.elem_n += 1;
        name
    }

    fn fresh_agg(&mut self) -> String {
        let name = format!("agg_{}", self.agg_n);
        self.agg_n += 1;
        name
    }

    fn fresh_sink(&mut self) -> String {
        let name = format!("sink_{}", self.sink_n);
        self.sink_n += 1;
        name
    }

    fn fresh_ctrl(&mut self, prefix: &str) -> String {
        let name = format!("{prefix}_{}", self.ctrl_n);
        self.ctrl_n += 1;
        name
    }

    /// Emits a new loop at `at`, pushing fresh insertion pointers (the Src
    /// transition, Fig. 9). Returns the element variable.
    fn emit_loop(&mut self, at: BlockId, header: LoopHeader) -> String {
        let alpha = self.new_block();
        let mu = self.new_block();
        let omega = self.new_block();
        let elem_var = self.fresh_elem();
        self.push_stmt(at, Stmt::BlockRef(alpha));
        self.push_stmt(
            at,
            Stmt::For {
                header,
                elem_var: elem_var.clone(),
                body: mu,
                window: Window::ALL,
            },
        );
        self.push_stmt(at, Stmt::BlockRef(omega));
        self.stack.push(Ptrs {
            alpha,
            mu,
            omega,
            head: Some(at),
            bodies: vec![mu],
        });
        elem_var
    }

    fn src_header(&mut self, src: &SrcDesc) -> LoopHeader {
        match src {
            SrcDesc::Collection { name, elem_ty } => {
                if !self.sources.contains(name) {
                    self.sources.push(name.clone());
                }
                LoopHeader::Source {
                    name: name.clone(),
                    elem_ty: elem_ty.clone(),
                }
            }
            SrcDesc::Range { start, count } => LoopHeader::Range {
                start: *start,
                count: *count,
            },
            SrcDesc::Repeat { value, count } => LoopHeader::Repeat {
                value: value.clone(),
                count: *count,
            },
            SrcDesc::Expr { expr, elem_ty } => LoopHeader::SeqExpr {
                expr: expr.clone(),
                elem_ty: elem_ty.clone(),
            },
        }
    }

    /// If the automaton is SINKING, inserts the loop that iterates the
    /// sink collection at ω and resets the pointers relative to it
    /// (§4.2: "the code generator must insert a new loop that iterates
    /// through the sink collection").
    fn ensure_iterating(&mut self, state: State) -> State {
        match state {
            State::Iterating { .. } => state,
            State::Sinking {
                sink,
                elem_ty,
                post,
            } => {
                let omega = self.ptrs().omega;
                // The new loop replaces the current pointers.
                self.stack.pop();
                let raw_elem = self.emit_loop(
                    omega,
                    LoopHeader::Sink {
                        name: sink,
                        elem_ty: elem_ty.clone(),
                    },
                );
                let elem = match post {
                    SinkPost::None => raw_elem,
                    SinkPost::GroupAgg {
                        key_param,
                        agg_param,
                        result,
                        finish,
                        acc_param,
                        out_ty,
                    } => {
                        // elem = result(key, finish(acc)) over the raw pair.
                        let mu = self.ptrs().mu;
                        let acc_expr = Expr::var(raw_elem.clone()).field(1);
                        let finished = match finish {
                            None => acc_expr,
                            Some(f) => subst(&f, &acc_param, &acc_expr),
                        };
                        let projected = subst(
                            &subst(&result, &key_param, &Expr::var(raw_elem.clone()).field(0)),
                            &agg_param,
                            &finished,
                        );
                        let out = self.fresh_elem();
                        self.push_stmt(
                            mu,
                            Stmt::Decl {
                                name: out.clone(),
                                ty: out_ty,
                                init: projected,
                            },
                        );
                        out
                    }
                };
                State::Iterating { elem }
            }
        }
    }

    /// Generates one operator (a Trans/Pred/Sink transition).
    fn gen_op(&mut self, op: &QuilOp, state: State) -> Result<State, GenError> {
        let state = self.ensure_iterating(state);
        let State::Iterating { elem } = state else {
            unreachable!()
        };
        match op {
            QuilOp::Trans {
                param,
                kind: TransKind::Expr(body),
                out_ty,
                ..
            } => {
                // Fig. 6(a): var elem_{i+1} = f(elem_i);
                let mu = self.ptrs().mu;
                let next = self.fresh_elem();
                self.push_stmt(
                    mu,
                    Stmt::Decl {
                        name: next.clone(),
                        ty: out_ty.clone(),
                        init: subst(body, param, &Expr::var(elem)),
                    },
                );
                Ok(State::Iterating { elem: next })
            }
            QuilOp::Trans {
                param,
                kind: TransKind::Nested(nested),
                out_ty,
                ..
            } => {
                // §5.2: rewrite the outer variable to the current element
                // name, then descend into the nested chain.
                let chain = subst_chain(&nested.chain, param, &Expr::var(elem.clone()));
                let wrap = nested
                    .wrap
                    .as_ref()
                    .map(|(p, w)| (p.clone(), subst(w, param, &Expr::var(elem.clone()))));
                self.gen_nested(&chain, wrap, out_ty)
            }
            QuilOp::Pred {
                param,
                kind: PredKind::Expr(p),
                ..
            } => {
                // Fig. 6(b): if (!f(elem_i)) continue;
                let mu = self.ptrs().mu;
                self.push_stmt(
                    mu,
                    Stmt::IfNotContinue {
                        cond: subst(p, param, &Expr::var(elem.clone())),
                    },
                );
                Ok(State::Iterating { elem })
            }
            QuilOp::Pred {
                param,
                kind: PredKind::Nested(chain),
                ..
            } => {
                // A nested boolean query: evaluate it per element, then
                // guard on its scalar result.
                let chain = subst_chain(chain, param, &Expr::var(elem.clone()));
                let nested_state = self.gen_nested(&chain, None, &Ty::Bool)?;
                let State::Iterating { elem: flag } = nested_state else {
                    unreachable!()
                };
                let mu = self.ptrs().mu;
                self.push_stmt(
                    mu,
                    Stmt::IfNotContinue {
                        cond: Expr::var(flag),
                    },
                );
                Ok(State::Iterating { elem })
            }
            QuilOp::Pred {
                kind: PredKind::Take(n),
                ..
            } => {
                // Selects are 1:1 and lazily never run past the window,
                // so a take folds over a body of declarations.
                let only_decls: fn(&[Stmt]) -> bool =
                    |mu| mu.iter().all(|s| matches!(s, Stmt::Decl { .. }));
                if self.fold_window(only_decls, |w| w.take(*n)) {
                    return Ok(State::Iterating { elem });
                }
                // Otherwise a counter, checked at the top of every loop
                // the stream runs through, so no upstream operator runs
                // on an element the take will not pull.
                let Ptrs { alpha, mu, bodies, .. } = self.ptrs();
                let cnt = self.fresh_ctrl("taken");
                self.push_stmt(
                    alpha,
                    Stmt::Decl {
                        name: cnt.clone(),
                        ty: Ty::I64,
                        init: Expr::liti(0),
                    },
                );
                self.break_at_tops(&bodies, &Expr::var(cnt.clone()).ge(count_lit(*n)));
                self.push_stmt(
                    mu,
                    Stmt::Assign {
                        name: cnt.clone(),
                        expr: Expr::var(cnt) + Expr::liti(1),
                    },
                );
                Ok(State::Iterating { elem })
            }
            QuilOp::Pred {
                kind: PredKind::Skip(n),
                ..
            } => {
                // The interpreter runs upstream operators on skipped
                // elements, so only a skip with nothing upstream folds.
                if self.fold_window(<[Stmt]>::is_empty, |w| w.skip(*n)) {
                    return Ok(State::Iterating { elem });
                }
                let Ptrs { alpha, mu, .. } = self.ptrs();
                let cnt = self.fresh_ctrl("skipped");
                self.push_stmt(
                    alpha,
                    Stmt::Decl {
                        name: cnt.clone(),
                        ty: Ty::I64,
                        init: Expr::liti(0),
                    },
                );
                self.push_stmt(
                    mu,
                    Stmt::If {
                        cond: Expr::var(cnt.clone()).lt(count_lit(*n)),
                        then: vec![
                            Stmt::Assign {
                                name: cnt.clone(),
                                expr: Expr::var(cnt) + Expr::liti(1),
                            },
                            Stmt::Continue,
                        ],
                        els: vec![],
                    },
                );
                Ok(State::Iterating { elem })
            }
            QuilOp::Pred {
                param,
                kind: PredKind::TakeWhile(p),
                ..
            } => {
                let Ptrs { alpha, mu, bodies, .. } = self.ptrs();
                let stop = subst(p, param, &Expr::var(elem.clone())).not();
                if let [_] = bodies.as_slice() {
                    self.push_stmt(mu, Stmt::IfBreak { cond: stop });
                    return Ok(State::Iterating { elem });
                }
                // After a splice a break leaves only the innermost loop:
                // raise a flag that every enclosing stream loop checks
                // at its top.
                let done = self.fresh_ctrl("done");
                self.push_stmt(
                    alpha,
                    Stmt::Decl {
                        name: done.clone(),
                        ty: Ty::Bool,
                        init: Expr::litb(false),
                    },
                );
                self.push_stmt(
                    mu,
                    Stmt::Assign {
                        name: done.clone(),
                        expr: stop,
                    },
                );
                self.push_stmt(
                    mu,
                    Stmt::IfBreak {
                        cond: Expr::var(done.clone()),
                    },
                );
                self.break_at_tops(&bodies[..bodies.len() - 1], &Expr::var(done));
                Ok(State::Iterating { elem })
            }
            QuilOp::Pred {
                param,
                kind: PredKind::SkipWhile(p),
                ..
            } => {
                let Ptrs { alpha, mu, .. } = self.ptrs();
                let skipping = self.fresh_ctrl("skipping");
                self.push_stmt(
                    alpha,
                    Stmt::Decl {
                        name: skipping.clone(),
                        ty: Ty::Bool,
                        init: Expr::litb(true),
                    },
                );
                let cond = Expr::var(skipping.clone())
                    .and(subst(p, param, &Expr::var(elem.clone())));
                self.push_stmt(
                    mu,
                    Stmt::If {
                        cond,
                        then: vec![Stmt::Continue],
                        els: vec![Stmt::Assign {
                            name: skipping,
                            expr: Expr::litb(false),
                        }],
                    },
                );
                Ok(State::Iterating { elem })
            }
            QuilOp::Sink(sink_op) => {
                let Ptrs { alpha, mu, omega, .. } = self.ptrs();
                let sink = self.fresh_sink();
                let bind = |e: &Expr| subst(e, &sink_op.param, &Expr::var(elem.clone()));
                match &sink_op.kind {
                    SinkKind::GroupBy {
                        key,
                        elem: elem_sel,
                        key_ty,
                        val_ty,
                    } => {
                        self.push_stmt(
                            alpha,
                            Stmt::DeclSink {
                                name: sink.clone(),
                                decl: SinkDecl::Group,
                            },
                        );
                        self.push_stmt(
                            mu,
                            Stmt::GroupPut {
                                sink: sink.clone(),
                                key: bind(key),
                                value: elem_sel
                                    .as_ref()
                                    .map(&bind)
                                    .unwrap_or_else(|| Expr::var(elem.clone())),
                            },
                        );
                        Ok(State::Sinking {
                            sink,
                            elem_ty: Ty::pair(key_ty.clone(), Ty::seq(val_ty.clone())),
                            post: SinkPost::None,
                        })
                    }
                    SinkKind::GroupByAggregate {
                        key,
                        elem: elem_sel,
                        agg,
                        key_param,
                        agg_param,
                        result,
                        key_ty,
                    } => {
                        self.push_stmt(
                            alpha,
                            Stmt::DeclSink {
                                name: sink.clone(),
                                decl: SinkDecl::GroupAgg {
                                    init: agg.init.clone(),
                                    acc_ty: agg.acc_ty.clone(),
                                    key_ty: key_ty.clone(),
                                },
                            },
                        );
                        self.push_stmt(
                            mu,
                            Stmt::GroupAggUpdate {
                                sink: sink.clone(),
                                key: bind(key),
                                acc_param: agg.acc_param.clone(),
                                elem_param: agg.elem_param.clone(),
                                value: elem_sel
                                    .as_ref()
                                    .map(&bind)
                                    .unwrap_or_else(|| Expr::var(elem.clone())),
                                update: agg.update.clone(),
                            },
                        );
                        Ok(State::Sinking {
                            sink,
                            elem_ty: Ty::pair(key_ty.clone(), agg.acc_ty.clone()),
                            post: SinkPost::GroupAgg {
                                key_param: key_param.clone(),
                                agg_param: agg_param.clone(),
                                result: result.clone(),
                                finish: agg.finish.clone(),
                                acc_param: agg.acc_param.clone(),
                                out_ty: sink_op.out_ty.clone(),
                            },
                        })
                    }
                    SinkKind::OrderBy { key, descending } => {
                        self.push_stmt(
                            alpha,
                            Stmt::DeclSink {
                                name: sink.clone(),
                                decl: SinkDecl::SortedVec {
                                    descending: *descending,
                                },
                            },
                        );
                        self.push_stmt(
                            mu,
                            Stmt::SinkPush {
                                sink: sink.clone(),
                                value: Expr::var(elem.clone()),
                                key: Some(bind(key)),
                            },
                        );
                        self.push_stmt(omega, Stmt::SinkSeal { sink: sink.clone() });
                        Ok(State::Sinking {
                            sink,
                            elem_ty: sink_op.out_ty.clone(),
                            post: SinkPost::None,
                        })
                    }
                    SinkKind::Distinct => {
                        self.push_stmt(
                            alpha,
                            Stmt::DeclSink {
                                name: sink.clone(),
                                decl: SinkDecl::DistinctVec,
                            },
                        );
                        self.push_stmt(
                            mu,
                            Stmt::SinkPush {
                                sink: sink.clone(),
                                value: Expr::var(elem.clone()),
                                key: None,
                            },
                        );
                        Ok(State::Sinking {
                            sink,
                            elem_ty: sink_op.out_ty.clone(),
                            post: SinkPost::None,
                        })
                    }
                    SinkKind::ToVec => {
                        self.push_stmt(
                            alpha,
                            Stmt::DeclSink {
                                name: sink.clone(),
                                decl: SinkDecl::Vec,
                            },
                        );
                        self.push_stmt(
                            mu,
                            Stmt::SinkPush {
                                sink: sink.clone(),
                                value: Expr::var(elem.clone()),
                                key: None,
                            },
                        );
                        Ok(State::Sinking {
                            sink,
                            elem_ty: sink_op.out_ty.clone(),
                            post: SinkPost::None,
                        })
                    }
                }
            }
        }
    }

    /// Emits the aggregate declaration and update (Fig. 7a), returning the
    /// accumulator variable.
    fn emit_agg(&mut self, agg: &AggDesc, state: State) -> Result<(String, State), GenError> {
        let state = self.ensure_iterating(state);
        let State::Iterating { elem } = state.clone() else {
            unreachable!()
        };
        let Ptrs { alpha, mu, .. } = self.ptrs();
        let var = self.fresh_agg();
        self.push_stmt(
            alpha,
            Stmt::Decl {
                name: var.clone(),
                ty: agg.acc_ty.clone(),
                init: agg.init.clone(),
            },
        );
        let update = subst(&agg.update, &agg.elem_param, &Expr::var(elem));
        let update = subst(&update, &agg.acc_param, &Expr::var(var.clone()));
        self.push_stmt(
            mu,
            Stmt::Assign {
                name: var.clone(),
                expr: update,
            },
        );
        Ok((var, state))
    }

    /// Generates a nested chain (§5.2) and returns the new outer state.
    ///
    /// * Aggregate-terminated chains bind their scalar to a fresh element
    ///   variable in the nested postlude (Fig. 10) and pop back to the
    ///   outer pointers.
    /// * Streaming chains splice: two pointer triples are popped and
    ///   `(α_outer, μ_nested, ω_outer)` is pushed back (Fig. 11).
    fn gen_nested(
        &mut self,
        chain: &QuilChain,
        wrap: Option<(String, Expr)>,
        out_ty: &Ty,
    ) -> Result<State, GenError> {
        let mu_outer = self.ptrs().mu;
        let header = self.src_header(&chain.src);
        let elem = self.emit_loop(mu_outer, header);
        let mut state = State::Iterating { elem };
        for op in &chain.ops {
            state = self.gen_op(op, state)?;
        }
        match &chain.agg {
            Some(agg) => {
                // AGGREGATING nested Ret (Fig. 10).
                let (acc_var, _) = self.emit_agg(agg, state)?;
                let omega_nested = self.ptrs().omega;
                let finished = match &agg.finish {
                    None => Expr::var(acc_var),
                    Some(f) => subst(f, &agg.acc_param, &Expr::var(acc_var)),
                };
                let value = match &wrap {
                    None => finished,
                    Some((p, w)) => subst(w, p, &finished),
                };
                let next = self.fresh_elem();
                self.push_stmt(
                    omega_nested,
                    Stmt::Decl {
                        name: next.clone(),
                        ty: out_ty.clone(),
                        init: value,
                    },
                );
                self.stack.pop();
                Ok(State::Iterating { elem: next })
            }
            None => {
                // ITERATING nested Ret (Fig. 11): splice into the outer
                // stream. A sink-terminated nested chain first gets its
                // sink-iteration loop.
                let state = self.ensure_iterating(state);
                let State::Iterating { elem } = state else {
                    unreachable!()
                };
                if wrap.is_some() {
                    return Err(GenError(
                        "a result wrapper requires a scalar nested query".into(),
                    ));
                }
                let inner = self
                    .stack
                    .pop()
                    .ok_or_else(|| GenError("pointer stack underflow (inner)".into()))?;
                let outer = self
                    .stack
                    .pop()
                    .ok_or_else(|| GenError("pointer stack underflow (outer)".into()))?;
                let mut bodies = outer.bodies;
                bodies.extend(inner.bodies);
                self.stack.push(Ptrs {
                    alpha: outer.alpha,
                    mu: inner.mu,
                    omega: outer.omega,
                    head: None,
                    bodies,
                });
                Ok(State::Iterating { elem })
            }
        }
    }
}

/// An element count as an i64 literal, saturating at `i64::MAX` (no
/// loop runs that long).
fn count_lit(n: usize) -> Expr {
    Expr::liti(i64::try_from(n).unwrap_or(i64::MAX))
}

/// Generates an imperative program for a QUIL chain.
///
/// # Errors
///
/// Returns [`GenError`] only for internal invariant violations; chains
/// produced by `steno_quil::lower` always generate successfully.
pub fn generate(chain: &QuilChain) -> Result<ImpProgram, GenError> {
    let mut g = Gen {
        blocks: Vec::new(),
        stack: Vec::new(),
        elem_n: 0,
        agg_n: 0,
        sink_n: 0,
        ctrl_n: 0,
        sources: Vec::new(),
    };
    let root = g.new_block();
    let header = g.src_header(&chain.src);
    let elem = g.emit_loop(root, header);
    let mut state = State::Iterating { elem };
    for op in &chain.ops {
        state = g.gen_op(op, state)?;
    }
    let terminal = match &chain.agg {
        Some(agg) => {
            // Fig. 8(a): return the (finished) aggregate at ω.
            let (acc_var, _) = g.emit_agg(agg, state)?;
            let omega = g.ptrs().omega;
            let value = match &agg.finish {
                None => Expr::var(acc_var),
                Some(f) => subst(f, &agg.acc_param, &Expr::var(acc_var)),
            };
            g.push_stmt(omega, Stmt::Return { value });
            Terminal::Scalar(agg.out_ty.clone())
        }
        None => {
            // Fig. 8(b)/(c): materialize the stream (or the sink contents)
            // into the output buffer.
            let state = g.ensure_iterating(state);
            let State::Iterating { elem } = state else {
                unreachable!()
            };
            let mu = g.ptrs().mu;
            g.push_stmt(
                mu,
                Stmt::Yield {
                    value: Expr::var(elem),
                },
            );
            Terminal::Sequence(chain.elem_ty())
        }
    };
    let mut program = ImpProgram {
        blocks: std::mem::take(&mut g.blocks),
        root,
        terminal,
        sources: std::mem::take(&mut g.sources),
    };
    // Last step: scalar replacement of pair-typed locals (DESIGN.md §8),
    // so every consumer of the program sees the same flattened locals.
    scalarize(&mut program, &mut |of| {
        if of.starts_with("agg_") {
            g.fresh_agg()
        } else {
            g.fresh_elem()
        }
    });
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::UdfRegistry;
    use steno_query::typing::SourceTypes;
    use steno_query::{GroupResult, Query};
    use steno_quil::lower;

    fn srcs() -> SourceTypes {
        SourceTypes::new()
            .with("xs", Ty::F64)
            .with("ns", Ty::I64)
            .with("ys", Ty::F64)
    }

    fn gen(q: steno_query::QueryExpr) -> ImpProgram {
        let chain = lower(&q, &srcs(), &UdfRegistry::new()).unwrap();
        generate(&chain).unwrap()
    }

    fn flat_names(p: &ImpProgram) -> Vec<String> {
        p.flatten(p.root)
            .iter()
            .map(|s| format!("{s:?}").split('{').next().unwrap().trim().to_string())
            .collect()
    }

    #[test]
    fn sum_of_squares_generates_decl_loop_return() {
        let p = gen(
            Query::source("xs")
                .select(Expr::var("x") * Expr::var("x"), "x")
                .sum()
                .build(),
        );
        let flat = p.flatten(p.root);
        // agg decl, loop, return.
        assert!(matches!(&flat[0], Stmt::Decl { name, .. } if name == "agg_0"));
        let Stmt::For { body, elem_var, .. } = &flat[1] else {
            panic!("expected loop, got {:?}", flat[1]);
        };
        assert_eq!(elem_var, "elem_0");
        let body = p.flatten(*body);
        // elem_1 = elem_0 * elem_0; agg_0 = agg_0 + elem_1;
        assert!(matches!(&body[0], Stmt::Decl { name, init, .. }
            if name == "elem_1" && init.to_string() == "(elem_0 * elem_0)"));
        assert!(matches!(&body[1], Stmt::Assign { name, expr }
            if name == "agg_0" && expr.to_string() == "(agg_0 + elem_1)"));
        assert!(matches!(&flat[2], Stmt::Return { value } if value.to_string() == "agg_0"));
        assert_eq!(p.terminal, Terminal::Scalar(Ty::F64));
        assert_eq!(p.sources, vec!["xs".to_string()]);
    }

    #[test]
    fn average_accumulator_is_split_into_scalar_locals() {
        // The (sum, count) pair of Average becomes two scalar locals with
        // one fold each, and the finisher reads the leaves directly.
        let p = gen(Query::source("xs").average().build());
        let flat = p.flatten(p.root);
        assert!(matches!(&flat[0], Stmt::Decl { name, ty: Ty::F64, init }
            if name == "agg_1" && *init == Expr::litf(0.0)));
        assert!(matches!(&flat[1], Stmt::Decl { name, ty: Ty::I64, init }
            if name == "agg_2" && *init == Expr::liti(0)));
        let Stmt::For { body, .. } = &flat[2] else {
            panic!("expected loop, got {:?}", flat[2]);
        };
        let body = p.flatten(*body);
        assert_eq!(body.len(), 2, "{body:?}");
        assert!(matches!(&body[0], Stmt::Assign { name, expr }
            if name == "agg_1" && expr.to_string() == "(agg_1 + elem_0)"));
        assert!(matches!(&body[1], Stmt::Assign { name, expr }
            if name == "agg_2" && expr.to_string() == "(agg_2 + 1)"));
        assert!(matches!(&flat[3], Stmt::Return { value }
            if value.to_string() == "(agg_1 / (agg_2 as f64))"));
        assert_eq!(flat.len(), 4);
        assert_eq!(p.terminal, Terminal::Scalar(Ty::F64));
    }

    #[test]
    fn where_generates_continue_guard() {
        let p = gen(
            Query::source("ns")
                .where_((Expr::var("x") % Expr::liti(2)).eq(Expr::liti(0)), "x")
                .select(Expr::var("x") * Expr::var("x"), "x")
                .build(),
        );
        let flat = p.flatten(p.root);
        let Stmt::For { body, .. } = &flat[0] else {
            panic!("expected loop");
        };
        let body = p.flatten(*body);
        assert!(matches!(&body[0], Stmt::IfNotContinue { cond }
            if cond.to_string() == "((elem_0 % 2) == 0)"));
        assert!(matches!(&body[2], Stmt::Yield { value }
            if value.to_string() == "elem_1"));
        assert_eq!(p.terminal, Terminal::Sequence(Ty::I64));
    }

    #[test]
    fn nested_select_many_generates_nested_loops_with_outer_aggregate() {
        // The §5 example: the Sum of the outermost query must inject its
        // update into the innermost loop body.
        let p = gen(
            Query::source("xs")
                .select_many(
                    Query::source("ys").select(Expr::var("x") * Expr::var("y"), "y"),
                    "x",
                )
                .sum()
                .build(),
        );
        let flat = p.flatten(p.root);
        // Outer: decl agg; loop xs; return.
        assert!(matches!(&flat[0], Stmt::Decl { name, .. } if name == "agg_0"));
        let Stmt::For { body, .. } = &flat[1] else {
            panic!("outer loop expected");
        };
        let outer_body = p.flatten(*body);
        let Stmt::For { body: inner, header, .. } = &outer_body[0] else {
            panic!("inner loop expected, got {outer_body:?}");
        };
        assert!(matches!(header, LoopHeader::Source { name, .. } if name == "ys"));
        let inner_body = p.flatten(*inner);
        // The multiply is inlined with the outer element substituted, and
        // the aggregate update sits in the innermost loop.
        assert!(matches!(&inner_body[0], Stmt::Decl { init, .. }
            if init.to_string() == "(elem_0 * elem_1)"));
        assert!(matches!(&inner_body[1], Stmt::Assign { name, .. } if name == "agg_0"));
        assert!(matches!(&flat[2], Stmt::Return { .. }));
    }

    #[test]
    fn nested_scalar_query_lands_in_nested_postlude() {
        // xs.Select(x => ys.Sum()): Fig. 10 — the nested aggregate is
        // assigned to a fresh element variable after the inner loop.
        let p = gen(
            Query::source("xs")
                .select_query(Query::source("ys").sum(), "x")
                .build(),
        );
        let flat = p.flatten(p.root);
        let Stmt::For { body, .. } = &flat[0] else {
            panic!("outer loop expected");
        };
        let outer_body = p.flatten(*body);
        // decl agg (nested α), inner loop, decl elem = agg (nested ω), yield.
        assert!(matches!(&outer_body[0], Stmt::Decl { name, .. } if name == "agg_0"));
        assert!(matches!(&outer_body[1], Stmt::For { .. }));
        assert!(matches!(&outer_body[2], Stmt::Decl { name, init, .. }
            if name == "elem_2" && init.to_string() == "agg_0"));
        assert!(matches!(&outer_body[3], Stmt::Yield { value }
            if value.to_string() == "elem_2"));
    }

    #[test]
    fn group_by_aggregate_uses_hash_sink() {
        let p = gen(
            Query::source("ns")
                .group_by_result(
                    Expr::var("x") % Expr::liti(3),
                    "x",
                    GroupResult::keyed("k", "g", Query::over(Expr::var("g")).count().build()),
                )
                .build(),
        );
        let flat = p.flatten(p.root);
        assert!(matches!(&flat[0], Stmt::DeclSink { decl: SinkDecl::GroupAgg { .. }, .. }));
        let Stmt::For { body, .. } = &flat[1] else {
            panic!("first loop expected");
        };
        let body = p.flatten(*body);
        assert!(matches!(&body[0], Stmt::GroupAggUpdate { key, .. }
            if key.to_string() == "(elem_0 % 3)"));
        // ω: loop over the sink projecting (key, count) pairs, yielding.
        // The projected pair is scalar-replaced: one local per field,
        // rebuilt at the yield.
        let Stmt::For { header, body: sink_body, .. } = &flat[2] else {
            panic!("sink loop expected, got {:?}", flat[2]);
        };
        assert!(matches!(header, LoopHeader::Sink { .. }));
        let sink_body = p.flatten(*sink_body);
        assert!(matches!(&sink_body[0], Stmt::Decl { name, init, .. }
            if name == "elem_3" && init.to_string() == "elem_1.0"));
        assert!(matches!(&sink_body[1], Stmt::Decl { name, init, .. }
            if name == "elem_4" && init.to_string() == "elem_1.1"));
        assert!(matches!(&sink_body[2], Stmt::Yield { value }
            if value.to_string() == "(elem_3, elem_4)"));
    }

    #[test]
    fn group_having_generates_two_loops() {
        // GroupBy ... Where: the second loop iterates the sink (§4.2).
        let p = gen(
            Query::source("ns")
                .group_by(Expr::var("x") % Expr::liti(3), "x")
                .where_(Expr::var("kv").field(0).gt(Expr::liti(0)), "kv")
                .build(),
        );
        let flat = p.flatten(p.root);
        assert!(matches!(&flat[0], Stmt::DeclSink { decl: SinkDecl::Group, .. }));
        assert!(matches!(&flat[1], Stmt::For { .. }));
        let Stmt::For { header, body, .. } = &flat[2] else {
            panic!("sink loop expected");
        };
        assert!(matches!(header, LoopHeader::Sink { .. }));
        let body = p.flatten(*body);
        assert!(matches!(&body[0], Stmt::IfNotContinue { cond }
            if cond.to_string() == "(elem_1.0 > 0)"));
    }

    #[test]
    fn take_skip_fold_into_window() {
        // Leading positional operators become the loop's index window:
        // no counters, no guards, the body is just the yield.
        let p = gen(Query::source("xs").skip(2).take(3).build());
        let flat = p.flatten(p.root);
        assert_eq!(flat.len(), 1, "{flat:?}");
        let Stmt::For { body, window, .. } = &flat[0] else {
            panic!("loop expected, got {:?}", flat[0]);
        };
        assert_eq!(*window, Window { skip: 2, take: Some(3) });
        assert!(matches!(p.flatten(*body).as_slice(), [Stmt::Yield { .. }]));

        // A take folds over selects (they are 1:1); a skip after a select
        // keeps its counter, because the interpreter evaluates the select
        // on skipped elements. The take after it then counts too.
        let p = gen(
            Query::source("xs")
                .take(5)
                .select(Expr::var("x") + Expr::litf(1.0), "x")
                .take(4)
                .skip(1)
                .take(2)
                .build(),
        );
        let flat = p.flatten(p.root);
        let Stmt::For { body, window, .. } = flat.last().unwrap() else {
            panic!("loop expected last");
        };
        assert_eq!(*window, Window { skip: 0, take: Some(4) });
        let names = flat_names(&p);
        assert_eq!(names.iter().filter(|n| n.starts_with("Decl")).count(), 2, "{names:?}");
        let body = p.flatten(*body);
        assert!(matches!(&body[0], Stmt::IfBreak { cond }
            if cond.to_string() == "(taken_1 >= 2)"), "{body:?}");
        assert!(matches!(&body[1], Stmt::Decl { .. }));
        assert!(matches!(&body[2], Stmt::If { .. })); // skip counter

        // Window arithmetic saturates.
        let w = Window::ALL.skip(usize::MAX).take(usize::MAX).skip(5);
        assert_eq!(w, Window { skip: usize::MAX, take: Some(usize::MAX - 5) });
        assert_eq!(Window::ALL.take(3).skip(10), Window { skip: 3, take: Some(0) });
    }

    #[test]
    fn take_after_where_breaks_at_the_top_of_the_body() {
        // The counter check comes first, so neither the filter nor the
        // select runs on an element the take will not pull.
        let p = gen(
            Query::source("ns")
                .where_((Expr::liti(100) / Expr::var("x")).gt(Expr::liti(1)), "x")
                .take(3)
                .sum()
                .build(),
        );
        let flat = p.flatten(p.root);
        assert!(matches!(&flat[0], Stmt::Decl { name, init, .. }
            if name == "taken_0" && *init == Expr::liti(0)));
        let Stmt::For { body, window, .. } = &flat[2] else {
            panic!("loop expected, got {:?}", flat[2]);
        };
        assert_eq!(*window, Window::ALL);
        let body = p.flatten(*body);
        assert!(matches!(&body[0], Stmt::IfBreak { cond }
            if cond.to_string() == "(taken_0 >= 3)"), "{body:?}");
        assert!(matches!(&body[1], Stmt::IfNotContinue { .. }));
        assert!(matches!(&body[2], Stmt::Assign { name, .. } if name == "taken_0"));
        assert!(matches!(&body[3], Stmt::Assign { name, .. } if name == "agg_0"));
    }

    #[test]
    fn take_while_breaks_and_splices_raise_a_flag() {
        let p = gen(
            Query::source("xs")
                .take_while(Expr::var("x").lt(Expr::litf(2.0)), "x")
                .count()
                .build(),
        );
        let flat = p.flatten(p.root);
        let Stmt::For { body, .. } = &flat[1] else {
            panic!("loop expected, got {:?}", flat[1]);
        };
        let body = p.flatten(*body);
        assert!(matches!(&body[0], Stmt::IfBreak { cond }
            if cond.to_string() == "(!(elem_0 < 2.0))"), "{body:?}");

        // After select_many the break leaves only the inner loop; the
        // outer loop checks the flag at its top.
        let p = gen(
            Query::source("xs")
                .select_many(Query::source("ys"), "x")
                .take_while(Expr::var("y").lt(Expr::litf(2.0)), "y")
                .count()
                .build(),
        );
        let flat = p.flatten(p.root);
        assert!(flat.iter().any(|s| matches!(s, Stmt::Decl { name, .. } if name == "done_0")));
        let Some(Stmt::For { body, .. }) = flat.iter().find(|s| matches!(s, Stmt::For { .. }))
        else {
            panic!("outer loop expected");
        };
        let outer = p.flatten(*body);
        assert!(matches!(&outer[0], Stmt::IfBreak { cond } if cond.to_string() == "done_0"));
        let Some(Stmt::For { body: inner, .. }) =
            outer.iter().find(|s| matches!(s, Stmt::For { .. }))
        else {
            panic!("inner loop expected");
        };
        let inner = p.flatten(*inner);
        assert!(matches!(&inner[0], Stmt::Assign { name, .. } if name == "done_0"));
        assert!(matches!(&inner[1], Stmt::IfBreak { cond } if cond.to_string() == "done_0"));
    }

    #[test]
    fn order_by_seals_sink_in_postlude() {
        let p = gen(Query::source("xs").order_by(Expr::var("x"), "x").build());
        let flat = p.flatten(p.root);
        assert!(matches!(&flat[0], Stmt::DeclSink { decl: SinkDecl::SortedVec { .. }, .. }));
        assert!(matches!(&flat[1], Stmt::For { .. }));
        assert!(matches!(&flat[2], Stmt::SinkSeal { .. }));
        // Then the materialization loop.
        assert!(matches!(&flat[3], Stmt::For { .. }));
    }

    #[test]
    fn triple_nested_cartesian_depth() {
        // xs.SelectMany(x => ys.SelectMany(y => ns.Select(n => ...))).Sum()
        let innermost = Query::source("ns").select(
            Expr::var("x") * Expr::var("y") * Expr::var("n").cast(Ty::F64),
            "n",
        );
        let q = Query::source("xs")
            .select_many(
                Query::source("ys").select_many(innermost, "y"),
                "x",
            )
            .sum()
            .build();
        let p = gen(q);
        // Count nested For depth: must be 3.
        fn depth(p: &ImpProgram, id: BlockId) -> usize {
            p.flatten(id)
                .iter()
                .map(|s| match s {
                    Stmt::For { body, .. } => 1 + depth(p, *body),
                    _ => 0,
                })
                .max()
                .unwrap_or(0)
        }
        assert_eq!(depth(&p, p.root), 3);
        // The aggregate update must be in the innermost body: find it.
        fn find_assign_depth(p: &ImpProgram, id: BlockId, lvl: usize) -> Option<usize> {
            for s in p.flatten(id) {
                match s {
                    Stmt::Assign { name, .. } if name.starts_with("agg_") => return Some(lvl),
                    Stmt::For { body, .. } => {
                        if let Some(d) = find_assign_depth(p, body, lvl + 1) {
                            return Some(d);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        assert_eq!(find_assign_depth(&p, p.root, 0), Some(3));
    }
}
