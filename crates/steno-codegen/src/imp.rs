//! The imperative AST produced by the code generator.
//!
//! This plays the role of the .NET CodeDOM object model (§3.2): a tree of
//! loops, conditionals, declarations and assignments. Blocks live in an
//! arena ([`ImpProgram::blocks`]) so the generator can hold α/μ/ω
//! *insertion pointers* — block ids whose ends statements are appended
//! to — exactly as the paper's linked-list-with-pointers does (Fig. 5).

use steno_expr::{Expr, Ty, Value};

/// Identifies a block in the program's arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockId(pub usize);

/// How a loop obtains its elements — the type-specialized iteration code
/// of §4.2 ("if the source is an array ... it is more efficient to use
/// indexed element access than an iterator").
#[derive(Clone, Debug, PartialEq)]
pub enum LoopHeader {
    /// Indexed iteration over a named source collection.
    Source {
        /// Source name in the data context.
        name: String,
        /// Element type.
        elem_ty: Ty,
    },
    /// `for i in 0..count { elem = start + i }`.
    Range {
        /// First integer.
        start: i64,
        /// Number of integers.
        count: usize,
    },
    /// `count` copies of a constant.
    Repeat {
        /// The repeated value.
        value: Value,
        /// Number of copies.
        count: usize,
    },
    /// Indexed iteration over a sequence-valued expression (a group, a
    /// captured sequence, a row's coordinates).
    SeqExpr {
        /// The sequence expression, evaluated once before the loop.
        expr: Expr,
        /// Element type.
        elem_ty: Ty,
    },
    /// Iteration over a materialized sink collection.
    Sink {
        /// The sink variable name.
        name: String,
        /// Element type the sink yields.
        elem_ty: Ty,
    },
}

/// The positional window of a loop: it visits the indices
/// `skip..skip + take` of its header's range, clipped to that range.
/// `take: None` runs to the end. Leading `skip`/`take` operators fold
/// into it (DESIGN.md §8), so the loop never touches elements outside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// Indices skipped at the start of the range.
    pub skip: usize,
    /// Most indices visited after the skipped ones.
    pub take: Option<usize>,
}

impl Window {
    /// The whole range.
    pub const ALL: Window = Window { skip: 0, take: None };

    /// This window followed by `skip(n)`: `lo = min(lo + n, hi)`.
    pub fn skip(self, n: usize) -> Window {
        match self.take {
            None => Window { skip: self.skip.saturating_add(n), take: None },
            Some(t) => {
                let n = n.min(t);
                Window { skip: self.skip.saturating_add(n), take: Some(t - n) }
            }
        }
    }

    /// This window followed by `take(n)`: `hi = min(hi, lo + n)`.
    pub fn take(self, n: usize) -> Window {
        Window { skip: self.skip, take: Some(self.take.map_or(n, |t| t.min(n))) }
    }

    /// The exclusive upper index bound, `lo + take` (saturating), or
    /// `None` when the window runs to the end of the range.
    pub fn end(self) -> Option<usize> {
        self.take.map(|t| self.skip.saturating_add(t))
    }
}

/// What kind of intermediate collection a sink variable holds.
#[derive(Clone, Debug, PartialEq)]
pub enum SinkDecl {
    /// A key → bag multimap (`Lookup`, Fig. 7b). Iterating yields
    /// `(key, seq)` pairs.
    Group,
    /// A key → partial-aggregate table (§4.3). Iterating yields
    /// `(key, accumulator)` pairs.
    GroupAgg {
        /// Seed expression for a fresh key's accumulator.
        init: Expr,
        /// Accumulator type.
        acc_ty: Ty,
        /// Key type (drives sink specialization in the back end).
        key_ty: Ty,
    },
    /// An ordered buffer sorted at loop exit. Iterating yields elements.
    SortedVec {
        /// Sort direction.
        descending: bool,
    },
    /// A buffer keeping first occurrences only. Iterating yields elements.
    DistinctVec,
    /// A plain materialization buffer (`ToArray`).
    Vec,
}

/// One imperative statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `let name: ty = init;` — variables are single-assignment unless
    /// re-assigned with [`Stmt::Assign`].
    Decl {
        /// Variable name.
        name: String,
        /// Variable type.
        ty: Ty,
        /// Initializer.
        init: Expr,
    },
    /// `name = expr;`
    Assign {
        /// Target variable.
        name: String,
        /// New value.
        expr: Expr,
    },
    /// A loop binding `elem_var` per iteration, with its body in a block.
    For {
        /// How elements are produced.
        header: LoopHeader,
        /// The per-iteration element variable.
        elem_var: String,
        /// The loop body block.
        body: BlockId,
        /// The indices of the header's range the loop visits.
        window: Window,
    },
    /// `if !(cond) { continue; }` — the predicate form of Fig. 6(b).
    IfNotContinue {
        /// The predicate that must hold for the element to survive.
        cond: Expr,
    },
    /// `if cond { break; }`: leaves the innermost loop.
    IfBreak {
        /// Loop-exit condition.
        cond: Expr,
    },
    /// A general conditional with inline branches.
    If {
        /// Condition.
        cond: Expr,
        /// Statements run when true.
        then: Vec<Stmt>,
        /// Statements run when false.
        els: Vec<Stmt>,
    },
    /// `continue;`
    Continue,
    /// Declare a sink variable.
    DeclSink {
        /// Sink variable name.
        name: String,
        /// What the sink holds.
        decl: SinkDecl,
    },
    /// Add `(key, value)` to a [`SinkDecl::Group`] sink
    /// (`sink = sink.put(key, elem)`, Fig. 7b).
    GroupPut {
        /// Sink name.
        sink: String,
        /// Key expression.
        key: Expr,
        /// Value expression.
        value: Expr,
    },
    /// Fold `value` into the per-key accumulator of a
    /// [`SinkDecl::GroupAgg`] sink: `acc[key] = update(acc[key], elem)`.
    GroupAggUpdate {
        /// Sink name.
        sink: String,
        /// Key expression.
        key: Expr,
        /// Name binding the current accumulator inside `update`.
        acc_param: String,
        /// Name binding the element inside `update`.
        elem_param: String,
        /// The element expression bound to `elem_param`.
        value: Expr,
        /// The fold update expression.
        update: Expr,
    },
    /// Push a value (and, for sorted sinks, its key) into a buffer sink.
    SinkPush {
        /// Sink name.
        sink: String,
        /// Value expression.
        value: Expr,
        /// Sort key, for [`SinkDecl::SortedVec`] sinks.
        key: Option<Expr>,
    },
    /// Finalize a sink at loop exit (sort a [`SinkDecl::SortedVec`]).
    SinkSeal {
        /// Sink name.
        sink: String,
    },
    /// Append a value to the query output (`yield return`, Fig. 8c).
    ///
    /// The paper's generated iterator yields lazily; this reproduction
    /// materializes into the output buffer, i.e. the `ToArray` variant of
    /// footnote 3 is the default. DESIGN.md records the deviation.
    Yield {
        /// The yielded element.
        value: Expr,
    },
    /// Return a scalar (Fig. 8a).
    Return {
        /// The returned value.
        value: Expr,
    },
    /// Return the materialized sink collection (Fig. 8b).
    ReturnSink {
        /// Sink name.
        sink: String,
    },
    /// Splice of a sub-block: used to realize the α (pre-loop) and ω
    /// (post-loop) regions as append-only targets (Fig. 5).
    BlockRef(BlockId),
}

/// How the program terminates.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminal {
    /// The program returns the scalar produced by a `Return`.
    Scalar(Ty),
    /// The program returns the output buffer filled by `Yield`s.
    Sequence(Ty),
}

/// A generated imperative program.
#[derive(Clone, Debug)]
pub struct ImpProgram {
    /// Block arena; [`BlockId`] indexes into it.
    pub blocks: Vec<Vec<Stmt>>,
    /// The top-level block.
    pub root: BlockId,
    /// Result classification (drives output-buffer allocation).
    pub terminal: Terminal,
    /// Names of the context sources the program reads.
    pub sources: Vec<String>,
}

impl ImpProgram {
    /// The statements of a block.
    pub fn block(&self, id: BlockId) -> &[Stmt] {
        &self.blocks[id.0]
    }

    /// Resolves [`Stmt::BlockRef`] splices, producing a plain statement
    /// tree (loop bodies remain block references into `self`).
    pub fn flatten(&self, id: BlockId) -> Vec<Stmt> {
        let mut out = Vec::new();
        for stmt in self.block(id) {
            match stmt {
                Stmt::BlockRef(b) => out.extend(self.flatten(*b)),
                other => out.push(other.clone()),
            }
        }
        out
    }

    /// Counts statements reachable from the root (loop bodies included).
    pub fn stmt_count(&self) -> usize {
        fn walk(p: &ImpProgram, id: BlockId) -> usize {
            let mut n = 0;
            for stmt in p.block(id) {
                match stmt {
                    Stmt::BlockRef(b) => n += walk(p, *b),
                    Stmt::For { body, .. } => n += 1 + walk(p, *body),
                    Stmt::If { then, els, .. } => n += 1 + then.len() + els.len(),
                    _ => n += 1,
                }
            }
            n
        }
        walk(self, self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_resolves_block_refs() {
        let mut blocks = vec![Vec::new(); 3];
        blocks[1] = vec![Stmt::Decl {
            name: "agg_0".into(),
            ty: Ty::F64,
            init: Expr::litf(0.0),
        }];
        blocks[0] = vec![
            Stmt::BlockRef(BlockId(1)),
            Stmt::For {
                header: LoopHeader::Range { start: 0, count: 3 },
                elem_var: "elem_0".into(),
                body: BlockId(2),
                window: Window::ALL,
            },
        ];
        blocks[2] = vec![Stmt::Assign {
            name: "agg_0".into(),
            expr: Expr::var("agg_0") + Expr::var("elem_0").cast(Ty::F64),
        }];
        let p = ImpProgram {
            blocks,
            root: BlockId(0),
            terminal: Terminal::Scalar(Ty::F64),
            sources: vec![],
        };
        let flat = p.flatten(p.root);
        assert_eq!(flat.len(), 2);
        assert!(matches!(flat[0], Stmt::Decl { .. }));
        assert!(matches!(flat[1], Stmt::For { .. }));
        assert_eq!(p.stmt_count(), 3);
    }
}
