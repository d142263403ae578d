//! The Steno code generator: QUIL chains → imperative loop programs.
//!
//! This crate implements §4.2 and §5.2 of the paper. The generated code is
//! held as a statement structure with three insertion pointers — the loop
//! prelude (α), the loop body (μ) and the loop postlude (ω) of Fig. 5 —
//! managed by a pushdown automaton whose stack holds `(α, μ, ω)` triples
//! (Fig. 9). Each QUIL symbol drives one transition:
//!
//! * `Src` inserts a new type-specialized loop and pushes fresh pointers;
//! * `Trans`/`Pred` insert inlined element-wise statements at μ (Fig. 6);
//! * `Agg`/`Sink` insert declarations at α and updates at μ (Fig. 7);
//! * `Ret` emits returns/yields according to the automaton state (Fig. 8),
//!   and for nested queries manipulates the pointer stack (Figs. 10, 11).
//!
//! The result is an [`imp::ImpProgram`] — the analogue of the
//! CodeDOM AST the paper builds — which the `steno-vm` crate compiles to
//! bytecode and the [`printer`] renders as human-readable Rust source (the
//! same code the `steno!` proc macro emits at compile time).

pub mod generate;
pub mod imp;
pub mod printer;
mod scalarize;

pub use generate::{generate, GenError};
pub use imp::{BlockId, ImpProgram, LoopHeader, SinkDecl, Stmt, Terminal, Window};
pub use printer::render_rust;
