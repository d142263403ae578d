//! Static analysis for Steno: expression facts, plan verification, lints.
//!
//! This crate is the static-analysis layer sitting between the QUIL
//! optimizer and the execution tiers. It is deliberately dependency-free
//! beyond the core Steno crates and provides three cooperating passes:
//!
//! * [`facts`] — a bottom-up abstract interpreter over
//!   [`steno_expr::Expr`] computing purity, may-trap effects, and
//!   interval ranges ([`analyze`]). The vectorizer consults these facts
//!   to accept loops it would otherwise refuse and to drop per-lane
//!   trap guards (e.g. a divisor of shape `x % 7 + 9` provably excludes
//!   zero, so the division can never trap).
//! * [`verify`](mod@verify) — an independent re-typechecker and plan cross-checker
//!   for lowered QUIL ([`verify()`]). It re-derives homomorphism from
//!   first principles and concretely tests combiner associativity on
//!   exactly-representable sample grids, so an optimizer bug that
//!   mis-classifies an operator or splits a non-associative aggregate
//!   becomes a hard [`VerifyError`] instead of a wrong answer.
//! * [`lint`] — a [`Lint`] trait plus registry flagging suspicious query
//!   shapes (dead filters, redundant adjacent operators, degenerate
//!   Take/Skip, opaque UDFs in reordered positions) with operator
//!   provenance via [`steno_quil::ir::OpSpan`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod facts;
pub mod lint;
pub mod verify;

pub use facts::{analyze, ExprFacts, Interval, Traps};
pub use lint::{run_default_lints, Diagnostic, Lint, LintRegistry, Severity};
pub use verify::{verify, VerifyError, VerifyReport};
