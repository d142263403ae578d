//! Verified algebraic rewrites over QUIL chains.
//!
//! [`rewrite`](fn@rewrite) applies two statically profitable rules —
//! merging adjacent `Take`/`Skip` limits and hoisting a limit before a
//! pure, total map — and re-checks every application with the
//! independent `steno-analysis` plan verifier. A rewrite that fails
//! verification is *dropped, not trusted*, and every decision (applied
//! or dropped) is recorded in a machine-readable [`RewriteEvent`] log.
//!
//! The crate is dependency-free beyond the workspace IR/analysis crates
//! and does no I/O.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_docs)]

pub mod rewrite;

pub use rewrite::{rewrite, RewriteEvent, RewriteOutcome};
