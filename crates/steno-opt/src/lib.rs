//! Feedback-directed query optimization (§7.1's compile-vs-run
//! break-even, made adaptive).
//!
//! Steno compiles a query once and runs it forever — but the facts a
//! plan was chosen under (how selective each filter is, how large the
//! input is, how long compilation took versus a run) are only *measured*
//! at run time. This crate closes that loop with three cooperating
//! pieces, each consumed by `steno-vm` and the `Steno` engine facade:
//!
//! 1. [`rewrite`](mod@rewrite) — a verified algebraic rewrite pass over QUIL chains:
//!    Take/Skip propagation, map·map fusion, selectivity-driven filter
//!    reordering, predicate pushdown past pure maps, and adjacent-filter
//!    fusion. Every rewrite is re-checked by the independent
//!    `steno-analysis` plan verifier; a rewrite that fails verification
//!    is *dropped, not trusted*, and every decision (applied or dropped)
//!    is recorded in a machine-readable [`RewriteEvent`] log.
//! 2. [`cost`] — the break-even tier-choice model: given observed
//!    element counts and selection density, advise the VM's compiler
//!    whether the batch-vectorized tier will amortize its setup.
//! 3. [`stats`] — exponentially-decayed per-plan run statistics with
//!    hysteresis-guarded drift detection, driving bounded
//!    re-optimization when the observed workload departs the plan's
//!    assumptions.
//!
//! The crate is dependency-free beyond the workspace IR/analysis crates
//! and does no I/O; policy (when to sample, when to recompile) lives in
//! the callers.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_docs)]

pub mod cost;
pub mod rewrite;
pub mod stats;

pub use cost::{choose_tier, LoopStats, TierAdvice};
pub use rewrite::{observe_selectivities, rewrite, RewriteEvent, RewriteOutcome};
pub use stats::{DriftConfig, ObservedRun, PlanStats};
