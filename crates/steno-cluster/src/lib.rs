//! The DryadLINQ substrate: distributed execution on a simulated cluster.
//!
//! DryadLINQ "divides the query into vertices in a Dryad task dependency
//! graph: each vertex executes a portion of the query on a partition of
//! the overall data" (§1). This crate reproduces that execution
//! environment at one-machine scale so that §6 and the distributed
//! k-means experiment of §7.2 can run:
//!
//! * [`partition`] — partitioned collections and partitioning schemes,
//! * [`chain_interp`] — the *unoptimized* vertex executor: the same QUIL
//!   subchain run through boxed iterator state machines and per-element
//!   expression interpretation (what a vertex does before Steno is
//!   applied),
//! * [`job`] — Dryad-style job graphs built from the §6 parallel plan
//!   (Fig. 12's `Src_i → Trans → Agg_i → Agg*` shape),
//! * [`exec`] — the executor: a worker pool applies the per-partition
//!   subquery (the `HomomorphicApply` of §6) once per partition, and a
//!   reduce stage merges partition results, using partial-aggregation
//!   combiners whenever the plan declares them. A panicking vertex is
//!   isolated and reported; nothing is retried — re-running vertices is
//!   Dryad's job manager's business, not Steno's.
//!
//! Substitution note (see DESIGN.md): the paper ran on a 100-node Dryad
//! cluster; here vertices are threads and channels are memory, which
//! preserves the code paths under study — chain splitting, per-vertex
//! Steno compilation, partial aggregation — while fitting on one machine.

// The executor survives UDF panics by construction (`catch_unwind` at
// the vertex boundary); nothing else in this crate may panic on
// data-dependent input. Enforced here, relaxed only in tests.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod chain_interp;
pub mod exec;
pub mod job;
pub mod partition;
pub mod sync;

pub use exec::{
    execute_distributed, homomorphic_apply, ClusterSpec, DistError, JobReport, VertexEngine,
};
pub use job::JobGraph;
pub use partition::DistributedCollection;
