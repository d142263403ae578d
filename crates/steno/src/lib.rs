//! Steno: automatic optimization of declarative queries.
//!
//! A Rust reproduction of *Steno: Automatic Optimization of Declarative
//! Queries* (Murray, Isard & Yu, PLDI 2011). Steno translates declarative
//! LINQ-style queries into type-specialized, inlined, loop-based
//! imperative code, eliminating the chains of lazily-evaluated iterators
//! (and their per-element virtual calls) that make declarative code
//! several times slower than hand-optimized loops.
//!
//! # The pipeline
//!
//! ```text
//!  query text ──steno-syntax──► QueryExpr ──steno-quil──► QUIL chain
//!      (or builder / steno!)        │                        │
//!                                   ▼                        ▼
//!                unoptimized: steno-linq interp      steno-codegen (PDA)
//!                (boxed iterator chains, §2)                 │
//!                                                            ▼
//!                                          imperative AST ──steno-vm──► result
//! ```
//!
//! Three execution paths are provided, mirroring the paper's evaluation:
//!
//! * **Unoptimized LINQ** — [`steno_linq`]'s boxed-iterator interpreter
//!   (two virtual calls per element per operator).
//! * **Runtime Steno** — [`Steno::execute`]: lower → specialize →
//!   generate → bytecode, with the one-off cost measured and cached
//!   (§3.3, §7.1).
//! * **Compile-time Steno** — the [`steno!`] macro expands the same
//!   generated loops into your crate at build time (§9).
//!
//! # Quickstart
//!
//! ```
//! use steno::prelude::*;
//!
//! let ctx = DataContext::new().with_source("xs", vec![1.0, 2.0, 3.0, 4.0]);
//! let udfs = UdfRegistry::new();
//! let engine = Steno::new();
//!
//! // Runtime path, from query text:
//! let sum = engine
//!     .execute_text("(from x in xs where x > 1.5 select x * x).sum()", &ctx, &udfs)?;
//! assert_eq!(sum, Value::F64(29.0));
//! # Ok::<(), steno::StenoError>(())
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod engine;
pub mod explain;
pub mod rt;

pub use engine::{Exec, ExecutionPath, Steno, StenoError};
pub use explain::{Explain, ExplainPlan};
pub use steno_macros::steno;

/// The commonly-used types, in one import.
pub mod prelude {
    pub use crate::engine::{Exec, ExecutionPath, Steno, StenoError};
    pub use crate::explain::{Explain, ExplainPlan};
    pub use steno_cluster::{
        ClusterSpec, DistError, DistributedCollection, JobReport, VertexEngine,
    };
    pub use steno_expr::{Column, DataContext, Expr, Ty, UdfRegistry, Value};
    pub use steno_linq::Enumerable;
    pub use steno_obs::{Collector, MemoryCollector, MetricsSnapshot, NoopCollector};
    pub use steno_query::{GroupResult, Query, QueryExpr};
    pub use steno_macros::steno;
    pub use steno_vm::{
        CompiledQuery, EngineKind, FallbackReason, LoopPlan, LoopTier, QueryProfile,
        StenoOptions, VectorizationPolicy,
    };
    pub use steno_analysis::{Diagnostic, Severity, VerifyError, VerifyReport};
}

// Re-export the component crates for direct access.
pub use steno_analysis as analysis;
pub use steno_cluster as cluster;
pub use steno_obs as obs;
pub use steno_codegen as codegen;
pub use steno_expr as expr;
pub use steno_linq as linq;
pub use steno_query as query;
pub use steno_quil as quil;
pub use steno_syntax as syntax;
pub use steno_vm as vm;
