//! The Steno execution back end: generated loop code as register bytecode.
//!
//! The paper compiles its generated C# with `csc`, dynamically loads the
//! DLL, and invokes the compiled query object (§3.3). Rust has no
//! in-process JIT, so this crate provides the equivalent runtime back end:
//! the imperative program produced by `steno-codegen` is compiled to a
//! compact, *type-specialized* register bytecode ([`compile`]) and
//! executed by a tight interpreter loop ([`exec`]).
//!
//! What matters for reproducing the paper's measurements is the cost
//! model: per element the bytecode pays a handful of enum-dispatched
//! instructions over unboxed `f64`/`i64` registers — no virtual calls, no
//! iterator state machines, no per-operator function objects. The
//! one-off translation cost (lower → generate → assemble) corresponds to
//! the paper's ~69 ms `csc` invocation; it is measured by
//! [`CompiledQuery::compile`] and amortized by the [`QueryCache`]
//! (the caching the paper suggests via Nectar \[18\]).
//!
//! # Example
//!
//! ```
//! use steno_expr::{DataContext, Expr, UdfRegistry, Value};
//! use steno_query::Query;
//! use steno_vm::CompiledQuery;
//!
//! let q = Query::source("xs")
//!     .select(Expr::var("x") * Expr::var("x"), "x")
//!     .sum()
//!     .build();
//! let ctx = DataContext::new().with_source("xs", vec![1.0, 2.0, 3.0]);
//! let udfs = UdfRegistry::new();
//! let compiled = CompiledQuery::compile(&q, (&ctx).into(), &udfs)?;
//! assert_eq!(compiled.run(&ctx, &udfs)?, Value::F64(14.0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod batch;
pub mod compile;
pub mod check;
pub mod fuse;
pub mod fuse_kernels;
pub mod exec;
pub mod instr;
pub mod interrupt;
pub mod kernels;
pub mod lifetimes;
pub mod prepared;
pub mod profile;
pub mod query;
pub mod sink;

pub use check::{check_program, CheckError, ObligationKind, TapeReport};
pub use compile::{assemble, CompileError};
pub use exec::{run_program, VmError};
pub use instr::{FallbackReason, Instr, LoopPlan, LoopTier, Program};
pub use interrupt::{CancelProbe, Interrupt};
pub use profile::QueryProfile;
pub use query::{
    CacheStats, CompiledQuery, EngineKind, QueryCache, StenoOptions, VectorizationPolicy,
};
