//! The service front end: Steno as a shared, multi-tenant query service.
//!
//! The paper measures Steno inside a single process, but motivates it
//! with services "used by millions of users" where query latency is a
//! product constraint. This crate is that deployment shape: a
//! [`QueryService`] owns a worker pool and a [`Steno`] engine (with its
//! bounded plan cache) and exposes `submit` / `wait` with the contract a
//! front end actually needs under load:
//!
//! * **Deadlines** — every admitted query carries one. It is enforced
//!   *inside* the VM via [`steno_vm::Interrupt`]: a query past its
//!   deadline aborts within one poll stride instead of holding a worker
//!   until the data runs out.
//! * **Cancellation** — a caller that stops caring cancels its ticket;
//!   the ticket's cancel flag is bridged into the VM as a cancel probe.
//! * **Admission control** — bounded per-tenant queues with per-tenant
//!   in-flight quotas, dispatched round-robin so one tenant's flood
//!   cannot starve another. Overflow is *shed* with an explicit
//!   [`ServeError::Rejected`] carrying a retry hint — never an unbounded
//!   queue, never a panic.
//! * **One attempt per job** — each admitted query is compiled through
//!   the shared plan cache and run once. A panic while it runs is
//!   contained and reported as a [`FailureClass::Transient`] failure;
//!   whether to resubmit is the caller's decision, as after a shed.
//!   Every other failure is [`FailureClass::Deterministic`]; deterministic
//!   compile failures are negatively cached so repeat offenders don't
//!   recompile.
//! * **Observability** — every decision (admit/shed/fail) and the
//!   end-to-end latency distribution land in a
//!   [`steno_obs::Collector`], from which [`SaturationReport`] derives
//!   the p50/p99 SLO view.
//!
//! [`Steno`]: steno::Steno

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod loadgen;
pub mod report;
pub mod service;

pub use loadgen::{SplitMix64, Zipf};
pub use report::SaturationReport;
pub use service::{FailureClass, QueryRequest, QueryService, QueryTicket, ServeConfig, ServeError};
