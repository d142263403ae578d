//! Deterministic fault injection and the vertex-failure taxonomy.
//!
//! Dryad's contract (§6 of the paper) is that a failed or slow vertex is
//! re-executed — possibly speculatively — *without changing the job's
//! answer*. To make every recovery path in the scheduler testable, faults
//! are injected from a [`FaultPlan`]: a deterministic table saying
//! "vertex *i*, attempt *k* → fail / panic / stall". The runtime
//! consults the plan before running the real vertex body, so a test can
//! script exactly the failure sequence it wants to observe.
//!
//! The taxonomy ([`FailureClass`]) splits failures the way the recovery
//! logic must treat them:
//!
//! * **Transient** — injected faults, vertex panics, attempt timeouts.
//!   Re-execution may succeed, so the runtime retries (with backoff) up
//!   to the [`RetryPolicy`](crate::retry::RetryPolicy) budget.
//! * **Deterministic** — data-dependent errors the single-node engines
//!   already model as structured values (`VmError::DivisionByZero` and
//!   friends). Re-execution *must* fail identically, so the runtime
//!   never retries and surfaces the message byte-identical to the
//!   single-node error.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What an injected fault does to a vertex attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The attempt reports a transient error instead of running.
    Error,
    /// The attempt panics mid-vertex (exercises panic isolation).
    Panic,
    /// The attempt stalls for the given duration before running the real
    /// vertex body (simulated straggler). The stall is cooperative: it
    /// checks its [`CancelToken`] and aborts early when a speculative
    /// backup has already won.
    Delay(Duration),
}

/// One scripted fault: `vertex` on `attempt` does `kind`.
#[derive(Clone, Debug)]
pub struct Fault {
    /// Which map vertex (partition index) the fault hits.
    pub vertex: usize,
    /// Which attempt (0-based) of that vertex the fault hits.
    pub attempt: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault-injection schedule.
///
/// The empty plan (`FaultPlan::none()`, also `Default`) injects nothing
/// and is what production runs use.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a scripted fault (builder style).
    #[must_use = "with returns the extended plan"]
    pub fn with(mut self, vertex: usize, attempt: u32, kind: FaultKind) -> FaultPlan {
        self.faults.push(Fault {
            vertex,
            attempt,
            kind,
        });
        self
    }

    /// Fails `vertex`'s first attempt with a transient error; the retry
    /// runs clean.
    pub fn fail_once(vertex: usize) -> FaultPlan {
        FaultPlan::none().with(vertex, 0, FaultKind::Error)
    }

    /// Fails the first attempt of every one of `vertices` map vertices.
    pub fn fail_each_once(vertices: usize) -> FaultPlan {
        (0..vertices).fold(FaultPlan::none(), |p, v| p.with(v, 0, FaultKind::Error))
    }

    /// Panics `vertex`'s first attempt.
    pub fn panic_once(vertex: usize) -> FaultPlan {
        FaultPlan::none().with(vertex, 0, FaultKind::Panic)
    }

    /// Panics every attempt of `vertex` up to `attempts` (models a UDF
    /// that deterministically panics: retries exhaust, the panic
    /// surfaces).
    pub fn panic_always(vertex: usize, attempts: u32) -> FaultPlan {
        (0..attempts).fold(FaultPlan::none(), |p, k| p.with(vertex, k, FaultKind::Panic))
    }

    /// Stalls `vertex`'s first attempt by `delay` (a straggler).
    pub fn delay_once(vertex: usize, delay: Duration) -> FaultPlan {
        FaultPlan::none().with(vertex, 0, FaultKind::Delay(delay))
    }

    /// The fault scheduled for `(vertex, attempt)`, if any.
    pub fn lookup(&self, vertex: usize, attempt: u32) -> Option<&FaultKind> {
        self.faults
            .iter()
            .find(|f| f.vertex == vertex && f.attempt == attempt)
            .map(|f| &f.kind)
    }
}

/// Whether a vertex failure may be cured by re-execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// Environmental: injected faults, panics, timeouts. Retryable —
    /// Dryad's assumption that re-running a vertex can succeed.
    Transient,
    /// Data-dependent: a retried vertex must fail identically (the
    /// `VmError`s of `steno-vm`). Never retried; surfaced byte-identical
    /// to the single-node error.
    Deterministic,
}

/// A structured vertex failure, classified for the retry logic.
#[derive(Clone, Debug)]
pub struct VertexFailure {
    /// Retryable or not.
    pub class: FailureClass,
    /// Human-readable cause. For deterministic failures this is exactly
    /// the single-node error's `Display` output.
    pub message: String,
    /// `true` when the failure was an unwinding panic caught at the
    /// vertex boundary (the message is then the panic payload).
    pub panicked: bool,
}

impl VertexFailure {
    /// A retryable failure.
    pub fn transient(message: impl Into<String>) -> VertexFailure {
        VertexFailure {
            class: FailureClass::Transient,
            message: message.into(),
            panicked: false,
        }
    }

    /// A non-retryable, data-dependent failure.
    pub fn deterministic(message: impl Into<String>) -> VertexFailure {
        VertexFailure {
            class: FailureClass::Deterministic,
            message: message.into(),
            panicked: false,
        }
    }

    /// A caught panic (transient: Dryad re-executes crashed vertices).
    pub fn panic(payload: impl Into<String>) -> VertexFailure {
        VertexFailure {
            class: FailureClass::Transient,
            message: payload.into(),
            panicked: true,
        }
    }
}

/// Extracts a printable payload from a caught panic.
pub(crate) fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A cooperative cancellation flag shared between a running attempt and
/// the scheduler. "Cancelling" a vertex cannot preempt arbitrary user
/// code (threads are not killable — the same is true of Dryad worker
/// processes); instead long-running cooperative points (the injected
/// straggler stall, future operator yield points) poll the token and
/// bail out early, and the scheduler ignores results from cancelled
/// attempts.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Sleeps for `total`, polling for cancellation every millisecond.
    /// Returns `false` if the sleep was cut short by cancellation.
    pub fn sleep_cooperatively(&self, total: Duration) -> bool {
        let slice = Duration::from_millis(1);
        let deadline = std::time::Instant::now() + total;
        loop {
            if self.is_cancelled() {
                return false;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return true;
            }
            std::thread::sleep(slice.min(deadline - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_scripted_faults() {
        let plan = FaultPlan::fail_once(2).with(1, 3, FaultKind::Panic);
        assert_eq!(plan.lookup(2, 0), Some(&FaultKind::Error));
        assert_eq!(plan.lookup(2, 1), None);
        assert_eq!(plan.lookup(1, 3), Some(&FaultKind::Panic));
        assert_eq!(plan.lookup(0, 0), None);
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn fail_each_once_covers_every_vertex() {
        let plan = FaultPlan::fail_each_once(4);
        for v in 0..4 {
            assert_eq!(plan.lookup(v, 0), Some(&FaultKind::Error));
            assert_eq!(plan.lookup(v, 1), None);
        }
    }

    #[test]
    fn cancel_token_cuts_sleep_short() {
        let t = CancelToken::new();
        t.cancel();
        let start = std::time::Instant::now();
        assert!(!t.sleep_cooperatively(Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn failure_constructors_classify() {
        assert_eq!(
            VertexFailure::transient("x").class,
            FailureClass::Transient
        );
        assert_eq!(
            VertexFailure::deterministic("x").class,
            FailureClass::Deterministic
        );
        let p = VertexFailure::panic("boom");
        assert!(p.panicked);
        assert_eq!(p.class, FailureClass::Transient);
    }
}
