//! Cooperative interruption: deadlines and cancellation for running
//! queries.
//!
//! The VM cannot preempt a running program (threads are not killable —
//! the same constraint the cluster scheduler documents on its
//! `CancelToken`), so interruption is cooperative: the dispatch loop
//! polls an [`Interrupt`] at loop back-edges and the batch engine polls
//! it at batch boundaries, aborting with [`VmError::Cancelled`] or
//! [`VmError::DeadlineExceeded`] instead of running to completion. This
//! is the mechanism `steno-serve` uses to bound the latency of a slow or
//! poisoned query: a query past its deadline stops within one poll
//! stride (≤ [`POLL_STRIDE`] scalar elements or one 1024-lane batch)
//! rather than holding a worker until the data runs out.
//!
//! An inert interrupt (no deadline, no cancel probe) costs two `Option`
//! checks per poll point, so the uninterruptible entry points lose
//! nothing.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::exec::VmError;

/// How many scalar-loop back-edges pass between full interrupt checks.
/// A full check reads the clock and calls the cancel probe; at the
/// scalar tier's ~20–40 ns/element this bounds detection latency to a
/// few microseconds while keeping the per-element cost to a counter
/// decrement.
pub const POLL_STRIDE: u32 = 64;

/// A cancellation probe: returns `true` once the caller wants the query
/// aborted. Kept as a boxed closure so any flag type (the cluster's
/// `CancelToken`, a bare `AtomicBool`, a channel disconnect test) can
/// drive the VM without a dependency edge.
pub type CancelProbe = Arc<dyn Fn() -> bool + Send + Sync>;

/// A deadline and/or cancellation request threaded into VM execution.
///
/// The default value is inert: no deadline, no probe, never fires.
#[derive(Clone, Default)]
pub struct Interrupt {
    cancelled: Option<CancelProbe>,
    deadline: Option<Instant>,
}

impl fmt::Debug for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interrupt")
            .field("deadline", &self.deadline)
            .field("has_cancel_probe", &self.cancelled.is_some())
            .finish()
    }
}

impl Interrupt {
    /// The inert interrupt: never fires.
    pub const fn none() -> Interrupt {
        Interrupt {
            cancelled: None,
            deadline: None,
        }
    }

    /// Aborts execution with [`VmError::DeadlineExceeded`] once the
    /// wall clock passes `at` (builder style).
    #[must_use = "with_deadline returns the extended interrupt"]
    pub fn with_deadline(mut self, at: Instant) -> Interrupt {
        self.deadline = Some(at);
        self
    }

    /// As [`Interrupt::with_deadline`], measured from now.
    #[must_use = "with_deadline_in returns the extended interrupt"]
    pub fn with_deadline_in(self, budget: Duration) -> Interrupt {
        self.with_deadline(Instant::now() + budget)
    }

    /// Aborts execution with [`VmError::Cancelled`] once `probe`
    /// returns `true` (builder style).
    #[must_use = "with_cancel_probe returns the extended interrupt"]
    pub fn with_cancel_probe(mut self, probe: CancelProbe) -> Interrupt {
        self.cancelled = Some(probe);
        self
    }

    /// The deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// `true` when this interrupt can never fire (no deadline, no
    /// probe) — poll points reduce to this check.
    #[inline]
    pub fn is_inert(&self) -> bool {
        self.deadline.is_none() && self.cancelled.is_none()
    }

    /// Checks both conditions now. The deadline is checked first so a
    /// query that is both cancelled and past its deadline reports
    /// [`VmError::DeadlineExceeded`] deterministically.
    ///
    /// # Errors
    ///
    /// [`VmError::DeadlineExceeded`] past the deadline,
    /// [`VmError::Cancelled`] once the probe fires.
    #[inline]
    pub fn check(&self) -> Result<(), VmError> {
        if let Some(at) = self.deadline {
            if Instant::now() >= at {
                return Err(VmError::DeadlineExceeded);
            }
        }
        if let Some(probe) = &self.cancelled {
            if probe() {
                return Err(VmError::Cancelled);
            }
        }
        Ok(())
    }

    /// Amortized poll for hot loops: decrements `budget` and runs a full
    /// [`Interrupt::check`] every [`POLL_STRIDE`] calls. Inert
    /// interrupts return immediately without touching the budget.
    ///
    /// # Errors
    ///
    /// As [`Interrupt::check`].
    #[inline]
    pub fn poll(&self, budget: &mut u32) -> Result<(), VmError> {
        if self.is_inert() {
            return Ok(());
        }
        *budget = budget.wrapping_sub(1);
        if *budget == 0 {
            *budget = POLL_STRIDE;
            self.check()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn inert_interrupt_never_fires() {
        let i = Interrupt::none();
        assert!(i.is_inert());
        assert_eq!(i.check(), Ok(()));
        let mut budget = 1;
        for _ in 0..10 * POLL_STRIDE {
            assert_eq!(i.poll(&mut budget), Ok(()));
        }
        // Inert polls never consume the budget.
        assert_eq!(budget, 1);
    }

    #[test]
    fn deadline_fires_after_expiry() {
        let i = Interrupt::none().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(!i.is_inert());
        assert_eq!(i.check(), Err(VmError::DeadlineExceeded));
        let future = Interrupt::none().with_deadline_in(Duration::from_secs(60));
        assert_eq!(future.check(), Ok(()));
    }

    #[test]
    fn cancel_probe_fires_when_set() {
        let flag = Arc::new(AtomicBool::new(false));
        let probe = {
            let flag = Arc::clone(&flag);
            Arc::new(move || flag.load(Ordering::Acquire)) as CancelProbe
        };
        let i = Interrupt::none().with_cancel_probe(probe);
        assert_eq!(i.check(), Ok(()));
        flag.store(true, Ordering::Release);
        assert_eq!(i.check(), Err(VmError::Cancelled));
    }

    #[test]
    fn deadline_wins_over_cancellation() {
        let probe = Arc::new(|| true) as CancelProbe;
        let i = Interrupt::none()
            .with_cancel_probe(probe)
            .with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(i.check(), Err(VmError::DeadlineExceeded));
    }

    #[test]
    fn poll_checks_on_stride_boundaries() {
        let i = Interrupt::none().with_deadline(Instant::now() - Duration::from_millis(1));
        let mut budget = POLL_STRIDE;
        for _ in 0..POLL_STRIDE - 1 {
            assert_eq!(i.poll(&mut budget), Ok(()), "mid-stride polls are free");
        }
        assert_eq!(i.poll(&mut budget), Err(VmError::DeadlineExceeded));
        assert_eq!(budget, POLL_STRIDE, "budget refills after a full check");
    }
}
