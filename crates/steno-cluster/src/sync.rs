//! Poison-recovering wrappers over `std::sync` primitives.
//!
//! Code that *expects* panics — vertex bodies and served queries run
//! under `catch_unwind` — must not wedge shared state behind a poisoned
//! lock. These wrappers recover the inner guard on poisoning — safe
//! wherever every critical section leaves the protected state consistent
//! (single-field writes, queue push/pop, counter bumps) and the panic
//! itself is turned into a structured error at the `catch_unwind`
//! boundary.

use std::sync::PoisonError;
use std::time::Duration;

/// A guard for [`Mutex`] (the plain `std` guard).
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// A mutex whose `lock` recovers from poisoning instead of returning a
/// `Result` (the `parking_lot`-style API, without the external
/// dependency).
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, recovering the guard if a panicking holder
    /// poisoned it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex, returning the inner value (poison-recovering).
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A fresh condition variable.
    pub fn new() -> Condvar {
        Condvar::default()
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Waits on `guard` for at most `dur`, returning the re-acquired
    /// guard (poison-recovering; spurious wakes allowed, as usual).
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> MutexGuard<'a, T> {
        match self.0.wait_timeout(guard, dur) {
            Ok((g, _)) => g,
            Err(poisoned) => poisoned.into_inner().0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7_i32));
        let m2 = Arc::clone(&m);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        }));
        assert_eq!(*m.lock(), 7, "guard recovered after a panicking holder");
        let m = Arc::try_unwrap(m).map_err(|_| ()).expect("sole owner");
        assert_eq!(m.into_inner(), 7);
    }

    #[test]
    fn wait_timeout_returns_the_guard() {
        let m = Mutex::new(1_i32);
        let cv = Condvar::new();
        let g = m.lock();
        let g = cv.wait_timeout(g, Duration::from_millis(1));
        assert_eq!(*g, 1);
    }
}
