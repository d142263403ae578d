//! Poison-stress for the sync wrappers: many threads repeatedly panic
//! *while holding* the lock, interleaved with well-behaved threads.
//! The poison-recovering wrappers must neither deadlock nor lose state
//! — every critical section here leaves the protected value consistent
//! before panicking, which is exactly the contract the serving layer's
//! shared state relies on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use steno_cluster::sync::{Condvar, Mutex};

#[test]
fn mutex_survives_concurrent_panicking_holders() {
    const PANICKERS: usize = 4;
    const WORKERS: usize = 4;
    const ROUNDS: usize = 200;

    let counter = Arc::new(Mutex::new(0u64));
    let mut handles = Vec::new();

    // Panicking threads: increment, then panic with the lock held.
    for _ in 0..PANICKERS {
        let counter = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut guard = counter.lock();
                    *guard += 1;
                    panic!("poison while holding the lock");
                }));
                assert!(result.is_err(), "the panic must have fired");
            }
        }));
    }
    // Well-behaved threads: plain increments through the same lock.
    for _ in 0..WORKERS {
        let counter = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                *counter.lock() += 1;
            }
        }));
    }
    for h in handles {
        assert!(h.join().is_ok(), "stress threads themselves must not die");
    }

    // No deadlock (we got here) and no lost updates: every increment —
    // including the ones immediately followed by a panic — landed.
    let total = *counter.lock();
    assert_eq!(total, ((PANICKERS + WORKERS) * ROUNDS) as u64);
}

#[test]
fn condvar_waiters_survive_a_panicking_notifier() {
    let state = Arc::new(Mutex::new(0u32));
    let cv = Arc::new(Condvar::new());

    // A notifier that bumps the generation, panics while holding the
    // lock, and notifies from a later clean pass.
    let notifier = {
        let state = Arc::clone(&state);
        let cv = Arc::clone(&cv);
        std::thread::spawn(move || {
            for gen in 1..=10u32 {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let mut g = state.lock();
                    *g = gen;
                    panic!("poison under the condvar's mutex");
                }));
                cv.notify_all();
            }
        })
    };

    // The waiter keeps re-acquiring the (repeatedly poisoned) lock
    // until it observes the final generation; the deadline turns a
    // would-be deadlock into a test failure.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut guard = state.lock();
    while *guard < 10 {
        assert!(
            Instant::now() < deadline,
            "waiter starved: poisoning must not wedge the condvar"
        );
        guard = cv.wait_timeout(guard, Duration::from_millis(5));
    }
    drop(guard);
    assert!(notifier.join().is_ok());
    assert_eq!(*state.lock(), 10);
}
