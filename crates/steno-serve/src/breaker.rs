//! The compile-pressure circuit breaker behind graceful degradation.
//!
//! The paper's §7.1 measures compilation at ~69 ms — three orders of
//! magnitude above executing a cached plan. In a service, a burst of
//! novel queries (a cache-busting tenant, a deploy that invalidates
//! keys) turns that into sustained compile pressure, and a verifier
//! that starts rejecting plans signals an optimizer bug that retrying
//! at full tier will only repeat. The breaker watches both signals and
//! trades plan quality for availability: while open, new compilations
//! are pinned to the scalar tier ([`VectorizationPolicy::Off`]), which
//! skips the vectorizer entirely — cheaper to compile, still correct,
//! and cached under its own options key so healthy plans are untouched.
//! Degraded plans run every loop as scalar bytecode, slower per element
//! than the vectorized tier, but fully tape-verified and interruptible
//! by a request deadline at every loop back-edge.
//!
//! Classic three-state lifecycle:
//!
//! ```text
//!            trip_threshold consecutive
//!            slow/rejected compiles
//!   Closed ─────────────────────────────▶ Open
//!     ▲                                    │ cooldown elapses
//!     │  close_after healthy               ▼
//!     └──────────────────────────────── HalfOpen
//!              (any bad compile reopens: HalfOpen ──▶ Open)
//! ```

use std::time::{Duration, Instant};

use steno_cluster::sync::Mutex;
use steno_vm::{StenoOptions, VectorizationPolicy};

/// Tuning for the [`CompileBreaker`].
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Master switch; `false` pins the breaker closed.
    pub enabled: bool,
    /// A compile slower than this counts as a pressure signal.
    pub compile_budget: Duration,
    /// Consecutive bad compiles (slow or verifier-rejected) that trip
    /// the breaker open.
    pub trip_threshold: u32,
    /// How long the breaker stays open before probing via half-open.
    pub cooldown: Duration,
    /// Healthy compiles required in half-open before closing.
    pub close_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            enabled: true,
            // Generous relative to this VM's sub-millisecond compiles;
            // trips on pathological plans, not routine misses.
            compile_budget: Duration::from_millis(50),
            trip_threshold: 3,
            cooldown: Duration::from_millis(250),
            close_after: 2,
        }
    }
}

/// The breaker's externally visible state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: compiles run at the engine's configured tier.
    Closed,
    /// Tripped: new compilations are degraded to the scalar tier.
    Open,
    /// Probing: still degraded, but counting healthy compiles toward
    /// closing.
    HalfOpen,
}

enum State {
    Closed { consecutive_bad: u32 },
    Open { since: Instant },
    HalfOpen { healthy: u32 },
}

/// Watches compile health and decides the compilation tier for new
/// plans. Shared by every worker; all transitions happen under one
/// poison-recovering mutex.
pub struct CompileBreaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
    /// Cumulative count of open transitions, for observability.
    opened: Mutex<u64>,
}

impl CompileBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> CompileBreaker {
        CompileBreaker {
            cfg,
            state: Mutex::new(State::Closed { consecutive_bad: 0 }),
            opened: Mutex::new(0),
        }
    }

    /// The current state. Reading promotes `Open` to `HalfOpen` once
    /// the cooldown has elapsed, so callers always see the state their
    /// next compile will run under.
    pub fn state(&self) -> BreakerState {
        if !self.cfg.enabled {
            return BreakerState::Closed;
        }
        let mut s = self.state.lock();
        if let State::Open { since } = *s {
            if since.elapsed() >= self.cfg.cooldown {
                *s = State::HalfOpen { healthy: 0 };
            }
        }
        match *s {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// How many times the breaker has tripped open.
    pub fn times_opened(&self) -> u64 {
        *self.opened.lock()
    }

    /// The options a new compilation should run under, and whether they
    /// are degraded from `base`. Open and half-open pin the scalar tier;
    /// the plan cache keys on options, so degraded plans never shadow
    /// healthy ones.
    pub fn plan_options(&self, base: &StenoOptions) -> (StenoOptions, bool) {
        match self.state() {
            BreakerState::Closed => (*base, false),
            BreakerState::Open | BreakerState::HalfOpen => (
                StenoOptions {
                    vectorize: VectorizationPolicy::Off,
                    ..*base
                },
                true,
            ),
        }
    }

    /// Records one compile: its wall time and whether the verifier
    /// accepted the plan (`verifier_ok` is `true` when verification is
    /// off). Drives all state transitions.
    pub fn record_compile(&self, took: Duration, verifier_ok: bool) {
        if !self.cfg.enabled {
            return;
        }
        let bad = !verifier_ok || took > self.cfg.compile_budget;
        // Promote a cooled-down Open before recording, mirroring state().
        let _ = self.state();
        let mut s = self.state.lock();
        match &mut *s {
            State::Closed { consecutive_bad } => {
                if bad {
                    *consecutive_bad += 1;
                    if *consecutive_bad >= self.cfg.trip_threshold {
                        *s = State::Open {
                            since: Instant::now(),
                        };
                        drop(s);
                        *self.opened.lock() += 1;
                    }
                } else {
                    *consecutive_bad = 0;
                }
            }
            State::Open { .. } => {
                // Straggler results from compiles that started before the
                // trip; the cooldown clock governs, not these.
            }
            State::HalfOpen { healthy } => {
                if bad {
                    *s = State::Open {
                        since: Instant::now(),
                    };
                    drop(s);
                    *self.opened.lock() += 1;
                } else {
                    *healthy += 1;
                    if *healthy >= self.cfg.close_after {
                        *s = State::Closed { consecutive_bad: 0 };
                    }
                }
            }
        }
    }

    /// Records a verifier rejection discovered outside a timed compile
    /// (equivalent to `record_compile(ZERO, false)`).
    pub fn record_verifier_failure(&self) {
        self.record_compile(Duration::ZERO, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            enabled: true,
            compile_budget: Duration::from_millis(10),
            trip_threshold: 3,
            cooldown: Duration::from_millis(20),
            close_after: 2,
        }
    }

    const SLOW: Duration = Duration::from_millis(11);
    const FAST: Duration = Duration::ZERO;

    #[test]
    fn trips_after_consecutive_slow_compiles_only() {
        let b = CompileBreaker::new(cfg());
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_compile(SLOW, true);
        b.record_compile(SLOW, true);
        b.record_compile(FAST, true); // resets the streak
        b.record_compile(SLOW, true);
        b.record_compile(SLOW, true);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_compile(SLOW, true);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 1);
    }

    #[test]
    fn verifier_rejections_trip_regardless_of_speed() {
        let b = CompileBreaker::new(cfg());
        for _ in 0..3 {
            b.record_compile(FAST, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn open_degrades_to_scalar_and_recovers_through_half_open() {
        let b = CompileBreaker::new(cfg());
        let base = StenoOptions::default();
        assert!(!b.plan_options(&base).1);
        for _ in 0..3 {
            b.record_compile(SLOW, true);
        }
        let (opts, degraded) = b.plan_options(&base);
        assert!(degraded);
        assert_eq!(opts.vectorize, VectorizationPolicy::Off);

        // Cooldown elapses → half-open; two healthy compiles close it.
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.plan_options(&base).1, "half-open still degrades");
        b.record_compile(FAST, true);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_compile(FAST, true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.plan_options(&base).0.vectorize, base.vectorize);
    }

    #[test]
    fn bad_probe_reopens_from_half_open() {
        let b = CompileBreaker::new(cfg());
        for _ in 0..3 {
            b.record_compile(SLOW, true);
        }
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_verifier_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 2);
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let b = CompileBreaker::new(BreakerConfig {
            enabled: false,
            ..cfg()
        });
        for _ in 0..10 {
            b.record_compile(SLOW, false);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.plan_options(&StenoOptions::default()).1);
    }
}
