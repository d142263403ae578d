//! Retry, backoff, and speculative re-execution policies.
//!
//! Dryad re-executes failed vertices and runs *speculative duplicates*
//! of slow ones ("stragglers"), keeping the first result (§6 of the
//! paper describes the cluster contract Steno's distributed plans rely
//! on). [`RetryPolicy`] bounds how hard the scheduler tries before
//! surfacing a transient failure; [`SpeculationPolicy`] decides when a
//! still-running vertex is slow enough — relative to its completed
//! siblings — to deserve a backup attempt.
//!
//! Backoff jitter is deterministic (seeded SplitMix64, keyed by
//! `(seed, vertex, attempt)`), so a failing schedule replays exactly.

use std::time::Duration;

/// Bounds on per-vertex re-execution.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts allowed per vertex (first run included). `1`
    /// disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff interval.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each interval is scaled by a
    /// deterministic factor drawn from `[1 - jitter, 1]`.
    pub jitter: f64,
    /// Wall-clock budget for a single attempt. When exceeded, the
    /// attempt is declared timed out (a *transient* failure: the vertex
    /// is re-executed; the overrunning attempt is cooperatively
    /// cancelled but may still win if it finishes first).
    pub attempt_deadline: Option<Duration>,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter: 0.5,
            attempt_deadline: None,
            seed: 0x57E9_0C1A,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the pre-fault-tolerance behaviour).
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The pause before retry number `retry` (1-based) of `vertex`:
    /// exponential in `retry`, clamped to [`RetryPolicy::max_backoff`],
    /// scaled by deterministic jitter. Equal `(seed, vertex, retry)`
    /// always jitters identically, so a failing schedule replays
    /// exactly, while vertices that fail together desynchronize instead
    /// of retrying in lockstep.
    pub fn backoff(&self, vertex: usize, retry: u32) -> Duration {
        if retry == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (retry - 1).min(16))
            .min(self.max_backoff);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter == 0.0 {
            return exp;
        }
        let key = (vertex as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let h = splitmix64(self.seed ^ key ^ u64::from(retry));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let scale = 1.0 - jitter * u; // (1 - jitter, 1]
        exp.mul_f64(scale)
    }
}

/// SplitMix64: the one-shot mixing function behind the deterministic
/// backoff jitter (no external RNG dependency in the non-test build).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// When to launch a speculative duplicate of a slow vertex.
///
/// The trigger is relative: once at least [`min_completed`] sibling
/// vertices have finished, a vertex still running after
/// `multiplier × quantile(completed durations)` (but never less than
/// [`floor`]) gets one backup attempt. First result wins; the loser is
/// cooperatively cancelled.
///
/// [`min_completed`]: SpeculationPolicy::min_completed
/// [`floor`]: SpeculationPolicy::floor
#[derive(Clone, Debug)]
pub struct SpeculationPolicy {
    /// Master switch.
    pub enabled: bool,
    /// Which quantile of completed-vertex durations anchors the
    /// threshold (`0.75` = third quartile).
    pub quantile: f64,
    /// Multiplier on the quantile duration.
    pub multiplier: f64,
    /// How many vertices must have completed before anything is judged
    /// a straggler.
    pub min_completed: usize,
    /// Lower bound on the threshold, so microsecond-scale jobs never
    /// speculate spuriously.
    pub floor: Duration,
    /// Backup attempts allowed per vertex.
    pub max_backups: usize,
}

impl Default for SpeculationPolicy {
    fn default() -> SpeculationPolicy {
        SpeculationPolicy {
            enabled: true,
            quantile: 0.75,
            multiplier: 4.0,
            min_completed: 1,
            floor: Duration::from_millis(50),
            max_backups: 1,
        }
    }
}

impl SpeculationPolicy {
    /// Speculation switched off entirely.
    pub fn disabled() -> SpeculationPolicy {
        SpeculationPolicy {
            enabled: false,
            ..SpeculationPolicy::default()
        }
    }

    /// An aggressive policy for tests: speculate after `floor` with a
    /// single completed sibling.
    pub fn aggressive(floor: Duration) -> SpeculationPolicy {
        SpeculationPolicy {
            enabled: true,
            quantile: 0.5,
            multiplier: 2.0,
            min_completed: 1,
            floor,
            max_backups: 1,
        }
    }

    /// The elapsed-time threshold above which a running vertex is a
    /// straggler, given the (unsorted) durations of completed vertices.
    /// `None` while too few siblings have completed to judge.
    pub fn threshold(&self, completed: &[Duration]) -> Option<Duration> {
        if !self.enabled || completed.len() < self.min_completed.max(1) {
            return None;
        }
        let mut sorted = completed.to_vec();
        sorted.sort();
        let q = self.quantile.clamp(0.0, 1.0);
        // Nearest-rank quantile.
        let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        let anchor = sorted[rank.min(sorted.len() - 1)];
        Some(anchor.mul_f64(self.multiplier.max(1.0)).max(self.floor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_clamps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(0, 0), Duration::ZERO);
        assert_eq!(p.backoff(0, 1), Duration::from_millis(1));
        assert_eq!(p.backoff(0, 2), Duration::from_millis(2));
        assert_eq!(p.backoff(0, 3), Duration::from_millis(4));
        // Clamped at max_backoff.
        assert_eq!(p.backoff(0, 12), Duration::from_millis(50));
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for vertex in 0..8 {
            for retry in 1..6 {
                let a = p.backoff(vertex, retry);
                let b = p.backoff(vertex, retry);
                assert_eq!(a, b, "same (vertex, retry) must jitter identically");
                let nominal = p
                    .base_backoff
                    .saturating_mul(1 << (retry - 1))
                    .min(p.max_backoff);
                assert!(a <= nominal);
                assert!(a >= nominal.mul_f64(1.0 - p.jitter - 1e-9));
            }
        }
    }

    #[test]
    fn speculation_threshold_needs_completions() {
        let p = SpeculationPolicy::default();
        assert_eq!(p.threshold(&[]), None);
        let t = p
            .threshold(&[Duration::from_millis(10), Duration::from_millis(20)])
            .unwrap();
        // 4 × q75(10ms, 20ms) = 80ms, above the 50ms floor.
        assert_eq!(t, Duration::from_millis(80));
        // The floor wins for fast jobs.
        let fast = p.threshold(&[Duration::from_micros(5)]).unwrap();
        assert_eq!(fast, Duration::from_millis(50));
        assert_eq!(SpeculationPolicy::disabled().threshold(&[Duration::ZERO]), None);
    }

    #[test]
    fn no_retries_policy_has_one_attempt() {
        assert_eq!(RetryPolicy::no_retries().max_attempts, 1);
    }

    #[test]
    fn backoff_desynchronizes_vertices() {
        let p = RetryPolicy::default();
        // Distinct vertices should not all land on the same instant;
        // with 50% jitter over 16 vertices a full collision is
        // astronomically unlikely, so any spread proves the
        // desynchronization works.
        let spread: std::collections::HashSet<Duration> =
            (0..16).map(|v| p.backoff(v, 4)).collect();
        assert!(spread.len() > 1, "jitter must separate concurrent vertices");
    }
}
