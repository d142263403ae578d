//! The §7.1 break-even model for tier choice.
//!
//! The VM has two execution tiers per loop — the batch tier (column
//! batches, some of whose tapes run as one fused kernel) and scalar
//! bytecode — and by default picks between them with a *static*
//! preference order: vectorize when the loop is eligible. That order is
//! right for large inputs (batch setup amortizes over many elements)
//! and wrong for small ones (a few hundred elements never pay back the
//! per-loop batch machinery). This module turns measured run facts into
//! an explicit, explainable tier recommendation.

use std::fmt;

/// Observed facts about one loop, gathered by profiled runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoopStats {
    /// Elements flowing into the loop per run (exponentially decayed
    /// mean when fed from a [`crate::PlanStats`]).
    pub elements: f64,
    /// Fraction of batch lanes surviving selection, in `[0, 1]`;
    /// `None` when the loop has no filters or no profile exists yet.
    pub density: Option<f64>,
    /// Measured wall time per element inside loop instructions
    /// (nanoseconds), from span-timed profiled runs; `None` until a
    /// profiled run has reported. When present, tier choice switches
    /// from the element-count heuristic to the measured-cost rule.
    pub ns_per_elem: Option<f64>,
}

/// The compiler-facing recommendation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierAdvice {
    /// Large enough input: keep the default vectorize-first order.
    PreferVectorized,
    /// Batch setup will not amortize; compile straight to the scalar
    /// tier.
    PreferScalar,
}

impl fmt::Display for TierAdvice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TierAdvice::PreferVectorized => write!(f, "vectorized"),
            TierAdvice::PreferScalar => write!(f, "scalar"),
        }
    }
}

/// Below this many *batches* worth of elements, per-loop batch setup
/// (column allocation, selection vectors, kernel dispatch) dominates
/// the dense-kernel win and the scalar tier is faster end to end. Two
/// batches is the measured break-even on the bench corpus: one batch
/// never amortizes, and the gap closes quickly after that.
const MIN_BATCHES_TO_AMORTIZE: f64 = 2.0;

/// Measured-cost break-even: when a loop's *useful* measured time
/// (ns/elem × elements × selection density) is below this, per-loop
/// batch setup — column allocation, selection vectors, kernel dispatch,
/// a few µs on the bench machines — is a comparable share of the total
/// and the scalar tier wins end to end. Density weights the product
/// because a sparse selection means the scalar tier short-circuits most
/// downstream work while the batch tier still pays full lanes.
const MEASURED_BREAK_EVEN_NS: f64 = 8_000.0;

/// Advises a tier for a loop given its observed stats, returning the
/// advice plus a human-readable rationale (surfaced verbatim in
/// `EXPLAIN` as the `chosen-by:` line).
///
/// With a measured per-element time ([`LoopStats::ns_per_elem`], from
/// span-timed profiled runs) the decision weighs measured
/// ns/elem × elements × selectivity against a wall-clock break-even —
/// the rationale is prefixed `measured-cost:`. Without a measurement it
/// falls back to the §7.1 element-count heuristic.
pub fn choose_tier(stats: &LoopStats, batch: usize) -> (TierAdvice, String) {
    if let Some(npe) = stats.ns_per_elem.filter(|n| *n > 0.0) {
        if stats.elements > 0.0 {
            let density = stats.density.unwrap_or(1.0);
            let useful_ns = npe * stats.elements * density;
            let density_note = match stats.density {
                Some(d) => format!(" × density {d:.2}"),
                None => String::new(),
            };
            let (advice, cmp) = if useful_ns < MEASURED_BREAK_EVEN_NS {
                (TierAdvice::PreferScalar, '<')
            } else {
                (TierAdvice::PreferVectorized, '≥')
            };
            let why = format!(
                "measured-cost: ~{npe:.1} ns/elem × ~{:.0} elements{density_note} ≈ \
                 {:.1} µs {cmp} {:.0} µs batch break-even",
                stats.elements,
                useful_ns / 1e3,
                MEASURED_BREAK_EVEN_NS / 1e3
            );
            return (advice, why);
        }
    }
    let break_even = MIN_BATCHES_TO_AMORTIZE * batch as f64;
    if stats.elements > 0.0 && stats.elements < break_even {
        return (
            TierAdvice::PreferScalar,
            format!(
                "observed ~{:.0} elements < {:.0} break-even: batch setup would not amortize",
                stats.elements, break_even
            ),
        );
    }
    let density_note = match stats.density {
        Some(d) => format!(", density {d:.2}"),
        None => String::new(),
    };
    (
        TierAdvice::PreferVectorized,
        format!(
            "observed ~{:.0} elements ≥ {:.0} break-even{density_note}",
            stats.elements, break_even
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_inputs_prefer_scalar() {
        let (advice, why) = choose_tier(
            &LoopStats {
                elements: 100.0,
                density: None,
                ns_per_elem: None,
            },
            1024,
        );
        assert_eq!(advice, TierAdvice::PreferScalar);
        assert!(why.contains("100"), "{why}");
        assert!(why.contains("2048"), "{why}");
    }

    #[test]
    fn large_inputs_prefer_vectorized() {
        let (advice, why) = choose_tier(
            &LoopStats {
                elements: 1_000_000.0,
                density: Some(0.25),
                ns_per_elem: None,
            },
            1024,
        );
        assert_eq!(advice, TierAdvice::PreferVectorized);
        assert!(why.contains("density 0.25"), "{why}");
    }

    #[test]
    fn zero_observation_keeps_default() {
        // No profile yet: do not override the static order.
        let (advice, _) = choose_tier(&LoopStats::default(), 1024);
        assert_eq!(advice, TierAdvice::PreferVectorized);
    }

    #[test]
    fn break_even_boundary_is_inclusive_for_vectorized() {
        let (advice, _) = choose_tier(
            &LoopStats {
                elements: 2048.0,
                density: None,
                ns_per_elem: None,
            },
            1024,
        );
        assert_eq!(advice, TierAdvice::PreferVectorized);
    }

    #[test]
    fn measured_cost_prefers_scalar_for_cheap_loops() {
        // 3000 elements would pass the element-count break-even, but the
        // loop measures 2 ns/elem → 6 µs of work: batch setup dominates.
        let (advice, why) = choose_tier(
            &LoopStats {
                elements: 3000.0,
                density: None,
                ns_per_elem: Some(2.0),
            },
            1024,
        );
        assert_eq!(advice, TierAdvice::PreferScalar);
        assert!(why.starts_with("measured-cost:"), "{why}");
        assert!(why.contains("2.0 ns/elem"), "{why}");
        assert!(why.contains("3000"), "{why}");
    }

    #[test]
    fn measured_cost_prefers_vectorized_for_heavy_loops() {
        let (advice, why) = choose_tier(
            &LoopStats {
                elements: 1_000_000.0,
                density: None,
                ns_per_elem: Some(1.5),
            },
            1024,
        );
        assert_eq!(advice, TierAdvice::PreferVectorized);
        assert!(why.starts_with("measured-cost:"), "{why}");
    }

    #[test]
    fn measured_cost_weighs_selectivity() {
        // 40 µs of raw measured work, but only 5% of lanes survive
        // selection: useful time 2 µs — the scalar tier's short-circuit
        // skips the other 95%, so batch setup cannot pay for itself.
        let sparse = LoopStats {
            elements: 20_000.0,
            density: Some(0.05),
            ns_per_elem: Some(2.0),
        };
        let (advice, why) = choose_tier(&sparse, 1024);
        assert_eq!(advice, TierAdvice::PreferScalar, "{why}");
        assert!(why.contains("density 0.05"), "{why}");
        // Same loop with dense selection keeps the vectorized tier.
        let dense = LoopStats {
            density: Some(0.95),
            ..sparse
        };
        let (advice, why) = choose_tier(&dense, 1024);
        assert_eq!(advice, TierAdvice::PreferVectorized, "{why}");
    }

    #[test]
    fn zero_measurement_falls_back_to_element_counts() {
        let (_, why) = choose_tier(
            &LoopStats {
                elements: 5000.0,
                density: None,
                ns_per_elem: Some(0.0),
            },
            1024,
        );
        assert!(!why.contains("measured-cost"), "{why}");
    }
}
