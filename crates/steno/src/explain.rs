//! `EXPLAIN` for Steno queries: where the optimizer sent each loop, and
//! why.
//!
//! [`crate::engine::Steno::explain`] renders the full lowering pipeline
//! for a query — the original AST, the canonical QUIL sentence it
//! lowered to, and the tier decision for every compiled loop
//! (vectorized / scalar, with the vectorizer's exact refusal
//! reason when one was recorded). Queries outside the QUIL operator
//! classes explain as the fallback path with the lowering error.
//!
//! Two renderings: [`Explain::render`] for humans, [`Explain::to_json`]
//! as a stable machine-readable form (field order fixed; volatile data
//! like compile time deliberately excluded so equal plans render
//! byte-equal).

use steno_obs::json;
use steno_opt::RewriteEvent;
use steno_vm::{EngineKind, LoopPlan};

/// The explained plan for one query.
#[derive(Clone, Debug)]
pub struct Explain {
    /// The query, printed in its canonical AST form.
    pub query: String,
    /// What the optimizer decided.
    pub plan: ExplainPlan,
}

/// The optimizer's decision for a query.
// EXPLAIN is constructed a handful of times per process, never stored
// in bulk; boxing the big variant would just push indirection into the
// many call sites that pattern-match it.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ExplainPlan {
    /// The query lowered to QUIL and compiled to bytecode.
    Optimized {
        /// The canonical QUIL sentence.
        quil: String,
        /// Which engine the hot loops run on.
        engine: EngineKind,
        /// Total bytecode instructions.
        instr_count: usize,
        /// Tier decision per loop, in compilation order.
        loops: Vec<LoopPlan>,
        /// Loops on the vectorized tier (agrees with `loops`).
        vectorized_loops: u32,
        /// Batch width of the vectorized engine.
        batch_size: usize,
        /// The query's result type.
        result_ty: String,
        /// Per-lane trap guards dropped because range analysis proved
        /// the divisor non-zero.
        guards_dropped: u32,
        /// Fused batch kernels the backend selected, in compilation
        /// order (whole-tape shapes first, then pairwise fusions).
        fused_kernels: Vec<String>,
        /// Batch columns recycled by lifetime packing instead of
        /// allocated fresh.
        slots_reused: u32,
        /// Loop-invariant constants hoisted out of scalar loop bodies.
        hoisted: u32,
        /// Adjacent scalar pairs threaded into superinstructions.
        superinstrs: u32,
        /// Lint diagnostics over the QUIL chain, rendered
        /// (`severity[lint]: message (span)`), in chain order.
        lints: Vec<String>,
        /// The algebraic rewrite log: every rewrite the optimizer
        /// attempted on this plan, in application order, including
        /// rewrites the plan verifier rejected (`applied: false`).
        rewrites: Vec<RewriteEvent>,
        /// Drift-triggered re-optimization events for this query's
        /// cached plan, oldest first (empty when the plan never
        /// drifted).
        reopt: Vec<String>,
        /// The measured per-loop facts this plan was compiled against
        /// (decayed element count, selection density, span-measured
        /// ns/elem), rendered; `None` for a blind first compile.
        measured: Option<String>,
        /// The tape verifier's verdict on the compiled bytecode:
        /// `passed (...)` with per-obligation counts, or `rejected: ...`
        /// with the violated proof obligation.
        tape_check: String,
    },
    /// The query runs on the unoptimized iterator interpreter.
    Fallback {
        /// The lowering error that sent it there.
        reason: String,
    },
}

impl Explain {
    /// `true` when the query compiled (the plan is
    /// [`ExplainPlan::Optimized`]).
    pub fn is_optimized(&self) -> bool {
        matches!(self.plan, ExplainPlan::Optimized { .. })
    }

    /// The human-readable plan, one decision per line.
    pub fn render(&self) -> String {
        let mut out = format!("EXPLAIN: {}\n", self.query);
        match &self.plan {
            ExplainPlan::Optimized {
                quil,
                engine,
                instr_count,
                loops,
                batch_size,
                result_ty,
                guards_dropped,
                fused_kernels,
                slots_reused,
                hoisted,
                superinstrs,
                lints,
                rewrites,
                reopt,
                measured,
                tape_check,
                ..
            } => {
                out.push_str(&format!("  QUIL: {quil}\n"));
                out.push_str(&format!(
                    "  engine: {engine} (batch size {batch_size}), {instr_count} instrs, result {result_ty}\n"
                ));
                for ev in rewrites {
                    out.push_str(&format!("  rewrite: {ev}\n"));
                }
                if loops.is_empty() {
                    out.push_str("  loops: none (straight-line program)\n");
                }
                for (i, plan) in loops.iter().enumerate() {
                    out.push_str(&format!("  loop {i}: tier={}", plan.tier));
                    if let Some(reason) = &plan.vectorize_fallback {
                        out.push_str(&format!("  vectorize-fallback: \"{reason}\""));
                    }
                    if let Some(why) = &plan.chosen_by {
                        out.push_str(&format!("  chosen-by: \"{why}\""));
                    }
                    out.push('\n');
                }
                for event in reopt {
                    out.push_str(&format!("  reopt: {event}\n"));
                }
                if let Some(m) = measured {
                    out.push_str(&format!("  measured: {m}\n"));
                }
                if *guards_dropped > 0 {
                    out.push_str(&format!(
                        "  guards-dropped: {guards_dropped} (divisor proven non-zero)\n"
                    ));
                }
                for kernel in fused_kernels {
                    out.push_str(&format!("  fused-kernel: {kernel}\n"));
                }
                if *slots_reused > 0 {
                    out.push_str(&format!(
                        "  slots-reused: {slots_reused} (batch columns recycled)\n"
                    ));
                }
                if *hoisted > 0 {
                    out.push_str(&format!("  hoisted: {hoisted} (loop-invariant consts)\n"));
                }
                if *superinstrs > 0 {
                    out.push_str(&format!(
                        "  superinstrs: {superinstrs} (scalar pairs threaded)\n"
                    ));
                }
                for lint in lints {
                    out.push_str(&format!("  lint: {lint}\n"));
                }
                out.push_str(&format!("  tape-check: {tape_check}\n"));
            }
            ExplainPlan::Fallback { reason } => {
                out.push_str("  fallback: unoptimized iterator interpreter\n");
                out.push_str(&format!("  reason: {reason}\n"));
            }
        }
        out
    }

    /// The stable JSON form: fixed field order, no volatile fields
    /// (compile time is excluded so equal plans serialize byte-equal).
    pub fn to_json(&self) -> String {
        match &self.plan {
            ExplainPlan::Optimized {
                quil,
                engine,
                instr_count,
                loops,
                vectorized_loops,
                batch_size,
                result_ty,
                guards_dropped,
                fused_kernels,
                slots_reused,
                hoisted,
                superinstrs,
                lints,
                rewrites,
                reopt,
                measured,
                tape_check,
            } => {
                let loops_json: Vec<String> = loops
                    .iter()
                    .map(|p| {
                        let fallback = match &p.vectorize_fallback {
                            Some(r) => format!(
                                "\"{}\", \"fallback_code\": \"{}\"",
                                json::escape(&r.to_string()),
                                r.code()
                            ),
                            None => "null".to_string(),
                        };
                        let chosen = match &p.chosen_by {
                            Some(why) => format!("\"{}\"", json::escape(why)),
                            None => "null".to_string(),
                        };
                        format!(
                            "{{\"tier\": \"{}\", \"vectorize_fallback\": {fallback}, \
                             \"chosen_by\": {chosen}}}",
                            p.tier
                        )
                    })
                    .collect();
                let lints_json: Vec<String> = lints
                    .iter()
                    .map(|l| format!("\"{}\"", json::escape(l)))
                    .collect();
                let kernels_json: Vec<String> = fused_kernels
                    .iter()
                    .map(|k| format!("\"{}\"", json::escape(k)))
                    .collect();
                let rewrites_json: Vec<String> = rewrites
                    .iter()
                    .map(|ev| {
                        format!(
                            "{{\"rule\": \"{}\", \"detail\": \"{}\", \"applied\": {}}}",
                            json::escape(ev.rule),
                            json::escape(&ev.detail),
                            ev.applied
                        )
                    })
                    .collect();
                let reopt_json: Vec<String> = reopt
                    .iter()
                    .map(|r| format!("\"{}\"", json::escape(r)))
                    .collect();
                let measured_json = match measured {
                    Some(m) => format!("\"{}\"", json::escape(m)),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"query\": \"{}\", \"optimized\": true, \"quil\": \"{}\", \
                     \"engine\": \"{engine}\", \"instr_count\": {instr_count}, \
                     \"vectorized_loops\": {vectorized_loops}, \
                     \"batch_size\": {batch_size}, \"result_ty\": \"{}\", \
                     \"guards_dropped\": {guards_dropped}, \"fused_kernels\": [{}], \
                     \"slots_reused\": {slots_reused}, \"hoisted\": {hoisted}, \
                     \"superinstrs\": {superinstrs}, \"loops\": [{}], \"lints\": [{}], \
                     \"rewrites\": [{}], \"reopt\": [{}], \"measured\": {measured_json}, \
                     \"tape_check\": \"{}\"}}",
                    json::escape(&self.query),
                    json::escape(quil),
                    json::escape(result_ty),
                    kernels_json.join(", "),
                    loops_json.join(", "),
                    lints_json.join(", "),
                    rewrites_json.join(", "),
                    reopt_json.join(", "),
                    json::escape(tape_check)
                )
            }
            ExplainPlan::Fallback { reason } => format!(
                "{{\"query\": \"{}\", \"optimized\": false, \"reason\": \"{}\"}}",
                json::escape(&self.query),
                json::escape(reason)
            ),
        }
    }
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_vm::{FallbackReason, LoopTier};

    #[test]
    fn fallback_renders_reason_in_text_and_json() {
        let e = Explain {
            query: "xs.concat(ys)".to_string(),
            plan: ExplainPlan::Fallback {
                reason: "unsupported operator: Concat".to_string(),
            },
        };
        assert!(!e.is_optimized());
        let text = e.render();
        assert!(text.contains("fallback: unoptimized iterator interpreter"));
        assert!(text.contains("unsupported operator: Concat"));
        let v = steno_obs::json::parse(&e.to_json()).unwrap();
        assert_eq!(v.get("optimized").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("reason").unwrap().as_str(),
            Some("unsupported operator: Concat")
        );
    }

    #[test]
    fn optimized_plan_json_round_trips_loop_tiers() {
        let e = Explain {
            query: "q".to_string(),
            plan: ExplainPlan::Optimized {
                quil: "Src Agg[Sum] Ret".to_string(),
                engine: EngineKind::Vectorized,
                instr_count: 7,
                loops: vec![
                    LoopPlan {
                        tier: LoopTier::Vectorized,
                        vectorize_fallback: None,
                        chosen_by: None,
                    },
                    LoopPlan {
                        tier: LoopTier::Scalar,
                        vectorize_fallback: Some(FallbackReason::Shape("loop is \"weird\"")),
                        chosen_by: Some("observed ~100 elements < 2048 break-even".to_string()),
                    },
                ],
                vectorized_loops: 1,
                batch_size: 1024,
                result_ty: "f64".to_string(),
                guards_dropped: 2,
                fused_kernels: vec!["sum(x*x):f64".to_string()],
                slots_reused: 3,
                hoisted: 1,
                superinstrs: 2,
                lints: vec!["warning[dead-filter]: filter is always false (op 1)".to_string()],
                rewrites: vec![
                    RewriteEvent {
                        rule: "reorder-filters",
                        detail: "filter op#1 (sel≈0.05) before filter op#0 (sel≈0.90)".to_string(),
                        applied: true,
                    },
                    RewriteEvent {
                        rule: "pushdown-filter",
                        detail: "filter op#1 pushed before map op#0".to_string(),
                        applied: false,
                    },
                ],
                reopt: vec![
                    "selectivity drift: assumed density 0.90, observed 0.05".to_string(),
                ],
                measured: Some(
                    "~100 elements, density 0.05, ~2.4 ns/elem".to_string(),
                ),
                tape_check: "passed (cfg 2, dataflow 9, polls 1, div 2, equiv 4)".to_string(),
            },
        };
        let v = steno_obs::json::parse(&e.to_json()).unwrap();
        let loops = v.get("loops").and_then(|l| l.as_array()).unwrap();
        assert_eq!(loops[0].get("tier").unwrap().as_str(), Some("vectorized"));
        assert_eq!(
            loops[1].get("vectorize_fallback").unwrap().as_str(),
            Some("loop is \"weird\"")
        );
        assert_eq!(
            loops[1].get("chosen_by").unwrap().as_str(),
            Some("observed ~100 elements < 2048 break-even")
        );
        let rewrites = v.get("rewrites").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rewrites.len(), 2);
        assert_eq!(
            rewrites[0].get("rule").unwrap().as_str(),
            Some("reorder-filters")
        );
        assert_eq!(rewrites[0].get("applied").unwrap().as_bool(), Some(true));
        assert_eq!(rewrites[1].get("applied").unwrap().as_bool(), Some(false));
        let reopt = v.get("reopt").and_then(|r| r.as_array()).unwrap();
        assert!(reopt[0]
            .as_str()
            .is_some_and(|s| s.contains("selectivity drift")));
        assert_eq!(v.get("guards_dropped").unwrap().as_f64(), Some(2.0));
        let lints = v.get("lints").and_then(|l| l.as_array()).unwrap();
        assert_eq!(
            lints[0].as_str(),
            Some("warning[dead-filter]: filter is always false (op 1)")
        );
        let text = e.render();
        assert!(text.contains("loop 0: tier=vectorized"), "{text}");
        assert!(
            text.contains("loop 1: tier=scalar  vectorize-fallback: \"loop is \"weird\"\""),
            "{text}"
        );
        assert!(
            text.contains("guards-dropped: 2 (divisor proven non-zero)"),
            "{text}"
        );
        assert!(text.contains("fused-kernel: sum(x*x):f64"), "{text}");
        assert!(text.contains("slots-reused: 3"), "{text}");
        assert!(text.contains("hoisted: 1"), "{text}");
        assert!(text.contains("superinstrs: 2"), "{text}");
        assert!(text.contains("lint: warning[dead-filter]"), "{text}");
        assert!(
            text.contains("rewrite: reorder-filters: filter op#1"),
            "{text}"
        );
        assert!(
            text.contains("rewrite: pushdown-filter: filter op#1 pushed before map op#0 [dropped: failed verification]"),
            "{text}"
        );
        assert!(
            text.contains("chosen-by: \"observed ~100 elements < 2048 break-even\""),
            "{text}"
        );
        assert!(text.contains("reopt: selectivity drift"), "{text}");
        assert!(
            text.contains("measured: ~100 elements, density 0.05, ~2.4 ns/elem"),
            "{text}"
        );
        assert_eq!(
            v.get("measured").unwrap().as_str(),
            Some("~100 elements, density 0.05, ~2.4 ns/elem")
        );
        assert!(
            text.contains("tape-check: passed (cfg 2, dataflow 9, polls 1, div 2, equiv 4)"),
            "{text}"
        );
        assert_eq!(
            v.get("tape_check").unwrap().as_str(),
            Some("passed (cfg 2, dataflow 9, polls 1, div 2, equiv 4)")
        );
    }

    /// Pins the machine-readable schema: every backend-optimization
    /// field is always present (zero/empty included), so downstream
    /// tooling can rely on the keys without probing.
    #[test]
    fn optimized_json_schema_includes_backend_fields() {
        let e = Explain {
            query: "q".to_string(),
            plan: ExplainPlan::Optimized {
                quil: "Src Agg[Sum] Ret".to_string(),
                engine: EngineKind::Scalar,
                instr_count: 3,
                loops: vec![],
                vectorized_loops: 0,
                batch_size: 1024,
                result_ty: "i64".to_string(),
                guards_dropped: 0,
                fused_kernels: vec![],
                slots_reused: 0,
                hoisted: 0,
                superinstrs: 0,
                lints: vec![],
                rewrites: vec![],
                reopt: vec![],
                measured: None,
                tape_check: "passed (cfg 1, dataflow 2, polls 0, div 0, equiv 0)".to_string(),
            },
        };
        let v = steno_obs::json::parse(&e.to_json()).unwrap();
        for key in [
            "query",
            "optimized",
            "quil",
            "engine",
            "instr_count",
            "vectorized_loops",
            "batch_size",
            "result_ty",
            "guards_dropped",
            "fused_kernels",
            "slots_reused",
            "hoisted",
            "superinstrs",
            "loops",
            "lints",
            "rewrites",
            "reopt",
            "measured",
            "tape_check",
        ] {
            assert!(v.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(
            v.get("fused_kernels").and_then(|k| k.as_array()).map(|k| k.len()),
            Some(0)
        );
        assert_eq!(v.get("slots_reused").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("hoisted").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("superinstrs").unwrap().as_f64(), Some(0.0));
    }
}
