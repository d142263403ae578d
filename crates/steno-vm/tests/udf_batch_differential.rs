//! Differential testing of UDF calls on the batch tier: a call to a UDF
//! registered pure, with an all-lane (`f64`/`i64`/`bool`) signature, is a
//! batch `Call` op that runs the function once per live lane. Both VM
//! tiers must agree with the LINQ interpreter bit for bit — `f64::to_bits`,
//! NaN included — and with each other on errors, call counts and
//! interrupts. Impure UDFs stay on the scalar tier and keep the
//! interpreter's call order, and a cached plan never batch-calls a name
//! the run's registry binds to an impure or differently typed function.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use steno_expr::{DataContext, Expr, Ty, UdfRegistry, Value};
use steno_linq::interp;
use steno_query::typing::SourceTypes;
use steno_query::{Query, QueryExpr};
use steno_vm::interrupt::POLL_STRIDE;
use steno_vm::query::StenoOptions;
use steno_vm::{
    CancelProbe, CompiledQuery, FallbackReason, Interrupt, LoopTier, VectorizationPolicy, VmError,
};

const BATCH: usize = 1024;

/// A tiny deterministic PRNG (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }

    fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }
}

fn x() -> Expr {
    Expr::var("x")
}

fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::call(name, args)
}

fn f64_arg(a: &Value) -> f64 {
    a.as_f64().expect("f64 argument")
}

fn i64_arg(a: &Value) -> i64 {
    a.as_i64().expect("i64 argument")
}

/// Pure UDFs over every lane, their constants drawn from `seed`:
///
/// * `lin(f64) -> f64` — `a*x + b`, NaN in, NaN out;
/// * `mix(f64, f64) -> f64` and `mix3(f64, f64, f64) -> f64`;
/// * `pos(f64) -> bool` — a predicate;
/// * `poly(i64, i64, i64) -> i64` — wrapping arithmetic;
/// * `half(i64) -> f64`, `third(i64) -> bool`, `sgn(bool, i64) -> i64`;
/// * `widen(f64) -> f64` returning an `I64` (both VM tiers convert it);
/// * `bad(f64) -> f64` and `badi(i64) -> i64`, which return a value of
///   the wrong type past a threshold.
fn pure_udfs(seed: u64) -> UdfRegistry {
    let mut r = Rng(seed);
    let (a, b) = (r.f64_in(-3.0, 3.0), r.f64_in(-1.0, 1.0));
    let (k, m) = (r.i64_in(-9, 9), r.i64_in(2, 7));
    let mut u = UdfRegistry::new();
    u.register_pure("lin", vec![Ty::F64], Ty::F64, move |v: &[Value]| {
        Value::F64(a * f64_arg(&v[0]) + b)
    });
    u.register_pure(
        "mix",
        vec![Ty::F64, Ty::F64],
        Ty::F64,
        move |v: &[Value]| Value::F64(f64_arg(&v[0]) * f64_arg(&v[1]) - b),
    );
    u.register_pure(
        "mix3",
        vec![Ty::F64, Ty::F64, Ty::F64],
        Ty::F64,
        |v: &[Value]| Value::F64((f64_arg(&v[0]) - f64_arg(&v[1])) / f64_arg(&v[2])),
    );
    u.register_pure("pos", vec![Ty::F64], Ty::Bool, move |v: &[Value]| {
        Value::Bool(f64_arg(&v[0]) > b)
    });
    u.register_pure(
        "poly",
        vec![Ty::I64, Ty::I64, Ty::I64],
        Ty::I64,
        move |v: &[Value]| {
            let (p, q, s) = (i64_arg(&v[0]), i64_arg(&v[1]), i64_arg(&v[2]));
            Value::I64(p.wrapping_mul(k).wrapping_add(q.wrapping_mul(s)))
        },
    );
    u.register_pure("half", vec![Ty::I64], Ty::F64, |v: &[Value]| {
        Value::F64(i64_arg(&v[0]) as f64 * 0.5)
    });
    u.register_pure("third", vec![Ty::I64], Ty::Bool, move |v: &[Value]| {
        Value::Bool(i64_arg(&v[0]).rem_euclid(m) == 0)
    });
    u.register_pure("sgn", vec![Ty::Bool, Ty::I64], Ty::I64, |v: &[Value]| {
        let n = i64_arg(&v[1]);
        Value::I64(if v[0].as_bool().expect("bool argument") {
            n
        } else {
            n.wrapping_neg()
        })
    });
    u.register_pure("widen", vec![Ty::F64], Ty::F64, |v: &[Value]| {
        Value::I64(f64_arg(&v[0]).floor() as i64)
    });
    u.register_pure("bad", vec![Ty::F64], Ty::F64, |v: &[Value]| {
        let x = f64_arg(&v[0]);
        if x > 40.0 {
            Value::Bool(true)
        } else {
            Value::F64(x)
        }
    });
    u.register_pure("badi", vec![Ty::I64], Ty::I64, |v: &[Value]| {
        let n = i64_arg(&v[0]);
        if n > 900 {
            Value::F64(0.5)
        } else {
            Value::I64(n)
        }
    });
    u
}

/// Seeded f64 (`xs`, with a NaN) and i64 (`ns`) columns of length `len`.
fn seeded_ctx(rng: &mut Rng, len: usize) -> DataContext {
    let mut xs: Vec<f64> = (0..len).map(|_| rng.f64_in(-50.0, 50.0)).collect();
    if len > 3 {
        let at = rng.index(len);
        xs[at] = f64::NAN;
    }
    let ns: Vec<i64> = (0..len).map(|_| rng.i64_in(-1000, 1000)).collect();
    DataContext::new()
        .with_source("xs", xs)
        .with_source("ns", ns)
        .with_source("ys", vec![0.5f64, -2.0, 3.25])
}

/// Bit-exact equality: floats by `to_bits`, so NaN equals only the same
/// NaN and `-0.0` differs from `0.0`.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(p), Value::F64(q)) => p.to_bits() == q.to_bits(),
        (Value::Seq(p), Value::Seq(q)) => {
            p.len() == q.len() && p.iter().zip(q.iter()).all(|(p, q)| same_bits(p, q))
        }
        (Value::Pair(p), Value::Pair(q)) => same_bits(&p.0, &q.0) && same_bits(&p.1, &q.1),
        _ => a == b,
    }
}

fn compile(
    q: &QueryExpr,
    c: &DataContext,
    u: &UdfRegistry,
    vectorize: VectorizationPolicy,
) -> CompiledQuery {
    let opts = StenoOptions {
        vectorize,
        ..StenoOptions::default()
    };
    let compiled = CompiledQuery::compile_with(q, SourceTypes::from(c), u, opts)
        .unwrap_or_else(|e| panic!("compile failed for {q}: {e}"));
    steno_vm::check_program(compiled.program())
        .unwrap_or_else(|e| panic!("tape check rejected {q} ({vectorize:?}): {e}"));
    compiled
}

fn tiers(c: &CompiledQuery) -> Vec<LoopTier> {
    c.loop_plans().iter().map(|p| p.tier).collect()
}

/// Runs `q` profiled on both VM tiers: both must return the same
/// outcome, the interpreter's value when it succeeds, and the same
/// `udf_calls` count. Returns the vectorized compile and the outcome.
#[track_caller]
fn check(
    q: &QueryExpr,
    c: &DataContext,
    u: &UdfRegistry,
) -> (CompiledQuery, Result<Value, VmError>) {
    let scalar = compile(q, c, u, VectorizationPolicy::Off);
    let auto = compile(q, c, u, VectorizationPolicy::Auto);
    let run = |cq: &CompiledQuery| {
        cq.run_traced(
            c,
            u,
            &Interrupt::none(),
            &steno_obs::Tracer::disabled(),
            None,
        )
    };
    let (s, v) = (run(&scalar), run(&auto));
    match (&s, &v) {
        (Ok((s, sp)), Ok((v, vp))) => {
            assert!(same_bits(s, v), "scalar {s:?} vs vectorized {v:?} on {q}");
            let want = interp::execute(q, c, u).unwrap_or_else(|e| panic!("interp on {q}: {e}"));
            assert!(
                same_bits(&want, v),
                "interpreter {want:?} vs vectorized {v:?} on {q}"
            );
            assert_eq!(
                sp.udf_calls, vp.udf_calls,
                "udf calls differ across tiers on {q}"
            );
        }
        (Err(se), Err(ve)) => assert_eq!(se, ve, "errors differ across tiers on {q}"),
        _ => panic!("tiers disagree on {q}: scalar {s:?}, vectorized {v:?}"),
    }
    (auto, v.map(|(v, _)| v))
}

#[track_caller]
fn check_vectorized(q: &QueryExpr, c: &DataContext, u: &UdfRegistry) -> CompiledQuery {
    let (auto, _) = check(q, c, u);
    assert_eq!(
        tiers(&auto),
        [LoopTier::Vectorized],
        "{q}: {:?}",
        auto.loop_plans()
    );
    auto
}

// ---------------------------------------------------------------------
// The regression: the `scan_large` UDF query leaves the scalar tier.
// ---------------------------------------------------------------------

#[test]
fn a_pure_udf_select_sum_lands_on_the_vectorized_tier() {
    let mut u = UdfRegistry::new();
    u.register_pure("f", vec![Ty::F64], Ty::F64, |v: &[Value]| {
        Value::F64(f64_arg(&v[0]) * 1.5 + 0.25)
    });
    let c = seeded_ctx(&mut Rng(1), 3 * BATCH + 5);
    let q = Query::source("xs")
        .select(call("f", vec![x()]), "x")
        .sum()
        .build();
    let auto = check_vectorized(&q, &c, &u);
    assert!(
        auto.fused_kernels().is_empty(),
        "a tape with a call stays unfused"
    );
    let sig = auto.program().udf_sigs[0]
        .as_ref()
        .expect("the batch call is recorded");
    assert_eq!(
        (sig.params.as_slice(), &sig.ret, sig.pure),
        (&[Ty::F64][..], &Ty::F64, true)
    );
    assert_eq!(
        steno_vm::check_program(auto.program()).map(|r| r.call),
        Ok(1)
    );
}

// ---------------------------------------------------------------------
// Signatures, arities, positions.
// ---------------------------------------------------------------------

/// Every lane signature with one to three arguments, literal and
/// outer-loop (loop-invariant) arguments, calls after a filter, as a
/// filter, and inside the positional operators, over seeded data at
/// batch-boundary lengths.
#[test]
fn seeded_pure_udfs_agree_bit_for_bit() {
    let mut rng = Rng(0x0DF_BA7C);
    let lens = [0, 1, 7, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 37];
    let mut vectorized = 0;
    for (case, &len) in lens.iter().enumerate() {
        let u = pure_udfs(rng.next_u64());
        let c = seeded_ctx(&mut rng, len);
        let (t, s) = (rng.index(len + 2), rng.index(len + 2));
        let lit = Expr::litf(rng.f64_in(-2.0, 2.0));
        let batched: Vec<QueryExpr> = vec![
            Query::source("xs")
                .select(call("lin", vec![x()]), "x")
                .sum()
                .build(),
            Query::source("xs")
                .select(call("mix", vec![x(), x()]), "x")
                .sum()
                .build(),
            Query::source("xs")
                .select(
                    call("mix3", vec![x(), lit.clone(), x() + Expr::litf(1.0)]),
                    "x",
                )
                .sum()
                .build(),
            Query::source("xs")
                .select(call("mix", vec![lit.clone(), x()]), "x")
                .build(),
            Query::source("ns")
                .select(call("poly", vec![x(), x(), Expr::liti(3)]), "x")
                .sum()
                .build(),
            Query::source("ns")
                .select(call("half", vec![x()]), "x")
                .sum()
                .build(),
            Query::source("ns")
                .select(call("sgn", vec![x().gt(Expr::liti(0)), x()]), "x")
                .min()
                .build(),
            // f64 min/max over a column with a NaN: every tier orders by
            // `total_cmp`, as the interpreter's aggregates do.
            Query::source("xs")
                .select(call("lin", vec![x()]), "x")
                .min()
                .build(),
            Query::source("xs")
                .select(call("mix", vec![x(), x()]), "x")
                .max()
                .build(),
            // After a filter: only the live lanes are called.
            Query::source("xs")
                .where_(x().gt(Expr::litf(0.0)), "x")
                .select(call("lin", vec![x()]), "x")
                .sum()
                .build(),
            Query::source("ns")
                .where_(call("third", vec![x()]), "x")
                .count()
                .build(),
            // As a filter predicate.
            Query::source("xs")
                .where_(call("pos", vec![x()]), "x")
                .select(x() * Expr::litf(2.0), "x")
                .build(),
            // Inside positional windows and after a take_while cut.
            Query::source("xs")
                .skip(s)
                .take(t)
                .select(call("lin", vec![x()]), "x")
                .sum()
                .build(),
            Query::source("ns")
                .select(call("half", vec![x()]), "x")
                .take(t)
                .sum()
                .build(),
            Query::source("xs")
                .take_while(x().lt(Expr::litf(45.0)), "x")
                .select(call("lin", vec![x()]), "x")
                .sum()
                .build(),
        ];
        for q in &batched {
            let (auto, _) = check(q, &c, &u);
            vectorized += usize::from(tiers(&auto) == [LoopTier::Vectorized]);
        }
        // A call before a cut, under a conditional, or in a short-circuit
        // operand stays scalar but must still agree.
        let scalar: Vec<QueryExpr> = vec![
            Query::source("xs")
                .take_while(call("pos", vec![x()]), "x")
                .count()
                .build(),
            Query::source("xs")
                .select(
                    Expr::if_(x().gt(Expr::litf(0.0)), call("lin", vec![x()]), x()),
                    "x",
                )
                .sum()
                .build(),
            Query::source("xs")
                .where_(x().gt(Expr::litf(0.0)).and(call("pos", vec![x()])), "x")
                .count()
                .build(),
        ];
        for q in &scalar {
            let (auto, _) = check(q, &c, &u);
            assert_eq!(tiers(&auto), [LoopTier::Scalar], "case {case}: {q}");
        }
    }
    assert_eq!(
        vectorized,
        15 * lens.len(),
        "every batched shape must vectorize"
    );
}

/// A loop-invariant register argument: the outer element of a
/// `select_many` is a parameter of the inner batch loop. In the second
/// query the scalar outer loop calls `lin` first, so the batch loop
/// calls one UDF the program already names and one it adds.
#[test]
fn an_outer_loop_argument_is_broadcast() {
    let u = pure_udfs(7);
    let c = seeded_ctx(&mut Rng(3), BATCH + 9);
    let inner = || Query::source("xs").select(call("mix", vec![x(), Expr::var("y")]), "x");
    let outer_call = Query::source("ys")
        .select(call("lin", vec![Expr::var("z")]), "z")
        .select_many(
            Query::source("xs").select(
                call("mix", vec![x(), Expr::var("y")]) + call("lin", vec![x()]),
                "x",
            ),
            "y",
        );
    for q in [
        Query::source("ys").select_many(inner(), "y").sum().build(),
        outer_call.sum().build(),
    ] {
        let (auto, _) = check(&q, &c, &u);
        assert_eq!(
            tiers(&auto),
            [LoopTier::Scalar, LoopTier::Vectorized],
            "the inner loop must vectorize: {q}"
        );
    }
}

// ---------------------------------------------------------------------
// Errors, call counts, trap kinds.
// ---------------------------------------------------------------------

#[test]
fn a_wrong_typed_result_is_the_same_error_on_both_tiers() {
    let u = pure_udfs(11);
    let c = DataContext::new()
        .with_source(
            "xs",
            (0..3000).map(|i| f64::from(i) * 0.03).collect::<Vec<_>>(),
        )
        .with_source("ns", (0..3000i64).collect::<Vec<_>>());
    for (q, msg) in [
        (
            Query::source("xs")
                .select(call("bad", vec![x()]), "x")
                .sum()
                .build(),
            "expected a number",
        ),
        (
            Query::source("ns")
                .select(call("badi", vec![x()]), "x")
                .sum()
                .build(),
            "expected an integer",
        ),
    ] {
        let (auto, out) = check(&q, &c, &u);
        assert_eq!(tiers(&auto), [LoopTier::Vectorized], "{q}");
        assert_eq!(out, Err(VmError::Shape(msg.into())), "{q}");
    }
    // An `I64` where an `f64` is declared converts on both tiers (the
    // interpreter passes it through unconverted).
    let q = Query::source("xs")
        .select(call("widen", vec![x()]), "x")
        .sum()
        .build();
    let (s, v) = (
        compile(&q, &c, &u, VectorizationPolicy::Off).run(&c, &u),
        compile(&q, &c, &u, VectorizationPolicy::Auto).run(&c, &u),
    );
    assert_eq!(
        s,
        Ok(Value::F64(
            (0..3000).map(|i| (f64::from(i) * 0.03).floor()).sum()
        ))
    );
    assert_eq!(s, v);
    // Filtered out before the call, the bad lanes never trap.
    let q = Query::source("xs")
        .where_(x().lt(Expr::litf(40.0)), "x")
        .select(call("bad", vec![x()]), "x")
        .sum()
        .build();
    let (_, out) = check(&q, &c, &u);
    assert!(out.is_ok(), "{out:?}");
}

#[test]
fn profiled_udf_calls_count_the_live_lanes() {
    let u = pure_udfs(5);
    let mut rng = Rng(0xCA11);
    let xs: Vec<f64> = (0..5 * BATCH + 3).map(|_| rng.f64_in(-1.0, 1.0)).collect();
    let live = xs.iter().filter(|&&v| v > 0.25).count() as u64;
    let c = DataContext::new().with_source("xs", xs.clone());
    let q = Query::source("xs")
        .where_(x().gt(Expr::litf(0.25)), "x")
        .select(call("lin", vec![x()]), "x")
        .sum()
        .build();
    for policy in [VectorizationPolicy::Off, VectorizationPolicy::Auto] {
        let cq = compile(&q, &c, &u, policy);
        let (_, prof) = cq
            .run_traced(
                &c,
                &u,
                &Interrupt::none(),
                &steno_obs::Tracer::disabled(),
                None,
            )
            .expect("run");
        assert_eq!(prof.udf_calls, live, "{policy:?}");
    }
}

#[test]
fn trapping_ops_of_two_error_kinds_keep_the_loop_scalar() {
    let u = pure_udfs(9);
    let c = seeded_ctx(&mut Rng(4), 2 * BATCH);
    for q in [
        // A call and a checked division.
        Query::source("ns")
            .select(call("poly", vec![x(), x(), x()]) / x(), "x")
            .sum()
            .build(),
        // Calls unboxing into two different lanes.
        Query::source("ns")
            .where_(call("third", vec![x()]), "x")
            .select(call("poly", vec![x(), Expr::liti(1), x()]), "x")
            .sum()
            .build(),
    ] {
        let (auto, _) = check(&q, &c, &u);
        assert_eq!(tiers(&auto), [LoopTier::Scalar], "{q}");
        assert_eq!(
            auto.loop_plans()[0].vectorize_fallback,
            Some(FallbackReason::MixedTrapKinds),
            "{q}"
        );
    }
    // Calls of one result lane share a tape.
    let q = Query::source("xs")
        .select(call("lin", vec![x()]) + call("mix", vec![x(), x()]), "x")
        .sum()
        .build();
    check_vectorized(&q, &c, &u);
}

// ---------------------------------------------------------------------
// Impure and boxed UDFs stay scalar.
// ---------------------------------------------------------------------

#[test]
fn an_impure_udf_keeps_the_interpreters_call_order() {
    let log: Arc<Mutex<Vec<u64>>> = Arc::default();
    let mut u = UdfRegistry::new();
    let sink = Arc::clone(&log);
    u.register("logged", vec![Ty::F64], Ty::F64, move |v: &[Value]| {
        let x = f64_arg(&v[0]);
        sink.lock().expect("log").push(x.to_bits());
        Value::F64(x * 2.0)
    });
    let c = seeded_ctx(&mut Rng(8), BATCH + 100);
    let q = Query::source("xs")
        .where_(x().gt(Expr::litf(-10.0)), "x")
        .select(call("logged", vec![x()]), "x")
        .sum()
        .build();
    interp::execute(&q, &c, &u).expect("interpreter");
    let want = std::mem::take(&mut *log.lock().expect("log"));
    assert!(!want.is_empty());
    let auto = compile(&q, &c, &u, VectorizationPolicy::Auto);
    assert_eq!(tiers(&auto), [LoopTier::Scalar]);
    assert_eq!(
        auto.loop_plans()[0].vectorize_fallback,
        Some(FallbackReason::ImpureUdf("logged".into()))
    );
    assert_eq!(
        auto.loop_plans()[0]
            .vectorize_fallback
            .as_ref()
            .map(ToString::to_string),
        Some("udf `logged` is not registered pure".to_string())
    );
    auto.run(&c, &u).expect("vm");
    assert_eq!(
        *log.lock().expect("log"),
        want,
        "call order differs from the interpreter"
    );
}

#[test]
fn a_boxed_signature_keeps_the_loop_scalar() {
    let mut u = UdfRegistry::new();
    u.register_pure(
        "fst",
        vec![Ty::pair(Ty::F64, Ty::F64)],
        Ty::F64,
        |v: &[Value]| v[0].as_pair().expect("pair argument").0.clone(),
    );
    let c = seeded_ctx(&mut Rng(2), 50);
    let q = Query::source("xs")
        .select(call("fst", vec![Expr::mk_pair(x(), Expr::litf(1.0))]), "x")
        .sum()
        .build();
    let (auto, _) = check(&q, &c, &u);
    assert_eq!(
        auto.loop_plans()[0].vectorize_fallback,
        Some(FallbackReason::BoxedUdf("fst".into()))
    );
}

// ---------------------------------------------------------------------
// Interrupts and bind-time soundness.
// ---------------------------------------------------------------------

/// A UDF that raises the cancel flag on its 100th call: the batch call
/// loop polls with the scalar stride, so the query stops within one
/// stride of the flag, long before the 1024-lane batch ends.
#[test]
fn a_slow_udf_cannot_hold_a_cancel_for_a_whole_batch() {
    let calls = Arc::new(AtomicUsize::new(0));
    let flag = Arc::new(AtomicBool::new(false));
    let mut u = UdfRegistry::new();
    let (n, raise) = (Arc::clone(&calls), Arc::clone(&flag));
    u.register_pure("slow", vec![Ty::F64], Ty::F64, move |v: &[Value]| {
        if n.fetch_add(1, Ordering::Relaxed) + 1 == 100 {
            raise.store(true, Ordering::Relaxed);
        }
        v[0].clone()
    });
    let c = DataContext::new().with_source("xs", vec![1.0f64; 4 * BATCH]);
    let q = Query::source("xs")
        .select(call("slow", vec![x()]), "x")
        .sum()
        .build();
    let auto = compile(&q, &c, &u, VectorizationPolicy::Auto);
    assert_eq!(tiers(&auto), [LoopTier::Vectorized]);
    let probe: CancelProbe = {
        let flag = Arc::clone(&flag);
        Arc::new(move || flag.load(Ordering::Relaxed))
    };
    let out = auto.run_with(&c, &u, &Interrupt::none().with_cancel_probe(probe));
    assert_eq!(out, Err(VmError::Cancelled));
    let made = calls.load(Ordering::Relaxed);
    assert!(
        (100..=100 + POLL_STRIDE as usize).contains(&made),
        "cancel noticed after {made} calls"
    );
}

/// A plan compiled under a pure `f` meets a registry that binds `f` to
/// an impure function, or to another signature: binding fails before the
/// batch calls anything.
#[test]
fn a_plan_never_batch_calls_an_impure_or_retyped_binding() {
    let mut pure = UdfRegistry::new();
    pure.register_pure("f", vec![Ty::F64], Ty::F64, |v: &[Value]| v[0].clone());
    let c = seeded_ctx(&mut Rng(6), 2 * BATCH);
    let q = Query::source("xs")
        .select(call("f", vec![x()]), "x")
        .sum()
        .build();
    let plan = compile(&q, &c, &pure, VectorizationPolicy::Auto);
    assert_eq!(tiers(&plan), [LoopTier::Vectorized]);
    plan.run(&c, &pure).expect("the compiling registry binds");

    let calls = Arc::new(AtomicUsize::new(0));
    let mut impure = UdfRegistry::new();
    let n = Arc::clone(&calls);
    impure.register("f", vec![Ty::F64], Ty::F64, move |v: &[Value]| {
        n.fetch_add(1, Ordering::Relaxed);
        v[0].clone()
    });
    let mut retyped = UdfRegistry::new();
    let n = Arc::clone(&calls);
    retyped.register_pure("f", vec![Ty::F64], Ty::I64, move |v: &[Value]| {
        n.fetch_add(1, Ordering::Relaxed);
        Value::I64(f64_arg(&v[0]) as i64)
    });
    for registry in [&impure, &retyped] {
        assert!(matches!(
            plan.run(&c, registry),
            Err(VmError::MissingBinding(_))
        ));
    }
    assert_eq!(
        calls.load(Ordering::Relaxed),
        0,
        "a batch call ran under the wrong binding"
    );

    // The same text compiled under the impure registry runs scalar and
    // calls it once per element.
    let scalar = compile(&q, &c, &impure, VectorizationPolicy::Auto);
    assert_eq!(tiers(&scalar), [LoopTier::Scalar]);
    scalar
        .run(&c, &impure)
        .expect("scalar plan binds the impure f");
    assert_eq!(calls.load(Ordering::Relaxed), 2 * BATCH);
}
