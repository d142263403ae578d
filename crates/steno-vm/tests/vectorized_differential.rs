//! Differential testing of the batch-vectorized tier: the LINQ
//! interpreter, the scalar VM ([`VectorizationPolicy::Off`]), and the
//! vectorized VM ([`VectorizationPolicy::Auto`]) must agree bit-for-bit
//! — on results *and* on data-dependent errors.
//!
//! Vectorization reorders evaluation (a whole batch of multiplications
//! before a whole batch of additions), so bitwise agreement is the
//! strongest possible statement that the tier is an optimization and not
//! a semantics change. Error parity (`DivisionByZero` raised by the
//! right engine-independent element, never by a filtered-out lane) pins
//! the trap semantics under eager batch execution.

use steno_expr::{Column, DataContext, Expr, Ty, UdfRegistry, Value};
use steno_linq::interp;
use steno_query::{GroupResult, Query, QueryExpr};
use steno_vm::batch::{BInit, BOp, Lane, RedK};
use steno_vm::query::StenoOptions;
use steno_vm::{CompiledQuery, EngineKind, VectorizationPolicy, VmError};

const BATCH: usize = 1024;

fn x() -> Expr {
    Expr::var("x")
}

fn scalar_opts() -> StenoOptions {
    StenoOptions {
        vectorize: VectorizationPolicy::Off,
        ..StenoOptions::default()
    }
}

/// Compiles `q` twice: scalar-only and vectorization-enabled.
fn compile_pair(q: &QueryExpr, c: &DataContext, u: &UdfRegistry) -> (CompiledQuery, CompiledQuery) {
    let compile = |o| CompiledQuery::compile_with(q, c.into(), u, o);
    let scalar =
        compile(scalar_opts()).unwrap_or_else(|e| panic!("scalar compile failed for {q}: {e}"));
    let vectorized = compile(StenoOptions::default())
        .unwrap_or_else(|e| panic!("vectorized compile failed for {q}: {e}"));
    assert_eq!(scalar.engine(), EngineKind::Scalar);
    (scalar, vectorized)
}

/// Asserts interpreter == scalar VM == vectorized VM on `q`, comparing
/// values through `key()` (bit-exact on floats, NaN-normalizing).
#[track_caller]
fn check3(q: &QueryExpr, c: &DataContext, u: &UdfRegistry) {
    let expected = interp::execute(q, c, u).expect("interpreter failed");
    let (scalar, vectorized) = compile_pair(q, c, u);
    let s = scalar.run(c, u).expect("scalar vm failed");
    let v = vectorized.run(c, u).expect("vectorized vm failed");
    assert_eq!(
        expected.key(),
        s.key(),
        "interp vs scalar mismatch for {q}"
    );
    assert_eq!(
        s.key(),
        v.key(),
        "scalar vs vectorized mismatch for {q} (engine {:?}, fallbacks {:?})",
        vectorized.engine(),
        vectorized.batch_fallbacks()
    );
}

/// As [`check3`], also requiring that the query really exercised the
/// batch tier (so the comparison is not fallback-vs-fallback).
#[track_caller]
fn check3_vectorized(q: &QueryExpr, c: &DataContext, u: &UdfRegistry) {
    let (_, vectorized) = compile_pair(q, c, u);
    assert_eq!(
        vectorized.engine(),
        EngineKind::Vectorized,
        "expected {q} to vectorize; fallbacks: {:?}",
        vectorized.batch_fallbacks()
    );
    check3(q, c, u);
}

// ---------------------------------------------------------------------
// Edge sizes: empty, singleton, batch-boundary, non-multiple-of-batch.
// ---------------------------------------------------------------------

#[test]
fn edge_sizes_agree_bit_for_bit() {
    let u = UdfRegistry::new();
    let sizes = [0, 1, 2, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 37];
    for &n in &sizes {
        // Deterministic but non-trivial data: sign flips and fractions.
        let data: Vec<f64> = (0..n)
            .map(|i| ((i as f64) * 0.37 - (n as f64) / 3.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let c = DataContext::new().with_source("xs", data);
        check3_vectorized(
            &Query::source("xs").select(x() * x(), "x").sum().build(),
            &c,
            &u,
        );
        check3_vectorized(
            &Query::source("xs")
                .where_(x().gt(Expr::litf(0.0)), "x")
                .select(x() + Expr::litf(1.5), "x")
                .sum()
                .build(),
            &c,
            &u,
        );
        check3_vectorized(&Query::source("xs").min().build(), &c, &u);
        check3_vectorized(&Query::source("xs").max().build(), &c, &u);
        check3_vectorized(&Query::source("xs").count().build(), &c, &u);
        // min/max rows again with NaNs of both signs, signed zeros and
        // infinities spread through the column (one at the very end).
        let specials = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        let mut odd: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 3.0).collect();
        for (k, at) in (0..n).step_by(97).enumerate() {
            odd[at] = specials[k % specials.len()];
        }
        if let Some(last) = odd.last_mut() {
            *last = specials[n % specials.len()];
        }
        let c = DataContext::new().with_source("xs", odd);
        for q in [
            Query::source("xs").min().build(),
            Query::source("xs").max().build(),
            Query::source("xs").where_(x().ge(Expr::litf(-1.0)), "x").min().build(),
            Query::source("xs").where_(x().le(Expr::litf(1.0)), "x").max().build(),
            Query::source("xs").select(x().min(Expr::litf(-0.0)), "x").max().build(),
            Query::source("xs").select(x().max(Expr::litf(0.0)), "x").min().build(),
        ] {
            check3_vectorized(&q, &c, &u);
        }
    }
}

/// `min`/`max` follow `total_cmp` on every tier: `-NaN < -inf < … <
/// -0.0 < 0.0 < … < inf < NaN`, so a positive NaN wins a max but loses
/// a min, and `-0.0` beats `0.0` in a min whatever their order.
#[test]
fn min_max_order_nan_and_signed_zero_totally() {
    let u = UdfRegistry::new();
    let cases: [(&[f64], f64, f64); 4] = [
        (&[1.0, f64::NAN, 3.0], 1.0, f64::NAN),
        (&[1.0, -f64::NAN, 3.0], -f64::NAN, 3.0),
        (&[0.0, -0.0], -0.0, 0.0),
        (&[-0.0, 0.0], -0.0, 0.0),
    ];
    for (data, min, max) in cases {
        let c = DataContext::new().with_source("xs", data.to_vec());
        check3_vectorized(&Query::source("xs").min().build(), &c, &u);
        check3_vectorized(&Query::source("xs").max().build(), &c, &u);
        let (_, v) = compile_pair(&Query::source("xs").min().build(), &c, &u);
        assert_eq!(v.run(&c, &u).unwrap().key(), Value::F64(min).key(), "min of {data:?}");
        let (_, v) = compile_pair(&Query::source("xs").max().build(), &c, &u);
        assert_eq!(v.run(&c, &u).unwrap().key(), Value::F64(max).key(), "max of {data:?}");
    }
}

#[test]
fn i64_edge_sizes_agree() {
    let u = UdfRegistry::new();
    for &n in &[0usize, 1, BATCH, BATCH + 1, 3 * BATCH - 5] {
        let data: Vec<i64> = (0..n as i64).map(|i| i * 7 - (n as i64) * 3).collect();
        let c = DataContext::new().with_source("ns", data);
        check3_vectorized(
            &Query::source("ns")
                .where_((x() % Expr::liti(3)).eq(Expr::liti(0)), "x")
                .select(x() * x(), "x")
                .sum()
                .build(),
            &c,
            &u,
        );
        check3_vectorized(&Query::source("ns").min().build(), &c, &u);
    }
}

// ---------------------------------------------------------------------
// Error parity: traps fire on the same inputs in both tiers, with the
// same error value, and never from filtered-out lanes.
// ---------------------------------------------------------------------

/// Runs `q` on both VM tiers and asserts the outcomes (value or error)
/// are identical; returns the common outcome.
#[track_caller]
fn outcomes_match(q: &QueryExpr, c: &DataContext, u: &UdfRegistry) -> Result<Value, VmError> {
    let (scalar, vectorized) = compile_pair(q, c, u);
    let s = scalar.run(c, u);
    let v = vectorized.run(c, u);
    match (&s, &v) {
        (Ok(a), Ok(b)) => assert_eq!(a.key(), b.key(), "value mismatch for {q}"),
        (a, b) => assert_eq!(a, b, "outcome mismatch for {q}"),
    }
    s
}

#[test]
fn division_by_zero_parity() {
    let u = UdfRegistry::new();
    // A zero divisor in the data traps identically in both tiers, and
    // the interpreter also rejects it.
    let mut data: Vec<i64> = (1..2000).collect();
    data[1500] = 0;
    let c = DataContext::new().with_source("ns", data);
    let q = Query::source("ns")
        .select(Expr::liti(840) / x(), "x")
        .sum()
        .build();
    let (_, vectorized) = compile_pair(&q, &c, &u);
    assert_eq!(vectorized.engine(), EngineKind::Vectorized);
    let out = outcomes_match(&q, &c, &u);
    assert_eq!(out, Err(VmError::DivisionByZero));

    // Remainder traps the same way.
    let qr = Query::source("ns")
        .select(Expr::liti(7) % x(), "x")
        .sum()
        .build();
    assert_eq!(outcomes_match(&qr, &c, &u), Err(VmError::DivisionByZero));
}

#[test]
fn filtered_out_zero_divisors_do_not_trap() {
    let u = UdfRegistry::new();
    // Zeros exist in the data but the Where clause removes them before
    // the division: no engine may trap on a dead lane.
    let data: Vec<i64> = (0..3000).map(|i| i % 5).collect();
    let c = DataContext::new().with_source("ns", data.clone());
    let q = Query::source("ns")
        .where_(x().ne(Expr::liti(0)), "x")
        .select(Expr::liti(60) / x(), "x")
        .sum()
        .build();
    let (_, vectorized) = compile_pair(&q, &c, &u);
    assert_eq!(
        vectorized.engine(),
        EngineKind::Vectorized,
        "fallbacks: {:?}",
        vectorized.batch_fallbacks()
    );
    let out = outcomes_match(&q, &c, &u).expect("no lane should trap");
    let expect: i64 = data.iter().filter(|&&v| v != 0).map(|&v| 60 / v).sum();
    assert_eq!(out, Value::I64(expect));

    // ...and with the filter removed, both tiers trap identically.
    let q_unfiltered = Query::source("ns")
        .select(Expr::liti(60) / x(), "x")
        .sum()
        .build();
    assert_eq!(
        outcomes_match(&q_unfiltered, &c, &u),
        Err(VmError::DivisionByZero)
    );
}

#[test]
fn index_out_of_bounds_parity() {
    let u = UdfRegistry::new();
    // Row indexing is outside the batch tier (it falls back), but the
    // engine toggle must not change observable behaviour either way.
    let c = DataContext::new().with_source(
        "pts",
        Column::from_rows(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3),
    );
    let q = Query::source("pts")
        .select(Expr::var("p").row_index(Expr::liti(9)), "p")
        .sum()
        .build();
    let out = outcomes_match(&q, &c, &u);
    assert_eq!(out, Err(VmError::IndexOutOfBounds { index: 9, len: 3 }));

    // In-range indexing agrees on the value.
    let ok = Query::source("pts")
        .select(Expr::var("p").row_index(Expr::liti(1)), "p")
        .sum()
        .build();
    check3(&ok, &c, &u);
}

// ---------------------------------------------------------------------
// Seeded random pipelines across all three engines.
// ---------------------------------------------------------------------

/// A tiny deterministic PRNG (SplitMix64).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

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

    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }

    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }
}

/// A batch-eligible f64 transform.
fn arb_transform(rng: &mut Rng) -> Expr {
    match rng.index(10) {
        0 => x() * x(),
        1 => x() + Expr::litf(1.0),
        2 => x() - Expr::litf(2.5),
        3 => x() * Expr::litf(-0.5),
        4 => x().abs(),
        5 => x().floor(),
        6 => x().min(Expr::litf(3.0)),
        7 => x().max(Expr::litf(-3.0)),
        8 => x() / Expr::litf(4.0),
        _ => Expr::if_(
            x().gt(Expr::litf(0.0)),
            x() * Expr::litf(2.0),
            x() - Expr::litf(1.0),
        ),
    }
}

fn arb_predicate(rng: &mut Rng) -> Expr {
    match rng.index(6) {
        0 => x().gt(Expr::litf(0.0)),
        1 => x().le(Expr::litf(2.0)),
        2 => x().ne(Expr::litf(1.0)),
        3 => x().abs().lt(Expr::litf(5.0)),
        4 => x().ge(Expr::litf(-1.0)).and(x().lt(Expr::litf(4.0))),
        _ => x().lt(Expr::litf(-2.0)).or(x().gt(Expr::litf(2.0))),
    }
}

/// Random batch-eligible pipelines (Select/Where chains into a fold)
/// agree across interpreter, scalar VM, and vectorized VM.
#[test]
fn random_vectorizable_pipelines_agree() {
    let mut rng = Rng::new(0xBA7C);
    let u = UdfRegistry::new();
    for case in 0..160 {
        let len = match case % 4 {
            0 => rng.index(40),
            1 => BATCH - 1 + rng.index(3),
            2 => rng.index(3 * BATCH),
            _ => 2 * BATCH + rng.index(200),
        };
        let data: Vec<f64> = (0..len).map(|_| rng.range_f64(-50.0, 50.0)).collect();
        let mut q = Query::source("data");
        for _ in 0..rng.index(5) {
            q = if rng.next_u64() & 1 == 0 {
                q.select(arb_transform(&mut rng), "x")
            } else {
                q.where_(arb_predicate(&mut rng), "x")
            };
        }
        let q = match rng.index(5) {
            0 => q.sum().build(),
            1 => q.min().build(),
            2 => q.max().build(),
            3 => q.count().build(),
            _ => q.sum().build(),
        };
        let c = DataContext::new().with_source("data", data);
        let expected = interp::execute(&q, &c, &u).expect("interp failed");
        let (scalar, vectorized) = compile_pair(&q, &c, &u);
        assert_eq!(
            vectorized.engine(),
            EngineKind::Vectorized,
            "case {case}: {q} should vectorize; fallbacks: {:?}",
            vectorized.batch_fallbacks()
        );
        let s = scalar.run(&c, &u).expect("scalar failed");
        let v = vectorized.run(&c, &u).expect("vectorized failed");
        assert_eq!(expected.key(), s.key(), "case {case}, query {q}");
        assert_eq!(s.key(), v.key(), "case {case}, query {q}");
    }
}

/// Random i64 pipelines with data-dependent division: all three engines
/// agree on the value when no divisor is zero, and the two VM tiers
/// agree on the error when one is.
#[test]
fn random_int_division_error_parity() {
    let mut rng = Rng::new(0x51D0);
    let u = UdfRegistry::new();
    let mut traps = 0;
    let mut values = 0;
    for case in 0..120 {
        let len = 1 + rng.index(2 * BATCH);
        // Half the cases are zero-free; the other half plant at least
        // one zero divisor at a random position.
        let want_zero = case % 2 == 1;
        let mut data: Vec<i64> = (0..len)
            .map(|_| {
                let d = rng.range_i64(-9, 10);
                if d == 0 {
                    1
                } else {
                    d
                }
            })
            .collect();
        if want_zero {
            let at = rng.index(len);
            data[at] = 0;
        }
        let has_zero = data.contains(&0);
        let numerator = rng.range_i64(1, 1000);
        let q = Query::source("data")
            .select(Expr::liti(numerator) / x(), "x")
            .sum()
            .build();
        let c = DataContext::new().with_source("data", data);
        let (_, vectorized) = compile_pair(&q, &c, &u);
        assert_eq!(vectorized.engine(), EngineKind::Vectorized);
        match outcomes_match(&q, &c, &u) {
            Ok(v) => {
                values += 1;
                assert!(!has_zero, "case {case}: zero divisor but no trap");
                let expected = interp::execute(&q, &c, &u).expect("interp failed");
                assert_eq!(expected.key(), v.key(), "case {case}");
            }
            Err(e) => {
                traps += 1;
                assert!(has_zero, "case {case}: trap without zero divisor");
                assert_eq!(e, VmError::DivisionByZero, "case {case}");
            }
        }
    }
    // The distribution must actually exercise both paths.
    assert!(traps > 5, "too few trapping cases: {traps}");
    assert!(values > 5, "too few value cases: {values}");
}

/// Random grouped aggregations agree across all three engines,
/// including group-entry ordering.
#[test]
fn random_grouped_aggregates_agree_vectorized() {
    let mut rng = Rng::new(0x6B0B);
    let u = UdfRegistry::new();
    for _case in 0..96 {
        let len = rng.index(2 * BATCH);
        let data: Vec<i64> = (0..len).map(|_| rng.range_i64(-20, 20)).collect();
        let modulus = rng.range_i64(1, 6);
        let use_count = rng.next_u64() & 1 == 0;
        let inner = if use_count {
            Query::over(Expr::var("g")).count().build()
        } else {
            Query::over(Expr::var("g")).sum().build()
        };
        let q = Query::source("data")
            .group_by_result(
                x() % Expr::liti(modulus),
                "x",
                GroupResult::keyed("k", "g", inner),
            )
            .build();
        let c = DataContext::new().with_source("data", data);
        check3(&q, &c, &u);
    }
}

/// Queries the batch tier cannot take (UDF calls, rows, ordering,
/// multi-yield) silently fall back and still agree everywhere.
#[test]
fn non_vectorizable_shapes_fall_back_and_agree() {
    let u = UdfRegistry::new();
    let c = DataContext::new()
        .with_source("xs", vec![3.0, -1.5, 4.0, 1.0, -5.0, 9.25, 2.0, 6.0])
        .with_source("ys", vec![0.5, 2.0, -3.0])
        .with_source("ns", vec![7i64, 1, 4, 4, -2, 8, 0, 3, 3, 5]);

    // Positional windows and the scalar-replaced average vectorize.
    for q in [
        Query::source("xs").take(3).sum().build(),
        Query::source("xs").skip(2).take(3).build(),
        Query::source("xs").average().build(),
    ] {
        check3_vectorized(&q, &c, &u);
    }

    let cases = vec![
        Query::source("xs").order_by(x(), "x").build(),
        Query::source("ns").distinct().build(),
        Query::source("xs")
            .select_many(Query::source("ys").select(x() * Expr::var("y"), "y"), "x")
            .sum()
            .build(),
        Query::source("xs").first().build(),
    ];
    for q in &cases {
        let (_, vectorized) = compile_pair(q, &c, &u);
        check3(q, &c, &u);
        // When the loop was attempted and rejected, a reason is logged.
        if vectorized.engine() == EngineKind::Scalar {
            // Fallback reasons are advisory; just ensure accessors work.
            let _ = vectorized.batch_fallbacks();
        }
    }
}

#[test]
fn boolean_lane_pipelines_agree() {
    let u = UdfRegistry::new();
    let bools: Vec<bool> = (0..(BATCH + 100)).map(|i| i % 3 != 1).collect();
    let c = DataContext::new().with_source("bs", Column::from_bool(bools));
    check3(&Query::source("bs").all_by(x(), "x").build(), &c, &u);
    check3(&Query::source("bs").any_by(x().not(), "x").build(), &c, &u);
    check3(&Query::source("bs").count().build(), &c, &u);
}

/// Divisions under a conditional used to refuse vectorization outright
/// ("trapping op under a conditional branch"). When range analysis
/// proves every divisor non-zero, the loop vectorizes with the per-lane
/// trap guards dropped — and must still agree bit-for-bit with the
/// scalar VM and the interpreter, including on lanes where the branch
/// not taken by the scalar semantics also computes the division.
#[test]
fn proven_nonzero_divisors_vectorize_and_agree() {
    let u = UdfRegistry::new();
    let collatz = Expr::if_(
        (x() % Expr::liti(2)).eq(Expr::liti(0)),
        x() / Expr::liti(2),
        Expr::liti(3) * x() + Expr::liti(1),
    );
    for &n in &[0usize, 1, 7, BATCH, BATCH + 1, 2 * BATCH + 37] {
        let data: Vec<i64> = (0..n as i64).map(|i| i * 11 - (n as i64) * 2).collect();
        let c = DataContext::new().with_source("ns", data);
        let q = Query::source("ns")
            .select(collatz.clone(), "x")
            .sum_by(x(), "x")
            .build();
        let (_, vectorized) = compile_pair(&q, &c, &u);
        assert_eq!(
            vectorized.engine(),
            EngineKind::Vectorized,
            "fallbacks: {:?}",
            vectorized.batch_fallbacks()
        );
        assert!(
            vectorized.guards_dropped() >= 2,
            "both `x % 2` and `x / 2` guards should drop: {}",
            vectorized.guards_dropped()
        );
        check3(&q, &c, &u);
    }

    // Negative control: the same shape with an unprovable divisor must
    // still refuse the batch tier and keep agreeing through fallback.
    let risky = Expr::if_(
        x().gt(Expr::liti(0)),
        Expr::liti(100) / x(),
        Expr::liti(0),
    );
    let data: Vec<i64> = (-40..40).collect();
    let c = DataContext::new().with_source("ns", data);
    let q = Query::source("ns")
        .select(risky, "x")
        .sum_by(x(), "x")
        .build();
    let (_, vectorized) = compile_pair(&q, &c, &u);
    assert_eq!(vectorized.engine(), EngineKind::Scalar);
    assert_eq!(vectorized.guards_dropped(), 0);
    check3(&q, &c, &u);
}

#[test]
fn casts_cross_lanes_bit_for_bit() {
    let u = UdfRegistry::new();
    let ns: Vec<i64> = (-700..700).map(|i| i * 13).collect();
    let c = DataContext::new().with_source("ns", ns);
    check3_vectorized(
        &Query::source("ns")
            .select(x().cast(Ty::F64), "x")
            .select(x() / Expr::litf(3.0), "x")
            .sum()
            .build(),
        &c,
        &u,
    );
    let xs: Vec<f64> = (0..1500).map(|i| (i as f64) * 0.71 - 400.0).collect();
    let c2 = DataContext::new().with_source("xs", xs);
    check3_vectorized(
        &Query::source("xs")
            .select(x().floor().cast(Ty::I64), "x")
            .sum()
            .build(),
        &c2,
        &u,
    );
}

// ---------------------------------------------------------------------
// Operator × lane coverage: every batch operator on every lane it runs
// on, over the values that compare, order and wrap most delicately, at
// and around the batch boundary.
// ---------------------------------------------------------------------

/// Column lengths that end one lane short of, at, and one lane past a
/// batch boundary.
const BOUNDARY_SIZES: [usize; 3] = [BATCH - 1, BATCH, BATCH + 1];

/// `n` doubles with ±NaN, ±0.0 and ±inf spread through them, including
/// the last lane of the first batch and the first lane of the second.
fn f64_specials(n: usize) -> Vec<f64> {
    let special = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
    let mut xs: Vec<f64> = (0..n)
        .map(|i| match i % 5 {
            0 => special[(i / 5) % special.len()],
            _ => (i as f64) * 0.75 - (n as f64) / 2.0,
        })
        .collect();
    for (k, at) in [BATCH - 1, BATCH].into_iter().enumerate() {
        if let Some(x) = xs.get_mut(at) {
            *x = special[k];
        }
    }
    xs
}

/// `n` integers with `i64::MIN`, `i64::MAX`, `-1` and `0` spread through
/// them, placed as in [`f64_specials`].
fn i64_specials(n: usize) -> Vec<i64> {
    let special = [i64::MIN, i64::MAX, -1, 0];
    let mut ns: Vec<i64> = (0..n as i64)
        .map(|i| match i % 3 {
            0 => special[(i as usize / 3) % special.len()],
            _ => i * 7 - (n as i64) * 3,
        })
        .collect();
    for (k, at) in [BATCH - 1, BATCH].into_iter().enumerate() {
        if let Some(x) = ns.get_mut(at) {
            *x = special[k];
        }
    }
    ns
}

/// Checks `body` (an expression over `x`) twice over `src`: in a fold,
/// which the fused-kernel planner sees, and as a materialized `select`,
/// which always runs the generic tape. A numeric `body` is the map of a
/// filtered sum; a boolean one is the filter of a sum.
#[track_caller]
fn check_both_forms(src: &str, body: Expr, boolean: bool, c: &DataContext) {
    let u = UdfRegistry::new();
    let fold = if boolean {
        Query::source(src).where_(body.clone(), "x").sum()
    } else {
        let keep = match src {
            "xs" => x().ge(Expr::litf(-100.0)),
            _ => x().ne(Expr::liti(7)),
        };
        Query::source(src).where_(keep, "x").select(body.clone(), "x").sum()
    };
    check3_vectorized(&fold.build(), c, &u);
    check3_vectorized(&Query::source(src).select(body, "x").build(), c, &u);
}

#[test]
fn every_operator_and_lane_agrees_bit_for_bit() {
    use steno_expr::BinOp;
    let f_ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem, BinOp::Min, BinOp::Max];
    let i_ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max];
    let cmps = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
    let f_rhs = [f64::NAN, -0.0, f64::INFINITY, 1.5].map(Expr::litf);
    let i_rhs = [i64::MIN, i64::MAX, -1, 0].map(Expr::liti);
    let u = UdfRegistry::new();
    for n in BOUNDARY_SIZES {
        let c = DataContext::new()
            .with_source("xs", f64_specials(n))
            .with_source("ns", i64_specials(n));

        // Binary arithmetic and comparisons, per lane, against literals
        // and against the negated element (NaN against -NaN, 0.0 against
        // -0.0, MIN against its own wrapping negation).
        for rhs in f_rhs.iter().cloned().chain([-x()]) {
            for op in f_ops {
                check_both_forms("xs", Expr::bin(op, x(), rhs.clone()), false, &c);
            }
            for op in cmps {
                check_both_forms("xs", Expr::bin(op, x(), rhs.clone()), true, &c);
            }
        }
        for rhs in i_rhs.iter().cloned().chain([-x()]) {
            for op in i_ops {
                check_both_forms("ns", Expr::bin(op, x(), rhs.clone()), false, &c);
            }
            for op in cmps {
                check_both_forms("ns", Expr::bin(op, x(), rhs.clone()), true, &c);
            }
        }
        // `==` and `!=` on the bool lane.
        for op in [BinOp::Eq, BinOp::Ne] {
            let f = Expr::bin(op, x().gt(Expr::litf(0.0)), x().lt(Expr::litf(1.0)));
            check_both_forms("xs", f, true, &c);
            let i = Expr::bin(op, x().lt(Expr::liti(0)), x().ne(Expr::liti(-1)));
            check_both_forms("ns", i, true, &c);
        }

        // Unary operators, per lane.
        for body in [-x(), x().abs(), x().sqrt(), x().floor()] {
            check_both_forms("xs", body, false, &c);
        }
        for body in [-x(), x().abs()] {
            check_both_forms("ns", body, false, &c);
        }
        check_both_forms("xs", x().lt(Expr::litf(0.0)).not(), true, &c);

        // Lane-wise selects, per lane.
        let sel_f = Expr::if_(x().gt(Expr::litf(0.0)), x() * Expr::litf(2.0), -x());
        check_both_forms("xs", sel_f, false, &c);
        let sel_i = Expr::if_(x().lt(Expr::liti(0)), x() - Expr::liti(1), x() * Expr::liti(3));
        check_both_forms("ns", sel_i, false, &c);
        let sel_b = Expr::if_(
            x().gt(Expr::litf(0.0)),
            x().lt(Expr::litf(5.0)),
            x().eq(Expr::litf(-0.0)),
        );
        check_both_forms("xs", sel_b, true, &c);

        // Every (reduction, lane): filtered by a literal compare (the
        // fused-kernel shapes) and over a computed column (a generic
        // tape).
        for (src, keep, computed) in [
            ("xs", x().ge(Expr::litf(-100.0)), x().abs() - Expr::litf(3.0)),
            ("ns", x().ne(Expr::liti(7)), x().abs() - Expr::liti(3)),
        ] {
            for red in [Query::sum as fn(Query) -> Query, Query::min, Query::max] {
                let filtered = red(Query::source(src).where_(keep.clone(), "x"));
                check3_vectorized(&filtered.build(), &c, &u);
                let generic = red(Query::source(src).select(computed.clone(), "x"));
                check3_vectorized(&generic.build(), &c, &u);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The generic batch executor: source columns read in place, selection
// vectors, one-pass checked division and counts from the live-lane
// count. Each text runs on the interpreter, the scalar VM, the
// vectorized VM and the vectorized VM's profiled run, which takes the
// generic tape even where a fused kernel exists.
// ---------------------------------------------------------------------

/// Column lengths around the batch boundary, and one spanning three
/// batches.
const EDGE_SIZES: [usize; 6] = [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 37];

fn parse(text: &str) -> QueryExpr {
    steno_syntax::parse_query(text)
        .unwrap_or_else(|e| panic!("parse {text}: {e}"))
        .0
}

/// Bit-exact equality: floats by `to_bits`, so NaN payloads and the sign
/// of zero count.
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

/// The error's variant name (`DivisionByZero`, ...), which the
/// interpreter's and the VM's error types share for data errors.
fn kind(e: &dyn std::fmt::Debug) -> String {
    let s = format!("{e:?}");
    s.split(['(', ' ', '{'])
        .next()
        .unwrap_or_default()
        .to_string()
}

/// The batch programs of a compiled query, in program order.
fn batch_programs(cq: &CompiledQuery) -> Vec<&steno_vm::batch::BatchProgram> {
    cq.program()
        .instrs
        .iter()
        .filter_map(|ins| match ins {
            steno_vm::instr::Instr::BatchLoop(bp) => Some(&**bp),
            _ => None,
        })
        .collect()
}

/// Runs `text` four ways (interpreter, `Off`, `Auto`, `Auto` profiled)
/// and asserts they agree by `to_bits` on values and by kind on errors.
/// Returns the vectorized compile, its outcome and its profile.
#[track_caller]
fn check_tape(
    text: &str,
    c: &DataContext,
) -> (
    CompiledQuery,
    Result<Value, VmError>,
    Option<steno_vm::QueryProfile>,
) {
    let q = parse(text);
    let u = UdfRegistry::new();
    let (scalar, auto) = compile_pair(&q, c, &u);
    assert_eq!(
        auto.engine(),
        EngineKind::Vectorized,
        "expected {text} to vectorize; fallbacks: {:?}",
        auto.batch_fallbacks()
    );
    let want = interp::execute(&q, c, &u);
    let traced = auto.run_traced(
        c,
        &u,
        &steno_vm::Interrupt::none(),
        &steno_obs::Tracer::disabled(),
        None,
    );
    let (traced, profile) = match traced {
        Ok((v, p)) => (Ok(v), Some(p)),
        Err(e) => (Err(e), None),
    };
    let runs = [
        ("scalar", scalar.run(c, &u)),
        ("vectorized", auto.run(c, &u)),
        ("tape", traced),
    ];
    for (name, got) in &runs {
        match (&want, got) {
            (Ok(w), Ok(g)) => assert!(
                same_bits(w, g),
                "{name} {g:?} vs interpreter {w:?} on {text}"
            ),
            (Err(w), Err(g)) => {
                assert_eq!(kind(w), kind(g), "{name} error vs interpreter on {text}")
            }
            (w, g) => panic!("{name} disagrees on {text}: interpreter {w:?}, vm {g:?}"),
        }
    }
    let [_, (_, out), _] = runs;
    (auto, out, profile)
}

/// `n` doubles in `[0, 1)`, scrambled.
fn unit_f64(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7919 + 13) % 1009) as f64 / 1009.0)
        .collect()
}

/// `n` integers in `-300..700`, scrambled.
fn spread_i64(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 7919) % 1000 - 300).collect()
}

#[test]
fn loaded_slots_agree_when_overwritten_filtered_and_cut() {
    for n in EDGE_SIZES {
        let c = DataContext::new()
            .with_source("xs", unit_f64(n))
            .with_source("ns", spread_i64(n));
        for text in [
            // The tape writes its result over the loaded slot.
            "ns.where(|x| x % 7 == 3).select(|x| x * x - x).sum()",
            "xs.select(|x| x * x - x).sum()",
            "ns.select(|x| x * x - x)",
            // The loaded slot is read again after a filter.
            "xs.where(|x| x > 0.5).select(|x| x * 3.0 + x).sum()",
            "ns.where(|x| x % 2 == 0).select(|x| x + 1)",
            "ns.where(|x| x > 0).where(|x| x % 3 != 0).select(|x| x * x).max()",
            // ...and after a cut.
            "xs.take_while(|x| x < 0.99).select(|x| x * 2.0 - x).sum()",
            "ns.take_while(|x| x < 690).select(|x| x - 1)",
            "xs.take_while(|x| x < 0.99).where(|x| x > 0.25).select(|x| x * x).sum()",
        ] {
            let (_, out, _) = check_tape(text, &c);
            assert!(out.is_ok(), "{text}: {out:?}");
        }
    }
    // The overwrite really happens on the loaded slot.
    let c = DataContext::new().with_source("ns", spread_i64(10));
    let (auto, _, _) = check_tape("ns.where(|x| x % 7 == 3).select(|x| x * x - x).sum()", &c);
    let bp = batch_programs(&auto)[0];
    let Some(BOp::Load(_, loaded)) = bp.tape.first().copied() else {
        panic!("tape does not start with a load: {:?}", bp.tape)
    };
    assert!(
        bp.tape[1..]
            .iter()
            .any(|op| matches!(*op, BOp::BinI(_, d, _, _) if d == loaded)),
        "no op writes the loaded slot {loaded}: {:?}",
        bp.tape
    );
}

#[test]
fn sink_and_pair_loops_agree_at_batch_edges() {
    // `x % 100000` over `0..n` makes one group, one distinct value and
    // one sorted element per element, so each sink loop reads exactly
    // `n` rows.
    for n in EDGE_SIZES {
        let c = DataContext::new()
            .with_source(
                "ns",
                (0..n as i64).map(|i| i * 3 - 1000).collect::<Vec<_>>(),
            )
            .with_source("xs", unit_f64(n));
        let texts = [
            "ns.groupBy(|x| x % 100000).select(|kv| kv.1.sum()).where(|s| s % 3 == 0).select(|s| s * s - s).sum()",
            "ns.groupBy(|x| x % 100000).select(|kv| (kv.0, kv.1.sum()))",
            "ns.distinct().where(|x| x > 0).count()",
            "ns.distinct().select(|x| x * x - x).sum()",
            "xs.order_by(|x| x).select(|x| x * x - x).sum()",
            "xs.order_by_descending(|x| x).take_while(|x| x > 0.5).count()",
        ];
        for text in texts {
            let (auto, out, _) = check_tape(text, &c);
            assert!(out.is_ok(), "{text}: {out:?}");
            let bps = batch_programs(&auto);
            assert!(
                bps.iter()
                    .any(|bp| matches!(bp.src, steno_vm::batch::BatchSrc::Sink(_))),
                "{text}: no loop reads a sink"
            );
            let pairs = bps
                .iter()
                .any(|bp| bp.tape.iter().any(|op| matches!(op, BOp::LoadSnd(..))));
            assert_eq!(pairs, text.contains("kv.1.sum()"), "{text}: pair loop");
        }
    }
}

#[test]
fn a_cut_that_empties_a_batch_before_a_filter_agrees() {
    // The stop lands on the first lane of the second batch, on the first
    // and last lanes of the first batch, and on the very last element.
    for n in [BATCH + 1, 2 * BATCH, 2 * BATCH + 37] {
        for stop in [0, BATCH - 1, BATCH, n - 1] {
            let mut xs = vec![0.5; n];
            xs[stop] = 1.0;
            let c = DataContext::new().with_source("xs", xs);
            for text in [
                "xs.take_while(|x| x < 0.9).where(|x| x > 0.0).count()",
                "xs.take_while(|x| x < 0.9).where(|x| x > 0.0).sum()",
                "xs.take_while(|x| x < 0.9).where(|x| x > 0.0).select(|x| x * x - x)",
            ] {
                let (_, out, _) = check_tape(text, &c);
                assert!(out.is_ok(), "{text}: {out:?}");
            }
            let (_, out, _) =
                check_tape("xs.take_while(|x| x < 0.9).where(|x| x > 0.0).count()", &c);
            assert_eq!(out, Ok(Value::I64(stop as i64)));
        }
    }
}

#[test]
fn checked_division_traps_on_live_lanes_only() {
    let live_div = "ns.where(|x| x > 0).select(|x| 100 / (x - 5)).sum()";
    let dead_div = "ns.where(|x| x != 5).select(|x| 100 / (x - 5)).sum()";
    let dense_div = "ns.select(|x| 100 / (x - 5)).sum()";
    let dense_rem = "ns.select(|x| 100 % (x - 5)).sum()";
    for n in [BATCH, BATCH + 1, 2 * BATCH + 37] {
        // Lanes alternate dead (`x <= 0`) and live (`x > 5`); a 5 sits
        // on the chosen lane.
        let base: Vec<i64> = (0..n as i64)
            .map(|i| if i % 2 == 0 { -i } else { 6 + i })
            .collect();
        let c = DataContext::new().with_source("ns", base.clone());
        let (auto, out, _) = check_tape(live_div, &c);
        assert!(out.is_ok(), "{live_div}: {out:?}");
        assert!(
            batch_programs(&auto)[0]
                .tape
                .iter()
                .any(|op| matches!(op, BOp::DivI(..))),
            "{live_div} should keep its checked division"
        );
        // The first and the last live lane of the first batch, the first
        // live lane of the second and the last element.
        for at in [1, BATCH - 1, BATCH + 1, n - 1] {
            if at >= n {
                continue;
            }
            let mut ns = base.clone();
            ns[at] = 5;
            let c = DataContext::new().with_source("ns", ns);
            for text in [live_div, dense_div, dense_rem] {
                let (_, out, _) = check_tape(text, &c);
                assert_eq!(out, Err(VmError::DivisionByZero), "{text} with a 5 at {at}");
            }
            let (_, out, _) = check_tape(dead_div, &c);
            assert!(out.is_ok(), "{dead_div} trapped on a dead lane at {at}");
        }
        // A zero divisor on a dead lane does not trap.
        let mut ns = base.clone();
        ns[0] = 5;
        ns[n - 2] = 5;
        let c = DataContext::new().with_source("ns", ns);
        let (_, out, _) = check_tape(dead_div, &c);
        assert!(out.is_ok(), "{dead_div}: {out:?}");
    }
}

#[test]
fn counts_agree_after_filters_cuts_and_windows() {
    for n in EDGE_SIZES {
        let xs = unit_f64(n);
        let c = DataContext::new()
            .with_source("xs", xs.clone())
            .with_source("ns", spread_i64(n));
        for text in [
            "xs.count()",
            "xs.where(|x| x < 0.3).count()",
            "ns.where(|x| x % 3 == 0).count()",
            "ns.where(|x| x > 0).select(|x| x * 2).where(|x| x % 3 == 0).count()",
            "xs.take_while(|x| x < 0.99).count()",
            "xs.take_while(|x| x < 0.99).where(|x| x < 0.3).count()",
            "xs.skip(5).count()",
            "xs.take(1500).count()",
            "xs.skip(1000).take(30).count()",
            "xs.skip(3).take(2000).where(|x| x > 0.1).count()",
            "xs.average()",
            "ns.average()",
        ] {
            let (_, out, _) = check_tape(text, &c);
            // An average of nothing is the one expected error.
            assert!(out.is_ok() || n == 0, "{text}: {out:?}");
        }
        // The profiled run counts the same batches, elements and live
        // lanes as the filter selects.
        let (auto, out, profile) = check_tape("xs.where(|x| x < 0.3).count()", &c);
        let want = xs.iter().filter(|&&x| x < 0.3).count();
        assert_eq!(out, Ok(Value::I64(want as i64)));
        let p = profile.expect("profiled run");
        assert_eq!(p.batches, n.div_ceil(BATCH) as u64);
        assert_eq!(p.batch_elements_in, n as u64);
        assert_eq!(p.batch_elements_selected, want as u64);
        // The count is a sum of a broadcast no op writes.
        let bp = batch_programs(&auto)[0];
        let counted = bp.tape.iter().any(|op| match *op {
            BOp::Red {
                red: RedK::Sum,
                lane: Lane::I,
                val,
                ..
            } => bp.prologue.contains(&BInit::ConstI(val, 1)),
            _ => false,
        });
        assert!(counted, "count tape: {:?} / {:?}", bp.prologue, bp.tape);
        // A count after a second filter counts the lanes both keep.
        let ns = spread_i64(n);
        let text = "ns.where(|x| x > 0).select(|x| x * 2).where(|x| x % 3 == 0).count()";
        let (auto, out, profile) = check_tape(text, &c);
        let filters = batch_programs(&auto)[0]
            .tape
            .iter()
            .filter(|op| matches!(op, BOp::Filter(_)))
            .count();
        assert_eq!(filters, 2, "{text}");
        let want = ns.iter().filter(|&&x| x > 0 && x * 2 % 3 == 0).count();
        assert_eq!(out, Ok(Value::I64(want as i64)));
        assert_eq!(
            profile.expect("profiled run").batch_elements_selected,
            want as u64
        );
    }
}
