//! Differential corpus for the fused batch kernels.
//!
//! Every pre-monomorphized fused shape in `steno_vm::fuse_kernels` runs
//! three ways and must agree bit-for-bit:
//!
//! * the fused single-pass loop (`run`, the default path when the
//!   planner recognized the tape),
//! * the unfused kernel sequence (`run_traced` — profiled executions
//!   keep taking the tape precisely so this comparison stays alive),
//! * the scalar interpreter tier (`VectorizationPolicy::Off`).
//!
//! Sizes straddle the batch boundary (1023/1024/1025) so the remainder
//! chunk, the exact-batch case, and the chunk-crossing case all run.
//! Sums, mins and maxes share one masked loop that folds an identity on
//! filtered-out lanes, so each reduction runs with a predicate that is
//! sometimes, never and always true.
//! Trap parity pins that fusion never changes *which* error a query
//! raises, and a deadline test proves fused loops still poll the
//! interrupt at batch boundaries.

use steno_expr::{Column, DataContext, Expr, UdfRegistry, Value};
use steno_linq::interp;
use steno_obs::Tracer;
use steno_query::{Query, QueryExpr};
use steno_vm::query::StenoOptions;
use steno_vm::{CompiledQuery, Interrupt, QueryProfile, VectorizationPolicy, VmError};

const SIZES: [usize; 3] = [1023, 1024, 1025];

fn x() -> Expr {
    Expr::var("x")
}

/// Compiles `q` on the scalar tier (vectorization off).
fn compile_scalar(q: &QueryExpr, c: &DataContext, u: &UdfRegistry) -> CompiledQuery {
    let opts = StenoOptions {
        vectorize: VectorizationPolicy::Off,
        ..StenoOptions::default()
    };
    CompiledQuery::compile_with(q, c.into(), u, opts)
        .unwrap_or_else(|e| panic!("scalar compile {q}: {e}"))
}

/// The profiled run, which executes the unfused kernel tape.
fn run_tape(
    compiled: &CompiledQuery,
    c: &DataContext,
    u: &UdfRegistry,
) -> Result<(Value, QueryProfile), VmError> {
    compiled.run_traced(c, u, &Interrupt::none(), &Tracer::disabled(), None)
}

/// Compiles `q` with the default options, asserts the planner attached
/// (or refused) a whole-tape fused kernel, and checks the fused loop,
/// the kernel sequence, and the scalar tier agree bit-for-bit with the
/// interpreter. Returns the fused loop's value.
#[track_caller]
fn check_shape(q: &QueryExpr, c: &DataContext, expect_fused: Option<&str>) -> Value {
    let u = UdfRegistry::new();
    let compiled =
        CompiledQuery::compile(q, c.into(), &u).unwrap_or_else(|e| panic!("compile {q}: {e}"));
    // Whole-tape labels read `red(map):lane`; the peephole's pair names
    // (`muladd:f64`, ...) have no parenthesis.
    let whole_tape: Vec<&String> = compiled
        .fused_kernels()
        .iter()
        .filter(|k| k.contains('('))
        .collect();
    match expect_fused {
        Some(label) => assert_eq!(
            whole_tape,
            vec![label],
            "expected {q} to fuse as {label}; got {:?}",
            compiled.fused_kernels()
        ),
        None => assert!(
            whole_tape.is_empty(),
            "expected {q} to stay on the kernel path; got {whole_tape:?}"
        ),
    }
    let scalar = compile_scalar(q, c, &u);

    let expected = interp::execute(q, c, &u).expect("interpreter failed");
    let fused_v = compiled.run(c, &u).expect("fused run failed");
    let (tape_v, _) = run_tape(&compiled, c, &u).expect("tape run failed");
    let scalar_v = scalar.run(c, &u).expect("scalar run failed");
    assert_eq!(expected.key(), fused_v.key(), "interp vs fused for {q}");
    assert_eq!(fused_v.key(), tape_v.key(), "fused vs kernel tape for {q}");
    assert_eq!(fused_v.key(), scalar_v.key(), "fused vs scalar for {q}");
    fused_v
}

fn f64_ctx(n: usize) -> DataContext {
    let data: Vec<f64> = (0..n)
        .map(|i| ((i as f64) * 0.37 - (n as f64) / 3.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    DataContext::new().with_source("xs", data)
}

fn i64_ctx(n: usize) -> DataContext {
    let data: Vec<i64> = (0..n as i64).map(|i| i * 7 - (n as i64) * 3).collect();
    DataContext::new().with_source("ns", data)
}

// ---------------------------------------------------------------------
// f64 shapes.
// ---------------------------------------------------------------------

#[test]
fn f64_shapes_across_batch_boundary() {
    for &n in &SIZES {
        let c = f64_ctx(n);
        // map-only shapes: identity, square, const·x, x·const, const.
        check_shape(&Query::source("xs").sum().build(), &c, Some("sum(x):f64"));
        check_shape(
            &Query::source("xs").select(x() * x(), "x").sum().build(),
            &c,
            Some("sum(x*x):f64"),
        );
        check_shape(
            &Query::source("xs")
                .select(x() * Expr::litf(2.5), "x")
                .sum()
                .build(),
            &c,
            Some("sum(x*2.5):f64"),
        );
        check_shape(
            &Query::source("xs")
                .select(Expr::litf(2.5) * x(), "x")
                .sum()
                .build(),
            &c,
            Some("sum(2.5*x):f64"),
        );
        // predicated shapes, constant on either comparison side.
        check_shape(
            &Query::source("xs")
                .where_(x().gt(Expr::litf(0.5)), "x")
                .select(x() * Expr::litf(2.0), "x")
                .sum()
                .build(),
            &c,
            Some("filter(x>0.5)·sum(x*2):f64"),
        );
        check_shape(
            &Query::source("xs")
                .where_(Expr::litf(0.5).lt(x()), "x")
                .select(x() * x(), "x")
                .sum()
                .build(),
            &c,
            Some("filter(x>0.5)·sum(x*x):f64"),
        );
        check_shape(
            &Query::source("xs")
                .where_(x().le(Expr::litf(-1.0)), "x")
                .sum()
                .build(),
            &c,
            Some("filter(x<=-1)·sum(x):f64"),
        );
    }
}

// ---------------------------------------------------------------------
// i64 shapes.
// ---------------------------------------------------------------------

#[test]
fn i64_shapes_across_batch_boundary() {
    for &n in &SIZES {
        let c = i64_ctx(n);
        check_shape(&Query::source("ns").sum().build(), &c, Some("sum(x):i64"));
        check_shape(
            &Query::source("ns").select(x() * x(), "x").sum().build(),
            &c,
            Some("sum(x*x):i64"),
        );
        check_shape(
            &Query::source("ns")
                .select(x() * Expr::liti(5), "x")
                .sum()
                .build(),
            &c,
            Some("sum(x*5):i64"),
        );
        check_shape(
            &Query::source("ns")
                .select(Expr::liti(3) * x() + Expr::liti(1), "x")
                .sum()
                .build(),
            &c,
            Some("sum(3*x+1):i64"),
        );
        // Comparison predicate.
        check_shape(
            &Query::source("ns")
                .where_(x().gt(Expr::liti(10)), "x")
                .select(x() * x(), "x")
                .sum()
                .build(),
            &c,
            Some("filter(x>10)·sum(x*x):i64"),
        );
        // Remainder predicates: the pre-monomorphized moduli and the
        // runtime-dispatch fallback, eq and ne both.
        for m in [2i64, 3, 4, 5, 7] {
            check_shape(
                &Query::source("ns")
                    .where_((x() % Expr::liti(m)).eq(Expr::liti(0)), "x")
                    .select(x() * x(), "x")
                    .sum()
                    .build(),
                &c,
                Some(&format!("filter(x%{m}==0)·sum(x*x):i64")),
            );
            check_shape(
                &Query::source("ns")
                    .where_((x() % Expr::liti(m)).ne(Expr::liti(0)), "x")
                    .sum()
                    .build(),
                &c,
                Some(&format!("filter(x%{m}!=0)·sum(x):i64")),
            );
        }
    }
}

/// The guarded-division select shape (`x % m == r ? x / d : a*x + b`):
/// the pre-monomorphized (m, d) pairs and the runtime fallback.
#[test]
fn guarded_div_select_shapes() {
    let collatz = |m: i64, d: i64| {
        Query::source("ns")
            .select(
                Expr::if_(
                    (x() % Expr::liti(m)).eq(Expr::liti(0)),
                    x() / Expr::liti(d),
                    Expr::liti(3) * x() + Expr::liti(1),
                ),
                "x",
            )
            .sum_by(Expr::var("y"), "y")
            .build()
    };
    for &n in &SIZES {
        // Positive data so range analysis proves both divisors non-zero
        // (the admission condition for the unchecked-div tape).
        let c = DataContext::new()
            .with_source("ns", (1..=n as i64).collect::<Vec<i64>>());
        for (m, d) in [(2i64, 2i64), (2, 4), (3, 3), (5, 3)] {
            check_shape(
                &collatz(m, d),
                &c,
                Some(&format!("sum(x%{m}==0 ? x/{d} : 3*x+1):i64")),
            );
        }
    }
}

// ---------------------------------------------------------------------
// min/max shapes.
// ---------------------------------------------------------------------

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

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Pseudo-random doubles in `[-1, 1)`, with a positive and a negative
/// NaN and both zeros planted at scattered positions (`total_cmp`
/// orders `-NaN < … < -0.0 < +0.0 < … < NaN`).
fn noisy_f64_ctx(n: usize) -> DataContext {
    let mut rng = Rng(n as u64);
    let mut data: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
    for (at, v) in [(n / 7, f64::NAN), (n / 3, -f64::NAN), (n / 2, 0.0), (n - 1, -0.0)] {
        data[at] = v;
    }
    DataContext::new().with_source("xs", data)
}

/// Pseudo-random integers in `±10^9`.
fn noisy_i64_ctx(n: usize) -> DataContext {
    let mut rng = Rng(!(n as u64));
    let data: Vec<i64> = (0..n)
        .map(|_| (rng.next_u64() % 2_000_000_001) as i64 - 1_000_000_000)
        .collect();
    DataContext::new().with_source("ns", data)
}

#[test]
fn f64_min_max_shapes_across_batch_boundary() {
    for &n in &SIZES {
        let c = noisy_f64_ctx(n);
        // Unfiltered: the NaNs of either sign are the extremes.
        let min = check_shape(&Query::source("xs").min().build(), &c, Some("min(x):f64"));
        assert_eq!(min.key(), Value::F64(-f64::NAN).key(), "min of {n}");
        let max = check_shape(&Query::source("xs").max().build(), &c, Some("max(x):f64"));
        assert_eq!(max.key(), Value::F64(f64::NAN).key(), "max of {n}");
        check_shape(
            &Query::source("xs").select(x() * x(), "x").max().build(),
            &c,
            Some("max(x*x):f64"),
        );
        // A predicate over the random data (NaN lanes fail it).
        check_shape(
            &Query::source("xs").where_(x().gt(Expr::litf(0.5)), "x").max().build(),
            &c,
            Some("filter(x>0.5)·max(x):f64"),
        );
        check_shape(
            &Query::source("xs")
                .where_(x().gt(Expr::litf(0.5)), "x")
                .select(x() * Expr::litf(2.5), "x")
                .min()
                .build(),
            &c,
            Some("filter(x>0.5)·min(x*2.5):f64"),
        );
        // Only the zeros and the negatives pass: max must pick +0.0
        // over -0.0, min the smallest negative.
        let zero = check_shape(
            &Query::source("xs").where_(x().le(Expr::litf(0.0)), "x").max().build(),
            &c,
            Some("filter(x<=0)·max(x):f64"),
        );
        assert_eq!(zero.key(), Value::F64(0.0).key(), "+0.0 orders above -0.0");
        check_shape(
            &Query::source("xs").where_(x().le(Expr::litf(0.0)), "x").min().build(),
            &c,
            Some("filter(x<=0)·min(x):f64"),
        );
        // Never true: every lane folds the identity, and the result
        // keeps the seed's bits.
        let none = check_shape(
            &Query::source("xs").where_(x().gt(Expr::litf(2.0)), "x").max().build(),
            &c,
            Some("filter(x>2)·max(x):f64"),
        );
        assert_eq!(none.key(), Value::F64(f64::NEG_INFINITY).key());
        let none = check_shape(
            &Query::source("xs").where_(x().gt(Expr::litf(2.0)), "x").min().build(),
            &c,
            Some("filter(x>2)·min(x):f64"),
        );
        assert_eq!(none.key(), Value::F64(f64::INFINITY).key());
        // A sum seeded with -0.0 keeps it: -0.0 is the sum's identity
        // for every accumulator, where +0.0 is not.
        let seeded = check_shape(
            &Query::source("xs")
                .where_(x().gt(Expr::litf(2.0)), "x")
                .aggregate(Expr::litf(-0.0), "a", "x", Expr::var("a") + x())
                .build(),
            &c,
            Some("filter(x>2)·sum(x):f64"),
        );
        assert_eq!(seeded.key(), Value::F64(-0.0).key());
    }
}

#[test]
fn i64_min_max_shapes_across_batch_boundary() {
    for &n in &SIZES {
        let c = noisy_i64_ctx(n);
        check_shape(&Query::source("ns").min().build(), &c, Some("min(x):i64"));
        check_shape(&Query::source("ns").max().build(), &c, Some("max(x):i64"));
        check_shape(
            &Query::source("ns")
                .select(Expr::liti(3) * x() + Expr::liti(1), "x")
                .min()
                .build(),
            &c,
            Some("min(3*x+1):i64"),
        );
        // Predicates over the random data: a comparison, and the
        // remainder guard with a literal and a runtime modulus.
        check_shape(
            &Query::source("ns")
                .where_(x().gt(Expr::liti(10)), "x")
                .select(x() * x(), "x")
                .max()
                .build(),
            &c,
            Some("filter(x>10)·max(x*x):i64"),
        );
        for m in [3i64, 7] {
            check_shape(
                &Query::source("ns")
                    .where_((x() % Expr::liti(m)).eq(Expr::liti(0)), "x")
                    .min()
                    .build(),
                &c,
                Some(&format!("filter(x%{m}==0)·min(x):i64")),
            );
            check_shape(
                &Query::source("ns")
                    .where_((x() % Expr::liti(m)).ne(Expr::liti(0)), "x")
                    .max()
                    .build(),
                &c,
                Some(&format!("filter(x%{m}!=0)·max(x):i64")),
            );
        }
        // Never true: the result keeps the seed's bits.
        let never = |q: Query| q.where_(x().gt(Expr::liti(2_000_000_000)), "x");
        let none = check_shape(
            &never(Query::source("ns")).max().build(),
            &c,
            Some("filter(x>2000000000)·max(x):i64"),
        );
        assert_eq!(none, Value::I64(i64::MIN));
        let none = check_shape(
            &never(Query::source("ns")).min().build(),
            &c,
            Some("filter(x>2000000000)·min(x):i64"),
        );
        assert_eq!(none, Value::I64(i64::MAX));
    }
}

// ---------------------------------------------------------------------
// Trap parity.
// ---------------------------------------------------------------------

/// Checked integer division (divisor not provably non-zero) must refuse
/// whole-tape fusion and raise the identical `DivisionByZero` on every
/// tier.
#[test]
fn checked_division_trap_parity() {
    let u = UdfRegistry::new();
    let data: Vec<i64> = (0..1500).map(|i| i % 5).collect();
    let c = DataContext::new().with_source("ns", data);
    let q = Query::source("ns")
        .select(Expr::liti(60) / x(), "x")
        .sum()
        .build();
    let compiled = CompiledQuery::compile(&q, (&c).into(), &u).expect("compile");
    assert!(
        !compiled.fused_kernels().iter().any(|k| k.contains("sum(")),
        "checked division must stay on the kernel path: {:?}",
        compiled.fused_kernels()
    );
    let scalar = compile_scalar(&q, &c, &u);
    assert_eq!(compiled.run(&c, &u), Err(VmError::DivisionByZero));
    assert_eq!(
        run_tape(&compiled, &c, &u).map(|(v, _)| v),
        Err(VmError::DivisionByZero)
    );
    assert_eq!(scalar.run(&c, &u), Err(VmError::DivisionByZero));
}

/// Row indexing runs on the scalar tier (the vectorizer refuses it), so
/// this pins that superinstruction threading preserves the exact
/// out-of-bounds trap.
#[test]
fn index_trap_parity_under_threaded_dispatch() {
    let u = UdfRegistry::new();
    let c = DataContext::new().with_source(
        "pts",
        Column::from_rows(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3),
    );
    let q = Query::source("pts")
        .select(Expr::var("p").row_index(Expr::liti(9)), "p")
        .sum()
        .build();
    let compiled = CompiledQuery::compile(&q, (&c).into(), &u).expect("compile");
    let scalar = compile_scalar(&q, &c, &u);
    let expected = Err(VmError::IndexOutOfBounds { index: 9, len: 3 });
    assert_eq!(compiled.run(&c, &u), expected);
    assert_eq!(scalar.run(&c, &u), expected);
}

// ---------------------------------------------------------------------
// Interrupt polling inside fused loops.
// ---------------------------------------------------------------------

/// A fused single-pass loop must still honor deadlines at batch
/// boundaries — the POLL_STRIDE contract survives kernel fusion.
#[test]
fn fused_loop_polls_deadline() {
    let u = UdfRegistry::new();
    let data: Vec<f64> = (0..200_000).map(|i| i as f64 * 0.001).collect();
    let c = DataContext::new().with_source("xs", data);
    let q = Query::source("xs")
        .select(x() * x(), "x")
        .sum()
        .build();
    let compiled = CompiledQuery::compile(&q, (&c).into(), &u).expect("compile");
    assert!(
        compiled.fused_kernels().iter().any(|k| k.contains("sum(")),
        "the workload must take the fused path for this test to bite"
    );
    let expired = Interrupt::none()
        .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
    assert_eq!(
        compiled.run_with(&c, &u, &expired),
        Err(VmError::DeadlineExceeded)
    );
    // And an inert interrupt still completes.
    compiled.run_with(&c, &u, &Interrupt::none()).expect("inert run");
}
