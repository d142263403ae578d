//! Differential testing of scalar replacement: the code generator
//! splits pair-typed locals (`average`'s `(sum, count)`, tuple
//! `aggregate` seeds, tuple-producing `select`s) into one scalar local
//! per field. Both VM tiers must still agree with the LINQ interpreter
//! bit for bit — `f64::to_bits`, NaN included — and raise the same
//! error, in the same evaluation order, when a field update traps.

use steno_expr::value::ValueKey;
use steno_expr::{Column, DataContext, EvalError, Expr, UdfRegistry, Value};
use steno_linq::interp;
use steno_query::typing::SourceTypes;
use steno_query::{Query, QueryExpr};
use steno_vm::query::StenoOptions;
use steno_vm::{CompiledQuery, LoopTier, VectorizationPolicy, VmError};

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

    /// A source length: empty, around a batch boundary, or arbitrary.
    fn len(&mut self, case: usize) -> usize {
        match case % 5 {
            0 => 0,
            1 => 1 + self.index(40),
            2 => BATCH - 1 + self.index(3),
            _ => self.index(3 * BATCH),
        }
    }
}

/// An engine-independent image of a run: the value's bit-exact key, or
/// the error normalized across the interpreter's and the VM's types.
#[derive(Debug, PartialEq)]
enum Outcome {
    Value(ValueKey),
    DivisionByZero,
    IndexOutOfBounds { index: i64, len: usize },
}

fn interp_outcome(r: Result<Value, EvalError>) -> Outcome {
    match r {
        Ok(v) => Outcome::Value(v.key()),
        Err(EvalError::DivisionByZero) => Outcome::DivisionByZero,
        Err(EvalError::IndexOutOfBounds { index, len }) => Outcome::IndexOutOfBounds { index, len },
        Err(e) => panic!("unexpected interpreter error: {e}"),
    }
}

fn vm_outcome(r: Result<Value, VmError>) -> Outcome {
    match r {
        Ok(v) => Outcome::Value(v.key()),
        Err(VmError::DivisionByZero) => Outcome::DivisionByZero,
        Err(VmError::IndexOutOfBounds { index, len }) => Outcome::IndexOutOfBounds { index, len },
        Err(e) => panic!("unexpected vm error: {e}"),
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

/// Runs `q` on the interpreter and on the VM under both vectorization
/// policies; all three outcomes must be identical. Returns the outcome
/// and the `Auto` compile for tier assertions.
#[track_caller]
fn check(q: &QueryExpr, c: &DataContext) -> (Outcome, CompiledQuery) {
    let u = UdfRegistry::new();
    let expected = interp_outcome(interp::execute(q, c, &u));
    let scalar = compile(q, c, &u, VectorizationPolicy::Off);
    let auto = compile(q, c, &u, VectorizationPolicy::Auto);
    assert_eq!(
        vm_outcome(scalar.run(c, &u)),
        expected,
        "scalar VM vs interpreter on {q}"
    );
    assert_eq!(
        vm_outcome(auto.run(c, &u)),
        expected,
        "vectorized VM vs interpreter on {q} (plans {:?})",
        auto.loop_plans()
    );
    (expected, auto)
}

fn parse(text: &str) -> QueryExpr {
    steno_syntax::parse_query(text)
        .unwrap_or_else(|e| panic!("`{text}` failed to parse: {e}"))
        .0
}

fn tiers(c: &CompiledQuery) -> Vec<LoopTier> {
    c.loop_plans().iter().map(|p| p.tier).collect()
}

/// Seeded f64 and i64 sources; some f64 cases carry a NaN.
fn seeded_ctx(rng: &mut Rng, case: usize) -> DataContext {
    let n = rng.len(case);
    let mut xs: Vec<f64> = (0..n).map(|_| rng.f64_in(-50.0, 50.0)).collect();
    if case % 7 == 3 && n > 0 {
        let at = rng.index(n);
        xs[at] = f64::NAN;
    }
    let ns: Vec<i64> = (0..rng.len(case))
        .map(|_| rng.i64_in(-1000, 1000))
        .collect();
    DataContext::new()
        .with_source("xs", xs)
        .with_source("ns", ns)
}

/// The shapes scalar replacement rewrites, as query text.
const SHAPES: &[&str] = &[
    "xs.average()",
    "ns.average()",
    "xs.where(|x| x > 0.5).average()",
    "ns.where(|x| x % 3 == 0).average()",
    "xs.where(|x| x > 1000000.0).average()",
    "ns.where(|x| x > 1000000).average()",
    "xs.select(|x| x * 2.0 - 1.0).average()",
    "xs.aggregate((0.0, 0), |acc, x| (acc.0 + x, acc.1 + 1))",
    "xs.aggregate((0.0, 0), |acc, x| (acc.0 + x * (acc.1 as f64), acc.1 + 1))",
    "xs.aggregate((1.0, 0.0), |acc, x| (acc.0 * 0.5 + x, acc.1 + acc.0))",
    "xs.aggregate((0.0, 1.0), |acc, x| (acc.1, acc.0 + x))",
    "ns.aggregate((0, 7), |acc, x| (acc.1 - x, acc.0))",
    "xs.aggregate(((0.0, 0.0), 0), |acc, x| ((acc.0.0 + x, acc.0.1 + x * x), acc.1 + 1))",
    "ns.aggregate(((0, 0), (0.0, 0)), |acc, x| ((acc.0.1, acc.0.0 + x), (acc.1.0 + 0.5, acc.1.1 + 1)))",
    "xs.select(|x| (x, x * 2.0)).select(|p| p.0 + p.1).sum()",
    "xs.select(|x| (x, x * 2.0)).where(|p| p.0 > 0.0).select(|p| p.1).sum()",
    "xs.select(|x| (x, x + 1.0))",
    "ns.select(|x| ((x, x * 2), x > 0)).where(|p| p.1).select(|p| p.0.0 + p.0.1).sum()",
];

#[test]
fn seeded_pair_local_shapes_agree_bit_for_bit() {
    let mut rng = Rng(0x5CA1_A12E);
    let mut nan_results = 0;
    for case in 0..40 {
        let c = seeded_ctx(&mut rng, case);
        for text in SHAPES {
            let (outcome, _) = check(&parse(text), &c);
            if matches!(outcome, Outcome::Value(ValueKey::F64(bits)) if f64::from_bits(bits).is_nan())
            {
                nan_results += 1;
            }
        }
    }
    // Empty and all-filtered averages (0/0) and NaN inputs are covered.
    assert!(nan_results > 40, "too few NaN results: {nan_results}");
}

#[test]
fn averages_over_empty_and_all_filtered_sources_are_nan() {
    let c = DataContext::new()
        .with_source("xs", Vec::<f64>::new())
        .with_source("ns", vec![1i64, 2, 3]);
    for text in ["xs.average()", "ns.where(|x| x > 10).average()"] {
        let (outcome, _) = check(&parse(text), &c);
        let Outcome::Value(ValueKey::F64(bits)) = outcome else {
            panic!("{text}: expected an f64, got {outcome:?}");
        };
        assert!(f64::from_bits(bits).is_nan(), "{text}");
    }
}

#[test]
fn a_trapping_field_update_traps_at_the_seeded_element() {
    let mut rng = Rng(0xD1F0);
    for case in 0..30 {
        let n = 1 + rng.index(3 * BATCH);
        let mut ns: Vec<i64> = (0..n).map(|_| rng.i64_in(1, 100)).collect();
        let traps = case % 2 == 0;
        if traps {
            let at = rng.index(n);
            ns[at] = 0;
        }
        let c = DataContext::new().with_source("ns", ns);
        for text in [
            "ns.aggregate((0, 0), |acc, x| (acc.0 + 1, acc.1 + 840 / x))",
            "ns.aggregate((0, 0.0), |acc, x| (acc.0 + 840 % x, acc.1 + 0.5))",
        ] {
            let (outcome, _) = check(&parse(text), &c);
            assert_eq!(
                outcome == Outcome::DivisionByZero,
                traps,
                "case {case}: {text}"
            );
        }
    }
}

#[test]
fn field_updates_trap_in_left_to_right_order() {
    // Leaf 0 indexes out of bounds and leaf 1 divides by zero on every
    // row: the first field's error must win, as in the boxed tuple.
    let c = DataContext::new().with_source(
        "pts",
        Column::from_rows(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3),
    );
    let (outcome, _) = check(
        &parse("pts.aggregate((0.0, 0), |acc, p| (acc.0 + p[5], acc.1 + 60 / (p.len() - 3)))"),
        &c,
    );
    assert_eq!(outcome, Outcome::IndexOutOfBounds { index: 5, len: 3 });
    let (outcome, _) = check(
        &parse("pts.aggregate((0, 0.0), |acc, p| (acc.0 + 60 / (p.len() - 3), acc.1 + p[5]))"),
        &c,
    );
    assert_eq!(outcome, Outcome::DivisionByZero);
}

#[test]
fn average_and_tuple_aggregate_vectorize() {
    let c = DataContext::new()
        .with_source(
            "xs",
            (0..5000).map(|i| f64::from(i) * 0.25).collect::<Vec<_>>(),
        )
        .with_source("ns", (0..5000i64).collect::<Vec<_>>());
    for text in [
        "xs.average()",
        "ns.average()",
        "xs.where(|x| x > 0.5).average()",
        "xs.aggregate((0.0, 0), |acc, x| (acc.0 + x, acc.1 + 1))",
        "xs.aggregate(((0.0, 0.0), 0), |acc, x| ((acc.0.0 + x, acc.0.1 + x * x), acc.1 + 1))",
        "xs.select(|x| (x, x * 2.0)).select(|p| p.0 + p.1).sum()",
    ] {
        let (_, auto) = check(&parse(text), &c);
        assert_eq!(
            tiers(&auto),
            [LoopTier::Vectorized],
            "{text}: {:?}",
            auto.loop_plans()
        );
    }
}

#[test]
fn a_pair_valued_if_update_stays_boxed() {
    let acc = || Expr::var("acc");
    let x = || Expr::var("x");
    let q = Query::source("xs")
        .aggregate(
            Expr::mk_pair(Expr::litf(0.0), Expr::liti(0)),
            "acc",
            "x",
            Expr::if_(
                x().gt(Expr::litf(0.5)),
                Expr::mk_pair(acc().field(0) + x(), acc().field(1) + Expr::liti(1)),
                acc(),
            ),
        )
        .build();
    let mut rng = Rng(0xB0C5);
    for case in 0..10 {
        let (_, auto) = check(&q, &seeded_ctx(&mut rng, case));
        let plans = auto.loop_plans();
        assert_eq!(tiers(&auto), [LoopTier::Scalar]);
        let reason = plans[0]
            .vectorize_fallback
            .as_ref()
            .expect("a refused loop names its reason");
        assert!(reason.to_string().contains("`agg_0`"), "{reason}");
    }
}
