//! Differential testing of the positional operators' early exits:
//! `skip`/`take` folded into a loop's index window, a counter `take`
//! checked at the top of every loop body, and `take_while` as a break
//! (a first-failing-lane cut on the batch tier). Both VM tiers must
//! agree with the LINQ interpreter bit for bit — `f64::to_bits`, NaN
//! included — and must never run an operator on an element the lazy
//! interpreter does not pull, so a trap past the exit stays unraised.

use steno_expr::value::ValueKey;
use steno_expr::{DataContext, EvalError, Expr, UdfRegistry, Value};
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
}

/// An engine-independent image of a run: the value's bit-exact key, or
/// the error normalized across the interpreter's and the VM's types.
#[derive(Debug, PartialEq)]
enum Outcome {
    Value(ValueKey),
    DivisionByZero,
}

/// Runs the interpreter.
fn interp_outcome(q: &QueryExpr, c: &DataContext) -> Outcome {
    match interp::execute(q, c, &UdfRegistry::new()) {
        Ok(v) => Outcome::Value(v.key()),
        Err(EvalError::DivisionByZero) => Outcome::DivisionByZero,
        Err(e) => panic!("unexpected interpreter error: {e}"),
    }
}

fn vm_outcome(r: Result<Value, VmError>) -> Outcome {
    match r {
        Ok(v) => Outcome::Value(v.key()),
        Err(VmError::DivisionByZero) => Outcome::DivisionByZero,
        Err(e) => panic!("unexpected vm error: {e}"),
    }
}

fn compile(q: &QueryExpr, c: &DataContext, vectorize: VectorizationPolicy) -> CompiledQuery {
    let opts = StenoOptions {
        vectorize,
        ..StenoOptions::default()
    };
    let compiled = CompiledQuery::compile_with(q, SourceTypes::from(c), &UdfRegistry::new(), opts)
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
    let expected = interp_outcome(q, c);
    let scalar = compile(q, c, VectorizationPolicy::Off);
    let auto = compile(q, c, VectorizationPolicy::Auto);
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

fn x() -> Expr {
    Expr::var("x")
}

/// `1..=20` with a zero at index 5: dividing by it traps.
fn zs_ctx() -> DataContext {
    let mut zs: Vec<i64> = (1..=20).collect();
    zs[5] = 0;
    DataContext::new()
        .with_source("zs", zs)
        .with_source("ws", vec![1i64, 2, 3])
}

#[test]
fn operators_upstream_of_an_exit_never_see_unpulled_elements() {
    // Each of these divides by zero at zs[5] unless the engine stops
    // pulling where the interpreter does.
    let c = zs_ctx();
    for (text, want) in [
        ("zs.select(|x| 100 / x).take(3).sum()", 183),
        ("zs.select(|x| 100 / x).skip(2).take(2).sum()", 58),
        ("zs.where(|x| 100 / x > 1).take(3).sum()", 6),
        ("zs.select(|x| 100 / x).take_while(|x| x > 50).count()", 1),
    ] {
        let (outcome, _) = check(&parse(text), &c);
        assert_eq!(outcome, Outcome::Value(Value::I64(want).key()), "{text}");
    }
    // The other way round: the interpreter runs a select on the
    // elements a skip discards, so a skip after one must not fold into
    // the window and silently drop the trap.
    for text in [
        "zs.select(|x| 100 / x).skip(6).sum()",
        "zs.select(|x| 100 / x).skip(6).take(2).count()",
    ] {
        let (outcome, _) = check(&parse(text), &c);
        assert_eq!(outcome, Outcome::DivisionByZero, "{text}");
    }
}

#[test]
fn splices_stop_every_loop_of_the_stream() {
    // A trapping select runs in the outer loop, upstream of the
    // select_many splice; the exit downstream must stop the outer loop
    // too, before it reaches zs[5].
    let c = zs_ctx();
    let spliced = || {
        Query::source("zs")
            .select(Expr::liti(100) / x(), "x")
            .select_many(Query::source("ws").select(x() + Expr::var("y"), "y"), "x")
    };
    let mut traps = 0;
    for n in 0..=20 {
        let (outcome, _) = check(&spliced().take(n).sum().build(), &c);
        // Five outer elements supply 15 inner ones.
        assert_eq!(outcome == Outcome::DivisionByZero, n > 15, "take({n})");
        traps += usize::from(outcome == Outcome::DivisionByZero);
        let (outcome, _) = check(&spliced().skip(2).take(n).count().build(), &c);
        assert_eq!(outcome == Outcome::DivisionByZero, n > 13, "skip(2).take({n})");
    }
    assert!(traps > 0);
    for bound in [0, 20, 26, 34, 50, 200] {
        let q = spliced()
            .take_while(x().lt(Expr::liti(bound)), "x")
            .sum()
            .build();
        let (outcome, _) = check(&q, &c);
        // The first element is 101 and later ones are smaller: below a
        // bound above 103 every element passes and the stream reaches
        // zs[5]; otherwise it stops at the first.
        assert_eq!(outcome == Outcome::DivisionByZero, bound > 103, "bound {bound}");
        let q = spliced().take_while(x().lt(Expr::liti(bound)), "x").build();
        check(&q, &c);
    }
}

/// The window counts the issue's edge list names, for a source of `len`.
fn window_counts(len: usize) -> [usize; 9] {
    [
        0,
        1,
        BATCH - 1,
        BATCH,
        BATCH + 1,
        len.saturating_sub(1),
        len,
        len + 1,
        usize::MAX,
    ]
}

#[test]
fn seeded_windows_agree_bit_for_bit() {
    let mut rng = Rng(0x51C1_7A4E);
    let mut vectorized = 0;
    for case in 0..60 {
        let len = match case % 4 {
            0 => rng.index(8),
            1 => BATCH - 1 + rng.index(3),
            2 => 2 * BATCH + rng.index(3),
            _ => rng.index(3 * BATCH),
        };
        let mut xs: Vec<f64> = (0..len).map(|_| rng.f64_in(-50.0, 50.0)).collect();
        if case % 5 == 2 && len > 0 {
            let at = rng.index(len);
            xs[at] = f64::NAN;
        }
        let ns: Vec<i64> = (0..len).map(|_| rng.i64_in(-1000, 1000)).collect();
        let c = DataContext::new()
            .with_source("xs", xs)
            .with_source("ns", ns);
        let counts = window_counts(len);
        let depth = 2 + case % 2;
        let mut q: Query = Query::source(if case % 3 == 0 { "ns" } else { "xs" });
        if case % 6 == 1 {
            // A take folds over a select; a skip after one keeps its
            // counter.
            q = q.select(x() + x(), "x");
        }
        if case % 6 == 4 {
            q = q.where_(x().eq(x()), "x");
        }
        for _ in 0..depth {
            let n = counts[rng.index(counts.len())];
            q = if rng.index(2) == 0 { q.skip(n) } else { q.take(n) };
        }
        for q in [q.clone().sum().build(), q.clone().count().build(), q.build()] {
            let (_, auto) = check(&q, &c);
            vectorized += usize::from(tiers(&auto) == [LoopTier::Vectorized]);
        }
    }
    assert!(vectorized > 60, "too few vectorized windows: {vectorized}");
}

#[test]
fn take_while_cuts_at_the_seeded_lane() {
    let mut rng = Rng(0xC0_7A11);
    let n = 3 * BATCH + 17;
    // First failure at lane 0, mid-batch, the last lane of a batch, a
    // batch boundary, the last element, and never.
    let cuts = [
        Some(0),
        Some(500),
        Some(BATCH - 1),
        Some(BATCH),
        Some(2 * BATCH - 1),
        Some(2 * BATCH),
        Some(n - 1),
        None,
    ];
    for (case, cut) in cuts.into_iter().enumerate() {
        let mut xs: Vec<f64> = (0..n).map(|_| rng.f64_in(0.0, 1.9)).collect();
        if let Some(at) = cut {
            xs[at] = if case % 2 == 0 { 5.0 } else { f64::NAN };
            // Later failures must not move the cut.
            for _ in 0..8 {
                let later = at + rng.index(n - at);
                xs[later] = 3.0;
            }
        }
        // `xd` adds a failing value before the cut that a filter removes:
        // the cut considers live lanes only.
        let mut xd = xs.clone();
        if let Some(at @ 1..) = cut {
            xd[rng.index(at)] = 7.0;
        }
        let c = DataContext::new().with_source("xs", xs).with_source("xd", xd);
        for text in [
            "xs.take_while(|x| x < 2.0).count()",
            "xs.take_while(|x| x < 2.0).sum()",
            "xs.take_while(|x| x < 2.0)",
            "xs.select(|x| x * 0.5).take_while(|x| x < 1.0).max()",
            "xd.where(|x| x != 7.0).take_while(|x| x < 2.0).sum()",
            "xd.where(|x| x != 7.0).take_while(|x| x < 2.0)",
            "xs.skip(3).take(3000).take_while(|x| x < 2.0).count()",
        ] {
            let (outcome, auto) = check(&parse(text), &c);
            assert_eq!(
                tiers(&auto),
                [LoopTier::Vectorized],
                "{text}: {:?}",
                auto.loop_plans()
            );
            if text == "xs.take_while(|x| x < 2.0).count()" {
                let want = cut.unwrap_or(n) as i64;
                assert_eq!(outcome, Outcome::Value(Value::I64(want).key()), "{text}");
            }
        }
    }
}

#[test]
fn a_trap_before_the_cut_keeps_the_loop_scalar() {
    let mut ns: Vec<i64> = (1..=3000).collect();
    ns[2500] = 0;
    let c = DataContext::new().with_source("ns", ns);
    for text in [
        "ns.select(|x| 100000 / x).take_while(|x| x > 50).count()",
        "ns.take_while(|x| 100000 / x > 50).count()",
    ] {
        let (outcome, auto) = check(&parse(text), &c);
        assert!(matches!(outcome, Outcome::Value(_)), "{text}: {outcome:?}");
        let plans = auto.loop_plans();
        assert_eq!(tiers(&auto), [LoopTier::Scalar], "{text}");
        let reason = plans[0]
            .vectorize_fallback
            .as_ref()
            .expect("a refused loop names its reason");
        assert_eq!(reason.to_string(), "trapping op before an early exit", "{text}");
    }
}

#[test]
fn the_scan_large_positional_queries_vectorize() {
    let c = DataContext::new()
        .with_source("ns", (0..1_000_000i64).collect::<Vec<_>>())
        .with_source(
            "xs",
            (0..1_000_000).map(|i| f64::from(i % 1000) * 0.003).collect::<Vec<_>>(),
        );
    for text in [
        "ns.skip(1000).take(900000).sum()",
        "xs.take_while(|x| x < 2.0).count()",
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
