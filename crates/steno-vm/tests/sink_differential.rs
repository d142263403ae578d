//! Differential testing of the typed sinks: sort, distinct and
//! grouped-aggregate sinks over unboxed columns, the top-k bound a sort
//! takes from its only reader's window, and the direct-indexed group
//! table. The LINQ interpreter, the scalar VM
//! ([`VectorizationPolicy::Off`]) and the vectorized VM
//! ([`VectorizationPolicy::Auto`]) must agree bit for bit on values
//! (floats by `to_bits`, so NaN payloads and the sign of zero count) and
//! by kind on errors, and every compiled tape must pass the tape
//! verifier.

use steno_expr::{DataContext, UdfRegistry, Value};
use steno_linq::interp;
use steno_query::QueryExpr;
use steno_vm::query::StenoOptions;
use steno_vm::{CompiledQuery, LoopTier, VectorizationPolicy};

const BATCH: usize = 1024;

fn parse(text: &str) -> QueryExpr {
    steno_syntax::parse_query(text)
        .unwrap_or_else(|e| panic!("parse {text}: {e}"))
        .0
}

fn compile(q: &QueryExpr, c: &DataContext, vectorize: VectorizationPolicy) -> CompiledQuery {
    let opts = StenoOptions {
        vectorize,
        ..StenoOptions::default()
    };
    let u = UdfRegistry::new();
    let compiled = CompiledQuery::compile_with(q, c.into(), &u, opts)
        .unwrap_or_else(|e| panic!("compile failed for {q}: {e}"));
    steno_vm::check_program(compiled.program())
        .unwrap_or_else(|e| panic!("tape check rejected {q} ({vectorize:?}): {e}"));
    compiled
}

/// Bit-exact equality: floats by `to_bits`.
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
    s.split(['(', ' ', '{']).next().unwrap_or_default().to_string()
}

/// Runs `text` through all three engines and asserts they agree;
/// returns the vectorized compile.
#[track_caller]
fn check(text: &str, c: &DataContext) -> CompiledQuery {
    let q = parse(text);
    let u = UdfRegistry::new();
    let want = interp::execute(&q, c, &u);
    let scalar = compile(&q, c, VectorizationPolicy::Off);
    let auto = compile(&q, c, VectorizationPolicy::Auto);
    for (name, cq) in [("scalar", &scalar), ("vectorized", &auto)] {
        match (&want, cq.run(c, &u)) {
            (Ok(w), Ok(got)) => {
                assert!(same_bits(w, &got), "{name} {got:?} vs interpreter {w:?} on {text}")
            }
            (Err(w), Err(got)) => {
                assert_eq!(kind(w), kind(&got), "{name} error vs interpreter on {text}")
            }
            (w, got) => panic!("{name} disagrees on {text}: interpreter {w:?}, vm {got:?}"),
        }
    }
    auto
}

fn tiers(c: &CompiledQuery) -> Vec<LoopTier> {
    c.loop_plans().iter().map(|p| p.tier).collect()
}

fn sinks(c: &CompiledQuery) -> Vec<String> {
    steno_vm::instr::sink_plans(c.program())
}

/// An f64 column of `n` elements with repeats, NaNs of both signs,
/// signed zeros and infinities.
fn odd_f64(n: usize) -> Vec<f64> {
    let specials = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
    (0..n)
        .map(|i| {
            if i % 13 == 5 {
                specials[(i / 13) % specials.len()]
            } else {
                ((i * 7919) % 61) as f64 * 0.5 - 15.0
            }
        })
        .collect()
}

/// An i64 column with repeats, negatives and both extremes.
fn odd_i64(n: usize) -> Vec<i64> {
    (0..n)
        .map(|i| match i % 17 {
            3 => i64::MIN,
            11 => i64::MAX,
            _ => ((i * 7919) % 97) as i64 - 48,
        })
        .collect()
}

fn ctx(n: usize) -> DataContext {
    DataContext::new()
        .with_source("xs", odd_f64(n))
        .with_source("ns", odd_i64(n))
}

const SIZES: [usize; 7] = [0, 1, 2, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 5];

#[test]
fn order_take_runs_both_loops_vectorized_as_a_top_k() {
    let c = ctx(2 * BATCH + 3);
    let auto = check("xs.order_by(|x| x).take(10).sum()", &c);
    assert_eq!(tiers(&auto), [LoopTier::Vectorized, LoopTier::Vectorized]);
    assert_eq!(sinks(&auto), ["sink s0: sorted f64→f64, top 10"]);
}

#[test]
fn group_upsert_runs_vectorized_on_a_direct_table() {
    let c = ctx(2 * BATCH + 3);
    let auto = check("ns.groupBy(|x| x % 16).select(|kv| (kv.0, kv.1.sum()))", &c);
    assert_eq!(tiers(&auto), [LoopTier::Vectorized, LoopTier::Vectorized]);
    assert_eq!(sinks(&auto), ["sink s0: group-agg i64→i64, direct[-15..=15]"]);
}

#[test]
fn sorts_agree_on_nan_signed_zero_and_every_size() {
    for n in SIZES {
        let c = ctx(n);
        for text in [
            "xs.order_by(|x| x)",
            "xs.order_by_descending(|x| x)",
            "from x in xs orderby x descending select x + 1.0",
            "ns.order_by(|x| x)",
            "ns.order_by_descending(|x| x)",
            "xs.where(|x| x > -3.0).order_by(|x| x).select(|x| x * 2.0)",
        ] {
            let auto = check(text, &c);
            assert!(tiers(&auto).iter().all(|t| *t == LoopTier::Vectorized), "{text}");
        }
    }
}

#[test]
fn equal_keys_keep_push_order_both_directions() {
    for n in SIZES {
        let c = ctx(n);
        for text in [
            // Elements differ from their keys: ties must keep push order.
            "xs.order_by(|x| x.floor())",
            "xs.order_by_descending(|x| x.floor())",
            "ns.order_by(|x| x % 3)",
            "ns.order_by_descending(|x| x % 3)",
            "ns.order_by(|x| x > 0)",
            "xs.order_by(|x| -x).take(7)",
            // A key that differs from the element in the text but is the
            // same column on the tape.
            "xs.order_by(|x| x as f64)",
            "ns.order_by_descending(|x| x as i64).take(5)",
            "ns.order_by_descending(|x| x % 5).skip(3).take(11)",
        ] {
            check(text, &c);
        }
    }
}

#[test]
fn top_k_windows_agree_at_every_bound() {
    for n in SIZES {
        let c = ctx(n);
        for (t, s) in [(0, 0), (1, 0), (10, 0), (n, 0), (n + 5, 0), (3, 2), (BATCH, 1), (1, n)] {
            for (text, k) in [
                (format!("xs.order_by(|x| x).take({t}).sum()"), t),
                (format!("xs.order_by_descending(|x| x).skip({s}).take({t})"), s + t),
                (format!("ns.order_by(|x| x).skip({s}).take({t})"), s + t),
                (format!("ns.order_by_descending(|x| x % 7).take({t})"), t),
            ] {
                let auto = check(&text, &c);
                let plan = sinks(&auto).join(" ");
                assert!(plan.contains(&format!("top {k}")), "{text}: {plan}");
            }
        }
    }
}

#[test]
fn a_take_behind_a_filter_takes_the_full_sort() {
    // The `take` after a `where` is a counter in the loop body, not the
    // loop's window: the reader may read any element, so no bound.
    let c = ctx(BATCH + 7);
    for text in [
        "xs.order_by(|x| x).where(|x| x > 0.0).take(5).sum()",
        "ns.order_by(|x| x).where(|x| x % 2 == 0).take(3)",
    ] {
        let auto = check(text, &c);
        let plan = sinks(&auto).join(" ");
        assert!(!plan.contains("top"), "{text}: {plan}");
    }
}

/// Inserts, after every loop over a sink, a second loop with the same
/// body over the whole sink.
fn add_full_reader(p: &mut steno_codegen::ImpProgram) -> usize {
    use steno_codegen::{LoopHeader, Stmt, Window};
    let mut added = 0;
    for block in &mut p.blocks {
        let mut k = 0;
        while k < block.len() {
            if let Stmt::For { header: LoopHeader::Sink { .. }, .. } = &block[k] {
                let mut again = block[k].clone();
                if let Stmt::For { window, .. } = &mut again {
                    *window = Window::ALL;
                }
                block.insert(k + 1, again);
                added += 1;
                k += 1;
            }
            k += 1;
        }
    }
    added
}

#[test]
fn a_sort_read_by_two_loops_takes_the_full_sort() {
    // The generator gives every sink one reader loop, so the program is
    // built by hand: `take(3)`'s reader, then a reader of the whole sort
    // adding into the same sum. A top-k bound of 3 would drop what the
    // second loop reads.
    let u = UdfRegistry::new();
    for n in [0, 5, BATCH + 3] {
        let c = ctx(n);
        let q = parse("xs.order_by(|x| x).take(3).sum()");
        let mut imp = steno_codegen::generate(compile(&q, &c, VectorizationPolicy::Auto).chain())
            .expect("generate");
        assert_eq!(add_full_reader(&mut imp), 1);
        let mut sorted = odd_f64(n);
        sorted.sort_by(f64::total_cmp);
        let mut want = 0.0;
        for x in sorted.iter().take(3).chain(&sorted) {
            want += x;
        }
        let mut got = Vec::new();
        for vectorize in [false, true] {
            let p = steno_vm::compile::assemble_hinted(&imp, &u, false, vectorize, None)
                .expect("assemble");
            steno_vm::check_program(&p).unwrap_or_else(|e| panic!("tape check: {e}"));
            if vectorize {
                let plans = steno_vm::instr::sink_plans(&p).join(" ");
                assert!(!plans.contains("top"), "{plans}");
            }
            let b = steno_vm::prepared::Bindings::resolve(&p, &c, &u).expect("bindings");
            got.push(steno_vm::run_program(&p, &b, &steno_vm::Interrupt::none()).expect("run"));
        }
        assert!(same_bits(&got[0], &got[1]), "n = {n}: scalar {:?}, vectorized {:?}", got[0], got[1]);
        // A NaN's payload depends on operand order; its presence does not.
        let Value::F64(sum) = got[0] else {
            panic!("n = {n}: {:?}", got[0]);
        };
        assert!(sum == want || sum.is_nan() && want.is_nan(), "n = {n}: {sum} vs {want}");
    }
}

#[test]
fn group_keys_at_their_range_bounds_agree() {
    for n in SIZES {
        let c = ctx(n);
        for (text, index) in [
            // Negative remainders and `i64::MIN % m` land at the bounds.
            ("ns.groupBy(|x| x % 16).select(|kv| (kv.0, kv.1.sum()))", "direct[-15..=15]"),
            ("ns.groupBy(|x| x % 1024).select(|kv| (kv.0, kv.1.count()))", "hash"),
            ("ns.groupBy(|x| x % 512).select(|kv| (kv.0, kv.1.sum()))", "direct[-511..=511]"),
            ("ns.groupBy(|x| x % -7).select(|kv| (kv.0, kv.1.sum()))", "direct[-6..=6]"),
            // Unbounded keys fall back to the hash table.
            ("ns.groupBy(|x| x / 3).select(|kv| (kv.0, kv.1.sum()))", "hash"),
            ("ns.groupBy(|x| x).select(|kv| (kv.0, kv.1.count()))", "hash"),
            ("xs.groupBy(|x| x.floor()).select(|kv| (kv.0, kv.1.sum()))", "hash"),
            ("ns.groupBy(|x| x > 0).select(|kv| (kv.0, kv.1.count()))", "hash"),
        ] {
            let auto = check(text, &c);
            let plan = sinks(&auto).join(" ");
            assert!(plan.contains(index), "{text}: {plan}");
        }
    }
}

#[test]
fn distinct_then_sort_agrees() {
    for n in SIZES {
        let c = ctx(n);
        for text in [
            "ns.select(|x| x % 9 + 3).distinct().order_by(|x| x)",
            "ns.distinct().order_by_descending(|x| x).take(4)",
            "xs.distinct().order_by(|x| x)",
            "xs.distinct()",
            "ns.select(|x| x > 0).distinct()",
        ] {
            let auto = check(text, &c);
            assert!(tiers(&auto).iter().all(|t| *t == LoopTier::Vectorized), "{text}");
        }
    }
}

#[test]
fn trapping_sort_keys_fail_alike() {
    let text = "ns.order_by(|x| 100 / x).take(2).sum()";
    let c = DataContext::new().with_source("ns", vec![5i64, 3, 0, 9, 1]);
    check(text, &c);
    let q = parse(text);
    let scalar = compile(&q, &c, VectorizationPolicy::Off).run(&c, &UdfRegistry::new());
    assert_eq!(scalar, Err(steno_vm::VmError::DivisionByZero));
    let c = DataContext::new().with_source("ns", vec![5i64, 3, 4, 9, 1]);
    check(text, &c);
}
