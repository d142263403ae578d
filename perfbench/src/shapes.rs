//! The query texts each workload draws from, each paired with the loop a
//! programmer would write by hand for it.
//!
//! Hand loops follow the reference interpreter's conventions exactly:
//! sums fold left from zero (integers wrap), `min`/`max` use the total
//! order with the infinities (or `i64::MAX`/`MIN`) as identities, and
//! `average` is `sum / count`. So a hand loop is also a second,
//! VM-independent reference for its query.

use steno_expr::{DataContext, Value};
use steno_query::QueryExpr;

use crate::rng::Rng;

/// The source columns a query reads: `xs` (f64) and `ns` (i64). A
/// tenant whose schema binds `xs` as i64 keeps that column in `ns` and
/// uses [`Cols::context_i64_xs`].
pub struct Cols {
    pub xs: Vec<f64>,
    pub ns: Vec<i64>,
}

impl Cols {
    pub fn context(&self) -> DataContext {
        DataContext::new()
            .with_source("xs", self.xs.clone())
            .with_source("ns", self.ns.clone())
    }

    /// The context of an i64-schema tenant: `xs` is the i64 column.
    pub fn context_i64_xs(&self) -> DataContext {
        DataContext::new().with_source("xs", self.ns.clone())
    }
}

pub type Hand = Box<dyn Fn(&Cols) -> Value + Send + Sync>;

/// One query of a workload.
pub struct Op {
    /// Index of the query shape, for per-shape statistics.
    pub shape: usize,
    pub text: String,
    pub query: QueryExpr,
    pub hand: Hand,
}

impl Op {
    fn text(shape: usize, text: String, hand: Hand) -> Op {
        let (query, _) = steno_syntax::parse_query(&text)
            .unwrap_or_else(|e| panic!("generated query `{text}` does not parse: {e}"));
        Op {
            shape,
            text,
            query,
            hand,
        }
    }
}

fn num(s: &str) -> f64 {
    s.parse().expect("generated decimal parses")
}

fn sum_f(it: impl Iterator<Item = f64>) -> Value {
    Value::F64(it.fold(0.0, |a, x| a + x))
}

fn sum_i(it: impl Iterator<Item = i64>) -> Value {
    Value::I64(it.fold(0i64, i64::wrapping_add))
}

fn count<T>(it: impl Iterator<Item = T>) -> Value {
    Value::I64(it.count() as i64)
}

fn min_f(it: impl Iterator<Item = f64>) -> Value {
    Value::F64(it.fold(
        f64::INFINITY,
        |a, x| if x.total_cmp(&a).is_lt() { x } else { a },
    ))
}

fn max_f(it: impl Iterator<Item = f64>) -> Value {
    Value::F64(it.fold(f64::NEG_INFINITY, |a, x| {
        if x.total_cmp(&a).is_gt() {
            x
        } else {
            a
        }
    }))
}

fn avg_f(it: impl Iterator<Item = f64>) -> Value {
    let (n, s) = it.fold((0i64, 0.0f64), |(n, s), x| (n + 1, s + x));
    Value::F64(s / n as f64)
}

fn seq_f(it: impl Iterator<Item = f64>) -> Value {
    Value::seq(it.map(Value::F64).collect())
}

fn seq_i(it: impl Iterator<Item = i64>) -> Value {
    Value::seq(it.map(Value::I64).collect())
}

fn sorted_f(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Groups `(key, value)` pairs in first-appearance order of the key, as
/// the interpreter's `GroupBy` does.
fn group_i(pairs: impl Iterator<Item = (i64, i64)>) -> Vec<(i64, Vec<i64>)> {
    let mut groups: Vec<(i64, Vec<i64>)> = Vec::new();
    let mut index = std::collections::HashMap::new();
    for (k, v) in pairs {
        let at = *index.entry(k).or_insert_with(|| {
            groups.push((k, Vec::new()));
            groups.len() - 1
        });
        groups[at].1.push(v);
    }
    groups
}

/// The 23 query shapes of the tape-check text corpus
/// (`tests/tape_check_corpus.rs`). Constants are drawn from the seed, so
/// every draw is a new plan-cache key. Shapes 13–15 (`min`, `max`,
/// `average`) and 22 (`order_by(..).take(..)`) have no constant, or too
/// few values of one, in the corpus; they gain a leading `select` or
/// `where` here so that every text can be new.
pub const CHURN_SHAPES: usize = 23;

pub fn churn_op(shape: usize, r: &mut Rng) -> Op {
    let (text, hand): (String, Hand) = match shape {
        0 => {
            let m = r.range(2, 17);
            let k = r.range(0, m);
            let c = r.range(0, 10_000);
            (
                format!("from x in ns where x % {m} == {k} select x * x + {c}"),
                Box::new(move |d| seq_i(d.ns.iter().filter(|&&x| x % m == k).map(|&x| x * x + c))),
            )
        }
        1 => {
            let f = r.decimal(-100, 100);
            let fv = num(&f);
            (
                format!("(from x in xs select x * x + {f}).sum()"),
                Box::new(move |d| sum_f(d.xs.iter().map(|&x| x * x + fv))),
            )
        }
        2 | 3 => {
            let (lo, hi) = (r.decimal(-300, -50), r.decimal(0, 250));
            let (l, h) = (num(&lo), num(&hi));
            let text = if shape == 2 {
                format!("xs.where(|x| x > {lo}).where(|x| x > {hi}).sum()")
            } else {
                format!("xs.where(|x| x > {hi}).where(|x| x > {lo}).sum()")
            };
            (
                text,
                Box::new(move |d| sum_f(d.xs.iter().copied().filter(|&x| x > l && x > h))),
            )
        }
        4 => {
            let (f, g) = (r.decimal(-50, 50), r.decimal(-200, 200));
            let (fv, gv) = (num(&f), num(&g));
            (
                format!("xs.select(|x| x + {f}).where(|x| x < {g}).sum()"),
                Box::new(move |d| sum_f(d.xs.iter().map(|&x| x + fv).filter(|&y| y < gv))),
            )
        }
        5 => {
            let (f, g) = (r.decimal(-5, 5), r.decimal(-100, 100));
            let (fv, gv) = (num(&f), num(&g));
            (
                format!("xs.select(|x| x * {f}).select(|x| x + {g}).sum()"),
                Box::new(move |d| sum_f(d.xs.iter().map(|&x| x * fv).map(|y| y + gv))),
            )
        }
        6 => {
            let (f, g) = (r.decimal(-5, 5), r.decimal(-300, 300));
            let (fv, gv) = (num(&f), num(&g));
            (
                format!("xs.select(|x| x * {f}).where(|x| x > {g}).count()"),
                Box::new(move |d| count(d.xs.iter().map(|&x| x * fv).filter(|&y| y > gv))),
            )
        }
        7 => {
            let (s, t) = (r.range(0, 500), r.range(1, 1000));
            (
                format!("(from x in ns select x).skip({s}).take({t}).sum()"),
                Box::new(move |d| sum_i(d.ns.iter().copied().skip(s as usize).take(t as usize))),
            )
        }
        8 => {
            let (a, b) = (r.range(1, 1000), r.range(1, 1000));
            (
                format!("ns.take({a}).take({b}).sum()"),
                Box::new(move |d| sum_i(d.ns.iter().copied().take(a as usize).take(b as usize))),
            )
        }
        9 => {
            let (a, b) = (r.range(0, 1000), r.range(0, 1000));
            (
                format!("ns.skip({a}).skip({b}).sum()"),
                Box::new(move |d| sum_i(d.ns.iter().copied().skip(a as usize).skip(b as usize))),
            )
        }
        10 => {
            let (k, t) = (r.range(1, 1000), r.range(1, 1000));
            (
                format!("ns.select(|x| x * {k}).take({t}).sum()"),
                Box::new(move |d| sum_i(d.ns.iter().map(|&x| x * k).take(t as usize))),
            )
        }
        11 => {
            let (a, f, b) = (r.decimal(-300, 0), r.decimal(-50, 50), r.decimal(0, 300));
            let (av, fv, bv) = (num(&a), num(&f), num(&b));
            (
                format!("xs.where(|x| x > {a}).select(|x| x + {f}).where(|x| x < {b}).sum()"),
                Box::new(move |d| {
                    sum_f(
                        d.xs.iter()
                            .filter(|&&x| x > av)
                            .map(|&x| x + fv)
                            .filter(|&y| y < bv),
                    )
                }),
            )
        }
        12 => {
            let (m, t) = (r.range(2, 65), r.range(0, 2000));
            (
                format!("ns.where(|x| x % {m} == 0).where(|x| x > {t}).count()"),
                Box::new(move |d| count(d.ns.iter().filter(|&&x| x % m == 0 && x > t))),
            )
        }
        13..=15 => {
            let f = r.decimal(-100, 100);
            let fv = num(&f);
            let agg = ["min", "max", "average"][shape - 13];
            let hand: Hand = match shape {
                13 => Box::new(move |d| min_f(d.xs.iter().map(|&x| x + fv))),
                14 => Box::new(move |d| max_f(d.xs.iter().map(|&x| x + fv))),
                _ => Box::new(move |d| avg_f(d.xs.iter().map(|&x| x + fv))),
            };
            (format!("xs.select(|x| x + {f}).{agg}()"), hand)
        }
        16 => {
            let f = r.decimal(-300, 300);
            let fv = num(&f);
            (
                format!("xs.take_while(|x| x < {f}).count()"),
                Box::new(move |d| count(d.xs.iter().take_while(|&&x| x < fv))),
            )
        }
        17 => {
            let f = r.decimal(-300, 300);
            let fv = num(&f);
            (
                format!("xs.skip_while(|x| x < {f}).min()"),
                Box::new(move |d| min_f(d.xs.iter().copied().skip_while(|&x| x < fv))),
            )
        }
        18 => {
            let (f, g) = (r.decimal(-300, 200), r.decimal(-10, 10));
            let (fv, gv) = (num(&f), num(&g));
            (
                format!("from x in xs where x > {f} orderby x descending select x + {g}"),
                Box::new(move |d| {
                    let mut v: Vec<f64> = d.xs.iter().copied().filter(|&x| x > fv).collect();
                    v.sort_by(|a, b| b.total_cmp(a));
                    seq_f(v.into_iter().map(|x| x + gv))
                }),
            )
        }
        19 => {
            let (m, c) = (r.range(2, 17), r.range(0, 10_000));
            (
                format!("from x in ns group x * x + {c} by x % {m}"),
                Box::new(move |d| {
                    let groups = group_i(d.ns.iter().map(|&x| (x % m, x * x + c)));
                    Value::seq(
                        groups
                            .into_iter()
                            .map(|(k, vs)| Value::pair(Value::I64(k), seq_i(vs.into_iter())))
                            .collect(),
                    )
                }),
            )
        }
        20 => {
            let (m, c) = (r.range(2, 65), r.range(0, 10_000));
            (
                format!("ns.select(|x| x % {m} + {c}).distinct().order_by(|x| x)"),
                Box::new(move |d| {
                    let mut v: Vec<i64> = d.ns.iter().map(|&x| x % m + c).collect();
                    v.sort_unstable();
                    v.dedup();
                    seq_i(v.into_iter())
                }),
            )
        }
        21 => {
            let k = r.range(1, 1_000_000);
            (
                format!("ns.where(|x| x != 0).select(|x| {k} / x).sum()"),
                Box::new(move |d| sum_i(d.ns.iter().filter(|&&x| x != 0).map(|&x| k / x))),
            )
        }
        22 => {
            let (f, t) = (r.decimal(-300, 300), r.range(1, 1000));
            let fv = num(&f);
            (
                format!("xs.where(|x| x > {f}).order_by(|x| x).take({t}).sum()"),
                Box::new(move |d| {
                    let v = sorted_f(d.xs.iter().copied().filter(|&x| x > fv).collect());
                    sum_f(v.into_iter().take(t as usize))
                }),
            )
        }
        _ => unreachable!("there are {CHURN_SHAPES} churn shapes"),
    };
    Op::text(shape, text, hand)
}

/// Names of the `scan_large` queries, in [`scan_ops`] order; each names
/// the per-query `vm.`/`hand.`/`linq.ns_per_elem` metrics.
pub const SCAN_NAMES: [&str; 10] = [
    "sum_sq",
    "filtered_sum",
    "int_mod_filter",
    "guarded_div",
    "take_skip",
    "average",
    "take_while",
    "order_take",
    "group_agg",
    "pure_udf",
];

/// The pure UDF of the `pure_udf` scan query.
pub fn scan_udf(x: f64) -> f64 {
    x * 1.5 + 0.25
}

/// The fixed `scan_large` query set. At the parent commit it covers
/// every execution tier: whole-tape fused batch kernels (0, 1), plain
/// batch loops (2, 3), the scalar fallbacks of take/skip, average,
/// take_while, order_by+take and group-by aggregation (4–8), and a pure
/// UDF (9).
pub fn scan_ops() -> Vec<Op> {
    let text = |i: usize, t: &str, hand: Hand| Op::text(i, t.to_string(), hand);
    vec![
        text(
            0,
            "xs.select(|x| x * x).sum()",
            Box::new(|d| sum_f(d.xs.iter().map(|&x| x * x))),
        ),
        text(
            1,
            "xs.where(|x| x > 0.5).select(|x| x * 2.0).sum()",
            Box::new(|d| sum_f(d.xs.iter().filter(|&&x| x > 0.5).map(|&x| x * 2.0))),
        ),
        text(
            2,
            "ns.where(|x| x % 7 == 3).select(|x| x * x - x).sum()",
            Box::new(|d| sum_i(d.ns.iter().filter(|&&x| x % 7 == 3).map(|&x| x * x - x))),
        ),
        text(
            3,
            "ns.where(|x| x != 0).select(|x| 1000000 / x).sum()",
            Box::new(|d| sum_i(d.ns.iter().filter(|&&x| x != 0).map(|&x| 1_000_000 / x))),
        ),
        text(
            4,
            "ns.skip(1000).take(900000).sum()",
            Box::new(|d| sum_i(d.ns.iter().copied().skip(1000).take(900_000))),
        ),
        text(5, "xs.average()", Box::new(|d| avg_f(d.xs.iter().copied()))),
        text(
            6,
            "xs.take_while(|x| x < 2.0).count()",
            Box::new(|d| count(d.xs.iter().take_while(|&&x| x < 2.0))),
        ),
        text(
            7,
            "xs.order_by(|x| x).take(10).sum()",
            Box::new(|d| {
                let v = sorted_f(d.xs.clone());
                sum_f(v.into_iter().take(10))
            }),
        ),
        text(
            8,
            "ns.groupBy(|x| x % 16).select(|kv| (kv.0, kv.1.sum()))",
            Box::new(|d| {
                // Keys are `0..16` (the source is non-negative): one slot
                // per key, kept in first-appearance order.
                let mut slot = [usize::MAX; 16];
                let mut sums: Vec<(i64, i64)> = Vec::new();
                for &x in &d.ns {
                    let k = x % 16;
                    let at = &mut slot[k as usize];
                    if *at == usize::MAX {
                        *at = sums.len();
                        sums.push((k, 0));
                    }
                    sums[*at].1 = sums[*at].1.wrapping_add(x);
                }
                Value::seq(
                    sums.into_iter()
                        .map(|(k, s)| Value::pair(Value::I64(k), Value::I64(s)))
                        .collect(),
                )
            }),
        ),
        text(
            9,
            "xs.select(|x| f(x)).sum()",
            Box::new(|d| sum_f(d.xs.iter().map(|&x| scan_udf(x)))),
        ),
    ]
}

/// One text of the `serve_zipf` pool. `dual` texts type-check whether a
/// tenant binds `xs` as f64 or as i64, and carry the hand loop for both.
pub struct PoolText {
    pub op: Op,
    /// Hand loop over an i64 `xs` (kept in [`Cols::ns`]) for dual texts.
    pub hand_i64: Option<Hand>,
}

/// The `serve_zipf` pool of `n` texts, in zipf-rank order. Which shape
/// sits at which rank is fixed; the seed only draws the constants, so
/// the cost of the mix does not depend on the seed. Every third rank
/// holds a text valid under both schemas. Sorting and `distinct` shapes
/// are left out: at 10⁴ elements one of them costs as much as a hundred
/// of the others, and this workload is about per-request overhead.
pub fn serve_pool(r: &mut Rng, n: usize) -> Vec<PoolText> {
    let mut pool: Vec<PoolText> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while pool.len() < n {
        let rank = pool.len();
        let entry = if rank.is_multiple_of(3) {
            dual_text(rank / 3, r)
        } else {
            f64_text(rank - rank / 3 - 1, r)
        };
        if seen.insert(entry.op.text.clone()) {
            pool.push(entry);
        }
    }
    pool
}

fn dual_text(i: usize, r: &mut Rng) -> PoolText {
    // Scalar-tier take/skip cost grows with the elements they pass, so
    // their counts stay within a narrow band.
    let t = r.range(4000, 6000) as usize;
    let (text, hf, hi): (String, Hand, Hand) = match i {
        0 => (
            "xs.sum()".into(),
            Box::new(|d| sum_f(d.xs.iter().copied())),
            Box::new(|d| sum_i(d.ns.iter().copied())),
        ),
        1 => (
            "xs.count()".into(),
            Box::new(|d| count(d.xs.iter())),
            Box::new(|d| count(d.ns.iter())),
        ),
        2 => (
            "xs.min()".into(),
            Box::new(|d| min_f(d.xs.iter().copied())),
            Box::new(|d| Value::I64(d.ns.iter().copied().fold(i64::MAX, i64::min))),
        ),
        3 => (
            "xs.max()".into(),
            Box::new(|d| max_f(d.xs.iter().copied())),
            Box::new(|d| Value::I64(d.ns.iter().copied().fold(i64::MIN, i64::max))),
        ),
        4 => (
            "xs.select(|x| x * x).sum()".into(),
            Box::new(|d| sum_f(d.xs.iter().map(|&x| x * x))),
            Box::new(|d| sum_i(d.ns.iter().map(|&x| x.wrapping_mul(x)))),
        ),
        _ => match i % 4 {
            0 => (
                format!("xs.take({t}).sum()"),
                Box::new(move |d| sum_f(d.xs.iter().copied().take(t))),
                Box::new(move |d| sum_i(d.ns.iter().copied().take(t))),
            ),
            1 => (
                format!("xs.skip({t}).count()"),
                Box::new(move |d| count(d.xs.iter().skip(t))),
                Box::new(move |d| count(d.ns.iter().skip(t))),
            ),
            2 => (
                format!("xs.take({t}).max()"),
                Box::new(move |d| max_f(d.xs.iter().copied().take(t))),
                Box::new(move |d| {
                    Value::I64(d.ns.iter().copied().take(t).fold(i64::MIN, i64::max))
                }),
            ),
            _ => (
                format!("xs.skip({t}).min()"),
                Box::new(move |d| min_f(d.xs.iter().copied().skip(t))),
                Box::new(move |d| {
                    Value::I64(d.ns.iter().copied().skip(t).fold(i64::MAX, i64::min))
                }),
            ),
        },
    };
    PoolText {
        op: Op::text(i, text, hf),
        hand_i64: Some(hi),
    }
}

fn f64_text(i: usize, r: &mut Rng) -> PoolText {
    let f = r.decimal(0, 1);
    let fv = num(&f);
    let (text, hand): (String, Hand) = match i % 3 {
        0 => (
            format!("xs.where(|x| x > {f}).sum()"),
            Box::new(move |d| sum_f(d.xs.iter().copied().filter(|&x| x > fv))),
        ),
        1 => (
            format!("xs.select(|x| x * {f}).sum()"),
            Box::new(move |d| sum_f(d.xs.iter().map(|&x| x * fv))),
        ),
        _ => (
            format!("xs.where(|x| x < {f}).count()"),
            Box::new(move |d| count(d.xs.iter().filter(|&&x| x < fv))),
        ),
    };
    PoolText {
        op: Op::text(100 + i, text, hand),
        hand_i64: None,
    }
}
