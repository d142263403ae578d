//! The plan-cache key: a query AST plus the scope it is cached under,
//! hashed and compared by structure.
//!
//! A lookup walks the AST through the map's own hasher (the seeded
//! `RandomState` of a `HashMap`), so it prints nothing, allocates
//! nothing, and a tenant cannot predict which queries share a bucket.
//! Whatever shares a bucket is told apart by full structural equality,
//! so two queries whose hashes collide never share a plan.
//!
//! Both halves compare `f64` literals by their bits, not by value: the
//! derived `PartialEq` of the AST says `0.0 == -0.0`, but `x * 0.0` and
//! `x * -0.0` compute different answers, and it says `NaN != NaN`, which
//! would make a query with a NaN literal miss its own entry forever.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::mem::discriminant;

use steno_expr::{Expr, Value};
use steno_query::{GroupResult, QBody, QFn, QFn2, QueryExpr, SourceRef};

/// An owned cache key: `scope` (the compile options for the plan cache,
/// the tenant for a service's negative cache) plus the query, cloned
/// once when the entry is inserted.
///
/// The key identifies a query by its structure alone. A sound plan key
/// must also cover the source schema and the UDF registry a plan was
/// compiled against; when that fingerprint is added to the scope, it
/// has to be computed without allocating (hashing the context's
/// `(name, type)` pairs in place, for instance), or every hit pays for
/// it.
#[derive(Clone, Debug)]
pub struct PlanKey<S> {
    scope: S,
    query: QueryExpr,
}

impl<S> PlanKey<S> {
    /// An owned key for `query` under `scope` (clones the query).
    pub fn new(scope: S, query: &QueryExpr) -> PlanKey<S> {
        PlanKey {
            scope,
            query: query.clone(),
        }
    }
}

/// A key as a map sees it: an owned [`PlanKey`], or a borrowed
/// `(scope, &query)` probe, which looks an entry up without cloning
/// the query. Hash and equality live on `dyn KeyView`, so both forms
/// hash and compare alike.
pub trait KeyView<S> {
    /// The scope and the query.
    fn parts(&self) -> (&S, &QueryExpr);
}

impl<S> KeyView<S> for PlanKey<S> {
    fn parts(&self) -> (&S, &QueryExpr) {
        (&self.scope, &self.query)
    }
}

impl<S> KeyView<S> for (S, &QueryExpr) {
    fn parts(&self) -> (&S, &QueryExpr) {
        (&self.0, self.1)
    }
}

/// The borrowed form of `probe`, for `HashMap::get` on a map keyed by
/// [`PlanKey`].
pub fn probe<'a, S>(probe: &'a (S, &'a QueryExpr)) -> &'a (dyn KeyView<S> + 'a) {
    probe
}

impl<S: Hash> Hash for dyn KeyView<S> + '_ {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let (scope, query) = self.parts();
        let mut chunks = Chunked {
            inner: h,
            buf: [0; 64],
            len: 0,
        };
        scope.hash(&mut chunks);
        query.hash_bits(&mut chunks);
        chunks.flush();
    }
}

/// Gathers the many small writes of a structural hash (a tag, a name, a
/// literal per node) into 64-byte chunks, so the map's hasher runs over
/// a few contiguous blocks instead of paying its per-call overhead once
/// per field. Only written to: [`Hash`] impls never call `finish`.
struct Chunked<'a, H> {
    inner: &'a mut H,
    buf: [u8; 64],
    len: usize,
}

impl<H: Hasher> Chunked<'_, H> {
    fn flush(&mut self) {
        self.inner.write(&self.buf[..self.len]);
        self.len = 0;
    }
}

impl<H: Hasher> Hasher for Chunked<'_, H> {
    fn write(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > self.buf.len() {
            self.flush();
            if bytes.len() > self.buf.len() {
                return self.inner.write(bytes);
            }
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn finish(&self) -> u64 {
        unreachable!("a structural hash only writes")
    }
}

impl<S: Eq> PartialEq for dyn KeyView<S> + '_ {
    fn eq(&self, other: &Self) -> bool {
        let ((s1, q1), (s2, q2)) = (self.parts(), other.parts());
        s1 == s2 && q1.same_bits(q2)
    }
}

impl<S: Eq> Eq for dyn KeyView<S> + '_ {}

impl<'a, S: 'a> Borrow<dyn KeyView<S> + 'a> for PlanKey<S> {
    fn borrow(&self) -> &(dyn KeyView<S> + 'a) {
        self
    }
}

impl<S: Hash> Hash for PlanKey<S> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (self as &dyn KeyView<S>).hash(h);
    }
}

impl<S: Eq> PartialEq for PlanKey<S> {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn KeyView<S>) == (other as &dyn KeyView<S>)
    }
}

impl<S: Eq> Eq for PlanKey<S> {}

/// Structural hash and equality with `f64` compared by bits. Every
/// enum hashes its discriminant first and every sequence its length, so
/// distinct structures feed the hasher distinct streams.
trait Bits {
    fn hash_bits<H: Hasher>(&self, h: &mut H);
    fn same_bits(&self, other: &Self) -> bool;
}

impl Bits for f64 {
    fn hash_bits<H: Hasher>(&self, h: &mut H) {
        self.to_bits().hash(h);
    }
    fn same_bits(&self, other: &f64) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl<T: Bits> Bits for Box<T> {
    fn hash_bits<H: Hasher>(&self, h: &mut H) {
        (**self).hash_bits(h);
    }
    fn same_bits(&self, other: &Self) -> bool {
        (**self).same_bits(other)
    }
}

impl<T: Bits> Bits for Option<T> {
    fn hash_bits<H: Hasher>(&self, h: &mut H) {
        discriminant(self).hash(h);
        if let Some(x) = self {
            x.hash_bits(h);
        }
    }
    fn same_bits(&self, other: &Self) -> bool {
        match (self, other) {
            (Some(a), Some(b)) => a.same_bits(b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }
}

impl<T: Bits> Bits for [T] {
    fn hash_bits<H: Hasher>(&self, h: &mut H) {
        self.len().hash(h);
        for x in self {
            x.hash_bits(h);
        }
    }
    fn same_bits(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.same_bits(b))
    }
}

impl Bits for Value {
    fn hash_bits<H: Hasher>(&self, h: &mut H) {
        discriminant(self).hash(h);
        match self {
            Value::F64(x) => x.hash_bits(h),
            Value::I64(n) => n.hash(h),
            Value::Bool(b) => b.hash(h),
            Value::Row(r) => r[..].hash_bits(h),
            Value::Pair(p) => {
                p.0.hash_bits(h);
                p.1.hash_bits(h);
            }
            Value::Seq(s) => s[..].hash_bits(h),
        }
    }
    fn same_bits(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::F64(a), Value::F64(b)) => a.same_bits(b),
            (Value::I64(a), Value::I64(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Row(a), Value::Row(b)) => a[..].same_bits(&b[..]),
            (Value::Pair(a), Value::Pair(b)) => a.0.same_bits(&b.0) && a.1.same_bits(&b.1),
            (Value::Seq(a), Value::Seq(b)) => a[..].same_bits(&b[..]),
            _ => false,
        }
    }
}

impl Bits for Expr {
    fn hash_bits<H: Hasher>(&self, h: &mut H) {
        discriminant(self).hash(h);
        match self {
            Expr::Var(v) => v.hash(h),
            Expr::LitF64(x) => x.hash_bits(h),
            Expr::LitI64(n) => n.hash(h),
            Expr::LitBool(b) => b.hash(h),
            Expr::Bin(op, a, b) => {
                op.hash(h);
                a.hash_bits(h);
                b.hash_bits(h);
            }
            Expr::Un(op, a) => {
                op.hash(h);
                a.hash_bits(h);
            }
            Expr::Call(name, args) => {
                name.hash(h);
                args[..].hash_bits(h);
            }
            Expr::Field(e, i) => {
                e.hash_bits(h);
                i.hash(h);
            }
            Expr::RowIndex(a, b) | Expr::MkPair(a, b) => {
                a.hash_bits(h);
                b.hash_bits(h);
            }
            Expr::RowLen(e) => e.hash_bits(h),
            Expr::If(c, t, e) => {
                c.hash_bits(h);
                t.hash_bits(h);
                e.hash_bits(h);
            }
            Expr::Cast(ty, e) => {
                ty.hash(h);
                e.hash_bits(h);
            }
        }
    }
    fn same_bits(&self, other: &Expr) -> bool {
        match (self, other) {
            (Expr::LitF64(a), Expr::LitF64(b)) => a.same_bits(b),
            (Expr::Bin(o1, a1, b1), Expr::Bin(o2, a2, b2)) => {
                o1 == o2 && a1.same_bits(a2) && b1.same_bits(b2)
            }
            (Expr::Un(o1, a1), Expr::Un(o2, a2)) => o1 == o2 && a1.same_bits(a2),
            (Expr::Call(n1, a1), Expr::Call(n2, a2)) => n1 == n2 && a1[..].same_bits(&a2[..]),
            (Expr::Field(e1, i1), Expr::Field(e2, i2)) => i1 == i2 && e1.same_bits(e2),
            (Expr::RowIndex(a1, b1), Expr::RowIndex(a2, b2))
            | (Expr::MkPair(a1, b1), Expr::MkPair(a2, b2)) => a1.same_bits(a2) && b1.same_bits(b2),
            (Expr::RowLen(a), Expr::RowLen(b)) => a.same_bits(b),
            (Expr::If(c1, t1, e1), Expr::If(c2, t2, e2)) => {
                c1.same_bits(c2) && t1.same_bits(t2) && e1.same_bits(e2)
            }
            (Expr::Cast(t1, e1), Expr::Cast(t2, e2)) => t1 == t2 && e1.same_bits(e2),
            // The remaining leaves hold no `f64`: derived equality is exact.
            (Expr::Var(_) | Expr::LitI64(_) | Expr::LitBool(_), _) => self == other,
            _ => false,
        }
    }
}

impl Bits for SourceRef {
    fn hash_bits<H: Hasher>(&self, h: &mut H) {
        discriminant(self).hash(h);
        match self {
            SourceRef::Named(name) => name.hash(h),
            SourceRef::Range { start, count } => {
                start.hash(h);
                count.hash(h);
            }
            SourceRef::Repeat { value, count } => {
                value.hash_bits(h);
                count.hash(h);
            }
            SourceRef::Expr(e) => e.hash_bits(h),
        }
    }
    fn same_bits(&self, other: &SourceRef) -> bool {
        match (self, other) {
            (
                SourceRef::Repeat {
                    value: v1,
                    count: c1,
                },
                SourceRef::Repeat {
                    value: v2,
                    count: c2,
                },
            ) => c1 == c2 && v1.same_bits(v2),
            (SourceRef::Expr(a), SourceRef::Expr(b)) => a.same_bits(b),
            (SourceRef::Named(_) | SourceRef::Range { .. }, _) => self == other,
            _ => false,
        }
    }
}

impl Bits for QFn {
    fn hash_bits<H: Hasher>(&self, h: &mut H) {
        self.param.hash(h);
        discriminant(&self.body).hash(h);
        match &self.body {
            QBody::Expr(e) => e.hash_bits(h),
            QBody::Query(q) => q.hash_bits(h),
        }
    }
    fn same_bits(&self, other: &QFn) -> bool {
        self.param == other.param
            && match (&self.body, &other.body) {
                (QBody::Expr(a), QBody::Expr(b)) => a.same_bits(b),
                (QBody::Query(a), QBody::Query(b)) => a.same_bits(b),
                _ => false,
            }
    }
}

impl Bits for QFn2 {
    fn hash_bits<H: Hasher>(&self, h: &mut H) {
        self.param0.hash(h);
        self.param1.hash(h);
        self.body.hash_bits(h);
    }
    fn same_bits(&self, other: &QFn2) -> bool {
        self.param0 == other.param0
            && self.param1 == other.param1
            && self.body.same_bits(&other.body)
    }
}

impl Bits for GroupResult {
    fn hash_bits<H: Hasher>(&self, h: &mut H) {
        self.key_param.hash(h);
        self.group_param.hash(h);
        self.agg_query.hash_bits(h);
        self.agg_param.hash(h);
        self.result.hash_bits(h);
    }
    fn same_bits(&self, other: &GroupResult) -> bool {
        self.key_param == other.key_param
            && self.group_param == other.group_param
            && self.agg_param == other.agg_param
            && self.agg_query.same_bits(&other.agg_query)
            && self.result.same_bits(&other.result)
    }
}

impl Bits for QueryExpr {
    fn hash_bits<H: Hasher>(&self, h: &mut H) {
        use QueryExpr as Q;
        discriminant(self).hash(h);
        match self {
            Q::Source(s) => s.hash_bits(h),
            Q::Select { input, f: g }
            | Q::Where { input, p: g }
            | Q::SelectMany { input, f: g }
            | Q::TakeWhile { input, p: g }
            | Q::SkipWhile { input, p: g } => {
                input.hash_bits(h);
                g.hash_bits(h);
            }
            Q::Take { input, count } | Q::Skip { input, count } => {
                input.hash_bits(h);
                count.hash(h);
            }
            Q::GroupBy {
                input,
                key,
                elem,
                result,
            } => {
                input.hash_bits(h);
                key.hash_bits(h);
                elem.hash_bits(h);
                result.hash_bits(h);
            }
            Q::OrderBy {
                input,
                key,
                descending,
            } => {
                input.hash_bits(h);
                key.hash_bits(h);
                descending.hash(h);
            }
            Q::Distinct { input } | Q::ToVec { input } => input.hash_bits(h),
            Q::Concat { input, other } => {
                input.hash_bits(h);
                other.hash_bits(h);
            }
            Q::Join {
                input,
                inner,
                outer_key,
                inner_key,
                result,
            } => {
                input.hash_bits(h);
                inner.hash_bits(h);
                outer_key.hash_bits(h);
                inner_key.hash_bits(h);
                result.hash_bits(h);
            }
            Q::Aggregate {
                input,
                seed,
                func,
                combine,
            } => {
                input.hash_bits(h);
                seed.hash_bits(h);
                func.hash_bits(h);
                combine.hash_bits(h);
            }
            Q::Agg { input, op, f: g } => {
                input.hash_bits(h);
                op.hash(h);
                g.hash_bits(h);
            }
        }
    }
    fn same_bits(&self, other: &QueryExpr) -> bool {
        use QueryExpr as Q;
        match (self, other) {
            (Q::Source(a), Q::Source(b)) => a.same_bits(b),
            (Q::Select { input: i1, f: g1 }, Q::Select { input: i2, f: g2 })
            | (Q::Where { input: i1, p: g1 }, Q::Where { input: i2, p: g2 })
            | (Q::SelectMany { input: i1, f: g1 }, Q::SelectMany { input: i2, f: g2 })
            | (Q::TakeWhile { input: i1, p: g1 }, Q::TakeWhile { input: i2, p: g2 })
            | (Q::SkipWhile { input: i1, p: g1 }, Q::SkipWhile { input: i2, p: g2 }) => {
                g1.same_bits(g2) && i1.same_bits(i2)
            }
            (
                Q::Take {
                    input: i1,
                    count: c1,
                },
                Q::Take {
                    input: i2,
                    count: c2,
                },
            )
            | (
                Q::Skip {
                    input: i1,
                    count: c1,
                },
                Q::Skip {
                    input: i2,
                    count: c2,
                },
            ) => c1 == c2 && i1.same_bits(i2),
            (
                Q::GroupBy {
                    input: i1,
                    key: k1,
                    elem: e1,
                    result: r1,
                },
                Q::GroupBy {
                    input: i2,
                    key: k2,
                    elem: e2,
                    result: r2,
                },
            ) => k1.same_bits(k2) && e1.same_bits(e2) && r1.same_bits(r2) && i1.same_bits(i2),
            (
                Q::OrderBy {
                    input: i1,
                    key: k1,
                    descending: d1,
                },
                Q::OrderBy {
                    input: i2,
                    key: k2,
                    descending: d2,
                },
            ) => d1 == d2 && k1.same_bits(k2) && i1.same_bits(i2),
            (Q::Distinct { input: i1 }, Q::Distinct { input: i2 })
            | (Q::ToVec { input: i1 }, Q::ToVec { input: i2 }) => i1.same_bits(i2),
            (
                Q::Concat {
                    input: i1,
                    other: o1,
                },
                Q::Concat {
                    input: i2,
                    other: o2,
                },
            ) => o1.same_bits(o2) && i1.same_bits(i2),
            (
                Q::Join {
                    input: i1,
                    inner: n1,
                    outer_key: ok1,
                    inner_key: ik1,
                    result: r1,
                },
                Q::Join {
                    input: i2,
                    inner: n2,
                    outer_key: ok2,
                    inner_key: ik2,
                    result: r2,
                },
            ) => {
                ok1.same_bits(ok2)
                    && ik1.same_bits(ik2)
                    && r1.same_bits(r2)
                    && n1.same_bits(n2)
                    && i1.same_bits(i2)
            }
            (
                Q::Aggregate {
                    input: i1,
                    seed: s1,
                    func: f1,
                    combine: c1,
                },
                Q::Aggregate {
                    input: i2,
                    seed: s2,
                    func: f2,
                    combine: c2,
                },
            ) => s1.same_bits(s2) && f1.same_bits(f2) && c1.same_bits(c2) && i1.same_bits(i2),
            (
                Q::Agg {
                    input: i1,
                    op: o1,
                    f: g1,
                },
                Q::Agg {
                    input: i2,
                    op: o2,
                    f: g2,
                },
            ) => o1 == o2 && g1.same_bits(g2) && i1.same_bits(i2),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;
    use steno_query::Query;

    fn scaled(c: f64) -> QueryExpr {
        Query::source("xs")
            .select(Expr::var("x") * Expr::litf(c), "x")
            .sum()
            .build()
    }

    fn same(a: &QueryExpr, b: &QueryExpr) -> bool {
        (&((), a) as &dyn KeyView<()>) == (&((), b) as &dyn KeyView<()>)
    }

    #[test]
    fn f64_literals_compare_by_bits() {
        assert_eq!(scaled(0.0), scaled(-0.0), "derived equality conflates them");
        assert!(!same(&scaled(0.0), &scaled(-0.0)));
        assert_ne!(
            scaled(f64::NAN),
            scaled(f64::NAN),
            "derived equality never matches NaN"
        );
        assert!(same(&scaled(f64::NAN), &scaled(f64::NAN)));
        assert!(same(&scaled(1.5), &scaled(1.5)));
        assert!(!same(&scaled(1.5), &scaled(1.5 + f64::EPSILON)));
    }

    #[test]
    fn owned_and_borrowed_keys_hash_alike() {
        let state = RandomState::new();
        let q = scaled(2.0);
        let owned = PlanKey::new(7u32, &q);
        let borrowed = (7u32, &q);
        assert_eq!(state.hash_one(&owned), state.hash_one(probe(&borrowed)));
        assert!(owned == PlanKey::new(7u32, &q));
        assert!(owned != PlanKey::new(8u32, &q));
    }

    #[test]
    fn structure_beyond_the_printed_form_is_part_of_the_key() {
        // `Display` omits an `Aggregate`'s combiner, so the printed key
        // used to conflate these two queries.
        let (seed, body) = (Expr::liti(0), Expr::var("a") + Expr::var("x"));
        let ns = Query::source("ns");
        let plain = ns
            .clone()
            .aggregate(seed.clone(), "a", "x", body.clone())
            .build();
        let combine = QFn2::new("p", "q", Expr::var("p") + Expr::var("q"));
        let assoc = ns.aggregate_assoc(seed, "a", "x", body, combine).build();
        assert_eq!(plain.to_string(), assoc.to_string());
        assert!(!same(&plain, &assoc));
        assert!(same(&assoc, &assoc.clone()));
    }
}
