//! Runtime support types for `steno!`-generated code.
//!
//! The paper's generated C# calls into small utility classes — notably
//! the `Lookup<K, T>` multimap of Fig. 7(b). Code emitted by the
//! [`steno!`](crate::steno) macro does the same: grouping sinks become a
//! [`Lookup`] or (after the §4.3 specialization) a [`GroupAggTable`].
//! Keys include `f64`, which is not `Hash`, so hashing goes through the
//! [`SinkKey`] trait (bit-pattern identity, matching the VM's behaviour),
//! and `min`/`max` go through [`min_total`]/[`max_total`], which order
//! `f64` by `total_cmp` as the VM does.

use std::collections::HashMap;
use std::hash::Hash;

/// A value usable as a grouping key in generated code.
pub trait SinkKey: Clone {
    /// The hashable image of the key.
    type Hashed: Eq + Hash;

    /// Converts to the hashable image. For floats this is the bit
    /// pattern, so `-0.0` and `0.0` are distinct keys and `NaN` equals
    /// itself — the same convention as the Steno VM.
    fn hashed(&self) -> Self::Hashed;
}

impl SinkKey for f64 {
    type Hashed = u64;
    fn hashed(&self) -> u64 {
        self.to_bits()
    }
}

impl SinkKey for i64 {
    type Hashed = i64;
    fn hashed(&self) -> i64 {
        *self
    }
}

impl SinkKey for bool {
    type Hashed = bool;
    fn hashed(&self) -> bool {
        *self
    }
}

impl<A: SinkKey, B: SinkKey> SinkKey for (A, B) {
    type Hashed = (A::Hashed, B::Hashed);
    fn hashed(&self) -> Self::Hashed {
        (self.0.hashed(), self.1.hashed())
    }
}

/// An operand of generated `min`/`max`, ordered as the Steno VM and
/// interpreter order it: `f64` by `total_cmp`, so a NaN or a signed
/// zero gives the engine's answer rather than `f64::min`'s.
pub trait TotalOrder: Copy {
    /// Whether `self` orders strictly before `other`.
    fn total_lt(self, other: Self) -> bool;
}

impl TotalOrder for f64 {
    fn total_lt(self, other: f64) -> bool {
        self.total_cmp(&other).is_lt()
    }
}

impl TotalOrder for i64 {
    fn total_lt(self, other: i64) -> bool {
        self < other
    }
}

/// `a.min(b)` in [`TotalOrder`]: `b` only when it orders strictly first.
pub fn min_total<T: TotalOrder>(a: T, b: T) -> T {
    if b.total_lt(a) {
        b
    } else {
        a
    }
}

/// `a.max(b)` in [`TotalOrder`]: `b` only when it orders strictly last.
pub fn max_total<T: TotalOrder>(a: T, b: T) -> T {
    if a.total_lt(b) {
        b
    } else {
        a
    }
}

/// The key → bag multimap of Fig. 7(b), for generated `GroupBy` code.
///
/// Groups iterate in key first-appearance order, matching LINQ.
#[derive(Clone, Debug, Default)]
pub struct Lookup<K: SinkKey, V> {
    index: HashMap<K::Hashed, usize>,
    entries: Vec<(K, Vec<V>)>,
}

impl<K: SinkKey, V: Clone> Lookup<K, V> {
    /// Creates an empty lookup.
    pub fn new() -> Lookup<K, V> {
        Lookup {
            index: HashMap::new(),
            entries: Vec::new(),
        }
    }

    /// The `Put` of Fig. 7(b): adds and returns the updated collection,
    /// so generated code can write `sink = sink.put(key, elem);`.
    #[must_use = "put returns the updated collection"]
    pub fn put(mut self, key: K, value: V) -> Lookup<K, V> {
        self.add(key, value);
        self
    }

    /// Appends `value` to the bag for `key`.
    pub fn add(&mut self, key: K, value: V) {
        match self.index.get(&key.hashed()) {
            Some(&slot) => self.entries[slot].1.push(value),
            None => {
                self.index.insert(key.hashed(), self.entries.len());
                self.entries.push((key, vec![value]));
            }
        }
    }

    /// The number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(key, bag)` pairs by value, in first-appearance order —
    /// the shape the generated sink-iteration loop expects.
    pub fn iter(&self) -> impl Iterator<Item = (K, Vec<V>)> + '_ {
        self.entries.iter().map(|(k, vs)| (k.clone(), vs.clone()))
    }
}

/// The specialized per-key partial-aggregate table of §4.3, for generated
/// `GroupByAggregate` code: stores one accumulator per key instead of the
/// group's bag of values.
#[derive(Clone, Debug)]
pub struct GroupAggTable<K: SinkKey, A: Clone> {
    index: HashMap<K::Hashed, usize>,
    entries: Vec<(K, A)>,
    default: A,
}

impl<K: SinkKey, A: Clone> GroupAggTable<K, A> {
    /// Creates a table whose fresh keys start from `default` (the fold
    /// seed).
    pub fn new(default: A) -> GroupAggTable<K, A> {
        GroupAggTable {
            index: HashMap::new(),
            entries: Vec::new(),
            default,
        }
    }

    /// Folds one element into `key`'s accumulator:
    /// `acc[key] = f(acc[key])`.
    pub fn update(&mut self, key: K, f: impl FnOnce(A) -> A) {
        let slot = match self.index.get(&key.hashed()) {
            Some(&slot) => slot,
            None => {
                self.index.insert(key.hashed(), self.entries.len());
                self.entries.push((key, self.default.clone()));
                self.entries.len() - 1
            }
        };
        let acc = self.entries[slot].1.clone();
        self.entries[slot].1 = f(acc);
    }

    /// The number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(key, accumulator)` pairs by value, in first-appearance
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (K, A)> + '_ {
        self.entries.iter().map(|(k, a)| (k.clone(), a.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_matches_fig_7b_usage() {
        let mut sink = Lookup::new();
        for x in [1i64, 2, 3, 4, 5] {
            sink = sink.put(x % 2, x);
        }
        let groups: Vec<(i64, Vec<i64>)> = sink.iter().collect();
        assert_eq!(groups, vec![(1, vec![1, 3, 5]), (0, vec![2, 4])]);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn float_keys_hash_by_bits() {
        let mut sink: Lookup<f64, i64> = Lookup::new();
        sink.add(0.0, 1);
        sink.add(-0.0, 2);
        sink.add(f64::NAN, 3);
        sink.add(f64::NAN, 4);
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn group_agg_table_folds_per_key() {
        let mut t: GroupAggTable<i64, f64> = GroupAggTable::new(0.0);
        for (k, v) in [(0, 1.0), (1, 2.0), (0, 3.0)] {
            t.update(k, |acc| acc + v);
        }
        let rows: Vec<(i64, f64)> = t.iter().collect();
        assert_eq!(rows, vec![(0, 4.0), (1, 2.0)]);
        assert!(!t.is_empty());
    }

    #[test]
    fn pair_keys_compose() {
        let mut t: GroupAggTable<(i64, bool), i64> = GroupAggTable::new(0);
        t.update((1, true), |a| a + 1);
        t.update((1, false), |a| a + 1);
        t.update((1, true), |a| a + 1);
        assert_eq!(t.len(), 2);
    }
}
