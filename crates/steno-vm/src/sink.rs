//! Runtime sink state: the intermediate collections of §4.1.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use steno_expr::value::ValueKey;
use steno_expr::Value;

/// An FxHash-style multiplicative hasher for sink indexes. Grouping pays
/// one hash per element, so the default SipHash would dominate the very
/// overhead Steno removes; this is the type-specialized hashing a real
/// code generator would emit. (No cryptographic properties — sinks hash
/// trusted query data.)
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Build-hasher for sink indexes.
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A scalar grouping key, kept unboxed in the specialized table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScalarKey {
    /// An f64 key (bit-pattern identity).
    F(f64),
    /// An i64 key.
    I(i64),
    /// A boolean key.
    B(bool),
}

impl ScalarKey {
    /// The 64-bit index image of the key.
    #[inline]
    pub fn bits(self) -> u64 {
        match self {
            ScalarKey::F(x) => x.to_bits(),
            ScalarKey::I(x) => x as u64,
            ScalarKey::B(b) => u64::from(b),
        }
    }

    /// Boxes the key.
    pub fn to_value(self) -> Value {
        match self {
            ScalarKey::F(x) => Value::F64(x),
            ScalarKey::I(x) => Value::I64(x),
            ScalarKey::B(b) => Value::Bool(b),
        }
    }
}

/// Finds (or inserts, seeded with `default`) the entry slot for `key` in
/// a scalar-key f64 grouped-aggregate table. Shared by the vectorized
/// tier and the scalar interpreter so first-appearance order
/// is defined in exactly one place.
#[inline]
pub fn upsert_sf(
    index: &mut HashMap<u64, usize, FastBuild>,
    entries: &mut Vec<(ScalarKey, f64)>,
    default: f64,
    key: ScalarKey,
) -> usize {
    *index.entry(key.bits()).or_insert_with(|| {
        entries.push((key, default));
        entries.len() - 1
    })
}

/// As [`upsert_sf`] for i64 accumulators.
#[inline]
pub fn upsert_si(
    index: &mut HashMap<u64, usize, FastBuild>,
    entries: &mut Vec<(ScalarKey, i64)>,
    default: i64,
    key: ScalarKey,
) -> usize {
    *index.entry(key.bits()).or_insert_with(|| {
        entries.push((key, default));
        entries.len() - 1
    })
}

/// One sink's runtime state.
#[derive(Clone, Debug)]
pub enum SinkRt {
    /// The `Lookup` multimap of Fig. 7(b): key → bag, in first-appearance
    /// order. Iterating yields `(key, seq)` pairs.
    Group {
        /// key image → slot.
        index: HashMap<ValueKey, usize>,
        /// `(key, values)` in first-appearance order.
        entries: Vec<(Value, Vec<Value>)>,
    },
    /// GroupByAggregate with boxed accumulators (§4.3).
    GroupAggV {
        /// key image → slot.
        index: HashMap<ValueKey, usize>,
        /// `(key, accumulator)` in first-appearance order.
        entries: Vec<(Value, Value)>,
        /// The accumulator seed for new keys.
        default: Value,
        /// Slot of the most recent load (for the paired store).
        last: usize,
    },
    /// GroupByAggregate fast path with unboxed f64 accumulators.
    GroupAggF {
        /// key image → slot.
        index: HashMap<ValueKey, usize>,
        /// `(key, accumulator)` in first-appearance order.
        entries: Vec<(Value, f64)>,
        /// The accumulator seed for new keys.
        default: f64,
        /// Slot of the most recent load.
        last: usize,
    },
    /// Fully scalar GroupByAggregate (§4.3 + §4.2 type specialization):
    /// unboxed scalar keys, unboxed f64 accumulators, fast hashing.
    GroupAggSF {
        /// key bits → slot.
        index: HashMap<u64, usize, FastBuild>,
        /// `(key, accumulator)` in first-appearance order.
        entries: Vec<(ScalarKey, f64)>,
        /// The accumulator seed for new keys.
        default: f64,
        /// Slot of the most recent load.
        last: usize,
    },
    /// As [`SinkRt::GroupAggSF`] with i64 accumulators.
    GroupAggSI {
        /// key bits → slot.
        index: HashMap<u64, usize, FastBuild>,
        /// `(key, accumulator)` in first-appearance order.
        entries: Vec<(ScalarKey, i64)>,
        /// The accumulator seed for new keys.
        default: i64,
        /// Slot of the most recent load.
        last: usize,
    },
    /// GroupByAggregate fast path with unboxed i64 accumulators.
    GroupAggI {
        /// key image → slot.
        index: HashMap<ValueKey, usize>,
        /// `(key, accumulator)` in first-appearance order.
        entries: Vec<(Value, i64)>,
        /// The accumulator seed for new keys.
        default: i64,
        /// Slot of the most recent load.
        last: usize,
    },
    /// The OrderBy buffer: `(key, value)` pairs sorted at seal.
    Sorted {
        /// Buffered pairs.
        items: Vec<(Value, Value)>,
        /// Sort direction.
        descending: bool,
    },
    /// The Distinct buffer: unique elements in first-appearance order.
    Distinct {
        /// Seen key images.
        seen: std::collections::HashSet<ValueKey>,
        /// Unique elements.
        items: Vec<Value>,
    },
    /// A plain materialization buffer.
    Vec {
        /// Elements.
        items: Vec<Value>,
    },
    /// Not yet initialized.
    Empty,
}

impl SinkRt {
    /// Materializes the sink contents for downstream iteration.
    pub fn freeze(&self) -> Vec<Value> {
        match self {
            SinkRt::Group { entries, .. } => entries
                .iter()
                .map(|(k, vs)| Value::pair(k.clone(), Value::seq(vs.clone())))
                .collect(),
            SinkRt::GroupAggV { entries, .. } => entries
                .iter()
                .map(|(k, a)| Value::pair(k.clone(), a.clone()))
                .collect(),
            SinkRt::GroupAggF { entries, .. } => entries
                .iter()
                .map(|(k, a)| Value::pair(k.clone(), Value::F64(*a)))
                .collect(),
            SinkRt::GroupAggI { entries, .. } => entries
                .iter()
                .map(|(k, a)| Value::pair(k.clone(), Value::I64(*a)))
                .collect(),
            SinkRt::GroupAggSF { entries, .. } => entries
                .iter()
                .map(|(k, a)| Value::pair(k.to_value(), Value::F64(*a)))
                .collect(),
            SinkRt::GroupAggSI { entries, .. } => entries
                .iter()
                .map(|(k, a)| Value::pair(k.to_value(), Value::I64(*a)))
                .collect(),
            SinkRt::Sorted { items, .. } => items.iter().map(|(_, v)| v.clone()).collect(),
            SinkRt::Distinct { items, .. } => items.clone(),
            SinkRt::Vec { items } => items.clone(),
            SinkRt::Empty => std::vec::Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_freeze_yields_key_seq_pairs() {
        let mut index = HashMap::new();
        index.insert(Value::I64(1).key(), 0);
        let s = SinkRt::Group {
            index,
            entries: vec![(Value::I64(1), vec![Value::F64(2.0), Value::F64(3.0)])],
        };
        let frozen = s.freeze();
        assert_eq!(
            frozen,
            vec![Value::pair(
                Value::I64(1),
                Value::seq(vec![Value::F64(2.0), Value::F64(3.0)])
            )]
        );
    }

    #[test]
    fn scalar_agg_freeze_boxes_accumulators() {
        let s = SinkRt::GroupAggF {
            index: HashMap::new(),
            entries: vec![(Value::I64(0), 1.5)],
            default: 0.0,
            last: 0,
        };
        assert_eq!(s.freeze(), vec![Value::pair(Value::I64(0), Value::F64(1.5))]);
    }
}
