//! Runtime sink state: the intermediate collections of §4.1.
//!
//! Sort, distinct and grouped-aggregate sinks whose keys and elements
//! are `f64`/`i64`/`bool` keep them in unboxed columns; a loop that reads
//! such a sink reads the columns as a batch source. Only sinks of rows,
//! pairs or sequences stay boxed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use steno_expr::value::ValueKey;
use steno_expr::Value;

use crate::batch::{BatchData, Lane, BATCH};
use crate::exec::{unbox_b, unbox_f, unbox_i, VmError};

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
}

/// The `i64` image of `x` whose signed order is `f64::total_cmp`'s:
/// `-NaN < -inf < … < -0.0 < +0.0 < … < +inf < +NaN`. It is a bijection
/// on bit patterns (its own inverse), so a sorted image decodes to the
/// exact input bits, NaN payloads and the sign of zero included.
#[inline]
pub fn order_f(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// The inverse of [`order_f`].
#[inline]
pub fn from_order_f(o: i64) -> f64 {
    f64::from_bits((o ^ (((o >> 63) as u64) >> 1) as i64) as u64)
}

/// `a.min(b)` under the interpreter's `total_cmp` order: `b` when it
/// orders strictly first, else `a`. Branch-free on the bit images, so
/// a NaN or a signed zero costs nothing extra.
#[inline]
pub fn min_total(a: f64, b: f64) -> f64 {
    if order_f(b) < order_f(a) {
        b
    } else {
        a
    }
}

/// `a.max(b)` under the interpreter's `total_cmp` order.
#[inline]
pub fn max_total(a: f64, b: f64) -> f64 {
    if order_f(b) > order_f(a) {
        b
    } else {
        a
    }
}

/// An unboxed column of one lane type.
#[derive(Clone, Debug, PartialEq)]
pub enum Col {
    /// f64 elements.
    F(Vec<f64>),
    /// i64 elements.
    I(Vec<i64>),
    /// Boolean elements.
    B(Vec<bool>),
}

impl Col {
    /// An empty column of `lane`.
    pub fn new(lane: Lane) -> Col {
        match lane {
            Lane::F => Col::F(Vec::new()),
            Lane::I => Col::I(Vec::new()),
            Lane::B => Col::B(Vec::new()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Col::F(v) => v.len(),
            Col::I(v) => v.len(),
            Col::B(v) => v.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`, boxed.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Col::F(v) => Value::F64(v[i]),
            Col::I(v) => Value::I64(v[i]),
            Col::B(v) => Value::Bool(v[i]),
        }
    }

    /// The column as a batch source.
    pub fn data(&self) -> BatchData<'_> {
        match self {
            Col::F(v) => BatchData::F(v),
            Col::I(v) => BatchData::I(v),
            Col::B(v) => BatchData::B(v),
        }
    }

    /// Decodes 64-bit payload images (see [`payload_bits`]) of `lane`.
    fn from_bits(lane: Lane, bits: impl Iterator<Item = u64>) -> Col {
        match lane {
            Lane::F => Col::F(bits.map(f64::from_bits).collect()),
            Lane::I => Col::I(bits.map(|b| b as i64).collect()),
            Lane::B => Col::B(bits.map(|b| b != 0).collect()),
        }
    }
}

/// Unboxes `v` into the 64-bit image of a `lane` element (`f64` bits,
/// `i64` as `u64`, `bool` as 0/1), as the scalar tier's
/// `VToF`/`VToI`/`VToB` unbox it.
fn payload_bits(lane: Lane, v: &Value) -> Result<u64, VmError> {
    Ok(match lane {
        Lane::F => unbox_f(v)?.to_bits(),
        Lane::I => unbox_i(v)? as u64,
        Lane::B => u64::from(unbox_b(v)?),
    })
}

/// The sort-order image of a `lane` key given as its payload image.
#[inline]
pub(crate) fn order_of_bits(lane: Lane, bits: u64) -> i64 {
    match lane {
        Lane::F => order_f(f64::from_bits(bits)),
        Lane::I | Lane::B => bits as i64,
    }
}

/// The columns of a typed sort sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortCols {
    /// Keys or elements are rows, pairs or sequences: a boxed buffer.
    Boxed,
    /// The element is its own key (`order_by(|x| x)`), one lane.
    Key(Lane),
    /// A key lane and a separate element lane.
    KeyVal(Lane, Lane),
}

/// How a sort sink is represented, fixed at compile time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortSpec {
    /// The representation, chosen by the key and element types.
    pub cols: SortCols,
    /// Sort direction.
    pub descending: bool,
    /// Keep only the first `limit` sorted elements: set when the sink's
    /// only reader is a vectorized loop whose index window ends there.
    pub limit: Option<usize>,
}

/// A typed sort sink: keys as `i64` order images (descending ones
/// complemented, so every sort is ascending), elements unboxed.
///
/// With a `limit` k it keeps only the k first `(key, push index)` pairs:
/// a push whose key does not order strictly before the current k-th is
/// dropped, and the buffer is cut back to k with `select_nth_unstable`
/// whenever it reaches its capacity (`max(2k, k + BATCH)`), so the work
/// stays linear at any k and never exceeds one full sort.
#[derive(Clone, Debug)]
pub struct SortSink {
    spec: SortSpec,
    /// Pending order images ([`SortCols::Key`] sinks).
    keys: Vec<i64>,
    /// Pending `(order image, push index, element image)`
    /// ([`SortCols::KeyVal`] sinks; the push index keeps the sort stable).
    items: Vec<(i64, u64, u64)>,
    pushed: u64,
    /// A push is kept only when its order image is below this.
    below: Option<i64>,
    /// The sorted elements, once sealed.
    sealed: Option<Col>,
}

impl SortSink {
    /// An empty sink for a typed spec.
    pub fn new(spec: SortSpec) -> SortSink {
        SortSink {
            spec,
            keys: Vec::new(),
            items: Vec::new(),
            pushed: 0,
            below: (spec.limit == Some(0)).then_some(i64::MIN),
            sealed: None,
        }
    }

    /// Whether elements are stored apart from their keys
    /// ([`SortCols::KeyVal`]); otherwise each element is its own key.
    pub fn keyed(&self) -> bool {
        matches!(self.spec.cols, SortCols::KeyVal(..))
    }

    fn key_lane(&self) -> Lane {
        match self.spec.cols {
            SortCols::Key(l) | SortCols::KeyVal(l, _) => l,
            SortCols::Boxed => Lane::F,
        }
    }

    /// Order image `o` adjusted for direction.
    #[inline]
    fn dir(&self, o: i64) -> i64 {
        if self.spec.descending {
            !o
        } else {
            o
        }
    }

    fn cap(&self) -> usize {
        self.spec
            .limit
            .map_or(usize::MAX, |k| k.saturating_mul(2).max(k.saturating_add(BATCH)))
    }

    /// Appends an element that is its own key, given its order image.
    #[inline]
    pub fn push_key(&mut self, o: i64) {
        let o = self.dir(o);
        if self.below.is_none_or(|b| o < b) {
            self.keys.push(o);
            if self.keys.len() >= self.cap() {
                self.compact();
            }
        }
    }

    /// Appends an element with a separate key, given the key's order
    /// image and the element's 64-bit image.
    #[inline]
    pub fn push_item(&mut self, o: i64, bits: u64) {
        let o = self.dir(o);
        let seq = self.pushed;
        self.pushed += 1;
        if self.below.is_none_or(|b| o < b) {
            self.items.push((o, seq, bits));
            if self.items.len() >= self.cap() {
                self.compact();
            }
        }
    }

    /// Appends a boxed `(key, element)` pair (the scalar tier's push).
    ///
    /// # Errors
    ///
    /// [`VmError::Shape`] when a value does not unbox into its lane.
    pub fn push_values(&mut self, key: &Value, val: &Value) -> Result<(), VmError> {
        let kb = payload_bits(self.key_lane(), key)?;
        let o = order_of_bits(self.key_lane(), kb);
        match self.spec.cols {
            SortCols::KeyVal(_, l) => {
                let vb = payload_bits(l, val)?;
                self.push_item(o, vb);
            }
            _ => self.push_key(o),
        }
        Ok(())
    }

    /// Cuts the buffer back to the `limit` first pushes and tightens the
    /// admission bound to the last of them.
    fn compact(&mut self) {
        let Some(k) = self.spec.limit.filter(|&k| k > 0) else {
            return;
        };
        if !self.keys.is_empty() {
            self.keys.select_nth_unstable(k - 1);
            self.keys.truncate(k);
            self.below = Some(self.keys[k - 1]);
        }
        if !self.items.is_empty() {
            self.items.select_nth_unstable_by_key(k - 1, |&(o, s, _)| (o, s));
            self.items.truncate(k);
            self.below = Some(self.items[k - 1].0);
        }
    }

    /// Sorts the buffer (a stable `total_cmp` order: equal keys keep
    /// push order) and keeps the first `limit` elements.
    pub fn seal(&mut self) {
        let k = self.spec.limit.unwrap_or(usize::MAX);
        let desc = self.spec.descending;
        let col = match self.spec.cols {
            SortCols::KeyVal(_, lane) => {
                let mut items = std::mem::take(&mut self.items);
                if items.len() > k {
                    if k > 0 {
                        items.select_nth_unstable_by_key(k - 1, |&(o, s, _)| (o, s));
                    }
                    items.truncate(k);
                }
                // (image, push index) pairs are unique: unstable is stable.
                items.sort_unstable_by_key(|&(o, s, _)| (o, s));
                Col::from_bits(lane, items.into_iter().map(|(_, _, b)| b))
            }
            cols => {
                let mut keys = std::mem::take(&mut self.keys);
                if keys.len() > k {
                    if k > 0 {
                        keys.select_nth_unstable(k - 1);
                    }
                    keys.truncate(k);
                }
                // Equal images are equal elements, so an unstable sort
                // cannot be told from a stable one.
                keys.sort_unstable();
                let undo = |o: i64| if desc { !o } else { o };
                match cols {
                    SortCols::Key(Lane::F) => {
                        Col::F(keys.into_iter().map(|o| from_order_f(undo(o))).collect())
                    }
                    SortCols::Key(Lane::I) => Col::I(keys.into_iter().map(undo).collect()),
                    _ => Col::B(keys.into_iter().map(|o| undo(o) != 0).collect()),
                }
            }
        };
        self.sealed = Some(col);
    }

    /// The sorted elements, once sealed.
    pub fn sealed(&self) -> Option<&Col> {
        self.sealed.as_ref()
    }
}

/// A distinct sink over one lane: first occurrences, by bit pattern (as
/// `Value::key` compares them: `-0.0` and `0.0` differ, NaNs by payload).
#[derive(Clone, Debug)]
pub struct DistinctSink {
    seen: HashSet<u64, FastBuild>,
    /// Unique elements in first-appearance order.
    pub col: Col,
}

impl DistinctSink {
    /// An empty sink over `lane`.
    pub fn new(lane: Lane) -> DistinctSink {
        DistinctSink {
            seen: HashSet::default(),
            col: Col::new(lane),
        }
    }

    /// Appends the element with 64-bit image `bits` (`f64` bits, `i64`
    /// as `u64`, `bool` as 0/1) unless seen.
    #[inline]
    pub fn push(&mut self, bits: u64) {
        if self.seen.insert(bits) {
            match &mut self.col {
                Col::F(v) => v.push(f64::from_bits(bits)),
                Col::I(v) => v.push(bits as i64),
                Col::B(v) => v.push(bits != 0),
            }
        }
    }

    /// Appends a boxed element (the scalar tier's push).
    ///
    /// # Errors
    ///
    /// [`VmError::Shape`] when `v` does not unbox into the lane.
    pub fn push_value(&mut self, v: &Value) -> Result<(), VmError> {
        let lane = match self.col {
            Col::F(_) => Lane::F,
            Col::I(_) => Lane::I,
            Col::B(_) => Lane::B,
        };
        self.push(payload_bits(lane, v)?);
        Ok(())
    }
}

/// The interval an `i64` group key was proven to lie in, and the proof:
/// the key expression of every update site with the types it was
/// analyzed under. The tape verifier re-runs the interval analysis on
/// each and checks the slot range covers it.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyRange {
    /// Least key.
    pub lo: i64,
    /// Greatest key.
    pub hi: i64,
    /// One per update site of the sink, in compilation order.
    pub proofs: Vec<KeyProof>,
}

/// The evidence for one update site's key interval.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyProof {
    /// The key expression.
    pub key: steno_expr::Expr,
    /// Name→type bindings in scope at the site (as [`crate::batch::DivProof`]).
    pub env: Vec<(String, steno_expr::Ty)>,
}

/// Most slots of a direct-indexed group table: one batch of keys.
pub const DIRECT_SLOTS: i64 = BATCH as i64;

const EMPTY: u32 = u32::MAX;

/// How a group table finds a key's entry.
#[derive(Clone, Debug)]
pub enum KeyIndex {
    /// FxHash on the key bits.
    Hash(HashMap<u64, u32, FastBuild>),
    /// `slots[key - lo]` is the entry of `key`, or empty; only for `i64`
    /// keys proven to lie in `lo..lo + slots.len()`.
    Direct {
        /// Least key.
        lo: i64,
        /// Entry per key offset.
        slots: Vec<u32>,
    },
}

/// A GroupByAggregate table (§4.3) with scalar keys and unboxed
/// accumulators: the key column and the accumulator column in
/// first-appearance order, found by a direct slot array when the key's
/// interval is small, by FxHash otherwise.
#[derive(Clone, Debug)]
pub struct GroupTable<A> {
    index: KeyIndex,
    /// Keys in first-appearance order.
    pub keys: Col,
    /// Accumulators, parallel to `keys`.
    pub accs: Vec<A>,
    /// The accumulator seed for new keys.
    pub default: A,
    /// Entry of the most recent load (for the paired store).
    pub last: usize,
}

fn out_of_range() -> VmError {
    VmError::Shape("group key outside its proven range".into())
}

/// A direct table's slot for `key` (`EMPTY` until the key appears).
#[inline]
fn direct_slot(lo: i64, slots: &mut [u32], key: ScalarKey) -> Result<&mut u32, VmError> {
    let ScalarKey::I(k) = key else {
        return Err(out_of_range());
    };
    slots
        .get_mut(k.wrapping_sub(lo) as u64 as usize)
        .ok_or_else(out_of_range)
}

/// Appends a new key with the seed accumulator: the one place a group
/// table grows, so first-appearance order is defined once for both
/// tiers.
#[inline]
fn append<A>(keys: &mut Col, accs: &mut Vec<A>, default: A, key: ScalarKey) -> Result<(), VmError> {
    match (keys, key) {
        (Col::F(v), ScalarKey::F(x)) => v.push(x),
        (Col::I(v), ScalarKey::I(x)) => v.push(x),
        (Col::B(v), ScalarKey::B(x)) => v.push(x),
        _ => return Err(VmError::Shape("group key of the wrong lane".into())),
    }
    accs.push(default);
    Ok(())
}

impl<A: Copy> GroupTable<A> {
    /// An empty table over `key`-lane keys, direct-indexed over
    /// `range` when one is given.
    pub fn new(key: Lane, range: Option<(i64, i64)>, default: A) -> GroupTable<A> {
        let index = match range {
            Some((lo, hi)) if key == Lane::I && hi >= lo && hi - lo < DIRECT_SLOTS => {
                KeyIndex::Direct {
                    lo,
                    slots: vec![EMPTY; (hi - lo + 1) as usize],
                }
            }
            _ => KeyIndex::Hash(HashMap::default()),
        };
        GroupTable {
            index,
            keys: Col::new(key),
            accs: Vec::new(),
            default,
            last: 0,
        }
    }

    /// The entry of `key`, inserted with the default when new.
    ///
    /// # Errors
    ///
    /// [`VmError::Shape`] for a key of the wrong lane, or outside a
    /// direct table's range (which the compiler's proof rules out).
    #[inline]
    pub fn slot(&mut self, key: ScalarKey) -> Result<usize, VmError> {
        let GroupTable { index, keys, accs, default, .. } = self;
        let next = accs.len() as u32;
        let e = match index {
            KeyIndex::Direct { lo, slots } => {
                let at = direct_slot(*lo, slots, key)?;
                if *at == EMPTY {
                    *at = next;
                }
                *at
            }
            KeyIndex::Hash(h) => *h.entry(key.bits()).or_insert(next),
        };
        if e == next {
            append(keys, accs, *default, key)?;
        }
        Ok(e as usize)
    }

    /// `acc[key(k)] = add(acc[key(k)], val(k))` for each lane `k` of
    /// `lanes`, in order: the batch tier's upsert. The index kind is
    /// resolved once per batch, not per lane as a [`GroupTable::slot`]
    /// call would, which more than doubles the cost of a direct table.
    ///
    /// # Errors
    ///
    /// As [`GroupTable::slot`].
    #[inline]
    pub fn add(
        &mut self,
        lanes: impl Iterator<Item = usize>,
        key: impl Fn(usize) -> ScalarKey,
        val: impl Fn(usize) -> A,
        add: impl Fn(A, A) -> A,
    ) -> Result<(), VmError> {
        let GroupTable { index, keys, accs, default, .. } = self;
        match index {
            KeyIndex::Direct { lo, slots } => {
                for k in lanes {
                    let x = key(k);
                    let at = direct_slot(*lo, slots, x)?;
                    if *at == EMPTY {
                        *at = accs.len() as u32;
                        append(keys, accs, *default, x)?;
                    }
                    let e = *at as usize;
                    accs[e] = add(accs[e], val(k));
                }
            }
            KeyIndex::Hash(h) => {
                for k in lanes {
                    let x = key(k);
                    let next = accs.len() as u32;
                    let e = *h.entry(x.bits()).or_insert(next);
                    if e == next {
                        append(keys, accs, *default, x)?;
                    }
                    let e = e as usize;
                    accs[e] = add(accs[e], val(k));
                }
            }
        }
        Ok(())
    }

    /// The `(key, accumulator)` pairs, boxed.
    fn freeze(&self, acc: impl Fn(A) -> Value) -> Vec<Value> {
        (0..self.accs.len())
            .map(|i| Value::pair(self.keys.value(i), acc(self.accs[i])))
            .collect()
    }
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
    /// an unboxed key column and f64 accumulators.
    GroupAggSF(GroupTable<f64>),
    /// As [`SinkRt::GroupAggSF`] with i64 accumulators.
    GroupAggSI(GroupTable<i64>),
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
    /// The boxed OrderBy buffer: `(key, value)` pairs sorted at seal.
    Sorted {
        /// Buffered pairs.
        items: Vec<(Value, Value)>,
        /// Sort direction.
        descending: bool,
    },
    /// The typed OrderBy buffer.
    SortedCols(SortSink),
    /// The boxed Distinct buffer: unique elements in first-appearance
    /// order.
    Distinct {
        /// Seen key images.
        seen: HashSet<ValueKey>,
        /// Unique elements.
        items: Vec<Value>,
    },
    /// The typed Distinct buffer.
    DistinctCols(DistinctSink),
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
            SinkRt::GroupAggSF(t) => t.freeze(Value::F64),
            SinkRt::GroupAggSI(t) => t.freeze(Value::I64),
            SinkRt::Sorted { items, .. } => items.iter().map(|(_, v)| v.clone()).collect(),
            SinkRt::SortedCols(s) => {
                s.sealed().map_or_else(Vec::new, |c| (0..c.len()).map(|i| c.value(i)).collect())
            }
            SinkRt::Distinct { items, .. } => items.clone(),
            SinkRt::DistinctCols(d) => (0..d.col.len()).map(|i| d.col.value(i)).collect(),
            SinkRt::Vec { items } => items.clone(),
            SinkRt::Empty => std::vec::Vec::new(),
        }
    }

    /// The sink's elements as batch columns: the element column, plus
    /// the accumulator column when elements are `(key, accumulator)`
    /// pairs. `None` for a boxed sink or an unsealed sort.
    pub fn columns(&self) -> Option<(BatchData<'_>, Option<BatchData<'_>>)> {
        match self {
            SinkRt::SortedCols(s) => s.sealed().map(|c| (c.data(), None)),
            SinkRt::DistinctCols(d) => Some((d.col.data(), None)),
            SinkRt::GroupAggSF(t) => Some((t.keys.data(), Some(BatchData::F(&t.accs)))),
            SinkRt::GroupAggSI(t) => Some((t.keys.data(), Some(BatchData::I(&t.accs)))),
            _ => None,
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
    fn order_images_sort_like_total_cmp_and_round_trip() {
        let xs = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        for &a in &xs {
            assert_eq!(from_order_f(order_f(a)).to_bits(), a.to_bits());
            for &b in &xs {
                assert_eq!(order_f(a).cmp(&order_f(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn top_k_keeps_the_first_pushes_at_every_bound() {
        let keys: Vec<i64> = (0..5000).map(|i| (i * 7919) % 613 - 300).collect();
        for k in [0, 1, 10, 600, 3000, 5000, 6000] {
            for descending in [false, true] {
                let spec = SortSpec {
                    cols: SortCols::KeyVal(Lane::I, Lane::I),
                    descending,
                    limit: Some(k),
                };
                let mut s = SortSink::new(spec);
                for (i, &key) in keys.iter().enumerate() {
                    s.push_item(key, i as u64);
                }
                s.seal();
                let mut want: Vec<(i64, i64)> =
                    keys.iter().enumerate().map(|(i, &key)| (key, i as i64)).collect();
                if descending {
                    want.sort_by_key(|p| std::cmp::Reverse(p.0));
                } else {
                    want.sort_by_key(|p| p.0);
                }
                want.truncate(k);
                let want: Vec<i64> = want.into_iter().map(|(_, i)| i).collect();
                assert_eq!(s.sealed(), Some(&Col::I(want)), "k {k}, descending {descending}");
            }
        }
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
