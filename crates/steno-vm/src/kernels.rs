//! Typed batch kernels and the slot banks they run over: the
//! data-parallel primitives of the vectorized tier ([`crate::batch`]).
//!
//! Each kernel processes one 1024-lane batch of a single unboxed type
//! (`f64`, `i64`, or `bool`). A kernel reads its inputs as whole batches
//! (`&[T; BATCH]`) and writes a distinct output batch, so every loop is
//! alias-free and branch-free where its operation allows.
//!
//! A [`Bank`] maps a slot to the batch it holds. A source column is not
//! copied into its slot: for a full batch, `Load` makes the slot *view*
//! the column in place until a tape op writes the slot (only a partial
//! final batch is copied). Every op resolves its inputs through one
//! helper, [`Cols::col`], so views and slots read the same way. A write
//! fills the bank's spare row and the slot then takes that row, so a
//! destination may share a slot with its own inputs (slot packing reuses
//! dead slots) without any kernel seeing aliased memory.
//!
//! Compute kernels run **dense** — every lane, selected or not — because
//! pure arithmetic on a dead lane is unobservable. Only three kinds of
//! operation consult the selection vector:
//!
//! * **trapping ops** (integer division/remainder), which divide and
//!   check each live lane in ascending element order in one pass, and
//!   fault on exactly the lanes the scalar reference semantics would
//!   evaluate;
//! * **folds** into accumulators, which must consume surviving lanes in
//!   ascending element order so floating-point results stay bit-identical
//!   to sequential execution; and
//! * **effects** (grouped-aggregate upserts, output pushes), for the same
//!   ordering reason.
//!
//! Selection vectors are built branch-free ([`filter_dense`],
//! [`filter_sel`]): each candidate lane is written unconditionally and
//! the output advances by the mask bit.

use crate::batch::BATCH;
use crate::exec::VmError;
use crate::sink::{from_order_f, order_f};

// ---------------------------------------------------------------------
// Slot banks.
// ---------------------------------------------------------------------

/// One unboxed slot bank of a batch run.
pub struct Bank<'a, T> {
    /// One batch per slot, then the spare (for a bank that is written),
    /// in one allocation.
    rows: Vec<[T; BATCH]>,
    /// Per slot, its row and the source batch it views in place.
    slots: Vec<Slot<'a, T>>,
    /// The row no slot holds: the next write fills it.
    spare: usize,
}

/// Where a slot's batch is.
struct Slot<'a, T> {
    row: usize,
    view: Option<&'a [T; BATCH]>,
}

impl<T> Clone for Slot<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Slot<'_, T> {}

/// The read side of a [`Bank`]: slot → batch, views resolved.
pub struct Cols<'b, T> {
    /// During a write, the rows below the spare row and the rows above
    /// it; otherwise every row, and none.
    lo: &'b [[T; BATCH]],
    hi: &'b [[T; BATCH]],
    slots: &'b [Slot<'b, T>],
}

impl<T> Clone for Cols<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Cols<'_, T> {}

impl<'b, T> Cols<'b, T> {
    /// The batch slot `s` holds: the source batch it views, or its own.
    #[inline]
    pub fn col(self, s: u8) -> &'b [T; BATCH] {
        let slot = self.slots[s as usize];
        match (slot.view, slot.row.checked_sub(self.lo.len())) {
            (Some(v), _) => v,
            (None, None) => &self.lo[slot.row],
            (None, Some(above)) => &self.hi[above - 1],
        }
    }
}

impl<'a, T: Copy> Bank<'a, T> {
    /// `n` slots, every lane `zero`, and a spare row when `written`:
    /// only a bank some op [`Bank::write`]s needs one.
    pub fn new(n: u8, zero: T, written: bool) -> Self {
        let n = n as usize;
        Bank {
            rows: vec![[zero; BATCH]; n + usize::from(written)],
            slots: (0..n).map(|row| Slot { row, view: None }).collect(),
            spare: n,
        }
    }

    /// The read side.
    #[inline]
    pub fn cols(&self) -> Cols<'_, T> {
        Cols {
            lo: &self.rows,
            hi: &[],
            slots: &self.slots,
        }
    }

    /// The batch slot `s` holds.
    #[inline]
    pub fn col(&self, s: u8) -> &[T; BATCH] {
        self.cols().col(s)
    }

    /// Fills every lane of slot `d` with `x` (a prologue broadcast).
    pub fn fill(&mut self, d: u8, x: T) {
        let slot = &mut self.slots[d as usize];
        slot.view = None;
        self.rows[slot.row].fill(x);
    }

    /// Loads `xs` (at most one batch) into slot `d`: a full batch is
    /// viewed in place, a partial one copied.
    #[inline]
    pub fn load(&mut self, d: u8, xs: &'a [T]) {
        let slot = &mut self.slots[d as usize];
        slot.view = <&[T; BATCH]>::try_from(xs).ok();
        if slot.view.is_none() {
            self.rows[slot.row][..xs.len()].copy_from_slice(xs);
        }
    }

    /// Writes slot `d`: `f` fills the spare row from the bank's current
    /// columns, then the slot takes that row and its old row becomes the
    /// spare, so `f` may read `d` itself. Lanes `f` leaves unwritten
    /// hold stale values (only dead lanes do).
    #[inline]
    pub fn write<R>(&mut self, d: u8, f: impl FnOnce(&mut [T; BATCH], Cols<'_, T>) -> R) -> R {
        let (lo, rest) = self.rows.split_at_mut(self.spare);
        let (out, hi) = rest.split_at_mut(1);
        let r = f(&mut out[0], Cols { lo, hi, slots: &self.slots });
        let slot = &mut self.slots[d as usize];
        std::mem::swap(&mut slot.row, &mut self.spare);
        slot.view = None;
        r
    }

    /// `d[k] = f(a[k])` for the first `len` lanes.
    #[inline]
    pub fn map1(&mut self, d: u8, a: u8, len: usize, f: impl Fn(T) -> T) {
        self.write(d, |o, c| map1(o, c.col(a), len, f));
    }

    /// `d[k] = f(a[k], b[k])` for the first `len` lanes.
    #[inline]
    pub fn map2(&mut self, d: u8, a: u8, b: u8, len: usize, f: impl Fn(T, T) -> T) {
        self.write(d, |o, c| map2(o, c.col(a), c.col(b), len, f));
    }

    /// `d[k] = f(a[k], b[k], c[k])` for the first `len` lanes (the fused
    /// multiply-add kernels).
    #[inline]
    pub fn map3(&mut self, d: u8, a: u8, b: u8, c: u8, len: usize, f: impl Fn(T, T, T) -> T) {
        self.write(d, |o, s| {
            let (a, b, c) = (&s.col(a)[..len], &s.col(b)[..len], &s.col(c)[..len]);
            for (k, o) in o[..len].iter_mut().enumerate() {
                *o = f(a[k], b[k], c[k]);
            }
        });
    }
}

// ---------------------------------------------------------------------
// Dense compute.
// ---------------------------------------------------------------------

/// `dst[k] = f(a[k])` for the first `len` lanes.
#[inline]
pub fn map1<T: Copy, U: Copy>(dst: &mut [U; BATCH], a: &[T; BATCH], len: usize, f: impl Fn(T) -> U) {
    for (o, &x) in dst[..len].iter_mut().zip(&a[..len]) {
        *o = f(x);
    }
}

/// `dst[k] = f(a[k], b[k])` for the first `len` lanes: arithmetic, and
/// comparisons into the boolean bank.
#[inline]
pub fn map2<T: Copy, U: Copy>(
    dst: &mut [U; BATCH],
    a: &[T; BATCH],
    b: &[T; BATCH],
    len: usize,
    f: impl Fn(T, T) -> U,
) {
    for ((o, &x), &y) in dst[..len].iter_mut().zip(&a[..len]).zip(&b[..len]) {
        *o = f(x, y);
    }
}

/// Lane-wise select: `dst[k] = if mask[k] { t[k] } else { e[k] }`.
#[inline]
pub fn select<T: Copy>(
    dst: &mut [T; BATCH],
    mask: &[bool; BATCH],
    t: &[T; BATCH],
    e: &[T; BATCH],
    len: usize,
) {
    let (mask, t, e) = (&mask[..len], &t[..len], &e[..len]);
    for (k, o) in dst[..len].iter_mut().enumerate() {
        *o = if mask[k] { t[k] } else { e[k] };
    }
}

// ---------------------------------------------------------------------
// Selection vectors.
// ---------------------------------------------------------------------

/// Builds a selection vector from a mask over a dense (identity) batch
/// into `sel`, returning its length. Branch-free: every lane is written,
/// and the output advances by the lane's mask bit.
#[inline]
pub fn filter_dense(sel: &mut [u32; BATCH], mask: &[bool; BATCH], len: usize) -> usize {
    let mut n = 0;
    for (k, &keep) in mask[..len].iter().enumerate() {
        sel[n] = k as u32;
        n += usize::from(keep);
    }
    n
}

/// Intersects the selection vector `sel[..n]` with a mask in place
/// (order preserved), returning the new length. Branch-free, as
/// [`filter_dense`].
#[inline]
pub fn filter_sel(sel: &mut [u32; BATCH], n: usize, mask: &[bool; BATCH]) -> usize {
    let mut m = 0;
    for i in 0..n {
        let k = sel[i];
        sel[m] = k;
        m += usize::from(mask[k as usize]);
    }
    m
}

/// The first lane of `mask[..len]` that is set. Scans 64-lane chunks
/// with a branch-free OR first, so a mask with no set lane costs one
/// vectorized pass.
#[inline]
pub fn first_set(mask: &[bool; BATCH], len: usize) -> Option<usize> {
    let mut base = 0;
    for chunk in mask[..len].chunks(64) {
        if chunk.iter().fold(false, |a, &b| a | b) {
            return chunk.iter().position(|&b| b).map(|k| base + k);
        }
        base += chunk.len();
    }
    None
}

// ---------------------------------------------------------------------
// Trapping integer division.
// ---------------------------------------------------------------------

/// `dst[k] = f(a[k], b[k])` per live lane, in ascending element order,
/// checking each divisor just before its lane divides — the batch-tier
/// analogue of the scalar interpreter's per-element zero check. Dead
/// lanes are neither checked nor written.
///
/// # Errors
///
/// [`VmError::DivisionByZero`] at the first live lane that divides by
/// zero, the same error (and the same observable outcome — all partial
/// state is discarded by the caller) the scalar loop would produce.
#[inline]
pub fn div_checked(
    dst: &mut [i64; BATCH],
    a: &[i64; BATCH],
    b: &[i64; BATCH],
    sel: Option<&[u32]>,
    len: usize,
    f: impl Fn(i64, i64) -> i64,
) -> Result<(), VmError> {
    let mut lane = |k: usize| {
        let y = b[k];
        if y == 0 {
            return Err(VmError::DivisionByZero);
        }
        dst[k] = f(a[k], y);
        Ok(())
    };
    match sel {
        None => (0..len).try_for_each(lane),
        Some(sel) => sel.iter().try_for_each(|&k| lane(k as usize)),
    }
}

// ---------------------------------------------------------------------
// Strict folds: surviving lanes in ascending element order, so results
// are bit-identical to sequential execution.
// ---------------------------------------------------------------------

/// Folds live lanes of a batch into a scalar accumulator, in order.
#[inline]
pub fn fold<T: Copy>(
    acc: &mut T,
    v: &[T; BATCH],
    sel: Option<&[u32]>,
    len: usize,
    f: impl Fn(T, T) -> T,
) {
    match sel {
        None => {
            for &x in &v[..len] {
                *acc = f(*acc, x);
            }
        }
        Some(sel) => {
            for &k in sel {
                *acc = f(*acc, v[k as usize]);
            }
        }
    }
}

/// `acc = f(acc, v[k])` over live lanes in `total_cmp` order images
/// ([`crate::sink::order_f`]): with `f` an `i64` min or max this is the
/// sequential [`crate::sink::min_total`]/[`crate::sink::max_total`] fold,
/// bit for bit, with a one-compare loop-carried step.
#[inline]
pub fn fold_order(
    acc: &mut f64,
    v: &[f64; BATCH],
    sel: Option<&[u32]>,
    len: usize,
    f: impl Fn(i64, i64) -> i64,
) {
    let mut a = order_f(*acc);
    match sel {
        None => {
            for &x in &v[..len] {
                a = f(a, order_f(x));
            }
        }
        Some(sel) => {
            for &k in sel {
                a = f(a, order_f(v[k as usize]));
            }
        }
    }
    *acc = from_order_f(a);
}

/// Folds `f(acc, a[k], b[k])` over live lanes in ascending order — the
/// fused multiply-reduce kernels, consuming two source columns without
/// materializing their product.
#[inline]
pub fn fold2<T: Copy>(
    acc: &mut T,
    a: &[T; BATCH],
    b: &[T; BATCH],
    sel: Option<&[u32]>,
    len: usize,
    f: impl Fn(T, T, T) -> T,
) {
    match sel {
        None => {
            for (&x, &y) in a[..len].iter().zip(&b[..len]) {
                *acc = f(*acc, x, y);
            }
        }
        Some(sel) => {
            for &k in sel {
                let k = k as usize;
                *acc = f(*acc, a[k], b[k]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Loop-invariant integer division.
//
// `DivIUnchecked`/`RemIUnchecked` by a literal or loop parameter: the
// divisor is fixed for the whole loop, so its strength reduction is
// computed once ([`Divisor::new`]) — a shift for powers of two, a
// signed magic multiply (Hacker's Delight §10-3) for any other divisor
// — instead of a hardware divide per lane. Every form is
// `wrapping_div`/`wrapping_rem` exactly, negative dividends and
// `i64::MIN / -1` included.
// ---------------------------------------------------------------------

/// A loop-invariant divisor, strength-reduced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Divisor {
    /// `1`.
    One,
    /// `-1`.
    NegOne,
    /// `±2^shift` (not `i64::MIN`); `neg` for a negative divisor.
    Pow2 {
        /// `log2 |m|`.
        shift: u32,
        /// Whether the divisor is negative.
        neg: bool,
    },
    /// `q = (mulhi(mul, x) + fix·x) >> shift`, plus one when negative.
    Magic {
        /// The divisor.
        m: i64,
        /// The magic multiplier.
        mul: i64,
        /// `1` when the multiplier wrapped negative for a positive
        /// divisor (add the dividend back), `-1` when it wrapped positive
        /// for a negative one (subtract it), else `0`.
        fix: i8,
        /// Post-shift.
        shift: u32,
    },
    /// Divided in hardware: `i64::MIN`, and zero (which no unchecked
    /// op receives: its interval proof excludes it).
    Hw(i64),
}

impl Divisor {
    /// The strength reduction of `m`.
    pub fn new(m: i64) -> Divisor {
        let p = m.unsigned_abs();
        match m {
            1 => Divisor::One,
            -1 => Divisor::NegOne,
            0 | i64::MIN => Divisor::Hw(m),
            _ if p.is_power_of_two() => Divisor::Pow2 {
                shift: p.trailing_zeros(),
                neg: m < 0,
            },
            _ => {
                let (mul, shift) = magic(m);
                let fix = i8::from(m > 0 && mul < 0) - i8::from(m < 0 && mul > 0);
                Divisor::Magic { m, mul, fix, shift }
            }
        }
    }
}

/// The signed magic multiplier and shift of `d`, `2 < |d| < 2^63`
/// and not a power of two (Hacker's Delight, Fig. 10-1, for 64 bits).
fn magic(d: i64) -> (i64, u32) {
    const TWO63: u64 = 1 << 63;
    let ad = d.unsigned_abs();
    let t = TWO63 + ((d as u64) >> 63);
    let anc = t - 1 - t % ad;
    let mut p = 63;
    let (mut q1, mut r1) = (TWO63 / anc, TWO63 % anc);
    let (mut q2, mut r2) = (TWO63 / ad, TWO63 % ad);
    loop {
        p += 1;
        q1 = q1.wrapping_mul(2);
        r1 = r1.wrapping_mul(2);
        if r1 >= anc {
            q1 = q1.wrapping_add(1);
            r1 = r1.wrapping_sub(anc);
        }
        q2 = q2.wrapping_mul(2);
        r2 = r2.wrapping_mul(2);
        if r2 >= ad {
            q2 = q2.wrapping_add(1);
            r2 = r2.wrapping_sub(ad);
        }
        let delta = ad - r2;
        if !(q1 < delta || (q1 == delta && r1 == 0)) {
            break;
        }
    }
    let mul = q2.wrapping_add(1) as i64;
    (if d < 0 { mul.wrapping_neg() } else { mul }, p - 64)
}

/// `x / 2^s` rounded toward zero.
#[inline(always)]
fn div_pow2(x: i64, s: u32) -> i64 {
    let bias = ((x >> 63) as u64 >> (64 - s)) as i64;
    (x + bias) >> s
}

/// `x / m` by the magic multiply of `m`; `FIX` is the divisor's `fix`,
/// a constant so each kernel loop carries only the operations its
/// divisor needs.
#[inline(always)]
fn div_magic<const FIX: i8>(x: i64, mul: i64, shift: u32) -> i64 {
    let hi = ((i128::from(mul) * i128::from(x)) >> 64) as i64;
    let hi = match FIX {
        1 => hi.wrapping_add(x),
        -1 => hi.wrapping_sub(x),
        _ => hi,
    };
    let q = hi >> shift;
    q + ((q as u64) >> 63) as i64
}

/// `dst[k] = a[k].wrapping_div(m)`.
#[inline(never)]
pub fn div_invariant(dst: &mut [i64; BATCH], a: &[i64; BATCH], m: Divisor, len: usize) {
    match m {
        Divisor::One => map1(dst, a, len, |x| x),
        Divisor::NegOne => map1(dst, a, len, |x: i64| x.wrapping_neg()),
        Divisor::Pow2 { shift, neg: false } => map1(dst, a, len, |x| div_pow2(x, shift)),
        Divisor::Pow2 { shift, neg: true } => {
            map1(dst, a, len, |x| div_pow2(x, shift).wrapping_neg());
        }
        Divisor::Magic { mul, fix, shift, .. } => match fix {
            1 => map1(dst, a, len, |x| div_magic::<1>(x, mul, shift)),
            -1 => map1(dst, a, len, |x| div_magic::<-1>(x, mul, shift)),
            _ => map1(dst, a, len, |x| div_magic::<0>(x, mul, shift)),
        },
        Divisor::Hw(m) => map1(dst, a, len, |x: i64| x.wrapping_div(m)),
    }
}

/// `dst[k] = a[k].wrapping_rem(m)`.
#[inline(never)]
pub fn rem_invariant(dst: &mut [i64; BATCH], a: &[i64; BATCH], m: Divisor, len: usize) {
    match m {
        Divisor::One | Divisor::NegOne => map1(dst, a, len, |_| 0),
        // The remainder takes the dividend's sign, whatever the
        // divisor's.
        Divisor::Pow2 { shift, .. } => {
            map1(dst, a, len, |x| x - (div_pow2(x, shift) << shift));
        }
        Divisor::Magic { m, mul, fix, shift } => {
            let rem = |x: i64, q: i64| x.wrapping_sub(q.wrapping_mul(m));
            match fix {
                1 => map1(dst, a, len, |x| rem(x, div_magic::<1>(x, mul, shift))),
                -1 => map1(dst, a, len, |x| rem(x, div_magic::<-1>(x, mul, shift))),
                _ => map1(dst, a, len, |x| rem(x, div_magic::<0>(x, mul, shift))),
            }
        }
        Divisor::Hw(m) => map1(dst, a, len, |x: i64| x.wrapping_rem(m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_divisors_agree_with_hardware_division() {
        // SplitMix64: dividends and divisors of every magnitude.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as i64
        };
        let mut xs = vec![i64::MIN, i64::MIN + 1, -1025, -17, -16, -15, -1, 0, 1, 15, 16, 17];
        xs.extend([1023, 1 << 40, -(1 << 40) - 3, i64::MAX - 1, i64::MAX]);
        while xs.len() < BATCH {
            let x = next();
            xs.extend([x, x >> 20, x >> 50]);
        }
        xs.truncate(BATCH);
        let mut ms: Vec<i64> = (-1100..=1100).filter(|&m| m != 0).collect();
        ms.extend([1 << 40, -(1 << 40), i64::MAX, i64::MIN, i64::MIN + 1, i64::MAX / 3]);
        ms.extend((0..300).map(|_| next() >> (next() as u64 % 63)).filter(|&m| m != 0));
        let mut fixes = std::collections::BTreeSet::new();
        for &m in &ms {
            let dv = Divisor::new(m);
            if let Divisor::Magic { fix, .. } = dv {
                fixes.insert(fix);
            }
            let mut a = [0i64; BATCH];
            a[..xs.len()].copy_from_slice(&xs);
            let mut out = [0i64; BATCH];
            rem_invariant(&mut out, &a, dv, xs.len());
            for (k, &x) in xs.iter().enumerate() {
                assert_eq!(out[k], x.wrapping_rem(m), "{x} % {m}");
            }
            div_invariant(&mut out, &a, dv, xs.len());
            for (k, &x) in xs.iter().enumerate() {
                assert_eq!(out[k], x.wrapping_div(m), "{x} / {m}");
            }
        }
        assert_eq!(fixes.into_iter().collect::<Vec<_>>(), [-1, 0, 1], "every magic form ran");
    }

    fn batch_from(xs: &[f64]) -> [f64; BATCH] {
        let mut b = [0.0; BATCH];
        b[..xs.len()].copy_from_slice(xs);
        b
    }

    #[test]
    fn fold_is_strict_and_ordered() {
        let v = batch_from(&[1e16, 1.0, -1e16, 1.0]);
        let mut acc = 0.0;
        fold(&mut acc, &v, None, 4, |a, x| a + x);
        // Sequential: ((1e16 + 1) - 1e16) + 1 — order-sensitive.
        let mut expected = 0.0f64;
        for x in [1e16, 1.0, -1e16, 1.0] {
            expected += x;
        }
        assert_eq!(acc.to_bits(), expected.to_bits());
    }

    #[test]
    fn selected_fold_skips_dead_lanes() {
        let v = batch_from(&[1.0, 2.0, 4.0, 8.0]);
        let mut acc = 0.0;
        fold(&mut acc, &v, Some(&[0, 2]), 4, |a, x| a + x);
        assert_eq!(acc, 5.0);
    }

    #[test]
    fn checked_division_traps_on_live_lanes_only() {
        let a = [7i64; BATCH];
        let mut b = [1i64; BATCH];
        b[1] = 0;
        let mut out = [0i64; BATCH];
        let div = |x: i64, y: i64| x.wrapping_div(y);
        assert_eq!(div_checked(&mut out, &a, &b, None, 4, div), Err(VmError::DivisionByZero));
        // The lane before the trap divided; no later lane did.
        assert_eq!(out[..3], [7, 0, 0]);
        // A zero divisor on a dead lane neither traps nor is written.
        out = [-1; BATCH];
        assert_eq!(div_checked(&mut out, &a, &b, Some(&[0, 2, 3]), 4, div), Ok(()));
        assert_eq!(out[..4], [7, -1, 7, 7]);
        // On the first and on the last live lane it traps.
        assert!(div_checked(&mut out, &a, &b, Some(&[1, 2]), 4, div).is_err());
        assert!(div_checked(&mut out, &a, &b, Some(&[0, 1]), 4, div).is_err());
        // Past `len` nothing is read.
        assert_eq!(div_checked(&mut out, &a, &b, None, 1, div), Ok(()));
    }

    /// The reference selection: the set lanes of `mask[..len]`, in order.
    fn set_lanes(mask: &[bool; BATCH], len: usize) -> Vec<u32> {
        (0..len as u32).filter(|&k| mask[k as usize]).collect()
    }

    #[test]
    fn filters_are_exact_on_uniform_and_alternating_masks() {
        let alternating: [bool; BATCH] = std::array::from_fn(|k| k % 2 == 0);
        let masks = [[true; BATCH], [false; BATCH], alternating];
        for len in [0, 1, 2, 3, 63, 64, 65, 511, BATCH - 1, BATCH] {
            for (i, mask) in masks.iter().enumerate() {
                let mut sel = [u32::MAX; BATCH];
                let n = filter_dense(&mut sel, mask, len);
                assert_eq!(sel[..n], set_lanes(mask, len), "dense, mask {i}, len {len}");
                // Intersecting with each mask, from the dense result.
                for (j, mask2) in masks.iter().enumerate() {
                    let mut sel2 = sel;
                    let m = filter_sel(&mut sel2, n, mask2);
                    let want: Vec<u32> =
                        sel[..n].iter().copied().filter(|&k| mask2[k as usize]).collect();
                    assert_eq!(sel2[..m], want, "sel, masks {i}·{j}, len {len}");
                }
            }
        }
    }

    #[test]
    fn filters_compose_in_order() {
        let mut mask = [false; BATCH];
        mask[0] = true;
        mask[2] = true;
        mask[3] = true;
        let mut sel = [0u32; BATCH];
        let n = filter_dense(&mut sel, &mask, 5);
        assert_eq!(sel[..n], [0, 2, 3]);
        let mut mask2 = [true; BATCH];
        mask2[2] = false;
        let n = filter_sel(&mut sel, n, &mask2);
        assert_eq!(sel[..n], [0, 3]);
    }

    #[test]
    fn bank_views_full_batches_until_written() {
        let xs: Vec<i64> = (0..BATCH as i64 + 3).collect();
        let mut bank = Bank::new(2, 0i64, true);
        // A full batch is read in place, at the source's own address.
        bank.load(0, &xs[..BATCH]);
        assert!(std::ptr::eq(bank.col(0).as_ptr(), xs.as_ptr()));
        // A write over the loaded slot reads the view, then replaces it.
        bank.map2(0, 0, 0, BATCH, |x, y| x * y - x);
        assert!(!std::ptr::eq(bank.col(0).as_ptr(), xs.as_ptr()));
        assert!(bank.col(0).iter().zip(&xs).all(|(&v, &x)| v == x * x - x));
        // A partial batch is copied.
        bank.load(1, &xs[BATCH..]);
        assert_eq!(bank.col(1)[..3], xs[BATCH..]);
        assert!(!std::ptr::eq(bank.col(1).as_ptr(), xs[BATCH..].as_ptr()));
        // A broadcast ends a view.
        bank.load(1, &xs[..BATCH]);
        bank.fill(1, 9);
        assert_eq!(bank.col(1), &[9; BATCH]);
    }
}
