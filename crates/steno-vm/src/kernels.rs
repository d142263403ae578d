//! Typed batch kernels: the data-parallel primitives of the vectorized
//! tier ([`crate::batch`]).
//!
//! Each kernel processes one 1024-lane batch of a single unboxed type
//! (`f64`, `i64`, or `bool`). Compute kernels run **dense** — every lane,
//! selected or not — because pure arithmetic on a dead lane is
//! unobservable and branch-free loops are what the auto-vectorizer eats.
//! Only three kinds of operation consult the selection vector:
//!
//! * **trapping ops** (integer division/remainder), which must fault on
//!   exactly the lanes the scalar reference semantics would evaluate;
//! * **folds** into accumulators, which must consume surviving lanes in
//!   ascending element order so floating-point results stay bit-identical
//!   to sequential execution; and
//! * **effects** (grouped-aggregate upserts, output pushes), for the same
//!   ordering reason.

use crate::batch::BATCH;
use crate::exec::VmError;
use crate::sink::{from_order_f, order_f};

/// Fills every lane of a batch with one value (constant broadcast).
#[inline]
pub fn splat<T: Copy>(dst: &mut [T; BATCH], x: T) {
    for d in dst.iter_mut() {
        *d = x;
    }
}

/// `dst[k] = f(a[k])` for the first `len` lanes.
#[inline]
pub fn map1<T: Copy>(dst: &mut [T; BATCH], a: &[T; BATCH], len: usize, f: impl Fn(T) -> T) {
    for k in 0..len {
        dst[k] = f(a[k]);
    }
}

/// `dst[k] = f(a[k], b[k])` for the first `len` lanes.
#[inline]
pub fn map2<T: Copy>(
    dst: &mut [T; BATCH],
    a: &[T; BATCH],
    b: &[T; BATCH],
    len: usize,
    f: impl Fn(T, T) -> T,
) {
    for k in 0..len {
        dst[k] = f(a[k], b[k]);
    }
}

/// Comparison into the boolean bank: `dst[k] = f(a[k], b[k])`.
#[inline]
pub fn cmp2<T: Copy>(
    dst: &mut [bool; BATCH],
    a: &[T; BATCH],
    b: &[T; BATCH],
    len: usize,
    f: impl Fn(T, T) -> bool,
) {
    for k in 0..len {
        dst[k] = f(a[k], b[k]);
    }
}

/// Type conversion between banks: `dst[k] = f(a[k])`.
#[inline]
pub fn convert<A: Copy, B: Copy>(
    dst: &mut [B; BATCH],
    a: &[A; BATCH],
    len: usize,
    f: impl Fn(A) -> B,
) {
    for k in 0..len {
        dst[k] = f(a[k]);
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
    for k in 0..len {
        dst[k] = if mask[k] { t[k] } else { e[k] };
    }
}

// ---------------------------------------------------------------------
// Selection vectors.
// ---------------------------------------------------------------------

/// Builds a selection vector from a mask over a dense (identity) batch.
#[inline]
pub fn filter_dense(sel: &mut Vec<u32>, mask: &[bool; BATCH], len: usize) {
    sel.clear();
    for (k, keep) in mask[..len].iter().enumerate() {
        if *keep {
            sel.push(k as u32);
        }
    }
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

/// Intersects an existing selection vector with a mask (order preserved).
#[inline]
pub fn filter_sel(sel: &mut Vec<u32>, mask: &[bool; BATCH]) {
    sel.retain(|&k| mask[k as usize]);
}

// ---------------------------------------------------------------------
// Trapping integer division.
// ---------------------------------------------------------------------

/// Checks every live divisor lane, in ascending element order, before the
/// division runs — the batch-tier analogue of the scalar interpreter's
/// per-element zero check.
///
/// # Errors
///
/// [`VmError::DivisionByZero`] when any live lane divides by zero, the
/// same error (and the same observable outcome — all partial state is
/// discarded by the caller) the scalar loop would produce.
#[inline]
pub fn check_divisors(
    b: &[i64; BATCH],
    sel: Option<&[u32]>,
    len: usize,
) -> Result<(), VmError> {
    match sel {
        None => {
            for &d in &b[..len] {
                if d == 0 {
                    return Err(VmError::DivisionByZero);
                }
            }
        }
        Some(sel) => {
            for &k in sel {
                if b[k as usize] == 0 {
                    return Err(VmError::DivisionByZero);
                }
            }
        }
    }
    Ok(())
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

// ---------------------------------------------------------------------
// Aliasing-safe bank kernels.
//
// Slot packing (crate::lifetimes::pack_batch_slots) reuses dead slots,
// so a destination may coincide with any of its sources. These `_any`
// variants take the whole bank plus slot indices and pick a borrow
// strategy per aliasing pattern: disjoint slots split into the tight
// kernels above; aliased slots read every lane before writing it, which
// is exact for lane-wise ops.
// ---------------------------------------------------------------------

/// Two disjoint mutable batches of one bank (`i != j`).
#[inline]
fn pair_mut<T>(bank: &mut [[T; BATCH]], i: usize, j: usize) -> (&mut [T; BATCH], &mut [T; BATCH]) {
    debug_assert_ne!(i, j);
    if i < j {
        let (l, r) = bank.split_at_mut(j);
        (&mut l[i], &mut r[0])
    } else {
        let (l, r) = bank.split_at_mut(i);
        (&mut r[0], &mut l[j])
    }
}

/// `bank[d][k] = f(bank[a][k])`, destination free to alias the source.
#[inline]
pub fn map1_any<T: Copy>(
    bank: &mut [[T; BATCH]],
    d: u8,
    a: u8,
    len: usize,
    f: impl Fn(T) -> T,
) {
    let (d, a) = (d as usize, a as usize);
    if d == a {
        let arr = &mut bank[d];
        for x in arr[..len].iter_mut() {
            *x = f(*x);
        }
    } else {
        let (dst, src) = pair_mut(bank, d, a);
        map1(dst, src, len, f);
    }
}

/// `bank[d][k] = f(bank[a][k], bank[b][k])` under any aliasing pattern.
#[inline]
pub fn map2_any<T: Copy>(
    bank: &mut [[T; BATCH]],
    d: u8,
    a: u8,
    b: u8,
    len: usize,
    f: impl Fn(T, T) -> T,
) {
    let (d, a, b) = (d as usize, a as usize, b as usize);
    if d != a && d != b {
        if a == b {
            let (dst, src) = pair_mut(bank, d, a);
            for k in 0..len {
                dst[k] = f(src[k], src[k]);
            }
        } else {
            let (left, right) = bank.split_at_mut(d);
            let Some((dst, tail)) = right.split_first_mut() else {
                return;
            };
            let src = |i: usize| if i < d { &left[i] } else { &tail[i - d - 1] };
            map2(dst, src(a), src(b), len, f);
        }
    } else if d == a && d == b {
        let arr = &mut bank[d];
        for x in arr[..len].iter_mut() {
            *x = f(*x, *x);
        }
    } else if d == a {
        let (dst, other) = pair_mut(bank, d, b);
        for k in 0..len {
            dst[k] = f(dst[k], other[k]);
        }
    } else {
        let (dst, other) = pair_mut(bank, d, a);
        for k in 0..len {
            dst[k] = f(other[k], dst[k]);
        }
    }
}

/// `bank[d][k] = f(bank[a][k], bank[b][k], bank[c][k])` under any
/// aliasing pattern (the fused multiply-add kernels).
#[inline]
pub fn map3_any<T: Copy>(
    bank: &mut [[T; BATCH]],
    d: u8,
    a: u8,
    b: u8,
    c: u8,
    len: usize,
    f: impl Fn(T, T, T) -> T,
) {
    let (d, a, b, c) = (d as usize, a as usize, b as usize, c as usize);
    if d != a && d != b && d != c {
        let (left, right) = bank.split_at_mut(d);
        let Some((dst, tail)) = right.split_first_mut() else {
            return;
        };
        let src = |i: usize| if i < d { &left[i] } else { &tail[i - d - 1] };
        let (sa, sb, sc) = (src(a), src(b), src(c));
        for k in 0..len {
            dst[k] = f(sa[k], sb[k], sc[k]);
        }
    } else {
        // Aliased destination: per-lane read-then-write.
        #[allow(clippy::needless_range_loop)] // rows may alias; no iterator split
        for k in 0..len {
            let v = f(bank[a][k], bank[b][k], bank[c][k]);
            bank[d][k] = v;
        }
    }
}

/// Selected-lane [`map2_any`] (trapping division after packing): dead
/// lanes are untouched, aliasing handled per lane.
#[inline]
pub fn map2_sel_any<T: Copy>(
    bank: &mut [[T; BATCH]],
    d: u8,
    a: u8,
    b: u8,
    sel: Option<&[u32]>,
    len: usize,
    f: impl Fn(T, T) -> T,
) {
    match sel {
        None => map2_any(bank, d, a, b, len, f),
        Some(sel) => {
            let (d, a, b) = (d as usize, a as usize, b as usize);
            for &k in sel {
                let k = k as usize;
                let v = f(bank[a][k], bank[b][k]);
                bank[d][k] = v;
            }
        }
    }
}

/// Lane-wise select with mask in a *different* bank; destination free to
/// alias either branch slot.
#[inline]
pub fn select_any<T: Copy>(
    bank: &mut [[T; BATCH]],
    d: u8,
    mask: &[bool; BATCH],
    t: u8,
    e: u8,
    len: usize,
) {
    let (d, t, e) = (d as usize, t as usize, e as usize);
    if d != t && d != e {
        let (left, right) = bank.split_at_mut(d);
        let Some((dst, tail)) = right.split_first_mut() else {
            return;
        };
        let src = |i: usize| if i < d { &left[i] } else { &tail[i - d - 1] };
        select(dst, mask, src(t), src(e), len);
    } else {
        for k in 0..len {
            let v = if mask[k] { bank[t][k] } else { bank[e][k] };
            bank[d][k] = v;
        }
    }
}

/// Lane-wise select where mask, branches, and destination all share the
/// boolean bank (a bool-lane `Sel`): per-lane read-then-write, exact under any
/// aliasing pattern.
#[inline]
pub fn select_same_any(
    bank: &mut [[bool; BATCH]],
    d: u8,
    mask: u8,
    t: u8,
    e: u8,
    len: usize,
) {
    let (d, mask, t, e) = (d as usize, mask as usize, t as usize, e as usize);
    #[allow(clippy::needless_range_loop)] // rows may alias; no iterator split
    for k in 0..len {
        let v = if bank[mask][k] { bank[t][k] } else { bank[e][k] };
        bank[d][k] = v;
    }
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
            for k in 0..len {
                *acc = f(*acc, a[k], b[k]);
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

/// `bank[d][k] = bank[a][k].wrapping_div(m)`.
#[inline(never)]
pub fn div_invariant(bank: &mut [[i64; BATCH]], d: u8, a: u8, m: Divisor, len: usize) {
    match m {
        Divisor::One => map1_any(bank, d, a, len, |x| x),
        Divisor::NegOne => map1_any(bank, d, a, len, |x: i64| x.wrapping_neg()),
        Divisor::Pow2 { shift, neg: false } => map1_any(bank, d, a, len, |x| div_pow2(x, shift)),
        Divisor::Pow2 { shift, neg: true } => {
            map1_any(bank, d, a, len, |x| div_pow2(x, shift).wrapping_neg());
        }
        Divisor::Magic { mul, fix, shift, .. } => match fix {
            1 => map1_any(bank, d, a, len, |x| div_magic::<1>(x, mul, shift)),
            -1 => map1_any(bank, d, a, len, |x| div_magic::<-1>(x, mul, shift)),
            _ => map1_any(bank, d, a, len, |x| div_magic::<0>(x, mul, shift)),
        },
        Divisor::Hw(m) => map1_any(bank, d, a, len, |x: i64| x.wrapping_div(m)),
    }
}

/// `bank[d][k] = bank[a][k].wrapping_rem(m)`.
#[inline(never)]
pub fn rem_invariant(bank: &mut [[i64; BATCH]], d: u8, a: u8, m: Divisor, len: usize) {
    match m {
        Divisor::One | Divisor::NegOne => map1_any(bank, d, a, len, |_| 0),
        // The remainder takes the dividend's sign, whatever the
        // divisor's.
        Divisor::Pow2 { shift, .. } => {
            map1_any(bank, d, a, len, |x| x - (div_pow2(x, shift) << shift));
        }
        Divisor::Magic { m, mul, fix, shift } => {
            let rem = |x: i64, q: i64| x.wrapping_sub(q.wrapping_mul(m));
            match fix {
                1 => map1_any(bank, d, a, len, |x| rem(x, div_magic::<1>(x, mul, shift))),
                -1 => map1_any(bank, d, a, len, |x| rem(x, div_magic::<-1>(x, mul, shift))),
                _ => map1_any(bank, d, a, len, |x| rem(x, div_magic::<0>(x, mul, shift))),
            }
        }
        Divisor::Hw(m) => map1_any(bank, d, a, len, |x: i64| x.wrapping_rem(m)),
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
            let mut bank = vec![[0i64; BATCH]; 2];
            bank[0][..xs.len()].copy_from_slice(&xs);
            rem_invariant(&mut bank, 1, 0, dv, xs.len());
            for (k, &x) in xs.iter().enumerate() {
                assert_eq!(bank[1][k], x.wrapping_rem(m), "{x} % {m}");
            }
            div_invariant(&mut bank, 1, 0, dv, xs.len());
            for (k, &x) in xs.iter().enumerate() {
                assert_eq!(bank[1][k], x.wrapping_div(m), "{x} / {m}");
            }
            // In place (destination aliases the dividend).
            rem_invariant(&mut bank, 0, 0, dv, xs.len());
            for (k, &x) in xs.iter().enumerate() {
                assert_eq!(bank[0][k], x.wrapping_rem(m), "{x} % {m} in place");
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
    fn divisor_check_ignores_dead_lanes() {
        let mut b = [1i64; BATCH];
        b[1] = 0;
        assert_eq!(
            check_divisors(&b, None, 4),
            Err(VmError::DivisionByZero)
        );
        assert_eq!(check_divisors(&b, Some(&[0, 2, 3]), 4), Ok(()));
    }

    #[test]
    fn filters_compose_in_order() {
        let mut mask = [false; BATCH];
        mask[0] = true;
        mask[2] = true;
        mask[3] = true;
        let mut sel = Vec::new();
        filter_dense(&mut sel, &mask, 5);
        assert_eq!(sel, vec![0, 2, 3]);
        let mut mask2 = [true; BATCH];
        mask2[2] = false;
        filter_sel(&mut sel, &mask2);
        assert_eq!(sel, vec![0, 3]);
    }
}
