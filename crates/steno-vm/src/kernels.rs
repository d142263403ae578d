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
/// boolean bank (`SelB`): per-lane read-then-write, exact under any
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

#[cfg(test)]
mod tests {
    use super::*;

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
