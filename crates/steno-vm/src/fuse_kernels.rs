//! Batch-kernel fusion: collapsing a whole vectorized tape into a
//! single-pass fused kernel.
//!
//! The vectorized tier ([`crate::batch`]) executes a loop as a *sequence*
//! of per-batch kernel calls, each reading and writing full 1024-lane
//! intermediate columns. For short arithmetic pipelines that column
//! traffic dominates: `int_mult3_sumsq` spends most of its time moving
//! remainders and squares through L1 that a hand-written loop would keep
//! in registers. This pass recovers the per-element expression a tape
//! computes and, when it fits the fused-shape catalog, replaces the whole
//! tape with a single-pass kernel — the loop a programmer would write by
//! hand, down to strength-reduced division by small constants.
//!
//! Two layers, per the classic fusion playbook:
//!
//! 1. [`plan`] — whole-tape fusion. A symbolic walk re-derives what each
//!    slot holds (`x`, `x*x`, `x % m`, `a*x + b`, …) and matches the
//!    filter/map/reduce structure against [`FusedTape`]. Only catalog
//!    shapes fuse; everything else keeps the kernel sequence (no generic
//!    interpreter that could be *slower* than the columns it replaces).
//! 2. [`peephole`] — the generic two-op fallback. Adjacent
//!    multiply→add and multiply→reduce pairs over the same selection
//!    vector fuse into the [`BOp::MulAdd`] superkernels, eliminating
//!    one intermediate column each even when the whole tape does not
//!    match a shape.
//!
//! # The catalog: lane × predicate × map × reduction
//!
//! A fused shape is one choice from each axis, and every choice runs
//! through the one masked loop, `fold`:
//!
//! * **lane** — the source column's type, f64 ([`FusedTape::F`]) or i64
//!   ([`FusedTape::I`]); accumulator, predicate and map share it;
//! * **predicate** — none, `x OP c`, or (i64) `x % m ==/!= r`
//!   ([`PredI`]);
//! * **map** — [`MapF`] / [`MapI`]: `x`, `x*x`, a constant multiple, a
//!   constant, (i64) `a*x + b`, or (i64, as an unfiltered sum only) the
//!   guarded-division select;
//! * **reduction** — [`RedK`]: `sum`, `min` or `max`.
//!
//! Every lane is folded, live or not: a dead lane folds the reduction's
//! **identity**, an element `e` with `combine(a, e) == a` bit for bit for
//! every accumulator `a`. That turns the data-dependent branch of a
//! filter into a compare and a select, which LLVM if-converts and
//! vectorizes. The identities, and why each is exact:
//!
//! | lane | reduction | folds in | combine | identity | why exact |
//! |---|---|---|---|---|---|
//! | f64 | sum | f64 | `+` | `-0.0` | `a + -0.0 == a` under round-to-nearest for every `a`, `±0.0` and NaN included (`+0.0` would turn a `-0.0` accumulator into `+0.0`) |
//! | i64 | sum | i64 | `wrapping_add` | `0` | wrapping addition of zero |
//! | f64 | min / max | the `i64` order image [`crate::sink::order_f`] | `i64::min` / `i64::max` | `i64::MAX` / `i64::MIN` | the top and bottom of the order every image lives in, so they never win a comparison against `a` |
//! | i64 | min / max | i64 | `i64::min` / `i64::max` | `i64::MAX` / `i64::MIN` | as above |
//!
//! f64 min/max fold the order images rather than the floats because an
//! `i64` compare on images *is* the interpreter's `total_cmp` (see
//! [`crate::sink::min_total`]): NaNs and signed zeros order exactly as
//! they do there, the loop-carried step is one integer compare, and the
//! result maps back through [`crate::sink::from_order_f`] unchanged.
//!
//! # Bit-for-bit and trap parity
//!
//! Fused kernels preserve the differential guarantees the batch tier
//! already makes:
//!
//! * element order is unchanged (one sequential pass, accumulating into
//!   the same scalar), so floating-point folds stay bit-identical;
//! * f64 operand order is preserved exactly — `x * k` and `k * x` fuse
//!   to *different* kernels — and no reassociation is introduced;
//! * integer ops stay wrapping, matching the scalar VM;
//! * trapping (checked) integer division never fuses: a checked
//!   `DivI`/`RemI` in the tape disqualifies the loop, so the lane-exact
//!   fault semantics of [`crate::kernels::div_checked`] always run on
//!   the kernel-sequence path. Unchecked division (interval analysis
//!   proved the divisor non-zero) fuses freely. Every map is therefore
//!   total, which is what lets the loop evaluate it on dead lanes too.
//!
//! Fused kernels poll the [`Interrupt`] once per [`BATCH`] elements —
//! the same cooperative-cancellation granularity as the unfused tape
//! (the POLL_STRIDE contract from the service layer).

use crate::batch::{BInit, BOp, BatchData, BatchProgram, FOp, IOp, Lane, RedK, BATCH};
use crate::exec::VmError;
use crate::instr::{with_cmp, CmpOp};
use crate::interrupt::Interrupt;
use crate::sink::{from_order_f, order_f};

// ---------------------------------------------------------------------
// Fused-shape descriptors.
// ---------------------------------------------------------------------

/// A loop-invariant f64 operand: a literal or an entry-time parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScalF {
    /// A compile-time constant.
    Lit(f64),
    /// Index into the loop's f64 parameter snapshot.
    Param(u8),
}

impl ScalF {
    #[inline]
    fn get(self, params: &[f64]) -> f64 {
        match self {
            ScalF::Lit(v) => v,
            ScalF::Param(p) => params[p as usize],
        }
    }

    fn name(self) -> String {
        match self {
            ScalF::Lit(v) => format!("{v}"),
            ScalF::Param(p) => format!("p{p}"),
        }
    }
}

/// A loop-invariant i64 operand: a literal or an entry-time parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScalI {
    /// A compile-time constant.
    Lit(i64),
    /// Index into the loop's i64 parameter snapshot.
    Param(u8),
}

impl ScalI {
    #[inline]
    fn get(self, params: &[i64]) -> i64 {
        match self {
            ScalI::Lit(v) => v,
            ScalI::Param(p) => params[p as usize],
        }
    }

    fn name(self) -> String {
        match self {
            ScalI::Lit(v) => format!("{v}"),
            ScalI::Param(p) => format!("p{p}"),
        }
    }
}

/// The per-element map of a fused f64 loop. Operand order is part of
/// the shape: `x * k` and `k * x` are distinct (no f64 commutation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MapF {
    /// `x`
    X,
    /// `x * x`
    Sq,
    /// `x * k`
    MulKR(ScalF),
    /// `k * x`
    MulKL(ScalF),
    /// the constant `k` (a filtered count-by-weight)
    K(ScalF),
}

/// The per-element map of a fused i64 loop (wrapping arithmetic, so
/// operand order is normalized away).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MapI {
    /// `x`
    X,
    /// `x * x`
    Sq,
    /// `x * k`
    MulK(ScalI),
    /// `a * x + b`
    Lin(ScalI, ScalI),
    /// the constant `k`
    K(ScalI),
    /// `x % m == r ? x / d : a*x + b` — the guarded-division ("Collatz
    /// step") select. All operands are literals so division by small
    /// constants strength-reduces; [`plan`] fuses it only as an
    /// unfiltered sum.
    SelRemDivLin {
        /// Modulus of the guard.
        m: i64,
        /// Compared remainder.
        r: i64,
        /// Divisor of the then-branch.
        d: i64,
        /// Multiplier of the else-branch.
        a: i64,
        /// Addend of the else-branch.
        b: i64,
    },
}

/// The predicate of a fused i64 loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PredI {
    /// `x OP c`
    Cmp(CmpOp, ScalI),
    /// `(x % m) == r`, or `!=` when `ne` — the guard of every
    /// divisibility filter. `%` here is the *unchecked* remainder: the
    /// compiler only emits it under an interval proof that `m` is
    /// non-zero.
    RemCmp {
        /// The modulus.
        m: ScalI,
        /// The compared remainder.
        r: ScalI,
        /// `!=` instead of `==`.
        ne: bool,
    },
}

/// A whole-loop fused kernel: filter → map → reduce collapsed into one
/// sequential pass, `for x { acc = red(acc, pred(x) ? map(x) : identity) }`
/// (the accumulator stays the left operand); `acc` indexes the loop's
/// accumulator snapshot of the lane.
#[derive(Clone, Debug, PartialEq)]
pub enum FusedTape {
    /// Over an f64 source column into an f64 accumulator.
    F {
        /// Sum, min or max.
        red: RedK,
        /// Optional `x OP c` guard.
        pred: Option<(CmpOp, ScalF)>,
        /// The reduced expression.
        map: MapF,
        /// f64 accumulator index.
        acc: u8,
    },
    /// Over an i64 source column into an i64 accumulator (wrapping).
    I {
        /// Sum, min or max.
        red: RedK,
        /// Optional guard.
        pred: Option<PredI>,
        /// The reduced expression.
        map: MapI,
        /// i64 accumulator index.
        acc: u8,
    },
}

impl FusedTape {
    /// A stable human-readable name for EXPLAIN output, e.g.
    /// `sum(x*x):f64` or `filter(x%3==0)·sum(x*x):i64`.
    pub fn label(&self) -> String {
        let (red, pred, map, lane) = match self {
            FusedTape::F { red, pred, map, .. } => {
                let pred = pred.map(|(op, c)| format!("x{}{}", op.symbol(), c.name()));
                let map = match map {
                    MapF::X => "x".to_string(),
                    MapF::Sq => "x*x".to_string(),
                    MapF::MulKR(k) => format!("x*{}", k.name()),
                    MapF::MulKL(k) => format!("{}*x", k.name()),
                    MapF::K(k) => k.name(),
                };
                (red, pred, map, "f64")
            }
            FusedTape::I { red, pred, map, .. } => {
                let pred = pred.map(|p| match p {
                    PredI::Cmp(op, c) => format!("x{}{}", op.symbol(), c.name()),
                    PredI::RemCmp { m, r, ne } => {
                        format!("x%{}{}{}", m.name(), if ne { "!=" } else { "==" }, r.name())
                    }
                });
                let map = match map {
                    MapI::X => "x".to_string(),
                    MapI::Sq => "x*x".to_string(),
                    MapI::MulK(k) => format!("x*{}", k.name()),
                    MapI::Lin(a, b) => format!("{}*x+{}", a.name(), b.name()),
                    MapI::K(k) => k.name(),
                    MapI::SelRemDivLin { m, r, d, a, b } => {
                        format!("x%{m}=={r} ? x/{d} : {a}*x+{b}")
                    }
                };
                (red, pred, map, "i64")
            }
        };
        let body = format!("{}({map}):{lane}", red.name());
        match pred {
            None => body,
            Some(p) => format!("filter({p})·{body}"),
        }
    }
}

// ---------------------------------------------------------------------
// Whole-tape fusion: symbolic slot recovery.
// ---------------------------------------------------------------------

/// What a slot symbolically holds at a point in the tape. `Other` means
/// "not representable in the fused shapes" — any effect consuming an
/// `Other` slot disqualifies the loop.
#[derive(Clone, Copy, Debug, PartialEq)]
enum EF {
    X,
    S(ScalF),
    Map(MapF),
    Other,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum EI {
    X,
    S(ScalI),
    Map(MapI),
    /// `x % m` (unchecked).
    RemK(ScalI),
    /// `x / d` (unchecked).
    DivK(ScalI),
    Other,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum EB {
    /// `x OP c` over the f64 lane (normalized: x on the left).
    CmpF(CmpOp, ScalF),
    /// `x OP c` over the i64 lane.
    CmpI(CmpOp, ScalI),
    /// `(x % m) ==/!= r`.
    RemCmp { m: ScalI, r: ScalI, ne: bool },
    Other,
}

/// As [`MapF`], viewed as a value usable inside a larger expression.
fn ef_as_map(e: EF) -> Option<MapF> {
    match e {
        EF::X => Some(MapF::X),
        EF::S(s) => Some(MapF::K(s)),
        EF::Map(m) => Some(m),
        EF::Other => None,
    }
}

fn ei_as_map(e: EI) -> Option<MapI> {
    match e {
        EI::X => Some(MapI::X),
        EI::S(s) => Some(MapI::K(s)),
        EI::Map(m) => Some(m),
        _ => None,
    }
}

/// Tries to collapse a whole batch tape into a [`FusedTape`].
///
/// Returns `None` — leaving the kernel-sequence path in charge — unless
/// the tape is exactly a (filter?)·map·reduce pipeline whose pieces all
/// fit the catalog. Checked (trapping) division, more than one filter,
/// a filtered or min/max guarded-division select, a reduction across
/// lanes, grouped aggregates, output pushes, UDF calls, casts, and
/// boolean algebra all disqualify.
pub fn plan(bp: &BatchProgram) -> Option<FusedTape> {
    if bp.src_lane == Lane::B {
        return None;
    }
    let mut ef: Vec<EF> = vec![EF::Other; bp.n_f as usize];
    let mut ei: Vec<EI> = vec![EI::Other; bp.n_i as usize];
    let mut eb: Vec<EB> = vec![EB::Other; bp.n_b as usize];

    for init in &bp.prologue {
        match *init {
            BInit::ConstF(d, v) => ef[d as usize] = EF::S(ScalF::Lit(v)),
            BInit::ConstI(d, v) => ei[d as usize] = EI::S(ScalI::Lit(v)),
            BInit::ParamF(d, p) => ef[d as usize] = EF::S(ScalF::Param(p)),
            BInit::ParamI(d, p) => ei[d as usize] = EI::S(ScalI::Param(p)),
            BInit::ConstB(..) | BInit::ParamB(..) => {}
        }
    }

    let mut pred_f: Option<(CmpOp, ScalF)> = None;
    let mut pred_i: Option<PredI> = None;
    let mut filtered = false;
    let mut fused: Option<FusedTape> = None;

    for op in &bp.tape {
        // The reduction must be the last effect: anything after it would
        // observe state the fused loop no longer materializes.
        if fused.is_some() {
            return None;
        }
        match *op {
            BOp::Load(Lane::F, d) => ef[d as usize] = EF::X,
            BOp::Load(Lane::I, d) => ei[d as usize] = EI::X,
            BOp::Load(Lane::B, _) => return None,
            // The fused loops run the whole column: no early exit.
            BOp::Cut(_) => return None,

            BOp::BinF(FOp::Mul, d, a, b) => {
                ef[d as usize] = match (ef[a as usize], ef[b as usize]) {
                    (EF::X, EF::X) => EF::Map(MapF::Sq),
                    (EF::X, EF::S(k)) => EF::Map(MapF::MulKR(k)),
                    (EF::S(k), EF::X) => EF::Map(MapF::MulKL(k)),
                    _ => EF::Other,
                }
            }
            // Any other f64 compute just makes its destination opaque.
            BOp::BinF(_, d, ..)
            | BOp::UnF(_, d, ..)
            | BOp::I2F(d, ..)
            | BOp::Sel { lane: Lane::F, dst: d, .. }
            | BOp::MulAdd(Lane::F, d, ..) => ef[d as usize] = EF::Other,

            BOp::BinI(IOp::Mul, d, a, b) => {
                ei[d as usize] = match (ei[a as usize], ei[b as usize]) {
                    (EI::X, EI::X) => EI::Map(MapI::Sq),
                    (EI::X, EI::S(k)) | (EI::S(k), EI::X) => EI::Map(MapI::MulK(k)),
                    _ => EI::Other,
                }
            }
            BOp::BinI(IOp::Add, d, a, b) => {
                ei[d as usize] = match (ei[a as usize], ei[b as usize]) {
                    (EI::Map(MapI::MulK(ka)), EI::S(kb))
                    | (EI::S(kb), EI::Map(MapI::MulK(ka))) => EI::Map(MapI::Lin(ka, kb)),
                    (EI::X, EI::S(k)) | (EI::S(k), EI::X) => {
                        EI::Map(MapI::Lin(ScalI::Lit(1), k))
                    }
                    _ => EI::Other,
                }
            }
            BOp::RemIUnchecked(d, a, b) => {
                ei[d as usize] = match (ei[a as usize], ei[b as usize]) {
                    (EI::X, EI::S(m)) => EI::RemK(m),
                    _ => EI::Other,
                }
            }
            BOp::DivIUnchecked(d, a, b) => {
                ei[d as usize] = match (ei[a as usize], ei[b as usize]) {
                    (EI::X, EI::S(m)) => EI::DivK(m),
                    _ => EI::Other,
                }
            }
            // Checked division must keep the lane-exact fault semantics
            // of the kernel path: never fused.
            BOp::DivI(..) | BOp::RemI(..) => return None,
            BOp::Sel { lane: Lane::I, dst, mask, t, e } => {
                ei[dst as usize] = sel_rdl(eb[mask as usize], ei[t as usize], ei[e as usize]);
            }
            BOp::BinI(_, d, ..)
            | BOp::UnI(_, d, ..)
            | BOp::F2I(d, ..)
            | BOp::MulAdd(Lane::I, d, ..) => ei[d as usize] = EI::Other,

            BOp::Cmp(Lane::F, op, d, a, b) => {
                eb[d as usize] = cmp_f(op, ef[a as usize], ef[b as usize]);
            }
            BOp::Cmp(Lane::I, op, d, a, b) => {
                eb[d as usize] = cmp_i(op, ei[a as usize], ei[b as usize]);
            }
            BOp::Cmp(Lane::B, _, d, ..)
            | BOp::AndB(d, ..)
            | BOp::OrB(d, ..)
            | BOp::NotB(d, ..)
            | BOp::Sel { lane: Lane::B, dst: d, .. } => eb[d as usize] = EB::Other,

            BOp::Filter(m) => {
                if filtered {
                    return None;
                }
                filtered = true;
                match eb[m as usize] {
                    EB::CmpF(op, c) => pred_f = Some((op, c)),
                    EB::CmpI(op, c) => pred_i = Some(PredI::Cmp(op, c)),
                    EB::RemCmp { m, r, ne } => pred_i = Some(PredI::RemCmp { m, r, ne }),
                    EB::Other => return None,
                }
            }

            // One arm per lane: the fold op names the reduction.
            BOp::Red { red, lane: Lane::F, acc, val } => {
                if pred_i.is_some() {
                    return None;
                }
                let map = ef_as_map(ef[val as usize])?;
                fused = Some(FusedTape::F {
                    red,
                    pred: pred_f,
                    map,
                    acc,
                });
            }
            BOp::Red { red, lane: Lane::I, acc, val } => {
                if pred_f.is_some() {
                    return None;
                }
                let map = ei_as_map(ei[val as usize])?;
                if matches!(map, MapI::SelRemDivLin { .. })
                    && (pred_i.is_some() || red != RedK::Sum)
                {
                    return None;
                }
                fused = Some(FusedTape::I {
                    red,
                    pred: pred_i,
                    map,
                    acc,
                });
            }

            // Grouped aggregates, appends, output pushes, calls and the
            // two-op kernels stay on the kernel path.
            BOp::Red { lane: Lane::B, .. }
            | BOp::MulAdd(Lane::B, ..)
            | BOp::GroupAdd { .. }
            | BOp::SortPush { .. }
            | BOp::DistinctPush { .. }
            | BOp::LoadSnd(..)
            | BOp::OutPair(..)
            | BOp::Call { .. }
            | BOp::Out(..)
            | BOp::MulRedAdd { .. } => return None,
        }
    }
    // The fused loop iterates the source column in its own lane; a
    // cross-lane reduction (e.g. a count — an i64 sum over f64 rows)
    // stays on the kernel path.
    match &fused {
        Some(FusedTape::F { .. }) if bp.src_lane != Lane::F => None,
        Some(FusedTape::I { .. }) if bp.src_lane != Lane::I => None,
        _ => fused,
    }
}

fn cmp_f(op: CmpOp, a: EF, b: EF) -> EB {
    match (a, b) {
        (EF::X, EF::S(c)) => EB::CmpF(op, c),
        (EF::S(c), EF::X) => EB::CmpF(op.flipped(), c),
        _ => EB::Other,
    }
}

fn cmp_i(op: CmpOp, a: EI, b: EI) -> EB {
    match (a, b) {
        (EI::X, EI::S(c)) => EB::CmpI(op, c),
        (EI::S(c), EI::X) => EB::CmpI(op.flipped(), c),
        (EI::RemK(m), EI::S(r)) | (EI::S(r), EI::RemK(m)) => match op {
            CmpOp::Eq => EB::RemCmp { m, r, ne: false },
            CmpOp::Ne => EB::RemCmp { m, r, ne: true },
            _ => EB::Other,
        },
        _ => EB::Other,
    }
}

/// Matches `mask ? t : e` against the guarded-division shape (all
/// literals). `ne` guards normalize by swapping the branches.
fn sel_rdl(mask: EB, t: EI, e: EI) -> EI {
    let EB::RemCmp {
        m: ScalI::Lit(m),
        r: ScalI::Lit(r),
        ne,
    } = mask
    else {
        return EI::Other;
    };
    let (t, e) = if ne { (e, t) } else { (t, e) };
    match (t, e) {
        (EI::DivK(ScalI::Lit(d)), EI::Map(MapI::Lin(ScalI::Lit(a), ScalI::Lit(b)))) => {
            EI::Map(MapI::SelRemDivLin { m, r, d, a, b })
        }
        _ => EI::Other,
    }
}

// ---------------------------------------------------------------------
// Fused execution.
// ---------------------------------------------------------------------

/// The fused loop: one pass of `a = combine(a, pred(x) ? lift(x) :
/// identity)` from `init`, polling the interrupt once per [`BATCH`]
/// elements. Every fused shape runs through here; each call site
/// monomorphizes `pred`, `lift` and `combine` fully.
///
/// The body is written **masked**, not branchy: every lane folds either
/// `lift(x)` or the reduction's identity, which leaves the accumulator
/// unchanged bit for bit (the module docs tabulate why each identity is
/// exact). So the select is exactly the branchy loop, but it turns an
/// unpredictable data-dependent branch into a `cmp`+`blend` that LLVM
/// if-converts and vectorizes — precisely the shape a hand-written
/// filtered sum compiles to, and the reason a filtered min/max runs at
/// the speed of a filtered sum. Lifting unconditionally is sound because
/// fused maps are total (no trapping op survives [`plan`]).
#[inline]
fn fold<X: Copy, A: Copy>(
    xs: &[X],
    init: A,
    interrupt: &Interrupt,
    pred: impl Fn(X) -> bool,
    lift: impl Fn(X) -> A,
    combine: impl Fn(A, A) -> A,
    identity: A,
) -> Result<A, VmError> {
    let mut a = init;
    for chunk in xs.chunks(BATCH) {
        interrupt.check()?;
        for &x in chunk {
            let v = lift(x);
            a = combine(a, if pred(x) { v } else { identity });
        }
    }
    Ok(a)
}

/// Picks the f64 lane's combine and identity for `red`; min/max fold the
/// `total_cmp` order images of [`order_f`].
#[inline]
fn reduce_f(
    red: RedK,
    xs: &[f64],
    acc: &mut f64,
    interrupt: &Interrupt,
    pred: impl Fn(f64) -> bool + Copy,
    map: impl Fn(f64) -> f64 + Copy,
) -> Result<(), VmError> {
    let (image, init) = (move |x| order_f(map(x)), order_f(*acc));
    *acc = match red {
        RedK::Sum => fold(xs, *acc, interrupt, pred, map, |a, v| a + v, -0.0)?,
        RedK::Min => from_order_f(fold(xs, init, interrupt, pred, image, i64::min, i64::MAX)?),
        RedK::Max => from_order_f(fold(xs, init, interrupt, pred, image, i64::max, i64::MIN)?),
    };
    Ok(())
}

/// Picks the i64 lane's combine and identity for `red`.
#[inline]
fn reduce_i(
    red: RedK,
    xs: &[i64],
    acc: &mut i64,
    interrupt: &Interrupt,
    pred: impl Fn(i64) -> bool + Copy,
    map: impl Fn(i64) -> i64 + Copy,
) -> Result<(), VmError> {
    *acc = match red {
        RedK::Sum => fold(xs, *acc, interrupt, pred, map, i64::wrapping_add, 0)?,
        RedK::Min => fold(xs, *acc, interrupt, pred, map, i64::min, i64::MAX)?,
        RedK::Max => fold(xs, *acc, interrupt, pred, map, i64::max, i64::MIN)?,
    };
    Ok(())
}

// The dispatch macros below turn a runtime descriptor into monomorphized
// closures: each binds its identifier to one closure per arm and expands
// the caller's body inside every arm, so nesting them instantiates
// `fold` once per combination, with literals compiled into the closures.

/// `{ let $p = $f; $body }` — one monomorphized arm.
macro_rules! bind {
    ($p:ident = $f:expr; $body:expr) => {{
        let $p = $f;
        $body
    }};
}

/// Binds `$p` to `x OP c` over lane type `$t`.
macro_rules! with_cmp_k {
    ($op:expr, $c:expr, $t:ty, $p:ident => $body:expr) => {{
        let c = $c;
        with_cmp!($op, $t, f => bind!($p = move |x: $t| f(x, c); $body))
    }};
}

/// Binds `$p` to the f64 predicate (`None` is always true).
macro_rules! with_pred_f {
    ($pred:expr, $params:expr, $p:ident => $body:expr) => {
        match $pred {
            None => bind!($p = |_: f64| true; $body),
            Some((op, c)) => with_cmp_k!(op, c.get($params), f64, $p => $body),
        }
    };
}

/// The remainder-guard arms of `with_pred_i!`: small literal moduli
/// are value-specialized so LLVM strength-reduces the division (the
/// difference between a magic multiply and a 20+-cycle hardware divide
/// per lane); any other modulus divides at run time.
macro_rules! rem_pred_i {
    ($m:expr, $r:expr, $ne:expr, $p:ident => $body:expr) => {{
        let r = $r;
        match ($m, $ne) {
            (2, false) => bind!($p = move |x: i64| x.wrapping_rem(2) == r; $body),
            (2, true) => bind!($p = move |x: i64| x.wrapping_rem(2) != r; $body),
            (3, false) => bind!($p = move |x: i64| x.wrapping_rem(3) == r; $body),
            (3, true) => bind!($p = move |x: i64| x.wrapping_rem(3) != r; $body),
            (4, false) => bind!($p = move |x: i64| x.wrapping_rem(4) == r; $body),
            (4, true) => bind!($p = move |x: i64| x.wrapping_rem(4) != r; $body),
            (5, false) => bind!($p = move |x: i64| x.wrapping_rem(5) == r; $body),
            (5, true) => bind!($p = move |x: i64| x.wrapping_rem(5) != r; $body),
            (m, false) => bind!($p = move |x: i64| x.wrapping_rem(m) == r; $body),
            (m, true) => bind!($p = move |x: i64| x.wrapping_rem(m) != r; $body),
        }
    }};
}

/// Binds `$p` to the i64 predicate (`None` is always true).
macro_rules! with_pred_i {
    ($pred:expr, $params:expr, $p:ident => $body:expr) => {
        match $pred {
            None => bind!($p = |_: i64| true; $body),
            Some(PredI::Cmp(op, c)) => with_cmp_k!(op, c.get($params), i64, $p => $body),
            Some(PredI::RemCmp { m, r, ne }) => {
                rem_pred_i!(m.get($params), r.get($params), ne, $p => $body)
            }
        }
    };
}

/// Binds `$m` to the f64 map.
macro_rules! with_map_f {
    ($map:expr, $params:expr, $m:ident => $body:expr) => {
        match $map {
            MapF::X => bind!($m = |x: f64| x; $body),
            MapF::Sq => bind!($m = |x: f64| x * x; $body),
            MapF::MulKR(k) => bind!($m = { let k = k.get($params); move |x: f64| x * k }; $body),
            MapF::MulKL(k) => bind!($m = { let k = k.get($params); move |x: f64| k * x }; $body),
            MapF::K(k) => bind!($m = { let k = k.get($params); move |_: f64| k }; $body),
        }
    };
}

/// Binds `$m` to the i64 map. The guarded-division select is bound by
/// `with_sel_i!` instead: [`plan`] fuses it only unfiltered, so its arm
/// here is the shape error of a filtered one.
macro_rules! with_map_i {
    ($map:expr, $params:expr, $m:ident => $body:expr) => {
        match $map {
            MapI::X => bind!($m = |x: i64| x; $body),
            MapI::Sq => bind!($m = |x: i64| x.wrapping_mul(x); $body),
            MapI::MulK(k) => {
                bind!($m = { let k = k.get($params); move |x: i64| x.wrapping_mul(k) }; $body)
            }
            MapI::Lin(a, b) => {
                let (a, b) = (a.get($params), b.get($params));
                bind!($m = move |x: i64| a.wrapping_mul(x).wrapping_add(b); $body)
            }
            MapI::K(k) => bind!($m = { let k = k.get($params); move |_: i64| k }; $body),
            MapI::SelRemDivLin { .. } => Err(VmError::Shape(
                "filtered guarded-division select has no fused kernel".into(),
            )),
        }
    };
}

/// `x % m == r ? x / d : lin(x)`, with `m` and `d` compiled in.
macro_rules! sel {
    ($m:expr, $r:ident, $d:expr, $lin:ident) => {
        move |x: i64| {
            if x.wrapping_rem($m) == $r {
                x.wrapping_div($d)
            } else {
                $lin(x)
            }
        }
    };
}

/// Binds `$f` to the guarded-division select `x % m == r ? x / d :
/// a*x + b`, value-specializing the common small-constant guard/divisor
/// pairs; the fallback keeps the fusion win (no column traffic) with
/// runtime divides.
macro_rules! with_sel_i {
    ($m:expr, $r:expr, $d:expr, $a:expr, $b:expr, $f:ident => $body:expr) => {{
        let (r, a, b) = ($r, $a, $b);
        let lin = move |x: i64| a.wrapping_mul(x).wrapping_add(b);
        match ($m, $d) {
            (2, 2) => bind!($f = sel!(2, r, 2, lin); $body),
            (2, 4) => bind!($f = sel!(2, r, 4, lin); $body),
            (3, 3) => bind!($f = sel!(3, r, 3, lin); $body),
            (m, d) => bind!($f = sel!(m, r, d, lin); $body),
        }
    }};
}

/// Executes a fused kernel over the source column.
///
/// Accumulator and parameter snapshots have the same layout as
/// [`crate::batch::run_batch`]; the caller writes accumulators back.
///
/// # Errors
///
/// [`VmError::Cancelled`] / [`VmError::DeadlineExceeded`] from the
/// per-batch interrupt poll. Fused shapes contain no trapping ops.
pub fn run_fused(
    ft: &FusedTape,
    data: BatchData<'_>,
    f_accs: &mut [f64],
    i_accs: &mut [i64],
    f_params: &[f64],
    i_params: &[i64],
    interrupt: &Interrupt,
) -> Result<(), VmError> {
    match (ft, data) {
        (FusedTape::F { red, pred, map, acc }, BatchData::F(xs)) => {
            let acc = &mut f_accs[*acc as usize];
            with_map_f!(*map, f_params, map => with_pred_f!(*pred, f_params, pred =>
                reduce_f(*red, xs, acc, interrupt, pred, map)))
        }
        (FusedTape::I { red, pred, map, acc }, BatchData::I(xs)) => {
            let acc = &mut i_accs[*acc as usize];
            match (*map, pred) {
                (MapI::SelRemDivLin { m, r, d, a, b }, None) => {
                    with_sel_i!(m, r, d, a, b, map =>
                        reduce_i(*red, xs, acc, interrupt, |_| true, map))
                }
                (map, pred) => with_map_i!(map, i_params, map =>
                    with_pred_i!(*pred, i_params, pred =>
                        reduce_i(*red, xs, acc, interrupt, pred, map))),
            }
        }
        // A lane mismatch here would mean the compiler attached a fused
        // plan to the wrong source; fall back to doing nothing is wrong,
        // so surface it as a shape error.
        _ => Err(VmError::Shape("fused kernel lane mismatch".into())),
    }
}

// ---------------------------------------------------------------------
// Peephole: the generic two-op fused kernels.
// ---------------------------------------------------------------------

/// Fuses adjacent multiply→add and multiply→reduce kernel pairs into
/// [`BOp::MulAdd`] / [`BOp::MulRedAdd`], eliminating one
/// intermediate column per fusion. Returns the display names of the
/// fused pairs (for EXPLAIN).
///
/// Conditions, checked per pair `(tape[i], tape[i+1])`:
///
/// * the multiply's destination is consumed *only* by the next op
///   (SSA: one def; we scan every later op for another use);
/// * for f64, the multiply result must be the **left** operand of the
///   add — `t + c` and `c + t` round identically only for value, and we
///   do not rely on NaN-payload commutativity; wrapping i64 addition is
///   exactly commutative, so both orders fuse;
/// * reductions fold live lanes only, exactly like the pair they
///   replace (`MulRedAdd` consults the same selection vector).
///
/// A tape that calls a UDF is left unfused: the call dominates its
/// cost, and the kernel passes stay clear of an op they do not model.
pub fn peephole(bp: &mut BatchProgram) -> Vec<&'static str> {
    let mut fused = Vec::new();
    if bp.tape.iter().any(|op| matches!(op, BOp::Call { .. })) {
        return fused;
    }
    let mut out: Vec<BOp> = Vec::with_capacity(bp.tape.len());
    let mut i = 0;
    while i < bp.tape.len() {
        let pair = (bp.tape.get(i).copied(), bp.tape.get(i + 1).copied());
        let replacement = match pair {
            (Some(BOp::BinF(FOp::Mul, t, a, b)), Some(BOp::BinF(FOp::Add, d, l, r)))
                if l == t && r != t && !slot_used_after(&bp.tape, i + 2, Lane::F, t) =>
            {
                Some((BOp::MulAdd(Lane::F, d, a, b, r), "muladd:f64"))
            }
            (Some(BOp::BinI(IOp::Mul, t, a, b)), Some(BOp::BinI(IOp::Add, d, l, r)))
                if (l == t) != (r == t) && !slot_used_after(&bp.tape, i + 2, Lane::I, t) =>
            {
                let c = if l == t { r } else { l };
                Some((BOp::MulAdd(Lane::I, d, a, b, c), "muladd:i64"))
            }
            (Some(BOp::BinF(FOp::Mul, t, a, b)), Some(BOp::Red { red: RedK::Sum, lane: Lane::F, acc, val }))
                if val == t && !slot_used_after(&bp.tape, i + 2, Lane::F, t) =>
            {
                Some((BOp::MulRedAdd { lane: Lane::F, acc, a, b }, "mulred:f64"))
            }
            (Some(BOp::BinI(IOp::Mul, t, a, b)), Some(BOp::Red { red: RedK::Sum, lane: Lane::I, acc, val }))
                if val == t && !slot_used_after(&bp.tape, i + 2, Lane::I, t) =>
            {
                Some((BOp::MulRedAdd { lane: Lane::I, acc, a, b }, "mulred:i64"))
            }
            _ => None,
        };
        match replacement {
            Some((op, name)) => {
                out.push(op);
                fused.push(name);
                i += 2;
            }
            None => {
                out.push(bp.tape[i]);
                i += 1;
            }
        }
    }
    bp.tape = out;
    fused
}

/// Whether any op at `tape[from..]` reads slot `s` of `lane`.
fn slot_used_after(tape: &[BOp], from: usize, lane: Lane, s: u8) -> bool {
    tape[from..].iter().any(|op| {
        let mut used = false;
        crate::lifetimes::bop_uses(op, |l, slot| used |= l == lane && slot == s);
        used
    })
}
