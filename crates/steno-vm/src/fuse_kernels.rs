//! Batch-kernel fusion: collapsing a whole vectorized tape into a
//! single-pass fused kernel.
//!
//! The vectorized tier ([`crate::batch`]) executes a loop as a *sequence*
//! of per-batch kernel calls, each reading and writing full 1024-lane
//! intermediate columns. For short arithmetic pipelines that column
//! traffic dominates: `int_mult3_sumsq` spends most of its time moving
//! remainders and squares through L1 that a hand-written loop would keep
//! in registers. This pass recovers the per-element expression a tape
//! computes and, when it matches one of a small set of **pre-monomorphized
//! fused shapes**, replaces the whole tape with a single-pass kernel —
//! the loop a programmer would write by hand, down to strength-reduced
//! division by small constants.
//!
//! Two layers, per the classic fusion playbook:
//!
//! 1. [`plan`] — whole-tape fusion. A symbolic walk re-derives what each
//!    slot holds (`x`, `x*x`, `x % m`, `a*x + b`, …) and matches the
//!    filter/map/reduce structure against [`FusedTape`]. Only shapes with
//!    a monomorphized kernel fuse; everything else keeps the kernel
//!    sequence (no generic interpreter that could be *slower* than the
//!    columns it replaces).
//! 2. [`peephole`] — the generic two-op fallback. Adjacent
//!    multiply→add and multiply→reduce pairs over the same selection
//!    vector fuse into [`BOp::MulAddF`]-family superkernels, eliminating
//!    one intermediate column each even when the whole tape does not
//!    match a shape.
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
//!   fault semantics of [`crate::kernels::check_divisors`] always run on
//!   the kernel-sequence path. Unchecked division (interval analysis
//!   proved the divisor non-zero) fuses freely.
//!
//! Fused kernels poll the [`Interrupt`] once per [`BATCH`] elements —
//! the same cooperative-cancellation granularity as the unfused tape
//! (the POLL_STRIDE contract from the service layer).

use crate::batch::{BInit, BOp, BatchData, BatchProgram, Lane, BATCH};
use crate::exec::VmError;
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

/// A comparison operator in a fused predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpK {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpK {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`) —
    /// exact for both lanes, used to normalize `const OP x` to
    /// `x OP' const`.
    fn flipped(self) -> CmpK {
        match self {
            CmpK::Eq => CmpK::Eq,
            CmpK::Ne => CmpK::Ne,
            CmpK::Lt => CmpK::Gt,
            CmpK::Le => CmpK::Ge,
            CmpK::Gt => CmpK::Lt,
            CmpK::Ge => CmpK::Le,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpK::Eq => "==",
            CmpK::Ne => "!=",
            CmpK::Lt => "<",
            CmpK::Le => "<=",
            CmpK::Gt => ">",
            CmpK::Ge => ">=",
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
}

/// The predicate of a fused i64 loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PredI {
    /// `x OP c`
    Cmp(CmpK, ScalI),
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

/// Which extremum a fused fold computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldKind {
    /// `min`
    Min,
    /// `max`
    Max,
}

impl FoldKind {
    fn name(self) -> &'static str {
        match self {
            FoldKind::Min => "min",
            FoldKind::Max => "max",
        }
    }
}

/// A whole-loop fused kernel: filter → map → reduce collapsed into one
/// sequential pass; `acc` indexes the loop's accumulator snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum FusedTape {
    /// f64: `for x { if pred(x) { acc += map(x) } }`.
    SumF {
        /// Optional `x OP c` guard.
        pred: Option<(CmpK, ScalF)>,
        /// The summed expression.
        map: MapF,
        /// f64 accumulator index.
        acc: u8,
    },
    /// i64: `for x { if pred(x) { acc = acc.wrapping_add(map(x)) } }`.
    SumI {
        /// Optional guard.
        pred: Option<PredI>,
        /// The summed expression.
        map: MapI,
        /// i64 accumulator index.
        acc: u8,
    },
    /// f64: `for x { if pred(x) { acc = min/max(acc, map(x)) } }` — the
    /// accumulator stays the left operand, exactly like the
    /// [`crate::kernels::fold`] it replaces.
    FoldF {
        /// Min or max.
        kind: FoldKind,
        /// Optional `x OP c` guard.
        pred: Option<(CmpK, ScalF)>,
        /// The folded expression.
        map: MapF,
        /// f64 accumulator index.
        acc: u8,
    },
    /// i64: the integer twin of [`FusedTape::FoldF`].
    FoldI {
        /// Min or max.
        kind: FoldKind,
        /// Optional guard.
        pred: Option<PredI>,
        /// The folded expression.
        map: MapI,
        /// i64 accumulator index.
        acc: u8,
    },
    /// i64: `acc += if x % m == r { x / d } else { a*x + b }` — the
    /// guarded-division ("Collatz step") shape. All operands are
    /// literals so division by small constants strength-reduces.
    SelRemDivLinI {
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
        /// i64 accumulator index.
        acc: u8,
    },
}

impl FusedTape {
    /// A stable human-readable name for EXPLAIN output, e.g.
    /// `sum(x*x):f64` or `filter(x%3==0)·sum(x*x):i64`.
    pub fn label(&self) -> String {
        fn map_f(map: &MapF) -> String {
            match map {
                MapF::X => "x".to_string(),
                MapF::Sq => "x*x".to_string(),
                MapF::MulKR(k) => format!("x*{}", k.name()),
                MapF::MulKL(k) => format!("{}*x", k.name()),
                MapF::K(k) => k.name(),
            }
        }
        fn map_i(map: &MapI) -> String {
            match map {
                MapI::X => "x".to_string(),
                MapI::Sq => "x*x".to_string(),
                MapI::MulK(k) => format!("x*{}", k.name()),
                MapI::Lin(a, b) => format!("{}*x+{}", a.name(), b.name()),
                MapI::K(k) => k.name(),
            }
        }
        fn with_pred_f(pred: &Option<(CmpK, ScalF)>, body: String) -> String {
            match pred {
                None => body,
                Some((op, c)) => format!("filter(x{}{})·{body}", op.symbol(), c.name()),
            }
        }
        fn with_pred_i(pred: &Option<PredI>, body: String) -> String {
            match pred {
                None => body,
                Some(PredI::Cmp(op, c)) => {
                    format!("filter(x{}{})·{body}", op.symbol(), c.name())
                }
                Some(PredI::RemCmp { m, r, ne }) => format!(
                    "filter(x%{}{}{})·{body}",
                    m.name(),
                    if *ne { "!=" } else { "==" },
                    r.name()
                ),
            }
        }
        match self {
            FusedTape::SumF { pred, map, .. } => {
                with_pred_f(pred, format!("sum({}):f64", map_f(map)))
            }
            FusedTape::SumI { pred, map, .. } => {
                with_pred_i(pred, format!("sum({}):i64", map_i(map)))
            }
            FusedTape::FoldF { kind, pred, map, .. } => {
                with_pred_f(pred, format!("{}({}):f64", kind.name(), map_f(map)))
            }
            FusedTape::FoldI { kind, pred, map, .. } => {
                with_pred_i(pred, format!("{}({}):i64", kind.name(), map_i(map)))
            }
            FusedTape::SelRemDivLinI { m, r, d, a, b, .. } => {
                format!("sum(x%{m}=={r} ? x/{d} : {a}*x+{b}):i64")
            }
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
    /// The fully-recognized guarded-division select (literals only).
    SelRDL {
        m: i64,
        r: i64,
        d: i64,
        a: i64,
        b: i64,
    },
    Other,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum EB {
    /// `x OP c` over the f64 lane (normalized: x on the left).
    CmpF(CmpK, ScalF),
    /// `x OP c` over the i64 lane.
    CmpI(CmpK, ScalI),
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
/// the tape is exactly a (filter?)·map·sum pipeline whose pieces all
/// match a pre-monomorphized shape. Checked (trapping) division, more
/// than one filter, min/max folds, grouped aggregates, output pushes,
/// UDF calls, casts, and boolean algebra all disqualify.
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

    let mut pred_f: Option<(CmpK, ScalF)> = None;
    let mut pred_i: Option<PredI> = None;
    let mut filtered = false;
    let mut red: Option<FusedTape> = None;

    for op in &bp.tape {
        // The sum must be the last effect: anything after it would
        // observe state the fused loop no longer materializes.
        if red.is_some() {
            return None;
        }
        match *op {
            BOp::LoadF(d) => ef[d as usize] = EF::X,
            BOp::LoadI(d) => ei[d as usize] = EI::X,
            BOp::LoadB(_) => return None,
            // The fused loops run the whole column: no early exit.
            BOp::Cut(_) => return None,

            BOp::MulF(d, a, b) => {
                ef[d as usize] = match (ef[a as usize], ef[b as usize]) {
                    (EF::X, EF::X) => EF::Map(MapF::Sq),
                    (EF::X, EF::S(k)) => EF::Map(MapF::MulKR(k)),
                    (EF::S(k), EF::X) => EF::Map(MapF::MulKL(k)),
                    _ => EF::Other,
                }
            }
            // Any other f64 compute just makes its destination opaque.
            BOp::AddF(d, ..)
            | BOp::SubF(d, ..)
            | BOp::DivF(d, ..)
            | BOp::RemF(d, ..)
            | BOp::MinF(d, ..)
            | BOp::MaxF(d, ..)
            | BOp::NegF(d, ..)
            | BOp::AbsF(d, ..)
            | BOp::SqrtF(d, ..)
            | BOp::FloorF(d, ..)
            | BOp::I2F(d, ..)
            | BOp::SelF { dst: d, .. }
            | BOp::MulAddF(d, ..) => ef[d as usize] = EF::Other,

            BOp::MulI(d, a, b) => {
                ei[d as usize] = match (ei[a as usize], ei[b as usize]) {
                    (EI::X, EI::X) => EI::Map(MapI::Sq),
                    (EI::X, EI::S(k)) | (EI::S(k), EI::X) => EI::Map(MapI::MulK(k)),
                    _ => EI::Other,
                }
            }
            BOp::AddI(d, a, b) => {
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
            BOp::SubI(d, ..)
            | BOp::MinI(d, ..)
            | BOp::MaxI(d, ..)
            | BOp::NegI(d, ..)
            | BOp::AbsI(d, ..)
            | BOp::F2I(d, ..)
            | BOp::SelI { dst: d, .. }
            | BOp::MulAddI(d, ..) => {
                // SelI gets a second chance below for the guarded-div
                // shape; everything else is opaque.
                if let BOp::SelI { dst, mask, t, e } = *op {
                    ei[dst as usize] =
                        sel_rdl(eb[mask as usize], ei[t as usize], ei[e as usize]);
                } else {
                    ei[d as usize] = EI::Other;
                }
            }

            BOp::EqFB(d, a, b) => eb[d as usize] = cmp_f(CmpK::Eq, ef[a as usize], ef[b as usize]),
            BOp::NeFB(d, a, b) => eb[d as usize] = cmp_f(CmpK::Ne, ef[a as usize], ef[b as usize]),
            BOp::LtFB(d, a, b) => eb[d as usize] = cmp_f(CmpK::Lt, ef[a as usize], ef[b as usize]),
            BOp::LeFB(d, a, b) => eb[d as usize] = cmp_f(CmpK::Le, ef[a as usize], ef[b as usize]),
            BOp::GtFB(d, a, b) => eb[d as usize] = cmp_f(CmpK::Gt, ef[a as usize], ef[b as usize]),
            BOp::GeFB(d, a, b) => eb[d as usize] = cmp_f(CmpK::Ge, ef[a as usize], ef[b as usize]),
            BOp::EqIB(d, a, b) => eb[d as usize] = cmp_i(CmpK::Eq, ei[a as usize], ei[b as usize]),
            BOp::NeIB(d, a, b) => eb[d as usize] = cmp_i(CmpK::Ne, ei[a as usize], ei[b as usize]),
            BOp::LtIB(d, a, b) => eb[d as usize] = cmp_i(CmpK::Lt, ei[a as usize], ei[b as usize]),
            BOp::LeIB(d, a, b) => eb[d as usize] = cmp_i(CmpK::Le, ei[a as usize], ei[b as usize]),
            BOp::GtIB(d, a, b) => eb[d as usize] = cmp_i(CmpK::Gt, ei[a as usize], ei[b as usize]),
            BOp::GeIB(d, a, b) => eb[d as usize] = cmp_i(CmpK::Ge, ei[a as usize], ei[b as usize]),
            BOp::EqBB(d, ..)
            | BOp::NeBB(d, ..)
            | BOp::AndB(d, ..)
            | BOp::OrB(d, ..)
            | BOp::NotB(d, ..)
            | BOp::SelB { dst: d, .. } => eb[d as usize] = EB::Other,

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

            BOp::RedAddF { acc, val } => {
                if pred_i.is_some() {
                    return None;
                }
                let map = ef_as_map(ef[val as usize])?;
                red = Some(FusedTape::SumF {
                    pred: pred_f,
                    map,
                    acc,
                });
            }
            BOp::RedAddI { acc, val } => {
                if pred_f.is_some() {
                    return None;
                }
                if let EI::SelRDL { m, r, d, a, b } = ei[val as usize] {
                    if pred_i.is_some() {
                        return None;
                    }
                    red = Some(FusedTape::SelRemDivLinI {
                        m,
                        r,
                        d,
                        a,
                        b,
                        acc,
                    });
                } else {
                    let map = ei_as_map(ei[val as usize])?;
                    red = Some(FusedTape::SumI {
                        pred: pred_i,
                        map,
                        acc,
                    });
                }
            }

            BOp::RedMinF { acc, val } | BOp::RedMaxF { acc, val } => {
                if pred_i.is_some() {
                    return None;
                }
                let kind = if matches!(*op, BOp::RedMinF { .. }) {
                    FoldKind::Min
                } else {
                    FoldKind::Max
                };
                let map = ef_as_map(ef[val as usize])?;
                red = Some(FusedTape::FoldF {
                    kind,
                    pred: pred_f,
                    map,
                    acc,
                });
            }
            BOp::RedMinI { acc, val } | BOp::RedMaxI { acc, val } => {
                if pred_f.is_some() {
                    return None;
                }
                let kind = if matches!(*op, BOp::RedMinI { .. }) {
                    FoldKind::Min
                } else {
                    FoldKind::Max
                };
                let map = ei_as_map(ei[val as usize])?;
                red = Some(FusedTape::FoldI {
                    kind,
                    pred: pred_i,
                    map,
                    acc,
                });
            }

            // Grouped aggregates and output pushes stay on the kernel
            // path.
            BOp::GroupAddF { .. }
            | BOp::GroupAddI { .. }
            | BOp::SortPush { .. }
            | BOp::DistinctPush { .. }
            | BOp::LoadSnd(..)
            | BOp::OutPair(..)
            | BOp::Call { .. }
            | BOp::OutF(..)
            | BOp::OutI(..)
            | BOp::OutB(..)
            | BOp::MulRedAddF { .. }
            | BOp::MulRedAddI { .. } => return None,
        }
    }
    // The fused loop iterates the source column in its own lane; a
    // cross-lane reduction (e.g. a count — an i64 sum over f64 rows)
    // stays on the kernel path.
    match &red {
        Some(FusedTape::SumF { .. } | FusedTape::FoldF { .. }) if bp.src_lane != Lane::F => None,
        Some(
            FusedTape::SumI { .. } | FusedTape::FoldI { .. } | FusedTape::SelRemDivLinI { .. },
        ) if bp.src_lane != Lane::I => None,
        _ => red,
    }
}

fn cmp_f(op: CmpK, a: EF, b: EF) -> EB {
    match (a, b) {
        (EF::X, EF::S(c)) => EB::CmpF(op, c),
        (EF::S(c), EF::X) => EB::CmpF(op.flipped(), c),
        _ => EB::Other,
    }
}

fn cmp_i(op: CmpK, a: EI, b: EI) -> EB {
    match (a, b) {
        (EI::X, EI::S(c)) => EB::CmpI(op, c),
        (EI::S(c), EI::X) => EB::CmpI(op.flipped(), c),
        (EI::RemK(m), EI::S(r)) | (EI::S(r), EI::RemK(m)) => match op {
            CmpK::Eq => EB::RemCmp { m, r, ne: false },
            CmpK::Ne => EB::RemCmp { m, r, ne: true },
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
            EI::SelRDL { m, r, d, a, b }
        }
        _ => EI::Other,
    }
}

// ---------------------------------------------------------------------
// Fused execution.
// ---------------------------------------------------------------------

/// One fused pass of `if pred(x) { *acc += map(x) }`, polling the
/// interrupt once per [`BATCH`] elements. Each call site monomorphizes
/// `pred` and `map` fully.
///
/// The body is written **masked**, not branchy: every lane adds either
/// `map(x)` or `-0.0`. Under round-to-nearest, `a + (-0.0) == a`
/// bit-for-bit for every `a` (including `±0.0`; `+0.0` would flip a
/// `-0.0` accumulator, which is why the identity must be negative
/// zero), so the select is exactly the branchy loop — but it turns an
/// unpredictable data-dependent branch into a `cmp`+`blend` that LLVM
/// if-converts and vectorizes, which is precisely the shape a
/// hand-written filtered sum compiles to. Evaluating `map`
/// unconditionally is sound because fused maps are total (no trapping
/// op survives [`plan`]).
#[inline]
fn loop_f(
    xs: &[f64],
    acc: &mut f64,
    interrupt: &Interrupt,
    pred: impl Fn(f64) -> bool,
    map: impl Fn(f64) -> f64,
) -> Result<(), VmError> {
    let mut a = *acc;
    for chunk in xs.chunks(BATCH) {
        interrupt.check()?;
        for &x in chunk {
            let v = map(x);
            a += if pred(x) { v } else { -0.0 };
        }
    }
    *acc = a;
    Ok(())
}

/// The i64 twin of [`loop_f`] (wrapping accumulation; the masked
/// identity is plain `0`, which is exact for wrapping addition).
#[inline]
fn loop_i(
    xs: &[i64],
    acc: &mut i64,
    interrupt: &Interrupt,
    pred: impl Fn(i64) -> bool,
    map: impl Fn(i64) -> i64,
) -> Result<(), VmError> {
    let mut a = *acc;
    for chunk in xs.chunks(BATCH) {
        interrupt.check()?;
        for &x in chunk {
            let v = map(x);
            a = a.wrapping_add(if pred(x) { v } else { 0 });
        }
    }
    *acc = a;
    Ok(())
}

/// One fused min/max pass. Folds live lanes only, in the `total_cmp`
/// order images of [`crate::sink::order_f`] — an `i64` min/max there is
/// exactly the [`crate::sink::min_total`]/[`crate::sink::max_total`]
/// fold of the [`crate::kernels::fold_order`] sequence it replaces, so
/// results stay bit-identical (NaNs and signed zeros included) while the
/// loop-carried step is one integer compare. Masked lanes skip the fold entirely rather than
/// folding an identity: min/max have no universally exact identity
/// element the way `-0.0` is for addition.
#[inline]
fn fold_f(
    xs: &[f64],
    acc: &mut f64,
    interrupt: &Interrupt,
    pred: impl Fn(f64) -> bool,
    map: impl Fn(f64) -> f64,
    fold: impl Fn(i64, i64) -> i64,
) -> Result<(), VmError> {
    let mut a = order_f(*acc);
    for chunk in xs.chunks(BATCH) {
        interrupt.check()?;
        for &x in chunk {
            if pred(x) {
                a = fold(a, order_f(map(x)));
            }
        }
    }
    *acc = from_order_f(a);
    Ok(())
}

/// The i64 twin of [`fold_f`].
#[inline]
fn fold_i(
    xs: &[i64],
    acc: &mut i64,
    interrupt: &Interrupt,
    pred: impl Fn(i64) -> bool,
    map: impl Fn(i64) -> i64,
    fold: impl Fn(i64, i64) -> i64,
) -> Result<(), VmError> {
    let mut a = *acc;
    for chunk in xs.chunks(BATCH) {
        interrupt.check()?;
        for &x in chunk {
            if pred(x) {
                a = fold(a, map(x));
            }
        }
    }
    *acc = a;
    Ok(())
}

macro_rules! dispatch_pred_f {
    ($pred:expr, $xs:expr, $acc:expr, $intr:expr, $map:expr) => {{
        let map = $map;
        match $pred {
            None => loop_f($xs, $acc, $intr, |_| true, map),
            Some((CmpK::Eq, c)) => loop_f($xs, $acc, $intr, move |x| x == c, map),
            Some((CmpK::Ne, c)) => loop_f($xs, $acc, $intr, move |x| x != c, map),
            Some((CmpK::Lt, c)) => loop_f($xs, $acc, $intr, move |x| x < c, map),
            Some((CmpK::Le, c)) => loop_f($xs, $acc, $intr, move |x| x <= c, map),
            Some((CmpK::Gt, c)) => loop_f($xs, $acc, $intr, move |x| x > c, map),
            Some((CmpK::Ge, c)) => loop_f($xs, $acc, $intr, move |x| x >= c, map),
        }
    }};
}

macro_rules! dispatch_fold_f {
    ($pred:expr, $xs:expr, $acc:expr, $intr:expr, $map:expr, $fold:expr) => {{
        let map = $map;
        let fold = $fold;
        match $pred {
            None => fold_f($xs, $acc, $intr, |_| true, map, fold),
            Some((CmpK::Eq, c)) => fold_f($xs, $acc, $intr, move |x| x == c, map, fold),
            Some((CmpK::Ne, c)) => fold_f($xs, $acc, $intr, move |x| x != c, map, fold),
            Some((CmpK::Lt, c)) => fold_f($xs, $acc, $intr, move |x| x < c, map, fold),
            Some((CmpK::Le, c)) => fold_f($xs, $acc, $intr, move |x| x <= c, map, fold),
            Some((CmpK::Gt, c)) => fold_f($xs, $acc, $intr, move |x| x > c, map, fold),
            Some((CmpK::Ge, c)) => fold_f($xs, $acc, $intr, move |x| x >= c, map, fold),
        }
    }};
}

/// Dispatches a recognized i64 remainder guard, value-specializing
/// small literal moduli so LLVM strength-reduces the division (the
/// difference between a magic-multiply and a 20+-cycle hardware divide
/// per lane).
macro_rules! rem_pred_i {
    ($m:expr, $r:expr, $ne:expr, $xs:expr, $acc:expr, $intr:expr, $map:expr) => {{
        let map = $map;
        let r = $r;
        match ($m, $ne) {
            (2, false) => loop_i($xs, $acc, $intr, move |x| x.wrapping_rem(2) == r, map),
            (2, true) => loop_i($xs, $acc, $intr, move |x| x.wrapping_rem(2) != r, map),
            (3, false) => loop_i($xs, $acc, $intr, move |x| x.wrapping_rem(3) == r, map),
            (3, true) => loop_i($xs, $acc, $intr, move |x| x.wrapping_rem(3) != r, map),
            (4, false) => loop_i($xs, $acc, $intr, move |x| x.wrapping_rem(4) == r, map),
            (4, true) => loop_i($xs, $acc, $intr, move |x| x.wrapping_rem(4) != r, map),
            (5, false) => loop_i($xs, $acc, $intr, move |x| x.wrapping_rem(5) == r, map),
            (5, true) => loop_i($xs, $acc, $intr, move |x| x.wrapping_rem(5) != r, map),
            (m, false) => loop_i($xs, $acc, $intr, move |x| x.wrapping_rem(m) == r, map),
            (m, true) => loop_i($xs, $acc, $intr, move |x| x.wrapping_rem(m) != r, map),
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
        (FusedTape::SumF { pred, map, acc }, BatchData::F(xs)) => {
            let acc = &mut f_accs[*acc as usize];
            let pred = pred.map(|(op, c)| (op, c.get(f_params)));
            match *map {
                MapF::X => dispatch_pred_f!(pred, xs, acc, interrupt, |x| x),
                MapF::Sq => dispatch_pred_f!(pred, xs, acc, interrupt, |x| x * x),
                MapF::MulKR(k) => {
                    let k = k.get(f_params);
                    dispatch_pred_f!(pred, xs, acc, interrupt, move |x| x * k)
                }
                MapF::MulKL(k) => {
                    let k = k.get(f_params);
                    dispatch_pred_f!(pred, xs, acc, interrupt, move |x| k * x)
                }
                MapF::K(k) => {
                    let k = k.get(f_params);
                    dispatch_pred_f!(pred, xs, acc, interrupt, move |_| k)
                }
            }
        }
        (FusedTape::SumI { pred, map, acc }, BatchData::I(xs)) => {
            let acc = &mut i_accs[*acc as usize];
            match *map {
                MapI::X => sum_i(pred, i_params, xs, acc, interrupt, |x| x),
                MapI::Sq => sum_i(pred, i_params, xs, acc, interrupt, |x| x.wrapping_mul(x)),
                MapI::MulK(k) => {
                    let k = k.get(i_params);
                    sum_i(pred, i_params, xs, acc, interrupt, move |x| {
                        x.wrapping_mul(k)
                    })
                }
                MapI::Lin(a, b) => {
                    let (a, b) = (a.get(i_params), b.get(i_params));
                    sum_i(pred, i_params, xs, acc, interrupt, move |x| {
                        a.wrapping_mul(x).wrapping_add(b)
                    })
                }
                MapI::K(k) => {
                    let k = k.get(i_params);
                    sum_i(pred, i_params, xs, acc, interrupt, move |_| k)
                }
            }
        }
        (
            FusedTape::SelRemDivLinI {
                m,
                r,
                d,
                a,
                b,
                acc,
            },
            BatchData::I(xs),
        ) => {
            let (r, a, b) = (*r, *a, *b);
            let acc = &mut i_accs[*acc as usize];
            // Value-specialize the common small-constant guard/divisor
            // pairs; the fallback keeps the fusion win (no column
            // traffic) with runtime divides.
            match (*m, *d) {
                (2, 2) => loop_i(xs, acc, interrupt, |_| true, move |x| {
                    if x.wrapping_rem(2) == r {
                        x.wrapping_div(2)
                    } else {
                        a.wrapping_mul(x).wrapping_add(b)
                    }
                }),
                (2, 4) => loop_i(xs, acc, interrupt, |_| true, move |x| {
                    if x.wrapping_rem(2) == r {
                        x.wrapping_div(4)
                    } else {
                        a.wrapping_mul(x).wrapping_add(b)
                    }
                }),
                (3, 3) => loop_i(xs, acc, interrupt, |_| true, move |x| {
                    if x.wrapping_rem(3) == r {
                        x.wrapping_div(3)
                    } else {
                        a.wrapping_mul(x).wrapping_add(b)
                    }
                }),
                (m, d) => loop_i(xs, acc, interrupt, |_| true, move |x| {
                    if x.wrapping_rem(m) == r {
                        x.wrapping_div(d)
                    } else {
                        a.wrapping_mul(x).wrapping_add(b)
                    }
                }),
            }
        }
        (FusedTape::FoldF { kind, pred, map, acc }, BatchData::F(xs)) => {
            let acc = &mut f_accs[*acc as usize];
            let pred = pred.map(|(op, c)| (op, c.get(f_params)));
            match kind {
                FoldKind::Min => run_fold_f(pred, *map, xs, acc, f_params, interrupt, i64::min),
                FoldKind::Max => run_fold_f(pred, *map, xs, acc, f_params, interrupt, i64::max),
            }
        }
        (FusedTape::FoldI { kind, pred, map, acc }, BatchData::I(xs)) => {
            let acc = &mut i_accs[*acc as usize];
            match kind {
                FoldKind::Min => {
                    run_fold_i(pred, *map, xs, acc, i_params, interrupt, |a: i64, x| a.min(x))
                }
                FoldKind::Max => {
                    run_fold_i(pred, *map, xs, acc, i_params, interrupt, |a: i64, x| a.max(x))
                }
            }
        }
        // A lane mismatch here would mean the compiler attached a fused
        // plan to the wrong source; fall back to doing nothing is wrong,
        // so surface it as a shape error.
        _ => Err(VmError::Shape("fused kernel lane mismatch".into())),
    }
}

/// Monomorphizes a fused f64 fold over its map, then its predicate.
#[inline]
fn run_fold_f(
    pred: Option<(CmpK, f64)>,
    map: MapF,
    xs: &[f64],
    acc: &mut f64,
    f_params: &[f64],
    interrupt: &Interrupt,
    fold: impl Fn(i64, i64) -> i64 + Copy,
) -> Result<(), VmError> {
    match map {
        MapF::X => dispatch_fold_f!(pred, xs, acc, interrupt, |x| x, fold),
        MapF::Sq => dispatch_fold_f!(pred, xs, acc, interrupt, |x| x * x, fold),
        MapF::MulKR(k) => {
            let k = k.get(f_params);
            dispatch_fold_f!(pred, xs, acc, interrupt, move |x| x * k, fold)
        }
        MapF::MulKL(k) => {
            let k = k.get(f_params);
            dispatch_fold_f!(pred, xs, acc, interrupt, move |x| k * x, fold)
        }
        MapF::K(k) => {
            let k = k.get(f_params);
            dispatch_fold_f!(pred, xs, acc, interrupt, move |_| k, fold)
        }
    }
}

/// Monomorphizes a fused i64 fold over its map, then its predicate.
#[inline]
fn run_fold_i(
    pred: &Option<PredI>,
    map: MapI,
    xs: &[i64],
    acc: &mut i64,
    i_params: &[i64],
    interrupt: &Interrupt,
    fold: impl Fn(i64, i64) -> i64 + Copy,
) -> Result<(), VmError> {
    match map {
        MapI::X => fold_i_pred(pred, i_params, xs, acc, interrupt, |x| x, fold),
        MapI::Sq => fold_i_pred(
            pred,
            i_params,
            xs,
            acc,
            interrupt,
            |x| x.wrapping_mul(x),
            fold,
        ),
        MapI::MulK(k) => {
            let k = k.get(i_params);
            fold_i_pred(
                pred,
                i_params,
                xs,
                acc,
                interrupt,
                move |x| x.wrapping_mul(k),
                fold,
            )
        }
        MapI::Lin(a, b) => {
            let (a, b) = (a.get(i_params), b.get(i_params));
            fold_i_pred(
                pred,
                i_params,
                xs,
                acc,
                interrupt,
                move |x| a.wrapping_mul(x).wrapping_add(b),
                fold,
            )
        }
        MapI::K(k) => {
            let k = k.get(i_params);
            fold_i_pred(pred, i_params, xs, acc, interrupt, move |_| k, fold)
        }
    }
}

/// Dispatches an i64 predicate around a monomorphized fold.
#[inline]
fn fold_i_pred(
    pred: &Option<PredI>,
    i_params: &[i64],
    xs: &[i64],
    acc: &mut i64,
    interrupt: &Interrupt,
    map: impl Fn(i64) -> i64 + Copy,
    fold: impl Fn(i64, i64) -> i64 + Copy,
) -> Result<(), VmError> {
    match *pred {
        None => fold_i(xs, acc, interrupt, |_| true, map, fold),
        Some(PredI::Cmp(op, c)) => {
            let c = c.get(i_params);
            match op {
                CmpK::Eq => fold_i(xs, acc, interrupt, move |x| x == c, map, fold),
                CmpK::Ne => fold_i(xs, acc, interrupt, move |x| x != c, map, fold),
                CmpK::Lt => fold_i(xs, acc, interrupt, move |x| x < c, map, fold),
                CmpK::Le => fold_i(xs, acc, interrupt, move |x| x <= c, map, fold),
                CmpK::Gt => fold_i(xs, acc, interrupt, move |x| x > c, map, fold),
                CmpK::Ge => fold_i(xs, acc, interrupt, move |x| x >= c, map, fold),
            }
        }
        Some(PredI::RemCmp { m, r, ne }) => {
            let (m, r) = (m.get(i_params), r.get(i_params));
            if ne {
                fold_i(xs, acc, interrupt, move |x| x.wrapping_rem(m) != r, map, fold)
            } else {
                fold_i(xs, acc, interrupt, move |x| x.wrapping_rem(m) == r, map, fold)
            }
        }
    }
}

/// Dispatches an i64 predicate around a monomorphized map.
#[inline]
fn sum_i(
    pred: &Option<PredI>,
    i_params: &[i64],
    xs: &[i64],
    acc: &mut i64,
    interrupt: &Interrupt,
    map: impl Fn(i64) -> i64 + Copy,
) -> Result<(), VmError> {
    match *pred {
        None => loop_i(xs, acc, interrupt, |_| true, map),
        Some(PredI::Cmp(op, c)) => {
            let c = c.get(i_params);
            match op {
                CmpK::Eq => loop_i(xs, acc, interrupt, move |x| x == c, map),
                CmpK::Ne => loop_i(xs, acc, interrupt, move |x| x != c, map),
                CmpK::Lt => loop_i(xs, acc, interrupt, move |x| x < c, map),
                CmpK::Le => loop_i(xs, acc, interrupt, move |x| x <= c, map),
                CmpK::Gt => loop_i(xs, acc, interrupt, move |x| x > c, map),
                CmpK::Ge => loop_i(xs, acc, interrupt, move |x| x >= c, map),
            }
        }
        Some(PredI::RemCmp { m, r, ne }) => {
            let (m, r) = (m.get(i_params), r.get(i_params));
            rem_pred_i!(m, r, ne, xs, acc, interrupt, map)
        }
    }
}

// ---------------------------------------------------------------------
// Peephole: the generic two-op fused kernels.
// ---------------------------------------------------------------------

/// Fuses adjacent multiply→add and multiply→reduce kernel pairs into
/// the [`BOp::MulAddF`] / [`BOp::MulRedAddF`] families, eliminating one
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
            (Some(BOp::MulF(t, a, b)), Some(BOp::AddF(d, l, r)))
                if l == t && r != t && !f_slot_used_after(&bp.tape, i + 2, t) =>
            {
                Some((BOp::MulAddF(d, a, b, r), "muladd:f64"))
            }
            (Some(BOp::MulI(t, a, b)), Some(BOp::AddI(d, l, r)))
                if (l == t) != (r == t) && !i_slot_used_after(&bp.tape, i + 2, t) =>
            {
                let c = if l == t { r } else { l };
                Some((BOp::MulAddI(d, a, b, c), "muladd:i64"))
            }
            (Some(BOp::MulF(t, a, b)), Some(BOp::RedAddF { acc, val }))
                if val == t && !f_slot_used_after(&bp.tape, i + 2, t) =>
            {
                Some((BOp::MulRedAddF { acc, a, b }, "mulred:f64"))
            }
            (Some(BOp::MulI(t, a, b)), Some(BOp::RedAddI { acc, val }))
                if val == t && !i_slot_used_after(&bp.tape, i + 2, t) =>
            {
                Some((BOp::MulRedAddI { acc, a, b }, "mulred:i64"))
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

/// Whether any op at `tape[from..]` reads f64 slot `s`.
fn f_slot_used_after(tape: &[BOp], from: usize, s: u8) -> bool {
    tape[from..].iter().any(|op| {
        let mut used = false;
        crate::lifetimes::bop_uses(op, |bank, slot| {
            used |= bank == crate::lifetimes::BankK::F && slot == s;
        });
        used
    })
}

/// Whether any op at `tape[from..]` reads i64 slot `s`.
fn i_slot_used_after(tape: &[BOp], from: usize, s: u8) -> bool {
    tape[from..].iter().any(|op| {
        let mut used = false;
        crate::lifetimes::bop_uses(op, |bank, slot| {
            used |= bank == crate::lifetimes::BankK::I && slot == s;
        });
        used
    })
}
