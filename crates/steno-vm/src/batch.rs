//! The vectorized execution tier: typed column batches with selection
//! vectors.
//!
//! This is the only tier above the scalar bytecode: every loop it
//! refuses runs element-at-a-time. It is a vectorized engine in the
//! MonetDB/X100 style the paper's §9 gestures at:
//!
//! * **three unboxed slot banks** (`f64`, `i64`, `bool`), each a vector
//!   of 1024-lane batches, so integer and boolean pipelines vectorize
//!   too and comparisons produce real `bool` masks instead of float
//!   encodings;
//! * a **selection vector** (`Vec<u32>` of surviving lane indices) built
//!   by `Filter` ops, with a dense fast path when no filter has fired —
//!   compute stays branch-free and dense, while trapping ops, folds, and
//!   effects consult only the live lanes (see [`crate::kernels`]);
//! * a **unified tape** interleaving compute, filters, reductions,
//!   grouped-aggregate upserts, and output pushes in statement order, so
//!   one loop body with mixed effects still becomes one batch program.
//!
//! Results are **bit-identical** to the scalar reference semantics:
//! folds and effects consume live lanes in ascending element order, and
//! trapping integer division checks exactly the lanes the scalar loop
//! would evaluate (a dead lane dividing by zero must *not* fault).
//! Anything that does not fit — boxed elements, UDF calls, nested
//! loops, multiple yields — falls back to the scalar bytecode path, and
//! the compiler records why (see `Program::batch_fallbacks`).

use std::sync::Arc;

use steno_expr::Value;

use crate::exec::VmError;
use crate::instr::{FReg, IReg, SinkId, SrcId};
use crate::kernels;
use crate::sink::{upsert_sf, upsert_si, ScalarKey, SinkRt};

/// Batch width: lanes processed per tape pass. One batch of any bank
/// type fits comfortably in L1.
pub const BATCH: usize = 1024;

/// Which unboxed bank a source column (or group key) lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// The f64 bank.
    F,
    /// The i64 bank.
    I,
    /// The bool bank.
    B,
}

/// A loop-invariant slot fill, run once before the chunk loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BInit {
    /// Broadcast an f64 constant.
    ConstF(u8, f64),
    /// Broadcast an i64 constant.
    ConstI(u8, i64),
    /// Broadcast a bool constant.
    ConstB(u8, bool),
    /// Broadcast f64 parameter `p` (index into the snapshot).
    ParamF(u8, u8),
    /// Broadcast i64 parameter `p`.
    ParamI(u8, u8),
    /// Broadcast bool parameter `p` (i64 snapshot, nonzero = true).
    ParamB(u8, u8),
}

/// A group key operand: which bank and slot the key batch lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyRef {
    /// f64 key slot.
    F(u8),
    /// i64 key slot.
    I(u8),
    /// bool key slot.
    B(u8),
}

/// One vectorized tape operation.
///
/// The compiler emits slots in SSA order *per bank* (every destination a
/// fresh slot), but [`crate::lifetimes::pack_batch_slots`] then reuses
/// dead slots, so a destination may alias any source — including itself.
/// The executor therefore uses the aliasing-safe `_any` kernels (see
/// [`crate::kernels`]), which read each lane before writing it. Compute
/// ops run dense; `Div`/`Rem` on i64, folds, and effects consult the
/// selection vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BOp {
    // -- loads ---------------------------------------------------------
    /// `f[d] = current batch of f64 source elements`.
    LoadF(u8),
    /// `i[d] = current batch of i64 source elements`.
    LoadI(u8),
    /// `b[d] = current batch of bool source elements`.
    LoadB(u8),

    // -- f64 arithmetic (dense; float ops never trap) ------------------
    /// `f[d] = f[a] + f[b]`.
    AddF(u8, u8, u8),
    /// `f[d] = f[a] - f[b]`.
    SubF(u8, u8, u8),
    /// `f[d] = f[a] * f[b]`.
    MulF(u8, u8, u8),
    /// `f[d] = f[a] / f[b]` (IEEE, no trap).
    DivF(u8, u8, u8),
    /// `f[d] = f[a] % f[b]` (IEEE, no trap).
    RemF(u8, u8, u8),
    /// `f[d] = f[a].min(f[b])`.
    MinF(u8, u8, u8),
    /// `f[d] = f[a].max(f[b])`.
    MaxF(u8, u8, u8),
    /// `f[d] = -f[a]`.
    NegF(u8, u8),
    /// `f[d] = f[a].abs()`.
    AbsF(u8, u8),
    /// `f[d] = f[a].sqrt()`.
    SqrtF(u8, u8),
    /// `f[d] = f[a].floor()`.
    FloorF(u8, u8),

    // -- i64 arithmetic (dense, wrapping — matches the scalar VM) ------
    /// `i[d] = i[a].wrapping_add(i[b])`.
    AddI(u8, u8, u8),
    /// `i[d] = i[a].wrapping_sub(i[b])`.
    SubI(u8, u8, u8),
    /// `i[d] = i[a].wrapping_mul(i[b])`.
    MulI(u8, u8, u8),
    /// `i[d] = i[a].min(i[b])`.
    MinI(u8, u8, u8),
    /// `i[d] = i[a].max(i[b])`.
    MaxI(u8, u8, u8),
    /// `i[d] = i[a].wrapping_neg()`.
    NegI(u8, u8),
    /// `i[d] = i[a].wrapping_abs()`.
    AbsI(u8, u8),

    // -- trapping i64 division (selected lanes only) -------------------
    /// `i[d] = i[a].wrapping_div(i[b])` on live lanes; faults iff a live
    /// lane's divisor is zero (checked in ascending element order).
    DivI(u8, u8, u8),
    /// `i[d] = i[a].wrapping_rem(i[b])` on live lanes; faults as `DivI`.
    RemI(u8, u8, u8),

    // -- guard-free i64 division (dense) -------------------------------
    /// `i[d] = i[a].wrapping_div(i[b])` dense, with no zero-divisor
    /// check and no selection consult: emitted only when interval
    /// analysis proved the divisor expression excludes zero on *every*
    /// input, so no lane — live or dead — can fault.
    DivIUnchecked(u8, u8, u8),
    /// `i[d] = i[a].wrapping_rem(i[b])` dense; same proof obligation as
    /// `DivIUnchecked`.
    RemIUnchecked(u8, u8, u8),

    // -- comparisons into the bool bank --------------------------------
    /// `b[d] = f[a] == f[b]`.
    EqFB(u8, u8, u8),
    /// `b[d] = f[a] != f[b]`.
    NeFB(u8, u8, u8),
    /// `b[d] = f[a] < f[b]`.
    LtFB(u8, u8, u8),
    /// `b[d] = f[a] <= f[b]`.
    LeFB(u8, u8, u8),
    /// `b[d] = f[a] > f[b]`.
    GtFB(u8, u8, u8),
    /// `b[d] = f[a] >= f[b]`.
    GeFB(u8, u8, u8),
    /// `b[d] = i[a] == i[b]`.
    EqIB(u8, u8, u8),
    /// `b[d] = i[a] != i[b]`.
    NeIB(u8, u8, u8),
    /// `b[d] = i[a] < i[b]`.
    LtIB(u8, u8, u8),
    /// `b[d] = i[a] <= i[b]`.
    LeIB(u8, u8, u8),
    /// `b[d] = i[a] > i[b]`.
    GtIB(u8, u8, u8),
    /// `b[d] = i[a] >= i[b]`.
    GeIB(u8, u8, u8),
    /// `b[d] = b[a] == b[b]`.
    EqBB(u8, u8, u8),
    /// `b[d] = b[a] != b[b]`.
    NeBB(u8, u8, u8),

    // -- boolean algebra (eager; compiler rejects trapping RHS) --------
    /// `b[d] = b[a] & b[b]`.
    AndB(u8, u8, u8),
    /// `b[d] = b[a] | b[b]`.
    OrB(u8, u8, u8),
    /// `b[d] = !b[a]`.
    NotB(u8, u8),

    // -- casts ---------------------------------------------------------
    /// `i[d] = f[a] as i64` (saturating; NaN → 0 — Rust `as` semantics,
    /// same as the scalar VM).
    F2I(u8, u8),
    /// `f[d] = i[a] as f64`.
    I2F(u8, u8),

    // -- lane-wise selects ---------------------------------------------
    /// `f[dst] = b[mask] ? f[t] : f[e]`.
    SelF {
        /// Destination f64 slot.
        dst: u8,
        /// Mask bool slot.
        mask: u8,
        /// Value when set.
        t: u8,
        /// Value when clear.
        e: u8,
    },
    /// `i[dst] = b[mask] ? i[t] : i[e]`.
    SelI {
        /// Destination i64 slot.
        dst: u8,
        /// Mask bool slot.
        mask: u8,
        /// Value when set.
        t: u8,
        /// Value when clear.
        e: u8,
    },
    /// `b[dst] = b[mask] ? b[t] : b[e]`.
    SelB {
        /// Destination bool slot.
        dst: u8,
        /// Mask bool slot.
        mask: u8,
        /// Value when set.
        t: u8,
        /// Value when clear.
        e: u8,
    },

    // -- selection ------------------------------------------------------
    /// Intersect the selection vector with mask `b[m]` (a `Where`
    /// clause). Subsequent folds/effects see only surviving lanes.
    Filter(u8),

    // -- folds (strict, ascending element order over live lanes) -------
    /// `f_acc[acc] += f[val]` per live lane.
    RedAddF {
        /// Accumulator index.
        acc: u8,
        /// Value slot.
        val: u8,
    },
    /// `f_acc[acc] = f_acc[acc].min(f[val])` per live lane.
    RedMinF {
        /// Accumulator index.
        acc: u8,
        /// Value slot.
        val: u8,
    },
    /// `f_acc[acc] = f_acc[acc].max(f[val])` per live lane.
    RedMaxF {
        /// Accumulator index.
        acc: u8,
        /// Value slot.
        val: u8,
    },
    /// `i_acc[acc] = i_acc[acc].wrapping_add(i[val])` per live lane.
    RedAddI {
        /// Accumulator index.
        acc: u8,
        /// Value slot.
        val: u8,
    },
    /// `i_acc[acc] = i_acc[acc].min(i[val])` per live lane.
    RedMinI {
        /// Accumulator index.
        acc: u8,
        /// Value slot.
        val: u8,
    },
    /// `i_acc[acc] = i_acc[acc].max(i[val])` per live lane.
    RedMaxI {
        /// Accumulator index.
        acc: u8,
        /// Value slot.
        val: u8,
    },

    // -- grouped aggregates (§4.3 sinks, live lanes in order) ----------
    /// `table[key] += f[val]` per live lane into a `GroupAggSF` sink.
    GroupAddF {
        /// The scalar-key f64 sink.
        sink: SinkId,
        /// Key operand.
        key: KeyRef,
        /// f64 value slot.
        val: u8,
    },
    /// `table[key] += i[val]` per live lane into a `GroupAggSI` sink
    /// (a count is a sum of a broadcast 1).
    GroupAddI {
        /// The scalar-key i64 sink.
        sink: SinkId,
        /// Key operand.
        key: KeyRef,
        /// i64 value slot.
        val: u8,
    },

    // -- output (live lanes in order) ----------------------------------
    /// Push `f[s]` per live lane to the output buffer.
    OutF(u8),
    /// Push `i[s]` per live lane.
    OutI(u8),
    /// Push `b[s]` per live lane.
    OutB(u8),

    // -- two-op fused kernels (see crate::fuse_kernels::peephole) ------
    /// `f[d] = f[a] * f[b] + f[c]` in one pass (two roundings, exactly
    /// as the unfused pair — not an FMA).
    MulAddF(u8, u8, u8, u8),
    /// `i[d] = i[a].wrapping_mul(i[b]).wrapping_add(i[c])` in one pass.
    MulAddI(u8, u8, u8, u8),
    /// `f_acc[acc] += f[a] * f[b]` per live lane, without materializing
    /// the product column.
    MulRedAddF {
        /// Accumulator index.
        acc: u8,
        /// Left factor slot.
        a: u8,
        /// Right factor slot.
        b: u8,
    },
    /// `i_acc[acc] = i_acc[acc].wrapping_add(i[a].wrapping_mul(i[b]))`
    /// per live lane.
    MulRedAddI {
        /// Accumulator index.
        acc: u8,
        /// Left factor slot.
        a: u8,
        /// Right factor slot.
        b: u8,
    },
}

/// The batch tape exactly as the vectorizer emitted it, captured before
/// the backend passes (`fuse_kernels::plan`, `fuse_kernels::peephole`,
/// `lifetimes::pack_batch_slots`) rewrite it. The tape verifier
/// ([`crate::check`]) symbolically executes this against the optimized
/// tape; execution never touches it.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchShadow {
    /// f64 slot count before packing.
    pub n_f: u8,
    /// i64 slot count before packing.
    pub n_i: u8,
    /// bool slot count before packing.
    pub n_b: u8,
    /// Pre-optimization loop-invariant slot fills.
    pub prologue: Vec<BInit>,
    /// Pre-optimization per-batch tape.
    pub tape: Vec<BOp>,
}

/// The evidence the vectorizer recorded when it dropped a division trap
/// guard: the divisor expression and the type environment it analyzed it
/// under. The tape verifier re-runs `steno_analysis::analyze` on this and
/// independently re-derives that the interval excludes zero — the record
/// says *what* was proven, never *that* it was proven.
#[derive(Clone, Debug, PartialEq)]
pub struct DivProof {
    /// The divisor expression of the guarded division.
    pub divisor: steno_expr::Expr,
    /// Name→type bindings in scope at the division site, outer bindings
    /// first (loop locals shadow outer registers, so they bind last).
    pub env: Vec<(String, steno_expr::Ty)>,
}

/// A compiled batch program: one whole fused loop, vectorized.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchProgram {
    /// The source column the loop iterates.
    pub src: SrcId,
    /// The source's element lane.
    pub src_lane: Lane,
    /// Loop-invariant f64 inputs, read from these registers at entry.
    pub f_params: Vec<FReg>,
    /// Loop-invariant i64/bool inputs (bools live in I registers).
    pub i_params: Vec<IReg>,
    /// f64 accumulator registers, read at entry and written back at exit.
    pub f_accs: Vec<FReg>,
    /// i64/bool accumulator registers.
    pub i_accs: Vec<IReg>,
    /// Number of f64 slots.
    pub n_f: u8,
    /// Number of i64 slots.
    pub n_i: u8,
    /// Number of bool slots.
    pub n_b: u8,
    /// Loop-invariant slot fills, run once.
    pub prologue: Vec<BInit>,
    /// Per-batch operations, in statement order.
    pub tape: Vec<BOp>,
    /// Whole-tape fused kernel, when [`crate::fuse_kernels::plan`]
    /// recognized the loop. The tape is kept alongside it: profiled runs
    /// and differential tests execute the kernel sequence, plain runs
    /// take the fused single-pass loop.
    pub fused: Option<crate::fuse_kernels::FusedTape>,
    /// Pre-optimization reference tape for translation validation, or
    /// `None` for hand-assembled programs.
    pub shadow: Option<Arc<BatchShadow>>,
    /// One entry per `DivIUnchecked`/`RemIUnchecked` in the shadow tape,
    /// in emission order: the interval evidence that licensed dropping
    /// each trap guard.
    pub div_proofs: Vec<DivProof>,
}

/// A shared batch-program handle (keeps [`crate::instr::Instr`] small).
pub type BatchRef = Arc<BatchProgram>;

/// A borrowed typed source column.
#[derive(Clone, Copy, Debug)]
pub enum BatchData<'a> {
    /// f64 column.
    F(&'a [f64]),
    /// i64 column.
    I(&'a [i64]),
    /// bool column.
    B(&'a [bool]),
}

impl BatchData<'_> {
    /// Number of elements in the column.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            BatchData::F(xs) => xs.len(),
            BatchData::I(xs) => xs.len(),
            BatchData::B(xs) => xs.len(),
        }
    }

    /// Whether the column is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Executes a batch program over a typed column.
///
/// `f_accs`/`i_accs` are the accumulator snapshots (updated in place and
/// written back to registers by the caller); `f_params`/`i_params` are
/// loop-invariant snapshots; `out` receives yielded elements in order.
/// When `prof` is set, per-chunk batch counts and selection-vector
/// density are accumulated into it (the `None` path stays untouched by
/// profiling).
///
/// # Errors
///
/// [`VmError::DivisionByZero`] when a live lane of a `DivI`/`RemI`
/// divides by zero — the same error the scalar loop would produce, and
/// with the same observable outcome, because the caller discards all
/// partial state on `Err`.
#[allow(clippy::too_many_arguments)]
pub fn run_batch(
    bp: &BatchProgram,
    data: BatchData<'_>,
    f_accs: &mut [f64],
    i_accs: &mut [i64],
    f_params: &[f64],
    i_params: &[i64],
    sinks: &mut [SinkRt],
    out: &mut Vec<Value>,
    mut prof: Option<&mut crate::profile::QueryProfile>,
    interrupt: &crate::interrupt::Interrupt,
) -> Result<(), VmError> {
    // Whole-tape fused kernels bypass the column banks entirely.
    // Profiled runs take the tape so batch/selection statistics (and the
    // differential tests built on them) still observe the kernel path.
    if prof.is_none() {
        if let Some(ft) = &bp.fused {
            return crate::fuse_kernels::run_fused(
                ft, data, f_accs, i_accs, f_params, i_params, interrupt,
            );
        }
    }
    let mut f_bank: Vec<[f64; BATCH]> = vec![[0.0; BATCH]; bp.n_f as usize];
    let mut i_bank: Vec<[i64; BATCH]> = vec![[0; BATCH]; bp.n_i as usize];
    let mut b_bank: Vec<[bool; BATCH]> = vec![[false; BATCH]; bp.n_b as usize];

    // Loop-invariant broadcasts.
    for init in &bp.prologue {
        match *init {
            BInit::ConstF(d, x) => kernels::splat(&mut f_bank[d as usize], x),
            BInit::ConstI(d, x) => kernels::splat(&mut i_bank[d as usize], x),
            BInit::ConstB(d, x) => kernels::splat(&mut b_bank[d as usize], x),
            BInit::ParamF(d, p) => kernels::splat(&mut f_bank[d as usize], f_params[p as usize]),
            BInit::ParamI(d, p) => kernels::splat(&mut i_bank[d as usize], i_params[p as usize]),
            BInit::ParamB(d, p) => {
                kernels::splat(&mut b_bank[d as usize], i_params[p as usize] != 0);
            }
        }
    }

    let total = data.len();
    let mut sel: Vec<u32> = Vec::with_capacity(BATCH);
    let mut start = 0;
    while start < total {
        // Batch boundaries are the vectorized tier's cooperative poll
        // points: cancellation/deadline latency is bounded by one
        // 1024-lane tape pass. Inert interrupts cost two Option checks.
        interrupt.check()?;
        let len = (total - start).min(BATCH);
        // Selection state resets per chunk: dense until a Filter fires.
        let mut dense = true;
        sel.clear();

        // Kernel helpers. Slot packing reuses dead slots, so a
        // destination may alias its sources; the `_any` kernels pick a
        // borrow strategy per aliasing pattern. Cross-bank ops (cmp,
        // convert) can never alias and use the tight kernels directly.
        macro_rules! binf {
            ($d:expr, $a:expr, $b:expr, $f:expr) => {
                kernels::map2_any(&mut f_bank, $d, $a, $b, len, $f)
            };
        }
        macro_rules! unf {
            ($d:expr, $a:expr, $f:expr) => {
                kernels::map1_any(&mut f_bank, $d, $a, len, $f)
            };
        }
        macro_rules! bini {
            ($d:expr, $a:expr, $b:expr, $f:expr) => {
                kernels::map2_any(&mut i_bank, $d, $a, $b, len, $f)
            };
        }
        macro_rules! uni {
            ($d:expr, $a:expr, $f:expr) => {
                kernels::map1_any(&mut i_bank, $d, $a, len, $f)
            };
        }
        macro_rules! cmpf {
            ($d:expr, $a:expr, $b:expr, $f:expr) => {
                kernels::cmp2(
                    &mut b_bank[$d as usize],
                    &f_bank[$a as usize],
                    &f_bank[$b as usize],
                    len,
                    $f,
                )
            };
        }
        macro_rules! cmpi {
            ($d:expr, $a:expr, $b:expr, $f:expr) => {
                kernels::cmp2(
                    &mut b_bank[$d as usize],
                    &i_bank[$a as usize],
                    &i_bank[$b as usize],
                    len,
                    $f,
                )
            };
        }
        macro_rules! binb {
            ($d:expr, $a:expr, $b:expr, $f:expr) => {
                kernels::map2_any(&mut b_bank, $d, $a, $b, len, $f)
            };
        }
        macro_rules! sel_opt {
            () => {
                if dense { None } else { Some(sel.as_slice()) }
            };
        }

        for op in &bp.tape {
            match *op {
                BOp::LoadF(d) => {
                    if let BatchData::F(xs) = data {
                        f_bank[d as usize][..len].copy_from_slice(&xs[start..start + len]);
                    } else {
                        unreachable!("LoadF over a non-f64 source");
                    }
                }
                BOp::LoadI(d) => {
                    if let BatchData::I(xs) = data {
                        i_bank[d as usize][..len].copy_from_slice(&xs[start..start + len]);
                    } else {
                        unreachable!("LoadI over a non-i64 source");
                    }
                }
                BOp::LoadB(d) => {
                    if let BatchData::B(xs) = data {
                        b_bank[d as usize][..len].copy_from_slice(&xs[start..start + len]);
                    } else {
                        unreachable!("LoadB over a non-bool source");
                    }
                }

                BOp::AddF(d, a, b) => binf!(d, a, b, |x: f64, y: f64| x + y),
                BOp::SubF(d, a, b) => binf!(d, a, b, |x: f64, y: f64| x - y),
                BOp::MulF(d, a, b) => binf!(d, a, b, |x: f64, y: f64| x * y),
                BOp::DivF(d, a, b) => binf!(d, a, b, |x: f64, y: f64| x / y),
                BOp::RemF(d, a, b) => binf!(d, a, b, |x: f64, y: f64| x % y),
                BOp::MinF(d, a, b) => binf!(d, a, b, |x: f64, y: f64| x.min(y)),
                BOp::MaxF(d, a, b) => binf!(d, a, b, |x: f64, y: f64| x.max(y)),
                BOp::NegF(d, a) => unf!(d, a, |x: f64| -x),
                BOp::AbsF(d, a) => unf!(d, a, |x: f64| x.abs()),
                BOp::SqrtF(d, a) => unf!(d, a, |x: f64| x.sqrt()),
                BOp::FloorF(d, a) => unf!(d, a, |x: f64| x.floor()),

                BOp::AddI(d, a, b) => bini!(d, a, b, |x: i64, y: i64| x.wrapping_add(y)),
                BOp::SubI(d, a, b) => bini!(d, a, b, |x: i64, y: i64| x.wrapping_sub(y)),
                BOp::MulI(d, a, b) => bini!(d, a, b, |x: i64, y: i64| x.wrapping_mul(y)),
                BOp::MinI(d, a, b) => bini!(d, a, b, |x: i64, y: i64| x.min(y)),
                BOp::MaxI(d, a, b) => bini!(d, a, b, |x: i64, y: i64| x.max(y)),
                BOp::NegI(d, a) => uni!(d, a, |x: i64| x.wrapping_neg()),
                BOp::AbsI(d, a) => uni!(d, a, |x: i64| x.wrapping_abs()),

                BOp::DivI(d, a, b) => {
                    kernels::check_divisors(&i_bank[b as usize], sel_opt!(), len)?;
                    kernels::map2_sel_any(
                        &mut i_bank,
                        d,
                        a,
                        b,
                        sel_opt!(),
                        len,
                        |x: i64, y: i64| x.wrapping_div(y),
                    );
                }
                BOp::RemI(d, a, b) => {
                    kernels::check_divisors(&i_bank[b as usize], sel_opt!(), len)?;
                    kernels::map2_sel_any(
                        &mut i_bank,
                        d,
                        a,
                        b,
                        sel_opt!(),
                        len,
                        |x: i64, y: i64| x.wrapping_rem(y),
                    );
                }

                BOp::DivIUnchecked(d, a, b) => {
                    bini!(d, a, b, |x: i64, y: i64| x.wrapping_div(y))
                }
                BOp::RemIUnchecked(d, a, b) => {
                    bini!(d, a, b, |x: i64, y: i64| x.wrapping_rem(y))
                }

                BOp::EqFB(d, a, b) => cmpf!(d, a, b, |x: f64, y: f64| x == y),
                BOp::NeFB(d, a, b) => cmpf!(d, a, b, |x: f64, y: f64| x != y),
                BOp::LtFB(d, a, b) => cmpf!(d, a, b, |x: f64, y: f64| x < y),
                BOp::LeFB(d, a, b) => cmpf!(d, a, b, |x: f64, y: f64| x <= y),
                BOp::GtFB(d, a, b) => cmpf!(d, a, b, |x: f64, y: f64| x > y),
                BOp::GeFB(d, a, b) => cmpf!(d, a, b, |x: f64, y: f64| x >= y),
                BOp::EqIB(d, a, b) => cmpi!(d, a, b, |x: i64, y: i64| x == y),
                BOp::NeIB(d, a, b) => cmpi!(d, a, b, |x: i64, y: i64| x != y),
                BOp::LtIB(d, a, b) => cmpi!(d, a, b, |x: i64, y: i64| x < y),
                BOp::LeIB(d, a, b) => cmpi!(d, a, b, |x: i64, y: i64| x <= y),
                BOp::GtIB(d, a, b) => cmpi!(d, a, b, |x: i64, y: i64| x > y),
                BOp::GeIB(d, a, b) => cmpi!(d, a, b, |x: i64, y: i64| x >= y),
                BOp::EqBB(d, a, b) => binb!(d, a, b, |x: bool, y: bool| x == y),
                BOp::NeBB(d, a, b) => binb!(d, a, b, |x: bool, y: bool| x != y),

                BOp::AndB(d, a, b) => binb!(d, a, b, |x: bool, y: bool| x & y),
                BOp::OrB(d, a, b) => binb!(d, a, b, |x: bool, y: bool| x | y),
                BOp::NotB(d, a) => kernels::map1_any(&mut b_bank, d, a, len, |x: bool| !x),

                BOp::F2I(d, a) => {
                    kernels::convert(&mut i_bank[d as usize], &f_bank[a as usize], len, |x: f64| {
                        x as i64
                    });
                }
                BOp::I2F(d, a) => {
                    kernels::convert(&mut f_bank[d as usize], &i_bank[a as usize], len, |x: i64| {
                        x as f64
                    });
                }

                BOp::SelF { dst, mask, t, e } => {
                    kernels::select_any(&mut f_bank, dst, &b_bank[mask as usize], t, e, len);
                }
                BOp::SelI { dst, mask, t, e } => {
                    kernels::select_any(&mut i_bank, dst, &b_bank[mask as usize], t, e, len);
                }
                BOp::SelB { dst, mask, t, e } => {
                    kernels::select_same_any(&mut b_bank, dst, mask, t, e, len);
                }

                BOp::Filter(m) => {
                    let mask = &b_bank[m as usize];
                    if dense {
                        kernels::filter_dense(&mut sel, mask, len);
                        dense = false;
                    } else {
                        kernels::filter_sel(&mut sel, mask);
                    }
                }

                BOp::RedAddF { acc, val } => kernels::fold(
                    &mut f_accs[acc as usize],
                    &f_bank[val as usize],
                    sel_opt!(),
                    len,
                    |a, x| a + x,
                ),
                BOp::RedMinF { acc, val } => kernels::fold(
                    &mut f_accs[acc as usize],
                    &f_bank[val as usize],
                    sel_opt!(),
                    len,
                    f64::min,
                ),
                BOp::RedMaxF { acc, val } => kernels::fold(
                    &mut f_accs[acc as usize],
                    &f_bank[val as usize],
                    sel_opt!(),
                    len,
                    f64::max,
                ),
                BOp::RedAddI { acc, val } => kernels::fold(
                    &mut i_accs[acc as usize],
                    &i_bank[val as usize],
                    sel_opt!(),
                    len,
                    |a: i64, x: i64| a.wrapping_add(x),
                ),
                BOp::RedMinI { acc, val } => kernels::fold(
                    &mut i_accs[acc as usize],
                    &i_bank[val as usize],
                    sel_opt!(),
                    len,
                    |a: i64, x: i64| a.min(x),
                ),
                BOp::RedMaxI { acc, val } => kernels::fold(
                    &mut i_accs[acc as usize],
                    &i_bank[val as usize],
                    sel_opt!(),
                    len,
                    |a: i64, x: i64| a.max(x),
                ),

                BOp::GroupAddF { sink, key, val } => {
                    let SinkRt::GroupAggSF {
                        index,
                        entries,
                        default,
                        ..
                    } = &mut sinks[sink as usize]
                    else {
                        unreachable!("vectorized group sum over a non-SF sink");
                    };
                    let vals = &f_bank[val as usize];
                    for_each_live(sel_opt!(), len, |k| {
                        let sk = read_key(key, &f_bank, &i_bank, &b_bank, k);
                        let slot = upsert_sf(index, entries, *default, sk);
                        entries[slot].1 += vals[k];
                    });
                }
                BOp::GroupAddI { sink, key, val } => {
                    let SinkRt::GroupAggSI {
                        index,
                        entries,
                        default,
                        ..
                    } = &mut sinks[sink as usize]
                    else {
                        unreachable!("vectorized group sum over a non-SI sink");
                    };
                    let vals = &i_bank[val as usize];
                    for_each_live(sel_opt!(), len, |k| {
                        let sk = read_key(key, &f_bank, &i_bank, &b_bank, k);
                        let slot = upsert_si(index, entries, *default, sk);
                        entries[slot].1 = entries[slot].1.wrapping_add(vals[k]);
                    });
                }

                BOp::OutF(s) => {
                    let v = &f_bank[s as usize];
                    for_each_live(sel_opt!(), len, |k| out.push(Value::F64(v[k])));
                }
                BOp::OutI(s) => {
                    let v = &i_bank[s as usize];
                    for_each_live(sel_opt!(), len, |k| out.push(Value::I64(v[k])));
                }
                BOp::OutB(s) => {
                    let v = &b_bank[s as usize];
                    for_each_live(sel_opt!(), len, |k| out.push(Value::Bool(v[k])));
                }

                BOp::MulAddF(d, a, b, c) => {
                    kernels::map3_any(&mut f_bank, d, a, b, c, len, |x: f64, y: f64, z: f64| {
                        x * y + z
                    });
                }
                BOp::MulAddI(d, a, b, c) => {
                    kernels::map3_any(&mut i_bank, d, a, b, c, len, |x: i64, y: i64, z: i64| {
                        x.wrapping_mul(y).wrapping_add(z)
                    });
                }
                BOp::MulRedAddF { acc, a, b } => kernels::fold2(
                    &mut f_accs[acc as usize],
                    &f_bank[a as usize],
                    &f_bank[b as usize],
                    sel_opt!(),
                    len,
                    |s, x, y| s + x * y,
                ),
                BOp::MulRedAddI { acc, a, b } => kernels::fold2(
                    &mut i_accs[acc as usize],
                    &i_bank[a as usize],
                    &i_bank[b as usize],
                    sel_opt!(),
                    len,
                    |s: i64, x: i64, y: i64| s.wrapping_add(x.wrapping_mul(y)),
                ),
            }
        }
        if let Some(p) = prof.as_deref_mut() {
            p.batches += 1;
            p.batch_elements_in += len as u64;
            p.batch_elements_selected += if dense { len } else { sel.len() } as u64;
        }
        start += len;
    }
    Ok(())
}

/// Runs `f` on each live lane index, in ascending element order.
#[inline]
fn for_each_live(sel: Option<&[u32]>, len: usize, mut f: impl FnMut(usize)) {
    match sel {
        None => {
            for k in 0..len {
                f(k);
            }
        }
        Some(sel) => {
            for &k in sel {
                f(k as usize);
            }
        }
    }
}

/// Reads a group key from the addressed bank lane.
#[inline]
fn read_key(
    key: KeyRef,
    f_bank: &[[f64; BATCH]],
    i_bank: &[[i64; BATCH]],
    b_bank: &[[bool; BATCH]],
    k: usize,
) -> ScalarKey {
    match key {
        KeyRef::F(s) => ScalarKey::F(f_bank[s as usize][k]),
        KeyRef::I(s) => ScalarKey::I(i_bank[s as usize][k]),
        KeyRef::B(s) => ScalarKey::B(b_bank[s as usize][k]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn empty_sinks() -> Vec<SinkRt> {
        Vec::new()
    }

    #[test]
    fn sum_of_squares_is_bit_identical() {
        // f0 = x; f1 = x*x; facc0 += f1
        let bp = BatchProgram {
            src: 0,
            src_lane: Lane::F,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![0],
            i_accs: vec![],
            n_f: 2,
            n_i: 0,
            n_b: 0,
            prologue: vec![],
            tape: vec![
                BOp::LoadF(0),
                BOp::MulF(1, 0, 0),
                BOp::RedAddF { acc: 0, val: 1 },
            ],
            fused: None,
            shadow: None,
            div_proofs: Vec::new(),
        };
        let data: Vec<f64> = (0..2500).map(|i| (i as f64) * 0.37 - 400.0).collect();
        let mut f_accs = vec![0.0];
        let mut out = Vec::new();
        run_batch(
            &bp,
            BatchData::F(&data),
            &mut f_accs,
            &mut [],
            &[],
            &[],
            &mut empty_sinks(),
            &mut out,
            None,
            &crate::interrupt::Interrupt::none(),
        )
        .unwrap();
        let mut expected = 0.0;
        for &x in &data {
            expected += x * x;
        }
        assert_eq!(f_accs[0].to_bits(), expected.to_bits());
        assert!(out.is_empty());
    }

    #[test]
    fn filtered_i64_pipeline_counts_and_outputs_in_order() {
        // where n % 2 == 0 { count += 1; yield n * n }
        let bp = BatchProgram {
            src: 0,
            src_lane: Lane::I,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![],
            i_accs: vec![0],
            n_f: 0,
            n_i: 5,
            n_b: 1,
            prologue: vec![BInit::ConstI(1, 2), BInit::ConstI(2, 0), BInit::ConstI(4, 1)],
            tape: vec![
                BOp::LoadI(0),
                BOp::RemI(3, 0, 1),
                BOp::EqIB(0, 3, 2),
                BOp::Filter(0),
                BOp::RedAddI { acc: 0, val: 4 },
                BOp::OutI(3),
            ],
            fused: None,
            shadow: None,
            div_proofs: Vec::new(),
        };
        let data: Vec<i64> = (1..=10).collect();
        let mut i_accs = vec![0];
        let mut out = Vec::new();
        run_batch(
            &bp,
            BatchData::I(&data),
            &mut [],
            &mut i_accs,
            &[],
            &[],
            &mut empty_sinks(),
            &mut out,
            None,
            &crate::interrupt::Interrupt::none(),
        )
        .unwrap();
        assert_eq!(i_accs[0], 5);
        // remainder slot for the surviving (even) lanes is 0 each time.
        assert_eq!(out, vec![Value::I64(0); 5]);
    }

    #[test]
    fn division_faults_only_on_live_lanes() {
        // where n != 0 { acc += 10 / n }
        let bp = BatchProgram {
            src: 0,
            src_lane: Lane::I,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![],
            i_accs: vec![0],
            n_f: 0,
            n_i: 4,
            n_b: 1,
            prologue: vec![BInit::ConstI(1, 0), BInit::ConstI(2, 10)],
            tape: vec![
                BOp::LoadI(0),
                BOp::NeIB(0, 0, 1),
                BOp::Filter(0),
                BOp::DivI(3, 2, 0),
                BOp::RedAddI { acc: 0, val: 3 },
            ],
            fused: None,
            shadow: None,
            div_proofs: Vec::new(),
        };
        let mut i_accs = vec![0];
        let mut out = Vec::new();
        // A zero on a dead (filtered-out) lane must not fault.
        run_batch(
            &bp,
            BatchData::I(&[5, 0, 2]),
            &mut [],
            &mut i_accs,
            &[],
            &[],
            &mut empty_sinks(),
            &mut out,
            None,
            &crate::interrupt::Interrupt::none(),
        )
        .unwrap();
        assert_eq!(i_accs[0], 2 + 5);

        // The same program without the filter faults.
        let unguarded = BatchProgram {
            n_b: 0,
            tape: vec![
                BOp::LoadI(0),
                BOp::DivI(3, 2, 0),
                BOp::RedAddI { acc: 0, val: 3 },
            ],
            ..bp
        };
        let mut i_accs = vec![0];
        let r = run_batch(
            &unguarded,
            BatchData::I(&[5, 0, 2]),
            &mut [],
            &mut i_accs,
            &[],
            &[],
            &mut empty_sinks(),
            &mut out,
            None,
            &crate::interrupt::Interrupt::none(),
        );
        assert_eq!(r, Err(VmError::DivisionByZero));
    }

    #[test]
    fn grouped_sum_preserves_first_appearance_order() {
        // key = x % 3 (f64), table[key] += x
        let bp = BatchProgram {
            src: 0,
            src_lane: Lane::F,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![],
            i_accs: vec![],
            n_f: 3,
            n_i: 0,
            n_b: 0,
            prologue: vec![BInit::ConstF(1, 3.0)],
            tape: vec![
                BOp::LoadF(0),
                BOp::RemF(2, 0, 1),
                BOp::GroupAddF {
                    sink: 0,
                    key: KeyRef::F(2),
                    val: 0,
                },
            ],
            fused: None,
            shadow: None,
            div_proofs: Vec::new(),
        };
        let mut sinks = vec![SinkRt::GroupAggSF {
            index: HashMap::default(),
            entries: Vec::new(),
            default: 0.0,
            last: 0,
        }];
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = Vec::new();
        run_batch(
            &bp,
            BatchData::F(&data),
            &mut [],
            &mut [],
            &[],
            &[],
            &mut sinks,
            &mut out,
            None,
            &crate::interrupt::Interrupt::none(),
        )
        .unwrap();
        let SinkRt::GroupAggSF { entries, .. } = &sinks[0] else {
            unreachable!()
        };
        // Keys appear in first-appearance order: 1, 2, 0.
        assert_eq!(
            entries,
            &vec![
                (ScalarKey::F(1.0), 1.0 + 4.0),
                (ScalarKey::F(2.0), 2.0 + 5.0),
                (ScalarKey::F(0.0), 3.0 + 6.0),
            ]
        );
    }

    #[test]
    fn params_broadcast_and_bool_sources_work() {
        // yield b ? p : q  over a bool source, p = 2.5, q = -1.0
        let bp = BatchProgram {
            src: 0,
            src_lane: Lane::B,
            f_params: vec![3, 4],
            i_params: vec![],
            f_accs: vec![],
            i_accs: vec![],
            n_f: 3,
            n_i: 0,
            n_b: 1,
            prologue: vec![BInit::ParamF(0, 0), BInit::ParamF(1, 1)],
            tape: vec![
                BOp::LoadB(0),
                BOp::SelF {
                    dst: 2,
                    mask: 0,
                    t: 0,
                    e: 1,
                },
                BOp::OutF(2),
            ],
            fused: None,
            shadow: None,
            div_proofs: Vec::new(),
        };
        let mut out = Vec::new();
        run_batch(
            &bp,
            BatchData::B(&[true, false, true]),
            &mut [],
            &mut [],
            &[2.5, -1.0],
            &[],
            &mut empty_sinks(),
            &mut out,
            None,
            &crate::interrupt::Interrupt::none(),
        )
        .unwrap();
        assert_eq!(
            out,
            vec![Value::F64(2.5), Value::F64(-1.0), Value::F64(2.5)]
        );
    }

    #[test]
    fn multi_chunk_selection_resets_per_batch() {
        // where x > 0 { acc += x } over > 1 batch of data.
        let bp = BatchProgram {
            src: 0,
            src_lane: Lane::F,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![0],
            i_accs: vec![],
            n_f: 2,
            n_i: 0,
            n_b: 1,
            prologue: vec![BInit::ConstF(1, 0.0)],
            tape: vec![
                BOp::LoadF(0),
                BOp::GtFB(0, 0, 1),
                BOp::Filter(0),
                BOp::RedAddF { acc: 0, val: 0 },
            ],
            fused: None,
            shadow: None,
            div_proofs: Vec::new(),
        };
        let data: Vec<f64> = (0..(BATCH * 2 + 17))
            .map(|i| if i % 3 == 0 { -1.0 } else { i as f64 })
            .collect();
        let mut f_accs = vec![0.0];
        let mut out = Vec::new();
        run_batch(
            &bp,
            BatchData::F(&data),
            &mut f_accs,
            &mut [],
            &[],
            &[],
            &mut empty_sinks(),
            &mut out,
            None,
            &crate::interrupt::Interrupt::none(),
        )
        .unwrap();
        let mut expected = 0.0;
        for &x in &data {
            if x > 0.0 {
                expected += x;
            }
        }
        assert_eq!(f_accs[0].to_bits(), expected.to_bits());
    }
}
