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
//! * **source columns read in place**: a full batch of the source is
//!   not copied into its slot, the slot views it until a tape op writes
//!   the slot (see [`crate::kernels::Bank`]);
//! * a **selection vector** (the surviving lane indices) built
//!   branch-free by `Filter` ops, with a dense fast path when no filter
//!   has fired — compute stays branch-free and dense, while trapping ops,
//!   folds, and effects consult only the live lanes (see
//!   [`crate::kernels`]); a sum of a loop-invariant broadcast (a count)
//!   adds the broadcast times the live-lane count, and a filter that
//!   only such counts follow counts its mask instead of building the
//!   vector;
//! * a **unified tape** interleaving compute, filters, reductions,
//!   grouped-aggregate upserts, and output pushes in statement order, so
//!   one loop body with mixed effects still becomes one batch program.
//!
//! Results are **bit-identical** to the scalar reference semantics:
//! folds and effects consume live lanes in ascending element order, and
//! trapping integer division checks exactly the lanes the scalar loop
//! would evaluate (a dead lane dividing by zero must *not* fault). A
//! call to a UDF registered pure, whose parameters and result are all
//! `f64`/`i64`/`bool`, is a `Call` op: the function runs once per live
//! lane, in lane order, polling the interrupt like the scalar loop.
//! Anything that does not fit — boxed elements, calls to impure or
//! boxed-signature UDFs, nested loops, multiple yields — falls back to
//! the scalar bytecode path, and the compiler records why (see
//! `Program::batch_fallbacks`).

use std::ops::Range;
use std::sync::Arc;

use steno_expr::udf::UdfFn;
use steno_expr::Value;

use crate::exec::{unbox_b, unbox_f, unbox_i, VmError};
use crate::instr::{with_cmp, CmpOp, FReg, IReg, SinkId, SrcId, UdfId};
use crate::interrupt::POLL_STRIDE;
use crate::kernels::{self, Bank, Cols};
use crate::sink::{
    max_total, min_total, order_f, order_of_bits, GroupTable, ScalarKey, SinkRt,
};

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

impl Lane {
    /// The type of the values the lane holds.
    pub fn ty(self) -> steno_expr::Ty {
        match self {
            Lane::F => steno_expr::Ty::F64,
            Lane::I => steno_expr::Ty::I64,
            Lane::B => steno_expr::Ty::Bool,
        }
    }

    /// The lane holding values of type `ty`; `None` for a boxed type.
    pub fn of(ty: &steno_expr::Ty) -> Option<Lane> {
        match ty {
            steno_expr::Ty::F64 => Some(Lane::F),
            steno_expr::Ty::I64 => Some(Lane::I),
            steno_expr::Ty::Bool => Some(Lane::B),
            _ => None,
        }
    }
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

/// A binary f64 operator of [`BOp::BinF`] (dense; float ops never trap).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FOp {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b` (IEEE, no trap).
    Div,
    /// `a % b` (IEEE, no trap).
    Rem,
    /// `a.min(b)` in `total_cmp` order ([`crate::sink::min_total`]).
    Min,
    /// `a.max(b)` in `total_cmp` order.
    Max,
}

/// A binary i64 operator of [`BOp::BinI`] (dense, wrapping — matches
/// the scalar VM). Division is not one: it traps, see [`BOp::DivI`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IOp {
    /// `a.wrapping_add(b)`.
    Add,
    /// `a.wrapping_sub(b)`.
    Sub,
    /// `a.wrapping_mul(b)`.
    Mul,
    /// `a.min(b)`.
    Min,
    /// `a.max(b)`.
    Max,
}

/// A unary f64 operator of [`BOp::UnF`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FUnOp {
    /// `-a`.
    Neg,
    /// `a.abs()`.
    Abs,
    /// `a.sqrt()`.
    Sqrt,
    /// `a.floor()`.
    Floor,
}

/// A unary i64 operator of [`BOp::UnI`] (wrapping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IUnOp {
    /// `a.wrapping_neg()`.
    Neg,
    /// `a.wrapping_abs()`.
    Abs,
}

/// The reduction a fold folds its live lanes with: [`BOp::Red`] and the
/// fused whole-loop kernels ([`crate::fuse_kernels::FusedTape`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedK {
    /// `sum` (wrapping on i64).
    Sum,
    /// `min`, in `total_cmp` order on f64.
    Min,
    /// `max`, in `total_cmp` order on f64.
    Max,
}

impl RedK {
    /// The reduction's name in fused-kernel labels.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RedK::Sum => "sum",
            RedK::Min => "min",
            RedK::Max => "max",
        }
    }
}

/// What a vectorized loop iterates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSrc {
    /// A prepared source column.
    Source(SrcId),
    /// A typed sink's columns (see [`crate::sink::SinkRt::columns`]):
    /// a sealed sort, a distinct buffer, or a grouped-aggregate table
    /// read as `(key, accumulator)` pairs.
    Sink(SinkId),
}

/// Most arguments a batch [`BOp::Call`] passes; a call with more stays
/// on the scalar tier.
pub const MAX_CALL_ARGS: usize = 3;

/// The argument slots of a batch [`BOp::Call`], in parameter order,
/// each tagged with its bank. Fixed-size so [`BOp`] stays `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallArgs {
    len: u8,
    slots: [(Lane, u8); MAX_CALL_ARGS],
}

impl CallArgs {
    /// The arguments `slots`, or `None` past [`MAX_CALL_ARGS`].
    pub fn new(slots: &[(Lane, u8)]) -> Option<CallArgs> {
        if slots.len() > MAX_CALL_ARGS {
            return None;
        }
        let mut args = CallArgs {
            len: slots.len() as u8,
            slots: [(Lane::F, 0); MAX_CALL_ARGS],
        };
        args.slots[..slots.len()].copy_from_slice(slots);
        Some(args)
    }

    /// The argument slots.
    pub fn as_slice(&self) -> &[(Lane, u8)] {
        &self.slots[..self.len as usize]
    }

    /// The argument slots, for passes that renumber slots.
    pub fn as_mut_slice(&mut self) -> &mut [(Lane, u8)] {
        &mut self.slots[..self.len as usize]
    }
}

/// One vectorized tape operation: one variant per operation shape, with
/// the lane and the operator as operands (each kernel is still
/// monomorphized per operator and lane; the executor dispatches on them
/// once per op per batch).
///
/// Slots are `u8` indices into the bank of the lane the op names: `d` is
/// the destination, `a`, `b`, `c` the sources. The compiler emits slots
/// in SSA order *per bank* (every destination a fresh slot), but
/// [`crate::lifetimes::pack_batch_slots`] then reuses dead slots, so a
/// destination may alias any source — including itself. The executor
/// therefore writes every destination into a spare row that the slot
/// then takes (see [`crate::kernels::Bank::write`]). Compute
/// ops run dense; `DivI`/`RemI`, folds, and effects consult the
/// selection vector. Folds, group upserts, appends and yields consume
/// live lanes in ascending element order.
///
/// An op the vectorizer never emits on a lane — a reduction, group
/// upsert or multiply-add on the bool lane — is a shape error at run
/// time and a rejection by the tape verifier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BOp {
    // -- loads ---------------------------------------------------------
    /// `d = current batch of source elements` (of the first component,
    /// for pair elements), in the source's lane.
    Load(Lane, u8),
    /// `d = current batch of the second component of pair elements` (a
    /// grouped-aggregate sink's accumulators), in that column's lane.
    LoadSnd(Lane, u8),

    // -- arithmetic (dense) --------------------------------------------
    /// `f[d] = f[a] op f[b]`.
    BinF(FOp, u8, u8, u8),
    /// `i[d] = i[a] op i[b]`, wrapping.
    BinI(IOp, u8, u8, u8),
    /// `f[d] = op f[a]`.
    UnF(FUnOp, u8, u8),
    /// `i[d] = op i[a]`, wrapping.
    UnI(IUnOp, u8, u8),

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
    /// `b[d] = x[a] op x[b]` over lane `x` (IEEE on f64: NaN is unequal
    /// and unordered).
    Cmp(Lane, CmpOp, u8, u8, u8),

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

    // -- lane-wise select ----------------------------------------------
    /// `x[dst] = b[mask] ? x[t] : x[e]` over lane `x`.
    Sel {
        /// The lane of the destination and both branches.
        lane: Lane,
        /// Destination slot.
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
    /// Early exit (`IfBreak`): keep the live lanes before the first live
    /// lane where `b[c]` holds; when one does, the loop ends after this
    /// batch. The compiler emits it only with no trapping op and no
    /// effect before it on the tape, since those ran on every lane.
    Cut(u8),

    // -- folds ---------------------------------------------------------
    /// `acc = red(acc, x[val])` per live lane into accumulator `acc` of
    /// lane `x` (f64 or i64): wrapping on i64, `total_cmp` order for an
    /// f64 min/max.
    Red {
        /// Sum, min or max.
        red: RedK,
        /// The lane of the value and the accumulator.
        lane: Lane,
        /// Accumulator index.
        acc: u8,
        /// Value slot.
        val: u8,
    },

    // -- grouped aggregates (§4.3 sinks) -------------------------------
    /// `table[key] += x[val]` per live lane into a scalar-key grouped
    /// aggregate whose accumulators are lane `x`: a `GroupAggSF` sink
    /// for f64, `GroupAggSI` for i64 (a count is a sum of a broadcast 1).
    GroupAdd {
        /// The lane of the value and the accumulators.
        lane: Lane,
        /// The scalar-key sink.
        sink: SinkId,
        /// Key bank and slot.
        key: (Lane, u8),
        /// Value slot.
        val: u8,
    },

    // -- typed sink appends --------------------------------------------
    /// Append `(key, val)` per live lane to a typed sort sink, in lane
    /// order, which is the scalar push order (so the sort stays stable).
    /// For a sink whose element is its own key, `val` is ignored.
    SortPush {
        /// The typed sort sink.
        sink: SinkId,
        /// Key bank and slot.
        key: (Lane, u8),
        /// Element bank and slot.
        val: (Lane, u8),
    },
    /// Append `val` per live lane to a typed distinct sink unless seen.
    DistinctPush {
        /// The typed distinct sink.
        sink: SinkId,
        /// Element bank and slot.
        val: (Lane, u8),
    },

    // -- output --------------------------------------------------------
    /// Push `x[s]` per live lane to the output buffer.
    Out(Lane, u8),
    /// Push the pair `(a, b)` per live lane.
    OutPair((Lane, u8), (Lane, u8)),

    // -- UDF calls -----------------------------------------------------
    /// `dst = udfs[udf](args)` per live lane, in ascending lane order,
    /// with the result unboxed exactly as the scalar tier's
    /// `VToF`/`VToI`/`VToB` unbox it. Only a UDF registered pure with an
    /// all-lane signature is called from a batch, so call count and
    /// order are unobservable; a result of the wrong type is the op's
    /// trap (`VmError::Shape`).
    Call {
        /// UDF index in the prepared registry.
        udf: UdfId,
        /// Argument slots, in parameter order.
        args: CallArgs,
        /// Destination bank (the return type's lane) and slot.
        dst: (Lane, u8),
    },

    // -- two-op fused kernels (see crate::fuse_kernels::peephole) ------
    /// `x[d] = x[a] * x[b] + x[c]` in one pass over lane `x`: two
    /// roundings on f64, exactly as the unfused pair (not an FMA);
    /// wrapping on i64.
    MulAdd(Lane, u8, u8, u8, u8),
    /// `acc += x[a] * x[b]` per live lane, without materializing the
    /// product column (wrapping on i64).
    MulRedAdd {
        /// The lane of the factors and the accumulator.
        lane: Lane,
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
    /// The source index window as the vectorizer recorded it.
    pub window: Range<usize>,
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

/// The interval `steno_analysis` derives for `e` under the recorded
/// name→type bindings `env` (later bindings shadow earlier ones): how
/// the vectorizer finds a `DivProof` or `KeyProof` and how the tape
/// verifier re-derives it.
pub(crate) fn recorded_interval(
    e: &steno_expr::Expr,
    env: &[(String, steno_expr::Ty)],
) -> Option<steno_analysis::Interval> {
    let mut tenv = steno_expr::typecheck::TyEnv::new();
    for (name, ty) in env {
        tenv = tenv.with(name.clone(), ty.clone());
    }
    steno_analysis::analyze(e, &tenv).range
}

/// A compiled batch program: one whole fused loop, vectorized.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchProgram {
    /// What the loop iterates.
    pub src: BatchSrc,
    /// The element lane (of the first component, for pair elements).
    pub src_lane: Lane,
    /// The lane of the elements' second component when the loop reads
    /// `(key, accumulator)` pairs from a grouped-aggregate sink.
    pub snd_lane: Option<Lane>,
    /// The source indices the loop visits (the IMP loop's positional
    /// window), clipped to the column at run time; `0..usize::MAX` is
    /// the whole column.
    pub window: Range<usize>,
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

    /// The part of the column inside `window`, which is clipped to it.
    pub fn window(self, window: &Range<usize>) -> Self {
        let hi = window.end.min(self.len());
        let r = window.start.min(hi)..hi;
        match self {
            BatchData::F(xs) => BatchData::F(&xs[r]),
            BatchData::I(xs) => BatchData::I(&xs[r]),
            BatchData::B(xs) => BatchData::B(&xs[r]),
        }
    }
}

/// Executes a batch program over a typed column (and, for pair
/// elements, the column `snd` of second components, as long as `data`).
///
/// `f_accs`/`i_accs` are the accumulator snapshots (updated in place and
/// written back to registers by the caller); `f_params`/`i_params` are
/// loop-invariant snapshots; `out` receives yielded elements in order.
/// `udfs` are the bound UDFs `Call` ops index. When `prof` is set,
/// per-chunk batch counts, selection-vector density and UDF calls are
/// accumulated into it (the `None` path stays untouched by profiling).
///
/// # Errors
///
/// [`VmError::DivisionByZero`] when a live lane of a `DivI`/`RemI`
/// divides by zero, and [`VmError::Shape`] when a `Call` returns a value
/// of the wrong type — the same error the scalar loop would produce, and
/// with the same observable outcome, because the caller discards all
/// partial state on `Err`. The interrupt errors once it fires.
#[allow(clippy::too_many_arguments)]
pub fn run_batch(
    bp: &BatchProgram,
    data: BatchData<'_>,
    snd: Option<BatchData<'_>>,
    f_accs: &mut [f64],
    i_accs: &mut [i64],
    f_params: &[f64],
    i_params: &[i64],
    sinks: &mut [SinkRt],
    udfs: &[UdfFn],
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
    // Loads read the source in place, so only a bank another op writes
    // needs a spare row.
    let written = |lane: Lane| {
        bp.tape.iter().any(|op| {
            !matches!(op, BOp::Load(..) | BOp::LoadSnd(..))
                && crate::lifetimes::bop_def(op).is_some_and(|(l, _)| l == lane)
        })
    };
    let mut f_bank = Bank::new(bp.n_f, 0.0, written(Lane::F));
    let mut i_bank = Bank::new(bp.n_i, 0, written(Lane::I));
    let mut b_bank = Bank::new(bp.n_b, false, written(Lane::B));

    // Loop-invariant broadcasts.
    for init in &bp.prologue {
        match *init {
            BInit::ConstF(d, x) => f_bank.fill(d, x),
            BInit::ConstI(d, x) => i_bank.fill(d, x),
            BInit::ConstB(d, x) => b_bank.fill(d, x),
            BInit::ParamF(d, p) => f_bank.fill(d, f_params[p as usize]),
            BInit::ParamI(d, p) => i_bank.fill(d, i_params[p as usize]),
            BInit::ParamB(d, p) => b_bank.fill(d, i_params[p as usize] != 0),
        }
    }

    // Loop-invariant divisors, strength-reduced once per loop, and
    // loop-invariant summands: a sum of a broadcast (a count) adds it
    // times the live-lane count.
    let inv_divs: Vec<(u8, kernels::Divisor)> = invariant_slots(bp, &i_bank, |op| match *op {
        BOp::DivIUnchecked(_, _, b) | BOp::RemIUnchecked(_, _, b) => Some(b),
        _ => None,
    })
    .into_iter()
    .map(|(s, m)| (s, kernels::Divisor::new(m)))
    .collect();
    let counts = invariant_slots(bp, &i_bank, |op| match *op {
        BOp::Red { red: RedK::Sum, lane: Lane::I, val, .. } => Some(val),
        _ => None,
    });
    // A `Filter` followed by nothing but such counts needs only its
    // live-lane count, not the lanes.
    let counted = |op: &BOp| match *op {
        BOp::Red { red: RedK::Sum, lane: Lane::I, val, .. } => invariant(&counts, val).is_some(),
        _ => false,
    };
    let counted_filter = bp
        .tape
        .iter()
        .rposition(|op| !counted(op))
        .filter(|&pc| matches!(bp.tape[pc], BOp::Filter(_)));

    // One argument buffer for every call, and the scalar tier's poll
    // budget, spent one unit per call: a slow UDF cannot hold a deadline
    // for a whole batch.
    let mut call_args: Vec<Value> = Vec::new();
    let mut intr_budget = POLL_STRIDE;

    let total = data.len();
    let mut sel = [0u32; BATCH];
    let mut start = 0;
    while start < total {
        // Batch boundaries are the vectorized tier's cooperative poll
        // points: cancellation/deadline latency is bounded by one
        // 1024-lane tape pass. Inert interrupts cost two Option checks.
        interrupt.check()?;
        let n_in = (total - start).min(BATCH);
        // A dense cut shortens the batch in place.
        let mut len = n_in;
        // Selection state resets per chunk: dense until a Filter fires,
        // then the live lanes are `sel[..n_sel]`.
        let mut dense = true;
        let mut n_sel = 0;
        let mut cut = false;

        macro_rules! sel_opt {
            () => {
                if dense { None } else { Some(&sel[..n_sel]) }
            };
        }
        macro_rules! banks {
            () => {
                (f_bank.cols(), i_bank.cols(), b_bank.cols())
            };
        }

        for (pc, op) in bp.tape.iter().enumerate() {
            match *op {
                BOp::Load(lane, d) | BOp::LoadSnd(lane, d) => {
                    let col = if matches!(op, BOp::Load(..)) { Some(data) } else { snd };
                    let r = start..start + n_in;
                    match (lane, col) {
                        (Lane::F, Some(BatchData::F(xs))) => f_bank.load(d, &xs[r]),
                        (Lane::I, Some(BatchData::I(xs))) => i_bank.load(d, &xs[r]),
                        (Lane::B, Some(BatchData::B(xs))) => b_bank.load(d, &xs[r]),
                        _ => return Err(VmError::Shape("batch column lane mismatch".into())),
                    }
                }

                BOp::BinF(o, d, a, b) => match o {
                    FOp::Add => f_bank.map2(d, a, b, len, |x: f64, y: f64| x + y),
                    FOp::Sub => f_bank.map2(d, a, b, len, |x: f64, y: f64| x - y),
                    FOp::Mul => f_bank.map2(d, a, b, len, |x: f64, y: f64| x * y),
                    FOp::Div => f_bank.map2(d, a, b, len, |x: f64, y: f64| x / y),
                    FOp::Rem => f_bank.map2(d, a, b, len, |x: f64, y: f64| x % y),
                    FOp::Min => f_bank.map2(d, a, b, len, min_total),
                    FOp::Max => f_bank.map2(d, a, b, len, max_total),
                },
                BOp::BinI(o, d, a, b) => match o {
                    IOp::Add => i_bank.map2(d, a, b, len, i64::wrapping_add),
                    IOp::Sub => i_bank.map2(d, a, b, len, i64::wrapping_sub),
                    IOp::Mul => i_bank.map2(d, a, b, len, i64::wrapping_mul),
                    IOp::Min => i_bank.map2(d, a, b, len, i64::min),
                    IOp::Max => i_bank.map2(d, a, b, len, i64::max),
                },
                BOp::UnF(o, d, a) => match o {
                    FUnOp::Neg => f_bank.map1(d, a, len, |x: f64| -x),
                    FUnOp::Abs => f_bank.map1(d, a, len, f64::abs),
                    FUnOp::Sqrt => f_bank.map1(d, a, len, f64::sqrt),
                    FUnOp::Floor => f_bank.map1(d, a, len, f64::floor),
                },
                BOp::UnI(o, d, a) => match o {
                    IUnOp::Neg => i_bank.map1(d, a, len, i64::wrapping_neg),
                    IUnOp::Abs => i_bank.map1(d, a, len, i64::wrapping_abs),
                },

                BOp::DivI(d, a, b) => i_bank.write(d, |o, c| {
                    kernels::div_checked(o, c.col(a), c.col(b), sel_opt!(), len, i64::wrapping_div)
                })?,
                BOp::RemI(d, a, b) => i_bank.write(d, |o, c| {
                    kernels::div_checked(o, c.col(a), c.col(b), sel_opt!(), len, i64::wrapping_rem)
                })?,

                BOp::DivIUnchecked(d, a, b) => match invariant(&inv_divs, b) {
                    Some(m) => i_bank.write(d, |o, c| kernels::div_invariant(o, c.col(a), m, len)),
                    None => i_bank.map2(d, a, b, len, i64::wrapping_div),
                },
                BOp::RemIUnchecked(d, a, b) => match invariant(&inv_divs, b) {
                    Some(m) => i_bank.write(d, |o, c| kernels::rem_invariant(o, c.col(a), m, len)),
                    None => i_bank.map2(d, a, b, len, i64::wrapping_rem),
                },

                BOp::Cmp(lane, o, d, a, b) => match lane {
                    Lane::F => {
                        let (x, y) = (f_bank.col(a), f_bank.col(b));
                        with_cmp!(o, f64, f => b_bank.write(d, |m, _| kernels::map2(m, x, y, len, f)));
                    }
                    Lane::I => {
                        let (x, y) = (i_bank.col(a), i_bank.col(b));
                        with_cmp!(o, i64, f => b_bank.write(d, |m, _| kernels::map2(m, x, y, len, f)));
                    }
                    Lane::B => with_cmp!(o, bool, f => {
                        b_bank.write(d, |m, c| kernels::map2(m, c.col(a), c.col(b), len, f))
                    }),
                },

                BOp::AndB(d, a, b) => b_bank.map2(d, a, b, len, |x: bool, y: bool| x & y),
                BOp::OrB(d, a, b) => b_bank.map2(d, a, b, len, |x: bool, y: bool| x | y),
                BOp::NotB(d, a) => b_bank.map1(d, a, len, |x: bool| !x),

                BOp::F2I(d, a) => {
                    let x = f_bank.col(a);
                    i_bank.write(d, |o, _| kernels::map1(o, x, len, |x: f64| x as i64));
                }
                BOp::I2F(d, a) => {
                    let x = i_bank.col(a);
                    f_bank.write(d, |o, _| kernels::map1(o, x, len, |x: i64| x as f64));
                }

                BOp::Sel { lane, dst, mask, t, e } => match lane {
                    Lane::F => {
                        let m = b_bank.col(mask);
                        f_bank.write(dst, |o, c| kernels::select(o, m, c.col(t), c.col(e), len));
                    }
                    Lane::I => {
                        let m = b_bank.col(mask);
                        i_bank.write(dst, |o, c| kernels::select(o, m, c.col(t), c.col(e), len));
                    }
                    Lane::B => b_bank.write(dst, |o, c| {
                        kernels::select(o, c.col(mask), c.col(t), c.col(e), len);
                    }),
                },

                BOp::Filter(m) => {
                    let mask = b_bank.col(m);
                    n_sel = match (dense, counted_filter == Some(pc)) {
                        (true, false) => kernels::filter_dense(&mut sel, mask, len),
                        (false, false) => kernels::filter_sel(&mut sel, n_sel, mask),
                        // Only the count is read: `sel` keeps stale lanes.
                        (true, true) => mask[..len].iter().map(|&b| usize::from(b)).sum(),
                        (false, true) => sel[..n_sel].iter().filter(|&&k| mask[k as usize]).count(),
                    };
                    dense = false;
                }

                BOp::Cut(c) => {
                    let stop = b_bank.col(c);
                    if dense {
                        if let Some(k) = kernels::first_set(stop, len) {
                            len = k;
                            cut = true;
                        }
                    } else if let Some(j) = sel[..n_sel].iter().position(|&k| stop[k as usize]) {
                        n_sel = j;
                        cut = true;
                    }
                }

                BOp::Red { red, lane, acc, val } => {
                    let (acc, live) = (acc as usize, sel_opt!());
                    match (lane, red) {
                        (Lane::F, RedK::Sum) => {
                            kernels::fold(&mut f_accs[acc], f_bank.col(val), live, len, |a, x| a + x);
                        }
                        (Lane::F, RedK::Min) => {
                            kernels::fold_order(&mut f_accs[acc], f_bank.col(val), live, len, i64::min);
                        }
                        (Lane::F, RedK::Max) => {
                            kernels::fold_order(&mut f_accs[acc], f_bank.col(val), live, len, i64::max);
                        }
                        (Lane::I, RedK::Sum) => match invariant(&counts, val) {
                            Some(c) => {
                                let n = live.map_or(len, <[u32]>::len) as i64;
                                i_accs[acc] = i_accs[acc].wrapping_add(c.wrapping_mul(n));
                            }
                            None => {
                                kernels::fold(&mut i_accs[acc], i_bank.col(val), live, len, i64::wrapping_add);
                            }
                        },
                        (Lane::I, RedK::Min) => {
                            kernels::fold(&mut i_accs[acc], i_bank.col(val), live, len, i64::min);
                        }
                        (Lane::I, RedK::Max) => {
                            kernels::fold(&mut i_accs[acc], i_bank.col(val), live, len, i64::max);
                        }
                        (Lane::B, _) => return Err(no_bool_kernel("reduction")),
                    }
                }

                BOp::GroupAdd { lane, sink, key, val } => {
                    let key = lane_col(banks!(), key);
                    match (lane, &mut sinks[sink as usize]) {
                        (Lane::F, SinkRt::GroupAggSF(t)) => {
                            let vals = f_bank.col(val);
                            group_add(t, key, |k| vals[k], |a, x| a + x, sel_opt!(), len)?;
                        }
                        (Lane::I, SinkRt::GroupAggSI(t)) => {
                            let vals = i_bank.col(val);
                            group_add(t, key, |k| vals[k], i64::wrapping_add, sel_opt!(), len)?;
                        }
                        _ => {
                            return Err(VmError::Shape(
                                "sink is not a scalar grouped aggregate of the value's lane".into(),
                            ))
                        }
                    }
                }

                BOp::SortPush { sink, key, val } => {
                    let SinkRt::SortedCols(ss) = &mut sinks[sink as usize] else {
                        return Err(VmError::Shape("sink is not a typed sort".into()));
                    };
                    let (live, kc) = (sel_opt!(), lane_col(banks!(), key));
                    // The element's own key, or a separate element image.
                    if !ss.keyed() {
                        match kc {
                            LaneCol::F(c) => for_each_live(live, len, |k| ss.push_key(order_f(c[k]))),
                            LaneCol::I(c) => for_each_live(live, len, |k| ss.push_key(c[k])),
                            LaneCol::B(c) => {
                                for_each_live(live, len, |k| ss.push_key(i64::from(c[k])));
                            }
                        }
                    } else {
                        let vc = lane_col(banks!(), val);
                        for_each_live(live, len, |k| {
                            ss.push_item(order_of_bits(key.0, kc.bits(k)), vc.bits(k));
                        });
                    }
                }
                BOp::DistinctPush { sink, val } => {
                    let SinkRt::DistinctCols(ds) = &mut sinks[sink as usize] else {
                        return Err(VmError::Shape("sink is not a typed distinct".into()));
                    };
                    let vc = lane_col(banks!(), val);
                    for_each_live(sel_opt!(), len, |k| ds.push(vc.bits(k)));
                }

                BOp::Out(lane, s) => {
                    let live = sel_opt!();
                    match lane_col(banks!(), (lane, s)) {
                        LaneCol::F(v) => for_each_live(live, len, |k| out.push(Value::F64(v[k]))),
                        LaneCol::I(v) => for_each_live(live, len, |k| out.push(Value::I64(v[k]))),
                        LaneCol::B(v) => for_each_live(live, len, |k| out.push(Value::Bool(v[k]))),
                    }
                }
                BOp::OutPair(a, b) => {
                    let (ac, bc) = (lane_col(banks!(), a), lane_col(banks!(), b));
                    for_each_live(sel_opt!(), len, |k| out.push(Value::pair(ac.value(k), bc.value(k))));
                }

                BOp::Call { udf, args, dst } => {
                    let n = args.as_slice().len();
                    call_args.clear();
                    call_args.resize(n, Value::Bool(false));
                    let mut call = LaneCall {
                        f: udfs[udf as usize].as_ref(),
                        args: &mut call_args,
                        interrupt,
                        budget: &mut intr_budget,
                    };
                    let live = sel_opt!();
                    // The argument columns, with the destination's bank
                    // read through `write` (an argument may share its slot).
                    let (lane, d) = dst;
                    let calls = match lane {
                        Lane::F => {
                            let (ic, bc) = (i_bank.cols(), b_bank.cols());
                            f_bank.write(d, |o, fc| {
                                call.run(&arg_cols((fc, ic, bc), args)[..n], live, len, o, unbox_f)
                            })?
                        }
                        Lane::I => {
                            let (fc, bc) = (f_bank.cols(), b_bank.cols());
                            i_bank.write(d, |o, ic| {
                                call.run(&arg_cols((fc, ic, bc), args)[..n], live, len, o, unbox_i)
                            })?
                        }
                        Lane::B => {
                            let (fc, ic) = (f_bank.cols(), i_bank.cols());
                            b_bank.write(d, |o, bc| {
                                call.run(&arg_cols((fc, ic, bc), args)[..n], live, len, o, unbox_b)
                            })?
                        }
                    };
                    if let Some(p) = prof.as_deref_mut() {
                        p.udf_calls += calls;
                    }
                }

                BOp::MulAdd(lane, d, a, b, c) => match lane {
                    Lane::F => f_bank.map3(d, a, b, c, len, |x: f64, y: f64, z: f64| x * y + z),
                    Lane::I => i_bank.map3(d, a, b, c, len, |x: i64, y: i64, z: i64| {
                        x.wrapping_mul(y).wrapping_add(z)
                    }),
                    Lane::B => return Err(no_bool_kernel("multiply-add")),
                },
                BOp::MulRedAdd { lane, acc, a, b } => {
                    let (acc, live) = (acc as usize, sel_opt!());
                    match lane {
                        Lane::F => kernels::fold2(
                            &mut f_accs[acc],
                            f_bank.col(a),
                            f_bank.col(b),
                            live,
                            len,
                            |s, x, y| s + x * y,
                        ),
                        Lane::I => kernels::fold2(
                            &mut i_accs[acc],
                            i_bank.col(a),
                            i_bank.col(b),
                            live,
                            len,
                            |s: i64, x: i64, y: i64| s.wrapping_add(x.wrapping_mul(y)),
                        ),
                        Lane::B => return Err(no_bool_kernel("multiply-reduce")),
                    }
                }
            }
        }
        if let Some(p) = prof.as_deref_mut() {
            p.batches += 1;
            p.batch_elements_in += n_in as u64;
            p.batch_elements_selected += if dense { len } else { n_sel } as u64;
        }
        if cut {
            break;
        }
        start += n_in;
    }
    Ok(())
}

/// `table[key] = add(table[key], val)` per live lane, with the loop
/// monomorphized per key lane.
#[inline(never)]
fn group_add<A: Copy>(
    t: &mut GroupTable<A>,
    key: LaneCol<'_>,
    val: impl Fn(usize) -> A,
    add: impl Fn(A, A) -> A,
    sel: Option<&[u32]>,
    len: usize,
) -> Result<(), VmError> {
    macro_rules! lanes {
        ($key:expr) => {
            match sel {
                None => t.add(0..len, $key, &val, &add),
                Some(sel) => t.add(sel.iter().map(|&k| k as usize), $key, &val, &add),
            }
        };
    }
    match key {
        LaneCol::F(c) => lanes!(|k: usize| ScalarKey::F(c[k])),
        LaneCol::I(c) => lanes!(|k: usize| ScalarKey::I(c[k])),
        LaneCol::B(c) => lanes!(|k: usize| ScalarKey::B(c[k])),
    }
}

/// The i64 slots that ops picked by `reads` read and that hold a
/// prologue broadcast (a literal or a loop parameter) no op overwrites,
/// with the broadcast value. Found once per run.
fn invariant_slots(
    bp: &BatchProgram,
    i_bank: &Bank<'_, i64>,
    reads: impl Fn(&BOp) -> Option<u8>,
) -> Vec<(u8, i64)> {
    let broadcast = |slot: u8| {
        bp.prologue
            .iter()
            .any(|init| matches!(*init, BInit::ConstI(d, _) | BInit::ParamI(d, _) if d == slot))
    };
    let written = |slot: u8| {
        bp.tape
            .iter()
            .any(|op| crate::lifetimes::bop_def(op) == Some((Lane::I, slot)))
    };
    let mut out: Vec<(u8, i64)> = Vec::new();
    for s in bp.tape.iter().filter_map(reads) {
        if invariant(&out, s).is_none() && broadcast(s) && !written(s) {
            out.push((s, i_bank.col(s)[0]));
        }
    }
    out
}

/// What an [`invariant_slots`] list holds for `slot`, if it is listed.
#[inline]
fn invariant<T: Copy>(slots: &[(u8, T)], slot: u8) -> Option<T> {
    slots.iter().find(|e| e.0 == slot).map(|e| e.1)
}

/// The run-time error of an op on the bool lane, where the vectorizer
/// emits none (`what` names the op).
#[cold]
fn no_bool_kernel(what: &str) -> VmError {
    VmError::Shape(format!("batch {what} has no kernel on the bool lane"))
}

/// The read sides of the three banks.
type Banks<'b> = (Cols<'b, f64>, Cols<'b, i64>, Cols<'b, bool>);

/// The batch a bank slot holds, tagged with its lane.
#[derive(Clone, Copy)]
enum LaneCol<'b> {
    F(&'b [f64; BATCH]),
    I(&'b [i64; BATCH]),
    B(&'b [bool; BATCH]),
}

/// The batch slot `s` of lane `lane` holds.
#[inline]
fn lane_col<'b>(banks: Banks<'b>, (lane, s): (Lane, u8)) -> LaneCol<'b> {
    match lane {
        Lane::F => LaneCol::F(banks.0.col(s)),
        Lane::I => LaneCol::I(banks.1.col(s)),
        Lane::B => LaneCol::B(banks.2.col(s)),
    }
}

/// The argument columns of a `Call`, in parameter order, then filler.
#[inline]
fn arg_cols<'b>(banks: Banks<'b>, args: CallArgs) -> [LaneCol<'b>; MAX_CALL_ARGS] {
    let mut cols = [LaneCol::B(&[false; BATCH]); MAX_CALL_ARGS];
    for (col, &a) in cols.iter_mut().zip(args.as_slice()) {
        *col = lane_col(banks, a);
    }
    cols
}

impl LaneCol<'_> {
    /// Lane `k`, boxed.
    #[inline]
    fn value(self, k: usize) -> Value {
        match self {
            LaneCol::F(c) => Value::F64(c[k]),
            LaneCol::I(c) => Value::I64(c[k]),
            LaneCol::B(c) => Value::Bool(c[k]),
        }
    }

    /// The 64-bit image of lane `k`.
    #[inline]
    fn bits(self, k: usize) -> u64 {
        match self {
            LaneCol::F(c) => c[k].to_bits(),
            LaneCol::I(c) => c[k] as u64,
            LaneCol::B(c) => u64::from(c[k]),
        }
    }
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

/// One `Call` op's UDF and per-call state.
struct LaneCall<'a> {
    f: &'a (dyn Fn(&[Value]) -> Value + Send + Sync),
    /// The reused argument buffer, one value per argument column.
    args: &'a mut [Value],
    interrupt: &'a crate::interrupt::Interrupt,
    budget: &'a mut u32,
}

impl LaneCall<'_> {
    /// Calls the UDF once per live lane, in ascending lane order, on the
    /// argument columns `cols`, polling the interrupt before each call
    /// and unboxing each result into `out`. Returns the number of calls.
    /// Kept out of `run_batch` so the lane loop gets registers of its
    /// own.
    #[inline(never)]
    fn run<T>(
        &mut self,
        cols: &[LaneCol<'_>],
        sel: Option<&[u32]>,
        len: usize,
        out: &mut [T; BATCH],
        unbox: impl Fn(&Value) -> Result<T, VmError>,
    ) -> Result<u64, VmError> {
        match sel {
            None => self.lanes(cols, 0..len, out, unbox),
            Some(sel) => self.lanes(cols, sel.iter().map(|&k| k as usize), out, unbox),
        }
    }

    /// The lane loop. A one-argument call, the common case, gets a loop
    /// per argument lane, so no lane pays to look up its column's type.
    #[inline(always)]
    fn lanes<T>(
        &mut self,
        cols: &[LaneCol<'_>],
        lanes: impl Iterator<Item = usize>,
        out: &mut [T; BATCH],
        unbox: impl Fn(&Value) -> Result<T, VmError>,
    ) -> Result<u64, VmError> {
        match *cols {
            [LaneCol::F(c)] => self.unary(lanes, out, unbox, |k| Value::F64(c[k])),
            [LaneCol::I(c)] => self.unary(lanes, out, unbox, |k| Value::I64(c[k])),
            [LaneCol::B(c)] => self.unary(lanes, out, unbox, |k| Value::Bool(c[k])),
            _ => {
                let polls = !self.interrupt.is_inert();
                let mut calls = 0;
                let args = &mut *self.args;
                for k in lanes {
                    if polls {
                        self.interrupt.poll(self.budget)?;
                    }
                    for (v, col) in args.iter_mut().zip(cols) {
                        *v = col.value(k);
                    }
                    out[k] = unbox(&(self.f)(args))?;
                    calls += 1;
                }
                Ok(calls)
            }
        }
    }

    #[inline(always)]
    fn unary<T>(
        &mut self,
        lanes: impl Iterator<Item = usize>,
        out: &mut [T; BATCH],
        unbox: impl Fn(&Value) -> Result<T, VmError>,
        value: impl Fn(usize) -> Value,
    ) -> Result<u64, VmError> {
        let polls = !self.interrupt.is_inert();
        let mut calls = 0;
        let arg = &mut self.args[0];
        for k in lanes {
            if polls {
                self.interrupt.poll(self.budget)?;
            }
            *arg = value(k);
            out[k] = unbox(&(self.f)(std::slice::from_ref(arg)))?;
            calls += 1;
        }
        Ok(calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_sinks() -> Vec<SinkRt> {
        Vec::new()
    }

    #[test]
    fn sum_of_squares_is_bit_identical() {
        // f0 = x; f1 = x*x; facc0 += f1
        let bp = BatchProgram {
            src: BatchSrc::Source(0),
            src_lane: Lane::F,
            snd_lane: None,
            window: 0..usize::MAX,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![0],
            i_accs: vec![],
            n_f: 2,
            n_i: 0,
            n_b: 0,
            prologue: vec![],
            tape: vec![
                BOp::Load(Lane::F, 0),
                BOp::BinF(FOp::Mul, 1, 0, 0),
                BOp::Red { red: RedK::Sum, lane: Lane::F, acc: 0, val: 1 },
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
            None,
            &mut f_accs,
            &mut [],
            &[],
            &[],
            &mut empty_sinks(),
            &[],
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
            src: BatchSrc::Source(0),
            src_lane: Lane::I,
            snd_lane: None,
            window: 0..usize::MAX,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![],
            i_accs: vec![0],
            n_f: 0,
            n_i: 5,
            n_b: 1,
            prologue: vec![BInit::ConstI(1, 2), BInit::ConstI(2, 0), BInit::ConstI(4, 1)],
            tape: vec![
                BOp::Load(Lane::I, 0),
                BOp::RemI(3, 0, 1),
                BOp::Cmp(Lane::I, CmpOp::Eq, 0, 3, 2),
                BOp::Filter(0),
                BOp::Red { red: RedK::Sum, lane: Lane::I, acc: 0, val: 4 },
                BOp::Out(Lane::I, 3),
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
            None,
            &mut [],
            &mut i_accs,
            &[],
            &[],
            &mut empty_sinks(),
            &[],
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
            src: BatchSrc::Source(0),
            src_lane: Lane::I,
            snd_lane: None,
            window: 0..usize::MAX,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![],
            i_accs: vec![0],
            n_f: 0,
            n_i: 4,
            n_b: 1,
            prologue: vec![BInit::ConstI(1, 0), BInit::ConstI(2, 10)],
            tape: vec![
                BOp::Load(Lane::I, 0),
                BOp::Cmp(Lane::I, CmpOp::Ne, 0, 0, 1),
                BOp::Filter(0),
                BOp::DivI(3, 2, 0),
                BOp::Red { red: RedK::Sum, lane: Lane::I, acc: 0, val: 3 },
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
            None,
            &mut [],
            &mut i_accs,
            &[],
            &[],
            &mut empty_sinks(),
            &[],
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
                BOp::Load(Lane::I, 0),
                BOp::DivI(3, 2, 0),
                BOp::Red { red: RedK::Sum, lane: Lane::I, acc: 0, val: 3 },
            ],
            ..bp
        };
        let mut i_accs = vec![0];
        let r = run_batch(
            &unguarded,
            BatchData::I(&[5, 0, 2]),
            None,
            &mut [],
            &mut i_accs,
            &[],
            &[],
            &mut empty_sinks(),
            &[],
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
            src: BatchSrc::Source(0),
            src_lane: Lane::F,
            snd_lane: None,
            window: 0..usize::MAX,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![],
            i_accs: vec![],
            n_f: 3,
            n_i: 0,
            n_b: 0,
            prologue: vec![BInit::ConstF(1, 3.0)],
            tape: vec![
                BOp::Load(Lane::F, 0),
                BOp::BinF(FOp::Rem, 2, 0, 1),
                BOp::GroupAdd {
                    lane: Lane::F,
                    sink: 0,
                    key: (Lane::F, 2),
                    val: 0,
                },
            ],
            fused: None,
            shadow: None,
            div_proofs: Vec::new(),
        };
        let mut sinks = vec![SinkRt::GroupAggSF(GroupTable::new(Lane::F, None, 0.0))];
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = Vec::new();
        run_batch(
            &bp,
            BatchData::F(&data),
            None,
            &mut [],
            &mut [],
            &[],
            &[],
            &mut sinks,
            &[],
            &mut out,
            None,
            &crate::interrupt::Interrupt::none(),
        )
        .unwrap();
        let SinkRt::GroupAggSF(t) = &sinks[0] else {
            unreachable!()
        };
        // Keys appear in first-appearance order: 1, 2, 0.
        assert_eq!(t.keys, crate::sink::Col::F(vec![1.0, 2.0, 0.0]));
        assert_eq!(t.accs, vec![1.0 + 4.0, 2.0 + 5.0, 3.0 + 6.0]);
    }

    #[test]
    fn params_broadcast_and_bool_sources_work() {
        // yield b ? p : q  over a bool source, p = 2.5, q = -1.0
        let bp = BatchProgram {
            src: BatchSrc::Source(0),
            src_lane: Lane::B,
            snd_lane: None,
            window: 0..usize::MAX,
            f_params: vec![3, 4],
            i_params: vec![],
            f_accs: vec![],
            i_accs: vec![],
            n_f: 3,
            n_i: 0,
            n_b: 1,
            prologue: vec![BInit::ParamF(0, 0), BInit::ParamF(1, 1)],
            tape: vec![
                BOp::Load(Lane::B, 0),
                BOp::Sel {
                    lane: Lane::F,
                    dst: 2,
                    mask: 0,
                    t: 0,
                    e: 1,
                },
                BOp::Out(Lane::F, 2),
            ],
            fused: None,
            shadow: None,
            div_proofs: Vec::new(),
        };
        let mut out = Vec::new();
        run_batch(
            &bp,
            BatchData::B(&[true, false, true]),
            None,
            &mut [],
            &mut [],
            &[2.5, -1.0],
            &[],
            &mut empty_sinks(),
            &[],
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
            src: BatchSrc::Source(0),
            src_lane: Lane::F,
            snd_lane: None,
            window: 0..usize::MAX,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![0],
            i_accs: vec![],
            n_f: 2,
            n_i: 0,
            n_b: 1,
            prologue: vec![BInit::ConstF(1, 0.0)],
            tape: vec![
                BOp::Load(Lane::F, 0),
                BOp::Cmp(Lane::F, CmpOp::Gt, 0, 0, 1),
                BOp::Filter(0),
                BOp::Red { red: RedK::Sum, lane: Lane::F, acc: 0, val: 0 },
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
            None,
            &mut f_accs,
            &mut [],
            &[],
            &[],
            &mut empty_sinks(),
            &[],
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
