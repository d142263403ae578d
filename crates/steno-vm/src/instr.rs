//! The register bytecode.
//!
//! Registers live in three banks, assigned by static type: `f64` values in
//! the F bank, `i64` and booleans (0/1) in the I bank, and compound
//! [`Value`]s in the V bank. Keeping scalars unboxed in their own banks is
//! the VM-level counterpart of the paper's *type specialization* (§4):
//! the hot loop of a numeric query touches only unboxed registers.

use steno_expr::{Ty, Value};

/// An F-bank (f64) register index.
pub type FReg = u32;
/// An I-bank (i64 / bool) register index.
pub type IReg = u32;
/// A V-bank (boxed [`Value`]) register index.
pub type VReg = u32;
/// An instruction address.
pub type Pc = u32;
/// A prepared-source index.
pub type SrcId = u32;
/// A sink index.
pub type SinkId = u32;
/// A UDF index.
pub type UdfId = u32;

/// A comparison operator carried by the fused compare-and-branch
/// superinstructions (see [`crate::lifetimes::fuse_scalar_pairs`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
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

/// A scalar grouping-key operand: which register bank holds the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SKey {
    /// An f64 key in the F bank.
    F(FReg),
    /// An i64 key in the I bank.
    I(IReg),
    /// A boolean key (0/1) in the I bank.
    B(IReg),
}

/// One bytecode instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    // ---- control flow ----
    /// Unconditional jump.
    Jump(Pc),
    /// Jump when the I-register is zero (false).
    JumpIfFalse(IReg, Pc),
    /// Jump when the I-register is non-zero (true).
    JumpIfTrue(IReg, Pc),

    // ---- constants and moves ----
    /// Load an f64 constant.
    ConstF(FReg, f64),
    /// Load an i64 (or boolean) constant.
    ConstI(IReg, i64),
    /// Load a boxed constant (cloned from the program's pool).
    ConstV(VReg, Value),
    /// Copy between F registers.
    MovF(FReg, FReg),
    /// Copy between I registers.
    MovI(IReg, IReg),
    /// Copy between V registers.
    MovV(VReg, VReg),

    // ---- f64 arithmetic ----
    /// `dst = a + b`.
    AddF(FReg, FReg, FReg),
    /// `dst = a - b`.
    SubF(FReg, FReg, FReg),
    /// `dst = a * b`.
    MulF(FReg, FReg, FReg),
    /// `dst = a / b` (IEEE semantics).
    DivF(FReg, FReg, FReg),
    /// `dst = a % b`.
    RemF(FReg, FReg, FReg),
    /// `dst = -a`.
    NegF(FReg, FReg),
    /// `dst = a.abs()`.
    AbsF(FReg, FReg),
    /// `dst = a.sqrt()`.
    SqrtF(FReg, FReg),
    /// `dst = a.floor()`.
    FloorF(FReg, FReg),
    /// `dst = a.min(b)`.
    MinF(FReg, FReg, FReg),
    /// `dst = a.max(b)`.
    MaxF(FReg, FReg, FReg),

    // ---- i64 arithmetic (wrapping, like unchecked C#) ----
    /// `dst = a + b`.
    AddI(IReg, IReg, IReg),
    /// `dst = a - b`.
    SubI(IReg, IReg, IReg),
    /// `dst = a * b`.
    MulI(IReg, IReg, IReg),
    /// `dst = a / b`; errors on division by zero.
    DivI(IReg, IReg, IReg),
    /// `dst = a % b`; errors on division by zero.
    RemI(IReg, IReg, IReg),
    /// `dst = -a`.
    NegI(IReg, IReg),
    /// `reg += 1` (loop induction variables).
    IncI(IReg),
    /// `dst = a.abs()`.
    AbsI(IReg, IReg),
    /// `dst = a.min(b)`.
    MinI(IReg, IReg, IReg),
    /// `dst = a.max(b)`.
    MaxI(IReg, IReg, IReg),
    /// Boolean negation (`dst = 1 - a` for 0/1 values).
    NotB(IReg, IReg),

    // ---- comparisons (result in the I bank as 0/1) ----
    /// `dst = (a == b)` over f64 (IEEE: NaN is unequal).
    EqF(IReg, FReg, FReg),
    /// `dst = (a != b)` over f64.
    NeF(IReg, FReg, FReg),
    /// `dst = (a < b)` over f64.
    LtF(IReg, FReg, FReg),
    /// `dst = (a <= b)` over f64.
    LeF(IReg, FReg, FReg),
    /// `dst = (a > b)` over f64.
    GtF(IReg, FReg, FReg),
    /// `dst = (a >= b)` over f64.
    GeF(IReg, FReg, FReg),
    /// `dst = (a == b)` over i64/bool.
    EqI(IReg, IReg, IReg),
    /// `dst = (a != b)` over i64/bool.
    NeI(IReg, IReg, IReg),
    /// `dst = (a < b)` over i64.
    LtI(IReg, IReg, IReg),
    /// `dst = (a <= b)` over i64.
    LeI(IReg, IReg, IReg),
    /// `dst = (a > b)` over i64.
    GtI(IReg, IReg, IReg),
    /// `dst = (a >= b)` over i64.
    GeI(IReg, IReg, IReg),
    /// `dst = (a == b)` over boxed values (structural).
    EqV(IReg, VReg, VReg),
    /// Three-way total comparison of boxed values: -1/0/1.
    CmpV(IReg, VReg, VReg),

    // ---- casts and boxing ----
    /// `dst = a as i64`.
    F2I(IReg, FReg),
    /// `dst = a as f64`.
    I2F(FReg, IReg),
    /// Box an f64.
    FToV(VReg, FReg),
    /// Box an i64.
    IToV(VReg, IReg),
    /// Box a boolean (0/1 I-register).
    BToV(VReg, IReg),
    /// Unbox an f64 (accepts `I64` with conversion).
    VToF(FReg, VReg),
    /// Unbox an i64.
    VToI(IReg, VReg),
    /// Unbox a boolean into 0/1.
    VToB(IReg, VReg),

    // ---- compound values ----
    /// `dst = (a, b)`.
    MkPair(VReg, VReg, VReg),
    /// `dst = pair.0`.
    Field0(VReg, VReg),
    /// `dst = pair.1`.
    Field1(VReg, VReg),
    /// `dst = row[idx]` (f64); errors when out of bounds.
    RowIdx(FReg, VReg, IReg),
    /// `dst = row.len()`.
    RowLen(IReg, VReg),
    /// `dst = seq.len()` (also accepts rows).
    SeqLen(IReg, VReg),
    /// `dst = seq[idx]` (boxed); errors when out of bounds.
    SeqIdx(VReg, VReg, IReg),

    // ---- user-defined functions ----
    /// Call a registered UDF with boxed arguments.
    CallUdf {
        /// Destination (boxed).
        dst: VReg,
        /// UDF index in the prepared registry.
        udf: UdfId,
        /// Argument registers.
        args: Vec<VReg>,
    },

    // ---- sources ----
    /// `dst = len(source)`.
    SrcLen(IReg, SrcId),
    /// `dst = source[idx]` for an f64 column.
    SrcGetF(FReg, SrcId, IReg),
    /// `dst = source[idx]` for an i64 column.
    SrcGetI(IReg, SrcId, IReg),
    /// `dst = source[idx]` for a bool column (as 0/1).
    SrcGetB(IReg, SrcId, IReg),
    /// `dst = source[idx]` boxed (rows, generic values).
    SrcGetV(VReg, SrcId, IReg),

    // ---- sinks ----
    /// Initialize a `Lookup` group sink.
    SinkNewGroup(SinkId),
    /// Initialize a grouped-aggregate sink with a boxed default.
    SinkNewGroupAggV(SinkId, VReg),
    /// Initialize a grouped-aggregate sink with an f64 default.
    SinkNewGroupAggF(SinkId, FReg),
    /// Initialize a grouped-aggregate sink with an i64 default.
    SinkNewGroupAggI(SinkId, IReg),
    /// Initialize a fully-scalar grouped-aggregate sink (f64 acc).
    SinkNewGroupAggSF(SinkId, FReg),
    /// Initialize a fully-scalar grouped-aggregate sink (i64 acc).
    SinkNewGroupAggSI(SinkId, IReg),
    /// Initialize a sort sink.
    SinkNewSorted(SinkId, bool),
    /// Initialize a distinct sink.
    SinkNewDistinct(SinkId),
    /// Initialize a plain buffer sink.
    SinkNewVec(SinkId),
    /// Append `(key, value)` to a group sink.
    GroupPut(SinkId, VReg, VReg),
    /// Load the accumulator for `key` (or the default) into a boxed
    /// register, remembering the slot for the following store.
    GroupAccLoadV(SinkId, VReg, VReg),
    /// Store the boxed accumulator back to the remembered slot.
    GroupAccStoreV(SinkId, VReg),
    /// Scalar fast path of [`Instr::GroupAccLoadV`] for f64 accumulators.
    GroupAccLoadF(SinkId, FReg, VReg),
    /// Scalar fast path of [`Instr::GroupAccStoreV`].
    GroupAccStoreF(SinkId, FReg),
    /// Scalar fast path for i64 accumulators.
    GroupAccLoadI(SinkId, IReg, VReg),
    /// Scalar fast path for i64 accumulators.
    GroupAccStoreI(SinkId, IReg),
    /// Fully-scalar load: f64 accumulator, scalar key register.
    GroupAccLoadSF(SinkId, FReg, SKey),
    /// Fully-scalar load: i64 accumulator, scalar key register.
    GroupAccLoadSI(SinkId, IReg, SKey),
    /// Fully-scalar store to the remembered slot (f64 acc).
    GroupAccStoreSF(SinkId, FReg),
    /// Fully-scalar store to the remembered slot (i64 acc).
    GroupAccStoreSI(SinkId, IReg),
    /// Push a value into a vec/distinct sink.
    SinkPush(SinkId, VReg),
    /// Push a keyed value into a sort sink.
    SinkPushKeyed(SinkId, VReg, VReg),
    /// Finalize a sort sink (sorts its buffer).
    SinkSeal(SinkId),
    /// Materialize the sink contents for iteration.
    SinkFreeze(SinkId),
    /// `dst = frozen sink length`.
    SinkLen(IReg, SinkId),
    /// `dst = frozen sink [idx]` (boxed).
    SinkGet(VReg, SinkId, IReg),

    // ---- fused superinstructions (threaded scalar dispatch) ----
    //
    // The hottest instruction pairs of scalar loop bodies, fused by
    // `crate::lifetimes::fuse_scalar_pairs` so a loop back-edge costs one
    // dispatch instead of two or three. Semantics are exactly the pair
    // they replace, including back-edge interrupt polling.
    /// Compare two F registers and jump to `target` when the result
    /// equals `on_true` (a fused `CmpF` + `JumpIf*`; the 0/1 result is
    /// not materialized).
    BrCmpF {
        /// The comparison.
        op: CmpOp,
        /// Left operand.
        a: FReg,
        /// Right operand.
        b: FReg,
        /// Jump on `true` (`JumpIfTrue`) or on `false` (`JumpIfFalse`).
        on_true: bool,
        /// Branch target.
        target: Pc,
    },
    /// Compare two I registers and jump (fused `CmpI` + `JumpIf*`).
    BrCmpI {
        /// The comparison.
        op: CmpOp,
        /// Left operand.
        a: IReg,
        /// Right operand.
        b: IReg,
        /// Jump on `true` or on `false`.
        on_true: bool,
        /// Branch target.
        target: Pc,
    },
    /// `reg += 1; jump target` — the loop back-edge pair.
    IncJump {
        /// The induction register.
        r: IReg,
        /// The loop header.
        target: Pc,
    },
    /// `dst = a * b + c` with two roundings (fused `MulF` + `AddF`, not
    /// an FMA).
    MulAddF(FReg, FReg, FReg, FReg),
    /// `dst = a * b + c`, wrapping (fused `MulI` + `AddI`).
    MulAddI(IReg, IReg, IReg, IReg),

    // ---- output ----
    /// Append a boxed value to the output buffer.
    OutPush(VReg),
    /// A vectorized whole-loop batch program over a typed source
    /// (see [`crate::batch`]).
    BatchLoop(crate::batch::BatchRef),
    /// Terminate returning an f64.
    HaltF(FReg),
    /// Terminate returning an i64.
    HaltI(IReg),
    /// Terminate returning a boolean.
    HaltB(IReg),
    /// Terminate returning a boxed value.
    HaltV(VReg),
    /// Terminate returning the output buffer as a sequence.
    HaltOut,
}

/// Which execution tier a source loop landed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopTier {
    /// Compiled to a [`Instr::BatchLoop`] column-at-a-time program.
    Vectorized,
    /// Once the loop-fusion tier, which was removed; no loop lands here.
    #[deprecated(note = "the loop-fusion tier was removed; no loop is compiled to it")]
    Fused,
    /// Compiled to plain element-at-a-time bytecode.
    Scalar,
}

#[allow(deprecated)]
impl std::fmt::Display for LoopTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LoopTier::Vectorized => "vectorized",
            LoopTier::Fused => "fused",
            LoopTier::Scalar => "scalar",
        })
    }
}

/// Why the vectorizer refused a loop.
///
/// Structured counterpart of the old free-form fallback strings:
/// `Display` reproduces those strings byte-for-byte (the EXPLAIN text
/// and JSON forms are stable across the conversion), while
/// [`FallbackReason::code`] gives a coarse machine-readable category.
#[derive(Clone, Debug, PartialEq)]
pub enum FallbackReason {
    /// The loop header is not a scan over a prepared source column.
    NotSourceLoop,
    /// The source's element type has no unboxed batch lane.
    BoxedSource(Ty),
    /// A loop-local declaration has a boxed type.
    BoxedLocal(Ty),
    /// A declaration's type disagrees with its initializer's lane.
    DeclLaneMismatch(Ty),
    /// A cast with no batch kernel.
    CastUnsupported(Ty),
    /// A statement form with no batch equivalent (payload from
    /// `stmt_kind`).
    Statement(&'static str),
    /// An expression form with no batch equivalent (payload from
    /// `expr_kind`).
    Expression(&'static str),
    /// An operator with no batch kernel on the given lane.
    Operator {
        /// The operator symbol.
        op: &'static str,
        /// The lane it was applied on (`"f64"` / `"i64"`).
        lane: &'static str,
    },
    /// A unary operator applied on a lane it has no kernel for.
    UnaryWrongLane(&'static str),
    /// A compile-time resource budget was exceeded (payload names the
    /// budget: `"f64 slot"`, `"parameter"`, `"accumulator"`, …).
    Budget(&'static str),
    /// A trapping op under a conditional branch: lane-wise select
    /// evaluates both branches on every lane, the scalar semantics only
    /// one.
    TrapUnderConditional,
    /// A trapping op in a short-circuit right operand: eager batch
    /// evaluation would trap on lanes the scalar semantics never
    /// reaches.
    TrapUnderShortCircuit,
    /// A grouped fold ignores its value operand, but dropping it would
    /// erase a trap the scalar semantics produces.
    DroppedValueMayTrap,
    /// An accumulator was read inside a value pipeline.
    AccumulatorInPipeline(String),
    /// A free variable is not an unboxed scalar register.
    NotUnboxedScalar(String),
    /// An assigned variable is not an unboxed f64/i64 accumulator.
    NotUnboxedAccumulator(String),
    /// A sink name with no compiled sink (indicates a codegen bug).
    UnknownSink(String),
    /// Operand lanes disagree (payload names the construct:
    /// `"comparison"`, `"arithmetic"`, `"fold"`, …).
    LaneMismatch(&'static str),
    /// A loop/statement shape the batcher does not recognize; the
    /// payload is the full message.
    Shape(&'static str),
}

impl FallbackReason {
    /// A coarse kebab-case category for machine consumption (JSON
    /// explain output groups on this).
    pub fn code(&self) -> &'static str {
        match self {
            FallbackReason::NotSourceLoop
            | FallbackReason::UnknownSink(_)
            | FallbackReason::Shape(_) => "loop-shape",
            FallbackReason::BoxedSource(_)
            | FallbackReason::BoxedLocal(_)
            | FallbackReason::NotUnboxedScalar(_)
            | FallbackReason::NotUnboxedAccumulator(_)
            | FallbackReason::AccumulatorInPipeline(_) => "boxed-value",
            FallbackReason::DeclLaneMismatch(_) | FallbackReason::LaneMismatch(_) => {
                "lane-mismatch"
            }
            FallbackReason::CastUnsupported(_)
            | FallbackReason::Expression(_)
            | FallbackReason::Operator { .. }
            | FallbackReason::UnaryWrongLane(_) => "unsupported-expression",
            FallbackReason::Statement(_) => "unsupported-statement",
            FallbackReason::Budget(_) => "budget",
            FallbackReason::TrapUnderConditional
            | FallbackReason::TrapUnderShortCircuit
            | FallbackReason::DroppedValueMayTrap => "trap-semantics",
        }
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::NotSourceLoop => f.write_str("loop is not over a source column"),
            FallbackReason::BoxedSource(ty) => {
                write!(f, "source element type {ty} is boxed")
            }
            FallbackReason::BoxedLocal(ty) => write!(f, "loop-local of boxed type {ty}"),
            FallbackReason::DeclLaneMismatch(ty) => {
                write!(f, "declaration of type {ty} got the wrong lane")
            }
            FallbackReason::CastUnsupported(ty) => write!(f, "cast to {ty} not vectorizable"),
            FallbackReason::Statement(kind) => {
                write!(f, "statement not batch-eligible: {kind}")
            }
            FallbackReason::Expression(kind) => {
                write!(f, "expression not vectorizable: {kind}")
            }
            FallbackReason::Operator { op, lane } => {
                write!(f, "operator {op} not vectorizable on {lane}")
            }
            FallbackReason::UnaryWrongLane(op) => write!(f, "unary {op} on the wrong lane"),
            FallbackReason::Budget(what) => write!(f, "{what} budget exceeded"),
            FallbackReason::TrapUnderConditional => {
                f.write_str("trapping op under a conditional branch")
            }
            FallbackReason::TrapUnderShortCircuit => {
                f.write_str("trapping op under a short-circuit operand")
            }
            FallbackReason::DroppedValueMayTrap => {
                f.write_str("dropped group value could trap")
            }
            FallbackReason::AccumulatorInPipeline(name) => {
                write!(f, "accumulator `{name}` read inside a value pipeline")
            }
            FallbackReason::NotUnboxedScalar(name) => {
                write!(f, "variable `{name}` is not an unboxed scalar")
            }
            FallbackReason::NotUnboxedAccumulator(name) => {
                write!(f, "assigned variable `{name}` is not an unboxed f64/i64 accumulator")
            }
            FallbackReason::UnknownSink(name) => write!(f, "unknown sink `{name}`"),
            FallbackReason::LaneMismatch(what) => write!(f, "{what} lane mismatch"),
            FallbackReason::Shape(msg) => f.write_str(msg),
        }
    }
}

/// The compiler's tier decision for one loop, in compilation order
/// (outer loops before the loops nested inside them).
#[derive(Clone, Debug, PartialEq)]
pub struct LoopPlan {
    /// The tier the loop landed in.
    pub tier: LoopTier,
    /// When the vectorizer was enabled but refused this loop, the exact
    /// reason it gave; `None` for vectorized loops or a disabled tier.
    pub vectorize_fallback: Option<FallbackReason>,
    /// When the cost model (rather than the static tier order) picked
    /// this loop's tier, its rationale — rendered verbatim as the
    /// `chosen-by:` line in `EXPLAIN`. `None` means the static order
    /// decided.
    pub chosen_by: Option<String>,
}

/// The scalar tape exactly as assembled, captured before the backend
/// optimization passes (`hoist_loop_invariant_consts`, `fuse_scalar_pairs`,
/// `shrink_frames`) run. The tape verifier ([`crate::check`]) treats this
/// as the reference semantics and proves the optimized tape equivalent to
/// it; execution never touches it.
#[derive(Clone, Debug)]
pub struct ScalarShadow {
    /// The pre-optimization instructions.
    pub instrs: Vec<Instr>,
    /// F-register frame size before `shrink_frames`.
    pub n_fregs: u32,
    /// I-register frame size before `shrink_frames`.
    pub n_iregs: u32,
    /// V-register frame size before `shrink_frames`.
    pub n_vregs: u32,
}

/// A complete bytecode program.
#[derive(Clone, Debug)]
pub struct Program {
    /// The instructions.
    pub instrs: Vec<Instr>,
    /// Number of F registers.
    pub n_fregs: u32,
    /// Number of I registers.
    pub n_iregs: u32,
    /// Number of V registers.
    pub n_vregs: u32,
    /// Number of sinks.
    pub n_sinks: u32,
    /// Number of loops compiled by the vectorized tier.
    pub n_batch: u32,
    /// Why loops (if any) fell back from the vectorized tier, in
    /// compilation order and deduplicated (two loops refused for the
    /// same reason list it once). Empty when everything vectorized or
    /// the tier was disabled.
    pub batch_fallbacks: Vec<FallbackReason>,
    /// Per-lane integer-division trap guards the compiler dropped
    /// because range analysis proved the divisor non-zero.
    pub n_guards_dropped: u32,
    /// Tier decision per compiled loop, in compilation order. The EXPLAIN
    /// facility renders these; the vectorized count agrees with `n_batch`.
    pub loop_plans: Vec<LoopPlan>,
    /// Display names of the fused batch kernels the backend installed
    /// (whole-tape shapes first, then peephole pairs), in loop order.
    pub fused_kernels: Vec<String>,
    /// Batch-column slots eliminated by lifetime-driven slot packing,
    /// summed over all vectorized loops.
    pub n_slots_reused: u32,
    /// Loop-invariant constant loads hoisted out of loop bodies.
    pub n_hoisted: u32,
    /// Scalar instruction pairs fused into superinstructions.
    pub n_superinstrs: u32,
    /// Source names in [`SrcId`] order.
    pub source_names: Vec<String>,
    /// UDF names in [`UdfId`] order.
    pub udf_names: Vec<String>,
    /// Result type of the program.
    pub result_ty: Ty,
    /// Pre-optimization reference tape for translation validation, or
    /// `None` for hand-assembled programs (the checker then skips the
    /// scalar-equivalence obligation and checks the tape standalone).
    pub shadow: Option<std::sync::Arc<ScalarShadow>>,
}

impl Program {
    /// The number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` for an empty program (never produced by the compiler).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instructions_are_compact() {
        // The interpreter's dispatch cost scales with instruction size;
        // keep the common case within two cache lines.
        assert!(
            std::mem::size_of::<Instr>() <= 48,
            "Instr grew to {} bytes",
            std::mem::size_of::<Instr>()
        );
    }
}
