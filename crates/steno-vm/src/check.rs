//! The tape verifier: translation validation for compiled programs.
//!
//! Every backend pass below QUIL — loop-invariant hoisting, scalar pair
//! fusion, frame shrinking, batch-slot packing, kernel fusion, peephole
//! superinstructions, interval-justified unchecked division — is an
//! opportunity for a silent miscompile. This module is the independent
//! referee: an abstract interpreter that re-derives, from the compiled
//! [`Program`] tape alone (plus the pre-optimization shadow tapes
//! captured by [`crate::compile`] and re-run `steno-analysis` facts), a
//! catalogue of proof obligations, and rejects any tape that violates
//! one:
//!
//! * **Cfg** — every branch target in bounds, no fall-off-the-end, and
//!   every cycle in the instruction graph crosses an interrupt poll
//!   (backward transfers poll in [`crate::exec`]; `BatchLoop` polls at
//!   batch boundaries), so `steno-serve` deadlines always fire.
//! * **Dataflow** — typed def-before-use over F/I/V register banks and
//!   over batch slots *after* `pack_batch_slots` reuse and
//!   `shrink_frames`: no read of a register or slot that is out of
//!   bounds or not definitely assigned on every path.
//! * **Div** — every `DivIUnchecked`/`RemIUnchecked` justified by an
//!   interval fact excluding zero, *re-derived here* from
//!   [`steno_analysis::analyze`] on the recorded divisor expression —
//!   the checker recomputes the proof rather than trusting compile.rs.
//! * **Cut** — every early-exit `Cut` on a batch tape is preceded by no
//!   trapping division and no effect (fold, group upsert, yield): those
//!   run eagerly on every lane of the batch, including lanes past the
//!   exit the scalar loop never reaches. Re-derived from the tape, not
//!   trusted from the vectorizer, and the loop's index window must equal
//!   the one its shadow recorded.
//! * **Call** — every batch `Call` names a UDF the program records as
//!   pure, its argument and destination lanes match the recorded
//!   signature, and no trapping op of another error kind shares its
//!   tape (the batch tier could otherwise report a different first
//!   error than the scalar loop).
//! * **Sink** — every typed sink is used as it was created: a sort's
//!   top-k bound is at least its only reader's window end (that reader
//!   a batch loop, the sink never frozen for a scalar one), a
//!   direct-indexed group table's slot range covers the key interval
//!   *re-derived here* from each update site's recorded key expression,
//!   sink appends and sink reads use the sink's lanes, and no sort or
//!   distinct append precedes an early-exit `Cut`.
//! * **Equiv** — the optimized tape is equivalent to its shadow
//!   (pre-optimization) tape by symbolic execution: cut-point
//!   bisimulation for the scalar tape (validating hoisting, pair
//!   fusion, and `BrCmp*`/`IncJump`/`MulAdd*` superinstructions against
//!   their de-sugared forms), and effect-stream comparison for batch
//!   tapes and their fused whole-tape kernels.
//!
//! The checker is deliberately written against a *different* semantic
//! model than the passes it audits (must-defined bitsets, hash-consed
//! symbolic values, ordered effect streams) so a bug in a pass and a
//! bug in the checker are unlikely to coincide. Its own evidence of
//! strength is `tests/tape_mutation.rs`: twelve classes of deliberate
//! miscompile injected into real corpus tapes, every one rejected.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::batch::{
    recorded_interval, BInit, BOp, BatchProgram, BatchSrc, FOp, FUnOp, IOp, IUnOp, Lane, RedK,
};
use crate::instr::{CmpOp, Instr, Program, ScalarShadow, SKey, UdfSig};
use crate::lifetimes::{instr_io, RegBank};
use crate::sink::{KeyRange, SortCols, SortSpec};

// ---------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------

/// Which proof obligation a rejected tape violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObligationKind {
    /// Control-flow well-formedness: targets in bounds, no fall-off.
    Cfg,
    /// Typed def-before-use over registers and batch slots.
    Dataflow,
    /// Every loop reaches an interrupt poll.
    Polls,
    /// Unchecked division justified by a re-derived interval fact.
    Div,
    /// Early-exit cut preceded by no trap and no effect.
    Cut,
    /// Batch UDF call to a recorded pure UDF, lanes matching its
    /// signature, alone in its tape's trap kind.
    Call,
    /// Typed sinks: a top-k bound covers its only reader's window, a
    /// direct-indexed group table's slot range covers every update
    /// site's re-derived key interval, sink appends and sink reads match
    /// the sink's lanes, and no append precedes a cut.
    Sink,
    /// Optimized tape equivalent to its pre-optimization shadow.
    Equiv,
}

impl fmt::Display for ObligationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObligationKind::Cfg => "cfg",
            ObligationKind::Dataflow => "dataflow",
            ObligationKind::Polls => "polls",
            ObligationKind::Div => "div",
            ObligationKind::Cut => "cut",
            ObligationKind::Call => "call",
            ObligationKind::Sink => "sink",
            ObligationKind::Equiv => "equiv",
        };
        f.write_str(s)
    }
}

/// A rejected tape: the violated obligation and what the checker saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckError {
    /// The obligation category that failed.
    pub kind: ObligationKind,
    /// Human-readable description of the exact violation.
    pub detail: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tape-check failed [{}]: {}", self.kind, self.detail)
    }
}

impl std::error::Error for CheckError {}

fn err(kind: ObligationKind, detail: impl Into<String>) -> CheckError {
    CheckError { kind, detail: detail.into() }
}

/// Obligations discharged by a passing check, per category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TapeReport {
    /// Branch targets verified in bounds (plus the no-fall-off proof).
    pub cfg: u32,
    /// Register/slot reads proven definitely-assigned and in bounds.
    pub dataflow: u32,
    /// Loop back-edges / batch boundaries proven to reach a poll.
    pub polls: u32,
    /// Unchecked divisions re-justified from interval analysis.
    pub div: u32,
    /// Early-exit cuts proven to follow no trap and no effect.
    pub cut: u32,
    /// Batch UDF calls proven pure, lane-correct and alone in their
    /// tape's trap kind.
    pub call: u32,
    /// Typed-sink bounds, key ranges, appends and reads proven.
    pub sink: u32,
    /// Equivalence cut-points / kernel shapes discharged symbolically.
    pub equiv: u32,
}

impl TapeReport {
    /// Total obligations discharged across all categories.
    pub fn total(&self) -> u32 {
        self.cfg + self.dataflow + self.polls + self.div + self.cut + self.call + self.sink
            + self.equiv
    }

    /// One-line summary for EXPLAIN output, e.g.
    /// `passed (cfg 3, dataflow 17, polls 1, div 0, cut 0, call 0, sink 0, equiv 4)`.
    pub fn summary(&self) -> String {
        format!(
            "passed (cfg {}, dataflow {}, polls {}, div {}, cut {}, call {}, sink {}, equiv {})",
            self.cfg,
            self.dataflow,
            self.polls,
            self.div,
            self.cut,
            self.call,
            self.sink,
            self.equiv
        )
    }
}

/// Checks every proof obligation for a compiled program.
///
/// Returns the discharged-obligation counts on success, or the first
/// violation found. Programs without a captured shadow (hand-assembled
/// tapes) are checked standalone — every obligation except shadow
/// equivalence still applies.
pub fn check_program(p: &Program) -> Result<TapeReport, CheckError> {
    let mut rep = TapeReport::default();
    check_cfg(&p.instrs, &mut rep)?;
    check_scalar_dataflow(&p.instrs, p.n_fregs, p.n_iregs, p.n_vregs, &mut rep)?;
    for ins in &p.instrs {
        if let Instr::BatchLoop(bp) = ins {
            check_calls(bp, p, &mut rep)?;
            check_batch(bp, &mut rep)?;
        }
    }
    check_sinks(p, &mut rep)?;
    if let Some(shadow) = &p.shadow {
        check_scalar_equiv(shadow, p, &mut rep)?;
    }
    Ok(rep)
}

// ---------------------------------------------------------------------
// (a) Control flow: bounds, termination, polls
// ---------------------------------------------------------------------

/// Successors of the instruction at `pc`, as (target, polls) pairs.
/// `polls` is true when the VM checks the interrupt flag on that edge:
/// backward transfers poll in [`crate::exec`]; everything else does not.
/// The rule here is deliberately *strictly* backward (`target < pc`):
/// a self-jump — the tightest possible spin, which a correct compile
/// never emits — therefore shows up as a poll-free cycle and is
/// rejected rather than trusted to the interpreter's poll budget.
fn successors(instrs: &[Instr], pc: usize) -> Vec<(usize, bool)> {
    let back = |t: u32| (t as usize, (t as usize) < pc);
    match &instrs[pc] {
        Instr::Jump(t) => vec![back(*t)],
        Instr::IncJump { target, .. } => vec![back(*target)],
        Instr::JumpIfFalse(_, t) | Instr::JumpIfTrue(_, t) => {
            vec![back(*t), (pc + 1, false)]
        }
        Instr::BrCmpF { target, .. } | Instr::BrCmpI { target, .. } => {
            vec![back(*target), (pc + 1, false)]
        }
        Instr::HaltF(_)
        | Instr::HaltI(_)
        | Instr::HaltB(_)
        | Instr::HaltV(_)
        | Instr::HaltOut => vec![],
        _ => vec![(pc + 1, false)],
    }
}

fn check_cfg(instrs: &[Instr], rep: &mut TapeReport) -> Result<(), CheckError> {
    if instrs.is_empty() {
        return Err(err(ObligationKind::Cfg, "empty tape (no halt)"));
    }
    let len = instrs.len();
    for (pc, ins) in instrs.iter().enumerate() {
        let target = match ins {
            Instr::Jump(t)
            | Instr::JumpIfFalse(_, t)
            | Instr::JumpIfTrue(_, t) => Some(*t),
            Instr::BrCmpF { target, .. }
            | Instr::BrCmpI { target, .. }
            | Instr::IncJump { target, .. } => Some(*target),
            _ => None,
        };
        if let Some(t) = target {
            if (t as usize) >= len {
                return Err(err(
                    ObligationKind::Cfg,
                    format!("pc {pc}: branch target {t} out of bounds (len {len})"),
                ));
            }
            rep.cfg += 1;
        }
        // The last instruction must not fall through past the end.
        if pc + 1 == len
            && !matches!(
                ins,
                Instr::Jump(_)
                    | Instr::IncJump { .. }
                    | Instr::HaltF(_)
                    | Instr::HaltI(_)
                    | Instr::HaltB(_)
                    | Instr::HaltV(_)
                    | Instr::HaltOut
            )
        {
            return Err(err(
                ObligationKind::Cfg,
                format!("pc {pc}: tape can fall off the end (last instr {ins:?})"),
            ));
        }
    }
    rep.cfg += 1; // the no-fall-off obligation itself

    // Poll obligation: every cycle must cross a polling edge. Backward
    // transfers poll; `BatchLoop` polls internally at batch boundaries
    // (the batch runner and its fused kernels consult the interrupt flag
    // per chunk), so its self-contained loop is structurally discharged.
    // Remove all polling edges and require the rest to be acyclic
    // (Kahn's algorithm on the non-polling edge subgraph).
    for ins in instrs {
        if matches!(ins, Instr::BatchLoop(_)) {
            rep.polls += 1;
        }
    }
    let mut indeg = vec![0u32; len];
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); len];
    for (pc, out) in edges.iter_mut().enumerate() {
        for (t, polls) in successors(instrs, pc) {
            if polls {
                rep.polls += 1; // a discharged back-edge poll
            } else {
                out.push(t);
                indeg[t] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..len).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(n) = queue.pop() {
        seen += 1;
        for &t in &edges[n] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                queue.push(t);
            }
        }
    }
    if seen != len {
        let stuck: Vec<usize> = (0..len).filter(|&i| indeg[i] > 0).collect();
        return Err(err(
            ObligationKind::Polls,
            format!("loop without an interrupt poll through pcs {stuck:?}"),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// (b) Scalar dataflow: bounds + must-defined registers
// ---------------------------------------------------------------------

/// A fixed-width bitset over one register bank.
#[derive(Clone, PartialEq, Eq)]
struct Bits(Vec<u64>);

impl Bits {
    fn empty(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64)])
    }
    fn get(&self, i: u32) -> bool {
        self.0
            .get(i as usize / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }
    fn set(&mut self, i: u32) {
        if let Some(w) = self.0.get_mut(i as usize / 64) {
            *w |= 1u64 << (i % 64);
        }
    }
    /// `self &= other`; true when any bit changed.
    fn intersect(&mut self, other: &Bits) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            let n = *a & *b;
            changed |= n != *a;
            *a = n;
        }
        changed
    }
    /// `self |= other`; true when any bit changed.
    fn union(&mut self, other: &Bits) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            let n = *a | *b;
            changed |= n != *a;
            *a = n;
        }
        changed
    }
}

fn bank_name(bank: RegBank) -> &'static str {
    match bank {
        RegBank::F => "F",
        RegBank::I => "I",
        RegBank::V => "V",
    }
}

fn bank_idx(bank: RegBank) -> usize {
    match bank {
        RegBank::F => 0,
        RegBank::I => 1,
        RegBank::V => 2,
    }
}

/// Bounds + must-defined dataflow over the three scalar register banks.
///
/// The VM zero-initializes frames, so a read of a never-written register
/// cannot be a memory-safety issue — but after `shrink_frames` and
/// register-pair fusion it *is* the signature of a miscompile (a pass
/// redirected an operand to a register nothing defines), so the checker
/// treats any read not dominated by a write on every path as a
/// violation. Loop-carried registers (accumulators, induction counters)
/// are written in the preamble before the loop header, so real tapes
/// pass; a swapped-operand mutation does not.
fn check_scalar_dataflow(
    instrs: &[Instr],
    n_fregs: u32,
    n_iregs: u32,
    n_vregs: u32,
    rep: &mut TapeReport,
) -> Result<(), CheckError> {
    let counts = [n_fregs, n_iregs, n_vregs];
    // Pass 1: bounds for every operand, read or written.
    for (pc, ins) in instrs.iter().enumerate() {
        let mut oob: Option<(RegBank, u32)> = None;
        instr_io(ins, |bank, reg, _| {
            if reg >= counts[bank_idx(bank)] && oob.is_none() {
                oob = Some((bank, reg));
            }
        });
        if let Some((bank, reg)) = oob {
            return Err(err(
                ObligationKind::Dataflow,
                format!(
                    "pc {pc}: register {}{} out of bounds (frame has {})",
                    bank_name(bank),
                    reg,
                    counts[bank_idx(bank)]
                ),
            ));
        }
    }

    // Pass 2: must-defined forward dataflow. `defs[pc]` = registers
    // definitely written on every path reaching `pc`; join is
    // intersection; entry starts empty.
    let n = instrs.len();
    let empty = [
        Bits::empty(n_fregs as usize),
        Bits::empty(n_iregs as usize),
        Bits::empty(n_vregs as usize),
    ];
    // `None` = unreachable (join identity).
    let mut inb: Vec<Option<[Bits; 3]>> = vec![None; n];
    inb[0] = Some(empty.clone());
    let mut work: Vec<usize> = vec![0];
    let mut steps = 0usize;
    while let Some(pc) = work.pop() {
        steps += 1;
        if steps > 64 * n + 1024 {
            return Err(err(
                ObligationKind::Dataflow,
                "dataflow fixpoint budget exceeded".to_string(),
            ));
        }
        let Some(state) = inb[pc].clone() else { continue };
        let mut out = state;
        instr_io(&instrs[pc], |bank, reg, is_write| {
            if is_write {
                out[bank_idx(bank)].set(reg);
            }
        });
        for (t, _) in successors(instrs, pc) {
            match &mut inb[t] {
                Some(existing) => {
                    let mut changed = false;
                    for (e, o) in existing.iter_mut().zip(&out) {
                        changed |= e.intersect(o);
                    }
                    if changed {
                        work.push(t);
                    }
                }
                slot @ None => {
                    *slot = Some(out.clone());
                    work.push(t);
                }
            }
        }
    }

    // Pass 3: verify every read against the fixpoint.
    for (pc, ins) in instrs.iter().enumerate() {
        let Some(state) = &inb[pc] else { continue }; // unreachable pc
        let mut bad: Option<(RegBank, u32)> = None;
        let mut reads = 0u32;
        instr_io(ins, |bank, reg, is_write| {
            if !is_write {
                reads += 1;
                if !state[bank_idx(bank)].get(reg) && bad.is_none() {
                    bad = Some((bank, reg));
                }
            }
        });
        if let Some((bank, reg)) = bad {
            return Err(err(
                ObligationKind::Dataflow,
                format!(
                    "pc {pc}: read of {}{} not definitely assigned ({ins:?})",
                    bank_name(bank),
                    reg
                ),
            ));
        }
        rep.dataflow += reads;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Symbolic domain (shared by batch and scalar equivalence)
// ---------------------------------------------------------------------

/// A hash-consed symbolic value. Equal ids ⇔ structurally equal terms,
/// so equivalence comparison is integer equality.
type Sym = u32;

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
enum SymKey {
    /// The current source element of a batch loop.
    SrcElem,
    /// The second component of the current element of a batch loop
    /// over `(key, accumulator)` pairs.
    SrcSnd,
    /// An f64 constant, by bit pattern (so `-0.0 != 0.0`, `NaN == NaN`:
    /// the optimizer must preserve bits, not just numeric value).
    ConstF(u64),
    ConstI(i64),
    ConstB(bool),
    /// A boxed constant, by its `Debug` rendering.
    ConstV(String),
    /// A loop-invariant parameter of a batch loop.
    ParamF(u8),
    ParamI(u8),
    /// The unknown value of register `reg` of `bank` at cut-point
    /// `pair` — shared by shadow and optimized states.
    CutVal(u32, u8, u32),
    /// A register the shadow side treats as havocked (not live-in) at
    /// cut-point `pair`. Reading one is not itself an error — only
    /// letting it flow into an effect or a live exit register is, and
    /// then the symbolic comparison fails naturally.
    Undef(u32, u8, u32),
    /// The optimized side's join of disagreeing values for a non-live
    /// register at cut-point `pair` (monotone top).
    TDiff(u32, u8, u32),
    /// The result `out` of the `idx`-th effect in segment `pair` —
    /// shared by both sides once their effect calls are proven equal.
    EffectRes(u32, u32, u32),
    /// A pure operator applied to interned arguments: the arity and a
    /// fixed argument buffer (checker operators take at most four), so
    /// constructing a key never heap-allocates.
    Apply(&'static str, u8, [Sym; 4]),
}

/// FNV-1a, a few instructions per byte. The interner is on the hot
/// path of every bisimulation visit (each segment step interns one to
/// three keys, almost always hits), and the default hasher's
/// per-lookup cost dominated the whole equivalence pass when profiled;
/// the keys are tiny and attacker-controlled collisions are not a
/// concern for a bounded in-process checker.
#[derive(Default)]
struct Fnv(u64);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<Fnv>>;

#[derive(Default)]
struct Syms {
    map: FnvMap<SymKey, Sym>,
    n: u32,
}

impl Syms {
    fn intern(&mut self, k: SymKey) -> Sym {
        if let Some(&id) = self.map.get(&k) {
            return id;
        }
        let id = self.n;
        self.n += 1;
        self.map.insert(k, id);
        id
    }

    fn cf(&mut self, v: f64) -> Sym {
        self.intern(SymKey::ConstF(v.to_bits()))
    }
    fn ci(&mut self, v: i64) -> Sym {
        self.intern(SymKey::ConstI(v))
    }
    fn cb(&mut self, v: bool) -> Sym {
        self.intern(SymKey::ConstB(v))
    }

    /// Interns `tag(args)` after normalization: commutative operators
    /// sort their arguments; `>`/`>=` canonicalize to `<`/`<=` with
    /// swapped operands (exact for both IEEE f64 and i64, since the
    /// operands are the same runtime values either way).
    fn apply(&mut self, tag: &'static str, args: &[Sym]) -> Sym {
        debug_assert!(args.len() <= 4, "checker operators take at most 4 args");
        let mut buf = [0; 4];
        let n = args.len().min(4);
        buf[..n].copy_from_slice(&args[..n]);
        let args = &mut buf[..n];
        const COMMUTATIVE: &[&str] = &[
            "addi", "muli", "eqf", "nef", "eqi", "nei", "eqv", "eqfb",
            "nefb", "eqib", "neib", "eqbb", "nebb", "andb", "orb",
        ];
        let tag = match tag {
            "gtf" => {
                args.swap(0, 1);
                "ltf"
            }
            "gef" => {
                args.swap(0, 1);
                "lef"
            }
            "gti" => {
                args.swap(0, 1);
                "lti"
            }
            "gei" => {
                args.swap(0, 1);
                "lei"
            }
            "gtfb" => {
                args.swap(0, 1);
                "ltfb"
            }
            "gefb" => {
                args.swap(0, 1);
                "lefb"
            }
            "gtib" => {
                args.swap(0, 1);
                "ltib"
            }
            "geib" => {
                args.swap(0, 1);
                "leib"
            }
            "gtbb" => {
                args.swap(0, 1);
                "ltbb"
            }
            "gebb" => {
                args.swap(0, 1);
                "lebb"
            }
            t => t,
        };
        if COMMUTATIVE.contains(&tag) {
            args.sort_unstable();
        }
        self.intern(SymKey::Apply(tag, n as u8, buf))
    }
}

/// One observable action of a tape segment, in program order. Two
/// segments are equivalent when their effect streams match call-by-call
/// (same tag, same argument symbols) and their pure results agree.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Effect {
    /// Operation name.
    tag: &'static str,
    /// Static immediate (sink/src/udf id, acc index, loop identity);
    /// zero when the operation has none. Kept numeric so building an
    /// effect never allocates — effect streams are rebuilt on every
    /// bisimulation visit.
    id: u64,
    /// Interned operand symbols, in operand order.
    args: Vec<Sym>,
}

// ---------------------------------------------------------------------
// (c)+(d) Batch tapes: slot dataflow, div proofs, kernel equivalence
// ---------------------------------------------------------------------

/// Symbolic state of the three batch slot banks. `None` = never
/// written (reading it is a def-before-use violation: `pack_batch_slots`
/// must not move a read ahead of the write that feeds it).
struct BatchState {
    f: Vec<Option<Sym>>,
    i: Vec<Option<Sym>>,
    b: Vec<Option<Sym>>,
}

struct BatchRun {
    effects: Vec<Effect>,
    /// `(operand syms, is_rem)` per unchecked division, in tape order.
    unchecked: Vec<(Sym, Sym, bool)>,
    reads: u32,
    /// Cuts proven to follow no trap and no effect.
    cuts: u32,
}

/// Symbolically executes one prologue+tape over `syms`, producing the
/// ordered effect stream. Rejects out-of-bounds slots and reads of
/// never-written slots. `who` labels errors ("tape" or "shadow").
fn run_batch_tape(
    syms: &mut Syms,
    n_f: u8,
    n_i: u8,
    n_b: u8,
    prologue: &[BInit],
    tape: &[BOp],
    who: &str,
) -> Result<BatchRun, CheckError> {
    let mut st = BatchState {
        f: vec![None; n_f as usize],
        i: vec![None; n_i as usize],
        b: vec![None; n_b as usize],
    };
    let mut run = BatchRun { effects: Vec::new(), unchecked: Vec::new(), reads: 0, cuts: 0 };
    // The first op that must not precede a cut: a trapping division or
    // an effect, both of which run on every lane of the batch.
    let mut eager: Option<&'static str> = None;
    // A sink append before a cut breaks the sink obligation: the sink
    // would hold elements past the exit.
    let mut append_before_cut = false;

    fn oob(who: &str, lane: &str, s: u8, n: u8) -> CheckError {
        err(
            ObligationKind::Dataflow,
            format!("batch {who}: {lane} slot {s} out of bounds (bank has {n})"),
        )
    }
    macro_rules! rd {
        ($bank:ident, $n:expr, $lane:literal, $s:expr) => {{
            let s = $s;
            let slot = st
                .$bank
                .get(s as usize)
                .ok_or_else(|| oob(who, $lane, s, $n))?;
            run.reads += 1;
            slot.ok_or_else(|| {
                err(
                    ObligationKind::Dataflow,
                    format!(
                        "batch {who}: read of {} slot {} before any write",
                        $lane, s
                    ),
                )
            })?
        }};
    }
    macro_rules! wr {
        ($bank:ident, $n:expr, $lane:literal, $d:expr, $v:expr) => {{
            let d = $d;
            let v = $v;
            *st.$bank
                .get_mut(d as usize)
                .ok_or_else(|| oob(who, $lane, d, $n))? = Some(v);
        }};
    }

    macro_rules! lane_rd {
        ($ls:expr) => {{
            let (lane, s) = $ls;
            match lane {
                Lane::F => rd!(f, n_f, "f64", s),
                Lane::I => rd!(i, n_i, "i64", s),
                Lane::B => rd!(b, n_b, "bool", s),
            }
        }};
    }
    macro_rules! lane_wr {
        ($ld:expr, $v:expr) => {{
            let (lane, d) = $ld;
            match lane {
                Lane::F => wr!(f, n_f, "f64", d, $v),
                Lane::I => wr!(i, n_i, "i64", d, $v),
                Lane::B => wr!(b, n_b, "bool", d, $v),
            }
        }};
    }
    // An op on a lane it has no kernel for: the executor would fault.
    let no_kernel = |what: &str| {
        err(ObligationKind::Dataflow, format!("batch {who}: {what} has no kernel on the bool lane"))
    };

    for init in prologue {
        match *init {
            BInit::ConstF(d, v) => {
                let s = syms.cf(v);
                wr!(f, n_f, "f64", d, s);
            }
            BInit::ConstI(d, v) => {
                let s = syms.ci(v);
                wr!(i, n_i, "i64", d, s);
            }
            BInit::ConstB(d, v) => {
                let s = syms.cb(v);
                wr!(b, n_b, "bool", d, s);
            }
            BInit::ParamF(d, p) => {
                let s = syms.intern(SymKey::ParamF(p));
                wr!(f, n_f, "f64", d, s);
            }
            BInit::ParamI(d, p) => {
                let s = syms.intern(SymKey::ParamI(p));
                wr!(i, n_i, "i64", d, s);
            }
            BInit::ParamB(d, p) => {
                // Bool params ride the i64 param snapshot in the VM.
                let pi = syms.intern(SymKey::ParamI(p));
                let s = syms.apply("i2b", &[pi]);
                wr!(b, n_b, "bool", d, s);
            }
        }
    }

    let src = syms.intern(SymKey::SrcElem);
    for op in tape {
        if eager.is_none() {
            eager = match op {
                BOp::DivI(..) | BOp::RemI(..) => Some("trapping division"),
                BOp::Red { .. } | BOp::MulRedAdd { .. } => Some("fold"),
                BOp::GroupAdd { .. } => Some("group upsert"),
                BOp::Out(..) | BOp::OutPair(..) => Some("yield"),
                BOp::Call { .. } => Some("udf call"),
                BOp::SortPush { .. } | BOp::DistinctPush { .. } => {
                    append_before_cut = true;
                    Some("sink append")
                }
                _ => None,
            };
        }
        match *op {
            BOp::Load(lane, d) => lane_wr!((lane, d), src),
            BOp::LoadSnd(lane, d) => {
                let snd = syms.intern(SymKey::SrcSnd);
                lane_wr!((lane, d), snd);
            }

            BOp::BinF(o, d, a, b) => {
                let (x, y) = (rd!(f, n_f, "f64", a), rd!(f, n_f, "f64", b));
                let s = syms.apply(bin_f_tag(o), &[x, y]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::UnF(o, d, a) => {
                let x = rd!(f, n_f, "f64", a);
                let s = syms.apply(un_f_tag(o), &[x]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::BinI(o, d, a, b) => {
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                let s = syms.apply(bin_i_tag(o), &[x, y]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::UnI(o, d, a) => {
                let x = rd!(i, n_i, "i64", a);
                let s = syms.apply(un_i_tag(o), &[x]);
                wr!(i, n_i, "i64", d, s);
            }

            BOp::DivI(d, a, b) => {
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                // Traps on live zero divisors: the check is an
                // observable effect and must stay in order.
                run.effects.push(Effect { tag: "divi.trap", id: 0, args: vec![x, y] });
                let s = syms.apply("divi", &[x, y]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::RemI(d, a, b) => {
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                run.effects.push(Effect { tag: "remi.trap", id: 0, args: vec![x, y] });
                let s = syms.apply("remi", &[x, y]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::DivIUnchecked(d, a, b) => {
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                run.unchecked.push((x, y, false));
                let s = syms.apply("diviu", &[x, y]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::RemIUnchecked(d, a, b) => {
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                run.unchecked.push((x, y, true));
                let s = syms.apply("remiu", &[x, y]);
                wr!(i, n_i, "i64", d, s);
            }

            BOp::Cmp(lane, o, d, a, b) => {
                let (x, y) = (lane_rd!((lane, a)), lane_rd!((lane, b)));
                let s = syms.apply(cmp_tag(lane, o), &[x, y]);
                wr!(b, n_b, "bool", d, s);
            }
            BOp::AndB(d, a, b) => {
                let (x, y) = (rd!(b, n_b, "bool", a), rd!(b, n_b, "bool", b));
                let s = syms.apply("andb", &[x, y]);
                wr!(b, n_b, "bool", d, s);
            }
            BOp::OrB(d, a, b) => {
                let (x, y) = (rd!(b, n_b, "bool", a), rd!(b, n_b, "bool", b));
                let s = syms.apply("orb", &[x, y]);
                wr!(b, n_b, "bool", d, s);
            }
            BOp::NotB(d, a) => {
                let x = rd!(b, n_b, "bool", a);
                let s = syms.apply("notb", &[x]);
                wr!(b, n_b, "bool", d, s);
            }

            BOp::F2I(d, a) => {
                let x = rd!(f, n_f, "f64", a);
                let s = syms.apply("f2i", &[x]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::I2F(d, a) => {
                let x = rd!(i, n_i, "i64", a);
                let s = syms.apply("i2f", &[x]);
                wr!(f, n_f, "f64", d, s);
            }

            BOp::Sel { lane, dst, mask, t, e } => {
                let m = rd!(b, n_b, "bool", mask);
                let (x, y) = (lane_rd!((lane, t)), lane_rd!((lane, e)));
                let s = syms.apply(sel_tag(lane), &[m, x, y]);
                lane_wr!((lane, dst), s);
            }

            BOp::Filter(m) => {
                let x = rd!(b, n_b, "bool", m);
                run.effects.push(Effect { tag: "filter", id: 0, args: vec![x] });
            }
            BOp::Cut(m) => {
                if let Some(what) = eager {
                    let kind = if append_before_cut {
                        ObligationKind::Sink
                    } else {
                        ObligationKind::Cut
                    };
                    return Err(err(
                        kind,
                        format!(
                            "batch {who}: cut #{} follows a {what}, which runs on \
                             lanes past the exit",
                            run.cuts
                        ),
                    ));
                }
                let x = rd!(b, n_b, "bool", m);
                run.effects.push(Effect { tag: "cut", id: 0, args: vec![x] });
                run.cuts += 1;
            }

            BOp::Red { red, lane, acc, val } => {
                let tag = red_tag(red, lane).ok_or_else(|| no_kernel("reduction"))?;
                let x = lane_rd!((lane, val));
                run.effects.push(Effect { tag, id: u64::from(acc), args: vec![x] });
            }

            BOp::GroupAdd { lane, sink, key, val } => {
                let tag = match lane {
                    Lane::F => "groupaddf",
                    Lane::I => "groupaddi",
                    Lane::B => return Err(no_kernel("group upsert")),
                };
                let k = lane_rd!(key);
                let v = lane_rd!((lane, val));
                run.effects.push(Effect { tag, id: u64::from(sink), args: vec![k, v] });
            }

            BOp::Out(lane, s) => {
                let x = lane_rd!((lane, s));
                run.effects.push(Effect { tag: out_tag(lane), id: 0, args: vec![x] });
            }
            BOp::OutPair(a, b) => {
                let x = lane_rd!(a);
                let y = lane_rd!(b);
                let id = (lane_code(a.0) << 2) | lane_code(b.0);
                run.effects.push(Effect { tag: "outpair", id, args: vec![x, y] });
            }
            BOp::SortPush { sink, key, val } => {
                let k = lane_rd!(key);
                let v = lane_rd!(val);
                let id = (u64::from(sink) << 4) | (lane_code(key.0) << 2) | lane_code(val.0);
                run.effects.push(Effect { tag: "sortpush", id, args: vec![k, v] });
            }
            BOp::DistinctPush { sink, val } => {
                let v = lane_rd!(val);
                let id = (u64::from(sink) << 2) | lane_code(val.0);
                run.effects.push(Effect { tag: "distinctpush", id, args: vec![v] });
            }

            BOp::Call { udf, args, dst } => {
                // An uninterpreted function of its arguments. The call
                // can trap (a wrong-typed result), so it is also an
                // effect that must stay in order.
                let mut operands = vec![syms.ci(i64::from(udf))];
                for &(lane, s) in args.as_slice() {
                    operands.push(match lane {
                        Lane::F => rd!(f, n_f, "f64", s),
                        Lane::I => rd!(i, n_i, "i64", s),
                        Lane::B => rd!(b, n_b, "bool", s),
                    });
                }
                run.effects.push(Effect {
                    tag: "call.trap",
                    id: u64::from(udf),
                    args: operands[1..].to_vec(),
                });
                let r = syms.apply("call", &operands);
                match dst {
                    (Lane::F, d) => wr!(f, n_f, "f64", d, r),
                    (Lane::I, d) => wr!(i, n_i, "i64", d, r),
                    (Lane::B, d) => wr!(b, n_b, "bool", d, r),
                }
            }

            BOp::MulAdd(lane, d, a, b, c) => {
                // Two roundings, product first: model exactly as the
                // unfused pair so the shadow comparison is honest.
                let (mul, add) = match lane {
                    Lane::F => ("mulf", "addf"),
                    Lane::I => ("muli", "addi"),
                    Lane::B => return Err(no_kernel("multiply-add")),
                };
                let (x, y, z) = (lane_rd!((lane, a)), lane_rd!((lane, b)), lane_rd!((lane, c)));
                let m = syms.apply(mul, &[x, y]);
                let s = syms.apply(add, &[m, z]);
                lane_wr!((lane, d), s);
            }
            BOp::MulRedAdd { lane, acc, a, b } => {
                let (mul, tag) = match lane {
                    Lane::F => ("mulf", "redaddf"),
                    Lane::I => ("muli", "redaddi"),
                    Lane::B => return Err(no_kernel("multiply-reduce")),
                };
                let (x, y) = (lane_rd!((lane, a)), lane_rd!((lane, b)));
                let m = syms.apply(mul, &[x, y]);
                run.effects.push(Effect { tag, id: u64::from(acc), args: vec![m] });
            }
        }
    }
    Ok(run)
}

/// A lane as a two-bit code, for effect immediates.
fn lane_code(lane: Lane) -> u64 {
    match lane {
        Lane::F => 0,
        Lane::I => 1,
        Lane::B => 2,
    }
}

// The checker's own operator → tag tables. They are written out here,
// not derived from a name the producer also uses, so an operator slip in
// the vectorizer or a backend pass shows up as a tag mismatch against the
// shadow tape.

fn bin_f_tag(op: FOp) -> &'static str {
    match op {
        FOp::Add => "addf",
        FOp::Sub => "subf",
        FOp::Mul => "mulf",
        FOp::Div => "divf",
        FOp::Rem => "remf",
        FOp::Min => "minf",
        FOp::Max => "maxf",
    }
}

fn bin_i_tag(op: IOp) -> &'static str {
    match op {
        IOp::Add => "addi",
        IOp::Sub => "subi",
        IOp::Mul => "muli",
        IOp::Min => "mini",
        IOp::Max => "maxi",
    }
}

fn un_f_tag(op: FUnOp) -> &'static str {
    match op {
        FUnOp::Neg => "negf",
        FUnOp::Abs => "absf",
        FUnOp::Sqrt => "sqrtf",
        FUnOp::Floor => "floorf",
    }
}

fn un_i_tag(op: IUnOp) -> &'static str {
    match op {
        IUnOp::Neg => "negi",
        IUnOp::Abs => "absi",
    }
}

/// A batch comparison into the bool bank.
fn cmp_tag(lane: Lane, op: CmpOp) -> &'static str {
    match (lane, op) {
        (Lane::F, CmpOp::Eq) => "eqfb",
        (Lane::F, CmpOp::Ne) => "nefb",
        (Lane::F, CmpOp::Lt) => "ltfb",
        (Lane::F, CmpOp::Le) => "lefb",
        (Lane::F, CmpOp::Gt) => "gtfb",
        (Lane::F, CmpOp::Ge) => "gefb",
        (Lane::I, CmpOp::Eq) => "eqib",
        (Lane::I, CmpOp::Ne) => "neib",
        (Lane::I, CmpOp::Lt) => "ltib",
        (Lane::I, CmpOp::Le) => "leib",
        (Lane::I, CmpOp::Gt) => "gtib",
        (Lane::I, CmpOp::Ge) => "geib",
        (Lane::B, CmpOp::Eq) => "eqbb",
        (Lane::B, CmpOp::Ne) => "nebb",
        (Lane::B, CmpOp::Lt) => "ltbb",
        (Lane::B, CmpOp::Le) => "lebb",
        (Lane::B, CmpOp::Gt) => "gtbb",
        (Lane::B, CmpOp::Ge) => "gebb",
    }
}

fn sel_tag(lane: Lane) -> &'static str {
    match lane {
        Lane::F => "self",
        Lane::I => "seli",
        Lane::B => "selb",
    }
}

fn out_tag(lane: Lane) -> &'static str {
    match lane {
        Lane::F => "outf",
        Lane::I => "outi",
        Lane::B => "outb",
    }
}

/// A fold's effect tag; `None` on the bool lane, which has no fold.
fn red_tag(red: RedK, lane: Lane) -> Option<&'static str> {
    Some(match (red, lane) {
        (RedK::Sum, Lane::F) => "redaddf",
        (RedK::Min, Lane::F) => "redminf",
        (RedK::Max, Lane::F) => "redmaxf",
        (RedK::Sum, Lane::I) => "redaddi",
        (RedK::Min, Lane::I) => "redmini",
        (RedK::Max, Lane::I) => "redmaxi",
        (_, Lane::B) => return None,
    })
}

/// A sort spec as two symbolic immediates: the columns and direction,
/// and the top-k bound (`-1` for none).
fn sort_spec_code(spec: &SortSpec) -> (i64, i64) {
    let cols = match spec.cols {
        SortCols::Boxed => 0,
        SortCols::Key(l) => 1 + lane_code(l) as i64,
        SortCols::KeyVal(k, v) => 4 + 3 * lane_code(k) as i64 + lane_code(v) as i64,
    };
    let limit = spec.limit.map_or(-1, |k| i64::try_from(k).unwrap_or(i64::MAX));
    ((cols << 1) | i64::from(spec.descending), limit)
}

/// A group table's key range as symbolic immediates (none for hash).
fn range_syms(syms: &mut Syms, range: &Option<Arc<KeyRange>>) -> Vec<Sym> {
    match range {
        Some(r) => vec![syms.ci(r.lo), syms.ci(r.hi)],
        None => Vec::new(),
    }
}

/// The sink obligation over the whole program (see
/// [`ObligationKind::Sink`]), re-derived from the tape:
///
/// * a sort sink with a top-k bound k has exactly one reader, a batch
///   loop whose index window ends at or before k, and is never frozen
///   for a scalar reader;
/// * a direct-indexed group table has `i64` keys, at most
///   [`crate::sink::DIRECT_SLOTS`] slots, one recorded proof per update
///   site, and every proof's key expression re-analyzes to an interval
///   inside the slot range;
/// * every sort or distinct append, and every batch loop over a sink,
///   uses the lanes the sink was created with.
fn check_sinks(p: &Program, rep: &mut TapeReport) -> Result<(), CheckError> {
    let mut news: HashMap<u32, &Instr> = HashMap::new();
    let mut frozen: Vec<u32> = Vec::new();
    let mut loops: Vec<&BatchProgram> = Vec::new();
    // Update sites per sink: scalar loads and batch upserts.
    let mut sites: HashMap<u32, usize> = HashMap::new();
    for ins in &p.instrs {
        match ins {
            Instr::SinkNewSorted(s, _)
            | Instr::SinkNewDistinct(s, _)
            | Instr::SinkNewGroupAggSF(s, ..)
            | Instr::SinkNewGroupAggSI(s, ..) => {
                news.insert(*s, ins);
            }
            Instr::SinkFreeze(s) => frozen.push(*s),
            Instr::GroupAccLoadSF(s, ..) | Instr::GroupAccLoadSI(s, ..) => {
                *sites.entry(*s).or_default() += 1;
            }
            Instr::BatchLoop(bp) => {
                loops.push(bp);
                for op in &bp.tape {
                    if let BOp::GroupAdd { sink, .. } = op {
                        *sites.entry(*sink).or_default() += 1;
                    }
                }
            }
            _ => {}
        }
    }
    let fail = |detail: String| err(ObligationKind::Sink, detail);

    for (&s, ins) in &news {
        match ins {
            Instr::SinkNewSorted(_, spec) => {
                let Some(k) = spec.limit else { continue };
                if spec.cols == SortCols::Boxed {
                    return Err(fail(format!("sink s{s}: a top-{k} bound on a boxed sort")));
                }
                let readers: Vec<&&BatchProgram> =
                    loops.iter().filter(|bp| bp.src == BatchSrc::Sink(s)).collect();
                if readers.len() != 1 || frozen.contains(&s) {
                    return Err(fail(format!(
                        "sink s{s}: a top-{k} bound needs exactly one batch reader, found {} \
                         (and {} scalar)",
                        readers.len(),
                        usize::from(frozen.contains(&s))
                    )));
                }
                let end = readers[0].window.end;
                if end > k {
                    return Err(fail(format!(
                        "sink s{s}: top-{k} bound is narrower than its reader's window, which \
                         reads up to index {end}"
                    )));
                }
                rep.sink += 1;
            }
            Instr::SinkNewGroupAggSF(_, _, lane, Some(range))
            | Instr::SinkNewGroupAggSI(_, _, lane, Some(range)) => {
                if *lane != Lane::I
                    || range.hi < range.lo
                    || range.hi - range.lo >= crate::sink::DIRECT_SLOTS
                {
                    return Err(fail(format!(
                        "sink s{s}: direct slot range {}..={} over {lane:?} keys is not a \
                         batch of i64 keys",
                        range.lo, range.hi
                    )));
                }
                let n_sites = sites.get(&s).copied().unwrap_or(0);
                if n_sites != range.proofs.len() {
                    return Err(fail(format!(
                        "sink s{s}: {n_sites} update sites but {} key proofs",
                        range.proofs.len()
                    )));
                }
                for (i, proof) in range.proofs.iter().enumerate() {
                    let derived = recorded_interval(&proof.key, &proof.env);
                    let inside = derived.is_some_and(|r| {
                        r.lo.is_some_and(|lo| lo >= range.lo) && r.hi.is_some_and(|hi| hi <= range.hi)
                    });
                    if !inside {
                        return Err(fail(format!(
                            "sink s{s}: direct slots {}..={} do not cover key #{i} {:?}, \
                             which re-derives {:?}",
                            range.lo, range.hi, proof.key, derived
                        )));
                    }
                    rep.sink += 1;
                }
            }
            _ => {}
        }
    }

    let lanes_of = |s: u32| -> Option<(Lane, Option<Lane>, Option<Lane>)> {
        // (element lane, second-component lane, sort key lane)
        match news.get(&s)? {
            Instr::SinkNewSorted(_, spec) => match spec.cols {
                SortCols::Key(l) => Some((l, None, Some(l))),
                SortCols::KeyVal(k, v) => Some((v, None, Some(k))),
                SortCols::Boxed => None,
            },
            Instr::SinkNewDistinct(_, l) => l.map(|l| (l, None, None)),
            Instr::SinkNewGroupAggSF(_, _, k, _) => Some((*k, Some(Lane::F), None)),
            Instr::SinkNewGroupAggSI(_, _, k, _) => Some((*k, Some(Lane::I), None)),
            _ => None,
        }
    };
    for bp in &loops {
        if let BatchSrc::Sink(s) = bp.src {
            let ok = lanes_of(s).is_some_and(|(l, snd, _)| l == bp.src_lane && snd == bp.snd_lane);
            if !ok {
                return Err(fail(format!(
                    "batch loop reads sink s{s} as {:?}/{:?}, which is not how it was created",
                    bp.src_lane, bp.snd_lane
                )));
            }
            rep.sink += 1;
        }
        for op in &bp.tape {
            let ok = match *op {
                BOp::SortPush { sink, key, val } => {
                    matches!(news.get(&sink), Some(Instr::SinkNewSorted(..)))
                        && lanes_of(sink).is_some_and(|(l, _, k)| k == Some(key.0) && l == val.0)
                }
                BOp::DistinctPush { sink, val } => {
                    matches!(news.get(&sink), Some(Instr::SinkNewDistinct(..)))
                        && lanes_of(sink).is_some_and(|(l, _, _)| l == val.0)
                }
                _ => continue,
            };
            if !ok {
                return Err(fail(format!("{op:?} does not match its sink's lanes")));
            }
            rep.sink += 1;
        }
    }
    Ok(())
}

/// The call obligation for every `Call` on one batch tape: the UDF
/// index is in range, the program records the UDF as pure, the operand
/// lanes match the recorded signature, and every trapping op on the
/// tape raises the same error (a checked division raises
/// `DivisionByZero`, a call the unbox error of its result lane).
fn check_calls(bp: &BatchProgram, p: &Program, rep: &mut TapeReport) -> Result<(), CheckError> {
    // The error kinds seen: `None` for a division's `DivisionByZero`,
    // `Some(lane)` for a call's unbox error into that lane.
    let mut kinds: Vec<Option<Lane>> = Vec::new();
    let mut calls = 0;
    for op in &bp.tape {
        let kind = match *op {
            BOp::DivI(..) | BOp::RemI(..) => None,
            BOp::Call { udf, args, dst } => {
                let name = p.udf_names.get(udf as usize).ok_or_else(|| {
                    err(
                        ObligationKind::Call,
                        format!(
                            "batch call to udf #{udf}, but the program names {}",
                            p.udf_names.len()
                        ),
                    )
                })?;
                let Some(Some(UdfSig {
                    params,
                    ret,
                    pure: true,
                })) = p.udf_sigs.get(udf as usize)
                else {
                    return Err(err(
                        ObligationKind::Call,
                        format!(
                            "batch call to udf `{name}`, which the program does not record as pure"
                        ),
                    ));
                };
                let want: Option<Vec<Lane>> = params.iter().map(Lane::of).collect();
                let got: Vec<Lane> = args.as_slice().iter().map(|&(lane, _)| lane).collect();
                if want.as_ref() != Some(&got) || Lane::of(ret) != Some(dst.0) {
                    return Err(err(
                        ObligationKind::Call,
                        format!(
                            "batch call to udf `{name}` passes lanes {got:?} into {:?}, but its \
                             recorded signature is {params:?} -> {ret}",
                            dst.0
                        ),
                    ));
                }
                calls += 1;
                Some(dst.0)
            }
            _ => continue,
        };
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    if calls > 0 && kinds.len() > 1 {
        return Err(err(
            ObligationKind::Call,
            format!(
                "a batch call shares its tape with trapping ops of other error kinds ({kinds:?})"
            ),
        ));
    }
    rep.call += calls;
    Ok(())
}

/// Checks one vectorized loop: slot dataflow on the optimized tape,
/// effect-stream equivalence against the shadow tape, re-derived
/// interval proofs for every unchecked division, and fused whole-loop
/// kernel validation.
fn check_batch(bp: &BatchProgram, rep: &mut TapeReport) -> Result<(), CheckError> {
    let mut syms = Syms::default();
    let final_run = run_batch_tape(
        &mut syms, bp.n_f, bp.n_i, bp.n_b, &bp.prologue, &bp.tape, "tape",
    )?;
    rep.dataflow += final_run.reads;
    rep.cut += final_run.cuts;

    let Some(shadow) = &bp.shadow else {
        // Hand-assembled batch program: still hold it to the div-proof
        // obligation against its own tape.
        check_div_proofs(&final_run, bp, rep)?;
        return Ok(());
    };
    let shadow_run = run_batch_tape(
        &mut syms,
        shadow.n_f,
        shadow.n_i,
        shadow.n_b,
        &shadow.prologue,
        &shadow.tape,
        "shadow",
    )?;

    // The window bounds which source elements the loop reads at all;
    // no backend pass may move it.
    if bp.window != shadow.window {
        return Err(err(
            ObligationKind::Equiv,
            format!(
                "batch window {:?} differs from the shadow's {:?}",
                bp.window, shadow.window
            ),
        ));
    }

    // A dropped zero-guard turns a trapping DivI into DivIUnchecked
    // *after* shadow capture. Check it before the effect streams so the
    // violation is reported under the division obligation rather than
    // as the generic stream divergence it also causes.
    if final_run.unchecked.len() != shadow_run.unchecked.len() {
        return Err(err(
            ObligationKind::Div,
            format!(
                "tape has {} unchecked divisions but shadow has {} — a \
                 guard was dropped after proof recording",
                final_run.unchecked.len(),
                shadow_run.unchecked.len()
            ),
        ));
    }

    // The optimized tape must observe exactly what the shadow observes,
    // in the same order, with the same symbolic operands. Slot packing
    // may rename every register; the streams see through the renaming.
    if final_run.effects != shadow_run.effects {
        let at = final_run
            .effects
            .iter()
            .zip(&shadow_run.effects)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| final_run.effects.len().min(shadow_run.effects.len()));
        return Err(err(
            ObligationKind::Equiv,
            format!(
                "batch effect streams diverge at call {at}: tape has {:?}, shadow has {:?}",
                final_run.effects.get(at),
                shadow_run.effects.get(at)
            ),
        ));
    }
    rep.equiv += shadow_run.effects.len() as u32 + 1;

    check_div_proofs(&shadow_run, bp, rep)?;

    if let Some(fused) = &bp.fused {
        check_fused(&mut syms, fused, bp, &shadow_run, rep)?;
    }
    Ok(())
}

/// Re-derives the interval proof for every unchecked division: the k-th
/// unchecked op pairs with `div_proofs[k]` (the peephole never adds or
/// removes unchecked ops, so emission order is stable), and the proof's
/// divisor expression must *independently* re-analyze to an interval
/// excluding zero — the checker trusts `steno_analysis`, not compile.rs.
fn check_div_proofs(
    run: &BatchRun,
    bp: &BatchProgram,
    rep: &mut TapeReport,
) -> Result<(), CheckError> {
    if run.unchecked.len() != bp.div_proofs.len() {
        return Err(err(
            ObligationKind::Div,
            format!(
                "{} unchecked divisions but {} recorded proofs",
                run.unchecked.len(),
                bp.div_proofs.len()
            ),
        ));
    }
    for (k, proof) in bp.div_proofs.iter().enumerate() {
        let range = recorded_interval(&proof.divisor, &proof.env);
        if !range.is_some_and(|r| r.excludes_zero()) {
            return Err(err(
                ObligationKind::Div,
                format!(
                    "unchecked division #{k}: recorded divisor {:?} does \
                     not re-derive an interval excluding zero (got {range:?})",
                    proof.divisor
                ),
            ));
        }
        rep.div += 1;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// (d) Fused whole-loop kernels
// ---------------------------------------------------------------------

/// Validates a fused whole-tape kernel against the shadow effect
/// stream: the kernel shape is symbolically expanded into the effect
/// stream(s) it claims to implement, and one of them must equal what
/// the shadow tape actually observes per element. Multiple candidates
/// arise where distinct tapes legally map to one shape (`a*x+b` with
/// `a == 1` also matches a plain `x + b` tape).
fn check_fused(
    syms: &mut Syms,
    fused: &crate::fuse_kernels::FusedTape,
    bp: &BatchProgram,
    shadow_run: &BatchRun,
    rep: &mut TapeReport,
) -> Result<(), CheckError> {
    use crate::fuse_kernels::{FusedTape, MapF, MapI, PredI, ScalF, ScalI};

    let x = syms.intern(SymKey::SrcElem);
    let sf = |syms: &mut Syms, s: ScalF| match s {
        ScalF::Lit(v) => syms.cf(v),
        ScalF::Param(p) => syms.intern(SymKey::ParamF(p)),
    };
    let si = |syms: &mut Syms, s: ScalI| match s {
        ScalI::Lit(v) => syms.ci(v),
        ScalI::Param(p) => syms.intern(SymKey::ParamI(p)),
    };
    // The lane's predicate mask (if any) and candidate map symbols (each
    // a per-element value).
    let (red, acc, lane, mask, vals) = match fused {
        FusedTape::F { red, pred, map, acc } => {
            let mask = pred.map(|(k, c)| {
                let c = sf(syms, c);
                syms.apply(cmp_tag(Lane::F, k), &[x, c])
            });
            let vals = match *map {
                MapF::X => vec![x],
                MapF::Sq => vec![syms.apply("mulf", &[x, x])],
                MapF::MulKR(k) => {
                    let k = sf(syms, k);
                    vec![syms.apply("mulf", &[x, k])]
                }
                MapF::MulKL(k) => {
                    let k = sf(syms, k);
                    vec![syms.apply("mulf", &[k, x])]
                }
                MapF::K(k) => vec![sf(syms, k)],
            };
            (*red, *acc, Lane::F, mask, vals)
        }
        FusedTape::I { red, pred, map, acc } => {
            let mask = pred.map(|p| match p {
                PredI::Cmp(k, c) => {
                    let c = si(syms, c);
                    syms.apply(cmp_tag(Lane::I, k), &[x, c])
                }
                PredI::RemCmp { m, r, ne } => {
                    let (mv, rv) = (si(syms, m), si(syms, r));
                    let rem = syms.apply("remiu", &[x, mv]);
                    syms.apply(if ne { "neib" } else { "eqib" }, &[rem, rv])
                }
            });
            // `a*x+b` with `a == 1` also matches a plain `x + b` tape.
            let lins = |syms: &mut Syms, a: ScalI, b: ScalI| {
                let (av, bv) = (si(syms, a), si(syms, b));
                let ax = syms.apply("muli", &[av, x]);
                let mut c = vec![syms.apply("addi", &[ax, bv])];
                if a == ScalI::Lit(1) {
                    c.push(syms.apply("addi", &[x, bv]));
                }
                c
            };
            let vals = match *map {
                MapI::X => vec![x],
                MapI::Sq => vec![syms.apply("muli", &[x, x])],
                MapI::MulK(k) => {
                    let k = si(syms, k);
                    vec![syms.apply("muli", &[x, k])]
                }
                MapI::Lin(a, b) => lins(syms, a, b),
                MapI::K(k) => vec![si(syms, k)],
                MapI::SelRemDivLin { m, r, d, a, b } => {
                    // x%m==r ? x/d : a*x+b — the tape form is a lane-wise
                    // select; both the `==`-ordered and the
                    // `!=`-branch-swapped selects are legal.
                    let (mv, rv, dv) = (syms.ci(m), syms.ci(r), syms.ci(d));
                    let rem = syms.apply("remiu", &[x, mv]);
                    let div = syms.apply("diviu", &[x, dv]);
                    let ceq = syms.apply("eqib", &[rem, rv]);
                    let cne = syms.apply("neib", &[rem, rv]);
                    let mut out = Vec::new();
                    for lin in lins(syms, ScalI::Lit(a), ScalI::Lit(b)) {
                        out.push(syms.apply("seli", &[ceq, div, lin]));
                        out.push(syms.apply("seli", &[cne, lin, div]));
                    }
                    out
                }
            };
            (*red, *acc, Lane::I, mask, vals)
        }
    };
    let n_accs = if lane == Lane::F { bp.f_accs.len() } else { bp.i_accs.len() };
    if acc as usize >= n_accs {
        return Err(err(
            ObligationKind::Dataflow,
            format!(
                "fused kernel accumulator {acc} out of bounds ({n_accs} {} accs)",
                if lane == Lane::F { "f64" } else { "i64" }
            ),
        ));
    }
    let Some(tag) = red_tag(red, lane) else {
        unreachable!("a fused kernel folds the f64 or the i64 lane")
    };
    // Expected streams, one per map candidate: `[Filter?, reduction]`.
    let candidates: Vec<Vec<Effect>> = vals
        .into_iter()
        .map(|v| {
            let filter = mask.map(|m| Effect { tag: "filter", id: 0, args: vec![m] });
            let red = Effect { tag, id: u64::from(acc), args: vec![v] };
            filter.into_iter().chain([red]).collect()
        })
        .collect();

    if !candidates.contains(&shadow_run.effects) {
        return Err(err(
            ObligationKind::Equiv,
            format!(
                "fused kernel `{}` does not match the shadow tape: expected \
                 one of {} candidate effect streams, shadow observes {:?}",
                fused.label(),
                candidates.len(),
                shadow_run.effects
            ),
        ));
    }
    rep.equiv += 1;
    Ok(())
}

// ---------------------------------------------------------------------
// (d) Scalar equivalence: cut-point bisimulation against the shadow
// ---------------------------------------------------------------------

/// Per-pc live-in register sets of the shadow tape (backward dataflow
/// over [`instr_io`]). Only registers the *shadow* still needs are
/// compared at cut points; everything else the optimizer may freely
/// clobber, reuse, or leave stale.
fn shadow_liveness(instrs: &[Instr], counts: [u32; 3]) -> Vec<[Bits; 3]> {
    let n = instrs.len();
    let empty = [
        Bits::empty(counts[0] as usize),
        Bits::empty(counts[1] as usize),
        Bits::empty(counts[2] as usize),
    ];
    let mut live_in: Vec<[Bits; 3]> = vec![empty; n];
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds <= 4 * n + 8 {
        changed = false;
        rounds += 1;
        for pc in (0..n).rev() {
            // live_out = union of successors' live_in.
            let mut out = [
                Bits::empty(counts[0] as usize),
                Bits::empty(counts[1] as usize),
                Bits::empty(counts[2] as usize),
            ];
            for (t, _) in successors(instrs, pc) {
                if let Some(succ) = live_in.get(t) {
                    for (o, s) in out.iter_mut().zip(succ) {
                        o.union(s);
                    }
                }
            }
            // live_in = (live_out - writes) ∪ reads.
            let mut writes = [
                Bits::empty(counts[0] as usize),
                Bits::empty(counts[1] as usize),
                Bits::empty(counts[2] as usize),
            ];
            let mut reads = writes.clone();
            instr_io(&instrs[pc], |bank, reg, is_write| {
                if is_write {
                    writes[bank_idx(bank)].set(reg);
                } else {
                    reads[bank_idx(bank)].set(reg);
                }
            });
            for b in 0..3 {
                for w in 0..out[b].0.len() {
                    let v = (out[b].0[w] & !writes[b].0[w]) | reads[b].0[w];
                    if v != live_in[pc][b].0[w] {
                        live_in[pc][b].0[w] = v;
                        changed = true;
                    }
                }
            }
        }
    }
    live_in
}

/// Symbolic register file for one side of a bisimulation segment.
#[derive(Clone)]
struct SegState {
    f: Vec<Sym>,
    i: Vec<Sym>,
    v: Vec<Sym>,
}

/// How a straight-line segment ended.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Ending {
    /// Halted: which halt instruction, with its operand symbol.
    Halt(&'static str, Option<Sym>),
    /// Unconditional transfer to `target`.
    Uncond(usize),
    /// Conditional transfer: `t` when `cond` is true, else `f`.
    Cond { cond: Sym, t: usize, f: usize },
}

fn scalar_cmp_tag(op: CmpOp, float: bool) -> &'static str {
    match (op, float) {
        (CmpOp::Eq, true) => "eqf",
        (CmpOp::Ne, true) => "nef",
        (CmpOp::Lt, true) => "ltf",
        (CmpOp::Le, true) => "lef",
        (CmpOp::Gt, true) => "gtf",
        (CmpOp::Ge, true) => "gef",
        (CmpOp::Eq, false) => "eqi",
        (CmpOp::Ne, false) => "nei",
        (CmpOp::Lt, false) => "lti",
        (CmpOp::Le, false) => "lei",
        (CmpOp::Gt, false) => "gti",
        (CmpOp::Ge, false) => "gei",
    }
}

/// Executes the straight-line segment starting at `pc` until a control
/// transfer or halt, updating `st` and appending observed effects.
/// Effect results are drawn from `EffectRes(pair, k, out)` so that the
/// two sides — once their effect calls are proven identical — continue
/// with the same unknowns.
fn run_scalar_seg(
    syms: &mut Syms,
    st: &mut SegState,
    instrs: &[Instr],
    mut pc: usize,
    pair: u32,
    effects: &mut Vec<Effect>,
    who: &str,
) -> Result<Ending, CheckError> {
    let mut steps = 0usize;
    loop {
        steps += 1;
        if steps > instrs.len() + 1 {
            return Err(err(
                ObligationKind::Equiv,
                format!("{who} segment at pc {pc} does not reach a transfer"),
            ));
        }
        let Some(ins) = instrs.get(pc) else {
            return Err(err(
                ObligationKind::Equiv,
                format!("{who} segment ran past the end of the tape at pc {pc}"),
            ));
        };
        // Effect helper: record the call, mint shared result symbols.
        macro_rules! eff {
            ($tag:expr, $id:expr, $args:expr) => {{
                let k = effects.len() as u32;
                effects.push(Effect { tag: $tag, id: $id, args: $args });
                move |out: u32, syms: &mut Syms| {
                    syms.intern(SymKey::EffectRes(pair, k, out))
                }
            }};
        }
        match ins {
            // ---- transfers & halts: end the segment -----------------
            Instr::Jump(t) => return Ok(Ending::Uncond(*t as usize)),
            Instr::JumpIfTrue(r, t) => {
                return Ok(Ending::Cond {
                    cond: st.i[*r as usize],
                    t: *t as usize,
                    f: pc + 1,
                })
            }
            Instr::JumpIfFalse(r, t) => {
                return Ok(Ending::Cond {
                    cond: st.i[*r as usize],
                    t: pc + 1,
                    f: *t as usize,
                })
            }
            Instr::BrCmpF { op, a, b, on_true, target } => {
                let (x, y) = (st.f[*a as usize], st.f[*b as usize]);
                let cond = syms.apply(scalar_cmp_tag(*op, true), &[x, y]);
                let (t, f) = if *on_true {
                    (*target as usize, pc + 1)
                } else {
                    (pc + 1, *target as usize)
                };
                return Ok(Ending::Cond { cond, t, f });
            }
            Instr::BrCmpI { op, a, b, on_true, target } => {
                let (x, y) = (st.i[*a as usize], st.i[*b as usize]);
                let cond = syms.apply(scalar_cmp_tag(*op, false), &[x, y]);
                let (t, f) = if *on_true {
                    (*target as usize, pc + 1)
                } else {
                    (pc + 1, *target as usize)
                };
                return Ok(Ending::Cond { cond, t, f });
            }
            Instr::IncJump { r, target } => {
                let one = syms.ci(1);
                let x = st.i[*r as usize];
                st.i[*r as usize] = syms.apply("addi", &[x, one]);
                return Ok(Ending::Uncond(*target as usize));
            }
            Instr::HaltF(r) => return Ok(Ending::Halt("haltf", Some(st.f[*r as usize]))),
            Instr::HaltI(r) => return Ok(Ending::Halt("halti", Some(st.i[*r as usize]))),
            Instr::HaltB(r) => return Ok(Ending::Halt("haltb", Some(st.i[*r as usize]))),
            Instr::HaltV(r) => return Ok(Ending::Halt("haltv", Some(st.v[*r as usize]))),
            Instr::HaltOut => return Ok(Ending::Halt("haltout", None)),

            // ---- pure scalar compute --------------------------------
            Instr::ConstF(d, v) => st.f[*d as usize] = syms.cf(*v),
            Instr::ConstI(d, v) => st.i[*d as usize] = syms.ci(*v),
            Instr::ConstV(d, v) => {
                st.v[*d as usize] = syms.intern(SymKey::ConstV(format!("{v:?}")))
            }
            Instr::MovF(d, s) => st.f[*d as usize] = st.f[*s as usize],
            Instr::MovI(d, s) => st.i[*d as usize] = st.i[*s as usize],
            Instr::MovV(d, s) => st.v[*d as usize] = st.v[*s as usize],
            Instr::AddF(d, a, b) | Instr::SubF(d, a, b) | Instr::MulF(d, a, b)
            | Instr::DivF(d, a, b) | Instr::RemF(d, a, b) | Instr::MinF(d, a, b)
            | Instr::MaxF(d, a, b) => {
                let tag = match ins {
                    Instr::AddF(..) => "addf",
                    Instr::SubF(..) => "subf",
                    Instr::MulF(..) => "mulf",
                    Instr::DivF(..) => "divf",
                    Instr::RemF(..) => "remf",
                    Instr::MinF(..) => "minf",
                    _ => "maxf",
                };
                let (x, y) = (st.f[*a as usize], st.f[*b as usize]);
                st.f[*d as usize] = syms.apply(tag, &[x, y]);
            }
            Instr::NegF(d, a) | Instr::AbsF(d, a) | Instr::SqrtF(d, a)
            | Instr::FloorF(d, a) => {
                let tag = match ins {
                    Instr::NegF(..) => "negf",
                    Instr::AbsF(..) => "absf",
                    Instr::SqrtF(..) => "sqrtf",
                    _ => "floorf",
                };
                let x = st.f[*a as usize];
                st.f[*d as usize] = syms.apply(tag, &[x]);
            }
            Instr::AddI(d, a, b) | Instr::SubI(d, a, b) | Instr::MulI(d, a, b)
            | Instr::MinI(d, a, b) | Instr::MaxI(d, a, b) => {
                let tag = match ins {
                    Instr::AddI(..) => "addi",
                    Instr::SubI(..) => "subi",
                    Instr::MulI(..) => "muli",
                    Instr::MinI(..) => "mini",
                    _ => "maxi",
                };
                let (x, y) = (st.i[*a as usize], st.i[*b as usize]);
                st.i[*d as usize] = syms.apply(tag, &[x, y]);
            }
            Instr::NegI(d, a) | Instr::AbsI(d, a) | Instr::NotB(d, a) => {
                let tag = match ins {
                    Instr::NegI(..) => "negi",
                    Instr::AbsI(..) => "absi",
                    _ => "notb",
                };
                let x = st.i[*a as usize];
                st.i[*d as usize] = syms.apply(tag, &[x]);
            }
            Instr::IncI(r) => {
                let one = syms.ci(1);
                let x = st.i[*r as usize];
                st.i[*r as usize] = syms.apply("addi", &[x, one]);
            }
            Instr::CmpF(op, d, a, b) => {
                let (x, y) = (st.f[*a as usize], st.f[*b as usize]);
                st.i[*d as usize] = syms.apply(scalar_cmp_tag(*op, true), &[x, y]);
            }
            Instr::CmpI(op, d, a, b) => {
                let (x, y) = (st.i[*a as usize], st.i[*b as usize]);
                st.i[*d as usize] = syms.apply(scalar_cmp_tag(*op, false), &[x, y]);
            }
            Instr::EqV(d, a, b) => {
                let (x, y) = (st.v[*a as usize], st.v[*b as usize]);
                st.i[*d as usize] = syms.apply("eqv", &[x, y]);
            }
            Instr::CmpV(d, a, b) => {
                let (x, y) = (st.v[*a as usize], st.v[*b as usize]);
                st.i[*d as usize] = syms.apply("cmpv", &[x, y]);
            }
            Instr::F2I(d, a) => {
                let x = st.f[*a as usize];
                st.i[*d as usize] = syms.apply("f2i", &[x]);
            }
            Instr::I2F(d, a) => {
                let x = st.i[*a as usize];
                st.f[*d as usize] = syms.apply("i2f", &[x]);
            }
            Instr::FToV(d, a) => {
                let x = st.f[*a as usize];
                st.v[*d as usize] = syms.apply("ftov", &[x]);
            }
            Instr::IToV(d, a) => {
                let x = st.i[*a as usize];
                st.v[*d as usize] = syms.apply("itov", &[x]);
            }
            Instr::BToV(d, a) => {
                let x = st.i[*a as usize];
                st.v[*d as usize] = syms.apply("btov", &[x]);
            }
            Instr::MkPair(d, a, b) => {
                let (x, y) = (st.v[*a as usize], st.v[*b as usize]);
                st.v[*d as usize] = syms.apply("mkpair", &[x, y]);
            }
            Instr::MulAddF(d, a, b, c) => {
                // Exactly the pair it fuses: two roundings, product left.
                let (x, y, z) =
                    (st.f[*a as usize], st.f[*b as usize], st.f[*c as usize]);
                let m = syms.apply("mulf", &[x, y]);
                st.f[*d as usize] = syms.apply("addf", &[m, z]);
            }
            Instr::MulAddI(d, a, b, c) => {
                let (x, y, z) =
                    (st.i[*a as usize], st.i[*b as usize], st.i[*c as usize]);
                let m = syms.apply("muli", &[x, y]);
                st.i[*d as usize] = syms.apply("addi", &[m, z]);
            }

            // ---- effects (can trap or touch shared state; order is
            // observable and must match the shadow call-by-call) ------
            Instr::VToF(d, a) => {
                let x = st.v[*a as usize];
                let res = eff!("vtof", 0, vec![x]);
                st.f[*d as usize] = res(0, syms);
            }
            Instr::VToI(d, a) => {
                let x = st.v[*a as usize];
                let res = eff!("vtoi", 0, vec![x]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::VToB(d, a) => {
                let x = st.v[*a as usize];
                let res = eff!("vtob", 0, vec![x]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::Field0(d, v) => {
                let x = st.v[*v as usize];
                let res = eff!("field0", 0, vec![x]);
                st.v[*d as usize] = res(0, syms);
            }
            Instr::Field1(d, v) => {
                let x = st.v[*v as usize];
                let res = eff!("field1", 0, vec![x]);
                st.v[*d as usize] = res(0, syms);
            }
            Instr::RowIdx(d, v, i) => {
                let (x, y) = (st.v[*v as usize], st.i[*i as usize]);
                let res = eff!("rowidx", 0, vec![x, y]);
                st.f[*d as usize] = res(0, syms);
            }
            Instr::RowLen(d, v) => {
                let x = st.v[*v as usize];
                let res = eff!("rowlen", 0, vec![x]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::SeqLen(d, v) => {
                let x = st.v[*v as usize];
                let res = eff!("seqlen", 0, vec![x]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::SeqIdx(d, v, i) => {
                let (x, y) = (st.v[*v as usize], st.i[*i as usize]);
                let res = eff!("seqidx", 0, vec![x, y]);
                st.v[*d as usize] = res(0, syms);
            }
            Instr::DivI(d, a, b) => {
                let (x, y) = (st.i[*a as usize], st.i[*b as usize]);
                let res = eff!("divi.trap", 0, vec![x, y]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::RemI(d, a, b) => {
                let (x, y) = (st.i[*a as usize], st.i[*b as usize]);
                let res = eff!("remi.trap", 0, vec![x, y]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::CallUdf { dst, udf, args } => {
                let ops: Vec<Sym> = args.iter().map(|r| st.v[*r as usize]).collect();
                let res = eff!("calludf", u64::from(*udf), ops);
                st.v[*dst as usize] = res(0, syms);
            }
            Instr::SrcLen(d, src) => {
                let res = eff!("srclen", u64::from(*src), vec![]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::SrcGetF(d, src, i) => {
                let x = st.i[*i as usize];
                let res = eff!("srcgetf", u64::from(*src), vec![x]);
                st.f[*d as usize] = res(0, syms);
            }
            Instr::SrcGetI(d, src, i) => {
                let x = st.i[*i as usize];
                let res = eff!("srcgeti", u64::from(*src), vec![x]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::SrcGetB(d, src, i) => {
                let x = st.i[*i as usize];
                let res = eff!("srcgetb", u64::from(*src), vec![x]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::SrcGetV(d, src, i) => {
                let x = st.i[*i as usize];
                let res = eff!("srcgetv", u64::from(*src), vec![x]);
                st.v[*d as usize] = res(0, syms);
            }
            Instr::SinkNewGroup(s) => {
                let _ = eff!("sinknewgroup", u64::from(*s), vec![]);
            }
            Instr::SinkNewGroupAggV(s, r) => {
                let x = st.v[*r as usize];
                let _ = eff!("sinknewgroupaggv", u64::from(*s), vec![x]);
            }
            Instr::SinkNewGroupAggF(s, r) => {
                let x = st.f[*r as usize];
                let _ = eff!("sinknewgroupaggf", u64::from(*s), vec![x]);
            }
            Instr::SinkNewGroupAggI(s, r) => {
                let x = st.i[*r as usize];
                let _ = eff!("sinknewgroupaggi", u64::from(*s), vec![x]);
            }
            Instr::SinkNewGroupAggSF(s, r, k, range) => {
                let mut ops = vec![st.f[*r as usize]];
                ops.extend(range_syms(syms, range));
                let _ = eff!("sinknewgroupaggsf", (u64::from(*s) << 2) | lane_code(*k), ops);
            }
            Instr::SinkNewGroupAggSI(s, r, k, range) => {
                let mut ops = vec![st.i[*r as usize]];
                ops.extend(range_syms(syms, range));
                let _ = eff!("sinknewgroupaggsi", (u64::from(*s) << 2) | lane_code(*k), ops);
            }
            Instr::SinkNewSorted(s, spec) => {
                let (cols, k) = sort_spec_code(spec);
                let ops = vec![syms.ci(cols), syms.ci(k)];
                let _ = eff!("sinknewsorted", u64::from(*s), ops);
            }
            Instr::SinkNewDistinct(s, lane) => {
                let code = lane.map_or(3, lane_code);
                let _ = eff!("sinknewdistinct", (u64::from(*s) << 2) | code, vec![]);
            }
            Instr::SinkNewVec(s) => {
                let _ = eff!("sinknewvec", u64::from(*s), vec![]);
            }
            Instr::GroupPut(s, k, v) => {
                let (x, y) = (st.v[*k as usize], st.v[*v as usize]);
                let _ = eff!("groupput", u64::from(*s), vec![x, y]);
            }
            Instr::GroupAccLoadV(s, d, k) => {
                let x = st.v[*k as usize];
                let res = eff!("gaccloadv", u64::from(*s), vec![x]);
                st.v[*d as usize] = res(0, syms);
            }
            Instr::GroupAccStoreV(s, r) => {
                let x = st.v[*r as usize];
                let _ = eff!("gaccstorev", u64::from(*s), vec![x]);
            }
            Instr::GroupAccLoadF(s, d, k) => {
                let x = st.v[*k as usize];
                let res = eff!("gaccloadf", u64::from(*s), vec![x]);
                st.f[*d as usize] = res(0, syms);
            }
            Instr::GroupAccStoreF(s, r) => {
                let x = st.f[*r as usize];
                let _ = eff!("gaccstoref", u64::from(*s), vec![x]);
            }
            Instr::GroupAccLoadI(s, d, k) => {
                let x = st.v[*k as usize];
                let res = eff!("gaccloadi", u64::from(*s), vec![x]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::GroupAccStoreI(s, r) => {
                let x = st.i[*r as usize];
                let _ = eff!("gaccstorei", u64::from(*s), vec![x]);
            }
            Instr::GroupAccLoadSF(s, d, k) => {
                let x = match k {
                    SKey::F(r) => st.f[*r as usize],
                    SKey::I(r) | SKey::B(r) => st.i[*r as usize],
                };
                let res = eff!("gaccloadsf", u64::from(*s), vec![x]);
                st.f[*d as usize] = res(0, syms);
            }
            Instr::GroupAccLoadSI(s, d, k) => {
                let x = match k {
                    SKey::F(r) => st.f[*r as usize],
                    SKey::I(r) | SKey::B(r) => st.i[*r as usize],
                };
                let res = eff!("gaccloadsi", u64::from(*s), vec![x]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::GroupAccStoreSF(s, r) => {
                let x = st.f[*r as usize];
                let _ = eff!("gaccstoresf", u64::from(*s), vec![x]);
            }
            Instr::GroupAccStoreSI(s, r) => {
                let x = st.i[*r as usize];
                let _ = eff!("gaccstoresi", u64::from(*s), vec![x]);
            }
            Instr::SinkPush(s, v) => {
                let x = st.v[*v as usize];
                let _ = eff!("sinkpush", u64::from(*s), vec![x]);
            }
            Instr::SinkPushKeyed(s, k, v) => {
                let (x, y) = (st.v[*k as usize], st.v[*v as usize]);
                let _ = eff!("sinkpushkeyed", u64::from(*s), vec![x, y]);
            }
            Instr::SinkSeal(s) => {
                let _ = eff!("sinkseal", u64::from(*s), vec![]);
            }
            Instr::SinkFreeze(s) => {
                let _ = eff!("sinkfreeze", u64::from(*s), vec![]);
            }
            Instr::SinkLen(d, s) => {
                let res = eff!("sinklen", u64::from(*s), vec![]);
                st.i[*d as usize] = res(0, syms);
            }
            Instr::SinkGet(d, s, i) => {
                let x = st.i[*i as usize];
                let res = eff!("sinkget", u64::from(*s), vec![x]);
                st.v[*d as usize] = res(0, syms);
            }
            Instr::OutPush(v) => {
                let x = st.v[*v as usize];
                let _ = eff!("outpush", 0, vec![x]);
            }
            Instr::BatchLoop(b) => {
                let mut ops: Vec<Sym> =
                    b.f_params.iter().map(|r| st.f[*r as usize]).collect();
                ops.extend(b.i_params.iter().map(|r| st.i[*r as usize]));
                ops.extend(b.f_accs.iter().map(|r| st.f[*r as usize]));
                ops.extend(b.i_accs.iter().map(|r| st.i[*r as usize]));
                let res = eff!("batchloop", Arc::as_ptr(b) as u64, ops);
                let mut out = 0u32;
                for r in &b.f_accs {
                    st.f[*r as usize] = res(out, syms);
                    out += 1;
                }
                for r in &b.i_accs {
                    st.i[*r as usize] = res(out, syms);
                    out += 1;
                }
            }
        }
        pc += 1;
    }
}

/// Proves the optimized scalar tape equivalent to its pre-optimization
/// shadow by cut-point bisimulation.
///
/// Cut points are pairs `(shadow pc, optimized pc)` reached together,
/// starting from `(0, 0)`. At each pair the shadow side havocs every
/// register it no longer needs (per its own liveness) and binds the
/// live ones to fresh shared unknowns; both straight-line segments are
/// then executed symbolically and must observe identical effect
/// streams, end the same way (same halt value, same branch condition),
/// and agree on every live register along each outgoing edge. The
/// optimized side additionally carries the values it holds in
/// shadow-dead registers across cut points (joined monotonically), which
/// is what lets hoisted loop-invariant constants prove out: the shadow
/// recomputes the constant inside the loop, the optimized tape carries
/// it from the preamble, and both intern to the same symbol.
fn check_scalar_equiv(
    shadow: &ScalarShadow,
    p: &Program,
    rep: &mut TapeReport,
) -> Result<(), CheckError> {
    // The shadow must itself be well-formed before we treat it as the
    // reference semantics.
    check_cfg(&shadow.instrs, &mut TapeReport::default()).map_err(|e| {
        err(ObligationKind::Equiv, format!("shadow tape is malformed: {e}"))
    })?;

    // Size the symbolic register files to cover both tapes, whatever
    // their declared frame counts claim.
    let mut counts = [
        shadow.n_fregs.max(p.n_fregs),
        shadow.n_iregs.max(p.n_iregs),
        shadow.n_vregs.max(p.n_vregs),
    ];
    for ins in shadow.instrs.iter().chain(&p.instrs) {
        instr_io(ins, |bank, reg, _| {
            let c = &mut counts[bank_idx(bank)];
            *c = (*c).max(reg + 1);
        });
    }
    let live = shadow_liveness(
        &shadow.instrs,
        [shadow.n_fregs, shadow.n_iregs, shadow.n_vregs],
    );

    // Cut-point table: (shadow pc, optimized pc) → pair id.
    let mut pair_ids: HashMap<(usize, usize), u32> = HashMap::new();
    let mut pair_pcs: Vec<(usize, usize)> = Vec::new();
    // Optimized-side entry values per pair, joined over incoming edges.
    let mut t_entry: Vec<SegState> = Vec::new();
    // Shadow-side entry values per pair, fixed at creation: live-in
    // registers hold shared unknowns, dead ones are havocked. Interned
    // once here so each worklist visit is a plain clone, not a fresh
    // interner pass over the whole register file.
    let mut s_entry: Vec<SegState> = Vec::new();
    let mut syms = Syms::default();
    let mut work: Vec<u32> = Vec::new();

    let entry_state =
        |syms: &mut Syms, pair: u32, counts: [u32; 3], live_at: &[Bits; 3]| SegState {
            f: (0..counts[0])
                .map(|r| {
                    if live_at[0].get(r) {
                        syms.intern(SymKey::CutVal(pair, 0, r))
                    } else {
                        syms.intern(SymKey::Undef(pair, 0, r))
                    }
                })
                .collect(),
            i: (0..counts[1])
                .map(|r| {
                    if live_at[1].get(r) {
                        syms.intern(SymKey::CutVal(pair, 1, r))
                    } else {
                        syms.intern(SymKey::Undef(pair, 1, r))
                    }
                })
                .collect(),
            v: (0..counts[2])
                .map(|r| {
                    if live_at[2].get(r) {
                        syms.intern(SymKey::CutVal(pair, 2, r))
                    } else {
                        syms.intern(SymKey::Undef(pair, 2, r))
                    }
                })
                .collect(),
        };
    let no_live = [Bits::empty(0), Bits::empty(0), Bits::empty(0)];

    pair_ids.insert((0, 0), 0);
    pair_pcs.push((0, 0));
    let live0 = live.first().unwrap_or(&no_live).clone();
    let e0 = entry_state(&mut syms, 0, counts, &live0);
    // The optimized side enters with the same shared unknowns in
    // live-in registers; dead registers start as the shadow's havoc
    // values too (nothing has been carried in yet).
    t_entry.push(e0.clone());
    s_entry.push(e0);
    work.push(0);

    let pair_cap = 4 * (shadow.instrs.len() + p.instrs.len()) + 16;
    let mut steps = 0usize;
    while let Some(pair) = work.pop() {
        steps += 1;
        if steps > 16 * pair_cap {
            return Err(err(
                ObligationKind::Equiv,
                "bisimulation budget exceeded".to_string(),
            ));
        }
        let (s_pc, t_pc) = pair_pcs[pair as usize];
        let live_at = live.get(s_pc).unwrap_or(&no_live);

        // Shadow side: live-in registers get shared unknowns, the rest
        // are havocked (any value the optimizer left there is fine).
        // Both were interned when the pair was created.
        let mut s_st = s_entry[pair as usize].clone();
        // Optimized side: carried values, except live registers are the
        // same shared unknowns (proven equal when this edge was taken).
        let mut t_st = t_entry[pair as usize].clone();
        for (b, (bank, cuts)) in [
            (&mut t_st.f, &s_st.f),
            (&mut t_st.i, &s_st.i),
            (&mut t_st.v, &s_st.v),
        ]
        .into_iter()
        .enumerate()
        {
            for (r, slot) in bank.iter_mut().enumerate() {
                if live_at[b].get(r as u32) {
                    *slot = cuts[r];
                }
            }
        }

        let mut s_eff = Vec::new();
        let mut t_eff = Vec::new();
        let s_end = run_scalar_seg(
            &mut syms, &mut s_st, &shadow.instrs, s_pc, pair, &mut s_eff, "shadow",
        )?;
        let t_end = run_scalar_seg(
            &mut syms, &mut t_st, &p.instrs, t_pc, pair, &mut t_eff, "tape",
        )?;

        if s_eff != t_eff {
            let at = s_eff
                .iter()
                .zip(&t_eff)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| s_eff.len().min(t_eff.len()));
            return Err(err(
                ObligationKind::Equiv,
                format!(
                    "cut (pc {s_pc}, pc {t_pc}): effect streams diverge at \
                     call {at}: shadow {:?}, tape {:?}",
                    s_eff.get(at),
                    t_eff.get(at)
                ),
            ));
        }

        // Match endings and collect successor cut pairs.
        let succ: Vec<(usize, usize)> = match (&s_end, &t_end) {
            (Ending::Halt(st_, sv), Ending::Halt(tt, tv)) => {
                if st_ != tt || sv != tv {
                    return Err(err(
                        ObligationKind::Equiv,
                        format!(
                            "cut (pc {s_pc}, pc {t_pc}): halts disagree: \
                             shadow {s_end:?}, tape {t_end:?}"
                        ),
                    ));
                }
                vec![]
            }
            (Ending::Uncond(st_), Ending::Uncond(tt)) => vec![(*st_, *tt)],
            (
                Ending::Cond { cond: sc, t: st_, f: sf_ },
                Ending::Cond { cond: tc, t: tt, f: tf },
            ) => {
                if sc != tc {
                    return Err(err(
                        ObligationKind::Equiv,
                        format!(
                            "cut (pc {s_pc}, pc {t_pc}): branch conditions \
                             disagree (shadow sym {sc}, tape sym {tc})"
                        ),
                    ));
                }
                vec![(*st_, *tt), (*sf_, *tf)]
            }
            _ => {
                return Err(err(
                    ObligationKind::Equiv,
                    format!(
                        "cut (pc {s_pc}, pc {t_pc}): segment endings \
                         disagree: shadow {s_end:?}, tape {t_end:?}"
                    ),
                ));
            }
        };

        for (s_next, t_next) in succ {
            // Edge obligation: every register the shadow still needs at
            // the target must hold the same symbolic value on both
            // sides. (A havocked value cannot leak through here: live
            // at the target and unwritten in the segment implies live
            // at this cut, hence a shared unknown, not an Undef.)
            let live_next = live.get(s_next).ok_or_else(|| {
                err(
                    ObligationKind::Equiv,
                    format!("shadow successor pc {s_next} out of bounds"),
                )
            })?;
            for (b, (s_bank, t_bank)) in
                [(&s_st.f, &t_st.f), (&s_st.i, &t_st.i), (&s_st.v, &t_st.v)]
                    .into_iter()
                    .enumerate()
            {
                for r in 0..counts[b] {
                    if live_next[b].get(r)
                        && s_bank.get(r as usize) != t_bank.get(r as usize)
                    {
                        let bank_name = ["F", "I", "V"][b];
                        return Err(err(
                            ObligationKind::Equiv,
                            format!(
                                "edge (pc {s_pc}, pc {t_pc}) → (pc {s_next}, \
                                 pc {t_next}): live register {bank_name}{r} \
                                 differs between shadow and optimized tape"
                            ),
                        ));
                    }
                }
            }
            match pair_ids.get(&(s_next, t_next)) {
                Some(&next) => {
                    // Join the optimized side's carried values; any
                    // disagreement over a shadow-dead register demotes
                    // it to a monotone "unknown, differs by path" top.
                    let entry = &mut t_entry[next as usize];
                    let mut changed = false;
                    for (b, (bank, exit)) in [
                        (&mut entry.f, &t_st.f),
                        (&mut entry.i, &t_st.i),
                        (&mut entry.v, &t_st.v),
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        for (r, slot) in bank.iter_mut().enumerate() {
                            let new = exit[r];
                            if *slot != new {
                                let top = syms.intern(SymKey::TDiff(
                                    next, b as u8, r as u32,
                                ));
                                if *slot != top {
                                    *slot = top;
                                    changed = true;
                                }
                            }
                        }
                    }
                    if changed {
                        work.push(next);
                    }
                }
                None => {
                    if pair_pcs.len() >= pair_cap {
                        return Err(err(
                            ObligationKind::Equiv,
                            "cut-point budget exceeded".to_string(),
                        ));
                    }
                    let next = pair_pcs.len() as u32;
                    pair_ids.insert((s_next, t_next), next);
                    pair_pcs.push((s_next, t_next));
                    t_entry.push(SegState {
                        f: t_st.f.clone(),
                        i: t_st.i.clone(),
                        v: t_st.v.clone(),
                    });
                    let live_n = live.get(s_next).unwrap_or(&no_live).clone();
                    let se = entry_state(&mut syms, next, counts, &live_n);
                    s_entry.push(se);
                    work.push(next);
                    rep.equiv += 1;
                }
            }
        }
    }
    rep.equiv += 1; // the entry pair itself
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (operator, lane) pair the batch ISA can carry gets a tag of
    /// its own, so a changed operator or lane always changes the
    /// symbolic value or effect it produces.
    #[test]
    fn tag_tables_give_each_operator_and_lane_its_own_tag() {
        use Lane::{B, F, I};
        let lanes = [F, I, B];
        let cmps = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let mut tags: Vec<&'static str> = Vec::new();
        let fops = [FOp::Add, FOp::Sub, FOp::Mul, FOp::Div, FOp::Rem, FOp::Min, FOp::Max];
        tags.extend(fops.map(bin_f_tag));
        tags.extend([IOp::Add, IOp::Sub, IOp::Mul, IOp::Min, IOp::Max].map(bin_i_tag));
        tags.extend([FUnOp::Neg, FUnOp::Abs, FUnOp::Sqrt, FUnOp::Floor].map(un_f_tag));
        tags.extend([IUnOp::Neg, IUnOp::Abs].map(un_i_tag));
        for lane in lanes {
            tags.extend(cmps.map(|op| cmp_tag(lane, op)));
            tags.push(sel_tag(lane));
            tags.push(out_tag(lane));
        }
        for red in [RedK::Sum, RedK::Min, RedK::Max] {
            tags.extend([F, I].map(|lane| red_tag(red, lane).unwrap_or("")));
            assert_eq!(red_tag(red, B), None, "the bool lane has no {red:?} fold");
        }
        let pairs = 7 + 5 + 4 + 2 + 3 * (6 + 2) + 3 * 2;
        assert_eq!(tags.len(), pairs);
        let mut distinct = tags.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), pairs, "a tag is shared: {tags:?}");
        assert!(!tags.contains(&""));

        // The scalar compares are the verifier's other comparison table.
        let mut scalar: Vec<&str> = cmps.map(|op| scalar_cmp_tag(op, true)).to_vec();
        scalar.extend(cmps.map(|op| scalar_cmp_tag(op, false)));
        scalar.sort_unstable();
        scalar.dedup();
        assert_eq!(scalar.len(), 12);
    }
}
