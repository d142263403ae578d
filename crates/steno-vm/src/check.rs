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
//! strength is `tests/tape_mutation.rs`: nine classes of deliberate
//! miscompile injected into real corpus tapes, every one rejected.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::batch::{BInit, BOp, BatchProgram, KeyRef};
use crate::instr::{Instr, Program, ScalarShadow, SKey};
use crate::lifetimes::{instr_io, RegBank};

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
    /// Equivalence cut-points / kernel shapes discharged symbolically.
    pub equiv: u32,
}

impl TapeReport {
    /// Total obligations discharged across all categories.
    pub fn total(&self) -> u32 {
        self.cfg + self.dataflow + self.polls + self.div + self.equiv
    }

    /// One-line summary for EXPLAIN output, e.g.
    /// `passed (cfg 3, dataflow 17, polls 1, div 0, equiv 4)`.
    pub fn summary(&self) -> String {
        format!(
            "passed (cfg {}, dataflow {}, polls {}, div {}, equiv {})",
            self.cfg, self.dataflow, self.polls, self.div, self.equiv
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
            check_batch(bp, &mut rep)?;
        }
    }
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
    fn full(n: usize) -> Bits {
        let mut b = Bits(vec![!0u64; n.div_ceil(64)]);
        let tail = n % 64;
        if tail != 0 {
            if let Some(last) = b.0.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        b
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
    let full = [
        Bits::full(n_fregs as usize),
        Bits::full(n_iregs as usize),
        Bits::full(n_vregs as usize),
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
    let _ = full;

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
    let mut run = BatchRun { effects: Vec::new(), unchecked: Vec::new(), reads: 0 };

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
        match *op {
            BOp::LoadF(d) => wr!(f, n_f, "f64", d, src),
            BOp::LoadI(d) => wr!(i, n_i, "i64", d, src),
            BOp::LoadB(d) => wr!(b, n_b, "bool", d, src),

            BOp::AddF(d, a, b) => {
                let (x, y) = (rd!(f, n_f, "f64", a), rd!(f, n_f, "f64", b));
                let s = syms.apply("addf", &[x, y]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::SubF(d, a, b) => {
                let (x, y) = (rd!(f, n_f, "f64", a), rd!(f, n_f, "f64", b));
                let s = syms.apply("subf", &[x, y]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::MulF(d, a, b) => {
                let (x, y) = (rd!(f, n_f, "f64", a), rd!(f, n_f, "f64", b));
                let s = syms.apply("mulf", &[x, y]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::DivF(d, a, b) => {
                let (x, y) = (rd!(f, n_f, "f64", a), rd!(f, n_f, "f64", b));
                let s = syms.apply("divf", &[x, y]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::RemF(d, a, b) => {
                let (x, y) = (rd!(f, n_f, "f64", a), rd!(f, n_f, "f64", b));
                let s = syms.apply("remf", &[x, y]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::MinF(d, a, b) => {
                let (x, y) = (rd!(f, n_f, "f64", a), rd!(f, n_f, "f64", b));
                let s = syms.apply("minf", &[x, y]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::MaxF(d, a, b) => {
                let (x, y) = (rd!(f, n_f, "f64", a), rd!(f, n_f, "f64", b));
                let s = syms.apply("maxf", &[x, y]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::NegF(d, a) => {
                let x = rd!(f, n_f, "f64", a);
                let s = syms.apply("negf", &[x]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::AbsF(d, a) => {
                let x = rd!(f, n_f, "f64", a);
                let s = syms.apply("absf", &[x]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::SqrtF(d, a) => {
                let x = rd!(f, n_f, "f64", a);
                let s = syms.apply("sqrtf", &[x]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::FloorF(d, a) => {
                let x = rd!(f, n_f, "f64", a);
                let s = syms.apply("floorf", &[x]);
                wr!(f, n_f, "f64", d, s);
            }

            BOp::AddI(d, a, b) => {
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                let s = syms.apply("addi", &[x, y]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::SubI(d, a, b) => {
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                let s = syms.apply("subi", &[x, y]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::MulI(d, a, b) => {
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                let s = syms.apply("muli", &[x, y]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::MinI(d, a, b) => {
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                let s = syms.apply("mini", &[x, y]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::MaxI(d, a, b) => {
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                let s = syms.apply("maxi", &[x, y]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::NegI(d, a) => {
                let x = rd!(i, n_i, "i64", a);
                let s = syms.apply("negi", &[x]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::AbsI(d, a) => {
                let x = rd!(i, n_i, "i64", a);
                let s = syms.apply("absi", &[x]);
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

            BOp::EqFB(d, a, b) | BOp::NeFB(d, a, b) | BOp::LtFB(d, a, b)
            | BOp::LeFB(d, a, b) | BOp::GtFB(d, a, b) | BOp::GeFB(d, a, b) => {
                let tag = match op {
                    BOp::EqFB(..) => "eqfb",
                    BOp::NeFB(..) => "nefb",
                    BOp::LtFB(..) => "ltfb",
                    BOp::LeFB(..) => "lefb",
                    BOp::GtFB(..) => "gtfb",
                    _ => "gefb",
                };
                let (x, y) = (rd!(f, n_f, "f64", a), rd!(f, n_f, "f64", b));
                let s = syms.apply(tag, &[x, y]);
                wr!(b, n_b, "bool", d, s);
            }
            BOp::EqIB(d, a, b) | BOp::NeIB(d, a, b) | BOp::LtIB(d, a, b)
            | BOp::LeIB(d, a, b) | BOp::GtIB(d, a, b) | BOp::GeIB(d, a, b) => {
                let tag = match op {
                    BOp::EqIB(..) => "eqib",
                    BOp::NeIB(..) => "neib",
                    BOp::LtIB(..) => "ltib",
                    BOp::LeIB(..) => "leib",
                    BOp::GtIB(..) => "gtib",
                    _ => "geib",
                };
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                let s = syms.apply(tag, &[x, y]);
                wr!(b, n_b, "bool", d, s);
            }
            BOp::EqBB(d, a, b) => {
                let (x, y) = (rd!(b, n_b, "bool", a), rd!(b, n_b, "bool", b));
                let s = syms.apply("eqbb", &[x, y]);
                wr!(b, n_b, "bool", d, s);
            }
            BOp::NeBB(d, a, b) => {
                let (x, y) = (rd!(b, n_b, "bool", a), rd!(b, n_b, "bool", b));
                let s = syms.apply("nebb", &[x, y]);
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

            BOp::SelF { dst, mask, t, e } => {
                let m = rd!(b, n_b, "bool", mask);
                let (x, y) = (rd!(f, n_f, "f64", t), rd!(f, n_f, "f64", e));
                let s = syms.apply("self", &[m, x, y]);
                wr!(f, n_f, "f64", dst, s);
            }
            BOp::SelI { dst, mask, t, e } => {
                let m = rd!(b, n_b, "bool", mask);
                let (x, y) = (rd!(i, n_i, "i64", t), rd!(i, n_i, "i64", e));
                let s = syms.apply("seli", &[m, x, y]);
                wr!(i, n_i, "i64", dst, s);
            }
            BOp::SelB { dst, mask, t, e } => {
                let m = rd!(b, n_b, "bool", mask);
                let (x, y) = (rd!(b, n_b, "bool", t), rd!(b, n_b, "bool", e));
                let s = syms.apply("selb", &[m, x, y]);
                wr!(b, n_b, "bool", dst, s);
            }

            BOp::Filter(m) => {
                let x = rd!(b, n_b, "bool", m);
                run.effects.push(Effect { tag: "filter", id: 0, args: vec![x] });
            }

            BOp::RedAddF { acc, val } => {
                let x = rd!(f, n_f, "f64", val);
                run.effects.push(Effect { tag: "redaddf", id: u64::from(acc), args: vec![x] });
            }
            BOp::RedMinF { acc, val } => {
                let x = rd!(f, n_f, "f64", val);
                run.effects.push(Effect { tag: "redminf", id: u64::from(acc), args: vec![x] });
            }
            BOp::RedMaxF { acc, val } => {
                let x = rd!(f, n_f, "f64", val);
                run.effects.push(Effect { tag: "redmaxf", id: u64::from(acc), args: vec![x] });
            }
            BOp::RedAddI { acc, val } => {
                let x = rd!(i, n_i, "i64", val);
                run.effects.push(Effect { tag: "redaddi", id: u64::from(acc), args: vec![x] });
            }
            BOp::RedMinI { acc, val } => {
                let x = rd!(i, n_i, "i64", val);
                run.effects.push(Effect { tag: "redmini", id: u64::from(acc), args: vec![x] });
            }
            BOp::RedMaxI { acc, val } => {
                let x = rd!(i, n_i, "i64", val);
                run.effects.push(Effect { tag: "redmaxi", id: u64::from(acc), args: vec![x] });
            }

            BOp::GroupAddF { sink, key, val } => {
                let k = match key {
                    KeyRef::F(s) => rd!(f, n_f, "f64", s),
                    KeyRef::I(s) => rd!(i, n_i, "i64", s),
                    KeyRef::B(s) => rd!(b, n_b, "bool", s),
                };
                let v = rd!(f, n_f, "f64", val);
                run.effects.push(Effect { tag: "groupaddf", id: u64::from(sink), args: vec![k, v] });
            }
            BOp::GroupAddI { sink, key, val } => {
                let k = match key {
                    KeyRef::F(s) => rd!(f, n_f, "f64", s),
                    KeyRef::I(s) => rd!(i, n_i, "i64", s),
                    KeyRef::B(s) => rd!(b, n_b, "bool", s),
                };
                let v = rd!(i, n_i, "i64", val);
                run.effects.push(Effect { tag: "groupaddi", id: u64::from(sink), args: vec![k, v] });
            }

            BOp::OutF(s) => {
                let x = rd!(f, n_f, "f64", s);
                run.effects.push(Effect { tag: "outf", id: 0, args: vec![x] });
            }
            BOp::OutI(s) => {
                let x = rd!(i, n_i, "i64", s);
                run.effects.push(Effect { tag: "outi", id: 0, args: vec![x] });
            }
            BOp::OutB(s) => {
                let x = rd!(b, n_b, "bool", s);
                run.effects.push(Effect { tag: "outb", id: 0, args: vec![x] });
            }

            BOp::MulAddF(d, a, b, c) => {
                // Two roundings, product first: model exactly as the
                // unfused pair so the shadow comparison is honest.
                let (x, y, z) =
                    (rd!(f, n_f, "f64", a), rd!(f, n_f, "f64", b), rd!(f, n_f, "f64", c));
                let m = syms.apply("mulf", &[x, y]);
                let s = syms.apply("addf", &[m, z]);
                wr!(f, n_f, "f64", d, s);
            }
            BOp::MulAddI(d, a, b, c) => {
                let (x, y, z) =
                    (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b), rd!(i, n_i, "i64", c));
                let m = syms.apply("muli", &[x, y]);
                let s = syms.apply("addi", &[m, z]);
                wr!(i, n_i, "i64", d, s);
            }
            BOp::MulRedAddF { acc, a, b } => {
                let (x, y) = (rd!(f, n_f, "f64", a), rd!(f, n_f, "f64", b));
                let m = syms.apply("mulf", &[x, y]);
                run.effects.push(Effect { tag: "redaddf", id: u64::from(acc), args: vec![m] });
            }
            BOp::MulRedAddI { acc, a, b } => {
                let (x, y) = (rd!(i, n_i, "i64", a), rd!(i, n_i, "i64", b));
                let m = syms.apply("muli", &[x, y]);
                run.effects.push(Effect { tag: "redaddi", id: u64::from(acc), args: vec![m] });
            }
        }
    }
    Ok(run)
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
        let mut env = steno_expr::typecheck::TyEnv::new();
        for (name, ty) in &proof.env {
            env = env.with(name.clone(), ty.clone());
        }
        let facts = steno_analysis::analyze(&proof.divisor, &env);
        let ok = facts.range.is_some_and(|r| r.excludes_zero());
        if !ok {
            return Err(err(
                ObligationKind::Div,
                format!(
                    "unchecked division #{k}: recorded divisor {:?} does \
                     not re-derive an interval excluding zero (got {:?})",
                    proof.divisor, facts.range
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
    use crate::fuse_kernels::{CmpK, FoldKind, FusedTape, MapF, MapI, PredI, ScalF, ScalI};

    let x = syms.intern(SymKey::SrcElem);
    let sf = |syms: &mut Syms, s: ScalF| match s {
        ScalF::Lit(v) => syms.cf(v),
        ScalF::Param(p) => syms.intern(SymKey::ParamF(p)),
    };
    let si = |syms: &mut Syms, s: ScalI| match s {
        ScalI::Lit(v) => syms.ci(v),
        ScalI::Param(p) => syms.intern(SymKey::ParamI(p)),
    };
    fn cmp_tag(k: CmpK, float: bool) -> &'static str {
        match (k, float) {
            (CmpK::Eq, true) => "eqfb",
            (CmpK::Ne, true) => "nefb",
            (CmpK::Lt, true) => "ltfb",
            (CmpK::Le, true) => "lefb",
            (CmpK::Gt, true) => "gtfb",
            (CmpK::Ge, true) => "gefb",
            (CmpK::Eq, false) => "eqib",
            (CmpK::Ne, false) => "neib",
            (CmpK::Lt, false) => "ltib",
            (CmpK::Le, false) => "leib",
            (CmpK::Gt, false) => "gtib",
            (CmpK::Ge, false) => "geib",
        }
    }
    let acc_ok = |acc: u8, float: bool| -> Result<(), CheckError> {
        let n = if float { bp.f_accs.len() } else { bp.i_accs.len() };
        if (acc as usize) < n {
            Ok(())
        } else {
            Err(err(
                ObligationKind::Dataflow,
                format!(
                    "fused kernel accumulator {} out of bounds ({} {} accs)",
                    acc,
                    n,
                    if float { "f64" } else { "i64" }
                ),
            ))
        }
    };

    // Candidate map symbols (each a per-element value).
    let map_f = |syms: &mut Syms, m: &MapF| -> Vec<Sym> {
        match *m {
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
        }
    };
    let map_i = |syms: &mut Syms, m: &MapI| -> Vec<Sym> {
        match *m {
            MapI::X => vec![x],
            MapI::Sq => vec![syms.apply("muli", &[x, x])],
            MapI::MulK(k) => {
                let k = si(syms, k);
                vec![syms.apply("muli", &[x, k])]
            }
            MapI::Lin(a, b) => {
                let (av, bv) = (si(syms, a), si(syms, b));
                let ax = syms.apply("muli", &[av, x]);
                let mut c = vec![syms.apply("addi", &[ax, bv])];
                if a == ScalI::Lit(1) {
                    c.push(syms.apply("addi", &[x, bv]));
                }
                c
            }
            MapI::K(k) => vec![si(syms, k)],
        }
    };
    let pred_f = |syms: &mut Syms, p: &(CmpK, ScalF)| -> Vec<Sym> {
        let c = sf(syms, p.1);
        vec![syms.apply(cmp_tag(p.0, true), &[x, c])]
    };
    let pred_i = |syms: &mut Syms, p: &PredI| -> Vec<Sym> {
        match *p {
            PredI::Cmp(k, c) => {
                let c = si(syms, c);
                vec![syms.apply(cmp_tag(k, false), &[x, c])]
            }
            PredI::RemCmp { m, r, ne } => {
                let (mv, rv) = (si(syms, m), si(syms, r));
                let rem = syms.apply("remiu", &[x, mv]);
                vec![syms.apply(if ne { "neib" } else { "eqib" }, &[rem, rv])]
            }
        }
    };

    // Expected streams: cross product of pred candidates × map/value
    // candidates, each `[Filter?, reduction]`.
    let streams = |preds: Vec<Option<Sym>>, tag: &'static str, id: u64, vals: Vec<Sym>| -> Vec<Vec<Effect>> {
        let mut out = Vec::new();
        for p in &preds {
            for &v in &vals {
                let mut s = Vec::new();
                if let Some(m) = p {
                    s.push(Effect { tag: "filter", id: 0, args: vec![*m] });
                }
                s.push(Effect { tag, id, args: vec![v] });
                out.push(s);
            }
        }
        out
    };

    let candidates: Vec<Vec<Effect>> = match fused {
        FusedTape::SumF { pred, map, acc } => {
            acc_ok(*acc, true)?;
            let preds = match pred {
                Some(p) => pred_f(syms, p).into_iter().map(Some).collect(),
                None => vec![None],
            };
            let vals = map_f(syms, map);
            streams(preds, "redaddf", u64::from(*acc), vals)
        }
        FusedTape::SumI { pred, map, acc } => {
            acc_ok(*acc, false)?;
            let preds = match pred {
                Some(p) => pred_i(syms, p).into_iter().map(Some).collect(),
                None => vec![None],
            };
            let vals = map_i(syms, map);
            streams(preds, "redaddi", u64::from(*acc), vals)
        }
        FusedTape::FoldF { kind, pred, map, acc } => {
            acc_ok(*acc, true)?;
            let preds = match pred {
                Some(p) => pred_f(syms, p).into_iter().map(Some).collect(),
                None => vec![None],
            };
            let vals = map_f(syms, map);
            let tag = match kind {
                FoldKind::Min => "redminf",
                FoldKind::Max => "redmaxf",
            };
            streams(preds, tag, u64::from(*acc), vals)
        }
        FusedTape::FoldI { kind, pred, map, acc } => {
            acc_ok(*acc, false)?;
            let preds = match pred {
                Some(p) => pred_i(syms, p).into_iter().map(Some).collect(),
                None => vec![None],
            };
            let vals = map_i(syms, map);
            let tag = match kind {
                FoldKind::Min => "redmini",
                FoldKind::Max => "redmaxi",
            };
            streams(preds, tag, u64::from(*acc), vals)
        }
        FusedTape::SelRemDivLinI { m, r, d, a, b, acc } => {
            // acc += x%m==r ? x/d : a*x+b — the tape form is an
            // unconditional reduction of a lane-wise select; both the
            // `==`-ordered and `!=`-branch-swapped selects are legal.
            acc_ok(*acc, false)?;
            let (mv, rv, dv, av, bv) =
                (syms.ci(*m), syms.ci(*r), syms.ci(*d), syms.ci(*a), syms.ci(*b));
            let rem = syms.apply("remiu", &[x, mv]);
            let div = syms.apply("diviu", &[x, dv]);
            let ax = syms.apply("muli", &[av, x]);
            let mut lins = vec![syms.apply("addi", &[ax, bv])];
            if *a == 1 {
                lins.push(syms.apply("addi", &[x, bv]));
            }
            let ceq = syms.apply("eqib", &[rem, rv]);
            let cne = syms.apply("neib", &[rem, rv]);
            let mut out = Vec::new();
            for &lin in &lins {
                for &val in &[
                    syms.apply("seli", &[ceq, div, lin]),
                    syms.apply("seli", &[cne, lin, div]),
                ] {
                    out.push(vec![Effect {
                        tag: "redaddi",
                        id: u64::from(*acc),
                        args: vec![val],
                    }]);
                }
            }
            out
        }
    };

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

fn scalar_cmp_tag(op: crate::instr::CmpOp, float: bool) -> &'static str {
    use crate::instr::CmpOp;
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
            Instr::EqF(d, a, b) | Instr::NeF(d, a, b) | Instr::LtF(d, a, b)
            | Instr::LeF(d, a, b) | Instr::GtF(d, a, b) | Instr::GeF(d, a, b) => {
                let tag = match ins {
                    Instr::EqF(..) => "eqf",
                    Instr::NeF(..) => "nef",
                    Instr::LtF(..) => "ltf",
                    Instr::LeF(..) => "lef",
                    Instr::GtF(..) => "gtf",
                    _ => "gef",
                };
                let (x, y) = (st.f[*a as usize], st.f[*b as usize]);
                st.i[*d as usize] = syms.apply(tag, &[x, y]);
            }
            Instr::EqI(d, a, b) | Instr::NeI(d, a, b) | Instr::LtI(d, a, b)
            | Instr::LeI(d, a, b) | Instr::GtI(d, a, b) | Instr::GeI(d, a, b) => {
                let tag = match ins {
                    Instr::EqI(..) => "eqi",
                    Instr::NeI(..) => "nei",
                    Instr::LtI(..) => "lti",
                    Instr::LeI(..) => "lei",
                    Instr::GtI(..) => "gti",
                    _ => "gei",
                };
                let (x, y) = (st.i[*a as usize], st.i[*b as usize]);
                st.i[*d as usize] = syms.apply(tag, &[x, y]);
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
            Instr::SinkNewGroupAggSF(s, r) => {
                let x = st.f[*r as usize];
                let _ = eff!("sinknewgroupaggsf", u64::from(*s), vec![x]);
            }
            Instr::SinkNewGroupAggSI(s, r) => {
                let x = st.i[*r as usize];
                let _ = eff!("sinknewgroupaggsi", u64::from(*s), vec![x]);
            }
            Instr::SinkNewSorted(s, desc) => {
                let _ = eff!("sinknewsorted", (u64::from(*s) << 1) | u64::from(*desc), vec![]);
            }
            Instr::SinkNewDistinct(s) => {
                let _ = eff!("sinknewdistinct", u64::from(*s), vec![]);
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
