//! Register- and slot-lifetime analysis over the compiled bytecode.
//!
//! Three backend passes, all running after assembly and before the
//! program is cached, all semantics-preserving:
//!
//! * [`pack_batch_slots`] — live ranges for batch columns. The
//!   vectorizer emits SSA slots (every destination fresh), so an N-op
//!   tape allocates N 1024-lane columns even when only two are live at
//!   once. Packing reuses a column the moment its last reader has run,
//!   shrinking the scratch arena to the live-range width — the
//!   difference between spilling to L2 and staying resident in L1 on
//!   long tapes. The executor's `_any` kernels (see [`crate::kernels`])
//!   stay exact under the aliasing this introduces.
//! * [`hoist_loop_invariant_consts`] — scalar loop bodies reload every
//!   literal each iteration (`ConstI r, 3` per element in an
//!   `x % 3 == 0` loop). Constants whose register has exactly one
//!   writer and whose reads all follow it are moved to the program
//!   entry, so the loop body pays nothing.
//! * [`fuse_scalar_pairs`] — threaded dispatch for the scalar tier:
//!   the hottest adjacent instruction pairs (compare→branch,
//!   increment→jump, multiply→add) fuse into the superinstructions of
//!   [`crate::instr`], halving dispatch cost on loop back-edges. The
//!   fused forms poll the interrupt on back-edges exactly like the
//!   pairs they replace.
//!
//! [`shrink_frames`] then recomputes register-bank sizes, so frames
//! freed by the passes above are not allocated at run time.

use crate::batch::{BInit, BOp, BatchProgram, Lane};
use crate::instr::{Instr, Program, SKey};

// ---------------------------------------------------------------------
// Batch-slot lifetimes.
// ---------------------------------------------------------------------

/// Visits every slot operand of a batch op, tagged with its bank.
/// `is_def` marks the (single) destination; everything else is a read.
/// Exhaustive over [`BOp`] so a new op cannot silently escape the
/// analysis.
fn bop_slots_mut(op: &mut BOp, mut f: impl FnMut(Lane, &mut u8, bool)) {
    use Lane::{B, F, I};
    // `d = a op b`, operands in lane `x`, result in lane `r`.
    let mut bin = |x: Lane, r: Lane, d: &mut u8, a: &mut u8, b: &mut u8| {
        f(x, a, false);
        f(x, b, false);
        f(r, d, true);
    };
    match op {
        BOp::BinF(_, d, a, b) => bin(F, F, d, a, b),
        BOp::BinI(_, d, a, b)
        | BOp::DivI(d, a, b)
        | BOp::RemI(d, a, b)
        | BOp::DivIUnchecked(d, a, b)
        | BOp::RemIUnchecked(d, a, b) => bin(I, I, d, a, b),
        BOp::AndB(d, a, b) | BOp::OrB(d, a, b) => bin(B, B, d, a, b),
        BOp::Cmp(lane, _, d, a, b) => bin(*lane, B, d, a, b),
        BOp::Load(lane, d) | BOp::LoadSnd(lane, d) => f(*lane, d, true),
        BOp::UnF(_, d, a) => {
            f(F, a, false);
            f(F, d, true);
        }
        BOp::UnI(_, d, a) => {
            f(I, a, false);
            f(I, d, true);
        }
        BOp::NotB(d, a) => {
            f(B, a, false);
            f(B, d, true);
        }
        BOp::F2I(d, a) => {
            f(F, a, false);
            f(I, d, true);
        }
        BOp::I2F(d, a) => {
            f(I, a, false);
            f(F, d, true);
        }
        BOp::Sel { lane, dst, mask, t, e } => {
            f(B, mask, false);
            f(*lane, t, false);
            f(*lane, e, false);
            f(*lane, dst, true);
        }
        BOp::Filter(m) | BOp::Cut(m) => f(B, m, false),
        BOp::Red { lane, val, .. } => f(*lane, val, false),
        BOp::GroupAdd { lane, key, val, .. } => {
            f(key.0, &mut key.1, false);
            f(*lane, val, false);
        }
        BOp::Out(lane, s) => f(*lane, s, false),
        BOp::OutPair(a, b) | BOp::SortPush { key: a, val: b, .. } => {
            f(a.0, &mut a.1, false);
            f(b.0, &mut b.1, false);
        }
        BOp::DistinctPush { val, .. } => f(val.0, &mut val.1, false),
        BOp::Call { args, dst, .. } => {
            for (lane, s) in args.as_mut_slice() {
                f(*lane, s, false);
            }
            f(dst.0, &mut dst.1, true);
        }
        BOp::MulAdd(lane, d, a, b, c) => {
            f(*lane, a, false);
            f(*lane, b, false);
            f(*lane, c, false);
            f(*lane, d, true);
        }
        BOp::MulRedAdd { lane, a, b, .. } => {
            f(*lane, a, false);
            f(*lane, b, false);
        }
    }
}

/// Visits every slot a batch op *reads*.
pub fn bop_uses(op: &BOp, mut f: impl FnMut(Lane, u8)) {
    let mut tmp = *op;
    bop_slots_mut(&mut tmp, |bank, slot, is_def| {
        if !is_def {
            f(bank, *slot);
        }
    });
}

/// The slot a batch op writes, if any.
pub(crate) fn bop_def(op: &BOp) -> Option<(Lane, u8)> {
    let mut tmp = *op;
    let mut def = None;
    bop_slots_mut(&mut tmp, |bank, slot, is_def| {
        if is_def {
            def = Some((bank, *slot));
        }
    });
    def
}

/// Per-bank slot allocation state for [`pack_batch_slots`].
struct SlotAlloc {
    /// Old slot → packed slot, once defined.
    map: Vec<Option<u8>>,
    /// Packed slots whose last reader has run.
    free: Vec<u8>,
    /// Next fresh packed slot.
    next: u8,
    /// High-water mark of packed slots.
    high: u8,
    /// Packed slots that must never be reused (prologue broadcasts stay
    /// live across every chunk).
    pinned: Vec<bool>,
}

impl SlotAlloc {
    fn new(n: u8) -> SlotAlloc {
        SlotAlloc {
            map: vec![None; n as usize],
            free: Vec::new(),
            next: 0,
            high: 0,
            pinned: vec![false; n as usize],
        }
    }

    fn alloc(&mut self, old: u8, reused: &mut u32) -> Option<u8> {
        // SSA input: a second definition of the same old slot means the
        // tape is not in the form the compiler emits — refuse to pack.
        if self.map.get(old as usize)?.is_some() {
            return None;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                *reused += 1;
                s
            }
            None => {
                let s = self.next;
                self.next = self.next.checked_add(1)?;
                s
            }
        };
        self.high = self.high.max(self.next);
        self.map[old as usize] = Some(slot);
        Some(slot)
    }

    fn lookup(&self, old: u8) -> Option<u8> {
        *self.map.get(old as usize)?
    }

    fn release(&mut self, old: u8) {
        if let Some(Some(packed)) = self.map.get(old as usize) {
            if !self.pinned[*packed as usize] {
                self.free.push(*packed);
            }
        }
    }
}

/// Reassigns batch-column slots by live range: a column is recycled as
/// soon as its last reader has run. Returns the number of slot reuses
/// (columns that would otherwise have been fresh allocations).
///
/// The input must be in the compiler's SSA form (each slot defined
/// once); any violation, or a read of an undefined slot, aborts the pass
/// and leaves the program untouched — packing is an optimization, never
/// an obligation.
pub fn pack_batch_slots(bp: &mut BatchProgram) -> u32 {
    // Last read position per (bank, slot). Prologue = position 0,
    // tape op k = position k + 1.
    let n = [bp.n_f as usize, bp.n_i as usize, bp.n_b as usize];
    let mut last_read = [
        vec![0usize; n[0]],
        vec![0usize; n[1]],
        vec![0usize; n[2]],
    ];
    let idx = |lane: Lane| lane as usize;
    for (k, op) in bp.tape.iter().enumerate() {
        let mut ok = true;
        bop_uses(op, |bank, slot| {
            match last_read[idx(bank)].get_mut(slot as usize) {
                Some(p) => *p = k + 1,
                None => ok = false,
            }
        });
        if !ok {
            return 0;
        }
        if let Some((bank, d)) = bop_def(op) {
            if (d as usize) >= n[idx(bank)] {
                return 0;
            }
        }
    }

    let mut allocs = [
        SlotAlloc::new(bp.n_f),
        SlotAlloc::new(bp.n_i),
        SlotAlloc::new(bp.n_b),
    ];
    let mut reused = 0u32;

    // Prologue slots first: allocated fresh and pinned (their broadcast
    // values persist across chunk iterations).
    let mut prologue = bp.prologue.clone();
    for init in &mut prologue {
        let (bank, slot) = match init {
            BInit::ConstF(d, _) | BInit::ParamF(d, _) => (Lane::F, d),
            BInit::ConstI(d, _) | BInit::ParamI(d, _) => (Lane::I, d),
            BInit::ConstB(d, _) | BInit::ParamB(d, _) => (Lane::B, d),
        };
        let a = &mut allocs[idx(bank)];
        let Some(packed) = a.alloc(*slot, &mut 0) else {
            return 0;
        };
        a.pinned[packed as usize] = true;
        *slot = packed;
    }

    let mut tape = bp.tape.clone();
    for (k, op) in tape.iter_mut().enumerate() {
        let pos = k + 1;
        // Remap reads, then release the ones dying here, then allocate
        // the definition — which may legally land on a slot freed by its
        // own source (the `_any` kernels are aliasing-exact).
        let mut dying: Vec<(Lane, u8)> = Vec::new();
        let mut ok = true;
        bop_slots_mut(op, |bank, slot, is_def| {
            if is_def || !ok {
                return;
            }
            let old = *slot;
            match allocs[idx(bank)].lookup(old) {
                Some(packed) => {
                    *slot = packed;
                    if last_read[idx(bank)][old as usize] == pos
                        && !dying.contains(&(bank, old))
                    {
                        dying.push((bank, old));
                    }
                }
                None => ok = false,
            }
        });
        if !ok {
            return 0;
        }
        for (bank, old) in dying {
            allocs[idx(bank)].release(old);
        }
        let mut def_ok = true;
        bop_slots_mut(op, |bank, slot, is_def| {
            if !is_def || !def_ok {
                return;
            }
            match allocs[idx(bank)].alloc(*slot, &mut reused) {
                Some(packed) => *slot = packed,
                None => def_ok = false,
            }
        });
        if !def_ok {
            return 0;
        }
    }

    bp.prologue = prologue;
    bp.tape = tape;
    bp.n_f = allocs[0].high;
    bp.n_i = allocs[1].high;
    bp.n_b = allocs[2].high;
    reused
}

// ---------------------------------------------------------------------
// Scalar register IO.
// ---------------------------------------------------------------------

/// A scalar register bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum RegBank {
    F,
    I,
    V,
}

/// Visits every register an instruction touches (`is_write` marks
/// definitions; read-modify-write registers are visited twice).
/// Exhaustive over [`Instr`].
pub(crate) fn instr_io(instr: &Instr, mut f: impl FnMut(RegBank, u32, bool)) {
    use RegBank::{F, I, V};
    let skey = |k: &SKey, f: &mut dyn FnMut(RegBank, u32, bool)| match k {
        SKey::F(r) => f(F, *r, false),
        SKey::I(r) | SKey::B(r) => f(I, *r, false),
    };
    match instr {
        Instr::Jump(_) | Instr::HaltOut => {}
        Instr::JumpIfFalse(c, _) | Instr::JumpIfTrue(c, _) => f(I, *c, false),
        Instr::BrCmpF { a, b, .. } => {
            f(F, *a, false);
            f(F, *b, false);
        }
        Instr::BrCmpI { a, b, .. } => {
            f(I, *a, false);
            f(I, *b, false);
        }
        Instr::IncJump { r, .. } => {
            f(I, *r, false);
            f(I, *r, true);
        }

        Instr::ConstF(d, _) => f(F, *d, true),
        Instr::ConstI(d, _) => f(I, *d, true),
        Instr::ConstV(d, _) => f(V, *d, true),
        Instr::MovF(d, s) => {
            f(F, *s, false);
            f(F, *d, true);
        }
        Instr::MovI(d, s) => {
            f(I, *s, false);
            f(I, *d, true);
        }
        Instr::MovV(d, s) => {
            f(V, *s, false);
            f(V, *d, true);
        }

        Instr::AddF(d, a, b)
        | Instr::SubF(d, a, b)
        | Instr::MulF(d, a, b)
        | Instr::DivF(d, a, b)
        | Instr::RemF(d, a, b)
        | Instr::MinF(d, a, b)
        | Instr::MaxF(d, a, b) => {
            f(F, *a, false);
            f(F, *b, false);
            f(F, *d, true);
        }
        Instr::NegF(d, a) | Instr::AbsF(d, a) | Instr::SqrtF(d, a) | Instr::FloorF(d, a) => {
            f(F, *a, false);
            f(F, *d, true);
        }
        Instr::MulAddF(d, a, b, c) => {
            f(F, *a, false);
            f(F, *b, false);
            f(F, *c, false);
            f(F, *d, true);
        }

        Instr::AddI(d, a, b)
        | Instr::SubI(d, a, b)
        | Instr::MulI(d, a, b)
        | Instr::DivI(d, a, b)
        | Instr::RemI(d, a, b)
        | Instr::MinI(d, a, b)
        | Instr::MaxI(d, a, b) => {
            f(I, *a, false);
            f(I, *b, false);
            f(I, *d, true);
        }
        Instr::NegI(d, a) | Instr::AbsI(d, a) | Instr::NotB(d, a) => {
            f(I, *a, false);
            f(I, *d, true);
        }
        Instr::IncI(r) => {
            f(I, *r, false);
            f(I, *r, true);
        }
        Instr::MulAddI(d, a, b, c) => {
            f(I, *a, false);
            f(I, *b, false);
            f(I, *c, false);
            f(I, *d, true);
        }

        Instr::CmpF(_, d, a, b) => {
            f(F, *a, false);
            f(F, *b, false);
            f(I, *d, true);
        }
        Instr::CmpI(_, d, a, b) => {
            f(I, *a, false);
            f(I, *b, false);
            f(I, *d, true);
        }
        Instr::EqV(d, a, b) | Instr::CmpV(d, a, b) => {
            f(V, *a, false);
            f(V, *b, false);
            f(I, *d, true);
        }

        Instr::F2I(d, a) => {
            f(F, *a, false);
            f(I, *d, true);
        }
        Instr::I2F(d, a) => {
            f(I, *a, false);
            f(F, *d, true);
        }
        Instr::FToV(d, a) => {
            f(F, *a, false);
            f(V, *d, true);
        }
        Instr::IToV(d, a) | Instr::BToV(d, a) => {
            f(I, *a, false);
            f(V, *d, true);
        }
        Instr::VToF(d, a) => {
            f(V, *a, false);
            f(F, *d, true);
        }
        Instr::VToI(d, a) | Instr::VToB(d, a) => {
            f(V, *a, false);
            f(I, *d, true);
        }

        Instr::MkPair(d, a, b) => {
            f(V, *a, false);
            f(V, *b, false);
            f(V, *d, true);
        }
        Instr::Field0(d, a) | Instr::Field1(d, a) => {
            f(V, *a, false);
            f(V, *d, true);
        }
        Instr::RowIdx(d, v, i) => {
            f(V, *v, false);
            f(I, *i, false);
            f(F, *d, true);
        }
        Instr::RowLen(d, v) | Instr::SeqLen(d, v) => {
            f(V, *v, false);
            f(I, *d, true);
        }
        Instr::SeqIdx(d, v, i) => {
            f(V, *v, false);
            f(I, *i, false);
            f(V, *d, true);
        }

        Instr::CallUdf { dst, args, .. } => {
            for a in args {
                f(V, *a, false);
            }
            f(V, *dst, true);
        }

        Instr::SrcLen(d, _) => f(I, *d, true),
        Instr::SrcGetF(d, _, i) => {
            f(I, *i, false);
            f(F, *d, true);
        }
        Instr::SrcGetI(d, _, i) | Instr::SrcGetB(d, _, i) => {
            f(I, *i, false);
            f(I, *d, true);
        }
        Instr::SrcGetV(d, _, i) => {
            f(I, *i, false);
            f(V, *d, true);
        }

        Instr::SinkNewGroup(_)
        | Instr::SinkNewSorted(_, _)
        | Instr::SinkNewDistinct(_, _)
        | Instr::SinkNewVec(_)
        | Instr::SinkSeal(_)
        | Instr::SinkFreeze(_) => {}
        Instr::SinkNewGroupAggV(_, v) => f(V, *v, false),
        Instr::SinkNewGroupAggF(_, r) | Instr::SinkNewGroupAggSF(_, r, ..) => f(F, *r, false),
        Instr::SinkNewGroupAggI(_, r) | Instr::SinkNewGroupAggSI(_, r, ..) => f(I, *r, false),
        Instr::GroupPut(_, k, v) => {
            f(V, *k, false);
            f(V, *v, false);
        }
        Instr::GroupAccLoadV(_, d, k) => {
            f(V, *k, false);
            f(V, *d, true);
        }
        Instr::GroupAccStoreV(_, s) => f(V, *s, false),
        Instr::GroupAccLoadF(_, d, k) => {
            f(V, *k, false);
            f(F, *d, true);
        }
        Instr::GroupAccStoreF(_, s) | Instr::GroupAccStoreSF(_, s) => f(F, *s, false),
        Instr::GroupAccLoadI(_, d, k) => {
            f(V, *k, false);
            f(I, *d, true);
        }
        Instr::GroupAccStoreI(_, s) | Instr::GroupAccStoreSI(_, s) => f(I, *s, false),
        Instr::GroupAccLoadSF(_, d, k) => {
            skey(k, &mut f);
            f(F, *d, true);
        }
        Instr::GroupAccLoadSI(_, d, k) => {
            skey(k, &mut f);
            f(I, *d, true);
        }
        Instr::SinkPush(_, v) => f(V, *v, false),
        Instr::SinkPushKeyed(_, k, v) => {
            f(V, *k, false);
            f(V, *v, false);
        }
        Instr::SinkLen(d, _) => f(I, *d, true),
        Instr::SinkGet(d, _, i) => {
            f(I, *i, false);
            f(V, *d, true);
        }

        Instr::OutPush(v) => f(V, *v, false),
        Instr::BatchLoop(bp) => {
            for p in &bp.f_params {
                f(F, *p, false);
            }
            for p in &bp.i_params {
                f(I, *p, false);
            }
            for a in &bp.f_accs {
                f(F, *a, false);
                f(F, *a, true);
            }
            for a in &bp.i_accs {
                f(I, *a, false);
                f(I, *a, true);
            }
        }
        Instr::HaltF(r) => f(F, *r, false),
        Instr::HaltI(r) | Instr::HaltB(r) => f(I, *r, false),
        Instr::HaltV(r) => f(V, *r, false),
    }
}

/// Per-register read/write counts and positions over a whole program.
struct RegFacts {
    reads: std::collections::HashMap<(RegBank, u32), u32>,
    writes: std::collections::HashMap<(RegBank, u32), u32>,
}

fn reg_facts(instrs: &[Instr]) -> RegFacts {
    let mut facts = RegFacts {
        reads: std::collections::HashMap::new(),
        writes: std::collections::HashMap::new(),
    };
    for instr in instrs {
        instr_io(instr, |bank, reg, is_write| {
            let m = if is_write {
                &mut facts.writes
            } else {
                &mut facts.reads
            };
            *m.entry((bank, reg)).or_insert(0) += 1;
        });
    }
    facts
}

/// All branch-target positions in a program (every jump form, including
/// the fused ones).
fn jump_targets(instrs: &[Instr]) -> Vec<(usize, usize)> {
    // (position of the jump, target)
    let mut ts = Vec::new();
    for (q, instr) in instrs.iter().enumerate() {
        match instr {
            Instr::Jump(t) | Instr::JumpIfFalse(_, t) | Instr::JumpIfTrue(_, t) => {
                ts.push((q, *t as usize));
            }
            Instr::BrCmpF { target, .. } | Instr::BrCmpI { target, .. } => {
                ts.push((q, *target as usize));
            }
            Instr::IncJump { target, .. } => ts.push((q, *target as usize)),
            _ => {}
        }
    }
    ts
}

fn retarget(instr: &mut Instr, f: impl Fn(usize) -> usize) {
    match instr {
        Instr::Jump(t) | Instr::JumpIfFalse(_, t) | Instr::JumpIfTrue(_, t) => {
            *t = f(*t as usize) as u32;
        }
        Instr::BrCmpF { target, .. }
        | Instr::BrCmpI { target, .. }
        | Instr::IncJump { target, .. } => {
            *target = f(*target as usize) as u32;
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Loop-invariant constant hoisting.
// ---------------------------------------------------------------------

/// Moves `ConstF`/`ConstI` loads out of loop bodies to the program
/// entry. Returns the number of constants hoisted.
///
/// A constant at position `p` is hoisted when:
///
/// * its destination register has **exactly one writer** in the whole
///   program (so the value is genuinely invariant),
/// * every read of the register sits at a position `> p`, and no jump
///   anywhere targets the span `(p, last_read]` (so no path observes
///   the register before the load would have run),
/// * some back-edge encloses `p` (a jump at `q ≥ p` targeting `t ≤ p`)
///   — hoisting a straight-line constant would only reorder it.
pub fn hoist_loop_invariant_consts(p: &mut Program) -> u32 {
    let facts = reg_facts(&p.instrs);
    let jumps = jump_targets(&p.instrs);

    // Last read position per register, for the skip-over check.
    let mut last_read: std::collections::HashMap<(RegBank, u32), usize> =
        std::collections::HashMap::new();
    for (pos, instr) in p.instrs.iter().enumerate() {
        instr_io(instr, |bank, reg, is_write| {
            if !is_write {
                last_read.insert((bank, reg), pos);
            }
        });
    }
    let mut first_read: std::collections::HashMap<(RegBank, u32), usize> =
        std::collections::HashMap::new();
    for (pos, instr) in p.instrs.iter().enumerate().rev() {
        instr_io(instr, |bank, reg, is_write| {
            if !is_write {
                first_read.insert((bank, reg), pos);
            }
        });
    }

    let mut hoist: Vec<usize> = Vec::new();
    for (pos, instr) in p.instrs.iter().enumerate() {
        let key = match instr {
            Instr::ConstF(d, _) => (RegBank::F, *d),
            Instr::ConstI(d, _) => (RegBank::I, *d),
            _ => continue,
        };
        if facts.writes.get(&key).copied().unwrap_or(0) != 1 {
            continue;
        }
        let (Some(&first), Some(&last)) = (first_read.get(&key), last_read.get(&key)) else {
            continue; // dead constant: leave it for shrink passes
        };
        if first <= pos {
            continue;
        }
        // No jump may land strictly inside (pos, last]: such a path
        // would reach a read without passing the load.
        if jumps.iter().any(|&(_, t)| t > pos && t <= last) {
            continue;
        }
        // Only hoist out of loops: some back-edge must enclose pos.
        if !jumps.iter().any(|&(q, t)| t <= pos && q >= pos) {
            continue;
        }
        hoist.push(pos);
    }
    if hoist.is_empty() {
        return 0;
    }

    let h = hoist.len();
    let mut front: Vec<Instr> = Vec::with_capacity(p.instrs.len());
    for &pos in &hoist {
        front.push(p.instrs[pos].clone());
    }
    let mut rest: Vec<Instr> = Vec::with_capacity(p.instrs.len() - h);
    for (pos, instr) in p.instrs.iter().enumerate() {
        if !hoist.contains(&pos) {
            rest.push(instr.clone());
        }
    }
    front.append(&mut rest);

    // Remap jump targets: a non-hoisted position shifts by (hoisted
    // count) forward minus the hoisted entries before it; a hoisted
    // target redirects to the next surviving instruction (re-running a
    // unique-writer constant early is exactly what we just did anyway).
    let new_pc = |t: usize| -> usize {
        let mut t = t;
        while hoist.binary_search(&t).is_ok() {
            t += 1;
        }
        let before = hoist.partition_point(|&x| x < t);
        h + t - before
    };
    for instr in &mut front {
        retarget(instr, new_pc);
    }
    p.instrs = front;
    p.n_hoisted += h as u32;
    h as u32
}

// ---------------------------------------------------------------------
// Scalar superinstruction fusion.
// ---------------------------------------------------------------------

/// Fuses the hottest adjacent scalar pairs into superinstructions:
/// compare→branch, increment→jump, and multiply→add. Returns the number
/// of pairs fused.
///
/// A pair `(p, p+1)` fuses only when `p+1` is not a jump target (no
/// path may enter the middle of a superinstruction) and, where the pair
/// communicates through a register, that register has exactly one
/// writer and one reader (both inside the pair), so eliding it is
/// unobservable.
pub fn fuse_scalar_pairs(p: &mut Program) -> u32 {
    let facts = reg_facts(&p.instrs);
    let targets: std::collections::HashSet<usize> =
        jump_targets(&p.instrs).into_iter().map(|(_, t)| t).collect();
    let one_use = |bank: RegBank, reg: u32| {
        facts.reads.get(&(bank, reg)).copied().unwrap_or(0) == 1
            && facts.writes.get(&(bank, reg)).copied().unwrap_or(0) == 1
    };

    let instrs = &p.instrs;
    let mut out: Vec<Instr> = Vec::with_capacity(instrs.len());
    // Original position → new position, for retargeting.
    let mut new_pos: Vec<usize> = Vec::with_capacity(instrs.len() + 1);
    let mut fused = 0u32;
    let mut i = 0usize;
    while i < instrs.len() {
        new_pos.push(out.len());
        let next = instrs.get(i + 1);
        let fusable_next = next.is_some() && !targets.contains(&(i + 1));
        let replacement: Option<Instr> = if !fusable_next {
            None
        } else {
            match (&instrs[i], next) {
                (
                    Instr::CmpF(op, d, x, y),
                    Some(Instr::JumpIfFalse(c, t) | Instr::JumpIfTrue(c, t)),
                ) if d == c && one_use(RegBank::I, *d) => Some(Instr::BrCmpF {
                    op: *op,
                    a: *x,
                    b: *y,
                    on_true: matches!(next, Some(Instr::JumpIfTrue(..))),
                    target: *t,
                }),
                (
                    Instr::CmpI(op, d, x, y),
                    Some(Instr::JumpIfFalse(c, t) | Instr::JumpIfTrue(c, t)),
                ) if d == c && d != x && d != y && one_use(RegBank::I, *d) => Some(Instr::BrCmpI {
                    op: *op,
                    a: *x,
                    b: *y,
                    on_true: matches!(next, Some(Instr::JumpIfTrue(..))),
                    target: *t,
                }),
                (Instr::IncI(r), Some(Instr::Jump(t))) => Some(Instr::IncJump {
                    r: *r,
                    target: *t,
                }),
                (Instr::MulF(t1, a, b), Some(Instr::AddF(d, l, r)))
                    if l == t1 && r != t1 && d != t1 && one_use(RegBank::F, *t1) =>
                {
                    Some(Instr::MulAddF(*d, *a, *b, *r))
                }
                (Instr::MulI(t1, a, b), Some(Instr::AddI(d, l, r)))
                    if ((l == t1) != (r == t1)) && d != t1 && one_use(RegBank::I, *t1) =>
                {
                    let c = if l == t1 { *r } else { *l };
                    Some(Instr::MulAddI(*d, *a, *b, c))
                }
                _ => None,
            }
        };
        match replacement {
            Some(instr) => {
                out.push(instr);
                // The swallowed slot maps to the fused instruction.
                new_pos.push(out.len() - 1);
                fused += 1;
                i += 2;
            }
            None => {
                out.push(instrs[i].clone());
                i += 1;
            }
        }
    }
    new_pos.push(out.len());

    if fused == 0 {
        return 0;
    }
    for instr in &mut out {
        retarget(instr, |t| new_pos[t]);
    }
    p.instrs = out;
    p.n_superinstrs += fused;
    fused
}

// ---------------------------------------------------------------------
// Frame shrinking.
// ---------------------------------------------------------------------

/// Recomputes register-bank sizes from actual usage, so frames freed by
/// constant hoisting and pair fusion are not allocated at run time.
pub fn shrink_frames(p: &mut Program) {
    let mut max: [Option<u32>; 3] = [None; 3];
    for instr in &p.instrs {
        instr_io(instr, |bank, reg, _| {
            let k = match bank {
                RegBank::F => 0,
                RegBank::I => 1,
                RegBank::V => 2,
            };
            max[k] = Some(max[k].map_or(reg, |m: u32| m.max(reg)));
        });
    }
    let need = |m: Option<u32>| m.map_or(0, |m| m + 1);
    p.n_fregs = p.n_fregs.min(need(max[0]));
    p.n_iregs = p.n_iregs.min(need(max[1]));
    p.n_vregs = p.n_vregs.min(need(max[2]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{FOp, RedK};

    #[test]
    fn packing_reuses_dead_columns_and_stays_exact() {
        // SSA chain: f0=x; f1=x*x; f2=f1+f1; acc += f2.
        // f0 dies at op 1, f1 at op 2 → f2 can land on a recycled slot.
        let mut bp = BatchProgram {
            src: crate::batch::BatchSrc::Source(0),
            src_lane: Lane::F,
            snd_lane: None,
            window: 0..usize::MAX,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![0],
            i_accs: vec![],
            n_f: 3,
            n_i: 0,
            n_b: 0,
            prologue: vec![],
            tape: vec![
                BOp::Load(Lane::F, 0),
                BOp::BinF(FOp::Mul, 1, 0, 0),
                BOp::BinF(FOp::Add, 2, 1, 1),
                BOp::Red { red: RedK::Sum, lane: Lane::F, acc: 0, val: 2 },
            ],
            fused: None,
            shadow: None,
            div_proofs: Vec::new(),
        };
        let orig = bp.clone();
        let reused = pack_batch_slots(&mut bp);
        assert!(reused >= 1, "expected at least one slot reuse");
        assert!(bp.n_f < orig.n_f);

        // Differential check against the unpacked program.
        let data: Vec<f64> = (0..2500).map(|i| (i as f64) * 0.31 - 180.0).collect();
        let run = |bp: &BatchProgram| {
            let mut f_accs = vec![0.0];
            let mut out = Vec::new();
            crate::batch::run_batch(
                bp,
                crate::batch::BatchData::F(&data),
                None,
                &mut f_accs,
                &mut [],
                &[],
                &[],
                &mut [],
                &[],
                &mut out,
                None,
                &crate::interrupt::Interrupt::none(),
            )
            .unwrap();
            f_accs[0]
        };
        assert_eq!(run(&orig).to_bits(), run(&bp).to_bits());
    }

    #[test]
    fn packing_pins_prologue_slots() {
        // i1 = const 2 (prologue) is read by every chunk's RemI and must
        // keep its column even though its "last read" is mid-tape.
        let mut bp = BatchProgram {
            src: crate::batch::BatchSrc::Source(0),
            src_lane: Lane::I,
            snd_lane: None,
            window: 0..usize::MAX,
            f_params: vec![],
            i_params: vec![],
            f_accs: vec![],
            i_accs: vec![0],
            n_f: 0,
            n_i: 3,
            n_b: 0,
            prologue: vec![BInit::ConstI(1, 2)],
            tape: vec![
                BOp::Load(Lane::I, 0),
                BOp::RemIUnchecked(2, 0, 1),
                BOp::Red { red: RedK::Sum, lane: Lane::I, acc: 0, val: 2 },
            ],
            fused: None,
            shadow: None,
            div_proofs: Vec::new(),
        };
        let orig = bp.clone();
        pack_batch_slots(&mut bp);
        let data: Vec<i64> = (0..2100).collect();
        let run = |bp: &BatchProgram| {
            let mut i_accs = vec![0i64];
            let mut out = Vec::new();
            crate::batch::run_batch(
                bp,
                crate::batch::BatchData::I(&data),
                None,
                &mut [],
                &mut i_accs,
                &[],
                &[],
                &mut [],
                &[],
                &mut out,
                None,
                &crate::interrupt::Interrupt::none(),
            )
            .unwrap();
            i_accs[0]
        };
        assert_eq!(run(&orig), run(&bp));
    }

    #[test]
    fn hoist_moves_loop_constants_to_entry() {
        use steno_expr::Ty;
        // i0 = 0 (induction); loop: i1 = 5; i2 = i0 < i1; brfalse end;
        // inc i0; jump loop. The `ConstI(1, 5)` inside the loop hoists.
        let mut p = Program {
            instrs: vec![
                Instr::ConstI(0, 0),
                Instr::ConstI(1, 5),
                Instr::CmpI(crate::instr::CmpOp::Lt, 2, 0, 1),
                Instr::JumpIfFalse(2, 6),
                Instr::IncI(0),
                Instr::Jump(1),
                Instr::HaltI(0),
            ],
            n_fregs: 0,
            n_iregs: 3,
            n_vregs: 0,
            n_sinks: 0,
            n_batch: 0,
            batch_fallbacks: vec![],
            n_guards_dropped: 0,
            loop_plans: vec![],
            fused_kernels: vec![],
            n_slots_reused: 0,
            n_hoisted: 0,
            n_superinstrs: 0,
            source_names: vec![],
            udf_names: vec![],
            udf_sigs: vec![],
            result_ty: Ty::I64,
            shadow: None,
        };
        let hoisted = hoist_loop_invariant_consts(&mut p);
        assert_eq!(hoisted, 1);
        // The constant now leads the program; the loop still terminates
        // with the same value.
        assert_eq!(p.instrs[0], Instr::ConstI(1, 5));
        let bindings = crate::prepared::Bindings {
            sources: vec![],
            udfs: vec![],
        };
        let v = crate::exec::run_program(&p, &bindings, &crate::Interrupt::none()).unwrap();
        assert_eq!(v, steno_expr::Value::I64(5));
    }

    #[test]
    fn pair_fusion_preserves_loop_semantics() {
        use steno_expr::Ty;
        // Same counting loop; after fusion the body is
        // BrCmpI + IncJump and still counts to 5.
        let mut p = Program {
            instrs: vec![
                Instr::ConstI(0, 0),
                Instr::ConstI(1, 5),
                Instr::CmpI(crate::instr::CmpOp::Lt, 2, 0, 1),
                Instr::JumpIfFalse(2, 6),
                Instr::IncI(0),
                Instr::Jump(2),
                Instr::HaltI(0),
            ],
            n_fregs: 0,
            n_iregs: 3,
            n_vregs: 0,
            n_sinks: 0,
            n_batch: 0,
            batch_fallbacks: vec![],
            n_guards_dropped: 0,
            loop_plans: vec![],
            fused_kernels: vec![],
            n_slots_reused: 0,
            n_hoisted: 0,
            n_superinstrs: 0,
            source_names: vec![],
            udf_names: vec![],
            udf_sigs: vec![],
            result_ty: Ty::I64,
            shadow: None,
        };
        let fused = fuse_scalar_pairs(&mut p);
        assert_eq!(fused, 2, "cmp+branch and inc+jump should both fuse");
        shrink_frames(&mut p);
        assert_eq!(p.n_iregs, 2, "the branch flag register is gone");
        let bindings = crate::prepared::Bindings {
            sources: vec![],
            udfs: vec![],
        };
        let v = crate::exec::run_program(&p, &bindings, &crate::Interrupt::none()).unwrap();
        assert_eq!(v, steno_expr::Value::I64(5));
    }
}
