//! The bytecode interpreter.
//!
//! A single tight dispatch loop over unboxed register banks. Per element
//! of a simple numeric query this executes ~7 enum-dispatched
//! instructions — no virtual calls, no iterator state machines — which is
//! what makes the Steno-optimized path competitive with the loop a
//! programmer would write by hand (§7.1).

use std::collections::{HashMap, HashSet};
use std::fmt;

use steno_expr::Value;
use steno_obs::{SpanGuard, SpanId, Tracer};

use crate::instr::{CmpOp, Instr, Program};
use crate::interrupt::{Interrupt, POLL_STRIDE};
use crate::prepared::{Bindings, PreparedSource};
use crate::instr::SKey;
use crate::profile::QueryProfile;
use crate::sink::{ScalarKey, SinkRt};

/// A runtime error during bytecode execution.
#[derive(Clone, Debug, PartialEq)]
pub enum VmError {
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Row or sequence index out of range.
    IndexOutOfBounds {
        /// The index used.
        index: i64,
        /// The length of the indexed value.
        len: usize,
    },
    /// A boxed value had the wrong shape for the instruction.
    Shape(String),
    /// A source or UDF name could not be resolved at bind time.
    MissingBinding(String),
    /// Execution fell off the end of the program.
    PcOutOfRange,
    /// Execution was cooperatively cancelled via an [`Interrupt`] probe
    /// before producing a result.
    Cancelled,
    /// Execution ran past the [`Interrupt`] deadline and was aborted at
    /// the next poll point.
    DeadlineExceeded,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::DivisionByZero => write!(f, "integer division by zero"),
            VmError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            VmError::Shape(msg) => write!(f, "value shape mismatch: {msg}"),
            VmError::MissingBinding(what) => write!(f, "missing binding for {what}"),
            VmError::PcOutOfRange => write!(f, "program counter out of range"),
            VmError::Cancelled => write!(f, "query cancelled"),
            VmError::DeadlineExceeded => write!(f, "query deadline exceeded"),
        }
    }
}

impl std::error::Error for VmError {}

fn shape(msg: &str) -> VmError {
    VmError::Shape(msg.into())
}

#[inline]
fn idx_check(index: i64, len: usize) -> Result<usize, VmError> {
    if index < 0 || index as usize >= len {
        Err(VmError::IndexOutOfBounds { index, len })
    } else {
        Ok(index as usize)
    }
}

/// Executes a program against resolved bindings, returning its result,
/// polling `interrupt` cooperatively: the scalar dispatch loop checks it
/// at loop back-edges (amortized over [`POLL_STRIDE`] elements) and the
/// batch engine checks it at every 1024-lane batch boundary, so a
/// cancelled or past-deadline query aborts in bounded time instead of
/// running to completion. An inert interrupt costs two `Option` checks
/// per poll point.
///
/// # Errors
///
/// Returns a [`VmError`] for data-dependent failures (division by zero,
/// out-of-range indexing) or shape mismatches (only possible with
/// hand-assembled programs), plus [`VmError::Cancelled`] and
/// [`VmError::DeadlineExceeded`] once `interrupt` fires.
pub fn run_program(
    p: &Program,
    bindings: &Bindings,
    interrupt: &Interrupt,
) -> Result<Value, VmError> {
    let mut unused = QueryProfile::default();
    run_impl::<false>(p, bindings, &mut unused, interrupt, &Tracer::disabled(), None)
}

/// As [`run_program`], additionally filling a [`QueryProfile`] with
/// per-operator element counts and wall time, and recording a `vm.run`
/// root span plus one `vm.loop` span per `BatchLoop`
/// instruction into `tracer` (annotated with tier, element counts, and
/// selection density). This is a separate monomorphization of the same
/// dispatch loop, so [`run_program`] compiles every profiling branch out
/// and pays nothing for the feature's existence. Loop spans open
/// *before* the loop first polls the interrupt, so a query aborted by a
/// deadline still records the loop it died in. With a disabled tracer
/// this is a plain profiled run.
///
/// # Errors
///
/// As [`run_program`].
pub fn run_program_traced(
    p: &Program,
    bindings: &Bindings,
    interrupt: &Interrupt,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(Value, QueryProfile), VmError> {
    let mut prof = QueryProfile::default();
    let start = std::time::Instant::now();
    let mut root = tracer.span("vm.run", parent);
    let result = run_impl::<true>(p, bindings, &mut prof, interrupt, tracer, root.id());
    prof.wall = start.elapsed();
    root.note("scalar_instrs", prof.scalar_instrs);
    root.note("out_elements", prof.out_elements);
    if prof.batch_loops == 0 {
        root.note("tier", "scalar");
    }
    drop(root);
    Ok((result?, prof))
}

fn run_impl<const PROFILE: bool>(
    p: &Program,
    bindings: &Bindings,
    prof: &mut QueryProfile,
    interrupt: &Interrupt,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Value, VmError> {
    // Back-edge poll budget: a full interrupt check (clock read + probe
    // call) runs once per POLL_STRIDE backward jumps.
    let mut intr_budget: u32 = POLL_STRIDE;
    let mut fregs = vec![0.0f64; p.n_fregs as usize];
    let mut iregs = vec![0i64; p.n_iregs as usize];
    let mut vregs = vec![Value::I64(0); p.n_vregs as usize];
    let mut sinks: Vec<SinkRt> = (0..p.n_sinks).map(|_| SinkRt::Empty).collect();
    let mut frozen: Vec<Vec<Value>> = (0..p.n_sinks).map(|_| Vec::new()).collect();
    let mut out: Vec<Value> = Vec::new();

    // Scratch buffer for UDF arguments, reused across calls so the
    // dispatch loop does not allocate per element.
    let mut udf_args: Vec<Value> = Vec::new();

    let instrs = &p.instrs;
    let mut pc = 0usize;
    loop {
        let instr = instrs.get(pc).ok_or(VmError::PcOutOfRange)?;
        pc += 1;
        if PROFILE {
            prof.scalar_instrs += 1;
        }
        match instr {
            Instr::Jump(t) => {
                let target = *t as usize;
                // Loop back-edges are the scalar tier's cooperative
                // poll points (pc already points past this instruction,
                // so any smaller target is a back-edge).
                if target < pc {
                    interrupt.poll(&mut intr_budget)?;
                }
                pc = target;
            }
            Instr::JumpIfFalse(c, t) => {
                if iregs[*c as usize] == 0 {
                    let target = *t as usize;
                    if target < pc {
                        interrupt.poll(&mut intr_budget)?;
                    }
                    pc = target;
                }
            }
            Instr::JumpIfTrue(c, t) => {
                if iregs[*c as usize] != 0 {
                    let target = *t as usize;
                    if target < pc {
                        interrupt.poll(&mut intr_budget)?;
                    }
                    pc = target;
                }
            }
            Instr::BrCmpF {
                op,
                a,
                b,
                on_true,
                target,
            } => {
                let (x, y) = (fregs[*a as usize], fregs[*b as usize]);
                let taken = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                };
                if taken == *on_true {
                    let target = *target as usize;
                    if target < pc {
                        interrupt.poll(&mut intr_budget)?;
                    }
                    pc = target;
                }
            }
            Instr::BrCmpI {
                op,
                a,
                b,
                on_true,
                target,
            } => {
                let (x, y) = (iregs[*a as usize], iregs[*b as usize]);
                let taken = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                };
                if taken == *on_true {
                    let target = *target as usize;
                    if target < pc {
                        interrupt.poll(&mut intr_budget)?;
                    }
                    pc = target;
                }
            }
            Instr::IncJump { r, target } => {
                iregs[*r as usize] += 1;
                let target = *target as usize;
                if target < pc {
                    interrupt.poll(&mut intr_budget)?;
                }
                pc = target;
            }
            Instr::MulAddF(d, a, b, c) => {
                fregs[*d as usize] = fregs[*a as usize] * fregs[*b as usize] + fregs[*c as usize]
            }
            Instr::MulAddI(d, a, b, c) => {
                iregs[*d as usize] = iregs[*a as usize]
                    .wrapping_mul(iregs[*b as usize])
                    .wrapping_add(iregs[*c as usize])
            }
            Instr::ConstF(d, x) => fregs[*d as usize] = *x,
            Instr::ConstI(d, x) => iregs[*d as usize] = *x,
            Instr::ConstV(d, v) => vregs[*d as usize] = v.clone(),
            Instr::MovF(d, s) => fregs[*d as usize] = fregs[*s as usize],
            Instr::MovI(d, s) => iregs[*d as usize] = iregs[*s as usize],
            Instr::MovV(d, s) => vregs[*d as usize] = vregs[*s as usize].clone(),

            Instr::AddF(d, a, b) => fregs[*d as usize] = fregs[*a as usize] + fregs[*b as usize],
            Instr::SubF(d, a, b) => fregs[*d as usize] = fregs[*a as usize] - fregs[*b as usize],
            Instr::MulF(d, a, b) => fregs[*d as usize] = fregs[*a as usize] * fregs[*b as usize],
            Instr::DivF(d, a, b) => fregs[*d as usize] = fregs[*a as usize] / fregs[*b as usize],
            Instr::RemF(d, a, b) => fregs[*d as usize] = fregs[*a as usize] % fregs[*b as usize],
            Instr::NegF(d, a) => fregs[*d as usize] = -fregs[*a as usize],
            Instr::AbsF(d, a) => fregs[*d as usize] = fregs[*a as usize].abs(),
            Instr::SqrtF(d, a) => fregs[*d as usize] = fregs[*a as usize].sqrt(),
            Instr::FloorF(d, a) => fregs[*d as usize] = fregs[*a as usize].floor(),
            Instr::MinF(d, a, b) => {
                fregs[*d as usize] = fregs[*a as usize].min(fregs[*b as usize])
            }
            Instr::MaxF(d, a, b) => {
                fregs[*d as usize] = fregs[*a as usize].max(fregs[*b as usize])
            }

            Instr::AddI(d, a, b) => {
                iregs[*d as usize] = iregs[*a as usize].wrapping_add(iregs[*b as usize])
            }
            Instr::SubI(d, a, b) => {
                iregs[*d as usize] = iregs[*a as usize].wrapping_sub(iregs[*b as usize])
            }
            Instr::MulI(d, a, b) => {
                iregs[*d as usize] = iregs[*a as usize].wrapping_mul(iregs[*b as usize])
            }
            Instr::DivI(d, a, b) => {
                let rhs = iregs[*b as usize];
                if rhs == 0 {
                    return Err(VmError::DivisionByZero);
                }
                iregs[*d as usize] = iregs[*a as usize].wrapping_div(rhs);
            }
            Instr::RemI(d, a, b) => {
                let rhs = iregs[*b as usize];
                if rhs == 0 {
                    return Err(VmError::DivisionByZero);
                }
                iregs[*d as usize] = iregs[*a as usize].wrapping_rem(rhs);
            }
            Instr::NegI(d, a) => iregs[*d as usize] = iregs[*a as usize].wrapping_neg(),
            Instr::IncI(r) => iregs[*r as usize] += 1,
            Instr::AbsI(d, a) => iregs[*d as usize] = iregs[*a as usize].wrapping_abs(),
            Instr::MinI(d, a, b) => {
                iregs[*d as usize] = iregs[*a as usize].min(iregs[*b as usize])
            }
            Instr::MaxI(d, a, b) => {
                iregs[*d as usize] = iregs[*a as usize].max(iregs[*b as usize])
            }
            Instr::NotB(d, a) => iregs[*d as usize] = i64::from(iregs[*a as usize] == 0),

            Instr::EqF(d, a, b) => {
                iregs[*d as usize] = i64::from(fregs[*a as usize] == fregs[*b as usize])
            }
            Instr::NeF(d, a, b) => {
                iregs[*d as usize] = i64::from(fregs[*a as usize] != fregs[*b as usize])
            }
            Instr::LtF(d, a, b) => {
                iregs[*d as usize] = i64::from(fregs[*a as usize] < fregs[*b as usize])
            }
            Instr::LeF(d, a, b) => {
                iregs[*d as usize] = i64::from(fregs[*a as usize] <= fregs[*b as usize])
            }
            Instr::GtF(d, a, b) => {
                iregs[*d as usize] = i64::from(fregs[*a as usize] > fregs[*b as usize])
            }
            Instr::GeF(d, a, b) => {
                iregs[*d as usize] = i64::from(fregs[*a as usize] >= fregs[*b as usize])
            }
            Instr::EqI(d, a, b) => {
                iregs[*d as usize] = i64::from(iregs[*a as usize] == iregs[*b as usize])
            }
            Instr::NeI(d, a, b) => {
                iregs[*d as usize] = i64::from(iregs[*a as usize] != iregs[*b as usize])
            }
            Instr::LtI(d, a, b) => {
                iregs[*d as usize] = i64::from(iregs[*a as usize] < iregs[*b as usize])
            }
            Instr::LeI(d, a, b) => {
                iregs[*d as usize] = i64::from(iregs[*a as usize] <= iregs[*b as usize])
            }
            Instr::GtI(d, a, b) => {
                iregs[*d as usize] = i64::from(iregs[*a as usize] > iregs[*b as usize])
            }
            Instr::GeI(d, a, b) => {
                iregs[*d as usize] = i64::from(iregs[*a as usize] >= iregs[*b as usize])
            }
            Instr::EqV(d, a, b) => {
                iregs[*d as usize] = i64::from(vregs[*a as usize] == vregs[*b as usize])
            }
            Instr::CmpV(d, a, b) => {
                iregs[*d as usize] = match vregs[*a as usize].cmp_total(&vregs[*b as usize]) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }
            }

            Instr::F2I(d, a) => iregs[*d as usize] = fregs[*a as usize] as i64,
            Instr::I2F(d, a) => fregs[*d as usize] = iregs[*a as usize] as f64,
            Instr::FToV(d, a) => vregs[*d as usize] = Value::F64(fregs[*a as usize]),
            Instr::IToV(d, a) => vregs[*d as usize] = Value::I64(iregs[*a as usize]),
            Instr::BToV(d, a) => vregs[*d as usize] = Value::Bool(iregs[*a as usize] != 0),
            Instr::VToF(d, a) => {
                fregs[*d as usize] = vregs[*a as usize]
                    .as_f64()
                    .ok_or_else(|| shape("expected a number"))?
            }
            Instr::VToI(d, a) => {
                iregs[*d as usize] = vregs[*a as usize]
                    .as_i64()
                    .ok_or_else(|| shape("expected an integer"))?
            }
            Instr::VToB(d, a) => {
                iregs[*d as usize] = i64::from(
                    vregs[*a as usize]
                        .as_bool()
                        .ok_or_else(|| shape("expected a boolean"))?,
                )
            }

            Instr::MkPair(d, a, b) => {
                vregs[*d as usize] =
                    Value::pair(vregs[*a as usize].clone(), vregs[*b as usize].clone())
            }
            Instr::Field0(d, s) => {
                let (a, _) = vregs[*s as usize]
                    .as_pair()
                    .ok_or_else(|| shape("expected a pair"))?;
                let a = a.clone();
                vregs[*d as usize] = a;
            }
            Instr::Field1(d, s) => {
                let (_, b) = vregs[*s as usize]
                    .as_pair()
                    .ok_or_else(|| shape("expected a pair"))?;
                let b = b.clone();
                vregs[*d as usize] = b;
            }
            Instr::RowIdx(d, row, i) => {
                let r = vregs[*row as usize]
                    .as_row()
                    .ok_or_else(|| shape("expected a row"))?;
                let ix = idx_check(iregs[*i as usize], r.len())?;
                fregs[*d as usize] = r[ix];
            }
            Instr::RowLen(d, row) => {
                let r = vregs[*row as usize]
                    .as_row()
                    .ok_or_else(|| shape("expected a row"))?;
                iregs[*d as usize] = r.len() as i64;
            }
            Instr::SeqLen(d, s) => {
                iregs[*d as usize] = match &vregs[*s as usize] {
                    Value::Seq(v) => v.len() as i64,
                    Value::Row(r) => r.len() as i64,
                    _ => return Err(shape("expected a sequence")),
                }
            }
            Instr::SeqIdx(d, s, i) => {
                let v = match &vregs[*s as usize] {
                    Value::Seq(v) => {
                        let ix = idx_check(iregs[*i as usize], v.len())?;
                        v[ix].clone()
                    }
                    Value::Row(r) => {
                        let ix = idx_check(iregs[*i as usize], r.len())?;
                        Value::F64(r[ix])
                    }
                    _ => return Err(shape("expected a sequence")),
                };
                vregs[*d as usize] = v;
            }

            Instr::CallUdf { dst, udf, args } => {
                if PROFILE {
                    prof.udf_calls += 1;
                }
                udf_args.clear();
                for a in args {
                    udf_args.push(vregs[*a as usize].clone());
                }
                vregs[*dst as usize] = (bindings.udfs[*udf as usize])(&udf_args);
            }

            Instr::SrcLen(d, s) => {
                iregs[*d as usize] = bindings.sources[*s as usize].len() as i64
            }
            Instr::SrcGetF(d, s, i) => {
                let PreparedSource::F64(v) = &bindings.sources[*s as usize] else {
                    return Err(shape("source is not f64"));
                };
                if PROFILE {
                    prof.src_reads += 1;
                }
                fregs[*d as usize] = v[iregs[*i as usize] as usize];
            }
            Instr::SrcGetI(d, s, i) => {
                let PreparedSource::I64(v) = &bindings.sources[*s as usize] else {
                    return Err(shape("source is not i64"));
                };
                if PROFILE {
                    prof.src_reads += 1;
                }
                iregs[*d as usize] = v[iregs[*i as usize] as usize];
            }
            Instr::SrcGetB(d, s, i) => {
                let PreparedSource::Bool(v) = &bindings.sources[*s as usize] else {
                    return Err(shape("source is not bool"));
                };
                if PROFILE {
                    prof.src_reads += 1;
                }
                iregs[*d as usize] = i64::from(v[iregs[*i as usize] as usize]);
            }
            Instr::SrcGetV(d, s, i) => {
                let PreparedSource::Values(v) = &bindings.sources[*s as usize] else {
                    return Err(shape("source is not boxed"));
                };
                if PROFILE {
                    prof.src_reads += 1;
                }
                vregs[*d as usize] = v[iregs[*i as usize] as usize].clone();
            }

            Instr::SinkNewGroup(s) => {
                sinks[*s as usize] = SinkRt::Group {
                    index: HashMap::new(),
                    entries: Vec::new(),
                }
            }
            Instr::SinkNewGroupAggV(s, d) => {
                sinks[*s as usize] = SinkRt::GroupAggV {
                    index: HashMap::new(),
                    entries: Vec::new(),
                    default: vregs[*d as usize].clone(),
                    last: 0,
                }
            }
            Instr::SinkNewGroupAggF(s, d) => {
                sinks[*s as usize] = SinkRt::GroupAggF {
                    index: HashMap::new(),
                    entries: Vec::new(),
                    default: fregs[*d as usize],
                    last: 0,
                }
            }
            Instr::SinkNewGroupAggI(s, d) => {
                sinks[*s as usize] = SinkRt::GroupAggI {
                    index: HashMap::new(),
                    entries: Vec::new(),
                    default: iregs[*d as usize],
                    last: 0,
                }
            }
            Instr::SinkNewGroupAggSF(s, d) => {
                sinks[*s as usize] = SinkRt::GroupAggSF {
                    index: HashMap::default(),
                    entries: Vec::new(),
                    default: fregs[*d as usize],
                    last: 0,
                }
            }
            Instr::SinkNewGroupAggSI(s, d) => {
                sinks[*s as usize] = SinkRt::GroupAggSI {
                    index: HashMap::default(),
                    entries: Vec::new(),
                    default: iregs[*d as usize],
                    last: 0,
                }
            }
            Instr::SinkNewSorted(s, desc) => {
                sinks[*s as usize] = SinkRt::Sorted {
                    items: Vec::new(),
                    descending: *desc,
                }
            }
            Instr::SinkNewDistinct(s) => {
                sinks[*s as usize] = SinkRt::Distinct {
                    seen: HashSet::new(),
                    items: Vec::new(),
                }
            }
            Instr::SinkNewVec(s) => sinks[*s as usize] = SinkRt::Vec { items: Vec::new() },
            Instr::GroupPut(s, k, v) => {
                if PROFILE {
                    prof.sink_pushes += 1;
                }
                let SinkRt::Group { index, entries } = &mut sinks[*s as usize] else {
                    return Err(shape("sink is not a group"));
                };
                let key = &vregs[*k as usize];
                // One key-image computation per element, not two.
                let slot = *index.entry(key.key()).or_insert_with(|| {
                    entries.push((key.clone(), Vec::new()));
                    entries.len() - 1
                });
                entries[slot].1.push(vregs[*v as usize].clone());
            }
            Instr::GroupAccLoadF(s, d, k) => {
                let SinkRt::GroupAggF {
                    index,
                    entries,
                    default,
                    last,
                } = &mut sinks[*s as usize]
                else {
                    return Err(shape("sink is not an f64 grouped aggregate"));
                };
                let key = &vregs[*k as usize];
                let slot = *index.entry(key.key()).or_insert_with(|| {
                    entries.push((key.clone(), *default));
                    entries.len() - 1
                });
                *last = slot;
                fregs[*d as usize] = entries[slot].1;
            }
            Instr::GroupAccStoreF(s, r) => {
                let SinkRt::GroupAggF { entries, last, .. } = &mut sinks[*s as usize] else {
                    return Err(shape("sink is not an f64 grouped aggregate"));
                };
                entries[*last].1 = fregs[*r as usize];
            }
            Instr::GroupAccLoadI(s, d, k) => {
                let SinkRt::GroupAggI {
                    index,
                    entries,
                    default,
                    last,
                } = &mut sinks[*s as usize]
                else {
                    return Err(shape("sink is not an i64 grouped aggregate"));
                };
                let key = &vregs[*k as usize];
                let slot = *index.entry(key.key()).or_insert_with(|| {
                    entries.push((key.clone(), *default));
                    entries.len() - 1
                });
                *last = slot;
                iregs[*d as usize] = entries[slot].1;
            }
            Instr::GroupAccStoreI(s, r) => {
                let SinkRt::GroupAggI { entries, last, .. } = &mut sinks[*s as usize] else {
                    return Err(shape("sink is not an i64 grouped aggregate"));
                };
                entries[*last].1 = iregs[*r as usize];
            }
            Instr::GroupAccLoadV(s, d, k) => {
                let SinkRt::GroupAggV {
                    index,
                    entries,
                    default,
                    last,
                } = &mut sinks[*s as usize]
                else {
                    return Err(shape("sink is not a grouped aggregate"));
                };
                let key = &vregs[*k as usize];
                let slot = *index.entry(key.key()).or_insert_with(|| {
                    entries.push((key.clone(), default.clone()));
                    entries.len() - 1
                });
                *last = slot;
                vregs[*d as usize] = entries[slot].1.clone();
            }
            Instr::GroupAccStoreV(s, r) => {
                let SinkRt::GroupAggV { entries, last, .. } = &mut sinks[*s as usize] else {
                    return Err(shape("sink is not a grouped aggregate"));
                };
                entries[*last].1 = vregs[*r as usize].clone();
            }
            Instr::GroupAccLoadSF(s, d, k) => {
                let key = match k {
                    SKey::F(r) => ScalarKey::F(fregs[*r as usize]),
                    SKey::I(r) => ScalarKey::I(iregs[*r as usize]),
                    SKey::B(r) => ScalarKey::B(iregs[*r as usize] != 0),
                };
                let SinkRt::GroupAggSF {
                    index,
                    entries,
                    default,
                    last,
                } = &mut sinks[*s as usize]
                else {
                    return Err(shape("sink is not a scalar f64 grouped aggregate"));
                };
                let slot = *index.entry(key.bits()).or_insert_with(|| {
                    entries.push((key, *default));
                    entries.len() - 1
                });
                *last = slot;
                fregs[*d as usize] = entries[slot].1;
            }
            Instr::GroupAccStoreSF(s, r) => {
                let SinkRt::GroupAggSF { entries, last, .. } = &mut sinks[*s as usize] else {
                    return Err(shape("sink is not a scalar f64 grouped aggregate"));
                };
                entries[*last].1 = fregs[*r as usize];
            }
            Instr::GroupAccLoadSI(s, d, k) => {
                let key = match k {
                    SKey::F(r) => ScalarKey::F(fregs[*r as usize]),
                    SKey::I(r) => ScalarKey::I(iregs[*r as usize]),
                    SKey::B(r) => ScalarKey::B(iregs[*r as usize] != 0),
                };
                let SinkRt::GroupAggSI {
                    index,
                    entries,
                    default,
                    last,
                } = &mut sinks[*s as usize]
                else {
                    return Err(shape("sink is not a scalar i64 grouped aggregate"));
                };
                let slot = *index.entry(key.bits()).or_insert_with(|| {
                    entries.push((key, *default));
                    entries.len() - 1
                });
                *last = slot;
                iregs[*d as usize] = entries[slot].1;
            }
            Instr::GroupAccStoreSI(s, r) => {
                let SinkRt::GroupAggSI { entries, last, .. } = &mut sinks[*s as usize] else {
                    return Err(shape("sink is not a scalar i64 grouped aggregate"));
                };
                entries[*last].1 = iregs[*r as usize];
            }
            Instr::SinkPush(s, v) => {
                if PROFILE {
                    prof.sink_pushes += 1;
                }
                match &mut sinks[*s as usize] {
                    SinkRt::Vec { items } => items.push(vregs[*v as usize].clone()),
                    SinkRt::Distinct { seen, items } => {
                        let value = &vregs[*v as usize];
                        if seen.insert(value.key()) {
                            items.push(value.clone());
                        }
                    }
                    _ => return Err(shape("sink is not a buffer")),
                }
            }
            Instr::SinkPushKeyed(s, k, v) => {
                if PROFILE {
                    prof.sink_pushes += 1;
                }
                let SinkRt::Sorted { items, .. } = &mut sinks[*s as usize] else {
                    return Err(shape("sink is not sorted"));
                };
                items.push((vregs[*k as usize].clone(), vregs[*v as usize].clone()));
            }
            Instr::SinkSeal(s) => {
                let SinkRt::Sorted { items, descending } = &mut sinks[*s as usize] else {
                    return Err(shape("sink is not sorted"));
                };
                if *descending {
                    items.sort_by(|(ka, _), (kb, _)| kb.cmp_total(ka));
                } else {
                    items.sort_by(|(ka, _), (kb, _)| ka.cmp_total(kb));
                }
            }
            Instr::SinkFreeze(s) => {
                frozen[*s as usize] = sinks[*s as usize].freeze();
            }
            Instr::SinkLen(d, s) => iregs[*d as usize] = frozen[*s as usize].len() as i64,
            Instr::SinkGet(d, s, i) => {
                vregs[*d as usize] = frozen[*s as usize][iregs[*i as usize] as usize].clone()
            }

            Instr::BatchLoop(bp) => {
                use crate::batch::{BatchData, Lane};
                let data = match (&bindings.sources[bp.src as usize], bp.src_lane) {
                    (PreparedSource::F64(v), Lane::F) => BatchData::F(v.as_slice()),
                    (PreparedSource::I64(v), Lane::I) => BatchData::I(v.as_slice()),
                    (PreparedSource::Bool(v), Lane::B) => BatchData::B(v.as_slice()),
                    _ => return Err(shape("batch source lane mismatch")),
                };
                let mut f_accs: Vec<f64> =
                    bp.f_accs.iter().map(|r| fregs[*r as usize]).collect();
                let mut i_accs: Vec<i64> =
                    bp.i_accs.iter().map(|r| iregs[*r as usize]).collect();
                let f_params: Vec<f64> =
                    bp.f_params.iter().map(|r| fregs[*r as usize]).collect();
                let i_params: Vec<i64> =
                    bp.i_params.iter().map(|r| iregs[*r as usize]).collect();
                if PROFILE {
                    prof.batch_loops += 1;
                }
                // Span opens before run_batch (which polls the
                // interrupt per batch), so aborted loops still record.
                let mut lspan = if PROFILE {
                    tracer.span("vm.loop", parent)
                } else {
                    SpanGuard::disabled()
                };
                let t0 = if PROFILE {
                    Some(std::time::Instant::now())
                } else {
                    None
                };
                let (batches0, in0, sel0) =
                    (prof.batches, prof.batch_elements_in, prof.batch_elements_selected);
                let out_before = out.len();
                let batch_result = crate::batch::run_batch(
                    bp,
                    data,
                    &mut f_accs,
                    &mut i_accs,
                    &f_params,
                    &i_params,
                    &mut sinks,
                    &mut out,
                    if PROFILE { Some(prof) } else { None },
                    interrupt,
                );
                if PROFILE {
                    let elements_in = prof.batch_elements_in - in0;
                    let selected = prof.batch_elements_selected - sel0;
                    lspan.note("tier", "vectorized");
                    lspan.note("batches", prof.batches - batches0);
                    lspan.note("elements", elements_in);
                    lspan.note("selected", selected);
                    if elements_in > 0 {
                        lspan.note("density", selected as f64 / elements_in as f64);
                    }
                    if let Some(t0) = t0 {
                        prof.loop_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
                drop(lspan);
                batch_result?;
                if PROFILE {
                    prof.out_elements += (out.len() - out_before) as u64;
                }
                for (i, r) in bp.f_accs.iter().enumerate() {
                    fregs[*r as usize] = f_accs[i];
                }
                for (i, r) in bp.i_accs.iter().enumerate() {
                    iregs[*r as usize] = i_accs[i];
                }
            }
            Instr::OutPush(v) => {
                if PROFILE {
                    prof.out_elements += 1;
                }
                out.push(vregs[*v as usize].clone());
            }
            Instr::HaltF(r) => return Ok(Value::F64(fregs[*r as usize])),
            Instr::HaltI(r) => return Ok(Value::I64(iregs[*r as usize])),
            Instr::HaltB(r) => return Ok(Value::Bool(iregs[*r as usize] != 0)),
            Instr::HaltV(r) => {
                // Move, don't clone: the register bank dies here anyway.
                return Ok(std::mem::replace(&mut vregs[*r as usize], Value::I64(0)));
            }
            Instr::HaltOut => return Ok(Value::seq(std::mem::take(&mut out))),
        }
    }
}
