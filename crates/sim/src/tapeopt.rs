//! Tape backend optimizer: rewrites the flat [`Instr`] tape after lowering
//! and before execution. Every compiled engine runs it, as one
//! straight-line pipeline in which each step runs once:
//!
//! 1. **Constant canonicalization** — every narrow constant operand is read
//!    through the slot of lowest index holding the same value
//!    ([`SlotFacts::canon`]), so equal literals lowered into separate slots
//!    become one operand.
//! 2. **Constant strength reduction** — operations with a constant operand
//!    collapse to cheaper forms (`And` with a constant becomes `CopyMask`,
//!    variable shifts by a constant amount become immediate shifts, a `Mux`
//!    with a constant select becomes a copy of the taken arm).
//! 3. **Superinstruction fusion** — single-reader producer/consumer pairs
//!    merge into fused opcodes: `MulS`/`MulU` feeding an `Add` become
//!    [`Instr::MacS`]/[`Instr::MacU`], a comparison feeding a `MuxN`
//!    becomes [`Instr::SelN`], a `Concat` of two slices of one source
//!    becomes a single masked [`Instr::SliceN`] window, and mask/shift
//!    chains combine.
//! 4. **Partition** into components and parts (see below).
//! 5. **Reallocation** of the slot stores by live range (see below).
//!
//! There is no tape-level common-subexpression elimination, copy
//! forwarding or dead-code elimination. Every measurement and the IEEE 1180
//! run build their engines from netlists that `hc_rtl::passes::optimize`
//! has already hash-consed, folded and swept, and on those the tape-level
//! versions found nothing to do on any shipped design. A raw netlist runs
//! correctly but keeps its recomputations, copies and dead values.
//!
//! The tape is **partitioned** (see [`partition`]) into *components* —
//! connected combinational cones, joined only through temp slots — and
//! each component into *parts*: an instruction whose result has one tape
//! reader joins that reader's part, so a part is roughly a maximal
//! fanout-free cone. The tape is laid out part by part, components as runs
//! of parts in topological order. Each part records its *boundary slots*
//! (the narrow slots later parts read), the parts reading each, and the
//! registers whose commit inputs it defines. That lets the engines work
//! change-driven:
//!
//! * The scalar engines ([`crate::CompiledSimulator`] and the
//!   [`crate::NativeSimulator`] JIT) keep a dirty bit per part. A part runs
//!   only when a source (input, register, memory) or a boundary slot it
//!   reads changed; after it runs, a boundary slot whose value changed marks
//!   its readers dirty. Their commit visits only the registers whose
//!   `next`/`en`/`reset` may have changed since their last commit.
//! * The batched engines keep a dirty bit per component, reading the same
//!   source → part lists through the part → component map.
//!
//! Then the narrow slot store is **reallocated by live range** so fused
//! slots are reclaimed and temps share a dense, cache-resident working
//! set; a slot read outside its part (boundary slots, and slots register and
//! memory plans or ports read) keeps a physical slot of its own. Reallocation
//! preserves the structural invariant the engines rely on: every
//! instruction's destination slot index is strictly greater than all its
//! operand slot indices in the same store.

use std::collections::{BTreeSet, HashMap};

use crate::lower::{mask, CmpKind, GenericOp, Instr, Lists, Loc, Lowered, Segment};

/// Accounting from the tape backend optimizer, mirroring the IR pipeline's
/// `OptReport`. `cones_skipped` is a *runtime* counter filled in by the
/// engines' report accessors; it is zero in the static report attached to
/// the lowered tape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TapeOptReport {
    /// Tape length as lowered, before any rewriting.
    pub instrs_pre: usize,
    /// Tape length the engines actually replay.
    pub instrs_post: usize,
    /// Instructions eliminated by superinstruction fusion.
    pub fused: usize,
    /// Constant-operand operations rewritten to cheaper forms.
    pub strength_reduced: usize,
    /// Narrow (`u64`) slot count before live-range reallocation.
    pub narrow_slots_pre: usize,
    /// Narrow slot count after reallocation (includes one scratch slot).
    pub narrow_slots_post: usize,
    /// Wide (`Bits`) slot count before compaction.
    pub wide_slots_pre: usize,
    /// Wide slot count after compaction.
    pub wide_slots_post: usize,
    /// Number of combinational components (connected cones) the tape was
    /// partitioned into: the batched engines' unit of re-evaluation.
    pub cones: usize,
    /// Number of parts the components were refined into: the scalar
    /// engines' unit of re-evaluation.
    pub parts: usize,
    /// Component evaluations the batched engines skipped because no input
    /// of the component changed (runtime counter; see the engines'
    /// `tape_opt_report`).
    pub cones_skipped: u64,
    /// Part evaluations the scalar engines skipped because no input of the
    /// part changed (runtime counter).
    pub parts_skipped: u64,
    /// Registers the scalar engines' commits visited (runtime counter):
    /// only those whose `next`/`en`/`reset` may have changed since their
    /// last commit.
    pub regs_committed: u64,
}

/// Facts about narrow slots, derived from the tape as lowered.
struct SlotFacts {
    /// Slot holds a lowering-time constant: never written by the tape, not
    /// an input, not a register. Its value is `narrow_init[slot]`.
    n_const: Vec<bool>,
    /// Per narrow slot: the lowest constant slot holding the same value for
    /// a constant slot, the slot itself otherwise. Lowering gives every
    /// literal its own constant slot, and the IR pipeline keeps literals of
    /// equal value but different widths apart (a zero or a one appears at
    /// many widths), so [`canonical_tape`] rewrites every operand through
    /// this map once: the duplicates go unread and reallocation drops them.
    canon: Vec<u32>,
}

impl SlotFacts {
    fn new(low: &Lowered) -> Self {
        let n = low.narrow_init.len();
        let mut n_const = vec![true; n];
        for &(loc, _) in &low.input_locs {
            if let Loc::N(s) = loc {
                n_const[s as usize] = false;
            }
        }
        for &loc in &low.reg_loc {
            if let Loc::N(s) = loc {
                n_const[s as usize] = false;
            }
        }
        for instr in &low.tape {
            if let Loc::N(d) = dst_loc(instr, &low.generic) {
                n_const[d as usize] = false;
            }
        }
        let mut first: HashMap<u64, u32> = HashMap::new();
        let canon = (0..n)
            .map(|s| {
                if n_const[s] {
                    *first.entry(low.narrow_init[s]).or_insert(s as u32)
                } else {
                    s as u32
                }
            })
            .collect();
        SlotFacts { n_const, canon }
    }
}

/// Runs the whole backend pipeline on `low` in place and returns the report.
pub(crate) fn optimize(low: &mut Lowered) -> TapeOptReport {
    let mut span = hc_obs::span("tapeopt").with("module", low.module.name());
    let mut report = TapeOptReport {
        instrs_pre: low.tape.len(),
        narrow_slots_pre: low.narrow_init.len(),
        wide_slots_pre: low.wide_init.len(),
        ..TapeOptReport::default()
    };
    let facts = SlotFacts::new(low);
    let mut tape = canonical_tape(low, &facts.canon);
    report.strength_reduced = reduce_pass(low, &facts.n_const, &mut tape);
    report.fused = fuse_pass(low, &mut tape);
    low.tape = tape.into_iter().flatten().collect();
    partition(low);
    reallocate(low);
    report.instrs_post = low.tape.len();
    report.narrow_slots_post = low.narrow_init.len();
    report.wide_slots_post = low.wide_init.len();
    report.cones = low.comps.len();
    report.parts = low.parts.len();
    span.attach("instrs_pre", report.instrs_pre);
    span.attach("instrs_post", report.instrs_post);
    span.attach("fused", report.fused);
    span.attach("cones", report.cones);
    span.attach("parts", report.parts);
    let m = hc_obs::metrics::counter;
    m("tapeopt.runs").inc();
    m("tapeopt.fused").add(report.fused as u64);
    m("tapeopt.strength_reduced").add(report.strength_reduced as u64);
    report
}

/// Constant canonicalization: the tape as the later steps edit it (a
/// fused-away entry becomes `None`), with every narrow constant operand
/// read through `canon` (see [`SlotFacts::canon`]). `Generic` keeps its
/// operands in the side table and is left as lowered.
fn canonical_tape(low: &mut Lowered, canon: &[u32]) -> Vec<Option<Instr>> {
    let generic = &mut low.generic;
    low.tape
        .iter()
        .map(|&instr| {
            let mut instr = instr;
            if !matches!(instr, Instr::Generic(_)) {
                visit_srcs(
                    &mut instr,
                    generic,
                    &mut |s| *s = canon[*s as usize],
                    &mut |_| {},
                );
            }
            Some(instr)
        })
        .collect()
}

/// Calls `n` on every narrow source slot of `instr` and `w` on every wide
/// source slot. For `Generic` the argument locations live in the shared
/// side table, so a visit through a *copied* instruction still touches the
/// real state — callers rewriting operands must visit each tape entry
/// exactly once, and read-only visits must not write through the reference.
pub(crate) fn visit_srcs(
    instr: &mut Instr,
    generic: &mut [GenericOp],
    n: &mut impl FnMut(&mut u32),
    w: &mut impl FnMut(&mut u32),
) {
    match instr {
        Instr::CopyMask { a, .. }
        | Instr::Not { a, .. }
        | Instr::Neg { a, .. }
        | Instr::RedOr { a, .. }
        | Instr::RedAnd { a, .. }
        | Instr::RedXor { a, .. }
        | Instr::SliceN { a, .. }
        | Instr::SExtN { a, .. }
        | Instr::ShlI { a, .. }
        | Instr::SraI { a, .. }
        | Instr::ZExtWN { a, .. }
        | Instr::SExtWN { a, .. } => n(a),
        Instr::Add { a, b, .. }
        | Instr::Sub { a, b, .. }
        | Instr::MulS { a, b, .. }
        | Instr::MulU { a, b, .. }
        | Instr::DivU { a, b, .. }
        | Instr::RemU { a, b, .. }
        | Instr::And { a, b, .. }
        | Instr::Or { a, b, .. }
        | Instr::Xor { a, b, .. }
        | Instr::Eq { a, b, .. }
        | Instr::Ne { a, b, .. }
        | Instr::LtU { a, b, .. }
        | Instr::LtS { a, b, .. }
        | Instr::LeU { a, b, .. }
        | Instr::LeS { a, b, .. }
        | Instr::Shl { a, b, .. }
        | Instr::ShrL { a, b, .. }
        | Instr::ShrA { a, b, .. } => {
            n(a);
            n(b);
        }
        Instr::MacS { a, b, c, .. } | Instr::MacU { a, b, c, .. } => {
            n(a);
            n(b);
            n(c);
        }
        Instr::MuxN { sel, t, f, .. } => {
            n(sel);
            n(t);
            n(f);
        }
        Instr::SelN { a, b, t, f, .. } => {
            n(a);
            n(b);
            n(t);
            n(f);
        }
        Instr::ConcatN { hi, lo, .. } | Instr::ConcatWNN { hi, lo, .. } => {
            n(hi);
            n(lo);
        }
        Instr::SliceW { src, .. } | Instr::SliceWW { src, .. } => w(src),
        Instr::ConcatWWW { hi, lo, .. } => {
            w(hi);
            w(lo);
        }
        Instr::ConcatWWN { hi, lo, .. } => {
            w(hi);
            n(lo);
        }
        Instr::ConcatWNW { hi, lo, .. } => {
            n(hi);
            w(lo);
        }
        Instr::MuxW { sel, t, f, .. } => {
            n(sel);
            w(t);
            w(f);
        }
        Instr::EqW { a, b, .. } | Instr::NeW { a, b, .. } => {
            w(a);
            w(b);
        }
        Instr::CopyW { a, .. } => w(a),
        Instr::MemReadN { addr, .. } | Instr::MemReadW { addr, .. } => visit_loc(addr, n, w),
        Instr::Generic(gi) => {
            for (loc, _) in &mut generic[*gi as usize].args {
                visit_loc(loc, n, w);
            }
        }
    }
}

fn visit_loc(loc: &mut Loc, n: &mut impl FnMut(&mut u32), w: &mut impl FnMut(&mut u32)) {
    match loc {
        Loc::N(s) => n(s),
        Loc::W(s) => w(s),
    }
}

/// Destination location of `instr`.
pub(crate) fn dst_loc(instr: &Instr, generic: &[GenericOp]) -> Loc {
    match *instr {
        Instr::CopyMask { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::Neg { dst, .. }
        | Instr::RedOr { dst, .. }
        | Instr::RedAnd { dst, .. }
        | Instr::RedXor { dst, .. }
        | Instr::Add { dst, .. }
        | Instr::Sub { dst, .. }
        | Instr::MulS { dst, .. }
        | Instr::MulU { dst, .. }
        | Instr::DivU { dst, .. }
        | Instr::RemU { dst, .. }
        | Instr::And { dst, .. }
        | Instr::Or { dst, .. }
        | Instr::Xor { dst, .. }
        | Instr::Eq { dst, .. }
        | Instr::Ne { dst, .. }
        | Instr::LtU { dst, .. }
        | Instr::LtS { dst, .. }
        | Instr::LeU { dst, .. }
        | Instr::LeS { dst, .. }
        | Instr::Shl { dst, .. }
        | Instr::ShrL { dst, .. }
        | Instr::ShrA { dst, .. }
        | Instr::MuxN { dst, .. }
        | Instr::ConcatN { dst, .. }
        | Instr::SliceN { dst, .. }
        | Instr::SExtN { dst, .. }
        | Instr::SliceW { dst, .. }
        | Instr::EqW { dst, .. }
        | Instr::NeW { dst, .. }
        | Instr::MemReadN { dst, .. }
        | Instr::MacS { dst, .. }
        | Instr::MacU { dst, .. }
        | Instr::SelN { dst, .. }
        | Instr::ShlI { dst, .. }
        | Instr::SraI { dst, .. } => Loc::N(dst),
        Instr::ConcatWNN { dst, .. }
        | Instr::SliceWW { dst, .. }
        | Instr::ConcatWWW { dst, .. }
        | Instr::ConcatWWN { dst, .. }
        | Instr::ConcatWNW { dst, .. }
        | Instr::ZExtWN { dst, .. }
        | Instr::SExtWN { dst, .. }
        | Instr::MuxW { dst, .. }
        | Instr::CopyW { dst, .. }
        | Instr::MemReadW { dst, .. } => Loc::W(dst),
        Instr::Generic(gi) => generic[gi as usize].dst,
    }
}

/// Calls `n`/`w` on the destination slot of `instr` (for reallocation).
fn visit_dst(
    instr: &mut Instr,
    generic: &mut [GenericOp],
    n: &mut impl FnMut(&mut u32),
    w: &mut impl FnMut(&mut u32),
) {
    match instr {
        Instr::CopyMask { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::Neg { dst, .. }
        | Instr::RedOr { dst, .. }
        | Instr::RedAnd { dst, .. }
        | Instr::RedXor { dst, .. }
        | Instr::Add { dst, .. }
        | Instr::Sub { dst, .. }
        | Instr::MulS { dst, .. }
        | Instr::MulU { dst, .. }
        | Instr::DivU { dst, .. }
        | Instr::RemU { dst, .. }
        | Instr::And { dst, .. }
        | Instr::Or { dst, .. }
        | Instr::Xor { dst, .. }
        | Instr::Eq { dst, .. }
        | Instr::Ne { dst, .. }
        | Instr::LtU { dst, .. }
        | Instr::LtS { dst, .. }
        | Instr::LeU { dst, .. }
        | Instr::LeS { dst, .. }
        | Instr::Shl { dst, .. }
        | Instr::ShrL { dst, .. }
        | Instr::ShrA { dst, .. }
        | Instr::MuxN { dst, .. }
        | Instr::ConcatN { dst, .. }
        | Instr::SliceN { dst, .. }
        | Instr::SExtN { dst, .. }
        | Instr::SliceW { dst, .. }
        | Instr::EqW { dst, .. }
        | Instr::NeW { dst, .. }
        | Instr::MemReadN { dst, .. }
        | Instr::MacS { dst, .. }
        | Instr::MacU { dst, .. }
        | Instr::SelN { dst, .. }
        | Instr::ShlI { dst, .. }
        | Instr::SraI { dst, .. } => n(dst),
        Instr::ConcatWNN { dst, .. }
        | Instr::SliceWW { dst, .. }
        | Instr::ConcatWWW { dst, .. }
        | Instr::ConcatWWN { dst, .. }
        | Instr::ConcatWNW { dst, .. }
        | Instr::ZExtWN { dst, .. }
        | Instr::SExtWN { dst, .. }
        | Instr::MuxW { dst, .. }
        | Instr::CopyW { dst, .. }
        | Instr::MemReadW { dst, .. } => w(dst),
        Instr::Generic(gi) => visit_loc(&mut generic[*gi as usize].dst, n, w),
    }
}

/// Constant strength reduction: rewrites operations with a constant
/// operand to cheaper forms. Returns how many it rewrote.
fn reduce_pass(low: &Lowered, n_const: &[bool], tape: &mut [Option<Instr>]) -> usize {
    let cval = |s: u32| n_const[s as usize].then(|| low.narrow_init[s as usize]);
    let mut reduced = 0;
    for instr in tape.iter_mut().flatten() {
        let rewritten = match *instr {
            Instr::And { a, b, dst } => match (cval(a), cval(b)) {
                (Some(v), _) => Some(Instr::CopyMask { a: b, dst, mask: v }),
                (_, Some(v)) => Some(Instr::CopyMask { a, dst, mask: v }),
                _ => None,
            },
            Instr::Or { a, b, dst } | Instr::Xor { a, b, dst } => match (cval(a), cval(b)) {
                (Some(0), _) => Some(Instr::CopyMask {
                    a: b,
                    dst,
                    mask: u64::MAX,
                }),
                (_, Some(0)) => Some(Instr::CopyMask {
                    a,
                    dst,
                    mask: u64::MAX,
                }),
                _ => None,
            },
            Instr::Add { a, b, dst, mask: m } => match (cval(a), cval(b)) {
                (Some(0), _) => Some(Instr::CopyMask { a: b, dst, mask: m }),
                (_, Some(0)) => Some(Instr::CopyMask { a, dst, mask: m }),
                _ => None,
            },
            Instr::Sub { a, b, dst, mask: m } => match (cval(a), cval(b)) {
                (_, Some(0)) => Some(Instr::CopyMask { a, dst, mask: m }),
                (Some(0), _) => Some(Instr::Neg { a: b, dst, mask: m }),
                _ => None,
            },
            Instr::Shl {
                a,
                b,
                dst,
                width,
                mask: m,
            } => cval(b).map(|k| {
                if k >= u64::from(width) {
                    Instr::ShlI {
                        a,
                        dst,
                        sh: 0,
                        mask: 0,
                    }
                } else {
                    Instr::ShlI {
                        a,
                        dst,
                        sh: k as u32,
                        mask: m,
                    }
                }
            }),
            Instr::ShrL { a, b, dst, width } => cval(b).map(|k| {
                if k >= u64::from(width) {
                    Instr::ShlI {
                        a,
                        dst,
                        sh: 0,
                        mask: 0,
                    }
                } else {
                    Instr::SliceN {
                        a,
                        dst,
                        lo: k as u32,
                        mask: mask(width - k as u32),
                    }
                }
            }),
            Instr::ShrA {
                a,
                b,
                dst,
                width: _,
                s,
                mask: m,
            } => cval(b).map(|k| Instr::SraI {
                a,
                dst,
                sh: k.min(63) as u32,
                s,
                mask: m,
            }),
            Instr::MuxN { sel, t, f, dst } => cval(sel).map(|v| Instr::CopyMask {
                a: if v != 0 { t } else { f },
                dst,
                mask: u64::MAX,
            }),
            _ => None,
        };
        if let Some(ni) = rewritten {
            *instr = ni;
            reduced += 1;
        }
    }
    reduced
}

/// Superinstruction fusion: merges single-reader producer/consumer pairs
/// into the fused opcodes. Returns how many instructions it removed.
/// Reader counts are computed once and only ever overstate after a kill,
/// which is conservative (a fusion is skipped, never wrongly applied).
#[allow(clippy::too_many_lines)]
fn fuse_pass(low: &mut Lowered, tape: &mut [Option<Instr>]) -> usize {
    let nslots = low.narrow_init.len();
    let mut def = vec![u32::MAX; nslots];
    let mut readers = vec![0u32; nslots];
    for (i, slot) in tape.iter().enumerate() {
        let Some(instr) = slot else { continue };
        if let Loc::N(d) = dst_loc(instr, &low.generic) {
            def[d as usize] = i as u32;
        }
        let mut c = *instr;
        visit_srcs(
            &mut c,
            &mut low.generic,
            &mut |s| readers[*s as usize] += 1,
            &mut |_| {},
        );
    }
    {
        // Slots read by commit plans and output ports are never fusable
        // away: count them as extra readers.
        let mut root = |s: u32| readers[s as usize] += 1;
        for p in &low.nregs {
            root(p.next);
            if let Some(e) = p.en {
                root(e);
            }
            if let Some(r) = p.reset {
                root(r);
            }
        }
        for p in &low.wregs {
            if let Some(e) = p.en {
                root(e);
            }
            if let Some(r) = p.reset {
                root(r);
            }
        }
        for p in &low.nmem_writes {
            root(p.en);
            root(p.data);
            if let Loc::N(s) = p.addr {
                root(s);
            }
        }
        for p in &low.wmem_writes {
            root(p.en);
            if let Loc::N(s) = p.addr {
                root(s);
            }
        }
        for &(loc, _) in low.output_index.values() {
            if let Loc::N(s) = loc {
                root(s);
            }
        }
    }

    let single = |readers: &[u32], def: &[u32], s: u32| {
        readers[s as usize] == 1 && def[s as usize] != u32::MAX
    };
    let mut removed = 0;
    for i in 0..tape.len() {
        let Some(instr) = tape[i] else { continue };
        match instr {
            // mul feeding its only reader, an add → multiply-accumulate.
            Instr::Add { a, b, dst, mask: m } => {
                for (p, c) in [(a, b), (b, a)] {
                    if !single(&readers, &def, p) {
                        continue;
                    }
                    let di = def[p as usize] as usize;
                    let fused = match tape[di] {
                        Some(Instr::MulS {
                            a: ma,
                            b: mb,
                            sa,
                            sb,
                            mask: mm,
                            ..
                        }) => Some(Instr::MacS {
                            a: ma,
                            b: mb,
                            c,
                            dst,
                            sa,
                            sb,
                            mmask: mm,
                            mask: m,
                        }),
                        Some(Instr::MulU {
                            a: ma,
                            b: mb,
                            mask: mm,
                            ..
                        }) => Some(Instr::MacU {
                            a: ma,
                            b: mb,
                            c,
                            dst,
                            mmask: mm,
                            mask: m,
                        }),
                        _ => None,
                    };
                    if let Some(f) = fused {
                        tape[i] = Some(f);
                        tape[di] = None;
                        removed += 1;
                        break;
                    }
                }
            }
            // compare feeding its only reader, a mux → compare-select.
            Instr::MuxN { sel, t, f, dst } if single(&readers, &def, sel) => {
                let di = def[sel as usize] as usize;
                let fused = match tape[di] {
                    Some(Instr::Eq { a, b, .. }) => Some((CmpKind::Eq, a, b, 0)),
                    Some(Instr::Ne { a, b, .. }) => Some((CmpKind::Ne, a, b, 0)),
                    Some(Instr::LtU { a, b, .. }) => Some((CmpKind::LtU, a, b, 0)),
                    Some(Instr::LeU { a, b, .. }) => Some((CmpKind::LeU, a, b, 0)),
                    Some(Instr::LtS { a, b, s, .. }) => Some((CmpKind::LtS, a, b, s)),
                    Some(Instr::LeS { a, b, s, .. }) => Some((CmpKind::LeS, a, b, s)),
                    _ => None,
                };
                if let Some((kind, a, b, s)) = fused {
                    tape[i] = Some(Instr::SelN {
                        kind,
                        a,
                        b,
                        s,
                        t,
                        f,
                        dst,
                    });
                    tape[di] = None;
                    removed += 1;
                }
            }
            // concat of two slices of one source → one masked window slice.
            Instr::ConcatN { hi, lo, dst, lo_w }
                if hi != lo
                    && lo_w < 64
                    && single(&readers, &def, hi)
                    && single(&readers, &def, lo) =>
            {
                let (dh, dl) = (def[hi as usize] as usize, def[lo as usize] as usize);
                if let (
                    Some(Instr::SliceN {
                        a: s2,
                        lo: l2,
                        mask: m2,
                        ..
                    }),
                    Some(Instr::SliceN {
                        a: s1,
                        lo: l1,
                        mask: m1,
                        ..
                    }),
                ) = (tape[dh], tape[dl])
                {
                    if s1 == s2
                        && l2 == l1 + lo_w
                        && m1 & !mask(lo_w) == 0
                        && m2 >> (64 - lo_w) == 0
                    {
                        tape[i] = Some(Instr::SliceN {
                            a: s1,
                            dst,
                            lo: l1,
                            mask: (m2 << lo_w) | m1,
                        });
                        tape[dh] = None;
                        tape[dl] = None;
                        removed += 2;
                    }
                }
            }
            // mask-of-{slice,copy,shift} chains combine into one opcode.
            Instr::CopyMask { a, dst, mask: m2 } if single(&readers, &def, a) => {
                let di = def[a as usize] as usize;
                let fused = match tape[di] {
                    Some(Instr::SliceN {
                        a: s, lo, mask: m1, ..
                    }) => Some(Instr::SliceN {
                        a: s,
                        dst,
                        lo,
                        mask: m1 & m2,
                    }),
                    Some(Instr::CopyMask { a: s, mask: m1, .. }) => Some(Instr::CopyMask {
                        a: s,
                        dst,
                        mask: m1 & m2,
                    }),
                    Some(Instr::ShlI {
                        a: s, sh, mask: m1, ..
                    }) => Some(Instr::ShlI {
                        a: s,
                        dst,
                        sh,
                        mask: m1 & m2,
                    }),
                    _ => None,
                };
                if let Some(f) = fused {
                    tape[i] = Some(f);
                    tape[di] = None;
                    removed += 1;
                }
            }
            Instr::SliceN {
                a,
                dst,
                lo: l2,
                mask: m2,
            } if single(&readers, &def, a) => {
                let di = def[a as usize] as usize;
                let fused = match tape[di] {
                    Some(Instr::SliceN {
                        a: s,
                        lo: l1,
                        mask: m1,
                        ..
                    }) => {
                        if l1 + l2 < 64 {
                            Some(Instr::SliceN {
                                a: s,
                                dst,
                                lo: l1 + l2,
                                mask: (m1 >> l2) & m2,
                            })
                        } else {
                            // The window starts past bit 63: the result is 0.
                            Some(Instr::ShlI {
                                a: s,
                                dst,
                                sh: 0,
                                mask: 0,
                            })
                        }
                    }
                    Some(Instr::CopyMask { a: s, mask: m1, .. }) => Some(Instr::SliceN {
                        a: s,
                        dst,
                        lo: l2,
                        mask: (m1 >> l2) & m2,
                    }),
                    _ => None,
                };
                if let Some(f) = fused {
                    tape[i] = Some(f);
                    tape[di] = None;
                    removed += 1;
                }
            }
            _ => {}
        }
    }
    removed
}

fn uf_find(parent: &mut [u32], i: u32) -> u32 {
    let mut root = i;
    while parent[root as usize] != root {
        root = parent[root as usize];
    }
    let mut cur = i;
    while parent[cur as usize] != cur {
        let next = parent[cur as usize];
        parent[cur as usize] = root;
        cur = next;
    }
    root
}

fn uf_union(parent: &mut [u32], a: u32, b: u32) {
    let ra = uf_find(parent, a);
    let rb = uf_find(parent, b);
    if ra != rb {
        parent[ra.max(rb) as usize] = ra.min(rb);
    }
}

/// Marker for "no instruction / part / index".
const NONE: u32 = u32::MAX;

/// Parts of fewer instructions than this merge into their sole consumer
/// part. Chosen by measurement (EXPERIMENTS, "Change-driven evaluation"):
/// a tiny part costs its boundary compare and, under the JIT, a call,
/// which outweighs re-running a few instructions its consumer's other
/// inputs would not have needed.
const MERGE_FLOOR: usize = 16;

/// Pushes the narrow and wide source slots of `instr` (cleared first).
fn srcs_of(instr: Instr, generic: &mut [GenericOp], n: &mut Vec<u32>, w: &mut Vec<u32>) {
    n.clear();
    w.clear();
    let mut c = instr;
    visit_srcs(&mut c, generic, &mut |s| n.push(*s), &mut |s| w.push(*s));
}

/// Narrow slots read outside the tape: register plans, memory-write
/// plans and output ports.
fn read_outside(low: &Lowered) -> Vec<bool> {
    let mut ext = vec![false; low.narrow_init.len()];
    let mut mark = |s: u32| ext[s as usize] = true;
    for p in &low.nregs {
        mark(p.next);
        p.en.into_iter().chain(p.reset).for_each(&mut mark);
    }
    for p in &low.wregs {
        p.en.into_iter().chain(p.reset).for_each(&mut mark);
    }
    for p in &low.nmem_writes {
        mark(p.en);
        mark(p.data);
        if let Loc::N(s) = p.addr {
            mark(s);
        }
    }
    for p in &low.wmem_writes {
        mark(p.en);
        if let Loc::N(s) = p.addr {
            mark(s);
        }
    }
    for &(loc, _) in low.output_index.values() {
        if let Loc::N(s) = loc {
            mark(s);
        }
    }
    ext
}

/// Strongly connected components of a graph (iterative Tarjan). Returns
/// each node's component and the component count; components are
/// numbered in reverse topological order (a sink first).
fn sccs(succ: &Lists) -> (Vec<u32>, usize) {
    let n = succ.rows();
    let mut index = vec![NONE; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut call: Vec<(u32, u32)> = Vec::new();
    let mut comp = vec![NONE; n];
    let mut next = 0u32;
    let mut ncomp = 0u32;
    for root in 0..n as u32 {
        if index[root as usize] != NONE {
            continue;
        }
        index[root as usize] = next;
        lowlink[root as usize] = next;
        next += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        call.push((root, 0));
        while let Some(&(v, e)) = call.last() {
            let row = succ.row(v as usize);
            if let Some(&w) = row.get(e as usize) {
                call.last_mut().expect("frame").1 += 1;
                if index[w as usize] == NONE {
                    index[w as usize] = next;
                    lowlink[w as usize] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
                continue;
            }
            call.pop();
            if let Some(&(u, _)) = call.last() {
                lowlink[u as usize] = lowlink[u as usize].min(lowlink[v as usize]);
            }
            if lowlink[v as usize] == index[v as usize] {
                while let Some(w) = stack.pop() {
                    on_stack[w as usize] = false;
                    comp[w as usize] = ncomp;
                    if w == v {
                        break;
                    }
                }
                ncomp += 1;
            }
        }
    }
    (comp, ncomp as usize)
}

/// Partitions the compacted tape into **parts** inside **components**,
/// lays the tape out part by part, and records what the engines need to
/// re-run only the parts whose inputs changed. Every step is linear in
/// the tape (union-find is near-linear), since `/v1/measure` lowers
/// untrusted Verilog.
///
/// * A component is a connected combinational cone: instructions joined
///   through temp slots (slots a tape instruction writes). Inputs,
///   registers, constants and memories join nothing.
/// * An instruction whose narrow result has exactly one tape reader and
///   no register, memory or port reader joins its reader's part. All defs
///   and readers of a wide temp slot share a part, and so do all defs and
///   readers of a multi-def narrow slot, so every slot another part reads
///   is narrow with one def.
/// * The part graph (def part → reader part) is condensed by strongly
///   connected components, and a part below [`MERGE_FLOOR`] instructions
///   whose boundary slots one part alone reads merges into that part.
/// * Components are laid out in order of first appearance, each as a run
///   of its parts in topological order; a part keeps its instructions in
///   tape order, so the layout is a valid evaluation order.
///
/// Afterwards each part knows its boundary slots (narrow slots another
/// part reads) and, per boundary slot, the parts reading it, and the
/// registers whose commit inputs it defines; each input, register and memory knows the parts reading it
/// and each input and register the registers it feeds directly.
#[allow(clippy::too_many_lines)]
fn partition(low: &mut Lowered) {
    let n = low.tape.len();
    let nslots = low.narrow_init.len();
    let wslots = low.wide_init.len();
    let (mut srcs_n, mut srcs_w) = (Vec::new(), Vec::new());

    // Slot facts: first def, def count, distinct tape readers.
    let mut def_n = vec![NONE; nslots];
    let mut ndefs_n = vec![0u32; nslots];
    let mut def_w = vec![NONE; wslots];
    let mut nread = vec![0u32; nslots];
    let mut last_reader = vec![NONE; nslots];
    for i in 0..n {
        match dst_loc(&low.tape[i], &low.generic) {
            Loc::N(d) => {
                if def_n[d as usize] == NONE {
                    def_n[d as usize] = i as u32;
                }
                ndefs_n[d as usize] += 1;
            }
            Loc::W(d) => {
                if def_w[d as usize] == NONE {
                    def_w[d as usize] = i as u32;
                }
            }
        }
        srcs_of(low.tape[i], &mut low.generic, &mut srcs_n, &mut srcs_w);
        for &s in &srcs_n {
            if last_reader[s as usize] != i as u32 {
                last_reader[s as usize] = i as u32;
                nread[s as usize] += 1;
            }
        }
    }
    let ext = read_outside(low);

    // Instructions → parts.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    for i in 0..n {
        let iu = i as u32;
        match dst_loc(&low.tape[i], &low.generic) {
            Loc::N(d) if ndefs_n[d as usize] > 1 => uf_union(&mut parent, iu, def_n[d as usize]),
            Loc::W(d) => uf_union(&mut parent, iu, def_w[d as usize]),
            Loc::N(_) => {}
        }
        srcs_of(low.tape[i], &mut low.generic, &mut srcs_n, &mut srcs_w);
        for &s in &srcs_n {
            let (d, su) = (def_n[s as usize], s as usize);
            if d != NONE && (ndefs_n[su] > 1 || (nread[su] == 1 && !ext[su])) {
                uf_union(&mut parent, iu, d);
            }
        }
        for &s in &srcs_w {
            if def_w[s as usize] != NONE {
                uf_union(&mut parent, iu, def_w[s as usize]);
            }
        }
    }
    let mut part_of = vec![0u32; n];
    let mut id_of = vec![NONE; n];
    let mut np = 0u32;
    for (i, part) in part_of.iter_mut().enumerate() {
        let r = uf_find(&mut parent, i as u32) as usize;
        if id_of[r] == NONE {
            id_of[r] = np;
            np += 1;
        }
        *part = id_of[r];
    }

    // The part graph, condensed.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..n {
        srcs_of(low.tape[i], &mut low.generic, &mut srcs_n, &mut srcs_w);
        for &s in &srcs_n {
            let d = def_n[s as usize];
            if d != NONE && part_of[d as usize] != part_of[i] {
                edges.push((part_of[d as usize], part_of[i]));
            }
        }
    }
    let (scc, ncond) = sccs(&Lists::from_pairs(np as usize, np as usize, &edges));
    for e in &mut edges {
        *e = (scc[e.0 as usize], scc[e.1 as usize]);
    }
    edges.retain(|e| e.0 != e.1);
    let succ = Lists::from_pairs(ncond, ncond, &edges);
    let cond_of = |i: usize| scc[part_of[i] as usize] as usize;

    // Small parts merge into their sole consumer, visited in topological
    // order (descending SCC number) so a merged part's size counts the
    // parts merged into it before it is itself considered.
    let mut size = vec![0usize; ncond];
    for i in 0..n {
        size[cond_of(i)] += 1;
    }
    let mut into: Vec<u32> = (0..ncond as u32).collect();
    for c in (0..ncond).rev() {
        if let &[only] = succ.row(c) {
            if size[c] < MERGE_FLOOR {
                into[c] = only;
                size[only as usize] += size[c];
            }
        }
    }

    // Components: weakly connected over the condensed graph.
    let mut wcc: Vec<u32> = (0..ncond as u32).collect();
    for &(a, b) in &edges {
        uf_union(&mut wcc, a, b);
    }
    let mut comp_order = vec![NONE; ncond];
    let mut ncomps = 0u32;
    for i in 0..n {
        let r = uf_find(&mut wcc, cond_of(i) as u32) as usize;
        if comp_order[r] == NONE {
            comp_order[r] = ncomps;
            ncomps += 1;
        }
    }

    // Final parts (merge roots), numbered by component, then topological
    // order inside it.
    let mut per_comp = vec![0u32; ncomps as usize + 1];
    let mut roots: Vec<(u32, u32)> = Vec::new();
    for c in (0..ncond as u32).rev() {
        if uf_find(&mut into, c) == c {
            let k = comp_order[uf_find(&mut wcc, c) as usize];
            per_comp[k as usize + 1] += 1;
            roots.push((c, k));
        }
    }
    for k in 0..ncomps as usize {
        per_comp[k + 1] += per_comp[k];
    }
    let mut cursor = per_comp.clone();
    let mut final_of = vec![NONE; ncond];
    for &(c, k) in &roots {
        final_of[c as usize] = cursor[k as usize];
        cursor[k as usize] += 1;
    }
    let nparts = roots.len();
    let mut fpart = vec![0u32; n];
    for (i, f) in fpart.iter_mut().enumerate() {
        *f = final_of[uf_find(&mut into, cond_of(i) as u32) as usize];
    }
    let mut part_comp = vec![0u32; nparts];
    for &(c, k) in &roots {
        part_comp[final_of[c as usize] as usize] = k;
    }

    // Lay the tape out part by part (a stable counting sort).
    let mut counts = vec![0u32; nparts + 1];
    for &f in &fpart {
        counts[f as usize + 1] += 1;
    }
    for k in 0..nparts {
        counts[k + 1] += counts[k];
    }
    low.parts = (0..nparts)
        .map(|k| Segment {
            start: counts[k],
            end: counts[k + 1],
        })
        .collect();
    let mut new_tape = vec![Instr::Generic(0); n];
    for (i, instr) in low.tape.iter().enumerate() {
        let f = fpart[i] as usize;
        new_tape[counts[f] as usize] = *instr;
        counts[f] += 1;
    }
    low.tape = new_tape;
    low.comps = (0..ncomps as usize)
        .map(|k| Segment {
            start: per_comp[k],
            end: per_comp[k + 1],
        })
        .collect();
    low.part_comp = part_comp;

    // Per-part and per-source lists over the laid-out tape.
    let mut dpart_n = vec![NONE; nslots];
    let mut dpart_w = vec![NONE; wslots];
    for (k, seg) in low.parts.iter().enumerate() {
        for instr in &low.tape[seg.start as usize..seg.end as usize] {
            match dst_loc(instr, &low.generic) {
                Loc::N(d) => dpart_n[d as usize] = k as u32,
                Loc::W(d) => dpart_w[d as usize] = k as u32,
            }
        }
    }
    let mut input_of_n = vec![NONE; nslots];
    let mut input_of_w = vec![NONE; wslots];
    for (idx, &(loc, _)) in low.input_locs.iter().enumerate() {
        match loc {
            Loc::N(s) => input_of_n[s as usize] = idx as u32,
            Loc::W(s) => input_of_w[s as usize] = idx as u32,
        }
    }
    let nregs = low.nregs.len();
    let mut reg_of_n = vec![NONE; nslots];
    for (i, p) in low.nregs.iter().enumerate() {
        reg_of_n[p.slot as usize] = i as u32;
    }
    let mut reg_of_w = vec![NONE; wslots];
    for (i, p) in low.wregs.iter().enumerate() {
        reg_of_w[p.slot as usize] = (nregs + i) as u32;
    }
    let nmems = low.nmem_depths.len();
    let (mut bound, mut readers) = (Vec::new(), Vec::new());
    let (mut input_parts, mut reg_parts, mut mem_parts) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..nparts {
        let seg = low.parts[k];
        let q = k as u32;
        for pos in seg.start as usize..seg.end as usize {
            match low.tape[pos] {
                Instr::MemReadN { mem, .. } => mem_parts.push((mem, q)),
                Instr::MemReadW { mem, .. } => mem_parts.push((nmems as u32 + mem, q)),
                _ => {}
            }
            srcs_of(low.tape[pos], &mut low.generic, &mut srcs_n, &mut srcs_w);
            for &s in &srcs_n {
                let p = dpart_n[s as usize];
                if p != NONE && p != q {
                    bound.push((p, s));
                    readers.push((s, q));
                }
                if input_of_n[s as usize] != NONE {
                    input_parts.push((input_of_n[s as usize], q));
                }
                if reg_of_n[s as usize] != NONE {
                    reg_parts.push((reg_of_n[s as usize], q));
                }
            }
            for &s in &srcs_w {
                if input_of_w[s as usize] != NONE {
                    input_parts.push((input_of_w[s as usize], q));
                }
                if reg_of_w[s as usize] != NONE {
                    reg_parts.push((reg_of_w[s as usize], q));
                }
            }
        }
    }

    // Registers fed by each part, input and register (commit gating).
    let (mut part_regs, mut input_regs, mut reg_regs) = (Vec::new(), Vec::new(), Vec::new());
    {
        let mut feed = |loc: Loc, r: u32| {
            let (dpart, input, reg) = match loc {
                Loc::N(s) => (
                    dpart_n[s as usize],
                    input_of_n[s as usize],
                    reg_of_n[s as usize],
                ),
                Loc::W(s) => (
                    dpart_w[s as usize],
                    input_of_w[s as usize],
                    reg_of_w[s as usize],
                ),
            };
            if dpart != NONE {
                part_regs.push((dpart, r));
            }
            if input != NONE {
                input_regs.push((input, r));
            }
            if reg != NONE {
                reg_regs.push((reg, r));
            }
        };
        for (i, p) in low.nregs.iter().enumerate() {
            for s in [Some(p.next), p.en, p.reset].into_iter().flatten() {
                feed(Loc::N(s), i as u32);
            }
        }
        for (i, p) in low.wregs.iter().enumerate() {
            let r = (nregs + i) as u32;
            feed(Loc::W(p.next), r);
            for s in p.en.into_iter().chain(p.reset) {
                feed(Loc::N(s), r);
            }
        }
    }
    let nregs_total = low.nregs_total();
    let ninputs = low.input_locs.len();
    low.bound = Lists::from_pairs(nparts, nslots, &bound);
    let mut bound_at = vec![NONE; nslots];
    for (j, &s) in low.bound.items().iter().enumerate() {
        bound_at[s as usize] = j as u32;
    }
    for r in &mut readers {
        r.0 = bound_at[r.0 as usize];
    }
    low.readers = Lists::from_pairs(low.bound.items().len(), nparts, &readers);
    low.part_regs = Lists::from_pairs(nparts, nregs_total, &part_regs);
    low.input_parts = Lists::from_pairs(ninputs, nparts, &input_parts);
    low.input_regs = Lists::from_pairs(ninputs, nregs_total, &input_regs);
    low.reg_parts = Lists::from_pairs(nregs_total, nparts, &reg_parts);
    low.reg_regs = Lists::from_pairs(nregs_total, nregs_total, &reg_regs);
    low.mem_parts = Lists::from_pairs(nmems + low.wmem_dims.len(), nparts, &mem_parts);
}

/// Live-range slot reallocation. Pinned slots (inputs, registers, and
/// referenced constants) keep their relative order at the bottom of the
/// store; temp slots are reassigned from a free list as their live ranges
/// close, under the constraint that a destination id stays strictly greater
/// than every operand id — preserving the engines' `split_at_mut` invariant
/// while shrinking the working set. The wide store is compacted by an
/// order-preserving dense renumber (wide slots differ in word count, so
/// reuse across widths is not worth the bookkeeping). One zeroed scratch slot is
/// appended for debug locations whose value no longer exists.
#[allow(clippy::too_many_lines)]
fn reallocate(low: &mut Lowered) {
    let nslots = low.narrow_init.len();
    let wslots = low.wide_init.len();
    let mut ref_n = vec![false; nslots];
    let mut ref_w = vec![false; wslots];
    let mut def_n = vec![false; nslots];
    for i in 0..low.tape.len() {
        let mut c = low.tape[i];
        visit_srcs(
            &mut c,
            &mut low.generic,
            &mut |s| ref_n[*s as usize] = true,
            &mut |s| ref_w[*s as usize] = true,
        );
        match dst_loc(&low.tape[i], &low.generic) {
            Loc::N(d) => {
                ref_n[d as usize] = true;
                def_n[d as usize] = true;
            }
            Loc::W(d) => ref_w[d as usize] = true,
        }
    }
    {
        let mark = |loc: Loc, ref_n: &mut [bool], ref_w: &mut [bool]| match loc {
            Loc::N(s) => ref_n[s as usize] = true,
            Loc::W(s) => ref_w[s as usize] = true,
        };
        for p in &low.nregs {
            ref_n[p.slot as usize] = true;
            ref_n[p.next as usize] = true;
            if let Some(e) = p.en {
                ref_n[e as usize] = true;
            }
            if let Some(r) = p.reset {
                ref_n[r as usize] = true;
            }
        }
        for p in &low.wregs {
            ref_w[p.slot as usize] = true;
            ref_w[p.next as usize] = true;
            if let Some(e) = p.en {
                ref_n[e as usize] = true;
            }
            if let Some(r) = p.reset {
                ref_n[r as usize] = true;
            }
        }
        for p in &low.nmem_writes {
            ref_n[p.en as usize] = true;
            ref_n[p.data as usize] = true;
            mark(p.addr, &mut ref_n, &mut ref_w);
        }
        for p in &low.wmem_writes {
            ref_n[p.en as usize] = true;
            ref_w[p.data as usize] = true;
            mark(p.addr, &mut ref_n, &mut ref_w);
        }
        for &(loc, _) in low.output_index.values() {
            mark(loc, &mut ref_n, &mut ref_w);
        }
        for &(loc, _) in &low.input_locs {
            mark(loc, &mut ref_n, &mut ref_w);
        }
        for &loc in &low.reg_loc {
            mark(loc, &mut ref_n, &mut ref_w);
        }
    }

    // Pinned: inputs and registers always (set/peek need stable storage),
    // plus every referenced slot the tape never writes (constants).
    let mut pin = vec![false; nslots];
    for &(loc, _) in &low.input_locs {
        if let Loc::N(s) = loc {
            pin[s as usize] = true;
        }
    }
    for &loc in &low.reg_loc {
        if let Loc::N(s) = loc {
            pin[s as usize] = true;
        }
    }
    for s in 0..nslots {
        if ref_n[s] && !def_n[s] {
            pin[s] = true;
        }
    }
    let mut map_n = vec![u32::MAX; nslots];
    let mut new_init: Vec<u64> = Vec::new();
    for s in 0..nslots {
        if pin[s] {
            map_n[s] = new_init.len() as u32;
            new_init.push(low.narrow_init[s]);
        }
    }
    let pinned = new_init.len() as u32;

    // Tape position after which each old slot is dead; plan/output readers
    // and pinned slots are never reclaimed.
    let mut last_use = vec![0usize; nslots];
    for pos in 0..low.tape.len() {
        let mut c = low.tape[pos];
        visit_srcs(
            &mut c,
            &mut low.generic,
            &mut |s| last_use[*s as usize] = pos,
            &mut |_| {},
        );
    }
    {
        let mut protect = |s: u32| last_use[s as usize] = usize::MAX;
        for p in &low.nregs {
            protect(p.slot);
            protect(p.next);
            if let Some(e) = p.en {
                protect(e);
            }
            if let Some(r) = p.reset {
                protect(r);
            }
        }
        for p in &low.wregs {
            if let Some(e) = p.en {
                protect(e);
            }
            if let Some(r) = p.reset {
                protect(r);
            }
        }
        for p in &low.nmem_writes {
            protect(p.en);
            protect(p.data);
            if let Loc::N(s) = p.addr {
                protect(s);
            }
        }
        for p in &low.wmem_writes {
            protect(p.en);
            if let Loc::N(s) = p.addr {
                protect(s);
            }
        }
        for &(loc, _) in low.output_index.values() {
            if let Loc::N(s) = loc {
                protect(s);
            }
        }
        // A boundary slot keeps its value between runs of its part for the
        // readers in later parts, so it is never recycled either.
        for &s in low.bound.items() {
            protect(s);
        }
    }
    for s in 0..nslots {
        if pin[s] {
            last_use[s] = usize::MAX;
        }
    }

    // Wide store: order-preserving dense renumber of the referenced slots.
    let mut map_w = vec![u32::MAX; wslots];
    let mut new_wide = Vec::new();
    for s in 0..wslots {
        if ref_w[s] {
            map_w[s] = new_wide.len() as u32;
            new_wide.push(low.wide_init[s].clone());
        }
    }

    let mut free: BTreeSet<u32> = BTreeSet::new();
    let mut next_id = pinned;
    let mut olds: Vec<u32> = Vec::new();
    for pos in 0..low.tape.len() {
        // Old narrow operand slots, read before any rewriting.
        olds.clear();
        let mut c = low.tape[pos];
        visit_srcs(
            &mut c,
            &mut low.generic,
            &mut |s| olds.push(*s),
            &mut |_| {},
        );
        // Rewrite operands; the destination must land above every mapped
        // narrow operand (and above all pinned slots).
        let mut bound = pinned;
        visit_srcs(
            &mut low.tape[pos],
            &mut low.generic,
            &mut |s| {
                let m = map_n[*s as usize];
                debug_assert_ne!(m, u32::MAX, "operand slot unmapped");
                *s = m;
                bound = bound.max(m + 1);
            },
            &mut |s| {
                let m = map_w[*s as usize];
                debug_assert_ne!(m, u32::MAX, "wide operand slot unmapped");
                *s = m;
            },
        );
        visit_dst(
            &mut low.tape[pos],
            &mut low.generic,
            &mut |d| {
                // A protected slot (read outside the tape: outputs, register
                // and memory plans; or read by a later part) must be the
                // *only* def of its physical slot — under activity gating
                // another part's def of a shared slot could clobber the
                // value between settles — so it never takes a recycled id.
                let recycled = if last_use[*d as usize] == usize::MAX {
                    None
                } else {
                    free.range(bound..).next().copied()
                };
                let id = match recycled {
                    Some(x) => {
                        free.remove(&x);
                        x
                    }
                    None => {
                        let x = next_id;
                        next_id += 1;
                        x
                    }
                };
                map_n[*d as usize] = id;
                *d = id;
            },
            &mut |d| {
                let m = map_w[*d as usize];
                debug_assert_ne!(m, u32::MAX, "wide destination slot unmapped");
                *d = m;
            },
        );
        for &s in &olds {
            if last_use[s as usize] == pos {
                let m = map_n[s as usize];
                if m >= pinned {
                    free.insert(m);
                }
            }
        }
    }

    // One scratch slot (always zero) for debug reads of eliminated values.
    let scratch = next_id;
    new_init.resize(next_id as usize + 1, 0);

    let map_loc = |loc: Loc, map_n: &[u32], map_w: &[u32]| -> Option<Loc> {
        match loc {
            Loc::N(s) => {
                let m = map_n[s as usize];
                (m != u32::MAX).then_some(Loc::N(m))
            }
            Loc::W(s) => {
                let m = map_w[s as usize];
                (m != u32::MAX).then_some(Loc::W(m))
            }
        }
    };
    for p in &mut low.nregs {
        p.slot = map_n[p.slot as usize];
        p.next = map_n[p.next as usize];
        if let Some(e) = p.en.as_mut() {
            *e = map_n[*e as usize];
        }
        if let Some(r) = p.reset.as_mut() {
            *r = map_n[*r as usize];
        }
    }
    for p in &mut low.wregs {
        p.slot = map_w[p.slot as usize];
        p.next = map_w[p.next as usize];
        if let Some(e) = p.en.as_mut() {
            *e = map_n[*e as usize];
        }
        if let Some(r) = p.reset.as_mut() {
            *r = map_n[*r as usize];
        }
    }
    for p in &mut low.nmem_writes {
        p.en = map_n[p.en as usize];
        p.addr = map_loc(p.addr, &map_n, &map_w).expect("mem addr mapped");
        p.data = map_n[p.data as usize];
    }
    for p in &mut low.wmem_writes {
        p.en = map_n[p.en as usize];
        p.addr = map_loc(p.addr, &map_n, &map_w).expect("mem addr mapped");
        p.data = map_w[p.data as usize];
    }
    for (loc, _) in low.output_index.values_mut() {
        *loc = map_loc(*loc, &map_n, &map_w).expect("output slot mapped");
    }
    for (loc, _) in &mut low.input_locs {
        *loc = map_loc(*loc, &map_n, &map_w).expect("input slot mapped");
    }
    for loc in &mut low.reg_loc {
        *loc = map_loc(*loc, &map_n, &map_w).expect("register slot mapped");
    }
    for loc in &mut low.node_loc {
        *loc = map_loc(*loc, &map_n, &map_w).unwrap_or(Loc::N(scratch));
    }
    for s in low.bound.items_mut() {
        *s = map_n[*s as usize];
    }
    low.narrow_init = new_init;
    low.wide_init = new_wide;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_bits::Bits;
    use hc_rtl::{BinaryOp, Module};

    fn lowered(m: Module) -> Lowered {
        Lowered::new(m).unwrap()
    }

    /// Regression: an externally read destination (here output `y0`, a
    /// `Not` of a register in its own quiescent cone) must not share a
    /// physical slot with another cone's def after reallocation — a shared
    /// slot lets the *other* cone clobber the externally visible value on a
    /// cycle where the owning cone is gated off.
    #[test]
    fn gated_output_slot_is_never_aliased_across_cones() {
        use crate::backend::SimBackend;
        use hc_rtl::UnaryOp;
        let mut m = Module::new("repro");
        let i0 = m.input("i0", 12);
        let i1 = m.input("i1", 12);
        let i2 = m.input("i2", 12);
        let wi = m.input("wi", 80);
        let rst = m.input("rst", 1);
        let r0 = m.reg("r0", 12, Bits::from_i64(12, -5));
        let wr = m.reg("wr", 80, Bits::from_i64(80, -1));
        let r0q = m.reg_out(r0);
        let wrq = m.reg_out(wr);
        let n4 = m.binary(BinaryOp::And, i1, i0, 12);
        let nec = m.binary(BinaryOp::Ne, wrq, wi, 1);
        let n6 = m.zext(nec, 12);
        let w2 = m.sext(n6, 80);
        let n7 = m.unary(UnaryOp::Not, r0q);
        let mem = m.mem("scratch", 12, 8);
        let waddr = m.slice(n7, 0, 3);
        let wen = m.slice(n4, 1, 1);
        m.mem_write(mem, waddr, n4, wen);
        let raddr = m.slice(i2, 0, 3);
        let rd = m.mem_read(mem, raddr);
        let en = m.slice(n4, 0, 1);
        m.connect_reg(r0, rd);
        m.reg_en(r0, en);
        m.reg_reset(r0, rst);
        m.connect_reg(wr, w2);
        m.output("y0", n7);
        m.output("y1", rd);
        m.output("yw", w2);
        let mut oracle = crate::Simulator::new(m.clone()).unwrap();
        let mut opt = crate::CompiledSimulator::new(m).unwrap();
        // Hold reset: r0 recommits its init every cycle (no value change),
        // so y0's cone stays quiescent while the wr feedback cone keeps
        // toggling — the aliasing bug showed up as y0 flipping to the other
        // cone's value on the second read.
        for (a, b, c) in [(1244, 1562, 3691), (2388, 241, 1956), (7, 7, 7)] {
            for sim in [&mut oracle as &mut dyn SimBackend, &mut opt] {
                sim.set_u64("i0", a);
                sim.set_u64("i1", b);
                sim.set_u64("i2", c);
                sim.set("wi", Bits::from_u64(80, a * b));
                sim.set_u64("rst", 1);
            }
            for out in ["y0", "y1", "yw"] {
                assert_eq!(oracle.get(out), opt.get(out), "output {out}");
            }
            oracle.step();
            opt.step();
        }
    }

    /// A MAC-shaped datapath: `acc' = acc + x * y` with registers.
    fn mac_module() -> Module {
        let mut m = Module::new("mac");
        let x = m.input("x", 12);
        let y = m.input("y", 12);
        let acc = m.reg("acc", 32, Bits::zero(32));
        let q = m.reg_out(acc);
        let xs = m.sext(x, 32);
        let ys = m.sext(y, 32);
        let p = m.binary(BinaryOp::MulS, xs, ys, 32);
        let sum = m.binary(BinaryOp::Add, q, p, 32);
        m.connect_reg(acc, sum);
        m.output("acc", q);
        m
    }

    #[test]
    fn mul_add_fuses_to_mac() {
        let low = lowered(mac_module());
        let report = low.tape_opt;
        assert!(report.fused >= 1, "no fusion: {report:?}");
        assert!(
            low.tape
                .iter()
                .any(|i| matches!(i, Instr::MacS { .. } | Instr::MacU { .. })),
            "no MAC on the tape: {:?}",
            low.tape
        );
    }

    #[test]
    fn dst_above_operands_invariant_holds_after_reallocation() {
        for m in [mac_module(), select_module(), window_module()] {
            let low = lowered(m);
            for instr in &low.tape {
                let mut srcs_n = Vec::new();
                let mut srcs_w = Vec::new();
                let mut c = *instr;
                let mut generic = low.generic.clone();
                visit_srcs(&mut c, &mut generic, &mut |s| srcs_n.push(*s), &mut |s| {
                    srcs_w.push(*s)
                });
                match dst_loc(instr, &low.generic) {
                    Loc::N(d) => assert!(srcs_n.iter().all(|&s| s < d), "narrow {instr:?}"),
                    Loc::W(d) => assert!(srcs_w.iter().all(|&s| s < d), "wide {instr:?}"),
                }
            }
        }
    }

    /// `a = x + 5` at 8 bits and `b = y + second` at 16 bits: two literals
    /// in slots of their own, equal when `second` is 5.
    fn two_literal_module(second: u64) -> Module {
        let mut m = Module::new("lits");
        let x = m.input("x", 8);
        let y = m.input("y", 16);
        let c8 = m.const_u(8, 5);
        let c16 = m.const_u(16, second);
        let a = m.binary(BinaryOp::Add, x, c8, 8);
        let b = m.binary(BinaryOp::Add, y, c16, 16);
        m.output("a", a);
        m.output("b", b);
        m
    }

    /// The pre-pass reads both additions' literals through one slot when
    /// their values are equal, whatever their widths, so reallocation
    /// keeps one narrow slot fewer than for two different values.
    #[test]
    fn equal_literals_of_different_widths_share_one_slot() {
        let shared = lowered(two_literal_module(5)).tape_opt;
        let apart = lowered(two_literal_module(6)).tape_opt;
        assert_eq!(shared.narrow_slots_pre, apart.narrow_slots_pre);
        assert_eq!(shared.instrs_post, apart.instrs_post);
        assert_eq!(
            shared.narrow_slots_post + 1,
            apart.narrow_slots_post,
            "equal literals: {shared:?}\ndifferent literals: {apart:?}"
        );
    }

    fn select_module() -> Module {
        let mut m = Module::new("sel");
        let a = m.input("a", 16);
        let b = m.input("b", 16);
        let lt = m.binary(BinaryOp::LtS, a, b, 1);
        let y = m.mux(lt, a, b);
        m.output("min", y);
        m
    }

    #[test]
    fn cmp_mux_fuses_to_select() {
        let low = lowered(select_module());
        assert!(
            low.tape.iter().any(|i| matches!(i, Instr::SelN { .. })),
            "no SelN: {:?}",
            low.tape
        );
    }

    fn window_module() -> Module {
        let mut m = Module::new("win");
        let x = m.input("x", 32);
        let lo = m.slice(x, 4, 8);
        let hi = m.slice(x, 12, 8);
        let y = m.concat(hi, lo);
        m.output("w", y);
        m
    }

    #[test]
    fn slice_concat_window_fuses() {
        let low = lowered(window_module());
        let report = low.tape_opt;
        assert!(report.fused >= 2, "window not fused: {report:?}");
        assert!(low.tape.len() <= 1, "window tape: {:?}", low.tape);
    }

    /// The part structure the engines rely on: parts tile the tape and
    /// components tile the parts; every narrow slot a part reads from
    /// another part is a boundary slot of its defining part, which comes
    /// earlier in the same component; every boundary slot has exactly one
    /// def and is no input, register or constant (so it was never
    /// recycled); and the per-source lists name real parts.
    fn check_parts(low: &Lowered) {
        let n = low.tape.len();
        let np = low.parts.len();
        let mut at = 0;
        for seg in &low.parts {
            assert_eq!(seg.start, at, "parts tile the tape");
            assert!(seg.end > seg.start, "no empty part");
            at = seg.end;
        }
        assert_eq!(at as usize, n);
        let mut at = 0;
        for (c, comp) in low.comps.iter().enumerate() {
            assert_eq!(comp.start, at, "components tile the parts");
            assert!(comp.end > comp.start, "no empty component");
            for k in comp.start..comp.end {
                assert_eq!(low.part_comp[k as usize] as usize, c);
            }
            at = comp.end;
        }
        assert_eq!(at as usize, np);

        let mut part_of = vec![0u32; n];
        for (k, seg) in low.parts.iter().enumerate() {
            part_of[seg.start as usize..seg.end as usize].fill(k as u32);
        }
        let mut defs = vec![0u32; low.narrow_init.len()];
        let mut def_part = vec![NONE; low.narrow_init.len()];
        for (i, instr) in low.tape.iter().enumerate() {
            if let Loc::N(d) = dst_loc(instr, &low.generic) {
                defs[d as usize] += 1;
                def_part[d as usize] = part_of[i];
            }
        }
        // A slot a part reads before writing it comes from outside the
        // part: a source, or a boundary slot of an earlier part. (After
        // reallocation a physical slot may hold several parts' internal
        // temps, one after another.)
        let mut generic = low.generic.clone();
        let mut written_in = vec![NONE; low.narrow_init.len()];
        for (i, instr) in low.tape.iter().enumerate() {
            let q = part_of[i];
            let mut srcs = Vec::new();
            let mut c = *instr;
            visit_srcs(&mut c, &mut generic, &mut |s| srcs.push(*s), &mut |_| {});
            for s in srcs {
                if written_in[s as usize] == q || defs[s as usize] == 0 {
                    continue;
                }
                assert_eq!(defs[s as usize], 1, "part {q} reads shared slot {s}");
                let p = def_part[s as usize];
                assert!(p < q, "part {q} reads slot {s} of later part {p}");
                assert_eq!(low.part_comp[p as usize], low.part_comp[q as usize]);
                let j = low
                    .bound
                    .span(p as usize)
                    .find(|&j| low.bound.items()[j] == s)
                    .unwrap_or_else(|| panic!("slot {s} of part {p}, read by {q}, is no boundary"));
                assert!(
                    low.readers.row(j).contains(&q),
                    "part {q} missing as reader of {s}"
                );
            }
            if let Loc::N(d) = dst_loc(instr, &low.generic) {
                written_in[d as usize] = q;
            }
        }
        let mut sources = vec![false; low.narrow_init.len()];
        for &(loc, _) in &low.input_locs {
            if let Loc::N(s) = loc {
                sources[s as usize] = true;
            }
        }
        for p in &low.nregs {
            sources[p.slot as usize] = true;
        }
        for k in 0..np {
            for j in low.bound.span(k) {
                let s = low.bound.items()[j] as usize;
                assert_eq!(defs[s], 1, "boundary slot {s} has {} defs", defs[s]);
                assert_eq!(def_part[s] as usize, k);
                assert!(!sources[s], "boundary slot {s} is an input or register");
                for &r in low.readers.row(j) {
                    assert!(r as usize > k && (r as usize) < np);
                }
            }
        }
        for lists in [
            &low.input_parts,
            &low.reg_parts,
            &low.mem_parts,
            &low.part_regs,
        ] {
            assert!(lists
                .items()
                .iter()
                .all(|&x| (x as usize) < np.max(low.nregs_total())));
        }
    }

    /// A pseudo-random module over narrow and wide values with registers
    /// (enable, reset, register-fed) and a memory, from a 64-bit seed.
    fn random_module(seed: u64) -> Module {
        let mut x = seed | 1;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let mut m = Module::new("random");
        let mut narrow = vec![m.input("a", 12), m.input("b", 12)];
        let en = m.input("en", 1);
        let wi = m.input("wi", 80);
        let r0 = m.reg("r0", 12, Bits::from_u64(12, 5));
        let r1 = m.reg("r1", 12, Bits::zero(12));
        let wr = m.reg("wr", 80, Bits::zero(80));
        narrow.push(m.reg_out(r0));
        narrow.push(m.reg_out(r1));
        let mut wide = vec![wi, m.reg_out(wr)];
        let mem = m.mem("mem", 12, 8);
        for _ in 0..60 {
            let (a, b) = (narrow[next(narrow.len())], narrow[next(narrow.len())]);
            let node = match next(7) {
                0 => m.binary(BinaryOp::Add, a, b, 12),
                1 => m.binary(BinaryOp::Xor, a, b, 12),
                2 => m.binary(BinaryOp::MulU, a, b, 12),
                3 => {
                    let s = m.slice(a, 0, 1);
                    m.mux(s, a, b)
                }
                4 => {
                    let w = wide[next(wide.len())];
                    let z = m.zext(a, 80);
                    wide.push(m.binary(BinaryOp::Add, w, z, 80));
                    m.slice(*wide.last().unwrap(), 8, 12)
                }
                5 => {
                    let addr = m.slice(a, 0, 3);
                    m.mem_read(mem, addr)
                }
                _ => m.binary(BinaryOp::Sub, a, b, 12),
            };
            narrow.push(node);
        }
        let last = *narrow.last().unwrap();
        let mid = narrow[narrow.len() / 2];
        let waddr = m.slice(mid, 0, 3);
        m.mem_write(mem, waddr, last, en);
        m.connect_reg(r0, last);
        m.reg_en(r0, en);
        let q0 = m.reg_out(r0);
        m.connect_reg(r1, q0);
        m.connect_reg(wr, *wide.last().unwrap());
        m.output("y", last);
        m.output("z", mid);
        m.output("w", *wide.last().unwrap());
        m
    }

    #[test]
    fn parts_keep_their_invariants() {
        for m in [mac_module(), select_module(), window_module()] {
            check_parts(&lowered(m));
        }
        for seed in 1..=64 {
            let low = lowered(random_module(seed * 0x9e37_79b9));
            check_parts(&low);
            assert!(low.parts.len() >= low.comps.len());
            assert_eq!(low.tape_opt.parts, low.parts.len());
        }
    }

    /// A 100k-instruction dependency chain and a module whose one shared
    /// value fans out to 20k parts that fan back into one: every build
    /// step must stay linear (union-find aside), since `/v1/measure`
    /// lowers untrusted Verilog.
    #[test]
    fn long_chains_and_wide_fan_in_partition_in_linear_time() {
        let t = std::time::Instant::now();
        let mut m = Module::new("chain");
        let x = m.input("x", 16);
        let one = m.const_u(16, 1);
        let mut v = x;
        for i in 0..100_000 {
            v = if i % 2 == 0 {
                m.binary(BinaryOp::Add, v, one, 16)
            } else {
                m.binary(BinaryOp::Xor, v, x, 16)
            };
        }
        m.output("y", v);
        let low = lowered(m);
        check_parts(&low);
        assert_eq!(low.parts.len(), 1, "a single-reader chain is one part");

        // Each y_i has two consumer parts (z_i and the OR chain), so none
        // merges away.
        let mut m = Module::new("fan");
        let a = m.input("a", 16);
        let b = m.input("b", 16);
        let shared = m.binary(BinaryOp::Add, a, b, 16);
        let mut acc = shared;
        for i in 0..20_000u64 {
            let c = m.const_u(16, i);
            let y = m.binary(BinaryOp::Xor, shared, c, 16);
            let z = m.binary(BinaryOp::Add, y, a, 16);
            m.output(format!("z{i}"), z);
            acc = m.binary(BinaryOp::Or, acc, y, 16);
        }
        m.output("acc", acc);
        let low = lowered(m);
        check_parts(&low);
        assert!(low.parts.len() > 20_000, "{} parts", low.parts.len());
        assert!(low.readers.items().len() > 20_000);
        // Generous: both build in well under a second in release; a
        // quadratic step would take hours.
        assert!(t.elapsed().as_secs() < 60, "{:?}", t.elapsed());
    }

    /// A raw module (no IR passes) with two copies: a same-width wide
    /// extension, lowered to `CopyW`, and a narrow extension whose mask
    /// covers its operand, lowered to `CopyMask`. Both feed later
    /// instructions, a register and an output.
    fn copy_module() -> Module {
        let mut m = Module::new("copies");
        let x = m.input("x", 12);
        let y = m.input("y", 16);
        let sel = m.input("sel", 1);
        let wi = m.input("wi", 80);
        let r = m.reg("r", 16, Bits::from_u64(16, 3));
        let wr = m.reg("wr", 80, Bits::from_i64(80, -7));
        let xc = m.zext(x, 16);
        let wc = m.zext(wi, 80);
        let sum = m.binary(BinaryOp::Add, xc, y, 16);
        let q = m.reg_out(r);
        let acc = m.binary(BinaryOp::Xor, sum, q, 16);
        m.connect_reg(r, acc);
        let wq = m.reg_out(wr);
        let pick = m.mux(sel, wc, wq);
        m.connect_reg(wr, pick);
        let hi = m.slice(wc, 60, 16);
        let mix = m.binary(BinaryOp::Add, hi, acc, 16);
        m.output("sum", sum);
        m.output("mix", mix);
        m.output("wc", wc);
        m.output("wq", wq);
        m
    }

    /// Both copies stay on the gated tape and keep the part invariants,
    /// and every engine replays them exactly: the tape engine, the scalar
    /// JIT and the vector JIT at 3 lanes (which interprets `CopyW`) match
    /// the interpreter on every cycle, with inputs held on every third
    /// cycle.
    #[test]
    fn copies_stay_on_the_gated_tape_and_match_the_interpreter() {
        const LANES: usize = 3;
        let low = lowered(copy_module());
        assert!(
            low.tape.iter().any(|i| matches!(i, Instr::CopyW { .. })),
            "no CopyW: {:?}",
            low.tape
        );
        assert!(
            low.tape
                .iter()
                .any(|i| matches!(i, Instr::CopyMask { mask: m, .. } if *m == mask(16))),
            "no covering CopyMask: {:?}",
            low.tape
        );
        check_parts(&low);

        let m = copy_module();
        let mut oracles: Vec<crate::Simulator> = (0..LANES)
            .map(|_| crate::Simulator::new(m.clone()).unwrap())
            .collect();
        let mut tape = crate::CompiledSimulator::new(m.clone()).unwrap();
        let mut jit = crate::NativeSimulator::new(m.clone()).unwrap();
        let mut vjit = crate::NativeBatchedSimulator::new(m, LANES).unwrap();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for cycle in 0..48 {
            for (lane, oracle) in oracles.iter_mut().enumerate() {
                if cycle % 3 != 2 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let stim = [
                        ("x", Bits::from_u64(12, x)),
                        ("y", Bits::from_u64(16, x >> 12)),
                        ("sel", Bits::from_u64(1, x >> 40)),
                        ("wi", Bits::from_i64(80, x as i64)),
                    ];
                    for (name, v) in stim {
                        oracle.set(name, v.clone());
                        vjit.set(lane, name, v.clone());
                        if lane == 0 {
                            tape.set(name, v.clone());
                            jit.set(name, v);
                        }
                    }
                }
                for out in ["sum", "mix", "wc", "wq"] {
                    let want = oracle.get(out);
                    assert_eq!(
                        vjit.get(lane, out),
                        want,
                        "vjit {out}, lane {lane}, cycle {cycle}"
                    );
                    if lane == 0 {
                        assert_eq!(tape.get(out), want, "tape {out}, cycle {cycle}");
                        assert_eq!(jit.get(out), want, "jit {out}, cycle {cycle}");
                    }
                }
                for reg in ["r", "wr"] {
                    let want = oracle.peek_reg(reg);
                    assert_eq!(vjit.peek_reg(lane, reg), want, "vjit {reg}, lane {lane}");
                    if lane == 0 {
                        assert_eq!(tape.peek_reg(reg), want, "tape {reg}, cycle {cycle}");
                        assert_eq!(jit.peek_reg(reg), want, "jit {reg}, cycle {cycle}");
                    }
                }
                oracle.step();
            }
            tape.step();
            jit.step();
            vjit.step();
        }
    }

    #[test]
    fn gating_metadata_covers_the_tape() {
        let low = lowered(mac_module());
        let total: u32 = low.parts.iter().map(|s| s.end - s.start).sum();
        assert_eq!(total as usize, low.tape.len());
        assert_eq!(low.input_parts.rows(), 2);
        assert_eq!(low.reg_parts.rows(), 1);
    }
}
