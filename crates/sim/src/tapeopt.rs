//! Tape backend optimizer: rewrites the flat [`Instr`] tape after lowering
//! and before execution.
//!
//! Four cooperating transformations run to a fixpoint, then the tape is
//! laid out for the engines:
//!
//! 1. **Copy forwarding + constant strength reduction** — copies whose mask
//!    covers the source's significant bits are deleted and their readers
//!    rewired; operations with a constant operand collapse to cheaper forms
//!    (`And` with a constant becomes `CopyMask`, variable shifts by a
//!    constant amount become immediate shifts, a `Mux` with a constant
//!    select becomes a copy of the taken arm).
//! 2. **Superinstruction fusion** — single-reader producer/consumer pairs
//!    merge into fused opcodes: `MulS`/`MulU` feeding an `Add` become
//!    [`Instr::MacS`]/[`Instr::MacU`], a comparison feeding a `MuxN`
//!    becomes [`Instr::SelN`], a `Concat` of two slices of one source
//!    becomes a single masked [`Instr::SliceN`] window, and mask/shift
//!    chains combine.
//! 3. **Common-subexpression elimination** — an instruction identical in
//!    shape and operands to an earlier one becomes a copy of the first
//!    result (which forwarding then deletes outright).
//! 4. **Tape dead-code elimination** — instructions whose destination is
//!    unreachable from any register plan, memory write, or output port are
//!    dropped.
//!
//! Afterwards the tape is **partitioned into combinational cones** (connected
//! components of the temp-slot dataflow graph) laid out as contiguous
//! segments, so the engines can keep a dirty bit per cone and skip quiescent
//! cones whose sources (inputs, registers, memories) did not change — and
//! the narrow slot store is **reallocated by live range** so dead and fused
//! slots are reclaimed and temps share a dense, cache-resident working set.
//! Reallocation preserves the structural invariant the engines rely on:
//! every instruction's destination slot index is strictly greater than all
//! its operand slot indices in the same store.
//!
//! [`EngineOptions::no_tape_opt`] disables the whole stage; the raw
//! lowered tape is then replayed unconditionally, exactly as before this
//! module existed.
//!
//! [`EngineOptions::no_tape_opt`]: crate::EngineOptions::no_tape_opt

use std::collections::{BTreeSet, HashMap};

use crate::lower::{mask, CmpKind, GenericOp, Instr, Loc, Lowered, Segment};

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
    /// Copies eliminated by forwarding their source to all readers.
    pub forwarded: usize,
    /// Recomputations replaced with the result of an identical earlier
    /// instruction (local value numbering over the tape).
    pub cse: usize,
    /// Constant-operand operations rewritten to cheaper forms.
    pub strength_reduced: usize,
    /// Instructions removed as dead by the tape DCE.
    pub dead_removed: usize,
    /// Narrow (`u64`) slot count before live-range reallocation.
    pub narrow_slots_pre: usize,
    /// Narrow slot count after reallocation (includes one scratch slot).
    pub narrow_slots_post: usize,
    /// Wide (`Bits`) slot count before compaction.
    pub wide_slots_pre: usize,
    /// Wide slot count after compaction.
    pub wide_slots_post: usize,
    /// Number of combinational cone segments the tape was partitioned into.
    pub cones: usize,
    /// Segment evaluations skipped because the cone was quiescent
    /// (runtime counter; see the engines' `tape_opt_report`).
    pub cones_skipped: u64,
}

/// Facts about narrow slots that hold for the whole optimization run,
/// derived from the tape *as lowered* (a slot whose defining instruction is
/// later fused or removed keeps its original classification).
struct SlotFacts {
    /// Slot holds a lowering-time constant: never written by the tape, not
    /// an input, not a register. Its value is `narrow_init[slot]`.
    n_const: Vec<bool>,
    /// Word width of each narrow memory, in `nmem` index order.
    nmem_width: Vec<u32>,
}

impl SlotFacts {
    fn new(low: &Lowered) -> Self {
        let n = low.narrow_init.len();
        let mut n_input = vec![false; n];
        let mut n_reg = vec![false; n];
        let mut has_def = vec![false; n];
        for &(loc, _) in &low.input_locs {
            if let Loc::N(s) = loc {
                n_input[s as usize] = true;
            }
        }
        for &loc in &low.reg_loc {
            if let Loc::N(s) = loc {
                n_reg[s as usize] = true;
            }
        }
        for instr in &low.tape {
            if let Loc::N(d) = dst_loc(instr, &low.generic) {
                has_def[d as usize] = true;
            }
        }
        let n_const = (0..n)
            .map(|s| !has_def[s] && !n_input[s] && !n_reg[s])
            .collect();
        let nmem_width = low
            .module
            .mems()
            .iter()
            .filter(|m| m.width <= 64)
            .map(|m| m.width)
            .collect();
        SlotFacts {
            n_const,
            nmem_width,
        }
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
    let mut tape: Vec<Option<Instr>> = low.tape.iter().copied().map(Some).collect();
    loop {
        let mut changed = forward_pass(low, &facts, &mut tape, &mut report);
        changed |= fuse_pass(low, &mut tape, &mut report);
        changed |= cse_pass(low, &facts, &mut tape, &mut report);
        changed |= dce_pass(low, &mut tape, &mut report);
        if !changed {
            break;
        }
    }
    low.tape = tape.into_iter().flatten().collect();
    partition(low);
    reallocate(low);
    low.gate = true;
    report.instrs_post = low.tape.len();
    report.narrow_slots_post = low.narrow_init.len();
    report.wide_slots_post = low.wide_init.len();
    report.cones = low.segments.len();
    span.attach("instrs_pre", report.instrs_pre);
    span.attach("instrs_post", report.instrs_post);
    span.attach("fused", report.fused);
    span.attach("dead_removed", report.dead_removed);
    span.attach("cones", report.cones);
    let m = hc_obs::metrics::counter;
    m("tapeopt.runs").inc();
    m("tapeopt.fused").add(report.fused as u64);
    m("tapeopt.forwarded").add(report.forwarded as u64);
    m("tapeopt.cse").add(report.cse as u64);
    m("tapeopt.strength_reduced").add(report.strength_reduced as u64);
    m("tapeopt.dead_removed").add(report.dead_removed as u64);
    report
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

/// Path-compressing lookup in a forwarding map.
fn resolve(fwd: &mut [u32], s: u32) -> u32 {
    let mut root = s;
    while fwd[root as usize] != root {
        root = fwd[root as usize];
    }
    let mut cur = s;
    while fwd[cur as usize] != cur {
        let next = fwd[cur as usize];
        fwd[cur as usize] = root;
        cur = next;
    }
    root
}

fn resolve_loc(loc: &mut Loc, fwd_n: &mut [u32], fwd_w: &mut [u32]) {
    match loc {
        Loc::N(s) => *s = resolve(fwd_n, *s),
        Loc::W(s) => *s = resolve(fwd_w, *s),
    }
}

/// Number of significant (possibly non-zero) low bits of a mask.
fn sig(m: u64) -> u32 {
    64 - m.leading_zeros()
}

/// Whether masking with `m` preserves any value of at most `significant`
/// low bits.
fn covers(m: u64, significant: u32) -> bool {
    m & mask(significant) == mask(significant)
}

/// One forward pass over the tape: resolves operands through the forwarding
/// maps, rewrites constant-operand operations to cheaper forms, deletes
/// value-preserving copies, and tracks a per-slot significant-bit upper
/// bound that justifies the deletions. Register plans, memory-write plans,
/// output locations, and debug locations are re-pointed at the end.
#[allow(clippy::too_many_lines)]
fn forward_pass(
    low: &mut Lowered,
    facts: &SlotFacts,
    tape: &mut [Option<Instr>],
    report: &mut TapeOptReport,
) -> bool {
    let nslots = low.narrow_init.len();
    let wslots = low.wide_init.len();
    let mut fwd_n: Vec<u32> = (0..nslots as u32).collect();
    let mut fwd_w: Vec<u32> = (0..wslots as u32).collect();
    // Upper bound on the significant bits held in each narrow slot; 64 when
    // nothing better is known.
    let mut bits = vec![64u32; nslots];
    for &(loc, w) in &low.input_locs {
        if let Loc::N(s) = loc {
            bits[s as usize] = w;
        }
    }
    for (ri, &loc) in low.reg_loc.iter().enumerate() {
        if let Loc::N(s) = loc {
            bits[s as usize] = low.module.regs()[ri].width;
        }
    }
    for (s, b) in bits.iter_mut().enumerate() {
        if facts.n_const[s] {
            *b = sig(low.narrow_init[s]);
        }
    }

    let mut changed = false;
    for slot in tape.iter_mut() {
        let Some(instr) = slot else { continue };
        visit_srcs(
            instr,
            &mut low.generic,
            &mut |s| *s = resolve(&mut fwd_n, *s),
            &mut |s| *s = resolve(&mut fwd_w, *s),
        );

        // Constant-operand strength reduction.
        let cval = |s: u32| facts.n_const[s as usize].then(|| low.narrow_init[s as usize]);
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
            report.strength_reduced += 1;
            changed = true;
        }

        // Copy forwarding plus significant-bit bookkeeping for the result.
        match *instr {
            Instr::CopyMask { a, dst, mask: m } => {
                let ab = bits[a as usize];
                if covers(m, ab) {
                    fwd_n[dst as usize] = a;
                    bits[dst as usize] = ab;
                    *slot = None;
                    report.forwarded += 1;
                    changed = true;
                } else {
                    bits[dst as usize] = ab.min(sig(m));
                }
            }
            Instr::SliceN {
                a,
                dst,
                lo,
                mask: m,
            } => {
                let ab = bits[a as usize];
                if lo == 0 && covers(m, ab) {
                    fwd_n[dst as usize] = a;
                    bits[dst as usize] = ab;
                    *slot = None;
                    report.forwarded += 1;
                    changed = true;
                } else {
                    bits[dst as usize] = sig(m).min(ab.saturating_sub(lo));
                }
            }
            Instr::CopyW { a, dst } => {
                fwd_w[dst as usize] = a;
                *slot = None;
                report.forwarded += 1;
                changed = true;
            }
            Instr::Not { dst, mask: m, .. }
            | Instr::Neg { dst, mask: m, .. }
            | Instr::SExtN { dst, mask: m, .. }
            | Instr::Add { dst, mask: m, .. }
            | Instr::Sub { dst, mask: m, .. }
            | Instr::MulS { dst, mask: m, .. }
            | Instr::MulU { dst, mask: m, .. }
            | Instr::Shl { dst, mask: m, .. }
            | Instr::ShrA { dst, mask: m, .. }
            | Instr::MacS { dst, mask: m, .. }
            | Instr::MacU { dst, mask: m, .. }
            | Instr::ShlI { dst, mask: m, .. }
            | Instr::SraI { dst, mask: m, .. } => bits[dst as usize] = sig(m),
            Instr::RedOr { dst, .. }
            | Instr::RedAnd { dst, .. }
            | Instr::RedXor { dst, .. }
            | Instr::Eq { dst, .. }
            | Instr::Ne { dst, .. }
            | Instr::LtU { dst, .. }
            | Instr::LtS { dst, .. }
            | Instr::LeU { dst, .. }
            | Instr::LeS { dst, .. }
            | Instr::EqW { dst, .. }
            | Instr::NeW { dst, .. } => bits[dst as usize] = 1,
            Instr::DivU {
                a, dst, mask: m, ..
            } => {
                bits[dst as usize] = bits[a as usize].max(sig(m));
            }
            Instr::RemU { a, dst, .. } | Instr::ShrL { a, dst, .. } => {
                bits[dst as usize] = bits[a as usize];
            }
            Instr::And { a, b, dst } => {
                bits[dst as usize] = bits[a as usize].min(bits[b as usize]);
            }
            Instr::Or { a, b, dst } | Instr::Xor { a, b, dst } => {
                bits[dst as usize] = bits[a as usize].max(bits[b as usize]);
            }
            Instr::MuxN { t, f, dst, .. } | Instr::SelN { t, f, dst, .. } => {
                bits[dst as usize] = bits[t as usize].max(bits[f as usize]);
            }
            Instr::ConcatN { hi, lo, dst, lo_w } => {
                bits[dst as usize] = (bits[hi as usize] + lo_w).max(bits[lo as usize]).min(64);
            }
            Instr::SliceW { dst, width, .. } => bits[dst as usize] = width,
            Instr::MemReadN { mem, dst, .. } => {
                bits[dst as usize] = facts.nmem_width[mem as usize];
            }
            Instr::Generic(gi) => {
                let g = &low.generic[gi as usize];
                if let Loc::N(d) = g.dst {
                    bits[d as usize] = g.width.min(64);
                }
            }
            Instr::ConcatWNN { .. }
            | Instr::SliceWW { .. }
            | Instr::ConcatWWW { .. }
            | Instr::ConcatWWN { .. }
            | Instr::ConcatWNW { .. }
            | Instr::ZExtWN { .. }
            | Instr::SExtWN { .. }
            | Instr::MuxW { .. }
            | Instr::MemReadW { .. } => {}
        }
    }

    // Late-bound references follow the forwarding maps too.
    for p in &mut low.nregs {
        p.next = resolve(&mut fwd_n, p.next);
        if let Some(e) = p.en.as_mut() {
            *e = resolve(&mut fwd_n, *e);
        }
        if let Some(r) = p.reset.as_mut() {
            *r = resolve(&mut fwd_n, *r);
        }
    }
    for p in &mut low.wregs {
        p.next = resolve(&mut fwd_w, p.next);
        if let Some(e) = p.en.as_mut() {
            *e = resolve(&mut fwd_n, *e);
        }
        if let Some(r) = p.reset.as_mut() {
            *r = resolve(&mut fwd_n, *r);
        }
    }
    for p in &mut low.nmem_writes {
        p.en = resolve(&mut fwd_n, p.en);
        resolve_loc(&mut p.addr, &mut fwd_n, &mut fwd_w);
        p.data = resolve(&mut fwd_n, p.data);
    }
    for p in &mut low.wmem_writes {
        p.en = resolve(&mut fwd_n, p.en);
        resolve_loc(&mut p.addr, &mut fwd_n, &mut fwd_w);
        p.data = resolve(&mut fwd_w, p.data);
    }
    for (loc, _) in low.output_index.values_mut() {
        resolve_loc(loc, &mut fwd_n, &mut fwd_w);
    }
    for (loc, _) in &mut low.input_locs {
        resolve_loc(loc, &mut fwd_n, &mut fwd_w);
    }
    for loc in &mut low.node_loc {
        resolve_loc(loc, &mut fwd_n, &mut fwd_w);
    }
    changed
}

/// One fusion pass: merges single-reader producer/consumer pairs into the
/// fused opcodes. Reader counts are computed once per pass and only ever
/// overstate after a kill, which is conservative (a fusion is skipped, never
/// wrongly applied).
#[allow(clippy::too_many_lines)]
fn fuse_pass(low: &mut Lowered, tape: &mut [Option<Instr>], report: &mut TapeOptReport) -> bool {
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
    let mut changed = false;
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
                        report.fused += 1;
                        changed = true;
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
                    report.fused += 1;
                    changed = true;
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
                        report.fused += 2;
                        changed = true;
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
                    report.fused += 1;
                    changed = true;
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
                    report.fused += 1;
                    changed = true;
                }
            }
            _ => {}
        }
    }
    changed
}

/// Backward liveness over the tape: an instruction is live iff its
/// destination reaches a register plan, a memory write, or an output port.
/// One value-numbering pass over the tape: an instruction whose operands are
/// all eval-stable slots (no tape def — inputs, registers, constants — or a
/// single def, which the SSA-form tape guarantees for temps) computes the
/// same value as any earlier instruction of the identical shape, so the
/// recomputation becomes a copy of the first result. The copy then feeds the
/// forwarding pass, which rewires its readers and deletes it. Memory reads
/// qualify too: memory only commits at the clock edge, so two reads of the
/// same address within one settle agree.
fn cse_pass(
    low: &mut Lowered,
    facts: &SlotFacts,
    tape: &mut [Option<Instr>],
    report: &mut TapeOptReport,
) -> bool {
    let mut defs_n = vec![0u32; low.narrow_init.len()];
    let mut defs_w = vec![0u32; low.wide_init.len()];
    for instr in tape.iter().flatten() {
        match dst_loc(instr, &low.generic) {
            Loc::N(d) => defs_n[d as usize] += 1,
            Loc::W(d) => defs_w[d as usize] += 1,
        }
    }
    // Lowering gives every literal its own constant slot, which hides
    // repeats of the same expression behind distinct-but-equal operands
    // (an IDCT reuses each cosine coefficient across all eight row sums).
    // Canonicalize every constant operand to the lowest slot holding that
    // value before keying.
    let mut canon: HashMap<u64, u32> = HashMap::new();
    for (s, &v) in low.narrow_init.iter().enumerate() {
        if facts.n_const[s] {
            canon.entry(v).or_insert(s as u32);
        }
    }
    let mut seen: HashMap<Instr, Loc> = HashMap::new();
    let mut changed = false;
    let narrow_init = &low.narrow_init;
    let generic = &mut low.generic;
    for slot in tape.iter_mut() {
        let Some(instr) = slot else { continue };
        if !matches!(instr, Instr::Generic(_)) {
            visit_srcs(
                instr,
                generic,
                &mut |s| {
                    if facts.n_const[*s as usize] {
                        *s = canon[&narrow_init[*s as usize]];
                    }
                },
                &mut |_| {},
            );
        }
        // Copies are the forwarding pass's job (rewriting them here would
        // churn the fixpoint loop), and `Generic` keeps its operands in a
        // side table, so zeroing a copied instruction can't build its key.
        if matches!(
            instr,
            Instr::CopyMask { .. } | Instr::CopyW { .. } | Instr::Generic(_)
        ) {
            continue;
        }
        let stable = std::cell::Cell::new(true);
        {
            let mut probe = *instr;
            visit_srcs(
                &mut probe,
                generic,
                &mut |s| stable.set(stable.get() && defs_n[*s as usize] <= 1),
                &mut |s| stable.set(stable.get() && defs_w[*s as usize] <= 1),
            );
        }
        if !stable.get() {
            continue;
        }
        let mut key = *instr;
        visit_dst(&mut key, generic, &mut |d| *d = 0, &mut |d| *d = 0);
        match (seen.get(&key).copied(), dst_loc(instr, generic)) {
            (Some(Loc::N(p)), Loc::N(dst)) => {
                // The source value is the identical instruction's result, so
                // it is already masked to the destination's width.
                *instr = Instr::CopyMask {
                    a: p,
                    dst,
                    mask: u64::MAX,
                };
                report.cse += 1;
                changed = true;
            }
            (Some(Loc::W(p)), Loc::W(dst)) => {
                *instr = Instr::CopyW { a: p, dst };
                report.cse += 1;
                changed = true;
            }
            (None, dst) => {
                // Only a single-def result is a valid replacement source at
                // later occurrences — a multi-def slot may be overwritten
                // between the two points.
                let single = match dst {
                    Loc::N(d) => defs_n[d as usize] == 1,
                    Loc::W(d) => defs_w[d as usize] == 1,
                };
                if single {
                    seen.insert(key, dst);
                }
            }
            _ => unreachable!("the CSE key pins the destination store"),
        }
    }
    changed
}

fn dce_pass(low: &mut Lowered, tape: &mut [Option<Instr>], report: &mut TapeOptReport) -> bool {
    let mut live_n = vec![false; low.narrow_init.len()];
    let mut live_w = vec![false; low.wide_init.len()];
    {
        let root_loc = |loc: Loc, live_n: &mut [bool], live_w: &mut [bool]| match loc {
            Loc::N(s) => live_n[s as usize] = true,
            Loc::W(s) => live_w[s as usize] = true,
        };
        for p in &low.nregs {
            live_n[p.next as usize] = true;
            if let Some(e) = p.en {
                live_n[e as usize] = true;
            }
            if let Some(r) = p.reset {
                live_n[r as usize] = true;
            }
        }
        for p in &low.wregs {
            live_w[p.next as usize] = true;
            if let Some(e) = p.en {
                live_n[e as usize] = true;
            }
            if let Some(r) = p.reset {
                live_n[r as usize] = true;
            }
        }
        for p in &low.nmem_writes {
            live_n[p.en as usize] = true;
            live_n[p.data as usize] = true;
            root_loc(p.addr, &mut live_n, &mut live_w);
        }
        for p in &low.wmem_writes {
            live_n[p.en as usize] = true;
            live_w[p.data as usize] = true;
            root_loc(p.addr, &mut live_n, &mut live_w);
        }
        for &(loc, _) in low.output_index.values() {
            root_loc(loc, &mut live_n, &mut live_w);
        }
    }
    let mut changed = false;
    for slot in tape.iter_mut().rev() {
        let Some(instr) = slot else { continue };
        let live = match dst_loc(instr, &low.generic) {
            Loc::N(d) => live_n[d as usize],
            Loc::W(d) => live_w[d as usize],
        };
        if live {
            let mut c = *instr;
            visit_srcs(
                &mut c,
                &mut low.generic,
                &mut |s| live_n[*s as usize] = true,
                &mut |s| live_w[*s as usize] = true,
            );
        } else {
            *slot = None;
            report.dead_removed += 1;
            changed = true;
        }
    }
    changed
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

/// Partitions the compacted tape into combinational cones: connected
/// components of the dataflow graph joined **only through temp slots**
/// (slots written by tape instructions). Inputs, registers, constants and
/// memories do not merge cones — a register or input fanning out to many
/// cones marks each of them dirty instead. Instructions are stably
/// reordered so each cone is one contiguous [`Segment`], and the per-source
/// cone lists the engines use for dirty marking are rebuilt.
fn partition(low: &mut Lowered) {
    let n = low.tape.len();
    let nslots = low.narrow_init.len();
    let wslots = low.wide_init.len();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut def_n = vec![u32::MAX; nslots];
    let mut def_w = vec![u32::MAX; wslots];
    for (i, instr) in low.tape.iter().enumerate() {
        match dst_loc(instr, &low.generic) {
            Loc::N(d) => def_n[d as usize] = i as u32,
            Loc::W(d) => def_w[d as usize] = i as u32,
        }
    }
    let mut edges_n: Vec<u32> = Vec::new();
    let mut edges_w: Vec<u32> = Vec::new();
    for i in 0..n {
        edges_n.clear();
        edges_w.clear();
        let mut c = low.tape[i];
        visit_srcs(
            &mut c,
            &mut low.generic,
            &mut |s| edges_n.push(*s),
            &mut |s| edges_w.push(*s),
        );
        for &s in &edges_n {
            let d = def_n[s as usize];
            if d != u32::MAX {
                uf_union(&mut parent, i as u32, d);
            }
        }
        for &s in &edges_w {
            let d = def_w[s as usize];
            if d != u32::MAX {
                uf_union(&mut parent, i as u32, d);
            }
        }
    }

    // Components become segments in first-appearance order, which keeps the
    // overall layout close to the original topological order.
    let mut comp_seg = vec![u32::MAX; n];
    let mut seg_of = vec![0u32; n];
    let mut nsegs = 0u32;
    for (i, seg) in seg_of.iter_mut().enumerate() {
        let r = uf_find(&mut parent, i as u32) as usize;
        if comp_seg[r] == u32::MAX {
            comp_seg[r] = nsegs;
            nsegs += 1;
        }
        *seg = comp_seg[r];
    }
    let mut counts = vec![0u32; nsegs as usize];
    for &s in &seg_of {
        counts[s as usize] += 1;
    }
    let mut starts = vec![0u32; nsegs as usize];
    let mut acc = 0u32;
    for (k, &c) in counts.iter().enumerate() {
        starts[k] = acc;
        acc += c;
    }
    let segments: Vec<Segment> = (0..nsegs as usize)
        .map(|k| Segment {
            start: starts[k],
            end: starts[k] + counts[k],
        })
        .collect();
    let mut new_tape = vec![Instr::Generic(0); n];
    let mut cursor = starts;
    for (i, instr) in low.tape.iter().enumerate() {
        let s = seg_of[i] as usize;
        new_tape[cursor[s] as usize] = *instr;
        cursor[s] += 1;
    }
    low.tape = new_tape;
    low.segments = segments;

    // Source → cone lists for dirty marking.
    let mut in_of_n = vec![u32::MAX; nslots];
    let mut in_of_w = vec![u32::MAX; wslots];
    for (idx, &(loc, _)) in low.input_locs.iter().enumerate() {
        match loc {
            Loc::N(s) => in_of_n[s as usize] = idx as u32,
            Loc::W(s) => in_of_w[s as usize] = idx as u32,
        }
    }
    let mut nreg_of = vec![u32::MAX; nslots];
    for (i, p) in low.nregs.iter().enumerate() {
        nreg_of[p.slot as usize] = i as u32;
    }
    let mut wreg_of = vec![u32::MAX; wslots];
    for (i, p) in low.wregs.iter().enumerate() {
        wreg_of[p.slot as usize] = i as u32;
    }
    let mut input_cones = vec![Vec::new(); low.input_locs.len()];
    let mut nreg_cones = vec![Vec::new(); low.nregs.len()];
    let mut wreg_cones = vec![Vec::new(); low.wregs.len()];
    let mut nmem_cones = vec![Vec::new(); low.nmem_depths.len()];
    let mut wmem_cones = vec![Vec::new(); low.wmem_dims.len()];
    for k in 0..low.segments.len() {
        let seg = low.segments[k];
        for p in seg.start..seg.end {
            let instr = low.tape[p as usize];
            match instr {
                Instr::MemReadN { mem, .. } => nmem_cones[mem as usize].push(k as u32),
                Instr::MemReadW { mem, .. } => wmem_cones[mem as usize].push(k as u32),
                _ => {}
            }
            edges_n.clear();
            edges_w.clear();
            let mut c = instr;
            visit_srcs(
                &mut c,
                &mut low.generic,
                &mut |s| edges_n.push(*s),
                &mut |s| edges_w.push(*s),
            );
            for &s in &edges_n {
                if in_of_n[s as usize] != u32::MAX {
                    input_cones[in_of_n[s as usize] as usize].push(k as u32);
                }
                if nreg_of[s as usize] != u32::MAX {
                    nreg_cones[nreg_of[s as usize] as usize].push(k as u32);
                }
            }
            for &s in &edges_w {
                if in_of_w[s as usize] != u32::MAX {
                    input_cones[in_of_w[s as usize] as usize].push(k as u32);
                }
                if wreg_of[s as usize] != u32::MAX {
                    wreg_cones[wreg_of[s as usize] as usize].push(k as u32);
                }
            }
        }
    }
    for list in input_cones
        .iter_mut()
        .chain(nreg_cones.iter_mut())
        .chain(wreg_cones.iter_mut())
        .chain(nmem_cones.iter_mut())
        .chain(wmem_cones.iter_mut())
    {
        list.sort_unstable();
        list.dedup();
    }
    low.input_cones = input_cones;
    low.nreg_cones = nreg_cones;
    low.wreg_cones = wreg_cones;
    low.nmem_cones = nmem_cones;
    low.wmem_cones = wmem_cones;
}

/// Live-range slot reallocation. Pinned slots (inputs, registers, and
/// referenced constants) keep their relative order at the bottom of the
/// store; temp slots are reassigned from a free list as their live ranges
/// close, under the constraint that a destination id stays strictly greater
/// than every operand id — preserving the engines' `split_at_mut` invariant
/// while shrinking the working set. The wide store is compacted by an
/// order-preserving dense renumber (wide values are heap-backed, so reuse
/// across widths is not worth the bookkeeping). One zeroed scratch slot is
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
                // and memory plans) must be the *only* def of its physical
                // slot — under activity gating another segment's def of a
                // shared slot could clobber the externally visible value
                // between settles — so it never takes a recycled id.
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
    low.narrow_init = new_init;
    low.wide_init = new_wide;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::EngineOptions;
    use hc_bits::Bits;
    use hc_rtl::{BinaryOp, Module};

    fn lowered(m: Module) -> Lowered {
        Lowered::new(
            m,
            EngineOptions {
                optimize: false,
                tape_opt: true,
            },
        )
        .unwrap()
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
        let report = low.tape_opt.expect("tape opt ran");
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
        let report = low.tape_opt.expect("tape opt ran");
        assert!(report.fused >= 2, "window not fused: {report:?}");
        assert!(low.tape.len() <= 1, "window tape: {:?}", low.tape);
    }

    #[test]
    fn gating_metadata_covers_the_tape() {
        let low = lowered(mac_module());
        assert!(low.gate);
        let total: u32 = low.segments.iter().map(|s| s.end - s.start).sum();
        assert_eq!(total as usize, low.tape.len());
        assert_eq!(low.input_cones.len(), 2);
        assert_eq!(low.nreg_cones.len(), 1);
    }
}
