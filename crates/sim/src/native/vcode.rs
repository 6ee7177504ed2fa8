//! AVX2 vector code generation for the lane-batched engine.
//!
//! Where `codegen` compiles each combinational cone into scalar x86-64
//! over the word-packed single-stream store, this pass compiles the same
//! cones into straight-line **ymm** code over [`BatchedSimulator`]'s
//! structure-of-arrays lane store: narrow slot `s`, lane `k` lives at
//! `narrow[s * lanes + k]`, so four consecutive lanes of one slot are one
//! 256-bit vector. Each compiled chunk is fully unrolled over the lane
//! groups (`lanes / 4` full groups plus one masked ragged tail), with the
//! group loop outermost so a four-register result bank
//! (`ymm10`–`ymm12`/`ymm15`) carries instruction results into later
//! operand reads. The bank is allocated by remaining-use counts from a
//! per-chunk liveness plan, which also drives **store elision**: a result
//! consumed only by later instructions of the same chunk is never written
//! to the lane store at all (the engine can observe narrow slots only
//! through output ports, registers, commit plans, and other tape
//! instructions — all of which the plan accounts for); a bank register
//! evicted while its unstored value still has pending readers spills to
//! its slot at that point.
//!
//! Wide slots (> 64 bits) vectorize too: the wide store is word-major,
//! lane-minor (`base(s) + w*lanes + lane`, see `crate::lower::WideLayout`),
//! so each storage word of a wide slot is its own lane vector and the
//! slice/concat/mux family compiles to per-word funnel shifts with
//! instruction-constant counts (the wide base pointer arrives in `rsi`).
//! Wide-destination recipes store every destination word themselves and
//! leave the narrow forwarding register untouched.
//!
//! Three conventions keep the generated code self-contained:
//!
//! * **Constants** are `vpbroadcastq`-loaded from a RIP-relative pool
//!   appended after the code; a four-register cache (`ymm6`–`ymm9`)
//!   avoids reloading the same splat within a chunk. The ragged-tail
//!   store mask (a non-uniform quad) loads once per chunk into `ymm13`.
//! * **Ragged tails** (lane count not a multiple of four) read the full
//!   group — both stores guarantee 32-byte alignment and four padding
//!   words past the end, so over-reads are in-bounds — but write through
//!   `vpmaskmovq`, which must not clobber the next slot's lanes.
//! * **Unsupported instructions** (division, the remaining wide ops,
//!   memory reads, the generic fallback) split the cone into chunks,
//!   exactly as the scalar JIT does; interpreted chunks run `eval_range`
//!   on the very same stores, so no synchronization exists anywhere in
//!   this tier.
//!
//! Bit-exactness relies on the same tape invariants as the interpreter:
//! narrow values are stored pre-masked to their width, and every operand
//! slot is strictly below its destination slot.
//!
//! [`BatchedSimulator`]: crate::BatchedSimulator

use std::collections::HashMap;

use super::asm::{Asm, Reg, Ymm};
use super::exec;
use crate::lower::{CmpKind, Instr, Lowered, WideLayout};

/// Shortest vectorizable run compiled as native code mid-cone; shorter
/// runs between fallbacks stay interpreted (call overhead parity with the
/// scalar JIT's `MIN_JIT_RUN`).
const MIN_VJIT_RUN: usize = 4;

/// Operand scratch registers (an operand read may also come back as a
/// bank register holding a recent result).
const S0: Ymm = Ymm(0);
const S1: Ymm = Ymm(1);
/// General scratch.
const T0: Ymm = Ymm(2);
const T1: Ymm = Ymm(3);
const T2: Ymm = Ymm(4);
const T3: Ymm = Ymm(5);
const T4: Ymm = Ymm(14);
/// The ragged-tail store mask, loaded once per chunk.
const TAILM: Ymm = Ymm(13);
/// The result bank: each narrow recipe writes its result into the bank
/// register picked for it (always terminally — after every read of an
/// operand other than the accumulator itself, so the result register may
/// alias a source), and `Ctx::binds` maps live destinations to their
/// registers so later operand reads skip the reload. Wide-destination
/// recipes never write a bank register.
const BANK: [Ymm; 4] = [Ymm(10), Ymm(11), Ymm(12), Ymm(15)];

/// One chunk of a cone's runtime plan.
#[derive(Debug)]
pub(crate) enum VStep {
    Native { f: exec::Entry },
    Interp { start: u32, end: u32 },
}

#[derive(Debug)]
pub(crate) struct VSegPlan {
    pub steps: Box<[VStep]>,
}

/// The vector JIT tier: the executable mapping (which must outlive every
/// resolved entry) and the per-cone chunk plans.
#[derive(Debug)]
pub(crate) struct VJit {
    _mem: exec::ExecMemory,
    pub plans: Box<[VSegPlan]>,
}

/// Everything `compile` learned.
pub(crate) struct VCompiled {
    pub jit: Option<VJit>,
    pub compiled: usize,
    pub fallback: usize,
    pub bytes: usize,
}

impl VCompiled {
    pub(crate) fn none(segments: usize) -> VCompiled {
        VCompiled {
            jit: None,
            compiled: 0,
            fallback: segments,
            bytes: 0,
        }
    }
}

/// Pre-entry-resolution chunk plan.
enum PStep {
    Jit { off: usize },
    Interp { start: u32, end: u32 },
}

/// The RIP-relative constant pool: deduplicated splat words plus the
/// four-word ragged-tail masks, with the fix-up list of every `disp32`
/// placeholder pointing into it.
#[derive(Default)]
struct Pool {
    words: Vec<u64>,
    index: HashMap<u64, u32>,
    tails: HashMap<usize, u32>,
    fixups: Vec<(usize, u32)>,
}

impl Pool {
    /// Index of a (deduplicated) splat constant.
    fn word(&mut self, c: u64) -> u32 {
        if let Some(&i) = self.index.get(&c) {
            return i;
        }
        let i = self.words.len() as u32;
        self.words.push(c);
        self.index.insert(c, i);
        i
    }

    /// Index of the four consecutive words masking a `t`-lane tail
    /// (`t` all-ones quads, then zeros — `vpmaskmovq` keys on bit 63).
    fn tail(&mut self, t: usize) -> u32 {
        if let Some(&i) = self.tails.get(&t) {
            return i;
        }
        let i = self.words.len() as u32;
        for k in 0..4 {
            self.words.push(if k < t { u64::MAX } else { 0 });
        }
        self.tails.insert(t, i);
        i
    }

    /// Appends the pool after all code and patches every placeholder.
    fn finish(self, asm: &mut Asm) {
        asm.align_to(32);
        let pool_off = asm.len();
        for w in &self.words {
            asm.emit_u64(*w);
        }
        for (pos, idx) in self.fixups {
            let target = pool_off + idx as usize * 8;
            asm.patch_disp32(pos, (target - (pos + 4)) as i32);
        }
    }
}

/// Whether the vector tier covers this instruction. Division, memory
/// reads, the generic fallback, and the rarer wide ops interpret.
fn vectorizable(i: &Instr) -> bool {
    matches!(
        i,
        Instr::CopyMask { .. }
            | Instr::Not { .. }
            | Instr::Neg { .. }
            | Instr::RedOr { .. }
            | Instr::RedAnd { .. }
            | Instr::RedXor { .. }
            | Instr::Add { .. }
            | Instr::Sub { .. }
            | Instr::MulS { .. }
            | Instr::MulU { .. }
            | Instr::And { .. }
            | Instr::Or { .. }
            | Instr::Xor { .. }
            | Instr::Eq { .. }
            | Instr::Ne { .. }
            | Instr::LtU { .. }
            | Instr::LtS { .. }
            | Instr::LeU { .. }
            | Instr::LeS { .. }
            | Instr::Shl { .. }
            | Instr::ShrL { .. }
            | Instr::ShrA { .. }
            | Instr::MuxN { .. }
            | Instr::ConcatN { .. }
            | Instr::SliceN { .. }
            | Instr::SExtN { .. }
            | Instr::MacS { .. }
            | Instr::MacU { .. }
            | Instr::SelN { .. }
            | Instr::ShlI { .. }
            | Instr::SraI { .. }
            | Instr::SliceW { .. }
            | Instr::SliceWW { .. }
            | Instr::MuxW { .. }
            | Instr::ConcatWNN { .. }
            | Instr::ConcatWWN { .. }
            | Instr::ConcatWWW { .. }
            | Instr::ConcatWNW { .. }
    )
}

/// Mask of a narrow width (`u64::MAX` at 64).
fn nmask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// What the engine can read of the narrow store, per slot: whether any
/// non-tape reader exists (`live` — output ports, inputs, register
/// current values, commit-plan operands, memory-write plans) and how many
/// tape operands read the slot (`reads`). Store elision keeps a slot in
/// memory whenever either shows a reader the chunk itself can't serve.
struct ExtLive {
    live: Vec<bool>,
    reads: Vec<u32>,
}

/// Builds the external-liveness map for store elision.
fn ext_live(low: &Lowered) -> ExtLive {
    let mut live = vec![false; low.narrow_init.len()];
    fn mark(live: &mut [bool], loc: crate::lower::Loc) {
        if let crate::lower::Loc::N(s) = loc {
            live[s as usize] = true;
        }
    }
    for &(loc, _) in low.output_index.values() {
        mark(&mut live, loc);
    }
    for &(loc, _) in &low.input_locs {
        mark(&mut live, loc);
    }
    for &loc in &low.reg_loc {
        mark(&mut live, loc);
    }
    for r in &low.nregs {
        for s in [Some(r.slot), Some(r.next), r.en, r.reset]
            .into_iter()
            .flatten()
        {
            live[s as usize] = true;
        }
    }
    for r in &low.wregs {
        for s in [r.en, r.reset].into_iter().flatten() {
            live[s as usize] = true;
        }
    }
    for w in &low.nmem_writes {
        live[w.en as usize] = true;
        live[w.data as usize] = true;
        mark(&mut live, w.addr);
    }
    for w in &low.wmem_writes {
        // `data` indexes the wide store here; only `en` and a narrow
        // address touch the narrow one.
        live[w.en as usize] = true;
        mark(&mut live, w.addr);
    }
    let mut reads = vec![0u32; low.narrow_init.len()];
    let mut generic = low.generic.clone();
    for ins in &low.tape {
        let mut c = *ins;
        crate::tapeopt::visit_srcs(
            &mut c,
            &mut generic,
            &mut |s| reads[*s as usize] += 1,
            &mut |_| {},
        );
    }
    ExtLive { live, reads }
}

/// The narrow source slots of one (vectorizable) instruction.
fn nsrcs(ins: &Instr) -> Vec<u32> {
    let mut c = *ins;
    let mut out = Vec::new();
    crate::tapeopt::visit_srcs(&mut c, &mut [], &mut |s| out.push(*s), &mut |_| {});
    out
}

/// The narrow destination slot of one (vectorizable) instruction, if any.
fn ndst(ins: &Instr) -> Option<u32> {
    match crate::tapeopt::dst_loc(ins, &[]) {
        crate::lower::Loc::N(s) => Some(s),
        crate::lower::Loc::W(_) => None,
    }
}

/// Per-instruction allocation plan for one chunk (base-independent, so
/// one plan serves every lane group): for each narrow-destination
/// instruction, whether its result must reach the lane store (a reader
/// outside the chunk — or before this definition — exists) and how many
/// in-chunk operand reads consume this definition.
struct IPlan {
    store: bool,
    uses: u32,
}

/// Builds the chunk plan: one forward pass attributing every in-chunk
/// read to the latest in-chunk definition of its slot.
///
/// Slot compaction reuses a handful of narrow slots across thousands of
/// tape positions, so most definitions are shadowed by a later in-chunk
/// definition of the same slot before anything outside the chunk can
/// look: external reads (ports, commit plans) happen only after the tape
/// completes, and a read in a later chunk resolves to the last store.
/// Those shadowed definitions never need the lane store. Only the final
/// in-chunk definition of each slot is potentially visible outside, and
/// it too is elided when no external reader exists and every tape read
/// of the slot, chunk-wide and tape-wide, was served in this chunk.
fn plan_chunk(instrs: &[Instr], ext: &ExtLive) -> Vec<Option<IPlan>> {
    let mut last_def: HashMap<u32, usize> = HashMap::new();
    let mut served: HashMap<u32, u32> = HashMap::new();
    let mut uses = vec![0u32; instrs.len()];
    for (p, ins) in instrs.iter().enumerate() {
        for s in nsrcs(ins) {
            if let Some(&k) = last_def.get(&s) {
                uses[k] += 1;
                *served.entry(s).or_insert(0) += 1;
            }
        }
        if let Some(d) = ndst(ins) {
            last_def.insert(d, p);
        }
    }
    let mut plans: Vec<Option<IPlan>> = instrs
        .iter()
        .enumerate()
        .map(|(p, ins)| {
            ndst(ins)?;
            Some(IPlan {
                store: false,
                uses: uses[p],
            })
        })
        .collect();
    for (&d, &k) in &last_def {
        // Reads of the slot this chunk didn't serve — an earlier
        // lifetime here, or any lifetime in another chunk — land in
        // `ext.reads` but not `served`, safely forcing the store.
        let store =
            ext.live[d as usize] || ext.reads[d as usize] > served.get(&d).copied().unwrap_or(0);
        plans[k].as_mut().expect("last def has a plan").store = store;
    }
    plans
}

/// Compiles every cone of `sim`'s tape for its SoA stores. Returns
/// [`VCompiled::none`] when nothing vectorizes or the kernel refuses
/// executable pages.
pub(crate) fn compile(sim: &crate::BatchedSimulator) -> VCompiled {
    let low = &sim.low;
    let lanes = sim.lanes();
    // Lane-group displacements are 32-bit; decline absurdly large stores.
    if low
        .narrow_init
        .len()
        .saturating_mul(lanes)
        .saturating_mul(8)
        > i32::MAX as usize
        || sim.wide.len().saturating_mul(8) > i32::MAX as usize
    {
        return VCompiled::none(low.comps.len());
    }
    let wlay = &sim.wlay;
    let mut span = hc_obs::span("native_batched_compile").with("module", low.module.name());
    let ext = ext_live(low);
    let mut asm = Asm::new();
    let mut pool = Pool::default();
    let mut plans = Vec::with_capacity(low.comps.len());
    for c in 0..low.comps.len() {
        let (start, end) = low.comp_range(c);
        plans.push(compile_segment(
            &mut asm, &mut pool, low, lanes, wlay, &ext, start, end,
        ));
    }
    pool.finish(&mut asm);
    let bytes = asm.len();
    let fully = plans
        .iter()
        .filter(|p| !p.is_empty() && p.iter().all(|s| matches!(s, PStep::Jit { .. })))
        .count();
    let any_native = plans
        .iter()
        .any(|p| p.iter().any(|s| matches!(s, PStep::Jit { .. })));
    span.attach("cones_compiled", fully);
    span.attach("fallback_cones", low.comps.len() - fully);
    span.attach("bytes_emitted", bytes);
    span.attach("lanes", lanes);
    if !any_native {
        return VCompiled::none(low.comps.len());
    }
    let Some(mem) = exec::ExecMemory::new(asm.bytes()) else {
        return VCompiled::none(low.comps.len());
    };
    let seg_plans: Box<[VSegPlan]> = plans
        .iter()
        .map(|p| VSegPlan {
            steps: p
                .iter()
                .map(|s| match s {
                    // Offsets came from this very buffer, so resolving
                    // them is sound by construction.
                    PStep::Jit { off } => VStep::Native {
                        f: unsafe { mem.entry(*off) },
                    },
                    PStep::Interp { start, end } => VStep::Interp {
                        start: *start,
                        end: *end,
                    },
                })
                .collect(),
        })
        .collect();
    VCompiled {
        jit: Some(VJit {
            _mem: mem,
            plans: seg_plans,
        }),
        compiled: fully,
        fallback: low.comps.len() - fully,
        bytes,
    }
}

/// Splits one cone into native chunks and interpreted ranges.
#[allow(clippy::too_many_arguments)] // one-caller helper threading shared emitter state
fn compile_segment(
    asm: &mut Asm,
    pool: &mut Pool,
    low: &Lowered,
    lanes: usize,
    wlay: &WideLayout,
    ext: &ExtLive,
    start: usize,
    end: usize,
) -> Vec<PStep> {
    let mut steps: Vec<PStep> = Vec::new();
    let push_interp = |steps: &mut Vec<PStep>, s: usize, e: usize| {
        if let Some(PStep::Interp { end, .. }) = steps.last_mut() {
            if *end as usize == s {
                *end = e as u32;
                return;
            }
        }
        steps.push(PStep::Interp {
            start: s as u32,
            end: e as u32,
        });
    };
    let mut i = start;
    while i < end {
        let mut j = i;
        while j < end && vectorizable(&low.tape[j]) {
            j += 1;
        }
        if j > i {
            // A run shorter than the chunk-call break-even interprets,
            // unless it is the entire cone (no dispatch to amortize
            // against).
            if j - i >= MIN_VJIT_RUN || (i == start && j == end) {
                let off = emit_chunk(asm, pool, &low.tape[i..j], lanes, wlay, ext);
                steps.push(PStep::Jit { off });
            } else {
                push_interp(&mut steps, i, j);
            }
            i = j;
        }
        let mut j = i;
        while j < end && !vectorizable(&low.tape[j]) {
            j += 1;
        }
        if j > i {
            push_interp(&mut steps, i, j);
            i = j;
        }
    }
    steps
}

/// One half of a wide concatenation: a wide slot (loaded per storage
/// word) or a narrow value already resolved to a register.
#[derive(Clone, Copy)]
enum WSrc {
    Wide(u32),
    Narrow(Ymm),
}

/// One live result-bank binding: which narrow slot the register holds,
/// how many in-chunk reads of this definition are still ahead, and
/// whether the value has already reached the lane store (an unstored
/// binding evicted with `rem > 0` must spill first).
#[derive(Clone, Copy)]
struct Bind {
    slot: u32,
    rem: u32,
    stored: bool,
}

/// Per-chunk emission state: the broadcast-constant register cache
/// (`ymm6`–`ymm9`) and the result-bank bindings on top of the shared
/// assembler and pool.
struct Ctx<'a> {
    asm: &'a mut Asm,
    pool: &'a mut Pool,
    lanes: usize,
    wlay: &'a WideLayout,
    cregs: [Option<u64>; 4],
    next: usize,
    /// Bank-register bindings (reset per lane group — the values are
    /// lane-group relative).
    binds: [Option<Bind>; 4],
    /// Rotation start for bank scans, for LRU-ish fairness.
    bnext: usize,
    /// The bank register the recipe being emitted must leave its result
    /// in (set by [`emit_group`](Self::emit_group) before each recipe).
    res: Ymm,
}

impl Ctx<'_> {
    /// Byte displacement of `slot`'s lane group starting at lane `base`.
    fn disp(&self, slot: u32, base: usize) -> i32 {
        ((slot as usize * self.lanes + base) * 8) as i32
    }

    /// Loads a lane group, using the aligned form when the displacement
    /// allows (the store base is 32-byte aligned).
    fn load(&mut self, into: Ymm, slot: u32, base: usize) {
        let disp = self.disp(slot, base);
        if disp % 32 == 0 {
            self.asm.vmovdqa_load(into, Reg::Rdi, disp);
        } else {
            self.asm.vmovdqu_load(into, Reg::Rdi, disp);
        }
    }

    /// Byte displacement of wide slot `slot`'s storage word `word`, lane
    /// group starting at `base` (the wide base pointer arrives in `rsi`).
    fn wdisp(&self, slot: u32, word: usize, base: usize) -> i32 {
        ((self.wlay.base(slot) + word * self.lanes + base) * 8) as i32
    }

    /// Loads one storage word's lane group of a wide slot.
    fn wload(&mut self, into: Ymm, slot: u32, word: usize, base: usize) {
        let disp = self.wdisp(slot, word, base);
        if disp % 32 == 0 {
            self.asm.vmovdqa_load(into, Reg::Rsi, disp);
        } else {
            self.asm.vmovdqu_load(into, Reg::Rsi, disp);
        }
    }

    /// Stores one storage word's lane group of a wide slot (masked when
    /// the group is a ragged tail).
    fn wstore(&mut self, slot: u32, word: usize, base: usize, tail: bool, src: Ymm) {
        let disp = self.wdisp(slot, word, base);
        if tail {
            self.asm.vpmaskmovq_store(Reg::Rsi, disp, TAILM, src);
        } else if disp % 32 == 0 {
            self.asm.vmovdqa_store(Reg::Rsi, disp, src);
        } else {
            self.asm.vmovdqu_store(Reg::Rsi, disp, src);
        }
    }

    /// Storage words of wide slot `s`.
    fn nwords(&self, s: u32) -> usize {
        self.wlay.nwords(s) as usize
    }

    /// One destination word of a wide funnel read: bits `[off, off + 64)`
    /// of wide slot `src`, masked by `m`, left in `T0` (or `S0` when the
    /// read is word-aligned and unmasked).
    fn wfunnel(&mut self, src: u32, off: u32, m: u64, base: usize) -> Ymm {
        let sw = (off / 64) as usize;
        let sh = off % 64;
        self.wload(S0, src, sw, base);
        let v = if sh == 0 {
            S0
        } else if sw + 1 < self.nwords(src) {
            self.wload(S1, src, sw + 1, base);
            self.asm.vpsrlq_imm(T0, S0, sh);
            self.asm.vpsllq_imm(T1, S1, 64 - sh);
            self.asm.vpor(T0, T0, T1);
            T0
        } else {
            self.asm.vpsrlq_imm(T0, S0, sh);
            T0
        };
        if m == u64::MAX {
            v
        } else {
            let mr = self.creg(m);
            self.asm.vpand(T0, v, mr);
            T0
        }
    }

    /// An operand read: a bank register when `slot` is a live binding
    /// (consuming one of its remaining uses), otherwise a load into
    /// `into`.
    fn opr(&mut self, slot: u32, base: usize, into: Ymm) -> Ymm {
        for (i, b) in self.binds.iter_mut().enumerate() {
            if let Some(bd) = b {
                if bd.slot == slot {
                    bd.rem = bd.rem.saturating_sub(1);
                    return BANK[i];
                }
            }
        }
        self.load(into, slot, base);
        into
    }

    /// Stores a narrow lane group (masked when the group is a ragged
    /// tail).
    fn nstore(&mut self, slot: u32, base: usize, tail: bool, src: Ymm) {
        let disp = self.disp(slot, base);
        if tail {
            self.asm.vpmaskmovq_store(Reg::Rdi, disp, TAILM, src);
        } else if disp % 32 == 0 {
            self.asm.vmovdqa_store(Reg::Rdi, disp, src);
        } else {
            self.asm.vmovdqu_store(Reg::Rdi, disp, src);
        }
    }

    /// Picks the bank register for the next result: a free one, else one
    /// whose value has no remaining readers, else an eviction — spilling
    /// the victim to its slot first if its unstored value is still
    /// needed. Prefers victims the current instruction does not read
    /// (`srcs`), so its operands stay in registers through the recipe.
    fn pick_res(&mut self, srcs: &[u32], base: usize, tail: bool) -> usize {
        let scan = |from: usize, pred: &dyn Fn(&Option<Bind>) -> bool| {
            (0..BANK.len())
                .map(|k| (from + k) % BANK.len())
                .find(|&i| pred(&self.binds[i]))
        };
        let i = scan(self.bnext, &|b| b.is_none())
            .or_else(|| scan(self.bnext, &|b| b.is_some_and(|bd| bd.rem == 0)))
            .or_else(|| {
                scan(self.bnext, &|b| {
                    b.is_some_and(|bd| !srcs.contains(&bd.slot))
                })
            })
            .unwrap_or(self.bnext);
        if let Some(bd) = self.binds[i] {
            if bd.rem > 0 && !bd.stored {
                self.nstore(bd.slot, base, tail, BANK[i]);
            }
        }
        self.binds[i] = None;
        self.bnext = (i + 1) % BANK.len();
        i
    }

    /// A register holding `splat(c)`, loaded from the pool on cache miss.
    ///
    /// The returned register stays valid only until the next `creg` call
    /// (the rotation may evict it); a recipe that holds a constant across
    /// another `creg` call must re-request it.
    fn creg(&mut self, c: u64) -> Ymm {
        for (i, v) in self.cregs.iter().enumerate() {
            if *v == Some(c) {
                return Ymm(6 + i as u8);
            }
        }
        let i = self.next;
        self.next = (self.next + 1) % self.cregs.len();
        self.cregs[i] = Some(c);
        let reg = Ymm(6 + i as u8);
        let idx = self.pool.word(c);
        let pos = self.asm.vpbroadcastq_rip(reg);
        self.pool.fixups.push((pos, idx));
        reg
    }

    /// `dest = sxt(src, s)` — sign-extend from width `64 - s` via the
    /// xor/sub bias trick (valid because stored values are pre-masked).
    /// With `s == 0` this is a plain register move.
    fn sign_extend(&mut self, src: Ymm, s: u32, dest: Ymm) {
        if s == 0 {
            if src != dest {
                self.asm.vmovdqa_rr(dest, src);
            }
            return;
        }
        let bias = self.creg(1u64 << (63 - s));
        self.asm.vpxor(dest, src, bias);
        self.asm.vpsubq(dest, dest, bias);
    }

    /// Full 64×64→low-64 multiply from three `vpmuludq` partials.
    /// `out`/`t1`/`t2` must be distinct from `x` and `y`.
    fn mul64(&mut self, x: Ymm, y: Ymm, out: Ymm, t1: Ymm, t2: Ymm) {
        self.asm.vpmuludq(out, x, y);
        self.asm.vpsrlq_imm(t1, x, 32);
        self.asm.vpmuludq(t1, t1, y);
        self.asm.vpsrlq_imm(t2, y, 32);
        self.asm.vpmuludq(t2, x, t2);
        self.asm.vpaddq(t1, t1, t2);
        self.asm.vpsllq_imm(t1, t1, 32);
        self.asm.vpaddq(out, out, t1);
    }

    /// `res = src & splat(mask)`, skipping the AND when the mask is full.
    fn mask_into_res(&mut self, src: Ymm, mask: u64) {
        if mask == u64::MAX {
            if src != self.res {
                self.asm.vmovdqa_rr(self.res, src);
            }
        } else {
            let m = self.creg(mask);
            self.asm.vpand(self.res, src, m);
        }
    }

    /// The signed/unsigned multiply product (pre-`mmask`/`mask`) into
    /// `T0`, shared by `MulU`/`MulS`/`MacU`/`MacS`. `pmask` is the mask
    /// the caller will apply to the product: when it keeps at most 32
    /// bits, the low dword of the full product depends only on the low
    /// operand dwords, so a single `vpmuludq` suffices (and operand
    /// sign-extension matters only when it reaches into those dwords).
    fn emit_mul(&mut self, x: Ymm, y: Ymm, sa: u32, sb: u32, pmask: u64) {
        if pmask <= u64::from(u32::MAX) {
            let xr = if sa > 32 {
                self.sign_extend(x, sa, T3);
                T3
            } else {
                x
            };
            let yr = if sb > 32 {
                self.sign_extend(y, sb, T4);
                T4
            } else {
                y
            };
            self.asm.vpmuludq(T0, xr, yr);
        } else {
            self.sign_extend(x, sa, T3);
            self.sign_extend(y, sb, T4);
            self.mul64(T3, T4, T0, T1, T2);
        }
    }

    /// Emits one lane group's worth of every instruction in the chunk
    /// (store-masked when `tail` names a ragged lane count). Narrow
    /// results go to plan-allocated bank registers and reach the lane
    /// store only when the plan says a reader outside the chunk needs
    /// them; wide-destination instructions store their own words and
    /// leave the bank untouched.
    fn emit_group(&mut self, instrs: &[Instr], plan: &[Option<IPlan>], base: usize, tail: bool) {
        self.binds = [None; 4];
        for (p, ins) in instrs.iter().enumerate() {
            if self.try_emit_wide(ins, base, tail) {
                continue;
            }
            let ip = plan[p]
                .as_ref()
                .expect("narrow-destination instruction has a plan entry");
            let srcs = nsrcs(ins);
            let slot = self.pick_res(&srcs, base, tail);
            self.res = BANK[slot];
            let dst = self.emit_instr(ins, base);
            if ip.store {
                self.nstore(dst, base, tail, self.res);
            }
            // A redefinition invalidates any older binding of the slot.
            for b in &mut self.binds {
                if b.is_some_and(|bd| bd.slot == dst) {
                    *b = None;
                }
            }
            self.binds[slot] = Some(Bind {
                slot: dst,
                rem: ip.uses,
                stored: ip.store,
            });
        }
    }

    /// The wide-destination recipes: each stores every destination word
    /// itself and must not write a bank register (so narrow forwarding
    /// survives it). Returns `false` for anything with a narrow
    /// destination.
    fn try_emit_wide(&mut self, ins: &Instr, base: usize, tail: bool) -> bool {
        match *ins {
            Instr::MuxW { sel, t, f, dst } => {
                let selv = self.opr(sel, base, S0);
                let z = self.creg(0);
                // Lane-consistent byte mask: all-ones where sel == 0,
                // picking `f`; persists in T2 across the word loop.
                self.asm.vpcmpeqq(T2, selv, z);
                for w in 0..self.nwords(dst) {
                    self.wload(S0, t, w, base);
                    self.wload(S1, f, w, base);
                    self.asm.vpblendvb(T1, S0, S1, T2);
                    self.wstore(dst, w, base, tail, T1);
                }
            }
            Instr::SliceWW { src, dst, lo } => {
                let dwords = self.nwords(dst);
                for w in 0..dwords {
                    // Only the top word needs the invariant-zero mask; the
                    // funnel read can drag in source bits above the slice.
                    let m = if w + 1 == dwords {
                        self.wlay.tail_mask(dst)
                    } else {
                        u64::MAX
                    };
                    let v = self.wfunnel(src, lo + 64 * w as u32, m, base);
                    self.wstore(dst, w, base, tail, v);
                }
            }
            Instr::ConcatWNN {
                hi,
                lo,
                dst,
                hi_w: _,
                lo_w,
            } => {
                let lov = self.opr(lo, base, T3);
                let hiv = self.opr(hi, base, T4);
                self.emit_concat_w(dst, WSrc::Narrow(hiv), WSrc::Narrow(lov), lo_w, base, tail);
            }
            Instr::ConcatWWN { hi, lo, dst, lo_w } => {
                let lov = self.opr(lo, base, T3);
                self.emit_concat_w(dst, WSrc::Wide(hi), WSrc::Narrow(lov), lo_w, base, tail);
            }
            Instr::ConcatWWW { hi, lo, dst, lo_w } => {
                self.emit_concat_w(dst, WSrc::Wide(hi), WSrc::Wide(lo), lo_w, base, tail);
            }
            Instr::ConcatWNW {
                hi,
                lo,
                dst,
                hi_w: _,
                lo_w,
            } => {
                let hiv = self.opr(hi, base, T4);
                self.emit_concat_w(dst, WSrc::Narrow(hiv), WSrc::Wide(lo), lo_w, base, tail);
            }
            _ => return false,
        }
        true
    }

    /// Wide concatenation: `dst = hi << lo_w | lo`, one destination word
    /// at a time. Both halves are pre-masked to their widths (narrow by
    /// the store invariant, wide by the top-word invariant) and a concat
    /// exactly fills its destination, so no output masking is needed —
    /// every bit above the payload arrives as zero. Narrow halves sit in
    /// registers (`T3`/`T4`, possibly a bound bank register); wide halves
    /// load per word into `S1`.
    fn emit_concat_w(&mut self, dst: u32, hi: WSrc, lo: WSrc, lo_w: u32, base: usize, tail: bool) {
        let base_w = (lo_w / 64) as usize;
        let sh = lo_w % 64;
        let swords = match hi {
            WSrc::Wide(s) => self.nwords(s),
            WSrc::Narrow(_) => 1,
        };
        for w in 0..self.nwords(dst) {
            // Accumulate this word's terms in T0.
            let mut have = false;
            match lo {
                WSrc::Narrow(r) => {
                    // A narrow low half (≤ 64 bits at offset 0) only
                    // reaches word 0.
                    if w == 0 {
                        self.asm.vmovdqa_rr(T0, r);
                        have = true;
                    }
                }
                WSrc::Wide(s) => {
                    if w < self.nwords(s) {
                        self.wload(T0, s, w, base);
                        have = true;
                    }
                }
            }
            // The hi word overlapping from below: hi[w - base_w] << sh.
            if w >= base_w && w - base_w < swords {
                let v = match hi {
                    WSrc::Wide(s) => {
                        self.wload(S1, s, w - base_w, base);
                        S1
                    }
                    WSrc::Narrow(r) => r,
                };
                if sh == 0 {
                    if have {
                        self.asm.vpor(T0, T0, v);
                    } else {
                        self.asm.vmovdqa_rr(T0, v);
                    }
                } else {
                    self.asm.vpsllq_imm(T1, v, sh);
                    if have {
                        self.asm.vpor(T0, T0, T1);
                    } else {
                        self.asm.vmovdqa_rr(T0, T1);
                    }
                }
                have = true;
            }
            // The spill from the word below: hi[w - base_w - 1] >> (64-sh).
            if sh != 0 && w > base_w && w - base_w - 1 < swords {
                let v = match hi {
                    WSrc::Wide(s) => {
                        self.wload(S1, s, w - base_w - 1, base);
                        S1
                    }
                    WSrc::Narrow(r) => r,
                };
                self.asm.vpsrlq_imm(T1, v, 64 - sh);
                if have {
                    self.asm.vpor(T0, T0, T1);
                } else {
                    self.asm.vmovdqa_rr(T0, T1);
                }
                have = true;
            }
            if have {
                self.wstore(dst, w, base, tail, T0);
            } else {
                let z = self.creg(0);
                self.wstore(dst, w, base, tail, z);
            }
        }
    }

    /// One instruction's vector recipe: operands in, result in the bank
    /// register `self.res`. Every recipe writes `res` terminally — after
    /// every read of an operand other than the accumulator itself — so
    /// `res` may alias any source operand (including a bank register the
    /// rotation is about to reuse). Returns the destination slot.
    #[allow(clippy::too_many_lines)]
    fn emit_instr(&mut self, ins: &Instr, base: usize) -> u32 {
        const MAX: u64 = u64::MAX;
        let rr = self.res;
        match *ins {
            Instr::CopyMask { a, dst, mask } => {
                let x = self.opr(a, base, S0);
                self.mask_into_res(x, mask);
                dst
            }
            Instr::Not { a, dst, mask } => {
                // `(!x) & mask` is exactly vpandn — the mask also clears
                // the garbage above the width that the NOT introduced.
                let x = self.opr(a, base, S0);
                let m = self.creg(mask);
                self.asm.vpandn(rr, x, m);
                dst
            }
            Instr::Neg { a, dst, mask } => {
                let x = self.opr(a, base, S0);
                let z = self.creg(0);
                self.asm.vpsubq(T0, z, x);
                self.mask_into_res(T0, mask);
                dst
            }
            Instr::RedOr { a, dst } => {
                let x = self.opr(a, base, S0);
                let z = self.creg(0);
                self.asm.vpcmpeqq(T0, x, z);
                let one = self.creg(1);
                self.asm.vpandn(rr, T0, one);
                dst
            }
            Instr::RedAnd { a, dst, ones } => {
                let x = self.opr(a, base, S0);
                let o = self.creg(ones);
                self.asm.vpcmpeqq(T0, x, o);
                self.asm.vpsrlq_imm(rr, T0, 63);
                dst
            }
            Instr::RedXor { a, dst } => {
                // Parity by xor-folding the halves down to bit 0.
                let x = self.opr(a, base, S0);
                self.asm.vpsrlq_imm(T1, x, 32);
                self.asm.vpxor(T0, x, T1);
                for sh in [16, 8, 4, 2, 1] {
                    self.asm.vpsrlq_imm(T1, T0, sh);
                    self.asm.vpxor(T0, T0, T1);
                }
                let one = self.creg(1);
                self.asm.vpand(rr, T0, one);
                dst
            }
            Instr::Add { a, b, dst, mask } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                if mask == MAX {
                    self.asm.vpaddq(rr, x, y);
                } else {
                    self.asm.vpaddq(T0, x, y);
                    self.mask_into_res(T0, mask);
                }
                dst
            }
            Instr::Sub { a, b, dst, mask } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                if mask == MAX {
                    self.asm.vpsubq(rr, x, y);
                } else {
                    self.asm.vpsubq(T0, x, y);
                    self.mask_into_res(T0, mask);
                }
                dst
            }
            Instr::And { a, b, dst } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.asm.vpand(rr, x, y);
                dst
            }
            Instr::Or { a, b, dst } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.asm.vpor(rr, x, y);
                dst
            }
            Instr::Xor { a, b, dst } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.asm.vpxor(rr, x, y);
                dst
            }
            Instr::Eq { a, b, dst } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.asm.vpcmpeqq(T0, x, y);
                self.asm.vpsrlq_imm(rr, T0, 63);
                dst
            }
            Instr::Ne { a, b, dst } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.asm.vpcmpeqq(T0, x, y);
                let one = self.creg(1);
                self.asm.vpandn(rr, T0, one);
                dst
            }
            Instr::LtU { a, b, dst } => {
                // No unsigned quad compare in AVX2: flip both sign bits
                // and use the signed one.
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                let sf = self.creg(1 << 63);
                self.asm.vpxor(T0, x, sf);
                self.asm.vpxor(T1, y, sf);
                self.asm.vpcmpgtq(T0, T1, T0);
                self.asm.vpsrlq_imm(rr, T0, 63);
                dst
            }
            Instr::LeU { a, b, dst } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                let sf = self.creg(1 << 63);
                self.asm.vpxor(T0, x, sf);
                self.asm.vpxor(T1, y, sf);
                self.asm.vpcmpgtq(T0, T0, T1);
                let one = self.creg(1);
                self.asm.vpandn(rr, T0, one);
                dst
            }
            Instr::LtS { a, b, dst, s } => {
                // Pre-masked operands shifted left by `s` have zero low
                // bits, so comparing the shifted values as i64 equals
                // comparing their sign extensions.
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.asm.vpsllq_imm(T0, x, s);
                self.asm.vpsllq_imm(T1, y, s);
                self.asm.vpcmpgtq(T0, T1, T0);
                self.asm.vpsrlq_imm(rr, T0, 63);
                dst
            }
            Instr::LeS { a, b, dst, s } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.asm.vpsllq_imm(T0, x, s);
                self.asm.vpsllq_imm(T1, y, s);
                self.asm.vpcmpgtq(T0, T0, T1);
                let one = self.creg(1);
                self.asm.vpandn(rr, T0, one);
                dst
            }
            Instr::Shl {
                a,
                b,
                dst,
                width: _,
                mask,
            } => {
                // vpsllvq zeroes for counts ≥ 64; counts in
                // [width, 64) push every (pre-masked) bit above the
                // width, which the mask then clears — so post-masking
                // alone reproduces the saturation rule.
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                if mask == MAX {
                    self.asm.vpsllvq(rr, x, y);
                } else {
                    self.asm.vpsllvq(T0, x, y);
                    self.mask_into_res(T0, mask);
                }
                dst
            }
            Instr::ShrL {
                a,
                b,
                dst,
                width: _,
            } => {
                // Pre-masked x already right-shifts to zero at any count
                // ≥ width, and vpsrlvq zeroes counts ≥ 64.
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.asm.vpsrlvq(rr, x, y);
                dst
            }
            Instr::ShrA {
                a,
                b,
                dst,
                width: _,
                s,
                mask,
            } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                // xs = sxt(x, s)
                self.sign_extend(x, s, T0);
                // n = min(amt, 63), unsigned.
                let sf = self.creg(1 << 63);
                self.asm.vpxor(T1, y, sf);
                let c63f = self.creg(63 ^ (1 << 63));
                self.asm.vpcmpgtq(T1, T1, c63f);
                let c63 = self.creg(63);
                self.asm.vpblendvb(T1, y, c63, T1);
                // Arithmetic shift composed from logical ones:
                // sra(v, n) = (srl(v, n) ^ m) - m with m = srl(2^63, n).
                // Re-request the sign-bit splat: two creg calls sit
                // between here and the first request, so its register may
                // have been rotated out.
                let sf = self.creg(1 << 63);
                self.asm.vpsrlvq(T2, sf, T1);
                self.asm.vpsrlvq(T3, T0, T1);
                self.asm.vpxor(T3, T3, T2);
                if mask == MAX {
                    self.asm.vpsubq(rr, T3, T2);
                } else {
                    self.asm.vpsubq(T3, T3, T2);
                    self.mask_into_res(T3, mask);
                }
                dst
            }
            Instr::MulU { a, b, dst, mask } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.emit_mul(x, y, 0, 0, mask);
                self.mask_into_res(T0, mask);
                dst
            }
            Instr::MulS {
                a,
                b,
                dst,
                sa,
                sb,
                mask,
            } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.emit_mul(x, y, sa, sb, mask);
                self.mask_into_res(T0, mask);
                dst
            }
            Instr::MacU {
                a,
                b,
                c,
                dst,
                mmask,
                mask,
            } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.emit_mul(x, y, 0, 0, mmask);
                if mmask != MAX {
                    let m = self.creg(mmask);
                    self.asm.vpand(T0, T0, m);
                }
                let z = self.opr(c, base, T1);
                if mask == MAX {
                    self.asm.vpaddq(rr, T0, z);
                } else {
                    self.asm.vpaddq(T0, T0, z);
                    self.mask_into_res(T0, mask);
                }
                dst
            }
            Instr::MacS {
                a,
                b,
                c,
                dst,
                sa,
                sb,
                mmask,
                mask,
            } => {
                let x = self.opr(a, base, S0);
                let y = self.opr(b, base, S1);
                self.emit_mul(x, y, sa, sb, mmask);
                if mmask != MAX {
                    let m = self.creg(mmask);
                    self.asm.vpand(T0, T0, m);
                }
                let z = self.opr(c, base, T1);
                if mask == MAX {
                    self.asm.vpaddq(rr, T0, z);
                } else {
                    self.asm.vpaddq(T0, T0, z);
                    self.mask_into_res(T0, mask);
                }
                dst
            }
            Instr::MuxN { sel, t, f, dst } => {
                let s_ = self.opr(sel, base, S0);
                let tv = self.opr(t, base, S1);
                let fv = self.opr(f, base, T0);
                let z = self.creg(0);
                self.asm.vpcmpeqq(T1, s_, z);
                // Lane-consistent byte mask: all-ones where sel == 0,
                // picking `f`.
                self.asm.vpblendvb(rr, tv, fv, T1);
                dst
            }
            Instr::SelN {
                kind,
                a,
                b,
                s,
                t,
                f,
                dst,
            } => {
                let av = self.opr(a, base, S0);
                let bv = self.opr(b, base, S1);
                // T0 = compare mask; `swap` records whether mask-true
                // picks `f` (for the negated kinds) instead of `t`.
                let swap = match kind {
                    CmpKind::Eq => {
                        self.asm.vpcmpeqq(T0, av, bv);
                        false
                    }
                    CmpKind::Ne => {
                        self.asm.vpcmpeqq(T0, av, bv);
                        true
                    }
                    CmpKind::LtU => {
                        let sf = self.creg(1 << 63);
                        self.asm.vpxor(T0, av, sf);
                        self.asm.vpxor(T1, bv, sf);
                        self.asm.vpcmpgtq(T0, T1, T0);
                        false
                    }
                    CmpKind::LtS => {
                        self.asm.vpsllq_imm(T0, av, s);
                        self.asm.vpsllq_imm(T1, bv, s);
                        self.asm.vpcmpgtq(T0, T1, T0);
                        false
                    }
                    CmpKind::LeU => {
                        let sf = self.creg(1 << 63);
                        self.asm.vpxor(T0, av, sf);
                        self.asm.vpxor(T1, bv, sf);
                        self.asm.vpcmpgtq(T0, T0, T1);
                        true
                    }
                    CmpKind::LeS => {
                        self.asm.vpsllq_imm(T0, av, s);
                        self.asm.vpsllq_imm(T1, bv, s);
                        self.asm.vpcmpgtq(T0, T0, T1);
                        true
                    }
                };
                let tv = self.opr(t, base, T1);
                let fv = self.opr(f, base, T2);
                if swap {
                    self.asm.vpblendvb(rr, tv, fv, T0);
                } else {
                    self.asm.vpblendvb(rr, fv, tv, T0);
                }
                dst
            }
            Instr::ConcatN { hi, lo, dst, lo_w } => {
                let h = self.opr(hi, base, S0);
                let lo_ = self.opr(lo, base, S1);
                self.asm.vpsllq_imm(T0, h, lo_w);
                self.asm.vpor(rr, T0, lo_);
                dst
            }
            Instr::SliceN { a, dst, lo, mask } => {
                let x = self.opr(a, base, S0);
                if mask == MAX {
                    self.asm.vpsrlq_imm(rr, x, lo);
                } else {
                    self.asm.vpsrlq_imm(T0, x, lo);
                    self.mask_into_res(T0, mask);
                }
                dst
            }
            Instr::SExtN { a, dst, s, mask } => {
                let x = self.opr(a, base, S0);
                if mask == MAX {
                    self.sign_extend(x, s, rr);
                } else {
                    self.sign_extend(x, s, T0);
                    self.mask_into_res(T0, mask);
                }
                dst
            }
            Instr::ShlI { a, dst, sh, mask } => {
                let x = self.opr(a, base, S0);
                if mask == MAX {
                    self.asm.vpsllq_imm(rr, x, sh);
                } else {
                    self.asm.vpsllq_imm(T0, x, sh);
                    self.mask_into_res(T0, mask);
                }
                dst
            }
            Instr::SraI {
                a,
                dst,
                sh,
                s,
                mask,
            } => {
                let x = self.opr(a, base, S0);
                self.sign_extend(x, s, T0);
                if sh > 0 {
                    // Constant-count arithmetic shift via the same
                    // xor/sub composition as ShrA.
                    self.asm.vpsrlq_imm(T0, T0, sh);
                    let b2 = self.creg(1u64 << (63 - sh));
                    self.asm.vpxor(T0, T0, b2);
                    self.asm.vpsubq(T0, T0, b2);
                }
                self.mask_into_res(T0, mask);
                dst
            }
            Instr::SliceW {
                src,
                dst,
                lo,
                width,
            } => {
                let v = self.wfunnel(src, lo, MAX, base);
                self.mask_into_res(v, nmask(width));
                dst
            }
            _ => unreachable!("emit_instr called on a non-vectorizable instruction"),
        }
    }
}

/// Emits one chunk: all lane groups fully unrolled, `vzeroupper; ret`.
/// Returns the chunk's code offset.
fn emit_chunk(
    asm: &mut Asm,
    pool: &mut Pool,
    instrs: &[Instr],
    lanes: usize,
    wlay: &WideLayout,
    ext: &ExtLive,
) -> usize {
    let off = asm.len();
    let groups = lanes / 4;
    let tail = lanes % 4;
    let plan = plan_chunk(instrs, ext);
    let mut ctx = Ctx {
        asm,
        pool,
        lanes,
        wlay,
        cregs: [None; 4],
        next: 0,
        binds: [None; 4],
        bnext: 0,
        res: BANK[0],
    };
    if tail > 0 {
        let idx = ctx.pool.tail(tail);
        let pos = ctx.asm.vmovdqu_rip(TAILM);
        ctx.pool.fixups.push((pos, idx));
    }
    // One lane group's code runs as a real loop: both base pointers
    // advance 32 bytes (four lanes) per iteration, so every displacement
    // is computed for group 0 and stays valid — including its 32-byte
    // alignment, since both stores are 32-byte aligned. Keeping the body
    // to a single group's code (instead of unrolling every group) is what
    // lets large cones run from the instruction cache.
    if groups > 0 {
        ctx.asm.mov_imm(Reg::Rcx, groups as u64);
        let top = ctx.asm.len();
        ctx.emit_group(instrs, &plan, 0, false);
        ctx.asm.add_imm8(Reg::Rdi, 32);
        ctx.asm.add_imm8(Reg::Rsi, 32);
        ctx.asm.dec32(Reg::Rcx);
        ctx.asm.jnz_back(top);
    }
    // The ragged tail reads whatever the loop left in `rdi`/`rsi` — both
    // already point at its first lane.
    if tail > 0 {
        ctx.emit_group(instrs, &plan, 0, true);
    }
    asm.vzeroupper();
    asm.ret();
    off
}
