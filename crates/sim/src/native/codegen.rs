//! Chunked translation of tape instructions to x86-64.
//!
//! Every narrow (≤ 64-bit) tape instruction maps to a short, fixed
//! register-allocation sequence over the word-packed slot store behind
//! `rdi`, and every wide bit-manipulation instruction (slices, concats,
//! muxes, extensions, equality) unrolls into word loads and stores over
//! the engine's flat wide store behind `rsi` (see [`WideLayout`]). The
//! only instructions left to the tape interpreter are division
//! (microcoded), memory reads (they index a separate backing store), and
//! the generic `eval_pure` fallback.
//!
//! Runs of parts (see `crate::tapeopt`) the emitter covers entirely compile
//! into one function that also does the part loop's work inline
//! ([`compile_run`]). A part that mixes both worlds is split into
//! **chunks**: maximal supported runs become straight-line native
//! functions and interposed unsupported runs interpret, both over the same
//! two stores (jit-supported runs shorter than [`MIN_JIT_RUN`] are folded
//! into their interpreted neighbors — a call costs more than interpreting
//! a couple of instructions).
//!
//! The generated code reproduces `CompiledSimulator::eval_range` bit for
//! bit, including the shared corner cases: shift amounts at or beyond the
//! operand width (`cmp`+`cmov` saturation for `shl`/`shr`, a clamp to 63
//! for arithmetic right shifts, which is equivalent because the value is
//! already sign-extended from its declared width), sign extension via
//! `shl`+`sar` pairs, post-op masking to the destination width, and the
//! zero-top-word invariant of every wide value.
//!
//! Within a native chunk the emitter tracks which narrow slot the previous
//! instruction left in `rax` (`acc` below) and elides the reload when the
//! next instruction consumes it — the dependent-op chains the tape
//! optimizer produces (`Mac` chains especially) otherwise pay a load per
//! link.

use super::asm::{Asm, Cc, Reg};
use crate::compiled::ActLayout;
use crate::lower::{mask, CmpKind, Instr, Loc, Lowered, WideLayout};

/// The emitter's addressing of a one-lane wide store, base pointer in
/// `rsi`.
impl WideLayout {
    /// Byte displacement of word `word` of slot `slot` from `rsi`.
    fn disp(&self, slot: u32, word: u32) -> i32 {
        let off = (self.base(slot) as i64 + i64::from(word)) * 8;
        i32::try_from(off).expect("wide word offset exceeds disp32")
    }

    /// Byte displacement of the byte containing bit `bit` of slot `slot`
    /// from `rsi` (the bit offset floored to its byte).
    fn byte_disp(&self, slot: u32, bit: u32) -> i32 {
        let off = self.base(slot) as i64 * 8 + i64::from(bit / 8);
        i32::try_from(off).expect("wide byte offset exceeds disp32")
    }
}

/// One chunk of a part's execution plan.
#[derive(Debug)]
pub(crate) enum StepPlan {
    /// Native code at byte offset `off` in the assembler buffer.
    Jit { off: usize },
    /// Interpret `tape[start..end]`.
    Interp { start: u32, end: u32 },
}

/// What generated part code needs to do the part loop's bookkeeping
/// inline (see `CompiledSimulator::run_part`).
pub(crate) struct PartBooks<'a> {
    pub low: &'a Lowered,
    /// Where the activity array keeps the pending bitset and the run
    /// counter.
    pub act: ActLayout,
    /// Per narrow slot: its index among `low.bound.items()`, or
    /// `u32::MAX` for a slot no later part reads.
    pub bound_at: Vec<u32>,
}

impl PartBooks<'_> {
    pub fn new(low: &Lowered, act: ActLayout) -> PartBooks<'_> {
        let mut bound_at = vec![u32::MAX; low.narrow_init.len()];
        for (j, &s) in low.bound.items().iter().enumerate() {
            bound_at[s as usize] = j as u32;
        }
        PartBooks { low, act, bound_at }
    }

    /// Whether the emitter covers every instruction of part `k`.
    pub fn native(&self, k: usize) -> bool {
        let seg = self.low.parts[k];
        let body = &self.low.tape[seg.start as usize..seg.end as usize];
        !body.is_empty() && body.iter().all(supported)
    }
}

/// Byte displacement of word `w` of the activity array from `r10`.
fn act_disp(w: usize) -> i32 {
    i32::try_from(w * 8).expect("activity offset exceeds disp32")
}

/// `or`s bits `base + b` for each `b` into the bitset at `r10`: one
/// `or` per touched word (an `imm32` when the mask sign-extends, through
/// `r11` otherwise).
fn mark_bits(a: &mut Asm, base: usize, bits: &[u32]) {
    let mut at: Vec<usize> = bits.iter().map(|&b| base + b as usize).collect();
    at.sort_unstable();
    let mut i = 0;
    while i < at.len() {
        let word = at[i] / 64;
        let mut m = 0u64;
        while i < at.len() && at[i] / 64 == word {
            m |= 1 << (at[i] % 64);
            i += 1;
        }
        if m < 1 << 31 {
            a.or_mem_imm32(Reg::R10, act_disp(word), m as i32);
        } else {
            a.mov_imm(Reg::R11, m);
            a.or_mem_r(Reg::R10, act_disp(word), Reg::R11);
        }
    }
}

/// Emits parts `first..end`, every one covered by the emitter (see
/// [`PartBooks::native`]), as one function with an entry (a
/// [`super::exec::PartEntry`]) per part, so the part loop enters the run
/// at its first dirty part. The code does the part loop's work inline:
/// a part runs only when its dirty bit is set (a whole word of clean
/// parts costs one compare), clears the bit and counts itself; each
/// boundary slot's old value is kept in `r11` across its defining
/// instruction, and when it changed the parts reading it are marked dirty
/// (base of the activity array in `r10`); the registers the part feeds
/// are marked pending at its end. Straight-line code per part replaces
/// the interpreter-side loop's indirect call and variable-length
/// bookkeeping loops, whose mispredicted branches dominate a small part's
/// cost. Returns each part's entry offset.
pub(crate) fn compile_run(
    a: &mut Asm,
    lay: &WideLayout,
    books: &PartBooks,
    first: usize,
    end: usize,
) -> Vec<usize> {
    let low = books.low;
    let mut starts = Vec::with_capacity(end - first);
    let mut k = first;
    while k < end {
        let word = k / 64;
        let word_end = end.min((word + 1) * 64);
        // Entering mid-word skips this test: the entry's own bit is set.
        let word_test = a.len();
        a.cmp_mem_imm8(Reg::R10, act_disp(word), 0);
        let clean_word = a.jcc_forward(Cc::E);
        for k in k..word_end {
            starts.push(if k == first || k % 64 == 0 {
                word_test
            } else {
                a.len()
            });
            a.bt_mem(Reg::R10, act_disp(word), (k % 64) as u32);
            let clean = a.jcc_forward(Cc::Ae);
            a.btr_mem(Reg::R10, act_disp(word), (k % 64) as u32);
            a.add_mem_imm8(Reg::R10, act_disp(books.act.ran_at), 1);
            let seg = low.parts[k];
            let mut st = EmitState::new();
            for instr in &low.tape[seg.start as usize..seg.end as usize] {
                let watch = match crate::tapeopt::dst_loc(instr, &low.generic) {
                    Loc::N(slot) if books.bound_at[slot as usize] != u32::MAX => {
                        Some((slot, books.bound_at[slot as usize] as usize))
                    }
                    _ => None,
                };
                if let Some((slot, _)) = watch {
                    a.load(Reg::R11, d(slot));
                }
                emit(a, lay, instr, &mut st);
                if let Some((slot, j)) = watch {
                    a.cmp_r_mem(Reg::R11, Reg::Rdi, d(slot));
                    let same = a.jcc_forward(Cc::E);
                    mark_bits(a, 0, low.readers.row(j));
                    a.patch_jump(same);
                }
            }
            mark_bits(a, books.act.pend_at * 64, low.part_regs.row(k));
            a.patch_jump(clean);
        }
        a.patch_jump(clean_word);
        k = word_end;
    }
    a.ret();
    // The entries: load the activity base, then join the run.
    starts
        .into_iter()
        .map(|start| {
            let entry = a.len();
            a.mov_rr(Reg::R10, Reg::Rdx);
            a.jmp_back(start);
            entry
        })
        .collect()
}

/// Minimum length of a supported run worth its own native chunk when the
/// part also has unsupported instructions.
const MIN_JIT_RUN: usize = 4;

/// Whether the emitter covers this instruction.
fn supported(instr: &Instr) -> bool {
    !matches!(
        instr,
        Instr::DivU { .. }
            | Instr::RemU { .. }
            | Instr::MemReadN { .. }
            | Instr::MemReadW { .. }
            | Instr::Generic(_)
    )
}

/// Byte displacement of a narrow slot from the store base in `rdi`.
fn d(slot: u32) -> i32 {
    let off = i64::from(slot) * 8;
    i32::try_from(off).expect("narrow slot offset exceeds disp32")
}

/// Per-chunk emitter state threaded through [`emit`]: which narrow slot's
/// value is live in `rax` after the previous instruction (`acc`, `None`
/// when `rax` holds no slot) and which mask constant is parked in `r9`
/// (`mask9`). Both reset at chunk boundaries — the interpreter may run in
/// between and every register is caller-saved.
#[derive(Default)]
pub(crate) struct EmitState {
    acc: Option<u32>,
    mask9: Option<u64>,
}

impl EmitState {
    pub fn new() -> EmitState {
        EmitState::default()
    }
}

/// `dst &= mask` via the cheapest route: elided for all-ones, a 2-byte
/// `mov dst32, dst32` for exactly 2^32 − 1, `and imm32` when the mask
/// sign-extends, and otherwise a `movabs` into `r9` that stays cached for
/// the rest of the chunk — DSP datapaths repeat the same few wide masks
/// hundreds of times, so the 10-byte constant load amortizes to nothing.
fn msk(a: &mut Asm, st: &mut EmitState, dst: Reg, mask: u64) {
    if mask == u64::MAX {
        return;
    }
    if st.mask9 == Some(mask) {
        a.and_rr(dst, Reg::R9);
    } else if mask == u64::from(u32::MAX) {
        a.clear_upper32(dst);
    } else if mask as i64 == i64::from(mask as i64 as i32) {
        a.and_imm32(dst, mask as i32);
    } else {
        a.mov_imm(Reg::R9, mask);
        st.mask9 = Some(mask);
        a.and_rr(dst, Reg::R9);
    }
}

/// Sign-extend the value in `r` from `64 - s` bits (no-op when `s == 0`);
/// machine-size widths use the register form of `movsx`.
fn sxt(a: &mut Asm, r: Reg, s: u32) {
    match 64 - s {
        64 => {}
        w @ (8 | 16 | 32) => a.sx_reg(r, r, w),
        _ => {
            a.shl_imm(r, s);
            a.sar_imm(r, s);
        }
    }
}

/// Loads narrow slot `slot` into `r` sign-extended from `64 - s` bits,
/// folding machine-size extensions into the load itself.
fn ldx_noacc(a: &mut Asm, r: Reg, slot: u32, s: u32) {
    match 64 - s {
        w @ (8 | 16 | 32) => a.load_sx(Reg::Rdi, r, d(slot), w),
        _ => {
            a.load(r, d(slot));
            sxt(a, r, s);
        }
    }
}

/// [`ldx_noacc`] with `rax` reuse when `acc` already holds the slot.
fn ldx(a: &mut Asm, acc: Option<u32>, r: Reg, slot: u32, s: u32) {
    if acc == Some(slot) {
        if r != Reg::Rax {
            a.mov_rr(r, Reg::Rax);
        }
        sxt(a, r, s);
    } else {
        ldx_noacc(a, r, slot, s);
    }
}

/// Loads `x` sign-extended from `64 - sx` bits into `rax` and `y` from
/// `64 - sy` bits into `rcx`.
fn ld2x(a: &mut Asm, acc: Option<u32>, x: u32, sx: u32, y: u32, sy: u32) {
    if acc == Some(x) {
        sxt(a, Reg::Rax, sx);
        ldx_noacc(a, Reg::Rcx, y, sy);
    } else if acc == Some(y) {
        a.mov_rr(Reg::Rcx, Reg::Rax);
        sxt(a, Reg::Rcx, sy);
        ldx_noacc(a, Reg::Rax, x, sx);
    } else {
        ldx_noacc(a, Reg::Rax, x, sx);
        ldx_noacc(a, Reg::Rcx, y, sy);
    }
}

/// `dst = (a cmp b) as u64` for the six comparison shapes.
fn cmp_set(a: &mut Asm, cc: Cc) {
    a.xor_clear(Reg::Rdx);
    a.cmp_rr(Reg::Rax, Reg::Rcx);
    a.setcc(cc, Reg::Rdx);
}

/// Whether a signed comparison of `64 - s`-bit operands is cheaper on
/// left-shifted raw values than on sign-extended ones. Both operands are
/// stored masked, so `(x << s) as i64 == sxt(x) * 2^s` exactly — shifting
/// preserves signed order at one `shl` per operand, beating `shl`+`sar`.
/// Machine-size widths keep the `movsx` load, which is cheaper still.
fn shl_compares(s: u32) -> bool {
    s != 0 && !matches!(64 - s, 8 | 16 | 32)
}

/// Loads narrow slot `slot` into `r`, reusing `rax` when `acc` says the
/// value is already there.
fn ld(a: &mut Asm, acc: Option<u32>, r: Reg, slot: u32) {
    if acc == Some(slot) {
        if r != Reg::Rax {
            a.mov_rr(r, Reg::Rax);
        }
    } else {
        a.load(r, d(slot));
    }
}

/// Loads `x` into `rax` and `y` into `rcx` exactly (non-commutative ops).
fn ld2(a: &mut Asm, acc: Option<u32>, x: u32, y: u32) {
    if acc == Some(x) {
        a.load(Reg::Rcx, d(y));
    } else if acc == Some(y) {
        a.mov_rr(Reg::Rcx, Reg::Rax);
        a.load(Reg::Rax, d(x));
    } else {
        a.load(Reg::Rax, d(x));
        a.load(Reg::Rcx, d(y));
    }
}

/// Loads `{x, y}` into `{rax, rcx}` in either order (commutative ops).
fn ld2c(a: &mut Asm, acc: Option<u32>, x: u32, y: u32) {
    if acc == Some(x) {
        a.load(Reg::Rcx, d(y));
    } else if acc == Some(y) {
        a.load(Reg::Rcx, d(x));
    } else {
        a.load(Reg::Rax, d(x));
        a.load(Reg::Rcx, d(y));
    }
}

/// A wide instruction's operand: a narrow slot (with its declared width)
/// is a one-word value whose conceptual upper bits are all zero.
#[derive(Clone, Copy)]
enum WSrc {
    N(u32, u32),
    W(u32),
}

/// Loads storage word `k` of `src` into `reg`; returns `false` (emitting
/// nothing) when that word is statically zero.
fn src_word(a: &mut Asm, lay: &WideLayout, src: WSrc, k: u32, reg: Reg) -> bool {
    match src {
        WSrc::N(s, _) => {
            if k == 0 {
                a.load(reg, d(s));
                true
            } else {
                false
            }
        }
        WSrc::W(s) => {
            if k < lay.nwords(s) {
                a.load_from(Reg::Rsi, reg, lay.disp(s, k));
                true
            } else {
                false
            }
        }
    }
}

/// Loads bits `[t, t + need)` of `src` into `reg`, **zero above `need`**;
/// returns `false` (emitting nothing) when the window is statically zero.
///
/// Wide windows that fit the `64 - t%8` bits a single byte-aligned
/// (possibly unaligned) 8-byte load can deliver take the fast path: one
/// load, a sub-byte shift, and a mask — where the mask itself folds away
/// when the bits above the window are already zero by the stored-masked /
/// zero-top invariants, or folds into a `movzx` for machine-size windows.
/// The flat store carries one zeroed padding word ([`WideLayout::store_len`])
/// so the over-read at the very last slot stays in bounds; over-read bits
/// belonging to a *neighboring* slot are garbage and force the mask.
/// Wider windows fall back to a two-word funnel via `scratch`.
#[allow(clippy::too_many_arguments)]
fn src_bits(
    a: &mut Asm,
    st: &mut EmitState,
    lay: &WideLayout,
    src: WSrc,
    t: u32,
    need: u32,
    reg: Reg,
    scratch: Reg,
) -> bool {
    debug_assert!((1..=64).contains(&need));
    match src {
        WSrc::N(s, w) => {
            if t >= w {
                return false;
            }
            a.load(reg, d(s));
            a.shr_imm(reg, t);
            if t + need < w {
                msk(a, st, reg, mask(need));
            }
            true
        }
        WSrc::W(s) => {
            let width = lay.width(s);
            if t >= width {
                return false;
            }
            let total = lay.nwords(s) * 64;
            let sh = t % 8;
            let avail = 64 - sh;
            if need <= avail {
                // Correct low bits the load provides: everything past the
                // slot's storage words is a neighboring slot's data.
                let valid = (total - t).min(avail);
                if t + need >= width && t + avail <= total {
                    a.load_from(Reg::Rsi, reg, lay.byte_disp(s, t));
                    a.shr_imm(reg, sh);
                } else if sh == 0 && matches!(need, 8 | 16 | 32) && valid >= need {
                    a.load_zx(Reg::Rsi, reg, lay.byte_disp(s, t), need);
                } else {
                    a.load_from(Reg::Rsi, reg, lay.byte_disp(s, t));
                    a.shr_imm(reg, sh);
                    msk(a, st, reg, mask(need.min(valid)));
                }
                return true;
            }
            // Word-granularity funnel across the boundary.
            let k = t / 64;
            let sh64 = t % 64;
            let lo = src_word(a, lay, src, k, reg);
            if lo && sh64 > 0 {
                a.shr_imm(reg, sh64);
            }
            let mut have = lo;
            if sh64 > 0 && src_word(a, lay, src, k + 1, scratch) {
                a.shl_imm(scratch, 64 - sh64);
                if lo {
                    a.or_rr(reg, scratch);
                } else {
                    a.mov_rr(reg, scratch);
                }
                have = true;
            }
            if have && t + need < width {
                msk(a, st, reg, mask(need));
            }
            have
        }
    }
}

/// Emits a wide concatenation `dst = hi_src ++ lo_src` where `lo_src` is
/// `lo_w` bits wide and the two operands exactly cover `dst`'s width. The
/// shared skeleton behind all four `ConcatW*` shapes.
fn concat(
    a: &mut Asm,
    st: &mut EmitState,
    lay: &WideLayout,
    dst: u32,
    lo_src: WSrc,
    lo_w: u32,
    hi_src: WSrc,
) {
    let wd = lay.width(dst);
    for j in 0..lay.nwords(dst) {
        let pos = 64 * j;
        // Meaningful bits of this destination word; the high operand ends
        // exactly at `wd`, so the window never reaches past it.
        let bits = (wd - pos).min(64);
        let mut have = false;
        if pos < lo_w {
            have = src_word(a, lay, lo_src, j, Reg::Rax);
        }
        if pos + 64 > lo_w {
            let r = if have { Reg::Rcx } else { Reg::Rax };
            let got = if pos >= lo_w {
                src_bits(a, st, lay, hi_src, pos - lo_w, bits, r, Reg::Rdx)
            } else {
                // The low operand ends inside this word: splice the high
                // operand's first bits in above it.
                let g = src_word(a, lay, hi_src, 0, r);
                if g {
                    a.shl_imm(r, lo_w - pos);
                }
                g
            };
            if have && got {
                a.or_rr(Reg::Rax, Reg::Rcx);
            }
            have = have || got;
        }
        if !have {
            a.xor_clear(Reg::Rax);
        }
        a.store_to(Reg::Rsi, lay.disp(dst, j), Reg::Rax);
    }
}

/// Emits one tape instruction, threading the per-chunk [`EmitState`]
/// (`rax` slot tracking and the `r9` mask cache) across instructions.
///
/// # Panics
///
/// Unsupported instructions (see [`supported`]) are unreachable: the
/// chunker never routes them here.
#[allow(clippy::too_many_lines)]
pub(crate) fn emit(a: &mut Asm, lay: &WideLayout, instr: &Instr, st: &mut EmitState) {
    let acc0 = st.acc;
    st.acc = match *instr {
        Instr::CopyMask { a: s, dst, mask } => {
            ld(a, acc0, Reg::Rax, s);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::Not { a: s, dst, mask } => {
            ld(a, acc0, Reg::Rax, s);
            a.not(Reg::Rax);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::Neg { a: s, dst, mask } => {
            ld(a, acc0, Reg::Rax, s);
            a.neg(Reg::Rax);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::RedOr { a: s, dst } => {
            ld(a, acc0, Reg::Rax, s);
            a.xor_clear(Reg::Rcx);
            a.test_rr(Reg::Rax, Reg::Rax);
            a.setcc(Cc::Ne, Reg::Rcx);
            a.store(d(dst), Reg::Rcx);
            Some(s)
        }
        Instr::RedAnd { a: s, dst, ones } => {
            ld(a, acc0, Reg::Rax, s);
            a.mov_imm(Reg::Rdx, ones);
            a.xor_clear(Reg::Rcx);
            a.cmp_rr(Reg::Rax, Reg::Rdx);
            a.setcc(Cc::E, Reg::Rcx);
            a.store(d(dst), Reg::Rcx);
            Some(s)
        }
        Instr::RedXor { a: s, dst } => {
            // Parity by xor-folding halves down to one bit.
            ld(a, acc0, Reg::Rax, s);
            for sh in [32u32, 16, 8, 4, 2, 1] {
                a.mov_rr(Reg::Rcx, Reg::Rax);
                a.shr_imm(Reg::Rcx, sh);
                a.xor_rr(Reg::Rax, Reg::Rcx);
            }
            msk(a, st, Reg::Rax, 1);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::Add { a: s, b, dst, mask } => {
            ld2c(a, acc0, s, b);
            a.add_rr(Reg::Rax, Reg::Rcx);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::Sub { a: s, b, dst, mask } => {
            ld2(a, acc0, s, b);
            a.sub_rr(Reg::Rax, Reg::Rcx);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::MulS {
            a: s,
            b,
            dst,
            sa,
            sb,
            mask,
        } => {
            ld2x(a, acc0, s, sa, b, sb);
            a.imul_rr(Reg::Rax, Reg::Rcx);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::MulU { a: s, b, dst, mask } => {
            ld2c(a, acc0, s, b);
            a.imul_rr(Reg::Rax, Reg::Rcx);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::And { a: s, b, dst } => {
            ld2c(a, acc0, s, b);
            a.and_rr(Reg::Rax, Reg::Rcx);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::Or { a: s, b, dst } => {
            ld2c(a, acc0, s, b);
            a.or_rr(Reg::Rax, Reg::Rcx);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::Xor { a: s, b, dst } => {
            ld2c(a, acc0, s, b);
            a.xor_rr(Reg::Rax, Reg::Rcx);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::Eq { a: s, b, dst } => {
            ld2(a, acc0, s, b);
            cmp_set(a, Cc::E);
            a.store(d(dst), Reg::Rdx);
            Some(s)
        }
        Instr::Ne { a: s, b, dst } => {
            ld2(a, acc0, s, b);
            cmp_set(a, Cc::Ne);
            a.store(d(dst), Reg::Rdx);
            Some(s)
        }
        Instr::LtU { a: s, b, dst } => {
            ld2(a, acc0, s, b);
            cmp_set(a, Cc::B);
            a.store(d(dst), Reg::Rdx);
            Some(s)
        }
        Instr::LeU { a: s, b, dst } => {
            ld2(a, acc0, s, b);
            cmp_set(a, Cc::Be);
            a.store(d(dst), Reg::Rdx);
            Some(s)
        }
        Instr::LtS {
            a: s,
            b,
            dst,
            s: sx,
        } => {
            if shl_compares(sx) {
                ld2(a, acc0, s, b);
                a.shl_imm(Reg::Rax, sx);
                a.shl_imm(Reg::Rcx, sx);
            } else {
                ld2x(a, acc0, s, sx, b, sx);
            }
            cmp_set(a, Cc::L);
            a.store(d(dst), Reg::Rdx);
            if sx == 0 {
                Some(s)
            } else {
                None
            }
        }
        Instr::LeS {
            a: s,
            b,
            dst,
            s: sx,
        } => {
            if shl_compares(sx) {
                ld2(a, acc0, s, b);
                a.shl_imm(Reg::Rax, sx);
                a.shl_imm(Reg::Rcx, sx);
            } else {
                ld2x(a, acc0, s, sx, b, sx);
            }
            cmp_set(a, Cc::Le);
            a.store(d(dst), Reg::Rdx);
            if sx == 0 {
                Some(s)
            } else {
                None
            }
        }
        Instr::Shl {
            a: s,
            b,
            dst,
            width,
            mask,
        } => {
            // `shl` only sees the low 6 bits of the count, but any amount
            // at or beyond the width (including ≥ 64) is forced to zero by
            // the cmov, matching the interpreter.
            ld2(a, acc0, s, b);
            a.shl_cl(Reg::Rax);
            msk(a, st, Reg::Rax, mask);
            a.xor_clear(Reg::Rdx);
            a.cmp_imm(Reg::Rcx, width as i32);
            a.cmovcc(Cc::Ae, Reg::Rax, Reg::Rdx);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::ShrL {
            a: s,
            b,
            dst,
            width,
        } => {
            ld2(a, acc0, s, b);
            a.shr_cl(Reg::Rax);
            a.xor_clear(Reg::Rdx);
            a.cmp_imm(Reg::Rcx, width as i32);
            a.cmovcc(Cc::Ae, Reg::Rax, Reg::Rdx);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::ShrA {
            a: s,
            b,
            dst,
            width: _,
            s: sx,
            mask,
        } => {
            // The value is sign-extended to 64 bits first, so clamping the
            // count to 63 reproduces the `amt >= width → all-sign` rule.
            if acc0 == Some(s) {
                sxt(a, Reg::Rax, sx);
                a.load(Reg::Rcx, d(b));
            } else if acc0 == Some(b) {
                a.mov_rr(Reg::Rcx, Reg::Rax);
                ldx_noacc(a, Reg::Rax, s, sx);
            } else {
                ldx_noacc(a, Reg::Rax, s, sx);
                a.load(Reg::Rcx, d(b));
            }
            a.mov_imm(Reg::Rdx, 63);
            a.cmp_rr(Reg::Rcx, Reg::Rdx);
            a.cmovcc(Cc::A, Reg::Rcx, Reg::Rdx);
            a.sar_cl(Reg::Rax);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::MuxN { sel, t, f, dst } => {
            // Route whichever operand `rax` already holds first; the other
            // two load fresh.
            match acc0 {
                Some(x) if x == t => {
                    a.load(Reg::Rcx, d(sel));
                    a.load(Reg::Rdx, d(f));
                }
                Some(x) if x == f => {
                    a.mov_rr(Reg::Rdx, Reg::Rax);
                    a.load(Reg::Rcx, d(sel));
                    a.load(Reg::Rax, d(t));
                }
                Some(x) if x == sel => {
                    a.mov_rr(Reg::Rcx, Reg::Rax);
                    a.load(Reg::Rax, d(t));
                    a.load(Reg::Rdx, d(f));
                }
                _ => {
                    a.load(Reg::Rcx, d(sel));
                    a.load(Reg::Rax, d(t));
                    a.load(Reg::Rdx, d(f));
                }
            }
            a.test_rr(Reg::Rcx, Reg::Rcx);
            a.cmovcc(Cc::E, Reg::Rax, Reg::Rdx);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::ConcatN { hi, lo, dst, lo_w } => {
            ld2(a, acc0, hi, lo);
            a.shl_imm(Reg::Rax, lo_w);
            a.or_rr(Reg::Rax, Reg::Rcx);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::SliceN {
            a: s,
            dst,
            lo,
            mask,
        } => {
            ld(a, acc0, Reg::Rax, s);
            a.shr_imm(Reg::Rax, lo);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::SExtN {
            a: s,
            dst,
            s: sx,
            mask,
        } => {
            ldx(a, acc0, Reg::Rax, s, sx);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::MacS {
            a: s,
            b,
            c,
            dst,
            sa,
            sb,
            mmask,
            mask,
        } => {
            if acc0 == Some(c) {
                // Chain form: the accumulator is already live in `rax`, so
                // build the product beside it.
                ldx_noacc(a, Reg::Rcx, s, sa);
                ldx_noacc(a, Reg::Rdx, b, sb);
                a.imul_rr(Reg::Rcx, Reg::Rdx);
                msk(a, st, Reg::Rcx, mmask);
                a.add_rr(Reg::Rax, Reg::Rcx);
                msk(a, st, Reg::Rax, mask);
            } else {
                ld2x(a, acc0, s, sa, b, sb);
                a.imul_rr(Reg::Rax, Reg::Rcx);
                msk(a, st, Reg::Rax, mmask);
                a.load(Reg::Rcx, d(c));
                a.add_rr(Reg::Rax, Reg::Rcx);
                msk(a, st, Reg::Rax, mask);
            }
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::MacU {
            a: s,
            b,
            c,
            dst,
            mmask,
            mask,
        } => {
            if acc0 == Some(c) {
                a.load(Reg::Rcx, d(s));
                a.load(Reg::Rdx, d(b));
                a.imul_rr(Reg::Rcx, Reg::Rdx);
                msk(a, st, Reg::Rcx, mmask);
                a.add_rr(Reg::Rax, Reg::Rcx);
                msk(a, st, Reg::Rax, mask);
            } else {
                ld2c(a, acc0, s, b);
                a.imul_rr(Reg::Rax, Reg::Rcx);
                msk(a, st, Reg::Rax, mmask);
                a.load(Reg::Rcx, d(c));
                a.add_rr(Reg::Rax, Reg::Rcx);
                msk(a, st, Reg::Rax, mask);
            }
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::SelN {
            kind,
            a: s,
            b,
            s: sx,
            t,
            f,
            dst,
        } => {
            let cc = match kind {
                CmpKind::Eq => Cc::E,
                CmpKind::Ne => Cc::Ne,
                CmpKind::LtU => Cc::B,
                CmpKind::LeU => Cc::Be,
                CmpKind::LtS => Cc::L,
                CmpKind::LeS => Cc::Le,
            };
            // The comparison operands go through `r8`/`rdx`; `rdx` is dead
            // again once the `cmp` latches the flags.
            if matches!(kind, CmpKind::LtS | CmpKind::LeS) {
                if shl_compares(sx) {
                    ld(a, acc0, Reg::R8, s);
                    ld(a, acc0, Reg::Rdx, b);
                    a.shl_imm(Reg::R8, sx);
                    a.shl_imm(Reg::Rdx, sx);
                } else {
                    ldx(a, acc0, Reg::R8, s, sx);
                    ldx(a, acc0, Reg::Rdx, b, sx);
                }
            } else {
                ld(a, acc0, Reg::R8, s);
                ld(a, acc0, Reg::Rdx, b);
            }
            a.cmp_rr(Reg::R8, Reg::Rdx);
            // Plain moves preserve the flags until the cmov consumes them.
            match acc0 {
                Some(x) if x == t => a.load(Reg::Rdx, d(f)),
                Some(x) if x == f => {
                    a.mov_rr(Reg::Rdx, Reg::Rax);
                    a.load(Reg::Rax, d(t));
                }
                _ => {
                    a.load(Reg::Rax, d(t));
                    a.load(Reg::Rdx, d(f));
                }
            }
            a.cmovcc(cc.negate(), Reg::Rax, Reg::Rdx);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::ShlI {
            a: s,
            dst,
            sh,
            mask,
        } => {
            ld(a, acc0, Reg::Rax, s);
            a.shl_imm(Reg::Rax, sh);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::SraI {
            a: s,
            dst,
            sh,
            s: sx,
            mask,
        } => {
            ldx(a, acc0, Reg::Rax, s, sx);
            a.sar_imm(Reg::Rax, sh);
            msk(a, st, Reg::Rax, mask);
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::SliceW {
            src,
            dst,
            lo,
            width,
        } => {
            if !src_bits(a, st, lay, WSrc::W(src), lo, width, Reg::Rax, Reg::Rdx) {
                a.xor_clear(Reg::Rax);
            }
            a.store(d(dst), Reg::Rax);
            Some(dst)
        }
        Instr::SliceWW { src, dst, lo } => {
            let w = lay.width(dst);
            for j in 0..lay.nwords(dst) {
                let need = (w - 64 * j).min(64);
                if !src_bits(
                    a,
                    st,
                    lay,
                    WSrc::W(src),
                    lo + 64 * j,
                    need,
                    Reg::Rax,
                    Reg::Rdx,
                ) {
                    a.xor_clear(Reg::Rax);
                }
                a.store_to(Reg::Rsi, lay.disp(dst, j), Reg::Rax);
            }
            None
        }
        Instr::ConcatWNN {
            hi,
            lo,
            dst,
            hi_w,
            lo_w,
        } => {
            concat(a, st, lay, dst, WSrc::N(lo, lo_w), lo_w, WSrc::N(hi, hi_w));
            None
        }
        Instr::ConcatWWW { hi, lo, dst, lo_w } => {
            concat(a, st, lay, dst, WSrc::W(lo), lo_w, WSrc::W(hi));
            None
        }
        Instr::ConcatWWN { hi, lo, dst, lo_w } => {
            concat(a, st, lay, dst, WSrc::N(lo, lo_w), lo_w, WSrc::W(hi));
            None
        }
        Instr::ConcatWNW {
            hi,
            lo,
            dst,
            hi_w,
            lo_w,
        } => {
            concat(a, st, lay, dst, WSrc::W(lo), lo_w, WSrc::N(hi, hi_w));
            None
        }
        Instr::ZExtWN { a: s, dst, a_w: _ } => {
            ld(a, acc0, Reg::Rax, s);
            a.store_to(Reg::Rsi, lay.disp(dst, 0), Reg::Rax);
            a.xor_clear(Reg::Rcx);
            for j in 1..lay.nwords(dst) {
                a.store_to(Reg::Rsi, lay.disp(dst, j), Reg::Rcx);
            }
            Some(s)
        }
        Instr::SExtWN { a: s, dst, a_w } => {
            ld(a, acc0, Reg::Rax, s);
            // rcx = 0 or all-ones from the operand's sign bit.
            a.mov_rr(Reg::Rcx, Reg::Rax);
            a.shr_imm(Reg::Rcx, a_w - 1);
            a.neg(Reg::Rcx);
            if a_w == 64 {
                a.store_to(Reg::Rsi, lay.disp(dst, 0), Reg::Rax);
            } else {
                a.mov_rr(Reg::Rdx, Reg::Rcx);
                a.shl_imm(Reg::Rdx, a_w);
                a.or_rr(Reg::Rdx, Reg::Rax);
                a.store_to(Reg::Rsi, lay.disp(dst, 0), Reg::Rdx);
            }
            let nw = lay.nwords(dst);
            let tail = lay.tail_mask(dst);
            for j in 1..nw {
                if j == nw - 1 && tail != u64::MAX {
                    a.mov_rr(Reg::Rdx, Reg::Rcx);
                    msk(a, st, Reg::Rdx, tail);
                    a.store_to(Reg::Rsi, lay.disp(dst, j), Reg::Rdx);
                } else {
                    a.store_to(Reg::Rsi, lay.disp(dst, j), Reg::Rcx);
                }
            }
            Some(s)
        }
        Instr::MuxW { sel, t, f, dst } => {
            ld(a, acc0, Reg::Rax, sel);
            a.test_rr(Reg::Rax, Reg::Rax);
            // mov/cmov/store leave the flags alone, so one test drives the
            // whole word loop.
            for j in 0..lay.nwords(dst) {
                a.load_from(Reg::Rsi, Reg::Rcx, lay.disp(t, j));
                a.load_from(Reg::Rsi, Reg::Rdx, lay.disp(f, j));
                a.cmovcc(Cc::E, Reg::Rcx, Reg::Rdx);
                a.store_to(Reg::Rsi, lay.disp(dst, j), Reg::Rcx);
            }
            Some(sel)
        }
        Instr::EqW { a: s, b, dst } => {
            wide_cmp(a, lay, s, b, dst, Cc::E);
            Some(dst)
        }
        Instr::NeW { a: s, b, dst } => {
            wide_cmp(a, lay, s, b, dst, Cc::Ne);
            Some(dst)
        }
        Instr::CopyW { a: s, dst } => {
            for j in 0..lay.nwords(dst) {
                a.load_from(Reg::Rsi, Reg::Rax, lay.disp(s, j));
                a.store_to(Reg::Rsi, lay.disp(dst, j), Reg::Rax);
            }
            None
        }
        Instr::DivU { .. }
        | Instr::RemU { .. }
        | Instr::MemReadN { .. }
        | Instr::MemReadW { .. }
        | Instr::Generic(_) => unreachable!("unsupported instruction routed to the emitter"),
    };
}

/// `dst = (a ==/!= b) as u64` over all storage words (equal widths, both
/// stores masked, so word-wise xor-accumulate decides it).
fn wide_cmp(a: &mut Asm, lay: &WideLayout, x: u32, y: u32, dst: u32, cc: Cc) {
    a.xor_clear(Reg::R8);
    for j in 0..lay.nwords(x) {
        a.load_from(Reg::Rsi, Reg::Rax, lay.disp(x, j));
        a.load_from(Reg::Rsi, Reg::Rcx, lay.disp(y, j));
        a.xor_rr(Reg::Rax, Reg::Rcx);
        a.or_rr(Reg::R8, Reg::Rax);
    }
    // Zero the result register before the test: xor clobbers the flags.
    a.xor_clear(Reg::Rax);
    a.test_rr(Reg::R8, Reg::R8);
    a.setcc(cc, Reg::Rax);
    a.store(d(dst), Reg::Rax);
}

/// Plans `tape[start..end]`: supported runs compile to native chunks (one
/// `ret`-terminated function each), unsupported runs become interpreter
/// chunks.
pub(crate) fn compile_segment(
    a: &mut Asm,
    lay: &WideLayout,
    low: &Lowered,
    start: usize,
    end: usize,
) -> Vec<StepPlan> {
    // Classify into maximal same-kind runs.
    let mut runs: Vec<(bool, usize, usize)> = Vec::new();
    for i in start..end {
        let s = supported(&low.tape[i]);
        match runs.last_mut() {
            Some(r) if r.0 == s => r.2 = i + 1,
            _ => runs.push((s, i, i + 1)),
        }
    }
    // In mixed parts, short native runs cost more in call overhead than
    // they save: fold them into their interpreted neighbors.
    if runs.len() > 1 {
        for r in &mut runs {
            if r.0 && r.2 - r.1 < MIN_JIT_RUN {
                r.0 = false;
            }
        }
        let mut merged: Vec<(bool, usize, usize)> = Vec::new();
        for r in runs {
            match merged.last_mut() {
                Some(m) if m.0 == r.0 => m.2 = r.2,
                _ => merged.push(r),
            }
        }
        runs = merged;
    }
    let mut steps = Vec::with_capacity(runs.len());
    for (native, s, e) in runs {
        if native {
            let off = a.len();
            let mut st = EmitState::new();
            for instr in &low.tape[s..e] {
                emit(a, lay, instr, &mut st);
            }
            a.ret();
            steps.push(StepPlan::Jit { off });
        } else {
            steps.push(StepPlan::Interp {
                start: s as u32,
                end: e as u32,
            });
        }
    }
    steps
}
