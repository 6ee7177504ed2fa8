//! The compiled (scalar) simulation backend.
//!
//! [`CompiledSimulator`] lowers a validated [`Module`] once into a flat
//! instruction tape (see [`crate::lower`]) with pre-resolved operand slot
//! indices, then replays that tape every cycle. The value store is
//! word-packed: nodes of width ≤ 64 live inline in a `u64` slot array with
//! masks precomputed at lowering time, and wider nodes live as flat
//! little-endian words laid out by [`WideLayout`], so the combinational
//! sweep performs no heap allocation outside the generic fallback. Values
//! become [`Bits`] only at the public API, in `Generic` operations and in
//! wide memory contents. Register commit is double-buffered (values are
//! gathered into a shadow array, then written back), and all name lookups
//! go through maps built at construction.
//!
//! The tape preserves the module's topological node order, and every
//! instruction reproduces the interpreter's semantics exactly — shared
//! corner cases (division by zero, oversized shift amounts, unsigned
//! multiply at narrow widths) follow `eval_pure`, which also serves as the
//! fallback for the remaining operations on wide values. The interpreted
//! [`Simulator`](crate::Simulator) is the reference oracle; the differential
//! test suite drives both engines with identical stimulus and demands
//! identical outputs, register state, and cycle counts.

use hc_bits::Bits;
use hc_rtl::passes::eval::eval_pure;
use hc_rtl::{Module, NodeId, ValidateError};

use crate::lanes::{write_lane, InPort};
use crate::lower::{mask, Instr, Loc, Lowered, WideLayout};
use crate::SimBackend;

/// A memory whose word width fits a `u64`.
#[derive(Clone, Debug)]
struct NMem {
    words: Vec<u64>,
    depth: u64,
}

/// A memory with words wider than 64 bits.
#[derive(Clone, Debug)]
struct WMem {
    words: Vec<Bits>,
    depth: u64,
}

/// A cycle-accurate compiled simulator for one [`Module`].
///
/// Construction lowers the module into an instruction tape; afterwards the
/// per-cycle cost is one linear pass over the tape with no allocation
/// outside the generic fallback. Observable behavior is bit-identical to
/// the interpreted [`Simulator`](crate::Simulator).
/// Fields are `pub(crate)` so [`crate::NativeSimulator`] can wrap an
/// instance, drive the same narrow and wide stores from generated machine
/// code, and reuse the commit/reset logic unchanged.
#[derive(Debug)]
pub struct CompiledSimulator {
    pub(crate) low: Lowered,
    pub(crate) narrow: Vec<u64>,
    /// Every wide slot's words, laid out by `wlay` (padding word included).
    pub(crate) wide: Vec<u64>,
    pub(crate) wlay: WideLayout,
    nmems: Vec<NMem>,
    wmems: Vec<WMem>,
    nreg_shadow: Vec<u64>,
    /// The pending wide registers' next words, gathered in commit order.
    wreg_shadow: Vec<u64>,
    /// Activity state (see [`ActLayout`]). A part's dirty bit is set when
    /// an input of the part changed since it last ran. A register is
    /// pending when its `next`, `en` or `reset` slot may have changed
    /// since its last commit; only pending registers can change at the
    /// next commit, since a register whose three commit inputs are
    /// unchanged reloads `init` under reset, `next` under enable, and
    /// holds otherwise, exactly as last time.
    pub(crate) act: Vec<u64>,
    pub(crate) lay: ActLayout,
    /// The pending bitset as the commit in progress found it.
    pend_cur: Vec<u64>,
    /// The running part's boundary values from before it ran.
    before: Vec<u64>,
    pub(crate) parts_skipped: u64,
    pub(crate) regs_committed: u64,
    pub(crate) evaluated: bool,
    pub(crate) cycle: u64,
    /// Cleared to mask the engine out of a lane harness's clock (see
    /// [`LaneEngine::set_active`](crate::LaneEngine::set_active)).
    pub(crate) active: bool,
}

/// Sets bit `k` of a bitset.
pub(crate) fn set_bit(words: &mut [u64], k: usize) {
    words[k >> 6] |= 1 << (k & 63);
}

/// Calls `f` on every set bit of a bitset, in increasing order.
pub(crate) fn for_each_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &bits) in words.iter().enumerate() {
        let mut b = bits;
        while b != 0 {
            f(w * 64 + b.trailing_zeros() as usize);
            b &= b - 1;
        }
    }
}

/// Bits `0..n` of a bitset set, the rest clear.
fn set_first(words: &mut [u64], n: usize) {
    words.fill(0);
    words[..n / 64].fill(u64::MAX);
    if !n.is_multiple_of(64) {
        words[n / 64] = crate::lower::mask(n as u32 % 64);
    }
}

/// What a part runner did with the dirty part it was handed (see
/// [`CompiledSimulator::eval_parts`]).
pub(crate) enum Ran {
    /// Ran that one part, with its bookkeeping.
    Part,
    /// Handled every part below this one: ran the dirty ones with their
    /// bookkeeping, cleared their dirty bits and counted them in the run
    /// counter (the native engine's generated code).
    Through(usize),
}

/// Layout of the activity array the engines share with generated code:
/// the dirty bitset over parts, the pending bitset over registers, and a
/// counter of the parts generated code ran.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ActLayout {
    /// First word of the pending bitset.
    pub pend_at: usize,
    /// The run counter's word, just past the pending bitset.
    pub ran_at: usize,
}

impl ActLayout {
    fn new(parts: usize, regs: usize) -> ActLayout {
        let pend_at = parts.div_ceil(64);
        ActLayout {
            pend_at,
            ran_at: pend_at + regs.div_ceil(64),
        }
    }
}

/// Bits `lo..lo + width` (`width <= 64`) of a wide value's words.
fn field(words: &[u64], lo: u32, width: u32) -> u64 {
    let (w, sh) = ((lo / 64) as usize, lo % 64);
    let mut v = words[w] >> sh;
    if sh != 0 && w + 1 < words.len() {
        v |= words[w + 1] << (64 - sh);
    }
    v & mask(width)
}

/// `dst = hi ++ lo` over words: `lo` is `lo_w` bits wide, both values
/// are zero above their widths, and the widths add up to `dst`'s.
fn concat(dst: &mut [u64], hi: &[u64], lo: &[u64], lo_w: u32) {
    dst.fill(0);
    dst[..lo.len()].copy_from_slice(lo);
    let (w, sh) = ((lo_w / 64) as usize, lo_w % 64);
    for (i, &x) in hi.iter().enumerate() {
        dst[w + i] |= x << sh;
        if sh != 0 && w + i + 1 < dst.len() {
            dst[w + i + 1] |= x >> (64 - sh);
        }
    }
}

impl CompiledSimulator {
    /// Lowers and validates the module, preparing simulation state
    /// (registers hold their `init` values, memories are zeroed).
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally invalid.
    pub fn new(module: Module) -> Result<Self, ValidateError> {
        let low = Lowered::new(module)?;
        let narrow = low.narrow_init.clone();
        let wlay = WideLayout::new(&low.wide_init, 1);
        let wide = wlay.image(&low.wide_init);
        let nmems = low
            .nmem_depths
            .iter()
            .map(|&depth| NMem {
                words: vec![0; depth as usize],
                depth,
            })
            .collect();
        let wmems = low
            .wmem_dims
            .iter()
            .map(|&(width, depth)| WMem {
                words: vec![Bits::zero(width); depth as usize],
                depth,
            })
            .collect();
        let nreg_shadow = vec![0u64; low.nregs.len()];
        let lay = ActLayout::new(low.parts.len(), low.nregs_total());
        let mut act = vec![0; lay.ran_at + 1];
        set_first(&mut act[..lay.pend_at], low.parts.len());
        set_first(&mut act[lay.pend_at..lay.ran_at], low.nregs_total());
        let pend_cur = vec![0; lay.ran_at - lay.pend_at];
        let before = vec![0; low.bound.widest()];
        Ok(CompiledSimulator {
            low,
            narrow,
            wide,
            wlay,
            nmems,
            wmems,
            nreg_shadow,
            wreg_shadow: Vec::new(),
            act,
            lay,
            pend_cur,
            before,
            parts_skipped: 0,
            regs_committed: 0,
            evaluated: false,
            cycle: 0,
            active: true,
        })
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.low.module
    }

    /// Number of completed clock cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instruction tape length *as lowered* (lowering statistics; generic
    /// entries count the `eval_pure` fallbacks among them). Reported before
    /// the tape backend optimizer so pre/post comparisons of the IR pass
    /// pipeline stay meaningful; see
    /// [`tape_opt_report`](CompiledSimulator::tape_opt_report) for the
    /// executed tape length.
    pub fn tape_stats(&self) -> (usize, usize) {
        self.low.lowered_stats
    }

    /// Accounting from the tape backend optimizer, with the live counts of
    /// part evaluations skipped and registers committed so far. Always
    /// `Some`: every tape engine runs the optimizer.
    pub fn tape_opt_report(&self) -> Option<crate::TapeOptReport> {
        Some(crate::TapeOptReport {
            parts_skipped: self.parts_skipped,
            regs_committed: self.regs_committed,
            ..self.low.tape_opt
        })
    }

    /// After a value change of input `idx`, marks the parts reading it
    /// dirty and the registers it feeds pending.
    fn touch_input(&mut self, idx: usize, changed: bool) {
        if changed {
            for &k in self.low.input_parts.row(idx) {
                set_bit(&mut self.act, k as usize);
            }
            for &r in self.low.input_regs.row(idx) {
                set_bit(&mut self.act, self.lay.pend_at * 64 + r as usize);
            }
            self.evaluated = false;
        }
    }

    fn read_loc(&self, loc: Loc, width: u32) -> Bits {
        match loc {
            Loc::N(s) => Bits::from_u64(width, self.narrow[s as usize]),
            Loc::W(s) => self.wlay.read(&self.wide, s),
        }
    }

    /// The low word of a value (a wide value's first storage word).
    fn low_word(&self, loc: Loc) -> u64 {
        match loc {
            Loc::N(s) => self.narrow[s as usize],
            Loc::W(s) => self.wide[self.wlay.base(s)],
        }
    }

    /// Drives an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists or the width differs.
    pub fn set(&mut self, name: &str, value: Bits) {
        let port = self.low.in_port(name);
        assert_eq!(port.width, value.width(), "input {name:?} width");
        self.write_lane(0, port, value.as_words());
    }

    /// Drives an input port from a `u64` (truncated to the port width; a
    /// wide port's upper words are zeroed).
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    pub fn set_u64(&mut self, name: &str, value: u64) {
        self.write_lane(0, self.low.in_port(name), &[value]);
    }

    /// Writes an input from little-endian words, comparing in place (see
    /// [`crate::lanes::write_lane`]): only a changed value marks its
    /// readers dirty. Every input write goes through here.
    pub(crate) fn write_lane(&mut self, lane: usize, port: InPort, words: &[u64]) {
        let changed = write_lane(
            &mut self.narrow,
            &mut self.wide,
            &self.wlay,
            (1, lane),
            port,
            words,
        );
        self.touch_input(port.idx, changed);
    }

    /// Settles combinational logic for the current input/register state by
    /// replaying the instruction tape. Called implicitly by
    /// [`get`](CompiledSimulator::get) and [`step`](CompiledSimulator::step)
    /// when needed.
    pub fn eval(&mut self) {
        self.eval_parts(|sim, k| {
            sim.run_part(k, |sim| {
                let seg = sim.low.parts[k];
                sim.eval_range(seg.start as usize, seg.end as usize);
            });
            Ran::Part
        });
    }

    /// The part loop both scalar engines share: hands every dirty part
    /// `k` to `run(self, k)` in layout order, walking the dirty bitset
    /// with `trailing_zeros`. A part's reader parts come later in the
    /// layout, so when the run marks them dirty the walk reaches them in
    /// this same pass. The runner does the part's bookkeeping through
    /// [`run_part`](Self::run_part); or the native engine's generated
    /// code takes a whole run of parts and does it inline
    /// ([`Ran::Through`]).
    pub(crate) fn eval_parts(&mut self, mut run: impl FnMut(&mut CompiledSimulator, usize) -> Ran) {
        if self.evaluated {
            return;
        }
        let nparts = self.low.parts.len();
        let mut ran = 0u64;
        let mut w = 0;
        while w < self.lay.pend_at {
            let bits = self.act[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            let k = w * 64 + bits.trailing_zeros() as usize;
            match run(self, k) {
                // Part `k` cannot mark itself: its readers come later.
                Ran::Part => {
                    self.act[w] &= !(1 << (k % 64));
                    ran += 1;
                }
                // Every part below `end` is clean now.
                Ran::Through(end) => w = end / 64,
            }
        }
        ran += std::mem::take(&mut self.act[self.lay.ran_at]);
        self.parts_skipped += nparts as u64 - ran;
        self.evaluated = true;
    }

    /// Runs `body` as part `k` with the part loop's bookkeeping: compares
    /// the part's boundary slots with their values before the run, marks
    /// the parts reading a changed one dirty, and marks the registers the
    /// part feeds pending.
    pub(crate) fn run_part(&mut self, k: usize, body: impl FnOnce(&mut CompiledSimulator)) {
        let span = self.low.bound.span(k);
        for (b, &s) in self
            .before
            .iter_mut()
            .zip(&self.low.bound.items()[span.clone()])
        {
            *b = self.narrow[s as usize];
        }
        body(self);
        for (j, &b) in span.zip(&self.before) {
            if self.narrow[self.low.bound.items()[j] as usize] != b {
                for &r in self.low.readers.row(j) {
                    set_bit(&mut self.act, r as usize);
                }
            }
        }
        let pend = self.lay.pend_at * 64;
        for &r in self.low.part_regs.row(k) {
            set_bit(&mut self.act, pend + r as usize);
        }
    }

    /// Replays `tape[start..end]`. Also the per-chunk interpreter fallback
    /// for [`crate::NativeSimulator`] parts the assembler doesn't cover.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn eval_range(&mut self, start: usize, end: usize) {
        let narrow = &mut self.narrow;
        let wide = &mut self.wide;
        let lay = &self.wlay;
        for instr in &self.low.tape[start..end] {
            match *instr {
                Instr::CopyMask { a, dst, mask } => {
                    narrow[dst as usize] = narrow[a as usize] & mask;
                }
                Instr::Not { a, dst, mask } => {
                    narrow[dst as usize] = !narrow[a as usize] & mask;
                }
                Instr::Neg { a, dst, mask } => {
                    narrow[dst as usize] = narrow[a as usize].wrapping_neg() & mask;
                }
                Instr::RedOr { a, dst } => {
                    narrow[dst as usize] = (narrow[a as usize] != 0) as u64;
                }
                Instr::RedAnd { a, dst, ones } => {
                    narrow[dst as usize] = (narrow[a as usize] == ones) as u64;
                }
                Instr::RedXor { a, dst } => {
                    narrow[dst as usize] = (narrow[a as usize].count_ones() & 1) as u64;
                }
                Instr::Add { a, b, dst, mask } => {
                    narrow[dst as usize] =
                        narrow[a as usize].wrapping_add(narrow[b as usize]) & mask;
                }
                Instr::Sub { a, b, dst, mask } => {
                    narrow[dst as usize] =
                        narrow[a as usize].wrapping_sub(narrow[b as usize]) & mask;
                }
                Instr::MulS {
                    a,
                    b,
                    dst,
                    sa,
                    sb,
                    mask,
                } => {
                    let p = crate::lower::sxt(narrow[a as usize], sa)
                        .wrapping_mul(crate::lower::sxt(narrow[b as usize], sb));
                    narrow[dst as usize] = p as u64 & mask;
                }
                Instr::MulU { a, b, dst, mask } => {
                    narrow[dst as usize] =
                        narrow[a as usize].wrapping_mul(narrow[b as usize]) & mask;
                }
                Instr::DivU { a, b, dst, mask } => {
                    narrow[dst as usize] = narrow[a as usize]
                        .checked_div(narrow[b as usize])
                        .unwrap_or(mask);
                }
                Instr::RemU { a, b, dst } => {
                    let d = narrow[b as usize];
                    narrow[dst as usize] = if d == 0 {
                        narrow[a as usize]
                    } else {
                        narrow[a as usize] % d
                    };
                }
                Instr::And { a, b, dst } => {
                    narrow[dst as usize] = narrow[a as usize] & narrow[b as usize];
                }
                Instr::Or { a, b, dst } => {
                    narrow[dst as usize] = narrow[a as usize] | narrow[b as usize];
                }
                Instr::Xor { a, b, dst } => {
                    narrow[dst as usize] = narrow[a as usize] ^ narrow[b as usize];
                }
                Instr::Eq { a, b, dst } => {
                    narrow[dst as usize] = (narrow[a as usize] == narrow[b as usize]) as u64;
                }
                Instr::Ne { a, b, dst } => {
                    narrow[dst as usize] = (narrow[a as usize] != narrow[b as usize]) as u64;
                }
                Instr::LtU { a, b, dst } => {
                    narrow[dst as usize] = (narrow[a as usize] < narrow[b as usize]) as u64;
                }
                Instr::LtS { a, b, dst, s } => {
                    narrow[dst as usize] = (crate::lower::sxt(narrow[a as usize], s)
                        < crate::lower::sxt(narrow[b as usize], s))
                        as u64;
                }
                Instr::LeU { a, b, dst } => {
                    narrow[dst as usize] = (narrow[a as usize] <= narrow[b as usize]) as u64;
                }
                Instr::LeS { a, b, dst, s } => {
                    narrow[dst as usize] = (crate::lower::sxt(narrow[a as usize], s)
                        <= crate::lower::sxt(narrow[b as usize], s))
                        as u64;
                }
                Instr::Shl {
                    a,
                    b,
                    dst,
                    width,
                    mask,
                } => {
                    let amt = narrow[b as usize];
                    narrow[dst as usize] = if amt >= width as u64 {
                        0
                    } else {
                        (narrow[a as usize] << amt) & mask
                    };
                }
                Instr::ShrL { a, b, dst, width } => {
                    let amt = narrow[b as usize];
                    narrow[dst as usize] = if amt >= width as u64 {
                        0
                    } else {
                        narrow[a as usize] >> amt
                    };
                }
                Instr::ShrA {
                    a,
                    b,
                    dst,
                    width,
                    s,
                    mask,
                } => {
                    let v = crate::lower::sxt(narrow[a as usize], s);
                    let amt = narrow[b as usize];
                    narrow[dst as usize] = if amt >= width as u64 {
                        if v < 0 {
                            mask
                        } else {
                            0
                        }
                    } else {
                        (v >> amt) as u64 & mask
                    };
                }
                Instr::MuxN { sel, t, f, dst } => {
                    narrow[dst as usize] = if narrow[sel as usize] != 0 {
                        narrow[t as usize]
                    } else {
                        narrow[f as usize]
                    };
                }
                Instr::ConcatN { hi, lo, dst, lo_w } => {
                    narrow[dst as usize] = (narrow[hi as usize] << lo_w) | narrow[lo as usize];
                }
                Instr::SliceN { a, dst, lo, mask } => {
                    narrow[dst as usize] = (narrow[a as usize] >> lo) & mask;
                }
                Instr::SExtN { a, dst, s, mask } => {
                    narrow[dst as usize] = crate::lower::sxt(narrow[a as usize], s) as u64 & mask;
                }
                Instr::SliceW {
                    src,
                    dst,
                    lo,
                    width,
                } => {
                    narrow[dst as usize] = field(&wide[lay.words(src)], lo, width);
                }
                Instr::ConcatWNN {
                    hi,
                    lo,
                    dst,
                    hi_w: _,
                    lo_w,
                } => {
                    let (h, l) = (narrow[hi as usize], narrow[lo as usize]);
                    concat(&mut wide[lay.words(dst)], &[h], &[l], lo_w);
                }
                Instr::SliceWW { src, dst, lo } => {
                    // Tape invariant: dst slot > operand slots.
                    let (head, tail) = wide.split_at_mut(lay.base(dst));
                    let s = &head[lay.words(src)];
                    let width = lay.width(dst);
                    for (j, d) in tail[..lay.nwords(dst) as usize].iter_mut().enumerate() {
                        let at = 64 * j as u32;
                        *d = field(s, lo + at, (width - at).min(64));
                    }
                }
                Instr::ConcatWWW { hi, lo, dst, lo_w } => {
                    let (head, tail) = wide.split_at_mut(lay.base(dst));
                    let d = &mut tail[..lay.nwords(dst) as usize];
                    concat(d, &head[lay.words(hi)], &head[lay.words(lo)], lo_w);
                }
                Instr::ConcatWWN { hi, lo, dst, lo_w } => {
                    let (head, tail) = wide.split_at_mut(lay.base(dst));
                    let d = &mut tail[..lay.nwords(dst) as usize];
                    concat(d, &head[lay.words(hi)], &[narrow[lo as usize]], lo_w);
                }
                Instr::ConcatWNW {
                    hi,
                    lo,
                    dst,
                    hi_w: _,
                    lo_w,
                } => {
                    let (head, tail) = wide.split_at_mut(lay.base(dst));
                    let d = &mut tail[..lay.nwords(dst) as usize];
                    concat(d, &[narrow[hi as usize]], &head[lay.words(lo)], lo_w);
                }
                Instr::ZExtWN { a, dst, a_w: _ } => {
                    let d = &mut wide[lay.words(dst)];
                    d.fill(0);
                    d[0] = narrow[a as usize];
                }
                Instr::SExtWN { a, dst, a_w } => {
                    let v = narrow[a as usize];
                    let fill = (v >> (a_w - 1) & 1).wrapping_neg();
                    let d = &mut wide[lay.words(dst)];
                    d.fill(fill);
                    d[0] = v | (fill & !mask(a_w));
                    *d.last_mut().expect("wide slot") &= lay.tail_mask(dst);
                }
                Instr::MuxW { sel, t, f, dst } => {
                    let src = if narrow[sel as usize] != 0 { t } else { f };
                    let (head, tail) = wide.split_at_mut(lay.base(dst));
                    tail[..lay.nwords(dst) as usize].copy_from_slice(&head[lay.words(src)]);
                }
                Instr::EqW { a, b, dst } => {
                    narrow[dst as usize] = (wide[lay.words(a)] == wide[lay.words(b)]) as u64;
                }
                Instr::NeW { a, b, dst } => {
                    narrow[dst as usize] = (wide[lay.words(a)] != wide[lay.words(b)]) as u64;
                }
                Instr::CopyW { a, dst } => {
                    let (head, tail) = wide.split_at_mut(lay.base(dst));
                    tail[..lay.nwords(dst) as usize].copy_from_slice(&head[lay.words(a)]);
                }
                Instr::MemReadN { mem, addr, dst } => {
                    let m = &self.nmems[mem as usize];
                    let a = match addr {
                        Loc::N(s) => narrow[s as usize],
                        Loc::W(s) => wide[lay.base(s)],
                    } % m.depth;
                    narrow[dst as usize] = m.words[a as usize];
                }
                Instr::MemReadW { mem, addr, dst } => {
                    let m = &self.wmems[mem as usize];
                    let a = match addr {
                        Loc::N(s) => narrow[s as usize],
                        Loc::W(s) => wide[lay.base(s)],
                    } % m.depth;
                    wide[lay.words(dst)].copy_from_slice(m.words[a as usize].as_words());
                }
                Instr::Generic(gi) => {
                    let g = &self.low.generic[gi as usize];
                    let mut args = Vec::with_capacity(g.args.len());
                    for &(loc, w) in &g.args {
                        args.push(match loc {
                            Loc::N(s) => Bits::from_u64(w, narrow[s as usize]),
                            Loc::W(s) => lay.read(wide, s),
                        });
                    }
                    let v = eval_pure(&g.node, g.width, &args).expect("pure node");
                    match g.dst {
                        Loc::N(s) => narrow[s as usize] = v.to_u64(),
                        Loc::W(s) => wide[lay.words(s)].copy_from_slice(v.as_words()),
                    }
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
                    let p = crate::lower::sxt(narrow[a as usize], sa)
                        .wrapping_mul(crate::lower::sxt(narrow[b as usize], sb));
                    narrow[dst as usize] =
                        (p as u64 & mmask).wrapping_add(narrow[c as usize]) & mask;
                }
                Instr::MacU {
                    a,
                    b,
                    c,
                    dst,
                    mmask,
                    mask,
                } => {
                    let p = narrow[a as usize].wrapping_mul(narrow[b as usize]) & mmask;
                    narrow[dst as usize] = p.wrapping_add(narrow[c as usize]) & mask;
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
                    let va = narrow[a as usize];
                    let vb = narrow[b as usize];
                    let cond = match kind {
                        crate::lower::CmpKind::Eq => va == vb,
                        crate::lower::CmpKind::Ne => va != vb,
                        crate::lower::CmpKind::LtU => va < vb,
                        crate::lower::CmpKind::LeU => va <= vb,
                        crate::lower::CmpKind::LtS => {
                            crate::lower::sxt(va, s) < crate::lower::sxt(vb, s)
                        }
                        crate::lower::CmpKind::LeS => {
                            crate::lower::sxt(va, s) <= crate::lower::sxt(vb, s)
                        }
                    };
                    narrow[dst as usize] = narrow[if cond { t } else { f } as usize];
                }
                Instr::ShlI { a, dst, sh, mask } => {
                    narrow[dst as usize] = (narrow[a as usize] << sh) & mask;
                }
                Instr::SraI {
                    a,
                    dst,
                    sh,
                    s,
                    mask,
                } => {
                    narrow[dst as usize] =
                        (crate::lower::sxt(narrow[a as usize], s) >> sh) as u64 & mask;
                }
            }
        }
    }

    /// Reads an output port (evaluating first if necessary).
    ///
    /// # Panics
    ///
    /// Panics if no output named `name` exists.
    pub fn get(&mut self, name: &str) -> Bits {
        self.eval();
        let (loc, width) = self.low.output_loc(name);
        self.read_loc(loc, width)
    }

    /// Reads back the value currently driving an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    pub fn input_value(&self, name: &str) -> Bits {
        let idx = self.low.input_idx(name);
        let (loc, width) = self.low.input_locs[idx];
        self.read_loc(loc, width)
    }

    /// Reads the settled value of an arbitrary node (for probing).
    pub fn probe(&mut self, node: NodeId) -> Bits {
        self.eval();
        self.read_loc(self.low.node_loc[node.index()], self.low.module.width(node))
    }

    /// Reads a register's current value by name.
    ///
    /// # Panics
    ///
    /// Panics if no register named `name` exists.
    pub fn peek_reg(&self, name: &str) -> Bits {
        let ri = self.low.reg_idx(name);
        self.read_loc(self.low.reg_loc[ri], self.low.module.regs()[ri].width)
    }

    /// Advances one clock cycle: settles combinational logic, then commits
    /// register next-values and memory writes simultaneously.
    ///
    /// The commit is double-buffered: next values are gathered into shadow
    /// storage while every register still holds its old value, memory writes
    /// sample the settled combinational state, and only then do the shadows
    /// swap in. It visits only the pending registers (see `act`):
    /// every register on the first cycle and after [`reset`](Self::reset),
    /// and afterwards those fed by a part that ran, an input that changed
    /// or a register that changed at the previous commit.
    pub fn step(&mut self) {
        self.eval();
        let nregs = self.low.nregs.len();
        let pend = self.lay.pend_at..self.lay.ran_at;
        let mut regs = std::mem::take(&mut self.pend_cur);
        regs.copy_from_slice(&self.act[pend.clone()]);
        self.act[pend].fill(0);
        // Phase 1: gather next values while all register slots still hold
        // their pre-edge values (registers may feed each other).
        self.wreg_shadow.clear();
        for_each_bit(&regs, |r| {
            if r < nregs {
                let p = &self.low.nregs[r];
                let reset = p.reset.is_some_and(|x| self.narrow[x as usize] != 0);
                self.nreg_shadow[r] = if reset {
                    p.init
                } else if p.en.is_none_or(|e| self.narrow[e as usize] != 0) {
                    self.narrow[p.next as usize]
                } else {
                    self.narrow[p.slot as usize]
                };
            } else {
                let p = &self.low.wregs[r - nregs];
                let reset = p.reset.is_some_and(|x| self.narrow[x as usize] != 0);
                let src = if reset {
                    p.init.as_words()
                } else if p.en.is_none_or(|e| self.narrow[e as usize] != 0) {
                    &self.wide[self.wlay.words(p.next)]
                } else {
                    &self.wide[self.wlay.words(p.slot)]
                };
                self.wreg_shadow.extend_from_slice(src);
            }
        });
        // Phase 2: memory writes sample the settled combinational values
        // (which include pre-edge register outputs) in port order. A write
        // that changes a stored word marks the parts holding that memory's
        // read ports dirty.
        let nmems = self.low.nmem_depths.len();
        let mut state_changed = false;
        for w in &self.low.nmem_writes {
            if self.narrow[w.en as usize] != 0 {
                let a = self.low_word(w.addr) % self.nmems[w.mem as usize].depth;
                let v = self.narrow[w.data as usize];
                let m = &mut self.nmems[w.mem as usize];
                if std::mem::replace(&mut m.words[a as usize], v) != v {
                    state_changed = true;
                    for &k in self.low.mem_parts.row(w.mem as usize) {
                        set_bit(&mut self.act, k as usize);
                    }
                }
            }
        }
        for w in &self.low.wmem_writes {
            if self.narrow[w.en as usize] != 0 {
                let a = self.low_word(w.addr) % self.wmems[w.mem as usize].depth;
                let data = &self.wide[self.wlay.words(w.data)];
                let word = &mut self.wmems[w.mem as usize].words[a as usize];
                if word.as_words() != data {
                    word.copy_from_words(data);
                    state_changed = true;
                    for &k in self.low.mem_parts.row(nmems + w.mem as usize) {
                        set_bit(&mut self.act, k as usize);
                    }
                }
            }
        }
        // Phase 3: the simultaneous commit. A register whose value did not
        // change leaves its reader parts clean; one that changed marks
        // them dirty and the registers it feeds pending. If nothing
        // changed at all, the settled combinational state is still valid
        // and the next eval is free.
        let pend = self.lay.pend_at * 64;
        let mut gathered = 0;
        for_each_bit(&regs, |ri| {
            let changed = if ri < nregs {
                let v = self.nreg_shadow[ri];
                std::mem::replace(&mut self.narrow[self.low.nregs[ri].slot as usize], v) != v
            } else {
                let slot = &mut self.wide[self.wlay.words(self.low.wregs[ri - nregs].slot)];
                let next = &self.wreg_shadow[gathered..gathered + slot.len()];
                gathered += slot.len();
                let changed = *slot != *next;
                slot.copy_from_slice(next);
                changed
            };
            if changed {
                state_changed = true;
                for &k in self.low.reg_parts.row(ri) {
                    set_bit(&mut self.act, k as usize);
                }
                for &q in self.low.reg_regs.row(ri) {
                    set_bit(&mut self.act, pend + q as usize);
                }
            }
        });
        self.regs_committed += regs.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        self.pend_cur = regs;
        if state_changed {
            self.evaluated = false;
        }
        self.cycle += 1;
    }

    /// Runs `n` clock cycles with the current inputs held.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Resets all registers to their init values and clears memories and the
    /// cycle counter (a hard power-on reset, independent of any reset port).
    pub fn reset(&mut self) {
        for p in &self.low.nregs {
            self.narrow[p.slot as usize] = p.init;
        }
        for p in &self.low.wregs {
            self.wide[self.wlay.words(p.slot)].copy_from_slice(p.init.as_words());
        }
        for m in &mut self.nmems {
            m.words.iter_mut().for_each(|w| *w = 0);
        }
        for m in &mut self.wmems {
            m.words.iter_mut().for_each(Bits::clear);
        }
        let lay = self.lay;
        set_first(&mut self.act[..lay.pend_at], self.low.parts.len());
        set_first(
            &mut self.act[lay.pend_at..lay.ran_at],
            self.low.nregs_total(),
        );
        self.cycle = 0;
        self.evaluated = false;
    }
}

impl Drop for CompiledSimulator {
    /// Folds this instance's runtime counters into the process-wide
    /// metrics registry, so sweep-level totals survive the engines that
    /// produced them.
    fn drop(&mut self) {
        if self.cycle > 0 {
            hc_obs::metrics::counter("sim.compiled.cycles").add(self.cycle);
        }
        if self.parts_skipped > 0 {
            hc_obs::metrics::counter("sim.compiled.parts_skipped").add(self.parts_skipped);
        }
        if self.regs_committed > 0 {
            hc_obs::metrics::counter("sim.compiled.regs_committed").add(self.regs_committed);
        }
    }
}

impl SimBackend for CompiledSimulator {
    fn from_module(module: Module) -> Result<Self, ValidateError> {
        CompiledSimulator::new(module)
    }
    fn module(&self) -> &Module {
        self.module()
    }
    fn cycle(&self) -> u64 {
        self.cycle()
    }
    fn set(&mut self, name: &str, value: Bits) {
        CompiledSimulator::set(self, name, value);
    }
    fn set_u64(&mut self, name: &str, value: u64) {
        CompiledSimulator::set_u64(self, name, value);
    }
    fn get(&mut self, name: &str) -> Bits {
        CompiledSimulator::get(self, name)
    }
    fn input_value(&self, name: &str) -> Bits {
        CompiledSimulator::input_value(self, name)
    }
    fn peek_reg(&self, name: &str) -> Bits {
        CompiledSimulator::peek_reg(self, name)
    }
    fn step(&mut self) {
        CompiledSimulator::step(self);
    }
    fn run(&mut self, n: u64) {
        CompiledSimulator::run(self, n);
    }
    fn reset(&mut self) {
        CompiledSimulator::reset(self);
    }
    fn tape_opt_report(&self) -> Option<crate::TapeOptReport> {
        CompiledSimulator::tape_opt_report(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use hc_rtl::BinaryOp;

    fn counter(width: u32) -> Module {
        let mut m = Module::new("counter");
        let en = m.input("en", 1);
        let rst = m.input("rst", 1);
        let r = m.reg("count", width, Bits::zero(width));
        let q = m.reg_out(r);
        let one = m.const_u(width, 1);
        let next = m.binary(BinaryOp::Add, q, one, width);
        m.connect_reg(r, next);
        m.reg_en(r, en);
        m.reg_reset(r, rst);
        m.output("count", q);
        m
    }

    #[test]
    fn counter_counts_when_enabled() {
        let mut sim = CompiledSimulator::new(counter(8)).unwrap();
        sim.set_u64("en", 1);
        sim.set_u64("rst", 0);
        sim.run(10);
        assert_eq!(sim.get("count").to_u64(), 10);
        sim.set_u64("en", 0);
        sim.run(5);
        assert_eq!(sim.get("count").to_u64(), 10);
    }

    #[test]
    fn sync_reset_loads_init() {
        let mut sim = CompiledSimulator::new(counter(8)).unwrap();
        sim.set_u64("en", 1);
        sim.set_u64("rst", 0);
        sim.run(3);
        sim.set_u64("rst", 1);
        sim.step();
        assert_eq!(sim.get("count").to_u64(), 0);
    }

    #[test]
    fn counter_wraps() {
        let mut sim = CompiledSimulator::new(counter(2)).unwrap();
        sim.set_u64("en", 1);
        sim.set_u64("rst", 0);
        sim.run(5);
        assert_eq!(sim.get("count").to_u64(), 1);
    }

    #[test]
    fn memory_write_then_read() {
        let mut m = Module::new("mem");
        let addr = m.input("addr", 2);
        let data = m.input("data", 8);
        let we = m.input("we", 1);
        let mem = m.mem("buf", 8, 4);
        m.mem_write(mem, addr, data, we);
        let q = m.mem_read(mem, addr);
        m.output("q", q);
        let mut sim = CompiledSimulator::new(m).unwrap();
        sim.set_u64("addr", 2);
        sim.set_u64("data", 0xab);
        sim.set_u64("we", 1);
        sim.step();
        sim.set_u64("we", 0);
        assert_eq!(sim.get("q").to_u64(), 0xab);
        sim.set_u64("addr", 1);
        assert_eq!(sim.get("q").to_u64(), 0);
    }

    #[test]
    fn registers_commit_simultaneously() {
        // Swap network: two registers exchanging values each cycle. Their
        // RegOut slots alias the register storage, so this exercises the
        // double-buffered commit.
        let mut m = Module::new("swap");
        let r1 = m.reg("r1", 4, Bits::from_u64(4, 0xa));
        let r2 = m.reg("r2", 4, Bits::from_u64(4, 0x5));
        let q1 = m.reg_out(r1);
        let q2 = m.reg_out(r2);
        m.connect_reg(r1, q2);
        m.connect_reg(r2, q1);
        m.output("a", q1);
        m.output("b", q2);
        let mut sim = CompiledSimulator::new(m).unwrap();
        sim.step();
        assert_eq!(sim.get("a").to_u64(), 0x5);
        assert_eq!(sim.get("b").to_u64(), 0xa);
        sim.step();
        assert_eq!(sim.get("a").to_u64(), 0xa);
    }

    #[test]
    fn probe_and_peek() {
        let mut sim = CompiledSimulator::new(counter(8)).unwrap();
        sim.set_u64("en", 1);
        sim.set_u64("rst", 0);
        sim.run(2);
        assert_eq!(sim.peek_reg("count").to_u64(), 2);
        let out_node = sim.module().outputs()[0].node;
        assert_eq!(sim.probe(out_node).to_u64(), 2);
    }

    #[test]
    fn hard_reset_restores_power_on_state() {
        let mut sim = CompiledSimulator::new(counter(8)).unwrap();
        sim.set_u64("en", 1);
        sim.set_u64("rst", 0);
        sim.run(7);
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert_eq!(sim.get("count").to_u64(), 0);
    }

    /// A 96-bit datapath through wide slices, concats, and a wide register:
    /// the shapes the AXI-Stream row wrappers rely on.
    fn wide_pipeline() -> Module {
        let mut m = Module::new("wide");
        let row = m.input("row", 96);
        let r = m.reg("hold", 96, Bits::zero(96));
        let q = m.reg_out(r);
        m.connect_reg(r, row);
        // Slice all eight 12-bit elements out of the held row, add one to
        // each, and concatenate back together.
        let one = m.const_u(12, 1);
        let mut acc: Option<hc_rtl::NodeId> = None;
        for i in 0..8 {
            let e = m.slice(q, i * 12, 12);
            let e1 = m.binary(BinaryOp::Add, e, one, 12);
            acc = Some(match acc {
                None => e1,
                Some(lo) => m.concat(e1, lo),
            });
        }
        m.output("out", acc.unwrap());
        m
    }

    #[test]
    fn wide_values_match_interpreter() {
        let mut a = CompiledSimulator::new(wide_pipeline()).unwrap();
        let mut b = Simulator::new(wide_pipeline()).unwrap();
        let mut row = Bits::zero(96);
        for i in 0..8 {
            row.deposit_u64(i * 12, 12, 0x100 * i as u64 + 0xfff - i as u64);
        }
        a.set("row", row.clone());
        b.set("row", row);
        for _ in 0..3 {
            assert_eq!(a.get("out"), b.get("out"));
            assert_eq!(a.peek_reg("hold"), b.peek_reg("hold"));
            a.step();
            b.step();
        }
    }

    #[test]
    fn signed_ops_match_interpreter() {
        // Exercise the sign-sensitive specializations at an awkward width.
        let mut m = Module::new("signed");
        let x = m.input("x", 13);
        let y = m.input("y", 13);
        let p = m.binary(BinaryOp::MulS, x, y, 26);
        let sh = m.input("sh", 5);
        let sh26 = m.zext(sh, 26);
        let sra = m.binary(BinaryOp::ShrA, p, sh26, 26);
        let lt = m.binary(BinaryOp::LtS, x, y, 1);
        let le = m.binary(BinaryOp::LeS, x, y, 1);
        m.output("p", p);
        m.output("sra", sra);
        m.output("lt", lt);
        m.output("le", le);
        let mut a = CompiledSimulator::new(m.clone()).unwrap();
        let mut b = Simulator::new(m).unwrap();
        for (x, y, sh) in [
            (0i64, 0i64, 0u64),
            (-1, -1, 1),
            (-4096, 4095, 11),
            (4095, -4096, 25),
            (-4096, -4096, 31),
            (1234, -1234, 3),
        ] {
            for sim in [&mut a as &mut dyn Apply, &mut b as &mut dyn Apply] {
                sim.drive(x, y, sh);
            }
            for out in ["p", "sra", "lt", "le"] {
                assert_eq!(a.get(out), b.get(out), "output {out} for ({x},{y},{sh})");
            }
        }
    }

    /// Tiny helper so the signed test can drive both backends uniformly.
    trait Apply {
        fn drive(&mut self, x: i64, y: i64, sh: u64);
    }
    impl Apply for CompiledSimulator {
        fn drive(&mut self, x: i64, y: i64, sh: u64) {
            self.set("x", Bits::from_i64(13, x));
            self.set("y", Bits::from_i64(13, y));
            self.set_u64("sh", sh);
        }
    }
    impl Apply for Simulator {
        fn drive(&mut self, x: i64, y: i64, sh: u64) {
            self.set("x", Bits::from_i64(13, x));
            self.set("y", Bits::from_i64(13, y));
            self.set_u64("sh", sh);
        }
    }

    #[test]
    fn division_corner_cases_match_interpreter() {
        let mut m = Module::new("div");
        let x = m.input("x", 8);
        let y = m.input("y", 8);
        let q = m.binary(BinaryOp::DivU, x, y, 8);
        let r = m.binary(BinaryOp::RemU, x, y, 8);
        m.output("q", q);
        m.output("r", r);
        let mut a = CompiledSimulator::new(m.clone()).unwrap();
        let mut b = Simulator::new(m).unwrap();
        for (x, y) in [(0u64, 0u64), (200, 0), (200, 7), (255, 255), (1, 255)] {
            a.set_u64("x", x);
            a.set_u64("y", y);
            b.set_u64("x", x);
            b.set_u64("y", y);
            assert_eq!(a.get("q"), b.get("q"), "div {x}/{y}");
            assert_eq!(a.get("r"), b.get("r"), "rem {x}%{y}");
        }
    }

    #[test]
    fn lowering_specializes_narrow_designs() {
        let sim = CompiledSimulator::new(counter(8)).unwrap();
        let (tape, generic) = sim.tape_stats();
        assert!(tape >= 1);
        assert_eq!(generic, 0, "narrow counter should lower without fallbacks");
    }

    #[test]
    fn optimized_module_shrinks_the_tape_and_preserves_behavior() {
        // Redundant logic the pipeline can fold: the design computes the
        // same sum twice and adds a constant expression.
        let mut m = Module::new("redundant");
        let a = m.input("a", 8);
        let c1 = m.const_u(8, 3);
        let c2 = m.const_u(8, 4);
        let k = m.binary(BinaryOp::Add, c1, c2, 8);
        let s1 = m.binary(BinaryOp::Add, a, k, 8);
        let s2 = m.binary(BinaryOp::Add, a, k, 8);
        let y = m.binary(BinaryOp::Xor, s1, s2, 8);
        m.output("y", y);

        let mut plain = CompiledSimulator::new(m.clone()).unwrap();
        hc_rtl::passes::optimize(&mut m);
        let mut opt = CompiledSimulator::new(m).unwrap();
        assert!(
            opt.tape_stats().0 < plain.tape_stats().0,
            "optimize should shrink the tape: {:?} vs {:?}",
            opt.tape_stats(),
            plain.tape_stats()
        );
        for v in [0u64, 1, 100, 255] {
            plain.set_u64("a", v);
            opt.set_u64("a", v);
            assert_eq!(plain.get("y"), opt.get("y"));
        }
    }
}
