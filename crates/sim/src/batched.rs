//! The lane-batched simulation backend.
//!
//! [`BatchedSimulator`] replays the same lowered instruction tape as
//! [`CompiledSimulator`](crate::CompiledSimulator), but across `L`
//! independent stimulus lanes in lockstep. The value store is
//! structure-of-arrays: narrow slot `s` occupies the contiguous `u64` range
//! `narrow[s*L .. (s+1)*L]`, one element per lane, so each tape instruction
//! becomes a tight loop over lanes with no bounds checks in the way of
//! auto-vectorization — the per-instruction dispatch cost (the `match` on
//! the opcode, operand decode) is paid once per instruction instead of once
//! per instruction *per stimulus*. Wide (> 64-bit) values are flat too,
//! laid out by the scalar engines' [`WideLayout`] scaled to `L` lanes:
//! slot `s` occupies `wide[base(s) ..]`, word-major then lane-minor
//! (`base(s) + w*L + lane`), so wide operations are per-word loops across
//! contiguous lanes instead of per-lane big-integer calls. The top storage
//! word of every wide slot keeps its bits above the slot width zero, the
//! same invariant [`Bits`] maintains.
//!
//! The borrow structure of the inner loops relies on the lowering invariant
//! documented in [`crate::lower`]: a destination slot index is strictly
//! greater than every operand slot index in the same store, so one
//! `split_at_mut` at the destination's lane group separates the read and
//! write regions.
//!
//! # Lane masking
//!
//! Lanes are independent streams and may finish at different times
//! (variable `T_L`). Rather than ragged control flow, finished lanes are
//! *masked out* with [`set_active`](BatchedSimulator::set_active): a masked
//! lane's registers stop committing, its memories stop being written, and
//! its cycle counter freezes, so its architectural state is exactly the
//! state at masking time. Combinational logic is still evaluated for masked
//! lanes (it is cheap and has no side effects). Register commit remains
//! double-buffered per lane.

use hc_bits::Bits;
use hc_rtl::passes::eval::eval_pure;
use hc_rtl::{Module, ValidateError};

use crate::lower::{mask, sxt, CmpKind, EngineOptions, Instr, Loc, Lowered, WideLayout};

/// A narrow memory with `depth` words per lane (`words[lane*depth + addr]`).
#[derive(Clone, Debug)]
struct BNMem {
    words: Vec<u64>,
    depth: u64,
}

/// A wide memory with `depth` words per lane.
#[derive(Clone, Debug)]
struct BWMem {
    words: Vec<Bits>,
    depth: u64,
}

/// Top-word mask for a width (`u64::MAX` when the width fills the word).
#[inline(always)]
fn top_mask(width: u32) -> u64 {
    let rem = width % 64;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// Gathers one lane of a wide slot region (word-major, lane-minor) into a
/// fresh [`Bits`].
fn gather_bits(region: &[u64], l: usize, lane: usize, width: u32) -> Bits {
    let mut b = Bits::zero(width);
    let words = width.div_ceil(64);
    for w in 0..words {
        let chunk = (width - w * 64).min(64);
        b.deposit_u64(w * 64, chunk, region[w as usize * l + lane]);
    }
    b
}

/// Scatters `value` into one lane of a wide slot region.
fn scatter_bits(region: &mut [u64], l: usize, lane: usize, value: &Bits) {
    let width = value.width();
    let words = width.div_ceil(64);
    for w in 0..words {
        let chunk = (width - w * 64).min(64);
        region[w as usize * l + lane] = value.extract_u64(w * 64, chunk);
    }
}

/// Deposits a wide source lane group into a wide destination lane group at
/// bit `off`, for every lane. Bits below `off` are preserved; a deposit at
/// a word-misaligned offset must end exactly at the destination's width
/// (the concat emitters guarantee this), and the invariant-zero bits above
/// the destination width are rewritten as zero.
#[inline(always)]
fn wdeposit_w(dst: &mut [u64], src: &[u64], l: usize, off: u32, src_width: u32, dst_width: u32) {
    let swords = src_width.div_ceil(64) as usize;
    let base = (off / 64) as usize;
    let sh = off % 64;
    if sh == 0 {
        let full = (src_width / 64) as usize;
        dst[base * l..(base + full) * l].copy_from_slice(&src[..full * l]);
        let rem = src_width % 64;
        if rem != 0 {
            let m = (1u64 << rem) - 1;
            let d = &mut dst[(base + full) * l..][..l];
            let s = &src[full * l..][..l];
            for (d, &s) in d.iter_mut().zip(s) {
                *d = (*d & !m) | (s & m);
            }
        }
        return;
    }
    debug_assert_eq!(
        off + src_width,
        dst_width,
        "misaligned wide deposit must top out the destination"
    );
    let inv = 64 - sh;
    {
        let keep = (1u64 << sh) - 1;
        let d = &mut dst[base * l..][..l];
        let s = &src[..l];
        for (d, &s) in d.iter_mut().zip(s) {
            *d = (*d & keep) | (s << sh);
        }
    }
    for w in 1..swords {
        let a = &src[(w - 1) * l..][..l];
        let b = &src[w * l..][..l];
        let d = &mut dst[(base + w) * l..][..l];
        for i in 0..l {
            d[i] = (a[i] >> inv) | (b[i] << sh);
        }
    }
    // Spill word: the source's top chunk crosses one more destination word.
    let dwords = dst_width.div_ceil(64) as usize;
    if base + swords < dwords {
        let m = top_mask(dst_width);
        let d = &mut dst[(base + swords) * l..][..l];
        let s = &src[(swords - 1) * l..][..l];
        for (d, &s) in d.iter_mut().zip(s) {
            *d = (s >> inv) & m;
        }
    }
}

/// Deposits a narrow source lane group (`width <= 64` bits, already masked)
/// into a wide destination lane group at bit `off`. Bits below `off` are
/// preserved; bits above `off + width` in the touched words are zeroed, so
/// emit low parts before high parts (as the concat arms do).
#[inline(always)]
fn wdeposit_n(dst: &mut [u64], src: &[u64], l: usize, off: u32, width: u32) {
    let base = (off / 64) as usize;
    let sh = off % 64;
    let keep = if sh == 0 { 0 } else { (1u64 << sh) - 1 };
    if sh + width <= 64 {
        let d = &mut dst[base * l..][..l];
        for (d, &s) in d.iter_mut().zip(&src[..l]) {
            *d = (*d & keep) | (s << sh);
        }
    } else {
        let (d0, d1) = dst[base * l..].split_at_mut(l);
        for i in 0..l {
            d0[i] = (d0[i] & keep) | (src[i] << sh);
            d1[i] = src[i] >> (64 - sh);
        }
    }
}

/// The narrow SoA lane store, with the two layout guarantees the vector
/// JIT (see [`crate::NativeBatchedSimulator`]) compiles against:
///
/// * the first element sits on a **32-byte boundary**, so any lane group
///   whose displacement is a multiple of 32 may use aligned vector loads
///   and stores, and
/// * at least four padding words follow the live data, so a ragged-tail
///   lane group may read a full 256-bit vector past the end. The padding
///   is never *written* — tail stores are masked to the live lanes.
///
/// Everything else treats it as the `Vec<u64>` it replaced, via `Deref`.
#[derive(Debug)]
pub(crate) struct LaneStore {
    buf: Vec<u64>,
    off: usize,
    len: usize,
}

impl LaneStore {
    /// Words of padding readable past the live end.
    const PAD: usize = 4;

    fn from_vec(data: Vec<u64>) -> LaneStore {
        // Over-allocate by the worst-case alignment slack (three words)
        // plus the tail padding, then shift the live range up to the
        // first 32-byte boundary. `align_offset` takes the byte alignment
        // but returns a count in elements, so it is already in 0..=3.
        let len = data.len();
        let buf = vec![0u64; len + Self::PAD + 3];
        let off = buf.as_ptr().align_offset(32);
        let mut store = LaneStore { buf, off, len };
        store[..len].copy_from_slice(&data);
        store
    }

    /// The aligned base pointer the JIT entry receives. Takes `&mut`
    /// because the generated code writes through it.
    pub(crate) fn jit_ptr(&mut self) -> *mut u64 {
        unsafe { self.buf.as_mut_ptr().add(self.off) }
    }
}

impl std::ops::Deref for LaneStore {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl std::ops::DerefMut for LaneStore {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

/// A pre-resolved input-port handle: name and width checks are paid once in
/// [`BatchedSimulator::in_port`], so per-lane per-cycle harness loops can
/// drive ports without a string lookup per call.
#[derive(Clone, Copy, Debug)]
pub struct InPort {
    loc: Loc,
    width: u32,
    idx: usize,
}

impl InPort {
    /// The port's bit width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Little-endian `u64` words a value of this port occupies (see
    /// [`BatchedSimulator::set_port_words`]).
    pub fn words(&self) -> usize {
        self.width.div_ceil(64) as usize
    }
}

/// A pre-resolved output-port handle (see [`BatchedSimulator::out_port`]).
#[derive(Clone, Copy, Debug)]
pub struct OutPort {
    loc: Loc,
    width: u32,
}

impl OutPort {
    /// The port's bit width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Little-endian `u64` words a value of this port occupies (see
    /// [`BatchedSimulator::get_port_words`]).
    pub fn words(&self) -> usize {
        self.width.div_ceil(64) as usize
    }
}

/// A cycle-accurate simulator evaluating `L` independent stimulus lanes of
/// one [`Module`] in lockstep.
///
/// Each lane behaves exactly like its own
/// [`CompiledSimulator`](crate::CompiledSimulator): same inputs on lane `k`
/// produce the same outputs, register state, and cycle count as a scalar
/// run, which the differential test suite asserts. Lanes only share the
/// instruction tape, never values.
#[derive(Debug)]
pub struct BatchedSimulator {
    pub(crate) low: Lowered,
    lanes: usize,
    /// `slot * lanes + lane`.
    pub(crate) narrow: LaneStore,
    /// Flat wide store: slot `s` at `wlay.base(s) + word*lanes + lane`.
    pub(crate) wide: LaneStore,
    pub(crate) wlay: WideLayout,
    nmems: Vec<BNMem>,
    wmems: Vec<BWMem>,
    /// `reg * lanes + lane` — double-buffer for the commit.
    nreg_shadow: Vec<u64>,
    /// Flat wide shadow: reg `r` at `wreg_shadow_base[r] + word*lanes + lane`.
    wreg_shadow: Vec<u64>,
    wreg_shadow_base: Vec<usize>,
    active: Vec<bool>,
    pub(crate) cycles: Vec<u64>,
    pub(crate) evaluated: bool,
    /// One dirty bit per component (see [`crate::tapeopt`]); a clean
    /// component's instructions are skipped on [`eval`](Self::eval).
    pub(crate) dirty: Vec<bool>,
    /// Running count of component evaluations skipped by activity gating.
    pub(crate) cones_skipped: u64,
}

/// `dst[lane] = f(a[lane])` over the destination's lane group.
#[inline(always)]
fn lane_un(narrow: &mut [u64], l: usize, a: u32, dst: u32, f: impl Fn(u64) -> u64) {
    let (src, rest) = narrow.split_at_mut(dst as usize * l);
    let a = &src[a as usize * l..][..l];
    for (d, &x) in rest[..l].iter_mut().zip(a) {
        *d = f(x);
    }
}

/// `dst[lane] = f(a[lane], b[lane])` over the destination's lane group.
#[inline(always)]
fn lane_bin(narrow: &mut [u64], l: usize, a: u32, b: u32, dst: u32, f: impl Fn(u64, u64) -> u64) {
    let (src, rest) = narrow.split_at_mut(dst as usize * l);
    let a = &src[a as usize * l..][..l];
    let b = &src[b as usize * l..][..l];
    for (i, d) in rest[..l].iter_mut().enumerate() {
        *d = f(a[i], b[i]);
    }
}

/// `dst[lane] = f(a[lane], b[lane], c[lane])` over the destination's lane
/// group (for fused three-source superinstructions).
#[inline(always)]
fn lane_tri(
    narrow: &mut [u64],
    l: usize,
    a: u32,
    b: u32,
    c: u32,
    dst: u32,
    f: impl Fn(u64, u64, u64) -> u64,
) {
    let (src, rest) = narrow.split_at_mut(dst as usize * l);
    let a = &src[a as usize * l..][..l];
    let b = &src[b as usize * l..][..l];
    let c = &src[c as usize * l..][..l];
    for (i, d) in rest[..l].iter_mut().enumerate() {
        *d = f(a[i], b[i], c[i]);
    }
}

impl BatchedSimulator {
    /// Lowers and validates the module and prepares `lanes` independent
    /// copies of the simulation state (registers at their `init` values,
    /// memories zeroed, all lanes active).
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally invalid.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(module: Module, lanes: usize) -> Result<Self, ValidateError> {
        Self::with_options(module, lanes, EngineOptions::default())
    }

    /// Like [`new`](BatchedSimulator::new), with explicit construction
    /// options (see [`EngineOptions`]).
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally invalid.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn with_options(
        module: Module,
        lanes: usize,
        options: EngineOptions,
    ) -> Result<Self, ValidateError> {
        assert!(lanes > 0, "a batched simulator needs at least one lane");
        let low = Lowered::new(module, options)?;
        let mut narrow = Vec::with_capacity(low.narrow_init.len() * lanes);
        for &v in &low.narrow_init {
            narrow.extend(std::iter::repeat_n(v, lanes));
        }
        let narrow = LaneStore::from_vec(narrow);
        let wlay = WideLayout::new(&low.wide_init, lanes);
        let wide = LaneStore::from_vec(wlay.image(&low.wide_init));
        let nmems = low
            .nmem_depths
            .iter()
            .map(|&depth| BNMem {
                words: vec![0; depth as usize * lanes],
                depth,
            })
            .collect();
        let wmems = low
            .wmem_dims
            .iter()
            .map(|&(width, depth)| BWMem {
                words: vec![Bits::zero(width); depth as usize * lanes],
                depth,
            })
            .collect();
        let nreg_shadow = vec![0u64; low.nregs.len() * lanes];
        let mut wreg_shadow_base = Vec::with_capacity(low.wregs.len());
        let mut soff = 0usize;
        for p in &low.wregs {
            wreg_shadow_base.push(soff);
            soff += wlay.words(p.slot).len();
        }
        let wreg_shadow = vec![0u64; soff];
        let dirty = vec![true; low.comps.len()];
        Ok(BatchedSimulator {
            low,
            lanes,
            narrow,
            wide,
            wlay,
            nmems,
            wmems,
            nreg_shadow,
            wreg_shadow,
            wreg_shadow_base,
            active: vec![true; lanes],
            cycles: vec![0; lanes],
            evaluated: false,
            dirty,
            cones_skipped: 0,
        })
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.low.module
    }

    /// Number of lanes evaluated in lockstep.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Instruction tape length as lowered, *before* the tape backend
    /// optimizer ran (generic entries count the `eval_pure` fallbacks among
    /// them) — so the figure reports what the IR-level pipeline produced.
    pub fn tape_stats(&self) -> (usize, usize) {
        self.low.lowered_stats
    }

    /// The tape backend optimizer's report (`None` when it was disabled via
    /// [`EngineOptions::no_tape_opt`]), with the runtime
    /// cones-skipped counter filled in.
    pub fn tape_opt_report(&self) -> Option<crate::TapeOptReport> {
        self.low.tape_opt.map(|mut r| {
            r.cones_skipped = self.cones_skipped;
            r
        })
    }

    /// Records an input write: with gating on, a *changed* value marks the
    /// input's reader cones dirty; an unchanged write is free. With gating
    /// off every write invalidates the settled state, as before.
    fn touch_input(&mut self, idx: usize, changed: bool) {
        if self.low.gate {
            if changed {
                for &k in self.low.input_parts.row(idx) {
                    self.dirty[self.low.part_comp[k as usize] as usize] = true;
                }
                self.evaluated = false;
            }
        } else {
            self.evaluated = false;
        }
    }

    /// Completed clock cycles of one lane (frozen while the lane is
    /// masked out).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn cycle(&self, lane: usize) -> u64 {
        self.cycles[lane]
    }

    /// Whether a lane currently commits state on [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn is_active(&self, lane: usize) -> bool {
        self.active[lane]
    }

    /// Masks a lane out of (or back into) the clock: inactive lanes keep
    /// their register, memory, and cycle-counter state frozen across
    /// [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn set_active(&mut self, lane: usize, active: bool) {
        self.active[lane] = active;
    }

    /// Number of lanes still active.
    pub fn active_lanes(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    fn read_loc(&self, lane: usize, loc: Loc, width: u32) -> Bits {
        match loc {
            Loc::N(s) => Bits::from_u64(width, self.narrow[s as usize * self.lanes + lane]),
            Loc::W(s) => gather_bits(&self.wide[self.wlay.base(s)..], self.lanes, lane, width),
        }
    }

    /// Writes one lane of an input from little-endian words, comparing in
    /// place: only a changed value marks the port's cones dirty. Words
    /// past the end of `words` read as zero and the top word is masked to
    /// the port width, so the zero-top invariant holds. Every lane write
    /// goes through here.
    fn write_lane(&mut self, lane: usize, port: InPort, words: &[u64]) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let l = self.lanes;
        let changed = match port.loc {
            Loc::N(s) => {
                let v = words.first().copied().unwrap_or(0) & mask(port.width);
                std::mem::replace(&mut self.narrow[s as usize * l + lane], v) != v
            }
            Loc::W(s) => {
                let n = self.wlay.nwords(s) as usize;
                let base = self.wlay.base(s) + lane;
                let mut changed = false;
                for w in 0..n {
                    let mut v = words.get(w).copied().unwrap_or(0);
                    if w == n - 1 {
                        v &= top_mask(port.width);
                    }
                    changed |= std::mem::replace(&mut self.wide[base + w * l], v) != v;
                }
                changed
            }
        };
        self.touch_input(port.idx, changed);
    }

    /// Drives an input port on one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range, no input named `name` exists, or
    /// the width differs.
    pub fn set(&mut self, lane: usize, name: &str, value: Bits) {
        let port = self.in_port(name);
        assert_eq!(port.width, value.width(), "input {name:?} width");
        self.write_lane(lane, port, value.as_words());
    }

    /// Drives an input port on one lane from a `u64` (truncated to the port
    /// width; the high words of a wide port are zeroed).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or no input named `name` exists.
    pub fn set_u64(&mut self, lane: usize, name: &str, value: u64) {
        let port = self.in_port(name);
        self.write_lane(lane, port, &[value]);
    }

    /// Drives an input port to the same `u64` on every lane (the usual way
    /// to drive clock-like controls such as `rst`).
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    pub fn set_all_u64(&mut self, name: &str, value: u64) {
        let port = self.in_port(name);
        for lane in 0..self.lanes {
            self.write_lane(lane, port, &[value]);
        }
    }

    /// Resolves an input port once for the fast per-lane accessors.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    pub fn in_port(&self, name: &str) -> InPort {
        let idx = self.low.input_idx(name);
        let (loc, width) = self.low.input_locs[idx];
        InPort { loc, width, idx }
    }

    /// Resolves an output port once for the fast per-lane accessors.
    ///
    /// # Panics
    ///
    /// Panics if no output named `name` exists.
    pub fn out_port(&self, name: &str) -> OutPort {
        let (loc, width) = self.low.output_loc(name);
        OutPort { loc, width }
    }

    /// Drives a pre-resolved input port on one lane from a `u64`
    /// (truncated to the port width). The fast-path equivalent of
    /// [`set_u64`](Self::set_u64).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn set_port_u64(&mut self, lane: usize, port: InPort, value: u64) {
        self.write_lane(lane, port, &[value]);
    }

    /// Drives a pre-resolved input port on one lane from its little-endian
    /// words ([`InPort::words`] of them; bits above the width are
    /// ignored). The allocation-free equivalent of [`set`](Self::set): an
    /// unchanged value leaves the port's cones clean.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `words` has the wrong length.
    pub fn set_port_words(&mut self, lane: usize, port: InPort, words: &[u64]) {
        assert_eq!(words.len(), port.words(), "input port word count");
        self.write_lane(lane, port, words);
    }

    /// Reads a narrow (≤ 64-bit) pre-resolved output port on one lane
    /// without allocating (evaluating first if necessary).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or the port is wide.
    pub fn get_port_u64(&mut self, lane: usize, port: OutPort) -> u64 {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.eval();
        match port.loc {
            Loc::N(s) => self.narrow[s as usize * self.lanes + lane],
            Loc::W(_) => panic!("get_port_u64 needs a narrow (<= 64-bit) output"),
        }
    }

    /// Copies a pre-resolved output port on one lane into `out` as
    /// little-endian words ([`OutPort::words`] of them), evaluating first
    /// if necessary. The allocation-free equivalent of [`get`](Self::get).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `out` has the wrong length.
    pub fn get_port_words(&mut self, lane: usize, port: OutPort, out: &mut [u64]) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        assert_eq!(out.len(), port.words(), "output port word count");
        self.eval();
        let l = self.lanes;
        match port.loc {
            Loc::N(s) => out[0] = self.narrow[s as usize * l + lane],
            Loc::W(s) => {
                let base = self.wlay.base(s) + lane;
                for (w, o) in out.iter_mut().enumerate() {
                    *o = self.wide[base + w * l];
                }
            }
        }
    }

    /// Reads back the `u64` currently driving a narrow pre-resolved input
    /// port on one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or the port is wide.
    pub fn input_port_u64(&self, lane: usize, port: InPort) -> u64 {
        assert!(lane < self.lanes, "lane {lane} out of range");
        match port.loc {
            Loc::N(s) => self.narrow[s as usize * self.lanes + lane],
            Loc::W(_) => panic!("input_port_u64 needs a narrow (<= 64-bit) input"),
        }
    }

    /// Reads an output port on one lane (evaluating first if necessary).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or no output named `name` exists.
    pub fn get(&mut self, lane: usize, name: &str) -> Bits {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.eval();
        let (loc, width) = self.low.output_loc(name);
        self.read_loc(lane, loc, width)
    }

    /// Reads back the value currently driving an input port on one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or no input named `name` exists.
    pub fn input_value(&self, lane: usize, name: &str) -> Bits {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let idx = self.low.input_idx(name);
        let (loc, width) = self.low.input_locs[idx];
        self.read_loc(lane, loc, width)
    }

    /// Reads a register's current value on one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or no register named `name` exists.
    pub fn peek_reg(&self, lane: usize, name: &str) -> Bits {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let ri = self.low.reg_idx(name);
        self.read_loc(lane, self.low.reg_loc[ri], self.low.module.regs()[ri].width)
    }

    /// Settles combinational logic for all lanes by replaying the
    /// instruction tape once, evaluating each instruction across the lane
    /// vector. Called implicitly by [`get`](Self::get) and
    /// [`step`](Self::step) when needed.
    pub fn eval(&mut self) {
        if self.evaluated {
            return;
        }
        if self.low.gate {
            // Activity gating: only components whose inputs (ports, register
            // outputs, memory contents) changed since they last settled are
            // replayed; quiescent components keep their slot values.
            for c in 0..self.low.comps.len() {
                if !self.dirty[c] {
                    self.cones_skipped += 1;
                    continue;
                }
                self.dirty[c] = false;
                let (start, end) = self.low.comp_range(c);
                self.eval_range(start, end);
            }
        } else {
            self.eval_range(0, self.low.tape.len());
        }
        self.evaluated = true;
    }

    /// Dispatches one tape range to a monomorphized replay for the common
    /// lane counts: with the lane count a compile-time constant the per
    /// instruction lane loops have a fixed trip count, so LLVM unrolls
    /// and vectorizes them outright instead of emitting runtime-length
    /// loop preambles — that preamble is pure dispatch overhead and
    /// dominates the evaluation cost at moderate lane counts.
    pub(crate) fn eval_range(&mut self, start: usize, end: usize) {
        match self.lanes {
            1 => self.eval_tape::<1>(start, end),
            2 => self.eval_tape::<2>(start, end),
            4 => self.eval_tape::<4>(start, end),
            8 => self.eval_tape::<8>(start, end),
            16 => self.eval_tape::<16>(start, end),
            32 => self.eval_tape::<32>(start, end),
            _ => self.eval_tape::<0>(start, end),
        }
    }

    /// The tape replay body; `L == 0` means "dynamic lane count".
    #[allow(clippy::too_many_lines)]
    fn eval_tape<const L: usize>(&mut self, start: usize, end: usize) {
        let l = if L == 0 { self.lanes } else { L };
        let narrow = &mut self.narrow[..];
        let wide = &mut self.wide[..];
        let lay = &self.wlay;
        let nwords = |s: u32| lay.nwords(s) as usize;
        for instr in &self.low.tape[start..end] {
            match *instr {
                Instr::CopyMask { a, dst, mask } => {
                    lane_un(narrow, l, a, dst, |x| x & mask);
                }
                Instr::Not { a, dst, mask } => {
                    lane_un(narrow, l, a, dst, |x| !x & mask);
                }
                Instr::Neg { a, dst, mask } => {
                    lane_un(narrow, l, a, dst, |x| x.wrapping_neg() & mask);
                }
                Instr::RedOr { a, dst } => {
                    lane_un(narrow, l, a, dst, |x| (x != 0) as u64);
                }
                Instr::RedAnd { a, dst, ones } => {
                    lane_un(narrow, l, a, dst, |x| (x == ones) as u64);
                }
                Instr::RedXor { a, dst } => {
                    lane_un(narrow, l, a, dst, |x| (x.count_ones() & 1) as u64);
                }
                Instr::Add { a, b, dst, mask } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| x.wrapping_add(y) & mask);
                }
                Instr::Sub { a, b, dst, mask } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| x.wrapping_sub(y) & mask);
                }
                Instr::MulS {
                    a,
                    b,
                    dst,
                    sa,
                    sb,
                    mask,
                } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| {
                        sxt(x, sa).wrapping_mul(sxt(y, sb)) as u64 & mask
                    });
                }
                Instr::MulU { a, b, dst, mask } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| x.wrapping_mul(y) & mask);
                }
                Instr::DivU { a, b, dst, mask } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| {
                        x.checked_div(y).unwrap_or(mask)
                    });
                }
                Instr::RemU { a, b, dst } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| if y == 0 { x } else { x % y });
                }
                Instr::And { a, b, dst } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| x & y);
                }
                Instr::Or { a, b, dst } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| x | y);
                }
                Instr::Xor { a, b, dst } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| x ^ y);
                }
                Instr::Eq { a, b, dst } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| (x == y) as u64);
                }
                Instr::Ne { a, b, dst } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| (x != y) as u64);
                }
                Instr::LtU { a, b, dst } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| (x < y) as u64);
                }
                Instr::LtS { a, b, dst, s } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| (sxt(x, s) < sxt(y, s)) as u64);
                }
                Instr::LeU { a, b, dst } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| (x <= y) as u64);
                }
                Instr::LeS { a, b, dst, s } => {
                    lane_bin(narrow, l, a, b, dst, |x, y| (sxt(x, s) <= sxt(y, s)) as u64);
                }
                Instr::Shl {
                    a,
                    b,
                    dst,
                    width,
                    mask,
                } => {
                    lane_bin(narrow, l, a, b, dst, |x, amt| {
                        if amt >= u64::from(width) {
                            0
                        } else {
                            (x << amt) & mask
                        }
                    });
                }
                Instr::ShrL { a, b, dst, width } => {
                    lane_bin(narrow, l, a, b, dst, |x, amt| {
                        if amt >= u64::from(width) {
                            0
                        } else {
                            x >> amt
                        }
                    });
                }
                Instr::ShrA {
                    a,
                    b,
                    dst,
                    width,
                    s,
                    mask,
                } => {
                    // Sign-extended to i64, a shift of >= width saturates to
                    // all-sign on its own once clamped below 64.
                    let _ = width;
                    lane_bin(narrow, l, a, b, dst, |x, amt| {
                        (sxt(x, s) >> amt.min(63)) as u64 & mask
                    });
                }
                Instr::MuxN { sel, t, f, dst } => {
                    let (src, rest) = narrow.split_at_mut(dst as usize * l);
                    let sel = &src[sel as usize * l..][..l];
                    let t = &src[t as usize * l..][..l];
                    let f = &src[f as usize * l..][..l];
                    for (i, d) in rest[..l].iter_mut().enumerate() {
                        *d = if sel[i] != 0 { t[i] } else { f[i] };
                    }
                }
                Instr::ConcatN { hi, lo, dst, lo_w } => {
                    lane_bin(narrow, l, hi, lo, dst, |h, lo| (h << lo_w) | lo);
                }
                Instr::SliceN { a, dst, lo, mask } => {
                    lane_un(narrow, l, a, dst, |x| (x >> lo) & mask);
                }
                Instr::SExtN { a, dst, s, mask } => {
                    lane_un(narrow, l, a, dst, |x| sxt(x, s) as u64 & mask);
                }
                Instr::SliceW {
                    src,
                    dst,
                    lo,
                    width,
                } => {
                    let region = &wide[lay.words(src)];
                    let sw = (lo / 64) as usize;
                    let sh = lo % 64;
                    let m = mask(width);
                    let a = &region[sw * l..][..l];
                    let d = &mut narrow[dst as usize * l..][..l];
                    if sh == 0 {
                        for (d, &a) in d.iter_mut().zip(a) {
                            *d = a & m;
                        }
                    } else if sw + 1 < nwords(src) {
                        let b = &region[(sw + 1) * l..][..l];
                        for (i, d) in d.iter_mut().enumerate() {
                            *d = ((a[i] >> sh) | (b[i] << (64 - sh))) & m;
                        }
                    } else {
                        for (d, &a) in d.iter_mut().zip(a) {
                            *d = (a >> sh) & m;
                        }
                    }
                }
                Instr::ConcatWNN {
                    hi,
                    lo,
                    dst,
                    hi_w,
                    lo_w,
                } => {
                    let region = &mut wide[lay.words(dst)];
                    wdeposit_n(region, &narrow[lo as usize * l..][..l], l, 0, lo_w);
                    wdeposit_n(region, &narrow[hi as usize * l..][..l], l, lo_w, hi_w);
                }
                Instr::SliceWW { src, dst, lo } => {
                    // Tape invariant: dst slot > operand slots, and the flat
                    // offsets are monotonic in slot index.
                    let (head, rest) = wide.split_at_mut(lay.base(dst));
                    let region = &head[lay.words(src)];
                    let dd = &mut rest[..nwords(dst) * l];
                    for w in 0..nwords(dst) {
                        let off = lo + w as u32 * 64;
                        let sw = (off / 64) as usize;
                        let sh = off % 64;
                        let m = if w + 1 == nwords(dst) {
                            lay.tail_mask(dst)
                        } else {
                            u64::MAX
                        };
                        let a = &region[sw * l..][..l];
                        let dw = &mut dd[w * l..][..l];
                        if sh == 0 {
                            for (d, &a) in dw.iter_mut().zip(a) {
                                *d = a & m;
                            }
                        } else if sw + 1 < nwords(src) {
                            let b = &region[(sw + 1) * l..][..l];
                            for (i, d) in dw.iter_mut().enumerate() {
                                *d = ((a[i] >> sh) | (b[i] << (64 - sh))) & m;
                            }
                        } else {
                            for (d, &a) in dw.iter_mut().zip(a) {
                                *d = (a >> sh) & m;
                            }
                        }
                    }
                }
                Instr::ConcatWWW { hi, lo, dst, lo_w } => {
                    let (head, rest) = wide.split_at_mut(lay.base(dst));
                    let dd = &mut rest[..nwords(dst) * l];
                    let dw = lay.width(dst);
                    wdeposit_w(dd, &head[lay.words(lo)], l, 0, lo_w, dw);
                    wdeposit_w(dd, &head[lay.words(hi)], l, lo_w, lay.width(hi), dw);
                }
                Instr::ConcatWWN { hi, lo, dst, lo_w } => {
                    let (head, rest) = wide.split_at_mut(lay.base(dst));
                    let dd = &mut rest[..nwords(dst) * l];
                    let dw = lay.width(dst);
                    wdeposit_n(dd, &narrow[lo as usize * l..][..l], l, 0, lo_w);
                    wdeposit_w(dd, &head[lay.words(hi)], l, lo_w, lay.width(hi), dw);
                }
                Instr::ConcatWNW {
                    hi,
                    lo,
                    dst,
                    hi_w,
                    lo_w,
                } => {
                    let (head, rest) = wide.split_at_mut(lay.base(dst));
                    let dd = &mut rest[..nwords(dst) * l];
                    wdeposit_w(dd, &head[lay.words(lo)], l, 0, lo_w, lay.width(dst));
                    wdeposit_n(dd, &narrow[hi as usize * l..][..l], l, lo_w, hi_w);
                }
                Instr::ZExtWN { a, dst, a_w } => {
                    let _ = a_w; // narrow values are already masked
                    let (w0, hi) = wide[lay.words(dst)].split_at_mut(l);
                    w0.copy_from_slice(&narrow[a as usize * l..][..l]);
                    hi.fill(0);
                }
                Instr::SExtWN { a, dst, a_w } => {
                    let ext = !mask(a_w);
                    let s = &narrow[a as usize * l..][..l];
                    let (w0, hi) = wide[lay.words(dst)].split_at_mut(l);
                    for (d, &v) in w0.iter_mut().zip(s) {
                        let fill = ((v >> (a_w - 1)) & 1).wrapping_neg();
                        *d = v | (fill & ext);
                    }
                    let words = nwords(dst);
                    for w in 1..words {
                        let m = if w + 1 == words {
                            lay.tail_mask(dst)
                        } else {
                            u64::MAX
                        };
                        let dw = &mut hi[(w - 1) * l..][..l];
                        for (d, &v) in dw.iter_mut().zip(s) {
                            *d = ((v >> (a_w - 1)) & 1).wrapping_neg() & m;
                        }
                    }
                }
                Instr::MuxW { sel, t, f, dst } => {
                    let (head, rest) = wide.split_at_mut(lay.base(dst));
                    let (tb, fb) = (lay.base(t), lay.base(f));
                    let sel = &narrow[sel as usize * l..][..l];
                    let dd = &mut rest[..nwords(dst) * l];
                    for w in 0..nwords(dst) {
                        let t = &head[tb + w * l..][..l];
                        let f = &head[fb + w * l..][..l];
                        let dw = &mut dd[w * l..][..l];
                        for i in 0..l {
                            dw[i] = if sel[i] != 0 { t[i] } else { f[i] };
                        }
                    }
                }
                Instr::EqW { a, b, dst } => {
                    let (ab, bb) = (lay.base(a), lay.base(b));
                    let d = &mut narrow[dst as usize * l..][..l];
                    d.iter_mut().for_each(|d| *d = 1);
                    for w in 0..nwords(a) {
                        let x = &wide[ab + w * l..][..l];
                        let y = &wide[bb + w * l..][..l];
                        for (i, d) in d.iter_mut().enumerate() {
                            *d &= (x[i] == y[i]) as u64;
                        }
                    }
                }
                Instr::NeW { a, b, dst } => {
                    let (ab, bb) = (lay.base(a), lay.base(b));
                    let d = &mut narrow[dst as usize * l..][..l];
                    d.iter_mut().for_each(|d| *d = 0);
                    for w in 0..nwords(a) {
                        let x = &wide[ab + w * l..][..l];
                        let y = &wide[bb + w * l..][..l];
                        for (i, d) in d.iter_mut().enumerate() {
                            *d |= (x[i] != y[i]) as u64;
                        }
                    }
                }
                Instr::CopyW { a, dst } => {
                    let (head, rest) = wide.split_at_mut(lay.base(dst));
                    rest[..nwords(dst) * l].copy_from_slice(&head[lay.words(a)]);
                }
                Instr::MemReadN { mem, addr, dst } => {
                    let m = &self.nmems[mem as usize];
                    let depth = m.depth;
                    let (src, rest) = narrow.split_at_mut(dst as usize * l);
                    let d = &mut rest[..l];
                    match addr {
                        Loc::N(s) => {
                            let a = &src[s as usize * l..][..l];
                            for (i, d) in d.iter_mut().enumerate() {
                                *d = m.words[i * depth as usize + (a[i] % depth) as usize];
                            }
                        }
                        Loc::W(s) => {
                            // The address is the wide value's low word.
                            let a = &wide[lay.base(s)..][..l];
                            for (i, d) in d.iter_mut().enumerate() {
                                *d = m.words[i * depth as usize + (a[i] % depth) as usize];
                            }
                        }
                    }
                }
                Instr::MemReadW { mem, addr, dst } => {
                    let m = &self.wmems[mem as usize];
                    let depth = m.depth as usize;
                    let d = lay.base(dst);
                    for lane in 0..l {
                        let a = (match addr {
                            Loc::N(s) => narrow[s as usize * l + lane],
                            Loc::W(s) => wide[lay.base(s) + lane],
                        } % m.depth) as usize;
                        scatter_bits(&mut wide[d..], l, lane, &m.words[lane * depth + a]);
                    }
                }
                Instr::Generic(gi) => {
                    let g = &self.low.generic[gi as usize];
                    for lane in 0..l {
                        let mut args = Vec::with_capacity(g.args.len());
                        for &(loc, w) in &g.args {
                            args.push(match loc {
                                Loc::N(s) => Bits::from_u64(w, narrow[s as usize * l + lane]),
                                Loc::W(s) => gather_bits(&wide[lay.base(s)..], l, lane, w),
                            });
                        }
                        let v = eval_pure(&g.node, g.width, &args).expect("pure node");
                        match g.dst {
                            Loc::N(s) => narrow[s as usize * l + lane] = v.to_u64(),
                            Loc::W(s) => {
                                scatter_bits(&mut wide[lay.base(s)..], l, lane, &v);
                            }
                        }
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
                    lane_tri(narrow, l, a, b, c, dst, |x, y, z| {
                        (sxt(x, sa).wrapping_mul(sxt(y, sb)) as u64 & mmask).wrapping_add(z) & mask
                    });
                }
                Instr::MacU {
                    a,
                    b,
                    c,
                    dst,
                    mmask,
                    mask,
                } => {
                    lane_tri(narrow, l, a, b, c, dst, |x, y, z| {
                        (x.wrapping_mul(y) & mmask).wrapping_add(z) & mask
                    });
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
                    let (src, rest) = narrow.split_at_mut(dst as usize * l);
                    let a = &src[a as usize * l..][..l];
                    let b = &src[b as usize * l..][..l];
                    let tv = &src[t as usize * l..][..l];
                    let fv = &src[f as usize * l..][..l];
                    let d = &mut rest[..l];
                    for i in 0..l {
                        let cond = match kind {
                            CmpKind::Eq => a[i] == b[i],
                            CmpKind::Ne => a[i] != b[i],
                            CmpKind::LtU => a[i] < b[i],
                            CmpKind::LtS => sxt(a[i], s) < sxt(b[i], s),
                            CmpKind::LeU => a[i] <= b[i],
                            CmpKind::LeS => sxt(a[i], s) <= sxt(b[i], s),
                        };
                        d[i] = if cond { tv[i] } else { fv[i] };
                    }
                }
                Instr::ShlI { a, dst, sh, mask } => {
                    lane_un(narrow, l, a, dst, |x| (x << sh) & mask);
                }
                Instr::SraI {
                    a,
                    dst,
                    sh,
                    s,
                    mask,
                } => {
                    lane_un(narrow, l, a, dst, |x| (sxt(x, s) >> sh) as u64 & mask);
                }
            }
        }
    }

    /// Advances one clock cycle on every *active* lane: settles
    /// combinational logic for all lanes, then commits register
    /// next-values and memory writes per active lane (double-buffered, as
    /// in the scalar engine). Masked lanes keep their state and cycle
    /// count unchanged.
    pub fn step(&mut self) {
        self.eval();
        let l = self.lanes;
        let gate = self.low.gate;
        let mut state_changed = false;
        let all_active = self.active.iter().all(|&a| a);
        // Phase 1: gather next values while every register slot still holds
        // its pre-edge value (registers may feed each other). When every
        // lane is active (the overwhelmingly common case) the per-lane
        // reset/enable `Option` tests hoist out of the loop and each
        // register row moves as a slice, which the compiler turns into
        // straight vector code.
        if all_active {
            for (ri, p) in self.low.nregs.iter().enumerate() {
                let sh = &mut self.nreg_shadow[ri * l..][..l];
                let next = &self.narrow[p.next as usize * l..][..l];
                let cur = &self.narrow[p.slot as usize * l..][..l];
                match (p.reset, p.en) {
                    (None, None) => sh.copy_from_slice(next),
                    (None, Some(e)) => {
                        let en = &self.narrow[e as usize * l..][..l];
                        for k in 0..l {
                            sh[k] = if en[k] != 0 { next[k] } else { cur[k] };
                        }
                    }
                    (Some(r), None) => {
                        let rst = &self.narrow[r as usize * l..][..l];
                        for k in 0..l {
                            sh[k] = if rst[k] != 0 { p.init } else { next[k] };
                        }
                    }
                    (Some(r), Some(e)) => {
                        let rst = &self.narrow[r as usize * l..][..l];
                        let en = &self.narrow[e as usize * l..][..l];
                        for k in 0..l {
                            sh[k] = if rst[k] != 0 {
                                p.init
                            } else if en[k] != 0 {
                                next[k]
                            } else {
                                cur[k]
                            };
                        }
                    }
                }
            }
        } else {
            for (ri, p) in self.low.nregs.iter().enumerate() {
                for lane in 0..l {
                    if !self.active[lane] {
                        continue;
                    }
                    let reset = p
                        .reset
                        .is_some_and(|r| self.narrow[r as usize * l + lane] != 0);
                    self.nreg_shadow[ri * l + lane] = if reset {
                        p.init
                    } else if p.en.is_none_or(|e| self.narrow[e as usize * l + lane] != 0) {
                        self.narrow[p.next as usize * l + lane]
                    } else {
                        self.narrow[p.slot as usize * l + lane]
                    };
                }
            }
        }
        for (ri, p) in self.low.wregs.iter().enumerate() {
            let words = self.wlay.nwords(p.slot) as usize;
            let sb = self.wreg_shadow_base[ri];
            let slot_b = self.wlay.base(p.slot);
            let next_b = self.wlay.base(p.next);
            let init = p.init.as_words();
            // Same hoisting for wide registers: the word-major, lane-minor
            // layout makes a whole register row (`words * l`) contiguous.
            if all_active {
                match (p.reset, p.en) {
                    (None, None) => {
                        let (dst, src) = (sb, next_b);
                        self.wreg_shadow[dst..dst + words * l]
                            .copy_from_slice(&self.wide[src..src + words * l]);
                    }
                    (None, Some(e)) => {
                        let en = &self.narrow[e as usize * l..][..l];
                        for w in 0..words {
                            let sh = &mut self.wreg_shadow[sb + w * l..][..l];
                            let next = &self.wide[next_b + w * l..][..l];
                            let cur = &self.wide[slot_b + w * l..][..l];
                            for k in 0..l {
                                sh[k] = if en[k] != 0 { next[k] } else { cur[k] };
                            }
                        }
                    }
                    (Some(r), None) => {
                        let rst = &self.narrow[r as usize * l..][..l];
                        for (w, &iw) in init.iter().enumerate() {
                            let sh = &mut self.wreg_shadow[sb + w * l..][..l];
                            let next = &self.wide[next_b + w * l..][..l];
                            for k in 0..l {
                                sh[k] = if rst[k] != 0 { iw } else { next[k] };
                            }
                        }
                    }
                    (Some(r), Some(e)) => {
                        let rst = &self.narrow[r as usize * l..][..l];
                        let en = &self.narrow[e as usize * l..][..l];
                        for (w, &iw) in init.iter().enumerate() {
                            let sh = &mut self.wreg_shadow[sb + w * l..][..l];
                            let next = &self.wide[next_b + w * l..][..l];
                            let cur = &self.wide[slot_b + w * l..][..l];
                            for k in 0..l {
                                sh[k] = if rst[k] != 0 {
                                    iw
                                } else if en[k] != 0 {
                                    next[k]
                                } else {
                                    cur[k]
                                };
                            }
                        }
                    }
                }
                continue;
            }
            for (w, &iw) in init.iter().enumerate() {
                for lane in 0..l {
                    if !self.active[lane] {
                        continue;
                    }
                    let reset = p
                        .reset
                        .is_some_and(|r| self.narrow[r as usize * l + lane] != 0);
                    self.wreg_shadow[sb + w * l + lane] = if reset {
                        iw
                    } else if p.en.is_none_or(|e| self.narrow[e as usize * l + lane] != 0) {
                        self.wide[next_b + w * l + lane]
                    } else {
                        self.wide[slot_b + w * l + lane]
                    };
                }
            }
        }
        // Phase 2: memory writes sample the settled combinational values on
        // active lanes, in port order.
        for w in &self.low.nmem_writes {
            let mut changed = false;
            for lane in 0..l {
                if !self.active[lane] || self.narrow[w.en as usize * l + lane] == 0 {
                    continue;
                }
                let a = match w.addr {
                    Loc::N(s) => self.narrow[s as usize * l + lane],
                    Loc::W(s) => self.wide[self.wlay.base(s) + lane],
                } % self.nmems[w.mem as usize].depth;
                let v = self.narrow[w.data as usize * l + lane];
                let m = &mut self.nmems[w.mem as usize];
                if std::mem::replace(&mut m.words[lane * m.depth as usize + a as usize], v) != v {
                    changed = true;
                }
            }
            if changed {
                state_changed = true;
                if gate {
                    for &k in self.low.mem_parts.row(w.mem as usize) {
                        self.dirty[self.low.part_comp[k as usize] as usize] = true;
                    }
                }
            }
        }
        for w in &self.low.wmem_writes {
            let mut changed = false;
            for lane in 0..l {
                if !self.active[lane] || self.narrow[w.en as usize * l + lane] == 0 {
                    continue;
                }
                let a = match w.addr {
                    Loc::N(s) => self.narrow[s as usize * l + lane],
                    Loc::W(s) => self.wide[self.wlay.base(s) + lane],
                } % self.wmems[w.mem as usize].depth;
                let data = gather_bits(
                    &self.wide[self.wlay.base(w.data)..],
                    l,
                    lane,
                    self.wlay.width(w.data),
                );
                let m = &mut self.wmems[w.mem as usize];
                let slot = &mut m.words[lane * m.depth as usize + a as usize];
                if *slot != data {
                    *slot = data;
                    changed = true;
                }
            }
            if changed {
                state_changed = true;
                if gate {
                    let row = self.low.nmem_depths.len() + w.mem as usize;
                    for &k in self.low.mem_parts.row(row) {
                        self.dirty[self.low.part_comp[k as usize] as usize] = true;
                    }
                }
            }
        }
        // Phase 3: the simultaneous commit, active lanes only. All-active
        // rows compare and copy as contiguous slices.
        for (ri, p) in self.low.nregs.iter().enumerate() {
            let changed = if all_active {
                let sh = &self.nreg_shadow[ri * l..][..l];
                let row = &mut self.narrow[p.slot as usize * l..][..l];
                if row == sh {
                    false
                } else {
                    row.copy_from_slice(sh);
                    true
                }
            } else {
                let mut changed = false;
                for lane in 0..l {
                    if self.active[lane] {
                        let v = self.nreg_shadow[ri * l + lane];
                        if std::mem::replace(&mut self.narrow[p.slot as usize * l + lane], v) != v {
                            changed = true;
                        }
                    }
                }
                changed
            };
            if changed {
                state_changed = true;
                if gate {
                    for &k in self.low.reg_parts.row(ri) {
                        self.dirty[self.low.part_comp[k as usize] as usize] = true;
                    }
                }
            }
        }
        for (ri, p) in self.low.wregs.iter().enumerate() {
            let words = self.wlay.nwords(p.slot) as usize;
            let sb = self.wreg_shadow_base[ri];
            let slot_b = self.wlay.base(p.slot);
            let changed = if all_active {
                let sh = &self.wreg_shadow[sb..sb + words * l];
                let row = &mut self.wide[slot_b..slot_b + words * l];
                if row == sh {
                    false
                } else {
                    row.copy_from_slice(sh);
                    true
                }
            } else {
                let mut changed = false;
                for w in 0..words {
                    for lane in 0..l {
                        if self.active[lane] {
                            let v = self.wreg_shadow[sb + w * l + lane];
                            if std::mem::replace(&mut self.wide[slot_b + w * l + lane], v) != v {
                                changed = true;
                            }
                        }
                    }
                }
                changed
            };
            if changed {
                state_changed = true;
                if gate {
                    for &k in self.low.reg_parts.row(self.low.nregs.len() + ri) {
                        self.dirty[self.low.part_comp[k as usize] as usize] = true;
                    }
                }
            }
        }
        for lane in 0..l {
            if self.active[lane] {
                self.cycles[lane] += 1;
            }
        }
        if !gate || state_changed {
            self.evaluated = false;
        }
    }

    /// Runs `n` clock cycles with the current inputs held.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Resets every lane to power-on state: registers to their init values,
    /// memories and cycle counters cleared, all lanes active (a hard reset,
    /// independent of any reset port).
    pub fn reset(&mut self) {
        let l = self.lanes;
        for p in &self.low.nregs {
            for lane in 0..l {
                self.narrow[p.slot as usize * l + lane] = p.init;
            }
        }
        for p in &self.low.wregs {
            let slot_b = self.wlay.base(p.slot);
            for (w, &iw) in p.init.as_words().iter().enumerate() {
                self.wide[slot_b + w * l..][..l].fill(iw);
            }
        }
        for m in &mut self.nmems {
            m.words.iter_mut().for_each(|w| *w = 0);
        }
        for m in &mut self.wmems {
            m.words.iter_mut().for_each(Bits::clear);
        }
        self.cycles.iter_mut().for_each(|c| *c = 0);
        self.active.iter_mut().for_each(|a| *a = true);
        self.dirty.iter_mut().for_each(|d| *d = true);
        self.evaluated = false;
    }
}

/// Folds this engine's runtime counters into the process-wide metrics
/// registry when it is torn down, so `perfsnap` and tools see aggregate
/// activity without any hot-loop atomics.
impl Drop for BatchedSimulator {
    fn drop(&mut self) {
        let total: u64 = self.cycles.iter().sum();
        if total > 0 {
            hc_obs::metrics::counter("sim.batched.lane_cycles").add(total);
        }
        if self.cones_skipped > 0 {
            hc_obs::metrics::counter("sim.batched.cones_skipped").add(self.cones_skipped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledSimulator;
    use hc_rtl::BinaryOp;

    fn counter(width: u32) -> Module {
        let mut m = Module::new("counter");
        let en = m.input("en", 1);
        let rst = m.input("rst", 1);
        let step = m.input("stride", width);
        let r = m.reg("count", width, Bits::zero(width));
        let q = m.reg_out(r);
        let next = m.binary(BinaryOp::Add, q, step, width);
        m.connect_reg(r, next);
        m.reg_en(r, en);
        m.reg_reset(r, rst);
        m.output("count", q);
        m
    }

    #[test]
    fn lanes_are_independent() {
        let mut sim = BatchedSimulator::new(counter(16), 4).unwrap();
        sim.set_all_u64("en", 1);
        sim.set_all_u64("rst", 0);
        for lane in 0..4 {
            sim.set_u64(lane, "stride", lane as u64 + 1);
        }
        sim.run(10);
        for lane in 0..4 {
            assert_eq!(sim.get(lane, "count").to_u64(), 10 * (lane as u64 + 1));
            assert_eq!(sim.cycle(lane), 10);
        }
    }

    #[test]
    fn masked_lanes_freeze() {
        let mut sim = BatchedSimulator::new(counter(16), 3).unwrap();
        sim.set_all_u64("en", 1);
        sim.set_all_u64("rst", 0);
        sim.set_all_u64("stride", 1);
        sim.run(5);
        sim.set_active(1, false);
        sim.run(5);
        assert_eq!(sim.get(0, "count").to_u64(), 10);
        assert_eq!(sim.get(1, "count").to_u64(), 5, "masked lane frozen");
        assert_eq!(sim.cycle(1), 5, "masked lane's clock frozen");
        assert_eq!(sim.get(2, "count").to_u64(), 10);
        sim.set_active(1, true);
        sim.run(1);
        assert_eq!(sim.get(1, "count").to_u64(), 6, "unmasking resumes");
        assert_eq!(sim.active_lanes(), 3);
    }

    #[test]
    fn single_lane_matches_scalar_engine() {
        let mut batched = BatchedSimulator::new(counter(8), 1).unwrap();
        let mut scalar = CompiledSimulator::new(counter(8)).unwrap();
        batched.set_all_u64("en", 1);
        batched.set_all_u64("rst", 0);
        batched.set_u64(0, "stride", 3);
        scalar.set_u64("en", 1);
        scalar.set_u64("rst", 0);
        scalar.set_u64("stride", 3);
        for _ in 0..20 {
            assert_eq!(batched.get(0, "count"), scalar.get("count"));
            assert_eq!(batched.peek_reg(0, "count"), scalar.peek_reg("count"));
            batched.step();
            scalar.step();
        }
        assert_eq!(batched.cycle(0), scalar.cycle());
    }

    #[test]
    fn memories_are_per_lane() {
        let mut m = Module::new("mem");
        let addr = m.input("addr", 3);
        let data = m.input("data", 8);
        let we = m.input("we", 1);
        let mem = m.mem("buf", 8, 8);
        m.mem_write(mem, addr, data, we);
        let q = m.mem_read(mem, addr);
        m.output("q", q);
        let mut sim = BatchedSimulator::new(m, 3).unwrap();
        sim.set_all_u64("addr", 5);
        sim.set_all_u64("we", 1);
        for lane in 0..3 {
            sim.set_u64(lane, "data", 0x10 + lane as u64);
        }
        sim.step();
        sim.set_all_u64("we", 0);
        for lane in 0..3 {
            assert_eq!(sim.get(lane, "q").to_u64(), 0x10 + lane as u64);
        }
    }

    #[test]
    fn wide_datapath_lanes_match_scalar() {
        // 96-bit register pipeline, per-lane contents.
        let mut m = Module::new("wide");
        let row = m.input("row", 96);
        let r = m.reg("hold", 96, Bits::zero(96));
        let q = m.reg_out(r);
        m.connect_reg(r, row);
        let lo = m.slice(q, 0, 48);
        let hi = m.slice(q, 48, 48);
        let sum = m.binary(BinaryOp::Add, lo, hi, 48);
        m.output("sum", sum);
        m.output("echo", q);
        let lanes = 5;
        let mut batched = BatchedSimulator::new(m.clone(), lanes).unwrap();
        let mut scalars: Vec<CompiledSimulator> = (0..lanes)
            .map(|_| CompiledSimulator::new(m.clone()).unwrap())
            .collect();
        for step in 0..4u64 {
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let mut row = Bits::zero(96);
                for w in 0..8 {
                    row.deposit_u64(w * 12, 12, (lane as u64) << 8 | w as u64 | step << 4);
                }
                batched.set(lane, "row", row.clone());
                scalar.set("row", row);
            }
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                assert_eq!(batched.get(lane, "sum"), scalar.get("sum"));
                assert_eq!(batched.get(lane, "echo"), scalar.get("echo"));
            }
            batched.step();
            scalars.iter_mut().for_each(CompiledSimulator::step);
        }
    }

    #[test]
    fn hard_reset_restores_all_lanes() {
        let mut sim = BatchedSimulator::new(counter(8), 2).unwrap();
        sim.set_all_u64("en", 1);
        sim.set_all_u64("rst", 0);
        sim.set_all_u64("stride", 1);
        sim.run(4);
        sim.set_active(1, false);
        sim.reset();
        assert!(sim.is_active(1), "reset reactivates lanes");
        for lane in 0..2 {
            assert_eq!(sim.cycle(lane), 0);
            assert_eq!(sim.get(lane, "count").to_u64(), 0);
        }
    }

    #[test]
    fn wide_concat_and_slice_shapes_match_scalar() {
        // Exercises the specialized wide instructions: wide++wide,
        // wide++narrow, narrow++wide concats and wide->wide slices at
        // word-misaligned offsets, against the scalar engine per lane.
        let mut m = Module::new("wideops");
        let a = m.input("a", 96);
        let b = m.input("b", 96);
        let n = m.input("n", 16);
        let ab = m.concat(a, b); // 192-bit ConcatWWW
        let abn = m.concat(ab, n); // 208-bit ConcatWWN
        let nab = m.concat(n, ab); // 208-bit ConcatWNW
        let mid = m.slice(abn, 40, 120); // SliceWW, misaligned
        m.output("mid", mid);
        m.output("top", nab);
        let lanes = 4;
        let mut batched = BatchedSimulator::new(m.clone(), lanes).unwrap();
        let mut scalars: Vec<CompiledSimulator> = (0..lanes)
            .map(|_| CompiledSimulator::new(m.clone()).unwrap())
            .collect();
        for round in 0..3u64 {
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let mut av = Bits::zero(96);
                let mut bv = Bits::zero(96);
                for w in 0..8 {
                    av.deposit_u64(
                        w * 12,
                        12,
                        ((lane as u64 + 1) * 0x5a5) ^ ((w as u64) << round),
                    );
                    bv.deposit_u64(w * 12, 12, (lane as u64) << 7 | w as u64 | round << 9);
                }
                let nv = Bits::from_u64(16, 0xbeef ^ (lane as u64) << round);
                batched.set(lane, "a", av.clone());
                batched.set(lane, "b", bv.clone());
                batched.set(lane, "n", nv.clone());
                scalar.set("a", av);
                scalar.set("b", bv);
                scalar.set("n", nv);
            }
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                assert_eq!(batched.get(lane, "mid"), scalar.get("mid"));
                assert_eq!(batched.get(lane, "top"), scalar.get("top"));
            }
        }
    }
}
