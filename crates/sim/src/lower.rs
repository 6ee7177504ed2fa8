//! Shared tape lowering for the compiled simulation engines.
//!
//! [`Lowered`] is the product of compiling a validated [`Module`] once into
//! a flat instruction tape ([`Instr`]) with pre-resolved operand slot
//! indices, precomputed masks, and commit plans for registers and memory
//! write ports. Two engines replay the same tape:
//!
//! * [`CompiledSimulator`](crate::CompiledSimulator) — one value per slot,
//!   the scalar engine;
//! * [`BatchedSimulator`](crate::BatchedSimulator) — `L` independent lanes
//!   per slot in a structure-of-arrays store, the throughput engine.
//!
//! Slot indices in the tape are *slot numbers*, not element offsets: the
//! scalar engine indexes `narrow[slot]` while the batched engine indexes
//! the contiguous lane group `narrow[slot*L .. slot*L+L]`. A key structural
//! invariant makes the batched inner loops borrow-checker friendly and
//! auto-vectorizable: **every tape instruction's destination slot index is
//! strictly greater than all its operand slot indices in the same store**
//! (registers, constants and inputs are allocated before the instructions
//! that read them, and nodes only reference earlier nodes), so a single
//! `split_at_mut` at the destination cleanly separates read and write
//! regions.

use std::collections::HashMap;

use hc_bits::Bits;
use hc_rtl::{BinaryOp, Module, Node, NodeId, UnaryOp, ValidateError};

/// FNV-1a, as the hasher for the port/register name maps. Harnesses look
/// ports up by name several times per simulated cycle, and for short ASCII
/// keys FNV beats SipHash by a wide margin. The maps are built once from
/// module-declared names, so hash-flooding resistance buys nothing here.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

/// A `HashMap` keyed by port/register name, FNV-hashed (see [`Fnv`]).
pub type NameMap<V> = HashMap<String, V, std::hash::BuildHasherDefault<Fnv>>;

/// Where a value lives: inline in the `u64` slot array, or in the wide
/// store (see [`WideLayout`]) for widths above 64.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Loc {
    /// Index into the narrow (`u64`) slot array.
    N(u32),
    /// Slot number in the wide store.
    W(u32),
}

/// All-ones mask for a width ≤ 64.
pub(crate) fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Sign-extends a masked `width`-bit value to `i64`; `s` is `64 - width`.
pub(crate) fn sxt(v: u64, s: u32) -> i64 {
    ((v << s) as i64) >> s
}

/// One lowered combinational operation. Slot indices and masks are resolved
/// at lowering time; the eval loop is a single pass over the tape.
///
/// Naming: a bare op name works on narrow (`u64`) slots; a `W` suffix means
/// wide operands are involved. `Generic` falls back to `eval_pure` over
/// materialized `Bits` for shapes with no specialized form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Instr {
    /// `dst = a & mask` — narrow copy, truncating zext/sext, widening zext.
    CopyMask {
        a: u32,
        dst: u32,
        mask: u64,
    },
    Not {
        a: u32,
        dst: u32,
        mask: u64,
    },
    Neg {
        a: u32,
        dst: u32,
        mask: u64,
    },
    RedOr {
        a: u32,
        dst: u32,
    },
    /// `ones` is the operand's full mask.
    RedAnd {
        a: u32,
        dst: u32,
        ones: u64,
    },
    RedXor {
        a: u32,
        dst: u32,
    },
    Add {
        a: u32,
        b: u32,
        dst: u32,
        mask: u64,
    },
    Sub {
        a: u32,
        b: u32,
        dst: u32,
        mask: u64,
    },
    /// `sa`/`sb` are `64 - width` of each operand, for sign extension.
    MulS {
        a: u32,
        b: u32,
        dst: u32,
        sa: u32,
        sb: u32,
        mask: u64,
    },
    MulU {
        a: u32,
        b: u32,
        dst: u32,
        mask: u64,
    },
    /// Division by zero yields all-ones, which is exactly `mask`.
    DivU {
        a: u32,
        b: u32,
        dst: u32,
        mask: u64,
    },
    /// Remainder by zero yields the dividend.
    RemU {
        a: u32,
        b: u32,
        dst: u32,
    },
    And {
        a: u32,
        b: u32,
        dst: u32,
    },
    Or {
        a: u32,
        b: u32,
        dst: u32,
    },
    Xor {
        a: u32,
        b: u32,
        dst: u32,
    },
    Eq {
        a: u32,
        b: u32,
        dst: u32,
    },
    Ne {
        a: u32,
        b: u32,
        dst: u32,
    },
    LtU {
        a: u32,
        b: u32,
        dst: u32,
    },
    /// `s` is `64 - width` of the (equal-width) operands.
    LtS {
        a: u32,
        b: u32,
        dst: u32,
        s: u32,
    },
    LeU {
        a: u32,
        b: u32,
        dst: u32,
    },
    LeS {
        a: u32,
        b: u32,
        dst: u32,
        s: u32,
    },
    /// Amounts at or beyond `width` yield zero (HDL semantics).
    Shl {
        a: u32,
        b: u32,
        dst: u32,
        width: u32,
        mask: u64,
    },
    ShrL {
        a: u32,
        b: u32,
        dst: u32,
        width: u32,
    },
    /// Amounts at or beyond `width` saturate to all-sign.
    ShrA {
        a: u32,
        b: u32,
        dst: u32,
        width: u32,
        s: u32,
        mask: u64,
    },
    MuxN {
        sel: u32,
        t: u32,
        f: u32,
        dst: u32,
    },
    ConcatN {
        hi: u32,
        lo: u32,
        dst: u32,
        lo_w: u32,
    },
    SliceN {
        a: u32,
        dst: u32,
        lo: u32,
        mask: u64,
    },
    /// Widening sign-extension narrow → narrow; `s` is `64 - src width`.
    SExtN {
        a: u32,
        dst: u32,
        s: u32,
        mask: u64,
    },
    /// Wide source → narrow field read (also truncating zext/sext).
    SliceW {
        src: u32,
        dst: u32,
        lo: u32,
        width: u32,
    },
    /// Two narrow halves deposited into a wide destination.
    ConcatWNN {
        hi: u32,
        lo: u32,
        dst: u32,
        hi_w: u32,
        lo_w: u32,
    },
    /// Wide source → wide field read.
    SliceWW {
        src: u32,
        dst: u32,
        lo: u32,
    },
    /// Two wide halves deposited into a wide destination.
    ConcatWWW {
        hi: u32,
        lo: u32,
        dst: u32,
        lo_w: u32,
    },
    /// Wide high half over a narrow low half, into a wide destination.
    ConcatWWN {
        hi: u32,
        lo: u32,
        dst: u32,
        lo_w: u32,
    },
    /// Narrow high half over a wide low half, into a wide destination.
    ConcatWNW {
        hi: u32,
        lo: u32,
        dst: u32,
        hi_w: u32,
        lo_w: u32,
    },
    /// Narrow value zero-extended into a wide destination.
    ZExtWN {
        a: u32,
        dst: u32,
        a_w: u32,
    },
    /// Narrow value sign-extended into a wide destination.
    SExtWN {
        a: u32,
        dst: u32,
        a_w: u32,
    },
    /// Mux over wide arms (the select is always 1 bit, hence narrow).
    MuxW {
        sel: u32,
        t: u32,
        f: u32,
        dst: u32,
    },
    EqW {
        a: u32,
        b: u32,
        dst: u32,
    },
    NeW {
        a: u32,
        b: u32,
        dst: u32,
    },
    /// Wide → wide copy (same-width zext/sext).
    CopyW {
        a: u32,
        dst: u32,
    },
    MemReadN {
        mem: u32,
        addr: Loc,
        dst: u32,
    },
    MemReadW {
        mem: u32,
        addr: Loc,
        dst: u32,
    },
    /// Fallback: evaluate via `eval_pure` over materialized `Bits`.
    Generic(u32),
    /// Fused signed multiply-accumulate: the tape optimizer's contraction
    /// of `MulS` feeding a single-use `Add`. `mmask` is the product mask,
    /// `mask` the sum mask.
    MacS {
        a: u32,
        b: u32,
        c: u32,
        dst: u32,
        sa: u32,
        sb: u32,
        mmask: u64,
        mask: u64,
    },
    /// Fused unsigned multiply-accumulate (`MulU` + `Add`).
    MacU {
        a: u32,
        b: u32,
        c: u32,
        dst: u32,
        mmask: u64,
        mask: u64,
    },
    /// Fused compare-select: a comparison feeding a single-use `MuxN`.
    /// `s` sign-extends the compare operands for the signed kinds.
    SelN {
        kind: CmpKind,
        a: u32,
        b: u32,
        s: u32,
        t: u32,
        f: u32,
        dst: u32,
    },
    /// Left shift by a constant amount (`sh < 64`).
    ShlI {
        a: u32,
        dst: u32,
        sh: u32,
        mask: u64,
    },
    /// Arithmetic right shift by a constant amount (pre-clamped to < 64).
    SraI {
        a: u32,
        dst: u32,
        sh: u32,
        s: u32,
        mask: u64,
    },
}

/// Comparison kind carried by the fused [`Instr::SelN`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CmpKind {
    Eq,
    Ne,
    LtU,
    LtS,
    LeU,
    LeS,
}

/// A contiguous half-open range `start..end`: a *part*'s run of tape
/// instructions, or a *component*'s run of parts (see `crate::tapeopt`).
/// A part is the unit the scalar engines re-run when one of its inputs
/// changed; a component (a connected combinational cone) is the unit the
/// batched engines re-run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Segment {
    pub start: u32,
    pub end: u32,
}

/// Flat lists of `u32`: row `i` is `items[off[i]..off[i + 1]]`.
#[derive(Clone, Debug)]
pub(crate) struct Lists {
    off: Vec<u32>,
    items: Vec<u32>,
}

impl Default for Lists {
    fn default() -> Self {
        Lists {
            off: vec![0],
            items: Vec::new(),
        }
    }
}

impl Lists {
    /// `rows` rows from `(row, item)` pairs, in linear time: a counting
    /// sort by row that keeps pair order within a row and drops repeated
    /// items. Every item must be below `item_bound`.
    pub fn from_pairs(rows: usize, item_bound: usize, pairs: &[(u32, u32)]) -> Lists {
        let mut off = vec![0u32; rows + 1];
        for &(r, _) in pairs {
            off[r as usize + 1] += 1;
        }
        for r in 0..rows {
            off[r + 1] += off[r];
        }
        let mut cursor = off.clone();
        let mut items = vec![0u32; pairs.len()];
        for &(r, x) in pairs {
            items[cursor[r as usize] as usize] = x;
            cursor[r as usize] += 1;
        }
        // Drop repeats in place; `seen[x]` holds the last row that kept x.
        let mut seen = vec![u32::MAX; item_bound];
        let mut out = 0usize;
        let mut start = 0usize;
        for r in 0..rows {
            let end = off[r + 1] as usize;
            for k in start..end {
                let x = items[k];
                if seen[x as usize] != r as u32 {
                    seen[x as usize] = r as u32;
                    items[out] = x;
                    out += 1;
                }
            }
            start = end;
            off[r + 1] = out as u32;
        }
        items.truncate(out);
        Lists { off, items }
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.items[self.span(i)]
    }

    /// Positions of row `i`'s items among [`items`](Lists::items).
    pub fn span(&self, i: usize) -> std::ops::Range<usize> {
        self.off[i] as usize..self.off[i + 1] as usize
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.off.len() - 1
    }

    /// Length of the longest row.
    pub fn widest(&self) -> usize {
        self.off
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Every item, row after row (for renumbering in place).
    pub fn items_mut(&mut self) -> &mut [u32] {
        &mut self.items
    }

    /// Every item, row after row.
    pub fn items(&self) -> &[u32] {
        &self.items
    }
}

/// The word layout of a flat wide store, the one format every engine
/// keeps wide (> 64-bit) values in: slot `s` owns
/// [`nwords(s)`](WideLayout::nwords) little-endian storage words per
/// lane, word-major and lane-minor from [`base(s)`](WideLayout::base)
/// (word `w` of lane `k` at `base(s) + w * lanes + k`; with one lane,
/// simply `base(s) + w`). The bits of a slot's top word above its width
/// stay zero, the invariant [`Bits`] keeps, so equal values have equal
/// words. Bases grow with the slot number, so the lowering invariant (a
/// destination slot above its operand slots) lets one `split_at_mut` at
/// the destination's base separate the reads from the write.
#[derive(Debug)]
pub(crate) struct WideLayout {
    base: Vec<usize>,
    width: Vec<u32>,
    lanes: usize,
    total: usize,
}

impl WideLayout {
    /// The layout of `lanes` copies of wide slots shaped like `wide_init`.
    pub fn new(wide_init: &[Bits], lanes: usize) -> WideLayout {
        let mut base = Vec::with_capacity(wide_init.len());
        let mut total = 0;
        for b in wide_init {
            base.push(total);
            total += b.width().div_ceil(64) as usize * lanes;
        }
        let width = wide_init.iter().map(Bits::width).collect();
        WideLayout {
            base,
            width,
            lanes,
            total,
        }
    }

    /// Storage words of slot `slot`, per lane.
    pub fn nwords(&self, slot: u32) -> u32 {
        self.width[slot as usize].div_ceil(64)
    }

    /// First store word of slot `slot`.
    pub fn base(&self, slot: u32) -> usize {
        self.base[slot as usize]
    }

    /// Declared bit width of slot `slot`.
    pub fn width(&self, slot: u32) -> u32 {
        self.width[slot as usize]
    }

    /// The store words of slot `slot`, every lane.
    pub fn words(&self, slot: u32) -> std::ops::Range<usize> {
        let base = self.base(slot);
        base..base + self.nwords(slot) as usize * self.lanes
    }

    /// Mask for the top storage word of slot `slot` (all-ones when the
    /// width is word-aligned).
    pub fn tail_mask(&self, slot: u32) -> u64 {
        mask((self.width(slot) + 63) % 64 + 1)
    }

    /// Length the store is allocated with: every slot's words plus one
    /// zeroed padding word, so the scalar JIT's byte-aligned 8-byte loads
    /// may over-read past the last slot.
    pub fn store_len(&self) -> usize {
        self.total + 1
    }

    /// A store holding `values[s]` in every lane of slot `s`.
    pub fn image(&self, values: &[Bits]) -> Vec<u64> {
        let mut store = vec![0; self.store_len()];
        for (s, v) in values.iter().enumerate() {
            for (w, &x) in v.as_words().iter().enumerate() {
                store[self.base[s] + w * self.lanes..][..self.lanes].fill(x);
            }
        }
        store
    }

    /// Slot `slot`'s value in a one-lane store.
    pub fn read(&self, store: &[u64], slot: u32) -> Bits {
        let mut b = Bits::zero(self.width(slot));
        b.copy_from_words(&store[self.words(slot)]);
        b
    }
}

/// Fallback operation state for [`Instr::Generic`].
#[derive(Clone, Debug)]
pub(crate) struct GenericOp {
    pub node: Node,
    pub width: u32,
    pub args: Vec<(Loc, u32)>,
    pub dst: Loc,
}

/// Commit plan for a register held in a narrow slot.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NRegPlan {
    pub slot: u32,
    pub next: u32,
    pub en: Option<u32>,
    pub reset: Option<u32>,
    pub init: u64,
}

/// Commit plan for a register held in the wide table.
#[derive(Clone, Debug)]
pub(crate) struct WRegPlan {
    pub slot: u32,
    pub next: u32,
    pub en: Option<u32>,
    pub reset: Option<u32>,
    pub init: Bits,
}

/// A lowered memory write port (enables and widths pre-resolved).
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemWritePlan {
    pub mem: u32,
    pub en: u32,
    pub addr: Loc,
    pub data: u32,
}

/// A module lowered once into an instruction tape plus every pre-resolved
/// plan an engine needs: initial slot images, memory shapes, register and
/// memory-write commit plans, and the name → slot indexes.
#[derive(Debug)]
pub(crate) struct Lowered {
    pub module: Module,
    pub tape: Vec<Instr>,
    pub generic: Vec<GenericOp>,
    /// Initial narrow slot image: register inits and constants; all other
    /// slots zero.
    pub narrow_init: Vec<u64>,
    /// Initial wide slot image (every slot at its correct width).
    pub wide_init: Vec<Bits>,
    /// Depth of each narrow memory.
    pub nmem_depths: Vec<u64>,
    /// (word width, depth) of each wide memory.
    pub wmem_dims: Vec<(u32, u64)>,
    pub nmem_writes: Vec<MemWritePlan>,
    pub wmem_writes: Vec<MemWritePlan>,
    pub nregs: Vec<NRegPlan>,
    pub wregs: Vec<WRegPlan>,
    pub node_loc: Vec<Loc>,
    pub reg_loc: Vec<Loc>,
    pub input_locs: Vec<(Loc, u32)>,
    pub input_index: NameMap<usize>,
    pub output_index: NameMap<(Loc, u32)>,
    pub reg_index: NameMap<usize>,
    /// Accounting from the tape backend optimizer.
    pub tape_opt: crate::tapeopt::TapeOptReport,
    /// Tape and generic-op counts as lowered, before the tape optimizer
    /// (what `tape_stats` reports, so pre/post IR-pass comparisons stay
    /// meaningful).
    pub lowered_stats: (usize, usize),
    /// Tape ranges of the parts, in layout order. See `crate::tapeopt`.
    pub parts: Vec<Segment>,
    /// Part ranges of the components (connected combinational cones), in
    /// layout order; every component is a run of whole parts.
    pub comps: Vec<Segment>,
    /// The component of each part.
    pub part_comp: Vec<u32>,
    /// Per part: its boundary slots, the narrow slots it defines that a
    /// later part reads. Each has one def and a physical slot of its own.
    pub bound: Lists,
    /// Per boundary slot, in `bound.items()` order: the later parts
    /// reading it.
    pub readers: Lists,
    /// Per part: the registers whose `next`, `en` or `reset` slot it
    /// defines. Registers are numbered narrow first, then
    /// `nregs.len() + i` for wide register `i`.
    pub part_regs: Lists,
    /// Per input index: the parts reading that input.
    pub input_parts: Lists,
    /// Per input index: the registers whose `next`/`en`/`reset` is it.
    pub input_regs: Lists,
    /// Per register (numbered as in `part_regs`): the parts reading it.
    pub reg_parts: Lists,
    /// Per register: the registers whose `next`/`en`/`reset` is it.
    pub reg_regs: Lists,
    /// Per memory (narrow first, then `nmem_depths.len() + i` for wide
    /// memory `i`): the parts holding one of its read ports.
    pub mem_parts: Lists,
}

/// Allocates a slot for a `width`-bit value.
fn alloc(narrow: &mut Vec<u64>, wide: &mut Vec<Bits>, width: u32) -> Loc {
    if width <= 64 {
        let s = narrow.len() as u32;
        narrow.push(0);
        Loc::N(s)
    } else {
        let s = wide.len() as u32;
        wide.push(Bits::zero(width));
        Loc::W(s)
    }
}

impl Lowered {
    /// Validates and lowers `module` into a tape, then runs the tape
    /// optimizer on it (`crate::tapeopt`). The module is lowered as it is;
    /// a caller that wants the IR pass pipeline runs
    /// `hc_rtl::passes::optimize` on its copy first.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally invalid.
    pub fn new(module: Module) -> Result<Self, ValidateError> {
        let mut span = hc_obs::span("lower").with("module", module.name());
        module.validate()?;

        let mut narrow = Vec::new();
        let mut wide = Vec::new();

        // Registers get their slots first so RegOut nodes can alias them —
        // a register read costs nothing at eval time.
        let mut reg_loc = Vec::with_capacity(module.regs().len());
        for r in module.regs() {
            if r.width <= 64 {
                reg_loc.push(Loc::N(narrow.len() as u32));
                narrow.push(r.init.to_u64());
            } else {
                reg_loc.push(Loc::W(wide.len() as u32));
                wide.push(r.init.clone());
            }
        }

        let mut mem_tab = Vec::with_capacity(module.mems().len());
        let mut nmem_depths = Vec::new();
        let mut wmem_dims = Vec::new();
        for m in module.mems() {
            if m.width <= 64 {
                mem_tab.push(Loc::N(nmem_depths.len() as u32));
                nmem_depths.push(m.depth as u64);
            } else {
                mem_tab.push(Loc::W(wmem_dims.len() as u32));
                wmem_dims.push((m.width, m.depth as u64));
            }
        }

        let mut node_loc: Vec<Loc> = Vec::with_capacity(module.nodes().len());
        let mut tape = Vec::new();
        let mut generic = Vec::new();
        let mut input_locs = vec![(Loc::N(0), 0u32); module.inputs().len()];

        for nd in module.nodes() {
            let w = nd.width;
            let loc = match &nd.node {
                // Constants are written into their slot once, here; they
                // produce no instruction.
                Node::Const(v) => {
                    if w <= 64 {
                        let s = narrow.len() as u32;
                        narrow.push(v.to_u64());
                        Loc::N(s)
                    } else {
                        let s = wide.len() as u32;
                        wide.push(v.clone());
                        Loc::W(s)
                    }
                }
                // Inputs own a slot that `set` writes directly.
                Node::Input(idx) => {
                    let loc = alloc(&mut narrow, &mut wide, w);
                    input_locs[*idx] = (loc, w);
                    loc
                }
                // Register reads alias the register's own slot.
                Node::RegOut(r) => reg_loc[r.index()],
                Node::MemRead { mem, addr } => {
                    let dst = alloc(&mut narrow, &mut wide, w);
                    let addr = node_loc[addr.index()];
                    match (mem_tab[mem.index()], dst) {
                        (Loc::N(mi), Loc::N(d)) => tape.push(Instr::MemReadN {
                            mem: mi,
                            addr,
                            dst: d,
                        }),
                        (Loc::W(mi), Loc::W(d)) => tape.push(Instr::MemReadW {
                            mem: mi,
                            addr,
                            dst: d,
                        }),
                        _ => unreachable!("memory read width mismatch"),
                    }
                    dst
                }
                pure => {
                    let dst = alloc(&mut narrow, &mut wide, w);
                    let instr = lower_pure(&module, pure, w, dst, &node_loc, &mut generic);
                    tape.push(instr);
                    dst
                }
            };
            node_loc.push(loc);
        }

        // Narrow-only operand helper for enables and resets (always 1 bit).
        let bit_slot = |id: NodeId| match node_loc[id.index()] {
            Loc::N(s) => s,
            Loc::W(_) => unreachable!("1-bit control signal in wide table"),
        };

        let mut nregs = Vec::new();
        let mut wregs = Vec::new();
        for (ri, r) in module.regs().iter().enumerate() {
            let next = node_loc[r.next.expect("validated").index()];
            let en = r.en.map(bit_slot);
            let reset = r.reset.map(bit_slot);
            match (reg_loc[ri], next) {
                (Loc::N(slot), Loc::N(next)) => nregs.push(NRegPlan {
                    slot,
                    next,
                    en,
                    reset,
                    init: r.init.to_u64(),
                }),
                (Loc::W(slot), Loc::W(next)) => wregs.push(WRegPlan {
                    slot,
                    next,
                    en,
                    reset,
                    init: r.init.clone(),
                }),
                _ => unreachable!("register next width mismatch"),
            }
        }

        let mut nmem_writes = Vec::new();
        let mut wmem_writes = Vec::new();
        for (mi, m) in module.mems().iter().enumerate() {
            for wr in &m.writes {
                let en = bit_slot(wr.en);
                let addr = node_loc[wr.addr.index()];
                match (mem_tab[mi], node_loc[wr.data.index()]) {
                    (Loc::N(mem), Loc::N(data)) => nmem_writes.push(MemWritePlan {
                        mem,
                        en,
                        addr,
                        data,
                    }),
                    (Loc::W(mem), Loc::W(data)) => wmem_writes.push(MemWritePlan {
                        mem,
                        en,
                        addr,
                        data,
                    }),
                    _ => unreachable!("memory write width mismatch"),
                }
            }
        }

        let input_index = module
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
        let output_index = module
            .outputs()
            .iter()
            .map(|o| {
                (
                    o.name.clone(),
                    (node_loc[o.node.index()], module.width(o.node)),
                )
            })
            .collect();
        let reg_index = module
            .regs()
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.clone(), i))
            .collect();

        let lowered_stats = (tape.len(), generic.len());
        let mut low = Lowered {
            module,
            tape,
            generic,
            narrow_init: narrow,
            wide_init: wide,
            nmem_depths,
            wmem_dims,
            nmem_writes,
            wmem_writes,
            nregs,
            wregs,
            node_loc,
            reg_loc,
            input_locs,
            input_index,
            output_index,
            reg_index,
            tape_opt: crate::tapeopt::TapeOptReport::default(),
            lowered_stats,
            parts: Vec::new(),
            comps: Vec::new(),
            part_comp: Vec::new(),
            bound: Lists::default(),
            readers: Lists::default(),
            part_regs: Lists::default(),
            input_parts: Lists::default(),
            input_regs: Lists::default(),
            reg_parts: Lists::default(),
            reg_regs: Lists::default(),
            mem_parts: Lists::default(),
        };
        span.attach("tape_instrs", low.lowered_stats.0);
        span.attach("generic_fallbacks", low.lowered_stats.1);
        drop(span);
        low.tape_opt = crate::tapeopt::optimize(&mut low);
        Ok(low)
    }

    /// Number of registers, narrow and wide (the row count of the
    /// register-indexed gating lists).
    pub fn nregs_total(&self) -> usize {
        self.nregs.len() + self.wregs.len()
    }

    /// Tape range of component `c`.
    pub fn comp_range(&self, c: usize) -> (usize, usize) {
        let Segment { start, end } = self.comps[c];
        (
            self.parts[start as usize].start as usize,
            self.parts[end as usize - 1].end as usize,
        )
    }

    /// Index of the input port named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    pub fn input_idx(&self, name: &str) -> usize {
        *self
            .input_index
            .get(name)
            .unwrap_or_else(|| panic!("no input named {name:?}"))
    }

    /// Location and width of the output port named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no output named `name` exists.
    pub fn output_loc(&self, name: &str) -> (Loc, u32) {
        *self
            .output_index
            .get(name)
            .unwrap_or_else(|| panic!("no output named {name:?}"))
    }

    /// Index of the register named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no register named `name` exists.
    pub fn reg_idx(&self, name: &str) -> usize {
        *self
            .reg_index
            .get(name)
            .unwrap_or_else(|| panic!("no register named {name:?}"))
    }
}

/// Lowers one pure combinational node to an instruction, specializing when
/// every involved value is narrow (and for the common wide↔narrow shapes);
/// anything else becomes an `eval_pure` fallback.
fn lower_pure(
    module: &Module,
    node: &Node,
    w: u32,
    dst: Loc,
    node_loc: &[Loc],
    generic: &mut Vec<GenericOp>,
) -> Instr {
    let loc = |id: NodeId| node_loc[id.index()];
    let width = |id: NodeId| module.width(id);
    match *node {
        Node::Unary(op, a) => {
            if let (Loc::N(ai), Loc::N(d)) = (loc(a), dst) {
                let m = mask(w);
                return match op {
                    UnaryOp::Not => Instr::Not {
                        a: ai,
                        dst: d,
                        mask: m,
                    },
                    UnaryOp::Neg => Instr::Neg {
                        a: ai,
                        dst: d,
                        mask: m,
                    },
                    UnaryOp::ReduceOr => Instr::RedOr { a: ai, dst: d },
                    UnaryOp::ReduceAnd => Instr::RedAnd {
                        a: ai,
                        dst: d,
                        ones: mask(width(a)),
                    },
                    UnaryOp::ReduceXor => Instr::RedXor { a: ai, dst: d },
                };
            }
        }
        Node::Binary(op, a, b) => match (loc(a), loc(b), dst) {
            (Loc::N(ai), Loc::N(bi), Loc::N(d)) => {
                let m = mask(w);
                return match op {
                    BinaryOp::Add => Instr::Add {
                        a: ai,
                        b: bi,
                        dst: d,
                        mask: m,
                    },
                    BinaryOp::Sub => Instr::Sub {
                        a: ai,
                        b: bi,
                        dst: d,
                        mask: m,
                    },
                    BinaryOp::MulS => Instr::MulS {
                        a: ai,
                        b: bi,
                        dst: d,
                        sa: 64 - width(a),
                        sb: 64 - width(b),
                        mask: m,
                    },
                    BinaryOp::MulU => Instr::MulU {
                        a: ai,
                        b: bi,
                        dst: d,
                        mask: m,
                    },
                    BinaryOp::DivU => Instr::DivU {
                        a: ai,
                        b: bi,
                        dst: d,
                        mask: m,
                    },
                    BinaryOp::RemU => Instr::RemU {
                        a: ai,
                        b: bi,
                        dst: d,
                    },
                    BinaryOp::And => Instr::And {
                        a: ai,
                        b: bi,
                        dst: d,
                    },
                    BinaryOp::Or => Instr::Or {
                        a: ai,
                        b: bi,
                        dst: d,
                    },
                    BinaryOp::Xor => Instr::Xor {
                        a: ai,
                        b: bi,
                        dst: d,
                    },
                    BinaryOp::Eq => Instr::Eq {
                        a: ai,
                        b: bi,
                        dst: d,
                    },
                    BinaryOp::Ne => Instr::Ne {
                        a: ai,
                        b: bi,
                        dst: d,
                    },
                    BinaryOp::LtU => Instr::LtU {
                        a: ai,
                        b: bi,
                        dst: d,
                    },
                    BinaryOp::LtS => Instr::LtS {
                        a: ai,
                        b: bi,
                        dst: d,
                        s: 64 - width(a),
                    },
                    BinaryOp::LeU => Instr::LeU {
                        a: ai,
                        b: bi,
                        dst: d,
                    },
                    BinaryOp::LeS => Instr::LeS {
                        a: ai,
                        b: bi,
                        dst: d,
                        s: 64 - width(a),
                    },
                    BinaryOp::Shl => Instr::Shl {
                        a: ai,
                        b: bi,
                        dst: d,
                        width: w,
                        mask: m,
                    },
                    BinaryOp::ShrL => Instr::ShrL {
                        a: ai,
                        b: bi,
                        dst: d,
                        width: w,
                    },
                    BinaryOp::ShrA => Instr::ShrA {
                        a: ai,
                        b: bi,
                        dst: d,
                        width: w,
                        s: 64 - w,
                        mask: m,
                    },
                };
            }
            (Loc::W(ai), Loc::W(bi), Loc::N(d)) if op == BinaryOp::Eq => {
                return Instr::EqW {
                    a: ai,
                    b: bi,
                    dst: d,
                };
            }
            (Loc::W(ai), Loc::W(bi), Loc::N(d)) if op == BinaryOp::Ne => {
                return Instr::NeW {
                    a: ai,
                    b: bi,
                    dst: d,
                };
            }
            _ => {}
        },
        Node::Mux {
            sel,
            on_true,
            on_false,
        } => {
            if let Loc::N(si) = loc(sel) {
                match (loc(on_true), loc(on_false), dst) {
                    (Loc::N(t), Loc::N(f), Loc::N(d)) => {
                        return Instr::MuxN {
                            sel: si,
                            t,
                            f,
                            dst: d,
                        };
                    }
                    (Loc::W(t), Loc::W(f), Loc::W(d)) => {
                        return Instr::MuxW {
                            sel: si,
                            t,
                            f,
                            dst: d,
                        };
                    }
                    _ => {}
                }
            }
        }
        Node::Concat(hi, lo) => match (loc(hi), loc(lo), dst) {
            (Loc::N(h), Loc::N(l), Loc::N(d)) => {
                return Instr::ConcatN {
                    hi: h,
                    lo: l,
                    dst: d,
                    lo_w: width(lo),
                };
            }
            (Loc::N(h), Loc::N(l), Loc::W(d)) => {
                return Instr::ConcatWNN {
                    hi: h,
                    lo: l,
                    dst: d,
                    hi_w: width(hi),
                    lo_w: width(lo),
                };
            }
            (Loc::W(h), Loc::W(l), Loc::W(d)) => {
                return Instr::ConcatWWW {
                    hi: h,
                    lo: l,
                    dst: d,
                    lo_w: width(lo),
                };
            }
            (Loc::W(h), Loc::N(l), Loc::W(d)) => {
                return Instr::ConcatWWN {
                    hi: h,
                    lo: l,
                    dst: d,
                    lo_w: width(lo),
                };
            }
            (Loc::N(h), Loc::W(l), Loc::W(d)) => {
                return Instr::ConcatWNW {
                    hi: h,
                    lo: l,
                    dst: d,
                    hi_w: width(hi),
                    lo_w: width(lo),
                };
            }
            _ => {}
        },
        Node::Slice { src, lo } => match (loc(src), dst) {
            (Loc::N(a), Loc::N(d)) => {
                return Instr::SliceN {
                    a,
                    dst: d,
                    lo,
                    mask: mask(w),
                }
            }
            (Loc::W(s), Loc::N(d)) => {
                return Instr::SliceW {
                    src: s,
                    dst: d,
                    lo,
                    width: w,
                }
            }
            (Loc::W(s), Loc::W(d)) => return Instr::SliceWW { src: s, dst: d, lo },
            _ => {}
        },
        Node::ZExt(a) => match (loc(a), dst) {
            (Loc::N(ai), Loc::N(d)) => {
                return Instr::CopyMask {
                    a: ai,
                    dst: d,
                    mask: mask(w),
                }
            }
            // Wide → narrow is always a truncation: a low-field read.
            (Loc::W(s), Loc::N(d)) => {
                return Instr::SliceW {
                    src: s,
                    dst: d,
                    lo: 0,
                    width: w,
                }
            }
            (Loc::N(ai), Loc::W(d)) => {
                return Instr::ZExtWN {
                    a: ai,
                    dst: d,
                    a_w: width(a),
                }
            }
            (Loc::W(s), Loc::W(d)) if w == width(a) => return Instr::CopyW { a: s, dst: d },
            _ => {}
        },
        Node::SExt(a) => match (loc(a), dst) {
            (Loc::N(ai), Loc::N(d)) => {
                let aw = width(a);
                // Truncating sign-extension keeps the low bits, same as zext.
                return if w <= aw {
                    Instr::CopyMask {
                        a: ai,
                        dst: d,
                        mask: mask(w),
                    }
                } else {
                    Instr::SExtN {
                        a: ai,
                        dst: d,
                        s: 64 - aw,
                        mask: mask(w),
                    }
                };
            }
            (Loc::W(s), Loc::N(d)) => {
                return Instr::SliceW {
                    src: s,
                    dst: d,
                    lo: 0,
                    width: w,
                }
            }
            (Loc::N(ai), Loc::W(d)) => {
                return Instr::SExtWN {
                    a: ai,
                    dst: d,
                    a_w: width(a),
                }
            }
            (Loc::W(s), Loc::W(d)) if w == width(a) => return Instr::CopyW { a: s, dst: d },
            _ => {}
        },
        Node::Const(_) | Node::Input(_) | Node::RegOut(_) | Node::MemRead { .. } => {
            unreachable!("stateful node in pure lowering")
        }
    }
    let mut args = Vec::new();
    node.for_each_operand(|id| args.push((node_loc[id.index()], module.width(id))));
    generic.push(GenericOp {
        node: node.clone(),
        width: w,
        args,
        dst,
    });
    Instr::Generic((generic.len() - 1) as u32)
}
