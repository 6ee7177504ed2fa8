//! Shared random-module generator and stimulus driver for the
//! differential suites: a recipe-based builder covering both value
//! representations (narrow `u64` slots and wide values), wide concats and
//! wide-to-wide slices, registers with enables and synchronous resets, and
//! two memories (one narrow with two write ports, one wide).
#![allow(dead_code)] // each test crate uses a subset

use hc_bits::Bits;
use hc_rtl::{BinaryOp, Module, NodeId, UnaryOp};
use hc_sim::SimBackend;
use proptest::prelude::*;

/// Width of the narrow value pool — fits a single `u64` slot.
pub const WIDTH: u32 = 12;
/// Width of the wide value pool — forces the engines' wide stores.
pub const WIDE: u32 = 80;

/// A recipe for one node, interpreted against the pools built so far.
/// Indices are taken modulo the pool length, so any `usize` is valid.
#[derive(Clone, Debug)]
pub enum Step {
    Const(i64),
    Unary(u8, usize),
    Binary(u8, usize, usize),
    Mux(usize, usize, usize),
    /// Narrow → wide extension (zero or sign), result joins the wide pool.
    Widen(bool, usize),
    /// Wide op over the wide pool, result stays wide.
    WideBinary(u8, usize, usize),
    /// Wide mux (select from the narrow pool).
    WideMux(usize, usize, usize),
    /// Slice a wide value back down to the narrow pool.
    Narrow(u8, usize),
    /// Wide comparison, zero-extended into the narrow pool.
    WideCompare(bool, usize, usize),
    /// Concatenation with a wide result; the first field picks the halves
    /// (narrow/narrow, wide/wide, wide/narrow or narrow/wide). Two narrow
    /// halves split `WIDE` at a point picked by the last field; the other
    /// shapes come out wider than `WIDE` and are sliced back down
    /// wide-to-wide at an offset picked by it.
    WideConcat(u8, usize, usize, u8),
}

pub fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (-2048i64..2048).prop_map(Step::Const),
        (0u8..6, any::<usize>()).prop_map(|(op, a)| Step::Unary(op, a)),
        (0u8..16, any::<usize>(), any::<usize>()).prop_map(|(op, a, b)| Step::Binary(op, a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(s, a, b)| Step::Mux(s, a, b)),
        (any::<bool>(), any::<usize>()).prop_map(|(z, a)| Step::Widen(z, a)),
        (0u8..7, any::<usize>(), any::<usize>()).prop_map(|(op, a, b)| Step::WideBinary(op, a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(s, a, b)| Step::WideMux(s, a, b)),
        (0u8..6, any::<usize>()).prop_map(|(op, a)| Step::Narrow(op, a)),
        (any::<bool>(), any::<usize>(), any::<usize>())
            .prop_map(|(eq, a, b)| Step::WideCompare(eq, a, b)),
        (0u8..4, any::<usize>(), any::<usize>(), any::<u8>())
            .prop_map(|(kind, a, b, at)| Step::WideConcat(kind, a, b, at)),
    ]
}

/// Builds a module with three narrow inputs, one wide input, an enabled +
/// resettable register pair (one narrow, one wide) and two small memories
/// (one narrow, one wide). Every narrow intermediate is `WIDTH` bits and
/// every wide one `WIDE` bits, so recipes always type-check.
pub fn build(steps: &[Step]) -> Module {
    let mut m = Module::new("differential");
    let mut narrow: Vec<NodeId> = vec![
        m.input("i0", WIDTH),
        m.input("i1", WIDTH),
        m.input("i2", WIDTH),
    ];
    let wi = m.input("wi", WIDE);
    let rst = m.input("rst", 1);

    let r0 = m.reg("r0", WIDTH, Bits::from_i64(WIDTH, -5));
    let wr = m.reg("wr", WIDE, Bits::from_i64(WIDE, -1));
    narrow.push(m.reg_out(r0));
    // A wide memory read at a wide address (the wide input's low word)
    // joins the wide pool; the write port follows the recipes.
    let wmem = m.mem("wscratch", WIDE, 4);
    let wrd = m.mem_read(wmem, wi);
    let mut wide: Vec<NodeId> = vec![wi, m.reg_out(wr), wrd];

    for step in steps {
        let pick = |i: usize| narrow[i % narrow.len()];
        let pick_w = |i: usize| wide[i % wide.len()];
        match *step {
            Step::Const(v) => narrow.push(m.const_i(WIDTH, v)),
            Step::Unary(op, a) => {
                let a = pick(a);
                let node = match op % 6 {
                    0 => m.unary(UnaryOp::Not, a),
                    1 => m.unary(UnaryOp::Neg, a),
                    n => {
                        let red = match n {
                            2 => UnaryOp::ReduceOr,
                            3 => UnaryOp::ReduceAnd,
                            _ => UnaryOp::ReduceXor,
                        };
                        let r = m.unary(red, a);
                        m.zext(r, WIDTH)
                    }
                };
                narrow.push(node);
            }
            Step::Binary(op, a, b) => {
                let (a, b) = (pick(a), pick(b));
                let node = match op % 16 {
                    0 => m.binary(BinaryOp::Add, a, b, WIDTH),
                    1 => m.binary(BinaryOp::Sub, a, b, WIDTH),
                    2 => m.binary(BinaryOp::MulS, a, b, WIDTH),
                    3 => m.binary(BinaryOp::MulU, a, b, WIDTH),
                    4 => m.binary(BinaryOp::DivU, a, b, WIDTH),
                    5 => m.binary(BinaryOp::RemU, a, b, WIDTH),
                    6 => m.binary(BinaryOp::And, a, b, WIDTH),
                    7 => m.binary(BinaryOp::Or, a, b, WIDTH),
                    8 => m.binary(BinaryOp::Xor, a, b, WIDTH),
                    9 => {
                        // 4-bit amount reaches 15 ≥ WIDTH: saturation path.
                        let amt = m.slice(b, 0, 4);
                        m.binary(BinaryOp::Shl, a, amt, WIDTH)
                    }
                    10 => {
                        let amt = m.slice(b, 0, 4);
                        m.binary(BinaryOp::ShrL, a, amt, WIDTH)
                    }
                    11 => {
                        let amt = m.slice(b, 0, 4);
                        m.binary(BinaryOp::ShrA, a, amt, WIDTH)
                    }
                    n => {
                        let cmp = match n {
                            12 => BinaryOp::LtU,
                            13 => BinaryOp::LtS,
                            14 => BinaryOp::LeU,
                            _ => BinaryOp::LeS,
                        };
                        let c = m.binary(cmp, a, b, 1);
                        m.zext(c, WIDTH)
                    }
                };
                narrow.push(node);
            }
            Step::Mux(s, a, b) => {
                let sel = pick(s);
                let sel1 = m.slice(sel, 0, 1);
                let (a, b) = (pick(a), pick(b));
                let node = m.mux(sel1, a, b);
                narrow.push(node);
            }
            Step::Widen(zero, a) => {
                let a = pick(a);
                let node = if zero {
                    m.zext(a, WIDE)
                } else {
                    m.sext(a, WIDE)
                };
                wide.push(node);
            }
            Step::WideBinary(op, a, b) => {
                let (a, b) = (pick_w(a), pick_w(b));
                let node = match op % 7 {
                    0 => m.binary(BinaryOp::Add, a, b, WIDE),
                    1 => m.binary(BinaryOp::Sub, a, b, WIDE),
                    2 => m.binary(BinaryOp::And, a, b, WIDE),
                    3 => m.binary(BinaryOp::Or, a, b, WIDE),
                    4 => m.binary(BinaryOp::Xor, a, b, WIDE),
                    5 => {
                        // 7-bit amount reaches 127 ≥ WIDE.
                        let amt = m.slice(b, 0, 7);
                        m.binary(BinaryOp::Shl, a, amt, WIDE)
                    }
                    _ => {
                        let amt = m.slice(b, 0, 7);
                        m.binary(BinaryOp::ShrL, a, amt, WIDE)
                    }
                };
                wide.push(node);
            }
            Step::WideMux(s, a, b) => {
                let sel = pick(s);
                let sel1 = m.slice(sel, 0, 1);
                let (a, b) = (pick_w(a), pick_w(b));
                let node = m.mux(sel1, a, b);
                wide.push(node);
            }
            Step::Narrow(lo, a) => {
                let a = pick_w(a);
                // Slice offsets cross the u64 word boundary of the store.
                let lo = u32::from(lo % 6) * 12;
                let node = m.slice(a, lo, WIDTH);
                narrow.push(node);
            }
            Step::WideCompare(eq, a, b) => {
                let (a, b) = (pick_w(a), pick_w(b));
                let op = if eq { BinaryOp::Eq } else { BinaryOp::Ne };
                let c = m.binary(op, a, b, 1);
                let node = m.zext(c, WIDTH);
                narrow.push(node);
            }
            Step::WideConcat(kind, a, b, at) => {
                let node = if kind % 4 == 0 {
                    let lo_w = [17, 40, 64][usize::from(at % 3)];
                    let hi = m.zext(pick(a), WIDE - lo_w);
                    let lo = m.sext(pick(b), lo_w);
                    m.concat(hi, lo)
                } else {
                    let (hi, lo) = match kind % 4 {
                        1 => (pick_w(a), pick_w(b)),
                        2 => (pick_w(a), pick(b)),
                        _ => (pick(a), pick_w(b)),
                    };
                    let cat = m.concat(hi, lo);
                    let spare = m.width(cat) - WIDE;
                    m.slice(cat, u32::from(at) % (spare + 1), WIDE)
                };
                wide.push(node);
            }
        }
    }

    // Memory traffic: write some narrow value at a data-dependent address
    // with a data-dependent enable, read it back at another address.
    let mem = m.mem("scratch", WIDTH, 8);
    let last = *narrow.last().unwrap();
    let mid = narrow[narrow.len() / 2];
    let first = narrow[narrow.len() / 3];
    let waddr = m.slice(last, 0, 3);
    let wen = m.slice(mid, 1, 1);
    m.mem_write(mem, waddr, mid, wen);
    let raddr = m.slice(first, 0, 3);
    let rd = m.mem_read(mem, raddr);
    narrow.push(rd);
    let wlast = *wide.last().unwrap();
    let wwaddr = m.slice(first, 3, 2);
    let wwen = m.slice(last, 3, 1);
    m.mem_write(wmem, wwaddr, wlast, wwen);

    // Close the feedback loops: both registers have an enable and a reset.
    let en = m.slice(mid, 0, 1);
    m.connect_reg(r0, rd);
    m.reg_en(r0, en);
    m.reg_reset(r0, rst);
    let wen = m.slice(first, 0, 1);
    m.connect_reg(wr, wlast);
    m.reg_en(wr, wen);
    m.reg_reset(wr, rst);

    m.output("y0", last);
    m.output("y1", rd);
    m.output("yw", wlast);
    m
}

/// One cycle of stimulus: the three narrow inputs, the two halves of the
/// wide input, and the reset line.
pub type Stim = (u64, u64, u64, u64, u64, bool);

pub fn drive<B: SimBackend>(sim: &mut B, stimulus: &[Stim]) -> Vec<(Bits, Bits, Bits)> {
    let mut trace = Vec::new();
    for &(a, b, c, wlo, whi, rst) in stimulus {
        sim.set_u64("i0", a);
        sim.set_u64("i1", b);
        sim.set_u64("i2", c);
        let mut w = Bits::zero(WIDE);
        w.deposit_u64(0, 64, wlo);
        w.deposit_u64(64, WIDE - 64, whi);
        sim.set("wi", w);
        sim.set_u64("rst", u64::from(rst));
        trace.push((sim.get("y0"), sim.get("y1"), sim.get("yw")));
        sim.step();
    }
    trace
}

/// One stimulus step held for several cycles: the inputs of a [`Stim`]
/// plus a hold count of 1–64 cycles. Fresh random stimulus every cycle
/// changes nearly every input each cycle, so activity gating rarely skips
/// anything; held inputs leave most of a design quiescent, which is what
/// the change-driven engines exploit.
pub type Held = (Stim, u32);

pub fn held_strategy() -> impl Strategy<Value = Held> {
    (
        (
            0u64..4096,
            0u64..4096,
            0u64..4096,
            any::<u64>(),
            0u64..(1 << 16),
            any::<bool>(),
        ),
        1u32..=64,
    )
}

/// Drives held stimulus: each step's inputs are set once and then held
/// while the engine steps `hold` cycles; the outputs are read on every
/// cycle.
pub fn drive_held<B: SimBackend>(sim: &mut B, stimulus: &[Held]) -> Vec<(Bits, Bits, Bits)> {
    let mut trace = Vec::new();
    for &(stim, hold) in stimulus {
        let mut once = drive(sim, &[stim]);
        trace.append(&mut once);
        for _ in 1..hold {
            trace.push((sim.get("y0"), sim.get("y1"), sim.get("yw")));
            sim.step();
        }
    }
    trace
}
