//! Property: the optimization pipeline (const-fold, strength reduction,
//! CSE, DCE) never changes a module's observable behaviour — outputs as a
//! function of input history.
//!
//! Random module generation: a DAG of random nodes over a few inputs and
//! registers, exercised with random stimulus for several cycles, before and
//! after `optimize`. Slice, concat and extension steps pass through other
//! widths, so strength reduction's window chase, re-concatenation and
//! extension collapse fire on random modules too.

use hc_bits::Bits;
use hc_rtl::passes::optimize;
use hc_rtl::{BinaryOp, Module, NodeId, UnaryOp};
use hc_sim::Simulator;
use proptest::prelude::*;

const WIDTH: u32 = 12;

/// A recipe for one node, interpreted against the nodes built so far.
#[derive(Clone, Debug)]
enum Step {
    Const(i64),
    Unary(u8, usize),
    Binary(u8, usize, usize),
    Mux(usize, usize, usize),
    Widen(bool, usize),
    /// A `w`-bit window of a value, extended back to WIDTH bits.
    Slice(bool, usize, u32, u32),
    /// Pack two values, then unpack one half or a window across the seam.
    Pack(usize, usize, u32),
    /// Split a value into adjacent slices and re-join them.
    Split(usize, u32),
    /// An extension chain through two wider widths, then a window of it.
    ExtChain(bool, usize, u32, u32),
    /// A binary operation on the low `w` bits, sign-extended back.
    Narrow(u8, usize, usize, u32),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (-2048i64..2048).prop_map(Step::Const),
        (0u8..5, any::<usize>()).prop_map(|(op, a)| Step::Unary(op, a)),
        (0u8..12, any::<usize>(), any::<usize>()).prop_map(|(op, a, b)| Step::Binary(op, a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(s, a, b)| Step::Mux(s, a, b)),
        (any::<bool>(), any::<usize>()).prop_map(|(z, a)| Step::Widen(z, a)),
        (any::<bool>(), any::<usize>(), any::<u32>(), any::<u32>())
            .prop_map(|(z, a, w, lo)| Step::Slice(z, a, w, lo)),
        (any::<usize>(), any::<usize>(), any::<u32>()).prop_map(|(a, b, x)| Step::Pack(a, b, x)),
        (any::<usize>(), any::<u32>()).prop_map(|(a, x)| Step::Split(a, x)),
        (any::<bool>(), any::<usize>(), any::<u32>(), any::<u32>())
            .prop_map(|(z, a, x, y)| Step::ExtChain(z, a, x, y)),
        (0u8..4, any::<usize>(), any::<usize>(), any::<u32>())
            .prop_map(|(op, a, b, w)| Step::Narrow(op, a, b, w)),
    ]
}

/// Builds a module with 3 inputs, 2 feedback registers and the given node
/// recipe; every pool value is WIDTH bits wide (steps pass through other
/// widths on the way) so recipes always type-check.
fn build(steps: &[Step]) -> Module {
    let mut m = Module::new("random");
    let mut pool: Vec<NodeId> = vec![
        m.input("i0", WIDTH),
        m.input("i1", WIDTH),
        m.input("i2", WIDTH),
    ];
    let r0 = m.reg("r0", WIDTH, Bits::zero(WIDTH));
    let r1 = m.reg("r1", WIDTH, Bits::from_i64(WIDTH, -1));
    pool.push(m.reg_out(r0));
    pool.push(m.reg_out(r1));

    for step in steps {
        let pick = |i: usize| pool[i % pool.len()];
        let node = match *step {
            Step::Const(v) => m.const_i(WIDTH, v),
            Step::Unary(op, a) => {
                let a = pick(a);
                match op % 5 {
                    0 => m.unary(UnaryOp::Not, a),
                    1 => m.unary(UnaryOp::Neg, a),
                    2 => {
                        let r = m.unary(UnaryOp::ReduceOr, a);
                        m.zext(r, WIDTH)
                    }
                    3 => {
                        let r = m.unary(UnaryOp::ReduceAnd, a);
                        m.zext(r, WIDTH)
                    }
                    _ => {
                        let r = m.unary(UnaryOp::ReduceXor, a);
                        m.zext(r, WIDTH)
                    }
                }
            }
            Step::Binary(op, a, b) => {
                let (a, b) = (pick(a), pick(b));
                match op % 12 {
                    0 => m.binary(BinaryOp::Add, a, b, WIDTH),
                    1 => m.binary(BinaryOp::Sub, a, b, WIDTH),
                    2 => m.binary(BinaryOp::MulS, a, b, WIDTH),
                    3 => m.binary(BinaryOp::MulU, a, b, WIDTH),
                    4 => m.binary(BinaryOp::And, a, b, WIDTH),
                    5 => m.binary(BinaryOp::Or, a, b, WIDTH),
                    6 => m.binary(BinaryOp::Xor, a, b, WIDTH),
                    7 => {
                        let amt = m.slice(b, 0, 3);
                        m.binary(BinaryOp::Shl, a, amt, WIDTH)
                    }
                    8 => {
                        let amt = m.slice(b, 0, 3);
                        m.binary(BinaryOp::ShrA, a, amt, WIDTH)
                    }
                    9 => {
                        let c = m.binary(BinaryOp::LtS, a, b, 1);
                        m.zext(c, WIDTH)
                    }
                    10 => {
                        let c = m.binary(BinaryOp::Eq, a, b, 1);
                        m.sext(c, WIDTH)
                    }
                    _ => {
                        let c = m.binary(BinaryOp::LeU, a, b, 1);
                        m.zext(c, WIDTH)
                    }
                }
            }
            Step::Mux(s, a, b) => {
                let sel = pick(s);
                let sel1 = m.slice(sel, 0, 1);
                let (a, b) = (pick(a), pick(b));
                m.mux(sel1, a, b)
            }
            Step::Widen(zero, a) => {
                let a = pick(a);
                let wide = if zero {
                    m.zext(a, WIDTH + 7)
                } else {
                    m.sext(a, WIDTH + 7)
                };
                m.slice(wide, 2, WIDTH)
            }
            Step::Slice(zero, a, w, lo) => {
                let w = 1 + w % WIDTH;
                let window = m.slice(pick(a), lo % (WIDTH - w + 1), w);
                if zero {
                    m.zext(window, WIDTH)
                } else {
                    m.sext(window, WIDTH)
                }
            }
            Step::Pack(a, b, x) => {
                let cat = m.concat(pick(a), pick(b));
                let lo = match x % 3 {
                    0 => 0,
                    1 => WIDTH,
                    _ => x % (WIDTH + 1),
                };
                m.slice(cat, lo, WIDTH)
            }
            Step::Split(a, x) => {
                let a = pick(a);
                let cut = 1 + x % (WIDTH - 1);
                let hi = m.slice(a, cut, WIDTH - cut);
                let lo = m.slice(a, 0, cut);
                m.concat(hi, lo)
            }
            Step::ExtChain(zero, a, x, y) => {
                let w1 = WIDTH + x % 20;
                let w2 = w1 + y % 20;
                let ext = |m: &mut Module, id, w| {
                    if zero {
                        m.zext(id, w)
                    } else {
                        m.sext(id, w)
                    }
                };
                let once = ext(&mut m, pick(a), w1);
                let twice = ext(&mut m, once, w2);
                m.slice(twice, (x ^ y) % (w2 - WIDTH + 1), WIDTH)
            }
            Step::Narrow(op, a, b, w) => {
                let w = 1 + w % (WIDTH - 1);
                let a = m.slice(pick(a), 0, w);
                let b = m.slice(pick(b), 0, w);
                let op =
                    [BinaryOp::Add, BinaryOp::Sub, BinaryOp::And, BinaryOp::Xor][op as usize % 4];
                let r = m.binary(op, a, b, w);
                m.sext(r, WIDTH)
            }
        };
        pool.push(node);
    }

    let last = *pool.last().unwrap();
    let mid = pool[pool.len() / 2];
    m.connect_reg(r0, last);
    m.connect_reg(r1, mid);
    m.output("y0", last);
    m.output("y1", mid);
    m
}

fn run(module: Module, stimulus: &[(u64, u64, u64)]) -> Vec<(Bits, Bits)> {
    let mut sim = Simulator::new(module).expect("generated module is valid");
    let mut trace = Vec::new();
    for &(a, b, c) in stimulus {
        sim.set_u64("i0", a);
        sim.set_u64("i1", b);
        sim.set_u64("i2", c);
        trace.push((sim.get("y0"), sim.get("y1")));
        sim.step();
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn optimize_preserves_behaviour(
        steps in proptest::collection::vec(step_strategy(), 1..60),
        stimulus in proptest::collection::vec((0u64..4096, 0u64..4096, 0u64..4096), 1..12),
    ) {
        let original = build(&steps);
        let mut optimized = original.clone();
        optimize(&mut optimized);
        optimized.validate().expect("optimized module stays valid");
        prop_assert!(optimized.nodes().len() <= original.nodes().len() + 1);
        prop_assert_eq!(run(original, &stimulus), run(optimized, &stimulus));
    }
}
