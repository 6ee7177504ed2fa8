//! Commit gating: the change-driven scalar engines commit only the
//! registers whose `next`, `en` or `reset` may have changed since their
//! last commit. These designs put the commit inputs where a missed mark
//! would show: a register whose `next` is another register's output (no
//! instruction computes it), enables, loads and a synchronous reset driven
//! straight from inputs and toggled after long holds, and a hard `reset()`
//! in mid-run. The tape engine and the scalar JIT must match the
//! interpreter on every output and register after every cycle.

use hc_bits::Bits;
use hc_rtl::{BinaryOp, Module};
use hc_sim::{CompiledSimulator, NativeSimulator, SimBackend, Simulator};

/// One stimulus event.
#[derive(Clone, Copy)]
enum Ev {
    Set(&'static str, u64),
    Hold(u32),
    Reset,
}

/// Steps `engine` and the interpreter through `events`, comparing every
/// output and register after every cycle.
fn lockstep<B: SimBackend>(module: &Module, mut engine: B, events: &[Ev]) {
    let mut oracle = Simulator::new(module.clone()).expect("valid");
    let outputs: Vec<String> = module.outputs().iter().map(|o| o.name.clone()).collect();
    let regs: Vec<String> = module.regs().iter().map(|r| r.name.clone()).collect();
    let mut cycle = 0u64;
    for &ev in events {
        match ev {
            Ev::Set(name, v) => {
                oracle.set_u64(name, v);
                engine.set_u64(name, v);
            }
            Ev::Reset => {
                oracle.reset();
                engine.reset();
            }
            Ev::Hold(n) => {
                for _ in 0..n {
                    for out in &outputs {
                        assert_eq!(oracle.get(out), engine.get(out), "{out} at cycle {cycle}");
                    }
                    oracle.step();
                    engine.step();
                    cycle += 1;
                    for reg in &regs {
                        assert_eq!(
                            oracle.peek_reg(reg),
                            engine.peek_reg(reg),
                            "{reg} after cycle {cycle}"
                        );
                    }
                }
            }
        }
    }
}

/// Runs `events` on the tape engine and the scalar JIT.
fn all_engines(module: &Module, events: &[Ev]) {
    lockstep(
        module,
        CompiledSimulator::new(module.clone()).unwrap(),
        events,
    );
    lockstep(
        module,
        NativeSimulator::new(module.clone()).unwrap(),
        events,
    );
}

/// A shift chain whose `next` values are an input and other registers'
/// outputs directly, narrow and wide, so no tape instruction computes
/// them: only the source's change can make the commit visit them.
fn register_chain() -> Module {
    let mut m = Module::new("chain");
    let x = m.input("x", 12);
    let wx = m.input("wx", 80);
    let a = m.reg("a", 12, Bits::from_u64(12, 7));
    let b = m.reg("b", 12, Bits::zero(12));
    let c = m.reg("c", 12, Bits::from_u64(12, 3));
    let wa = m.reg("wa", 80, Bits::zero(80));
    let wb = m.reg("wb", 80, Bits::from_i64(80, -1));
    m.connect_reg(a, x);
    let qa = m.reg_out(a);
    m.connect_reg(b, qa);
    let qb = m.reg_out(b);
    m.connect_reg(c, qb);
    m.connect_reg(wa, wx);
    let qwa = m.reg_out(wa);
    m.connect_reg(wb, qwa);
    let qc = m.reg_out(c);
    let qwb = m.reg_out(wb);
    let lo = m.slice(qwb, 4, 12);
    let sum = m.binary(BinaryOp::Add, qc, lo, 12);
    m.output("c", qc);
    m.output("sum", sum);
    m.output("wb", qwb);
    m
}

#[test]
fn register_fed_registers_commit_when_their_source_changes() {
    let module = register_chain();
    let mut events = Vec::new();
    for (i, v) in [5u64, 5, 900, 17, 17, 4095].into_iter().enumerate() {
        events.push(Ev::Set("x", v));
        events.push(Ev::Set("wx", v * 0x1_0001 + i as u64));
        events.push(Ev::Hold(1 + 9 * (i as u32 % 3)));
    }
    all_engines(&module, &events);
}

/// A counter with an enable and a synchronous reset from inputs, a
/// register loading a constant under an input enable, and a register
/// holding the counter under the same reset.
fn controlled() -> Module {
    let mut m = Module::new("controlled");
    let en = m.input("en", 1);
    let rst = m.input("rst", 1);
    let load = m.input("load", 1);
    let cnt = m.reg("cnt", 8, Bits::from_u64(8, 200));
    let q = m.reg_out(cnt);
    let one = m.const_u(8, 1);
    let next = m.binary(BinaryOp::Add, q, one, 8);
    m.connect_reg(cnt, next);
    m.reg_en(cnt, en);
    m.reg_reset(cnt, rst);
    let k = m.reg("k", 8, Bits::zero(8));
    let forty_two = m.const_u(8, 42);
    m.connect_reg(k, forty_two);
    m.reg_en(k, load);
    m.reg_reset(k, rst);
    let snap = m.reg("snap", 8, Bits::zero(8));
    m.connect_reg(snap, q);
    m.reg_en(snap, load);
    let qk = m.reg_out(k);
    let qs = m.reg_out(snap);
    m.output("cnt", q);
    m.output("k", qk);
    m.output("snap", qs);
    m
}

#[test]
fn input_enables_and_reset_toggled_after_long_holds() {
    let module = controlled();
    let events = [
        Ev::Set("en", 0),
        Ev::Set("rst", 0),
        Ev::Set("load", 0),
        Ev::Hold(40),
        Ev::Set("en", 1),
        Ev::Hold(64),
        Ev::Set("load", 1),
        Ev::Hold(1),
        Ev::Set("load", 0),
        Ev::Hold(50),
        Ev::Set("rst", 1),
        Ev::Hold(30),
        Ev::Set("en", 0),
        Ev::Hold(5),
        Ev::Set("rst", 0),
        Ev::Hold(45),
        Ev::Set("en", 1),
        Ev::Set("load", 1),
        Ev::Hold(64),
    ];
    all_engines(&module, &events);
}

#[test]
fn hard_reset_mid_run_commits_every_register_again() {
    for module in [controlled(), register_chain()] {
        let events = [
            Ev::Set("en", 1),
            Ev::Set("rst", 0),
            Ev::Set("load", 1),
            Ev::Set("x", 99),
            Ev::Set("wx", 123_456),
            Ev::Hold(20),
            Ev::Reset,
            Ev::Hold(3),
            Ev::Set("load", 0),
            Ev::Hold(30),
            Ev::Reset,
            Ev::Reset,
            Ev::Hold(10),
        ];
        // Each module ignores the other's inputs.
        let own: Vec<Ev> = events
            .iter()
            .copied()
            .filter(|e| match e {
                Ev::Set(name, _) => module.inputs().iter().any(|p| p.name == *name),
                _ => true,
            })
            .collect();
        all_engines(&module, &own);
    }
}

/// Held inputs leave a change-driven engine little to do: the counters
/// show it skipping parts and committing only a few registers.
#[test]
fn held_inputs_skip_parts_and_registers() {
    let mut m = Module::new("two_parts");
    let a = m.input("a", 12);
    let b = m.input("b", 12);
    let three = m.const_u(12, 3);
    let five = m.const_u(12, 5);
    let p1 = m.binary(BinaryOp::MulU, a, three, 12);
    let p2 = m.binary(BinaryOp::Xor, b, five, 12);
    let r = m.reg("r", 12, Bits::zero(12));
    m.connect_reg(r, p2);
    let q = m.reg_out(r);
    m.output("p1", p1);
    m.output("p2", p2);
    m.output("q", q);
    let mut sim = CompiledSimulator::new(m).unwrap();
    sim.set_u64("a", 1);
    sim.set_u64("b", 2);
    sim.run(50);
    for v in 3..13 {
        // Only `b` changes: the part computing `p1` stays clean.
        sim.set_u64("b", v);
        assert_eq!(sim.get("p2").to_u64(), v ^ 5);
        sim.run(10);
    }
    let r = sim.tape_opt_report().expect("tape optimizer on");
    assert!(r.parts_skipped >= 10, "{r:?}");
    // `r` on the first two cycles and once per change of `b`; 150 cycles.
    assert!(r.regs_committed <= 2 + 10, "{r:?}");
}
