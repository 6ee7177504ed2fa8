//! The levelized simulator core.

use std::collections::HashMap;

use hc_bits::Bits;
use hc_rtl::passes::eval::eval_pure;
use hc_rtl::{Module, Node, NodeId, ValidateError};

use crate::SimBackend;

/// A cycle-accurate simulator for one [`Module`].
///
/// Drive it with [`set`](Simulator::set), read outputs with
/// [`get`](Simulator::get) after [`eval`](Simulator::eval), and advance the
/// clock with [`step`](Simulator::step). See the
/// [crate-level example](crate).
///
/// This is the interpreted reference engine; see
/// [`CompiledSimulator`](crate::CompiledSimulator) for the lowered backend
/// used by measurement sweeps.
#[derive(Debug)]
pub struct Simulator {
    module: Module,
    values: Vec<Bits>,
    regs: Vec<Bits>,
    regs_next: Vec<Bits>,
    mems: Vec<Vec<Bits>>,
    inputs: Vec<Bits>,
    input_index: HashMap<String, usize>,
    output_index: HashMap<String, NodeId>,
    reg_index: HashMap<String, usize>,
    evaluated: bool,
    cycle: u64,
    /// Cleared to mask the engine out of a lane harness's clock (see
    /// [`LaneEngine::set_active`](crate::LaneEngine::set_active)).
    pub(crate) active: bool,
}

impl Simulator {
    /// Validates the module and prepares simulation state (registers hold
    /// their `init` values, memories are zeroed).
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally invalid.
    pub fn new(module: Module) -> Result<Self, ValidateError> {
        module.validate()?;
        let regs: Vec<Bits> = module.regs().iter().map(|r| r.init.clone()).collect();
        let regs_next = regs.clone();
        let mems = module
            .mems()
            .iter()
            .map(|m| vec![Bits::zero(m.width); m.depth as usize])
            .collect();
        let inputs = module
            .inputs()
            .iter()
            .map(|p| Bits::zero(p.width))
            .collect();
        let values = module
            .nodes()
            .iter()
            .map(|nd| Bits::zero(nd.width))
            .collect();
        let input_index = module
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
        let output_index = module
            .outputs()
            .iter()
            .map(|o| (o.name.clone(), o.node))
            .collect();
        let reg_index = module
            .regs()
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.clone(), i))
            .collect();
        Ok(Simulator {
            module,
            values,
            regs,
            regs_next,
            mems,
            inputs,
            input_index,
            output_index,
            reg_index,
            evaluated: false,
            cycle: 0,
            active: true,
        })
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Number of completed clock cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drives an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists or the width differs.
    pub fn set(&mut self, name: &str, value: Bits) {
        let idx = self.input_port(name);
        assert_eq!(
            self.inputs[idx].width(),
            value.width(),
            "input {name:?} width"
        );
        self.set_input(idx, value);
    }

    /// Drives an input port from a `u64` (truncated to the port width).
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    pub fn set_u64(&mut self, name: &str, value: u64) {
        let idx = self.input_port(name);
        self.set_input(idx, Bits::from_u64(self.inputs[idx].width(), value));
    }

    /// Index of the input port named `name`.
    pub(crate) fn input_port(&self, name: &str) -> usize {
        *self
            .input_index
            .get(name)
            .unwrap_or_else(|| panic!("no input named {name:?}"))
    }

    /// The node driving the output port named `name`.
    pub(crate) fn output_node(&self, name: &str) -> NodeId {
        *self
            .output_index
            .get(name)
            .unwrap_or_else(|| panic!("no output named {name:?}"))
    }

    /// Drives input `idx`; only a changed value unsettles the netlist.
    pub(crate) fn set_input(&mut self, idx: usize, value: Bits) {
        if self.inputs[idx] != value {
            self.inputs[idx] = value;
            self.evaluated = false;
        }
    }

    /// Settles combinational logic for the current input/register state.
    /// Called implicitly by [`get`](Simulator::get) and
    /// [`step`](Simulator::step) when needed.
    pub fn eval(&mut self) {
        if self.evaluated {
            return;
        }
        for i in 0..self.module.nodes().len() {
            let nd = &self.module.nodes()[i];
            let value = match &nd.node {
                Node::Input(idx) => self.inputs[*idx].clone(),
                Node::RegOut(r) => self.regs[r.index()].clone(),
                Node::MemRead { mem, addr } => {
                    let depth = self.module.mems()[mem.index()].depth as u64;
                    let a = (self.values[addr.index()].to_u64() % depth) as usize;
                    self.mems[mem.index()][a].clone()
                }
                pure => {
                    let mut args = Vec::with_capacity(3);
                    pure.for_each_operand(|op| args.push(self.values[op.index()].clone()));
                    eval_pure(pure, nd.width, &args).expect("pure node")
                }
            };
            self.values[i] = value;
        }
        self.evaluated = true;
    }

    /// Reads an output port (evaluating first if necessary).
    ///
    /// # Panics
    ///
    /// Panics if no output named `name` exists.
    pub fn get(&mut self, name: &str) -> Bits {
        self.eval();
        self.values[self.output_node(name).index()].clone()
    }

    /// Reads back the value currently driving an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    pub fn input_value(&self, name: &str) -> Bits {
        self.inputs[self.input_port(name)].clone()
    }

    /// Reads the settled value of an arbitrary node (for probing).
    pub fn probe(&mut self, node: hc_rtl::NodeId) -> Bits {
        self.eval();
        self.values[node.index()].clone()
    }

    /// Reads a register's current value by name.
    ///
    /// # Panics
    ///
    /// Panics if no register named `name` exists.
    pub fn peek_reg(&self, name: &str) -> Bits {
        let &idx = self
            .reg_index
            .get(name)
            .unwrap_or_else(|| panic!("no register named {name:?}"));
        self.regs[idx].clone()
    }

    /// Advances one clock cycle: settles combinational logic, then commits
    /// register next-values and memory writes simultaneously.
    ///
    /// The commit is double-buffered: next values land in a shadow vector
    /// (reusing its allocations via `clone_from`) which is then swapped in,
    /// so registers feeding each other observe a simultaneous edge without
    /// cloning the whole register file.
    pub fn step(&mut self) {
        self.eval();
        for (i, reg) in self.module.regs().iter().enumerate() {
            let reset = reg
                .reset
                .map(|r| self.values[r.index()].to_bool())
                .unwrap_or(false);
            let enabled = reg
                .en
                .map(|e| self.values[e.index()].to_bool())
                .unwrap_or(true);
            let src = if reset {
                &reg.init
            } else if enabled {
                &self.values[reg.next.expect("validated").index()]
            } else {
                &self.regs[i]
            };
            self.regs_next[i].clone_from(src);
        }
        for (mi, mem) in self.module.mems().iter().enumerate() {
            for w in &mem.writes {
                if self.values[w.en.index()].to_bool() {
                    let a = (self.values[w.addr.index()].to_u64() % mem.depth as u64) as usize;
                    self.mems[mi][a].clone_from(&self.values[w.data.index()]);
                }
            }
        }
        std::mem::swap(&mut self.regs, &mut self.regs_next);
        self.evaluated = false;
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
        for (v, r) in self.regs.iter_mut().zip(self.module.regs()) {
            *v = r.init.clone();
        }
        for (mem, m) in self.mems.iter_mut().zip(self.module.mems()) {
            for w in mem.iter_mut() {
                *w = Bits::zero(m.width);
            }
        }
        self.cycle = 0;
        self.evaluated = false;
    }

    pub(crate) fn value_of(&self, node: hc_rtl::NodeId) -> &Bits {
        &self.values[node.index()]
    }
}

impl SimBackend for Simulator {
    fn from_module(module: Module) -> Result<Self, ValidateError> {
        Simulator::new(module)
    }
    fn module(&self) -> &Module {
        self.module()
    }
    fn cycle(&self) -> u64 {
        self.cycle()
    }
    fn set(&mut self, name: &str, value: Bits) {
        Simulator::set(self, name, value);
    }
    fn set_u64(&mut self, name: &str, value: u64) {
        Simulator::set_u64(self, name, value);
    }
    fn get(&mut self, name: &str) -> Bits {
        Simulator::get(self, name)
    }
    fn input_value(&self, name: &str) -> Bits {
        Simulator::input_value(self, name)
    }
    fn peek_reg(&self, name: &str) -> Bits {
        Simulator::peek_reg(self, name)
    }
    fn step(&mut self) {
        Simulator::step(self);
    }
    fn run(&mut self, n: u64) {
        Simulator::run(self, n);
    }
    fn reset(&mut self) {
        Simulator::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut sim = Simulator::new(counter(8)).unwrap();
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
        let mut sim = Simulator::new(counter(8)).unwrap();
        sim.set_u64("en", 1);
        sim.set_u64("rst", 0);
        sim.run(3);
        sim.set_u64("rst", 1);
        sim.step();
        assert_eq!(sim.get("count").to_u64(), 0);
    }

    #[test]
    fn counter_wraps() {
        let mut sim = Simulator::new(counter(2)).unwrap();
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
        let mut sim = Simulator::new(m).unwrap();
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
        // Swap network: two registers exchanging values each cycle.
        let mut m = Module::new("swap");
        let r1 = m.reg("r1", 4, Bits::from_u64(4, 0xa));
        let r2 = m.reg("r2", 4, Bits::from_u64(4, 0x5));
        let q1 = m.reg_out(r1);
        let q2 = m.reg_out(r2);
        m.connect_reg(r1, q2);
        m.connect_reg(r2, q1);
        m.output("a", q1);
        m.output("b", q2);
        let mut sim = Simulator::new(m).unwrap();
        sim.step();
        assert_eq!(sim.get("a").to_u64(), 0x5);
        assert_eq!(sim.get("b").to_u64(), 0xa);
        sim.step();
        assert_eq!(sim.get("a").to_u64(), 0xa);
    }

    #[test]
    fn probe_and_peek() {
        let mut sim = Simulator::new(counter(8)).unwrap();
        sim.set_u64("en", 1);
        sim.set_u64("rst", 0);
        sim.run(2);
        assert_eq!(sim.peek_reg("count").to_u64(), 2);
        let out_node = sim.module().outputs()[0].node;
        assert_eq!(sim.probe(out_node).to_u64(), 2);
    }

    #[test]
    fn hard_reset_restores_power_on_state() {
        let mut sim = Simulator::new(counter(8)).unwrap();
        sim.set_u64("en", 1);
        sim.set_u64("rst", 0);
        sim.run(7);
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert_eq!(sim.get("count").to_u64(), 0);
    }
}
