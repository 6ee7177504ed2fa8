//! The [`Module`] container and its builder methods.

use crate::{BinaryOp, MemId, Node, NodeId, RegId, UnaryOp};
use hc_bits::Bits;

/// An input port.
#[derive(Clone, Debug)]
pub struct Port {
    /// Port name, unique among inputs.
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// The node carrying this input's value.
    pub node: NodeId,
}

/// An output port.
#[derive(Clone, Debug)]
pub struct Output {
    /// Port name, unique among outputs.
    pub name: String,
    /// The node driving this output.
    pub node: NodeId,
}

/// A clocked register.
///
/// On every clock edge: if `reset` is asserted the register loads `init`;
/// otherwise if `en` (default: always) is asserted it loads `next`.
#[derive(Clone, Debug)]
pub struct Reg {
    /// Register name (used in reports and VCD traces).
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Power-on and reset value.
    pub init: Bits,
    /// Next-value node; `None` until connected.
    pub next: Option<NodeId>,
    /// Optional clock-enable (1 bit).
    pub en: Option<NodeId>,
    /// Optional synchronous reset (1 bit).
    pub reset: Option<NodeId>,
}

/// A write port on a memory.
#[derive(Clone, Debug)]
pub struct MemWrite {
    /// Address node.
    pub addr: NodeId,
    /// Data node (memory word width).
    pub data: NodeId,
    /// Write enable (1 bit).
    pub en: NodeId,
}

/// A word-addressed memory with asynchronous reads and synchronous writes.
#[derive(Clone, Debug)]
pub struct Mem {
    /// Memory name.
    pub name: String,
    /// Word width in bits.
    pub width: u32,
    /// Number of words.
    pub depth: u32,
    /// Write ports; multiple simultaneous writes to one address resolve in
    /// port order (the last port wins).
    pub writes: Vec<MemWrite>,
}

/// Node payload plus its result width and optional debug name.
#[derive(Clone, Debug)]
pub struct NodeData {
    /// The operation.
    pub node: Node,
    /// Result width in bits.
    pub width: u32,
    /// Optional name for waveforms and pretty-printing.
    pub name: Option<String>,
}

/// A flat RTL netlist: the unit of simulation and synthesis.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Clone, Debug, Default)]
pub struct Module {
    name: String,
    // The rewriting passes edit the tables in place.
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) inputs: Vec<Port>,
    pub(crate) outputs: Vec<Output>,
    pub(crate) regs: Vec<Reg>,
    pub(crate) mems: Vec<Mem>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All combinational nodes in topological order.
    pub fn nodes(&self) -> &[NodeData] {
        &self.nodes
    }

    /// Looks up one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this module.
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// The result width of a node.
    pub fn width(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].width
    }

    /// Input ports in declaration order.
    pub fn inputs(&self) -> &[Port] {
        &self.inputs
    }

    /// Output ports in declaration order.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Registers in declaration order.
    pub fn regs(&self) -> &[Reg] {
        &self.regs
    }

    /// Memories in declaration order.
    pub fn mems(&self) -> &[Mem] {
        &self.mems
    }

    /// Finds an input port by name.
    pub fn input_named(&self, name: &str) -> Option<&Port> {
        self.inputs.iter().find(|p| p.name == name)
    }

    /// Finds an output port by name.
    pub fn output_named(&self, name: &str) -> Option<&Output> {
        self.outputs.iter().find(|p| p.name == name)
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    fn push(&mut self, node: Node, width: u32, name: Option<String>) -> NodeId {
        assert!((1..=Bits::MAX_WIDTH).contains(&width), "node width {width}");
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(NodeData { node, width, name });
        id
    }

    /// Declares an input port and returns its value node.
    ///
    /// # Panics
    ///
    /// Panics if an input with the same name exists or the width is invalid.
    pub fn input(&mut self, name: impl Into<String>, width: u32) -> NodeId {
        let name = name.into();
        assert!(
            self.input_named(&name).is_none(),
            "duplicate input {name:?}"
        );
        let idx = self.inputs.len();
        let node = self.push(Node::Input(idx), width, Some(name.clone()));
        self.inputs.push(Port { name, width, node });
        node
    }

    /// Declares an output port driven by `node`.
    ///
    /// # Panics
    ///
    /// Panics if an output with the same name exists.
    pub fn output(&mut self, name: impl Into<String>, node: NodeId) {
        let name = name.into();
        assert!(
            self.output_named(&name).is_none(),
            "duplicate output {name:?}"
        );
        self.outputs.push(Output { name, node });
    }

    /// Adds a constant node.
    pub fn constant(&mut self, value: Bits) -> NodeId {
        let width = value.width();
        self.push(Node::Const(value), width, None)
    }

    /// Convenience: a constant from an unsigned value.
    pub fn const_u(&mut self, width: u32, value: u64) -> NodeId {
        self.constant(Bits::from_u64(width, value))
    }

    /// Convenience: a constant from a signed value.
    pub fn const_i(&mut self, width: u32, value: i64) -> NodeId {
        self.constant(Bits::from_i64(width, value))
    }

    /// Adds a unary operation node.
    pub fn unary(&mut self, op: UnaryOp, a: NodeId) -> NodeId {
        let width = match op {
            UnaryOp::Not | UnaryOp::Neg => self.width(a),
            UnaryOp::ReduceOr | UnaryOp::ReduceAnd | UnaryOp::ReduceXor => 1,
        };
        self.push(Node::Unary(op, a), width, None)
    }

    /// Adds a binary operation node with an explicit result width.
    pub fn binary(&mut self, op: BinaryOp, a: NodeId, b: NodeId, width: u32) -> NodeId {
        self.push(Node::Binary(op, a, b), width, None)
    }

    /// Adds a 2:1 multiplexer.
    pub fn mux(&mut self, sel: NodeId, on_true: NodeId, on_false: NodeId) -> NodeId {
        let width = self.width(on_true);
        self.push(
            Node::Mux {
                sel,
                on_true,
                on_false,
            },
            width,
            None,
        )
    }

    /// Adds a concatenation `{hi, lo}`.
    pub fn concat(&mut self, hi: NodeId, lo: NodeId) -> NodeId {
        let width = self.width(hi) + self.width(lo);
        self.push(Node::Concat(hi, lo), width, None)
    }

    /// Adds a bit slice `src[lo + width - 1 : lo]`.
    pub fn slice(&mut self, src: NodeId, lo: u32, width: u32) -> NodeId {
        self.push(Node::Slice { src, lo }, width, None)
    }

    /// Adds a zero-extension (or truncation) to `width`.
    pub fn zext(&mut self, a: NodeId, width: u32) -> NodeId {
        self.push(Node::ZExt(a), width, None)
    }

    /// Adds a sign-extension (or truncation) to `width`.
    pub fn sext(&mut self, a: NodeId, width: u32) -> NodeId {
        self.push(Node::SExt(a), width, None)
    }

    /// Selects `options[sel]` with a balanced tree of 2:1 multiplexers.
    /// Out-of-range select values pick the last option.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty, widths differ, or `sel` is narrower
    /// than needed to index every option.
    pub fn select(&mut self, sel: NodeId, options: &[NodeId]) -> NodeId {
        assert!(!options.is_empty(), "select with no options");
        let width = self.width(options[0]);
        assert!(
            options.iter().all(|&o| self.width(o) == width),
            "select options of differing widths"
        );
        let need = usize::BITS - (options.len() - 1).leading_zeros();
        assert!(
            options.len() == 1 || self.width(sel) >= need,
            "select needs {need} select bits, got {}",
            self.width(sel)
        );
        self.select_level(sel, options)
    }

    fn select_level(&mut self, sel: NodeId, options: &[NodeId]) -> NodeId {
        if options.len() == 1 {
            return options[0];
        }
        // Split on the most significant index bit: the lower half holds the
        // full power-of-two range below it, the upper half the remainder.
        let k = usize::BITS - (options.len() - 1).leading_zeros();
        let half = 1usize << (k - 1);
        let lo = self.select_level(sel, &options[..half]);
        let hi = self.select_level(sel, &options[half..]);
        let s = self.slice(sel, k - 1, 1);
        self.mux(s, hi, lo)
    }

    /// Declares a register. Connect its next value with
    /// [`Module::connect_reg`] before validating.
    ///
    /// # Panics
    ///
    /// Panics if `init.width() != width`.
    pub fn reg(&mut self, name: impl Into<String>, width: u32, init: Bits) -> RegId {
        assert_eq!(init.width(), width, "register init width");
        let id = RegId::new(self.regs.len());
        self.regs.push(Reg {
            name: name.into(),
            width,
            init,
            next: None,
            en: None,
            reset: None,
        });
        id
    }

    /// The node carrying a register's current value.
    pub fn reg_out(&mut self, reg: RegId) -> NodeId {
        let width = self.regs[reg.index()].width;
        let name = self.regs[reg.index()].name.clone();
        self.push(Node::RegOut(reg), width, Some(name))
    }

    /// Connects a register's next-value input.
    pub fn connect_reg(&mut self, reg: RegId, next: NodeId) {
        self.regs[reg.index()].next = Some(next);
    }

    /// Sets a register's clock enable.
    pub fn reg_en(&mut self, reg: RegId, en: NodeId) {
        self.regs[reg.index()].en = Some(en);
    }

    /// Replaces a register's next-value and enable (for backends that
    /// accumulate several write sources onto one register).
    pub fn replace_reg_drive(&mut self, reg: RegId, next: NodeId, en: NodeId) {
        self.regs[reg.index()].next = Some(next);
        self.regs[reg.index()].en = Some(en);
    }

    /// Sets a register's synchronous reset (loads `init` when asserted).
    pub fn reg_reset(&mut self, reg: RegId, reset: NodeId) {
        self.regs[reg.index()].reset = Some(reset);
    }

    /// Declares a memory of `depth` words of `width` bits.
    pub fn mem(&mut self, name: impl Into<String>, width: u32, depth: u32) -> MemId {
        let id = MemId::new(self.mems.len());
        self.mems.push(Mem {
            name: name.into(),
            width,
            depth,
            writes: Vec::new(),
        });
        id
    }

    /// Adds an asynchronous read port and returns the data node.
    pub fn mem_read(&mut self, mem: MemId, addr: NodeId) -> NodeId {
        let width = self.mems[mem.index()].width;
        self.push(Node::MemRead { mem, addr }, width, None)
    }

    /// Adds a write port to a memory.
    pub fn mem_write(&mut self, mem: MemId, addr: NodeId, data: NodeId, en: NodeId) {
        self.mems[mem.index()]
            .writes
            .push(MemWrite { addr, data, en });
    }

    /// Attaches a debug name to a node (shows up in VCD and pretty-prints).
    pub fn name_node(&mut self, id: NodeId, name: impl Into<String>) {
        self.nodes[id.index()].name = Some(name.into());
    }

    pub(crate) fn push_node_data(&mut self, data: NodeData) {
        self.nodes.push(data);
    }

    /// Reassembles a module from raw tables — the inverse of the accessor
    /// views ([`Module::nodes`], [`Module::inputs`], ...) — and validates
    /// it. This is the deserialization entry point for the persistent
    /// result store: a decoded module must be structurally identical to
    /// the one that was encoded (same nodes, same names, same order), so
    /// it goes through validation rather than the width-deriving builder
    /// methods.
    ///
    /// # Errors
    ///
    /// [`crate::ValidateError`] when the tables do not form a well-formed
    /// netlist (dangling ids, width violations, unconnected registers).
    pub fn from_parts(
        name: impl Into<String>,
        nodes: Vec<NodeData>,
        inputs: Vec<Port>,
        outputs: Vec<Output>,
        regs: Vec<Reg>,
        mems: Vec<Mem>,
    ) -> Result<Module, crate::ValidateError> {
        let m = Module {
            name: name.into(),
            nodes,
            inputs,
            outputs,
            regs,
            mems,
        };
        m.validate()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_are_derived() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 4);
        let cat = m.concat(a, b);
        let sl = m.slice(a, 2, 3);
        let red = m.unary(UnaryOp::ReduceOr, a);
        let not = m.unary(UnaryOp::Not, a);
        assert_eq!(m.width(cat), 12);
        assert_eq!(m.width(sl), 3);
        assert_eq!(m.width(red), 1);
        assert_eq!(m.width(not), 8);
    }

    #[test]
    fn reg_lifecycle() {
        let mut m = Module::new("t");
        let r = m.reg("state", 4, Bits::zero(4));
        let q = m.reg_out(r);
        let one = m.const_u(4, 1);
        let next = m.binary(BinaryOp::Add, q, one, 4);
        m.connect_reg(r, next);
        assert_eq!(m.regs()[0].next, Some(next));
        assert_eq!(m.width(q), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate input")]
    fn duplicate_inputs_rejected() {
        let mut m = Module::new("t");
        m.input("x", 1);
        m.input("x", 2);
    }

    #[test]
    fn select_builds_a_working_mux_tree() {
        let mut m = Module::new("t");
        let sel = m.input("sel", 3);
        let options: Vec<_> = (0..5).map(|i| m.const_u(8, 10 + i)).collect();
        let y = m.select(sel, &options);
        m.output("y", y);
        m.validate().unwrap();
        assert_eq!(m.width(y), 8);
    }

    #[test]
    #[should_panic(expected = "select needs")]
    fn select_rejects_narrow_selector() {
        let mut m = Module::new("t");
        let sel = m.input("sel", 1);
        let options: Vec<_> = (0..4).map(|i| m.const_u(8, i)).collect();
        m.select(sel, &options);
    }

    #[test]
    fn mem_ports() {
        let mut m = Module::new("t");
        let mem = m.mem("buf", 32, 8);
        let addr = m.input("addr", 3);
        let data = m.input("data", 32);
        let en = m.input("en", 1);
        let q = m.mem_read(mem, addr);
        m.mem_write(mem, addr, data, en);
        assert_eq!(m.width(q), 32);
        assert_eq!(m.mems()[0].writes.len(), 1);
    }
}
