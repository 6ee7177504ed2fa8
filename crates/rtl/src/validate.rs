//! Structural validation: width rules, topological ordering, connectivity.

use crate::{BinaryOp, Module, Node, NodeId, UnaryOp};
use hc_bits::Bits;
use std::error::Error;
use std::fmt;

/// A structural defect found by [`Module::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidateError {
    message: String,
}

impl ValidateError {
    fn new(message: String) -> Self {
        ValidateError { message }
    }
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for ValidateError {}

impl Module {
    /// Checks structural invariants.
    ///
    /// Verified properties: every node references only earlier nodes (the
    /// acyclicity guarantee the simulator relies on), every node and
    /// memory word is 1 to [`Bits::MAX_WIDTH`] bits wide, every port,
    /// register and memory reference names an existing node, input port
    /// `k` is carried by a `Node::Input(k)` node of the port's width,
    /// operand widths obey the rules of each [`Node`] kind, every register
    /// has a connected next value and an initial value of its width,
    /// enables/resets/mux selects are one bit wide, memory ports are
    /// consistent, and slices stay in range. Ids are range-checked before
    /// use, so tables decoded from outside the process fail here rather
    /// than panic.
    ///
    /// # Errors
    ///
    /// Returns the first defect found, with a human-readable description
    /// naming the offending node.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let err = |msg: String| Err(ValidateError::new(format!("{}: {msg}", self.name())));
        let exists = |id: NodeId| id.index() < self.nodes().len();
        for (i, nd) in self.nodes().iter().enumerate() {
            let mut ordered = true;
            nd.node.for_each_operand(|op| {
                if op.index() >= i {
                    ordered = false;
                }
            });
            if !ordered {
                return err(format!("node n{i} references a later node (cycle)"));
            }
            if !(1..=Bits::MAX_WIDTH).contains(&nd.width) {
                return err(format!("n{i}: width {}", nd.width));
            }
            let w = |id: NodeId| self.width(id);
            match &nd.node {
                Node::Const(v) => {
                    if v.width() != nd.width {
                        return err(format!("n{i}: const width mismatch"));
                    }
                }
                Node::Input(idx) => {
                    let port = self
                        .inputs()
                        .get(*idx)
                        .ok_or_else(|| ValidateError::new(format!("n{i}: bad input index")))?;
                    if port.width != nd.width {
                        return err(format!("n{i}: input width mismatch"));
                    }
                }
                Node::Unary(op, a) => {
                    let expect = match op {
                        UnaryOp::Not | UnaryOp::Neg => w(*a),
                        _ => 1,
                    };
                    if nd.width != expect {
                        return err(format!("n{i}: unary {op} width {} != {expect}", nd.width));
                    }
                }
                Node::Binary(op, a, b) => {
                    if op.needs_same_width() && (w(*a) != nd.width || w(*b) != nd.width) {
                        return err(format!(
                            "n{i}: {op} widths {}x{} -> {}",
                            w(*a),
                            w(*b),
                            nd.width
                        ));
                    }
                    if op.is_comparison() {
                        if nd.width != 1 {
                            return err(format!("n{i}: comparison width {}", nd.width));
                        }
                        if w(*a) != w(*b) {
                            return err(format!("n{i}: comparison operands {}x{}", w(*a), w(*b)));
                        }
                    }
                    if op.is_shift() && w(*a) != nd.width {
                        return err(format!("n{i}: shift operand {} -> {}", w(*a), nd.width));
                    }
                    if matches!(op, BinaryOp::MulS | BinaryOp::MulU) && nd.width > w(*a) + w(*b) {
                        return err(format!(
                            "n{i}: mul result {} wider than full product {}",
                            nd.width,
                            w(*a) + w(*b)
                        ));
                    }
                }
                Node::Mux {
                    sel,
                    on_true,
                    on_false,
                } => {
                    if w(*sel) != 1 {
                        return err(format!("n{i}: mux select is {} bits", w(*sel)));
                    }
                    if w(*on_true) != nd.width || w(*on_false) != nd.width {
                        return err(format!("n{i}: mux arm widths differ"));
                    }
                }
                Node::Concat(hi, lo) => {
                    if w(*hi) + w(*lo) != nd.width {
                        return err(format!("n{i}: concat width"));
                    }
                }
                Node::Slice { src, lo } => {
                    if lo.saturating_add(nd.width) > w(*src) {
                        return err(format!(
                            "n{i}: slice [{}+:{}] of {}-bit node",
                            lo,
                            nd.width,
                            w(*src)
                        ));
                    }
                }
                Node::ZExt(_) | Node::SExt(_) => {}
                Node::RegOut(r) => {
                    let reg = self
                        .regs()
                        .get(r.index())
                        .ok_or_else(|| ValidateError::new(format!("n{i}: bad reg id")))?;
                    if reg.width != nd.width {
                        return err(format!("n{i}: reg out width"));
                    }
                }
                Node::MemRead { mem, .. } => {
                    let m = self
                        .mems()
                        .get(mem.index())
                        .ok_or_else(|| ValidateError::new(format!("n{i}: bad mem id")))?;
                    if m.width != nd.width {
                        return err(format!("n{i}: mem read width"));
                    }
                }
            }
        }
        for (k, port) in self.inputs().iter().enumerate() {
            let carried = exists(port.node)
                && matches!(self.node(port.node).node, Node::Input(idx) if idx == k)
                && self.width(port.node) == port.width;
            if !carried {
                return err(format!(
                    "input {:?} is not carried by its Input node ({:?})",
                    port.name, port.node
                ));
            }
        }
        for (i, reg) in self.regs().iter().enumerate() {
            let next = reg.next.ok_or_else(|| {
                ValidateError::new(format!("register {:?} unconnected", reg.name))
            })?;
            if let Some(id) = [Some(next), reg.en, reg.reset]
                .into_iter()
                .flatten()
                .find(|&id| !exists(id))
            {
                return err(format!("reg r{i} references missing node {id:?}"));
            }
            if self.width(next) != reg.width {
                return err(format!("reg r{i} next width"));
            }
            if reg.init.width() != reg.width {
                return err(format!("reg r{i} init width"));
            }
            for ctl in [reg.en, reg.reset].into_iter().flatten() {
                if self.width(ctl) != 1 {
                    return err(format!("reg r{i} control is not 1 bit"));
                }
            }
        }
        for (i, mem) in self.mems().iter().enumerate() {
            if mem.depth == 0 || !(1..=Bits::MAX_WIDTH).contains(&mem.width) {
                return err(format!(
                    "mem m{i} is {} deep, {} wide",
                    mem.depth, mem.width
                ));
            }
            for wp in &mem.writes {
                if let Some(id) = [wp.addr, wp.data, wp.en]
                    .into_iter()
                    .find(|&id| !exists(id))
                {
                    return err(format!("mem m{i} write references missing node {id:?}"));
                }
                if self.width(wp.data) != mem.width {
                    return err(format!("mem m{i} write data width"));
                }
                if self.width(wp.en) != 1 {
                    return err(format!("mem m{i} write enable width"));
                }
            }
        }
        for out in self.outputs() {
            if !exists(out.node) {
                return err(format!("output {:?} dangling", out.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeData;

    #[test]
    fn valid_module_passes() {
        let mut m = Module::new("ok");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let s = m.binary(BinaryOp::Add, a, b, 8);
        m.output("s", s);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn width_mismatch_caught() {
        let mut m = Module::new("bad");
        let a = m.input("a", 8);
        let b = m.input("b", 4);
        let s = m.binary(BinaryOp::Add, a, b, 8);
        m.output("s", s);
        let e = m.validate().unwrap_err();
        assert!(e.to_string().contains('+'), "{e}");
    }

    #[test]
    fn unconnected_reg_caught() {
        let mut m = Module::new("bad");
        let r = m.reg("r", 4, Bits::zero(4));
        let q = m.reg_out(r);
        m.output("q", q);
        let e = m.validate().unwrap_err();
        assert!(e.to_string().contains("unconnected"), "{e}");
    }

    #[test]
    fn oversized_mul_caught() {
        let mut m = Module::new("bad");
        let a = m.input("a", 4);
        let b = m.input("b", 4);
        let p = m.binary(BinaryOp::MulS, a, b, 9);
        m.output("p", p);
        assert!(m.validate().is_err());
    }

    /// Reassembles a small valid module (inputs `a` and `en` at n0 and n1,
    /// a register output at n2, one memory write port) with
    /// `Module::from_parts` after `patch` edits its tables.
    fn patched(
        patch: impl FnOnce(&mut Vec<crate::Port>, &mut Vec<crate::Reg>, &mut Vec<crate::Mem>),
    ) -> Result<Module, ValidateError> {
        let mut m = Module::new("t");
        let a = m.input("a", 4);
        let en = m.input("en", 1);
        let r = m.reg("r", 4, Bits::zero(4));
        let q = m.reg_out(r);
        m.connect_reg(r, a);
        let mem = m.mem("buf", 4, 16);
        m.mem_write(mem, a, a, en);
        m.output("q", q);
        let mut inputs = m.inputs().to_vec();
        let mut regs = m.regs().to_vec();
        let mut mems = m.mems().to_vec();
        patch(&mut inputs, &mut regs, &mut mems);
        Module::from_parts(
            "t",
            m.nodes().to_vec(),
            inputs,
            m.outputs().to_vec(),
            regs,
            mems,
        )
    }

    #[test]
    fn from_parts_accepts_the_unpatched_tables() {
        let mut m = patched(|_, _, _| {}).unwrap();
        crate::passes::optimize(&mut m);
        m.validate().unwrap();
    }

    #[test]
    fn register_next_out_of_range_is_an_error() {
        let e = patched(|_, regs, _| regs[0].next = Some(NodeId::new(99))).unwrap_err();
        assert!(e.to_string().contains("missing node n99"), "{e}");
    }

    #[test]
    fn register_controls_out_of_range_are_errors() {
        for (en, reset) in [(Some(99), None), (None, Some(99))] {
            let e = patched(|_, regs, _| {
                regs[0].en = en.map(NodeId::new);
                regs[0].reset = reset.map(NodeId::new);
            })
            .unwrap_err();
            assert!(e.to_string().contains("missing node n99"), "{e}");
        }
    }

    #[test]
    fn mem_write_data_out_of_range_is_an_error() {
        let e = patched(|_, _, mems| mems[0].writes[0].data = NodeId::new(99)).unwrap_err();
        assert!(e.to_string().contains("missing node n99"), "{e}");
    }

    #[test]
    fn mem_write_addr_out_of_range_is_an_error() {
        let e = patched(|_, _, mems| mems[0].writes[0].addr = NodeId::new(99)).unwrap_err();
        assert!(e.to_string().contains("missing node n99"), "{e}");
    }

    #[test]
    fn mem_write_enable_out_of_range_is_an_error() {
        let e = patched(|_, _, mems| mems[0].writes[0].en = NodeId::new(99)).unwrap_err();
        assert!(e.to_string().contains("missing node n99"), "{e}");
    }

    #[test]
    fn input_port_out_of_range_is_an_error() {
        let e = patched(|inputs, _, _| inputs[0].node = NodeId::new(99)).unwrap_err();
        assert!(e.to_string().contains("Input node"), "{e}");
    }

    #[test]
    fn input_port_on_a_non_input_node_is_an_error() {
        // n2 is the register output: it exists, but does not carry `a`.
        let e = patched(|inputs, _, _| inputs[0].node = NodeId::new(2)).unwrap_err();
        assert!(e.to_string().contains("Input node"), "{e}");
    }

    #[test]
    fn input_port_on_a_const_node_is_an_error() {
        let mut m = Module::new("t");
        let a = m.input("a", 4);
        let k = m.const_u(4, 5);
        m.output("y", a);
        let mut inputs = m.inputs().to_vec();
        inputs[0].node = k;
        let e = Module::from_parts("t", m.nodes().to_vec(), inputs, vec![], vec![], vec![])
            .unwrap_err();
        assert!(e.to_string().contains("Input node"), "{e}");
    }

    #[test]
    fn input_port_width_must_match_its_node() {
        let e = patched(|inputs, _, _| inputs[0].width = 5).unwrap_err();
        assert!(e.to_string().contains("input"), "{e}");
    }

    /// A module `y = a[3:0]` over an 8-bit input, reassembled with
    /// `Module::from_parts` after `patch` edits its node table.
    fn with_nodes(patch: impl FnOnce(&mut Vec<NodeData>)) -> Result<Module, ValidateError> {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let y = m.slice(a, 0, 4);
        m.output("y", y);
        let mut nodes = m.nodes().to_vec();
        patch(&mut nodes);
        Module::from_parts(
            "t",
            nodes,
            m.inputs().to_vec(),
            m.outputs().to_vec(),
            vec![],
            vec![],
        )
    }

    #[test]
    fn node_widths_outside_the_bits_range_are_errors() {
        assert!(with_nodes(|_| {}).is_ok());
        for width in [0, Bits::MAX_WIDTH + 1] {
            let e = with_nodes(|nodes| nodes[1].width = width).unwrap_err();
            assert!(e.to_string().contains("width"), "{e}");
        }
    }

    #[test]
    fn slice_offset_near_u32_max_is_an_error() {
        let e = with_nodes(|nodes| {
            nodes[1].node = Node::Slice {
                src: NodeId::from_index(0),
                lo: u32::MAX - 1,
            }
        })
        .unwrap_err();
        assert!(e.to_string().contains("slice"), "{e}");
    }

    #[test]
    fn memory_word_widths_outside_the_bits_range_are_errors() {
        for width in [0, Bits::MAX_WIDTH + 1] {
            let e = patched(|_, _, mems| {
                mems[0].width = width;
                mems[0].writes.clear();
            })
            .unwrap_err();
            assert!(e.to_string().contains("wide"), "{e}");
        }
    }

    #[test]
    fn register_init_width_must_match() {
        let e = patched(|_, regs, _| regs[0].init = Bits::zero(5)).unwrap_err();
        assert!(e.to_string().contains("init"), "{e}");
    }

    #[test]
    fn wide_mux_select_caught() {
        let mut m = Module::new("bad");
        let s = m.input("s", 2);
        let a = m.input("a", 4);
        let b = m.input("b", 4);
        let y = m.mux(s, a, b);
        m.output("y", y);
        assert!(m.validate().is_err());
    }
}
