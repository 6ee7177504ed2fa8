//! Combinational node kinds.

use crate::{BinaryOp, MemId, NodeId, RegId, UnaryOp};
use hc_bits::Bits;

/// One combinational node in the netlist.
///
/// Nodes may only reference nodes with a smaller index; registers and
/// memories are the only way to form feedback, so the node list is always in
/// topological order and a single forward sweep evaluates the module.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// A literal constant.
    Const(Bits),
    /// The value of input port `inputs[idx]`.
    Input(usize),
    /// A unary operation.
    Unary(UnaryOp, NodeId),
    /// A binary operation.
    Binary(BinaryOp, NodeId, NodeId),
    /// `sel ? on_true : on_false`; `sel` is 1 bit wide.
    Mux {
        /// 1-bit select.
        sel: NodeId,
        /// Value when `sel` is 1.
        on_true: NodeId,
        /// Value when `sel` is 0.
        on_false: NodeId,
    },
    /// Bit concatenation `{hi, lo}`.
    Concat(NodeId, NodeId),
    /// Bit slice `src[lo + width - 1 : lo]`; the width is the node's width.
    Slice {
        /// Source node.
        src: NodeId,
        /// Low bit index.
        lo: u32,
    },
    /// Zero-extension (or truncation) to the node's width.
    ZExt(NodeId),
    /// Sign-extension (or truncation) to the node's width.
    SExt(NodeId),
    /// The current output value of a register.
    RegOut(RegId),
    /// Asynchronous (same-cycle) memory read.
    MemRead {
        /// Memory to read.
        mem: MemId,
        /// Address node.
        addr: NodeId,
    },
}

impl Node {
    /// Calls `f` for every node this node depends on.
    pub fn for_each_operand(&self, mut f: impl FnMut(NodeId)) {
        match *self {
            Node::Const(_) | Node::Input(_) | Node::RegOut(_) => {}
            Node::Unary(_, a) | Node::Slice { src: a, .. } | Node::ZExt(a) | Node::SExt(a) => f(a),
            Node::Binary(_, a, b) | Node::Concat(a, b) => {
                f(a);
                f(b);
            }
            Node::Mux {
                sel,
                on_true,
                on_false,
            } => {
                f(sel);
                f(on_true);
                f(on_false);
            }
            Node::MemRead { addr, .. } => f(addr),
        }
    }

    /// Rewrites every operand through `map` (used by the rewriting passes).
    pub fn map_operands(&self, mut map: impl FnMut(NodeId) -> NodeId) -> Node {
        match self.clone() {
            n @ (Node::Const(_) | Node::Input(_) | Node::RegOut(_)) => n,
            Node::Unary(op, a) => Node::Unary(op, map(a)),
            Node::Binary(op, a, b) => Node::Binary(op, map(a), map(b)),
            Node::Mux {
                sel,
                on_true,
                on_false,
            } => Node::Mux {
                sel: map(sel),
                on_true: map(on_true),
                on_false: map(on_false),
            },
            Node::Concat(a, b) => Node::Concat(map(a), map(b)),
            Node::Slice { src, lo } => Node::Slice { src: map(src), lo },
            Node::ZExt(a) => Node::ZExt(map(a)),
            Node::SExt(a) => Node::SExt(map(a)),
            Node::MemRead { mem, addr } => Node::MemRead {
                mem,
                addr: map(addr),
            },
        }
    }

    /// Rewrites every operand through `map` in place, visiting them in
    /// [`Node::for_each_operand`] order.
    pub(crate) fn remap_operands(&mut self, mut map: impl FnMut(NodeId) -> NodeId) {
        match self {
            Node::Const(_) | Node::Input(_) | Node::RegOut(_) => {}
            Node::Unary(_, a)
            | Node::Slice { src: a, .. }
            | Node::ZExt(a)
            | Node::SExt(a)
            | Node::MemRead { addr: a, .. } => *a = map(*a),
            Node::Binary(_, a, b) | Node::Concat(a, b) => {
                *a = map(*a);
                *b = map(*b);
            }
            Node::Mux {
                sel,
                on_true,
                on_false,
            } => {
                *sel = map(*sel);
                *on_true = map(*on_true);
                *on_false = map(*on_false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_visit_covers_all_edges() {
        let mux = Node::Mux {
            sel: NodeId::new(0),
            on_true: NodeId::new(1),
            on_false: NodeId::new(2),
        };
        let mut seen = vec![];
        mux.for_each_operand(|n| seen.push(n.index()));
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn map_operands_rewrites() {
        let n = Node::Binary(BinaryOp::Add, NodeId::new(1), NodeId::new(2));
        let shifted = n.map_operands(|id| NodeId::new(id.index() + 10));
        assert_eq!(
            shifted,
            Node::Binary(BinaryOp::Add, NodeId::new(11), NodeId::new(12))
        );
    }
}
