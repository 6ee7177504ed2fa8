//! Common-subexpression elimination by hash-consing.

use crate::passes::const_fold::apply_replacement;
use crate::{BinaryOp, Module, Node, NodeId};
use hc_bits::Bits;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Merges structurally identical nodes. Two nodes merge when, after operand
/// remapping, they have the same kind, operands and width; commutative
/// binaries (`a + b` vs `b + a`) are canonicalized before matching. `Input`
/// nodes are never merged (each carries a distinct port index anyway);
/// asynchronous `MemRead`s of the same memory and address are pure within a
/// cycle and do merge. Dead duplicates are left for [`super::dce`].
///
/// The tables keep std's keyed hasher: `hc-serve` optimizes modules
/// elaborated from untrusted Verilog, so an unkeyed hash would let a
/// crafted netlist flood one bucket.
pub fn cse(module: &mut Module) {
    let n = module.nodes().len();
    let mut replace: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    // A valid constant's node width is its value's width, so the value
    // alone identifies it.
    let mut consts: HashMap<&Bits, NodeId> = HashMap::new();
    let mut seen: HashMap<Key, NodeId> = HashMap::with_capacity(n);

    for (i, nd) in module.nodes().iter().enumerate() {
        let first = match &nd.node {
            Node::Input(_) => continue,
            Node::Const(v) => *consts.entry(v).or_insert(NodeId::new(i)),
            node => *seen
                .entry(Key::new(node, nd.width, &replace))
                .or_insert(NodeId::new(i)),
        };
        replace[i] = first;
    }

    apply_replacement(module, &replace);
}

/// Hash-consing key of a non-constant node with its operands remapped: a
/// kind/operator tag, up to three operand, register or memory ids and the
/// width, packed so the hasher sees a single write. Commutative binaries
/// get their operands sorted so `a + b` and `b + a` share a key.
#[derive(PartialEq, Eq)]
struct Key([u8; 20]);

impl Key {
    fn new(node: &Node, width: u32, replace: &[NodeId]) -> Key {
        let r = |id: NodeId| replace[id.index()].0;
        let (tag, a, b, c) = match *node {
            Node::Unary(op, a) => (0x100 | op as u32, r(a), 0, 0),
            Node::Binary(op, a, b) => {
                let (a, b) = (r(a), r(b));
                if b < a && commutes(op) {
                    (0x200 | op as u32, b, a, 0)
                } else {
                    (0x200 | op as u32, a, b, 0)
                }
            }
            Node::Mux {
                sel,
                on_true,
                on_false,
            } => (0x300, r(sel), r(on_true), r(on_false)),
            Node::Concat(hi, lo) => (0x400, r(hi), r(lo), 0),
            Node::Slice { src, lo } => (0x500, r(src), lo, 0),
            Node::ZExt(a) => (0x600, r(a), 0, 0),
            Node::SExt(a) => (0x700, r(a), 0, 0),
            Node::RegOut(reg) => (0x800, reg.0, 0, 0),
            Node::MemRead { mem, addr } => (0x900, mem.0, r(addr), 0),
            Node::Const(_) | Node::Input(_) => unreachable!("not hash-consed by key"),
        };
        let mut bytes = [0u8; 20];
        for (chunk, word) in bytes.chunks_exact_mut(4).zip([tag, a, b, c, width]) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        Key(bytes)
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(&self.0);
    }
}

/// Binary operators whose operands may be swapped.
fn commutes(op: BinaryOp) -> bool {
    matches!(
        op,
        BinaryOp::Add
            | BinaryOp::MulU
            | BinaryOp::MulS
            | BinaryOp::And
            | BinaryOp::Or
            | BinaryOp::Xor
            | BinaryOp::Eq
            | BinaryOp::Ne
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::dce;

    #[test]
    fn merges_duplicate_adders() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let s1 = m.binary(BinaryOp::Add, a, b, 8);
        let s2 = m.binary(BinaryOp::Add, a, b, 8);
        let y = m.binary(BinaryOp::Xor, s1, s2, 8);
        m.output("y", y);
        cse(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        // One add survives; the xor now sees the same node twice.
        let adds = m
            .nodes()
            .iter()
            .filter(|nd| matches!(nd.node, Node::Binary(BinaryOp::Add, ..)))
            .count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn transitive_merge() {
        // Chains of identical subtrees collapse level by level.
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let x1 = m.binary(BinaryOp::Add, a, a, 8);
        let x2 = m.binary(BinaryOp::Add, a, a, 8);
        let y1 = m.binary(BinaryOp::Sub, x1, a, 8);
        let y2 = m.binary(BinaryOp::Sub, x2, a, 8);
        m.output("y1", y1);
        m.output("y2", y2);
        cse(&mut m);
        assert_eq!(m.outputs()[0].node, m.outputs()[1].node);
    }

    #[test]
    fn commutative_operands_merge() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let s1 = m.binary(BinaryOp::Add, a, b, 8);
        let s2 = m.binary(BinaryOp::Add, b, a, 8);
        let d1 = m.binary(BinaryOp::Sub, a, b, 8);
        let d2 = m.binary(BinaryOp::Sub, b, a, 8);
        m.output("s1", s1);
        m.output("s2", s2);
        m.output("d1", d1);
        m.output("d2", d2);
        cse(&mut m);
        // Addition commutes, subtraction does not.
        assert_eq!(m.outputs()[0].node, m.outputs()[1].node);
        assert_ne!(m.outputs()[2].node, m.outputs()[3].node);
    }

    #[test]
    fn different_widths_do_not_merge() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let z1 = m.zext(a, 16);
        let z2 = m.zext(a, 12);
        m.output("y1", z1);
        m.output("y2", z2);
        cse(&mut m);
        assert_ne!(m.outputs()[0].node, m.outputs()[1].node);
    }
}
