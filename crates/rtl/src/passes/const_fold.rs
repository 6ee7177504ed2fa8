//! Constant folding and algebraic simplification.

use crate::module::NodeData;
use crate::passes::eval::eval_pure;
use crate::{BinaryOp, Module, Node, NodeId};
use hc_bits::Bits;

/// Folds nodes whose operands are constants and applies width-preserving
/// algebraic identities (`x + 0`, `x * 1`, `x & 0`, shift-by-0, constant-
/// select muxes, …). Dead originals are left for [`super::dce`] to collect.
/// Returns whether the module changed.
pub fn const_fold(module: &mut Module) -> bool {
    let n = module.nodes().len();
    // replace[i] = the node that should be used instead of node i.
    let mut replace: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    // values[i] = the `Const` node holding node i's value, when it is known:
    // one of the module's own constants or one this pass appended.
    let mut values: Vec<Option<NodeId>> = vec![None; n];
    let mut args: Vec<Bits> = Vec::new();

    for i in 0..n {
        let nd = &module.nodes()[i];
        let node = match &nd.node {
            Node::Const(_) => {
                values[i] = Some(NodeId::new(i));
                continue;
            }
            // Ports and register outputs neither fold nor simplify.
            Node::Input(_) | Node::RegOut(_) => continue,
            other => other.map_operands(|id| replace[id.index()]),
        };
        let width = nd.width;

        let mut all_const = true;
        node.for_each_operand(|id| all_const &= values[id.index()].is_some());
        let simplified = if all_const && !matches!(node, Node::MemRead { .. }) {
            args.clear();
            node.for_each_operand(|id| {
                let held = values[id.index()].expect("operand is constant");
                args.push(const_value(module, held).clone());
            });
            eval_pure(&node, width, &args).map(Simplified::Value)
        } else {
            identity(module, &node, width, &values)
        };

        match simplified {
            Some(Simplified::Alias(alias)) => {
                replace[i] = replace[alias.index()];
                values[i] = values[alias.index()];
            }
            Some(Simplified::Value(v)) => {
                let new = module.constant(v);
                replace.push(new); // self-map for the appended node
                values.push(Some(new));
                replace[i] = new;
                values[i] = Some(new);
            }
            None => {}
        }
    }

    let appended = module.nodes().len() > n;
    apply_replacement(module, &replace) || appended
}

/// The value of a `Const` node recorded in `const_fold`'s value table.
fn const_value(module: &Module, id: NodeId) -> &Bits {
    match &module.node(id).node {
        Node::Const(v) => v,
        other => unreachable!("known value held by {other:?}"),
    }
}

/// True when every bit of `v` is set. `Bits` keeps the bits above its
/// width clear, so this equals `*v == Bits::ones(v.width())`.
fn is_ones(v: &Bits) -> bool {
    v.count_ones() == v.width()
}

/// Result of an algebraic simplification: an existing equivalent node, or a
/// value the node always computes.
enum Simplified {
    Alias(NodeId),
    Value(Bits),
}

/// Returns an existing node this node is equivalent to — or a constant it
/// always evaluates to — if an algebraic identity applies.
fn identity(
    module: &Module,
    node: &Node,
    width: u32,
    values: &[Option<NodeId>],
) -> Option<Simplified> {
    use Simplified::{Alias, Value};
    let cval = |id: NodeId| values[id.index()].map(|held| const_value(module, held));
    match *node {
        Node::Binary(op, a, b) => {
            let (ca, cb) = (cval(a), cval(b));
            match op {
                BinaryOp::Add | BinaryOp::Or | BinaryOp::Xor | BinaryOp::Sub => {
                    if (op == BinaryOp::Sub || op == BinaryOp::Xor) && a == b {
                        return Some(Value(Bits::zero(width)));
                    }
                    if op == BinaryOp::Or && a == b {
                        return Some(Alias(a));
                    }
                    if op == BinaryOp::Or && (ca.is_some_and(is_ones) || cb.is_some_and(is_ones)) {
                        return Some(Value(Bits::ones(width)));
                    }
                    if op != BinaryOp::Sub && ca.is_some_and(Bits::is_zero) {
                        return Some(Alias(b));
                    }
                    if cb.is_some_and(Bits::is_zero) {
                        return Some(Alias(a));
                    }
                    None
                }
                BinaryOp::And => {
                    if a == b {
                        return Some(Alias(a));
                    }
                    if ca.is_some_and(Bits::is_zero) || cb.is_some_and(Bits::is_zero) {
                        return Some(Value(Bits::zero(width)));
                    }
                    if ca.is_some_and(is_ones) {
                        return Some(Alias(b));
                    }
                    if cb.is_some_and(is_ones) {
                        return Some(Alias(a));
                    }
                    None
                }
                BinaryOp::MulS | BinaryOp::MulU => {
                    if ca.is_some_and(Bits::is_zero) || cb.is_some_and(Bits::is_zero) {
                        return Some(Value(Bits::zero(width)));
                    }
                    let is_one = |v: &Bits| v.to_u64() == 1 && v.count_ones() == 1;
                    // x * 1 keeps the value when the result width covers x.
                    if cb.is_some_and(is_one) && module.width(a) == width {
                        return Some(Alias(a));
                    }
                    if ca.is_some_and(is_one) && module.width(b) == width {
                        return Some(Alias(b));
                    }
                    None
                }
                BinaryOp::Eq | BinaryOp::LeU | BinaryOp::LeS if a == b => {
                    Some(Value(Bits::from_u64(width, 1)))
                }
                BinaryOp::Ne | BinaryOp::LtU | BinaryOp::LtS if a == b => {
                    Some(Value(Bits::zero(width)))
                }
                BinaryOp::Shl | BinaryOp::ShrL | BinaryOp::ShrA => {
                    if ca.is_some_and(Bits::is_zero) {
                        return Some(Value(Bits::zero(width)));
                    }
                    if cb.is_some_and(Bits::is_zero) {
                        return Some(Alias(a));
                    }
                    None
                }
                _ => None,
            }
        }
        Node::Mux {
            sel,
            on_true,
            on_false,
        } => match cval(sel) {
            Some(v) if v.to_bool() => Some(Alias(on_true)),
            Some(_) => Some(Alias(on_false)),
            None if on_true == on_false => Some(Alias(on_true)),
            None => None,
        },
        Node::ZExt(a) | Node::SExt(a) if module.width(a) == width => Some(Alias(a)),
        Node::Slice { src, lo } if lo == 0 && module.width(src) == width => Some(Alias(src)),
        _ => None,
    }
}

/// Rewrites every operand, port, register and memory reference through the
/// replacement table, then re-sorts the node list topologically (replacement
/// may introduce forward references, e.g. to constants appended at the end).
///
/// Operands are rewritten in place. When every operand then points at an
/// earlier node the order is kept as it is: the topological sort would
/// return the identity permutation.
///
/// Returns whether anything moved: a node replaced by another, or the
/// order re-sorted. An identity table leaves the module as it was.
pub(crate) fn apply_replacement(module: &mut Module, replace: &[NodeId]) -> bool {
    let mut nodes = std::mem::take(&mut module.nodes);
    let mut ordered = true;
    for (i, nd) in nodes.iter_mut().enumerate() {
        nd.node.remap_operands(|id| {
            let to = replace[id.index()];
            ordered &= to.index() < i;
            to
        });
    }
    // position[old] = the node's index after the re-sort, when one is needed.
    let position = (!ordered).then(|| {
        let order = topo_order(&nodes);
        let mut position = vec![NodeId::new(0); nodes.len()];
        for (pos, &old) in order.iter().enumerate() {
            position[old] = NodeId::new(pos);
        }
        let vacated = || NodeData {
            node: Node::Input(0),
            width: 0,
            name: None,
        };
        let mut sorted: Vec<NodeData> = order
            .iter()
            .map(|&old| std::mem::replace(&mut nodes[old], vacated()))
            .collect();
        for nd in &mut sorted {
            nd.node.remap_operands(|id| position[id.index()]);
        }
        nodes = sorted;
        position
    });
    module.nodes = nodes;

    let map = |id: NodeId| {
        let to = replace[id.index()];
        position.as_ref().map_or(to, |p| p[to.index()])
    };
    for port in &mut module.inputs {
        port.node = map(port.node);
    }
    for out in &mut module.outputs {
        out.node = map(out.node);
    }
    for reg in &mut module.regs {
        reg.next = reg.next.map(map);
        reg.en = reg.en.map(map);
        reg.reset = reg.reset.map(map);
    }
    for mem in &mut module.mems {
        for w in &mut mem.writes {
            w.addr = map(w.addr);
            w.data = map(w.data);
            w.en = map(w.en);
        }
    }
    position.is_some() || replace.iter().enumerate().any(|(i, to)| to.index() != i)
}

/// Topological order of an acyclic node graph (operands before users),
/// computed with an iterative DFS so deep netlists cannot overflow the
/// stack. Roots are taken in index order and operands are pushed in
/// operand order, so the last operand's cone is emitted first.
fn topo_order(nodes: &[NodeData]) -> Vec<usize> {
    let mut order = Vec::with_capacity(nodes.len());
    // 0 = unvisited, 1 = in progress, 2 = emitted.
    let mut mark = vec![0u8; nodes.len()];
    let mut stack: Vec<(usize, bool)> = Vec::new();
    for root in 0..nodes.len() {
        if mark[root] != 0 {
            continue;
        }
        stack.push((root, false));
        while let Some((i, expanded)) = stack.pop() {
            if expanded {
                mark[i] = 2;
                order.push(i);
                continue;
            }
            if mark[i] != 0 {
                continue;
            }
            mark[i] = 1;
            stack.push((i, true));
            nodes[i].node.for_each_operand(|op| {
                if mark[op.index()] == 0 {
                    stack.push((op.index(), false));
                }
            });
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::dce;

    #[test]
    fn folds_constant_tree() {
        let mut m = Module::new("t");
        let a = m.const_i(16, 300);
        let b = m.const_i(16, -45);
        let s = m.binary(BinaryOp::Add, a, b, 16);
        m.output("y", s);
        const_fold(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(m.nodes().len(), 1);
        match &m.node(m.outputs()[0].node).node {
            Node::Const(v) => assert_eq!(v.to_i64(), 255),
            other => panic!("expected const, got {other:?}"),
        }
    }

    #[test]
    fn add_zero_identity() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let z = m.const_u(8, 0);
        let s = m.binary(BinaryOp::Add, a, z, 8);
        m.output("y", s);
        const_fold(&mut m);
        assert_eq!(m.outputs()[0].node, a);
    }

    #[test]
    fn mux_constant_select() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let sel = m.const_u(1, 1);
        let y = m.mux(sel, a, b);
        m.output("y", y);
        const_fold(&mut m);
        assert_eq!(m.outputs()[0].node, a);
    }

    #[test]
    fn input_port_follows_its_node_through_the_resort() {
        // `k` folds to a constant appended at the end; the re-sort moves
        // it in front of `s` and shifts every later node, `a` included.
        let mut m = Module::new("t");
        let c1 = m.const_u(8, 3);
        let c2 = m.const_u(8, 4);
        let k = m.binary(BinaryOp::Add, c1, c2, 8);
        let r = m.reg("r", 8, Bits::zero(8));
        let q = m.reg_out(r);
        let s = m.binary(BinaryOp::Add, q, k, 8);
        let a = m.input("a", 8);
        let y = m.binary(BinaryOp::Xor, s, a, 8);
        m.connect_reg(r, y);
        m.output("y", y);
        const_fold(&mut m);
        m.validate().unwrap();
        assert_eq!(m.node(m.inputs()[0].node).node, Node::Input(0));
    }

    #[test]
    fn folding_respects_registers() {
        // Register feedback must not be folded even with constant next.
        let mut m = Module::new("t");
        let r = m.reg("r", 8, Bits::zero(8));
        let q = m.reg_out(r);
        let one = m.const_u(8, 1);
        let nx = m.binary(BinaryOp::Add, q, one, 8);
        m.connect_reg(r, nx);
        m.output("q", q);
        const_fold(&mut m);
        m.validate().unwrap();
        assert!(matches!(m.node(m.outputs()[0].node).node, Node::RegOut(_)));
    }
}
