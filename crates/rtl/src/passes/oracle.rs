//! The pass pipeline as it stood before the in-place rewrite, kept as the
//! byte-identity reference for [`super::optimize_with`].
//!
//! Every pass here is the pre-rewrite code, changed only so that
//! `apply_replacement` remaps input ports through the re-sort like every
//! other reference. The proptest at the bottom runs this pipeline and the
//! production one on random modules and requires equal node tables (node,
//! width, name), ports, registers, memories and [`OptReport`]s.
//! `PROPTEST_CASES` raises the case count.

use super::eval::eval_pure;
use super::{OptReport, PassConfig};
use crate::module::NodeData;
use crate::{
    BinaryOp, Mem, MemId, MemWrite, Module, Node, NodeId, Output, Port, Reg, RegId, UnaryOp,
};
use hc_bits::Bits;
use std::collections::HashMap;

/// The pre-rewrite fixpoint loop of [`super::optimize_with`] under
/// [`PassConfig::all`].
pub fn optimize(module: &mut Module) -> OptReport {
    let config = PassConfig::all();
    let mut report = OptReport {
        nodes_before: module.nodes().len(),
        regs_before: module.regs().len(),
        ..OptReport::default()
    };
    loop {
        let before = module.nodes().len();
        if config.const_fold {
            const_fold(module);
        }
        if config.strength {
            strength_reduce(module);
        }
        if config.cse {
            cse(module);
        }
        if config.dce {
            dce(module);
        }
        report.iterations += 1;
        if module.nodes().len() >= before {
            break;
        }
    }
    report.nodes_after = module.nodes().len();
    report.regs_after = module.regs().len();
    report
}

fn set_tables(
    module: &mut Module,
    nodes: Vec<NodeData>,
    inputs: Vec<Port>,
    outputs: Vec<Output>,
    regs: Vec<Reg>,
    mems: Vec<Mem>,
) {
    module.nodes = nodes;
    module.inputs = inputs;
    module.outputs = outputs;
    module.regs = regs;
    module.mems = mems;
}

/// Folds nodes whose operands are constants and applies width-preserving
/// algebraic identities (`x + 0`, `x * 1`, `x & 0`, shift-by-0, constant-
/// select muxes, …). Dead originals are left for [`super::dce`] to collect.
pub fn const_fold(module: &mut Module) {
    let n = module.nodes().len();
    // replace[i] = the node that should be used instead of node i.
    let mut replace: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let mut values: Vec<Option<Bits>> = vec![None; n];

    for i in 0..n {
        let data = module.node(NodeId::new(i)).clone();
        let node = data.node.map_operands(|id| replace[id.index()]);

        // Gather operand constant values.
        let mut args = Vec::new();
        let mut all_const = true;
        node.for_each_operand(|id| match &values[id.index()] {
            Some(v) => args.push(v.clone()),
            None => all_const = false,
        });

        if all_const
            && !matches!(
                node,
                Node::Input(_) | Node::RegOut(_) | Node::MemRead { .. }
            )
        {
            if let Some(v) = eval_pure(&node, data.width, &args) {
                if let Node::Const(existing) = &module.node(NodeId::new(i)).node {
                    values[i] = Some(existing.clone());
                    continue;
                }
                let new = module.constant(v.clone());
                replace.push(new); // self-map for the appended node
                values.push(Some(v.clone()));
                replace[i] = new;
                values[i] = Some(v);
                continue;
            }
        }

        match identity(module, &node, data.width, &values) {
            Some(Simplified::Alias(alias)) => {
                replace[i] = replace[alias.index()];
                values[i] = values[alias.index()].clone();
                continue;
            }
            Some(Simplified::Value(v)) => {
                let new = module.constant(v.clone());
                replace.push(new);
                values.push(Some(v.clone()));
                replace[i] = new;
                values[i] = Some(v);
                continue;
            }
            None => {}
        }

        if let Node::Const(v) = &node {
            values[i] = Some(v.clone());
        }
    }

    apply_replacement(module, &replace);
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
    values: &[Option<Bits>],
) -> Option<Simplified> {
    use Simplified::{Alias, Value};
    let cval = |id: NodeId| values.get(id.index()).and_then(|v| v.clone());
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
                    if op == BinaryOp::Or
                        && (ca.as_ref().is_some_and(|v| *v == Bits::ones(v.width()))
                            || cb.as_ref().is_some_and(|v| *v == Bits::ones(v.width())))
                    {
                        return Some(Value(Bits::ones(width)));
                    }
                    if op != BinaryOp::Sub && ca.as_ref().is_some_and(Bits::is_zero) {
                        return Some(Alias(b));
                    }
                    if cb.as_ref().is_some_and(Bits::is_zero) {
                        return Some(Alias(a));
                    }
                    None
                }
                BinaryOp::And => {
                    if a == b {
                        return Some(Alias(a));
                    }
                    if ca.as_ref().is_some_and(Bits::is_zero)
                        || cb.as_ref().is_some_and(Bits::is_zero)
                    {
                        return Some(Value(Bits::zero(width)));
                    }
                    if ca.as_ref().is_some_and(|v| *v == Bits::ones(v.width())) {
                        return Some(Alias(b));
                    }
                    if cb.as_ref().is_some_and(|v| *v == Bits::ones(v.width())) {
                        return Some(Alias(a));
                    }
                    None
                }
                BinaryOp::MulS | BinaryOp::MulU => {
                    if ca.as_ref().is_some_and(Bits::is_zero)
                        || cb.as_ref().is_some_and(Bits::is_zero)
                    {
                        return Some(Value(Bits::zero(width)));
                    }
                    // x * 1 keeps the value when the result width covers x.
                    if cb
                        .as_ref()
                        .is_some_and(|v| v.to_u64() == 1 && v.count_ones() == 1)
                        && module.width(a) == width
                    {
                        return Some(Alias(a));
                    }
                    if ca
                        .as_ref()
                        .is_some_and(|v| v.to_u64() == 1 && v.count_ones() == 1)
                        && module.width(b) == width
                    {
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
                    if ca.as_ref().is_some_and(Bits::is_zero) {
                        return Some(Value(Bits::zero(width)));
                    }
                    if cb.as_ref().is_some_and(Bits::is_zero) {
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

/// Rewrites every operand, output, register and memory reference through the
/// replacement table, then re-sorts the node list topologically (replacement
/// may introduce forward references, e.g. to constants appended at the end).
pub(crate) fn apply_replacement(module: &mut Module, replace: &[NodeId]) {
    // First rewrite through `replace`, then compose with a topological
    // permutation of the rewritten graph.
    let rewritten: Vec<Node> = module
        .nodes()
        .iter()
        .map(|nd| nd.node.map_operands(|id| replace[id.index()]))
        .collect();
    let order = topo_order(&rewritten);
    let mut position = vec![0usize; rewritten.len()];
    for (pos, &old) in order.iter().enumerate() {
        position[old] = pos;
    }
    let map = |id: NodeId| NodeId::new(position[replace[id.index()].index()]);
    let nodes = order
        .iter()
        .map(|&old| {
            let nd = module.node(NodeId::new(old));
            crate::module::NodeData {
                node: rewritten[old].map_operands(|id| NodeId::new(position[id.index()])),
                width: nd.width,
                name: nd.name.clone(),
            }
        })
        .collect();
    // The one change from the pre-rewrite passes: ports follow their
    // `Input` nodes through the re-sort.
    let inputs = module
        .inputs()
        .iter()
        .map(|p| crate::Port {
            node: map(p.node),
            ..p.clone()
        })
        .collect();
    let outputs = module
        .outputs()
        .iter()
        .map(|o| crate::Output {
            name: o.name.clone(),
            node: map(o.node),
        })
        .collect();
    let regs = module
        .regs()
        .iter()
        .map(|r| crate::Reg {
            next: r.next.map(map),
            en: r.en.map(map),
            reset: r.reset.map(map),
            ..r.clone()
        })
        .collect();
    let mems = module
        .mems()
        .iter()
        .map(|m| crate::Mem {
            writes: m
                .writes
                .iter()
                .map(|w| crate::MemWrite {
                    addr: map(w.addr),
                    data: map(w.data),
                    en: map(w.en),
                })
                .collect(),
            ..m.clone()
        })
        .collect();
    set_tables(module, nodes, inputs, outputs, regs, mems);
}

/// Topological order of an acyclic node graph (operands before users),
/// computed with an iterative DFS so deep netlists cannot overflow the
/// stack.
fn topo_order(nodes: &[Node]) -> Vec<usize> {
    let mut order = Vec::with_capacity(nodes.len());
    // 0 = unvisited, 1 = in progress, 2 = emitted.
    let mut mark = vec![0u8; nodes.len()];
    for root in 0..nodes.len() {
        if mark[root] != 0 {
            continue;
        }
        let mut stack = vec![(root, false)];
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
            nodes[i].for_each_operand(|op| {
                if mark[op.index()] == 0 {
                    stack.push((op.index(), false));
                }
            });
        }
    }
    order
}

/// Rewrites slice/concat/extension plumbing into fewer, narrower nodes.
/// Dead originals are left for [`super::dce`] to collect.
pub fn strength_reduce(module: &mut Module) {
    let n = module.nodes().len();
    let mut replace: Vec<NodeId> = (0..n).map(NodeId::new).collect();

    for i in 0..n {
        let data = module.node(NodeId::new(i)).clone();
        let node = data.node.map_operands(|id| replace[id.index()]);
        let w = data.width;

        // The canonical node a (remapped) operand resolves to. Operands
        // always canonicalize to earlier indices or appended nodes, both of
        // which already exist in the table.
        let resolved = |m: &Module, id: NodeId| m.node(id).node.clone();

        let rewrite = match node {
            // Chase the slice window through nested slices, concat halves and
            // extensions until it lands on an opaque source. One visit thus
            // resolves arbitrarily deep pack/unpack ladders.
            Node::Slice { src, lo } => {
                let (mut src, mut lo) = (src, lo);
                let mut padding = false;
                loop {
                    match resolved(module, src) {
                        // Slice of a slice: shift the window into the source.
                        Node::Slice { src: inner, lo: l2 } => {
                            src = inner;
                            lo += l2;
                        }
                        // Slice entirely inside one half of a concat: read
                        // the half. A seam-straddling window stops here.
                        Node::Concat(hi, lo_half) => {
                            let low_w = module.width(lo_half);
                            if lo + w <= low_w {
                                src = lo_half;
                            } else if lo >= low_w {
                                src = hi;
                                lo -= low_w;
                            } else {
                                break;
                            }
                        }
                        // Inside a zero-extension's source: read the source;
                        // entirely in the zero padding: a constant.
                        Node::ZExt(a) => {
                            let aw = module.width(a);
                            if lo + w <= aw {
                                src = a;
                            } else if lo >= aw {
                                padding = true;
                                break;
                            } else {
                                break;
                            }
                        }
                        // Only the below-sign-bit span of a sign-extension is
                        // a plain wire to the source.
                        Node::SExt(a) => {
                            let aw = module.width(a);
                            if lo + w <= aw {
                                src = a;
                            } else {
                                break;
                            }
                        }
                        _ => break,
                    }
                }
                if padding {
                    Some(Rewrite::Const(Bits::zero(w)))
                } else if let Node::Slice { src: s0, lo: l0 } = node {
                    if src != s0 || lo != l0 {
                        Some(Rewrite::Slice(src, lo, w))
                    } else {
                        None
                    }
                } else {
                    unreachable!()
                }
            }
            // Adjacent slices of one source re-concatenate into one slice.
            Node::Concat(hi, lo_half) => match (resolved(module, hi), resolved(module, lo_half)) {
                (Node::Slice { src: s1, lo: l1 }, Node::Slice { src: s2, lo: l2 })
                    if s1 == s2 && l1 == l2 + module.width(lo_half) =>
                {
                    Some(Rewrite::Slice(s1, l2, w))
                }
                _ => None,
            },
            // Extension chains collapse when the middle stage kept all the
            // source bits (zext∘zext and sext∘sext are then single steps).
            Node::ZExt(a) => match resolved(module, a) {
                Node::ZExt(inner) if module.width(a) >= module.width(inner) => {
                    Some(Rewrite::ZExt(inner, w))
                }
                _ => None,
            },
            Node::SExt(a) => match resolved(module, a) {
                Node::SExt(inner) if module.width(a) >= module.width(inner) => {
                    Some(Rewrite::SExt(inner, w))
                }
                _ => None,
            },
            _ => None,
        };

        if let Some(rw) = rewrite {
            let new = match rw {
                // A full-width zero-offset slice is the source itself.
                Rewrite::Slice(src, 0, width) if module.width(src) == width => src,
                Rewrite::Slice(src, lo, width) => module.slice(src, lo, width),
                Rewrite::ZExt(a, width) if module.width(a) == width => a,
                Rewrite::ZExt(a, width) => module.zext(a, width),
                Rewrite::SExt(a, width) if module.width(a) == width => a,
                Rewrite::SExt(a, width) => module.sext(a, width),
                Rewrite::Const(v) => module.constant(v),
            };
            // Appended nodes map to themselves.
            while replace.len() < module.nodes().len() {
                replace.push(NodeId::new(replace.len()));
            }
            replace[i] = replace[new.index()];
        }
    }

    apply_replacement(module, &replace);
}

/// A planned replacement for one node.
enum Rewrite {
    Slice(NodeId, u32, u32),
    ZExt(NodeId, u32),
    SExt(NodeId, u32),
    Const(Bits),
}

/// Merges structurally identical nodes. Two nodes merge when, after operand
/// remapping, they have the same kind, operands and width; commutative
/// binaries (`a + b` vs `b + a`) are canonicalized before matching. `Input`
/// nodes are never merged (each carries a distinct port index anyway);
/// asynchronous `MemRead`s of the same memory and address are pure within a
/// cycle and do merge. Dead duplicates are left for [`super::dce`].
pub fn cse(module: &mut Module) {
    let n = module.nodes().len();
    let mut replace: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let mut seen: HashMap<(Node, u32), NodeId> = HashMap::new();

    for i in 0..n {
        let data = module.node(NodeId::new(i));
        let node = data.node.map_operands(|id| replace[id.index()]);
        if matches!(node, Node::Input(_)) {
            continue;
        }
        let key = (canonical(node), data.width);
        match seen.get(&key) {
            Some(&first) => replace[i] = first,
            None => {
                seen.insert(key, NodeId::new(i));
            }
        }
    }

    apply_replacement(module, &replace);
}

/// Hash-consing key: commutative binaries get their operands sorted so
/// `a + b` and `b + a` land in the same bucket. (The node itself is left
/// as built — only the lookup key is reordered.)
fn canonical(node: Node) -> Node {
    match node {
        Node::Binary(op, a, b)
            if b < a
                && matches!(
                    op,
                    BinaryOp::Add
                        | BinaryOp::MulU
                        | BinaryOp::MulS
                        | BinaryOp::And
                        | BinaryOp::Or
                        | BinaryOp::Xor
                        | BinaryOp::Eq
                        | BinaryOp::Ne
                ) =>
        {
            Node::Binary(op, b, a)
        }
        other => other,
    }
}

/// Removes nodes, registers and memories that cannot influence any output.
///
/// Liveness is a fixpoint: outputs are live; a live node's operands are
/// live; a live `RegOut` makes its register (and the register's next/en/
/// reset cones) live; a live `MemRead` makes the memory and all its write
/// ports live. Everything else is dropped and the id spaces are compacted.
pub fn dce(module: &mut Module) {
    let n = module.nodes().len();
    let mut node_live = vec![false; n];
    let mut reg_live = vec![false; module.regs().len()];
    let mut mem_live = vec![false; module.mems().len()];
    let mut work: Vec<NodeId> = module.outputs().iter().map(|o| o.node).collect();

    while let Some(id) = work.pop() {
        if node_live[id.index()] {
            continue;
        }
        node_live[id.index()] = true;
        let nd = module.node(id);
        nd.node.for_each_operand(|op| work.push(op));
        match nd.node {
            Node::RegOut(r) if !reg_live[r.index()] => {
                reg_live[r.index()] = true;
                let reg = &module.regs()[r.index()];
                work.extend([reg.next, reg.en, reg.reset].into_iter().flatten());
            }
            Node::MemRead { mem, .. } if !mem_live[mem.index()] => {
                mem_live[mem.index()] = true;
                for w in &module.mems()[mem.index()].writes {
                    work.extend([w.addr, w.data, w.en]);
                }
            }
            _ => {}
        }
    }

    // Inputs are ports: keep their nodes so the interface is stable.
    for port in module.inputs() {
        node_live[port.node.index()] = true;
    }

    // Compact the id spaces.
    let mut node_map = vec![NodeId::new(usize::MAX); n];
    let mut reg_map = vec![RegId::new(usize::MAX); module.regs().len()];
    let mut mem_map = vec![MemId::new(usize::MAX); module.mems().len()];
    let mut next_reg = 0usize;
    for (i, live) in reg_live.iter().enumerate() {
        if *live {
            reg_map[i] = RegId::new(next_reg);
            next_reg += 1;
        }
    }
    let mut next_mem = 0usize;
    for (i, live) in mem_live.iter().enumerate() {
        if *live {
            mem_map[i] = MemId::new(next_mem);
            next_mem += 1;
        }
    }

    let mut nodes: Vec<NodeData> = Vec::new();
    for i in 0..n {
        if !node_live[i] {
            continue;
        }
        let nd = module.node(NodeId::new(i));
        let mut node = nd.node.map_operands(|id| node_map[id.index()]);
        node = match node {
            Node::RegOut(r) => Node::RegOut(reg_map[r.index()]),
            Node::MemRead { mem, addr } => Node::MemRead {
                mem: mem_map[mem.index()],
                addr,
            },
            other => other,
        };
        node_map[i] = NodeId::new(nodes.len());
        nodes.push(NodeData {
            node,
            width: nd.width,
            name: nd.name.clone(),
        });
    }

    let remap = |id: NodeId| node_map[id.index()];
    let inputs: Vec<Port> = module
        .inputs()
        .iter()
        .map(|p| Port {
            name: p.name.clone(),
            width: p.width,
            node: remap(p.node),
        })
        .collect();
    let outputs: Vec<Output> = module
        .outputs()
        .iter()
        .map(|o| Output {
            name: o.name.clone(),
            node: remap(o.node),
        })
        .collect();
    let regs: Vec<Reg> = module
        .regs()
        .iter()
        .zip(&reg_live)
        .filter(|(_, live)| **live)
        .map(|(r, _)| Reg {
            next: r.next.map(remap),
            en: r.en.map(remap),
            reset: r.reset.map(remap),
            ..r.clone()
        })
        .collect();
    let mems: Vec<Mem> = module
        .mems()
        .iter()
        .zip(&mem_live)
        .filter(|(_, live)| **live)
        .map(|(m, _)| Mem {
            writes: m
                .writes
                .iter()
                .map(|w| MemWrite {
                    addr: remap(w.addr),
                    data: remap(w.data),
                    en: remap(w.en),
                })
                .collect(),
            ..m.clone()
        })
        .collect();

    set_tables(module, nodes, inputs, outputs, regs, mems);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::optimize_with;
    use proptest::prelude::*;

    /// Widths the generator draws from: single bits, sub-word, word-sized
    /// and multi-word values.
    const WIDTHS: [u32; 8] = [1, 3, 8, 12, 16, 31, 64, 96];

    /// Upper bound on generated widths, so concatenations stay small.
    const MAX_W: u32 = 128;

    const BINARY_OPS: [BinaryOp; 18] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::MulS,
        BinaryOp::MulU,
        BinaryOp::DivU,
        BinaryOp::RemU,
        BinaryOp::And,
        BinaryOp::Or,
        BinaryOp::Xor,
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::LtU,
        BinaryOp::LtS,
        BinaryOp::LeU,
        BinaryOp::LeS,
        BinaryOp::Shl,
        BinaryOp::ShrL,
        BinaryOp::ShrA,
    ];

    /// One recipe step: a kind selector and four free parameters, read
    /// against the values built so far.
    type Step = (u8, usize, usize, usize, u32);

    /// `id` resized to `w` bits: itself, its low bits, or zero-extended.
    fn fit(m: &mut Module, id: NodeId, w: u32) -> NodeId {
        let have = m.width(id);
        match have.cmp(&w) {
            std::cmp::Ordering::Equal => id,
            std::cmp::Ordering::Greater => m.slice(id, 0, w),
            std::cmp::Ordering::Less => m.zext(id, w),
        }
    }

    /// Builds a valid module from a recipe: mixed widths, the constants 0,
    /// 1 and all-ones, slices, concatenations, extensions, muxes, registers
    /// with enables and resets, a memory, and inputs declared after logic.
    fn build(steps: &[Step]) -> Module {
        let mut m = Module::new("random");
        let mut pool = vec![m.input("i0", 12), m.input("i1", 8), m.input("i2", 1)];
        let mem = m.mem("buf", 8, 16);
        let mut regs = Vec::new();
        for (k, &(kind, a, b, c, x)) in steps.iter().enumerate() {
            let pick = |i: usize| pool[i % pool.len()];
            let (a, b, cn) = (pick(a), pick(b), pick(c));
            let wide = WIDTHS[x as usize % WIDTHS.len()];
            let node = match kind % 12 {
                0 => match x % 4 {
                    0 => m.constant(Bits::zero(wide)),
                    1 => m.const_u(wide, 1),
                    2 => m.constant(Bits::ones(wide)),
                    _ => m.const_i(wide, k as i64 * 0x9e37_79b9 - 7),
                },
                1 => {
                    let op = [
                        UnaryOp::Not,
                        UnaryOp::Neg,
                        UnaryOp::ReduceOr,
                        UnaryOp::ReduceAnd,
                        UnaryOp::ReduceXor,
                    ][x as usize % 5];
                    m.unary(op, a)
                }
                2 | 3 => {
                    let op = BINARY_OPS[x as usize % BINARY_OPS.len()];
                    // `Bits` divides at most 64 bits wide and multiplies
                    // at most 128 (an unsigned product widens each operand
                    // by one bit), so those operands stay within 64.
                    let (a, b) = if matches!(
                        op,
                        BinaryOp::DivU | BinaryOp::RemU | BinaryOp::MulS | BinaryOp::MulU
                    ) {
                        let (wa, wb) = (m.width(a).min(64), m.width(b).min(64));
                        (fit(&mut m, a, wa), fit(&mut m, b, wb))
                    } else {
                        (a, b)
                    };
                    let wa = m.width(a);
                    if op.is_shift() {
                        let amount = fit(&mut m, b, 1 + x % 7);
                        m.binary(op, a, amount, wa)
                    } else if matches!(op, BinaryOp::MulS | BinaryOp::MulU) {
                        let full = (wa + m.width(b)).min(MAX_W);
                        m.binary(op, a, b, 1 + x % full)
                    } else {
                        let b = fit(&mut m, b, wa);
                        m.binary(op, a, b, if op.is_comparison() { 1 } else { wa })
                    }
                }
                4 => {
                    let sel = fit(&mut m, a, 1);
                    let wb = m.width(b);
                    let on_false = fit(&mut m, cn, wb);
                    m.mux(sel, b, on_false)
                }
                5 => {
                    let sw = m.width(a);
                    let w = 1 + x % sw;
                    m.slice(a, c as u32 % (sw - w + 1), w)
                }
                6 | 8 => {
                    let wl = m.width(b).min(64);
                    let wh = m.width(a).min(MAX_W - wl);
                    let hi = fit(&mut m, a, wh);
                    let lo = fit(&mut m, b, wl);
                    let cat = m.concat(hi, lo);
                    match (kind % 12, x % 3) {
                        (6, _) => cat,
                        // Pack, then unpack one half or a window that may
                        // straddle the seam.
                        (_, 0) => m.slice(cat, 0, wl),
                        (_, 1) => m.slice(cat, wl, wh),
                        _ => {
                            let w = 1 + x % (wh + wl);
                            m.slice(cat, (c as u32) % (wh + wl - w + 1), w)
                        }
                    }
                }
                7 => {
                    let zero = x % 2 == 0;
                    let ext =
                        |m: &mut Module, id, w| if zero { m.zext(id, w) } else { m.sext(id, w) };
                    let once = ext(&mut m, a, wide);
                    if x % 3 == 0 {
                        // An extension chain, collapsible when the middle
                        // stage keeps every source bit.
                        let w2 = WIDTHS[c % WIDTHS.len()];
                        ext(&mut m, once, w2)
                    } else {
                        once
                    }
                }
                9 => {
                    // Split into adjacent slices and re-join them.
                    let sw = m.width(a);
                    if sw < 2 {
                        a
                    } else {
                        let cut = 1 + x % (sw - 1);
                        let hi = m.slice(a, cut, sw - cut);
                        let lo = m.slice(a, 0, cut);
                        m.concat(hi, lo)
                    }
                }
                10 if x % 2 == 0 => m.input(format!("late{k}"), wide),
                10 => {
                    let r = m.reg(format!("r{k}"), wide, Bits::from_u64(wide, k as u64));
                    regs.push((r, b, cn));
                    m.reg_out(r)
                }
                _ => {
                    let addr = fit(&mut m, a, 4);
                    m.mem_read(mem, addr)
                }
            };
            pool.push(node);
        }
        let pick = |i: usize| pool[i % pool.len()];
        for (j, &(r, next, ctl)) in regs.iter().enumerate() {
            let w = m.regs()[r.index()].width;
            let next = fit(&mut m, next, w);
            m.connect_reg(r, next);
            if j % 2 == 0 {
                let en = fit(&mut m, ctl, 1);
                m.reg_en(r, en);
            }
            if j % 3 == 0 {
                let reset = fit(&mut m, pick(j + 5), 1);
                m.reg_reset(r, reset);
            }
        }
        let (addr, data, en) = (pick(1), pick(pool.len() / 2), pick(2));
        let addr = fit(&mut m, addr, 4);
        let data = fit(&mut m, data, 8);
        let en = fit(&mut m, en, 1);
        m.mem_write(mem, addr, data, en);
        m.output("y0", pool[pool.len() - 1]);
        m.output("y1", pool[pool.len() / 2]);
        m.output("y2", pool[pool.len() / 3]);
        m.validate().expect("generated module is valid");
        m
    }

    type NodeRow = (Node, u32, Option<String>);
    type RegRow = (
        String,
        u32,
        Bits,
        Option<NodeId>,
        Option<NodeId>,
        Option<NodeId>,
    );
    type MemRow = (String, u32, u32, Vec<(NodeId, NodeId, NodeId)>);

    /// Every table of a module, in comparable form.
    #[allow(clippy::type_complexity)]
    fn tables(
        m: &Module,
    ) -> (
        Vec<NodeRow>,
        Vec<(String, u32, NodeId)>,
        Vec<(String, NodeId)>,
        Vec<RegRow>,
        Vec<MemRow>,
    ) {
        (
            m.nodes()
                .iter()
                .map(|nd| (nd.node.clone(), nd.width, nd.name.clone()))
                .collect(),
            m.inputs()
                .iter()
                .map(|p| (p.name.clone(), p.width, p.node))
                .collect(),
            m.outputs()
                .iter()
                .map(|o| (o.name.clone(), o.node))
                .collect(),
            m.regs()
                .iter()
                .map(|r| {
                    (
                        r.name.clone(),
                        r.width,
                        r.init.clone(),
                        r.next,
                        r.en,
                        r.reset,
                    )
                })
                .collect(),
            m.mems()
                .iter()
                .map(|mem| {
                    let writes = mem.writes.iter().map(|w| (w.addr, w.data, w.en)).collect();
                    (mem.name.clone(), mem.width, mem.depth, writes)
                })
                .collect(),
        )
    }

    fn step() -> impl Strategy<Value = Step> {
        (
            any::<u8>(),
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
            any::<u32>(),
        )
    }

    proptest! {
        /// The in-place pipeline emits exactly what the pre-rewrite passes
        /// emit: the same nodes in the same order with the same widths and
        /// names, the same ports, registers and memories, and the same
        /// report.
        #[test]
        fn in_place_pipeline_matches_the_oracle(
            steps in proptest::collection::vec(step(), 1..80),
        ) {
            let module = build(&steps);
            let mut want = module.clone();
            let want_report = optimize(&mut want);
            let mut got = module;
            let got_report = optimize_with(&mut got, &PassConfig::all());
            prop_assert_eq!(tables(&got), tables(&want));
            prop_assert_eq!(got_report, want_report);
            got.validate().expect("optimized module stays valid");
        }
    }
}
