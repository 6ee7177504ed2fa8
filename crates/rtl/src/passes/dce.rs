//! Dead-code elimination with register and memory liveness.

use crate::{MemId, Module, Node, NodeId, RegId};

/// Removes nodes, registers and memories that cannot influence any output.
///
/// Liveness is a fixpoint: outputs are live; a live node's operands are
/// live; a live `RegOut` makes its register (and the register's next/en/
/// reset cones) live; a live `MemRead` makes the memory and all its write
/// ports live. Everything else is dropped and the id spaces are compacted
/// in place; a module with nothing dead is left untouched.
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
    let all = |live: &[bool]| live.iter().all(|&l| l);
    if all(&node_live) && all(&reg_live) && all(&mem_live) {
        return;
    }

    // Compact the id spaces. Operands precede their users, so a live
    // node's operands are already renumbered when it is reached.
    let reg_map = compact_ids(&reg_live, RegId::new);
    let mem_map = compact_ids(&mem_live, MemId::new);
    let mut node_map = vec![NodeId::new(usize::MAX); n];
    let mut next = 0;
    let mut i = 0;
    module.nodes.retain_mut(|nd| {
        let live = node_live[i];
        if live {
            nd.node.remap_operands(|id| node_map[id.index()]);
            match &mut nd.node {
                Node::RegOut(r) => *r = reg_map[r.index()],
                Node::MemRead { mem, .. } => *mem = mem_map[mem.index()],
                _ => {}
            }
            node_map[i] = NodeId::new(next);
            next += 1;
        }
        i += 1;
        live
    });
    // Optimized modules are kept in the front-half cache: release the dead
    // nodes' slots rather than carry them.
    module.nodes.shrink_to_fit();

    let remap = |id: NodeId| node_map[id.index()];
    for port in &mut module.inputs {
        port.node = remap(port.node);
    }
    for out in &mut module.outputs {
        out.node = remap(out.node);
    }
    let mut r = 0;
    module.regs.retain_mut(|reg| {
        let live = reg_live[r];
        r += 1;
        if live {
            reg.next = reg.next.map(remap);
            reg.en = reg.en.map(remap);
            reg.reset = reg.reset.map(remap);
        }
        live
    });
    let mut m = 0;
    module.mems.retain_mut(|mem| {
        let live = mem_live[m];
        m += 1;
        if live {
            for w in &mut mem.writes {
                w.addr = remap(w.addr);
                w.data = remap(w.data);
                w.en = remap(w.en);
            }
        }
        live
    });
}

/// Dense renumbering of the live entries of an id space (dead entries keep
/// a sentinel that is never read).
fn compact_ids<T: Copy>(live: &[bool], id: fn(usize) -> T) -> Vec<T> {
    let mut next = 0;
    live.iter()
        .map(|&l| {
            let new = id(if l { next } else { usize::MAX });
            next += usize::from(l);
            new
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryOp;
    use hc_bits::Bits;

    #[test]
    fn drops_unused_logic() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let used = m.binary(BinaryOp::Add, a, b, 8);
        let _dead = m.binary(BinaryOp::MulS, a, b, 16);
        m.output("y", used);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(m.nodes().len(), 3); // two inputs + one add
    }

    #[test]
    fn drops_dead_register_but_keeps_live_chain() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let live = m.reg("live", 8, Bits::zero(8));
        let dead = m.reg("dead", 8, Bits::zero(8));
        let lq = m.reg_out(live);
        let dq = m.reg_out(dead);
        m.connect_reg(live, a);
        m.connect_reg(dead, dq); // self-loop, unobservable
        m.output("y", lq);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(m.regs().len(), 1);
        assert_eq!(m.regs()[0].name, "live");
    }

    #[test]
    fn keeps_memory_reached_through_read() {
        let mut m = Module::new("t");
        let mem = m.mem("buf", 8, 4);
        let dead_mem = m.mem("junk", 8, 4);
        let addr = m.input("addr", 2);
        let data = m.input("data", 8);
        let en = m.input("en", 1);
        m.mem_write(mem, addr, data, en);
        m.mem_write(dead_mem, addr, data, en);
        let q = m.mem_read(mem, addr);
        m.output("q", q);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(m.mems().len(), 1);
        assert_eq!(m.mems()[0].name, "buf");
    }

    #[test]
    fn inputs_survive_even_if_unused() {
        let mut m = Module::new("t");
        let _a = m.input("a", 8);
        let b = m.input("b", 8);
        m.output("y", b);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(m.inputs().len(), 2);
    }
}
