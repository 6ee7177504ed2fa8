//! Slice/concat strength reduction.
//!
//! Frontends lean hard on bit plumbing — AXI beats are packed with concat
//! chains and unpacked with slices, transpose buffers re-slice what a
//! neighbouring unit just concatenated. Most of that plumbing cancels:
//! a slice that lands inside one half of a concat can read that half
//! directly, adjacent slices of one source re-concatenate into a single
//! wider slice, and extension chains collapse. Each rewrite removes a node
//! from every simulated cycle's tape and shortens synthesis netlists, at
//! zero behavioural cost (the shapes are pure wiring).

use crate::passes::const_fold::apply_replacement;
use crate::{Module, Node, NodeId};
use hc_bits::Bits;

/// Rewrites slice/concat/extension plumbing into fewer, narrower nodes.
/// Dead originals are left for [`super::dce`] to collect. Returns whether
/// the module changed.
pub fn strength_reduce(module: &mut Module) -> bool {
    let n = module.nodes().len();
    let mut replace: Vec<NodeId> = (0..n).map(NodeId::new).collect();

    for i in 0..n {
        let nd = &module.nodes()[i];
        if !matches!(
            nd.node,
            Node::Slice { .. } | Node::Concat(..) | Node::ZExt(_) | Node::SExt(_)
        ) {
            continue;
        }
        let node = nd.node.map_operands(|id| replace[id.index()]);
        let Some(rw) = plan(module, &node, nd.width) else {
            continue;
        };
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

    let appended = module.nodes().len() > n;
    apply_replacement(module, &replace) || appended
}

/// The rewrite for one (operand-remapped) node of width `w`, if any.
///
/// Operands always canonicalize to earlier indices or appended nodes, both
/// of which already exist in the table, so the chase reads them in place.
fn plan(module: &Module, node: &Node, w: u32) -> Option<Rewrite> {
    let resolved = |id: NodeId| &module.node(id).node;
    match *node {
        // Chase the slice window through nested slices, concat halves and
        // extensions until it lands on an opaque source. One visit thus
        // resolves arbitrarily deep pack/unpack ladders.
        Node::Slice { src: s0, lo: l0 } => {
            let (mut src, mut lo) = (s0, l0);
            let mut padding = false;
            loop {
                match *resolved(src) {
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
                        } else {
                            padding = lo >= aw;
                            break;
                        }
                    }
                    // Only the below-sign-bit span of a sign-extension is
                    // a plain wire to the source.
                    Node::SExt(a) => {
                        if lo + w <= module.width(a) {
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
            } else if src != s0 || lo != l0 {
                Some(Rewrite::Slice(src, lo, w))
            } else {
                None
            }
        }
        // Adjacent slices of one source re-concatenate into one slice.
        Node::Concat(hi, lo_half) => match (resolved(hi), resolved(lo_half)) {
            (&Node::Slice { src: s1, lo: l1 }, &Node::Slice { src: s2, lo: l2 })
                if s1 == s2 && l1 == l2 + module.width(lo_half) =>
            {
                Some(Rewrite::Slice(s1, l2, w))
            }
            _ => None,
        },
        // Extension chains collapse when the middle stage kept all the
        // source bits (zext∘zext and sext∘sext are then single steps).
        Node::ZExt(a) => match *resolved(a) {
            Node::ZExt(inner) if module.width(a) >= module.width(inner) => {
                Some(Rewrite::ZExt(inner, w))
            }
            _ => None,
        },
        Node::SExt(a) => match *resolved(a) {
            Node::SExt(inner) if module.width(a) >= module.width(inner) => {
                Some(Rewrite::SExt(inner, w))
            }
            _ => None,
        },
        _ => None,
    }
}

/// A planned replacement for one node.
enum Rewrite {
    Slice(NodeId, u32, u32),
    ZExt(NodeId, u32),
    SExt(NodeId, u32),
    Const(Bits),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{cse, dce};
    use crate::BinaryOp;

    fn count(m: &Module, pred: impl Fn(&Node) -> bool) -> usize {
        m.nodes().iter().filter(|nd| pred(&nd.node)).count()
    }

    #[test]
    fn slice_of_concat_reads_the_half() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let cat = m.concat(a, b); // {a, b}, 16 bits
        let hi = m.slice(cat, 8, 8); // == a
        let lo = m.slice(cat, 0, 8); // == b
        let y = m.binary(BinaryOp::Add, hi, lo, 8);
        m.output("y", y);
        strength_reduce(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(count(&m, |n| matches!(n, Node::Concat(..))), 0);
        assert_eq!(count(&m, |n| matches!(n, Node::Slice { .. })), 0);
        // The add now reads the inputs directly.
        assert_eq!(m.nodes().len(), 3);
    }

    #[test]
    fn slice_of_concat_inner_field() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let cat = m.concat(a, b);
        let field = m.slice(cat, 10, 4); // a[2..6]
        m.output("y", field);
        strength_reduce(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        // Reduced to a single narrower slice of `a`.
        assert_eq!(count(&m, |n| matches!(n, Node::Concat(..))), 0);
        match m.node(m.outputs()[0].node).node {
            Node::Slice { src, lo } => {
                assert_eq!(src, a);
                assert_eq!(lo, 2);
            }
            ref other => panic!("expected slice of a, got {other:?}"),
        }
    }

    #[test]
    fn slice_chains_collapse() {
        let mut m = Module::new("t");
        let a = m.input("a", 32);
        let s1 = m.slice(a, 8, 16);
        let s2 = m.slice(s1, 4, 8);
        let s3 = m.slice(s2, 2, 4); // == a[14..18]
        m.output("y", s3);
        strength_reduce(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(count(&m, |n| matches!(n, Node::Slice { .. })), 1);
        match m.node(m.outputs()[0].node).node {
            Node::Slice { src, lo } => {
                assert_eq!(src, a);
                assert_eq!(lo, 14);
            }
            ref other => panic!("expected collapsed slice, got {other:?}"),
        }
    }

    #[test]
    fn adjacent_slices_reconcatenate() {
        let mut m = Module::new("t");
        let a = m.input("a", 24);
        let hi = m.slice(a, 12, 8); // a[12..20]
        let lo = m.slice(a, 4, 8); // a[4..12]
        let cat = m.concat(hi, lo); // == a[4..20]
        m.output("y", cat);
        strength_reduce(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(count(&m, |n| matches!(n, Node::Concat(..))), 0);
        match m.node(m.outputs()[0].node).node {
            Node::Slice { src, lo } => {
                assert_eq!(src, a);
                assert_eq!(lo, 4);
            }
            ref other => panic!("expected merged slice, got {other:?}"),
        }
    }

    #[test]
    fn slice_in_zext_padding_is_zero() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let z = m.zext(a, 32);
        let pad = m.slice(z, 16, 8); // entirely zero padding
        let low = m.slice(z, 0, 8); // == a
        m.output("pad", pad);
        m.output("low", low);
        strength_reduce(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        assert!(matches!(
            m.node(m.outputs()[0].node).node,
            Node::Const(ref v) if v.is_zero()
        ));
        assert_eq!(m.outputs()[1].node, a);
    }

    #[test]
    fn extension_chains_collapse() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let z1 = m.zext(a, 16);
        let z2 = m.zext(z1, 32);
        let s1 = m.sext(a, 12);
        let s2 = m.sext(s1, 24);
        m.output("z", z2);
        m.output("s", s2);
        strength_reduce(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        assert_eq!(count(&m, |n| matches!(n, Node::ZExt(_))), 1);
        assert_eq!(count(&m, |n| matches!(n, Node::SExt(_))), 1);
    }

    #[test]
    fn straddling_slices_are_left_alone() {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let cat = m.concat(a, b);
        let seam = m.slice(cat, 4, 8); // spans both halves
        m.output("y", seam);
        let before: Vec<_> = m.nodes().iter().map(|nd| nd.node.clone()).collect();
        strength_reduce(&mut m);
        let after: Vec<_> = m.nodes().iter().map(|nd| nd.node.clone()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn fires_across_cse_boundaries() {
        // Pack-then-unpack through shared logic, as the AXI adapters do.
        let mut m = Module::new("t");
        let elems: Vec<_> = (0..4).map(|i| m.input(format!("e{i}"), 12)).collect();
        let mut word = elems[0];
        for &e in &elems[1..] {
            word = m.concat(e, word);
        }
        let back: Vec<_> = (0..4).map(|i| m.slice(word, i * 12, 12)).collect();
        let mut acc = back[0];
        for &b in &back[1..] {
            acc = m.binary(BinaryOp::Add, acc, b, 12);
        }
        m.output("y", acc);
        let before = m.nodes().len();
        // The pipeline shape: strength reduction enables DCE to drop the
        // whole pack/unpack ladder.
        strength_reduce(&mut m);
        strength_reduce(&mut m);
        cse(&mut m);
        dce(&mut m);
        m.validate().unwrap();
        assert!(
            m.nodes().len() < before,
            "{} -> {}",
            before,
            m.nodes().len()
        );
        assert_eq!(count(&m, |n| matches!(n, Node::Concat(..))), 0);
    }
}
