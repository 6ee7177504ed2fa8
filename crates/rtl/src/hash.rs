//! Deterministic structural hashing of modules.
//!
//! [`content_hash`] digests everything that affects a module's behaviour and
//! reports — node sea, ports, registers, memories, names — into a 128-bit
//! value. `hc-core` keys its elaborate/optimize/synthesize memo cache on it,
//! so sweep points whose modules are structurally identical (they differ
//! only in stimulus or sweep parameter) share one front-half computation.
//!
//! The digest is two independent FNV-1a streams over the same byte
//! sequence, which keeps collisions across a sweep's worth of modules
//! (dozens, not billions) out of the picture without pulling in a crypto
//! dependency. It is stable within a process — exactly the lifetime of the
//! in-memory cache it keys — and makes no cross-version promises.

use crate::Module;
use std::hash::{Hash, Hasher};

/// 128-bit structural content hash of a module.
///
/// Two modules with equal structure (same nodes in the same order, same
/// ports, registers, memories and names) hash equal; any behavioural
/// difference — an operand, a width, a reset value, a write port — changes
/// the hash.
pub fn content_hash(module: &Module) -> u128 {
    let mut h = Fnv1aPair {
        lo: 0xcbf2_9ce4_8422_2325,
        hi: 0x6c62_272e_07bb_0142,
    };
    module.name().hash(&mut h);
    module.nodes().len().hash(&mut h);
    for nd in module.nodes() {
        nd.node.hash(&mut h);
        nd.width.hash(&mut h);
        nd.name.hash(&mut h);
    }
    module.inputs().len().hash(&mut h);
    for p in module.inputs() {
        p.name.hash(&mut h);
        p.width.hash(&mut h);
        p.node.hash(&mut h);
    }
    module.outputs().len().hash(&mut h);
    for o in module.outputs() {
        o.name.hash(&mut h);
        o.node.hash(&mut h);
    }
    module.regs().len().hash(&mut h);
    for r in module.regs() {
        r.name.hash(&mut h);
        r.width.hash(&mut h);
        r.init.hash(&mut h);
        r.next.hash(&mut h);
        r.en.hash(&mut h);
        r.reset.hash(&mut h);
    }
    module.mems().len().hash(&mut h);
    for m in module.mems() {
        m.name.hash(&mut h);
        m.width.hash(&mut h);
        m.depth.hash(&mut h);
        m.writes.len().hash(&mut h);
        for w in &m.writes {
            w.addr.hash(&mut h);
            w.data.hash(&mut h);
            w.en.hash(&mut h);
        }
    }
    (u128::from(h.hi) << 64) | u128::from(h.lo)
}

/// Two byte-oriented FNV-1a streams with different offset bases, fed the
/// same bytes in one walk. Unlike `DefaultHasher` it has no per-process
/// random seed, so hashes are reproducible run to run.
struct Fnv1aPair {
    lo: u64,
    hi: u64,
}

impl Hasher for Fnv1aPair {
    fn finish(&self) -> u64 {
        self.lo
    }

    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x100_0000_01b3;
        for &b in bytes {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(PRIME);
            self.hi = (self.hi ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryOp;
    use hc_bits::Bits;

    fn adder() -> Module {
        let mut m = Module::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let s = m.binary(BinaryOp::Add, a, b, 8);
        m.output("y", s);
        m
    }

    #[test]
    fn equal_structure_hashes_equal() {
        assert_eq!(content_hash(&adder()), content_hash(&adder()));
    }

    #[test]
    fn clone_hashes_equal() {
        let m = adder();
        assert_eq!(content_hash(&m), content_hash(&m.clone()));
    }

    #[test]
    fn structural_changes_change_the_hash() {
        let base = content_hash(&adder());

        let mut op = Module::new("t");
        let a = op.input("a", 8);
        let b = op.input("b", 8);
        let s = op.binary(BinaryOp::Sub, a, b, 8);
        op.output("y", s);
        assert_ne!(content_hash(&op), base);

        let mut regged = adder();
        let r = regged.reg("r", 8, Bits::zero(8));
        let q = regged.reg_out(r);
        regged.connect_reg(r, q);
        assert_ne!(content_hash(&regged), base);

        let mut renamed = Module::new("u");
        let a = renamed.input("a", 8);
        let b = renamed.input("b", 8);
        let s = renamed.binary(BinaryOp::Add, a, b, 8);
        renamed.output("y", s);
        assert_ne!(content_hash(&renamed), base);
    }

    /// Registers with enable and reset, a memory, names and mixed widths.
    fn stateful() -> Module {
        let mut m = Module::new("stateful");
        let x = m.input("x", 12);
        let en = m.input("en", 1);
        let r = m.reg("acc", 24, Bits::from_i64(24, -3));
        let q = m.reg_out(r);
        let wide = m.sext(x, 24);
        let sum = m.binary(BinaryOp::Add, q, wide, 24);
        m.connect_reg(r, sum);
        m.reg_en(r, en);
        m.reg_reset(r, en);
        let mem = m.mem("buf", 12, 16);
        let addr = m.slice(q, 0, 4);
        m.mem_write(mem, addr, x, en);
        let rd = m.mem_read(mem, addr);
        let pair = m.concat(rd, x);
        m.name_node(pair, "pair");
        m.output("y", pair);
        m.output("acc", q);
        m
    }

    /// Multi-word constants behind a select tree.
    fn wide_consts() -> Module {
        let mut m = Module::new("wide");
        let sel = m.input("sel", 2);
        let options: Vec<_> = (1..=3u64)
            .map(|i| {
                let mut v = Bits::zero(768);
                v.deposit_u64(700, 64, 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(i));
                v.deposit_u64(3, 64, i);
                m.constant(v)
            })
            .collect();
        let y = m.select(sel, &options);
        m.output("y", y);
        m
    }

    /// The persistent store keys records by these values, so they must not
    /// drift between versions (recorded on a 64-bit host, where `usize`
    /// lengths hash as eight bytes).
    #[test]
    fn hash_values_are_pinned() {
        assert_eq!(
            content_hash(&adder()),
            0xd2c0_1db3_34aa_19f3_d713_36ff_5e4b_2a84
        );
        assert_eq!(
            content_hash(&stateful()),
            0x316b_1f95_a629_007a_97fd_14d5_09df_008d
        );
        assert_eq!(
            content_hash(&wide_consts()),
            0x4e24_ea18_4261_464d_8a23_6b51_4b30_9fd8
        );
    }

    #[test]
    fn halves_are_independent() {
        let h = content_hash(&adder());
        assert_ne!((h >> 64) as u64, h as u64);
    }
}
