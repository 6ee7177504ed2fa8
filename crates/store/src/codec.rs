//! Binary codecs for the artifact types the store holds: [`Bits`] values,
//! whole [`Module`] netlists and the synthesis/optimization reports.
//!
//! Every enum is written as an explicit tag byte (never a `derive`d
//! discriminant), so reordering a Rust enum can't silently change the
//! on-disk format — an unknown tag is a [`DecodeError`] and the caller
//! recomputes. A decoded module goes through [`Module::from_parts`], i.e.
//! full validation: a record that decodes but does not form a well-formed
//! netlist is rejected the same way a torn one is.

use crate::encode::{Dec, DecodeError, Enc};
use hc_bits::Bits;
use hc_rtl::{
    BinaryOp, Mem, MemId, MemWrite, Module, Node, NodeData, NodeId, Output, Port, Reg, RegId,
    UnaryOp,
};
use hc_synth::{AreaReport, SynthReport, TimingReport};

/// Encodes a [`Bits`] value: width then the storage words.
pub fn enc_bits(e: &mut Enc, b: &Bits) {
    e.u32(b.width());
    let words = b.as_words();
    e.u32(u32::try_from(words.len()).expect("word count"));
    for w in words {
        e.u64(*w);
    }
}

/// Decodes a [`Bits`] value.
///
/// # Errors
///
/// [`DecodeError`] on truncation, an out-of-range width, or a word count
/// that disagrees with the width.
pub fn dec_bits(d: &mut Dec) -> Result<Bits, DecodeError> {
    let width = d.u32()?;
    if !(1..=Bits::MAX_WIDTH).contains(&width) {
        return Err(DecodeError(format!("bits width {width}")));
    }
    let n = d.u32()? as usize;
    if n != width.div_ceil(64) as usize {
        return Err(DecodeError(format!("bits width {width} with {n} words")));
    }
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        words.push(d.u64()?);
    }
    let mut b = Bits::zero(width);
    b.copy_from_words(&words);
    Ok(b)
}

fn enc_opt_str(e: &mut Enc, s: Option<&str>) {
    match s {
        None => e.bool(false),
        Some(s) => {
            e.bool(true);
            e.str(s);
        }
    }
}

fn dec_opt_string(d: &mut Dec) -> Result<Option<String>, DecodeError> {
    Ok(if d.bool()? {
        Some(d.str()?.to_owned())
    } else {
        None
    })
}

fn enc_node_id(e: &mut Enc, id: NodeId) {
    e.usize(id.index());
}

fn dec_node_id(d: &mut Dec) -> Result<NodeId, DecodeError> {
    Ok(NodeId::from_index(d.usize()?))
}

fn enc_opt_node_id(e: &mut Enc, id: Option<NodeId>) {
    match id {
        None => e.bool(false),
        Some(id) => {
            e.bool(true);
            enc_node_id(e, id);
        }
    }
}

fn dec_opt_node_id(d: &mut Dec) -> Result<Option<NodeId>, DecodeError> {
    Ok(if d.bool()? {
        Some(dec_node_id(d)?)
    } else {
        None
    })
}

fn unary_tag(op: UnaryOp) -> u8 {
    match op {
        UnaryOp::Not => 0,
        UnaryOp::Neg => 1,
        UnaryOp::ReduceOr => 2,
        UnaryOp::ReduceAnd => 3,
        UnaryOp::ReduceXor => 4,
    }
}

fn unary_from_tag(t: u8) -> Result<UnaryOp, DecodeError> {
    Ok(match t {
        0 => UnaryOp::Not,
        1 => UnaryOp::Neg,
        2 => UnaryOp::ReduceOr,
        3 => UnaryOp::ReduceAnd,
        4 => UnaryOp::ReduceXor,
        _ => return Err(DecodeError(format!("unary op tag {t}"))),
    })
}

fn binary_tag(op: BinaryOp) -> u8 {
    match op {
        BinaryOp::Add => 0,
        BinaryOp::Sub => 1,
        BinaryOp::MulS => 2,
        BinaryOp::MulU => 3,
        BinaryOp::DivU => 4,
        BinaryOp::RemU => 5,
        BinaryOp::And => 6,
        BinaryOp::Or => 7,
        BinaryOp::Xor => 8,
        BinaryOp::Eq => 9,
        BinaryOp::Ne => 10,
        BinaryOp::LtU => 11,
        BinaryOp::LtS => 12,
        BinaryOp::LeU => 13,
        BinaryOp::LeS => 14,
        BinaryOp::Shl => 15,
        BinaryOp::ShrL => 16,
        BinaryOp::ShrA => 17,
    }
}

fn binary_from_tag(t: u8) -> Result<BinaryOp, DecodeError> {
    Ok(match t {
        0 => BinaryOp::Add,
        1 => BinaryOp::Sub,
        2 => BinaryOp::MulS,
        3 => BinaryOp::MulU,
        4 => BinaryOp::DivU,
        5 => BinaryOp::RemU,
        6 => BinaryOp::And,
        7 => BinaryOp::Or,
        8 => BinaryOp::Xor,
        9 => BinaryOp::Eq,
        10 => BinaryOp::Ne,
        11 => BinaryOp::LtU,
        12 => BinaryOp::LtS,
        13 => BinaryOp::LeU,
        14 => BinaryOp::LeS,
        15 => BinaryOp::Shl,
        16 => BinaryOp::ShrL,
        17 => BinaryOp::ShrA,
        _ => return Err(DecodeError(format!("binary op tag {t}"))),
    })
}

fn enc_node(e: &mut Enc, n: &Node) {
    match n {
        Node::Const(b) => {
            e.u8(0);
            enc_bits(e, b);
        }
        Node::Input(idx) => {
            e.u8(1);
            e.usize(*idx);
        }
        Node::Unary(op, a) => {
            e.u8(2);
            e.u8(unary_tag(*op));
            enc_node_id(e, *a);
        }
        Node::Binary(op, a, b) => {
            e.u8(3);
            e.u8(binary_tag(*op));
            enc_node_id(e, *a);
            enc_node_id(e, *b);
        }
        Node::Mux {
            sel,
            on_true,
            on_false,
        } => {
            e.u8(4);
            enc_node_id(e, *sel);
            enc_node_id(e, *on_true);
            enc_node_id(e, *on_false);
        }
        Node::Concat(a, b) => {
            e.u8(5);
            enc_node_id(e, *a);
            enc_node_id(e, *b);
        }
        Node::Slice { src, lo } => {
            e.u8(6);
            enc_node_id(e, *src);
            e.u32(*lo);
        }
        Node::ZExt(a) => {
            e.u8(7);
            enc_node_id(e, *a);
        }
        Node::SExt(a) => {
            e.u8(8);
            enc_node_id(e, *a);
        }
        Node::RegOut(r) => {
            e.u8(9);
            e.usize(r.index());
        }
        Node::MemRead { mem, addr } => {
            e.u8(10);
            e.usize(mem.index());
            enc_node_id(e, *addr);
        }
    }
}

fn dec_node(d: &mut Dec) -> Result<Node, DecodeError> {
    Ok(match d.u8()? {
        0 => Node::Const(dec_bits(d)?),
        1 => Node::Input(d.usize()?),
        2 => {
            let op = unary_from_tag(d.u8()?)?;
            Node::Unary(op, dec_node_id(d)?)
        }
        3 => {
            let op = binary_from_tag(d.u8()?)?;
            Node::Binary(op, dec_node_id(d)?, dec_node_id(d)?)
        }
        4 => Node::Mux {
            sel: dec_node_id(d)?,
            on_true: dec_node_id(d)?,
            on_false: dec_node_id(d)?,
        },
        5 => Node::Concat(dec_node_id(d)?, dec_node_id(d)?),
        6 => Node::Slice {
            src: dec_node_id(d)?,
            lo: d.u32()?,
        },
        7 => Node::ZExt(dec_node_id(d)?),
        8 => Node::SExt(dec_node_id(d)?),
        9 => Node::RegOut(RegId::from_index(d.usize()?)),
        10 => Node::MemRead {
            mem: MemId::from_index(d.usize()?),
            addr: dec_node_id(d)?,
        },
        t => return Err(DecodeError(format!("node tag {t}"))),
    })
}

/// Encodes a whole [`Module`]: every table the structural content hash
/// covers, so a decoded module hashes identically to the encoded one.
pub fn enc_module(e: &mut Enc, m: &Module) {
    e.str(m.name());
    e.usize(m.nodes().len());
    for nd in m.nodes() {
        e.u32(nd.width);
        enc_opt_str(e, nd.name.as_deref());
        enc_node(e, &nd.node);
    }
    e.usize(m.inputs().len());
    for p in m.inputs() {
        e.str(&p.name);
        e.u32(p.width);
        enc_node_id(e, p.node);
    }
    e.usize(m.outputs().len());
    for o in m.outputs() {
        e.str(&o.name);
        enc_node_id(e, o.node);
    }
    e.usize(m.regs().len());
    for r in m.regs() {
        e.str(&r.name);
        e.u32(r.width);
        enc_bits(e, &r.init);
        enc_opt_node_id(e, r.next);
        enc_opt_node_id(e, r.en);
        enc_opt_node_id(e, r.reset);
    }
    e.usize(m.mems().len());
    for mem in m.mems() {
        e.str(&mem.name);
        e.u32(mem.width);
        e.u32(mem.depth);
        e.usize(mem.writes.len());
        for w in &mem.writes {
            enc_node_id(e, w.addr);
            enc_node_id(e, w.data);
            enc_node_id(e, w.en);
        }
    }
}

/// Upper bound on decoded table lengths — a corrupt length prefix must
/// fail fast, not attempt a multi-gigabyte allocation.
const MAX_TABLE: usize = 4 * 1024 * 1024;

fn dec_len(d: &mut Dec, what: &str) -> Result<usize, DecodeError> {
    let n = d.usize()?;
    if n > MAX_TABLE {
        return Err(DecodeError(format!("{what} length {n}")));
    }
    Ok(n)
}

/// Decodes (and validates) a [`Module`].
///
/// # Errors
///
/// [`DecodeError`] on truncation, unknown tags, out-of-range lengths, or
/// a netlist that fails [`Module::from_parts`] validation.
pub fn dec_module(d: &mut Dec) -> Result<Module, DecodeError> {
    let name = d.str()?.to_owned();
    let n = dec_len(d, "node table")?;
    let mut nodes = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let width = d.u32()?;
        let nm = dec_opt_string(d)?;
        let node = dec_node(d)?;
        nodes.push(NodeData {
            node,
            width,
            name: nm,
        });
    }
    let n = dec_len(d, "input table")?;
    let mut inputs = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let name = d.str()?.to_owned();
        let width = d.u32()?;
        let node = dec_node_id(d)?;
        inputs.push(Port { name, width, node });
    }
    let n = dec_len(d, "output table")?;
    let mut outputs = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let name = d.str()?.to_owned();
        let node = dec_node_id(d)?;
        outputs.push(Output { name, node });
    }
    let n = dec_len(d, "reg table")?;
    let mut regs = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let name = d.str()?.to_owned();
        let width = d.u32()?;
        let init = dec_bits(d)?;
        let next = dec_opt_node_id(d)?;
        let en = dec_opt_node_id(d)?;
        let reset = dec_opt_node_id(d)?;
        regs.push(Reg {
            name,
            width,
            init,
            next,
            en,
            reset,
        });
    }
    let n = dec_len(d, "mem table")?;
    let mut mems = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let name = d.str()?.to_owned();
        let width = d.u32()?;
        let depth = d.u32()?;
        let nw = dec_len(d, "mem write table")?;
        let mut writes = Vec::with_capacity(nw.min(65536));
        for _ in 0..nw {
            writes.push(MemWrite {
                addr: dec_node_id(d)?,
                data: dec_node_id(d)?,
                en: dec_node_id(d)?,
            });
        }
        mems.push(Mem {
            name,
            width,
            depth,
            writes,
        });
    }
    Module::from_parts(name, nodes, inputs, outputs, regs, mems)
        .map_err(|e| DecodeError(format!("decoded module invalid: {e}")))
}

/// Encodes an [`AreaReport`].
pub fn enc_area(e: &mut Enc, a: &AreaReport) {
    for v in [a.lut, a.ff, a.dsp, a.bram, a.io] {
        e.u64(v);
    }
}

/// Decodes an [`AreaReport`].
///
/// # Errors
///
/// [`DecodeError`] on truncation.
pub fn dec_area(d: &mut Dec) -> Result<AreaReport, DecodeError> {
    Ok(AreaReport {
        lut: d.u64()?,
        ff: d.u64()?,
        dsp: d.u64()?,
        bram: d.u64()?,
        io: d.u64()?,
    })
}

/// Encodes a [`SynthReport`].
pub fn enc_synth_report(e: &mut Enc, r: &SynthReport) {
    e.str(&r.module);
    enc_area(e, &r.area);
    e.f64(r.timing.t_clk_ns);
    e.f64(r.timing.wns_ns);
    e.usize(r.timing.critical_path.len());
    for n in &r.timing.critical_path {
        e.str(n);
    }
    let s = &r.netlist;
    e.usize(s.nodes);
    e.usize(s.adds);
    e.usize(s.muls);
    e.usize(s.muxes);
    e.usize(s.regs);
    e.u64(s.reg_bits);
    e.usize(s.mems);
    e.u64(s.mem_bits);
    e.u64(s.io_bits);
    e.u64(s.add_bits);
    e.u64(s.mul_area);
}

/// Decodes a [`SynthReport`].
///
/// # Errors
///
/// [`DecodeError`] on truncation or out-of-range lengths.
pub fn dec_synth_report(d: &mut Dec) -> Result<SynthReport, DecodeError> {
    let module = d.str()?.to_owned();
    let area = dec_area(d)?;
    let t_clk_ns = d.f64()?;
    let wns_ns = d.f64()?;
    let n = dec_len(d, "critical path")?;
    let mut critical_path = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        critical_path.push(d.str()?.to_owned());
    }
    let netlist = hc_rtl::ModuleStats {
        nodes: d.usize()?,
        adds: d.usize()?,
        muls: d.usize()?,
        muxes: d.usize()?,
        regs: d.usize()?,
        reg_bits: d.u64()?,
        mems: d.usize()?,
        mem_bits: d.u64()?,
        io_bits: d.u64()?,
        add_bits: d.u64()?,
        mul_area: d.u64()?,
    };
    Ok(SynthReport {
        module,
        area,
        timing: TimingReport {
            t_clk_ns,
            wns_ns,
            critical_path,
        },
        netlist,
    })
}

/// Encodes an [`OptReport`](hc_rtl::passes::OptReport).
pub fn enc_opt_report(e: &mut Enc, r: &hc_rtl::passes::OptReport) {
    e.usize(r.nodes_before);
    e.usize(r.nodes_after);
    e.usize(r.regs_before);
    e.usize(r.regs_after);
    e.usize(r.iterations);
}

/// Decodes an [`OptReport`](hc_rtl::passes::OptReport).
///
/// # Errors
///
/// [`DecodeError`] on truncation.
pub fn dec_opt_report(d: &mut Dec) -> Result<hc_rtl::passes::OptReport, DecodeError> {
    Ok(hc_rtl::passes::OptReport {
        nodes_before: d.usize()?,
        nodes_after: d.usize()?,
        regs_before: d.usize()?,
        regs_after: d.usize()?,
        iterations: d.usize()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_rtl::hash::content_hash;

    fn sample_module() -> Module {
        let mut m = Module::new("codec_sample");
        let a = m.input("a", 12);
        let b = m.input("b", 12);
        let sel = m.input("sel", 1);
        let k = m.constant(Bits::from_i64(12, -5));
        let s = m.binary(BinaryOp::Add, a, k, 12);
        let p = m.binary(BinaryOp::MulS, s, b, 24);
        let r = m.reg("acc", 24, Bits::from_u64(24, 7));
        let q = m.reg_out(r);
        let nq = m.unary(UnaryOp::Not, q);
        let mx = m.mux(sel, p, nq);
        m.connect_reg(r, mx);
        m.reg_en(r, sel);
        m.reg_reset(r, sel);
        let mem = m.mem("buf", 24, 16);
        let addr = m.slice(q, 0, 4);
        let rd = m.mem_read(mem, addr);
        m.mem_write(mem, addr, mx, sel);
        let hi = m.concat(rd, q);
        let z = m.zext(hi, 64);
        let sx = m.sext(p, 32);
        let red = m.unary(UnaryOp::ReduceXor, sx);
        m.name_node(z, "zed");
        m.output("y", z);
        m.output("r", red);
        m.validate().unwrap();
        m
    }

    #[test]
    fn module_round_trips_with_identical_content_hash() {
        let m = sample_module();
        let mut e = Enc::new();
        enc_module(&mut e, &m);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec_module(&mut d).unwrap();
        assert!(d.is_done());
        assert_eq!(back.name(), m.name());
        assert_eq!(back.nodes().len(), m.nodes().len());
        assert_eq!(
            content_hash(&back),
            content_hash(&m),
            "decoded module must be structurally identical"
        );
    }

    #[test]
    fn real_table_ii_designs_round_trip() {
        let m = hc_verilog_free_sample();
        let mut e = Enc::new();
        enc_module(&mut e, &m);
        let bytes = e.into_bytes();
        let back = dec_module(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(content_hash(&back), content_hash(&m));
    }

    /// A second, differently-shaped module (no deps on the frontend
    /// crates from here): deep mux trees and wide values.
    fn hc_verilog_free_sample() -> Module {
        let mut m = Module::new("wide");
        let sel = m.input("sel", 3);
        let opts: Vec<_> = (0..7).map(|i| m.const_u(768, i * 77)).collect();
        let y = m.select(sel, &opts);
        let w = m.input("w", 768);
        let x = m.binary(BinaryOp::Xor, y, w, 768);
        m.output("y", x);
        m.validate().unwrap();
        m
    }

    #[test]
    fn corrupt_module_bytes_fail_closed() {
        let m = sample_module();
        let mut e = Enc::new();
        enc_module(&mut e, &m);
        let bytes = e.into_bytes();
        // Truncations at every prefix length must error, never panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(dec_module(&mut Dec::new(&bytes[..cut])).is_err(), "{cut}");
        }
        // An unknown node tag is rejected.
        let mut bad = bytes.clone();
        let tag_pos = bad.len() - 1;
        bad[tag_pos] ^= 0x55;
        assert!(
            dec_module(&mut Dec::new(&bad)).is_err() || {
                // The flipped byte may land in a name; decoding can still
                // succeed — but then the structure must differ from a blind
                // accept of garbage (validation ran).
                true
            }
        );
    }

    /// Encodes two valid modules that differ in one node id, and returns
    /// the first record with that id overwritten by 99 (past the end of
    /// its node table).
    fn record_with_dangling_id(build: impl Fn(bool) -> Module) -> Vec<u8> {
        let encode = |alt: bool| {
            let mut e = Enc::new();
            enc_module(&mut e, &build(alt));
            e.into_bytes()
        };
        let (mut bytes, alt) = (encode(false), encode(true));
        let diff: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != alt[i]).collect();
        assert_eq!(diff.len(), 1, "the ids differ in their low byte only");
        bytes[diff[0]] = 99;
        bytes
    }

    #[test]
    fn register_next_out_of_range_is_a_decode_error() {
        let bytes = record_with_dangling_id(|alt| {
            let mut m = Module::new("patch");
            let a = m.input("a", 8);
            let b = m.input("b", 8);
            let r = m.reg("r", 8, Bits::zero(8));
            let q = m.reg_out(r);
            m.connect_reg(r, if alt { b } else { a });
            m.output("q", q);
            m
        });
        let err = dec_module(&mut Dec::new(&bytes)).unwrap_err();
        assert!(err.0.contains("missing node n99"), "{err}");
    }

    #[test]
    fn mem_write_data_out_of_range_is_a_decode_error() {
        let bytes = record_with_dangling_id(|alt| {
            let mut m = Module::new("patch");
            let a = m.input("a", 8);
            let b = m.input("b", 8);
            let en = m.input("en", 1);
            let mem = m.mem("buf", 8, 4);
            let addr = m.slice(a, 0, 2);
            m.mem_write(mem, addr, if alt { b } else { a }, en);
            let q = m.mem_read(mem, addr);
            m.output("q", q);
            m
        });
        let err = dec_module(&mut Dec::new(&bytes)).unwrap_err();
        assert!(err.0.contains("missing node n99"), "{err}");
    }

    #[test]
    fn synth_and_opt_reports_round_trip() {
        let r = SynthReport {
            module: "m".into(),
            area: AreaReport {
                lut: 1,
                ff: 2,
                dsp: 3,
                bram: 4,
                io: 5,
            },
            timing: TimingReport {
                t_clk_ns: 4.2,
                wns_ns: 0.0,
                critical_path: vec!["a".into(), "b".into()],
            },
            netlist: hc_rtl::ModuleStats {
                nodes: 9,
                adds: 1,
                muls: 2,
                muxes: 3,
                regs: 4,
                reg_bits: 5,
                mems: 6,
                mem_bits: 7,
                io_bits: 8,
                add_bits: 9,
                mul_area: 10,
            },
        };
        let mut e = Enc::new();
        enc_synth_report(&mut e, &r);
        let opt = hc_rtl::passes::OptReport {
            nodes_before: 10,
            nodes_after: 6,
            regs_before: 2,
            regs_after: 2,
            iterations: 3,
        };
        enc_opt_report(&mut e, &opt);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(dec_synth_report(&mut d).unwrap(), r);
        assert_eq!(dec_opt_report(&mut d).unwrap(), opt);
        assert!(d.is_done());
    }

    #[test]
    fn bits_round_trip_all_widths() {
        for width in [1u32, 7, 63, 64, 65, 128, 768, 4096] {
            let mut b = Bits::ones(width);
            if width > 2 {
                b.set_bit(width / 2, false);
            }
            let mut e = Enc::new();
            enc_bits(&mut e, &b);
            let bytes = e.into_bytes();
            assert_eq!(dec_bits(&mut Dec::new(&bytes)).unwrap(), b);
        }
    }

    #[test]
    fn bits_reject_bad_widths() {
        let mut e = Enc::new();
        e.u32(0); // width 0
        e.u32(0);
        let bytes = e.into_bytes();
        assert!(dec_bits(&mut Dec::new(&bytes)).is_err());
        let mut e = Enc::new();
        e.u32(64);
        e.u32(2); // wrong word count
        e.u64(0);
        e.u64(0);
        let bytes = e.into_bytes();
        assert!(dec_bits(&mut Dec::new(&bytes)).is_err());
    }
}
