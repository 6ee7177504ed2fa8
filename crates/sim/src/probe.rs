//! Backend-independent signal probes with VCD recording.
//!
//! [`ProbeRecorder`] names signals the way a testbench does — by port and
//! register *name*, resolved through the [`SimBackend`] trait — rather
//! than by [`NodeId`](hc_rtl::NodeId). Node identities are rewritten by
//! the IR pass pipeline and compiled tape slots are reshuffled by the tape
//! backend optimizer, but port and register names survive both; a probe
//! set therefore observes identical values on a raw netlist in the
//! interpreter and on its optimized tape, which is exactly the invariant
//! the differential probe tests pin down. Compare with [`VcdWriter`](crate::VcdWriter), which traces raw
//! interpreter nodes (including optimized-away internals) and is tied to
//! the interpreting engine.

use std::io::{self, Write};

use hc_bits::Bits;

use crate::vcd::ident;
use crate::SimBackend;

/// What kind of named signal a probe reads, determining which backend
/// accessor resolves it each sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SignalKind {
    /// An input port, read back via [`SimBackend::input_value`].
    Input,
    /// An output port, read (settling first) via [`SimBackend::get`].
    Output,
    /// A register, read via [`SimBackend::peek_reg`].
    Reg,
}

/// Records named signals of any [`SimBackend`] into a VCD stream.
///
/// # Examples
///
/// ```
/// use hc_rtl::Module;
/// use hc_sim::{CompiledSimulator, ProbeRecorder, SimBackend};
///
/// let mut m = Module::new("t");
/// let a = m.input("a", 4);
/// m.output("y", a);
/// let mut sim = CompiledSimulator::new(m)?;
/// let mut buf = Vec::new();
/// let mut probe = ProbeRecorder::ports(&sim, &mut buf)?;
/// sim.set_u64("a", 3);
/// probe.sample(&mut sim)?;
/// sim.step();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ProbeRecorder<W: Write> {
    out: W,
    signals: Vec<(String, SignalKind, u32)>,
    last: Vec<Option<Bits>>,
    time: u64,
}

impl<W: Write> ProbeRecorder<W> {
    /// Creates a recorder probing all input and output ports.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the VCD header.
    pub fn ports<S: SimBackend>(sim: &S, out: W) -> io::Result<Self> {
        let names: Vec<String> = sim
            .module()
            .inputs()
            .iter()
            .map(|p| p.name.clone())
            .chain(sim.module().outputs().iter().map(|o| o.name.clone()))
            .collect();
        Self::with_signals(sim, out, &names)
    }

    /// Creates a recorder probing the given signal names. Each name is
    /// resolved against the module's inputs, then outputs, then registers
    /// (first match wins).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::NotFound`] if a name matches no signal;
    /// otherwise propagates I/O errors from writing the VCD header.
    pub fn with_signals<S: SimBackend>(sim: &S, mut out: W, names: &[String]) -> io::Result<Self> {
        let m = sim.module();
        let mut signals: Vec<(String, SignalKind, u32)> = Vec::with_capacity(names.len());
        for name in names {
            let sig = if let Some(p) = m.inputs().iter().find(|p| &p.name == name) {
                (p.name.clone(), SignalKind::Input, p.width)
            } else if let Some(o) = m.outputs().iter().find(|o| &o.name == name) {
                (o.name.clone(), SignalKind::Output, m.width(o.node))
            } else if let Some(r) = m.regs().iter().find(|r| &r.name == name) {
                (r.name.clone(), SignalKind::Reg, r.width)
            } else {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no signal named `{name}` in module `{}`", m.name()),
                ));
            };
            signals.push(sig);
        }
        writeln!(out, "$timescale 1ns $end")?;
        writeln!(out, "$scope module {} $end", m.name())?;
        for (i, (name, _, width)) in signals.iter().enumerate() {
            writeln!(out, "$var wire {width} {} {name} $end", ident(i))?;
        }
        writeln!(out, "$upscope $end")?;
        writeln!(out, "$enddefinitions $end")?;
        let last = vec![None; signals.len()];
        Ok(ProbeRecorder {
            out,
            signals,
            last,
            time: 0,
        })
    }

    /// Samples the probed signals, emitting changed values at the next
    /// timestamp. Reading an output settles combinational logic first.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn sample<S: SimBackend>(&mut self, sim: &mut S) -> io::Result<()> {
        let mut wrote_time = false;
        for (i, (name, kind, _)) in self.signals.iter().enumerate() {
            let v = match kind {
                SignalKind::Input => sim.input_value(name),
                SignalKind::Output => sim.get(name),
                SignalKind::Reg => sim.peek_reg(name),
            };
            if self.last[i].as_ref() == Some(&v) {
                continue;
            }
            if !wrote_time {
                writeln!(self.out, "#{}", self.time)?;
                wrote_time = true;
            }
            writeln!(self.out, "b{v:b} {}", ident(i))?;
            self.last[i] = Some(v);
        }
        self.time += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledSimulator, Simulator};
    use hc_rtl::{BinaryOp, Module};

    fn adder() -> Module {
        let mut m = Module::new("t");
        let a = m.input("a", 4);
        let one = m.const_u(4, 1);
        let y = m.binary(BinaryOp::Add, a, one, 4);
        m.output("y", y);
        let r = m.reg("acc", 4, hc_bits::Bits::zero(4));
        let q = m.reg_out(r);
        let next = m.binary(BinaryOp::Add, q, a, 4);
        m.connect_reg(r, next);
        m.output("acc", q);
        m
    }

    #[test]
    fn unknown_signal_is_not_found() {
        let sim = Simulator::new(adder()).unwrap();
        let err = ProbeRecorder::with_signals(&sim, Vec::new(), &["nope".to_string()])
            .expect_err("must reject unknown names");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn identical_streams_across_backends() {
        let names = vec!["a".to_string(), "y".to_string(), "acc".to_string()];
        let mut dumps = Vec::new();
        for compiled in [false, true] {
            let mut buf = Vec::new();
            if compiled {
                let mut sim = CompiledSimulator::new(adder()).unwrap();
                let mut probe = ProbeRecorder::with_signals(&sim, &mut buf, &names).unwrap();
                for v in [1u64, 2, 2, 7] {
                    sim.set_u64("a", v);
                    probe.sample(&mut sim).unwrap();
                    sim.step();
                }
            } else {
                let mut sim = Simulator::new(adder()).unwrap();
                let mut probe = ProbeRecorder::with_signals(&sim, &mut buf, &names).unwrap();
                for v in [1u64, 2, 2, 7] {
                    sim.set_u64("a", v);
                    probe.sample(&mut sim).unwrap();
                    sim.step();
                }
            }
            dumps.push(buf);
        }
        assert_eq!(dumps[0], dumps[1], "interpreter and compiled VCD differ");
        let text = String::from_utf8(dumps[0].clone()).unwrap();
        assert!(text.contains("$var wire 4 ! a $end"), "{text}");
        assert!(text.contains("#0"), "{text}");
    }
}
