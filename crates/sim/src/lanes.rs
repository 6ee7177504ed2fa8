//! The [`LaneEngine`] trait: a simulation engine as a stream harness
//! drives it.
//!
//! A harness resolves its ports once, then every cycle writes and reads
//! them on each lane as little-endian `u64` words, and one
//! [`step`](LaneEngine::step) clocks every lane. The interpreter, the tape
//! engine and the scalar JIT are the one-lane case;
//! [`NativeBatchedSimulator`] runs `L` lanes in lockstep. A write compares
//! in place: writing the value a port already holds leaves every part
//! clean, so a harness may drive every port on every cycle.

use hc_bits::Bits;
use hc_rtl::{Module, NodeId};

use crate::lower::{mask, Loc, Lowered, WideLayout};
use crate::{CompiledSimulator, NativeBatchedSimulator, NativeSimulator, Simulator};

/// `lanes()` copies of one module clocked together, driven through port
/// handles resolved once. Lane `k` of an engine behaves exactly like a
/// one-lane engine given lane `k`'s inputs.
pub trait LaneEngine {
    /// A resolved input port.
    type In: Copy + std::fmt::Debug;
    /// A resolved output port.
    type Out: Copy + std::fmt::Debug;

    /// The simulated module.
    fn module(&self) -> &Module;

    /// Lanes clocked together.
    fn lanes(&self) -> usize;

    /// Resolves an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    fn in_port(&self, name: &str) -> Self::In;

    /// Resolves an output port.
    ///
    /// # Panics
    ///
    /// Panics if no output named `name` exists.
    fn out_port(&self, name: &str) -> Self::Out;

    /// Drives `port` on `lane` from little-endian words: missing words
    /// read as zero and bits above the port's width are dropped. Writing
    /// the value the port holds marks nothing for re-evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    fn write(&mut self, lane: usize, port: Self::In, words: &[u64]);

    /// Settles if needed and copies `port` on `lane` into `out`, which
    /// holds the port's `width.div_ceil(64)` words.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `out` has the wrong length.
    fn read(&mut self, lane: usize, port: Self::Out, out: &mut [u64]);

    /// [`read`](Self::read) of a port of at most 64 bits.
    fn read_u64(&mut self, lane: usize, port: Self::Out) -> u64 {
        let mut word = [0];
        self.read(lane, port, &mut word);
        word[0]
    }

    /// Completed clock cycles of `lane`.
    fn cycle(&self, lane: usize) -> u64;

    /// Masks `lane` out of the clock, or back in: a masked lane's state
    /// and cycle count hold across [`step`](Self::step).
    fn set_active(&mut self, lane: usize, active: bool);

    /// Settles, then clocks every active lane.
    fn step(&mut self);
}

/// A resolved input port of a tape engine (see [`LaneEngine::in_port`]).
#[derive(Clone, Copy, Debug)]
pub struct InPort {
    pub(crate) loc: Loc,
    pub(crate) width: u32,
    pub(crate) idx: usize,
}

impl InPort {
    /// The port's bit width.
    pub fn width(&self) -> u32 {
        self.width
    }
}

/// A resolved output port of a tape engine (see [`LaneEngine::out_port`]).
#[derive(Clone, Copy, Debug)]
pub struct OutPort {
    loc: Loc,
    width: u32,
}

impl OutPort {
    /// The port's bit width.
    pub fn width(&self) -> u32 {
        self.width
    }
}

impl Lowered {
    pub(crate) fn in_port(&self, name: &str) -> InPort {
        let idx = self.input_idx(name);
        let (loc, width) = self.input_locs[idx];
        InPort { loc, width, idx }
    }

    pub(crate) fn out_port(&self, name: &str) -> OutPort {
        let (loc, width) = self.output_loc(name);
        OutPort { loc, width }
    }
}

/// Writes `words` into lane `lane` of an input's slot in a store of
/// `lanes` lanes, laid out lane-minor as [`WideLayout`] lays out wide
/// slots (one lane: the scalar engines' stores). Missing words read as
/// zero and the top word is masked to the port width, so the zero-top
/// invariant holds. Returns whether the value changed.
pub(crate) fn write_lane(
    narrow: &mut [u64],
    wide: &mut [u64],
    wlay: &WideLayout,
    (lanes, lane): (usize, usize),
    port: InPort,
    words: &[u64],
) -> bool {
    assert!(lane < lanes, "lane {lane} out of range");
    let word = |w: usize| words.get(w).copied().unwrap_or(0);
    match port.loc {
        Loc::N(s) => {
            let v = word(0) & mask(port.width);
            std::mem::replace(&mut narrow[s as usize * lanes + lane], v) != v
        }
        Loc::W(s) => {
            let n = wlay.nwords(s) as usize;
            let base = wlay.base(s) + lane;
            let mut changed = false;
            for w in 0..n {
                let v = if w == n - 1 {
                    word(w) & wlay.tail_mask(s)
                } else {
                    word(w)
                };
                changed |= std::mem::replace(&mut wide[base + w * lanes], v) != v;
            }
            changed
        }
    }
}

/// Copies lane `lane` of an output's slot into `out` (see
/// [`write_lane`] for the layout).
pub(crate) fn read_lane(
    narrow: &[u64],
    wide: &[u64],
    wlay: &WideLayout,
    (lanes, lane): (usize, usize),
    port: OutPort,
    out: &mut [u64],
) {
    assert!(lane < lanes, "lane {lane} out of range");
    assert_eq!(
        out.len(),
        port.width.div_ceil(64) as usize,
        "output port word count"
    );
    match port.loc {
        Loc::N(s) => out[0] = narrow[s as usize * lanes + lane],
        Loc::W(s) => {
            let base = wlay.base(s) + lane;
            for (w, o) in out.iter_mut().enumerate() {
                *o = wide[base + w * lanes];
            }
        }
    }
}

impl LaneEngine for Simulator {
    type In = usize;
    type Out = NodeId;

    fn module(&self) -> &Module {
        Simulator::module(self)
    }
    fn lanes(&self) -> usize {
        1
    }
    fn in_port(&self, name: &str) -> usize {
        self.input_port(name)
    }
    fn out_port(&self, name: &str) -> NodeId {
        self.output_node(name)
    }
    fn write(&mut self, lane: usize, port: usize, words: &[u64]) {
        assert_eq!(lane, 0, "lane {lane} out of range");
        let mut value = Bits::zero(Simulator::module(self).inputs()[port].width);
        let padded: Vec<u64> = (0..value.as_words().len())
            .map(|w| words.get(w).copied().unwrap_or(0))
            .collect();
        value.copy_from_words(&padded);
        self.set_input(port, value);
    }
    fn read(&mut self, lane: usize, port: NodeId, out: &mut [u64]) {
        assert_eq!(lane, 0, "lane {lane} out of range");
        self.eval();
        out.copy_from_slice(self.value_of(port).as_words());
    }
    fn cycle(&self, _lane: usize) -> u64 {
        Simulator::cycle(self)
    }
    fn set_active(&mut self, _lane: usize, active: bool) {
        self.active = active;
    }
    fn step(&mut self) {
        if self.active {
            Simulator::step(self);
        }
    }
}

impl LaneEngine for CompiledSimulator {
    type In = InPort;
    type Out = OutPort;

    fn module(&self) -> &Module {
        CompiledSimulator::module(self)
    }
    fn lanes(&self) -> usize {
        1
    }
    fn in_port(&self, name: &str) -> InPort {
        self.low.in_port(name)
    }
    fn out_port(&self, name: &str) -> OutPort {
        self.low.out_port(name)
    }
    fn write(&mut self, lane: usize, port: InPort, words: &[u64]) {
        self.write_lane(lane, port, words);
    }
    fn read(&mut self, lane: usize, port: OutPort, out: &mut [u64]) {
        self.eval();
        read_lane(&self.narrow, &self.wide, &self.wlay, (1, lane), port, out);
    }
    fn cycle(&self, _lane: usize) -> u64 {
        self.cycle
    }
    fn set_active(&mut self, _lane: usize, active: bool) {
        self.active = active;
    }
    fn step(&mut self) {
        if self.active {
            CompiledSimulator::step(self);
        }
    }
}

impl LaneEngine for NativeSimulator {
    type In = InPort;
    type Out = OutPort;

    fn module(&self) -> &Module {
        NativeSimulator::module(self)
    }
    fn lanes(&self) -> usize {
        1
    }
    fn in_port(&self, name: &str) -> InPort {
        self.sim.low.in_port(name)
    }
    fn out_port(&self, name: &str) -> OutPort {
        self.sim.low.out_port(name)
    }
    fn write(&mut self, lane: usize, port: InPort, words: &[u64]) {
        self.sim.write_lane(lane, port, words);
    }
    fn read(&mut self, lane: usize, port: OutPort, out: &mut [u64]) {
        self.eval();
        LaneEngine::read(&mut self.sim, lane, port, out);
    }
    fn cycle(&self, _lane: usize) -> u64 {
        self.sim.cycle
    }
    fn set_active(&mut self, _lane: usize, active: bool) {
        self.sim.active = active;
    }
    fn step(&mut self) {
        if self.sim.active {
            NativeSimulator::step(self);
        }
    }
}

impl LaneEngine for NativeBatchedSimulator {
    type In = InPort;
    type Out = OutPort;

    fn module(&self) -> &Module {
        NativeBatchedSimulator::module(self)
    }
    fn lanes(&self) -> usize {
        NativeBatchedSimulator::lanes(self)
    }
    fn in_port(&self, name: &str) -> InPort {
        NativeBatchedSimulator::in_port(self, name)
    }
    fn out_port(&self, name: &str) -> OutPort {
        self.sim.low.out_port(name)
    }
    fn write(&mut self, lane: usize, port: InPort, words: &[u64]) {
        self.sim.write_lane(lane, port, words);
    }
    fn read(&mut self, lane: usize, port: OutPort, out: &mut [u64]) {
        self.eval();
        self.sim.read_lane(lane, port, out);
    }
    fn cycle(&self, lane: usize) -> u64 {
        NativeBatchedSimulator::cycle(self, lane)
    }
    fn set_active(&mut self, lane: usize, active: bool) {
        NativeBatchedSimulator::set_active(self, lane, active);
    }
    fn step(&mut self) {
        NativeBatchedSimulator::step(self);
    }
}
