//! The measurement harness: functional output plus the paper's latency
//! (`T_L`) and periodicity (`T_P`) figures, measured in simulation.
//!
//! [`StreamHarness`] runs one per-cycle loop on any [`LaneEngine`]: the
//! interpreter, the tape engine and the scalar JIT stream one block
//! sequence, the vector JIT one independent sequence per lane. Every
//! measurement, every IEEE 1180 RTL run and every backpressure test goes
//! through it.
//!
//! # Protocols
//!
//! The harness drives one of two port conventions, whichever the module
//! has:
//!
//! * an AXI-Stream wrapper (`rst`, `s_axis_tvalid/tdata/tready` in,
//!   `m_axis_tvalid/tdata/tready` out), one row per beat, as the adapter
//!   generators build it;
//! * a stream kernel (`rst`, `in_valid/in_data` → `out_valid/out_data`,
//!   no ready), MaxJ-style: a beat carries `in_data`'s width in row-major
//!   elements (a row or a whole block) and each block comes back as one
//!   `out_data` beat. The source never waits, and after the stimulus it
//!   keeps `in_valid` high with zero beats, because the kernels advance
//!   only on valid input.
//!
//! Either way, `T_L` runs from a lane's first accepted input beat to the
//! last output beat of its first block, inclusive, and `T_P` is the
//! spacing of the first output beats of its last two blocks.
//!
//! # Fidelity
//!
//! The settle order is decided once, when the harness is built, from the
//! module's ports:
//!
//! 1. *An AXI-Stream wrapper with no combinational path from
//!    `s_axis_tvalid/tdata` to `m_axis_tvalid/tdata`* (every shipped
//!    design). Each cycle writes `m_axis_tready` and the driver's beat,
//!    settles once, and takes the monitor sample, the handshake and the
//!    stability checks from that settle. This is exact: the monitor's
//!    ports then depend only on registers, memories, `rst` and
//!    `m_axis_tready`, so sampling them before or after the driver writes
//!    reads the same values as a testbench that runs its monitor first.
//! 2. *An AXI-Stream wrapper that has such a path.* The monitor goes
//!    first: `m_axis_tready` is written and `m_axis_tvalid/tdata` sampled
//!    while `s_axis` still holds the previous cycle's beat; then the
//!    driver writes its beat and a second settle gives the handshake and
//!    the checks. That is the monitor → driver → checker order itself, so
//!    it is exact by construction (a pass-through wrapper measures
//!    `T_L` 9, `T_P` 8 this way).
//! 3. *A stream kernel.* Each cycle drives the beat, settles once and
//!    samples `out_valid/out_data`: the kernel contract counts an output
//!    in the cycle it is valid, combinational or not, so this order *is*
//!    the definition the stream figures were recorded with.
//!
//! `m_axis_tready` goes first in both AXI-Stream orders because it may
//! reach `s_axis_tready` combinationally (the wrappers' hand-over logic).
//! The path check is one forward sweep over the netlist. Lanes never
//! interact (the wrapper state is fully per-lane), so ordering the phases
//! across lanes is invisible, and a lane that finishes is masked out of
//! the clock: its cycle count freezes at completion.
//!
//! The loop moves little-endian `u64` words through port handles resolved
//! once: every input beat is packed before the run and every output beat
//! decoded after it, so the loop builds no `Bits`.
//!
//! # Backpressure
//!
//! A run is back-to-back unless it is given a [`Backpressure`]: idle
//! producer cycles after input beats, and a consumer that drops
//! `m_axis_tready` periodically. The AXI-Stream stability rules (once
//! `m_axis_tvalid` rises it stays high, with `m_axis_tdata` unchanged,
//! until the handshake) are checked on every stalled beat and reported as
//! [`ProtocolError`]s; a back-to-back run never stalls a beat, so only a
//! stalling run can report one.

use std::error::Error;
use std::fmt;

use crate::adapter::MatrixWrapperSpec;
use hc_bits::Bits;
use hc_rtl::{Module, ValidateError};
use hc_sim::{CompiledSimulator, LaneEngine, NativeSimulator, SimBackend, Simulator};

/// Cycle figures measured by a [`StreamHarness`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamTiming {
    /// Cycles from the first input beat of a matrix to its last output
    /// beat, inclusive — the paper's `T_L`.
    pub latency: u64,
    /// Steady-state cycles between consecutive matrices' first output
    /// beats — the paper's `T_P`.
    pub periodicity: u64,
}

/// An AXI-Stream stability violation on the output interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// Cycle of the violation.
    pub cycle: u64,
    /// Description of the broken rule.
    pub rule: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {}", self.cycle, self.rule)
    }
}

impl Error for ProtocolError {}

/// Producer gaps and consumer stalls for a run (see
/// [`StreamHarness::run_lanes_under`]); the default is back-to-back.
#[derive(Clone, Debug, Default)]
pub struct Backpressure {
    /// Idle cycles after each accepted input beat of a lane: beat `i` is
    /// followed by `gaps[i % gaps.len()]` cycles with `tvalid` low (none
    /// when empty).
    pub gaps: Vec<u32>,
    /// The consumer deasserts `m_axis_tready` on every cycle that is a
    /// multiple of this (0: always ready). A stream kernel has no ready
    /// and ignores it.
    pub stall_period: u32,
}

/// The ports the loop drives, resolved once.
#[derive(Debug)]
struct Ports<E: LaneEngine> {
    in_valid: E::In,
    in_data: E::In,
    out_valid: E::Out,
    out_data: E::Out,
    /// `(m_axis_tready, s_axis_tready)` of an AXI-Stream wrapper; a
    /// stream kernel has neither: its source never waits and its sink is
    /// always ready.
    ready: Option<(E::In, E::Out)>,
}

/// Feeds matrices through a wrapper or stream kernel and measures timing.
///
/// The default geometry is the paper's 8×8 IDCT (96-bit rows of 12-bit
/// elements in, 72-bit rows of 9-bit elements out);
/// [`StreamHarness::with_spec`] and [`StreamHarness::from_engine`] take
/// any [`MatrixWrapperSpec`]. See the [crate-level example](crate) and
/// the module docs for the protocols and the settle order.
///
/// The default engine is the interpreted [`Simulator`];
/// [`StreamHarness::compiled`] runs the tape engine, and measurement runs
/// the scalar JIT ([`NativeSimulator`]). A harness on a multi-lane engine
/// (the vector JIT, see [`BatchedStreamHarness`](crate::BatchedStreamHarness))
/// streams one independent block sequence per lane. Every engine produces
/// identical functional output and timing.
#[derive(Debug)]
pub struct StreamHarness<E: LaneEngine = Simulator> {
    sim: E,
    ports: Ports<E>,
    /// Elements per block, per input beat and per output beat.
    elems: usize,
    in_per_beat: usize,
    out_per_beat: usize,
    in_elem_width: u32,
    out_elem_width: u32,
    /// Words per input and per output beat.
    in_words: usize,
    out_words: usize,
    /// Each cycle drives, then samples everything from one settle (see
    /// the module's Fidelity section).
    settles_once: bool,
    /// Protocol violations observed during runs, tagged `(lane, error)`.
    pub protocol_errors: Vec<(usize, ProtocolError)>,
}

impl StreamHarness<Simulator> {
    /// Builds an 8×8 harness on the interpreter (validating the module)
    /// and applies one reset cycle.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally
    /// invalid.
    pub fn new(module: Module) -> Result<Self, ValidateError> {
        Self::with_spec(module, MatrixWrapperSpec::idct())
    }
}

impl StreamHarness<CompiledSimulator> {
    /// Builds an 8×8 harness on the tape engine and applies one reset
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally
    /// invalid.
    pub fn compiled(module: Module) -> Result<Self, ValidateError> {
        Self::with_spec(module, MatrixWrapperSpec::idct())
    }
}

impl StreamHarness<NativeSimulator> {
    /// Builds an 8×8 harness on the scalar JIT and applies one reset
    /// cycle. On non-x86-64 hosts, or under `HC_NO_NATIVE=1`, the engine
    /// degrades to the tape interpreter with identical behavior.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally
    /// invalid.
    pub fn native(module: Module) -> Result<Self, ValidateError> {
        Self::with_spec(module, MatrixWrapperSpec::idct())
    }
}

impl<B: SimBackend + LaneEngine> StreamHarness<B> {
    /// Builds a harness on a one-lane engine for an explicit geometry and
    /// applies one reset cycle.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally
    /// invalid.
    pub fn with_spec(module: Module, spec: MatrixWrapperSpec) -> Result<Self, ValidateError> {
        Ok(Self::from_engine(B::from_module(module)?, spec))
    }
}

impl<E: LaneEngine> StreamHarness<E> {
    /// Wraps an engine: resolves the ports of whichever protocol the
    /// module has, decides the settle order and applies one reset cycle to
    /// every lane.
    ///
    /// # Panics
    ///
    /// Panics if the module has neither protocol's ports.
    pub fn from_engine(mut sim: E, spec: MatrixWrapperSpec) -> Self {
        let module = sim.module();
        let axis = module.input_named("s_axis_tvalid").is_some();
        let [in_valid, in_data, out_valid, out_data] = if axis {
            [
                "s_axis_tvalid",
                "s_axis_tdata",
                "m_axis_tvalid",
                "m_axis_tdata",
            ]
        } else {
            ["in_valid", "in_data", "out_valid", "out_data"]
        };
        let settles_once = !axis || !driver_reaches_monitor(module);
        let in_width = module
            .input_named(in_data)
            .unwrap_or_else(|| panic!("no input named {in_data:?}"))
            .width;
        let out_width = module
            .output_named(out_data)
            .map(|o| module.width(o.node))
            .unwrap_or_else(|| panic!("no output named {out_data:?}"));
        let elems = spec.elems();
        let in_per_beat = (in_width / spec.in_elem_width) as usize;
        let out_per_beat = (out_width / spec.out_elem_width) as usize;
        let ports = Ports {
            in_valid: sim.in_port(in_valid),
            in_data: sim.in_port(in_data),
            out_valid: sim.out_port(out_valid),
            out_data: sim.out_port(out_data),
            ready: axis.then(|| (sim.in_port("m_axis_tready"), sim.out_port("s_axis_tready"))),
        };
        let rst = sim.in_port("rst");
        for lane in 0..sim.lanes() {
            sim.write(lane, rst, &[1]);
            sim.write(lane, ports.in_valid, &[0]);
            if let Some((ready, _)) = ports.ready {
                sim.write(lane, ready, &[0]);
            }
        }
        sim.step();
        for lane in 0..sim.lanes() {
            sim.write(lane, rst, &[0]);
        }
        StreamHarness {
            sim,
            ports,
            elems,
            in_per_beat,
            out_per_beat,
            in_elem_width: spec.in_elem_width,
            out_elem_width: spec.out_elem_width,
            in_words: in_width.div_ceil(64) as usize,
            out_words: out_width.div_ceil(64) as usize,
            settles_once,
            protocol_errors: Vec::new(),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.sim.lanes()
    }

    /// Whether each cycle settles the netlist once rather than twice; see
    /// the module's Fidelity section.
    pub fn settles_once(&self) -> bool {
        self.settles_once
    }

    /// Input beats `blocks` blocks take.
    pub fn input_beats(&self, blocks: usize) -> u64 {
        (blocks * self.elems / self.in_per_beat) as u64
    }

    /// Access to the engine (e.g. for probing or tier reports).
    pub fn simulator_mut(&mut self) -> &mut E {
        &mut self.sim
    }

    /// [`run_flat`](Self::run_flat) on 8×8 matrices.
    ///
    /// # Panics
    ///
    /// Panics if the harness geometry is not 8×8.
    pub fn run(
        &mut self,
        matrices: &[[[i32; 8]; 8]],
        max_cycles: u64,
    ) -> (Vec<[[i32; 8]; 8]>, StreamTiming) {
        assert_eq!(self.elems, 64, "run() is the 8x8 API");
        let flat: Vec<Vec<i32>> = matrices
            .iter()
            .map(|m| m.iter().flatten().copied().collect())
            .collect();
        let (outs, timing) = self.run_flat(&flat, max_cycles);
        let outputs = outs
            .into_iter()
            .map(|o| std::array::from_fn(|r| std::array::from_fn(|c| o[r * 8 + c])))
            .collect();
        (outputs, timing)
    }

    /// Streams row-major blocks back-to-back, split into one contiguous
    /// chunk per lane, and returns the decoded outputs in input order plus
    /// the timing of lane 0 (whose chunk starts the run, so its figures
    /// are those of a one-lane run). Gives up after `max_cycles` per lane,
    /// returning whatever was collected: callers check the output count.
    ///
    /// # Panics
    ///
    /// As [`run_lanes_under`](Self::run_lanes_under).
    pub fn run_flat(
        &mut self,
        blocks: &[Vec<i32>],
        max_cycles: u64,
    ) -> (Vec<Vec<i32>>, StreamTiming) {
        let lanes = self.lanes();
        let chunk = blocks.len().div_ceil(lanes).max(1);
        let chunks: Vec<&[Vec<i32>]> = (0..lanes)
            .map(|k| &blocks[(k * chunk).min(blocks.len())..((k + 1) * chunk).min(blocks.len())])
            .collect();
        let (outs, timings) = self.run_lanes_flat(&chunks, max_cycles);
        (outs.into_iter().flatten().collect(), timings[0])
    }

    /// [`run_lanes_under`](Self::run_lanes_under), back-to-back.
    ///
    /// # Panics
    ///
    /// As [`run_lanes_under`](Self::run_lanes_under).
    pub fn run_lanes_flat(
        &mut self,
        chunks: &[&[Vec<i32>]],
        max_cycles: u64,
    ) -> (Vec<Vec<Vec<i32>>>, Vec<StreamTiming>) {
        self.run_lanes_under(chunks, max_cycles, &Backpressure::default())
    }

    /// Streams one independent row-major block sequence per lane (`chunks`
    /// holds one per lane, empty ones allowed) under `pressure`, and
    /// returns each lane's decoded outputs and timing. Gives up after
    /// `max_cycles` per lane (callers check the output counts). Stability
    /// violations land in [`protocol_errors`](Self::protocol_errors).
    ///
    /// # Panics
    ///
    /// Panics if `chunks` does not hold one sequence per lane, a block
    /// does not have the geometry's element count, or a beat does not
    /// carry a whole divisor of it.
    pub fn run_lanes_under(
        &mut self,
        chunks: &[&[Vec<i32>]],
        max_cycles: u64,
        pressure: &Backpressure,
    ) -> (Vec<Vec<Vec<i32>>>, Vec<StreamTiming>) {
        let (elems, in_per_beat, out_per_beat) = (self.elems, self.in_per_beat, self.out_per_beat);
        let (in_words, out_words) = (self.in_words, self.out_words);
        let (in_elem_width, out_elem_width) = (self.in_elem_width, self.out_elem_width);
        let settles_once = self.settles_once;
        let StreamHarness {
            sim,
            ports,
            protocol_errors,
            ..
        } = self;
        assert_eq!(chunks.len(), sim.lanes(), "one block sequence per lane");
        for n in [in_per_beat, out_per_beat] {
            assert!(
                n > 0 && elems.is_multiple_of(n),
                "beats of {n} elements do not divide a {elems}-element block"
            );
        }
        // Output beats per block.
        let out_beats = elems / out_per_beat;
        let mut st: Vec<Lane> = chunks
            .iter()
            .map(|chunk| {
                let mut input = vec![0; chunk.len() * elems / in_per_beat * in_words];
                let mut beats = input.chunks_exact_mut(in_words);
                for block in *chunk {
                    assert_eq!(block.len(), elems, "block has rows*cols elements");
                    for (part, beat) in block.chunks(in_per_beat).zip(&mut beats) {
                        pack_words(part, in_elem_width, beat);
                    }
                }
                Lane {
                    input,
                    sent: 0,
                    idle: 0,
                    ready: true,
                    first_in: None,
                    out_cycles: Vec::with_capacity(chunk.len() * out_beats),
                    output: Vec::with_capacity(chunk.len() * out_beats * out_words),
                    expected: chunk.len() * out_beats,
                    done: chunk.is_empty(),
                    stalled: false,
                    held: vec![0; out_words],
                }
            })
            .collect();
        for (lane, s) in st.iter().enumerate() {
            if s.done {
                sim.set_active(lane, false);
            }
        }
        let zero = vec![0u64; in_words];
        let mut sampled = vec![0u64; out_words];
        let stall = if ports.ready.is_some() {
            u64::from(pressure.stall_period)
        } else {
            0
        };
        // The driver, all lanes: offer the next beat (held, with tvalid
        // low, through a gap); once the sequence is sent, nothing on an
        // AXI-Stream wrapper and valid zero beats on a stream kernel.
        let idle_valid = ports.ready.is_none();
        let drive = |sim: &mut E, st: &[Lane]| {
            for (lane, s) in st.iter().enumerate() {
                if s.done {
                    continue;
                }
                let beat = s.input.get(s.sent * in_words..(s.sent + 1) * in_words);
                let valid = beat.map_or(idle_valid, |_| s.idle == 0);
                sim.write(lane, ports.in_valid, &[u64::from(valid)]);
                sim.write(lane, ports.in_data, beat.unwrap_or(&zero));
            }
        };

        for _ in 0..max_cycles {
            if st.iter().all(|s| s.done) {
                break;
            }
            // The consumer's ready goes first in either order: it may
            // reach s_axis_tready combinationally.
            for (lane, s) in st.iter_mut().enumerate() {
                if s.done {
                    continue;
                }
                s.ready = stall == 0 || !sim.cycle(lane).is_multiple_of(stall);
                if let Some((ready, _)) = ports.ready {
                    sim.write(lane, ready, &[u64::from(s.ready)]);
                }
            }
            if settles_once {
                drive(sim, &st);
            }
            // The monitor, all lanes. Settling twice, the driver's ports
            // still hold the previous cycle's beat here.
            for (lane, s) in st.iter_mut().enumerate() {
                if !s.done && s.ready && sim.read_u64(lane, ports.out_valid) != 0 {
                    s.out_cycles.push(sim.cycle(lane));
                    let n = s.output.len();
                    s.output.resize(n + out_words, 0);
                    sim.read(lane, ports.out_data, &mut s.output[n..]);
                }
            }
            if !settles_once {
                drive(sim, &st);
            }
            // The handshake, then the stability checks, which read the
            // output only around a stalled beat. Settling twice, the first
            // read here settles again.
            for (lane, s) in st.iter_mut().enumerate() {
                if s.done {
                    continue;
                }
                let cycle = sim.cycle(lane);
                if s.idle > 0 {
                    s.idle -= 1;
                } else if s.sent * in_words < s.input.len()
                    && ports
                        .ready
                        .is_none_or(|(_, accept)| sim.read_u64(lane, accept) != 0)
                {
                    s.first_in.get_or_insert(cycle);
                    s.idle = match &pressure.gaps[..] {
                        [] => 0,
                        gaps => gaps[s.sent % gaps.len()],
                    };
                    s.sent += 1;
                }
                if !s.stalled && s.ready {
                    continue;
                }
                let valid = sim.read_u64(lane, ports.out_valid) != 0;
                if std::mem::take(&mut s.stalled) {
                    let rule = if valid {
                        sim.read(lane, ports.out_data, &mut sampled);
                        (sampled != s.held).then_some("tdata changed while stalled")
                    } else {
                        Some("tvalid deasserted before handshake")
                    };
                    if let Some(rule) = rule {
                        let rule = rule.into();
                        protocol_errors.push((lane, ProtocolError { cycle, rule }));
                    }
                }
                if valid && !s.ready {
                    sim.read(lane, ports.out_data, &mut s.held);
                    s.stalled = true;
                }
            }
            sim.step();
            for (lane, s) in st.iter_mut().enumerate() {
                if !s.done && s.out_cycles.len() >= s.expected {
                    s.done = true;
                    sim.set_active(lane, false);
                }
            }
        }
        // Re-arm every lane for a next run.
        for lane in 0..st.len() {
            sim.set_active(lane, true);
        }

        st.iter()
            .map(|s| {
                let outputs = s
                    .output
                    .chunks_exact(out_beats * out_words)
                    .map(|beats| {
                        let mut block = Vec::with_capacity(elems);
                        for beat in beats.chunks_exact(out_words) {
                            unpack_words(beat, out_elem_width, out_per_beat, &mut block);
                        }
                        block
                    })
                    .collect();
                (outputs, s.timing(out_beats))
            })
            .unzip()
    }
}

/// One lane's stream, kept as flat words so the loop never allocates
/// past its output buffers.
#[derive(Debug)]
struct Lane {
    /// Input beats, packed once.
    input: Vec<u64>,
    /// Input beats accepted so far; the driver offers beat `sent` next.
    sent: usize,
    /// Gap cycles left before the driver offers it.
    idle: u32,
    /// The consumer's ready level this cycle.
    ready: bool,
    /// Cycle of the first accepted input beat.
    first_in: Option<u64>,
    /// Cycle and words of each output beat.
    out_cycles: Vec<u64>,
    output: Vec<u64>,
    /// Output beats after which the lane is done.
    expected: usize,
    done: bool,
    /// An output beat was valid but not ready at the last edge, holding
    /// these words.
    stalled: bool,
    held: Vec<u64>,
}

impl Lane {
    /// `T_L` of the lane's first block and `T_P` from the spacing of its
    /// last two blocks' first output beats, `out_beats` beats a block.
    fn timing(&self, out_beats: usize) -> StreamTiming {
        let mut timing = StreamTiming::default();
        if let (Some(first_in), false) = (self.first_in, self.out_cycles.is_empty()) {
            if let Some(last) = self.out_cycles.get(out_beats - 1) {
                timing.latency = last - first_in + 1;
            }
            let blocks = self.out_cycles.len().div_ceil(out_beats);
            if blocks >= 2 {
                timing.periodicity = self.out_cycles[(blocks - 1) * out_beats]
                    - self.out_cycles[(blocks - 2) * out_beats];
            }
        }
        timing
    }
}

/// Whether a combinational path runs from `s_axis_tvalid`/`s_axis_tdata`
/// to `m_axis_tvalid`/`m_axis_tdata`. One forward sweep over the node
/// list, which is topologically ordered: a node is reached when one of its
/// operands is, so a register output or a constant ends a path and an
/// asynchronous memory read follows its address.
pub(crate) fn driver_reaches_monitor(module: &Module) -> bool {
    let mut reached = vec![false; module.nodes().len()];
    for name in ["s_axis_tvalid", "s_axis_tdata"] {
        if let Some(port) = module.input_named(name) {
            reached[port.node.index()] = true;
        }
    }
    for (i, nd) in module.nodes().iter().enumerate() {
        let mut hit = false;
        nd.node.for_each_operand(|a| hit |= reached[a.index()]);
        reached[i] |= hit;
    }
    ["m_axis_tvalid", "m_axis_tdata"].iter().any(|name| {
        module
            .output_named(name)
            .is_some_and(|o| reached[o.node.index()])
    })
}

/// Packs signed elements into one row word, element 0 in the low bits.
pub fn pack_elems_n(row: &[i32], elem_width: u32) -> Bits {
    let mut word = Bits::zero(elem_width * row.len() as u32);
    let mut words = vec![0; word.as_words().len()];
    pack_words(row, elem_width, &mut words);
    word.copy_from_words(&words);
    word
}

/// Unpacks one row word into `n` sign-extended elements.
///
/// # Panics
///
/// Panics if `n` elements do not fit in the word.
pub fn unpack_elems_n(word: &Bits, elem_width: u32, n: usize) -> Vec<i32> {
    assert!(
        n as u32 * elem_width <= word.width(),
        "{n} elements of {elem_width} bits overrun a {}-bit word",
        word.width()
    );
    let mut out = Vec::with_capacity(n);
    unpack_words(word.as_words(), elem_width, n, &mut out);
    out
}

/// Packs signed elements into little-endian row words, element 0 in the
/// low bits. Each element is truncated to `elem_width` (1..=64) bits;
/// `out` is cleared first, so its bits above the row are zero.
pub(crate) fn pack_words(row: &[i32], elem_width: u32, out: &mut [u64]) {
    out.fill(0);
    let m = u64::MAX >> (64 - elem_width);
    for (c, &v) in row.iter().enumerate() {
        let e = i64::from(v) as u64 & m;
        let lo = c as u32 * elem_width;
        let (w, sh) = ((lo / 64) as usize, lo % 64);
        out[w] |= e << sh;
        if sh + elem_width > 64 {
            out[w + 1] |= e >> (64 - sh);
        }
    }
}

/// Appends `n` sign-extended `elem_width`-bit (1..=64) elements unpacked
/// from little-endian row words, element 0 from the low bits.
pub(crate) fn unpack_words(words: &[u64], elem_width: u32, n: usize, out: &mut Vec<i32>) {
    let up = 64 - elem_width;
    out.extend((0..n).map(|c| {
        let lo = c as u32 * elem_width;
        let (w, sh) = ((lo / 64) as usize, lo % 64);
        let mut x = words[w] >> sh;
        if sh + elem_width > 64 {
            x |= words[w + 1] << (64 - sh);
        }
        ((x << up) as i64 >> up) as i32
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{wrap_comb_matrix, AxisMaster, AxisSlave, MatrixWrapperSpec};
    use hc_rtl::{BinaryOp, NodeId};
    use hc_sim::NativeBatchedSimulator;

    fn identity_wrapper() -> Module {
        wrap_comb_matrix("w", MatrixWrapperSpec::idct(), |m, elems| {
            elems.iter().map(|&e| m.slice(e, 0, 9)).collect()
        })
    }

    /// Lane outputs, lane timings and protocol errors of one run.
    type Run = (
        Vec<Vec<Vec<i32>>>,
        Vec<StreamTiming>,
        Vec<(usize, ProtocolError)>,
    );

    /// One 8×8 run of `chunks` under `pressure` on every engine: the
    /// interpreter, the tape engine and the scalar JIT stream `chunks[0]`
    /// on their one lane, the vector JIT every chunk on a lane of its own.
    fn on_every_engine(
        module: &Module,
        chunks: &[&[Vec<i32>]],
        max_cycles: u64,
        pressure: &Backpressure,
    ) -> Vec<(&'static str, Run)> {
        fn run<E: LaneEngine>(
            sim: E,
            chunks: &[&[Vec<i32>]],
            max_cycles: u64,
            pressure: &Backpressure,
        ) -> Run {
            let mut h = StreamHarness::from_engine(sim, MatrixWrapperSpec::idct());
            let (outs, timings) = h.run_lanes_under(chunks, max_cycles, pressure);
            (outs, timings, h.protocol_errors)
        }
        let one = &chunks[..1];
        let m = || module.clone();
        vec![
            (
                "interp",
                run(Simulator::new(m()).unwrap(), one, max_cycles, pressure),
            ),
            (
                "tape",
                run(
                    CompiledSimulator::new(m()).unwrap(),
                    one,
                    max_cycles,
                    pressure,
                ),
            ),
            (
                "scalar JIT",
                run(
                    NativeSimulator::new(m()).unwrap(),
                    one,
                    max_cycles,
                    pressure,
                ),
            ),
            (
                "vector JIT",
                run(
                    NativeBatchedSimulator::new(m(), chunks.len()).unwrap(),
                    chunks,
                    max_cycles,
                    pressure,
                ),
            ),
        ]
    }

    /// Blocks whose row `r` of block `b` is `[b * 8 + r, 0, ...]`: the
    /// beats `0, 1, 2, ...` of 96 bits each.
    fn counting_blocks(n: i32) -> Vec<Vec<i32>> {
        (0..n)
            .map(|b| {
                (0..64)
                    .map(|i| if i % 8 == 0 { b * 8 + i / 8 } else { 0 })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn driver_feeds_and_monitor_collects() {
        let blocks = counting_blocks(2);
        let chunks: [&[Vec<i32>]; 3] = [&blocks, &blocks, &blocks];
        let pressure = Backpressure::default();
        for (engine, (outs, _, errors)) in
            on_every_engine(&identity_wrapper(), &chunks, 60, &pressure)
        {
            for lane in &outs {
                assert_eq!(lane, &blocks, "{engine}");
            }
            assert!(errors.is_empty(), "{engine}: {errors:?}");
        }
    }

    #[test]
    fn checker_accepts_compliant_dut_under_backpressure() {
        let blocks = counting_blocks(3);
        let chunks: [&[Vec<i32>]; 3] = [&blocks, &blocks[1..], &[]];
        let pressure = Backpressure {
            gaps: vec![0, 1, 2],
            stall_period: 3,
        };
        for (engine, (outs, _, errors)) in
            on_every_engine(&identity_wrapper(), &chunks, 200, &pressure)
        {
            for (lane, out) in outs.iter().enumerate() {
                assert_eq!(out, chunks[lane], "{engine} lane {lane}");
            }
            assert!(errors.is_empty(), "{engine}: {errors:?}");
        }
    }

    /// A wrapper at the IDCT widths that accepts every beat and whose
    /// output side is `out(m, rst)`: `[m_axis_tdata, m_axis_tvalid]`,
    /// independent of the input.
    fn rogue_wrapper(out: impl FnOnce(&mut Module) -> [NodeId; 2]) -> Module {
        let mut m = Module::new("rogue");
        m.input("rst", 1);
        let s = AxisSlave::declare(&mut m, "s_axis", 96);
        let o = AxisMaster::declare(&mut m, "m_axis");
        let [data, valid] = out(&mut m);
        o.set_outputs(&mut m, "m_axis", data, valid);
        let one = m.const_u(1, 1);
        s.set_ready(&mut m, "s_axis", one);
        m.validate().unwrap();
        m
    }

    /// A free-running `width`-bit counter, one more every cycle.
    fn counter(m: &mut Module, name: &str, width: u32) -> NodeId {
        let r = m.reg(name, width, Bits::zero(width));
        let q = m.reg_out(r);
        let one = m.const_u(width, 1);
        let next = m.binary(BinaryOp::Add, q, one, width);
        m.connect_reg(r, next);
        q
    }

    #[test]
    fn stability_rules_report_rule_lane_and_cycle() {
        // The consumer stalls on every third cycle (3, 6, 9, 12 after the
        // reset cycle). Lanes 0 and 2 of the vector JIT carry one block,
        // lane 1 none, so it never reports.
        let blocks = counting_blocks(1);
        let chunks: [&[Vec<i32>]; 3] = [&blocks, &[], &blocks];
        let stalls = Backpressure {
            gaps: Vec::new(),
            stall_period: 3,
        };
        let expect = |rule: &str, cycles: &[u64]| {
            let error = |cycle| ProtocolError {
                cycle,
                rule: rule.into(),
            };
            let one: Vec<_> = cycles.iter().map(|&c| (0, error(c))).collect();
            let three: Vec<_> = cycles
                .iter()
                .flat_map(|&c| [(0, error(c)), (2, error(c))])
                .collect();
            (one, three)
        };
        // m_axis_tvalid toggles every cycle, high on odd cycles: stalled
        // at 3 and 9, it drops at 4 and 10.
        let pulse = rogue_wrapper(|m| {
            let phase = m.reg("phase", 1, Bits::zero(1));
            let q = m.reg_out(phase);
            let flip = m.unary(hc_rtl::UnaryOp::Not, q);
            m.connect_reg(phase, flip);
            [m.const_u(72, 0), q]
        });
        // m_axis_tdata counts with m_axis_tvalid high: stalled at 3, 6
        // and 9, it moves at 4, 7 and 10; the eighth beat lands at 11.
        let count = rogue_wrapper(|m| [counter(m, "count", 72), m.const_u(1, 1)]);
        for (module, want) in [
            (
                pulse,
                expect("tvalid deasserted before handshake", &[4, 10]),
            ),
            (count, expect("tdata changed while stalled", &[4, 7, 10])),
            (identity_wrapper(), (Vec::new(), Vec::new())),
        ] {
            for (engine, (_, _, errors)) in on_every_engine(&module, &chunks, 12, &stalls) {
                let want = if engine == "vector JIT" {
                    &want.1
                } else {
                    &want.0
                };
                assert_eq!(&errors, want, "{engine}");
            }
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        let row = [-2048, -1, 0, 1, 2047, -100, 100, 7];
        let word = pack_elems_n(&row, 12);
        assert_eq!(unpack_elems_n(&word, 12, 8), row);
        // Element 5 of a 96-bit row straddles bit 64; every element must
        // land where the per-bit definition puts it.
        assert_eq!(word.width(), 96);
        for (c, &v) in row.iter().enumerate() {
            let e = word.slice(c as u32 * 12, 12);
            assert_eq!(e, Bits::from_i64(12, i64::from(v)), "element {c}");
        }
        assert_eq!(word.extract_u64(60, 12), 0xf9c, "-100 across the word seam");
        // The 12-bit extremes, alternating, and a 9-bit output row.
        let extremes = [-2048, 2047, -2048, 2047, -2048, 2047, -2048, 2047];
        assert_eq!(
            unpack_elems_n(&pack_elems_n(&extremes, 12), 12, 8),
            extremes
        );
        let out_row = [-256, 255, -1, 0, 1, -200, 200, 7];
        let out_word = pack_elems_n(&out_row, 9);
        assert_eq!(out_word.width(), 72);
        assert_eq!(unpack_elems_n(&out_word, 9, 8), out_row);
        // Out-of-range values truncate to the element width.
        assert_eq!(
            unpack_elems_n(&pack_elems_n(&[256, -257], 9), 9, 2),
            [-256, 255]
        );
        // A whole 8x8 block in one 768-bit beat (the stream kernels' shape).
        let block: Vec<i32> = (0..64).map(|i| (i * 67 % 4096) - 2048).collect();
        let beat = pack_elems_n(&block, 12);
        assert_eq!(beat.width(), 768);
        assert_eq!(unpack_elems_n(&beat, 12, 64), block);
        for (c, &v) in block.iter().enumerate() {
            assert_eq!(beat.slice(c as u32 * 12, 12).to_i64(), i64::from(v));
        }
    }

    #[test]
    fn comb_wrapper_has_paper_timing() {
        // Latency 17 and periodicity 8 — the initial Verilog row of
        // Table II.
        let mut h = StreamHarness::new(identity_wrapper()).unwrap();
        let a = [[1i32; 8]; 8];
        let b = [[2i32; 8]; 8];
        let c = [[3i32; 8]; 8];
        let (outs, timing) = h.run(&[a, b, c], 500);
        assert_eq!(outs.len(), 3);
        assert_eq!(timing.latency, 17);
        assert_eq!(timing.periodicity, 8);
        assert!(h.protocol_errors.is_empty());
    }

    #[test]
    fn functional_path_preserves_values() {
        let mut h = StreamHarness::new(identity_wrapper()).unwrap();
        let m = {
            let mut m = [[0i32; 8]; 8];
            for (r, row) in m.iter_mut().enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = (r * 8 + c) as i32 - 32; // fits in 9 bits
                }
            }
            m
        };
        let (outs, _) = h.run(&[m], 200);
        assert_eq!(
            outs[0],
            m.map(|row| row.map(|v| {
                // identity kernel truncates to 9 bits then we sign-extend back
                let x = v & 0x1ff;
                if x >= 256 {
                    x - 512
                } else {
                    x
                }
            }))
        );
    }

    #[test]
    fn compiled_backend_matches_interpreted_timing() {
        let mut interp = StreamHarness::new(identity_wrapper()).unwrap();
        let mut comp = StreamHarness::compiled(identity_wrapper()).unwrap();
        let blocks: Vec<[[i32; 8]; 8]> = (0..4).map(|k| [[k - 2; 8]; 8]).collect();
        let (outs_i, timing_i) = interp.run(&blocks, 1000);
        let (outs_c, timing_c) = comp.run(&blocks, 1000);
        assert_eq!(outs_i, outs_c);
        assert_eq!(timing_i, timing_c);
        assert!(comp.protocol_errors.is_empty());
    }

    #[test]
    fn back_to_back_matrices_all_come_through() {
        let mut h = StreamHarness::new(identity_wrapper()).unwrap();
        let blocks: Vec<[[i32; 8]; 8]> = (0..10).map(|k| [[k; 8]; 8]).collect();
        let (outs, timing) = h.run(&blocks, 2000);
        assert_eq!(outs.len(), 10);
        for (k, o) in outs.iter().enumerate() {
            assert_eq!(o[0][0], k as i32);
        }
        assert_eq!(timing.periodicity, 8);
    }

    #[test]
    fn non_8x8_geometry_streams_through() {
        let spec = MatrixWrapperSpec::new(4, 4, 12, 9);
        let w = wrap_comb_matrix("w4", spec, |m, elems| {
            elems.iter().map(|&e| m.slice(e, 0, 9)).collect()
        });
        let mut h = StreamHarness::<Simulator>::with_spec(w, spec).unwrap();
        let blocks: Vec<Vec<i32>> = (0..3)
            .map(|k| (0..16).map(|i| k * 16 + i).collect())
            .collect();
        let (outs, timing) = h.run_flat(&blocks, 500);
        assert_eq!(outs, blocks);
        assert_eq!(timing.periodicity, 4);
        assert!(h.protocol_errors.is_empty());
    }
}
