//! Lane-batched measurement harness: many independent block streams
//! through one wrapper simulation.
//!
//! [`BatchedStreamHarness`] is the throughput counterpart of
//! [`StreamHarness`](crate::StreamHarness): it instantiates the wrapper
//! once on a [`NativeBatchedSimulator`] with `L` lanes and streams an
//! independent back-to-back matrix sequence down each lane, so the
//! instruction-dispatch cost of the compiled tape is amortized over all
//! lanes — and, on AVX2 hosts, each combinational cone runs as JIT-emitted
//! vector code over the lane store (four lanes per 256-bit register),
//! falling back to the interpreted batched engine elsewhere or under
//! `HC_NO_NATIVE=1`. Lanes that drain their sequence early are
//! masked out of the clock (their cycle counters freeze at completion,
//! preserving the per-stream timing figures).
//!
//! # Fidelity
//!
//! Each lane reproduces, cycle for cycle, what the scalar harness would do
//! with the same matrix sequence. The scalar loop (see `StreamHarness::run`)
//! runs monitor → driver → checker: it samples `m_axis_tvalid/tdata` while
//! `s_axis_tvalid/tdata` still hold the previous cycle's beat, then writes
//! the new beat and settles again to read `s_axis_tready`. The batched
//! harness settles the whole tape once per cycle instead, for all lanes:
//!
//! 1. all lanes apply `m_axis_tready` and `s_axis_tvalid/tdata`;
//! 2. one settle; from it every lane samples `m_axis_tvalid/tdata` for the
//!    monitor, `s_axis_tready` for the handshake, and runs the protocol
//!    checks.
//!
//! This is exact when no combinational path runs from
//! `s_axis_tvalid/tdata` to `m_axis_tvalid/tdata`: the monitor's ports
//! then depend only on registers, memories, `rst` and `m_axis_tready`, and
//! `m_axis_tready` is written before either order samples them, so
//! sampling before or after the driver's write reads the same values. The
//! harness decides this once, when it is built, with one forward sweep over
//! the netlist. A wrapper that has such a path keeps the scalar order and
//! two settles per cycle: phase 1 applies `m_axis_tready` and samples the
//! monitor, phase 2 applies the driver's beat and samples the handshake
//! and the checks.
//!
//! Lanes never interact — the wrapper state is fully per-lane — so
//! reordering *across* lanes is invisible. The root equivalence suite
//! asserts identical outputs and `T_L`/`T_P` against the interpreted
//! oracle for every Table II design.
//!
//! The batched harness drives back-to-back only (no valid gaps, no ready
//! stalls): that is the configuration every measurement in the paper uses.
//!
//! The per-cycle loop moves little-endian `u64` words through resolved
//! port handles (`set_port_words`/`get_port_words`): every input beat is
//! packed once before the run and every output beat decoded once after
//! it, so the loop itself neither builds a `Bits` nor allocates.

use crate::adapter::MatrixWrapperSpec;
use crate::harness::{pack_words, unpack_words, StreamTiming};
use crate::ProtocolError;
use hc_rtl::{Module, ValidateError};
use hc_sim::{EngineOptions, NativeBatchedSimulator};

/// Whether a combinational path runs from `s_axis_tvalid`/`s_axis_tdata`
/// to `m_axis_tvalid`/`m_axis_tdata`. One forward sweep over the node
/// list, which is topologically ordered: a node is reached when one of its
/// operands is, so a register output or a constant ends a path and an
/// asynchronous memory read follows its address.
fn driver_reaches_monitor(module: &Module) -> bool {
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

/// How many lanes to use for a run of `nblocks` independent matrices.
///
/// Each lane needs at least three matrices so its steady-state periodicity
/// measurement matches the scalar harness (which reads the spacing of the
/// last matrix pair); beyond that, more lanes amortize dispatch better, up
/// to a cap where the structure-of-arrays rows stop fitting cache lines
/// nicely.
pub fn lanes_for_blocks(nblocks: usize) -> usize {
    (nblocks / 3).clamp(1, 16)
}

/// One lane's stream, kept as flat words so the per-cycle loop never
/// allocates: the slave-side driver (`AxisDriver`) is an index into the
/// pre-packed input beats, the monitor (`AxisMonitor`) appends cycles and
/// output words, and the stability checker (`ProtocolChecker`) holds a
/// stalled beat's words.
#[derive(Debug)]
struct Lane {
    /// Input beats, packed once, `in_words` little-endian words each.
    input: Vec<u64>,
    /// Input beats accepted so far; the driver offers beat `sent` next.
    sent: usize,
    /// Cycle of the lane's first accepted input beat.
    first_in: Option<u64>,
    /// Cycle of each output beat.
    out_cycles: Vec<u64>,
    /// Output beats, `out_words` words each.
    output: Vec<u64>,
    /// Output beats after which the lane is done.
    expected: usize,
    done: bool,
    /// An output beat was valid but not ready at the last edge.
    stalled: bool,
    /// That beat's data.
    held: Vec<u64>,
}

/// Feeds an independent 8×8 matrix stream down each lane of a batched
/// wrapper simulation and measures per-lane timing.
///
/// Expects the conventional adapter interface (`rst`, `s_axis_*`,
/// `m_axis_*`), like [`StreamHarness`](crate::StreamHarness).
#[derive(Debug)]
pub struct BatchedStreamHarness {
    sim: NativeBatchedSimulator,
    rows: usize,
    cols: usize,
    in_elem_width: u32,
    out_elem_width: u32,
    /// No combinational path reaches the monitor's ports from the
    /// driver's, so each cycle drives first and settles once.
    settles_once: bool,
    /// Protocol violations observed during runs, tagged `(lane, error)`.
    pub protocol_errors: Vec<(usize, ProtocolError)>,
}

impl BatchedStreamHarness {
    /// Builds an `lanes`-lane harness for the IDCT element widths (12-bit
    /// in, 9-bit out) and applies one reset cycle to every lane.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally
    /// invalid.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(module: Module, lanes: usize) -> Result<Self, ValidateError> {
        Self::with_spec(module, lanes, MatrixWrapperSpec::idct())
    }

    /// A batched harness for an explicit wrapper geometry.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally
    /// invalid.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn with_spec(
        module: Module,
        lanes: usize,
        spec: MatrixWrapperSpec,
    ) -> Result<Self, ValidateError> {
        let mut sim =
            NativeBatchedSimulator::with_options(module, lanes, EngineOptions::default())?;
        sim.set_all_u64("rst", 1);
        sim.set_all_u64("s_axis_tvalid", 0);
        sim.set_all_u64("m_axis_tready", 0);
        sim.step();
        sim.set_all_u64("rst", 0);
        let settles_once = !driver_reaches_monitor(sim.module());
        Ok(BatchedStreamHarness {
            sim,
            rows: spec.rows as usize,
            cols: spec.cols as usize,
            in_elem_width: spec.in_elem_width,
            out_elem_width: spec.out_elem_width,
            settles_once,
            protocol_errors: Vec::new(),
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.sim.lanes()
    }

    /// Whether each cycle settles the netlist once (the wrapper has no
    /// combinational path from `s_axis_tvalid/tdata` to
    /// `m_axis_tvalid/tdata`) rather than twice; see the module's
    /// Fidelity section.
    pub fn settles_once(&self) -> bool {
        self.settles_once
    }

    /// Access to the simulator (e.g. for probing or tier reports).
    pub fn simulator_mut(&mut self) -> &mut NativeBatchedSimulator {
        &mut self.sim
    }

    /// Streams `matrices` through the wrapper, split into one contiguous
    /// back-to-back chunk per lane, and returns the decoded outputs in the
    /// original order plus the timing of lane 0 (whose chunk starts at
    /// reset exactly like a scalar run, so its `T_L`/`T_P` are the scalar
    /// figures).
    ///
    /// `max_cycles` bounds the *per-lane* cycle count, like the scalar
    /// harness's budget bounds its single stream.
    pub fn run_blocks(
        &mut self,
        matrices: &[[[i32; 8]; 8]],
        max_cycles: u64,
    ) -> (Vec<[[i32; 8]; 8]>, StreamTiming) {
        assert_eq!(
            (self.rows, self.cols),
            (8, 8),
            "run_blocks() is the 8x8 API"
        );
        let flat: Vec<Vec<i32>> = matrices
            .iter()
            .map(|m| m.iter().flatten().copied().collect())
            .collect();
        let (outs, timing) = self.run_blocks_flat(&flat, max_cycles);
        let outputs = outs
            .into_iter()
            .map(|o| {
                let mut m = [[0i32; 8]; 8];
                for (i, v) in o.into_iter().enumerate() {
                    m[i / 8][i % 8] = v;
                }
                m
            })
            .collect();
        (outputs, timing)
    }

    /// Streams row-major `rows`×`cols` blocks through the wrapper, split
    /// into one contiguous back-to-back chunk per lane, and returns the
    /// decoded outputs in the original order plus the timing of lane 0
    /// (whose chunk starts at reset exactly like a scalar run, so its
    /// `T_L`/`T_P` are the scalar figures).
    ///
    /// `max_cycles` bounds the *per-lane* cycle count, like the scalar
    /// harness's budget bounds its single stream.
    pub fn run_blocks_flat(
        &mut self,
        blocks: &[Vec<i32>],
        max_cycles: u64,
    ) -> (Vec<Vec<i32>>, StreamTiming) {
        let lanes = self.lanes();
        let chunk = blocks.len().div_ceil(lanes).max(1);
        let chunks: Vec<&[Vec<i32>]> = (0..lanes)
            .map(|k| {
                let lo = (k * chunk).min(blocks.len());
                let hi = ((k + 1) * chunk).min(blocks.len());
                &blocks[lo..hi]
            })
            .collect();
        let (outs, timings) = self.run_lanes_flat(&chunks, max_cycles);
        (outs.into_iter().flatten().collect(), timings[0])
    }

    /// Streams one independent row-major block sequence per lane
    /// (back-to-back within each lane) and returns each lane's decoded
    /// outputs and timing figures. `chunks.len()` must equal
    /// [`lanes`](Self::lanes); empty chunks are allowed. Gives up after
    /// `max_cycles` per lane (callers assert on output counts).
    ///
    /// # Panics
    ///
    /// Panics if a block does not have `rows * cols` elements, or the
    /// wrapper's `tdata` ports are narrower than one row.
    pub fn run_lanes_flat(
        &mut self,
        chunks: &[&[Vec<i32>]],
        max_cycles: u64,
    ) -> (Vec<Vec<Vec<i32>>>, Vec<StreamTiming>) {
        let lanes = self.lanes();
        let rows = self.rows;
        let cols = self.cols;
        assert_eq!(chunks.len(), lanes, "one matrix sequence per lane");
        // Resolve the port handles once: the per-lane per-cycle loops below
        // would otherwise pay a name lookup on every call, which at high
        // lane counts costs more than the amortized tape evaluation itself.
        let m_tready = self.sim.in_port("m_axis_tready");
        let m_tvalid = self.sim.out_port("m_axis_tvalid");
        let m_tdata = self.sim.out_port("m_axis_tdata");
        let s_tvalid = self.sim.in_port("s_axis_tvalid");
        let s_tdata = self.sim.in_port("s_axis_tdata");
        let s_tready = self.sim.out_port("s_axis_tready");
        assert_eq!(
            s_tdata.width(),
            self.in_elem_width * cols as u32,
            "s_axis_tdata carries one row"
        );
        assert!(
            m_tdata.width() >= self.out_elem_width * cols as u32,
            "m_axis_tdata carries one row"
        );
        let (in_words, out_words) = (s_tdata.words(), m_tdata.words());
        let mut st: Vec<Lane> = chunks
            .iter()
            .map(|chunk| {
                let mut input = vec![0; chunk.len() * rows * in_words];
                let mut beats = input.chunks_exact_mut(in_words);
                for block in *chunk {
                    assert_eq!(block.len(), rows * cols, "block has rows*cols elements");
                    for (row, beat) in block.chunks(cols).zip(&mut beats) {
                        pack_words(row, self.in_elem_width, beat);
                    }
                }
                Lane {
                    input,
                    sent: 0,
                    first_in: None,
                    out_cycles: Vec::with_capacity(chunk.len() * rows),
                    output: Vec::with_capacity(chunk.len() * rows * out_words),
                    expected: chunk.len() * rows,
                    done: chunk.is_empty(),
                    stalled: false,
                    held: vec![0; out_words],
                }
            })
            .collect();
        let zero = vec![0u64; in_words];
        let mut sampled = vec![0u64; out_words];
        // A lane is done once its expected output beats have been
        // collected; it is then masked out of the clock so its state and
        // cycle counter freeze, and its BFMs stop acting.
        for (lane, s) in st.iter().enumerate() {
            if s.done {
                self.sim.set_active(lane, false);
            }
        }

        // The driver side, all lanes: offer the next beat, or nothing once
        // the chunk is sent.
        let drive = |sim: &mut NativeBatchedSimulator, st: &[Lane]| {
            for (lane, s) in st.iter().enumerate() {
                if s.done {
                    continue;
                }
                let beat = s.input.get(s.sent * in_words..(s.sent + 1) * in_words);
                sim.set_port_u64(lane, s_tvalid, u64::from(beat.is_some()));
                sim.set_port_words(lane, s_tdata, beat.unwrap_or(&zero));
            }
        };

        for _ in 0..max_cycles {
            if st.iter().all(|s| s.done) {
                break;
            }
            // m_axis_tready goes first in either order: it may reach
            // s_axis_tready combinationally. Settling once, the driver
            // writes too, and the monitor, the handshake and the checks
            // below all read one settle: the monitor's ports do not depend
            // combinationally on the driver's, so they read what the
            // scalar loop reads before its driver acts.
            for (lane, s) in st.iter().enumerate() {
                if !s.done {
                    self.sim.set_port_u64(lane, m_tready, 1);
                }
            }
            if self.settles_once {
                drive(&mut self.sim, &st);
            }
            // The monitor side, all lanes: sample tvalid/tdata. Settling
            // twice, s_axis still holds the previous cycle's beat here, as
            // in the scalar loop (monitor before driver).
            for (lane, s) in st.iter_mut().enumerate() {
                if !s.done && self.sim.get_port_u64(lane, m_tvalid) != 0 {
                    s.out_cycles.push(self.sim.cycle(lane));
                    let n = s.output.len();
                    s.output.resize(n + out_words, 0);
                    self.sim.get_port_words(lane, m_tdata, &mut s.output[n..]);
                }
            }
            if !self.settles_once {
                drive(&mut self.sim, &st);
            }
            // The handshake samples tready with the beat applied; the
            // protocol checks sample last (the scalar driver → checker
            // order). Settling twice, the first read here settles again.
            for (lane, s) in st.iter_mut().enumerate() {
                if s.done {
                    continue;
                }
                let cycle = self.sim.cycle(lane);
                let offering = s.sent * in_words < s.input.len();
                if offering && self.sim.get_port_u64(lane, s_tready) != 0 {
                    s.sent += 1;
                    s.first_in.get_or_insert(cycle);
                }
                // Stability rules (ProtocolChecker::before_edge). tdata is
                // read only around a stall: in the back-to-back
                // configuration no beat ever stalls, so the held-data
                // comparison almost never runs.
                let valid = self.sim.get_port_u64(lane, m_tvalid) != 0;
                let ready = self.sim.input_port_u64(lane, m_tready) != 0;
                if std::mem::take(&mut s.stalled) {
                    let rule = if valid {
                        self.sim.get_port_words(lane, m_tdata, &mut sampled);
                        (sampled != s.held).then_some("tdata changed while stalled")
                    } else {
                        Some("tvalid deasserted before handshake")
                    };
                    if let Some(rule) = rule {
                        self.protocol_errors.push((
                            lane,
                            ProtocolError {
                                cycle,
                                rule: rule.into(),
                            },
                        ));
                    }
                }
                if valid && !ready {
                    self.sim.get_port_words(lane, m_tdata, &mut s.held);
                    s.stalled = true;
                }
            }
            self.sim.step();
            for (lane, s) in st.iter_mut().enumerate() {
                if !s.done && s.out_cycles.len() >= s.expected {
                    s.done = true;
                    self.sim.set_active(lane, false);
                }
            }
        }

        // Re-arm every lane for a potential next run — finished lanes were
        // masked out of the clock above so their counters froze.
        for lane in 0..lanes {
            self.sim.set_active(lane, true);
        }

        let mut outputs = Vec::with_capacity(lanes);
        let mut timings = Vec::with_capacity(lanes);
        for s in &st {
            let out: Vec<Vec<i32>> = s
                .output
                .chunks_exact(rows * out_words)
                .map(|beats| {
                    let mut block = Vec::with_capacity(rows * cols);
                    for beat in beats.chunks_exact(out_words) {
                        unpack_words(beat, self.out_elem_width, cols, &mut block);
                    }
                    block
                })
                .collect();
            outputs.push(out);
            // Timing per lane: latency of the lane's matrix 0, periodicity
            // from the spacing of its last two matrices' first output
            // beats (same extraction as the scalar harness).
            let mut timing = StreamTiming::default();
            if let (Some(first_in), false) = (s.first_in, s.out_cycles.is_empty()) {
                if let Some(last) = s.out_cycles.get(rows - 1) {
                    timing.latency = last - first_in + 1;
                }
                let matrices = s.out_cycles.len().div_ceil(rows);
                if matrices >= 2 {
                    timing.periodicity =
                        s.out_cycles[(matrices - 1) * rows] - s.out_cycles[(matrices - 2) * rows];
                }
            }
            timings.push(timing);
        }
        (outputs, timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{pack_row, unpack_row};
    use crate::{wrap_comb_matrix, AxisMaster, AxisSlave, MatrixWrapperSpec, StreamHarness};
    use hc_bits::Bits;
    use hc_rtl::{BinaryOp, NodeId, UnaryOp};

    fn identity_wrapper() -> Module {
        wrap_comb_matrix("w", MatrixWrapperSpec::idct(), |m, elems| {
            elems.iter().map(|&e| m.slice(e, 0, 9)).collect()
        })
    }

    /// A module with the harness's ports at the IDCT widths: `wire` maps
    /// `[s_axis_tdata, s_axis_tvalid, m_axis_tready]` to
    /// `[m_axis_tdata, m_axis_tvalid, s_axis_tready]`.
    fn axis_module(wire: impl FnOnce(&mut Module, [NodeId; 3]) -> [NodeId; 3]) -> Module {
        let mut m = Module::new("t");
        m.input("rst", 1);
        let s = AxisSlave::declare(&mut m, "s_axis", 96);
        let out = AxisMaster::declare(&mut m, "m_axis");
        let [data, valid, ready] = wire(&mut m, [s.tdata, s.tvalid, out.tready]);
        out.set_outputs(&mut m, "m_axis", data, valid);
        s.set_ready(&mut m, "s_axis", ready);
        m.validate().unwrap();
        m
    }

    /// The output of a register loaded from `d` every cycle.
    fn delayed(m: &mut Module, name: &str, d: NodeId) -> NodeId {
        let w = m.width(d);
        let r = m.reg(name, w, Bits::zero(w));
        m.connect_reg(r, d);
        m.reg_out(r)
    }

    #[test]
    fn a_register_ends_the_path() {
        let m = axis_module(|m, [data, valid, ready]| {
            let held = delayed(m, "held", data);
            let data = m.slice(held, 0, 72);
            let valid = delayed(m, "valid", valid);
            [data, valid, ready]
        });
        assert!(!driver_reaches_monitor(&m));
    }

    #[test]
    fn an_async_memory_read_follows_its_address() {
        let m = axis_module(|m, [data, valid, ready]| {
            let rom = m.mem("rom", 72, 16);
            let addr = m.slice(data, 0, 4);
            let word = m.mem_read(rom, addr);
            let valid = delayed(m, "valid", valid);
            [word, valid, ready]
        });
        assert!(driver_reaches_monitor(&m));
    }

    #[test]
    fn tvalid_through_logic_is_a_path() {
        let m = axis_module(|m, [data, valid, ready]| {
            let held = delayed(m, "held", data);
            let data = m.slice(held, 0, 72);
            let armed = delayed(m, "armed", valid);
            let valid = m.binary(BinaryOp::And, valid, armed, 1);
            [data, valid, ready]
        });
        assert!(driver_reaches_monitor(&m));
    }

    #[test]
    fn a_ready_to_ready_path_alone_is_no_path() {
        // m_axis_tready reaches s_axis_tready and m_axis_tvalid, as in the
        // wrappers' hand-over logic; the driver's ports reach neither
        // monitor port.
        let m = axis_module(|m, [data, valid, ready]| {
            let held = delayed(m, "held", data);
            let data = m.slice(held, 0, 72);
            let full = delayed(m, "full", valid);
            let valid = m.binary(BinaryOp::And, full, ready, 1);
            let free = m.unary(UnaryOp::Not, full);
            let ready = m.binary(BinaryOp::Or, free, ready, 1);
            [data, valid, ready]
        });
        assert!(!driver_reaches_monitor(&m));
    }

    /// A wrapper whose monitor ports are combinational functions of the
    /// driver's: `m_axis_tvalid = s_axis_tvalid`, each output element the
    /// low 9 bits of its input element, `s_axis_tready = m_axis_tready`.
    fn pass_through_wrapper() -> Module {
        axis_module(|m, [data, valid, ready]| {
            let elems: Vec<NodeId> = unpack_row(m, data, 12, 8)
                .into_iter()
                .map(|e| m.slice(e, 0, 9))
                .collect();
            [pack_row(m, &elems), valid, ready]
        })
    }

    #[test]
    fn a_driver_to_monitor_path_keeps_two_settles() {
        // The scalar harness samples the monitor before its driver writes,
        // so it sees each beat one cycle after it was accepted: T_L = 9
        // (8 beats plus that cycle). Settling once would read the beat in
        // the cycle it is offered and measure 8.
        assert!(driver_reaches_monitor(&pass_through_wrapper()));
        let blocks: Vec<[[i32; 8]; 8]> = (0..9)
            .map(|k| {
                std::array::from_fn(|r| std::array::from_fn(|c| k * 20 + (r * 8 + c) as i32 - 128))
            })
            .collect();
        let mut scalar = StreamHarness::compiled(pass_through_wrapper()).unwrap();
        let (souts, stiming) = scalar.run(&blocks, 400);
        assert_eq!(souts, blocks);
        let pinned = StreamTiming {
            latency: 9,
            periodicity: 8,
        };
        assert_eq!(stiming, pinned);
        for lanes in [1, 3] {
            let mut batched = BatchedStreamHarness::new(pass_through_wrapper(), lanes).unwrap();
            assert!(!batched.settles_once());
            let (bouts, btiming) = batched.run_blocks(&blocks, 400);
            assert_eq!(bouts, blocks, "{lanes} lanes");
            assert_eq!(btiming, pinned, "{lanes} lanes");
            assert!(batched.protocol_errors.is_empty());
        }
    }

    #[test]
    fn lane_rule_bounds() {
        assert_eq!(lanes_for_blocks(0), 1);
        assert_eq!(lanes_for_blocks(1), 1);
        assert_eq!(lanes_for_blocks(3), 1);
        assert_eq!(lanes_for_blocks(9), 3);
        assert_eq!(lanes_for_blocks(64), 16);
        assert_eq!(lanes_for_blocks(10_000), 16);
    }

    #[test]
    fn batched_matches_scalar_outputs_and_timing() {
        let blocks: Vec<[[i32; 8]; 8]> = (0..24)
            .map(|k| {
                let mut m = [[0i32; 8]; 8];
                for (r, row) in m.iter_mut().enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = ((k * 64 + r * 8 + c) as i32 % 400) - 200;
                    }
                }
                m
            })
            .collect();
        let budget = 2000 * (blocks.len() as u64 + 4);
        let mut scalar = StreamHarness::compiled(identity_wrapper()).unwrap();
        let (souts, stiming) = scalar.run(&blocks, budget);
        let lanes = lanes_for_blocks(blocks.len());
        let mut batched = BatchedStreamHarness::new(identity_wrapper(), lanes).unwrap();
        assert!(batched.settles_once());
        let (bouts, btiming) = batched.run_blocks(&blocks, budget);
        assert_eq!(souts, bouts);
        assert_eq!(stiming, btiming);
        assert!(batched.protocol_errors.is_empty());
    }

    #[test]
    fn single_lane_is_the_scalar_harness() {
        let blocks: Vec<[[i32; 8]; 8]> = (0..3).map(|k| [[k - 1; 8]; 8]).collect();
        let mut scalar = StreamHarness::compiled(identity_wrapper()).unwrap();
        let (souts, stiming) = scalar.run(&blocks, 2000);
        let mut batched = BatchedStreamHarness::new(identity_wrapper(), 1).unwrap();
        let (bouts, btiming) = batched.run_blocks(&blocks, 2000);
        assert_eq!(souts, bouts);
        assert_eq!(stiming, btiming);
    }

    #[test]
    fn ragged_lanes_complete_independently() {
        // Uneven chunks: lanes finish at different times and are masked
        // out without disturbing the stragglers.
        let mk = |k: i32| vec![k; 64];
        let c0 = [mk(1), mk(2), mk(3), mk(4)];
        let c1 = [mk(5)];
        let c2: [Vec<i32>; 0] = [];
        let mut batched = BatchedStreamHarness::new(identity_wrapper(), 3).unwrap();
        let chunks: Vec<&[Vec<i32>]> = vec![&c0, &c1, &c2];
        let (outs, timings) = batched.run_lanes_flat(&chunks, 2000);
        assert_eq!(outs[0].len(), 4);
        assert_eq!(outs[1].len(), 1);
        assert!(outs[2].is_empty());
        assert_eq!(outs[0][2], mk(3));
        assert_eq!(outs[1][0], mk(5));
        assert_eq!(timings[0].latency, 17);
        assert_eq!(timings[1].latency, 17);
        assert_eq!(timings[2], StreamTiming::default());
    }
}
