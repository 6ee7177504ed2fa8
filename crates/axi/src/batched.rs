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
//! with the same matrix sequence: the per-cycle ordering is the same
//! monitor → driver → checker sequence (see `StreamHarness::run`), applied
//! in two batched phases so the whole tape settles only twice per cycle
//! instead of twice per lane:
//!
//! 1. all lanes apply `m_axis_tready` and sample `m_axis_tvalid/tdata`
//!    (the driver's inputs still hold the previous cycle's values, exactly
//!    as in the scalar loop);
//! 2. all lanes apply `s_axis_tvalid/tdata`, then sample `s_axis_tready`
//!    for the handshake and run the protocol checks.
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
        Ok(BatchedStreamHarness {
            sim,
            rows: spec.rows as usize,
            cols: spec.cols as usize,
            in_elem_width: spec.in_elem_width,
            out_elem_width: spec.out_elem_width,
            protocol_errors: Vec::new(),
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.sim.lanes()
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

        for _ in 0..max_cycles {
            if st.iter().all(|s| s.done) {
                break;
            }
            // Phase 1 — the monitor side, all lanes: apply ready, then
            // sample tvalid/tdata. The s_axis inputs still hold the
            // previous cycle's values, matching the scalar per-cycle
            // ordering (monitor before driver).
            for (lane, s) in st.iter().enumerate() {
                if !s.done {
                    self.sim.set_port_u64(lane, m_tready, 1);
                }
            }
            for (lane, s) in st.iter_mut().enumerate() {
                if !s.done && self.sim.get_port_u64(lane, m_tvalid) != 0 {
                    s.out_cycles.push(self.sim.cycle(lane));
                    let n = s.output.len();
                    s.output.resize(n + out_words, 0);
                    self.sim.get_port_words(lane, m_tdata, &mut s.output[n..]);
                }
            }
            // Phase 2 — the driver side, all lanes: apply tvalid/tdata,
            // then sample tready for the handshake; the protocol checks
            // sample last (exactly the scalar driver → checker order).
            for (lane, s) in st.iter_mut().enumerate() {
                if s.done {
                    continue;
                }
                let beat = s.input.get(s.sent * in_words..(s.sent + 1) * in_words);
                self.sim
                    .set_port_u64(lane, s_tvalid, u64::from(beat.is_some()));
                self.sim
                    .set_port_words(lane, s_tdata, beat.unwrap_or(&zero));
            }
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
    use crate::{wrap_comb_matrix, MatrixWrapperSpec, StreamHarness};

    fn identity_wrapper() -> Module {
        wrap_comb_matrix("w", MatrixWrapperSpec::idct(), |m, elems| {
            elems.iter().map(|&e| m.slice(e, 0, 9)).collect()
        })
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
