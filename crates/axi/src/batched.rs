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
//! `HC_NO_NATIVE_BATCHED=1`. Lanes that drain their sequence early are
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

use crate::adapter::MatrixWrapperSpec;
use crate::harness::{pack_elems_n, unpack_elems_n, StreamTiming};
use crate::ProtocolError;
use hc_bits::Bits;
use hc_rtl::{Module, ValidateError};
use hc_sim::{EngineOptions, NativeBatchedSimulator};
use std::collections::VecDeque;

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

/// Per-lane slave-side driver state (back-to-back, mirrors `AxisDriver`).
#[derive(Debug, Default)]
struct LaneDriver {
    queue: VecDeque<Bits>,
    beats_sent: u64,
}

/// Per-lane checker state (mirrors `ProtocolChecker`).
#[derive(Debug, Default)]
struct LaneChecker {
    waiting: Option<Bits>,
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
    #[allow(clippy::too_many_lines, clippy::type_complexity)]
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
        // would otherwise pay a name lookup (and a heap allocation for the
        // narrow flags) on every call, which at high lane counts costs more
        // than the amortized tape evaluation itself.
        let m_tready = self.sim.in_port("m_axis_tready");
        let m_tvalid = self.sim.out_port("m_axis_tvalid");
        let m_tdata = self.sim.out_port("m_axis_tdata");
        let s_tvalid = self.sim.in_port("s_axis_tvalid");
        let s_tdata = self.sim.in_port("s_axis_tdata");
        let s_tready = self.sim.out_port("s_axis_tready");
        let mut drivers: Vec<LaneDriver> = (0..lanes).map(|_| LaneDriver::default()).collect();
        let mut checkers: Vec<LaneChecker> = (0..lanes).map(|_| LaneChecker::default()).collect();
        let mut beats: Vec<Vec<(u64, Bits)>> = vec![Vec::new(); lanes];
        let mut first_in_beats: Vec<Vec<u64>> = vec![Vec::new(); lanes];
        let mut driver_valid = vec![false; lanes];
        for (lane, chunk) in chunks.iter().enumerate() {
            for block in *chunk {
                assert_eq!(block.len(), rows * cols, "block has rows*cols elements");
                for row in block.chunks(cols) {
                    drivers[lane]
                        .queue
                        .push_back(pack_elems_n(row, self.in_elem_width));
                }
            }
        }
        let expected_beats: Vec<usize> = chunks.iter().map(|c| c.len() * rows).collect();
        let zero_word = Bits::zero(self.in_elem_width * cols as u32);
        // A lane is done once its expected output beats have been
        // collected; it is then masked out of the clock so its state and
        // cycle counter freeze, and its BFMs stop acting.
        let mut done: Vec<bool> = expected_beats.iter().map(|&e| e == 0).collect();
        for (lane, &d) in done.iter().enumerate() {
            if d {
                self.sim.set_active(lane, false);
            }
        }

        for _ in 0..max_cycles {
            if done.iter().all(|&d| d) {
                break;
            }
            // Phase 1 — the monitor side, all lanes: apply ready, then
            // sample tvalid/tdata. The s_axis inputs still hold the
            // previous cycle's values, matching the scalar per-cycle
            // ordering (monitor before driver).
            for (lane, &d) in done.iter().enumerate() {
                if !d {
                    self.sim.set_port_u64(lane, m_tready, 1);
                }
            }
            for lane in 0..lanes {
                if done[lane] {
                    continue;
                }
                if self.sim.get_port_u64(lane, m_tvalid) != 0 {
                    let cycle = self.sim.cycle(lane);
                    let data = self.sim.get_port(lane, m_tdata);
                    beats[lane].push((cycle, data));
                }
            }
            // Phase 2 — the driver side, all lanes: apply tvalid/tdata,
            // then sample tready for the handshake; the protocol checks
            // sample last (exactly the scalar driver → checker order).
            for lane in 0..lanes {
                if done[lane] {
                    continue;
                }
                let valid = !drivers[lane].queue.is_empty();
                driver_valid[lane] = valid;
                self.sim.set_port_u64(lane, s_tvalid, u64::from(valid));
                let data = drivers[lane].queue.front().unwrap_or(&zero_word);
                self.sim.set_port(lane, s_tdata, data);
            }
            for lane in 0..lanes {
                if done[lane] {
                    continue;
                }
                if driver_valid[lane] && self.sim.get_port_u64(lane, s_tready) != 0 {
                    let d = &mut drivers[lane];
                    d.queue.pop_front();
                    d.beats_sent += 1;
                    if (d.beats_sent - 1).is_multiple_of(rows as u64) {
                        first_in_beats[lane].push(self.sim.cycle(lane));
                    }
                }
                // Stability rules (ProtocolChecker::before_edge). tdata is
                // gathered lazily: in the back-to-back configuration no beat
                // ever stalls, so the held-data comparison almost never runs.
                let cycle = self.sim.cycle(lane);
                let valid = self.sim.get_port_u64(lane, m_tvalid) != 0;
                let ready = self.sim.input_port_u64(lane, m_tready) != 0;
                let chk = &mut checkers[lane];
                if let Some(held) = chk.waiting.take() {
                    if !valid {
                        self.protocol_errors.push((
                            lane,
                            ProtocolError {
                                cycle,
                                rule: "tvalid deasserted before handshake".into(),
                            },
                        ));
                    } else if held != self.sim.get_port(lane, m_tdata) {
                        self.protocol_errors.push((
                            lane,
                            ProtocolError {
                                cycle,
                                rule: "tdata changed while stalled".into(),
                            },
                        ));
                    }
                }
                chk.waiting = if valid && !ready {
                    Some(self.sim.get_port(lane, m_tdata))
                } else {
                    None
                };
            }
            self.sim.step();
            for lane in 0..lanes {
                if !done[lane] && beats[lane].len() >= expected_beats[lane] {
                    done[lane] = true;
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
        for lane in 0..lanes {
            let out: Vec<Vec<i32>> = beats[lane]
                .chunks(rows)
                .filter(|c| c.len() == rows)
                .map(|beat_rows| {
                    let mut block = Vec::with_capacity(rows * cols);
                    for (_, bits) in beat_rows {
                        block.extend(unpack_elems_n(bits, self.out_elem_width, cols));
                    }
                    block
                })
                .collect();
            outputs.push(out);
            // Timing per lane: latency of the lane's matrix 0, periodicity
            // from its steady state (same extraction as the scalar
            // harness).
            let mut timing = StreamTiming::default();
            if !beats[lane].is_empty() && !first_in_beats[lane].is_empty() {
                if let Some((last, _)) = beats[lane].get(rows - 1) {
                    timing.latency = last - first_in_beats[lane][0] + 1;
                }
                let firsts: Vec<u64> = beats[lane].iter().step_by(rows).map(|(c, _)| *c).collect();
                if firsts.len() >= 3 {
                    timing.periodicity = firsts[firsts.len() - 1] - firsts[firsts.len() - 2];
                } else if firsts.len() == 2 {
                    timing.periodicity = firsts[1] - firsts[0];
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
