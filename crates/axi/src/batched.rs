//! The lane-batched harness: the one [`StreamHarness`] loop on the vector
//! JIT.
//!
//! [`BatchedStreamHarness`] instantiates the wrapper once on a
//! [`NativeBatchedSimulator`] with `L` lanes and streams an independent
//! back-to-back block sequence down each lane, so the instruction-dispatch
//! cost of the compiled tape is amortized over all lanes — and, on AVX2
//! hosts, each combinational component runs as JIT-emitted vector code over
//! the lane store (four lanes per 256-bit register), falling back to the
//! interpreted batched engine elsewhere or under `HC_NO_NATIVE=1`. The
//! IEEE 1180 RTL runs use it. Lane 0 starts at reset exactly like a
//! one-lane run, so its `T_L`/`T_P` are the scalar figures.

use std::ops::{Deref, DerefMut};

use crate::adapter::MatrixWrapperSpec;
use crate::harness::{StreamHarness, StreamTiming};
use hc_rtl::{Module, ValidateError};
use hc_sim::NativeBatchedSimulator;

/// How many lanes to use for a run of `nblocks` independent matrices.
///
/// Each lane needs at least three matrices so its steady-state periodicity
/// measurement matches a one-lane run (which reads the spacing of the last
/// matrix pair); beyond that, more lanes amortize dispatch better, up to a
/// cap where the structure-of-arrays rows stop fitting cache lines nicely.
pub fn lanes_for_blocks(nblocks: usize) -> usize {
    (nblocks / 3).clamp(1, 16)
}

/// A [`StreamHarness`] on an `L`-lane vector JIT, which it dereferences to.
#[derive(Debug)]
pub struct BatchedStreamHarness(StreamHarness<NativeBatchedSimulator>);

impl BatchedStreamHarness {
    /// Builds an `lanes`-lane harness for the 8×8 IDCT geometry and applies
    /// one reset cycle to every lane.
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
        let sim = NativeBatchedSimulator::new(module, lanes)?;
        Ok(BatchedStreamHarness(StreamHarness::from_engine(sim, spec)))
    }

    /// [`StreamHarness::run`]: 8×8 matrices split into one contiguous
    /// chunk per lane, outputs in input order, lane 0's timing.
    pub fn run_blocks(
        &mut self,
        matrices: &[[[i32; 8]; 8]],
        max_cycles: u64,
    ) -> (Vec<[[i32; 8]; 8]>, StreamTiming) {
        self.0.run(matrices, max_cycles)
    }

    /// [`StreamHarness::run_flat`] under its batched name.
    pub fn run_blocks_flat(
        &mut self,
        blocks: &[Vec<i32>],
        max_cycles: u64,
    ) -> (Vec<Vec<i32>>, StreamTiming) {
        self.0.run_flat(blocks, max_cycles)
    }
}

impl Deref for BatchedStreamHarness {
    type Target = StreamHarness<NativeBatchedSimulator>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for BatchedStreamHarness {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{pack_row, unpack_row};
    use crate::harness::driver_reaches_monitor;
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
