//! Property: the matrix wrappers never lose, duplicate or corrupt data
//! under arbitrary producer gaps and consumer stalls, and never violate
//! the AXI-Stream stability rules — on every engine the harness drives:
//! the interpreter, the tape engine and the scalar JIT at one lane, and
//! the vector JIT at three.
//!
//! Every suite here takes the default case count (256), which
//! `PROPTEST_CASES` overrides; CI reruns them at 1024 in release.

use hc_axi::{
    wrap_comb_matrix, wrap_pipelined_matrix, Backpressure, MatrixWrapperSpec, StreamHarness,
};
use hc_bits::Bits;
use hc_rtl::Module;
use hc_sim::{CompiledSimulator, LaneEngine, NativeBatchedSimulator, NativeSimulator, Simulator};
use proptest::prelude::*;

/// Identity kernel: output element = low 9 bits of the input element.
fn comb_dut() -> Module {
    wrap_comb_matrix("dut", MatrixWrapperSpec::idct(), |m, elems| {
        elems.iter().map(|&e| m.slice(e, 0, 9)).collect()
    })
}

/// A 2-stage pipelined identity kernel.
fn pipelined_dut() -> Module {
    let mut k = Module::new("k");
    for i in 0..64 {
        let e = k.input(format!("e{i}"), 12);
        let s = k.slice(e, 0, 9);
        let r1 = k.reg(format!("a{i}"), 9, Bits::zero(9));
        let q1 = k.reg_out(r1);
        k.connect_reg(r1, s);
        let r2 = k.reg(format!("b{i}"), 9, Bits::zero(9));
        let q2 = k.reg_out(r2);
        k.connect_reg(r2, q1);
        k.output(format!("o{i}"), q2);
    }
    wrap_pipelined_matrix("dut", MatrixWrapperSpec::idct(), &k, 2)
}

/// The output beats of one stream of 96-bit input `beats` (whole
/// matrices) under the gap pattern `gaps` (each taken mod 4) and a
/// consumer stalling every `stall_period` cycles, once per engine: the
/// interpreter, the tape engine and the scalar JIT stream `beats` on their
/// one lane; the vector JIT streams it on each of three lanes. Each
/// output beat is returned as its 72-bit word.
fn run_case(module: Module, beats: &[u64], gaps: &[u8], stall_period: u32) -> Vec<Vec<u128>> {
    fn run<E: LaneEngine>(
        sim: E,
        chunks: &[&[Vec<i32>]],
        budget: u64,
        p: &Backpressure,
    ) -> Vec<Vec<u128>> {
        let mut h = StreamHarness::from_engine(sim, MatrixWrapperSpec::idct());
        let (outs, _) = h.run_lanes_under(chunks, budget, p);
        assert!(h.protocol_errors.is_empty(), "{:?}", h.protocol_errors);
        outs.iter()
            .map(|lane| {
                lane.iter()
                    .flat_map(|block| block.chunks(8))
                    .map(|row| hc_axi::pack_elems_n(row, 9).to_u128())
                    .collect()
            })
            .collect()
    }
    // A 96-bit beat holding `b` is the row of its eight 12-bit elements.
    let blocks: Vec<Vec<i32>> = beats
        .chunks(8)
        .map(|rows| {
            rows.iter()
                .flat_map(|&b| hc_axi::unpack_elems_n(&Bits::from_u64(96, b), 12, 8))
                .collect()
        })
        .collect();
    let pressure = Backpressure {
        gaps: gaps.iter().map(|g| u32::from(g % 4)).collect(),
        stall_period,
    };
    let budget = beats.len() as u64 * 30 + 400;
    let chunks: [&[Vec<i32>]; 3] = [&blocks, &blocks, &blocks];
    let m = || module.clone();
    let mut outs = Vec::new();
    outs.extend(run(
        Simulator::new(m()).unwrap(),
        &chunks[..1],
        budget,
        &pressure,
    ));
    outs.extend(run(
        CompiledSimulator::new(m()).unwrap(),
        &chunks[..1],
        budget,
        &pressure,
    ));
    outs.extend(run(
        NativeSimulator::new(m()).unwrap(),
        &chunks[..1],
        budget,
        &pressure,
    ));
    outs.extend(run(
        NativeBatchedSimulator::new(m(), 3).unwrap(),
        &chunks,
        budget,
        &pressure,
    ));
    outs
}

proptest! {
    #[test]
    fn comb_wrapper_is_lossless_under_chaos(
        matrices in 1usize..5,
        gaps in proptest::collection::vec(any::<u8>(), 1..16),
        stall in 0u32..5,
    ) {
        let beats: Vec<u64> = (0..matrices * 8).map(|i| i as u64 * 37 + 5).collect();
        for got in run_case(comb_dut(), &beats, &gaps, if stall < 2 { 0 } else { stall }) {
            prop_assert_eq!(got.len(), beats.len());
            for (i, (&expect, &actual)) in beats.iter().zip(&got).enumerate() {
                // Identity kernel truncates each 12-bit lane to 9 bits.
                let mut want = 0u128;
                for lane in 0..8u32 {
                    let v = (u128::from(expect) >> (lane * 12)) & 0x1ff;
                    want |= v << (lane * 9);
                }
                prop_assert_eq!(actual, want, "beat {}", i);
            }
        }
    }

    #[test]
    fn pipelined_wrapper_is_lossless_under_chaos(
        matrices in 1usize..4,
        gaps in proptest::collection::vec(any::<u8>(), 1..16),
        stall in 0u32..5,
    ) {
        let beats: Vec<u64> = (0..matrices * 8).map(|i| i as u64 * 91 + 3).collect();
        for got in run_case(pipelined_dut(), &beats, &gaps, if stall < 2 { 0 } else { stall }) {
            prop_assert_eq!(got.len(), beats.len());
            let first = u128::from(beats[0] & 0x1ff);
            prop_assert_eq!(got[0] & 0x1ff, first);
        }
    }
}
