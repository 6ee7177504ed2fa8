//! End-to-end conformance of the Verilog IDCT designs: every architecture
//! must be bit-exact with the golden fixed-point model through its
//! AXI-Stream interface, with the paper's latency/periodicity figures.

use hc_axi::StreamHarness;
use hc_idct::generator::{corner_cases, BlockGen};
use hc_idct::{fixed, Block};

fn check_design(
    module: hc_rtl::Module,
    expect_latency: u64,
    expect_periodicity: u64,
    blocks: &[Block],
) {
    let name = module.name().to_owned();
    let mut harness = StreamHarness::new(module).expect("design validates");
    let inputs: Vec<[[i32; 8]; 8]> = blocks.iter().map(|b| b.0).collect();
    let (outputs, timing) = harness.run(&inputs, 200 * (blocks.len() as u64 + 4));
    assert_eq!(outputs.len(), blocks.len(), "{name}: all matrices emerge");
    for (i, (block, out)) in blocks.iter().zip(&outputs).enumerate() {
        let golden = fixed::idct2d(block);
        assert_eq!(Block(*out), golden, "{name}: block {i} mismatch");
    }
    assert!(harness.protocol_errors.is_empty(), "{name}: AXI violations");
    assert_eq!(timing.latency, expect_latency, "{name}: latency");
    assert_eq!(
        timing.periodicity, expect_periodicity,
        "{name}: periodicity"
    );
}

fn stimulus() -> Vec<Block> {
    let mut blocks = corner_cases();
    blocks.extend(BlockGen::new(2023, -2048, 2047).take_blocks(12));
    blocks.extend(BlockGen::new(7, -300, 300).take_blocks(12));
    blocks
}

#[test]
fn initial_design_is_bit_exact_with_paper_timing() {
    check_design(
        hc_verilog::designs::initial_design().unwrap(),
        17,
        8,
        &stimulus(),
    );
}

#[test]
fn opt_row8col_is_bit_exact_with_paper_timing() {
    check_design(
        hc_verilog::designs::opt_row8col().unwrap(),
        17,
        8,
        &stimulus(),
    );
}

#[test]
fn opt_rowcol_is_bit_exact_with_paper_timing() {
    check_design(
        hc_verilog::designs::opt_rowcol().unwrap(),
        24,
        8,
        &stimulus(),
    );
}

#[test]
fn optimized_design_survives_backpressure() {
    // Drive with producer gaps and a stalling consumer on every engine:
    // correctness must hold and the AXI rules must not be violated (the
    // elastic 3-phase pipeline is the delicate one).
    use hc_axi::{Backpressure, MatrixWrapperSpec, ProtocolError};
    use hc_sim::{
        CompiledSimulator, LaneEngine, NativeBatchedSimulator, NativeSimulator, Simulator,
    };

    type Run = (Vec<Vec<Vec<i32>>>, Vec<(usize, ProtocolError)>);
    fn run<E: LaneEngine>(sim: E, chunks: &[&[Vec<i32>]], pressure: &Backpressure) -> Run {
        let mut h = StreamHarness::from_engine(sim, MatrixWrapperSpec::idct());
        let (outs, _) = h.run_lanes_under(chunks, 3000, pressure);
        (outs, h.protocol_errors)
    }

    let module = hc_verilog::designs::opt_rowcol().unwrap();
    let blocks: Vec<Vec<i32>> = BlockGen::new(99, -2048, 2047)
        .take_blocks(6)
        .iter()
        .map(|b| b.iter().collect())
        .collect();
    // Each row of a lane's block `i` leaves `i % 3` idle cycles after it.
    let pressure = Backpressure {
        gaps: (0..24).map(|beat| beat / 8 % 3).collect(),
        stall_period: 3,
    };
    // The scalar engines stream lane 0; the vector JIT all three lanes.
    let chunks: [&[Vec<i32>]; 3] = [&blocks, &blocks[2..], &blocks[..1]];
    let one = &chunks[..1];
    let m = || module.clone();
    let runs = [
        ("interp", run(Simulator::new(m()).unwrap(), one, &pressure)),
        (
            "tape",
            run(CompiledSimulator::new(m()).unwrap(), one, &pressure),
        ),
        (
            "scalar JIT",
            run(NativeSimulator::new(m()).unwrap(), one, &pressure),
        ),
        (
            "vector JIT",
            run(
                NativeBatchedSimulator::new(m(), 3).unwrap(),
                &chunks,
                &pressure,
            ),
        ),
    ];
    for (engine, (outs, errors)) in runs {
        assert!(errors.is_empty(), "{engine}: {errors:?}");
        for (lane, out) in outs.iter().enumerate() {
            assert_eq!(out.len(), chunks[lane].len(), "{engine} lane {lane}");
            for (i, (block, o)) in chunks[lane].iter().zip(out).enumerate() {
                let golden = fixed::idct2d(&Block::from_fn(|r, c| block[r * 8 + c]));
                let golden: Vec<i32> = golden.iter().collect();
                assert_eq!(o, &golden, "{engine} lane {lane} block {i}");
            }
        }
    }
}
