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
    // Drive with a stalling consumer: correctness must hold and the AXI
    // rules must not be violated (the elastic 3-phase pipeline is the
    // delicate one).
    use hc_axi::{AxisDriver, AxisMonitor, ProtocolChecker};
    use hc_sim::Simulator;

    let module = hc_verilog::designs::opt_rowcol().unwrap();
    let mut sim = Simulator::new(module).unwrap();
    sim.set_u64("rst", 1);
    sim.set_u64("s_axis_tvalid", 0);
    sim.set_u64("m_axis_tready", 0);
    sim.step();
    sim.set_u64("rst", 0);

    let blocks = BlockGen::new(99, -2048, 2047).take_blocks(6);
    let mut driver = AxisDriver::new("s_axis", 96);
    for (i, b) in blocks.iter().enumerate() {
        for row in &b.0 {
            driver.push_with_gap(hc_axi::pack_elems_n(row, 12), (i % 3) as u32);
        }
    }
    let mut monitor = AxisMonitor::new("m_axis").with_stalls(3);
    let mut checker = ProtocolChecker::new("m_axis");
    for _ in 0..3000 {
        monitor.before_edge(&mut sim);
        driver.before_edge(&mut sim);
        checker.before_edge(&mut sim);
        sim.step();
        if monitor.beats.len() >= blocks.len() * 8 {
            break;
        }
    }
    assert!(checker.errors.is_empty(), "{:?}", checker.errors);
    assert_eq!(monitor.beats.len(), blocks.len() * 8);
    for (i, block) in blocks.iter().enumerate() {
        let golden = fixed::idct2d(block);
        for r in 0..8 {
            let row = hc_axi::unpack_elems_n(&monitor.beats[i * 8 + r].1, 9, 8);
            assert_eq!(row, golden.row(r), "block {i} row {r}");
        }
    }
}
