//! Every Table II design must behave identically on the interpreted and
//! the compiled simulation backend: same output blocks, same measured
//! latency `T_L` and periodicity `T_P` through the AXI-Stream harness,
//! and cycle-identical port activity for the raw-stream (MaxJ-style)
//! kernels. This is what licenses running all measurements on the
//! compiled engine while keeping the interpreter as the oracle.

use hls_vs_hc::axi::{BatchedStreamHarness, StreamHarness};
use hls_vs_hc::core::entries::{all_tools, Design, DesignInterface};
use hls_vs_hc::idct::generator::BlockGen;
use hls_vs_hc::rtl::passes::optimize;
use hls_vs_hc::sim::{CompiledSimulator, SimBackend, Simulator};

fn optimized_module(design: &Design) -> hls_vs_hc::rtl::Module {
    let mut module = design.module.clone();
    optimize(&mut module);
    module
}

fn check_axis(design: &Design, inputs: &[[[i32; 8]; 8]]) {
    let module = optimized_module(design);
    let budget = 2000 * (inputs.len() as u64 + 4);
    let mut interp = StreamHarness::new(module.clone()).expect("validates");
    let mut comp = StreamHarness::compiled(module.clone()).expect("validates");
    let (iout, itiming) = interp.run(inputs, budget);
    let (cout, ctiming) = comp.run(inputs, budget);
    assert_eq!(iout, cout, "{}: outputs diverge", design.label);
    assert_eq!(itiming, ctiming, "{}: T_L/T_P diverge", design.label);

    // Batched path: two lanes, each streaming the same sequence, so lane 0
    // reproduces the scalar run exactly (it starts at reset) and the
    // flattened outputs are the sequence twice over. T_L/T_P come from
    // lane 0 and must equal the interpreted oracle's figures.
    let doubled: Vec<[[i32; 8]; 8]> = inputs.iter().chain(inputs.iter()).copied().collect();
    let mut batched = BatchedStreamHarness::new(module, 2).expect("validates");
    let (bout, btiming) = batched.run_blocks(&doubled, budget);
    let expected: Vec<[[i32; 8]; 8]> = iout.iter().chain(iout.iter()).copied().collect();
    assert_eq!(bout, expected, "{}: batched outputs diverge", design.label);
    assert_eq!(
        btiming, itiming,
        "{}: batched T_L/T_P diverge from the interpreted oracle",
        design.label
    );
    assert!(
        batched.protocol_errors.is_empty(),
        "{}: batched protocol violations",
        design.label
    );
}

/// Drives a raw-stream kernel for `cycles` cycles with a fixed input
/// pattern and records (out_valid, out_data) every cycle.
fn stream_trace<B: SimBackend>(mut sim: B, cycles: u64) -> Vec<(bool, hls_vs_hc::bits::Bits)> {
    let width = sim.module().input_named("in_data").expect("port").width;
    sim.set_u64("rst", 1);
    sim.set_u64("in_valid", 0);
    sim.step();
    sim.set_u64("rst", 0);
    sim.set_u64("in_valid", 1);
    let mut trace = Vec::new();
    for cycle in 0..cycles {
        let mut word = hls_vs_hc::bits::Bits::zero(width);
        // Arbitrary but fixed stimulus touching every input word.
        for w in (0..width).step_by(48) {
            let chunk = (width - w).min(48);
            word.deposit_u64(w, chunk, cycle.wrapping_mul(0x9e37_79b9).rotate_left(w));
        }
        sim.set("in_data", word);
        trace.push((sim.get("out_valid").to_bool(), sim.get("out_data")));
        sim.step();
    }
    trace
}

fn check_stream(design: &Design) {
    let module = optimized_module(design);
    let interp = Simulator::new(module.clone()).expect("validates");
    let comp = CompiledSimulator::new(module).expect("validates");
    assert_eq!(
        stream_trace(interp, 200),
        stream_trace(comp, 200),
        "{}: stream traces diverge",
        design.label
    );
}

/// The IR pass pipeline (const-fold → CSE → DCE), run on a copy before
/// lowering, must strictly shrink the instruction tape of every Table II
/// design relative to lowering the module as-is.
#[test]
fn optimize_option_shrinks_every_table2_tape() {
    for tool in all_tools() {
        for design in [&tool.initial, &tool.optimized] {
            let plain = CompiledSimulator::new(design.module.clone()).expect("validates");
            let opt = CompiledSimulator::new(optimized_module(design)).expect("validates");
            let (plain_len, _) = plain.tape_stats();
            let (opt_len, _) = opt.tape_stats();
            assert!(
                opt_len < plain_len,
                "{}: optimized tape {} not smaller than plain {}",
                design.label,
                opt_len,
                plain_len
            );
        }
    }
}

#[test]
fn all_table2_designs_agree_across_backends() {
    let blocks = BlockGen::new(11, -2048, 2047).take_blocks(3);
    let inputs: Vec<[[i32; 8]; 8]> = blocks.iter().map(|b| b.0).collect();
    for tool in all_tools() {
        for design in [&tool.initial, &tool.optimized] {
            match design.interface {
                DesignInterface::Axis => check_axis(design, &inputs),
                DesignInterface::Stream { .. } => check_stream(design),
            }
        }
    }
}
