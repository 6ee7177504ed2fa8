//! Differential guarantees for the optimization pass pipeline.
//!
//! The oracle is the *unoptimized* module on the interpreted backend —
//! the netlist exactly as the frontend emitted it, executed by the
//! reference engine. Every Table II design must produce bit-identical
//! outputs and identical `T_L`/`T_P` after the full pass pipeline, the
//! pipeline must be idempotent (a second run changes nothing), and the
//! compiled-tape shrink the PR claims (≥ 20% on at least two Table II
//! designs) is pinned here so it cannot silently regress.

use hls_vs_hc::axi::{BatchedStreamHarness, StreamHarness};
use hls_vs_hc::core::entries::{all_tools, Design, DesignInterface};
use hls_vs_hc::idct::generator::BlockGen;
use hls_vs_hc::rtl::passes::{optimize, optimize_with, PassConfig};
use hls_vs_hc::sim::{CompiledSimulator, EngineOptions, SimBackend, Simulator};
use proptest::prelude::*;

fn optimized_module(design: &Design) -> hls_vs_hc::rtl::Module {
    let mut module = design.module.clone();
    optimize(&mut module);
    module
}

/// AXI designs: outputs and `T_L`/`T_P` of the optimized netlist (on the
/// compiled engine, as measured) against the unoptimized interpreter.
fn check_axis(design: &Design, inputs: &[[[i32; 8]; 8]]) {
    let budget = 2000 * (inputs.len() as u64 + 4);
    let mut oracle = StreamHarness::new(design.module.clone()).expect("validates");
    let mut opt = StreamHarness::compiled(optimized_module(design)).expect("validates");
    let (oout, otiming) = oracle.run(inputs, budget);
    let (pout, ptiming) = opt.run(inputs, budget);
    assert_eq!(oout, pout, "{}: outputs diverge after passes", design.label);
    assert_eq!(
        otiming, ptiming,
        "{}: T_L/T_P diverge after passes",
        design.label
    );
}

/// Raw-stream kernels: a port trace with a dense stimulus. `salt = 0`
/// reproduces the fixed pattern the deterministic tests pin; a nonzero
/// salt perturbs every input word for property-based runs.
fn stream_trace<B: SimBackend>(
    mut sim: B,
    cycles: u64,
    salt: u64,
) -> Vec<(bool, hls_vs_hc::bits::Bits)> {
    let width = sim.module().input_named("in_data").expect("port").width;
    sim.set_u64("rst", 1);
    sim.set_u64("in_valid", 0);
    sim.step();
    sim.set_u64("rst", 0);
    sim.set_u64("in_valid", 1);
    let mut trace = Vec::new();
    for cycle in 0..cycles {
        let mut word = hls_vs_hc::bits::Bits::zero(width);
        for w in (0..width).step_by(48) {
            let chunk = (width - w).min(48);
            let base = cycle.wrapping_mul(0x9e37_79b9).rotate_left(w);
            word.deposit_u64(w, chunk, base ^ salt.rotate_left(cycle as u32 + w));
        }
        sim.set("in_data", word);
        trace.push((sim.get("out_valid").to_bool(), sim.get("out_data")));
        sim.step();
    }
    trace
}

fn check_stream(design: &Design) {
    let oracle = Simulator::new(design.module.clone()).expect("validates");
    let opt = CompiledSimulator::new(optimized_module(design)).expect("validates");
    assert_eq!(
        stream_trace(oracle, 200, 0),
        stream_trace(opt, 200, 0),
        "{}: stream traces diverge after passes",
        design.label
    );
}

#[test]
fn optimized_netlists_match_the_unoptimized_interpreter_oracle() {
    let blocks = BlockGen::new(23, -2048, 2047).take_blocks(2);
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

/// Running the pipeline a second time on any Table II design must change
/// nothing — neither the report accounting nor the node list.
#[test]
fn pass_pipeline_is_idempotent_on_every_table2_design() {
    for tool in all_tools() {
        for design in [&tool.initial, &tool.optimized] {
            let mut module = design.module.clone();
            optimize_with(&mut module, &PassConfig::all());
            let nodes: Vec<_> = module.nodes().iter().map(|nd| nd.node.clone()).collect();
            let second = optimize_with(&mut module, &PassConfig::all());
            assert!(
                !second.changed(),
                "{}: second pipeline run changed sizes: {second:?}",
                design.label
            );
            let nodes2: Vec<_> = module.nodes().iter().map(|nd| nd.node.clone()).collect();
            assert_eq!(
                nodes, nodes2,
                "{}: second pipeline run reordered nodes",
                design.label
            );
        }
    }
}

/// The PR's headline claim: the pipeline shrinks the compiled tape by at
/// least 20% on two or more Table II designs.
#[test]
fn tape_shrinks_at_least_20_percent_on_two_designs() {
    let mut big_shrinks = Vec::new();
    for tool in all_tools() {
        for design in [&tool.initial, &tool.optimized] {
            let plain = CompiledSimulator::new(design.module.clone())
                .expect("validates")
                .tape_stats()
                .0;
            let opt =
                CompiledSimulator::with_options(design.module.clone(), EngineOptions::optimized())
                    .expect("validates")
                    .tape_stats()
                    .0;
            let shrink = (plain.saturating_sub(opt)) as f64 / plain.max(1) as f64;
            if shrink >= 0.20 {
                big_shrinks.push((design.label.clone(), plain, opt));
            }
        }
    }
    assert!(
        big_shrinks.len() >= 2,
        "expected >= 2 Table II designs with >= 20% tape shrink, got {big_shrinks:?}"
    );
}

proptest! {
    // Each case drives every Table II design through the interpreter
    // oracle, so a handful of cases already covers thousands of cycles
    // per design; more cases would only slow CI without new coverage.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Differential property for the *tape backend optimizer*: the same
    /// raw netlist (no pass pipeline) run on the compiled engine with the
    /// optimized tape must be bit-exact against the interpreter oracle on
    /// random stimuli — outputs *and* `T_L`/`T_P` — for every Table II
    /// design. AXI designs additionally go through the SoA batched engine
    /// with ragged lanes (unequal chunks, including an empty lane), whose
    /// per-lane outputs and timing must match the scalar oracle runs.
    #[test]
    fn optimized_tape_matches_interpreter_on_random_stimuli(
        seed in 1u64..u64::MAX,
        nblocks in 1usize..=2,
    ) {
        let blocks = BlockGen::new(seed, -2048, 2047).take_blocks(nblocks);
        let inputs: Vec<Vec<i32>> = blocks.iter().map(|b| b.iter().collect()).collect();
        let short = &inputs[..inputs.len() - 1];
        let budget = 2000 * (inputs.len() as u64 + 4);
        for tool in all_tools() {
            for design in [&tool.initial, &tool.optimized] {
                match design.interface {
                    DesignInterface::Axis => {
                        let mut oracle =
                            StreamHarness::new(design.module.clone()).expect("validates");
                        let mut tape =
                            StreamHarness::compiled(design.module.clone()).expect("validates");
                        let (oout, otiming) = oracle.run_flat(&inputs, budget);
                        let (tout, ttiming) = tape.run_flat(&inputs, budget);
                        prop_assert_eq!(
                            &oout, &tout,
                            "{}: optimized tape diverges from interpreter", design.label
                        );
                        prop_assert_eq!(
                            otiming, ttiming,
                            "{}: T_L/T_P diverge on the optimized tape", design.label
                        );

                        // Ragged batched lanes: full chunk, shorter chunk,
                        // empty chunk. Lane 0 must reproduce the oracle run
                        // above; lane 1 gets its own scalar oracle run.
                        let mut batched =
                            BatchedStreamHarness::new(design.module.clone(), 3)
                                .expect("validates");
                        let chunks: Vec<&[Vec<i32>]> = vec![&inputs, short, &[]];
                        let (louts, ltimings) = batched.run_lanes_flat(&chunks, budget);
                        prop_assert_eq!(
                            &louts[0], &oout,
                            "{}: batched lane 0 diverges from interpreter", design.label
                        );
                        prop_assert_eq!(
                            ltimings[0], otiming,
                            "{}: batched lane 0 timing diverges", design.label
                        );
                        if short.is_empty() {
                            prop_assert!(louts[1].is_empty());
                        } else {
                            let (sout, stiming) = oracle.run_flat(short, budget);
                            prop_assert_eq!(
                                &louts[1], &sout,
                                "{}: ragged batched lane diverges", design.label
                            );
                            prop_assert_eq!(
                                ltimings[1], stiming,
                                "{}: ragged batched lane timing diverges", design.label
                            );
                        }
                        prop_assert!(louts[2].is_empty(), "{}: empty lane produced output", design.label);
                    }
                    DesignInterface::Stream { .. } => {
                        let oracle =
                            Simulator::new(design.module.clone()).expect("validates");
                        let tape = CompiledSimulator::new(design.module.clone())
                            .expect("validates");
                        prop_assert_eq!(
                            stream_trace(oracle, 96, seed),
                            stream_trace(tape, 96, seed),
                            "{}: optimized tape stream trace diverges", design.label
                        );
                    }
                }
            }
        }
    }
}
