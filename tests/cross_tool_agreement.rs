//! Seven frontends, one algorithm: every AXI-Stream design, from every
//! language, produces the identical output stream for identical input.
//! Since PR 10 the same contract holds per *kernel*: every registry
//! kernel's seven matrix cells must agree with each other (and with the
//! golden fixed-point model) on shared stimulus.

use hls_vs_hc::axi::StreamHarness;
use hls_vs_hc::core::entries::{all_tools, DesignInterface};
use hls_vs_hc::core::matrix::{matrix_cells, wrapper_spec};
use hls_vs_hc::idct::generator::BlockGen;
use hls_vs_hc::idct::{fixed, Block};
use hls_vs_hc::kernels::kernels;
use hls_vs_hc::sim::Simulator;

#[test]
fn every_axis_design_is_bit_exact_on_shared_stimulus() {
    let blocks = BlockGen::new(2026, -2048, 2047).take_blocks(2);
    let inputs: Vec<[[i32; 8]; 8]> = blocks.iter().map(|b| b.0).collect();
    let golden: Vec<Block> = blocks.iter().map(fixed::idct2d).collect();

    for tool in all_tools() {
        for design in [tool.initial, tool.optimized] {
            if design.interface != DesignInterface::Axis {
                continue; // MaxJ kernels are covered by their own suite
            }
            let label = format!("{:?}/{}", tool.info.id, design.label);
            let mut harness = StreamHarness::new(design.module).expect("validates");
            let (outputs, _) = harness.run(&inputs, 40_000);
            assert_eq!(outputs.len(), blocks.len(), "{label}: lost matrices");
            for (i, (out, gold)) in outputs.iter().zip(&golden).enumerate() {
                assert_eq!(&Block(*out), gold, "{label}: block {i}");
            }
            assert!(harness.protocol_errors.is_empty(), "{label}: AXI violation");
        }
    }
}

/// The Table II contract, generalized along the workload axis: for every
/// registry kernel, all seven frontends' cells produce identical output
/// streams on shared stimulus — and that shared answer is the golden
/// fixed-point model's.
#[test]
fn every_matrix_cell_agrees_across_tools_on_shared_stimulus() {
    for spec in kernels() {
        if cfg!(debug_assertions) && spec.id == "idct16" {
            // ~16× the interpretation cost of the other kernels in debug
            // mode; the release matrix suite in scripts/ci.sh covers it.
            continue;
        }
        let blocks = spec.stimulus(2, 2026);
        let golden: Vec<Vec<i32>> = blocks.iter().map(|b| spec.golden(b)).collect();
        let mut reference: Option<(String, Vec<Vec<i32>>)> = None;
        for (_, design) in matrix_cells(&spec) {
            let mut h =
                StreamHarness::<Simulator>::with_spec(design.module.clone(), wrapper_spec(&spec))
                    .expect("validates");
            let (outs, _) = h.run_flat(&blocks, 200_000);
            assert!(
                h.protocol_errors.is_empty(),
                "{}: AXI violation",
                design.label
            );
            assert_eq!(outs, golden, "{}: disagrees with golden", design.label);
            match &reference {
                None => reference = Some((design.label.clone(), outs)),
                Some((ref_label, ref_outs)) => assert_eq!(
                    &outs, ref_outs,
                    "{} disagrees with {ref_label}",
                    design.label
                ),
            }
        }
    }
}
