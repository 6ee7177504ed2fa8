//! The kernel × frontend benchmark matrix, ridden across all five
//! simulation backends: every registry kernel, in every frontend, must be
//! bit-exact with its golden fixed-point model on the interpreted oracle,
//! the compiled tape, the native (per-part JIT) engine, and — for the
//! AXI-Stream cells — both tiers of the lane-batched engine. The vector
//! JIT runs here; the batched interpreter has a test binary of its own
//! (`tests/kernel_matrix_interpreted.rs`), because it is built under a
//! process-wide `HC_NO_NATIVE` override that would turn off the JIT of
//! any engine another test of this binary built meanwhile. Both JIT tiers
//! fail a cell whose engine runs no generated code on a host that
//! supports it.
//!
//! This is the generalization of the Table II conformance suite along the
//! workload axis: the single-workload seed only ever exercised the 8×8
//! IDCT, which let several frontend bugs hide (an 8-bit HLS iteration
//! counter, 8-bit pipelined induction literals, a width-aligning
//! `select_index`). Every cell here would re-expose them.

mod matrix;

use hls_vs_hc::core::entries::DesignInterface;
use hls_vs_hc::core::matrix::{matrix_cells, tool_slug};
use hls_vs_hc::sim::{CompiledSimulator, NativeSimulator, Simulator};
use matrix::{
    batched_harness, check_axis, check_batched_tier, check_stream, kernels_under_test, Tier,
};

/// Every cell of every kernel on one scalar backend.
fn check_all_cells<B: Tier>(tier: &str) {
    for spec in kernels_under_test() {
        for (_, design) in matrix_cells(&spec) {
            match design.interface {
                DesignInterface::Axis => {
                    check_axis::<B>(&spec, &design, tier);
                }
                DesignInterface::Stream { .. } => check_stream::<B>(&spec, &design, tier),
            }
        }
    }
}

#[test]
fn every_cell_matches_golden_interpreted() {
    check_all_cells::<Simulator>("interp");
}

#[test]
fn every_cell_matches_golden_compiled() {
    check_all_cells::<CompiledSimulator>("compiled");
}

#[test]
fn every_cell_matches_golden_native() {
    check_all_cells::<NativeSimulator>("native");
}

/// Pins T_L/T_P (latency and periodicity, in cycles) for every AXI cell
/// of every kernel on the interpreted oracle. A scheduler or II-search
/// regression that keeps outputs bit-exact but silently changes timing —
/// exactly the class of bug the rules scheduler and the HLS II search
/// were audited for in this PR — trips this table.
#[test]
fn per_kernel_timing_is_pinned() {
    #[rustfmt::skip]
    let expected: &[(&str, &str, u64, u64)] = &[
        // (kernel, frontend, latency, periodicity)
        // Verilog/construct double-buffer at T_P = rows; rules pays the
        // BSC-style 3-phase bubble (3·rows, or rows+1 for the FIR's
        // accumulate-only rules); flow adds its ALAP pipeline stages to
        // latency at the same T_P; Bambu is sequential (elems·rows-ish);
        // pragma-rescued Vivado HLS sits back at the adapter ceiling.
        ("dct8",   "verilog",      17,    8),
        ("dct8",   "construct",    17,    8),
        ("dct8",   "rules",        32,   24),
        ("dct8",   "flow",         22,    8),
        ("dct8",   "hls_bambu",  1362, 1354),
        ("dct8",   "hls_vivado",   27,    8),
        ("fir32",  "verilog",      17,    8),
        ("fir32",  "construct",    17,    8),
        ("fir32",  "rules",        17,    9),
        ("fir32",  "flow",         22,    8),
        ("fir32",  "hls_bambu",  2161, 2153),
        ("fir32",  "hls_vivado",   28,    8),
        ("idct4",  "verilog",       9,    4),
        ("idct4",  "construct",     9,    4),
        ("idct4",  "rules",        16,   12),
        ("idct4",  "flow",         14,    4),
        ("idct4",  "hls_bambu",   218,  214),
        ("idct4",  "hls_vivado",   16,    4),
        ("idct16", "verilog",      33,   16),
        ("idct16", "construct",    33,   16),
        ("idct16", "rules",        64,   48),
        ("idct16", "flow",         38,   16),
        ("idct16", "hls_bambu",  9506, 9490),
        ("idct16", "hls_vivado",   50,   16),
    ];
    let sweep = kernels_under_test();
    let mut actual: Vec<(&str, &str, u64, u64)> = Vec::new();
    for spec in &sweep {
        for (tool, design) in matrix_cells(spec) {
            if !matches!(design.interface, DesignInterface::Axis) {
                continue; // dataflow cells pin periodicity 1 in hc-core
            }
            let (lat, per) = check_axis::<Simulator>(spec, &design, "timing");
            actual.push((spec.id, tool_slug(tool), lat, per));
        }
    }
    // Debug builds sweep a reduced kernel set; filter the table to match.
    let want: Vec<(&str, &str, u64, u64)> = expected
        .iter()
        .filter(|(k, ..)| sweep.iter().any(|s| s.id == *k))
        .copied()
        .collect();
    assert_eq!(
        actual, want,
        "per-kernel T_L/T_P drifted; measured table:\n{actual:#?}"
    );
}

#[test]
fn every_axis_cell_matches_golden_native_batched() {
    check_batched_tier("native-batched", true, batched_harness);
}
