//! The interpreted tier of the lane-batched engine on the kernel ×
//! frontend matrix: every AXI-Stream cell, built with the vector JIT off,
//! must be bit-exact with its golden model and reproduce the interpreted
//! oracle's `T_L`/`T_P`.
//!
//! The JIT is turned off by a process-wide `HC_NO_NATIVE` override around
//! each harness build. This test has a binary of its own so that no other
//! test builds an engine in this process while the override is in force:
//! a JIT engine built in that window would run interpreted and still pass
//! (`tests/kernel_matrix.rs` holds the JIT tiers).

mod matrix;

use matrix::{batched_harness, check_batched_tier};

/// Builds under a temporary `HC_NO_NATIVE` override: the interpreted twin
/// of whatever `build` constructs.
fn without_jit<T>(build: impl FnOnce() -> T) -> T {
    let baseline = hls_vs_hc::obs::config::config().as_ref().clone();
    hls_vs_hc::obs::config::set_override(hls_vs_hc::obs::Config {
        no_native: true,
        ..baseline.clone()
    });
    let built = build();
    hls_vs_hc::obs::config::set_override(baseline);
    built
}

#[test]
fn every_axis_cell_matches_golden_batched_interpreted() {
    check_batched_tier("batched-interp", false, |spec, design| {
        without_jit(|| batched_harness(spec, design))
    });
}
