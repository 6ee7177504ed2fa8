//! The kernel × frontend benchmark matrix, ridden across all five
//! simulation backends: every registry kernel, in every frontend, must be
//! bit-exact with its golden fixed-point model on the interpreted oracle,
//! the compiled tape, the native (per-cone JIT) engine, and — for the
//! AXI-Stream cells — both tiers of the lane-batched engine (vector JIT
//! and batched interpreter).
//!
//! This is the generalization of the Table II conformance suite along the
//! workload axis: the single-workload seed only ever exercised the 8×8
//! IDCT, which let several frontend bugs hide (an 8-bit HLS iteration
//! counter, 8-bit pipelined induction literals, a width-aligning
//! `select_index`). Every cell here would re-expose them.

use hls_vs_hc::axi::{pack_elems_n, unpack_elems_n, BatchedStreamHarness, StreamHarness};
use hls_vs_hc::core::entries::{Design, DesignInterface};
use hls_vs_hc::core::matrix::{matrix_cells, tool_slug, wrapper_spec};
use hls_vs_hc::kernels::{kernels, KernelSpec};
use hls_vs_hc::sim::{CompiledSimulator, NativeSimulator, SimBackend, Simulator};

/// Per-lane cycle budget; generous enough for the slowest cell (the
/// sequential Bambu 16×16 transform).
const BUDGET: u64 = 200_000;

const NBLOCKS: usize = 2;

/// The kernels each test sweeps. Debug builds drop the 16×16 IDCT — its
/// 256-element cells cost ~16× the rest under the un-optimized
/// interpreter (tens of minutes across five backends) — and rely on the
/// release-mode run of this suite in `scripts/ci.sh` for full coverage.
fn kernels_under_test() -> Vec<KernelSpec> {
    kernels()
        .into_iter()
        .filter(|k| !cfg!(debug_assertions) || k.id != "idct16")
        .collect()
}

fn stimulus(spec: &KernelSpec) -> Vec<Vec<i32>> {
    spec.stimulus(NBLOCKS, 42)
}

/// Streams the stimulus through an AXI cell on backend `B` and asserts
/// golden agreement; returns (latency, periodicity).
fn check_axis<B: SimBackend>(spec: &KernelSpec, design: &Design, tier: &str) -> (u64, u64) {
    let mut h = StreamHarness::<B>::with_spec(design.module.clone(), wrapper_spec(spec))
        .expect("matrix cells validate");
    let blocks = stimulus(spec);
    let (outs, timing) = h.run_flat(&blocks, BUDGET);
    assert_eq!(
        outs.len(),
        blocks.len(),
        "{}/{tier}: lost blocks",
        design.label
    );
    for (i, (o, b)) in outs.iter().zip(&blocks).enumerate() {
        assert_eq!(
            o,
            &spec.golden(b),
            "{}/{tier}: block {i} not bit-exact",
            design.label
        );
    }
    assert!(
        h.protocol_errors.is_empty(),
        "{}/{tier}: AXI violation",
        design.label
    );
    (timing.latency, timing.periodicity)
}

/// Drives a full-block stream cell (the dataflow column) on backend `B`
/// and asserts golden agreement.
fn check_stream<B: SimBackend>(spec: &KernelSpec, design: &Design, tier: &str) {
    let mut sim = B::from_module(design.module.clone()).expect("matrix cells validate");
    let blocks = stimulus(spec);
    sim.set_u64("rst", 1);
    sim.set_u64("in_valid", 0);
    sim.step();
    sim.set_u64("rst", 0);
    sim.set_u64("in_valid", 1);
    let zero = pack_elems_n(&vec![0; spec.elems()], spec.in_width);
    let mut outs: Vec<Vec<i32>> = Vec::new();
    for cycle in 0..blocks.len() + 2_000 {
        match blocks.get(cycle) {
            Some(blk) => sim.set("in_data", pack_elems_n(blk, spec.in_width)),
            None => sim.set("in_data", zero.clone()),
        }
        if sim.get("out_valid").to_bool() {
            outs.push(unpack_elems_n(
                &sim.get("out_data"),
                spec.out_width,
                spec.elems(),
            ));
        }
        sim.step();
        if outs.len() >= blocks.len() {
            break;
        }
    }
    assert_eq!(
        outs.len(),
        blocks.len(),
        "{}/{tier}: lost blocks",
        design.label
    );
    for (i, (o, b)) in outs.iter().zip(&blocks).enumerate() {
        assert_eq!(
            o,
            &spec.golden(b),
            "{}/{tier}: block {i} not bit-exact",
            design.label
        );
    }
}

/// Every cell of every kernel on one scalar backend.
fn check_all_cells<B: SimBackend>(tier: &str) {
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

/// Builds under a temporary `HC_NO_NATIVE` override, i.e. the interpreted
/// twin of whatever `build` constructs. The override is process-wide but
/// lasts only for the construction, and every tier computes identical
/// results, so a concurrent test that observes it stays correct.
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

/// The lane-batched engine (both tiers) against the interpreted oracle:
/// two lanes streaming the stimulus twice over must reproduce the scalar
/// outputs and lane-0 timing exactly.
fn check_batched_tier(tier: &str, jit: bool) {
    for spec in kernels_under_test() {
        for (_, design) in matrix_cells(&spec) {
            if !matches!(design.interface, DesignInterface::Axis) {
                continue; // stream cells are single-lane by construction
            }
            let (lat, per) = check_axis::<Simulator>(&spec, &design, "interp-oracle");
            let blocks = stimulus(&spec);
            let doubled: Vec<Vec<i32>> = blocks.iter().chain(blocks.iter()).cloned().collect();
            let build = || {
                BatchedStreamHarness::with_spec(design.module.clone(), 2, wrapper_spec(&spec))
                    .expect("matrix cells validate")
            };
            let mut h = if jit { build() } else { without_jit(build) };
            let (outs, timing) = h.run_blocks_flat(&doubled, BUDGET);
            assert_eq!(
                outs.len(),
                doubled.len(),
                "{}/{tier}: lost blocks",
                design.label
            );
            for (i, (o, b)) in outs.iter().zip(&doubled).enumerate() {
                assert_eq!(
                    o,
                    &spec.golden(b),
                    "{}/{tier}: block {i} not bit-exact",
                    design.label
                );
            }
            assert_eq!(
                (timing.latency, timing.periodicity),
                (lat, per),
                "{}/{tier}: T_L/T_P diverge from the interpreted oracle",
                design.label
            );
            assert!(
                h.protocol_errors.is_empty(),
                "{}/{tier}: AXI violation",
                design.label
            );
        }
    }
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
    check_batched_tier("native-batched", true);
}

#[test]
fn every_axis_cell_matches_golden_batched_interpreted() {
    check_batched_tier("batched-interp", false);
}
