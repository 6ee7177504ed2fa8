//! Shared drivers of the kernel × frontend matrix suites
//! (`tests/kernel_matrix.rs` and `tests/kernel_matrix_interpreted.rs`):
//! stream a cell's stimulus through an engine and require bit-exact
//! agreement with the kernel's golden fixed-point model.
#![allow(dead_code)] // each test crate uses a subset

use hls_vs_hc::axi::{pack_elems_n, unpack_elems_n, BatchedStreamHarness, StreamHarness};
use hls_vs_hc::core::entries::{Design, DesignInterface};
use hls_vs_hc::core::matrix::{matrix_cells, wrapper_spec};
use hls_vs_hc::kernels::{kernels, KernelSpec};
use hls_vs_hc::sim::{CompiledSimulator, NativeSimulator, SimBackend, Simulator};

/// Per-lane cycle budget; generous enough for the slowest cell (the
/// sequential Bambu 16×16 transform).
const BUDGET: u64 = 200_000;

const NBLOCKS: usize = 2;

/// The kernels each test sweeps. Debug builds drop the 16×16 IDCT — its
/// 256-element cells cost ~16× the rest under the un-optimized
/// interpreter (tens of minutes across five backends) — and rely on the
/// release-mode run of these suites in `scripts/ci.sh` for full coverage.
pub fn kernels_under_test() -> Vec<KernelSpec> {
    kernels()
        .into_iter()
        .filter(|k| !cfg!(debug_assertions) || k.id != "idct16")
        .collect()
}

fn stimulus(spec: &KernelSpec) -> Vec<Vec<i32>> {
    spec.stimulus(NBLOCKS, 42)
}

/// True when this host runs the scalar JIT: x86-64 Linux, without
/// `HC_NO_NATIVE`.
fn jit_expected() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
        && !hls_vs_hc::obs::config::config().no_native
}

/// True when this host runs the vector JIT: the scalar JIT's conditions
/// plus AVX2.
fn vector_expected() -> bool {
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    jit_expected() && avx2
}

/// A scalar engine as the matrix drives it. The JIT reports whether any
/// of its parts runs as generated code: an engine that fell back to the
/// tape interpreter still matches its golden model, so without the check
/// a JIT tier that lost its code would pass.
pub trait Tier: SimBackend {
    /// `None` for the interpreted engines.
    fn jit_engaged(&self) -> Option<bool> {
        None
    }
}

impl Tier for Simulator {}

impl Tier for CompiledSimulator {}

impl Tier for NativeSimulator {
    fn jit_engaged(&self) -> Option<bool> {
        Some(self.native_report().cones_compiled > 0)
    }
}

fn assert_engaged<B: Tier>(sim: &B, label: &str, tier: &str) {
    assert!(
        sim.jit_engaged() != Some(false) || !jit_expected(),
        "{label}/{tier}: no part runs as generated code on a host that supports the JIT"
    );
}

/// Streams the stimulus through an AXI cell on backend `B` and asserts
/// golden agreement; returns (latency, periodicity).
pub fn check_axis<B: Tier>(spec: &KernelSpec, design: &Design, tier: &str) -> (u64, u64) {
    let mut h = StreamHarness::<B>::with_spec(design.module.clone(), wrapper_spec(spec))
        .expect("matrix cells validate");
    assert_engaged(h.simulator_mut(), &design.label, tier);
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
pub fn check_stream<B: Tier>(spec: &KernelSpec, design: &Design, tier: &str) {
    let mut sim = B::from_module(design.module.clone()).expect("matrix cells validate");
    assert_engaged(&sim, &design.label, tier);
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

/// The two-lane batched harness of an AXI cell, as built by default.
pub fn batched_harness(spec: &KernelSpec, design: &Design) -> BatchedStreamHarness {
    BatchedStreamHarness::with_spec(design.module.clone(), 2, wrapper_spec(spec))
        .expect("matrix cells validate")
}

/// The lane-batched engine against the interpreted oracle: two lanes
/// streaming the stimulus twice over must reproduce the scalar outputs
/// and lane-0 timing exactly. `build` makes each cell's harness; `vector`
/// says whether the tier runs vector code (where the host supports it),
/// and is checked on every harness.
pub fn check_batched_tier(
    tier: &str,
    vector: bool,
    build: impl Fn(&KernelSpec, &Design) -> BatchedStreamHarness,
) {
    for spec in kernels_under_test() {
        for (_, design) in matrix_cells(&spec) {
            if !matches!(design.interface, DesignInterface::Axis) {
                continue; // stream cells are single-lane by construction
            }
            let (lat, per) = check_axis::<Simulator>(&spec, &design, "interp-oracle");
            let blocks = stimulus(&spec);
            let doubled: Vec<Vec<i32>> = blocks.iter().chain(blocks.iter()).cloned().collect();
            let mut h = build(&spec, &design);
            assert_eq!(
                h.simulator_mut().vector_active(),
                vector && vector_expected(),
                "{}/{tier}: vector code engaged where it should not, or not where it should",
                design.label
            );
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
