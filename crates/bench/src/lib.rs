//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Binaries (run with `cargo run -p hc-bench --release --bin <name>`):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table I — languages and tools under evaluation |
//! | `table2` | Table II — the full evaluation (text + CSV) |
//! | `fig1` | Fig. 1 — the Performance × Area design-space scatter |
//! | `ieee1180` | §III-B — the full IEEE 1180-1990 compliance run |
//! | `ablations` | §IV observations: unit scaling, stage sweep, adapter ceiling, maxdsp |
//!
//! Criterion benches (`cargo bench -p hc-bench`) time the moving parts of
//! the infrastructure itself (simulation, synthesis, scheduling) over the
//! same designs.

use std::sync::OnceLock;

/// The kernel registry of the benchmark matrix, re-exported so drivers
/// and tests can write `hc_bench::kernels::kernels()`.
pub use hc_kernels as kernels;

use hc_core::entries::{all_tools, dse_points, Design};
use hc_core::measure::{measure, measure_uncached, Measurement};
use hc_core::par::{adaptive_chunk, parallel_map_chunked};
use hc_core::tool::ToolId;

/// The Fig. 1 work list — every (tool, DSE point) pair in stable sweep
/// order — elaborated once per process. Elaborating the ~70 designs costs
/// far more than measuring several of them, so the sweep drivers share
/// this list instead of re-running every frontend per call.
pub fn fig1_work() -> &'static [(ToolId, Design)] {
    static WORK: OnceLock<Vec<(ToolId, Design)>> = OnceLock::new();
    WORK.get_or_init(|| {
        all_tools()
            .iter()
            .flat_map(|tool| {
                dse_points(tool.info.id)
                    .into_iter()
                    .map(move |design| (tool.info.id, design))
            })
            .collect()
    })
}

/// Picks the sweep's chunk size by timing one representative point (whose
/// front-half lands in the memo cache, so the probe is not wasted work).
fn fig1_chunk(work: &[(ToolId, Design)], nblocks: usize) -> usize {
    let Some((_, probe)) = work.first() else {
        return 1;
    };
    let start = std::time::Instant::now();
    let _ = measure(probe, nblocks);
    adaptive_chunk(work.len(), start.elapsed().as_secs_f64())
}

/// Measures every DSE point of every tool — the Fig. 1 dataset.
///
/// The ~70 points are independent, so they fan out across the available
/// cores in adaptively-sized chunks (~50 ms of estimated work per task);
/// the optimize + synthesize front-half is memoized per distinct module.
/// Results come back in the same (tool, point) order as a serial sweep.
pub fn fig1_points(nblocks: usize) -> Vec<(ToolId, Measurement)> {
    let work = fig1_work();
    let chunk = fig1_chunk(work, nblocks);
    parallel_map_chunked(work, chunk, |(id, design)| (*id, measure(design, nblocks)))
}

/// The legacy serial sweep: re-elaborates every design and runs the cold
/// uncached measure pipeline per point, exactly as every driver did before
/// the memo cache existed. `perfsnap` keeps it as the baseline that
/// `fig1_speedup` compares the memoized + chunked driver against.
pub fn fig1_points_serial(nblocks: usize) -> Vec<(ToolId, Measurement)> {
    let mut out = Vec::new();
    for tool in all_tools() {
        for design in dse_points(tool.info.id) {
            out.push((tool.info.id, measure_uncached(&design, nblocks)));
        }
    }
    out
}

/// [`fig1_points`] with per-point wall-clock seconds, for the `perfsnap`
/// timing record; also returns the chunk size the scheduler picked. Timing
/// happens inside the worker, so the figures are honest per-point costs
/// regardless of how the pool interleaves them, and the result vector is
/// in stable sweep order (input order), not completion order.
pub fn fig1_points_timed(nblocks: usize) -> (Vec<(ToolId, Measurement, f64)>, usize) {
    let work = fig1_work();
    let chunk = fig1_chunk(work, nblocks);
    let points = parallel_map_chunked(work, chunk, |(id, design)| {
        let start = std::time::Instant::now();
        let m = measure(design, nblocks);
        (*id, m, start.elapsed().as_secs_f64())
    });
    (points, chunk)
}

/// Linear-interpolated percentile (`q` in `0..=100`) of an unsorted
/// sample, the convention used for the `fig1_point_seconds_p50`/`_p90`
/// fields of `BENCH_sim.json`. Returns 0.0 on an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (q.clamp(0.0, 100.0) / 100.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Wraps an AXI-Stream IDCT wrapper module as a batch IDCT function for
/// [`hc_idct::ieee1180::measure_range_batched`]: each call streams the
/// whole batch through a lane-batched harness (one contiguous chunk per
/// lane) and returns the decoded blocks in input order. The module runs
/// through the IR pass pipeline once, here, as on every measurement path:
/// the engines build from the optimized netlist.
///
/// # Panics
///
/// The returned closure panics if the module fails validation or the
/// harness loses blocks.
pub fn rtl_idct_batched(
    mut module: hc_rtl::Module,
) -> impl FnMut(&[hc_idct::Block]) -> Vec<hc_idct::Block> {
    hc_rtl::passes::optimize(&mut module);
    move |batch| {
        let lanes = hc_axi::lanes_for_blocks(batch.len());
        let mut harness = hc_axi::BatchedStreamHarness::new(module.clone(), lanes)
            .expect("RTL IDCT wrapper validates");
        let inputs: Vec<[[i32; 8]; 8]> = batch.iter().map(|b| b.0).collect();
        let (outputs, _) = harness.run_blocks(&inputs, 2000 * (batch.len() as u64 + 4));
        assert_eq!(outputs.len(), batch.len(), "harness lost blocks");
        assert!(harness.protocol_errors.is_empty());
        outputs.into_iter().map(hc_idct::Block).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert!((percentile(&s, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&s, 90.0) - 3.7).abs() < 1e-12);
    }
}
