//! §III-B: all implementations are IEEE Std 1180-1990 compliant.
//!
//! The golden fixed-point model runs the full standard procedure (10 000
//! blocks per range and sign); hardware designs — bit-exact with the model
//! by the conformance suites — are spot-checked through simulation on a
//! reduced run.

use hls_vs_hc::axi::StreamHarness;
use hls_vs_hc::idct::ieee1180::{measure_all, measure_range, STANDARD_BLOCKS};
use hls_vs_hc::idct::rand1180::Rand1180;
use hls_vs_hc::idct::{fixed, Block};

/// The golden model's exact statistics on the full standard procedure,
/// `(ppe, pmse, omse, pme, ome)` per run in `measure_all`'s order. They
/// are compared bit for bit, so a change to the stimulus, the fixed-point
/// model, the `f64` reference or the statistics arithmetic that moves any
/// figure fails here, not only one that flips the verdict.
const GOLDEN_STATS: [(i32, f64, f64, f64, f64); 6] = [
    (1, 0.0222, 0.018920312500000005, 0.0041, 0.0002203125),
    (1, 0.0221, 0.018926562500000008, 0.0037, 0.0001203125),
    (1, 0.0125, 0.010320312499999996, 0.0024, 8.59375e-5),
    (1, 0.0126, 0.0103234375, 0.0024, 0.0002140625),
    (1, 0.0242, 0.019948437500000003, 0.0032, 0.0004828125),
    (1, 0.0242, 0.019971875000000004, 0.0032, 0.00059375),
];

#[test]
fn golden_model_passes_the_full_standard_procedure() {
    let runs = measure_all(fixed::idct2d, STANDARD_BLOCKS);
    assert_eq!(runs.len(), GOLDEN_STATS.len());
    for (((l, h), negate, stats), want) in runs.into_iter().zip(GOLDEN_STATS) {
        assert!(
            stats.is_compliant(),
            "range (-{l}, {h}) negate={negate}: {:?}",
            stats.violations()
        );
        let got = (stats.ppe, stats.pmse, stats.omse, stats.pme, stats.ome);
        let bits = |s: (i32, f64, f64, f64, f64)| {
            (
                s.0,
                s.1.to_bits(),
                s.2.to_bits(),
                s.3.to_bits(),
                s.4.to_bits(),
            )
        };
        assert_eq!(
            bits(got),
            bits(want),
            "range (-{l}, {h}) negate={negate}: {got:?} vs {want:?}"
        );
    }
}

#[test]
fn hardware_design_is_compliant_on_a_sampled_run() {
    // Simulating 60 000 blocks is out of reach for a unit test; 300 blocks
    // through the real RTL checks that hardware == golden on the
    // standard's own stimulus (bit-exactness then carries the full-run
    // verdict over).
    let module = hls_vs_hc::verilog::designs::opt_rowcol().expect("parses");
    let mut harness = StreamHarness::new(module).expect("validates");
    let mut rng = Rand1180::new();
    let blocks: Vec<Block> = (0..300)
        .map(|_| Block::from_fn(|_, _| rng.next_in(256, 255)))
        .collect();
    let inputs: Vec<[[i32; 8]; 8]> = blocks.iter().map(|b| b.0).collect();
    let (outputs, _) = harness.run(&inputs, 40_000);
    assert_eq!(outputs.len(), blocks.len());
    for (b, o) in blocks.iter().zip(&outputs) {
        assert_eq!(Block(*o), fixed::idct2d(b));
    }
}

#[test]
fn reduced_run_statistics_are_stable() {
    // The compliance harness itself is deterministic: two runs agree.
    let a = measure_range(&mut |b| fixed::idct2d(b), 300, 300, 500, false);
    let b = measure_range(&mut |b| fixed::idct2d(b), 300, 300, 500, false);
    assert_eq!(a, b);
    assert!(a.ppe <= 1);
}
