//! Differential suite for the scalar native-code tier.
//!
//! [`hc_sim::NativeSimulator`] (per-cone x86-64 JIT with tape-interpreter
//! fallback) must be bit-exact with the interpreted oracle on every
//! Table II design — initial *and* optimized, including the
//! memory-bearing designs whose transpose buffers exercise the per-cone
//! fallback path. The engine under test is built from the same module as
//! its oracle, so any divergence is the native tier's fault by
//! construction.

use hc_bits::Bits;
use hc_sim::{NativeSimulator, SimBackend, Simulator};

/// Deterministic 64-bit LCG (Knuth constants) — the stimulus source for
/// the Table II sweep, so failures replay exactly.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // The multiplier's low bits are weak; mix the halves down.
        self.0 ^ (self.0 >> 33)
    }

    /// A random `Bits` value of arbitrary width (64-bit chunks).
    fn bits(&mut self, width: u32) -> Bits {
        let mut v = Bits::zero(width);
        let mut off = 0;
        while off < width {
            let chunk = (width - off).min(64);
            v.deposit_u64(off, chunk, self.next());
            off += chunk;
        }
        v
    }
}

/// Every Table II design, native vs. interpreted, on random stimulus over
/// every input port. Also pins the coverage split on x86-64: the design
/// set must contain both fully-JIT-compiled cones and interpreter-
/// fallback cones (the memory designs), or the fallback path would be
/// dead weight the suite never exercised.
#[test]
fn table_ii_designs_native_matches_interpreter() {
    let mut rng = Lcg(0x9e3779b97f4a7c15);
    let mut compiled_total = 0usize;
    let mut fallback_total = 0usize;
    for tool in hc_core::entries::all_tools() {
        for design in [&tool.initial, &tool.optimized] {
            let mut oracle =
                Simulator::new(design.module.clone()).expect("Table II designs validate");
            let mut native =
                NativeSimulator::new(design.module.clone()).expect("Table II designs validate");
            let report = native.native_report();
            compiled_total += report.cones_compiled;
            fallback_total += report.cones_fallback;

            let ports: Vec<(String, u32)> = native
                .module()
                .inputs()
                .iter()
                .map(|p| (p.name.clone(), p.width))
                .collect();
            let outs: Vec<String> = native
                .module()
                .outputs()
                .iter()
                .map(|o| o.name.clone())
                .collect();
            for cycle in 0..24 {
                for (name, width) in &ports {
                    let v = rng.bits(*width);
                    oracle.set(name, v.clone());
                    native.set(name, v);
                }
                for out in &outs {
                    assert_eq!(
                        native.get(out),
                        SimBackend::get(&mut oracle, out),
                        "{}: output {out} diverged at cycle {cycle}",
                        design.label
                    );
                }
                oracle.step();
                native.step();
            }
            assert_eq!(native.cycle(), oracle.cycle(), "{}", design.label);
        }
    }
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    if !hc_obs::config().no_native {
        assert!(
            compiled_total > 0,
            "no Table II cone compiled to machine code"
        );
        assert!(
            fallback_total > 0,
            "no Table II cone took the interpreter fallback (memory designs should)"
        );
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    {
        let _ = (compiled_total, fallback_total);
    }
}
