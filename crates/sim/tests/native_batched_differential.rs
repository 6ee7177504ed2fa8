//! Differential suite for the vector-JIT lane-batched tier.
//!
//! [`hc_sim::NativeBatchedSimulator`] (per-cone AVX2 codegen over the SoA
//! lane store, with per-chunk fallback to the batched interpreter) must be
//! bit-exact, lane for lane, with the interpreted [`BatchedSimulator`]
//! oracle:
//!
//! 1. on every Table II design — initial *and* optimized, including the
//!    memory-bearing designs whose transpose buffers force interpreted
//!    chunks — across lane counts 1 (degenerate), 5 (ragged tail), and 16
//!    (the measurement default), and
//! 2. on random recipe-built modules under ragged per-lane stimulus with
//!    lanes retiring at different times, via proptest.
//!
//! The suite also pins coverage on AVX2 hosts (some cones must compile,
//! some must fall back, or a path is dead weight) and exercises the
//! `HC_NO_NATIVE` escape hatch as a forced-fallback A/B twin.
//!
//! Config overrides are process-global; tests that flip or assert on them
//! serialize through [`CFG_LOCK`].

mod common;

use std::sync::Mutex;

use common::{step_strategy, WIDE};
use hc_bits::Bits;
use hc_sim::{BatchedSimulator, LaneEngine, NativeBatchedSimulator, Simulator};
use proptest::prelude::*;

/// Serializes the tests that set or depend on a process-global config
/// override (`HC_NO_NATIVE`).
static CFG_LOCK: Mutex<()> = Mutex::new(());

/// Whether the vector tier can engage in this process right now.
fn tier_available() -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let cfg = hc_obs::config();
        !cfg.no_native && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    {
        false
    }
}

/// Deterministic 64-bit LCG (Knuth constants) — the stimulus source for
/// the Table II sweep, so failures replay exactly.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 ^ (self.0 >> 33)
    }

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

/// Every Table II design through the vector engine vs. the interpreted
/// batched oracle, with independent random stimulus on every lane, at a
/// degenerate, a ragged, and the measurement-default lane count. Also
/// pins the coverage split: the design set must contain both fully
/// vector-compiled cones and fallback cones.
#[test]
fn table_ii_designs_vector_matches_batched_interpreter() {
    let _guard = CFG_LOCK.lock().unwrap();
    let mut rng = Lcg(0x9e3779b97f4a7c15);
    let mut compiled_total = 0usize;
    let mut fallback_total = 0usize;
    for lanes in [1usize, 5, 16] {
        for tool in hc_core::entries::all_tools() {
            for design in [&tool.initial, &tool.optimized] {
                let mut oracle = BatchedSimulator::new(design.module.clone(), lanes)
                    .expect("Table II designs validate");
                let mut vector = NativeBatchedSimulator::new(design.module.clone(), lanes)
                    .expect("Table II designs validate");
                let report = vector.native_batched_report();
                compiled_total += report.cones_compiled;
                fallback_total += report.cones_fallback;

                let ports: Vec<(String, u32)> = vector
                    .module()
                    .inputs()
                    .iter()
                    .map(|p| (p.name.clone(), p.width))
                    .collect();
                let outs: Vec<String> = vector
                    .module()
                    .outputs()
                    .iter()
                    .map(|o| o.name.clone())
                    .collect();
                for cycle in 0..16 {
                    for lane in 0..lanes {
                        for (name, width) in &ports {
                            let v = rng.bits(*width);
                            oracle.set(lane, name, v.clone());
                            vector.set(lane, name, v);
                        }
                    }
                    for lane in 0..lanes {
                        for out in &outs {
                            assert_eq!(
                                vector.get(lane, out),
                                oracle.get(lane, out),
                                "{}: lane {lane} output {out} diverged at cycle {cycle} \
                                 ({lanes} lanes)",
                                design.label
                            );
                        }
                    }
                    oracle.step();
                    vector.step();
                }
                for lane in 0..lanes {
                    assert_eq!(vector.cycle(lane), oracle.cycle(lane), "{}", design.label);
                }
            }
        }
    }
    if tier_available() {
        assert!(
            compiled_total > 0,
            "no Table II cone compiled to vector code"
        );
        assert!(
            fallback_total > 0,
            "no Table II cone took the interpreter fallback (memory designs should)"
        );
    }
}

/// A single-lane vector engine must agree with the scalar reference
/// interpreter — the degenerate batch is pure masked-tail code.
#[test]
fn single_lane_matches_scalar_oracle() {
    let mut rng = Lcg(0xdeadbeefcafef00d);
    for tool in hc_core::entries::all_tools().iter().take(4) {
        let design = &tool.optimized;
        let mut oracle = Simulator::new(design.module.clone()).expect("validates");
        let mut vector = NativeBatchedSimulator::new(design.module.clone(), 1).expect("validates");
        let ports: Vec<(String, u32)> = vector
            .module()
            .inputs()
            .iter()
            .map(|p| (p.name.clone(), p.width))
            .collect();
        let outs: Vec<String> = vector
            .module()
            .outputs()
            .iter()
            .map(|o| o.name.clone())
            .collect();
        for cycle in 0..16 {
            for (name, width) in &ports {
                let v = rng.bits(*width);
                oracle.set(name, v.clone());
                vector.set(0, name, v);
            }
            for out in &outs {
                assert_eq!(
                    vector.get(0, out),
                    hc_sim::SimBackend::get(&mut oracle, out),
                    "{}: output {out} diverged at cycle {cycle}",
                    design.label
                );
            }
            oracle.step();
            vector.step();
        }
    }
}

/// Port widths for the word-accessor test: one bit, one full word, a
/// ragged second word, and a third word.
const WORD_WIDTHS: [u32; 4] = [1, 64, 96, 130];

/// Per width `w`: input `a{w}`, its pass-through `p{w}`, its register
/// `q{w}`, and `x{w} = a{w} ^ q{w}` in a cone of its own. A one-bit
/// `kick` feeds one more cone, so a settle can be forced without touching
/// the data ports.
fn port_words_module() -> hc_rtl::Module {
    let mut m = hc_rtl::Module::new("port_words");
    for w in WORD_WIDTHS {
        let a = m.input(format!("a{w}"), w);
        m.output(format!("p{w}"), a);
        let r = m.reg(format!("r{w}"), w, Bits::zero(w));
        m.connect_reg(r, a);
        let q = m.reg_out(r);
        m.output(format!("q{w}"), q);
        let x = m.binary(hc_rtl::BinaryOp::Xor, a, q, w);
        m.output(format!("x{w}"), x);
    }
    let kick = m.input("kick", 1);
    let kicked = m.unary(hc_rtl::UnaryOp::Not, kick);
    m.output("kicked", kicked);
    m
}

/// Checks one engine type's word accessors at one lane count: words
/// written and read through [`LaneEngine`] equal the by-name `Bits` path
/// on a twin engine, and rewriting unchanged words leaves every data cone
/// clean.
macro_rules! check_port_words {
    ($engine:ty, $lanes:expr, $rng:expr) => {{
        let lanes: usize = $lanes;
        let rng: &mut Lcg = $rng;
        let engine = stringify!($engine);
        let mut words = <$engine>::new(port_words_module(), lanes).expect("validates");
        let mut named = <$engine>::new(port_words_module(), lanes).expect("validates");
        let ins: Vec<(String, hc_sim::InPort)> = WORD_WIDTHS
            .iter()
            .map(|w| {
                let name = format!("a{w}");
                let port = words.in_port(&name);
                assert_eq!(port.width(), *w, "{name}");
                (name, port)
            })
            .collect();
        let outs: Vec<(String, hc_sim::OutPort)> = ["p", "q", "x"]
            .iter()
            .flat_map(|k| WORD_WIDTHS.iter().map(move |w| format!("{k}{w}")))
            .map(|name| {
                let port = words.out_port(&name);
                (name, port)
            })
            .collect();
        let read_all = |sim: &mut $engine| -> Vec<Vec<u64>> {
            let mut all = Vec::new();
            for lane in 0..lanes {
                for (_, port) in &outs {
                    let mut buf = vec![0; port.width().div_ceil(64) as usize];
                    sim.read(lane, *port, &mut buf);
                    all.push(buf);
                }
            }
            all
        };
        for round in 0..4 {
            for lane in 0..lanes {
                for (name, port) in &ins {
                    let v = rng.bits(port.width());
                    words.write(lane, *port, v.as_words());
                    named.set(lane, name, v);
                }
            }
            for lane in 0..lanes {
                for (name, port) in &outs {
                    let want = named.get(lane, name);
                    let mut got = vec![0; port.width().div_ceil(64) as usize];
                    words.read(lane, *port, &mut got);
                    assert_eq!(
                        got,
                        want.as_words(),
                        "{engine}, {lanes} lanes: lane {lane} {name} round {round}"
                    );
                    assert_eq!(words.get(lane, name), want, "{engine}: get vs words");
                }
            }
            words.step();
            named.step();
        }
        // Settle, then rewrite every data port with its current value
        // (through both write paths) and flip `kick`: only kick's cone
        // may run, every other cone counts as skipped, and no output moves.
        let settled = read_all(&mut words);
        let report = words
            .tape_opt_report()
            .expect("tape optimizer is on by default");
        for lane in 0..lanes {
            for (name, port) in &ins {
                let current = words.input_value(lane, name);
                words.write(lane, *port, current.as_words());
                words.set(lane, name, current);
            }
        }
        words.set_all_u64("kick", 1);
        assert_eq!(read_all(&mut words), settled, "{engine}, {lanes} lanes");
        let skipped = words.tape_opt_report().unwrap().cones_skipped - report.cones_skipped;
        assert!(report.cones >= 5, "{engine}: {} cones", report.cones);
        assert_eq!(
            skipped,
            report.cones as u64 - 1,
            "{engine}, {lanes} lanes: an unchanged rewrite dirtied a cone"
        );
    }};
}

/// The vector JIT's allocation-free word accessors agree with its
/// by-name `Bits` accessors on narrow, one-word, ragged and three-word
/// ports, pass-through and registered, at every lane-group shape (the
/// batched interpreter's under `HC_NO_NATIVE=1`).
#[test]
fn port_words_match_the_bits_path() {
    let _guard = CFG_LOCK.lock().unwrap();
    let mut rng = Lcg(0x5eed_0f30_575a_11ab);
    for lanes in [1, 3, 5, 16] {
        check_port_words!(NativeBatchedSimulator, lanes, &mut rng);
    }
}

/// Applies one cycle of stimulus to one lane of either engine (mirrors
/// `common::drive`).
macro_rules! set_lane {
    ($sim:expr, $lane:expr, $stim:expr) => {{
        let (a, b, c, wlo, whi, rst) = $stim;
        $sim.set_u64($lane, "i0", a);
        $sim.set_u64($lane, "i1", b);
        $sim.set_u64($lane, "i2", c);
        let mut w = Bits::zero(WIDE);
        w.deposit_u64(0, 64, wlo);
        w.deposit_u64(64, WIDE - 64, whi);
        $sim.set($lane, "wi", w);
        $sim.set_u64($lane, "rst", u64::from(rst));
    }};
}

proptest! {
    #![proptest_config(common::cases_unless_env(24))]
    /// Random modules, ragged lane counts (1..=7 — exercising every tail
    /// shape), per-lane stimulus streams of different lengths with lanes
    /// retiring via `set_active`, through three engines at once: the
    /// vector tier, the interpreted batched oracle, and a forced-fallback
    /// twin built under the `HC_NO_NATIVE` override (which must
    /// also report zero compiled cones).
    #[test]
    fn vector_tier_matches_interpreter_on_random_modules(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        lane_stims in proptest::collection::vec(
            proptest::collection::vec(
                (0u64..4096, 0u64..4096, 0u64..4096, any::<u64>(), 0u64..(1 << 16), any::<bool>()),
                1..10,
            ),
            1..=7,
        ),
    ) {
        let module = common::build(&steps);
        module.validate().expect("generated module is valid");
        let lanes = lane_stims.len();

        let (mut vector, mut forced, mut oracle) = {
            let _guard = CFG_LOCK.lock().unwrap();
            let vector =
                NativeBatchedSimulator::new(module.clone(), lanes).expect("compiler accepts");
            let baseline = (*hc_obs::config()).clone();
            let mut off = baseline.clone();
            off.no_native = true;
            hc_obs::config::set_override(off);
            let forced =
                NativeBatchedSimulator::new(module.clone(), lanes).expect("compiler accepts");
            hc_obs::config::set_override(baseline);
            let oracle = BatchedSimulator::new(module, lanes).expect("compiler accepts");
            (vector, forced, oracle)
        };
        prop_assert_eq!(
            forced.native_batched_report().cones_compiled, 0,
            "HC_NO_NATIVE must disable vector codegen"
        );
        prop_assert_eq!(forced.native_batched_report().code_bytes, 0);

        let longest = lane_stims.iter().map(Vec::len).max().unwrap();
        for t in 0..longest {
            for (lane, stim) in lane_stims.iter().enumerate() {
                if let Some(&s) = stim.get(t) {
                    set_lane!(vector, lane, s);
                    set_lane!(forced, lane, s);
                    set_lane!(oracle, lane, s);
                }
            }
            for (lane, stim) in lane_stims.iter().enumerate() {
                if t < stim.len() {
                    for out in ["y0", "y1", "yw"] {
                        let want = oracle.get(lane, out);
                        prop_assert_eq!(
                            vector.get(lane, out),
                            want.clone(),
                            "vector: lane {} output {} diverged at cycle {}", lane, out, t
                        );
                        prop_assert_eq!(
                            forced.get(lane, out),
                            want,
                            "forced-fallback: lane {} output {} diverged at cycle {}",
                            lane, out, t
                        );
                    }
                }
            }
            vector.step();
            forced.step();
            oracle.step();
            for (lane, stim) in lane_stims.iter().enumerate() {
                if t + 1 == stim.len() {
                    vector.set_active(lane, false);
                    forced.set_active(lane, false);
                    oracle.set_active(lane, false);
                }
            }
        }

        for lane in 0..lanes {
            prop_assert_eq!(vector.cycle(lane), oracle.cycle(lane), "lane {} cycle", lane);
            for reg in ["r0", "wr"] {
                prop_assert_eq!(
                    vector.peek_reg(lane, reg),
                    oracle.peek_reg(lane, reg),
                    "lane {} register {} diverged", lane, reg
                );
            }
        }
    }
}
