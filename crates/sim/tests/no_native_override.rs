//! `HC_NO_NATIVE` at construction turns the scalar JIT off.
//!
//! The test flips the process-wide config with `set_override`. It has a
//! test binary of its own so that no other test builds an engine in this
//! process while the override is in force: the unit tests that assert the
//! JIT engaged would see it.

use hc_bits::Bits;
use hc_rtl::{BinaryOp, Module};
use hc_sim::NativeSimulator;

/// A narrow multiply-accumulate loop, every part of which compiles when
/// the JIT is on.
fn mac_module() -> Module {
    let mut m = Module::new("mac");
    let x = m.input("x", 12);
    let y = m.input("y", 12);
    let r = m.reg("acc", 32, Bits::zero(32));
    let q = m.reg_out(r);
    let xs = m.sext(x, 24);
    let ys = m.sext(y, 24);
    let p = m.binary(BinaryOp::MulS, xs, ys, 24);
    let p32 = m.sext(p, 32);
    let next = m.binary(BinaryOp::Add, q, p32, 32);
    m.connect_reg(r, next);
    m.output("acc", q);
    m
}

#[test]
fn no_native_override_disables_codegen() {
    let baseline = (*hc_obs::config()).clone();
    hc_obs::config::set_override(hc_obs::Config {
        no_native: true,
        ..baseline.clone()
    });
    let sim = NativeSimulator::new(mac_module()).unwrap();
    hc_obs::config::set_override(baseline);
    let r = sim.native_report();
    assert_eq!(r.cones_compiled, 0, "{r:?}");
    assert_eq!(r.code_bytes, 0, "{r:?}");
}
