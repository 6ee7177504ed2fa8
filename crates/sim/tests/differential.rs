//! Differential test: the compiled backend is bit-exact with the
//! interpreter, which serves as the reference oracle.
//!
//! Random module generation covers both value representations of the
//! compiled store (narrow values packed in `u64` slots and wide values in
//! flat words), registers with enables and synchronous resets, and narrow
//! and wide memories. Both engines run the same random stimulus;
//! per-cycle outputs, final register state and cycle counts must agree
//! exactly.
//!
//! The held-input cases hold each stimulus step for 1–64 cycles, so most
//! of a design goes quiet and the change-driven engines skip most parts
//! and commit few registers; they run the tape engine and the scalar JIT,
//! and require the JIT to skip the same parts and commit the same
//! registers as the tape engine.

mod common;

use common::{drive, drive_held, held_strategy, step_strategy, Held};
use hc_sim::{CompiledSimulator, NativeSimulator, SimBackend, Simulator};
use proptest::prelude::*;

/// Runs `stimulus` held on the interpreter and on `engine`, requiring
/// identical outputs on every cycle, cycle counts and final registers.
fn held_matches<B: SimBackend>(
    module: &hc_rtl::Module,
    engine: &mut B,
    stimulus: &[Held],
) -> Result<(), TestCaseError> {
    let mut reference = Simulator::new(module.clone()).expect("interpreter accepts");
    let expected = drive_held(&mut reference, stimulus);
    let actual = drive_held(engine, stimulus);
    prop_assert_eq!(expected, actual);
    prop_assert_eq!(reference.cycle(), engine.cycle());
    for reg in ["r0", "wr"] {
        prop_assert_eq!(
            SimBackend::peek_reg(&reference, reg),
            engine.peek_reg(reg),
            "register {} diverged",
            reg
        );
    }
    Ok(())
}

// Every suite here takes the default case count (256), which
// `PROPTEST_CASES` overrides; CI reruns them at 4096 in release.
proptest! {
    #[test]
    fn compiled_backend_matches_interpreter(
        steps in proptest::collection::vec(step_strategy(), 1..50),
        stimulus in proptest::collection::vec(
            (0u64..4096, 0u64..4096, 0u64..4096, any::<u64>(), 0u64..(1 << 16), any::<bool>()),
            1..16,
        ),
    ) {
        let module = common::build(&steps);
        module.validate().expect("generated module is valid");

        let mut reference = Simulator::new(module.clone()).expect("interpreter accepts");
        let mut compiled = CompiledSimulator::new(module).expect("compiler accepts");

        let expected = drive(&mut reference, &stimulus);
        let actual = drive(&mut compiled, &stimulus);
        prop_assert_eq!(expected, actual);

        prop_assert_eq!(reference.cycle(), compiled.cycle());
        for reg in ["r0", "wr"] {
            prop_assert_eq!(
                SimBackend::peek_reg(&reference, reg),
                SimBackend::peek_reg(&compiled, reg),
                "register {} diverged", reg
            );
        }
    }

    #[test]
    fn compiled_backend_matches_interpreter_on_held_inputs(
        steps in proptest::collection::vec(step_strategy(), 1..50),
        stimulus in proptest::collection::vec(held_strategy(), 1..8),
    ) {
        let module = common::build(&steps);
        let mut compiled = CompiledSimulator::new(module.clone()).expect("compiler accepts");
        held_matches(&module, &mut compiled, &stimulus)?;
    }

    #[test]
    fn scalar_jit_matches_interpreter_on_held_inputs(
        steps in proptest::collection::vec(step_strategy(), 1..50),
        stimulus in proptest::collection::vec(held_strategy(), 1..8),
    ) {
        let module = common::build(&steps);
        let mut native = NativeSimulator::new(module.clone()).expect("compiler accepts");
        held_matches(&module, &mut native, &stimulus)?;
        // The JIT's inline part bookkeeping (`codegen::compile_run`) must
        // do exactly what the tape engine's `run_part` does.
        let mut compiled = CompiledSimulator::new(module).expect("compiler accepts");
        drive_held(&mut compiled, &stimulus);
        let jit = native.tape_opt_report().expect("tape optimizer on");
        let tape = compiled.tape_opt_report().expect("tape optimizer on");
        prop_assert_eq!(jit.parts_skipped, tape.parts_skipped);
        prop_assert_eq!(jit.regs_committed, tape.regs_committed);
    }
}
