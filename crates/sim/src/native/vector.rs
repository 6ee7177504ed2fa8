//! The vector-JIT lane-batched simulation backend — the fifth engine.
//!
//! [`NativeBatchedSimulator`] wraps a [`BatchedSimulator`] and, at
//! construction, compiles each combinational cone into straight-line AVX2
//! machine code over the wrapped engine's structure-of-arrays lane store
//! (see `super::vcode`): four lanes per `ymm`, fully unrolled to the
//! configured lane count, ragged tails handled with masked stores. As in
//! the scalar JIT, generated code and interpreted fallback chunks read
//! and write the *same* arrays (the wide ones laid out by the shared
//! `crate::lower::WideLayout`), so there is nothing to synchronize.
//! Dirty-bit cone gating is preserved: a quiescent cone skips its chunks
//! exactly as in the interpreter.
//!
//! The vector tier engages only when both of these hold at construction:
//!
//! * x86-64 Linux with AVX2 detected **at runtime** (binaries built
//!   without `-C target-cpu=native` still get the fast path), and
//! * `HC_NO_NATIVE` (both JIT tiers) is not set.
//!
//! Otherwise the engine degrades to exactly the interpreted
//! [`BatchedSimulator`] — same results, no speedup. Bit-exactness against
//! the interpreter oracle is pinned by the `native_batched_differential`
//! suite across random modules and every Table II design.

use hc_bits::Bits;
use hc_rtl::{Module, ValidateError};

use crate::batched::{BatchedSimulator, InPort, OutPort};
use crate::lower::EngineOptions;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use super::vcode;

/// Whether the running CPU has AVX2 (checked once per engine build).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Construction-time accounting for one engine instance (also folded into
/// the `sim.native_batched.*` metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NativeBatchedReport {
    /// Cones whose every instruction executes as vector code.
    pub cones_compiled: usize,
    /// Cones with at least one interpreted chunk.
    pub cones_fallback: usize,
    /// Machine-code bytes emitted across all compiled chunks.
    pub code_bytes: usize,
    /// Cone evaluations that executed (at least partly) as vector code so
    /// far (runtime counter).
    pub native_cone_evals: u64,
}

/// A lane-batched cycle-accurate simulator that executes combinational
/// cones as generated AVX2 code, falling back per chunk to the batched
/// interpreter for anything the vector assembler doesn't cover (wide
/// values, division, memory reads). Observable behavior is bit-identical
/// to [`BatchedSimulator`] lane for lane.
#[derive(Debug)]
pub struct NativeBatchedSimulator {
    sim: BatchedSimulator,
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    vjit: Option<vcode::VJit>,
    report: NativeBatchedReport,
}

impl NativeBatchedSimulator {
    /// Lowers, validates, and vector-compiles the module for `lanes`
    /// lockstep lanes. Where the tier doesn't engage (see the module
    /// docs) every cone interprets.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally invalid.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(module: Module, lanes: usize) -> Result<Self, ValidateError> {
        Self::with_options(module, lanes, EngineOptions::default())
    }

    /// Like [`new`](NativeBatchedSimulator::new), with explicit
    /// construction options (see [`EngineOptions`]).
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally invalid.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn with_options(
        module: Module,
        lanes: usize,
        options: EngineOptions,
    ) -> Result<Self, ValidateError> {
        let sim = BatchedSimulator::with_options(module, lanes, options)?;
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let c = if !hc_obs::config().no_native && avx2_available() {
                vcode::compile(&sim)
            } else {
                vcode::VCompiled::none(sim.low.comps.len())
            };
            hc_obs::metrics::counter("sim.native_batched.cones_compiled").add(c.compiled as u64);
            hc_obs::metrics::counter("sim.native_batched.fallback_cones").add(c.fallback as u64);
            hc_obs::metrics::counter("sim.native_batched.bytes_emitted").add(c.bytes as u64);
            Ok(NativeBatchedSimulator {
                sim,
                vjit: c.jit,
                report: NativeBatchedReport {
                    cones_compiled: c.compiled,
                    cones_fallback: c.fallback,
                    code_bytes: c.bytes,
                    native_cone_evals: 0,
                },
            })
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            let fallback = sim.low.comps.len();
            hc_obs::metrics::counter("sim.native_batched.cones_compiled").add(0);
            hc_obs::metrics::counter("sim.native_batched.fallback_cones").add(fallback as u64);
            hc_obs::metrics::counter("sim.native_batched.bytes_emitted").add(0);
            Ok(NativeBatchedSimulator {
                sim,
                report: NativeBatchedReport {
                    cones_compiled: 0,
                    cones_fallback: fallback,
                    code_bytes: 0,
                    native_cone_evals: 0,
                },
            })
        }
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        self.sim.module()
    }

    /// Number of lanes evaluated in lockstep.
    pub fn lanes(&self) -> usize {
        self.sim.lanes()
    }

    /// Construction and runtime accounting for the vector-JIT tier.
    pub fn native_batched_report(&self) -> NativeBatchedReport {
        self.report
    }

    /// Whether any cone executes as vector code in this instance.
    pub fn vector_active(&self) -> bool {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            self.vjit.is_some()
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            false
        }
    }

    /// See [`BatchedSimulator::tape_stats`].
    pub fn tape_stats(&self) -> (usize, usize) {
        self.sim.tape_stats()
    }

    /// See [`BatchedSimulator::tape_opt_report`].
    pub fn tape_opt_report(&self) -> Option<crate::TapeOptReport> {
        self.sim.tape_opt_report()
    }

    /// Completed clock cycles on one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn cycle(&self, lane: usize) -> u64 {
        self.sim.cycle(lane)
    }

    /// See [`BatchedSimulator::is_active`].
    pub fn is_active(&self, lane: usize) -> bool {
        self.sim.is_active(lane)
    }

    /// See [`BatchedSimulator::set_active`].
    pub fn set_active(&mut self, lane: usize, active: bool) {
        self.sim.set_active(lane, active);
    }

    /// See [`BatchedSimulator::active_lanes`].
    pub fn active_lanes(&self) -> usize {
        self.sim.active_lanes()
    }

    /// Drives an input port on one lane.
    ///
    /// # Panics
    ///
    /// Panics on unknown name, width mismatch, or lane out of range.
    pub fn set(&mut self, lane: usize, name: &str, value: Bits) {
        self.sim.set(lane, name, value);
    }

    /// Drives an input port on one lane from a `u64`.
    ///
    /// # Panics
    ///
    /// Panics on unknown name or lane out of range.
    pub fn set_u64(&mut self, lane: usize, name: &str, value: u64) {
        self.sim.set_u64(lane, name, value);
    }

    /// Drives an input port to the same value on every lane.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    pub fn set_all_u64(&mut self, name: &str, value: u64) {
        self.sim.set_all_u64(name, value);
    }

    /// See [`BatchedSimulator::in_port`].
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    pub fn in_port(&self, name: &str) -> InPort {
        self.sim.in_port(name)
    }

    /// See [`BatchedSimulator::out_port`].
    ///
    /// # Panics
    ///
    /// Panics if no output named `name` exists.
    pub fn out_port(&self, name: &str) -> OutPort {
        self.sim.out_port(name)
    }

    /// See [`BatchedSimulator::set_port_u64`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn set_port_u64(&mut self, lane: usize, port: InPort, value: u64) {
        self.sim.set_port_u64(lane, port, value);
    }

    /// See [`BatchedSimulator::set_port_words`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `words` has the wrong length.
    pub fn set_port_words(&mut self, lane: usize, port: InPort, words: &[u64]) {
        self.sim.set_port_words(lane, port, words);
    }

    /// Reads an output port on one lane as a `u64` (evaluating first if
    /// necessary).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or the port is wider than 64 bits.
    pub fn get_port_u64(&mut self, lane: usize, port: OutPort) -> u64 {
        self.eval();
        self.sim.get_port_u64(lane, port)
    }

    /// Copies an output port on one lane into `out` as little-endian words
    /// (evaluating first if necessary); see
    /// [`BatchedSimulator::get_port_words`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `out` has the wrong length.
    pub fn get_port_words(&mut self, lane: usize, port: OutPort, out: &mut [u64]) {
        self.eval();
        self.sim.get_port_words(lane, port, out);
    }

    /// See [`BatchedSimulator::input_port_u64`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn input_port_u64(&self, lane: usize, port: InPort) -> u64 {
        self.sim.input_port_u64(lane, port)
    }

    /// Reads an output port on one lane by name (evaluating first if
    /// necessary).
    ///
    /// # Panics
    ///
    /// Panics on unknown name or lane out of range.
    pub fn get(&mut self, lane: usize, name: &str) -> Bits {
        self.eval();
        self.sim.get(lane, name)
    }

    /// See [`BatchedSimulator::input_value`].
    ///
    /// # Panics
    ///
    /// Panics on unknown name or lane out of range.
    pub fn input_value(&self, lane: usize, name: &str) -> Bits {
        self.sim.input_value(lane, name)
    }

    /// See [`BatchedSimulator::peek_reg`].
    ///
    /// # Panics
    ///
    /// Panics on unknown name or lane out of range.
    pub fn peek_reg(&self, lane: usize, name: &str) -> Bits {
        self.sim.peek_reg(lane, name)
    }

    /// Settles combinational logic for all lanes: dirty cones execute
    /// their chunk plans (vector code where compiled, the batched
    /// interpreter elsewhere).
    pub fn eval(&mut self) {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if self.vjit.is_some() {
            self.eval_vjit();
            return;
        }
        self.sim.eval();
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn eval_vjit(&mut self) {
        if self.sim.evaluated {
            return;
        }
        let vjit = self
            .vjit
            .as_ref()
            .expect("eval_vjit requires compiled code");
        let gate = self.sim.low.gate;
        for k in 0..vjit.plans.len() {
            if gate {
                if !self.sim.dirty[k] {
                    self.sim.cones_skipped += 1;
                    continue;
                }
                self.sim.dirty[k] = false;
            }
            let mut native = false;
            for step in &*vjit.plans[k].steps {
                match step {
                    // The tape invariants (operand slots strictly below
                    // their destination, values pre-masked) plus both
                    // stores' alignment/padding guarantees make every
                    // generated load and store in-bounds (narrow base in
                    // rdi, wide base in rsi).
                    vcode::VStep::Native { f } => {
                        unsafe { f(self.sim.narrow.jit_ptr(), self.sim.wide.jit_ptr()) };
                        native = true;
                    }
                    // Interpreted chunks run on the very same SoA stores
                    // the vector code writes — no synchronization exists.
                    vcode::VStep::Interp { start, end } => {
                        self.sim.eval_range(*start as usize, *end as usize);
                    }
                }
            }
            if native {
                self.report.native_cone_evals += 1;
            }
        }
        self.sim.evaluated = true;
    }

    /// Advances one clock cycle on every active lane (vector evaluation,
    /// then the wrapped engine's double-buffered commit).
    pub fn step(&mut self) {
        self.eval();
        self.sim.step();
    }

    /// Runs `n` clock cycles with the current inputs held.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Hard power-on reset of every lane (see
    /// [`BatchedSimulator::reset`]). The SoA stores are shared with the
    /// vector code, so nothing extra is required.
    pub fn reset(&mut self) {
        self.sim.reset();
    }
}

impl Drop for NativeBatchedSimulator {
    /// Flushes runtime counters under `sim.native_batched.*` when the
    /// vector tier was engaged, then zeroes the wrapped engine's counters
    /// so its own `Drop` doesn't re-attribute the same work to
    /// `sim.batched.*`. With the tier disengaged the wrapped engine
    /// behaved as a plain interpreter and keeps its own attribution.
    fn drop(&mut self) {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if self.vjit.is_some() {
            let total: u64 = self.sim.cycles.iter().sum();
            if total > 0 {
                hc_obs::metrics::counter("sim.native_batched.lane_cycles").add(total);
            }
            if self.sim.cones_skipped > 0 {
                hc_obs::metrics::counter("sim.native_batched.cones_skipped")
                    .add(self.sim.cones_skipped);
            }
            if self.report.native_cone_evals > 0 {
                hc_obs::metrics::counter("sim.native_batched.cone_evals")
                    .add(self.report.native_cone_evals);
            }
            self.sim.cycles.iter_mut().for_each(|c| *c = 0);
            self.sim.cones_skipped = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_rtl::BinaryOp;

    /// Narrow MAC loop: multiply, sign-extend, accumulate — the hot shape
    /// the vector tier exists for.
    fn mac_module() -> Module {
        let mut m = Module::new("vmac");
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

    /// Ragged lane counts exercise the masked-tail path; every lane must
    /// match its own interpreted twin bit for bit.
    #[test]
    fn vector_matches_interpreter_on_ragged_lanes() {
        for lanes in [1usize, 3, 5, 8] {
            let mut v = NativeBatchedSimulator::new(mac_module(), lanes).unwrap();
            let mut o = crate::BatchedSimulator::new(mac_module(), lanes).unwrap();
            let mut t = 0x243f_6a88_85a3_08d3u64;
            for cycle in 0..24u64 {
                for lane in 0..lanes {
                    t = t.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let x = t >> 52;
                    let y = t >> 40 & 0xfff;
                    v.set_u64(lane, "x", x);
                    v.set_u64(lane, "y", y);
                    o.set_u64(lane, "x", x);
                    o.set_u64(lane, "y", y);
                }
                v.step();
                o.step();
                for lane in 0..lanes {
                    assert_eq!(
                        v.get(lane, "acc"),
                        o.get(lane, "acc"),
                        "lane {lane} cycle {cycle} ({lanes} lanes)"
                    );
                }
            }
        }
    }

    /// On an AVX2 host with the tier enabled, a narrow design must
    /// actually compile and execute vector code.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn narrow_design_vector_compiles() {
        let cfg = hc_obs::config();
        if cfg.no_native || !avx2_available() {
            return;
        }
        let mut sim = NativeBatchedSimulator::new(mac_module(), 6).unwrap();
        let r = sim.native_batched_report();
        assert!(r.cones_compiled > 0, "{r:?}");
        assert!(r.code_bytes > 0, "{r:?}");
        sim.set_all_u64("x", 3);
        sim.set_all_u64("y", 5);
        sim.step();
        assert!(sim.native_batched_report().native_cone_evals > 0);
        assert!(sim.vector_active());
    }
}
