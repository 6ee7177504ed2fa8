//! The native-code (JIT) simulation backend.
//!
//! [`NativeSimulator`] wraps the scalar [`CompiledSimulator`] state — the
//! same word-packed `u64` slot store, tape, part partition, dirty bits, and
//! register/memory commit plans — and compiles each part (see
//! `crate::tapeopt`) into straight-line x86-64 machine code at
//! construction. Generated code works directly on the engine's own two
//! stores: narrow instructions on the narrow slot store (base pointer in
//! `rdi`), and slices, concats, muxes, extensions, and equality over wide
//! (> 64-bit) values on its flat wide store (base pointer in `rsi`, laid
//! out by `crate::lower::WideLayout`). Only division, memory reads, and
//! the generic `eval_pure` fallback interpret; a part that contains them is
//! split into chunks and only those instructions run interpreted, on the
//! same stores, so nothing is copied between the two tiers. Evaluation runs
//! the tape engine's own part loop (`CompiledSimulator::eval_parts`), so
//! only the parts whose inputs changed run, and the commit is the tape
//! engine's gated commit.
//!
//! On non-x86-64/non-Linux targets, under `HC_NO_NATIVE=1`, or when the
//! kernel refuses executable pages, no code is generated and the engine
//! degrades to exactly the tape interpreter — same results, no speedup.
//! Bit-exactness against the interpreter oracle is pinned by the
//! `native_differential` suite across every Table II design.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod asm;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod codegen;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod exec;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod vcode;
mod vector;

pub use vector::{NativeBatchedReport, NativeBatchedSimulator};

use hc_bits::Bits;
use hc_rtl::{Module, NodeId, ValidateError};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use crate::compiled::{ActLayout, Ran};
use crate::{CompiledSimulator, SimBackend};

/// One chunk of a part's runtime plan: call into the executable mapping,
/// or interpret a tape range.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[derive(Debug)]
enum Step {
    Native { f: exec::Entry },
    Interp { start: u32, end: u32 },
}

/// How one part runs.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[derive(Debug)]
enum PartPlan {
    /// One of a run of parts compiled into one function with the part
    /// loop's work inline (`codegen::compile_run`): `f` enters the run at
    /// this part and handles every part from there up to `end`.
    Run { f: exec::PartEntry, end: u32 },
    /// Chunks for a part the emitter covers only in part (or for every
    /// part when gating is off); the part loop does its bookkeeping
    /// (`CompiledSimulator::run_part`).
    Chunks(Box<[Step]>),
}

/// Everything the JIT tier owns: the executable mapping (which must
/// outlive every resolved entry) and the per-part plans.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[derive(Debug)]
struct Jit {
    _mem: exec::ExecMemory,
    plans: Box<[PartPlan]>,
}

/// Construction-time accounting for one engine instance (also folded into
/// the `sim.native.*` metrics). The unit of compilation is the part (see
/// `crate::tapeopt`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NativeReport {
    /// Parts whose every instruction executes natively.
    pub cones_compiled: usize,
    /// Parts with at least one interpreted chunk.
    pub cones_fallback: usize,
    /// Machine-code bytes emitted across all compiled chunks.
    pub code_bytes: usize,
    /// Part evaluations that executed (at least partly) natively so far
    /// (runtime counter).
    pub native_cone_evals: u64,
}

/// Everything `compile` learned.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
struct Compiled {
    jit: Option<Jit>,
    compiled: usize,
    fallback: usize,
    bytes: usize,
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl Compiled {
    fn none(parts: usize) -> Compiled {
        Compiled {
            jit: None,
            compiled: 0,
            fallback: parts,
            bytes: 0,
        }
    }
}

/// Compiles every part. Maximal runs of parts the emitter covers become
/// one function each, doing the part loop's work inline; every other part
/// gets chunk plans.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn compile(
    low: &crate::lower::Lowered,
    lay: &crate::lower::WideLayout,
    act: ActLayout,
) -> Compiled {
    /// A part's code before the mapping exists.
    enum Code {
        Run { off: usize, end: u32 },
        Chunks(Vec<codegen::StepPlan>),
    }

    let mut span = hc_obs::span("native_compile").with("module", low.module.name());
    let books = codegen::PartBooks::new(low, act);
    let mut asm = asm::Asm::new();
    let mut codes = Vec::with_capacity(low.parts.len());
    let mut k = 0;
    while k < low.parts.len() {
        if books.native(k) {
            let end = (k..low.parts.len())
                .find(|&e| !books.native(e))
                .unwrap_or(low.parts.len());
            let entries = codegen::compile_run(&mut asm, lay, &books, k, end);
            codes.extend(entries.into_iter().map(|off| Code::Run {
                off,
                end: end as u32,
            }));
            k = end;
        } else {
            let seg = low.parts[k];
            let steps =
                codegen::compile_segment(&mut asm, lay, low, seg.start as usize, seg.end as usize);
            codes.push(Code::Chunks(steps));
            k += 1;
        }
    }
    let bytes = asm.len();
    let native = |c: &Code| match c {
        Code::Run { .. } => true,
        Code::Chunks(steps) => {
            !steps.is_empty()
                && steps
                    .iter()
                    .all(|s| matches!(s, codegen::StepPlan::Jit { .. }))
        }
    };
    let fully = codes.iter().filter(|c| native(c)).count();
    let any_native = codes.iter().any(|c| match c {
        Code::Run { .. } => true,
        Code::Chunks(steps) => steps
            .iter()
            .any(|s| matches!(s, codegen::StepPlan::Jit { .. })),
    });
    span.attach("cones_compiled", fully);
    span.attach("fallback_cones", low.parts.len() - fully);
    span.attach("bytes_emitted", bytes);
    if !any_native {
        return Compiled::none(low.parts.len());
    }
    let Some(mem) = exec::ExecMemory::new(asm.bytes()) else {
        // The kernel refused executable pages; interpret everything.
        return Compiled::none(low.parts.len());
    };
    // Offsets came from this very buffer, so resolving them is sound by
    // construction.
    let plans: Box<[PartPlan]> = codes
        .into_iter()
        .map(|c| match c {
            Code::Run { off, end } => PartPlan::Run {
                f: unsafe { mem.part_entry(off) },
                end,
            },
            Code::Chunks(steps) => PartPlan::Chunks(
                steps
                    .into_iter()
                    .map(|s| match s {
                        codegen::StepPlan::Jit { off } => Step::Native {
                            f: unsafe { mem.entry(off) },
                        },
                        codegen::StepPlan::Interp { start, end } => Step::Interp { start, end },
                    })
                    .collect(),
            ),
        })
        .collect();

    Compiled {
        jit: Some(Jit { _mem: mem, plans }),
        compiled: fully,
        fallback: low.parts.len() - fully,
        bytes,
    }
}

/// A cycle-accurate simulator that executes the tape's parts as
/// generated x86-64 machine code, falling back per chunk to the tape
/// interpreter for anything the assembler doesn't cover. Observable
/// behavior is bit-identical to [`Simulator`](crate::Simulator) and
/// [`CompiledSimulator`].
#[derive(Debug)]
pub struct NativeSimulator {
    pub(crate) sim: CompiledSimulator,
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    jit: Option<Jit>,
    report: NativeReport,
}

impl NativeSimulator {
    /// Lowers, validates, and JIT-compiles the module (per chunk, where
    /// covered). Under `HC_NO_NATIVE=1` or on unsupported targets no code
    /// is generated and every part interprets.
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally invalid.
    pub fn new(module: Module) -> Result<Self, ValidateError> {
        let sim = CompiledSimulator::new(module)?;
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let c = if hc_obs::config().no_native {
                Compiled::none(sim.low.parts.len())
            } else {
                compile(&sim.low, &sim.wlay, sim.lay)
            };
            hc_obs::metrics::counter("sim.native.cones_compiled").add(c.compiled as u64);
            hc_obs::metrics::counter("sim.native.fallback_cones").add(c.fallback as u64);
            hc_obs::metrics::counter("sim.native.bytes_emitted").add(c.bytes as u64);
            Ok(NativeSimulator {
                sim,
                jit: c.jit,
                report: NativeReport {
                    cones_compiled: c.compiled,
                    cones_fallback: c.fallback,
                    code_bytes: c.bytes,
                    native_cone_evals: 0,
                },
            })
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            let fallback = sim.low.parts.len();
            hc_obs::metrics::counter("sim.native.cones_compiled").add(0);
            hc_obs::metrics::counter("sim.native.fallback_cones").add(fallback as u64);
            hc_obs::metrics::counter("sim.native.bytes_emitted").add(0);
            Ok(NativeSimulator {
                sim,
                report: NativeReport {
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

    /// Number of completed clock cycles.
    pub fn cycle(&self) -> u64 {
        self.sim.cycle()
    }

    /// Construction and runtime accounting for the JIT tier.
    pub fn native_report(&self) -> NativeReport {
        self.report
    }

    /// See [`CompiledSimulator::tape_opt_report`].
    pub fn tape_opt_report(&self) -> Option<crate::TapeOptReport> {
        self.sim.tape_opt_report()
    }

    /// Drives an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists or the width differs.
    pub fn set(&mut self, name: &str, value: Bits) {
        self.sim.set(name, value);
    }

    /// Drives an input port from a `u64` (truncated to the port width).
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    pub fn set_u64(&mut self, name: &str, value: u64) {
        self.sim.set_u64(name, value);
    }

    /// Settles combinational logic: dirty parts execute their chunk plans
    /// (native code where compiled, interpreter elsewhere).
    pub fn eval(&mut self) {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if self.jit.is_some() {
            self.eval_jit();
            return;
        }
        self.sim.eval();
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn eval_jit(&mut self) {
        let NativeSimulator { sim, jit, report } = self;
        let jit = jit.as_ref().expect("eval_jit requires compiled code");
        sim.eval_parts(|sim, k| match &jit.plans[k] {
            PartPlan::Run { f, end } => {
                let ran = sim.act[sim.lay.ran_at];
                // SAFETY: the code was emitted from this engine's tape
                // against its own `wlay`, and the tape invariants (operand
                // slots in range and below their destination; part, reader
                // and register numbers below the bitset sizes the activity
                // array was allocated with) keep every generated load and
                // store inside the three arrays. The wide store is
                // allocated once, by `wlay.image`, with `wlay.store_len()`
                // words (the padding word the byte-aligned loads may
                // over-read included), and never resized.
                unsafe {
                    f(
                        sim.narrow.as_mut_ptr(),
                        sim.wide.as_mut_ptr(),
                        sim.act.as_mut_ptr(),
                    );
                };
                report.native_cone_evals += sim.act[sim.lay.ran_at] - ran;
                Ran::Through(*end as usize)
            }
            PartPlan::Chunks(steps) => {
                sim.run_part(k, |sim| {
                    let mut native = false;
                    for step in &**steps {
                        match step {
                            Step::Native { f } => {
                                // SAFETY: as for `PartPlan::Run`, without the
                                // activity array.
                                unsafe { f(sim.narrow.as_mut_ptr(), sim.wide.as_mut_ptr()) };
                                native = true;
                            }
                            Step::Interp { start, end } => {
                                sim.eval_range(*start as usize, *end as usize);
                            }
                        }
                    }
                    if native {
                        report.native_cone_evals += 1;
                    }
                });
                Ran::Part
            }
        });
    }

    /// Reads an output port (evaluating first if necessary).
    ///
    /// # Panics
    ///
    /// Panics if no output named `name` exists.
    pub fn get(&mut self, name: &str) -> Bits {
        self.eval();
        self.sim.get(name)
    }

    /// Reads back the value currently driving an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    pub fn input_value(&self, name: &str) -> Bits {
        self.sim.input_value(name)
    }

    /// Reads the settled value of an arbitrary node (for probing).
    pub fn probe(&mut self, node: NodeId) -> Bits {
        self.eval();
        self.sim.probe(node)
    }

    /// Reads a register's current value by name.
    ///
    /// # Panics
    ///
    /// Panics if no register named `name` exists.
    pub fn peek_reg(&self, name: &str) -> Bits {
        self.sim.peek_reg(name)
    }

    /// Advances one clock cycle (native evaluation, then the wrapped
    /// engine's double-buffered commit).
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

    /// Hard power-on reset (see [`CompiledSimulator::reset`]).
    pub fn reset(&mut self) {
        self.sim.reset();
    }
}

impl Drop for NativeSimulator {
    /// Flushes runtime counters under `sim.native.*`, then zeroes the
    /// wrapped engine's counters so its own `Drop` doesn't re-attribute
    /// the same work to `sim.compiled.*`.
    fn drop(&mut self) {
        if self.sim.cycle > 0 {
            hc_obs::metrics::counter("sim.native.cycles").add(self.sim.cycle);
        }
        if self.sim.parts_skipped > 0 {
            hc_obs::metrics::counter("sim.native.parts_skipped").add(self.sim.parts_skipped);
        }
        if self.sim.regs_committed > 0 {
            hc_obs::metrics::counter("sim.native.regs_committed").add(self.sim.regs_committed);
        }
        if self.report.native_cone_evals > 0 {
            hc_obs::metrics::counter("sim.native.cone_evals").add(self.report.native_cone_evals);
        }
        self.sim.cycle = 0;
        self.sim.parts_skipped = 0;
        self.sim.regs_committed = 0;
    }
}

impl SimBackend for NativeSimulator {
    fn from_module(module: Module) -> Result<Self, ValidateError> {
        NativeSimulator::new(module)
    }
    fn module(&self) -> &Module {
        self.module()
    }
    fn cycle(&self) -> u64 {
        self.cycle()
    }
    fn set(&mut self, name: &str, value: Bits) {
        NativeSimulator::set(self, name, value);
    }
    fn set_u64(&mut self, name: &str, value: u64) {
        NativeSimulator::set_u64(self, name, value);
    }
    fn get(&mut self, name: &str) -> Bits {
        NativeSimulator::get(self, name)
    }
    fn input_value(&self, name: &str) -> Bits {
        NativeSimulator::input_value(self, name)
    }
    fn peek_reg(&self, name: &str) -> Bits {
        NativeSimulator::peek_reg(self, name)
    }
    fn step(&mut self) {
        NativeSimulator::step(self);
    }
    fn run(&mut self, n: u64) {
        NativeSimulator::run(self, n);
    }
    fn reset(&mut self) {
        NativeSimulator::reset(self);
    }
    fn tape_opt_report(&self) -> Option<crate::TapeOptReport> {
        NativeSimulator::tape_opt_report(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_rtl::BinaryOp;

    fn mac_module() -> Module {
        // Narrow arithmetic only: every part should compile on x86-64.
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

    /// Wide datapath exercising the word-level emitters: a 96-bit shift
    /// register built from concats and slices, muxed against a sign
    /// extension, compared wide, with narrow slices as outputs.
    fn wide_module() -> Module {
        let mut m = Module::new("wide");
        let x = m.input("x", 48);
        let sel = m.input("sel", 1);
        let r = m.reg("acc", 96, Bits::zero(96));
        let q = m.reg_out(r);
        let low = m.slice(q, 0, 48);
        let shifted = m.concat(low, x); // 96-bit: old low half over fresh input
        let xs = m.sext(x, 96);
        let next = m.mux(sel, shifted, xs);
        m.connect_reg(r, next);
        let zero = m.const_u(96, 0);
        let isz = m.binary(BinaryOp::Eq, q, zero, 1);
        let mid = m.slice(q, 40, 20);
        m.output("mid", mid);
        m.output("isz", isz);
        m
    }

    #[test]
    fn native_matches_interpreter_on_a_mac_loop() {
        let mut native = NativeSimulator::new(mac_module()).unwrap();
        let mut oracle = crate::Simulator::new(mac_module()).unwrap();
        for (x, y) in [(5u64, 7u64), (4095, 4095), (2048, 1), (100, 4000)] {
            for s in [&mut native as &mut dyn SimBackend, &mut oracle] {
                s.set_u64("x", x);
                s.set_u64("y", y);
                s.step();
            }
            assert_eq!(native.get("acc"), oracle.get("acc"), "after ({x},{y})");
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn narrow_design_compiles_every_cone() {
        let mut sim = NativeSimulator::new(mac_module()).unwrap();
        let r = sim.native_report();
        if !hc_obs::config().no_native {
            assert!(r.cones_compiled > 0, "{r:?}");
            assert_eq!(r.cones_fallback, 0, "{r:?}");
            assert!(r.code_bytes > 0, "{r:?}");
            sim.set_u64("x", 3);
            sim.set_u64("y", 3);
            sim.step();
            assert!(sim.native_report().native_cone_evals > 0);
        }
    }

    /// The wide emitters cover slices, concats, muxes, extensions, and
    /// equality, so a wide datapath compiles fully and stays bit-exact.
    #[test]
    fn wide_design_compiles_and_matches_interpreter() {
        let mut native = NativeSimulator::new(wide_module()).unwrap();
        let mut oracle = crate::Simulator::new(wide_module()).unwrap();
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if !hc_obs::config().no_native {
            let r = native.native_report();
            assert_eq!(r.cones_fallback, 0, "{r:?}");
        }
        let mut t = 1u64;
        for i in 0..32u64 {
            t = t.wrapping_mul(6364136223846793005).wrapping_add(1);
            for s in [&mut native as &mut dyn SimBackend, &mut oracle] {
                s.set_u64("x", t);
                s.set_u64("sel", i & 1);
                s.step();
            }
            assert_eq!(native.get("mid"), oracle.get("mid"), "cycle {i}");
            assert_eq!(native.get("isz"), oracle.get("isz"), "cycle {i}");
        }
    }

    #[test]
    fn memory_designs_fall_back_and_stay_correct() {
        let mut m = Module::new("mem");
        let addr = m.input("addr", 3);
        let data = m.input("data", 16);
        let we = m.input("we", 1);
        let mem = m.mem("buf", 16, 8);
        m.mem_write(mem, addr, data, we);
        let q = m.mem_read(mem, addr);
        let one = m.const_u(16, 1);
        let q1 = m.binary(BinaryOp::Add, q, one, 16);
        m.output("q1", q1);
        let mut native = NativeSimulator::new(m.clone()).unwrap();
        let mut oracle = crate::Simulator::new(m).unwrap();
        for (a, v, w) in [
            (1u64, 0xdead_u64, 1u64),
            (1, 0, 0),
            (5, 0xbeef, 1),
            (5, 1, 0),
        ] {
            for s in [&mut native as &mut dyn SimBackend, &mut oracle] {
                s.set_u64("addr", a);
                s.set_u64("data", v);
                s.set_u64("we", w);
                s.step();
            }
            assert_eq!(native.get("q1"), oracle.get("q1"), "({a},{v},{w})");
        }
    }

    /// An interpreted wide memory read whose readers (wide slices, wide
    /// concats of every shape, a wide mux) compile natively. A wide temp's
    /// readers share its part, so this part runs as an interpreted chunk
    /// and a native chunk over one wide store. Returns the module and the
    /// wide-to-wide slice `mid`, a JIT-written node that no port exposes.
    fn mixed_wide_module() -> (Module, NodeId) {
        let mut m = Module::new("mixed_wide");
        let row = m.input("row", 96);
        let addr = m.input("addr", 2);
        let we = m.input("we", 1);
        let buf = m.mem("buf", 96, 4);
        m.mem_write(buf, addr, row, we);
        let q = m.mem_read(buf, addr);
        let lo = m.slice(q, 0, 40);
        let hi = m.slice(q, 40, 56);
        let swapped = m.concat(lo, hi);
        let both = m.concat(q, row);
        let mid = m.slice(both, 52, 96);
        let r = m.reg("acc", 96, Bits::from_u64(96, 0x5a5a));
        let acc = m.reg_out(r);
        let next = m.mux(we, mid, swapped);
        m.connect_reg(r, next);
        let tag = m.slice(acc, 90, 6);
        let tagged = m.concat(tag, q);
        let low = m.slice(row, 0, 8);
        let padded = m.concat(acc, low);
        m.output("swapped", swapped);
        m.output("tagged", tagged);
        m.output("padded", padded);
        m.output("acc", acc);
        (m, mid)
    }

    /// The points where the scalar JIT once had to copy wide values
    /// between its code's store and the interpreter's: a probe of a
    /// JIT-written node between steps, a wide output read with no step in
    /// between, a wide input held across cycles, and a hard reset mid-run.
    #[test]
    fn mixed_wide_part_matches_interpreter_at_every_read() {
        let (module, mid) = mixed_wide_module();
        let mut native = NativeSimulator::new(module.clone()).unwrap();
        let mut oracle = crate::Simulator::new(module).unwrap();
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if !hc_obs::config().no_native {
            let plans = &native.jit.as_ref().expect("code generated").plans;
            let mixed = plans.iter().any(|p| match p {
                PartPlan::Chunks(steps) => {
                    steps.iter().any(|s| matches!(s, Step::Interp { .. }))
                        && steps.iter().any(|s| matches!(s, Step::Native { .. }))
                }
                PartPlan::Run { .. } => false,
            });
            assert!(mixed, "no part mixes interpreted and native chunks");
        }
        let outs = ["swapped", "tagged", "padded", "acc"];
        let check = |native: &mut NativeSimulator, oracle: &mut crate::Simulator, at: &str| {
            for out in outs {
                assert_eq!(native.get(out), oracle.get(out), "{out} {at}");
            }
            assert_eq!(native.probe(mid), oracle.probe(mid), "mid {at}");
            assert_eq!(native.peek_reg("acc"), oracle.peek_reg("acc"), "acc {at}");
        };
        let mut t = 0x9e37_79b9_7f4a_7c15_u64;
        let mut row = Bits::zero(96);
        for cycle in 0..48u64 {
            // A fresh row every fourth cycle; held in between.
            if cycle % 4 == 0 {
                t = t.wrapping_mul(6364136223846793005).wrapping_add(1);
                row.deposit_u64(0, 64, t);
                row.deposit_u64(64, 32, t >> 17);
                native.set("row", row.clone());
                oracle.set("row", row.clone());
            }
            for s in [&mut native as &mut dyn SimBackend, &mut oracle] {
                s.set_u64("addr", cycle % 3);
                s.set_u64("we", u64::from(cycle % 5 != 2));
            }
            // Probe and read before the step, with no step since the sets.
            assert_eq!(native.probe(mid), oracle.probe(mid), "mid before {cycle}");
            check(&mut native, &mut oracle, &format!("before step {cycle}"));
            native.step();
            oracle.step();
            check(&mut native, &mut oracle, &format!("after step {cycle}"));
            if cycle == 29 {
                native.reset();
                oracle.reset();
                check(&mut native, &mut oracle, "after reset");
            }
        }
        assert_eq!(native.cycle(), oracle.cycle());
    }
}
