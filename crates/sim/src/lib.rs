//! Cycle-accurate simulation of `hc-rtl` modules.
//!
//! Because frontends only ever append nodes that reference earlier nodes,
//! a module's node list is already levelized: a single forward sweep
//! evaluates all combinational logic, and a clock step then commits
//! registers and memory writes. This is the engine used to verify every
//! IDCT implementation against the reference and to *measure* the paper's
//! latency (`T_L`) and periodicity (`T_P`) figures by driving the
//! AXI-Stream wrappers.
//!
//! # Examples
//!
//! ```
//! use hc_rtl::{Module, BinaryOp};
//! use hc_sim::Simulator;
//! use hc_bits::Bits;
//!
//! let mut m = Module::new("counter");
//! let r = m.reg("count", 8, Bits::zero(8));
//! let q = m.reg_out(r);
//! let one = m.const_u(8, 1);
//! let next = m.binary(BinaryOp::Add, q, one, 8);
//! m.connect_reg(r, next);
//! m.output("count", q);
//!
//! let mut sim = Simulator::new(m)?;
//! for _ in 0..5 {
//!     sim.step();
//! }
//! assert_eq!(sim.get("count").to_u64(), 5);
//! # Ok::<(), hc_rtl::ValidateError>(())
//! ```

//! # Choosing a backend
//!
//! Five engines share identical observable semantics:
//!
//! - [`Simulator`] interprets the node table directly, boxing every value
//!   as [`hc_bits::Bits`]. It is the reference oracle: simple enough to
//!   audit, and the baseline the compiled engine is differentially tested
//!   against.
//! - [`CompiledSimulator`] lowers the module once into a flat instruction
//!   tape over a word-packed value store (≤ 64-bit nodes live inline in
//!   `u64` slots) and replays it every cycle with no per-node allocation.
//!   Use it for measurement sweeps and long-running benches.

//! - [`BatchedSimulator`] replays the same tape across `L` independent
//!   stimulus lanes in lockstep over a structure-of-arrays value store, so
//!   the per-instruction dispatch cost is amortized over all lanes and the
//!   per-op inner loop is a tight, auto-vectorizable kernel. Use it when
//!   many independent stimulus streams (e.g. IEEE-1180 blocks) go through
//!   one design.
//!
//! - [`NativeSimulator`] JIT-compiles the tape's parts into straight-line
//!   x86-64 machine code over the same word-packed slot store, falling
//!   back per part to the tape interpreter for memories, division and
//!   generic ops. Fastest single-stream engine on x86-64 Linux;
//!   elsewhere (or under `HC_NO_NATIVE=1`) it degrades to exactly the
//!   tape interpreter.
//!
//! - [`NativeBatchedSimulator`] fuses the last two tiers: each
//!   combinational component is
//!   JIT-compiled into straight-line AVX2 vector code operating directly
//!   on the batched engine's SoA lane store (four lanes per 256-bit
//!   register, unrolled to the lane count, masked ragged tails), with
//!   per-chunk fallback to the batched interpreter. Fastest multi-stream
//!   engine on AVX2 hosts; elsewhere (or under `HC_NO_NATIVE=1`) it
//!   degrades to exactly [`BatchedSimulator`].
//!
//! All compiled engines run the **tape backend optimizer** by default
//! (see [`TapeOptReport`]): superinstruction fusion, copy forwarding, tape
//! dead-code elimination, live-range slot reallocation, and a partition
//! into parts and components for change-driven evaluation: the scalar
//! engines re-run only the parts whose inputs changed and commit only the
//! registers whose inputs changed; the batched engines re-run only the
//! components whose inputs changed. Build with
//! [`EngineOptions::no_tape_opt`] to replay the raw lowered tape instead.

mod backend;
mod batched;
mod compiled;
mod lower;
mod native;
mod probe;
mod simulator;
mod tapeopt;
mod vcd;

pub use backend::SimBackend;
pub use batched::{BatchedSimulator, InPort, OutPort};
pub use compiled::CompiledSimulator;
pub use lower::EngineOptions;
pub use native::{NativeBatchedReport, NativeBatchedSimulator, NativeReport, NativeSimulator};
pub use probe::ProbeRecorder;
pub use simulator::Simulator;
pub use tapeopt::TapeOptReport;
pub use vcd::VcdWriter;
