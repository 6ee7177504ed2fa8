//! The [`SimBackend`] abstraction over simulation engines.
//!
//! Three engines implement it: the interpreted
//! [`Simulator`](crate::Simulator), which walks the node table with boxed
//! [`Bits`] values every cycle; the
//! [`CompiledSimulator`](crate::CompiledSimulator), which lowers the module
//! once into a flat instruction tape over a word-packed value store; and the
//! [`NativeSimulator`](crate::NativeSimulator), which runs that tape's parts
//! as generated x86-64 code. The same by-name stimulus can drive any of
//! them, so the interpreter doubles as a reference oracle for differential
//! testing of the other two. The stream harness in `hc-axi` drives engines
//! through [`LaneEngine`](crate::LaneEngine) instead: resolved ports,
//! little-endian words, any lane count.

use hc_bits::Bits;
use hc_rtl::{Module, ValidateError};

/// A cycle-accurate simulation engine for one [`Module`].
///
/// All engines share the same observable semantics: drive inputs with
/// [`set`](SimBackend::set), settle combinational logic implicitly, read
/// outputs with [`get`](SimBackend::get), and advance the clock with
/// [`step`](SimBackend::step). Register commits are simultaneous and memory
/// writes are synchronous with port-order (last-wins) conflict resolution.
pub trait SimBackend {
    /// Validates the module and prepares simulation state (registers hold
    /// their `init` values, memories are zeroed).
    ///
    /// # Errors
    ///
    /// Returns the module's [`ValidateError`] if it is structurally invalid.
    fn from_module(module: Module) -> Result<Self, ValidateError>
    where
        Self: Sized;

    /// The simulated module.
    fn module(&self) -> &Module;

    /// Number of completed clock cycles.
    fn cycle(&self) -> u64;

    /// Drives an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists or the width differs.
    fn set(&mut self, name: &str, value: Bits);

    /// Drives an input port from a `u64` (truncated to the port width).
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    fn set_u64(&mut self, name: &str, value: u64);

    /// Reads an output port (evaluating first if necessary).
    ///
    /// # Panics
    ///
    /// Panics if no output named `name` exists.
    fn get(&mut self, name: &str) -> Bits;

    /// Reads back the value currently driving an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    fn input_value(&self, name: &str) -> Bits;

    /// Reads a register's current value by name.
    ///
    /// # Panics
    ///
    /// Panics if no register named `name` exists.
    fn peek_reg(&self, name: &str) -> Bits;

    /// Advances one clock cycle: settles combinational logic, then commits
    /// register next-values and memory writes simultaneously.
    fn step(&mut self);

    /// Runs `n` clock cycles with the current inputs held.
    fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Resets all registers to their init values and clears memories and the
    /// cycle counter (a hard power-on reset, independent of any reset port).
    fn reset(&mut self);

    /// The tape backend optimizer's report, for engines that replay an
    /// optimized instruction tape (`None` for the interpreter, which has
    /// no tape).
    fn tape_opt_report(&self) -> Option<crate::TapeOptReport> {
        None
    }
}
