//! The [`SimBackend`] abstraction over simulation engines.
//!
//! Two engines implement it: the interpreted [`Simulator`](crate::Simulator),
//! which walks the node table with boxed [`Bits`] values every cycle, and the
//! [`CompiledSimulator`](crate::CompiledSimulator), which lowers the module
//! once into a flat instruction tape over a word-packed value store.
//! Harnesses (such as the AXI-Stream test benches in `hc-axi`) are generic
//! over this trait, so the same stimulus can drive either engine — the
//! interpreter doubles as a reference oracle for differential testing of the
//! compiled backend.

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

    /// Reads an output port as a `u64` (evaluating first if necessary),
    /// truncating ports wider than 64 bits to their low word. The cheap
    /// sibling of [`get`](SimBackend::get) for per-cycle handshake flags:
    /// engines override it to skip the `Bits` allocation.
    ///
    /// # Panics
    ///
    /// Panics if no output named `name` exists.
    fn get_u64(&mut self, name: &str) -> u64 {
        self.get(name).to_u64()
    }

    /// Reads back the value currently driving an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    fn input_value(&self, name: &str) -> Bits;

    /// Reads back an input port's driven value as a `u64` (low word for
    /// wide ports), without allocating.
    ///
    /// # Panics
    ///
    /// Panics if no input named `name` exists.
    fn input_value_u64(&self, name: &str) -> u64 {
        self.input_value(name).to_u64()
    }

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
    /// optimized instruction tape (`None` for interpreting engines or when
    /// the optimizer is disabled via
    /// [`EngineOptions::no_tape_opt`](crate::EngineOptions::no_tape_opt)).
    fn tape_opt_report(&self) -> Option<crate::TapeOptReport> {
        None
    }
}
