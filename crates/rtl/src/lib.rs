//! A flat, typed register-transfer-level netlist IR.
//!
//! This is the common target of every frontend in the workspace — the
//! Verilog elaborator, the Chisel-like construction eDSL, the rule-based
//! language, the dataflow languages and the HLS scheduler all emit a
//! [`Module`]. The simulator (`hc-sim`) executes it and the synthesis
//! estimator (`hc-synth`) maps it onto a virtual FPGA, which is what makes
//! the paper's cross-tool comparison apples-to-apples.
//!
//! A module is a flat sea of combinational [`Node`]s (append-only, so node
//! order is a topological order), plus registers, memories and ports.
//! Hierarchy is flattened by the frontends at elaboration time.
//!
//! # Examples
//!
//! Build a 2-tap moving-sum filter and inspect it:
//!
//! ```
//! use hc_rtl::{Module, BinaryOp};
//! use hc_bits::Bits;
//!
//! let mut m = Module::new("moving_sum");
//! let x = m.input("x", 8);
//! let prev = m.reg("prev", 8, Bits::zero(8));
//! let prev_q = m.reg_out(prev);
//! m.connect_reg(prev, x);
//! let sum = m.binary(BinaryOp::Add, x, prev_q, 8);
//! m.output("y", sum);
//! m.validate()?;
//! # Ok::<(), hc_rtl::ValidateError>(())
//! ```

pub mod hash;
mod id;
mod inline;
mod module;
mod node;
mod op;
pub mod passes;
mod print;
mod stats;
mod validate;

pub use id::{MemId, NodeId, RegId};
pub use module::{Mem, MemWrite, Module, NodeData, Output, Port, Reg};
pub use node::Node;
pub use op::{BinaryOp, UnaryOp};
pub use stats::ModuleStats;
pub use validate::{ValidateError, MEM_BUDGET_BYTES};
