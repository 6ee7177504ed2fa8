//! AXI-Stream infrastructure: port bundles, matrix adapters, the
//! measurement harness and the PCIe link model.
//!
//! The paper wraps every IDCT kernel in a row-by-row AXI-Stream adapter and
//! shows that this *sequential adapter* — one 96-bit row per cycle in, one
//! 72-bit row per cycle out — is the bottleneck that caps every design's
//! throughput at one matrix per 8 cycles. This crate is where that
//! behaviour lives:
//!
//! * [`AxisSlave`] / [`AxisMaster`] — declare the handshake ports on a
//!   module under construction;
//! * [`wrap_comb_matrix`], [`wrap_pipelined_matrix`],
//!   [`wrap_sequential_matrix`] — adapter generators around the three
//!   kernel styles the evaluated tools produce;
//! * [`StreamHarness`] — the one simulator testbench: it feeds matrices
//!   through a wrapper (or a MaxJ-style stream kernel) on any
//!   [`LaneEngine`](hc_sim::LaneEngine), *measures* latency and
//!   periodicity the way the paper defines them, and checks the
//!   AXI-Stream stability rules under optional [`Backpressure`];
//! * [`BatchedStreamHarness`] — that harness on the lane-batched vector
//!   JIT, streaming many independent matrix sequences through one
//!   simulation for throughput;
//! * [`PcieLink`] — the PCIe 3.0 x16 bandwidth model behind MaxCompiler's
//!   numbers.
//!
//! # Examples
//!
//! Wrap a trivial "kernel" (identity on the low 9 bits) and stream one
//! matrix through it:
//!
//! ```
//! use hc_axi::{wrap_comb_matrix, MatrixWrapperSpec, StreamHarness};
//!
//! let spec = MatrixWrapperSpec::idct();
//! let module = wrap_comb_matrix("ident", spec, |m, elems| {
//!     elems.iter().map(|&e| m.slice(e, 0, 9)).collect()
//! });
//! let mut harness = StreamHarness::new(module)?;
//! let input = [[5i32; 8]; 8];
//! let (outputs, timing) = harness.run(&[input], 200);
//! assert_eq!(outputs[0], input.map(|row| row.map(|v| v & 0x1ff)));
//! assert_eq!(timing.latency, 17);
//! # Ok::<(), hc_rtl::ValidateError>(())
//! ```

mod adapter;
mod batched;
mod harness;
mod pcie;
mod ports;

pub use adapter::{
    wrap_comb_matrix, wrap_pipelined_matrix, wrap_sequential_matrix, MatrixWrapperSpec,
    SequentialKernel,
};
pub use batched::{lanes_for_blocks, BatchedStreamHarness};
pub use harness::{
    pack_elems_n, unpack_elems_n, Backpressure, ProtocolError, StreamHarness, StreamTiming,
};
pub use pcie::PcieLink;
pub use ports::{AxisMaster, AxisSlave};
