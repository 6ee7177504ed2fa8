//! The paper's evaluation methodology — the primary contribution of
//! "High-Level Synthesis versus Hardware Construction" (DATE 2023).
//!
//! Everything §III defines is here:
//!
//! * **Metrics** ([`metrics`]): source code size `L` (comment/blank-free
//!   LOC including tool settings), performance `P` (MOPS), area `A`
//!   (`N*_LUT + N*_FF` with DSP inference disabled), quality `Q = P/A`,
//!   degree of automation `α` (eq. 1), controllability `C_Φ` (eq. 2) and
//!   flexibility `F_Φ` (eq. 3).
//! * **Procedure** ([`measure`]): every design is optimized, synthesized
//!   twice (normal and `maxdsp=0`), and *simulated* through its stream
//!   interface to measure latency `T_L` and periodicity `T_P`; throughput
//!   is `ν_max / T_P` (or the PCIe bound for the MaxCompiler-style
//!   system designs). Every output block is checked bit-exact against the
//!   golden model of the design's [`measure::Workload`] (the fixed-point
//!   IDCT, or a matrix kernel's); a design that fails is a typed
//!   [`measure::MeasureError`].
//! * **Subjects** ([`entries`]): the seven language/tool pairs of
//!   Table I, each with its initial and optimized design and its DSE
//!   configuration space (19 XLS stage counts, 12 Bambu configurations,
//!   8 Vivado HLS pragma sets, three Verilog/Chisel architectures, two
//!   MaxJ kernels, …).
//! * **Reports** ([`report`]): Table I, Table II and the Fig. 1 design-
//!   space scatter as text/CSV.
//!
//! ```no_run
//! use hc_core::entries::all_tools;
//! use hc_core::report::table2;
//!
//! let rows = hc_core::measure::measure_all(&all_tools(), 3);
//! println!("{}", table2(&rows));
//! ```

pub mod cache;
pub mod dse;
pub mod entries;
pub mod matrix;
pub mod measure;
pub mod metrics;
pub mod par;
pub mod persist;
pub mod report;
pub mod tool;

/// Observability layer (structured tracing, metrics registry, `HC_*`
/// configuration): the [`hc_obs`] leaf crate re-exported under the
/// `hc_core` namespace, where flow-level code expects it.
pub use hc_obs as obs;
