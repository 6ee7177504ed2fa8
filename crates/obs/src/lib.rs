//! Observability for the whole pipeline: one environment [`config`], a
//! hierarchical tracing layer ([`trace`]), a process-wide metrics
//! registry ([`metrics`]) and the workspace's one JSON codec ([`json`])
//! that traces, metrics snapshots, `BENCH_sim.json` and hc-serve's wire
//! format are all written and read with.
//!
//! This crate is a dependency *leaf* — it uses nothing but `std`, so every
//! layer of the flow (frontends, `hc-rtl` passes, `hc-synth`, `hc-sim`,
//! `hc-core` drivers) can report into it without dependency cycles.
//! Downstream code normally reaches it as `hc_core::obs`.
//!
//! Everything is compile-out-cheap: with neither `HC_TRACE` nor
//! `HC_PROFILE` set, a span is one relaxed atomic load and the metrics
//! counters are plain uncontended atomics touched only at pipeline-stage
//! granularity (never per simulated cycle or per tape instruction).
//!
//! | variable | effect |
//! |---|---|
//! | `HC_THREADS` | worker-pool width override for measurement sweeps |
//! | `HC_CACHE_CAP` | LRU capacity of the front-half memo cache |
//! | `HC_TRACE` | write a Chrome-trace JSON of pipeline spans to this path |
//! | `HC_PROFILE` | enable per-opcode / per-cone simulator profiling |
//! | `HC_SERVE_THREADS` | hc-serve worker-pool width |
//! | `HC_SERVE_QUEUE_CAP` | hc-serve job-queue bound (beyond it: HTTP 429) |
//! | `HC_STORE_DIR` | directory of the persistent result store (on iff set) |
//! | `HC_STORE_CAP_MB` | soft cap on the store's live bytes, in MiB |
//! | `HC_STORE_SYNC` | fsync the store after every append |
//! | `HC_SERVE_RPS` | per-client request rate budget (beyond it: HTTP 429) |

pub mod config;
pub mod json;
pub mod metrics;
pub mod trace;

pub use config::{config, Config};
pub use json::Json;
pub use trace::{span, Span};
