//! `hc-serve`: the synthesis-and-simulation pipeline as a multi-client
//! HTTP/1.1 + JSON service.
//!
//! The paper's flow is batch-shaped — one process, one sweep, one report.
//! This crate turns it into the shape the roadmap's north star wants:
//! many concurrent clients submitting designs in any of the seven
//! frontends, sharing one process-wide front-half cache
//! (`hc_core::cache`) and one work-stealing [`pool`].
//!
//! Everything is hand-rolled on `std` — the workspace builds offline, so
//! the HTTP framing ([`http`]) and the pool ([`pool`]) carry no
//! dependencies. The JSON codec is `hc_obs`'s, re-exported here as
//! [`json`] and [`Json`].
//!
//! # Endpoints
//!
//! | route | meaning |
//! |---|---|
//! | `GET /healthz` | liveness (answers even when the queue is full) |
//! | `GET /v1/metrics` | queue depth, cache hits/store hits/misses, all counters |
//! | `GET /v1/tools` | the seven frontends and their parameters |
//! | `POST /v1/synth` | optimize + synthesize a design (memoized front half) |
//! | `POST /v1/measure` | full §III-C measurement of one design point |
//! | `POST /v1/dse` | a tool's whole sweep, scattered across the pool |
//! | `POST /v1/shutdown` | graceful drain |
//!
//! Submission bodies name a `"frontend"` (see [`frontend::FRONTENDS`]);
//! failures come back as structured `{"error": {status, code, message}}`
//! bodies, `429 + Retry-After` signals backpressure — from the bounded
//! queue (`code: "queue_full"`) or, when `HC_SERVE_RPS` is set, from the
//! per-peer token bucket (`code: "rate_limited"`, [`ratelimit`]).
//!
//! `POST /v1/dse` with `"stream": true` switches to a chunked NDJSON
//! response: a `meta` event, one `point` event per sweep point *as it
//! completes* (points already in the persistent store are flagged
//! `"cached"` and come back near-instantly), and a final `done` event
//! with the Pareto front. A killed sweep resumes cheaply: re-issuing the
//! request recomputes only the points the store has not seen.

pub mod api;
pub mod client;
pub mod frontend;
pub mod http;
pub mod pool;
pub mod ratelimit;
pub mod server;

pub use frontend::ApiError;
pub use hc_obs::{jobj, json};
pub use json::Json;
pub use pool::{JobPool, Priority, SubmitError, Worker};
pub use server::{start, Options, Server};

/// Default injector bound when `HC_SERVE_QUEUE_CAP` is unset.
pub const DEFAULT_QUEUE_CAP: usize = 256;
