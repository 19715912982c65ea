//! # edge-telemetry
//!
//! Structured, deterministic tracing for the edge-market workspace.
//!
//! The crate has two independent layers:
//!
//! 1. **Audit trail** — explicit, per-run. A [`Collector`] records
//!    sequence-numbered [`Event`]s; instrumented code receives a
//!    [`Trace`] handle (a nullable sink reference) and pays nothing
//!    when it is off. Exports are JSONL and **deterministic**: no
//!    wall-clock, PID, or thread-identity fields, so the same workload
//!    produces byte-identical traces across machines and thread
//!    counts. Timings live in a separate profile section
//!    ([`Collector::record_profile`]), clearly tagged
//!    `"section":"profile"` and excluded from the determinism contract.
//! 2. **Spans** — the ambient [`spans`] profiler, the one timing
//!    source. Its tree feeds `edge-market profile`, the scale
//!    benchmark's timing columns ([`spans::collect`] around each
//!    measured run) and, in live mode, the `edge_profile_*` families.
//!
//! Counters and log-bucketed histograms ([`Counter`], [`LogHistogram`])
//! cover hot-path statistics too frequent to record as events, and the
//! [`registry`] module exposes named, labeled series of them (plus
//! [`Gauge`]s and quantile [`Summary`]s) in Prometheus text format for
//! the `edge-market serve` `/metrics` endpoint.
//!
//! The crate is deliberately dependency-free (std only) so every
//! workspace member can embed it without dragging in the shims.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod collector;
mod event;
mod metrics;
pub mod registry;
pub mod spans;
mod value;

pub use collector::{Collector, ProfileEntry, Scoped, Sink, Trace};
pub use event::{Event, Level};
pub use metrics::{Counter, LogHistogram, HISTOGRAM_BUCKETS};
pub use registry::{Gauge, Registry, Summary};
pub use value::Value;
