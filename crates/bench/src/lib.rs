//! Benchmark harness regenerating every evaluation figure of
//! *Incentivizing Microservices for Online Resource Sharing in Edge
//! Clouds* (ICDCS 2019).
//!
//! * [`scenario`] — instance generators from the §V-A parameters,
//!   including the fully integrated workload → simulator → demand
//!   estimator → auction pipeline;
//! * [`runner`] — one sweep per figure (3a, 3b, 4a, 4b, 5a, 6a, 6b),
//!   fanned out over scenario points × seeds on the workspace's one
//!   fork–join ([`edge_common::fork`]), returning typed serializable
//!   rows;
//! * [`report`] — the rendering path behind `edge-market reproduce`,
//!   the one way to regenerate a figure;
//! * [`scale`] — the non-figure scale benchmark (`BENCH_scale.json`):
//!   MSOA at up to a million sellers, phases timed by spans;
//! * [`federation`] — the fed-faults benchmark (`BENCH_federation.json`):
//!   cross-platform fill rate and platform cost as seeded network
//!   faults (drops, partitions) degrade the federation;
//! * [`table`] — fixed-width table rendering and JSON export.
//!
//! Every sweep reports as one span on the calling thread
//! ([`edge_telemetry::spans`]) carrying its `points`, `seeds` and `cells`
//! counters, so a traced `reproduce` shows each sweep's shape in the
//! deterministic section and its wall time in the profile tail.
//! Criterion micro-benchmarks for the running-time figure live under
//! `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod federation;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod table;

pub use runner::DEFAULT_SEEDS;
