//! An end-to-end and per-layer benchmark of the instant-advertising
//! simulator, driven only through its public API.
//!
//! * [`workload`] — the three workloads and their pinned outputs;
//! * [`bench`] — untraced repetitions (end-to-end metrics) and traced
//!   repetitions (per-layer metrics), with every correctness check;
//! * [`recorder`] — the traced run's observer: event-stream fingerprint
//!   and the inputs of the layer replays;
//! * [`replay`] — each layer's public entry points, timed on recorded work;
//! * [`metrics`] — metric definitions and the `BENCHMARK.json` manifest;
//! * [`alloc`] — the counting allocator behind `allocs_per_event`;
//! * [`provenance`] — compiler, revision and machine of a result.
//!
//! See `README.md` in this directory for the metric-to-layer map.

pub mod alloc;
pub mod bench;
pub mod calib;
pub mod metrics;
pub mod outputs;
pub mod provenance;
pub mod recorder;
pub mod replay;
pub mod workload;
