//! Benchmark of the PANIC simulator: four workloads driven through the
//! simulator's public API, host-time end-to-end metrics, per-layer
//! probes, and a traced run with spans recorded around the
//! benchmark's own calls into each layer. See `README.md`.

#![forbid(unsafe_code)]

pub mod digests;
mod probes;
pub mod run;
pub mod sims;
pub mod spans;
pub mod sys;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
