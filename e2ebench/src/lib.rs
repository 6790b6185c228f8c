//! End-to-end benchmark of the EDA pipeline: from a data file on disk to
//! rendered HTML, the way a user runs it, with each layer timed from
//! outside through its public functions.
//!
//! One run = one workload and seed: set-up writes the generated input,
//! a timed loop runs the workload in fresh job processes for
//! `--seconds`, every output is checked, and the last line of standard
//! output is one JSON object with the metrics (end-to-end ones with
//! `--trace 0`, per-layer ones from an extra profiled run with
//! `--trace 1`). `LAYERS.md` in this directory describes the workloads,
//! metrics and checks; the repository root's `BENCHMARK.json` lists them.

mod child;
pub mod json;
pub mod metrics;
pub mod runner;
mod spans;
pub mod workload;
