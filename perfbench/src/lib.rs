//! The repository benchmark: three closed-loop workloads over the `wcdma`
//! crates, an untraced run that reports the end-to-end metrics, and a
//! traced run that times calls into each layer's public functions from
//! here (no library code is instrumented).
//!
//! `run.py` builds this crate and the `wcdma` CLI, runs the `perfbench`
//! binary for one workload, adds the process's peak memory and the build
//! stamp, and prints the result line. See `README.md` for the workloads,
//! the metric definitions, and the layer → end-to-end predictions.

pub mod campaign;
pub mod frames;
pub mod report;
pub mod workloads;
