//! Timing benches for the kernels behind the paper's evaluation.
//!
//! Each bench under `benches/` registers Criterion timings on the machinery
//! behind one experiment (F1–F3, E1–E10) or on the frame pipeline's scaling
//! (`e11_scale`). The benches render no experiment table: every table comes
//! from `examples/full_evaluation.rs`, and both take their inputs from
//! `wcdma_sim::experiments`.

#![forbid(unsafe_code)]
