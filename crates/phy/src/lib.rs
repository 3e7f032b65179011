//! `wcdma-phy`: the channel-adaptive physical layer of Section 2.
//!
//! * [`modes`] — the six VTAOC transmission modes (β = 1/32 … 1 bits/symbol).
//! * [`ber`] — parametric BER model with closed-form constant-BER threshold
//!   inversion (substitution for the coded-modulation curves of refs \[3\],\[7\];
//!   see DESIGN.md §2).
//! * [`vtaoc`] — the adaptive coder: mode selection from fed-back CSI,
//!   mode-occupancy and average-throughput closed forms over Rayleigh fading.
//! * [`spreading`] — eq. (2)/(4)/(5): processing gain, SCH rate `m·δβ̄·R_f`,
//!   and the linear power ratio `X_s/X_f = γ_s·m` the admission layer builds
//!   its constraint matrices from.
//! * [`frame`] — Figure 1(b): per-frame mode sequences against fading traces.
//! * [`fixed`] — the non-adaptive single-mode baseline for the ablation
//!   experiments.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod ber;
pub mod fixed;
pub mod frame;
pub mod modes;
pub mod spreading;
pub mod union_bound;
pub mod vtaoc;

pub use ber::BerModel;
pub use fixed::FixedPhy;
pub use modes::{mode_throughput, TxMode, NUM_MODES};
pub use spreading::SpreadingConfig;
pub use union_bound::{union_bound_ber, union_bound_thresholds};
pub use vtaoc::Vtaoc;
