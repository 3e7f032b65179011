//! `wcdma-channel`: the wireless channel model of the paper's Section 2.1.
//!
//! The link gain between a mobile and a base station is the product of
//! (eq. 1): `X(t) = X_l(t) · X_s(t)` where
//!
//! * `X_l` — *long-term* component: distance path loss × correlated
//!   log-normal shadowing, coherence on the order of one to two seconds;
//! * `X_s` — *short-term* Rayleigh fast fading from multipath superposition,
//!   coherence on the order of a few milliseconds.
//!
//! This crate models `X_l`: [`PathLoss`] times [`Shadowing`], whose
//! per-link hot state the network keeps as [`ShadowState`] rows, and
//! [`CsiEstimator`], the delayed, noisy CSI feedback. `X_s` has no sampled
//! process in the simulator: it is unit-mean exponential power, averaged
//! analytically by the VTAOC closed forms in `wcdma-phy` (`phy::vtaoc`),
//! and `phy::frame` draws its own AR(1) trace for per-frame mode sequences.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod csi;
pub mod pathloss;
pub mod shadowing;

pub use csi::CsiEstimator;
pub use pathloss::PathLoss;
pub use shadowing::{ShadowState, Shadowing};
