//! `wcdma-math`: numeric substrate for the JABA-SD reproduction.
//!
//! Self-contained (no external dependencies) so that every stochastic
//! process in the simulator is reproducible bit-for-bit from a `u64` seed:
//!
//! * [`rng`] — SplitMix64 / xoshiro256++ deterministic generators with
//!   substream derivation for parallel replications.
//! * [`dist`] — the distributions the channel/traffic/mobility models need.
//! * [`db`] — decibel/linear conversions and link-budget helpers.
//! * [`special`] — erf / Q-function / inverse-Q for BER threshold design.
//! * [`stats`] — streaming statistics (Welford, P² quantiles, histograms,
//!   replication confidence intervals).
//! * [`par`] — deterministic intra-frame parallelism: the persistent
//!   [`FramePool`] chunk-worker pool that hands disjoint chunk windows to
//!   the workers for the bit-identical chunk-order fold.
//! * [`simd`] — deterministic 4-lane hot-path kernels (dot / scale /
//!   ratio / exp) over plain `[f64; 4]` lanes with lane-order-fixed
//!   folds, bit-identical on every ISA.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(unsafe_code)]

pub mod db;
pub mod dist;
#[allow(unsafe_code)] // the `FramePool` job hand-off
pub mod par;
pub mod rng;
pub mod simd;
pub mod special;
pub mod stats;

pub use db::{db_to_lin, lin_to_db};
pub use par::FramePool;
pub use rng::{mix_seed, SplitMix64, Xoshiro256pp};
pub use simd::{F64x4, CANONICAL_ORDER_VERSION};
pub use stats::Welford;
