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
//! * [`complex`] — minimal complex arithmetic for the Jakes fading model.
//! * [`par`] — deterministic intra-frame parallelism: the persistent
//!   [`FramePool`] chunk-worker pool and the disjoint-chunk slice windows
//!   behind the bit-identical chunk-order fold.
//! * [`simd`] — deterministic 4-lane hot-path kernels (dot / scale /
//!   ratio / exp) with lane-order-fixed folds; SSE2 backend on x86_64,
//!   portable backend elsewhere or under the `scalar-kernels` feature,
//!   bit-identical either way.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod complex;
pub mod db;
pub mod dist;
pub mod par;
pub mod rng;
pub mod simd;
pub mod special;
pub mod stats;

pub use complex::C64;
pub use db::{db_to_lin, lin_to_db};
pub use par::{FramePool, Partition};
pub use rng::{mix_seed, SplitMix64, Xoshiro256pp};
pub use simd::{F64x4, CANONICAL_ORDER_VERSION};
pub use stats::Welford;
