//! `wcdma`: umbrella crate for the JABA-SD reproduction.
//!
//! Re-exports every subsystem so examples and integration tests can depend on
//! a single crate:
//!
//! ```
//! use wcdma::math::Xoshiro256pp;
//! let mut rng = Xoshiro256pp::new(42);
//! assert!(rng.next_f64() < 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use wcdma_admission as admission;
pub use wcdma_cdma as cdma;
pub use wcdma_channel as channel;
pub use wcdma_geo as geo;
pub use wcdma_ilp as ilp;
pub use wcdma_mac as mac;
pub use wcdma_math as math;
pub use wcdma_phy as phy;
pub use wcdma_sim as sim;
