//! `wcdma-geo`: cell geometry and user mobility.
//!
//! The paper's evaluation is a dynamic simulation "which takes into account
//! of the user mobility, power control, and soft hand-off". This crate
//! provides the spatial substrate: a hexagonal multi-cell layout with
//! wrap-around (to avoid boundary artefacts in interference sums) and the
//! standard mobility models.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod hex;
pub mod mobility;

pub use hex::{CellId, HexLayout, Point};
pub use mobility::{MobilityModel, RandomWaypoint};
