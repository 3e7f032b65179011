//! `wcdma-cdma`: the multi-cell CDMA network substrate.
//!
//! Everything between the channel model and the burst-admission layer:
//!
//! * [`config`] — cdma2000-flavoured link budget, hand-off and frame
//!   parameters ([`CdmaConfig`]).
//! * [`pilot`] — forward pilot Ec/Io measurement and the FCH active set with
//!   T_ADD/T_DROP hysteresis plus the reduced active set for the SCH.
//! * [`power`] — forward FCH power allocation across soft hand-off legs and
//!   reverse closed-loop power control.
//! * [`voice`] — on/off background voice activity (the statistical
//!   multiplexing base load of Section 1).
//! * [`network`] — the dynamic [`Network`]: per-frame update producing the
//!   cell loading `P_k`, reverse interference `L_k`, and the per-request
//!   [`MeasurementView`] of Figure 2 (with [`DataUserMeasurement`] as the
//!   owned adapter).
//! * [`scenario`] — scenario-builder helpers (round-robin and weighted
//!   hotspot user placement) shared by the simulation engine, the
//!   experiment drivers, and tests.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod config;
pub mod network;
pub mod pilot;
pub mod power;
pub mod scenario;
pub mod voice;

pub use config::CdmaConfig;
pub use network::{DataUserMeasurement, MeasurementView, Network, SchGrant, UserKind};
pub use pilot::{ActiveSet, PilotStrength};
pub use power::{InnerLoop, OuterLoop};
pub use scenario::{hotspot_weights, populate_round_robin, populate_weighted, PlacedUser};
pub use voice::VoiceActivity;
