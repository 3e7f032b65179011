//! `wcdma-sim`: the dynamic simulation evaluating JABA-SD — "dynamic
//! simulations which takes into account of the user mobility, power control,
//! and soft hand-off".
//!
//! * [`config`] — scenario descriptions ([`SimConfig`]) with sweep helpers.
//! * [`traffic`] — the web-browsing workload (truncated Pareto bursts,
//!   exponential reading time).
//! * [`engine`] — the frame loop tying mobility, the CDMA network, the MAC
//!   and the burst scheduler together ([`Simulation`]).
//! * [`stats`] — streaming metric accumulators, the [`SimReport`], and the
//!   cross-replication [`ReplicationStats`].
//! * [`runner`] — parallel replication running with confidence intervals.
//! * [`campaign`] — declarative scenario matrices ([`campaign::ScenarioSpec`]),
//!   the sharded work-stealing campaign runner, and CSV/JSON emitters.
//! * [`trace`] — decision-trace hooks: capture every per-frame policy
//!   decision ([`trace::DecisionRecord`]) for tests and the campaign CSV
//!   layer.
//! * [`experiments`] — drivers for the E1–E8 experiment suite.
//! * [`table`] — text/CSV rendering of result rows.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod config;
pub mod engine;
pub mod experiments;
pub mod runner;
pub mod stats;
pub mod table;
pub mod trace;
pub mod traffic;

pub use campaign::{
    campaign_status, merge_dirs, run_campaign, run_spec, run_spec_service, CampaignResult,
    RunOptions, Scenario, ScenarioSpec, ServiceConfig, ServiceOutcome,
};
pub use config::{MismatchConfig, PhyKind, SimConfig, TrafficConfig};
pub use engine::Simulation;
pub use runner::{run_replications, Aggregate};
pub use stats::{ReplicationStats, SimReport, SimStats};
pub use table::Table;
pub use trace::{run_with_trace, DecisionLog, DecisionRecord, DecisionTrace};
