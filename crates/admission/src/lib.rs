//! `wcdma-admission`: channel-adaptive multiple burst admission control —
//! the paper's core contribution (Section 3).
//!
//! * [`measurement`] — the measurement sub-layer: forward (eq. 6–8) and
//!   reverse (eq. 9–18) admissible regions built from the Figure-2 reports.
//! * [`csi`] — the SCH channel-state model mapping achieved FCH quality to
//!   the relative average VTAOC throughput `δβ̄_j` (eq. 3–5).
//! * [`objective`] — J1/J2 objectives with the MAC-aware delay penalty
//!   (eq. 19–23).
//! * [`policy`] — the open admission-policy API: the [`AdmissionPolicy`]
//!   trait, the built-in policies (JABA-SD, the FCFS / equal-share
//!   baselines, weighted fair share, threshold reservation, and the
//!   measurement-based `measured-region` / `graceful-degradation`
//!   family), and the "writing your own policy" guide.
//! * [`feedback`] — the in-loop QoS feedback signal ([`QosFeedback`],
//!   [`QosMonitor`]) that measurement-based policies consume instead of
//!   trusting the eq.-24 region.
//! * [`registry`] — the [`PolicyRegistry`]: name → constructor with typed
//!   parameters, the resolution path for campaign specs and the CLI.
//! * [`scheduler`] — the per-frame burst scheduler: builds the policy
//!   context (region, δβ̄, eq.-24 bounds) and delegates the grant decision
//!   to its policy object.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod csi;
pub mod feedback;
pub mod measurement;
pub mod objective;
pub mod policy;
pub mod registry;
pub mod scheduler;
pub mod temporal;

pub use csi::{delta_beta, sch_mean_csi, PhyModel};
pub use feedback::{DirQos, QosFeedback, QosMonitor, DEFAULT_QOS_WINDOW_FRAMES};
pub use measurement::{forward_region, reverse_region, Region};
pub use objective::{delay_penalty, Objective};
pub use policy::{
    AdmissionPolicy, BoxedPolicy, EqualShare, Fcfs, GracefulDegradation, JabaSd, MeasuredRegion,
    PolicyContext, PolicyScratch, ThresholdReservation, WeightedFairShare,
};
pub use registry::{PolicyEntry, PolicyParamSpec, PolicyRegistry, ResolvedParams};
pub use scheduler::{Grant, RequestState, SchedStats, ScheduleOutcome, Scheduler, SchedulerConfig};
pub use temporal::{
    spatial_only_value, temporal_exhaustive, temporal_greedy, Placement, TemporalConfig,
    TemporalRequest, TemporalSchedule,
};
