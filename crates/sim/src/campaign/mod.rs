//! Campaign subsystem: declarative scenario matrices, a sharded parallel
//! runner, and machine-readable emitters.
//!
//! The paper's evaluation is a *matrix* of scenarios — traffic mixes,
//! mobility classes, CSI quality, hotspot overloads, policy sets — and the
//! ROADMAP north star asks for "as many scenarios as you can imagine". This
//! module turns that matrix into data:
//!
//! * [`spec`] — [`ScenarioSpec`], a plain-text (TOML-subset, zero-dependency)
//!   description of a campaign, expanded into concrete [`Scenario`]s (each
//!   wrapping a [`crate::SimConfig`]) through the named axis registries
//!   ([`TrafficMix`], [`SpeedClass`], [`CsiQuality`], and the open
//!   admission-policy registry [`PolicyRegistry`] — names with optional
//!   `key=value` parameters, e.g. `threshold-reservation:margin=0.4`).
//! * [`runner`] — [`run_campaign`] / [`run_spec`], a work-stealing sharded
//!   driver over the (scenario × replication) job grid with deterministic
//!   per-replication seed substreams, configured by one [`RunOptions`];
//!   results are folded in replication order by [`ScenarioResult::fold`],
//!   so the statistics are bit-identical regardless of the shard count.
//!   [`run_spec_observed`] runs the same loop and also keeps an
//!   [`Observation`] (trace rows, scheduler counters) of every scenario's
//!   first replication — the `--trace` / `--sched-stats` data, taken from
//!   the campaign's own pass.
//! * [`emit`] — CSV and JSON renderers, including the
//!   `BENCH_campaign.json`-style summary consumed by CI, and
//!   [`write_artefacts`], which writes them atomically.
//! * [`mod@builtin`] — the named campaigns shipped with the repo (the
//!   paper evaluation matrix, the ported load/speed/policy sweeps, hotspot
//!   stress).
//! * [`service`], [`journal`], [`merge`] — the durability layer: a
//!   versioned on-disk checkpoint (manifest + append-only completion
//!   journal) that makes runs resumable after a kill with **byte-identical**
//!   artefacts, streams artefact rows as scenarios complete, partitions the
//!   grid across processes (`--grid-slice i/n`), and folds slice
//!   checkpoints back into the canonical single-process output.

pub mod builtin;
pub mod emit;
pub mod journal;
pub mod merge;
pub mod runner;
pub mod service;
pub mod spec;

pub use builtin::{builtin, builtin_names};
pub use emit::{
    campaign_csv, campaign_json, campaign_summary_json, campaign_trace_csv, observed_trace_csv,
    write_artefacts,
};
pub use journal::{write_atomic, Manifest, CHECKPOINT_FORMAT_VERSION};
pub use merge::merge_dirs;
pub use runner::{
    arbitrate_frame_threads, run_campaign, run_grid_jobs, run_spec, run_spec_observed,
    CampaignResult, Observation, RunOptions, ScenarioResult,
};
pub use service::{run_spec_service, status as campaign_status, ServiceConfig, ServiceOutcome};
pub use spec::{CsiQuality, MismatchLevel, Scenario, ScenarioSpec, SpeedClass, TrafficMix};
// The policy registry is the campaign layer's resolution path for the
// policy axis; re-exported so registry consumers (the CLI) need not depend
// on `wcdma-admission` directly.
pub use wcdma_admission::{AdmissionPolicy, BoxedPolicy, PolicyEntry, PolicyRegistry, SchedStats};
