//! Replication running: a thin wrapper over the campaign runner.
//!
//! `run_replications` is the historical single-scenario entry point; it
//! wraps the configuration as a one-cell campaign and delegates to
//! [`crate::campaign::run_campaign`], which work-steals the replications
//! across threads while keeping each one bit-reproducible from its derived
//! seed (`mix_seed(cfg.seed, 1 + rep)`). The cross-replication mean/CI
//! math lives in the streaming [`ReplicationStats`]; [`Aggregate`] is the
//! compatibility view the experiment drivers render.

use wcdma_math::stats::MeanCi;

use crate::campaign::{run_campaign, RunOptions, Scenario, ScenarioResult};
use crate::config::SimConfig;
use crate::stats::{ReplicationStats, SimReport};

/// Aggregated result of several replications.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Mean burst delay with CI.
    pub mean_delay_s: MeanCi,
    /// p95 burst delay with CI (of per-replication p95s).
    pub p95_delay_s: MeanCi,
    /// Per-cell throughput with CI.
    pub per_cell_throughput_kbps: MeanCi,
    /// Mean granted m with CI.
    pub mean_grant_m: MeanCi,
    /// Denial rate with CI.
    pub denial_rate: MeanCi,
    /// Streaming per-metric statistics (the full set, beyond the headline
    /// CIs above).
    pub stats: ReplicationStats,
    /// Raw per-replication reports.
    pub reports: Vec<SimReport>,
}

impl From<ScenarioResult> for Aggregate {
    fn from(sr: ScenarioResult) -> Self {
        let s = &sr.stats;
        Aggregate {
            mean_delay_s: ReplicationStats::ci(&s.mean_delay_s),
            p95_delay_s: ReplicationStats::ci(&s.p95_delay_s),
            per_cell_throughput_kbps: ReplicationStats::ci(&s.per_cell_throughput_kbps),
            mean_grant_m: ReplicationStats::ci(&s.mean_grant_m),
            denial_rate: ReplicationStats::ci(&s.denial_rate),
            stats: sr.stats,
            reports: sr.reports,
        }
    }
}

/// Runs `n_reps` replications of `cfg` with derived seeds, in parallel.
pub fn run_replications(cfg: &SimConfig, n_reps: usize) -> Aggregate {
    assert!(n_reps >= 1);
    let scenario = Scenario::single("replications", cfg.clone());
    let mut result = run_campaign(
        "replications",
        vec![scenario],
        n_reps,
        &RunOptions::default(),
    )
    .expect("one scenario, no candidate override");
    Aggregate::from(result.scenarios.pop().expect("one scenario in, one out"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;

    fn quick_cfg() -> SimConfig {
        let mut c = SimConfig::baseline();
        c.n_voice = 8;
        c.n_data = 3;
        c.duration_s = 8.0;
        c.warmup_s = 2.0;
        c
    }

    #[test]
    fn replications_aggregate() {
        let agg = run_replications(&quick_cfg(), 3);
        assert_eq!(agg.reports.len(), 3);
        assert_eq!(agg.mean_delay_s.n, 3);
        assert_eq!(agg.stats.n(), 3);
        assert!(agg.mean_delay_s.mean > 0.0);
        assert!(agg.per_cell_throughput_kbps.mean > 0.0);
    }

    #[test]
    fn parallel_equals_serial() {
        // The parallel runner must produce exactly the per-seed results a
        // serial loop would.
        let cfg = quick_cfg();
        let agg = run_replications(&cfg, 2);
        let serial0 = Simulation::new(cfg.with_seed(wcdma_math::mix_seed(cfg.seed, 1))).run();
        assert_eq!(agg.reports[0], serial0);
    }

    #[test]
    fn aggregate_cis_come_from_streaming_stats() {
        // The headline MeanCi fields are projections of the streaming
        // stats — recomputing from the raw reports must agree bit for bit.
        let agg = run_replications(&quick_cfg(), 3);
        let xs: Vec<f64> = agg.reports.iter().map(|r| r.mean_delay_s).collect();
        assert_eq!(agg.mean_delay_s, MeanCi::from_samples(&xs));
    }
}
