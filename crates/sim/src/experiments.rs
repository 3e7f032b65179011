//! Experiment drivers and inputs for the evaluation suite.
//!
//! One driver per sweep experiment (E1–E6, E10–E13) builds its sweep
//! points, runs them as one campaign grid of replications, and returns the
//! rows. Alongside them sit the inputs the tables share: the
//! [`contended_base`] config, the warmed network of the region study (F2)
//! and the random instances of the solver (E7) and temporal (E9) studies.
//! `examples/full_evaluation.rs` renders every table from these.

use wcdma_admission::{AdmissionPolicy, BoxedPolicy, JabaSd, Region, TemporalRequest};
use wcdma_cdma::{populate_round_robin, CdmaConfig, Network};
use wcdma_geo::{CellId, HexLayout};
use wcdma_mac::LinkDir;
use wcdma_math::Xoshiro256pp;

use crate::campaign::{run_campaign, RunOptions, Scenario};
use crate::config::{PhyKind, SimConfig};
use crate::stats::ReplicationStats;

/// The base every experiment table starts from: the 7-cell baseline tuned
/// into the *contended* regime (tight 12 W forward budget, 100 voice users,
/// heavy 480 kbit web bursts) where the admission policies genuinely
/// diverge, with 20 s runs so each table takes seconds.
pub fn contended_base() -> SimConfig {
    let mut c = SimConfig::baseline();
    c.cdma.max_bs_power_w = 12.0;
    c.n_voice = 100;
    c.n_data = 16;
    c.traffic.mean_burst_bits = 480_000.0;
    c.traffic.mean_reading_s = 2.0;
    c.duration_s = 20.0;
    c.warmup_s = 4.0;
    c.seed = 0xBE9C;
    c
}

/// F2: a 7-cell network with 12 voice and `n_data` data users, stepped
/// through 25 frames so the measurements behind the admissible regions are
/// live.
pub fn warm_network(n_data: usize, seed: u64) -> Network {
    let cfg = CdmaConfig::default_system();
    let mut net = Network::new(cfg, HexLayout::new(1, 1000.0), seed);
    let mut rng = Xoshiro256pp::new(seed);
    populate_round_robin(&mut net, 12, n_data, 0.8, &mut rng);
    for _ in 0..25 {
        net.step(0.02);
    }
    net
}

/// E7: a random instance shaped like the paper's burst-scheduling IP — `k`
/// cells, `n` requests, grants `1 ≤ m ≤ hi` with `hi` in 4..=16 — passed to
/// `build` as `(c, a, b, lo, hi)`. This crate does not link the ILP solver,
/// so callers pass `wcdma_ilp::Problem::new`.
pub fn solver_instance<P>(
    n: usize,
    k: usize,
    rng: &mut Xoshiro256pp,
    build: impl FnOnce(Vec<f64>, Vec<Vec<f64>>, Vec<f64>, Vec<u32>, Vec<u32>) -> P,
) -> P {
    let c: Vec<f64> = (0..n).map(|_| rng.uniform(0.1, 4.0)).collect();
    let a: Vec<Vec<f64>> = (0..k)
        .map(|_| {
            (0..n)
                .map(|_| {
                    if rng.bernoulli(0.5) {
                        rng.uniform(0.05, 1.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let b: Vec<f64> = (0..k).map(|_| rng.uniform(2.0, 10.0)).collect();
    let lo = vec![1u32; n];
    let hi: Vec<u32> = (0..n).map(|_| 4 + rng.next_below(13) as u32).collect();
    build(c, a, b, lo, hi)
}

/// E9: a random contended snapshot for the temporal extension — `k` region
/// rows and `n` requests with mixed burst sizes and `1 ≤ m ≤ 4`.
pub fn temporal_instance(
    n: usize,
    k: usize,
    rng: &mut Xoshiro256pp,
) -> (Region, Vec<TemporalRequest>) {
    // Row-major, so the uniforms are drawn row by row.
    let a: Vec<f64> = (0..k * n).map(|_| rng.uniform(0.2, 1.0)).collect();
    let b: Vec<f64> = (0..k).map(|_| rng.uniform(1.0, 2.5)).collect();
    let cells = (0..k as u32).map(CellId).collect();
    let region = Region { a, b, cells };
    let reqs = (0..n)
        .map(|_| TemporalRequest {
            weight: rng.uniform(0.5, 4.0),
            delta_beta: rng.uniform(0.3, 2.0),
            size_bits: rng.uniform(200.0, 3000.0),
            lo: 1,
            hi: 4,
        })
        .collect();
    (region, reqs)
}

/// Runs every `(key, cfg)` point as one campaign grid of `n_reps`
/// replications each, and returns each key with its cross-replication
/// statistics, in point order. An empty sweep yields no rows.
fn sweep<K>(name: &str, points: Vec<(K, SimConfig)>, n_reps: usize) -> Vec<(K, ReplicationStats)> {
    if points.is_empty() {
        return Vec::new();
    }
    let (keys, scenarios): (Vec<K>, Vec<Scenario>) = points
        .into_iter()
        .map(|(key, cfg)| (key, Scenario::single(name, cfg)))
        .unzip();
    let result = run_campaign(name, scenarios, n_reps, &RunOptions::default())
        .expect("non-empty grid, no candidate override");
    keys.into_iter()
        .zip(result.scenarios)
        .map(|(key, sr)| (key, sr.stats))
        .collect()
}

/// One row of a load sweep (E1/E2).
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// Policy label.
    pub policy: String,
    /// Number of data users.
    pub n_data: usize,
    /// Cross-replication statistics.
    pub stats: ReplicationStats,
}

/// E1/E2: average burst delay vs offered load for each policy.
pub fn delay_vs_load(
    base: &SimConfig,
    dir: LinkDir,
    loads: &[usize],
    policies: &[(&str, BoxedPolicy)],
    n_reps: usize,
) -> Vec<LoadRow> {
    let mut points = Vec::new();
    for &(name, ref policy) in policies {
        for &n in loads {
            let cfg = base
                .with_direction(dir)
                .with_n_data(n)
                .with_policy(policy.clone());
            points.push(((name, n), cfg));
        }
    }
    sweep("delay_vs_load", points, n_reps)
        .into_iter()
        .map(|((policy, n_data), stats)| LoadRow {
            policy: policy.to_string(),
            n_data,
            stats,
        })
        .collect()
}

/// E3 result: the largest load meeting the delay target.
#[derive(Debug, Clone)]
pub struct CapacityRow {
    /// Policy label.
    pub policy: String,
    /// Max data users with mean delay ≤ target (0 if none).
    pub capacity: usize,
    /// Mean delay at that load.
    pub delay_at_capacity_s: f64,
}

/// Which delay statistic the capacity criterion uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityMetric {
    /// Total burst delay (queueing + setup + transmission).
    TotalDelay,
    /// Queueing + setup delay only — the policy-sensitive component when
    /// transmission times dominate (large bursts).
    QueueDelay,
}

/// E3: data-user capacity at a delay target, per policy (linear scan over
/// `loads`, which must be increasing). Each load step is its own sweep, so
/// the scan stops running loads at the first missed target.
pub fn capacity_at_delay_target(
    base: &SimConfig,
    dir: LinkDir,
    metric: CapacityMetric,
    target_delay_s: f64,
    loads: &[usize],
    policies: &[(&str, BoxedPolicy)],
    n_reps: usize,
) -> Vec<CapacityRow> {
    assert!(target_delay_s > 0.0);
    let mut rows = Vec::new();
    for &(name, ref policy) in policies {
        let mut capacity = 0usize;
        let mut delay_at = 0.0;
        for &n in loads {
            let cfg = base
                .with_direction(dir)
                .with_n_data(n)
                .with_policy(policy.clone());
            let (_, stats) = sweep("capacity_at_delay_target", vec![((), cfg)], n_reps)
                .pop()
                .expect("one point in, one row out");
            let measured = match metric {
                CapacityMetric::TotalDelay => stats.mean_delay_s.mean(),
                CapacityMetric::QueueDelay => stats.mean_queue_delay_s.mean(),
            };
            if measured <= target_delay_s {
                capacity = n;
                delay_at = measured;
            } else {
                break;
            }
        }
        rows.push(CapacityRow {
            policy: name.to_string(),
            capacity,
            delay_at_capacity_s: delay_at,
        });
    }
    rows
}

/// One row of the coverage sweep (E4).
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Cell radius (m).
    pub radius_m: f64,
    /// Cross-replication statistics at this radius.
    pub stats: ReplicationStats,
}

/// E4: coverage — delay/throughput as the cell radius grows (users spread
/// over a larger, lossier area).
pub fn coverage_vs_radius(
    base: &SimConfig,
    dir: LinkDir,
    radii_m: &[f64],
    n_reps: usize,
) -> Vec<CoverageRow> {
    let points = radii_m
        .iter()
        .map(|&r| {
            let mut cfg = base.with_direction(dir);
            cfg.cell_radius_m = r;
            (r, cfg)
        })
        .collect();
    sweep("coverage_vs_radius", points, n_reps)
        .into_iter()
        .map(|(radius_m, stats)| CoverageRow { radius_m, stats })
        .collect()
}

/// One row of the PHY ablation (E5).
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Policy label.
    pub policy: String,
    /// PHY under test.
    pub phy: PhyKind,
    /// Number of data users.
    pub n_data: usize,
    /// Cross-replication statistics.
    pub stats: ReplicationStats,
}

/// E5: adaptive vs fixed PHY under each admission policy — the joint-design
/// synergy experiment.
pub fn phy_ablation(
    base: &SimConfig,
    dir: LinkDir,
    loads: &[usize],
    policies: &[(&str, BoxedPolicy)],
    n_reps: usize,
) -> Vec<AblationRow> {
    let mut points = Vec::new();
    for &phy in &[PhyKind::Adaptive, PhyKind::Fixed] {
        for &(name, ref policy) in policies {
            for &n in loads {
                let mut cfg = base
                    .with_direction(dir)
                    .with_n_data(n)
                    .with_policy(policy.clone());
                cfg.phy = phy;
                points.push(((name, phy, n), cfg));
            }
        }
    }
    sweep("phy_ablation", points, n_reps)
        .into_iter()
        .map(|((policy, phy, n_data), stats)| AblationRow {
            policy: policy.to_string(),
            phy,
            n_data,
            stats,
        })
        .collect()
}

/// One row of the objective study (E6).
#[derive(Debug, Clone)]
pub struct ObjectiveRow {
    /// λ of the J2 penalty (0 ⇒ J1).
    pub lambda: f64,
    /// Cross-replication statistics.
    pub stats: ReplicationStats,
}

/// E6: the J1↔J2 tradeoff — sweep the delay-penalty weight λ and watch mean
/// delay vs throughput move.
pub fn objective_tradeoff(
    base: &SimConfig,
    dir: LinkDir,
    lambdas: &[f64],
    n_reps: usize,
) -> Vec<ObjectiveRow> {
    use wcdma_admission::Objective;
    let points = lambdas
        .iter()
        .map(|&lambda| {
            let objective = if lambda == 0.0 {
                Objective::J1
            } else {
                Objective::J2 { lambda, mu: 1.0 }
            };
            let cfg = base.with_direction(dir).with_policy(
                JabaSd {
                    objective,
                    exact: true,
                    node_limit: 200_000,
                }
                .into_boxed(),
            );
            (lambda, cfg)
        })
        .collect();
    sweep("objective_tradeoff", points, n_reps)
        .into_iter()
        .map(|(lambda, stats)| ObjectiveRow { lambda, stats })
        .collect()
}

/// One row of the CSI-robustness study (E10).
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// CSI error σ (dB).
    pub sigma_db: f64,
    /// CSI feedback delay (frames).
    pub delay_frames: usize,
    /// Cross-replication statistics.
    pub stats: ReplicationStats,
}

/// E10: failure injection — degrade the CSI feedback the scheduler sees
/// (estimation error and pipeline delay) and measure the damage.
pub fn csi_robustness(
    base: &SimConfig,
    dir: LinkDir,
    sigmas_db: &[f64],
    delays: &[usize],
    n_reps: usize,
) -> Vec<RobustnessRow> {
    let mut points = Vec::new();
    for &sigma in sigmas_db {
        for &delay in delays {
            let mut cfg = base.with_direction(dir);
            cfg.csi_error_sigma_db = sigma;
            cfg.csi_delay_frames = delay;
            points.push(((sigma, delay), cfg));
        }
    }
    sweep("csi_robustness", points, n_reps)
        .into_iter()
        .map(|((sigma_db, delay_frames), stats)| RobustnessRow {
            sigma_db,
            delay_frames,
            stats,
        })
        .collect()
}

/// One row of the mobility-speed study (E11).
#[derive(Debug, Clone)]
pub struct SpeedRow {
    /// User speed (km/h).
    pub speed_kmh: f64,
    /// Cross-replication statistics.
    pub stats: ReplicationStats,
}

/// E11: mobility impact — pedestrian to vehicular speeds. Faster users
/// decorrelate shadowing quicker and stress hand-off and power control.
pub fn speed_sweep(
    base: &SimConfig,
    dir: LinkDir,
    speeds_kmh: &[f64],
    n_reps: usize,
) -> Vec<SpeedRow> {
    let points = speeds_kmh
        .iter()
        .map(|&v| (v, base.with_direction(dir).with_speed_kmh(v)))
        .collect();
    sweep("speed_sweep", points, n_reps)
        .into_iter()
        .map(|(speed_kmh, stats)| SpeedRow { speed_kmh, stats })
        .collect()
}

/// One row of the voice-background study (E12).
#[derive(Debug, Clone)]
pub struct VoiceLoadRow {
    /// Number of background voice users.
    pub n_voice: usize,
    /// Cross-replication statistics.
    pub stats: ReplicationStats,
}

/// E12: data performance vs voice background load — voice erodes both the
/// forward power budget and the reverse interference headroom.
pub fn voice_load_sweep(
    base: &SimConfig,
    dir: LinkDir,
    n_voice: &[usize],
    n_reps: usize,
) -> Vec<VoiceLoadRow> {
    let points = n_voice
        .iter()
        .map(|&v| {
            let mut cfg = base.with_direction(dir);
            cfg.n_voice = v;
            (v, cfg)
        })
        .collect();
    sweep("voice_load_sweep", points, n_reps)
        .into_iter()
        .map(|(n_voice, stats)| VoiceLoadRow { n_voice, stats })
        .collect()
}

/// One row of the κ-margin ablation (E13, reverse link).
#[derive(Debug, Clone)]
pub struct KappaRow {
    /// Shadowing margin κ (dB) applied to projected neighbour interference.
    pub kappa_db: f64,
    /// Cross-replication statistics.
    pub stats: ReplicationStats,
}

/// E13: ablation of the eq.-15 neighbour-projection margin κ — small κ
/// admits aggressively (risking reverse overload), large κ is conservative
/// (wasting capacity).
pub fn kappa_ablation(base: &SimConfig, kappas_db: &[f64], n_reps: usize) -> Vec<KappaRow> {
    let points = kappas_db
        .iter()
        .map(|&k| {
            let mut cfg = base.with_direction(LinkDir::Reverse);
            cfg.cdma.kappa_margin = wcdma_math::db_to_lin(k);
            (k, cfg)
        })
        .collect();
    sweep("kappa_ablation", points, n_reps)
        .into_iter()
        .map(|(kappa_db, stats)| KappaRow { kappa_db, stats })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimConfig {
        let mut c = SimConfig::baseline();
        c.n_voice = 6;
        c.n_data = 3;
        c.duration_s = 6.0;
        c.warmup_s = 1.0;
        c
    }

    #[test]
    fn delay_vs_load_produces_grid() {
        let policies = vec![("jaba", JabaSd::default_j2().into_boxed())];
        let rows = delay_vs_load(&tiny(), LinkDir::Forward, &[2, 4], &policies, 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].n_data, 2);
        assert!(rows[0].stats.mean_delay_s.mean() >= 0.0);
    }

    #[test]
    fn capacity_scan_stops_at_target() {
        let policies = vec![("jaba", JabaSd::default_j2().into_boxed())];
        // Absurdly lax target: capacity = max load tested.
        let rows = capacity_at_delay_target(
            &tiny(),
            LinkDir::Forward,
            CapacityMetric::TotalDelay,
            1e6,
            &[2, 3],
            &policies,
            1,
        );
        assert_eq!(rows[0].capacity, 3);
        // Impossible target: capacity 0.
        let rows0 = capacity_at_delay_target(
            &tiny(),
            LinkDir::Forward,
            CapacityMetric::QueueDelay,
            1e-9,
            &[2],
            &policies,
            1,
        );
        assert_eq!(rows0[0].capacity, 0);
    }

    #[test]
    fn coverage_rows_track_radius() {
        let rows = coverage_vs_radius(&tiny(), LinkDir::Forward, &[800.0, 1200.0], 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].radius_m, 800.0);
    }

    #[test]
    fn ablation_covers_both_phys() {
        let policies = vec![("jaba", JabaSd::default_j2().into_boxed())];
        let rows = phy_ablation(&tiny(), LinkDir::Forward, &[2], &policies, 1);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.phy == PhyKind::Adaptive));
        assert!(rows.iter().any(|r| r.phy == PhyKind::Fixed));
    }

    #[test]
    fn objective_rows() {
        let rows = objective_tradeoff(&tiny(), LinkDir::Forward, &[0.0, 1.0], 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].lambda, 0.0);
    }

    #[test]
    fn robustness_grid() {
        let rows = csi_robustness(&tiny(), LinkDir::Forward, &[0.0, 3.0], &[0, 5], 1);
        assert_eq!(rows.len(), 4);
        assert!(rows
            .iter()
            .any(|r| r.sigma_db == 3.0 && r.delay_frames == 5));
    }

    #[test]
    fn speed_and_voice_rows() {
        let sp = speed_sweep(&tiny(), LinkDir::Forward, &[3.0, 120.0], 1);
        assert_eq!(sp.len(), 2);
        let vl = voice_load_sweep(&tiny(), LinkDir::Forward, &[4, 12], 1);
        assert_eq!(vl.len(), 2);
    }

    #[test]
    fn empty_sweep_axes_yield_empty_rows() {
        let policies = vec![("jaba", JabaSd::default_j2().into_boxed())];
        assert!(delay_vs_load(&tiny(), LinkDir::Forward, &[], &policies, 1).is_empty());
        assert!(delay_vs_load(&tiny(), LinkDir::Forward, &[2], &[], 1).is_empty());
        assert!(speed_sweep(&tiny(), LinkDir::Forward, &[], 1).is_empty());
    }

    #[test]
    fn shared_inputs_have_the_requested_shape() {
        let mut rng = Xoshiro256pp::new(1);
        let (c, a, b, lo, hi) =
            solver_instance(5, 3, &mut rng, |c, a, b, lo, hi| (c, a, b, lo, hi));
        assert_eq!((c.len(), a.len(), a[0].len(), b.len()), (5, 3, 5, 3));
        assert!(lo
            .iter()
            .zip(&hi)
            .all(|(&l, &h)| l == 1 && (4..=16).contains(&h)));
        let (region, reqs) = temporal_instance(4, 2, &mut rng);
        assert_eq!(
            (region.rows().len(), region.row(0).len(), region.cells.len()),
            (2, 4, 2)
        );
        assert_eq!(reqs.len(), 4);
        assert_eq!(warm_network(3, 1).data_mobiles().len(), 3);
    }

    #[test]
    fn kappa_rows() {
        let rows = kappa_ablation(&tiny(), &[0.0, 4.0], 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].kappa_db, 0.0);
    }
}
