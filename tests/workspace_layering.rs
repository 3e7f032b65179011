//! Workspace layering: asserts the intended dependency direction
//!
//! ```text
//! math → phy / channel / geo → mac / cdma / ilp → admission → sim → cli
//! ```
//!
//! by driving a small cross-crate scenario **through the umbrella crate
//! only**: values produced by each layer are consumed by the next one up.
//! If a crate stopped re-exporting its public entry points, or the umbrella
//! dropped a sub-crate, this test stops compiling — which is the point.
//! (The graph itself is kept acyclic by Cargo: a dependency cycle between
//! the member crates is a hard build error.)

use wcdma::admission::{
    forward_region, AdmissionPolicy, JabaSd, Region, Scheduler, SchedulerConfig,
};
use wcdma::cdma::Network;
use wcdma::channel::{PathLoss, Shadowing};
use wcdma::geo::{CellId, HexLayout};
use wcdma::ilp::{branch_and_bound, Problem};
use wcdma::mac::{BurstRequest, LinkDir, RequestQueue};
use wcdma::math::{db_to_lin, Xoshiro256pp};
use wcdma::phy::{BerModel, SpreadingConfig, Vtaoc};
use wcdma::sim::{SimConfig, Simulation};

mod common;

/// Builds a small warmed-up single-ring network (cdma layer over geo/math).
fn warm_network(n_voice: usize, n_data: usize, seed: u64) -> Network {
    common::warm_network(n_voice, n_data, seed, 100)
}

/// Layer 1 → 2: the math substrate feeds the PHY, channel, and geometry
/// layers (RNG streams, dB conversions).
#[test]
fn math_feeds_phy_channel_geo() {
    let mut rng = Xoshiro256pp::new(7);

    // math → phy: a BER target expressed through dB conversion drives the
    // constant-BER mode thresholds.
    let target = db_to_lin(-30.0); // 1e-3
    let vtaoc = Vtaoc::constant_ber(BerModel::coded(), target);
    assert!(vtaoc.avg_throughput(10.0) > 0.0);

    // math → channel: a long-term link gain (path loss × shadowing)
    // evolves from a seeded RNG stream.
    let mut shadowing = Shadowing::urban_default(7, 1);
    shadowing.step(0.5, 0.01);
    let g = PathLoss::urban_default().gain(500.0) * shadowing.gain();
    assert!(g > 0.0 && g < 1.0, "link gain {g} outside (0,1)");

    // math → geo: layouts hand positions out of the same RNG family.
    let layout = HexLayout::new(1, 1000.0);
    let p = layout.random_point_in_cell(CellId(0), &mut rng);
    assert!(layout.distance(p, CellId(0)) <= 1000.0);
}

/// Layer 2 → 3: PHY and geometry feed the CDMA network substrate, and the
/// math layer feeds the ILP solvers.
#[test]
fn phy_geo_feed_cdma_and_math_feeds_ilp() {
    // phy: the spreading config supplies the gain/power ratios grants are
    // expressed in.
    let spreading = SpreadingConfig::cdma2000_default();
    assert!(spreading.fch_spreading_gain() > 1.0);
    assert!(spreading.sch_power_ratio(2) > spreading.sch_power_ratio(1));

    // geo → cdma: a network built over a hex layout steps without incident.
    let net = warm_network(2, 2, 11);
    assert!(net.num_cells() >= 1);
    assert!(net
        .forward_load_w()
        .iter()
        .all(|&w| w.is_finite() && w > 0.0));

    // math → ilp: a small knapsack solved exactly.
    let p = Problem::new(
        vec![3.0, 2.0],
        vec![vec![1.0, 1.0]],
        vec![4.0],
        vec![1, 1],
        vec![4, 4],
    );
    let (sol, complete) = branch_and_bound(&p, 0);
    assert!(complete);
    assert!(p.is_feasible(&sol.m));
}

/// Layer 3 → 4: per-request measurements from the CDMA network become the
/// admissible [`Region`] the admission layer schedules over, and MAC burst
/// requests carry the queueing state the objectives consume.
#[test]
fn cdma_mac_ilp_feed_admission() {
    let net = warm_network(3, 3, 23);
    let refs: Vec<_> = net
        .data_mobiles()
        .iter()
        .map(|&j| net.measurement_view(j))
        .collect();

    // cdma → admission: measurements → forward admissible region.
    let mut region = Region::default();
    forward_region(
        net.forward_load_w(),
        net.config().max_bs_power_w,
        1.0,
        refs.iter().copied(),
        &mut region,
    );
    assert!(region.admits(&vec![0; refs.len()]), "reject-all admissible");

    // mac → admission: burst requests queue up with waiting-time bookkeeping.
    let mut queue = RequestQueue::new();
    queue.submit(BurstRequest {
        user: 0,
        dir: LinkDir::Forward,
        size_bits: 240_000.0,
        arrival_s: 0.0,
        priority: 0.0,
    });
    assert_eq!(queue.pending().len(), 1);
    assert!(queue.pending()[0].waiting_time(0.5) > 0.4);

    // admission sits on top: a scheduler exists for the policy under test
    // (a concrete policy boxes into the trait object).
    let scheduler = Scheduler::new(
        SchedulerConfig::default_config(),
        JabaSd::default_j2().into_boxed(),
    );
    assert_eq!(scheduler.policy().name(), "jaba-sd");
}

/// Layer 4 → 5: the admission policies parameterise the dynamic simulation,
/// which closes the loop over every lower layer.
#[test]
fn admission_feeds_sim() {
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 8;
    cfg.n_data = 3;
    cfg.duration_s = 6.0;
    cfg.warmup_s = 1.0;
    let report = Simulation::new(cfg.with_policy(JabaSd::default_j2().into_boxed())).run();
    assert!(report.per_cell_throughput_kbps >= 0.0);
}
