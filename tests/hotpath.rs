//! Hot-path integration tests for the flattened frame pipeline: a
//! large-population smoke run and bit-identical same-seed determinism
//! across the old public API surface.

use wcdma::cdma::{populate_round_robin, CdmaConfig, Network};
use wcdma::geo::HexLayout;
use wcdma::math::Xoshiro256pp;
use wcdma::sim::{SimConfig, Simulation};

/// ≥500 mobiles through the struct-of-arrays pipeline for a few frames:
/// everything must stay finite and sane (loads, measurements, bookkeeping).
#[test]
fn large_scenario_smoke() {
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 540;
    cfg.n_data = 60;
    cfg.duration_s = 1.0;
    cfg.warmup_s = 0.2;
    cfg.seed = 0x5CA1E;
    let mut sim = Simulation::new(cfg);
    for _ in 0..25 {
        sim.step_frame();
    }
    let net = sim.network();
    assert_eq!(net.num_mobiles(), 600);
    let pmax = net.config().max_bs_power_w;
    for &p in net.forward_load_w() {
        assert!(p.is_finite() && p > 0.0 && p <= pmax + 1e-9, "P_k = {p}");
    }
    for &l in net.reverse_load_w() {
        assert!(
            l.is_finite() && l > net.config().noise_floor_w(),
            "L_k = {l}"
        );
    }
    for &j in &net.data_mobiles() {
        let meas = net.measurement_view(j);
        assert!(!meas.active_set.is_empty());
        assert!(!meas.reduced_set.is_empty());
        assert_eq!(meas.fch_fwd_power.len(), meas.active_set.len());
        assert_eq!(meas.rev_pilot_ecio.len(), meas.active_set.len());
        assert!(meas.fwd_pilot_ecio.len() <= 8);
        assert!(meas.fch_ebi0_fwd.is_finite() && meas.fch_ebi0_fwd >= 0.0);
        assert!(meas.fch_ebi0_rev.is_finite() && meas.fch_ebi0_rev >= 0.0);
        for &(_, p) in meas.fch_fwd_power {
            assert!(p > 0.0 && p.is_finite());
        }
        for &(_, e) in meas.rev_pilot_ecio {
            assert!(e > 0.0 && e < 1.0, "Ec/Io fraction: {e}");
        }
    }
    // The frame loop must actually be doing admission work at this scale.
    let report = {
        let mut cfg = SimConfig::baseline();
        cfg.n_voice = 450;
        cfg.n_data = 50;
        cfg.duration_s = 4.0;
        cfg.warmup_s = 1.0;
        cfg.seed = 0x5CA1E;
        Simulation::new(cfg).run()
    };
    assert!(
        report.bursts_completed > 0,
        "500 mobiles, no bursts? {report:?}"
    );
}

/// Same seed ⇒ bit-identical results through the *old* public API surface
/// (owned reports, SimReport equality), guarding the SoA refactor.
#[test]
fn same_seed_bit_identical_across_public_api() {
    // Network level: loads and measurement reports.
    let build = || {
        let mut net = Network::new(
            CdmaConfig::default_system(),
            HexLayout::new(1, 1000.0),
            0xD0_0D,
        );
        let mut rng = Xoshiro256pp::new(0xD0_0D ^ 0xFEED);
        populate_round_robin(&mut net, 12, 6, 0.8, &mut rng);
        for _ in 0..30 {
            net.step(0.02);
        }
        net
    };
    let a = build();
    let b = build();
    assert_eq!(a.forward_load_w(), b.forward_load_w());
    assert_eq!(a.reverse_load_w(), b.reverse_load_w());
    for &j in &a.data_mobiles() {
        assert_eq!(
            a.measurement_view(j),
            b.measurement_view(j),
            "report of mobile {j}"
        );
        assert_eq!(a.fch_quality(j), b.fch_quality(j));
    }

    // Simulation level: full report equality (PartialEq on every metric).
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 12;
    cfg.n_data = 5;
    cfg.duration_s = 10.0;
    cfg.warmup_s = 2.0;
    cfg.seed = 0xB17;
    let ra = Simulation::new(cfg.clone()).run();
    let rb = Simulation::new(cfg).run();
    assert_eq!(ra, rb, "same seed must replicate bit-identically");
}
