//! Failure-injection and pathological-input integration tests.

use wcdma::admission::{
    AdmissionPolicy, EqualShare, Fcfs, JabaSd, RequestState, Scheduler, SchedulerConfig,
};
use wcdma::cdma::{CdmaConfig, DataUserMeasurement, Network, UserKind};
use wcdma::geo::{CellId, HexLayout, Point};
use wcdma::mac::LinkDir;
use wcdma::sim::config::MAX_CELL_RADIUS_M;
use wcdma::sim::{SimConfig, SimReport, Simulation};

fn meas(mobile: usize, cell: u32, fch_power: f64, ebi0_db: f64) -> DataUserMeasurement {
    DataUserMeasurement {
        mobile,
        active_set: vec![CellId(cell)],
        reduced_set: vec![CellId(cell)],
        fch_fwd_power: vec![(CellId(cell), fch_power)],
        alpha_fl: 1.0,
        alpha_rl: 1.0,
        zeta: 2.0,
        rev_pilot_ecio: vec![(CellId(cell), 0.01)],
        fwd_pilot_ecio: vec![(CellId(cell), 0.05)],
        fch_ebi0_fwd: wcdma::math::db_to_lin(ebi0_db),
        fch_ebi0_rev: wcdma::math::db_to_lin(ebi0_db),
    }
}

#[test]
fn exhausted_power_budget_rejects_everything() {
    let mut scheduler = Scheduler::new(
        SchedulerConfig::default_config(),
        JabaSd::default_j2().into_boxed(),
    );
    // All cells exactly at P_max: zero headroom everywhere.
    let pmax = SchedulerConfig::default_config().pmax_w;
    let fwd = vec![pmax; 3];
    let rev = vec![1e-13; 3];
    let metas: Vec<DataUserMeasurement> =
        (0..4).map(|j| meas(j, (j % 3) as u32, 0.2, 10.0)).collect();
    let requests: Vec<RequestState> = metas
        .iter()
        .map(|m| RequestState {
            meas: m.as_view(),
            size_bits: 1e6,
            waiting_s: 1.0,
            priority: 0.0,
        })
        .collect();
    let out = scheduler.schedule(LinkDir::Forward, &fwd, &rev, &requests);
    assert!(
        out.grants.is_empty(),
        "no headroom ⇒ no grants: {:?}",
        out.m
    );
}

#[test]
fn exhausted_reverse_budget_rejects_everything() {
    let cfg = SchedulerConfig::default_config();
    let mut scheduler = Scheduler::new(cfg.clone(), JabaSd::default_j2().into_boxed());
    let fwd = vec![5.0; 2];
    // Reverse load already at the limit.
    let rev = vec![cfg.lmax_w; 2];
    let meta = meas(0, 0, 0.2, 10.0);
    let requests = vec![RequestState {
        meas: meta.as_view(),
        size_bits: 1e6,
        waiting_s: 0.0,
        priority: 0.0,
    }];
    let out = scheduler.schedule(LinkDir::Reverse, &fwd, &rev, &requests);
    assert!(out.grants.is_empty());
}

#[test]
fn grant_storm_never_violates_region() {
    // 30 simultaneous requests against one nearly-full cell: whatever the
    // policy does, the outcome must stay admissible.
    for policy in [
        JabaSd::default_j2().into_boxed(),
        Fcfs::unlimited().into_boxed(),
        EqualShare.into_boxed(),
    ] {
        let mut scheduler = Scheduler::new(SchedulerConfig::default_config(), policy);
        let fwd = vec![19.2];
        let rev = vec![1e-13];
        let metas: Vec<DataUserMeasurement> = (0..30)
            .map(|j| meas(j, 0, 0.02 + 0.01 * (j % 7) as f64, 4.0 + (j % 11) as f64))
            .collect();
        let requests: Vec<RequestState> = metas
            .iter()
            .enumerate()
            .map(|(j, m)| RequestState {
                meas: m.as_view(),
                size_bits: 5e5,
                waiting_s: (j as f64) * 0.1,
                priority: 0.0,
            })
            .collect();
        let out = scheduler.schedule(LinkDir::Forward, &fwd, &rev, &requests);
        assert!(out.region.admits(&out.m));
    }
}

#[test]
fn monster_burst_survives_simulation() {
    // A burst far larger than anything a frame can carry must trickle out
    // over many frames without wedging the scheduler.
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 4;
    cfg.n_data = 2;
    cfg.traffic.mean_burst_bits = 4.0e6;
    cfg.traffic.max_burst_bits = 4.0e6;
    cfg.traffic.mean_reading_s = 1.0;
    cfg.duration_s = 40.0;
    cfg.warmup_s = 2.0;
    let r = Simulation::new(cfg).run();
    assert!(
        r.bursts_completed > 0,
        "monster bursts must complete: {r:?}"
    );
    assert!(r.mean_delay_s > 2.0, "a 4 Mb burst cannot be instant");
}

#[test]
fn empty_system_is_quiet() {
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 0;
    cfg.n_data = 0;
    cfg.duration_s = 5.0;
    cfg.warmup_s = 1.0;
    let r = Simulation::new(cfg).run();
    assert_eq!(r.bursts_completed, 0);
    assert_eq!(r.throughput_kbps, 0.0);
    assert_eq!(r.denial_rate, 0.0);
}

#[test]
fn voice_only_system_has_no_data_metrics() {
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 20;
    cfg.n_data = 0;
    cfg.duration_s = 5.0;
    cfg.warmup_s = 1.0;
    let r = Simulation::new(cfg).run();
    assert_eq!(r.bursts_completed, 0);
    assert_eq!(r.mean_grant_m, 0.0);
}

#[test]
fn deep_fade_user_eventually_served_or_rejected_cleanly() {
    // One data user parked at the far cell edge of a big cell: low CSI.
    // The simulation must neither panic nor livelock.
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 2;
    cfg.n_data = 1;
    cfg.cell_radius_m = 4000.0;
    cfg.duration_s = 20.0;
    cfg.warmup_s = 2.0;
    let r = Simulation::new(cfg).run();
    // Either it completed bursts (possibly slowly) or it denied them; both
    // are legitimate — the invariant is clean accounting.
    assert!(r.denial_rate >= 0.0 && r.denial_rate <= 1.0);
}

#[test]
fn network_survives_everyone_leaving_one_cell() {
    // All mobiles crowd into a single cell's corner: extreme asymmetric
    // interference. Loads must stay finite and clamped.
    let cdma = CdmaConfig::default_system();
    let pmax = cdma.max_bs_power_w;
    let mut net = Network::new(cdma, HexLayout::new(1, 1000.0), 5);
    for i in 0..20 {
        let kind = if i < 15 {
            UserKind::Voice
        } else {
            UserKind::Data
        };
        net.add_mobile(kind, Point::new(400.0, 400.0), 0.5);
    }
    for _ in 0..50 {
        net.step(0.02);
    }
    for &p in net.forward_load_w() {
        assert!(p.is_finite() && p <= pmax + 1e-9);
    }
    for &l in net.reverse_load_w() {
        assert!(l.is_finite() && l > 0.0);
    }
}

#[test]
fn extreme_csi_noise_does_not_crash_or_deadlock() {
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 6;
    cfg.n_data = 4;
    cfg.csi_error_sigma_db = 20.0; // absurd estimation error
    cfg.csi_delay_frames = 100; // 2 s stale feedback
    cfg.duration_s = 15.0;
    cfg.warmup_s = 2.0;
    let r = Simulation::new(cfg).run();
    assert!(r.bursts_completed > 0, "must still make progress: {r:?}");
}

#[test]
fn zero_priority_vs_high_priority_ordering() {
    // Priority Δ_j scales the J1 weight: the high-priority user must win a
    // tight budget.
    let mut scheduler = Scheduler::new(
        SchedulerConfig::default_config(),
        JabaSd {
            objective: wcdma::admission::Objective::J1,
            exact: true,
            node_limit: 0,
        }
        .into_boxed(),
    );
    let fwd = vec![19.5]; // 0.5 W headroom
    let rev = vec![1e-13];
    let meta_lo = meas(0, 0, 0.1, 8.0);
    let meta_hi = meas(1, 0, 0.1, 8.0);
    let mut lo_pri = RequestState {
        meas: meta_lo.as_view(),
        size_bits: 1e6,
        waiting_s: 0.0,
        priority: 0.0,
    };
    let mut hi_pri = RequestState {
        meas: meta_hi.as_view(),
        ..lo_pri
    };
    hi_pri.priority = 2.0;
    let out = scheduler.schedule(LinkDir::Forward, &fwd, &rev, &[lo_pri, hi_pri]);
    assert!(
        out.m[1] >= out.m[0],
        "high priority must not lose to identical low priority: {:?}",
        out.m
    );
    // Swap column order: the result must be symmetric.
    std::mem::swap(&mut lo_pri, &mut hi_pri);
    let out2 = scheduler.schedule(LinkDir::Forward, &fwd, &rev, &[lo_pri, hi_pri]);
    assert!(out2.m[0] >= out2.m[1], "symmetry violated: {:?}", out2.m);
}

/// Every `f64` field of a report is finite.
fn assert_report_finite(r: &SimReport, what: &str) {
    for (name, v) in [
        ("mean_delay_s", r.mean_delay_s),
        ("p95_delay_s", r.p95_delay_s),
        ("max_delay_s", r.max_delay_s),
        ("mean_queue_delay_s", r.mean_queue_delay_s),
        ("mean_setup_delay_s", r.mean_setup_delay_s),
        ("throughput_kbps", r.throughput_kbps),
        ("per_cell_throughput_kbps", r.per_cell_throughput_kbps),
        ("per_user_throughput_kbps", r.per_user_throughput_kbps),
        ("mean_grant_m", r.mean_grant_m),
        ("mean_delta_beta", r.mean_delta_beta),
        ("denial_rate", r.denial_rate),
        ("outage_rate", r.outage_rate),
    ] {
        assert!(v.is_finite(), "{what}: {name} = {v}");
    }
}

/// A named edit of a baseline configuration.
type ConfigEdge = (&'static str, fn(&mut SimConfig));

/// Configurations at the edges of what `SimConfig::validate` accepts run
/// 50 frames at 1 and 2 frame threads with every report field finite; the
/// value just past each rejected edge fails validation instead.
#[test]
fn edge_configs_run_with_finite_reports() {
    // One ring: the smallest layout validation accepts.
    let base = || {
        let mut c = SimConfig::baseline();
        c.rings = 1;
        c.n_voice = 20;
        c.n_data = 10;
        c.traffic.mean_burst_bits = 20_000.0;
        c.traffic.max_burst_bits = 60_000.0;
        c.traffic.mean_reading_s = 0.3;
        c.duration_s = 1.0;
        c.warmup_s = 0.0;
        c
    };
    let accepted: [ConfigEdge; 8] = [
        ("n_data = 0", |c| c.n_data = 0),
        ("n_voice = 0", |c| c.n_voice = 0),
        // The largest f64 below 1.
        ("csi_dropout_p = 1 - 2^-53", |c| {
            c.mismatch.csi_dropout_p = 1.0 - f64::EPSILON / 2.0;
        }),
        ("candidate_k = n_cells", |c| {
            c.candidate_k = HexLayout::new(c.rings, c.cell_radius_m).num_cells();
        }),
        // Extreme mismatch deltas: the true path-loss exponent at its
        // ceiling of 8 and just above 0, and a shadowing σ far past physics.
        ("pathloss_exponent_delta = 4", |c| {
            c.mismatch.pathloss_exponent_delta = 4.0;
        }),
        ("pathloss_exponent_delta = -4 + 1e-9", |c| {
            c.mismatch.pathloss_exponent_delta = -4.0 + 1e-9;
        }),
        ("shadow_sigma_delta_db = 1e300", |c| {
            c.mismatch.shadow_sigma_delta_db = 1e300;
        }),
        // The radius ceiling under the steepest true path loss.
        (
            "cell_radius_m = MAX_CELL_RADIUS_M, pathloss_exponent_delta = 4",
            |c| {
                c.cell_radius_m = MAX_CELL_RADIUS_M;
                c.mismatch.pathloss_exponent_delta = 4.0;
            },
        ),
    ];
    for (what, edit) in accepted {
        let mut cfg = base();
        edit(&mut cfg);
        assert_eq!(cfg.n_frames(), 50);
        for threads in [1, 2] {
            let report = Simulation::new(cfg.with_frame_threads(threads)).run();
            assert_report_finite(&report, &format!("{what} at {threads} frame threads"));
        }
    }
    let rejected: [ConfigEdge; 15] = [
        ("rings = 0", |c| c.rings = 0),
        // A NaN run length ran 0 frames and reported 0 s delay.
        ("duration_s = NaN", |c| c.duration_s = f64::NAN),
        ("warmup_s = NaN", |c| c.warmup_s = f64::NAN),
        ("warmup_s = -1", |c| c.warmup_s = -1.0),
        // About usize::MAX frames.
        ("duration_s = inf", |c| c.duration_s = f64::INFINITY),
        // Both panicked in `RandomWaypoint::new`.
        ("speed_ms = NaN", |c| c.speed_ms = f64::NAN),
        ("speed_ms = -1", |c| c.speed_ms = -1.0),
        ("speed_ms = inf", |c| c.speed_ms = f64::INFINITY),
        // The path gain underflows to zero (a "non-positive link gain"
        // panic), and past ~1e150 the hexagon edge test turns NaN and
        // mobile placement never terminates.
        ("cell_radius_m = 1e150", |c| c.cell_radius_m = 1e150),
        ("cell_radius_m = 1e300", |c| c.cell_radius_m = 1e300),
        ("cell_radius_m = NaN", |c| c.cell_radius_m = f64::NAN),
        ("cell_radius_m = 0", |c| c.cell_radius_m = 0.0),
        ("cell_radius_m = -1", |c| c.cell_radius_m = -1.0),
        ("csi_dropout_p = 1", |c| c.mismatch.csi_dropout_p = 1.0),
        // Would overflow `PathLoss::gain` near a base station.
        ("pathloss_exponent_delta = 1e3", |c| {
            c.mismatch.pathloss_exponent_delta = 1e3;
        }),
    ];
    for (what, edit) in rejected {
        let mut cfg = base();
        edit(&mut cfg);
        assert!(cfg.validate().is_err(), "{what} must fail validation");
    }
}
