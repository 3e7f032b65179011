//! Cross-crate integration: the measurement → region → solver pipeline fed
//! by a real simulated network, and PHY/channel consistency.

use wcdma::admission::{
    forward_region, reverse_region, AdmissionPolicy, JabaSd, Region, RequestState, Scheduler,
    SchedulerConfig,
};
use wcdma::geo::CellId;
use wcdma::mac::LinkDir;

mod common;

/// Builds a warmed-up network with `n_data` data users.
fn warm_network(n_voice: usize, n_data: usize, seed: u64) -> wcdma::cdma::Network {
    common::warm_network(n_voice, n_data, seed, 25)
}

#[test]
fn network_measurements_build_valid_regions() {
    let net = warm_network(8, 5, 11);
    // Borrowed views: no clone per report.
    let refs: Vec<_> = net
        .data_mobiles()
        .iter()
        .map(|&j| net.measurement_view(j))
        .collect();

    let mut fwd = Region::default();
    forward_region(
        net.forward_load_w(),
        net.config().max_bs_power_w,
        1.0,
        refs.iter().copied(),
        &mut fwd,
    );
    assert!(!fwd.b.is_empty(), "five data users must yield forward rows");
    for row in fwd.rows() {
        assert_eq!(row.len(), refs.len());
        assert!(row.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }
    assert!(
        fwd.admits(&vec![0; refs.len()]),
        "reject-all always admissible"
    );

    let mut rev = Region::default();
    reverse_region(
        net.reverse_load_w(),
        net.config().reverse_limit_w(),
        1.0,
        net.config().kappa_margin,
        refs.iter().copied(),
        &mut rev,
    );
    assert!(!rev.b.is_empty());
    for (row, &b) in rev.rows().zip(&rev.b) {
        assert!(b >= 0.0, "negative reverse headroom");
        assert!(row.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }
}

#[test]
fn scheduler_on_live_network_grants_feasibly() {
    let net = warm_network(10, 6, 13);
    let mut scheduler = Scheduler::new(
        SchedulerConfig::default_config(),
        JabaSd::default_j2().into_boxed(),
    );
    let requests: Vec<RequestState> = net
        .data_mobiles()
        .iter()
        .map(|&j| RequestState {
            meas: net.measurement_view(j),
            size_bits: 120_000.0,
            waiting_s: 0.3,
            priority: 0.0,
        })
        .collect();
    for dir in [LinkDir::Forward, LinkDir::Reverse] {
        let out = scheduler.schedule(dir, net.forward_load_w(), net.reverse_load_w(), &requests);
        assert!(
            out.region.admits(&out.m),
            "{dir:?} grants must be admissible"
        );
        assert!(
            out.grants.iter().all(|g| g.m >= 1 && g.m <= 16),
            "{dir:?} grant range"
        );
    }
}

#[test]
fn granted_burst_power_is_within_predicted_headroom() {
    // Apply the scheduler's forward grants to the live network and verify
    // no cell exceeds its budget on the next frame (the admissible region
    // really does protect the power budget).
    let mut net = warm_network(10, 6, 17);
    let mut scheduler = Scheduler::new(
        SchedulerConfig::default_config(),
        JabaSd::default_j2().into_boxed(),
    );
    let data = net.data_mobiles();
    let requests: Vec<RequestState> = data
        .iter()
        .map(|&j| RequestState {
            meas: net.measurement_view(j),
            size_bits: 400_000.0,
            waiting_s: 0.0,
            priority: 0.0,
        })
        .collect();
    let out = scheduler.schedule(
        LinkDir::Forward,
        net.forward_load_w(),
        net.reverse_load_w(),
        &requests,
    );
    drop(requests); // release the borrow of `net` before applying grants
    for g in &out.grants {
        net.set_grant(
            g.user,
            Some(wcdma::cdma::SchGrant {
                m: g.m,
                forward: true,
                gamma_s: 1.0,
            }),
        );
    }
    net.step(0.02);
    assert!(
        !net.overloaded_flags().contains(&true),
        "admitted bursts must not overload any cell (loads: {:?})",
        net.forward_load_w()
    );
}

#[test]
fn vtaoc_throughput_consistent_with_network_quality() {
    // For a warmed network, every data user's δβ̄ must be finite,
    // non-negative, and bounded by 1/β_f.
    let net = warm_network(6, 4, 23);
    let scheduler = Scheduler::new(
        SchedulerConfig::default_config(),
        JabaSd::default_j2().into_boxed(),
    );
    for &j in &net.data_mobiles() {
        let meas = net.measurement_view(j);
        for dir in [LinkDir::Forward, LinkDir::Reverse] {
            let db = scheduler.request_delta_beta(meas, dir);
            assert!(db.is_finite() && db >= 0.0, "user {j} {dir:?} δβ̄ = {db}");
            assert!(db <= 4.0 + 1e-12, "δβ̄ cannot exceed 1/β_f: {db}");
        }
    }
}

#[test]
fn adjacent_cell_simultaneous_transactions_are_coupled() {
    // The paper: "the problem of simultaneous transaction between data
    // requests in adjacent cells ... has been ignored by previous
    // literature". In this formulation the coupling is automatic: requests
    // whose reduced active sets share a cell appear in the same constraint
    // row, so the joint solve cannot double-book the shared headroom.
    use wcdma::cdma::DataUserMeasurement;

    let shared = CellId(1);
    let mk = |mobile: usize, own: u32| DataUserMeasurement {
        mobile,
        active_set: vec![CellId(own), shared],
        reduced_set: vec![CellId(own), shared],
        fch_fwd_power: vec![(CellId(own), 0.3), (shared, 0.4)],
        alpha_fl: 1.0,
        alpha_rl: 1.0,
        zeta: 2.0,
        rev_pilot_ecio: vec![(CellId(own), 0.01), (shared, 0.008)],
        fwd_pilot_ecio: vec![(CellId(own), 0.05), (shared, 0.04)],
        fch_ebi0_fwd: wcdma::math::db_to_lin(8.0),
        fch_ebi0_rev: wcdma::math::db_to_lin(8.0),
    };
    let m0 = mk(0, 0); // lives in cell 0, soft hand-off with shared cell 1
    let m1 = mk(1, 2); // lives in cell 2, soft hand-off with shared cell 1
    let loads = vec![12.0, 16.0, 12.0]; // shared cell 1 is nearly full
    let mut region = Region::default();
    forward_region(&loads, 20.0, 1.0, [m0.as_view(), m1.as_view()], &mut region);

    // The shared cell must appear as one row coupling both columns.
    let shared_row = region
        .cells
        .iter()
        .position(|c| *c == shared)
        .expect("shared cell row exists");
    assert!(region.row(shared_row)[0] > 0.0 && region.row(shared_row)[1] > 0.0);

    // Per-cell-independent admission would grant each request its max
    // against its own cell only (headroom 8 W / 0.3 coeff ⇒ large m) and
    // jointly blow the shared cell's 4 W headroom:
    let naive_each = 10u32;
    assert!(
        !region.admits(&[naive_each, naive_each]),
        "naive per-cell grants must violate the shared-cell budget"
    );

    // The joint solve respects it.
    let mut scheduler = Scheduler::new(
        SchedulerConfig::default_config(),
        JabaSd::default_j2().into_boxed(),
    );
    let owned = [m0, m1];
    let requests: Vec<RequestState> = owned
        .iter()
        .map(|meas| RequestState {
            meas: meas.as_view(),
            size_bits: 500_000.0,
            waiting_s: 0.2,
            priority: 0.0,
        })
        .collect();
    let rev = vec![1e-13; 3];
    let out = scheduler.schedule(LinkDir::Forward, &loads, &rev, &requests);
    assert!(out.region.admits(&out.m));
    let shared_use: f64 = out
        .region
        .row(shared_row)
        .iter()
        .zip(&out.m)
        .map(|(&a, &m)| a * m as f64)
        .sum();
    assert!(
        shared_use <= 20.0 - loads[1] + 1e-9,
        "joint grants stay inside the shared cell: used {shared_use}"
    );
}

#[test]
fn umbrella_crate_reexports_work() {
    // Compile-time check that the umbrella exposes all subsystems.
    let _ = wcdma::phy::Vtaoc::default_config();
    let _ = wcdma::channel::PathLoss::urban_default();
    let _ = wcdma::geo::HexLayout::nineteen_cell_default();
    let _ = wcdma::mac::MacTimers::default_timers();
    let _ = wcdma::ilp::Problem::new(vec![1.0], vec![vec![1.0]], vec![1.0], vec![1], vec![2]);
    let _ = wcdma::math::Xoshiro256pp::new(0);
    let _ = wcdma::sim::SimConfig::baseline();
}
