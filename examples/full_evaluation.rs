//! Renders every table of the paper's evaluation — F1–F3 and E1–E13 — from
//! one contended base config (`experiments::contended_base`).
//!
//! ```text
//! cargo run --release --example full_evaluation
//! ```
//!
//! This is the only place the tables are rendered.

use wcdma::admission::{
    forward_region, reverse_region, spatial_only_value, temporal_exhaustive, temporal_greedy,
    AdmissionPolicy, Fcfs, JabaSd, Region, TemporalConfig,
};
use wcdma::ilp::{branch_and_bound, exhaustive, greedy, lp_relaxation, Problem};
use wcdma::mac::LinkDir;
use wcdma::math::{db_to_lin, lin_to_db, Xoshiro256pp};
use wcdma::phy::{mode_throughput, BerModel, FixedPhy, Vtaoc, NUM_MODES};
use wcdma::sim::experiments::*;
use wcdma::sim::table::{ci, Table};
use wcdma::sim::{PhyKind, SimConfig};

fn banner(id: &str, what: &str) {
    println!("\n================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}

/// E1/E2: mean burst delay vs load for every comparison policy.
fn delay_table(base: &SimConfig, dir: LinkDir) -> Table {
    let pols = SimConfig::comparison_policies();
    let rows = delay_vs_load(base, dir, &[8, 24, 48], &pols, 3);
    let mut t = Table::new(&[
        "policy",
        "N_d",
        "mean delay [s]",
        "p95 [s]",
        "cell tput [kbps]",
        "denial",
    ]);
    for r in &rows {
        t.row(&[
            r.policy.clone(),
            r.n_data.to_string(),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.p95_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
            ci(&r.stats.denial_rate),
        ]);
    }
    t
}

fn main() {
    let t0 = std::time::Instant::now();
    let base = contended_base();

    // ---- F1 ----
    banner("F1", "VTAOC throughput staircase & constant-BER (Fig. 1b)");
    let vtaoc = Vtaoc::default_config();
    let fixed = FixedPhy::designed_for(BerModel::coded(), 1e-3, db_to_lin(6.0));
    let mut t = Table::new(&[
        "CSI [dB]",
        "avg beta adaptive",
        "avg beta fixed",
        "P(outage)",
        "P(top)",
        "sim BER",
    ]);
    for db in (-5..=25).step_by(3) {
        let eps = db_to_lin(db as f64);
        let occ = vtaoc.mode_occupancy(eps);
        t.row(&[
            db.to_string(),
            format!("{:.4}", vtaoc.avg_throughput(eps)),
            format!("{:.4}", fixed.avg_throughput(eps)),
            format!("{:.3}", occ[0]),
            format!("{:.3}", occ[NUM_MODES]),
            format!("{:.2e}", vtaoc.avg_ber(eps, 100_000, 1)),
        ]);
    }
    println!("{}", t.render());
    println!("constant-BER thresholds (target BER = 1e-3):");
    for (q, xi) in vtaoc.thresholds().iter().enumerate() {
        println!(
            "  mode {q}: β = {:>6.4} bits/symbol, ξ = {:>6.2} dB",
            mode_throughput(q as u8),
            lin_to_db(*xi)
        );
    }

    // ---- F2 ----
    banner(
        "F2",
        "admissible-region characterisation (Fig. 2 measurements)",
    );
    let mut t = Table::new(&[
        "N_d",
        "fwd rows",
        "fwd headroom [W] (min)",
        "rev rows",
        "rev headroom [fW] (min)",
    ]);
    let (mut fwd, mut rev) = (Region::default(), Region::default());
    for &n in &[2usize, 4, 8, 12] {
        let net = warm_network(n, 77);
        let data = net.data_mobiles();
        let refs = data.iter().map(|&j| net.measurement_view(j));
        forward_region(net.forward_load_w(), 20.0, 1.0, refs.clone(), &mut fwd);
        reverse_region(
            net.reverse_load_w(),
            net.config().reverse_limit_w(),
            1.0,
            net.config().kappa_margin,
            refs,
            &mut rev,
        );
        let min_fwd = fwd.b.iter().cloned().fold(f64::INFINITY, f64::min);
        let min_rev = rev.b.iter().cloned().fold(f64::INFINITY, f64::min);
        t.row(&[
            n.to_string(),
            fwd.b.len().to_string(),
            format!("{min_fwd:.3}"),
            rev.b.len().to_string(),
            format!("{:.3}", min_rev * 1e15),
        ]);
    }
    println!("{}", t.render());

    // ---- F3 ----
    banner("F3", "MAC setup delay & J2 weight vs waiting time (Fig. 3)");
    let timers = wcdma::mac::MacTimers::default_timers();
    let j2 = wcdma::admission::Objective::j2_default();
    let mut t = Table::new(&["t_w [s]", "D_s [s]", "w [s]", "J2 weight (db=1)"]);
    for &tw in &[0.0, 0.25, 0.49, 0.5, 1.0, 1.9, 2.0, 3.0, 5.0] {
        t.row(&[
            format!("{tw:.2}"),
            format!("{:.2}", timers.setup_delay(tw)),
            format!("{:.2}", timers.overall_delay(tw)),
            format!("{:.4}", j2.weight(1.0, 0.0, tw, &timers)),
        ]);
    }
    println!("{}", t.render());

    // ---- E1 / E2 ----
    banner("E1", "mean burst delay vs load (Forward link)");
    println!("{}", delay_table(&base, LinkDir::Forward).render());
    banner("E2", "mean burst delay vs load (Reverse link)");
    println!("{}", delay_table(&base, LinkDir::Reverse).render());

    // ---- E3 ----
    banner(
        "E3",
        "data-user capacity, reverse link, mean-delay target 6 s",
    );
    let pols = SimConfig::comparison_policies();
    let rows = capacity_at_delay_target(
        &base,
        LinkDir::Reverse,
        CapacityMetric::TotalDelay,
        6.0,
        &[8, 16, 24, 32, 40, 48],
        &pols,
        2,
    );
    let mut t = Table::new(&["policy", "capacity", "delay at capacity [s]"]);
    for r in &rows {
        t.row(&[
            r.policy.clone(),
            r.capacity.to_string(),
            format!("{:.3}", r.delay_at_capacity_s),
        ]);
    }
    println!("{}", t.render());

    // ---- E4 ----
    // Reverse link: coverage is limited by the mobile transmit-power cap,
    // so growing cells push edge users off their Eb/I0 target and the
    // channel-adaptive stack must ride down the mode ladder.
    banner(
        "E4",
        "coverage: radius sweep (JABA-SD, reverse link, light load)",
    );
    let mut cov_base = base.clone();
    cov_base.n_voice = 30; // light load: isolate the link-budget effect
    cov_base.n_data = 8;
    let rows = coverage_vs_radius(
        &cov_base,
        LinkDir::Reverse,
        &[1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0],
        3,
    );
    let mut t = Table::new(&["radius [m]", "mean delay [s]", "cell tput [kbps]", "mean m"]);
    for r in &rows {
        t.row(&[
            format!("{:.0}", r.radius_m),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
            ci(&r.stats.mean_grant_m),
        ]);
    }
    println!("{}", t.render());

    // ---- E5 ----
    banner("E5", "PHY x policy ablation");
    let pols = vec![
        ("jaba-sd-j2", JabaSd::default_j2().into_boxed()),
        ("fcfs", Fcfs::unlimited().into_boxed()),
    ];
    let rows = phy_ablation(&base, LinkDir::Forward, &[32], &pols, 2);
    let mut t = Table::new(&["phy", "policy", "mean delay [s]", "cell tput [kbps]"]);
    for r in &rows {
        t.row(&[
            match r.phy {
                PhyKind::Adaptive => "adaptive".into(),
                PhyKind::Fixed => "fixed".into(),
            },
            r.policy.clone(),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
        ]);
    }
    println!("{}", t.render());

    // ---- E6 ----
    banner("E6", "J1 vs J2 lambda sweep");
    let rows = objective_tradeoff(
        &base.with_n_data(48), // saturated: the objectives pick different winners
        LinkDir::Forward,
        &[0.0, 0.5, 1.0, 4.0, 16.0],
        2,
    );
    let mut t = Table::new(&["lambda", "mean delay [s]", "p95 [s]", "cell tput [kbps]"]);
    for r in &rows {
        t.row(&[
            format!("{:.1}", r.lambda),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.p95_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
        ]);
    }
    println!("{}", t.render());

    // ---- E7 ----
    banner("E7", "solver study: optimality gap and node counts");
    let mut rng = Xoshiro256pp::new(0xE7);
    let mut t = Table::new(&[
        "N_d",
        "instances",
        "bb = exhaustive",
        "greedy gap mean",
        "greedy gap max",
        "LP integrality gap",
    ]);
    for &n in &[3usize, 5, 7] {
        let mut agree = 0;
        let mut gaps = Vec::new();
        let mut lp_gaps = Vec::new();
        let trials = 25;
        for _ in 0..trials {
            let p = solver_instance(n, 3, &mut rng, Problem::new);
            let e = exhaustive(&p);
            let (bb, complete) = branch_and_bound(&p, 0);
            assert!(complete);
            if (bb.objective - e.objective).abs() < 1e-9 {
                agree += 1;
            }
            let g = greedy(&p);
            gaps.push(if e.objective > 0.0 {
                1.0 - g.objective / e.objective
            } else {
                0.0
            });
            if let Some(lp) = lp_relaxation(&p) {
                if lp.objective > 0.0 {
                    lp_gaps.push(1.0 - e.objective / lp.objective);
                }
            }
        }
        let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let max_gap = gaps.iter().cloned().fold(0.0, f64::max);
        let lp_gap = lp_gaps.iter().sum::<f64>() / lp_gaps.len().max(1) as f64;
        t.row(&[
            n.to_string(),
            trials.to_string(),
            format!("{agree}/{trials}"),
            format!("{:.1}%", mean_gap * 100.0),
            format!("{:.1}%", max_gap * 100.0),
            format!("{:.1}%", lp_gap * 100.0),
        ]);
    }
    println!("{}", t.render());

    // ---- E8 ----
    banner("E8", "burst statistics vs load (JABA-SD)");
    let mut t = Table::new(&["N_d", "mean m", "mean delta_beta", "denial", "bursts"]);
    for &n in &[8usize, 16, 32, 48] {
        let r = wcdma::sim::Simulation::new(base.with_n_data(n)).run();
        t.row(&[
            n.to_string(),
            format!("{:.2}", r.mean_grant_m),
            format!("{:.3}", r.mean_delta_beta),
            format!("{:.3}", r.denial_rate),
            r.bursts_completed.to_string(),
        ]);
    }
    println!("{}", t.render());

    // ---- E9 ----
    banner(
        "E9",
        "temporal extension: schedule value vs spatial-only (JABA-STD)",
    );
    let cfg = TemporalConfig::default_config();
    let mut t = Table::new(&[
        "N_d",
        "instances",
        "mean gain greedy vs spatial",
        "mean gain exact vs spatial",
        "exact > spatial in",
    ]);
    let mut rng = Xoshiro256pp::new(0xE9);
    for &n in &[2usize, 3, 4] {
        let trials = 20;
        let mut gain_greedy = 0.0;
        let mut gain_exact = 0.0;
        let mut wins = 0;
        for _ in 0..trials {
            let (region, reqs) = temporal_instance(n, 2, &mut rng);
            let spatial = spatial_only_value(&region, &reqs, &cfg).max(1e-9);
            let exact = temporal_exhaustive(&region, &reqs, &cfg).value;
            gain_greedy += temporal_greedy(&region, &reqs, &cfg).value / spatial;
            gain_exact += exact / spatial;
            if exact > spatial + 1e-9 {
                wins += 1;
            }
        }
        t.row(&[
            n.to_string(),
            trials.to_string(),
            format!("{:.2}x", gain_greedy / trials as f64),
            format!("{:.2}x", gain_exact / trials as f64),
            format!("{wins}/{trials}"),
        ]);
    }
    println!("{}", t.render());

    // ---- E10 ----
    banner("E10", "CSI degradation (sigma x delay)");
    let rows = csi_robustness(
        &base.with_n_data(48),
        LinkDir::Forward,
        &[0.0, 2.0, 6.0],
        &[0, 50],
        2,
    );
    let mut t = Table::new(&[
        "sigma [dB]",
        "delay [frames]",
        "mean delay [s]",
        "tput [kbps]",
    ]);
    for r in &rows {
        t.row(&[
            format!("{:.0}", r.sigma_db),
            r.delay_frames.to_string(),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
        ]);
    }
    println!("{}", t.render());

    // ---- E11 ----
    banner("E11", "mobility speed sweep");
    let rows = speed_sweep(&base, LinkDir::Forward, &[3.0, 30.0, 120.0], 2);
    let mut t = Table::new(&["speed [km/h]", "mean delay [s]", "tput [kbps]"]);
    for r in &rows {
        t.row(&[
            format!("{:.0}", r.speed_kmh),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
        ]);
    }
    println!("{}", t.render());

    // ---- E12 ----
    banner("E12", "voice background load sweep");
    let rows = voice_load_sweep(&base, LinkDir::Forward, &[10, 30, 60], 2);
    let mut t = Table::new(&["N_voice", "mean delay [s]", "tput [kbps]", "mean m"]);
    for r in &rows {
        t.row(&[
            r.n_voice.to_string(),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
            ci(&r.stats.mean_grant_m),
        ]);
    }
    println!("{}", t.render());

    // ---- E13 ----
    banner("E13", "kappa margin ablation (reverse link)");
    let rows = kappa_ablation(&base, &[0.0, 2.0, 6.0], 2);
    let mut t = Table::new(&["kappa [dB]", "mean delay [s]", "tput [kbps]", "denial"]);
    for r in &rows {
        t.row(&[
            format!("{:.0}", r.kappa_db),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
            ci(&r.stats.denial_rate),
        ]);
    }
    println!("{}", t.render());

    println!("\nfull evaluation done in {:?}", t0.elapsed());
}
