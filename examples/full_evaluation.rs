//! Runs the complete experiment suite (quick profiles) and prints every
//! table — the one-stop reproduction of the paper's evaluation.
//!
//! ```text
//! cargo run --release --example full_evaluation
//! ```
//!
//! The same tables (plus Criterion timings) are produced per-experiment by
//! `cargo bench`; this binary exists so the whole evaluation can be
//! regenerated in one run.

use wcdma::admission::{AdmissionPolicy, Fcfs, JabaSd};
use wcdma::mac::LinkDir;
use wcdma::math::db_to_lin;
use wcdma::phy::{mode_throughput, BerModel, FixedPhy, Vtaoc, NUM_MODES};
use wcdma::sim::experiments::*;
use wcdma::sim::table::{ci, Table};
use wcdma::sim::{PhyKind, SimConfig};

fn base() -> SimConfig {
    let mut c = SimConfig::baseline();
    c.cdma.max_bs_power_w = 12.0; // tight budget: the contended regime
    c.n_voice = 100;
    c.n_data = 16;
    c.traffic.mean_burst_bits = 480_000.0;
    c.traffic.mean_reading_s = 2.0;
    c.duration_s = 20.0;
    c.warmup_s = 4.0;
    c.seed = 0xBE9C;
    c
}

fn banner(id: &str, what: &str) {
    println!("\n================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}

fn main() {
    let t0 = std::time::Instant::now();

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
    let _ = mode_throughput(0);

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
    for (id, dir) in [("E1", LinkDir::Forward), ("E2", LinkDir::Reverse)] {
        banner(id, &format!("mean burst delay vs load ({dir:?} link)"));
        let pols = SimConfig::comparison_policies();
        let refs: Vec<(&str, _)> = pols.iter().map(|(n, p)| (*n, p.clone())).collect();
        let rows = delay_vs_load(&base(), dir, &[8, 24, 48], &refs, 3);
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
        println!("{}", t.render());
    }

    // ---- E3 ----
    banner(
        "E3",
        "data-user capacity, reverse link, mean-delay target 6 s",
    );
    let pols = SimConfig::comparison_policies();
    let refs: Vec<(&str, _)> = pols.iter().map(|(n, p)| (*n, p.clone())).collect();
    let rows = capacity_at_delay_target(
        &base(),
        LinkDir::Reverse,
        CapacityMetric::TotalDelay,
        6.0,
        &[8, 16, 24, 32, 40, 48],
        &refs,
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
    let mut cov_base = base();
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
    let rows = phy_ablation(&base(), LinkDir::Forward, &[32], &pols, 2);
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
    let mut cfg6 = base();
    cfg6.n_data = 48; // saturated: the objectives pick different winners
    let rows = objective_tradeoff(&cfg6, LinkDir::Forward, &[0.0, 0.5, 1.0, 4.0, 16.0], 2);
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

    // ---- E8 ----
    banner("E8", "burst statistics vs load (JABA-SD)");
    let mut t = Table::new(&["N_d", "mean m", "mean delta_beta", "denial", "bursts"]);
    for &n in &[8usize, 16, 32, 48] {
        let r = wcdma::sim::Simulation::new(base().with_n_data(n)).run();
        t.row(&[
            n.to_string(),
            format!("{:.2}", r.mean_grant_m),
            format!("{:.3}", r.mean_delta_beta),
            format!("{:.3}", r.denial_rate),
            r.bursts_completed.to_string(),
        ]);
    }
    println!("{}", t.render());

    // ---- E10 ----
    banner("E10", "CSI degradation (sigma x delay)");
    let rows = csi_robustness(
        &base().with_n_data(48),
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
    let rows = speed_sweep(&base(), LinkDir::Forward, &[3.0, 30.0, 120.0], 2);
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
    let rows = voice_load_sweep(&base(), LinkDir::Forward, &[10, 30, 60], 2);
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
    let rows = kappa_ablation(&base(), &[0.0, 2.0, 6.0], 2);
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
