//! End-to-end integration tests: full dynamic simulations across every
//! crate, checking the paper's qualitative claims on seeded runs.

use wcdma::admission::{AdmissionPolicy, Fcfs, JabaSd};
use wcdma::mac::LinkDir;
use wcdma::sim::{PhyKind, SimConfig, Simulation};

fn base_cfg() -> SimConfig {
    let mut c = SimConfig::baseline();
    c.n_voice = 14;
    c.n_data = 8;
    c.duration_s = 25.0;
    c.warmup_s = 5.0;
    c.seed = 2026;
    c
}

#[test]
fn deterministic_full_pipeline() {
    let a = Simulation::new(base_cfg()).run();
    let b = Simulation::new(base_cfg()).run();
    assert_eq!(a, b, "identical seeds must give identical reports");
}

#[test]
fn jaba_sd_beats_single_burst_fcfs_on_delay() {
    // The paper's headline claim: multi-burst optimal scheduling beats the
    // cdma2000 single-burst FCFS handling on average packet delay.
    let jaba = Simulation::new(base_cfg()).run();
    let fcfs1 = Simulation::new(base_cfg().with_policy(Fcfs::single().into_boxed())).run();
    assert!(
        jaba.mean_delay_s <= fcfs1.mean_delay_s,
        "JABA-SD {} s vs FCFS-1 {} s",
        jaba.mean_delay_s,
        fcfs1.mean_delay_s
    );
    // And it should deliver at least comparable throughput.
    assert!(
        jaba.throughput_kbps >= 0.9 * fcfs1.throughput_kbps,
        "JABA-SD throughput {} vs FCFS-1 {}",
        jaba.throughput_kbps,
        fcfs1.throughput_kbps
    );
}

#[test]
fn adaptive_phy_outperforms_fixed_under_jaba() {
    let adaptive = Simulation::new(base_cfg()).run();
    let mut fixed_cfg = base_cfg();
    fixed_cfg.phy = PhyKind::Fixed;
    let fixed = Simulation::new(fixed_cfg).run();
    assert!(
        adaptive.throughput_kbps >= fixed.throughput_kbps,
        "adaptive {} kbps vs fixed {} kbps",
        adaptive.throughput_kbps,
        fixed.throughput_kbps
    );
}

#[test]
fn forward_and_reverse_both_carry_traffic() {
    let fwd = Simulation::new(base_cfg().with_direction(LinkDir::Forward)).run();
    let rev = Simulation::new(base_cfg().with_direction(LinkDir::Reverse)).run();
    assert!(fwd.bursts_completed > 0);
    assert!(rev.bursts_completed > 0);
}

#[test]
fn delay_grows_with_load() {
    // More data users per cell ⇒ more contention ⇒ delay must not improve.
    let mut light = base_cfg();
    light.n_data = 2;
    light.duration_s = 30.0;
    let mut heavy = base_cfg();
    heavy.n_data = 24;
    heavy.duration_s = 30.0;
    let rl = Simulation::new(light).run();
    let rh = Simulation::new(heavy).run();
    assert!(
        rh.mean_delay_s >= rl.mean_delay_s * 0.8,
        "heavy load {} s should not beat light load {} s",
        rh.mean_delay_s,
        rl.mean_delay_s
    );
    // Cell throughput must grow with offered load.
    assert!(rh.per_cell_throughput_kbps > rl.per_cell_throughput_kbps);
}

#[test]
fn all_policies_complete_bursts() {
    for (name, policy) in SimConfig::comparison_policies() {
        let mut cfg = base_cfg().with_policy(policy);
        cfg.duration_s = 15.0;
        let r = Simulation::new(cfg).run();
        assert!(
            r.bursts_completed > 0,
            "policy {name} completed no bursts: {r:?}"
        );
        assert!(
            r.mean_grant_m >= 1.0,
            "policy {name}: mean m {}",
            r.mean_grant_m
        );
    }
}

#[test]
fn greedy_jaba_close_to_exact() {
    use wcdma::admission::Objective;
    let exact = Simulation::new(base_cfg()).run();
    let greedy = Simulation::new(
        base_cfg().with_policy(
            JabaSd {
                objective: Objective::j2_default(),
                exact: false,
                node_limit: 0,
            }
            .into_boxed(),
        ),
    )
    .run();
    assert!(greedy.bursts_completed > 0);
    // Greedy should be within 2x of exact on delay (usually much closer).
    assert!(
        greedy.mean_delay_s <= exact.mean_delay_s * 2.0 + 0.2,
        "greedy {} s vs exact {} s",
        greedy.mean_delay_s,
        exact.mean_delay_s
    );
}
