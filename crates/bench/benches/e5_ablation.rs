//! E5 — the joint-adaptation ablation: {adaptive, fixed} PHY × {JABA-SD,
//! FCFS} admission.
//!
//! The paper's synergy claim: gains from the adaptive PHY and from optimal
//! burst scheduling compound.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_admission::{AdmissionPolicy, Fcfs, JabaSd};
use wcdma_bench::{banner, quick_base};
use wcdma_mac::LinkDir;
use wcdma_sim::experiments::phy_ablation;
use wcdma_sim::table::ci;
use wcdma_sim::{PhyKind, SimConfig, Simulation, Table};

fn print_experiment() {
    banner("E5", "PHY x policy ablation (adaptive vs fixed)");
    let base = quick_base();
    let pols = vec![
        ("jaba-sd-j2", JabaSd::default_j2().into_boxed()),
        ("fcfs", Fcfs::unlimited().into_boxed()),
    ];
    let rows = phy_ablation(&base, LinkDir::Forward, &[8], &pols, 2);
    let mut t = Table::new(&["phy", "policy", "N_d", "mean delay [s]", "cell tput [kbps]"]);
    for r in &rows {
        t.row(&[
            match r.phy {
                PhyKind::Adaptive => "adaptive".into(),
                PhyKind::Fixed => "fixed".into(),
            },
            r.policy.clone(),
            r.n_data.to_string(),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
        ]);
    }
    println!("{}", t.render());
}

fn bench(c: &mut Criterion) {
    print_experiment();
    let mut fixed: SimConfig = quick_base();
    fixed.phy = PhyKind::Fixed;
    fixed.duration_s = 8.0;
    fixed.warmup_s = 2.0;
    c.bench_function("e5/sim_8s_fixed_phy", |b| {
        b.iter(|| Simulation::new(black_box(fixed.clone())).run())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
