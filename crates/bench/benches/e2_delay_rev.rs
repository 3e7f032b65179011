//! E2 — average burst delay vs offered load, **reverse** link.
//!
//! Same comparison as E1 but on the interference-limited reverse link,
//! exercising the soft-handoff / neighbour-projection measurement path
//! (eq. 9–18).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_bench::{banner, quick_base};
use wcdma_mac::LinkDir;
use wcdma_sim::experiments::delay_vs_load;
use wcdma_sim::table::ci;
use wcdma_sim::{SimConfig, Simulation, Table};

fn print_experiment() {
    banner(
        "E2",
        "mean burst delay vs load, reverse link (policy comparison)",
    );
    let base = quick_base();
    let pols = SimConfig::comparison_policies();
    let refs: Vec<(&str, _)> = pols.iter().map(|(n, p)| (*n, p.clone())).collect();
    let rows = delay_vs_load(&base, LinkDir::Reverse, &[8, 24, 48], &refs, 2);
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

fn bench(c: &mut Criterion) {
    print_experiment();
    let mut cfg = quick_base().with_direction(LinkDir::Reverse);
    cfg.duration_s = 10.0;
    cfg.warmup_s = 2.0;
    c.bench_function("e2/sim_10s_reverse_jaba_sd", |b| {
        b.iter(|| Simulation::new(black_box(cfg.clone())).run())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
