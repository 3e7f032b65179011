//! E3 — data-user capacity at a mean-delay target, per policy.
//!
//! "Data user capacity": the largest number of data users a policy can
//! carry while keeping the mean burst delay at or below the target.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_bench::{banner, quick_base};
use wcdma_mac::LinkDir;
use wcdma_sim::experiments::{capacity_at_delay_target, CapacityMetric};
use wcdma_sim::{SimConfig, Simulation, Table};

fn print_experiment() {
    banner(
        "E3",
        "data-user capacity, reverse link, mean-delay target 6 s",
    );
    let base = quick_base();
    let pols = SimConfig::comparison_policies();
    let refs: Vec<(&str, _)> = pols.iter().map(|(n, p)| (*n, p.clone())).collect();
    let rows = capacity_at_delay_target(
        &base,
        LinkDir::Reverse,
        CapacityMetric::TotalDelay,
        6.0,
        &[8, 16, 24, 32, 40, 48],
        &refs,
        2,
    );
    let mut t = Table::new(&["policy", "capacity [users]", "delay at capacity [s]"]);
    for r in &rows {
        t.row(&[
            r.policy.clone(),
            r.capacity.to_string(),
            format!("{:.3}", r.delay_at_capacity_s),
        ]);
    }
    println!("{}", t.render());
}

fn bench(c: &mut Criterion) {
    print_experiment();
    let mut cfg = quick_base();
    cfg.n_data = 16;
    cfg.duration_s = 8.0;
    cfg.warmup_s = 2.0;
    c.bench_function("e3/sim_8s_16users", |b| {
        b.iter(|| Simulation::new(black_box(cfg.clone())).run())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
