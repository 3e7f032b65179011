//! E6 — the J1 ↔ J2 tradeoff: sweep the delay-penalty weight λ.
//!
//! λ = 0 is pure J1 (max rate); growing λ trades throughput for delay
//! fairness, taming the p95 tail.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_bench::{banner, quick_base};
use wcdma_mac::LinkDir;
use wcdma_sim::experiments::objective_tradeoff;
use wcdma_sim::table::ci;
use wcdma_sim::{Simulation, Table};

fn print_experiment() {
    banner("E6", "objective study: J1 (lambda=0) vs J2 lambda sweep");
    let mut base = quick_base();
    base.n_data = 48;
    let rows = objective_tradeoff(&base, LinkDir::Forward, &[0.0, 0.5, 1.0, 4.0, 16.0], 2);
    let mut t = Table::new(&[
        "lambda",
        "mean delay [s]",
        "p95 delay [s]",
        "cell tput [kbps]",
    ]);
    for r in &rows {
        t.row(&[
            format!("{:.1}", r.lambda),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.p95_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
        ]);
    }
    println!("{}", t.render());
}

fn bench(c: &mut Criterion) {
    print_experiment();
    let mut cfg = quick_base();
    cfg.n_data = 48;
    cfg.duration_s = 8.0;
    cfg.warmup_s = 2.0;
    c.bench_function("e6/sim_8s_12users_j2", |b| {
        b.iter(|| Simulation::new(black_box(cfg.clone())).run())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
