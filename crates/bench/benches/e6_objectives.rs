//! E6 — the J1 ↔ J2 tradeoff: sweep the delay-penalty weight λ.
//!
//! λ = 0 is pure J1 (max rate); growing λ trades throughput for delay
//! fairness, taming the p95 tail. Times a saturated 8 s simulation under J2.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_sim::experiments::contended_base;
use wcdma_sim::Simulation;

fn bench(c: &mut Criterion) {
    let mut cfg = contended_base();
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
