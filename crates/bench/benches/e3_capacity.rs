//! E3 — data-user capacity at a mean-delay target, per policy.
//!
//! "Data user capacity": the largest number of data users a policy can
//! carry while keeping the mean burst delay at or below the target. Times
//! one 8 s simulation at 16 data users, a single step of the capacity scan.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_sim::experiments::contended_base;
use wcdma_sim::Simulation;

fn bench(c: &mut Criterion) {
    let mut cfg = contended_base();
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
