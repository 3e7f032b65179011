//! E8 — burst statistics under load: granted-m distribution, δβ̄ at grant,
//! burst durations, denial rate.
//!
//! Shows how JABA-SD's grants shrink and selectivity rises as the system
//! saturates. Times a saturated 8 s simulation at 24 data users.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_sim::experiments::contended_base;
use wcdma_sim::Simulation;

fn bench(c: &mut Criterion) {
    let mut cfg = contended_base();
    cfg.n_data = 24;
    cfg.duration_s = 8.0;
    cfg.warmup_s = 2.0;
    c.bench_function("e8/sim_8s_24users_saturated", |b| {
        b.iter(|| Simulation::new(black_box(cfg.clone())).run())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
