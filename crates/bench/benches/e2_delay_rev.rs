//! E2 — average burst delay vs offered load, **reverse** link.
//!
//! Same comparison as E1 but on the interference-limited reverse link,
//! exercising the soft-handoff / neighbour-projection measurement path
//! (eq. 9–18). Times a 10 s reverse-link simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_mac::LinkDir;
use wcdma_sim::experiments::contended_base;
use wcdma_sim::Simulation;

fn bench(c: &mut Criterion) {
    let mut cfg = contended_base().with_direction(LinkDir::Reverse);
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
