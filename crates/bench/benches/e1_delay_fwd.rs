//! E1 — average burst delay vs offered load, forward link, all policies.
//!
//! The paper's headline comparison: JABA-SD vs cdma2000 FCFS vs equal
//! sharing, dynamic simulation with mobility, power control, soft hand-off.
//! Times 10 s simulations under JABA-SD and FCFS.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_admission::{AdmissionPolicy, Fcfs};
use wcdma_sim::experiments::contended_base;
use wcdma_sim::Simulation;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1");
    group.sample_size(10);
    let mut cfg = contended_base();
    cfg.duration_s = 10.0;
    cfg.warmup_s = 2.0;
    group.bench_function("sim_10s_jaba_sd", |b| {
        b.iter(|| Simulation::new(black_box(cfg.clone())).run())
    });
    let fcfs = cfg.with_policy(Fcfs::unlimited().into_boxed());
    group.bench_function("sim_10s_fcfs", |b| {
        b.iter(|| Simulation::new(black_box(fcfs.clone())).run())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
