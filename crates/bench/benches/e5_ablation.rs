//! E5 — the joint-adaptation ablation: {adaptive, fixed} PHY × {JABA-SD,
//! FCFS} admission.
//!
//! The paper's synergy claim: gains from the adaptive PHY and from optimal
//! burst scheduling compound. Times an 8 s simulation on the fixed PHY.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_sim::experiments::contended_base;
use wcdma_sim::{PhyKind, SimConfig, Simulation};

fn bench(c: &mut Criterion) {
    let mut fixed: SimConfig = contended_base();
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
