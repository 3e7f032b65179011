//! E10–E13 — robustness and sensitivity studies:
//!
//! * E10: CSI feedback degradation (estimation error σ, pipeline delay);
//! * E11: mobility speed sweep (pedestrian → vehicular);
//! * E12: voice background load sweep;
//! * E13: κ neighbour-projection margin ablation (reverse link).
//!
//! Times an 8 s simulation with degraded CSI (σ = 4 dB, 5-frame delay).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_sim::experiments::contended_base;
use wcdma_sim::Simulation;

fn bench(c: &mut Criterion) {
    let mut cfg = contended_base();
    cfg.csi_error_sigma_db = 4.0;
    cfg.csi_delay_frames = 5;
    cfg.duration_s = 8.0;
    cfg.warmup_s = 2.0;
    c.bench_function("e10/sim_8s_degraded_csi", |b| {
        b.iter(|| Simulation::new(black_box(cfg.clone())).run())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
