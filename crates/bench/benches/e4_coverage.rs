//! E4 — coverage: performance vs cell radius.
//!
//! Larger cells push users into worse average CSI; the channel-adaptive
//! stack should degrade gracefully where the fixed-rate one falls off a
//! cliff (that cliff is quantified in E5; here the radius series itself).
//! Times an 8 s simulation on 2 km cells.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_sim::experiments::contended_base;
use wcdma_sim::Simulation;

fn bench(c: &mut Criterion) {
    let mut cfg = contended_base();
    cfg.cell_radius_m = 2000.0;
    cfg.duration_s = 8.0;
    cfg.warmup_s = 2.0;
    c.bench_function("e4/sim_8s_2km_cells", |b| {
        b.iter(|| Simulation::new(black_box(cfg.clone())).run())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
