//! F1 — Figure 1(b) content: the VTAOC staircase.
//!
//! Times threshold design, mode selection, analytic average throughput,
//! and per-frame mode-sequence simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_math::{db_to_lin, Xoshiro256pp};
use wcdma_phy::frame::simulate_frame;
use wcdma_phy::{BerModel, Vtaoc};

fn bench(c: &mut Criterion) {
    let vtaoc = Vtaoc::default_config();
    let eps = db_to_lin(10.0);

    c.bench_function("f1/threshold_design", |b| {
        b.iter(|| Vtaoc::constant_ber(black_box(BerModel::coded()), black_box(1e-3)))
    });
    c.bench_function("f1/mode_select", |b| {
        let mut g: f64 = 0.01;
        b.iter(|| {
            g = (g * 1.618).rem_euclid(30.0) + 1e-3;
            vtaoc.mode_for(black_box(g))
        })
    });
    c.bench_function("f1/avg_throughput_analytic", |b| {
        b.iter(|| vtaoc.avg_throughput(black_box(eps)))
    });
    c.bench_function("f1/frame_simulation_64slots", |b| {
        let mut rng = Xoshiro256pp::new(3);
        b.iter(|| simulate_frame(&vtaoc, black_box(eps), 64, 24.0, 0.7, &mut rng))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
