//! F2 — Figure 2 content: the measurement sub-layer's admissible regions.
//!
//! Times construction of the forward (power headroom) and reverse
//! (interference headroom) constraint systems for a live snapshot as the
//! request count grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wcdma_admission::{forward_region, reverse_region};
use wcdma_cdma::MeasurementView;
use wcdma_sim::experiments::warm_network;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("f2");
    for &n in &[4usize, 8, 16] {
        let net = warm_network(n, 99);
        let refs: Vec<MeasurementView> = net
            .data_mobiles()
            .iter()
            .map(|&j| net.measurement_view(j))
            .collect();
        group.bench_with_input(BenchmarkId::new("forward_region", n), &n, |b, _| {
            b.iter(|| forward_region(black_box(net.forward_load_w()), 20.0, 1.0, black_box(&refs)))
        });
        group.bench_with_input(BenchmarkId::new("reverse_region", n), &n, |b, _| {
            b.iter(|| {
                reverse_region(
                    black_box(net.reverse_load_w()),
                    net.config().reverse_limit_w(),
                    1.0,
                    net.config().kappa_margin,
                    black_box(&refs),
                )
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
