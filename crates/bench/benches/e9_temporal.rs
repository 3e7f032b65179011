//! E9 — the temporal-dimension extension (JABA-STD): value gained by also
//! scheduling burst *start times* over a short horizon, versus the paper's
//! spatial-only scheduler.
//!
//! This is the extension the paper explicitly defers ("we focus on the
//! spatial dimension only"); the instance generator produces contended
//! snapshots where deferral pays. Times the greedy and exhaustive temporal
//! schedulers on one random snapshot per size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wcdma_admission::{temporal_exhaustive, temporal_greedy, TemporalConfig};
use wcdma_math::Xoshiro256pp;
use wcdma_sim::experiments::temporal_instance;

fn bench(c: &mut Criterion) {
    let cfg = TemporalConfig::default_config();
    let mut group = c.benchmark_group("e9");
    for &n in &[4usize, 8, 12] {
        let mut rng = Xoshiro256pp::new(n as u64 ^ 0xE9);
        let (region, reqs) = temporal_instance(n, 3, &mut rng);
        group.bench_with_input(BenchmarkId::new("temporal_greedy", n), &n, |b, _| {
            b.iter(|| temporal_greedy(black_box(&region), black_box(&reqs), &cfg))
        });
        if n <= 4 {
            group.bench_with_input(BenchmarkId::new("temporal_exhaustive", n), &n, |b, _| {
                b.iter(|| temporal_exhaustive(black_box(&region), black_box(&reqs), &cfg))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
