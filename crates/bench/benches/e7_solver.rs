//! E7 — scheduler optimality and cost: branch-and-bound vs exhaustive vs
//! greedy on random burst-scheduling instances.
//!
//! Supports the "optimal burst scheduling" claim: the exact solver matches
//! exhaustive enumeration while scaling far beyond it, and the greedy
//! heuristic's optimality gap is quantified. Times each solver on one
//! random instance per size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wcdma_ilp::{branch_and_bound, exhaustive, greedy, Problem};
use wcdma_math::Xoshiro256pp;
use wcdma_sim::experiments::solver_instance;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7");
    for &n in &[4usize, 8, 12, 16] {
        let mut rng = Xoshiro256pp::new(n as u64);
        let p = solver_instance(n, 4, &mut rng, Problem::new);
        group.bench_with_input(BenchmarkId::new("branch_and_bound", n), &p, |b, p| {
            b.iter(|| branch_and_bound(black_box(p), 500_000))
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &p, |b, p| {
            b.iter(|| greedy(black_box(p)))
        });
        if n <= 8 {
            group.bench_with_input(BenchmarkId::new("exhaustive", n), &p, |b, p| {
                b.iter(|| exhaustive(black_box(p)))
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
