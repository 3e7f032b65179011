//! E4 — coverage: performance vs cell radius.
//!
//! Larger cells push users into worse average CSI; the channel-adaptive
//! stack should degrade gracefully where the fixed-rate one falls off a
//! cliff (that cliff is quantified in E5; here the radius series itself).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_bench::{banner, quick_base};
use wcdma_mac::LinkDir;
use wcdma_sim::experiments::coverage_vs_radius;
use wcdma_sim::table::ci;
use wcdma_sim::{Simulation, Table};

fn print_experiment() {
    banner(
        "E4",
        "coverage: delay/throughput vs cell radius (JABA-SD, reverse)",
    );
    let mut base = quick_base();
    base.n_voice = 30; // light load: isolate the link-budget effect
    base.n_data = 8;
    let rows = coverage_vs_radius(
        &base,
        LinkDir::Reverse,
        &[1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0],
        2,
    );
    let mut t = Table::new(&[
        "radius [m]",
        "mean delay [s]",
        "p95 [s]",
        "cell tput [kbps]",
        "mean m",
    ]);
    for r in &rows {
        t.row(&[
            format!("{:.0}", r.radius_m),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.p95_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
            ci(&r.stats.mean_grant_m),
        ]);
    }
    println!("{}", t.render());
}

fn bench(c: &mut Criterion) {
    print_experiment();
    let mut cfg = quick_base();
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
