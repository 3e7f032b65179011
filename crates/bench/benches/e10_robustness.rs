//! E10–E13 — robustness and sensitivity studies:
//!
//! * E10: CSI feedback degradation (estimation error σ, pipeline delay);
//! * E11: mobility speed sweep (pedestrian → vehicular);
//! * E12: voice background load sweep;
//! * E13: κ neighbour-projection margin ablation (reverse link).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_bench::{banner, quick_base};
use wcdma_mac::LinkDir;
use wcdma_sim::experiments::{csi_robustness, kappa_ablation, speed_sweep, voice_load_sweep};
use wcdma_sim::table::ci;
use wcdma_sim::{Simulation, Table};

fn print_experiments() {
    let base = quick_base();

    banner("E10", "CSI feedback degradation (error sigma x delay)");
    let rows = csi_robustness(
        &base.with_n_data(48),
        LinkDir::Forward,
        &[0.0, 2.0, 6.0],
        &[0, 50],
        2,
    );
    let mut t = Table::new(&[
        "sigma [dB]",
        "delay [frames]",
        "mean delay [s]",
        "cell tput [kbps]",
    ]);
    for r in &rows {
        t.row(&[
            format!("{:.0}", r.sigma_db),
            r.delay_frames.to_string(),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
        ]);
    }
    println!("{}", t.render());

    banner("E11", "mobility speed sweep");
    let rows = speed_sweep(&base, LinkDir::Forward, &[3.0, 30.0, 120.0], 2);
    let mut t = Table::new(&["speed [km/h]", "mean delay [s]", "cell tput [kbps]"]);
    for r in &rows {
        t.row(&[
            format!("{:.0}", r.speed_kmh),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
        ]);
    }
    println!("{}", t.render());

    banner("E12", "voice background load sweep");
    let rows = voice_load_sweep(&base, LinkDir::Forward, &[10, 30, 60], 2);
    let mut t = Table::new(&["N_voice", "mean delay [s]", "cell tput [kbps]", "mean m"]);
    for r in &rows {
        t.row(&[
            r.n_voice.to_string(),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
            ci(&r.stats.mean_grant_m),
        ]);
    }
    println!("{}", t.render());

    banner("E13", "kappa margin ablation (reverse link)");
    let rows = kappa_ablation(&base, &[0.0, 2.0, 6.0], 2);
    let mut t = Table::new(&["kappa [dB]", "mean delay [s]", "cell tput [kbps]", "denial"]);
    for r in &rows {
        t.row(&[
            format!("{:.0}", r.kappa_db),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
            ci(&r.stats.denial_rate),
        ]);
    }
    println!("{}", t.render());
}

fn bench(c: &mut Criterion) {
    print_experiments();
    let mut cfg = quick_base();
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
