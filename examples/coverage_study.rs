//! Coverage study (experiment E4): how delay and throughput degrade as the
//! cell radius grows — the paper's "coverage" evaluation axis.
//!
//! ```text
//! cargo run --release --example coverage_study
//! ```

use wcdma::mac::LinkDir;
use wcdma::sim::experiments::coverage_vs_radius;
use wcdma::sim::table::{ci, Table};
use wcdma::sim::SimConfig;

fn main() {
    let mut base = SimConfig::baseline();
    base.n_voice = 16;
    base.n_data = 6;
    base.duration_s = 20.0;
    base.warmup_s = 4.0;

    let radii = [600.0, 1000.0, 1500.0, 2000.0, 2500.0];
    println!("E4: coverage — JABA-SD(J2), forward link, radius sweep\n");
    let rows = coverage_vs_radius(&base, LinkDir::Forward, &radii, 2);

    let mut table = Table::new(&[
        "radius [m]",
        "mean delay [s]",
        "p95 delay [s]",
        "cell tput [kbit/s]",
        "mean m",
    ]);
    for r in &rows {
        table.row(&[
            format!("{:.0}", r.radius_m),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.p95_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
            ci(&r.stats.mean_grant_m),
        ]);
    }
    println!("{}", table.render());
    println!("CSV:\n{}", table.to_csv());
}
