//! Policy comparison at paper scale: average burst delay vs offered load
//! for JABA-SD against the FCFS and equal-share baselines on the 19-cell
//! layout, with 60 s runs and 5 replications per point.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```
//!
//! `examples/full_evaluation.rs` renders the same comparison (E1) on the
//! contended 7-cell base in seconds; this profile takes minutes.

use wcdma::mac::LinkDir;
use wcdma::sim::experiments::delay_vs_load;
use wcdma::sim::table::{ci, Table};
use wcdma::sim::SimConfig;

fn main() {
    let mut base = SimConfig::baseline();
    base.rings = 2;
    base.n_voice = 120;
    base.duration_s = 60.0;
    base.warmup_s = 10.0;

    let policies = SimConfig::comparison_policies();

    println!("mean burst delay vs offered load (forward link, paper-scale profile)\n");
    let rows = delay_vs_load(
        &base,
        LinkDir::Forward,
        &[4, 8, 12, 16, 24, 32],
        &policies,
        5,
    );

    let mut table = Table::new(&[
        "policy",
        "N_d",
        "mean delay [s]",
        "p95 delay [s]",
        "cell tput [kbit/s]",
        "denial rate",
    ]);
    for r in &rows {
        table.row(&[
            r.policy.clone(),
            r.n_data.to_string(),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.p95_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
            ci(&r.stats.denial_rate),
        ]);
    }
    println!("{}", table.render());
    println!("CSV:\n{}", table.to_csv());
}
