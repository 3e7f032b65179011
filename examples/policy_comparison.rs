//! Policy comparison (experiment E1, reduced profile): average burst delay
//! vs offered load for JABA-SD against the FCFS and equal-share baselines.
//!
//! ```text
//! cargo run --release --example policy_comparison [-- full]
//! ```
//!
//! The optional `full` argument runs the paper-scale profile (19 cells,
//! longer runs, more replications) instead of the quick one.

use wcdma::mac::LinkDir;
use wcdma::sim::experiments::delay_vs_load;
use wcdma::sim::table::{ci, Table};
use wcdma::sim::SimConfig;

fn main() {
    let full = std::env::args().any(|a| a == "full");
    let mut base = SimConfig::baseline();
    let (loads, reps): (Vec<usize>, usize) = if full {
        base.rings = 2;
        base.n_voice = 120;
        base.duration_s = 60.0;
        base.warmup_s = 10.0;
        (vec![4, 8, 12, 16, 24, 32], 5)
    } else {
        base.n_voice = 20;
        base.duration_s = 20.0;
        base.warmup_s = 4.0;
        (vec![2, 4, 8, 12], 2)
    };

    let policies = SimConfig::comparison_policies();

    println!(
        "E1: mean burst delay vs offered load (forward link, {} profile)\n",
        if full { "full" } else { "quick" }
    );
    let rows = delay_vs_load(&base, LinkDir::Forward, &loads, &policies, reps);

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
