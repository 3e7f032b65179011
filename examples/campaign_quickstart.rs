//! Campaign quickstart: describe, expand and run a scenario matrix through
//! the campaign subsystem, then render the CSV/JSON artefacts.
//!
//! ```text
//! cargo run --release --example campaign_quickstart
//! ```

use wcdma::sim::campaign::{builtin, campaign_csv, campaign_summary_json, run_spec, RunOptions};
use wcdma::sim::table::ci;
use wcdma::sim::Table;

fn main() {
    // The paper's evaluation matrix (3 traffic mixes × 2 speed classes ×
    // 2 policies = 12 scenarios), shrunk to the CI smoke profile so the
    // example finishes in seconds.
    let spec = builtin("paper-eval")
        .expect("built-in campaign")
        .quickened();
    println!("# {} — {}", spec.name, spec.description);
    println!(
        "{} scenarios × {} replications\n",
        spec.n_scenarios(),
        spec.replications
    );
    println!("{}", spec.to_toml());

    let result = run_spec(&spec, &RunOptions::default()).expect("campaign runs");

    let mut t = Table::new(&["scenario", "mean delay [s]", "cell tput [kbps]", "denial"]);
    for sr in &result.scenarios {
        t.row(&[
            sr.scenario.label.clone(),
            ci(&sr.stats.mean_delay_s),
            ci(&sr.stats.per_cell_throughput_kbps),
            ci(&sr.stats.denial_rate),
        ]);
    }
    println!("{}", t.render());

    println!("--- CSV (first lines) ---");
    for line in campaign_csv(&result).lines().take(4) {
        println!("{line}");
    }
    println!("\n--- BENCH_campaign.json summary ---");
    println!("{}", campaign_summary_json(&result));
}
