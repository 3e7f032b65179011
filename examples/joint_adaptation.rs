//! Joint-adaptation ablation (experiment E5): adaptive VTAOC vs the fixed
//! single-mode PHY under JABA-SD and FCFS — the paper's synergy claim:
//! "synergy could be attained by interactions between the adaptive physical
//! layer and the burst admission layer".
//!
//! ```text
//! cargo run --release --example joint_adaptation
//! ```

use wcdma::admission::{AdmissionPolicy, Fcfs, JabaSd};
use wcdma::mac::LinkDir;
use wcdma::sim::experiments::phy_ablation;
use wcdma::sim::table::{ci, Table};
use wcdma::sim::{PhyKind, SimConfig};

fn main() {
    let mut base = SimConfig::baseline();
    base.n_voice = 16;
    base.duration_s = 20.0;
    base.warmup_s = 4.0;

    let policies = vec![
        ("jaba-sd-j2", JabaSd::default_j2().into_boxed()),
        ("fcfs", Fcfs::unlimited().into_boxed()),
    ];
    println!("E5: PHY × admission-policy ablation (forward link)\n");
    let rows = phy_ablation(&base, LinkDir::Forward, &[4, 8], &policies, 2);

    let mut table = Table::new(&[
        "phy",
        "policy",
        "N_d",
        "mean delay [s]",
        "cell tput [kbit/s]",
    ]);
    for r in &rows {
        table.row(&[
            match r.phy {
                PhyKind::Adaptive => "adaptive".into(),
                PhyKind::Fixed => "fixed".into(),
            },
            r.policy.clone(),
            r.n_data.to_string(),
            ci(&r.stats.mean_delay_s),
            ci(&r.stats.per_cell_throughput_kbps),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Expected shape: the adaptive PHY improves every policy, and the\n\
         (adaptive, jaba-sd) cell shows the largest combined gain — the\n\
         joint-design synergy the paper claims."
    );
    println!("\nCSV:\n{}", table.to_csv());
}
