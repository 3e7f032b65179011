//! Load-regime probe: find where the admission policies diverge.
//! Prints delay/throughput/denial for three policies across load points.
use wcdma::admission::{AdmissionPolicy, EqualShare, Fcfs};
use wcdma::mac::LinkDir;
use wcdma::sim::{SimConfig, Simulation};

fn main() {
    for dir in [LinkDir::Forward, LinkDir::Reverse] {
        println!("=== {dir:?} ===");
        for nd in [16usize, 32, 48] {
            let mut c = SimConfig::baseline();
            c.cdma.max_bs_power_w = 12.0;
            c.n_voice = 100;
            c.n_data = nd;
            c.traffic.mean_burst_bits = 480_000.0;
            c.traffic.mean_reading_s = 2.0;
            c.duration_s = 25.0;
            c.warmup_s = 5.0;
            c.seed = 77;
            let c = c.with_direction(dir);
            let jaba = Simulation::new(c.clone()).run();
            let fcfs1 = Simulation::new(c.with_policy(Fcfs::single().into_boxed())).run();
            let eq = Simulation::new(c.with_policy(EqualShare.into_boxed())).run();
            println!("nd={nd}");
            for (n, r) in [("jaba", &jaba), ("fcfs1", &fcfs1), ("equal", &eq)] {
                println!(
                    "  {n:6}: delay {:.3}  tput {:.1}  denial {:.3}  mean_m {:.1}  bursts {}",
                    r.mean_delay_s,
                    r.per_cell_throughput_kbps,
                    r.denial_rate,
                    r.mean_grant_m,
                    r.bursts_completed
                );
            }
        }
    }
}
