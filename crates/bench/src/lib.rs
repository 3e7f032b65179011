//! Shared helpers for the experiment benches.
//!
//! Every bench in this crate does two things:
//!
//! 1. **regenerates its experiment's table/series** (the rows the paper's
//!    figure or table would contain) and prints it — this is the
//!    reproduction artefact recorded in EXPERIMENTS.md;
//! 2. registers Criterion timings on the computational kernel behind the
//!    experiment, so `cargo bench` also tracks the cost of the machinery.

#![forbid(unsafe_code)]

use wcdma_sim::SimConfig;

/// Quick experiment base profile: 7-cell system, 20 s runs, tuned into the
/// *contended* regime (tight 12 W forward budget, 100 voice users, heavy
/// web bursts) where the admission policies genuinely diverge — fast enough
/// that a full `cargo bench` regenerates every experiment in minutes.
pub fn quick_base() -> SimConfig {
    let mut c = SimConfig::baseline();
    c.cdma.max_bs_power_w = 12.0;
    c.n_voice = 100;
    c.n_data = 16;
    c.traffic.mean_burst_bits = 480_000.0;
    c.traffic.mean_reading_s = 2.0;
    c.duration_s = 20.0;
    c.warmup_s = 4.0;
    c.seed = 0xBE9C;
    c
}

/// Prints a named experiment banner.
pub fn banner(id: &str, what: &str) {
    println!("\n================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}
