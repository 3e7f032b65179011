//! The experiment drivers, pinned by value: every driver in
//! `wcdma::sim::experiments` runs a small sweep, and an FNV-1a hash over
//! each row's parameters and the raw words of every cross-replication
//! accumulator (`ReplicationStats::welfords`, via `Welford::to_raw_parts`)
//! must reproduce a committed value bit for bit. This pins the numbers
//! `examples/full_evaluation.rs` renders, whatever machinery runs the sweep
//! underneath.

use wcdma::admission::{AdmissionPolicy, BoxedPolicy, Fcfs, JabaSd};
use wcdma::mac::LinkDir;
use wcdma::math::stats::Welford;
use wcdma::sim::experiments::{
    capacity_at_delay_target, coverage_vs_radius, csi_robustness, delay_vs_load, kappa_ablation,
    objective_tradeoff, phy_ablation, speed_sweep, voice_load_sweep, CapacityMetric,
};
use wcdma::sim::{ReplicationStats, SimConfig};

/// FNV-1a over every driver's rows, in the order [`experiments_hash`]
/// runs them.
const GOLDEN_EXPERIMENTS_HASH: u64 = 0xc52f_f24a_000f_92ec;

/// Replications per sweep point.
const REPS: usize = 2;

/// FNV-1a over bytes: strings as UTF-8, numbers as little-endian `u64`
/// words (floats by their IEEE bits).
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        for byte in s.bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn stats(&mut self, stats: &ReplicationStats) {
        for w in stats.welfords() {
            for part in Welford::to_raw_parts(w) {
                self.word(part);
            }
        }
    }
}

fn base() -> SimConfig {
    let mut c = SimConfig::baseline();
    c.n_voice = 6;
    c.n_data = 3;
    c.duration_s = 6.0;
    c.warmup_s = 1.0;
    c
}

fn policies() -> Vec<(&'static str, BoxedPolicy)> {
    vec![
        ("jaba-sd-j2", JabaSd::default_j2().into_boxed()),
        ("fcfs", Fcfs::unlimited().into_boxed()),
    ]
}

fn experiments_hash() -> u64 {
    let base = base();
    let pols = policies();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);

    let rows = delay_vs_load(&base, LinkDir::Forward, &[2, 4], &pols, REPS);
    assert_eq!(rows.len(), 4);
    for r in &rows {
        h.str(&r.policy);
        h.word(r.n_data as u64);
        h.stats(&r.stats);
    }

    for metric in [CapacityMetric::TotalDelay, CapacityMetric::QueueDelay] {
        let rows = capacity_at_delay_target(
            &base,
            LinkDir::Forward,
            metric,
            2.0,
            &[2, 4, 8],
            &pols,
            REPS,
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            h.str(&r.policy);
            h.word(r.capacity as u64);
            h.f64(r.delay_at_capacity_s);
        }
    }

    let rows = coverage_vs_radius(&base, LinkDir::Forward, &[800.0, 1200.0], REPS);
    assert_eq!(rows.len(), 2);
    for r in &rows {
        h.f64(r.radius_m);
        h.stats(&r.stats);
    }

    let rows = phy_ablation(&base, LinkDir::Reverse, &[2], &pols, REPS);
    assert_eq!(rows.len(), 4);
    for r in &rows {
        h.str(&r.policy);
        h.str(&format!("{:?}", r.phy));
        h.word(r.n_data as u64);
        h.stats(&r.stats);
    }

    let rows = objective_tradeoff(&base, LinkDir::Forward, &[0.0, 1.0], REPS);
    assert_eq!(rows.len(), 2);
    for r in &rows {
        h.f64(r.lambda);
        h.stats(&r.stats);
    }

    let rows = csi_robustness(&base, LinkDir::Forward, &[0.0, 3.0], &[0, 5], REPS);
    assert_eq!(rows.len(), 4);
    for r in &rows {
        h.f64(r.sigma_db);
        h.word(r.delay_frames as u64);
        h.stats(&r.stats);
    }

    let rows = speed_sweep(&base, LinkDir::Forward, &[3.0, 120.0], REPS);
    assert_eq!(rows.len(), 2);
    for r in &rows {
        h.f64(r.speed_kmh);
        h.stats(&r.stats);
    }

    let rows = voice_load_sweep(&base, LinkDir::Forward, &[4, 12], REPS);
    assert_eq!(rows.len(), 2);
    for r in &rows {
        h.word(r.n_voice as u64);
        h.stats(&r.stats);
    }

    let rows = kappa_ablation(&base, &[0.0, 4.0], REPS);
    assert_eq!(rows.len(), 2);
    for r in &rows {
        h.f64(r.kappa_db);
        h.stats(&r.stats);
    }

    h.0
}

#[test]
fn experiment_drivers_reproduce_the_golden_hash() {
    let hash = experiments_hash();
    assert_eq!(
        hash, GOLDEN_EXPERIMENTS_HASH,
        "experiment driver results drifted: hashed to {hash:#018x}"
    );
}
