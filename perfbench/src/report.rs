//! Metric names, summary statistics, and the JSON result line.

use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics printed by an untraced run, with their units.
/// `peak_rss_mb` is measured by `run.py` around the whole process.
pub const END_TO_END: &[(&str, &str)] = &[
    ("frames_per_s", "frames/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p99", "ms"),
    ("cells_per_s", "cells/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics printed by a traced run, with their units. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("geo.mobility_us", "us"),
    ("geo.frame_share", "fraction"),
    ("cdma.move_apply_us", "us"),
    ("cdma.step_ms_p50", "ms"),
    ("cdma.step_ms_p99", "ms"),
    ("cdma.step_ms_p50_1t", "ms"),
    ("cdma.step_speedup_vs_1t", "ratio"),
    ("cdma.link_cells", "count"),
    ("cdma.ns_per_link_cell", "ns"),
    ("cdma.refresh_frames", "count"),
    ("cdma.refresh_ms", "ms"),
    ("cdma.frame_share", "fraction"),
    ("math.par.pool_run_us", "us"),
    ("admission.rounds", "count"),
    ("admission.requests_per_round", "count"),
    ("admission.grant_ratio", "fraction"),
    ("admission.warm_hit_ratio", "fraction"),
    ("admission.skipped_identical", "count"),
    ("admission.cache_hit_ratio", "fraction"),
    ("admission.schedule_us_p50", "us"),
    ("admission.schedule_us_p99", "us"),
    ("admission.schedule_us_per_frame", "us"),
    ("admission.replay_match_ratio", "fraction"),
    ("admission.frame_share", "fraction"),
    ("ilp.bb_nodes_per_round_p50", "count"),
    ("ilp.bb_nodes_per_round_p99", "count"),
    ("ilp.bb_nodes_total", "count"),
    ("sim.engine.frame_us", "us"),
    ("sim.engine.residual_us", "us"),
    ("sim.engine.residual_share", "fraction"),
    ("sim.engine.traced_frames", "count"),
    ("sim.engine.active_bursts_mean", "count"),
    ("sim.engine.bursts_completed", "count"),
    ("sim.campaign.cell_s_p50", "s"),
    ("sim.campaign.cell_s_p90", "s"),
    ("sim.campaign.worker_busy_frac", "fraction"),
    ("sim.campaign.journal_append_us", "us"),
    ("sim.campaign.journal_bytes", "bytes"),
    ("sim.campaign.journal_lines", "count"),
    ("sim.campaign.replay_ms", "ms"),
    ("sim.campaign.emit_ms", "ms"),
    ("sim.campaign.trace_s", "s"),
    ("sim.campaign.trace_cells", "count"),
    ("cli.startup_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.mirror_exact", "flag"),
];

/// The outcome of one workload run: metric values by name, operation
/// counts, and free-form facts for the human-readable report.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Renders the result line for the metric table `names`: every listed
    /// metric appears, in order; one the run did not set reads 0. A
    /// non-finite value cannot be written as JSON, so it reads 0 and
    /// counts as a failure.
    pub fn to_json(&self, names: &[(&str, &str)]) -> String {
        let mut failed = self.failed;
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let mut v = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v);
            if !v.is_finite() {
                failed += 1;
                v = 0.0;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        let mut info = String::new();
        for (i, (k, v)) in self.info.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(info, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}, \"info\": {{{info}}}}}",
            failed == 0,
            self.attempted.max(1),
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a 64, the repository's own fingerprint hash, over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
