//! Simulation statistics: streaming accumulators, the end-of-run report,
//! and the streaming cross-replication summary.

use wcdma_math::stats::{Histogram, P2Quantile, Welford};

/// Streaming metric accumulators filled during a run.
#[derive(Debug)]
pub struct SimStats {
    /// Per-burst total delay: arrival → last bit (s).
    pub burst_delay: Welford,
    /// P95 of burst delay.
    pub burst_delay_p95: P2Quantile,
    /// Per-burst queueing delay: arrival → transmission start (s).
    pub queue_delay: Welford,
    /// Granted spreading-gain ratios m.
    pub grant_m: Welford,
    /// Histogram of granted m (1..=16).
    pub grant_hist: Histogram,
    /// δβ̄ at grant time.
    pub grant_delta_beta: Welford,
    /// Bits delivered inside the stats window, per completed+partial burst.
    pub bits_delivered: f64,
    /// Number of scheduling rounds where ≥1 request was denied.
    pub denial_rounds: u64,
    /// Number of scheduling rounds with pending requests.
    pub request_rounds: u64,
    /// Bursts completed inside the stats window.
    pub bursts_completed: u64,
    /// Forward-overload (clamp) frame events.
    pub overload_events: u64,
    /// Cell-frame samples in the stats window (cells × frames × both
    /// directions): the denominator of the observed outage rate.
    pub outage_samples: u64,
    /// Cell-frame samples that broke the admissible region's contract —
    /// forward power demand past `P_max` (clamp engaged) or reverse
    /// received power past `L_max` — the QoS-hold numerator.
    pub outage_events: u64,
    /// MAC setup delays incurred (s).
    pub setup_delay: Welford,
    /// Window length (s) the rates are normalised by.
    pub window_s: f64,
}

impl SimStats {
    /// Creates empty accumulators.
    pub fn new() -> Self {
        Self {
            burst_delay: Welford::new(),
            burst_delay_p95: P2Quantile::new(0.95),
            queue_delay: Welford::new(),
            grant_m: Welford::new(),
            grant_hist: Histogram::new(0.5, 16.5, 16),
            grant_delta_beta: Welford::new(),
            bits_delivered: 0.0,
            denial_rounds: 0,
            request_rounds: 0,
            bursts_completed: 0,
            overload_events: 0,
            outage_samples: 0,
            outage_events: 0,
            setup_delay: Welford::new(),
            window_s: 0.0,
        }
    }

    /// Finalises into a report.
    pub fn report(&self, n_data: usize, n_cells: usize) -> SimReport {
        let window = self.window_s.max(1e-9);
        SimReport {
            mean_delay_s: self.burst_delay.mean(),
            p95_delay_s: self.burst_delay_p95.value(),
            max_delay_s: if self.burst_delay.count() > 0 {
                self.burst_delay.max()
            } else {
                0.0
            },
            mean_queue_delay_s: self.queue_delay.mean(),
            mean_setup_delay_s: self.setup_delay.mean(),
            bursts_completed: self.bursts_completed,
            throughput_kbps: self.bits_delivered / window / 1000.0,
            per_cell_throughput_kbps: self.bits_delivered / window / 1000.0 / n_cells as f64,
            per_user_throughput_kbps: if n_data > 0 {
                self.bits_delivered / window / 1000.0 / n_data as f64
            } else {
                0.0
            },
            mean_grant_m: self.grant_m.mean(),
            mean_delta_beta: self.grant_delta_beta.mean(),
            denial_rate: if self.request_rounds > 0 {
                self.denial_rounds as f64 / self.request_rounds as f64
            } else {
                0.0
            },
            overload_events: self.overload_events,
            outage_rate: if self.outage_samples > 0 {
                self.outage_events as f64 / self.outage_samples as f64
            } else {
                0.0
            },
            grant_hist: self.grant_hist.bins().to_vec(),
        }
    }
}

impl Default for SimStats {
    fn default() -> Self {
        Self::new()
    }
}

/// End-of-run summary of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Mean burst delay (s) — the paper's "average packet delay".
    pub mean_delay_s: f64,
    /// 95th-percentile burst delay (s).
    pub p95_delay_s: f64,
    /// Worst burst delay (s).
    pub max_delay_s: f64,
    /// Mean queueing (pre-grant) delay (s).
    pub mean_queue_delay_s: f64,
    /// Mean MAC setup delay (s).
    pub mean_setup_delay_s: f64,
    /// Bursts completed in the window.
    pub bursts_completed: u64,
    /// Aggregate data throughput (kbit/s).
    pub throughput_kbps: f64,
    /// Throughput per cell (kbit/s).
    pub per_cell_throughput_kbps: f64,
    /// Throughput per data user (kbit/s).
    pub per_user_throughput_kbps: f64,
    /// Mean granted m.
    pub mean_grant_m: f64,
    /// Mean δβ̄ at grant time.
    pub mean_delta_beta: f64,
    /// Fraction of scheduling rounds that denied at least one request.
    pub denial_rate: f64,
    /// Forward-overload clamp events.
    pub overload_events: u64,
    /// Observed outage rate: fraction of cell-frame samples that broke
    /// the admissible region's contract (forward `P_max` clamp or reverse
    /// power past `L_max`) — the QoS-hold metric of the robustness
    /// campaigns.
    pub outage_rate: f64,
    /// Histogram of granted m values (16 bins for m = 1..=16).
    pub grant_hist: Vec<u64>,
}

impl SimReport {
    /// Serializes the report as one whitespace-separated record with every
    /// float as its raw IEEE-754 bit pattern (hex) and the grant histogram
    /// comma-joined. The campaign checkpoint journal persists completed
    /// replications through this; decimal formatting would round and break
    /// the byte-identical-resume contract.
    pub fn encode_record(&self) -> String {
        let hist: Vec<String> = self.grant_hist.iter().map(|b| b.to_string()).collect();
        let hist = if hist.is_empty() {
            "-".to_string()
        } else {
            hist.join(",")
        };
        format!(
            "{:016x} {:016x} {:016x} {:016x} {:016x} {} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {} {:016x} {}",
            self.mean_delay_s.to_bits(),
            self.p95_delay_s.to_bits(),
            self.max_delay_s.to_bits(),
            self.mean_queue_delay_s.to_bits(),
            self.mean_setup_delay_s.to_bits(),
            self.bursts_completed,
            self.throughput_kbps.to_bits(),
            self.per_cell_throughput_kbps.to_bits(),
            self.per_user_throughput_kbps.to_bits(),
            self.mean_grant_m.to_bits(),
            self.mean_delta_beta.to_bits(),
            self.denial_rate.to_bits(),
            self.overload_events,
            self.outage_rate.to_bits(),
            hist
        )
    }

    /// Parses an [`encode_record`](Self::encode_record) string back into a
    /// report. The round-trip is bit-exact. Errors describe the first bad
    /// field; they never panic, so a corrupted journal surfaces as a clear
    /// message naming the offending token.
    pub fn decode_record(record: &str) -> Result<SimReport, String> {
        let toks: Vec<&str> = record.split_ascii_whitespace().collect();
        if toks.len() != 15 {
            return Err(format!(
                "truncated report record: expected 15 fields, found {}",
                toks.len()
            ));
        }
        let f = |i: usize, what: &str| -> Result<f64, String> {
            let bits = u64::from_str_radix(toks[i], 16)
                .map_err(|_| format!("bad {what} bits {:?} in report record", toks[i]))?;
            Ok(f64::from_bits(bits))
        };
        let u = |i: usize, what: &str| -> Result<u64, String> {
            toks[i]
                .parse::<u64>()
                .map_err(|_| format!("bad {what} count {:?} in report record", toks[i]))
        };
        let grant_hist = if toks[14] == "-" {
            Vec::new()
        } else {
            toks[14]
                .split(',')
                .map(|b| {
                    b.parse::<u64>()
                        .map_err(|_| format!("bad grant_hist bin {b:?} in report record"))
                })
                .collect::<Result<Vec<u64>, String>>()?
        };
        let mean_delay_s = f(0, "mean_delay_s")?;
        let p95_delay_s = f(1, "p95_delay_s")?;
        let max_delay_s = f(2, "max_delay_s")?;
        let mean_queue_delay_s = f(3, "mean_queue_delay_s")?;
        let mean_setup_delay_s = f(4, "mean_setup_delay_s")?;
        let bursts_completed = u(5, "bursts_completed")?;
        let throughput_kbps = f(6, "throughput_kbps")?;
        let per_cell_throughput_kbps = f(7, "per_cell_throughput_kbps")?;
        let per_user_throughput_kbps = f(8, "per_user_throughput_kbps")?;
        let mean_grant_m = f(9, "mean_grant_m")?;
        let mean_delta_beta = f(10, "mean_delta_beta")?;
        let denial_rate = f(11, "denial_rate")?;
        let overload_events = u(12, "overload_events")?;
        let outage_rate = f(13, "outage_rate")?;
        Ok(SimReport {
            mean_delay_s,
            p95_delay_s,
            max_delay_s,
            mean_queue_delay_s,
            mean_setup_delay_s,
            bursts_completed,
            throughput_kbps,
            per_cell_throughput_kbps,
            per_user_throughput_kbps,
            mean_grant_m,
            mean_delta_beta,
            denial_rate,
            overload_events,
            outage_rate,
            grant_hist,
        })
    }
}

/// Streaming per-metric statistics over independent replications.
///
/// This is the single home of the cross-replication mean/CI math: the
/// campaign runner and the experiment rows all fold their [`SimReport`]s
/// through it, one Welford accumulator per metric, so adding a metric or
/// changing the CI method happens in exactly one place. Pushing reports in replication order makes the result
/// bit-identical regardless of how the replications were scheduled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicationStats {
    /// Mean burst delay (s) across replications.
    pub mean_delay_s: Welford,
    /// Per-replication p95 burst delay (s).
    pub p95_delay_s: Welford,
    /// Mean queueing (pre-grant) delay (s).
    pub mean_queue_delay_s: Welford,
    /// Mean MAC setup delay (s).
    pub mean_setup_delay_s: Welford,
    /// Aggregate throughput (kbit/s).
    pub throughput_kbps: Welford,
    /// Per-cell throughput (kbit/s).
    pub per_cell_throughput_kbps: Welford,
    /// Per-user throughput (kbit/s).
    pub per_user_throughput_kbps: Welford,
    /// Mean granted m.
    pub mean_grant_m: Welford,
    /// Denial rate.
    pub denial_rate: Welford,
    /// Observed outage (SIR-violation) rate.
    pub outage_rate: Welford,
    /// Bursts completed per replication.
    pub bursts_completed: Welford,
}

impl ReplicationStats {
    /// Creates empty accumulators.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one replication's report into every metric accumulator.
    pub fn push(&mut self, r: &SimReport) {
        self.mean_delay_s.push(r.mean_delay_s);
        self.p95_delay_s.push(r.p95_delay_s);
        self.mean_queue_delay_s.push(r.mean_queue_delay_s);
        self.mean_setup_delay_s.push(r.mean_setup_delay_s);
        self.throughput_kbps.push(r.throughput_kbps);
        self.per_cell_throughput_kbps
            .push(r.per_cell_throughput_kbps);
        self.per_user_throughput_kbps
            .push(r.per_user_throughput_kbps);
        self.mean_grant_m.push(r.mean_grant_m);
        self.denial_rate.push(r.denial_rate);
        self.outage_rate.push(r.outage_rate);
        self.bursts_completed.push(r.bursts_completed as f64);
    }

    /// Number of replications folded in.
    pub fn n(&self) -> u64 {
        self.mean_delay_s.count()
    }

    /// Every metric accumulator, in declaration order. The campaign
    /// checkpoint journal snapshots the full fold state through this (via
    /// [`Welford::to_raw_parts`]) so a resumed or merged fold can be
    /// verified bit-identical to the fold that streamed the artefact row.
    pub fn welfords(&self) -> [&Welford; 11] {
        [
            &self.mean_delay_s,
            &self.p95_delay_s,
            &self.mean_queue_delay_s,
            &self.mean_setup_delay_s,
            &self.throughput_kbps,
            &self.per_cell_throughput_kbps,
            &self.per_user_throughput_kbps,
            &self.mean_grant_m,
            &self.denial_rate,
            &self.outage_rate,
            &self.bursts_completed,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcdma_math::stats::MeanCi;

    #[test]
    fn report_normalises_by_window() {
        let mut s = SimStats::new();
        s.bits_delivered = 1_000_000.0;
        s.window_s = 10.0;
        let r = s.report(4, 7);
        assert!((r.throughput_kbps - 100.0).abs() < 1e-9);
        assert!((r.per_cell_throughput_kbps - 100.0 / 7.0).abs() < 1e-9);
        assert!((r.per_user_throughput_kbps - 25.0).abs() < 1e-9);
    }

    #[test]
    fn denial_rate_guards_zero_rounds() {
        let s = SimStats::new();
        let r = s.report(0, 1);
        assert_eq!(r.denial_rate, 0.0);
        assert_eq!(r.per_user_throughput_kbps, 0.0);
        assert_eq!(r.max_delay_s, 0.0);
    }

    #[test]
    fn replication_stats_match_from_samples() {
        // Two synthetic reports; the streaming fold must agree with the
        // old collect-then-MeanCi::from_samples path bit for bit.
        let mk = |delay: f64, tput: f64| {
            let mut s = SimStats::new();
            s.burst_delay.push(delay);
            s.burst_delay_p95.push(delay);
            s.bits_delivered = tput;
            s.window_s = 1.0;
            s.report(2, 7)
        };
        let reports = [mk(0.1, 50_000.0), mk(0.3, 90_000.0)];
        let mut rs = ReplicationStats::new();
        for r in &reports {
            rs.push(r);
        }
        assert_eq!(rs.n(), 2);
        let xs: Vec<f64> = reports.iter().map(|r| r.mean_delay_s).collect();
        assert_eq!(
            MeanCi::from_welford(&rs.mean_delay_s),
            MeanCi::from_samples(&xs)
        );
        let ts: Vec<f64> = reports.iter().map(|r| r.per_cell_throughput_kbps).collect();
        assert_eq!(
            MeanCi::from_welford(&rs.per_cell_throughput_kbps),
            MeanCi::from_samples(&ts)
        );
    }

    #[test]
    fn report_record_round_trips_bit_exactly() {
        let mut s = SimStats::new();
        for d in [0.017, 0.23, 1.9] {
            s.burst_delay.push(d);
            s.burst_delay_p95.push(d);
            s.queue_delay.push(d / 3.0);
            s.grant_m.push(4.0);
            s.grant_hist.push(4.0);
        }
        s.bits_delivered = 123_456.0;
        s.bursts_completed = 3;
        s.denial_rounds = 1;
        s.request_rounds = 7;
        s.window_s = 5.0;
        let report = s.report(4, 7);
        let record = report.encode_record();
        let back = SimReport::decode_record(&record).expect("round-trip decode");
        assert_eq!(back, report, "decode must be bit-exact");
        // Non-finite values survive too (hex bit patterns, not decimal).
        let mut odd = report.clone();
        odd.p95_delay_s = f64::NAN;
        odd.mean_delta_beta = f64::NEG_INFINITY;
        let back = SimReport::decode_record(&odd.encode_record()).unwrap();
        assert!(back.p95_delay_s.is_nan());
        assert_eq!(back.mean_delta_beta, f64::NEG_INFINITY);
        assert_eq!(back.grant_hist, odd.grant_hist);
    }

    #[test]
    fn report_record_rejects_corruption_with_clear_errors() {
        let report = SimStats::new().report(1, 1);
        let record = report.encode_record();
        // Truncation (torn write mid-line).
        let torn = &record[..record.len() / 2];
        let err = SimReport::decode_record(torn).expect_err("torn record");
        assert!(err.contains("truncated") || err.contains("bad"), "{err}");
        // Field garbage.
        let err = SimReport::decode_record(&record.replace(' ', "  q ")).expect_err("garbage");
        assert!(err.contains("report record"), "{err}");
        // Trailing garbage.
        let err = SimReport::decode_record(&format!("{record} extra")).expect_err("trailing");
        assert!(err.contains("15 fields"), "{err}");
        // Empty histogram encodes as `-` and decodes back to empty.
        let mut empty = report.clone();
        empty.grant_hist = Vec::new();
        let back = SimReport::decode_record(&empty.encode_record()).unwrap();
        assert!(back.grant_hist.is_empty());
    }

    #[test]
    fn outage_rate_normalises_by_samples() {
        let mut s = SimStats::new();
        s.outage_samples = 200;
        s.outage_events = 7;
        s.window_s = 1.0;
        let r = s.report(1, 1);
        assert!((r.outage_rate - 0.035).abs() < 1e-12);
        // No samples ⇒ rate 0, not NaN.
        assert_eq!(SimStats::new().report(1, 1).outage_rate, 0.0);
        // And it survives the journal record round-trip bit-exactly.
        let back = SimReport::decode_record(&r.encode_record()).unwrap();
        assert_eq!(back.outage_rate.to_bits(), r.outage_rate.to_bits());
    }

    #[test]
    fn welford_accessors_cover_every_metric() {
        let mut rs = ReplicationStats::new();
        let mut s = SimStats::new();
        s.burst_delay.push(0.5);
        s.burst_delay_p95.push(0.5);
        s.bits_delivered = 1000.0;
        s.window_s = 1.0;
        s.bursts_completed = 1;
        rs.push(&s.report(2, 7));
        for w in rs.welfords() {
            assert_eq!(w.count(), 1, "every accumulator sees every push");
        }
    }

    #[test]
    fn delay_accumulators_flow_through() {
        let mut s = SimStats::new();
        for d in [0.1, 0.2, 0.3] {
            s.burst_delay.push(d);
            s.burst_delay_p95.push(d);
        }
        s.bursts_completed = 3;
        s.window_s = 1.0;
        let r = s.report(1, 1);
        assert!((r.mean_delay_s - 0.2).abs() < 1e-12);
        assert_eq!(r.bursts_completed, 3);
        assert!((r.max_delay_s - 0.3).abs() < 1e-12);
    }
}
