//! Deterministic intra-frame parallelism: `SimConfig::frame_threads` is a
//! pure throughput knob. The per-mobile phase runs over fixed-size chunks
//! whose per-cell load partials fold in chunk order, so reports, decision
//! traces, and campaign artefacts must be **bit-identical** for every
//! thread count. These tests pin that invariant on the 12-cell paper-eval
//! matrix, on campaign artefacts and decision traces, and on the
//! finished-burst compaction path (frames completing several bursts at
//! once); the delivered-bits summation order is pinned by a stored hash.

use wcdma::sim::campaign::journal::fnv1a64;
use wcdma::sim::campaign::{
    builtin, campaign_csv, campaign_json, run_spec, trace_campaign, RunOptions, Scenario,
};
use wcdma::sim::{run_with_trace, SimConfig, Simulation};

/// The paper evaluation matrix (3 mixes × 2 speeds × 2 policies = 12
/// cells), quickened and further shortened — determinism needs frames in
/// flight, not statistical power.
fn paper_eval_matrix() -> Vec<Scenario> {
    let mut spec = builtin("paper-eval")
        .expect("builtin paper-eval")
        .quickened();
    spec.duration_s = 4.0;
    spec.warmup_s = 1.0;
    let scenarios = spec.expand().expect("paper-eval expands");
    assert_eq!(scenarios.len(), 12, "the paper matrix is 12 cells");
    scenarios
}

/// Full `SimReport` and full per-frame `DecisionRecord` stream equality
/// across `frame_threads` = 1/2/4 on every cell of the paper-eval matrix.
#[test]
fn paper_eval_matrix_is_bit_identical_across_frame_threads() {
    for scenario in paper_eval_matrix() {
        let (report_1t, trace_1t) = run_with_trace(scenario.cfg.with_frame_threads(1));
        assert!(
            !trace_1t.is_empty(),
            "{}: matrix cell must make decisions",
            scenario.label
        );
        for threads in [2, 4] {
            let (report, trace) = run_with_trace(scenario.cfg.with_frame_threads(threads));
            assert_eq!(
                report_1t, report,
                "{}: report differs at {threads} frame threads",
                scenario.label
            );
            assert_eq!(
                trace_1t, trace,
                "{}: decision trace differs at {threads} frame threads",
                scenario.label
            );
        }
    }
}

/// Campaign artefacts (CSV and JSON emitters) are byte-identical across
/// the `frame_threads` knob of the sharded runner.
#[test]
fn campaign_artefacts_are_byte_identical_across_frame_threads() {
    let mut spec = builtin("speed-sweep").expect("builtin").quickened();
    spec.duration_s = 4.0;
    spec.warmup_s = 1.0;
    spec.replications = 2;
    let run = |shards, frame_threads| {
        let opts = RunOptions {
            shards,
            frame_threads,
            candidates: None,
        };
        run_spec(&spec, &opts).expect("runs")
    };
    let one = run(2, 1);
    let auto = run(2, 0);
    let four = run(1, 4);
    assert_eq!(campaign_csv(&one), campaign_csv(&auto), "CSV must not move");
    assert_eq!(campaign_csv(&one), campaign_csv(&four), "CSV must not move");
    assert_eq!(
        campaign_json(&one),
        campaign_json(&auto),
        "JSON must not move"
    );
    assert_eq!(
        campaign_json(&one),
        campaign_json(&four),
        "JSON must not move"
    );
}

/// `campaign run --trace` re-runs replication 0 of every scenario under the
/// run's own options: the decision trace of the burst-stress campaign is
/// record-for-record identical at 1 and 2 frame threads (one shard, so
/// the arbitration leaves room for the second frame thread).
#[test]
fn campaign_trace_is_identical_across_frame_threads() {
    let spec = builtin("burst-stress").expect("builtin").quickened();
    let trace = |frame_threads| {
        let opts = RunOptions {
            shards: 1,
            frame_threads,
            candidates: None,
        };
        trace_campaign(&spec, &opts).expect("valid spec")
    };
    let one = trace(1);
    assert!(
        one.iter().all(|(_, records)| !records.is_empty()),
        "every burst-stress cell must make decisions"
    );
    assert_eq!(one, trace(2), "trace must not move with frame threads");
}

/// A burst-churn scenario: many data users firing small bursts, so frames
/// regularly complete several bursts at once.
fn churn_cfg() -> SimConfig {
    let mut c = SimConfig::baseline();
    c.n_voice = 10;
    c.n_data = 24;
    c.traffic.mean_burst_bits = 20_000.0;
    c.traffic.max_burst_bits = 60_000.0;
    c.traffic.mean_reading_s = 0.4;
    c.duration_s = 12.0;
    c.warmup_s = 1.0;
    c.seed = 0xC0AC7;
    c
}

/// The single-pass finished-burst compaction: completion ordering is
/// deterministic (same-seed runs replicate bit-identically) even when one
/// frame retires several bursts, and the multi-completion path is
/// actually exercised by the scenario.
#[test]
fn multi_burst_completion_frames_replicate_bit_identically() {
    let completions_per_frame = || {
        let mut sim = Simulation::new(churn_cfg());
        let frames = (churn_cfg().duration_s / 0.02).round() as usize;
        let mut multi = 0u32;
        let mut done_before = 0;
        for _ in 0..frames {
            sim.step_frame();
            let done = sim.bursts_completed();
            if done - done_before >= 2 {
                multi += 1;
            }
            done_before = done;
        }
        (multi, sim.bursts_completed(), sim.active_bursts())
    };
    let a = completions_per_frame();
    let b = completions_per_frame();
    assert_eq!(a, b, "same seed must replicate the completion stream");
    assert!(
        a.0 > 0,
        "churn scenario must hit frames completing ≥2 bursts (got {} multi-frames)",
        a.0
    );
    assert!(
        a.1 > 100,
        "churn scenario must complete many bursts: {}",
        a.1
    );

    // And the full end-of-run report is unchanged by the thread count —
    // the compaction feeds the stats accumulators in the same order.
    let one = Simulation::new(churn_cfg().with_frame_threads(1)).run();
    for threads in [2, 4] {
        let multi = Simulation::new(churn_cfg().with_frame_threads(threads)).run();
        assert_eq!(
            one, multi,
            "churn report differs at {threads} frame threads"
        );
    }
}

/// FNV-1a over `SimReport::encode_record` of [`delivery_cfg`]. The
/// delivered-bits total is summed per 32-burst chunk of the active list,
/// and each chunk's sum is added to the total in chunk order; any other
/// association of that sum moves the throughput bits, and with them this
/// hash.
const GOLDEN_DELIVERY_HASH: u64 = 0x6c52_6f78_451f_8212;

/// A short-burst web scenario whose active-burst list averages more than
/// one 32-burst delivery chunk.
fn delivery_cfg() -> SimConfig {
    let mut c = SimConfig::baseline();
    c.n_voice = 100;
    c.n_data = 100;
    c.traffic.mean_burst_bits = 20_000.0;
    c.traffic.max_burst_bits = 60_000.0;
    c.traffic.mean_reading_s = 0.3;
    c.duration_s = 4.0;
    c.warmup_s = 1.0;
    c.seed = 0xDE11;
    c
}

/// The delivered-bits summation association, pinned by value at every
/// frame-thread count (CI also runs it under `-C target-cpu=x86-64-v3`).
#[test]
fn delivery_sum_reproduces_committed_golden_hash() {
    let cfg = delivery_cfg();
    let mut sim = Simulation::new(cfg.clone());
    let multi_chunk = (0..cfg.n_frames()).any(|_| {
        sim.step_frame();
        sim.active_bursts() > 32
    });
    assert!(
        multi_chunk,
        "the active list must span several delivery chunks"
    );
    for threads in [1, 2, 4] {
        let report = Simulation::new(cfg.with_frame_threads(threads)).run();
        let hash = fnv1a64(report.encode_record().as_bytes());
        assert_eq!(
            hash, GOLDEN_DELIVERY_HASH,
            "delivered-bits sum drifted at {threads} frame threads: hashed to {hash:#018x}"
        );
    }
}
