//! Warm-started scheduling is a pure optimisation: the scheduler's
//! persistent per-direction workspaces must never change a single bit of
//! any run. These tests pin that invariant on the 12-cell paper-eval matrix —
//! full `SimReport` plus full per-frame `DecisionRecord` stream equality
//! between warm (default) and cold (per-round reset) scheduling, and
//! across `frame_threads` in both modes — and check the optimisation is
//! actually engaged (warm-hit rate).

use wcdma::sim::campaign::{builtin, Scenario};
use wcdma::sim::{run_with_trace, DecisionLog, SimConfig, Simulation};

/// The paper evaluation matrix (3 mixes × 2 speeds × 2 policies = 12
/// cells), quickened and shortened — bit-identity needs scheduling rounds
/// in flight, not statistical power.
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

/// Warm vs cold scheduling: full report and full decision stream must be
/// bit-identical on every cell of the paper-eval matrix.
#[test]
fn paper_eval_matrix_is_bit_identical_warm_vs_cold() {
    for scenario in paper_eval_matrix() {
        let (report_warm, trace_warm) = run_with_trace(scenario.cfg.clone());
        let (report_cold, trace_cold) = run_with_trace(scenario.cfg.with_cold_sched(true));
        assert!(
            !trace_warm.is_empty(),
            "{}: matrix cell must make decisions",
            scenario.label
        );
        assert_eq!(
            report_warm, report_cold,
            "{}: warm-started scheduling changed the report",
            scenario.label
        );
        assert_eq!(
            trace_warm, trace_cold,
            "{}: warm-started scheduling changed the decision stream",
            scenario.label
        );
    }
}

/// Warm scheduling composes with intra-frame parallelism: with both knobs
/// on (warm workspaces + multiple frame threads), every cell still matches
/// the cold single-threaded reference bit for bit.
#[test]
fn warm_parallel_matches_cold_serial_on_the_matrix() {
    for scenario in paper_eval_matrix() {
        let reference = run_with_trace(scenario.cfg.with_cold_sched(true).with_frame_threads(1));
        for threads in [2, 4] {
            let combined = run_with_trace(scenario.cfg.with_frame_threads(threads));
            assert_eq!(
                reference, combined,
                "{}: warm + {threads} frame threads drifted from the cold serial run",
                scenario.label
            );
        }
    }
}

/// A scheduling-heavy scenario: many data users with short bursts and
/// short reading times, so the request queue almost always has work.
fn busy_cfg() -> SimConfig {
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

/// The optimisation is actually engaged: on a scheduling-heavy run the
/// warm workspaces absorb at least half the solves and the cold run none —
/// while both solve every round and produce the same simulation output.
#[test]
fn warm_start_hit_rate_meets_the_bar() {
    let (report_warm, warm) = Simulation::new(busy_cfg()).run_with_sched_stats();
    let (report_cold, cold) =
        Simulation::new(busy_cfg().with_cold_sched(true)).run_with_sched_stats();
    assert_eq!(report_warm, report_cold, "stats must not perturb the run");
    assert_eq!(warm.rounds, cold.rounds, "same rounds either way");
    assert!(
        warm.rounds > 100,
        "busy scenario must schedule a lot: {warm:?}"
    );
    assert_eq!(cold.solves, cold.rounds, "cold mode solves every round");
    assert_eq!(cold.warm_hits, 0, "cold mode cannot warm-start");
    assert!(
        warm.warm_hits * 2 >= warm.solves,
        "warm-start hit rate must reach 50%: {warm:?}"
    );
    assert_eq!(warm.solves, warm.rounds, "warm mode solves every round");
    assert!(warm.bb_nodes > 0, "JABA-SD runs branch and bound: {warm:?}");
}

/// The trace sink surfaces the statistics: `DecisionLog::sched_stats`
/// carries the scheduler's cumulative counters alongside the decisions.
#[test]
fn decision_log_reports_sched_stats() {
    let log = DecisionLog::new();
    let mut sim = Simulation::new(busy_cfg());
    sim.attach_trace(Box::new(log.clone()));
    for _ in 0..200 {
        sim.step_frame();
    }
    let via_log = log.sched_stats();
    let via_sim = sim.sched_stats();
    assert_eq!(via_log, via_sim, "log mirrors the scheduler's counters");
    assert!(
        via_log.rounds > 0,
        "busy scenario must schedule: {via_log:?}"
    );
}
