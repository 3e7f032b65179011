//! Warm-started scheduling is a pure optimisation: the scheduler's
//! persistent per-direction workspaces must never change a single bit of
//! any run. `GOLDEN_POLICY_HASH` (`tests/policy_api.rs`) pins the warm
//! runs of the 12-cell paper-eval matrix, and
//! `tests/frame_threads.rs` checks that matrix for full `SimReport` plus
//! per-frame `DecisionRecord` stream equality across `frame_threads`.
//! These tests check that the optimisation is actually engaged (warm-hit
//! rate) and that the trace sink reports the scheduler's counters.

use wcdma::sim::{DecisionLog, SimConfig, Simulation};

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
/// warm workspaces absorb at least half the solves, and every round runs
/// the policy.
#[test]
fn warm_start_hit_rate_meets_the_bar() {
    let log = DecisionLog::new();
    let mut sim = Simulation::new(busy_cfg());
    sim.attach_trace(Box::new(log.clone()));
    let report = sim.run();
    let warm = log.sched_stats();
    assert_eq!(
        report,
        Simulation::new(busy_cfg()).run(),
        "stats must not perturb the run"
    );
    assert!(
        warm.rounds > 100,
        "busy scenario must schedule a lot: {warm:?}"
    );
    assert!(
        warm.warm_hits * 2 >= warm.solves,
        "warm-start hit rate must reach 50%: {warm:?}"
    );
    assert_eq!(warm.solves, warm.rounds, "every round runs the policy");
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
