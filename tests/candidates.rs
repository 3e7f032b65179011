//! Candidate cell lists at the simulation layer: `SimConfig::candidate_k`
//! culls each mobile's per-frame cell loop to its K nearest cells
//! (refreshed every `candidate_refresh` frames). The contract pinned here
//! (see `docs/DETERMINISM.md`):
//!
//! - `candidate_k = 0` (the default) and `candidate_k = n_cells` are the
//!   *exact* model — bit-identical to each other, because the culled and
//!   unculled paths are the same code.
//! - Culling (`0 < K < n_cells`) changes results — it is a physics
//!   approximation — but stays deterministic and composes with the
//!   intra-frame thread knob: the report is bit-identical for every
//!   `frame_threads` value.
//! - Invalid knob combinations are rejected by `SimConfig::validate`.

use wcdma::math::mix_seed;
use wcdma::sim::campaign::{
    run_spec_threads_candidates, sched_stats_campaign, trace_campaign, ScenarioSpec,
};
use wcdma::sim::{run_with_trace, SimConfig, Simulation};

/// A short scenario with enough mobiles that every cell sees traffic and
/// enough frames that active sets, hand-offs, and bursts all cycle.
fn cfg() -> SimConfig {
    let mut c = SimConfig::baseline();
    c.n_voice = 160;
    c.n_data = 24;
    c.duration_s = 4.0;
    c.warmup_s = 1.0;
    c.seed = 0xCAFE;
    c
}

/// `candidate_k = n_cells` (and any larger K, which clamps) must reproduce
/// the `candidate_k = 0` exact run bit for bit, including the decision
/// trace — the identity candidate list is the same code path, not a
/// parallel implementation that could drift.
#[test]
fn full_candidate_list_matches_exact_run_bit_for_bit() {
    let (exact_report, exact_trace) = run_with_trace(cfg());
    assert!(!exact_trace.is_empty(), "scenario must make decisions");
    // Baseline layout is rings = 1 ⇒ 7 cells; 99 clamps to 7.
    for k in [7, 99] {
        let (report, trace) = run_with_trace(cfg().with_candidates(k, 8));
        assert_eq!(exact_report, report, "K = {k} must be exact");
        assert_eq!(exact_trace, trace, "K = {k} trace must be exact");
    }
    // The refresh cadence is irrelevant while the list is the identity.
    let (report, _) = run_with_trace(cfg().with_candidates(7, 3));
    assert_eq!(
        exact_report, report,
        "cadence must not matter at K = n_cells"
    );
}

/// Culling changes the numbers (it drops far-cell interference terms) but
/// the run stays deterministic: an identical replay reproduces the report
/// and trace bit for bit.
#[test]
fn culled_run_is_deterministic_and_differs_from_exact() {
    let culled = cfg().with_candidates(4, 8);
    let (r1, t1) = run_with_trace(culled.clone());
    let (r2, t2) = run_with_trace(culled);
    assert_eq!(r1, r2, "culled replay must be bit-identical");
    assert_eq!(t1, t2, "culled trace replay must be bit-identical");
    let (exact, _) = run_with_trace(cfg());
    assert_ne!(exact, r1, "K = 4 of 7 cells must actually change results");
}

/// Culling composes with deterministic intra-frame parallelism: for a
/// fixed (K, cadence), the report is invariant in `frame_threads`.
#[test]
fn culling_is_frame_thread_invariant() {
    let base = cfg().with_candidates(4, 8);
    let reference = Simulation::new(base.clone().with_frame_threads(1)).run();
    for threads in [2, 4] {
        let report = Simulation::new(base.clone().with_frame_threads(threads)).run();
        assert_eq!(
            reference, report,
            "culled run must be bit-identical at {threads} frame threads"
        );
    }
}

/// `campaign run --trace` and `--sched-stats` re-run replication 0 of every
/// cell: under a candidate override they must re-run the *culled*
/// configuration the campaign itself ran, not the exact one.
#[test]
fn campaign_trace_and_sched_stats_rerun_the_culled_replication() {
    let spec = ScenarioSpec {
        name: "culled".into(),
        replications: 1,
        duration_s: 4.0,
        warmup_s: 1.0,
        policies: vec!["jaba-sd-j2".into(), "fcfs".into()],
        ..ScenarioSpec::default()
    };
    let over = Some((4, 8));
    let campaign = run_spec_threads_candidates(&spec, 2, 1, over).expect("valid override");
    let traces = trace_campaign(&spec, over).expect("valid override");
    let stats = sched_stats_campaign(&spec, over).expect("valid override");
    assert_eq!(traces.len(), campaign.scenarios.len());
    assert_eq!(stats.len(), campaign.scenarios.len());
    for ((sr, (label, records)), (stats_label, sched)) in
        campaign.scenarios.iter().zip(&traces).zip(&stats)
    {
        assert_eq!(label, &sr.scenario.label);
        assert_eq!(stats_label, &sr.scenario.label);
        let rep0 = sr.scenario.cfg.with_seed(mix_seed(sr.scenario.cfg.seed, 1));
        let (report, expected) = run_with_trace(rep0.clone().with_candidates(4, 8));
        assert_eq!(
            report, sr.reports[0],
            "{label}: the culled re-run is the campaign's replication 0"
        );
        assert!(!records.is_empty(), "{label}: scenario must make decisions");
        assert_eq!(records, &expected, "{label}: trace of the culled run");
        let (_, exact) = run_with_trace(rep0.clone());
        assert_ne!(
            records, &exact,
            "{label}: the override must reach the trace"
        );
        let (_, expected_stats) =
            Simulation::new(rep0.with_candidates(4, 8)).run_with_sched_stats();
        assert_eq!(sched, &expected_stats, "{label}: stats of the culled run");
    }
    // A bad override is an error, exactly as for the campaign run itself.
    assert!(trace_campaign(&spec, Some((4, 0))).is_err());
    assert!(sched_stats_campaign(&spec, Some((4, 0))).is_err());
}

/// The validation rules for the candidate knobs.
#[test]
fn candidate_knobs_validate() {
    assert!(cfg().validate().is_ok(), "defaults are exact and valid");
    assert!(cfg().with_candidates(0, 8).validate().is_ok());
    assert!(cfg().with_candidates(4, 1).validate().is_ok());
    // A refresh cadence of zero frames is meaningless.
    assert!(cfg().with_candidates(4, 0).validate().is_err());
    // K below the active-set size could not fill soft hand-off.
    let too_small = cfg().cdma.active_set_max - 1;
    assert!(cfg().with_candidates(too_small, 8).validate().is_err());
}
