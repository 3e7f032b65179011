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
use wcdma::sim::campaign::emit::campaign_trace_rows;
use wcdma::sim::campaign::journal::fnv1a64;
use wcdma::sim::campaign::{
    campaign_trace_csv, run_spec, run_spec_observed, RunOptions, ScenarioSpec,
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

/// `campaign run --trace` and `--sched-stats` share one observation of
/// replication 0 of every cell, taken while the campaign runs it: under a
/// candidate override it must observe the *culled* configuration the
/// campaign itself ran, not the exact one.
#[test]
fn campaign_trace_and_sched_stats_observe_the_culled_replication() {
    let spec = ScenarioSpec {
        name: "culled".into(),
        replications: 1,
        duration_s: 4.0,
        warmup_s: 1.0,
        policies: vec!["jaba-sd-j2".into(), "fcfs".into()],
        ..ScenarioSpec::default()
    };
    let over = RunOptions {
        shards: 2,
        frame_threads: 1,
        candidates: Some((4, 8)),
    };
    let campaign = run_spec(&spec, &over).expect("valid override");
    let (observed_run, observed) = run_spec_observed(&spec, &over).expect("valid override");
    assert_eq!(observed.len(), campaign.scenarios.len());
    for ((sr, or), obs) in campaign
        .scenarios
        .iter()
        .zip(&observed_run.scenarios)
        .zip(&observed)
    {
        let label = &obs.label;
        assert_eq!(label, &sr.scenario.label);
        assert_eq!(sr.reports, or.reports, "{label}: observing changes nothing");
        let rep0 = sr.scenario.cfg.with_seed(mix_seed(sr.scenario.cfg.seed, 1));
        let (report, expected) = run_with_trace(rep0.clone().with_candidates(4, 8));
        assert_eq!(
            report, sr.reports[0],
            "{label}: the observed run is the campaign's culled replication 0"
        );
        assert!(
            !obs.trace_rows.is_empty(),
            "{label}: scenario must make decisions"
        );
        assert_eq!(
            obs.trace_rows,
            campaign_trace_rows(label, &expected),
            "{label}: trace of the culled run"
        );
        let (_, exact) = run_with_trace(rep0.clone());
        assert_ne!(
            obs.trace_rows,
            campaign_trace_rows(label, &exact),
            "{label}: the override must reach the trace"
        );
        let culled = rep0.with_candidates(4, 8);
        let mut fresh = Simulation::new(culled.clone());
        for _ in 0..culled.n_frames() {
            fresh.step_frame();
        }
        assert_eq!(
            obs.sched,
            fresh.sched_stats(),
            "{label}: stats of the culled run"
        );
    }
    // A bad override is an error, exactly as for the campaign run itself.
    let bad = RunOptions {
        candidates: Some((4, 0)),
        ..over
    };
    assert!(run_spec(&spec, &bad).is_err());
    assert!(run_spec_observed(&spec, &bad).is_err());
}

/// FNV-1a over [`moving_culled_cfg`]'s `SimReport::encode_record` followed
/// by its decision trace (`campaign_trace_csv`). Recorded while every
/// cadence frame still re-selected every candidate row from scratch, so it
/// pins that refresh skipping (the movement-gap certificate) leaves every
/// candidate row — and so every bit — unchanged.
const GOLDEN_CULLED_MOTION_HASH: u64 = 0x96bc_ae7d_b7a4_ad6a;

/// A culled 19-cell scenario whose mobiles move at vehicular speed, with a
/// short refresh cadence: candidate rows are re-examined every other
/// frame while mobiles cross cell borders.
fn moving_culled_cfg() -> SimConfig {
    let mut c = cfg().with_speed_kmh(120.0).with_candidates(4, 2);
    c.rings = 2;
    c
}

#[test]
fn moving_culled_run_reproduces_committed_golden_hash() {
    // The scenario exercises both sides of the certificate: some rows are
    // re-selected after the first step, and most cadence examinations
    // keep theirs.
    let cfg = moving_culled_cfg();
    let mut sim = Simulation::new(cfg.clone());
    for _ in 0..cfg.n_frames() {
        sim.step_frame();
    }
    let net = sim.network();
    let mobiles = net.num_mobiles() as u64;
    let examinations = mobiles * cfg.n_frames().div_ceil(cfg.candidate_refresh) as u64;
    let selections = net.candidate_selections();
    assert!(
        selections > mobiles && selections < examinations / 2,
        "{selections} selections of {examinations} examinations"
    );
    // Mobiles leave cells and come back, so the hash below also covers
    // links that are parked and later resume from their frozen state.
    let (parked, resumed) = (net.parked_links(), net.link_resumptions());
    assert!(
        parked > 0 && resumed > 0,
        "{parked} links parked, {resumed} resumed"
    );
    for threads in [1, 4] {
        let (report, trace) = run_with_trace(moving_culled_cfg().with_frame_threads(threads));
        assert!(!trace.is_empty(), "scenario must make decisions");
        let mut bytes = report.encode_record().into_bytes();
        bytes.extend_from_slice(campaign_trace_csv(&[("culled-motion".into(), trace)]).as_bytes());
        let hash = fnv1a64(&bytes);
        assert_eq!(
            hash, GOLDEN_CULLED_MOTION_HASH,
            "culled run under motion drifted at {threads} frame threads: hashed to {hash:#018x}"
        );
    }
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
