//! Admission-policy API acceptance tests.
//!
//! * **Golden bit-identity** — the registry-resolved policies of the
//!   12-cell paper-eval matrix reproduce a committed hash of every cell's
//!   first replication: its report and its frame-by-frame decision trace.
//!   The hash was taken while the closed `Policy` enum still existed and
//!   a test checked these same runs against it decision for decision, so
//!   it carries that equality forward.
//! * **Registry and mismatch golden** — the same hash over the first
//!   replication of every `policy-comparison` cell (every registry
//!   policy) and every `model-mismatch` cell (the faults drive
//!   `measured-region`'s η and `graceful-degradation`'s ladder), so the
//!   policies the paper-eval matrix does not name are pinned too.
//! * **Open registry end-to-end** — the two adaptive-CAC additions
//!   (weighted fair share, threshold reservation) run through a TOML
//!   policy axis exactly the way a user would write one.
//! * **Constructor hygiene** — `Fcfs { max_concurrent: Some(0) }` is an
//!   error, not a scheduler that silently never grants.

use wcdma::admission::{Fcfs, PolicyRegistry};
use wcdma::sim::campaign::journal::fnv1a64;
use wcdma::sim::campaign::{builtin, campaign_trace_csv, run_spec, RunOptions, ScenarioSpec};
use wcdma::sim::trace::run_with_trace;
use wcdma::sim::SimConfig;

/// FNV-1a over the paper-eval matrix's first replications, in expansion
/// order: per cell, `SimReport::encode_record` then the cell's
/// `campaign_trace_csv`.
const GOLDEN_POLICY_HASH: u64 = 0xd6a8_aea8_b02c_cab9;

/// [`first_replication_hash`] over the `policy-comparison` and
/// `model-mismatch` built-ins, in that order.
const GOLDEN_REGISTRY_MISMATCH_HASH: u64 = 0xbb7a_d732_bc69_fce8;

/// A built-in campaign shrunk to a few simulated seconds per cell and one
/// replication.
fn quick_builtin(name: &str) -> ScenarioSpec {
    let mut spec = builtin(name).expect("built-in campaign");
    spec.duration_s = 4.0;
    spec.warmup_s = 1.0;
    spec.replications = 1;
    spec
}

/// Appends every cell's first replication, in expansion order, to
/// `bytes`: `SimReport::encode_record` then the cell's
/// `campaign_trace_csv`.
fn hash_first_replications(spec: &ScenarioSpec, bytes: &mut Vec<u8>) {
    for sc in spec.expand().expect("valid spec") {
        // Replication-0 seed, exactly as the campaign runner derives it.
        let cfg = sc.cfg.with_seed(wcdma::math::mix_seed(sc.cfg.seed, 1));
        let (report, trace) = run_with_trace(cfg);
        assert!(
            !trace.is_empty(),
            "{}: a 4 s web-traffic cell must schedule at least once",
            sc.label
        );
        bytes.extend_from_slice(report.encode_record().as_bytes());
        bytes.extend_from_slice(campaign_trace_csv(&[(sc.label, trace)]).as_bytes());
    }
}

/// FNV-1a of [`hash_first_replications`] over the named built-ins.
fn first_replication_hash(names: &[&str]) -> u64 {
    let mut bytes = Vec::new();
    for name in names {
        hash_first_replications(&quick_builtin(name), &mut bytes);
    }
    fnv1a64(&bytes)
}

#[test]
fn registry_policies_reproduce_the_paper_eval_golden_hash() {
    assert_eq!(
        quick_builtin("paper-eval").n_scenarios(),
        12,
        "the full acceptance matrix"
    );
    let hash = first_replication_hash(&["paper-eval"]);
    assert_eq!(
        hash, GOLDEN_POLICY_HASH,
        "paper-eval policy decisions drifted: hashed to {hash:#018x}"
    );
}

#[test]
fn every_registry_policy_reproduces_the_registry_and_mismatch_golden_hash() {
    let comparison = quick_builtin("policy-comparison");
    let names = PolicyRegistry::standard().names();
    assert_eq!(comparison.policies, names, "covers the whole registry");
    let hash = first_replication_hash(&["policy-comparison", "model-mismatch"]);
    assert_eq!(
        hash, GOLDEN_REGISTRY_MISMATCH_HASH,
        "registry or mismatch policy decisions drifted: hashed to {hash:#018x}"
    );
}

#[test]
fn new_registry_policies_run_end_to_end_from_a_toml_policy_axis() {
    // A campaign file the way a user would write one, naming both
    // adaptive-CAC additions (one with an explicit parameter) — policies
    // outside the paper's comparison table.
    let text = "\
name = \"adaptive-cac\"
description = \"registry-only policies end-to-end\"
seed = 99
replications = 2
duration_s = 4.0
warmup_s = 1.0

[matrix]
mix = [\"balanced\"]
speed = [\"pedestrian\"]
policy = [\"weighted-fair-share\", \"threshold-reservation:margin=0.4\"]
";
    let spec = ScenarioSpec::parse(text).expect("spec parses");
    assert_eq!(spec.n_scenarios(), 2);
    let opts = RunOptions {
        shards: 2,
        ..RunOptions::default()
    };
    let result = run_spec(&spec, &opts).expect("campaign runs");
    assert_eq!(result.scenarios.len(), 2);
    for sr in &result.scenarios {
        assert!(
            sr.stats.bursts_completed.sum() > 0.0,
            "{}: the new policy must actually move bits",
            sr.scenario.label
        );
    }
    assert!(result.scenarios[0]
        .scenario
        .label
        .contains("policy=weighted-fair-share"));
    assert!(result.scenarios[1]
        .scenario
        .label
        .contains("policy=threshold-reservation:margin=0.4"));
}

#[test]
fn fcfs_zero_cap_regression() {
    // Constructor path: a plain error.
    let err = Fcfs::new(Some(0)).expect_err("Some(0) must be rejected");
    assert!(err.contains("max_concurrent"), "{err}");
    // Registry path: the error propagates with the policy name attached.
    let err = PolicyRegistry::standard()
        .resolve("fcfs:max_concurrent=0")
        .expect_err("registry must reject the zero cap");
    assert!(
        err.contains("fcfs") && err.contains("max_concurrent"),
        "{err}"
    );
    // Valid caps still construct.
    assert!(Fcfs::new(Some(1)).is_ok() && Fcfs::new(None).is_ok());
}

#[test]
fn registry_policies_are_schedulable_objects() {
    // Every standard registry entry resolves to a policy the scheduler
    // accepts and that survives a (short) end-to-end run.
    let registry = PolicyRegistry::standard();
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 6;
    cfg.n_data = 3;
    cfg.duration_s = 3.0;
    cfg.warmup_s = 1.0;
    for name in registry.names() {
        let policy = registry.resolve(name).expect(name);
        let report = wcdma::sim::Simulation::new(cfg.with_policy(policy)).run();
        assert!(
            report.bursts_completed > 0,
            "{name}: 3 web users over 2 s must complete bursts"
        );
    }
}
