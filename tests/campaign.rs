//! Campaign-subsystem integration tests: shard-count invariance of the
//! full paper-eval matrix and end-to-end spec parsing through the umbrella
//! crate.

use wcdma::sim::campaign::{
    builtin, campaign_csv, campaign_json, campaign_summary_json, run_campaign, run_spec,
    RunOptions, ScenarioSpec,
};

fn with_shards(shards: usize) -> RunOptions {
    RunOptions {
        shards,
        ..RunOptions::default()
    }
}

/// The acceptance matrix (3 traffic mixes × 2 speed classes × 2 policies =
/// 12 scenarios), shrunk to a few simulated seconds per replication so the
/// tier-1 suite stays fast.
fn acceptance_spec() -> ScenarioSpec {
    let mut spec = builtin("paper-eval").expect("built-in campaign");
    spec.duration_s = 4.0;
    spec.warmup_s = 1.0;
    spec.replications = 2;
    spec
}

#[test]
fn paper_eval_matrix_is_shard_invariant() {
    let spec = acceptance_spec();
    assert!(
        spec.n_scenarios() >= 12,
        "acceptance matrix must be ≥ 12 cells"
    );
    let scenarios = spec.expand().expect("valid spec");

    let run = |shards: usize| {
        run_campaign(
            &spec.name,
            scenarios.clone(),
            spec.replications,
            &with_shards(shards),
        )
        .expect("valid campaign")
    };
    let baseline = run(1);
    assert_eq!(baseline.scenarios.len(), 12);
    for sr in &baseline.scenarios {
        assert_eq!(sr.reports.len(), 2);
        assert!(
            sr.stats.bursts_completed.sum() > 0.0,
            "{}: no bursts completed",
            sr.scenario.label
        );
    }

    for shards in [2, 4] {
        let sharded = run(shards);
        for (a, b) in baseline.scenarios.iter().zip(&sharded.scenarios) {
            assert_eq!(a.scenario.label, b.scenario.label);
            assert_eq!(
                a.reports, b.reports,
                "{} shards changed the replications of {}",
                shards, a.scenario.label
            );
            assert_eq!(
                a.stats, b.stats,
                "{} shards changed the statistics of {}",
                shards, a.scenario.label
            );
        }
        // Every emitted artefact is a pure function of the result, so the
        // files the CLI writes are byte-identical too.
        assert_eq!(campaign_csv(&baseline), campaign_csv(&sharded));
        assert_eq!(campaign_json(&baseline), campaign_json(&sharded));
        assert_eq!(
            campaign_summary_json(&baseline),
            campaign_summary_json(&sharded)
        );
    }
}

#[test]
fn spec_file_round_trips_and_runs() {
    // A campaign the way a user would write it on disk.
    let text = "\
name = \"smoke\"
description = \"two-cell smoke matrix\"
seed = 42
replications = 2
duration_s = 4.0
warmup_s = 1.0

[matrix]
mix = [\"balanced\"]
speed = [\"pedestrian\"]
policy = [\"jaba-sd-j2\", \"fcfs\"]
";
    let spec = ScenarioSpec::parse(text).expect("spec parses");
    assert_eq!(spec.n_scenarios(), 2);
    // Round-trip through the renderer.
    assert_eq!(
        ScenarioSpec::parse(&spec.to_toml()).expect("re-parse"),
        spec
    );

    let result = run_spec(&spec, &with_shards(2)).expect("campaign runs");
    assert_eq!(result.scenarios.len(), 2);
    let csv = campaign_csv(&result);
    assert_eq!(csv.lines().count(), 3, "header + 2 scenario rows:\n{csv}");
    assert!(csv.contains("policy=fcfs"));
    let json = campaign_json(&result);
    assert!(json.contains("\"campaign\": \"smoke\""));
    assert!(json.contains("\"n_scenarios\": 2"));
}

#[test]
fn spec_parser_rejects_garbage_end_to_end() {
    for (text, needle) in [
        ("replications = 0\n", "replication"),
        ("[matrix]\npolicy = [\"not-a-policy\"]\n", "unknown policy"),
        ("[matrix]\nmix = [\"not-a-mix\"]\n", "unknown mix"),
        ("no equals sign here\n", "key = value"),
        ("duration_s = \"fast\"\n", "expected a number"),
    ] {
        let err = ScenarioSpec::parse(text).expect_err(text);
        assert!(err.contains(needle), "{text:?} → {err:?}");
    }
}
