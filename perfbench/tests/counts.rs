//! Every count a traced run reports must repeat exactly for a fixed seed:
//! scheduling and ILP counters, link cells, refresh frames, journal lines,
//! and re-simulated trace cells. Timings are free to differ.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`. The
//! campaign test drives the `wcdma` CLI: it uses `$PERFBENCH_WCDMA` when
//! set, and otherwise builds the CLI into this test's target directory.

use std::path::PathBuf;
use std::process::Command;

use perfbench::report::Outcome;
use perfbench::workloads::{self, TraceSize};
use perfbench::{campaign, frames};

const FRAME_COUNTS: &[&str] = &[
    "admission.rounds",
    "admission.requests_per_round",
    "admission.grant_ratio",
    "admission.warm_hit_ratio",
    "admission.skipped_identical",
    "admission.cache_hit_ratio",
    "admission.replay_match_ratio",
    "ilp.bb_nodes_per_round_p50",
    "ilp.bb_nodes_per_round_p99",
    "ilp.bb_nodes_total",
    "cdma.link_cells",
    "cdma.refresh_frames",
    "sim.engine.traced_frames",
    "sim.engine.active_bursts_mean",
    "sim.engine.bursts_completed",
    "trace.mirror_exact",
];

const CAMPAIGN_COUNTS: &[&str] = &[
    "sim.campaign.journal_lines",
    "sim.campaign.journal_bytes",
    "sim.campaign.trace_cells",
];

fn counts(out: &Outcome, names: &[&str]) -> Vec<(String, u64)> {
    assert_eq!(out.failed, 0, "traced run failed: {:?}", out.info);
    names
        .iter()
        .map(|&n| {
            let v = out
                .metrics
                .iter()
                .find(|(m, _)| *m == n)
                .unwrap_or_else(|| panic!("{n} not reported"))
                .1;
            (n.to_string(), v.to_bits())
        })
        .collect()
}

fn small(frames: usize) -> TraceSize {
    TraceSize {
        frames,
        frames_1t: 4,
        pool_runs: 4,
    }
}

#[test]
fn bursty_cell_counts_repeat() {
    let mut spec = workloads::bursty_cell(7);
    spec.trace = small(600);
    let a = frames::traced(&spec);
    let b = frames::traced(&spec);
    assert_eq!(counts(&a, FRAME_COUNTS), counts(&b, FRAME_COUNTS));
    let get = |n: &str| a.metrics.iter().find(|(m, _)| *m == n).unwrap().1;
    assert!(get("admission.rounds") > 0.0, "bursty-cell must schedule");
    assert_eq!(get("admission.replay_match_ratio"), 1.0);
    assert_eq!(get("trace.mirror_exact"), 1.0);
}

#[test]
fn metro_counts_repeat() {
    let mut spec = workloads::metro(7);
    spec.trace = small(24);
    let a = frames::traced(&spec);
    let b = frames::traced(&spec);
    assert_eq!(counts(&a, FRAME_COUNTS), counts(&b, FRAME_COUNTS));
    let get = |n: &str| a.metrics.iter().find(|(m, _)| *m == n).unwrap().1;
    assert_eq!(get("cdma.link_cells"), 70_000.0);
    assert_eq!(get("cdma.refresh_frames"), 3.0);
    assert_eq!(get("trace.mirror_exact"), 1.0);
}

fn wcdma_cli(target: &std::path::Path) -> PathBuf {
    if let Some(p) = std::env::var_os("PERFBENCH_WCDMA") {
        return p.into();
    }
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "wcdma-cli",
        ])
        .args(["--manifest-path", manifest, "--target-dir"])
        .arg(target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building the wcdma CLI failed");
    target.join("release").join("wcdma")
}

#[test]
fn campaign_counts_repeat() {
    // <target>/<profile>/deps/<test binary>
    let exe = std::env::current_exe().expect("test binary path");
    let target = exe.ancestors().nth(3).expect("target dir").to_path_buf();
    let env = campaign::Env {
        cli: wcdma_cli(&target),
        work: target.join(format!("perfbench-counts-{}", std::process::id())),
    };
    let spec = workloads::campaign_service(7);
    let a = campaign::traced(&spec, &env);
    let b = campaign::traced(&spec, &env);
    let _ = std::fs::remove_dir_all(&env.work);
    assert_eq!(counts(&a, CAMPAIGN_COUNTS), counts(&b, CAMPAIGN_COUNTS));
    let get = |n: &str| a.metrics.iter().find(|(m, _)| *m == n).unwrap().1;
    // 120 cells plus one fold line per scenario.
    assert_eq!(get("sim.campaign.journal_lines"), 144.0);
    assert_eq!(get("sim.campaign.trace_cells"), 24.0);
}
