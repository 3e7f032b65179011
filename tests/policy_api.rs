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
//! * **Per-cell digests** — beside each golden hash, a committed list of
//!   every hashed cell's report hash, trace hash and trace row count, so a
//!   drift names the first cell that moved and whether its report or its
//!   trace moved.
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
const GOLDEN_REGISTRY_MISMATCH_HASH: u64 = 0xf2e7_58da_723f_9997;

/// Per-cell digests behind [`GOLDEN_POLICY_HASH`], in expansion order:
/// `(label, report hash, trace hash, trace rows)`, see [`CellDigest`].
#[rustfmt::skip]
const GOLDEN_POLICY_CELLS: &[(&str, u64, u64, usize)] = &[
    ("mix=voice-dominated/speed=pedestrian/hotspot=1/csi=ideal/policy=jaba-sd-j2", 0xe886_c042_189f_dabf, 0xa4d7_4efe_7e06_5249, 5),
    ("mix=voice-dominated/speed=pedestrian/hotspot=1/csi=ideal/policy=fcfs", 0x92ab_f22b_852e_46aa, 0xcea0_0dd7_0a77_ba9d, 5),
    ("mix=voice-dominated/speed=vehicular/hotspot=1/csi=ideal/policy=jaba-sd-j2", 0x0827_0b28_48d6_d48b, 0x9c39_5c93_d033_2bc7, 5),
    ("mix=voice-dominated/speed=vehicular/hotspot=1/csi=ideal/policy=fcfs", 0x844d_3368_4ca8_7779, 0x7df4_8411_5e2f_7f5b, 4),
    ("mix=balanced/speed=pedestrian/hotspot=1/csi=ideal/policy=jaba-sd-j2", 0x5bce_34aa_646d_6dae, 0x621d_0e1d_cda7_7e2f, 7),
    ("mix=balanced/speed=pedestrian/hotspot=1/csi=ideal/policy=fcfs", 0x24be_7ef4_db4e_ebc4, 0x51de_c30b_07a8_8d9a, 9),
    ("mix=balanced/speed=vehicular/hotspot=1/csi=ideal/policy=jaba-sd-j2", 0x907e_3e75_853e_5dbe, 0xd53a_a0e0_2ef6_8236, 8),
    ("mix=balanced/speed=vehicular/hotspot=1/csi=ideal/policy=fcfs", 0x1a5d_23bf_d145_8c5e, 0xa28f_3b7b_53d7_bf7c, 10),
    ("mix=heavy-web/speed=pedestrian/hotspot=1/csi=ideal/policy=jaba-sd-j2", 0x07a3_72c8_717d_9e10, 0x28bd_8f6e_1804_747a, 12),
    ("mix=heavy-web/speed=pedestrian/hotspot=1/csi=ideal/policy=fcfs", 0xc6fb_1b54_4c15_2e98, 0x26d2_c395_323d_f7b2, 15),
    ("mix=heavy-web/speed=vehicular/hotspot=1/csi=ideal/policy=jaba-sd-j2", 0x193d_b07c_b145_7bf9, 0x8b3f_ddec_f21c_52a3, 16),
    ("mix=heavy-web/speed=vehicular/hotspot=1/csi=ideal/policy=fcfs", 0xc084_810c_290a_5e16, 0xd53e_f8ce_944e_55ca, 15),
];

/// Per-cell digests behind [`GOLDEN_REGISTRY_MISMATCH_HASH`].
#[rustfmt::skip]
const GOLDEN_REGISTRY_MISMATCH_CELLS: &[(&str, u64, u64, usize)] = &[
    ("mix=balanced/speed=pedestrian/hotspot=1/csi=ideal/policy=jaba-sd-j2", 0x4c10_7202_9ba5_1f44, 0x44ff_c7d1_aa35_2e0f, 9),
    ("mix=balanced/speed=pedestrian/hotspot=1/csi=ideal/policy=jaba-sd-j1", 0x8467_5ee8_78ee_1fea, 0xa420_9c61_4abc_ced7, 8),
    ("mix=balanced/speed=pedestrian/hotspot=1/csi=ideal/policy=fcfs", 0x1c0e_964b_f78c_7db7, 0xbdce_eb46_2ab1_83cd, 11),
    ("mix=balanced/speed=pedestrian/hotspot=1/csi=ideal/policy=fcfs-1", 0x3f1b_d60c_7653_4ddd, 0xd109_0eea_d108_d178, 11),
    ("mix=balanced/speed=pedestrian/hotspot=1/csi=ideal/policy=equal-share", 0xbe73_7b9c_6969_dd45, 0x55c4_9c2b_8503_78a4, 7),
    ("mix=balanced/speed=pedestrian/hotspot=1/csi=ideal/policy=weighted-fair-share", 0xc085_3aea_0ba3_94c2, 0xaf42_3fab_8130_d453, 8),
    ("mix=balanced/speed=pedestrian/hotspot=1/csi=ideal/policy=threshold-reservation", 0x45d1_9eb7_298a_c9ef, 0x64d3_2233_94fa_ec00, 10),
    ("mix=balanced/speed=pedestrian/hotspot=1/csi=ideal/policy=measured-region", 0x76e2_95f1_f699_6709, 0x18c9_a612_74f3_cbb8, 9),
    ("mix=balanced/speed=pedestrian/hotspot=1/csi=ideal/policy=graceful-degradation", 0xa1d1_d877_258f_3ff5, 0xe8cf_caa9_f6dd_5d88, 10),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=none/load=32/policy=jaba-sd-j2", 0x55f7_d561_27db_f87a, 0x59a1_0dc3_6923_45a7, 159),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=none/load=32/policy=measured-region", 0x1c70_6667_1a2f_a67a, 0xb6d6_1d7c_76c0_4fa4, 140),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=none/load=32/policy=graceful-degradation", 0x1e5c_389d_1fec_451c, 0x694d_51b8_d982_f8cc, 176),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=pathloss/load=32/policy=jaba-sd-j2", 0xb5ab_7605_71b2_8802, 0x37f4_2803_8e34_d8e7, 151),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=pathloss/load=32/policy=measured-region", 0x651a_6e49_a076_b772, 0xc043_672e_fdab_9152, 163),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=pathloss/load=32/policy=graceful-degradation", 0xd79b_2a48_7524_fb0f, 0xa468_99d2_53f4_09b3, 184),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=shadow/load=32/policy=jaba-sd-j2", 0x31cf_2a4a_7b78_1615, 0x2945_dea6_0cf4_8b1e, 189),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=shadow/load=32/policy=measured-region", 0x1741_aecc_dc51_80e1, 0x6db7_c20d_0bd5_ef27, 147),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=shadow/load=32/policy=graceful-degradation", 0x2811_b688_d0c3_10f1, 0x4761_45ca_78ae_ce2d, 170),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=combined/load=32/policy=jaba-sd-j2", 0xcea3_7d87_23c3_5264, 0xc961_ed79_9ddb_f3bf, 171),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=combined/load=32/policy=measured-region", 0x558d_947b_c45f_0a02, 0xf1f6_4dfc_3283_0bd3, 140),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=ideal/mismatch=combined/load=32/policy=graceful-degradation", 0x3bbd_899c_647b_d1c1, 0x6f8e_07f4_1bfc_9fbe, 175),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=none/load=32/policy=jaba-sd-j2", 0x5cbf_2cb0_e33b_9071, 0x40d6_ab2c_172a_a093, 124),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=none/load=32/policy=measured-region", 0xa9ec_eb49_e67d_894f, 0x5045_7d6a_8c48_6019, 142),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=none/load=32/policy=graceful-degradation", 0xb34a_0086_2b40_3a40, 0x028b_6894_2e2b_e9ac, 192),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=pathloss/load=32/policy=jaba-sd-j2", 0xff42_9354_6fe1_90f0, 0x4a69_295d_bada_e169, 192),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=pathloss/load=32/policy=measured-region", 0x3208_84fb_e7c0_5e2d, 0xd209_c18f_9020_bf01, 76),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=pathloss/load=32/policy=graceful-degradation", 0x6457_d4c9_245e_2c3c, 0xd65b_4c9c_15d4_0fa9, 198),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=shadow/load=32/policy=jaba-sd-j2", 0x1716_b885_0f46_5a71, 0x3122_decb_6f2d_9c62, 182),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=shadow/load=32/policy=measured-region", 0x83dd_201b_5442_8996, 0xfd76_a7e4_a89c_a0d0, 180),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=shadow/load=32/policy=graceful-degradation", 0x5fed_7b27_f09a_055d, 0xe9c5_75a1_4e54_50c8, 134),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=combined/load=32/policy=jaba-sd-j2", 0x231f_0bcf_395e_1b28, 0xb7b8_f688_2d47_9b58, 179),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=combined/load=32/policy=measured-region", 0xa702_ce00_15dd_feb8, 0xc6a4_b409_8ff1_0b01, 167),
    ("mix=heavy-web/speed=pedestrian/hotspot=2/csi=degraded/mismatch=combined/load=32/policy=graceful-degradation", 0x3235_42fd_cc3e_ebc7, 0x8538_f6a4_e2ce_ec90, 198),
];

/// A built-in campaign shrunk to a few simulated seconds per cell and one
/// replication.
fn quick_builtin(name: &str) -> ScenarioSpec {
    let mut spec = builtin(name).expect("built-in campaign");
    spec.duration_s = 4.0;
    spec.warmup_s = 1.0;
    spec.replications = 1;
    spec
}

/// One cell's first replication, digested: FNV-1a of its
/// `SimReport::encode_record`, FNV-1a of its `campaign_trace_csv`, and the
/// number of trace records.
struct CellDigest {
    label: String,
    report: u64,
    trace: u64,
    rows: usize,
}

/// Appends every cell's first replication, in expansion order, to
/// `bytes` (`SimReport::encode_record` then the cell's
/// `campaign_trace_csv`) and its digest to `cells`.
fn hash_first_replications(spec: &ScenarioSpec, bytes: &mut Vec<u8>, cells: &mut Vec<CellDigest>) {
    for sc in spec.expand().expect("valid spec") {
        // Replication-0 seed, exactly as the campaign runner derives it.
        let cfg = sc.cfg.with_seed(wcdma::math::mix_seed(sc.cfg.seed, 1));
        let (report, trace) = run_with_trace(cfg);
        assert!(
            !trace.is_empty(),
            "{}: a 4 s web-traffic cell must schedule at least once",
            sc.label
        );
        let rows = trace.len();
        let report = report.encode_record();
        let trace = campaign_trace_csv(&[(sc.label.clone(), trace)]);
        bytes.extend_from_slice(report.as_bytes());
        bytes.extend_from_slice(trace.as_bytes());
        cells.push(CellDigest {
            label: sc.label,
            report: fnv1a64(report.as_bytes()),
            trace: fnv1a64(trace.as_bytes()),
            rows,
        });
    }
}

/// FNV-1a of [`hash_first_replications`] over the named built-ins, and
/// the per-cell digests.
fn first_replication_hash(names: &[&str]) -> (u64, Vec<CellDigest>) {
    let mut bytes = Vec::new();
    let mut cells = Vec::new();
    for name in names {
        hash_first_replications(&quick_builtin(name), &mut bytes, &mut cells);
    }
    (fnv1a64(&bytes), cells)
}

/// Fails on the first cell whose digest differs from the committed list,
/// naming the cell and whether its report or its trace moved.
fn assert_cells_match(got: &[CellDigest], want: &[(&str, u64, u64, usize)]) {
    for (g, &(label, report, trace, rows)) in got.iter().zip(want) {
        assert_eq!(g.label, label, "the cell order changed");
        let report_moved = g.report != report;
        let trace_moved = g.trace != trace || g.rows != rows;
        let moved = match (report_moved, trace_moved) {
            (false, false) => continue,
            (true, false) => "its report",
            (false, true) => "its trace",
            (true, true) => "its report and its trace",
        };
        panic!(
            "first drifted cell {label}: {moved} moved; now \
             (\"{label}\", {:#018x}, {:#018x}, {})",
            g.report, g.trace, g.rows
        );
    }
    assert_eq!(got.len(), want.len(), "the number of cells changed");
}

#[test]
fn registry_policies_reproduce_the_paper_eval_golden_hash() {
    assert_eq!(
        quick_builtin("paper-eval").n_scenarios(),
        12,
        "the full acceptance matrix"
    );
    let (hash, cells) = first_replication_hash(&["paper-eval"]);
    assert_cells_match(&cells, GOLDEN_POLICY_CELLS);
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
    let (hash, cells) = first_replication_hash(&["policy-comparison", "model-mismatch"]);
    assert_cells_match(&cells, GOLDEN_REGISTRY_MISMATCH_CELLS);
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
