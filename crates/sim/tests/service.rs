//! End-to-end tests of the campaign service layer: kill-and-resume and
//! multi-process grid slicing must both produce artefacts byte-identical
//! to an uninterrupted single-process run. These are the in-process
//! versions of the CI legs that SIGKILL the real binary — `max_cells`
//! stands in for the kill so the cut point is deterministic.

use std::path::{Path, PathBuf};

use wcdma_sim::campaign::journal::{
    observation_file, JournalWriter, FOLD_STATE_WORDS, JOURNAL_FILE, MANIFEST_FILE,
};
use wcdma_sim::campaign::spec::{MismatchLevel, TrafficMix};
use wcdma_sim::campaign::{observed_trace_csv, run_spec_observed, Observation};
use wcdma_sim::{
    campaign_status, merge_dirs, run_spec_service, RunOptions, ScenarioSpec, ServiceConfig,
    SimStats,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wcdma-svc-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 2 scenarios × 3 replications of a 3-user data-only cell: big enough to
/// have interior cut points and a multi-row artefact, small enough for CI.
fn small_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        name: "svc-it".into(),
        replications: 3,
        duration_s: 6.0,
        warmup_s: 1.0,
        ..ScenarioSpec::default()
    };
    spec.mixes = vec![TrafficMix::DataOnly];
    spec.loads = vec![3];
    spec.policies = vec!["jaba-sd-j2".into(), "fcfs".into()];
    spec
}

fn svc(overrides: impl FnOnce(&mut ServiceConfig)) -> ServiceConfig {
    let mut cfg = ServiceConfig {
        run: RunOptions {
            shards: 1,
            ..RunOptions::default()
        },
        ..ServiceConfig::default()
    };
    overrides(&mut cfg);
    cfg
}

/// Reads the three final artefacts of a finished unsliced run.
fn artefacts(dir: &Path) -> (String, String, String) {
    let read = |file: String| std::fs::read_to_string(dir.join(file)).expect("final artefact");
    (
        read("svc-it.csv".into()),
        read("svc-it.json".into()),
        read("BENCH_campaign.json".into()),
    )
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let spec = small_spec();

    // Reference: one uninterrupted run.
    let ref_dir = tmpdir("ref");
    let out = run_spec_service(&spec, &ref_dir, &svc(|_| {})).expect("uninterrupted run");
    assert!(out.finished);
    assert_eq!(out.newly_run, 6);
    let (ref_csv, ref_json, ref_bench) = artefacts(&ref_dir);

    // Killed after 2 of 6 cells, resumed, finished.
    let dir = tmpdir("resume");
    let out = run_spec_service(&spec, &dir, &svc(|c| c.max_cells = Some(2))).expect("first leg");
    assert!(!out.finished);
    assert_eq!(out.newly_run, 2);
    // Artefacts are still streaming: a partial exists, the final doesn't.
    assert!(dir.join("svc-it.csv.partial").exists(), "streaming partial");
    assert!(!dir.join("svc-it.csv").exists(), "no final artefact yet");
    let out = run_spec_service(&spec, &dir, &svc(|_| {})).expect("resume");
    assert!(out.finished);
    assert_eq!(out.newly_run, 4, "resume skips the journaled cells");
    assert_eq!(out.skipped, 2);
    assert_eq!(
        artefacts(&dir),
        (ref_csv.clone(), ref_json.clone(), ref_bench.clone())
    );
    assert!(
        !dir.join("svc-it.csv.partial").exists(),
        "finalize removes partials"
    );

    // A second resume of a finished run is an idempotent no-op.
    let out = run_spec_service(&spec, &dir, &svc(|_| {})).expect("re-resume");
    assert!(out.finished);
    assert_eq!(out.newly_run, 0);
    assert_eq!(out.skipped, 6);
    assert_eq!(
        artefacts(&dir),
        (ref_csv.clone(), ref_json.clone(), ref_bench.clone())
    );

    // Torn tail: chop the last journal line mid-record, as a SIGKILL
    // would, and resume — the dropped cell is re-run bit-identically.
    // (After 2 cells the journal is exactly two `cell` lines, so the chop
    // tears the second cell.)
    let torn_dir = tmpdir("torn");
    run_spec_service(&spec, &torn_dir, &svc(|c| c.max_cells = Some(2))).expect("first leg");
    let jpath = torn_dir.join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&jpath).unwrap();
    std::fs::write(&jpath, &text[..text.len() - 25]).unwrap();
    // Resume a single cell first: its journal line must start fresh, not
    // glue onto the torn fragment, or every later read of the journal
    // fails its checksum.
    let out =
        run_spec_service(&spec, &torn_dir, &svc(|c| c.max_cells = Some(1))).expect("torn resume");
    assert!(!out.finished);
    assert_eq!(out.newly_run, 1, "the torn cell is re-run");
    let report = campaign_status(&torn_dir).expect("status re-reads the repaired journal");
    assert!(report.contains("2/6 cells journaled"), "{report}");
    let out = run_spec_service(&spec, &torn_dir, &svc(|_| {})).expect("second resume");
    assert!(out.finished);
    assert_eq!(out.newly_run, 4);
    assert_eq!(
        artefacts(&torn_dir),
        (ref_csv.clone(), ref_json.clone(), ref_bench.clone())
    );
    // Merge (of the trivial 1/1 slice set) also re-reads the journal.
    let torn_merged = tmpdir("torn-merge");
    merge_dirs(std::slice::from_ref(&torn_dir), &torn_merged)
        .expect("merge re-reads the repaired journal");
    assert_eq!(
        std::fs::read_to_string(torn_merged.join("svc-it.csv")).unwrap(),
        ref_csv
    );

    for d in [ref_dir, dir, torn_dir, torn_merged] {
        std::fs::remove_dir_all(&d).unwrap();
    }
}

/// The batch run's artefacts and observations: what every observed
/// service run must reproduce. `tag` keeps parallel tests' directories
/// apart.
fn batch_reference(spec: &ScenarioSpec, tag: &str) -> ((String, String, String), Vec<Observation>) {
    let dir = tmpdir(tag);
    let out = run_spec_service(spec, &dir, &svc(|_| {})).expect("uninterrupted run");
    assert!(
        out.observations.is_empty(),
        "an unobserved run observes nothing"
    );
    let docs = artefacts(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    let (_, observations) = run_spec_observed(spec, &svc(|_| {}).run).expect("batch run");
    (docs, observations)
}

/// A traced kill plus a traced resume observes every scenario in the
/// campaign's own pass: each cell is simulated exactly once, and the
/// observations — hence the trace CSV — equal the batch run's.
#[test]
fn traced_kill_and_resume_simulates_each_cell_once() {
    let spec = small_spec();
    let (ref_docs, ref_obs) = batch_reference(&spec, "traced-ref");
    assert_eq!(ref_obs.len(), 2);
    assert!(ref_obs.iter().all(|o| !o.trace_rows.is_empty()));
    let observed = |max_cells| svc(move |c| (c.observe, c.max_cells) = (true, max_cells));

    let dir = tmpdir("traced");
    let out = run_spec_service(&spec, &dir, &observed(Some(2))).expect("traced kill");
    assert!(!out.finished);
    assert_eq!((out.newly_run, out.reobserved), (2, 0));
    assert!(
        out.observations.is_empty(),
        "no observations before finishing"
    );
    assert!(dir.join(observation_file(0)).exists(), "job 0 was observed");
    assert!(!dir.join(observation_file(1)).exists());
    let out = run_spec_service(&spec, &dir, &observed(None)).expect("traced resume");
    assert!(out.finished);
    assert_eq!((out.newly_run, out.skipped, out.reobserved), (4, 2, 0));
    assert_eq!(artefacts(&dir), ref_docs);
    assert_eq!(out.observations, ref_obs);
    assert_eq!(
        observed_trace_csv(&out.observations),
        observed_trace_csv(&ref_obs)
    );

    // Re-finalizing the finished checkpoint observes from the files alone.
    let out = run_spec_service(&spec, &dir, &observed(None)).expect("re-finalize");
    assert_eq!((out.newly_run, out.reobserved), (0, 0));
    assert_eq!(out.observations, ref_obs);

    // A damaged observation is an error naming its file.
    let obs0 = dir.join(observation_file(0));
    let text = std::fs::read_to_string(&obs0).unwrap();
    std::fs::write(&obs0, text.replacen(',', ";", 1)).unwrap();
    let err = run_spec_service(&spec, &dir, &observed(None)).expect_err("damaged");
    assert!(err.contains(&observation_file(0)), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An untraced kill journals first replications without observing them; a
/// traced resume re-runs exactly those, journals nothing twice, and still
/// reproduces the batch trace.
#[test]
fn untraced_kill_then_traced_resume_matches_the_batch_trace() {
    let spec = small_spec();
    let (ref_docs, ref_obs) = batch_reference(&spec, "untraced-ref");
    let dir = tmpdir("untraced");
    // Jobs 0..4 hold both scenarios' replication 0 (jobs 0 and 3).
    let out = run_spec_service(&spec, &dir, &svc(|c| c.max_cells = Some(4))).expect("kill");
    assert_eq!(out.newly_run, 4);
    let out = run_spec_service(&spec, &dir, &svc(|_| {})).expect("untraced finish");
    assert!(out.finished);
    // Stopped before re-observing: journaled, but not finished.
    let traced = |max_cells| svc(move |c| (c.observe, c.max_cells) = (true, max_cells));
    let out = run_spec_service(&spec, &dir, &traced(Some(0))).expect("stopped at once");
    assert!(!out.finished, "first replications still unobserved");
    assert_eq!((out.newly_run, out.reobserved), (0, 0));
    let out = run_spec_service(&spec, &dir, &traced(None)).expect("traced resume");
    assert!(out.finished);
    assert_eq!((out.newly_run, out.skipped, out.reobserved), (0, 6, 2));
    assert_eq!(artefacts(&dir), ref_docs);
    assert_eq!(out.observations, ref_obs);
    let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(
        journal.lines().filter(|l| l.starts_with("cell ")).count(),
        6,
        "re-observed cells are not journaled again"
    );

    // Untraced kill, traced resume straight to the end.
    let dir2 = tmpdir("untraced-2");
    run_spec_service(&spec, &dir2, &svc(|c| c.max_cells = Some(4))).expect("kill");
    let out = run_spec_service(&spec, &dir2, &traced(None)).expect("traced resume");
    assert!(out.finished);
    assert_eq!((out.newly_run, out.skipped, out.reobserved), (2, 4, 2));
    assert_eq!(artefacts(&dir2), ref_docs);
    assert_eq!(out.observations, ref_obs);

    // Observation needs the whole grid.
    let err = run_spec_service(
        &spec,
        &tmpdir("sliced-obs"),
        &svc(|c| (c.observe, c.slice_count) = (true, 2)),
    )
    .expect_err("sliced observation");
    assert!(err.contains("unsliced"), "{err}");
    for d in [dir, dir2] {
        std::fs::remove_dir_all(&d).unwrap();
    }
}

#[test]
fn three_slices_merge_byte_identical_to_single_process() {
    let spec = small_spec();

    // Single-process reference (also exercises merge over 1/1).
    let ref_dir = tmpdir("m-ref");
    run_spec_service(&spec, &ref_dir, &svc(|_| {})).expect("single-process run");
    let (ref_csv, ref_json, ref_bench) = artefacts(&ref_dir);
    let remerged = tmpdir("m-re");
    merge_dirs(std::slice::from_ref(&ref_dir), &remerged).expect("merge of one full checkpoint");
    let (csv, json, bench) = (
        std::fs::read_to_string(remerged.join("svc-it.csv")).unwrap(),
        std::fs::read_to_string(remerged.join("svc-it.json")).unwrap(),
        std::fs::read_to_string(remerged.join("BENCH_campaign.json")).unwrap(),
    );
    assert_eq!(
        (csv, json, bench),
        (ref_csv.clone(), ref_json.clone(), ref_bench.clone())
    );

    // Three independent slices, merged.
    let slices: Vec<PathBuf> = (1..=3).map(|i| tmpdir(&format!("m-s{i}"))).collect();
    for (i, dir) in slices.iter().enumerate() {
        let out = run_spec_service(
            &spec,
            dir,
            &svc(|c| {
                c.slice_index = i + 1;
                c.slice_count = 3;
            }),
        )
        .expect("slice run");
        assert!(out.finished);
        assert!(out.artefacts.is_empty(), "slices emit no artefacts");
        // Status understands slice checkpoints.
        let report = campaign_status(dir).expect("slice status");
        assert!(report.contains(&format!("slice {}/3", i + 1)), "{report}");
    }
    let merged = tmpdir("m-out");
    // Order must not matter.
    let shuffled = vec![slices[2].clone(), slices[0].clone(), slices[1].clone()];
    merge_dirs(&shuffled, &merged).expect("merge of three slices");
    let (csv, json, bench) = (
        std::fs::read_to_string(merged.join("svc-it.csv")).unwrap(),
        std::fs::read_to_string(merged.join("svc-it.json")).unwrap(),
        std::fs::read_to_string(merged.join("BENCH_campaign.json")).unwrap(),
    );
    assert_eq!((csv, json, bench), (ref_csv, ref_json, ref_bench));

    // Error paths: an incomplete slice set, and an incomplete slice.
    let err = merge_dirs(&slices[..2], &merged).expect_err("missing slice");
    assert!(err.contains("sliced 3 ways"), "{err}");
    let partial = tmpdir("m-partial");
    run_spec_service(
        &spec,
        &partial,
        &svc(|c| {
            c.slice_index = 1;
            c.slice_count = 3;
            c.max_cells = Some(1);
        }),
    )
    .expect("partial slice");
    let err = merge_dirs(
        &[partial.clone(), slices[1].clone(), slices[2].clone()],
        &merged,
    )
    .expect_err("incomplete slice");
    assert!(err.contains("incomplete"), "{err}");
    assert!(err.contains(JOURNAL_FILE), "error names the journal: {err}");

    for d in slices
        .into_iter()
        .chain([ref_dir, remerged, merged, partial])
    {
        std::fs::remove_dir_all(&d).unwrap();
    }
}

/// The model-mismatch axis rides through the service layer like any other
/// scenario parameter: a feedback-driven policy under injected faults is
/// still byte-identical across kill-and-resume and slice-merge.
#[test]
fn mismatch_axis_survives_resume_and_slicing() {
    let mut spec = ScenarioSpec {
        name: "svc-mm".into(),
        replications: 1,
        duration_s: 6.0,
        warmup_s: 1.0,
        ..ScenarioSpec::default()
    };
    spec.mixes = vec![TrafficMix::DataOnly];
    spec.loads = vec![3];
    spec.mismatch = vec![MismatchLevel::None, MismatchLevel::Combined];
    spec.policies = vec!["measured-region".into()];

    let ref_dir = tmpdir("mm-ref");
    let out = run_spec_service(&spec, &ref_dir, &svc(|_| {})).expect("uninterrupted run");
    assert!(out.finished);
    assert_eq!(out.newly_run, 2);
    let ref_csv = std::fs::read_to_string(ref_dir.join("svc-mm.csv")).unwrap();
    assert!(ref_csv.contains("mismatch=combined"), "{ref_csv}");
    assert!(ref_csv.contains("outage_rate"), "{ref_csv}");

    // Killed between the two cells, resumed.
    let dir = tmpdir("mm-resume");
    let out = run_spec_service(&spec, &dir, &svc(|c| c.max_cells = Some(1))).expect("first leg");
    assert!(!out.finished);
    let out = run_spec_service(&spec, &dir, &svc(|_| {})).expect("resume");
    assert!(out.finished);
    assert_eq!(
        std::fs::read_to_string(dir.join("svc-mm.csv")).unwrap(),
        ref_csv
    );

    // Two slices, merged.
    let slices: Vec<PathBuf> = (1..=2).map(|i| tmpdir(&format!("mm-s{i}"))).collect();
    for (i, d) in slices.iter().enumerate() {
        let out = run_spec_service(
            &spec,
            d,
            &svc(|c| {
                c.slice_index = i + 1;
                c.slice_count = 2;
            }),
        )
        .expect("slice run");
        assert!(out.finished);
    }
    let merged = tmpdir("mm-merged");
    merge_dirs(&slices, &merged).expect("merge of two slices");
    assert_eq!(
        std::fs::read_to_string(merged.join("svc-mm.csv")).unwrap(),
        ref_csv
    );

    for d in slices.into_iter().chain([ref_dir, dir, merged]) {
        std::fs::remove_dir_all(&d).unwrap();
    }
}

#[test]
fn corruption_and_mismatch_errors_name_files_and_fingerprints() {
    let spec = small_spec();
    let dir = tmpdir("err");
    run_spec_service(&spec, &dir, &svc(|c| c.max_cells = Some(2))).expect("partial run");

    // Interior journal corruption is fatal and names file + line.
    let jpath = dir.join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&jpath).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let corrupted = lines[0].replace(|c: char| c.is_ascii_hexdigit(), "z");
    lines[0] = &corrupted;
    std::fs::write(&jpath, format!("{}\n", lines.join("\n"))).unwrap();
    let err = run_spec_service(&spec, &dir, &svc(|_| {})).expect_err("corrupt journal");
    assert!(err.contains("corrupt journal line 1"), "{err}");
    assert!(err.contains(JOURNAL_FILE), "{err}");
    std::fs::write(&jpath, text).unwrap();

    // Fingerprint mismatch on resume names the manifest and both hashes.
    let mut edited = spec.clone();
    edited.description = "edited".into();
    let err = run_spec_service(&edited, &dir, &svc(|_| {})).expect_err("edited spec");
    assert!(err.contains("spec fingerprint mismatch"), "{err}");
    assert!(err.contains(MANIFEST_FILE), "{err}");
    assert!(
        err.contains(&format!("{:016x}", spec.fingerprint())),
        "{err}"
    );

    // Status on a missing directory is a clear error, not a panic.
    let missing = dir.join("no-such-dir");
    let err = campaign_status(&missing).expect_err("missing dir");
    assert!(err.contains("no campaign checkpoint"), "{err}");
    // Merge against a tampered spec file reports the fingerprint pair.
    let spec_path = dir.join("spec.toml");
    let spec_text = std::fs::read_to_string(&spec_path).unwrap();
    std::fs::write(&spec_path, spec_text.replace("svc-it", "svc-xx")).unwrap();
    let err = campaign_status(&dir).expect_err("tampered spec");
    assert!(err.contains("fingerprint mismatch"), "{err}");
    assert!(
        err.contains(&format!("{:016x}", spec.fingerprint())),
        "{err}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Copies every file of checkpoint `src` into a fresh directory `tag`.
fn copy_checkpoint(src: &Path, tag: &str) -> PathBuf {
    let dst = tmpdir(tag);
    std::fs::create_dir_all(&dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
    }
    dst
}

/// Asserts `result` is an error naming the manifest or the journal.
fn rejects<T: std::fmt::Debug>(result: Result<T, String>, what: &str) {
    let err = result.expect_err(what);
    assert!(
        err.contains(MANIFEST_FILE) || err.contains(JOURNAL_FILE),
        "{what}: the error must name the damaged file: {err}"
    );
}

/// Values no writer produces, in the fields that size or index the grid:
/// resume, `status` and `merge` each reject them as an error naming the
/// file — no panic, and nothing allocated or indexed by the bad value.
#[test]
fn hostile_checkpoints_are_errors_naming_the_file() {
    let spec = small_spec();
    let sliced = |i| {
        svc(move |c| {
            c.slice_index = i;
            c.slice_count = 2;
        })
    };
    // A finished two-slice set: slice 1 is damaged, slice 2 stays intact
    // so merge sees a complete, otherwise valid slice set.
    let slices: Vec<PathBuf> = (1..=2).map(|i| tmpdir(&format!("h-s{i}"))).collect();
    for (i, dir) in slices.iter().enumerate() {
        assert!(
            run_spec_service(&spec, dir, &sliced(i + 1))
                .unwrap()
                .finished
        );
    }
    let out = tmpdir("h-out");
    merge_dirs(&slices, &out).expect("the intact slice set merges");

    let check = |dir: &Path, case: &str| {
        rejects(run_spec_service(&spec, dir, &sliced(1)), case);
        rejects(campaign_status(dir), case);
        rejects(
            merge_dirs(&[dir.to_path_buf(), slices[1].clone()], &out),
            case,
        );
    };
    let manifest = std::fs::read_to_string(slices[0].join(MANIFEST_FILE)).unwrap();
    for (from, to) in [
        ("n_scenarios = 2", "n_scenarios = 18446744073709551615"),
        ("replications = 3", "replications = 1099511627776"),
        ("slice_count = 2", "slice_count = 18446744073709551615"),
    ] {
        assert!(manifest.contains(from), "{manifest}");
        let dir = copy_checkpoint(&slices[0], "h-manifest");
        std::fs::write(dir.join(MANIFEST_FILE), manifest.replace(from, to)).unwrap();
        check(&dir, to);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    let report = SimStats::new().report(3, 7);
    let dir = copy_checkpoint(&slices[0], "h-cell");
    JournalWriter::open(&dir)
        .unwrap()
        .append_cell(usize::MAX, &report)
        .unwrap();
    check(&dir, "cell usize::MAX");
    std::fs::remove_dir_all(&dir).unwrap();

    // A fold snapshot past the grid: resume must reject it, unsliced (where
    // folds are legitimate) as well as sliced.
    let whole = tmpdir("h-whole");
    assert!(
        run_spec_service(&spec, &whole, &svc(|_| {}))
            .unwrap()
            .finished
    );
    for (src, cfg) in [(&whole, svc(|_| {})), (&slices[0], sliced(1))] {
        let dir = copy_checkpoint(src, "h-fold");
        JournalWriter::open(&dir)
            .unwrap()
            .append_fold(usize::MAX, &[0; FOLD_STATE_WORDS])
            .unwrap();
        rejects(run_spec_service(&spec, &dir, &cfg), "fold usize::MAX");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    for d in slices.into_iter().chain([out, whole]) {
        std::fs::remove_dir_all(&d).unwrap();
    }
}
