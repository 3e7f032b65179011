//! The campaign service: durable, resumable, partitionable campaign runs.
//!
//! [`run_spec_service`] is [`super::runner::run_spec`]
//! wrapped in a checkpoint directory (see [`super::journal`] for the
//! on-disk format): every completed replication is journaled as it
//! finishes, so a killed run restarts and skips finished cells, and
//! artefact rows stream out as scenarios complete instead of buffering to
//! the end. Three properties make the resumed output **byte-identical**
//! to an uninterrupted run:
//!
//! 1. a replication's seed depends only on its grid coordinates, so
//!    re-running the missing cells reproduces them bit-exactly
//!    ([`super::runner::run_grid_jobs`]);
//! 2. the cross-replication fold happens in canonical replication order
//!    regardless of completion order, and journaled reports round-trip
//!    bit-exactly ([`crate::stats::SimReport::encode_record`]);
//! 3. the streamed artefacts are composed from the same pieces as the
//!    batch emitters ([`super::emit`]), and on every start the partials
//!    are rebuilt from the journal alone — a kill mid-append to an
//!    artefact cannot leave any trace.
//!
//! An observing run ([`ServiceConfig::observe`], behind `--trace` and
//! `--sched-stats`) watches replication 0 of every scenario while it runs
//! that cell, and lands the observation in the checkpoint before the cell's
//! journal line; see `docs/CHECKPOINT_FORMAT.md` for the re-run rule that
//! covers first replications journaled by an unobserved run.
//!
//! `slice_count > 1` partitions the job grid round-robin across
//! independent processes: each slice journals its own cells and emits no
//! artefacts; [`super::merge`] folds the slice directories into artefacts
//! byte-identical to a single-process run.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::stats::{ReplicationStats, SimReport};
use crate::table::Table;

use super::emit;
use super::journal::{
    observation_file, read_observation, repair_tail, validate_name, write_atomic,
    write_observation, Checkpoint, JournalWriter, Manifest, CHECKPOINT_FORMAT_VERSION,
    JOURNAL_FILE, MANIFEST_FILE, SPEC_FILE,
};
use super::runner::{check_candidates, run_jobs, Observation, RunOptions, ScenarioResult};
use super::spec::{Scenario, ScenarioSpec};

/// Environment variable: milliseconds to sleep after journaling each
/// cell. Zero-cost when unset; CI's kill-and-resume leg sets it so a
/// `--quick` campaign is guaranteed to still be mid-grid when the SIGKILL
/// lands.
pub const PACE_ENV: &str = "WCDMA_SERVICE_PACE_MS";

/// Knobs for a service-mode campaign run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// How the cells run. The thread knobs never affect results;
    /// `candidates` does, which is why it is part of the checkpoint
    /// identity.
    pub run: RunOptions,
    /// 1-based slice index (`1` for an unsliced run).
    pub slice_index: usize,
    /// Total slice count (`1` for an unsliced run).
    pub slice_count: usize,
    /// Stop after journaling this many new cells — a deterministic
    /// simulated kill for tests; `None` runs to the end. A hard limit
    /// even with `shards > 1`: completions in flight when it lands are
    /// dropped (as a real kill would drop them) and re-run on resume.
    pub max_cells: Option<usize>,
    /// Observe replication 0 of every scenario (`--trace`,
    /// `--sched-stats`; unsliced runs only): each observed cell's
    /// [`Observation`] lands in the checkpoint before the cell is
    /// journaled, and a finished run returns them all.
    pub observe: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            run: RunOptions::default(),
            slice_index: 1,
            slice_count: 1,
            max_cells: None,
            observe: false,
        }
    }
}

/// What a service run did.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// Whether every cell this slice owns is now journaled — and, for an
    /// observing run, every scenario observed — and, for an unsliced run,
    /// the final artefacts written.
    pub finished: bool,
    /// Cells simulated and journaled by *this* invocation.
    pub newly_run: usize,
    /// Cells skipped because the journal already had them.
    pub skipped: usize,
    /// Journaled replication-0 cells simulated again by *this* invocation
    /// only to observe them — their run had not observed. They are not
    /// journaled again.
    pub reobserved: usize,
    /// Total cells this slice owns.
    pub slice_jobs: usize,
    /// Final artefact paths (empty for sliced or stopped-early runs).
    pub artefacts: Vec<PathBuf>,
    /// Every scenario's [`Observation`], in expansion order, when the run
    /// observed and finished; empty otherwise.
    pub observations: Vec<Observation>,
}

/// Flattened raw state of every cross-replication accumulator — the
/// payload of a journal `fold` tripwire line.
fn fold_raw(stats: &ReplicationStats) -> Vec<u64> {
    stats
        .welfords()
        .iter()
        .flat_map(|w| w.to_raw_parts())
        .collect()
}

/// In-memory streamed artefact state for an unsliced run: the exact
/// bytes written so far, plus the emit frontier (scenarios whose rows
/// have streamed out, always a prefix of canonical order).
struct Artefacts {
    csv: String,
    json: String,
    summary: String,
    frontier: usize,
}

impl Artefacts {
    /// Streams out, in canonical order, every scenario past the frontier
    /// whose replications are all in `completed`, and returns their folded
    /// results — folded exactly as the batch runner folds them.
    fn advance(
        &mut self,
        scenarios: &[Scenario],
        n_reps: usize,
        axis_keys: &[String],
        completed: &HashMap<usize, SimReport>,
    ) -> Vec<ScenarioResult> {
        let mut done = Vec::new();
        while let Some(scenario) = scenarios.get(self.frontier) {
            let jobs = self.frontier * n_reps..(self.frontier + 1) * n_reps;
            let Some(reports) = jobs.map(|job| completed.get(&job).cloned()).collect() else {
                break;
            };
            let sr = ScenarioResult::fold(scenario.clone(), reports);
            if self.frontier > 0 {
                self.json.push_str(emit::JSON_SCENARIO_SEP);
                self.summary.push_str(emit::JSON_SCENARIO_SEP);
            }
            self.csv.push_str(&emit::campaign_csv_row(&sr, axis_keys));
            self.json.push_str(&emit::campaign_json_scenario(&sr));
            self.summary.push_str(&emit::campaign_summary_scenario(&sr));
            self.frontier += 1;
            done.push(sr);
        }
        done
    }
}

/// Runs (or resumes) `spec` as a durable campaign rooted at `dir`.
/// Creates the checkpoint on first use, validates it on resume, journals
/// every completed cell, streams artefact rows as scenarios complete
/// (unsliced runs only), and finalizes atomically when the slice's last
/// cell lands. With [`ServiceConfig::observe`] the run also observes
/// replication 0 of every scenario in the same pass; a finished run is one
/// whose cells are all journaled and, when observing, all observed.
pub fn run_spec_service(
    spec: &ScenarioSpec,
    dir: &Path,
    cfg: &ServiceConfig,
) -> Result<ServiceOutcome, String> {
    if cfg.slice_count == 0 || cfg.slice_index == 0 || cfg.slice_index > cfg.slice_count {
        return Err(format!(
            "bad grid slice {}/{} (need 1 ≤ index ≤ count)",
            cfg.slice_index, cfg.slice_count
        ));
    }
    if cfg.observe && cfg.slice_count > 1 {
        return Err("observing a campaign (--trace, --sched-stats) needs an unsliced run".into());
    }
    // Checked before any file is created so a bad name cannot leave a
    // half-built checkpoint directory behind.
    validate_name(&spec.name)?;
    let scenarios = spec.expand()?;
    check_candidates(&scenarios, cfg.run.candidates)?;
    let n_reps = spec.replications;
    let want = Manifest {
        format: CHECKPOINT_FORMAT_VERSION,
        name: spec.name.clone(),
        fingerprint: spec.fingerprint(),
        canonical_order_version: wcdma_math::CANONICAL_ORDER_VERSION,
        n_scenarios: scenarios.len(),
        replications: n_reps,
        slice_index: cfg.slice_index,
        slice_count: cfg.slice_count,
        candidates: cfg.run.candidates,
    };
    if !dir.join(MANIFEST_FILE).exists() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        // Spec first, manifest last: a manifest's presence implies a
        // complete checkpoint directory.
        write_atomic(&dir.join(SPEC_FILE), &spec.to_toml())?;
        want.store(dir)?;
    }

    // Replay the checkpoint: every already-finished cell, plus the fold
    // tripwires to verify below. The manifest must be the one this run
    // would create, so the spec itself is not re-read.
    let ckpt = Checkpoint::open(dir)?;
    ckpt.manifest.check_compat(&want, dir, "this run")?;
    // A kill can leave the journal tail unterminated (a torn fragment, or
    // a complete record missing its '\n'); repair it before the
    // append-mode reopen below so the first resumed line is not glued
    // onto the old tail — a glued line fails its checksum on every later
    // read, bricking status/merge/second resumes.
    repair_tail(dir, ckpt.torn_tail)?;
    let jpath = dir.join(JOURNAL_FILE);

    let axis_keys = emit::axis_keys(scenarios.first());
    let files = emit::artefact_files(&want.name);
    let write_partials = |a: &Artefacts| -> Result<(), String> {
        for (file, doc) in files.iter().zip([&a.csv, &a.json, &a.summary]) {
            let path = dir.join(format!("{file}.partial"));
            std::fs::write(&path, doc)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        Ok(())
    };

    // Rebuild the streamed artefacts from the journal alone (unsliced
    // runs): partial files on disk may be torn by a kill mid-append, so
    // they are never read — artefact state is a pure function of journal
    // state.
    let mut art = (cfg.slice_count == 1).then(|| Artefacts {
        csv: emit::campaign_csv_header(&axis_keys),
        json: emit::campaign_json_open(&spec.name, n_reps, scenarios.len()),
        summary: emit::campaign_summary_open(&spec.name, scenarios.len(), n_reps),
        frontier: 0,
    });
    if let Some(a) = &mut art {
        let replayed = a.advance(&scenarios, n_reps, &axis_keys, &ckpt.cells);
        // Fold tripwires: the journaled cross-replication fold must match
        // this binary's refold of the same cells bit-for-bit.
        for (si, state) in &ckpt.folds {
            let Some(sr) = replayed.get(*si) else {
                return Err(format!(
                    "{}: fold snapshot for scenario {si} but that scenario's cells are \
                     incomplete — the journal is corrupt",
                    jpath.display()
                ));
            };
            if fold_raw(&sr.stats) != *state {
                return Err(format!(
                    "{}: fold snapshot mismatch for scenario {si}: the journaled fold differs \
                     from this binary's refold of the same cells — the journal is corrupt or \
                     was written by an incompatible build",
                    jpath.display()
                ));
            }
        }
        write_partials(a)?;
    } else if !ckpt.folds.is_empty() {
        return Err(format!(
            "{}: fold snapshot in a sliced journal (slice {}/{}) — slices never write folds, \
             so the journal is corrupt",
            jpath.display(),
            want.slice_index,
            want.slice_count
        ));
    }

    let slice_jobs = want.slice_jobs();
    let skipped = slice_jobs
        .iter()
        .filter(|j| ckpt.cells.contains_key(j))
        .count();
    // An observing run also re-runs every journaled replication 0 whose
    // observation is missing. An observed cell lands its observation before
    // its journal line, so only an unobserved run can have left one.
    let observed = |si: usize| dir.join(observation_file(si)).exists();
    let todo: Vec<usize> = slice_jobs
        .iter()
        .copied()
        .filter(|&j| {
            !ckpt.cells.contains_key(&j)
                || (cfg.observe && j % n_reps == 0 && !observed(j / n_reps))
        })
        .collect();
    let pace_ms: u64 = std::env::var(PACE_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    struct Shared {
        completed: HashMap<usize, SimReport>,
        writer: JournalWriter,
        art: Option<Artefacts>,
        newly: usize,
        reobserved: usize,
        error: Option<String>,
    }
    let stop = AtomicBool::new(cfg.max_cells == Some(0));
    let shared = Mutex::new(Shared {
        completed: ckpt.cells,
        writer: JournalWriter::open(dir)?,
        art,
        newly: 0,
        reobserved: 0,
        error: None,
    });
    run_jobs(
        &scenarios,
        n_reps,
        &todo,
        &cfg.run,
        &stop,
        cfg.observe,
        |job, report, observation| {
            let mut s = shared.lock().unwrap();
            if s.error.is_some() {
                return;
            }
            // The simulated kill already landed: drop in-flight
            // completions instead of journaling past the limit (a real
            // SIGKILL drops them too); a resume re-runs them
            // bit-identically.
            if cfg.max_cells.is_some_and(|max| s.newly >= max) {
                return;
            }
            // Returns whether the cell was journaled now.
            let step = (|s: &mut Shared| -> Result<bool, String> {
                if let Some(obs) = &observation {
                    write_observation(dir, job / n_reps, obs)?;
                }
                if s.completed.contains_key(&job) {
                    s.reobserved += 1;
                    return Ok(false);
                }
                s.writer.append_cell(job, &report)?;
                s.completed.insert(job, report);
                if let Some(a) = s.art.as_mut() {
                    let before = a.frontier;
                    let done = a.advance(&scenarios, n_reps, &axis_keys, &s.completed);
                    for (i, sr) in done.iter().enumerate() {
                        s.writer.append_fold(before + i, &fold_raw(&sr.stats))?;
                    }
                    if !done.is_empty() {
                        write_partials(a)?;
                    }
                }
                Ok(true)
            })(&mut s);
            match step {
                Err(e) => {
                    s.error = Some(e);
                    stop.store(true, Ordering::Relaxed);
                }
                Ok(false) => {}
                Ok(true) => {
                    s.newly += 1;
                    if pace_ms > 0 {
                        std::thread::sleep(Duration::from_millis(pace_ms));
                    }
                    if cfg.max_cells.is_some_and(|max| s.newly >= max) {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            }
        },
    );

    let mut s = shared.into_inner().unwrap();
    if let Some(e) = s.error {
        return Err(e);
    }
    let journaled = slice_jobs.iter().all(|j| s.completed.contains_key(j));
    let observations = if journaled && cfg.observe {
        scenarios
            .iter()
            .enumerate()
            .map(|(si, sc)| read_observation(dir, si, &sc.label))
            .collect::<Result<Option<Vec<_>>, _>>()?
    } else {
        Some(Vec::new())
    };
    // A run stopped before it re-observed every scenario is not finished.
    let finished = journaled && observations.is_some();
    let mut artefacts = Vec::new();
    if finished {
        if let Some(a) = &mut s.art {
            // Atomic finalize: the closed documents land under their
            // final names via tmp + rename, then the partials go away.
            a.json.push_str(emit::CAMPAIGN_JSON_CLOSE);
            a.summary.push_str(emit::CAMPAIGN_JSON_CLOSE);
            artefacts = emit::write_artefacts(dir, &want.name, [&a.csv, &a.json, &a.summary])?;
            for file in &files {
                let _ = std::fs::remove_file(dir.join(format!("{file}.partial")));
            }
        }
    }
    Ok(ServiceOutcome {
        finished,
        newly_run: s.newly,
        skipped,
        reobserved: s.reobserved,
        slice_jobs: slice_jobs.len(),
        artefacts,
        observations: observations.unwrap_or_default(),
    })
}

/// Renders a progress report for the checkpoint at `dir`: one row per
/// scenario plus a headline, without running anything.
pub fn status(dir: &Path) -> Result<String, String> {
    let ckpt = Checkpoint::open(dir)?;
    let scenarios = ckpt.expand_spec()?;
    let manifest = &ckpt.manifest;
    let mut done = vec![0; scenarios.len()];
    for job in ckpt.cells.keys() {
        done[job / manifest.replications] += 1;
    }
    let mut t = Table::new(&["scenario", "done", "of", "state"]);
    let mut total_done = 0;
    for (si, sc) in scenarios.iter().enumerate() {
        let owned = (0..manifest.replications)
            .filter(|rep| manifest.owns_job(si * manifest.replications + rep))
            .count();
        let d = done[si];
        total_done += d;
        let state = if owned == 0 {
            "not in slice"
        } else if d == owned {
            "complete"
        } else if d > 0 {
            "running"
        } else {
            "pending"
        };
        t.row(&[
            sc.label.clone(),
            d.to_string(),
            owned.to_string(),
            state.into(),
        ]);
    }
    let slice_total = manifest.slice_jobs().len();
    Ok(format!(
        "campaign {:?} · slice {}/{} · {total_done}/{slice_total} cells journaled{}\n\n{}",
        manifest.name,
        manifest.slice_index,
        manifest.slice_count,
        if ckpt.torn_tail {
            " · torn tail dropped (killed mid-append)"
        } else {
            ""
        },
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcdma-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn one_shard() -> RunOptions {
        RunOptions {
            shards: 1,
            ..RunOptions::default()
        }
    }

    fn tiny_spec() -> ScenarioSpec {
        // 1 scenario × 2 replications, 3 data users, 6 simulated seconds —
        // small enough that every unit test here runs real cells.
        let mut spec = ScenarioSpec {
            name: "tiny".into(),
            replications: 2,
            duration_s: 6.0,
            warmup_s: 1.0,
            ..ScenarioSpec::default()
        };
        spec.mixes = vec![crate::campaign::spec::TrafficMix::DataOnly];
        spec.loads = vec![3];
        spec
    }

    #[test]
    fn missing_dir_errors_name_the_directory() {
        let dir = tmpdir("missing").join("nope");
        let err = status(&dir).expect_err("no checkpoint");
        assert!(err.contains("no campaign checkpoint"), "{err}");
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn resume_with_edited_spec_names_both_fingerprints() {
        let dir = tmpdir("fpr");
        let spec = tiny_spec();
        let cfg = ServiceConfig {
            run: one_shard(),
            max_cells: Some(1),
            ..ServiceConfig::default()
        };
        run_spec_service(&spec, &dir, &cfg).expect("first leg");
        let mut edited = spec.clone();
        edited.seed ^= 1;
        let err = run_spec_service(&edited, &dir, &cfg).expect_err("edited spec");
        assert!(err.contains("spec fingerprint mismatch"), "{err}");
        assert!(
            err.contains(MANIFEST_FILE),
            "error must name the file: {err}"
        );
        assert!(
            err.contains(&format!("{:016x}", spec.fingerprint())),
            "error must name the expected fingerprint: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slice_mismatch_and_candidate_mismatch_are_rejected() {
        let dir = tmpdir("mismatch");
        let spec = tiny_spec();
        let cfg = ServiceConfig {
            run: one_shard(),
            max_cells: Some(0),
            ..ServiceConfig::default()
        };
        run_spec_service(&spec, &dir, &cfg).expect("create checkpoint");
        let err = run_spec_service(
            &spec,
            &dir,
            &ServiceConfig {
                slice_index: 1,
                slice_count: 2,
                ..cfg.clone()
            },
        )
        .expect_err("slice mismatch");
        assert!(err.contains("grid slice mismatch"), "{err}");
        let err = run_spec_service(
            &spec,
            &dir,
            &ServiceConfig {
                run: RunOptions {
                    candidates: Some((3, 8)),
                    ..cfg.run
                },
                ..cfg.clone()
            },
        )
        .expect_err("candidate mismatch");
        assert!(err.contains("candidate-list mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_cells_is_a_hard_limit_even_with_many_shards() {
        let dir = tmpdir("maxcells");
        let mut spec = tiny_spec();
        spec.replications = 4;
        let out = run_spec_service(
            &spec,
            &dir,
            &ServiceConfig {
                run: RunOptions {
                    shards: 4,
                    ..RunOptions::default()
                },
                max_cells: Some(2),
                ..ServiceConfig::default()
            },
        )
        .expect("limited run");
        assert!(!out.finished);
        assert_eq!(
            out.newly_run, 2,
            "completions in flight when the limit lands are dropped, not journaled"
        );
        let out = run_spec_service(
            &spec,
            &dir,
            &ServiceConfig {
                run: RunOptions {
                    shards: 2,
                    ..RunOptions::default()
                },
                ..ServiceConfig::default()
            },
        )
        .expect("resume");
        assert!(out.finished);
        assert_eq!(out.skipped, 2);
        assert_eq!(out.newly_run, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn status_reports_progress_per_scenario() {
        let dir = tmpdir("status");
        let spec = tiny_spec();
        let cfg = ServiceConfig {
            run: one_shard(),
            max_cells: Some(1),
            ..ServiceConfig::default()
        };
        let out = run_spec_service(&spec, &dir, &cfg).expect("partial run");
        assert!(!out.finished);
        assert_eq!(out.newly_run, 1);
        let report = status(&dir).expect("status");
        assert!(report.contains("campaign \"tiny\""), "{report}");
        assert!(report.contains("1/2 cells journaled"), "{report}");
        assert!(
            report.contains("running") || report.contains("pending"),
            "{report}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
