//! The `campaign-service` workload: the builtin `model-mismatch` campaign
//! run through `wcdma campaign run` in service mode, killed after
//! `kill_after` cells (`--max-cells`, a deterministic simulated kill) and
//! resumed with `--trace` to its final artefacts.
//!
//! The untraced run times whole kill-and-resume sequences through the CLI.
//! The traced run times the campaign layer's pieces from here: journal
//! replay (`read_journal`), the fold and emitters, the trace pass, and a
//! `run_grid_jobs` grid whose completion callbacks give per-cell times,
//! worker busy time, and the cost of journal appends.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wcdma_sim::campaign::journal::{read_journal, JournalEntry, JournalWriter, JOURNAL_FILE};
use wcdma_sim::campaign::{
    campaign_csv, campaign_json, campaign_summary_json, run_grid_jobs, CampaignResult,
    ScenarioResult,
};
use wcdma_sim::ReplicationStats;

use crate::report::{mean, ms, percentile, ratio, us, Fnv, Outcome};
use crate::workloads::{frames_per_cell, CampaignSpec};

/// Where the run keeps its files, and the CLI it drives.
#[derive(Debug, Clone)]
pub struct Env {
    pub cli: PathBuf,
    pub work: PathBuf,
}

impl Env {
    fn spec_path(&self) -> PathBuf {
        self.work.join("spec.toml")
    }

    /// Runs the CLI to completion; returns its wall time and stdout, or an
    /// error naming the command when it exits non-zero.
    fn cli(&self, args: &[&str]) -> Result<(Duration, String), String> {
        let t = Instant::now();
        let out = Command::new(&self.cli)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.cli.display()))?;
        let wall = t.elapsed();
        if !out.status.success() {
            return Err(format!(
                "wcdma {} exited with {}: {}",
                args.join(" "),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Ok((wall, String::from_utf8_lossy(&out.stdout).into_owned()))
    }

    /// `wcdma campaign run` in service mode on `dir`, with extra flags.
    fn service(
        &self,
        w: &CampaignSpec,
        dir: &Path,
        extra: &[&str],
    ) -> Result<(Duration, String), String> {
        let shards = w.shards.to_string();
        let threads = w.frame_threads.to_string();
        let spec = self.spec_path();
        let mut args = vec![
            "campaign",
            "run",
            "--file",
            path_str(&spec),
            "--out-dir",
            path_str(dir),
            "--shards",
            &shards,
            "--frame-threads",
            &threads,
        ];
        args.extend_from_slice(extra);
        self.cli(&args)
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("work paths are UTF-8")
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn prepare(w: &CampaignSpec, env: &Env) -> Result<(), String> {
    std::fs::create_dir_all(&env.work)
        .map_err(|e| format!("cannot create {}: {e}", env.work.display()))?;
    std::fs::write(env.spec_path(), w.spec.to_toml())
        .map_err(|e| format!("cannot write the campaign spec: {e}"))
}

/// The artefacts a finished `--trace` service run leaves in its directory.
fn artefact_names(w: &CampaignSpec) -> [String; 4] {
    let name = &w.spec.name;
    [
        format!("{name}.csv"),
        format!("{name}.json"),
        "BENCH_campaign.json".to_string(),
        format!("{name}-trace.csv"),
    ]
}

/// Byte hash of the CSV/JSON/BENCH/trace artefacts, in a fixed order.
fn artefact_hash(w: &CampaignSpec, dir: &Path) -> Result<u64, String> {
    let mut h = Fnv::default();
    for name in artefact_names(w) {
        let path = dir.join(&name);
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("missing artefact {}: {e}", path.display()))?;
        h.u64(bytes.len() as u64);
        h.bytes(&bytes);
    }
    Ok(h.finish())
}

fn journal_cells(dir: &Path) -> Result<usize, String> {
    Ok(read_journal(dir)?
        .entries
        .iter()
        .filter(|e| matches!(e, JournalEntry::Cell { .. }))
        .count())
}

/// Kill after `kill_after` cells, check the journal holds exactly those,
/// then resume to the final artefacts. Returns the CLI wall time of the two
/// invocations (the journal check between them is not timed).
fn kill_and_resume(w: &CampaignSpec, env: &Env, dir: &Path) -> Result<Duration, String> {
    fresh_dir(dir);
    let kill = w.kill_after.to_string();
    let (first, _) = env.service(w, dir, &["--max-cells", &kill, "--trace"])?;
    let cells = journal_cells(dir)?;
    if cells != w.kill_after {
        return Err(format!(
            "the killed run journaled {cells} cells, expected {}",
            w.kill_after
        ));
    }
    let (second, _) = env.service(w, dir, &["--trace"])?;
    Ok(first + second)
}

/// Untraced run: repeated kill-and-resume sequences for `seconds`.
pub fn untraced(w: &CampaignSpec, env: &Env, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let fail = |e: String, failed: &mut u64| {
        eprintln!("campaign-service: {e}");
        *failed += 1;
    };
    if let Err(e) = prepare(w, env) {
        fail(e, &mut failed);
    }

    // Set-up: spec expansion plus checkpoint creation, in a CLI process
    // that stops before the first cell.
    let mut setup_s = Vec::new();
    for i in 0..w.setup_runs {
        let dir = env.work.join(format!("setup-{i}"));
        fresh_dir(&dir);
        attempted += 1;
        match env.service(w, &dir, &["--max-cells", "0"]) {
            Ok((wall, _)) if dir.join("manifest.toml").exists() => setup_s.push(wall.as_secs_f64()),
            Ok(_) => fail(format!("no checkpoint in {}", dir.display()), &mut failed),
            Err(e) => fail(e, &mut failed),
        }
        fresh_dir(&dir);
    }

    let budget = Duration::from_secs_f64(seconds);
    let frames = w.n_cells() as f64 * frames_per_cell();
    let mut walls = Vec::new();
    let mut hashes = BTreeSet::new();
    let start = Instant::now();
    // Another sequence starts only if it can end within the budget at the
    // pace of the last one.
    let mut last = Duration::ZERO;
    while walls.is_empty() || start.elapsed() + last <= budget {
        let dir = env.work.join(format!("rep-{}", walls.len()));
        attempted += 2;
        match kill_and_resume(w, env, &dir).and_then(|wall| Ok((wall, artefact_hash(w, &dir)?))) {
            Ok((wall, hash)) => {
                last = wall;
                walls.push(wall.as_secs_f64());
                hashes.insert(hash);
            }
            Err(e) => {
                fail(e, &mut failed);
                fresh_dir(&dir);
                break;
            }
        }
        fresh_dir(&dir);
    }

    // Outside timing: an uninterrupted run must produce the same bytes.
    let reference = env.work.join("reference");
    fresh_dir(&reference);
    attempted += 1;
    match env
        .service(w, &reference, &["--trace"])
        .and_then(|_| artefact_hash(w, &reference))
    {
        Ok(hash) => {
            hashes.insert(hash);
        }
        Err(e) => fail(e, &mut failed),
    }
    fresh_dir(&reference);
    if hashes.len() > 1 {
        fail(
            format!("artefacts differ between runs of one seed: {hashes:x?}"),
            &mut failed,
        );
    }

    // Frames are not timed one by one inside the CLI: the frame latency of
    // this workload is each sequence's host time per simulated frame.
    let per_frame_ms: Vec<f64> = walls.iter().map(|s| s * 1e3 / frames).collect();
    let total: f64 = walls.iter().sum();
    out.set("frames_per_s", ratio(frames * walls.len() as f64, total));
    out.set("frame_ms_p50", percentile(&per_frame_ms, 0.5));
    out.set("frame_ms_p99", percentile(&per_frame_ms, 0.99));
    out.set(
        "cells_per_s",
        ratio((w.n_cells() * walls.len()) as f64, total),
    );
    out.set("setup_s", percentile(&setup_s, 0.5));
    out.attempted = attempted;
    out.failed = failed;
    let fp = hashes.iter().next().copied().unwrap_or(0);
    out.info("fingerprint", format!("{fp:016x}"));
    out.info("sequences", walls.len());
    out.info("cells_per_sequence", w.n_cells());
    out.info("setup_runs", setup_s.len());
    out
}

/// Number of distinct scenarios in a trace CSV (the first column, which
/// may be quoted).
fn trace_scenarios(csv: &str) -> usize {
    let mut labels = BTreeSet::new();
    for line in csv.lines().skip(1) {
        let label = if let Some(rest) = line.strip_prefix('"') {
            let mut end = 0;
            let bytes = rest.as_bytes();
            while end < bytes.len() {
                if bytes[end] == b'"' {
                    if bytes.get(end + 1) == Some(&b'"') {
                        end += 2;
                        continue;
                    }
                    break;
                }
                end += 1;
            }
            &rest[..end]
        } else {
            line.split(',').next().unwrap_or("")
        };
        labels.insert(label.to_string());
    }
    labels.len()
}

/// Fold and emit a finished journal the way the service does, returning
/// the CSV, JSON, and BENCH documents.
fn fold_and_emit(
    w: &CampaignSpec,
    cells: &HashMap<usize, wcdma_sim::SimReport>,
) -> Result<[String; 3], String> {
    let scenarios = w.spec.expand()?;
    let reps = w.spec.replications;
    let mut results = Vec::with_capacity(scenarios.len());
    for (si, scenario) in scenarios.into_iter().enumerate() {
        let mut stats = ReplicationStats::new();
        let mut reports = Vec::with_capacity(reps);
        for rep in 0..reps {
            let r = cells
                .get(&(si * reps + rep))
                .ok_or_else(|| format!("journal lacks cell {}", si * reps + rep))?
                .clone();
            stats.push(&r);
            reports.push(r);
        }
        results.push(ScenarioResult {
            scenario,
            stats,
            reports,
        });
    }
    let result = CampaignResult {
        name: w.spec.name.clone(),
        replications: reps,
        scenarios: results,
    };
    Ok([
        campaign_csv(&result),
        campaign_json(&result),
        campaign_summary_json(&result),
    ])
}

/// Traced run: per-layer spans and counts of the campaign layer.
pub fn traced(w: &CampaignSpec, env: &Env) -> Outcome {
    let mut out = Outcome::default();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    if let Err(e) = traced_into(w, env, &mut out, &mut attempted) {
        eprintln!("campaign-service: {e}");
        failed += 1;
    }
    out.attempted = attempted;
    out.failed += failed;
    out
}

fn traced_into(
    w: &CampaignSpec,
    env: &Env,
    out: &mut Outcome,
    attempted: &mut u64,
) -> Result<(), String> {
    prepare(w, env)?;
    let dir = env.work.join("traced");
    fresh_dir(&dir);
    let kill = w.kill_after.to_string();
    *attempted += 1;
    env.service(w, &dir, &["--max-cells", &kill, "--trace"])?;

    // Reads: replaying the half-done journal.
    let mut replay_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let contents = read_journal(&dir)?;
        replay_ms.push(ms(t.elapsed()));
        std::hint::black_box(contents.entries.len());
    }

    *attempted += 1;
    env.service(w, &dir, &["--trace"])?;
    let journal = read_journal(&dir)?;
    let journal_bytes = std::fs::metadata(dir.join(JOURNAL_FILE))
        .map_err(|e| format!("cannot stat the journal: {e}"))?
        .len();
    let cells: HashMap<usize, wcdma_sim::SimReport> = journal
        .entries
        .iter()
        .filter_map(|e| match e {
            JournalEntry::Cell { job, report } => Some((*job, report.clone())),
            JournalEntry::Fold { .. } => None,
        })
        .collect();

    // Fold + emit, checked byte for byte against the CLI's artefacts.
    let mut emit_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let docs = fold_and_emit(w, &cells)?;
        emit_ms.push(ms(t.elapsed()));
        for (doc, name) in docs.iter().zip(artefact_names(w)) {
            let on_disk = std::fs::read_to_string(dir.join(&name))
                .map_err(|e| format!("missing artefact {name}: {e}"))?;
            if *doc != on_disk {
                out.failed += 1;
                eprintln!("campaign-service: in-process fold of {name} differs from the CLI's");
            }
        }
    }

    // The trace pass: re-finalizing the finished checkpoint with and
    // without `--trace` differs only by the trace.
    *attempted += 2;
    let (plain, _) = env.service(w, &dir, &[])?;
    let (with_trace, stdout) = env.service(w, &dir, &["--trace"])?;
    let trace_csv = std::fs::read_to_string(dir.join(&artefact_names(w)[3]))
        .map_err(|e| format!("missing trace artefact: {e}"))?;
    // Cells the trace pass simulates again after the campaign: today every
    // traced scenario's first replication.
    let trace_cells = if stdout.contains("tracing policy decisions") {
        trace_scenarios(&trace_csv)
    } else {
        0
    };
    fresh_dir(&dir);

    // The grid itself, in process: per-cell times from the completion
    // callbacks, plus a benchmark-owned journal taking every cell.
    let grid_dir = env.work.join("grid");
    fresh_dir(&grid_dir);
    std::fs::create_dir_all(&grid_dir).map_err(|e| format!("cannot create grid dir: {e}"))?;
    let scenarios = w.spec.expand()?;
    let jobs: Vec<usize> = (0..w.n_cells()).collect();
    struct Grid {
        writer: JournalWriter,
        last: HashMap<std::thread::ThreadId, Instant>,
        cell_s: Vec<f64>,
        append_us: Vec<f64>,
        error: Option<String>,
    }
    let start = Instant::now();
    let grid = Mutex::new(Grid {
        writer: JournalWriter::open(&grid_dir)?,
        last: HashMap::new(),
        cell_s: Vec::new(),
        append_us: Vec::new(),
        error: None,
    });
    *attempted += w.n_cells() as u64;
    run_grid_jobs(
        &scenarios,
        w.spec.replications,
        &jobs,
        w.shards,
        w.frame_threads,
        None,
        &AtomicBool::new(false),
        &|job, report| {
            let done = Instant::now();
            let mut g = grid.lock().expect("grid lock");
            let since = *g.last.get(&std::thread::current().id()).unwrap_or(&start);
            g.cell_s.push((done - since).as_secs_f64());
            let t = Instant::now();
            if let Err(e) = g.writer.append_cell(job, report) {
                g.error = Some(e);
            }
            let append = t.elapsed();
            g.append_us.push(us(append));
            g.last.insert(std::thread::current().id(), Instant::now());
        },
    );
    let wall = start.elapsed().as_secs_f64();
    let g = grid.into_inner().expect("grid lock");
    if let Some(e) = g.error {
        return Err(e);
    }
    let workers = g.last.len().max(1) as f64;
    fresh_dir(&grid_dir);

    let mut startup_ms = Vec::new();
    for _ in 0..5 {
        *attempted += 1;
        let (t, _) = env.cli(&["policy", "list"])?;
        startup_ms.push(ms(t));
    }

    out.set("sim.campaign.cell_s_p50", percentile(&g.cell_s, 0.5));
    out.set("sim.campaign.cell_s_p90", percentile(&g.cell_s, 0.9));
    out.set(
        "sim.campaign.worker_busy_frac",
        ratio(g.cell_s.iter().sum(), workers * wall),
    );
    out.set("sim.campaign.journal_append_us", mean(&g.append_us));
    out.set("sim.campaign.journal_bytes", journal_bytes as f64);
    out.set("sim.campaign.journal_lines", journal.entries.len() as f64);
    out.set("sim.campaign.replay_ms", percentile(&replay_ms, 0.5));
    out.set("sim.campaign.emit_ms", percentile(&emit_ms, 0.5));
    out.set(
        "sim.campaign.trace_s",
        (with_trace.as_secs_f64() - plain.as_secs_f64()).max(0.0),
    );
    out.set("sim.campaign.trace_cells", trace_cells as f64);
    out.set("cli.startup_ms", percentile(&startup_ms, 0.5));
    out.info("grid_cells", g.cell_s.len());
    out.info("grid_workers", workers);
    Ok(())
}
