//! Sharded parallel campaign execution.
//!
//! The runner flattens the campaign into a (scenario × replication) job
//! grid and lets `shards` worker threads steal jobs off a shared atomic
//! cursor — no static chunking, so a slow scenario cannot strand the other
//! workers. Every replication derives its seed from its scenario's seed
//! (`mix_seed(scenario_seed, 1 + rep)`) and is therefore bit-reproducible
//! in isolation; the per-scenario statistics are folded *after* the
//! parallel phase, in replication order, through the streaming
//! [`ReplicationStats`], so the campaign result is bit-identical for every
//! shard count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use wcdma_admission::SchedStats;

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::stats::{ReplicationStats, SimReport};
use crate::trace::{run_with_trace, DecisionRecord};

use super::spec::{Scenario, ScenarioSpec};

/// One scenario's aggregated campaign outcome.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The matrix cell that produced this result.
    pub scenario: Scenario,
    /// Streaming cross-replication statistics (fold order = replication
    /// order, independent of scheduling).
    pub stats: ReplicationStats,
    /// The raw per-replication reports, in replication order.
    pub reports: Vec<SimReport>,
}

/// A completed campaign: one [`ScenarioResult`] per matrix cell, in
/// expansion order.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Campaign name (file stem for the emitters).
    pub name: String,
    /// Replications per scenario.
    pub replications: usize,
    /// Per-scenario results, in matrix expansion order.
    pub scenarios: Vec<ScenarioResult>,
}

/// Caps the per-replication intra-frame thread count so that
/// `shards × frame_threads` never oversubscribes the machine: the
/// per-shard core budget is `available_cores / shards` (at least 1).
/// `requested == 0` takes the whole budget; an explicit request is
/// honoured up to the budget. Any outcome is safe — `frame_threads`
/// never changes results — this only arbitrates throughput.
pub fn arbitrate_frame_threads(requested: usize, shards: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let budget = (cores / shards.max(1)).max(1);
    if requested == 0 {
        budget
    } else {
        requested.min(budget)
    }
}

/// The configuration of replication `rep` of a scenario: its seed substream
/// `mix_seed(seed, 1 + rep)`, plus the candidate-cell-list override when
/// one is given.
fn replication_cfg(base: &SimConfig, rep: usize, candidates: Option<(usize, usize)>) -> SimConfig {
    let mut cfg = base.with_seed(wcdma_math::mix_seed(base.seed, 1 + rep as u64));
    if let Some((k, refresh)) = candidates {
        cfg.candidate_k = k;
        cfg.candidate_refresh = refresh;
    }
    cfg
}

/// Expands a spec and checks a candidate-cell-list override against every
/// scenario, so a bad override (refresh = 0, k below the active-set size)
/// is a normal error instead of a panic inside a worker thread.
fn expand_with_candidates(
    spec: &ScenarioSpec,
    candidates: Option<(usize, usize)>,
) -> Result<Vec<Scenario>, String> {
    let scenarios = spec.expand()?;
    if let Some((k, refresh)) = candidates {
        for sc in &scenarios {
            sc.cfg
                .with_candidates(k, refresh)
                .validate()
                .map_err(|e| format!("scenario {:?}: {e}", sc.label))?;
        }
    }
    Ok(scenarios)
}

/// Worker threads for `n_jobs` jobs: `shards` (`0` ⇒ one per available
/// core), never more than there are jobs, and at least one.
fn worker_count(shards: usize, n_jobs: usize) -> usize {
    let wanted = if shards == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        shards
    };
    wanted.min(n_jobs).max(1)
}

/// Runs `work(i)` once for every `i < n_jobs` on `workers` scoped threads
/// that claim indices off a shared atomic cursor, so a slow job cannot
/// strand the other workers. Setting `stop` makes every worker exit before
/// claiming another index.
fn steal_jobs(n_jobs: usize, workers: usize, stop: &AtomicBool, work: impl Fn(usize) + Sync) {
    let cursor = AtomicUsize::new(0);
    let (cursor, work) = (&cursor, &work);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let next = cursor.fetch_add(1, Ordering::Relaxed);
                if next >= n_jobs {
                    break;
                }
                work(next);
            });
        }
    });
}

/// Runs an arbitrary subset of the (scenario × replication) job grid.
/// `jobs` holds global job indices (`scenario * n_reps + replication`);
/// `shards` workers (`0` ⇒ one per core) steal them off a shared cursor
/// and invoke `on_complete(job, &report)` from the worker thread as each
/// cell finishes — completion order is nondeterministic, so the callback
/// must key everything on the job index.
///
/// Every cell is bit-identical to the same cell of a full
/// [`run_campaign_threads_candidates`] run: a replication's seed depends
/// only on its grid coordinates, so *which* subset runs (and on how many
/// workers) cannot change any cell. This is what makes checkpoint resume
/// and multi-process grid slicing byte-exact.
///
/// Setting `stop` makes every worker exit before claiming another job;
/// cells already in flight still complete and are reported. The
/// checkpoint service uses it to honour `--max-cells` (a deterministic
/// simulated kill) without tearing a cell in half.
#[allow(clippy::too_many_arguments)]
pub fn run_grid_jobs(
    scenarios: &[Scenario],
    n_reps: usize,
    jobs: &[usize],
    shards: usize,
    frame_threads: usize,
    candidates: Option<(usize, usize)>,
    stop: &AtomicBool,
    on_complete: &(dyn Fn(usize, &SimReport) + Sync),
) {
    if jobs.is_empty() {
        return;
    }
    let workers = worker_count(shards, jobs.len());
    let frame_threads = arbitrate_frame_threads(frame_threads, workers);
    steal_jobs(jobs.len(), workers, stop, |next| {
        let job = jobs[next];
        let (si, rep) = (job / n_reps, job % n_reps);
        let mut cfg = replication_cfg(&scenarios[si].cfg, rep, candidates);
        cfg.frame_threads = frame_threads;
        let report = Simulation::new(cfg).run();
        on_complete(job, &report);
    });
}

/// Runs every scenario `n_reps` times across `shards` worker threads
/// (`shards == 0` ⇒ one per available core). Work-stealing over the job
/// grid; deterministic per-replication seed substreams; the result is
/// bit-identical for every shard count. Each replication runs with one
/// intra-frame thread — use [`run_campaign_threads`] to also parallelize
/// within frames.
pub fn run_campaign(
    name: &str,
    scenarios: Vec<Scenario>,
    n_reps: usize,
    shards: usize,
) -> CampaignResult {
    run_campaign_threads(name, scenarios, n_reps, shards, 1)
}

/// [`run_campaign`] with nested parallelism: every replication runs its
/// frame pipeline on `frame_threads` threads (`0` ⇒ auto), arbitrated by
/// [`arbitrate_frame_threads`] against the shard count so the two
/// parallelism layers never oversubscribe the cores. Results are
/// bit-identical for every `(shards, frame_threads)` combination: shard
/// invariance comes from the replication-order fold, frame-thread
/// invariance from the fixed-chunk-order fold inside the frame pipeline.
pub fn run_campaign_threads(
    name: &str,
    scenarios: Vec<Scenario>,
    n_reps: usize,
    shards: usize,
    frame_threads: usize,
) -> CampaignResult {
    run_campaign_threads_candidates(name, scenarios, n_reps, shards, frame_threads, None)
}

/// [`run_campaign_threads`] with a candidate-cell-list override: when
/// `candidates` is `Some((k, refresh))`, every replication runs with
/// `candidate_k = k` and `candidate_refresh = refresh` (see
/// [`SimConfig::with_candidates`](crate::SimConfig::with_candidates)).
/// Unlike the thread knobs this **changes results** when `k > 0` culls
/// cells — deterministically, but it is a physics approximation, which is
/// why it is an explicit opt-in and not arbitrated automatically.
pub fn run_campaign_threads_candidates(
    name: &str,
    scenarios: Vec<Scenario>,
    n_reps: usize,
    shards: usize,
    frame_threads: usize,
    candidates: Option<(usize, usize)>,
) -> CampaignResult {
    assert!(n_reps >= 1, "need at least one replication");
    assert!(!scenarios.is_empty(), "need at least one scenario");
    let n_jobs = scenarios.len() * n_reps;
    let jobs: Vec<usize> = (0..n_jobs).collect();

    // Each job slot is written exactly once by whichever shard claims it.
    let mut slots: Vec<OnceLock<SimReport>> = Vec::new();
    slots.resize_with(n_jobs, OnceLock::new);
    run_grid_jobs(
        &scenarios,
        n_reps,
        &jobs,
        shards,
        frame_threads,
        candidates,
        &AtomicBool::new(false),
        &|job, report| {
            slots[job]
                .set(report.clone())
                .expect("job claimed exactly once");
        },
    );

    // Deterministic fold: scenario-major, replication order.
    let mut results = Vec::with_capacity(scenarios.len());
    let mut slot_iter = slots.into_iter();
    for scenario in scenarios {
        let mut stats = ReplicationStats::new();
        let mut reports = Vec::with_capacity(n_reps);
        for _ in 0..n_reps {
            let report = slot_iter
                .next()
                .expect("one slot per job")
                .take()
                .expect("all jobs completed");
            stats.push(&report);
            reports.push(report);
        }
        results.push(ScenarioResult {
            scenario,
            stats,
            reports,
        });
    }
    CampaignResult {
        name: name.to_string(),
        replications: n_reps,
        scenarios: results,
    }
}

/// Expands a [`ScenarioSpec`] and runs it: the one-call campaign driver
/// used by the CLI and the examples.
pub fn run_spec(spec: &ScenarioSpec, shards: usize) -> Result<CampaignResult, String> {
    run_spec_threads(spec, shards, 1)
}

/// [`run_spec`] with an intra-frame thread count (`0` ⇒ auto), arbitrated
/// against the shard count by [`arbitrate_frame_threads`].
pub fn run_spec_threads(
    spec: &ScenarioSpec,
    shards: usize,
    frame_threads: usize,
) -> Result<CampaignResult, String> {
    run_spec_threads_candidates(spec, shards, frame_threads, None)
}

/// [`run_spec_threads`] with the candidate-cell-list override of
/// [`run_campaign_threads_candidates`] — the CLI's
/// `--candidate-k` / `--candidate-refresh` flags land here.
pub fn run_spec_threads_candidates(
    spec: &ScenarioSpec,
    shards: usize,
    frame_threads: usize,
    candidates: Option<(usize, usize)>,
) -> Result<CampaignResult, String> {
    let scenarios = expand_with_candidates(spec, candidates)?;
    Ok(run_campaign_threads_candidates(
        &spec.name,
        scenarios,
        spec.replications,
        shards,
        frame_threads,
        candidates,
    ))
}

/// Re-runs the *first replication* of every matrix cell through `run` and
/// returns `(cell label, output)` per cell, in expansion order. The
/// configuration is exactly what [`run_grid_jobs`] gives replication 0,
/// candidate-cell-list override included, so the re-run is bit-identical
/// to the campaign's own first replication. Cells run in parallel (one
/// worker per core, see [`steal_jobs`]); each cell's output lands in its
/// own slot, so the result does not depend on the worker count.
fn rerun_first_replications<T: Send + Sync>(
    spec: &ScenarioSpec,
    candidates: Option<(usize, usize)>,
    run: impl Fn(SimConfig) -> T + Sync,
) -> Result<Vec<(String, T)>, String> {
    let scenarios = expand_with_candidates(spec, candidates)?;
    let n_jobs = scenarios.len();
    let mut slots: Vec<OnceLock<T>> = Vec::new();
    slots.resize_with(n_jobs, OnceLock::new);
    let never = AtomicBool::new(false);
    steal_jobs(n_jobs, worker_count(0, n_jobs), &never, |job| {
        let cfg = replication_cfg(&scenarios[job].cfg, 0, candidates);
        let claimed = slots[job].set(run(cfg)).is_ok();
        assert!(claimed, "job claimed exactly once");
    });
    Ok(scenarios
        .into_iter()
        .zip(slots)
        .map(|(sc, mut slot)| (sc.label, slot.take().expect("all jobs completed")))
        .collect())
}

/// Re-runs the first replication of every matrix cell with a decision
/// trace attached and returns `(cell label, decisions)` per cell, in
/// expansion order — bit-identical to the campaign's own first replication
/// under the same `candidates` override (see
/// [`run_spec_threads_candidates`]). Feed it to
/// [`super::emit::campaign_trace_csv`].
pub fn trace_campaign(
    spec: &ScenarioSpec,
    candidates: Option<(usize, usize)>,
) -> Result<Vec<(String, Vec<DecisionRecord>)>, String> {
    rerun_first_replications(spec, candidates, |cfg| run_with_trace(cfg).1)
}

/// Re-runs the first replication of every matrix cell and returns
/// `(cell label, final scheduling statistics)` per cell, in expansion
/// order. Same configuration as [`trace_campaign`], so the instrumented run
/// is bit-identical to the campaign's own first replication — the stats are
/// observability only.
pub fn sched_stats_campaign(
    spec: &ScenarioSpec,
    candidates: Option<(usize, usize)>,
) -> Result<Vec<(String, SchedStats)>, String> {
    rerun_first_replications(spec, candidates, |cfg| {
        Simulation::new(cfg).run_with_sched_stats().1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenarios() -> Vec<Scenario> {
        let mut base = SimConfig::baseline();
        base.n_voice = 6;
        base.n_data = 3;
        base.duration_s = 6.0;
        base.warmup_s = 1.0;
        vec![
            Scenario::single("a", base.clone()),
            Scenario::single("b", base.with_seed(99)),
        ]
    }

    #[test]
    fn campaign_runs_every_cell() {
        let result = run_campaign("tiny", tiny_scenarios(), 2, 2);
        assert_eq!(result.scenarios.len(), 2);
        for sr in &result.scenarios {
            assert_eq!(sr.reports.len(), 2);
            assert_eq!(sr.stats.n(), 2);
            assert!(sr.stats.mean_delay_s.mean() > 0.0);
        }
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let run = |shards| run_campaign("tiny", tiny_scenarios(), 2, shards);
        let one = run(1);
        let four = run(4);
        for (a, b) in one.scenarios.iter().zip(&four.scenarios) {
            assert_eq!(a.reports, b.reports, "per-replication reports must match");
            assert_eq!(a.stats, b.stats, "streaming stats must be bit-identical");
        }
    }

    #[test]
    fn frame_thread_count_does_not_change_results() {
        // 1 shard so the arbitration budget leaves room for >1 frame
        // thread on any multi-core machine; results must match the
        // single-threaded fold bit for bit either way.
        let run = |ft| run_campaign_threads("tiny", tiny_scenarios(), 2, 1, ft);
        let one = run(1);
        let auto = run(0);
        for (a, b) in one.scenarios.iter().zip(&auto.scenarios) {
            assert_eq!(a.reports, b.reports, "per-replication reports must match");
            assert_eq!(a.stats, b.stats, "streaming stats must be bit-identical");
        }
    }

    #[test]
    fn arbitration_caps_nested_parallelism() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // Auto takes the whole per-shard budget.
        assert_eq!(arbitrate_frame_threads(0, 1), cores);
        // Explicit requests are honoured up to the budget.
        assert_eq!(arbitrate_frame_threads(1, 1), 1);
        assert!(arbitrate_frame_threads(usize::MAX, 1) == cores);
        // Saturated shards leave one frame thread per shard.
        assert_eq!(arbitrate_frame_threads(0, cores), 1);
        assert_eq!(arbitrate_frame_threads(8, 2 * cores), 1);
    }

    #[test]
    fn grid_job_subsets_reproduce_full_run_cells() {
        // Resume/slicing correctness in miniature: any subset of the grid,
        // on any worker count, reproduces the full run's cells bit-exactly.
        let scenarios = tiny_scenarios();
        let full = run_campaign("tiny", scenarios.clone(), 2, 1);
        let got = std::sync::Mutex::new(Vec::new());
        run_grid_jobs(
            &scenarios,
            2,
            &[3, 0, 2],
            2,
            1,
            None,
            &AtomicBool::new(false),
            &|job, report| got.lock().unwrap().push((job, report.clone())),
        );
        let mut got = got.into_inner().unwrap();
        got.sort_by_key(|(job, _)| *job);
        assert_eq!(
            got.iter().map(|(j, _)| *j).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        for (job, report) in &got {
            assert_eq!(
                report,
                &full.scenarios[job / 2].reports[job % 2],
                "job {job} must match the full run bit-for-bit"
            );
        }
    }

    #[test]
    fn grid_stop_flag_prevents_new_claims() {
        let scenarios = tiny_scenarios();
        let stop = AtomicBool::new(true);
        let ran = AtomicUsize::new(0);
        run_grid_jobs(&scenarios, 2, &[0, 1, 2, 3], 2, 1, None, &stop, &|_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0, "pre-set stop runs nothing");
    }

    #[test]
    fn replication_seeds_match_standalone_runs() {
        let scenarios = tiny_scenarios();
        let cfg = scenarios[1].cfg.clone();
        let result = run_campaign("tiny", scenarios, 2, 0);
        let standalone = Simulation::new(cfg.with_seed(wcdma_math::mix_seed(cfg.seed, 2))).run();
        assert_eq!(result.scenarios[1].reports[1], standalone);
    }
}
