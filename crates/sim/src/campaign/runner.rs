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

use crate::engine::Simulation;
use crate::stats::{ReplicationStats, SimReport};
use crate::trace::DecisionLog;

use super::emit::campaign_trace_rows;
use super::spec::{Scenario, ScenarioSpec};

/// How a campaign runs: the knobs shared by [`run_campaign`],
/// [`run_spec`], [`run_spec_observed`], and the service
/// ([`super::ServiceConfig::run`]).
/// The thread knobs never change results; `candidates` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Worker threads over the (scenario × replication) job grid (`0` ⇒
    /// one per available core).
    pub shards: usize,
    /// Intra-frame threads per replication (`0` ⇒ auto), arbitrated
    /// against the worker count by [`arbitrate_frame_threads`] so the two
    /// parallelism layers never oversubscribe the cores.
    pub frame_threads: usize,
    /// Candidate-cell-list override: with `Some((k, refresh))` every
    /// replication runs with `candidate_k = k` and
    /// `candidate_refresh = refresh` (see
    /// [`SimConfig::with_candidates`](crate::SimConfig::with_candidates)).
    /// Unlike the thread knobs this **changes results** when `k > 0` culls
    /// cells — deterministically, but it is a physics approximation, which
    /// is why it is an explicit opt-in and not arbitrated automatically.
    pub candidates: Option<(usize, usize)>,
}

impl Default for RunOptions {
    /// Auto shards, one frame thread, the exact model.
    fn default() -> Self {
        Self {
            shards: 0,
            frame_threads: 1,
            candidates: None,
        }
    }
}

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

impl ScenarioResult {
    /// Folds one scenario's reports, given in replication order, into its
    /// cross-replication statistics. This is the one canonical fold: the
    /// batch runner, the service, and merge all build their results here,
    /// which is what keeps their artefacts byte-identical.
    pub fn fold(scenario: Scenario, reports: Vec<SimReport>) -> Self {
        let mut stats = ReplicationStats::new();
        for report in &reports {
            stats.push(report);
        }
        Self {
            scenario,
            stats,
            reports,
        }
    }
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

impl CampaignResult {
    /// Folds a whole grid whose reports are given in job order
    /// (scenario-major, replication order).
    pub(crate) fn fold(
        name: &str,
        scenarios: Vec<Scenario>,
        n_reps: usize,
        reports: impl IntoIterator<Item = SimReport>,
    ) -> Self {
        let mut reports = reports.into_iter();
        let scenarios = scenarios
            .into_iter()
            .map(|sc| ScenarioResult::fold(sc, reports.by_ref().take(n_reps).collect()))
            .collect();
        Self {
            name: name.to_string(),
            replications: n_reps,
            scenarios,
        }
    }
}

/// What observing one scenario's first replication yields: its rows of
/// the `--trace` CSV and the scheduler's final counters. A run that
/// observes attaches a [`DecisionLog`] to replication 0 of every scenario
/// while it runs that cell for the campaign itself, so observing never
/// simulates anything twice and never changes a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// The scenario's label.
    pub label: String,
    /// The scenario's trace CSV rows, exactly as the artefact holds them
    /// ([`super::emit::campaign_trace_rows`]); empty when no round ran.
    pub trace_rows: String,
    /// The last [`DecisionTrace::record_sched`](crate::DecisionTrace::record_sched)
    /// value — the counters only move inside a scheduling round.
    pub sched: SchedStats,
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

/// Checks a candidate-cell-list override against every scenario, so a bad
/// override (refresh = 0, k below the active-set size) is a normal error
/// naming the scenario instead of a panic inside a worker thread.
pub(crate) fn check_candidates(
    scenarios: &[Scenario],
    candidates: Option<(usize, usize)>,
) -> Result<(), String> {
    if let Some((k, refresh)) = candidates {
        for sc in scenarios {
            sc.cfg
                .with_candidates(k, refresh)
                .validate()
                .map_err(|e| format!("scenario {:?}: {e}", sc.label))?;
        }
    }
    Ok(())
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

/// Simulates every job in `jobs` (global indices
/// `scenario * n_reps + replication`) and hands each report to
/// `on_complete(job, report, observation)` from the worker thread. Workers
/// claim jobs off a shared atomic cursor, so a slow job cannot strand the
/// others; setting `stop` makes every worker exit before claiming another
/// job. With `observe`, a replication-0 job runs with a [`DecisionLog`]
/// attached and comes with its scenario's [`Observation`]; every other job
/// comes with `None`.
///
/// A job's configuration is its scenario's with the seed substream
/// `mix_seed(seed, 1 + replication)`, the candidate override of `opts`, and
/// the frame-thread count arbitrated against the worker count — so every
/// output depends only on the job's grid coordinates and `candidates`.
pub(crate) fn run_jobs(
    scenarios: &[Scenario],
    n_reps: usize,
    jobs: &[usize],
    opts: &RunOptions,
    stop: &AtomicBool,
    observe: bool,
    on_complete: impl Fn(usize, SimReport, Option<Observation>) + Sync,
) {
    if jobs.is_empty() {
        return;
    }
    let workers = worker_count(opts.shards, jobs.len());
    let frame_threads = arbitrate_frame_threads(opts.frame_threads, workers);
    let cursor = AtomicUsize::new(0);
    let (cursor, on_complete) = (&cursor, &on_complete);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let next = cursor.fetch_add(1, Ordering::Relaxed);
                if next >= jobs.len() {
                    break;
                }
                let job = jobs[next];
                let scenario = &scenarios[job / n_reps];
                let base = &scenario.cfg;
                let rep = (job % n_reps) as u64;
                let mut cfg = base.with_seed(wcdma_math::mix_seed(base.seed, 1 + rep));
                if let Some((k, refresh)) = opts.candidates {
                    cfg.candidate_k = k;
                    cfg.candidate_refresh = refresh;
                }
                cfg.frame_threads = frame_threads;
                let mut sim = Simulation::new(cfg);
                let log = (observe && rep == 0).then(DecisionLog::new);
                if let Some(log) = &log {
                    sim.attach_trace(Box::new(log.clone()));
                }
                let report = sim.run();
                let observation = log.map(|log| Observation {
                    label: scenario.label.clone(),
                    trace_rows: campaign_trace_rows(&scenario.label, &log.take()),
                    sched: log.sched_stats(),
                });
                on_complete(job, report, observation);
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
/// [`run_campaign`] run: a replication's seed depends only on its grid
/// coordinates, so *which* subset runs (and on how many workers) cannot
/// change any cell. This is what makes checkpoint resume and
/// multi-process grid slicing byte-exact.
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
    let opts = RunOptions {
        shards,
        frame_threads,
        candidates,
    };
    run_jobs(
        scenarios,
        n_reps,
        jobs,
        &opts,
        stop,
        false,
        |job, report, _| on_complete(job, &report),
    );
}

/// Runs every scenario `n_reps` times under `opts`: work-stealing over the
/// job grid with deterministic per-replication seed substreams, folded in
/// replication order. The result is bit-identical for every
/// `(shards, frame_threads)` combination: shard invariance comes from the
/// replication-order fold, frame-thread invariance from the
/// fixed-chunk-order fold inside the frame pipeline.
///
/// Errors, before anything runs, when there is nothing to run or when the
/// candidate override is invalid for a scenario (the message names it).
pub fn run_campaign(
    name: &str,
    scenarios: Vec<Scenario>,
    n_reps: usize,
    opts: &RunOptions,
) -> Result<CampaignResult, String> {
    Ok(campaign(name, scenarios, n_reps, opts, false)?.0)
}

/// Expands a [`ScenarioSpec`] and runs it with [`run_campaign`]: the
/// one-call campaign driver used by the CLI and the examples.
pub fn run_spec(spec: &ScenarioSpec, opts: &RunOptions) -> Result<CampaignResult, String> {
    run_campaign(&spec.name, spec.expand()?, spec.replications, opts)
}

/// [`run_spec`] that also observes replication 0 of every scenario while
/// running it, returning one [`Observation`] per scenario in expansion
/// order. The campaign result is bit-identical to [`run_spec`]'s: the
/// decision log only watches. Feed the observations to
/// [`super::emit::observed_trace_csv`].
pub fn run_spec_observed(
    spec: &ScenarioSpec,
    opts: &RunOptions,
) -> Result<(CampaignResult, Vec<Observation>), String> {
    campaign(&spec.name, spec.expand()?, spec.replications, opts, true)
}

/// The one batch loop behind [`run_campaign`] and [`run_spec_observed`]:
/// every job lands in its own slot, so the fold order does not depend on
/// the worker count.
fn campaign(
    name: &str,
    scenarios: Vec<Scenario>,
    n_reps: usize,
    opts: &RunOptions,
    observe: bool,
) -> Result<(CampaignResult, Vec<Observation>), String> {
    if n_reps == 0 {
        return Err("need at least one replication".into());
    }
    if scenarios.is_empty() {
        return Err("need at least one scenario".into());
    }
    check_candidates(&scenarios, opts.candidates)?;
    let n_jobs = scenarios.len() * n_reps;
    let jobs: Vec<usize> = (0..n_jobs).collect();
    let mut reports: Vec<OnceLock<SimReport>> = Vec::new();
    reports.resize_with(n_jobs, OnceLock::new);
    let mut observations: Vec<OnceLock<Observation>> = Vec::new();
    observations.resize_with(if observe { scenarios.len() } else { 0 }, OnceLock::new);
    let never = AtomicBool::new(false);
    run_jobs(
        &scenarios,
        n_reps,
        &jobs,
        opts,
        &never,
        observe,
        |job, report, observation| {
            let claimed = reports[job].set(report).is_ok();
            assert!(claimed, "job claimed exactly once");
            if let Some(obs) = observation {
                let claimed = observations[job / n_reps].set(obs).is_ok();
                assert!(claimed, "scenario observed exactly once");
            }
        },
    );
    let reports = reports
        .into_iter()
        .map(|slot| slot.into_inner().expect("all jobs completed"));
    let result = CampaignResult::fold(name, scenarios, n_reps, reports);
    let observations = observations
        .into_iter()
        .map(|slot| slot.into_inner().expect("every scenario observed"))
        .collect();
    Ok((result, observations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

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

    fn with_shards(shards: usize) -> RunOptions {
        RunOptions {
            shards,
            ..RunOptions::default()
        }
    }

    fn run_tiny(scenarios: Vec<Scenario>, opts: &RunOptions) -> CampaignResult {
        run_campaign("tiny", scenarios, 2, opts).expect("valid campaign")
    }

    #[test]
    fn campaign_runs_every_cell() {
        let result = run_tiny(tiny_scenarios(), &with_shards(2));
        assert_eq!(result.scenarios.len(), 2);
        for sr in &result.scenarios {
            assert_eq!(sr.reports.len(), 2);
            assert_eq!(sr.stats.n(), 2);
            assert!(sr.stats.mean_delay_s.mean() > 0.0);
        }
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let run = |shards| run_tiny(tiny_scenarios(), &with_shards(shards));
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
        let run = |frame_threads| {
            let opts = RunOptions {
                shards: 1,
                frame_threads,
                candidates: None,
            };
            run_tiny(tiny_scenarios(), &opts)
        };
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
        let full = run_tiny(scenarios.clone(), &with_shards(1));
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
        let result = run_tiny(scenarios, &RunOptions::default());
        let standalone = Simulation::new(cfg.with_seed(wcdma_math::mix_seed(cfg.seed, 2))).run();
        assert_eq!(result.scenarios[1].reports[1], standalone);
    }

    #[test]
    fn observing_watches_replication_zero_without_changing_results() {
        let scenarios = tiny_scenarios();
        let opts = with_shards(2);
        let plain = run_tiny(scenarios.clone(), &opts);
        let (observed, observations) =
            campaign("tiny", scenarios.clone(), 2, &opts, true).expect("valid campaign");
        assert_eq!(observations.len(), 2);
        for ((a, b), (sc, obs)) in plain
            .scenarios
            .iter()
            .zip(&observed.scenarios)
            .zip(scenarios.iter().zip(&observations))
        {
            assert_eq!(a.reports, b.reports, "observing must not perturb the run");
            assert_eq!(obs.label, sc.label);
            let rep0 = sc.cfg.with_seed(wcdma_math::mix_seed(sc.cfg.seed, 1));
            let (report, records) = crate::trace::run_with_trace(rep0);
            assert_eq!(report, b.reports[0]);
            assert!(
                !records.is_empty(),
                "{}: web traffic makes rounds",
                sc.label
            );
            assert_eq!(obs.trace_rows, campaign_trace_rows(&sc.label, &records));
            assert!(obs.sched.rounds > 0);
        }
    }

    #[test]
    fn bad_candidate_override_is_an_error_naming_the_scenario() {
        let opts = RunOptions {
            candidates: Some((4, 0)),
            ..with_shards(2)
        };
        let err = run_campaign("tiny", tiny_scenarios(), 2, &opts).expect_err("refresh 0");
        assert!(err.contains("scenario \"a\""), "{err}");
        assert!(err.contains("candidate refresh"), "{err}");
    }
}
