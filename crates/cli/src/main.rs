//! `wcdma` — the campaign-subsystem command line.
//!
//! ```text
//! wcdma campaign list
//! wcdma campaign describe <name | --file spec.toml>
//! wcdma campaign run [<name>] [--file spec.toml] [--quick] [--trace]
//!                    [--sched-stats] [--shards N] [--frame-threads N]
//!                    [--candidate-k N] [--candidate-refresh N]
//!                    [--reps N] [--out DIR]
//!                    [--out-dir DIR] [--grid-slice I/N] [--max-cells N]
//! wcdma campaign status <dir>
//! wcdma campaign merge <dir>... [--out DIR]
//! wcdma policy list
//! wcdma policy describe <name[:key=value,…]>
//! ```
//!
//! `campaign run` expands the scenario matrix, executes it on the sharded
//! campaign runner, prints the per-scenario summary table, and writes three
//! artefacts into `--out` (default `campaign-out/`): `<name>.csv`,
//! `<name>.json`, and the `BENCH_campaign.json` trend summary (plus
//! `<name>-trace.csv` with `--trace`). With `--out-dir` the run becomes a
//! durable *service* run rooted at a checkpoint directory: completed cells
//! are journaled as they finish, artefact rows stream out as scenarios
//! complete, a killed run resumes where it left off with byte-identical
//! output, and `--grid-slice i/n` partitions the grid across processes
//! (fold the slices back together with `campaign merge`). The `policy`
//! subcommands resolve through the open admission-policy registry, so a
//! policy registered in `wcdma-admission` is immediately visible here and
//! usable in any campaign's policy axis.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wcdma_sim::campaign::{
    builtin, builtin_names, campaign_csv, campaign_json, campaign_status, campaign_summary_json,
    campaign_trace_csv, merge_dirs, run_spec, run_spec_service, sched_stats_campaign,
    trace_campaign, write_artefacts, write_atomic, CampaignResult, PolicyRegistry, RunOptions,
    ScenarioSpec, ServiceConfig,
};
use wcdma_sim::stats::ReplicationStats;
use wcdma_sim::table::ci;
use wcdma_sim::Table;

const USAGE: &str = "\
usage: wcdma <campaign | policy> <subcommand> [options]

  campaign list
      Show the built-in campaigns.
  campaign describe <name | --file spec.toml>
      Print a campaign spec and its expanded scenario matrix.
  campaign run [<name>] [--file spec.toml] [--quick] [--trace]
               [--sched-stats] [--shards N] [--frame-threads N]
               [--candidate-k N] [--candidate-refresh N]
               [--reps N] [--out DIR]
               [--out-dir DIR] [--grid-slice I/N] [--max-cells N]
      Run a campaign (default: paper-eval) and write CSV + JSON artefacts.
      With --out-dir, run as a durable service: journal cells into a
      checkpoint directory, stream artefact rows as scenarios complete,
      and resume (skipping finished cells, byte-identical output) if
      re-run after a kill.
  campaign status <dir>
      Show per-scenario progress of the checkpoint directory <dir>.
  campaign merge <dir>... [--out DIR]
      Fold the complete slice checkpoints <dir>... into final artefacts,
      byte-identical to a single-process run.
  policy list
      Show every admission policy in the registry.
  policy describe <name[:key=value,...]>
      Show a policy's parameters, or the resolved configuration of a
      parameterised spec string.

options:
  --file PATH   load the campaign from a TOML spec file instead of a name
  --quick       CI smoke profile: short runs, at most 2 replications
  --trace       also capture per-frame policy decisions (first replication
                of every scenario) into <name>-trace.csv
  --sched-stats print per-scenario scheduling-phase statistics (solves,
                warm-start hits, B&B nodes) from the first replication of
                every scenario
  --shards N    worker threads (default: one per core)
  --frame-threads N
                threads *inside* each replication's frame loop (default:
                auto — cores left over by the shards; capped so shards ×
                frame-threads never oversubscribes; results are
                bit-identical for every value)
  --candidate-k N
                per-mobile candidate cell list size: every mobile only
                evaluates its N nearest cells (0 = every cell, exact).
                Unlike the thread knobs this changes results when it culls
                cells — deterministically (see docs/DETERMINISM.md)
  --candidate-refresh N
                re-select candidate lists every N frames (default: 8;
                needs --candidate-k)
  --reps N      override the spec's replication count
  --out DIR     artefact directory (default: campaign-out)
  --out-dir DIR checkpoint directory for a durable service run; created on
                first use, resumed on re-run (the spec, --quick, and the
                candidate flags must match the checkpoint)
  --grid-slice I/N
                run only slice I of N (cells dealt round-robin); each slice
                journals into its own --out-dir and emits no artefacts —
                fold them with `campaign merge` (needs --out-dir)
  --max-cells N stop gracefully after journaling N new cells — a
                deterministic simulated kill for tests (needs --out-dir)";

/// Where a campaign spec comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Target {
    /// A built-in campaign name.
    Builtin(String),
    /// A TOML spec file on disk.
    File(PathBuf),
}

/// Parsed `campaign run` options.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    target: Target,
    quick: bool,
    trace: bool,
    sched_stats: bool,
    /// `--shards`, `--frame-threads`, and the candidate flags; shared by
    /// the batch run, the service, and the instrumentation passes.
    opts: RunOptions,
    reps: Option<usize>,
    out: PathBuf,
    /// Checkpoint directory — switches the run into service mode.
    out_dir: Option<PathBuf>,
    /// `(index, count)` grid slice; `(1, 1)` runs the whole grid.
    slice: (usize, usize),
    /// Graceful stop after N new cells (service mode only).
    max_cells: Option<usize>,
}

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    List,
    Describe(Target),
    Run(RunArgs),
    Status(PathBuf),
    Merge { dirs: Vec<PathBuf>, out: PathBuf },
    PolicyList,
    PolicyDescribe(String),
}

fn parse_command(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(|s| s.as_str());
    match it.next() {
        Some("campaign") => {}
        Some("policy") => {
            let sub = it.next().ok_or("missing policy subcommand")?;
            let rest: Vec<&str> = it.collect();
            return match sub {
                "list" => {
                    if !rest.is_empty() {
                        return Err(format!("unexpected arguments: {}", rest.join(" ")));
                    }
                    Ok(Command::PolicyList)
                }
                "describe" => match rest.as_slice() {
                    [name] => Ok(Command::PolicyDescribe(name.to_string())),
                    [] => Err("policy describe needs a policy name".into()),
                    _ => Err(format!("give exactly one policy name: {}", rest.join(" "))),
                },
                other => Err(format!("unknown policy subcommand {other:?}")),
            };
        }
        Some(other) => return Err(format!("unknown command {other:?}")),
        None => return Err("missing command".into()),
    }
    let sub = it.next().ok_or("missing campaign subcommand")?;
    let rest: Vec<&str> = it.collect();
    match sub {
        "list" => {
            if !rest.is_empty() {
                return Err(format!("unexpected arguments: {}", rest.join(" ")));
            }
            Ok(Command::List)
        }
        "describe" => {
            let mut target = None;
            let mut it = rest.into_iter();
            while let Some(tok) = it.next() {
                match tok {
                    "--file" => {
                        let path = it.next().ok_or("--file needs a path")?;
                        set_target(&mut target, Target::File(PathBuf::from(path)))?;
                    }
                    flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
                    name => set_target(&mut target, Target::Builtin(name.to_string()))?,
                }
            }
            Ok(Command::Describe(
                target.ok_or("describe needs a campaign name or --file")?,
            ))
        }
        "run" => {
            let mut target = None;
            let (mut candidate_k, mut candidate_refresh) = (None, None);
            let mut run = RunArgs {
                target: Target::Builtin("paper-eval".into()),
                quick: false,
                trace: false,
                sched_stats: false,
                // Unlike the library default, the CLI auto-sizes frame
                // threads from the cores the shards leave over.
                opts: RunOptions {
                    frame_threads: 0,
                    ..RunOptions::default()
                },
                reps: None,
                out: PathBuf::from("campaign-out"),
                out_dir: None,
                slice: (1, 1),
                max_cells: None,
            };
            let mut it = rest.into_iter();
            while let Some(tok) = it.next() {
                match tok {
                    "--quick" => run.quick = true,
                    "--trace" => run.trace = true,
                    "--sched-stats" => run.sched_stats = true,
                    "--file" => {
                        let path = it.next().ok_or("--file needs a path")?;
                        set_target(&mut target, Target::File(PathBuf::from(path)))?;
                    }
                    "--shards" => {
                        let v = it.next().ok_or("--shards needs a value")?;
                        run.opts.shards = v
                            .parse::<usize>()
                            .map_err(|_| format!("bad --shards value {v:?}"))?;
                        if run.opts.shards == 0 {
                            return Err("--shards must be ≥ 1".into());
                        }
                    }
                    "--frame-threads" => {
                        let v = it.next().ok_or("--frame-threads needs a value")?;
                        // 0 is the explicit spelling of "auto".
                        run.opts.frame_threads = v
                            .parse::<usize>()
                            .map_err(|_| format!("bad --frame-threads value {v:?}"))?;
                    }
                    "--candidate-k" => {
                        let v = it.next().ok_or("--candidate-k needs a value")?;
                        // 0 is the explicit spelling of "every cell" (exact).
                        candidate_k = Some(
                            v.parse::<usize>()
                                .map_err(|_| format!("bad --candidate-k value {v:?}"))?,
                        );
                    }
                    "--candidate-refresh" => {
                        let v = it.next().ok_or("--candidate-refresh needs a value")?;
                        let n = v
                            .parse::<usize>()
                            .map_err(|_| format!("bad --candidate-refresh value {v:?}"))?;
                        if n == 0 {
                            return Err("--candidate-refresh must be ≥ 1".into());
                        }
                        candidate_refresh = Some(n);
                    }
                    "--reps" => {
                        let v = it.next().ok_or("--reps needs a value")?;
                        let n = v
                            .parse::<usize>()
                            .map_err(|_| format!("bad --reps value {v:?}"))?;
                        if n == 0 {
                            return Err("--reps must be ≥ 1".into());
                        }
                        run.reps = Some(n);
                    }
                    "--out" => {
                        run.out = PathBuf::from(it.next().ok_or("--out needs a value")?);
                    }
                    "--out-dir" => {
                        run.out_dir =
                            Some(PathBuf::from(it.next().ok_or("--out-dir needs a value")?));
                    }
                    "--grid-slice" => {
                        let v = it.next().ok_or("--grid-slice needs a value like 2/3")?;
                        run.slice = parse_slice(v)?;
                    }
                    "--max-cells" => {
                        let v = it.next().ok_or("--max-cells needs a value")?;
                        run.max_cells = Some(
                            v.parse::<usize>()
                                .map_err(|_| format!("bad --max-cells value {v:?}"))?,
                        );
                    }
                    flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
                    // Positional campaign name, accepted before or after
                    // any flags.
                    name => set_target(&mut target, Target::Builtin(name.to_string()))?,
                }
            }
            if candidate_refresh.is_some() && candidate_k.is_none() {
                return Err("--candidate-refresh needs --candidate-k".into());
            }
            // k alone picks up the SimConfig baseline refresh cadence.
            run.opts.candidates = candidate_k.map(|k| {
                let baseline = wcdma_sim::SimConfig::baseline().candidate_refresh;
                (k, candidate_refresh.unwrap_or(baseline))
            });
            if run.out_dir.is_none() {
                if run.slice != (1, 1) {
                    return Err("--grid-slice needs --out-dir (slices journal into it)".into());
                }
                if run.max_cells.is_some() {
                    return Err("--max-cells needs --out-dir (there is nothing to resume \
                                from otherwise)"
                        .into());
                }
            }
            if run.slice.1 > 1 && (run.trace || run.sched_stats) {
                return Err(
                    "--trace/--sched-stats run whole-campaign instrumentation and cannot \
                     combine with --grid-slice"
                        .into(),
                );
            }
            if let Some(t) = target {
                run.target = t;
            }
            Ok(Command::Run(run))
        }
        "status" => match rest.as_slice() {
            [dir] if !dir.starts_with("--") => Ok(Command::Status(PathBuf::from(dir))),
            [] => Err("status needs a checkpoint directory".into()),
            _ => Err(format!(
                "give exactly one checkpoint directory: {}",
                rest.join(" ")
            )),
        },
        "merge" => {
            let mut dirs = Vec::new();
            let mut out = PathBuf::from("campaign-out");
            let mut it = rest.into_iter();
            while let Some(tok) = it.next() {
                match tok {
                    "--out" => out = PathBuf::from(it.next().ok_or("--out needs a value")?),
                    flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
                    dir => dirs.push(PathBuf::from(dir)),
                }
            }
            if dirs.is_empty() {
                return Err("merge needs at least one checkpoint directory".into());
            }
            Ok(Command::Merge { dirs, out })
        }
        other => Err(format!("unknown campaign subcommand {other:?}")),
    }
}

/// Parses `--grid-slice I/N` (1-based, `I ≤ N`).
fn parse_slice(v: &str) -> Result<(usize, usize), String> {
    let (i, n) = v
        .split_once('/')
        .ok_or_else(|| format!("bad --grid-slice value {v:?} (expected I/N, e.g. 2/3)"))?;
    let parse = |s: &str| {
        s.parse::<usize>()
            .ok()
            .filter(|&x| x >= 1)
            .ok_or_else(|| format!("bad --grid-slice value {v:?} (expected I/N, e.g. 2/3)"))
    };
    let (i, n) = (parse(i)?, parse(n)?);
    if i > n {
        return Err(format!(
            "bad --grid-slice value {v:?}: index {i} exceeds count {n}"
        ));
    }
    Ok((i, n))
}

/// Records the campaign target, rejecting a second name or `--file`.
fn set_target(slot: &mut Option<Target>, target: Target) -> Result<(), String> {
    if slot.is_some() {
        return Err("give exactly one campaign name or --file".into());
    }
    *slot = Some(target);
    Ok(())
}

fn load_spec(target: &Target) -> Result<ScenarioSpec, String> {
    match target {
        Target::Builtin(name) => builtin(name).ok_or_else(|| {
            format!(
                "unknown campaign {:?} (built-ins: {})",
                name,
                builtin_names().join(", ")
            )
        }),
        Target::File(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            ScenarioSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

fn cmd_list() {
    let mut t = Table::new(&["campaign", "scenarios", "description"]);
    for &name in builtin_names() {
        let spec = builtin(name).expect("registered builtin");
        t.row(&[
            name.to_string(),
            spec.n_scenarios().to_string(),
            spec.description.clone(),
        ]);
    }
    println!("{}", t.render());
    println!("run one with: wcdma campaign run <name>   (or --file spec.toml)");
}

fn cmd_describe(target: &Target) -> Result<(), String> {
    let spec = load_spec(target)?;
    println!("# {} — {}\n", spec.name, spec.description);
    println!("{}", spec.to_toml());
    let scenarios = spec.expand()?;
    let mut t = Table::new(&["#", "scenario", "seed"]);
    for (i, sc) in scenarios.iter().enumerate() {
        t.row(&[
            i.to_string(),
            sc.label.clone(),
            format!("{:#x}", sc.cfg.seed),
        ]);
    }
    println!(
        "{} scenarios × {} replications:\n{}",
        scenarios.len(),
        spec.replications,
        t.render()
    );
    Ok(())
}

fn cmd_policy_list() {
    let registry = PolicyRegistry::standard();
    let mut t = Table::new(&["policy", "parameters", "summary"]);
    for entry in registry.entries() {
        let params: Vec<String> = entry
            .params
            .iter()
            .map(|p| {
                if p.default.is_infinite() {
                    format!("{}=<unset>", p.name)
                } else {
                    format!("{}={}", p.name, p.default)
                }
            })
            .collect();
        t.row(&[
            entry.name.to_string(),
            if params.is_empty() {
                "—".into()
            } else {
                params.join(", ")
            },
            entry.summary.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "use a name (with optional parameters, e.g. \
         threshold-reservation:margin=0.4) in a campaign's policy axis,\n\
         or inspect one with: wcdma policy describe <name>"
    );
}

fn cmd_policy_describe(spec: &str) -> Result<(), String> {
    let registry = PolicyRegistry::standard();
    // Resolving validates the name and any key=value parameters, with the
    // registry's own what-is-available error messages.
    let policy = registry.resolve(spec)?;
    let name = spec
        .split(':')
        .next()
        .expect("split yields the name")
        .trim();
    let entry = registry.entry(name).expect("resolve found the entry");
    println!("# {} — {}\n", entry.name, entry.summary);
    println!("resolved: {}", policy.describe());
    if entry.params.is_empty() {
        println!("\nno parameters");
    } else {
        let mut t = Table::new(&["parameter", "default", "description"]);
        for p in &entry.params {
            t.row(&[
                p.name.to_string(),
                if p.default.is_infinite() {
                    "<unset>".into()
                } else {
                    format!("{}", p.default)
                },
                p.doc.to_string(),
            ]);
        }
        println!("\n{}", t.render());
        println!(
            "override with {}:{}=<value>[,…] in a policy axis or on this command",
            entry.name, entry.params[0].name
        );
    }
    Ok(())
}

fn summary_table(result: &CampaignResult) -> Table {
    let mut t = Table::new(&[
        "scenario",
        "mean delay [s]",
        "p95 [s]",
        "cell tput [kbps]",
        "grant m",
        "denial",
    ]);
    for sr in &result.scenarios {
        let s = &sr.stats;
        t.row(&[
            sr.scenario.label.clone(),
            ci(&ReplicationStats::ci(&s.mean_delay_s)),
            ci(&ReplicationStats::ci(&s.p95_delay_s)),
            ci(&ReplicationStats::ci(&s.per_cell_throughput_kbps)),
            ci(&ReplicationStats::ci(&s.mean_grant_m)),
            ci(&ReplicationStats::ci(&s.denial_rate)),
        ]);
    }
    t
}

fn cmd_run(args: &RunArgs) -> Result<(), String> {
    let mut spec = load_spec(&args.target)?;
    if args.quick {
        spec = spec.quickened();
    }
    if let Some(reps) = args.reps {
        spec.replications = reps;
    }
    spec.validate()?;
    println!(
        "campaign {}: {} scenarios × {} replications ({} shards)…",
        spec.name,
        spec.n_scenarios(),
        spec.replications,
        if args.opts.shards == 0 {
            "auto".to_string()
        } else {
            args.opts.shards.to_string()
        }
    );
    if let Some(dir) = &args.out_dir {
        return cmd_run_service(args, &spec, dir);
    }
    let result = run_spec(&spec, &args.opts)?;
    println!("{}", summary_table(&result).render());
    let docs: [&str; 3] = [
        &campaign_csv(&result),
        &campaign_json(&result),
        &campaign_summary_json(&result),
    ];
    print_written(&write_artefacts(&args.out, &spec.name, docs)?);
    instrument(args, &spec, &args.out)
}

/// Service-mode `campaign run`: checkpointed, resumable, sliceable.
fn cmd_run_service(args: &RunArgs, spec: &ScenarioSpec, dir: &Path) -> Result<(), String> {
    let cfg = ServiceConfig {
        run: args.opts,
        slice_index: args.slice.0,
        slice_count: args.slice.1,
        max_cells: args.max_cells,
    };
    let outcome = run_spec_service(spec, dir, &cfg)?;
    println!(
        "slice {}/{}: {} cells run, {} skipped (journal: {})",
        cfg.slice_index,
        cfg.slice_count,
        outcome.newly_run,
        outcome.skipped,
        dir.join("journal.log").display()
    );
    if !outcome.finished {
        println!(
            "stopped with {} of {} cells journaled — re-run the same command to resume",
            outcome.newly_run + outcome.skipped,
            outcome.slice_jobs
        );
        if args.trace {
            println!(
                "trace deferred: {}-trace.csv is written (atomically) once the campaign completes",
                spec.name
            );
        }
        return Ok(());
    }
    if outcome.artefacts.is_empty() {
        println!(
            "slice complete — fold all {} slices with: wcdma campaign merge <dir>...",
            cfg.slice_count
        );
        return Ok(());
    }
    print_written(&outcome.artefacts);
    instrument(args, spec, dir)
}

fn print_written(paths: &[PathBuf]) {
    let paths: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
    println!("wrote {}", paths.join(", "));
}

/// The `--trace` and `--sched-stats` passes: re-run the first replication
/// of every scenario under the run's own options, writing the trace into
/// `dir` atomically (it may share a checkpoint directory with a journal).
fn instrument(args: &RunArgs, spec: &ScenarioSpec, dir: &Path) -> Result<(), String> {
    if args.trace {
        println!("tracing policy decisions (first replication of every scenario)…");
        let traces = trace_campaign(spec, &args.opts)?;
        let path = dir.join(format!("{}-trace.csv", spec.name));
        write_atomic(&path, &campaign_trace_csv(&traces))?;
        println!("wrote {}", path.display());
    }
    if args.sched_stats {
        println!("collecting scheduling statistics (first replication of every scenario)…");
        let stats = sched_stats_campaign(spec, &args.opts)?;
        println!("{}", sched_stats_table(&stats).render());
    }
    Ok(())
}

/// Renders per-scenario scheduling-phase statistics: how many rounds ran,
/// how many of them re-entered warm workspace buffers, and the
/// branch-and-bound work.
fn sched_stats_table(stats: &[(String, wcdma_sim::campaign::SchedStats)]) -> Table {
    let mut t = Table::new(&[
        "scenario",
        "rounds",
        "solves",
        "warm hits",
        "bb nodes",
        "warm rate",
    ]);
    for (label, s) in stats {
        let rate = if s.solves > 0 {
            format!("{:.0}%", 100.0 * s.warm_hits as f64 / s.solves as f64)
        } else {
            "—".into()
        };
        t.row(&[
            label.clone(),
            s.rounds.to_string(),
            s.solves.to_string(),
            s.warm_hits.to_string(),
            s.bb_nodes.to_string(),
            rate,
        ]);
    }
    t
}

fn run(args: &[String]) -> Result<(), String> {
    match parse_command(args)? {
        Command::List => {
            cmd_list();
            Ok(())
        }
        Command::Describe(target) => cmd_describe(&target),
        Command::Run(run_args) => cmd_run(&run_args),
        Command::Status(dir) => {
            print!("{}", campaign_status(&dir)?);
            Ok(())
        }
        Command::Merge { dirs, out } => {
            let artefacts = merge_dirs(&dirs, &out)?;
            let paths: Vec<String> = artefacts.iter().map(|p| p.display().to_string()).collect();
            println!(
                "merged {} checkpoint(s): wrote {}",
                dirs.len(),
                paths.join(", ")
            );
            Ok(())
        }
        Command::PolicyList => {
            cmd_policy_list();
            Ok(())
        }
        Command::PolicyDescribe(spec) => cmd_policy_describe(&spec),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Command, String> {
        parse_command(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_list_and_describe() {
        assert_eq!(parse(&["campaign", "list"]), Ok(Command::List));
        assert_eq!(
            parse(&["campaign", "describe", "paper-eval"]),
            Ok(Command::Describe(Target::Builtin("paper-eval".into())))
        );
        assert_eq!(
            parse(&["campaign", "describe", "--file", "c.toml"]),
            Ok(Command::Describe(Target::File(PathBuf::from("c.toml"))))
        );
    }

    #[test]
    fn parses_run_with_flags() {
        let cmd = parse(&[
            "campaign",
            "run",
            "speed-sweep",
            "--quick",
            "--shards",
            "4",
            "--frame-threads",
            "2",
            "--reps",
            "5",
            "--out",
            "results",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                target: Target::Builtin("speed-sweep".into()),
                quick: true,
                trace: false,
                sched_stats: false,
                opts: RunOptions {
                    shards: 4,
                    frame_threads: 2,
                    candidates: None,
                },
                reps: Some(5),
                out: PathBuf::from("results"),
                out_dir: None,
                slice: (1, 1),
                max_cells: None,
            })
        );
    }

    #[test]
    fn parses_service_mode_flags() {
        match parse(&[
            "campaign",
            "run",
            "--quick",
            "--out-dir",
            "run-ckpt",
            "--grid-slice",
            "2/3",
            "--max-cells",
            "7",
        ])
        .unwrap()
        {
            Command::Run(args) => {
                assert_eq!(args.out_dir, Some(PathBuf::from("run-ckpt")));
                assert_eq!(args.slice, (2, 3));
                assert_eq!(args.max_cells, Some(7));
            }
            other => panic!("expected run, got {other:?}"),
        }
        // Slice and max-cells only make sense against a checkpoint.
        let err = parse(&["campaign", "run", "--grid-slice", "1/3"]).expect_err("no out-dir");
        assert!(err.contains("--out-dir"), "{err}");
        let err = parse(&["campaign", "run", "--max-cells", "4"]).expect_err("no out-dir");
        assert!(err.contains("--out-dir"), "{err}");
        // Whole-campaign instrumentation cannot run on a slice.
        for flag in ["--trace", "--sched-stats"] {
            let err = parse(&[
                "campaign",
                "run",
                flag,
                "--out-dir",
                "d",
                "--grid-slice",
                "1/2",
            ])
            .expect_err("instrumented slice");
            assert!(err.contains("--grid-slice"), "{err}");
        }
        // Malformed slice specs.
        for bad in ["3", "0/3", "2/0", "4/3", "a/b", "1/2/3"] {
            assert!(
                parse(&["campaign", "run", "--out-dir", "d", "--grid-slice", bad]).is_err(),
                "slice {bad:?} must be rejected"
            );
        }
        assert!(parse(&["campaign", "run", "--out-dir"]).is_err());
        assert!(parse(&["campaign", "run", "--out-dir", "d", "--max-cells", "x"]).is_err());
    }

    #[test]
    fn parses_status_and_merge() {
        assert_eq!(
            parse(&["campaign", "status", "run-ckpt"]),
            Ok(Command::Status(PathBuf::from("run-ckpt")))
        );
        assert!(parse(&["campaign", "status"]).is_err());
        assert!(parse(&["campaign", "status", "a", "b"]).is_err());
        assert_eq!(
            parse(&["campaign", "merge", "s1-ckpt", "s2-ckpt", "--out", "merged"]),
            Ok(Command::Merge {
                dirs: vec![PathBuf::from("s1-ckpt"), PathBuf::from("s2-ckpt")],
                out: PathBuf::from("merged"),
            })
        );
        match parse(&["campaign", "merge", "one-ckpt"]).unwrap() {
            Command::Merge { dirs, out } => {
                assert_eq!(dirs.len(), 1);
                assert_eq!(out, PathBuf::from("campaign-out"));
            }
            other => panic!("expected merge, got {other:?}"),
        }
        assert!(parse(&["campaign", "merge"]).is_err());
        assert!(parse(&["campaign", "merge", "--badflag", "d"]).is_err());
    }

    #[test]
    fn candidate_flags_parse_and_reject_garbage() {
        match parse(&["campaign", "run", "--candidate-k", "4"]).unwrap() {
            Command::Run(args) => {
                let baseline = wcdma_sim::SimConfig::baseline().candidate_refresh;
                assert_eq!(
                    args.opts.candidates,
                    Some((4, baseline)),
                    "refresh defaults to the baseline cadence"
                );
            }
            other => panic!("expected run, got {other:?}"),
        }
        // 0 is the explicit spelling of "every cell".
        match parse(&["campaign", "run", "--candidate-k", "0"]).unwrap() {
            Command::Run(args) => assert_eq!(args.opts.candidates.map(|(k, _)| k), Some(0)),
            other => panic!("expected run, got {other:?}"),
        }
        match parse(&[
            "campaign",
            "run",
            "--candidate-k",
            "4",
            "--candidate-refresh",
            "10",
        ])
        .unwrap()
        {
            Command::Run(args) => assert_eq!(args.opts.candidates, Some((4, 10))),
            other => panic!("expected run, got {other:?}"),
        }
        assert!(parse(&["campaign", "run", "--candidate-k"]).is_err());
        assert!(parse(&["campaign", "run", "--candidate-k", "nearest"]).is_err());
        assert!(parse(&["campaign", "run", "--candidate-refresh", "0"]).is_err());
        // A refresh cadence without a list size has nothing to refresh.
        assert!(parse(&["campaign", "run", "--candidate-refresh", "5"]).is_err());
    }

    #[test]
    fn frame_threads_flag_defaults_to_auto_and_rejects_garbage() {
        match parse(&["campaign", "run"]).unwrap() {
            Command::Run(args) => assert_eq!(args.opts.frame_threads, 0, "default is auto"),
            other => panic!("expected run, got {other:?}"),
        }
        // 0 is accepted as the explicit spelling of auto.
        match parse(&["campaign", "run", "--frame-threads", "0"]).unwrap() {
            Command::Run(args) => assert_eq!(args.opts.frame_threads, 0),
            other => panic!("expected run, got {other:?}"),
        }
        assert!(parse(&["campaign", "run", "--frame-threads"]).is_err());
        assert!(parse(&["campaign", "run", "--frame-threads", "many"]).is_err());
    }

    #[test]
    fn parses_policy_subcommands() {
        assert_eq!(parse(&["policy", "list"]), Ok(Command::PolicyList));
        assert_eq!(
            parse(&["policy", "describe", "threshold-reservation:margin=0.4"]),
            Ok(Command::PolicyDescribe(
                "threshold-reservation:margin=0.4".into()
            ))
        );
        assert!(parse(&["policy"]).is_err());
        assert!(parse(&["policy", "describe"]).is_err());
        assert!(parse(&["policy", "describe", "a", "b"]).is_err());
        assert!(parse(&["policy", "frobnicate"]).is_err());
        assert!(parse(&["policy", "list", "extra"]).is_err());
    }

    #[test]
    fn parses_trace_flag() {
        match parse(&["campaign", "run", "--quick", "--trace"]).unwrap() {
            Command::Run(args) => assert!(args.trace && args.quick),
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn parses_sched_stats_flag() {
        match parse(&["campaign", "run", "--quick", "--sched-stats"]).unwrap() {
            Command::Run(args) => {
                assert!(args.sched_stats && args.quick);
                assert!(!args.trace, "flags are independent");
            }
            other => panic!("expected run, got {other:?}"),
        }
        match parse(&["campaign", "run"]).unwrap() {
            Command::Run(args) => assert!(!args.sched_stats, "off by default"),
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn sched_stats_table_renders_rates() {
        use wcdma_sim::campaign::SchedStats;
        let rows = vec![
            (
                "busy".to_string(),
                SchedStats {
                    rounds: 4,
                    solves: 4,
                    warm_hits: 3,
                    skipped_identical: 0,
                    bb_nodes: 123,
                },
            ),
            ("idle".to_string(), SchedStats::default()),
        ];
        let rendered = sched_stats_table(&rows).render();
        assert!(rendered.contains("75%"), "{rendered}");
        assert!(rendered.contains("—"), "{rendered}");
        assert!(!rendered.contains("cached"), "{rendered}");
    }

    #[test]
    fn policy_describe_resolves_specs_and_rejects_garbage() {
        cmd_policy_describe("jaba-sd-j2").expect("plain name");
        cmd_policy_describe("fcfs:max_concurrent=2").expect("parameterised spec");
        cmd_policy_describe("equal-share").expect("parameter-free");
        let err = cmd_policy_describe("round-robin").expect_err("unknown policy");
        assert!(err.contains("available"), "{err}");
        assert!(err.contains("weighted-fair-share"), "{err}");
        let err = cmd_policy_describe("fcfs:max_concurrent=0").expect_err("bad parameter");
        assert!(err.contains("max_concurrent"), "{err}");
    }

    #[test]
    fn run_defaults_to_paper_eval() {
        match parse(&["campaign", "run"]).unwrap() {
            Command::Run(args) => {
                assert_eq!(args.target, Target::Builtin("paper-eval".into()));
                assert!(!args.quick);
                assert_eq!(args.opts.shards, 0);
                assert_eq!(args.opts.frame_threads, 0);
                assert_eq!(args.opts.candidates, None);
                assert_eq!(args.out, PathBuf::from("campaign-out"));
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["simulate"]).is_err());
        assert!(parse(&["campaign"]).is_err());
        assert!(parse(&["campaign", "frobnicate"]).is_err());
        assert!(parse(&["campaign", "describe"]).is_err());
        assert!(parse(&["campaign", "list", "extra"]).is_err());
        assert!(parse(&["campaign", "run", "--shards"]).is_err());
        assert!(parse(&["campaign", "run", "--shards", "zero"]).is_err());
        assert!(parse(&["campaign", "run", "--shards", "0"]).is_err());
        assert!(parse(&["campaign", "run", "--reps", "0"]).is_err());
        assert!(parse(&["campaign", "run", "--badflag"]).is_err());
        assert!(parse(&["campaign", "run", "a", "--file", "b.toml"]).is_err());
        assert!(parse(&["campaign", "run", "a", "b"]).is_err());
        assert!(parse(&["campaign", "describe", "--badflag"]).is_err());
    }

    #[test]
    fn positional_name_works_after_flags() {
        // Users reorder flags freely: `--quick speed-sweep` must mean the
        // same as `speed-sweep --quick`, and flag values must not be
        // mistaken for campaign names.
        let a = parse(&["campaign", "run", "--quick", "--shards", "4", "speed-sweep"]).unwrap();
        let b = parse(&["campaign", "run", "speed-sweep", "--quick", "--shards", "4"]).unwrap();
        assert_eq!(a, b);
        match a {
            Command::Run(args) => {
                assert_eq!(args.target, Target::Builtin("speed-sweep".into()));
                assert!(args.quick);
                assert_eq!(args.opts.shards, 4);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn builtin_targets_load() {
        for &name in builtin_names() {
            load_spec(&Target::Builtin(name.into())).expect(name);
        }
        assert!(load_spec(&Target::Builtin("nope".into())).is_err());
        assert!(load_spec(&Target::File(PathBuf::from("/no/such/file.toml"))).is_err());
    }
}
