//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!  [--cli <path to wcdma>] [--work <dir>]`
//!
//! Runs one workload and prints one JSON line: `correct`, `attempted`,
//! `failed`, `metrics` (the end-to-end table untraced, the per-layer table
//! traced), and `info` (fingerprints, sample counts, build stamp).
//! Normally driven by `run.py`, which builds everything first.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Workload};
use perfbench::{campaign, frames};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    work: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut cli = PathBuf::from(".bench_build/release/wcdma");
    let mut work = PathBuf::from(".bench_work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::by_name(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace value {v:?}")),
                }
            }
            "--cli" => cli = PathBuf::from(value()?),
            "--work" => work = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        cli,
        work,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out: Outcome = match (args.workload, args.trace) {
        (Workload::BurstyCell, false) => {
            frames::untraced(&workloads::bursty_cell(args.seed), args.seconds)
        }
        (Workload::BurstyCell, true) => frames::traced(&workloads::bursty_cell(args.seed)),
        (Workload::Metro, false) => frames::untraced(&workloads::metro(args.seed), args.seconds),
        (Workload::Metro, true) => frames::traced(&workloads::metro(args.seed)),
        (Workload::CampaignService, trace) => {
            let env = campaign::Env {
                cli: args.cli,
                work: args.work,
            };
            let spec = workloads::campaign_service(args.seed);
            if trace {
                campaign::traced(&spec, &env)
            } else {
                campaign::untraced(&spec, &env, args.seconds)
            }
        }
    };
    out.info("simd_backend", wcdma_math::simd::BACKEND);
    out.info(
        "canonical_order_version",
        wcdma_math::CANONICAL_ORDER_VERSION,
    );
    out.info(
        "checkpoint_format_version",
        wcdma_sim::campaign::CHECKPOINT_FORMAT_VERSION,
    );
    out.info(
        "available_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", out.to_json(table));
    ExitCode::SUCCESS
}
