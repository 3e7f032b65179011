//! Frame-pipeline scaling: frames/second vs mobile count, and vs
//! intra-frame thread count.
//!
//! ```text
//! cargo run --release --example scale
//! WCDMA_BENCH_QUICK=1 WCDMA_BENCH_JSON=$PWD/BENCH_e11_scale.json \
//!     cargo run --release --example scale     # CI smoke: guards + snapshot
//! ```
//!
//! The ROADMAP's north star is serving heavy traffic from very large user
//! populations, so the 20 ms frame loop (mobility → network → traffic →
//! delivery → scheduling) must scale with the mobile count. This example
//! sweeps the population and reports achieved frames/second and the
//! real-time margin (frames/sec × 20 ms), the direct regression guard for
//! the struct-of-arrays hot-path work.
//!
//! The **thread sweep** measures the deterministic intra-frame parallelism
//! (`SimConfig::frame_threads`, chunked per-mobile phase with the
//! chunk-order load fold): frames/s at 1/2/4/8 threads for large
//! populations, with and without candidate-cell culling
//! (`SimConfig::candidate_k`). Full mode skips thread counts above the
//! machine's core count, which would measure oversubscription, and takes
//! the 5k-mobile 1-thread cell from the population table rather than
//! running that configuration twice. In quick mode the sweep shrinks to 5k
//! mobiles × {1, 4} threads, and on a machine with at least two cores the
//! example asserts a wide, median-of-k bound like the feedback guard below:
//! over 9 interleaved pairs at 5k mobiles, the median frames/s ratio of
//! `min(4, cores)` threads over 1 thread is at least 0.8 — the CI guard
//! that the parallel path never falls clearly below inline execution at
//! scale. Capping at the core count keeps the guard measuring the
//! pipeline rather than oversubscription and co-tenant load.
//!
//! The **large-population rows** (full mode only) are the million-mobile
//! acceptance path: 100k mobiles exact vs culled on one thread, plus two
//! 1M-mobile culled rows that simply have to complete in real frames/s —
//! one on the baseline 7 cells, one on the 217-cell metro layout with
//! K = 7, whose per-link network state is sized by candidates (O(n·K)).
//! Rows carry their cell count and `candidate_k` so downstream trend
//! tooling can keep exact and culled trajectories apart, and the snapshot
//! records the machine's core count so thread-sweep rows measured on a
//! single-core container (pure overhead floor) can be discarded
//! downstream.
//!
//! The **measurement-feedback smoke** prices the in-loop QoS machinery
//! behind the `measured-region` policy (per-frame violation accounting +
//! the windowed monitor): with every mismatch knob disabled its decisions
//! are bit-identical to `jaba-sd-j2`, so the frames/s gap is pure
//! feedback overhead. Like the thread guard, quick mode asserts a wide,
//! median-of-k bound — over 5 interleaved jaba/measured pairs the
//! median measured/jaba ratio is at least 0.8 — and the snapshot's
//! `feedback` object records the medians.
//!
//! Set `WCDMA_BENCH_QUICK=1` (CI smoke mode) to shrink the sweep so the
//! study cannot bit-rot without burning CI minutes. Set
//! `WCDMA_BENCH_JSON=<path>` to write the machine-readable snapshot; its
//! `"bench": "e11_scale"` key keeps the trend continuous with the snapshots
//! written when this study was the `e11_scale` bench.

use std::hint::black_box;
use std::time::Instant;
use wcdma::admission::PolicyRegistry;
use wcdma::math::CANONICAL_ORDER_VERSION;
use wcdma::sim::{SimConfig, Simulation, Table};

/// Scenario with `n_mobiles` total users (10 % data, 90 % voice).
fn scale_cfg(n_mobiles: usize) -> SimConfig {
    let mut c = SimConfig::baseline();
    c.n_data = (n_mobiles / 10).max(1);
    c.n_voice = n_mobiles - c.n_data;
    c.seed = 0xE11;
    c
}

/// Steps `frames` frames of `cfg` after a short warm-up and returns
/// frames/second.
fn cfg_frames_per_sec(cfg: SimConfig, frames: usize) -> f64 {
    let mut sim = Simulation::new(cfg);
    for _ in 0..20 {
        sim.step_frame(); // warm up active sets, power control, capacities
    }
    let t0 = Instant::now();
    for _ in 0..frames {
        sim.step_frame();
    }
    let dt = t0.elapsed().as_secs_f64();
    black_box(sim.time());
    frames as f64 / dt
}

/// Candidate-list size for the culled rows: 3 of the baseline 7 cells —
/// the minimum the config accepts (`K ≥ active_set_max = 3`), so the
/// full soft hand-off set still fits inside the candidate list.
const CULL_K: usize = 3;

/// Candidate refresh cadence for the culled rows (frames).
const CULL_REFRESH: usize = 8;

/// `scale_cfg` with candidate-cell culling on (`candidate_k = CULL_K`).
fn culled_cfg(n_mobiles: usize) -> SimConfig {
    scale_cfg(n_mobiles).with_candidates(CULL_K, CULL_REFRESH)
}

/// The metro layout for the million-mobile row: 8 rings (217 cells),
/// K = 7 candidates refreshed every 8 frames.
fn metro_cfg(n_mobiles: usize) -> SimConfig {
    let mut c = scale_cfg(n_mobiles).with_candidates(7, 8);
    c.rings = 8;
    c
}

/// The large-population rows (full mode only): `(mobiles, cells,
/// candidate_k, frames/s)` at one frame thread. 100k is measured exact
/// *and* culled — the acceptance pair tracked across commits — and the 1M
/// rows prove a million-mobile frame loop completes at a measurable rate,
/// on 7 cells and on 217.
fn large_rows() -> Vec<(usize, usize, usize, f64)> {
    vec![
        (100_000, 7, 0, cfg_frames_per_sec(scale_cfg(100_000), 20)),
        (
            100_000,
            7,
            CULL_K,
            cfg_frames_per_sec(culled_cfg(100_000), 20),
        ),
        (
            1_000_000,
            7,
            CULL_K,
            cfg_frames_per_sec(culled_cfg(1_000_000), 3),
        ),
        (
            1_000_000,
            217,
            7,
            cfg_frames_per_sec(metro_cfg(1_000_000), 3),
        ),
    ]
}

/// Interleaved jaba/measured pairs behind the quick-mode feedback guard.
const FEEDBACK_GUARD_PAIRS: usize = 5;

/// Measures the model-trusting baseline against the measurement-based
/// `measured-region` policy with every mismatch knob at its disabled
/// default. With no faults and no load stress the AIMD scale stays at
/// η = 1 and the decisions are bit-identical to JABA-SD, so the frames/s
/// gap prices exactly the QoS-feedback plumbing (per-frame window
/// accounting + the monitor handoff). Returns the medians of `pairs`
/// interleaved runs as `(jaba_fps, measured_fps, measured/jaba ratio)`,
/// the ratio taken per pair so machine noise hits both sides alike.
fn feedback_overhead(n_mobiles: usize, frames: usize, pairs: usize) -> (f64, f64, f64) {
    let resolve = |name: &str| {
        PolicyRegistry::standard()
            .resolve(name)
            .expect("standard registry name")
    };
    let jaba_cfg = scale_cfg(n_mobiles).with_policy(resolve("jaba-sd-j2"));
    let measured_cfg = scale_cfg(n_mobiles).with_policy(resolve("measured-region"));
    let (mut jaba, mut measured, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..pairs {
        let j = cfg_frames_per_sec(jaba_cfg.clone(), frames);
        let m = cfg_frames_per_sec(measured_cfg.clone(), frames);
        jaba.push(j);
        measured.push(m);
        ratios.push(m / j);
    }
    (median_of(jaba), median_of(measured), median_of(ratios))
}

/// The median of a non-empty sample (the upper one for an even count).
fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn quick_mode() -> bool {
    std::env::var("WCDMA_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Measures frames/s for one (mobiles, frame_threads, candidate_k) cell of
/// the thread sweep (`candidate_k = 0` ⇒ exact, every cell). Results are
/// bit-identical across thread counts — only the wall-clock changes.
fn thread_cell(n_mobiles: usize, threads: usize, candidate_k: usize, frames: usize) -> f64 {
    let cfg = scale_cfg(n_mobiles)
        .with_frame_threads(threads)
        .with_candidates(candidate_k, CULL_REFRESH);
    cfg_frames_per_sec(cfg, frames)
}

/// Frames per thread-sweep cell in quick (CI smoke) mode.
const QUICK_SWEEP_FRAMES: usize = 60;

/// Interleaved 1-thread/many-thread pairs behind the quick-mode thread
/// guard.
const THREAD_GUARD_PAIRS: usize = 9;

/// The intra-frame parallelism sweep: `(mobiles, threads, candidate_k,
/// frames/s)` rows. Full mode repeats the largest population with
/// candidate culling on, so the snapshot carries a mobiles × threads
/// matrix for both the exact and the culled hot path, and runs no more
/// threads than `cores`. A 1-thread exact cell whose population `table`
/// (the population table's `(mobiles, frames/s)` rows) already measured
/// reuses that row: it is the same configuration.
fn thread_sweep(
    quick: bool,
    cores: usize,
    table: &[(usize, f64)],
) -> Vec<(usize, usize, usize, f64)> {
    let cells: Vec<(usize, usize)> = if quick {
        [(5000, 0)].into()
    } else {
        let mut c: Vec<(usize, usize)> = [5000, 20_000, 100_000].map(|n| (n, 0)).into();
        c.push((100_000, CULL_K));
        c
    };
    let threads: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut rows = Vec::with_capacity(cells.len() * threads.len());
    for &(n, k) in &cells {
        // Fixed work budget per row so the 100k-mobile cells stay sane.
        let frames = if quick {
            QUICK_SWEEP_FRAMES
        } else {
            (600_000 / n).clamp(20, 150)
        };
        for &t in threads.iter().filter(|&&t| quick || t <= cores) {
            let fps = match table.iter().find(|row| row.0 == n) {
                Some(&(_, fps)) if t == 1 && k == 0 => fps,
                _ => thread_cell(n, t, k, frames),
            };
            rows.push((n, t, k, fps));
        }
    }
    rows
}

/// Writes the sweeps plus the feedback smoke as a machine-readable snapshot
/// (CI uploads it as `BENCH_e11_scale.json` so the perf trajectory
/// accumulates across commits).
fn write_json_snapshot(
    path: &str,
    quick: bool,
    rows: &[(usize, f64)],
    scale: &[(usize, usize, usize, f64)],
    sweep: &[(usize, usize, usize, f64)],
    feedback: (f64, f64, f64),
) {
    let entries: Vec<String> = rows
        .iter()
        .map(|(n, fps)| {
            format!(
                "    {{\"mobiles\": {n}, \"frames_per_sec\": {fps:.1}, \"x_realtime\": {:.2}}}",
                fps * 0.02
            )
        })
        .collect();
    let scale_entries: Vec<String> = scale
        .iter()
        .map(|(n, cells, k, fps)| {
            format!(
                "    {{\"mobiles\": {n}, \"cells\": {cells}, \"candidate_k\": {k}, \
                 \"frames_per_sec\": {fps:.2}, \"x_realtime\": {:.3}}}",
                fps * 0.02
            )
        })
        .collect();
    let sweep_entries: Vec<String> = sweep
        .iter()
        .map(|(n, t, k, fps)| {
            format!(
                "    {{\"mobiles\": {n}, \"threads\": {t}, \"candidate_k\": {k}, \
                 \"frames_per_sec\": {fps:.1}, \"x_realtime\": {:.2}}}",
                fps * 0.02
            )
        })
        .collect();
    // `cores` lets downstream trend tooling discard thread-sweep rows
    // measured on a single-core container, where every threads > 1 cell is
    // an overhead floor rather than a scaling measurement; the explicit
    // note spares human readers the same inference.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let note = if cores == 1 {
        "\n  \"note\": \"single-core container: thread_sweep rows measure overhead floor, \
         not scaling\","
    } else {
        ""
    };
    let (jaba_fps, measured_fps, ratio) = feedback;
    let json = format!(
        "{{\n  \"bench\": \"e11_scale\",\n  \"quick\": {quick},\n  \"cores\": {cores},{note}\n  \"canonical_order_version\": {},\n  \"rows\": [\n{}\n  ],\n  \"scale_rows\": [\n{}\n  ],\n  \"thread_sweep\": [\n{}\n  ],\n  \"feedback\": {{\"jaba_sd_fps\": {jaba_fps:.1}, \"measured_region_fps\": {measured_fps:.1}, \"ratio\": {ratio:.4}}}\n}}\n",
        CANONICAL_ORDER_VERSION,
        entries.join(",\n"),
        scale_entries.join(",\n"),
        sweep_entries.join(",\n"),
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

fn main() {
    println!("frame-pipeline scaling: frames/sec vs mobile count");
    let quick = quick_mode();
    let (sizes, frames): (&[usize], usize) = if quick {
        (&[200, 1000], 30)
    } else {
        (&[200, 1000, 5000], 150)
    };
    let mut t = Table::new(&["mobiles", "frames/sec", "x realtime (20 ms frames)"]);
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let fps = cfg_frames_per_sec(scale_cfg(n), frames);
        t.row(&[
            n.to_string(),
            format!("{fps:.1}"),
            format!("{:.2}", fps * 0.02),
        ]);
        rows.push((n, fps));
    }
    println!("{}", t.render());

    // Large-population rows (full mode only): 100k exact vs culled, plus
    // the million-mobile culled rows. One frame thread — this is the
    // single-core hot-path trend, independent of the machine's core count.
    let scale = if quick { Vec::new() } else { large_rows() };
    if !scale.is_empty() {
        let mut ls = Table::new(&[
            "mobiles",
            "cells",
            "candidate k",
            "frames/sec",
            "x realtime",
        ]);
        for &(n, cells, k, fps) in &scale {
            ls.row(&[
                n.to_string(),
                cells.to_string(),
                if k == 0 { "all".into() } else { k.to_string() },
                format!("{fps:.2}"),
                format!("{:.3}", fps * 0.02),
            ]);
        }
        println!("{}", ls.render());
    }

    // Thread sweep: deterministic intra-frame parallelism. Results are
    // bit-identical across thread counts; only frames/s moves.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep = thread_sweep(quick, cores, &rows);
    let mut ts = Table::new(&[
        "mobiles",
        "candidate k",
        "frame threads",
        "frames/sec",
        "speedup vs 1T",
    ]);
    for &(n, t, k, fps) in &sweep {
        let base = sweep
            .iter()
            .find(|&&(bn, bt, bk, _)| bn == n && bt == 1 && bk == k)
            .map(|&(_, _, _, f)| f)
            .unwrap_or(fps);
        ts.row(&[
            n.to_string(),
            if k == 0 { "all".into() } else { k.to_string() },
            t.to_string(),
            format!("{fps:.1}"),
            format!("{:.2}x", fps / base),
        ]);
    }
    println!("{}", ts.render());
    if quick && cores >= 2 {
        // CI guard: at 5k mobiles the frame pipeline on `min(4, cores)`
        // threads must not be clearly slower than on one. More threads
        // than cores would measure oversubscription and co-tenant load,
        // not the pipeline. Single whole-frame timings spread 10–30 % on
        // shared machines, so the bound is wide and taken over a median:
        // THREAD_GUARD_PAIRS interleaved pairs, median ratio ≥ 0.8. On a
        // single-core machine the guard is vacuous (threads cannot run
        // concurrently), so it is skipped rather than asserted against
        // pure scheduling overhead.
        let threads = cores.min(4);
        let ratios: Vec<f64> = (0..THREAD_GUARD_PAIRS)
            .map(|_| {
                let one = thread_cell(5000, 1, 0, QUICK_SWEEP_FRAMES);
                let many = thread_cell(5000, threads, 0, QUICK_SWEEP_FRAMES);
                many / one
            })
            .collect();
        let median = median_of(ratios.clone());
        println!(
            "thread guard: {threads}T/1T median {median:.3} over {THREAD_GUARD_PAIRS} pairs \
             {ratios:.3?}"
        );
        assert!(
            median >= 0.8,
            "{threads}-thread frame pipeline clearly slower than 1-thread at 5k mobiles: \
             median {threads}T/1T {median:.3}"
        );
    } else if quick {
        println!("single-core machine: skipping the many-thread-vs-1-thread guard");
    }

    // Measurement-feedback overhead smoke: with every mismatch knob at
    // its disabled default, `measured-region` makes the same decisions as
    // `jaba-sd-j2` (η holds at 1) and the only added work is the QoS
    // window accounting and monitor handoff. Whole-frame timings spread
    // 10–30 % on shared machines, so the quick-mode guard is the same
    // wide median-of-k bound as the thread guard.
    let frames = if quick { 250 } else { 300 };
    let (jaba_fps, measured_fps, ratio) = feedback_overhead(200, frames, FEEDBACK_GUARD_PAIRS);
    println!(
        "measurement feedback: jaba-sd-j2 {jaba_fps:.1} fps vs measured-region \
         {measured_fps:.1} fps (median measured/jaba {ratio:.3} over \
         {FEEDBACK_GUARD_PAIRS} pairs, mismatch disabled)"
    );
    if quick {
        assert!(
            ratio >= 0.8,
            "measurement-feedback path clearly slower with mismatch disabled: median \
             measured/jaba {ratio:.3} (jaba-sd-j2 {jaba_fps:.1} fps, measured-region \
             {measured_fps:.1} fps)"
        );
    }

    if let Ok(path) = std::env::var("WCDMA_BENCH_JSON") {
        if !path.is_empty() {
            write_json_snapshot(
                &path,
                quick,
                &rows,
                &scale,
                &sweep,
                (jaba_fps, measured_fps, ratio),
            );
        }
    }
}
