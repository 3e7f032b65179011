//! E11 — frame-pipeline scaling: frames/second vs mobile count, and vs
//! intra-frame thread count.
//!
//! The ROADMAP's north star is serving heavy traffic from very large user
//! populations, so the 20 ms frame loop (mobility → network → traffic →
//! delivery → scheduling) must scale with the mobile count. This bench
//! sweeps the population and reports achieved frames/second and the
//! real-time margin (frames/sec × 20 ms), the direct regression guard for
//! the struct-of-arrays hot-path work.
//!
//! The **thread sweep** measures the deterministic intra-frame parallelism
//! (`SimConfig::frame_threads`, chunked per-mobile phase with the
//! chunk-order load fold): frames/s at 1/2/4/8 threads for large
//! populations, with and without candidate-cell culling
//! (`SimConfig::candidate_k`). In quick mode the sweep shrinks to 5k
//! mobiles × {1, 4} threads and **asserts the 4-thread row is no slower
//! than the 1-thread row** — the CI guard that the parallel path never
//! regresses below inline execution at scale.
//!
//! The **large-population rows** (full mode only) are the million-mobile
//! acceptance path: 100k mobiles exact vs culled on one thread, plus a
//! 1M-mobile culled row that simply has to complete in real frames/s.
//! Rows carry their `candidate_k` so downstream trend tooling can keep
//! exact and culled trajectories apart, and the snapshot records the
//! machine's core count so thread-sweep rows measured on a single-core
//! container (pure overhead floor) can be discarded downstream.
//!
//! The **scheduling sweep** prices the warm-started scheduling phase
//! (persistent per-direction scheduler workspaces: region rows, δβ̄/bounds
//! columns, the ILP problem shell and branch-and-bound buffers) against a
//! per-round cold reset (`SimConfig::cold_sched`) on a scheduling-heavy
//! traffic profile. Warm and cold are bit-identical by construction — the
//! rows measure the pure optimisation: frames/s in both modes and the
//! warm-start hit rate. The only win is allocation elimination, so in
//! quick mode the bench asserts a wide, median-of-k bound: over 5
//! interleaved cold/warm pairs the median warm/cold ratio is at least 0.8
//! (and the hit rate clears the 50 % bar the tests pin).
//!
//! The bench also carries the **dispatch-overhead smoke** for the open
//! admission-policy API: the scheduler's policy is a boxed
//! `AdmissionPolicy` trait object, constructed either from the deprecated
//! `Policy` enum shim or resolved by name from the `PolicyRegistry`. Both
//! must run the frame pipeline at the same speed (asserted within 2 % in
//! quick mode) — the assert guards the *construction paths* (parameter
//! drift between the shim and the registry defaults, or a wrapper layer
//! sneaking into either) rather than dyn-vs-static dispatch, since the
//! static enum-match scheduler no longer exists. The absolute frames/s
//! rows in `BENCH_e11_scale.json` are the cross-PR trend guard for the
//! boxed pipeline's cost itself (PR 2's enum-match scheduler recorded
//! 9063 fps at 200 mobiles; the boxed redesign measured 9086 on the same
//! machine).
//!
//! The **measurement-feedback smoke** prices the in-loop QoS machinery
//! behind the `measured-region` policy (per-frame violation accounting +
//! the windowed monitor): with every mismatch knob disabled its decisions
//! are bit-identical to `jaba-sd-j2`, so the frames/s gap is pure
//! feedback overhead — asserted ≤ 2 % in quick mode and recorded in the
//! snapshot's `feedback` object.
//!
//! Set `WCDMA_BENCH_QUICK=1` (CI smoke mode) to shrink the sweep so the
//! bench cannot bit-rot without burning CI minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use wcdma_admission::{Policy, PolicyRegistry, SchedStats};
use wcdma_bench::banner;
use wcdma_sim::{SimConfig, Simulation, Table};

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

/// Steps `frames` frames after a short warm-up and returns frames/second.
fn frames_per_sec(n_mobiles: usize, frames: usize) -> f64 {
    cfg_frames_per_sec(scale_cfg(n_mobiles), frames)
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

/// The large-population rows (full mode only): `(mobiles, candidate_k,
/// frames/s)` at one frame thread. 100k is measured exact *and* culled —
/// the cross-PR acceptance pair — and the 1M row proves a million-mobile
/// frame loop completes at a measurable rate.
fn large_rows() -> Vec<(usize, usize, f64)> {
    vec![
        (100_000, 0, cfg_frames_per_sec(scale_cfg(100_000), 20)),
        (100_000, CULL_K, cfg_frames_per_sec(culled_cfg(100_000), 20)),
        (
            1_000_000,
            CULL_K,
            cfg_frames_per_sec(culled_cfg(1_000_000), 3),
        ),
    ]
}

/// Measures the enum-shim-constructed scheduler against the
/// registry-resolved one (which must carry identical policy parameters)
/// and returns `(enum_fps, registry_fps)`, best-of-`trials` interleaved
/// so machine noise hits both variants alike. Both produce boxed
/// schedulers: a gap beyond noise means the two construction paths no
/// longer build the same policy.
fn dispatch_overhead(n_mobiles: usize, frames: usize, trials: usize) -> (f64, f64) {
    let enum_cfg = scale_cfg(n_mobiles).with_policy(Policy::jaba_sd_default());
    let registry_cfg = scale_cfg(n_mobiles).with_policy(
        PolicyRegistry::standard()
            .resolve("jaba-sd-j2")
            .expect("standard registry name"),
    );
    let mut best = (0.0f64, 0.0f64);
    for _ in 0..trials {
        best.0 = best.0.max(cfg_frames_per_sec(enum_cfg.clone(), frames));
        best.1 = best.1.max(cfg_frames_per_sec(registry_cfg.clone(), frames));
    }
    best
}

/// Measures the model-trusting baseline against the measurement-based
/// `measured-region` policy with every mismatch knob at its disabled
/// default. With no faults and no load stress the AIMD scale stays at
/// η = 1 and the decisions are bit-identical to JABA-SD, so the frames/s
/// gap prices exactly the QoS-feedback plumbing (per-frame window
/// accounting + the monitor handoff). Best-of-`trials`, interleaved.
fn feedback_overhead(n_mobiles: usize, frames: usize, trials: usize) -> (f64, f64) {
    let resolve = |name: &str| {
        PolicyRegistry::standard()
            .resolve(name)
            .expect("standard registry name")
    };
    let jaba_cfg = scale_cfg(n_mobiles).with_policy(resolve("jaba-sd-j2"));
    let measured_cfg = scale_cfg(n_mobiles).with_policy(resolve("measured-region"));
    let mut best = (0.0f64, 0.0f64);
    for _ in 0..trials {
        best.0 = best.0.max(cfg_frames_per_sec(jaba_cfg.clone(), frames));
        best.1 = best.1.max(cfg_frames_per_sec(measured_cfg.clone(), frames));
    }
    best
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

/// The intra-frame parallelism sweep: `(mobiles, threads, candidate_k,
/// frames/s)` rows. Full mode repeats the largest population with
/// candidate culling on, so the snapshot carries a mobiles × threads
/// matrix for both the exact and the culled hot path.
fn thread_sweep(quick: bool) -> Vec<(usize, usize, usize, f64)> {
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
        for &t in threads {
            rows.push((n, t, k, thread_cell(n, t, k, frames)));
        }
    }
    rows
}

/// A scheduling-heavy variant of `scale_cfg`: half the population is data
/// users with short bursts and short reading times, so the request queue
/// almost always has work and the per-frame cost is dominated by
/// scheduling rounds rather than bit delivery.
fn sched_cfg(n_mobiles: usize, cold: bool) -> SimConfig {
    let mut c = scale_cfg(n_mobiles);
    c.n_data = (n_mobiles / 2).max(1);
    c.n_voice = n_mobiles - c.n_data;
    c.traffic.mean_burst_bits = 20_000.0;
    c.traffic.max_burst_bits = 60_000.0;
    c.traffic.mean_reading_s = 0.3;
    c.cold_sched = cold;
    c
}

/// One row of the warm-vs-cold scheduling sweep.
struct SchedRow {
    mobiles: usize,
    cold_fps: f64,
    warm_fps: f64,
    /// The warm run's cumulative scheduler counters (warm-up included).
    stats: SchedStats,
}

impl SchedRow {
    /// Warm-start hit rate over the solves.
    fn hit_rate(&self) -> f64 {
        if self.stats.solves == 0 {
            0.0
        } else {
            self.stats.warm_hits as f64 / self.stats.solves as f64
        }
    }
}

/// Measures one (mobiles, mode) cell of the scheduling sweep: frames/s
/// plus the scheduler's cumulative counters.
fn sched_cell(n_mobiles: usize, cold: bool, frames: usize) -> (f64, SchedStats) {
    let mut sim = Simulation::new(sched_cfg(n_mobiles, cold));
    for _ in 0..20 {
        sim.step_frame(); // warm up active sets, workspaces, capacities
    }
    let t0 = Instant::now();
    for _ in 0..frames {
        sim.step_frame();
    }
    let dt = t0.elapsed().as_secs_f64();
    black_box(sim.time());
    (frames as f64 / dt, sim.sched_stats())
}

/// Frames per scheduling-sweep cell in quick (CI smoke) mode.
const QUICK_SCHED_FRAMES: usize = 150;

/// Interleaved cold/warm pairs behind the quick-mode scheduling guard.
const SCHED_GUARD_PAIRS: usize = 5;

/// The warm-vs-cold scheduling sweep. Cold and warm cells are measured
/// interleaved per population so machine noise hits both modes alike.
fn sched_sweep(quick: bool) -> Vec<SchedRow> {
    let (sizes, frames): (&[usize], usize) = if quick {
        (&[200], QUICK_SCHED_FRAMES)
    } else {
        (&[200, 1000], 300)
    };
    sizes
        .iter()
        .map(|&n| {
            let (cold_fps, _) = sched_cell(n, true, frames);
            let (warm_fps, stats) = sched_cell(n, false, frames);
            SchedRow {
                mobiles: n,
                cold_fps,
                warm_fps,
                stats,
            }
        })
        .collect()
}

/// Writes the sweep plus the dispatch smoke as a machine-readable snapshot
/// (CI uploads it as `BENCH_e11_scale.json` so the perf trajectory
/// accumulates over PRs).
#[allow(clippy::too_many_arguments)]
fn write_json_snapshot(
    path: &str,
    quick: bool,
    rows: &[(usize, f64)],
    scale: &[(usize, usize, f64)],
    sweep: &[(usize, usize, usize, f64)],
    sched: &[SchedRow],
    dispatch: (f64, f64),
    feedback: (f64, f64),
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
        .map(|(n, k, fps)| {
            format!(
                "    {{\"mobiles\": {n}, \"candidate_k\": {k}, \"frames_per_sec\": {fps:.2}, \
                 \"x_realtime\": {:.3}}}",
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
    let sched_entries: Vec<String> = sched
        .iter()
        .map(|r| {
            format!(
                "    {{\"mobiles\": {}, \"cold_fps\": {:.1}, \"warm_fps\": {:.1}, \
                 \"warm_over_cold\": {:.3}, \"warm_hit_rate\": {:.3}}}",
                r.mobiles,
                r.cold_fps,
                r.warm_fps,
                r.warm_fps / r.cold_fps,
                r.hit_rate(),
            )
        })
        .collect();
    let (enum_fps, registry_fps) = dispatch;
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
    let (jaba_fps, measured_fps) = feedback;
    let json = format!(
        "{{\n  \"bench\": \"e11_scale\",\n  \"quick\": {quick},\n  \"cores\": {cores},{note}\n  \"canonical_order_version\": {},\n  \"rows\": [\n{}\n  ],\n  \"scale_rows\": [\n{}\n  ],\n  \"thread_sweep\": [\n{}\n  ],\n  \"sched_sweep\": [\n{}\n  ],\n  \"dispatch\": {{\"enum_shim_fps\": {enum_fps:.1}, \"registry_boxed_fps\": {registry_fps:.1}, \"ratio\": {:.4}}},\n  \"feedback\": {{\"jaba_sd_fps\": {jaba_fps:.1}, \"measured_region_fps\": {measured_fps:.1}, \"ratio\": {:.4}}}\n}}\n",
        wcdma_math::CANONICAL_ORDER_VERSION,
        entries.join(",\n"),
        scale_entries.join(",\n"),
        sweep_entries.join(",\n"),
        sched_entries.join(",\n"),
        registry_fps / enum_fps,
        measured_fps / jaba_fps
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

fn print_experiment() {
    banner("E11", "frame-pipeline scaling: frames/sec vs mobile count");
    let quick = quick_mode();
    let (sizes, frames): (&[usize], usize) = if quick {
        (&[200, 1000], 30)
    } else {
        (&[200, 1000, 5000], 150)
    };
    let mut t = Table::new(&["mobiles", "frames/sec", "x realtime (20 ms frames)"]);
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let fps = frames_per_sec(n, frames);
        t.row(&[
            n.to_string(),
            format!("{fps:.1}"),
            format!("{:.2}", fps * 0.02),
        ]);
        rows.push((n, fps));
    }
    println!("{}", t.render());

    // Large-population rows (full mode only): 100k exact vs culled, plus
    // the million-mobile culled row. One frame thread — this is the
    // single-core hot-path trend, independent of the machine's core count.
    let scale = if quick { Vec::new() } else { large_rows() };
    if !scale.is_empty() {
        let mut ls = Table::new(&["mobiles", "candidate k", "frames/sec", "x realtime"]);
        for &(n, k, fps) in &scale {
            ls.row(&[
                n.to_string(),
                if k == 0 { "all".into() } else { k.to_string() },
                format!("{fps:.2}"),
                format!("{:.3}", fps * 0.02),
            ]);
        }
        println!("{}", ls.render());
    }

    // Thread sweep: deterministic intra-frame parallelism. Results are
    // bit-identical across thread counts; only frames/s moves.
    let mut sweep = thread_sweep(quick);
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if quick && cores >= 2 {
        // CI guard: at 5k mobiles the 4-thread row must be no slower than
        // the 1-thread row. One clean re-measure absorbs scheduler noise
        // before the assert fails the bench. On a single-core machine the
        // guard is vacuous (threads cannot run concurrently), so it is
        // skipped rather than asserted against pure scheduling overhead.
        let cell = |rows: &[(usize, usize, usize, f64)], t: usize| {
            rows.iter()
                .find(|&&(n, rt, k, _)| n == 5000 && rt == t && k == 0)
                .map(|&(_, _, _, f)| f)
                .expect("quick sweep covers 5k x {1,4}")
        };
        let (mut one, mut four) = (cell(&sweep, 1), cell(&sweep, 4));
        if four < 0.95 * one {
            // One clean re-measure of just the two guard cells, patched
            // back into the sweep so the guard, the printed note, and the
            // JSON snapshot all report the same numbers.
            one = thread_cell(5000, 1, 0, QUICK_SWEEP_FRAMES);
            four = thread_cell(5000, 4, 0, QUICK_SWEEP_FRAMES);
            for row in sweep.iter_mut() {
                if row.0 == 5000 && row.2 == 0 && (row.1 == 1 || row.1 == 4) {
                    row.3 = if row.1 == 1 { one } else { four };
                }
            }
            println!("re-measured 5k guard cells: 1T {one:.1} fps, 4T {four:.1} fps");
        }
        // A 5 % noise floor keeps the guard from flaking on shared CI
        // runners while still catching any real parallel-path regression.
        assert!(
            four >= 0.95 * one,
            "4-thread frame pipeline slower than 1-thread at 5k mobiles: {four:.1} vs {one:.1} fps"
        );
    } else if quick {
        println!("single-core machine: skipping the 4-thread-vs-1-thread guard");
    }

    // Scheduling sweep: warm-started scheduling phase vs per-round cold
    // reset on a scheduling-heavy profile. Bit-identical either way; the
    // rows price the optimisation and record the warm-start hit rate.
    let sched = sched_sweep(quick);
    let mut ss = Table::new(&[
        "mobiles",
        "cold fps",
        "warm fps",
        "speedup",
        "warm-hit rate",
    ]);
    for r in &sched {
        ss.row(&[
            r.mobiles.to_string(),
            format!("{:.1}", r.cold_fps),
            format!("{:.1}", r.warm_fps),
            format!("{:.2}x", r.warm_fps / r.cold_fps),
            format!("{:.0}%", 100.0 * r.hit_rate()),
        ]);
    }
    println!("{}", ss.render());
    if quick {
        // CI guard: warm scheduling must not be clearly slower than cold.
        // Single whole-frame timings spread 10–30 % on shared machines, so
        // the bound is wide and taken over a median: SCHED_GUARD_PAIRS
        // interleaved cold/warm pairs, median warm/cold ratio ≥ 0.8.
        let row = &sched[0];
        let mut ratios: Vec<f64> = (0..SCHED_GUARD_PAIRS)
            .map(|_| {
                let (cold_fps, _) = sched_cell(row.mobiles, true, QUICK_SCHED_FRAMES);
                let (warm_fps, _) = sched_cell(row.mobiles, false, QUICK_SCHED_FRAMES);
                warm_fps / cold_fps
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[ratios.len() / 2];
        println!(
            "sched guard: warm/cold median {median:.3} over {SCHED_GUARD_PAIRS} pairs {ratios:.3?}"
        );
        assert!(
            median >= 0.8,
            "warm-started scheduling slower than cold at {} mobiles: median warm/cold {median:.3}",
            row.mobiles
        );
        // Deterministic (fixed seed), so no noise floor: the optimisation
        // must actually engage on this profile, mirroring the test bar.
        assert!(
            row.stats.warm_hits * 2 >= row.stats.solves,
            "warm-start hit rate below 50%: {:?}",
            row.stats
        );
    }

    // Dispatch-overhead smoke: enum-shim vs registry-resolved boxed-trait
    // scheduler on the same scenario. Best-of-N interleaved trials; on a
    // noisy runner a gap over threshold gets one clean re-measure before
    // the quick-mode assert fails the bench.
    let frames = if quick { 250 } else { 300 };
    let (mut enum_fps, mut registry_fps) = dispatch_overhead(200, frames, 7);
    let gap = |a: f64, b: f64| (a - b).abs() / a.max(b);
    if quick && gap(enum_fps, registry_fps) > 0.02 {
        (enum_fps, registry_fps) = dispatch_overhead(200, frames, 7);
    }
    println!(
        "policy dispatch: enum-shim {enum_fps:.1} fps vs registry-boxed {registry_fps:.1} fps \
         ({:+.2} % gap)",
        100.0 * (registry_fps / enum_fps - 1.0)
    );
    if quick {
        assert!(
            gap(enum_fps, registry_fps) <= 0.02,
            "boxed-trait dispatch overhead exceeds 2 %: enum-shim {enum_fps:.1} fps vs \
             registry-boxed {registry_fps:.1} fps"
        );
    }

    // Measurement-feedback overhead smoke: with every mismatch knob at
    // its disabled default, `measured-region` makes the same decisions as
    // `jaba-sd-j2` (η holds at 1) and the only added work is the QoS
    // window accounting and monitor handoff — which must cost ≤ 2 %.
    let (mut jaba_fps, mut measured_fps) = feedback_overhead(200, frames, 7);
    if quick && measured_fps < 0.98 * jaba_fps {
        (jaba_fps, measured_fps) = feedback_overhead(200, frames, 7);
    }
    println!(
        "measurement feedback: jaba-sd-j2 {jaba_fps:.1} fps vs measured-region \
         {measured_fps:.1} fps ({:+.2} % gap, mismatch disabled)",
        100.0 * (measured_fps / jaba_fps - 1.0)
    );
    if quick {
        assert!(
            measured_fps >= 0.98 * jaba_fps,
            "measurement-feedback path costs more than 2 % with mismatch disabled: \
             jaba-sd-j2 {jaba_fps:.1} fps vs measured-region {measured_fps:.1} fps"
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
                &sched,
                (enum_fps, registry_fps),
                (jaba_fps, measured_fps),
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    print_experiment();
    let mut group = c.benchmark_group("e11");
    let sizes: &[usize] = if quick_mode() { &[200] } else { &[200, 1000] };
    for &n in sizes {
        let mut sim = Simulation::new(scale_cfg(n));
        for _ in 0..20 {
            sim.step_frame();
        }
        group.bench_with_input(BenchmarkId::new("step_frame", n), &n, |b, _| {
            b.iter(|| {
                sim.step_frame();
                black_box(sim.time())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
