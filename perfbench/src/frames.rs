//! Frame-loop workloads (`bursty-cell`, `metro`).
//!
//! The untraced run times `Simulation::step_frame` alone. The traced run
//! steps the same simulation with a decision-trace sink attached and,
//! after every frame, re-runs the frame's layer calls through public entry
//! points owned by the benchmark:
//!
//! * a **mirror** of the network and the walkers, built and seeded the way
//!   `Simulation::new` builds its own and fed the simulation's grants, so
//!   mobility (`RandomWaypoint::step`), the move loop
//!   (`Network::move_mobile`) and `Network::step` can be timed one by one
//!   (the mirror's loads are compared bit for bit with the simulation's:
//!   `trace.mirror_exact`);
//! * a **replay scheduler** that re-solves every recorded scheduling round
//!   with `Scheduler::schedule`, over the simulation's own measurement
//!   views and loads, with burst sizes and arrival times tracked by mirror
//!   traffic sources (`admission.replay_match_ratio` counts the rounds
//!   whose grants it reproduces exactly).
//!
//! The frame time not covered by these spans is `sim.engine.residual_us`:
//! traffic, MAC, CSI, delivery, and QoS bookkeeping inside `step_frame`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wcdma_admission::{RequestState, SchedStats, Scheduler};
use wcdma_cdma::{populate_round_robin, Network};
use wcdma_geo::{HexLayout, MobilityModel, Point, RandomWaypoint};
use wcdma_mac::LinkDir;
use wcdma_math::par::{chunk_count, DEFAULT_CHUNK};
use wcdma_math::{mix_seed, Xoshiro256pp};
use wcdma_sim::traffic::WebSource;
use wcdma_sim::{DecisionRecord, DecisionTrace, SimConfig, Simulation};

use crate::report::{mean, ms, percentile, ratio, us, Fnv, Outcome};
use crate::workloads::{frames_per_cell, FrameSpec};

/// Fingerprint of the simulation's observable state: the bit patterns of
/// the per-cell loads, the scheduling counters, and the burst counters.
pub fn fingerprint(sim: &Simulation) -> u64 {
    let mut h = Fnv::default();
    for &x in sim
        .network()
        .forward_load_w()
        .iter()
        .chain(sim.network().reverse_load_w())
    {
        h.u64(x.to_bits());
    }
    let s = sim.sched_stats();
    for v in [
        s.rounds,
        s.solves,
        s.warm_hits,
        s.skipped_identical,
        s.bb_nodes,
    ] {
        h.u64(v);
    }
    h.u64(sim.bursts_completed());
    h.u64(sim.active_bursts() as u64);
    h.u64(sim.pending_requests() as u64);
    h.u64(sim.time().to_bits());
    h.finish()
}

fn state_finite(sim: &Simulation) -> bool {
    let net = sim.network();
    net.forward_load_w()
        .iter()
        .chain(net.reverse_load_w())
        .all(|x| x.is_finite())
}

/// Sets the workload up `setup_runs` times (every simulation built; each
/// set dropped before the next is built, so memory holds one) and returns
/// the median set-up time with the last set.
fn build_all(spec: &FrameSpec) -> (f64, Vec<Simulation>) {
    let mut times = Vec::with_capacity(spec.setup_runs);
    let mut sims = Vec::new();
    for _ in 0..spec.setup_runs.max(1) {
        sims.clear();
        let t = Instant::now();
        sims = (0..spec.sims)
            .map(|i| Simulation::new(spec.sim_cfg(i)))
            .collect();
        times.push(t.elapsed().as_secs_f64());
    }
    (percentile(&times, 0.5), sims)
}

/// Steps every simulation one frame, recording each frame's latency.
fn step_all(sims: &mut [Simulation], mut lat_ms: Option<&mut Vec<f64>>) {
    for sim in sims {
        let t = Instant::now();
        sim.step_frame();
        if let Some(lat) = lat_ms.as_deref_mut() {
            lat.push(ms(t.elapsed()));
        }
    }
}

/// Untraced run: `seconds` of timed frames after the warm-up, the
/// simulations stepped round-robin one frame at a time.
pub fn untraced(spec: &FrameSpec, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, mut sims) = build_all(spec);
    let mut frames = 0usize; // frames stepped by each simulation
    let mut fingerprints = Vec::new();
    let take_fingerprints = |sims: &[Simulation], frames: usize, out: &mut Vec<u64>| {
        if frames == spec.fingerprint_frame {
            *out = sims.iter().map(fingerprint).collect();
        }
    };
    let mut failed = 0;
    let mut lat_ms = Vec::with_capacity(1 << 16);
    for _ in 0..spec.warmup_frames {
        step_all(&mut sims, None);
        frames += 1;
        take_fingerprints(&sims, frames, &mut fingerprints);
    }
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        step_all(&mut sims, Some(&mut lat_ms));
        frames += 1;
        failed += sims.iter().filter(|s| !state_finite(s)).count() as u64;
        take_fingerprints(&sims, frames, &mut fingerprints);
    }
    let wall = start.elapsed().as_secs_f64();
    while frames < spec.fingerprint_frame {
        step_all(&mut sims, None);
        frames += 1;
        take_fingerprints(&sims, frames, &mut fingerprints);
    }
    drop(sims);

    // Determinism check, outside timing: an independent build of the first
    // simulation's seed must reach the same state at the fingerprint frame.
    let mut again = Simulation::new(spec.sim_cfg(0));
    for _ in 0..spec.fingerprint_frame {
        again.step_frame();
    }
    if fingerprints.first() != Some(&fingerprint(&again)) {
        failed += 1;
    }
    let mut h = Fnv::default();
    for &fp in &fingerprints {
        h.u64(fp);
    }

    let n = lat_ms.len() as f64;
    let fps = ratio(n, wall);
    out.set("frames_per_s", fps);
    out.set("frame_ms_p50", percentile(&lat_ms, 0.5));
    out.set("frame_ms_p99", percentile(&lat_ms, 0.99));
    out.set("cells_per_s", fps / frames_per_cell());
    out.set("setup_s", setup_s);
    out.attempted = lat_ms.len() as u64 + 1;
    out.failed = failed;
    out.info("fingerprint", format!("{:016x}", h.finish()));
    out.info("fingerprint_frame", spec.fingerprint_frame);
    out.info("simulations", spec.sims);
    out.info("timed_frames", lat_ms.len());
    out.info("p99_samples_beyond", lat_ms.len() / 100);
    out.info("setup_runs", spec.setup_runs);
    out
}

/// Decision-trace sink owned by the benchmark: every round's record and
/// the cumulative scheduler counters after it.
#[derive(Debug, Clone, Default)]
struct Probe(Arc<Mutex<(Vec<DecisionRecord>, Vec<SchedStats>)>>);

impl Probe {
    fn drain(&self) -> (Vec<DecisionRecord>, Vec<SchedStats>) {
        let mut g = self.0.lock().expect("probe lock");
        (std::mem::take(&mut g.0), std::mem::take(&mut g.1))
    }
}

impl DecisionTrace for Probe {
    fn record(&mut self, rec: DecisionRecord) {
        self.0.lock().expect("probe lock").0.push(rec);
    }

    fn record_sched(&mut self, stats: SchedStats) {
        self.0.lock().expect("probe lock").1.push(stats);
    }
}

/// The benchmark's copy of the simulation's network, walkers, and traffic
/// sources, seeded exactly as `Simulation::new` seeds its own.
struct Mirror {
    net: Network,
    walkers: Vec<RandomWaypoint>,
    new_pos: Vec<Point>,
    /// Data mobiles, in mobile order, with their traffic sources.
    data: Vec<(usize, WebSource)>,
    steps: usize,
}

impl Mirror {
    fn new(cfg: &SimConfig) -> Self {
        let layout = HexLayout::new(cfg.rings, cfg.cell_radius_m);
        let bound = layout.cell_radius() * (2.0 * cfg.rings as f64 + 1.0);
        let mut net = Network::new(cfg.cdma.clone(), layout, cfg.seed);
        let mut placement = Xoshiro256pp::substream(cfg.seed, 0x9_1ACE);
        let placed = populate_round_robin(
            &mut net,
            cfg.n_voice,
            cfg.n_data,
            cfg.speed_ms,
            &mut placement,
        );
        let walkers = placed
            .iter()
            .map(|u| {
                RandomWaypoint::new(
                    u.pos,
                    cfg.speed_ms,
                    5.0,
                    bound,
                    Xoshiro256pp::substream(cfg.seed, mix_seed(0x0B11E, u.index as u64)),
                )
            })
            .collect();
        let data = placed
            .iter()
            .filter(|u| u.kind == wcdma_cdma::UserKind::Data)
            .map(|u| {
                (
                    u.index,
                    WebSource::new(&cfg.traffic, cfg.seed, u.index as u64),
                )
            })
            .collect();
        net.set_frame_threads(cfg.frame_threads);
        net.set_candidates(cfg.candidate_k, cfg.candidate_refresh);
        Self {
            new_pos: vec![Point::new(0.0, 0.0); placed.len()],
            net,
            walkers,
            data,
            steps: 0,
        }
    }

    /// Every walker steps once, chunk-parallel on the network's pool.
    fn mobility(&mut self, dt: f64) {
        let chunks: Vec<Mutex<(&mut [RandomWaypoint], &mut [Point])>> = self
            .walkers
            .chunks_mut(DEFAULT_CHUNK)
            .zip(self.new_pos.chunks_mut(DEFAULT_CHUNK))
            .map(Mutex::new)
            .collect();
        self.net.frame_pool().run(chunks.len(), |ci| {
            let mut chunk = chunks[ci].lock().expect("chunk lock");
            let (walkers, out) = &mut *chunk;
            for (w, o) in walkers.iter_mut().zip(out.iter_mut()) {
                *o = w.step(dt);
            }
        });
    }

    fn apply_moves(&mut self) {
        for (j, &pos) in self.new_pos.iter().enumerate() {
            self.net.move_mobile(j, pos);
        }
    }

    /// Whether the next step re-selects every candidate list (only when
    /// the lists actually cull cells).
    fn refresh_due(&self) -> bool {
        let k = self.net.candidate_k();
        k < self.net.num_cells() && self.steps.is_multiple_of(self.net.candidate_refresh())
    }

    fn step(&mut self, dt: f64) -> Duration {
        let t = Instant::now();
        self.net.step(dt);
        let d = t.elapsed();
        self.steps += 1;
        d
    }
}

fn loads_identical(a: &Network, b: &Network) -> bool {
    let eq = |x: &[f64], y: &[f64]| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits());
    eq(a.forward_load_w(), b.forward_load_w()) && eq(a.reverse_load_w(), b.reverse_load_w())
}

/// Per-frame spans of the traced window.
#[derive(Debug, Default)]
struct Spans {
    frame_us: Vec<f64>,
    geo_us: Vec<f64>,
    move_us: Vec<f64>,
    step_ms: Vec<f64>,
    refresh: Vec<bool>,
    sched_us: Vec<f64>,
    active_bursts: Vec<f64>,
    round_us: Vec<f64>,
    round_nodes: Vec<f64>,
    rounds: u64,
    requests: u64,
    granted: u64,
    matched: u64,
}

/// Traced run: per-layer spans and counts over a fixed number of frames.
pub fn traced(spec: &FrameSpec) -> Outcome {
    let mut out = Outcome::default();
    let cfg = &spec.sim_cfg(0);
    let size = spec.trace;
    let dt = cfg.cdma.frame_s;
    let warmup = spec.warmup_frames;

    // Reference: the same frames untraced, for the tracing overhead.
    let untraced_s = {
        let mut sim = Simulation::new(cfg.clone());
        for _ in 0..warmup {
            sim.step_frame();
        }
        let mut total = Duration::ZERO;
        for _ in 0..size.frames {
            let t = Instant::now();
            sim.step_frame();
            total += t.elapsed();
        }
        total.as_secs_f64()
    };

    let mut sim = Simulation::new(cfg.clone());
    let probe = Probe::default();
    sim.attach_trace(Box::new(probe.clone()));
    let mut mirror = Mirror::new(cfg);
    let mut replay = Scheduler::new(cfg.scheduler_config(), cfg.policy.clone());
    // Outstanding request per (mobile, direction): (size bits, arrival s).
    let mut pending: HashMap<(usize, LinkDir), (f64, f64)> = HashMap::new();
    let mut had_grant = vec![false; mirror.data.len()];
    let mut prev_stats = SchedStats::default();
    let mut window_start = (SchedStats::default(), 0u64);
    let mut sp = Spans::default();
    let mut exact = true;
    let mut failed = 0u64;

    for f in 0..warmup + size.frames {
        let in_window = f >= warmup;
        if f == warmup {
            window_start = (sim.sched_stats(), sim.bursts_completed());
        }
        let t_f = sim.time();
        // Grants as the previous frame left them take effect in this step.
        for (di, (j, _)) in mirror.data.iter().enumerate() {
            let g = sim.network().grant(*j);
            had_grant[di] = g.is_some();
            mirror.net.set_grant(*j, g);
        }

        let t = Instant::now();
        sim.step_frame();
        let frame_t = t.elapsed();
        if !state_finite(&sim) {
            failed += 1;
        }

        let t = Instant::now();
        mirror.mobility(dt);
        let geo_t = t.elapsed();
        let t = Instant::now();
        mirror.apply_moves();
        let move_t = t.elapsed();
        let refresh = mirror.refresh_due();
        let step_t = mirror.step(dt);
        exact &= loads_identical(&mirror.net, sim.network());

        // Traffic runs before delivery inside a frame: new arrivals first,
        // then the completions (a grant the frame cleared).
        for (j, src) in mirror.data.iter_mut() {
            if let Some(a) = src.step(dt) {
                pending.insert((*j, a.dir), (a.size_bits, t_f));
            }
        }
        for (di, (j, src)) in mirror.data.iter_mut().enumerate() {
            if had_grant[di] && sim.network().grant(*j).is_none() {
                src.on_complete();
            }
        }

        let (records, stats) = probe.drain();
        let mut sched_t = Duration::ZERO;
        for (rec, st) in records.iter().zip(&stats) {
            let net = sim.network();
            let requests: Vec<RequestState<'_>> = rec
                .users
                .iter()
                .map(|&u| {
                    let (size_bits, arrival) = pending
                        .get(&(u, rec.dir))
                        .copied()
                        .unwrap_or((1.0, rec.t_s));
                    RequestState {
                        meas: net.measurement_view(u),
                        size_bits,
                        waiting_s: (rec.t_s - arrival).max(0.0),
                        priority: 0.0,
                    }
                })
                .collect();
            let t = Instant::now();
            let outcome = replay.schedule(
                rec.dir,
                net.forward_load_w(),
                net.reverse_load_w(),
                &requests,
            );
            let round_t = t.elapsed();
            let matched = outcome.m == rec.m;
            for (&u, &m) in rec.users.iter().zip(&rec.m) {
                if m > 0 {
                    pending.remove(&(u, rec.dir));
                }
            }
            sched_t += round_t;
            if in_window {
                sp.rounds += 1;
                sp.requests += rec.users.len() as u64;
                sp.granted += rec.granted() as u64;
                sp.matched += matched as u64;
                sp.round_us.push(us(round_t));
                sp.round_nodes
                    .push((st.bb_nodes - prev_stats.bb_nodes) as f64);
            }
            prev_stats = *st;
        }

        if in_window {
            sp.frame_us.push(us(frame_t));
            sp.geo_us.push(us(geo_t));
            sp.move_us.push(us(move_t));
            sp.step_ms.push(ms(step_t));
            sp.refresh.push(refresh);
            sp.sched_us.push(us(sched_t));
            sp.active_bursts.push(sim.active_bursts() as f64);
        }
    }
    let end_stats = sim.sched_stats();
    let bursts = sim.bursts_completed() - window_start.1;
    drop(sim);

    // Pool wake + join latency at the workload's chunk count.
    let n_chunks = chunk_count(mirror.net.num_mobiles(), DEFAULT_CHUNK);
    let mut pool_us = Vec::with_capacity(size.pool_runs);
    for _ in 0..size.pool_runs {
        let t = Instant::now();
        mirror.net.frame_pool().run(n_chunks, |ci| {
            std::hint::black_box(ci);
        });
        pool_us.push(us(t.elapsed()));
    }

    // The network step at one thread (grants stay as the run left them).
    mirror.net.set_frame_threads(1);
    let mut step_1t_ms = Vec::with_capacity(size.frames_1t);
    for _ in 0..size.frames_1t {
        mirror.mobility(dt);
        mirror.apply_moves();
        step_1t_ms.push(ms(mirror.step(dt)));
    }

    let frame_total: f64 = sp.frame_us.iter().sum();
    let geo_total: f64 = sp.geo_us.iter().sum();
    let cdma_total: f64 = sp.move_us.iter().sum::<f64>() + sp.step_ms.iter().sum::<f64>() * 1e3;
    let sched_total: f64 = sp.sched_us.iter().sum();
    let residual_total = frame_total - geo_total - cdma_total - sched_total;
    let n_frames = sp.frame_us.len() as f64;

    let step_p50 = percentile(&sp.step_ms, 0.5);
    let step_1t_p50 = percentile(&step_1t_ms, 0.5);
    let link_cells = (mirror.net.num_mobiles() * mirror.net.candidate_k()) as f64;
    let (refresh_ms, normal_ms): (Vec<f64>, Vec<f64>) = {
        let mut r = Vec::new();
        let mut n = Vec::new();
        for (&t, &is_refresh) in sp.step_ms.iter().zip(&sp.refresh) {
            if is_refresh {
                r.push(t)
            } else {
                n.push(t)
            }
        }
        (r, n)
    };
    let window = SchedStats {
        rounds: end_stats.rounds - window_start.0.rounds,
        solves: end_stats.solves - window_start.0.solves,
        warm_hits: end_stats.warm_hits - window_start.0.warm_hits,
        skipped_identical: end_stats.skipped_identical - window_start.0.skipped_identical,
        bb_nodes: end_stats.bb_nodes - window_start.0.bb_nodes,
    };

    out.set("geo.mobility_us", mean(&sp.geo_us));
    out.set("geo.frame_share", ratio(geo_total, frame_total));
    out.set("cdma.move_apply_us", mean(&sp.move_us));
    out.set("cdma.step_ms_p50", step_p50);
    out.set("cdma.step_ms_p99", percentile(&sp.step_ms, 0.99));
    out.set("cdma.step_ms_p50_1t", step_1t_p50);
    out.set("cdma.step_speedup_vs_1t", ratio(step_1t_p50, step_p50));
    out.set("cdma.link_cells", link_cells);
    out.set(
        "cdma.ns_per_link_cell",
        ratio(mean(&sp.step_ms) * 1e6, link_cells),
    );
    out.set("cdma.refresh_frames", refresh_ms.len() as f64);
    if !refresh_ms.is_empty() {
        out.set(
            "cdma.refresh_ms",
            mean(&refresh_ms) - percentile(&normal_ms, 0.5),
        );
    }
    out.set("cdma.frame_share", ratio(cdma_total, frame_total));
    out.set("math.par.pool_run_us", percentile(&pool_us, 0.5));
    out.set("admission.rounds", window.rounds as f64);
    out.set(
        "admission.requests_per_round",
        ratio(sp.requests as f64, sp.rounds as f64),
    );
    out.set(
        "admission.grant_ratio",
        ratio(sp.granted as f64, sp.requests as f64),
    );
    out.set(
        "admission.warm_hit_ratio",
        ratio(window.warm_hits as f64, window.solves as f64),
    );
    out.set(
        "admission.skipped_identical",
        window.skipped_identical as f64,
    );
    out.set(
        "admission.cache_hit_ratio",
        ratio(window.skipped_identical as f64, window.rounds as f64),
    );
    out.set("admission.schedule_us_p50", percentile(&sp.round_us, 0.5));
    out.set("admission.schedule_us_p99", percentile(&sp.round_us, 0.99));
    out.set(
        "admission.schedule_us_per_frame",
        ratio(sched_total, n_frames),
    );
    out.set(
        "admission.replay_match_ratio",
        ratio(sp.matched as f64, sp.rounds as f64),
    );
    out.set("admission.frame_share", ratio(sched_total, frame_total));
    out.set(
        "ilp.bb_nodes_per_round_p50",
        percentile(&sp.round_nodes, 0.5),
    );
    out.set(
        "ilp.bb_nodes_per_round_p99",
        percentile(&sp.round_nodes, 0.99),
    );
    out.set("ilp.bb_nodes_total", window.bb_nodes as f64);
    out.set("sim.engine.frame_us", ratio(frame_total, n_frames));
    out.set("sim.engine.residual_us", ratio(residual_total, n_frames));
    out.set(
        "sim.engine.residual_share",
        ratio(residual_total, frame_total),
    );
    out.set("sim.engine.traced_frames", n_frames);
    out.set("sim.engine.active_bursts_mean", mean(&sp.active_bursts));
    out.set("sim.engine.bursts_completed", bursts as f64);
    out.set(
        "trace.overhead_frac",
        ratio(untraced_s, frame_total * 1e-6) - 1.0,
    );
    out.set("trace.mirror_exact", if exact { 1.0 } else { 0.0 });
    out.attempted = size.frames as u64;
    out.failed = failed;
    out.info("traced_frames", size.frames);
    out.info("rounds_replayed", sp.rounds);
    out.info("rounds_matched", sp.matched);
    out.info("step_samples", sp.step_ms.len());
    out.info("step_1t_samples", step_1t_ms.len());
    out
}
