//! The frame-driven dynamic simulation — the paper's evaluation vehicle.
//!
//! Each 20 ms frame:
//!
//! 1. **mobility** — every user moves (random waypoint);
//! 2. **network** — channels advance, pilots are measured, active sets
//!    update, power control runs, loads `P_k`/`L_k` refresh;
//! 3. **traffic** — reading users may fire a new burst → SCRM → request
//!    queue; idle MAC state machines decay toward Dormant;
//! 4. **delivery** — granted bursts move bits at the channel-adaptive rate
//!    `R_f·m·δβ̄(ε_now)`; completed bursts release their grant;
//! 5. **scheduling** — pending requests of each link direction are solved
//!    by the configured policy; grants acquire MAC setup delays per the
//!    state machine and start at the next frame boundary.
//!
//! Statistics are collected after the warm-up window only.
//!
//! # Hot-path invariants
//!
//! [`Simulation::step_frame`] performs **zero heap allocations in steady
//! state**: per-user burst/request bookkeeping is indexed (`active_count` /
//! `pending_count` instead of queue scans), measurement reports are
//! borrowed [`wcdma_cdma::MeasurementView`]s, burst completion is a single
//! order-preserving compaction pass over a persistent scratch list, and
//! scheduling rounds consume grant outcomes by request order. Allocation
//! happens only on event edges: a new request entering the queue, a grant
//! extending the active-burst list, or a scheduling round (its request
//! list and ILP solve).
//!
//! With `SimConfig::frame_threads > 1` the mobility and network loops run
//! chunked on the network's persistent [`wcdma_math::par::FramePool`];
//! chunk boundaries are fixed and every reduction folds in chunk order, so
//! **any thread count produces bit-identical results** (and the
//! zero-allocation invariant still holds — the pool allocates nothing per
//! frame). Those two phases are where a large population's frame time
//! goes. The rest runs serially: CSI, traffic, and delivery touch only the
//! data users or the active bursts, and together they are a few percent
//! of a metro-scale frame (`docs/PERF_LEDGER.md`); scheduling is one
//! policy decision per direction.

use wcdma_admission::{QosMonitor, RequestState, SchedStats, Scheduler, DEFAULT_QOS_WINDOW_FRAMES};
use wcdma_cdma::{
    hotspot_weights, populate_round_robin, populate_weighted, Network, SchGrant, UserKind,
};
use wcdma_channel::CsiEstimator;
use wcdma_geo::mobility::{MobilityModel, RandomWaypoint};
use wcdma_geo::HexLayout;
use wcdma_mac::{BurstRequest, LinkDir, MacStateMachine, RequestQueue};
use wcdma_math::par::DEFAULT_CHUNK;
use wcdma_math::{mix_seed, Xoshiro256pp};

use crate::config::SimConfig;
use crate::stats::{SimReport, SimStats};
use crate::trace::{DecisionRecord, DecisionTrace};
use crate::traffic::WebSource;

/// Delivery chunk size: the delivered-bits total adds one partial sum per
/// chunk of the active-burst list, in list order. Fixed — it sets the
/// summation association, so changing it changes every throughput figure.
const DELIVERY_CHUNK: usize = 32;

/// A burst currently being transmitted.
#[derive(Debug, Clone, Copy)]
struct ActiveBurst {
    user: usize,
    dir: LinkDir,
    m: u32,
    arrival_s: f64,
    start_s: f64,
    bits_left: f64,
}

/// A runnable simulation instance.
pub struct Simulation {
    cfg: SimConfig,
    net: Network,
    scheduler: Scheduler,
    mobility: Vec<RandomWaypoint>,
    /// Traffic source per data user (indexed by mobile id).
    sources: Vec<Option<WebSource>>,
    macs: Vec<Option<MacStateMachine>>,
    queue: RequestQueue,
    active: Vec<ActiveBurst>,
    stats: SimStats,
    t: f64,
    data_idx: Vec<usize>,
    /// Per-data-user (forward, reverse) CSI pipelines (None = ideal).
    csi_pipes: Vec<Option<(CsiEstimator, CsiEstimator)>>,
    /// Observed (delayed/noisy) FCH Eb/I0 per mobile, refreshed each frame.
    observed_ebi0: Vec<(f64, f64)>,
    /// Active bursts per user (replaces `active.iter().any(...)` scans).
    active_count: Vec<u32>,
    /// Pending queue entries per user (replaces queue scans).
    pending_count: Vec<u32>,
    /// Persistent scratch: indices of bursts finishing this frame
    /// (ascending — the compaction pass consumes them in order).
    finished: Vec<usize>,
    /// Windowed in-loop QoS monitor feeding the scheduler's
    /// [`wcdma_admission::QosFeedback`]. Only allocated when the policy
    /// consumes feedback — model-trusting policies skip the monitor
    /// entirely, keeping the hot path byte-identical to before.
    qos_monitor: Option<QosMonitor>,
    /// Persistent scratch: snapshots of the pending requests of one
    /// direction, taken before a scheduling round (the queue cannot stay
    /// borrowed while grants mutate it).
    sched_reqs: Vec<BurstRequest>,
    /// Optional decision-trace sink (None in the zero-allocation hot
    /// path; see [`crate::trace`]).
    trace: Option<Box<dyn DecisionTrace>>,
}

impl Simulation {
    /// Builds the scenario: network, users, traffic, scheduler.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate().expect("invalid simulation config");
        let layout = HexLayout::new(cfg.rings, cfg.cell_radius_m);
        let bound = layout.cell_radius() * (2.0 * cfg.rings as f64 + 1.0);
        let mut net = Network::new(cfg.cdma.clone(), layout, cfg.seed);
        // Model-mismatch fault injection: the *network* (true physics)
        // takes the shifted path-loss exponent / shadowing σ, while the
        // scheduler below keeps its region and κ margin calibrated to the
        // unmodified assumed model — exactly the split a miscalibrated
        // deployment would have. Disabled deltas never touch the network,
        // so the default model is bit-identical to before.
        if cfg.mismatch.channel_mismatch_active() {
            let true_pl = net
                .pathloss_model()
                .with_exponent_delta(cfg.mismatch.pathloss_exponent_delta);
            let true_sigma = net.shadow_sigma_db() + cfg.mismatch.shadow_sigma_delta_db;
            net.set_channel_model(true_pl, true_sigma);
        }
        let scheduler = Scheduler::new(cfg.scheduler_config(), cfg.policy.clone());
        // Candidate cell lists: 0 = every cell (exact, the default). Set
        // before placement so the per-mobile tables below are sized once,
        // at their final stride.
        net.set_candidates(cfg.candidate_k, cfg.candidate_refresh);
        net.reserve_mobiles(cfg.n_voice + cfg.n_data);
        let mut placement_rng = Xoshiro256pp::substream(cfg.seed, 0x9_1ACE);
        // Uniform scenarios keep the historical round-robin placement (and
        // its exact RNG consumption); hotspot scenarios overload cell 0.
        let placed = if cfg.hotspot_overload == 1.0 {
            populate_round_robin(
                &mut net,
                cfg.n_voice,
                cfg.n_data,
                cfg.speed_ms,
                &mut placement_rng,
            )
        } else {
            let weights = hotspot_weights(net.num_cells(), cfg.hotspot_overload);
            populate_weighted(
                &mut net,
                cfg.n_voice,
                cfg.n_data,
                cfg.speed_ms,
                &weights,
                &mut placement_rng,
            )
        };
        let total = placed.len();
        let mut mobility = Vec::with_capacity(total);
        let mut sources = Vec::with_capacity(total);
        let mut macs = Vec::with_capacity(total);
        let mut data_idx = Vec::new();
        for u in &placed {
            mobility.push(RandomWaypoint::new(
                u.pos,
                cfg.speed_ms,
                5.0,
                bound,
                Xoshiro256pp::substream(cfg.seed, mix_seed(0x0B11E, u.index as u64)),
            ));
            if u.kind == UserKind::Data {
                sources.push(Some(WebSource::new(&cfg.traffic, cfg.seed, u.index as u64)));
                macs.push(Some(MacStateMachine::new(cfg.timers)));
                data_idx.push(u.index);
            } else {
                sources.push(None);
                macs.push(None);
            }
        }
        // One persistent worker pool serves the network and mobility
        // loops; 1 thread degenerates to inline loops.
        net.set_frame_threads(cfg.frame_threads);
        let ideal_csi = cfg.csi_error_sigma_db == 0.0
            && cfg.csi_delay_frames == 0
            && cfg.mismatch.csi_dropout_p == 0.0;
        let csi_pipes = (0..total)
            .map(|j| {
                // O(1) data-user check: voice users carry no traffic source.
                if ideal_csi || sources[j].is_none() {
                    None
                } else {
                    let mk = |tag: u64| {
                        let est = CsiEstimator::new(
                            cfg.csi_delay_frames,
                            cfg.csi_error_sigma_db,
                            Xoshiro256pp::substream(cfg.seed, mix_seed(tag, j as u64)),
                        );
                        if cfg.mismatch.csi_dropout_p > 0.0 {
                            est.with_dropout(
                                cfg.mismatch.csi_dropout_p,
                                cfg.mismatch.csi_dropout_mean_frames,
                            )
                        } else {
                            est
                        }
                    };
                    Some((mk(0xC51F), mk(0xC51B)))
                }
            })
            .collect();
        // The QoS feedback loop only exists for measurement-based
        // policies; everything else runs the untouched fast path.
        let qos_monitor = cfg
            .policy
            .uses_feedback()
            .then(|| QosMonitor::new(DEFAULT_QOS_WINDOW_FRAMES));
        Self {
            observed_ebi0: vec![(0.0, 0.0); total],
            cfg,
            net,
            scheduler,
            mobility,
            sources,
            macs,
            queue: RequestQueue::new(),
            active: Vec::new(),
            stats: SimStats::new(),
            t: 0.0,
            data_idx,
            csi_pipes,
            active_count: vec![0; total],
            pending_count: vec![0; total],
            finished: Vec::new(),
            qos_monitor,
            sched_reqs: Vec::new(),
            trace: None,
        }
    }

    /// Attaches a decision-trace sink: every subsequent scheduling round
    /// with pending requests is reported to it as a
    /// [`DecisionRecord`]. Replaces any previously attached sink.
    pub fn attach_trace(&mut self, trace: Box<dyn DecisionTrace>) {
        self.trace = Some(trace);
    }

    /// Detaches and returns the current trace sink, if any.
    pub fn take_trace(&mut self) -> Option<Box<dyn DecisionTrace>> {
        self.trace.take()
    }

    /// Current simulation time (s).
    pub fn time(&self) -> f64 {
        self.t
    }

    /// The underlying network (for inspection).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Pending (unscheduled) requests.
    pub fn pending_requests(&self) -> usize {
        self.queue.len()
    }

    /// Currently active bursts.
    pub fn active_bursts(&self) -> usize {
        self.active.len()
    }

    /// Bursts completed inside the statistics window so far.
    pub fn bursts_completed(&self) -> u64 {
        self.stats.bursts_completed
    }

    /// Cumulative scheduling-phase statistics (solves, warm-start hits,
    /// B&B nodes) since the simulation started.
    pub fn sched_stats(&self) -> SchedStats {
        self.scheduler.stats()
    }

    /// Runs the whole configured duration and reports.
    pub fn run(self) -> SimReport {
        self.run_with_sched_stats().0
    }

    /// Runs the whole configured duration and reports, also returning the
    /// final scheduling statistics (which are observability only — the
    /// report itself is byte-for-byte the same as [`run`](Self::run)).
    pub fn run_with_sched_stats(mut self) -> (SimReport, SchedStats) {
        let frames = self.cfg.n_frames();
        for _ in 0..frames {
            self.step_frame();
        }
        self.stats.window_s = self.cfg.duration_s - self.cfg.warmup_s;
        let sched = self.scheduler.stats();
        (
            self.stats.report(self.cfg.n_data, self.net.num_cells()),
            sched,
        )
    }

    /// Whether statistics are being recorded at the current time.
    fn recording(&self) -> bool {
        self.t >= self.cfg.warmup_s
    }

    /// Advances one frame. Zero heap allocations in steady state (see the
    /// module docs for the event edges that may allocate).
    pub fn step_frame(&mut self) {
        let dt = self.cfg.cdma.frame_s;

        // 1. Mobility: every walker owns its RNG substream, so the walkers
        // step chunk-parallel, then their positions are applied to the
        // network in mobile order (the application is O(n) arithmetic; all
        // randomness is in the parallel part).
        self.net.frame_pool().for_each_chunk_mut(
            &mut self.mobility,
            DEFAULT_CHUNK,
            |_, walkers| {
                for w in walkers {
                    w.step(dt);
                }
            },
        );
        for (j, w) in self.mobility.iter().enumerate() {
            self.net.move_mobile(j, w.position());
        }

        // 2. Network update.
        self.net.step(dt);
        // The overload flag feeds both the stats counter and (for
        // measurement-based policies) the QoS monitor; skip the query
        // entirely when neither consumer is live.
        let overloaded =
            (self.recording() || self.qos_monitor.is_some()) && self.net.any_overloaded();
        if self.recording() && overloaded {
            self.stats.overload_events += 1;
        }
        // 2a. In-loop QoS observation: per cell, did this frame break the
        // admissible region's own contract? Forward — the power budget
        // clamp engaged (demand past P_max); reverse — received power rose
        // past the region's interference limit L_max. Both are ~zero
        // without bursts, grow with burst admission, and grow further when
        // the true channel is harsher than the assumed model — the QoS-hold
        // signal of the robustness campaigns. Serial over K cells: cheap,
        // and trivially identical for every thread count.
        {
            let lmax = self.scheduler.config().lmax_w;
            let flags = self.net.overloaded_flags();
            let rev = self.net.reverse_load_w();
            let mut fwd_viol = 0u64;
            let mut rev_viol = 0u64;
            for (i, &l) in rev.iter().enumerate() {
                fwd_viol += flags[i] as u64;
                rev_viol += (l > lmax) as u64;
            }
            let k = rev.len() as u64;
            if self.recording() {
                self.stats.outage_samples += 2 * k;
                self.stats.outage_events += fwd_viol + rev_viol;
            }
            // Feed the windowed monitor every frame (warm-up included —
            // the feedback loop is part of the policy, not of the
            // statistics window) and republish to the scheduler when a
            // window closes, before this frame's scheduling round.
            if let Some(mon) = self.qos_monitor.as_mut() {
                if mon.record_frame(k, fwd_viol, k, rev_viol, overloaded) {
                    self.scheduler.set_feedback(*mon.feedback());
                }
            }
        }

        // 2b. CSI feedback pipelines: what the scheduler will *see* this
        // frame (possibly delayed and noisy versions of the truth). Each
        // estimator pair owns its RNG substream and writes only its own
        // user's slot.
        for &j in &self.data_idx {
            let (true_fwd, true_rev) = self.net.fch_quality(j);
            self.observed_ebi0[j] = match self.csi_pipes[j].as_mut() {
                None => (true_fwd, true_rev),
                Some((fwd, rev)) => (fwd.observe(true_fwd), rev.observe(true_rev)),
            };
        }

        // 3. Traffic + MAC decay.
        for di in 0..self.data_idx.len() {
            let j = self.data_idx[di];
            let has_burst = self.active_count[j] > 0 || self.pending_count[j] > 0;
            if let Some(src) = self.sources[j].as_mut() {
                if let Some(arrival) = src.step(dt) {
                    let before = self.queue.len();
                    self.queue.submit(BurstRequest {
                        user: j,
                        dir: arrival.dir,
                        size_bits: arrival.size_bits,
                        arrival_s: self.t,
                        priority: 0.0,
                    });
                    if self.queue.len() > before {
                        self.pending_count[j] += 1; // new entry (not merged)
                    }
                }
            }
            if !has_burst {
                if let Some(mac) = self.macs[j].as_mut() {
                    mac.tick(dt);
                }
            }
        }

        // 4. Deliver bits on active bursts. Each DELIVERY_CHUNK-burst
        // chunk sums into a local that is added to the total in chunk
        // order; finished bursts are listed in ascending order.
        self.finished.clear();
        let recording = self.recording();
        for (ci, bursts) in self.active.chunks_mut(DELIVERY_CHUNK).enumerate() {
            let mut sum = 0.0;
            for (off, burst) in bursts.iter_mut().enumerate() {
                if self.t < burst.start_s {
                    continue; // MAC setup still in progress
                }
                let meas = self.net.measurement_view(burst.user);
                let db = self.scheduler.request_delta_beta(meas, burst.dir);
                let rate = self.cfg.spreading.fch_rate * burst.m as f64 * db;
                let delivered = (rate * dt).min(burst.bits_left);
                burst.bits_left -= delivered;
                sum += delivered;
                if burst.bits_left <= 1e-9 {
                    self.finished.push(ci * DELIVERY_CHUNK + off);
                }
            }
            if recording {
                self.stats.bits_delivered += sum;
            }
        }
        // Single order-preserving compaction pass: completions are
        // processed in ascending burst order (= the deterministic order
        // the delivery loop found them in) and survivors slide left, so
        // a frame finishing F of A bursts costs O(A), not O(F·A).
        if !self.finished.is_empty() {
            let mut fi = 0;
            let mut write = 0;
            for read in 0..self.active.len() {
                if fi < self.finished.len() && self.finished[fi] == read {
                    fi += 1;
                    let burst = self.active[read];
                    self.active_count[burst.user] -= 1;
                    let delay = (self.t + dt) - burst.arrival_s;
                    if self.recording() {
                        self.stats.burst_delay.push(delay);
                        self.stats.burst_delay_p95.push(delay);
                        self.stats.bursts_completed += 1;
                    }
                    self.net.set_grant(burst.user, None);
                    if let Some(mac) = self.macs[burst.user].as_mut() {
                        mac.on_burst_end();
                    }
                    if let Some(src) = self.sources[burst.user].as_mut() {
                        src.on_complete();
                    }
                } else {
                    if write != read {
                        self.active[write] = self.active[read];
                    }
                    write += 1;
                }
            }
            self.active.truncate(write);
        }

        // 5. Scheduling, independently per link direction (Section 3.1).
        for dir in [LinkDir::Forward, LinkDir::Reverse] {
            self.schedule_direction(dir, dt);
        }

        self.t += dt;
    }

    fn schedule_direction(&mut self, dir: LinkDir, dt: f64) {
        // Snapshot the per-request scalars into persistent scratch — the
        // queue is mutated below while grants are applied.
        self.sched_reqs.clear();
        for r in self.queue.pending() {
            if r.dir == dir {
                self.sched_reqs.push(r.clone());
            }
        }
        if self.sched_reqs.is_empty() {
            return;
        }
        let recording = self.recording();
        if recording {
            self.stats.request_rounds += 1;
        }
        // The request views borrow the network, so they live for this round
        // only (a scheduling round is an allocation edge anyway).
        let requests: Vec<RequestState<'_>> = self
            .sched_reqs
            .iter()
            .map(|r| {
                // The scheduler acts on the *observed* CSI (feedback
                // pipeline); bits are later delivered at the true rate.
                let mut meas = self.net.measurement_view(r.user);
                let (obs_fwd, obs_rev) = self.observed_ebi0[r.user];
                meas.fch_ebi0_fwd = obs_fwd;
                meas.fch_ebi0_rev = obs_rev;
                RequestState {
                    meas,
                    size_bits: r.size_bits,
                    waiting_s: r.waiting_time(self.t),
                    priority: r.priority,
                }
            })
            .collect();
        let outcome = self.scheduler.schedule(
            dir,
            self.net.forward_load_w(),
            self.net.reverse_load_w(),
            &requests,
        );
        if let Some(trace) = self.trace.as_mut() {
            trace.record(DecisionRecord {
                t_s: self.t,
                dir,
                users: self.sched_reqs.iter().map(|r| r.user).collect(),
                m: outcome.m.clone(),
                delta_beta: outcome.delta_beta.clone(),
                objective_value: outcome.objective_value,
                optimal: outcome.optimal,
                slack: outcome.region.slack(&outcome.m),
            });
        }
        let mut denied = false;
        for j in 0..self.sched_reqs.len() {
            // Outcomes are aligned with the request order: `m[j]` and
            // `delta_beta[j]` belong to `sched_reqs[j]` — no search.
            let m = outcome.m[j];
            if m == 0 {
                denied = true;
                continue;
            }
            let user = self.sched_reqs[j].user;
            let taken = self
                .queue
                .take(user, dir)
                .expect("granted request must be pending");
            self.pending_count[user] -= 1;
            let setup = self.macs[user]
                .as_mut()
                .expect("data user has MAC")
                .on_burst();
            let gamma_s = self.cfg.spreading.gamma_s;
            self.net.set_grant(
                user,
                Some(SchGrant {
                    m,
                    forward: dir == LinkDir::Forward,
                    gamma_s,
                }),
            );
            if recording {
                self.stats.grant_m.push(m as f64);
                self.stats.grant_hist.push(m as f64);
                self.stats.grant_delta_beta.push(outcome.delta_beta[j]);
                self.stats
                    .queue_delay
                    .push(self.t - taken.arrival_s + setup);
                self.stats.setup_delay.push(setup);
            }
            self.active.push(ActiveBurst {
                user,
                dir,
                m,
                arrival_s: taken.arrival_s,
                // Bursts begin at the next frame boundary plus MAC setup.
                start_s: self.t + dt + setup,
                bits_left: taken.size_bits,
            });
            self.active_count[user] += 1;
        }
        if denied && recording {
            self.stats.denial_rounds += 1;
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.record_sched(self.scheduler.stats());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PhyKind;
    use wcdma_admission::{AdmissionPolicy, Fcfs};

    fn quick_cfg() -> SimConfig {
        let mut c = SimConfig::baseline();
        c.n_voice = 10;
        c.n_data = 4;
        c.duration_s = 12.0;
        c.warmup_s = 2.0;
        c
    }

    #[test]
    fn simulation_runs_and_completes_bursts() {
        let report = Simulation::new(quick_cfg()).run();
        assert!(
            report.bursts_completed > 0,
            "10 s of 4 web users must complete bursts: {report:?}"
        );
        assert!(report.mean_delay_s > 0.0);
        assert!(report.throughput_kbps > 0.0);
        assert!(report.mean_grant_m >= 1.0);
    }

    #[test]
    fn deterministic_replication() {
        let a = Simulation::new(quick_cfg()).run();
        let b = Simulation::new(quick_cfg()).run();
        assert_eq!(a, b, "same seed must reproduce identical reports");
    }

    #[test]
    fn different_seed_differs() {
        let a = Simulation::new(quick_cfg()).run();
        let b = Simulation::new(quick_cfg().with_seed(777)).run();
        assert_ne!(a, b);
    }

    #[test]
    fn hotspot_scenario_runs_and_differs() {
        let uniform = quick_cfg();
        let hotspot = uniform.with_hotspot(3.0);
        let ru = Simulation::new(uniform).run();
        let rh = Simulation::new(hotspot).run();
        assert!(
            rh.bursts_completed > 0,
            "hotspot scenario must make progress"
        );
        assert_ne!(ru, rh, "overloading cell 0 must perturb the run");
    }

    #[test]
    fn reverse_traffic_runs() {
        let cfg = quick_cfg().with_direction(LinkDir::Reverse);
        let report = Simulation::new(cfg).run();
        assert!(report.bursts_completed > 0, "{report:?}");
    }

    #[test]
    fn fcfs_policy_runs() {
        let cfg = quick_cfg().with_policy(Fcfs::unlimited().into_boxed());
        let report = Simulation::new(cfg).run();
        assert!(report.bursts_completed > 0);
    }

    #[test]
    fn fixed_phy_runs_and_is_slower() {
        let mut adaptive = quick_cfg();
        adaptive.duration_s = 20.0;
        let mut fixed = adaptive.clone();
        fixed.phy = PhyKind::Fixed;
        let ra = Simulation::new(adaptive).run();
        let rf = Simulation::new(fixed).run();
        assert!(rf.bursts_completed > 0);
        // The adaptive PHY should deliver at least as much throughput.
        assert!(
            ra.throughput_kbps >= 0.8 * rf.throughput_kbps,
            "adaptive {} vs fixed {}",
            ra.throughput_kbps,
            rf.throughput_kbps
        );
    }

    #[test]
    fn csi_degradation_hurts_but_runs() {
        let mut ideal = quick_cfg();
        ideal.duration_s = 16.0;
        let mut degraded = ideal.clone();
        degraded.csi_error_sigma_db = 6.0;
        degraded.csi_delay_frames = 10;
        let ri = Simulation::new(ideal).run();
        let rd = Simulation::new(degraded).run();
        assert!(rd.bursts_completed > 0, "degraded CSI must still work");
        // Ideal CSI must never be *worse* by a wide margin.
        assert!(
            ri.mean_delay_s <= rd.mean_delay_s * 1.5 + 0.2,
            "ideal {} s vs degraded {} s",
            ri.mean_delay_s,
            rd.mean_delay_s
        );
    }

    #[test]
    fn csi_pipeline_changes_decisions() {
        let mut a = quick_cfg();
        a.duration_s = 10.0;
        let mut b = a.clone();
        b.csi_error_sigma_db = 8.0;
        let ra = Simulation::new(a).run();
        let rb = Simulation::new(b).run();
        assert_ne!(ra, rb, "heavy CSI noise must perturb the run");
    }

    #[test]
    fn step_by_step_accessors() {
        let mut sim = Simulation::new(quick_cfg());
        assert_eq!(sim.time(), 0.0);
        for _ in 0..50 {
            sim.step_frame();
        }
        assert!((sim.time() - 1.0).abs() < 1e-9);
        let _ = sim.pending_requests();
        let _ = sim.active_bursts();
        assert_eq!(sim.network().num_cells(), 7);
    }
}
