//! The scheduling sub-layer: the per-frame burst scheduler.
//!
//! Each frame, the pending burst requests of one link direction are turned
//! into the integer program of Section 3.2 — the admissible region from the
//! measurement sub-layer, per-request δβ̄, and the duration bound eq. (24) —
//! and handed to an [`AdmissionPolicy`](crate::policy::AdmissionPolicy)
//! object as a [`PolicyContext`]:
//!
//! * [`crate::policy::JabaSd`] — the paper's algorithm: the *optimal*
//!   multi-burst grant vector via exact branch-and-bound (or the density
//!   greedy — experiment E7 quantifies the gap). Bursts start at the next
//!   frame boundary; only the spatial dimension is scheduled, per the
//!   paper's stated scope.
//! * [`crate::policy::Fcfs`] — cdma2000 behaviour \[ref 1\]: requests
//!   served in arrival order, each granted the largest spreading-gain ratio
//!   that still fits.
//! * [`crate::policy::EqualShare`] — the empirical scheme of \[ref 8\].
//! * [`crate::policy::WeightedFairShare`] /
//!   [`crate::policy::ThresholdReservation`] — adaptive-CAC additions, plus
//!   anything user code registers (see the [`crate::policy`] module docs for
//!   how to write a policy).

use wcdma_cdma::MeasurementView;
use wcdma_mac::{LinkDir, MacTimers};
use wcdma_phy::SpreadingConfig;

use crate::csi::{delta_beta, PhyModel};
use crate::feedback::QosFeedback;
use crate::measurement::{forward_region, reverse_region, Region};
use crate::policy::{BoxedPolicy, PolicyContext, PolicyScratch};

/// A pending burst request paired with its measurement report.
///
/// The report is a borrowed [`MeasurementView`] into the network state, so
/// building a request costs nothing; owned `DataUserMeasurement` reports
/// (tests, examples) convert via `DataUserMeasurement::as_view`.
#[derive(Debug, Clone, Copy)]
pub struct RequestState<'a> {
    /// The Figure-2 measurement report for this user.
    pub meas: MeasurementView<'a>,
    /// Outstanding burst size Q_j (bits).
    pub size_bits: f64,
    /// Waiting time t_w (s).
    pub waiting_s: f64,
    /// Traffic-type priority Δ_j.
    pub priority: f64,
}

/// A granted burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// Mobile index.
    pub user: usize,
    /// Granted spreading-gain ratio m_j ≥ 1.
    pub m: u32,
    /// The δβ̄_j used in the decision.
    pub delta_beta: f64,
    /// Expected SCH rate (bits/s) = R_f · m · δβ̄.
    pub rate_bps: f64,
    /// Expected burst duration Q_j / rate (s).
    pub duration_s: f64,
}

/// Everything a schedule run produced (grants plus diagnostics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleOutcome {
    /// Grants, one per admitted request.
    pub grants: Vec<Grant>,
    /// Full grant vector aligned with the input request order (0 = reject).
    pub m: Vec<u32>,
    /// The δβ̄_j of every request, aligned with the input request order
    /// (callers consume outcomes by index — no per-grant search needed).
    pub delta_beta: Vec<f64>,
    /// Objective value achieved (in weight units).
    pub objective_value: f64,
    /// The admissible region that was enforced.
    pub region: Region,
    /// Whether the exact solver completed (always true for heuristics).
    pub optimal: bool,
}

/// Static scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Spreading/rate parameters (eq. 2/4/5).
    pub spreading: SpreadingConfig,
    /// PHY model used for δβ̄ (adaptive VTAOC or fixed baseline).
    pub phy: PhyModel,
    /// MAC timers for the J2 waiting-time term.
    pub timers: MacTimers,
    /// Minimum justified burst duration T1 (s) — eq. 24.
    pub t1_min_burst_s: f64,
    /// Minimum useful δβ̄: below this the channel is treated as outage and
    /// the request is not grantable (a burst must repay its signalling).
    pub min_delta_beta: f64,
    /// Forward power budget P_max (W).
    pub pmax_w: f64,
    /// Reverse interference limit L_max (W).
    pub lmax_w: f64,
    /// Neighbour-projection shadowing margin κ (linear).
    pub kappa: f64,
}

impl SchedulerConfig {
    /// Defaults consistent with `CdmaConfig::default_system()`.
    pub fn default_config() -> Self {
        let cdma = wcdma_cdma::CdmaConfig::default_system();
        Self {
            spreading: SpreadingConfig::cdma2000_default(),
            phy: PhyModel::Adaptive(wcdma_phy::Vtaoc::default_config()),
            timers: MacTimers::default_timers(),
            t1_min_burst_s: 0.04,
            min_delta_beta: 0.01,
            pmax_w: cdma.max_bs_power_w,
            lmax_w: cdma.reverse_limit_w(),
            kappa: cdma.kappa_margin,
        }
    }
}

/// Cumulative scheduling-phase statistics, observable through
/// [`Scheduler::stats`] and the `DecisionTrace::record_sched` hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Scheduling rounds requested (one per direction per frame with
    /// pending requests).
    pub rounds: u64,
    /// Rounds that ran the policy — every round, so always equal to
    /// `rounds`.
    pub solves: u64,
    /// Solves that re-entered a warm per-direction workspace (dimensions
    /// within previously-seen capacity, so the round ran allocation-free).
    pub warm_hits: u64,
    /// Always 0: every round runs the policy, and nothing increments this
    /// counter. The field stays because the benchmark (`perfbench/`) builds
    /// `SchedStats` by struct literal and reports it.
    pub skipped_identical: u64,
    /// Branch-and-bound nodes visited by solver-backed policies.
    pub bb_nodes: u64,
}

/// Per-direction persistent scheduling state: the outcome buffer (whose
/// region and δβ̄ column are built in place and lent to the policy), the
/// bounds column, and the policy scratch.
#[derive(Debug, Clone, Default)]
struct SchedWorkspace {
    outcome: ScheduleOutcome,
    bounds: Vec<(u32, u32)>,
    scratch: PolicyScratch,
    rounds: u64,
    /// High-water marks: a solve whose dimensions fit under these ran
    /// without growing any buffer.
    cap_requests: usize,
    cap_rows: usize,
}

/// δβ̄ for one request in the given direction (free-function form so the
/// scheduler can call it while its workspaces are mutably borrowed).
fn delta_beta_for(cfg: &SchedulerConfig, meas: MeasurementView<'_>, dir: LinkDir) -> f64 {
    let ebi0 = match dir {
        LinkDir::Forward => meas.fch_ebi0_fwd,
        LinkDir::Reverse => meas.fch_ebi0_rev,
    };
    let alpha = match dir {
        LinkDir::Forward => meas.alpha_fl,
        LinkDir::Reverse => meas.alpha_rl,
    };
    delta_beta(
        &cfg.phy,
        &cfg.spreading,
        ebi0,
        cfg.spreading.gamma_s,
        alpha.max(1.0),
    )
}

/// Grant upper bound from eq. (24): the burst must last at least T1, so
/// `m ≤ Q/(T1 · δβ̄ · R_f)`; clamped to `[1, M]` so a queued burst is
/// never starved outright (the final burst of a transfer may run short).
fn grant_bounds_for(cfg: &SchedulerConfig, size_bits: f64, delta_beta: f64) -> (u32, u32) {
    let m_max = cfg.spreading.max_gain_ratio;
    if delta_beta < cfg.min_delta_beta {
        return (1, 0); // inadmissible: channel effectively in outage
    }
    let dur_cap = size_bits / (cfg.t1_min_burst_s * delta_beta * cfg.spreading.fch_rate);
    let hi = (dur_cap.floor() as i64).clamp(1, m_max as i64) as u32;
    (1, hi)
}

/// The per-frame burst scheduler: computes the measurement-sub-layer
/// inputs (region, δβ̄, bounds) and delegates the grant decision to its
/// [`AdmissionPolicy`](crate::policy::AdmissionPolicy) object.
///
/// The scheduler owns one persistent workspace per link direction, so a
/// steady-state round allocates nothing: the region is rebuilt in its own
/// buffers, δβ̄/bounds fill reusable columns, and the policy writes into a
/// persistent [`PolicyScratch`]. Every round runs the policy, and reuse
/// only changes where the buffers come from: a round's outcome is the one
/// a freshly created scheduler would produce.
#[derive(Debug, Clone)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    policy: BoxedPolicy,
    fwd_ws: SchedWorkspace,
    rev_ws: SchedWorkspace,
    stats: SchedStats,
    /// Latest published in-loop QoS feedback (see [`Scheduler::set_feedback`]).
    feedback: QosFeedback,
}

impl Scheduler {
    /// Creates a scheduler with the given configuration and policy object
    /// (any concrete policy boxes via
    /// [`into_boxed`](crate::policy::AdmissionPolicy::into_boxed)).
    pub fn new(cfg: SchedulerConfig, policy: BoxedPolicy) -> Self {
        Self {
            cfg,
            policy,
            fwd_ws: SchedWorkspace::default(),
            rev_ws: SchedWorkspace::default(),
            stats: SchedStats::default(),
            feedback: QosFeedback::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// The policy object.
    pub fn policy(&self) -> &dyn crate::policy::AdmissionPolicy {
        self.policy.as_ref()
    }

    /// Cumulative scheduling statistics since creation.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Publishes a new in-loop QoS feedback signal; every subsequent round
    /// hands it to the policy via [`PolicyContext`]. Feedback must be
    /// piecewise constant — callers update it only when a monitor window
    /// closes (a changed [`QosFeedback::seq`]).
    pub fn set_feedback(&mut self, feedback: QosFeedback) {
        self.feedback = feedback;
    }

    /// The feedback signal currently handed to the policy.
    pub fn feedback(&self) -> &QosFeedback {
        &self.feedback
    }

    /// δβ̄ for one request in the given direction.
    pub fn request_delta_beta(&self, meas: MeasurementView<'_>, dir: LinkDir) -> f64 {
        delta_beta_for(&self.cfg, meas, dir)
    }

    /// Runs the policy over the pending requests of one direction.
    ///
    /// * `fwd_load_w` / `rev_load_w` — current per-cell loads `P_k` / `L_k`;
    /// * `requests` — pending requests (column order preserved).
    ///
    /// The returned reference points into the per-direction workspace and
    /// stays valid until the next `schedule` call; clone it to keep it.
    ///
    /// # Panics
    ///
    /// If the policy violates its contract: a grant vector of the wrong
    /// length, outside the per-request bounds, or outside the admissible
    /// region. An inadmissible grant would silently overload cells
    /// mid-simulation, so it fails loudly here instead.
    pub fn schedule(
        &mut self,
        dir: LinkDir,
        fwd_load_w: &[f64],
        rev_load_w: &[f64],
        requests: &[RequestState<'_>],
    ) -> &ScheduleOutcome {
        let Scheduler {
            cfg,
            policy,
            fwd_ws,
            rev_ws,
            stats,
            feedback,
        } = self;
        let ws = match dir {
            LinkDir::Forward => fwd_ws,
            LinkDir::Reverse => rev_ws,
        };
        stats.rounds += 1;
        ws.rounds += 1;
        let n = requests.len();
        let gamma_s = cfg.spreading.gamma_s;
        let out = &mut ws.outcome;

        match dir {
            LinkDir::Forward => forward_region(
                fwd_load_w,
                cfg.pmax_w,
                gamma_s,
                requests.iter().map(|r| r.meas),
                &mut out.region,
            ),
            LinkDir::Reverse => reverse_region(
                rev_load_w,
                cfg.lmax_w,
                gamma_s,
                cfg.kappa,
                requests.iter().map(|r| r.meas),
                &mut out.region,
            ),
        }
        out.delta_beta.clear();
        out.delta_beta
            .extend(requests.iter().map(|r| delta_beta_for(cfg, r.meas, dir)));
        ws.bounds.clear();
        ws.bounds.extend(
            requests
                .iter()
                .zip(&out.delta_beta)
                .map(|(r, &db)| grant_bounds_for(cfg, r.size_bits, db)),
        );

        stats.solves += 1;
        if ws.rounds > 1 && n <= ws.cap_requests && out.region.b.len() <= ws.cap_rows {
            stats.warm_hits += 1;
        }
        ws.cap_requests = ws.cap_requests.max(n);
        ws.cap_rows = ws.cap_rows.max(out.region.b.len());

        let nodes_before = ws.scratch.bb_total_nodes();
        policy.decide(
            &PolicyContext {
                dir,
                region: &out.region,
                requests,
                delta_beta: &out.delta_beta,
                bounds: &ws.bounds,
                cfg,
                feedback,
            },
            &mut ws.scratch,
        );
        stats.bb_nodes += ws.scratch.bb_total_nodes() - nodes_before;

        assert_eq!(
            ws.scratch.m.len(),
            n,
            "policy {:?} returned {} grants for {} requests",
            policy.name(),
            ws.scratch.m.len(),
            n
        );
        for (j, &mj) in ws.scratch.m.iter().enumerate() {
            assert!(
                mj == 0 || (ws.bounds[j].0..=ws.bounds[j].1).contains(&mj),
                "policy {:?} granted m = {mj} outside bounds {:?} for request {j}",
                policy.name(),
                ws.bounds[j]
            );
        }
        assert!(
            out.region.admits(&ws.scratch.m),
            "policy {:?} produced inadmissible grants",
            policy.name()
        );

        out.m.clear();
        out.m.extend_from_slice(&ws.scratch.m);
        out.objective_value = ws.scratch.objective_value;
        out.optimal = ws.scratch.optimal;
        out.grants.clear();
        for (j, req) in requests.iter().enumerate() {
            if out.m[j] >= 1 {
                let rate = cfg.spreading.fch_rate * out.m[j] as f64 * out.delta_beta[j];
                out.grants.push(Grant {
                    user: req.meas.mobile,
                    m: out.m[j],
                    delta_beta: out.delta_beta[j],
                    rate_bps: rate,
                    duration_s: if rate > 0.0 {
                        req.size_bits / rate
                    } else {
                        f64::INFINITY
                    },
                });
            }
        }
        &ws.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use crate::policy::{AdmissionPolicy, EqualShare, Fcfs, JabaSd};
    use wcdma_cdma::DataUserMeasurement;
    use wcdma_geo::CellId;

    fn meas_at(mobile: usize, cell: u32, fch_power: f64, ebi0_db: f64) -> DataUserMeasurement {
        DataUserMeasurement {
            mobile,
            active_set: vec![CellId(cell)],
            reduced_set: vec![CellId(cell)],
            fch_fwd_power: vec![(CellId(cell), fch_power)],
            alpha_fl: 1.0,
            alpha_rl: 1.0,
            zeta: 2.0,
            rev_pilot_ecio: vec![(CellId(cell), 0.01)],
            fwd_pilot_ecio: vec![(CellId(cell), 0.05)],
            fch_ebi0_fwd: wcdma_math::db_to_lin(ebi0_db),
            fch_ebi0_rev: wcdma_math::db_to_lin(ebi0_db),
        }
    }

    /// An owned request spec: the measurement plus queue scalars. Tests
    /// keep these alive and borrow [`RequestState`] views via [`reqs`].
    #[derive(Clone)]
    struct ReqSpec {
        meas: DataUserMeasurement,
        bits: f64,
        wait: f64,
    }

    fn req(
        mobile: usize,
        cell: u32,
        fch_power: f64,
        ebi0_db: f64,
        bits: f64,
        wait: f64,
    ) -> ReqSpec {
        ReqSpec {
            meas: meas_at(mobile, cell, fch_power, ebi0_db),
            bits,
            wait,
        }
    }

    fn reqs(specs: &[ReqSpec]) -> Vec<RequestState<'_>> {
        specs
            .iter()
            .map(|s| RequestState {
                meas: s.meas.as_view(),
                size_bits: s.bits,
                waiting_s: s.wait,
                priority: 0.0,
            })
            .collect()
    }

    fn sched(policy: impl AdmissionPolicy + 'static) -> Scheduler {
        Scheduler::new(SchedulerConfig::default_config(), policy.into_boxed())
    }

    fn loads(n: usize, fwd: f64) -> (Vec<f64>, Vec<f64>) {
        let lmax = SchedulerConfig::default_config().lmax_w;
        (vec![fwd; n], vec![lmax / 4.0; n])
    }

    #[test]
    fn jaba_grants_within_region() {
        let mut s = sched(JabaSd::default_j2());
        let (fwd, rev) = loads(2, 10.0);
        let specs = vec![
            req(0, 0, 0.2, 10.0, 1e6, 0.1),
            req(1, 0, 0.5, 6.0, 1e6, 0.5),
            req(2, 1, 0.3, 8.0, 1e6, 0.0),
        ];
        let out = s.schedule(LinkDir::Forward, &fwd, &rev, &reqs(&specs));
        assert!(out.optimal);
        assert!(out.region.admits(&out.m));
        assert!(!out.grants.is_empty(), "headroom exists, must grant");
        for g in &out.grants {
            assert!(g.m >= 1 && g.m <= 16);
            assert!(g.rate_bps > 0.0);
        }
    }

    #[test]
    fn jaba_prefers_cheap_good_channel_users() {
        // Same cell, same queue: user 0 has better channel (higher δβ) and
        // cheaper FCH power. Tight budget: JABA-SD must favour user 0.
        let mut s = sched(JabaSd {
            objective: Objective::J1,
            exact: true,
            node_limit: 0,
        });
        let (mut fwd, rev) = loads(1, 19.0); // 1 W headroom
        fwd[0] = 19.0;
        let specs = vec![
            req(0, 0, 0.05, 15.0, 1e7, 0.0), // cheap, strong
            req(1, 0, 0.5, 0.0, 1e7, 0.0),   // expensive, weak
        ];
        let out = s.schedule(LinkDir::Forward, &fwd, &rev, &reqs(&specs));
        assert!(out.m[0] > 0, "good user must be granted");
        assert!(
            out.m[0] >= out.m[1],
            "weak user must not out-rank strong user: {:?}",
            out.m
        );
    }

    #[test]
    fn j2_rescues_starving_user() {
        // Under J1 the stronger user wins the whole budget; under J2 with a
        // long-waiting weaker user, the weaker one must get something.
        let (fwd, rev) = loads(1, 19.2); // 0.8 W headroom
        let specs = vec![
            req(0, 0, 0.05, 12.0, 1e7, 0.0),  // strong, fresh
            req(1, 0, 0.055, 2.0, 1e7, 10.0), // weak, starving
        ];
        let mut s1 = sched(JabaSd {
            objective: Objective::J1,
            exact: true,
            node_limit: 0,
        });
        let j1 = s1
            .schedule(LinkDir::Forward, &fwd, &rev, &reqs(&specs))
            .clone();
        let mut s2 = sched(JabaSd {
            objective: Objective::J2 {
                lambda: 40.0,
                mu: 1.0,
            },
            exact: true,
            node_limit: 0,
        });
        let j2 = s2
            .schedule(LinkDir::Forward, &fwd, &rev, &reqs(&specs))
            .clone();
        // J1: all to the strong user.
        assert_eq!(j1.m[1], 0, "J1 should starve the weak user: {:?}", j1.m);
        // J2 with heavy urgency: the starving user is served.
        assert!(j2.m[1] > 0, "J2 must rescue the waiting user: {:?}", j2.m);
    }

    #[test]
    fn fcfs_grants_in_arrival_order() {
        let mut s = sched(Fcfs::unlimited());
        let (fwd, rev) = loads(1, 19.0);
        // Oldest request is the *expensive weak* user: FCFS serves it first
        // anyway (that is its pathology).
        let specs = vec![
            req(0, 0, 0.4, 2.0, 1e7, 5.0),   // old, expensive
            req(1, 0, 0.05, 15.0, 1e7, 0.1), // fresh, cheap
        ];
        let out = s.schedule(LinkDir::Forward, &fwd, &rev, &reqs(&specs));
        assert!(out.m[0] > 0, "FCFS must serve the oldest: {:?}", out.m);
        assert!(out.region.admits(&out.m));
    }

    #[test]
    fn fcfs_single_burst_limit() {
        let mut s = sched(Fcfs::single());
        let (fwd, rev) = loads(1, 5.0); // plenty of headroom
        let specs = vec![
            req(0, 0, 0.05, 10.0, 1e7, 1.0),
            req(1, 0, 0.05, 10.0, 1e7, 0.5),
            req(2, 0, 0.05, 10.0, 1e7, 0.1),
        ];
        let out = s.schedule(LinkDir::Forward, &fwd, &rev, &reqs(&specs));
        let granted = out.m.iter().filter(|&&m| m > 0).count();
        assert_eq!(
            granted, 1,
            "single-burst mode grants exactly one: {:?}",
            out.m
        );
        assert!(out.m[0] > 0, "and it is the oldest");
    }

    #[test]
    fn equal_share_splits_evenly() {
        let mut s = sched(EqualShare);
        let (fwd, rev) = loads(1, 10.0);
        let specs = vec![
            req(0, 0, 0.1, 10.0, 1e7, 0.0),
            req(1, 0, 0.1, 10.0, 1e7, 0.0),
            req(2, 0, 0.1, 10.0, 1e7, 0.0),
        ];
        let out = s.schedule(LinkDir::Forward, &fwd, &rev, &reqs(&specs));
        assert!(out.region.admits(&out.m));
        let nonzero: Vec<u32> = out.m.iter().copied().filter(|&m| m > 0).collect();
        assert_eq!(nonzero.len(), 3, "all three share: {:?}", out.m);
        assert!(
            nonzero.windows(2).all(|w| w[0] == w[1]),
            "shares must be equal: {:?}",
            out.m
        );
    }

    #[test]
    fn jaba_beats_or_ties_baselines_on_objective() {
        // On the same instance, the exact optimiser's J1 value must be ≥
        // both baselines' (it optimises exactly that).
        let (fwd, rev) = loads(2, 17.0);
        let specs = vec![
            req(0, 0, 0.15, 12.0, 1e7, 0.4),
            req(1, 0, 0.35, 4.0, 1e7, 1.2),
            req(2, 1, 0.10, 9.0, 1e7, 0.1),
            req(3, 1, 0.25, 7.0, 1e7, 0.9),
        ];
        let mut j1 = sched(JabaSd {
            objective: Objective::J1,
            exact: true,
            node_limit: 0,
        });
        let out_opt = j1
            .schedule(LinkDir::Forward, &fwd, &rev, &reqs(&specs))
            .clone();
        for policy in [
            Fcfs::unlimited().into_boxed(),
            Fcfs::single().into_boxed(),
            EqualShare.into_boxed(),
        ] {
            let mut base = Scheduler::new(SchedulerConfig::default_config(), policy.clone());
            let out_base = base.schedule(LinkDir::Forward, &fwd, &rev, &reqs(&specs));
            assert!(
                out_opt.objective_value >= out_base.objective_value - 1e-9,
                "JABA-SD lost to {policy:?}: {} vs {}",
                out_opt.objective_value,
                out_base.objective_value
            );
        }
    }

    #[test]
    fn reverse_direction_uses_interference_region() {
        let mut s = sched(JabaSd::default_j2());
        let cfg = SchedulerConfig::default_config();
        let fwd = vec![10.0; 2];
        // Reverse loads near the limit: little headroom.
        let rev = vec![cfg.lmax_w * 0.95; 2];
        let specs = vec![req(0, 0, 0.1, 10.0, 1e7, 0.0)];
        let out = s.schedule(LinkDir::Reverse, &fwd, &rev, &reqs(&specs));
        assert!(out.region.admits(&out.m));
        // Near-full reverse: grants are small or zero.
        let total: u32 = out.m.iter().sum();
        assert!(
            total <= 4,
            "reverse near limit must grant little: {:?}",
            out.m
        );
    }

    #[test]
    fn outage_user_rejected() {
        let mut s = sched(JabaSd::default_j2());
        let (fwd, rev) = loads(1, 5.0);
        // FCH Eb/I0 of -30 dB: δβ̄ ≈ 0 → inadmissible.
        let specs = vec![req(0, 0, 0.1, -30.0, 1e7, 0.0)];
        let out = s.schedule(LinkDir::Forward, &fwd, &rev, &reqs(&specs));
        assert!(out.grants.is_empty(), "outage user cannot burst");
    }

    #[test]
    fn duration_bound_caps_small_bursts() {
        let mut s = sched(JabaSd::default_j2());
        let (fwd, rev) = loads(1, 5.0);
        // Tiny 2 kbit burst: eq. 24 caps m well below M.
        let specs = vec![req(0, 0, 0.05, 12.0, 2_000.0, 0.0)];
        let out = s.schedule(LinkDir::Forward, &fwd, &rev, &reqs(&specs));
        assert_eq!(out.grants.len(), 1);
        let g = out.grants[0];
        assert!(g.m < 16, "tiny burst must not get max rate: m = {}", g.m);
    }

    #[test]
    fn empty_request_list() {
        let mut s = sched(JabaSd::default_j2());
        let (fwd, rev) = loads(1, 5.0);
        let out = s.schedule(LinkDir::Forward, &fwd, &rev, &[]);
        assert!(out.grants.is_empty());
        assert!(out.m.is_empty());
    }

    #[test]
    fn contract_violating_policy_fails_loudly() {
        /// Returns the wrong number of grants.
        #[derive(Debug, Clone)]
        struct Broken;
        impl crate::policy::AdmissionPolicy for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn decide(&mut self, _ctx: &PolicyContext<'_>, out: &mut PolicyScratch) {
                out.m.clear();
                out.m.resize(99, 1);
            }
            fn clone_box(&self) -> BoxedPolicy {
                Box::new(self.clone())
            }
        }
        let mut s = Scheduler::new(
            SchedulerConfig::default_config(),
            Box::new(Broken) as BoxedPolicy,
        );
        let (fwd, rev) = loads(1, 5.0);
        let specs = vec![req(0, 0, 0.1, 10.0, 1e6, 0.0)];
        let requests = reqs(&specs);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.schedule(LinkDir::Forward, &fwd, &rev, &requests);
        }));
        assert!(result.is_err(), "wrong-length grant vector must panic");
    }

    #[test]
    fn warm_rounds_match_a_fresh_scheduler() {
        let (fwd, rev) = loads(2, 12.0);
        // Shrinking then growing rounds, so the warm workspaces are both
        // re-entered under capacity and grown.
        let rounds: Vec<Vec<ReqSpec>> = vec![
            vec![
                req(0, 0, 0.2, 10.0, 1e6, 0.1),
                req(1, 0, 0.5, 6.0, 1e6, 0.5),
                req(2, 1, 0.3, 8.0, 1e6, 0.0),
            ],
            vec![
                req(0, 0, 0.2, 10.0, 1e6, 0.14),
                req(2, 1, 0.3, 8.0, 1e6, 0.04),
            ],
            vec![req(3, 1, 0.1, 11.0, 5e5, 0.0)],
            vec![
                req(3, 1, 0.1, 11.0, 5e5, 0.04),
                req(4, 0, 0.4, 5.0, 2e6, 0.0),
                req(5, 0, 0.15, 9.0, 1e6, 0.3),
            ],
        ];
        let mut warm = sched(JabaSd::default_j2());
        for specs in &rounds {
            let requests = reqs(specs);
            for dir in [LinkDir::Forward, LinkDir::Reverse] {
                let w = warm.schedule(dir, &fwd, &rev, &requests).clone();
                let mut fresh = Scheduler::new(warm.config().clone(), warm.policy().clone_box());
                let f = fresh.schedule(dir, &fwd, &rev, &requests);
                assert_eq!(&w, f, "a warm {dir:?} round must equal a fresh scheduler's");
            }
        }
        let ws = warm.stats();
        assert_eq!(ws.rounds, 2 * rounds.len() as u64);
        assert!(
            ws.warm_hits > 0,
            "shrinking rounds must re-enter a warm workspace: {ws:?}"
        );
    }
}
