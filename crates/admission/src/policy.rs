//! The open admission-policy API: the [`AdmissionPolicy`] trait and the
//! built-in policy implementations.
//!
//! The paper's contribution is a *comparison between admission policies*
//! (JABA-SD against the cdma2000 FCFS baseline and empirical equal
//! sharing), and the surrounding CAC literature keeps producing more
//! candidates — adaptive bandwidth reservation, distributed admission, and
//! so on. This module makes the policy set open: the per-frame scheduler
//! ([`crate::Scheduler`]) computes everything a policy could want — the
//! admissible [`Region`], per-request δβ̄, the eq.-24 grant bounds, waiting
//! times and priorities — packages it into a [`PolicyContext`], and asks an
//! [`AdmissionPolicy`] object to write its decision into a
//! [`PolicyScratch`]. Policies never
//! touch the measurement sub-layer directly, so a new policy is a single
//! struct plus (optionally) a [`crate::registry::PolicyRegistry`] entry
//! that makes it addressable from campaign spec files and the `wcdma`
//! CLI by name.
//!
//! # Writing your own policy
//!
//! Implement [`AdmissionPolicy`] for a struct. The contract: write one
//! grant per request into `out.m` (`m.len() == ctx.requests.len()`, `0` =
//! reject), stay inside `ctx.region` and within the per-request
//! `ctx.bounds`, and set `out.objective_value` and `out.optimal`.
//!
//! ```
//! use wcdma_admission::policy::{
//!     rate_value, AdmissionPolicy, BoxedPolicy, PolicyContext, PolicyScratch,
//! };
//! use wcdma_admission::{Scheduler, SchedulerConfig};
//!
//! /// Grants every admissible request exactly one spreading unit.
//! #[derive(Debug, Clone)]
//! struct OneEach;
//!
//! impl AdmissionPolicy for OneEach {
//!     fn name(&self) -> &'static str {
//!         "one-each"
//!     }
//!
//!     fn decide(&mut self, ctx: &PolicyContext<'_>, out: &mut PolicyScratch) {
//!         let m = &mut out.m;
//!         m.clear();
//!         m.resize(ctx.requests.len(), 0);
//!         for j in 0..m.len() {
//!             let (lo, hi) = ctx.bounds[j];
//!             if hi < lo {
//!                 continue; // channel in outage — not grantable
//!             }
//!             m[j] = 1;
//!             if !ctx.region.admits(m) {
//!                 m[j] = 0; // would overload a cell — roll back
//!             }
//!         }
//!         out.objective_value = rate_value(&out.m, ctx.delta_beta);
//!         out.optimal = true;
//!     }
//!
//!     fn clone_box(&self) -> BoxedPolicy {
//!         Box::new(self.clone())
//!     }
//! }
//!
//! // The scheduler accepts any policy object.
//! let scheduler = Scheduler::new(SchedulerConfig::default_config(), OneEach.into_boxed());
//! assert_eq!(scheduler.policy().name(), "one-each");
//! ```
//!
//! To make the policy campaign- and CLI-addressable, add a
//! [`crate::registry::PolicyEntry`] for it (see
//! [`crate::registry::PolicyRegistry::register`]).

use wcdma_ilp::{BbWorkspace, Problem};
use wcdma_mac::LinkDir;

use crate::feedback::QosFeedback;
use crate::measurement::Region;
use crate::objective::Objective;
use crate::scheduler::{RequestState, SchedulerConfig};

/// A boxed, heap-allocated policy object — the form the scheduler, the
/// simulation configuration and the registry trade in.
pub type BoxedPolicy = Box<dyn AdmissionPolicy>;

/// Everything the scheduler computed for one scheduling round, lent to the
/// policy for the duration of [`AdmissionPolicy::decide`].
///
/// All slices are aligned with the request (column) order: entry `j`
/// belongs to `requests[j]`.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    /// Link direction being scheduled.
    pub dir: LinkDir,
    /// The admissible region `A m ≤ b` (eq. 7 / eq. 17).
    pub region: &'a Region,
    /// The pending requests (measurement report + queue scalars).
    pub requests: &'a [RequestState<'a>],
    /// Per-request relative SCH throughput δβ̄_j (eq. 3–5).
    pub delta_beta: &'a [f64],
    /// Per-request grant bounds `(lo, hi)` from eq. (24); `hi < lo` marks
    /// a request whose channel is in outage (not grantable).
    pub bounds: &'a [(u32, u32)],
    /// The static scheduler configuration (spreading parameters, MAC
    /// timers, budgets) for policies that need it.
    pub cfg: &'a SchedulerConfig,
    /// Windowed in-loop QoS feedback (observed outage / SIR-violation
    /// rates). Piecewise constant between window boundaries; `seq == 0`
    /// until the first window closes. Model-trusting policies ignore it;
    /// measurement-based policies (see [`MeasuredRegion`],
    /// [`GracefulDegradation`]) must also return `true` from
    /// [`AdmissionPolicy::uses_feedback`] so the simulation publishes it.
    pub feedback: &'a QosFeedback,
}

/// What a policy decided for one scheduling round, in decision buffers the
/// scheduler owns (one per link direction): the grant vector, its
/// objective value and optimality flag, plus solver state ([`Problem`]
/// shell and branch-and-bound workspace) that solver-backed
/// [`AdmissionPolicy::decide`] implementations reuse so a warm scheduling
/// round allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PolicyScratch {
    /// Grant vector aligned with the request order (`0` = reject). Must
    /// satisfy the region and the per-request bounds.
    pub m: Vec<u32>,
    /// The objective value the policy assigns to its own decision (weight
    /// units; baselines report the raw rate value Σ m_j δβ̄_j).
    pub objective_value: f64,
    /// Whether the decision is provably optimal for the policy's own
    /// objective (heuristics report `true`; the exact solver reports
    /// `false` when its node budget ran out).
    pub optimal: bool,
    /// Reusable ILP shell for solver-backed policies.
    problem: Problem,
    /// Persistent branch-and-bound workspace (also the node counter).
    bb: BbWorkspace,
}

impl PolicyScratch {
    /// Branch-and-bound nodes visited across this scratch's lifetime
    /// (feeds the scheduler's `SchedStats::bb_nodes`).
    pub fn bb_total_nodes(&self) -> u64 {
        self.bb.total_nodes()
    }
}

/// A burst admission policy: turns one round's [`PolicyContext`] into a
/// grant vector.
///
/// Implementations must be deterministic functions of the context and
/// their own state (the simulation relies on bit-reproducible
/// replications) and must return one grant per request, inside the region
/// and the bounds — the scheduler checks both and panics on a violating
/// policy, since an inadmissible grant vector would silently overload
/// cells mid-simulation.
///
/// `decide` takes `&mut self` so adaptive policies (e.g. the AIMD
/// [`MeasuredRegion`]) can carry state across rounds; stateful policies
/// must evolve that state only on [`QosFeedback::seq`] steps (not per
/// call) so a policy's decisions depend on the feedback window, never on
/// how many rounds it has seen.
pub trait AdmissionPolicy: std::fmt::Debug + Send + Sync {
    /// Short kind name, e.g. `"jaba-sd"` or `"fcfs"` (stable across
    /// parameterisations; registry names add the parameter flavour).
    fn name(&self) -> &'static str;

    /// One-line human description including the effective parameters.
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// Decides the grants for one scheduling round into `out`. Must set
    /// all of `m`, `objective_value` and `optimal`: the scratch persists
    /// across rounds and still holds the previous decision. Solver-backed
    /// policies reuse `out`'s problem shell and workspace so a warm round
    /// allocates nothing.
    fn decide(&mut self, ctx: &PolicyContext<'_>, out: &mut PolicyScratch);

    /// Whether the policy reads [`PolicyContext::feedback`]. The simulation
    /// runs its QoS monitor and publishes windowed feedback to the
    /// scheduler only for such policies; the others see the default
    /// (`seq == 0`) signal. Defaults to `false`.
    fn uses_feedback(&self) -> bool {
        false
    }

    /// Clones the policy behind the box ([`BoxedPolicy`] implements
    /// [`Clone`] through this).
    fn clone_box(&self) -> BoxedPolicy;

    /// Moves a concrete policy into a [`BoxedPolicy`].
    fn into_boxed(self) -> BoxedPolicy
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

impl Clone for BoxedPolicy {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The raw rate value Σ_j m_j·δβ̄_j of a grant vector — the objective the
/// non-optimising baselines report.
pub fn rate_value(m: &[u32], delta_beta: &[f64]) -> f64 {
    m.iter()
        .zip(delta_beta)
        .map(|(&mj, &db)| mj as f64 * db)
        .sum()
}

/// Writes a heuristic's grant vector into `out`, valued at its raw rate
/// ([`rate_value`]) and reported as optimal.
fn set_rate_decision(out: &mut PolicyScratch, m: Vec<u32>, delta_beta: &[f64]) {
    out.objective_value = rate_value(&m, delta_beta);
    out.optimal = true;
    out.m = m;
}

/// FCFS filling shared by [`Fcfs`] and [`ThresholdReservation`]: serve
/// requests oldest-first, each getting the largest grant that fits the
/// remaining `slack` (one headroom entry per region row), optionally
/// stopping after `max_concurrent` grants. `slack` lets callers pre-shrink
/// the headroom (reservation margins); pass `region.b.clone()` for the full
/// region.
fn fcfs_fill(
    region: &Region,
    mut slack: Vec<f64>,
    requests: &[RequestState<'_>],
    bounds: &[(u32, u32)],
    max_concurrent: Option<usize>,
) -> Vec<u32> {
    let n = requests.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| {
        requests[y]
            .waiting_s
            .partial_cmp(&requests[x].waiting_s)
            .expect("finite waits")
    });
    let mut m = vec![0u32; n];
    let mut granted = 0usize;
    for &j in &order {
        if let Some(cap) = max_concurrent {
            if granted >= cap {
                break;
            }
        }
        let (lo, hi) = bounds[j];
        if hi < lo {
            continue;
        }
        let max_fit = region
            .rows()
            .zip(&slack)
            .filter(|(row, _)| row[j] > 0.0)
            .map(|(row, &s)| (s / row[j]).floor().max(0.0))
            .fold(f64::INFINITY, f64::min);
        let cap_m = if max_fit.is_finite() {
            (max_fit as u32).min(hi)
        } else {
            hi
        };
        if cap_m >= lo {
            m[j] = cap_m;
            for (row, sk) in region.rows().zip(slack.iter_mut()) {
                *sk -= row[j] * cap_m as f64;
            }
            granted += 1;
        }
    }
    m
}

/// The paper's jointly adaptive burst admission over the spatial dimension
/// (Section 3.2): solves the integer program `max Σ c_j m_j` over the
/// admissible region, with J1/J2 weights, by exact branch-and-bound or the
/// density greedy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JabaSd {
    /// J1 or J2 weighting.
    pub objective: Objective,
    /// Exact branch-and-bound (`true`) or density greedy (`false`).
    pub exact: bool,
    /// Node cap for the exact solver (0 = unlimited).
    pub node_limit: u64,
}

impl JabaSd {
    /// The paper's headline configuration: exact JABA-SD under J2.
    pub fn default_j2() -> Self {
        Self {
            objective: Objective::j2_default(),
            exact: true,
            node_limit: 200_000,
        }
    }

    /// Exact JABA-SD under the pure-rate J1 objective.
    pub fn j1() -> Self {
        Self {
            objective: Objective::J1,
            exact: true,
            node_limit: 200_000,
        }
    }

    /// Solves the round's integer program over the scaled region
    /// `A m ≤ eta·b` into `out`. The problem shell and the branch-and-bound
    /// workspace come from `out`: a warm round fills existing buffers and
    /// solves without allocating. `eta = 1.0` multiplies every headroom by
    /// one exactly, so it is the unscaled region bit for bit.
    fn solve_scaled(&self, ctx: &PolicyContext<'_>, eta: f64, out: &mut PolicyScratch) {
        let PolicyScratch {
            m,
            objective_value,
            optimal,
            problem,
            bb,
        } = out;
        problem.c.clear();
        problem
            .c
            .extend(ctx.requests.iter().zip(ctx.delta_beta).map(|(r, &db)| {
                self.objective
                    .weight(db, r.priority, r.waiting_s, &ctx.cfg.timers)
            }));
        problem.lo.clear();
        problem.lo.extend(ctx.bounds.iter().map(|b| b.0));
        problem.hi.clear();
        problem.hi.extend(ctx.bounds.iter().map(|b| b.1));
        problem.a.clear();
        problem.a.extend_from_slice(&ctx.region.a);
        problem.b.clear();
        problem.b.extend(ctx.region.b.iter().map(|&bk| bk * eta));
        problem.validate().expect("invalid problem");
        let (sol, complete) = if self.exact {
            bb.solve(problem, self.node_limit)
        } else {
            (bb.greedy(problem), true)
        };
        m.clear();
        m.extend_from_slice(&sol.m);
        *objective_value = sol.objective;
        *optimal = complete;
    }
}

impl AdmissionPolicy for JabaSd {
    fn name(&self) -> &'static str {
        "jaba-sd"
    }

    fn describe(&self) -> String {
        let solver = if self.exact {
            "exact branch-and-bound"
        } else {
            "density greedy"
        };
        match self.objective {
            Objective::J1 => format!("JABA-SD, J1 (pure rate), {solver}"),
            Objective::J2 { lambda, mu } => {
                format!("JABA-SD, J2 (λ = {lambda}, μ = {mu} s), {solver}")
            }
        }
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>, out: &mut PolicyScratch) {
        self.solve_scaled(ctx, 1.0, out);
    }

    fn clone_box(&self) -> BoxedPolicy {
        Box::new(*self)
    }
}

/// First-come-first-serve maximal grants — cdma2000 behaviour \[1\]:
/// requests served oldest-first, each granted the largest spreading-gain
/// ratio that still fits, optionally limited to a number of simultaneous
/// bursts (the "first phase" single-SCH mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fcfs {
    max_concurrent: Option<usize>,
}

impl Fcfs {
    /// Creates an FCFS policy. `None` = unlimited simultaneous bursts;
    /// `Some(k)` grants at most `k` per round. `Some(0)` is rejected — a
    /// scheduler that can never grant anything is a configuration error,
    /// not a policy.
    pub fn new(max_concurrent: Option<usize>) -> Result<Self, String> {
        if max_concurrent == Some(0) {
            return Err("fcfs max_concurrent = Some(0) would never grant anything; \
                 use None for unlimited or Some(k ≥ 1)"
                .into());
        }
        Ok(Self { max_concurrent })
    }

    /// Unlimited simultaneous bursts.
    pub fn unlimited() -> Self {
        Self {
            max_concurrent: None,
        }
    }

    /// The strict single-burst baseline (`max_concurrent = 1`).
    pub fn single() -> Self {
        Self {
            max_concurrent: Some(1),
        }
    }

    /// The concurrency cap (`None` = unlimited).
    pub fn max_concurrent(&self) -> Option<usize> {
        self.max_concurrent
    }
}

impl AdmissionPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn describe(&self) -> String {
        match self.max_concurrent {
            None => "FCFS maximal grants, unlimited concurrent bursts".into(),
            Some(k) => format!("FCFS maximal grants, at most {k} concurrent burst(s)"),
        }
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>, out: &mut PolicyScratch) {
        let m = fcfs_fill(
            ctx.region,
            ctx.region.b.clone(),
            ctx.requests,
            ctx.bounds,
            self.max_concurrent,
        );
        set_rate_decision(out, m, ctx.delta_beta);
    }

    fn clone_box(&self) -> BoxedPolicy {
        Box::new(*self)
    }
}

/// Equal sharing between requests (ref \[8\]): every pending request gets
/// the same `m` (capped by its own eq.-24 bound), the largest equal share
/// that keeps the whole grant vector admissible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EqualShare;

impl AdmissionPolicy for EqualShare {
    fn name(&self) -> &'static str {
        "equal-share"
    }

    fn describe(&self) -> String {
        "largest common m admissible for every pending request".into()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>, out: &mut PolicyScratch) {
        let n = ctx.bounds.len();
        let m_max = ctx.cfg.spreading.max_gain_ratio;
        let mut best = vec![0u32; n];
        for share in 1..=m_max {
            let candidate: Vec<u32> = ctx
                .bounds
                .iter()
                .map(|&(lo, hi)| if hi < lo { 0 } else { share.min(hi) })
                .collect();
            if ctx.region.admits(&candidate) {
                best = candidate;
            } else {
                break;
            }
        }
        set_rate_decision(out, best, ctx.delta_beta);
    }

    fn clone_box(&self) -> BoxedPolicy {
        Box::new(*self)
    }
}

/// Weighted fair sharing: capacity is filled one spreading unit at a time,
/// always to the request with the highest `w_j / (m_j + 1)` — so granted
/// rates converge toward proportionality with the weights
/// `w_j = (1 + priority_weight·Δ_j) · (1 + wait_weight·t_w)`, a
/// proportional-fair analogue of the adaptive bandwidth-allocation CAC
/// schemes (Chowdhury/Jang/Haas, arXiv:1412.3630).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedFairShare {
    wait_weight: f64,
    priority_weight: f64,
}

impl Default for WeightedFairShare {
    fn default() -> Self {
        Self {
            wait_weight: 1.0,
            priority_weight: 1.0,
        }
    }
}

impl WeightedFairShare {
    /// Creates a weighted-fair-share policy. Both weights must be finite
    /// and non-negative; `wait_weight` scales how strongly waiting time
    /// tilts the shares, `priority_weight` scales the traffic-type
    /// priority Δ_j.
    pub fn new(wait_weight: f64, priority_weight: f64) -> Result<Self, String> {
        for (name, v) in [
            ("wait_weight", wait_weight),
            ("priority_weight", priority_weight),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!(
                    "weighted-fair-share {name} must be finite and ≥ 0, got {v}"
                ));
            }
        }
        Ok(Self {
            wait_weight,
            priority_weight,
        })
    }

    /// The waiting-time weight.
    pub fn wait_weight(&self) -> f64 {
        self.wait_weight
    }

    /// The priority weight.
    pub fn priority_weight(&self) -> f64 {
        self.priority_weight
    }
}

impl AdmissionPolicy for WeightedFairShare {
    fn name(&self) -> &'static str {
        "weighted-fair-share"
    }

    fn describe(&self) -> String {
        format!(
            "proportional filling by w = (1 + {}·Δ)·(1 + {}·t_w)",
            self.priority_weight, self.wait_weight
        )
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>, out: &mut PolicyScratch) {
        let n = ctx.requests.len();
        let weights: Vec<f64> = ctx
            .requests
            .iter()
            .map(|r| {
                (1.0 + self.priority_weight * r.priority) * (1.0 + self.wait_weight * r.waiting_s)
            })
            .collect();
        let mut m = vec![0u32; n];
        // Incremental headroom (the fcfs_fill pattern): checking one
        // candidate unit is O(rows), not an O(rows × n) full-region scan.
        // Strictly conservative (`coeff ≤ slack`, no tolerance), so the
        // grant vector always satisfies the region's own admits check.
        let mut slack = ctx.region.b.clone();
        // `saturated[j]`: j can take no further unit (bound hit or the
        // region rejected its last candidate increment).
        let mut saturated: Vec<bool> = ctx.bounds.iter().map(|&(lo, hi)| hi < lo).collect();
        loop {
            // Highest marginal claim w_j / (m_j + 1); ties break on the
            // lower index so the filling order is deterministic.
            let mut pick: Option<(usize, f64)> = None;
            for j in 0..n {
                if saturated[j] || m[j] >= ctx.bounds[j].1 {
                    continue;
                }
                let claim = weights[j] / (m[j] as f64 + 1.0);
                if pick.map(|(_, best)| claim > best).unwrap_or(true) {
                    pick = Some((j, claim));
                }
            }
            let Some((j, _)) = pick else { break };
            let fits = ctx.region.rows().zip(&slack).all(|(row, &s)| row[j] <= s);
            if fits {
                m[j] += 1;
                for (row, sk) in ctx.region.rows().zip(slack.iter_mut()) {
                    *sk -= row[j];
                }
            } else {
                saturated[j] = true;
            }
        }
        set_rate_decision(out, m, ctx.delta_beta);
    }

    fn clone_box(&self) -> BoxedPolicy {
        Box::new(*self)
    }
}

/// Threshold reservation: holds back a configurable fraction of every
/// cell's remaining headroom for the voice background (bursts only see
/// `(1 − margin)·(budget − load)`), then serves data requests FCFS-style —
/// the guard-margin CAC of the adaptive bandwidth-reservation literature
/// (new-call bounding with a handoff/voice reserve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdReservation {
    margin: f64,
}

impl ThresholdReservation {
    /// Creates a threshold-reservation policy reserving `margin ∈ [0, 1)`
    /// of each cell's headroom. `margin = 0` degenerates to plain FCFS.
    pub fn new(margin: f64) -> Result<Self, String> {
        if !(margin.is_finite() && (0.0..1.0).contains(&margin)) {
            return Err(format!(
                "threshold-reservation margin must be in [0, 1), got {margin}"
            ));
        }
        Ok(Self { margin })
    }

    /// The reserved headroom fraction.
    pub fn margin(&self) -> f64 {
        self.margin
    }
}

impl AdmissionPolicy for ThresholdReservation {
    fn name(&self) -> &'static str {
        "threshold-reservation"
    }

    fn describe(&self) -> String {
        format!(
            "FCFS over {:.0}% of each cell's headroom ({:.0}% reserved for voice)",
            (1.0 - self.margin) * 100.0,
            self.margin * 100.0
        )
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>, out: &mut PolicyScratch) {
        let reduced: Vec<f64> = ctx
            .region
            .b
            .iter()
            .map(|&bk| bk * (1.0 - self.margin))
            .collect();
        let m = fcfs_fill(ctx.region, reduced, ctx.requests, ctx.bounds, None);
        set_rate_decision(out, m, ctx.delta_beta);
    }

    fn clone_box(&self) -> BoxedPolicy {
        Box::new(*self)
    }
}

/// Measurement-based admission with AIMD region scaling: JABA-SD's J2
/// optimiser run over `A m ≤ η·b` where the scale `η ∈ [floor, 1]` is
/// adapted per link direction from the *observed* windowed outage rate
/// ([`PolicyContext::feedback`]) instead of trusting the eq.-24 region —
/// multiplicative decrease when the window violated the QoS target,
/// additive increase when it held (the Jaramillo–Ying idea of admission
/// control without a known capacity region). With a well-calibrated model
/// η sits at 1 and the policy is bit-identical to [`JabaSd::default_j2`];
/// under model mismatch it backs off until the observed outage returns
/// under the target.
///
/// Adaptation happens exactly once per closed feedback window
/// ([`QosFeedback::seq`] step), never per round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRegion {
    /// QoS target: tolerated windowed outage / SIR-violation rate.
    target: f64,
    /// Multiplicative decrease factor applied to η on a violating window.
    decrease: f64,
    /// Additive increase applied to η on a clean window.
    increase: f64,
    /// Lower bound on η (keeps a starved direction from locking out).
    floor: f64,
    /// Per-direction region scale η (forward, reverse).
    eta: [f64; 2],
    /// Last feedback window adapted to, per direction.
    last_seq: [u64; 2],
}

fn dir_index(dir: LinkDir) -> usize {
    match dir {
        LinkDir::Forward => 0,
        LinkDir::Reverse => 1,
    }
}

impl MeasuredRegion {
    /// Creates a measured-region policy.
    ///
    /// * `target` — tolerated windowed outage rate, in `(0, 1)`;
    /// * `decrease` — multiplicative decrease factor, in `(0, 1)`;
    /// * `increase` — additive recovery step, in `(0, 1]`;
    /// * `floor` — minimum region scale, in `(0, 1]`.
    pub fn new(target: f64, decrease: f64, increase: f64, floor: f64) -> Result<Self, String> {
        for (name, v) in [("target", target), ("decrease", decrease)] {
            if !(v.is_finite() && v > 0.0 && v < 1.0) {
                return Err(format!(
                    "measured-region {name} must be finite and in (0, 1), got {v}"
                ));
            }
        }
        for (name, v) in [("increase", increase), ("floor", floor)] {
            if !(v.is_finite() && v > 0.0 && v <= 1.0) {
                return Err(format!(
                    "measured-region {name} must be finite and in (0, 1], got {v}"
                ));
            }
        }
        Ok(Self {
            target,
            decrease,
            increase,
            floor,
            eta: [1.0; 2],
            last_seq: [0; 2],
        })
    }

    /// Defaults: 5 % outage target, halve on violation, +0.05 recovery,
    /// η floor 0.05.
    pub fn default_params() -> Self {
        Self::new(0.05, 0.5, 0.05, 0.05).expect("default params are valid")
    }

    /// The QoS target rate.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// Current region scale η for a direction (test/diagnostic hook).
    pub fn eta(&self, dir: LinkDir) -> f64 {
        self.eta[dir_index(dir)]
    }

    /// Advances the AIMD state if a new feedback window has closed for
    /// this direction; returns the η to apply this round.
    fn adapt(&mut self, ctx: &PolicyContext<'_>) -> f64 {
        let d = dir_index(ctx.dir);
        let fb = ctx.feedback;
        if fb.seq > self.last_seq[d] {
            self.last_seq[d] = fb.seq;
            let q = match ctx.dir {
                LinkDir::Forward => fb.fwd,
                LinkDir::Reverse => fb.rev,
            };
            // Forward overload (budget clamping) is a violation signal of
            // its own: the region admitted more power than existed.
            let violation = if ctx.dir == LinkDir::Forward {
                q.outage_rate.max(fb.overload_rate)
            } else {
                q.outage_rate
            };
            if q.samples > 0 && violation > self.target {
                self.eta[d] = (self.eta[d] * self.decrease).max(self.floor);
            } else {
                self.eta[d] = (self.eta[d] + self.increase).min(1.0);
            }
        }
        self.eta[d]
    }
}

impl AdmissionPolicy for MeasuredRegion {
    fn name(&self) -> &'static str {
        "measured-region"
    }

    fn describe(&self) -> String {
        format!(
            "JABA-SD J2 over the AIMD-scaled region η·b: target {:.3}, ×{} on violation, \
             +{} on hold, floor {} (measurement-based, ignores eq.-24 calibration)",
            self.target, self.decrease, self.increase, self.floor
        )
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>, out: &mut PolicyScratch) {
        // η ≤ 1, so every solution also satisfies the unscaled region and
        // the scheduler's admissibility contract holds by construction.
        let eta = self.adapt(ctx);
        JabaSd::default_j2().solve_scaled(ctx, eta, out);
    }

    fn uses_feedback(&self) -> bool {
        true
    }

    fn clone_box(&self) -> BoxedPolicy {
        Box::new(*self)
    }
}

/// Graceful degradation: a three-level shedding ladder driven by the
/// observed windowed violation rate. Level 0 serves requests FCFS over the
/// full region; when the violation rate crosses the QoS target the policy
/// *downgrades* (level 1: half the headroom, grants capped at 2 spreading
/// units); past twice the target it *sheds* (level 2: no new admissions at
/// all) until the observed rate recovers below half the target — a
/// hysteresis band so the ladder does not oscillate on the boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GracefulDegradation {
    /// QoS target: tolerated windowed outage / SIR-violation rate.
    target: f64,
    /// Current ladder level per direction (0 normal, 1 degraded, 2 shed).
    level: [u8; 2],
    /// Last feedback window adapted to, per direction.
    last_seq: [u64; 2],
}

impl GracefulDegradation {
    /// Creates a graceful-degradation policy with the given QoS target
    /// (tolerated windowed outage rate, in `(0, 1)`).
    pub fn new(target: f64) -> Result<Self, String> {
        if !(target.is_finite() && target > 0.0 && target < 1.0) {
            return Err(format!(
                "graceful-degradation target must be finite and in (0, 1), got {target}"
            ));
        }
        Ok(Self {
            target,
            level: [0; 2],
            last_seq: [0; 2],
        })
    }

    /// Defaults: 5 % outage target.
    pub fn default_params() -> Self {
        Self::new(0.05).expect("default params are valid")
    }

    /// Current ladder level for a direction (test/diagnostic hook).
    pub fn level(&self, dir: LinkDir) -> u8 {
        self.level[dir_index(dir)]
    }

    /// Advances the ladder if a new feedback window closed; returns the
    /// level to apply this round.
    fn adapt(&mut self, ctx: &PolicyContext<'_>) -> u8 {
        let d = dir_index(ctx.dir);
        let fb = ctx.feedback;
        if fb.seq > self.last_seq[d] {
            self.last_seq[d] = fb.seq;
            let q = match ctx.dir {
                LinkDir::Forward => fb.fwd,
                LinkDir::Reverse => fb.rev,
            };
            let violation = if ctx.dir == LinkDir::Forward {
                q.outage_rate.max(fb.overload_rate)
            } else {
                q.outage_rate
            };
            if q.samples > 0 && violation > 2.0 * self.target {
                self.level[d] = 2;
            } else if q.samples > 0 && violation > self.target {
                self.level[d] = (self.level[d] + 1).min(2);
            } else if violation <= 0.5 * self.target {
                self.level[d] = self.level[d].saturating_sub(1);
            }
            // Between target/2 and target: hold the current level.
        }
        self.level[d]
    }
}

impl AdmissionPolicy for GracefulDegradation {
    fn name(&self) -> &'static str {
        "graceful-degradation"
    }

    fn describe(&self) -> String {
        format!(
            "FCFS with a shed/downgrade ladder on observed outage: target {:.3} \
             (> target: half headroom + m ≤ 2; > 2×target: admit nothing; \
             recover below target/2)",
            self.target
        )
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>, out: &mut PolicyScratch) {
        let level = self.adapt(ctx);
        let n = ctx.requests.len();
        let m = match level {
            0 => fcfs_fill(
                ctx.region,
                ctx.region.b.clone(),
                ctx.requests,
                ctx.bounds,
                None,
            ),
            1 => {
                let reduced: Vec<f64> = ctx.region.b.iter().map(|&bk| bk * 0.5).collect();
                let capped: Vec<(u32, u32)> =
                    ctx.bounds.iter().map(|&(lo, hi)| (lo, hi.min(2))).collect();
                fcfs_fill(ctx.region, reduced, ctx.requests, &capped, None)
            }
            _ => vec![0u32; n],
        };
        set_rate_decision(out, m, ctx.delta_beta);
    }

    fn uses_feedback(&self) -> bool {
        true
    }

    fn clone_box(&self) -> BoxedPolicy {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Scheduler, SchedulerConfig};
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

    fn loads(n: usize, fwd: f64) -> (Vec<f64>, Vec<f64>) {
        let lmax = SchedulerConfig::default_config().lmax_w;
        (vec![fwd; n], vec![lmax / 4.0; n])
    }

    fn three_reqs() -> Vec<ReqSpec> {
        vec![
            req(0, 0, 0.1, 10.0, 1e7, 0.0),
            req(1, 0, 0.1, 10.0, 1e7, 2.0),
            req(2, 0, 0.1, 10.0, 1e7, 0.5),
        ]
    }

    fn schedule_with(policy: BoxedPolicy, specs: &[ReqSpec]) -> crate::scheduler::ScheduleOutcome {
        let mut s = Scheduler::new(SchedulerConfig::default_config(), policy);
        let (fwd, rev) = loads(1, 14.0);
        s.schedule(wcdma_mac::LinkDir::Forward, &fwd, &rev, &reqs(specs))
            .clone()
    }

    #[test]
    fn fcfs_zero_cap_is_a_constructor_error() {
        let err = Fcfs::new(Some(0)).expect_err("Some(0) must be rejected");
        assert!(err.contains("max_concurrent"), "{err}");
        assert!(Fcfs::new(Some(1)).is_ok());
        assert!(Fcfs::new(None).is_ok());
    }

    #[test]
    fn weighted_fair_share_splits_and_tilts_toward_waiters() {
        // Equal weights → equal shares (like EqualShare).
        let even = schedule_with(
            WeightedFairShare::new(0.0, 0.0).unwrap().into_boxed(),
            &three_reqs(),
        );
        let granted: Vec<u32> = even.m.iter().copied().filter(|&m| m > 0).collect();
        assert_eq!(granted.len(), 3, "headroom exists for all: {:?}", even.m);
        assert!(
            granted
                .windows(2)
                .all(|w| (w[0] as i64 - w[1] as i64).abs() <= 1),
            "zero weights must split near-evenly: {:?}",
            even.m
        );
        // A heavy waiting weight tilts the shares toward the starved user
        // (index 1 waited 2 s, the others ≤ 0.5 s).
        let tilted = schedule_with(
            WeightedFairShare::new(10.0, 0.0).unwrap().into_boxed(),
            &three_reqs(),
        );
        assert!(
            tilted.m[1] >= tilted.m[0] && tilted.m[1] >= tilted.m[2],
            "waiting user must not get less: {:?}",
            tilted.m
        );
        assert!(WeightedFairShare::new(-1.0, 0.0).is_err());
        assert!(WeightedFairShare::new(f64::NAN, 0.0).is_err());
    }

    #[test]
    fn threshold_reservation_grants_at_most_fcfs() {
        let specs = three_reqs();
        let full = schedule_with(Fcfs::unlimited().into_boxed(), &specs);
        let reserved = schedule_with(ThresholdReservation::new(0.5).unwrap().into_boxed(), &specs);
        let total = |m: &[u32]| m.iter().map(|&x| x as u64).sum::<u64>();
        assert!(
            total(&reserved.m) <= total(&full.m),
            "reserving headroom cannot grant more: {:?} vs {:?}",
            reserved.m,
            full.m
        );
        assert!(reserved.region.admits(&reserved.m));
        // margin = 0 degenerates to plain FCFS.
        let zero = schedule_with(ThresholdReservation::new(0.0).unwrap().into_boxed(), &specs);
        assert_eq!(zero.m, full.m);
        assert!(ThresholdReservation::new(1.0).is_err());
        assert!(ThresholdReservation::new(-0.1).is_err());
        assert!(ThresholdReservation::new(f64::NAN).is_err());
    }

    #[test]
    fn boxed_policy_clones_and_describes() {
        let p: BoxedPolicy = JabaSd::default_j2().into_boxed();
        let q = p.clone();
        assert_eq!(p.name(), q.name());
        for p in [
            JabaSd::default_j2().into_boxed(),
            JabaSd::j1().into_boxed(),
            Fcfs::unlimited().into_boxed(),
            Fcfs::single().into_boxed(),
            EqualShare.into_boxed(),
            WeightedFairShare::default().into_boxed(),
            ThresholdReservation::new(0.25).unwrap().into_boxed(),
            MeasuredRegion::default_params().into_boxed(),
            GracefulDegradation::default_params().into_boxed(),
        ] {
            assert!(!p.name().is_empty());
            assert!(!p.describe().is_empty());
            assert!(!format!("{p:?}").is_empty());
        }
    }

    use crate::feedback::{DirQos, QosFeedback};

    fn fb(seq: u64, fwd_outage: f64, fwd_samples: u64, overload: f64) -> QosFeedback {
        QosFeedback {
            seq,
            fwd: DirQos {
                outage_rate: fwd_outage,
                samples: fwd_samples,
            },
            rev: DirQos::default(),
            overload_rate: overload,
        }
    }

    fn round(s: &mut Scheduler, specs: &[ReqSpec]) -> crate::scheduler::ScheduleOutcome {
        let (fwd, rev) = loads(1, 14.0);
        s.schedule(wcdma_mac::LinkDir::Forward, &fwd, &rev, &reqs(specs))
            .clone()
    }

    fn total(m: &[u32]) -> u64 {
        m.iter().map(|&x| x as u64).sum()
    }

    #[test]
    fn measured_region_without_feedback_is_bit_identical_to_jaba_sd() {
        // η starts at 1 and no window has closed (seq = 0): the policy must
        // reproduce JABA-SD J2 exactly, bit for bit.
        let specs = three_reqs();
        let model = schedule_with(JabaSd::default_j2().into_boxed(), &specs);
        let measured = schedule_with(MeasuredRegion::default_params().into_boxed(), &specs);
        assert_eq!(model.m, measured.m);
        assert_eq!(
            model.objective_value.to_bits(),
            measured.objective_value.to_bits(),
            "η = 1 must be an exact identity on the region"
        );
        assert_eq!(model.optimal, measured.optimal);
    }

    #[test]
    fn measured_region_backs_off_on_violation_and_recovers() {
        let specs = three_reqs();
        let policy = MeasuredRegion::new(0.05, 0.01, 1.0, 0.01).unwrap();
        let mut s = Scheduler::new(SchedulerConfig::default_config(), policy.into_boxed());
        let calibrated = round(&mut s, &specs);
        assert!(total(&calibrated.m) > 0, "baseline must grant something");

        // A violating window: η ×0.01 shrinks the region a hundredfold.
        s.set_feedback(fb(1, 0.5, 100, 0.0));
        let backed_off = round(&mut s, &specs);
        assert!(
            total(&backed_off.m) < total(&calibrated.m),
            "violating feedback must shrink grants: {:?} vs {:?}",
            backed_off.m,
            calibrated.m
        );

        // Same window replayed: adaptation is once per seq, not per round.
        let replay = round(&mut s, &specs);
        assert_eq!(replay.m, backed_off.m, "same seq must not adapt again");

        // A clean window with a full additive step restores η = 1 and the
        // exact calibrated decision.
        s.set_feedback(fb(2, 0.0, 100, 0.0));
        let recovered = round(&mut s, &specs);
        assert_eq!(recovered.m, calibrated.m);
        assert_eq!(
            recovered.objective_value.to_bits(),
            calibrated.objective_value.to_bits()
        );
    }

    #[test]
    fn measured_region_treats_forward_overload_as_violation() {
        let specs = three_reqs();
        let policy = MeasuredRegion::new(0.05, 0.01, 0.05, 0.01).unwrap();
        let mut s = Scheduler::new(SchedulerConfig::default_config(), policy.into_boxed());
        let calibrated = round(&mut s, &specs);
        // Zero outage but heavy budget clamping: still a violation forward.
        s.set_feedback(fb(1, 0.0, 100, 0.5));
        let backed_off = round(&mut s, &specs);
        assert!(
            total(&backed_off.m) < total(&calibrated.m),
            "overload alone must trigger forward back-off"
        );
    }

    #[test]
    fn graceful_degradation_ladder_sheds_and_recovers() {
        let specs = three_reqs();
        let fcfs = schedule_with(Fcfs::unlimited().into_boxed(), &specs);
        let mut s = Scheduler::new(
            SchedulerConfig::default_config(),
            GracefulDegradation::new(0.05).unwrap().into_boxed(),
        );
        // Level 0: plain FCFS over the full region.
        let normal = round(&mut s, &specs);
        assert_eq!(normal.m, fcfs.m);

        // Violation > 2×target: jump straight to level 2 — shed everything.
        s.set_feedback(fb(1, 0.2, 100, 0.0));
        let shed = round(&mut s, &specs);
        assert_eq!(total(&shed.m), 0, "level 2 admits nothing: {:?}", shed.m);

        // Clean window (≤ target/2): step down one level to degraded mode —
        // half headroom, grants capped at 2.
        s.set_feedback(fb(2, 0.0, 100, 0.0));
        let degraded = round(&mut s, &specs);
        assert!(degraded.m.iter().all(|&m| m <= 2), "{:?}", degraded.m);
        assert!(total(&degraded.m) <= total(&fcfs.m));

        // Another clean window: back to level 0, exactly FCFS again.
        s.set_feedback(fb(3, 0.0, 100, 0.0));
        let restored = round(&mut s, &specs);
        assert_eq!(restored.m, fcfs.m);
    }

    #[test]
    fn graceful_degradation_holds_level_in_hysteresis_band() {
        let specs = three_reqs();
        let mut s = Scheduler::new(
            SchedulerConfig::default_config(),
            GracefulDegradation::new(0.1).unwrap().into_boxed(),
        );
        s.set_feedback(fb(1, 0.15, 100, 0.0)); // > target → level 1
        let degraded = round(&mut s, &specs);
        assert!(degraded.m.iter().all(|&m| m <= 2));
        // In (target/2, target]: neither step up nor down.
        s.set_feedback(fb(2, 0.08, 100, 0.0));
        let held = round(&mut s, &specs);
        assert_eq!(held.m, degraded.m, "hysteresis band must hold the level");
    }

    #[test]
    fn measurement_policy_constructors_validate() {
        assert!(MeasuredRegion::new(0.0, 0.5, 0.05, 0.05).is_err());
        assert!(MeasuredRegion::new(1.0, 0.5, 0.05, 0.05).is_err());
        assert!(MeasuredRegion::new(0.05, 1.0, 0.05, 0.05).is_err());
        assert!(MeasuredRegion::new(0.05, 0.5, 0.0, 0.05).is_err());
        assert!(MeasuredRegion::new(0.05, 0.5, 1.5, 0.05).is_err());
        assert!(MeasuredRegion::new(0.05, 0.5, 0.05, 0.0).is_err());
        assert!(MeasuredRegion::new(f64::NAN, 0.5, 0.05, 0.05).is_err());
        assert!(MeasuredRegion::new(0.05, 0.5, 1.0, 1.0).is_ok());
        assert!(GracefulDegradation::new(0.0).is_err());
        assert!(GracefulDegradation::new(1.0).is_err());
        assert!(GracefulDegradation::new(f64::NAN).is_err());
        assert!(GracefulDegradation::new(0.5).is_ok());
    }
}
