//! The scheduling objectives — Section 3.2, eq. (19)–(23).
//!
//! * **J1** (eq. 19): pure system rate,
//!   `J1 = Σ_j m_j·δβ̄_j·(1+Δ_j)` — grant weight `c_j = δβ̄_j (1+Δ_j)`.
//!
//! * **J2** (eq. 20): rate minus a waiting-time penalty,
//!   `J2 = Σ_j [m_j·δβ̄_j·(1+Δ_j) − f(w_j, m_j·δβ̄_j)]`.
//!
//! The penalty `f` must (per the paper's text) *increase with the overall
//! request delay* `w_j`, *decrease with the granted rate* `m_j δβ̄_j`, be
//! *linear in* `m_j δβ̄_j` (so the program stays a linear IP), and blow up
//! past the MAC time-outs through `w_j = t_w + D_s(t_w)` (eq. 22–23). The
//! scanned equation (21) is illegible; we reconstruct the family
//!
//! `f(w, r) = λ · (1 − e^{−w/μ}) · (r_max − r)`
//!
//! with scaling factor λ and *delay forgetting factor* μ — every stated
//! property holds, and the per-user grant weight becomes
//! `c_j = δβ̄_j · (1 + Δ_j + λ·(1 − e^{−w_j/μ}))`: waiting users get
//! progressively heavier weights, so J2 trades raw throughput for delay
//! fairness.

use wcdma_mac::MacTimers;

/// Scheduling objective selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Eq. (19): maximise total offered rate.
    J1,
    /// Eq. (20): rate minus delay penalty.
    J2 {
        /// Penalty scaling factor λ.
        lambda: f64,
        /// Delay forgetting factor μ (seconds).
        mu: f64,
    },
}

impl Objective {
    /// Default J2 parameters: λ = 1, μ = 1 s.
    pub fn j2_default() -> Self {
        Objective::J2 {
            lambda: 1.0,
            mu: 1.0,
        }
    }

    /// Per-user grant weight `c_j` for a unit of `m_j`.
    ///
    /// * `delta_beta` — δβ̄_j;
    /// * `priority` — Δ_j;
    /// * `waiting_s` — request waiting time `t_w`;
    /// * `timers` — MAC timers providing `D_s(t_w)` (eq. 22–23).
    pub fn weight(
        &self,
        delta_beta: f64,
        priority: f64,
        waiting_s: f64,
        timers: &MacTimers,
    ) -> f64 {
        assert!(delta_beta >= 0.0 && priority >= 0.0 && waiting_s >= 0.0);
        match *self {
            Objective::J1 => delta_beta * (1.0 + priority),
            Objective::J2 { lambda, mu } => {
                let w = timers.overall_delay(waiting_s);
                let urgency = lambda * (1.0 - (-w / mu).exp());
                delta_beta * (1.0 + priority + urgency)
            }
        }
    }
}

/// The reconstructed delay-penalty function `f(w, r)` of eq. (21), exposed
/// for the F3 experiment. `r_max` is the maximum grantable rate in δβ̄ units
/// (`M · δβ_max`).
pub fn delay_penalty(lambda: f64, mu: f64, w: f64, r: f64, r_max: f64) -> f64 {
    assert!(lambda >= 0.0 && mu > 0.0 && w >= 0.0 && r >= 0.0 && r_max >= r);
    lambda * (1.0 - (-w / mu).exp()) * (r_max - r)
}

/// Full J2 value of a grant vector, for reporting (includes the constant
/// part the weight form drops).
pub fn j2_value(
    lambda: f64,
    mu: f64,
    grants: &[(u32, f64, f64, f64)], // (m, delta_beta, priority, waiting)
    timers: &MacTimers,
    r_max: f64,
) -> f64 {
    grants
        .iter()
        .map(|&(m, db, pri, wait)| {
            let r = m as f64 * db;
            let w = timers.overall_delay(wait);
            r * (1.0 + pri) - delay_penalty(lambda, mu, w, r.min(r_max), r_max)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timers() -> MacTimers {
        MacTimers::default_timers()
    }

    #[test]
    fn j1_weight_ignores_waiting() {
        let o = Objective::J1;
        let a = o.weight(2.0, 0.0, 0.0, &timers());
        let b = o.weight(2.0, 0.0, 100.0, &timers());
        assert_eq!(a, b);
        assert_eq!(a, 2.0);
        // Priority scales.
        assert_eq!(o.weight(2.0, 0.5, 0.0, &timers()), 3.0);
    }

    #[test]
    fn j2_weight_grows_with_waiting() {
        let o = Objective::j2_default();
        let mut prev = 0.0;
        for w in [0.0, 0.2, 0.5, 1.0, 2.0, 5.0] {
            let c = o.weight(1.0, 0.0, w, &timers());
            assert!(c > prev, "weight not increasing at w = {w}");
            prev = c;
        }
        // Saturates at 1 + λ.
        let c_inf = o.weight(1.0, 0.0, 1e6, &timers());
        assert!((c_inf - 2.0).abs() < 1e-9);
    }

    #[test]
    fn j2_weight_jumps_at_mac_timeouts() {
        // Crossing T2 adds D1 to w; the weight must jump discontinuously.
        let o = Objective::j2_default();
        let before = o.weight(1.0, 0.0, 0.499, &timers());
        let after = o.weight(1.0, 0.0, 0.501, &timers());
        let smooth = o.weight(1.0, 0.0, 0.503, &timers());
        assert!(after - before > (smooth - after) * 5.0, "no jump at T2");
    }

    #[test]
    fn penalty_properties() {
        // Increasing in w.
        assert!(delay_penalty(1.0, 1.0, 2.0, 1.0, 4.0) > delay_penalty(1.0, 1.0, 1.0, 1.0, 4.0));
        // Decreasing (linear) in r.
        let p0 = delay_penalty(1.0, 1.0, 1.0, 0.0, 4.0);
        let p2 = delay_penalty(1.0, 1.0, 1.0, 2.0, 4.0);
        let p4 = delay_penalty(1.0, 1.0, 1.0, 4.0, 4.0);
        assert!(p0 > p2 && p2 > p4);
        assert_eq!(p4, 0.0);
        // Linearity: midpoint is the average.
        assert!((p2 - 0.5 * (p0 + p4)).abs() < 1e-12);
        // Zero at w = 0.
        assert_eq!(delay_penalty(1.0, 1.0, 0.0, 1.0, 4.0), 0.0);
    }

    #[test]
    fn j2_value_matches_weight_ordering() {
        // A schedule with the waiting user granted scores higher J2 than one
        // granting the fresh user, when rates are equal.
        let t = timers();
        let waiting_granted = j2_value(
            1.0,
            1.0,
            &[(4, 1.0, 0.0, 3.0), (0, 1.0, 0.0, 0.0)],
            &t,
            16.0,
        );
        let fresh_granted = j2_value(
            1.0,
            1.0,
            &[(0, 1.0, 0.0, 3.0), (4, 1.0, 0.0, 0.0)],
            &t,
            16.0,
        );
        assert!(
            waiting_granted > fresh_granted,
            "{waiting_granted} vs {fresh_granted}"
        );
    }

    #[test]
    fn weight_scales_with_delta_beta() {
        let o = Objective::j2_default();
        let w1 = o.weight(1.0, 0.0, 1.0, &timers());
        let w2 = o.weight(2.0, 0.0, 1.0, &timers());
        assert!((w2 - 2.0 * w1).abs() < 1e-12);
    }
}
