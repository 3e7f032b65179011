//! Power control — forward FCH power allocation and reverse closed-loop
//! control.
//!
//! Forward link: the FCH of mobile j in soft hand-off over active set `A_j`
//! is transmitted from every leg; with maximal-ratio combining the legs are
//! balanced to contribute equally, so leg k transmits
//!
//! `P_{j,k} = (target Es/I0) · I_j / (|A_j| · g_{j,k} · θ_f)`
//!
//! which reproduces the paper's footnote 4: soft hand-off *costs* forward
//! power because weak legs are expensive. `P_{j,k}` is exactly the
//! "forward link loading" quantity the measurement sub-layer uses.
//!
//! Reverse link: a conventional closed inner loop steps the mobile FCH
//! transmit power by ±Δ dB per frame toward the power that meets the Eb/I0
//! target at the best active-set leg (selection combining), clamped at the
//! mobile's maximum power. An ideal mode sets the solution exactly — used
//! by snapshot experiments; the stepped mode is used by the dynamic
//! simulation.

use wcdma_math::db::db_to_lin;

/// Solves the forward FCH leg powers for one mobile.
///
/// * `target_ebi0` — FCH Eb/I0 target (linear);
/// * `proc_gain` — FCH processing gain θ_f;
/// * `interference_w` — total forward interference+noise at the mobile I_j;
/// * `leg_gains` — long-term power gain g_{j,k} per active-set leg.
///
/// Writes one transmit power (W) per leg into `out`
/// (`out.len() == leg_gains.len()`), equal-contribution MRC split.
pub fn forward_fch_powers_into(
    target_ebi0: f64,
    proc_gain: f64,
    interference_w: f64,
    leg_gains: &[f64],
    out: &mut [f64],
) {
    assert!(!leg_gains.is_empty(), "need at least one leg");
    assert!(target_ebi0 > 0.0 && proc_gain > 0.0 && interference_w > 0.0);
    assert_eq!(out.len(), leg_gains.len(), "one output slot per leg");
    let n = leg_gains.len() as f64;
    // The per-leg power differs only by 1/g: hoist the common numerator
    // out of the loop (canonical order v2 — one division per leg remains).
    let num = target_ebi0 * interference_w / (n * proc_gain);
    for (&g, slot) in leg_gains.iter().zip(out.iter_mut()) {
        assert!(g > 0.0, "non-positive link gain");
        *slot = num / g;
    }
}

/// Received FCH Eb/I0 at the mobile for given leg powers (MRC sum).
pub fn forward_fch_ebi0(
    proc_gain: f64,
    interference_w: f64,
    leg_powers: &[f64],
    leg_gains: &[f64],
) -> f64 {
    assert_eq!(leg_powers.len(), leg_gains.len());
    assert!(interference_w > 0.0);
    // One division total (canonical order v2): θ/I is common to every leg.
    let theta_over_i = proc_gain / interference_w;
    leg_powers
        .iter()
        .zip(leg_gains)
        .map(|(&p, &g)| p * g * theta_over_i)
        .sum()
}

/// Solves the reverse FCH transmit power meeting `target_ebi0` at the best
/// leg, accounting for the mobile's own signal inside `rx_total_w`
/// (`Eb/I0 = X·g·θ / (L − X·g)`), clamped to `max_power_w`.
///
/// `rx_total_w` is the total received power at the best-leg base station
/// (interference + noise, *including* this mobile's previous contribution —
/// the solver removes the self-term analytically).
pub fn reverse_fch_power(
    target_ebi0: f64,
    proc_gain: f64,
    rx_total_w: f64,
    best_gain: f64,
    max_power_w: f64,
) -> f64 {
    assert!(target_ebi0 > 0.0 && proc_gain > 0.0 && rx_total_w > 0.0 && best_gain > 0.0);
    // X g θ = target (L - X g)  =>  X = target L / (g (θ + target)).
    let x = target_ebi0 * rx_total_w / (best_gain * (proc_gain + target_ebi0));
    x.min(max_power_w)
}

/// Achieved reverse Eb/I0 for transmit power `x` at the best leg.
pub fn reverse_fch_ebi0(proc_gain: f64, rx_total_w: f64, best_gain: f64, x: f64) -> f64 {
    assert!(rx_total_w > 0.0 && best_gain > 0.0 && x >= 0.0);
    let sig = x * best_gain;
    let denom = (rx_total_w - sig).max(rx_total_w * 1e-6);
    sig * proc_gain / denom
}

/// Closed-loop inner power control: steps a dB-domain power toward the ideal
/// solution by at most `step_db` per update, clamped to `[min_w, max_w]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InnerLoop {
    /// Step size per update in dB (cdma2000 uses 0.5 or 1.0).
    pub step_db: f64,
    /// Lower power clamp (W).
    pub min_w: f64,
    /// Upper power clamp (W).
    pub max_w: f64,
    /// Cached `10^{step_db/10}` — one full step as a linear factor, so the
    /// per-frame update needs no log/exp round trip.
    step_up_lin: f64,
    /// Cached `10^{-step_db/10}`.
    step_down_lin: f64,
}

impl InnerLoop {
    /// Creates an inner loop controller.
    pub fn new(step_db: f64, min_w: f64, max_w: f64) -> Self {
        assert!(step_db > 0.0 && min_w > 0.0 && max_w >= min_w);
        Self {
            step_db,
            min_w,
            max_w,
            step_up_lin: db_to_lin(step_db),
            step_down_lin: db_to_lin(-step_db),
        }
    }

    /// One update: move `current_w` toward `ideal_w` by at most one step.
    ///
    /// Evaluated entirely in the linear domain (canonical order v2): the
    /// dB distance to the ideal is compared against one full step via the
    /// cached linear step factors — `|10·log10(ideal/current)| ≤ step_db`
    /// exactly when `ideal` lies within `[current·10^{-s/10},
    /// current·10^{s/10}]` — so an in-range ideal is returned exactly
    /// instead of through a `log10`/`10^x` round trip.
    pub fn step(&self, current_w: f64, ideal_w: f64) -> f64 {
        assert!(current_w > 0.0 && ideal_w > 0.0);
        let up = current_w * self.step_up_lin;
        let down = current_w * self.step_down_lin;
        let next = if ideal_w > up {
            up
        } else if ideal_w < down {
            down
        } else {
            ideal_w
        };
        next.clamp(self.min_w, self.max_w)
    }

    /// Runs `n` updates against a fixed target (for convergence tests).
    pub fn run(&self, mut current_w: f64, ideal_w: f64, n: usize) -> f64 {
        for _ in 0..n {
            current_w = self.step(current_w, ideal_w);
        }
        current_w
    }
}

/// Outer-loop power control: adapts the per-user Eb/I0 *target* from frame
/// error events so the delivered FER converges to `target_fer`.
///
/// Standard sawtooth: on a frame error the target jumps up by `step_up_db`;
/// on success it creeps down by `step_up_db · target_fer / (1 − target_fer)`
/// — the drift balances exactly at the target FER.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OuterLoop {
    target_ebi0: f64,
    step_up_db: f64,
    step_down_db: f64,
    min_ebi0: f64,
    max_ebi0: f64,
}

impl OuterLoop {
    /// Creates an outer loop around an initial Eb/I0 target (linear) with
    /// the given FER goal.
    pub fn new(initial_ebi0: f64, target_fer: f64, step_up_db: f64) -> Self {
        assert!(initial_ebi0 > 0.0);
        assert!((0.0..1.0).contains(&target_fer) && target_fer > 0.0);
        assert!(step_up_db > 0.0);
        Self {
            target_ebi0: initial_ebi0,
            step_up_db,
            step_down_db: step_up_db * target_fer / (1.0 - target_fer),
            min_ebi0: initial_ebi0 * db_to_lin(-6.0),
            max_ebi0: initial_ebi0 * db_to_lin(6.0),
        }
    }

    /// Current Eb/I0 target (linear).
    pub fn target(&self) -> f64 {
        self.target_ebi0
    }

    /// Records one frame outcome and updates the target.
    pub fn on_frame(&mut self, error: bool) {
        let delta_db = if error {
            self.step_up_db
        } else {
            -self.step_down_db
        };
        self.target_ebi0 =
            (self.target_ebi0 * db_to_lin(delta_db)).clamp(self.min_ebi0, self.max_ebi0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_single_leg_meets_target() {
        let target = db_to_lin(7.0);
        let theta = 384.0;
        let i = 1e-13;
        let g = 1e-12;
        let mut p = [0.0];
        forward_fch_powers_into(target, theta, i, &[g], &mut p);
        let achieved = forward_fch_ebi0(theta, i, &p, &[g]);
        assert!((achieved - target).abs() / target < 1e-12);
    }

    #[test]
    fn forward_sho_combines_to_target_but_costs_more() {
        let target = db_to_lin(7.0);
        let theta = 384.0;
        let i = 1e-13;
        // Strong leg + weak leg.
        let gains = [1e-12, 1e-13];
        let mut p = [0.0; 2];
        forward_fch_powers_into(target, theta, i, &gains, &mut p);
        let achieved = forward_fch_ebi0(theta, i, &p, &gains);
        assert!((achieved - target).abs() / target < 1e-12);
        // Total SHO power must exceed single-best-leg power (footnote 4).
        let mut single = [0.0];
        forward_fch_powers_into(target, theta, i, &[gains[0]], &mut single);
        assert!(p.iter().sum::<f64>() > single[0]);
        // Weak leg transmits more than the strong leg.
        assert!(p[1] > p[0]);
    }

    #[test]
    fn reverse_power_meets_target_exactly() {
        let target = db_to_lin(7.0);
        let theta = 384.0;
        let l = 1e-12;
        let g = 1e-13;
        let x = reverse_fch_power(target, theta, l, g, 1.0);
        let achieved = reverse_fch_ebi0(theta, l, g, x);
        assert!(
            (achieved - target).abs() / target < 1e-9,
            "achieved {achieved}"
        );
    }

    #[test]
    fn reverse_power_clamps_at_max() {
        let target = db_to_lin(7.0);
        let theta = 384.0;
        // Terrible gain: would need enormous power.
        let x = reverse_fch_power(target, theta, 1e-12, 1e-20, 0.2);
        assert_eq!(x, 0.2);
        let achieved = reverse_fch_ebi0(theta, 1e-12, 1e-20, x);
        assert!(achieved < target, "capped mobile cannot meet target");
    }

    #[test]
    fn inner_loop_converges_geometrically() {
        let il = InnerLoop::new(0.5, 1e-6, 1.0);
        let ideal = 0.01;
        let converged = il.run(0.1, ideal, 100);
        assert!(
            (wcdma_math::lin_to_db(converged / ideal)).abs() < 0.51,
            "converged {converged}"
        );
        // 10 dB gap at 0.5 dB/step needs 20 steps.
        let partway = il.run(0.1, ideal, 10);
        let gap_db = wcdma_math::lin_to_db(partway / ideal);
        assert!(
            (gap_db - 5.0).abs() < 0.01,
            "gap after 10 steps {gap_db} dB"
        );
    }

    #[test]
    fn inner_loop_respects_clamps() {
        let il = InnerLoop::new(1.0, 1e-3, 0.5);
        assert_eq!(il.step(0.5, 10.0), 0.5, "upper clamp");
        assert_eq!(il.step(1e-3, 1e-9), 1e-3, "lower clamp");
    }

    #[test]
    fn inner_loop_small_error_single_step() {
        let il = InnerLoop::new(0.5, 1e-6, 1.0);
        // 0.2 dB away: one step lands exactly on the ideal.
        let ideal = 0.01;
        let start = ideal * db_to_lin(0.2);
        let out = il.step(start, ideal);
        assert!((out - ideal).abs() / ideal < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one leg")]
    fn forward_requires_legs() {
        forward_fch_powers_into(1.0, 100.0, 1e-12, &[], &mut []);
    }

    #[test]
    fn outer_loop_converges_to_target_fer() {
        // Simulate a link whose FER depends on the target: error iff a
        // uniform draw < fer(target). Use a steep logistic so the loop has
        // something to regulate against.
        let mut ol = OuterLoop::new(db_to_lin(7.0), 0.01, 0.5);
        let mut rng = wcdma_math::Xoshiro256pp::new(1);
        let fer = |t: f64| {
            // FER falls steeply with target: 0.5 at 5 dB, ~1e-3 at 8 dB.
            let t_db = wcdma_math::lin_to_db(t);
            1.0 / (1.0 + ((t_db - 5.0) * 2.3).exp())
        };
        let mut errors = 0usize;
        let n = 200_000;
        for i in 0..n {
            let e = rng.next_f64() < fer(ol.target());
            ol.on_frame(e);
            if i >= n / 2 && e {
                errors += 1;
            }
        }
        let measured_fer = errors as f64 / (n / 2) as f64;
        assert!(
            (measured_fer - 0.01).abs() < 0.005,
            "converged FER {measured_fer} vs 0.01 goal"
        );
    }

    #[test]
    fn outer_loop_clamps() {
        let mut ol = OuterLoop::new(db_to_lin(7.0), 0.01, 1.0);
        for _ in 0..100 {
            ol.on_frame(true); // persistent errors
        }
        assert!(
            (wcdma_math::lin_to_db(ol.target()) - 13.0).abs() < 0.01,
            "clamped at +6 dB: {} dB",
            wcdma_math::lin_to_db(ol.target())
        );
        for _ in 0..100_000 {
            ol.on_frame(false);
        }
        assert!(
            (wcdma_math::lin_to_db(ol.target()) - 1.0).abs() < 0.01,
            "clamped at -6 dB: {} dB",
            wcdma_math::lin_to_db(ol.target())
        );
    }

    #[test]
    fn outer_loop_balance_identity() {
        // step_down = step_up · fer/(1-fer): at the target FER the expected
        // dB drift is zero.
        let ol = OuterLoop::new(1.0, 0.05, 0.5);
        let drift = 0.05 * ol.step_up_db - 0.95 * ol.step_down_db;
        assert!(drift.abs() < 1e-12);
    }
}
