//! Frame-level VTAOC operation — the "typical transmitted frame" of
//! Figure 1(b).
//!
//! Within one 20 ms frame the fast fading changes symbol group to symbol
//! group, so a transmitted frame is a *sequence of modes*. This module
//! simulates that sequence against a fading trace and accounts the
//! information bits actually delivered. Nothing outside this module calls
//! it: it is the Monte Carlo reference for [`Vtaoc::avg_throughput`], which
//! the `long_run_average_matches_analytic` test below checks against.

use wcdma_math::rng::Xoshiro256pp;

use crate::modes::TxMode;
use crate::vtaoc::Vtaoc;

/// Outcome of transmitting one frame through the adaptive PHY.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameReport {
    /// Mode chosen in each adaptation slot.
    pub modes: Vec<TxMode>,
    /// Information bits delivered (sum over slots of β_q · symbols/slot).
    pub bits_delivered: f64,
    /// Fraction of slots in outage.
    pub outage_fraction: f64,
}

/// Simulates the mode sequence of one frame.
///
/// * `vtaoc` — the adaptive coder;
/// * `eps` — local-mean CSI over the frame (assumed constant within it,
///   consistent with the ~1 s shadowing coherence);
/// * `slots` — number of adaptation slots per frame;
/// * `symbols_per_slot` — modulation symbols per slot;
/// * `rho` — slot-to-slot fading correlation (AR(1) within the frame).
pub fn simulate_frame(
    vtaoc: &Vtaoc,
    eps: f64,
    slots: usize,
    symbols_per_slot: f64,
    rho: f64,
    rng: &mut Xoshiro256pp,
) -> FrameReport {
    assert!(slots > 0, "need at least one slot");
    assert!((0.0..1.0).contains(&rho), "rho must be in [0,1)");
    assert!(symbols_per_slot > 0.0);

    let mut modes = Vec::with_capacity(slots);
    let mut bits = 0.0;
    let mut outage = 0usize;

    // AR(1) on the underlying complex Gaussian: power = |h|², unit mean.
    // Track the two quadratures directly.
    let s0 = core::f64::consts::FRAC_1_SQRT_2;
    let mut re = wcdma_math::dist::Normal::standard_sample(rng) * s0;
    let mut im = wcdma_math::dist::Normal::standard_sample(rng) * s0;
    let innov = (1.0 - rho * rho).sqrt() * s0;

    for _ in 0..slots {
        let power = re * re + im * im;
        let gamma = power * eps;
        let mode = vtaoc.mode_for(gamma);
        match mode {
            TxMode::Outage => outage += 1,
            TxMode::Active(_) => bits += mode.throughput() * symbols_per_slot,
        }
        modes.push(mode);
        re = rho * re + innov * wcdma_math::dist::Normal::standard_sample(rng);
        im = rho * im + innov * wcdma_math::dist::Normal::standard_sample(rng);
    }

    FrameReport {
        modes,
        bits_delivered: bits,
        outage_fraction: outage as f64 / slots as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_bits_match_mode_sum() {
        let v = Vtaoc::default_config();
        let mut rng = Xoshiro256pp::new(1);
        let rep = simulate_frame(&v, wcdma_math::db_to_lin(8.0), 64, 24.0, 0.7, &mut rng);
        assert_eq!(rep.modes.len(), 64);
        let expect: f64 = rep.modes.iter().map(|m| m.throughput() * 24.0).sum();
        assert!((rep.bits_delivered - expect).abs() < 1e-9);
    }

    #[test]
    fn good_channel_fills_high_modes() {
        let v = Vtaoc::default_config();
        let mut rng = Xoshiro256pp::new(2);
        let rep = simulate_frame(&v, wcdma_math::db_to_lin(25.0), 256, 24.0, 0.5, &mut rng);
        assert!(rep.outage_fraction < 0.01, "outage {}", rep.outage_fraction);
        let high = rep
            .modes
            .iter()
            .filter(|m| matches!(m, TxMode::Active(q) if *q >= 4))
            .count();
        assert!(high > 200, "only {high} high-mode slots");
    }

    #[test]
    fn bad_channel_mostly_outage() {
        let v = Vtaoc::default_config();
        let mut rng = Xoshiro256pp::new(3);
        let rep = simulate_frame(&v, wcdma_math::db_to_lin(-15.0), 256, 24.0, 0.5, &mut rng);
        assert!(rep.outage_fraction > 0.5, "outage {}", rep.outage_fraction);
    }

    #[test]
    fn long_run_average_matches_analytic() {
        let v = Vtaoc::default_config();
        let mut rng = Xoshiro256pp::new(4);
        let eps = wcdma_math::db_to_lin(10.0);
        let mut total_bits = 0.0;
        let frames = 400;
        let slots = 128;
        for _ in 0..frames {
            // rho = 0 gives i.i.d. slots: the empirical mean must match the
            // analytic Rayleigh average.
            total_bits += simulate_frame(&v, eps, slots, 1.0, 0.0, &mut rng).bits_delivered;
        }
        let per_symbol = total_bits / (frames * slots) as f64;
        let analytic = v.avg_throughput(eps);
        assert!(
            (per_symbol - analytic).abs() / analytic < 0.03,
            "sim {per_symbol} vs analytic {analytic}"
        );
    }

    #[test]
    #[should_panic(expected = "slot")]
    fn rejects_zero_slots() {
        let v = Vtaoc::default_config();
        let mut rng = Xoshiro256pp::new(5);
        let _ = simulate_frame(&v, 1.0, 0, 24.0, 0.5, &mut rng);
    }
}
