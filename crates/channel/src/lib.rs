//! `wcdma-channel`: the wireless channel model of the paper's Section 2.1.
//!
//! The link gain between a mobile and a base station is the product of
//! (eq. 1): `X(t) = X_l(t) · X_s(t)` where
//!
//! * `X_l` — *long-term* component: distance path loss × correlated
//!   log-normal shadowing, coherence on the order of one to two seconds;
//! * `X_s` — *short-term* Rayleigh fast fading from multipath superposition,
//!   coherence on the order of a few milliseconds.
//!
//! Two fast-fading generators are provided: a Jakes/Clarke sum-of-sinusoids
//! model (spectrally faithful) and a Gauss–Markov AR(1) complex process
//! (cheap, used by the large sweeps). Both produce unit-mean power so the
//! long-term component carries the absolute scale.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod csi;
pub mod fading;
pub mod nakagami;
pub mod pathloss;
pub mod shadowing;

pub use csi::CsiEstimator;
pub use fading::{ArFading, FastFading, JakesFading};
pub use nakagami::NakagamiFading;
pub use pathloss::PathLoss;
pub use shadowing::{ShadowState, Shadowing};

use wcdma_math::rng::Xoshiro256pp;

/// Complete per-link channel: path loss × shadowing × fast fading.
///
/// `gain()` returns the instantaneous *linear power gain* (≤ 1 in any sane
/// configuration); `long_term_gain()` excludes fast fading — this is the
/// "local mean" the burst admission layer and the power control loops see.
#[derive(Debug, Clone)]
pub struct ChannelLink {
    pathloss: PathLoss,
    shadowing: Shadowing,
    fading: ArFading,
}

impl ChannelLink {
    /// Creates a link with the given component models.
    pub fn new(pathloss: PathLoss, shadowing: Shadowing, fading: ArFading) -> Self {
        Self {
            pathloss,
            shadowing,
            fading,
        }
    }

    /// Creates a link with default urban parameters and a per-link RNG
    /// substream derived from `seed`/`stream`.
    pub fn with_defaults(seed: u64, stream: u64, doppler_hz: f64, sample_dt: f64) -> Self {
        let rng = Xoshiro256pp::substream(seed, stream);
        Self {
            pathloss: PathLoss::urban_default(),
            shadowing: Shadowing::urban_default(seed, stream ^ shadowing::SHADOW_STREAM_XOR),
            fading: ArFading::new(rng, doppler_hz, sample_dt),
        }
    }

    /// Advances the time-varying components by `dt` seconds for a mobile that
    /// moved `dist_m` metres, then returns the instantaneous power gain for a
    /// transmitter–receiver separation of `d_m` metres.
    pub fn step(&mut self, d_m: f64, dist_moved_m: f64, dt: f64) -> f64 {
        self.advance(dist_moved_m, dt);
        self.gain(d_m)
    }

    /// Advances the time-varying components without computing a gain.
    pub fn advance(&mut self, dist_moved_m: f64, dt: f64) {
        self.shadowing.step(dist_moved_m, dt);
        self.fading.step(dt);
    }

    /// Shadowing correlation for this link at the given displacement — for
    /// hoisting out of per-link loops (all legs of a mobile move together
    /// and share correlation parameters).
    pub fn shadow_rho(&self, dist_moved_m: f64, dt: f64) -> f64 {
        self.shadowing.rho(dist_moved_m, dt)
    }

    /// Advances only the long-term (shadowing) component, with a
    /// precomputed correlation from [`ChannelLink::shadow_rho`].
    ///
    /// Large-population consumers that need local-mean gains exclusively
    /// (fast fading handled analytically) should prefer [`ShadowState`]
    /// rows plus a shared [`PathLoss`]/[`Shadowing`] template over full
    /// links — same bits, a third of the memory traffic. Each fading
    /// process owns its own RNG substream, so skipping (or never
    /// constructing) it leaves every other stream bit-identical.
    pub fn advance_long_term_with_rho(&mut self, shadow_rho: f64) {
        self.shadowing.step_with_rho(shadow_rho);
    }

    /// Instantaneous power gain at distance `d_m` (no state advance).
    pub fn gain(&self, d_m: f64) -> f64 {
        self.long_term_gain(d_m) * self.fading.power()
    }

    /// Long-term ("local mean") power gain: path loss × shadowing.
    pub fn long_term_gain(&self, d_m: f64) -> f64 {
        self.pathloss.gain(d_m) * self.shadowing.gain()
    }

    /// Current shadowing excursion in dB.
    ///
    /// Exposed for batched hot paths that gather the dB values of many
    /// links and convert them to linear gains in one 4-lane
    /// `wcdma_math::simd::exp_into` pass (`gain = exp(value_db ·
    /// DB_TO_NAT)`) instead of calling the per-link libm-backed
    /// [`ChannelLink::long_term_gain`]. (`Network::step` does this over
    /// [`ShadowState`] rows.)
    pub fn shadow_value_db(&self) -> f64 {
        self.shadowing.value_db()
    }

    /// Instantaneous fast-fading power (unit mean).
    pub fn fading_power(&self) -> f64 {
        self.fading.power()
    }

    /// Access to the path-loss model.
    pub fn pathloss(&self) -> &PathLoss {
        &self.pathloss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_gain_is_product_of_components() {
        let mut link = ChannelLink::with_defaults(7, 1, 10.0, 0.02);
        let d = 500.0;
        let g = link.step(d, 0.5, 0.02);
        let lt = link.long_term_gain(d);
        let ff = link.fading_power();
        assert!((g - lt * ff).abs() / g < 1e-12);
        assert!(g > 0.0 && g < 1.0);
    }

    #[test]
    fn long_term_gain_decreases_with_distance_on_average() {
        // Average over many shadowing realisations: gain at 2 km must be well
        // below gain at 200 m.
        let mut near = 0.0;
        let mut far = 0.0;
        for s in 0..200 {
            let link = ChannelLink::with_defaults(s, 0, 10.0, 0.02);
            near += link.long_term_gain(200.0);
            far += link.long_term_gain(2000.0);
        }
        assert!(near / far > 100.0, "near/far {}", near / far);
    }
}
