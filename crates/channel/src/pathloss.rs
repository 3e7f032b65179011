//! Distance path loss.
//!
//! Standard cellular exponent model: `PL(d) = PL(d0) + 10·n·log10(d/d0)` dB,
//! with urban defaults matching the 3GPP macro-cell calibration
//! (128.1 dB @ 1 km, exponent ≈ 3.76–4.0). The paper's simulation follows
//! the Kumar–Nanda dynamic-simulation methodology which uses exactly this
//! family.

use wcdma_math::db::db_to_lin;

/// Log-distance path-loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLoss {
    /// Path-loss exponent `n`.
    exponent: f64,
    /// Loss in dB at the reference distance.
    ref_loss_db: f64,
    /// Reference distance in metres.
    ref_dist_m: f64,
    /// Close-in clamp: distances below this are treated as this distance,
    /// preventing unbounded gain when a mobile walks over the BS.
    min_dist_m: f64,
    /// Precomputed linear gain at the reference distance
    /// (`10^{-ref_loss_db/10}`), so the hot path avoids the dB round trip.
    ref_gain_lin: f64,
}

impl PathLoss {
    /// Creates a path-loss model.
    ///
    /// # Panics
    /// Panics on non-positive distances or exponent.
    pub fn new(exponent: f64, ref_loss_db: f64, ref_dist_m: f64, min_dist_m: f64) -> Self {
        assert!(exponent > 0.0, "exponent must be positive");
        assert!(
            ref_dist_m > 0.0 && min_dist_m > 0.0,
            "distances must be positive"
        );
        Self {
            exponent,
            ref_loss_db,
            ref_dist_m,
            min_dist_m,
            ref_gain_lin: db_to_lin(-ref_loss_db),
        }
    }

    /// Urban macro defaults: n = 4.0, 128.1 dB at 1 km, 10 m clamp.
    pub fn urban_default() -> Self {
        Self::new(4.0, 128.1, 1000.0, 10.0)
    }

    /// Path loss in dB at distance `d_m` metres.
    pub fn loss_db(&self, d_m: f64) -> f64 {
        let d = d_m.max(self.min_dist_m);
        self.ref_loss_db + 10.0 * self.exponent * (d / self.ref_dist_m).log10()
    }

    /// Linear power gain (`10^{-loss/10}`) at distance `d_m`, evaluated in
    /// closed form: `g(d) = g(d0) · (d0/d)^n` (algebraically identical to
    /// the dB expression, without the log/exp round trip). Integer
    /// exponents — including the urban default n = 4 — take a
    /// multiply-only fast path.
    pub fn gain(&self, d_m: f64) -> f64 {
        let d = d_m.max(self.min_dist_m);
        let ratio = self.ref_dist_m / d;
        let falloff = if self.exponent == 4.0 {
            let r2 = ratio * ratio;
            r2 * r2
        } else if self.exponent.fract() == 0.0 && self.exponent <= 8.0 {
            ratio.powi(self.exponent as i32)
        } else {
            ratio.powf(self.exponent)
        };
        self.ref_gain_lin * falloff
    }

    /// Path-loss exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Loss in dB at the reference distance.
    pub fn ref_loss_db(&self) -> f64 {
        self.ref_loss_db
    }

    /// Reference distance in metres.
    pub fn ref_dist_m(&self) -> f64 {
        self.ref_dist_m
    }

    /// Close-in clamp distance in metres.
    pub fn min_dist_m(&self) -> f64 {
        self.min_dist_m
    }

    /// A copy with the exponent shifted by `delta` (model-mismatch fault
    /// injection: the *true* channel's exponent differs from the assumed
    /// one). `delta = 0` returns an identical model.
    ///
    /// # Panics
    /// Panics if the shifted exponent is not positive.
    pub fn with_exponent_delta(&self, delta: f64) -> Self {
        Self::new(
            self.exponent + delta,
            self.ref_loss_db,
            self.ref_dist_m,
            self.min_dist_m,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_point() {
        let pl = PathLoss::urban_default();
        assert!((pl.loss_db(1000.0) - 128.1).abs() < 1e-12);
    }

    #[test]
    fn slope_is_exponent() {
        let pl = PathLoss::urban_default();
        // 10x distance => 10*n dB more loss.
        let d1 = pl.loss_db(100.0);
        let d2 = pl.loss_db(1000.0);
        assert!((d2 - d1 - 40.0).abs() < 1e-9);
    }

    #[test]
    fn monotone_decreasing_gain() {
        let pl = PathLoss::urban_default();
        let mut prev = f64::INFINITY;
        for d in [10.0, 50.0, 100.0, 500.0, 1000.0, 3000.0] {
            let g = pl.gain(d);
            assert!(g < prev, "gain not decreasing at {d}");
            assert!(g > 0.0);
            prev = g;
        }
    }

    #[test]
    fn close_in_clamp() {
        let pl = PathLoss::urban_default();
        assert_eq!(pl.gain(0.0), pl.gain(10.0));
        assert_eq!(pl.gain(5.0), pl.gain(10.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_exponent() {
        let _ = PathLoss::new(0.0, 128.0, 1000.0, 10.0);
    }
}
