//! Correlated log-normal shadowing — the long-term component `X_l` of eq. (1).
//!
//! The paper: "Long-term shadowing is caused by terrain configuration or
//! obstacles and is fluctuating ... on the order of one to two seconds."
//!
//! We implement the Gudmundson (1991) exponential-correlation model in the
//! spatial domain, driven by the distance the mobile moves:
//!
//! `S(x + Δ) = ρ·S(x) + sqrt(1-ρ²)·N(0, σ²)`, with `ρ = exp(-Δ/d_corr)`.
//!
//! For a stationary mobile the process still decorrelates slowly in time
//! (scatterer motion); a time-domain coherence floor `t_corr` handles that,
//! matching the paper's 1–2 s statement.

use wcdma_math::dist::DB_TO_NAT;
use wcdma_math::rng::Xoshiro256pp;

/// Substream tweak applied to a link's shadowing stream id. The network
/// seeds the [`ShadowState`] row of mobile-stream `stream` to cell `cell`
/// from `Xoshiro256pp::substream(seed, (stream·1021 + cell) ^
/// SHADOW_STREAM_XOR)` (wrapping arithmetic), so every link owns an
/// independent substream.
pub const SHADOW_STREAM_XOR: u64 = 0x5A5A;

/// Correlated log-normal shadowing process (dB-domain state).
#[derive(Debug, Clone)]
pub struct Shadowing {
    /// Shadowing standard deviation in dB.
    sigma_db: f64,
    /// Spatial decorrelation distance in metres.
    decorr_dist_m: f64,
    /// Temporal coherence for a stationary user, seconds.
    coherence_time_s: f64,
    /// Current shadowing value in dB.
    value_db: f64,
    rng: Xoshiro256pp,
    /// Cached second output of the polar Gaussian pair (NaN = empty) — the
    /// per-frame innovation then costs one `ln`/`sqrt` every *two* frames.
    spare_gauss: f64,
}

impl Shadowing {
    /// Creates a shadowing process with given σ (dB), decorrelation distance
    /// (m), stationary coherence time (s), and its own RNG substream.
    pub fn new(
        sigma_db: f64,
        decorr_dist_m: f64,
        coherence_time_s: f64,
        mut rng: Xoshiro256pp,
    ) -> Self {
        assert!(sigma_db >= 0.0, "sigma must be non-negative");
        assert!(
            decorr_dist_m > 0.0 && coherence_time_s > 0.0,
            "correlation scales must be positive"
        );
        // Draw the initial state from the stationary distribution.
        let value_db = sigma_db * wcdma_math::dist::Normal::standard_sample(&mut rng);
        Self {
            sigma_db,
            decorr_dist_m,
            coherence_time_s,
            value_db,
            rng,
            spare_gauss: f64::NAN,
        }
    }

    /// Urban defaults: σ = 8 dB, 20 m decorrelation, 1.5 s coherence
    /// (the paper's "one to two seconds").
    pub fn urban_default(seed: u64, stream: u64) -> Self {
        Self::new(8.0, 20.0, 1.5, Xoshiro256pp::substream(seed, stream))
    }

    /// Advances the process: the mobile moved `dist_m` metres over `dt`
    /// seconds.
    pub fn step(&mut self, dist_m: f64, dt: f64) {
        let rho = self.rho(dist_m, dt);
        self.step_with_rho(rho);
    }

    /// Effective one-step correlation for a displacement of `dist_m` metres
    /// over `dt` seconds: the weaker (smaller ρ) of spatial and temporal
    /// decorrelation applies. Hoist this out of per-link loops when many
    /// links share the same displacement and correlation parameters.
    pub fn rho(&self, dist_m: f64, dt: f64) -> f64 {
        debug_assert!(dist_m >= 0.0 && dt >= 0.0);
        // Both exponentials in one packed deterministic-exp call (canonical
        // order v2): same bits on every platform, and cheaper than two libm
        // `exp` calls in the per-mobile hot loop.
        let e = wcdma_math::simd::exp4([
            -dist_m / self.decorr_dist_m,
            -dt / self.coherence_time_s,
            0.0,
            0.0,
        ]);
        e[0].min(e[1])
    }

    /// Advances the process with a precomputed correlation `rho` (see
    /// [`Shadowing::rho`]). Identical update law to [`Shadowing::step`].
    pub fn step_with_rho(&mut self, rho: f64) {
        debug_assert!((0.0..=1.0).contains(&rho));
        let innov = if self.spare_gauss.is_nan() {
            let (a, b) = wcdma_math::dist::Normal::standard_pair(&mut self.rng);
            self.spare_gauss = b;
            a
        } else {
            let b = self.spare_gauss;
            self.spare_gauss = f64::NAN;
            b
        };
        self.value_db = rho * self.value_db + self.innovation_scale(rho) * innov;
    }

    /// Innovation scale `σ·sqrt(1−ρ²)` of the Gudmundson update — constant
    /// across all links of a mobile for a given displacement, so batched
    /// consumers hoist it out of per-link loops and hand it to
    /// [`ShadowState::step_with_rho`].
    #[inline]
    pub fn innovation_scale(&self, rho: f64) -> f64 {
        (1.0 - rho * rho).sqrt() * self.sigma_db
    }

    /// Current shadowing in dB.
    pub fn value_db(&self) -> f64 {
        self.value_db
    }

    /// Current linear power gain factor `10^{value_db/10}`.
    pub fn gain(&self) -> f64 {
        (self.value_db * DB_TO_NAT).exp()
    }

    /// Standard deviation in dB.
    pub fn sigma_db(&self) -> f64 {
        self.sigma_db
    }

    /// Spatial decorrelation distance in metres.
    pub fn decorrelation_distance_m(&self) -> f64 {
        self.decorr_dist_m
    }
}

/// The *hot* state of a shadowing process — value, spare Gaussian, RNG —
/// with the (usually shared) parameters factored out.
///
/// `Shadowing` carries its three parameters (σ, decorrelation distance,
/// coherence time) in every instance: 24 dead bytes per link when a
/// network holds hundreds of thousands of links with identical urban
/// parameters, all walked every frame. `ShadowState` is the 48-byte
/// struct-of-arrays-friendly alternative: parameters live once (e.g. in a
/// template `Shadowing` whose [`Shadowing::rho`] is hoisted per mobile)
/// and `σ` is passed into [`ShadowState::step_with_rho`].
///
/// Built from the same RNG substream, `ShadowState` reproduces a
/// `Shadowing` **bit for bit**: the stationary init draw and the update
/// law are the identical operation sequence.
#[derive(Debug, Clone)]
pub struct ShadowState {
    value_db: f64,
    /// Cached second output of the polar Gaussian pair (NaN = empty).
    spare_gauss: f64,
    rng: Xoshiro256pp,
}

impl ShadowState {
    /// Creates the state from the stationary distribution — the same
    /// initial draw as [`Shadowing::new`] with the same `rng`.
    pub fn stationary(sigma_db: f64, mut rng: Xoshiro256pp) -> Self {
        let value_db = sigma_db * wcdma_math::dist::Normal::standard_sample(&mut rng);
        Self {
            value_db,
            spare_gauss: f64::NAN,
            rng,
        }
    }

    /// Advances the process — the update law of
    /// [`Shadowing::step_with_rho`] with the innovation scale
    /// `σ·sqrt(1−ρ²)` precomputed by the caller (see
    /// [`Shadowing::innovation_scale`]). All links of a mobile share ρ and
    /// σ, so the square root is hoisted out of the per-link loop; the
    /// remaining `ρ·value + scale·innov` is the identical operation
    /// sequence, bit for bit.
    #[inline]
    pub fn step_with_rho(&mut self, rho: f64, innov_scale: f64) {
        debug_assert!((0.0..=1.0).contains(&rho));
        let innov = if self.spare_gauss.is_nan() {
            let (a, b) = wcdma_math::dist::Normal::standard_pair(&mut self.rng);
            self.spare_gauss = b;
            a
        } else {
            let b = self.spare_gauss;
            self.spare_gauss = f64::NAN;
            b
        };
        self.value_db = rho * self.value_db + innov_scale * innov;
    }

    /// Current shadowing in dB.
    #[inline]
    pub fn value_db(&self) -> f64 {
        self.value_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcdma_math::Welford;

    #[test]
    fn stationary_moments() {
        // Long-run mean 0 dB, std ≈ 8 dB when stepped far beyond coherence.
        let mut sh = Shadowing::urban_default(1, 0);
        let mut w = Welford::new();
        for _ in 0..60_000 {
            sh.step(40.0, 0.02); // 2 decorrelation distances per step
            w.push(sh.value_db());
        }
        assert!(w.mean().abs() < 0.2, "mean {} dB", w.mean());
        assert!((w.std_dev() - 8.0).abs() < 0.3, "std {} dB", w.std_dev());
    }

    #[test]
    fn correlation_decays_with_distance() {
        // lag-1 autocorrelation at Δ = d_corr should be ≈ e^{-1}.
        let mut sh = Shadowing::new(8.0, 20.0, 1e9, Xoshiro256pp::new(2));
        let n = 200_000;
        let mut prev = sh.value_db();
        let mut sum_xy = 0.0;
        let mut sum_xx = 0.0;
        for _ in 0..n {
            sh.step(20.0, 0.0);
            let cur = sh.value_db();
            sum_xy += prev * cur;
            sum_xx += prev * prev;
            prev = cur;
        }
        let rho = sum_xy / sum_xx;
        assert!(
            (rho - (-1.0f64).exp()).abs() < 0.02,
            "rho {rho} vs {}",
            (-1.0f64).exp()
        );
    }

    #[test]
    fn stationary_user_decorrelates_in_time() {
        // No movement: after >> coherence_time the correlation must be small.
        let mut sh = Shadowing::new(8.0, 20.0, 1.5, Xoshiro256pp::new(3));
        let v0 = sh.value_db();
        for _ in 0..1000 {
            sh.step(0.0, 0.1); // 100 s total
        }
        // Not a statistical test, just: the process moved.
        assert_ne!(v0, sh.value_db());
    }

    #[test]
    fn zero_step_preserves_value_approximately() {
        // dt=0, dist=0: rho=1, value unchanged.
        let mut sh = Shadowing::urban_default(4, 0);
        let v0 = sh.value_db();
        sh.step(0.0, 0.0);
        assert!((sh.value_db() - v0).abs() < 1e-12);
    }

    #[test]
    fn gain_matches_db_value() {
        let sh = Shadowing::urban_default(5, 0);
        let g = sh.gain();
        let expect = 10f64.powf(sh.value_db() / 10.0);
        assert!((g - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn shadow_state_matches_full_process_bit_for_bit() {
        // ShadowState with the same substream must reproduce Shadowing
        // exactly — init draw, spare-Gaussian caching, and update law —
        // including through a mix of rho values (odd/even draw parity).
        let seed = 0xFEED;
        let stream = 42 ^ SHADOW_STREAM_XOR;
        let mut full = Shadowing::new(8.0, 20.0, 1.5, Xoshiro256pp::substream(seed, stream));
        let mut hot = ShadowState::stationary(8.0, Xoshiro256pp::substream(seed, stream));
        assert_eq!(full.value_db().to_bits(), hot.value_db().to_bits());
        for i in 0..257 {
            let rho = full.rho(0.1 * (i % 7) as f64, 0.02);
            full.step_with_rho(rho);
            hot.step_with_rho(rho, full.innovation_scale(rho));
            assert_eq!(full.value_db().to_bits(), hot.value_db().to_bits());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = Shadowing::urban_default(6, 3);
        let mut b = Shadowing::urban_default(6, 3);
        for _ in 0..100 {
            a.step(5.0, 0.02);
            b.step(5.0, 0.02);
        }
        assert_eq!(a.value_db(), b.value_db());
    }
}
