//! Random-variate distributions used by the channel, traffic, and mobility
//! models.
//!
//! All samplers draw from [`Xoshiro256pp`] so that every stochastic process
//! in the simulator is reproducible from its seed. The set is deliberately
//! small — exactly what the paper's simulation methodology needs:
//!
//! * [`Exponential`] — voice on/off holding times, web reading times,
//!   Poisson inter-arrivals.
//! * [`Pareto`] — heavy-tailed web burst (file) sizes.
//! * [`Normal`] — shadowing in dB.

use crate::rng::Xoshiro256pp;

/// A distribution from which `f64` variates can be drawn.
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64;

    /// Theoretical mean, if finite.
    fn mean(&self) -> f64;
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Panics
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "Exponential rate must be positive, got {lambda}"
        );
        Self { lambda }
    }

    /// Creates an exponential distribution with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "Exponential mean must be positive, got {mean}"
        );
        Self::new(1.0 / mean)
    }

    /// The rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.lambda
    }
}

impl Distribution for Exponential {
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        -rng.next_f64_open().ln() / self.lambda
    }

    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

/// Pareto (type I) distribution with shape `alpha` and scale `xm > 0`.
///
/// Heavy-tailed; mean is finite only for `alpha > 1`. Used for web-traffic
/// burst sizes, the standard model in the dynamic-simulation literature the
/// paper builds on (Kumar & Nanda).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    alpha: f64,
    xm: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with shape `alpha` and scale (minimum
    /// value) `xm`.
    ///
    /// # Panics
    /// Panics if parameters are not strictly positive and finite.
    pub fn new(alpha: f64, xm: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "Pareto shape must be positive, got {alpha}"
        );
        assert!(
            xm.is_finite() && xm > 0.0,
            "Pareto scale must be positive, got {xm}"
        );
        Self { alpha, xm }
    }

    /// Creates a Pareto with shape `alpha > 1` chosen to hit a target mean.
    pub fn with_mean(alpha: f64, mean: f64) -> Self {
        assert!(alpha > 1.0, "mean only finite for alpha > 1, got {alpha}");
        let xm = mean * (alpha - 1.0) / alpha;
        Self::new(alpha, xm)
    }

    /// Shape parameter α.
    pub fn shape(&self) -> f64 {
        self.alpha
    }

    /// Scale (minimum) parameter.
    pub fn scale(&self) -> f64 {
        self.xm
    }
}

impl Distribution for Pareto {
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.xm / rng.next_f64_open().powf(1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        if self.alpha > 1.0 {
            self.alpha * self.xm / (self.alpha - 1.0)
        } else {
            f64::INFINITY
        }
    }
}

/// Normal (Gaussian) distribution via the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard deviation
    /// `sigma >= 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "Normal sigma must be non-negative, got {sigma}"
        );
        assert!(mu.is_finite(), "Normal mu must be finite");
        Self { mu, sigma }
    }

    /// Draws a standard-normal variate.
    #[inline]
    pub fn standard_sample(rng: &mut Xoshiro256pp) -> f64 {
        Self::standard_pair(rng).0
    }

    /// Draws a pair of independent standard-normal variates from one polar
    /// transform — the Marsaglia polar method produces two for the price of
    /// one `ln`/`sqrt`; hot loops should cache the second.
    #[inline]
    pub fn standard_pair(rng: &mut Xoshiro256pp) -> (f64, f64) {
        // Marsaglia polar method; rejection loop accepts with prob π/4.
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let r = (-2.0 * s.ln() / s).sqrt();
                return (u * r, v * r);
            }
        }
    }
}

impl Distribution for Normal {
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.mu + self.sigma * Self::standard_sample(rng)
    }

    fn mean(&self) -> f64 {
        self.mu
    }
}

/// `ln(10)/10`, converts dB to natural-log (neper-ish) scale.
pub const DB_TO_NAT: f64 = core::f64::consts::LN_10 / 10.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::new(0xC0FFEE)
    }

    fn sample_mean<D: Distribution>(d: &D, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let d = Exponential::with_mean(2.5);
        assert!((d.mean() - 2.5).abs() < 1e-12);
        let m = sample_mean(&d, 200_000);
        assert!((m - 2.5).abs() < 0.05, "sample mean {m}");
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn pareto_mean_matches_target() {
        let d = Pareto::with_mean(1.7, 12_000.0);
        assert!((d.mean() - 12_000.0).abs() < 1e-6);
        // alpha=1.7 has infinite variance: use a generous tolerance and many
        // samples; the median check is tighter.
        let m = sample_mean(&d, 2_000_000);
        assert!(
            (m - 12_000.0).abs() / 12_000.0 < 0.25,
            "sample mean {m} (heavy tail)"
        );
    }

    #[test]
    fn pareto_min_is_scale() {
        let d = Pareto::new(2.0, 5.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 5.0);
        }
    }

    #[test]
    fn pareto_median_known() {
        // Median of Pareto(alpha, xm) is xm * 2^(1/alpha).
        let d = Pareto::new(1.7, 1.0);
        let mut r = rng();
        let mut xs: Vec<f64> = (0..100_001).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[50_000];
        let expect = 2f64.powf(1.0 / 1.7);
        assert!(
            (med - expect).abs() / expect < 0.02,
            "median {med} vs {expect}"
        );
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(3.0, 2.0);
        let mut r = rng();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }
}
