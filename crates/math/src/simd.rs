//! Deterministic 4-lane SIMD kernels for the per-frame hot path.
//!
//! Canonical-order version: [`CANONICAL_ORDER_VERSION`] (see
//! `docs/DETERMINISM.md` at the repository root for the full contract).
//!
//! # Why these kernels exist
//!
//! `Network::step` spends its time in three per-mobile passes over the
//! candidate cells: the long-term gain refresh (path loss × shadowing),
//! the pilot Ec/Io ratio pass, and the interference / total-received-power
//! accumulations. This module provides explicit 4-lane `f64x4`-style
//! kernels for those passes with a **lane-order-fixed** reduction so the
//! result is a pure function of the inputs — the same bits on every ISA
//! and thread count.
//!
//! # Any ISA, same bits
//!
//! [`F64x4`] is a plain `[f64; 4]`; LLVM packs its lane loops into the
//! target's vector instructions. Every lane runs the *same sequence of
//! IEEE-754 operations*: adds, multiplies, and divides are exactly
//! rounded, Rust never contracts them into fused multiply-adds, no
//! approximate reciprocal is used, and every horizontal fold runs in the
//! fixed order `(lane0 + lane1) + (lane2 + lane3)`. The results are
//! therefore the same bits whatever instructions the compiler picks (CI
//! reruns the golden tests under `-C target-cpu=x86-64-v3`). The
//! always-compiled [`scalar`] reference module writes the lanes out one
//! by one, so a single binary can check the claim:
//!
//! ```
//! use wcdma_math::simd;
//!
//! let a: Vec<f64> = (0..13).map(|i| 0.1 * i as f64 - 0.4).collect();
//! let b: Vec<f64> = (0..13).map(|i| 1.0 / (1.0 + i as f64)).collect();
//! // Lane kernels vs the one-lane-at-a-time reference: identical down to
//! // the last bit, including the non-multiple-of-4 tail.
//! assert_eq!(
//!     simd::dot(&a, &b).to_bits(),
//!     simd::scalar::dot(&a, &b).to_bits(),
//! );
//! let mut e_simd = vec![0.0; a.len()];
//! let mut e_ref = vec![0.0; a.len()];
//! simd::exp_into(&a, &mut e_simd);
//! simd::scalar::exp_into(&a, &mut e_ref);
//! assert!(e_simd.iter().zip(&e_ref).all(|(x, y)| x.to_bits() == y.to_bits()));
//! ```
//!
//! # Determinism contract
//!
//! Any change to the operation order of these kernels (lane count, fold
//! shape, polynomial, tail handling) changes simulation results and MUST
//! bump [`CANONICAL_ORDER_VERSION`] together with the matching section in
//! `docs/DETERMINISM.md`. CI enforces the pairing.

/// Version of the canonical summation order used by the frame pipeline.
///
/// * **v1** — scalar cell-order loops inside each 256-mobile chunk,
///   chunk-order fold across chunks (PR 5).
/// * **v2** — this module: 4-lane kernels with the
///   `(l0 + l1) + (l2 + l3)` horizontal fold, in-order scalar tails, the
///   deterministic polynomial [`exp_into`] for the shadowing dB → linear
///   conversion, and per-mobile candidate cell lists (chunk-order fold
///   across chunks unchanged).
pub const CANONICAL_ORDER_VERSION: u32 = 2;

/// Name of the kernel implementation, stamped into benchmark reports.
pub const BACKEND: &str = "portable";

/// Four `f64` lanes with exactly-rounded elementwise arithmetic: every
/// operation is an IEEE-754 per-lane add/sub/mul/div.
#[derive(Clone, Copy, Debug)]
pub struct F64x4([f64; 4]);

impl F64x4 {
    /// All four lanes set to `v`.
    #[inline]
    pub fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// Lanes from an array, lane `j` = `a[j]`.
    #[inline]
    pub fn from_array(a: [f64; 4]) -> Self {
        Self(a)
    }

    /// Lanes from the first four elements of a slice.
    ///
    /// # Panics
    /// If `s.len() < 4`.
    #[inline]
    pub fn from_slice(s: &[f64]) -> Self {
        Self([s[0], s[1], s[2], s[3]])
    }

    /// The lanes as an array.
    #[inline]
    pub fn to_array(self) -> [f64; 4] {
        self.0
    }

    /// Writes the lanes to the first four elements of `out`.
    ///
    /// # Panics
    /// If `out.len() < 4`.
    #[inline]
    pub fn write_to(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }

    /// Horizontal sum in the canonical fixed order
    /// `(lane0 + lane1) + (lane2 + lane3)`.
    ///
    /// This is *the* fold shape of canonical-order v2: every reduction in
    /// the frame pipeline that crosses lanes uses it, so the sum is
    /// independent of how the lanes were computed.
    #[inline]
    pub fn hsum_ordered(self) -> f64 {
        let a = self.0;
        (a[0] + a[1]) + (a[2] + a[3])
    }
}

impl core::ops::Add for F64x4 {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
    }
}
impl core::ops::Sub for F64x4 {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]])
    }
}
impl core::ops::Mul for F64x4 {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]])
    }
}
impl core::ops::Div for F64x4 {
    type Output = Self;
    #[inline]
    fn div(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([a[0] / b[0], a[1] / b[1], a[2] / b[2], a[3] / b[3]])
    }
}

/// Dot product `Σ a[i]·b[i]` in canonical v2 order.
///
/// Four independent lane accumulators march over the slices in steps of
/// four (lane `j` sums `a[4i+j]·b[4i+j]` in index order), the lanes fold
/// as `(l0 + l1) + (l2 + l3)`, and the remaining tail elements are added
/// one by one in index order. The result depends only on the inputs —
/// not on the ISA or thread count.
///
/// This is the kernel behind the total-received-power and interference
/// accumulations in `Network::step`.
///
/// # Panics
/// If the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operands must match");
    let n4 = a.len() / 4 * 4;
    let mut acc = F64x4::splat(0.0);
    let mut i = 0;
    while i < n4 {
        acc = acc + F64x4::from_slice(&a[i..]) * F64x4::from_slice(&b[i..]);
        i += 4;
    }
    let mut s = acc.hsum_ordered();
    for k in n4..a.len() {
        s += a[k] * b[k];
    }
    s
}

/// Elementwise scale `out[i] = src[i] · s`.
///
/// Purely elementwise (no reduction), so the canonical-order guarantee is
/// simply that each product is the exactly-rounded scalar product. Kernel
/// behind the pilot received-power pass (`pilot_rx = P_pilot · gain`).
///
/// # Panics
/// If the slices have different lengths.
#[inline]
pub fn scale_into(src: &[f64], s: f64, out: &mut [f64]) {
    assert_eq!(src.len(), out.len(), "scale operands must match");
    let n4 = src.len() / 4 * 4;
    let sv = F64x4::splat(s);
    let mut i = 0;
    while i < n4 {
        (F64x4::from_slice(&src[i..]) * sv).write_to(&mut out[i..]);
        i += 4;
    }
    for k in n4..src.len() {
        out[k] = src[k] * s;
    }
}

/// Elementwise ratio `out[i] = src[i] / denom`.
///
/// A true per-lane division (IEEE exactly rounded), *not* a
/// multiply-by-reciprocal, so it matches the scalar `/` bit for bit.
/// Kernel behind the pilot Ec/Io ratio pass
/// (`ec_io = pilot_rx / I_total`).
///
/// # Panics
/// If the slices have different lengths.
#[inline]
pub fn ratio_into(src: &[f64], denom: f64, out: &mut [f64]) {
    assert_eq!(src.len(), out.len(), "ratio operands must match");
    let n4 = src.len() / 4 * 4;
    let dv = F64x4::splat(denom);
    let mut i = 0;
    while i < n4 {
        (F64x4::from_slice(&src[i..]) / dv).write_to(&mut out[i..]);
        i += 4;
    }
    for k in n4..src.len() {
        out[k] = src[k] / denom;
    }
}

// Deterministic exp: Cephes-style rational approximation. |relative
// error| ≲ 2 ulp on the reduced interval, and — unlike libm `exp`, whose
// bit patterns vary across platforms and libm versions — a fixed DAG of
// exactly-rounded IEEE operations, so every platform agrees bit for bit.
const EXP_HI: f64 = 708.0;
const EXP_LO: f64 = -708.0;
const LOG2E: f64 = core::f64::consts::LOG2_E;
// ln 2 split into a high part exact in ~26 bits plus a low correction, so
// `x - n·C1 - n·C2` loses no precision for |n| < 2^26. The coefficients
// keep Cephes' published digits (beyond f64 precision) so they can be
// checked against the source tables.
#[allow(clippy::excessive_precision)]
const LN2_HI: f64 = 6.931_457_519_531_25e-1;
#[allow(clippy::excessive_precision)]
const LN2_LO: f64 = 1.428_606_820_309_417_232_1e-6;
#[allow(clippy::excessive_precision)]
const P0: f64 = 1.261_771_930_748_105_908_8e-4;
#[allow(clippy::excessive_precision)]
const P1: f64 = 3.029_944_077_074_419_613e-2;
#[allow(clippy::excessive_precision)]
const P2: f64 = 9.999_999_999_999_999_999e-1;
#[allow(clippy::excessive_precision)]
const Q0: f64 = 3.001_985_051_386_644_550_4e-6;
#[allow(clippy::excessive_precision)]
const Q1: f64 = 2.524_483_403_496_841_041_9e-3;
#[allow(clippy::excessive_precision)]
const Q2: f64 = 2.272_655_482_081_550_287_7e-1;
const Q3: f64 = 2.0;

/// Exact scale by 2ⁿ for integral `n` in the normal-exponent range.
#[inline]
fn pow2i(n: f64) -> f64 {
    f64::from_bits(((n as i64 + 1023) as u64) << 52)
}

/// Deterministic `eˣ` over four lanes (canonical v2 operation order).
///
/// Argument reduction (`n = ⌊x·log₂e + ½⌋`, two-part ln 2 subtraction)
/// runs per lane in scalar; the rational polynomial runs packed; the 2ⁿ
/// scaling is an exact exponent-field construction. Inputs are clamped to
/// `±708` (beyond which exp over/underflows), which covers every
/// shadowing excursion by orders of magnitude.
#[inline]
pub fn exp4(x: [f64; 4]) -> [f64; 4] {
    let mut n = [0.0; 4];
    let mut xc = [0.0; 4];
    for j in 0..4 {
        xc[j] = x[j].clamp(EXP_LO, EXP_HI);
        n[j] = (xc[j] * LOG2E + 0.5).floor();
    }
    let xv = F64x4::from_array(xc);
    let nv = F64x4::from_array(n);
    let r = xv - nv * F64x4::splat(LN2_HI) - nv * F64x4::splat(LN2_LO);
    let r2 = r * r;
    let px = r * ((F64x4::splat(P0) * r2 + F64x4::splat(P1)) * r2 + F64x4::splat(P2));
    let qx = ((F64x4::splat(Q0) * r2 + F64x4::splat(Q1)) * r2 + F64x4::splat(Q2)) * r2
        + F64x4::splat(Q3);
    let e = F64x4::splat(1.0) + F64x4::splat(2.0) * (px / (qx - px));
    let ea = e.to_array();
    let mut out = [0.0; 4];
    for j in 0..4 {
        out[j] = ea[j] * pow2i(n[j]);
    }
    out
}

/// Deterministic `eˣ` over a slice: packed [`exp4`] over groups of four,
/// then the scalar reference for the tail (same operation DAG, so the
/// tail is bit-identical to a lane).
///
/// Kernel behind the shadowing dB → linear conversion in the long-term
/// gain refresh. Replaces libm `exp`, whose results may differ between
/// platforms; see the module docs for the accuracy bound.
///
/// # Panics
/// If the slices have different lengths.
#[inline]
pub fn exp_into(x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "exp operands must match");
    let n4 = x.len() / 4 * 4;
    let mut i = 0;
    while i < n4 {
        out[i..i + 4].copy_from_slice(&exp4([x[i], x[i + 1], x[i + 2], x[i + 3]]));
        i += 4;
    }
    for k in n4..x.len() {
        out[k] = scalar::exp1(x[k]);
    }
}

pub mod scalar {
    //! Always-compiled one-lane-at-a-time reference implementations.
    //!
    //! These write the kernels' per-lane operation DAG out in plain scalar
    //! Rust, so `simd::f(x) == simd::scalar::f(x)` bit for bit on every
    //! target — the property the kernel tests pin.

    use super::{EXP_HI, EXP_LO, LN2_HI, LN2_LO, LOG2E, P0, P1, P2, Q0, Q1, Q2, Q3};

    /// Scalar reference for [`dot`](super::dot): the same four lane
    /// accumulators, `(l0 + l1) + (l2 + l3)` fold, and in-order tail.
    #[inline]
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot operands must match");
        let n4 = a.len() / 4 * 4;
        let mut l = [0.0f64; 4];
        let mut i = 0;
        while i < n4 {
            for (j, lane) in l.iter_mut().enumerate() {
                *lane += a[i + j] * b[i + j];
            }
            i += 4;
        }
        let mut s = (l[0] + l[1]) + (l[2] + l[3]);
        for k in n4..a.len() {
            s += a[k] * b[k];
        }
        s
    }

    /// Scalar reference for [`scale_into`](super::scale_into).
    #[inline]
    pub fn scale_into(src: &[f64], s: f64, out: &mut [f64]) {
        assert_eq!(src.len(), out.len(), "scale operands must match");
        for (o, &v) in out.iter_mut().zip(src.iter()) {
            *o = v * s;
        }
    }

    /// Scalar reference for [`ratio_into`](super::ratio_into).
    #[inline]
    pub fn ratio_into(src: &[f64], denom: f64, out: &mut [f64]) {
        assert_eq!(src.len(), out.len(), "ratio operands must match");
        for (o, &v) in out.iter_mut().zip(src.iter()) {
            *o = v / denom;
        }
    }

    /// Scalar deterministic `eˣ`: the per-lane DAG of
    /// [`exp4`](super::exp4) written out in scalar form.
    #[inline]
    pub fn exp1(x: f64) -> f64 {
        let x = x.clamp(EXP_LO, EXP_HI);
        let n = (x * LOG2E + 0.5).floor();
        let r = x - n * LN2_HI - n * LN2_LO;
        let r2 = r * r;
        let px = r * ((P0 * r2 + P1) * r2 + P2);
        let qx = ((Q0 * r2 + Q1) * r2 + Q2) * r2 + Q3;
        let e = 1.0 + 2.0 * (px / (qx - px));
        e * super::pow2i(n)
    }

    /// Scalar reference for [`exp_into`](super::exp_into).
    #[inline]
    pub fn exp_into(x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), out.len(), "exp operands must match");
        for (o, &v) in out.iter_mut().zip(x.iter()) {
            *o = exp1(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256pp;

    fn random_vec(rng: &mut Xoshiro256pp, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| rng.uniform(lo, hi)).collect()
    }

    #[test]
    fn dot_matches_scalar_reference_across_chunk_boundaries() {
        let mut rng = Xoshiro256pp::new(0x51D);
        for n in 0..=70 {
            let a = random_vec(&mut rng, n, -1e3, 1e3);
            let b = random_vec(&mut rng, n, -1e-3, 1e-3);
            assert_eq!(
                dot(&a, &b).to_bits(),
                scalar::dot(&a, &b).to_bits(),
                "dot drifted from the scalar reference at n = {n}"
            );
        }
    }

    #[test]
    fn dot_lane_fold_is_the_documented_order() {
        // 8 elements: lanes l_j = a[j]b[j] + a[j+4]b[j+4], folded
        // (l0+l1)+(l2+l3). Pin the shape against a hand computation.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let b = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        let l = [
            a[0] * b[0] + a[4] * b[4],
            a[1] * b[1] + a[5] * b[5],
            a[2] * b[2] + a[6] * b[6],
            a[3] * b[3] + a[7] * b[7],
        ];
        let expect = (l[0] + l[1]) + (l[2] + l[3]);
        assert_eq!(dot(&a, &b).to_bits(), expect.to_bits());
    }

    #[test]
    fn scale_and_ratio_match_scalar_reference() {
        let mut rng = Xoshiro256pp::new(0xCA1E);
        for n in 0..=37 {
            let src = random_vec(&mut rng, n, -1e6, 1e6);
            let s = rng.uniform(0.1, 10.0);
            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            scale_into(&src, s, &mut a);
            scalar::scale_into(&src, s, &mut b);
            assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
            ratio_into(&src, s, &mut a);
            scalar::ratio_into(&src, s, &mut b);
            assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn exp_matches_scalar_reference_bitwise() {
        let mut rng = Xoshiro256pp::new(0xE4B);
        for n in 0..=33 {
            let x = random_vec(&mut rng, n, -45.0, 45.0);
            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            exp_into(&x, &mut a);
            scalar::exp_into(&x, &mut b);
            assert!(
                a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()),
                "exp drifted from the scalar reference at n = {n}"
            );
        }
    }

    #[test]
    fn exp_is_accurate_against_libm() {
        // The shadowing hot path feeds |x| ≲ 10 (±43 dB in natural-log
        // units); test a much wider range. 1e-14 relative ≈ 45 ulp slack,
        // actual error is ~2 ulp.
        let mut rng = Xoshiro256pp::new(0xACC);
        for _ in 0..20_000 {
            let x = rng.uniform(-200.0, 200.0);
            let got = scalar::exp1(x);
            let want = x.exp();
            assert!(
                (got - want).abs() <= 1e-14 * want,
                "exp1({x}) = {got}, libm = {want}"
            );
        }
        assert_eq!(scalar::exp1(0.0).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn exp_extremes_saturate_without_nan() {
        let out = exp4([-1e9, 1e9, -708.0, 0.0]);
        assert!(out[0] >= 0.0, "underflow is clean");
        assert!(out[1].is_finite(), "clamped before overflow");
        assert!(out[2] > 0.0 && out[2].is_finite());
        assert_eq!(out[3].to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn hsum_order_is_fixed() {
        let v = F64x4::from_array([1e16, 1.0, -1e16, 1.0]);
        // (1e16 + 1) + (-1e16 + 1) — NOT ((1e16 + 1) - 1e16) + 1.
        let expect = (1e16f64 + 1.0) + (-1e16f64 + 1.0);
        assert_eq!(v.hsum_ordered().to_bits(), expect.to_bits());
    }

    #[test]
    fn lane_arithmetic_is_elementwise_ieee() {
        let a = F64x4::from_array([1.5, -2.25, 3.0, 0.1]);
        let b = F64x4::from_array([0.3, 7.0, -1.5, 0.7]);
        let sum = (a + b).to_array();
        let prod = (a * b).to_array();
        let quot = (a / b).to_array();
        let diff = (a - b).to_array();
        let (aa, bb) = (a.to_array(), b.to_array());
        for j in 0..4 {
            assert_eq!(sum[j].to_bits(), (aa[j] + bb[j]).to_bits());
            assert_eq!(prod[j].to_bits(), (aa[j] * bb[j]).to_bits());
            assert_eq!(quot[j].to_bits(), (aa[j] / bb[j]).to_bits());
            assert_eq!(diff[j].to_bits(), (aa[j] - bb[j]).to_bits());
        }
    }

    #[test]
    fn backend_is_reported() {
        assert_eq!(BACKEND, "portable");
    }
}
