//! Tiny deterministic random-instance generator shared by the crate's
//! property tests (solver cross-checks, workspace-reuse bit-identity).

use crate::problem::Problem;

/// Deterministic LCG-driven batch of valid random [`Problem`]s. A simple LCG
/// avoids a dev-dependency cycle; the stream is fixed so failures reproduce.
pub fn rng_problems(count: usize, max_vars: usize, max_hi: u32) -> Vec<Problem> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    (0..count)
        .map(|_| {
            let n = 2 + (next() * (max_vars - 1) as f64) as usize;
            let k = 1 + (next() * 3.0) as usize;
            let c: Vec<f64> = (0..n).map(|_| (next() * 10.0).round() / 2.0).collect();
            let a: Vec<Vec<f64>> = (0..k)
                .map(|_| (0..n).map(|_| (next() * 4.0).round() / 2.0).collect())
                .collect();
            let b: Vec<f64> = (0..k).map(|_| 2.0 + (next() * 12.0).round()).collect();
            let lo: Vec<u32> = (0..n).map(|_| 1 + (next() * 2.0) as u32).collect();
            let hi: Vec<u32> = lo
                .iter()
                .map(|&l| l + (next() * max_hi as f64) as u32)
                .collect();
            Problem::new(c, a, b, lo, hi)
        })
        .collect()
}

/// Deterministic batch of larger multi-row [`Problem`]s: 8–13 variables
/// over 2–7 rows. Even instances have quantised coefficients (exact
/// objective ties); odd ones are continuous, each row on its own scale
/// from 1 down to 1e-11.
pub fn rng_multirow_problems(count: usize, seed: u64) -> Vec<Problem> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    (0..count)
        .map(|i| {
            let quantised = i % 2 == 0;
            let mut draw = |scale: f64| {
                let x = next() * scale;
                if quantised {
                    (x * 4.0).round() / 4.0
                } else {
                    x
                }
            };
            let n = 8 + (draw(1.0) * 5.99) as usize;
            let k = 2 + (draw(1.0) * 5.99) as usize;
            let c: Vec<f64> = (0..n).map(|_| draw(10.0)).collect();
            let mut a = Vec::with_capacity(k * n);
            let mut b = Vec::with_capacity(k);
            for _ in 0..k {
                let row_scale = if quantised {
                    1.0
                } else {
                    10f64.powi(-(draw(1.0) * 12.0) as i32)
                };
                let row: Vec<f64> = (0..n).map(|_| draw(3.0) * row_scale).collect();
                let fill: f64 = row.iter().sum::<f64>() * (1.0 + draw(6.0));
                a.extend_from_slice(&row);
                b.push(fill);
            }
            let lo: Vec<u32> = (0..n).map(|_| 1 + (draw(1.0) * 3.0) as u32).collect();
            let hi: Vec<u32> = lo.iter().map(|&l| l + (draw(1.0) * 12.0) as u32).collect();
            Problem::from_flat(c, a, b, lo, hi)
        })
        .collect()
}
