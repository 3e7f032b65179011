//! A dense primal simplex solver for the LP relaxation of the scheduling
//! problem.
//!
//! Standard form handled: `maximize c'x  s.t.  A x ≤ b, 0 ≤ x ≤ u` — upper
//! bounds are expanded into explicit rows (the problems here have ≤ 19 cells
//! × ≤ 32 requests, so a dense tableau is perfectly adequate).
//!
//! Used for:
//! * the true LP-relaxation value, giving the **integrality gap** of the
//!   scheduling integer program (reported in experiment E7);
//! * an independent upper bound to cross-check the branch-and-bound pruning
//!   bounds in property tests.
//!
//! Every call builds a fresh tableau and pivots from the all-slack basis:
//! Dantzig's rule (most negative reduced cost), switching to Bland's rule
//! (lowest index) beyond a safety iteration count so degenerate data cannot
//! cycle. The scheduler never calls this module — JABA-SD's integer program
//! is solved by [`crate::BbWorkspace`].

/// Result of an LP solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LpSolution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Objective value.
    pub objective: f64,
}

/// The dense tableau of one solve: flat row-major `(m + 1) × w`, with
/// `m = k + n` constraint rows (`k` from `A`, `n` upper-bound rows) and
/// `w = n + m + 1` columns (variables, slacks, right-hand side). The last
/// row holds the negated objective.
struct Tableau {
    n: usize,
    m: usize,
    w: usize,
    t: Vec<f64>,
    basis: Vec<usize>,
    /// Copy of the pivot row during elimination.
    pivot_row: Vec<f64>,
}

impl Tableau {
    /// The all-slack starting tableau for `A x ≤ b`, `x ≤ u`, maximising
    /// `c'x` (`a` flat row-major, `b.len()` rows × `c.len()` columns).
    fn new(c: &[f64], a: &[f64], b: &[f64], u: &[f64]) -> Self {
        let (n, k) = (c.len(), b.len());
        let m = k + n;
        let w = n + m + 1;
        let mut t = vec![0.0; (m + 1) * w];
        for i in 0..k {
            t[i * w..i * w + n].copy_from_slice(&a[i * n..i * n + n]);
            t[i * w + n + i] = 1.0;
            t[i * w + w - 1] = b[i];
        }
        for j in 0..n {
            let r = k + j;
            t[r * w + j] = 1.0;
            t[r * w + n + k + j] = 1.0;
            t[r * w + w - 1] = u[j];
        }
        // Objective row: maximize c'x ⇒ store -c, drive to non-negative.
        for j in 0..n {
            t[m * w + j] = -c[j];
        }
        Self {
            n,
            m,
            w,
            t,
            basis: (n..n + m).collect(),
            pivot_row: Vec::with_capacity(w),
        }
    }

    /// Pivot on `(row, col)`: normalize the pivot row, eliminate the column
    /// from every other row (objective row included).
    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.w;
        let piv = self.t[row * w + col];
        for v in &mut self.t[row * w..(row + 1) * w] {
            *v /= piv;
        }
        self.pivot_row.clear();
        self.pivot_row
            .extend_from_slice(&self.t[row * w..(row + 1) * w]);
        for i in 0..=self.m {
            if i != row {
                let f = self.t[i * w + col];
                if f != 0.0 {
                    for (vi, pv) in self.t[i * w..(i + 1) * w].iter_mut().zip(&self.pivot_row) {
                        *vi -= f * pv;
                    }
                }
            }
        }
        self.basis[row] = col;
    }

    /// The classic pivot loop; returns `false` if the iteration limit trips.
    fn pivot_to_optimal(&mut self) -> bool {
        let (m, w) = (self.m, self.w);
        let max_iters = 200 * (m + self.n);
        for iter in 0..max_iters {
            // Entering column: most negative reduced cost (Dantzig),
            // switching to Bland's rule (lowest index) beyond a safety
            // iteration count.
            let bland = iter > 50 * (m + self.n);
            let mut enter: Option<usize> = None;
            let mut best = -1e-9;
            for j in 0..w - 1 {
                let rc = self.t[m * w + j];
                if rc < best {
                    if bland {
                        enter = Some(j);
                        break;
                    }
                    best = rc;
                    enter = Some(j);
                }
            }
            let Some(e) = enter else {
                return true; // Optimal.
            };
            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut min_ratio = f64::INFINITY;
            for i in 0..m {
                if self.t[i * w + e] > 1e-12 {
                    let ratio = self.t[i * w + w - 1] / self.t[i * w + e];
                    if ratio < min_ratio - 1e-12
                        || (bland
                            && (ratio - min_ratio).abs() <= 1e-12
                            && leave
                                .map(|l| self.basis[i] < self.basis[l])
                                .unwrap_or(false))
                    {
                        min_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            // Upper bounds are explicit rows, so the LP cannot be unbounded.
            let Some(l) = leave else {
                return false;
            };
            self.pivot(l, e);
        }
        false
    }

    /// Reads the primal solution off the tableau and recomputes the
    /// objective from `c`.
    fn solution(&self, c: &[f64]) -> LpSolution {
        let w = self.w;
        let mut x = vec![0.0; self.n];
        for (i, &bv) in self.basis.iter().enumerate() {
            if bv < self.n {
                x[bv] = self.t[i * w + w - 1];
            }
        }
        let objective = c.iter().zip(&x).map(|(&cj, &xj)| cj * xj).sum();
        LpSolution { x, objective }
    }
}

/// Maximises `c'x` subject to `A x ≤ b`, `0 ≤ x ≤ u`, where `a` is the flat
/// row-major constraint matrix (`b.len()` rows × `c.len()` columns).
///
/// Assumes `b ≥ 0` (true for admissible-region headrooms), so the all-slack
/// basis is feasible and no phase-1 is needed. Returns `None` only if the
/// iteration limit trips (cycling with degenerate data is prevented by
/// Bland's rule).
fn solve_flat(c: &[f64], a: &[f64], b: &[f64], u: &[f64]) -> Option<LpSolution> {
    assert_eq!(a.len(), b.len() * c.len(), "flat matrix size mismatch");
    assert_eq!(u.len(), c.len(), "bounds length mismatch");
    assert!(b.iter().all(|&x| x >= 0.0), "need non-negative rhs");
    assert!(
        u.iter().all(|&x| x >= 0.0 && x.is_finite()),
        "bad upper bound"
    );
    let mut tableau = Tableau::new(c, a, b, u);
    tableau.pivot_to_optimal().then(|| tableau.solution(c))
}

/// Maximises `c'x` subject to `A x ≤ b`, `0 ≤ x ≤ u`, with one `Vec` per
/// constraint row. Assumes `b ≥ 0`; returns `None` only if the iteration
/// limit trips.
pub fn simplex_max(c: &[f64], a: &[Vec<f64>], b: &[f64], u: &[f64]) -> Option<LpSolution> {
    let n = c.len();
    assert!(a.iter().all(|r| r.len() == n), "row width mismatch");
    assert_eq!(a.len(), b.len(), "row/rhs mismatch");
    solve_flat(c, &a.concat(), b, u)
}

/// LP relaxation of a scheduling [`crate::Problem`] (ignoring the
/// semi-continuous `lo` restriction — a valid upper bound on the IP).
pub fn lp_relaxation(p: &crate::Problem) -> Option<LpSolution> {
    // Negative weights never help a ≤/≥0 LP: clamp to zero (the IP rejects
    // such variables too).
    let c: Vec<f64> = p.c.iter().map(|&x| x.max(0.0)).collect();
    let u: Vec<f64> =
        p.hi.iter()
            .zip(&p.lo)
            .map(|(&h, &l)| if h >= l { h as f64 } else { 0.0 })
            .collect();
    solve_flat(&c, &p.a, &p.b, &u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use crate::solvers::{branch_and_bound, exhaustive};

    #[test]
    fn textbook_lp() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, bounds loose.
        let sol = simplex_max(
            &[3.0, 5.0],
            &[vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]],
            &[4.0, 12.0, 18.0],
            &[100.0, 100.0],
        )
        .expect("solvable");
        assert!((sol.objective - 36.0).abs() < 1e-9, "obj {}", sol.objective);
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!((sol.x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn upper_bounds_bind() {
        // max x, x ≤ 10 via row but u = 3: answer 3.
        let sol = simplex_max(&[1.0], &[vec![1.0]], &[10.0], &[3.0]).expect("solvable");
        assert!((sol.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_zero_solution() {
        let sol =
            simplex_max(&[5.0, 2.0], &[vec![1.0, 1.0]], &[0.0], &[4.0, 4.0]).expect("solvable");
        assert!(sol.objective.abs() < 1e-9);
    }

    #[test]
    fn relaxation_upper_bounds_ip() {
        let p = Problem::new(
            vec![1.0, 3.0, 2.0],
            vec![vec![1.0, 2.0, 1.5], vec![0.5, 1.0, 2.0]],
            vec![10.0, 8.0],
            vec![1, 1, 1],
            vec![4, 4, 4],
        );
        let lp = lp_relaxation(&p).expect("solvable");
        let ip = exhaustive(&p);
        assert!(
            lp.objective >= ip.objective - 1e-9,
            "LP {} must dominate IP {}",
            lp.objective,
            ip.objective
        );
        // Fractional solution within box bounds.
        assert!(lp.x.iter().all(|&x| (-1e-9..=4.0 + 1e-9).contains(&x)));
    }

    /// The LP value bounds the B&B optimum from above, and B&B matches the
    /// enumeration oracle — on random instances and on degenerate variants
    /// of each: tied weights, an extra all-zero row, every `hi < lo`, and
    /// all-zero right-hand sides.
    #[test]
    fn relaxation_dominates_bb_on_random_instances() {
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..30 {
            let n = 2 + (next() * 4.0) as usize;
            let k = 1 + (next() * 3.0) as usize;
            let c: Vec<f64> = (0..n).map(|_| (next() * 8.0).max(0.01)).collect();
            let a: Vec<Vec<f64>> = (0..k)
                .map(|_| (0..n).map(|_| next() * 2.0).collect())
                .collect();
            let b: Vec<f64> = (0..k).map(|_| 1.0 + next() * 10.0).collect();
            let lo = vec![1u32; n];
            let hi: Vec<u32> = (0..n).map(|_| 1 + (next() * 8.0) as u32).collect();

            let tied = vec![c[0]; n];
            let mut zero_row = a.clone();
            zero_row.push(vec![0.0; n]);
            let mut zero_row_b = b.clone();
            zero_row_b.push(next() * 2.0);
            let outage_lo: Vec<u32> = hi.iter().map(|&h| h + 1).collect();
            let variants = [
                (
                    "random",
                    Problem::new(c.clone(), a.clone(), b.clone(), lo.clone(), hi.clone()),
                ),
                (
                    "tied weights",
                    Problem::new(tied, a.clone(), b.clone(), lo.clone(), hi.clone()),
                ),
                (
                    "all-zero row",
                    Problem::new(c.clone(), zero_row, zero_row_b, lo.clone(), hi.clone()),
                ),
                (
                    "every hi < lo",
                    Problem::new(c.clone(), a.clone(), b.clone(), outage_lo, hi.clone()),
                ),
                (
                    "zero rhs",
                    Problem::new(c.clone(), a.clone(), vec![0.0; k], lo.clone(), hi.clone()),
                ),
            ];
            for (family, p) in &variants {
                let lp = lp_relaxation(p).expect("LP solvable");
                let (ip, complete) = branch_and_bound(p, 0);
                assert!(complete, "{family}: B&B must complete");
                assert!(
                    lp.objective >= ip.objective - 1e-6,
                    "{family}: LP {} < IP {}",
                    lp.objective,
                    ip.objective
                );
                let oracle = exhaustive(p);
                assert!(
                    (ip.objective - oracle.objective).abs() <= 1e-9,
                    "{family}: B&B {} != exhaustive {}",
                    ip.objective,
                    oracle.objective
                );
                assert!(p.is_feasible(&ip.m), "{family}: B&B answer infeasible");
            }
        }
    }

    #[test]
    fn degenerate_rows_no_cycle() {
        // Multiple identical rows with zero rhs: heavily degenerate.
        let sol = simplex_max(
            &[1.0, 1.0],
            &[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]],
            &[0.0, 0.0, 0.0],
            &[5.0, 5.0],
        )
        .expect("must terminate");
        assert!(sol.objective.abs() < 1e-9);
    }
}
