//! A dense primal simplex solver for the LP relaxation of the scheduling
//! problem.
//!
//! Standard form handled: `maximize c'x  s.t.  A x ≤ b, 0 ≤ x ≤ u`. The
//! bounds `0 ≤ x ≤ u` are kept implicitly (a non-basic variable sits at
//! either bound, and reaching the other one is a bound flip, not a pivot),
//! so the dense tableau has one row per constraint of `A` only: the
//! problems here have ≤ 19 cells × ≤ 40 requests.
//!
//! Used for:
//! * the LP bounds of JABA-SD's branch and bound ([`crate::BbWorkspace`]):
//!   the row duals of each round's root LP and of the node LPs, through the
//!   crate-private `DualLp`, which keeps one tableau alive between solves so
//!   a warm scheduling round allocates nothing;
//! * the true LP-relaxation value, giving the **integrality gap** of the
//!   scheduling integer program (reported in experiment E7);
//! * an independent upper bound to cross-check the branch-and-bound pruning
//!   bounds in property tests.
//!
//! Every solve pivots from the all-slack basis: Dantzig's rule (largest
//! gain per unit), switching to Bland's rule (lowest index) beyond a
//! safety iteration count so degenerate data cannot cycle. The pivot
//! tolerances are absolute (`1e-9`, `1e-12`), so each constraint row and the
//! objective are first divided by their largest entry: the scheduler's rows
//! range from about 1e1 down to 1e-13.

use crate::problem::Problem;

/// Result of an LP solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LpSolution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Objective value.
    pub objective: f64,
}

/// The dense tableau of one bounded-variable solve: `k` constraint rows of
/// `B⁻¹ [A I]` over `w = n + k` columns (variables, then slacks), flat
/// row-major, with the objective row `z_j = π'A_j − c_j` and the value of
/// each row's basic variable kept beside it. A non-basic column sits at 0
/// or, for a variable, at its upper bound `u_j`: bounds are never rows.
/// Its buffers are reused by the next [`load`](Self::load), so a warm
/// tableau solves without allocating.
#[derive(Debug, Clone, Default)]
struct Tableau {
    n: usize,
    k: usize,
    t: Vec<f64>,
    z: Vec<f64>,
    /// Value of each row's basic variable.
    beta: Vec<f64>,
    /// Column basic in each row.
    basis: Vec<usize>,
    /// Upper bound of every column (`∞` for the slacks).
    upper: Vec<f64>,
    /// Whether each non-basic column sits at its upper bound.
    at_upper: Vec<bool>,
    /// Copy of the pivot row during elimination.
    pivot_row: Vec<f64>,
    /// Factor each constraint row of `A` was multiplied by.
    row_scale: Vec<f64>,
    /// Factor the objective was multiplied by.
    obj_scale: f64,
}

impl Tableau {
    /// Loads the all-slack starting tableau for `A x ≤ b`, `0 ≤ x ≤ u`,
    /// maximising `c'x` (`a` flat row-major, `b.len()` rows × `c.len()`
    /// columns).
    ///
    /// Each row of `A` is divided by its largest entry and the objective by
    /// its largest magnitude, so the absolute pivot tolerances below mean
    /// the same on every row: the scheduler's rows range from about 1e1
    /// down to 1e-13. The primal solution is unchanged by this scaling;
    /// [`dual`](Self::dual) undoes it.
    fn load(&mut self, c: &[f64], a: &[f64], b: &[f64], u: &[f64]) {
        let (n, k) = (c.len(), b.len());
        let w = n + k;
        self.n = n;
        self.k = k;
        self.t.clear();
        self.t.resize(k * w, 0.0);
        self.row_scale.clear();
        self.beta.clear();
        for i in 0..k {
            let row = &a[i * n..i * n + n];
            let largest = row.iter().fold(0.0f64, |acc, &x| acc.max(x.abs()));
            let scale = if largest > 0.0 { 1.0 / largest } else { 1.0 };
            self.row_scale.push(scale);
            for (tv, &av) in self.t[i * w..i * w + n].iter_mut().zip(row) {
                *tv = av * scale;
            }
            self.t[i * w + n + i] = 1.0;
            self.beta.push(b[i] * scale);
        }
        let largest = c.iter().fold(0.0f64, |acc, &x| acc.max(x.abs()));
        self.obj_scale = if largest > 0.0 { 1.0 / largest } else { 1.0 };
        self.z.clear();
        self.z.extend(c.iter().map(|&cj| -cj * self.obj_scale));
        self.z.resize(w, 0.0);
        self.basis.clear();
        self.basis.extend(n..w);
        self.upper.clear();
        self.upper.extend_from_slice(u);
        self.upper.resize(w, f64::INFINITY);
        self.at_upper.clear();
        self.at_upper.resize(w, false);
    }

    /// Pivot on `(row, col)`: normalize the pivot row, eliminate the column
    /// from every other row and from the objective row.
    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.n + self.k;
        let piv = self.t[row * w + col];
        for v in &mut self.t[row * w..(row + 1) * w] {
            *v /= piv;
        }
        self.pivot_row.clear();
        self.pivot_row
            .extend_from_slice(&self.t[row * w..(row + 1) * w]);
        let others = self
            .t
            .chunks_exact_mut(w)
            .enumerate()
            .filter(|&(i, _)| i != row)
            .map(|(_, r)| r)
            .chain(std::iter::once(&mut self.z[..]));
        for r in others {
            let f = r[col];
            if f != 0.0 {
                for (vi, pv) in r.iter_mut().zip(&self.pivot_row) {
                    *vi -= f * pv;
                }
            }
        }
        self.basis[row] = col;
    }

    /// The bounded-variable pivot loop; returns `false` if the iteration
    /// limit trips.
    fn pivot_to_optimal(&mut self) -> bool {
        let (n, k) = (self.n, self.k);
        let w = n + k;
        let max_iters = 200 * w;
        for iter in 0..max_iters {
            // Entering column: the largest gain per unit moved off its
            // bound (Dantzig), switching to Bland's rule (lowest index)
            // beyond a safety iteration count. Basic columns have z = 0.
            let bland = iter > 50 * w;
            let mut enter: Option<usize> = None;
            let mut best = 1e-9;
            for j in 0..w {
                let gain = if self.at_upper[j] {
                    self.z[j]
                } else {
                    -self.z[j]
                };
                if gain > best {
                    enter = Some(j);
                    if bland {
                        break;
                    }
                    best = gain;
                }
            }
            let Some(e) = enter else {
                return true; // Optimal.
            };
            // Ratio test: the entering column moves by `dir·θ`, row i's
            // basic variable by `−dir·t[i][e]·θ`; its own bound range may
            // be the limit (a bound flip, no pivot).
            let dir = if self.at_upper[e] { -1.0 } else { 1.0 };
            let mut theta = self.upper[e];
            let mut leave: Option<(usize, bool)> = None;
            for i in 0..k {
                let d = dir * self.t[i * w + e];
                let (limit, to_upper) = if d > 1e-12 {
                    (self.beta[i] / d, false)
                } else if d < -1e-12 && self.upper[self.basis[i]].is_finite() {
                    ((self.upper[self.basis[i]] - self.beta[i]) / -d, true)
                } else {
                    continue;
                };
                let limit = limit.max(0.0);
                let tie_break = bland
                    && (limit - theta).abs() <= 1e-12
                    && leave.is_some_and(|(l, _)| self.basis[i] < self.basis[l]);
                if limit < theta - 1e-12 || tie_break {
                    theta = limit;
                    leave = Some((i, to_upper));
                }
            }
            if !theta.is_finite() {
                return false;
            }
            for i in 0..k {
                self.beta[i] -= dir * self.t[i * w + e] * theta;
            }
            match leave {
                None => self.at_upper[e] = !self.at_upper[e],
                Some((r, to_upper)) => {
                    let entered = if self.at_upper[e] {
                        self.upper[e] - theta
                    } else {
                        theta
                    };
                    self.at_upper[self.basis[r]] = to_upper;
                    self.at_upper[e] = false;
                    self.beta[r] = entered;
                    self.pivot(r, e);
                }
            }
        }
        false
    }

    /// Reads the primal solution off the tableau and recomputes the
    /// objective from `c`.
    fn solution(&self, c: &[f64]) -> LpSolution {
        let n = self.n;
        let mut x: Vec<f64> = (0..n)
            .map(|j| if self.at_upper[j] { self.upper[j] } else { 0.0 })
            .collect();
        for (&bv, &value) in self.basis.iter().zip(&self.beta) {
            if bv < n {
                x[bv] = value;
            }
        }
        let objective = c.iter().zip(&x).map(|(&cj, &xj)| cj * xj).sum();
        LpSolution { x, objective }
    }

    /// The multiplier of constraint row `i` of `A` in the original units,
    /// clamped at zero: the objective-row entry of the row's slack,
    /// unscaled. Any clamped value gives a valid Lagrangian bound, whether
    /// or not the pivot loop reached optimality.
    fn dual(&self, i: usize) -> f64 {
        (self.z[self.n + i] * self.row_scale[i] / self.obj_scale).max(0.0)
    }
}

/// Reusable scratch for the row multipliers of the branch and bound's LP
/// bounds: the LP over a subset of a [`Problem`]'s columns, with the rows
/// that touch them, copied into compact buffers and solved on a persistent
/// [`Tableau`]. A warm instance allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct DualLp {
    c: Vec<f64>,
    a: Vec<f64>,
    b: Vec<f64>,
    u: Vec<f64>,
    /// Row of the problem behind each compact row.
    rows: Vec<usize>,
    tableau: Tableau,
}

impl DualLp {
    /// Solves `max Σ c_j x_j` over the columns `cols` of `p`, subject to
    /// `Σ a_rj x_j ≤ slack_r` and `0 ≤ x_j ≤ caps[j]`, and writes a
    /// non-negative multiplier for every row of `p` into `y` (zero for rows
    /// that no column in `cols` touches). Needs `slack ≥ 0`.
    pub(crate) fn duals(
        &mut self,
        p: &Problem,
        cols: &[usize],
        caps: &[f64],
        slack: &[f64],
        y: &mut [f64],
    ) {
        let n = p.num_vars();
        self.rows.clear();
        self.a.clear();
        self.b.clear();
        for (r, &sr) in slack.iter().enumerate() {
            let row = &p.a[r * n..r * n + n];
            if cols.iter().any(|&j| row[j] > 0.0) {
                self.rows.push(r);
                self.a.extend(cols.iter().map(|&j| row[j]));
                self.b.push(sr);
            }
        }
        self.c.clear();
        self.c.extend(cols.iter().map(|&j| p.c[j]));
        self.u.clear();
        self.u.extend(cols.iter().map(|&j| caps[j]));
        self.tableau.load(&self.c, &self.a, &self.b, &self.u);
        // An iteration-limit stop still leaves usable multipliers.
        let _ = self.tableau.pivot_to_optimal();
        y.fill(0.0);
        for (i, &r) in self.rows.iter().enumerate() {
            y[r] = self.tableau.dual(i);
        }
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
    let mut tableau = Tableau::default();
    tableau.load(c, a, b, u);
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
pub fn lp_relaxation(p: &Problem) -> Option<LpSolution> {
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

    /// The LP value bounds the B&B optimum from above, the LP's row
    /// multipliers price it exactly (strong duality), and B&B matches the
    /// enumeration oracle — on random instances and on degenerate variants
    /// of each: tied weights, an extra all-zero row, every `hi < lo`,
    /// all-zero right-hand sides, one zero right-hand side, and rows scaled
    /// by factors from 1e-12 to 1e12 (with and without tied weights), the
    /// spread the scheduler's power and interference rows have.
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
            let mut one_zero_b = b.clone();
            one_zero_b[(next() * k as f64) as usize % k] = 0.0;
            let scales: Vec<f64> = (0..k)
                .map(|_| 10f64.powi((next() * 24.0).round() as i32 - 12))
                .collect();
            let scaled_a: Vec<Vec<f64>> = a
                .iter()
                .zip(&scales)
                .map(|(row, s)| row.iter().map(|x| x * s).collect())
                .collect();
            let scaled_b: Vec<f64> = b.iter().zip(&scales).map(|(x, s)| x * s).collect();
            let variants = [
                (
                    "random",
                    Problem::new(c.clone(), a.clone(), b.clone(), lo.clone(), hi.clone()),
                ),
                (
                    "tied weights",
                    Problem::new(tied.clone(), a.clone(), b.clone(), lo.clone(), hi.clone()),
                ),
                (
                    "rows scaled 1e-12..1e12",
                    Problem::new(
                        c.clone(),
                        scaled_a.clone(),
                        scaled_b.clone(),
                        lo.clone(),
                        hi.clone(),
                    ),
                ),
                (
                    "tied weights, rows scaled",
                    Problem::new(tied, scaled_a, scaled_b, lo.clone(), hi.clone()),
                ),
                (
                    "one zero rhs",
                    Problem::new(c.clone(), a.clone(), one_zero_b, lo.clone(), hi.clone()),
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
                // Strong duality: the multipliers the B&B bounds use price
                // the LP optimum exactly, so the bounds lose nothing to
                // the row scaling or its undoing.
                let cols: Vec<usize> = (0..n).filter(|&j| p.admissible(j)).collect();
                let caps: Vec<f64> = p.hi.iter().map(|&h| h as f64).collect();
                let mut y = vec![0.0; p.num_constraints()];
                DualLp::default().duals(p, &cols, &caps, &p.b, &mut y);
                let priced: f64 = cols
                    .iter()
                    .map(|&j| {
                        let w: f64 = y.iter().enumerate().map(|(r, yr)| yr * p.a(r, j)).sum();
                        caps[j] * (p.c[j] - w).max(0.0)
                    })
                    .sum();
                let dual = y.iter().zip(&p.b).map(|(yr, br)| yr * br).sum::<f64>() + priced;
                assert!(
                    (dual - lp.objective).abs() <= 1e-7 * lp.objective.max(1.0),
                    "{family}: dual value {dual} != LP {}",
                    lp.objective
                );
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
