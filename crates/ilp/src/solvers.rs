//! Solvers for the burst-scheduling integer program.
//!
//! * [`exhaustive`] — enumerates the full domain; the correctness oracle for
//!   property tests and the small-`N_d` reference in experiment E7.
//! * [`branch_and_bound`] — exact solver: depth-first search ordered by
//!   utility density, pruned with the minimum of two valid upper bounds
//!   (per-variable independent bound and a surrogate fractional-knapsack
//!   bound). This is the JABA-SD optimal scheduler's engine.
//! * [`greedy`] — density-ordered heuristic with a final top-up pass;
//!   near-optimal at a fraction of the cost (quantified by E7).
//!
//! [`BbWorkspace`] is the persistent form of the branch-and-bound state: all
//! scratch (variable order, surrogate weights, the per-depth slack stack, the
//! incumbent) lives in reusable buffers, so a steady-state solve allocates
//! nothing while visiting nodes in *exactly* the order — and with exactly the
//! arithmetic — of the original per-solve implementation.

use crate::problem::{Problem, Solution};

/// Exhaustively enumerates all assignments. Exponential; intended for
/// `n · log(hi)` small enough that `Π (hi_j - lo_j + 2)` stays ≤ ~10⁷.
///
/// With every coefficient of A non-negative (which [`Problem::validate`]
/// enforces), a subtree whose assigned prefix already violates a row
/// cannot hold a feasible leaf, so it is skipped, and so is every larger
/// value of the same variable. The prefix sums and the violation test are
/// [`Problem::is_feasible`]'s own, in its summation order, so the leaves
/// that remain — and the returned [`Solution`] — are exactly those of the
/// full enumeration.
pub fn exhaustive(p: &Problem) -> Solution {
    /// `lhs` level `j` holds the K row sums over variables `0..j`.
    fn rec(
        p: &Problem,
        prune: bool,
        j: usize,
        m: &mut [u32],
        lhs: &mut [f64],
        best: &mut Solution,
    ) {
        let (n, k) = (p.num_vars(), p.b.len());
        if j == n {
            if p.is_feasible(m) {
                let obj = p.objective(m);
                if obj > best.objective {
                    *best = Solution {
                        m: m.to_vec(),
                        objective: obj,
                    };
                }
            }
            return;
        }
        // m_j = 0 adds nothing to any row.
        lhs.copy_within(j * k..(j + 1) * k, (j + 1) * k);
        m[j] = 0;
        rec(p, prune, j + 1, m, lhs, best);
        if p.admissible(j) {
            for v in p.lo[j]..=p.hi[j] {
                let (prefix, next) = lhs.split_at_mut((j + 1) * k);
                let mut violated = false;
                for (r, &bk) in p.b.iter().enumerate() {
                    let sum = prefix[j * k + r] + p.a[r * n + j] * v as f64;
                    next[r] = sum;
                    violated |= sum > bk + 1e-9 * (bk.abs() + sum.abs());
                }
                if prune && violated {
                    // Rows only grow with v.
                    break;
                }
                m[j] = v;
                rec(p, prune, j + 1, m, lhs, best);
            }
            m[j] = 0;
        }
    }
    let mut best = p.reject_all();
    let prune = p.a.iter().all(|&x| x >= 0.0);
    let mut m = vec![0; p.num_vars()];
    let mut lhs = vec![0.0; (p.num_vars() + 1) * p.b.len()];
    rec(p, prune, 0, &mut m, &mut lhs, &mut best);
    best
}

/// Persistent branch-and-bound state: reusable variable order, surrogate
/// weights, assignment buffer, per-depth slack stack, and incumbent. A warm
/// workspace solves with zero allocations (the slack stack replaces the
/// per-node `Vec` clone with a `copy_within` to the next depth level, which
/// is bit-identical arithmetic).
#[derive(Debug, Clone, Default)]
pub struct BbWorkspace {
    /// Variable processing order (by density, best first).
    order: Vec<usize>,
    /// Surrogate weights: column sums of A (λ = 1 row combination).
    surrogate: Vec<f64>,
    /// Current assignment during the search.
    m: Vec<u32>,
    /// Slack stack: `(n + 1)` levels of `k` rows; level `d` is the slack at
    /// search depth `d`.
    slack: Vec<f64>,
    best: Solution,
    last_nodes: u64,
    total_nodes: u64,
}

impl BbWorkspace {
    /// A fresh workspace with no retained buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exact branch-and-bound solve, reusing this workspace's buffers.
    ///
    /// `node_limit` caps the search (0 = unlimited); on hitting the cap the
    /// best incumbent so far is returned together with `complete = false`.
    /// The returned reference stays valid until the next call; clone it to
    /// keep it. Node order and arithmetic are identical to
    /// [`branch_and_bound`], so results are bit-for-bit the same.
    pub fn solve(&mut self, p: &Problem, node_limit: u64) -> (&Solution, bool) {
        let n = p.num_vars();
        let k = p.num_constraints();
        self.prepare(p);
        self.greedy_fill(p); // warm start with the greedy incumbent
        self.m.clear();
        self.m.resize(n, 0);
        // Slack level 0 = full budgets.
        self.slack.clear();
        self.slack.resize((n + 1) * k, 0.0);
        self.slack[..k].copy_from_slice(&p.b);
        let mut run = BbRun {
            p,
            order: &self.order,
            surrogate: &self.surrogate,
            best: &mut self.best,
            m: &mut self.m,
            slack: &mut self.slack,
            k,
            nodes: 0,
            node_limit,
        };
        let complete = run.search(0, 0.0);
        self.last_nodes = run.nodes;
        self.total_nodes += self.last_nodes;
        (&self.best, complete)
    }

    /// Density-greedy heuristic with a top-up pass, reusing this workspace's
    /// buffers. Identical result to [`greedy`].
    pub fn greedy(&mut self, p: &Problem) -> &Solution {
        let k = p.num_constraints();
        self.prepare(p);
        if self.slack.len() < k {
            self.slack.resize(k, 0.0);
        }
        self.greedy_fill(p);
        &self.best
    }

    /// Nodes visited by the most recent [`solve`](Self::solve).
    pub fn last_nodes(&self) -> u64 {
        self.last_nodes
    }

    /// Nodes visited across all solves in this workspace's lifetime.
    pub fn total_nodes(&self) -> u64 {
        self.total_nodes
    }

    /// Fills `surrogate` and the density-sorted `order` for `p`.
    ///
    /// The sort is a hand-rolled *stable* insertion sort (the standard
    /// library's stable sort allocates a merge buffer), using the same
    /// comparator as the original `sort_by` — stable sorts with equal
    /// comparators produce equal orders.
    fn prepare(&mut self, p: &Problem) {
        let n = p.num_vars();
        let k = p.num_constraints();
        self.surrogate.clear();
        for j in 0..n {
            self.surrogate.push((0..k).map(|r| p.a(r, j)).sum::<f64>());
        }
        self.order.clear();
        self.order.extend(0..n);
        let order = &mut self.order;
        let surrogate = &self.surrogate;
        for i in 1..n {
            let x = order[i];
            let dx = density(p.c[x], surrogate[x]);
            let mut at = i;
            while at > 0 {
                let y = order[at - 1];
                let dy = density(p.c[y], surrogate[y]);
                // Descending density; keep equal keys in original order.
                if dx.partial_cmp(&dy).expect("finite densities") == std::cmp::Ordering::Greater {
                    order[at] = y;
                    at -= 1;
                } else {
                    break;
                }
            }
            order[at] = x;
        }
    }

    /// The greedy heuristic body, writing into `self.best` and using slack
    /// level 0 as scratch. Requires `prepare` and a slack buffer ≥ k.
    fn greedy_fill(&mut self, p: &Problem) {
        let n = p.num_vars();
        let k = p.num_constraints();
        if self.slack.len() < k {
            self.slack.resize(k, 0.0);
        }
        let best = &mut self.best;
        best.m.clear();
        best.m.resize(n, 0);
        let m = &mut best.m;
        let slack = &mut self.slack[..k];
        slack.copy_from_slice(&p.b);
        for &j in &self.order {
            if !p.admissible(j) || p.c[j] <= 0.0 {
                continue;
            }
            let cap = (0..k)
                .filter(|&r| p.a(r, j) > 0.0)
                .map(|r| (slack[r] / p.a(r, j)).floor().max(0.0))
                .fold(f64::INFINITY, f64::min);
            let cap = if cap.is_finite() {
                (cap as u32).min(p.hi[j])
            } else {
                p.hi[j]
            };
            if cap >= p.lo[j] {
                m[j] = cap;
                for (r, sk) in slack.iter_mut().enumerate() {
                    *sk -= p.a(r, j) * cap as f64;
                }
            }
        }
        // Top-up: raise any variable still below hi while slack allows
        // (covers cases where a later variable freed by rounding fits).
        let mut improved = true;
        while improved {
            improved = false;
            for &j in &self.order {
                if m[j] == 0 || m[j] >= p.hi[j] || p.c[j] <= 0.0 {
                    continue;
                }
                let fits = slack
                    .iter()
                    .zip(&p.b)
                    .enumerate()
                    .all(|(r, (&s, &bk))| p.a(r, j) <= s + 1e-12 * bk.abs());
                if fits {
                    m[j] += 1;
                    for (r, sk) in slack.iter_mut().enumerate() {
                        *sk -= p.a(r, j);
                    }
                    improved = true;
                }
            }
        }
        best.objective = p.objective(&best.m);
    }
}

/// One branch-and-bound run: disjoint borrows of the workspace fields so the
/// recursion can mutate the incumbent, assignment, and slack stack at once.
struct BbRun<'a> {
    p: &'a Problem,
    order: &'a [usize],
    surrogate: &'a [f64],
    best: &'a mut Solution,
    m: &'a mut [u32],
    slack: &'a mut [f64],
    k: usize,
    nodes: u64,
    node_limit: u64,
}

/// Exact branch-and-bound solution.
///
/// One-shot wrapper over [`BbWorkspace::solve`]: `node_limit` caps the search
/// (0 = unlimited); on hitting the cap the best incumbent so far is returned
/// together with `optimal = false`.
pub fn branch_and_bound(p: &Problem, node_limit: u64) -> (Solution, bool) {
    let mut ws = BbWorkspace::new();
    let (s, complete) = ws.solve(p, node_limit);
    (s.clone(), complete)
}

fn density(c: f64, w: f64) -> f64 {
    if w <= 0.0 {
        if c > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        c / w
    }
}

impl BbRun<'_> {
    /// Depth-first search. Returns false if the node limit tripped.
    fn search(&mut self, depth: usize, value: f64) -> bool {
        self.nodes += 1;
        if self.node_limit != 0 && self.nodes > self.node_limit {
            return false;
        }
        if depth == self.order.len() {
            if value > self.best.objective {
                self.best.m.clear();
                self.best.m.extend_from_slice(self.m);
                self.best.objective = value;
            }
            return true;
        }
        // Prune: current value + optimistic bound on the remainder.
        let ub = value + self.upper_bound(depth);
        if ub <= self.best.objective + 1e-12 {
            return true;
        }
        let k = self.k;
        let cur = depth * k;
        let j = self.order[depth];
        let mut complete = true;

        // Highest feasible value first (good incumbents early).
        if self.p.admissible(j) && self.p.c[j] > 0.0 {
            let max_by_slack = (0..k)
                .filter(|&r| self.p.a(r, j) > 0.0)
                .map(|r| (self.slack[cur + r] / self.p.a(r, j)).floor())
                .fold(f64::INFINITY, f64::min);
            let cap = if max_by_slack.is_finite() {
                (max_by_slack.max(0.0) as u32).min(self.p.hi[j])
            } else {
                self.p.hi[j]
            };
            if cap >= self.p.lo[j] {
                for v in (self.p.lo[j]..=cap).rev() {
                    // Child slack = current slack − v·column, built in the
                    // next stack level (replaces the per-node clone).
                    self.slack.copy_within(cur..cur + k, cur + k);
                    let mut ok = true;
                    for r in 0..k {
                        let sk = &mut self.slack[cur + k + r];
                        *sk -= self.p.a(r, j) * v as f64;
                        if *sk < -1e-9 * self.p.b[r].abs() {
                            ok = false;
                            break;
                        }
                    }
                    if !ok {
                        continue;
                    }
                    self.m[j] = v;
                    complete &= self.search(depth + 1, value + self.p.c[j] * v as f64);
                    self.m[j] = 0;
                }
            }
        }
        // The reject branch: child level carries the slack unchanged.
        self.slack.copy_within(cur..cur + k, cur + k);
        complete &= self.search(depth + 1, value);
        complete
    }

    /// Valid optimistic bound for variables order[depth..]: the minimum of
    /// (a) each variable independently maxed against current slack and
    /// (b) a fractional knapsack on the surrogate constraint.
    fn upper_bound(&self, depth: usize) -> f64 {
        let k = self.k;
        let slack = &self.slack[depth * k..depth * k + k];
        let mut independent = 0.0;
        let mut surrogate_slack: f64 = slack.iter().sum();
        if surrogate_slack < 0.0 {
            surrogate_slack = 0.0;
        }
        // (a) independent bound.
        for &j in &self.order[depth..] {
            if !self.p.admissible(j) || self.p.c[j] <= 0.0 {
                continue;
            }
            let cap = (0..k)
                .filter(|&r| self.p.a(r, j) > 0.0)
                .map(|r| (slack[r] / self.p.a(r, j)).floor().max(0.0))
                .fold(f64::INFINITY, f64::min);
            let cap = if cap.is_finite() {
                (cap as u32).min(self.p.hi[j])
            } else {
                self.p.hi[j]
            };
            if cap >= self.p.lo[j] {
                independent += self.p.c[j] * cap as f64;
            }
        }
        // (b) fractional knapsack on λ=1 surrogate (order is density-sorted).
        let mut knap = 0.0;
        let mut budget = surrogate_slack;
        for &j in &self.order[depth..] {
            if !self.p.admissible(j) || self.p.c[j] <= 0.0 {
                continue;
            }
            let w = self.surrogate[j];
            if w <= 0.0 {
                // Free variable: take it whole.
                knap += self.p.c[j] * self.p.hi[j] as f64;
                continue;
            }
            let want = self.p.hi[j] as f64;
            let afford = budget / w;
            let take = want.min(afford);
            knap += self.p.c[j] * take;
            budget -= take * w;
            if budget <= 0.0 {
                break;
            }
        }
        independent.min(knap)
    }
}

/// Density-greedy heuristic with a top-up pass.
///
/// One-shot wrapper over [`BbWorkspace::greedy`].
pub fn greedy(p: &Problem) -> Solution {
    let mut ws = BbWorkspace::new();
    ws.greedy(p).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::rng_problems;

    fn toy() -> Problem {
        Problem::new(
            vec![1.0, 3.0, 2.0],
            vec![vec![1.0, 2.0, 1.5], vec![0.5, 1.0, 2.0]],
            vec![10.0, 8.0],
            vec![1, 1, 1],
            vec![4, 4, 4],
        )
    }

    #[test]
    fn exhaustive_finds_known_optimum() {
        // Single constraint, obvious answer: pack the dense variable.
        let p = Problem::new(
            vec![1.0, 10.0],
            vec![vec![1.0, 1.0]],
            vec![4.0],
            vec![1, 1],
            vec![4, 4],
        );
        let s = exhaustive(&p);
        assert_eq!(s.m, vec![0, 4]);
        assert_eq!(s.objective, 40.0);
    }

    #[test]
    fn pruned_enumeration_returns_the_full_enumerations_solution() {
        // The unpruned enumeration, in the same order: every leaf checked.
        fn full(p: &Problem, j: usize, m: &mut Vec<u32>, best: &mut Solution) {
            if j == p.num_vars() {
                if p.is_feasible(m) && p.objective(m) > best.objective {
                    *best = p.solution(m.clone());
                }
                return;
            }
            m[j] = 0;
            full(p, j + 1, m, best);
            if p.admissible(j) {
                for v in p.lo[j]..=p.hi[j] {
                    m[j] = v;
                    full(p, j + 1, m, best);
                }
                m[j] = 0;
            }
        }
        let mut problems = rng_problems(300, 5, 6);
        problems.push(toy());
        for p in &problems {
            let mut reference = p.reject_all();
            full(p, 0, &mut vec![0; p.num_vars()], &mut reference);
            let got = exhaustive(p);
            assert_eq!(got.m, reference.m, "{p:?}");
            assert_eq!(got.objective.to_bits(), reference.objective.to_bits());
        }
    }

    #[test]
    fn bb_matches_exhaustive_on_toy() {
        let p = toy();
        let e = exhaustive(&p);
        let (b, complete) = branch_and_bound(&p, 0);
        assert!(complete);
        assert!(
            (b.objective - e.objective).abs() < 1e-9,
            "bb {} vs exhaustive {}",
            b.objective,
            e.objective
        );
        assert!(p.is_feasible(&b.m));
    }

    #[test]
    fn bb_matches_exhaustive_randomised() {
        for (i, p) in rng_problems(40, 5, 6).into_iter().enumerate() {
            let e = exhaustive(&p);
            let (b, complete) = branch_and_bound(&p, 0);
            assert!(complete, "instance {i} incomplete");
            assert!(
                (b.objective - e.objective).abs() < 1e-9,
                "instance {i}: bb {} vs exhaustive {}",
                b.objective,
                e.objective
            );
            assert!(p.is_feasible(&b.m), "instance {i} infeasible");
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_solves() {
        // One workspace across many differently-shaped instances must give
        // exactly the per-instance fresh-solve answer (same node order, same
        // arithmetic) and count nodes identically.
        let mut ws = BbWorkspace::new();
        for (i, p) in rng_problems(40, 5, 6).into_iter().enumerate() {
            let (fresh, fresh_complete) = branch_and_bound(&p, 0);
            let mut fresh_ws = BbWorkspace::new();
            let _ = fresh_ws.solve(&p, 0);
            let (reused, complete) = ws.solve(&p, 0);
            assert_eq!(fresh, *reused, "instance {i}: reuse changed the answer");
            assert_eq!(fresh_complete, complete);
            assert_eq!(
                fresh_ws.last_nodes(),
                ws.last_nodes(),
                "instance {i}: node count drifted"
            );
            let fresh_greedy = greedy(&p);
            assert_eq!(fresh_greedy, *ws.greedy(&p), "instance {i}: greedy drift");
        }
        assert!(ws.total_nodes() >= ws.last_nodes());
    }

    #[test]
    fn greedy_feasible_and_not_terrible() {
        let p = toy();
        let g = greedy(&p);
        assert!(p.is_feasible(&g.m));
        let e = exhaustive(&p);
        assert!(
            g.objective >= 0.5 * e.objective,
            "greedy {} too far from optimum {}",
            g.objective,
            e.objective
        );
    }

    #[test]
    fn node_limit_returns_incumbent() {
        let p = toy();
        let (s, complete) = branch_and_bound(&p, 2);
        assert!(!complete);
        assert!(p.is_feasible(&s.m));
        // Warm start means the incumbent is at least the greedy value.
        assert!(s.objective >= greedy(&p).objective - 1e-12);
    }

    #[test]
    fn zero_budget_rejects_all() {
        let p = Problem::new(
            vec![5.0, 5.0],
            vec![vec![1.0, 1.0]],
            vec![0.0],
            vec![1, 1],
            vec![4, 4],
        );
        let (s, complete) = branch_and_bound(&p, 0);
        assert!(complete);
        assert_eq!(s.m, vec![0, 0]);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn negative_objective_never_selected() {
        let p = Problem::new(
            vec![-1.0, 2.0],
            vec![vec![1.0, 1.0]],
            vec![10.0],
            vec![1, 1],
            vec![4, 4],
        );
        let (s, _) = branch_and_bound(&p, 0);
        assert_eq!(s.m[0], 0, "negative-value variable must be rejected");
        assert_eq!(s.m[1], 4);
    }

    #[test]
    fn semi_continuous_lower_bound_respected() {
        // Budget 3, lo = 4: can't afford the minimum grant → reject.
        let p = Problem::new(vec![10.0], vec![vec![1.0]], vec![3.0], vec![4], vec![8]);
        let (s, _) = branch_and_bound(&p, 0);
        assert_eq!(s.m, vec![0]);
        let e = exhaustive(&p);
        assert_eq!(e.m, vec![0]);
    }

    #[test]
    fn unconstrained_column_takes_hi() {
        // A variable with zero weight in every row is free.
        let p = Problem::new(
            vec![1.0, 1.0],
            vec![vec![1.0, 0.0]],
            vec![2.0],
            vec![1, 1],
            vec![4, 16],
        );
        let (s, complete) = branch_and_bound(&p, 0);
        assert!(complete);
        assert_eq!(s.m[1], 16);
        assert_eq!(s.m[0], 2);
    }
}
