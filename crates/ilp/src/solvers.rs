//! Solvers for the burst-scheduling integer program.
//!
//! * [`exhaustive`] — enumerates the full domain; the correctness oracle for
//!   property tests and the small-`N_d` reference in experiment E7.
//! * [`branch_and_bound`] — exact solver: depth-first search ordered by
//!   utility density (column sums of A as the weight), highest value first.
//!   This is the JABA-SD optimal scheduler's engine.
//! * [`greedy`] — density-ordered heuristic with a final top-up pass;
//!   near-optimal at a fraction of the cost (quantified by E7).
//!
//! The branch and bound prunes a node when a bound on the variables still
//! to be branched on shows that no leaf below beats the incumbent by more
//! than 1e-12. Three bounds are tried in order, each only when the ones
//! before it fail:
//!
//! 1. **Independent:** every remaining variable at its per-node cap
//!    `min(hi_j, ⌊slack_r / a_rj⌋)`, ignoring the others.
//! 2. **Surrogate knapsack:** a fractional knapsack on the rows combined
//!    with the duals of the round's root LP. That LP is solved once per
//!    solve, at the root, and only if the independent bound cannot prune
//!    there.
//! 3. **Node LP:** the LP over the remaining variables against the node's
//!    slack, with the per-node caps as variable bounds.
//!
//! Bounds 2 and 3 are evaluated as Lagrangian dual values,
//! `y'·slack + Σ_j cap_j·max(0, c_j − y'a_j)` with `y ≥ 0`, which hold for
//! any such `y`, so a simplex that stops on its tolerances still yields a
//! valid bound. The slack is widened by the search's feasibility tolerance
//! and the bound inflated by a relative margin before it may prune. A
//! tighter valid bound only skips subtrees without a strictly better leaf,
//! and the node order and strict `>` incumbent update are unchanged, so
//! every search that completes returns the same leaf as with the
//! independent bound alone; only searches that hit the node cap change.
//!
//! [`BbWorkspace`] is the persistent form of the branch-and-bound state: all
//! scratch (variable order, column sums, the per-depth slack stack, the
//! incumbent, the LP tableau) lives in reusable buffers, so a steady-state
//! solve allocates nothing.

use crate::problem::{Problem, Solution};
use crate::simplex::DualLp;

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

/// Persistent branch-and-bound state: reusable variable order, column
/// sums, assignment buffer, per-depth slack stack, incumbent, and the
/// LP-bound scratch. A warm workspace solves with zero allocations (the
/// slack stack replaces the per-node `Vec` clone with a `copy_within` to
/// the next depth level, which is bit-identical arithmetic).
#[derive(Debug, Clone, Default)]
pub struct BbWorkspace {
    /// Variable processing order (by density, best first).
    order: Vec<usize>,
    /// Column sums of A (the λ = 1 row combination): the density key of
    /// the variable order.
    column_sums: Vec<f64>,
    /// Current assignment during the search.
    m: Vec<u32>,
    /// Slack stack: `(n + 1)` levels of `k` rows; level `d` is the slack at
    /// search depth `d`.
    slack: Vec<f64>,
    best: Solution,
    bounds: LpBounds,
    last_nodes: u64,
    total_nodes: u64,
}

/// Scratch of the two LP-dual bounds (see the module docs), reset each
/// solve and grown only when a problem is larger than any before it.
#[derive(Debug, Clone, Default)]
struct LpBounds {
    /// Search depth at which each variable is branched on.
    depth_of: Vec<usize>,
    /// Per-node caps of the remaining variables, by variable:
    /// `min(hi_j, ⌊slack_r / a_rj⌋)`, or 0 when no admitted value fits.
    caps: Vec<f64>,
    /// The remaining variables with a non-zero cap at the current node.
    cols: Vec<usize>,
    /// The current node's slack, widened by the search's feasibility
    /// tolerance and clamped at zero.
    slack: Vec<f64>,
    /// Whether this solve's root LP has been solved.
    root_ready: bool,
    /// The root LP's row multipliers.
    root_y: Vec<f64>,
    /// The root multipliers folded into each column: `w_j = y'a_j`.
    weights: Vec<f64>,
    /// All variables by `c_j / w_j`, best first.
    knapsack_order: Vec<usize>,
    /// Row multipliers of the latest node LP.
    y: Vec<f64>,
    lp: DualLp,
    /// LPs solved (root and node) across the workspace's lifetime.
    solves: u64,
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
        self.bounds.reset(&self.order, k);
        let mut run = BbRun {
            p,
            order: &self.order,
            best: &mut self.best,
            m: &mut self.m,
            slack: &mut self.slack,
            bounds: &mut self.bounds,
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

    /// LPs (root and per-node) solved for bounds across all solves in this
    /// workspace's lifetime.
    pub fn lp_solves(&self) -> u64 {
        self.bounds.solves
    }

    /// Fills `column_sums` and the density-sorted `order` for `p`.
    fn prepare(&mut self, p: &Problem) {
        let k = p.num_constraints();
        self.column_sums.clear();
        for j in 0..p.num_vars() {
            self.column_sums
                .push((0..k).map(|r| p.a(r, j)).sum::<f64>());
        }
        sort_by_density(&mut self.order, &p.c, &self.column_sums);
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

impl LpBounds {
    /// Sizes the buffers for a solve over `order` with `k` rows; the root
    /// LP waits until a node first needs it.
    fn reset(&mut self, order: &[usize], k: usize) {
        let n = order.len();
        self.depth_of.clear();
        self.depth_of.resize(n, 0);
        for (depth, &j) in order.iter().enumerate() {
            self.depth_of[j] = depth;
        }
        self.caps.clear();
        self.caps.resize(n, 0.0);
        self.slack.clear();
        self.slack.resize(k, 0.0);
        self.root_y.clear();
        self.root_y.resize(k, 0.0);
        self.y.clear();
        self.y.resize(k, 0.0);
        self.root_ready = false;
    }

    /// Widens `slack` by twice the search's feasibility tolerance
    /// (`1e-9·|b_r|`, which a leaf may overdraw a row by, plus room for the
    /// rounding of the running subtraction) and clamps it at zero.
    fn widen(&mut self, slack: &[f64], b: &[f64]) {
        for ((s, &sr), &br) in self.slack.iter_mut().zip(slack).zip(b) {
            *s = (sr + 2e-9 * br.abs()).max(0.0);
        }
    }

    /// Solves the root LP over the current columns and keeps its duals as
    /// the surrogate multipliers for the rest of the solve.
    fn solve_root(&mut self, p: &Problem) {
        self.lp
            .duals(p, &self.cols, &self.caps, &self.slack, &mut self.root_y);
        self.solves += 1;
        self.weights.clear();
        for j in 0..p.num_vars() {
            let w = (0..p.num_constraints())
                .map(|r| self.root_y[r] * p.a(r, j))
                .sum();
            self.weights.push(w);
        }
        sort_by_density(&mut self.knapsack_order, &p.c, &self.weights);
        self.root_ready = true;
    }

    /// Tier 2: the fractional knapsack on the root multipliers, over the
    /// variables remaining at `depth`. It is evaluated as the Lagrangian
    /// bound at the knapsack's critical ratio μ, a sum of non-negative
    /// terms that is valid for any μ ≥ 0.
    fn surrogate_bound(&self, p: &Problem, depth: usize) -> f64 {
        let budget: f64 = self
            .root_y
            .iter()
            .zip(&self.slack)
            .map(|(y, s)| y * s)
            .sum();
        let mut mu = 0.0;
        let mut used = 0.0;
        for &j in &self.knapsack_order {
            let w = self.weights[j];
            if self.depth_of[j] < depth || self.caps[j] == 0.0 || w <= 0.0 {
                continue;
            }
            used += self.caps[j] * w;
            if used > budget {
                mu = p.c[j] / w;
                break;
            }
        }
        let columns: f64 = self
            .cols
            .iter()
            .map(|&j| self.caps[j] * (p.c[j] - mu * self.weights[j]).max(0.0))
            .sum();
        mu * budget + columns
    }

    /// Tier 3: the LP over the remaining variables against the current
    /// slack, solved for its row multipliers y, and bounded by the dual
    /// value `y'·slack + Σ_j cap_j·max(0, c_j − y'a_j)`, which holds for
    /// any y ≥ 0 however the simplex stopped.
    fn node_lp_bound(&mut self, p: &Problem) -> f64 {
        self.lp
            .duals(p, &self.cols, &self.caps, &self.slack, &mut self.y);
        self.solves += 1;
        let rows: f64 = self.y.iter().zip(&self.slack).map(|(y, s)| y * s).sum();
        let columns: f64 = self
            .cols
            .iter()
            .map(|&j| {
                let priced: f64 = (0..p.num_constraints())
                    .map(|r| self.y[r] * p.a(r, j))
                    .sum();
                self.caps[j] * (p.c[j] - priced).max(0.0)
            })
            .sum();
        rows + columns
    }
}

/// Relative margin added to an LP-dual bound before it may prune. Every
/// term of the bound is non-negative, so its own rounding is a few ulps;
/// the margin also covers the rounding of the leaf values it is compared
/// with.
const BOUND_MARGIN: f64 = 1e-9;

/// One branch-and-bound run: disjoint borrows of the workspace fields so the
/// recursion can mutate the incumbent, assignment, and slack stack at once.
struct BbRun<'a> {
    p: &'a Problem,
    order: &'a [usize],
    best: &'a mut Solution,
    m: &'a mut [u32],
    slack: &'a mut [f64],
    bounds: &'a mut LpBounds,
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

/// Sets `order` to the variables by descending `density(c_j, w_j)`, equal
/// keys in index order. A hand-rolled stable insertion sort: the standard
/// library's stable sort allocates a merge buffer.
fn sort_by_density(order: &mut Vec<usize>, c: &[f64], w: &[f64]) {
    order.clear();
    order.extend(0..c.len());
    for i in 1..order.len() {
        let x = order[i];
        let dx = density(c[x], w[x]);
        let mut at = i;
        while at > 0 && dx > density(c[order[at - 1]], w[order[at - 1]]) {
            order[at] = order[at - 1];
            at -= 1;
        }
        order[at] = x;
    }
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
        if self.prunes(depth, value) {
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

    /// Whether a bound on the variables `order[depth..]` proves that no
    /// leaf below beats the incumbent by more than 1e-12. The bounds run
    /// cheapest first, each only when the ones before it fail.
    fn prunes(&mut self, depth: usize, value: f64) -> bool {
        let target = self.best.objective + 1e-12;
        let (independent, free) = self.independent_bound(depth);
        if value + independent <= target {
            return true;
        }
        // With at most one grantable variable left, the independent bound
        // is already the subtree's exact best.
        if free < 2 {
            return false;
        }
        let inflated = |bound: f64| {
            let ub = value + bound;
            ub + BOUND_MARGIN * ub.abs()
        };
        let k = self.k;
        self.bounds
            .widen(&self.slack[depth * k..depth * k + k], &self.p.b);
        if !self.bounds.root_ready {
            // Caps only shrink with depth, so the first node to get here
            // is the root: if the root stopped above, every node below
            // would too.
            debug_assert_eq!(depth, 0);
            self.bounds.solve_root(self.p);
        }
        if inflated(self.bounds.surrogate_bound(self.p, depth)) <= target {
            return true;
        }
        inflated(self.bounds.node_lp_bound(self.p)) <= target
    }

    /// Tier 1: each remaining variable maxed independently against the
    /// current slack. Records the per-node caps and the variables that can
    /// still be granted, and returns the bound with their count.
    fn independent_bound(&mut self, depth: usize) -> (f64, usize) {
        let k = self.k;
        let slack = &self.slack[depth * k..depth * k + k];
        let bounds = &mut *self.bounds;
        bounds.cols.clear();
        let mut independent = 0.0;
        for &j in &self.order[depth..] {
            bounds.caps[j] = 0.0;
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
                bounds.caps[j] = cap as f64;
                bounds.cols.push(j);
            }
        }
        (independent, bounds.cols.len())
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
    use crate::test_rng::{rng_multirow_problems, rng_problems};

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

    /// FNV-1a over `branch_and_bound(p, 0)`'s grants and objective bits on
    /// the seeded instances of [`decision_identity_hash`]. Any change to the
    /// bounds must leave every completed search's answer bit-identical: a
    /// tighter valid bound prunes only subtrees that hold no strictly better
    /// leaf, and the node order and strict `>` incumbent update decide
    /// which of the equal leaves is returned.
    const BB_DECISION_HASH: u64 = 0xd76f_0f8a_74a3_659a;

    fn decision_identity_hash() -> u64 {
        let mut problems = rng_problems(300, 5, 6);
        problems.extend(rng_multirow_problems(60, 0x9E37_79B9_7F4A_7C15));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fnv = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (i, p) in problems.iter().enumerate() {
            let (s, complete) = branch_and_bound(p, 0);
            assert!(complete, "instance {i}");
            assert!(p.is_feasible(&s.m), "instance {i} infeasible");
            for &v in &s.m {
                fnv(v as u64);
            }
            fnv(s.objective.to_bits());
        }
        h
    }

    #[test]
    fn bb_decisions_match_the_recorded_hash() {
        let got = decision_identity_hash();
        assert_eq!(got, BB_DECISION_HASH, "got {got:#018x}");
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
