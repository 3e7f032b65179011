//! `wcdma-ilp`: integer-programming substrate for the scheduling sub-layer.
//!
//! The paper formulates multiple-burst admission as an integer program
//! (Section 3.2). This crate provides the solvers:
//!
//! * [`problem::Problem`] — `max c'm, A m ≤ b, m_j ∈ {0} ∪ [lo_j, hi_j]`
//!   (the semi-continuous domain encodes the minimum-burst-duration rule,
//!   eq. 24).
//! * [`solvers::branch_and_bound`] — exact solver (JABA-SD's engine), with
//!   [`solvers::BbWorkspace`] as its persistent zero-allocation form,
//!   pruned with LP-dual bounds.
//! * [`solvers::exhaustive`] — enumeration oracle for verification.
//! * [`solvers::greedy`] — density heuristic, quantified against the exact
//!   solver in experiment E7.
//! * [`simplex::lp_relaxation`] / [`simplex::simplex_max`] — dense primal
//!   simplex for the LP relaxation (the integrality gap of experiment E7 and
//!   an upper-bound cross-check in tests); the branch and bound runs the
//!   same tableau for its LP bounds.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod problem;
pub mod simplex;
pub mod solvers;
#[cfg(test)]
mod test_rng;

pub use problem::{Problem, Solution};
pub use simplex::{lp_relaxation, simplex_max, LpSolution};
pub use solvers::{branch_and_bound, exhaustive, greedy, BbWorkspace};
