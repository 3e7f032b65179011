//! The recorded bursty-cell rounds that once stopped at JABA-SD's
//! 200 000-node cap: with the LP-dual bounds every one is proven optimal
//! well inside the cap, its answer is feasible, and it is never worse
//! than the answer the capped search returned.

mod fixtures;

use wcdma_ilp::BbWorkspace;

/// `JabaSd`'s default node cap.
const NODE_LIMIT: u64 = 200_000;

#[test]
fn every_capped_round_is_proven_within_the_cap() {
    let rounds = fixtures::capped_rounds();
    assert_eq!(rounds.len(), 58);
    let mut ws = BbWorkspace::new();
    let mut improved = 0;
    for round in &rounds {
        let (sol, complete) = ws.solve(&round.problem, NODE_LIMIT);
        assert!(
            complete,
            "{}: not proven in {NODE_LIMIT} nodes",
            round.label
        );
        assert!(
            round.problem.is_feasible(&sol.m),
            "{}: infeasible",
            round.label
        );
        assert!(
            sol.objective >= round.capped,
            "{}: objective {} below the capped {}",
            round.label,
            sol.objective,
            round.capped
        );
        improved += usize::from(sol.objective > round.capped);
    }
    let cap_total = rounds.len() as u64 * NODE_LIMIT;
    assert!(
        ws.total_nodes() * 10 <= cap_total,
        "{} nodes in total, not 10x below the capped {cap_total}",
        ws.total_nodes()
    );
    assert!(improved > 0, "some capped answers were below the optimum");
}
