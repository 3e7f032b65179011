//! Scenario-builder helpers shared by the simulation engine, the
//! experiment drivers, and the integration tests.
//!
//! Every evaluation scenario in the paper places its users the same way:
//! voice users first, then data users, scattered round-robin over the cells
//! with positions drawn uniformly inside each hexagon. This module is the
//! single implementation of that loop, so the placement convention cannot
//! drift between the engine and its tests.

use wcdma_geo::{CellId, Point};
use wcdma_math::Xoshiro256pp;

use crate::network::{Network, UserKind};

/// One user added to a [`Network`] by the scenario builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedUser {
    /// Mobile index returned by [`Network::add_mobile`].
    pub index: usize,
    /// Voice or data.
    pub kind: UserKind,
    /// Initial position.
    pub pos: Point,
}

/// Adds `n_voice` voice users followed by `n_data` data users to `net`,
/// scattered round-robin over the cells (user `i` starts in cell
/// `i mod num_cells`, uniformly inside the hexagon). All users move at
/// `speed_ms`; positions are drawn from `rng` in user order, so the
/// placement is bit-reproducible from the RNG state.
pub fn populate_round_robin(
    net: &mut Network,
    n_voice: usize,
    n_data: usize,
    speed_ms: f64,
    rng: &mut Xoshiro256pp,
) -> Vec<PlacedUser> {
    let layout = net.layout().clone();
    let n_cells = layout.num_cells();
    let mut placed = Vec::with_capacity(n_voice + n_data);
    for i in 0..(n_voice + n_data) {
        let kind = if i < n_voice {
            UserKind::Voice
        } else {
            UserKind::Data
        };
        let cell = CellId((i % n_cells) as u32);
        let pos = layout.random_point_in_cell(cell, rng);
        let index = net.add_mobile(kind, pos, speed_ms);
        placed.push(PlacedUser { index, kind, pos });
    }
    placed
}

/// Per-cell placement weights for a hotspot scenario: cell 0 (the centre
/// cell) attracts `overload` times the user density of every other cell.
/// `overload == 1.0` is the uniform layout.
pub fn hotspot_weights(n_cells: usize, overload: f64) -> Vec<f64> {
    assert!(n_cells > 0, "need at least one cell");
    assert!(
        overload.is_finite() && overload > 0.0,
        "overload factor must be positive and finite, got {overload}"
    );
    let mut w = vec![1.0; n_cells];
    w[0] = overload;
    w
}

/// Adds `n_voice` voice users followed by `n_data` data users to `net`,
/// distributing each class over the cells proportionally to
/// `cell_weights` (one non-negative weight per cell, not all zero).
///
/// The assignment is deterministic: within each class, user `i` of `count`
/// lands in the cell whose cumulative weight interval contains the
/// quantile `(i + 0.5) / count`, so the realised per-cell counts track the
/// weights as closely as integers allow and both classes are spread
/// independently (voice cannot crowd into low-index cells just because it
/// is placed first). Positions are drawn uniformly inside the chosen
/// hexagon from `rng` in user order, so the placement is bit-reproducible
/// from the RNG state, exactly as in [`populate_round_robin`].
pub fn populate_weighted(
    net: &mut Network,
    n_voice: usize,
    n_data: usize,
    speed_ms: f64,
    cell_weights: &[f64],
    rng: &mut Xoshiro256pp,
) -> Vec<PlacedUser> {
    let layout = net.layout().clone();
    let n_cells = layout.num_cells();
    assert_eq!(
        cell_weights.len(),
        n_cells,
        "need one weight per cell ({n_cells})"
    );
    let total: f64 = cell_weights.iter().sum();
    assert!(
        cell_weights.iter().all(|&w| w >= 0.0 && w.is_finite()) && total > 0.0,
        "cell weights must be non-negative, finite and not all zero"
    );
    // Cumulative weight fractions: cell c owns [cum[c-1], cum[c]).
    let mut cum = Vec::with_capacity(n_cells);
    let mut acc = 0.0;
    for &w in cell_weights {
        acc += w;
        cum.push(acc / total);
    }
    let pick = |u: f64| -> CellId {
        let idx = cum.iter().position(|&c| u < c).unwrap_or(n_cells - 1);
        CellId(idx as u32)
    };
    let mut placed = Vec::with_capacity(n_voice + n_data);
    for (kind, count) in [(UserKind::Voice, n_voice), (UserKind::Data, n_data)] {
        for i in 0..count {
            let cell = pick((i as f64 + 0.5) / count as f64);
            let pos = layout.random_point_in_cell(cell, rng);
            let index = net.add_mobile(kind, pos, speed_ms);
            placed.push(PlacedUser { index, kind, pos });
        }
    }
    placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CdmaConfig;
    use wcdma_geo::HexLayout;

    #[test]
    fn placement_is_round_robin_and_deterministic() {
        let build = |seed| {
            let mut net = Network::new(
                CdmaConfig::default_system(),
                HexLayout::new(1, 1000.0),
                seed,
            );
            let mut rng = Xoshiro256pp::new(seed);
            let placed = populate_round_robin(&mut net, 5, 3, 1.0, &mut rng);
            (net, placed)
        };
        let (net, placed) = build(42);
        assert_eq!(placed.len(), 8);
        assert_eq!(net.num_mobiles(), 8);
        for (i, u) in placed.iter().enumerate() {
            assert_eq!(u.index, i);
            let expect = if i < 5 {
                UserKind::Voice
            } else {
                UserKind::Data
            };
            assert_eq!(u.kind, expect);
            // Round-robin: the start position lies inside cell i mod 7.
            let cell = CellId((i % net.num_cells()) as u32);
            assert!(net.layout().distance(u.pos, cell) <= 1000.0);
            assert_eq!(net.mobile_position(i), u.pos);
        }
        let (_, placed2) = build(42);
        assert_eq!(placed, placed2, "same seed must place identically");
    }

    fn fresh_net(seed: u64) -> Network {
        Network::new(
            CdmaConfig::default_system(),
            HexLayout::new(1, 1000.0),
            seed,
        )
    }

    #[test]
    fn weighted_placement_tracks_weights() {
        let mut net = fresh_net(7);
        let mut rng = Xoshiro256pp::new(7);
        // Cell 0 carries 4× the density of the other six cells.
        let w = hotspot_weights(7, 4.0);
        let placed = populate_weighted(&mut net, 40, 10, 1.0, &w, &mut rng);
        assert_eq!(placed.len(), 50);
        // A user belongs to cell 0 iff cell 0 is its nearest cell (hexagons
        // tile the plane as Voronoi cells of their centres).
        let nearest_is_0 = |p| {
            (0..7)
                .map(|c| net.layout().distance(p, CellId(c)))
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap()
                .0
                == 0
        };
        let in_cell0 = |kind: UserKind| {
            placed
                .iter()
                .filter(|u| u.kind == kind && nearest_is_0(u.pos))
                .count()
        };
        // Expected share of cell 0: 4/10 of each class.
        assert_eq!(in_cell0(UserKind::Voice), 16);
        assert_eq!(in_cell0(UserKind::Data), 4);
    }

    #[test]
    fn weighted_placement_is_deterministic() {
        let build = || {
            let mut net = fresh_net(11);
            let mut rng = Xoshiro256pp::new(11);
            populate_weighted(&mut net, 6, 3, 1.0, &hotspot_weights(7, 2.5), &mut rng)
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "one weight per cell")]
    fn weighted_placement_checks_arity() {
        let mut net = fresh_net(1);
        let mut rng = Xoshiro256pp::new(1);
        populate_weighted(&mut net, 1, 1, 1.0, &[1.0, 1.0], &mut rng);
    }
}
