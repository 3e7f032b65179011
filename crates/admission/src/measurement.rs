//! The measurement sub-layer — Section 3.1.
//!
//! Turns the per-request measurement reports (Figure 2) into the linear
//! admissible regions of eq. (7) (forward) and eq. (17) (reverse):
//!
//! * **Forward** (power-limited): granting `m_j` to user j adds
//!   `ΔP = m_j · P_{j,k} · γ_s · α_j^{FL}` of transmit power at every cell k
//!   in j's reduced active set (eq. 6), bounded by the remaining headroom
//!   `P_max − P_k` — rows `a_{kj} = γ_s·P_{j,k}·α_j^{FL}` (eq. 8).
//!
//! * **Reverse** (interference-limited): a soft hand-off cell k sees
//!   `Y_{j,k} = m_j·γ_s·α_j^{RL}·ζ_j·t^{RL}_{j,k}·L_k` of extra received
//!   power (eq. 12, via the pilot-strength identity eq. 10); a neighbour
//!   cell k′ *not* in soft hand-off has no reverse pilot measurement, so its
//!   projected interference uses the forward-pilot relative path loss from
//!   the SCRM with a shadowing margin κ (eq. 13–15). Rows (eq. 18) bound
//!   each cell by `L_max − L_k`.
//!
//! Each direction has one builder, [`forward_region`] / [`reverse_region`],
//! which rebuilds a caller's [`Region`] in place. The region's matrix is
//! flat and row-major, the layout `wcdma_ilp::Problem` solves over, so the
//! scheduler reuses one buffer per direction and hands the rows to the
//! solver with a single copy.

use wcdma_cdma::MeasurementView;
use wcdma_geo::CellId;

/// A linear admissible region `A m ≤ b` over the pending requests.
///
/// `A` is stored flat and row-major, the layout of `wcdma_ilp::Problem`:
/// with `n` requests, coefficient `(k, j)` (cell row k, request j) is
/// `a[k * n + j]`. Read it through [`Region::row`] / [`Region::rows`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Region {
    /// Constraint matrix, row-major: one row per cell with at least one
    /// nonzero entry, one column per request.
    pub a: Vec<f64>,
    /// Headroom per row (same order as the rows of `a`).
    pub b: Vec<f64>,
    /// Cell behind each row (for diagnostics).
    pub cells: Vec<CellId>,
}

impl Region {
    /// Row length: the number of requests (0 for a region without rows).
    fn width(&self) -> usize {
        self.a.len().checked_div(self.b.len()).unwrap_or(0)
    }

    /// Constraint row `k`, one coefficient per request.
    pub fn row(&self, k: usize) -> &[f64] {
        let n = self.width();
        &self.a[k * n..k * n + n]
    }

    /// The constraint rows in order, one per entry of `b`.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        let n = self.width();
        (0..self.b.len()).map(move |k| &self.a[k * n..k * n + n])
    }

    /// Whether the grant vector `m` fits in the region.
    pub fn admits(&self, m: &[u32]) -> bool {
        self.rows().zip(&self.b).all(|(row, &bk)| {
            let lhs: f64 = row.iter().zip(m).map(|(&a, &mj)| a * mj as f64).sum();
            // Relative tolerance only — rows can live at the 1e-13 W scale.
            lhs <= bk + 1e-9 * (bk.abs() + lhs.abs())
        })
    }

    /// Remaining headroom per row after grants `m`.
    pub fn slack(&self, m: &[u32]) -> Vec<f64> {
        self.rows()
            .zip(&self.b)
            .map(|(row, &bk)| {
                bk - row
                    .iter()
                    .zip(m)
                    .map(|(&a, &mj)| a * mj as f64)
                    .sum::<f64>()
            })
            .collect()
    }

    /// The row for `cell` in a region being built over `n` requests,
    /// appending a zero row on first encounter so rows keep
    /// first-encounter order.
    fn row_for(&mut self, cell: CellId, n: usize) -> &mut [f64] {
        let k = match self.cells.iter().position(|c| *c == cell) {
            Some(k) => k,
            None => {
                self.cells.push(cell);
                self.a.resize(self.a.len() + n, 0.0);
                self.cells.len() - 1
            }
        };
        &mut self.a[k * n..k * n + n]
    }
}

/// Rebuilds `out` as the forward-link admissible region (eq. 6–8).
///
/// * `fwd_load_w` — current forward power per cell, `P_k`;
/// * `pmax_w` — per-cell budget `P_max`;
/// * `gamma_s` — SCH/FCH relative symbol energy;
/// * `reqs` — borrowed measurement report per pending request (column
///   order); owned reports convert via `DataUserMeasurement::as_view`.
///
/// `out`'s buffers are reused, so a warm caller allocates nothing.
pub fn forward_region<'m, I>(
    fwd_load_w: &[f64],
    pmax_w: f64,
    gamma_s: f64,
    reqs: I,
    out: &mut Region,
) where
    I: IntoIterator<Item = MeasurementView<'m>>,
    I::IntoIter: Clone,
{
    assert!(pmax_w > 0.0 && gamma_s > 0.0);
    let reqs = reqs.into_iter();
    let n = reqs.clone().count();
    out.a.clear();
    out.b.clear();
    out.cells.clear();
    for (j, r) in reqs.enumerate() {
        for cell in r.reduced_set {
            // ΔP at this cell per unit m: γ_s · P_{j,cell} · α^{FL}.
            let p_jk = r
                .fch_fwd_power
                .iter()
                .find(|(c, _)| c == cell)
                .map(|&(_, p)| p)
                .unwrap_or(0.0);
            if p_jk <= 0.0 {
                continue;
            }
            let coeff = gamma_s * p_jk * r.alpha_fl;
            out.row_for(*cell, n)[j] += coeff;
        }
    }
    for i in 0..out.cells.len() {
        let headroom = (pmax_w - fwd_load_w[out.cells[i].index()]).max(0.0);
        out.b.push(headroom);
    }
}

/// Rebuilds `out` as the reverse-link admissible region (eq. 9–18).
///
/// * `rev_load_w` — current reverse received power per cell, `L_k`;
/// * `lmax_w` — interference limit `L_max`;
/// * `kappa` — shadowing margin applied to projected neighbour interference.
///
/// `out`'s buffers are reused, so a warm caller allocates nothing.
pub fn reverse_region<'m, I>(
    rev_load_w: &[f64],
    lmax_w: f64,
    gamma_s: f64,
    kappa: f64,
    reqs: I,
    out: &mut Region,
) where
    I: IntoIterator<Item = MeasurementView<'m>>,
    I::IntoIter: Clone,
{
    assert!(lmax_w > 0.0 && gamma_s > 0.0 && kappa >= 1.0);
    let reqs = reqs.into_iter();
    let n = reqs.clone().count();
    out.a.clear();
    out.b.clear();
    out.cells.clear();
    for (j, r) in reqs.enumerate() {
        // Host cell = strongest reduced-set member; used for projection.
        let host = *r.reduced_set.first().expect("reduced set never empty");
        let host_trl = r
            .rev_pilot_ecio
            .iter()
            .find(|(c, _)| *c == host)
            .map(|&(_, t)| t)
            .unwrap_or(0.0);
        let host_l = rev_load_w[host.index()];
        let host_tfl = r
            .fwd_pilot_ecio
            .iter()
            .find(|(c, _)| *c == host)
            .map(|&(_, t)| t)
            .unwrap_or(0.0);

        // Soft hand-off cells: direct reverse-pilot-based loading (eq. 12).
        for &(cell, t_rl) in r.rev_pilot_ecio {
            if t_rl <= 0.0 {
                continue;
            }
            let coeff = gamma_s * r.alpha_rl * r.zeta * t_rl * rev_load_w[cell.index()];
            out.row_for(cell, n)[j] += coeff;
        }
        // Neighbour cells from the SCRM, projected via relative path loss
        // (eq. 13–15): δP_{k,k'} = t^{FL}_{j,k'} / t^{FL}_{j,host}.
        if host_trl > 0.0 && host_tfl > 0.0 {
            for &(cell, t_fl) in r.fwd_pilot_ecio {
                if r.rev_pilot_ecio.iter().any(|(c, _)| *c == cell) {
                    continue; // already covered by the direct measurement
                }
                if t_fl <= 0.0 {
                    continue;
                }
                let rel_path = t_fl / host_tfl;
                let coeff = gamma_s * r.alpha_rl * r.zeta * host_trl * host_l * rel_path * kappa;
                out.row_for(cell, n)[j] += coeff;
            }
        }
    }
    for i in 0..out.cells.len() {
        let headroom = (lmax_w - rev_load_w[out.cells[i].index()]).max(0.0);
        out.b.push(headroom);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcdma_cdma::DataUserMeasurement;

    fn meas(
        mobile: usize,
        reduced: Vec<u32>,
        fch: Vec<(u32, f64)>,
        rev_pilot: Vec<(u32, f64)>,
        fwd_pilot: Vec<(u32, f64)>,
    ) -> DataUserMeasurement {
        DataUserMeasurement {
            mobile,
            active_set: reduced.iter().map(|&c| CellId(c)).collect(),
            reduced_set: reduced.iter().map(|&c| CellId(c)).collect(),
            fch_fwd_power: fch.into_iter().map(|(c, p)| (CellId(c), p)).collect(),
            alpha_fl: 1.0,
            alpha_rl: 1.0,
            zeta: 2.0,
            rev_pilot_ecio: rev_pilot.into_iter().map(|(c, t)| (CellId(c), t)).collect(),
            fwd_pilot_ecio: fwd_pilot.into_iter().map(|(c, t)| (CellId(c), t)).collect(),
            fch_ebi0_fwd: 5.0,
            fch_ebi0_rev: 5.0,
        }
    }

    #[test]
    fn forward_region_matches_hand_computation() {
        // Two users; user 0 on cells {0,1}, user 1 on cell {1}.
        let m0 = meas(0, vec![0, 1], vec![(0, 0.5), (1, 0.8)], vec![], vec![]);
        let m1 = meas(1, vec![1], vec![(1, 0.3)], vec![], vec![]);
        let loads = vec![12.0, 15.0];
        let mut region = Region::default();
        forward_region(&loads, 20.0, 2.0, [m0.as_view(), m1.as_view()], &mut region);
        // Expected rows: cell0: [2*0.5, 0] ≤ 8; cell1: [2*0.8, 2*0.3] ≤ 5.
        assert_eq!(region.cells.len(), 2);
        let idx0 = region.cells.iter().position(|c| *c == CellId(0)).unwrap();
        let idx1 = region.cells.iter().position(|c| *c == CellId(1)).unwrap();
        assert!((region.row(idx0)[0] - 1.0).abs() < 1e-12);
        assert!((region.row(idx0)[1]).abs() < 1e-12);
        assert!((region.b[idx0] - 8.0).abs() < 1e-12);
        assert!((region.row(idx1)[0] - 1.6).abs() < 1e-12);
        assert!((region.row(idx1)[1] - 0.6).abs() < 1e-12);
        assert!((region.b[idx1] - 5.0).abs() < 1e-12);
        // eq. (7) check: m = (2, 3): cell1 lhs = 3.2+1.8 = 5.0 ≤ 5 ✓.
        assert!(region.admits(&[2, 3]));
        assert!(!region.admits(&[3, 3]));
    }

    #[test]
    fn forward_alpha_scales_cost() {
        let mut m0 = meas(0, vec![0], vec![(0, 1.0)], vec![], vec![]);
        m0.alpha_fl = 1.5;
        let mut region = Region::default();
        forward_region(&[10.0], 20.0, 1.0, [m0.as_view()], &mut region);
        assert!((region.row(0)[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn forward_overloaded_cell_gives_zero_headroom() {
        let m0 = meas(0, vec![0], vec![(0, 1.0)], vec![], vec![]);
        let mut region = Region::default();
        forward_region(&[25.0], 20.0, 1.0, [m0.as_view()], &mut region);
        assert_eq!(region.b[0], 0.0);
        assert!(region.admits(&[0]));
        assert!(!region.admits(&[1]));
    }

    #[test]
    fn reverse_region_soft_handoff_row() {
        // Eq. 12: coeff = γ_s·α·ζ·t_rl·L_k = 1·1·2·0.01·1e-12.
        let m0 = meas(0, vec![0], vec![(0, 0.1)], vec![(0, 0.01)], vec![(0, 0.05)]);
        let loads = vec![1e-12];
        let mut region = Region::default();
        reverse_region(&loads, 4e-12, 1.0, 1.0, [m0.as_view()], &mut region);
        assert_eq!(region.cells, vec![CellId(0)]);
        assert!((region.row(0)[0] - 2.0 * 0.01 * 1e-12).abs() < 1e-24);
        assert!((region.b[0] - 3e-12).abs() < 1e-24);
    }

    #[test]
    fn reverse_region_neighbour_projection() {
        // Host cell 0 (soft hand-off), neighbour cell 1 only in the SCRM.
        // Projection: coeff1 = γ_s·α·ζ·t_rl_host·L_host·(t_fl1/t_fl0)·κ.
        let m0 = meas(
            0,
            vec![0],
            vec![(0, 0.1)],
            vec![(0, 0.01)],
            vec![(0, 0.05), (1, 0.025)],
        );
        let loads = vec![1e-12, 2e-12];
        let kappa = wcdma_math::db_to_lin(2.0);
        let mut region = Region::default();
        reverse_region(&loads, 4e-12, 1.0, kappa, [m0.as_view()], &mut region);
        assert_eq!(region.cells.len(), 2);
        let i1 = region.cells.iter().position(|c| *c == CellId(1)).unwrap();
        let expect = 2.0 * 0.01 * 1e-12 * (0.025 / 0.05) * kappa;
        assert!(
            (region.row(i1)[0] - expect).abs() / expect < 1e-12,
            "projected coeff {} vs {expect}",
            region.row(i1)[0]
        );
        // Neighbour headroom uses its own load.
        assert!((region.b[i1] - 2e-12).abs() < 1e-24);
    }

    #[test]
    fn reverse_region_no_double_counting() {
        // A cell both in soft hand-off and in the SCRM must appear once,
        // with the direct (pilot-measured) coefficient.
        let m0 = meas(0, vec![0], vec![(0, 0.1)], vec![(0, 0.01)], vec![(0, 0.05)]);
        let mut region = Region::default();
        reverse_region(&[1e-12], 4e-12, 1.0, 1.58, [m0.as_view()], &mut region);
        assert_eq!(region.cells.len(), 1);
        assert!((region.row(0)[0] - 2.0 * 0.01 * 1e-12).abs() < 1e-24);
    }

    #[test]
    fn region_slack_accounting() {
        let m0 = meas(0, vec![0], vec![(0, 1.0)], vec![], vec![]);
        let mut region = Region::default();
        forward_region(&[10.0], 20.0, 1.0, [m0.as_view()], &mut region);
        let s = region.slack(&[4]);
        assert!((s[0] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn region_to_problem_roundtrip() {
        // The region's flat rows are the ILP's constraint matrix verbatim.
        let m0 = meas(0, vec![0], vec![(0, 1.0)], vec![], vec![]);
        let m1 = meas(1, vec![0], vec![(0, 2.0)], vec![], vec![]);
        let mut region = Region::default();
        let reqs = [m0.as_view(), m1.as_view()];
        forward_region(&[10.0], 20.0, 1.0, reqs, &mut region);
        let p = wcdma_ilp::Problem::from_flat(
            vec![1.0, 1.0],
            region.a.clone(),
            region.b.clone(),
            vec![1, 1],
            vec![16, 16],
        );
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), region.rows().len());
        assert_eq!(p.row(0), region.row(0));
        let (sol, complete) = wcdma_ilp::branch_and_bound(&p, 0);
        assert!(complete);
        assert!(region.admits(&sol.m), "solver output must stay admissible");
    }

    #[test]
    fn zero_requests_give_an_empty_region() {
        // A rebuild over no requests leaves no stale rows behind.
        let m0 = meas(0, vec![0], vec![(0, 1.0)], vec![(0, 0.01)], vec![(0, 0.05)]);
        let mut region = Region::default();
        reverse_region(&[1e-12], 4e-12, 1.0, 1.0, [m0.as_view()], &mut region);
        reverse_region(&[1e-12], 4e-12, 1.0, 1.0, [], &mut region);
        assert_eq!(region, Region::default());
        assert_eq!(region.rows().len(), 0);
        assert!(region.admits(&[]));
        assert!(region.slack(&[]).is_empty());
    }
}
