//! Hexagonal cell layout with toroidal wrap-around.
//!
//! A standard 19-cell (two-ring) hexagonal cluster. Distances between a
//! mobile and every base station are computed with wrap-around: the mobile's
//! position is mirrored into the 9 translated copies of the cluster bounding
//! region and the shortest distance wins. This gives every cell a full
//! complement of interferers, as in the dynamic-simulation methodology of
//! Kumar & Nanda \[2\] the paper follows.

/// Identifier of a cell / base station.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// Index into per-cell arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A 2-D position in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// x coordinate (m).
    pub x: f64,
    /// y coordinate (m).
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Hexagonal multi-ring layout with wrap-around distance computation.
#[derive(Debug, Clone)]
pub struct HexLayout {
    cell_radius: f64,
    sites: Vec<Point>,
    /// Wrap-around translation vectors (including the identity).
    translations: Vec<Point>,
}

impl HexLayout {
    /// Builds a hexagonal cluster with the given number of rings around the
    /// centre cell (`rings = 2` ⇒ the classic 19-cell layout) and cell
    /// radius (centre-to-vertex) in metres.
    pub fn new(rings: u32, cell_radius: f64) -> Self {
        assert!(cell_radius > 0.0, "cell radius must be positive");
        // Hex grid with pointy-top axial coordinates; site distance between
        // neighbouring cells is sqrt(3)·R.
        let d = 3f64.sqrt() * cell_radius;
        let mut sites = Vec::new();
        let n = rings as i32;
        for q in -n..=n {
            for r in (-n).max(-q - n)..=n.min(-q + n) {
                let x = d * (q as f64 + r as f64 / 2.0);
                let y = d * (3f64.sqrt() / 2.0) * r as f64;
                sites.push(Point::new(x, y));
            }
        }
        // Sort: centre first, then by distance/angle for stable ids.
        sites.sort_by(|a, b| {
            let da = a.x * a.x + a.y * a.y;
            let db = b.x * b.x + b.y * b.y;
            da.partial_cmp(&db)
                .unwrap()
                .then(a.y.atan2(a.x).partial_cmp(&b.y.atan2(b.x)).unwrap())
        });

        // Wrap-around translations for a hex cluster of this size: the
        // cluster approximately tiles the plane with these six lattice
        // vectors (standard 19-cell wrap-around construction).
        let k = rings as f64 + 0.5;
        let span = d * (2.0 * k);
        let mut translations = vec![Point::new(0.0, 0.0)];
        for i in 0..6 {
            let ang = core::f64::consts::PI / 3.0 * i as f64 + core::f64::consts::PI / 6.0;
            translations.push(Point::new(span * ang.cos(), span * ang.sin()));
        }
        Self {
            cell_radius,
            sites,
            translations,
        }
    }

    /// The classic 19-cell layout with 1 km radius.
    pub fn nineteen_cell_default() -> Self {
        Self::new(2, 1000.0)
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.sites.len()
    }

    /// Base-station site of `cell`.
    pub fn site(&self, cell: CellId) -> Point {
        self.sites[cell.index()]
    }

    /// All cell ids.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.sites.len() as u32).map(CellId)
    }

    /// Cell radius in metres.
    pub fn cell_radius(&self) -> f64 {
        self.cell_radius
    }

    /// Wrap-around distance from `p` to the site of `cell`: the minimum over
    /// all cluster translations.
    pub fn distance(&self, p: Point, cell: CellId) -> f64 {
        let site = self.sites[cell.index()];
        // Minimise the squared distance and take one square root at the
        // end; sqrt is monotone and correctly rounded, so the result is
        // bit-identical to minimising per-translation distances.
        let mut best = f64::INFINITY;
        for t in &self.translations {
            let dx = p.x + t.x - site.x;
            let dy = p.y + t.y - site.y;
            let d2 = dx * dx + dy * dy;
            if d2 < best {
                best = d2;
            }
        }
        best.sqrt()
    }

    /// Wrap-around distances from `p` to every cell site at once
    /// (`out.len() == num_cells()`), the batched kernel behind the
    /// per-frame gain refresh: each translated copy of `p` is formed once
    /// and compared against all sites, and only one square root is taken
    /// per cell. Produces exactly the values of [`HexLayout::distance`].
    pub fn distances_into(&self, p: Point, out: &mut [f64]) {
        assert_eq!(out.len(), self.sites.len(), "one slot per cell");
        out.fill(f64::INFINITY);
        for t in &self.translations {
            let sx = p.x + t.x;
            let sy = p.y + t.y;
            for (site, best) in self.sites.iter().zip(out.iter_mut()) {
                let dx = sx - site.x;
                let dy = sy - site.y;
                let d2 = dx * dx + dy * dy;
                if d2 < *best {
                    *best = d2;
                }
            }
        }
        for d in out.iter_mut() {
            *d = d.sqrt();
        }
    }

    /// Wrap-around distances from `p` to a *subset* of cell sites
    /// (`out.len() == cells.len()`, `cells[i]` indexes a site): the
    /// kernel behind per-mobile candidate cell lists, where only the
    /// top-K nearest cells need a fresh distance each frame.
    ///
    /// Per cell this is the exact arithmetic of [`HexLayout::distance`]
    /// (minimum squared distance over all translations, one square root
    /// at the end), so for any subset the values are bit-identical to the
    /// corresponding entries of [`HexLayout::distances_into`] — the
    /// property the culled-equals-unculled determinism test relies on.
    pub fn distances_subset_into(&self, p: Point, cells: &[u32], out: &mut [f64]) {
        assert_eq!(out.len(), cells.len(), "one slot per listed cell");
        for (&c, slot) in cells.iter().zip(out.iter_mut()) {
            let site = self.sites[c as usize];
            let mut best = f64::INFINITY;
            for t in &self.translations {
                let dx = p.x + t.x - site.x;
                let dy = p.y + t.y - site.y;
                let d2 = dx * dx + dy * dy;
                if d2 < best {
                    best = d2;
                }
            }
            *slot = best.sqrt();
        }
    }

    /// The cell whose site is nearest to `p` (wrap-around metric).
    pub fn nearest_cell(&self, p: Point) -> CellId {
        let mut best = (CellId(0), f64::INFINITY);
        for c in self.cells() {
            let d = self.distance(p, c);
            if d < best.1 {
                best = (c, d);
            }
        }
        best.0
    }

    /// Cells ordered by wrap-around distance from `p` (nearest first).
    pub fn cells_by_distance(&self, p: Point) -> Vec<(CellId, f64)> {
        let mut v: Vec<(CellId, f64)> = self.cells().map(|c| (c, self.distance(p, c))).collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        v
    }

    /// Uniformly samples a point inside the hexagon of `cell` (rejection
    /// from the bounding box).
    pub fn random_point_in_cell(&self, cell: CellId, rng: &mut wcdma_math::Xoshiro256pp) -> Point {
        let site = self.sites[cell.index()];
        let r = self.cell_radius;
        loop {
            let x = rng.uniform(-r, r);
            let y = rng.uniform(-r, r);
            if point_in_hex(x, y, r) {
                return Point::new(site.x + x, site.y + y);
            }
        }
    }
}

/// Point-in-hexagon test for a pointy-top hexagon of radius `r` centred at
/// the origin.
fn point_in_hex(x: f64, y: f64, r: f64) -> bool {
    let q2x = x.abs();
    let q2y = y.abs();
    let v = r * 3f64.sqrt() / 2.0;
    if q2x > v {
        return false;
    }
    // Hexagon edge: from (v, r/2) to (0, r).
    r * v - 0.5 * r * q2x - v * q2y >= -1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcdma_math::Xoshiro256pp;

    #[test]
    fn nineteen_cells() {
        let l = HexLayout::nineteen_cell_default();
        assert_eq!(l.num_cells(), 19);
        // Centre cell at the origin, id 0.
        let c0 = l.site(CellId(0));
        assert!(c0.x.abs() < 1e-9 && c0.y.abs() < 1e-9);
    }

    #[test]
    fn seven_cells_one_ring() {
        let l = HexLayout::new(1, 500.0);
        assert_eq!(l.num_cells(), 7);
    }

    #[test]
    fn neighbour_distance_is_sqrt3_r() {
        let l = HexLayout::nineteen_cell_default();
        // Ring-1 sites are sqrt(3)*R from the centre.
        let d = l.site(CellId(1)).dist(l.site(CellId(0)));
        assert!((d - 3f64.sqrt() * 1000.0).abs() < 1e-6);
    }

    #[test]
    fn nearest_cell_at_site_is_itself() {
        let l = HexLayout::nineteen_cell_default();
        for c in l.cells() {
            assert_eq!(l.nearest_cell(l.site(c)), c);
        }
    }

    #[test]
    fn wraparound_never_exceeds_direct() {
        let l = HexLayout::nineteen_cell_default();
        let p = Point::new(4000.0, 2500.0);
        for c in l.cells() {
            assert!(l.distance(p, c) <= p.dist(l.site(c)) + 1e-9);
        }
    }

    #[test]
    fn cells_by_distance_sorted_and_complete() {
        let l = HexLayout::nineteen_cell_default();
        let v = l.cells_by_distance(Point::new(300.0, -200.0));
        assert_eq!(v.len(), 19);
        for w in v.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn subset_distances_match_full_kernel_bitwise() {
        let l = HexLayout::nineteen_cell_default();
        let mut rng = Xoshiro256pp::new(7);
        let mut full = vec![0.0; l.num_cells()];
        for _ in 0..50 {
            let p = Point::new(rng.uniform(-4000.0, 4000.0), rng.uniform(-4000.0, 4000.0));
            l.distances_into(p, &mut full);
            // Identity subset.
            let all: Vec<u32> = (0..l.num_cells() as u32).collect();
            let mut sub = vec![0.0; all.len()];
            l.distances_subset_into(p, &all, &mut sub);
            for (a, b) in full.iter().zip(&sub) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // Sparse subset, arbitrary order.
            let some = [17u32, 0, 9, 3];
            let mut sparse = vec![0.0; some.len()];
            l.distances_subset_into(p, &some, &mut sparse);
            for (i, &c) in some.iter().enumerate() {
                assert_eq!(sparse[i].to_bits(), full[c as usize].to_bits());
            }
        }
    }

    #[test]
    fn random_points_fall_in_cell() {
        let l = HexLayout::nineteen_cell_default();
        let mut rng = Xoshiro256pp::new(1);
        for c in [CellId(0), CellId(7), CellId(18)] {
            for _ in 0..200 {
                let p = l.random_point_in_cell(c, &mut rng);
                // Direct distance to own site within the hex circumradius.
                assert!(p.dist(l.site(c)) <= l.cell_radius() + 1e-9);
            }
        }
    }

    #[test]
    fn random_points_mostly_nearest_own_cell() {
        // Hexagons tile: a uniform point in cell c has c as its nearest site
        // (up to boundary ties).
        let l = HexLayout::nineteen_cell_default();
        let mut rng = Xoshiro256pp::new(2);
        let mut own = 0;
        let n = 500;
        for _ in 0..n {
            let p = l.random_point_in_cell(CellId(0), &mut rng);
            if l.nearest_cell(p) == CellId(0) {
                own += 1;
            }
        }
        assert!(own as f64 / n as f64 > 0.95, "only {own}/{n} nearest own");
    }

    #[test]
    fn hex_test_basic() {
        assert!(point_in_hex(0.0, 0.0, 1.0));
        assert!(point_in_hex(0.0, 0.99, 1.0));
        assert!(!point_in_hex(0.0, 1.01, 1.0));
        assert!(point_in_hex(0.86, 0.0, 1.0));
        assert!(!point_in_hex(0.88, 0.0, 1.0));
        // Corner region excluded.
        assert!(!point_in_hex(0.86, 0.51, 1.0));
    }
}
