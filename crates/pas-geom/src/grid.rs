//! Uniform spatial hash grid for radius queries.
//!
//! Neighbour discovery ("which sensors are within transmission range r of
//! me?") is the hottest geometric query in the simulator: it runs for every
//! REQUEST broadcast. The grid buckets points into cells of side
//! `cell_size`; a radius query visits only the O(⌈r/cell⌉²) nearby cells
//! instead of scanning all n points.
//!
//! Choosing `cell_size` equal to the typical query radius keeps the visited
//! cell count at 9 and the candidate set small — the standard tuning for
//! unit-disk neighbourhood queries.

use crate::vec2::Vec2;
use std::collections::HashMap;

/// Key of a grid cell (integer cell coordinates).
type CellKey = (i64, i64);

/// A uniform spatial hash over `(id, position)` pairs.
///
/// `Id` is any copyable identifier (node ids in practice). Positions are
/// unconstrained — the grid is unbounded and sparse.
#[derive(Debug, Clone)]
pub struct SpatialGrid<Id = usize> {
    cell_size: f64,
    cells: HashMap<CellKey, Vec<(Id, Vec2)>>,
    len: usize,
}

impl<Id: Copy> SpatialGrid<Id> {
    /// Create a grid with the given cell side length.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell_size must be positive and finite"
        );
        SpatialGrid {
            cell_size,
            cells: HashMap::new(),
            len: 0,
        }
    }

    /// Build a grid from an iterator of `(id, position)` pairs.
    pub fn from_points<I>(cell_size: f64, points: I) -> Self
    where
        I: IntoIterator<Item = (Id, Vec2)>,
    {
        let mut g = SpatialGrid::new(cell_size);
        for (id, p) in points {
            g.insert(id, p);
        }
        g
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no points are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn key_of(&self, p: Vec2) -> CellKey {
        (
            (p.x / self.cell_size).floor() as i64,
            (p.y / self.cell_size).floor() as i64,
        )
    }

    /// Insert a point. Duplicate ids are allowed (the grid is a multiset);
    /// static deployments never exercise that, but it keeps insertion O(1).
    pub fn insert(&mut self, id: Id, p: Vec2) {
        assert!(p.is_finite(), "SpatialGrid positions must be finite");
        self.cells.entry(self.key_of(p)).or_default().push((id, p));
        self.len += 1;
    }

    /// Iterator over all `(id, position)` pairs within `radius` of `center`
    /// (inclusive boundary). Order is unspecified but deterministic for a
    /// fixed insertion sequence.
    pub fn query_radius(&self, center: Vec2, radius: f64) -> impl Iterator<Item = (Id, Vec2)> + '_ {
        assert!(radius >= 0.0, "query radius must be non-negative");
        let r_sq = radius * radius;
        let min_key = self.key_of(center - Vec2::splat(radius));
        let max_key = self.key_of(center + Vec2::splat(radius));
        (min_key.0..=max_key.0)
            .flat_map(move |cx| (min_key.1..=max_key.1).map(move |cy| (cx, cy)))
            .filter_map(move |key| self.cells.get(&key))
            .flatten()
            .filter(move |(_, p)| center.distance_sq(*p) <= r_sq)
            .copied()
    }

    /// Collect ids within `radius` of `center` into a vector.
    pub fn ids_within(&self, center: Vec2, radius: f64) -> Vec<Id> {
        self.query_radius(center, radius)
            .map(|(id, _)| id)
            .collect()
    }

    /// Iterator over every stored `(id, position)` pair.
    pub fn iter(&self) -> impl Iterator<Item = (Id, Vec2)> + '_ {
        self.cells.values().flatten().copied()
    }

    /// Nearest stored point to `center`, or `None` if the grid is empty.
    ///
    /// Searches rings of cells outward; O(1) for dense data, O(cells) worst
    /// case for a near-empty grid.
    pub fn nearest(&self, center: Vec2) -> Option<(Id, Vec2)> {
        if self.is_empty() {
            return None;
        }
        let mut best: Option<(Id, Vec2, f64)> = None;
        let center_key = self.key_of(center);
        let mut ring: i64 = 0;
        loop {
            let mut found_any = false;
            for cx in (center_key.0 - ring)..=(center_key.0 + ring) {
                for cy in (center_key.1 - ring)..=(center_key.1 + ring) {
                    // Only the new ring boundary, not the already-seen core.
                    if ring > 0
                        && (cx - center_key.0).abs() < ring
                        && (cy - center_key.1).abs() < ring
                    {
                        continue;
                    }
                    if let Some(cell) = self.cells.get(&(cx, cy)) {
                        found_any = true;
                        for &(id, p) in cell {
                            let d = center.distance_sq(p);
                            if best.is_none_or(|(_, _, bd)| d < bd) {
                                best = Some((id, p, d));
                            }
                        }
                    }
                }
            }
            // A hit in ring k can still be beaten by ring k+1 (corner vs edge
            // distances), so expand one extra ring after the first hit.
            if let Some((id, p, d)) = best {
                let safe_radius = (ring as f64) * self.cell_size;
                if found_any && d.sqrt() <= safe_radius || ring > 1_000_000 {
                    return Some((id, p));
                }
                if !found_any && d.sqrt() <= safe_radius {
                    return Some((id, p));
                }
            }
            ring += 1;
            if ring > 1_000_000 {
                // Pathological sparse grid; fall back to the best seen.
                return best.map(|(id, p, _)| (id, p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_grid() -> SpatialGrid<usize> {
        SpatialGrid::from_points(
            5.0,
            vec![
                (0, Vec2::new(0.0, 0.0)),
                (1, Vec2::new(3.0, 4.0)),
                (2, Vec2::new(10.0, 0.0)),
                (3, Vec2::new(-7.0, -7.0)),
                (4, Vec2::new(100.0, 100.0)),
            ],
        )
    }

    #[test]
    fn basic_radius_query() {
        let g = demo_grid();
        let mut ids = g.ids_within(Vec2::ZERO, 5.0);
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]); // (3,4) is at distance exactly 5 — inclusive
    }

    #[test]
    fn boundary_inclusive() {
        let g = demo_grid();
        let ids = g.ids_within(Vec2::ZERO, 10.0);
        assert!(ids.contains(&2), "distance exactly 10 must be included");
    }

    #[test]
    fn empty_and_zero_radius() {
        let g: SpatialGrid<usize> = SpatialGrid::new(1.0);
        assert!(g.is_empty());
        assert_eq!(g.ids_within(Vec2::ZERO, 100.0), Vec::<usize>::new());

        let g = demo_grid();
        let ids = g.ids_within(Vec2::new(10.0, 0.0), 0.0);
        assert_eq!(ids, vec![2]); // zero radius still matches exact hits
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_cell_size() {
        let _: SpatialGrid<usize> = SpatialGrid::new(0.0);
    }

    #[test]
    fn negative_coordinates() {
        let g = demo_grid();
        let ids = g.ids_within(Vec2::new(-7.0, -7.0), 1.0);
        assert_eq!(ids, vec![3]);
    }

    #[test]
    fn matches_naive_scan() {
        // Deterministic scatter, compare grid query vs brute force.
        let mut pts = Vec::new();
        let mut s: u64 = 42;
        for i in 0..500usize {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((s >> 33) as f64) / (u32::MAX as f64) * 100.0 - 50.0;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((s >> 33) as f64) / (u32::MAX as f64) * 100.0 - 50.0;
            pts.push((i, Vec2::new(x, y)));
        }
        let g = SpatialGrid::from_points(7.0, pts.iter().copied());
        for &(_, c) in pts.iter().step_by(37) {
            for radius in [0.5, 5.0, 12.0, 60.0] {
                let mut got = g.ids_within(c, radius);
                got.sort_unstable();
                let mut want: Vec<usize> = pts
                    .iter()
                    .filter(|(_, p)| c.distance(*p) <= radius)
                    .map(|(i, _)| *i)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "center {c} radius {radius}");
            }
        }
    }

    #[test]
    fn iter_sees_everything() {
        let g = demo_grid();
        assert_eq!(g.len(), 5);
        assert_eq!(g.iter().count(), 5);
    }

    #[test]
    fn nearest_point() {
        let g = demo_grid();
        let (id, _) = g.nearest(Vec2::new(9.0, 1.0)).unwrap();
        assert_eq!(id, 2);
        let (id, _) = g.nearest(Vec2::new(99.0, 99.0)).unwrap();
        assert_eq!(id, 4);
        let empty: SpatialGrid<usize> = SpatialGrid::new(1.0);
        assert!(empty.nearest(Vec2::ZERO).is_none());
    }

    #[test]
    fn nearest_matches_naive() {
        let mut pts = Vec::new();
        let mut s: u64 = 7;
        for i in 0..200usize {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((s >> 33) as f64) / (u32::MAX as f64) * 40.0;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((s >> 33) as f64) / (u32::MAX as f64) * 40.0;
            pts.push((i, Vec2::new(x, y)));
        }
        let g = SpatialGrid::from_points(3.0, pts.iter().copied());
        for probe in [
            Vec2::new(0.0, 0.0),
            Vec2::new(20.0, 20.0),
            Vec2::new(40.0, 0.0),
            Vec2::new(-10.0, 55.0),
        ] {
            let (got, gp) = g.nearest(probe).unwrap();
            let (want, wp) = pts
                .iter()
                .min_by(|a, b| {
                    probe
                        .distance_sq(a.1)
                        .partial_cmp(&probe.distance_sq(b.1))
                        .unwrap()
                })
                .copied()
                .unwrap();
            // Ties can pick either point; compare distances not ids.
            assert!(
                (probe.distance(gp) - probe.distance(wp)).abs() < 1e-12,
                "probe {probe}: got {got} want {want}"
            );
        }
    }
}
