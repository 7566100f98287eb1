//! Unit-disk network topology.
//!
//! The paper's setup: "each node has a transmission range of 10m" — the
//! classic unit-disk model. [`Topology`] owns the node positions and the
//! range, precomputes each node's neighbour list once (every broadcast needs
//! it), and reports the degree statistics WSN papers quote.

use pas_geom::{SpatialGrid, Vec2};
use serde::{Deserialize, Serialize};

/// Static unit-disk topology: positions, range, precomputed neighbours.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    positions: Vec<Vec2>,
    range: f64,
    /// Node `i`'s neighbours are `neighbors[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Sorted neighbour ids per node (excluding the node itself), all
    /// nodes' lists in one array.
    neighbors: Vec<usize>,
}

impl Topology {
    /// Build from positions and a transmission range.
    ///
    /// # Panics
    /// Panics if `positions` is empty, the range is not positive-finite, or
    /// any position is non-finite.
    pub fn new(positions: Vec<Vec2>, range: f64) -> Self {
        assert!(!positions.is_empty(), "topology needs >= 1 node");
        assert!(
            range > 0.0 && range.is_finite(),
            "transmission range must be positive"
        );
        for (i, p) in positions.iter().enumerate() {
            assert!(p.is_finite(), "node {i} has non-finite position {p}");
        }
        // Below a few hundred nodes a direct O(n²) scan beats building the
        // spatial hash (no allocation per cell, no hash walk), and at the
        // paper's n=100 it is the difference between topology construction
        // showing up in `pas bench` and not. The predicate is the same
        // squared comparison the grid uses, so both paths produce identical
        // neighbour sets even at the range boundary; the scan visits j in
        // ascending order, so no sort is needed.
        let mut offsets = Vec::with_capacity(positions.len() + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        if positions.len() <= 256 {
            let r_sq = range * range;
            for (i, &p) in positions.iter().enumerate() {
                let near = positions.iter().enumerate();
                let near = near.filter(|&(j, q)| j != i && p.distance_sq(*q) <= r_sq);
                neighbors.extend(near.map(|(j, _)| j));
                offsets.push(neighbors.len());
            }
        } else {
            // Spatial hash sized to the query radius (guide idiom: cell ≈
            // range).
            let grid = SpatialGrid::from_points(range, positions.iter().copied().enumerate());
            for (i, &p) in positions.iter().enumerate() {
                let start = neighbors.len();
                let near = grid.query_radius(p, range).map(|(id, _)| id);
                neighbors.extend(near.filter(|&id| id != i));
                neighbors[start..].sort_unstable();
                offsets.push(neighbors.len());
            }
        }
        Topology {
            positions,
            range,
            offsets,
            neighbors,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if the topology has no nodes (unreachable via constructor).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Transmission range in metres.
    #[inline]
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Position of node `i`.
    #[inline]
    pub fn position(&self, i: usize) -> Vec2 {
        self.positions[i]
    }

    /// All positions.
    #[inline]
    pub fn positions(&self) -> &[Vec2] {
        &self.positions
    }

    /// Sorted neighbour ids of node `i` (excluding `i`).
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Euclidean distance between nodes `a` and `b`.
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        self.positions[a].distance(self.positions[b])
    }

    /// `true` if nodes `a` and `b` are within range of each other.
    pub fn in_range(&self, a: usize, b: usize) -> bool {
        a != b && self.distance(a, b) <= self.range
    }

    /// Degree (neighbour count) of node `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// (min, mean, max) node degree.
    pub fn degree_stats(&self) -> (usize, f64, usize) {
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0usize;
        for degree in self.offsets.windows(2).map(|w| w[1] - w[0]) {
            min = min.min(degree);
            max = max.max(degree);
            sum += degree;
        }
        (min, sum as f64 / self.len() as f64, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five nodes on a line, spacing 8, range 10: a path graph.
    fn line_topology() -> Topology {
        let positions = (0..5).map(|i| Vec2::new(i as f64 * 8.0, 0.0)).collect();
        Topology::new(positions, 10.0)
    }

    #[test]
    fn neighbors_symmetric_and_sorted() {
        let t = line_topology();
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.neighbors(1), &[0, 2]);
        assert_eq!(t.neighbors(4), &[3]);
        for i in 0..t.len() {
            for &j in t.neighbors(i) {
                assert!(t.neighbors(j).contains(&i), "asymmetric {i}-{j}");
            }
        }
    }

    #[test]
    fn in_range_boundary_inclusive() {
        let t = Topology::new(vec![Vec2::ZERO, Vec2::new(10.0, 0.0)], 10.0);
        assert!(t.in_range(0, 1), "exactly at range is in range");
        assert!(!t.in_range(0, 0), "self is never a neighbour");
        let t2 = Topology::new(vec![Vec2::ZERO, Vec2::new(10.01, 0.0)], 10.0);
        assert!(!t2.in_range(0, 1));
        assert_eq!(t2.degree(0), 0);
    }

    #[test]
    fn degree_stats() {
        let t = line_topology();
        let (min, mean, max) = t.degree_stats();
        assert_eq!(min, 1);
        assert_eq!(max, 2);
        assert!((mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn single_node() {
        let t = Topology::new(vec![Vec2::ZERO], 10.0);
        assert_eq!(t.degree(0), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn matches_brute_force_on_random_layout() {
        let mut rng = pas_sim::Rng::new(5);
        let positions = crate::deploy::uniform(pas_geom::Aabb::from_size(60.0, 60.0), 80, &mut rng);
        let t = Topology::new(positions.clone(), 12.0);
        for i in 0..positions.len() {
            let mut want: Vec<usize> = (0..positions.len())
                .filter(|&j| j != i && positions[i].distance(positions[j]) <= 12.0)
                .collect();
            want.sort_unstable();
            assert_eq!(t.neighbors(i), want.as_slice(), "node {i}");
        }
    }

    #[test]
    fn grid_path_matches_direct_scan_above_threshold() {
        // 300 nodes takes the spatial-grid path; the 256-node direct scan
        // must agree with it exactly (same squared-distance predicate).
        let mut rng = pas_sim::Rng::new(9);
        let positions =
            crate::deploy::uniform(pas_geom::Aabb::from_size(80.0, 80.0), 300, &mut rng);
        let t = Topology::new(positions.clone(), 11.0);
        let r_sq = 11.0f64 * 11.0;
        for i in 0..positions.len() {
            let want: Vec<usize> = (0..positions.len())
                .filter(|&j| j != i && positions[i].distance_sq(positions[j]) <= r_sq)
                .collect();
            assert_eq!(t.neighbors(i), want.as_slice(), "node {i}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_range() {
        let _ = Topology::new(vec![Vec2::ZERO], 0.0);
    }
}
