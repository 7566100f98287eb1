//! Fast Marching Method (FMM) eikonal solver for heterogeneous media.
//!
//! The analytic fronts assume space is homogeneous. Real pollutants spread
//! through terrain whose local speed varies (soil permeability, fuel density,
//! urban obstruction). The first-arrival time `T(x)` of a front moving at
//! local speed `F(x) > 0` along its boundary normal satisfies the eikonal
//! equation
//!
//! ```text
//! |∇T(x)| · F(x) = 1,    T(source) = 0
//! ```
//!
//! which is exactly the paper's §3.3 assumption ("stimulus spreads along the
//! normal direction of the boundary") generalised to spatially varying
//! speed. We solve it with the classic Sethian Fast Marching Method:
//! Dijkstra-like sweeping with an upwind quadratic update, O(N log N) over N
//! grid cells. Arrival at off-grid points is bilinearly interpolated.

use crate::field::StimulusField;
use pas_geom::{Aabb, Vec2};
use pas_sim::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A rectangular grid of local front speeds (m/s) over a region.
#[derive(Debug, Clone)]
pub struct SpeedGrid {
    region: Aabb,
    nx: usize,
    ny: usize,
    dx: f64,
    dy: f64,
    /// Row-major speeds: index `iy * nx + ix`.
    speeds: Vec<f64>,
}

impl SpeedGrid {
    /// Build a grid by sampling `speed_fn` at cell centres.
    ///
    /// # Panics
    /// Panics if the resolution is < 2 in either axis, the region is
    /// degenerate, or any sampled speed is not finite-positive.
    pub fn from_fn<F: Fn(Vec2) -> f64>(region: Aabb, nx: usize, ny: usize, speed_fn: F) -> Self {
        assert!(nx >= 2 && ny >= 2, "grid needs at least 2x2 cells");
        assert!(
            region.width() > 0.0 && region.height() > 0.0,
            "region must have positive area"
        );
        let dx = region.width() / (nx - 1) as f64;
        let dy = region.height() / (ny - 1) as f64;
        let mut speeds = Vec::with_capacity(nx * ny);
        for iy in 0..ny {
            for ix in 0..nx {
                let p = Vec2::new(region.min.x + ix as f64 * dx, region.min.y + iy as f64 * dy);
                let f = speed_fn(p);
                assert!(
                    f.is_finite() && f > 0.0,
                    "speed must be finite and > 0 at {p} (got {f})"
                );
                speeds.push(f);
            }
        }
        SpeedGrid {
            region,
            nx,
            ny,
            dx,
            dy,
            speeds,
        }
    }

    /// Uniform speed everywhere — for validation against analytic fronts.
    pub fn uniform(region: Aabb, nx: usize, ny: usize, speed: f64) -> Self {
        SpeedGrid::from_fn(region, nx, ny, |_| speed)
    }

    /// Grid columns.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid rows.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The covered region.
    #[inline]
    pub fn region(&self) -> Aabb {
        self.region
    }

    /// Speed at grid node `(ix, iy)`.
    #[inline]
    pub fn speed_at(&self, ix: usize, iy: usize) -> f64 {
        self.speeds[iy * self.nx + ix]
    }

    /// Nearest grid node to `p` (clamped into the region).
    pub fn nearest_node(&self, p: Vec2) -> (usize, usize) {
        let q = self.region.clamp_point(p);
        let ix = ((q.x - self.region.min.x) / self.dx).round() as usize;
        let iy = ((q.y - self.region.min.y) / self.dy).round() as usize;
        (ix.min(self.nx - 1), iy.min(self.ny - 1))
    }
}

/// Heap entry: candidate arrival time for a trial node.
#[derive(Debug, PartialEq)]
struct Trial {
    time: f64,
    idx: usize,
}
impl Eq for Trial {}
impl PartialOrd for Trial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Trial {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on time; ties broken by index for determinism.
        other
            .time
            .partial_cmp(&self.time)
            .expect("FMM times are never NaN")
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Solved first-arrival field over a [`SpeedGrid`].
///
/// Implements [`StimulusField`] by bilinear interpolation of the nodal
/// arrival times; points outside the grid region are never covered.
#[derive(Debug, Clone)]
pub struct EikonalField {
    grid: SpeedGrid,
    /// Nodal arrival times; `f64::INFINITY` = unreachable.
    arrival: Vec<f64>,
    sources: Vec<Vec2>,
    release_time: SimTime,
}

impl EikonalField {
    /// Solve the eikonal equation from the given source points.
    ///
    /// Sources are snapped to their nearest grid node and assigned arrival
    /// time zero. `release_time` offsets all arrivals.
    ///
    /// # Panics
    /// Panics if `sources` is empty or a source lies outside the region.
    pub fn solve(grid: SpeedGrid, sources: &[Vec2], release_time: SimTime) -> Self {
        assert!(!sources.is_empty(), "eikonal solve needs >= 1 source");
        for &s in sources {
            assert!(grid.region().contains(s), "source {s} outside grid region");
        }
        let n = grid.nx * grid.ny;
        let mut arrival = vec![f64::INFINITY; n];
        let mut frozen = vec![false; n];
        let mut heap: BinaryHeap<Trial> = BinaryHeap::new();

        for &s in sources {
            let (ix, iy) = grid.nearest_node(s);
            let idx = iy * grid.nx + ix;
            if arrival[idx] > 0.0 {
                arrival[idx] = 0.0;
                heap.push(Trial { time: 0.0, idx });
            }
        }

        // The upwind quadratic update for node (ix, iy).
        let update = |arrival: &Vec<f64>, grid: &SpeedGrid, ix: usize, iy: usize| -> f64 {
            let at = |ix: usize, iy: usize| arrival[iy * grid.nx + ix];
            let tx = {
                let mut best = f64::INFINITY;
                if ix > 0 {
                    best = best.min(at(ix - 1, iy));
                }
                if ix + 1 < grid.nx {
                    best = best.min(at(ix + 1, iy));
                }
                best
            };
            let ty = {
                let mut best = f64::INFINITY;
                if iy > 0 {
                    best = best.min(at(ix, iy - 1));
                }
                if iy + 1 < grid.ny {
                    best = best.min(at(ix, iy + 1));
                }
                best
            };
            let f = grid.speed_at(ix, iy);
            let inv_f = 1.0 / f;
            // Assume square-ish cells; use per-axis spacing in the quadratic.
            let (hx, hy) = (grid.dx, grid.dy);
            match (tx.is_finite(), ty.is_finite()) {
                (false, false) => f64::INFINITY,
                (true, false) => tx + hx * inv_f,
                (false, true) => ty + hy * inv_f,
                (true, true) => {
                    // Solve ((T-tx)/hx)² + ((T-ty)/hy)² = 1/F².
                    let a = 1.0 / (hx * hx) + 1.0 / (hy * hy);
                    let b = -2.0 * (tx / (hx * hx) + ty / (hy * hy));
                    let c = tx * tx / (hx * hx) + ty * ty / (hy * hy) - inv_f * inv_f;
                    let disc = b * b - 4.0 * a * c;
                    if disc >= 0.0 {
                        let t = (-b + disc.sqrt()) / (2.0 * a);
                        // Upwind validity: T must exceed both inputs.
                        if t >= tx && t >= ty {
                            return t;
                        }
                    }
                    // Degenerate: fall back to the one-sided update.
                    (tx + hx * inv_f).min(ty + hy * inv_f)
                }
            }
        };

        while let Some(Trial { time, idx }) = heap.pop() {
            if frozen[idx] {
                continue; // stale heap entry
            }
            // Stale-entry guard: only freeze if this is the current value.
            if time > arrival[idx] {
                continue;
            }
            frozen[idx] = true;
            let (ix, iy) = (idx % grid.nx, idx / grid.nx);
            let neighbours = [
                (ix.wrapping_sub(1), iy),
                (ix + 1, iy),
                (ix, iy.wrapping_sub(1)),
                (ix, iy + 1),
            ];
            for (jx, jy) in neighbours {
                if jx >= grid.nx || jy >= grid.ny {
                    continue;
                }
                let jdx = jy * grid.nx + jx;
                if frozen[jdx] {
                    continue;
                }
                let t_new = update(&arrival, &grid, jx, jy);
                if t_new < arrival[jdx] {
                    arrival[jdx] = t_new;
                    heap.push(Trial {
                        time: t_new,
                        idx: jdx,
                    });
                }
            }
        }

        EikonalField {
            grid,
            arrival,
            sources: sources.to_vec(),
            release_time,
        }
    }

    /// The underlying speed grid.
    #[inline]
    pub fn grid(&self) -> &SpeedGrid {
        &self.grid
    }

    /// Nodal arrival time (seconds since release) at `(ix, iy)`.
    #[inline]
    pub fn node_arrival(&self, ix: usize, iy: usize) -> f64 {
        self.arrival[iy * self.grid.nx + ix]
    }

    /// Bilinearly interpolated arrival (seconds since release) at `p`,
    /// or `None` outside the region / in unreachable cells.
    pub fn interp_arrival(&self, p: Vec2) -> Option<f64> {
        if !self.grid.region.contains(p) {
            return None;
        }
        let fx = (p.x - self.grid.region.min.x) / self.grid.dx;
        let fy = (p.y - self.grid.region.min.y) / self.grid.dy;
        let ix = (fx.floor() as usize).min(self.grid.nx - 2);
        let iy = (fy.floor() as usize).min(self.grid.ny - 2);
        let tx = fx - ix as f64;
        let ty = fy - iy as f64;
        let v00 = self.node_arrival(ix, iy);
        let v10 = self.node_arrival(ix + 1, iy);
        let v01 = self.node_arrival(ix, iy + 1);
        let v11 = self.node_arrival(ix + 1, iy + 1);
        if !(v00.is_finite() && v10.is_finite() && v01.is_finite() && v11.is_finite()) {
            return None;
        }
        let a = v00 * (1.0 - tx) + v10 * tx;
        let b = v01 * (1.0 - tx) + v11 * tx;
        Some(a * (1.0 - ty) + b * ty)
    }
}

impl StimulusField for EikonalField {
    fn first_arrival_time(&self, p: Vec2) -> Option<SimTime> {
        self.interp_arrival(p).map(|dt| self.release_time + dt)
    }

    fn nominal_speed(&self, p: Vec2) -> Option<f64> {
        if !self.grid.region.contains(p) {
            return None;
        }
        let (ix, iy) = self.grid.nearest_node(p);
        Some(self.grid.speed_at(ix, iy))
    }

    fn sources(&self) -> Vec<Vec2> {
        self.sources.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region100() -> Aabb {
        Aabb::from_size(100.0, 100.0)
    }

    #[test]
    fn uniform_grid_matches_euclidean_distance() {
        let grid = SpeedGrid::uniform(region100(), 101, 101, 2.0);
        let src = Vec2::new(50.0, 50.0);
        let field = EikonalField::solve(grid, &[src], SimTime::ZERO);
        // FMM on a uniform grid approximates dist/speed within a few % for
        // axis-aligned and diagonal probes at this resolution.
        for probe in [
            Vec2::new(80.0, 50.0), // 30 m east
            Vec2::new(50.0, 10.0), // 40 m south
            Vec2::new(74.0, 74.0), // ~33.9 m diagonal
        ] {
            let want = src.distance(probe) / 2.0;
            let got = field.first_arrival_time(probe).unwrap().as_secs();
            let rel = (got - want).abs() / want;
            assert!(
                rel < 0.05,
                "probe {probe}: got {got:.3}, want {want:.3}, rel {rel:.4}"
            );
        }
    }

    #[test]
    fn arrival_zero_at_source() {
        let grid = SpeedGrid::uniform(region100(), 51, 51, 1.0);
        let src = Vec2::new(50.0, 50.0);
        let field = EikonalField::solve(grid, &[src], SimTime::ZERO);
        let t = field.first_arrival_time(src).unwrap();
        assert!(t.as_secs() < 1e-9);
    }

    #[test]
    fn monotone_along_rays() {
        let grid = SpeedGrid::uniform(region100(), 81, 81, 1.0);
        let src = Vec2::new(0.0, 0.0);
        let field = EikonalField::solve(grid, &[src], SimTime::ZERO);
        let mut last = -1.0;
        for i in 1..40 {
            let p = Vec2::new(i as f64 * 2.0, i as f64 * 1.0);
            let t = field.first_arrival_time(p).unwrap().as_secs();
            assert!(t > last, "arrival must increase along a ray from source");
            last = t;
        }
    }

    #[test]
    fn slow_region_delays_front() {
        // Left half fast (2 m/s), right half slow (0.5 m/s).
        let grid = SpeedGrid::from_fn(
            region100(),
            101,
            101,
            |p| {
                if p.x < 50.0 {
                    2.0
                } else {
                    0.5
                }
            },
        );
        let field = EikonalField::solve(grid, &[Vec2::new(10.0, 50.0)], SimTime::ZERO);
        let in_fast = field
            .first_arrival_time(Vec2::new(40.0, 50.0))
            .unwrap()
            .as_secs();
        let in_slow = field
            .first_arrival_time(Vec2::new(80.0, 50.0))
            .unwrap()
            .as_secs();
        // Fast segment: 30 m at 2 = 15 s. Slow segment adds 30 m at 0.5 = 60 s
        // on top of 40 m at 2 = 20 s.
        assert!((in_fast - 15.0).abs() / 15.0 < 0.05, "fast: {in_fast}");
        assert!((in_slow - 80.0).abs() / 80.0 < 0.06, "slow: {in_slow}");
    }

    #[test]
    fn multiple_sources_take_min() {
        let grid = SpeedGrid::uniform(region100(), 101, 101, 1.0);
        let a = Vec2::new(0.0, 50.0);
        let b = Vec2::new(100.0, 50.0);
        let field = EikonalField::solve(grid, &[a, b], SimTime::ZERO);
        let mid = field
            .first_arrival_time(Vec2::new(50.0, 50.0))
            .unwrap()
            .as_secs();
        let near_b = field
            .first_arrival_time(Vec2::new(90.0, 50.0))
            .unwrap()
            .as_secs();
        assert!((mid - 50.0).abs() / 50.0 < 0.05);
        assert!((near_b - 10.0).abs() / 10.0 < 0.10);
    }

    #[test]
    fn outside_region_is_never_covered() {
        let grid = SpeedGrid::uniform(region100(), 21, 21, 1.0);
        let field = EikonalField::solve(grid, &[Vec2::new(50.0, 50.0)], SimTime::ZERO);
        assert_eq!(field.first_arrival_time(Vec2::new(150.0, 50.0)), None);
        assert!(!field.is_covered(Vec2::new(-1.0, 0.0), SimTime::from_secs(1e9)));
    }

    #[test]
    fn release_time_offsets() {
        let grid = SpeedGrid::uniform(region100(), 51, 51, 1.0);
        let f0 = EikonalField::solve(grid.clone(), &[Vec2::new(50.0, 50.0)], SimTime::ZERO);
        let f5 = EikonalField::solve(grid, &[Vec2::new(50.0, 50.0)], SimTime::from_secs(5.0));
        let p = Vec2::new(70.0, 50.0);
        let d = f5.first_arrival_time(p).unwrap() - f0.first_arrival_time(p).unwrap();
        assert!((d - 5.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_grows_with_time() {
        let grid = SpeedGrid::uniform(region100(), 51, 51, 1.0);
        let field = EikonalField::solve(grid, &[Vec2::new(50.0, 50.0)], SimTime::ZERO);
        let count_covered = |t: f64| -> usize {
            let mut n = 0;
            for iy in 0..10 {
                for ix in 0..10 {
                    let p = Vec2::new(ix as f64 * 10.0, iy as f64 * 10.0);
                    if field.is_covered(p, SimTime::from_secs(t)) {
                        n += 1;
                    }
                }
            }
            n
        };
        assert!(count_covered(10.0) <= count_covered(30.0));
        assert!(count_covered(30.0) <= count_covered(80.0));
        assert_eq!(count_covered(200.0), 100, "everything eventually covered");
    }

    #[test]
    fn nominal_speed_reflects_local_medium() {
        let grid = SpeedGrid::from_fn(region100(), 21, 21, |p| if p.x < 50.0 { 3.0 } else { 1.0 });
        let field = EikonalField::solve(grid, &[Vec2::new(0.0, 0.0)], SimTime::ZERO);
        assert_eq!(field.nominal_speed(Vec2::new(10.0, 10.0)), Some(3.0));
        assert_eq!(field.nominal_speed(Vec2::new(90.0, 10.0)), Some(1.0));
        assert_eq!(field.nominal_speed(Vec2::new(500.0, 10.0)), None);
    }

    #[test]
    #[should_panic(expected = "outside grid region")]
    fn source_outside_region_panics() {
        let grid = SpeedGrid::uniform(region100(), 11, 11, 1.0);
        let _ = EikonalField::solve(grid, &[Vec2::new(200.0, 0.0)], SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "speed must be finite and > 0")]
    fn zero_speed_rejected() {
        let _ = SpeedGrid::from_fn(region100(), 11, 11, |p| if p.x > 50.0 { 0.0 } else { 1.0 });
    }

    #[test]
    fn deterministic_solve() {
        let make = || {
            let grid = SpeedGrid::from_fn(region100(), 41, 41, |p| 1.0 + 0.01 * p.x);
            EikonalField::solve(grid, &[Vec2::new(5.0, 5.0)], SimTime::ZERO)
        };
        let a = make();
        let b = make();
        assert_eq!(a.arrival, b.arrival, "FMM must be bit-deterministic");
    }
}
