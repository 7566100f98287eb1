//! Primitive shapes: circles model transmission disks (unit-disk radio) and
//! isotropic stimulus fronts.

use crate::aabb::Aabb;
use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// A circle (centre + radius).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Circle {
    /// Centre point.
    pub center: Vec2,
    /// Radius (must be non-negative).
    pub radius: f64,
}

impl Circle {
    /// Construct a circle.
    ///
    /// # Panics
    /// Panics if `radius` is negative or non-finite.
    #[inline]
    pub fn new(center: Vec2, radius: f64) -> Self {
        assert!(
            radius >= 0.0 && radius.is_finite(),
            "Circle radius must be finite and non-negative"
        );
        Circle { center, radius }
    }

    /// `true` if `p` is inside or on the circle.
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// Signed distance from `p` to the circle boundary.
    ///
    /// Negative inside, positive outside, zero on the boundary.
    #[inline]
    pub fn signed_distance(&self, p: Vec2) -> f64 {
        self.center.distance(p) - self.radius
    }

    /// `true` if the two circles overlap (boundary contact counts).
    #[inline]
    pub fn intersects(&self, other: &Circle) -> bool {
        let r = self.radius + other.radius;
        self.center.distance_sq(other.center) <= r * r
    }

    /// Area.
    #[inline]
    pub fn area(&self) -> f64 {
        core::f64::consts::PI * self.radius * self.radius
    }

    /// Bounding box.
    #[inline]
    pub fn aabb(&self) -> Aabb {
        let r = Vec2::splat(self.radius);
        Aabb {
            min: self.center - r,
            max: self.center + r,
        }
    }

    /// `n` points evenly spaced on the boundary, counter-clockwise from +X.
    pub fn sample_boundary(&self, n: usize) -> Vec<Vec2> {
        (0..n)
            .map(|i| {
                let a = core::f64::consts::TAU * (i as f64) / (n as f64);
                self.center + Vec2::from_polar(self.radius, a)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;

    #[test]
    fn circle_contains() {
        let c = Circle::new(Vec2::new(1.0, 1.0), 2.0);
        assert!(c.contains(Vec2::new(1.0, 1.0)));
        assert!(c.contains(Vec2::new(3.0, 1.0))); // boundary
        assert!(!c.contains(Vec2::new(3.1, 1.0)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn circle_rejects_negative_radius() {
        let _ = Circle::new(Vec2::ZERO, -1.0);
    }

    #[test]
    fn circle_signed_distance() {
        let c = Circle::new(Vec2::ZERO, 1.0);
        assert!(approx_eq(c.signed_distance(Vec2::new(2.0, 0.0)), 1.0));
        assert!(approx_eq(c.signed_distance(Vec2::new(0.5, 0.0)), -0.5));
        assert!(approx_eq(c.signed_distance(Vec2::new(1.0, 0.0)), 0.0));
    }

    #[test]
    fn circle_intersects() {
        let a = Circle::new(Vec2::ZERO, 1.0);
        let b = Circle::new(Vec2::new(2.0, 0.0), 1.0); // touching
        let c = Circle::new(Vec2::new(2.1, 0.0), 1.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn circle_geometry() {
        let c = Circle::new(Vec2::new(1.0, 2.0), 3.0);
        assert!(approx_eq(c.area(), core::f64::consts::PI * 9.0));
        let bb = c.aabb();
        assert_eq!(bb.min, Vec2::new(-2.0, -1.0));
        assert_eq!(bb.max, Vec2::new(4.0, 5.0));
    }

    #[test]
    fn circle_boundary_samples_on_circle() {
        let c = Circle::new(Vec2::new(5.0, -3.0), 2.5);
        let pts = c.sample_boundary(16);
        assert_eq!(pts.len(), 16);
        for p in pts {
            assert!(approx_eq(c.center.distance(p), 2.5));
        }
    }
}
