//! Angle utilities.
//!
//! PAS's arrival-time estimator projects a neighbour's velocity onto the
//! displacement toward the querying node: `t = |IX| · cos θ / |v|` where `θ`
//! is the *included angle* between the velocity and the displacement. These
//! helpers keep all angle math in one tested place.

use crate::vec2::Vec2;
use core::f64::consts::{PI, TAU};

/// Normalise an angle into `(-π, π]`.
#[inline]
pub fn normalize_angle(a: f64) -> f64 {
    // rem_euclid keeps the result in [0, τ); shift into (-π, π].
    let r = a.rem_euclid(TAU);
    if r > PI {
        r - TAU
    } else {
        r
    }
}

/// Included angle between two vectors, in `[0, π]`.
///
/// Returns 0 if either vector is zero (the projection degenerates; callers
/// treat it as "aligned", which is the conservative choice for arrival-time
/// prediction — it never hides an approaching front).
#[inline]
pub fn included_angle(a: Vec2, b: Vec2) -> f64 {
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    // Clamp: rounding can push the cosine slightly outside [-1, 1].
    let c = (a.dot(b) / (na * nb)).clamp(-1.0, 1.0);
    c.acos()
}

/// Cosine of the included angle between two vectors, in `[-1, 1]`.
///
/// Faster than `included_angle(a, b).cos()` and exactly what the PAS
/// estimator needs. Returns 1.0 if either vector is zero (see
/// [`included_angle`] for the rationale).
#[inline]
pub fn included_cos(a: Vec2, b: Vec2) -> f64 {
    let nn = a.norm() * b.norm();
    if nn == 0.0 {
        return 1.0;
    }
    (a.dot(b) / nn).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;
    use core::f64::consts::FRAC_PI_2;

    #[test]
    fn normalize_into_range() {
        assert!(approx_eq(normalize_angle(0.0), 0.0));
        assert!(approx_eq(normalize_angle(TAU), 0.0));
        assert!(approx_eq(normalize_angle(PI + 0.1), -PI + 0.1));
        assert!(approx_eq(normalize_angle(-PI - 0.1), PI - 0.1));
        assert!(approx_eq(normalize_angle(PI), PI));
        assert!(approx_eq(normalize_angle(3.0 * TAU + 1.0), 1.0));
    }

    #[test]
    fn normalize_always_in_bounds() {
        let mut a = -50.0;
        while a < 50.0 {
            let n = normalize_angle(a);
            assert!(n > -PI - 1e-12 && n <= PI + 1e-12, "angle {a} -> {n}");
            a += 0.37;
        }
    }

    #[test]
    fn included_angle_basics() {
        assert!(approx_eq(included_angle(Vec2::UNIT_X, Vec2::UNIT_X), 0.0));
        assert!(approx_eq(
            included_angle(Vec2::UNIT_X, Vec2::UNIT_Y),
            FRAC_PI_2
        ));
        assert!(approx_eq(included_angle(Vec2::UNIT_X, -Vec2::UNIT_X), PI));
        // Zero vector degenerates to 0.
        assert_eq!(included_angle(Vec2::ZERO, Vec2::UNIT_X), 0.0);
    }

    #[test]
    fn included_angle_symmetric() {
        let a = Vec2::new(1.0, 0.3);
        let b = Vec2::new(-0.4, 2.0);
        assert!(approx_eq(included_angle(a, b), included_angle(b, a)));
    }

    #[test]
    fn included_cos_matches_angle() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(-3.0, 0.5);
        assert!(approx_eq(included_cos(a, b), included_angle(a, b).cos()));
        assert_eq!(included_cos(Vec2::ZERO, b), 1.0);
    }

    #[test]
    fn included_cos_scale_invariant() {
        let a = Vec2::new(0.2, 0.9);
        let b = Vec2::new(1.4, -0.3);
        assert!(approx_eq(
            included_cos(a, b),
            included_cos(a * 7.0, b * 0.01)
        ));
    }
}
