//! Property-based tests for the geometry kit.

use pas_geom::angle::{included_cos, normalize_angle};
use pas_geom::float::approx_eq_eps;
use pas_geom::{SpatialGrid, Vec2};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    -1.0e3..1.0e3
}

fn vec2() -> impl Strategy<Value = Vec2> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Vec2::new(x, y))
}

proptest! {
    // --- Vec2 algebra -----------------------------------------------------

    #[test]
    fn add_commutes(a in vec2(), b in vec2()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associates_up_to_eps(a in vec2(), b in vec2(), c in vec2()) {
        let l = (a + b) + c;
        let r = a + (b + c);
        prop_assert!(approx_eq_eps(l.x, r.x, 1e-9));
        prop_assert!(approx_eq_eps(l.y, r.y, 1e-9));
    }

    #[test]
    fn scalar_distributes(a in vec2(), b in vec2(), k in -100.0..100.0f64) {
        let l = (a + b) * k;
        let r = a * k + b * k;
        prop_assert!(approx_eq_eps(l.x, r.x, 1e-6));
        prop_assert!(approx_eq_eps(l.y, r.y, 1e-6));
    }

    #[test]
    fn norm_triangle_inequality(a in vec2(), b in vec2()) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    #[test]
    fn norm_scales(a in vec2(), k in -100.0..100.0f64) {
        prop_assert!(approx_eq_eps((a * k).norm(), a.norm() * k.abs(), 1e-6));
    }

    #[test]
    fn normalized_has_unit_norm(a in vec2()) {
        if let Some(u) = a.try_normalize() {
            prop_assert!(approx_eq_eps(u.norm(), 1.0, 1e-9));
        } else {
            prop_assert_eq!(a, Vec2::ZERO);
        }
    }

    #[test]
    fn rotation_preserves_norm(a in vec2(), angle in -10.0..10.0f64) {
        prop_assert!(approx_eq_eps(a.rotate(angle).norm(), a.norm(), 1e-6));
    }

    #[test]
    fn perp_is_orthogonal(a in vec2()) {
        prop_assert!(approx_eq_eps(a.dot(a.perp()), 0.0, 1e-9));
    }

    // --- angles -------------------------------------------------------------

    #[test]
    fn normalize_angle_in_range(a in -1.0e4..1.0e4f64) {
        let n = normalize_angle(a);
        prop_assert!(n > -core::f64::consts::PI - 1e-9);
        prop_assert!(n <= core::f64::consts::PI + 1e-9);
        // Same direction: cos and sin agree.
        prop_assert!(approx_eq_eps(n.cos(), a.cos(), 1e-6));
        prop_assert!(approx_eq_eps(n.sin(), a.sin(), 1e-6));
    }

    #[test]
    fn included_cos_bounded_and_symmetric(a in vec2(), b in vec2()) {
        let c = included_cos(a, b);
        prop_assert!((-1.0..=1.0).contains(&c));
        prop_assert_eq!(c.to_bits(), included_cos(b, a).to_bits());
    }

    // --- spatial grid ----------------------------------------------------------

    #[test]
    fn grid_query_matches_naive(
        pts in prop::collection::vec(vec2(), 0..60),
        center in vec2(),
        radius in 0.0..200.0f64,
        cell in 0.5..50.0f64,
    ) {
        let grid = SpatialGrid::from_points(cell, pts.iter().copied().enumerate());
        let mut got = grid.ids_within(center, radius);
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| center.distance(**p) <= radius)
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
