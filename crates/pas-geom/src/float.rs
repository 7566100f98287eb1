//! Floating-point helpers: approximate comparison, clamping and
//! interpolation.
//!
//! Simulation code compares `f64` times and distances constantly; the helpers
//! here centralise the tolerance conventions so every crate agrees on what
//! "equal" means.

/// Default absolute/relative tolerance used by [`approx_eq`].
///
/// Positions are metres and times are seconds in this workspace; 1e-9 is far
/// below any physically meaningful difference while staying well above f64
/// rounding noise for the magnitudes we simulate (< 1e6).
pub const EPS: f64 = 1e-9;

/// `true` if `a` and `b` are equal within [`EPS`], scaled by magnitude.
///
/// Uses the standard mixed absolute/relative test:
/// `|a - b| <= EPS * max(1, |a|, |b|)`.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_eps(a, b, EPS)
}

/// [`approx_eq`] with a caller-supplied tolerance.
#[inline]
pub fn approx_eq_eps(a: f64, b: f64, eps: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= eps * scale
}

/// Clamp `x` into `[lo, hi]` (requires `lo <= hi`).
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp: lo must not exceed hi");
    x.max(lo).min(hi)
}

/// Linear interpolation `a + t (b - a)`; `t` outside `[0,1]` extrapolates.
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + t * (b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
    }

    #[test]
    fn approx_eq_scales_with_magnitude() {
        // 1e9 and 1e9 + 0.5 differ by 5e-10 relative — within tolerance.
        assert!(approx_eq(1.0e9, 1.0e9 + 0.5));
        assert!(!approx_eq(1.0e9, 1.0e9 + 10.0));
    }

    #[test]
    fn clamp_and_lerp() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
        assert_eq!(lerp(0.0, 10.0, 0.25), 2.5);
    }
}
