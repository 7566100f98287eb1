//! Simulation time.
//!
//! [`SimTime`] wraps `f64` seconds but guarantees a total order by forbidding
//! NaN at every construction site. Infinity is allowed and means "never" —
//! the natural encoding for "no predicted arrival" in the PAS estimator.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulation time, in seconds since simulation start.
///
/// Total order: `SimTime` implements `Ord` because NaN cannot be constructed.
/// `SimTime::NEVER` (`+∞`) sorts after every finite time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(f64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0.0);
    /// "Never happens" — positive infinity; sorts after all finite times.
    pub const NEVER: SimTime = SimTime(f64::INFINITY);

    /// Construct from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN or negative (simulation time never runs
    /// backwards past the origin).
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        assert!(secs >= 0.0, "SimTime cannot be negative: {secs}");
        SimTime(secs)
    }

    /// The time with these `f64` bits, unchecked: only for bits read from
    /// a `SimTime` (the event queue's keys).
    #[inline]
    pub(crate) fn from_bits(bits: u64) -> Self {
        SimTime(f64::from_bits(bits))
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        SimTime::from_secs(ms * 1e-3)
    }

    /// Seconds since simulation start.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Milliseconds since simulation start.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// `true` if this is a finite instant (not [`SimTime::NEVER`]).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Duration from `earlier` to `self`, in seconds (may be negative if
    /// `earlier` is actually later).
    #[inline]
    pub fn since(self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // NaN is unrepresentable, so partial_cmp always succeeds.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

/// Advance a time by a duration in seconds.
impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, secs: f64) -> SimTime {
        assert!(!secs.is_nan(), "cannot add NaN seconds to SimTime");
        let t = self.0 + secs;
        assert!(t >= 0.0, "SimTime went negative: {} + {}", self.0, secs);
        SimTime(t)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, secs: f64) {
        *self = *self + secs;
    }
}

/// Duration between two times, in seconds.
impl Sub<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{:.6}s", self.0)
        } else {
            write!(f, "never")
        }
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_secs(2.5);
        assert_eq!(t.as_secs(), 2.5);
        assert_eq!(t.as_millis(), 2500.0);
        assert_eq!(SimTime::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert!(b > a);
        assert!(a < SimTime::NEVER);
        assert_eq!(SimTime::NEVER, SimTime::NEVER);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1.0) + 0.5;
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!(t - SimTime::from_secs(1.0), 0.5);
        assert_eq!(t.since(SimTime::ZERO), 1.5);
        assert_eq!(SimTime::ZERO.since(t), -1.5);
        let mut u = SimTime::ZERO;
        u += 3.0;
        assert_eq!(u.as_secs(), 3.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn add_cannot_go_negative() {
        let _ = SimTime::from_secs(1.0) + (-2.0);
    }

    #[test]
    fn never_behaves() {
        assert!(!SimTime::NEVER.is_finite());
        assert!(SimTime::from_secs(1e12) < SimTime::NEVER);
        assert_eq!(format!("{}", SimTime::NEVER), "never");
        assert_eq!(format!("{}", SimTime::from_secs(0.25)), "0.250000s");
    }

    #[test]
    fn sortable_in_collections() {
        let mut v = vec![
            SimTime::from_secs(3.0),
            SimTime::NEVER,
            SimTime::ZERO,
            SimTime::from_secs(1.0),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_secs(1.0),
                SimTime::from_secs(3.0),
                SimTime::NEVER
            ]
        );
    }
}
