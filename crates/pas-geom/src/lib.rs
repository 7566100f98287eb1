//! # pas-geom — 2-D geometry kit for the PAS sensor-network simulator
//!
//! This crate provides the planar geometry substrate that every other layer of
//! the PAS reproduction builds on:
//!
//! * [`Vec2`] — a plain-old-data 2-D vector with the usual linear-algebra
//!   operations, used both for positions (metres) and velocities (m/s).
//! * [`angle`] — angle normalisation and the included-angle computation that
//!   the paper's arrival-time estimator (`|IX| cos θ / v`) depends on.
//! * [`Aabb`], [`Circle`] — primitive shapes for deployment regions,
//!   transmission disks and front sampling.
//! * [`SpatialGrid`] — a uniform spatial hash over node positions so
//!   neighbour queries are O(1) amortised instead of O(n) scans.
//!
//! All quantities are `f64`; the crate has no I/O and no global state.
//!
//! ```
//! use pas_geom::{Vec2, SpatialGrid};
//!
//! let a = Vec2::new(3.0, 4.0);
//! assert_eq!(a.norm(), 5.0);
//!
//! let mut grid = SpatialGrid::new(10.0);
//! grid.insert(0, Vec2::new(1.0, 1.0));
//! grid.insert(1, Vec2::new(2.0, 2.0));
//! grid.insert(2, Vec2::new(50.0, 50.0));
//! let near: Vec<_> = grid.query_radius(Vec2::new(0.0, 0.0), 5.0).collect();
//! assert_eq!(near.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aabb;
pub mod angle;
pub mod float;
pub mod grid;
pub mod shapes;
pub mod vec2;

pub use aabb::Aabb;
pub use grid::SpatialGrid;
pub use shapes::Circle;
pub use vec2::Vec2;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::aabb::Aabb;
    pub use crate::angle::{included_angle, normalize_angle};
    pub use crate::float::{approx_eq, approx_eq_eps};
    pub use crate::grid::SpatialGrid;
    pub use crate::shapes::Circle;
    pub use crate::vec2::Vec2;
}
