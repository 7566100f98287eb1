//! # pas-net — network substrate for the PAS simulator
//!
//! PAS nodes "exchange the DS information with \[their\] neighbors" over
//! one-hop broadcast. This crate provides everything below the PAS protocol:
//!
//! * [`deploy`] — sensor placement generators: uniform random, regular grid,
//!   and Poisson-disk (blue-noise) layouts over a region.
//! * [`Topology`] — unit-disk connectivity: positions + transmission range,
//!   with precomputed neighbour tables (built on `pas-geom`'s spatial hash)
//!   and degree statistics.
//! * [`channel`] — per-link delivery models: perfect, i.i.d. loss, and
//!   distance-dependent loss (the paper's future-work "imperfect
//!   communication channel", built now as an ablation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod deploy;
pub mod topology;

pub use channel::{ChannelModel, DistanceLossChannel, IidLossChannel, PerfectChannel};
pub use topology::Topology;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::channel::{ChannelModel, DistanceLossChannel, IidLossChannel, PerfectChannel};
    pub use crate::deploy;
    pub use crate::topology::Topology;
}
