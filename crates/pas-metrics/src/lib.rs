//! # pas-metrics — measurement toolkit for the PAS evaluation
//!
//! The paper evaluates two metrics (§4.1):
//!
//! * **Average detection delay** — "the average elapsed time between the
//!   actual arrival time and the time when a sensor just detects it";
//! * **Average energy consumption** — "the average energy consumed by each
//!   sensor".
//!
//! This crate supplies the machinery to compute and report them:
//!
//! * [`OnlineStats`] — Welford single-pass mean/variance/min/max, numerically
//!   stable for long accumulations.
//! * [`Histogram`] — fixed-width bins with percentile queries, for the delay
//!   distributions behind the averages.
//! * [`DelayTracker`] — pairs ground-truth arrival with detection per node
//!   and produces the paper's delay statistics, including miss accounting.
//! * [`table`] — aligned ASCII tables (the stdout "figures") and CSV export
//!   for downstream plotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod histogram;
pub mod online;
pub mod table;

pub use delay::{DelayStats, DelayTracker};
pub use histogram::Histogram;
pub use online::OnlineStats;
pub use table::{Csv, Table};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::delay::{DelayStats, DelayTracker};
    pub use crate::histogram::Histogram;
    pub use crate::online::OnlineStats;
    pub use crate::table::{Csv, Table};
}
