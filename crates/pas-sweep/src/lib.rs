//! # pas-sweep — deterministic parallel parameter sweeps
//!
//! Every figure in the paper is a parameter sweep (max sleep interval,
//! alert threshold) × policies × replicate seeds. Each simulation run is
//! single-threaded and deterministic; the sweep layer fans runs out across
//! cores and reassembles results **in input order**, so a parallel sweep is
//! bit-identical to a sequential one.
//!
//! Design (per the hpc-parallel guides):
//!
//! * `std::thread::scope` scoped threads — no `'static` bounds, no channels
//!   on the hot path, work claimed from an atomic cursor (runs have similar
//!   cost, so striding beats work stealing here);
//! * results land in pre-allocated slots (`Vec<Option<R>>` behind a
//!   `parking_lot::Mutex` per slot is unnecessary — each slot is written by
//!   exactly one worker, so a mutex-free design with per-index ownership is
//!   used via `split_at_mut` chunks of a claim array… in practice we simply
//!   collect `(index, result)` pairs per worker and merge, which is simpler
//!   and still allocation-light);
//! * seed fan-out helpers derive replicate seeds deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod persistent;
pub mod pool;

pub use aggregate::{summarize, Summary};
pub use persistent::WorkerPool;
pub use pool::{parallel_map, parallel_map_progress, parallel_map_with, SweepOptions};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::aggregate::{summarize, Summary};
    pub use crate::persistent::WorkerPool;
    pub use crate::pool::{parallel_map, parallel_map_progress, parallel_map_with, SweepOptions};
}

/// Replicate each parameter point over `n_seeds` deterministic seeds
/// (`base_seed + k`): the standard replicate fan-out for mean ± stddev.
pub fn with_seeds<P: Clone>(params: &[P], base_seed: u64, n_seeds: u64) -> Vec<(P, u64)> {
    let mut out = Vec::with_capacity(params.len() * n_seeds as usize);
    for p in params {
        for k in 0..n_seeds {
            out.push((p.clone(), base_seed + k));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_fan_out() {
        let got = with_seeds(&["x", "y"], 1000, 3);
        assert_eq!(got.len(), 6);
        assert_eq!(got[0], ("x", 1000));
        assert_eq!(got[2], ("x", 1002));
        assert_eq!(got[3], ("y", 1000));
    }

    #[test]
    fn empty_axes() {
        assert!(with_seeds::<i32>(&[], 0, 5).is_empty());
        assert!(with_seeds(&[1], 0, 0).is_empty());
    }
}
