//! # pas-bench — `pas bench` and the figures manifests cannot express
//!
//! [`drivers`] runs `pas bench`'s batch, predictors and server modes and
//! its `--gate`; [`history`] is the versioned `BENCH_*.json` writer,
//! loader and regression gate they share, so the payload fields the
//! drivers write and the keys the gate reads live in one crate. The
//! distributed fleet is measured end to end by the benchmark package's
//! dist-grid workload (`pasbench/`), not here.
//!
//! The paper's Figs. 4–7 and the estimator and failure ablations are
//! registry manifests (`pas run paper-default`, `pas run paper-alert`,
//! `pas run ablate-estimator`, `pas run ablate-failures`). The binaries
//! here cover what a manifest cannot: Table 1's platform constants, the
//! Fig. 1–3 schematics, and the channel-loss ablation, which reports the
//! alerted-node count that a run record does not carry. The ones that
//! simulate (Figs. 2/3 and the ablation) take the §4 workload from the
//! registry's `paper-default` manifest.
//!
//! Run e.g. `cargo run --release -p pas-bench --bin table1`; `table1`,
//! `fig1_front` and `ablate_channel` also write `results/<name>.csv`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drivers;
pub mod history;

pub use drivers::{run_batch, run_gate, run_predictors, run_server, BenchError};
pub use history::{BenchHistory, DEFAULT_MAX_DROP_PCT};

/// Results directory (`results/` at the workspace root).
pub fn results_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/pas-bench; results live two levels up.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}
