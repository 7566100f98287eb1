//! # pas-bench — bench history and the figures manifests cannot express
//!
//! [`history`] is the versioned `BENCH_*.json` writer, loader and
//! regression gate behind `pas bench`.
//!
//! The paper's Figs. 4–7 and the estimator ablation are registry
//! manifests (`pas run paper-default`, `pas run paper-alert`,
//! `pas run ablate-estimator`). The binaries here cover what a manifest
//! cannot: Table 1's platform constants, the Fig. 1–3 schematics, and
//! the channel-loss and failure-rate ablations, whose swept variables
//! are not sweep axes. The ones that simulate (Figs. 2/3 and the
//! ablations) take the §4 workload from the registry's `paper-default`
//! manifest.
//!
//! Run e.g. `cargo run --release -p pas-bench --bin table1`; `table1`,
//! `fig1_front` and the two ablations also write `results/<name>.csv`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;

pub use history::{
    append, civil_date, gate, throughput, throughput_by_key, BenchHistory, GateOutcome,
    HistoryEntry, HistoryError, BENCH_SCHEMA_VERSION, DEFAULT_MAX_DROP_PCT,
};

/// Results directory (`results/` at the workspace root).
pub fn results_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/pas-bench; results live two levels up.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}
