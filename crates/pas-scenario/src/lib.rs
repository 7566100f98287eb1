//! # pas-scenario — declarative scenario manifests and batch execution
//!
//! The paper's evaluation is a grid: deployment × stimulus × channel ×
//! failures × policies × parameter axes × replicate seeds. This crate
//! makes that grid *data* instead of code — a TOML manifest declares the
//! whole batch, and the crate expands it into the explicit run matrix,
//! executes it deterministically in parallel, and writes summarised
//! results. Opening a new workload is a manifest edit, not a new binary.
//!
//! * [`toml`] — a small self-contained TOML reader (the offline build
//!   cannot fetch the `toml` crate).
//! * [`manifest`] — the typed [`Manifest`] model: parse (with unknown-key
//!   rejection), validate, serialise back losslessly, and build the
//!   runtime objects (`Scenario`, stimulus field, channel, failures).
//!   Policies mount arrival predictors (`predictor = "kalman"` plus
//!   per-predictor parameter tables), and sweep axes cover the adaptive
//!   parameters, predictor names, and deployment density (`nodes`).
//! * [`exec`] — [`expand`] (manifest → cartesian run matrix) and
//!   [`execute`] (parallel, bit-deterministic batch execution with
//!   replicate aggregation).
//! * [`sink`] — summary CSV (the figure series: x, policy, delay and
//!   energy mean ± stddev, n), per-run JSONL, and stdout tables.
//! * [`registry`] — built-in named manifests: the paper-default workload,
//!   the alert-threshold sweep, the three example scenarios, the
//!   predictor shootout and the estimator ablation.
//!
//! ## Quick start
//!
//! ```
//! use pas_scenario::{execute, registry, ExecOptions};
//!
//! let mut manifest = registry::builtin("paper-default").unwrap();
//! // Shrink the batch for the doctest: one axis point, two seeds.
//! manifest.sweep[0].values = vec![4.0].into();
//! manifest.run.replicates = 2;
//! let batch = execute(&manifest, ExecOptions::default()).unwrap();
//! assert_eq!(batch.summaries.len(), manifest.policies.len());
//! assert!(batch.summaries.iter().all(|p| p.n == 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod manifest;
pub mod registry;
pub mod sink;
pub mod toml;

/// The JSON codec, for readers of the [`sink`] rows that lack `pas-obs`.
pub use pas_obs::json;

pub use exec::{
    execute, execute_point, execute_point_with, expand, expand_indices, failure_plan, group,
    matrix_size, point_at, reduce, BatchResult, ExecOptions, PointCell, PointSeries, PointSummary,
    Replicate, RunPoint, RunRecord,
};
pub use manifest::{
    AxisValue, AxisValues, ChannelSpec, DeployKindSpec, DeploymentSpec, FailureSpec, Manifest,
    ManifestError, OutputSection, PatchSpec, PolicySpec, ProfileSpec, RunSection, StimulusSpec,
    SweepAxis, SWEEP_NODES, SWEEP_PREDICTOR,
};
pub use sink::{
    records_jsonl, summary_csv, summary_table, write_records_jsonl, write_summary_csv,
    SCHEMA_VERSION,
};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::exec::{
        execute, execute_point, expand, expand_indices, group, point_at, reduce, BatchResult,
        ExecOptions, PointCell, PointSummary, Replicate, RunRecord,
    };
    pub use crate::manifest::{Manifest, ManifestError};
    pub use crate::registry;
    pub use crate::sink::{write_records_jsonl, write_summary_csv};
}
