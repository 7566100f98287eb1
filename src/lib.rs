//! # PAS — Prediction-based Adaptive Sleeping for environment monitoring
//!
//! A complete, from-scratch reproduction of *Yang, Xu, Dai, Gu: "PAS:
//! Prediction-based Adaptive Sleeping for Environment Monitoring in Sensor
//! Networks"* (ICPP Workshops 2007), as a production-quality Rust workspace.
//!
//! This facade crate re-exports the whole public API:
//!
//! | Crate | What it provides |
//! |-------|------------------|
//! | [`geom`] | 2-D vectors, shapes, spatial hashing |
//! | [`sim`] | deterministic discrete-event engine + seedable PRNG |
//! | [`diffusion`] | stimulus ground truth: fronts, plumes, eikonal/FMM |
//! | [`platform`] | Telos power model, energy metering, frame sizing |
//! | [`net`] | deployments, unit-disk topology, channels, broadcast |
//! | [`core`] | the PAS algorithm, SAS/NS/Oracle baselines, the runner |
//! | [`metrics`] | delay/energy metrics, statistics, tables, CSV |
//! | [`sweep`] | parallel parameter sweeps with ordered, seeded results |
//! | [`scenario`] | declarative TOML manifests, batch execution, the registry |
//! | [`report`] | statistical analysis: bootstrap CIs, paired deltas, md/json/svg |
//! | [`server`] | batch HTTP API: job queue, content-addressed result cache |
//! | [`dist`] | distributed execution: worker fleet, lease scheduler |
//!
//! ## Quick start
//!
//! ```
//! use pas::prelude::*;
//!
//! // The paper's setup: 30 nodes, 10 m range; a pollutant front spreading
//! // at 0.5 m/s from the region corner.
//! let scenario = Scenario::paper_default(42);
//! let field = RadialFront::constant(Vec2::new(0.0, 0.0), 0.5);
//!
//! let result = run(&scenario, &field, &RunConfig::new(Policy::pas_default()));
//! assert!(result.delay.mean_delay_s < 10.0);
//! assert!(result.mean_energy_j() > 0.0);
//! ```
//!
//! Whole experiment *batches* — deployment × stimulus × policies ×
//! parameter axes × seeds — are declared as TOML manifests and executed by
//! the [`scenario`] crate (or the `pas` CLI: `pas run paper-default`):
//!
//! ```
//! use pas::prelude::*;
//!
//! let mut manifest = registry::builtin("paper-default").unwrap();
//! manifest.sweep[0].values.truncate(1); // shrink the batch for the doctest
//! manifest.run.replicates = 2;
//! let batch = execute(&manifest, ExecOptions::default()).unwrap();
//! assert_eq!(batch.summaries.len(), manifest.policies.len());
//! ```
//!
//! See `examples/` for full scenarios. Figs. 4–7 and the estimator
//! ablation are registry manifests (`pas run paper-default`,
//! `pas run paper-alert`, `pas run ablate-estimator`); `crates/pas-bench`
//! holds the binaries for Table 1, the Fig. 1–3 schematics and the
//! channel-loss and failure-rate ablations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pas_core as core;
pub use pas_diffusion as diffusion;
pub use pas_dist as dist;
pub use pas_geom as geom;
pub use pas_metrics as metrics;
pub use pas_net as net;
pub use pas_platform as platform;
pub use pas_report as report;
pub use pas_scenario as scenario;
pub use pas_server as server;
pub use pas_sim as sim;
pub use pas_sweep as sweep;

/// One-stop import for applications.
pub mod prelude {
    pub use pas_core::prelude::*;
    pub use pas_diffusion::prelude::*;
    pub use pas_dist::prelude::*;
    pub use pas_geom::prelude::*;
    pub use pas_metrics::prelude::*;
    pub use pas_net::prelude::*;
    pub use pas_platform::prelude::*;
    pub use pas_report::{render_json, render_md, render_svg, Report, ReportOptions};
    pub use pas_scenario::prelude::*;
    pub use pas_server::prelude::*;
    pub use pas_sim::prelude::*;
    pub use pas_sweep::prelude::*;
}
