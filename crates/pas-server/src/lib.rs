//! # pas-server — the batch simulation service
//!
//! The evaluation workload is repeated, largely-overlapping experiment
//! batches: the same environments re-run with new sweep grids, more
//! replicates, or one changed policy. This crate turns the scenario
//! subsystem into a long-lived service that makes that workload
//! O(new runs) instead of O(runs):
//!
//! * [`http`] — a std-only HTTP/1.1 subset over `std::net` (the offline
//!   vendor policy rules out hyper/axum; the API needs six routes).
//! * [`server`] — the accept loop and routes: registry listing, manifest
//!   validation/expansion, async job submission, status, results.
//! * [`queue`] — a bounded FIFO with `429` backpressure and the worker
//!   pool, built on `pas-sweep::parallel_map_with`.
//! * [`cache`] — a content-addressed, on-disk result cache: each run is
//!   keyed by a SHA-256 of its physical inputs, entries store `f64`s as
//!   raw bits and carry checksums, so warm results are *byte-identical*
//!   to cold ones, survive restarts, and fall back to recomputation when
//!   corrupted.
//! * [`client`] — the blocking client behind `pas submit`.
//! * [`hash`] — the in-tree SHA-256 (FIPS 180-4) the cache keys use.
//!
//! JSON bodies are written and read with `pas_obs::json`; [`json`] keeps
//! only two single-field lookups over it.
//!
//! ## Determinism guarantee
//!
//! Batch execution decomposes into [`pas_scenario::execute_point`] and
//! [`pas_scenario::reduce`]; the direct path (`pas run`) and the cached
//! path ([`cache::execute_with_cache`]) both call exactly those, so a
//! served batch — cold or warm — is byte-identical to a local run of the
//! same manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod hash;
pub mod http;
pub mod json;
pub mod queue;
pub mod server;

pub use cache::{
    execute_with_cache, execute_with_cache_traced, CacheStats, CellKeys, CellPrefix, KeyPrefix,
    ResultCache,
};
pub use client::{
    retry_cause, Client, ClientError, HistoryFormat, JobStatus, ProfileFormat, ReportFormat,
    ResultFormat, RetryPolicy, TraceFormat,
};
pub use queue::{Job, JobPhase, JobQueue, JobTrace, SubmitError};
pub use server::{Router, Server, ServerOptions};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::cache::{execute_with_cache, CacheStats, ResultCache};
    pub use crate::client::{Client, ReportFormat, ResultFormat};
    pub use crate::server::{Server, ServerOptions};
}
