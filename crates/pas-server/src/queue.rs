//! Bounded job queue, job registry, and the queue worker.
//!
//! Submissions enter a FIFO with a hard capacity; when it is full the
//! server answers `429 Too Many Requests` instead of buffering without
//! bound (backpressure, not collapse). The server's one queue worker
//! pops jobs and runs them through
//! [`crate::cache::execute_with_cache_traced`] — each job is itself
//! internally parallel via `pas-sweep::parallel_map_with`, so one worker
//! already saturates the machine. Job state lives in a registry the HTTP
//! layer reads for `GET /jobs/:id`.

use crate::cache::{execute_with_cache_traced, CacheStats, ResultCache};
use pas_obs::json::quote;
use pas_scenario::{BatchResult, ExecOptions, Manifest};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Finished jobs retained for `GET /jobs/:id` before the oldest are
/// evicted (results also persist in the on-disk cache, so an evicted
/// job's batch is one warm resubmission away).
pub const RETAINED_JOBS: usize = 256;

/// Lifecycle of one submitted batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in the queue.
    Queued,
    /// Being executed.
    Running,
    /// Finished; results are available.
    Completed,
    /// Execution failed (expansion error, etc.).
    Failed,
}

impl JobPhase {
    /// Wire name of the phase.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::Failed => "failed",
        }
    }
}

/// A job's trace context: the trace id (client-minted via
/// `X-Pas-Trace` or server-minted at submit) plus the pre-minted root
/// span id every server/scheduler/worker span parents under. The root
/// `job` span itself is recorded when the job completes or fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTrace {
    /// Trace id (the tree's identity, propagated on the wire).
    pub id: u64,
    /// Root span id (`job`), minted at submit.
    pub root: u64,
    /// Submission wall-clock, µs since the Unix epoch.
    pub start_us: u64,
}

/// One job's full state.
#[derive(Debug, Clone)]
pub struct Job {
    /// Server-assigned id.
    pub id: u64,
    /// Scenario name from the submitted manifest.
    pub scenario: String,
    /// Trace context (every job is traced; recording itself is gated
    /// by the global observability switch).
    pub trace: JobTrace,
    /// Current phase.
    pub phase: JobPhase,
    /// Points finished so far.
    pub done: usize,
    /// Total points in the expanded matrix.
    pub total: usize,
    /// Cache traffic (populated as the job runs).
    pub stats: CacheStats,
    /// Error message when `phase == Failed`.
    pub error: Option<String>,
    /// Results when `phase == Completed`.
    pub result: Option<BatchResult>,
}

impl Job {
    /// The job's root `job` span, from submit to now.
    fn root_span(&self, outcome: &str) -> pas_obs::SpanGuard {
        pas_obs::span_since("job", self.trace.start_us)
            .with_id(self.trace.root)
            .parent(self.trace.id, 0)
            .labels(&[("scenario", self.scenario.as_str()), ("outcome", outcome)])
    }
}

struct Inner {
    jobs: Mutex<JobTable>,
    /// Signalled on every push (and on shutdown).
    available: Condvar,
    /// When the queue opened: the server's start.
    opened: Instant,
    /// Set once this process's own worker runs the jobs.
    local_exec: AtomicBool,
}

struct JobTable {
    next_id: u64,
    queue: VecDeque<u64>,
    by_id: HashMap<u64, Job>,
    manifests: HashMap<u64, Manifest>,
    shutdown: bool,
}

/// Shared job registry + queue handle.
#[derive(Clone)]
pub struct JobQueue {
    inner: Arc<Inner>,
    capacity: usize,
}

/// Why a submission was rejected.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — retry later (HTTP 429).
    Full,
    /// The queue is shutting down.
    Closed,
}

impl JobQueue {
    /// A queue admitting at most `capacity` waiting jobs.
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Arc::new(Inner {
                jobs: Mutex::new(JobTable {
                    next_id: 1,
                    queue: VecDeque::new(),
                    by_id: HashMap::new(),
                    manifests: HashMap::new(),
                    shutdown: false,
                }),
                available: Condvar::new(),
                opened: Instant::now(),
                local_exec: AtomicBool::new(false),
            }),
            capacity,
        }
    }

    /// Enqueue a validated manifest; returns the new job id.
    pub fn submit(&self, manifest: Manifest, total: usize) -> Result<u64, SubmitError> {
        self.submit_traced(manifest, total, None)
    }

    /// [`JobQueue::submit`] under a caller-provided trace id (from an
    /// `X-Pas-Trace` header); `None` mints a fresh one.
    pub fn submit_traced(
        &self,
        manifest: Manifest,
        total: usize,
        trace: Option<u64>,
    ) -> Result<u64, SubmitError> {
        let mut t = self.inner.jobs.lock().expect("queue poisoned");
        if t.shutdown {
            pas_obs::inc("pas.queue.submit.count", &[("outcome", "rejected_closed")]);
            return Err(SubmitError::Closed);
        }
        if t.queue.len() >= self.capacity {
            pas_obs::inc("pas.queue.submit.count", &[("outcome", "rejected_full")]);
            return Err(SubmitError::Full);
        }
        let id = t.next_id;
        t.next_id += 1;
        t.by_id.insert(
            id,
            Job {
                id,
                scenario: manifest.name.clone(),
                trace: JobTrace {
                    id: trace.unwrap_or_else(pas_obs::trace::mint_id),
                    root: pas_obs::trace::mint_id(),
                    start_us: pas_obs::trace::now_us(),
                },
                phase: JobPhase::Queued,
                done: 0,
                total,
                stats: CacheStats::default(),
                error: None,
                result: None,
            },
        );
        t.manifests.insert(id, manifest);
        t.queue.push_back(id);
        pas_obs::inc("pas.queue.submit.count", &[("outcome", "accepted")]);
        pas_obs::gauge_set("pas.queue.depth.jobs", &[], t.queue.len() as i64);
        // Retention bound: a long-lived server must not accumulate every
        // finished job's result forever. Evict oldest finished jobs past
        // the cap (their runs stay warm in the on-disk cache; a later GET
        // answers 404 and a resubmission is all cache hits).
        if t.by_id.len() > RETAINED_JOBS {
            let mut finished: Vec<u64> = t
                .by_id
                .values()
                .filter(|j| matches!(j.phase, JobPhase::Completed | JobPhase::Failed))
                .map(|j| j.id)
                .collect();
            finished.sort_unstable();
            let excess = t.by_id.len() - RETAINED_JOBS;
            for old in finished.into_iter().take(excess) {
                t.by_id.remove(&old);
            }
        }
        drop(t);
        self.inner.available.notify_one();
        Ok(id)
    }

    /// Snapshot one job (without its result payload — copying the full
    /// record vectors under the registry lock on every status poll would
    /// stall the workers' progress updates).
    pub fn status(&self, id: u64) -> Option<Job> {
        let t = self.inner.jobs.lock().expect("queue poisoned");
        t.by_id.get(&id).map(|j| Job {
            id: j.id,
            scenario: j.scenario.clone(),
            trace: j.trace,
            phase: j.phase.clone(),
            done: j.done,
            total: j.total,
            stats: j.stats,
            error: j.error.clone(),
            result: None,
        })
    }

    /// The completed result of a job, if any.
    pub fn result(&self, id: u64) -> Option<BatchResult> {
        let t = self.inner.jobs.lock().expect("queue poisoned");
        t.by_id.get(&id).and_then(|j| j.result.clone())
    }

    /// Number of jobs waiting to be claimed.
    pub fn depth(&self) -> usize {
        self.inner.jobs.lock().expect("queue poisoned").queue.len()
    }

    /// Number of jobs currently in the `Running` phase.
    pub fn running(&self) -> usize {
        let t = self.inner.jobs.lock().expect("queue poisoned");
        t.by_id
            .values()
            .filter(|j| j.phase == JobPhase::Running)
            .count()
    }

    /// Mark the jobs as run by this process's own worker; the server
    /// does so before it starts [`JobQueue::work`].
    pub(crate) fn set_local_exec(&self) {
        self.inner.local_exec.store(true, Ordering::Relaxed);
    }

    /// The `GET /healthz` body: liveness, version, uptime, queue depth,
    /// running jobs, `mode` and the trace and profile drop counters,
    /// with an execution backend's own `fields` (each `"name":value,`)
    /// spliced in. `mode` is `local` while this process's own worker runs
    /// the jobs, else `remote`, the backend that claims them.
    pub fn healthz_json(&self, remote: &str, fields: &str) -> String {
        let local = self.inner.local_exec.load(Ordering::Relaxed);
        format!(
            "{{\"ok\":true,\"version\":{},\"uptime_s\":{},\"queue_depth\":{},\
             \"running_jobs\":{},{fields}\"mode\":{},\
             \"trace_dropped\":{},\"profile_dropped\":{}}}",
            quote(env!("CARGO_PKG_VERSION")),
            self.inner.opened.elapsed().as_secs(),
            self.depth(),
            self.running(),
            quote(if local { "local" } else { remote }),
            pas_obs::trace::dropped(),
            pas_obs::profile::dropped(),
        )
    }

    /// Wake all workers and make further submissions fail.
    pub fn shutdown(&self) {
        self.inner.jobs.lock().expect("queue poisoned").shutdown = true;
        self.inner.available.notify_all();
    }

    /// Claim the oldest queued job without blocking, marking it `Running`.
    /// Used by execution backends that poll (the distributed scheduler);
    /// in-process workers use the blocking [`JobQueue::work`] loop.
    pub fn try_claim(&self) -> Option<(u64, Manifest)> {
        let mut t = self.inner.jobs.lock().expect("queue poisoned");
        t.claim_front()
    }

    /// Publish progress for a running job.
    pub fn set_progress(&self, id: u64, done: usize, total: usize) {
        self.with_job(id, |j| {
            j.done = done;
            j.total = total;
        });
    }

    /// Publish a finished job's results and mark it `Completed`.
    pub fn complete(&self, id: u64, batch: BatchResult, stats: CacheStats) {
        self.with_job(id, |j| {
            j.phase = JobPhase::Completed;
            j.done = j.total;
            j.stats = stats;
            j.result = Some(batch);
            pas_obs::inc("pas.queue.jobs.count", &[("outcome", "completed")]);
            j.root_span("completed")
                .histogram("pas.queue.job.duration.microseconds", &[])
                .finish();
        });
    }

    /// Mark a job `Failed` with an error message.
    pub fn fail(&self, id: u64, error: impl Into<String>) {
        let error = error.into();
        self.with_job(id, |j| {
            j.phase = JobPhase::Failed;
            j.error = Some(error);
            pas_obs::inc("pas.queue.jobs.count", &[("outcome", "failed")]);
            j.root_span("failed").finish();
        });
    }

    /// Block until a job is available, pop it, and return `(id, manifest)`;
    /// `None` means the queue shut down.
    fn pop(&self) -> Option<(u64, Manifest)> {
        let mut t = self.inner.jobs.lock().expect("queue poisoned");
        loop {
            if let Some(claimed) = t.claim_front() {
                return Some(claimed);
            }
            if t.shutdown {
                return None;
            }
            t = self.inner.available.wait(t).expect("queue poisoned");
        }
    }

    fn with_job(&self, id: u64, f: impl FnOnce(&mut Job)) {
        let mut t = self.inner.jobs.lock().expect("queue poisoned");
        if let Some(j) = t.by_id.get_mut(&id) {
            f(j);
        }
    }

    /// Run the worker loop on the current thread until shutdown: pop a
    /// job, execute it against `cache`, publish progress and results.
    pub fn work(&self, cache: &ResultCache, opts: ExecOptions) {
        while let Some((id, manifest)) = self.pop() {
            let queue = self.clone();
            // The `job.execute` span covers the whole local execution;
            // the traced executor folds the per-point probe, run and
            // store spans into aggregates under it, filed before it
            // returns.
            let mut span = pas_obs::span("job.execute");
            if let Some(tr) = self.status(id).map(|j| j.trace) {
                span = span.parent(tr.id, tr.root);
            }
            let outcome =
                execute_with_cache_traced(&manifest, opts, cache, span.ctx(), |done, total| {
                    queue.set_progress(id, done, total);
                });
            // Closed before the job publishes, so a finished job's trace
            // is complete.
            span.finish();
            match outcome {
                Ok((batch, stats)) => self.complete(id, batch, stats),
                Err(e) => self.fail(id, e.to_string()),
            }
        }
    }
}

impl JobTable {
    /// Pop the oldest queued job and mark it running.
    fn claim_front(&mut self) -> Option<(u64, Manifest)> {
        let id = self.queue.pop_front()?;
        let manifest = self.manifests.remove(&id).expect("manifest for queued job");
        if let Some(j) = self.by_id.get_mut(&id) {
            j.phase = JobPhase::Running;
            pas_obs::span_since("job.queued", j.trace.start_us)
                .parent(j.trace.id, j.trace.root)
                .histogram("pas.queue.wait.microseconds", &[])
                .finish();
        }
        pas_obs::gauge_set("pas.queue.depth.jobs", &[], self.queue.len() as i64);
        Some((id, manifest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_scenario::{expand, registry};

    fn tiny_manifest() -> Manifest {
        let mut m = registry::builtin("paper-default").unwrap();
        m.sweep[0].values = vec![4.0].into();
        m.run.replicates = 1;
        m
    }

    #[test]
    fn backpressure_rejects_when_full() {
        let q = JobQueue::new(2);
        let m = tiny_manifest();
        let n = expand(&m).unwrap().len();
        assert!(q.submit(m.clone(), n).is_ok());
        assert!(q.submit(m.clone(), n).is_ok());
        assert_eq!(q.submit(m.clone(), n), Err(SubmitError::Full));
        q.shutdown();
        assert_eq!(q.submit(m, n), Err(SubmitError::Closed));
    }

    #[test]
    fn worker_drains_queue_and_publishes_results() {
        let dir = std::env::temp_dir().join(format!("pas_queue_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let q = JobQueue::new(8);
        let m = tiny_manifest();
        let n = expand(&m).unwrap().len();
        let id = q.submit(m, n).unwrap();
        assert_eq!(q.status(id).unwrap().phase, JobPhase::Queued);

        let worker = {
            let q = q.clone();
            let cache = cache.clone();
            std::thread::spawn(move || q.work(&cache, ExecOptions { threads: 1 }))
        };
        // Poll until the job completes (bounded, CI-safe).
        let mut waited = 0;
        while q.status(id).unwrap().phase != JobPhase::Completed {
            std::thread::sleep(std::time::Duration::from_millis(20));
            waited += 1;
            assert!(waited < 1500, "job did not complete in 30s");
        }
        let job = q.status(id).unwrap();
        assert_eq!(job.done, job.total);
        assert_eq!(job.stats.misses, n as u64, "cold run simulates everything");
        assert_eq!(job.stats.hits, 0);
        let batch = q.result(id).expect("completed job has results");
        assert_eq!(batch.records.len(), n);

        q.shutdown();
        worker.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
