//! The server-side shard scheduler: worker registry, lease table, and
//! fault-tolerant result assembly.
//!
//! The scheduler is an *execution backend* for `pas-server`'s job queue,
//! peer to the in-process worker pool: it claims queued jobs, expands
//! them, answers warm points from the shared result cache, chunks the
//! remaining matrix indices into shards, and hands shards to registered
//! workers under revocable leases (claim → execute → report).
//!
//! ## Lease lifecycle
//!
//! ```text
//!  pending shard ──lease──▶ leased (expires = now + lease_ms)
//!        ▲                     │
//!        │   expiry/partial    │ report (full)
//!        └─────────────────────┴──▶ points filled, shard retired
//! ```
//!
//! Heartbeats renew every lease a worker holds. A worker that dies
//! mid-shard simply stops renewing: the lease expires, the shard's
//! *unfilled* indices return to the pending queue, and the next live
//! worker picks them up. Because every run is deterministic in
//! `(manifest, index)`, a re-executed point is byte-identical — and the
//! fill-once rule (first report wins, keyed by matrix index, verified
//! against the point's content key) guarantees each point is counted
//! exactly once no matter how many workers raced on it. Results flow
//! into the same on-disk cache as local execution, so a distributed
//! batch warms exactly the entries a local one would.

use crate::protocol::{Register, Registered, ShardGrant, ShardReport};
use pas_obs::json::quote;
use pas_obs::trace::folded;
use pas_scenario::{expand, reduce, BatchResult, Manifest, RunRecord};
use pas_server::http::{Request, Response};
use pas_server::json;
use pas_server::{CacheStats, JobQueue, JobTrace, KeyPrefix, ResultCache, Router};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerOptions {
    /// Lease lifetime between renewals; a worker silent this long
    /// forfeits its shards.
    pub lease: Duration,
    /// Heartbeat interval workers are told to honour (must be well under
    /// `lease`; each heartbeat renews all of the worker's leases).
    pub heartbeat: Duration,
    /// Points per shard (0 = auto: the job's missing points spread over
    /// ~4 shards per live worker, clamped to `[1, 256]`).
    pub shard_points: usize,
}

/// Max jobs sharded concurrently; further jobs stay queued.
const MAX_ACTIVE_JOBS: usize = 4;

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            lease: Duration::from_secs(10),
            heartbeat: Duration::from_secs(2),
            shard_points: 0,
        }
    }
}

/// Outcome of a lease request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseOutcome {
    /// A shard to execute.
    Granted(ShardGrant),
    /// Nothing to do right now; poll again.
    Idle,
    /// Server is draining and all work is finished — exit.
    Drain,
    /// Worker id is not registered (expired or never was) — re-register.
    Unknown,
}

/// Acknowledgement of a shard report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReportAck {
    /// Points recorded for the first time.
    pub accepted: u64,
    /// Points already filled (re-executed after a re-lease, or a zombie
    /// worker's late report) — byte-identical by determinism, counted once.
    pub duplicates: u64,
}

struct WorkerEntry {
    name: String,
    threads: u64,
    last_seen: Instant,
    shards_done: u64,
    points_done: u64,
    /// Last heartbeat-reported cumulative executed points, for rate
    /// derivation between beats.
    last_points: Option<(u64, Instant)>,
    /// Executed points per second over the last heartbeat window; 0
    /// across a worker restart (cumulative count went down).
    points_per_s: f64,
}

struct Lease {
    worker: u64,
    indices: Vec<usize>,
    expires: Instant,
    /// Pre-minted `sched.lease` span id, shipped in the grant so worker
    /// spans nest under it; the span itself is recorded at retirement
    /// (report or expiry), when the duration and outcome are known.
    span: u64,
    /// Wall-clock µs of the grant — the lease span's start.
    granted_us: u64,
}

struct DistJob {
    id: u64,
    manifest: Manifest,
    toml: String,
    total: usize,
    /// Content key per matrix index, server-computed — reports must match.
    keys: Vec<String>,
    /// Fill-once result slots, in matrix order.
    records: Vec<Option<RunRecord>>,
    filled: usize,
    /// Shards awaiting a lease (matrix indices; may contain already
    /// filled indices after a zombie report — filtered at grant time).
    /// The flag marks re-pended shards (lease expiry or partial report),
    /// so their next grant is counted as a re-lease.
    pending: VecDeque<(Vec<usize>, bool)>,
    leases: HashMap<u64, Lease>,
    /// Points answered from the cache when the job was claimed.
    hits: u64,
    /// Points executed remotely (unique indices only).
    executed: u64,
    /// The submitting job's trace context (id + root span); lease spans
    /// and piggybacked worker spans all stitch under it.
    trace: Option<JobTrace>,
}

struct State {
    next_worker: u64,
    next_shard: u64,
    workers: BTreeMap<u64, WorkerEntry>,
    jobs: BTreeMap<u64, DistJob>,
    /// Jobs claimed from the queue but still being prepared (expanded,
    /// cache-probed) outside the lock — counted against
    /// [`MAX_ACTIVE_JOBS`] so concurrent claimers cannot overshoot.
    claiming: usize,
    draining: bool,
}

/// The shard scheduler. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Scheduler {
    queue: JobQueue,
    cache: ResultCache,
    opts: SchedulerOptions,
    state: Arc<Mutex<State>>,
}

impl Scheduler {
    /// A scheduler feeding from `queue`, answering warm points from (and
    /// storing remote results into) `cache`.
    pub fn new(queue: JobQueue, cache: ResultCache, opts: SchedulerOptions) -> Scheduler {
        Scheduler {
            queue,
            cache,
            opts,
            state: Arc::new(Mutex::new(State {
                next_worker: 1,
                next_shard: 1,
                workers: BTreeMap::new(),
                jobs: BTreeMap::new(),
                claiming: 0,
                draining: false,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("scheduler poisoned")
    }

    /// Register a worker; the response carries its id and the timing
    /// contract (heartbeat cadence, lease lifetime).
    pub fn register(&self, reg: &Register) -> Registered {
        let mut s = self.lock();
        let id = s.next_worker;
        s.next_worker += 1;
        s.workers.insert(
            id,
            WorkerEntry {
                name: reg.name.clone(),
                threads: reg.threads,
                last_seen: Instant::now(),
                shards_done: 0,
                points_done: 0,
                last_points: None,
                points_per_s: 0.0,
            },
        );
        Registered {
            worker: id,
            heartbeat_ms: self.opts.heartbeat.as_millis() as u64,
            lease_ms: self.opts.lease.as_millis() as u64,
        }
    }

    /// Record a heartbeat: refreshes the worker and renews every lease it
    /// holds. Workers piggyback their cumulative execute telemetry
    /// (`points`, `busy_us`) on the beat; when present it is published
    /// as per-worker gauges. Returns `Some(drain)` or `None` for an
    /// unknown worker.
    pub fn heartbeat(
        &self,
        worker: u64,
        points: Option<u64>,
        busy_us: Option<u64>,
    ) -> Option<bool> {
        let now = Instant::now();
        let mut s = self.lock();
        let w = s.workers.get_mut(&worker)?;
        w.last_seen = now;
        pas_obs::inc("pas.dist.heartbeat.count", &[("worker", &w.name)]);
        if let Some(p) = points {
            pas_obs::gauge_set(
                "pas.dist.worker.executed.points",
                &[("worker", &w.name)],
                p as i64,
            );
            // Per-beat rate from the cumulative count: a drop means the
            // worker restarted, so that window's rate is zero.
            if let Some((prev, at)) = w.last_points {
                let dt = now.duration_since(at).as_secs_f64();
                w.points_per_s = if dt > 0.0 && p >= prev {
                    (p - prev) as f64 / dt
                } else {
                    0.0
                };
            }
            w.last_points = Some((p, now));
        }
        if let Some(b) = busy_us {
            pas_obs::gauge_set(
                "pas.dist.worker.busy.microseconds",
                &[("worker", &w.name)],
                b as i64,
            );
        }
        let renewed = now + self.opts.lease;
        for job in s.jobs.values_mut() {
            for lease in job.leases.values_mut() {
                if lease.worker == worker {
                    lease.expires = renewed;
                }
            }
        }
        Some(s.draining)
    }

    /// Stop claiming new jobs; workers exit once all active jobs finish.
    pub fn drain(&self) {
        self.lock().draining = true;
    }

    /// Reclaim expired leases and (if capacity allows) claim queued jobs.
    /// Called from the ticker thread and opportunistically from idle
    /// lease requests.
    pub fn tick(&self) {
        {
            let mut s = self.lock();
            let now = Instant::now();
            expire(&mut s, now, self.opts.lease);
        }
        self.try_claim_job();
    }

    /// Grant a shard to `worker`, or explain why not.
    pub fn lease(&self, worker: u64) -> LeaseOutcome {
        let _prof = pas_obs::profile::scope("sched.lease");
        {
            let mut s = self.lock();
            let now = Instant::now();
            match s.workers.get_mut(&worker) {
                Some(w) => w.last_seen = now,
                None => return LeaseOutcome::Unknown,
            }
            expire(&mut s, now, self.opts.lease);
            if let Some(grant) = next_grant(&mut s, worker, now, self.opts.lease) {
                return LeaseOutcome::Granted(grant);
            }
        }
        // Nothing pending: try to pull a queued job in (outside the state
        // lock — expansion and cache probing must not stall heartbeats).
        self.try_claim_job();
        let mut s = self.lock();
        let now = Instant::now();
        if let Some(grant) = next_grant(&mut s, worker, now, self.opts.lease) {
            return LeaseOutcome::Granted(grant);
        }
        // Release the fleet only when truly done: draining, nothing
        // sharded, and nothing mid-claim (a job popped from the queue but
        // still being prepared outside the lock must not be stranded).
        if s.draining && s.jobs.is_empty() && s.claiming == 0 {
            return LeaseOutcome::Drain;
        }
        LeaseOutcome::Idle
    }

    /// Apply a shard report: verify every point's content key, fill
    /// unfilled slots (first report wins), retire the lease, and complete
    /// the job when the last slot fills. Idempotent for late or repeated
    /// reports. `Err` carries a message for a `400` (key mismatch — a
    /// worker executing a different matrix than the server expanded).
    /// Accepted keys and records move out of the report into the job and
    /// the cache writes.
    pub fn report(&self, report: ShardReport) -> Result<ReportAck, String> {
        // Covers the whole report; the cache writes fold into its
        // `cache.store` child.
        let mut span = pas_obs::span("sched.report");
        let now = Instant::now();
        let mut s = self.lock();
        if let Some(w) = s.workers.get_mut(&report.worker) {
            w.last_seen = now;
        }
        let Some(job) = s.jobs.get_mut(&report.job) else {
            // Job already assembled (or never sharded): a zombie report.
            // Everything in it is a duplicate by definition.
            return Ok(ReportAck {
                accepted: 0,
                duplicates: report.points.len() as u64,
            });
        };

        // Verify before touching anything: one bad stanza rejects the
        // whole report (the shard re-pends via lease expiry).
        for p in &report.points {
            if p.index >= job.total {
                return Err(format!("index {} out of range 0..{}", p.index, job.total));
            }
            if job.keys[p.index] != p.key {
                return Err(format!(
                    "content key mismatch at index {} (worker executed a different matrix?)",
                    p.index
                ));
            }
        }

        let mut ack = ReportAck::default();
        // Accepted records are persisted to the cache *after* the state
        // lock drops (disk writes under the lock would stall heartbeats
        // and lease renewals fleet-wide), but before the job's completion
        // is published, so "completed" still implies "warm on disk".
        let mut to_store: Vec<(String, RunRecord)> = Vec::new();
        let empty = report.points.is_empty();
        for p in report.points {
            if job.records[p.index].is_none() {
                job.records[p.index] = Some(p.record.clone());
                to_store.push((p.key, p.record));
                job.filled += 1;
                job.executed += 1;
                ack.accepted += 1;
            } else {
                ack.duplicates += 1;
            }
        }

        // Retire the lease; anything it covered that is still unfilled
        // (a partial report) goes back to pending.
        let retired = job.leases.remove(&report.shard);
        if let Some(lease) = &retired {
            let leftover: Vec<usize> = lease
                .indices
                .iter()
                .copied()
                .filter(|&i| job.records[i].is_none())
                .collect();
            if !leftover.is_empty() {
                job.pending.push_front((leftover, true));
            }
        }
        let trace = job.trace;
        let job_id = job.id;
        let done = job.filled;
        let total = job.total;
        let finished = job.filled == job.total;
        // Close the grant-to-report lease span and nest this report
        // under it.
        if let (Some(tr), Some(lease)) = (trace, &retired) {
            let outcome = if empty { "empty" } else { "reported" };
            close_lease(tr, &s.workers, report.shard, lease, outcome);
            span = span
                .parent(tr.id, lease.span)
                .labels(&[("shard", &report.shard.to_string())]);
        }
        pas_obs::add(
            "pas.dist.report.points.count",
            &[("outcome", "accepted")],
            ack.accepted,
        );
        pas_obs::add(
            "pas.dist.report.points.count",
            &[("outcome", "duplicate")],
            ack.duplicates,
        );
        if let Some(w) = s.workers.get_mut(&report.worker) {
            w.shards_done += 1;
            w.points_done += ack.accepted;
            pas_obs::gauge_set(
                "pas.dist.worker.points.total",
                &[("worker", &w.name)],
                w.points_done as i64,
            );
        }
        let assembled = finished.then(|| {
            let job = s.jobs.remove(&job_id).expect("job present");
            // Any lease still open (a racing worker whose points a zombie
            // replay filled first) closes as `unresolved` now, so every
            // already-ingested worker span keeps an existing parent.
            let mut assemble_span = pas_obs::span("sched.assemble");
            if let Some(tr) = trace {
                for (&shard, l) in &job.leases {
                    close_lease(tr, &s.workers, shard, l, "unresolved");
                }
                assemble_span = assemble_span.parent(tr.id, tr.root);
            }
            let assembled = assemble(job);
            assemble_span.finish();
            assembled
        });
        drop(s);
        // File the worker's piggybacked spans under the job's trace and
        // fold its drained region profile into this process's table, so
        // the scheduler's flamegraph attributes fleet-wide execute time.
        // Both run outside the state lock, which every lease and
        // heartbeat takes, but before the job publishes, so a finished
        // job's trace is complete.
        if trace.is_some() && !report.spans.is_empty() {
            pas_obs::trace::ingest(&report.spans);
            pas_obs::add(
                "pas.dist.report.spans.count",
                &[],
                report.spans.len() as u64,
            );
        }
        if !report.profile.is_empty() {
            pas_obs::profile::ingest(&report.profile);
        }
        folded(span.ctx(), || {
            for (key, record) in &to_store {
                // A failed store only costs a future recomputation.
                let _ = self.cache.store(key, record);
            }
        });
        // Closed before the job publishes, so a finished job's trace is
        // complete.
        span.finish();
        match assembled {
            Some((batch, stats)) => self.queue.complete(job_id, batch, stats),
            None => self.queue.set_progress(job_id, done, total),
        }
        Ok(ack)
    }

    /// Claim at most one queued job into the shard table: expand it,
    /// answer warm points from the cache, shard the rest. Heavy work runs
    /// outside the state lock; the queue pop itself happens *under* the
    /// lock (it is one mutex-guarded deque operation) so the draining
    /// flag and [`MAX_ACTIVE_JOBS`] cap — with in-flight preparations
    /// counted via `claiming` — cannot be raced past.
    fn try_claim_job(&self) {
        let (live, shard_points, claimed) = {
            let mut s = self.lock();
            if s.draining || s.jobs.len() + s.claiming >= MAX_ACTIVE_JOBS {
                return;
            }
            let now = Instant::now();
            let live = live_workers(&s, now, self.opts.lease);
            if live == 0 {
                return;
            }
            let Some(claimed) = self.queue.try_claim() else {
                return;
            };
            s.claiming += 1;
            (live, self.opts.shard_points, claimed)
        };
        let finish_claim = || {
            self.lock().claiming -= 1;
        };
        let (id, manifest) = claimed;
        let trace = self.queue.status(id).map(|j| j.trace);
        let points = match expand(&manifest) {
            Ok(p) => p,
            Err(e) => {
                self.queue.fail(id, e.to_string());
                finish_claim();
                return;
            }
        };
        let total = points.len();
        let mut keys = Vec::with_capacity(total);
        let mut records: Vec<Option<RunRecord>> = Vec::with_capacity(total);
        let mut missing: Vec<usize> = Vec::new();
        let mut hits = 0u64;
        let prefix = KeyPrefix::new(&manifest);
        let cell_keys = prefix.cells(&points);
        // The cache probes fold into `cache.probe` aggregates under the
        // job's root, filed before the job can publish.
        folded(trace.map(|tr| (tr.id, tr.root)), || {
            for pt in &points {
                let key = cell_keys.key(pt);
                match self.cache.load(&key) {
                    Some(r) => {
                        records.push(Some(r));
                        hits += 1;
                    }
                    None => {
                        records.push(None);
                        missing.push(pt.index);
                    }
                }
                keys.push(key);
            }
        });
        let filled = total - missing.len();
        if missing.is_empty() {
            // Fully warm: no worker round trip at all.
            let job = DistJob {
                id,
                manifest,
                toml: String::new(),
                total,
                keys,
                records,
                filled,
                pending: VecDeque::new(),
                leases: HashMap::new(),
                hits,
                executed: 0,
                trace,
            };
            let (batch, stats) = assemble(job);
            self.queue.complete(id, batch, stats);
            finish_claim();
            return;
        }
        let size = if shard_points > 0 {
            shard_points
        } else {
            missing.len().div_ceil(4 * live).clamp(1, 256)
        };
        let pending: VecDeque<(Vec<usize>, bool)> =
            missing.chunks(size).map(|c| (c.to_vec(), false)).collect();
        pas_obs::inc("pas.dist.jobs.claimed.count", &[]);
        self.queue.set_progress(id, filled, total);
        let job = DistJob {
            id,
            toml: manifest.to_toml(),
            manifest,
            total,
            keys,
            records,
            filled,
            pending,
            leases: HashMap::new(),
            hits,
            executed: 0,
            trace,
        };
        let mut s = self.lock();
        s.claiming -= 1;
        s.jobs.insert(id, job);
    }

    /// `GET /healthz` body: the queue's health (`mode` is `local` when
    /// the server runs its own queue worker beside the fleet, else
    /// `dist`) plus the fleet view. `active_jobs` counts jobs this
    /// scheduler is currently sharding; `running_jobs` is queue-level and
    /// covers the in-process worker too. Shadows `pas-server`'s built-in
    /// `/healthz` when mounted.
    pub fn healthz_json(&self) -> String {
        let fleet = {
            let s = self.lock();
            format!(
                "\"active_jobs\":{},\"workers\":{},\"draining\":{},",
                s.jobs.len() + s.claiming,
                live_workers(&s, Instant::now(), self.opts.lease),
                s.draining,
            )
        };
        self.queue.healthz_json("dist", &fleet)
    }

    /// `GET /dist/workers` JSON body: the fleet, one object per worker.
    pub fn workers_json(&self) -> String {
        let s = self.lock();
        let now = Instant::now();
        let entries: Vec<String> = s
            .workers
            .iter()
            .map(|(&id, w)| {
                let age = now.duration_since(w.last_seen);
                format!(
                    "{{\"id\":{id},\"name\":{},\"threads\":{},\"alive\":{},\
                     \"active_leases\":{},\"shards_done\":{},\"points_done\":{},\
                     \"points_per_s\":{:.1},\"last_seen_ms\":{}}}",
                    quote(&w.name),
                    w.threads,
                    age <= self.opts.lease,
                    active_leases(&s, id),
                    w.shards_done,
                    w.points_done,
                    w.points_per_s,
                    age.as_millis()
                )
            })
            .collect();
        format!("{{\"workers\":[{}]}}", entries.join(","))
    }

    /// `GET /dist/workers` plain-text body: the same fleet as a table
    /// (`pas status` prints this verbatim).
    pub fn workers_text(&self) -> String {
        let s = self.lock();
        let now = Instant::now();
        let mut out = format!(
            "{:<6} {:<16} {:>7} {:>6} {:>7} {:>7} {:>7} {:>8} {:>9}\n",
            "id", "name", "threads", "alive", "leases", "shards", "points", "pts/s", "seen(ms)"
        );
        for (&id, w) in &s.workers {
            let age = now.duration_since(w.last_seen);
            out.push_str(&format!(
                "{:<6} {:<16} {:>7} {:>6} {:>7} {:>7} {:>7} {:>8.1} {:>9}\n",
                id,
                w.name,
                w.threads,
                if age <= self.opts.lease { "yes" } else { "no" },
                active_leases(&s, id),
                w.shards_done,
                w.points_done,
                w.points_per_s,
                age.as_millis()
            ));
        }
        out
    }

    /// Spawn the background ticker (lease expiry + job claiming). Runs
    /// for the life of the process.
    pub fn spawn_ticker(&self) {
        let sched = self.clone();
        let interval = (self.opts.heartbeat / 2).max(Duration::from_millis(50));
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            sched.tick();
        });
    }

    /// Wrap this scheduler as a `pas-server` extension [`Router`]
    /// mounting `/healthz` and the `/dist/*` protocol.
    pub fn into_router(self) -> Router {
        Arc::new(move |req| self.route(req))
    }

    fn route(&self, req: &Request) -> Option<Response> {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        let body = || String::from_utf8_lossy(&req.body).into_owned();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Some(Response::json(200, self.healthz_json())),
            ("POST", ["dist", "register"]) => match Register::from_json(&body()) {
                Some(reg) => Some(Response::json(200, self.register(&reg).to_json())),
                None => Some(Response::error(400, "malformed register body")),
            },
            ("POST", ["dist", "heartbeat"]) => {
                let body = body();
                let Some(worker) = json::find_u64(&body, "worker") else {
                    return Some(Response::error(400, "malformed heartbeat body"));
                };
                // Telemetry fields are optional: pre-observability
                // workers beat with just their id.
                let points = json::find_u64(&body, "points");
                let busy_us = json::find_u64(&body, "busy_us");
                match self.heartbeat(worker, points, busy_us) {
                    Some(drain) => Some(Response::json(
                        200,
                        format!("{{\"ok\":true,\"drain\":{drain}}}"),
                    )),
                    None => Some(Response::error(410, "unknown worker — re-register")),
                }
            }
            ("POST", ["dist", "lease"]) => {
                let Some(worker) = json::find_u64(&body(), "worker") else {
                    return Some(Response::error(400, "malformed lease body"));
                };
                Some(match self.lease(worker) {
                    LeaseOutcome::Granted(grant) => Response::json(200, grant.to_json()),
                    LeaseOutcome::Idle => Response::new(204, "application/json", ""),
                    LeaseOutcome::Drain => Response::json(200, "{\"drain\":true}"),
                    LeaseOutcome::Unknown => Response::error(410, "unknown worker — re-register"),
                })
            }
            ("POST", ["dist", "report"]) => {
                let Some(report) = crate::protocol::decode_report(&body()) else {
                    return Some(Response::error(400, "malformed report body"));
                };
                Some(match self.report(report) {
                    Ok(ack) => Response::json(
                        200,
                        format!(
                            "{{\"ok\":true,\"accepted\":{},\"duplicates\":{}}}",
                            ack.accepted, ack.duplicates
                        ),
                    ),
                    Err(msg) => Response::error(400, &msg),
                })
            }
            ("GET", ["dist", "workers"]) => {
                let accept = req.header("accept").unwrap_or("application/json");
                Some(if accept.contains("text/plain") {
                    Response::new(200, "text/plain", self.workers_text())
                } else {
                    Response::json(200, self.workers_json())
                })
            }
            ("POST", ["dist", "drain"]) => {
                self.drain();
                Some(Response::json(200, "{\"draining\":true}"))
            }
            _ => None,
        }
    }
}

/// Count workers heard from within one lease interval.
fn live_workers(s: &State, now: Instant, lease: Duration) -> usize {
    s.workers
        .values()
        .filter(|w| now.duration_since(w.last_seen) <= lease)
        .count()
}

/// Count a worker's outstanding leases.
fn active_leases(s: &State, worker: u64) -> usize {
    s.jobs
        .values()
        .map(|j| j.leases.values().filter(|l| l.worker == worker).count())
        .sum()
}

/// Close a lease's `sched.lease` span, grant to now, with `outcome`.
/// The worker label is the registered name, or the bare id once the
/// registry has forgotten a long-dead worker.
fn close_lease(
    tr: JobTrace,
    workers: &BTreeMap<u64, WorkerEntry>,
    shard: u64,
    lease: &Lease,
    outcome: &str,
) {
    let worker = workers
        .get(&lease.worker)
        .map(|w| w.name.clone())
        .unwrap_or_else(|| lease.worker.to_string());
    pas_obs::span_since("sched.lease", lease.granted_us)
        .with_id(lease.span)
        .parent(tr.id, tr.root)
        .labels(&[
            ("worker", worker.as_str()),
            ("shard", &shard.to_string()),
            ("outcome", outcome),
        ])
        .finish();
}

/// Return expired leases' unfilled indices to pending and forget workers
/// silent for three lease intervals.
fn expire(s: &mut State, now: Instant, lease: Duration) {
    let State { jobs, workers, .. } = s;
    for job in jobs.values_mut() {
        let expired: Vec<u64> = job
            .leases
            .iter()
            .filter(|(_, l)| l.expires < now)
            .map(|(&id, _)| id)
            .collect();
        for shard in expired {
            let l = job.leases.remove(&shard).expect("lease present");
            pas_obs::inc("pas.dist.lease.events.count", &[("event", "expired")]);
            // The lease span still closes — with outcome=expired — so a
            // worker death is visible in the trace, not just a gap.
            if let Some(tr) = job.trace {
                close_lease(tr, workers, shard, &l, "expired");
            }
            let unfilled: Vec<usize> = l
                .indices
                .into_iter()
                .filter(|&i| job.records[i].is_none())
                .collect();
            if !unfilled.is_empty() {
                job.pending.push_front((unfilled, true));
            }
        }
    }
    workers.retain(|_, w| now.duration_since(w.last_seen) <= lease * 3);
}

/// Pop the next pending shard (oldest job first), filter already-filled
/// indices, and lease it to `worker`.
fn next_grant(s: &mut State, worker: u64, now: Instant, lease: Duration) -> Option<ShardGrant> {
    let next_shard = &mut s.next_shard;
    for job in s.jobs.values_mut() {
        while let Some((mut indices, re_pended)) = job.pending.pop_front() {
            indices.retain(|&i| job.records[i].is_none());
            if indices.is_empty() {
                continue;
            }
            let shard = *next_shard;
            *next_shard += 1;
            pas_obs::inc("pas.dist.lease.events.count", &[("event", "granted")]);
            if re_pended {
                pas_obs::inc("pas.dist.lease.events.count", &[("event", "re_leased")]);
            }
            pas_obs::observe_with(
                "pas.dist.shard.size.points",
                &[],
                pas_obs::COUNT_BUCKETS,
                indices.len() as f64,
            );
            // Pre-mint the lease span id so the grant can carry it; the
            // span records at retirement when duration/outcome are known.
            let (trace_id, span) = match job.trace {
                Some(tr) => (tr.id, pas_obs::trace::mint_id()),
                None => (0, 0),
            };
            job.leases.insert(
                shard,
                Lease {
                    worker,
                    indices: indices.clone(),
                    expires: now + lease,
                    span,
                    granted_us: pas_obs::trace::now_us(),
                },
            );
            return Some(ShardGrant {
                job: job.id,
                shard,
                indices,
                manifest_toml: job.toml.clone(),
                trace: trace_id,
                span,
                // This scheduler decodes profile stanzas, so every grant
                // advertises the capability; workers only ship their
                // drained profile when they see it.
                profile: true,
            });
        }
    }
    None
}

/// Fold a fully-filled job into the queue's result types.
fn assemble(job: DistJob) -> (BatchResult, CacheStats) {
    debug_assert_eq!(job.filled, job.total);
    let records: Vec<RunRecord> = job
        .records
        .into_iter()
        .map(|r| r.expect("job fully filled"))
        .collect();
    let summaries = reduce(&records);
    (
        BatchResult {
            name: job.manifest.name.clone(),
            x_label: job.manifest.x_label(),
            records,
            summaries,
        },
        CacheStats {
            hits: job.hits,
            misses: job.executed,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_scenario::{execute_point, expand, registry, ExecOptions};
    use pas_server::JobPhase;

    fn tiny_manifest() -> Manifest {
        let mut m = registry::builtin("paper-default").unwrap();
        m.sweep[0].values = vec![4.0].into();
        m.run.replicates = 2;
        m
    }

    fn harness(tag: &str, opts: SchedulerOptions) -> (Scheduler, JobQueue, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("pas_dist_sched_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let queue = JobQueue::new(8);
        (Scheduler::new(queue.clone(), cache, opts), queue, dir)
    }

    /// Execute a grant exactly like a real worker would (shared code is
    /// the point: execute_point + ResultCache::key).
    fn run_grant(grant: &ShardGrant, worker: u64) -> ShardReport {
        let m = Manifest::parse(&grant.manifest_toml).unwrap();
        let field = m.build_field();
        let points = pas_scenario::expand_indices(&m, &grant.indices).unwrap();
        ShardReport {
            job: grant.job,
            shard: grant.shard,
            worker,
            points: points
                .iter()
                .map(|pt| crate::protocol::PointReport {
                    index: pt.index,
                    key: ResultCache::key(&m, pt),
                    record: execute_point(&m, field.as_ref(), pt),
                })
                .collect(),
            spans: Vec::new(),
            profile: Vec::new(),
        }
    }

    #[test]
    fn single_worker_executes_a_job_end_to_end() {
        let (sched, queue, dir) = harness("single", SchedulerOptions::default());
        let m = tiny_manifest();
        let n = expand(&m).unwrap().len();
        let id = queue.submit(m.clone(), n).unwrap();

        let w = sched.register(&Register {
            name: "w1".into(),
            threads: 1,
        });
        let mut shards = 0;
        loop {
            match sched.lease(w.worker) {
                LeaseOutcome::Granted(grant) => {
                    let ack = sched.report(run_grant(&grant, w.worker)).unwrap();
                    assert_eq!(ack.duplicates, 0);
                    shards += 1;
                }
                LeaseOutcome::Idle => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(shards >= 1);
        let job = queue.status(id).unwrap();
        assert_eq!(job.phase, JobPhase::Completed);
        assert_eq!(job.stats.hits, 0);
        assert_eq!(job.stats.misses, n as u64);

        // Every accepted point's cache write folds into the one
        // `cache.store` aggregate under the report that stored it, and
        // each report span covers its writes.
        let spans = pas_obs::trace::spans_for(job.trace.id);
        let label = |s: &pas_obs::trace::SpanRecord, key: &str| -> Option<u64> {
            let (_, v) = s.labels.iter().find(|(k, _)| k == key)?;
            v.parse().ok()
        };
        let reports: Vec<_> = spans.iter().filter(|s| s.name == "sched.report").collect();
        let stores: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "cache.store" && label(s, "points").is_some())
            .collect();
        assert_eq!(
            stores.len(),
            reports.len(),
            "one cache.store aggregate per report"
        );
        let points: u64 = stores.iter().filter_map(|s| label(s, "points")).sum();
        assert_eq!(
            points, n as u64,
            "the aggregates count every accepted point once"
        );
        for r in reports {
            let store = stores.iter().find(|s| s.parent == r.span).unwrap();
            let writes = label(store, "sum_us").unwrap();
            assert!(
                r.dur_us >= writes,
                "report {}us < its writes {writes}us",
                r.dur_us
            );
        }

        // Distributed result == direct local execution, bit for bit.
        let direct = pas_scenario::execute(&m, ExecOptions { threads: 1 }).unwrap();
        let batch = queue.result(id).unwrap();
        assert_eq!(batch.records.len(), direct.records.len());
        for (a, b) in batch.records.iter().zip(&direct.records) {
            assert_eq!(a.delay_s.to_bits(), b.delay_s.to_bits());
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
            assert_eq!(a.seed, b.seed);
        }

        // Resubmission is fully warm: completes with zero executions and
        // no worker round trip.
        let id2 = queue.submit(m, n).unwrap();
        assert!(matches!(sched.lease(w.worker), LeaseOutcome::Idle));
        let job2 = queue.status(id2).unwrap();
        assert_eq!(job2.phase, JobPhase::Completed, "warm job: {:?}", job2);
        assert_eq!(job2.stats.hits, n as u64);
        assert_eq!(job2.stats.misses, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_lease_re_leases_and_dedups_zombie_report() {
        let opts = SchedulerOptions {
            lease: Duration::from_millis(30),
            heartbeat: Duration::from_millis(10),
            shard_points: 2,
        };
        let (sched, queue, dir) = harness("expiry", opts);
        let m = tiny_manifest();
        let n = expand(&m).unwrap().len();
        let id = queue.submit(m, n).unwrap();

        let dead = sched.register(&Register {
            name: "dead".into(),
            threads: 1,
        });
        let LeaseOutcome::Granted(doomed) = sched.lease(dead.worker) else {
            panic!("no grant for first worker");
        };
        // The "dead" worker executes its shard but never reports in time;
        // its lease expires and a live worker finishes everything.
        std::thread::sleep(Duration::from_millis(60));
        let live = sched.register(&Register {
            name: "live".into(),
            threads: 1,
        });
        let mut reexecuted = false;
        loop {
            match sched.lease(live.worker) {
                LeaseOutcome::Granted(grant) => {
                    if grant.indices.iter().any(|i| doomed.indices.contains(i)) {
                        reexecuted = true;
                    }
                    sched.report(run_grant(&grant, live.worker)).unwrap();
                }
                LeaseOutcome::Idle => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(reexecuted, "expired shard must be re-leased");
        let job = queue.status(id).unwrap();
        assert_eq!(job.phase, JobPhase::Completed);
        assert_eq!(
            job.stats.hits + job.stats.misses,
            n as u64,
            "every point counted exactly once"
        );

        // The zombie finally reports: everything is a duplicate, nothing
        // double-counts, the completed job is untouched.
        let ack = sched.report(run_grant(&doomed, dead.worker)).unwrap();
        assert_eq!(ack.accepted, 0);
        assert_eq!(ack.duplicates, doomed.indices.len() as u64);
        let job = queue.status(id).unwrap();
        assert_eq!(job.stats.hits + job.stats.misses, n as u64);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_rejects_report() {
        let (sched, queue, dir) = harness("badkey", SchedulerOptions::default());
        let m = tiny_manifest();
        let n = expand(&m).unwrap().len();
        queue.submit(m, n).unwrap();
        let w = sched.register(&Register {
            name: "w".into(),
            threads: 1,
        });
        let LeaseOutcome::Granted(grant) = sched.lease(w.worker) else {
            panic!("no grant");
        };
        let mut report = run_grant(&grant, w.worker);
        report.points[0].key = "0badc0de".into();
        let err = sched.report(report).unwrap_err();
        assert!(err.contains("key mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_refuses_new_jobs_and_releases_workers() {
        let (sched, queue, dir) = harness("drain", SchedulerOptions::default());
        let w = sched.register(&Register {
            name: "w".into(),
            threads: 1,
        });
        sched.drain();
        let m = tiny_manifest();
        let n = expand(&m).unwrap().len();
        let id = queue.submit(m, n).unwrap();
        assert!(matches!(sched.lease(w.worker), LeaseOutcome::Drain));
        // The job was never claimed by the draining scheduler.
        assert_eq!(queue.status(id).unwrap().phase, JobPhase::Queued);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_worker_must_re_register() {
        let (sched, _queue, dir) = harness("unknown", SchedulerOptions::default());
        assert!(matches!(sched.lease(42), LeaseOutcome::Unknown));
        assert_eq!(sched.heartbeat(42, None, None), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
