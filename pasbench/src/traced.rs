//! The traced replay: the harness is also the execution backend, so every
//! layer call on the job path is the harness's own and is timed as a
//! span around a call into that layer's public functions.
//!
//! * `cold-grid` / `warm-grid`: the server runs with `local_exec: false`;
//!   [`local_backend`] claims jobs with `JobQueue::try_claim` and makes
//!   the calls `JobQueue::work` makes (`expand`, then per point
//!   `ResultCache::key` / `load` / `execute_point` / `store` inside
//!   `parallel_map_with`, then `reduce` and `JobQueue::complete`).
//! * `dist-grid`: the real scheduler runs; [`dist_worker`] threads speak
//!   `/dist/*` through `pas_server::http::roundtrip` and
//!   `pas_dist::protocol`.
//!
//! Spans (name, start, end, parent, job) stay in memory and are written
//! out when the run ends. Per-point spans are kept for the first
//! [`DETAILED_JOBS`] jobs only; every call, detailed or not, feeds the
//! per-layer means.

use crate::service::{Outcome, WORKER_POLL};
use pas_diffusion::StimulusField;
use pas_dist::protocol::{decode_report, encode_report, PointReport, Register, Registered};
use pas_dist::{ShardGrant, ShardReport};
use pas_scenario::{
    execute_point, expand, expand_indices, reduce, sink, BatchResult, ExecOptions, Manifest,
    RunRecord,
};
use pas_server::http::roundtrip;
use pas_server::{CacheStats, JobQueue, ResultCache};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Jobs whose per-point calls are kept as spans.
pub const DETAILED_JOBS: usize = 16;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id.
    pub id: u64,
    /// The enclosing span's id (0 for none).
    pub parent: u64,
    /// Job id (0 for calls outside a job, such as idle leases).
    pub job: u64,
    /// Layer call name.
    pub name: &'static str,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
}

/// Fixed ids of a job's client-side spans, so the backend can parent
/// under `service` before the client records it.
fn root_id(job: u64) -> u64 {
    (1 << 63) | (job << 3)
}
fn service_id(job: u64) -> u64 {
    root_id(job) | 1
}

#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    n: u64,
    sum: f64,
}

#[derive(Default)]
struct Marks {
    claim: Option<Instant>,
    complete: Option<Instant>,
    detailed: bool,
}

/// The span store and per-layer accumulators of one traced window.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    acc: Mutex<BTreeMap<&'static str, Acc>>,
    marks: Mutex<HashMap<u64, Marks>>,
    detailed: AtomicU64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            acc: Mutex::new(BTreeMap::new()),
            marks: Mutex::new(HashMap::new()),
            detailed: AtomicU64::new(0),
        }
    }

    /// Add one observation to the accumulator `name`.
    pub fn add(&self, name: &'static str, v: f64) {
        let mut acc = self.acc.lock().expect("acc lock");
        let a = acc.entry(name).or_default();
        a.n += 1;
        a.sum += v;
    }

    fn get(&self, name: &str) -> Acc {
        self.acc
            .lock()
            .expect("acc lock")
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Mean of `name`, 0 when never observed.
    pub fn mean(&self, name: &str) -> f64 {
        let a = self.get(name);
        if a.n == 0 {
            0.0
        } else {
            a.sum / a.n as f64
        }
    }

    /// Sum of `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).sum
    }

    /// Observations of `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.get(name).n
    }

    /// A span id for a span recorded later (so children can name it).
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Forget everything recorded so far (set-up traffic).
    pub fn reset(&self) {
        self.spans.lock().expect("span lock").clear();
        self.acc.lock().expect("acc lock").clear();
        self.marks.lock().expect("marks lock").clear();
        self.detailed.store(0, Ordering::Relaxed);
    }

    /// Record a span with a fresh id (or `id` when given); returns the id.
    pub fn span(
        &self,
        id: Option<u64>,
        name: &'static str,
        job: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = id.unwrap_or_else(|| self.fresh_id());
        self.spans.lock().expect("span lock").push(Span {
            id,
            parent,
            job,
            name,
            start,
            end: end.max(start),
        });
        id
    }

    /// Mark job `job` claimed at `at` (the earliest claim wins). Returns
    /// true for the first claim seen.
    fn claimed(&self, job: u64, at: Instant) -> bool {
        let mut marks = self.marks.lock().expect("marks lock");
        let first = !marks.contains_key(&job);
        let m = marks.entry(job).or_default();
        m.claim = Some(m.claim.map_or(at, |c| c.min(at)));
        if first {
            m.detailed = self.detailed.fetch_add(1, Ordering::Relaxed) < DETAILED_JOBS as u64;
        }
        first
    }

    fn detailed(&self, job: u64) -> bool {
        self.marks
            .lock()
            .expect("marks lock")
            .get(&job)
            .is_some_and(|m| m.detailed)
    }

    fn completed(&self, job: u64, at: Instant) {
        self.marks
            .lock()
            .expect("marks lock")
            .entry(job)
            .or_default()
            .complete = Some(at);
    }

    /// Time `Manifest::parse` of a job's TOML (the server's first step
    /// on submit), in µs.
    pub fn time_parse(&self, toml: &str) -> f64 {
        let t0 = Instant::now();
        let m = Manifest::parse(toml).expect("generated manifests parse");
        let el = us(t0.elapsed());
        std::hint::black_box(m);
        el
    }

    /// Record a finished job's client-side spans and its latency coverage.
    pub fn client_job(&self, out: &Outcome, parse_us: f64) {
        let job = out.job.id;
        let root = root_id(job);
        let (claim, complete) = {
            let marks = self.marks.lock().expect("marks lock");
            let m = marks.get(&job);
            (m.and_then(|m| m.claim), m.and_then(|m| m.complete))
        };
        // Distributed completion happens inside the scheduler; the
        // client's observation is the nearest harness-visible instant.
        let complete = complete.unwrap_or(out.finished);
        let claim = claim.unwrap_or(out.submitted).min(complete);
        self.span(Some(root), "job", job, 0, out.start, out.end);
        self.span(
            Some(root | 3),
            "client.submit",
            job,
            root,
            out.start,
            out.submitted,
        );
        let waited = claim.max(out.submitted);
        self.span(
            Some(root | 2),
            "queue.wait",
            job,
            root,
            out.submitted,
            waited,
        );
        self.span(
            Some(service_id(job)),
            "queue.service",
            job,
            root,
            claim,
            complete,
        );
        self.span(
            Some(root | 4),
            "client.results",
            job,
            root,
            out.finished,
            out.end,
        );
        self.add("parse", parse_us);
        self.add("submit_rtt", us(out.submitted - out.start));
        self.add("results_rtt", us(out.end - out.finished));
        self.add("queue_wait", us(waited - out.submitted));
        self.add("queue_service", us(complete - claim));
        self.add("hits", out.job.stats.hits as f64);
        self.add("misses", out.job.stats.misses as f64);
        // Coverage: the union of the client and queue spans over the
        // job's latency; the remainder is completion detection.
        let mut iv = [
            (out.start, out.submitted),
            (out.submitted, waited),
            (claim, complete),
            (out.finished, out.end),
        ];
        iv.sort_by_key(|(s, _)| *s);
        let (mut covered, mut reach) = (Duration::ZERO, out.start);
        for (s, e) in iv {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        let latency = out.end - out.start;
        self.add("coverage", covered.as_secs_f64() / latency.as_secs_f64());
    }

    /// Write every span as TSV (µs from the tracer's origin, with self
    /// time: duration minus the part its children cover) to `path`, and
    /// return per-name `(count, total µs, self µs)`.
    pub fn write(&self, path: &Path) -> std::io::Result<BTreeMap<&'static str, (u64, f64, f64)>> {
        let spans = self.spans.lock().expect("span lock");
        let mut children: HashMap<u64, Vec<(Instant, Instant)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        let at = |t: Instant| us(t.saturating_duration_since(self.origin));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tjob\tname\tstart_us\tend_us\tself_us")?;
        let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_by_key(|(a, _)| *a);
            let (mut covered, mut reach) = (Duration::ZERO, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let total = us(s.end - s.start);
            let own = total - us(covered);
            writeln!(
                out,
                "{:x}\t{:x}\t{}\t{}\t{:.1}\t{:.1}\t{:.1}",
                s.id,
                s.parent,
                s.job,
                s.name,
                at(s.start),
                at(s.end),
                own
            )?;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        out.flush()?;
        Ok(by_name)
    }
}

/// What one point's calls cost, returned from the pool closure.
struct PointCalls {
    start: Instant,
    key: Instant,
    load: Instant,
    exec: Option<Instant>,
    end: Instant,
    hit: bool,
    events: u64,
    entry_bytes: u64,
}

/// The execution backend for `cold-grid` / `warm-grid`: claim, execute
/// point by point, reduce, publish. Runs until `stop`.
pub fn local_backend(queue: &JobQueue, cache: &ResultCache, tracer: &Tracer, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        let Some((id, manifest)) = queue.try_claim() else {
            std::thread::sleep(Duration::from_micros(100));
            continue;
        };
        let claim = Instant::now();
        tracer.claimed(id, claim);
        let detailed = tracer.detailed(id);
        let parent = service_id(id);
        match run_local(queue, &manifest, cache, tracer, id, parent, detailed) {
            Ok((batch, stats)) => {
                let t = Instant::now();
                queue.complete(id, batch, stats);
                let done = Instant::now();
                tracer.span(None, "queue.complete", id, parent, t, done);
                tracer.completed(id, done);
            }
            Err(e) => queue.fail(id, e),
        }
    }
}

fn run_local(
    queue: &JobQueue,
    manifest: &Manifest,
    cache: &ResultCache,
    tracer: &Tracer,
    id: u64,
    parent: u64,
    detailed: bool,
) -> Result<(BatchResult, CacheStats), String> {
    let t = Instant::now();
    let points = expand(manifest).map_err(|e| e.to_string())?;
    let e = Instant::now();
    tracer.span(None, "exec.expand", id, parent, t, e);
    tracer.add("expand", us(e - t));
    let field = manifest.build_field();
    let sweep = ExecOptions::default().sweep_options(manifest);
    let threads = sweep.effective_threads(points.len());
    let total = points.len();
    let finished = AtomicUsize::new(0);
    let pool_t0 = Instant::now();
    let out: Vec<(RunRecord, PointCalls)> = pas_sweep::parallel_map_with(&points, sweep, |pt| {
        let start = Instant::now();
        let key = ResultCache::key(manifest, pt);
        let k = Instant::now();
        let loaded = cache.load(&key);
        let l = Instant::now();
        let mut calls = PointCalls {
            start,
            key: k,
            load: l,
            exec: None,
            end: l,
            hit: loaded.is_some(),
            events: 0,
            entry_bytes: 0,
        };
        let record = loaded.unwrap_or_else(|| {
            let r = execute_point(manifest, field.as_ref(), pt);
            let x = Instant::now();
            // A failed store only costs a future recomputation, as in
            // `JobQueue::work`.
            let _ = cache.store(&key, &r);
            calls.end = Instant::now();
            calls.exec = Some(x);
            calls.events = r.events_processed;
            calls.entry_bytes = std::fs::metadata(cache.dir().join(format!("{key}.run")))
                .map(|m| m.len())
                .unwrap_or(0);
            r
        });
        // Progress is published per point, as `JobQueue::work` does.
        queue.set_progress(id, finished.fetch_add(1, Ordering::Relaxed) + 1, total);
        (record, calls)
    });
    let pool_end = Instant::now();
    let pool_span = tracer.span(None, "sweep.pool", id, parent, pool_t0, pool_end);
    let mut stats = CacheStats::default();
    let mut busy = Duration::ZERO;
    let mut records = Vec::with_capacity(out.len());
    for (r, c) in out {
        busy += c.end - c.start;
        tracer.add("key", us(c.key - c.start));
        if detailed {
            let p = tracer.span(None, "point", id, pool_span, c.start, c.end);
            tracer.span(None, "cache.key", id, p, c.start, c.key);
            tracer.span(None, "cache.load", id, p, c.key, c.load);
            if let Some(x) = c.exec {
                tracer.span(None, "exec.point", id, p, c.load, x);
                tracer.span(None, "cache.store", id, p, x, c.end);
            }
        }
        if c.hit {
            stats.hits += 1;
            tracer.add("load_hit", us(c.load - c.key));
        } else {
            stats.misses += 1;
            let x = c.exec.expect("a miss executes");
            tracer.add("load_miss", us(c.load - c.key));
            tracer.add("execute_point", us(x - c.load));
            tracer.add("store", us(c.end - x));
            tracer.add("entry_bytes", c.entry_bytes as f64);
            tracer.add("events", c.events as f64);
        }
        records.push(r);
    }
    tracer.add(
        "busy_share",
        busy.as_secs_f64() / ((pool_end - pool_t0).as_secs_f64() * threads as f64),
    );
    let t = Instant::now();
    let summaries = reduce(&records);
    let r = Instant::now();
    tracer.span(None, "exec.reduce", id, parent, t, r);
    tracer.add("reduce", us(r - t));
    let batch = BatchResult {
        name: manifest.name.clone(),
        x_label: manifest.x_label(),
        records,
        summaries,
    };
    // The server renders the CSV on download; the same sink call on the
    // same batch, timed here, is that layer's cost.
    let t = Instant::now();
    std::hint::black_box(sink::summary_csv(&batch).render());
    let c = Instant::now();
    tracer.span(None, "sink.summary_csv", id, parent, t, c);
    tracer.add("summary_csv", us(c - t));
    Ok((batch, stats))
}

/// One `/dist/*` call: `(status, body)`.
fn call(addr: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("{path}: {e}"))?;
    let (status, _ctype, body) =
        roundtrip(&mut stream, "POST", path, None, body).map_err(|e| format!("{path}: {e}"))?;
    Ok((status, body))
}

/// A harness worker for `dist-grid`: register, then lease → execute
/// (one thread) → report until the scheduler drains.
pub fn dist_worker(addr: &str, name: &str, tracer: &Tracer) -> Result<(), String> {
    let reg = Register {
        name: name.to_string(),
        threads: 1,
    };
    let (status, body) = call(addr, "/dist/register", reg.to_json().as_bytes())?;
    let body = String::from_utf8_lossy(&body).into_owned();
    let worker = Registered::from_json(&body)
        .filter(|_| status == 200)
        .ok_or_else(|| format!("register: {status} {body}"))?
        .worker;
    let lease_body = format!("{{\"worker\":{worker}}}");
    let mut ctx: Option<(u64, Manifest, Box<dyn StimulusField>)> = None;
    loop {
        let t0 = Instant::now();
        let (status, body) = call(addr, "/dist/lease", lease_body.as_bytes())?;
        let t1 = Instant::now();
        if status == 204 {
            tracer.span(None, "dist.lease.idle", 0, 0, t0, t1);
            tracer.add("idle_leases", 1.0);
            std::thread::sleep(WORKER_POLL);
            continue;
        }
        let text = String::from_utf8_lossy(&body).into_owned();
        if status != 200 {
            return Err(format!("lease: {status} {text}"));
        }
        if pas_server::json::find_bool(&text, "drain") == Some(true) {
            return Ok(());
        }
        let grant = ShardGrant::from_json(&text).ok_or_else(|| format!("bad grant {text}"))?;
        let job = grant.job;
        let parent = service_id(job);
        if tracer.claimed(job, t0) {
            tracer.span(None, "dist.lease.claim", job, parent, t0, t1);
            tracer.add("claim_lease_rtt", us(t1 - t0));
        } else {
            tracer.span(None, "dist.lease", job, parent, t0, t1);
            tracer.add("lease_rtt", us(t1 - t0));
        }
        tracer.add("grant_bytes", body.len() as f64);
        tracer.add("shards", 1.0);
        let detailed = tracer.detailed(job);
        if ctx.as_ref().is_none_or(|(j, _, _)| *j != job) {
            let m = Manifest::parse(&grant.manifest_toml).map_err(|e| e.to_string())?;
            let field = m.build_field();
            ctx = Some((job, m, field));
        }
        let (_, manifest, field) = ctx.as_ref().expect("context set above");
        let shard_t0 = Instant::now();
        let points = expand_indices(manifest, &grant.indices).map_err(|e| e.to_string())?;
        let x0 = Instant::now();
        tracer.add("expand_indices", us(x0 - shard_t0));
        let shard = tracer.fresh_id();
        let mut reports = Vec::with_capacity(points.len());
        for pt in &points {
            let s = Instant::now();
            let record = execute_point(manifest, field.as_ref(), pt);
            let x = Instant::now();
            let key = ResultCache::key(manifest, pt);
            let k = Instant::now();
            tracer.add("execute_point", us(x - s));
            tracer.add("events", record.events_processed as f64);
            tracer.add("key", us(k - x));
            if detailed {
                tracer.span(None, "exec.point", job, shard, s, x);
                tracer.span(None, "cache.key", job, shard, x, k);
            }
            reports.push(PointReport {
                index: pt.index,
                key,
                record,
            });
        }
        tracer.span(
            Some(shard),
            "dist.shard",
            job,
            parent,
            shard_t0,
            Instant::now(),
        );
        let report = ShardReport {
            job,
            shard: grant.shard,
            worker,
            points: reports,
            spans: Vec::new(),
            profile: Vec::new(),
        };
        let e0 = Instant::now();
        let encoded = encode_report(&report);
        let e1 = Instant::now();
        // The scheduler decodes this body on arrival; the same call on
        // the same bytes, timed here, is that layer's cost.
        let decoded = decode_report(&encoded);
        let d1 = Instant::now();
        if decoded.is_none() {
            return Err("a report the harness encoded does not decode".into());
        }
        tracer.add("encode_report", us(e1 - e0));
        tracer.add("decode_report", us(d1 - e1));
        tracer.add("report_bytes", encoded.len() as f64);
        tracer.span(None, "protocol.encode_report", job, parent, e0, e1);
        let r0 = Instant::now();
        let (status, ack) = call(addr, "/dist/report", encoded.as_bytes())?;
        let r1 = Instant::now();
        let ack = String::from_utf8_lossy(&ack).into_owned();
        if status != 200 {
            return Err(format!("report: {status} {ack}"));
        }
        tracer.span(None, "dist.report", job, parent, r0, r1);
        tracer.add("report_rtt", us(r1 - r0));
        let field = |k: &str| pas_server::json::find_u64(&ack, k).unwrap_or(0) as f64;
        tracer.add("accepted", field("accepted"));
        tracer.add("duplicates", field("duplicates"));
    }
}
