//! The worker loop behind `pas worker --connect`.
//!
//! A worker registers with the server, then loops: lease a shard →
//! reconstruct its points with `pas_scenario::point_at` → execute them on
//! a persistent local pool (`pas_sweep::WorkerPool`, reused across every
//! shard) → report results with their content keys. A background thread
//! heartbeats on the server's advertised cadence, renewing all held
//! leases; if the process dies, heartbeats stop, the lease expires, and
//! the server re-leases the shard to a live worker — no worker-side
//! cleanup is ever required for correctness.

use crate::protocol::{encode_report, PointReport, Register, Registered, ShardGrant, ShardReport};
use pas_diffusion::StimulusField;
use pas_obs::trace::Fold;
use pas_scenario::{execute_point_with, expand_indices, Manifest, PointSeries, RunPoint};
use pas_server::http::roundtrip;
use pas_server::json;
use pas_server::{ClientError, KeyPrefix, RetryPolicy};
use pas_sweep::WorkerPool;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerOptions {
    /// Name shown in `/dist/workers` (default: `worker-<pid>`).
    pub name: String,
    /// Local execution threads (0 = one per core).
    pub threads: usize,
    /// Idle poll interval when no work is pending.
    pub poll: Duration,
    /// Fault injection for tests and drills: die — stop abruptly without
    /// reporting or deregistering, exactly like a crash — once this many
    /// points have been executed.
    pub fail_after_points: Option<u64>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            name: format!("worker-{}", std::process::id()),
            threads: 0,
            poll: Duration::from_millis(200),
            fail_after_points: None,
        }
    }
}

/// What a worker did over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Server-assigned id (the last one, if re-registered).
    pub worker: u64,
    /// Shards completed and reported.
    pub shards: u64,
    /// Points executed (including any executed before a simulated death).
    pub points: u64,
    /// True when the worker stopped via `fail_after_points`.
    pub died: bool,
}

/// One shot HTTP call: connect, round-trip, return `(status, body)`.
fn call(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<(u16, String), ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    stream.set_write_timeout(Some(Duration::from_secs(600)))?;
    let (status, _ctype, body) = roundtrip(&mut stream, method, path, None, body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

fn register(addr: &str, opts: &WorkerOptions) -> Result<Registered, ClientError> {
    let body = Register {
        name: opts.name.clone(),
        threads: if opts.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1)
        } else {
            opts.threads as u64
        },
    }
    .to_json();
    // The server may still be booting: back off and retry before giving
    // up, on the same jittered policy as the submit client.
    let policy = RetryPolicy {
        attempts: 8,
        base: Duration::from_millis(100),
        max: Duration::from_secs(2),
    };
    let mut last: Option<ClientError> = None;
    for attempt in 0..policy.attempts {
        match call(addr, "POST", "/dist/register", body.as_bytes()) {
            Ok((200, resp)) => {
                return Registered::from_json(&resp)
                    .ok_or_else(|| ClientError::Protocol(format!("bad register response {resp}")))
            }
            Ok((status, resp)) => return Err(ClientError::api(status, resp.as_bytes())),
            Err(e) => {
                last = Some(e);
                policy.sleep(attempt);
            }
        }
    }
    Err(last.unwrap_or_else(|| ClientError::Protocol("register never attempted".into())))
}

/// Per-job context a worker keeps warm between that job's shards.
struct JobCtx {
    manifest: Manifest,
    field: Box<dyn StimulusField>,
    keys: KeyPrefix,
    series: PointSeries,
}

/// Cumulative execute telemetry, shared between the shard loop (which
/// writes it) and the heartbeat thread (which piggybacks it to the
/// scheduler, where it becomes the per-worker gauges).
#[derive(Default)]
struct Telemetry {
    points: AtomicU64,
    busy_us: AtomicU64,
}

/// Run a worker against `addr` until the server drains (or the
/// `fail_after_points` drill kills it). Blocking; returns a summary.
pub fn run(addr: &str, opts: WorkerOptions) -> Result<WorkerSummary, ClientError> {
    // Tag spans recorded in this process with the worker's name so the
    // stitched trace shows which process did what. First-set wins: in a
    // worker process this runs before any span; in-process test workers
    // share the server's tag, which is accurate there anyway.
    pas_obs::trace::set_proc(&format!("worker:{}", opts.name));
    let reg = register(addr, &opts)?;
    let worker_id = Arc::new(AtomicU64::new(reg.worker));
    let stop = Arc::new(AtomicBool::new(false));
    let telemetry = Arc::new(Telemetry::default());

    let beat = {
        let addr = addr.to_string();
        let worker_id = Arc::clone(&worker_id);
        let stop = Arc::clone(&stop);
        let telemetry = Arc::clone(&telemetry);
        let interval = Duration::from_millis(reg.heartbeat_ms.max(10));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                // Each beat carries the cumulative execute telemetry so
                // the scheduler can publish per-worker points/busy-time
                // without an extra round trip.
                let body = format!(
                    "{{\"worker\":{},\"points\":{},\"busy_us\":{}}}",
                    worker_id.load(Ordering::Relaxed),
                    telemetry.points.load(Ordering::Relaxed),
                    telemetry.busy_us.load(Ordering::Relaxed)
                );
                let _ = call(&addr, "POST", "/dist/heartbeat", body.as_bytes());
                // Transport errors and 410s are left to the lease loop;
                // the drain signal arrives via the lease response.
            }
        })
    };

    let pool = WorkerPool::new(opts.threads);
    let mut ctx: Option<(u64, Arc<JobCtx>)> = None;
    let mut summary = WorkerSummary {
        worker: reg.worker,
        shards: 0,
        points: 0,
        died: false,
    };
    let mut io_failures = 0u32;

    let outcome = loop {
        let body = format!("{{\"worker\":{}}}", worker_id.load(Ordering::Relaxed));
        // The worker-observed cost of obtaining a shard, grant decode
        // included — the network half of the lease the scheduler can't
        // see from its side.
        let mut rtt = pas_obs::span("worker.lease.rtt").labels(&[("worker", &opts.name)]);
        let leased = call(addr, "POST", "/dist/lease", body.as_bytes());
        let grant = match &leased {
            Ok((200, resp)) => ShardGrant::from_json(resp),
            _ => None,
        };
        if let Some(g) = &grant {
            rtt = rtt.parent(g.trace, g.span);
        }
        rtt.finish();
        match leased {
            Ok((200, resp)) if grant.is_none() && json::find_bool(&resp, "drain") == Some(true) => {
                break Ok(())
            }
            Ok((200, resp)) => {
                io_failures = 0;
                let Some(grant) = grant else {
                    break Err(ClientError::Protocol(format!("bad lease response {resp}")));
                };
                match execute_shard(
                    addr,
                    &opts,
                    &pool,
                    &mut ctx,
                    &grant,
                    &mut summary,
                    &telemetry,
                )? {
                    ShardOutcome::Reported => summary.shards += 1,
                    ShardOutcome::Died => {
                        summary.died = true;
                        break Ok(());
                    }
                }
            }
            Ok((204, _)) => {
                // Idle, but NOT a release: during a drain the server
                // answers 204 while other workers' shards are still in
                // flight — if one of them dies, this worker must still
                // be around to inherit the re-lease. Exit only on the
                // server's explicit `{"drain":true}` (fleet truly done).
                io_failures = 0;
                std::thread::sleep(opts.poll);
            }
            Ok((410, _)) => {
                // The server forgot us (restart, long GC of the fleet):
                // re-register and carry on.
                let reg = register(addr, &opts)?;
                worker_id.store(reg.worker, Ordering::Relaxed);
                summary.worker = reg.worker;
            }
            Ok((status, resp)) => {
                break Err(ClientError::api(status, resp.as_bytes()));
            }
            Err(e) => {
                // Ride out server restarts: back off (jittered, cap 2 s)
                // and only give up after minutes of continuous failure —
                // a worker fleet must survive a redeploy gap.
                io_failures += 1;
                if io_failures > 120 {
                    break Err(e);
                }
                RetryPolicy {
                    attempts: u32::MAX,
                    base: opts.poll.max(Duration::from_millis(100)),
                    max: Duration::from_secs(2),
                }
                .sleep(io_failures - 1);
            }
        }
    };

    stop.store(true, Ordering::Relaxed);
    let _ = beat.join();
    outcome.map(|()| summary)
}

enum ShardOutcome {
    Reported,
    Died,
}

/// Execute one granted shard and report it. Honours `fail_after_points`
/// by executing only what is left of the budget and then stopping
/// abruptly (no report) when that cut the shard short.
#[allow(clippy::too_many_arguments)]
fn execute_shard(
    addr: &str,
    opts: &WorkerOptions,
    pool: &WorkerPool,
    ctx: &mut Option<(u64, Arc<JobCtx>)>,
    grant: &ShardGrant,
    summary: &mut WorkerSummary,
    telemetry: &Telemetry,
) -> Result<ShardOutcome, ClientError> {
    // Parse the manifest once per job, not per shard.
    let job_ctx = match ctx {
        Some((id, c)) if *id == grant.job => Arc::clone(c),
        _ => {
            let manifest = Manifest::parse(&grant.manifest_toml)
                .map_err(|e| ClientError::Protocol(format!("bad manifest in lease: {e}")))?;
            let field = manifest.build_field();
            let keys = KeyPrefix::new(&manifest);
            let series = PointSeries::new(&manifest);
            let c = Arc::new(JobCtx {
                manifest,
                field,
                keys,
                series,
            });
            *ctx = Some((grant.job, Arc::clone(&c)));
            c
        }
    };
    let points: Arc<Vec<RunPoint>> = Arc::new(
        expand_indices(&job_ctx.manifest, &grant.indices)
            .map_err(|e| ClientError::Protocol(format!("bad shard indices: {e}")))?,
    );

    // Per-point spans fold under the shard-execute span while it is
    // open.
    let shard_label = grant.shard.to_string();
    let exec = pas_obs::span("worker.shard.execute")
        .parent(grant.trace, grant.span)
        .labels(&[("worker", &opts.name), ("shard", &shard_label)])
        .histogram(
            "pas.worker.shard.execute.microseconds",
            &[("worker", &opts.name)],
        );
    let fold = exec.ctx().map(|(t, p)| Fold::new(t, p));
    let left = opts
        .fail_after_points
        .map_or(u64::MAX, |b| b.saturating_sub(summary.points));
    let run = points
        .len()
        .min(usize::try_from(left).unwrap_or(usize::MAX));
    let c = Arc::clone(&job_ctx);
    let p = Arc::clone(&points);
    let f = fold.clone();
    let records = pool.map_indexed(run, move |i| {
        // Ambient fold inside the pool closure: thread-locals do not
        // cross pool threads, so each point re-enters it.
        let _fold = f.as_ref().map(Fold::enter);
        execute_point_with(&c.manifest, c.field.as_ref(), &p[i], &c.series)
    });
    summary.points += run as u64;
    if run < points.len() {
        return Ok(ShardOutcome::Died);
    }
    if let Some(fold) = fold {
        fold.flush();
    }
    let shard_us = exec.finish();
    telemetry
        .points
        .fetch_add(records.len() as u64, Ordering::Relaxed);
    telemetry
        .busy_us
        .fetch_add(shard_us as u64, Ordering::Relaxed);

    // Drain the spans recorded under this lease (its `worker.lease.rtt`,
    // `worker.shard.execute` and the point aggregates under it) into the
    // report, piggybacking them on the result upload — no extra round
    // trip, and a worker that dies before reporting simply loses its
    // spans along with its shard. Only the lease's subtree ships, so a
    // worker sharing the server's process and store never re-ships the
    // server's spans.
    let spans = if grant.trace != 0 {
        pas_obs::trace::take_under(grant.trace, grant.span)
    } else {
        Vec::new()
    };
    // Same piggyback for the region profile: drain (swap-to-zero, so
    // entries ship exactly once) and attach — but only when the grant
    // advertised the capability, since older schedulers reject unknown
    // stanzas.
    let profile = if grant.profile {
        pas_obs::profile::drain()
    } else {
        Vec::new()
    };
    let keys = job_ctx.keys.cells(&points);
    let report = ShardReport {
        job: grant.job,
        shard: grant.shard,
        worker: summary.worker,
        points: points
            .iter()
            .zip(records)
            .map(|(pt, record)| PointReport {
                index: pt.index,
                key: keys.key(pt),
                record,
            })
            .collect(),
        spans,
        profile,
    };
    let body = encode_report(&report);

    // A report is precious (minutes of simulation): retry transient
    // transport failures before abandoning the shard to lease expiry.
    let policy = RetryPolicy {
        attempts: 5,
        base: Duration::from_millis(100),
        max: Duration::from_secs(2),
    };
    let mut last: Option<ClientError> = None;
    for attempt in 0..policy.attempts {
        match call(addr, "POST", "/dist/report", body.as_bytes()) {
            Ok((200, _)) => return Ok(ShardOutcome::Reported),
            Ok((status, resp)) => {
                return Err(ClientError::api(status, resp.as_bytes()));
            }
            Err(e) => {
                last = Some(e);
                policy.sleep(attempt);
            }
        }
    }
    Err(last.expect("retry loop failed at least once"))
}
