//! The batch API server: accept loop, routing, JSON rendering.
//!
//! | Route | Effect |
//! |-------|--------|
//! | `GET /scenarios` | built-in registry: name, matrix size, description |
//! | `POST /validate` | parse + validate a manifest body |
//! | `POST /expand` | matrix shape of a manifest body |
//! | `POST /jobs` | submit a manifest as an async batch job (`202`/`429`) |
//! | `GET /jobs/:id` | phase, progress, cache hit/miss counters |
//! | `GET /jobs/:id/results` | summary CSV, or per-run JSONL via `Accept` |
//! | `GET /jobs/:id/report` | statistical report: Markdown (default), `report.json`, or SVG curves via `Accept` |
//! | `GET /jobs/:id/trace` | causal span tree: Chrome trace-event JSON (default), text tree, or critical-path summary via `Accept` (opt-in, with `/metrics`) |
//! | `GET /profile` | in-process region profile: folded stacks (default), SVG flamegraph, or JSON via `Accept`; `?seconds=N` resets and windows (opt-in, with `/metrics`) |
//! | `GET /metrics/history` | sampled time series: JSON ring dump (default) or SVG sparkline board via `Accept` (opt-in, with `/metrics`) |
//!
//! One thread per connection (requests are one round trip and jobs are
//! asynchronous, so connections are short-lived); simulation work happens
//! on the queue worker's threads, never on connection threads.

use crate::cache::ResultCache;
use crate::http::{read_request, Request, Response};
use crate::queue::{JobPhase, JobQueue, SubmitError};
use pas_obs::json::quote;
use pas_scenario::{expand, matrix_size, registry, sink, ExecOptions, Manifest};
use std::io::{self, Write as _};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server construction options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerOptions {
    /// Worker threads per job (0 = defer to each manifest, then cores).
    pub threads: usize,
    /// Max jobs waiting in the queue before `429` (running job excluded).
    pub queue_capacity: usize,
    /// Spawn the in-process queue worker. `false` (the
    /// `pas serve --no-local-exec` mode) leaves jobs in the queue for an
    /// external backend — the `pas-dist` scheduler — to claim.
    pub local_exec: bool,
    /// Serve the observability exposition endpoints — Prometheus
    /// `GET /metrics` and the span tree `GET /jobs/:id/trace`
    /// (`pas serve --metrics`). Collection itself is always on — this
    /// only gates exposition, so a closed deployment is not forced to
    /// publish its internals.
    pub metrics: bool,
    /// History sampling interval for `GET /metrics/history`
    /// (`pas serve --history-interval-ms`). The sampler thread only
    /// runs when [`ServerOptions::metrics`] is set.
    pub history_interval: Duration,
    /// Samples retained per series in the history ring
    /// (`pas serve --history-retention`).
    pub history_retention: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            threads: 0,
            queue_capacity: 64,
            local_exec: true,
            metrics: false,
            history_interval: pas_obs::history::DEFAULT_INTERVAL,
            history_retention: pas_obs::history::DEFAULT_RETENTION,
        }
    }
}

/// An extension router consulted before the built-in routes: `Some` is
/// the response, `None` falls through. This is how the `pas-dist`
/// scheduler mounts its worker protocol (`/dist/*`, `/healthz`) on the
/// same listener without this crate depending on it.
pub type Router = Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>;

/// A bound batch server, ready to run.
pub struct Server {
    listener: TcpListener,
    queue: JobQueue,
    cache: Arc<ResultCache>,
    opts: ServerOptions,
    router: Option<Router>,
}

/// Request-handling context shared by every connection thread.
#[derive(Clone)]
struct Ctx {
    queue: JobQueue,
    opts: ServerOptions,
}

impl Server {
    /// Bind to `addr` with a result cache at `cache`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cache: ResultCache,
        opts: ServerOptions,
    ) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            queue: JobQueue::new(opts.queue_capacity.max(1)),
            cache: Arc::new(cache),
            opts,
            router: None,
        })
    }

    /// Mount an extension [`Router`], consulted before the built-in routes.
    pub fn set_router(&mut self, router: Router) {
        self.router = Some(router);
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle to the job queue (e.g. to shut workers down in tests).
    pub fn queue(&self) -> JobQueue {
        self.queue.clone()
    }

    /// Serve forever: spawn the queue worker, then accept connections,
    /// one short-lived thread each. One queue worker runs jobs one at a
    /// time; each job is internally parallel over
    /// [`ServerOptions::threads`], so one already saturates the machine
    /// on non-trivial batches.
    pub fn run(self) -> io::Result<()> {
        // With exposition enabled, feed `GET /metrics/history`: a
        // background thread snapshots the registry into bounded rings.
        // The guard lives as long as the accept loop (the process).
        let _sampler = self.opts.metrics.then(|| {
            pas_obs::history::start_sampler(pas_obs::history::HistoryConfig {
                interval: self.opts.history_interval,
                retention: self.opts.history_retention,
            })
        });
        if self.opts.local_exec {
            self.queue.set_local_exec();
            let queue = self.queue.clone();
            let cache = Arc::clone(&self.cache);
            let exec = ExecOptions {
                threads: self.opts.threads,
            };
            std::thread::spawn(move || queue.work(&cache, exec));
        }
        let ctx = Ctx {
            queue: self.queue.clone(),
            opts: self.opts,
        };
        for stream in self.listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            // An idle or trickling peer must not pin a connection thread
            // forever (jobs are async; requests are one short round trip —
            // the SSE stream is the one exception, and its per-write
            // timeout still bounds a stalled peer).
            let timeout = Some(Duration::from_secs(30));
            let _ = stream.set_read_timeout(timeout);
            let _ = stream.set_write_timeout(timeout);
            let router = self.router.clone();
            let ctx = ctx.clone();
            std::thread::spawn(move || handle_connection(&mut stream, router, &ctx));
        }
        Ok(())
    }
}

/// Serve one connection: read the request, answer it (streaming for
/// `/jobs/:id/events`, one response for everything else), and record the
/// per-route request count / status / latency.
fn handle_connection(stream: &mut TcpStream, router: Option<Router>, ctx: &Ctx) {
    let t0 = Instant::now();
    match read_request(stream) {
        Ok(req) => {
            if let Some(id) = events_job_id(&req) {
                pas_obs::inc("pas.server.sse.streams.count", &[]);
                // An Err means the peer went away mid-stream (status 0,
                // recorded as "aborted").
                let status = stream_job_events(stream, &ctx.queue, id).unwrap_or_default();
                record_http(&req, status, t0);
            } else {
                let response = router
                    .as_ref()
                    .and_then(|r| r(&req))
                    .unwrap_or_else(|| route(ctx, &req));
                record_http(&req, response.status, t0);
                let _ = response.write_to(stream);
            }
        }
        Err(e) => {
            pas_obs::inc(
                "pas.server.http.requests.count",
                &[("route", "malformed"), ("method", "?"), ("status", "400")],
            );
            let _ = Response::error(400, &format!("malformed request: {e}")).write_to(stream);
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Record one served request in the registry. The route label is the
/// request's *template* (`/jobs/:id`, not `/jobs/17`), so cardinality
/// stays bounded no matter what peers ask for.
fn record_http(req: &Request, status: u16, t0: Instant) {
    let route = route_label(&req.path);
    let status = if status == 0 {
        "aborted".to_string()
    } else {
        status.to_string()
    };
    pas_obs::inc(
        "pas.server.http.requests.count",
        &[
            ("route", route),
            ("method", req.method.as_str()),
            ("status", &status),
        ],
    );
    pas_obs::observe_us(
        "pas.server.http.latency.microseconds",
        &[("route", route)],
        t0.elapsed().as_secs_f64() * 1e6,
    );
}

/// Map a request path onto its route template for metric labels.
fn route_label(path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["scenarios"] => "/scenarios",
        ["validate"] => "/validate",
        ["expand"] => "/expand",
        ["jobs"] => "/jobs",
        ["jobs", _] => "/jobs/:id",
        ["jobs", _, "results"] => "/jobs/:id/results",
        ["jobs", _, "report"] => "/jobs/:id/report",
        ["jobs", _, "trace"] => "/jobs/:id/trace",
        ["jobs", _, "events"] => "/jobs/:id/events",
        ["healthz"] => "/healthz",
        ["metrics"] => "/metrics",
        ["metrics", "history"] => "/metrics/history",
        ["profile"] => "/profile",
        ["dist", "register"] => "/dist/register",
        ["dist", "heartbeat"] => "/dist/heartbeat",
        ["dist", "lease"] => "/dist/lease",
        ["dist", "report"] => "/dist/report",
        ["dist", "workers"] => "/dist/workers",
        ["dist", "drain"] => "/dist/drain",
        _ => "other",
    }
}

/// `GET /jobs/:id/events`?
fn events_job_id(req: &Request) -> Option<u64> {
    if req.method != "GET" {
        return None;
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["jobs", id, "events"] => id.parse().ok(),
        _ => None,
    }
}

/// Dispatch one request.
fn route(ctx: &Ctx, req: &Request) -> Response {
    let queue = &ctx.queue;
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        // A mounted `pas-dist` scheduler answers this route itself, with
        // its fleet; a server without one that runs no local worker
        // leaves its jobs to some external backend.
        ("GET", ["healthz"]) => {
            Response::json(200, queue.healthz_json("external", "\"workers\":1,"))
        }
        ("GET", ["metrics"]) if ctx.opts.metrics => Response::new(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            pas_obs::render_global(),
        ),
        ("GET", ["metrics", "history"]) if ctx.opts.metrics => metrics_history(req),
        ("GET", ["profile"]) if ctx.opts.metrics => profile(req),
        ("GET", ["scenarios"]) => scenarios(),
        ("POST", ["validate"]) => with_manifest(req, |m, runs| {
            Response::json(
                200,
                format!(
                    "{{\"ok\":true,\"scenario\":{},\"runs\":{runs}}}",
                    quote(&m.name)
                ),
            )
        }),
        ("POST", ["expand"]) => {
            with_manifest(req, |m, runs| Response::json(200, expansion_json(&m, runs)))
        }
        ("POST", ["jobs"]) => {
            // Propagated trace context: a 16-hex-digit trace id minted by
            // the submitting client. Absent or malformed, the job mints
            // its own — submission never fails on a bad trace header.
            let trace = req
                .header("x-pas-trace")
                .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
                .filter(|&t| t != 0);
            with_manifest(req, |m, runs| {
                match queue.submit_traced(m, runs, trace) {
                Ok(id) => Response::json(
                    202,
                    format!(
                        "{{\"id\":{id},\"status\":\"/jobs/{id}\",\"results\":\"/jobs/{id}/results\"}}"
                    ),
                ),
                Err(SubmitError::Full) => Response::error(429, "job queue is full; retry later"),
                Err(SubmitError::Closed) => Response::error(503, "server is shutting down"),
            }
            })
        }
        ("GET", ["jobs", id]) => match id.parse::<u64>().ok().and_then(|id| queue.status(id)) {
            Some(job) => Response::json(200, status_json(&job)),
            None => Response::error(404, "no such job"),
        },
        ("GET", ["jobs", id, "results"]) => results(queue, req, id),
        ("GET", ["jobs", id, "report"]) => report(queue, req, id),
        ("GET", ["jobs", id, "trace"]) if ctx.opts.metrics => trace(queue, req, id),
        // Observability routes exist but exposition is off: a clear,
        // actionable refusal instead of a misleading "no such route".
        ("GET", ["metrics"] | ["metrics", "history"] | ["profile"] | ["jobs", _, "trace"]) => {
            Response::error(
                403,
                "metrics exposition is disabled on this server; \
                 restart it with `pas serve --metrics` to enable \
                 /metrics, /metrics/history, /profile, and /jobs/:id/trace",
            )
        }
        ("GET", _) | ("POST", _) => Response::error(404, "no such route"),
        _ => Response::error(405, "method not allowed"),
    }
}

/// `GET /jobs/:id/trace`: the job's causal span tree, stitched from
/// every process that touched it (server queue/scheduler spans plus
/// worker spans shipped back on shard reports). Content-negotiated:
/// Chrome trace-event JSON by default (loadable in Perfetto /
/// `chrome://tracing`), a deterministic indented text tree for
/// `Accept: text/plain`, or the critical-path self-time summary for
/// `Accept: text/x-pas-critical-path`. Works mid-run too — the tree is
/// simply still growing. Exposition is opt-in behind
/// [`ServerOptions::metrics`], like `/metrics`.
fn trace(queue: &JobQueue, req: &Request, id: &str) -> Response {
    let Some(job) = id.parse::<u64>().ok().and_then(|id| queue.status(id)) else {
        return Response::error(404, "no such job");
    };
    let spans = pas_obs::trace::spans_for(job.trace.id);
    let accept = req.header("accept").unwrap_or("application/json");
    if accept.contains("text/x-pas-critical-path") {
        Response::new(
            200,
            "text/plain; charset=utf-8",
            pas_obs::trace::render_critical_path(&spans, 10),
        )
    } else if accept.contains("text/plain") {
        Response::new(
            200,
            "text/plain; charset=utf-8",
            pas_obs::trace::render_tree(&spans),
        )
    } else {
        Response::json(200, pas_obs::trace::render_chrome(&spans))
    }
}

/// Longest `?seconds=N` observation window `GET /profile` accepts,
/// bounding how long a connection thread may sleep.
const MAX_PROFILE_WINDOW_S: u64 = 60;

/// `GET /profile`: the process's region profile since start (or since
/// the last windowed request). Content-negotiated: folded-stack text by
/// default (feedable to any flamegraph toolchain), a self-contained SVG
/// flamegraph for `Accept: image/svg+xml`, or JSON for
/// `Accept: application/json`. With `?seconds=N` the table is reset
/// first and the response covers exactly the next `N` seconds — the
/// "what is this server doing right now" view. Like `/metrics`,
/// exposition is opt-in behind [`ServerOptions::metrics`]; collection
/// is always on.
fn profile(req: &Request) -> Response {
    if let Some(raw) = req.query_param("seconds") {
        let Ok(secs) = raw.parse::<u64>() else {
            return Response::error(400, "seconds must be a non-negative integer");
        };
        if secs > MAX_PROFILE_WINDOW_S {
            return Response::error(
                400,
                &format!("seconds must be at most {MAX_PROFILE_WINDOW_S}"),
            );
        }
        pas_obs::profile::reset();
        std::thread::sleep(Duration::from_secs(secs));
    }
    let accept = req.header("accept").unwrap_or("text/plain");
    if accept.contains("svg") {
        Response::new(200, "image/svg+xml", pas_obs::profile::render_svg())
    } else if accept.contains("json") {
        Response::json(200, pas_obs::profile::render_json())
    } else {
        Response::new(
            200,
            "text/plain; charset=utf-8",
            pas_obs::profile::render_folded(),
        )
    }
}

/// `GET /metrics/history`: the sampled time series of every metric —
/// counter values + derived rates, gauge levels, histogram window
/// percentiles — over the server's retention window.
/// Content-negotiated: the JSON ring dump by default, a self-contained
/// SVG sparkline board for `Accept: image/svg+xml`. Gated behind
/// [`ServerOptions::metrics`] like `/metrics`; the sampler itself is
/// started by [`Server::run`], so an active registration is an
/// invariant here — the 503 arm only covers an embedder that routed
/// here without running a sampler.
fn metrics_history(req: &Request) -> Response {
    let Some(history) = pas_obs::history::active() else {
        return Response::error(503, "history sampler is not running");
    };
    let accept = req.header("accept").unwrap_or("application/json");
    if accept.contains("svg") {
        Response::new(200, "image/svg+xml", history.render_svg())
    } else {
        Response::json(200, history.render_json())
    }
}

/// How often the SSE loop samples job state.
const SSE_POLL: Duration = Duration::from_millis(50);

/// Comment padding cadence when nothing changes, so proxies and clients
/// see a live stream.
const SSE_HEARTBEAT: Duration = Duration::from_secs(1);

/// Stream `GET /jobs/:id/events` as Server-Sent Events over chunked
/// transfer-encoding: a `phase` event on every phase transition
/// (including the initial state), a `progress` event on every observed
/// points-done tick, `: hb` comment padding while idle, and a final
/// `done` event (with cache counters) when the job completes or fails,
/// after which the stream terminates. Edge cases never hang a client:
/// an unknown id answers a plain `404` before any streaming starts,
/// and a job that already finished gets exactly one immediate `done`
/// frame and a clean close — no initial `phase` echo, no heartbeat
/// wait. Returns the effective status for the request log/metrics.
fn stream_job_events(stream: &mut TcpStream, queue: &JobQueue, id: u64) -> io::Result<u16> {
    let Some(mut last) = queue.status(id) else {
        Response::error(404, "no such job").write_to(stream)?;
        return Ok(404);
    };
    // Frames must reach the client as they happen, not when a segment
    // fills up.
    let _ = stream.set_nodelay(true);
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    let emit = |stream: &mut TcpStream, payload: &str| -> io::Result<()> {
        write!(stream, "{:x}\r\n", payload.len())?;
        stream.write_all(payload.as_bytes())?;
        stream.write_all(b"\r\n")?;
        stream.flush()
    };
    let event = |kind: &str, data: &str| format!("event: {kind}\ndata: {data}\n\n");

    // A still-running job announces its current phase first; an already
    // finished one goes straight to the `done` frame below.
    if !matches!(last.phase, JobPhase::Completed | JobPhase::Failed) {
        emit(stream, &event("phase", &status_json(&last)))?;
    }
    let mut last_write = Instant::now();
    // Rate anchor for the `points_per_s` field: progress since the last
    // progress frame (or stream start), over wall time.
    let mut rate_mark = (Instant::now(), last.done);
    loop {
        if matches!(last.phase, JobPhase::Completed | JobPhase::Failed) {
            emit(stream, &event("done", &status_json(&last)))?;
            break;
        }
        std::thread::sleep(SSE_POLL);
        let Some(job) = queue.status(id) else {
            // Evicted mid-stream (retention cap): tell the client and stop.
            emit(stream, &event("gone", "{}"))?;
            break;
        };
        if job.phase != last.phase {
            emit(stream, &event("phase", &status_json(&job)))?;
            last_write = Instant::now();
        } else if job.done != last.done {
            let elapsed = rate_mark.0.elapsed().as_secs_f64();
            let points_per_s = if elapsed > 0.0 && job.done >= rate_mark.1 {
                (job.done - rate_mark.1) as f64 / elapsed
            } else {
                0.0
            };
            emit(
                stream,
                &event(
                    "progress",
                    &format!(
                        "{{\"done\":{},\"total\":{},\"cache_hits\":{},\"cache_misses\":{},\
                         \"points_per_s\":{points_per_s:.1}}}",
                        job.done, job.total, job.stats.hits, job.stats.misses
                    ),
                ),
            )?;
            rate_mark = (Instant::now(), job.done);
            last_write = Instant::now();
        } else if last_write.elapsed() >= SSE_HEARTBEAT {
            emit(stream, ": hb\n\n")?;
            last_write = Instant::now();
        }
        last = job;
    }
    // Terminating zero-length chunk.
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()?;
    Ok(200)
}

/// Largest matrix a submitted manifest may expand to. A manifest is a
/// few KB but its matrix is a product of free integers, so the size is
/// checked *before* [`expand`] materialises anything.
pub const MAX_MATRIX_RUNS: u64 = 1_000_000;

/// Parse the body as a manifest and expand it, or answer 400.
fn with_manifest(req: &Request, f: impl FnOnce(Manifest, usize) -> Response) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "manifest body must be UTF-8 TOML"),
    };
    let manifest = match Manifest::parse(text) {
        Ok(m) => m,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    match matrix_size(&manifest) {
        Some(n) if n <= MAX_MATRIX_RUNS => {}
        _ => {
            return Response::error(
                400,
                &format!("manifest expands to more than {MAX_MATRIX_RUNS} runs"),
            )
        }
    }
    match expand(&manifest) {
        Ok(points) => f(manifest, points.len()),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

fn scenarios() -> Response {
    let entries: Vec<String> = registry::BUILTINS
        .iter()
        .map(|(name, _)| {
            let m = registry::builtin(name).expect("builtins parse");
            let runs = expand(&m).map(|p| p.len()).unwrap_or(0);
            format!(
                "{{\"name\":{},\"runs\":{runs},\"policies\":{},\"description\":{}}}",
                quote(name),
                m.policies.len(),
                quote(&m.description)
            )
        })
        .collect();
    Response::json(200, format!("{{\"scenarios\":[{}]}}", entries.join(",")))
}

fn expansion_json(m: &Manifest, runs: usize) -> String {
    let axes: Vec<String> = m
        .sweep
        .iter()
        .map(|a| {
            let vals: Vec<String> = a
                .values
                .iter()
                .map(|v| match v {
                    pas_scenario::AxisValue::Num(v) => format!("{v}"),
                    pas_scenario::AxisValue::Name(n) => quote(&n),
                })
                .collect();
            format!(
                "{{\"field\":{},\"values\":[{}]}}",
                quote(&a.field),
                vals.join(",")
            )
        })
        .collect();
    let policies: Vec<String> = m.policies.iter().map(|p| quote(&p.label)).collect();
    format!(
        "{{\"scenario\":{},\"runs\":{runs},\"replicates\":{},\"axes\":[{}],\"policies\":[{}]}}",
        quote(&m.name),
        m.run.replicates,
        axes.join(","),
        policies.join(",")
    )
}

fn status_json(job: &crate::queue::Job) -> String {
    let mut s = format!(
        "{{\"id\":{},\"scenario\":{},\"phase\":{},\"done\":{},\"total\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"trace\":\"{:016x}\"",
        job.id,
        quote(&job.scenario),
        quote(job.phase.as_str()),
        job.done,
        job.total,
        job.stats.hits,
        job.stats.misses,
        job.trace.id,
    );
    if let Some(e) = &job.error {
        s.push_str(&format!(",\"error\":{}", quote(e)));
    }
    s.push('}');
    s
}

fn results(queue: &JobQueue, req: &Request, id: &str) -> Response {
    let Some(id) = id.parse::<u64>().ok() else {
        return Response::error(404, "no such job");
    };
    let Some(job) = queue.status(id) else {
        return Response::error(404, "no such job");
    };
    let Some(batch) = queue.result(id) else {
        return Response::error(
            409,
            &format!("job is {} — results not available", job.phase.as_str()),
        );
    };
    let accept = req.header("accept").unwrap_or("text/csv");
    if accept.contains("jsonl") || accept.contains("x-ndjson") {
        Response::new(200, "application/x-ndjson", sink::records_jsonl(&batch))
    } else {
        // Byte-identical to `pas run --out`: same sink, same renderer.
        Response::new(200, "text/csv", sink::summary_csv(&batch).render())
    }
}

/// `GET /jobs/:id/report`: the statistical report of a completed job,
/// computed from its cached records. Content-negotiated: Markdown by
/// default, `report.json` for `Accept: application/json`, SVG curves
/// for `Accept: image/svg+xml`. Every body is rendered through
/// `pas-report`'s canonical reduction, so it is byte-identical to
/// `pas report` run locally on the same batch — cold or warm cache,
/// local or distributed execution.
fn report(queue: &JobQueue, req: &Request, id: &str) -> Response {
    let Some(id) = id.parse::<u64>().ok() else {
        return Response::error(404, "no such job");
    };
    let Some(job) = queue.status(id) else {
        return Response::error(404, "no such job");
    };
    let Some(batch) = queue.result(id) else {
        return Response::error(
            409,
            &format!("job is {} — report not available", job.phase.as_str()),
        );
    };
    let report = match pas_report::Report::from_batch(&batch, &pas_report::ReportOptions::default())
    {
        Ok(r) => r,
        Err(e) => return Response::error(409, &e.to_string()),
    };
    let accept = req.header("accept").unwrap_or("text/markdown");
    if accept.contains("json") {
        Response::json(200, pas_report::render_json(&report))
    } else if accept.contains("svg") {
        Response::new(200, "image/svg+xml", pas_report::render_svg(&report))
    } else {
        Response::new(200, "text/markdown", pas_report::render_md(&report))
    }
}
