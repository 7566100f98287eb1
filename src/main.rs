//! `pas` — run declarative PAS experiment batches from the command line.
//!
//! ```text
//! pas list                         enumerate built-in scenarios
//! pas show <name>                  print a built-in manifest's TOML
//! pas validate <path>              parse + validate a manifest file
//! pas expand <name|path>           print the expanded run matrix shape
//! pas run <name|path> [options]    execute a batch and report summaries
//! pas report <src> [options]       statistical report (md/json/svg) of a
//!                                  batch, manifest, or saved sink file
//! pas serve [options]              run the batch API server
//! pas worker [options]             join a server as an execution worker
//! pas submit <name|path> [options] run a batch on a server (with caching)
//! pas status [options]             server health + per-worker progress
//! pas top [options]                live fleet dashboard from /metrics/history
//! pas profile [options]            region profile: flamegraph / folded / json
//! pas bench [options]              time expansion, batches, dist scaling,
//!                                  server saturation (--server)
//! ```
//!
//! Scenario arguments resolve against the built-in registry first and fall
//! back to the filesystem, so `pas run paper-default` and
//! `pas run my/batch.toml` both work. `pas submit` sends the same manifest
//! to a `pas serve` instance and returns results byte-identical to
//! `pas run` — warm submissions are answered from the server's
//! content-addressed cache without re-simulating, and with
//! `--no-local-exec` the batch is sharded across a `pas worker` fleet
//! with the same byte-for-byte guarantee.

use pas_dist::{Scheduler, SchedulerOptions, WorkerOptions};
use pas_scenario::{execute, expand, registry, ExecOptions, Manifest};
use pas_server::{
    Client, ClientError, HistoryFormat, ProfileFormat, ResultCache, ResultFormat, RetryPolicy,
    Server, ServerOptions, TraceFormat,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Default server address (loopback; pick a fixed high port).
const DEFAULT_ADDR: &str = "127.0.0.1:8479";

fn usage() -> &'static str {
    "pas — declarative PAS experiment batches

USAGE:
    pas list                          enumerate built-in scenarios
    pas show <name>                   print a built-in manifest's TOML
    pas validate <path>               parse + validate a manifest file
    pas expand <name|path>            print the expanded run matrix shape
    pas run <name|path> [options]     execute a batch and report summaries
    pas report <src> [options]        statistical report of a batch: src is a
                                      scenario name, manifest path, or a saved
                                      .jsonl/.csv sink file
    pas serve [options]               run the batch API server
    pas worker [options]              join a server as an execution worker
    pas submit <name|path> [options]  run a batch on a server (with caching)
    pas status [options]              server health + per-worker progress
    pas top [options]                 live terminal dashboard: rates, queue,
                                      cache, latency, per-worker lanes with
                                      sparklines, refreshing in place
    pas trace <job-id> [options]      fetch a job's causal span trace
    pas profile [<name|path>] [opts]  region profile: run a manifest locally
                                      (detail regions on) or sample a running
                                      server's /profile window, as a folded
                                      stack listing, SVG flamegraph, or JSON
    pas bench [options]               time expansion, batches, dist scaling,
                                      or server saturation (--server); gate on
                                      the unified bench history

RUN OPTIONS:
    --out FILE.csv       write per-point delay/energy summaries
    --raw FILE.jsonl     write every run as one JSON object per line
    --threads N          worker threads (0 = manifest [run] threads, then
                         all cores; 1 = sequential)
    --quiet              suppress the stdout table

REPORT OPTIONS:
    --format FMT         md (default) | json | svg
    --out FILE           write the report to FILE instead of stdout
    --compare A B        paired-by-seed comparison of policies A − B
                         (default: PAS − SAS when both labels exist)
    --threads N          worker threads when src needs executing
    --quiet              suppress progress on stderr

SERVE OPTIONS:
    --addr HOST:PORT     bind address            (default 127.0.0.1:8479)
    --cache-dir DIR      result cache directory  (default .pas-cache)
    --threads N          worker threads per job  (default: manifest, then cores)
    --queue-cap N        max queued jobs before 429 (default 64)
    --no-local-exec      don't execute jobs in-process; leave them to the
                         distributed scheduler and `pas worker` fleet
    --lease-ms N         shard lease lifetime    (default 10000)
    --heartbeat-ms N     worker heartbeat cadence (default 2000)
    --shard-points N     points per shard (default 0 = auto)
    --metrics            expose the Prometheus text registry at GET /metrics
                         and the sampled time series at GET /metrics/history
    --history-interval-ms N  metric history sampling interval (default 1000;
                         needs --metrics)
    --history-retention N    samples retained per series (default 120;
                         needs --metrics)

WORKER OPTIONS:
    --connect HOST:PORT  server address          (default 127.0.0.1:8479)
    --threads N          local execution threads (default all cores)
    --name NAME          fleet display name      (default worker-<pid>)
    --poll-ms N          idle lease poll interval (default 200)
    --max-shards N       exit after N shards (default: run until drain)
    --fail-after-points N  fault-injection drill: crash (no report) after
                         executing N points
    --quiet              suppress lease/report progress on stderr

SUBMIT OPTIONS:
    --addr HOST:PORT     server address          (default 127.0.0.1:8479)
    --out FILE.csv       write the returned summary CSV
    --raw FILE.jsonl     also fetch per-run JSONL
    --poll-ms N          status poll interval    (default 200)
    --retries N          backoff retries on 429/conn-refused (default 8)
    -v, --verbose        print a per-cause retry tally, a live points/s
                         readout while the job runs, and, when the
                         server exposes traces (`pas serve --metrics`),
                         a queued/execute/download latency breakdown
    --quiet              suppress progress; print nothing but errors

STATUS OPTIONS:
    --addr HOST:PORT     server address          (default 127.0.0.1:8479)
    --metrics            also render the server's /metrics exposition:
                         counters and gauges verbatim, histograms as one
                         p50/p95/p99 summary line per series
                         (the server must run with `pas serve --metrics`)
    --raw                with --metrics, dump the exposition verbatim
                         (raw histogram buckets included); without it the
                         summary also derives req/s and points/s from the
                         server's metric history when available

TOP OPTIONS:
    --addr HOST:PORT     server address          (default 127.0.0.1:8479)
    --interval-ms N      refresh interval        (default 1000)
    --frames N           render N frames then exit (default: until Ctrl-C)
                         (the server must run with `pas serve --metrics`)

TRACE OPTIONS:
    --addr HOST:PORT     server address          (default 127.0.0.1:8479)
    --format FMT         tree (default) | chrome | critical-path:
                         deterministic span tree, Chrome trace-event JSON
                         (load in chrome://tracing or Perfetto), or the
                         per-name self-time ranking
                         (the server must run with `pas serve --metrics`)

PROFILE OPTIONS:
    <name|path>          local mode: execute this scenario with region
                         profiling (detail regions included) and render
                         the in-process profile
    --serve-url HOST:PORT  remote mode: fetch GET /profile from a running
                         `pas serve --metrics` instance instead
    --seconds N          remote mode: reset the server's table and profile
                         a fresh N-second window (max 60)
    --format FMT         folded (default) | svg | json
    --hz N               local mode: also run the wall-clock sampler at
                         N Hz, populating per-stack sample counts
    --threads N          local mode: execution threads (default 1)
    --out FILE           write the rendering to FILE instead of stdout

BENCH OPTIONS:
    --out FILE           output JSON path (default BENCH_batch.json,
                         BENCH_dist.json with --dist,
                         BENCH_predictors.json with --predictors,
                         BENCH_queue.json with --queue, or
                         BENCH_server.json with --server); results
                         append to the file's versioned history with
                         commit/date metadata (legacy files upgrade in place)
    --server             saturation load harness: ramp concurrent closed-loop
                         submit clients against a server (an in-process one
                         unless --addr names a live instance), find the
                         throughput knee, and record max sustained jobs/s,
                         p99 at the knee, and error/429 counts
    --addr HOST:PORT     with --server: target a running server instead of
                         booting an in-process one
    --max-clients N      with --server: top of the 1,2,4,.. client ramp
                         (default 32)
    --step-ms N          with --server: measured duration of each ramp step
                         (default 1500)
    --dist N             distributed scaling bench: cold-run paper-default
                         on in-process fleets of 1/2/../N single-threaded
                         workers vs the single-process baseline
    --predictors         per-predictor hot-path bench: sequential point
                         throughput of every arrival-predictor variant on
                         the paper workload
    --queue              event-queue microbench: steady-state push+pop
                         throughput of the calendar queue vs the heap
                         reference at 1k/100k/1M pending events
    --profile            batch bench only: also time the sequential grid
                         with region profiling off, record the derived
                         profile_overhead_pct and a per-region self-time
                         breakdown in BENCH_batch.json
    --gate [FILES...]    regression gate: compare each history's newest
                         entry against the previous one; exit non-zero on a
                         throughput drop beyond the tolerance (default
                         files: the three BENCH_*.json)
    --max-drop PCT       gate tolerance, percent (default 35)
"
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

/// Registry name first, file path second.
fn load(arg: &str) -> Result<Manifest, String> {
    if let Some(parsed) = registry::get(arg) {
        return parsed.map_err(|e| format!("built-in `{arg}`: {e}"));
    }
    let path = Path::new(arg);
    if path.exists() {
        Manifest::from_path(path).map_err(|e| e.to_string())
    } else {
        Err(format!(
            "`{arg}` is neither a built-in scenario ({}) nor a file",
            registry::names().join(", ")
        ))
    }
}

fn cmd_list() -> ExitCode {
    println!(
        "{:<20} {:>6} {:>9}  description",
        "name", "runs", "policies"
    );
    for (name, _) in registry::BUILTINS {
        let m = registry::builtin(name).expect("builtins parse");
        let runs = expand(&m).map(|p| p.len()).unwrap_or(0);
        println!(
            "{:<20} {:>6} {:>9}  {}",
            name,
            runs,
            m.policies.len(),
            m.description
        );
    }
    ExitCode::SUCCESS
}

fn cmd_show(name: &str) -> ExitCode {
    match registry::raw(name) {
        Some(src) => {
            print!("{src}");
            ExitCode::SUCCESS
        }
        None => fail(format!(
            "no built-in scenario `{name}` (try: {})",
            registry::names().join(", ")
        )),
    }
}

fn cmd_validate(path: &str) -> ExitCode {
    match Manifest::from_path(Path::new(path)) {
        Ok(m) => match expand(&m) {
            Ok(points) => {
                println!("ok: `{}` expands to {} runs", m.name, points.len());
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        Err(e) => fail(e),
    }
}

fn cmd_expand(arg: &str) -> ExitCode {
    let m = match load(arg) {
        Ok(m) => m,
        Err(e) => return fail(e),
    };
    let points = match expand(&m) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let axis_points: usize = m.sweep.iter().map(|a| a.values.len()).product();
    println!("scenario   {}", m.name);
    println!(
        "matrix     {} axis point(s) x {} policies x {} seeds = {} runs",
        axis_points,
        m.policies.len(),
        m.run.replicates,
        points.len()
    );
    for axis in &m.sweep {
        let values: Vec<String> = axis.values.iter().map(|v| v.to_string()).collect();
        println!("axis       {} = [{}]", axis.field, values.join(", "));
    }
    for p in &m.policies {
        let mut details: Vec<String> = Vec::new();
        if let Some(pred) = &p.predictor {
            details.push(format!("predictor={}", pred.name()));
        }
        details.extend(p.overrides.iter().map(|(k, v)| format!("{k}={v}")));
        println!(
            "policy     {:<10} ({}{}{})",
            p.label,
            p.kind,
            if details.is_empty() { "" } else { "; " },
            details.join(", ")
        );
    }
    ExitCode::SUCCESS
}

struct RunArgs {
    scenario: String,
    out: Option<PathBuf>,
    raw: Option<PathBuf>,
    threads: usize,
    quiet: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut scenario = None;
    let mut out = None;
    let mut raw = None;
    let mut threads = 0usize;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                out = Some(PathBuf::from(v));
            }
            "--raw" => {
                let v = it.next().ok_or("--raw needs a file path")?;
                raw = Some(PathBuf::from(v));
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
            }
            "--quiet" => quiet = true,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if scenario.replace(other.to_string()).is_some() {
                    return Err("more than one scenario argument".to_string());
                }
            }
        }
    }
    Ok(RunArgs {
        scenario: scenario.ok_or("missing scenario name or manifest path")?,
        out,
        raw,
        threads,
        quiet,
    })
}

fn cmd_run(args: &[String]) -> ExitCode {
    let run_args = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let m = match load(&run_args.scenario) {
        Ok(m) => m,
        Err(e) => return fail(e),
    };
    let n_runs = match expand(&m) {
        Ok(p) => p.len(),
        Err(e) => return fail(e),
    };
    if !run_args.quiet {
        eprintln!("running `{}`: {} runs ...", m.name, n_runs);
    }
    let batch = match execute(
        &m,
        ExecOptions {
            threads: run_args.threads,
        },
    ) {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    if !run_args.quiet {
        print!("{}", pas_scenario::summary_table(&batch).render());
    }
    if let Some(path) = &run_args.out {
        if let Err(e) = pas_scenario::write_summary_csv(&batch, path) {
            return fail(format!("writing {}: {e}", path.display()));
        }
        if !run_args.quiet {
            println!("wrote {}", path.display());
        }
    }
    if let Some(path) = &run_args.raw {
        if let Err(e) = pas_scenario::write_records_jsonl(&batch, path) {
            return fail(format!("writing {}: {e}", path.display()));
        }
        if !run_args.quiet {
            println!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

struct ReportArgs {
    source: String,
    format: String,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    threads: usize,
    quiet: bool,
}

fn parse_report_args(args: &[String]) -> Result<ReportArgs, String> {
    let mut source = None;
    let mut format = "md".to_string();
    let mut out = None;
    let mut compare = None;
    let mut threads = 0usize;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format needs md|json|svg")?;
                if !["md", "json", "svg"].contains(&v.as_str()) {
                    return Err(format!("--format: `{v}` is not md, json, or svg"));
                }
                format = v.clone();
            }
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a file path")?)),
            "--compare" => {
                let a = it.next().ok_or("--compare needs two policy labels")?;
                let b = it.next().ok_or("--compare needs two policy labels")?;
                compare = Some((a.clone(), b.clone()));
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
            }
            "--quiet" => quiet = true,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if source.replace(other.to_string()).is_some() {
                    return Err("more than one source argument".to_string());
                }
            }
        }
    }
    Ok(ReportArgs {
        source: source.ok_or("missing source: scenario name, manifest, .jsonl, or .csv")?,
        format,
        out,
        compare,
        threads,
        quiet,
    })
}

fn cmd_report(args: &[String]) -> ExitCode {
    let rep = match parse_report_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let opts = pas_report::ReportOptions {
        compare: rep.compare.clone(),
    };
    let path = Path::new(&rep.source);
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase);
    let is_sink_file =
        path.exists() && matches!(ext.as_deref(), Some("jsonl") | Some("ndjson") | Some("csv"));
    let report = if is_sink_file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(format!("reading {}: {e}", path.display())),
        };
        let built = if ext.as_deref() == Some("csv") {
            // A summary CSV carries only means — there are no per-run
            // replicates to pair, so an explicit comparison request
            // must fail loudly rather than be silently dropped.
            if rep.compare.is_some() {
                return fail(format!(
                    "{}: --compare needs per-run records (a .jsonl sink); \
                     a summary CSV carries only means",
                    path.display()
                ));
            }
            pas_report::parse_summary_csv(&text)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|ing| {
                    let name = path
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or("summary")
                        .to_string();
                    pas_report::Report::from_summaries(&name, &ing.x_label, &ing.summaries)
                        .map_err(|e| e.to_string())
                })
        } else {
            pas_report::parse_records_jsonl(&text)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|ing| {
                    pas_report::Report::from_records(
                        &ing.scenario,
                        &ing.x_label,
                        &ing.records,
                        &opts,
                    )
                    .map_err(|e| e.to_string())
                })
        };
        match built {
            Ok(r) => r,
            Err(e) => return fail(e),
        }
    } else {
        let m = match load(&rep.source) {
            Ok(m) => m,
            Err(e) => return fail(e),
        };
        if !rep.quiet {
            let runs = expand(&m).map(|p| p.len()).unwrap_or(0);
            eprintln!("reporting `{}`: {} runs ...", m.name, runs);
        }
        let batch = match execute(
            &m,
            ExecOptions {
                threads: rep.threads,
            },
        ) {
            Ok(b) => b,
            Err(e) => return fail(e),
        };
        match pas_report::Report::from_batch(&batch, &opts) {
            Ok(r) => r,
            Err(e) => return fail(e),
        }
    };
    let body = match rep.format.as_str() {
        "json" => pas_report::render_json(&report),
        "svg" => pas_report::render_svg(&report),
        _ => pas_report::render_md(&report),
    };
    match &rep.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &body) {
                return fail(format!("writing {}: {e}", path.display()));
            }
            if !rep.quiet {
                eprintln!("wrote {}", path.display());
            }
        }
        None => print!("{body}"),
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

struct ServeArgs {
    addr: String,
    cache_dir: PathBuf,
    opts: ServerOptions,
    sched: SchedulerOptions,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut cache_dir = PathBuf::from(".pas-cache");
    let mut opts = ServerOptions::default();
    let mut sched = SchedulerOptions::default();
    let mut it = args.iter();
    let ms = |v: &String, flag: &str| -> Result<Duration, String> {
        v.parse::<u64>()
            .map(Duration::from_millis)
            .map_err(|_| format!("{flag}: `{v}` is not a number"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--cache-dir" => {
                cache_dir = PathBuf::from(it.next().ok_or("--cache-dir needs a path")?)
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                opts.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a number")?;
                opts.queue_capacity = v
                    .parse()
                    .map_err(|_| format!("--queue-cap: `{v}` is not a number"))?;
            }
            "--no-local-exec" => opts.local_exec = false,
            "--metrics" => opts.metrics = true,
            "--history-interval-ms" => {
                opts.history_interval = ms(
                    it.next().ok_or("--history-interval-ms needs a number")?,
                    "--history-interval-ms",
                )?;
                if opts.history_interval.is_zero() {
                    return Err("--history-interval-ms must be at least 1".to_string());
                }
            }
            "--history-retention" => {
                let v = it.next().ok_or("--history-retention needs a number")?;
                opts.history_retention = v
                    .parse()
                    .map_err(|_| format!("--history-retention: `{v}` is not a number"))?;
            }
            "--lease-ms" => {
                sched.lease = ms(it.next().ok_or("--lease-ms needs a number")?, "--lease-ms")?
            }
            "--heartbeat-ms" => {
                sched.heartbeat = ms(
                    it.next().ok_or("--heartbeat-ms needs a number")?,
                    "--heartbeat-ms",
                )?
            }
            "--shard-points" => {
                let v = it.next().ok_or("--shard-points needs a number")?;
                sched.shard_points = v
                    .parse()
                    .map_err(|_| format!("--shard-points: `{v}` is not a number"))?;
            }
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    Ok(ServeArgs {
        addr,
        cache_dir,
        opts,
        sched,
    })
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let serve = match parse_serve_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let cache = match ResultCache::open(&serve.cache_dir) {
        Ok(c) => c,
        Err(e) => return fail(format!("opening cache {}: {e}", serve.cache_dir.display())),
    };
    let warm = cache.len();
    let mut server = match Server::bind(serve.addr.as_str(), cache.clone(), serve.opts) {
        Ok(s) => s,
        Err(e) => return fail(format!("binding {}: {e}", serve.addr)),
    };
    // The distributed scheduler rides on the same listener: `/healthz`
    // plus the `/dist/*` worker protocol. With --no-local-exec it is the
    // only execution backend; otherwise it coexists with the in-process
    // pool (each job runs on exactly one of the two).
    let scheduler = Scheduler::new(server.queue(), cache, serve.sched);
    scheduler.spawn_ticker();
    server.set_router(scheduler.into_router());
    match server.local_addr() {
        Ok(addr) => eprintln!(
            "pas-server listening on {addr} (cache: {}, {warm} warm entries, {})",
            serve.cache_dir.display(),
            if serve.opts.local_exec {
                "local exec + dist"
            } else {
                "dist only"
            }
        ),
        Err(_) => eprintln!("pas-server listening on {}", serve.addr),
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(format!("server: {e}")),
    }
}

// ---------------------------------------------------------------------------
// worker / status
// ---------------------------------------------------------------------------

fn parse_worker_args(args: &[String]) -> Result<(String, WorkerOptions), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut opts = WorkerOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => addr = it.next().ok_or("--connect needs HOST:PORT")?.clone(),
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                opts.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
            }
            "--name" => opts.name = it.next().ok_or("--name needs a value")?.clone(),
            "--poll-ms" => {
                let v = it.next().ok_or("--poll-ms needs a number")?;
                opts.poll = Duration::from_millis(
                    v.parse()
                        .map_err(|_| format!("--poll-ms: `{v}` is not a number"))?,
                );
            }
            "--max-shards" => {
                let v = it.next().ok_or("--max-shards needs a number")?;
                opts.max_shards = Some(
                    v.parse()
                        .map_err(|_| format!("--max-shards: `{v}` is not a number"))?,
                );
            }
            "--fail-after-points" => {
                let v = it.next().ok_or("--fail-after-points needs a number")?;
                opts.fail_after_points = Some(
                    v.parse()
                        .map_err(|_| format!("--fail-after-points: `{v}` is not a number"))?,
                );
            }
            "--quiet" => opts.verbose = false,
            other => return Err(format!("unknown worker option `{other}`")),
        }
    }
    Ok((addr, opts))
}

fn cmd_worker(args: &[String]) -> ExitCode {
    let (addr, mut opts) = match parse_worker_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    opts.verbose = opts.verbose || std::env::var_os("PAS_WORKER_VERBOSE").is_some();
    eprintln!("pas-worker `{}` connecting to {addr}", opts.name);
    match pas_dist::worker::run(&addr, opts) {
        Ok(summary) => {
            eprintln!(
                "pas-worker {}: {} shards, {} points{}",
                summary.worker,
                summary.shards,
                summary.points,
                if summary.died { " (died by drill)" } else { "" }
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("worker: {e}")),
    }
}

fn cmd_status(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut metrics = false;
    let mut raw = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return fail("--addr needs HOST:PORT"),
            },
            "--metrics" => metrics = true,
            "--raw" => raw = true,
            other => return fail(format!("unknown status option `{other}`")),
        }
    }
    let client = Client::new(addr.clone());
    let health = match client.healthz() {
        Ok(h) => h,
        Err(e) => return fail(format!("{addr}: {e}")),
    };
    println!("server     {addr}");
    // The two `_dropped` keys surface telemetry loss: spans evicted from
    // the trace ring and scopes lost to profile-table overflow. Non-zero
    // means `pas trace` / `pas profile` output is incomplete.
    for key in [
        "queue_depth",
        "active_jobs",
        "workers",
        "trace_dropped",
        "profile_dropped",
    ] {
        if let Some(v) = pas_server::json::find_u64(&health, key) {
            println!("{key:<15} {v}");
        }
    }
    if let Some(true) = pas_server::json::find_bool(&health, "draining") {
        println!("draining        yes");
    }
    match client.workers_table() {
        Ok(table) if !table.trim().is_empty() => {
            println!();
            print!("{table}");
        }
        _ => {}
    }
    if metrics {
        match client.metrics() {
            Ok(text) => {
                println!();
                if raw {
                    print!("{text}");
                } else {
                    // Derived rates lead the summary: the cumulative
                    // counters below say how much ever happened, two
                    // history samples say how fast it is happening now.
                    if let Some(rates) = status_rates(&client) {
                        print!("{rates}");
                        println!();
                    }
                    print!("{}", summarize_metrics(&text));
                }
            }
            Err(e) => {
                return fail(format!(
                    "{addr}: /metrics: {e} (is the server running with --metrics?)"
                ))
            }
        }
    }
    ExitCode::SUCCESS
}

/// Current rates from the server's metric history (`req/s`, submits/s,
/// points/s), each the newest sampling window's derivative. `None` when
/// the server has no history (older build, or sampler not yet warm) —
/// the status summary then just shows cumulative counters as before.
fn status_rates(client: &Client) -> Option<String> {
    let body = client.metrics_history(HistoryFormat::Json).ok()?;
    let dump = pas_obs::history::parse_dump(std::str::from_utf8(&body).ok()?)?;
    if dump.series.is_empty() {
        return None;
    }
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "req/s           {:.1}",
        dump.rate_sum("pas.server.http.requests.count", None)
    );
    let _ = writeln!(
        out,
        "submits/s       {:.1}",
        dump.rate_sum("pas.queue.submit.count", None)
    );
    let _ = writeln!(
        out,
        "points/s        {:.1}",
        dump.rate_sum("pas.exec.points.count", None)
            + dump.rate_sum(
                "pas.dist.report.points.count",
                Some(("outcome", "accepted"))
            )
    );
    Some(out)
}

/// One histogram label-set being folded down while summarizing a
/// Prometheus exposition: cumulative buckets in exposition order, then
/// the trailing `_sum`/`_count` pair.
#[derive(Default)]
struct HistAcc {
    buckets: Vec<(String, u64)>,
    sum: String,
}

/// The smallest bucket bound covering quantile `q`, as `<=BOUND` — or
/// `>LAST_FINITE` when the mass lands in the `+Inf` overflow bucket.
fn hist_quantile(buckets: &[(String, u64)], count: u64, q: f64) -> String {
    let target = (q * count as f64).ceil().max(1.0) as u64;
    for (i, (le, cum)) in buckets.iter().enumerate() {
        if *cum < target {
            continue;
        }
        if le != "+Inf" {
            return format!("<={le}");
        }
        return match i.checked_sub(1).and_then(|j| buckets.get(j)) {
            Some((prev, _)) => format!(">{prev}"),
            None => ">0".to_string(),
        };
    }
    "=?".to_string()
}

/// Re-render a Prometheus text exposition for human eyes: counter and
/// gauge lines (and `# TYPE` headers) pass through verbatim — scripts
/// grepping e.g. `pas_server_http_requests_count` keep working — while
/// each histogram label-set's bucket/sum/count block collapses into one
/// `name{labels} count=N sum=S p50.. p95.. p99..` line. Quantiles are
/// bucket-bound estimates, which is all a fixed-bound histogram can say.
fn summarize_metrics(text: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    // Name of the histogram the current `# TYPE` block declares, if any.
    let mut hist: Option<String> = None;
    let mut acc = HistAcc::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            hist = rest
                .split_once(' ')
                .filter(|(_, kind)| *kind == "histogram")
                .map(|(name, _)| name.to_string());
            acc = HistAcc::default();
            out.push_str(line);
            out.push('\n');
            continue;
        }
        // Within a histogram block each label set is contiguous:
        // buckets ascending, then `_sum`, then `_count` — so the count
        // line is the flush point.
        let series = hist.as_deref().and_then(|name| {
            let tail = line.strip_prefix(name)?;
            let (head, value) = tail.rsplit_once(' ')?;
            Some((head.to_string(), value.to_string()))
        });
        match series {
            Some((head, value)) if head.starts_with("_bucket") => {
                let le = head
                    .split_once("le=\"")
                    .and_then(|(_, r)| r.split_once('"'))
                    .map(|(le, _)| le.to_string())
                    .unwrap_or_default();
                acc.buckets.push((le, value.parse().unwrap_or(0)));
            }
            Some((head, value)) if head.starts_with("_sum") => {
                acc.sum = value;
            }
            Some((head, value)) if head.starts_with("_count") => {
                let labels = head.strip_prefix("_count").unwrap_or("");
                let count: u64 = value.parse().unwrap_or(0);
                let name = hist.as_deref().unwrap_or("");
                if count == 0 {
                    let _ = writeln!(out, "{name}{labels} count=0");
                } else {
                    let _ = writeln!(
                        out,
                        "{name}{labels} count={count} sum={} p50{} p95{} p99{}",
                        acc.sum,
                        hist_quantile(&acc.buckets, count, 0.50),
                        hist_quantile(&acc.buckets, count, 0.95),
                        hist_quantile(&acc.buckets, count, 0.99),
                    );
                }
                acc = HistAcc::default();
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// top
// ---------------------------------------------------------------------------

/// Render up to `width` trailing values as a unicode sparkline, scaled
/// to their own min..max (a flat series renders as a low bar, not
/// noise). Non-finite values (empty percentile windows) leave a gap.
fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail: Vec<f64> = values
        .iter()
        .copied()
        .skip(values.len().saturating_sub(width))
        .collect();
    let finite: Vec<f64> = tail.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    tail.iter()
        .map(|v| {
            if !v.is_finite() {
                ' '
            } else {
                let idx = ((v - lo) / span * 7.0).round() as usize;
                BARS[idx.min(7)]
            }
        })
        .collect()
}

/// One `pas top` frame, rendered from a healthz body and a parsed
/// metric history. Pure so the layout is unit-testable; every line is
/// erase-to-eol terminated by the caller.
fn top_frame(addr: &str, health: &str, dump: &pas_obs::history::Dump, frame: u64) -> Vec<String> {
    use std::fmt::Write as _;
    let h_u64 = |k: &str| pas_server::json::find_u64(health, k).unwrap_or(0);
    let mut lines = Vec::new();
    lines.push(format!(
        "pas top — {addr} · up {}s · {} worker(s) · frame {frame} (Ctrl-C quits)",
        h_u64("uptime_s"),
        h_u64("workers").max(h_u64("workers_alive")),
    ));
    lines.push(String::new());

    let depth = dump
        .named("pas.queue.depth.jobs")
        .next()
        .map(|s| s.values.clone())
        .unwrap_or_default();
    lines.push(format!(
        "queue    depth {:<5} {:<24} submits/s {:<8.1} jobs done/s {:<8.1}",
        h_u64("queue_depth"),
        sparkline(&depth, 24),
        dump.rate_sum("pas.queue.submit.count", None),
        dump.rate_sum("pas.queue.jobs.count", None),
    ));

    let points_rate = dump.rate_sum("pas.exec.points.count", None)
        + dump.rate_sum(
            "pas.dist.report.points.count",
            Some(("outcome", "accepted")),
        );
    let hit_rate = dump.rate_sum("pas.cache.lookup.count", Some(("outcome", "hit")));
    let miss_rate = dump.rate_sum("pas.cache.lookup.count", Some(("outcome", "miss")));
    let lookups = hit_rate + miss_rate;
    let mut line = format!("exec     points/s {points_rate:<10.1} cache ");
    if lookups > 0.0 {
        let _ = write!(
            line,
            "{:.0}% hit of {lookups:.1}/s",
            100.0 * hit_rate / lookups
        );
    } else {
        line.push_str("idle");
    }
    lines.push(line);

    // HTTP: total request rate plus the busiest route's window
    // percentiles. (Percentiles cannot be merged across routes — the
    // buckets can, but one route's tail would vanish into another's
    // bulk — so the dashboard shows the hottest route honestly.)
    let req_rate = dump.rate_sum("pas.server.http.requests.count", None);
    let busiest = dump
        .named("pas.server.http.latency.microseconds")
        .filter(|s| s.count_rate.last().copied().unwrap_or(0.0) > 0.0)
        .max_by(|a, b| {
            a.count_rate
                .last()
                .copied()
                .unwrap_or(0.0)
                .total_cmp(&b.count_rate.last().copied().unwrap_or(0.0))
        });
    let mut line = format!("http     req/s {req_rate:<10.1}");
    if let Some(s) = busiest {
        let q = |v: &[f64]| v.last().copied().filter(|v| v.is_finite());
        if let (Some(p50), Some(p95), Some(p99)) = (q(&s.p50), (q(&s.p95)), q(&s.p99)) {
            let _ = write!(
                line,
                " {} p50 {p50:.0}us p95 {p95:.0}us p99 {p99:.0}us",
                s.label("route").unwrap_or("?"),
            );
        }
    }
    lines.push(line);

    // One lane per dist worker: executed points carried as a cumulative
    // gauge on heartbeats, differenced into a rate lane here.
    let mut workers: Vec<_> = dump.named("pas.dist.worker.executed.points").collect();
    workers.sort_by_key(|s| s.label("worker").unwrap_or("").to_string());
    if !workers.is_empty() {
        lines.push(String::new());
        lines.push(format!("workers  ({} reporting)", workers.len()));
        for s in workers {
            let rates = s.gauge_rates();
            lines.push(format!(
                "  {:<16} {:<24} {:>8.1} points/s",
                s.label("worker").unwrap_or("?"),
                sparkline(&rates, 24),
                rates.last().copied().unwrap_or(0.0),
            ));
        }
    }
    lines
}

fn cmd_top(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut interval_ms = 1000u64;
    let mut frames: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return fail("--addr needs HOST:PORT"),
            },
            "--interval-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => interval_ms = n,
                _ => return fail("--interval-ms needs a number >= 1"),
            },
            "--frames" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => frames = Some(n),
                _ => return fail("--frames needs a number >= 1"),
            },
            other => return fail(format!("unknown top option `{other}`")),
        }
    }
    let client = Client::new(addr.clone());
    let mut frame = 0u64;
    loop {
        let health = match client.healthz() {
            Ok(h) => h,
            Err(e) => return fail(format!("{addr}: {e}")),
        };
        let body = match client.metrics_history(HistoryFormat::Json) {
            Ok(b) => b,
            // The degradation path: a server without `--metrics` refuses
            // with guidance — report it instead of an empty dashboard.
            Err(ClientError::Api(status, msg)) => {
                return fail(format!("{addr}: /metrics/history: {status} {msg}"))
            }
            Err(e) => return fail(format!("{addr}: /metrics/history: {e}")),
        };
        let Some(dump) = std::str::from_utf8(&body)
            .ok()
            .and_then(pas_obs::history::parse_dump)
        else {
            return fail(format!(
                "{addr}: /metrics/history returned unparseable JSON"
            ));
        };
        frame += 1;
        // First frame clears the screen; later ones repaint from the
        // top-left and erase each line's tail, so the view refreshes in
        // place without flicker.
        let mut out = if frame == 1 {
            "\x1b[2J\x1b[H".to_string()
        } else {
            "\x1b[H".to_string()
        };
        for line in top_frame(&addr, &health, &dump, frame) {
            out.push_str(&line);
            out.push_str("\x1b[K\n");
        }
        out.push_str("\x1b[J");
        print!("{out}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if frames.is_some_and(|n| frame >= n) {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

fn cmd_trace(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut format = TraceFormat::Tree;
    let mut job: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return fail("--addr needs HOST:PORT"),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("tree") => format = TraceFormat::Tree,
                Some("chrome") => format = TraceFormat::Chrome,
                Some("critical-path") => format = TraceFormat::CriticalPath,
                _ => return fail("--format needs tree, chrome, or critical-path"),
            },
            other if other.starts_with('-') => {
                return fail(format!("unknown trace option `{other}`"))
            }
            other => match other.parse() {
                Ok(id) if job.is_none() => job = Some(id),
                Ok(_) => return fail("more than one job id"),
                Err(_) => return fail(format!("`{other}` is not a job id")),
            },
        }
    }
    let Some(id) = job else {
        return fail("trace needs a job id (printed by `pas submit -v`, or in GET /jobs/:id)");
    };
    let client = Client::new(addr.clone());
    match client.trace(id, format) {
        Ok(body) => {
            print!("{}", String::from_utf8_lossy(&body));
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!(
            "{addr}: /jobs/{id}/trace: {e} (is the server running with --metrics?)"
        )),
    }
}

/// All `("ts", "dur")` value pairs (µs) of Chrome trace events named
/// `name` — the tiny scan `pas submit -v` uses for its latency
/// breakdown; the renderer emits `"name"` then `"ts"` then `"dur"`
/// within each event.
fn chrome_ts_durs(chrome: &str, name: &str) -> Vec<(u64, u64)> {
    let field = |tail: &str, key: &str| -> Option<u64> {
        let at = tail.find(key)? + key.len();
        let num: String = tail[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        num.parse().ok()
    };
    let needle = format!("\"name\":\"{name}\"");
    let mut out = Vec::new();
    let mut rest = chrome;
    while let Some(pos) = rest.find(&needle) {
        let tail = &rest[pos + needle.len()..];
        if let (Some(ts), Some(dur)) = (field(tail, "\"ts\":"), field(tail, "\"dur\":")) {
            out.push((ts, dur));
        }
        rest = &rest[pos + needle.len()..];
    }
    out
}

/// All `"dur"` values (µs) of Chrome trace events named `name`.
fn chrome_durs(chrome: &str, name: &str) -> Vec<u64> {
    chrome_ts_durs(chrome, name)
        .into_iter()
        .map(|(_, d)| d)
        .collect()
}

// ---------------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------------

struct ProfileArgs {
    scenario: Option<String>,
    serve_url: Option<String>,
    seconds: Option<u64>,
    format: ProfileFormat,
    hz: Option<u32>,
    threads: usize,
    out: Option<PathBuf>,
}

fn parse_profile_args(args: &[String]) -> Result<ProfileArgs, String> {
    let mut scenario = None;
    let mut serve_url = None;
    let mut seconds = None;
    let mut format = ProfileFormat::Folded;
    let mut hz = None;
    let mut threads = 1usize;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--serve-url" | "--addr" => {
                serve_url = Some(it.next().ok_or("--serve-url needs HOST:PORT")?.clone())
            }
            "--seconds" => {
                let v = it.next().ok_or("--seconds needs a number")?;
                seconds = Some(
                    v.parse()
                        .map_err(|_| format!("--seconds: `{v}` is not a number"))?,
                );
            }
            "--format" => match it.next().map(String::as_str) {
                Some("folded") => format = ProfileFormat::Folded,
                Some("svg") => format = ProfileFormat::Svg,
                Some("json") => format = ProfileFormat::Json,
                _ => return Err("--format needs folded, svg, or json".to_string()),
            },
            "--hz" => {
                let v = it.next().ok_or("--hz needs a number")?;
                hz = Some(
                    v.parse()
                        .map_err(|_| format!("--hz: `{v}` is not a number"))?,
                );
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
            }
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a file path")?)),
            other if other.starts_with('-') => {
                return Err(format!("unknown profile option `{other}`"))
            }
            other => {
                if scenario.replace(other.to_string()).is_some() {
                    return Err("more than one scenario argument".to_string());
                }
            }
        }
    }
    Ok(ProfileArgs {
        scenario,
        serve_url,
        seconds,
        format,
        hz,
        threads,
        out,
    })
}

/// `pas profile`: render a region profile as folded stacks, an SVG
/// flamegraph, or JSON. Remote mode (`--serve-url`) fetches a running
/// server's `/profile`; local mode executes a scenario in-process with
/// the detail regions (per-event sim hot-loop scopes) switched on.
fn cmd_profile(args: &[String]) -> ExitCode {
    let pa = match parse_profile_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let body: Vec<u8> = match (&pa.serve_url, &pa.scenario) {
        (Some(_), Some(_)) => {
            return fail("give either a scenario or --serve-url, not both");
        }
        (Some(addr), None) => {
            let client = Client::new(addr.clone());
            match client.profile(pa.format, pa.seconds) {
                Ok(b) => b,
                Err(e) => {
                    return fail(format!(
                        "{addr}: /profile: {e} (is the server running with --metrics?)"
                    ))
                }
            }
        }
        (None, Some(src)) => {
            if pa.seconds.is_some() {
                return fail("--seconds only applies to --serve-url mode");
            }
            let m = match load(src) {
                Ok(m) => m,
                Err(e) => return fail(e),
            };
            // Local mode owns the process: add the detail regions the
            // always-on coarse set leaves out, start from a zeroed table.
            pas_obs::profile::set_detail(true);
            pas_obs::profile::reset();
            let sampler = pa.hz.map(pas_obs::profile::start_sampler);
            let result = execute(
                &m,
                ExecOptions {
                    threads: pa.threads,
                },
            );
            // Join the sampler before rendering so its last tick lands.
            drop(sampler);
            pas_obs::profile::set_detail(false);
            if let Err(e) = result {
                return fail(e);
            }
            match pa.format {
                ProfileFormat::Folded => pas_obs::profile::render_folded(),
                ProfileFormat::Svg => pas_obs::profile::render_svg(),
                ProfileFormat::Json => pas_obs::profile::render_json(),
            }
            .into_bytes()
        }
        (None, None) => {
            return fail("profile needs a scenario name/manifest path or --serve-url HOST:PORT");
        }
    };
    match &pa.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &body) {
                return fail(format!("writing {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
        None => print!("{}", String::from_utf8_lossy(&body)),
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// submit
// ---------------------------------------------------------------------------

struct SubmitArgs {
    scenario: String,
    addr: String,
    out: Option<PathBuf>,
    raw: Option<PathBuf>,
    poll_ms: u64,
    retries: u32,
    verbose: bool,
    quiet: bool,
}

fn parse_submit_args(args: &[String]) -> Result<SubmitArgs, String> {
    let mut scenario = None;
    let mut addr = DEFAULT_ADDR.to_string();
    let mut out = None;
    let mut raw = None;
    let mut poll_ms = 200u64;
    let mut retries = 8u32;
    let mut verbose = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a file path")?)),
            "--raw" => raw = Some(PathBuf::from(it.next().ok_or("--raw needs a file path")?)),
            "--poll-ms" => {
                let v = it.next().ok_or("--poll-ms needs a number")?;
                poll_ms = v
                    .parse()
                    .map_err(|_| format!("--poll-ms: `{v}` is not a number"))?;
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a number")?;
                retries = v
                    .parse()
                    .map_err(|_| format!("--retries: `{v}` is not a number"))?;
            }
            "-v" | "--verbose" => verbose = true,
            "--quiet" => quiet = true,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if scenario.replace(other.to_string()).is_some() {
                    return Err("more than one scenario argument".to_string());
                }
            }
        }
    }
    Ok(SubmitArgs {
        scenario: scenario.ok_or("missing scenario name or manifest path")?,
        addr,
        out,
        raw,
        poll_ms,
        retries,
        verbose,
        quiet,
    })
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let sub = match parse_submit_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let m = match load(&sub.scenario) {
        Ok(m) => m,
        Err(e) => return fail(e),
    };
    let client = Client::new(sub.addr.clone());
    // Transient failures — the server still booting (connection refused)
    // or shedding load (429) — back off exponentially with jitter instead
    // of failing the whole batch submission.
    // `--retries N` means N retries on top of the first attempt.
    let policy = RetryPolicy {
        attempts: sub.retries.saturating_add(1),
        ..RetryPolicy::default()
    };
    let quiet = sub.quiet;
    // `-v` keeps a per-cause tally of what the retries actually hit
    // (refused vs backpressure vs timeout ...), mirroring the
    // `pas.client.submit.retries.count{cause}` series the client
    // records in the metrics registry.
    let mut retry_tally: Vec<(&'static str, u32)> = Vec::new();
    let id = match client.submit_with_retry(&m.to_toml(), policy, |attempt, err| {
        let cause = pas_server::retry_cause(err);
        match retry_tally.iter_mut().find(|(c, _)| *c == cause) {
            Some((_, n)) => *n += 1,
            None => retry_tally.push((cause, 1)),
        }
        if !quiet {
            eprintln!("submit retry {attempt}/{}: {err}", policy.attempts - 1);
        }
    }) {
        Ok(id) => id,
        Err(e) => return fail(e),
    };
    if sub.verbose && !sub.quiet {
        if retry_tally.is_empty() {
            eprintln!("retries   none (first attempt accepted)");
        } else {
            let total: u32 = retry_tally.iter().map(|(_, n)| n).sum();
            let causes: Vec<String> = retry_tally
                .iter()
                .map(|(c, n)| format!("{c}={n}"))
                .collect();
            eprintln!("retries   {total} ({})", causes.join(", "));
        }
    }
    if !sub.quiet {
        eprintln!("submitted `{}` to {} as job {id}", m.name, sub.addr);
    }
    let poll = std::time::Duration::from_millis(sub.poll_ms.max(1));
    let status = if sub.verbose && !sub.quiet {
        // Live rate readout: difference consecutive status polls, the
        // same derivation the server's SSE `progress` frames use.
        let mut mark: Option<(std::time::Instant, u64)> = None;
        let mut printed = false;
        let result = client.wait_with(id, poll, |s| {
            let now = std::time::Instant::now();
            if let Some((at, done)) = mark {
                let dt = now.duration_since(at).as_secs_f64();
                if s.phase == "running" && dt > 0.0 && s.done > done {
                    eprint!(
                        "\rrunning   {}/{} points ({:.0} points/s)  ",
                        s.done,
                        s.total,
                        (s.done - done) as f64 / dt
                    );
                    printed = true;
                }
            }
            if mark.is_none_or(|(_, done)| done != s.done) {
                mark = Some((now, s.done));
            }
        });
        if printed {
            eprintln!();
        }
        result
    } else {
        client.wait(id, poll)
    };
    let status = match status {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if status.phase != "completed" {
        return fail(format!(
            "job {id} {}: {}",
            status.phase,
            status.error.unwrap_or_else(|| "unknown error".to_string())
        ));
    }
    if !sub.quiet {
        eprintln!(
            "job {id} completed: {} runs, {} from cache, {} simulated",
            status.total, status.cache_hits, status.cache_misses
        );
    }
    let t_download = std::time::Instant::now();
    let csv = match client.results(id, ResultFormat::Csv) {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    let download_us = t_download.elapsed().as_micros() as u64;
    if sub.verbose && !sub.quiet {
        // Latency breakdown from the job's trace: where did the
        // submit→complete wall time actually go? Server-side phases come
        // from the span tree; the download leg is measured client-side.
        match client.trace(id, TraceFormat::Chrome) {
            Ok(body) => {
                let chrome = String::from_utf8_lossy(&body);
                let total = chrome_durs(&chrome, "job").first().copied().unwrap_or(0);
                let queued = chrome_durs(&chrome, "job.queued")
                    .first()
                    .copied()
                    .unwrap_or(0);
                // Local-exec jobs have one `job.execute`; distributed
                // jobs spread execution over concurrent
                // `worker.shard.execute` spans, so take their wall-clock
                // envelope (first start → last end), not the sum.
                let execute = chrome_durs(&chrome, "job.execute")
                    .first()
                    .copied()
                    .unwrap_or_else(|| {
                        let shards = chrome_ts_durs(&chrome, "worker.shard.execute");
                        let lo = shards.iter().map(|(ts, _)| *ts).min().unwrap_or(0);
                        let hi = shards.iter().map(|(ts, d)| ts + d).max().unwrap_or(0);
                        hi.saturating_sub(lo)
                    });
                let trace_id = status.trace.as_deref().unwrap_or("?");
                eprintln!(
                    "latency   total {total}us = queued {queued}us + execute {execute}us \
                     + other {}us; download {download_us}us (trace {trace_id}, \
                     `pas trace {id} --format critical-path`)",
                    total.saturating_sub(queued).saturating_sub(execute),
                );
            }
            Err(_) => {
                eprintln!(
                    "latency   trace unavailable (server without --metrics?); \
                     download {download_us}us"
                );
            }
        }
    }
    match &sub.out {
        // The body is written verbatim: byte-identical to `pas run --out`.
        Some(path) => {
            if let Err(e) = std::fs::write(path, &csv) {
                return fail(format!("writing {}: {e}", path.display()));
            }
            if !sub.quiet {
                println!("wrote {}", path.display());
            }
        }
        None => print!("{}", String::from_utf8_lossy(&csv)),
    }
    if let Some(path) = &sub.raw {
        let jsonl = match client.results(id, ResultFormat::Jsonl) {
            Ok(b) => b,
            Err(e) => return fail(e),
        };
        if let Err(e) = std::fs::write(path, &jsonl) {
            return fail(format!("writing {}: {e}", path.display()));
        }
        if !sub.quiet {
            println!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// bench
// ---------------------------------------------------------------------------

/// Record one bench payload into its history file: append with
/// commit/date metadata (upgrading legacy single-object files in
/// place), echo the payload, and report the history depth.
fn record_bench(out: &Path, payload: &str) -> ExitCode {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let date = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()
        .map(|d| pas_bench::civil_date(d.as_secs()));
    match pas_bench::append(out, payload, commit, date) {
        Ok(history) => {
            print!("{payload}");
            eprintln!(
                "appended to {} ({} entries)",
                out.display(),
                history.entries.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("recording {}: {e}", out.display())),
    }
}

/// `pas bench --gate`: fail on a throughput cliff between the two
/// newest entries of each bench history.
fn cmd_bench_gate(max_drop_pct: f64, files: &[PathBuf]) -> ExitCode {
    let defaults = [
        "BENCH_batch.json",
        "BENCH_dist.json",
        "BENCH_predictors.json",
        "BENCH_queue.json",
        "BENCH_server.json",
    ];
    let files: Vec<PathBuf> = if files.is_empty() {
        defaults.iter().map(PathBuf::from).collect()
    } else {
        files.to_vec()
    };
    let mut failed = false;
    for path in &files {
        let history = match pas_bench::BenchHistory::load(path) {
            Ok(Some(h)) => h,
            Ok(None) => {
                println!("gate {:<28} absent, skipped", path.display());
                continue;
            }
            Err(e) => return fail(format!("{}: {e}", path.display())),
        };
        let outcome = pas_bench::gate(&history, max_drop_pct);
        let verdict = if !outcome.ok {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        match (outcome.previous, outcome.latest, &outcome.key) {
            (Some(prev), Some(latest), Some(key)) => println!(
                "gate {:<28} {verdict}: {latest:.1} runs/s vs {prev:.1} at {key} \
                 ({:+.1}% drop, tolerance {max_drop_pct:.0}%)",
                path.display(),
                outcome.drop_pct
            ),
            _ => println!(
                "gate {:<28} {verdict}: no two entries with a shared configuration",
                path.display()
            ),
        }
    }
    if failed {
        fail("bench regression gate failed")
    } else {
        ExitCode::SUCCESS
    }
}

/// Smoke benchmark: expansion throughput and a small batch execute —
/// timed with the observability registry on and off, so the history
/// tracks instrumentation overhead — as JSON other PRs can diff for a
/// perf trajectory (BENCH_batch.json).
/// With `--dist N`, instead measure distributed scaling: cold-run the
/// full paper-default grid on in-process fleets of 1, 2, 4, …, N
/// single-threaded workers against a real `--no-local-exec` server, and
/// record throughput and efficiency vs the single-process sequential
/// baseline (BENCH_dist.json). Every result appends to the unified
/// versioned history (`pas-bench::history`); `--gate` checks the
/// newest entries for throughput cliffs instead of running anything.
fn cmd_bench(args: &[String]) -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut dist: Option<usize> = None;
    let mut predictors = false;
    let mut queue = false;
    let mut profile = false;
    let mut gate = false;
    let mut server = false;
    let mut addr: Option<String> = None;
    let mut max_clients = 32usize;
    let mut step_ms = 1500u64;
    let mut max_drop_pct = pas_bench::DEFAULT_MAX_DROP_PCT;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return fail("--out needs a file path"),
            },
            "--dist" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => dist = Some(n),
                _ => return fail("--dist needs a worker count >= 1"),
            },
            "--predictors" => predictors = true,
            "--queue" => queue = true,
            "--profile" => profile = true,
            "--gate" => gate = true,
            "--server" => server = true,
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return fail("--addr needs HOST:PORT"),
            },
            "--max-clients" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => max_clients = n,
                _ => return fail("--max-clients needs a count >= 1"),
            },
            "--step-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n >= 100 => step_ms = n,
                _ => return fail("--step-ms needs a duration >= 100"),
            },
            "--max-drop" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(p)) if p >= 0.0 => max_drop_pct = p,
                _ => return fail("--max-drop needs a percentage >= 0"),
            },
            other if other.starts_with('-') => {
                return fail(format!("unknown bench option `{other}`"))
            }
            other => files.push(PathBuf::from(other)),
        }
    }
    if gate {
        return cmd_bench_gate(max_drop_pct, &files);
    }
    if !files.is_empty() {
        return fail("positional files only apply to --gate");
    }
    if server {
        return cmd_bench_server(
            addr,
            max_clients,
            step_ms,
            out.unwrap_or_else(|| PathBuf::from("BENCH_server.json")),
        );
    }
    if addr.is_some() {
        return fail("--addr only applies to --server");
    }
    if predictors {
        return cmd_bench_predictors(out.unwrap_or_else(|| PathBuf::from("BENCH_predictors.json")));
    }
    if queue {
        return cmd_bench_queue(out.unwrap_or_else(|| PathBuf::from("BENCH_queue.json")));
    }
    if let Some(max_workers) = dist {
        return cmd_bench_dist(
            max_workers,
            out.unwrap_or_else(|| PathBuf::from("BENCH_dist.json")),
        );
    }
    let out = out.unwrap_or_else(|| PathBuf::from("BENCH_batch.json"));
    let manifest = registry::builtin("paper-default").expect("builtin parses");
    let points = match expand(&manifest) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };

    // Expansion: many iterations, it is microseconds-scale.
    let expand_iters = 200u32;
    let t0 = std::time::Instant::now();
    for _ in 0..expand_iters {
        let p = expand(&manifest).expect("expansion is deterministic");
        assert_eq!(p.len(), points.len());
    }
    let expand_ns = t0.elapsed().as_nanos() as u64 / u64::from(expand_iters);

    // Execution: a fixed sub-grid, sequential for machine-independence,
    // timed in up to five configurations. The shipping one has metrics,
    // span tracing (under an ambient trace context so `exec.point` spans
    // record), region profiling and the history sampler (at an aggressive
    // 100 ms interval, so its pair is a worst-case bound) all on. The
    // others turn off tracing, profiling (`--profile` only), the whole
    // registry, or the sampler. One sample is one batch. The
    // configurations run interleaved over `BENCH_ROUNDS` rounds, each
    // round in an order rotated by one, so drift in machine speed falls
    // on all of them alike. A configuration's time is the median of its
    // samples; an overhead is the median over rounds of that round's
    // shipping/off ratio.
    let mut small = manifest.clone();
    small.sweep[0].values = vec![4.0, 12.0].into();
    small.run.replicates = 4;
    let n_runs = match expand(&small) {
        Ok(p) => p.len(),
        Err(e) => return fail(e),
    };
    // (metrics, tracing, profiling, history sampler)
    type Config = (bool, bool, bool, bool);
    const SHIPPING: Config = (true, true, true, true);
    let mut configs: Vec<Config> = vec![
        SHIPPING,
        (true, false, true, true),
        (false, false, false, true),
        (true, true, true, false),
    ];
    let (trace_off, obs_off, history_off, profile_off) = (1, 2, 3, 4);
    if profile {
        configs.push((true, true, false, true));
    }
    let run_once = |(obs, tracing, profiling, _): Config| {
        pas_obs::set_enabled(obs);
        pas_obs::trace::set_tracing(tracing);
        pas_obs::profile::set_profiling(profiling);
        // Fresh trace per sample; threads=1 executes inline on this
        // thread, so the ambient context reaches every point.
        let trace = pas_obs::trace::mint_id();
        let _ctx = pas_obs::trace::enter(trace, pas_obs::trace::mint_id());
        let t = std::time::Instant::now();
        let batch = execute(&small, ExecOptions { threads: 1 }).map_err(|e| e.to_string())?;
        Ok::<_, String>((t.elapsed().as_micros() as u64, batch))
    };
    let start_sampler = || {
        pas_obs::history::start_sampler(pas_obs::history::HistoryConfig {
            interval: Duration::from_millis(100),
            retention: 64,
        })
    };
    // Zero the profile table, then run one untimed shipping batch: it
    // warms up, and it is the batch `events_total` and the per-region
    // breakdown describe.
    pas_obs::profile::reset();
    let mut sampler = Some(start_sampler());
    let batch = match run_once(SHIPPING) {
        Ok((_, batch)) => batch,
        Err(e) => return fail(e),
    };
    let regions = profile.then(profile_region_json);
    let mut samples = vec![Vec::with_capacity(BENCH_ROUNDS); configs.len()];
    for round in 0..BENCH_ROUNDS {
        for k in 0..configs.len() {
            let c = (round + k) % configs.len();
            if configs[c].3 != sampler.is_some() {
                // Dropping the sampler stops and joins its thread. A start
                // (with its immediate first snapshot) or a join slows the
                // batch right after it, so that batch runs untimed.
                sampler = configs[c].3.then(start_sampler);
                if let Err(e) = run_once(configs[c]) {
                    return fail(e);
                }
            }
            match run_once(configs[c]) {
                Ok((us, _)) => samples[c].push(us),
                Err(e) => return fail(e),
            }
        }
    }
    drop(sampler);
    pas_obs::set_enabled(true);
    pas_obs::trace::set_tracing(true);
    pas_obs::profile::set_profiling(true);
    let median_us = |c: usize| median(samples[c].iter().map(|&us| us as f64).collect()) as u64;
    let overhead = |off: usize| {
        let ratios = samples[0]
            .iter()
            .zip(&samples[off])
            .map(|(&on, &off)| on as f64 / off.max(1) as f64)
            .collect();
        (median(ratios) - 1.0) * 100.0
    };
    let exec_us = median_us(0);
    let exec_us_trace_off = median_us(trace_off);
    let exec_us_off = median_us(obs_off);
    let exec_us_history_off = median_us(history_off);
    let exec_us_profile_off = profile.then(|| median_us(profile_off));
    let overhead_pct = overhead(obs_off);
    let trace_overhead_pct = overhead(trace_off);
    let history_overhead_pct = overhead(history_off);
    // `--profile` contributes three extra fields; without it the payload
    // is byte-identical to the pre-profiler shape.
    let profile_fields = match (exec_us_profile_off, regions) {
        (Some(off_us), Some(regions)) => format!(
            "  \"execute_us_profile_off\": {off_us},\n  \
             \"profile_overhead_pct\": {:.2},\n  \
             \"profile_regions\": {regions},\n",
            overhead(profile_off)
        ),
        _ => String::new(),
    };
    let json = format!(
        "{{\n  \"bench\": \"batch\",\n  \"scenario\": \"paper-default\",\n  \
         \"expand_runs\": {},\n  \"expand_ns_per_iter\": {expand_ns},\n  \
         \"execute_runs\": {n_runs},\n  \"execute_rounds\": {BENCH_ROUNDS},\n  \
         \"execute_us_sequential\": {exec_us},\n  \
         \"execute_us_trace_off\": {exec_us_trace_off},\n  \
         \"trace_overhead_pct\": {trace_overhead_pct:.2},\n  \
         \"execute_us_obs_off\": {exec_us_off},\n  \"obs_overhead_pct\": {overhead_pct:.2},\n  \
         \"execute_us_history_off\": {exec_us_history_off},\n  \
         \"history_overhead_pct\": {history_overhead_pct:.2},\n\
         {profile_fields}  \
         \"execute_us_per_run\": {},\n  \"events_total\": {}\n}}\n",
        points.len(),
        exec_us / n_runs as u64,
        batch
            .records
            .iter()
            .map(|r| r.events_processed)
            .sum::<u64>(),
    );
    record_bench(&out, &json)
}

/// Interleaved rounds per `pas bench` execute configuration; odd, so
/// every median is one sample.
const BENCH_ROUNDS: usize = 41;
const _: () = assert!(BENCH_ROUNDS % 2 == 1);

/// Median of an odd-length sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The global profile table folded down to a per-region JSON array:
/// entries sharing a leaf region merge (self-time and calls summed over
/// every stack path ending there), sorted by self-time descending with
/// name as the deterministic tie-break.
fn profile_region_json() -> String {
    let mut agg: Vec<(String, u64, u64, u64)> = Vec::new();
    for e in pas_obs::profile::snapshot() {
        let Some(leaf) = e.stack.last() else { continue };
        match agg.iter_mut().find(|(name, ..)| name == leaf) {
            Some((_, calls, self_ns, total_ns)) => {
                *calls += e.calls;
                *self_ns += e.self_ns();
                *total_ns += e.total_ns;
            }
            None => agg.push((leaf.clone(), e.calls, e.self_ns(), e.total_ns)),
        }
    }
    agg.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    let items: Vec<String> = agg
        .iter()
        .map(|(name, calls, self_ns, total_ns)| {
            format!(
                "    {{\"region\": \"{name}\", \"calls\": {calls}, \
                 \"self_us\": {}, \"total_us\": {}}}",
                self_ns / 1_000,
                total_ns / 1_000
            )
        })
        .collect();
    if items.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", items.join(",\n"))
    }
}

/// Per-predictor hot-path bench: sequential point throughput of every
/// arrival-predictor variant on a fixed paper-workload sub-grid, so the
/// perf trajectory tracks the estimation path itself — the code inside
/// the wake-decision loop — not just batch/dist plumbing
/// (BENCH_predictors.json).
fn cmd_bench_predictors(out: PathBuf) -> ExitCode {
    let base = registry::builtin("paper-default").expect("builtin parses");
    let mut entries = Vec::new();
    let mut runs_per_predictor = 0usize;
    for name in pas_core::PREDICTOR_NAMES {
        // One PAS policy mounting the variant, over the Fig. 4 operating
        // slice: 2 axis points x 8 seeds, sequential for comparability.
        let mut m = base.clone();
        m.name = "bench-predictors".to_string();
        m.policies.retain(|p| p.kind == "pas");
        m.policies[0].predictor = pas_core::PredictorSpec::from_name(name);
        m.sweep[0].values = vec![4.0, 12.0].into();
        m.run.replicates = 8;
        let n_runs = match expand(&m) {
            Ok(p) => p.len(),
            Err(e) => return fail(e),
        };
        runs_per_predictor = n_runs;
        let t0 = std::time::Instant::now();
        let batch = match execute(&m, ExecOptions { threads: 1 }) {
            Ok(b) => b,
            Err(e) => return fail(e),
        };
        let us = t0.elapsed().as_micros() as u64;
        let events: u64 = batch.records.iter().map(|r| r.events_processed).sum();
        entries.push(format!(
            "    {{\"predictor\": \"{name}\", \"execute_us\": {us}, \
             \"us_per_run\": {}, \"runs_per_s\": {:.1}, \"events_total\": {events}}}",
            us / n_runs as u64,
            n_runs as f64 / (us as f64 / 1e6),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"predictors\",\n  \"scenario\": \"paper-default\",\n  \
         \"runs_per_predictor\": {runs_per_predictor},\n  \"predictors\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    );
    record_bench(&out, &json)
}

/// Event-queue microbench: steady-state push+pop throughput of the
/// calendar queue against the heap reference, at several pending-set
/// sizes. The workload mirrors the simulator's access pattern: hold N
/// events pending and repeatedly pop the earliest, then push a
/// replacement 0–20 s ahead of the popped time (an LCG supplies the
/// jitter so both implementations see the identical sequence).
fn cmd_bench_queue(out: PathBuf) -> ExitCode {
    use pas_sim::{EventQueue, HeapEventQueue, SimTime};
    const OPS: u64 = 200_000;
    fn next_time(x: &mut u64, now: f64) -> f64 {
        *x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        now + ((*x >> 40) as f64) * (20.0 / 16777216.0)
    }
    fn bench<Q>(
        n: usize,
        mut push: impl FnMut(&mut Q, SimTime),
        mut pop: impl FnMut(&mut Q) -> SimTime,
        q: &mut Q,
    ) -> u64 {
        let mut x: u64 = 12345;
        for _ in 0..n {
            push(q, SimTime::from_secs(next_time(&mut x, 0.0)));
        }
        let t0 = std::time::Instant::now();
        for _ in 0..OPS {
            let now = pop(q).as_secs();
            push(q, SimTime::from_secs(next_time(&mut x, now)));
        }
        (t0.elapsed().as_nanos() as u64).max(1) / OPS
    }
    let mut entries = Vec::new();
    for &n in &[1_000usize, 100_000, 1_000_000] {
        let label = match n {
            1_000 => "n1k",
            100_000 => "n100k",
            _ => "n1m",
        };
        let mut cq: EventQueue<u32> = EventQueue::new();
        let cal = bench(
            n,
            |q: &mut EventQueue<u32>, t| q.push(t, 0),
            |q| q.pop().expect("queue holds n pending").0,
            &mut cq,
        );
        let mut hq: HeapEventQueue<u32> = HeapEventQueue::new();
        let heap = bench(
            n,
            |q: &mut HeapEventQueue<u32>, t| q.push(t, 0),
            |q| q.pop().expect("queue holds n pending").0,
            &mut hq,
        );
        for (impl_name, ns) in [("calendar", cal), ("heap", heap)] {
            entries.push(format!(
                "    {{\"config\": \"{impl_name}-{label}\", \"pending\": {n}, \
                 \"ns_per_op\": {ns}, \"ops_per_s\": {:.1}}}",
                1e9 / ns.max(1) as f64,
            ));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"queue\",\n  \"ops\": {OPS},\n  \"configs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    );
    record_bench(&out, &json)
}

/// Distributed scaling bench: one in-process server + fleet per
/// configuration, each starting from a cold cache so every point
/// simulates remotely.
fn cmd_bench_dist(max_workers: usize, out: PathBuf) -> ExitCode {
    let manifest = registry::builtin("paper-default").expect("builtin parses");
    let toml = manifest.to_toml();
    let n_runs = match expand(&manifest) {
        Ok(p) => p.len(),
        Err(e) => return fail(e),
    };

    // Single-process sequential baseline (the PR 2 execution path).
    let t0 = std::time::Instant::now();
    if let Err(e) = execute(&manifest, ExecOptions { threads: 1 }) {
        return fail(e);
    }
    let base_us = t0.elapsed().as_micros() as u64;

    let mut counts: Vec<usize> = Vec::new();
    let mut w = 1;
    while w < max_workers {
        counts.push(w);
        w *= 2;
    }
    counts.push(max_workers);

    let mut fleets = Vec::new();
    for &workers in &counts {
        let dir =
            std::env::temp_dir().join(format!("pas_bench_dist_{}_{workers}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = match ResultCache::open(&dir) {
            Ok(c) => c,
            Err(e) => return fail(format!("opening {}: {e}", dir.display())),
        };
        let opts = ServerOptions {
            local_exec: false,
            ..ServerOptions::default()
        };
        let mut server = match Server::bind("127.0.0.1:0", cache.clone(), opts) {
            Ok(s) => s,
            Err(e) => return fail(format!("binding bench server: {e}")),
        };
        let addr = match server.local_addr() {
            Ok(a) => a.to_string(),
            Err(e) => return fail(format!("bench server addr: {e}")),
        };
        let scheduler = Scheduler::new(
            server.queue(),
            cache,
            SchedulerOptions {
                heartbeat: Duration::from_millis(200),
                ..SchedulerOptions::default()
            },
        );
        scheduler.spawn_ticker();
        server.set_router(scheduler.into_router());
        std::thread::spawn(move || server.run());

        let fleet: Vec<_> = (0..workers)
            .map(|i| {
                let addr = addr.clone();
                let opts = WorkerOptions {
                    name: format!("bench-{i}"),
                    threads: 1,
                    poll: Duration::from_millis(10),
                    verbose: false,
                    ..WorkerOptions::default()
                };
                std::thread::spawn(move || pas_dist::worker::run(&addr, opts))
            })
            .collect();

        let client = Client::new(addr);
        let t1 = std::time::Instant::now();
        let id = match client.submit_with_retry(&toml, RetryPolicy::default(), |_, _| {}) {
            Ok(id) => id,
            Err(e) => return fail(format!("bench submit: {e}")),
        };
        let status = match client.wait(id, Duration::from_millis(20)) {
            Ok(s) => s,
            Err(e) => return fail(format!("bench wait: {e}")),
        };
        let wall_us = t1.elapsed().as_micros() as u64;
        if status.phase != "completed" || status.cache_misses != n_runs as u64 {
            return fail(format!(
                "bench fleet of {workers}: phase {}, {} simulated (want {n_runs})",
                status.phase, status.cache_misses
            ));
        }
        if let Err(e) = client.drain() {
            return fail(format!("bench drain: {e}"));
        }
        for handle in fleet {
            match handle.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => return fail(format!("bench worker: {e}")),
                Err(_) => return fail("bench worker panicked"),
            }
        }
        let speedup = base_us as f64 / wall_us as f64;
        fleets.push(format!(
            "    {{\"workers\": {workers}, \"wall_us\": {wall_us}, \
             \"runs_per_s\": {:.1}, \"speedup\": {speedup:.3}, \
             \"efficiency\": {:.3}}}",
            n_runs as f64 / (wall_us as f64 / 1e6),
            speedup / workers as f64,
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let json = format!(
        "{{\n  \"bench\": \"dist\",\n  \"scenario\": \"paper-default\",\n  \
         \"runs\": {n_runs},\n  \"baseline_sequential_us\": {base_us},\n  \
         \"fleets\": [\n{}\n  ]\n}}\n",
        fleets.join(",\n"),
    );
    record_bench(&out, &json)
}

/// Server saturation harness: ramp concurrent closed-loop submit
/// clients (1, 2, 4, …, `max_clients`) against a live server, each
/// submitting tiny warm-cache jobs and waiting for completion as fast
/// as the control loop allows. Throughput climbs with concurrency
/// until the server saturates; the knee is the smallest ramp step
/// reaching ≥95% of the peak, and its p99 is the latency cost of
/// operating there. Appends a `server-saturation` entry (per-step
/// table, knee, max sustained jobs/s, error/429 counts) to
/// BENCH_server.json under the versioned history schema.
///
/// Without `--addr` an in-process `--metrics` server (local exec,
/// temp cache) is booted, so the bench also exercises the history
/// sampler under load. The jobs are warm after one seed submission:
/// the harness measures the submit→queue→cache→complete control loop —
/// the saturation behaviour of the *server*, not the simulator.
fn cmd_bench_server(
    addr: Option<String>,
    max_clients: usize,
    step_ms: u64,
    out: PathBuf,
) -> ExitCode {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // The smallest useful job: one axis point, one replicate.
    let mut m = registry::builtin("paper-default").expect("builtin parses");
    m.sweep[0].values = vec![4.0].into();
    m.run.replicates = 1;
    let toml = m.to_toml();

    let mut cleanup_dir: Option<PathBuf> = None;
    let addr = match addr {
        Some(a) => a,
        None => {
            let dir = std::env::temp_dir().join(format!("pas_bench_server_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cache = match ResultCache::open(&dir) {
                Ok(c) => c,
                Err(e) => return fail(format!("opening {}: {e}", dir.display())),
            };
            let opts = ServerOptions {
                metrics: true,
                history_interval: Duration::from_millis(250),
                history_retention: 240,
                ..ServerOptions::default()
            };
            let server = match Server::bind("127.0.0.1:0", cache, opts) {
                Ok(s) => s,
                Err(e) => return fail(format!("binding bench server: {e}")),
            };
            let a = match server.local_addr() {
                Ok(a) => a.to_string(),
                Err(e) => return fail(format!("bench server addr: {e}")),
            };
            std::thread::spawn(move || server.run());
            cleanup_dir = Some(dir);
            a
        }
    };

    // Seed submission: after this every harness job is a cache hit.
    let seed = Client::new(addr.clone());
    let id = match seed.submit_with_retry(&toml, RetryPolicy::default(), |_, _| {}) {
        Ok(id) => id,
        Err(e) => return fail(format!("bench seed submit to {addr}: {e}")),
    };
    match seed.wait(id, Duration::from_millis(5)) {
        Ok(s) if s.phase == "completed" => {}
        Ok(s) => {
            return fail(format!(
                "bench seed job {}: {}",
                s.phase,
                s.error.unwrap_or_default()
            ))
        }
        Err(e) => return fail(format!("bench seed wait: {e}")),
    }

    let mut ramp: Vec<usize> = Vec::new();
    let mut c = 1;
    while c < max_clients {
        ramp.push(c);
        c *= 2;
    }
    ramp.push(max_clients);

    struct Step {
        clients: usize,
        jobs: u64,
        jobs_per_s: f64,
        p50_us: u64,
        p95_us: u64,
        p99_us: u64,
        errors: u64,
        http_429: u64,
    }
    let mut steps: Vec<Step> = Vec::new();
    for &clients in &ramp {
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let addr = addr.clone();
                let toml = toml.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let client = Client::new(addr);
                    let mut latencies: Vec<u64> = Vec::new();
                    let mut errors = 0u64;
                    let mut http_429 = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let t0 = std::time::Instant::now();
                        match client.submit(&toml) {
                            Ok(id) => match client.wait(id, Duration::from_millis(2)) {
                                Ok(s) if s.phase == "completed" => {
                                    latencies.push(t0.elapsed().as_micros() as u64)
                                }
                                _ => errors += 1,
                            },
                            Err(ClientError::Api(429, _)) => {
                                // Backpressure is an expected saturation
                                // signal, not a failure: count and yield.
                                http_429 += 1;
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(_) => {
                                errors += 1;
                                std::thread::sleep(Duration::from_millis(5));
                            }
                        }
                    }
                    (latencies, errors, http_429)
                })
            })
            .collect();
        let t0 = std::time::Instant::now();
        std::thread::sleep(Duration::from_millis(step_ms));
        stop.store(true, Ordering::Relaxed);
        let mut latencies: Vec<u64> = Vec::new();
        let mut errors = 0u64;
        let mut http_429 = 0u64;
        for h in handles {
            match h.join() {
                Ok((lat, e, r)) => {
                    latencies.extend(lat);
                    errors += e;
                    http_429 += r;
                }
                Err(_) => return fail("bench client thread panicked"),
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        latencies.sort_unstable();
        let q = |q: f64| -> u64 {
            if latencies.is_empty() {
                return 0;
            }
            let idx = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len()) - 1;
            latencies[idx]
        };
        let jobs = latencies.len() as u64;
        let step = Step {
            clients,
            jobs,
            jobs_per_s: jobs as f64 / wall_s,
            p50_us: q(0.50),
            p95_us: q(0.95),
            p99_us: q(0.99),
            errors,
            http_429,
        };
        eprintln!(
            "bench --server: {:>4} client(s): {:>8.1} jobs/s, p99 {:>8}us, \
             {} error(s), {} 429(s)",
            clients, step.jobs_per_s, step.p99_us, errors, http_429
        );
        steps.push(step);
    }
    if let Some(dir) = cleanup_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The knee: smallest concurrency sustaining ≥95% of the peak —
    // beyond it throughput plateaus and added clients only buy latency.
    let max_jps = steps.iter().map(|s| s.jobs_per_s).fold(0.0, f64::max);
    let knee = steps
        .iter()
        .find(|s| s.jobs_per_s >= 0.95 * max_jps)
        .unwrap_or_else(|| steps.last().expect("ramp is non-empty"));
    let (knee_clients, p99_at_knee) = (knee.clients, knee.p99_us);
    let errors_total: u64 = steps.iter().map(|s| s.errors).sum();
    let http_429_total: u64 = steps.iter().map(|s| s.http_429).sum();
    let rows: Vec<String> = steps
        .iter()
        .map(|s| {
            format!(
                "    {{\"clients\": {}, \"jobs\": {}, \"jobs_per_s\": {:.1}, \
                 \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
                 \"errors\": {}, \"http_429\": {}}}",
                s.clients, s.jobs, s.jobs_per_s, s.p50_us, s.p95_us, s.p99_us, s.errors, s.http_429
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"server\",\n  \"scenario\": \"server-saturation\",\n  \
         \"step_ms\": {step_ms},\n  \"steps\": [\n{}\n  ],\n  \
         \"knee_clients\": {knee_clients},\n  \"max_jobs_per_s\": {max_jps:.1},\n  \
         \"p99_us_at_knee\": {p99_at_knee},\n  \"errors_total\": {errors_total},\n  \
         \"http_429_total\": {http_429_total}\n}}\n",
        rows.join(",\n"),
    );
    record_bench(&out, &json)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("show") => match args.get(1) {
            Some(name) => cmd_show(name),
            None => fail("show needs a scenario name"),
        },
        Some("validate") => match args.get(1) {
            Some(path) => cmd_validate(path),
            None => fail("validate needs a manifest path"),
        },
        Some("expand") => match args.get(1) {
            Some(arg) => cmd_expand(arg),
            None => fail("expand needs a scenario name or manifest path"),
        },
        Some("run") => cmd_run(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        Some(other) => fail(format!("unknown command `{other}`\n\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_passes_counters_verbatim_and_folds_histograms() {
        let text = "\
# TYPE pas_server_http_requests_count counter
pas_server_http_requests_count{route=\"/jobs\"} 7
# TYPE pas_t_microseconds histogram
pas_t_microseconds_bucket{route=\"/jobs\",le=\"10\"} 1
pas_t_microseconds_bucket{route=\"/jobs\",le=\"100\"} 2
pas_t_microseconds_bucket{route=\"/jobs\",le=\"+Inf\"} 3
pas_t_microseconds_sum{route=\"/jobs\"} 160
pas_t_microseconds_count{route=\"/jobs\"} 3
# TYPE pas_q_gauge gauge
pas_q_gauge 2
";
        let out = summarize_metrics(text);
        // Counter and gauge lines survive byte-for-byte.
        assert!(out.contains("pas_server_http_requests_count{route=\"/jobs\"} 7\n"));
        assert!(out.contains("pas_q_gauge 2\n"));
        // The histogram block collapses to one summary line: no raw
        // buckets, quantiles read off the cumulative bounds.
        assert!(!out.contains("_bucket"));
        assert!(out.contains(
            "pas_t_microseconds{route=\"/jobs\"} count=3 sum=160 p50<=100 p95>100 p99>100\n"
        ));
    }

    #[test]
    fn summarize_handles_zero_count_and_unlabelled_histograms() {
        let text = "\
# TYPE pas_e histogram
pas_e_bucket{le=\"10\"} 0
pas_e_bucket{le=\"+Inf\"} 0
pas_e_sum 0
pas_e_count 0
";
        assert_eq!(
            summarize_metrics(text),
            "# TYPE pas_e histogram\npas_e count=0\n"
        );
    }

    #[test]
    fn quantile_picks_smallest_covering_bound() {
        let buckets = vec![
            ("10".to_string(), 5u64),
            ("100".to_string(), 9),
            ("+Inf".to_string(), 10),
        ];
        assert_eq!(hist_quantile(&buckets, 10, 0.50), "<=10");
        assert_eq!(hist_quantile(&buckets, 10, 0.90), "<=100");
        assert_eq!(hist_quantile(&buckets, 10, 0.99), ">100");
    }
}
