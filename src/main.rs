//! `pas` — run declarative PAS experiment batches from the command line.
//! `pas --help` lists the subcommands and their options.
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
    Client, ClientError, HistoryFormat, ProfileFormat, ReportFormat, ResultCache, ResultFormat,
    RetryPolicy, Server, ServerOptions, TraceFormat,
};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
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
                                      (detail regions on) or read a running
                                      server's /profile window, as a folded
                                      stack listing, SVG flamegraph, or JSON
    pas bench [options]               time expansion, batches, predictors,
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
    --fail-after-points N  fault-injection drill: crash (no report) after
                         executing N points

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
    --threads N          local mode: execution threads (default 1)
    --out FILE           write the rendering to FILE instead of stdout

BENCH OPTIONS:
    --out FILE           output JSON path (default BENCH_batch.json,
                         BENCH_predictors.json with --predictors, or
                         BENCH_server.json with --server); results
                         append to the file's versioned history with
                         commit/date metadata
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
    --predictors         per-predictor hot-path bench: sequential point
                         throughput of every arrival-predictor variant on
                         the paper workload, interleaved over 41 rounds
    --gate [FILES...]    regression gate: compare each history's newest
                         entry against the previous one; exit non-zero on a
                         throughput drop beyond the tolerance (default
                         files: the three BENCH_*.json)
    --max-drop PCT       gate tolerance, percent (default 35)
"
}

/// What a subcommand returns; `main` prints the error and exits 1.
type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {{
        write_stdout(format_args!($($arg)*));
    }};
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => { out!("\n") };
    ($($arg:tt)*) => { out!("{}\n", format_args!($($arg)*)) };
}

/// Every byte the CLI prints to stdout goes through here. Once the reader
/// has gone away (`pas list | head -1`) the output is dropped quietly,
/// instead of a broken-pipe panic, and `false` comes back; the command
/// still writes its files and exits with the status it owes.
fn write_stdout(args: std::fmt::Arguments) -> bool {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Ok(()) => true,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => false,
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// argument parsing
// ---------------------------------------------------------------------------

/// The one argument loop. [`Cursor::each`] hands every argument of
/// `pas <cmd>` to the subcommand's match; its arms read flag values
/// through the typed readers, and whatever no arm reads is an error.
struct Cursor<'a> {
    cmd: &'a str,
    args: std::slice::Iter<'a, String>,
}

impl<'a> Cursor<'a> {
    fn each(
        cmd: &'a str,
        args: &'a [String],
        mut arm: impl FnMut(&mut Self, &'a str) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut cursor = Cursor {
            cmd,
            args: args.iter(),
        };
        while let Some(arg) = cursor.next() {
            arm(&mut cursor, arg)?;
        }
        Ok(())
    }

    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    /// The argument after `flag`, parsed.
    fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v = self.next().ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|e| format!("{flag} `{v}`: {e}"))
    }

    fn at_least<T>(&mut self, flag: &str, min: T) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Display,
        T::Err: Display,
    {
        let v = self.value(flag)?;
        if v >= min {
            Ok(v)
        } else {
            Err(format!("{flag} must be at least {min}"))
        }
    }

    /// A `*-ms` interval. Zero is refused: a zero interval spins.
    fn ms(&mut self, flag: &str) -> Result<Duration, String> {
        self.at_least(flag, 1).map(Duration::from_millis)
    }

    /// The index in `names` of the value after `flag`.
    fn choice(&mut self, flag: &str, names: &[&str]) -> Result<usize, String> {
        let v: String = self.value(flag)?;
        let expected = || format!("{flag} `{v}`: expected {}", names.join(", "));
        names
            .iter()
            .position(|name| *name == v)
            .ok_or_else(expected)
    }

    /// Fill an empty positional slot; a flag or a second positional is an
    /// error.
    fn positional(&self, slot: &mut Option<String>, arg: &str) -> Result<(), String> {
        if arg.starts_with('-') || slot.is_some() {
            return Err(self.unknown(arg));
        }
        *slot = Some(arg.to_string());
        Ok(())
    }

    fn unknown(&self, arg: &str) -> String {
        let cmd = self.cmd;
        format!("`pas {cmd}` does not take `{arg}` (see `pas --help`)")
    }
}

/// `pas <cmd>` with no arguments at all.
fn parse_none(cmd: &str, args: &[String]) -> Result<(), String> {
    Cursor::each(cmd, args, |c, arg| Err(c.unknown(arg)))
}

/// `pas <cmd> <what>`: exactly one positional.
fn parse_one(cmd: &str, args: &[String], what: &str) -> Result<String, String> {
    let mut one = None;
    Cursor::each(cmd, args, |c, arg| c.positional(&mut one, arg))?;
    one.ok_or_else(|| format!("{cmd} needs {what}"))
}

/// A parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Help,
    List,
    Show(String),
    Validate(String),
    Expand(String),
    Run(RunOpts),
    Report(ReportOpts),
    Serve(ServeOpts),
    Worker(WorkerOpts),
    Submit(SubmitOpts),
    Status(StatusOpts),
    Top(TopOpts),
    Trace(TraceOpts),
    Profile(ProfileOpts),
    Bench(BenchOpts),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    Ok(match cmd.as_str() {
        "--help" | "-h" | "help" => parse_none(cmd, rest).map(|()| Command::Help)?,
        "list" => parse_none(cmd, rest).map(|()| Command::List)?,
        "show" => Command::Show(parse_one(cmd, rest, "a scenario name")?),
        "validate" => Command::Validate(parse_one(cmd, rest, "a manifest path")?),
        "expand" => Command::Expand(parse_one(cmd, rest, "a scenario name or manifest path")?),
        "run" => Command::Run(parse_run(rest)?),
        "report" => Command::Report(parse_report(rest)?),
        "serve" => Command::Serve(parse_serve(rest)?),
        "worker" => Command::Worker(parse_worker(rest)?),
        "submit" => Command::Submit(parse_submit(rest)?),
        "status" => Command::Status(parse_status(rest)?),
        "top" => Command::Top(parse_top(rest)?),
        "trace" => Command::Trace(parse_trace(rest)?),
        "profile" => Command::Profile(parse_profile(rest)?),
        "bench" => Command::Bench(parse_bench(rest)?),
        other => return Err(format!("unknown command `{other}`\n\n{}", usage())),
    })
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

fn cmd_list() -> CmdResult {
    outln!(
        "{:<20} {:>6} {:>9}  description",
        "name",
        "runs",
        "policies"
    );
    for (name, _) in registry::BUILTINS {
        let m = registry::builtin(name).expect("builtins parse");
        let runs = expand(&m).map(|p| p.len()).unwrap_or(0);
        outln!(
            "{:<20} {:>6} {:>9}  {}",
            name,
            runs,
            m.policies.len(),
            m.description
        );
    }
    Ok(())
}

fn cmd_show(name: &str) -> CmdResult {
    let src = registry::raw(name).ok_or_else(|| {
        let names = registry::names().join(", ");
        format!("no built-in scenario `{name}` (try: {names})")
    })?;
    out!("{src}");
    Ok(())
}

fn cmd_validate(path: &str) -> CmdResult {
    let m = Manifest::from_path(Path::new(path))?;
    let points = expand(&m)?;
    outln!("ok: `{}` expands to {} runs", m.name, points.len());
    Ok(())
}

fn cmd_expand(arg: &str) -> CmdResult {
    let m = load(arg)?;
    let points = expand(&m)?;
    let axis_points: usize = m.sweep.iter().map(|a| a.values.len()).product();
    outln!("scenario   {}", m.name);
    outln!(
        "matrix     {} axis point(s) x {} policies x {} seeds = {} runs",
        axis_points,
        m.policies.len(),
        m.run.replicates,
        points.len()
    );
    for axis in &m.sweep {
        let values: Vec<String> = axis.values.iter().map(|v| v.to_string()).collect();
        outln!("axis       {} = [{}]", axis.field, values.join(", "));
    }
    for p in &m.policies {
        let mut details: Vec<String> = Vec::new();
        if let Some(pred) = &p.predictor {
            details.push(format!("predictor={}", pred.name()));
        }
        details.extend(p.overrides.iter().map(|(k, v)| format!("{k}={v}")));
        outln!(
            "policy     {:<10} ({}{}{})",
            p.label,
            p.kind,
            if details.is_empty() { "" } else { "; " },
            details.join(", ")
        );
    }
    Ok(())
}

#[derive(Debug, Default, PartialEq)]
struct RunOpts {
    scenario: String,
    out: Option<PathBuf>,
    raw: Option<PathBuf>,
    threads: usize,
    quiet: bool,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts::default();
    let mut scenario = None;
    Cursor::each("run", args, |c, arg| {
        match arg {
            "--out" => o.out = Some(c.value(arg)?),
            "--raw" => o.raw = Some(c.value(arg)?),
            "--threads" => o.threads = c.value(arg)?,
            "--quiet" => o.quiet = true,
            _ => c.positional(&mut scenario, arg)?,
        }
        Ok(())
    })?;
    o.scenario = scenario.ok_or("missing scenario name or manifest path")?;
    Ok(o)
}

fn cmd_run(run_args: RunOpts) -> CmdResult {
    let m = load(&run_args.scenario)?;
    let n_runs = expand(&m)?.len();
    if !run_args.quiet {
        eprintln!("running `{}`: {} runs ...", m.name, n_runs);
    }
    let threads = run_args.threads;
    let batch = execute(&m, ExecOptions { threads })?;
    if !run_args.quiet {
        out!("{}", pas_scenario::summary_table(&batch).render());
    }
    if let Some(path) = &run_args.out {
        pas_scenario::write_summary_csv(&batch, path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        if !run_args.quiet {
            outln!("wrote {}", path.display());
        }
    }
    if let Some(path) = &run_args.raw {
        pas_scenario::write_records_jsonl(&batch, path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        if !run_args.quiet {
            outln!("wrote {}", path.display());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct ReportOpts {
    source: String,
    format: ReportFormat,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    threads: usize,
    quiet: bool,
}

fn parse_report(args: &[String]) -> Result<ReportOpts, String> {
    let mut o = ReportOpts {
        source: String::new(),
        format: ReportFormat::Markdown,
        out: None,
        compare: None,
        threads: 0,
        quiet: false,
    };
    let mut source = None;
    Cursor::each("report", args, |c, arg| {
        match arg {
            "--format" => {
                use ReportFormat as F;
                o.format = [F::Markdown, F::Json, F::Svg][c.choice(arg, &["md", "json", "svg"])?]
            }
            "--out" => o.out = Some(c.value(arg)?),
            "--compare" => o.compare = Some((c.value(arg)?, c.value(arg)?)),
            "--threads" => o.threads = c.value(arg)?,
            "--quiet" => o.quiet = true,
            _ => c.positional(&mut source, arg)?,
        }
        Ok(())
    })?;
    o.source = source.ok_or("missing source: scenario name, manifest, .jsonl, or .csv")?;
    Ok(o)
}

fn cmd_report(rep: ReportOpts) -> CmdResult {
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
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let at = |e: pas_report::IngestError| format!("{}: {e}", path.display());
        if ext.as_deref() == Some("csv") {
            // A summary CSV carries only means — there are no per-run
            // replicates to pair, so an explicit comparison request
            // must fail loudly rather than be silently dropped.
            if rep.compare.is_some() {
                return Err(format!(
                    "{}: --compare needs per-run records (a .jsonl sink); \
                     a summary CSV carries only means",
                    path.display()
                )
                .into());
            }
            let ing = pas_report::parse_summary_csv(&text).map_err(at)?;
            let name = path.file_stem().and_then(|s| s.to_str());
            pas_report::Report::from_summaries(
                name.unwrap_or("summary"),
                &ing.x_label,
                &ing.summaries,
            )?
        } else {
            let ing = pas_report::parse_records_jsonl(&text).map_err(at)?;
            pas_report::Report::from_records(&ing.scenario, &ing.x_label, &ing.records, &opts)?
        }
    } else {
        let m = load(&rep.source)?;
        if !rep.quiet {
            let runs = expand(&m).map(|p| p.len()).unwrap_or(0);
            eprintln!("reporting `{}`: {} runs ...", m.name, runs);
        }
        let threads = rep.threads;
        pas_report::Report::from_batch(&execute(&m, ExecOptions { threads })?, &opts)?
    };
    let body = match rep.format {
        ReportFormat::Json => pas_report::render_json(&report),
        ReportFormat::Svg => pas_report::render_svg(&report),
        ReportFormat::Markdown => pas_report::render_md(&report),
    };
    match &rep.out {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("writing {}: {e}", path.display()))?;
            if !rep.quiet {
                eprintln!("wrote {}", path.display());
            }
        }
        None => out!("{body}"),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

#[derive(Debug, Default, PartialEq)]
struct ServeOpts {
    addr: String,
    cache_dir: PathBuf,
    server: ServerOptions,
    sched: SchedulerOptions,
}

fn parse_serve(args: &[String]) -> Result<ServeOpts, String> {
    let mut o = ServeOpts {
        addr: DEFAULT_ADDR.to_string(),
        cache_dir: PathBuf::from(".pas-cache"),
        ..Default::default()
    };
    // The history sampler runs only with --metrics.
    let mut history_flag = None;
    Cursor::each("serve", args, |c, arg| {
        match arg {
            "--addr" => o.addr = c.value(arg)?,
            "--cache-dir" => o.cache_dir = c.value(arg)?,
            "--threads" => o.server.threads = c.value(arg)?,
            "--queue-cap" => o.server.queue_capacity = c.value(arg)?,
            "--no-local-exec" => o.server.local_exec = false,
            "--metrics" => o.server.metrics = true,
            "--history-interval-ms" => {
                o.server.history_interval = c.ms(arg)?;
                history_flag = Some(arg);
            }
            "--history-retention" => {
                o.server.history_retention = c.value(arg)?;
                history_flag = Some(arg);
            }
            "--lease-ms" => o.sched.lease = c.ms(arg)?,
            "--heartbeat-ms" => o.sched.heartbeat = c.ms(arg)?,
            "--shard-points" => o.sched.shard_points = c.value(arg)?,
            _ => return Err(c.unknown(arg)),
        }
        Ok(())
    })?;
    match history_flag {
        Some(flag) if !o.server.metrics => Err(format!("{flag} needs --metrics")),
        _ => Ok(o),
    }
}

fn cmd_serve(serve: ServeOpts) -> CmdResult {
    let cache = ResultCache::open(&serve.cache_dir)
        .map_err(|e| format!("opening cache {}: {e}", serve.cache_dir.display()))?;
    let warm = cache.len();
    let mut server = Server::bind(serve.addr.as_str(), cache.clone(), serve.server)
        .map_err(|e| format!("binding {}: {e}", serve.addr))?;
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
            if serve.server.local_exec {
                "local exec + dist"
            } else {
                "dist only"
            }
        ),
        Err(_) => eprintln!("pas-server listening on {}", serve.addr),
    }
    server.run().map_err(|e| format!("server: {e}").into())
}

// ---------------------------------------------------------------------------
// worker / status
// ---------------------------------------------------------------------------

#[derive(Debug, Default, PartialEq)]
struct WorkerOpts {
    addr: String,
    worker: WorkerOptions,
}

fn parse_worker(args: &[String]) -> Result<WorkerOpts, String> {
    let mut o = WorkerOpts {
        addr: DEFAULT_ADDR.to_string(),
        ..Default::default()
    };
    Cursor::each("worker", args, |c, arg| {
        match arg {
            "--connect" => o.addr = c.value(arg)?,
            "--threads" => o.worker.threads = c.value(arg)?,
            "--name" => o.worker.name = c.value(arg)?,
            "--poll-ms" => o.worker.poll = c.ms(arg)?,
            "--fail-after-points" => o.worker.fail_after_points = Some(c.value(arg)?),
            _ => return Err(c.unknown(arg)),
        }
        Ok(())
    })?;
    Ok(o)
}

fn cmd_worker(WorkerOpts { addr, worker }: WorkerOpts) -> CmdResult {
    eprintln!("pas-worker `{}` connecting to {addr}", worker.name);
    let summary = pas_dist::worker::run(&addr, worker).map_err(|e| format!("worker: {e}"))?;
    eprintln!(
        "pas-worker {}: {} shards, {} points{}",
        summary.worker,
        summary.shards,
        summary.points,
        if summary.died { " (died by drill)" } else { "" }
    );
    Ok(())
}

#[derive(Debug, Default, PartialEq)]
struct StatusOpts {
    addr: String,
    metrics: bool,
    raw: bool,
}

fn parse_status(args: &[String]) -> Result<StatusOpts, String> {
    let mut o = StatusOpts {
        addr: DEFAULT_ADDR.to_string(),
        ..Default::default()
    };
    Cursor::each("status", args, |c, arg| {
        match arg {
            "--addr" => o.addr = c.value(arg)?,
            "--metrics" => o.metrics = true,
            "--raw" => o.raw = true,
            _ => return Err(c.unknown(arg)),
        }
        Ok(())
    })?;
    if o.raw && !o.metrics {
        return Err("--raw needs --metrics".to_string());
    }
    Ok(o)
}

fn cmd_status(StatusOpts { addr, metrics, raw }: StatusOpts) -> CmdResult {
    let client = Client::new(addr.clone());
    let health = client.healthz().map_err(|e| format!("{addr}: {e}"))?;
    outln!("server     {addr}");
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
            outln!("{key:<15} {v}");
        }
    }
    if let Some(true) = pas_server::json::find_bool(&health, "draining") {
        outln!("draining        yes");
    }
    match client.workers_table() {
        Ok(table) if !table.trim().is_empty() => {
            outln!();
            out!("{table}");
        }
        _ => {}
    }
    if metrics {
        let text = client.metrics().map_err(|e| {
            format!("{addr}: /metrics: {e} (is the server running with --metrics?)")
        })?;
        outln!();
        if raw {
            out!("{text}");
        } else {
            // Derived rates lead the summary: the cumulative
            // counters below say how much ever happened, two
            // history samples say how fast it is happening now.
            if let Some(rates) = status_rates(&client) {
                out!("{rates}");
                outln!();
            }
            out!("{}", summarize_metrics(&text));
        }
    }
    Ok(())
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
        h_u64("workers"),
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

#[derive(Debug, PartialEq)]
struct TopOpts {
    addr: String,
    interval: Duration,
    frames: Option<u64>,
}

fn parse_top(args: &[String]) -> Result<TopOpts, String> {
    let mut o = TopOpts {
        addr: DEFAULT_ADDR.to_string(),
        interval: Duration::from_millis(1000),
        frames: None,
    };
    Cursor::each("top", args, |c, arg| {
        match arg {
            "--addr" => o.addr = c.value(arg)?,
            "--interval-ms" => o.interval = c.ms(arg)?,
            "--frames" => o.frames = Some(c.at_least(arg, 1)?),
            _ => return Err(c.unknown(arg)),
        }
        Ok(())
    })?;
    Ok(o)
}

fn cmd_top(o: TopOpts) -> CmdResult {
    let (addr, interval, frames) = (o.addr, o.interval, o.frames);
    let client = Client::new(addr.clone());
    let mut frame = 0u64;
    loop {
        let health = client.healthz().map_err(|e| format!("{addr}: {e}"))?;
        let body = client
            .metrics_history(HistoryFormat::Json)
            .map_err(|e| match e {
                // The degradation path: a server without `--metrics`
                // refuses with guidance — report it instead of an empty
                // dashboard.
                ClientError::Api(status, msg) => format!("{status} {msg}"),
                e => e.to_string(),
            })
            .map_err(|e| format!("{addr}: /metrics/history: {e}"))?;
        let dump = std::str::from_utf8(&body)
            .ok()
            .and_then(pas_obs::history::parse_dump)
            .ok_or_else(|| format!("{addr}: /metrics/history returned unparseable JSON"))?;
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
        // A dashboard nobody reads any more (`pas top | head`) is done.
        if !write_stdout(format_args!("{out}")) || frames.is_some_and(|n| frame >= n) {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct TraceOpts {
    addr: String,
    job: u64,
    format: TraceFormat,
}

fn parse_trace(args: &[String]) -> Result<TraceOpts, String> {
    let (mut addr, mut format, mut job) = (DEFAULT_ADDR.to_string(), TraceFormat::Tree, None);
    Cursor::each("trace", args, |c, arg| {
        match arg {
            "--addr" => addr = c.value(arg)?,
            "--format" => {
                use TraceFormat as F;
                let i = c.choice(arg, &["tree", "chrome", "critical-path"])?;
                format = [F::Tree, F::Chrome, F::CriticalPath][i];
            }
            _ => c.positional(&mut job, arg)?,
        }
        Ok(())
    })?;
    let job =
        job.ok_or("trace needs a job id (printed by `pas submit -v`, or in GET /jobs/:id)")?;
    let job = job
        .parse()
        .map_err(|_| format!("`{job}` is not a job id"))?;
    Ok(TraceOpts { addr, job, format })
}

fn cmd_trace(o: TraceOpts) -> CmdResult {
    let (addr, id) = (&o.addr, o.job);
    let body = Client::new(addr.clone()).trace(id, o.format).map_err(|e| {
        format!("{addr}: /jobs/{id}/trace: {e} (is the server running with --metrics?)")
    })?;
    out!("{}", String::from_utf8_lossy(&body));
    Ok(())
}

/// `pas submit -v`'s `(total, queued, execute)` µs from a job's Chrome
/// trace: the wall-clock envelope of each phase's spans, 0 when absent.
/// Execution is one `job.execute` span for a local job; for a distributed
/// one, concurrent `worker.shard.execute` spans, not to be summed.
fn latency_breakdown(chrome: &str) -> (u64, u64, u64) {
    let events = pas_obs::json::parse(chrome).and_then(|d| d.get("traceEvents"));
    let envelope = |name: &str| {
        let named = events.into_iter().flat_map(|e| e.items());
        let named =
            named.filter(|e| e.get("name").and_then(|n| n.as_str()).as_deref() == Some(name));
        let span = |e: pas_obs::json::Json| {
            let ts = e.get("ts")?.as_u64()?;
            Some((ts, ts.saturating_add(e.get("dur")?.as_u64()?)))
        };
        let (lo, hi) = named
            .filter_map(span)
            .fold((u64::MAX, 0), |(lo, hi), (start, end)| {
                (lo.min(start), hi.max(end))
            });
        hi.saturating_sub(lo)
    };
    let execute = match envelope("job.execute") {
        0 => envelope("worker.shard.execute"),
        us => us,
    };
    (envelope("job"), envelope("job.queued"), execute)
}

// ---------------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct ProfileOpts {
    source: ProfileSource,
    format: ProfileFormat,
    out: Option<PathBuf>,
}

/// Where `pas profile` takes its table from.
#[derive(Debug, PartialEq)]
enum ProfileSource {
    /// Execute a scenario in-process with the detail regions on.
    Local { scenario: String, threads: usize },
    /// Fetch `GET /profile` from a running server.
    Remote { addr: String, seconds: Option<u64> },
}

fn parse_profile(args: &[String]) -> Result<ProfileOpts, String> {
    use ProfileFormat as F;
    let (mut scenario, mut serve_url, mut seconds) = (None, None, None);
    let (mut threads, mut format, mut out) = (None, F::Folded, None);
    Cursor::each("profile", args, |c, arg| {
        match arg {
            "--serve-url" => serve_url = Some(c.value(arg)?),
            "--seconds" => seconds = Some(c.value(arg)?),
            "--format" => {
                format = [F::Folded, F::Svg, F::Json][c.choice(arg, &["folded", "svg", "json"])?]
            }
            "--threads" => threads = Some(c.value(arg)?),
            "--out" => out = Some(c.value(arg)?),
            _ => c.positional(&mut scenario, arg)?,
        }
        Ok(())
    })?;
    let source = match (serve_url, scenario) {
        (Some(_), Some(_)) => return Err("give either a scenario or --serve-url, not both".into()),
        (Some(_), None) if threads.is_some() => {
            return Err("--threads only applies to local mode".into())
        }
        (Some(addr), None) => ProfileSource::Remote { addr, seconds },
        (None, Some(_)) if seconds.is_some() => {
            return Err("--seconds only applies to --serve-url mode".into())
        }
        (None, Some(scenario)) => ProfileSource::Local {
            scenario,
            threads: threads.unwrap_or(1),
        },
        (None, None) => {
            return Err(
                "profile needs a scenario name/manifest path or --serve-url HOST:PORT".into(),
            )
        }
    };
    Ok(ProfileOpts {
        source,
        format,
        out,
    })
}

/// `pas profile`: render a region profile as folded stacks, an SVG
/// flamegraph, or JSON. Remote mode (`--serve-url`) fetches a running
/// server's `/profile`; local mode executes a scenario in-process with
/// the detail regions (the simulation loop's per-event-kind regions)
/// switched on.
fn cmd_profile(pa: ProfileOpts) -> CmdResult {
    let body: Vec<u8> = match pa.source {
        ProfileSource::Remote { addr, seconds } => Client::new(addr.clone())
            .profile(pa.format, seconds)
            .map_err(|e| {
                format!("{addr}: /profile: {e} (is the server running with --metrics?)")
            })?,
        ProfileSource::Local { scenario, threads } => {
            let m = load(&scenario)?;
            // Local mode owns the process: add the detail regions the
            // always-on coarse set leaves out, start from a zeroed table.
            pas_obs::profile::set_detail(true);
            pas_obs::profile::reset();
            let result = execute(&m, ExecOptions { threads });
            pas_obs::profile::set_detail(false);
            result?;
            match pa.format {
                ProfileFormat::Folded => pas_obs::profile::render_folded(),
                ProfileFormat::Svg => pas_obs::profile::render_svg(),
                ProfileFormat::Json => pas_obs::profile::render_json(),
            }
            .into_bytes()
        }
    };
    match &pa.out {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        None => out!("{}", String::from_utf8_lossy(&body)),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// submit
// ---------------------------------------------------------------------------

#[derive(Debug, Default, PartialEq)]
struct SubmitOpts {
    scenario: String,
    addr: String,
    out: Option<PathBuf>,
    raw: Option<PathBuf>,
    poll: Duration,
    retries: u32,
    verbose: bool,
    quiet: bool,
}

fn parse_submit(args: &[String]) -> Result<SubmitOpts, String> {
    let mut o = SubmitOpts {
        addr: DEFAULT_ADDR.to_string(),
        poll: Duration::from_millis(200),
        retries: 8,
        ..Default::default()
    };
    let mut scenario = None;
    Cursor::each("submit", args, |c, arg| {
        match arg {
            "--addr" => o.addr = c.value(arg)?,
            "--out" => o.out = Some(c.value(arg)?),
            "--raw" => o.raw = Some(c.value(arg)?),
            "--poll-ms" => o.poll = c.ms(arg)?,
            "--retries" => o.retries = c.value(arg)?,
            "-v" | "--verbose" => o.verbose = true,
            "--quiet" => o.quiet = true,
            _ => c.positional(&mut scenario, arg)?,
        }
        Ok(())
    })?;
    o.scenario = scenario.ok_or("missing scenario name or manifest path")?;
    Ok(o)
}

fn cmd_submit(sub: SubmitOpts) -> CmdResult {
    let m = load(&sub.scenario)?;
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
    let id = client.submit_with_retry(&m.to_toml(), policy, |attempt, err| {
        let cause = pas_server::retry_cause(err);
        match retry_tally.iter_mut().find(|(c, _)| *c == cause) {
            Some((_, n)) => *n += 1,
            None => retry_tally.push((cause, 1)),
        }
        if !quiet {
            eprintln!("submit retry {attempt}/{}: {err}", policy.attempts - 1);
        }
    })?;
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
    let status = if sub.verbose && !sub.quiet {
        // Live rate readout: difference consecutive status polls, the
        // same derivation the server's SSE `progress` frames use.
        let mut mark: Option<(std::time::Instant, u64)> = None;
        let mut printed = false;
        let result = client.wait_with(id, sub.poll, |s| {
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
        client.wait(id, sub.poll)
    }?;
    if status.phase != "completed" {
        return Err(format!(
            "job {id} {}: {}",
            status.phase,
            status.error.unwrap_or_else(|| "unknown error".to_string())
        )
        .into());
    }
    if !sub.quiet {
        eprintln!(
            "job {id} completed: {} runs, {} from cache, {} simulated",
            status.total, status.cache_hits, status.cache_misses
        );
    }
    let t_download = std::time::Instant::now();
    let csv = client.results(id, ResultFormat::Csv)?;
    let download_us = t_download.elapsed().as_micros() as u64;
    if sub.verbose && !sub.quiet {
        // Latency breakdown from the job's trace: where did the
        // submit→complete wall time actually go? Server-side phases come
        // from the span tree; the download leg is measured client-side.
        match client.trace(id, TraceFormat::Chrome) {
            Ok(body) => {
                let (total, queued, execute) = latency_breakdown(&String::from_utf8_lossy(&body));
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
            std::fs::write(path, &csv).map_err(|e| format!("writing {}: {e}", path.display()))?;
            if !sub.quiet {
                outln!("wrote {}", path.display());
            }
        }
        None => out!("{}", String::from_utf8_lossy(&csv)),
    }
    if let Some(path) = &sub.raw {
        let jsonl = client.results(id, ResultFormat::Jsonl)?;
        std::fs::write(path, &jsonl).map_err(|e| format!("writing {}: {e}", path.display()))?;
        if !sub.quiet {
            outln!("wrote {}", path.display());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// bench
// ---------------------------------------------------------------------------

/// `pas bench`: one mode, its output file resolved to the mode's
/// default history when `--out` is absent.
#[derive(Debug, PartialEq)]
enum BenchOpts {
    Batch {
        out: PathBuf,
    },
    Predictors {
        out: PathBuf,
    },
    Server {
        addr: Option<String>,
        max_clients: usize,
        step: Duration,
        out: PathBuf,
    },
    Gate {
        max_drop_pct: f64,
        files: Vec<PathBuf>,
    },
}

/// One mode flag at most; every other argument but `--out` belongs to
/// one mode and is refused under any other.
fn parse_bench(args: &[String]) -> Result<BenchOpts, String> {
    let (mut mode, mut given) = (None, Vec::new());
    let (mut out, mut addr) = (None, None);
    let (mut max_clients, mut step) = (32, Duration::from_millis(1500));
    let (mut max_drop_pct, mut files) = (pas_bench::DEFAULT_MAX_DROP_PCT, Vec::new());
    Cursor::each("bench", args, |c, arg| {
        match arg {
            "--predictors" | "--server" | "--gate" => {
                if let Some(first) = mode.replace(arg) {
                    return Err(format!("{first} and {arg} are two bench modes; give one"));
                }
            }
            "--out" => out = Some(c.value(arg)?),
            "--addr" => addr = Some(c.value(arg)?),
            "--max-clients" => max_clients = c.at_least(arg, 1)?,
            "--step-ms" => step = c.ms(arg)?,
            "--max-drop" => max_drop_pct = c.at_least(arg, 0.0)?,
            _ if arg.starts_with('-') => return Err(c.unknown(arg)),
            _ => files.push(PathBuf::from(arg)),
        }
        given.push(arg);
        Ok(())
    })?;
    if step < Duration::from_millis(100) {
        return Err("--step-ms must be at least 100".to_string());
    }
    // Each argument given is checked against the mode once it is known.
    let mode = mode.unwrap_or("batch");
    for arg in given {
        let owner = match arg {
            "--addr" | "--max-clients" | "--step-ms" => "--server",
            "--out" if mode == "--gate" => "batch/predictors/server",
            "--out" | "--predictors" | "--server" | "--gate" => continue,
            _ => "--gate", // --max-drop and the history files
        };
        if owner != mode {
            let name = |m: &str| m.trim_start_matches('-').to_string();
            let (owner, mode) = (name(owner), name(mode));
            return Err(format!(
                "{arg} belongs to the {owner} bench, not the {mode} bench"
            ));
        }
    }
    let out = |default: &str| out.unwrap_or_else(|| PathBuf::from(default));
    Ok(match mode {
        "--gate" => BenchOpts::Gate {
            max_drop_pct,
            files,
        },
        "--predictors" => BenchOpts::Predictors {
            out: out("BENCH_predictors.json"),
        },
        "--server" => BenchOpts::Server {
            addr,
            max_clients,
            step,
            out: out("BENCH_server.json"),
        },
        _ => BenchOpts::Batch {
            out: out("BENCH_batch.json"),
        },
    })
}

/// Run one bench and print its payload, or gate the histories.
fn cmd_bench(opts: BenchOpts) -> CmdResult {
    let payload = match opts {
        BenchOpts::Batch { out } => pas_bench::run_batch(&out)?,
        BenchOpts::Predictors { out } => pas_bench::run_predictors(&out)?,
        BenchOpts::Server {
            addr,
            max_clients,
            step,
            out,
        } => pas_bench::run_server(addr, max_clients, step, &out)?,
        BenchOpts::Gate {
            max_drop_pct,
            files,
        } => return pas_bench::run_gate(max_drop_pct, &files, |line| outln!("{line}")),
    };
    out!("{payload}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).map_err(Into::into).and_then(|cmd| match cmd {
        Command::Help => {
            out!("{}", usage());
            Ok(())
        }
        Command::List => cmd_list(),
        Command::Show(name) => cmd_show(&name),
        Command::Validate(path) => cmd_validate(&path),
        Command::Expand(arg) => cmd_expand(&arg),
        Command::Run(o) => cmd_run(o),
        Command::Report(o) => cmd_report(o),
        Command::Serve(o) => cmd_serve(o),
        Command::Worker(o) => cmd_worker(o),
        Command::Submit(o) => cmd_submit(o),
        Command::Status(o) => cmd_status(o),
        Command::Top(o) => cmd_top(o),
        Command::Trace(o) => cmd_trace(o),
        Command::Profile(o) => cmd_profile(o),
        Command::Bench(o) => cmd_bench(o),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
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
    fn latency_breakdown_reads_local_and_dist_traces() {
        // `(name, proc, start_us, dur_us)` spans, all children of the first.
        let chrome = |spans: &[(&str, &str, u64, u64)]| {
            let mut records = Vec::new();
            for (id, &(name, proc, start_us, dur_us)) in (1..).zip(spans) {
                records.push(pas_obs::trace::SpanRecord {
                    trace: 7,
                    span: id,
                    parent: u64::from(id > 1),
                    name: name.to_string(),
                    // A label named like an event field is not read as one.
                    labels: vec![("name".to_string(), "job".to_string())],
                    proc: proc.to_string(),
                    start_us,
                    dur_us,
                });
            }
            latency_breakdown(&pas_obs::trace::render_chrome(&records, 0))
        };
        let local = [
            ("job", "server", 1_000, 5_000),
            ("job.queued", "server", 1_000, 300),
            ("job.execute", "server", 1_300, 4_000),
            ("exec.point", "server", 1_400, 90),
        ];
        assert_eq!(chrome(&local), (5_000, 300, 4_000));
        // Overlapping shards on two workers: execute is their envelope,
        // 2000 → 4000 µs, not the 2600 µs sum.
        let dist = [
            ("job", "server", 1_000, 3_500),
            ("job.queued", "server", 1_000, 200),
            ("worker.shard.execute", "worker:w1", 2_000, 1_000),
            ("worker.shard.execute", "worker:w2", 2_500, 1_500),
            ("worker.shard.execute", "worker:w1", 3_100, 100),
        ];
        assert_eq!(chrome(&dist), (3_500, 200, 2_000));
        assert_eq!(latency_breakdown("not json"), (0, 0, 0));
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

    fn parse_line(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    /// `(subcommand, flags, metavar count)` for every option line of the
    /// `<CMD> OPTIONS:` sections of `usage()`.
    fn documented_options() -> Vec<(String, Vec<String>, usize)> {
        let mut cmd = String::new();
        let mut options = Vec::new();
        for line in usage().lines() {
            if let Some(section) = line.strip_suffix(" OPTIONS:") {
                cmd = section.to_lowercase();
            } else if !cmd.is_empty() && line.starts_with("    -") {
                // `--flag METAVAR` ends at the first double space; an
                // optional `[FILES...]` takes no sample value.
                let head = line.trim_start().split("  ").next().unwrap_or("");
                let words: Vec<&str> = head
                    .split_whitespace()
                    .filter(|w| !w.starts_with('['))
                    .collect();
                let flags: Vec<String> = words
                    .iter()
                    .filter(|w| w.starts_with('-'))
                    .map(|w| w.trim_end_matches(',').to_string())
                    .collect();
                let metavars = words.len() - flags.len();
                options.push((cmd.clone(), flags, metavars));
            }
        }
        options
    }

    #[test]
    fn help_and_parser_agree() {
        let options = documented_options();
        let commands: Vec<&str> = usage()
            .lines()
            .filter_map(|l| l.strip_prefix("    pas ")?.split_whitespace().next())
            .collect();
        assert_eq!(commands.len(), 14, "{commands:?}");
        let mut sections: Vec<&str> = options.iter().map(|(cmd, ..)| cmd.as_str()).collect();
        sections.dedup();
        assert_eq!(sections.len(), 10, "{sections:?}");
        // A sample value "1" stands in for every metavar.
        let rejects = |cmd: &str, flag: &str, metavars: usize| {
            let line = format!("{cmd} {flag}{}", " 1".repeat(metavars));
            parse_line(&line).is_err_and(|e| e.contains(&format!("does not take `{flag}`")))
        };
        for (cmd, flags, metavars) in &options {
            for flag in flags {
                assert!(
                    !rejects(cmd, flag, *metavars),
                    "`pas {cmd}` rejects its documented {flag}"
                );
            }
        }
        for cmd in &commands {
            for (owner, flags, metavars) in &options {
                for flag in flags {
                    let own = options.iter().any(|(c, f, _)| c == cmd && f.contains(flag));
                    assert!(
                        own || rejects(cmd, flag, *metavars),
                        "`pas {cmd}` takes {flag}, documented only for `pas {owner}`"
                    );
                }
            }
        }
    }

    /// Arguments a subcommand would read in another mode, or not at all,
    /// are refused (tests/cli.rs runs the binary on more).
    #[test]
    fn nothing_is_ignored() {
        for (line, offender) in [
            ("run a b", "b"),
            ("trace 1 2", "2"),
            ("bench --gate --out x", "--out"),
            ("bench x.json", "x.json"),
            ("status --raw", "--raw"),
            ("serve --history-interval-ms 200", "--history-interval-ms"),
            ("profile paper-default --hz 99", "--hz"),
            ("profile --serve-url h:1 --threads 2", "--threads"),
            ("profile paper-default --seconds 5", "--seconds"),
            ("profile --addr h:1", "--addr"),
        ] {
            match parse_line(line) {
                Err(e) => assert!(e.contains(offender), "`pas {line}`: {e}"),
                Ok(cmd) => panic!("`pas {line}` parsed as {cmd:?}"),
            }
        }
    }

    /// Each `*-ms` flag refuses 0, which would make its loop spin.
    #[test]
    fn zero_intervals_are_refused() {
        for (line, flag) in [
            ("serve --lease-ms 0", "--lease-ms"),
            ("serve --heartbeat-ms 0", "--heartbeat-ms"),
            (
                "serve --metrics --history-interval-ms 0",
                "--history-interval-ms",
            ),
            ("worker --poll-ms 0", "--poll-ms"),
            ("submit paper-default --poll-ms 0", "--poll-ms"),
            ("top --interval-ms 0", "--interval-ms"),
            ("bench --server --step-ms 0", "--step-ms"),
            ("bench --server --step-ms 99", "--step-ms"),
        ] {
            let err = parse_line(line).expect_err(line);
            assert!(
                err.starts_with(&format!("{flag} must be at least")),
                "{err}"
            );
        }
        let Ok(Command::Bench(BenchOpts::Server { step, .. })) =
            parse_line("bench --server --step-ms 100")
        else {
            panic!("--step-ms 100 is accepted");
        };
        assert_eq!(step, Duration::from_millis(100));
    }

    /// Every `pas …` command line in the CI workflow: continuation lines
    /// joined, cut at the first redirection, pipe or `;`, quotes dropped.
    fn ci_invocations() -> Vec<String> {
        let ci = include_str!("../.github/workflows/ci.yml").replace("\\\n", " ");
        let mut found: Vec<String> = Vec::new();
        for line in ci.lines() {
            let Some((_, rest)) = line.split_once("./target/release/pas ") else {
                continue;
            };
            let mut words = Vec::new();
            for word in rest.split_whitespace() {
                if word.starts_with(['>', '|', '&', ';']) || word.starts_with("2>") {
                    break;
                }
                words.push(word.trim_end_matches(';').trim_matches('"'));
                if word.ends_with(';') {
                    break;
                }
            }
            let line = words.join(" ");
            if !found.contains(&line) {
                found.push(line);
            }
        }
        found
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn at(port: u16) -> String {
        format!("127.0.0.1:{port}")
    }

    fn tmp(file: &str) -> Option<PathBuf> {
        Some(PathBuf::from(format!("/tmp/{file}")))
    }

    fn run(scenario: &str, quiet: bool, out: Option<PathBuf>, raw: Option<PathBuf>) -> Command {
        let scenario = scenario.to_string();
        Command::Run(RunOpts {
            scenario,
            out,
            raw,
            threads: 0,
            quiet,
        })
    }

    fn serve(port: u16, cache: &str, tune: impl FnOnce(&mut ServeOpts)) -> Command {
        let mut o = ServeOpts {
            addr: at(port),
            cache_dir: PathBuf::from(format!("/tmp/pas-ci-{cache}")),
            ..Default::default()
        };
        tune(&mut o);
        Command::Serve(o)
    }

    fn worker(port: u16, name: &str, poll: u64) -> Command {
        let name = name.to_string();
        let worker = WorkerOptions {
            name,
            poll: ms(poll),
            ..WorkerOptions::default()
        };
        let addr = at(port);
        Command::Worker(WorkerOpts { addr, worker })
    }

    fn submit(port: u16, out: &str, verbose: bool) -> Command {
        Command::Submit(SubmitOpts {
            scenario: "paper-default".into(),
            addr: at(port),
            out: tmp(out),
            poll: ms(200),
            retries: 8,
            verbose,
            ..Default::default()
        })
    }

    fn status(port: u16, metrics: bool) -> Command {
        let (addr, raw) = (at(port), false);
        Command::Status(StatusOpts { addr, metrics, raw })
    }

    fn report(source: &str, format: ReportFormat, out: &str) -> Command {
        Command::Report(ReportOpts {
            source: source.into(),
            format,
            out: tmp(out),
            compare: None,
            threads: 0,
            quiet: true,
        })
    }

    fn trace(format: TraceFormat) -> Command {
        let (addr, job) = (at(8482), 1);
        Command::Trace(TraceOpts { addr, job, format })
    }

    fn profile(source: ProfileSource, out: &str) -> Command {
        let (format, out) = (ProfileFormat::Folded, tmp(out));
        Command::Profile(ProfileOpts {
            source,
            format,
            out,
        })
    }

    fn gate(max_drop_pct: f64, files: &[&str]) -> Command {
        let files = files.iter().filter_map(|f| tmp(f)).collect();
        Command::Bench(BenchOpts::Gate {
            max_drop_pct,
            files,
        })
    }

    fn top(port: u16, interval: u64, frames: u64) -> Command {
        let (addr, interval, frames) = (at(port), ms(interval), Some(frames));
        Command::Top(TopOpts {
            addr,
            interval,
            frames,
        })
    }

    /// What each `pas` command line of the CI workflow parses to, in the
    /// workflow's order; `Err(arg)` is a deliberate failure naming `arg`.
    #[test]
    fn ci_invocations_parse_to_their_options() {
        use ReportFormat::{Json, Markdown, Svg};
        let (no_local, metrics) = (
            |o: &mut ServeOpts| o.server.local_exec = false,
            |o: &mut ServeOpts| o.server.metrics = true,
        );
        let dist = |o: &mut ServeOpts| {
            no_local(o);
            o.sched.heartbeat = ms(500);
        };
        let traced = |o: &mut ServeOpts| {
            dist(o);
            metrics(o);
        };
        let out = |file: &str| tmp(file).unwrap();
        let want: Vec<Result<Command, &str>> = vec![
            Ok(Command::List),
            Ok(Command::Show("paper-default".into())),
            Err("--bogus"),
            Err("--max-clients"),
            Ok(run("ablate-estimator", false, None, None)),
            Ok(run(
                "$s",
                true,
                tmp("golden-$s.csv"),
                tmp("golden-records/$s.jsonl"),
            )),
            Ok(run(
                "predictor-shootout",
                true,
                None,
                tmp("golden-records/predictor-shootout.jsonl"),
            )),
            Ok(Command::Expand("predictor-shootout".into())),
            Ok(run(
                "predictor-shootout",
                true,
                tmp("shootout.csv"),
                tmp("shootout.jsonl"),
            )),
            Ok(run("paper-default", true, tmp("direct.csv"), None)),
            Ok(serve(8479, "cache", |_| {})),
            Ok(submit(8479, "cold.csv", false)),
            Ok(submit(8479, "warm.csv", false)),
            Ok(report("paper-default", Markdown, "cli-report.md")),
            Ok(run("paper-default", true, tmp("dist-direct.csv"), None)),
            Ok(serve(8480, "dist-cache", dist)),
            Ok(worker(8480, "ci-w1", 200)),
            Ok(worker(8480, "ci-w2", 200)),
            Ok(submit(8480, "dist-cold.csv", false)),
            Ok(submit(8480, "dist-warm.csv", false)),
            Ok(status(8480, false)),
            Ok(run("paper-default", true, tmp("obs-direct.csv"), None)),
            Ok(serve(8481, "obs-cache", metrics)),
            Ok(submit(8481, "obs-cold.csv", true)),
            Ok(status(8481, true)),
            Ok(run("paper-default", true, tmp("trace-direct.csv"), None)),
            Ok(serve(8482, "trace-cache", traced)),
            Ok(worker(8482, "tr-w1", 20)),
            Ok(worker(8482, "tr-w2", 20)),
            Ok(submit(8482, "trace-cold.csv", true)),
            Ok(trace(TraceFormat::Chrome)),
            Ok(trace(TraceFormat::Tree)),
            Ok(trace(TraceFormat::CriticalPath)),
            Ok(run("paper-default", true, tmp("prof-direct.csv"), None)),
            Ok(serve(8483, "prof-cache", traced)),
            Ok(worker(8483, "pr-w1", 20)),
            Ok(worker(8483, "pr-w2", 20)),
            Ok(submit(8483, "prof-cold.csv", false)),
            Ok(profile(
                ProfileSource::Remote {
                    addr: at(8483),
                    seconds: None,
                },
                "prof.folded",
            )),
            Ok(status(8483, true)),
            Ok(report("paper-default", Markdown, "report.md")),
            Ok(report("paper-default", Json, "report.json")),
            Ok(report("paper-default", Svg, "report.svg")),
            Ok(run("paper-default", true, None, tmp("paper-default.jsonl"))),
            Ok(report(
                "/tmp/paper-default.jsonl",
                Markdown,
                "report-from-jsonl.md",
            )),
            Ok(Command::Bench(BenchOpts::Batch {
                out: out("BENCH_batch.json"),
            })),
            Ok(Command::Bench(BenchOpts::Predictors {
                out: out("BENCH_predictors.json"),
            })),
            Ok(gate(35.0, &["BENCH_predictors.json"])),
            Ok(serve(8484, "hist-cache", |o| {
                metrics(o);
                o.server.history_interval = ms(200);
            })),
            Ok(Command::Bench(BenchOpts::Server {
                addr: Some(at(8484)),
                max_clients: 4,
                step: ms(300),
                out: out("BENCH_server.json"),
            })),
            Ok(gate(60.0, &["BENCH_server.json"])),
            Ok(top(8484, 200, 3)),
            Ok(status(8484, true)),
            Ok(serve(8485, "nohist-cache", |_| {})),
            Ok(top(8485, 1000, 1)),
            Ok(gate(15.0, &["BENCH_batch.json"])),
            Ok(profile(
                ProfileSource::Local {
                    scenario: "paper-default".into(),
                    threads: 1,
                },
                "ci-profile.folded",
            )),
            Ok(Command::Profile(ProfileOpts {
                source: ProfileSource::Local {
                    scenario: "paper-default".into(),
                    threads: 1,
                },
                format: ProfileFormat::Json,
                out: None,
            })),
        ];
        let ci = ci_invocations();
        assert_eq!(ci.len(), want.len(), "{ci:#?}");
        for (line, want) in ci.iter().zip(want) {
            match (parse_line(line), want) {
                (Err(e), Err(offender)) => assert!(e.contains(offender), "`pas {line}`: {e}"),
                (got, want) => assert_eq!(got, want.map_err(String::from), "`pas {line}`"),
            }
        }
    }
}
