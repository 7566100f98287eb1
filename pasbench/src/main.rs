//! `pasbench`: the service benchmark for Fig. 4 grids.
//!
//! ```text
//! cargo run --release --manifest-path pasbench/Cargo.toml -- \
//!     --workload cold-grid|warm-grid|dist-grid --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over an untraced window;
//! `--trace 1` runs a short untraced window and then the traced replay
//! (see `traced.rs`) and reports the per-layer metrics. Human-readable
//! lines come first; the last line of stdout is one JSON object. The
//! exit code is non-zero when any output check fails. See WORKLOADS.md
//! for what each workload loads and why.

mod jobs;
mod machine;
mod service;
mod traced;
mod window;

use jobs::{Jobs, Workload};
use service::{Backend, Service};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use traced::Tracer;

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
const END_TO_END: [(&str, &str); 7] = [
    ("runs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("cpu_us_per_run", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`.
const PER_LAYER: [(&str, &str); 31] = [
    ("pas-server.http.noop_rtt_us", "us"),
    ("pas-server.client.submit_rtt_us", "us"),
    ("pas-server.client.results_rtt_us", "us"),
    ("pas-server.queue.wait_us", "us"),
    ("pas-server.queue.service_us", "us"),
    ("pas-server.cache.key_us", "us"),
    ("pas-server.cache.load_hit_us", "us"),
    ("pas-server.cache.load_miss_us", "us"),
    ("pas-server.cache.store_us", "us"),
    ("pas-server.cache.entry_bytes", "bytes"),
    ("pas-server.cache.hit_ratio", "ratio"),
    ("pas-scenario.manifest.parse_us", "us"),
    ("pas-scenario.exec.expand_us", "us"),
    ("pas-scenario.exec.execute_point_us", "us"),
    ("pas-core.runner.events_per_run", "count"),
    ("pas-core.runner.ns_per_event", "ns"),
    ("pas-scenario.exec.reduce_us", "us"),
    ("pas-scenario.sink.summary_csv_us", "us"),
    ("pas-sweep.pool.busy_share", "ratio"),
    ("pas-dist.lease_rtt_us", "us"),
    ("pas-dist.claim_lease_rtt_us", "us"),
    ("pas-dist.report_rtt_us", "us"),
    ("pas-dist.protocol.encode_report_us", "us"),
    ("pas-dist.protocol.decode_report_us", "us"),
    ("pas-dist.protocol.report_bytes", "bytes"),
    ("pas-dist.protocol.grant_bytes", "bytes"),
    ("pas-dist.shards_per_job", "count"),
    ("pas-dist.idle_leases_per_job", "count"),
    ("pas-dist.accepted_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
];

/// Full set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Cold jobs re-run directly after the window and byte-compared.
const SAMPLE_CHECKS: usize = 3;

/// `Client::healthz` round trips in the HTTP probe.
const NOOP_PROBES: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// A finished run: lines for people, then the JSON result.
struct Report {
    lines: Vec<String>,
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pasbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    let root = work.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = std::fs::create_dir_all(&root)
        .map_err(|e| format!("{}: {e}", root.display()))
        .and_then(|()| {
            if args.trace {
                traced_run(&args, &root, &work)
            } else {
                untraced_run(&args, &root)
            }
        });
    let _ = std::fs::remove_dir_all(&root);
    match outcome {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for f in &report.failures {
                eprintln!("pasbench: check failed: {f}");
            }
            println!("{}", report.json());
            if report.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pasbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The backend the untraced (end-to-end) path uses.
fn e2e_backend(w: Workload) -> Backend {
    match w {
        Workload::Dist => Backend::Fleet,
        _ => Backend::Local,
    }
}

fn header(args: &Args, root: &Path) -> Vec<String> {
    vec![
        format!(
            "# pasbench workload={} seed={} seconds={} trace={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!("# machine {}", machine::stamp(root)),
    ]
}

/// Nearest-rank percentile of ascending `sorted`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn untraced_run(args: &Args, root: &Path) -> Result<Report, String> {
    let w = args.workload;
    let jobs = Jobs::new(w, args.seed);
    let mut lines = header(args, root);
    let reference_before = machine::reference_ms();

    // Set up from scratch several times (fresh cache directory, server,
    // fleet, pool and warm-ups each time); the last one is measured.
    let mut setup_s = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let svc = Service::start(&root.join(format!("setup-{k}")), e2e_backend(w))?;
        if !w.warm() {
            // The cold workloads run with a cache that cannot keep an
            // entry; see WORKLOADS.md ("Cache writes") for why and where
            // cache writes are measured instead. Every probe misses, every
            // store fails on the missing directory, and each job still
            // computes every point.
            std::fs::remove_dir(svc.cache.dir())
                .map_err(|e| format!("{}: {e}", svc.cache.dir().display()))?;
        }
        let primed = service::prime(&svc, w, &jobs)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            svc.stop()?;
        } else {
            live = Some((svc, primed));
        }
    }
    let (svc, primed) = live.expect("at least one set-up");

    let before = machine::usage();
    let win = window::measure(
        &svc,
        w,
        &jobs,
        &primed,
        Duration::from_secs(args.seconds),
        window::MIN_JOBS,
        None,
    );
    let after = machine::usage();
    let mut failures = win.failures.clone();
    failures.extend(window::sample_check(w, args.seed, &win.done, SAMPLE_CHECKS));
    svc.stop()?;
    let reference_after = machine::reference_ms();

    let n = win.done.len();
    if (n as u64) < window::MIN_JOBS {
        return Err(format!(
            "only {n} jobs finished; p90 needs {}",
            window::MIN_JOBS
        ));
    }
    let mut latency_ms: Vec<f64> = win
        .done
        .iter()
        .map(|d| (d.out.end - d.out.start).as_secs_f64() * 1e3)
        .collect();
    latency_ms.sort_by(f64::total_cmp);
    let points = n as f64 * service::POINTS as f64;
    let user_us = (after.user - before.user).as_secs_f64() * 1e6;
    let sys_us = (after.sys - before.sys).as_secs_f64() * 1e6;
    let cpu_us = user_us + sys_us;
    let values = [
        (
            win.runs_per_s(),
            format!("n={} points in {:.3} s", points, win.wall().as_secs_f64()),
        ),
        (percentile(&latency_ms, 0.5), format!("n={n} jobs")),
        (
            percentile(&latency_ms, 0.9),
            format!(
                "n={n} jobs, {} beyond",
                n - (0.9 * n as f64).ceil() as usize
            ),
        ),
        (
            cpu_us / points,
            format!(
                "n={points} points; user {:.1} + sys {:.1}",
                user_us / points,
                sys_us / points
            ),
        ),
        (
            median(setup_s.clone()),
            format!("n={SETUPS} set-ups: {setup_s:.3?}"),
        ),
        (after.max_rss_kib as f64 / 1024.0, "n=1".to_string()),
        (
            win.attempted.saturating_sub(failures.len() as u64) as f64 / win.attempted as f64,
            format!("n={} jobs, {} failed", win.attempted, failures.len()),
        ),
    ];
    lines.push(format!(
        "# drift reference_ms before={reference_before:.3} after={reference_after:.3} \
         (sequential paper-default, median of 3; not folded into the metrics)"
    ));
    let mut metrics = Vec::new();
    for ((name, unit), (v, samples)) in END_TO_END.iter().zip(values) {
        lines.push(format!("metric {name} = {v:.6} {unit} ({samples})"));
        metrics.push((*name, *unit, v));
    }
    Ok(Report {
        lines,
        attempted: win.attempted,
        failures,
        metrics,
    })
}

/// Registry readings the dist replay uses for work done inside the
/// scheduler, which the harness cannot wrap: `(lookups, lookup µs,
/// stores, bytes written)`.
fn registry() -> (u64, f64, u64, u64) {
    let g = pas_obs::global();
    let h = g.histogram("pas.cache.lookup.microseconds", &[], pas_obs::US_BUCKETS);
    (
        h.count(),
        h.sum(),
        g.counter("pas.cache.store.count", &[]).get(),
        g.counter("pas.cache.write.bytes", &[]).get(),
    )
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn traced_run(args: &Args, root: &Path, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    let jobs = Jobs::new(w, args.seed);
    let mut lines = header(args, root);
    let half = Duration::from_millis(args.seconds * 500);

    // The untraced half: the same path the end-to-end run measures.
    let svc = Service::start(&root.join("untraced"), e2e_backend(w))?;
    let primed = service::prime(&svc, w, &jobs)?;
    let plain = window::measure(&svc, w, &jobs, &primed, half, 1, None);
    svc.stop()?;
    let mut failures = plain.failures.clone();

    // The traced half: the harness executes.
    let dist = w == Workload::Dist;
    let backend = if dist {
        Backend::Scheduler
    } else {
        Backend::External
    };
    let svc = Service::start(&root.join("traced"), backend)?;
    let tracer = Tracer::new();
    let stop = AtomicBool::new(false);
    let (traced, noop_us, reg) = std::thread::scope(|scope| -> Result<_, String> {
        let workers: Vec<_> = if dist {
            (0..machine::nproc())
                .map(|i| {
                    let (addr, tracer) = (svc.addr.clone(), &tracer);
                    scope.spawn(move || traced::dist_worker(&addr, &format!("trace-{i}"), tracer))
                })
                .collect()
        } else {
            let (queue, cache, tracer, stop) = (&svc.queue, &svc.cache, &tracer, &stop);
            vec![scope.spawn(move || {
                traced::local_backend(queue, cache, tracer, stop);
                Ok(())
            })]
        };
        let measured = (|| {
            if dist {
                svc.await_workers(machine::nproc())?;
            }
            let primed = service::prime(&svc, w, &jobs)?;
            tracer.reset();
            let reg0 = registry();
            let win = window::measure(&svc, w, &jobs, &primed, half, 1, Some(&tracer));
            let reg1 = registry();
            let client = pas_server::Client::new(svc.addr.clone());
            let mut noop: Vec<f64> = Vec::with_capacity(NOOP_PROBES);
            for _ in 0..NOOP_PROBES {
                let t0 = Instant::now();
                client.healthz().map_err(|e| format!("healthz: {e}"))?;
                noop.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            let reg = (
                reg1.0 - reg0.0,
                reg1.1 - reg0.1,
                reg1.2 - reg0.2,
                reg1.3 - reg0.3,
            );
            Ok((win, median(noop), reg))
        })();
        // Stop the harness backend on every path, or the scope would
        // wait for it forever.
        stop.store(true, Ordering::Relaxed);
        svc.drain();
        for h in workers {
            h.join().map_err(|_| "backend panicked".to_string())??;
        }
        measured
    })?;
    svc.stop()?;
    failures.extend(traced.failures.iter().cloned());
    failures.extend(window::sample_check(w, args.seed, &traced.done, 1));

    let spans_path: PathBuf = work.join(format!("spans-{}.tsv", w.name()));
    let by_name = tracer
        .write(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    lines.push(format!("# spans written to {}", spans_path.display()));
    for (name, (n, total, own)) in &by_name {
        lines.push(format!(
            "# span {name:<24} n={n:<7} total_ms={:<12.3} self_ms={:.3}",
            total / 1e3,
            own / 1e3
        ));
    }

    let t = &tracer;
    let jobs_n = t.count("submit_rtt") as f64;
    let (lookups, lookup_us, stores, written) = reg;
    let (load_miss, entry_bytes, store) = if dist {
        (
            ratio(lookup_us, lookups as f64),
            ratio(written as f64, stores as f64),
            0.0,
        )
    } else {
        (t.mean("load_miss"), t.mean("entry_bytes"), t.mean("store"))
    };
    let expand = if dist {
        ratio(t.sum("expand_indices"), jobs_n)
    } else {
        t.mean("expand")
    };
    let (plain_rps, traced_rps) = (plain.runs_per_s(), traced.runs_per_s());
    let values = [
        noop_us,
        t.mean("submit_rtt"),
        t.mean("results_rtt"),
        t.mean("queue_wait"),
        t.mean("queue_service"),
        t.mean("key"),
        t.mean("load_hit"),
        load_miss,
        store,
        entry_bytes,
        ratio(t.sum("hits"), t.sum("hits") + t.sum("misses")),
        t.mean("parse"),
        expand,
        t.mean("execute_point"),
        t.mean("events"),
        ratio(t.sum("execute_point") * 1e3, t.sum("events")),
        t.mean("reduce"),
        t.mean("summary_csv"),
        t.mean("busy_share"),
        t.mean("lease_rtt"),
        t.mean("claim_lease_rtt"),
        t.mean("report_rtt"),
        t.mean("encode_report"),
        t.mean("decode_report"),
        t.mean("report_bytes"),
        t.mean("grant_bytes"),
        ratio(t.count("shards") as f64, jobs_n),
        ratio(t.count("idle_leases") as f64, jobs_n),
        ratio(t.sum("accepted"), t.sum("accepted") + t.sum("duplicates")),
        ratio(plain_rps - traced_rps, plain_rps) * 100.0,
        t.mean("coverage"),
    ];
    lines.push(format!(
        "# untraced runs_per_s={plain_rps:.3} ({} jobs), traced runs_per_s={traced_rps:.3} ({} jobs)",
        plain.done.len(),
        traced.done.len()
    ));
    let mut metrics = Vec::new();
    for ((name, unit), v) in PER_LAYER.iter().zip(values) {
        lines.push(format!("metric {name} = {v:.6} {unit} (n={jobs_n} jobs)"));
        metrics.push((*name, *unit, v));
    }
    Ok(Report {
        lines,
        attempted: plain.attempted + traced.attempted,
        failures,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one `BENCHMARK.json` section, in order.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let quoted = |s: &str, field: &str| -> Option<(String, usize)> {
            let at = s.find(&format!("\"{field}\""))?;
            let rest = &s[at + field.len() + 2..];
            let open = rest.find('"')? + 1;
            let close = open + rest[open..].find('"')?;
            Some((rest[open..close].to_string(), at + field.len() + 2 + close))
        };
        let mut out = Vec::new();
        let mut s = body;
        while let Some((name, end)) = quoted(s, "name") {
            s = &s[end..];
            let (unit, end) = quoted(s, "unit").expect("every metric has a unit");
            s = &s[end..];
            out.push((name, unit));
        }
        out
    }

    #[test]
    fn printed_names_and_units_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section(json, "end_to_end"), own(&END_TO_END));
        assert_eq!(section(json, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = json
            .match_indices("\"name\": \"")
            .map(|(i, m)| {
                let rest = &json[i + m.len()..];
                &rest[..rest.find('"').unwrap()]
            })
            .filter(|n| Workload::parse(n).is_some())
            .collect();
        // `warm-grid` runs by hand but is not driven (see WORKLOADS.md).
        assert_eq!(workloads, ["cold-grid", "dist-grid"]);
    }

    #[test]
    fn p90_has_ten_samples_beyond_it() {
        let n = window::MIN_JOBS as usize;
        let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let p90 = percentile(&sorted, 0.9);
        assert!(sorted.iter().filter(|&&v| v > p90).count() >= 10);
        assert_eq!(percentile(&sorted, 0.5), 49.0);
        // One job fewer and the rule no longer holds.
        let short = &sorted[..n - 1];
        assert!(
            short
                .iter()
                .filter(|&&v| v > percentile(short, 0.9))
                .count()
                < 10
        );
    }
}
