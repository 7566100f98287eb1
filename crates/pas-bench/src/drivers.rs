//! The `pas bench` drivers. [`run_batch`], [`run_predictors`] and
//! [`run_server`] each time one thing, render its payload and append it
//! to its `BENCH_*.json` history; [`run_gate`] reads the histories back.

use crate::history::{append, civil_date, gate, BenchHistory};
use pas_obs::json::quote;
use pas_scenario::{execute, expand, registry, ExecOptions, Manifest, ManifestError};
use pas_server::{Client, ClientError, ResultCache, RetryPolicy, Server, ServerOptions};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What a driver returns on failure.
pub type BenchError = Box<dyn std::error::Error>;

/// The batch bench's execute configurations, shipping first. Each names
/// the instrument it turns off (none for shipping; `obs` is the whole
/// registry) and says whether metrics, span tracing, region profiling
/// and the history sampler run. The name gives its payload field and
/// gate key ([`names`]) and `{off}_overhead_pct`, shipping's overhead
/// over it.
pub(crate) const BATCH_CONFIGS: [(&str, [bool; 4]); 5] = [
    ("", [true, true, true, true]),
    ("trace", [true, false, true, true]),
    ("profile", [true, true, false, true]),
    ("history", [true, true, true, false]),
    ("obs", [false, false, false, true]),
];

/// A batch configuration's payload field of its median batch time (µs)
/// and the gate key of its throughput.
pub(crate) fn names(off: &str) -> (String, String) {
    match off {
        "" => ("execute_us_sequential".into(), "sequential".into()),
        off => (
            format!("execute_us_{off}_off"),
            format!("sequential-{off}-off"),
        ),
    }
}

/// Interleaved rounds per execute configuration; odd, so every median is
/// one sample.
const ROUNDS: usize = 41;
const _: () = assert!(ROUNDS % 2 == 1);

/// Each configuration's samples over [`ROUNDS`] rounds; `sample(c)`
/// times configuration `c` once. Every round runs each configuration
/// once, in an order rotated by one per round, so drift in machine speed
/// falls on all of them alike.
fn interleaved<T, E>(
    configs: usize,
    mut sample: impl FnMut(usize) -> Result<T, E>,
) -> Result<Vec<Vec<T>>, E> {
    let mut samples: Vec<Vec<T>> = (0..configs).map(|_| Vec::with_capacity(ROUNDS)).collect();
    for round in 0..ROUNDS {
        for k in 0..configs {
            let c = (round + k) % configs;
            samples[c].push(sample(c)?);
        }
    }
    Ok(samples)
}

/// Median of an odd-length sample of timings or ratios.
fn median<T: Copy + PartialOrd>(samples: &[T]) -> T {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings and ratios are not NaN"));
    v[v.len() / 2]
}

/// Append `payload` to the history at `out`, stamped with the current
/// commit and date, and return it for the caller to print.
fn record(out: &Path, payload: String) -> Result<String, BenchError> {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let date = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()
        .map(|d| civil_date(d.as_secs()));
    let history = append(out, &payload, commit, date)
        .map_err(|e| format!("recording {}: {e}", out.display()))?;
    let entries = history.entries.len();
    eprintln!("appended to {} ({entries} entries)", out.display());
    Ok(payload)
}

/// `pas bench --gate`: fail on a throughput cliff between the two
/// newest entries of each history in `files` (default: the three
/// `BENCH_*.json`). `say` gets one verdict line per file.
pub fn run_gate(
    max_drop_pct: f64,
    files: &[PathBuf],
    mut say: impl FnMut(String),
) -> Result<(), BenchError> {
    let defaults = [
        "BENCH_batch.json",
        "BENCH_predictors.json",
        "BENCH_server.json",
    ];
    let defaults = defaults.map(PathBuf::from);
    let files = if files.is_empty() { &defaults } else { files };
    let mut failed = false;
    for path in files {
        let history = match BenchHistory::load(path) {
            Ok(Some(h)) => h,
            Ok(None) => {
                say(format!("gate {:<28} absent, skipped", path.display()));
                continue;
            }
            Err(e) => return Err(format!("{}: {e}", path.display()).into()),
        };
        let outcome = gate(&history, max_drop_pct);
        let verdict = if !outcome.ok {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        say(match (outcome.previous, outcome.latest, &outcome.key) {
            (Some(prev), Some(latest), Some(key)) => format!(
                "gate {:<28} {verdict}: {latest:.1} runs/s vs {prev:.1} at {key} \
                 ({:+.1}% drop, tolerance {max_drop_pct:.0}%)",
                path.display(),
                outcome.drop_pct
            ),
            _ => format!(
                "gate {:<28} {verdict}: no two entries with a shared configuration",
                path.display()
            ),
        });
    }
    if failed {
        Err("bench regression gate failed".into())
    } else {
        Ok(())
    }
}

/// Batch bench: expansion throughput and a small batch execute, timed
/// with every instrument on and with each one off, so the history
/// tracks instrumentation overhead (`BENCH_batch.json`). Returns the
/// payload.
pub fn run_batch(out: &Path) -> Result<String, BenchError> {
    let manifest = registry::builtin("paper-default").expect("builtin parses");
    let points = expand(&manifest)?;

    // Expansion: many iterations, it is microseconds-scale.
    let expand_iters = 200u32;
    let t0 = Instant::now();
    for _ in 0..expand_iters {
        let p = expand(&manifest).expect("expansion is deterministic");
        assert_eq!(p.len(), points.len());
    }
    let expand_ns = t0.elapsed().as_nanos() as u64 / u64::from(expand_iters);

    // Execution: a fixed sub-grid, sequential for machine-independence.
    // The shipping configuration runs metrics, span tracing (under an
    // ambient trace context so `exec.point` spans record), region
    // profiling and the history sampler (at an aggressive 100 ms
    // interval, so its pair is a worst-case bound). One sample is one
    // batch, and the configurations run `interleaved`. A configuration's
    // time is the median of its samples; an overhead is the median over
    // rounds of that round's shipping/off ratio.
    let mut small = manifest.clone();
    small.sweep[0].values = vec![4.0, 12.0].into();
    small.run.replicates = 4;
    let runs = expand(&small)?.len();
    let run_once = |[metrics, tracing, profiling, _]: [bool; 4]| {
        pas_obs::set_enabled(metrics);
        pas_obs::trace::set_tracing(tracing);
        pas_obs::profile::set_profiling(profiling);
        // Fresh trace per sample; threads=1 executes inline on this
        // thread, so the ambient context reaches every point.
        let trace = pas_obs::trace::mint_id();
        let _ctx = pas_obs::trace::enter(trace, pas_obs::trace::mint_id());
        let t = Instant::now();
        let batch = execute(&small, ExecOptions { threads: 1 })?;
        Ok::<_, ManifestError>((t.elapsed().as_micros() as u64, batch))
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
    let (_, batch) = run_once(BATCH_CONFIGS[0].1)?;
    let regions = profile_region_json();
    let samples = interleaved(BATCH_CONFIGS.len(), |c| {
        let on = BATCH_CONFIGS[c].1;
        let [.., sampled] = on;
        if sampled != sampler.is_some() {
            // Dropping the sampler stops and joins its thread. A start
            // (with its immediate first snapshot) or a join slows the
            // batch right after it, so that batch runs untimed.
            sampler = sampled.then(start_sampler);
            run_once(on)?;
        }
        Ok::<_, ManifestError>(run_once(on)?.0)
    })?;
    drop(sampler);
    pas_obs::set_enabled(true);
    pas_obs::trace::set_tracing(true);
    pas_obs::profile::set_profiling(true);
    let events = batch.records.iter().map(|r| r.events_processed).sum();
    let payload = batch_payload(points.len(), expand_ns, runs, &samples, &regions, events);
    record(out, payload)
}

/// The batch payload: `samples[c]` holds the batch times (µs) of
/// `BATCH_CONFIGS[c]`, `regions` the per-region breakdown.
fn batch_payload(
    expand_runs: usize,
    expand_ns: u64,
    runs: usize,
    samples: &[Vec<u64>],
    regions: &str,
    events: u64,
) -> String {
    let mut timings = String::new();
    for ((off, _), times) in BATCH_CONFIGS.iter().zip(samples) {
        let _ = writeln!(timings, "  \"{}\": {},", names(off).0, median(times));
        if !off.is_empty() {
            let ratios: Vec<f64> = samples[0]
                .iter()
                .zip(times)
                .map(|(&on, &off)| on as f64 / off.max(1) as f64)
                .collect();
            let pct = (median(&ratios) - 1.0) * 100.0;
            let _ = writeln!(timings, "  \"{off}_overhead_pct\": {pct:.2},");
        }
    }
    format!(
        "{{\n  \"bench\": \"batch\",\n  \"scenario\": \"paper-default\",\n  \
         \"expand_runs\": {expand_runs},\n  \"expand_ns_per_iter\": {expand_ns},\n  \
         \"execute_runs\": {runs},\n  \"execute_rounds\": {ROUNDS},\n\
         {timings}  \"profile_regions\": {regions},\n  \
         \"execute_us_per_run\": {},\n  \"events_total\": {events}\n}}\n",
        median(&samples[0]) / runs as u64,
    )
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
                "    {{\"region\": {}, \"calls\": {calls}, \
                 \"self_us\": {}, \"total_us\": {}}}",
                quote(name),
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
/// the wake-decision loop — not just batch plumbing
/// (`BENCH_predictors.json`). The variants run interleaved like the
/// batch bench's configurations, and each records its median batch.
pub fn run_predictors(out: &Path) -> Result<String, BenchError> {
    let base = registry::builtin("paper-default").expect("builtin parses");
    // One PAS policy mounting each variant, over the Fig. 4 operating
    // slice: 2 axis points x 8 seeds, sequential for comparability.
    let manifests: Vec<Manifest> = pas_core::PREDICTOR_NAMES
        .iter()
        .map(|name| {
            let mut m = base.clone();
            m.name = "bench-predictors".to_string();
            m.policies.retain(|p| p.kind == "pas");
            m.policies[0].predictor = pas_core::PredictorSpec::from_name(name);
            m.sweep[0].values = vec![4.0, 12.0].into();
            m.run.replicates = 8;
            m
        })
        .collect();
    let runs = expand(&manifests[0])?.len();
    let run_once = |m: &Manifest| execute(m, ExecOptions { threads: 1 });
    // One untimed batch per variant warms up and counts its events.
    let mut events = Vec::new();
    for m in &manifests {
        let batch = run_once(m)?;
        events.push(batch.records.iter().map(|r| r.events_processed).sum());
    }
    let samples = interleaved(manifests.len(), |c| {
        let t0 = Instant::now();
        run_once(&manifests[c])?;
        Ok::<_, ManifestError>(t0.elapsed().as_micros() as u64)
    })?;
    record(out, predictors_payload(runs, &samples, &events))
}

/// The predictors payload: `samples[i]` and `events[i]` belong to
/// `PREDICTOR_NAMES[i]`.
fn predictors_payload(runs: usize, samples: &[Vec<u64>], events: &[u64]) -> String {
    let entries: Vec<String> = pas_core::PREDICTOR_NAMES
        .iter()
        .zip(samples)
        .zip(events)
        .map(|((name, samples), events)| {
            let us = median(samples);
            format!(
                "    {{\"predictor\": \"{name}\", \"execute_us\": {us}, \
                 \"us_per_run\": {}, \"runs_per_s\": {:.1}, \"events_total\": {events}}}",
                us / runs as u64,
                runs as f64 / (us as f64 / 1e6),
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"predictors\",\n  \"scenario\": \"paper-default\",\n  \
         \"runs_per_predictor\": {runs},\n  \"execute_rounds\": {ROUNDS},\n  \
         \"predictors\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    )
}

/// One step of the server ramp.
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

/// Server saturation harness: ramp concurrent closed-loop submit
/// clients (1, 2, 4, …, `max_clients`) against a live server, each
/// submitting tiny warm-cache jobs and waiting for completion as fast
/// as the control loop allows. Throughput climbs with concurrency
/// until the server saturates; the knee is the smallest ramp step
/// reaching ≥95% of the peak, and its p99 is the latency cost of
/// operating there. Appends a `server-saturation` entry (per-step
/// table, knee, max sustained jobs/s, error/429 counts) to
/// `BENCH_server.json`.
///
/// Without `addr` an in-process `--metrics` server (local exec, temp
/// cache) is booted, so the bench also exercises the history sampler
/// under load. The jobs are warm after one seed submission: the harness
/// measures the submit→queue→cache→complete control loop — the
/// saturation behaviour of the *server*, not the simulator.
pub fn run_server(
    addr: Option<String>,
    max_clients: usize,
    step: Duration,
    out: &Path,
) -> Result<String, BenchError> {
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
            let cache =
                ResultCache::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
            let opts = ServerOptions {
                metrics: true,
                history_interval: Duration::from_millis(250),
                history_retention: 240,
                ..ServerOptions::default()
            };
            let server = Server::bind("127.0.0.1:0", cache, opts)
                .map_err(|e| format!("binding bench server: {e}"))?;
            let a = server
                .local_addr()
                .map_err(|e| format!("bench server addr: {e}"))?
                .to_string();
            std::thread::spawn(move || server.run());
            cleanup_dir = Some(dir);
            a
        }
    };

    // Seed submission: after this every harness job is a cache hit.
    let seed = Client::new(addr.clone());
    let id = seed
        .submit_with_retry(&toml, RetryPolicy::default(), |_, _| {})
        .map_err(|e| format!("bench seed submit to {addr}: {e}"))?;
    let s = seed
        .wait(id, Duration::from_millis(5))
        .map_err(|e| format!("bench seed wait: {e}"))?;
    if s.phase != "completed" {
        let error = s.error.unwrap_or_default();
        return Err(format!("bench seed job {}: {error}", s.phase).into());
    }

    let mut ramp: Vec<usize> = Vec::new();
    let mut c = 1;
    while c < max_clients {
        ramp.push(c);
        c *= 2;
    }
    ramp.push(max_clients);

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
                        let t0 = Instant::now();
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
        let t0 = Instant::now();
        std::thread::sleep(step);
        stop.store(true, Ordering::Relaxed);
        let mut latencies: Vec<u64> = Vec::new();
        let mut errors = 0u64;
        let mut http_429 = 0u64;
        for h in handles {
            let (lat, e, r) = h.join().map_err(|_| "bench client thread panicked")?;
            latencies.extend(lat);
            errors += e;
            http_429 += r;
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
    record(out, server_payload(step.as_millis(), &steps))
}

/// The server payload of a non-empty ramp.
fn server_payload(step_ms: u128, steps: &[Step]) -> String {
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
    format!(
        "{{\n  \"bench\": \"server\",\n  \"scenario\": \"server-saturation\",\n  \
         \"step_ms\": {step_ms},\n  \"steps\": [\n{}\n  ],\n  \
         \"knee_clients\": {knee_clients},\n  \"max_jobs_per_s\": {max_jps:.1},\n  \
         \"p99_us_at_knee\": {p99_at_knee},\n  \"errors_total\": {errors_total},\n  \
         \"http_429_total\": {http_429_total}\n}}\n",
        rows.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::throughput_by_key;

    /// The gate's keys of a payload, which must name its bench.
    fn keys(bench: &str, payload: &str) -> Vec<String> {
        assert!(payload.contains(&format!("\"bench\": \"{bench}\"")));
        throughput_by_key(bench, payload)
            .into_iter()
            .map(|(key, _)| key)
            .collect()
    }

    /// Each writer's payload reads back through the gate's keys: every
    /// batch configuration, every predictor and every ramp step.
    #[test]
    fn gate_reads_every_key_a_writer_writes() {
        let rounds = |us: u64| vec![us; ROUNDS];
        let samples: Vec<Vec<u64>> = (0..5).map(|c| rounds(9000 - 100 * c)).collect();
        let batch = batch_payload(540, 50_000, 24, &samples, "[]", 67_000);
        let mut want: Vec<String> = BATCH_CONFIGS.iter().map(|(off, _)| names(off).1).collect();
        want.push("sequential-expand".to_string());
        assert_eq!(keys("batch", &batch), want);
        assert!(batch.contains("\"obs_overhead_pct\": 4.65,"), "{batch}");

        let samples: Vec<Vec<u64>> = (1..=4).map(|p| rounds(1000 * p)).collect();
        let predictors = predictors_payload(16, &samples, &[7, 8, 9, 10]);
        assert_eq!(keys("predictors", &predictors), pas_core::PREDICTOR_NAMES);

        let step = |clients, jobs_per_s| Step {
            clients,
            jobs: 100,
            jobs_per_s,
            p50_us: 1,
            p95_us: 2,
            p99_us: 3,
            errors: 0,
            http_429: 0,
        };
        let server = server_payload(300, &[step(1, 380.5), step(2, 835.0), step(4, 1055.5)]);
        let want = ["clients=1", "clients=2", "clients=4", "server-max"];
        assert_eq!(keys("server", &server), want);
        assert!(server.contains("\"knee_clients\": 4,"), "{server}");
    }
}
