//! The measured window: a closed loop of `nproc` clients, each keeping
//! exactly one job outstanding.

use crate::jobs::{self, Jobs, Workload};
use crate::service::{self, Outcome, Primed, Service};
use crate::traced::Tracer;
use pas_server::Client;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Jobs a run must measure so that at least ten lie beyond the p90.
pub const MIN_JOBS: u64 = 100;

/// Longest a window may stretch to reach [`MIN_JOBS`].
const MAX_WINDOW: Duration = Duration::from_secs(120);

/// One measured job.
pub struct Done {
    /// Position in the job sequence.
    pub index: u64,
    /// Its base seed.
    pub seed: u64,
    /// What the client saw; the CSV is kept only where a later check
    /// needs it (cold workloads).
    pub out: Outcome,
}

/// Everything the window observed.
pub struct Window {
    /// First submit.
    pub started: Instant,
    /// Last CSV downloaded.
    pub ended: Instant,
    /// Jobs that returned a CSV, in completion order.
    pub done: Vec<Done>,
    /// Jobs attempted (returned or failed).
    pub attempted: u64,
    /// One line per failed job or failed output check.
    pub failures: Vec<String>,
}

impl Window {
    /// Wall time of the window.
    pub fn wall(&self) -> Duration {
        self.ended.duration_since(self.started)
    }

    /// Matrix points returned per second.
    pub fn runs_per_s(&self) -> f64 {
        (self.done.len() as u64 * service::POINTS) as f64 / self.wall().as_secs_f64()
    }
}

/// Run the closed loop for `seconds` (longer if fewer than `min_jobs`
/// jobs have started by then). A client starts a job only before the
/// deadline; jobs in flight at the deadline finish and count. With a
/// `tracer`, each client also times `Manifest::parse` of its TOML and
/// records the job's client-side spans.
pub fn measure(
    svc: &Service,
    workload: Workload,
    jobs: &Jobs,
    primed: &Primed,
    seconds: Duration,
    min_jobs: u64,
    tracer: Option<&Tracer>,
) -> Window {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + seconds;
    let done = Mutex::new(Vec::new());
    let failures = Mutex::new(Vec::new());
    let errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..crate::machine::nproc() {
            scope.spawn(|| {
                let client = Client::new(svc.addr.clone());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let now = Instant::now();
                    if (now >= deadline && i >= min_jobs) || now >= started + MAX_WINDOW {
                        break;
                    }
                    let seed = jobs.seed_of(i);
                    let toml = jobs::toml(seed);
                    let parse_us = tracer.map(|t| t.time_parse(&toml));
                    match service::run_job(&client, &svc.queue, &toml) {
                        Ok(mut out) => {
                            if let (Some(t), Some(parse_us)) = (tracer, parse_us) {
                                t.client_job(&out, parse_us);
                            }
                            if let Err(e) = check(workload, primed, seed, &mut out) {
                                failures.lock().expect("failures lock").push(e);
                            }
                            done.lock().expect("done lock").push(Done {
                                index: i,
                                seed,
                                out,
                            });
                        }
                        Err(e) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            failures.lock().expect("failures lock").push(e);
                        }
                    }
                }
            });
        }
    });
    let done: Vec<Done> = done.into_inner().expect("done lock");
    let failures: Vec<String> = failures.into_inner().expect("failures lock");
    let ended = done
        .iter()
        .map(|d| d.out.end)
        .max()
        .unwrap_or_else(Instant::now);
    Window {
        started,
        ended,
        attempted: done.len() as u64 + errors.into_inner(),
        done,
        failures,
    }
}

/// Checks made as each job lands: the cache counters, and for
/// `warm-grid` the CSV against the direct execute made in set-up (the
/// CSV is then dropped; cold CSVs are kept for the post-window sample).
fn check(workload: Workload, primed: &Primed, seed: u64, out: &mut Outcome) -> Result<(), String> {
    service::check_counts(&out.job, workload.warm())?;
    if workload.warm() {
        let want = primed.reference(seed).ok_or("warm seed outside the pool")?;
        let csv = std::mem::take(&mut out.csv);
        if csv != want.as_bytes() {
            return Err(format!(
                "warm job {}: CSV differs from direct execute",
                out.job.id
            ));
        }
    }
    Ok(())
}

/// After the window: re-run a seeded sample of the cold workloads' jobs
/// directly and byte-compare their CSVs. Returns one line per mismatch.
pub fn sample_check(workload: Workload, seed: u64, done: &[Done], n: usize) -> Vec<String> {
    if workload.warm() || done.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<&Done> = done.iter().collect();
    order.sort_by_key(|d| d.index);
    let mut picked: Vec<usize> = Vec::new();
    let mut k = 0u64;
    while picked.len() < n.min(order.len()) {
        let at = (jobs::mix(seed ^ 0x5A3F_1E00 ^ k) % order.len() as u64) as usize;
        if !picked.contains(&at) {
            picked.push(at);
        }
        k += 1;
    }
    picked
        .into_iter()
        .filter_map(|at| {
            let d = order[at];
            (d.out.csv != service::direct_csv(d.seed).as_bytes()).then(|| {
                format!(
                    "job {} (base seed {}): served CSV differs from direct execute",
                    d.out.job.id, d.seed
                )
            })
        })
        .collect()
}
