//! The service under test, driven through its public API: an in-process
//! `pas_server::Server` (optionally with the `pas_dist` scheduler and an
//! in-process worker fleet), its set-up, and one client job.

use crate::jobs::{self, Jobs, Workload};
use pas_dist::{Scheduler, SchedulerOptions, WorkerOptions, WorkerSummary};
use pas_scenario::{execute, sink, ExecOptions};
use pas_server::{
    Client, ClientError, Job, JobPhase, JobQueue, ResultCache, Server, ServerOptions,
};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The golden CSV the unmodified `paper-default` must reproduce.
pub const GOLDEN_CSV: &str = include_str!("../../tests/golden/paper-default.csv");

/// Points in every job.
pub const POINTS: u64 = 540;

/// How often a client re-reads `JobQueue::status` while its job runs.
/// The queue has no completion signal in its public API, so the client
/// polls in-process; 100 µs is under 1% of the shortest (warm) job and
/// costs a few percent of one core.
const POLL: Duration = Duration::from_micros(100);

/// Worker idle poll: far below one shard's execution time (~17 ms for
/// a 68-point shard), so an idle lease never stalls a job.
pub const WORKER_POLL: Duration = Duration::from_millis(2);

/// Who executes the jobs of a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The server's own queue worker (`local_exec`).
    Local,
    /// The `pas-dist` scheduler and `nproc` `pas_dist::worker::run`
    /// threads with one execution thread each.
    Fleet,
    /// Nothing in the program: the caller claims jobs from the queue.
    External,
    /// The `pas-dist` scheduler, with workers supplied by the caller.
    Scheduler,
}

/// A running server plus whatever executes its jobs.
pub struct Service {
    /// `host:port` of the listener.
    pub addr: String,
    /// In-process handle to the job queue.
    pub queue: JobQueue,
    /// The result cache the server uses.
    pub cache: ResultCache,
    scheduler: Option<Scheduler>,
    fleet: Vec<JoinHandle<Result<WorkerSummary, ClientError>>>,
}

impl Service {
    /// Bind a server on a fresh cache directory `dir` and start `backend`.
    /// Returns once a fleet has registered.
    pub fn start(dir: &Path, backend: Backend) -> Result<Service, String> {
        let _ = std::fs::remove_dir_all(dir);
        let cache = ResultCache::open(dir).map_err(|e| format!("cache {}: {e}", dir.display()))?;
        let opts = ServerOptions {
            local_exec: backend == Backend::Local,
            ..ServerOptions::default()
        };
        let mut server =
            Server::bind("127.0.0.1:0", cache.clone(), opts).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let queue = server.queue();
        let scheduler = matches!(backend, Backend::Fleet | Backend::Scheduler).then(|| {
            let s = Scheduler::new(queue.clone(), cache.clone(), SchedulerOptions::default());
            s.spawn_ticker();
            server.set_router(s.clone().into_router());
            s
        });
        std::thread::spawn(move || server.run());
        let mut svc = Service {
            addr,
            queue,
            cache,
            scheduler,
            fleet: Vec::new(),
        };
        if backend == Backend::Fleet {
            let n = crate::machine::nproc();
            for w in 0..n {
                let addr = svc.addr.clone();
                let opts = WorkerOptions {
                    name: format!("bench-{w}"),
                    threads: 1,
                    poll: WORKER_POLL,
                    ..WorkerOptions::default()
                };
                svc.fleet.push(std::thread::spawn(move || {
                    pas_dist::worker::run(&addr, opts)
                }));
            }
            svc.await_workers(n)?;
        }
        Ok(svc)
    }

    /// Wait until `n` workers have registered with the scheduler.
    pub fn await_workers(&self, n: usize) -> Result<(), String> {
        let sched = self
            .scheduler
            .as_ref()
            .expect("a fleet needs the scheduler");
        let t0 = Instant::now();
        while pas_server::json::find_u64(&sched.healthz_json(), "workers") != Some(n as u64) {
            if t0.elapsed() > Duration::from_secs(30) {
                return Err(format!("{n} workers did not register within 30 s"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Tell the scheduler's workers to exit once no job is left.
    pub fn drain(&self) {
        if let Some(s) = &self.scheduler {
            s.drain();
        }
    }

    /// Stop the backend: drain the fleet (joining every worker) and
    /// close the queue. The cache directory stays until the run ends.
    pub fn stop(self) -> Result<(), String> {
        self.drain();
        let mut err = None;
        for h in self.fleet {
            match h.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => err = Some(format!("worker: {e}")),
                Err(_) => err = Some("worker panicked".to_string()),
            }
        }
        self.queue.shutdown();
        err.map_or(Ok(()), Err)
    }
}

/// One job as a client saw it.
pub struct Outcome {
    /// Start of `Client::submit`.
    pub start: Instant,
    /// `Client::submit` returned.
    pub submitted: Instant,
    /// The client saw the job finished.
    pub finished: Instant,
    /// The CSV was fully downloaded.
    pub end: Instant,
    /// Final queue status (cache counters, phase).
    pub job: Job,
    /// The CSV.
    pub csv: Vec<u8>,
}

/// Submit `toml`, wait for the job through the in-process queue handle,
/// and download its CSV.
pub fn run_job(client: &Client, queue: &JobQueue, toml: &str) -> Result<Outcome, String> {
    let start = Instant::now();
    let id = client.submit(toml).map_err(|e| format!("submit: {e}"))?;
    let submitted = Instant::now();
    let job = loop {
        match queue.status(id) {
            Some(j) if matches!(j.phase, JobPhase::Completed | JobPhase::Failed) => break j,
            Some(_) => std::thread::sleep(POLL),
            None => return Err(format!("job {id} vanished from the queue")),
        }
    };
    let finished = Instant::now();
    if job.phase == JobPhase::Failed {
        return Err(format!("job {id} failed: {:?}", job.error));
    }
    let csv = client
        .results(id, pas_server::ResultFormat::Csv)
        .map_err(|e| format!("results: {e}"))?;
    Ok(Outcome {
        start,
        submitted,
        finished,
        end: Instant::now(),
        job,
        csv,
    })
}

/// Check a finished job's cache counters: all hits when `warm`, all
/// misses otherwise.
pub fn check_counts(job: &Job, warm: bool) -> Result<(), String> {
    let (hits, misses) = (job.stats.hits, job.stats.misses);
    let want = if warm { (POINTS, 0) } else { (0, POINTS) };
    if (hits, misses) == want {
        Ok(())
    } else {
        Err(format!(
            "job {}: {hits} hits / {misses} misses, want {} / {}",
            job.id, want.0, want.1
        ))
    }
}

/// The summary CSV of a direct, in-process `pas_scenario::execute`.
pub fn direct_csv(base_seed: u64) -> String {
    let batch = execute(&jobs::manifest(base_seed), ExecOptions::default())
        .expect("paper-default executes");
    sink::summary_csv(&batch).render()
}

/// What set-up established for the measured window.
pub struct Primed {
    /// `(pool base seed, direct CSV)` for `warm-grid`; empty otherwise.
    pub pool: Vec<(u64, String)>,
}

impl Primed {
    /// The reference CSV of warm-pool grid `base_seed`.
    pub fn reference(&self, base_seed: u64) -> Option<&str> {
        self.pool
            .iter()
            .find(|(s, _)| *s == base_seed)
            .map(|(_, c)| c.as_str())
    }
}

/// Set-up jobs on a started service: the golden job, the warm pool
/// (simulated once through the service, with direct reference CSVs),
/// and the warm-up jobs. Every check failure is an error.
pub fn prime(svc: &Service, workload: Workload, jobs: &Jobs) -> Result<Primed, String> {
    let client = Client::new(svc.addr.clone());
    let golden = run_job(&client, &svc.queue, &jobs::toml(jobs::GOLDEN_SEED))?;
    check_counts(&golden.job, false)?;
    if golden.csv != GOLDEN_CSV.as_bytes() {
        return Err("paper-default CSV differs from tests/golden/paper-default.csv".into());
    }
    let mut pool = Vec::new();
    if workload.warm() {
        for j in 0..jobs::POOL {
            let seed = jobs.pool_seed(j);
            let out = run_job(&client, &svc.queue, &jobs::toml(seed))?;
            check_counts(&out.job, false)?;
            let direct = direct_csv(seed);
            if out.csv != direct.as_bytes() {
                return Err(format!(
                    "pool grid {seed}: served CSV differs from direct execute"
                ));
            }
            pool.push((seed, direct));
        }
    }
    for w in 0..jobs::WARMUP {
        let out = run_job(&client, &svc.queue, &jobs::toml(jobs.warmup_seed(w)))?;
        check_counts(&out.job, workload.warm())?;
    }
    Ok(Primed { pool })
}
