//! End-to-end distributed execution over real sockets: a
//! `--no-local-exec` server with the shard scheduler mounted, driven by
//! real `pas_dist::worker` loops — the same wiring `pas serve` /
//! `pas worker` set up — including a worker crash mid-job.

use pas_dist::{Scheduler, SchedulerOptions, WorkerOptions, WorkerSummary};
use pas_scenario::{execute, registry, ExecOptions, Manifest};
use pas_server::{Client, ClientError, ResultCache, ResultFormat, Server, ServerOptions};
use std::time::Duration;

struct Rig {
    addr: String,
    client: Client,
    dir: std::path::PathBuf,
}

/// Boot a server with the scheduler mounted on an ephemeral port with a
/// fresh cache: dist-only (`pas serve --no-local-exec`) unless
/// `local_exec`, which is plain `pas serve`.
fn boot(tag: &str, sched: SchedulerOptions, local_exec: bool) -> Rig {
    let dir = std::env::temp_dir().join(format!("pas_dist_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).unwrap();
    let opts = ServerOptions {
        local_exec,
        ..ServerOptions::default()
    };
    let mut server = Server::bind("127.0.0.1:0", cache.clone(), opts).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let scheduler = Scheduler::new(server.queue(), cache, sched);
    scheduler.spawn_ticker();
    server.set_router(scheduler.into_router());
    std::thread::spawn(move || server.run());
    Rig {
        client: Client::new(addr.clone()),
        addr,
        dir,
    }
}

fn small_manifest() -> Manifest {
    let mut m = registry::builtin("paper-default").unwrap();
    m.sweep[0].values = vec![4.0, 12.0].into();
    m.run.replicates = 3;
    m
}

fn spawn_worker(
    addr: &str,
    opts: WorkerOptions,
) -> std::thread::JoinHandle<Result<WorkerSummary, ClientError>> {
    let addr = addr.to_string();
    std::thread::spawn(move || pas_dist::worker::run(&addr, opts))
}

/// Bound on each wait of the worker-death test, far above its normal run
/// time: a worker that never dies, or a job that never ends, fails the
/// test instead of hanging the suite.
const DEADLINE: Duration = Duration::from_secs(60);

/// `f()` on a thread of its own, or a failure naming `what` once
/// [`DEADLINE`] passes; a thread still blocked then is left behind, not
/// joined, since joining it would hang too.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    let late = |e| panic!("{what} did not finish within {DEADLINE:?}: {e}");
    rx.recv_timeout(DEADLINE).unwrap_or_else(late)
}

/// The acceptance scenario: one worker is killed mid-job (it executes a
/// few points, then crashes without reporting); the final CSV must still
/// be byte-identical to a direct local run, with every point counted
/// exactly once (hits + misses == total) and the warm resubmission
/// simulating nothing. Runs with one and with two execution threads per
/// worker, victim and survivor alike, since a fault budget cuts a shard
/// inside the worker's pool.
#[test]
fn worker_death_mid_job_preserves_bytes_and_counts() {
    for threads in [1, 2] {
        worker_death_mid_job(threads);
    }
}

fn worker_death_mid_job(threads: usize) {
    let rig = boot(
        &format!("death_t{threads}"),
        SchedulerOptions {
            lease: Duration::from_millis(300),
            heartbeat: Duration::from_millis(100),
            shard_points: 3,
        },
        false,
    );
    let m = small_manifest();
    let toml = m.to_toml();
    let n = pas_scenario::expand(&m).unwrap().len() as u64;

    // Victim: crashes after 4 executed points — one full reported shard
    // of 3, then one point into its second shard, then silence. It is
    // the only worker until it dies, so the crash deterministically
    // happens mid-job with work abandoned.
    let victim = spawn_worker(
        &rig.addr,
        WorkerOptions {
            name: "victim".into(),
            threads,
            poll: Duration::from_millis(10),
            fail_after_points: Some(4),
        },
    );
    let id = rig.client.submit(&toml).unwrap();
    let victim = within("the victim", move || victim.join())
        .unwrap()
        .unwrap();
    assert!(
        victim.died,
        "threads {threads}: victim must hit its fault budget"
    );
    assert_eq!(
        victim.points, 4,
        "threads {threads}: victim crashed mid-second-shard"
    );
    let stalled = rig.client.status(id).unwrap();
    assert_eq!(stalled.phase, "running", "job survives its worker");

    // Survivor: joins after the crash, inherits the abandoned lease once
    // it expires, and finishes the job.
    let survivor = spawn_worker(
        &rig.addr,
        WorkerOptions {
            name: "survivor".into(),
            threads,
            poll: Duration::from_millis(10),
            ..WorkerOptions::default()
        },
    );
    let wait = |id| {
        let client = rig.client.clone();
        move || client.wait(id, Duration::from_millis(20)).unwrap()
    };
    let done = within("the job", wait(id));
    assert_eq!(done.phase, "completed", "error: {:?}", done.error);
    assert_eq!(
        done.cache_hits + done.cache_misses,
        n,
        "threads {threads}: every point recorded exactly once despite the crash"
    );
    assert_eq!(done.cache_hits, 0, "cold job answers nothing from cache");

    // Byte-identical to a direct, single-process, sequential run.
    let direct = execute(&m, ExecOptions { threads: 1 }).unwrap();
    let want_csv = pas_scenario::summary_csv(&direct).render();
    let want_jsonl = pas_scenario::sink::records_jsonl(&direct);
    let csv = rig.client.results(id, ResultFormat::Csv).unwrap();
    assert_eq!(String::from_utf8(csv).unwrap(), want_csv);
    let jsonl = rig.client.results(id, ResultFormat::Jsonl).unwrap();
    assert_eq!(String::from_utf8(jsonl).unwrap(), want_jsonl);

    // Warm resubmission: straight from cache, no worker round trips.
    let id2 = rig.client.submit(&toml).unwrap();
    let done2 = within("the warm job", wait(id2));
    assert_eq!(done2.phase, "completed");
    assert_eq!(done2.cache_hits, n);
    assert_eq!(done2.cache_misses, 0);
    let warm = rig.client.results(id2, ResultFormat::Csv).unwrap();
    assert_eq!(String::from_utf8(warm).unwrap(), want_csv);

    // The survivor re-executed the victim's abandoned shard (the victim
    // recorded 3 points before dying, so the survivor owns the rest) and
    // exits cleanly on drain.
    rig.client.drain().unwrap();
    let survivor = within("the survivor", move || survivor.join())
        .unwrap()
        .unwrap();
    assert!(!survivor.died);
    assert_eq!(
        survivor.points,
        n - 3,
        "threads {threads}: survivor executes everything the victim did not \
         report, including the crashed shard's re-lease"
    );

    let _ = std::fs::remove_dir_all(&rig.dir);
}

/// Healthz reflects fleet state, and `submit_with_retry` rides out a 429
/// from a full queue.
#[test]
fn healthz_and_submit_backoff() {
    let rig = boot(
        "health",
        SchedulerOptions {
            heartbeat: Duration::from_millis(100),
            ..SchedulerOptions::default()
        },
        false,
    );

    // No workers yet.
    let h = rig.client.healthz().unwrap();
    assert!(h.contains("\"mode\":\"dist\""), "{h}");
    assert_eq!(pas_server::json::find_bool(&h, "ok"), Some(true));
    assert_eq!(pas_server::json::find_u64(&h, "workers"), Some(0));
    assert_eq!(pas_server::json::find_u64(&h, "queue_depth"), Some(0));

    let worker = spawn_worker(
        &rig.addr,
        WorkerOptions {
            name: "w".into(),
            threads: 1,
            poll: Duration::from_millis(10),
            ..WorkerOptions::default()
        },
    );
    // The worker registers quickly; healthz counts it.
    let mut saw_worker = false;
    for _ in 0..100 {
        let h = rig.client.healthz().unwrap();
        if pas_server::json::find_u64(&h, "workers") == Some(1) {
            saw_worker = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(saw_worker, "healthz never showed the registered worker");

    // submit_with_retry succeeds against a live server without retries...
    let m = small_manifest();
    let mut retries = 0;
    let id = rig
        .client
        .submit_with_retry(&m.to_toml(), Default::default(), |_, _| retries += 1)
        .unwrap();
    assert_eq!(retries, 0);
    let wait = |id| {
        let client = rig.client.clone();
        move || client.wait(id, Duration::from_millis(20)).unwrap()
    };
    let done = within("the job", wait(id));
    assert_eq!(done.phase, "completed");

    // ...and a dead address exhausts its retries with backoff.
    let dead = Client::new("127.0.0.1:1");
    let mut attempts = 0;
    let err = dead.submit_with_retry(
        "x",
        pas_server::RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            max: Duration::from_millis(4),
        },
        |_, _| attempts += 1,
    );
    assert!(err.is_err());
    assert_eq!(attempts, 2, "attempts - 1 retries before giving up");

    rig.client.drain().unwrap();
    worker.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&rig.dir);
}

/// Plain `pas serve` mounts the scheduler beside its own queue worker:
/// the scheduler's `/healthz` reports the jobs as run locally, with the
/// fleet fields still there.
#[test]
fn healthz_reports_local_exec_beside_the_scheduler() {
    let rig = boot("mixed", SchedulerOptions::default(), true);
    let h = rig.client.healthz().unwrap();
    assert!(h.contains("\"mode\":\"local\""), "{h}");
    assert_eq!(pas_server::json::find_u64(&h, "workers"), Some(0));
    assert_eq!(pas_server::json::find_u64(&h, "active_jobs"), Some(0));
    let _ = std::fs::remove_dir_all(&rig.dir);
}
