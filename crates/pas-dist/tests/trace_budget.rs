//! A job's trace grows with its shards, not its points: the per-point
//! leaf spans fold into aggregates, so a traced job stays inside the span
//! budget docs/OBSERVABILITY.md states, and the aggregates' `points`
//! labels still count every point once. Tier-1 runs a 540-point job
//! locally and on a two-worker fleet. The ignored case is a 27,000-point
//! job on the fleet, which evicted about 14,800 of its own spans from
//! the 65,536-span store when every point recorded three spans; run it
//! in release with `cargo test --release -p pas-dist --test trace_budget
//! -- --ignored`.
//!
//! This file is its own test binary, so no other test's spans share the
//! process-global store.

use pas_dist::{Scheduler, SchedulerOptions, WorkerOptions};
use pas_obs::trace::{self, SpanRecord, EXEMPLARS};
use pas_scenario::{registry, Manifest};
use pas_server::{Client, ResultCache, Server, ServerOptions};
use std::collections::HashMap;
use std::time::Duration;

/// Spans one aggregate costs: itself and its exemplars.
const AGGREGATE: usize = 1 + EXEMPLARS;

/// A local job: `job`, `job.queued` and `job.execute`, and under the
/// last at most five aggregates: `cache.probe` per outcome (hit, miss,
/// corrupt), `exec.point` and `cache.store`.
const LOCAL_BUDGET: usize = 3 + 5 * AGGREGATE;

/// A fleet job: `job`, `job.queued`, `sched.assemble` and the claim's
/// `cache.probe` aggregates (one per outcome), then per lease
/// `sched.lease`, `sched.report` with its `cache.store` aggregate, and the
/// worker's `worker.lease.rtt` and `worker.shard.execute` with its
/// `exec.point` aggregate.
fn fleet_budget(leases: usize) -> usize {
    3 + 3 * AGGREGATE + leases * (4 + 2 * AGGREGATE)
}

fn manifest(replicates: u64) -> Manifest {
    let mut m = registry::builtin("paper-default").unwrap();
    m.run.replicates = replicates;
    m
}

/// A server on a fresh cache: executing locally, or with a scheduler and
/// `workers` one-thread in-process workers.
fn boot(tag: &str, workers: usize) -> (Client, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("pas_trace_budget_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).unwrap();
    let opts = ServerOptions {
        local_exec: workers == 0,
        ..ServerOptions::default()
    };
    let mut server = Server::bind("127.0.0.1:0", cache.clone(), opts).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    if workers > 0 {
        let opts = SchedulerOptions {
            heartbeat: Duration::from_millis(100),
            ..SchedulerOptions::default()
        };
        let scheduler = Scheduler::new(server.queue(), cache, opts);
        scheduler.spawn_ticker();
        server.set_router(scheduler.into_router());
    }
    std::thread::spawn(move || server.run());
    for i in 0..workers {
        let addr = addr.clone();
        let opts = WorkerOptions {
            name: format!("{tag}-{i}"),
            threads: 1,
            poll: Duration::from_millis(10),
            ..WorkerOptions::default()
        };
        std::thread::spawn(move || pas_dist::worker::run(&addr, opts));
    }
    let client = Client::new(addr);
    // The claim shards over the workers registered by then.
    while workers > 0
        && pas_server::json::find_u64(&client.healthz().unwrap(), "workers") != Some(workers as u64)
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    (client, dir)
}

/// Run `m` cold under a fresh trace and return its spans.
fn traced_job(client: &Client, m: &Manifest) -> (u64, Vec<SpanRecord>) {
    let (id, tr) = client
        .submit_traced(&m.to_toml(), trace::mint_id())
        .unwrap();
    let done = client.wait(id, Duration::from_millis(20)).unwrap();
    assert_eq!(done.phase, "completed", "error: {:?}", done.error);
    assert_eq!(
        done.cache_misses, done.total,
        "a cold job simulates every point"
    );
    (tr, trace::spans_for(tr))
}

/// The tree is complete: one `job` root and every other span's parent
/// present.
fn assert_complete(spans: &[SpanRecord]) {
    let ids: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span, s)).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique");
    let roots: Vec<&str> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(roots, ["job"]);
    for s in spans.iter().filter(|s| s.parent != 0) {
        assert!(ids.contains_key(&s.parent), "{} lost its parent", s.name);
    }
}

/// Points counted by the `points` labels of `name`'s aggregates.
fn points(spans: &[SpanRecord], name: &str) -> u64 {
    let named = spans.iter().filter(|s| s.name == name);
    let counts = named.filter_map(|s| s.labels.iter().find(|(k, _)| k == "points"));
    counts.map(|(_, v)| v.parse::<u64>().unwrap()).sum()
}

fn assert_counts_every_point(spans: &[SpanRecord], total: u64) {
    for name in ["cache.probe", "exec.point", "cache.store"] {
        assert_eq!(points(spans, name), total, "{name} aggregates");
    }
}

#[test]
fn a_local_job_stays_within_its_span_budget() {
    let (client, dir) = boot("local", 0);
    let m = manifest(20);
    let (tr, spans) = traced_job(&client, &m);
    assert!(spans.len() <= LOCAL_BUDGET, "{} spans", spans.len());
    assert_complete(&spans);
    assert_counts_every_point(&spans, 540);
    assert_eq!(trace::evicted(tr), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fleet_job_stays_within_its_span_budget() {
    let (client, dir) = boot("fleet", 2);
    let m = manifest(20);
    let (tr, spans) = traced_job(&client, &m);
    let leases = spans.iter().filter(|s| s.name == "sched.lease").count();
    assert!(leases > 0);
    assert!(
        spans.len() <= fleet_budget(leases),
        "{} spans, {leases} leases",
        spans.len()
    );
    assert_complete(&spans);
    assert_counts_every_point(&spans, 540);
    assert_eq!(trace::evicted(tr), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "27,000 simulations; run in release"]
fn a_27000_point_fleet_job_keeps_a_complete_trace() {
    let (client, dir) = boot("large", 2);
    let dropped = trace::dropped();
    let (tr, spans) = traced_job(&client, &manifest(1000));
    assert_eq!(trace::dropped(), dropped, "the store evicted spans");
    assert_eq!(trace::evicted(tr), 0);
    let leases = spans.iter().filter(|s| s.name == "sched.lease").count();
    assert!(
        spans.len() <= fleet_budget(leases),
        "{} spans, {leases} leases",
        spans.len()
    );
    assert_complete(&spans);
    assert_counts_every_point(&spans, 27_000);
    let _ = std::fs::remove_dir_all(&dir);
}
