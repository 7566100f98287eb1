//! Span shipping in an in-process fleet: workers that share the
//! server's process, and so its span store, ship exactly the spans
//! recorded under their leases. A trace that already holds tens of
//! thousands of server-side spans is neither re-shipped nor moved, and
//! reports stay small enough for the server's body cap.
//!
//! This file is its own test binary, so its filler spans cannot evict
//! another test's trace from the process-global store.

use pas_dist::{Scheduler, SchedulerOptions, WorkerOptions};
use pas_obs::trace::{self, SpanRecord};
use pas_scenario::{execute, registry, ExecOptions};
use pas_server::{Client, ResultCache, ResultFormat, Server, ServerOptions};
use std::time::{Duration, Instant};

const FILLER: u64 = 40_000;
const SHARD_POINTS: usize = 3;

fn spans_count() -> u64 {
    pas_obs::global()
        .counter("pas.dist.report.spans.count", &[])
        .get()
}

#[test]
fn in_process_workers_ship_only_their_leases_spans() {
    let dir = std::env::temp_dir().join(format!("pas_span_shipping_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).unwrap();
    let opts = ServerOptions {
        local_exec: false,
        ..ServerOptions::default()
    };
    let mut server = Server::bind("127.0.0.1:0", cache.clone(), opts).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let scheduler = Scheduler::new(
        server.queue(),
        cache,
        SchedulerOptions {
            heartbeat: Duration::from_millis(100),
            shard_points: SHARD_POINTS,
            ..SchedulerOptions::default()
        },
    );
    scheduler.spawn_ticker();
    server.set_router(scheduler.into_router());
    std::thread::spawn(move || server.run());
    let client = Client::new(addr.clone());

    // Server-side spans already resident in the job's trace: a flat
    // subtree under one synthetic parent, about 6 MB if re-shipped.
    let tr = trace::mint_id();
    let filler_parent = trace::mint_id();
    let filler: Vec<SpanRecord> = (0..FILLER)
        .map(|i| SpanRecord {
            trace: tr,
            span: trace::mint_id(),
            parent: filler_parent,
            name: "test.filler".to_string(),
            labels: vec![("i".to_string(), i.to_string())],
            proc: "server".to_string(),
            start_us: i,
            dur_us: 1,
        })
        .collect();
    trace::ingest(&filler);

    let mut m = registry::builtin("paper-default").unwrap();
    m.sweep[0].values = vec![4.0, 12.0].into();
    m.run.replicates = 3;
    let points = pas_scenario::expand(&m).unwrap().len() as u64;
    let shards = points.div_ceil(SHARD_POINTS as u64);
    let before = spans_count();
    let (id, _) = client.submit_traced(&m.to_toml(), tr).unwrap();

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let opts = WorkerOptions {
                name: format!("ship-{i}"),
                threads: 1,
                poll: Duration::from_millis(10),
                ..WorkerOptions::default()
            };
            std::thread::spawn(move || pas_dist::worker::run(&addr, opts))
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    let done = loop {
        let s = client.status(id).unwrap();
        if s.phase == "completed" || s.phase == "failed" {
            break s;
        }
        assert!(
            Instant::now() < deadline,
            "job stalled at {}/{} points",
            s.done,
            s.total
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(done.phase, "completed", "error: {:?}", done.error);
    assert_eq!(done.cache_misses, points);

    let direct = execute(&m, ExecOptions { threads: 1 }).unwrap();
    let csv = client.results(id, ResultFormat::Csv).unwrap();
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        pas_scenario::summary_csv(&direct).render()
    );

    client.drain().unwrap();
    for w in workers {
        let summary = w.join().unwrap().expect("worker drains cleanly");
        assert!(!summary.died);
    }

    // Every filler span is still resident, exactly once.
    let spans = trace::spans_for(tr);
    let filler_ids = |spans: &[SpanRecord]| {
        let mut ids: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "test.filler")
            .map(|s| s.span)
            .collect();
        ids.sort_unstable();
        ids
    };
    assert!(
        filler_ids(&spans) == filler_ids(&filler),
        "filler moved or duplicated"
    );

    // The reports carried exactly the workers' own spans: per shard a
    // `worker.lease.rtt`, a `worker.shard.execute` and one `exec.point`
    // aggregate, whose `points` labels count every point once. A shard
    // holds fewer points than an aggregate keeps exemplars, so each of
    // its points also ships as an exemplar.
    const { assert!(SHARD_POINTS <= trace::EXEMPLARS) };
    let named = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    let aggregates: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "exec.point")
        .filter_map(|s| s.labels.iter().find(|(k, _)| k == "points"))
        .map(|(_, v)| v.parse().unwrap())
        .collect();
    assert_eq!(aggregates.len() as u64, shards);
    assert_eq!(aggregates.iter().sum::<u64>(), points);
    assert_eq!(named("exec.point"), shards + points);
    assert_eq!(named("worker.shard.execute"), shards);
    assert_eq!(named("worker.lease.rtt"), shards);
    assert_eq!(spans_count() - before, points + 3 * shards);

    let _ = std::fs::remove_dir_all(&dir);
}
