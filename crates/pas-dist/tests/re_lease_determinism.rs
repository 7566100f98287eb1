//! Property: **any** interleaving of worker deaths — dying at arbitrary
//! point budgets, mid-shard or between shards, with leases expiring and
//! re-leasing to later workers — produces a final batch that is
//! bit-identical to a plain single-process run, with every point counted
//! exactly once (`hits + misses == total`).
//!
//! Drives the [`Scheduler`] API directly (no sockets) so each generated
//! case costs milliseconds plus one lease-expiry sleep.

use pas_dist::protocol::{PointReport, Register, ShardReport};
use pas_dist::{LeaseOutcome, Scheduler, SchedulerOptions};
use pas_scenario::{execute, execute_point, expand_indices, registry, ExecOptions, Manifest};
use pas_server::{JobPhase, JobQueue, ResultCache};
use proptest::prelude::*;
use std::time::Duration;

const LEASE: Duration = Duration::from_millis(40);

fn tiny_manifest() -> Manifest {
    let mut m = registry::builtin("paper-default").unwrap();
    // 1 axis value x 3 policies x 2 seeds = 6 points, 3 shards of 2:
    // small enough to run 64 cases, interleaved enough to matter.
    m.sweep[0].values = vec![8.0].into();
    m.run.replicates = 2;
    m
}

/// Execute `grant.indices[..limit]` points and build a (possibly
/// partial) report the way a real worker would — including the
/// piggybacked span tree a real worker ships: one `worker.shard.execute`
/// parented under the grant's lease span, and under that one `exec.point`
/// aggregate with its slowest points as exemplar children.
fn partial_report(
    m: &Manifest,
    grant: &pas_dist::ShardGrant,
    worker: u64,
    limit: usize,
) -> ShardReport {
    let field = m.build_field();
    let points = expand_indices(m, &grant.indices[..limit]).unwrap();
    let t0 = pas_obs::trace::now_us();
    let span =
        |parent: u64, name: &str, labels: Vec<(String, String)>| pas_obs::trace::SpanRecord {
            trace: grant.trace,
            span: pas_obs::trace::mint_id(),
            parent,
            name: name.to_string(),
            labels,
            proc: format!("worker:w{worker}"),
            start_us: t0,
            dur_us: 10,
        };
    let exec = span(
        grant.span,
        "worker.shard.execute",
        vec![("worker".into(), format!("w{worker}"))],
    );
    let n = points.len();
    let aggregate = span(
        exec.span,
        "exec.point",
        vec![("points".into(), n.to_string())],
    );
    let exemplars = (0..n.min(pas_obs::trace::EXEMPLARS))
        .map(|_| span(aggregate.span, "exec.point", Vec::new()));
    let mut spans: Vec<_> = exemplars.collect();
    spans.extend([exec, aggregate]);
    let records: Vec<PointReport> = points
        .iter()
        .map(|pt| PointReport {
            index: pt.index,
            key: ResultCache::key(m, pt),
            record: execute_point(m, field.as_ref(), pt),
        })
        .collect();
    ShardReport {
        job: grant.job,
        shard: grant.shard,
        worker,
        points: records,
        spans,
        profile: Vec::new(),
    }
}

/// Span-tree well-formedness: every non-root parent exists, no cycles,
/// and worker spans nest where the protocol says they must
/// (`exec.point` exemplars under their aggregate, under
/// `worker.shard.execute`, under `sched.lease`).
fn assert_well_formed(spans: &[pas_obs::trace::SpanRecord]) {
    use std::collections::HashMap;
    let by_id: HashMap<u64, &pas_obs::trace::SpanRecord> =
        spans.iter().map(|s| (s.span, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "span ids must be unique");
    for s in spans {
        if s.parent == 0 {
            assert_eq!(s.name, "job", "only the root may have parent 0");
            continue;
        }
        assert!(
            by_id.contains_key(&s.parent),
            "span {} ({}) has missing parent {:016x}",
            s.name,
            s.span,
            s.parent
        );
        // Walk to the root; a cycle would never terminate, so bound the
        // walk by the span count.
        let mut cur = s;
        let mut hops = 0;
        while cur.parent != 0 {
            cur = by_id[&cur.parent];
            hops += 1;
            assert!(hops <= spans.len(), "cycle reaching {}", s.name);
        }
        assert_eq!(cur.name, "job", "every chain must end at the root");
        let parent = by_id[&s.parent];
        match s.name.as_str() {
            "worker.shard.execute" | "worker.lease.rtt" => {
                assert_eq!(parent.name, "sched.lease", "worker spans nest under lease")
            }
            "exec.point" | "cache.probe" | "cache.store" if parent.name == s.name => assert!(
                parent.labels.iter().any(|(k, _)| k == "points"),
                "an exemplar {} nests under its aggregate",
                s.name
            ),
            "exec.point" => assert!(
                parent.name == "worker.shard.execute" || parent.name == "job.execute",
                "exec.point under shard execute, got {}",
                parent.name
            ),
            "cache.probe" => assert_eq!(parent.name, "job", "claim probes under the root"),
            "cache.store" => assert_eq!(parent.name, "sched.report", "stores under the report"),
            "sched.lease" | "sched.assemble" | "job.queued" | "job.execute" => {
                assert_eq!(parent.name, "job", "{} hangs off the root", s.name)
            }
            _ => {}
        }
    }
}

proptest! {
    #[test]
    fn any_death_interleaving_is_bit_identical_to_single_worker(
        budgets in prop::collection::vec(0u64..5, 1..4),
        zombie_reports in proptest::any::<bool>(),
    ) {
        let m = tiny_manifest();
        let direct = execute(&m, ExecOptions { threads: 1 }).unwrap();
        let want_csv = pas_scenario::summary_csv(&direct).render();
        let n = direct.records.len();

        let dir = std::env::temp_dir().join(format!(
            "pas_dist_prop_{}_{:?}_{zombie_reports}",
            std::process::id(),
            budgets,
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let queue = JobQueue::new(8);
        let sched = Scheduler::new(
            queue.clone(),
            cache,
            SchedulerOptions {
                lease: LEASE,
                heartbeat: Duration::from_millis(10),
                shard_points: 2,
            },
        );
        let id = queue.submit(m.clone(), n).unwrap();

        // Mortal workers: each leases and executes until its point budget
        // runs out, then vanishes without reporting its current shard.
        // A zombie variant keeps the unreported work and replays it later.
        let mut zombies: Vec<ShardReport> = Vec::new();
        for (w, &budget) in budgets.iter().enumerate() {
            let reg = sched.register(&Register { name: format!("mortal-{w}"), threads: 1 });
            let mut left = budget as usize;
            loop {
                match sched.lease(reg.worker) {
                    LeaseOutcome::Granted(grant) => {
                        if grant.indices.len() > left {
                            // Dies mid-shard: executes what it can, never
                            // reports (or reports late, as a zombie).
                            if zombie_reports && left > 0 {
                                zombies.push(partial_report(&m, &grant, reg.worker, left));
                            }
                            break;
                        }
                        left -= grant.indices.len();
                        let full = partial_report(&m, &grant, reg.worker, grant.indices.len());
                        sched.report(full).unwrap();
                    }
                    LeaseOutcome::Idle => break,
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }

        // Dead workers' leases expire...
        std::thread::sleep(LEASE + Duration::from_millis(20));
        sched.tick();

        // ...and one immortal worker drains whatever is left, racing any
        // zombie replays of abandoned half-shards.
        let reg = sched.register(&Register { name: "immortal".into(), threads: 1 });
        let mut spins = 0;
        while queue.status(id).unwrap().phase != JobPhase::Completed {
            if let Some(z) = zombies.pop() {
                // Late report from a "dead" worker: must dedup cleanly.
                sched.report(z).unwrap();
                continue;
            }
            match sched.lease(reg.worker) {
                LeaseOutcome::Granted(grant) => {
                    let full = partial_report(&m, &grant, reg.worker, grant.indices.len());
                    sched.report(full).unwrap();
                }
                LeaseOutcome::Idle => {
                    // An unexpired lease from a mortal that died between
                    // our sleep and now; wait it out.
                    spins += 1;
                    prop_assert!(spins < 200, "job never completed");
                    std::thread::sleep(Duration::from_millis(5));
                    sched.tick();
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }

        let job = queue.status(id).unwrap();
        prop_assert_eq!(job.stats.hits, 0, "cold cache");
        prop_assert_eq!(
            job.stats.hits + job.stats.misses,
            n as u64,
            "every point recorded exactly once"
        );
        let batch = queue.result(id).unwrap();
        let got_csv = pas_scenario::summary_csv(&batch).render();
        prop_assert_eq!(got_csv, want_csv, "distributed bytes == local bytes");
        for (a, b) in batch.records.iter().zip(&direct.records) {
            prop_assert_eq!(a.delay_s.to_bits(), b.delay_s.to_bits());
            prop_assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
            prop_assert_eq!(a.seed, b.seed);
            prop_assert_eq!(a.events_processed, b.events_processed);
        }

        // The stitched span tree survives the same interleaving: one
        // root, every parent present, no cycles, worker spans nested
        // under the leases that granted them — even with expiries,
        // re-leases, and zombie replays in the mix.
        let tr = job.trace;
        let spans = pas_obs::trace::spans_for(tr.id);
        prop_assert!(
            spans.iter().filter(|s| s.name == "job").count() == 1,
            "exactly one root span"
        );
        prop_assert!(
            spans.iter().any(|s| s.name == "worker.shard.execute"),
            "worker spans must have been ingested"
        );
        assert_well_formed(&spans);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
