//! Detail profiling attributes every dispatched event to exactly one
//! `sim.event.*` region, so its call counts are exact event counts. A test
//! binary of its own: the profile table is process-global, and nothing
//! else may profile while this test reads it.

use pas_obs::profile::ProfileEntry;
use pas_scenario::{execute, registry, ExecOptions};

#[test]
fn paper_default_event_regions_count_every_dispatched_event() {
    let manifest = registry::builtin("paper-default").expect("builtin parses");
    pas_obs::profile::set_profiling(true);
    pas_obs::profile::set_detail(true);
    pas_obs::profile::reset();
    let batch = execute(&manifest, ExecOptions::default()).expect("paper-default runs");
    pas_obs::profile::set_detail(false);

    let snapshot = pas_obs::profile::snapshot();
    let region = |e: &&ProfileEntry| e.stack.last().cloned().unwrap_or_default();
    let runs: Vec<&ProfileEntry> = snapshot.iter().filter(|e| region(e) == "sim.run").collect();
    let events: Vec<&ProfileEntry> = snapshot
        .iter()
        .filter(|e| region(e).starts_with("sim.event."))
        .collect();
    assert!(events
        .iter()
        .all(|e| e.stack[e.stack.len() - 2] == "sim.run"));
    let calls = |name: &str| -> u64 {
        let of_kind = events.iter().filter(|e| region(e) == name);
        of_kind.map(|e| e.calls).sum()
    };
    let attributed: u64 = events.iter().map(|e| e.calls).sum();

    assert_eq!(calls("sim.event.deliver"), 489_844);
    assert_eq!(calls("sim.event.wake"), 190_480);
    assert_eq!(calls("sim.event.window_end"), 196_081);
    assert_eq!(attributed, 1_026_612);
    assert_eq!(runs.iter().map(|e| e.calls).sum::<u64>(), 540);

    // The rest of Σ events_processed are the deliveries to asleep
    // receivers that the runner counts without queueing them.
    let processed: u64 = batch.records.iter().map(|r| r.events_processed).sum();
    assert_eq!(processed - attributed, 753_172);

    // The event regions are timed inside their runs.
    for run in runs {
        assert!(run.child_ns <= run.total_ns, "{run:?}");
    }
}
