//! A run allocates the same whatever its horizon: simulated time that
//! passes costs events, not memory. And it allocates no more than a named
//! ceiling. A test binary of its own, so that its counting allocator sees
//! only this test.

use pas_core::RunConfig;
use pas_scenario::{expand, registry};

mod counting;

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

/// The most allocation calls one paper-default PAS point may make. Setup
/// allocates the world's arrays once; the event loop allocates nothing, so
/// a change that raises this count adds per-run work to every point.
const PAS_POINT_ALLOCATIONS: usize = 40;

/// One paper-default PAS point run to 100 s and to 1600 s of simulated
/// time: the 1,500 s of sleep/wake cycles the longer run adds must not
/// allocate, and the run stays under [`PAS_POINT_ALLOCATIONS`].
#[test]
fn a_runs_allocations_do_not_grow_with_its_horizon() {
    let manifest = registry::builtin("paper-default").expect("builtin parses");
    let field = manifest.build_field();
    let points = expand(&manifest).expect("paper-default expands");
    let point = points
        .iter()
        .find(|p| p.policy_label == "PAS")
        .expect("paper-default runs PAS");
    let scenario = manifest.scenario_for(point.seed, &point.assignments);
    let allocations = |horizon_s: f64| {
        let config = RunConfig::new(point.policy).with_horizon(horizon_s);
        let (result, calls, _) = counting::counted(|| pas_core::run(&scenario, &*field, &config));
        (calls, result.events_processed)
    };
    allocations(100.0); // warm-up: one-time statics and interned names
    let (short, short_events) = allocations(100.0);
    let (long, long_events) = allocations(1600.0);
    assert!(long_events > short_events, "{short_events} → {long_events}");
    assert_eq!(
        short, long,
        "100 s run: {short} allocations, 1600 s: {long}"
    );
    assert!(
        short <= PAS_POINT_ALLOCATIONS,
        "a PAS point made {short} allocation calls, over {PAS_POINT_ALLOCATIONS}"
    );
}
