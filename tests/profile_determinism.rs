//! Profiling must be a pure observer: executing every golden registry
//! scenario with region profiling on — detail regions included, the
//! most invasive configuration the profiler has — must reproduce the
//! exact bytes `tests/golden/*.csv` pins for the uninstrumented path.
//! Detail profiling swaps in the runner's timed event loop (the
//! `sim.event.*` regions), so any profiler side effect on event order,
//! RNG draws, or float accumulation would surface here as a byte diff.

use pas_scenario::{execute, registry, summary_csv, ExecOptions};

fn csv_of(name: &str) -> String {
    let m = registry::builtin(name).unwrap_or_else(|| panic!("`{name}` registered"));
    let batch = execute(&m, ExecOptions::default()).unwrap();
    summary_csv(&batch).render()
}

#[test]
fn golden_csvs_are_byte_identical_with_profiling_on() {
    pas_obs::profile::set_profiling(true);
    pas_obs::profile::set_detail(true);
    let goldens = [
        ("paper-default", include_str!("golden/paper-default.csv")),
        ("paper-alert", include_str!("golden/paper-alert.csv")),
        ("wildfire-front", include_str!("golden/wildfire-front.csv")),
        ("gas-leak-city", include_str!("golden/gas-leak-city.csv")),
        (
            "plume-monitoring",
            include_str!("golden/plume-monitoring.csv"),
        ),
    ];
    for (name, want) in goldens {
        let got = csv_of(name);
        assert!(
            got == want,
            "`{name}` summary CSV drifted under profiling\n\
             --- got ---\n{got}\n--- want ---\n{want}"
        );
    }
    pas_obs::profile::set_detail(false);

    // The equality above only means something if the profiler was live:
    // the scenario seams must actually have recorded into the table.
    let folded = pas_obs::profile::render_folded();
    for region in ["exec.point", "exec.reduce", "sim.run", "sim.event.wake"] {
        assert!(
            folded.contains(region),
            "profile table is missing `{region}`:\n{folded}"
        );
    }
    // And the rendering itself is canonical: a second render of the
    // same table state is byte-identical.
    assert_eq!(folded, pas_obs::profile::render_folded());
}
