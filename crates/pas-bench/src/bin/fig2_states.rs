//! **Figure 2 (schematic)** — "Sensor statuses": the covered core, the
//! irregular alert ring, and the safe outskirts.
//!
//! The paper's Fig. 2 is a hand drawing; we regenerate it from a real PAS
//! run with timeline recording: an ASCII map of the deployment at three
//! instants, `C` = covered, `A` = alert, `s` = safe-awake, `.` = sleeping.

use pas_core::{run, AdaptiveParams, NodeState, Policy, RunConfig};
use pas_scenario::registry;
use pas_sim::SimTime;

const GRID_W: usize = 40;
const GRID_H: usize = 20;

fn main() {
    let workload = registry::builtin("paper-default").expect("paper-default is built in");
    let scenario = workload.scenario(workload.run.base_seed);
    let field = workload.build_field();
    let policy = Policy::Pas(AdaptiveParams {
        max_sleep_s: 12.0,
        alert_threshold_s: 20.0,
        ..AdaptiveParams::default()
    });
    let r = run(&scenario, &*field, &RunConfig::new(policy).with_timeline());
    let tl = r.timeline.as_ref().expect("timeline requested");
    let positions = scenario.positions();

    println!("Figure 2 (schematic) — sensor statuses over time (seed fixed)");
    println!("source at lower-left corner; C covered, A alert, s safe-awake, . sleeping\n");

    for frac in [0.25, 0.5, 0.75] {
        let t = SimTime::from_secs(r.duration_s * frac);
        let (c, a, s) = tl.state_counts_at(positions.len(), t);
        println!(
            "t = {:>5.1} s   covered {c:2}  alert {a:2}  safe {s:2}",
            t.as_secs()
        );
        let mut canvas = vec![vec![' '; GRID_W]; GRID_H];
        for (i, &p) in positions.iter().enumerate() {
            let cx = ((p.x / scenario.region.width()) * (GRID_W - 1) as f64).round() as usize;
            let cy = ((p.y / scenario.region.height()) * (GRID_H - 1) as f64).round() as usize;
            let ch = match tl.state_at(i, t) {
                NodeState::Covered => 'C',
                NodeState::Alert => 'A',
                NodeState::Safe => {
                    if tl.awake_at(i, t, false) {
                        's'
                    } else {
                        '.'
                    }
                }
            };
            canvas[GRID_H - 1 - cy][cx.min(GRID_W - 1)] = ch;
        }
        for row in &canvas {
            let line: String = row.iter().collect();
            println!("  |{line}|");
        }
        println!();
    }
    println!(
        "Run summary: {} alerted ever, mean delay {:.2} s, {:.2} J/node.",
        r.alerted_ever,
        r.delay.mean_delay_s,
        r.mean_energy_j()
    );
}
