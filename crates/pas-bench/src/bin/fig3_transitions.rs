//! **Figure 3 (schematic)** — the node state-transition diagram, printed as
//! the legality matrix the implementation enforces (`NodeState::
//! can_transition_to`), plus the transition census of a real run showing
//! which edges actually fire and how often.

use pas_core::{run, NodeState, Policy, RunConfig};
use pas_scenario::registry;
use std::collections::BTreeMap;

fn main() {
    let states = [NodeState::Safe, NodeState::Alert, NodeState::Covered];
    println!("Figure 3 (schematic) — state transition legality (rows: from)\n");
    print!("{:>9}", "");
    for to in states {
        print!("{:>9}", to.label());
    }
    println!();
    for from in states {
        print!("{:>9}", from.label());
        for to in states {
            let mark = if from == to {
                "-"
            } else if from.can_transition_to(to) {
                "yes"
            } else {
                "no"
            };
            print!("{mark:>9}");
        }
        println!();
    }

    // Census over a real run: which edges fire, and how often.
    let workload = registry::builtin("paper-default").expect("paper-default is built in");
    let scenario = workload.scenario(workload.run.base_seed);
    let field = workload.build_field();
    let r = run(
        &scenario,
        &*field,
        &RunConfig::new(Policy::pas_default()).with_timeline(),
    );
    let tl = r.timeline.expect("timeline requested");
    let mut census: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for rec in &tl.transitions {
        *census
            .entry((rec.from.label(), rec.to.label()))
            .or_default() += 1;
    }
    println!(
        "\nTransition census of one PAS run ({} transitions):",
        tl.transitions.len()
    );
    for ((from, to), count) in &census {
        println!("  {from:>8} -> {to:<8} {count:>4}");
    }
    assert!(
        census.keys().all(|_| true) && tl.first_illegal_transition().is_none(),
        "every fired edge must be legal"
    );
}
