//! **Ablation: sensor failures.** The paper's §5 future work ("we plan to
//! study the impacts of sensor failure"), built now.
//!
//! Nodes die at uniformly random times with probability `p` each. Dead
//! nodes reached by the stimulus count as misses; surviving nodes' delay
//! degrades because the prediction fabric thins (fewer repliers per probe).

use pas_bench::results_dir;
use pas_core::{run, AdaptiveParams, FailurePlan, Policy, RunConfig};
use pas_metrics::{Csv, Table};
use pas_scenario::registry;
use pas_sim::Rng;
use pas_sweep::{parallel_map, summarize, with_seeds};

fn main() {
    let workload = registry::builtin("paper-default").expect("paper-default is built in");
    let field = workload.build_field();
    let rates = [0.0, 0.1, 0.2, 0.3, 0.5];
    let policy = Policy::Pas(AdaptiveParams {
        max_sleep_s: 12.0,
        // PAS's alert threshold in Fig. 4 (and paper-default).
        alert_threshold_s: 15.0,
        ..AdaptiveParams::default()
    });

    let jobs = with_seeds(&rates, workload.run.base_seed, workload.run.replicates);
    let results: Vec<(u64, (f64, f64, f64))> = parallel_map(&jobs, |(rate, seed)| {
        let scenario = workload.scenario(*seed);
        // Failure times from a seed-derived stream (label 0xFA11) so the
        // plan is deterministic per (rate, seed) but independent of the
        // channel/deploy streams.
        let mut rng = Rng::substream(*seed, 0xFA11);
        let failures = FailurePlan::random(scenario.node_count, *rate, 60.0, &mut rng);
        let r = run(
            &scenario,
            &*field,
            &RunConfig::new(policy).with_failures(failures),
        );
        (
            (rate * 100.0) as u64,
            (
                r.delay.mean_delay_s,
                r.delay.missed as f64,
                r.mean_energy_j(),
            ),
        )
    });

    let delays: Vec<(u64, f64)> = results.iter().map(|(k, (d, _, _))| (*k, *d)).collect();
    let misses: Vec<(u64, f64)> = results.iter().map(|(k, (_, m, _))| (*k, *m)).collect();
    let energies: Vec<(u64, f64)> = results.iter().map(|(k, (_, _, e))| (*k, *e)).collect();

    let mut table = Table::new(
        "Ablation — random node failures vs PAS performance",
        &["fail_%", "delay_s", "missed_nodes", "energy_j"],
    );
    let mut csv = Csv::new(&["fail_pct", "delay_mean_s", "missed_mean", "energy_mean_j"]);
    let ds = summarize(&delays);
    let ms = summarize(&misses);
    let es = summarize(&energies);
    for ((d, m), e) in ds.iter().zip(&ms).zip(&es) {
        table.push_row(vec![
            format!("{}", d.key),
            format!("{:.3}", d.mean),
            format!("{:.2}", m.mean),
            format!("{:.3}", e.mean),
        ]);
        csv.push_raw(vec![
            format!("{}", d.key),
            format!("{}", d.mean),
            format!("{}", m.mean),
            format!("{}", e.mean),
        ]);
    }
    print!("{}", table.render());
    let path = results_dir().join("ablate_failures.csv");
    csv.write(&path).expect("write csv");
    println!("wrote {}", path.display());
}
