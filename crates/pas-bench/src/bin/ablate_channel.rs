//! **Ablation: imperfect channel.** The paper's §5 future work ("we plan to
//! study the impacts of … imperfect communication channel"), built now.
//!
//! PAS's detection is *sensing*-based — message loss cannot cause missed
//! detections, only degraded predictions (nodes alert later or not at all)
//! and hence longer delays. The sweep measures how gracefully delay decays
//! as i.i.d. frame loss rises, at the Fig. 4 operating point.

use pas_bench::results_dir;
use pas_core::{run, AdaptiveParams, ChannelKind, Policy, RunConfig};
use pas_metrics::{Csv, Table};
use pas_scenario::registry;
use pas_sweep::{parallel_map, summarize, with_seeds};

fn main() {
    let workload = registry::builtin("paper-default").expect("paper-default is built in");
    let field = workload.build_field();
    let losses = [0.0, 0.05, 0.10, 0.20, 0.40];
    let policy = Policy::Pas(AdaptiveParams {
        max_sleep_s: 12.0,
        // PAS's alert threshold in Fig. 4 (and paper-default).
        alert_threshold_s: 15.0,
        ..AdaptiveParams::default()
    });

    let jobs = with_seeds(&losses, workload.run.base_seed, workload.run.replicates);
    let results: Vec<(f64, (f64, f64, f64))> = parallel_map(&jobs, |(loss, seed)| {
        let scenario = workload.scenario(*seed);
        let channel = if *loss == 0.0 {
            ChannelKind::Perfect
        } else {
            ChannelKind::IidLoss(*loss)
        };
        let r = run(
            &scenario,
            &*field,
            &RunConfig::new(policy).with_channel(channel),
        );
        (
            *loss,
            (
                r.delay.mean_delay_s,
                r.mean_energy_j(),
                r.alerted_ever as f64,
            ),
        )
    });

    let delays: Vec<(u64, f64)> = results
        .iter()
        .map(|(l, (d, _, _))| ((l * 100.0) as u64, *d))
        .collect();
    let energies: Vec<(u64, f64)> = results
        .iter()
        .map(|(l, (_, e, _))| ((l * 100.0) as u64, *e))
        .collect();
    let alerted: Vec<(u64, f64)> = results
        .iter()
        .map(|(l, (_, _, a))| ((l * 100.0) as u64, *a))
        .collect();

    let mut table = Table::new(
        "Ablation — i.i.d. frame loss vs PAS performance",
        &["loss_%", "delay_s", "delay_std", "energy_j", "alerted"],
    );
    let mut csv = Csv::new(&[
        "loss_pct",
        "delay_mean_s",
        "delay_std_s",
        "energy_mean_j",
        "alerted_mean",
    ]);
    let ds = summarize(&delays);
    let es = summarize(&energies);
    let als = summarize(&alerted);
    for ((d, e), a) in ds.iter().zip(&es).zip(&als) {
        table.push_row(vec![
            format!("{}", d.key),
            format!("{:.3}", d.mean),
            format!("{:.3}", d.std_dev),
            format!("{:.3}", e.mean),
            format!("{:.1}", a.mean),
        ]);
        csv.push_raw(vec![
            format!("{}", d.key),
            format!("{}", d.mean),
            format!("{}", d.std_dev),
            format!("{}", e.mean),
            format!("{}", a.mean),
        ]);
    }
    print!("{}", table.render());
    let path = results_dir().join("ablate_channel.csv");
    csv.write(&path).expect("write csv");
    println!("wrote {}", path.display());
}
