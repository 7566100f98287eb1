//! # Wildfire front over heterogeneous terrain — FMM ground truth,
//! failures, and a lossy channel, all at once
//!
//! The hardest scenario in this repository: a fire front crossing terrain
//! whose local spread rate varies (grassland fast, rock slow, a damp creek
//! bed nearly stalls it). The ground truth is the eikonal first-arrival
//! field solved by Fast Marching — the paper's "spreads along the boundary
//! normal" assumption generalised to heterogeneous media. On top we enable
//! both of the paper's §5 future-work stressors: sensors destroyed by the
//! fire itself (failure injection) and a degraded radio channel.
//!
//! The terrain, deployment, failure plan, and channel all come from the
//! built-in `wildfire-front` manifest (`pas show wildfire-front` prints
//! it); this example peels the stressors back on one by one to show what
//! each costs.
//!
//! ```text
//! cargo run --release --example wildfire_front
//! ```

use pas::prelude::*;
use pas_scenario::failure_plan;

fn main() {
    // Terrain-dependent spread rate (m/s): fast grass in the open, a slow
    // rocky band, and a damp creek that nearly stops the front — declared
    // as `[[stimulus.patches]]` rectangles in the manifest and solved by
    // Fast Marching here.
    let manifest = registry::builtin("wildfire-front").expect("registered scenario");
    let region = manifest.region();
    let fire = manifest.stimulus.build_eikonal(region);

    // 90 sensors dropped by air (uniform), 18 m radio range.
    let scenario = manifest.scenario(manifest.run.base_seed);

    // The fire destroys sensors ~30 s after the front passes them
    // (`[failures] kind = "front_kill"` in the manifest).
    let failures = failure_plan(&manifest, &scenario, &fire, &[]);

    println!("Wildfire over heterogeneous terrain — FMM fronts + failures + loss\n");
    println!(
        "{:<28} {:>9} {:>10} {:>7} {:>8}",
        "configuration", "delay(s)", "energy(J)", "missed", "alerted"
    );

    let pas = manifest
        .policy(&manifest.policies[0], &[])
        .expect("valid policy");

    let configs: Vec<(&str, RunConfig)> = vec![
        ("PAS, clean channel", RunConfig::new(pas)),
        (
            "PAS + fire kills sensors",
            RunConfig::new(pas).with_failures(failures.clone()),
        ),
        (
            // The manifest's full configuration: kills + its lossy channel.
            "PAS + kills + 20% loss",
            RunConfig::new(pas)
                .with_failures(failures.clone())
                .with_channel(manifest.channel.kind()),
        ),
        (
            "PAS + kills + grey region",
            RunConfig::new(pas)
                .with_failures(failures)
                .with_channel(ChannelKind::DistanceLoss(0.6, 0.8)),
        ),
    ];

    for (label, cfg) in &configs {
        let result = run(&scenario, &fire, cfg);
        println!(
            "{:<28} {:>9.3} {:>10.3} {:>7} {:>8}",
            label,
            result.delay.mean_delay_s,
            result.mean_energy_j(),
            result.delay.missed,
            result.alerted_ever,
        );
    }

    // Terrain sanity: the creek shields the far bank for a long time.
    let near_bank = fire.first_arrival_time(Vec2::new(60.0, 60.0));
    let far_bank = fire.first_arrival_time(Vec2::new(60.0, 80.0));
    println!(
        "\nTerrain check: front reaches (60,60) at {:.0} s, but the far side\n\
         of the creek (60,80) only at {:.0} s — the damp band buys {:.0} s.",
        near_bank.unwrap().as_secs(),
        far_bank.unwrap().as_secs(),
        far_bank.unwrap().as_secs() - near_bank.unwrap().as_secs()
    );
}
