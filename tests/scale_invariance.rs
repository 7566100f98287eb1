//! A metamorphic oracle for the engine: scaling the region, the radio
//! range and the radial front's speed by one factor `k` leaves every
//! arrival time, the topology and every time constant where they were, so
//! the whole run must come out the same. For `k` a power of two the
//! scaling is exact in binary floating point, so "the same" means bit for
//! bit. The relation comes from the physics, not from the code under
//! test: it holds for any correct engine, queue or predictor.

use pas::prelude::*;
use pas_core::PredictorSpec;
use pas_geom::Aabb;

const SEEDS: std::ops::Range<u64> = 7000..7010;

/// The paper's §4 setup (30 nodes, 40 m × 40 m, 10 m range, a 0.5 m/s
/// front from the corner) with lengths and the speed scaled by `k`.
fn run_scaled(k: f64, seed: u64, policy: Policy) -> RunResult {
    let scenario = Scenario {
        region: Aabb::from_size(40.0 * k, 40.0 * k),
        range_m: 10.0 * k,
        ..Scenario::paper_default(seed)
    };
    let front = RadialFront::constant(Vec2::new(0.0, 0.0), 0.5 * k);
    run(&scenario, &front, &RunConfig::new(policy))
}

/// The result fields the relation covers, with every `f64` as its `Debug`
/// rendering (shortest round trip, so equal strings are equal bits).
fn fingerprint(r: &RunResult) -> String {
    format!(
        "{:?} {:?} events={} requests={} responses={} duration={:?}",
        r.delay,
        r.per_node_energy,
        r.events_processed,
        r.requests_sent,
        r.responses_sent,
        r.duration_s
    )
}

#[test]
fn scaling_lengths_and_speed_together_changes_no_result() {
    let policies = [
        Policy::Ns,
        Policy::Oracle,
        Policy::sas_default(),
        Policy::pas_default(),
        Policy::pas_with(PredictorSpec::Kalman(Default::default())),
    ];
    let mut compared = 0;
    for policy in policies {
        for seed in SEEDS {
            let base = run_scaled(1.0, seed, policy);
            assert!(base.events_processed > 0);
            for k in [0.5, 2.0, 4.0] {
                assert_eq!(
                    fingerprint(&run_scaled(k, seed, policy)),
                    fingerprint(&base),
                    "{} seed {seed}, k = {k}",
                    policy.label()
                );
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 150);
}
