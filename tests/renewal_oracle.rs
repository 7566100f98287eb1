//! An analytic oracle for the wake/sleep cadence. An isolated node (radio
//! range 1 mm, so it never hears a neighbour) under a fixed sleep interval
//! `T` (Δt = 0, base = max = `T`) repeats one cycle of `T + w` seconds:
//! awake for the response window `w` after each wake, then asleep for `T`.
//! A front that arrives while it is awake is detected at once; one that
//! arrives while it sleeps waits for the next wake. With the arrival's
//! phase in the cycle uniform, renewal theory gives the expected delay
//!
//! ```text
//! E[delay] = (1 / (T + w)) ∫₀ᵀ (T − s) ds = T² / (2 (T + w)).
//! ```
//!
//! The relation comes from the model, not from the code under test, so it
//! checks what the event queue carries (each wake and each window end at
//! its time) rather than only that outputs did not move.

use pas::prelude::*;

const SEEDS: std::ops::Range<u64> = 9100..9200;

/// One run of the paper's deployment (30 nodes over 40 m × 40 m, a 0.5 m/s
/// front from the corner) with the radio range cut to 1 mm, sleeping a
/// fixed `t_s` between wakes. The grace after the last arrival is two
/// whole cycles, so every reached node wakes after its arrival.
fn isolated(seed: u64, t_s: f64, policy: fn(AdaptiveParams) -> Policy) -> RunResult {
    let params = AdaptiveParams {
        base_sleep_s: t_s,
        delta_t_s: 0.0,
        max_sleep_s: t_s,
        ..Default::default()
    };
    let scenario = Scenario {
        range_m: 1e-3,
        ..Scenario::paper_default(seed)
    };
    let front = RadialFront::constant(Vec2::new(0.0, 0.0), 0.5);
    let mut config = RunConfig::new(policy(params));
    config.grace_s = 2.0 * (t_s + params.response_window_s);
    run(&scenario, &front, &config)
}

#[test]
fn isolated_fixed_interval_delay_matches_renewal_theory() {
    let w = AdaptiveParams::default().response_window_s;
    for t_s in [2.0, 4.0, 8.0, 16.0] {
        let mut means = Vec::new();
        for seed in SEEDS {
            let sas = isolated(seed, t_s, Policy::Sas);
            let pas = isolated(seed, t_s, Policy::Pas);
            // With no neighbour to hear, PAS has nothing to predict from.
            assert_eq!(sas.delay, pas.delay, "T = {t_s}, seed {seed}");
            assert_eq!(sas.per_node_energy, pas.per_node_energy, "T = {t_s}");
            assert_eq!(sas.events_processed, pas.events_processed);
            assert_eq!(sas.requests_sent, pas.requests_sent);
            assert_eq!(sas.responses_sent, pas.responses_sent);
            assert_eq!(sas.frames_delivered + pas.frames_delivered, 0);
            assert_eq!(
                (sas.delay.detected, sas.delay.missed),
                (sas.delay.reached, 0),
                "T = {t_s}, seed {seed}: every reached node detects"
            );
            means.push(sas.delay.mean_delay_s);
        }
        let n = means.len() as f64;
        let mean = means.iter().sum::<f64>() / n;
        let var = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let se = (var / n).sqrt();
        let want = t_s * t_s / (2.0 * (t_s + w));
        assert!(
            (mean - want).abs() <= 4.0 * se,
            "T = {t_s}: mean delay {mean:.4} s over {n} seeds, theory {want:.4} s, \
             standard error {se:.4} s"
        );
    }
}
