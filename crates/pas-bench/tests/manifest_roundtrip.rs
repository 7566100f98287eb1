//! The registry's `paper-default` manifest is the §4 workload that the
//! Fig. 2/3 and channel-ablation binaries here load. This test pins what it
//! declares, so the binaries' workload cannot drift unnoticed.

use pas_core::Scenario;
use pas_scenario::{registry, AxisValues, ProfileSpec, StimulusSpec};

/// The manifest declares the §4 workload: `Scenario::paper_default`, a
/// 0.5 m/s radial front from the corner, 20 replicates from the ICPP'07
/// seed, the Fig. 4 max-sleep axis, and the NS / SAS / PAS policy grid.
#[test]
fn paper_default_manifest_declares_the_harness_workload() {
    let m = registry::builtin("paper-default").unwrap();

    for seed in [m.run.base_seed, 77] {
        assert_eq!(
            m.scenario(seed),
            Scenario::paper_default(seed),
            "Scenario differs"
        );
    }

    match &m.stimulus {
        StimulusSpec::Radial { source, profile } => {
            assert_eq!(*source, (0.0, 0.0));
            assert_eq!(*profile, ProfileSpec::Constant { speed: 0.5 });
        }
        other => panic!("expected radial stimulus, got {other:?}"),
    }

    assert_eq!(m.run.base_seed, 20070910);
    assert_eq!(m.run.replicates, 20);
    assert_eq!(m.sweep.len(), 1);
    assert_eq!(m.sweep[0].field, "max_sleep_s");
    assert_eq!(
        m.sweep[0].values,
        AxisValues::Numeric(vec![1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0])
    );

    // Policy grid: NS, degenerate-alert SAS, PAS at the Fig. 4 threshold.
    assert_eq!(m.policies.len(), 3);
    assert!(m.adaptive_params(&m.policies[0], &[]).unwrap().is_none());
    let pas = m
        .adaptive_params(&m.policies[2], &[])
        .unwrap()
        .expect("pas params");
    assert_eq!(pas.alert_threshold_s, 15.0);
    let sas = m
        .adaptive_params(&m.policies[1], &[])
        .unwrap()
        .expect("sas params");
    assert_eq!(sas.alert_threshold_s, 2.0);
}
