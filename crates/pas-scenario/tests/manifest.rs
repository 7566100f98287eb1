//! Manifest-layer integration tests: lossless round-trips, unknown-key
//! rejection across sections, matrix expansion counts, and semantic
//! validation errors.

use pas_core::{AdaptiveParams, Policy, Scenario};
use pas_scenario::manifest::{set_param, PARAM_FIELDS};
use pas_scenario::{expand, registry, Manifest};

#[test]
fn builtin_manifests_round_trip_losslessly() {
    for (name, _) in registry::BUILTINS {
        let m = registry::builtin(name).unwrap();
        let text = m.to_toml();
        let back = Manifest::parse(&text)
            .unwrap_or_else(|e| panic!("re-parsing serialised `{name}`: {e}\n---\n{text}"));
        assert_eq!(back, m, "round-trip changed `{name}`");
    }
}

#[test]
fn round_trip_preserves_every_stimulus_and_failure_kind() {
    // A manifest exercising the variants the builtins don't cover.
    let src = r#"
        [scenario]
        name = "kitchen-sink"
        description = "all the other variants"

        [deployment]
        region = [50.0, 30.0]
        nodes = 12
        range_m = 9.0
        kind = "poisson"
        min_dist = 4.0

        [stimulus]
        kind = "radial"
        source = [1.0, 2.0]
        profile = { kind = "decaying", v0 = 2.0, tau = 12.0 }

        [channel]
        kind = "distance"
        good_fraction = 0.6
        edge_loss = 0.8

        [failures]
        kind = "random"
        p = 0.25
        horizon_s = 90.0

        [run]
        base_seed = 5
        replicates = 3
        grace_s = 10.0
        horizon_s = 400.0

        [[policies]]
        kind = "pas"
        label = "PAS-wide"
        alert_threshold_s = 30.0

        [[policies]]
        kind = "oracle"

        [sweep]
        max_sleep_s = [2.0, 4.0]
        delta_t_s = [0.5, 1.0]
    "#;
    let m = Manifest::parse(src).unwrap();
    let back = Manifest::parse(&m.to_toml()).unwrap();
    assert_eq!(back, m);
    assert_eq!(m.run.horizon_s, Some(400.0));
    assert_eq!(m.policies[0].label, "PAS-wide");
}

fn paper_src() -> String {
    registry::raw("paper-default").unwrap().to_string()
}

#[test]
fn unknown_keys_rejected_in_every_section() {
    // Root-level junk.
    let bad = format!("{}\n[unexpected]\nx = 1\n", paper_src());
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("unknown key `unexpected`"), "{e}");

    // Section-level typo: `node` for `nodes`.
    let bad = paper_src().replace("nodes = 30", "node = 30");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("unknown key `node`"), "{e}");

    // Policy-level typo.
    let bad = paper_src().replace("alert_threshold_s = 15.0", "alert_treshold_s = 15.0");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("unknown key `alert_treshold_s`"), "{e}");

    // Sweeping a nonexistent field.
    let bad = paper_src().replace("[sweep]\nmax_sleep_s", "[sweep]\nmax_zzz_s");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("cannot sweep unknown field"), "{e}");
}

#[test]
fn semantic_validation_catches_inconsistencies() {
    // Grid dims must multiply to the node count.
    let src = registry::raw("gas-leak-city").unwrap();
    let bad = src.replace("cols = 10", "cols = 7");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("grid"), "{e}");

    // A sweep value violating the AdaptiveParams invariants is caught at
    // parse time, not as a panic mid-batch.
    let bad = paper_src().replace(
        "max_sleep_s = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0]",
        "max_sleep_s = [0.5]",
    );
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("max_sleep_s"), "{e}");

    // NS takes no parameters.
    let bad = paper_src().replace("kind = \"ns\"", "kind = \"ns\"\nmax_sleep_s = 3.0");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("takes no parameters"), "{e}");

    // Zero replicates make no sense.
    let bad = paper_src().replace("replicates = 20", "replicates = 0");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("replicates"), "{e}");
}

/// Parameters the runtime constructors would panic on are rejected at
/// parse time with a recoverable error — `pas validate` must never
/// approve a manifest that `pas run` aborts on.
#[test]
fn validation_mirrors_runtime_constructor_panics() {
    // Stimulus profile: a non-positive front speed.
    let bad = paper_src().replace("speed = 0.5", "speed = -1.0");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("speed"), "{e}");

    // Anisotropic skew out of domain (|k| must be < 1).
    let src = registry::raw("gas-leak-city").unwrap();
    let bad = src.replace("k = 0.5", "k = 1.5");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("|k|"), "{e}");

    // Plume with a non-positive diffusivity.
    let src = registry::raw("plume-monitoring").unwrap();
    let bad = src.replace("diffusivity = 0.8", "diffusivity = 0.0");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("diffusivity"), "{e}");

    // Eikonal source outside the deployment region.
    let src = registry::raw("wildfire-front").unwrap();
    let bad = src.replace("sources = [[5.0, 5.0]]", "sources = [[500.0, 5.0]]");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("outside"), "{e}");

    // IID loss of exactly 1.0 would silence the network: the runtime
    // channel constructor rejects it, so validation must too.
    let bad = src.replace("loss = 0.2", "loss = 1.0");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("[0, 1)"), "{e}");

    // Distance-channel fractions must be probabilities.
    let bad = src.replace(
        "kind = \"iid\"\nloss = 0.2",
        "kind = \"distance\"\ngood_fraction = 2.0\nedge_loss = 0.5",
    );
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("good_fraction"), "{e}");

    // Time fields the runner turns into `SimTime`s: a negative grace
    // (default horizon = last arrival + grace_s), a non-positive horizon
    // (`RunConfig::with_horizon`) and a negative front-kill delay
    // (death = arrival + delay_s) all abort `pas run`.
    let bad = paper_src().replace("grace_s = 15.0", "grace_s = -1000.0");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("grace_s"), "{e}");
    // An overflowing literal reads as +inf: the run would never end.
    let bad = paper_src().replace("grace_s = 15.0", "grace_s = 1e999");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("grace_s"), "{e}");
    let bad = paper_src().replace("grace_s = 15.0", "grace_s = 15.0\nhorizon_s = -3.0");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("horizon_s"), "{e}");
    let bad = src.replace("delay_s = 30.0", "delay_s = -1000.0");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("delay_s"), "{e}");

    // Adaptive parameters: manifest validation and the runner read one
    // list of rules (`AdaptiveParams::check`). A negative broadcast gap
    // trips an assert in the runner; an overflowing literal reads as +inf
    // and cannot become a `SimTime` or an RNG range, in a policy key or
    // at one end of a sweep axis.
    let pas = "alert_threshold_s = 15.0";
    let bad = paper_src().replace(pas, &format!("{pas}\nmin_broadcast_gap_s = -1.0"));
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("min_broadcast_gap_s"), "{e}");
    let bad = paper_src().replace(pas, &format!("{pas}\nresponse_window_s = 1e309"));
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("response_window_s must be finite"), "{e}");
    let bad = paper_src().replace(
        "max_sleep_s = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0]",
        "max_sleep_s = [4.0, 1e309]",
    );
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("max_sleep_s must be finite"), "{e}");

    // Poisson-disk separation must be positive.
    let src = registry::raw("plume-monitoring").unwrap();
    let bad = src.replace("min_dist = 6.0", "min_dist = 0.0");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("min_dist"), "{e}");

    // The `speed` shorthand and an explicit `profile` are mutually
    // exclusive — silently preferring one would run the wrong stimulus.
    let bad = paper_src().replace(
        "profile = { kind = \"constant\", speed = 0.5 }",
        "speed = 0.5\nprofile = { kind = \"decaying\", v0 = 2.0, tau = 5.0 }",
    );
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("both `speed` and `profile`"), "{e}");
}

/// Every adaptive parameter must be finite: +inf and NaN break the rule
/// list, and the message names the field.
#[test]
fn every_adaptive_parameter_must_be_finite() {
    for field in PARAM_FIELDS {
        for value in [f64::INFINITY, f64::NAN] {
            let mut p = AdaptiveParams::default();
            set_param(&mut p, field, value).unwrap();
            let msg = p.check().unwrap_err();
            assert!(msg.starts_with(field), "{field} = {value}: {msg}");
        }
    }
}

/// Strings survive the round-trip even with characters that need escaping;
/// raw control characters are rejected by the reader instead of silently
/// breaking `parse(to_toml(m)) == m`.
#[test]
fn string_escapes_round_trip_and_control_chars_are_rejected() {
    let src = paper_src().replace(
        "description = \"Paper §4 workload: 30 nodes, 10 m range, 0.5 m/s radial front; Fig. 4 max-sleep sweep\"",
        r#"description = "line one\nline \"two\"\t\\end""#,
    );
    let m = Manifest::parse(&src).unwrap();
    assert_eq!(m.description, "line one\nline \"two\"\t\\end");
    let back = Manifest::parse(&m.to_toml()).unwrap();
    assert_eq!(back, m);

    // A raw vertical-tab byte inside a basic string is a parse error, not
    // a value that to_toml could never re-serialise.
    let bad = paper_src().replace("Paper §4 workload", "Paper \x0b workload");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("control character"), "{e}");
}

/// Every control character round-trips: `to_toml` writes the ones the
/// reader rejects raw (all of U+0000–U+001F but `\t`, `\n`, `\r`, and
/// U+007F) as `\uXXXX`, so a manifest a client serialised itself always
/// parses.
#[test]
fn control_characters_round_trip_as_unicode_escapes() {
    let controls: String = ('\u{0}'..='\u{1f}').chain(['\u{7f}']).collect();
    let mut m = registry::builtin("paper-default").unwrap();
    m.name = format!("ctl{controls}");
    m.description = format!("<{controls}>");
    let toml = m.to_toml();
    assert!(
        toml.contains("\\u0001") && toml.contains("\\u007F"),
        "{toml}"
    );
    assert!(
        !toml
            .chars()
            .any(|c| c != '\n' && (c < ' ' || c == '\u{7f}')),
        "no raw control character but newlines"
    );
    assert_eq!(Manifest::parse(&toml).unwrap(), m);
}

#[test]
fn expansion_counts_axes_times_policies_times_seeds() {
    let m = registry::builtin("paper-default").unwrap();
    let points = expand(&m).unwrap();
    // 9 axis values × 3 policies × 20 seeds.
    assert_eq!(points.len(), 9 * 3 * 20);

    // Matrix order: axis slowest, then policy, then seed.
    assert_eq!(points[0].x, 1.0);
    assert_eq!(points[0].policy_label, "NS");
    assert_eq!(points[0].seed, 20_070_910);
    assert_eq!(points[19].seed, 20_070_910 + 19);
    assert_eq!(points[20].policy_label, "SAS");
    assert_eq!(points[60].x, 2.0);

    // The manifest deploys exactly `Scenario::paper_default`, which the
    // paper-claims and cross-crate tests run on directly.
    for seed in [points[0].seed, 77] {
        assert_eq!(m.scenario(seed), Scenario::paper_default(seed));
    }

    // The swept value lands in the instantiated policy.
    let pas_at_16: Vec<_> = points
        .iter()
        .filter(|p| p.policy_label == "PAS" && p.x == 16.0)
        .collect();
    assert_eq!(pas_at_16.len(), 20);
    match pas_at_16[0].policy {
        Policy::Pas(params) => {
            assert_eq!(params.max_sleep_s, 16.0);
            assert_eq!(params.alert_threshold_s, 15.0, "fixed override kept");
        }
        ref other => panic!("expected PAS, got {other:?}"),
    }
}

#[test]
fn multi_axis_expansion_is_cartesian() {
    let src = r#"
        [scenario]
        name = "two-axes"
        [deployment]
        region = [40.0, 40.0]
        nodes = 30
        range_m = 10.0
        kind = "uniform"
        [stimulus]
        kind = "radial"
        source = [0.0, 0.0]
        profile = { kind = "constant", speed = 0.5 }
        [run]
        base_seed = 1
        replicates = 3
        [[policies]]
        kind = "pas"
        [sweep]
        max_sleep_s = [4.0, 8.0]
        alert_threshold_s = [10.0, 20.0, 30.0]
    "#;
    let m = Manifest::parse(src).unwrap();
    let points = expand(&m).unwrap();
    let (axis_a, axis_b, policies, seeds) = (2, 3, 1, 3);
    assert_eq!(points.len(), axis_a * axis_b * policies * seeds);
    // x is the first declared axis.
    assert!(points.iter().all(|p| p.x == 4.0 || p.x == 8.0));
    // Both assignments reach the policy.
    match points[0].policy {
        Policy::Pas(params) => {
            assert_eq!(params.max_sleep_s, 4.0);
            assert_eq!(params.alert_threshold_s, 10.0);
        }
        ref other => panic!("expected PAS, got {other:?}"),
    }
}

#[test]
fn fixed_point_manifests_expand_to_policies_times_seeds() {
    let m = registry::builtin("plume-monitoring").unwrap();
    let points = expand(&m).unwrap();
    assert_eq!(points.len(), 3 * 4); // 3 policies × 4 replicates, no axes
    assert!(points.iter().all(|p| p.x == 0.0));
}

#[test]
fn sweep_axis_wins_over_policy_override() {
    // Sweeping a field a policy also pins: the axis is the experiment
    // variable, so it must win (documented semantics).
    let src = r#"
        [scenario]
        name = "axis-vs-override"
        [deployment]
        region = [40.0, 40.0]
        nodes = 30
        range_m = 10.0
        kind = "uniform"
        [stimulus]
        kind = "radial"
        source = [0.0, 0.0]
        profile = { kind = "constant", speed = 0.5 }
        [run]
        base_seed = 1
        replicates = 1
        [[policies]]
        kind = "pas"
        max_sleep_s = 99.0
        [sweep]
        max_sleep_s = [5.0]
    "#;
    let m = Manifest::parse(src).unwrap();
    let points = expand(&m).unwrap();
    match points[0].policy {
        Policy::Pas(params) => assert_eq!(params.max_sleep_s, 5.0),
        ref other => panic!("expected PAS, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// predictor layer
// ---------------------------------------------------------------------------

fn pas_with_predictor(decl: &str, sweep: &str) -> String {
    format!(
        r#"
[scenario]
name = "predictor-test"

[deployment]
region = [40.0, 40.0]
nodes = 30
range_m = 10.0
kind = "uniform"

[stimulus]
kind = "radial"
source = [0.0, 0.0]
profile = {{ kind = "constant", speed = 0.5 }}

[run]
base_seed = 1
replicates = 2

[[policies]]
kind = "pas"
{decl}
{sweep}
"#
    )
}

#[test]
fn predictor_names_and_parameter_tables_parse() {
    use pas_core::{KalmanParams, PredictorSpec, QuantileParams};
    let cases: [(&str, PredictorSpec); 6] = [
        ("predictor = \"planar\"", PredictorSpec::PlanarFront),
        (
            "predictor = \"non_directional\"",
            PredictorSpec::NonDirectional,
        ),
        (
            "predictor = \"kalman\"",
            PredictorSpec::Kalman(KalmanParams::default()),
        ),
        (
            "predictor = { kind = \"kalman\", process_var = 0.2, measurement_var = 0.9 }",
            PredictorSpec::Kalman(KalmanParams {
                process_var: 0.2,
                measurement_var: 0.9,
            }),
        ),
        (
            "predictor = \"quantile\"",
            PredictorSpec::RobustQuantile(QuantileParams::default()),
        ),
        (
            "predictor = { kind = \"quantile\", k = 3 }",
            PredictorSpec::RobustQuantile(QuantileParams { k: 3 }),
        ),
    ];
    for (decl, want) in cases {
        let m = Manifest::parse(&pas_with_predictor(decl, "")).unwrap_or_else(|e| {
            panic!("parsing `{decl}`: {e}");
        });
        assert_eq!(m.policies[0].predictor, Some(want), "decl `{decl}`");
        // Lossless round-trip through canonical TOML.
        let back = Manifest::parse(&m.to_toml()).unwrap();
        assert_eq!(back, m, "round-trip changed `{decl}`");
    }
}

#[test]
fn predictor_default_labels_qualify_non_default_variants() {
    let m = Manifest::parse(&pas_with_predictor("predictor = \"kalman\"", "")).unwrap();
    assert_eq!(m.policies[0].label, "PAS[kalman]");
    let m = Manifest::parse(&pas_with_predictor("predictor = \"planar\"", "")).unwrap();
    assert_eq!(m.policies[0].label, "PAS", "kind default keeps bare label");
    let m = Manifest::parse(&pas_with_predictor("", "")).unwrap();
    assert_eq!(m.policies[0].label, "PAS");
}

#[test]
fn predictor_declarations_are_validated() {
    // Unknown name.
    let e = Manifest::parse(&pas_with_predictor("predictor = \"psychic\"", "")).unwrap_err();
    assert!(e.msg.contains("unknown predictor `psychic`"), "{e}");
    // Unknown parameter key in the table form.
    let e = Manifest::parse(&pas_with_predictor(
        "predictor = { kind = \"kalman\", sigma = 1.0 }",
        "",
    ))
    .unwrap_err();
    assert!(e.msg.contains("unknown key `sigma`"), "{e}");
    // Out-of-range parameters.
    let e = Manifest::parse(&pas_with_predictor(
        "predictor = { kind = \"quantile\", k = 0 }",
        "",
    ))
    .unwrap_err();
    assert!(e.msg.contains("k` must be an integer >= 1"), "{e}");
    let e = Manifest::parse(&pas_with_predictor(
        "predictor = { kind = \"kalman\", measurement_var = 0.0 }",
        "",
    ))
    .unwrap_err();
    assert!(e.msg.contains("measurement_var"), "{e}");
    // Parameterless policies take no predictor.
    let bad = pas_with_predictor("", "")
        .replace("kind = \"pas\"", "kind = \"ns\"\npredictor = \"kalman\"");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("takes no predictor"), "{e}");
}

#[test]
fn predictor_sweep_axis_expands_and_labels_variants() {
    let m = Manifest::parse(&pas_with_predictor(
        "",
        "[sweep]\npredictor = [\"planar\", \"non_directional\", \"kalman\", \"quantile\"]",
    ))
    .unwrap();
    let points = expand(&m).unwrap();
    assert_eq!(points.len(), 4 * 2, "variants x seeds");
    let labels: Vec<&str> = points.iter().map(|p| p.policy_label.as_str()).collect();
    assert!(labels.contains(&"PAS[planar]"));
    assert!(labels.contains(&"PAS[non_directional]"));
    assert!(labels.contains(&"PAS[kalman]"));
    assert!(labels.contains(&"PAS[quantile]"));
    // The x value of a names-first axis is the variant index.
    assert_eq!(points[0].x, 0.0);
    assert_eq!(points[2].x, 1.0);
    // Swept predictors override a declared one, and the label shows the
    // swept name, not a stacked suffix.
    let declared = Manifest::parse(&pas_with_predictor(
        "predictor = \"kalman\"",
        "[sweep]\npredictor = [\"planar\", \"quantile\"]",
    ))
    .unwrap();
    let pts = expand(&declared).unwrap();
    assert_eq!(pts[0].policy_label, "PAS[planar]");
    assert_eq!(
        pts[0].policy.predictor(),
        Some(pas_core::PredictorSpec::PlanarFront)
    );
}

#[test]
fn predictor_sweep_rejects_unknown_names() {
    let e = Manifest::parse(&pas_with_predictor(
        "",
        "[sweep]\npredictor = [\"planar\", \"psychic\"]",
    ))
    .unwrap_err();
    assert!(e.msg.contains("unknown predictor `psychic`"), "{e}");
}

#[test]
fn nodes_sweep_axis_changes_deployment_density() {
    let m = Manifest::parse(&pas_with_predictor("", "[sweep]\nnodes = [20, 45]")).unwrap();
    let points = expand(&m).unwrap();
    assert_eq!(points.len(), 2 * 2);
    let s20 = m.scenario_for(1, &points[0].assignments);
    let s45 = m.scenario_for(1, &points[2].assignments);
    assert_eq!(s20.node_count, 20);
    assert_eq!(s45.node_count, 45);
    assert_eq!(s20.positions().len(), 20);
    assert_eq!(s45.positions().len(), 45);

    // Fractional or zero node counts are rejected at parse time.
    let e = Manifest::parse(&pas_with_predictor("", "[sweep]\nnodes = [20.5]")).unwrap_err();
    assert!(e.msg.contains("integers >= 1"), "{e}");
    // Grid deployments cannot sweep density.
    let bad = pas_with_predictor("", "[sweep]\nnodes = [20, 45]")
        .replace("kind = \"uniform\"", "kind = \"grid\"\ncols = 6\nrows = 5");
    let e = Manifest::parse(&bad).unwrap_err();
    assert!(e.msg.contains("grid deployment"), "{e}");
}

#[test]
fn failure_p_sweep_axis_overrides_the_random_failure_probability() {
    use pas_scenario::failure_plan;
    let random = "[failures]\nkind = \"random\"\np = 0.5\nhorizon_s = 60.0\n";
    let with = |failures: &str, values: &str| {
        pas_with_predictor("", &format!("{failures}\n[sweep]\nfailure_p = [{values}]"))
    };
    let m = Manifest::parse(&with(random, "0.0, 1.0")).unwrap();
    assert_eq!(Manifest::parse(&m.to_toml()).unwrap(), m, "round-trips");
    let points = expand(&m).unwrap();
    assert_eq!(points.len(), 2 * 2);
    let field = m.build_field();
    let failing = |assignments: &[(String, pas_scenario::AxisValue)]| {
        let scenario = m.scenario_for(1, assignments);
        failure_plan(&m, &scenario, &*field, assignments).failing_count()
    };
    assert_eq!(failing(&points[0].assignments), 0, "p = 0: nobody fails");
    assert_eq!(
        failing(&points[2].assignments),
        30,
        "p = 1: everybody fails"
    );
    let declared = failing(&[]);
    assert!(
        0 < declared && declared < 30,
        "unswept, [failures] p = 0.5 holds"
    );
    // The axis leaves the policy's parameters alone.
    assert_eq!(
        m.adaptive_params(&m.policies[0], &points[2].assignments),
        m.adaptive_params(&m.policies[0], &[])
    );

    // Probabilities outside [0, 1] and failure models other than
    // "random" are rejected.
    for values in ["1.5", "-0.1", "0.2, 2.0"] {
        let e = Manifest::parse(&with(random, values)).unwrap_err();
        assert!(
            e.msg.contains("sweep.failure_p values must be in [0, 1]"),
            "{e}"
        );
    }
    for failures in ["", "[failures]\nkind = \"front_kill\"\ndelay_s = 5.0\n"] {
        let e = Manifest::parse(&with(failures, "0.1")).unwrap_err();
        assert!(
            e.msg.contains("needs `[failures] kind = \"random\"`"),
            "{e}"
        );
    }
}

#[test]
fn predictor_variants_produce_distinct_deterministic_results() {
    use pas_scenario::{execute, ExecOptions};
    let m = Manifest::parse(&pas_with_predictor(
        "",
        "[sweep]\npredictor = [\"planar\", \"non_directional\", \"kalman\", \"quantile\"]",
    ))
    .unwrap();
    let a = execute(&m, ExecOptions::default()).unwrap();
    let b = execute(&m, ExecOptions { threads: 1 }).unwrap();
    // Deterministic: parallel == sequential, bit for bit.
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.delay_s.to_bits(), y.delay_s.to_bits());
        assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
        assert_eq!(x.events_processed, y.events_processed);
    }
    // Distinct: the four variants cannot all report the same physics.
    assert_eq!(a.summaries.len(), 4);
    let delay_bits: std::collections::BTreeSet<u64> = a
        .summaries
        .iter()
        .map(|s| s.delay_mean_s.to_bits())
        .collect();
    assert!(
        delay_bits.len() >= 3,
        "predictor variants must differentiate the delay metric: {:?}",
        a.summaries
            .iter()
            .map(|s| (s.policy_label.clone(), s.delay_mean_s))
            .collect::<Vec<_>>()
    );
}

#[test]
fn poisson_density_beyond_the_packing_bound_is_rejected() {
    // 40x40 m at min_dist 4: the disk-packing bound is ~154 nodes. A
    // swept density above it must fail validation instead of panicking
    // mid-batch in the runner.
    let base = pas_with_predictor("", "[sweep]\nnodes = [20, 400]")
        .replace("kind = \"uniform\"", "kind = \"poisson\"\nmin_dist = 4.0");
    let e = Manifest::parse(&base).unwrap_err();
    assert!(e.msg.contains("packing bound"), "{e}");
    // The same bound guards the declared (unswept) node count.
    let declared = pas_with_predictor("", "")
        .replace("kind = \"uniform\"", "kind = \"poisson\"\nmin_dist = 4.0")
        .replace("nodes = 30", "nodes = 400");
    let e = Manifest::parse(&declared).unwrap_err();
    assert!(e.msg.contains("packing bound"), "{e}");
    // Feasible densities still pass.
    let ok = pas_with_predictor("", "[sweep]\nnodes = [20, 45]")
        .replace("kind = \"uniform\"", "kind = \"poisson\"\nmin_dist = 4.0");
    assert!(Manifest::parse(&ok).is_ok());
}
