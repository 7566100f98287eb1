//! Built-in named scenario manifests.
//!
//! The registry ships the paper-default workload (the Fig. 4/6 grid), the
//! Fig. 5/7 alert sweep, the three example scenarios, the
//! predictor-shootout grid (every arrival-estimator variant × deployment
//! density), the estimator ablation (Oracle vs PAS vs SAS vs NS) and the
//! failure ablation (PAS under random node failures) as compiled-in TOML.
//! `pas list` enumerates them; `pas run <name>` executes one;
//! `pas show <name>` prints the TOML as a starting point for custom
//! manifests.

use crate::manifest::{Manifest, ManifestError};

/// `(name, TOML source)` for every built-in scenario.
pub const BUILTINS: [(&str, &str); 8] = [
    (
        "paper-default",
        include_str!("../manifests/paper-default.toml"),
    ),
    ("paper-alert", include_str!("../manifests/paper-alert.toml")),
    (
        "wildfire-front",
        include_str!("../manifests/wildfire-front.toml"),
    ),
    (
        "gas-leak-city",
        include_str!("../manifests/gas-leak-city.toml"),
    ),
    (
        "plume-monitoring",
        include_str!("../manifests/plume-monitoring.toml"),
    ),
    (
        "predictor-shootout",
        include_str!("../manifests/predictor-shootout.toml"),
    ),
    (
        "ablate-estimator",
        include_str!("../manifests/ablate-estimator.toml"),
    ),
    (
        "ablate-failures",
        include_str!("../manifests/ablate-failures.toml"),
    ),
];

/// Names of all built-in scenarios, in registry order.
pub fn names() -> Vec<&'static str> {
    BUILTINS.iter().map(|(n, _)| *n).collect()
}

/// Raw TOML of a built-in scenario.
pub fn raw(name: &str) -> Option<&'static str> {
    BUILTINS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, src)| *src)
}

/// Parse a built-in scenario by name.
pub fn get(name: &str) -> Option<Result<Manifest, ManifestError>> {
    raw(name).map(Manifest::parse)
}

/// Parse a built-in scenario, panicking on registry corruption — built-in
/// manifests are covered by tests, so a parse failure is a bug.
pub fn builtin(name: &str) -> Option<Manifest> {
    get(name)
        .map(|r| r.unwrap_or_else(|e| panic!("built-in manifest `{name}` failed to parse: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_parses_and_matches_its_name() {
        for (name, _) in BUILTINS {
            let m = builtin(name).expect("registered");
            assert_eq!(m.name, name, "manifest name must equal registry key");
        }
    }

    #[test]
    fn registry_has_paper_and_example_scenarios() {
        let names = names();
        assert!(names.len() >= 4);
        for required in [
            "paper-default",
            "wildfire-front",
            "gas-leak-city",
            "plume-monitoring",
            "predictor-shootout",
            "ablate-estimator",
            "ablate-failures",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(get("no-such-scenario").is_none());
        assert!(raw("no-such-scenario").is_none());
    }
}
