//! Golden-output pin: every registry scenario that predates the
//! predictor layer must produce byte-identical summary CSVs forever.
//!
//! The files under `tests/golden/` were written by `pas run <scenario>
//! --out` on the commit *before* the estimation path was refactored into
//! the pluggable `Predictor` subsystem, then re-stamped when the sinks
//! gained the trailing `schema_version` column (every numeric byte was
//! verified unchanged across that regeneration — only the stamp column
//! was appended). Executing the same manifests through today's code
//! must reproduce them byte for byte — the refactor's central
//! no-regression promise (CI double-checks the same equality through
//! the real CLI binary). `ablate-estimator.csv` is the CSV the
//! estimator ablation wrote when it was a hard-coded binary, with the
//! stamp column appended.

use pas_scenario::{execute, registry, summary_csv, ExecOptions};

fn csv_of(name: &str) -> String {
    let m = registry::builtin(name).unwrap_or_else(|| panic!("`{name}` registered"));
    let batch = execute(&m, ExecOptions::default()).unwrap();
    summary_csv(&batch).render()
}

macro_rules! golden {
    ($test:ident, $name:literal, $file:literal) => {
        #[test]
        fn $test() {
            let got = csv_of($name);
            let want = include_str!($file);
            assert!(
                got == want,
                "`{}` summary CSV drifted from its pre-refactor golden\n\
                 --- got ---\n{got}\n--- want ---\n{want}",
                $name
            );
        }
    };
}

golden!(
    paper_default_is_byte_identical,
    "paper-default",
    "golden/paper-default.csv"
);
golden!(
    paper_alert_is_byte_identical,
    "paper-alert",
    "golden/paper-alert.csv"
);
golden!(
    wildfire_front_is_byte_identical,
    "wildfire-front",
    "golden/wildfire-front.csv"
);
golden!(
    gas_leak_city_is_byte_identical,
    "gas-leak-city",
    "golden/gas-leak-city.csv"
);
golden!(
    plume_monitoring_is_byte_identical,
    "plume-monitoring",
    "golden/plume-monitoring.csv"
);
golden!(
    ablate_estimator_is_byte_identical,
    "ablate-estimator",
    "golden/ablate-estimator.csv"
);
