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
//! stamp column appended. `ablate-failures.csv` was written by the
//! manifest that replaced the failure-ablation binary, after checking
//! that its `delay_mean_s` and `energy_mean_j` equal the binary's CSV
//! byte for byte.
//!
//! The summary CSVs average per-run counters such as `events_processed`
//! and `requests_sent`, or leave them out. `golden/records.sha256` pins
//! every run record: it lists, in `sha256sum` format, the digest of
//! `pas run <scenario> --raw` for every registry scenario, written on the
//! commit before the engine stopped queueing deliveries to receivers
//! asleep through the arrival (CI checks the same files with
//! `sha256sum -c`).

use pas_scenario::{execute, registry, summary_csv, BatchResult, ExecOptions};
use pas_server::hash::{hex, sha256};

/// The pinned record digests, in `sha256sum` format.
const RECORD_DIGESTS: &str = include_str!("golden/records.sha256");

fn batch_of(name: &str) -> BatchResult {
    let m = registry::builtin(name).unwrap_or_else(|| panic!("`{name}` registered"));
    execute(&m, ExecOptions::default()).unwrap()
}

fn csv_of(name: &str) -> String {
    summary_csv(&batch_of(name)).render()
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
golden!(
    ablate_failures_is_byte_identical,
    "ablate-failures",
    "golden/ablate-failures.csv"
);

/// Every registry scenario's per-run records match their pinned digest,
/// and every registry scenario has one.
#[test]
fn run_records_match_their_digests() {
    let mut pinned = Vec::new();
    for line in RECORD_DIGESTS.lines() {
        let (want, file) = line.split_once("  ").expect("`sha256sum` line");
        let name = file.strip_suffix(".jsonl").expect("a .jsonl file");
        let jsonl = pas_scenario::sink::records_jsonl(&batch_of(name));
        let got = hex(&sha256(jsonl.as_bytes()));
        assert_eq!(got, want, "`{name}` per-run records drifted");
        pinned.push(name);
    }
    let mut registered = registry::names();
    pinned.sort_unstable();
    registered.sort_unstable();
    assert_eq!(pinned, registered);
}
