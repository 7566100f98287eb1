//! Output sinks: summary CSV, per-run JSONL, and stdout tables.
//!
//! The summary CSV is the figure series: one row per (x, policy) point
//! with delay and energy mean ± stddev and the replicate count. JSONL
//! carries the full per-run records (one JSON object per line) for
//! raw-data analysis.
//!
//! Both file sinks stamp [`SCHEMA_VERSION`] — a trailing
//! `schema_version` CSV column and a leading `"schema_version"` JSONL
//! field — so loaders (`pas-report`'s ingest) can reject files written
//! by an incompatible layout with a clear error instead of silently
//! misreading columns.

use crate::exec::BatchResult;
use pas_metrics::{Csv, Table};
use pas_obs::json::quote;
use std::io;
use std::path::Path;

/// Version stamped into the CSV/JSONL sink layouts. Bump on any column
/// or field change.
pub const SCHEMA_VERSION: u32 = 1;

/// Build the per-point summary CSV (the figure series plus the trailing
/// `schema_version` stamp).
pub fn summary_csv(batch: &BatchResult) -> Csv {
    let mut csv = Csv::new(&[
        &batch.x_label,
        "policy",
        "delay_mean_s",
        "delay_std_s",
        "energy_mean_j",
        "energy_std_j",
        "n",
        "schema_version",
    ]);
    for p in &batch.summaries {
        csv.push_raw(vec![
            format!("{}", p.x),
            p.policy_label.clone(),
            format!("{}", p.delay_mean_s),
            format!("{}", p.delay_std_s),
            format!("{}", p.energy_mean_j),
            format!("{}", p.energy_std_j),
            format!("{}", p.n),
            format!("{SCHEMA_VERSION}"),
        ]);
    }
    csv
}

/// Write the summary CSV to `path`.
pub fn write_summary_csv(batch: &BatchResult, path: &Path) -> io::Result<()> {
    summary_csv(batch).write(path)
}

/// Render every run record as one JSON object per line.
pub fn records_jsonl(batch: &BatchResult) -> String {
    let mut out = String::new();
    for r in &batch.records {
        let assignments: Vec<String> = r
            .assignments
            .iter()
            .map(|(k, v)| match v {
                crate::manifest::AxisValue::Num(v) => format!("{}:{}", quote(k), v),
                crate::manifest::AxisValue::Name(n) => format!("{}:{}", quote(k), quote(n)),
            })
            .collect();
        out.push_str(&format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\
             \"scenario\":{},\"x\":{},\"policy\":{},\"seed\":{},\
             \"assignments\":{{{}}},\"delay_s\":{},\"energy_j\":{},\
             \"reached\":{},\"detected\":{},\"missed\":{},\
             \"requests_sent\":{},\"responses_sent\":{},\
             \"events_processed\":{},\"duration_s\":{}}}\n",
            quote(&batch.name),
            r.x,
            quote(&r.policy_label),
            r.seed,
            assignments.join(","),
            r.delay_s,
            r.energy_j,
            r.reached,
            r.detected,
            r.missed,
            r.requests_sent,
            r.responses_sent,
            r.events_processed,
            r.duration_s,
        ));
    }
    out
}

/// Write the per-run JSONL to `path`.
pub fn write_records_jsonl(batch: &BatchResult, path: &Path) -> io::Result<()> {
    std::fs::write(path, records_jsonl(batch))
}

/// Render the batch as a paper-style stdout table.
pub fn summary_table(batch: &BatchResult) -> Table {
    let mut table = Table::new(
        format!("{} — delay/energy per point", batch.name),
        &[
            &batch.x_label,
            "policy",
            "delay(s)",
            "±",
            "energy(J)",
            "±",
            "n",
        ],
    );
    for p in &batch.summaries {
        table.push_row(vec![
            format!("{:.2}", p.x),
            p.policy_label.clone(),
            format!("{:.3}", p.delay_mean_s),
            format!("{:.3}", p.delay_std_s),
            format!("{:.3}", p.energy_mean_j),
            format!("{:.3}", p.energy_std_j),
            format!("{}", p.n),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::PointSummary;
    use pas_metrics::Csv;

    /// Policy and axis labels flow from user manifests straight into the
    /// CSV; commas, quotes, and newlines in them must survive a
    /// render → parse round trip (RFC 4180 quoting).
    #[test]
    fn summary_csv_roundtrips_hostile_labels() {
        let batch = BatchResult {
            name: "hostile".to_string(),
            x_label: "max_sleep_s, tuned \"grid\"".to_string(),
            records: Vec::new(),
            summaries: vec![PointSummary {
                x: 4.0,
                policy_label: "PAS,\n\"aggressive\"\rvariant".to_string(),
                delay_mean_s: 1.5,
                delay_std_s: 0.25,
                energy_mean_j: 2.0,
                energy_std_j: 0.5,
                n: 8,
            }],
        };
        let csv = summary_csv(&batch);
        let back = Csv::parse(&csv.render()).expect("summary CSV parses");
        assert_eq!(back, csv);
        assert_eq!(back.header()[0], batch.x_label);
        assert_eq!(back.rows()[0][1], batch.summaries[0].policy_label);
    }

    /// Both file sinks carry the layout version: the CSV as a trailing
    /// column, the JSONL as a leading field on every row.
    #[test]
    fn sinks_stamp_schema_version() {
        let batch = BatchResult {
            name: "stamped".to_string(),
            x_label: "max_sleep_s".to_string(),
            records: vec![crate::exec::RunRecord {
                x: 4.0,
                policy_label: "PAS".to_string(),
                seed: 7,
                assignments: vec![("max_sleep_s".to_string(), crate::AxisValue::Num(4.0))],
                delay_s: 1.0,
                energy_j: 2.0,
                reached: 30,
                detected: 30,
                missed: 0,
                requests_sent: 1,
                responses_sent: 1,
                events_processed: 10,
                duration_s: 100.0,
            }],
            summaries: vec![PointSummary {
                x: 4.0,
                policy_label: "PAS".to_string(),
                delay_mean_s: 1.0,
                delay_std_s: 0.0,
                energy_mean_j: 2.0,
                energy_std_j: 0.0,
                n: 1,
            }],
        };
        let csv = summary_csv(&batch);
        assert_eq!(
            csv.header().last().map(String::as_str),
            Some("schema_version")
        );
        assert_eq!(
            csv.rows()[0].last().map(String::as_str),
            Some(&*format!("{SCHEMA_VERSION}"))
        );
        let jsonl = records_jsonl(&batch);
        assert!(
            jsonl.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")),
            "every JSONL row leads with the stamp: {jsonl}"
        );
    }
}
