//! Ingest point results from sink files: per-run JSONL and summary CSV.
//!
//! Both sinks stamp `schema_version` (see `pas_scenario::sink`); the
//! loaders here verify the stamp and reject unknown or missing versions
//! with an error that says what was found and what is supported —
//! silently misreading a re-ordered column layout would corrupt every
//! downstream statistic.

use pas_metrics::Csv;
use pas_scenario::json::{self, Json};
use pas_scenario::{AxisValue, PointSummary, RunRecord, SCHEMA_VERSION};
use std::fmt;

/// Why a sink file could not be ingested.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The file carries a version this loader does not speak.
    SchemaVersion {
        /// What the file declared (`"missing"` when absent).
        found: String,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// A row failed to parse.
    Malformed {
        /// 1-based row number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The file has no data rows.
    Empty,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::SchemaVersion { found, supported } => write!(
                f,
                "unsupported sink schema_version {found} (this build reads v{supported}; \
                 re-generate the file with the current `pas run`)"
            ),
            IngestError::Malformed { line, message } => {
                write!(f, "row {line}: {message}")
            }
            IngestError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for IngestError {}

/// A parsed per-run JSONL file.
#[derive(Debug, Clone)]
pub struct IngestedRecords {
    /// Scenario name (from the rows).
    pub scenario: String,
    /// X-axis label: the first assignment field of the first row, or
    /// `"x"` for fixed-point batches.
    pub x_label: String,
    /// The records, in file order.
    pub records: Vec<RunRecord>,
}

/// A parsed summary CSV.
#[derive(Debug, Clone)]
pub struct IngestedSummaries {
    /// X-axis label (the CSV's first header column).
    pub x_label: String,
    /// Per-point summaries, in file order.
    pub summaries: Vec<PointSummary>,
}

/// A row's `assignments` object as axis assignments: strings are
/// names, numbers are values.
fn assignments(row: Json) -> Option<Vec<(String, AxisValue)>> {
    let object = row
        .get("assignments")
        .filter(|a| a.raw().starts_with('{'))?;
    object
        .members()
        .map(|(field, v)| match v.as_str() {
            Some(name) => Some((field, AxisValue::Name(name))),
            None => Some((field, AxisValue::Num(v.as_f64()?))),
        })
        .collect()
}

/// `value`, or the error for row `line` lacking field `key`.
fn need<T>(value: Option<T>, line: usize, key: &str) -> Result<T, IngestError> {
    value.ok_or_else(|| IngestError::Malformed {
        line,
        message: format!("no {key}"),
    })
}

/// Check one row's schema stamp.
fn check_version(row: Json) -> Result<(), IngestError> {
    match row.get("schema_version").and_then(|v| v.as_u64()) {
        Some(v) if v == u64::from(SCHEMA_VERSION) => Ok(()),
        Some(v) => Err(IngestError::SchemaVersion {
            found: v.to_string(),
            supported: SCHEMA_VERSION,
        }),
        None => Err(IngestError::SchemaVersion {
            found: "missing".to_string(),
            supported: SCHEMA_VERSION,
        }),
    }
}

/// Parse a per-run JSONL file (the `pas run --raw` /
/// `GET /jobs/:id/results` JSONL body).
pub fn parse_records_jsonl(text: &str) -> Result<IngestedRecords, IngestError> {
    let mut records = Vec::new();
    let mut scenario = String::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let malformed = |message: &str| IngestError::Malformed {
            line: i + 1,
            message: message.to_string(),
        };
        let row = json::parse(line).ok_or_else(|| malformed("not JSON"))?;
        check_version(row)?;
        let num = |k: &str| need(row.get(k).and_then(|v| v.as_f64()), i + 1, k);
        let int = |k: &str| need(row.get(k).and_then(|v| v.as_u64()), i + 1, k);
        let text = |k: &str| need(row.get(k).and_then(|v| v.as_str()), i + 1, k);
        if scenario.is_empty() {
            scenario = text("scenario")?;
        }
        let assignments = assignments(row).ok_or_else(|| malformed("bad assignments"))?;
        records.push(RunRecord {
            x: num("x")?,
            policy_label: text("policy")?,
            seed: int("seed")?,
            assignments,
            delay_s: num("delay_s")?,
            energy_j: num("energy_j")?,
            reached: int("reached")? as usize,
            detected: int("detected")? as usize,
            missed: int("missed")? as usize,
            requests_sent: int("requests_sent").unwrap_or(0),
            responses_sent: int("responses_sent").unwrap_or(0),
            events_processed: int("events_processed").unwrap_or(0),
            duration_s: num("duration_s").unwrap_or(0.0),
        });
    }
    if records.is_empty() {
        return Err(IngestError::Empty);
    }
    let x_label = records[0]
        .assignments
        .first()
        .map(|(f, _)| f.clone())
        .unwrap_or_else(|| "x".to_string());
    Ok(IngestedRecords {
        scenario,
        x_label,
        records,
    })
}

/// Parse a summary CSV (the `pas run --out` / `GET /jobs/:id/results`
/// CSV body).
pub fn parse_summary_csv(text: &str) -> Result<IngestedSummaries, IngestError> {
    let csv = Csv::parse(text).ok_or(IngestError::Malformed {
        line: 1,
        message: "not a well-formed CSV".to_string(),
    })?;
    let header = csv.header();
    if header.last().map(String::as_str) != Some("schema_version") {
        return Err(IngestError::SchemaVersion {
            found: "missing".to_string(),
            supported: SCHEMA_VERSION,
        });
    }
    if header.len() != 8 {
        return Err(IngestError::Malformed {
            line: 1,
            message: format!("expected 8 columns, found {}", header.len()),
        });
    }
    let mut summaries = Vec::new();
    for (i, row) in csv.rows().iter().enumerate() {
        let line = i + 2;
        let malformed = |message: String| IngestError::Malformed { line, message };
        if row.len() != header.len() {
            return Err(malformed(format!(
                "{} fields, want {}",
                row.len(),
                header.len()
            )));
        }
        match row[7].parse::<u32>() {
            Ok(v) if v == SCHEMA_VERSION => {}
            _ => {
                return Err(IngestError::SchemaVersion {
                    found: row[7].clone(),
                    supported: SCHEMA_VERSION,
                })
            }
        }
        let f = |idx: usize, name: &str| -> Result<f64, IngestError> {
            row[idx]
                .parse()
                .map_err(|_| malformed(format!("bad {name}: `{}`", row[idx])))
        };
        summaries.push(PointSummary {
            x: f(0, "x")?,
            policy_label: row[1].clone(),
            delay_mean_s: f(2, "delay_mean_s")?,
            delay_std_s: f(3, "delay_std_s")?,
            energy_mean_j: f(4, "energy_mean_j")?,
            energy_std_j: f(5, "energy_std_j")?,
            n: row[6]
                .parse()
                .map_err(|_| malformed(format!("bad n: `{}`", row[6])))?,
        });
    }
    if summaries.is_empty() {
        return Err(IngestError::Empty);
    }
    Ok(IngestedSummaries {
        x_label: header[0].clone(),
        summaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_rejects_missing_and_unknown_versions() {
        let unstamped = "{\"scenario\":\"s\",\"x\":1,\"policy\":\"PAS\",\"seed\":1,\
                         \"assignments\":{},\"delay_s\":1,\"energy_j\":1,\
                         \"reached\":1,\"detected\":1,\"missed\":0}\n";
        match parse_records_jsonl(unstamped) {
            Err(IngestError::SchemaVersion { found, .. }) => assert_eq!(found, "missing"),
            other => panic!("unexpected: {other:?}"),
        }
        let future = unstamped.replace("{\"scenario\"", "{\"schema_version\":99,\"scenario\"");
        match parse_records_jsonl(&future) {
            Err(IngestError::SchemaVersion { found, .. }) => assert_eq!(found, "99"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn csv_rejects_missing_and_unknown_versions() {
        let legacy = "max_sleep_s,policy,delay_mean_s,delay_std_s,energy_mean_j,energy_std_j,n\n\
                      1,PAS,0.5,0.1,2.0,0.2,20\n";
        assert!(matches!(
            parse_summary_csv(legacy),
            Err(IngestError::SchemaVersion { .. })
        ));
        let future = "max_sleep_s,policy,delay_mean_s,delay_std_s,energy_mean_j,energy_std_j,n,schema_version\n\
                      1,PAS,0.5,0.1,2.0,0.2,20,99\n";
        match parse_summary_csv(future) {
            Err(IngestError::SchemaVersion { found, .. }) => assert_eq!(found, "99"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(matches!(parse_records_jsonl(""), Err(IngestError::Empty)));
        assert!(matches!(
            parse_summary_csv(
                "a,policy,delay_mean_s,delay_std_s,energy_mean_j,energy_std_j,n,schema_version\n"
            ),
            Err(IngestError::Empty)
        ));
    }
}
