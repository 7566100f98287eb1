//! Unified, versioned bench-result files with trend history and a
//! regression gate.
//!
//! The bench modes (`pas bench`, `--predictors`, `--server`) record
//! into one schema, so the perf trajectory between commits lives in the
//! files rather than in git archaeology:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "bench": "batch",
//!   "scenario": "paper-default",
//!   "history": [
//!     { "commit": "abc1234", "date": "2026-07-27", "payload": { ... } }
//!   ]
//! }
//! ```
//!
//! `payload` is the bench's own result object, unchanged — the writer
//! *appends* a stamped entry instead of overwriting. The
//! [`gate`] compares the newest entry's throughput against the
//! previous one and fails on a drop beyond a tolerance — the CI
//! regression gate `pas bench --gate` exposes.

use crate::drivers::{names, BATCH_CONFIGS};
use pas_obs::json::{self, quote, Json};
use std::fmt;
use std::io;
use std::path::Path;

/// Version of the history file layout. Bump on any schema change.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Default tolerated throughput drop, percent. Bench numbers on shared
/// CI machines are noisy; the gate is for cliffs, not jitter.
pub const DEFAULT_MAX_DROP_PCT: f64 = 35.0;

/// One recorded bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Short commit hash at the time of the run, when known.
    pub commit: Option<String>,
    /// `YYYY-MM-DD` date of the run, when known.
    pub date: Option<String>,
    /// The bench's own JSON result object, verbatim.
    pub payload: String,
}

/// A bench file's full history.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchHistory {
    /// Bench kind: `batch`, `predictors`, or `server`.
    pub bench: String,
    /// Scenario the bench runs.
    pub scenario: String,
    /// Entries, oldest first.
    pub entries: Vec<HistoryEntry>,
}

/// Why a bench file could not be read.
#[derive(Debug)]
pub enum HistoryError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file declares a version this build does not speak.
    Schema {
        /// Declared version.
        found: u64,
        /// Supported version.
        supported: u32,
    },
    /// Structurally broken JSON.
    Malformed(String),
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Io(e) => write!(f, "{e}"),
            HistoryError::Schema { found, supported } => write!(
                f,
                "unsupported bench schema_version {found} (this build reads v{supported})"
            ),
            HistoryError::Malformed(m) => write!(f, "malformed bench file: {m}"),
        }
    }
}

impl std::error::Error for HistoryError {}

impl From<io::Error> for HistoryError {
    fn from(e: io::Error) -> Self {
        HistoryError::Io(e)
    }
}

impl BenchHistory {
    /// Read a bench file, or `None` when it does not exist.
    pub fn load(path: &Path) -> Result<Option<BenchHistory>, HistoryError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Self::parse(&text).map(Some)
    }

    /// Parse a bench file body.
    pub fn parse(text: &str) -> Result<BenchHistory, HistoryError> {
        let malformed = |m: &str| HistoryError::Malformed(m.to_string());
        let root = json::parse(text).ok_or_else(|| malformed("not JSON"))?;
        let bench = string(root, "bench").ok_or_else(|| malformed("no `bench` field"))?;
        let scenario = string(root, "scenario").unwrap_or_default();
        match root.get("schema_version").and_then(|v| v.as_u64()) {
            Some(v) if v == u64::from(BENCH_SCHEMA_VERSION) => {}
            Some(found) => {
                let supported = BENCH_SCHEMA_VERSION;
                return Err(HistoryError::Schema { found, supported });
            }
            None => return Err(malformed("no schema_version")),
        }
        let history = root.get("history").filter(|h| h.raw().starts_with('['));
        let history = history.ok_or_else(|| malformed("no `history` array"))?;
        let entry = |e: Json| {
            let payload = e.get("payload").filter(|p| p.raw().starts_with('{'));
            let payload = payload.ok_or_else(|| malformed("entry without a payload object"))?;
            Ok(HistoryEntry {
                commit: string(e, "commit"),
                date: string(e, "date"),
                payload: payload.raw().to_string(),
            })
        };
        let entries = history
            .items()
            .map(entry)
            .collect::<Result<_, HistoryError>>()?;
        Ok(BenchHistory {
            bench,
            scenario,
            entries,
        })
    }

    /// Render the versioned history file.
    pub fn render(&self) -> String {
        let or_null = |v: &Option<String>| v.as_deref().map_or_else(|| "null".to_string(), quote);
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "    {{\"commit\": {}, \"date\": {}, \"payload\": {}}}",
                    or_null(&e.commit),
                    or_null(&e.date),
                    e.payload.trim()
                )
            })
            .collect();
        format!(
            "{{\n  \"schema_version\": {BENCH_SCHEMA_VERSION},\n  \"bench\": {},\n  \
             \"scenario\": {},\n  \"history\": [\n{}\n  ]\n}}\n",
            quote(&self.bench),
            quote(&self.scenario),
            entries.join(",\n")
        )
    }
}

fn string(object: Json, key: &str) -> Option<String> {
    object.get(key)?.as_str()
}

/// Append one bench result to `path` (creating the file if need be)
/// and return the updated history. `payload` must be the bench's JSON
/// object carrying `bench` and `scenario` fields.
pub fn append(
    path: &Path,
    payload: &str,
    commit: Option<String>,
    date: Option<String>,
) -> Result<BenchHistory, HistoryError> {
    let root = json::parse(payload);
    let bench = root
        .and_then(|p| string(p, "bench"))
        .ok_or_else(|| HistoryError::Malformed("payload has no `bench` field".to_string()))?;
    let scenario = root.and_then(|p| string(p, "scenario")).unwrap_or_default();
    let mut history = BenchHistory::load(path)?.unwrap_or(BenchHistory {
        bench: bench.clone(),
        scenario: scenario.clone(),
        entries: Vec::new(),
    });
    if history.bench != bench {
        return Err(HistoryError::Malformed(format!(
            "file records `{}` benches, payload is `{bench}`",
            history.bench
        )));
    }
    history.entries.push(HistoryEntry {
        commit,
        date,
        payload: payload.trim().to_string(),
    });
    std::fs::write(path, history.render())?;
    Ok(history)
}

/// Throughput samples of one payload (runs/s; higher is better), keyed
/// by the measured configuration so the gate only ever compares like
/// with like: a `--max-clients 32` entry and a `--max-clients 4` entry
/// share only their common ramp steps, and adding or removing a
/// predictor variant changes the key set rather than silently shifting
/// a mean. Payloads of any other kind yield no keys.
pub fn throughput_by_key(bench: &str, payload: &str) -> Vec<(String, f64)> {
    let Some(p) = json::parse(payload) else {
        return Vec::new();
    };
    let num = |key: &str| p.get(key).and_then(|v| v.as_f64());
    match bench {
        "batch" => {
            let runs = num("execute_runs");
            // One key per configuration the entry timed: older entries
            // lack some of them.
            let mut out = Vec::new();
            for (off, _) in BATCH_CONFIGS {
                let (field, key) = names(off);
                if let (Some(r), Some(u)) = (runs, num(&field).filter(|u| *u > 0.0)) {
                    out.push((key, r * 1e6 / u));
                }
            }
            // Manifest-expansion throughput (expansions/s), gated under
            // its own key so an expansion regression cannot hide behind
            // execute jitter (and vice versa).
            if let Some(ns) = num("expand_ns_per_iter").filter(|ns| *ns > 0.0) {
                out.push(("sequential-expand".to_string(), 1e9 / ns));
            }
            out
        }
        // One sample per predictor variant.
        "predictors" => keyed(p, "predictors", "predictor", "runs_per_s", ""),
        // One sample per ramp step (`clients=N` ← `jobs_per_s`) plus
        // the headline `server-max` key, so a saturation collapse at
        // one concurrency fails the gate even when the peak holds.
        "server" => {
            let mut out = keyed(p, "steps", "clients", "jobs_per_s", "clients=");
            out.extend(num("max_jobs_per_s").map(|max| ("server-max".to_string(), max)));
            out
        }
        _ => Vec::new(),
    }
}

/// `item[value]` per element of the payload's `array` with both fields,
/// keyed by `item[key]`: a string as itself, a number after `prefix`.
fn keyed(payload: Json, array: &str, key: &str, value: &str, prefix: &str) -> Vec<(String, f64)> {
    let items = payload.get(array).into_iter().flat_map(|a| a.items());
    let sample = |item: Json| {
        let k = item.get(key)?;
        let label = k.as_str().unwrap_or_else(|| format!("{prefix}{}", k.raw()));
        Some((label, item.get(value)?.as_f64()?))
    };
    items.filter_map(sample).collect()
}

/// Outcome of gating one bench history.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Bench kind.
    pub bench: String,
    /// The worst-regressing shared configuration (`None` when the two
    /// newest entries measured no common configuration).
    pub key: Option<String>,
    /// Previous entry's throughput at that configuration (runs/s).
    pub previous: Option<f64>,
    /// Latest entry's throughput at that configuration (runs/s).
    pub latest: Option<f64>,
    /// Worst per-configuration throughput drop, percent (negative =
    /// improvement).
    pub drop_pct: f64,
    /// False only when the drop exceeds the tolerance.
    pub ok: bool,
}

/// Compare the newest entry against the previous one, configuration by
/// configuration (only keys both entries measured — a long server ramp
/// vs a short one compares just their shared steps, never one step's
/// throughput against another's). Fails on a drop
/// beyond `max_drop_pct` at any shared configuration. Histories with
/// fewer than two entries, or with no shared configuration, pass
/// trivially.
pub fn gate(history: &BenchHistory, max_drop_pct: f64) -> GateOutcome {
    let pass = |key, previous, latest, drop_pct| GateOutcome {
        bench: history.bench.clone(),
        key,
        previous,
        latest,
        drop_pct,
        ok: drop_pct <= max_drop_pct,
    };
    let n = history.entries.len();
    if n < 2 {
        return pass(None, None, None, 0.0);
    }
    let prev = throughput_by_key(&history.bench, &history.entries[n - 2].payload);
    let latest = throughput_by_key(&history.bench, &history.entries[n - 1].payload);
    let mut worst: Option<(String, f64, f64, f64)> = None;
    for (key, l) in &latest {
        let Some((_, p)) = prev.iter().find(|(k, _)| k == key) else {
            continue;
        };
        if *p <= 0.0 {
            continue;
        }
        let drop_pct = (1.0 - l / p) * 100.0;
        if worst.as_ref().is_none_or(|(_, _, _, w)| drop_pct > *w) {
            worst = Some((key.clone(), *p, *l, drop_pct));
        }
    }
    match worst {
        Some((key, p, l, drop_pct)) => pass(Some(key), Some(p), Some(l), drop_pct),
        None => pass(None, None, None, 0.0),
    }
}

/// `YYYY-MM-DD` of a Unix timestamp (days-to-civil, Hinnant's
/// algorithm) — enough calendar for a metadata stamp without a date
/// dependency.
pub fn civil_date(epoch_secs: u64) -> String {
    let days = (epoch_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOAD: &str = "{\n  \"bench\": \"batch\",\n  \"scenario\": \"paper-default\",\n  \
         \"expand_runs\": 540,\n  \"execute_runs\": 24,\n  \"execute_us_sequential\": 9000\n}\n";

    /// A versioned history whose one entry, without metadata, is [`PAYLOAD`].
    const ONE_ENTRY: &str = "{\"schema_version\": 1, \"bench\": \"batch\", \"scenario\": \"s\", \
         \"history\": [{\"commit\": null, \"date\": null, \"payload\": {\"bench\": \"batch\", \
         \"scenario\": \"paper-default\", \"expand_runs\": 540, \"execute_runs\": 24, \
         \"execute_us_sequential\": 9000}}]}";

    #[test]
    fn bare_payload_is_malformed() {
        match BenchHistory::parse(PAYLOAD) {
            Err(HistoryError::Malformed(_)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn append_round_trips() {
        let dir = std::env::temp_dir().join(format!("pas_bench_hist_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_batch.json");
        std::fs::write(&path, ONE_ENTRY).unwrap();

        let payload = PAYLOAD.replace("9000", "8000");
        let h = append(
            &path,
            &payload,
            Some("abc1234".to_string()),
            Some("2026-07-27".to_string()),
        )
        .unwrap();
        assert_eq!(h.entries.len(), 2, "first entry kept, new one appended");

        let back = BenchHistory::load(&path).unwrap().unwrap();
        assert_eq!(back, h, "render/parse round-trips");
        assert_eq!(back.entries[1].commit.as_deref(), Some("abc1234"));
        assert_eq!(back.entries[1].date.as_deref(), Some("2026-07-27"));
        assert_eq!(back.entries[0].commit, None);

        // A third append keeps growing the same file.
        let h3 = append(&path, PAYLOAD, None, None).unwrap();
        assert_eq!(h3.entries.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_bench_kind_is_rejected() {
        let dir = std::env::temp_dir().join(format!("pas_bench_mix_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_batch.json");
        std::fs::write(&path, ONE_ENTRY).unwrap();
        let server = PAYLOAD.replace("\"batch\"", "\"server\"");
        assert!(append(&path, &server, None, None).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_schema_version_is_a_clear_error() {
        let future = "{\n  \"schema_version\": 99,\n  \"bench\": \"batch\",\n  \
             \"scenario\": \"s\",\n  \"history\": []\n}\n";
        match BenchHistory::parse(future) {
            Err(HistoryError::Schema { found: 99, .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn non_object_payload_is_malformed_not_a_panic() {
        let null_payload = "{\n  \"schema_version\": 1,\n  \"bench\": \"batch\",\n  \
             \"scenario\": \"s\",\n  \"history\": [\n    { \"payload\": null }\n  ]\n}\n";
        match BenchHistory::parse(null_payload) {
            Err(HistoryError::Malformed(_)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn throughput_is_keyed_by_configuration() {
        assert_eq!(
            throughput_by_key("batch", PAYLOAD),
            vec![("sequential".to_string(), 24.0 * 1e6 / 9000.0)]
        );
        // Post-observability payloads add the trace-off and obs-off
        // companion keys.
        let with_off = PAYLOAD.replace(
            "\"execute_us_sequential\": 9000",
            "\"execute_us_sequential\": 9000,\n  \"execute_us_trace_off\": 8500,\n  \
             \"execute_us_profile_off\": 8200,\n  \"execute_us_obs_off\": 8000",
        );
        assert_eq!(
            throughput_by_key("batch", &with_off),
            vec![
                ("sequential".to_string(), 24.0 * 1e6 / 9000.0),
                ("sequential-trace-off".to_string(), 24.0 * 1e6 / 8500.0),
                ("sequential-profile-off".to_string(), 24.0 * 1e6 / 8200.0),
                ("sequential-obs-off".to_string(), 24.0 * 1e6 / 8000.0)
            ]
        );
        // The retired `pas bench --dist` kind gates nothing: its old
        // payloads yield no keys.
        let dist = "{\"bench\":\"dist\",\"fleets\":[\
             {\"workers\": 1, \"runs_per_s\": 100.5, \"speedup\": 1.0},\
             {\"workers\": 2, \"runs_per_s\": 220.0, \"speedup\": 2.19}]}";
        assert!(throughput_by_key("dist", dist).is_empty());
        // Payloads carrying expansion timing gain the expand key.
        let with_expand = PAYLOAD.replace(
            "\"expand_runs\": 540",
            "\"expand_runs\": 540,\n  \"expand_ns_per_iter\": 50000",
        );
        assert_eq!(
            throughput_by_key("batch", &with_expand),
            vec![
                ("sequential".to_string(), 24.0 * 1e6 / 9000.0),
                ("sequential-expand".to_string(), 1e9 / 50000.0)
            ]
        );
        // Server saturation payloads key per ramp step plus the peak.
        let server = "{\"bench\":\"server\",\"steps\":[\
             {\"clients\": 1, \"jobs\": 50, \"jobs_per_s\": 120.5},\
             {\"clients\": 4, \"jobs\": 180, \"jobs_per_s\": 410.0}],\
             \"max_jobs_per_s\": 410.0}";
        assert_eq!(
            throughput_by_key("server", server),
            vec![
                ("clients=1".to_string(), 120.5),
                ("clients=4".to_string(), 410.0),
                ("server-max".to_string(), 410.0)
            ]
        );
        let pred = "{\"bench\":\"predictors\",\"predictors\":[\
             {\"predictor\": \"planar\", \"runs_per_s\": 100.0},\
             {\"predictor\": \"kalman\", \"runs_per_s\": 300.0}]}";
        assert_eq!(
            throughput_by_key("predictors", pred),
            vec![("planar".to_string(), 100.0), ("kalman".to_string(), 300.0)]
        );
    }

    /// The gate never compares across configurations: a long-ramp entry
    /// followed by a short-ramp entry only compares the shared steps,
    /// and with nothing shared it passes trivially.
    #[test]
    fn gate_compares_like_with_like() {
        let ramp = |pairs: &[(u64, f64)]| HistoryEntry {
            commit: None,
            date: None,
            payload: format!(
                "{{\"bench\": \"server\", \"steps\": [{}]}}",
                pairs
                    .iter()
                    .map(|(c, v)| format!("{{\"clients\": {c}, \"jobs_per_s\": {v}}}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        };
        let mut h = BenchHistory {
            bench: "server".to_string(),
            scenario: "paper-default".to_string(),
            // --max-clients 8 style entry: long ramp, high headline number.
            entries: vec![ramp(&[(1, 1000.0), (2, 2000.0), (4, 3500.0), (8, 5000.0)])],
        };
        // --max-clients 2 follow-up: same per-step numbers, no 4- or
        // 8-client step. Headline-vs-headline would read a 60% "drop";
        // keyed comparison sees no regression.
        h.entries.push(ramp(&[(1, 1010.0), (2, 1990.0)]));
        let out = gate(&h, 35.0);
        assert!(out.ok, "configuration change is not a regression: {out:?}");
        assert!(out.drop_pct < 5.0);

        // A real cliff at a shared step still fails.
        h.entries.push(ramp(&[(1, 1000.0), (2, 900.0)]));
        let out = gate(&h, 35.0);
        assert!(!out.ok, "shared-key cliff must fail: {out:?}");
        assert_eq!(out.key.as_deref(), Some("clients=2"));

        // Disjoint configurations pass trivially.
        h.entries.push(ramp(&[(16, 8000.0)]));
        let out = gate(&h, 35.0);
        assert!(out.ok && out.key.is_none());
    }

    #[test]
    fn gate_fails_on_cliff_passes_on_jitter() {
        let entry = |us: u64| HistoryEntry {
            commit: None,
            date: None,
            payload: format!(
                "{{\"bench\": \"batch\", \"execute_runs\": 24, \"execute_us_sequential\": {us}}}"
            ),
        };
        let mut h = BenchHistory {
            bench: "batch".to_string(),
            scenario: "paper-default".to_string(),
            entries: vec![entry(9000)],
        };
        assert!(gate(&h, 35.0).ok, "single entry passes trivially");

        h.entries.push(entry(10_000)); // ~10% slower: jitter
        let out = gate(&h, 35.0);
        assert!(out.ok, "10% drop within tolerance: {out:?}");
        assert!(out.drop_pct > 5.0 && out.drop_pct < 15.0);

        h.entries.push(entry(20_000)); // 2x slower than previous: cliff
        let out = gate(&h, 35.0);
        assert!(!out.ok, "50% drop must fail: {out:?}");

        h.entries.push(entry(9_000)); // recovery
        assert!(gate(&h, 35.0).ok);
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(86_400), "1970-01-02");
        // 2026-07-27 00:00:00 UTC.
        assert_eq!(civil_date(1_785_110_400), "2026-07-27");
    }
}
