//! The report model and its canonical reduction.
//!
//! A [`Report`] is built from per-run records (any source: in-process
//! batches, JSONL files, the server cache) by grouping them into
//! `(assignments, policy)` cells, sorting cells and replicates into a
//! canonical total order, and reducing each cell to paper-grade
//! statistics. Canonicalisation is what makes reports *byte-identical*
//! regardless of record order, thread count, or cold/warm cache — the
//! acceptance property every renderer inherits.

use crate::stats::{stream, DeltaStats, MetricStats};
use pas_scenario::{AxisValue, BatchResult, PointSummary, Replicate, RunRecord};
use std::collections::BTreeMap;
use std::fmt;

/// Version stamped into `report.json`. Bump on any field change.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Where a report's numbers came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Per-run records: full replicate-level statistics.
    Records,
    /// Pre-reduced summaries (a summary CSV): means only, CIs by normal
    /// approximation, no paired comparisons possible.
    Summaries,
}

impl Source {
    /// Wire name used in `report.json`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Source::Records => "records",
            Source::Summaries => "summaries",
        }
    }
}

/// One `(assignments, policy)` cell's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// Report x value.
    pub x: f64,
    /// Policy label.
    pub policy: String,
    /// Non-primary sweep assignments (everything except the x axis),
    /// rendered as `field=value`, sorted by field.
    pub extra: Vec<String>,
    /// Replicates aggregated.
    pub n: u64,
    /// Detection-delay statistics (paper §4.1 average detection delay).
    pub delay: MetricStats,
    /// Per-node energy statistics.
    pub energy: MetricStats,
    /// Total nodes reached over all replicates.
    pub reached: u64,
    /// Total nodes detecting over all replicates.
    pub detected: u64,
    /// Total nodes reached but never detecting.
    pub missed: u64,
    /// `missed / reached` over all replicates (0 when nothing reached).
    pub miss_rate: f64,
}

/// One paired policy comparison at one cell coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Report x value.
    pub x: f64,
    /// Non-primary assignments of the compared cells.
    pub extra: Vec<String>,
    /// Replicate pairs matched by seed.
    pub n_pairs: u64,
    /// Delay of A minus delay of B, paired by seed.
    pub delay: DeltaStats,
    /// Energy of A minus energy of B, paired by seed.
    pub energy: DeltaStats,
}

/// A fully reduced report, ready to render.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Scenario name.
    pub scenario: String,
    /// X-axis label.
    pub x_label: String,
    /// Input provenance.
    pub source: Source,
    /// Total input runs.
    pub total_runs: u64,
    /// Per-cell statistics, canonically ordered (x, assignments, policy).
    pub cells: Vec<CellStats>,
    /// The compared policy pair `(A, B)`, when one applies.
    pub compared: Option<(String, String)>,
    /// Paired comparisons, one per shared cell coordinate.
    pub comparisons: Vec<Comparison>,
}

/// Report construction options.
#[derive(Debug, Clone, Default)]
pub struct ReportOptions {
    /// Compare these two policy labels (`A` minus `B`). `None`
    /// auto-compares `PAS` vs `SAS` when both labels are present.
    pub compare: Option<(String, String)>,
}

/// Why a report could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// `--compare` named a policy label absent from the data.
    UnknownPolicy {
        /// The missing label.
        label: String,
        /// Labels actually present.
        available: Vec<String>,
    },
    /// No input rows at all.
    Empty,
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::UnknownPolicy { label, available } => write!(
                f,
                "no policy labelled `{label}` in the data (have: {})",
                available.join(", ")
            ),
            ReportError::Empty => write!(f, "no input rows to report on"),
        }
    }
}

impl std::error::Error for ReportError {}

/// Map a float onto sign-corrected bits so `u64` ordering equals
/// numeric ordering (NaN sorts above +inf; never produced by runs).
fn ord_bits(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1 << 63)
    }
}

/// One assignment value in the canonical cell key: numbers order
/// numerically via [`ord_bits`]; names order as strings and can never
/// equal any number.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum KeyVal {
    Num(u64),
    Name(String),
}

impl KeyVal {
    fn of(v: &AxisValue) -> KeyVal {
        match v {
            AxisValue::Num(v) => KeyVal::Num(ord_bits(*v)),
            AxisValue::Name(n) => KeyVal::Name(n.clone()),
        }
    }
}

/// The coordinate of a cell minus its policy: `(x, sorted assignments)`.
type Coord = (u64, Vec<(String, KeyVal)>);

/// Full canonical cell identity: coordinate, then policy label.
type CellKey = (Coord, String);

fn cell_key(r: &RunRecord) -> CellKey {
    let mut assigns: Vec<(String, KeyVal)> = r
        .assignments
        .iter()
        .map(|(f, v)| (f.clone(), KeyVal::of(v)))
        .collect();
    assigns.sort();
    ((ord_bits(r.x), assigns), r.policy_label.clone())
}

/// Canonical total order over replicates: seed first (the pairing key),
/// then every measured field, so ties cannot depend on input order.
fn replicate_cmp(a: &Replicate, b: &Replicate) -> std::cmp::Ordering {
    (
        a.seed,
        ord_bits(a.delay_s),
        ord_bits(a.energy_j),
        a.reached,
        a.detected,
        a.missed,
    )
        .cmp(&(
            b.seed,
            ord_bits(b.delay_s),
            ord_bits(b.energy_j),
            b.reached,
            b.detected,
            b.missed,
        ))
}

/// Render the non-primary assignments of a record. The primary axis is
/// positional: `point_at` builds assignments in sweep declaration order
/// and derives the report x from the *first* one (a names axis reports
/// its variant index, so value-matching against x would misidentify the
/// axis), hence everything after index 0 is secondary.
fn extra_assignments(assignments: &[(String, AxisValue)]) -> Vec<String> {
    let mut extra: Vec<String> = assignments
        .iter()
        .skip(1)
        .map(|(f, v)| format!("{f}={v}"))
        .collect();
    extra.sort();
    extra
}

impl Report {
    /// Build a report from an in-process batch.
    pub fn from_batch(batch: &BatchResult, opts: &ReportOptions) -> Result<Report, ReportError> {
        Report::from_records(&batch.name, &batch.x_label, &batch.records, opts)
    }

    /// Build a report from per-run records (any order; the reduction is
    /// canonical, so shuffled inputs produce bit-identical reports).
    pub fn from_records(
        scenario: &str,
        x_label: &str,
        records: &[RunRecord],
        opts: &ReportOptions,
    ) -> Result<Report, ReportError> {
        if records.is_empty() {
            return Err(ReportError::Empty);
        }
        // Canonical grouping: BTreeMap orders cells by (x, assignments,
        // policy) regardless of input order.
        let mut cells_by_key: BTreeMap<CellKey, (f64, Vec<String>, Vec<Replicate>)> =
            BTreeMap::new();
        for r in records {
            let key = cell_key(r);
            cells_by_key
                .entry(key)
                .or_insert_with(|| (r.x, extra_assignments(&r.assignments), Vec::new()))
                .2
                .push(Replicate::of(r));
        }

        /// One policy's side of a coordinate: label, canonically
        /// sorted replicates, x, and the display assignments.
        type Side = (String, Vec<Replicate>, f64, Vec<String>);
        let mut cells = Vec::with_capacity(cells_by_key.len());
        let mut by_coord: BTreeMap<Coord, Vec<Side>> = BTreeMap::new();
        for ((coord, policy), (x, extra, mut reps)) in cells_by_key {
            reps.sort_by(replicate_cmp);
            let delays: Vec<f64> = reps.iter().map(|r| r.delay_s).collect();
            let energies: Vec<f64> = reps.iter().map(|r| r.energy_j).collect();
            let reached: u64 = reps.iter().map(|r| r.reached as u64).sum();
            let detected: u64 = reps.iter().map(|r| r.detected as u64).sum();
            let missed: u64 = reps.iter().map(|r| r.missed as u64).sum();
            cells.push(CellStats {
                x,
                policy: policy.clone(),
                extra: extra.clone(),
                n: reps.len() as u64,
                delay: MetricStats::from_values(&delays, stream::DELAY),
                energy: MetricStats::from_values(&energies, stream::ENERGY),
                reached,
                detected,
                missed,
                miss_rate: if reached > 0 {
                    missed as f64 / reached as f64
                } else {
                    0.0
                },
            });
            by_coord
                .entry(coord)
                .or_default()
                .push((policy, reps, x, extra));
        }

        let labels: Vec<String> = {
            let mut seen = Vec::new();
            for c in &cells {
                if !seen.contains(&c.policy) {
                    seen.push(c.policy.clone());
                }
            }
            seen
        };
        let compared = match &opts.compare {
            Some((a, b)) => {
                for label in [a, b] {
                    if !labels.contains(label) {
                        return Err(ReportError::UnknownPolicy {
                            label: label.clone(),
                            available: labels,
                        });
                    }
                }
                Some((a.clone(), b.clone()))
            }
            None => {
                // The paper's headline pairing, when both labels exist.
                if labels.iter().any(|l| l == "PAS") && labels.iter().any(|l| l == "SAS") {
                    Some(("PAS".to_string(), "SAS".to_string()))
                } else {
                    None
                }
            }
        };

        let mut comparisons = Vec::new();
        if let Some((a, b)) = &compared {
            for cell_group in by_coord.values() {
                let side = |label: &str| cell_group.iter().find(|(p, ..)| p == label);
                let (Some((_, reps_a, x, extra)), Some((_, reps_b, ..))) = (side(a), side(b))
                else {
                    continue;
                };
                // Merge-join on seed (both sides canonically sorted);
                // duplicate seeds pair up in order.
                let mut delay_deltas = Vec::new();
                let mut energy_deltas = Vec::new();
                let (mut i, mut j) = (0, 0);
                while i < reps_a.len() && j < reps_b.len() {
                    match reps_a[i].seed.cmp(&reps_b[j].seed) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            delay_deltas.push(reps_a[i].delay_s - reps_b[j].delay_s);
                            energy_deltas.push(reps_a[i].energy_j - reps_b[j].energy_j);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                if delay_deltas.is_empty() {
                    continue;
                }
                comparisons.push(Comparison {
                    x: *x,
                    extra: extra.clone(),
                    n_pairs: delay_deltas.len() as u64,
                    delay: DeltaStats::from_deltas(&delay_deltas, stream::DELAY_DELTA),
                    energy: DeltaStats::from_deltas(&energy_deltas, stream::ENERGY_DELTA),
                });
            }
        }

        Ok(Report {
            scenario: scenario.to_string(),
            x_label: x_label.to_string(),
            source: Source::Records,
            total_runs: records.len() as u64,
            cells,
            compared,
            comparisons,
        })
    }

    /// Build a degraded report from pre-reduced summaries (a summary
    /// CSV): normal-approximation CIs, no replicate pairing, no
    /// comparisons.
    pub fn from_summaries(
        scenario: &str,
        x_label: &str,
        summaries: &[PointSummary],
    ) -> Result<Report, ReportError> {
        if summaries.is_empty() {
            return Err(ReportError::Empty);
        }
        let mut ordered: Vec<&PointSummary> = summaries.iter().collect();
        ordered.sort_by(|a, b| {
            (ord_bits(a.x), &a.policy_label).cmp(&(ord_bits(b.x), &b.policy_label))
        });
        let cells = ordered
            .iter()
            .map(|s| {
                // 95% normal interval around the mean of n replicates.
                let half = if s.n > 0 {
                    1.96 * s.delay_std_s / (s.n as f64).sqrt()
                } else {
                    0.0
                };
                let e_half = if s.n > 0 {
                    1.96 * s.energy_std_j / (s.n as f64).sqrt()
                } else {
                    0.0
                };
                CellStats {
                    x: s.x,
                    policy: s.policy_label.clone(),
                    extra: Vec::new(),
                    n: s.n,
                    delay: MetricStats {
                        mean: s.delay_mean_s,
                        std: s.delay_std_s,
                        ci_lo: s.delay_mean_s - half,
                        ci_hi: s.delay_mean_s + half,
                        min: s.delay_mean_s,
                        max: s.delay_mean_s,
                    },
                    energy: MetricStats {
                        mean: s.energy_mean_j,
                        std: s.energy_std_j,
                        ci_lo: s.energy_mean_j - e_half,
                        ci_hi: s.energy_mean_j + e_half,
                        min: s.energy_mean_j,
                        max: s.energy_mean_j,
                    },
                    reached: 0,
                    detected: 0,
                    missed: 0,
                    miss_rate: 0.0,
                }
            })
            .collect();
        Ok(Report {
            scenario: scenario.to_string(),
            x_label: x_label.to_string(),
            source: Source::Summaries,
            total_runs: summaries.iter().map(|s| s.n).sum(),
            cells,
            compared: None,
            comparisons: Vec::new(),
        })
    }
}
