//! Time-series metric history: a fixed-interval sampler over the
//! registry, bounded per-series ring buffers, and rate/percentile
//! derivation — the temporal layer under `GET /metrics/history` and
//! `pas top`.
//!
//! A Prometheus exposition ([`crate::render_global`]) is a point-in-time
//! photograph: cumulative counters since process start, the gauge level
//! *right now*, histogram buckets summed over everything that ever
//! happened. Operating a server needs the derivative — submits *per
//! second*, the p99 *of the last window*, queue depth *over the last two
//! minutes*. This module takes that derivative without touching the hot
//! path: a background thread snapshots every registered series into a
//! bounded ring every `interval`, and all derivation (counter→rate,
//! histogram window percentiles) happens at render time from consecutive
//! snapshots.
//!
//! Derivation rules, pinned by tests:
//!
//! * **Counter → rate.** `rate[i] = (v[i+1] − v[i]) / Δt`. A sample
//!   *smaller* than its predecessor means the underlying process
//!   restarted (counters are monotone within a process); the window rate
//!   clamps to zero rather than going negative or spiking to the
//!   post-restart absolute value.
//! * **Gauge → last value.** Gauges are levels; the ring stores them
//!   verbatim. Consumers wanting a lane rate (e.g. per-worker executed
//!   points, which are cumulative values carried in a gauge) difference
//!   the samples themselves ([`DumpSeries::gauge_rates`]).
//! * **Histogram → per-window p50/p95/p99.** Each window differences the
//!   non-cumulative bucket counts of two consecutive snapshots and reads
//!   quantiles off the bucket bounds with linear interpolation inside
//!   the covering bucket. An empty window has no percentile (`null` in
//!   JSON, `NaN` after [`parse_dump`]); a window across a restart
//!   (count went down) likewise.
//!
//! Like the registry itself, the sampler is observational only: it reads
//! atomics and never writes a metric, so enabling it cannot change a
//! result byte — `tests/history_determinism.rs` pins the golden CSVs
//! with the sampler running. Memory is bounded by
//! `series × retention × sample size`, independent of uptime.

use crate::json::{self, quote};
use crate::{series_key, Cell, Kind, Registry};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Default sampling interval.
pub const DEFAULT_INTERVAL: Duration = Duration::from_secs(1);

/// Default samples retained per series (with the default interval:
/// two minutes of history).
pub const DEFAULT_RETENTION: usize = 120;

/// Most series rows the SVG sparkline board renders; the JSON carries
/// everything regardless.
pub const MAX_SVG_ROWS: usize = 80;

/// Sampler configuration.
#[derive(Debug, Clone, Copy)]
pub struct HistoryConfig {
    /// Time between registry snapshots.
    pub interval: Duration,
    /// Samples retained per series (ring capacity).
    pub retention: usize,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        HistoryConfig {
            interval: DEFAULT_INTERVAL,
            retention: DEFAULT_RETENTION,
        }
    }
}

/// One snapshot of one series' cell.
#[derive(Debug, Clone, PartialEq)]
enum Sample {
    Counter(u64),
    Gauge(i64),
    /// Cumulative histogram state: per-bucket (non-cumulative) counts
    /// including the `+Inf` overflow slot, total count, sum.
    Hist {
        counts: Vec<u64>,
        count: u64,
    },
}

/// The ring for one series.
struct Ring {
    name: String,
    labels: Vec<(String, String)>,
    kind: Kind,
    /// Histogram bucket upper bounds (empty for counters/gauges).
    bounds: Vec<f64>,
    /// `(unix_ms, value)` snapshots, oldest first, capped at retention.
    samples: VecDeque<(u64, Sample)>,
}

/// Bounded per-series sample history. Most code uses the process-wide
/// instance installed by [`start_sampler`]; tests construct their own
/// and drive [`History::sample_at`] with explicit clocks.
pub struct History {
    interval: Duration,
    retention: usize,
    rings: Mutex<HashMap<String, Ring>>,
}

impl History {
    /// An empty history with the given sampling configuration.
    pub fn new(cfg: HistoryConfig) -> History {
        History {
            interval: cfg.interval,
            retention: cfg.retention.max(2),
            rings: Mutex::new(HashMap::new()),
        }
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Snapshot every series of `reg` at the wall clock.
    pub fn sample(&self, reg: &Registry) {
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.sample_at(reg, now_ms);
    }

    /// Snapshot every series of `reg`, stamping the samples `now_ms`.
    /// Exposed for tests: an explicit clock makes rate maths exact.
    pub fn sample_at(&self, reg: &Registry, now_ms: u64) {
        // Clone the Arcs out first so the registry shard locks and the
        // ring lock are never held together.
        let mut all = Vec::new();
        for shard in &reg.shards {
            all.extend(shard.lock().unwrap().values().cloned());
        }
        let mut rings = self.rings.lock().unwrap();
        for s in all {
            let (value, bounds) = match &s.cell {
                Cell::Counter(c) => (Sample::Counter(c.load(Ordering::Relaxed)), Vec::new()),
                Cell::Gauge(g) => (Sample::Gauge(g.load(Ordering::Relaxed)), Vec::new()),
                Cell::Histogram(h) => (
                    Sample::Hist {
                        counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                        count: h.count.load(Ordering::Relaxed),
                    },
                    h.bounds.clone(),
                ),
            };
            let ring = rings
                .entry(series_key(&s.name, &s.labels))
                .or_insert_with(|| Ring {
                    name: s.name.clone(),
                    labels: s.labels.clone(),
                    kind: s.kind(),
                    bounds,
                    samples: VecDeque::new(),
                });
            ring.samples.push_back((now_ms, value));
            while ring.samples.len() > self.retention {
                ring.samples.pop_front();
            }
        }
    }

    /// Number of series with at least one sample.
    pub fn series_count(&self) -> usize {
        self.rings.lock().unwrap().len()
    }

    /// Render the whole history as one JSON document. Series are sorted
    /// by `(name, labels)` and floats print with fixed precision, so for
    /// a fixed ring state the output is canonical bytes.
    ///
    /// Shape: `{"schema":1,"interval_ms":..,"retention":..,"series":[..]}`
    /// where each series object carries `name`, `labels`, `kind`,
    /// `t_ms` (sample times), then per kind: counters `values` +
    /// `rates` (one per consecutive-sample window, reset-clamped),
    /// gauges `values`, histograms `count` + `count_rate` + `p50`/`p95`/
    /// `p99` (per window; `null` when the window saw no observations).
    pub fn render_json(&self) -> String {
        let rings = self.rings.lock().unwrap();
        let mut sorted: Vec<&Ring> = rings.values().collect();
        sorted.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        let mut out = format!(
            "{{\"schema\":1,\"interval_ms\":{},\"retention\":{},\"series\":[",
            self.interval.as_millis(),
            self.retention
        );
        for (i, ring) in sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            render_series_json(&mut out, ring);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Render the history as a self-contained SVG sparkline board: one
    /// row per series (name, sparkline over the ring, last value), no
    /// external assets, deterministic bytes for a fixed ring state.
    pub fn render_svg(&self) -> String {
        let rings = self.rings.lock().unwrap();
        let mut sorted: Vec<&Ring> = rings.values().collect();
        sorted.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        let shown = sorted.len().min(MAX_SVG_ROWS);
        let hidden = sorted.len() - shown;
        let row_h = 18.0;
        let header = 34.0;
        let height = header + row_h * (shown as f64 + if hidden > 0 { 1.0 } else { 0.0 }) + 8.0;
        let width = 860.0;
        let mut out = format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height:.0}\" \
             font-family=\"monospace\" font-size=\"11\">\n\
             <rect width=\"100%\" height=\"100%\" fill=\"#fdfdfd\"/>\n\
             <text x=\"8\" y=\"20\" font-size=\"13\">pas metric history — {} series, \
             interval {} ms, retention {}</text>\n",
            sorted.len(),
            self.interval.as_millis(),
            self.retention
        );
        for (i, ring) in sorted.iter().take(shown).enumerate() {
            let y = header + row_h * (i as f64 + 1.0) - 5.0;
            let plot = plot_points(ring);
            let label = if ring.labels.is_empty() {
                ring.name.clone()
            } else {
                let labels: Vec<String> = ring
                    .labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                format!("{}{{{}}}", ring.name, labels.join(","))
            };
            let _ = writeln!(
                out,
                "<text x=\"8\" y=\"{y:.1}\">{}</text>",
                xml_escape(&truncate(&label, 58))
            );
            let x0 = 540.0;
            let x1 = 790.0;
            let finite: Vec<f64> = plot.iter().copied().filter(|v| v.is_finite()).collect();
            if finite.len() >= 2 {
                let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let span = if hi > lo { hi - lo } else { 1.0 };
                let n = plot.len();
                let mut points = String::new();
                for (j, v) in plot.iter().enumerate() {
                    if !v.is_finite() {
                        continue;
                    }
                    let x = x0 + (x1 - x0) * j as f64 / (n - 1).max(1) as f64;
                    let py = y - 1.0 - 10.0 * (v - lo) / span;
                    let _ = write!(points, "{x:.1},{py:.1} ");
                }
                let _ = writeln!(
                    out,
                    "<polyline fill=\"none\" stroke=\"#4477aa\" stroke-width=\"1\" \
                     points=\"{}\"/>",
                    points.trim_end()
                );
            }
            if let Some(last) = finite.last() {
                let _ = writeln!(
                    out,
                    "<text x=\"{:.1}\" y=\"{y:.1}\">{last:.1}</text>",
                    x1 + 8.0
                );
            }
        }
        if hidden > 0 {
            let y = header + row_h * (shown as f64 + 1.0) - 5.0;
            let _ = writeln!(
                out,
                "<text x=\"8\" y=\"{y:.1}\">… {hidden} more series (see JSON)</text>"
            );
        }
        out.push_str("</svg>\n");
        out
    }
}

/// What a sparkline plots per kind: counter rates, gauge levels,
/// histogram window p95s (`NaN` marks an empty window gap).
fn plot_points(ring: &Ring) -> Vec<f64> {
    match ring.kind {
        Kind::Counter => {
            let samples: Vec<(u64, u64)> = ring
                .samples
                .iter()
                .map(|(t, s)| match s {
                    Sample::Counter(v) => (*t, *v),
                    _ => (*t, 0),
                })
                .collect();
            counter_rates(&samples)
        }
        Kind::Gauge => ring
            .samples
            .iter()
            .map(|(_, s)| match s {
                Sample::Gauge(v) => *v as f64,
                _ => 0.0,
            })
            .collect(),
        Kind::Histogram => hist_windows(ring)
            .iter()
            .map(|w| match w {
                Some(d) => window_quantile(&ring.bounds, d, 0.95).unwrap_or(f64::NAN),
                None => f64::NAN,
            })
            .collect(),
    }
}

fn render_series_json(out: &mut String, ring: &Ring) {
    let _ = write!(out, "{{\"name\":{},\"labels\":{{", quote(&ring.name));
    for (i, (k, v)) in ring.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", quote(k), quote(v));
    }
    let _ = write!(
        out,
        "}},\"kind\":\"{}\",\"t_ms\":[{}]",
        ring.kind.as_str(),
        join_u64(ring.samples.iter().map(|(t, _)| *t))
    );
    match ring.kind {
        Kind::Counter => {
            let samples: Vec<(u64, u64)> = ring
                .samples
                .iter()
                .map(|(t, s)| match s {
                    Sample::Counter(v) => (*t, *v),
                    _ => (*t, 0),
                })
                .collect();
            let _ = write!(
                out,
                ",\"values\":[{}],\"rates\":[{}]",
                join_u64(samples.iter().map(|(_, v)| *v)),
                join_f64(counter_rates(&samples).into_iter(), 3)
            );
        }
        Kind::Gauge => {
            let values = ring.samples.iter().map(|(_, s)| match s {
                Sample::Gauge(v) => *v,
                _ => 0,
            });
            let vals: Vec<String> = values.map(|v| v.to_string()).collect();
            let _ = write!(out, ",\"values\":[{}]", vals.join(","));
        }
        Kind::Histogram => {
            let counts: Vec<(u64, u64)> = ring
                .samples
                .iter()
                .map(|(t, s)| match s {
                    Sample::Hist { count, .. } => (*t, *count),
                    _ => (*t, 0),
                })
                .collect();
            let windows = hist_windows(ring);
            let quant = |q: f64| -> String {
                let vals: Vec<String> = windows
                    .iter()
                    .map(|w| match w {
                        Some(d) => match window_quantile(&ring.bounds, d, q) {
                            Some(v) => format!("{v:.1}"),
                            None => "null".to_string(),
                        },
                        None => "null".to_string(),
                    })
                    .collect();
                vals.join(",")
            };
            let _ = write!(
                out,
                ",\"count\":[{}],\"count_rate\":[{}],\"p50\":[{}],\"p95\":[{}],\"p99\":[{}]",
                join_u64(counts.iter().map(|(_, c)| *c)),
                join_f64(counter_rates(&counts).into_iter(), 3),
                quant(0.50),
                quant(0.95),
                quant(0.99),
            );
        }
    }
    out.push('}');
}

/// Per-window bucket deltas for a histogram ring: element `i` covers
/// samples `i → i+1`. `None` marks a restart window (total count went
/// down — the deltas would be garbage).
fn hist_windows(ring: &Ring) -> Vec<Option<Vec<u64>>> {
    let samples: Vec<(&Vec<u64>, u64)> = ring
        .samples
        .iter()
        .filter_map(|(_, s)| match s {
            Sample::Hist { counts, count } => Some((counts, *count)),
            _ => None,
        })
        .collect();
    let mut out = Vec::new();
    for pair in samples.windows(2) {
        let ((prev, prev_n), (cur, cur_n)) = (&pair[0], &pair[1]);
        if cur_n < prev_n || cur.len() != prev.len() {
            out.push(None);
            continue;
        }
        out.push(Some(
            cur.iter()
                .zip(prev.iter())
                .map(|(c, p)| c.saturating_sub(*p))
                .collect(),
        ));
    }
    out
}

/// Counter rate derivation over `(unix_ms, value)` samples: one rate
/// per consecutive pair, in events/second. A value below its
/// predecessor is a process restart — that window's rate clamps to
/// zero. Zero or negative elapsed time also yields zero, never a
/// division blow-up.
pub fn counter_rates(samples: &[(u64, u64)]) -> Vec<f64> {
    samples
        .windows(2)
        .map(|w| {
            let ((t0, v0), (t1, v1)) = (w[0], w[1]);
            if t1 <= t0 || v1 < v0 {
                0.0
            } else {
                (v1 - v0) as f64 * 1000.0 / (t1 - t0) as f64
            }
        })
        .collect()
}

/// Quantile estimate over one window of non-cumulative bucket `deltas`
/// (`deltas.len() == bounds.len() + 1`, the last slot being `+Inf`).
/// Linear interpolation inside the covering bucket; mass landing in the
/// overflow bucket reports the last finite bound (all a fixed-bound
/// histogram can say). `None` when the window is empty.
pub fn window_quantile(bounds: &[f64], deltas: &[u64], q: f64) -> Option<f64> {
    let total: u64 = deltas.iter().sum();
    if total == 0 {
        return None;
    }
    let target = (q * total as f64).ceil().max(1.0);
    let mut cum = 0u64;
    for (i, n) in deltas.iter().enumerate() {
        let before = cum;
        cum += n;
        if (cum as f64) < target {
            continue;
        }
        if i >= bounds.len() {
            // Overflow bucket: unbounded above, report the last edge.
            return Some(bounds.last().copied().unwrap_or(0.0));
        }
        let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
        let upper = bounds[i];
        let frac = if *n == 0 {
            1.0
        } else {
            (target - before as f64) / *n as f64
        };
        return Some(lower + (upper - lower) * frac.clamp(0.0, 1.0));
    }
    None
}

fn join_u64(it: impl Iterator<Item = u64>) -> String {
    let v: Vec<String> = it.map(|x| x.to_string()).collect();
    v.join(",")
}

fn join_f64(it: impl Iterator<Item = f64>, precision: usize) -> String {
    let v: Vec<String> = it.map(|x| format!("{x:.precision$}")).collect();
    v.join(",")
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let head: String = s.chars().take(max - 1).collect();
        format!("{head}…")
    }
}

// --- process-wide sampler ---------------------------------------------------

static ACTIVE: Mutex<Option<Arc<History>>> = Mutex::new(None);

/// The history the running [`Sampler`] feeds, if one is active — what
/// `GET /metrics/history` renders.
pub fn active() -> Option<Arc<History>> {
    ACTIVE.lock().unwrap().clone()
}

/// A fixed-interval sampler thread over the global registry. Stops,
/// joins, and deregisters itself from [`active`] on drop.
pub struct Sampler {
    history: Arc<History>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// Start sampling the global registry every `cfg.interval` into a fresh
/// [`History`], installing it as the process-wide [`active`] one. The
/// first snapshot is taken immediately, so even a short-lived process
/// has at least one sample. Starting a second sampler replaces the
/// active slot; the old thread keeps its (now unpublished) history
/// until dropped.
pub fn start_sampler(cfg: HistoryConfig) -> Sampler {
    let history = Arc::new(History::new(cfg));
    *ACTIVE.lock().unwrap() = Some(Arc::clone(&history));
    let stop = Arc::new(AtomicBool::new(false));
    let (h, s) = (Arc::clone(&history), Arc::clone(&stop));
    let interval = cfg.interval.max(Duration::from_millis(10));
    let thread = std::thread::Builder::new()
        .name("pas-history-sampler".to_string())
        .spawn(move || loop {
            h.sample(crate::global());
            // Sleep in short slices so a dropping owner (bench runs,
            // test teardown) never waits a full interval for the join.
            let deadline = Instant::now() + interval;
            loop {
                if s.load(Ordering::Relaxed) {
                    return;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                std::thread::sleep((deadline - now).min(Duration::from_millis(25)));
            }
        })
        .expect("spawn history sampler thread");
    Sampler {
        history,
        stop,
        thread: Some(thread),
    }
}

impl Sampler {
    /// The history this sampler feeds.
    pub fn history(&self) -> Arc<History> {
        Arc::clone(&self.history)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let mut active = ACTIVE.lock().unwrap();
        if active
            .as_ref()
            .is_some_and(|a| Arc::ptr_eq(a, &self.history))
        {
            *active = None;
        }
    }
}

// --- client-side parse ------------------------------------------------------

/// A parsed `GET /metrics/history` JSON document — the client-side view
/// `pas top` and `pas status --metrics` consume.
#[derive(Debug, Clone, Default)]
pub struct Dump {
    /// Sampling interval in milliseconds.
    pub interval_ms: u64,
    /// Ring capacity per series.
    pub retention: u64,
    /// All series, in the server's canonical `(name, labels)` order.
    pub series: Vec<DumpSeries>,
}

/// One parsed series. Arrays mirror the JSON; `null` percentile slots
/// parse as `NaN` (skip them with `is_finite`).
#[derive(Debug, Clone, Default)]
pub struct DumpSeries {
    /// Dotted metric name.
    pub name: String,
    /// Sorted label set.
    pub labels: Vec<(String, String)>,
    /// `counter`, `gauge`, or `histogram`.
    pub kind: String,
    /// Sample times (unix ms).
    pub t_ms: Vec<u64>,
    /// Counter/gauge sample values (empty for histograms).
    pub values: Vec<f64>,
    /// Counter window rates (events/s), reset-clamped.
    pub rates: Vec<f64>,
    /// Histogram observation rates per window.
    pub count_rate: Vec<f64>,
    /// Histogram window p50s (µs for `.microseconds` series).
    pub p50: Vec<f64>,
    /// Histogram window p95s.
    pub p95: Vec<f64>,
    /// Histogram window p99s.
    pub p99: Vec<f64>,
}

impl DumpSeries {
    /// The value of label `key`, when present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The newest window rate of a counter series (0 with fewer than
    /// two samples).
    pub fn last_rate(&self) -> f64 {
        self.rates.last().copied().unwrap_or(0.0)
    }

    /// Per-window rates for a *monotone* gauge (cumulative telemetry
    /// carried as a gauge, e.g. per-worker executed points): sample
    /// deltas per second, windows where the value fell (worker restart)
    /// clamped to zero.
    pub fn gauge_rates(&self) -> Vec<f64> {
        self.t_ms
            .windows(2)
            .zip(self.values.windows(2))
            .map(|(t, v)| {
                if t[1] <= t[0] || v[1] < v[0] {
                    0.0
                } else {
                    (v[1] - v[0]) * 1000.0 / (t[1] - t[0]) as f64
                }
            })
            .collect()
    }
}

impl Dump {
    /// All series named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a DumpSeries> {
        self.series.iter().filter(move |s| s.name == name)
    }

    /// Sum of the newest counter window rates across every series named
    /// `name`, optionally restricted to one `label == value`.
    pub fn rate_sum(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        self.named(name)
            .filter(|s| match label {
                Some((k, v)) => s.label(k) == Some(v),
                None => true,
            })
            .map(|s| s.last_rate())
            .sum()
    }
}

/// Parse a `GET /metrics/history` JSON body rendered by
/// [`History::render_json`]. Returns `None` on anything structurally
/// unrecognisable; unknown fields are ignored, so the parse is
/// forward-compatible with added arrays.
pub fn parse_dump(text: &str) -> Option<Dump> {
    let root = json::parse(text)?;
    let mut dump = Dump {
        interval_ms: root.get("interval_ms")?.as_u64()?,
        retention: root.get("retention").and_then(|v| v.as_u64()).unwrap_or(0),
        series: Vec::new(),
    };
    for obj in root.get("series")?.items() {
        let items = |key: &str| obj.get(key).into_iter().flat_map(|a| a.items());
        // `null` (an empty window) and any other non-number read as NaN.
        let floats = |key: &str| -> Vec<f64> {
            items(key).map(|v| v.as_f64().unwrap_or(f64::NAN)).collect()
        };
        let labels = obj.get("labels").into_iter().flat_map(|l| l.members());
        dump.series.push(DumpSeries {
            name: obj.get("name")?.as_str()?,
            labels: labels.filter_map(|(k, v)| Some((k, v.as_str()?))).collect(),
            kind: obj.get("kind")?.as_str()?,
            t_ms: items("t_ms").filter_map(|v| v.as_u64()).collect(),
            values: floats("values"),
            rates: floats("rates"),
            count_rate: floats("count_rate"),
            p50: floats("p50"),
            p95: floats("p95"),
            p99: floats("p99"),
        });
    }
    Some(dump)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(interval_ms: u64, retention: usize) -> HistoryConfig {
        HistoryConfig {
            interval: Duration::from_millis(interval_ms),
            retention,
        }
    }

    #[test]
    fn retention_wraps_and_keeps_newest() {
        let reg = Registry::new();
        let c = reg.counter("pas.h.events.count", &[]);
        let h = History::new(cfg(1000, 4));
        for i in 0..10u64 {
            c.add(1);
            h.sample_at(&reg, i * 1000);
        }
        let json = h.render_json();
        let dump = parse_dump(&json).expect("parses");
        let s = dump.named("pas.h.events.count").next().expect("series");
        // Only the 4 newest samples survive, oldest first.
        assert_eq!(s.t_ms, vec![6000, 7000, 8000, 9000]);
        assert_eq!(s.values, vec![7.0, 8.0, 9.0, 10.0]);
        assert_eq!(s.rates.len(), 3);
        assert!(s.rates.iter().all(|r| (r - 1.0).abs() < 1e-9));
    }

    #[test]
    fn counter_reset_clamps_rate_to_zero() {
        // Pure derivation: a drop means restart, the window rate is 0,
        // and the next full window recovers.
        let rates = counter_rates(&[(0, 10), (1000, 14), (2000, 3), (3000, 5)]);
        assert_eq!(rates, vec![4.0, 0.0, 2.0]);
        // Ring-level: sampling a *different* registry (fresh process)
        // into the same history is exactly a restart.
        let h = History::new(cfg(1000, 16));
        let reg1 = Registry::new();
        reg1.counter("pas.h.r.count", &[]).add(10);
        h.sample_at(&reg1, 0);
        let reg2 = Registry::new();
        reg2.counter("pas.h.r.count", &[]).add(3);
        h.sample_at(&reg2, 1000);
        let dump = parse_dump(&h.render_json()).unwrap();
        let s = dump.named("pas.h.r.count").next().unwrap();
        assert_eq!(s.rates, vec![0.0]);
    }

    #[test]
    fn zero_elapsed_window_never_divides_by_zero() {
        assert_eq!(counter_rates(&[(5, 1), (5, 100)]), vec![0.0]);
        assert_eq!(counter_rates(&[(5, 1), (4, 100)]), vec![0.0]);
    }

    #[test]
    fn empty_and_single_sample_windows_render_clean() {
        let h = History::new(cfg(1000, 8));
        // No samples at all: a valid document with no series.
        let dump = parse_dump(&h.render_json()).expect("empty history parses");
        assert!(dump.series.is_empty());
        // One sample: values but no windows — empty rate/percentile
        // arrays, no panic.
        let reg = Registry::new();
        reg.counter("pas.h.one.count", &[]).add(7);
        reg.histogram("pas.h.one.microseconds", &[], &[10.0, 100.0])
            .observe(50.0);
        h.sample_at(&reg, 0);
        let dump = parse_dump(&h.render_json()).unwrap();
        let c = dump.named("pas.h.one.count").next().unwrap();
        assert_eq!(c.values, vec![7.0]);
        assert!(c.rates.is_empty());
        let hist = dump.named("pas.h.one.microseconds").next().unwrap();
        assert!(hist.p50.is_empty() && hist.p99.is_empty());
    }

    #[test]
    fn histogram_windows_difference_consecutive_snapshots() {
        let reg = Registry::new();
        let hist = reg.histogram("pas.h.lat.microseconds", &[], &[10.0, 100.0, 1000.0]);
        let h = History::new(cfg(1000, 8));
        h.sample_at(&reg, 0);
        // Window 1: 10 fast observations.
        for _ in 0..10 {
            hist.observe(5.0);
        }
        h.sample_at(&reg, 1000);
        // Window 2: 9 fast + 1 slow — p50 fast, p99 lands in the slow
        // bucket even though the cumulative distribution is fast-heavy.
        for _ in 0..9 {
            hist.observe(5.0);
        }
        hist.observe(500.0);
        h.sample_at(&reg, 2000);
        let dump = parse_dump(&h.render_json()).unwrap();
        let s = dump.named("pas.h.lat.microseconds").next().unwrap();
        assert_eq!(s.count_rate, vec![10.0, 10.0]);
        assert!(s.p50[0] <= 10.0 && s.p50[1] <= 10.0);
        assert!(s.p99[0] <= 10.0, "all-fast window p99: {}", s.p99[0]);
        assert!(s.p99[1] > 100.0, "slow-tail window p99: {}", s.p99[1]);
    }

    #[test]
    fn window_quantile_interpolates_and_handles_overflow() {
        let bounds = [10.0, 100.0];
        // All mass in the first bucket: interpolated inside [0, 10].
        let q = window_quantile(&bounds, &[10, 0, 0], 0.5).unwrap();
        assert!(q > 0.0 && q <= 10.0);
        // Overflow mass reports the last finite bound.
        assert_eq!(window_quantile(&bounds, &[0, 0, 5], 0.99), Some(100.0));
        // Empty window has no quantile.
        assert_eq!(window_quantile(&bounds, &[0, 0, 0], 0.5), None);
    }

    #[test]
    fn json_roundtrips_through_parse_dump() {
        let reg = Registry::new();
        reg.counter("pas.h.rt.count", &[("outcome", "ok"), ("route", "/jobs")])
            .add(3);
        reg.gauge("pas.h.rt.jobs", &[]).set(-2);
        // Worker names are free text (`pas worker --name`) labelling `pas
        // top`'s lanes: each comes back verbatim, in the dump's order.
        let workers = ["a\u{1}b", "a\rb", "a\"b", "a\\b", "a}b", "a\u{1F980}b"];
        for w in workers {
            reg.gauge("pas.h.rt.worker", &[("worker", w)]).set(1);
        }
        let h = History::new(cfg(500, 8));
        h.sample_at(&reg, 1000);
        h.sample_at(&reg, 1500);
        let json = h.render_json();
        let dump = parse_dump(&json).expect("parses");
        assert_eq!(dump.interval_ms, 500);
        assert_eq!(dump.series.len(), 2 + workers.len());
        let named = dump.named("pas.h.rt.worker");
        let back: Vec<&str> = named.filter_map(|s| s.label("worker")).collect();
        assert_eq!(back, workers);
        let c = dump.named("pas.h.rt.count").next().unwrap();
        assert_eq!(c.kind, "counter");
        assert_eq!(c.label("outcome"), Some("ok"));
        assert_eq!(c.label("route"), Some("/jobs"));
        assert_eq!(c.t_ms, vec![1000, 1500]);
        let g = dump.named("pas.h.rt.jobs").next().unwrap();
        assert_eq!(g.values, vec![-2.0, -2.0]);
        // Canonical: a second render of the same state is identical.
        assert_eq!(json, h.render_json());
    }

    #[test]
    fn gauge_rates_difference_monotone_gauges_with_reset_clamp() {
        let s = DumpSeries {
            t_ms: vec![0, 1000, 2000, 3000],
            values: vec![100.0, 150.0, 20.0, 30.0],
            ..DumpSeries::default()
        };
        assert_eq!(s.gauge_rates(), vec![50.0, 0.0, 10.0]);
    }

    #[test]
    fn svg_board_is_self_contained_and_bounded() {
        let reg = Registry::new();
        let c = reg.counter("pas.h.svg.count", &[]);
        let h = History::new(cfg(1000, 16));
        for i in 0..5u64 {
            c.add(i * 3);
            h.sample_at(&reg, i * 1000);
        }
        let svg = h.render_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("pas.h.svg.count"));
        assert!(svg.contains("<polyline"));
        // Self-contained: nothing that would fetch or execute.
        assert!(!svg.contains("href") && !svg.contains("<script") && !svg.contains("<image"));
        assert_eq!(svg, h.render_svg(), "canonical bytes");
    }

    #[test]
    fn sampler_thread_populates_active_and_clears_on_drop() {
        crate::add("pas.h.live.count", &[], 5);
        let sampler = start_sampler(cfg(10, 32));
        let deadline = Instant::now() + Duration::from_secs(5);
        while sampler.history().series_count() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(sampler.history().series_count() > 0);
        assert!(active().is_some());
        let json = sampler.history().render_json();
        assert!(json.contains("pas.h.live.count"));
        drop(sampler);
        assert!(active().is_none(), "drop deregisters the sampler");
    }

    #[test]
    fn rate_sum_filters_by_label() {
        let reg = Registry::new();
        reg.counter("pas.h.f.count", &[("outcome", "hit")]).add(10);
        reg.counter("pas.h.f.count", &[("outcome", "miss")]).add(2);
        let h = History::new(cfg(1000, 8));
        h.sample_at(&reg, 0);
        reg.counter("pas.h.f.count", &[("outcome", "hit")]).add(8);
        reg.counter("pas.h.f.count", &[("outcome", "miss")]).add(2);
        h.sample_at(&reg, 1000);
        let dump = parse_dump(&h.render_json()).unwrap();
        assert_eq!(
            dump.rate_sum("pas.h.f.count", Some(("outcome", "hit"))),
            8.0
        );
        assert_eq!(dump.rate_sum("pas.h.f.count", None), 10.0);
    }
}
