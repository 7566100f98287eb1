//! Process-global metrics: a lock-sharded registry of counters, gauges,
//! and fixed-bucket histograms, rendered as Prometheus text exposition.
//!
//! Names are hierarchical dotted paths — `pas.<layer>.<noun>.<unit>` —
//! and every series carries a (small, low-cardinality) sorted label set:
//! scenario, policy, predictor, worker, route, outcome. The registry is
//! observational only: nothing in the simulation pipeline reads a metric
//! back, so enabling or disabling collection cannot change a result
//! byte. Hot paths pay one key encode + shard lock per update (~100ns),
//! which `pas bench` tracks as a metrics-on vs metrics-off pair.
//!
//! Layout: series are interned in one of [`SHARDS`] mutex-guarded maps,
//! picked by key hash, so unrelated series never contend; the cells
//! themselves are atomics, so two threads updating the *same* series
//! only contend on the cache line, not a lock. The series key is a
//! length-prefixed encoding of `(name, k1, v1, k2, v2, ...)` with labels
//! sorted by key — injective, so distinct label sets can never collide,
//! and canonical, so exposition output is deterministic bytes.
//!
//! A timed seam is instrumented with one guard, [`span`]: it reads the
//! monotonic clock at open and at close, and from that one measurement
//! feeds the seam's [`profile`] region, an optional histogram here, and
//! a [`trace`] span. A seam that updates one fixed series per point
//! binds it once per process through a [`CounterSite`] or
//! [`HistogramSite`] instead of looking it up by name on every update.
//!
//! [`json`] is the workspace's one JSON codec: writers quote strings with
//! [`json::quote`], readers decode with [`json::parse`].

pub mod history;
pub mod json;
pub mod profile;
pub mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of registry lock shards. Contention is per-shard and updates
/// hold the lock only for a map lookup, so a small power of two is ample.
pub const SHARDS: usize = 16;

/// Default histogram buckets for microsecond timings: 10µs–1s, roughly
/// logarithmic. Wide enough for a 450µs simulation point and a
/// multi-second report render alike.
pub const US_BUCKETS: &[f64] = &[
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6,
];

/// Buckets for small integer counts (shard sizes in points, etc.).
pub const COUNT_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// What a series measures. A name must keep one kind for the life of
/// the process; re-registering under another kind is a programming
/// error and panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone event count.
    Counter,
    /// Instantaneous signed level.
    Gauge,
    /// Fixed-bucket distribution with sum and count.
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One registered time series: a name, a sorted label set, and a cell.
pub struct Series {
    name: String,
    labels: Vec<(String, String)>,
    cell: Cell,
}

enum Cell {
    Counter(AtomicU64),
    Gauge(AtomicI64),
    Histogram(Hist),
}

struct Hist {
    /// Upper bounds, ascending; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `len == bounds.len() + 1`.
    counts: Vec<AtomicU64>,
    /// Sum of observed values, stored as f64 bits (CAS-accumulated).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Series {
    fn kind(&self) -> Kind {
        match self.cell {
            Cell::Counter(_) => Kind::Counter,
            Cell::Gauge(_) => Kind::Gauge,
            Cell::Histogram(_) => Kind::Histogram,
        }
    }
}

/// A counter handle. Cheap to clone; updates are a single atomic add.
#[derive(Clone)]
pub struct Counter(Arc<Series>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        match &self.0.cell {
            Cell::Counter(c) => {
                c.fetch_add(n, Ordering::Relaxed);
            }
            _ => unreachable!("counter handle over non-counter series"),
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        match &self.0.cell {
            Cell::Counter(c) => c.load(Ordering::Relaxed),
            _ => unreachable!(),
        }
    }
}

/// A gauge handle.
#[derive(Clone)]
pub struct Gauge(Arc<Series>);

impl Gauge {
    /// Set the level.
    pub fn set(&self, v: i64) {
        match &self.0.cell {
            Cell::Gauge(g) => g.store(v, Ordering::Relaxed),
            _ => unreachable!("gauge handle over non-gauge series"),
        }
    }

    /// Adjust the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        match &self.0.cell {
            Cell::Gauge(g) => {
                g.fetch_add(delta, Ordering::Relaxed);
            }
            _ => unreachable!(),
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        match &self.0.cell {
            Cell::Gauge(g) => g.load(Ordering::Relaxed),
            _ => unreachable!(),
        }
    }
}

/// A histogram handle.
#[derive(Clone)]
pub struct Histogram(Arc<Series>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        match &self.0.cell {
            Cell::Histogram(h) => {
                let i = h.bounds.partition_point(|b| v > *b);
                h.counts[i].fetch_add(1, Ordering::Relaxed);
                h.count.fetch_add(1, Ordering::Relaxed);
                let mut cur = h.sum_bits.load(Ordering::Relaxed);
                loop {
                    let next = (f64::from_bits(cur) + v).to_bits();
                    match h.sum_bits.compare_exchange_weak(
                        cur,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(seen) => cur = seen,
                    }
                }
            }
            _ => unreachable!("histogram handle over non-histogram series"),
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        match &self.0.cell {
            Cell::Histogram(h) => h.count.load(Ordering::Relaxed),
            _ => unreachable!(),
        }
    }

    /// Sum of observations so far.
    pub fn sum(&self) -> f64 {
        match &self.0.cell {
            Cell::Histogram(h) => f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
            _ => unreachable!(),
        }
    }
}

/// Encode `(name, k1, v1, ...)` as a self-delimiting key: each component
/// is `<decimal length>.<bytes>`. The parse is unambiguous left to
/// right, so the encoding is injective — two distinct (name, label-set)
/// pairs always get distinct keys — and labels are pre-sorted, so it is
/// canonical too.
fn series_key(name: &str, labels: &[(String, String)]) -> String {
    let mut key = String::with_capacity(name.len() + 16 * labels.len() + 8);
    let _ = write!(key, "{}.", name.len());
    key.push_str(name);
    for (k, v) in labels {
        let _ = write!(key, "{}.", k.len());
        key.push_str(k);
        let _ = write!(key, "{}.", v.len());
        key.push_str(v);
    }
    key
}

fn shard_of(key: &str) -> usize {
    // FNV-1a: deterministic across runs (unlike RandomState), trivially
    // fast, and good enough to spread series across 16 shards.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h as usize) % SHARDS
}

/// A metrics registry. Most code uses the process-global one via the
/// free functions; tests construct their own.
pub struct Registry {
    shards: Vec<Mutex<HashMap<String, Arc<Series>>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn intern(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce(String, Vec<(String, String)>) -> Series,
        want: Kind,
    ) -> Arc<Series> {
        let mut owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        owned.sort();
        let key = series_key(name, &owned);
        let mut shard = self.shards[shard_of(&key)].lock().unwrap();
        let series = shard
            .entry(key)
            .or_insert_with(|| Arc::new(make(name.to_string(), owned)))
            .clone();
        assert!(
            series.kind() == want,
            "metric {name:?} re-registered as {} (was {})",
            want.as_str(),
            series.kind().as_str()
        );
        series
    }

    /// The counter for `name` + `labels`, created on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.intern(
            name,
            labels,
            |name, labels| Series {
                name,
                labels,
                cell: Cell::Counter(AtomicU64::new(0)),
            },
            Kind::Counter,
        ))
    }

    /// The gauge for `name` + `labels`, created on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.intern(
            name,
            labels,
            |name, labels| Series {
                name,
                labels,
                cell: Cell::Gauge(AtomicI64::new(0)),
            },
            Kind::Gauge,
        ))
    }

    /// The histogram for `name` + `labels`, created on first use with
    /// the given bucket bounds (ignored if the series already exists).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], buckets: &[f64]) -> Histogram {
        Histogram(self.intern(
            name,
            labels,
            |name, labels| Series {
                name,
                labels,
                cell: Cell::Histogram(Hist {
                    bounds: buckets.to_vec(),
                    counts: (0..=buckets.len()).map(|_| AtomicU64::new(0)).collect(),
                    sum_bits: AtomicU64::new(0f64.to_bits()),
                    count: AtomicU64::new(0),
                }),
            },
            Kind::Histogram,
        ))
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether no series are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the whole registry as Prometheus text exposition
    /// (version 0.0.4). Series are sorted by (name, label set) and
    /// dotted names are mapped to underscores, so for a fixed registry
    /// state the output is canonical: byte-identical across calls and
    /// across registration orders.
    pub fn render_prometheus(&self) -> String {
        let mut all: Vec<Arc<Series>> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().unwrap().values().cloned());
        }
        all.sort_by(|a, b| {
            (&a.name, &a.labels)
                .cmp(&(&b.name, &b.labels))
                .then(a.kind().as_str().cmp(b.kind().as_str()))
        });
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for s in &all {
            let pname = prom_name(&s.name);
            if last_name != Some(s.name.as_str()) {
                let _ = writeln!(out, "# TYPE {pname} {}", s.kind().as_str());
                last_name = Some(s.name.as_str());
            }
            match &s.cell {
                Cell::Counter(c) => {
                    let _ = writeln!(
                        out,
                        "{pname}{} {}",
                        label_block(&s.labels, None),
                        c.load(Ordering::Relaxed)
                    );
                }
                Cell::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{pname}{} {}",
                        label_block(&s.labels, None),
                        g.load(Ordering::Relaxed)
                    );
                }
                Cell::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, bound) in h.bounds.iter().enumerate() {
                        cum += h.counts[i].load(Ordering::Relaxed);
                        let _ = writeln!(
                            out,
                            "{pname}_bucket{} {cum}",
                            label_block(&s.labels, Some(&format!("{bound}")))
                        );
                    }
                    cum += h.counts[h.bounds.len()].load(Ordering::Relaxed);
                    let _ = writeln!(
                        out,
                        "{pname}_bucket{} {cum}",
                        label_block(&s.labels, Some("+Inf"))
                    );
                    let _ = writeln!(
                        out,
                        "{pname}_sum{} {}",
                        label_block(&s.labels, None),
                        f64::from_bits(h.sum_bits.load(Ordering::Relaxed))
                    );
                    let _ = writeln!(
                        out,
                        "{pname}_count{} {}",
                        label_block(&s.labels, None),
                        h.count.load(Ordering::Relaxed)
                    );
                }
            }
        }
        out
    }
}

/// Map a dotted metric name onto the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: dots (and anything else outside it)
/// become underscores, and a leading digit is prefixed.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
            continue;
        }
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// `{k="v",...}` with escaped values, or empty when there are no labels.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (k, v) in labels {
        if out.len() > 1 {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", prom_name(k), escape_label(v));
    }
    if let Some(le) = le {
        if out.len() > 1 {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Collection switch for the *free functions* below (handles obtained
/// directly from a [`Registry`] are unaffected). On by default;
/// `pas bench` flips it off to measure instrumentation overhead.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// The process-global registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Whether global collection is enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable global collection (for overhead benchmarking).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Add 1 to a global counter.
pub fn inc(name: &str, labels: &[(&str, &str)]) {
    add(name, labels, 1);
}

/// Add `n` to a global counter.
pub fn add(name: &str, labels: &[(&str, &str)], n: u64) {
    if enabled() {
        global().counter(name, labels).add(n);
    }
}

/// Set a global gauge.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], v: i64) {
    if enabled() {
        global().gauge(name, labels).set(v);
    }
}

/// Record into a global histogram with explicit buckets.
pub fn observe_with(name: &str, labels: &[(&str, &str)], buckets: &[f64], v: f64) {
    if enabled() {
        global().histogram(name, labels, buckets).observe(v);
    }
}

/// Render the global registry as Prometheus text.
pub fn render_global() -> String {
    global().render_prometheus()
}

/// A global counter bound on its first update while collection is on:
/// for a seam that updates one fixed series per point, the name and
/// label lookup runs once per process instead of on every update. Like
/// [`add`], an update while collection is off is dropped, and the series
/// appears in the registry with its first counted update.
pub struct CounterSite {
    name: &'static str,
    labels: &'static [(&'static str, &'static str)],
    bound: OnceLock<Counter>,
}

impl CounterSite {
    /// The site of `name` + `labels`, unbound.
    pub const fn new(name: &'static str, labels: &'static [(&'static str, &'static str)]) -> Self {
        CounterSite {
            name,
            labels,
            bound: OnceLock::new(),
        }
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if enabled() {
            let bind = || global().counter(self.name, self.labels);
            self.bound.get_or_init(bind).add(n);
        }
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A global [`US_BUCKETS`] histogram bound like a [`CounterSite`].
pub struct HistogramSite {
    name: &'static str,
    labels: &'static [(&'static str, &'static str)],
    bound: OnceLock<Histogram>,
}

impl HistogramSite {
    /// The site of `name` + `labels`, unbound.
    pub const fn new(name: &'static str, labels: &'static [(&'static str, &'static str)]) -> Self {
        HistogramSite {
            name,
            labels,
            bound: OnceLock::new(),
        }
    }

    /// The bound handle, for [`SpanGuard::histogram_handle`]; `None`
    /// while collection is off.
    pub fn get(&self) -> Option<&Histogram> {
        let bind = || global().histogram(self.name, self.labels, US_BUCKETS);
        enabled().then(|| self.bound.get_or_init(bind))
    }
}

// --- the instrument guard ---------------------------------------------------

/// Open the timed seam `name`: one monotonic clock read now and one at
/// close, fed to every sink that is switched on. See [`SpanGuard`].
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let start = Instant::now();
    SpanGuard::open(name, start, None, profile::scope_at(name, start))
}

/// A seam that began in an earlier call, at wall-clock `start_us` (µs
/// since the Unix epoch): the `job`, `job.queued` and `sched.lease`
/// spans, stamped when the job is submitted or the lease granted. It
/// feeds the histogram and the trace like [`span`] but no profile
/// region, since a region is a scope on this thread's stack.
pub fn span_since(name: &'static str, start_us: u64) -> SpanGuard {
    let now = Instant::now();
    let ago = Duration::from_micros(trace::now_us().saturating_sub(start_us));
    let start = now.checked_sub(ago).unwrap_or(now);
    SpanGuard::open(name, start, Some(start_us), profile::Scope::INERT)
}

/// One timed seam. It times its scope once on the monotonic clock and,
/// when it closes (on drop, panic unwind included, or at
/// [`SpanGuard::finish`]), feeds each sink exactly once:
///
/// * the profile region `name`, if [`profile::profiling`] was on at open;
/// * the registry histogram set by [`SpanGuard::histogram`], if
///   [`enabled`] was on when it was set;
/// * a trace span, if [`trace::tracing`] was on at open and the guard
///   has a context: an explicit [`SpanGuard::parent`], else the
///   thread's ambient [`trace::current`] at open. `start_us` is
///   wall-clock so spans from different processes line up. A span whose
///   context is the [`trace::Fold`] this thread entered joins that
///   fold's aggregate instead of taking a slot of its own.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    name: &'static str,
    /// `None` once closed.
    start: Option<Instant>,
    region: profile::Scope,
    histogram: Option<Histogram>,
    /// `Some` when span collection was on at open.
    trace: Option<OpenSpan>,
}

struct OpenSpan {
    ctx: Option<(u64, u64)>,
    id: u64,
    start_us: u64,
    labels: Vec<(String, String)>,
}

impl SpanGuard {
    fn open(
        name: &'static str,
        start: Instant,
        start_us: Option<u64>,
        region: profile::Scope,
    ) -> SpanGuard {
        let trace = trace::tracing().then(|| OpenSpan {
            ctx: trace::current(),
            id: trace::mint_id(),
            start_us: start_us.unwrap_or_else(trace::now_us),
            labels: Vec::new(),
        });
        SpanGuard {
            name,
            start: Some(start),
            region,
            histogram: None,
            trace,
        }
    }

    /// Parent the span under `(trace, parent)` instead of the ambient
    /// context (`parent == 0` makes it a root). `trace == 0`, an
    /// untraced grant, records no span.
    pub fn parent(mut self, trace: u64, parent: u64) -> SpanGuard {
        if let Some(t) = &mut self.trace {
            t.ctx = (trace != 0).then_some((trace, parent));
        }
        self
    }

    /// Record under `id`, minted earlier and handed out as a parent.
    pub fn with_id(mut self, id: u64) -> SpanGuard {
        if let Some(t) = &mut self.trace {
            t.id = id;
        }
        self
    }

    /// Append span labels.
    pub fn labels(mut self, labels: &[(&str, &str)]) -> SpanGuard {
        if let Some(t) = &mut self.trace {
            // Exact capacity: a full span store holds 64Ki label lists.
            t.labels.reserve_exact(labels.len());
            t.labels
                .extend(labels.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        }
        self
    }

    /// Also observe the elapsed µs into the global histogram `name` +
    /// `labels` ([`US_BUCKETS`]).
    pub fn histogram(mut self, name: &str, labels: &[(&str, &str)]) -> SpanGuard {
        if enabled() {
            self.histogram = Some(global().histogram(name, labels, US_BUCKETS));
        }
        self
    }

    /// [`SpanGuard::histogram`] into a handle bound earlier, which its
    /// binder gates on [`enabled`] (`None` observes nothing).
    pub fn histogram_handle(mut self, histogram: Option<&Histogram>) -> SpanGuard {
        self.histogram = histogram.cloned();
        self
    }

    /// The `(trace, span)` context children enter to nest under this
    /// span while it is open; `None` when it records no span.
    pub fn ctx(&self) -> Option<(u64, u64)> {
        let t = self.trace.as_ref()?;
        t.ctx.map(|(trace, _)| (trace, t.id))
    }

    /// Close now and return the elapsed µs (measured whatever the
    /// switches say, for callers that also report it elsewhere).
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let Some(start) = self.start.take() else {
            return 0.0;
        };
        let end = Instant::now();
        self.region.exit_at(end);
        let elapsed = end.saturating_duration_since(start);
        let us = elapsed.as_secs_f64() * 1e6;
        if let Some(h) = self.histogram.take() {
            h.observe(us);
        }
        if let Some(OpenSpan {
            ctx: Some((trace, parent)),
            id,
            start_us,
            labels,
        }) = self.trace.take()
        {
            let point = trace::Point {
                span: id,
                start_us,
                dur_us: elapsed.as_micros() as u64,
                labels,
            };
            // A leaf under an entered fold joins its aggregate instead.
            if let Some(p) = trace::fold_leaf(self.name, (trace, parent), point) {
                trace::global().push(trace::SpanRecord {
                    trace,
                    span: p.span,
                    parent,
                    name: self.name.to_string(),
                    labels: p.labels,
                    proc: trace::proc_tag().to_string(),
                    start_us: p.start_us,
                    dur_us: p.dur_us,
                });
            }
        }
        us
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let r = Registry::new();
        let c = r.counter("pas.test.events.count", &[("outcome", "ok")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("pas.test.depth.jobs", &[]);
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        let h = r.histogram("pas.test.latency.microseconds", &[], &[10.0, 100.0]);
        h.observe(5.0);
        h.observe(50.0);
        h.observe(5000.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 5055.0).abs() < 1e-9);
    }

    #[test]
    fn same_labels_same_series() {
        let r = Registry::new();
        let a = r.counter("pas.x.count", &[("a", "1"), ("b", "2")]);
        // Label order must not matter: the set is sorted before interning.
        let b = r.counter("pas.x.count", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn prom_name_sanitises() {
        assert_eq!(prom_name("pas.queue.depth.jobs"), "pas_queue_depth_jobs");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name("a-b"), "a_b");
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("pas.t.microseconds", &[("route", "/jobs")], &[10.0, 100.0]);
        h.observe(5.0);
        h.observe(50.0);
        h.observe(500.0);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE pas_t_microseconds histogram"));
        assert!(text.contains("pas_t_microseconds_bucket{route=\"/jobs\",le=\"10\"} 1"));
        assert!(text.contains("pas_t_microseconds_bucket{route=\"/jobs\",le=\"100\"} 2"));
        assert!(text.contains("pas_t_microseconds_bucket{route=\"/jobs\",le=\"+Inf\"} 3"));
        assert!(text.contains("pas_t_microseconds_count{route=\"/jobs\"} 3"));
    }

    #[test]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("pas.k.count", &[]);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.gauge("pas.k.count", &[]);
        }))
        .is_err());
    }

    #[test]
    fn label_values_escaped() {
        let r = Registry::new();
        r.counter("pas.e.count", &[("v", "a\"b\\c\nd")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("pas_e_count{v=\"a\\\"b\\\\c\\nd\"} 1"));
    }
}
