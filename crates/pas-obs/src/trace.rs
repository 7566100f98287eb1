//! Causal span tracing: a process-global, bounded span recorder plus
//! renderers for Chrome trace-event JSON, an indented text tree, and a
//! critical-path (self-time) summary.
//!
//! Where the metrics [`Registry`](crate::Registry) answers "how long do
//! lease round-trips take *in aggregate*", a trace answers "where did
//! *this job's* 51 ms go". A span is one timed operation —
//! `{trace, span, parent, name, labels, start_us, dur_us}` — and a
//! trace is the tree of spans sharing one `trace` id, stitched across
//! processes: the server records queue/scheduler spans, workers record
//! lease/execute spans and ship them back piggybacked on their shard
//! reports, and `GET /jobs/:id/trace` renders the assembled tree.
//! Spans are recorded by the [`span`](crate::span) guard, which feeds
//! the profile region and histogram of the same seam from one timing.
//!
//! The store follows the registry's discipline: collection is cheap
//! (one id mint + one locked push), always-on-able behind the
//! global [`enabled`](crate::enabled) switch (plus its own
//! [`set_tracing`] toggle so `pas bench` can price tracing alone), and
//! strictly observational — nothing reads a span back into a result.
//! Spans are kept per trace, so reading or shipping one trace costs
//! O(its spans), not O(every resident span). Capacity is bounded: the
//! store holds at most [`DEFAULT_CAPACITY`] spans over all traces; when
//! full, the oldest span of the oldest trace (by first push) is evicted
//! and counted in [`dropped`] and in that trace's own [`evicted`] count,
//! which the renderings report as a partial trace.
//!
//! Per-point leaf spans do not each take a slot: an executor enters a
//! [`Fold`] under its parent span, and the leaves recorded under it fold
//! into one aggregate span per name (and `outcome`) with its
//! [`EXEMPLARS`] slowest points as children. A job's trace therefore
//! grows with its shards, not its points.
//!
//! A worker ships exactly the spans recorded under its lease
//! ([`take_under`] the grant's span) on each shard report, so every
//! span crosses the wire once, even when the worker shares the
//! server's process and store.
//!
//! Span ids are minted from a per-process random seed mixed through
//! SplitMix64, so ids from different processes (server, each worker)
//! can be merged into one tree without coordination; id `0` is
//! reserved to mean "no parent" (a trace root).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::quote;

/// Span capacity of the global store: 65 536 resident spans,
/// comfortably above a full paper-default batch (540 points ≈ 1 100
/// point-level spans) and bounded enough that a runaway producer
/// evicts old spans instead of growing the heap.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Traces no longer resident whose eviction counts a store still
/// answers for.
const LOST_TRACES: usize = 1024;

/// One recorded span. `parent == 0` marks a trace root.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id (unique across cooperating processes).
    pub span: u64,
    /// Parent span id, `0` for a root.
    pub parent: u64,
    /// Operation name, e.g. `sched.lease` (see docs/OBSERVABILITY.md).
    pub name: String,
    /// Low-cardinality context labels (worker, shard, outcome, ...).
    pub labels: Vec<(String, String)>,
    /// Recording process, e.g. `server` or `worker:w1`.
    pub proc: String,
    /// Wall-clock start, microseconds since the Unix epoch (the clock
    /// cooperating processes on one machine share).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// A bounded span store indexed by trace id. The process-global
/// instance is behind the free functions below; tests build their own.
pub struct TraceStore {
    resident: Mutex<Resident>,
    cap: usize,
}

/// One resident trace.
struct Trace {
    /// First-push sequence number: the eviction order.
    seq: u64,
    /// Spans in push order.
    spans: VecDeque<SpanRecord>,
    /// This trace's spans evicted so far.
    evicted: u64,
}

/// The spans a [`TraceStore`] holds, under its one lock.
#[derive(Default)]
struct Resident {
    traces: HashMap<u64, Trace>,
    /// Trace ids by first-push sequence number: the eviction order.
    order: BTreeMap<u64, u64>,
    /// `(trace, evicted)` of traces that left the store after losing
    /// spans, oldest first, at most [`LOST_TRACES`].
    lost: VecDeque<(u64, u64)>,
    next_seq: u64,
    len: usize,
    dropped: u64,
}

impl Resident {
    /// Append `rec` to its trace, indexing a trace not resident yet as
    /// the newest (a trace that comes back keeps its eviction count).
    fn push(&mut self, rec: SpanRecord) {
        let (order, seq, lost) = (&mut self.order, &mut self.next_seq, &mut self.lost);
        let trace = self.traces.entry(rec.trace).or_insert_with(|| {
            *seq += 1;
            order.insert(*seq, rec.trace);
            let back = lost.iter().position(|&(id, _)| id == rec.trace);
            Trace {
                seq: *seq,
                spans: VecDeque::new(),
                evicted: back.and_then(|i| lost.remove(i)).map_or(0, |(_, n)| n),
            }
        });
        trace.spans.push_back(rec);
        self.len += 1;
    }

    /// Evict the oldest trace's oldest span, counting it as dropped.
    fn evict_oldest(&mut self) {
        let Some((_, &id)) = self.order.first_key_value() else {
            return;
        };
        let trace = self.traces.get_mut(&id).expect("ordered trace is resident");
        trace.spans.pop_front();
        trace.evicted += 1;
        self.len -= 1;
        self.dropped += 1;
        if trace.spans.is_empty() {
            self.forget(id);
        }
    }

    /// Drop `id`'s (empty) entry from the index, remembering its
    /// eviction count.
    fn forget(&mut self, id: u64) {
        let Some(trace) = self.traces.remove(&id) else {
            return;
        };
        self.order.remove(&trace.seq);
        if trace.evicted > 0 {
            if self.lost.len() == LOST_TRACES {
                self.lost.pop_front();
            }
            self.lost.push_back((id, trace.evicted));
        }
    }
}

impl TraceStore {
    /// An empty store holding at most `cap` spans over all traces.
    pub fn new(cap: usize) -> TraceStore {
        TraceStore {
            resident: Mutex::new(Resident::default()),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Resident> {
        self.resident
            .lock()
            .expect("no thread panics while holding the span store")
    }

    /// Append one span, evicting the oldest trace's oldest span (and
    /// counting it as dropped) when the store is full.
    pub fn push(&self, rec: SpanRecord) {
        self.extend([rec]);
    }

    /// [`TraceStore::push`] each span, under one lock.
    fn extend(&self, spans: impl IntoIterator<Item = SpanRecord>) {
        let mut r = self.lock();
        for rec in spans {
            if r.len >= self.cap {
                r.evict_oldest();
            }
            r.push(rec);
        }
    }

    /// All spans of `trace`, sorted by `(start_us, span)` — the
    /// canonical order every renderer consumes.
    pub fn spans_for(&self, trace: u64) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = match self.lock().traces.get(&trace) {
            Some(t) => t.spans.iter().cloned().collect(),
            None => Vec::new(),
        };
        out.sort_by_key(|s| (s.start_us, s.span));
        out
    }

    /// Remove and return (sorted) the spans of `trace` that descend from
    /// span `root`, at any depth and in any push order. `root` itself,
    /// its siblings and every other trace stay. Workers ship a lease's
    /// spans with this, so each span crosses the wire once per report.
    pub fn take_under(&self, trace: u64, root: u64) -> Vec<SpanRecord> {
        let mut r = self.lock();
        let Some(Trace { spans, .. }) = r.traces.get_mut(&trace) else {
            return Vec::new();
        };
        let mut under = vec![false; spans.len()];
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        let mut frontier = vec![root];
        while let Some(parent) = frontier.pop() {
            for &i in children.get(&parent).into_iter().flatten() {
                if !under[i] && spans[i].span != root {
                    under[i] = true;
                    frontier.push(spans[i].span);
                }
            }
        }
        if !under.contains(&true) {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut kept = VecDeque::new();
        for (s, take) in spans.drain(..).zip(under) {
            if take {
                out.push(s);
            } else {
                kept.push_back(s);
            }
        }
        let emptied = kept.is_empty();
        *spans = kept;
        r.len -= out.len();
        if emptied {
            r.forget(trace);
        }
        drop(r);
        out.sort_by_key(|s| (s.start_us, s.span));
        out
    }

    /// Spans evicted so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Spans of `trace` evicted so far: non-zero means its renderings are
    /// partial. Answered for resident traces and the last 1,024 that
    /// left the store after losing spans.
    pub fn evicted(&self, trace: u64) -> u64 {
        let r = self.lock();
        match r.traces.get(&trace) {
            Some(t) => t.evicted,
            None => r
                .lost
                .iter()
                .find(|&&(id, _)| id == trace)
                .map_or(0, |&(_, n)| n),
        }
    }

    /// Resident spans.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether no spans are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// --- ids & clock ------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn proc_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let t = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(t ^ (std::process::id() as u64).rotate_left(32))
    })
}

/// Mint a fresh 64-bit id, unique within this process and (with a
/// per-process random seed) collision-free across cooperating
/// processes for any realistic span count. Never returns 0.
pub fn mint_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    splitmix64(proc_seed().wrapping_add(n)).max(1)
}

/// Wall-clock "now" in microseconds since the Unix epoch.
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

// --- process tag ------------------------------------------------------------

static PROC: OnceLock<String> = OnceLock::new();

/// Name this process's spans (e.g. `worker:w1`). First call wins;
/// unset processes record as `server`.
pub fn set_proc(tag: &str) {
    let _ = PROC.set(tag.to_string());
}

/// This process's span tag.
pub fn proc_tag() -> &'static str {
    PROC.get().map(String::as_str).unwrap_or("server")
}

// --- global store & switches ------------------------------------------------

static GLOBAL: OnceLock<TraceStore> = OnceLock::new();

/// Tracing's own collection switch, ANDed with the registry-wide
/// [`enabled`](crate::enabled) flag so `pas bench` can price span
/// recording separately from metrics.
static TRACING: AtomicBool = AtomicBool::new(true);

/// The process-global span store.
pub fn global() -> &'static TraceStore {
    GLOBAL.get_or_init(|| TraceStore::new(DEFAULT_CAPACITY))
}

/// Whether span collection is on (both switches).
pub fn tracing() -> bool {
    crate::enabled() && TRACING.load(Ordering::Relaxed)
}

/// Toggle span collection (metrics are unaffected).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Ingest spans recorded by another process (a worker's report
/// piggyback), verbatim — they keep their own `proc` tags and ids.
pub fn ingest(spans: &[SpanRecord]) {
    if tracing() {
        global().extend(spans.iter().cloned());
    }
}

/// All resident spans of `trace`, canonically sorted.
pub fn spans_for(trace: u64) -> Vec<SpanRecord> {
    global().spans_for(trace)
}

/// Remove the spans of `trace` under span `root` from the global store
/// (a worker shipping its lease's spans).
pub fn take_under(trace: u64, root: u64) -> Vec<SpanRecord> {
    global().take_under(trace, root)
}

/// Spans evicted from the global store so far.
pub fn dropped() -> u64 {
    global().dropped()
}

/// Spans of `trace` evicted from the global store so far.
pub fn evicted(trace: u64) -> u64 {
    global().evicted(trace)
}

// --- ambient context --------------------------------------------------------

thread_local! {
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
    /// The [`Fold`] entered on this thread, if any.
    static FOLDING: RefCell<Option<Fold>> = const { RefCell::new(None) };
}

/// Restores the previous ambient context on drop.
pub struct CtxGuard(Option<(u64, u64)>);

/// Set this thread's ambient `(trace, parent span)` context. Deep call
/// sites that cannot thread ids through their signatures (the cache's
/// per-point probe, the executor's per-point run) read it via
/// [`current`]; executors set it, through a [`Fold`] for their
/// per-point leaves, inside each worker closure so pooled threads
/// inherit the right parent.
pub fn enter(trace: u64, parent: u64) -> CtxGuard {
    CtxGuard(CURRENT.with(|c| c.replace(Some((trace, parent)))))
}

/// This thread's ambient `(trace, parent span)`, if any.
pub fn current() -> Option<(u64, u64)> {
    CURRENT.with(|c| c.get())
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.0));
    }
}

// --- folded leaf spans ------------------------------------------------------

/// Slowest points an aggregate keeps as child spans.
pub const EXEMPLARS: usize = 4;

/// The per-point leaf spans of one executor, folded under its parent
/// span: an executor makes one per job or shard, enters it on every
/// thread that runs points, and [`Fold::flush`]es it before the job
/// publishes or the shard ships. A leaf span that closes under the fold's
/// `(trace, parent)` on a thread that entered it joins the aggregate of
/// its name and `outcome` label instead of the store. Each aggregate is
/// filed as one span of that name from its first point's start to its
/// last point's end, labelled `points`, `sum_us` and `max_us` (µs), with
/// its [`EXEMPLARS`] slowest points as children under their own ids and
/// labels. Only leaves may fold: a point's other children would lose
/// their parent. Spans opened anywhere else are filed as before.
///
/// Cheap to clone; clones share the aggregates, and whatever is left
/// unflushed when the last one drops is flushed then.
#[derive(Clone)]
pub struct Fold(Arc<FoldState>);

struct FoldState {
    ctx: (u64, u64),
    aggregates: Mutex<Vec<Aggregate>>,
}

/// One closed leaf span, as a fold keeps it.
pub(crate) struct Point {
    pub(crate) span: u64,
    pub(crate) start_us: u64,
    pub(crate) dur_us: u64,
    pub(crate) labels: Vec<(String, String)>,
}

struct Aggregate {
    name: &'static str,
    outcome: Option<String>,
    points: u64,
    sum_us: u64,
    max_us: u64,
    start_us: u64,
    end_us: u64,
    /// The slowest points so far, slowest first.
    slowest: Vec<Point>,
}

/// Restores the previous ambient context and fold on drop.
pub struct FoldGuard {
    prev: Option<Fold>,
    _ctx: CtxGuard,
}

impl Fold {
    /// An empty fold for the leaves recorded under `(trace, parent)`.
    pub fn new(trace: u64, parent: u64) -> Fold {
        Fold(Arc::new(FoldState {
            ctx: (trace, parent),
            aggregates: Mutex::new(Vec::new()),
        }))
    }

    /// Make this fold and its `(trace, parent)` this thread's ambient
    /// context until the guard drops.
    pub fn enter(&self) -> FoldGuard {
        let (trace, parent) = self.0.ctx;
        FoldGuard {
            _ctx: enter(trace, parent),
            prev: FOLDING.with(|f| f.replace(Some(self.clone()))),
        }
    }

    /// File the aggregates so far, with their exemplars, under one store
    /// lock. Points that close later start new aggregates.
    pub fn flush(&self) {
        self.0.flush();
    }

    fn add(&self, name: &'static str, p: Point) {
        let outcome = p.labels.iter().find(|(k, _)| k == "outcome");
        let outcome = outcome.map(|(_, v)| v.as_str());
        let mut aggregates = self.0.lock();
        let at = aggregates
            .iter()
            .position(|a| a.name == name && a.outcome.as_deref() == outcome);
        let at = at.unwrap_or_else(|| {
            aggregates.push(Aggregate {
                name,
                outcome: outcome.map(str::to_string),
                points: 0,
                sum_us: 0,
                max_us: 0,
                start_us: u64::MAX,
                end_us: 0,
                slowest: Vec::with_capacity(EXEMPLARS + 1),
            });
            aggregates.len() - 1
        });
        aggregates[at].add(p);
    }
}

impl FoldState {
    fn lock(&self) -> MutexGuard<'_, Vec<Aggregate>> {
        self.aggregates
            .lock()
            .expect("no thread panics while folding a span")
    }

    fn flush(&self) {
        let aggregates = std::mem::take(&mut *self.lock());
        let (trace, parent) = self.ctx;
        let proc = proc_tag();
        let mut out = Vec::with_capacity(aggregates.len() * (1 + EXEMPLARS));
        for a in aggregates {
            let id = mint_id();
            let mut labels = Vec::with_capacity(4);
            if let Some(outcome) = a.outcome {
                labels.push(("outcome".to_string(), outcome));
            }
            for (k, v) in [
                ("points", a.points),
                ("sum_us", a.sum_us),
                ("max_us", a.max_us),
            ] {
                labels.push((k.to_string(), v.to_string()));
            }
            out.push(SpanRecord {
                trace,
                span: id,
                parent,
                name: a.name.to_string(),
                labels,
                proc: proc.to_string(),
                start_us: a.start_us,
                dur_us: a.end_us - a.start_us,
            });
            out.extend(a.slowest.into_iter().map(|p| SpanRecord {
                trace,
                span: p.span,
                parent: id,
                name: a.name.to_string(),
                labels: p.labels,
                proc: proc.to_string(),
                start_us: p.start_us,
                dur_us: p.dur_us,
            }));
        }
        if !out.is_empty() {
            global().extend(out);
        }
    }
}

impl Drop for FoldState {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Aggregate {
    fn add(&mut self, p: Point) {
        self.points += 1;
        self.sum_us += p.dur_us;
        self.max_us = self.max_us.max(p.dur_us);
        self.start_us = self.start_us.min(p.start_us);
        self.end_us = self.end_us.max(p.start_us + p.dur_us);
        // Slowest first; a tie keeps the earlier point.
        let at = self.slowest.partition_point(|s| s.dur_us >= p.dur_us);
        if at < EXEMPLARS {
            self.slowest.insert(at, p);
            self.slowest.truncate(EXEMPLARS);
        }
    }
}

impl Drop for FoldGuard {
    fn drop(&mut self) {
        FOLDING.with(|f| *f.borrow_mut() = self.prev.take());
    }
}

/// Run `f` on this thread with the leaf spans it records under `ctx`
/// folded ([`Fold`]), filing the aggregates before returning; with no
/// context, just run it.
pub fn folded<R>(ctx: Option<(u64, u64)>, f: impl FnOnce() -> R) -> R {
    let Some((trace, parent)) = ctx else {
        return f();
    };
    let fold = Fold::new(trace, parent);
    let out = {
        let _in = fold.enter();
        f()
    };
    fold.flush();
    out
}

/// Fold a closing leaf span recorded under `ctx` into this thread's
/// entered fold when that fold is `ctx`'s; hands it back otherwise.
pub(crate) fn fold_leaf(name: &'static str, ctx: (u64, u64), p: Point) -> Option<Point> {
    FOLDING.with(|f| match &*f.borrow() {
        Some(fold) if fold.0.ctx == ctx => {
            fold.add(name, p);
            None
        }
        _ => Some(p),
    })
}

// --- renderers --------------------------------------------------------------

/// Index of `span` id → position, for parent lookups.
fn index(spans: &[SpanRecord]) -> std::collections::HashMap<u64, usize> {
    spans.iter().enumerate().map(|(i, s)| (s.span, i)).collect()
}

/// The root lane a span belongs to: its outermost resident ancestor
/// (cycle- and orphan-safe).
fn top_ancestor(
    spans: &[SpanRecord],
    by_id: &std::collections::HashMap<u64, usize>,
    i: usize,
) -> u64 {
    let mut cur = i;
    for _ in 0..spans.len() {
        let p = spans[cur].parent;
        match by_id.get(&p) {
            Some(&j) if j != cur => cur = j,
            _ => break,
        }
    }
    spans[cur].span
}

/// Render spans (as sorted by [`TraceStore::spans_for`]) as Chrome
/// trace-event JSON — loadable in Perfetto / `chrome://tracing`. Each
/// recording process becomes one `pid` lane (named via metadata
/// events) and each top-level span subtree one `tid` within it, so
/// parallel leases stack side by side instead of fake-nesting. The
/// trace's [`evicted`] count rides as `otherData.spans_evicted`. Output
/// is deterministic for a given span set.
pub fn render_chrome(spans: &[SpanRecord], evicted: u64) -> String {
    let by_id = index(spans);
    // pid per process tag, in sorted-tag order; tid per root subtree,
    // in first-appearance (time) order within its process.
    let mut procs: Vec<&str> = spans.iter().map(|s| s.proc.as_str()).collect();
    procs.sort_unstable();
    procs.dedup();
    let pid_of = |tag: &str| procs.iter().position(|p| *p == tag).unwrap_or(0) + 1;
    let mut lanes: Vec<(usize, u64)> = Vec::new(); // (pid, root span) -> tid by position
    let mut events: Vec<String> = Vec::new();
    for (i, tag) in procs.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            i + 1,
            quote(tag)
        ));
    }
    for (i, s) in spans.iter().enumerate() {
        let pid = pid_of(&s.proc);
        let root = top_ancestor(spans, &by_id, i);
        let lane = (pid, root);
        let tid = match lanes.iter().position(|l| *l == lane) {
            Some(t) => t + 1,
            None => {
                lanes.push(lane);
                lanes.len()
            }
        };
        let mut args = format!(
            "\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"",
            s.trace, s.span, s.parent
        );
        for (k, v) in &s.labels {
            let _ = write!(args, ",{}:{}", quote(k), quote(v));
        }
        events.push(format!(
            "{{\"name\":{},\"cat\":\"pas\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
            quote(&s.name),
            s.start_us,
            s.dur_us,
            pid,
            tid,
            args
        ));
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"otherData\":{{\"spans_evicted\":{evicted}}}}}\n",
        events.join(",\n")
    )
}

/// Render spans as a deterministic indented text tree. Orphans (spans
/// whose parent was evicted or is still open) list under a synthetic
/// `(orphaned)` heading rather than vanishing.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let by_id = index(spans);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    let mut orphans: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == 0 {
            roots.push(i);
        } else {
            match by_id.get(&s.parent) {
                Some(&p) if p != i => children[p].push(i),
                _ => orphans.push(i),
            }
        }
    }
    let mut out = String::new();
    let mut stack: Vec<(usize, usize)> = Vec::new(); // (index, depth)
    for &r in roots.iter().rev() {
        stack.push((r, 0));
    }
    let mut emitted = vec![false; spans.len()];
    while let Some((i, depth)) = stack.pop() {
        if emitted[i] {
            continue; // cycle guard
        }
        emitted[i] = true;
        let s = &spans[i];
        let _ = write!(
            out,
            "{}{} {}us proc={}",
            "  ".repeat(depth),
            s.name,
            s.dur_us,
            s.proc
        );
        for (k, v) in &s.labels {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for &c in children[i].iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    if !orphans.is_empty() {
        out.push_str("(orphaned)\n");
        for &i in &orphans {
            if emitted[i] {
                continue;
            }
            emitted[i] = true;
            let s = &spans[i];
            let _ = write!(out, "  {} {}us proc={}", s.name, s.dur_us, s.proc);
            for (k, v) in &s.labels {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
    }
    out
}

/// The value of `s`'s label `key` as a count.
fn label_u64(s: &SpanRecord, key: &str) -> Option<u64> {
    let (_, v) = s.labels.iter().find(|(k, _)| k == key)?;
    v.parse().ok()
}

/// Walk the tree and summarise where the time went: per-name self time
/// (a span's duration minus its children's), top-`k`, as shares of
/// total self time, plus a coverage line — the fraction of the root
/// span's wall time accounted for by *named child* spans, which is the
/// number the acceptance bar ("≥90% attributed") reads. A [`Fold`]
/// aggregate stands for its points: it counts as `points` spans of its
/// summed time (`sum_us`), and its exemplars are among them.
pub fn render_critical_path(spans: &[SpanRecord], k: usize) -> String {
    if spans.is_empty() {
        return "critical path: no spans recorded\n".to_string();
    }
    let by_id = index(spans);
    let parent_of = |i: usize| match by_id.get(&spans[i].parent) {
        Some(&p) if spans[i].parent != 0 && p != i => Some(p),
        _ => None,
    };
    let work_us = |s: &SpanRecord| label_u64(s, "sum_us").unwrap_or(s.dur_us);
    let mut child_dur = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = parent_of(i) {
            child_dur[p] += work_us(s);
        }
    }
    // Aggregate self time and point count by span name.
    let mut by_name: Vec<(String, u64, u64)> = Vec::new(); // (name, self_us, count)
    for (i, s) in spans.iter().enumerate() {
        let self_us = work_us(s).saturating_sub(child_dur[i]);
        let exemplar = parent_of(i)
            .is_some_and(|p| spans[p].name == s.name && label_u64(&spans[p], "points").is_some());
        let n = match label_u64(s, "points") {
            Some(points) => points,
            None => u64::from(!exemplar),
        };
        match by_name.iter_mut().find(|(name, _, _)| *name == s.name) {
            Some((_, t, c)) => {
                *t += self_us;
                *c += n;
            }
            None => by_name.push((s.name.clone(), self_us, n)),
        }
    }
    by_name.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let total_self: u64 = by_name.iter().map(|(_, t, _)| *t).sum();
    // The root is the longest parentless span (the `job` span).
    let root = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent == 0 || !by_id.contains_key(&s.parent))
        .max_by_key(|(_, s)| s.dur_us);
    let mut out = String::new();
    match root {
        Some((ri, r)) => {
            let _ = writeln!(
                out,
                "critical path for trace {:016x} (root `{}`, {}us):",
                r.trace, r.name, r.dur_us
            );
            let covered = 100.0 * child_dur[ri].min(r.dur_us) as f64 / r.dur_us.max(1) as f64;
            for (name, self_us, n) in by_name.iter().take(k.max(1)) {
                let pct = 100.0 * *self_us as f64 / total_self.max(1) as f64;
                let _ = writeln!(out, "  {name:<28} {pct:>5.1}%  {self_us:>10}us  (n={n})");
            }
            let _ = writeln!(
                out,
                "coverage: {covered:.1}% of job wall time inside named child spans"
            );
        }
        None => {
            for (name, self_us, n) in by_name.iter().take(k.max(1)) {
                let pct = 100.0 * *self_us as f64 / total_self.max(1) as f64;
                let _ = writeln!(out, "  {name:<28} {pct:>5.1}%  {self_us:>10}us  (n={n})");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64, span: u64, parent: u64, name: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace,
            span,
            parent,
            name: name.to_string(),
            labels: Vec::new(),
            proc: "server".to_string(),
            start_us: start,
            dur_us: dur,
        }
    }

    fn ids(spans: &[SpanRecord]) -> Vec<u64> {
        spans.iter().map(|s| s.span).collect()
    }

    #[test]
    fn ring_overflow_counts_drops_and_keeps_survivors_intact() {
        let cap = 64;
        let store = TraceStore::new(cap);
        let n = cap + 37;
        for i in 0..n {
            store.push(rec(7, 1000 + i as u64, 0, "s", i as u64, 5));
        }
        assert_eq!(store.dropped(), 37, "evictions are counted exactly");
        assert_eq!(store.len(), cap, "store stays at capacity");
        // Survivors are uncorrupted: every resident span still carries
        // its original id-derived fields, and they are exactly the
        // newest `cap` spans.
        let got = store.spans_for(7);
        for s in &got {
            assert_eq!(s.start_us, s.span - 1000, "span fields intact");
            assert_eq!(s.dur_us, 5);
            assert_eq!(s.name, "s");
        }
        let newest: Vec<u64> = (n - cap..n).map(|i| 1000 + i as u64).collect();
        assert_eq!(ids(&got), newest, "the oldest spans went first");
    }

    #[test]
    fn take_drains_only_the_requested_trace() {
        let store = TraceStore::new(8);
        store.push(rec(1, 11, 10, "c", 1, 1));
        store.push(rec(2, 21, 10, "b", 0, 1));
        store.push(rec(1, 12, 10, "d", 2, 1));
        let taken = store.take_under(1, 10);
        assert_eq!(ids(&taken), [11, 12]);
        assert!(store.spans_for(1).is_empty());
        assert_eq!(
            ids(&store.spans_for(2)),
            [21],
            "same parent id, other trace"
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn take_under_takes_a_subtree_pushed_children_first() {
        // Spans are pushed when they close, so a subtree arrives
        // leaves first: point → shard execute → (lease root, open).
        let store = TraceStore::new(64);
        store.push(rec(1, 5, 4, "exec.point", 30, 1)); // depth 3
        store.push(rec(1, 4, 3, "exec.point", 20, 9)); // depth 2
        store.push(rec(1, 6, 3, "exec.point", 25, 2)); // depth 2
        store.push(rec(1, 2, 1, "worker.lease.rtt", 0, 5)); // depth 1
        store.push(rec(1, 3, 1, "worker.shard.execute", 10, 40)); // depth 1
        let taken = store.take_under(1, 1);
        assert_eq!(ids(&taken), [2, 3, 4, 6, 5], "sorted by start");
        assert!(store.is_empty());
        assert!(store.take_under(1, 1).is_empty(), "a span ships once");
    }

    #[test]
    fn take_under_leaves_root_siblings_and_other_traces() {
        let store = TraceStore::new(64);
        store.push(rec(1, 1, 0, "job", 0, 100)); // the root's parent
        store.push(rec(1, 10, 1, "sched.lease", 1, 50)); // the root
        store.push(rec(1, 11, 10, "worker.shard.execute", 2, 30));
        store.push(rec(1, 12, 11, "exec.point", 3, 20));
        store.push(rec(1, 20, 1, "sched.lease", 1, 50)); // sibling lease
        store.push(rec(1, 21, 20, "worker.shard.execute", 2, 30));
        store.push(rec(2, 30, 10, "exec.point", 3, 20)); // other trace
        assert_eq!(ids(&store.take_under(1, 10)), [11, 12]);
        assert_eq!(ids(&store.spans_for(1)), [1, 10, 20, 21]);
        assert_eq!(ids(&store.spans_for(2)), [30]);
        assert!(store.take_under(1, 99).is_empty(), "unknown root");
        assert!(store.take_under(3, 10).is_empty(), "unknown trace");
        assert_eq!(store.len(), 5);
        assert_eq!(store.dropped(), 0);
    }

    #[test]
    fn take_under_survives_a_parent_cycle() {
        let store = TraceStore::new(8);
        store.push(rec(1, 2, 3, "a", 0, 1));
        store.push(rec(1, 3, 2, "b", 0, 1));
        store.push(rec(1, 4, 3, "c", 0, 1));
        assert_eq!(ids(&store.take_under(1, 3)), [2, 4], "root 3 stays");
        assert_eq!(ids(&store.spans_for(1)), [3]);
    }

    #[test]
    fn store_stays_bounded_across_interleaved_traces() {
        let cap = 100;
        let store = TraceStore::new(cap);
        let mut pushed: Vec<Vec<u64>> = vec![Vec::new(); 11];
        let mut next = 1u64;
        let mut push = |trace: u64| {
            store.push(rec(trace, next, 0, "s", next, 1));
            pushed[trace as usize].push(next);
            next += 1;
            assert!(store.len() <= cap);
        };
        // 7 traces, 14 spans each, interleaved: under capacity.
        for i in 0..98 {
            push(i % 7);
        }
        assert_eq!(store.dropped(), 0);
        // 30 more for the newest trace: the 28 evictions empty the two
        // oldest traces (by first push), oldest first, before touching
        // any other.
        for _ in 0..30 {
            push(6);
        }
        assert_eq!(store.dropped(), 28);
        let resident: Vec<usize> = (0..7).map(|t| store.spans_for(t).len()).collect();
        assert_eq!(resident, [0, 0, 14, 14, 14, 14, 44]);
        // Many more, interleaved over 11 traces (0 and 1 come back as
        // the newest traces): the bound holds and every drop is counted.
        for i in 0..1000 {
            push(i % 11);
        }
        assert_eq!(store.len(), cap);
        assert_eq!(
            store.dropped(),
            98 + 30 + 1000 - cap as u64,
            "exact drop count"
        );
        // Each trace keeps its newest spans.
        for (t, mine) in pushed.iter().enumerate() {
            let got = ids(&store.spans_for(t as u64));
            assert_eq!(got, mine[mine.len() - got.len()..], "trace {t}");
        }
        // A take frees room without counting as a drop, and an emptied
        // trace comes back as the newest.
        let before = store.dropped();
        store.push(rec(12, 5000, 77, "x", 0, 1));
        assert_eq!(ids(&store.take_under(12, 77)), [5000]);
        assert_eq!(store.dropped(), before + 1);
        store.push(rec(12, 5001, 0, "y", 0, 1));
        assert_eq!(store.dropped(), before + 1, "room left by the take");
        store.push(rec(12, 5002, 0, "z", 0, 1));
        assert_eq!(store.dropped(), before + 2);
        assert_eq!(ids(&store.spans_for(12)), [5001, 5002]);
        assert_eq!(store.len(), cap);
    }

    #[test]
    fn evictions_are_counted_per_trace() {
        let store = TraceStore::new(4);
        for i in 0..3 {
            store.push(rec(1, 10 + i, 0, "a", i, 1));
        }
        for i in 0..3 {
            store.push(rec(2, 20 + i, 0, "b", i, 1));
        }
        assert_eq!((store.evicted(1), store.evicted(2)), (2, 0));
        // Trace 1 loses its last span and leaves the store; its count
        // stays readable, and trace 2 starts losing spans.
        store.push(rec(2, 23, 0, "b", 3, 1));
        store.push(rec(2, 24, 0, "b", 4, 1));
        assert!(store.spans_for(1).is_empty());
        assert_eq!((store.evicted(1), store.evicted(2)), (3, 1));
        assert_eq!(store.dropped(), 4);
        // A trace that comes back keeps its count; an unknown one has none.
        store.push(rec(1, 13, 0, "a", 5, 1));
        assert_eq!(store.evicted(1), 3);
        assert_eq!(store.evicted(99), 0);
        // Taking spans out is not an eviction.
        store.push(rec(3, 31, 30, "c", 6, 1));
        assert_eq!(ids(&store.take_under(3, 30)), [31]);
        assert_eq!(store.evicted(3), 0);
    }

    fn point(span: u64, start_us: u64, dur_us: u64, outcome: Option<&str>) -> Point {
        let labels = outcome.map(|o| ("outcome".to_string(), o.to_string()));
        Point {
            span,
            start_us,
            dur_us,
            labels: labels.into_iter().collect(),
        }
    }

    fn label<'a>(s: &'a SpanRecord, key: &str) -> Option<&'a str> {
        let (_, v) = s.labels.iter().find(|(k, _)| k == key)?;
        Some(v)
    }

    #[test]
    fn a_fold_files_one_aggregate_per_name_and_outcome() {
        let (tr, parent) = (mint_id(), mint_id());
        let fold = Fold::new(tr, parent);
        {
            let _in = fold.enter();
            assert_eq!(current(), Some((tr, parent)));
            // Durations 1..=9 µs, started 10 µs apart.
            for i in 1..=9u64 {
                assert!(fold_leaf("exec.point", (tr, parent), point(i, 10 * i, i, None)).is_none());
            }
            for (i, outcome) in [(20, "miss"), (21, "hit"), (22, "miss")] {
                let p = point(i, 5, 2, Some(outcome));
                assert!(fold_leaf("cache.probe", (tr, parent), p).is_none());
            }
            // Another context is not this fold's: handed back.
            let other = fold_leaf("exec.point", (tr, 7), point(30, 0, 1, None));
            assert_eq!(other.map(|p| p.span), Some(30));
        }
        assert_eq!(current(), None);
        assert!(spans_for(tr).is_empty(), "nothing filed before the flush");
        fold.flush();
        let spans = spans_for(tr);
        let aggregates: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == parent).collect();
        assert_eq!(aggregates.len(), 3, "exec.point, cache.probe miss and hit");
        let exec = aggregates.iter().find(|s| s.name == "exec.point").unwrap();
        assert_eq!(
            (
                label(exec, "points"),
                label(exec, "sum_us"),
                label(exec, "max_us")
            ),
            (Some("9"), Some("45"), Some("9"))
        );
        assert_eq!(
            (exec.start_us, exec.dur_us),
            (10, 90 + 9 - 10),
            "first start to last end"
        );
        let exemplars: Vec<u64> = spans
            .iter()
            .filter(|s| s.parent == exec.span)
            .map(|s| s.dur_us)
            .collect();
        let mut slowest = exemplars.clone();
        slowest.sort_unstable();
        assert_eq!(slowest, [6, 7, 8, 9], "the EXEMPLARS slowest points");
        let misses = aggregates
            .iter()
            .find(|s| label(s, "outcome") == Some("miss"))
            .unwrap();
        assert_eq!(label(misses, "points"), Some("2"));
        assert_eq!(spans.len(), 3 + 4 + 2 + 1);
        // Points after a flush start new aggregates.
        {
            let _in = fold.enter();
            assert!(fold_leaf("exec.point", (tr, parent), point(40, 0, 3, None)).is_none());
        }
        drop(fold);
        assert_eq!(
            spans_for(tr).len(),
            10 + 2,
            "the last handle flushed the rest"
        );
    }

    #[test]
    fn guards_fold_only_under_their_fold() {
        let (tr, parent) = (mint_id(), mint_id());
        let fold = Fold::new(tr, parent);
        {
            let _in = fold.enter();
            crate::span("fold.leaf").labels(&[("k", "v")]).finish();
            // An explicit other parent records as before.
            crate::span("fold.other").parent(tr, 5).finish();
        }
        // Outside the fold, the same context records as before.
        {
            let _ctx = enter(tr, parent);
            crate::span("fold.outside").finish();
        }
        let names = |spans: Vec<SpanRecord>| {
            let mut n: Vec<String> = spans.into_iter().map(|s| s.name).collect();
            n.sort();
            n
        };
        assert_eq!(names(spans_for(tr)), ["fold.other", "fold.outside"]);
        fold.flush();
        let spans = spans_for(tr);
        assert_eq!(
            names(spans.clone()),
            ["fold.leaf", "fold.leaf", "fold.other", "fold.outside"]
        );
        let exemplar = spans
            .iter()
            .find(|s| s.name == "fold.leaf" && s.parent != parent)
            .unwrap();
        assert_eq!(exemplar.labels, [("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = mint_id();
        let b = mint_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn ambient_context_nests_and_restores() {
        assert_eq!(current(), None);
        {
            let _g = enter(9, 100);
            assert_eq!(current(), Some((9, 100)));
            {
                let _h = enter(9, 200);
                assert_eq!(current(), Some((9, 200)));
            }
            assert_eq!(current(), Some((9, 100)));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn tree_render_is_deterministic_and_nested() {
        let spans = vec![
            rec(3, 1, 0, "job", 0, 100),
            rec(3, 2, 1, "job.queued", 0, 10),
            rec(3, 3, 1, "job.execute", 10, 90),
            rec(3, 4, 3, "exec.point", 12, 40),
            rec(3, 9, 777, "lost", 50, 5), // parent evicted
        ];
        let t = render_tree(&spans);
        assert_eq!(
            t,
            "job 100us proc=server\n  job.queued 10us proc=server\n  job.execute 90us proc=server\n    exec.point 40us proc=server\n(orphaned)\n  lost 5us proc=server\n"
        );
    }

    #[test]
    fn chrome_render_has_schema_fields_and_process_lanes() {
        let mut w = rec(3, 4, 3, "worker.shard.execute", 12, 40);
        w.proc = "worker:w1".to_string();
        w.labels.push(("worker".to_string(), "w1".to_string()));
        let spans = vec![rec(3, 1, 0, "job", 0, 100), w];
        let j = render_chrome(&spans, 0);
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"M\""));
        assert!(j.contains("\"name\":\"worker:w1\""));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"span\":\"0000000000000001\""));
        assert!(j.contains("\"worker\":\"w1\""));
        // Two distinct processes → two pids.
        assert!(j.contains("\"pid\":1") && j.contains("\"pid\":2"));
        assert!(
            j.ends_with("],\"otherData\":{\"spans_evicted\":0}}\n"),
            "{j}"
        );
        assert!(render_chrome(&spans, 7).contains("\"spans_evicted\":7"));
    }

    #[test]
    fn critical_path_attributes_self_time() {
        let spans = vec![
            rec(3, 1, 0, "job", 0, 100),
            rec(3, 2, 1, "job.queued", 0, 10),
            rec(3, 3, 1, "job.execute", 10, 88),
            rec(3, 4, 3, "exec.point", 12, 80),
        ];
        let t = render_critical_path(&spans, 10);
        // exec.point has the largest self time (80us) and leads.
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("root `job`, 100us"));
        assert!(lines[1].trim_start().starts_with("exec.point"));
        assert!(
            t.contains("coverage: 98.0%"),
            "98/100us inside children: {t}"
        );
    }

    #[test]
    fn critical_path_charges_an_aggregate_its_points() {
        let mut agg = rec(3, 4, 3, "exec.point", 12, 80);
        agg.labels = [("points", "5"), ("sum_us", "150"), ("max_us", "60")]
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .to_vec();
        let spans = vec![
            rec(3, 1, 0, "job", 0, 100),
            rec(3, 3, 1, "job.execute", 10, 88),
            agg,
            rec(3, 5, 4, "exec.point", 12, 60),
            rec(3, 6, 3, "cache.store", 50, 5),
        ];
        let t = render_critical_path(&spans, 10);
        let exec = t
            .lines()
            .find(|l| l.trim_start().starts_with("exec.point"))
            .unwrap();
        assert!(exec.ends_with("150us  (n=5)"), "{t}");
        assert!(t.contains("coverage: 88.0%"), "{t}");
    }
}
