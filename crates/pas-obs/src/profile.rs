//! Cooperative region profiling: interned stack paths, exact self/total
//! accumulation, and flamegraph rendering.
//!
//! Where a trace ([`trace`](crate::trace)) answers "where did *this
//! job's* 51 ms go", a profile answers "which *code region* burns the
//! time, summed over everything the process ran". A region is a named
//! lexical scope — `profile::scope("exec.point")` — and a path is the
//! stack of regions live on one thread (`job.execute;exec.point`).
//! Every scope exit adds its measured nanoseconds to its path's cell,
//! and attributes the same nanoseconds to the parent frame's child
//! accumulator, so for every path the identity
//! `total == self + Σ children-totals` holds *exactly* in integer
//! nanoseconds — the property the flamegraph layout and the ≥90%
//! attribution bar both lean on.
//!
//! The design follows the registry's discipline:
//!
//! * **Cheap when off.** [`scope`] costs one relaxed atomic load when
//!   profiling is disabled. The simulation loop's per-event attribution
//!   sits behind its own [`detail`] switch, off by default, which the
//!   runner reads once per run: with it off the event loop carries no
//!   profiler code at all. With it on, the runner reads the clock once
//!   per event, sums per event kind locally and hands the sums over with
//!   one [`add_child`] per kind at the end of the run.
//! * **Lock-free when hot.** Region and path ids are interned once
//!   under short mutexes; after that, accumulation is plain atomic adds
//!   into a fixed slab indexed by path id.
//! * **Bounded.** At most [`DEFAULT_MAX_REGIONS`] region names and
//!   [`DEFAULT_MAX_PATHS`] unique paths; overflow makes the scope inert
//!   and counts into [`dropped`] instead of growing the heap.
//! * **Observational only.** Nothing reads a profile back into a
//!   result, so enabling profiling cannot change a result byte.
//!
//! Renderers produce three formats, all deterministic for a given
//! table state (paths render in sorted canonical order, so output is
//! byte-stable across registration order): folded-stack text
//! (`a;b;c 123`, one line per path, self-µs values — the standard
//! flamegraph collapse format), a self-contained SVG flamegraph
//! (following `pas-report`'s SVG conventions: fixed-precision
//! coordinates, no external assets), and JSON.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum distinct region names the default table interns.
pub const DEFAULT_MAX_REGIONS: usize = 256;

/// Maximum unique stack paths the default table holds. 4096 paths ×
/// one 24-byte stat cell = 96 KiB, fixed at construction.
pub const DEFAULT_MAX_PATHS: usize = 4096;

/// The root path id: the empty stack. Every top-level region's path
/// has `ROOT` as its parent.
pub const ROOT: u32 = 0;

const NO_REGION: u16 = u16::MAX;

/// One aggregated path, as exported by [`ProfileTable::snapshot`] /
/// [`drain`] and shipped between processes (a worker's report
/// piggyback). `stack` is outermost-first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Region names, outermost first.
    pub stack: Vec<String>,
    /// Completed scope exits on this exact path.
    pub calls: u64,
    /// Total wall nanoseconds across those exits (children included).
    pub total_ns: u64,
    /// Nanoseconds attributed to child paths (so `total - child` is
    /// exact self time).
    pub child_ns: u64,
}

impl ProfileEntry {
    /// Exact self time in nanoseconds.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// The canonical `a;b;c` key this entry sorts and merges under.
    pub fn key(&self) -> String {
        self.stack.join(";")
    }
}

struct PathStat {
    calls: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
}

impl PathStat {
    fn zeroed() -> PathStat {
        PathStat {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            child_ns: AtomicU64::new(0),
        }
    }
}

struct Regions {
    names: Vec<String>,
    index: HashMap<String, u16>,
}

#[derive(Clone, Copy)]
struct PathNode {
    parent: u32,
    region: u16,
}

struct Paths {
    nodes: Vec<PathNode>,
    index: HashMap<(u32, u16), u32>,
}

/// A bounded profile table: region + path interners and one atomic
/// stat cell per path. The process-global instance is behind the free
/// functions below; tests build (and leak) their own.
pub struct ProfileTable {
    regions: Mutex<Regions>,
    paths: Mutex<Paths>,
    stats: Vec<PathStat>,
    max_regions: usize,
    dropped: AtomicU64,
}

impl ProfileTable {
    /// An empty table bounded to `max_regions` names and `max_paths`
    /// unique stacks (both clamped to at least 1).
    pub fn new(max_regions: usize, max_paths: usize) -> ProfileTable {
        let max_paths = max_paths.max(1);
        ProfileTable {
            regions: Mutex::new(Regions {
                names: Vec::new(),
                index: HashMap::new(),
            }),
            paths: Mutex::new(Paths {
                // Slot 0 is the root (empty stack) sentinel.
                nodes: vec![PathNode {
                    parent: ROOT,
                    region: NO_REGION,
                }],
                index: HashMap::new(),
            }),
            stats: (0..max_paths.saturating_add(1))
                .map(|_| PathStat::zeroed())
                .collect(),
            max_regions: max_regions.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// The default-capacity table.
    pub fn with_defaults() -> ProfileTable {
        ProfileTable::new(DEFAULT_MAX_REGIONS, DEFAULT_MAX_PATHS)
    }

    /// Intern `name`, returning its region id; `None` (counted in
    /// [`ProfileTable::dropped`]) when the region table is full.
    pub fn region(&self, name: &str) -> Option<u16> {
        let mut regions = self.regions.lock().unwrap();
        if let Some(&id) = regions.index.get(name) {
            return Some(id);
        }
        if regions.names.len() >= self.max_regions.min(NO_REGION as usize) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let id = regions.names.len() as u16;
        regions.names.push(name.to_string());
        regions.index.insert(name.to_string(), id);
        Some(id)
    }

    /// Intern the path `parent → region`, returning its path id;
    /// `None` (counted in [`ProfileTable::dropped`]) when the path
    /// table is full.
    pub fn path_of(&self, parent: u32, region: u16) -> Option<u32> {
        let mut paths = self.paths.lock().unwrap();
        if let Some(&id) = paths.index.get(&(parent, region)) {
            return Some(id);
        }
        if paths.nodes.len() >= self.stats.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let id = paths.nodes.len() as u32;
        paths.nodes.push(PathNode { parent, region });
        paths.index.insert((parent, region), id);
        Some(id)
    }

    /// Intern a whole stack (outermost first) under the root.
    pub fn intern_stack(&self, stack: &[&str]) -> Option<u32> {
        let mut path = ROOT;
        for name in stack {
            let region = self.region(name)?;
            path = self.path_of(path, region)?;
        }
        Some(path)
    }

    /// Record one completed scope on `path`: `total_ns` wall time of
    /// which `child_ns` was spent inside child scopes.
    pub fn record(&self, path: u32, total_ns: u64, child_ns: u64) {
        let s = &self.stats[path as usize];
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.total_ns.fetch_add(total_ns, Ordering::Relaxed);
        s.child_ns.fetch_add(child_ns, Ordering::Relaxed);
    }

    /// Merge a pre-aggregated cell into `path` (cross-process ingest).
    pub fn add(&self, path: u32, calls: u64, total_ns: u64, child_ns: u64) {
        let s = &self.stats[path as usize];
        s.calls.fetch_add(calls, Ordering::Relaxed);
        s.total_ns.fetch_add(total_ns, Ordering::Relaxed);
        s.child_ns.fetch_add(child_ns, Ordering::Relaxed);
    }

    /// Scopes lost to region/path table overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Unique paths interned so far (root excluded).
    pub fn len(&self) -> usize {
        self.paths.lock().unwrap().nodes.len() - 1
    }

    /// Whether no paths are interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zero every stat cell, *keeping* interned regions and paths —
    /// path ids held by currently-open scopes stay valid, which is
    /// what makes `GET /profile?seconds=N` reset-and-window safe.
    pub fn reset(&self) {
        for s in &self.stats {
            s.calls.store(0, Ordering::Relaxed);
            s.total_ns.store(0, Ordering::Relaxed);
            s.child_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Export every path with any activity, stacks resolved to names,
    /// sorted by canonical `a;b;c` key — the deterministic order every
    /// renderer consumes.
    pub fn snapshot(&self) -> Vec<ProfileEntry> {
        self.collect(false)
    }

    /// [`ProfileTable::snapshot`], then zero the stat cells — what a
    /// worker ships per report so each cell is counted exactly once.
    pub fn drain(&self) -> Vec<ProfileEntry> {
        self.collect(true)
    }

    fn collect(&self, take: bool) -> Vec<ProfileEntry> {
        let (nodes, names): (Vec<PathNode>, Vec<String>) = {
            // Lock order: paths then regions (matches nothing else —
            // no other code holds both).
            let paths = self.paths.lock().unwrap();
            let regions = self.regions.lock().unwrap();
            (paths.nodes.clone(), regions.names.clone())
        };
        let mut out: Vec<ProfileEntry> = Vec::new();
        for (id, _) in nodes.iter().enumerate().skip(1) {
            let s = &self.stats[id];
            let (calls, total_ns, child_ns) = if take {
                (
                    s.calls.swap(0, Ordering::Relaxed),
                    s.total_ns.swap(0, Ordering::Relaxed),
                    s.child_ns.swap(0, Ordering::Relaxed),
                )
            } else {
                (
                    s.calls.load(Ordering::Relaxed),
                    s.total_ns.load(Ordering::Relaxed),
                    s.child_ns.load(Ordering::Relaxed),
                )
            };
            if calls == 0 && total_ns == 0 {
                continue;
            }
            let mut stack: Vec<String> = Vec::new();
            let mut cur = id as u32;
            while cur != ROOT {
                let node = nodes[cur as usize];
                stack.push(
                    names
                        .get(node.region as usize)
                        .cloned()
                        .unwrap_or_else(|| "?".to_string()),
                );
                cur = node.parent;
            }
            stack.reverse();
            out.push(ProfileEntry {
                stack,
                calls,
                total_ns,
                child_ns,
            });
        }
        out.sort_by(|a, b| a.stack.cmp(&b.stack));
        out
    }

    /// Merge entries recorded elsewhere (a worker's piggyback) into
    /// this table, interning their stacks; overflow counts into
    /// [`ProfileTable::dropped`].
    pub fn ingest(&self, entries: &[ProfileEntry]) {
        for e in entries {
            let stack: Vec<&str> = e.stack.iter().map(String::as_str).collect();
            if let Some(path) = self.intern_stack(&stack) {
                if path != ROOT {
                    self.add(path, e.calls, e.total_ns, e.child_ns);
                }
            }
        }
    }

    /// Render this table's snapshot as folded-stack text.
    pub fn render_folded(&self) -> String {
        folded(&self.snapshot())
    }

    /// Render this table's snapshot as an SVG flamegraph.
    pub fn render_svg(&self) -> String {
        svg(&self.snapshot())
    }

    /// Render this table's snapshot as JSON (includes the drop count).
    pub fn render_json(&self) -> String {
        json(&self.snapshot(), self.dropped())
    }
}

// --- global table & switches ------------------------------------------------

static GLOBAL: OnceLock<ProfileTable> = OnceLock::new();

/// Profiling's own collection switch, ANDed with the registry-wide
/// [`enabled`](crate::enabled) flag so `pas bench` can price region
/// profiling separately from metrics and spans.
static PROFILING: AtomicBool = AtomicBool::new(true);

/// Detail-level switch for the simulation loop's per-event-kind regions.
/// Off by default: the hot loop is well under 100 ns/event, so these
/// regions are opt-in (`pas profile <manifest>` turns them on).
static DETAIL: AtomicBool = AtomicBool::new(false);

/// The process-global profile table.
pub fn global() -> &'static ProfileTable {
    GLOBAL.get_or_init(ProfileTable::with_defaults)
}

/// Whether region collection is on (both switches).
pub fn profiling() -> bool {
    crate::enabled() && PROFILING.load(Ordering::Relaxed)
}

/// Toggle region collection (metrics and spans are unaffected).
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Whether detail-level regions are also collected. Read once per run by
/// the code that records them, not once per event.
pub fn detail() -> bool {
    DETAIL.load(Ordering::Relaxed) && profiling()
}

/// Toggle detail-level regions (see [`detail`]).
pub fn set_detail(on: bool) {
    DETAIL.store(on, Ordering::Relaxed);
}

/// Scopes lost to table overflow in the global table.
pub fn dropped() -> u64 {
    global().dropped()
}

/// Snapshot the global table (sorted canonical entries).
pub fn snapshot() -> Vec<ProfileEntry> {
    global().snapshot()
}

/// Drain the global table (what workers piggyback on reports).
pub fn drain() -> Vec<ProfileEntry> {
    global().drain()
}

/// Merge another process's entries into the global table.
pub fn ingest(entries: &[ProfileEntry]) {
    if !profiling() {
        return;
    }
    global().ingest(entries);
}

/// Zero the global table's cells (reset-and-window).
pub fn reset() {
    global().reset();
}

/// Render the global table as folded-stack text.
pub fn render_folded() -> String {
    global().render_folded()
}

/// Render the global table as an SVG flamegraph.
pub fn render_svg() -> String {
    global().render_svg()
}

/// Render the global table as JSON.
pub fn render_json() -> String {
    global().render_json()
}

// --- thread-local stack & scope guards --------------------------------------

struct Frame {
    table: &'static ProfileTable,
    path: u32,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    /// This thread's open regions, outermost first.
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// A live region: times from construction, records on drop (including
/// panic unwind, so a panicking region is still counted exactly once).
/// Obtain via [`scope`] / [`ProfileTable::scope`].
#[must_use = "a profile scope measures until it is dropped"]
pub struct Scope {
    /// 1-based stack depth of this scope's frame; 0 = inert.
    depth: usize,
}

impl Scope {
    pub(crate) const INERT: Scope = Scope { depth: 0 };
}

/// Enter region `name` on the global table. One relaxed atomic load
/// when profiling is off.
#[inline]
pub fn scope(name: &str) -> Scope {
    if !profiling() {
        return Scope::INERT;
    }
    global().scope(name)
}

/// [`scope`] starting at `start`, a clock read the caller shares with
/// its other sinks (the [`span`](crate::span) guard).
#[inline]
pub(crate) fn scope_at(name: &str, start: Instant) -> Scope {
    if !profiling() {
        return Scope::INERT;
    }
    global().enter_at(name, start)
}

/// Add `calls` visits of region `name`, `ns` nanoseconds in all, as a
/// child of this thread's innermost open region on the global table, for
/// code that times many short visits itself and hands over their sums (the
/// simulation runner's per-event-kind regions). The open region counts
/// `ns` as child time, so `total == self + Σ children` still holds when
/// it closes, provided the visits were timed inside it. Does nothing when
/// profiling is off, `calls` is zero or no region is open.
pub fn add_child(name: &str, calls: u64, ns: u64) {
    if profiling() {
        global().add_child(name, calls, ns);
    }
}

impl ProfileTable {
    /// Enter region `name` on this table. The table must be `'static`
    /// (the global one is; tests `Box::leak` theirs) because the
    /// thread-local frame stack outlives any one call frame. Scopes of
    /// different tables may interleave on one thread: each frame
    /// remembers its table, parents resolve per table, and exits
    /// attribute child time to the nearest same-table ancestor.
    pub fn scope(&'static self, name: &str) -> Scope {
        self.enter_at(name, Instant::now())
    }

    fn enter_at(&'static self, name: &str, start: Instant) -> Scope {
        let Some(region) = self.region(name) else {
            return Scope::INERT;
        };
        FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            let parent = frames
                .iter()
                .rev()
                .find(|f| std::ptr::eq(f.table, self))
                .map(|f| f.path)
                .unwrap_or(ROOT);
            let Some(path) = self.path_of(parent, region) else {
                return Scope::INERT;
            };
            frames.push(Frame {
                table: self,
                path,
                start,
                child_ns: 0,
            });
            Scope {
                depth: frames.len(),
            }
        })
    }

    /// [`add_child`] on this table: the child hangs under the innermost
    /// open region of this table on this thread.
    pub(crate) fn add_child(&'static self, name: &str, calls: u64, ns: u64) {
        if calls == 0 {
            return;
        }
        let Some(region) = self.region(name) else {
            return;
        };
        let _ = FRAMES.try_with(|frames| {
            let mut frames = frames.borrow_mut();
            let mut open = frames.iter_mut().rev();
            let Some(parent) = open.find(|f| std::ptr::eq(f.table, self)) else {
                return;
            };
            if let Some(path) = self.path_of(parent.path, region) {
                self.add(path, calls, ns, 0);
                parent.child_ns += ns;
            }
        });
    }
}

impl Scope {
    /// Close the region at `end` (idempotent: the scope goes inert).
    pub(crate) fn exit_at(&mut self, end: Instant) {
        if self.depth == 0 {
            return;
        }
        let depth = std::mem::replace(&mut self.depth, 0);
        // `try_with`: a scope dropped during thread teardown (after the
        // thread-local was destroyed) simply records nothing.
        let _ = FRAMES.try_with(|frames| {
            let mut frames = frames.borrow_mut();
            // Finalise our frame and any leaked frames above it (an
            // inner scope that was `mem::forget`-ten); each pops and
            // records exactly once, so unwinds cannot double-count.
            while frames.len() >= depth {
                let frame = frames.pop().expect("len checked");
                let elapsed = end.saturating_duration_since(frame.start).as_nanos() as u64;
                frame.table.record(frame.path, elapsed, frame.child_ns);
                if let Some(parent) = frames
                    .iter_mut()
                    .rev()
                    .find(|f| std::ptr::eq(f.table, frame.table))
                {
                    parent.child_ns += elapsed;
                }
            }
        });
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        // Inert scopes (profiling off, or a full table) must not read the
        // clock.
        if self.depth != 0 {
            self.exit_at(Instant::now());
        }
    }
}

// --- renderers --------------------------------------------------------------

/// Merge entries sharing a canonical key (cross-process ingests can
/// produce duplicates pre-interning) and sort by key. All renderers
/// start here, which is what makes their output registration-order
/// independent.
fn canonical(entries: &[ProfileEntry]) -> Vec<ProfileEntry> {
    let mut merged: Vec<ProfileEntry> = Vec::with_capacity(entries.len());
    for e in entries {
        match merged.iter_mut().find(|m| m.stack == e.stack) {
            Some(m) => {
                m.calls += e.calls;
                m.total_ns += e.total_ns;
                m.child_ns += e.child_ns;
            }
            None => merged.push(e.clone()),
        }
    }
    merged.sort_by(|a, b| a.stack.cmp(&b.stack));
    merged
}

/// Render entries as folded-stack text: one `a;b;c <self_us>` line per
/// path, sorted by canonical key. Deterministic bytes for a given
/// entry multiset; consumable by any flamegraph toolchain.
pub fn folded(entries: &[ProfileEntry]) -> String {
    let mut out = String::new();
    for e in canonical(entries) {
        let _ = writeln!(out, "{} {}", e.key(), e.self_ns() / 1_000);
    }
    out
}

/// Render entries as JSON: `{dropped, total_us, paths: [...]}` with
/// paths in canonical order.
pub fn json(entries: &[ProfileEntry], dropped: u64) -> String {
    let entries = canonical(entries);
    let total_us: u64 = entries
        .iter()
        .filter(|e| e.stack.len() == 1)
        .map(|e| e.total_ns / 1_000)
        .sum();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"dropped\":{dropped},\"total_us\":{total_us},\"paths\":["
    );
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"stack\":{},\"calls\":{},\"total_us\":{},\"self_us\":{}}}",
            crate::json::quote(&e.key()),
            e.calls,
            e.total_ns / 1_000,
            e.self_ns() / 1_000
        );
    }
    out.push_str("]}\n");
    out
}

// Flamegraph geometry, following pas-report's SVG conventions (pure
// text, fixed-precision coordinates, no external assets).
const FRAME_W: f64 = 1000.0;
const ROW_H: f64 = 18.0;
const MARGIN: f64 = 10.0;
const HEADER_H: f64 = 28.0;

/// Warm palette for flame frames, picked by a name hash so a region
/// keeps its colour across renders and processes.
const FLAME_PALETTE: [&str; 8] = [
    "#e4593b", "#e98339", "#edae3a", "#d9c33c", "#e06a50", "#ef9a55", "#dd7a2e", "#c9542f",
];

fn flame_color(name: &str) -> &'static str {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    FLAME_PALETTE[(h % FLAME_PALETTE.len() as u64) as usize]
}

fn xml(raw: &str) -> String {
    raw.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn fmt_c(v: f64) -> String {
    format!("{v:.2}")
}

struct FlameNode {
    name: String,
    entry_total_ns: u64,
    self_ns: u64,
    calls: u64,
    children: Vec<FlameNode>,
}

impl FlameNode {
    fn leaf(name: String) -> FlameNode {
        FlameNode {
            name,
            entry_total_ns: 0,
            self_ns: 0,
            calls: 0,
            children: Vec::new(),
        }
    }

    /// Display width: a parent whose scope is still open can have
    /// recorded children but no own total yet; never draw it narrower
    /// than its children.
    fn width_ns(&self) -> u64 {
        self.entry_total_ns
            .max(self.children.iter().map(|c| c.width_ns()).sum())
    }

    fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }
}

fn build_tree(entries: &[ProfileEntry]) -> Vec<FlameNode> {
    let mut roots: Vec<FlameNode> = Vec::new();
    for e in entries {
        // Entries arrive sorted, so parents precede children and
        // sibling order is already canonical.
        let mut level = &mut roots;
        for (i, name) in e.stack.iter().enumerate() {
            let pos = match level.iter().position(|n| n.name == *name) {
                Some(p) => p,
                None => {
                    level.push(FlameNode::leaf(name.clone()));
                    level.len() - 1
                }
            };
            let node = &mut level[pos];
            if i == e.stack.len() - 1 {
                node.entry_total_ns += e.total_ns;
                node.self_ns += e.self_ns();
                node.calls += e.calls;
            }
            level = &mut level[pos].children;
        }
    }
    roots
}

fn render_frame(out: &mut String, node: &FlameNode, x: f64, y: f64, scale: f64, stack: &str) {
    let w = node.width_ns() as f64 * scale;
    if w < 0.1 {
        return;
    }
    let full = if stack.is_empty() {
        node.name.clone()
    } else {
        format!("{stack};{}", node.name)
    };
    let _ = writeln!(
        out,
        "  <g><title>{} — total {}us, self {}us, calls {}</title>\n    <rect \
         x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{}\" stroke=\"white\" \
         stroke-width=\"0.5\"/>",
        xml(&full),
        node.width_ns() / 1_000,
        node.self_ns / 1_000,
        node.calls,
        fmt_c(x),
        fmt_c(y),
        fmt_c(w),
        fmt_c(ROW_H - 1.0),
        flame_color(&node.name),
    );
    if w >= 40.0 {
        let max_chars = ((w - 6.0) / 6.5) as usize;
        let label: String = if node.name.len() > max_chars {
            node.name
                .chars()
                .take(max_chars.saturating_sub(1))
                .collect::<String>()
                + "…"
        } else {
            node.name.clone()
        };
        let _ = writeln!(
            out,
            "    <text x=\"{}\" y=\"{}\" font-size=\"11\" fill=\"#222\">{}</text>",
            fmt_c(x + 3.0),
            fmt_c(y + ROW_H - 5.5),
            xml(&label)
        );
    }
    let _ = writeln!(out, "  </g>");
    let mut cx = x;
    for child in &node.children {
        render_frame(out, child, cx, y + ROW_H, scale, &full);
        cx += child.width_ns() as f64 * scale;
    }
}

/// Render entries as a self-contained SVG flamegraph (icicle layout:
/// root row on top, callees below, frame width ∝ exact total µs).
/// Deterministic bytes for a given entry multiset.
pub fn svg(entries: &[ProfileEntry]) -> String {
    let entries = canonical(entries);
    let roots = build_tree(&entries);
    let total_ns: u64 = roots.iter().map(|r| r.width_ns()).sum();
    let depth = 1 + roots.iter().map(|r| r.depth()).max().unwrap_or(0);
    let height = HEADER_H + depth as f64 * ROW_H + MARGIN;
    let width = FRAME_W + 2.0 * MARGIN;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
         viewBox=\"0 0 {} {}\" font-family=\"sans-serif\">",
        fmt_c(width),
        fmt_c(height),
        fmt_c(width),
        fmt_c(height)
    );
    let _ = writeln!(
        out,
        "  <rect width=\"100%\" height=\"100%\" fill=\"white\"/>"
    );
    let _ = writeln!(
        out,
        "  <text x=\"{}\" y=\"18\" font-size=\"13\" font-weight=\"bold\">pas profile — \
         {} paths, total {}us</text>",
        fmt_c(MARGIN),
        entries.len(),
        total_ns / 1_000
    );
    let scale = FRAME_W / total_ns.max(1) as f64;
    // Synthetic "all" root spanning the full width, flamegraph-style.
    let _ = writeln!(
        out,
        "  <g><title>all — total {}us</title>\n    <rect x=\"{}\" y=\"{}\" width=\"{}\" \
         height=\"{}\" fill=\"#b0b0b0\" stroke=\"white\" stroke-width=\"0.5\"/>\n    <text \
         x=\"{}\" y=\"{}\" font-size=\"11\" fill=\"#222\">all</text>\n  </g>",
        total_ns / 1_000,
        fmt_c(MARGIN),
        fmt_c(HEADER_H),
        fmt_c(FRAME_W),
        fmt_c(ROW_H - 1.0),
        fmt_c(MARGIN + 3.0),
        fmt_c(HEADER_H + ROW_H - 5.5),
    );
    let mut x = MARGIN;
    for root in &roots {
        render_frame(&mut out, root, x, HEADER_H + ROW_H, scale, "");
        x += root.width_ns() as f64 * scale;
    }
    let _ = writeln!(out, "</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn table() -> &'static ProfileTable {
        Box::leak(Box::new(ProfileTable::with_defaults()))
    }

    fn entry(stack: &[&str], calls: u64, total_ns: u64, child_ns: u64) -> ProfileEntry {
        ProfileEntry {
            stack: stack.iter().map(|s| s.to_string()).collect(),
            calls,
            total_ns,
            child_ns,
        }
    }

    #[test]
    fn paths_intern_uniquely_and_resolve() {
        let t = ProfileTable::with_defaults();
        let a = t.intern_stack(&["a"]).unwrap();
        let ab = t.intern_stack(&["a", "b"]).unwrap();
        let ab2 = t.intern_stack(&["a", "b"]).unwrap();
        assert_ne!(a, ab);
        assert_eq!(ab, ab2);
        assert_eq!(t.len(), 2);
        t.add(ab, 1, 5_000, 0);
        t.add(a, 1, 9_000, 5_000);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].stack, vec!["a"]);
        assert_eq!(snap[1].stack, vec!["a", "b"]);
        assert_eq!(snap[0].self_ns(), 4_000);
    }

    #[test]
    fn overflow_is_counted_not_grown() {
        let t = ProfileTable::new(2, 2);
        assert!(t.intern_stack(&["a", "b"]).is_some());
        assert!(t.intern_stack(&["c"]).is_none(), "region table full");
        assert!(t.intern_stack(&["b"]).is_none(), "path table full");
        assert!(t.dropped() >= 2, "dropped {}", t.dropped());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn scopes_nest_and_attribute_child_time_exactly() {
        let t = table();
        {
            let _outer = t.scope("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = t.scope("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let snap = t.snapshot();
        let outer = snap.iter().find(|e| e.key() == "outer").unwrap();
        let inner = snap.iter().find(|e| e.key() == "outer;inner").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert_eq!(
            outer.child_ns, inner.total_ns,
            "parent child time is exactly the child's total"
        );
        assert!(outer.total_ns >= inner.total_ns);
        assert!(inner.total_ns >= 1_000_000, "inner slept 2ms");
    }

    #[test]
    fn added_children_hang_under_the_open_region_and_keep_the_identity() {
        let t = table();
        t.add_child("a.orphan", 3, 30); // no region open: dropped
        {
            let _outer = t.scope("a.outer");
            {
                let _inner = t.scope("a.inner");
                t.add_child("a.leaf", 2, 500);
            }
            std::thread::sleep(Duration::from_millis(1));
            t.add_child("a.kind", 4, 700_000);
            t.add_child("a.kind", 1, 100_000);
            t.add_child("a.unvisited", 0, 0);
        }
        let snap = t.snapshot();
        let get = |key: &str| snap.iter().find(|e| e.key() == key);
        let (outer, inner) = (get("a.outer").unwrap(), get("a.outer;a.inner").unwrap());
        let (kind, leaf) = (
            get("a.outer;a.kind").unwrap(),
            get("a.outer;a.inner;a.leaf").unwrap(),
        );
        assert_eq!((kind.calls, kind.total_ns, kind.child_ns), (5, 800_000, 0));
        assert_eq!((leaf.calls, leaf.total_ns), (2, 500));
        assert_eq!(inner.child_ns, 500);
        assert_eq!(outer.child_ns, inner.total_ns + kind.total_ns);
        assert!(outer.total_ns >= outer.child_ns, "slept 1 ms past the sums");
        assert!(get("a.orphan").is_none() && get("a.outer;a.unvisited").is_none());
        assert_eq!(t.len(), 4, "zero-call and orphan children intern nothing");
    }

    #[test]
    fn panicking_scope_records_exactly_once() {
        let t = table();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = t.scope("p.outer");
            let _inner = t.scope("p.inner");
            panic!("boom");
        }));
        assert!(r.is_err());
        let snap = t.snapshot();
        let outer = snap.iter().find(|e| e.key() == "p.outer").unwrap();
        let inner = snap.iter().find(|e| e.key() == "p.outer;p.inner").unwrap();
        assert_eq!(outer.calls, 1, "unwind must not double-count");
        assert_eq!(inner.calls, 1);
        assert_eq!(outer.child_ns, inner.total_ns);
    }

    #[test]
    fn interleaved_tables_keep_their_own_ancestry() {
        let t1 = table();
        let t2 = table();
        {
            let _a = t1.scope("t1.a");
            let _x = t2.scope("t2.x");
            let _b = t1.scope("t1.b");
        }
        let k1: Vec<String> = t1.snapshot().iter().map(|e| e.key()).collect();
        let k2: Vec<String> = t2.snapshot().iter().map(|e| e.key()).collect();
        assert_eq!(k1, vec!["t1.a", "t1.a;t1.b"], "t2 frame is invisible to t1");
        assert_eq!(k2, vec!["t2.x"]);
    }

    #[test]
    fn reset_keeps_paths_and_zeroes_cells() {
        let t = ProfileTable::with_defaults();
        let p = t.intern_stack(&["r", "s"]).unwrap();
        t.add(p, 3, 900, 0);
        t.reset();
        assert!(t.snapshot().is_empty(), "cells zeroed");
        assert_eq!(t.len(), 2, "paths survive reset");
        t.add(p, 1, 10, 0);
        assert_eq!(t.snapshot()[0].stack, vec!["r", "s"], "old ids stay valid");
    }

    #[test]
    fn drain_takes_exactly_once() {
        let t = ProfileTable::with_defaults();
        let p = t.intern_stack(&["d"]).unwrap();
        t.add(p, 2, 500, 0);
        let first = t.drain();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].calls, 2);
        assert!(t.drain().is_empty(), "second drain sees nothing");
    }

    #[test]
    fn ingest_merges_foreign_entries() {
        let t = ProfileTable::with_defaults();
        let p = t.intern_stack(&["m"]).unwrap();
        t.add(p, 1, 1_000, 0);
        t.ingest(&[entry(&["m"], 2, 3_000, 0), entry(&["m", "n"], 1, 500, 0)]);
        let snap = t.snapshot();
        let m = snap.iter().find(|e| e.key() == "m").unwrap();
        assert_eq!(m.calls, 3);
        assert_eq!(m.total_ns, 4_000);
        assert!(snap.iter().any(|e| e.key() == "m;n"));
    }

    #[test]
    fn folded_output_is_byte_stable_across_registration_order() {
        let forward = ProfileTable::with_defaults();
        let reverse = ProfileTable::with_defaults();
        let entries = [
            entry(&["z"], 1, 9_000, 0),
            entry(&["a", "b"], 2, 5_000, 0),
            entry(&["a"], 2, 8_000, 5_000),
            entry(&["a", "c"], 1, 1_000, 0),
        ];
        forward.ingest(&entries);
        let mut rev = entries.to_vec();
        rev.reverse();
        reverse.ingest(&rev);
        let f = forward.render_folded();
        assert_eq!(f, reverse.render_folded(), "order-independent bytes");
        assert_eq!(f, "a 3\na;b 5\na;c 1\nz 9\n");
        assert_eq!(forward.render_json(), reverse.render_json());
        assert_eq!(forward.render_svg(), reverse.render_svg());
    }

    #[test]
    fn json_has_schema_fields() {
        let t = ProfileTable::with_defaults();
        t.ingest(&[
            entry(&["j", "k"], 4, 7_000, 0),
            entry(&["j"], 4, 9_000, 7_000),
        ]);
        let j = t.render_json();
        assert!(j.starts_with("{\"dropped\":0,\"total_us\":9,\"paths\":["));
        assert!(j.contains("\"stack\":\"j;k\""));
        assert!(j.contains("\"calls\":4"));
        assert!(j.contains("\"self_us\":2"));
        assert!(j.ends_with("]}\n"));
    }

    #[test]
    fn svg_is_well_formed_and_nested() {
        let t = ProfileTable::with_defaults();
        t.ingest(&[
            entry(&["root"], 1, 100_000, 60_000),
            entry(&["root", "leaf"], 3, 60_000, 0),
        ]);
        let svg = t.render_svg();
        assert!(svg.starts_with("<svg xmlns=\"http://www.w3.org/2000/svg\""));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains(">all<"), "synthetic root frame");
        assert!(svg.contains("root;leaf — total 60us"));
        assert_eq!(svg.matches("<rect").count(), 4, "bg + all + 2 frames");
    }

    #[test]
    fn disabled_scope_is_inert() {
        set_profiling(false);
        {
            let s = scope("never.recorded");
            assert_eq!(s.depth, 0);
        }
        set_profiling(true);
        assert!(!snapshot().iter().any(|e| e.key() == "never.recorded"));
    }
}
