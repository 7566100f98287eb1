//! Content-addressed, on-disk cache of per-run results.
//!
//! A run's outcome is fully determined by the manifest's *environment*
//! (deployment, stimulus, channel, failures, grace/horizon), the resolved
//! policy, the sweep-axis assignments, and the replicate seed — see
//! [`pas_scenario::execute_point`]. The cache keys each run by a SHA-256
//! over exactly those inputs, serialised canonically:
//!
//! ```text
//! key = sha256( CACHE_VERSION
//!             ‖ canonical TOML of the manifest with name/description,
//!               policies, sweep, output and replicate fan-out stripped
//!             ‖ Debug of the resolved Policy (kind + every parameter,
//!               including a non-default predictor and its parameters)
//!             ‖ policy label ‖ axis assignments (numeric: field = f64
//!               bits; named: field $ name) ‖ seed )
//! ```
//!
//! The `Debug` rendering of `AdaptiveParams` is hand-stabilised in
//! `pas-core`: with the default predictor it is byte-identical to the
//! pre-predictor-layer derived output, so manifests that never mention a
//! predictor keep their historical keys (warm caches stay warm), while
//! every non-default predictor — and every distinct parameterisation of
//! one — prints an extra `predictor` field and can never collide. The
//! same split applies to assignments: numeric axes hash exactly as
//! before, and the predictor axis hashes through a disjoint `$`
//! separator. `key_stability.rs` pins pre-refactor keys literally.
//!
//! A key is hashed in three stages, so executors that key many points
//! pay for each stage once: the environment once per manifest
//! ([`KeyPrefix`]), the policy, label and assignments once per matrix
//! cell ([`CellPrefix`]), and only the seed per point ([`CellKeys`]).
//!
//! Stripping the non-physical sections means overlapping or resubmitted
//! batches — same environment, different sweep grids or replicate counts —
//! share entries point-for-point. Entries store every [`RunRecord`] field
//! with `f64`s as raw bits, so a cache hit is *byte-identical* to a fresh
//! simulation, and carry their own SHA-256 checksum: a corrupted or
//! truncated entry fails verification and falls back to recomputation.

use crate::hash::{hex, sha256, Sha256};
use pas_obs::trace::Fold;
use pas_obs::{CounterSite, HistogramSite};
use pas_scenario::{
    execute_point_with, expand, reduce, AxisValue, BatchResult, ExecOptions, Manifest, PointSeries,
    RunPoint, RunRecord,
};
use pas_sweep::parallel_map_with;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bump on any change to the key derivation or entry format.
pub const CACHE_VERSION: &str = "pas-cache v1";

/// Lookup outcomes, as labelled on `pas.cache.lookup.count`, and their
/// positions there.
const OUTCOMES: [&str; 3] = ["hit", "miss", "corrupt"];
const HIT: usize = 0;
const MISS: usize = 1;
const CORRUPT: usize = 2;

// The registry series every lookup and store feeds, bound once per
// process.
static LOOKUP_US: HistogramSite = HistogramSite::new("pas.cache.lookup.microseconds", &[]);
static LOOKUPS: [CounterSite; 3] = [
    CounterSite::new("pas.cache.lookup.count", &[("outcome", OUTCOMES[HIT])]),
    CounterSite::new("pas.cache.lookup.count", &[("outcome", OUTCOMES[MISS])]),
    CounterSite::new("pas.cache.lookup.count", &[("outcome", OUTCOMES[CORRUPT])]),
];
static READ_BYTES: CounterSite = CounterSite::new("pas.cache.read.bytes", &[]);
static STORES: CounterSite = CounterSite::new("pas.cache.store.count", &[]);
static WRITE_BYTES: CounterSite = CounterSite::new("pas.cache.write.bytes", &[]);

/// Cache traffic counters for one batch execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Runs answered from the cache.
    pub hits: u64,
    /// Runs simulated (and stored) because no valid entry existed.
    pub misses: u64,
}

/// A directory of content-addressed run results.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of entries currently on disk.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "run"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The content key of one run, as lowercase hex: [`KeyPrefix::key`]
    /// for a lone point. To key many points of one manifest, build its
    /// [`KeyPrefix`] once and key them through [`KeyPrefix::cells`].
    pub fn key(manifest: &Manifest, pt: &RunPoint) -> String {
        KeyPrefix::new(manifest).key(pt)
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.run"))
    }

    /// Load a verified entry, or `None` when absent, corrupt, or written
    /// by an incompatible version. Lookups are counted by outcome
    /// (`hit` / `miss` / `corrupt` — a version mismatch reads as
    /// corruption here: the bytes exist but do not verify) and timed;
    /// the caller still just sees `Option`, so a corrupt entry falls
    /// back to recomputation exactly as before.
    pub fn load(&self, key: &str) -> Option<RunRecord> {
        let probe = pas_obs::span("cache.probe").histogram_handle(LOOKUP_US.get());
        let (outcome, record) = match std::fs::read_to_string(self.entry_path(key)) {
            Err(_) => (MISS, None),
            Ok(text) => {
                READ_BYTES.add(text.len() as u64);
                match Self::verify(&text) {
                    Some(r) => (HIT, Some(r)),
                    None => (CORRUPT, None),
                }
            }
        };
        LOOKUPS[outcome].inc();
        probe.labels(&[("outcome", OUTCOMES[outcome])]).finish();
        record
    }

    /// Checksum-verify and decode one entry's text.
    fn verify(text: &str) -> Option<RunRecord> {
        let rest = text.strip_prefix(CACHE_VERSION)?.strip_prefix('\n')?;
        let (checksum, payload) = rest.split_once('\n')?;
        if hex(&sha256(payload.as_bytes())) != checksum {
            return None;
        }
        decode_record(payload)
    }

    /// Store an entry (atomic rename; concurrent writers of the same key
    /// are idempotent because the content is identical by construction).
    pub fn store(&self, key: &str, record: &RunRecord) -> io::Result<()> {
        let _span = pas_obs::span("cache.store");
        let payload = encode_record(record);
        let text = format!(
            "{CACHE_VERSION}\n{}\n{payload}",
            hex(&sha256(payload.as_bytes()))
        );
        let tmp = self.dir.join(format!("{key}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, self.entry_path(key))?;
        STORES.inc();
        WRITE_BYTES.add(text.len() as u64);
        Ok(())
    }
}

/// A manifest's share of every cache key: the SHA-256 state after
/// `CACHE_VERSION ‖ 0 ‖ environment TOML ‖ 0`, and the size of the
/// manifest's matrix cells. Built once per manifest, so each key costs a
/// copy of that state and the point's own bytes.
#[derive(Clone)]
pub struct KeyPrefix {
    env: Sha256,
    /// Replicates per cell: seeds vary innermost in the matrix
    /// ([`pas_scenario::point_at`]), so a cell is a block of this many
    /// consecutive indices that differ only in seed.
    seeds: usize,
}

/// One matrix cell's share of its points' keys: the [`KeyPrefix`] state
/// after the policy, label and assignments the cell's points share.
#[derive(Clone)]
pub struct CellPrefix(Sha256);

impl KeyPrefix {
    /// Hash `manifest`'s environment ([`environment_toml`]).
    pub fn new(manifest: &Manifest) -> KeyPrefix {
        let mut h = Sha256::new();
        h.update(CACHE_VERSION.as_bytes());
        h.update(b"\x00");
        h.update(environment_toml(manifest).as_bytes());
        h.update(b"\x00");
        KeyPrefix {
            env: h,
            seeds: manifest.run.replicates.max(1) as usize,
        }
    }

    /// The prefix of `pt`'s cell, which keys any seed of it.
    pub fn cell(&self, pt: &RunPoint) -> CellPrefix {
        let mut h = self.env.clone();
        // Policy Debug covers the kind and every resolved parameter
        // (shortest-roundtrip f64 formatting is stable across platforms).
        h.update(format!("{:?}", pt.policy).as_bytes());
        h.update(b"\x00");
        h.update(pt.policy_label.as_bytes());
        h.update(b"\x00");
        for (field, value) in &pt.assignments {
            h.update(field.as_bytes());
            match value {
                AxisValue::Num(v) => {
                    h.update(b"=");
                    h.update(&v.to_bits().to_be_bytes());
                }
                AxisValue::Name(n) => {
                    // Disjoint separator: a named assignment can never
                    // collide with any numeric bit pattern.
                    h.update(b"$");
                    h.update(n.as_bytes());
                }
            }
            h.update(b";");
        }
        h.update(b"\x00");
        CellPrefix(h)
    }

    /// The content key of one run of the manifest, as lowercase hex: the
    /// one-point form of [`KeyPrefix::cells`].
    pub fn key(&self, pt: &RunPoint) -> String {
        self.cell(pt).key(pt.seed)
    }

    /// Key `points` (any of the manifest's matrix points, from
    /// [`pas_scenario::expand`] or [`pas_scenario::expand_indices`]),
    /// hashing each of their cells once.
    pub fn cells(&self, points: &[RunPoint]) -> CellKeys<'_> {
        let mut ids: Vec<usize> = points.iter().map(|pt| pt.index / self.seeds).collect();
        ids.sort_unstable();
        ids.dedup();
        CellKeys {
            prefix: self,
            cells: ids.into_iter().map(|id| (id, OnceLock::new())).collect(),
        }
    }
}

impl CellPrefix {
    /// The content key of the cell's run with replicate `seed`.
    pub fn key(&self, seed: u64) -> String {
        let mut h = self.0.clone();
        h.update(&seed.to_be_bytes());
        hex(&h.finish())
    }
}

/// The keys of a set of points of one manifest ([`KeyPrefix::cells`]):
/// a cell's [`CellPrefix`] is built when the first of its points is
/// keyed, on whichever thread that is, so points may be keyed in any
/// order and from a pool. A point outside the set is keyed whole.
pub struct CellKeys<'a> {
    prefix: &'a KeyPrefix,
    /// The set's cells, ascending by cell index.
    cells: Vec<(usize, OnceLock<CellPrefix>)>,
}

impl CellKeys<'_> {
    /// The content key of `pt`, as lowercase hex.
    pub fn key(&self, pt: &RunPoint) -> String {
        let id = pt.index / self.prefix.seeds;
        match self.cells.binary_search_by_key(&id, |&(c, _)| c) {
            Ok(i) => self.cells[i]
                .1
                .get_or_init(|| self.prefix.cell(pt))
                .key(pt.seed),
            Err(_) => self.prefix.key(pt),
        }
    }
}

/// Canonical TOML of the manifest's physical environment: everything that
/// feeds [`pas_scenario::execute_point`] *except* the per-point inputs
/// (policy, assignments, seed), which are hashed separately. Report-only
/// fields (name, description, labels) and the batch shape (sweep grid,
/// replicate fan-out, thread count) are normalised away so they do not
/// fragment the key space.
pub fn environment_toml(manifest: &Manifest) -> String {
    let mut env = manifest.clone();
    env.name = "-".to_string();
    env.description = String::new();
    env.policies = Vec::new();
    env.sweep = Vec::new();
    env.output.x_label = None;
    env.run.base_seed = 0;
    env.run.replicates = 1;
    env.run.threads = 0;
    env.to_toml()
}

/// Encode one [`RunRecord`] as the cache's line-oriented text payload,
/// `f64`s as raw bits — the canonical byte-exact record serialisation,
/// also used by the `pas-dist` wire protocol so a remotely executed
/// record round-trips bit-identically.
pub fn encode_record(r: &RunRecord) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "x={:016x}", r.x.to_bits());
    let _ = writeln!(s, "label={}", escape(&r.policy_label));
    let _ = writeln!(s, "seed={}", r.seed);
    for (field, value) in &r.assignments {
        match value {
            AxisValue::Num(v) => {
                let _ = writeln!(s, "assign={}={:016x}", escape(field), v.to_bits());
            }
            AxisValue::Name(n) => {
                let _ = writeln!(s, "nassign={}={}", escape(field), escape(n));
            }
        }
    }
    let _ = writeln!(s, "delay={:016x}", r.delay_s.to_bits());
    let _ = writeln!(s, "energy={:016x}", r.energy_j.to_bits());
    let _ = writeln!(s, "reached={}", r.reached);
    let _ = writeln!(s, "detected={}", r.detected);
    let _ = writeln!(s, "missed={}", r.missed);
    let _ = writeln!(s, "requests={}", r.requests_sent);
    let _ = writeln!(s, "responses={}", r.responses_sent);
    let _ = writeln!(s, "events={}", r.events_processed);
    let _ = writeln!(s, "duration={:016x}", r.duration_s.to_bits());
    s
}

/// Decode an [`encode_record`] payload; `None` on any malformed line.
pub fn decode_record(payload: &str) -> Option<RunRecord> {
    let mut x = None;
    let mut label = None;
    let mut seed = None;
    let mut assignments = Vec::new();
    let mut delay = None;
    let mut energy = None;
    let mut reached = None;
    let mut detected = None;
    let mut missed = None;
    let mut requests = None;
    let mut responses = None;
    let mut events = None;
    let mut duration = None;
    for line in payload.lines() {
        let (k, v) = line.split_once('=')?;
        match k {
            "x" => x = Some(bits(v)?),
            "label" => label = Some(unescape(v)?),
            "seed" => seed = Some(v.parse().ok()?),
            "assign" => {
                let (field, value) = v.rsplit_once('=')?;
                assignments.push((unescape(field)?, AxisValue::Num(bits(value)?)));
            }
            "nassign" => {
                let (field, value) = v.rsplit_once('=')?;
                assignments.push((unescape(field)?, AxisValue::Name(unescape(value)?)));
            }
            "delay" => delay = Some(bits(v)?),
            "energy" => energy = Some(bits(v)?),
            "reached" => reached = Some(v.parse().ok()?),
            "detected" => detected = Some(v.parse().ok()?),
            "missed" => missed = Some(v.parse().ok()?),
            "requests" => requests = Some(v.parse().ok()?),
            "responses" => responses = Some(v.parse().ok()?),
            "events" => events = Some(v.parse().ok()?),
            "duration" => duration = Some(bits(v)?),
            _ => return None,
        }
    }
    Some(RunRecord {
        x: x?,
        policy_label: label?,
        seed: seed?,
        assignments,
        delay_s: delay?,
        energy_j: energy?,
        reached: reached?,
        detected: detected?,
        missed: missed?,
        requests_sent: requests?,
        responses_sent: responses?,
        events_processed: events?,
        duration_s: duration?,
    })
}

fn bits(v: &str) -> Option<f64> {
    u64::from_str_radix(v, 16).ok().map(f64::from_bits)
}

/// Escape a raw string onto one `key=value` line: `\`, newline, carriage
/// return, and `=` become two-character escapes. Shared by the cache
/// record codec and the dist report's span stanzas.
pub fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '=' => out.push_str("\\e"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a malformed escape sequence.
pub fn unescape(enc: &str) -> Option<String> {
    let mut out = String::with_capacity(enc.len());
    let mut chars = enc.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                'e' => out.push('='),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// [`pas_scenario::execute`] with the cache in the per-point path: hits
/// are loaded, misses are simulated via [`execute_point_with`] and stored.
/// Records come back in matrix order and [`reduce`] runs over the same
/// record list either way, so the output is bit-identical to a direct
/// (uncached) execution.
pub fn execute_with_cache(
    manifest: &Manifest,
    opts: ExecOptions,
    cache: &ResultCache,
) -> Result<(BatchResult, CacheStats), pas_scenario::ManifestError> {
    execute_with_cache_traced(manifest, opts, cache, None, |_, _| {})
}

/// [`execute_with_cache`] plus a `(done, total)` progress callback, fired
/// after every completed point from whichever worker finished it, under
/// an optional trace context: per-point cache probes, stores, and
/// simulations fold into aggregate spans parented under `(trace, parent
/// span)`, filed before this returns. The fold is re-entered *inside*
/// each worker closure so pooled threads inherit the right parent.
/// Tracing is observational only — record bytes are identical either
/// way.
pub fn execute_with_cache_traced(
    manifest: &Manifest,
    opts: ExecOptions,
    cache: &ResultCache,
    trace_ctx: Option<(u64, u64)>,
    on_progress: impl Fn(usize, usize) + Sync,
) -> Result<(BatchResult, CacheStats), pas_scenario::ManifestError> {
    let points = expand(manifest)?;
    let field = manifest.build_field();
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let total = points.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let prefix = KeyPrefix::new(manifest);
    let keys = prefix.cells(&points);
    let series = PointSeries::new(manifest);
    let fold = trace_ctx.map(|(t, p)| Fold::new(t, p));

    let records: Vec<RunRecord> = parallel_map_with(&points, opts.sweep_options(manifest), |pt| {
        let _fold = fold.as_ref().map(Fold::enter);
        let key = keys.key(pt);
        let record = match cache.load(&key) {
            Some(r) => {
                hits.fetch_add(1, Ordering::Relaxed);
                r
            }
            None => {
                let r = execute_point_with(manifest, field.as_ref(), pt, &series);
                // A failed store only costs a future recomputation.
                let _ = cache.store(&key, &r);
                misses.fetch_add(1, Ordering::Relaxed);
                r
            }
        };
        on_progress(done.fetch_add(1, Ordering::Relaxed) + 1, total);
        record
    });
    if let Some(fold) = &fold {
        fold.flush();
    }
    let summaries = reduce(&records);
    Ok((
        BatchResult {
            name: manifest.name.clone(),
            x_label: manifest.x_label(),
            records,
            summaries,
        },
        CacheStats {
            hits: hits.load(Ordering::Relaxed),
            misses: misses.load(Ordering::Relaxed),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_scenario::{execute_point, expand_indices, registry};

    fn small_manifest() -> Manifest {
        let mut m = registry::builtin("paper-default").unwrap();
        m.sweep[0].values = vec![2.0, 8.0].into();
        m.run.replicates = 2;
        m
    }

    #[test]
    fn record_codec_roundtrips_exact_bits() {
        let r = RunRecord {
            x: 0.1 + 0.2,
            policy_label: "PAS=\nweird\\label\r".to_string(),
            seed: u64::MAX,
            assignments: vec![
                ("max_sleep_s".to_string(), AxisValue::Num(f64::MIN_POSITIVE)),
                (
                    "predictor".to_string(),
                    AxisValue::Name("name=with\\escapes\n".to_string()),
                ),
            ],
            delay_s: f64::NAN,
            energy_j: -0.0,
            reached: 30,
            detected: 29,
            missed: 1,
            requests_sent: 7,
            responses_sent: 6,
            events_processed: 12345,
            duration_s: 1e300,
        };
        let back = decode_record(&encode_record(&r)).expect("decodes");
        assert_eq!(back.x.to_bits(), r.x.to_bits());
        assert_eq!(back.policy_label, r.policy_label);
        assert_eq!(back.seed, r.seed);
        assert_eq!(back.assignments[0].0, r.assignments[0].0);
        match (&back.assignments[0].1, &r.assignments[0].1) {
            (AxisValue::Num(a), AxisValue::Num(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            other => panic!("numeric assignment changed shape: {other:?}"),
        }
        assert_eq!(
            back.assignments[1], r.assignments[1],
            "named assignment round-trips through its own escaping"
        );
        assert_eq!(back.delay_s.to_bits(), r.delay_s.to_bits());
        assert_eq!(back.energy_j.to_bits(), r.energy_j.to_bits());
        assert_eq!(back.duration_s.to_bits(), r.duration_s.to_bits());
    }

    #[test]
    fn key_ignores_batch_shape_but_not_physics() {
        let m = small_manifest();
        let pts = expand(&m).unwrap();

        // Same environment, different sweep grid / replicate count /
        // name: identical keys for identical coordinates.
        let mut overlapping = m.clone();
        overlapping.name = "renamed".to_string();
        overlapping.sweep[0].values = vec![8.0, 32.0].into();
        overlapping.run.replicates = 5;
        let pts2 = expand(&overlapping).unwrap();
        let same: Vec<_> = pts2
            .iter()
            .filter(|p| p.x == 8.0 && p.seed <= m.run.base_seed + 1)
            .collect();
        for p2 in same {
            let p1 = pts
                .iter()
                .find(|p| p.x == 8.0 && p.seed == p2.seed && p.policy_label == p2.policy_label)
                .expect("overlapping point exists");
            assert_eq!(
                ResultCache::key(&m, p1),
                ResultCache::key(&overlapping, p2),
                "overlapping coordinates must share a key"
            );
        }

        // Physics changes must change every key.
        let mut hotter = m.clone();
        hotter.run.grace_s += 1.0;
        for (a, b) in pts.iter().zip(expand(&hotter).unwrap().iter()) {
            assert_ne!(ResultCache::key(&m, a), ResultCache::key(&hotter, b));
        }

        // Distinct points within one batch never collide.
        let keys: std::collections::BTreeSet<String> =
            pts.iter().map(|p| ResultCache::key(&m, p)).collect();
        assert_eq!(keys.len(), pts.len());
    }

    #[test]
    fn cell_keys_match_one_point_keys_in_any_order() {
        for name in registry::names() {
            let m = registry::builtin(name).unwrap();
            let prefix = KeyPrefix::new(&m);
            let mut points = expand(&m).unwrap();
            // A fixed shuffle: sort by a multiplicative hash of the index.
            points.sort_by_key(|p| (p.index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let want: Vec<String> = points.iter().map(|p| ResultCache::key(&m, p)).collect();
            let keys = prefix.cells(&points);
            // Two threads key the halves back to front, racing on shared
            // cells.
            let (front, back) = points.split_at(points.len() / 2);
            let keyed = |part: &[RunPoint]| -> Vec<String> {
                let mut out: Vec<String> = part.iter().rev().map(|p| keys.key(p)).collect();
                out.reverse();
                out
            };
            let got = std::thread::scope(|s| {
                let (a, b) = (s.spawn(|| keyed(front)), s.spawn(|| keyed(back)));
                [a.join().unwrap(), b.join().unwrap()].concat()
            });
            assert_eq!(got, want, "{name}: cell keys");
            // A shard's sparse, reversed subset, and a point outside it.
            let total = points.len();
            let indices: Vec<usize> = (0..total).rev().step_by(7).collect();
            let shard = expand_indices(&m, &indices).unwrap();
            let keys = prefix.cells(&shard[1..]);
            for pt in &shard {
                assert_eq!(
                    keys.key(pt),
                    ResultCache::key(&m, pt),
                    "{name}: {}",
                    pt.index
                );
            }
        }
    }

    #[test]
    fn store_load_roundtrip_and_corruption_detection() {
        let dir = std::env::temp_dir().join(format!("pas_cache_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let m = small_manifest();
        let pts = expand(&m).unwrap();
        let field = m.build_field();
        let record = execute_point(&m, field.as_ref(), &pts[0]);
        let key = ResultCache::key(&m, &pts[0]);

        assert!(cache.load(&key).is_none(), "cold cache misses");
        cache.store(&key, &record).unwrap();
        let back = cache.load(&key).expect("stored entry loads");
        assert_eq!(back.delay_s.to_bits(), record.delay_s.to_bits());
        assert_eq!(back.energy_j.to_bits(), record.energy_j.to_bits());
        assert_eq!(cache.len(), 1);

        // Flip one payload byte: the checksum must reject the entry.
        let path = dir.join(format!("{key}.run"));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] = bytes[last].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load(&key).is_none(), "corrupt entry must not load");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
