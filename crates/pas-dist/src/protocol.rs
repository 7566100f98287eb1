//! The worker wire protocol: message types and codecs.
//!
//! Four POST routes carry the whole protocol, layered on the same
//! HTTP/1.1 subset (`pas_server::http`) as the batch API:
//!
//! | Route | Body → Response |
//! |-------|-----------------|
//! | `POST /dist/register` | `{"name","threads"}` → worker id + timing contract |
//! | `POST /dist/heartbeat` | `{"worker"}` → `{"ok","drain"}` (renews all leases) |
//! | `POST /dist/lease` | `{"worker"}` → a [`ShardGrant`], `{"drain":true}`, or `204` |
//! | `POST /dist/report` | a [`ShardReport`] (text) → `{"accepted","duplicates"}` |
//!
//! Control messages are flat JSON read with `pas_obs::json`. Shard
//! reports carry full [`RunRecord`]s, so they reuse the result cache's
//! line-oriented codec ([`pas_server::cache::encode_record`]) — `f64`s as
//! raw bits — and a remotely executed record therefore round-trips
//! **byte-identically** into the server's cache and result assembly.

use pas_obs::json::{self, quote};
use pas_obs::profile::ProfileEntry;
use pas_obs::trace::SpanRecord;
use pas_scenario::RunRecord;
use pas_server::cache::{decode_record, encode_record, escape, unescape};

/// A worker's registration request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    /// Human-readable worker name (shown in `/dist/workers`).
    pub name: String,
    /// Worker-local execution threads (informational).
    pub threads: u64,
}

impl Register {
    /// Encode as the request body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"threads\":{}}}",
            quote(&self.name),
            self.threads
        )
    }

    /// Decode from a request body.
    pub fn from_json(body: &str) -> Option<Register> {
        let j = json::parse(body)?;
        Some(Register {
            name: j.get("name")?.as_str()?,
            threads: j.get("threads").and_then(|v| v.as_u64()).unwrap_or(1),
        })
    }
}

/// The server's answer to a registration: identity + timing contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registered {
    /// Server-assigned worker id.
    pub worker: u64,
    /// How often the worker must heartbeat.
    pub heartbeat_ms: u64,
    /// How long a lease lives between renewals.
    pub lease_ms: u64,
}

impl Registered {
    /// Encode as the response body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"worker\":{},\"heartbeat_ms\":{},\"lease_ms\":{}}}",
            self.worker, self.heartbeat_ms, self.lease_ms
        )
    }

    /// Decode from a response body.
    pub fn from_json(body: &str) -> Option<Registered> {
        let j = json::parse(body)?;
        Some(Registered {
            worker: j.get("worker")?.as_u64()?,
            heartbeat_ms: j.get("heartbeat_ms")?.as_u64()?,
            lease_ms: j.get("lease_ms")?.as_u64()?,
        })
    }
}

/// One leased shard: a job's manifest plus the matrix indices to execute.
///
/// Workers reconstruct each point with `pas_scenario::point_at` — shipping
/// indices instead of points keeps grants a few hundred bytes on top of
/// the manifest and reuses the manifest parser as the single source of
/// matrix truth on both sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardGrant {
    /// Job id the shard belongs to.
    pub job: u64,
    /// Server-unique shard id (fresh per lease, even on re-lease).
    pub shard: u64,
    /// Matrix indices to execute.
    pub indices: Vec<usize>,
    /// The job's manifest, as TOML.
    pub manifest_toml: String,
    /// Trace id of the submitting job, `0` when untraced. Carried so the
    /// worker's spans land in the same tree as the server's.
    pub trace: u64,
    /// The scheduler's lease span id — the worker parents its spans under
    /// it, stitching worker work beneath the lease that granted it.
    pub span: u64,
    /// Whether the scheduler accepts profile stanzas on the report.
    /// [`decode_report`] rejects unknown stanza shapes, so a worker must
    /// only ship its region profile when the grant advertises the
    /// capability — a pre-profile scheduler simply never sets it.
    pub profile: bool,
}

impl ShardGrant {
    /// Encode as the lease response body. The `trace`/`span` fields are
    /// only emitted when a trace rides the grant, so pre-trace decoders
    /// (which ignore unknown keys anyway) see the exact old shape.
    pub fn to_json(&self) -> String {
        let idx: Vec<String> = self.indices.iter().map(|i| i.to_string()).collect();
        let trace = if self.trace != 0 {
            format!("\"trace\":{},\"span\":{},", self.trace, self.span)
        } else {
            String::new()
        };
        // Like `trace`: only emitted when set, so the default grant keeps
        // its historical byte shape.
        let profile = if self.profile {
            "\"profile\":true,"
        } else {
            ""
        };
        format!(
            "{{\"job\":{},\"shard\":{},{}{}\"indices\":[{}],\"manifest\":{}}}",
            self.job,
            self.shard,
            trace,
            profile,
            idx.join(","),
            quote(&self.manifest_toml)
        )
    }

    /// Decode from a lease response body.
    pub fn from_json(body: &str) -> Option<ShardGrant> {
        let j = json::parse(body)?;
        let num = |key: &str| j.get(key).and_then(|v| v.as_u64());
        Some(ShardGrant {
            job: num("job")?,
            shard: num("shard")?,
            indices: j
                .get("indices")?
                .items()
                .map(|i| usize::try_from(i.as_u64()?).ok())
                .collect::<Option<_>>()?,
            manifest_toml: j.get("manifest")?.as_str()?,
            trace: num("trace").unwrap_or(0),
            span: num("span").unwrap_or(0),
            profile: j.get("profile").and_then(|v| v.as_bool()).unwrap_or(false),
        })
    }
}

/// One executed point inside a [`ShardReport`].
#[derive(Debug, Clone)]
pub struct PointReport {
    /// Matrix index of the point.
    pub index: usize,
    /// Content-address of the run (`ResultCache::key`), computed
    /// worker-side and verified server-side before anything is stored.
    pub key: String,
    /// The measured record, bit-exact.
    pub record: RunRecord,
}

/// A completed shard's results.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Job id.
    pub job: u64,
    /// Shard id from the grant.
    pub shard: u64,
    /// Reporting worker.
    pub worker: u64,
    /// One entry per executed point.
    pub points: Vec<PointReport>,
    /// The spans recorded under this shard's lease (the worker's lease
    /// round trip, shard execution and points), piggybacked so the
    /// scheduler can stitch one tree per trace. Empty when the grant
    /// carried no trace id — which is every grant from a pre-trace
    /// scheduler, so old servers never see span stanzas.
    pub spans: Vec<SpanRecord>,
    /// Region-profile entries drained worker-side after this shard,
    /// piggybacked so the scheduler's flamegraph covers the whole fleet.
    /// Empty unless the grant set [`ShardGrant::profile`], so a
    /// pre-profile scheduler never sees profile stanzas.
    pub profile: Vec<ProfileEntry>,
}

/// Stanza separator in the report body. Record codec lines always contain
/// `=`, so a bare `--` line is unambiguous.
const SEP: &str = "--";

/// Encode a report as the line-oriented request body.
pub fn encode_report(report: &ShardReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "job={}", report.job);
    let _ = writeln!(s, "shard={}", report.shard);
    let _ = writeln!(s, "worker={}", report.worker);
    for p in &report.points {
        let _ = writeln!(s, "{SEP}");
        let _ = writeln!(s, "index={}", p.index);
        let _ = writeln!(s, "key={}", p.key);
        s.push_str(&encode_record(&p.record));
    }
    for sp in &report.spans {
        let _ = writeln!(s, "{SEP}");
        let _ = writeln!(s, "span={:016x}", sp.span);
        let _ = writeln!(s, "trace={:016x}", sp.trace);
        let _ = writeln!(s, "parent={:016x}", sp.parent);
        let _ = writeln!(s, "name={}", escape(&sp.name));
        let _ = writeln!(s, "proc={}", escape(&sp.proc));
        let _ = writeln!(s, "start={}", sp.start_us);
        let _ = writeln!(s, "dur={}", sp.dur_us);
        for (k, v) in &sp.labels {
            let _ = writeln!(s, "label={}={}", escape(k), escape(v));
        }
    }
    for e in &report.profile {
        let _ = writeln!(s, "{SEP}");
        let _ = writeln!(s, "prof={}", e.calls);
        let _ = writeln!(s, "total={}", e.total_ns);
        let _ = writeln!(s, "child={}", e.child_ns);
        // The retired wall-clock sampler's count: always 0, kept because
        // earlier schedulers require the line.
        let _ = writeln!(s, "samples=0");
        for frame in &e.stack {
            let _ = writeln!(s, "frame={}", escape(frame));
        }
    }
    s
}

/// Decode one span stanza (first line `span=...`); `None` if malformed.
fn decode_span_stanza(stanza: &[&str]) -> Option<SpanRecord> {
    let hex = |v: &str| u64::from_str_radix(v, 16).ok();
    let mut span = None;
    let mut trace = None;
    let mut parent = None;
    let mut name = None;
    let mut proc = None;
    let mut start = None;
    let mut dur = None;
    let mut labels = Vec::new();
    for line in stanza {
        let (k, v) = line.split_once('=')?;
        match k {
            "span" => span = hex(v),
            "trace" => trace = hex(v),
            "parent" => parent = hex(v),
            "name" => name = Some(unescape(v)?),
            "proc" => proc = Some(unescape(v)?),
            "start" => start = Some(v.parse().ok()?),
            "dur" => dur = Some(v.parse().ok()?),
            "label" => {
                // Escaped `=` is `\e`, so the first literal `=` splits
                // key from value unambiguously.
                let (lk, lv) = v.split_once('=')?;
                labels.push((unescape(lk)?, unescape(lv)?));
            }
            _ => return None,
        }
    }
    Some(SpanRecord {
        trace: trace?,
        span: span?,
        parent: parent?,
        name: name?,
        labels,
        proc: proc?,
        start_us: start?,
        dur_us: dur?,
    })
}

/// Decode one profile stanza (first line `prof=<calls>`); `None` if
/// malformed. A stanza with no `frame=` line is malformed — every entry
/// names at least its leaf region. The `samples=` line must be there and
/// hold a `u64`, as earlier schedulers require, but its value (a count of
/// the retired wall-clock sampler, 0 from every worker) is dropped.
fn decode_profile_stanza(stanza: &[&str]) -> Option<ProfileEntry> {
    let mut calls = None;
    let mut total = None;
    let mut child = None;
    let mut samples = None;
    let mut stack = Vec::new();
    for line in stanza {
        let (k, v) = line.split_once('=')?;
        match k {
            "prof" => calls = Some(v.parse().ok()?),
            "total" => total = Some(v.parse().ok()?),
            "child" => child = Some(v.parse().ok()?),
            "samples" => samples = Some(v.parse::<u64>().ok()?),
            "frame" => stack.push(unescape(v)?),
            _ => return None,
        }
    }
    if stack.is_empty() || samples.is_none() {
        return None;
    }
    Some(ProfileEntry {
        stack,
        calls: calls?,
        total_ns: total?,
        child_ns: child?,
    })
}

/// Decode a report body; `None` on any malformed header or stanza.
/// Stanzas are delimited by lines that are exactly `--` (record codec
/// lines always contain `=`, so the separator cannot be shadowed even by
/// hostile policy labels).
pub fn decode_report(body: &str) -> Option<ShardReport> {
    let mut stanzas: Vec<Vec<&str>> = vec![Vec::new()];
    for line in body.lines() {
        if line == SEP {
            stanzas.push(Vec::new());
        } else {
            stanzas.last_mut().expect("non-empty").push(line);
        }
    }

    let mut job = None;
    let mut shard = None;
    let mut worker = None;
    for line in &stanzas[0] {
        let (k, v) = line.split_once('=')?;
        match k {
            "job" => job = Some(v.parse().ok()?),
            "shard" => shard = Some(v.parse().ok()?),
            "worker" => worker = Some(v.parse().ok()?),
            _ => return None,
        }
    }
    let mut points = Vec::new();
    let mut spans = Vec::new();
    let mut profile = Vec::new();
    for stanza in &stanzas[1..] {
        // A stanza opening with `span=` carries one piggybacked trace
        // span, `prof=` one region-profile entry; anything else is a
        // point report as before.
        if stanza.first().is_some_and(|l| l.starts_with("span=")) {
            spans.push(decode_span_stanza(stanza)?);
            continue;
        }
        if stanza.first().is_some_and(|l| l.starts_with("prof=")) {
            profile.push(decode_profile_stanza(stanza)?);
            continue;
        }
        let mut index = None;
        let mut key = None;
        let mut record_lines = String::new();
        for line in stanza {
            let (k, v) = line.split_once('=')?;
            match k {
                "index" => index = Some(v.parse().ok()?),
                "key" => key = Some(v.to_string()),
                _ => {
                    record_lines.push_str(line);
                    record_lines.push('\n');
                }
            }
        }
        points.push(PointReport {
            index: index?,
            key: key?,
            record: decode_record(&record_lines)?,
        });
    }
    Some(ShardReport {
        job: job?,
        shard: shard?,
        worker: worker?,
        points,
        spans,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(seed: u64) -> RunRecord {
        RunRecord {
            x: 0.1 + 0.2,
            policy_label: "PAS=\nweird\\label".to_string(),
            seed,
            assignments: vec![
                ("max_sleep_s".to_string(), pas_scenario::AxisValue::Num(4.0)),
                (
                    "predictor".to_string(),
                    pas_scenario::AxisValue::Name("kalman".to_string()),
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
        }
    }

    /// A registration with its answer, and an untraced and a traced grant.
    fn control_messages() -> (Register, Registered, ShardGrant, ShardGrant) {
        let reg = Register {
            name: "w\"1\"\\".to_string(),
            threads: 4,
        };
        let ack = Registered {
            worker: 9,
            heartbeat_ms: 1000,
            lease_ms: 10_000,
        };
        let grant = ShardGrant {
            job: 3,
            shard: 17,
            indices: vec![0, 5, 540],
            manifest_toml: "[scenario]\nname = \"x\"\t\r\u{1}é\n".to_string(),
            trace: 0,
            span: 0,
            profile: false,
        };
        let traced = ShardGrant {
            trace: u64::MAX,
            span: 42,
            profile: true,
            ..grant.clone()
        };
        (reg, ack, grant, traced)
    }

    #[test]
    fn control_messages_roundtrip() {
        let (reg, ack, grant, traced) = control_messages();
        assert_eq!(Register::from_json(&reg.to_json()).unwrap(), reg);
        assert_eq!(Registered::from_json(&ack.to_json()).unwrap(), ack);
        let encoded = grant.to_json();
        // Untraced grants are byte-identical to the pre-trace shape.
        assert!(!encoded.contains("trace"));
        assert!(!encoded.contains("profile"));
        assert_eq!(ShardGrant::from_json(&encoded).unwrap(), grant);
        assert_eq!(ShardGrant::from_json(&traced.to_json()).unwrap(), traced);
        let empty = ShardGrant {
            indices: Vec::new(),
            ..grant
        };
        assert_eq!(ShardGrant::from_json(&empty.to_json()).unwrap(), empty);
    }

    /// The control messages' wire bytes, as earlier workers and
    /// schedulers wrote them.
    #[test]
    fn control_messages_keep_their_wire_bytes() {
        let (reg, ack, grant, traced) = control_messages();
        assert_eq!(reg.to_json(), r#"{"name":"w\"1\"\\","threads":4}"#);
        let ack_bytes = r#"{"worker":9,"heartbeat_ms":1000,"lease_ms":10000}"#;
        assert_eq!(ack.to_json(), ack_bytes);
        let tail = r#""indices":[0,5,540],"manifest":"[scenario]\nname = \"x\"\t\r\u0001é\n"}"#;
        assert_eq!(grant.to_json(), format!(r#"{{"job":3,"shard":17,{tail}"#));
        let head = r#"{"job":3,"shard":17,"trace":18446744073709551615,"span":42,"profile":true"#;
        assert_eq!(traced.to_json(), format!("{head},{tail}"));
    }

    /// A shard report's wire bytes, as earlier workers wrote them: every
    /// profile stanza still carries its `samples=0` line.
    #[test]
    fn report_keeps_its_wire_bytes() {
        let table = pas_obs::profile::ProfileTable::with_defaults();
        let path = table.intern_stack(&["worker.shard.execute", "exec.point"]);
        table.record(path.expect("interns"), 4_500_000, 4_000_000);
        let report = ShardReport {
            job: 1,
            shard: 2,
            worker: 3,
            points: vec![PointReport {
                index: 7,
                key: "ab12".to_string(),
                record: sample_record(41),
            }],
            spans: vec![SpanRecord {
                trace: 0x00c0_ffee,
                span: 0x1111,
                parent: 0x2222,
                name: "worker.shard.execute".to_string(),
                labels: vec![("weird".to_string(), "a=b\nc\\d".to_string())],
                proc: "worker:w= 1".to_string(),
                start_us: 1_000_000,
                dur_us: 250,
            }],
            profile: table.snapshot(),
        };
        let body = r"job=1
shard=2
worker=3
--
index=7
key=ab12
x=3fd3333333333334
label=PAS\e\nweird\\label
seed=41
assign=max_sleep_s=4010000000000000
nassign=predictor=kalman
delay=7ff8000000000000
energy=8000000000000000
reached=30
detected=29
missed=1
requests=7
responses=6
events=12345
duration=7e37e43c8800759c
--
span=0000000000001111
trace=0000000000c0ffee
parent=0000000000002222
name=worker.shard.execute
proc=worker:w\e 1
start=1000000
dur=250
label=weird=a\eb\nc\\d
--
prof=1
total=4500000
child=4000000
samples=0
frame=worker.shard.execute
frame=exec.point
";
        assert_eq!(encode_report(&report), body);
    }

    #[test]
    fn report_roundtrips_bit_exact() {
        let report = ShardReport {
            job: 1,
            shard: 2,
            worker: 3,
            points: vec![
                PointReport {
                    index: 7,
                    key: "ab12".to_string(),
                    record: sample_record(41),
                },
                PointReport {
                    index: 9,
                    key: "cd34".to_string(),
                    record: sample_record(42),
                },
            ],
            spans: Vec::new(),
            profile: Vec::new(),
        };
        let back = decode_report(&encode_report(&report)).expect("decodes");
        assert_eq!(back.job, 1);
        assert_eq!(back.shard, 2);
        assert_eq!(back.worker, 3);
        assert_eq!(back.points.len(), 2);
        for (a, b) in back.points.iter().zip(&report.points) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.key, b.key);
            assert_eq!(a.record.delay_s.to_bits(), b.record.delay_s.to_bits());
            assert_eq!(a.record.energy_j.to_bits(), b.record.energy_j.to_bits());
            assert_eq!(a.record.policy_label, b.record.policy_label);
            assert_eq!(a.record.seed, b.record.seed);
        }

        // An empty report (no points) is still well-formed.
        let empty = ShardReport {
            job: 4,
            shard: 5,
            worker: 6,
            points: Vec::new(),
            spans: Vec::new(),
            profile: Vec::new(),
        };
        let back = decode_report(&encode_report(&empty)).expect("decodes");
        assert!(back.points.is_empty());

        // Garbage is rejected, not mis-decoded.
        assert!(decode_report("job=x\n").is_none());
        assert!(decode_report("job=1\nshard=2\nworker=3\n--\nindex=0\n").is_none());
    }

    #[test]
    fn span_stanzas_roundtrip_alongside_points() {
        let report = ShardReport {
            job: 8,
            shard: 9,
            worker: 10,
            points: vec![PointReport {
                index: 0,
                key: "ef56".to_string(),
                record: sample_record(7),
            }],
            spans: vec![
                SpanRecord {
                    trace: 0x00c0_ffee,
                    span: 0x1111,
                    parent: 0x2222,
                    name: "worker.shard.execute".to_string(),
                    labels: vec![
                        ("shard".to_string(), "9".to_string()),
                        // Hostile label values must survive the codec.
                        ("weird".to_string(), "a=b\nc\\d".to_string()),
                    ],
                    proc: "worker:w= 1".to_string(),
                    start_us: 1_000_000,
                    dur_us: 250,
                },
                SpanRecord {
                    trace: 0x00c0_ffee,
                    span: 0x3333,
                    parent: 0x1111,
                    name: "exec.point".to_string(),
                    labels: Vec::new(),
                    proc: "worker:w1".to_string(),
                    start_us: 1_000_050,
                    dur_us: 100,
                },
            ],
            profile: Vec::new(),
        };
        let back = decode_report(&encode_report(&report)).expect("decodes");
        assert_eq!(back.points.len(), 1);
        assert_eq!(back.spans.len(), 2);
        assert_eq!(back.spans, report.spans);

        // A truncated span stanza is rejected, not silently dropped.
        let body = "job=1\nshard=2\nworker=3\n--\nspan=0001\ntrace=0002\n";
        assert!(decode_report(body).is_none());
    }

    #[test]
    fn profile_stanzas_roundtrip_alongside_points() {
        let report = ShardReport {
            job: 11,
            shard: 12,
            worker: 13,
            points: vec![PointReport {
                index: 2,
                key: "9a0b".to_string(),
                record: sample_record(3),
            }],
            spans: Vec::new(),
            profile: vec![
                ProfileEntry {
                    stack: vec!["worker.shard.execute".to_string()],
                    calls: 1,
                    total_ns: 5_000_000,
                    child_ns: 4_500_000,
                },
                ProfileEntry {
                    stack: vec![
                        "worker.shard.execute".to_string(),
                        // Hostile frame names must survive the codec.
                        "weird=frame\nname\\x".to_string(),
                    ],
                    calls: 40,
                    total_ns: 4_500_000,
                    child_ns: 0,
                },
            ],
        };
        let back = decode_report(&encode_report(&report)).expect("decodes");
        assert_eq!(back.points.len(), 1);
        assert_eq!(back.profile, report.profile);

        // The line held a wall-clock sampler's count, and the decoder
        // took any `u64`: it still does, and drops the count.
        let head = "job=1\nshard=2\nworker=3\n--\nprof=1\ntotal=5\nchild=0\n";
        let sampled = decode_report(&format!("{head}samples=7\nframe=a\n")).expect("decodes");
        let want = ProfileEntry {
            stack: vec!["a".to_string()],
            calls: 1,
            total_ns: 5,
            child_ns: 0,
        };
        assert_eq!(sampled.profile, [want]);
        // The line must still be there and numeric, as earlier schedulers
        // require.
        assert!(decode_report(&format!("{head}samples=x\nframe=a\n")).is_none());
        assert!(decode_report(&format!("{head}frame=a\n")).is_none());

        // A frame-less profile stanza is rejected, not silently dropped.
        assert!(decode_report(&format!("{head}samples=0\n")).is_none());
    }
}
