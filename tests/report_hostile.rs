//! Hostile input for the shard-report codec, `pas_dist::decode_report`:
//! a seeded mutation fuzzer over `encode_report` bodies with hostile
//! labels, odd floats, span and profile stanzas, and an empty report.
//! Tier-1 runs a small budget; CI runs the ignored long one with
//! `cargo test --release --test report_hostile -- --ignored`.

use pas_dist::protocol::{decode_report, encode_report, PointReport, ShardReport};
use pas_obs::profile::ProfileEntry;
use pas_obs::trace::SpanRecord;
use pas_scenario::{execute_point, point_at, registry, AxisValue, RunRecord};

mod fuzz;

/// Free text as a hostile worker would pick it: the codec's separators
/// and escapes, control bytes, and text that is not ASCII.
const NASTY: &str = "w=\\e\\n\\\n\r--\n=\u{1}\té🦀\u{2028}";

/// Bytes the report codec gives meaning to, so flips change structure.
const SYNTAX: &[u8] = b"=\n-\\enr09afx+ \r\x00\xff";

/// One record per odd float: NaN, −0.0, subnormals, infinities.
fn hostile_records() -> Vec<RunRecord> {
    let odd = [
        f64::NAN,
        -0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    odd.iter()
        .enumerate()
        .map(|(i, &v)| RunRecord {
            x: v,
            policy_label: NASTY.to_string(),
            seed: u64::MAX - i as u64,
            assignments: vec![
                (NASTY.to_string(), AxisValue::Num(v)),
                ("predictor".to_string(), AxisValue::Name(NASTY.to_string())),
            ],
            delay_s: v,
            energy_j: -v,
            reached: i,
            detected: 0,
            missed: usize::MAX,
            requests_sent: 0,
            responses_sent: 1,
            events_processed: u64::MAX,
            duration_s: v,
        })
        .collect()
}

/// The first points of two registry scenarios, as a worker runs them (one
/// of them under a named `predictor` assignment).
fn executed_records() -> Vec<RunRecord> {
    ["paper-default", "predictor-shootout"]
        .iter()
        .map(|name| {
            let m = registry::builtin(name).expect("builtin");
            let pt = point_at(&m, 0).expect("first point");
            execute_point(&m, &*m.build_field(), &pt)
        })
        .collect()
}

fn span(span: u64, parent: u64, name: &str) -> SpanRecord {
    SpanRecord {
        trace: u64::MAX,
        span,
        parent,
        name: name.to_string(),
        labels: vec![
            (NASTY.to_string(), NASTY.to_string()),
            (String::new(), String::new()),
        ],
        proc: format!("worker:{NASTY}"),
        start_us: u64::MAX,
        dur_us: 0,
    }
}

fn profile(stack: &[&str], calls: u64) -> ProfileEntry {
    ProfileEntry {
        stack: stack.iter().map(|s| s.to_string()).collect(),
        calls,
        total_ns: u64::MAX,
        child_ns: calls,
    }
}

/// One body per report shape.
fn corpus() -> Vec<(&'static str, String)> {
    let points = |records: Vec<RunRecord>| -> Vec<PointReport> {
        records
            .into_iter()
            .enumerate()
            .map(|(index, record)| PointReport {
                index,
                key: format!("{:064x}", index + 1),
                record,
            })
            .collect()
    };
    let report = |points, spans, profile| ShardReport {
        job: 1,
        shard: u64::MAX,
        worker: 3,
        points,
        spans,
        profile,
    };
    let spans = vec![
        span(1, 0, "worker.shard.execute"),
        span(2, 1, NASTY),
        span(u64::MAX, 2, ""),
    ];
    let profile = vec![
        profile(&["worker.shard.execute"], 1),
        profile(&["worker.shard.execute", NASTY], 40),
        profile(&[""], 0),
    ];
    let executed = executed_records();
    [
        ("empty", report(Vec::new(), Vec::new(), Vec::new())),
        (
            "hostile points",
            report(points(hostile_records()), Vec::new(), Vec::new()),
        ),
        (
            "executed points",
            report(points(executed.clone()), Vec::new(), Vec::new()),
        ),
        ("spans", report(Vec::new(), spans.clone(), Vec::new())),
        ("profile", report(Vec::new(), Vec::new(), profile.clone())),
        ("everything", report(points(executed), spans, profile)),
    ]
    .into_iter()
    .map(|(name, r)| (name, encode_report(&r)))
    .collect()
}

/// A body that decodes re-encodes to a body that decodes and re-encodes
/// to the same bytes: the codec has one canonical form.
fn decode_is_canonical(text: &str) {
    if let Some(report) = decode_report(text) {
        let once = encode_report(&report);
        let again = decode_report(&once).map(|r| encode_report(&r));
        assert_eq!(again.as_deref(), Some(once.as_str()), "from {text:?}");
    }
}

#[test]
fn unmutated_bodies_reencode_byte_for_byte() {
    for (name, body) in corpus() {
        let back = decode_report(&body).unwrap_or_else(|| panic!("{name} does not decode"));
        assert_eq!(encode_report(&back), body, "{name} re-encodes differently");
    }
}

#[test]
fn mutations_never_panic() {
    fuzz::run(&corpus(), 300, SYNTAX, decode_is_canonical);
}

#[test]
#[ignore = "the larger budget, for CI in release"]
fn mutations_never_panic_long() {
    fuzz::run(&corpus(), 100_000, SYNTAX, decode_is_canonical);
}
