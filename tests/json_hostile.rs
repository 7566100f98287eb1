//! Hostile input for the one JSON decoder, `pas_obs::json`, and the
//! typed decoders built on it: a seeded mutation fuzzer over bodies from
//! every JSON writer. Tier-1 runs a small budget; CI runs the ignored
//! long one with `cargo test --release --test json_hostile -- --ignored`.

use fuzz::Rng;
use pas_bench::BenchHistory;
use pas_dist::{Register, Registered, Scheduler, SchedulerOptions, ShardGrant};
use pas_obs::json::{parse, quote, Json};
use pas_server::{
    Client, HistoryFormat, ProfileFormat, ReportFormat, ResultCache, ResultFormat, Server,
    ServerOptions, TraceFormat,
};
use std::time::Duration;

mod fuzz;

/// Free text as a hostile worker or operator would pick it.
const NASTY: &str = "w\"1\\}{,:[\u{1}\r\n\té🦀";

/// One body from each JSON writer, most of them served by a live server
/// that ran a one-point job named and labelled with hostile text.
fn corpus() -> Vec<(&'static str, String)> {
    let mut m = pas_scenario::registry::builtin("paper-default").expect("builtin");
    // The manifest's TOML writer does not escape U+0001, so its text
    // leaves that one out.
    m.name = NASTY.replace('\u{1}', "");
    m.policies[0].label = m.name.clone();
    m.sweep[0].values = vec![4.0].into();
    m.run.replicates = 1;
    let dir = std::env::temp_dir().join(format!("pas_json_hostile_{}", std::process::id()));
    let cache = ResultCache::open(&dir).expect("cache opens");
    let opts = ServerOptions {
        metrics: true,
        ..ServerOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", cache.clone(), opts).expect("binds");
    let client = Client::new(server.local_addr().expect("bound").to_string());
    let sched = Scheduler::new(server.queue(), cache, SchedulerOptions::default());
    std::thread::spawn(move || server.run());
    let id = client.submit(&m.to_toml()).expect("submits");
    let poll = Duration::from_millis(5);
    client.wait(id, poll).expect("completes");
    let text = |body: Result<Vec<u8>, _>| String::from_utf8(body.expect("served")).expect("utf-8");
    let mut stream = std::net::TcpStream::connect(client.addr()).expect("connects");
    let path = format!("/jobs/{id}");
    let (_, _, status) =
        pas_server::http::roundtrip(&mut stream, "GET", &path, None, b"").expect("status answers");
    let jsonl = text(client.results(id, ResultFormat::Jsonl));
    let row = jsonl.lines().next().expect("a row");
    let _ = std::fs::remove_dir_all(&dir);

    let grant = ShardGrant {
        job: 3,
        shard: u64::MAX,
        indices: vec![0, 1, 2],
        manifest_toml: m.to_toml(),
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
    let reg = Register {
        name: NASTY.to_string(),
        threads: 2,
    };
    let ack = sched.register(&reg).to_json();
    // A committed history renders back byte for byte, then once more with
    // a hostile scenario name.
    let committed = include_str!("../BENCH_batch.json");
    let mut bench = BenchHistory::parse(committed).expect("committed history parses");
    assert_eq!(bench.render(), committed);
    bench.scenario = NASTY.to_string();
    vec![
        ("grant", grant.to_json()),
        ("traced grant", traced.to_json()),
        ("register", reg.to_json()),
        ("registered", ack),
        ("job status", String::from_utf8(status).expect("utf-8")),
        ("healthz", sched.healthz_json()),
        ("workers", sched.workers_json()),
        ("history", text(client.metrics_history(HistoryFormat::Json))),
        ("chrome", text(client.trace(id, TraceFormat::Chrome))),
        ("profile", text(client.profile(ProfileFormat::Json, None))),
        ("report", text(client.report(id, ReportFormat::Json))),
        ("record row", row.to_string()),
        ("bench history", bench.render()),
    ]
}

/// Every accessor over every value of a parsed document.
fn walk(j: Json) {
    let _ = (j.raw(), j.as_u64(), j.as_f64(), j.as_bool(), j.as_str());
    j.items().for_each(walk);
    j.members().for_each(|(_, v)| walk(v));
}

/// The decoder and every typed decoder over `text`.
fn decode_all(text: &str) {
    parse(text).into_iter().for_each(walk);
    let _ = ShardGrant::from_json(text);
    let _ = Register::from_json(text);
    let _ = Registered::from_json(text);
    let _ = pas_obs::history::parse_dump(text);
    let _ = pas_report::parse_records_jsonl(text);
    let _ = BenchHistory::parse(text);
}

/// Bytes JSON gives meaning to, so flips change structure.
const SYNTAX: &[u8] = b"{}[]\",:\\-+.eE09tfnu \n\x00\xff";

fn fuzz_corpus(rounds: usize) {
    let corpus = corpus();
    for (name, body) in &corpus {
        assert!(parse(body).is_some(), "{name} wrote invalid JSON:\n{body}");
    }
    fuzz::run(&corpus, rounds, SYNTAX, decode_all);
}

#[test]
fn mutations_never_panic() {
    fuzz_corpus(300);
}

#[test]
#[ignore = "the larger budget, for CI in release"]
fn mutations_never_panic_long() {
    fuzz_corpus(100_000);
}

#[test]
fn deep_nesting_is_refused_without_recursing() {
    let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    assert_eq!(parse(&deep), None);
    decode_all(&deep);
}

#[test]
fn quote_then_parse_returns_every_string() {
    let others = "\"\\/a \u{7f}é\u{2028}\u{ffff}🦀\u{10000}\u{10ffff}".chars();
    let alphabet: Vec<char> = ('\0'..' ').chain(others).collect();
    let mut rng = Rng(0x0bad_5eed);
    let mut cases: Vec<String> = alphabet.iter().map(char::to_string).collect();
    for _ in 0..2_000 {
        let len = rng.below(24);
        let case = (0..len).map(|_| alphabet[rng.below(alphabet.len())]);
        cases.push(case.collect());
    }
    for s in cases {
        assert_eq!(parse(&quote(&s)).and_then(|j| j.as_str()), Some(s));
    }
}
