//! End-to-end: a real server on a loopback port, driven by the real
//! client — the same pair `pas serve` / `pas submit` wire up.

use pas_scenario::{execute, registry, ExecOptions};
use pas_server::{Client, ResultCache, ResultFormat, Server, ServerOptions};
use std::time::Duration;

/// Boot a server on an ephemeral port; returns (addr, client, cache dir).
fn boot(tag: &str, opts: ServerOptions) -> (Client, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("pas_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).unwrap();
    let server = Server::bind("127.0.0.1:0", cache, opts).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    (Client::new(addr.to_string()), dir)
}

fn small_manifest_toml() -> (pas_scenario::Manifest, String) {
    let mut m = registry::builtin("paper-default").unwrap();
    m.sweep[0].values = vec![4.0, 12.0].into();
    m.run.replicates = 2;
    (m.clone(), m.to_toml())
}

#[test]
fn submit_poll_results_matches_direct_run_cold_and_warm() {
    let (client, dir) = boot("roundtrip", ServerOptions::default());
    let (manifest, toml) = small_manifest_toml();
    let n = pas_scenario::expand(&manifest).unwrap().len() as u64;

    // The registry is served.
    let scenarios = client.scenarios().unwrap();
    assert!(scenarios.contains("\"paper-default\""));

    // Validation round-trips the run count.
    assert_eq!(client.validate(&toml).unwrap(), n);

    // Cold submission: everything simulates.
    let id = client.submit(&toml).unwrap();
    let done = client.wait(id, Duration::from_millis(25)).unwrap();
    assert_eq!(done.phase, "completed", "error: {:?}", done.error);
    assert_eq!(done.done, n);
    assert_eq!(done.cache_hits, 0);
    assert_eq!(done.cache_misses, n);

    // Served results are byte-identical to a direct local run.
    let direct = execute(&manifest, ExecOptions { threads: 1 }).unwrap();
    let expected_csv = pas_scenario::summary_csv(&direct).render();
    let expected_jsonl = pas_scenario::sink::records_jsonl(&direct);
    let cold_csv = client.results(id, ResultFormat::Csv).unwrap();
    assert_eq!(String::from_utf8(cold_csv).unwrap(), expected_csv);
    let cold_jsonl = client.results(id, ResultFormat::Jsonl).unwrap();
    assert_eq!(String::from_utf8(cold_jsonl).unwrap(), expected_jsonl);

    // Warm resubmission: zero simulations, identical bytes.
    let id2 = client.submit(&toml).unwrap();
    let done2 = client.wait(id2, Duration::from_millis(25)).unwrap();
    assert_eq!(done2.phase, "completed");
    assert_eq!(done2.cache_hits, n, "warm job must be answered from cache");
    assert_eq!(done2.cache_misses, 0, "warm job must not re-simulate");
    let warm_csv = client.results(id2, ResultFormat::Csv).unwrap();
    assert_eq!(String::from_utf8(warm_csv).unwrap(), expected_csv);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn api_rejects_bad_input_and_unknown_jobs() {
    let (client, dir) = boot("errors", ServerOptions::default());

    // Invalid manifests answer 400 with the parse error.
    let err = client.validate("not toml at all [").unwrap_err();
    match err {
        pas_server::ClientError::Api(400, _) => {}
        other => panic!("expected 400, got {other}"),
    }
    let err = client
        .validate("[scenario]\nname = \"x\"\ntypo_section = 1")
        .unwrap_err();
    match err {
        pas_server::ClientError::Api(400, msg) => {
            assert!(msg.contains("typo_section"), "{msg}")
        }
        other => panic!("expected 400, got {other}"),
    }

    // A tiny body whose matrix is astronomically large is rejected up
    // front (the size check runs before anything is materialised).
    let mut huge = registry::builtin("paper-default").unwrap();
    huge.run.replicates = 1_000_000_000_000;
    let err = client.validate(&huge.to_toml()).unwrap_err();
    match err {
        pas_server::ClientError::Api(400, msg) => {
            assert!(msg.contains("runs"), "{msg}")
        }
        other => panic!("expected 400, got {other}"),
    }

    // A time field the runner cannot turn into a `SimTime` is refused at
    // submission, before it can reach (and kill) a queue worker.
    let mut negative = registry::builtin("paper-default").unwrap();
    negative.run.grace_s = -1000.0;
    match client.submit(&negative.to_toml()).unwrap_err() {
        pas_server::ClientError::Api(400, msg) => assert!(msg.contains("grace_s"), "{msg}"),
        other => panic!("expected 400, got {other}"),
    }

    // So is an adaptive parameter past f64's range, sent as raw text: it
    // reads as +inf, which no event can be scheduled at.
    let infinite = registry::raw("paper-default").unwrap().replace(
        "alert_threshold_s = 15.0",
        "alert_threshold_s = 15.0\nresponse_window_s = 1e309",
    );
    match client.submit(&infinite).unwrap_err() {
        pas_server::ClientError::Api(400, msg) => {
            assert!(msg.contains("response_window_s"), "{msg}")
        }
        other => panic!("expected 400, got {other}"),
    }

    // Unknown jobs are 404; results of unfinished jobs are 409.
    match client.status(999).unwrap_err() {
        pas_server::ClientError::Api(404, _) => {}
        other => panic!("expected 404, got {other}"),
    }
    match client.results(999, ResultFormat::Csv).unwrap_err() {
        pas_server::ClientError::Api(404, _) => {}
        other => panic!("expected 404, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_answers_429() {
    // The one queue worker: hold it busy with a slow-ish job, then
    // overfill a capacity-1 queue.
    let (client, dir) = boot(
        "backpressure",
        ServerOptions {
            threads: 1,
            queue_capacity: 1,
            ..ServerOptions::default()
        },
    );
    let (_, toml) = small_manifest_toml();
    // First job: picked up by the worker. Second: sits in the queue.
    // (Timing-tolerant: even if the first finishes instantly, the queue
    // drains and later submissions succeed — so push until we see 429 or
    // give up after a bound.)
    let mut saw_429 = false;
    for _ in 0..50 {
        match client.submit(&toml) {
            Ok(_) => {}
            Err(pas_server::ClientError::Api(429, _)) => {
                saw_429 = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(saw_429, "a capacity-1 queue must eventually push back");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Observability surface: the built-in `/healthz`, the gated
/// `/metrics` exposition, and the `/jobs/:id/events` SSE stream — all
/// while served results stay byte-identical to a direct run.
#[test]
fn healthz_metrics_and_sse_events() {
    use std::io::{Read as _, Write as _};

    let (client, dir) = boot(
        "obs",
        ServerOptions {
            metrics: true,
            ..ServerOptions::default()
        },
    );
    let (manifest, toml) = small_manifest_toml();
    let n = pas_scenario::expand(&manifest).unwrap().len() as u64;

    // Built-in liveness: version/uptime/queue/mode, no dist router needed.
    let health = client.healthz().unwrap();
    for field in [
        "\"ok\":true",
        "\"version\":",
        "\"uptime_s\":",
        "\"queue_depth\":",
        "\"mode\":\"local\"",
    ] {
        assert!(health.contains(field), "healthz missing {field}: {health}");
    }

    // A larger job ahead of ours in the one-worker queue keeps ours from
    // finishing before its stream attaches: a finished job gets only the
    // `done` frame, and 12 points can finish within the connect.
    let ahead = registry::builtin("paper-default").unwrap().to_toml();
    client.submit(&ahead).unwrap();
    let id = client.submit(&toml).unwrap();

    // Stream the job's events over raw HTTP: chunked SSE, phase +
    // progress events, terminated by `done` when the job completes.
    let mut stream = std::net::TcpStream::connect(client.addr()).unwrap();
    write!(
        stream,
        "GET /jobs/{id}/events HTTP/1.1\r\nHost: pas\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.contains("Content-Type: text/event-stream"), "{raw}");
    assert!(raw.contains("Transfer-Encoding: chunked"), "{raw}");
    assert!(raw.contains("event: phase"), "no phase event: {raw}");
    assert!(raw.contains("event: done"), "no done event: {raw}");
    assert!(
        raw.contains(&format!("\"done\":{n}")),
        "final event must carry full progress: {raw}"
    );
    assert!(raw.ends_with("0\r\n\r\n"), "stream must terminate cleanly");

    let done = client.wait(id, Duration::from_millis(25)).unwrap();
    assert_eq!(done.phase, "completed");

    // Unknown jobs get a plain 404, not a stream.
    let mut stream = std::net::TcpStream::connect(client.addr()).unwrap();
    write!(
        stream,
        "GET /jobs/999/events HTTP/1.1\r\nHost: pas\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");

    // The exposition covers every instrumented family with labels, and
    // two scrapes are mutually consistent (counters monotone).
    let text = client.metrics().unwrap();
    for series in [
        "# TYPE pas_server_http_requests_count counter",
        "# TYPE pas_server_http_latency_microseconds histogram",
        "pas_server_http_requests_count{method=\"POST\",route=\"/jobs\",status=\"202\"}",
        "pas_queue_submit_count{outcome=\"accepted\"}",
        "pas_queue_depth_jobs",
        "pas_queue_wait_microseconds_count",
        "pas_cache_lookup_count{outcome=\"miss\"}",
        "pas_cache_store_count",
        "pas_exec_points_count{policy=\"NS\",predictor=\"none\",scenario=\"paper-default\"}",
        "pas_exec_point_microseconds_bucket",
        "pas_server_sse_streams_count",
    ] {
        assert!(
            text.contains(series),
            "metrics missing {series}\n---\n{text}"
        );
    }
    let text2 = client.metrics().unwrap();
    let get = |t: &str, needle: &str| -> u64 {
        t.lines()
            .find(|l| l.starts_with(needle))
            .and_then(|l| l.rsplit(' ').next().unwrap().parse().ok())
            .unwrap_or(0)
    };
    let k = "pas_queue_submit_count{outcome=\"accepted\"}";
    assert!(get(&text2, k) >= get(&text, k), "counters must be monotone");

    // Metrics on, results still byte-identical to a direct local run.
    let direct = execute(&manifest, ExecOptions { threads: 1 }).unwrap();
    let expected_csv = pas_scenario::summary_csv(&direct).render();
    let csv = client.results(id, ResultFormat::Csv).unwrap();
    assert_eq!(String::from_utf8(csv).unwrap(), expected_csv);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Observability exposition is opt-in: without `--metrics` the routes
/// answer an actionable `403` naming the flag to restart with — not a
/// misleading 404, not a hang, not an empty body.
#[test]
fn metrics_endpoints_are_gated_with_guidance() {
    let (client, dir) = boot("obs_gated", ServerOptions::default());
    match client.metrics().unwrap_err() {
        pas_server::ClientError::Api(403, msg) => {
            assert!(msg.contains("pas serve --metrics"), "actionable: {msg}")
        }
        other => panic!("expected 403, got {other}"),
    }
    match client
        .metrics_history(pas_server::HistoryFormat::Json)
        .unwrap_err()
    {
        pas_server::ClientError::Api(403, msg) => {
            assert!(msg.contains("pas serve --metrics"), "actionable: {msg}")
        }
        other => panic!("expected 403, got {other}"),
    }
    // Truly unknown routes still 404 — the 403 arm must not swallow them.
    match client.status(9999).unwrap_err() {
        pas_server::ClientError::Api(404, _) => {}
        other => panic!("expected 404, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With `--metrics`, `/metrics/history` serves the sampled time series
/// in both negotiated formats, and the JSON parses with the shipped
/// client-side parser.
#[test]
fn metrics_history_serves_sampled_series() {
    let (client, dir) = boot(
        "obs_history",
        ServerOptions {
            metrics: true,
            history_interval: Duration::from_millis(25),
            history_retention: 64,
            ..ServerOptions::default()
        },
    );
    let (_, toml) = small_manifest_toml();
    let id = client.submit(&toml).unwrap();
    let done = client.wait(id, Duration::from_millis(25)).unwrap();
    assert_eq!(done.phase, "completed");
    // Poll until the sampler has two windows over the post-job registry.
    // (The active sampler slot is process-global; a concurrently booted
    // metrics-enabled test server may own it with a slower interval, so
    // the deadline is generous and the interval is not asserted.)
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let subs = loop {
        let json = client
            .metrics_history(pas_server::HistoryFormat::Json)
            .unwrap();
        let dump = pas_obs::history::parse_dump(std::str::from_utf8(&json).unwrap())
            .expect("history JSON parses");
        if let Some(s) = dump
            .named("pas.queue.submit.count")
            .find(|s| s.t_ms.len() >= 2)
        {
            break s.clone();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "submit counter never reached two samples"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(subs.values.last().copied().unwrap_or(0.0) >= 1.0);
    assert!(subs.rates.iter().all(|r| *r >= 0.0));
    let svg = client
        .metrics_history(pas_server::HistoryFormat::Svg)
        .unwrap();
    let svg = String::from_utf8(svg).unwrap();
    assert!(svg.starts_with("<svg") && svg.contains("pas.queue.submit.count"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /jobs/:id/report`: every negotiated format is byte-identical
/// to the report `pas report` computes locally on the same batch —
/// cold or warm cache, any thread count — because both paths render
/// through `pas-report`'s canonical reduction.
#[test]
fn served_report_matches_local_report_cold_and_warm() {
    use pas_server::ReportFormat;

    let (client, dir) = boot("report", ServerOptions::default());
    let (manifest, toml) = small_manifest_toml();

    // The local reference, from a sequential direct execution.
    let direct = execute(&manifest, ExecOptions { threads: 1 }).unwrap();
    let report =
        pas_report::Report::from_batch(&direct, &pas_report::ReportOptions::default()).unwrap();
    let expected_md = pas_report::render_md(&report);
    let expected_json = pas_report::render_json(&report);
    let expected_svg = pas_report::render_svg(&report);
    assert!(
        expected_md.contains("PAS − SAS (paired by seed)"),
        "paper-default auto-compares PAS vs SAS"
    );

    // Cold job: simulated on the server's own (parallel) workers.
    let id = client.submit(&toml).unwrap();
    let done = client.wait(id, Duration::from_millis(25)).unwrap();
    assert_eq!(done.phase, "completed", "error: {:?}", done.error);
    let md = client.report(id, ReportFormat::Markdown).unwrap();
    assert_eq!(String::from_utf8(md).unwrap(), expected_md);
    let json = client.report(id, ReportFormat::Json).unwrap();
    assert_eq!(String::from_utf8(json).unwrap(), expected_json);
    let svg = client.report(id, ReportFormat::Svg).unwrap();
    assert_eq!(String::from_utf8(svg).unwrap(), expected_svg);

    // Warm resubmission: answered from cache, identical report bytes.
    let id2 = client.submit(&toml).unwrap();
    let done2 = client.wait(id2, Duration::from_millis(25)).unwrap();
    assert_eq!(done2.phase, "completed");
    assert_eq!(done2.cache_misses, 0, "warm job must not re-simulate");
    let warm_md = client.report(id2, ReportFormat::Markdown).unwrap();
    assert_eq!(String::from_utf8(warm_md).unwrap(), expected_md);

    // Unknown jobs answer 404, incomplete jobs never 200.
    match client.report(999, ReportFormat::Markdown).unwrap_err() {
        pas_server::ClientError::Api(404, _) => {}
        other => panic!("expected 404, got {other}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// SSE edge cases that must never hang a client: an unknown job id
/// answers a plain 404 before any streaming starts, and a job that
/// already finished gets exactly one immediate `done` frame — no
/// initial `phase` echo, no heartbeat wait — and a clean close.
#[test]
fn sse_unknown_job_404s_and_finished_job_gets_immediate_done() {
    use std::io::{Read as _, Write as _};

    let (client, dir) = boot("sse_edge", ServerOptions::default());
    let (_, toml) = small_manifest_toml();

    // Unknown id: a plain 404 response, not an event stream.
    let mut stream = std::net::TcpStream::connect(client.addr()).unwrap();
    write!(
        stream,
        "GET /jobs/424242/events HTTP/1.1\r\nHost: pas\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
    assert!(
        !raw.contains("text/event-stream"),
        "404 must not open a stream: {raw}"
    );

    // Run a job to completion *before* subscribing.
    let id = client.submit(&toml).unwrap();
    let done = client.wait(id, Duration::from_millis(25)).unwrap();
    assert_eq!(done.phase, "completed");

    // The late subscriber sees one `done` frame, immediately: well under
    // the 1s heartbeat cadence, so a hang would trip the deadline.
    let t0 = std::time::Instant::now();
    let mut stream = std::net::TcpStream::connect(client.addr()).unwrap();
    write!(
        stream,
        "GET /jobs/{id}/events HTTP/1.1\r\nHost: pas\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "finished job must answer immediately, took {:?}",
        t0.elapsed()
    );
    assert!(raw.contains("Content-Type: text/event-stream"), "{raw}");
    assert_eq!(raw.matches("event: done").count(), 1, "{raw}");
    assert_eq!(
        raw.matches("event: phase").count(),
        0,
        "no phase echo for a finished job: {raw}"
    );
    assert!(!raw.contains(": hb"), "no heartbeat wait: {raw}");
    assert!(raw.ends_with("0\r\n\r\n"), "clean chunked close: {raw}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /jobs/:id/trace`: submit with an explicit trace id, then fetch
/// the stitched span tree in all three negotiated formats. Local-exec
/// jobs produce `job` → `job.queued` + `job.execute` → one aggregate per
/// point seam (`cache.probe`, `exec.point`, `cache.store`) counting every
/// point; the critical path charges each aggregate all its points.
#[test]
fn trace_endpoint_negotiates_all_three_formats() {
    use pas_server::TraceFormat;

    let (client, dir) = boot(
        "trace",
        ServerOptions {
            metrics: true,
            ..ServerOptions::default()
        },
    );
    let (manifest, toml) = small_manifest_toml();
    let n = pas_scenario::expand(&manifest).unwrap().len();
    let trace_id = pas_obs::trace::mint_id();
    let (id, trace) = client.submit_traced(&toml, trace_id).unwrap();
    assert_eq!(trace, trace_id, "server must adopt the client's trace id");
    let done = client.wait(id, Duration::from_millis(25)).unwrap();
    assert_eq!(done.phase, "completed");
    assert_eq!(
        done.trace.as_deref(),
        Some(format!("{trace_id:016x}").as_str()),
        "status carries the trace id"
    );

    let chrome = String::from_utf8(client.trace(id, TraceFormat::Chrome).unwrap()).unwrap();
    assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
    for needle in [
        "\"ph\":\"X\"",
        "\"name\":\"job\"",
        "\"name\":\"job.execute\"",
        "\"otherData\":{\"spans_evicted\":0}",
    ] {
        assert!(chrome.contains(needle), "chrome missing {needle}: {chrome}");
    }

    let tree = String::from_utf8(client.trace(id, TraceFormat::Tree).unwrap()).unwrap();
    assert!(
        tree.starts_with("job "),
        "a complete trace has no partial line: {tree}"
    );
    assert!(tree.contains("\n  job.execute "), "{tree}");
    for aggregate in [
        "\n    cache.probe ",
        "\n    exec.point ",
        "\n    cache.store ",
    ] {
        let line = tree
            .split(aggregate)
            .nth(1)
            .map(|l| l.lines().next().unwrap());
        let line = line.unwrap_or_else(|| panic!("no{aggregate} aggregate: {tree}"));
        assert!(line.contains(&format!(" points={n} ")), "{line}");
    }
    assert!(
        tree.contains("\n      exec.point "),
        "exemplars nest: {tree}"
    );

    let cp = String::from_utf8(client.trace(id, TraceFormat::CriticalPath).unwrap()).unwrap();
    assert!(cp.contains("critical path"), "{cp}");
    assert!(cp.contains('%'), "{cp}");
    assert!(
        cp.contains(&format!("(n={n})")),
        "aggregates count their points: {cp}"
    );

    // Unknown jobs 404 here like everywhere else.
    match client.trace(999, TraceFormat::Chrome).unwrap_err() {
        pas_server::ClientError::Api(404, _) => {}
        other => panic!("expected 404, got {other}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The trace endpoint is exposition, so it is gated with `/metrics`;
/// collection still runs, it is only the route that refuses (with the
/// same actionable 403 the other observability routes use).
#[test]
fn trace_endpoint_is_gated_with_metrics() {
    use pas_server::TraceFormat;

    let (client, dir) = boot("trace_gated", ServerOptions::default());
    let (_, toml) = small_manifest_toml();
    let id = client.submit(&toml).unwrap();
    client.wait(id, Duration::from_millis(25)).unwrap();
    match client.trace(id, TraceFormat::Chrome).unwrap_err() {
        pas_server::ClientError::Api(403, msg) => {
            assert!(msg.contains("pas serve --metrics"), "actionable: {msg}")
        }
        other => panic!("expected 403, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
