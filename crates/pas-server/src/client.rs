//! A blocking client for the batch API — the engine behind `pas submit`.
//!
//! Speaks the same [`crate::http`] subset as the server: one request per
//! connection, `Content-Length` bodies. Every method is a thin, typed
//! wrapper over one route.

use crate::http::roundtrip_with;
use pas_obs::json;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Result format for [`Client::results`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultFormat {
    /// Per-point summary CSV (`text/csv`) — byte-identical to
    /// `pas run --out`.
    Csv,
    /// Per-run JSONL (`application/x-ndjson`) — byte-identical to
    /// `pas run --raw`.
    Jsonl,
}

/// Report format for [`Client::report`] (`GET /jobs/:id/report`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Markdown tables (`text/markdown`) — byte-identical to
    /// `pas report`.
    Markdown,
    /// `report.json` (`application/json`).
    Json,
    /// Delay/energy curves (`image/svg+xml`).
    Svg,
}

impl ReportFormat {
    /// The `Accept` value selecting this format.
    pub fn accept(&self) -> &'static str {
        match self {
            ReportFormat::Markdown => "text/markdown",
            ReportFormat::Json => "application/json",
            ReportFormat::Svg => "image/svg+xml",
        }
    }
}

/// Trace format for [`Client::trace`] (`GET /jobs/:id/trace`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (`application/json`) — load in
    /// `chrome://tracing` or Perfetto.
    Chrome,
    /// Indented span tree (`text/plain`), deterministic for diffing.
    Tree,
    /// Per-name self-time ranking (`text/x-pas-critical-path`).
    CriticalPath,
}

impl TraceFormat {
    /// The `Accept` value selecting this format.
    pub fn accept(&self) -> &'static str {
        match self {
            TraceFormat::Chrome => "application/json",
            TraceFormat::Tree => "text/plain",
            TraceFormat::CriticalPath => "text/x-pas-critical-path",
        }
    }
}

/// Profile format for [`Client::profile`] (`GET /profile`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileFormat {
    /// Folded-stack text (`text/plain`), one `a;b;c self_us` line per
    /// unique stack — the interchange format flamegraph tools consume.
    Folded,
    /// Self-contained SVG flamegraph (`image/svg+xml`).
    Svg,
    /// Per-path JSON (`application/json`).
    Json,
}

impl ProfileFormat {
    /// The `Accept` value selecting this format.
    pub fn accept(&self) -> &'static str {
        match self {
            ProfileFormat::Folded => "text/plain",
            ProfileFormat::Svg => "image/svg+xml",
            ProfileFormat::Json => "application/json",
        }
    }
}

/// History format for [`Client::metrics_history`] (`GET /metrics/history`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryFormat {
    /// The sampled ring dump (`application/json`) — parse with
    /// `pas_obs::history::parse_dump`.
    Json,
    /// Self-contained SVG sparkline board (`image/svg+xml`).
    Svg,
}

impl HistoryFormat {
    /// The `Accept` value selecting this format.
    pub fn accept(&self) -> &'static str {
        match self {
            HistoryFormat::Json => "application/json",
            HistoryFormat::Svg => "image/svg+xml",
        }
    }
}

/// Progress snapshot of a submitted job, decoded from `GET /jobs/:id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// `queued`, `running`, `completed`, or `failed`.
    pub phase: String,
    /// Points finished.
    pub done: u64,
    /// Points total.
    pub total: u64,
    /// Runs answered from the result cache.
    pub cache_hits: u64,
    /// Runs simulated.
    pub cache_misses: u64,
    /// Failure message, when `phase == "failed"`.
    pub error: Option<String>,
    /// Trace id (16 hex digits) tying this job's spans together; absent
    /// when talking to a pre-trace server.
    pub trace: Option<String>,
}

/// Errors surfaced to the CLI.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// Non-success HTTP status; carries the server's message.
    Api(u16, String),
    /// The server answered 200 with a body we could not decode.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection: {e}"),
            ClientError::Api(status, msg) => write!(f, "server ({status}): {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// The error for a non-success answer: the message of the server's
    /// `{"error": "..."}` body, or the raw body when it has none.
    pub fn api(status: u16, body: &[u8]) -> ClientError {
        let text = String::from_utf8_lossy(body);
        let msg = json::parse(&text).and_then(|j| j.get("error")?.as_str());
        ClientError::Api(status, msg.unwrap_or_else(|| text.into_owned()))
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Retry schedule for transient failures (connection refused, `429`).
///
/// Delays grow exponentially from `base`, capped at `max`, each scaled by
/// a uniform jitter in `[0.5, 1.5)` so a fleet of clients retrying
/// against one recovering server spreads out instead of stampeding.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub attempts: u32,
    /// First retry delay.
    pub base: Duration,
    /// Delay ceiling.
    pub max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(100),
            max: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry number `attempt` (0-based).
    fn delay(&self, attempt: u32, jitter: &mut Jitter) -> Duration {
        let cap = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX))
            .min(self.max);
        // Uniform in [0.5, 1.5) x cap.
        cap / 2 + cap.mul_f64(jitter.next_f64())
    }

    /// Sleep the jittered backoff delay before retry number `attempt`
    /// (0-based) — the shared building block for every retry loop in the
    /// workspace (submit, worker register/lease/report), so a restarted
    /// server is never stampeded by a synchronised fleet.
    pub fn sleep(&self, attempt: u32) {
        std::thread::sleep(self.delay(attempt, &mut Jitter::new(u64::from(attempt) ^ 0xb0ff)));
    }
}

/// A tiny xorshift64* stream for retry jitter — schedule noise only,
/// never simulation randomness, so seeding from the wall clock is fine.
struct Jitter {
    state: u64,
}

impl Jitter {
    fn new(salt: u64) -> Jitter {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        Jitter {
            state: (now ^ salt ^ u64::from(std::process::id())) | 1,
        }
    }

    fn next_f64(&mut self) -> f64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let draw = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Whether an error is worth retrying: failures that prove the request
/// was never accepted — a refused/unreachable connection (server not up
/// yet) or explicit backpressure (`429`). A transport error *after* the
/// connection was established (reset mid-response, timeout) is NOT
/// retried: `POST /jobs` is not idempotent, and the server may have
/// already enqueued the job before the connection died. Everything else
/// — bad manifests, unknown routes, protocol junk — fails fast.
/// Short, low-cardinality cause tag for a submission failure, used as
/// the `cause` label on `pas.client.submit.retries.count` and by
/// `pas submit -v`'s retry summary.
pub fn retry_cause(e: &ClientError) -> &'static str {
    match e {
        ClientError::Io(e) => match e.kind() {
            io::ErrorKind::ConnectionRefused => "refused",
            io::ErrorKind::NotFound | io::ErrorKind::AddrNotAvailable => "unreachable",
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => "timeout",
            _ => "io",
        },
        ClientError::Api(429, _) => "backpressure",
        ClientError::Api(503, _) => "shutting_down",
        ClientError::Api(_, _) => "api",
        ClientError::Protocol(_) => "protocol",
    }
}

fn retryable(e: &ClientError) -> bool {
    match e {
        ClientError::Io(e) => matches!(
            e.kind(),
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::NotFound
                | io::ErrorKind::AddrNotAvailable
        ),
        ClientError::Api(status, _) => *status == 429,
        ClientError::Protocol(_) => false,
    }
}

fn text(body: Vec<u8>) -> String {
    String::from_utf8_lossy(&body).into_owned()
}

/// Unsigned field `key` of a JSON answer.
fn u64_field(body: &[u8], key: &str) -> Result<u64, ClientError> {
    let body = String::from_utf8_lossy(body);
    crate::json::find_u64(&body, key)
        .ok_or_else(|| ClientError::Protocol(format!("no `{key}` in {body}")))
}

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    /// A client for `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into() }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One request: the body of a 2xx answer, else the server's error.
    fn fetch(
        &self,
        method: &str,
        path: &str,
        accept: Option<&str>,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        let (status, _ctype, body) =
            roundtrip_with(&mut stream, method, path, accept, extra_headers, body)?;
        if (200..300).contains(&status) {
            Ok(body)
        } else {
            Err(ClientError::api(status, &body))
        }
    }

    /// `GET /scenarios`, raw JSON.
    pub fn scenarios(&self) -> Result<String, ClientError> {
        self.fetch("GET", "/scenarios", None, &[], &[]).map(text)
    }

    /// `POST /validate` with manifest TOML; returns the run count.
    pub fn validate(&self, manifest_toml: &str) -> Result<u64, ClientError> {
        let body = self.fetch("POST", "/validate", None, &[], manifest_toml.as_bytes())?;
        u64_field(&body, "runs")
    }

    /// `POST /jobs` with manifest TOML; returns the job id.
    ///
    /// Mints a fresh trace id client-side and carries it in the
    /// `X-Pas-Trace` header, so the whole causal chain — queue wait,
    /// scheduler leases, worker execution, cache probes — lands under one
    /// trace the submitter can later fetch with [`Client::trace`].
    pub fn submit(&self, manifest_toml: &str) -> Result<u64, ClientError> {
        self.submit_traced(manifest_toml, pas_obs::trace::mint_id())
            .map(|(id, _trace)| id)
    }

    /// [`Client::submit`] with a caller-supplied trace id; returns
    /// `(job_id, trace_id)`.
    pub fn submit_traced(
        &self,
        manifest_toml: &str,
        trace: u64,
    ) -> Result<(u64, u64), ClientError> {
        let hex = format!("{trace:016x}");
        let body = self.fetch(
            "POST",
            "/jobs",
            None,
            &[("X-Pas-Trace", hex.as_str())],
            manifest_toml.as_bytes(),
        )?;
        let id = u64_field(&body, "id")?;
        Ok((id, trace))
    }

    /// [`Client::submit`] with exponential backoff and jitter on transient
    /// failures — a refused connection (server still booting, restarting)
    /// or `429` backpressure (queue full). Permanent errors (`400` bad
    /// manifest, protocol junk) are returned immediately. `on_retry` fires
    /// before each sleep with the attempt number and the error.
    pub fn submit_with_retry(
        &self,
        manifest_toml: &str,
        policy: RetryPolicy,
        mut on_retry: impl FnMut(u32, &ClientError),
    ) -> Result<u64, ClientError> {
        let mut jitter = Jitter::new(0x5bb1);
        let mut attempt = 0u32;
        loop {
            match self.submit(manifest_toml) {
                Ok(id) => return Ok(id),
                Err(e) if retryable(&e) && attempt + 1 < policy.attempts.max(1) => {
                    // Retries are otherwise invisible once the submit
                    // finally lands — keep the per-cause tally (and the
                    // backoff spent waiting) in the registry.
                    let delay = policy.delay(attempt, &mut jitter);
                    pas_obs::inc(
                        "pas.client.submit.retries.count",
                        &[("cause", retry_cause(&e))],
                    );
                    pas_obs::add(
                        "pas.client.submit.backoff.microseconds",
                        &[("cause", retry_cause(&e))],
                        delay.as_micros() as u64,
                    );
                    on_retry(attempt + 1, &e);
                    std::thread::sleep(delay);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// `GET /healthz` (built-in; the dist scheduler serves a richer
    /// variant on the same path when mounted), raw JSON.
    pub fn healthz(&self) -> Result<String, ClientError> {
        self.fetch("GET", "/healthz", None, &[], &[]).map(text)
    }

    /// `GET /metrics` (requires `pas serve --metrics`): the server's
    /// Prometheus text exposition.
    pub fn metrics(&self) -> Result<String, ClientError> {
        self.fetch("GET", "/metrics", None, &[], &[]).map(text)
    }

    /// `GET /dist/workers` as the server-rendered plain-text fleet table.
    pub fn workers_table(&self) -> Result<String, ClientError> {
        self.fetch("GET", "/dist/workers", Some("text/plain"), &[], &[])
            .map(text)
    }

    /// `POST /dist/drain`: stop claiming jobs; workers exit when all
    /// active jobs finish.
    pub fn drain(&self) -> Result<(), ClientError> {
        self.fetch("POST", "/dist/drain", None, &[], &[])
            .map(|_| ())
    }

    /// `GET /jobs/:id`.
    pub fn status(&self, id: u64) -> Result<JobStatus, ClientError> {
        let body = text(self.fetch("GET", &format!("/jobs/{id}"), None, &[], &[])?);
        let missing = |k: &str| ClientError::Protocol(format!("no `{k}` in {body}"));
        let j = json::parse(&body).ok_or_else(|| missing("status"))?;
        let num = |k: &str| j.get(k).and_then(|v| v.as_u64()).ok_or_else(|| missing(k));
        let string = |k: &str| j.get(k).and_then(|v| v.as_str());
        Ok(JobStatus {
            id: num("id")?,
            phase: string("phase").ok_or_else(|| missing("phase"))?,
            done: num("done")?,
            total: num("total")?,
            cache_hits: num("cache_hits")?,
            cache_misses: num("cache_misses")?,
            error: string("error"),
            trace: string("trace"),
        })
    }

    /// Poll `GET /jobs/:id` every `interval` until the job completes.
    /// Returns the final status; a `failed` phase is returned, not an error.
    pub fn wait(&self, id: u64, interval: Duration) -> Result<JobStatus, ClientError> {
        self.wait_with(id, interval, |_| {})
    }

    /// [`Client::wait`], invoking `on_status` with every polled snapshot
    /// (including the final one) — the hook `pas submit -v` uses to show
    /// a live points/s readout without a second polling loop.
    pub fn wait_with(
        &self,
        id: u64,
        interval: Duration,
        mut on_status: impl FnMut(&JobStatus),
    ) -> Result<JobStatus, ClientError> {
        loop {
            let status = self.status(id)?;
            on_status(&status);
            if status.phase == "completed" || status.phase == "failed" {
                return Ok(status);
            }
            std::thread::sleep(interval);
        }
    }

    /// `GET /jobs/:id/results` in the requested format, as raw bytes.
    pub fn results(&self, id: u64, format: ResultFormat) -> Result<Vec<u8>, ClientError> {
        let accept = match format {
            ResultFormat::Csv => "text/csv",
            ResultFormat::Jsonl => "application/x-ndjson",
        };
        self.fetch(
            "GET",
            &format!("/jobs/{id}/results"),
            Some(accept),
            &[],
            &[],
        )
    }

    /// `GET /jobs/:id/trace` in the requested format, as raw bytes
    /// (requires `pas serve --metrics`).
    pub fn trace(&self, id: u64, format: TraceFormat) -> Result<Vec<u8>, ClientError> {
        self.fetch(
            "GET",
            &format!("/jobs/{id}/trace"),
            Some(format.accept()),
            &[],
            &[],
        )
    }

    /// `GET /profile` in the requested format, as raw bytes (requires
    /// `pas serve --metrics`). `seconds` resets the server's profile
    /// table first and observes exactly that window; `None` reads the
    /// accumulation since process start (or the last reset).
    pub fn profile(
        &self,
        format: ProfileFormat,
        seconds: Option<u64>,
    ) -> Result<Vec<u8>, ClientError> {
        let path = match seconds {
            Some(s) => format!("/profile?seconds={s}"),
            None => "/profile".to_string(),
        };
        self.fetch("GET", &path, Some(format.accept()), &[], &[])
    }

    /// `GET /metrics/history` in the requested format, as raw bytes
    /// (requires `pas serve --metrics`). A server running without
    /// exposition answers `403` with guidance, surfaced as
    /// [`ClientError::Api`].
    pub fn metrics_history(&self, format: HistoryFormat) -> Result<Vec<u8>, ClientError> {
        self.fetch("GET", "/metrics/history", Some(format.accept()), &[], &[])
    }

    /// `GET /jobs/:id/report` in the requested format, as raw bytes.
    pub fn report(&self, id: u64, format: ReportFormat) -> Result<Vec<u8>, ClientError> {
        self.fetch(
            "GET",
            &format!("/jobs/{id}/report"),
            Some(format.accept()),
            &[],
            &[],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_within_bounds() {
        let p = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(100),
            max: Duration::from_secs(2),
        };
        let mut jitter = Jitter::new(7);
        let mut prev_cap = Duration::ZERO;
        for attempt in 0..6 {
            let d = p.delay(attempt, &mut jitter);
            let cap = p.base.saturating_mul(1 << attempt).min(p.max);
            assert!(d <= cap + cap / 2, "attempt {attempt}: {d:?} > 1.5x{cap:?}");
            assert!(d >= cap / 2, "attempt {attempt}: {d:?} < 0.5x{cap:?}");
            assert!(cap >= prev_cap);
            prev_cap = cap;
        }
        // Deep attempts saturate at `max` (± jitter), never overflow.
        let deep = p.delay(40, &mut jitter);
        assert!(deep <= p.max + p.max / 2);
    }

    #[test]
    fn retryable_classification() {
        assert!(retryable(&ClientError::Io(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "refused"
        ))));
        assert!(retryable(&ClientError::Api(429, "full".into())));
        assert!(!retryable(&ClientError::Api(400, "bad manifest".into())));
        assert!(!retryable(&ClientError::Protocol("junk".into())));
        // Post-connect transport failures must NOT resubmit: the server
        // may already hold the job.
        for kind in [
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::TimedOut,
        ] {
            assert!(!retryable(&ClientError::Io(io::Error::new(kind, "late"))));
        }
    }
}
