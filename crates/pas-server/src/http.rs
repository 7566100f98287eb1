//! A minimal HTTP/1.1 subset over `std::net` streams.
//!
//! Just enough protocol for the batch API and its CLI client: one
//! request per connection (`Connection: close` both ways), bodies
//! delimited by `Content-Length`, no chunked encoding, no TLS. Both the
//! server and [`crate::client`] speak through these same types, so the
//! wire format cannot drift between the two.

use pas_obs::json::quote;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body (a manifest is a few KB; 4 MiB leaves
/// room for generated sweeps while bounding a hostile peer).
pub const MAX_BODY: usize = 4 << 20;

/// Largest accepted request-line + header block.
const MAX_HEAD: usize = 64 << 10;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path, query string stripped.
    pub path: String,
    /// Raw query string (text after the first `?`, empty when absent).
    pub query: String,
    /// Lower-cased header names → values.
    pub headers: BTreeMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// A header value, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(&name.to_ascii_lowercase()).map(|s| &**s)
    }

    /// A query parameter value, by exact name (`?a=1&b=2` form; no
    /// percent-decoding — the API's parameters are plain tokens).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with an explicit content type.
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            body: body.into(),
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::new(status, "application/json", body)
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, format!("{{\"error\":{}}}", quote(message)))
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            204 => "No Content",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            410 => "Gone",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// Serialise onto a stream.
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        let _prof = pas_obs::profile::scope("http.write");
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Read one request from a stream. `Err` means the connection is broken
/// or the peer sent something outside the accepted subset.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let _prof = pas_obs::profile::scope("http.read");
    // The head is read through a `Take` so the bound holds *inside* a
    // single `read_line` call too — a newline-free stream hits the limit
    // instead of growing the buffer without end.
    let mut limited = BufReader::new(stream).take(MAX_HEAD as u64);
    let mut head = String::new();
    // Request line + headers, CRLF-delimited, blank line terminated.
    loop {
        let before = head.len();
        let n = limited.read_line(&mut head)?;
        if n == 0 {
            return Err(if head.len() as u64 >= MAX_HEAD as u64 {
                io::Error::new(io::ErrorKind::InvalidData, "request head too large")
            } else {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                )
            });
        }
        if head[before..].trim_end_matches(['\r', '\n']).is_empty() {
            break;
        }
    }
    let mut reader = limited.into_inner();
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing path"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = BTreeMap::new();
    for line in lines {
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }

    let content_length: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?,
    };
    if content_length > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Send `request` for `path` to `stream` and read back the response
/// `(status, content_type, body)`. The client half of the same subset.
pub fn roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    accept: Option<&str>,
    body: &[u8],
) -> io::Result<(u16, String, Vec<u8>)> {
    roundtrip_with(stream, method, path, accept, &[], body)
}

/// [`roundtrip`] with extra request headers (e.g. `X-Pas-Trace` for
/// trace-context propagation). Header names must be in the token
/// charset and values line-free; this is an internal client, not a
/// general header codec.
pub fn roundtrip_with(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    accept: Option<&str>,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<(u16, String, Vec<u8>)> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: pas\r\nConnection: close\r\n");
    if let Some(a) = accept {
        let _ = std::fmt::Write::write_fmt(&mut head, format_args!("Accept: {a}\r\n"));
    }
    for (name, value) in extra_headers {
        let _ = std::fmt::Write::write_fmt(&mut head, format_args!("{name}: {value}\r\n"));
    }
    if !body.is_empty() || method == "POST" {
        let _ = std::fmt::Write::write_fmt(
            &mut head,
            format_args!(
                "Content-Type: application/toml\r\nContent-Length: {}\r\n",
                body.len()
            ),
        );
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_type = String::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 || line.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = line.trim_end().split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "content-type" => content_type = value.trim().to_string(),
                "content-length" => {
                    content_length = Some(value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?)
                }
                _ => {}
            }
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        // Connection: close delimits the body when no length was sent.
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    Ok((status, content_type, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_serialises_with_length() {
        let mut buf = Vec::new();
        Response::json(200, "{}").write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn query_param_parsing() {
        let req = Request {
            method: "GET".into(),
            path: "/profile".into(),
            query: "seconds=3&format=svg".into(),
            headers: BTreeMap::new(),
            body: Vec::new(),
        };
        assert_eq!(req.query_param("seconds"), Some("3"));
        assert_eq!(req.query_param("format"), Some("svg"));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn request_response_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/validate");
            assert_eq!(req.header("accept"), Some("text/csv"));
            assert_eq!(req.header("x-pas-trace"), Some("00c0ffee00c0ffee"));
            assert_eq!(req.body, b"name = 1");
            Response::new(400, "text/plain", "nope")
                .write_to(&mut stream)
                .unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let (status, ctype, body) = roundtrip_with(
            &mut stream,
            "POST",
            "/validate",
            Some("text/csv"),
            &[("X-Pas-Trace", "00c0ffee00c0ffee")],
            b"name = 1",
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(status, 400);
        assert_eq!(ctype, "text/plain");
        assert_eq!(body, b"nope");
    }
}
