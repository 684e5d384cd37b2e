//! A deliberately small HTTP/1.1 subset: enough to parse one request from
//! a socket and write one response (or a chunked stream) back.
//!
//! Hand-rolled because the workspace builds offline with no third-party
//! dependencies. The parser is bounded everywhere — request-line length,
//! header count and size, body size — so a misbehaving client cannot make
//! a worker allocate without limit; every violation maps to a 4xx rather
//! than a panic or an unbounded read.
//!
//! Every message goes to the socket in one write: a response is built
//! whole (status line, headers, blank line, body) in one buffer, and so is
//! each chunk of a stream. Written piece by piece, the first small segment
//! leaves unacknowledged, and Nagle's algorithm holds the next one back
//! until the client's delayed ACK arrives, about 40 ms later, on every
//! keep-alive response. One write per message sends it in one go without
//! turning Nagle off for the whole socket.

// User-reachable network path: malformed input must surface as typed
// errors, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

/// Longest accepted request line (method + path + version), in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Longest accepted single header line, in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Largest accepted request body, in bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// Why a request could not be parsed, with the HTTP status it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The client closed the connection before sending a request line.
    ConnectionClosed,
    /// The socket read failed (including read-timeout expiry).
    Io(String),
    /// The request line or a header line was malformed.
    Malformed(String),
    /// A size bound was exceeded; maps to 431 or 413.
    TooLarge(String),
}

impl ParseError {
    /// The HTTP status code this parse failure should be reported as.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::ConnectionClosed | ParseError::Io(_) => 400,
            ParseError::Malformed(_) => 400,
            ParseError::TooLarge(m) if m.contains("body") => 413,
            ParseError::TooLarge(_) => 431,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed before request"),
            ParseError::Io(e) => write!(f, "read failed: {e}"),
            ParseError::Malformed(m) => write!(f, "malformed request: {m}"),
            ParseError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

/// One parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request target, query string included, e.g. `/query`.
    pub path: String,
    /// Headers as `(lowercased-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client may reuse this connection: HTTP/1.1 defaults to
    /// keep-alive unless `Connection: close`; HTTP/1.0 defaults to close
    /// unless `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// The first value of the named header (name matched
    /// case-insensitively), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one line terminated by `\n`, rejecting lines longer than `max`.
/// The trailing `\r\n` (or bare `\n`) is stripped.
fn read_line(r: &mut impl BufRead, max: usize, what: &str) -> Result<Option<String>, ParseError> {
    let mut buf = Vec::with_capacity(128);
    loop {
        let chunk = r.fill_buf().map_err(|e| ParseError::Io(e.to_string()))?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(ParseError::Malformed(format!("{what} truncated")));
        }
        let nl = chunk.iter().position(|&b| b == b'\n');
        let take = nl.map(|i| i + 1).unwrap_or(chunk.len());
        if buf.len() + take > max + 2 {
            return Err(ParseError::TooLarge(format!("{what} exceeds {max} bytes")));
        }
        buf.extend_from_slice(&chunk[..take]);
        r.consume(take);
        if nl.is_some() {
            break;
        }
    }
    while matches!(buf.last(), Some(b'\n') | Some(b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ParseError::Malformed(format!("{what} is not valid UTF-8")))
}

/// A [`BufRead`] adapter enforcing an **overall** wall-clock budget on a
/// request read. The socket's per-read timeout only bounds one `read`
/// call; a slowloris client dripping a byte every few seconds keeps each
/// read under that timeout and holds a worker forever. Every refill here
/// first checks the deadline, so the drip itself trips the budget: the
/// total time a worker spends parsing one request head is bounded by
/// `budget` plus at most one socket read-timeout.
pub struct DeadlineReader<R> {
    inner: R,
    deadline: Instant,
}

impl<R: BufRead> DeadlineReader<R> {
    /// Wraps `inner`, allowing at most `budget` of wall-clock time across
    /// all refills before reads fail with [`io::ErrorKind::TimedOut`].
    pub fn new(inner: R, budget: Duration) -> DeadlineReader<R> {
        DeadlineReader {
            inner,
            deadline: Instant::now() + budget,
        }
    }

    fn check(&self) -> io::Result<()> {
        if Instant::now() >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request read deadline exceeded",
            ));
        }
        Ok(())
    }
}

impl<R: BufRead> io::Read for DeadlineReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.check()?;
        self.inner.read(buf)
    }
}

impl<R: BufRead> BufRead for DeadlineReader<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.check()?;
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt)
    }
}

/// [`read_request`] under an overall deadline: the standard entry point
/// for reading off a socket (see [`DeadlineReader`] for why the socket
/// read-timeout alone is not enough).
pub fn read_request_deadline(
    r: &mut impl BufRead,
    budget: Duration,
) -> Result<Request, ParseError> {
    read_request(&mut DeadlineReader::new(r, budget))
}

/// Parses one HTTP/1.1 request from `r`. Returns
/// `Err(ParseError::ConnectionClosed)` if the peer hung up cleanly before
/// sending anything.
pub fn read_request(r: &mut impl BufRead) -> Result<Request, ParseError> {
    let line =
        read_line(r, MAX_REQUEST_LINE, "request line")?.ok_or(ParseError::ConnectionClosed)?;
    let mut parts = line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(ParseError::Malformed(format!(
                "request line `{line}` is not `METHOD PATH VERSION`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!(
            "unsupported protocol version `{version}`"
        )));
    }
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, MAX_HEADER_LINE, "header line")?
            .ok_or_else(|| ParseError::Malformed("headers truncated".into()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed(format!("header line `{line}` has no colon")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut body = Vec::new();
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::Malformed(format!("bad Content-Length `{v}`")))
        })
        .transpose()?;
    if let Some(len) = content_length {
        if len > MAX_BODY {
            return Err(ParseError::TooLarge(format!(
                "body of {len} bytes exceeds {MAX_BODY}"
            )));
        }
        body.resize(len, 0);
        io::Read::read_exact(r, &mut body).map_err(|e| ParseError::Io(e.to_string()))?;
    }
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => version != "HTTP/1.0",
    };
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
        keep_alive,
    })
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete `Connection: close` response with a body.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_with(w, status, content_type, body, false, &[])
}

/// Writes one complete response, choosing the `Connection` disposition and
/// appending `extra` headers (e.g. `Retry-After`) verbatim. The status
/// line, headers and body go to `w` in one write (see the module docs).
pub fn write_response_with(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra: &[(&str, &str)],
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut msg = Vec::with_capacity(128 + body.len());
    write!(
        msg,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len()
    )?;
    for (name, value) in extra {
        write!(msg, "{name}: {value}\r\n")?;
    }
    msg.extend_from_slice(b"\r\n");
    msg.extend_from_slice(body);
    w.write_all(&msg)?;
    w.flush()
}

/// Writes the header block starting a chunked (streaming) response, in
/// one write.
pub fn start_chunked(w: &mut impl Write, status: u16, content_type: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        reason(status)
    );
    w.write_all(head.as_bytes())?;
    w.flush()
}

/// Writes one chunk of a chunked response (size line, data, trailing
/// CRLF) in one write.
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    let mut chunk = format!("{:x}\r\n", data.len()).into_bytes();
    chunk.reserve(data.len() + 2);
    chunk.extend_from_slice(data);
    chunk.extend_from_slice(b"\r\n");
    w.write_all(&chunk)?;
    w.flush()
}

/// Terminates a chunked response cleanly.
pub fn finish_chunked(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_request_with_headers_and_body() {
        let req = parse(
            b"POST /query HTTP/1.1\r\nHost: x\r\nX-Itdb-Request-Id: r-50\r\nContent-Length: 4\r\n\r\np[t]",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.header("x-itdb-request-id"), Some("r-50"));
        assert_eq!(req.header("X-Itdb-Request-Id"), Some("r-50"));
        assert_eq!(req.body, b"p[t]");
    }

    #[test]
    fn clean_hangup_is_connection_closed() {
        assert_eq!(parse(b"").unwrap_err(), ParseError::ConnectionClosed);
    }

    #[test]
    fn malformed_request_line_is_rejected() {
        let err = parse(b"GETX\r\n\r\n").unwrap_err();
        assert!(matches!(err, ParseError::Malformed(_)), "{err}");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("x-h-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let err = parse(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn oversized_request_line_is_431() {
        let mut raw = String::from("GET /");
        raw.push_str(&"a".repeat(MAX_REQUEST_LINE));
        raw.push_str(" HTTP/1.1\r\n\r\n");
        let err = parse(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_headers() {
        let default_11 = parse(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(default_11.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let close_11 = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close_11.keep_alive);
        let default_10 = parse(b"GET / HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        assert!(!default_10.keep_alive, "HTTP/1.0 defaults to close");
        let keep_10 = parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(keep_10.keep_alive);
    }

    #[test]
    fn write_response_with_sets_connection_and_extra_headers() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            503,
            "application/json",
            b"{}",
            false,
            &[("Retry-After", "2")],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");

        let mut out = Vec::new();
        write_response_with(&mut out, 200, "text/plain", b"ok\n", true, &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    /// A sink that accepts everything and counts the `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_is_one_write() {
        let statuses = [200, 202, 400, 404, 405, 413, 422, 431, 500, 503, 299];
        let extras: [&[(&str, &str)]; 3] = [
            &[],
            &[("Retry-After", "2")],
            &[("X-Itdb-Request-Id", "r-1"), ("Retry-After", "1")],
        ];
        for status in statuses {
            for extra in extras {
                for body in [&b""[..], b"ok\n", &[b'x'; 70_000][..]] {
                    for keep_alive in [false, true] {
                        let mut w = CountingWriter::default();
                        write_response_with(&mut w, status, "text/plain", body, keep_alive, extra)
                            .unwrap();
                        assert_eq!(w.writes, 1, "status {status}, extra {extra:?}");
                        assert!(w.bytes.ends_with(body));
                    }
                }
            }
        }
        let mut w = CountingWriter::default();
        start_chunked(&mut w, 200, "application/jsonl").unwrap();
        assert_eq!(w.writes, 1, "chunked header block");
        for data in [&b"{}\n"[..], &[b'y'; 70_000][..]] {
            let mut w = CountingWriter::default();
            write_chunk(&mut w, data).unwrap();
            assert_eq!(w.writes, 1, "one chunk of {} bytes", data.len());
        }
        let mut w = CountingWriter::default();
        write_chunk(&mut w, b"").unwrap();
        assert_eq!(w.writes, 0, "an empty chunk would end the stream");
        let mut w = CountingWriter::default();
        finish_chunked(&mut w).unwrap();
        assert_eq!(w.writes, 1, "terminator");
    }

    #[test]
    fn responses_round_trip_the_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", b"ok\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 3\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nok\n"), "{text}");

        let mut out = Vec::new();
        start_chunked(&mut out, 200, "application/jsonl").unwrap();
        write_chunk(&mut out, b"{\"a\":1}\n").unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"), "{text}");
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
    }
}
