//! A hand-rolled, total HTTP/1.1 subset: request-head parsing and
//! response writing over `std::net::TcpStream`.
//!
//! The parser is **total**: any byte buffer maps to `Ok(Request)` or a
//! typed [`HttpError`] — never a panic. That property is what lets the
//! per-connection `catch_unwind` in the server loop stay a last-resort
//! backstop instead of a load-bearing control path, and it is pinned by
//! the vendored-proptest suite in `tests/http_props.rs`.
//!
//! Scope is deliberately narrow — the server speaks exactly what its
//! clients need: `GET`/`POST`, a percent-encoded path with an optional
//! query string, and persistent connections. Headers are scanned for
//! syntactic sanity; [`persistent`] reads the three that decide whether
//! a connection may carry another request (`Connection`,
//! `Content-Length`, `Transfer-Encoding`). Bodies are never read, so a
//! request with one closes its connection; control operations carry
//! their arguments in the query string. [`Connection`] keeps the bytes
//! read past a head — a pipelined next request — for the next head, and
//! the socket timeouts it last set.

use crate::deadline::Deadline;
use serde_json::JsonWriter;
use std::fmt::Display;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on the request head (request line + headers + blank line).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Hard cap on the number of header lines.
pub const MAX_HEADERS: usize = 64;

/// The two methods the API speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read-only queries.
    Get,
    /// Control-plane mutations (`/ctl/...`).
    Post,
}

impl Method {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Get => "GET",
            Self::Post => "POST",
        }
    }
}

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Percent-decoded path segments (`/decide/Los%20Angeles/big` →
    /// `["decide", "Los Angeles", "big"]`).
    pub segments: Vec<String>,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// The first query value stored under `key`, if any.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The undecoded-path shape for log-style rendering: segments
    /// re-joined with `/`.
    pub fn path(&self) -> String {
        let mut out = String::new();
        for segment in &self.segments {
            out.push('/');
            out.push_str(segment);
        }
        if out.is_empty() {
            out.push('/');
        }
        out
    }
}

/// Why a request could not be served at the HTTP layer. Every variant
/// maps to a response status (or a silent close when the peer is gone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The head exceeded [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`] → `431`.
    TooLarge,
    /// The bytes are not a parseable request head → `400`.
    Malformed(&'static str),
    /// The request's deadline expired while reading → `408`.
    Expired,
    /// The peer closed the connection before a full head arrived.
    Disconnected,
    /// The socket failed mid-read.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooLarge => write!(f, "request head too large"),
            Self::Malformed(detail) => write!(f, "malformed request: {detail}"),
            Self::Expired => write!(f, "deadline expired while reading request"),
            Self::Disconnected => write!(f, "peer disconnected mid-request"),
            Self::Io(kind) => write!(f, "socket error while reading request: {kind:?}"),
        }
    }
}

/// Decodes `%XX` escapes. `None` on a dangling or non-hex escape.
fn percent_decode(raw: &str) -> Option<Vec<u8>> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                // Form-style space, accepted for client convenience.
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    Some(out)
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-encodes one path segment or query token for request building
/// (used by tests, the bench load generator, and clients).
pub fn percent_encode(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for b in raw.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(*b as char)
            }
            _ => {
                out.push('%');
                out.push(
                    char::from_digit(u32::from(b >> 4), 16)
                        .unwrap_or('0')
                        .to_ascii_uppercase(),
                );
                out.push(
                    char::from_digit(u32::from(b & 0xf), 16)
                        .unwrap_or('0')
                        .to_ascii_uppercase(),
                );
            }
        }
    }
    out
}

fn decode_component(raw: &str, context: &'static str) -> Result<String, HttpError> {
    let bytes = percent_decode(raw).ok_or(HttpError::Malformed(context))?;
    String::from_utf8(bytes).map_err(|_| HttpError::Malformed(context))
}

/// Parses a complete request head (everything up to and including the
/// blank line). Total: never panics on any input.
pub fn parse_head(head: &[u8]) -> Result<Request, HttpError> {
    let text = std::str::from_utf8(head).map_err(|_| HttpError::Malformed("head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;

    let mut parts = request_line.split(' ');
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        Some(_) => return Err(HttpError::Malformed("unsupported method")),
        None => return Err(HttpError::Malformed("missing method")),
    };
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("missing request target"))?;
    match parts.next() {
        Some("HTTP/1.1" | "HTTP/1.0") => {}
        _ => return Err(HttpError::Malformed("missing or unsupported HTTP version")),
    }
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra tokens on request line"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Malformed("target must be origin-form"));
    }

    // Headers: bounded count, each line must look like `name: value`.
    let mut header_count = 0usize;
    for line in lines {
        if line.is_empty() {
            continue; // the terminating blank line (and any trailing split artifact)
        }
        header_count += 1;
        if header_count > MAX_HEADERS {
            return Err(HttpError::TooLarge);
        }
        let Some(colon) = line.find(':') else {
            return Err(HttpError::Malformed("header line without colon"));
        };
        if colon == 0 {
            return Err(HttpError::Malformed("header with empty name"));
        }
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let mut segments = Vec::new();
    for raw in raw_path.split('/').filter(|s| !s.is_empty()) {
        segments.push(decode_component(raw, "bad percent-escape in path")?);
    }
    let mut query = Vec::new();
    if let Some(raw) = raw_query {
        for pair in raw.split('&').filter(|s| !s.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((
                decode_component(k, "bad percent-escape in query key")?,
                decode_component(v, "bad percent-escape in query value")?,
            ));
        }
    }
    Ok(Request {
        method,
        segments,
        query,
    })
}

/// Whether a parsed head lets its connection carry another request: it
/// is HTTP/1.1, says no `Connection: close`, and has no body (no
/// `Content-Length` above 0, no `Transfer-Encoding`) — bodies are never
/// read, so one would be parsed as the next head. Reads only what
/// [`parse_head`] accepted; anything else answers `false`.
pub fn persistent(head: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(head) else {
        return false;
    };
    let mut lines = text.split("\r\n");
    if !lines.next().is_some_and(|line| line.ends_with(" HTTP/1.1")) {
        return false;
    }
    lines
        .filter_map(|line| line.split_once(':'))
        .all(|(name, value)| {
            let value = value.trim();
            if name.eq_ignore_ascii_case("connection") {
                !value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"))
            } else if name.eq_ignore_ascii_case("content-length") {
                value == "0"
            } else {
                !name.eq_ignore_ascii_case("transfer-encoding")
            }
        })
}

/// The framing step of [`Connection::read_head`], without I/O: splits
/// the first complete head, blank line included, off the front of
/// `buffered` and leaves the bytes past it there for the next head.
/// `Ok(None)` means no head is complete yet: call again once more bytes
/// are appended.
/// `scanned` (0 to begin with) is where the search for the blank line
/// resumes, so each byte is searched about once; a call moves it to the
/// first byte a terminator could still start at, and back to 0 when it
/// takes a head. A head longer than [`MAX_HEAD_BYTES`], complete or not,
/// is `TooLarge`.
pub fn take_head(
    buffered: &mut Vec<u8>,
    scanned: &mut usize,
) -> Result<Option<Vec<u8>>, HttpError> {
    if let Some(at) = buffered[*scanned..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
    {
        let end = *scanned + at + 4;
        if end > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        *scanned = 0;
        let rest = buffered.split_off(end);
        return Ok(Some(std::mem::replace(buffered, rest)));
    }
    if buffered.len() > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge);
    }
    // A terminator may straddle these bytes and the next ones.
    *scanned = buffered.len().saturating_sub(3);
    Ok(None)
}

/// The floor under a reply's write window: even an expired request gets
/// this long to carry its error status to the peer.
const WRITE_FLOOR: Duration = Duration::from_millis(100);

/// How far the send timeout already set on a connection may sit from a
/// reply's write window before it is set again. A reply write is so
/// bounded by its window give or take this much, and a kept connection
/// whose requests all get about a budget to answer sets it once.
pub const WRITE_TIMEOUT_SLACK: Duration = WRITE_FLOOR;

/// The bytes read from the socket at a time.
const READ_CHUNK: usize = 1024;

/// A connection's socket with the bytes read from it that no head has
/// taken yet, and the read and send timeouts last set on it. Each timeout
/// is set again only when it changes, so a kept request whose head comes
/// in one piece costs one read and one write and no `setsockopt`.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    /// Bytes read past the last head taken: the start of the next request.
    buffered: Vec<u8>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl Connection {
    /// A connection over `stream` with nothing read and no timeout set.
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buffered: Vec::new(),
            read_timeout: None,
            write_timeout: None,
        }
    }

    /// The socket.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The socket, dropping whatever was read and not served.
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }

    /// Whether bytes of a next request are already read.
    pub fn has_buffered(&self) -> bool {
        !self.buffered.is_empty()
    }

    /// One read into the buffered bytes, waiting at most `timeout` (not
    /// zero); `Ok(0)` is the end of the stream.
    pub fn fill(&mut self, timeout: Duration) -> std::io::Result<usize> {
        if self.read_timeout != Some(timeout) {
            self.stream.set_read_timeout(Some(timeout))?;
            self.read_timeout = Some(timeout);
        }
        let mut chunk = [0u8; READ_CHUNK];
        let n = self.stream.read(&mut chunk)?;
        self.buffered.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Reads a request head under `deadline`, framed by [`take_head`].
    /// What follows the head's blank line stays buffered for the next
    /// call, so a pipelined request is not lost. A head already buffered
    /// costs no read. Otherwise the remaining budget becomes the read
    /// timeout, re-derived after every partial read, so a slowloris-style
    /// client that trickles bytes cannot hold a worker past the deadline.
    pub fn read_head(&mut self, deadline: &Deadline) -> Result<Vec<u8>, HttpError> {
        let mut scanned = 0;
        loop {
            if let Some(head) = take_head(&mut self.buffered, &mut scanned)? {
                return Ok(head);
            }
            let Some(remaining) = deadline.remaining() else {
                return Err(HttpError::Expired);
            };
            // A zero timeout is rejected by std; clamp to 1ms.
            match self.fill(remaining.max(Duration::from_millis(1))) {
                Ok(0) => return Err(HttpError::Disconnected),
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(HttpError::Expired);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::ConnectionReset
                        || e.kind() == std::io::ErrorKind::ConnectionAborted
                        || e.kind() == std::io::ErrorKind::BrokenPipe =>
                {
                    return Err(HttpError::Disconnected);
                }
                Err(e) => return Err(HttpError::Io(e.kind())),
            }
        }
    }

    /// Writes `bytes` in one `write_all` under `deadline`'s write window
    /// (never below 100 ms). The send timeout is set again only when the
    /// one already set is more than [`WRITE_TIMEOUT_SLACK`] from the
    /// window.
    pub fn send(&mut self, bytes: &[u8], deadline: &Deadline) -> std::io::Result<()> {
        let window = deadline.write_window(WRITE_FLOOR);
        if (self.write_timeout).is_none_or(|set| set.abs_diff(window) > WRITE_TIMEOUT_SLACK) {
            self.stream.set_write_timeout(Some(window))?;
            self.write_timeout = Some(window);
        }
        self.stream.write_all(bytes)
    }
}

/// The capacity a JSON body starts with: room for every body but
/// `/entity`'s, which sizes its own, and `/evidence`'s with a long
/// document sample.
const BODY_CAPACITY: usize = 512;

/// A response about to be written. Its wire form says either
/// `Connection: close` or nothing, in which case the connection stays
/// open for the next request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Optional `Retry-After` seconds (the load-shedding signal).
    pub retry_after: Option<u32>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON reply: one object whose members `members` writes, keys in
    /// ascending order, as `serde_json` prints a tree ([`JsonWriter`]).
    pub fn object(status: u16, members: impl FnOnce(&mut JsonWriter<'_>)) -> Self {
        Self::object_with_capacity(status, BODY_CAPACITY, members)
    }

    /// [`object`](Self::object) with room for `capacity` bytes of body to
    /// begin with.
    pub fn object_with_capacity(
        status: u16,
        capacity: usize,
        members: impl FnOnce(&mut JsonWriter<'_>),
    ) -> Self {
        let mut body = String::with_capacity(capacity);
        JsonWriter::new(&mut body).object(members);
        Self {
            status,
            content_type: "application/json",
            retry_after: None,
            body: body.into_bytes(),
        }
    }

    /// The JSON error reply `{"error": detail}`.
    pub fn error(status: u16, detail: impl Display) -> Self {
        Self::object(status, |o| o.key("error").display(detail))
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            retry_after: None,
            body: body.as_bytes().to_vec(),
        }
    }

    /// The shed response: `503` with a `Retry-After` hint, written
    /// straight from the accept path when the work queue is full.
    pub fn shed(retry_after_seconds: u32) -> Self {
        let mut r = Self::object(503, |o| {
            o.key("error").str("server overloaded; request shed");
            o.key("retry_after_seconds")
                .u64(u64::from(retry_after_seconds));
        });
        r.retry_after = Some(retry_after_seconds);
        r
    }

    /// Renders the full wire form (status line, headers, body) of a reply
    /// that closes its connection.
    pub fn render(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.render_into(&mut out, false);
        out
    }

    /// Renders the full wire form into `out`, replacing what it held;
    /// `keep_alive` leaves out `Connection: close`, so an HTTP/1.1 client
    /// keeps the connection for its next request.
    pub fn render_into(&self, out: &mut Vec<u8>, keep_alive: bool) {
        out.clear();
        out.reserve(self.body.len() + 128);
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(out, "Retry-After: {secs}\r\n");
        }
        if !keep_alive {
            out.extend_from_slice(b"Connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }

    /// Renders the reply into `scratch` as [`render_into`](Self::render_into)
    /// says and sends it on `conn` under `deadline`.
    pub fn write_to(
        &self,
        conn: &mut Connection,
        deadline: &Deadline,
        keep_alive: bool,
        scratch: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        self.render_into(scratch, keep_alive);
        conn.send(scratch, deadline)
    }
}

/// The reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(s: &str) -> Result<Request, HttpError> {
        parse_head(s.as_bytes())
    }

    #[test]
    fn parses_simple_get() {
        let req = head("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.segments, vec!["healthz"]);
        assert!(req.query.is_empty());
        assert_eq!(req.path(), "/healthz");
    }

    #[test]
    fn decodes_percent_escapes_and_query() {
        let req = head("GET /decide/Los%20Angeles/big?k=5&x=a%26b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.segments, vec!["decide", "Los Angeles", "big"]);
        assert_eq!(req.query_param("k"), Some("5"));
        assert_eq!(req.query_param("x"), Some("a&b"));
        assert_eq!(req.query_param("absent"), None);
    }

    #[test]
    fn plus_decodes_to_space() {
        let req = head("GET /decide/Los+Angeles/big HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.segments[1], "Los Angeles");
    }

    #[test]
    fn rejects_malformed_heads() {
        for (case, bytes) in [
            ("bad method", "PUT /x HTTP/1.1\r\n\r\n"),
            ("no version", "GET /x\r\n\r\n"),
            ("bad version", "GET /x HTTP/2\r\n\r\n"),
            ("extra tokens", "GET /x HTTP/1.1 extra\r\n\r\n"),
            ("not origin form", "GET http://e/x HTTP/1.1\r\n\r\n"),
            ("dangling escape", "GET /x%2 HTTP/1.1\r\n\r\n"),
            ("non-hex escape", "GET /x%zz HTTP/1.1\r\n\r\n"),
            ("colonless header", "GET /x HTTP/1.1\r\nbadheader\r\n\r\n"),
            ("empty header name", "GET /x HTTP/1.1\r\n: v\r\n\r\n"),
            ("empty", ""),
        ] {
            assert!(head(bytes).is_err(), "{case} should be rejected");
        }
    }

    #[test]
    fn header_flood_is_too_large() {
        let mut s = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            s.push_str(&format!("h{i}: v\r\n"));
        }
        s.push_str("\r\n");
        assert_eq!(head(&s), Err(HttpError::TooLarge));
    }

    #[test]
    fn encode_decode_round_trip() {
        for s in ["Los Angeles", "très grand", "a/b?c&d=e", "ぴかぴか", ""] {
            let encoded = percent_encode(s);
            let req = head(&format!("GET /seg/{encoded} HTTP/1.1\r\n\r\n")).unwrap();
            let want: Vec<&str> = if s.is_empty() {
                vec!["seg"]
            } else {
                vec!["seg", s]
            };
            assert_eq!(req.segments, want, "round-tripping {s:?}");
        }
    }

    #[test]
    fn response_renders_with_length_and_close() {
        let r = Response::text(200, "ok");
        let rendered = String::from_utf8(r.render()).unwrap();
        assert!(rendered.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(rendered.contains("Content-Length: 2\r\n"));
        assert!(rendered.contains("Connection: close\r\n"));
        assert!(rendered.ends_with("\r\n\r\nok"));
    }

    #[test]
    fn a_kept_reply_leaves_out_connection_close() {
        let r = Response::text(200, "ok");
        let mut kept = b"what the buffer held".to_vec();
        r.render_into(&mut kept, true);
        let kept = String::from_utf8(kept).unwrap();
        assert!(!kept.contains("Connection"), "{kept}");
        assert!(kept.contains("Content-Length: 2\r\n\r\nok"), "{kept}");
        let mut closing = Vec::new();
        r.render_into(&mut closing, false);
        assert_eq!(r.render(), closing);
    }

    #[test]
    fn only_a_bodiless_http11_head_without_close_is_persistent() {
        for (case, bytes, want) in [
            ("plain 1.1", "GET /x HTTP/1.1\r\nHost: h\r\n\r\n", true),
            (
                "keep-alive",
                "GET /x HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
                true,
            ),
            (
                "zero length",
                "POST /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                true,
            ),
            (
                "close",
                "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n",
                false,
            ),
            (
                "close, any case",
                "GET /x HTTP/1.1\r\nconnection:  Upgrade, CLOSE\r\n\r\n",
                false,
            ),
            ("HTTP/1.0", "GET /x HTTP/1.0\r\n\r\n", false),
            (
                "1.0 keep-alive",
                "GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                false,
            ),
            (
                "a body",
                "POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\n",
                false,
            ),
            (
                "chunked",
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                false,
            ),
        ] {
            assert_eq!(persistent(bytes.as_bytes()), want, "{case}");
        }
        assert!(!persistent(b"GET /x HTTP/1.1\r\nX: \xff\r\n\r\n"));
    }

    #[test]
    fn read_head_keeps_a_pipelined_request_for_the_next_call() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut server = Connection::new(listener.accept().unwrap().0);
        let first = "GET /a HTTP/1.1\r\n\r\n";
        let second = "GET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        client
            .write_all(format!("{first}{second}GET /c").as_bytes())
            .unwrap();
        drop(client);
        let deadline = Deadline::starting_now(Duration::from_secs(5));
        let head = server.read_head(&deadline).unwrap();
        assert_eq!(head, first.as_bytes());
        let head = server.read_head(&deadline).unwrap();
        assert_eq!(head, second.as_bytes());
        assert_eq!(server.read_head(&deadline), Err(HttpError::Disconnected));
        assert_eq!(server.buffered, b"GET /c");
    }

    #[test]
    fn shed_response_carries_retry_after() {
        let r = Response::shed(1);
        let rendered = String::from_utf8(r.render()).unwrap();
        assert!(rendered.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(rendered.contains("Retry-After: 1\r\n"));
    }
}
