//! Minimal vendored HTTP/1.1 layer.
//!
//! The build environment has no registry access (vendor/README.md), so the
//! daemon speaks HTTP through this hand-rolled parser instead of a crates.io
//! server stack. Scope is deliberately small — exactly what the serving API
//! needs — but the failure surface is treated as production input:
//!
//! * every malformed, oversized, truncated, or slow input maps to a typed
//!   [`HttpError`] with a definite status code, never a panic;
//! * header bytes and body bytes are capped *before* allocation, so a
//!   hostile `Content-Length` cannot balloon memory;
//! * reads honour the socket timeout, so slow-loris clients that dribble
//!   header bytes are cut off with `408` instead of pinning a thread;
//! * `Transfer-Encoding: chunked` is declined with `501` rather than
//!   half-implemented.
//!
//! The parser is generic over [`Read`] so unit tests drive it from byte
//! slices; the daemon hands it a `TcpStream` with `set_read_timeout`
//! configured.

use std::io::{Read, Write};

/// Hard ceilings and timeouts the parser enforces.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpLimits {
    /// Cap on request-line + header bytes (431 beyond this).
    pub max_header_bytes: usize,
    /// Cap on declared body size (413 beyond this).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_header_bytes: 8 * 1024,
            max_body_bytes: 32 * 1024 * 1024,
        }
    }
}

/// Why a request could not be read. Each variant has a definite HTTP
/// status; none of them panic.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or `Content-Length` value.
    BadRequest(String),
    /// Headers exceeded [`HttpLimits::max_header_bytes`].
    HeadersTooLarge,
    /// Declared body exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge {
        /// Bytes the client declared.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// Body present but no `Content-Length` header.
    LengthRequired,
    /// `Transfer-Encoding: chunked` (not supported).
    ChunkedNotSupported,
    /// The peer stalled past the socket read timeout (slow-loris).
    Timeout,
    /// The peer closed the connection mid-request.
    Truncated,
    /// Transport failure.
    Io(std::io::Error),
}

impl HttpError {
    /// The status code this error should be answered with. `Truncated`
    /// and `Io` have no one to answer — the peer is gone — but still map
    /// to 400 for logging symmetry.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::LengthRequired => 411,
            HttpError::ChunkedNotSupported => 501,
            HttpError::Timeout => 408,
            HttpError::Truncated | HttpError::Io(_) => 400,
        }
    }

    /// Whether it is worth writing an error response at all (the peer may
    /// already be gone).
    pub fn peer_reachable(&self) -> bool {
        !matches!(self, HttpError::Truncated | HttpError::Io(_))
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::HeadersTooLarge => write!(f, "request headers too large"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds limit {limit}")
            }
            HttpError::LengthRequired => write!(f, "Content-Length required"),
            HttpError::ChunkedNotSupported => write!(f, "chunked transfer encoding not supported"),
            HttpError::Timeout => write!(f, "timed out reading request"),
            HttpError::Truncated => write!(f, "connection closed mid-request"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded `k=v` query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True if the client asked for the connection to be closed after
    /// this exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Reads one request. `Ok(None)` means the peer closed the connection
/// cleanly before sending anything (normal keep-alive teardown).
pub fn read_request(
    stream: &mut impl Read,
    limits: &HttpLimits,
) -> Result<Option<Request>, HttpError> {
    // Accumulate until the blank line that ends the headers, never holding
    // more than the header cap.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 2048];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_header_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(e)),
        };
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Truncated);
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    if header_end > limits.max_header_bytes {
        return Err(HttpError::HeadersTooLarge);
    }

    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| HttpError::BadRequest("headers are not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing method".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version `{version}`"
        )));
    }
    if parts.next().is_some() {
        return Err(HttpError::BadRequest("malformed request line".into()));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = parse_target(target)?;

    let mut req = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };

    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::ChunkedNotSupported);
    }

    let content_length = match req.header("content-length") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length `{v}`")))?,
        ),
        None => None,
    };

    // Leftover bytes after the header terminator are the body prefix.
    let body_start = header_end + header_terminator_len(&buf, header_end);
    let mut body: Vec<u8> = buf.get(body_start..).unwrap_or(&[]).to_vec();

    let declared = match content_length {
        Some(n) => n,
        None => {
            if req.method == "POST" || req.method == "PUT" || !body.is_empty() {
                return Err(HttpError::LengthRequired);
            }
            0
        }
    };
    if declared > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge {
            declared,
            limit: limits.max_body_bytes,
        });
    }
    if body.len() > declared {
        return Err(HttpError::BadRequest(
            "body longer than Content-Length".into(),
        ));
    }
    while body.len() < declared {
        let want = (declared - body.len()).min(chunk.len());
        let n = match stream.read(&mut chunk[..want]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(e)),
        };
        if n == 0 {
            return Err(HttpError::Truncated);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    req.body = body;
    Ok(Some(req))
}

/// Byte offset where the header block ends (exclusive of the terminator),
/// accepting both CRLFCRLF and bare LFLF.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .into_iter()
        .chain(buf.windows(2).position(|w| w == b"\n\n"))
        .min()
}

fn header_terminator_len(buf: &[u8], end: usize) -> usize {
    if buf.get(end..end + 4) == Some(&b"\r\n\r\n"[..]) {
        4
    } else {
        2
    }
}

fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), HttpError> {
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "request target `{target}` is not a path"
        )));
    }
    let (path, qs) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = Vec::new();
    for pair in qs.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.push((k.to_string(), v.to_string()));
    }
    Ok((path.to_string(), query))
}

/// Reason phrase for the status codes this daemon emits.
pub fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One response ready to serialise.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Send `Connection: close` and drop the connection afterwards.
    pub close: bool,
    /// Emit a `Retry-After: <secs>` header (back-pressure responses).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            close: false,
            retry_after: None,
        }
    }

    /// The same response carrying a `Retry-After: <secs>` header when
    /// `secs` is set.
    pub fn with_retry_after(mut self, secs: Option<u64>) -> Response {
        self.retry_after = secs;
        self
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body = match serde_json::to_string(message) {
            Ok(m) => format!("{{\"error\":{m}}}"),
            Err(_) => "{\"error\":\"unrepresentable error\"}".to_string(),
        };
        let mut r = Response::json(status, body);
        r.close = status >= 500 || status == 408 || status == 413 || status == 431;
        r
    }

    /// The response for a request-level parse failure.
    pub fn from_http_error(e: &HttpError) -> Response {
        let mut r = Response::error(e.status(), &e.to_string());
        r.close = true;
        r
    }

    /// Serialises status line, headers, and body.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let retry = match self.retry_after {
            Some(secs) => format!("Retry-After: {secs}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            retry,
            if self.close { "close" } else { "keep-alive" },
        );
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut &bytes[..], &HttpLimits::default())
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /v1/t00/forecast?h=12&x=y HTTP/1.1\r\nHost: a\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/t00/forecast");
        assert_eq!(req.query_param("h"), Some("12"));
        assert_eq!(req.query_param("x"), Some("y"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_split_across_reads() {
        let req = parse(b"POST /v1/a/ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn truncated_request_is_typed() {
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nHost:"),
            Err(HttpError::Truncated)
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Truncated)
        ));
    }

    #[test]
    fn bad_content_length_is_400() {
        let e = parse(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), 400);
    }

    #[test]
    fn missing_content_length_on_post_is_411() {
        let e = parse(b"POST /x HTTP/1.1\r\nHost: a\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), 411);
    }

    #[test]
    fn oversized_declared_body_is_413_without_reading_it() {
        let limits = HttpLimits {
            max_body_bytes: 16,
            ..HttpLimits::default()
        };
        let bytes: &[u8] = b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        let e = read_request(&mut &bytes[..], &limits).unwrap_err();
        assert_eq!(e.status(), 413);
    }

    #[test]
    fn oversized_headers_are_431() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(vec![b'a'; 9000]);
        let e = parse(&raw).unwrap_err();
        assert_eq!(e.status(), 431);
    }

    #[test]
    fn chunked_is_501() {
        let e = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), 501);
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            &b"NONSENSE\r\n\r\n"[..],
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
        ] {
            let e = parse(raw).unwrap_err();
            assert_eq!(e.status(), 400, "{:?}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{}".into()).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(!text.contains("Retry-After"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn retry_after_header_is_emitted() {
        let mut out = Vec::new();
        Response::error(503, "overloaded")
            .with_retry_after(Some(1))
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Retry-After: 1\r\n"));
    }
}
