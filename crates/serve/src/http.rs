//! A minimal HTTP/1.1 request reader and response writer over blocking
//! `std::net` streams.
//!
//! This is not a general web server: it reads exactly one request per
//! connection (`Connection: close` semantics), enforces hard header and
//! body size limits before buffering anything, and reports every protocol
//! problem as a typed [`HttpError`] that maps onto a 4xx status — the
//! connection is answered, never dropped or panicked on.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Hard cap on the request line + headers, before any body is read.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// The request target path (query strings are not used by this API).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Every header as `(lowercased-name, trimmed-value)`, in arrival
    /// order (trace context propagation reads `traceparent` from here).
    pub headers: Vec<(String, String)>,
    /// Host nanoseconds spent reading and parsing the head.
    pub head_nanos: u64,
    /// Host nanoseconds spent reading the body.
    pub body_nanos: u64,
}

impl Request {
    /// The first value of a header, by case-insensitive name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps to one 4xx status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line or a header was not valid HTTP.
    Malformed(String),
    /// The request line + headers exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared `Content-Length` exceeds the server's body limit.
    BodyTooLarge {
        /// The declared body length.
        declared: usize,
        /// The server's limit.
        limit: usize,
    },
    /// The connection closed or timed out before a full request arrived.
    Incomplete(String),
}

impl HttpError {
    /// The HTTP status code this error is answered with.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::Incomplete(_) => 408,
        }
    }

    /// A short machine-readable error kind for the JSON error body.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            HttpError::Malformed(_) => "malformed_request",
            HttpError::HeadTooLarge => "headers_too_large",
            HttpError::BodyTooLarge { .. } => "body_too_large",
            HttpError::Incomplete(_) => "incomplete_request",
        }
    }

    /// A human-readable description for the JSON error body.
    #[must_use]
    pub fn reason(&self) -> String {
        match self {
            HttpError::Malformed(reason) => reason.clone(),
            HttpError::HeadTooLarge => {
                format!("request line + headers exceed {MAX_HEAD_BYTES} bytes")
            }
            HttpError::BodyTooLarge { declared, limit } => {
                format!("request body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Incomplete(reason) => reason.clone(),
        }
    }
}

/// Reads one request from `stream`, honouring the configured body limit.
///
/// # Errors
///
/// [`HttpError`] describing the protocol problem; the caller turns it into
/// an error response on the same connection.
pub fn read_request(stream: &TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let mut reader_ref = BufReader::new(stream);
    let mut head = 0usize;
    let head_started = std::time::Instant::now();

    let request_line = read_head_line(&mut reader_ref, &mut head)?;
    let request_line = request_line.trim_end().to_owned();
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_owned(), p.to_owned(), v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol `{version}`"
        )));
    }

    let mut content_length: Option<usize> = None;
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_head_line(&mut reader_ref, &mut head)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header `{header}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            let parsed = value
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length `{value}`")))?;
            content_length = Some(parsed);
        }
        headers.push((name, value));
    }
    let head_nanos = elapsed_nanos(head_started);

    let body_started = std::time::Instant::now();
    let mut body = Vec::new();
    if let Some(len) = content_length {
        if len > max_body {
            return Err(HttpError::BodyTooLarge {
                declared: len,
                limit: max_body,
            });
        }
        body.resize(len, 0);
        reader_ref
            .read_exact(&mut body)
            .map_err(|e| HttpError::Incomplete(format!("body truncated: {e}")))?;
    }
    let body_nanos = elapsed_nanos(body_started);

    Ok(Request {
        method,
        path,
        body,
        headers,
        head_nanos,
        body_nanos,
    })
}

/// Nanoseconds since `start`, saturating into `u64`.
pub(crate) fn elapsed_nanos(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Reads one head line (request line or header), enforcing
/// [`MAX_HEAD_BYTES`] **per byte** — a line that never ends cannot buffer
/// more than the cap, however long the client keeps sending.
fn read_head_line(reader: &mut impl BufRead, head: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => return Err(HttpError::Incomplete("connection closed".into())),
            Ok(_) => {
                *head += 1;
                if *head > MAX_HEAD_BYTES {
                    return Err(HttpError::HeadTooLarge);
                }
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(HttpError::Incomplete(format!("read failed: {e}"))),
        }
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 in headers".into()))
}

/// The reason phrase for the status codes this API uses.
#[must_use]
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One response about to be written: status, content type, extra headers
/// and body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers, e.g. the cache-status marker.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status and body.
    #[must_use]
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response (used by `/metrics`).
    #[must_use]
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Writes the response to `stream`. Write failures are ignored — the
    /// client already went away and the server has nothing left to do for
    /// this connection.
    pub fn write(&self, mut stream: &TcpStream) {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(&self.body);
        let _ = stream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Keep the stream open briefly so a short read is a timeout,
            // not an early close, when the request is truncated.
            s.shutdown(std::net::Shutdown::Write).ok();
            let mut buf = Vec::new();
            let _ = s.read_to_end(&mut buf);
        });
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(500)))
            .unwrap();
        let result = read_request(&stream, max_body);
        // Close our end before joining: the client blocks in read_to_end
        // until the server side goes away.
        drop(stream);
        client.join().unwrap();
        result
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(
            b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn captures_headers_case_insensitively() {
        let req = roundtrip(
            b"POST /run HTTP/1.1\r\nHost: x\r\nTraceParent: 00-abc-def-01\r\nContent-Length: 2\r\n\r\nok",
            1024,
        )
        .unwrap();
        assert_eq!(req.header("traceparent"), Some("00-abc-def-01"));
        assert_eq!(req.header("TRACEPARENT"), Some("00-abc-def-01"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("x-missing"), None);
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_bodies_are_rejected_before_buffering() {
        let err = roundtrip(
            b"POST /run HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            1024,
        )
        .unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.reason().contains("999999"), "{}", err.reason());
    }

    #[test]
    fn malformed_request_lines_are_400() {
        let err = roundtrip(b"NONSENSE\r\n\r\n", 1024).unwrap_err();
        assert_eq!(err.status(), 400);
        let err = roundtrip(b"GET /x SPDY/3\r\n\r\n", 1024).unwrap_err();
        assert_eq!(err.status(), 400);
        let err = roundtrip(
            b"POST /run HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            1024,
        )
        .unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn truncated_bodies_are_incomplete() {
        let err =
            roundtrip(b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 1024).unwrap_err();
        assert_eq!(err.status(), 408);
    }

    #[test]
    fn oversized_heads_are_431() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES));
        let err = roundtrip(&raw, 1024).unwrap_err();
        assert_eq!(err, HttpError::HeadTooLarge);
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn endless_header_lines_are_cut_off_while_the_client_still_sends() {
        // A single newline-free line must hit the cap immediately — not
        // buffer until EOF — even though the client keeps the socket open.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&vec![b'a'; MAX_HEAD_BYTES + 64]).unwrap();
            // No shutdown: block reading until the server gives up on us.
            let mut buf = Vec::new();
            let _ = s.read_to_end(&mut buf);
        });
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let err = read_request(&stream, 1024).unwrap_err();
        assert_eq!(err, HttpError::HeadTooLarge);
        drop(stream);
        client.join().unwrap();
    }
}
