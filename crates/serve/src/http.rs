//! Minimal HTTP/1.1 framing: request parsing and response writing over
//! any `BufRead`/`Write` pair.
//!
//! Deliberately small — exactly what a JSON API over keep-alive
//! connections needs: request line, headers, `Content-Length` bodies,
//! plus chunked transfer *encoding* on responses ([`ChunkedWriter`], for
//! the streaming sweep endpoint). Chunked request bodies, continuations
//! and multipart stay out; everything else is a [`HttpError::Malformed`]
//! and becomes a `400`.

use std::io::{self, BufRead, Write};

use crate::json::Json;

/// Hard cap on the request line plus headers (bytes).
const MAX_HEAD: usize = 16 * 1024;
/// Hard cap on a request body (bytes) — generous for Verilog sources.
const MAX_BODY: usize = 8 * 1024 * 1024;

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the target, query string stripped.
    pub path: String,
    /// Header `(name, value)` pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Transport error (including read timeouts).
    Io(io::Error),
    /// The bytes were not the HTTP subset this server speaks.
    Malformed(String),
    /// Head or body exceeded its size cap.
    TooLarge(&'static str),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one request off the wire. `Ok(None)` means the peer closed the
/// connection cleanly between requests.
///
/// # Errors
///
/// [`HttpError`] on transport failure, a malformed request, or an
/// oversized head/body.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut line = Vec::new();
    let n = read_crlf_line(reader, &mut line, MAX_HEAD)?;
    if n == 0 {
        return Ok(None);
    }
    let request_line = std::str::from_utf8(&line)
        .map_err(|_| HttpError::Malformed("non-utf8 request line".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_owned();

    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        line.clear();
        let n = read_crlf_line(reader, &mut line, MAX_HEAD)?;
        head_bytes += n;
        if head_bytes > MAX_HEAD {
            return Err(HttpError::TooLarge("header block"));
        }
        if line.is_empty() {
            break;
        }
        let text = std::str::from_utf8(&line)
            .map_err(|_| HttpError::Malformed("non-utf8 header".into()))?;
        let (name, value) = text
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': {text}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "chunked bodies are not supported".into(),
        ));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length: {v}")))?,
    };
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge("body"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Reads a line up to CRLF (or bare LF), stripping the terminator.
/// Returns the number of raw bytes consumed; 0 means EOF before any byte.
fn read_crlf_line(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    cap: usize,
) -> Result<usize, HttpError> {
    let mut limited = io::Read::take(&mut *reader, cap as u64 + 1);
    let n = limited.read_until(b'\n', line)?;
    if n > cap {
        return Err(HttpError::TooLarge("request line"));
    }
    if n > 0 && line.last() != Some(&b'\n') {
        return Err(HttpError::Malformed("truncated line".into()));
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    Ok(n)
}

/// One response ready to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the always-present set.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: &Json) -> Response {
        Response {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.to_string().into_bytes(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serializes onto the wire.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// An in-flight `Transfer-Encoding: chunked` response body.
///
/// [`ChunkedWriter::start`] writes the head (status + headers + the
/// chunked framing declaration); each [`chunk`](ChunkedWriter::chunk) is
/// flushed immediately so the peer sees results as they complete;
/// [`finish`](ChunkedWriter::finish) writes the zero-length terminator.
/// Dropping without `finish` leaves the body unterminated, which the
/// client correctly treats as a truncated stream.
pub struct ChunkedWriter<'a, W: Write> {
    w: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Writes the response head and returns the body writer. After this
    /// point the status is on the wire — failures must end the stream,
    /// not downgrade to a plain response.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn start(
        w: &'a mut W,
        status: u16,
        headers: &[(String, String)],
        keep_alive: bool,
    ) -> io::Result<ChunkedWriter<'a, W>> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n",
            status,
            reason(status),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.flush()?;
        Ok(ChunkedWriter { w })
    }

    /// Writes one chunk and flushes. Empty payloads are skipped — a
    /// zero-length chunk would terminate the body.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", bytes.len())?;
        self.w.write_all(bytes)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Terminates the body (`0\r\n\r\n`) and flushes.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn finish(self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse("POST /v1/synth?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 6\r\n\r\n{\"\":0}")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/synth");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"{\"\":0}".to_vec());
        assert!(req.keep_alive());
    }

    #[test]
    fn eof_between_requests_is_a_clean_close() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD));
        assert!(matches!(parse(&raw), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn responses_serialize_with_framing() {
        let mut out = Vec::new();
        Response::json(429, &Json::Null)
            .with_header("retry-after", "1")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nnull"));
    }

    #[test]
    fn chunked_writer_frames_each_chunk_and_terminates() {
        let mut out = Vec::new();
        let headers = vec![("content-type".to_owned(), "application/x-ndjson".to_owned())];
        let mut cw = ChunkedWriter::start(&mut out, 200, &headers, true).unwrap();
        cw.chunk(b"{\"a\":1}\n").unwrap();
        cw.chunk(b"").unwrap(); // skipped, not a terminator
        cw.chunk(&b"x".repeat(0x1f)).unwrap();
        cw.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("content-type: application/x-ndjson\r\n"));
        assert!(
            text.contains("\r\n\r\n8\r\n{\"a\":1}\n\r\n1f\r\n"),
            "{text}"
        );
        assert!(text.ends_with("\r\n0\r\n\r\n"), "{text}");
    }

    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Request lines, well-formed and not.
    const LINES: [&str; 5] = [
        "GET / HTTP/1.1",
        "POST /v1/synth?x=1 HTTP/1.0",
        "post /v1/dse http/1.1",
        "GET /",
        "",
    ];

    /// Header names the reader acts on, and others.
    const NAMES: [&str; 6] = [
        "Content-Length",
        "content-length",
        "Transfer-Encoding",
        "Connection",
        "Host",
        "",
    ];

    /// Header values: lengths around [`MAX_BODY`] and `usize::MAX`, and
    /// text.
    const VALUES: [&str; 9] = [
        "0",
        "7",
        "8388608",
        "8388609",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        " 12 ",
        "chunked",
    ];

    /// Framing pieces, digits or a raw byte: noise between requests.
    fn piece() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            (0..3usize).prop_map(|i| ["\r\n", "\n", ":"][i].as_bytes().to_vec()),
            (0u32..100_000).prop_map(|n| n.to_string().into_bytes()),
            any::<u8>().prop_map(|b| vec![b]),
        ]
    }

    /// One header line: a name, usually a `:`, and a value.
    fn header() -> impl Strategy<Value = String> {
        (0..NAMES.len(), 0..VALUES.len(), 0u32..100_000, 0u8..8).prop_map(
            |(name, value, digits, shape)| {
                let value = match shape {
                    0 => digits.to_string(),
                    _ => VALUES[value].to_owned(),
                };
                let colon = if shape == 1 { "" } else { ":" };
                format!("{}{colon} {value}", NAMES[name])
            },
        )
    }

    /// A request-shaped stretch: a request line, headers and a blank line,
    /// each ended by CRLF or a bare LF, then body bytes and noise.
    fn request() -> impl Strategy<Value = Vec<u8>> {
        (
            0..LINES.len(),
            proptest::collection::vec(header(), 0..4),
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..16),
            proptest::collection::vec(piece(), 0..3),
        )
            .prop_map(|(line, headers, bare_lf, body, noise)| {
                let end = if bare_lf { "\n" } else { "\r\n" };
                let mut raw = String::from(LINES[line]) + end;
                for h in headers {
                    raw += &h;
                    raw += end;
                }
                raw += end;
                let mut raw = raw.into_bytes();
                raw.extend(body);
                raw.extend(noise.concat());
                raw
            })
    }

    proptest! {
        /// No byte stream makes the reader panic: every request on it
        /// reads as `Ok(Some)`, `Ok(None)` or `Err`, until the stream
        /// ends or errors.
        #[test]
        fn read_request_never_panics(
            stream in proptest::collection::vec(prop_oneof![request(), piece()], 0..8),
        ) {
            let raw = stream.concat();
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut reader = BufReader::new(&raw[..]);
                while let Ok(Some(_)) = read_request(&mut reader) {}
            }));
            prop_assert!(
                result.is_ok(),
                "read_request panicked on {:?}",
                String::from_utf8_lossy(&raw)
            );
        }
    }
}
