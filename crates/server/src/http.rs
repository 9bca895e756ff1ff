//! Hand-rolled HTTP/1.1 parsing and serialization over std I/O, in the
//! style of the vendored `compat/*` crates: exactly the protocol subset the
//! daemon needs, zero dependencies.
//!
//! Supported: request line + headers + `Content-Length` bodies, keep-alive
//! (HTTP/1.1 default) and `Connection: close`, percent-free query strings.
//! Not supported (requests are rejected, not mis-parsed): chunked transfer
//! encoding, HTTP/1.0 keep-alive, multiline headers.

use std::io::{self, BufRead, Write};

/// Cap on the request line plus all header lines. Oversized requests are
/// rejected with 431 before any allocation proportional to the input.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Cap on `Content-Length`; larger bodies are rejected with 413.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// A parsed request. The target is kept raw (`/path?k=v&...`); accessors
/// split it lazily.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// Raw request target: path plus optional query string.
    pub target: String,
    /// Request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
    /// False when the client sent `Connection: close`.
    pub keep_alive: bool,
}

impl Request {
    /// Path component of the target (before any `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or("")
    }

    /// First value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        let (_, query) = self.target.split_once('?')?;
        query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Query parameter parsed to `T`, or `default` when absent. `Err` when
    /// present but malformed (the caller should answer 400, not guess).
    pub fn query_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, BadQuery> {
        match self.query_param(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| BadQuery),
        }
    }
}

/// A query parameter was present but failed to parse (answer 400).
#[derive(Debug, PartialEq, Eq)]
pub struct BadQuery;

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// Clean end of stream before any request byte: the peer closed an
    /// idle keep-alive connection. Not an error worth logging.
    Eof,
    /// The stream is not well-formed HTTP/1.1; the status code to answer
    /// with before closing (400, 413, 431 or 505).
    Malformed(u16, &'static str),
    /// Transport error (includes read timeouts used for drain polling).
    Io(io::Error),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Read one CRLF- (or LF-) terminated line, enforcing the shared head
/// budget. Returns the line without its terminator.
fn read_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> Result<String, ParseError> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(ParseError::Eof);
    }
    *budget =
        budget.checked_sub(n).ok_or(ParseError::Malformed(431, "request head exceeds 8 KiB"))?;
    if !line.ends_with('\n') {
        return Err(ParseError::Malformed(400, "truncated header line"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Parse one request from `reader`. Blocks until a full request (or the
/// reader's timeout) arrives.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, ParseError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(reader, &mut budget)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || !target.starts_with('/') {
        return Err(ParseError::Malformed(400, "bad request line"));
    }
    if version != "HTTP/1.1" {
        return Err(ParseError::Malformed(505, "only HTTP/1.1 is served"));
    }

    let mut content_length = 0usize;
    let mut keep_alive = true;
    let mut chunked = false;
    loop {
        let line = read_line(reader, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(400, "header line without a colon"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| ParseError::Malformed(400, "unparseable Content-Length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(ParseError::Malformed(413, "body exceeds 1 MiB"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = true;
        }
    }
    if chunked {
        return Err(ParseError::Malformed(400, "chunked bodies are not supported"));
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ParseError::Malformed(400, "body shorter than Content-Length")
        } else {
            ParseError::Io(e)
        }
    })?;
    Ok(Request { method, target, body, keep_alive })
}

/// A response ready to serialize. Construct via the helpers below.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response { status, content_type: "application/json", body: body.into().into_bytes() }
    }

    /// A JSON error envelope: `{"error":"..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(status, format!("{{\"error\":\"{}\"}}\n", message.replace('"', "'")))
    }
}

/// Canonical reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serialize `response` to `writer`. `close` adds `Connection: close` so
/// the client knows this is the connection's last response (drain path).
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    close: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if close { "Connection: close\r\n" } else { "" },
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(&response.body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()))
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /recommend?user=7&n=5 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/recommend");
        assert_eq!(req.query_param("user"), Some("7"));
        assert_eq!(req.query_param("n"), Some("5"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_and_connection_close() {
        let req = parse(
            "POST /recommend_batch HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\n1,2,3",
        )
        .unwrap();
        assert_eq!(req.body, b"1,2,3");
        assert!(!req.keep_alive);
    }

    #[test]
    fn query_or_distinguishes_absent_from_malformed() {
        let req = parse("GET /recommend?n=zebra HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_or("user", 9u32), Ok(9));
        assert_eq!(req.query_or::<u32>("n", 9), Err(BadQuery));
    }

    #[test]
    fn rejects_malformed_streams() {
        for (raw, want) in [
            ("BOGUS\r\n\r\n", 400),
            ("GET /x HTTP/1.0\r\n\r\n", 505),
            ("GET /x HTTP/1.1\r\nContent-Length: zebra\r\n\r\n", 400),
            ("GET /x HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 413),
            ("GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
            ("GET /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nab", 400),
        ] {
            match parse(raw) {
                Err(ParseError::Malformed(status, _)) => assert_eq!(status, want, "{raw:?}"),
                other => panic!("{raw:?}: expected Malformed({want}), got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_stream_is_eof_not_malformed() {
        assert!(matches!(parse(""), Err(ParseError::Eof)));
    }

    #[test]
    fn oversized_head_is_431() {
        let raw = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&raw), Err(ParseError::Malformed(431, _))));
    }

    #[test]
    fn response_roundtrip_has_content_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
