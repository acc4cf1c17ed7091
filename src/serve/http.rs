//! A minimal HTTP/1.1 layer over `std::net::TcpStream` — just enough for the
//! experiment service: one request per connection, JSON bodies, explicit
//! size limits on untrusted input, `Connection: close` semantics.

use std::io::{Read, Write};
use std::net::TcpStream;

use fetchmech::json::Value;

/// Maximum bytes of request head (request line + headers) accepted.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum request body accepted.
const MAX_BODY_BYTES: usize = 256 * 1024;

/// A parsed request: method, path, and the (possibly empty) body.
#[derive(Debug)]
pub(crate) struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, e.g. `/v1/simulate` (query strings are kept
    /// verbatim; the service does not use them).
    pub path: String,
    /// Raw request body.
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Socket error (including read timeouts).
    Io(std::io::Error),
    /// Head or body exceeded the size limits.
    TooLarge,
    /// The bytes were not a well-formed HTTP/1.x request.
    Malformed(&'static str),
    /// The peer closed the connection before sending a full request (an
    /// empty probe connection, e.g. a health checker's TCP ping).
    Closed,
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one request from the stream.
///
/// # Errors
///
/// See [`ReadError`]; callers map `TooLarge` to 413, `Malformed` to 400, and
/// drop the connection silently on `Closed`.
pub(crate) fn read_request(stream: &mut TcpStream) -> Result<Request, ReadError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return if buf.is_empty() {
                Err(ReadError::Closed)
            } else {
                Err(ReadError::Malformed("truncated request head"))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Malformed("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(ReadError::Malformed("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(ReadError::Malformed("missing method"))?
        .to_string();
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or(ReadError::Malformed("missing request path"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(ReadError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed("unsupported HTTP version"));
    }

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Malformed("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge);
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ReadError::Malformed("truncated request body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A JSON response ready to be written.
#[derive(Debug)]
pub(crate) struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Rendered JSON body (without the trailing newline; one is added on the
    /// wire for terminal friendliness).
    pub body: String,
    /// When set, a `Retry-After: <secs>` header — attached to 429/503 shed
    /// responses so well-behaved clients back off instead of hammering.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A response whose body is the pretty-rendered `value`.
    #[must_use]
    pub(crate) fn json(status: u16, value: &Value) -> Self {
        Self {
            status,
            body: value.pretty(),
            retry_after: None,
        }
    }

    /// A 200 response around an already-rendered JSON body (the store's
    /// byte-identical replay path — no re-rendering).
    #[must_use]
    pub(crate) fn raw_json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            retry_after: None,
        }
    }

    /// The standard `{"error": code, "detail": detail}` failure body.
    #[must_use]
    pub(crate) fn error(status: u16, code: &str, detail: impl Into<String>) -> Self {
        Self::json(
            status,
            &Value::object([
                ("error", Value::Str(code.to_string())),
                ("detail", Value::Str(detail.into())),
            ]),
        )
    }

    /// Attaches a `Retry-After` hint (whole seconds).
    #[must_use]
    pub(crate) fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }

    /// Serializes the response (status line, JSON headers,
    /// `Connection: close`, body + newline) onto the stream.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors; the caller just drops the connection.
    pub(crate) fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let retry = match self.retry_after {
            Some(secs) => format!("Retry-After: {secs}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.body.len() + 1,
            retry,
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()
    }
}

/// The reason phrase for the status codes the service emits.
#[must_use]
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}
