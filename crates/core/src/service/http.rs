//! A deliberately tiny HTTP/1.1 subset: just enough wire protocol for
//! the `qspr serve` JSON endpoints, hand-rolled on `std::net` in the
//! same no-new-dependencies spirit as the vendored shims.
//!
//! Scope (and non-goals): request line + headers + `Content-Length`
//! bodies only — no chunked encoding and no TLS. The server speaks
//! **persistent HTTP/1.1**: responses default to
//! `Connection: keep-alive` and clients may pipeline requests
//! back-to-back on one connection; `Connection: close` (from either
//! side), protocol errors and server drain still close. Limits
//! on the first line, header count and body size bound what an
//! untrusted peer can make either side buffer.
//!
//! One private scanner reads every message, request or response, from
//! a byte buffer. It returns nothing while more bytes are needed and
//! re-examines the buffered prefix on each call, so its outcome depends
//! only on the accumulated bytes, never on how reads were chunked. The
//! server's [`Parser`] feeds it byte slices as they arrive off the
//! socket, and [`Client`] the raw bytes of its responses; property
//! tests pin that a stream split at arbitrary boundaries yields the
//! same requests, errors and responses as the stream read whole.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Longest accepted first line (request or status line) or header
/// line: bytes before its `\n`, every `\r` included.
pub(super) const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most headers accepted on one request.
const MAX_HEADERS: usize = 100;
/// Largest accepted request body, bytes. A body carries one QASM
/// program (the biggest paper circuit is under 4 KiB) and at most one
/// `"fabric"` document of up to the service's `MAX_FABRIC_CELLS`
/// (2^18) grid cells, about 256 KiB as ASCII art before JSON escaping;
/// even with every cell escaped as `\uXXXX` it stays under 2 MiB.
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// One parsed HTTP request: method, path, (possibly empty) body, and
/// whether the client asked for the connection to close afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target, e.g. `/map`.
    pub path: String,
    /// Decoded body (empty when no `Content-Length` was sent).
    pub body: String,
    /// `true` when the client sent `Connection: close`, or spoke
    /// HTTP/1.0 without `Connection: keep-alive` — the server answers
    /// this request and then closes.
    pub close: bool,
}

impl Request {
    /// A keep-alive request (the transport-free shape the service
    /// tests use).
    pub fn new(
        method: impl Into<String>,
        path: impl Into<String>,
        body: impl Into<String>,
    ) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            body: body.into(),
            close: false,
        }
    }
}

/// One response about to be written (or just read back by the client).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` to send (`application/json` for every endpoint
    /// except `GET /metrics`, which serves Prometheus text format).
    pub content_type: &'static str,
    /// `Retry-After` header value in seconds (sent on `429` when the
    /// admission queue is full; parsed back by [`Client`]).
    pub retry_after: Option<u64>,
    /// `Server-Timing` header value: the server sets it on every
    /// response produced under a permit (see `Response::with_server_timing`).
    /// [`Client`] does not parse it back.
    pub(crate) server_timing: Option<String>,
}

impl Response {
    /// A JSON response with `status` and `body`.
    pub fn new(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            retry_after: None,
            server_timing: None,
        }
    }

    /// A plain-text response (the Prometheus exposition content type,
    /// which generic text consumers accept too).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            content_type: "text/plain; version=0.0.4",
            ..Response::new(status, body)
        }
    }

    /// Attaches a `Retry-After` hint (used by the `429` admission
    /// response).
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// Attaches `Server-Timing: queue;dur=<ms>, handler;dur=<ms>`: how
    /// long this request waited for a permit and how long the handler
    /// ran, in milliseconds with microsecond resolution. Per-request
    /// time lives here, on the wire, and never in a body, so a cached
    /// body replays byte for byte while its header reports the hit's
    /// own time.
    #[must_use]
    pub(crate) fn with_server_timing(mut self, queue: Duration, handler: Duration) -> Response {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.server_timing = Some(format!(
            "queue;dur={:.3}, handler;dur={:.3}",
            ms(queue),
            ms(handler)
        ));
        self
    }

    /// The standard reason phrase for the status codes this service
    /// emits (anything unlisted degrades to `"Unknown"`).
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Content Too Large",
            422 => "Unprocessable Content",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }
}

/// Serializes `response` as a complete HTTP/1.1 message. `keep_alive`
/// selects the `Connection` header; the server passes `false` on the
/// last response before it closes a connection.
pub fn encode_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len(),
    );
    if let Some(seconds) = response.retry_after {
        head.push_str(&format!("Retry-After: {seconds}\r\n"));
    }
    if let Some(timing) = &response.server_timing {
        head.push_str(&format!("Server-Timing: {timing}\r\n"));
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(response.body.as_bytes());
    bytes
}

// ---------------------------------------------------------------------------
// The message scanner (both sides)
// ---------------------------------------------------------------------------

/// One message [`scan`] read off the front of a buffer.
pub(super) struct Message<T> {
    /// What the caller's check made of the first line.
    pub(super) first: T,
    /// The last `Connection` header: `Some(true)` for `close`,
    /// `Some(false)` for `keep-alive`.
    pub(super) close: Option<bool>,
    /// The `Retry-After` header in seconds, when it parses.
    pub(super) retry_after: Option<u64>,
    pub(super) body: String,
    /// Bytes the message took, body included.
    pub(super) len: usize,
}

/// Scans one message off the front of `buf`: the first line, which
/// `first_line` checks as soon as it is complete (so a malformed
/// request line is refused before its headers arrive), the headers
/// and the `Content-Length` body. Lines end on `\n` and every `\r` is
/// dropped. `Ok(None)` means more bytes are needed; the outcome is a
/// pure function of `buf`.
///
/// # Errors
///
/// Whatever `first_line` returns; `InvalidData` for an over-long line,
/// a malformed header or `Content-Length`, too many headers or
/// non-UTF-8 text; `InvalidInput` when `Content-Length` exceeds
/// [`MAX_BODY`].
pub(super) fn scan<T>(
    buf: &[u8],
    first_line: impl FnOnce(&str) -> io::Result<T>,
) -> io::Result<Option<Message<T>>> {
    // The CR-stripped line starting at `at` and the offset past its
    // `\n`; the length limit counts the stripped `\r`s too, and applies
    // before the terminator arrives.
    let line = |at: usize| -> io::Result<Option<(String, usize)>> {
        let mut text = Vec::new();
        for (i, &b) in buf[at..].iter().enumerate() {
            match b {
                b'\n' => {
                    let text = String::from_utf8(text).map_err(|_| bad("non-UTF-8 line"))?;
                    return Ok(Some((text, at + i + 1)));
                }
                _ if i >= MAX_REQUEST_LINE => return Err(bad("line exceeds limit")),
                b'\r' => {}
                b => text.push(b),
            }
        }
        Ok(None)
    };
    let Some((text, mut at)) = line(0)? else {
        return Ok(None);
    };
    let first = first_line(&text)?;
    let (mut close, mut retry_after, mut content_length) = (None, None, 0);
    for _ in 0..MAX_HEADERS {
        let Some((header, next)) = line(at)? else {
            return Ok(None);
        };
        at = next;
        if header.is_empty() {
            // `content_length` is at most `MAX_BODY`, so this cannot
            // overflow.
            let len = at + content_length;
            let Some(body) = buf.get(at..len) else {
                return Ok(None);
            };
            let body = String::from_utf8(body.to_vec()).map_err(|_| bad("non-UTF-8 body"))?;
            return Ok(Some(Message {
                first,
                close,
                retry_after,
                body,
                len,
            }));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| bad("invalid Content-Length"))?;
            if content_length > MAX_BODY {
                // InvalidInput (vs InvalidData for syntax errors)
                // lets the server answer 413 instead of 400.
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "body exceeds limit",
                ));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = Some(true);
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = Some(false);
            }
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.parse().ok();
        }
    }
    Err(bad("too many headers"))
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}

// ---------------------------------------------------------------------------
// Incremental request parser (server side)
// ---------------------------------------------------------------------------

/// An incremental HTTP/1.1 request parser over a growable byte buffer.
///
/// Feed bytes as they arrive with [`Parser::feed`], then drain
/// complete requests with [`Parser::next_request`]. A protocol
/// violation is returned as an `io::Error` (`InvalidData` → answer `400`; `InvalidInput` → the
/// body limit, answer `413`) and poisons the parser — the connection
/// must close, there is no resynchronization after junk.
///
/// # Examples
///
/// ```
/// use qspr::service::http::Parser;
///
/// let mut parser = Parser::new();
/// // Two pipelined requests, fed in arbitrary chunks.
/// let wire = b"GET /healthz HTTP/1.1\r\n\r\nPOST /map HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
/// let (a, b) = wire.split_at(10);
/// parser.feed(a);
/// assert!(parser.next_request().unwrap().is_none()); // incomplete
/// parser.feed(b);
/// let first = parser.next_request().unwrap().unwrap();
/// assert_eq!((first.method.as_str(), first.path.as_str()), ("GET", "/healthz"));
/// let second = parser.next_request().unwrap().unwrap();
/// assert_eq!(second.body, "{}");
/// assert!(parser.next_request().unwrap().is_none());
/// ```
#[derive(Debug, Default)]
pub struct Parser {
    buf: Vec<u8>,
    /// Offset of the first byte of the current (unparsed) request.
    start: usize,
    /// A protocol error sticks: once violated, the connection closes.
    poisoned: bool,
}

impl Parser {
    /// An empty parser.
    pub fn new() -> Parser {
        Parser::default()
    }

    /// Appends newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// `true` when bytes of an incomplete request are buffered (the
    /// slowloris signal: the server times these out from their first
    /// byte).
    pub fn has_partial(&self) -> bool {
        !self.poisoned && self.buf.len() > self.start
    }

    /// Attempts to parse the next complete request from the buffer.
    ///
    /// Returns `Ok(None)` when more bytes are needed. The outcome is a
    /// pure function of the bytes fed so far — chunking never changes
    /// it.
    ///
    /// # Errors
    ///
    /// `InvalidData` for protocol violations (malformed request line or
    /// header, unsupported version, over-long line, too many headers,
    /// non-UTF-8 text), `InvalidInput` when `Content-Length` exceeds
    /// [`MAX_BODY`]. Errors are sticky.
    pub fn next_request(&mut self) -> io::Result<Option<Request>> {
        if self.poisoned {
            return Err(bad("parser poisoned by an earlier protocol error"));
        }
        let message = match scan(&self.buf[self.start..], request_line) {
            Ok(Some(message)) => message,
            Ok(None) => return Ok(None),
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        self.start += message.len;
        // Compact once the dead prefix outgrows the live tail, keeping
        // the buffer proportional to pending data.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let (method, path, http10) = message.first;
        Ok(Some(Request {
            method,
            path,
            body: message.body,
            // HTTP/1.0 closes by default; 1.1 keeps alive by default.
            close: message.close.unwrap_or(http10),
        }))
    }
}

/// Checks a request line: method, path, and whether it spoke HTTP/1.0.
fn request_line(line: &str) -> io::Result<(String, String, bool)> {
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version @ ("HTTP/1.1" | "HTTP/1.0")), None) => {
            Ok((method.to_owned(), path.to_owned(), version == "HTTP/1.0"))
        }
        (Some(_), Some(_), Some(_), None) => Err(bad("unsupported HTTP version")),
        _ => Err(bad("malformed request line")),
    }
}

/// Checks a status line and returns its status code.
pub(super) fn status_line(line: &str) -> io::Result<u16> {
    line.strip_prefix("HTTP/1.1 ")
        .or_else(|| line.strip_prefix("HTTP/1.0 "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("malformed status line"))
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// A persistent (keep-alive) HTTP client for one connection to the
/// service: the client side the fault-injection and integration tests
/// drive the server with.
///
/// [`Client::send`] writes one request and blocks for its response;
/// [`Client::write_request`] / [`Client::read_response`] split the two
/// halves so callers can pipeline several requests before reading any
/// response. After a response carrying `Connection: close` the
/// connection is dead — [`Client::is_closed`] reports it and the caller
/// reconnects.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Received bytes not yet returned as a response (the start of the
    /// next pipelined one).
    buf: Vec<u8>,
    closed: bool,
}

impl Client {
    /// Connects to `addr` with generous read/write timeouts (mapping a
    /// cold circuit can take a while under load).
    ///
    /// # Errors
    ///
    /// Any socket failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(120)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            closed: false,
        })
    }

    /// `true` once the server closed (or will close) the connection;
    /// further sends fail, reconnect instead.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Writes one keep-alive request without waiting for the response
    /// (the pipelining half; pair with [`Client::read_response`]).
    ///
    /// # Errors
    ///
    /// Any socket failure.
    pub fn write_request(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        self.write(method, path, body, false)
    }

    /// Writes one request, asking the server to close afterwards when
    /// `close` is set.
    fn write(&mut self, method: &str, path: &str, body: &str, close: bool) -> io::Result<()> {
        let connection = if close { "Connection: close\r\n" } else { "" };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: qspr\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{connection}\r\n",
            body.len(),
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()
    }

    /// Reads one response off the connection (in pipeline order).
    ///
    /// # Errors
    ///
    /// Any socket failure; `UnexpectedEof` when the server closes
    /// mid-response; `InvalidData` for a malformed response (or none at
    /// all); `InvalidInput` when its `Content-Length` exceeds
    /// [`MAX_BODY`].
    pub fn read_response(&mut self) -> io::Result<Response> {
        let mut chunk = [0u8; 8 * 1024];
        loop {
            if let Some(message) = scan(&self.buf, status_line)? {
                self.buf.drain(..message.len);
                self.closed |= message.close == Some(true);
                // The client does not parse Content-Type back; it
                // reports the default.
                let mut response = Response::new(message.first, message.body);
                response.retry_after = message.retry_after;
                return Ok(response);
            }
            match self.stream.read(&mut chunk)? {
                0 if self.buf.is_empty() => return Err(bad("empty response")),
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// One request, one response, in order.
    ///
    /// # Errors
    ///
    /// As [`Client::read_response`], and `NotConnected` once the server
    /// has closed the connection.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        if self.closed {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection was closed by the server",
            ));
        }
        self.write_request(method, path, body)?;
        self.read_response()
    }
}

/// One-shot HTTP client: connects to `addr`, sends a single
/// `Connection: close` request and reads the response. Kept alongside
/// [`Client`] for callers that genuinely want one request per
/// connection (health probes, the shutdown call).
///
/// # Errors
///
/// As [`Client::read_response`], and any failure to connect.
pub fn call(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<Response> {
    let mut client = Client::connect(addr)?;
    client.write(method, path, body, true)?;
    client.read_response()
}
