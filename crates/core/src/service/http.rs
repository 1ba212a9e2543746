//! A deliberately tiny HTTP/1.1 subset: just enough wire protocol for
//! the `qspr serve` JSON endpoints, hand-rolled on `std::net` in the
//! same no-new-dependencies spirit as the vendored shims.
//!
//! Scope (and non-goals): request line + headers + `Content-Length`
//! bodies only — no chunked encoding and no TLS. Since the reactor
//! rewrite the server speaks **persistent HTTP/1.1**: responses
//! default to `Connection: keep-alive` and clients may pipeline
//! requests back-to-back on one connection; `Connection: close` (from
//! either side), protocol errors and server drain still close. Limits
//! on the request line, header count and body size bound what an
//! untrusted peer can make the server buffer.
//!
//! The server side parses with [`Parser`], an *incremental* state
//! machine fed arbitrary byte slices as they arrive off a non-blocking
//! socket. Parsing is restartable — each [`Parser::next_request`] call
//! re-examines the buffered prefix — so the outcome depends only on
//! the accumulated bytes, never on how reads were chunked; a property
//! test pins that feeding a stream split at arbitrary boundaries
//! yields byte-for-byte the same requests and errors as feeding it
//! whole.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Longest accepted request line or header line, bytes.
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most headers accepted on one request.
const MAX_HEADERS: usize = 100;
/// Largest accepted request body, bytes (QASM programs are small; the
/// biggest paper circuit is under 4 KiB — `/batch` bodies carry a few
/// dozen of them at most).
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
    /// `Server-Timing` header value: the worker pool sets it on every
    /// response it produces (see `Response::with_server_timing`).
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
    /// long this request waited for a worker and how long the handler
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
/// selects the `Connection` header; the reactor passes `false` on the
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
// Incremental request parser (server side)
// ---------------------------------------------------------------------------

/// An incremental HTTP/1.1 request parser over a growable byte buffer.
///
/// Feed bytes as they arrive with [`Parser::feed`], then drain
/// complete requests with [`Parser::next_request`]. Line endings
/// follow the historical server's tolerance: lines terminate on `\n`
/// and every `\r` is dropped. A protocol violation is returned as an
/// `io::Error` (`InvalidData` → answer `400`; `InvalidInput` → the
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

/// How far `scan_line` got.
enum Line {
    /// A complete line (CRs stripped) ending before `next`.
    Done { text: String, next: usize },
    /// No terminator yet; more bytes are needed.
    Partial,
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
    /// slowloris signal: the reactor times these out).
    pub fn has_partial(&self) -> bool {
        !self.poisoned && self.buf.len() > self.start
    }

    /// Bytes currently buffered and not yet consumed by a request.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts one CR-stripped, `\n`-terminated line starting at
    /// `at`, enforcing the line-length limit.
    fn scan_line(&self, at: usize) -> io::Result<Line> {
        let mut text = Vec::new();
        for (i, &b) in self.buf[at..].iter().enumerate() {
            match b {
                b'\n' => {
                    let text = String::from_utf8(text).map_err(|_| bad("non-UTF-8 line"))?;
                    return Ok(Line::Done {
                        text,
                        next: at + i + 1,
                    });
                }
                b'\r' => {}
                b => text.push(b),
            }
            if text.len() > MAX_REQUEST_LINE {
                return Err(bad("line exceeds limit"));
            }
        }
        Ok(Line::Partial)
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
        match self.try_parse() {
            Ok(Some((request, consumed))) => {
                self.start = consumed;
                // Compact once the dead prefix outgrows the live tail,
                // keeping the buffer proportional to pending data.
                if self.start > 4096 && self.start * 2 > self.buf.len() {
                    self.buf.drain(..self.start);
                    self.start = 0;
                }
                Ok(Some(request))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn try_parse(&self) -> io::Result<Option<(Request, usize)>> {
        let Line::Done { text: line, next } = self.scan_line(self.start)? else {
            return Ok(None);
        };
        let mut parts = line.split_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(m), Some(p), Some(v), None) => (m, p, v),
            _ => return Err(bad("malformed request line")),
        };
        if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
            return Err(bad("unsupported HTTP version"));
        }
        // HTTP/1.0 closes by default; 1.1 keeps alive by default.
        let mut close = version == "HTTP/1.0";
        let mut content_length: usize = 0;
        let mut at = next;
        for _ in 0..MAX_HEADERS {
            let Line::Done { text: header, next } = self.scan_line(at)? else {
                return Ok(None);
            };
            at = next;
            if header.is_empty() {
                // Headers done; the body needs `content_length` bytes.
                let body_end = at
                    .checked_add(content_length)
                    .ok_or_else(|| bad("bad length"))?;
                if self.buf.len() < body_end {
                    return Ok(None);
                }
                let body = String::from_utf8(self.buf[at..body_end].to_vec())
                    .map_err(|_| bad("non-UTF-8 body"))?;
                let request = Request {
                    method: method.to_owned(),
                    path: path.to_owned(),
                    body,
                    close,
                };
                return Ok(Some((request, body_end)));
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad("malformed header"));
            };
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("invalid Content-Length"))?;
                if content_length > MAX_BODY {
                    // InvalidInput (vs InvalidData for syntax errors)
                    // lets the server answer 413 instead of 400.
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "body exceeds limit",
                    ));
                }
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    close = true;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
        Err(bad("too many headers"))
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// A persistent (keep-alive) HTTP client for one connection to the
/// service: the client side `loadgen`, the fault-injection tests and
/// the integration tests drive the server with.
///
/// [`Client::send`] writes one request and blocks for its response;
/// [`Client::write_request`] / [`Client::read_response`] split the two
/// halves so callers can pipeline several requests before reading any
/// response. After a response carrying `Connection: close` (or an I/O
/// error) the connection is dead — [`Client::is_closed`] reports it
/// and the caller reconnects.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
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
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
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
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: qspr\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len(),
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()
    }

    /// Reads one response off the connection (in pipeline order).
    ///
    /// # Errors
    ///
    /// Any socket failure, or a malformed / over-limit response.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let status_line =
            read_line(&mut self.reader, MAX_REQUEST_LINE)?.ok_or_else(|| bad("empty response"))?;
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .or_else(|| status_line.strip_prefix("HTTP/1.0 "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length: usize = 0;
        let mut retry_after = None;
        for _ in 0..MAX_HEADERS {
            let header = read_line(&mut self.reader, MAX_REQUEST_LINE)?
                .ok_or_else(|| bad("truncated headers"))?;
            if header.is_empty() {
                let body = read_body(&mut self.reader, content_length)?;
                // The client does not parse Content-Type back; it
                // reports the default.
                let mut response = Response::new(status, body);
                response.retry_after = retry_after;
                return Ok(response);
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| bad("invalid Content-Length"))?;
                if content_length > MAX_BODY {
                    return Err(bad("response body exceeds limit"));
                }
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                self.closed = true;
            }
        }
        Err(bad("too many headers"))
    }

    /// One request, one response, in order.
    ///
    /// # Errors
    ///
    /// Any socket failure, or a malformed / over-limit response.
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
/// Any socket failure, or a malformed / over-limit response.
pub fn call(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<Response> {
    let mut client = Client::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: qspr\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    client.writer.write_all(head.as_bytes())?;
    client.writer.write_all(body.as_bytes())?;
    client.writer.flush()?;
    client.read_response()
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the
/// terminator. `Ok(None)` only on EOF before the first byte.
fn read_line<R: BufRead>(reader: &mut R, limit: usize) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(bad("unexpected EOF in line"));
            }
            _ => match byte[0] {
                b'\n' => break,
                b'\r' => {}
                b => buf.push(b),
            },
        }
        if buf.len() > limit {
            return Err(bad("line exceeds limit"));
        }
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| bad("non-UTF-8 line"))
}

/// Reads exactly `length` body bytes.
fn read_body<R: BufRead>(reader: &mut R, length: usize) -> io::Result<String> {
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))
}
