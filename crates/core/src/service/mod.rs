//! `qspr serve` — a long-running mapping service with a result cache.
//!
//! Every other entry point in the workspace is a one-shot process: the
//! CLI re-parses, re-places and re-routes from scratch on each
//! invocation, even though the flow is
//! fully seed-determined and identical requests are common (the same
//! QECC encode blocks recur across suites). This module keeps the
//! mapper resident behind a small, dependency-free front end:
//!
//! - **Persistent HTTP/1.1.** A blocking `std::net` accept loop runs
//!   one thread per connection. Connections are keep-alive by default
//!   and clients may pipeline requests back-to-back; each connection
//!   answers one request at a time, so responses come back in request
//!   order.
//! - **A result cache.** Response bodies live in one
//!   [`ResultCache`] — an LRU behind one lock, keyed by the canonical
//!   [`Flow::fingerprint`](crate::Flow::fingerprint), with byte
//!   accounting. Repeated requests return byte-identical cached
//!   responses without touching the mapper.
//! - **Admission control.** The heavy endpoints share `--threads`
//!   permits, and each has a bounded wait queue; when it is full the
//!   server answers `429 Too Many Requests` with a `Retry-After` header
//!   instead of queueing without bound, so an overloaded server
//!   degrades predictably. Graceful drain is preserved: shutdown
//!   closes the listener, and every connection finishes and writes the
//!   request it is serving before it closes.
//!
//! # Endpoints
//!
//! | endpoint | body | response |
//! |---|---|---|
//! | `POST /map` | `{"program", "policy"?, "router"?, "m"?, "jobs"?, "trace"?, "fabric"?}` | the [`FlowSummary`](crate::FlowSummary) JSON of `qspr map --format json` |
//! | `POST /compare` | `{"program", "name"?, "router"?, "m"?, "jobs"?, "fabric"?}` | the [`ComparisonRow`](crate::ComparisonRow) JSON of `qspr compare --format json` |
//! | `POST /sta` | `{"program", "policy"?, "router"?, "m"?, "jobs"?, "fabric"?}` | the [`qspr_sta::TimingReport`] JSON of `qspr sta --format json` |
//! | `GET /healthz` | — | `{"status":"ok","version":...}` (the crate version the CLI reports) |
//! | `GET /stats` | — | [`StatsSnapshot`] JSON: requests, cache hits/misses/evictions, rejections, worker busy time, uptime, bound address |
//! | `GET /metrics` | — | Prometheus text exposition: request counts by endpoint/status, cache hits/misses, queue depth and wait, rejections, handler latency, per-phase span timings |
//! | `POST /shutdown` | — | `{"status":"shutting-down"}`, then a graceful drain |
//!
//! Every response produced under a permit (the three `POST` mapping
//! endpoints, unless rejected with `429`) carries a
//! `Server-Timing: queue;dur=<ms>, handler;dur=<ms>` header: the
//! request's own wait for a permit and its own handler time, so a
//! cache hit reports the hit, not the miss that filled the cache.
//! Bodies carry no clock.
//!
//! Defaults mirror the CLI: `policy` `"qspr"`, `router` `"greedy"`,
//! `m` 25, `jobs` 1, `trace` false. The `"jobs"` field runs the
//! request's MVFB seeds on that many threads, like the `--jobs` flag
//! of `qspr map`; it never changes response bytes, and the service
//! clamps it to [`MapService::jobs_budget`] so concurrent heavy
//! requests times seed threads cannot oversubscribe the host. A client
//! that wants many Table 2 rows sends one `/compare` per circuit,
//! pipelined on one keep-alive connection if it likes. The optional
//! `"fabric"` field carries a fabric as ASCII art embedded in a string
//! (the `--fabric` file format) and maps that request onto it instead
//! of the server's resident fabric; malformed art, or a program with
//! more qubits than the fabric has traps, is `422`. Unknown body fields are rejected (`400`), an
//! unmappable program is `422`, and every response is
//! `application/json` (except `GET /metrics`, which is Prometheus
//! plain text). Untrusted input is bounded on every axis: request
//! line/header/body size limits in [`http`], JSON nesting depth in the
//! parser, `m` (the one field that scales *work*, not input size)
//! between 1 and 10 000 seeds per request, one program per request,
//! a `"fabric"` document capped at 262 144 grid cells, one request
//! answered at a time per connection, and the admission queues
//! bounded by `--max-queue`.
//!
//! # Determinism and the cache
//!
//! The flow is seed-determined and no body carries a clock, so the
//! body of every mapping response (`/map`, `/compare`, `/sta`) is a
//! pure function of its request: `/map` bodies are byte-identical to
//! `qspr map --format json`, `/compare` bodies to the CLI's comparison
//! rows, for the same inputs. The cache stores the cold body verbatim
//! and the first writer of a key wins: a miss that finishes after an
//! identical one answers with the body already cached, so repeated
//! requests are byte-identical. Where time went is reported beside the
//! body, in the `Server-Timing` header, the access log and `/metrics`.
//! The service tests assert
//! both properties, in process under concurrent clients
//! (`tests/service_e2e.rs`) and against the spawned `qspr serve`
//! binary (`crates/core/tests/serve_binary.rs`).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use qspr::service::{MapService, ServeConfig, Server, http};
//! use qspr_fabric::Fabric;
//!
//! # fn main() -> std::io::Result<()> {
//! let service = Arc::new(MapService::new(Fabric::quale_45x85(), 64)); // 64-entry cache
//! let config = ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     threads: 2,
//!     ..ServeConfig::default()
//! };
//! let handle = Server::bind(Arc::clone(&service), &config)?.spawn();
//!
//! // One persistent connection, several requests.
//! let mut client = http::Client::connect(handle.addr())?;
//! let health = client.send("GET", "/healthz", "")?;
//! assert_eq!(health.status, 200);
//! assert!(health.body.starts_with(r#"{"status":"ok","version":"#));
//!
//! let metrics = client.send("GET", "/metrics", "")?;
//! assert!(metrics.body.contains("# TYPE qspr_http_requests_total counter"));
//! assert!(!client.is_closed()); // still keep-alive
//!
//! handle.shutdown()?;
//! # Ok(())
//! # }
//! ```

pub mod http;

mod cache;
mod transport;

pub use cache::{CacheConfig, CacheStats, ResultCache, DEFAULT_CACHE_ENTRIES};
pub use http::{Request, Response};

use std::fmt;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use qspr_fabric::Fabric;
use qspr_obs::{Counter, Registry};
use qspr_qasm::Program;
use qspr_route::RouterKind;

use crate::error::QsprError;
use crate::flow::Flow;
use crate::json::{JsonObject, JsonValue, ToJson};
use crate::FlowPolicy;

/// How a [`Server`] binds, how many heavy requests it runs at once,
/// and how it paces its connections. (The result-cache geometry belongs to
/// [`MapService::new`] / [`MapService::with_cache`] — the service, not
/// the transport, owns the cache.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Permits for the heavy endpoints: at most this many `/map`,
    /// `/compare` and `/sta` requests run at once (clamped to at least
    /// 1; `--threads` on the CLI).
    pub threads: usize,
    /// Emit one structured access-log line per request to stderr
    /// (`--log` on the CLI).
    pub log: bool,
    /// Idle seconds before a keep-alive connection is closed. `0`
    /// disables persistence entirely: every response carries
    /// `Connection: close` (`--keep-alive 0` on the CLI).
    pub keep_alive_secs: u64,
    /// Most requests that may wait for a permit, per heavy endpoint; a
    /// request arriving past it is answered `429` + `Retry-After`
    /// instead of waiting (`--max-queue` on the CLI).
    pub max_queue: usize,
}

impl Default for ServeConfig {
    /// `127.0.0.1:7878`, one permit per CPU, no access log, 30-second
    /// keep-alive, 256-deep admission queues.
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            threads: thread::available_parallelism().map_or(1, |n| n.get()),
            log: false,
            keep_alive_secs: 30,
            max_queue: 256,
        }
    }
}

/// Default MVFB seed count when a request omits `"m"` — the same
/// default the CLI applies to `--m`.
const DEFAULT_SEEDS: usize = 25;

/// Largest `"m"` accepted from a request body. Seeds are the one
/// request field that scales *work* rather than input size (each seed
/// is a full placement search), so an untrusted body must not be able
/// to pin a worker with `m = 4e9` the way the CLI's operator-supplied
/// `--m` legitimately may. 10k is ~100x the paper's largest setting.
const MAX_SEEDS: usize = 10_000;

/// Largest grid a request's `"fabric"` document may describe, in cells
/// (`rows × cols`). Building a fabric costs time linear in its cells,
/// and ragged lines are padded to the longest, so without a cap a few
/// KiB of newlines and one long line could buy seconds of work; 2^18 is
/// a 512×512 grid, ~68x the paper's 45×85 fabric.
const MAX_FABRIC_CELLS: usize = 1 << 18;

/// Monotonic service counters (updated with relaxed atomics; the
/// counters are statistics, not synchronization).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    map_requests: AtomicU64,
    compare_requests: AtomicU64,
    sta_requests: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    busy_us: AtomicU64,
}

/// A point-in-time copy of the service counters, serialized by
/// `GET /stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total requests handled (every endpoint, every status, including
    /// rejected and protocol-error requests).
    pub requests: u64,
    /// `POST /map` requests.
    pub map_requests: u64,
    /// `POST /compare` requests.
    pub compare_requests: u64,
    /// `POST /sta` requests.
    pub sta_requests: u64,
    /// Mapping-cache hits.
    pub cache_hits: u64,
    /// Mapping-cache misses (cold mappings executed).
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_entries: u64,
    /// Configured total cache capacity (entries).
    pub cache_capacity: u64,
    /// Bytes currently cached (keys + values).
    pub cache_bytes: u64,
    /// Entries evicted by capacity pressure.
    pub cache_evictions: u64,
    /// Requests answered `429` by admission control.
    pub rejected: u64,
    /// Responses with a 4xx/5xx status.
    pub errors: u64,
    /// Cumulative wall-clock time workers spent handling requests, µs.
    pub busy_us: u64,
    /// Milliseconds since the service was created.
    pub uptime_ms: u64,
    /// Whole seconds since the service was created (`uptime_ms /
    /// 1000`, pre-divided for dashboards).
    pub uptime_s: u64,
    /// The server's bound address (empty until a [`Server`] binds the
    /// service to a socket).
    pub addr: String,
}

impl ToJson for StatsSnapshot {
    /// Stable JSON schema, pinned by a golden test:
    /// `{"requests","map_requests","compare_requests","sta_requests",
    /// "cache_hits","cache_misses","cache_entries","cache_capacity",
    /// "cache_bytes","cache_evictions","rejected","errors","busy_us",
    /// "uptime_ms","uptime_s","addr"}`.
    fn to_json(&self) -> String {
        JsonObject::new()
            .number("requests", self.requests)
            .number("map_requests", self.map_requests)
            .number("compare_requests", self.compare_requests)
            .number("sta_requests", self.sta_requests)
            .number("cache_hits", self.cache_hits)
            .number("cache_misses", self.cache_misses)
            .number("cache_entries", self.cache_entries)
            .number("cache_capacity", self.cache_capacity)
            .number("cache_bytes", self.cache_bytes)
            .number("cache_evictions", self.cache_evictions)
            .number("rejected", self.rejected)
            .number("errors", self.errors)
            .number("busy_us", self.busy_us)
            .number("uptime_ms", self.uptime_ms)
            .number("uptime_s", self.uptime_s)
            .string("addr", &self.addr)
            .build()
    }
}

/// The resident mapping service: one shared fabric, one LRU cache of
/// response bodies.
///
/// `MapService` is transport-free — [`MapService::handle`] maps a
/// parsed [`Request`] to a [`Response`] and is what the golden tests
/// exercise; [`Server`] adds the TCP listener, connection threads and
/// permit gate on top.
pub struct MapService {
    fabric: Arc<Fabric>,
    /// Upper bound on a request's `"jobs"` value (see
    /// [`MapService::jobs_budget`]).
    jobs_budget: usize,
    cache: ResultCache,
    /// Cache hits and misses, one count per lookup, behind both
    /// `/stats` and `/metrics`; created once so a lookup never
    /// searches the registry.
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    counters: Counters,
    /// The Prometheus-rendered metrics behind `GET /metrics`.
    metrics: Arc<Registry>,
    /// Set by [`Server::bind`]; surfaced in `/stats`.
    bound_addr: Mutex<Option<SocketAddr>>,
    started: Instant,
    shutdown: AtomicBool,
}

impl fmt::Debug for MapService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapService")
            .field(
                "fabric",
                &format_args!("{}x{}", self.fabric.rows(), self.fabric.cols()),
            )
            .field("started", &self.started)
            .field("shutdown", &self.shutdown)
            .finish_non_exhaustive()
    }
}

/// Which mapping endpoint a request hit (they differ in allowed fields
/// and response schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Map,
    Compare,
    Sta,
}

/// A parsed, validated mapping request body.
#[derive(Debug)]
struct MapRequest {
    program_text: String,
    program: Program,
    policy: FlowPolicy,
    router: RouterKind,
    seeds: usize,
    trace: bool,
    /// Worker threads granted to the mapper (clamped to the service's
    /// [`MapService::jobs_budget`] before use; never changes bytes).
    jobs: usize,
    /// `/compare` only: the circuit name echoed in the row.
    name: String,
    /// Optional fabric as ASCII art, overriding the server's resident
    /// fabric for this request.
    fabric: Option<String>,
}

impl MapService {
    /// Creates a service mapping onto `fabric` with a
    /// `cache_capacity`-entry result cache.
    pub fn new(fabric: impl Into<Arc<Fabric>>, cache_capacity: usize) -> MapService {
        let metrics = Arc::new(Registry::new());
        MapService {
            fabric: fabric.into(),
            jobs_budget: thread::available_parallelism().map_or(1, |n| n.get()),
            cache: ResultCache::new(cache_capacity),
            cache_hits: metrics.counter("qspr_cache_hits_total", "Mapping-cache hits.", &[]),
            cache_misses: metrics.counter(
                "qspr_cache_misses_total",
                "Mapping-cache misses (cold mappings executed).",
                &[],
            ),
            counters: Counters::default(),
            metrics,
            bound_addr: Mutex::new(None),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Replaces the result cache with one built from `config`.
    /// Existing entries are discarded; use at construction time.
    #[must_use]
    pub fn with_cache(mut self, config: CacheConfig) -> MapService {
        self.cache = ResultCache::new(config.entries);
        self
    }

    /// The fabric every request maps onto.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The result cache (exposed for tests and stats).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Sets the server-wide cap on per-request `"jobs"` values
    /// (clamped to at least 1; defaults to the host's available
    /// parallelism).
    ///
    /// `"jobs"` scales *threads* the way `"m"` scales work, so an
    /// untrusted body must not be able to multiply the heavy-request
    /// permits.
    /// Values above the budget are clamped silently rather than
    /// rejected — `"jobs"` is a performance hint that never changes
    /// response bytes, so clamping preserves the answer.
    #[must_use]
    pub fn with_jobs_budget(mut self, budget: usize) -> MapService {
        self.jobs_budget = budget.max(1);
        self
    }

    /// The largest `"jobs"` value a request is granted; anything above
    /// is clamped down before the flow is configured.
    pub fn jobs_budget(&self) -> usize {
        self.jobs_budget
    }

    /// The metrics registry rendered by `GET /metrics`. Shared so the
    /// CLI can install a [`qspr_obs::MetricsSpanSink`] over the same
    /// registry and surface per-phase mapping spans alongside the
    /// request metrics.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Records the address a [`Server`] bound this service to (surfaced
    /// in `/stats`).
    pub fn set_bound_addr(&self, addr: SocketAddr) {
        *self.bound_addr.lock().expect("bound_addr lock") = Some(addr);
    }

    /// `true` once a `POST /shutdown` (or [`MapService::request_shutdown`])
    /// asked the server to stop accepting connections.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Asks the accept loop to stop (idempotent).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// A copy of the current counters.
    pub fn stats(&self) -> StatsSnapshot {
        let c = &self.counters;
        let cache = self.cache.stats();
        let uptime = self.started.elapsed();
        StatsSnapshot {
            requests: c.requests.load(Ordering::Relaxed),
            map_requests: c.map_requests.load(Ordering::Relaxed),
            compare_requests: c.compare_requests.load(Ordering::Relaxed),
            sta_requests: c.sta_requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_entries: cache.entries,
            cache_capacity: self.cache.capacity() as u64,
            cache_bytes: cache.bytes,
            cache_evictions: cache.evictions,
            rejected: c.rejected.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            busy_us: c.busy_us.load(Ordering::Relaxed),
            uptime_ms: uptime.as_millis() as u64,
            uptime_s: uptime.as_secs(),
            addr: self
                .bound_addr
                .lock()
                .expect("bound_addr lock")
                .map_or(String::new(), |addr| addr.to_string()),
        }
    }

    /// Routes one request to its endpoint and produces the response.
    ///
    /// This is the whole service minus the socket: deterministic,
    /// lock-scoped, safe to call from any number of threads.
    pub fn handle(&self, request: &Request) -> Response {
        let t0 = Instant::now();
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let response = match (request.method.as_str(), request.path.as_str()) {
            // The version is the one `qspr --version` prints; both read
            // the same Cargo manifest field at compile time.
            ("GET", "/healthz") => Response::new(
                200,
                concat!(
                    r#"{"status":"ok","version":""#,
                    env!("CARGO_PKG_VERSION"),
                    "\"}"
                ),
            ),
            ("GET", "/stats") => Response::new(200, self.stats().to_json()),
            ("GET", "/metrics") => Response::text(200, self.metrics.render()),
            ("POST", "/shutdown") => {
                self.request_shutdown();
                Response::new(200, r#"{"status":"shutting-down"}"#)
            }
            ("POST", "/map") => self.mapping(Endpoint::Map, &request.body),
            ("POST", "/compare") => self.mapping(Endpoint::Compare, &request.body),
            ("POST", "/sta") => self.mapping(Endpoint::Sta, &request.body),
            (_, path) if KNOWN_PATHS.contains(&path) => {
                error_response(405, &format!("method {} not allowed here", request.method))
            }
            (_, path) => error_response(404, &format!("no endpoint {path}")),
        };
        if response.status >= 400 {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        let elapsed_us = t0.elapsed().as_micros() as u64;
        self.counters
            .busy_us
            .fetch_add(elapsed_us, Ordering::Relaxed);
        let endpoint = endpoint_label(&request.path);
        let status = response.status.to_string();
        self.metrics
            .counter(
                "qspr_http_requests_total",
                "Requests handled, by endpoint and status.",
                &[("endpoint", endpoint), ("status", &status)],
            )
            .inc();
        self.metrics
            .histogram(
                "qspr_handler_latency_us",
                "Wall-clock handler time per request, microseconds.",
                &[("endpoint", endpoint)],
            )
            .record(elapsed_us);
        response
    }

    /// The `429 Too Many Requests` answer for a heavy request that found
    /// its endpoint's wait queue full: counted as a request and an
    /// error, tagged with a one-second `Retry-After` (the queue drains
    /// at mapping-request speed, so "soon" is the honest hint).
    pub fn reject(&self, endpoint: &'static str) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .counter(
                "qspr_http_requests_total",
                "Requests handled, by endpoint and status.",
                &[("endpoint", endpoint), ("status", "429")],
            )
            .inc();
        self.metrics
            .counter(
                "qspr_rejected_total",
                "Requests rejected by admission control, by endpoint.",
                &[("endpoint", endpoint)],
            )
            .inc();
        error_response(
            429,
            &format!("admission queue for {endpoint} is full; retry shortly"),
        )
        .with_retry_after(1)
    }

    /// The response for a connection-level protocol error (counted as a
    /// request so `/stats` keeps adding up): `413` for an over-limit
    /// body, `400` for everything else the parser rejects.
    pub fn protocol_response(&self, error: &io::Error) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        let status = if error.kind() == io::ErrorKind::InvalidInput {
            413
        } else {
            400
        };
        let status_text = status.to_string();
        self.metrics
            .counter(
                "qspr_http_requests_total",
                "Requests handled, by endpoint and status.",
                &[("endpoint", "other"), ("status", &status_text)],
            )
            .inc();
        error_response(status, &error.to_string())
    }

    /// `POST /map`, `POST /compare` and `POST /sta`: parse, consult
    /// the cache, run the flow on a miss, store and return the body.
    fn mapping(&self, endpoint: Endpoint, body: &str) -> Response {
        let counter = match endpoint {
            Endpoint::Map => &self.counters.map_requests,
            Endpoint::Compare => &self.counters.compare_requests,
            Endpoint::Sta => &self.counters.sta_requests,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let request = match parse_mapping_request(endpoint, body) {
            Ok(request) => request,
            Err(e) => return error_response(400, &e.to_string()),
        };
        // A request-supplied fabric document replaces the resident
        // fabric for this request only.
        let fabric = match request_fabric(request.fabric.as_deref()) {
            Ok(fabric) => fabric,
            Err(response) => return response,
        };
        let mut flow = self.flow_for(&request, fabric);
        // Timing analysis replays the recorded trace, so `/sta` forces
        // trace recording.
        if endpoint == Endpoint::Sta {
            flow = flow.record_trace(true);
        }
        let fabric_key = fabric_cache_key(request.fabric.as_deref());
        let fingerprint = flow.fingerprint(&request.program_text);
        let key = match endpoint {
            Endpoint::Map => format!("map|{fabric_key}{fingerprint}"),
            Endpoint::Compare => {
                let name = &request.name;
                format!("compare|{fabric_key}{}:{name}|{fingerprint}", name.len())
            }
            // The fingerprint already carries the trace axis set above.
            Endpoint::Sta => format!("sta|{fabric_key}{fingerprint}"),
        };
        if let Some(cached) = self.cache_lookup(&key) {
            return Response::new(200, cached);
        }
        let result = match endpoint {
            Endpoint::Map => flow.run(&request.program).map(|r| r.summary().to_json()),
            Endpoint::Compare => flow
                .compare(&request.name, &request.program)
                .map(|row| row.to_json()),
            Endpoint::Sta => flow.run(&request.program).and_then(|result| {
                flow.timing_report(&request.program, &result)
                    .map(|report| report.to_json())
            }),
        };
        match result {
            // An identical request may have finished first; answer with
            // what the cache holds so every replay matches this reply.
            Ok(json) => Response::new(200, self.cache.insert(key, json)),
            // The program parsed but cannot be mapped (stall, placement
            // mismatch): the request was well-formed, the content is not
            // processable.
            Err(e) => error_response(422, &e.to_string()),
        }
    }

    /// Looks `key` up in the result cache, mirroring the outcome into
    /// `/metrics`.
    fn cache_lookup(&self, key: &str) -> Option<String> {
        let value = self.cache.get(key);
        if value.is_some() {
            self.cache_hits.inc();
        } else {
            self.cache_misses.inc();
        }
        value
    }

    /// The [`Flow`] for a request's configuration, on the request's own
    /// `fabric` document if it sent one, else on the resident fabric's
    /// `Arc`. A `Flow` is a handful of `Arc` clones, so each request
    /// builds its own. `jobs` is clamped to the
    /// [`MapService::jobs_budget`], which keeps request-level
    /// concurrency (the permit gate) times seed parallelism bounded no
    /// matter what the body asked for; results are byte-identical at
    /// every value.
    fn flow_for(&self, request: &MapRequest, fabric: Option<Arc<Fabric>>) -> Flow {
        Flow::on(fabric.unwrap_or_else(|| Arc::clone(&self.fabric)))
            .policy(request.policy)
            .router(request.router)
            .seeds(request.seeds)
            .record_trace(request.trace)
            .jobs(request.jobs.min(self.jobs_budget))
    }
}

/// Every routable path (anything else is `404`; a known path with the
/// wrong method is `405`).
const KNOWN_PATHS: &[&str] = &[
    "/healthz",
    "/stats",
    "/metrics",
    "/shutdown",
    "/map",
    "/compare",
    "/sta",
];

/// The metrics label for a request path. Unknown paths share one
/// `"other"` label so an untrusted peer cannot grow the registry
/// without bound.
fn endpoint_label(path: &str) -> &'static str {
    KNOWN_PATHS
        .iter()
        .find(|&&known| known == path)
        .copied()
        .unwrap_or("other")
}

/// The cache-key fragment for a request-supplied fabric document. The
/// fingerprint already holds a 64-bit FNV hash of the fabric's grid;
/// the document joins the key verbatim too, so that two fabrics whose
/// hashes collide never share a cache entry across clients.
fn fabric_cache_key(fabric: Option<&str>) -> String {
    fabric.map_or(String::new(), |text| {
        format!("fabric:{}:{text}|", text.len())
    })
}

/// Builds a request's `"fabric"` document, if any, within
/// [`MAX_FABRIC_CELLS`]. A document that fails to parse or exceeds the
/// budget is well-formed JSON carrying unprocessable content, i.e. the
/// `422` response returned as the error.
fn request_fabric(text: Option<&str>) -> Result<Option<Arc<Fabric>>, Response> {
    text.map(|text| {
        Fabric::parse_within(text, MAX_FABRIC_CELLS)
            .map(Arc::new)
            .map_err(|e| error_response(422, &e.to_string()))
    })
    .transpose()
}

/// Renders an error status with the `{"error":...}` body shape (pinned
/// by a golden test).
fn error_response(status: u16, message: &str) -> Response {
    Response::new(status, JsonObject::new().string("error", message).build())
}

/// Returns `json` with the contents of its `"timing"` object replaced
/// by `"cpu_ms":0,"wall_us":0` (bodies without the object pass through
/// unchanged).
///
/// No body this crate emits has a `"timing"` object any more, so on
/// every response of this service and every `--format json` report
/// this is the identity. It stays public only because the `perfbench`
/// harness still calls it. The object, where present, is flat (no
/// nested braces), so scanning to the next `}` is exact.
///
/// # Examples
///
/// ```
/// use qspr::service::normalize_timing;
///
/// let a = r#"{"latency_us":634,"timing":{"cpu_ms":17,"wall_us":17941},"moves":410}"#;
/// let b = r#"{"latency_us":634,"timing":{"cpu_ms":3,"wall_us":3120},"moves":410}"#;
/// assert_eq!(normalize_timing(a), normalize_timing(b));
/// assert_eq!(normalize_timing(r#"{"x":1}"#), r#"{"x":1}"#);
/// ```
pub fn normalize_timing(json: &str) -> String {
    const KEY: &str = "\"timing\":{";
    let Some(start) = json.find(KEY) else {
        return json.to_owned();
    };
    let inner_at = start + KEY.len();
    let end = json[inner_at..]
        .find('}')
        .map_or(json.len(), |i| inner_at + i);
    format!(
        "{}\"cpu_ms\":0,\"wall_us\":0{}",
        &json[..inner_at],
        &json[end..]
    )
}

/// Parses and validates a `/map`, `/compare` or `/sta` body against its
/// endpoint's allowed fields, applying the CLI defaults.
fn parse_mapping_request(endpoint: Endpoint, body: &str) -> Result<MapRequest, QsprError> {
    let value =
        JsonValue::parse(body).map_err(|e| QsprError::usage(format!("invalid JSON body: {e}")))?;
    let Some(fields) = value.as_object() else {
        return Err(QsprError::usage("request body must be a JSON object"));
    };
    let allowed: &[&str] = match endpoint {
        Endpoint::Map => &[
            "program", "policy", "router", "m", "jobs", "trace", "fabric",
        ],
        Endpoint::Compare => &["program", "name", "router", "m", "jobs", "fabric"],
        Endpoint::Sta => &["program", "policy", "router", "m", "jobs", "fabric"],
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(QsprError::usage(format!(
                "unknown field {key:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    let program_text = value
        .get("program")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| QsprError::usage("field \"program\" (string) is required"))?
        .to_owned();
    let program = Program::parse(&program_text)?;
    let policy = match value.get("policy") {
        None => FlowPolicy::Qspr,
        Some(v) => v
            .as_str()
            .ok_or_else(|| QsprError::usage("field \"policy\" must be a string"))?
            .parse()?,
    };
    let router = match value.get("router") {
        None => RouterKind::Greedy,
        Some(v) => v
            .as_str()
            .ok_or_else(|| QsprError::usage("field \"router\" must be a string"))?
            .parse()
            .map_err(|e| QsprError::usage(format!("{e}")))?,
    };
    // Seeds scale work, so they are bounded on both sides: zero seeds
    // would place nothing and report a stall.
    let seeds = match value.get("m") {
        None => DEFAULT_SEEDS,
        Some(v) => {
            let m = v
                .as_u64()
                .filter(|&m| m > 0)
                .ok_or_else(|| QsprError::usage("field \"m\" must be a positive integer"))?;
            if m > MAX_SEEDS as u64 {
                return Err(QsprError::usage(format!(
                    "field \"m\" exceeds the service limit of {MAX_SEEDS}"
                )));
            }
            m as usize
        }
    };
    let jobs = match value.get("jobs") {
        None => 1,
        Some(v) => v
            .as_u64()
            .filter(|&jobs| jobs > 0)
            .ok_or_else(|| QsprError::usage("field \"jobs\" must be a positive integer"))?
            as usize,
    };
    let trace = match value.get("trace") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| QsprError::usage("field \"trace\" must be a boolean"))?,
    };
    let name = match value.get("name") {
        None => "program".to_owned(),
        Some(v) => v
            .as_str()
            .ok_or_else(|| QsprError::usage("field \"name\" must be a string"))?
            .to_owned(),
    };
    let fabric = match value.get("fabric") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| QsprError::usage("field \"fabric\" must be a string (ASCII art)"))?
                .to_owned(),
        ),
    };
    Ok(MapRequest {
        program_text,
        program,
        policy,
        router,
        seeds,
        trace,
        jobs,
        name,
        fabric,
    })
}

/// The TCP front end: one thread per connection and a permit gate for
/// the heavy endpoints, all serving one shared [`MapService`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<MapService>,
    /// `threads` and `max_queue` clamped to at least 1.
    config: ServeConfig,
}

impl Server {
    /// Binds `config.addr` (port 0 picks an ephemeral port — read the
    /// result back with [`Server::local_addr`]) and records the bound
    /// address on the service for `/stats`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission).
    pub fn bind(service: Arc<MapService>, config: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        service.set_bound_addr(listener.local_addr()?);
        Ok(Server {
            listener,
            service,
            config: ServeConfig {
                threads: config.threads.max(1),
                max_queue: config.max_queue.max(1),
                ..config.clone()
            },
        })
    }

    /// The actually bound address.
    ///
    /// # Errors
    ///
    /// Propagates the socket-introspection failure (exotic platforms).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shutdown is requested, then drains gracefully: the
    /// listener closes, each connection finishes and writes the request
    /// it is serving, and every connection thread joins.
    ///
    /// This thread runs a blocking accept loop and gives every
    /// connection its own thread, which reads, parses and answers one
    /// request at a time, so responses go out in request order. The
    /// heavy endpoints (`/map`, `/compare`, `/sta`) first take
    /// one of `threads` permits in FIFO order; light ones answer on the
    /// connection thread.
    ///
    /// # Errors
    ///
    /// Returns the first fatal `accept` error, after the live
    /// connections drain. Per-connection I/O failures are answered with
    /// `400`/`413` where possible and never stop the server.
    pub fn run(self) -> io::Result<()> {
        transport::run(self.listener, &self.service, &self.config)
    }

    /// Runs the server on a background thread, returning a
    /// [`ServerHandle`] for the bound address and a graceful
    /// [`ServerHandle::shutdown`]. The natural shape for tests and for
    /// embedding the service in a bigger process.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr().expect("bound listener has an address");
        let service = Arc::clone(&self.service);
        let thread = thread::spawn(move || self.run());
        ServerHandle {
            addr,
            service,
            thread,
        }
    }
}

/// A running background [`Server`]: its address, its shared service
/// state, and the join handle used for graceful shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<MapService>,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (counters, shutdown flag).
    pub fn service(&self) -> &Arc<MapService> {
        &self.service
    }

    /// Requests shutdown, wakes the accept loop and joins the server
    /// thread (in-flight requests finish and are written first).
    ///
    /// # Errors
    ///
    /// Returns the server thread's fatal error, if it died on one.
    ///
    /// # Panics
    ///
    /// Panics if the server thread itself panicked.
    pub fn shutdown(self) -> io::Result<()> {
        self.service.request_shutdown();
        // Wake the blocking accept by knocking on the listener; if the
        // server already exited the connect simply fails, which is
        // fine.
        let _ = TcpStream::connect(wake_addr(self.addr));
        self.thread.join().expect("server thread panicked")
    }
}

/// An address a client of *this process* can connect to in order to
/// reach the listener bound at `addr`: a wildcard bind (`0.0.0.0` /
/// `::`) is not a connectable destination everywhere, so the shutdown
/// wake-up targets loopback on the bound port instead.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let mut addr = addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// Writes one structured (logfmt) access-log line to stderr. Stderr,
/// not stdout: stdout carries exactly the startup banner the CI smoke
/// greps for, and stays machine-parseable.
pub(crate) fn access_log(method: &str, path: &str, response: &Response, wait_us: u64, dur_us: u64) {
    let time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    eprintln!(
        "time={time} method={method} path={path} status={} bytes={} wait_us={wait_us} dur_us={dur_us}",
        response.status,
        response.body.len(),
    );
}

#[cfg(test)]
mod tests;
