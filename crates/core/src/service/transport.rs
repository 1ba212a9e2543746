//! The transport behind [`Server::run`](super::Server::run): a blocking
//! accept loop with one thread per connection (at most [`MAX_CONNS`]).
//!
//! Each connection thread feeds blocking reads into an incremental
//! [`Parser`](http::Parser) and answers one request at a time, writing
//! each response before it parses the next, so pipelined responses
//! leave in request order by construction. Light endpoints answer on
//! the connection thread; heavy ones (`POST /map`, `/compare`, `/sta`)
//! first take one of `threads` permits from the FIFO [`Gate`], where at
//! most `max_queue` requests per endpoint may wait. A read
//! waits at most until the connection's deadline: the keep-alive
//! timeout when idle, or a shorter bound counted from the first byte of
//! a partial request (the slowloris bound). A write waits at most the
//! keep-alive timeout, so a peer that never reads is dropped. On
//! shutdown the listener closes, each connection finishes the request
//! it is serving and closes, and `run` returns once all have joined.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use qspr_obs::{Gauge, Histogram};

use super::http::{self, Request, Response};
use super::{access_log, wake_addr, MapService, ServeConfig};

/// The heavy endpoints, in gate slot order.
const HEAVY: [&str; 3] = ["/map", "/compare", "/sta"];

/// Most concurrently open connections; accepts beyond it are dropped.
const MAX_CONNS: usize = 1024;

/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// Longest single blocking read, so an idle connection notices a
/// shutdown within one tick.
const TICK: Duration = Duration::from_millis(200);

/// Longest wait for the *rest* of a partially received request, counted
/// from its first byte, before the connection is dropped (the slowloris
/// bound); further capped by the keep-alive timeout when that is
/// shorter.
const PARTIAL_TIMEOUT: Duration = Duration::from_secs(10);

/// Accepts connections until shutdown is requested, then waits for
/// every connection thread to finish.
pub(crate) fn run(
    listener: TcpListener,
    service: &MapService,
    config: &ServeConfig,
) -> io::Result<()> {
    let idle_timeout = Duration::from_secs(match config.keep_alive_secs {
        0 => 30, // close-per-request mode still bounds the first request
        secs => secs,
    });
    let conn = Connection {
        service,
        config,
        gate: Gate::new(service, config),
        wake: wake_addr(listener.local_addr()?),
        idle_timeout,
        partial_timeout: idle_timeout.min(PARTIAL_TIMEOUT),
    };
    let live = AtomicUsize::new(0);
    thread::scope(|scope| {
        let result = loop {
            if service.shutdown_requested() {
                break Ok(());
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Fatal: drain the live connections like a shutdown.
                    service.request_shutdown();
                    break Err(e);
                }
            };
            // A wake-up connection after shutdown, or one too many, is
            // dropped unanswered.
            if service.shutdown_requested() || live.load(Ordering::Relaxed) >= MAX_CONNS {
                continue;
            }
            live.fetch_add(1, Ordering::Relaxed);
            let (conn, live) = (&conn, &live);
            let spawned = thread::Builder::new().spawn_scoped(scope, move || {
                conn.serve(stream);
                live.fetch_sub(1, Ordering::Relaxed);
            });
            if spawned.is_err() {
                live.fetch_sub(1, Ordering::Relaxed);
            }
        };
        // Refuse new peers while the scope joins the connections.
        drop(listener);
        result
    })
}

/// What every connection thread shares.
struct Connection<'a> {
    service: &'a MapService,
    config: &'a ServeConfig,
    gate: Gate,
    /// Where `POST /shutdown` knocks to wake the accept loop.
    wake: SocketAddr,
    /// Longest wait for the next request once a response is written;
    /// also the write timeout.
    idle_timeout: Duration,
    partial_timeout: Duration,
}

impl Connection<'_> {
    /// Serves one socket until the peer closes, a request asks to
    /// close, a deadline passes, or shutdown is requested.
    fn serve(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_write_timeout(Some(self.idle_timeout)).is_err() {
            return;
        }
        let mut parser = http::Parser::new();
        let mut buf = [0u8; READ_CHUNK];
        let mut idle_since = Instant::now();
        let mut partial_since: Option<Instant> = None;
        loop {
            // Answer every complete request already buffered, in order.
            loop {
                if self.service.shutdown_requested() {
                    return;
                }
                match parser.next_request() {
                    Ok(None) => break,
                    Ok(Some(request)) => {
                        let shutdown = request.method == "POST" && request.path == "/shutdown";
                        let close = request.close || self.config.keep_alive_secs == 0 || shutdown;
                        let response = self.answer(&request);
                        let sent = stream.write_all(&http::encode_response(&response, !close));
                        if shutdown {
                            // Wake the accept loop; if it already exited
                            // the connect simply fails.
                            let _ = TcpStream::connect(self.wake);
                        }
                        if sent.is_err() || close {
                            return;
                        }
                        idle_since = Instant::now();
                        partial_since = None;
                    }
                    Err(e) => {
                        // No resynchronization after a protocol error:
                        // answer it and close.
                        let response = self.service.protocol_response(&e);
                        if self.config.log {
                            access_log("-", "-", &response, 0, 0);
                        }
                        let _ = stream.write_all(&http::encode_response(&response, false));
                        return;
                    }
                }
            }

            let now = Instant::now();
            let deadline = if parser.has_partial() {
                *partial_since.get_or_insert(now) + self.partial_timeout
            } else {
                idle_since + self.idle_timeout
            };
            let left = deadline.saturating_duration_since(now);
            if left.is_zero() || stream.set_read_timeout(Some(left.min(TICK))).is_err() {
                return;
            }
            match stream.read(&mut buf) {
                Ok(0) => return,
                Ok(n) => parser.feed(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => return,
            }
        }
    }

    /// Produces one request's response: light endpoints straight away,
    /// heavy ones under a permit (or a `429` when their queue is full).
    fn answer(&self, request: &Request) -> Response {
        let log = self.config.log;
        let heavy = |&path: &&str| request.method == "POST" && path == request.path;
        let Some(slot) = HEAVY.iter().position(heavy) else {
            let t0 = Instant::now();
            let response = self.service.handle(request);
            if log {
                let dur_us = t0.elapsed().as_micros() as u64;
                access_log(&request.method, &request.path, &response, 0, dur_us);
            }
            return response;
        };
        let queued = Instant::now();
        let Some(_permit) = self.gate.enter(slot) else {
            let response = self.service.reject(HEAVY[slot]);
            if log {
                access_log(&request.method, &request.path, &response, 0, 0);
            }
            return response;
        };
        let wait = queued.elapsed();
        self.gate.wait.record(wait.as_micros() as u64);
        let t0 = Instant::now();
        let response = self.service.handle(request);
        let handler = t0.elapsed();
        if log {
            access_log(
                &request.method,
                &request.path,
                &response,
                wait.as_micros() as u64,
                handler.as_micros() as u64,
            );
        }
        response.with_server_timing(wait, handler)
    }
}

/// A FIFO gate of `threads` permits for the heavy endpoints, with a
/// bounded wait queue per endpoint.
struct Gate {
    state: Mutex<GateState>,
    turn: Condvar,
    max_queue: usize,
    /// `qspr_queue_depth`, one gauge per [`HEAVY`] slot.
    depth: [Arc<Gauge>; HEAVY.len()],
    /// `qspr_queue_wait_us`.
    wait: Arc<Histogram>,
}

struct GateState {
    /// Permits not currently held.
    free: usize,
    /// The ticket the next waiter takes.
    next_ticket: u64,
    /// The oldest waiting ticket; waiters are `serving..next_ticket`.
    serving: u64,
    /// Waiters per [`HEAVY`] slot.
    queued: [usize; HEAVY.len()],
}

/// One held permit; dropping it returns the permit to the [`Gate`].
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(service: &MapService, config: &ServeConfig) -> Gate {
        Gate {
            state: Mutex::new(GateState {
                free: config.threads,
                next_ticket: 0,
                serving: 0,
                queued: [0; HEAVY.len()],
            }),
            turn: Condvar::new(),
            max_queue: config.max_queue,
            depth: HEAVY.map(|endpoint| {
                service.metrics().gauge(
                    "qspr_queue_depth",
                    "Requests queued for the worker pool, by endpoint.",
                    &[("endpoint", endpoint)],
                )
            }),
            wait: service.metrics().histogram(
                "qspr_queue_wait_us",
                "Time requests spent queued for a worker, microseconds.",
                &[],
            ),
        }
    }

    /// Takes a permit for a `slot` request, waiting behind every earlier
    /// waiter; `None` when `max_queue` requests already wait on `slot`.
    fn enter(&self, slot: usize) -> Option<Permit<'_>> {
        let mut state = self.state.lock().expect("gate lock");
        if state.free > 0 && state.serving == state.next_ticket {
            state.free -= 1;
            return Some(Permit(self));
        }
        if state.queued[slot] >= self.max_queue {
            return None;
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queued[slot] += 1;
        self.depth[slot].set(state.queued[slot] as i64);
        while state.serving != ticket || state.free == 0 {
            state = self.turn.wait(state).expect("gate lock");
        }
        state.serving += 1;
        state.free -= 1;
        state.queued[slot] -= 1;
        self.depth[slot].set(state.queued[slot] as i64);
        drop(state);
        // The next ticket may find a permit free too.
        self.turn.notify_all();
        Some(Permit(self))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Counter updates leave the state valid at every step, so a
        // poisoned lock is safe to reuse; a panic while unwinding aborts.
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.free += 1;
        drop(state);
        self.0.turn.notify_all();
    }
}
