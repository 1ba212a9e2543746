//! Fault injection against the `qspr serve` reactor: misbehaving
//! clients — slowloris dribblers, mid-request disconnects, peers that
//! never read, garbage after valid pipelines — must never hang the
//! event loop, leak connections, or corrupt the responses of
//! well-behaved clients, and a shutdown must drain in-flight work.
//!
//! Every raw socket carries a read timeout so a regression fails the
//! test quickly instead of wedging the suite.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use qspr::service::{http, MapService, ServeConfig, Server, ServerHandle};
use qspr_fabric::Fabric;

const BELL: &str = "QUBIT a\nQUBIT b\nH a\nC-X a,b\n";

fn spawn_server(threads: usize, keep_alive_secs: u64) -> ServerHandle {
    let service = Arc::new(MapService::new(Fabric::quale_45x85(), 32));
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        keep_alive_secs,
        ..ServeConfig::default()
    };
    Server::bind(service, &config)
        .expect("bind ephemeral")
        .spawn()
}

/// Connects a raw TCP client with a hard read timeout.
fn raw_client(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Reads one HTTP response off a raw socket: returns the status code,
/// the body, and whether the server announced `Connection: close`.
/// `None` means the server closed the connection before a status line.
fn read_raw_response(reader: &mut BufReader<TcpStream>) -> Option<(u16, String, bool)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).expect("read status") == 0 {
        return None;
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    let mut close = false;
    loop {
        let mut header = String::new();
        assert_ne!(
            reader.read_line(&mut header).expect("read header"),
            0,
            "EOF inside headers"
        );
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content length");
        }
        if header.eq_ignore_ascii_case("connection: close") {
            close = true;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    Some((status, String::from_utf8(body).expect("UTF-8 body"), close))
}

/// Asserts the server still answers a fresh, well-formed request.
fn assert_healthy(handle: &ServerHandle) {
    let health = http::call(handle.addr(), "GET", "/healthz", "").expect("healthz");
    assert_eq!(health.status, 200);
}

#[test]
fn slowloris_connections_are_reaped_without_blocking_others() {
    // keep_alive 1s: a connection holding a partial request is cut off
    // on the (shorter of the) partial-request timeout — it cannot pin
    // reactor state forever.
    let handle = spawn_server(2, 1);

    let mut dribbler = raw_client(&handle);
    dribbler.write_all(b"POST /map HTT").expect("partial write");

    // While the dribbler squats, everyone else is served normally.
    for _ in 0..3 {
        assert_healthy(&handle);
    }

    // The server hangs up on the dribbler within the timeout window
    // (1s limit + poll tick), even if it keeps dribbling occasionally.
    let started = Instant::now();
    let mut one = [0u8; 1];
    let outcome = dribbler.read(&mut one);
    assert!(
        matches!(outcome, Ok(0) | Err(_)),
        "server must close the slowloris socket, got a byte: {outcome:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "reaping took {:?}",
        started.elapsed()
    );

    assert_healthy(&handle);
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn mid_request_disconnects_never_wedge_the_pool() {
    // More abandoned connections than worker threads, in every state:
    // nothing sent, half a request line, full headers without the
    // body, and a complete request dropped before the response.
    let handle = spawn_server(2, 5);
    for round in 0..8 {
        let mut victim = raw_client(&handle);
        match round % 4 {
            0 => {}
            1 => victim.write_all(b"POST /ma").expect("write"),
            2 => victim
                .write_all(b"POST /map HTTP/1.1\r\nContent-Length: 50\r\n\r\n")
                .expect("write"),
            _ => {
                let body = format!("{{\"program\":{BELL:?},\"m\":2}}");
                victim
                    .write_all(
                        format!(
                            "POST /map HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        )
                        .as_bytes(),
                    )
                    .expect("write");
            }
        }
        drop(victim); // vanish without reading anything
    }

    // The pool is intact: real mapping work still round-trips and the
    // cache still replays byte-identically.
    let body = format!("{{\"program\":{BELL:?},\"m\":2}}");
    let cold = http::call(handle.addr(), "POST", "/map", &body).expect("map after chaos");
    assert_eq!(cold.status, 200, "{}", cold.body);
    let warm = http::call(handle.addr(), "POST", "/map", &body).expect("warm map");
    assert_eq!(warm, cold);
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn never_reading_clients_are_bounded_and_reaped() {
    // A client that pipelines requests and never drains its socket
    // must not block the reactor thread or starve other connections.
    let handle = spawn_server(1, 1);
    let mut hoarder = raw_client(&handle);
    let mut pipeline = Vec::new();
    for _ in 0..32 {
        pipeline.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
    }
    hoarder.write_all(&pipeline).expect("pipeline write");
    // Do NOT read. The responses pile into the server's write buffer
    // (and the kernel's), while other clients stay snappy.
    for _ in 0..5 {
        let t0 = Instant::now();
        assert_healthy(&handle);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "handling took {:?} with a hoarder connected",
            t0.elapsed()
        );
    }
    // Once idle past keep-alive, the hoarder is reaped: its socket
    // eventually reaches EOF after at most the buffered responses.
    let mut reader = BufReader::new(hoarder);
    let mut served = 0;
    while let Some((status, body, _)) = read_raw_response(&mut reader) {
        assert_eq!(status, 200);
        assert!(body.starts_with(r#"{"status":"ok""#));
        served += 1;
        assert!(served <= 32, "phantom responses");
    }
    assert_healthy(&handle);
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn junk_after_a_valid_pipeline_answers_then_closes() {
    // Two good requests followed by garbage: both good responses come
    // back in order, then a 400 with `Connection: close`, then EOF —
    // never a hang, never responses out of order.
    let handle = spawn_server(2, 5);
    let stream = raw_client(&handle);
    let mut writer = stream.try_clone().expect("clone socket");
    writer
        .write_all(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n!!!not-http!!!\r\n\r\n",
        )
        .expect("pipeline write");
    let mut reader = BufReader::new(stream);
    let (status, body, close) = read_raw_response(&mut reader).expect("first response");
    assert_eq!(status, 200);
    assert!(body.starts_with(r#"{"status":"ok""#));
    assert!(!close);
    let (status, body, _) = read_raw_response(&mut reader).expect("second response");
    assert_eq!(status, 200);
    assert!(body.starts_with(r#"{"requests":"#));
    let (status, body, close) = read_raw_response(&mut reader).expect("error response");
    assert_eq!(status, 400, "{body}");
    assert!(close, "protocol errors must close the connection");
    assert!(read_raw_response(&mut reader).is_none(), "EOF after close");
    assert_healthy(&handle);
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn oversized_content_length_is_rejected_up_front() {
    let handle = spawn_server(1, 5);
    let stream = raw_client(&handle);
    let mut writer = stream.try_clone().expect("clone socket");
    // 100 MiB announced: the reactor must answer 413 from the header
    // alone and close, rather than buffer toward the announced size.
    writer
        .write_all(b"POST /map HTTP/1.1\r\nContent-Length: 104857600\r\n\r\n")
        .expect("header write");
    let mut reader = BufReader::new(stream);
    let (status, body, close) = read_raw_response(&mut reader).expect("413 response");
    assert_eq!(status, 413, "{body}");
    assert!(close);
    assert!(read_raw_response(&mut reader).is_none());
    assert_healthy(&handle);
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn pipelined_responses_come_back_in_request_order() {
    // One batched write interleaving slow (mapping) and fast (inline)
    // endpoints; the reorder buffer must emit responses in request
    // order on the wire.
    let handle = spawn_server(4, 5);
    let map_body = format!("{{\"program\":{BELL:?},\"m\":6}}");
    let mut wire = Vec::new();
    wire.extend_from_slice(
        format!(
            "POST /map HTTP/1.1\r\nContent-Length: {}\r\n\r\n{map_body}",
            map_body.len()
        )
        .as_bytes(),
    );
    wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
    wire.extend_from_slice(
        format!(
            "POST /map HTTP/1.1\r\nContent-Length: {}\r\n\r\n{map_body}",
            map_body.len()
        )
        .as_bytes(),
    );
    wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");

    let stream = raw_client(&handle);
    let mut writer = stream.try_clone().expect("clone socket");
    writer.write_all(&wire).expect("batched write");
    let mut reader = BufReader::new(stream);
    let (_, first, _) = read_raw_response(&mut reader).expect("map response");
    assert!(first.starts_with(r#"{"policy":"qspr""#), "{first}");
    let (_, second, _) = read_raw_response(&mut reader).expect("healthz response");
    assert!(second.starts_with(r#"{"status":"ok""#), "{second}");
    // Both map requests were in flight together, so the second may
    // have raced the first's cache insert; the body is identical
    // either way.
    let (_, third, _) = read_raw_response(&mut reader).expect("second map response");
    assert_eq!(
        third, first,
        "identical pipelined requests must map identically"
    );
    let (_, fourth, _) = read_raw_response(&mut reader).expect("final healthz");
    assert!(fourth.starts_with(r#"{"status":"ok""#));
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn shutdown_drains_a_slow_inflight_request() {
    // One worker, one slow request in flight when shutdown lands: the
    // drain must finish and flush the response before `run()` returns.
    let handle = spawn_server(1, 5);
    let addr = handle.addr();
    let mut client = http::Client::connect(addr).expect("connect");
    let slow_body = format!("{{\"program\":{BELL:?},\"m\":400}}");
    client
        .write_request("POST", "/map", &slow_body)
        .expect("write slow request");
    // Give the reactor time to parse and dispatch it to the worker.
    thread::sleep(Duration::from_millis(150));
    handle.shutdown().expect("drain completes");
    // The server is gone — but our in-flight answer was flushed first.
    let response = client.read_response().expect("drained response");
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.body.starts_with(r#"{"policy":"qspr""#));
    assert!(
        http::call(addr, "GET", "/healthz", "").is_err(),
        "listener must be gone after the drain"
    );
}
