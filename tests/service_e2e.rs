//! End-to-end exercise of `qspr::service` the way a downstream
//! deployment would use it: a real server on an ephemeral port, real
//! TCP clients, concurrent traffic, counter checks, graceful shutdown.
//!
//! The same checks against the spawned `qspr serve` binary live in
//! `crates/core/tests/serve_binary.rs`.

use std::sync::Arc;
use std::thread;

use qspr::service::{http, MapService, ServeConfig, Server};
use qspr::{Flow, ToJson};
use qspr_fabric::Fabric;
use qspr_qasm::Program;

const BELL: &str = "QUBIT a\nQUBIT b\nH a\nC-X a,b\n";

fn spawn_server(cache: usize, threads: usize) -> qspr::service::ServerHandle {
    let service = Arc::new(MapService::new(Fabric::quale_45x85(), cache));
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        ..ServeConfig::default()
    };
    Server::bind(service, &config)
        .expect("bind ephemeral")
        .spawn()
}

#[test]
fn concurrent_clients_get_identical_cached_responses() {
    let handle = spawn_server(32, 4);
    let addr = handle.addr();
    let body = format!("{{\"program\":{BELL:?},\"m\":2}}");

    // Prime the cache once so every concurrent request below hits it.
    let cold = http::call(addr, "POST", "/map", &body).expect("cold map");
    assert_eq!(cold.status, 200);

    let bodies: Vec<String> = thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..4 {
                        let r = http::call(addr, "POST", "/map", &body).expect("warm map");
                        assert_eq!(r.status, 200);
                        got.push(r.body);
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    for b in &bodies {
        assert_eq!(b, &cold.body, "cached responses must be byte-identical");
    }

    let stats = handle.service().stats();
    assert_eq!(stats.map_requests, 33); // 1 cold + 32 warm
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 32);
    assert_eq!(stats.errors, 0);
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn compare_matches_the_library_byte_for_byte() {
    let handle = spawn_server(8, 2);
    let addr = handle.addr();
    let body = format!("{{\"program\":{BELL:?},\"name\":\"bell\",\"m\":2}}");
    let served = http::call(addr, "POST", "/compare", &body).expect("compare");
    assert_eq!(served.status, 200);

    let program = Program::parse(BELL).unwrap();
    let expected = Flow::on(Fabric::quale_45x85())
        .seeds(2)
        .compare("bell", &program)
        .unwrap()
        .to_json();
    assert_eq!(
        served.body, expected,
        "wire bytes == qspr compare --format json"
    );
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn shutdown_finishes_in_flight_work_and_refuses_new_connections() {
    let handle = spawn_server(8, 2);
    let addr = handle.addr();
    // A request racing the shutdown from another thread must either be
    // served completely or refused at the TCP level — never half-answered.
    let racer = thread::spawn(move || {
        http::call(
            addr,
            "POST",
            "/map",
            &format!("{{\"program\":{BELL:?},\"m\":2}}"),
        )
    });
    handle.shutdown().expect("graceful shutdown");
    // A TCP-level error means the racer was refused cleanly; a response
    // must be a complete, correct one.
    if let Ok(response) = racer.join().expect("racer thread") {
        assert_eq!(response.status, 200);
        assert!(response.body.starts_with(r#"{"policy":"qspr""#));
    }
    assert!(
        http::call(addr, "GET", "/healthz", "").is_err(),
        "listener must be gone after shutdown"
    );
}
