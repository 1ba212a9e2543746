//! Service tests: wire-schema goldens (the `/map`, `/stats` and error
//! body contracts, alongside the JSON goldens in
//! `crate::json`), cache semantics under the service, HTTP parser
//! property tests, and real-TCP keep-alive round trips.

use super::http::{encode_response, Parser, MAX_REQUEST_LINE};
use super::*;
use proptest::prelude::*;
use qspr_fabric::Fabric;
use std::time::Duration;

/// A two-qubit program that maps in well under a millisecond.
const BELL: &str = "QUBIT a\nQUBIT b\nH a\nC-X a,b\n";

/// A three-qubit program: more qubits than [`TWO_TRAPS`] holds.
const GHZ3: &str = "QUBIT a\nQUBIT b\nQUBIT c\nH a\nC-X a,b\nC-X b,c\n";

/// ASCII art for a fabric of two traps.
const TWO_TRAPS: &str = "-+-+-\n.|T|.\n-+-+-\n.|T|.\n-+-+-\n";

fn service() -> MapService {
    MapService::new(Fabric::quale_45x85(), 64)
}

fn post(service: &MapService, path: &str, body: &str) -> Response {
    service.handle(&Request::new("POST", path, body))
}

fn get(service: &MapService, path: &str) -> Response {
    service.handle(&Request::new("GET", path, ""))
}

#[test]
fn map_wire_schema_golden() {
    // Golden: the `/map` response body IS the FlowSummary schema of
    // `qspr map --format json`, key for key, in order.
    let response = post(
        &service(),
        "/map",
        &format!("{{\"program\":{:?},\"m\":2}}", BELL),
    );
    assert_eq!(response.status, 200);
    assert!(response
        .body
        .starts_with(r#"{"policy":"qspr","placer":"mvfb","router":"greedy","latency_us":"#));
    let keys = [
        "\"policy\":",
        "\"placer\":",
        "\"router\":",
        "\"latency_us\":",
        "\"direction\":",
        "\"runs\":",
        "\"moves\":",
        "\"turns\":",
        "\"congestion_wait_us\":",
        "\"epochs\":",
        "\"rip_iterations\":",
        "\"ripped_routes\":",
        "\"max_segment_pressure\":",
    ];
    let mut at = 0;
    for key in keys {
        let pos = response.body[at..]
            .find(key)
            .unwrap_or_else(|| panic!("{key} missing or out of order in {}", response.body));
        at += pos + key.len();
    }
    // No clock in the body: it IS a direct library run's summary.
    assert!(!response.body.contains("\"timing\""), "{}", response.body);
    let flow = Flow::on(Fabric::quale_45x85()).seeds(2);
    let expected = flow
        .run(&Program::parse(BELL).unwrap())
        .unwrap()
        .summary()
        .to_json();
    assert_eq!(response.body, expected);
}

#[test]
fn stats_wire_schema_golden() {
    // Golden: this string IS the `GET /stats` schema contract.
    let snapshot = StatsSnapshot {
        requests: 9,
        map_requests: 5,
        compare_requests: 2,
        sta_requests: 1,
        cache_hits: 3,
        cache_misses: 4,
        cache_entries: 4,
        cache_capacity: 128,
        cache_bytes: 2048,
        cache_evictions: 1,
        rejected: 2,
        errors: 1,
        busy_us: 123456,
        uptime_ms: 60000,
        uptime_s: 60,
        addr: "127.0.0.1:7878".to_owned(),
    };
    assert_eq!(
        snapshot.to_json(),
        concat!(
            r#"{"requests":9,"map_requests":5,"compare_requests":2,"sta_requests":1,"#,
            r#""cache_hits":3,"cache_misses":4,"cache_entries":4,"cache_capacity":128,"cache_bytes":2048,"cache_evictions":1,"#,
            r#""rejected":2,"errors":1,"busy_us":123456,"uptime_ms":60000,"uptime_s":60,"#,
            r#""addr":"127.0.0.1:7878"}"#,
        )
    );
}

#[test]
fn healthz_and_error_bodies_are_pinned() {
    let service = service();
    assert_eq!(
        get(&service, "/healthz"),
        Response::new(
            200,
            concat!(
                r#"{"status":"ok","version":""#,
                env!("CARGO_PKG_VERSION"),
                "\"}"
            ),
        )
    );
    // Error shape: {"error": "..."} with the message JSON-escaped.
    let response = post(&service, "/map", "not json");
    assert_eq!(response.status, 400);
    assert!(response.body.starts_with(r#"{"error":"invalid JSON body:"#));
    assert_eq!(
        post(&service, "/map", r#"{"frob":1}"#).body,
        r#"{"error":"unknown field \"frob\" (allowed: program, policy, router, m, jobs, trace, fabric)"}"#
    );
    assert_eq!(
        get(&service, "/nope"),
        Response::new(404, r#"{"error":"no endpoint /nope"}"#)
    );
    assert_eq!(
        get(&service, "/map").status,
        405,
        "GET on a POST endpoint is rejected"
    );
    // There is no batch endpoint: one program per mapping request.
    for method in ["POST", "GET"] {
        assert_eq!(
            service.handle(&Request::new(method, "/batch", "{}")),
            Response::new(404, r#"{"error":"no endpoint /batch"}"#),
            "{method} /batch"
        );
    }
    assert_eq!(
        post(&service, "/healthz", "").status,
        405,
        "POST on a GET endpoint is rejected"
    );
}

#[test]
fn map_requests_validate_like_the_cli() {
    let service = service();
    let bad = |body: &str| {
        let response = post(&service, "/map", body);
        assert_eq!(response.status, 400, "{body} -> {}", response.body);
        response.body
    };
    assert!(bad(r#"{}"#).contains("\\\"program\\\" (string) is required"));
    assert!(bad(r#"{"program":5}"#).contains("required"));
    assert!(bad(r#"{"program":"FROB q\n"}"#).contains("unknown gate"));
    assert!(
        bad(&format!("{{\"program\":{BELL:?},\"policy\":\"best\"}}")).contains("unknown policy")
    );
    assert!(
        bad(&format!("{{\"program\":{BELL:?},\"policy\":\"qpos\"}}"))
            .contains(r#"unknown policy \"qpos\" (expected qspr or quale)"#)
    );
    assert!(
        bad(&format!("{{\"program\":{BELL:?},\"router\":\"fancy\"}}")).contains("unknown router")
    );
    assert!(
        bad(&format!("{{\"program\":{BELL:?},\"router\":\"race\"}}"))
            .contains(r#"unknown router \"race\" (expected greedy or negotiated)"#)
    );
    assert!(bad(&format!("{{\"program\":{BELL:?},\"m\":-1}}")).contains("positive integer"));
    // Zero seeds would place nothing: invalid input, not a stall.
    assert!(bad(&format!("{{\"program\":{BELL:?},\"m\":0}}"))
        .contains(r#"field \"m\" must be a positive integer"#));
    assert!(bad(&format!("{{\"program\":{BELL:?},\"trace\":1}}")).contains("boolean"));
    assert!(bad(r#"[1,2]"#).contains("must be a JSON object"));
    // Work, not just input size, is bounded: an absurd seed count is
    // rejected up front instead of pinning a worker for hours.
    assert!(bad(&format!("{{\"program\":{BELL:?},\"m\":4000000000}}"))
        .contains("exceeds the service limit"));
    // An unmappable program (more qubits than the fabric has traps) is
    // 422, not 400.
    let response = post(
        &service,
        "/map",
        &format!("{{\"program\":{GHZ3:?},\"m\":2,\"fabric\":{TWO_TRAPS:?}}}"),
    );
    assert_eq!(response.status, 422, "{}", response.body);
    assert!(response.body.starts_with(r#"{"error":"#));
}

#[test]
fn cache_hits_are_byte_identical_and_counted() {
    let service = service();
    let body = format!("{{\"program\":{BELL:?},\"m\":2}}");

    let cold = post(&service, "/map", &body);
    assert_eq!(cold.status, 200);
    let stats = service.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
    assert_eq!(stats.cache_entries, 1);

    // The cached path returns the stored bytes, so the bodies are
    // byte-identical by construction.
    for _ in 0..3 {
        let warm = post(&service, "/map", &body);
        assert_eq!(warm, cold);
    }
    let stats = service.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (3, 1));
    assert_eq!(stats.map_requests, 4);

    // A different configuration of the same program is a different
    // fingerprint: miss, new entry.
    let other = post(
        &service,
        "/map",
        &format!("{{\"program\":{BELL:?},\"m\":3}}"),
    );
    assert_eq!(other.status, 200);
    let stats = service.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (3, 2));
    assert_eq!(stats.cache_entries, 2);
    // The snapshot is the cache's own accounting.
    assert_eq!(stats.cache_bytes, service.cache().audit_bytes());
    assert!(stats.cache_bytes > 0);
    assert_eq!(stats.cache_evictions, 0);
}

#[test]
fn compare_responses_are_fully_deterministic() {
    // ComparisonRow carries no clock: equal requests give equal bytes
    // even across cache evictions and service restarts.
    let body = format!("{{\"program\":{BELL:?},\"name\":\"bell\",\"m\":2}}");
    let a = post(&service(), "/compare", &body);
    let b = post(&service(), "/compare", &body);
    assert_eq!(a.status, 200);
    assert_eq!(a, b);
    assert!(a.body.starts_with(r#"{"circuit":"bell","baseline_us":"#));
    // The `name` field lands in the row and separates cache keys.
    let renamed = post(
        &service(),
        "/compare",
        &format!("{{\"program\":{BELL:?},\"name\":\"other\",\"m\":2}}"),
    );
    assert!(renamed.body.starts_with(r#"{"circuit":"other","#));
}

#[test]
fn compare_rejects_map_only_fields() {
    let response = post(
        &service(),
        "/compare",
        &format!("{{\"program\":{BELL:?},\"trace\":true}}"),
    );
    assert_eq!(response.status, 400);
    assert!(response
        .body
        .contains("allowed: program, name, router, m, jobs, fabric"));
}

#[test]
fn eviction_causes_a_rerun_not_a_wrong_answer() {
    // A one-entry cache: the second distinct request evicts the first;
    // asking for the first again re-maps (miss) and yields the same
    // latency.
    let service = MapService::new(Fabric::quale_45x85(), 1).with_cache(CacheConfig { entries: 1 });
    let a = format!("{{\"program\":{BELL:?},\"m\":2}}");
    let b = format!("{{\"program\":{BELL:?},\"m\":3}}");
    let first = post(&service, "/map", &a);
    post(&service, "/map", &b);
    let again = post(&service, "/map", &a);
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 3);
    assert_eq!(stats.cache_entries, 1);
    assert_eq!(stats.cache_evictions, 2);
    assert_eq!(
        first.body, again.body,
        "the flow is seed-determined, so a re-run reproduces the result"
    );
}

#[test]
fn trace_flag_threads_through() {
    let response = post(
        &service(),
        "/map",
        &format!("{{\"program\":{BELL:?},\"m\":2,\"trace\":true}}"),
    );
    assert_eq!(response.status, 200);
    assert!(response.body.contains("\"trace_commands\":"));
}

#[test]
fn sta_endpoint_reports_the_critical_path() {
    let service = service();
    let body = format!("{{\"program\":{BELL:?},\"m\":2}}");
    let cold = post(&service, "/sta", &body);
    assert_eq!(cold.status, 200, "{}", cold.body);
    // The body is the TimingReport schema of `qspr sta --format json`.
    assert!(cold.body.starts_with(r#"{"makespan_us":"#), "{}", cold.body);
    assert!(cold.body.contains(r#""critical_path":["#));
    assert!(cold.body.contains(r#""segments":["#));
    // Reports carry no clock: the cached repeat AND a fresh service
    // reproduce the bytes exactly.
    let warm = post(&service, "/sta", &body);
    assert_eq!(warm, cold);
    let second_service = MapService::new(Fabric::quale_45x85(), 8);
    let fresh = post(&second_service, "/sta", &body);
    assert_eq!(fresh, cold);
    let stats = service.stats();
    assert_eq!(stats.sta_requests, 2);
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
}

#[test]
fn sta_requests_validate_their_fields() {
    let service = service();
    // `trace`/`name` belong to the other endpoints.
    let response = post(
        &service,
        "/sta",
        &format!("{{\"program\":{BELL:?},\"trace\":true}}"),
    );
    assert_eq!(response.status, 400);
    assert!(response
        .body
        .contains("allowed: program, policy, router, m, jobs, fabric"));
    // Fields outside that list are named in the rejection.
    let response = post(
        &service,
        "/sta",
        &format!("{{\"program\":{BELL:?},\"feedback\":true}}"),
    );
    assert_eq!(response.status, 400);
    assert!(
        response.body.contains(
            r#"unknown field \"feedback\" (allowed: program, policy, router, m, jobs, fabric)"#
        ),
        "{}",
        response.body
    );
    // The negotiated router is served end to end.
    let response = post(
        &service,
        "/sta",
        &format!("{{\"program\":{BELL:?},\"m\":2,\"router\":\"negotiated\"}}"),
    );
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.body.contains(r#""critical_path":["#));
}

#[test]
fn flows_are_reused_per_configuration() {
    // What every configuration's flow reuses is the service fabric:
    // each request's flow shares its `Arc` rather than copying it.
    let service = service();
    for m in [2, 3] {
        let body = format!("{{\"program\":{BELL:?},\"m\":{m}}}");
        let flow = service.flow_for(&parse_mapping_request(Endpoint::Map, &body).unwrap(), None);
        assert!(Arc::ptr_eq(flow.fabric_arc(), service.fabric()));
    }
}

#[test]
fn jobs_field_parses_clamps_and_never_changes_bytes() {
    let service = MapService::new(Fabric::quale_45x85(), 8).with_jobs_budget(2);
    assert_eq!(service.jobs_budget(), 2);
    let bad = |body: &str| {
        let response = post(&service, "/map", body);
        assert_eq!(response.status, 400, "{body} -> {}", response.body);
        response.body
    };
    assert!(bad(&format!("{{\"program\":{BELL:?},\"jobs\":0}}")).contains("positive integer"));
    assert!(bad(&format!("{{\"program\":{BELL:?},\"jobs\":\"two\"}}")).contains("positive integer"));
    // An over-budget request is clamped, not rejected: the flow the
    // service builds runs with the budgeted thread count.
    let body = format!("{{\"program\":{BELL:?},\"m\":2,\"jobs\":64}}");
    let request = parse_mapping_request(Endpoint::Map, &body).unwrap();
    assert_eq!(service.flow_for(&request, None).job_count(), 2);
    let response = post(&service, "/map", &body);
    assert_eq!(response.status, 200, "{}", response.body);
    // `jobs` is a performance hint, not a result axis: a fresh service
    // mapping the same program sequentially produces the same bytes.
    let sequential = MapService::new(Fabric::quale_45x85(), 8);
    let baseline = post(
        &sequential,
        "/map",
        &format!("{{\"program\":{BELL:?},\"m\":2,\"jobs\":1}}"),
    );
    assert_eq!(response.body, baseline.body);
}

#[test]
fn request_fabric_overrides_the_resident_fabric() {
    // Three traps on one channel: GHZ3 takes two more moves here than
    // on the resident 45×85 grid.
    const THREE_TRAPS: &str = ".T.T.T.\n-------\n";
    let service = service();
    let resident = post(
        &service,
        "/map",
        &format!("{{\"program\":{GHZ3:?},\"m\":2}}"),
    );
    assert_eq!(resident.status, 200, "{}", resident.body);
    let body = format!("{{\"program\":{GHZ3:?},\"m\":2,\"fabric\":{THREE_TRAPS:?}}}");
    let response = post(&service, "/map", &body);
    assert_eq!(response.status, 200, "{}", response.body);
    assert_ne!(
        response.body, resident.body,
        "mapped on the request's fabric"
    );
    // And the cached repeat is byte-identical.
    let warm = post(&service, "/map", &body);
    assert_eq!(warm, response);
}

#[test]
fn malformed_fabric_documents_are_422_goldens() {
    // Golden: a document that is not ASCII art (here a JSON object) is
    // 422 with the pinned {"error":...} wire shape, not a panic.
    let service = service();
    let body = format!("{{\"program\":{BELL:?},\"m\":2,\"fabric\":\"{{\\\"nope\\\":1}}\"}}");
    let response = post(&service, "/map", &body);
    assert_eq!(response.status, 422, "{}", response.body);
    assert_eq!(
        response.body,
        r#"{"error":"line 1, column 1: unknown cell character '{'"}"#
    );
    // A non-string fabric field is a 400 schema error.
    let response = post(
        &service,
        "/map",
        &format!("{{\"program\":{BELL:?},\"fabric\":7}}"),
    );
    assert_eq!(response.status, 400);
    assert!(response.body.contains("must be a string"));
}

#[test]
fn oversized_fabric_documents_are_422_before_any_work() {
    // ASCII art past the budget is refused with 422 on every endpoint
    // that accepts a fabric, in well under the time building it would
    // take, and so is a JSON document, which is not ASCII art.
    let service = service();
    let art = format!("{}\n", "-".repeat(600)).repeat(600);
    let json = r#"{"name":"b","regions":[{"family":"regular","rows":4001,"cols":4001,"pitch":4}]}"#;
    let started = std::time::Instant::now();
    for (fabric, error) in [
        (
            art,
            format!("fabric grid of 360000 cells exceeds the {MAX_FABRIC_CELLS}-cell budget"),
        ),
        (
            json.to_owned(),
            "line 1, column 1: unknown cell character '{'".to_owned(),
        ),
    ] {
        for (path, body) in [
            (
                "/map",
                format!("{{\"program\":{BELL:?},\"m\":2,\"fabric\":{fabric:?}}}"),
            ),
            (
                "/compare",
                format!("{{\"program\":{BELL:?},\"m\":2,\"fabric\":{fabric:?}}}"),
            ),
            (
                "/sta",
                format!("{{\"program\":{BELL:?},\"m\":2,\"fabric\":{fabric:?}}}"),
            ),
        ] {
            let response = post(&service, path, &body);
            assert_eq!(response.status, 422, "{path}: {}", response.body);
            assert_eq!(
                response.body,
                JsonObject::new().string("error", &error).build(),
                "{path}"
            );
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "oversized fabrics must be refused without building them"
    );
    // Nothing was mapped, so nothing was cached.
    assert_eq!(service.stats().cache_misses, 0);
}

// ---------------------------------------------------------------------------
// Backpressure and protocol responses
// ---------------------------------------------------------------------------

#[test]
fn reject_is_a_429_golden_with_retry_after() {
    let service = service();
    let response = service.reject("/map");
    assert_eq!(response.status, 429);
    assert_eq!(response.reason(), "Too Many Requests");
    assert_eq!(response.retry_after, Some(1));
    assert_eq!(
        response.body,
        r#"{"error":"admission queue for /map is full; retry shortly"}"#
    );
    let stats = service.stats();
    assert_eq!((stats.requests, stats.rejected, stats.errors), (1, 1, 1));
    let metrics = get(&service, "/metrics");
    assert!(
        metrics
            .body
            .contains("qspr_rejected_total{endpoint=\"/map\"} 1\n"),
        "{}",
        metrics.body
    );
    assert!(
        metrics
            .body
            .contains("qspr_http_requests_total{endpoint=\"/map\",status=\"429\"} 1\n"),
        "{}",
        metrics.body
    );
}

#[test]
fn protocol_responses_map_parser_errors_to_statuses() {
    let service = service();
    let bad = io::Error::new(io::ErrorKind::InvalidData, "malformed request line");
    let response = service.protocol_response(&bad);
    assert_eq!(response.status, 400);
    assert_eq!(response.body, r#"{"error":"malformed request line"}"#);
    let big = io::Error::new(io::ErrorKind::InvalidInput, "body exceeds limit");
    let response = service.protocol_response(&big);
    assert_eq!(response.status, 413);
    let stats = service.stats();
    assert_eq!((stats.requests, stats.errors), (2, 2));
}

#[test]
fn encode_response_golden() {
    let ok = Response::new(200, "{}");
    assert_eq!(
        String::from_utf8(encode_response(&ok, true)).unwrap(),
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}"
    );
    let busy = Response::new(429, "x").with_retry_after(7);
    assert_eq!(
        String::from_utf8(encode_response(&busy, false)).unwrap(),
        "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 1\r\nRetry-After: 7\r\nConnection: close\r\n\r\nx"
    );
    let timed = Response::new(200, "{}")
        .with_server_timing(Duration::from_micros(12), Duration::from_micros(3_456_789));
    assert_eq!(
        String::from_utf8(encode_response(&timed, true)).unwrap(),
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nServer-Timing: queue;dur=0.012, handler;dur=3456.789\r\nConnection: keep-alive\r\n\r\n{}"
    );
}

// ---------------------------------------------------------------------------
// HTTP parser properties
// ---------------------------------------------------------------------------

/// Drains every parsed request; returns the terminal error rendering,
/// if the stream is in error.
fn drain_parser(parser: &mut Parser, out: &mut Vec<Request>) -> Option<String> {
    loop {
        match parser.next_request() {
            Ok(Some(request)) => out.push(request),
            Ok(None) => return None,
            Err(e) => return Some(format!("{:?}|{e}", e.kind())),
        }
    }
}

/// Parses `wire` in one shot (the reference outcome).
fn parse_whole(wire: &[u8]) -> (Vec<Request>, Option<String>) {
    let mut parser = Parser::new();
    parser.feed(wire);
    let mut requests = Vec::new();
    let error = drain_parser(&mut parser, &mut requests);
    (requests, error)
}

/// Parses `wire` split at the given cycle of chunk sizes, draining
/// after every feed (the worst-case interleaving a socket delivers).
fn parse_chunked(wire: &[u8], sizes: &[usize]) -> (Vec<Request>, Option<String>) {
    let mut parser = Parser::new();
    let mut requests = Vec::new();
    let mut at = 0;
    let mut cycle = sizes.iter().copied().cycle();
    while at < wire.len() {
        let n = cycle.next().unwrap_or(1).max(1).min(wire.len() - at);
        parser.feed(&wire[at..at + n]);
        at += n;
        if let Some(error) = drain_parser(&mut parser, &mut requests) {
            return (requests, Some(error));
        }
    }
    (requests, None)
}

/// A pipelined wire stream of valid requests built from fragments.
fn valid_stream(bodies: &[String]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let head = format!(
            "POST /map{i} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        wire.extend_from_slice(head.as_bytes());
        wire.extend_from_slice(body.as_bytes());
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Chunking never changes the outcome: any split of any byte
    /// stream — valid pipelines, junk, or truncations — parses to the
    /// same requests and the same terminal error as the one-shot path,
    /// and never panics.
    #[test]
    fn parser_is_chunking_invariant(
        bodies in collection::vec(
            collection::vec(32u8..127, 0..80).prop_map(|b| String::from_utf8(b).unwrap()),
            0..4,
        ),
        junk in collection::vec(any::<u8>(), 0..64),
        sizes in collection::vec(1usize..40, 1..12),
        include_junk in any::<bool>(),
    ) {
        let mut wire = valid_stream(&bodies);
        if include_junk {
            wire.extend_from_slice(&junk);
        }
        let (want_requests, want_error) = parse_whole(&wire);
        let (got_requests, got_error) = parse_chunked(&wire, &sizes);
        prop_assert_eq!(&got_requests, &want_requests);
        prop_assert_eq!(&got_error, &want_error);
        // The valid prefix always comes through, junk notwithstanding.
        prop_assert!(got_requests.len() >= bodies.len());
        for (i, body) in bodies.iter().enumerate() {
            prop_assert_eq!(&got_requests[i].path, &format!("/map{i}"));
            prop_assert_eq!(&got_requests[i].body, body);
            prop_assert!(!got_requests[i].close);
        }
    }

    /// Arbitrary garbage never panics the parser and never produces a
    /// phantom request unless the bytes really formed one.
    #[test]
    fn parser_survives_arbitrary_bytes(
        wire in collection::vec(any::<u8>(), 0..300),
        sizes in collection::vec(1usize..17, 1..8),
    ) {
        let whole = parse_whole(&wire);
        let chunked = parse_chunked(&wire, &sizes);
        prop_assert_eq!(whole, chunked);
    }
}

/// Every status `Response::reason` names, and one it does not.
const STATUSES: [u16; 9] = [200, 400, 404, 405, 413, 422, 429, 500, 503];

/// Any response the server could write, and whether it keeps the
/// connection alive: a status, a body of arbitrary characters (line
/// breaks included), an optional `Retry-After` and `Server-Timing`.
fn any_response() -> impl Strategy<Value = (Response, bool)> {
    (
        0..STATUSES.len(),
        collection::vec(0u32..0x11_0000, 0..60),
        (any::<bool>(), any::<u64>()),
        (any::<bool>(), 0u64..10_000_000),
        any::<bool>(),
    )
        .prop_map(
            |(status, chars, (retry, seconds), (timed, us), keep_alive)| {
                let body: String = chars
                    .into_iter()
                    .map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
                    .collect();
                let mut response = Response::new(STATUSES[status], body);
                if retry {
                    response = response.with_retry_after(seconds);
                }
                if timed {
                    response = response.with_server_timing(
                        Duration::from_micros(us),
                        Duration::from_micros(us / 3),
                    );
                }
                (response, keep_alive)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The client's scanner reads back what `encode_response` wrote:
    /// one to three pipelined responses, their bytes arriving split at
    /// arbitrary points and buffered as `Client::read_response` buffers
    /// them, come out with the same status, body, `Retry-After` and
    /// close flag, and no byte left over.
    #[test]
    fn client_scanner_round_trips_encoded_responses(
        responses in collection::vec(any_response(), 1..4),
        sizes in collection::vec(1usize..40, 1..12),
    ) {
        let mut wire = Vec::new();
        for (response, keep_alive) in &responses {
            wire.extend_from_slice(&encode_response(response, *keep_alive));
        }
        let mut buf = Vec::new();
        let mut got = Vec::new();
        let mut cycle = sizes.iter().copied().cycle();
        let mut at = 0;
        while at < wire.len() {
            let n = cycle.next().unwrap_or(1).min(wire.len() - at);
            buf.extend_from_slice(&wire[at..at + n]);
            at += n;
            while let Some(message) = http::scan(&buf, http::status_line).unwrap() {
                buf.drain(..message.len);
                got.push((message.first, message.body, message.retry_after, message.close));
            }
        }
        prop_assert!(buf.is_empty(), "{} bytes left over", buf.len());
        let want: Vec<_> = responses
            .iter()
            .map(|(r, keep_alive)| (r.status, r.body.clone(), r.retry_after, Some(!keep_alive)))
            .collect();
        prop_assert_eq!(got, want);
    }
}

#[test]
fn client_scanner_refuses_malformed_and_oversize_responses() {
    let scan = |wire: &[u8]| http::scan(wire, http::status_line).map(|m| m.is_some());
    // A bad status line is refused before any header arrives.
    let err = scan(b"HTTP/2 200 OK\r\n").unwrap_err();
    assert_eq!(err.to_string(), "malformed status line");
    let err = scan(b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n").unwrap_err();
    assert_eq!(
        (err.kind(), err.to_string()),
        (io::ErrorKind::InvalidData, "malformed header".into())
    );
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
        http::MAX_BODY + 1
    );
    let err = scan(head.as_bytes()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    // A body still arriving is not an error.
    assert!(!scan(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{").unwrap());
}

#[test]
fn parser_rejects_oversize_bodies_before_they_arrive() {
    // The Content-Length header alone triggers the 413 path; the
    // parser never waits for (or buffers) the oversized body.
    let mut parser = Parser::new();
    parser.feed(
        format!(
            "POST /map HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            http::MAX_BODY + 1
        )
        .as_bytes(),
    );
    let err = parser.next_request().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    // Errors are sticky: the connection must close, not resync.
    assert!(parser.next_request().is_err());
}

#[test]
fn parser_flags_connection_close_and_http10() {
    let mut parser = Parser::new();
    parser.feed(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(parser.next_request().unwrap().unwrap().close);
    let mut parser = Parser::new();
    parser.feed(b"GET /healthz HTTP/1.0\r\n\r\n");
    assert!(
        parser.next_request().unwrap().unwrap().close,
        "HTTP/1.0 closes"
    );
    let mut parser = Parser::new();
    parser.feed(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    assert!(!parser.next_request().unwrap().unwrap().close);
}

#[test]
fn parser_enforces_line_and_header_limits_incrementally() {
    // An endless request line errors as soon as the limit passes, even
    // though no terminator ever arrived (the slowloris guard).
    let mut parser = Parser::new();
    parser.feed(&vec![b'A'; 10 * 1024]);
    assert!(parser.next_request().is_err());
    // Carriage returns count toward the limit too, although the
    // scanner drops them from the line's text.
    let mut parser = Parser::new();
    parser.feed(&vec![b'\r'; MAX_REQUEST_LINE + 1]);
    let err = parser.next_request().unwrap_err();
    assert_eq!(err.to_string(), "line exceeds limit");
    // The limit is on the bytes before `\n`: a header line of exactly
    // `MAX_REQUEST_LINE` bytes, its `\r` included, is still accepted.
    let mut parser = Parser::new();
    let value = "v".repeat(MAX_REQUEST_LINE - "X-Long: \r".len());
    parser.feed(format!("GET /healthz HTTP/1.1\r\nX-Long: {value}\r\n\r\n").as_bytes());
    assert_eq!(parser.next_request().unwrap().unwrap().path, "/healthz");
    // Too many headers.
    let mut parser = Parser::new();
    parser.feed(b"GET / HTTP/1.1\r\n");
    for i in 0..101 {
        parser.feed(format!("X-H{i}: v\r\n").as_bytes());
    }
    parser.feed(b"\r\n");
    assert!(parser.next_request().is_err());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

#[test]
fn metrics_endpoint_exposes_prometheus_text() {
    let service = service();
    // Drive some traffic so every metric family has real samples.
    let body = format!("{{\"program\":{BELL:?},\"m\":2}}");
    assert_eq!(post(&service, "/map", &body).status, 200); // miss
    assert_eq!(post(&service, "/map", &body).status, 200); // hit
    assert_eq!(get(&service, "/nope").status, 404);

    let response = get(&service, "/metrics");
    assert_eq!(response.status, 200);
    assert_eq!(response.content_type, "text/plain; version=0.0.4");
    let text = &response.body;
    assert!(
        text.contains(concat!(
            "# TYPE qspr_http_requests_total counter\n",
            "qspr_http_requests_total{endpoint=\"/map\",status=\"200\"} 2\n",
        )),
        "{text}"
    );
    assert!(text.contains("qspr_http_requests_total{endpoint=\"other\",status=\"404\"} 1\n"));
    assert!(text.contains("qspr_cache_hits_total 1\n"), "{text}");
    assert!(text.contains("qspr_cache_misses_total 1\n"), "{text}");
    assert!(
        text.contains("# TYPE qspr_handler_latency_us summary\n"),
        "{text}"
    );
    assert!(
        text.contains("qspr_handler_latency_us{endpoint=\"/map\",quantile=\"0.99\"}"),
        "{text}"
    );
    // Exposition invariant the CI smoke also checks: every # TYPE line
    // is followed by at least one sample for its family.
    for (i, line) in text.lines().enumerate() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split(' ').next().unwrap();
            let has_sample = text
                .lines()
                .skip(i + 1)
                .take_while(|l| !l.starts_with("# HELP"))
                .any(|l| l.starts_with(family));
            assert!(has_sample, "family {family} has no samples:\n{text}");
        }
    }
    // /metrics requests themselves are counted (visible on the next
    // scrape), and non-GET methods are rejected like other endpoints.
    assert_eq!(post(&service, "/metrics", "").status, 405);
    let again = get(&service, "/metrics");
    assert!(
        again
            .body
            .contains("qspr_http_requests_total{endpoint=\"/metrics\",status=\"200\"} 1\n"),
        "{}",
        again.body
    );
}

// ---------------------------------------------------------------------------
// Real TCP
// ---------------------------------------------------------------------------

#[test]
fn wake_addr_rewrites_wildcard_binds_only() {
    let concrete: SocketAddr = "127.0.0.1:7878".parse().unwrap();
    assert_eq!(wake_addr(concrete), concrete);
    let v4: SocketAddr = "0.0.0.0:7878".parse().unwrap();
    assert_eq!(wake_addr(v4), "127.0.0.1:7878".parse().unwrap());
    let v6: SocketAddr = "[::]:7878".parse().unwrap();
    assert_eq!(wake_addr(v6), "[::1]:7878".parse().unwrap());
}

#[test]
fn server_round_trips_over_real_tcp() {
    let service = Arc::new(service());
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    };
    let handle = Server::bind(Arc::clone(&service), &config)
        .expect("bind ephemeral")
        .spawn();
    let addr = handle.addr();

    let health = http::call(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(
        (health.status, health.body.as_str()),
        (
            200,
            concat!(
                r#"{"status":"ok","version":""#,
                env!("CARGO_PKG_VERSION"),
                "\"}"
            ),
        )
    );

    // Binding surfaced the actual address in /stats.
    let stats = http::call(addr, "GET", "/stats", "").unwrap();
    assert!(
        stats.body.contains(&format!(r#""addr":"{addr}""#)),
        "{}",
        stats.body
    );

    let body = format!("{{\"program\":{BELL:?},\"m\":2}}");
    let cold = http::call(addr, "POST", "/map", &body).unwrap();
    let warm = http::call(addr, "POST", "/map", &body).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(
        (warm.status, &warm.body),
        (cold.status, &cold.body),
        "cached body is byte-identical on the wire"
    );

    // Malformed HTTP gets a 400 without killing the server.
    let garbage = http::call(addr, "BAD REQUEST LINE", "/", "").unwrap();
    assert_eq!(garbage.status, 400);
    let still_up = http::call(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(still_up.status, 200);

    handle.shutdown().expect("graceful shutdown");
    assert!(service.shutdown_requested());
}

/// Sends one `Connection: close` request over a plain socket and
/// returns the raw response split into its header lines and body.
fn raw_exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (Vec<String>, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut wire = String::new();
    stream.read_to_string(&mut wire).unwrap();
    let (head, body) = wire.split_once("\r\n\r\n").expect("header terminator");
    (head.lines().map(str::to_owned).collect(), body.to_owned())
}

/// The `(queue, handler)` durations of a well-formed `Server-Timing:
/// queue;dur=<ms>, handler;dur=<ms>` header among `headers`.
fn server_timing(headers: &[String]) -> (f64, f64) {
    let value = headers
        .iter()
        .find_map(|h| h.strip_prefix("Server-Timing: "))
        .unwrap_or_else(|| panic!("no Server-Timing header in {headers:?}"));
    let dur = |metric: &str, name: &str| -> f64 {
        let ms = metric
            .strip_prefix(name)
            .and_then(|m| m.strip_prefix(";dur="))
            .unwrap_or_else(|| panic!("malformed {name} metric in {value:?}"));
        ms.parse()
            .unwrap_or_else(|_| panic!("non-numeric {name} in {value:?}"))
    };
    let (queue, handler) = value.split_once(", ").expect("two metrics");
    (dur(queue, "queue"), dur(handler, "handler"))
}

#[test]
fn worker_responses_carry_their_own_server_timing() {
    let service = Arc::new(service());
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        ..ServeConfig::default()
    };
    let handle = Server::bind(Arc::clone(&service), &config)
        .expect("bind ephemeral")
        .spawn();
    let addr = handle.addr();
    let body = format!("{{\"program\":{BELL:?},\"m\":2}}");

    let (miss_headers, miss) = raw_exchange(addr, "POST", "/map", &body);
    let (hit_headers, hit) = raw_exchange(addr, "POST", "/map", &body);
    assert_eq!(miss_headers[0], "HTTP/1.1 200 OK");
    assert_eq!(hit_headers[0], "HTTP/1.1 200 OK");
    let stats = service.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    // Both carry their own timing; the body carries none, and the
    // hit replays the miss's bytes exactly.
    for (queue, handler) in [server_timing(&miss_headers), server_timing(&hit_headers)] {
        assert!(queue >= 0.0 && handler >= 0.0);
    }
    assert!(!miss.contains("\"timing\""), "{miss}");
    assert_eq!(hit, miss);

    // Light endpoints answer outside the permit gate.
    let (health_headers, _) = raw_exchange(addr, "GET", "/healthz", "");
    assert!(!health_headers
        .iter()
        .any(|h| h.starts_with("Server-Timing")));

    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn keep_alive_connections_pipeline_and_preserve_order() {
    let service = Arc::new(service());
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    };
    let handle = Server::bind(Arc::clone(&service), &config)
        .expect("bind ephemeral")
        .spawn();
    let mut client = http::Client::connect(handle.addr()).unwrap();

    // Several sequential requests reuse the one connection.
    for _ in 0..3 {
        let health = client.send("GET", "/healthz", "").unwrap();
        assert_eq!(health.status, 200);
        assert!(!client.is_closed(), "connection stays keep-alive");
    }

    // Pipelining: fire a slow mapping, a fast inline endpoint, another
    // mapping and another inline request back-to-back, then read all
    // four. Responses must come back in request order even though the
    // pool finishes the fast ones first.
    let map_body = format!("{{\"program\":{BELL:?},\"m\":2}}");
    let cmp_body = format!("{{\"program\":{BELL:?},\"name\":\"bell\",\"m\":2}}");
    client.write_request("POST", "/map", &map_body).unwrap();
    client.write_request("GET", "/healthz", "").unwrap();
    client.write_request("POST", "/compare", &cmp_body).unwrap();
    client.write_request("GET", "/healthz", "").unwrap();
    let first = client.read_response().unwrap();
    let second = client.read_response().unwrap();
    let third = client.read_response().unwrap();
    let fourth = client.read_response().unwrap();
    assert!(
        first.body.starts_with(r#"{"policy":"qspr""#),
        "map answer first: {}",
        first.body
    );
    assert!(
        second.body.starts_with(r#"{"status":"ok""#),
        "{}",
        second.body
    );
    assert!(
        third.body.starts_with(r#"{"circuit":"bell""#),
        "{}",
        third.body
    );
    assert!(fourth.body.starts_with(r#"{"status":"ok""#));
    assert!(!client.is_closed());

    // A second client sees the cached bytes of the first, over its own
    // persistent connection.
    let mut other = http::Client::connect(handle.addr()).unwrap();
    let warm = other.send("POST", "/map", &map_body).unwrap();
    assert_eq!(warm.body, first.body);

    // Connection: close is honored mid-stream.
    let bye = http::call(handle.addr(), "GET", "/healthz", "").unwrap();
    assert_eq!(bye.status, 200);

    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn keep_alive_zero_restores_close_per_request() {
    let service = Arc::new(service());
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        keep_alive_secs: 0,
        ..ServeConfig::default()
    };
    let handle = Server::bind(Arc::clone(&service), &config)
        .expect("bind ephemeral")
        .spawn();
    let mut client = http::Client::connect(handle.addr()).unwrap();
    let health = client.send("GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    assert!(
        client.is_closed(),
        "keep_alive_secs=0 answers with Connection: close"
    );
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let service = Arc::new(service());
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        ..ServeConfig::default()
    };
    let handle = Server::bind(Arc::clone(&service), &config)
        .expect("bind ephemeral")
        .spawn();
    let addr = handle.addr();
    let bye = http::call(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(
        (bye.status, bye.body.as_str()),
        (200, r#"{"status":"shutting-down"}"#)
    );
    // run() returns on its own — join without sending anything else.
    handle.thread.join().expect("no panic").expect("clean exit");
    assert!(http::call(addr, "GET", "/healthz", "").is_err());
}
