//! Load generator and correctness oracle for `qspr serve`.
//!
//! Drives N persistent keep-alive connections against a running
//! service and asserts that every response matches what the library
//! (and therefore `qspr map --format json` / `qspr compare --format
//! json`) produces locally for the same inputs:
//!
//! * `/map` responses must be byte-identical to the local
//!   [`FlowSummary`] JSON, always: no body carries a clock (per-request
//!   time travels in the `Server-Timing` header, which is not compared);
//! * `/compare` responses must be byte-identical to the local
//!   [`ComparisonRow`] JSON, always;
//! * `/batch` responses must be byte-identical to the JSON array of
//!   the local comparison rows, in input order — and must share cache
//!   entries with `/compare`;
//! * `/sta` responses must be byte-identical to the first;
//! * `/stats` counters must add up (hits + misses = map + compare +
//!   sta requests + batch programs, hits > 0 once the workload repeats
//!   itself) and the summed `qspr_http_requests_total` samples on
//!   `/metrics` must equal the `/stats` request counter;
//! * `/metrics` must serve non-empty Prometheus text in which every
//!   `# TYPE` family has at least one sample line.
//!
//! Every connection runs a closed loop: it sends its next request as
//! soon as the previous response has been checked. Service speed is
//! measured by the standalone `perfbench` package, not here.
//!
//! `--storm N` switches to the backpressure drill: N threads fire one
//! heavy `/map` each through a barrier and every response must be
//! either a correct 200 or a `429 Too Many Requests` carrying
//! `Retry-After`; at least one of each must be observed, and every
//! rejected request must succeed when retried after the storm. CI
//! runs this against `qspr serve --threads 1 --max-queue 1`.
//!
//! Any violation prints the offending pair and exits non-zero — CI
//! runs `loadgen --quick` against a freshly started server as the
//! service smoke test.
//!
//! Usage: `cargo run -p qspr-bench --release --bin loadgen --
//! --addr 127.0.0.1:7878 [--connections N] [--iters N] [--quick]
//! [--storm N] [--shutdown]`
//!
//! [`FlowSummary`]: qspr::FlowSummary
//! [`ComparisonRow`]: qspr::ComparisonRow

use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use qspr::json::{JsonArray, JsonObject, JsonValue, ToJson};
use qspr::service::http;
use qspr::{Flow, FlowPolicy, RouterKind};
use qspr_bench::{parse_flag, quick_mode};
use qspr_fabric::Fabric;
use qspr_qasm::Program;
use qspr_qecc::{codes, encoder};

const BELL: &str = "QUBIT a\nQUBIT b\nH a\nC-X a,b\n";
const GHZ3: &str = "QUBIT a\nQUBIT b\nQUBIT c\nH a\nC-X a,b\nC-X b,c\n";

/// One request case: the `/map` (and `/compare`) body to send plus the
/// locally computed expected responses.
struct Case {
    label: String,
    map_body: String,
    compare_body: String,
    /// Expected `/map` body.
    expect_map: String,
    /// Expected `/compare` body.
    expect_compare: String,
}

/// The full workload: per-case oracles plus one `/batch` request whose
/// expected body is the input-ordered array of the first two cases'
/// comparison rows, and one `/sta` probe.
struct Workload {
    cases: Vec<Case>,
    batch_body: String,
    expect_batch: String,
    sta_body: String,
}

fn string_flag(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Builds the workload: every case carries its own expected bytes,
/// computed through the same `Flow` code path the CLI uses.
fn build_workload(quick: bool) -> Workload {
    let five13 = encoder::encoding_circuit(&codes::five_one_three())
        .expect("paper code encodes")
        .to_qasm();
    let mut specs: Vec<(String, String, FlowPolicy, RouterKind, usize)> = vec![
        (
            "bell-qspr-greedy".into(),
            BELL.into(),
            FlowPolicy::Qspr,
            RouterKind::Greedy,
            4,
        ),
        (
            "ghz3-quale-greedy".into(),
            GHZ3.into(),
            FlowPolicy::Quale,
            RouterKind::Greedy,
            4,
        ),
        (
            "five13-qspr-negotiated".into(),
            five13.clone(),
            FlowPolicy::Qspr,
            RouterKind::Negotiated,
            4,
        ),
    ];
    if !quick {
        let steane = encoder::encoding_circuit(&codes::steane())
            .expect("paper code encodes")
            .to_qasm();
        specs.push((
            "five13-qspr-greedy-m8".into(),
            five13,
            FlowPolicy::Qspr,
            RouterKind::Greedy,
            8,
        ));
        specs.push((
            "steane-qspr-greedy".into(),
            steane.clone(),
            FlowPolicy::Qspr,
            RouterKind::Greedy,
            4,
        ));
        specs.push((
            "steane-qpos-greedy".into(),
            steane,
            FlowPolicy::Qpos,
            RouterKind::Greedy,
            4,
        ));
    }

    let fabric = Arc::new(Fabric::quale_45x85());
    let cases: Vec<Case> = specs
        .into_iter()
        .map(|(label, text, policy, router, m)| {
            let program = Program::parse(&text).expect("workload programs parse");
            let flow = Flow::on(Arc::clone(&fabric))
                .policy(policy)
                .router(router)
                .seeds(m);
            let expect_map = flow
                .run(&program)
                .expect("workload programs map")
                .summary()
                .to_json();
            // `/compare` always runs the comparison flow (no policy
            // field), exactly like `qspr compare`.
            let compare_flow = Flow::on(Arc::clone(&fabric)).router(router).seeds(m);
            let expect_compare = compare_flow
                .compare(&label, &program)
                .expect("workload programs compare")
                .to_json();
            let map_body = JsonObject::new()
                .string("program", &text)
                .string("policy", policy.as_str())
                .string("router", router.as_str())
                .number("m", m as u64)
                .build();
            let compare_body = JsonObject::new()
                .string("program", &text)
                .string("name", &label)
                .string("router", router.as_str())
                .number("m", m as u64)
                .build();
            Case {
                label,
                map_body,
                compare_body,
                expect_map,
                expect_compare,
            }
        })
        .collect();

    // The batch request reuses the first two cases (both compare under
    // greedy / m=4) with the same names, so its cache entries are the
    // same entries `/compare` populates — the sharing is part of the
    // contract under test.
    let string_array = |items: &[&str]| {
        let mut array = JsonArray::new();
        for item in items {
            array.push_raw(&format!("\"{}\"", qspr::json::escape(item)));
        }
        array.build()
    };
    let batch_body = JsonObject::new()
        .raw("programs", &string_array(&[BELL, GHZ3]))
        .raw("names", &string_array(&[&cases[0].label, &cases[1].label]))
        .string("router", "greedy")
        .number("m", 4)
        .build();
    let expect_batch = format!("[{},{}]", cases[0].expect_compare, cases[1].expect_compare);
    let sta_body = JsonObject::new()
        .string("program", BELL)
        .number("m", 4)
        .build();
    Workload {
        cases,
        batch_body,
        expect_batch,
        sta_body,
    }
}

/// Waits for `/healthz` to answer (a freshly spawned server may still
/// be binding when CI starts us).
fn await_health(addr: &str) -> Result<(), String> {
    for _ in 0..50 {
        match http::call(addr, "GET", "/healthz", "") {
            Ok(r) if r.status == 200 => return Ok(()),
            _ => thread::sleep(Duration::from_millis(100)),
        }
    }
    Err(format!("service at {addr} did not become healthy"))
}

/// Sends one request over the connection in `client`, transparently
/// (re)connecting — on first use, after a `Connection: close`, or when
/// the server reaped the idle connection between iterations.
fn send(
    client: &mut Option<http::Client>,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<http::Response, String> {
    for retry in [true, false] {
        let usable = client.as_ref().is_some_and(|c| !c.is_closed());
        if !usable {
            *client =
                Some(http::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
        }
        match client
            .as_mut()
            .expect("connected above")
            .send(method, path, body)
        {
            Ok(response) => return Ok(response),
            Err(e) => {
                // A dead keep-alive socket is retried once on a fresh
                // connection; a second failure is the server's fault.
                *client = None;
                if !retry {
                    return Err(format!("{method} {path}: {e}"));
                }
            }
        }
    }
    unreachable!("the retry loop returns")
}

/// Checks one oracle response: a 200 whose body is byte-identical to
/// `expect`.
fn check(response: &http::Response, expect: &str, label: &str, path: &str) -> Result<(), String> {
    if response.status != 200 {
        return Err(format!(
            "{label}: POST {path} -> {} {}",
            response.status, response.body
        ));
    }
    if response.body != expect {
        return Err(format!(
            "{label}: {path} response differs from the local oracle\n  expected: {expect}\n  actual:   {}",
            response.body,
        ));
    }
    Ok(())
}

/// Validates a Prometheus text exposition: non-empty, and every
/// `# TYPE` family is followed by at least one sample line before the
/// next family begins.
fn validate_metrics(text: &str) -> Result<(), String> {
    if text.trim().is_empty() {
        return Err("/metrics body is empty".into());
    }
    let lines: Vec<&str> = text.lines().collect();
    let mut families = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        families += 1;
        let family = rest
            .split(' ')
            .next()
            .ok_or_else(|| format!("malformed TYPE line: {line}"))?;
        let has_sample = lines[i + 1..]
            .iter()
            .take_while(|l| !l.starts_with("# HELP"))
            .any(|l| l.starts_with(family));
        if !has_sample {
            return Err(format!("metric family {family} has no sample line"));
        }
    }
    if families == 0 {
        return Err(format!("/metrics has no # TYPE lines:\n{text}"));
    }
    Ok(())
}

/// The backpressure drill: `threads` concurrent heavy `/map` requests
/// released through a barrier against a deliberately tiny admission
/// queue. Every response must be a correct 200 or a 429 with
/// `Retry-After`; both kinds must be observed, and every rejected
/// request must succeed on a calm retry.
fn storm(addr: &str, threads: usize) -> Result<(), String> {
    await_health(addr)?;
    let five13 = encoder::encoding_circuit(&codes::five_one_three())
        .expect("paper code encodes")
        .to_qasm();
    // Distinct seed counts keep every request a cache miss (distinct
    // fingerprints), so each one really occupies the worker pool.
    let body = |m: usize| {
        JsonObject::new()
            .string("program", &five13)
            .number("m", m as u64)
            .build()
    };
    for attempt in 0..3 {
        let base = 4 + attempt * threads;
        let barrier = Arc::new(Barrier::new(threads));
        let mut outcomes: Vec<(usize, http::Response)> = Vec::new();
        thread::scope(|scope| -> Result<(), String> {
            let mut handles = Vec::new();
            for i in 0..threads {
                let barrier = Arc::clone(&barrier);
                let body = body(base + i);
                handles.push(scope.spawn(move || -> Result<http::Response, String> {
                    let mut client =
                        Some(http::Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
                    barrier.wait();
                    send(&mut client, addr, "POST", "/map", &body)
                }));
            }
            for (i, handle) in handles.into_iter().enumerate() {
                outcomes.push((i, handle.join().expect("storm worker panicked")?));
            }
            Ok(())
        })?;

        let mut accepted = 0usize;
        let mut rejected: Vec<usize> = Vec::new();
        for (i, response) in &outcomes {
            match response.status {
                200 => accepted += 1,
                429 => {
                    if response.retry_after.is_none() {
                        return Err(format!("429 without Retry-After: {}", response.body));
                    }
                    if !response.body.contains("admission queue") {
                        return Err(format!("unexpected 429 body: {}", response.body));
                    }
                    rejected.push(*i);
                }
                other => return Err(format!("storm request {i} -> {other} {}", response.body)),
            }
        }
        eprintln!(
            "storm attempt {attempt}: {accepted} accepted, {} rejected",
            rejected.len()
        );
        if accepted == 0 {
            return Err("storm: every request was rejected".into());
        }
        if rejected.is_empty() {
            // The pool drained faster than the barrier released the
            // herd; rerun with fresh seed counts before giving up.
            continue;
        }
        // Calm retries of the rejected bodies must all be admitted now,
        // and replay byte-identically from the cache on a second pass.
        let mut client = None;
        for i in rejected {
            let retry = send(&mut client, addr, "POST", "/map", &body(base + i))?;
            if retry.status != 200 {
                return Err(format!(
                    "post-storm retry {i} -> {} {}",
                    retry.status, retry.body
                ));
            }
            let replay = send(&mut client, addr, "POST", "/map", &body(base + i))?;
            if (replay.status, &replay.body) != (retry.status, &retry.body) {
                return Err(format!("post-storm replay {i} is not byte-identical"));
            }
        }
        eprintln!("storm: backpressure observed and every rejected request recovered");
        return Ok(());
    }
    Err("storm: no 429 observed in 3 attempts (queue never filled)".into())
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<(), String> {
    let addr = string_flag("--addr").ok_or("loadgen needs --addr host:port")?;
    let quick = quick_mode();
    let shutdown = std::env::args().any(|a| a == "--shutdown");
    if let Some(threads) = string_flag("--storm") {
        let threads: usize = threads
            .parse()
            .map_err(|_| format!("--storm expects a thread count, got {threads:?}"))?;
        storm(&addr, threads.max(2))?;
        if shutdown {
            let bye = http::call(&addr, "POST", "/shutdown", "")
                .map_err(|e| format!("POST /shutdown failed: {e}"))?;
            if bye.status != 200 {
                return Err(format!("shutdown refused: {} {}", bye.status, bye.body));
            }
        }
        return Ok(());
    }
    let connections = parse_flag("--connections", 8);
    let iters = parse_flag("--iters", if quick { 4 } else { 32 });

    await_health(&addr)?;
    eprintln!("building expected responses locally (the oracle run)...");
    let workload = Arc::new(build_workload(quick));
    // The /sta oracle is the service's own first answer: every later
    // response must repeat it byte for byte (across cache hits and
    // misses alike).
    let expect_sta = {
        let cold = http::call(&addr, "POST", "/sta", &workload.sta_body)
            .map_err(|e| format!("POST /sta failed: {e}"))?;
        if cold.status != 200 {
            return Err(format!("POST /sta -> {} {}", cold.status, cold.body));
        }
        cold.body
    };

    eprintln!(
        "driving {connections} connections x {iters} iters x {} cases...",
        workload.cases.len(),
    );
    let mut failures: Vec<String> = Vec::new();
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..connections {
            let workload = Arc::clone(&workload);
            let addr = addr.clone();
            let expect_sta = expect_sta.as_str();
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut client: Option<http::Client> = None;
                let mut fire = |path: &str, body: &str, expect: &str, label: &str| {
                    let response = send(&mut client, &addr, "POST", path, body)?;
                    check(&response, expect, label, path)
                };
                for i in 0..iters {
                    // Stagger starting offsets so threads collide on
                    // different cases (more cold/warm interleavings).
                    for c in 0..workload.cases.len() {
                        let case = &workload.cases[(c + t + i) % workload.cases.len()];
                        fire("/map", &case.map_body, &case.expect_map, &case.label)?;
                        fire(
                            "/compare",
                            &case.compare_body,
                            &case.expect_compare,
                            &case.label,
                        )?;
                    }
                    fire(
                        "/batch",
                        &workload.batch_body,
                        &workload.expect_batch,
                        "batch",
                    )?;
                    fire("/sta", &workload.sta_body, expect_sta, "sta")?;
                }
                Ok(())
            }));
        }
        for handle in handles {
            if let Err(e) = handle.join().expect("loadgen worker panicked") {
                failures.push(e);
            }
        }
    });
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    eprintln!(
        "{} concurrent requests matched the oracle",
        connections * iters * (workload.cases.len() * 2 + 2)
    );

    let mut client: Option<http::Client> = None;
    let batch = send(&mut client, &addr, "POST", "/batch", &workload.batch_body)?;
    if batch.body != workload.expect_batch {
        return Err(format!(
            "cached /batch response drifted\n  expected: {}\n  actual:   {}",
            workload.expect_batch, batch.body
        ));
    }
    eprintln!("cached /batch response still matches the oracle");

    // The counters must add up: every cache lookup belongs to exactly
    // one map/compare/sta request or batch program, and vice versa.
    let stats_body = send(&mut client, &addr, "GET", "/stats", "")?.body;
    let stats =
        JsonValue::parse(&stats_body).map_err(|e| format!("/stats body unparseable: {e}"))?;
    let field = |name: &str| -> Result<u64, String> {
        stats
            .get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("/stats lacks {name:?}: {stats_body}"))
    };
    let lookups = field("map_requests")?
        + field("compare_requests")?
        + field("sta_requests")?
        + field("batch_programs")?;
    let (hits, misses) = (field("cache_hits")?, field("cache_misses")?);
    if hits + misses != lookups {
        return Err(format!(
            "stats don't add up: {hits} hits + {misses} misses != {lookups} cache lookups\n  {stats_body}"
        ));
    }
    if hits == 0 {
        return Err(format!(
            "a repeating workload produced zero cache hits\n  {stats_body}"
        ));
    }
    eprintln!(
        "stats consistent: {} requests, {hits} hits / {misses} misses, {} rejected, busy {}ms",
        field("requests")?,
        field("rejected")?,
        field("busy_us")? / 1000
    );

    // The Prometheus exposition must be well-formed after real load,
    // and its request counter must agree with /stats: the samples are
    // recorded before /metrics renders, so the sum over all
    // endpoint/status labels equals the snapshot taken by the /stats
    // request just above (which counts itself).
    let metrics = send(&mut client, &addr, "GET", "/metrics", "")?;
    if metrics.status != 200 {
        return Err(format!("GET /metrics -> {}", metrics.status));
    }
    validate_metrics(&metrics.body)?;
    let metrics_requests: u64 = metrics
        .body
        .lines()
        .filter(|l| l.starts_with("qspr_http_requests_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    let stats_requests = field("requests")?;
    if metrics_requests != stats_requests {
        return Err(format!(
            "request counters disagree: /metrics sums to {metrics_requests}, /stats says {stats_requests}"
        ));
    }
    eprintln!(
        "/metrics exposition valid ({} families, request counters agree)",
        metrics
            .body
            .lines()
            .filter(|l| l.starts_with("# TYPE"))
            .count()
    );

    if shutdown {
        let bye = http::call(&addr, "POST", "/shutdown", "")
            .map_err(|e| format!("POST /shutdown failed: {e}"))?;
        if bye.status != 200 {
            return Err(format!("shutdown refused: {} {}", bye.status, bye.body));
        }
        eprintln!("server asked to shut down");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: FAILED\n{e}");
            ExitCode::FAILURE
        }
    }
}
