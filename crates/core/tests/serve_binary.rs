//! End-to-end tests of the `qspr serve` binary: spawn it on an
//! ephemeral port, check every mapping endpoint's bytes against the
//! library over keep-alive connections, check that `/stats` and
//! `/metrics` add up and that a full queue answers `429`, then shut it
//! down over HTTP and read its access log.

use std::io::{self, BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use qspr::json::JsonValue;
use qspr::service::http;
use qspr::{Flow, FlowPolicy, RouterKind, ToJson};
use qspr_fabric::Fabric;
use qspr_qasm::Program;

const BELL: &str = "QUBIT a\nQUBIT b\nH a\nC-X a,b\n";
const GHZ3: &str = "QUBIT a\nQUBIT b\nQUBIT c\nH a\nC-X a,b\nC-X b,c\n";

/// A spawned `qspr serve --log`, killed if a test fails before it has
/// shut down.
struct Serve {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
    log: Option<JoinHandle<io::Result<String>>>,
}

impl Serve {
    /// Starts `qspr serve` on an ephemeral port with `args` and reads
    /// the address from its `listening on http://ADDR/` line.
    fn spawn(args: &[&str]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qspr"))
            .args(["serve", "--addr", "127.0.0.1:0", "--log"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn qspr serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let log = Some(thread::spawn(move || io::read_to_string(stderr)));
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read stdout");
        let addr = line
            .strip_prefix("listening on http://")
            .and_then(|rest| rest.trim_end().strip_suffix('/'))
            .unwrap_or_else(|| panic!("no address line: {line:?}"))
            .to_owned();
        Serve {
            child,
            addr,
            stdout,
            log,
        }
    }

    /// Sends `POST /shutdown`, asserts that the server drains and exits
    /// with status 0, and returns its access log.
    fn shutdown(mut self) -> String {
        let bye = http::call(&self.addr, "POST", "/shutdown", "").expect("shutdown");
        assert_eq!(bye.status, 200, "{}", bye.body);
        // Reading to the end keeps the pipe open for the server's last line.
        io::read_to_string(&mut self.stdout).expect("read stdout");
        let status = self.child.wait().expect("wait for qspr serve");
        assert!(status.success(), "{status}");
        let log = self.log.take().expect("one shutdown").join();
        log.expect("stderr reader").expect("read stderr")
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `(path, body, expected body)` for `/map` (the defaults, then a
/// non-default policy and router), `/compare` and `/sta`, every
/// expected body computed locally through `Flow`.
fn cases() -> Vec<(&'static str, String, String)> {
    let fabric = Arc::new(Fabric::quale_45x85());
    let flow = || Flow::on(Arc::clone(&fabric)).seeds(4);
    let (bell, ghz3) = (Program::parse(BELL).unwrap(), Program::parse(GHZ3).unwrap());
    let map = |flow: Flow, program| flow.run(program).unwrap().summary().to_json();
    let quale = flow()
        .policy(FlowPolicy::Quale)
        .router(RouterKind::Negotiated);
    let traced = flow().record_trace(true);
    let sta = traced.timing_report(&bell, &traced.run(&bell).unwrap());
    let bell_m4 = format!(r#""program":{BELL:?},"m":4"#);
    let quale_body =
        format!(r#"{{"program":{GHZ3:?},"m":4,"policy":"quale","router":"negotiated"}}"#);
    vec![
        ("/map", format!("{{{bell_m4}}}"), map(flow(), &bell)),
        ("/map", quale_body, map(quale, &ghz3)),
        (
            "/compare",
            format!(r#"{{{bell_m4},"name":"bell"}}"#),
            flow().compare("bell", &bell).unwrap().to_json(),
        ),
        ("/sta", format!("{{{bell_m4}}}"), sta.unwrap().to_json()),
    ]
}

/// Sends `cases` in order from `start`, twice round, asserting that
/// every answer is a `200` with the library's bytes.
fn drive(client: &mut http::Client, cases: &[(&str, String, String)], start: usize) {
    for i in start..start + 2 * cases.len() {
        let (path, body, expected) = &cases[i % cases.len()];
        let response = client.send("POST", path, body).expect(path);
        assert_eq!(response.status, 200, "{path}: {}", response.body);
        assert_eq!(&response.body, expected, "{path} bytes == the library's");
    }
}

/// Asserts that every `/stats` cache lookup belongs to one
/// map/compare/sta request, and that the repeats hit; returns the
/// `requests` counter.
fn stats_adding_up(client: &mut http::Client) -> u64 {
    let stats = client.send("GET", "/stats", "").expect("stats").body;
    let stats = JsonValue::parse(&stats).expect("stats JSON");
    let field = |name| stats.get(name).and_then(JsonValue::as_u64).expect(name);
    let lookups = field("map_requests") + field("compare_requests") + field("sta_requests");
    assert_eq!(field("cache_hits") + field("cache_misses"), lookups);
    assert!(field("cache_hits") > 0);
    field("requests")
}

#[test]
fn one_keep_alive_connection_gets_the_library_bytes_and_counters_add_up() {
    let serve = Serve::spawn(&["--threads", "1", "--max-queue", "1"]);
    let mut client = http::Client::connect(&serve.addr).expect("connect");
    drive(&mut client, &cases(), 0);
    let stats_requests = stats_adding_up(&mut client);

    // Every `# TYPE` family has a sample, the span sink `qspr serve`
    // installs has recorded placement, and the request counters agree
    // with the `/stats` snapshot just taken (which counts itself).
    let metrics = client.send("GET", "/metrics", "").expect("metrics").body;
    let lines: Vec<&str> = metrics.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if let Some((family, _)) = line.strip_prefix("# TYPE ").and_then(|t| t.split_once(' ')) {
            let sampled = lines.get(i + 1).is_some_and(|l| l.starts_with(family));
            assert!(sampled, "{line} has no sample");
        }
    }
    assert!(metrics.contains("# TYPE "), "{metrics}");
    let place = |l: &&str| l.starts_with("qspr_span_us") && l.contains("span=\"place\"");
    assert!(lines.iter().any(place), "{metrics}");
    let requests: u64 = lines
        .iter()
        .filter(|l| l.starts_with("qspr_http_requests_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(requests, stats_requests);

    let log = serve.shutdown();
    for path in ["/map", "/compare", "/sta"] {
        let entry = format!("method=POST path={path} status=200");
        assert!(log.contains(&entry), "no {entry:?} in the log:\n{log}");
    }
}

#[test]
fn concurrent_keep_alive_clients_get_the_library_bytes() {
    // Four clients walk the cases from different starting points, so
    // cold and warm requests of every endpoint overlap across
    // connections; whatever the interleaving, every answer is the
    // library's bytes and the counters add up.
    let serve = Serve::spawn(&["--threads", "2"]);
    let (addr, cases) = (&serve.addr, &cases());
    thread::scope(|scope| {
        for start in 0..4 {
            scope.spawn(move || drive(&mut http::Client::connect(addr).unwrap(), cases, start));
        }
    });
    stats_adding_up(&mut http::Client::connect(addr).expect("connect"));
    serve.shutdown();
}

#[test]
fn a_full_queue_answers_429_and_the_access_log_records_it() {
    // One permit and a queue of one: a slow /map holds the permit, an
    // identical second waits, and a third is refused until they finish.
    let serve = Serve::spawn(&["--threads", "1", "--max-queue", "1"]);
    let slow = format!("{{\"program\":{BELL:?},\"m\":2000}}");
    let mut first = http::Client::connect(&serve.addr).expect("connect");
    first.write_request("POST", "/map", &slow).expect("map");
    let mut second = http::Client::connect(&serve.addr).expect("connect");
    second.write_request("POST", "/map", &slow).expect("map");
    let mut scraper = http::Client::connect(&serve.addr).expect("connect");
    let started = Instant::now();
    loop {
        let metrics = scraper.send("GET", "/metrics", "").expect("metrics").body;
        if metrics.contains("qspr_queue_depth{endpoint=\"/map\"} 1\n") {
            break;
        }
        assert!(started.elapsed() < Duration::from_secs(10), "never queued");
        thread::sleep(Duration::from_millis(2));
    }
    let third = http::call(&serve.addr, "POST", "/map", &slow).expect("third map");
    assert_eq!((third.status, third.retry_after), (429, Some(1)));
    let a = first.read_response().expect("first answer");
    let b = second.read_response().expect("second answer");
    assert_eq!((a.status, &a.body), (200, &b.body));
    let retry = http::call(&serve.addr, "POST", "/map", &slow).expect("retried map");
    assert_eq!((retry.status, &retry.body), (200, &a.body));
    let log = serve.shutdown();
    assert!(log.contains("method=POST path=/map status=429"), "{log}");
}
