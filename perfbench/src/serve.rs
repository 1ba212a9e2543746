//! The `qspr serve` side of the benchmark: a seeded request script, an
//! in-process server configured like `qspr serve`, and a closed loop of
//! keep-alive connections that checks every reply.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use qspr::fabric::Fabric;
use qspr::json::{JsonObject, JsonValue};
use qspr::obs::{Collector, MetricsSpanSink, SpanSink};
use qspr::service::http::Client;
use crate::calib::Reference;
use qspr::service::{
    normalize_timing, CacheConfig, MapService, Request, ServeConfig, Server, ServerHandle,
};

/// Client connections, each one caller waiting for every reply.
pub const CONNECTIONS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// `qspr serve --cache` default.
const CACHE_ENTRIES: usize = 128;
/// Hits each connection sends per script segment. With one fresh key
/// per segment — sent once, or twice when it is a twin — and its later
/// re-request, about 1 request in 20 is a miss.
///
/// The whole mix is an assumption, not drawn from a recorded request
/// trace: this hit share, the half of fresh keys sent as twins and the
/// one re-request per fresh key were chosen so that hits, misses and
/// concurrent identical misses all occur in one run. Counts that follow
/// from the mix (misses per fresh key, divergent replays) show that an
/// effect occurs, not how often it occurs in use.
const HITS_PER_SEGMENT: usize = 14;

/// SplitMix64: a tiny, well-mixed generator, so the script depends on
/// nothing but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Which program a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ask {
    /// Suite circuit `i`, verbatim: pre-warmed, so always a hit.
    Base(usize),
    /// Suite circuit `circuit` behind a `# k<id>-<suffix>` comment
    /// line: a new cache key for the same mapping work.
    Fresh {
        circuit: usize,
        id: u32,
        suffix: u64,
    },
}

impl Ask {
    pub fn circuit(self) -> usize {
        match self {
            Ask::Base(c) | Ask::Fresh { circuit: c, .. } => c,
        }
    }
}

/// One step of one connection's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A request the cache already holds.
    Hit(Ask),
    /// A fresh key only this connection sends.
    Miss(Ask),
    /// A fresh key both connections send at once, after a barrier.
    Twin(Ask),
}

/// Draws from `0..n` without replacement, refilling with a fresh
/// shuffle when empty: every value comes up equally often over any
/// `n` draws, so a run's mix barely depends on the seed.
struct Bag {
    n: usize,
    left: Vec<usize>,
}

impl Bag {
    fn new(n: usize) -> Bag {
        Bag {
            n,
            left: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
            for i in (1..self.n).rev() {
                self.left.swap(i, rng.below(i + 1));
            }
        }
        self.left.pop().expect("refilled above")
    }
}

/// The per-connection request scripts for `segments` segments: a pure
/// function of `seed`.
pub fn script(seed: u64, segments: usize, circuits: usize) -> Vec<Vec<Step>> {
    let mut rng = Rng::new(seed);
    let mut out = vec![Vec::new(); CONNECTIONS];
    let mut hit_bags: Vec<Bag> = (0..CONNECTIONS).map(|_| Bag::new(circuits)).collect();
    // Every circuit gets as many twin keys as solo keys.
    let mut fresh_keys = Bag::new(2 * circuits);
    let mut owners = Bag::new(CONNECTIONS);
    // The fresh key of the previous segment and the connection that
    // re-requests it (its sender, whose own request has completed).
    let mut pending: Option<(Ask, usize)> = None;
    for id in 0..segments {
        let key = fresh_keys.draw(&mut rng);
        let ask = Ask::Fresh {
            circuit: key / 2,
            id: id as u32,
            suffix: rng.next_u64(),
        };
        let owner = owners.draw(&mut rng);
        if key % 2 == 0 {
            for conn in &mut out {
                conn.push(Step::Twin(ask));
            }
        } else {
            out[owner].push(Step::Miss(ask));
        }
        let again = pending.replace((ask, owner));
        for (c, (conn, bag)) in out.iter_mut().zip(&mut hit_bags).enumerate() {
            let mut hits: Vec<Step> = (0..HITS_PER_SEGMENT)
                .map(|_| Step::Hit(Ask::Base(bag.draw(&mut rng))))
                .collect();
            if let Some((ask, owner)) = again {
                if owner == c {
                    hits.insert(rng.below(hits.len() + 1), Step::Hit(ask));
                }
            }
            conn.extend(hits);
        }
    }
    out
}

/// Request bodies for every [`Ask`], at the service's default
/// configuration.
pub struct Bodies {
    texts: Vec<String>,
}

impl Bodies {
    pub fn new(texts: Vec<String>) -> Bodies {
        Bodies { texts }
    }

    pub fn body(&self, ask: Ask) -> String {
        let program = match ask {
            Ask::Base(c) => self.texts[c].clone(),
            Ask::Fresh {
                circuit,
                id,
                suffix,
            } => format!("# k{id}-{suffix:016x}\n{}", self.texts[circuit]),
        };
        JsonObject::new().string("program", &program).build()
    }
}

/// What a traffic window measured and found.
#[derive(Debug, Default)]
pub struct Traffic {
    /// Client-observed latency of every hit, µs.
    pub hit_us: Vec<f64>,
    /// Client-observed latency of every solo miss, ms, per suite
    /// circuit.
    pub solo_ms: Vec<Vec<f64>>,
    /// The same for twin misses (both connections sent the key).
    pub twin_ms: Vec<Vec<f64>>,
    /// Each solo miss's latency over the mean reference-kernel time its
    /// connection measured just before and after it, per circuit.
    pub solo_ref: Vec<Vec<f64>>,
    /// The same for twin misses.
    pub twin_ref: Vec<Vec<f64>>,
    /// Every reference-kernel time, ns.
    pub ref_ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Hits whose bytes differ from the first reply for their key.
    pub divergent: u64,
    /// Distinct fresh keys sent.
    pub fresh_keys: u64,
    pub elapsed_s: f64,
    pub errors: Vec<String>,
}

impl Traffic {
    pub fn new(circuits: usize) -> Traffic {
        Traffic {
            solo_ms: vec![Vec::new(); circuits],
            twin_ms: vec![Vec::new(); circuits],
            solo_ref: vec![Vec::new(); circuits],
            twin_ref: vec![Vec::new(); circuits],
            ..Traffic::default()
        }
    }

    /// Adds `other`'s samples, counts and elapsed time to this one.
    pub fn absorb(&mut self, other: Traffic) {
        self.hit_us.extend(other.hit_us);
        for (mine, theirs) in self.solo_ms.iter_mut().zip(other.solo_ms) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.twin_ms.iter_mut().zip(other.twin_ms) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.solo_ref.iter_mut().zip(other.solo_ref) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.twin_ref.iter_mut().zip(other.twin_ref) {
            mine.extend(theirs);
        }
        self.ref_ns.extend(other.ref_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.divergent += other.divergent;
        self.fresh_keys += other.fresh_keys;
        self.elapsed_s += other.elapsed_s;
        self.errors.extend(other.errors);
    }

    /// The wall time of one suite sweep through the service, ms: Σ over
    /// circuits of the mean of the circuit's median solo-miss and median
    /// twin-miss latency. Twins wait longer (two mappings share the
    /// cores), so taking each kind's median apart keeps the estimate
    /// off the gap between them. `None` when some circuit missed no
    /// key of either kind.
    pub fn suite_wall_ms(&self) -> Option<f64> {
        suite_sum(&self.solo_ms, &self.twin_ms)
    }

    /// [`Traffic::suite_wall_ms`] with every miss latency in units of
    /// the reference kernel measured beside it.
    pub fn suite_wall_ref(&self) -> Option<f64> {
        suite_sum(&self.solo_ref, &self.twin_ref)
    }

    /// The median reference-kernel time, ms.
    pub fn ref_ms(&self) -> Option<f64> {
        crate::stats::median(&self.ref_ns).map(|ns| ns / 1e6)
    }

    pub fn requests_per_s(&self) -> f64 {
        self.attempted as f64 / self.elapsed_s
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}

fn suite_sum(solo: &[Vec<f64>], twin: &[Vec<f64>]) -> Option<f64> {
    let med = |v: &Vec<f64>| crate::stats::median(v);
    solo.iter()
        .zip(twin)
        .map(|(solo, twin)| Some((med(solo)? + med(twin)?) / 2.0))
        .sum()
}

/// A running in-process server plus what the traffic needs to check
/// its replies.
pub struct Live {
    pub handle: ServerHandle,
    pub bodies: Bodies,
    /// Expected `/map` body per circuit, timing normalized.
    pub expect: Vec<String>,
    /// The first reply seen for each key (replayed hits must match).
    first: Mutex<HashMap<Ask, String>>,
}

/// Starts a server configured like `qspr serve --threads 2` (default
/// cache, default jobs budget) with its span histograms feeding
/// `/metrics`, then warms the cache with one request per circuit.
///
/// # Errors
///
/// Socket failures, or a warm-up reply that is not the expected body.
pub fn start(fabric: Arc<Fabric>, bodies: Bodies, expect: Vec<String>) -> Result<Live, String> {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    let service = Arc::new(
        MapService::new(fabric, CACHE_ENTRIES)
            .with_cache(CacheConfig {
                entries: CACHE_ENTRIES,
                ..CacheConfig::default()
            })
            .with_jobs_budget((cores / WORKERS).max(1)),
    );
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: WORKERS,
        ..ServeConfig::default()
    };
    let server = Server::bind(service, &config).map_err(|e| format!("bind: {e}"))?;
    let live = Live {
        handle: server.spawn(),
        bodies,
        expect,
        first: Mutex::new(HashMap::new()),
    };
    // The sink is process-global, as in `qspr serve`.
    qspr::obs::install_global(Arc::new(MetricsSpanSink::new(Arc::clone(
        live.handle.service().metrics(),
    ))));
    let mut client = Client::connect(live.handle.addr()).map_err(|e| format!("connect: {e}"))?;
    for c in 0..live.expect.len() {
        let ask = Ask::Base(c);
        let reply = client
            .send("POST", "/map", &live.bodies.body(ask))
            .map_err(|e| format!("warm-up: {e}"))?;
        live.check(Step::Miss(ask), reply.status, reply.body)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(live)
}

impl Live {
    /// Checks one reply against the oracle; returns whether it is a
    /// hit whose bytes differ from the first reply for its key.
    fn check(&self, step: Step, status: u16, body: String) -> Result<bool, String> {
        let ask = match step {
            Step::Hit(a) | Step::Miss(a) | Step::Twin(a) => a,
        };
        if status != 200 {
            return Err(format!("{ask:?}: status {status}: {body}"));
        }
        if normalize_timing(&body) != self.expect[ask.circuit()] {
            return Err(format!(
                "{ask:?}: reply differs from the local flow: {body}"
            ));
        }
        let mut first = self.first.lock().expect("first-reply map lock");
        match first.get(&ask) {
            Some(seen) => Ok(matches!(step, Step::Hit(_)) && *seen != body),
            None => {
                first.insert(ask, body);
                Ok(false)
            }
        }
    }

    /// Runs the scripts on [`CONNECTIONS`] keep-alive connections for
    /// about `window`. Connections stop together at the first twin
    /// barrier after the deadline that follows a full bag of fresh keys,
    /// or at the deadline itself when the scripts hold no twins.
    pub fn drive(&self, scripts: &[Vec<Step>], window: Duration) -> Traffic {
        let started = Instant::now();
        let deadline = started + window;
        let barrier = Barrier::new(scripts.len());
        let stop = AtomicBool::new(false);
        let mut total = Traffic::new(self.expect.len());
        let parts: Vec<Traffic> = thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(conn, steps)| {
                    let (barrier, stop) = (&barrier, &stop);
                    scope.spawn(move || self.connection(conn, steps, deadline, barrier, stop))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for part in parts {
            total.absorb(part);
        }
        total.elapsed_s = started.elapsed().as_secs_f64();
        total
    }

    fn connection(
        &self,
        conn: usize,
        steps: &[Step],
        deadline: Instant,
        barrier: &Barrier,
        stop: &AtomicBool,
    ) -> Traffic {
        let twins = steps.iter().any(|s| matches!(s, Step::Twin(_)));
        let mut out = Traffic::new(self.expect.len());
        let mut client: Option<Client> = None;
        let mut kernel = Reference::new();
        for &step in steps {
            // A miss is bracketed by reference-kernel runs on this thread;
            // their CPU time leaves out waiting for a core.
            let fresh = !matches!(step, Step::Hit(_));
            let ref_before = if fresh { kernel.measure() } else { 0.0 };
            match step {
                Step::Twin(ask) => {
                    // Both connections agree on stopping: the barrier
                    // leader decides, the second wait publishes it. Not
                    // before one full bag of fresh keys has been sent,
                    // so every circuit has a solo and a twin miss.
                    let bag_done = matches!(ask, Ask::Fresh { id, .. } if id as usize >= 2 * self.expect.len());
                    if barrier.wait().is_leader() {
                        stop.store(bag_done && Instant::now() >= deadline, Ordering::SeqCst);
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                _ if !twins && Instant::now() >= deadline => break,
                _ => {}
            }
            let ask = match step {
                Step::Hit(a) | Step::Miss(a) | Step::Twin(a) => a,
            };
            if matches!(step, Step::Miss(_)) || (matches!(step, Step::Twin(_)) && conn == 0) {
                out.fresh_keys += 1;
            }
            let body = self.bodies.body(ask);
            out.attempted += 1;
            let sent = Instant::now();
            let reply = send(&mut client, self.handle.addr(), &body);
            let elapsed = sent.elapsed();
            match reply
                .map_err(|e| e.to_string())
                .and_then(|r| self.check(step, r.status, r.body))
            {
                Ok(divergent) => {
                    out.divergent += u64::from(divergent);
                    let ms = elapsed.as_secs_f64() * 1e3;
                    if fresh {
                        let ref_after = kernel.measure();
                        out.ref_ns.extend([ref_before, ref_after]);
                        let ratio = ms * 1e6 / ((ref_before + ref_after) / 2.0);
                        let c = ask.circuit();
                        if matches!(step, Step::Twin(_)) {
                            out.twin_ms[c].push(ms);
                            out.twin_ref[c].push(ratio);
                        } else {
                            out.solo_ms[c].push(ms);
                            out.solo_ref[c].push(ratio);
                        }
                    } else {
                        out.hit_us.push(ms * 1e3);
                    }
                }
                Err(e) => out.fail(format!("connection {conn}: {e}")),
            }
        }
        out
    }

    /// Median µs of `MapService::handle` answering a cached `/map`
    /// directly, with no transport: `calls` calls cycling the circuits.
    pub fn handle_hit_us(&self, calls: usize) -> f64 {
        let service = self.handle.service();
        let requests: Vec<Request> = (0..self.expect.len())
            .map(|c| Request::new("POST", "/map", self.bodies.body(Ask::Base(c))))
            .collect();
        let samples: Vec<f64> = (0..calls)
            .map(|i| {
                let request = &requests[i % requests.len()];
                let t = Instant::now();
                let response = service.handle(request);
                let us = t.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(response);
                us
            })
            .collect();
        crate::stats::median(&samples).unwrap_or(0.0)
    }

    /// Counters from `GET /stats` and quantiles from `GET /metrics`.
    ///
    /// # Errors
    ///
    /// A failed request or an unreadable reply.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let mut client = Client::connect(self.handle.addr()).map_err(|e| e.to_string())?;
        let stats = client
            .send("GET", "/stats", "")
            .map_err(|e| e.to_string())?;
        let stats = JsonValue::parse(&stats.body).map_err(|e| e.to_string())?;
        let field = |key: &str| {
            stats
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("/stats lacks {key}"))
        };
        let metrics = client
            .send("GET", "/metrics", "")
            .map_err(|e| e.to_string())?;
        let sample = |series: &str| {
            metrics
                .body
                .lines()
                .find_map(|line| line.strip_prefix(series))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or_else(|| format!("/metrics lacks {series}"))
        };
        Ok(Scrape {
            cache_hits: field("cache_hits")?,
            cache_misses: field("cache_misses")?,
            busy_us: field("busy_us")?,
            rejected: field("rejected")?,
            handler_p50_us: sample("qspr_handler_latency_us{endpoint=\"/map\",quantile=\"0.5\"}")?,
            handler_p99_us: sample("qspr_handler_latency_us{endpoint=\"/map\",quantile=\"0.99\"}")?,
            queue_p50_us: sample("qspr_queue_wait_us{quantile=\"0.5\"}")?,
            queue_p99_us: sample("qspr_queue_wait_us{quantile=\"0.99\"}")?,
        })
    }

    /// Shuts the server down and waits for its threads.
    pub fn stop(self) -> Result<(), String> {
        let result = self.handle.shutdown().map_err(|e| format!("shutdown: {e}"));
        qspr::obs::uninstall_global();
        result
    }
}

/// Service-side numbers of one server's lifetime.
#[derive(Debug, Clone, Copy)]
pub struct Scrape {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub busy_us: u64,
    pub rejected: u64,
    pub handler_p50_us: f64,
    pub handler_p99_us: f64,
    pub queue_p50_us: f64,
    pub queue_p99_us: f64,
}

/// A span sink feeding both the service's `/metrics` histograms and a
/// [`Collector`], so a traced serve window keeps the span work
/// `qspr serve` always does and adds the benchmark's span tree.
pub struct Tee {
    pub metrics: MetricsSpanSink,
    pub collector: Arc<Collector>,
}

impl SpanSink for Tee {
    fn enter(&self, parent: Option<u32>, name: &'static str) -> u32 {
        self.metrics.enter(parent, name);
        self.collector.enter(parent, name)
    }

    fn exit(&self, token: u32, name: &'static str, nanos: u64) {
        self.metrics.exit(token, name, nanos);
        self.collector.exit(token, name, nanos);
    }
}

/// Sends `body` to `/map`, (re)connecting as needed.
fn send(
    client: &mut Option<Client>,
    addr: std::net::SocketAddr,
    body: &str,
) -> io::Result<qspr::service::Response> {
    if client.as_ref().map_or(true, Client::is_closed) {
        *client = Some(Client::connect(addr)?);
    }
    let connection = client.as_mut().expect("connected above");
    let reply = connection.send("POST", "/map", body);
    if reply.is_err() {
        *client = None;
    }
    reply
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_script_is_a_pure_function_of_the_seed() {
        let a = script(7, 400, 6);
        assert_eq!(a, script(7, 400, 6));
        assert_ne!(a, script(8, 400, 6));

        let steps: Vec<Step> = a.concat();
        let misses = steps.iter().filter(|s| !matches!(s, Step::Hit(_))).count();
        let share = misses as f64 / steps.len() as f64;
        assert!((0.035..0.065).contains(&share), "miss share {share}");
        let twins = a[0].iter().filter(|s| matches!(s, Step::Twin(_))).count();
        assert!((198..=202).contains(&twins), "{twins} twins of 400 keys");
        // Every circuit gets as many twin keys as solo keys.
        let mut per_circuit = [[0; 2]; 6];
        for step in &steps {
            if let Step::Miss(ask) = step {
                per_circuit[ask.circuit()][0] += 1;
            }
        }
        for step in &a[0] {
            if let Step::Twin(ask) = step {
                per_circuit[ask.circuit()][1] += 1;
            }
        }
        for [solo, twin] in per_circuit {
            assert!(
                (33..=34).contains(&solo) && (33..=34).contains(&twin),
                "{per_circuit:?}"
            );
        }
        // Twins line up: both connections hold the same twin sequence.
        let twin_seq = |conn: &[Step]| -> Vec<Step> {
            conn.iter()
                .copied()
                .filter(|s| matches!(s, Step::Twin(_)))
                .collect()
        };
        assert_eq!(twin_seq(&a[0]), twin_seq(&a[1]));
        // Every fresh key but the last is requested again as a hit, on
        // the connection that sent it, after it was sent.
        for conn in &a {
            for (i, step) in conn.iter().enumerate() {
                if let Step::Hit(ask @ Ask::Fresh { id, .. }) = step {
                    assert!(
                        conn[..i]
                            .iter()
                            .any(|s| matches!(s, Step::Miss(a) | Step::Twin(a) if a == ask)),
                        "key {id}"
                    );
                }
            }
        }
        let rehits: usize = a
            .iter()
            .map(|c| {
                c.iter()
                    .filter(|s| matches!(s, Step::Hit(Ask::Fresh { .. })))
                    .count()
            })
            .sum();
        assert_eq!(rehits, 399);
    }

    #[test]
    fn fresh_bodies_differ_only_by_their_comment_line() {
        let bodies = Bodies::new(vec!["QUBIT a\nH a\n".into()]);
        let fresh = Ask::Fresh {
            circuit: 0,
            id: 3,
            suffix: 0xabc,
        };
        assert_eq!(bodies.body(Ask::Base(0)), r#"{"program":"QUBIT a\nH a\n"}"#);
        assert_eq!(
            bodies.body(fresh),
            r##"{"program":"# k3-0000000000000abc\nQUBIT a\nH a\n"}"##
        );
    }
}
