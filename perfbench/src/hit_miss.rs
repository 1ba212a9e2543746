//! The `serve_hit_miss` workload: an in-process `qspr serve` answering
//! a closed loop of mostly hits and a few misses, twins among them.

use std::sync::Arc;
use std::time::Duration;

use qspr::obs::{Collector, MetricsSpanSink};
use qspr::service::normalize_timing;
use qspr::{Flow, RouterKind, ToJson};

use crate::map::span_total;
use crate::serve::{self, Bodies, Live, Tee, Traffic, WORKERS};
use crate::stats::quantile;
use crate::suite::{check_golden, check_trace, Bounds, Suite, SEEDS};
use crate::{Metrics, Outcome};

/// Set-ups per run; each maps the suite once to warm the cache.
const SETUP_REPEATS: usize = 5;

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    // The oracle: the service's default configuration (QSPR, greedy,
    // m = 25, the CLI's RNG seed) mapped locally.
    let (suite, _) = Suite::build()?;
    let flow = Flow::on(Arc::clone(&suite.fabric)).seeds(SEEDS);
    let mut results = Vec::with_capacity(suite.circuits.len());
    for circuit in &suite.circuits {
        results.push(
            flow.run(&circuit.program)
                .map_err(|e| format!("{}: {e}", circuit.name))?,
        );
    }
    let errors = Bounds::new(&suite, &flow)?.check(&suite, &results);
    let i = (seed % suite.circuits.len() as u64) as usize;
    let errors = errors
        .into_iter()
        .chain(check_golden(RouterKind::Greedy, &results))
        .chain(check_trace(&flow, &suite.circuits[i], results[i].latency));
    for e in errors {
        outcome.fail(e);
    }
    let expect: Vec<String> = results
        .iter()
        .map(|r| normalize_timing(&r.summary().to_json()))
        .collect();
    let texts: Vec<String> = suite.circuits.iter().map(|c| c.text.clone()).collect();
    let start = |fabric| serve::start(fabric, Bodies::new(texts.clone()), expect.clone());

    // Set-up is what a deployment pays before its first answer:
    // generate and parse, build the fabric, bind, warm the cache.
    let (live, mut metrics) = crate::setup(
        SETUP_REPEATS,
        || {
            let (built, times) = Suite::build()?;
            Ok((start(built.fabric)?, times))
        },
        Live::stop,
    )?;

    // Every segment carries a miss of at least ~20 ms, so this many
    // segments outlast the window.
    let segments = (seconds as f64 * 80.0) as usize + 100;
    let scripts = serve::script(seed, segments, suite.circuits.len());
    let window = Duration::from_secs(seconds);
    if !trace {
        let traffic = live.drive(&scripts, window);
        hit_metrics(&traffic, &mut metrics, &mut outcome);
        let wall = traffic.suite_wall_ref().ok_or("a circuit saw no miss")?;
        metrics.put("suite_wall_ref", wall);
        live.stop()?;
        return Ok(outcome.with(metrics));
    }

    // Traced: half the window plain, then a fresh server with a span
    // collector beside its metrics sink for the other half.
    let plain = live.drive(&scripts, window / 2);
    hit_metrics(&plain, &mut metrics, &mut outcome);
    let plain_wall = plain.suite_wall_ref().ok_or("a circuit saw no miss")?;
    metrics.put(
        "suite_wall_ms",
        plain.suite_wall_ms().ok_or("a circuit saw no miss")?,
    );
    metrics.put("calib.ref_ms", plain.ref_ms().ok_or("no miss was sent")?);
    live.stop()?;

    let live = start(Arc::clone(&suite.fabric))?;
    let collector = Arc::new(Collector::new());
    qspr::obs::install_global(Arc::new(Tee {
        metrics: MetricsSpanSink::new(Arc::clone(live.handle.service().metrics())),
        collector: Arc::clone(&collector),
    }));
    let before = live.scrape()?;
    let traced = live.drive(&scripts, window / 2);
    hit_metrics(&traced, &mut metrics, &mut outcome);
    let traced_wall = traced.suite_wall_ref().ok_or("a circuit saw no miss")?;
    let after = crate::service_layers(&live, &traced, &before, &mut metrics)?;
    metrics.put(
        "obs.trace_overhead_pct",
        (traced_wall - plain_wall) / plain_wall * 100.0,
    );

    // Map-side layers from the span tree, per suite-sweep equivalent
    // (six misses).
    let spans = collector.snapshot();
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let sweeps = misses / suite.circuits.len() as f64;
    let (_, place_ns) = span_total(&spans, "place");
    let (maps, _) = span_total(&spans, "map");
    let (_, qidg_ns) = span_total(&spans, "qidg");
    let place_ms = place_ns / 1e6;
    if sweeps > 0.0 {
        metrics.put("place.ms", place_ms / sweeps);
        metrics.put("place.runs", (maps - misses) / sweeps);
        metrics.put("place.ms_per_run", place_ms / (maps - misses));
        metrics.put("sched.qidg_ms", qidg_ns / 1e6 / sweeps);
    }

    let capacity = traced.elapsed_s * 1e3 * WORKERS as f64;
    let busy = (after.busy_us - before.busy_us) as f64 / 1e3;
    println!("worker time of the traced window ({WORKERS} workers, {misses} misses):");
    crate::print_table(
        &[
            ("place (misses)", place_ms),
            ("handler other", busy - place_ms),
            ("idle", capacity - busy),
        ],
        capacity,
    );
    live.stop()?;
    Ok(outcome.with(metrics))
}

/// The client-observed hit metrics of a traffic window, and its
/// failures.
fn hit_metrics(traffic: &Traffic, metrics: &mut Metrics, outcome: &mut Outcome) {
    outcome.attempted += traffic.attempted;
    outcome.failed += traffic.failed;
    outcome.errors.extend(traffic.errors.iter().cloned());
    let hit = |q| quantile(&traffic.hit_us, q).unwrap_or(f64::NAN);
    metrics.put("service.hit_p50_us", hit(0.5));
    metrics.put("service.hit_p95_us", hit(0.95));
    metrics.put("service.rps", traffic.requests_per_s());
}
