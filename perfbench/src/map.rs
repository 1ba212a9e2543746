//! The map workloads: the Table 1 suite through `Flow::run` at paper
//! effort, swept back to back.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qspr::obs::{Collector, SpanNode};
use qspr::place::{MvfbConfig, MvfbPlacer};
use qspr::service::normalize_timing;
use qspr::{Flow, FlowResult, RouterKind, ToJson};

use crate::calib::Reference;
use crate::stats::median;
use crate::suite::{check_golden, check_trace, Bounds, Suite, DEFAULT_SEED, SEEDS};
use crate::wrap::{PlaceCounters, RouteCounters, RouteTotals, TimedPlacer, TimedRouter};
use crate::{Metrics, Outcome, Setup};

/// Set-ups timed per round. One takes about a millisecond; spreading
/// them over the run keeps their median steady.
const SETUPS_PER_ROUND: usize = 20;

/// A map workload's engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct MapWorkload {
    pub router: RouterKind,
}

/// One sweep over the suite.
struct Sweep {
    /// Sweep wall, the reference kernel's runs excluded.
    wall_ns: f64,
    /// `Flow::run` wall per circuit.
    run_ns: Vec<f64>,
    /// `Flow::run` wall per circuit over the mean reference-kernel time
    /// measured just before and just after it.
    run_ref: Vec<f64>,
    /// Every reference-kernel time of the sweep, ns.
    ref_ns: Vec<f64>,
    /// Σ `Flow::run` wall.
    runs_ns: f64,
    results: Vec<FlowResult>,
    layers: Option<Layers>,
}

/// Seam timings of one traced sweep.
struct Layers {
    place_ns: f64,
    place_runs: f64,
    route: RouteTotals,
    qidg_ns: f64,
}

/// Sweeps the suite once at the workload seed — checked, not timed —
/// then at `qspr map`'s MVFB seed until `seconds` have passed. A timed
/// sweep starts only while it is expected to end less than half a sweep
/// late, and at least two run. Every timed sweep must repeat the first
/// timed sweep's bytes and the CLI's golden latencies. The search work
/// differs several-fold from one MVFB seed to the next, so only the
/// default-seed sweeps feed the wall-time metrics. With tracing on,
/// every second timed sweep is traced. Each round also times a few
/// set-ups.
pub fn run(workload: MapWorkload, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let (suite, _) = Suite::build()?;
    let base = Flow::on(Arc::clone(&suite.fabric)).router(workload.router);
    let bounds = Bounds::new(&suite, &base)?;
    let mut kernel = Reference::new();
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut plain: Vec<Sweep> = Vec::new();
    let mut traced: Vec<Sweep> = Vec::new();
    let mut first_timed: Vec<String> = Vec::new();

    let started = Instant::now();
    let mut first_latencies = Vec::new();
    for round in 0.. {
        let round_started = Instant::now();
        let before = kernel.measure();
        let mut block = Vec::with_capacity(SETUPS_PER_ROUND);
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            let (_, times) = Suite::build()?;
            block.push((t.elapsed().as_secs_f64(), times));
        }
        let ref_ns = (before + kernel.measure()) / 2.0;
        setups.extend(block.into_iter().map(|(wall_s, times)| Setup {
            wall_s,
            ref_ns,
            times,
        }));
        let config = MvfbConfig::new(SEEDS, if round == 0 { seed } else { DEFAULT_SEED });
        let flow = base.clone().mvfb_config(config);
        let traced_round = trace && round % 2 == 0 && round > 0;
        let s = if traced_round {
            sweep_traced(&suite, &flow, workload.router, config, &mut kernel)?
        } else {
            sweep(&suite, &flow, &mut kernel)?
        };
        outcome.attempted += s.results.len() as u64;
        if round <= 1 {
            for e in bounds.check(&suite, &s.results) {
                outcome.fail(e);
            }
        }
        if round == 0 {
            first_latencies = s.results.iter().map(|r| r.latency).collect();
        } else if round == 1 {
            first_timed = s.results.iter().map(summary).collect();
        } else {
            for ((got, want), circuit) in s.results.iter().zip(&first_timed).zip(&suite.circuits) {
                if summary(got) != *want {
                    outcome.fail(format!(
                        "{}: summary changed on a repeated sweep",
                        circuit.name
                    ));
                }
            }
        }
        if config.rng_seed == DEFAULT_SEED {
            if let Some(e) = check_golden(workload.router, &s.results) {
                outcome.fail(e);
            }
        }
        match (round, traced_round) {
            (0, _) => {}
            (_, true) => traced.push(s),
            (_, false) => plain.push(s),
        }
        let round_s = round_started.elapsed().as_secs_f64();
        if round >= 2 && started.elapsed().as_secs_f64() + round_s / 2.0 >= seconds as f64 {
            break;
        }
    }

    let i = (seed % suite.circuits.len() as u64) as usize;
    let flow = base.mvfb_config(MvfbConfig::new(SEEDS, seed));
    if let Some(e) = check_trace(&flow, &suite.circuits[i], first_latencies[i]) {
        outcome.fail(e);
    }
    println!(
        "qspr latency Σ {} µs over {} circuits",
        first_latencies.iter().sum::<u64>(),
        suite.circuits.len()
    );

    let mut metrics = crate::setup_metrics(&setups);
    let plain_ref = suite_ref(&plain);
    metrics.put("suite_wall_ref", plain_ref);
    let plain_ms = suite_wall_ms(&plain);
    metrics.put("suite_wall_ms", plain_ms);
    let ref_ns: Vec<f64> = plain.iter().flat_map(|s| s.ref_ns.iter().copied()).collect();
    let ref_ms = median(&ref_ns).expect("timed sweeps ran") / 1e6;
    metrics.put("calib.ref_ms", ref_ms);
    println!(
        "suite wall {plain_ms:.1} ms over {} timed sweeps; reference kernel {ref_ms:.3} ms",
        plain.len()
    );
    if trace {
        let traced_ref = suite_ref(&traced);
        metrics.put(
            "obs.trace_overhead_pct",
            (traced_ref - plain_ref) / plain_ref * 100.0,
        );
        layer_metrics(&traced, &mut metrics, &mut outcome);
    }
    Ok(outcome.with(metrics))
}

/// The wall time of one suite sweep, ms: Σ over circuits of the
/// circuit's median `Flow::run` wall across `sweeps`. Per-circuit
/// medians drop a run that a passing stall slowed, whichever sweep it
/// fell in.
fn suite_wall_ms(sweeps: &[Sweep]) -> f64 {
    (0..sweeps[0].run_ns.len())
        .map(|c| {
            let walls: Vec<f64> = sweeps.iter().map(|s| s.run_ns[c]).collect();
            median(&walls).expect("at least one sweep") / 1e6
        })
        .sum()
}

/// One suite sweep in reference-kernel units: the mean over `sweeps` of
/// Σ over circuits of `run_ref`. Normalized samples keep no long tail,
/// and over the same runs the mean spread less from run to run than the
/// per-circuit median did (see `README.md`).
fn suite_ref(sweeps: &[Sweep]) -> f64 {
    let total: f64 = sweeps.iter().flat_map(|s| &s.run_ref).sum();
    total / sweeps.len() as f64
}

fn summary(result: &FlowResult) -> String {
    normalize_timing(&result.summary().to_json())
}

/// Maps every circuit once with `flow`, timing the reference kernel
/// before each circuit and after the last.
fn sweep(suite: &Suite, flow: &Flow, kernel: &mut Reference) -> Result<Sweep, String> {
    let started = Instant::now();
    let mut kernel_wall = Duration::ZERO;
    let mut measure = || {
        let t = Instant::now();
        let ns = kernel.measure();
        kernel_wall += t.elapsed();
        ns
    };
    let mut run_ns = Vec::with_capacity(suite.circuits.len());
    let mut ref_ns = vec![measure()];
    let mut results = Vec::with_capacity(suite.circuits.len());
    for circuit in &suite.circuits {
        let t = Instant::now();
        let result = flow
            .run(std::hint::black_box(&circuit.program))
            .map_err(|e| format!("{}: {e}", circuit.name))?;
        run_ns.push(t.elapsed().as_secs_f64() * 1e9);
        ref_ns.push(measure());
        results.push(result);
    }
    let run_ref = run_ns
        .iter()
        .zip(ref_ns.windows(2))
        .map(|(ns, around)| ns / ((around[0] + around[1]) / 2.0))
        .collect();
    Ok(Sweep {
        wall_ns: (started.elapsed() - kernel_wall).as_secs_f64() * 1e9,
        runs_ns: run_ns.iter().sum(),
        run_ns,
        run_ref,
        ref_ns,
        results,
        layers: None,
    })
}

/// One sweep with the timing wrappers on both seams and a span
/// collector on this thread.
fn sweep_traced(
    suite: &Suite,
    flow: &Flow,
    router: RouterKind,
    config: MvfbConfig,
    kernel: &mut Reference,
) -> Result<Sweep, String> {
    let place = Arc::new(PlaceCounters::default());
    let route = Arc::new(RouteCounters::default());
    let wrapped = flow
        .clone()
        .placer(TimedPlacer::new(
            MvfbPlacer::new(config),
            Arc::clone(&place),
        ))
        .router(TimedRouter::new(router, Arc::clone(&route)));
    let collector = Arc::new(Collector::new());
    let mut s = {
        let _sink = qspr::obs::install_thread(Arc::clone(&collector) as Arc<_>);
        sweep(suite, &wrapped, kernel)?
    };
    let placed = place.totals();
    s.layers = Some(Layers {
        place_ns: placed.ns as f64,
        place_runs: placed.runs as f64,
        route: route.totals(),
        qidg_ns: span_total(&collector.snapshot(), "qidg").1,
    });
    Ok(s)
}

/// `(count, total ns)` of every span named `name`, at any depth.
pub fn span_total(nodes: &[SpanNode], name: &str) -> (f64, f64) {
    nodes.iter().fold((0.0, 0.0), |(count, ns), node| {
        let (c, n) = span_total(&node.children, name);
        let own = node.name == name;
        (
            count + c + if own { node.count as f64 } else { 0.0 },
            ns + n + if own { node.total_ns as f64 } else { 0.0 },
        )
    })
}

/// Per-sweep means of the traced sweeps' seam timings, and the layer
/// table: route + QIDG + simulator self time + other = sweep wall.
fn layer_metrics(traced: &[Sweep], metrics: &mut Metrics, outcome: &mut Outcome) {
    let n = traced.len() as f64;
    let mean = |f: &dyn Fn(&Sweep, &Layers) -> f64| {
        traced
            .iter()
            .map(|s| f(s, s.layers.as_ref().expect("traced sweeps carry layers")))
            .sum::<f64>()
            / n
    };
    let wall = mean(&|s, _| s.wall_ns) / 1e6;
    let runs = mean(&|s, _| s.runs_ns) / 1e6;
    let place = mean(&|_, l| l.place_ns) / 1e6;
    let place_runs = mean(&|_, l| l.place_runs);
    let qidg = mean(&|_, l| l.qidg_ns) / 1e6;
    let r = |f: &dyn Fn(&RouteTotals) -> u64| mean(&|_, l| f(&l.route) as f64);
    let probe = r(&|t| t.probe_ns) / 1e6;
    let batch = r(&|t| t.batch_ns) / 1e6;
    let refine = r(&|t| t.refine_ns) / 1e6;
    let sim_self = runs - probe - batch - refine - qidg;
    let other = wall - runs;

    metrics.put("place.ms", place);
    metrics.put("place.runs", place_runs);
    metrics.put("place.ms_per_run", place / place_runs);
    metrics.put("sched.qidg_ms", qidg);
    metrics.put("sim.self_ms", sim_self);
    metrics.put("route.probe_calls", r(&|t| t.probe_calls));
    metrics.put("route.probe_ms", probe);
    metrics.put("route.probe_blocked", r(&|t| t.probe_blocked));
    metrics.put("route.batch_calls", r(&|t| t.batch_calls));
    metrics.put("route.batch_ms", batch);
    metrics.put("route.batch_movers", r(&|t| t.batch_movers));
    let movers_max = traced
        .iter()
        .filter_map(|s| s.layers.as_ref())
        .map(|l| l.route.batch_movers_max)
        .max()
        .unwrap_or(0);
    metrics.put("route.batch_movers_max", movers_max as f64);
    metrics.put("route.batch_blocked", r(&|t| t.batch_blocked));
    metrics.put("route.refine_calls", r(&|t| t.refine_calls));
    metrics.put("route.refine_ms", refine);
    metrics.put("route.refine_adopted", r(&|t| t.refine_adopted));
    metrics.put("route.rip_iterations", r(&|t| t.rip_iterations));
    metrics.put("route.ripped", r(&|t| t.ripped));
    metrics.put("flow.final_map_ms", runs - place);
    metrics.put("other.ms", other);

    println!(
        "per-layer time of one traced sweep ({} traced sweeps):",
        traced.len()
    );
    let rows = [
        ("route.probe_ms", probe),
        ("route.batch_ms", batch),
        ("route.refine_ms", refine),
        ("sched.qidg_ms", qidg),
        ("sim.self_ms", sim_self),
        ("other.ms", other),
    ];
    crate::print_table(&rows, wall);
    println!(
        "  (place.ms {place:.3} = {:.2}% of Flow::run; flow.final_map_ms {:.3})",
        place / runs * 100.0,
        runs - place
    );
    if sim_self < 0.0 || other < 0.0 {
        outcome.fail("layer attribution exceeds the sweep wall time".into());
    }
}
