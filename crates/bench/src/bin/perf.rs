//! Routing-performance trajectory: maps the QECC benchmark suite with
//! both routing engines, recording per-circuit wall-clock mapping time
//! alongside latency and congestion stats, and writes the lot to
//! `BENCH_route.json` so successive PRs can compare hot-path speed on
//! identical workloads.
//!
//! Every run uses the deterministic center placement (no placer
//! search), so the wall time isolates the scheduling + routing +
//! simulation hot path and the latencies double as a byte-identity
//! check across router rewrites.
//!
//! A second report, `BENCH_sta.json`, tracks the `qspr-sta` timing
//! analysis on the same workloads: per-circuit analysis wall time
//! (the cost of reconstructing slack and the critical path from a
//! recorded trace).
//!
//! Usage: `cargo run -p qspr-bench --bin perf --release [--quick]
//! [--out <path>] [--sta-out <path>]`
//!
//! `BENCH_route.json` schema (one object):
//!
//! * `fabric`, `quick` — workload provenance;
//! * `engines[]` — per engine (`greedy`, `negotiated`):
//!   * `suite_wall_ms` — total wall-clock of mapping the whole suite;
//!   * `results[]` — per circuit: `latency_us`, `wall_us`, and the
//!     engine's cumulative `epochs` / `rip_iterations` /
//!     `ripped_routes` / `max_segment_pressure`.
//!
//! `BENCH_sta.json` schema (one object):
//!
//! * `fabric`, `quick` — workload provenance;
//! * `analysis[]` — per circuit (center placement, recorded trace):
//!   `latency_us`, `analysis_wall_us`, `critical_steps`,
//!   `trace_commands`.

use std::time::Instant;

use qspr::json::{JsonArray, JsonObject};
use qspr::sta::TimingAnalysis;
use qspr::{Flow, RouterKind};
use qspr_bench::{quick_mode, Workbench};
use qspr_fabric::TechParams;
use qspr_sim::{Mapper, MapperPolicy, Placement};

fn path_flag(flag: &str, default: &str) -> String {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            if let Some(v) = args.next() {
                return v;
            }
        }
    }
    default.to_owned()
}

fn main() {
    let quick = quick_mode();
    let wb = if quick {
        Workbench::quick(3)
    } else {
        Workbench::load()
    };
    let tech = TechParams::date2012();
    let flow = Flow::on(wb.fabric).tech(tech);
    let policy = MapperPolicy::qspr(&tech);

    let mut engines = JsonArray::new();
    println!(
        "Routing perf — center placement, {} circuits",
        wb.benchmarks.len()
    );
    for kind in [RouterKind::Greedy, RouterKind::Negotiated] {
        let flow = flow.clone().router(kind);
        let mut results = JsonArray::new();
        let suite_start = Instant::now();
        let mut suite_wall_us = 0u64;
        println!(
            "{:<12} {:>11} {:>10} | {kind}: epochs, iters, ripped, peak",
            "circuit", "latency µs", "wall µs"
        );
        for bench in &wb.benchmarks {
            let placement = Placement::center(flow.fabric(), bench.program.num_qubits());
            let t0 = Instant::now();
            let outcome = flow
                .map_with(&bench.program, policy, &placement)
                .expect("benchmarks map cleanly");
            let wall_us = t0.elapsed().as_micros() as u64;
            suite_wall_us += wall_us;
            let stats = outcome.routing_stats();
            println!(
                "{:<12} {:>11} {:>10} | {} epochs, {} iters, {} ripped, peak {}",
                bench.name,
                outcome.latency(),
                wall_us,
                stats.epochs,
                stats.iterations,
                stats.ripped,
                stats.max_pressure,
            );
            results.push_raw(
                &JsonObject::new()
                    .string("circuit", &bench.name)
                    .number("latency_us", outcome.latency())
                    .number("wall_us", wall_us)
                    .number("epochs", stats.epochs)
                    .number("rip_iterations", stats.iterations)
                    .number("ripped_routes", stats.ripped)
                    .number("max_segment_pressure", u64::from(stats.max_pressure))
                    .build(),
            );
        }
        let suite_wall_ms = suite_start.elapsed().as_millis() as u64;
        println!("{kind} suite wall: {suite_wall_ms} ms\n");
        engines.push_raw(
            &JsonObject::new()
                .string("router", kind.as_str())
                .number("suite_wall_ms", suite_wall_ms)
                .number("suite_wall_us", suite_wall_us)
                .raw("results", &results.build())
                .build(),
        );
    }

    // --- Observability overhead pin ---------------------------------
    //
    // The span instrumentation woven through the pipeline must stay
    // near-free when no sink is installed. The pin is machine-portable:
    // both sides of the comparison are measured fresh on this machine —
    // (a) the disabled per-span cost from a tight calibration loop, and
    // (b) the wall time and span count of mapping the largest suite
    // circuit — so the assertion compares like with like instead of
    // trusting committed numbers from other hardware.
    let obs = {
        let bench = wb.benchmarks.last().expect("suite is non-empty");
        let flow = flow.clone().router(RouterKind::Greedy);
        let placement = Placement::center(flow.fabric(), bench.program.num_qubits());
        assert!(
            !qspr::obs::enabled(),
            "perf must run without a span sink installed"
        );
        // Uninstrumented wall: best of 3 (the pin should not fail on a
        // one-off scheduler hiccup in the baseline).
        let map_wall_us = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                flow.map_with(&bench.program, policy, &placement)
                    .expect("benchmarks map cleanly");
                t0.elapsed().as_micros() as u64
            })
            .min()
            .expect("three runs");
        // Disabled per-span cost: one relaxed atomic load plus an inert
        // guard, amortized over a tight loop.
        const PROBES: u64 = 5_000_000;
        let t0 = Instant::now();
        for _ in 0..PROBES {
            let _guard = qspr::obs::span("probe");
        }
        let per_span_ns = t0.elapsed().as_nanos() as f64 / PROBES as f64;
        // Span count of the same map, via a thread-local collector (so
        // a parallel test run can never observe our sink).
        let collector = std::sync::Arc::new(qspr::obs::Collector::new());
        let guard = qspr::obs::install_thread(std::sync::Arc::clone(&collector) as _);
        flow.map_with(&bench.program, policy, &placement)
            .expect("benchmarks map cleanly");
        drop(guard);
        let spans_per_map = collector.total_spans();
        let overhead_ns = spans_per_map as f64 * per_span_ns;
        let overhead_pct = 100.0 * overhead_ns / (map_wall_us as f64 * 1000.0);
        println!(
            "\nObs overhead — {}: {spans_per_map} spans x {per_span_ns:.2} ns disabled = \
             {:.1} µs over a {map_wall_us} µs map ({overhead_pct:.3}%)",
            bench.name,
            overhead_ns / 1000.0,
        );
        assert!(
            overhead_pct < 2.0,
            "disabled span instrumentation costs {overhead_pct:.3}% of the {} map \
             ({spans_per_map} spans x {per_span_ns:.2} ns vs {map_wall_us} µs wall)",
            bench.name
        );
        JsonObject::new()
            .string("circuit", &bench.name)
            .float("per_span_disabled_ns", per_span_ns)
            .number("spans_per_map", spans_per_map)
            .number("map_wall_us", map_wall_us)
            .float("overhead_pct", overhead_pct)
            .build()
    };

    let report = JsonObject::new()
        .string("fabric", "quale_45x85")
        .boolean("quick", quick)
        .raw("engines", &engines.build())
        .raw("obs", &obs)
        .build();
    let path = path_flag("--out", "BENCH_route.json");
    std::fs::write(&path, format!("{report}\n")).expect("writable output path");
    println!("wrote {path}");

    // --- Timing-analysis trajectory (BENCH_sta.json) ----------------

    let analyzer = TimingAnalysis::new(flow.fabric(), tech);
    let mut analysis = JsonArray::new();
    println!(
        "\nSTA analysis — center placement, recorded traces\n{:<12} {:>11} {:>11} {:>6} {:>9}",
        "circuit", "latency µs", "analyze µs", "steps", "commands"
    );
    for bench in &wb.benchmarks {
        let placement = Placement::center(flow.fabric(), bench.program.num_qubits());
        let outcome = Mapper::new(flow.fabric(), tech, policy)
            .record_trace(true)
            .map(&bench.program, &placement)
            .expect("benchmarks map cleanly");
        let trace_commands = outcome.trace().expect("recorded").len() as u64;
        let t0 = Instant::now();
        let report = analyzer
            .analyze(&bench.program, &outcome)
            .expect("traced outcomes analyze");
        let analysis_wall_us = t0.elapsed().as_micros() as u64;
        assert_eq!(
            report.critical_end(),
            Some(outcome.latency()),
            "{}: critical path must end at the makespan",
            bench.name
        );
        println!(
            "{:<12} {:>11} {:>11} {:>6} {:>9}",
            bench.name,
            outcome.latency(),
            analysis_wall_us,
            report.critical_path().len(),
            trace_commands,
        );
        analysis.push_raw(
            &JsonObject::new()
                .string("circuit", &bench.name)
                .number("latency_us", outcome.latency())
                .number("analysis_wall_us", analysis_wall_us)
                .number("critical_steps", report.critical_path().len() as u64)
                .number("trace_commands", trace_commands)
                .build(),
        );
    }

    let sta_report = JsonObject::new()
        .string("fabric", "quale_45x85")
        .boolean("quick", quick)
        .raw("analysis", &analysis.build())
        .build();
    let sta_path = path_flag("--sta-out", "BENCH_sta.json");
    std::fs::write(&sta_path, format!("{sta_report}\n")).expect("writable output path");
    println!("wrote {sta_path}");
}
