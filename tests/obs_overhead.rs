//! The span instrumentation woven through the pipeline must stay
//! near-free when no sink is installed: disabled spans may cost less
//! than 2% of a map.
//!
//! The gate is machine-portable: both sides of the comparison are
//! measured fresh on this machine — (a) the disabled per-span cost from
//! a tight calibration loop, and (b) the wall time and span count of
//! mapping the largest suite circuit — so the assertion compares like
//! with like instead of trusting committed numbers from other hardware.
//!
//! This file holds one test on purpose: it must run in a process of
//! its own, because a global sink installed by another test in the same
//! binary would make `qspr::obs::enabled()` true.

use std::sync::Arc;
use std::time::Instant;

use qspr::obs::Collector;
use qspr::{Flow, RouterKind};
use qspr_fabric::{Fabric, TechParams};
use qspr_qecc::codes::benchmark_suite;
use qspr_sim::{FlowPolicy, Placement};

#[test]
fn disabled_spans_cost_under_two_percent_of_a_map() {
    let bench = benchmark_suite().pop().expect("suite is non-empty");
    let tech = TechParams::date2012();
    let policy = FlowPolicy::Qspr;
    let flow = Flow::on(Fabric::quale_45x85())
        .tech(tech)
        .router(RouterKind::Greedy);
    let placement = Placement::center(flow.fabric(), bench.program.num_qubits());
    let map = || {
        flow.map_with(&bench.program, policy, &placement)
            .expect("benchmarks map cleanly");
    };
    assert!(
        !qspr::obs::enabled(),
        "the gate must run without a span sink installed"
    );
    // Uninstrumented wall: best of 3 (the gate should not fail on a
    // one-off scheduler hiccup in the baseline).
    let map_wall_us = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            map();
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
    // Span count of the same map, via a thread-local collector.
    let collector = Arc::new(Collector::new());
    let guard = qspr::obs::install_thread(Arc::clone(&collector) as _);
    map();
    drop(guard);
    let spans_per_map = collector.total_spans();
    let overhead_ns = spans_per_map as f64 * per_span_ns;
    let overhead_pct = 100.0 * overhead_ns / (map_wall_us as f64 * 1000.0);
    println!(
        "{}: {spans_per_map} spans x {per_span_ns:.2} ns disabled = {:.1} µs \
         over a {map_wall_us} µs map ({overhead_pct:.3}%)",
        bench.name,
        overhead_ns / 1000.0,
    );
    assert!(
        overhead_pct < 2.0,
        "disabled span instrumentation costs {overhead_pct:.3}% of the {} map \
         ({spans_per_map} spans x {per_span_ns:.2} ns vs {map_wall_us} µs wall)",
        bench.name
    );
}
