//! Placer comparison on one circuit: plain center placement vs Monte
//! Carlo vs MVFB at equal placement-run budgets (the paper's Table 1
//! methodology) — every engine driven through the same `dyn Placer`
//! seam a custom placer would use.
//!
//! Run with: `cargo run --release --example placer_battle [m]`

use qspr_fabric::{Fabric, TechParams};
use qspr_place::{MonteCarloPlacer, MvfbConfig, MvfbPlacer, Placer};
use qspr_qecc::codes::benchmark_suite;
use qspr_sim::{FlowPolicy, Mapper, Placement};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);

    let fabric = Fabric::quale_45x85();
    let tech = TechParams::date2012();
    let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
    let bench = benchmark_suite()
        .into_iter()
        .find(|b| b.name == "[[9,1,3]]")
        .expect("suite contains the 9-qubit code");
    println!(
        "placing {} ({} gates), m={m}\n",
        bench.name,
        bench.program.instructions().len()
    );

    // 1. Deterministic center placement (QUALE's placer).
    let center = Placement::center(&fabric, bench.program.num_qubits());
    let center_latency = mapper.map(&bench.program, &center)?.latency();
    println!("center placement      : {center_latency:>6}µs (1 run)");

    // 2. MVFB with m seeds, through the trait object seam.
    let mvfb_engine = MvfbPlacer::new(MvfbConfig::new(m, 2012));
    let mvfb = (&mvfb_engine as &dyn Placer).place(&mapper, &bench.program)?;
    println!(
        "MVFB (m={m:<3})          : {:>6}µs ({} runs, {:?}, best pass {:?})",
        mvfb.latency, mvfb.runs, mvfb.cpu, mvfb.direction
    );

    // 3. Monte Carlo with the same total number of placement runs —
    //    swapping engines is just picking another `dyn Placer`.
    let mc_engine = MonteCarloPlacer::new(mvfb.runs, 2012);
    let mc = (&mc_engine as &dyn Placer).place(&mapper, &bench.program)?;
    println!(
        "Monte Carlo ({} runs) : {:>6}µs ({:?})",
        mc.runs, mc.latency, mc.cpu
    );

    // Replay the MVFB winner and double-check its latency.
    let (outcome, _trace) = mvfb.replay(&mapper, &bench.program)?;
    assert_eq!(outcome.latency(), mvfb.latency);
    println!(
        "\nMVFB winner verified by replay: {}µs, congestion wait {}µs total",
        outcome.latency(),
        outcome.totals().congestion_wait
    );
    Ok(())
}
