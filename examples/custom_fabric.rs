//! Define a custom ion-trap fabric in ASCII, inspect its topology, and
//! map a circuit onto it — including the paper's Fig. 5 geometry where
//! turn-blind routing goes wrong.
//!
//! Run with: `cargo run --example custom_fabric`

use qspr_fabric::{Coord, Fabric, TechParams};
use qspr_qasm::Program;
use qspr_route::{ResourceState, Router, RouterConfig, FIG5_DEMO_FABRIC};
use qspr_sim::{FlowPolicy, Mapper, Placement};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small fabric: two tile rows, traps hanging off the channels.
    let art = "\
+---+---+
|.T.|.T.|
+---+---+
|.T.|.T.|
+---+---+
";
    let fabric = Fabric::from_ascii(art)?;
    println!(
        "custom fabric ({}x{}):\n{fabric}",
        fabric.rows(),
        fabric.cols()
    );
    let topo = fabric.topology();
    println!(
        "topology: {} traps, {} junctions, {} channel segments",
        topo.traps().len(),
        topo.junctions().len(),
        topo.segments().len()
    );

    // Map a 4-qubit circuit onto it.
    let tech = TechParams::date2012();
    let program = Program::parse(
        "QUBIT a,0\nQUBIT b,0\nQUBIT c,0\nQUBIT d,0\n\
         H a\nC-X a,b\nC-X c,d\nC-Z b,c\n",
    )?;
    let placement = Placement::center(&fabric, program.num_qubits());
    let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr).map(&program, &placement)?;
    println!(
        "mapped: latency {}µs ({} moves, {} turns)",
        outcome.latency(),
        outcome.totals().moves,
        outcome.totals().turns
    );

    // The Fig. 5 fabric: turn-blind routing picks an 8-turn staircase.
    let fig5 = Fabric::from_ascii(FIG5_DEMO_FABRIC)?;
    println!("\nFig. 5 fabric:\n{fig5}");
    let topo = fig5.topology();
    let state = ResourceState::new(topo);
    let s = topo.trap_at(Coord::new(7, 4)).expect("source trap");
    let t = topo.trap_at(Coord::new(1, 6)).expect("target trap");
    for aware in [true, false] {
        let mut cfg = RouterConfig::qspr(&tech);
        cfg.turn_aware = aware;
        let plan = Router::new(topo, cfg)
            .route(&state, s, t)
            .expect("routable");
        println!(
            "  turn_aware={aware:<5} -> {} moves, {} turns, {}µs travel",
            plan.moves(),
            plan.turns(),
            plan.duration()
        );
    }

    // Invalid fabrics are rejected with located errors.
    let err = Fabric::from_ascii("T....\n.....\n--+--\n").unwrap_err();
    println!("\nvalidation example: {err}");
    Ok(())
}
