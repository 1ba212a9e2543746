//! Record, validate and inspect the micro-command trace of the paper's
//! Fig. 3 circuit, including the MVFB trick of reversing a backward
//! pass's trace.
//!
//! Run with: `cargo run --example trace_inspector`

use qspr_fabric::{Fabric, TechParams};
use qspr_qecc::codes::fig3_program;
use qspr_sim::{
    render_at, render_gantt, validate_trace, FlowPolicy, Mapper, MicroCommand, Placement,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fabric = Fabric::quale_45x85();
    let tech = TechParams::date2012();
    let program = fig3_program();
    let placement = Placement::center(&fabric, program.num_qubits());

    let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
        .record_trace(true)
        .map(&program, &placement)?;
    let trace = outcome.trace().expect("trace recorded");

    // Independent replay validation: continuity, turns at junctions,
    // gates in traps, channel/junction capacities, gate timings.
    validate_trace(&fabric, &program, &placement, trace, &tech)?;
    println!(
        "trace validated: {} commands, {} moves, {} turns, ends at {}µs\n",
        trace.len(),
        trace.move_count(),
        trace.turn_count(),
        trace.end_time()
    );

    println!("gate-level view:");
    for entry in trace {
        if matches!(
            entry.command,
            MicroCommand::GateStart { .. } | MicroCommand::GateEnd { .. }
        ) {
            println!("  {entry}");
        }
    }

    println!("\nfull command stream (first 20):");
    for entry in trace.iter().take(20) {
        println!("  {entry}");
    }

    // A per-instruction timeline: '.' waiting, '~' routing, '#' gate.
    println!("\ninstruction timeline:");
    print!("{}", render_gantt(&outcome, 72));

    // A fabric snapshot mid-flight (crop to the center region).
    let mid = outcome.latency() / 2;
    let art = render_at(&fabric, &placement, trace, mid);
    println!("\nfabric around the center at t={mid}µs:");
    for line in art.lines().skip(18).take(9) {
        println!("  {}", &line[30..56]);
    }

    // The uncompute direction: reversing a trace yields a forward
    // execution of the inverse program (the paper's `reverse of T'`).
    let reversed = trace.reversed();
    println!(
        "\nreversed trace starts with: {}",
        reversed.entries().first().expect("nonempty")
    );
    Ok(())
}
