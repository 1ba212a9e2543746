//! Map the paper's six QECC encoding circuits and reproduce the shape of
//! Table 2 (ideal baseline vs QUALE vs QSPR).
//!
//! Run with: `cargo run --release --example map_qecc_suite [m]`
//! where the optional `m` is the MVFB seed count (default 5; the paper
//! uses 100).

use qspr::Flow;
use qspr_fabric::Fabric;
use qspr_qecc::codes::benchmark_suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    let flow = Flow::on(Fabric::quale_45x85()).seeds(m);

    println!("benchmark suite on the 45x85 fabric (MVFB m={m}):\n");
    for bench in benchmark_suite() {
        let row = flow.compare(&bench.name, &bench.program)?;
        println!(
            "{row}   [{} qubits, {} gates, d>={}]",
            bench.program.num_qubits(),
            bench.program.instructions().len(),
            bench.distance,
        );
    }
    println!("\nExpected shape: baseline <= QSPR <= QUALE on every row, with");
    println!("QSPR improving on QUALE by tens of percent, more on larger circuits.");
    Ok(())
}
