//! End-to-end integration tests across all crates: the full benchmark
//! suite mapped under every policy, with trace validation.

use qspr::Flow;
use qspr_fabric::{Fabric, TechParams};
use qspr_qecc::codes::{benchmark_suite, fig3_program};
use qspr_sim::{validate_trace, FlowPolicy, Mapper, Placement};

fn fast_flow() -> Flow {
    Flow::on(Fabric::quale_45x85()).seeds(4)
}

#[test]
fn full_suite_respects_table2_shape() {
    let flow = fast_flow();
    for bench in benchmark_suite() {
        let row = flow
            .compare(&bench.name, &bench.program)
            .expect("benchmarks map cleanly");
        assert!(
            row.baseline <= row.qspr,
            "{}: ideal {} must lower-bound QSPR {}",
            bench.name,
            row.baseline,
            row.qspr
        );
        assert!(
            row.qspr <= row.quale,
            "{}: QSPR {} must beat QUALE {}",
            bench.name,
            row.qspr,
            row.quale
        );
    }
}

#[test]
fn all_policies_produce_valid_traces_on_all_benchmarks() {
    let fabric = Fabric::quale_45x85();
    let tech = TechParams::date2012();
    // Each trace is held to the capacities its policy books: the
    // technology's for QSPR, one per channel and junction for QUALE.
    let policies = [
        ("qspr", FlowPolicy::Qspr, tech),
        ("quale", FlowPolicy::Quale, tech.without_multiplexing()),
    ];
    for bench in benchmark_suite() {
        let placement = Placement::center(&fabric, bench.program.num_qubits());
        for (name, policy, bound) in policies {
            let outcome = Mapper::new(&fabric, tech, policy)
                .record_trace(true)
                .map(&bench.program, &placement)
                .unwrap_or_else(|e| panic!("{}/{name}: {e}", bench.name));
            validate_trace(
                &fabric,
                &bench.program,
                &placement,
                outcome.trace().expect("recorded"),
                &bound,
            )
            .unwrap_or_else(|e| panic!("{}/{name}: invalid trace: {e}", bench.name));
        }
    }
}

#[test]
fn mapping_latency_is_deterministic_across_processes_shape() {
    // Deterministic within a process; the fixed seeds make it
    // reproducible across runs and machines too.
    let flow = fast_flow();
    let program = fig3_program();
    let a = flow.run(&program).expect("maps");
    let b = flow.run(&program).expect("maps");
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.runs, b.runs);
    assert_eq!(a.initial_placement, b.initial_placement);
}

#[test]
fn eq1_decomposition_holds_per_instruction() {
    // Eq. 1: instruction delay = T_gate + T_routing + T_congestion.
    let fabric = Fabric::quale_45x85();
    let tech = TechParams::date2012();
    let program = fig3_program();
    let placement = Placement::center(&fabric, program.num_qubits());
    let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
        .map(&program, &placement)
        .expect("maps");
    for (i, s) in outcome.instr_stats().iter().enumerate() {
        assert_eq!(
            s.finish - s.ready_at,
            s.congestion_wait() + s.routing_time() + s.gate_time(),
            "instruction {i}"
        );
        let gate = program.instructions()[i].gate;
        let expected_gate = if gate.is_two_qubit() {
            tech.t_gate_2q
        } else {
            tech.t_gate_1q
        };
        assert_eq!(s.gate_time(), expected_gate, "instruction {i}");
    }
}

#[test]
fn recorded_trace_agrees_with_stats() {
    let fabric = Fabric::quale_45x85();
    let tech = TechParams::date2012();
    for bench in benchmark_suite().into_iter().take(4) {
        let placement = Placement::center(&fabric, bench.program.num_qubits());
        let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
            .record_trace(true)
            .map(&bench.program, &placement)
            .expect("maps");
        let trace = outcome.trace().expect("recorded");
        assert_eq!(trace.move_count() as u64, outcome.totals().moves);
        assert_eq!(trace.turn_count() as u64, outcome.totals().turns);
        assert!(trace.end_time() <= outcome.latency() + tech.t_gate_2q);
    }
}

#[test]
fn quale_overhead_grows_with_circuit_size() {
    // The paper's second observation on Table 2: T_routing+T_congestion
    // weighs more on larger circuits. Compare the smallest and the
    // largest benchmark under QUALE.
    let flow = fast_flow();
    let suite = benchmark_suite();
    let small = flow
        .compare(&suite[0].name, &suite[0].program)
        .expect("maps");
    let large = flow
        .compare(&suite[4].name, &suite[4].program)
        .expect("maps");
    assert!(
        large.quale_overhead() > small.quale_overhead(),
        "QUALE overhead: small {} vs large {}",
        small.quale_overhead(),
        large.quale_overhead()
    );
}

#[test]
fn suite_mapping_is_deterministic_across_thread_counts() {
    // The suite contract: every circuit's comparison row is identical
    // at --jobs 1 and --jobs 4.
    use qspr_qasm::{random_program, Program, RandomProgramConfig};

    let mut circuits: Vec<(String, Program)> = (0..4)
        .map(|i| {
            (
                format!("rand{i}"),
                random_program(&RandomProgramConfig::new(5, 15), 100 + i),
            )
        })
        .collect();
    let bench = benchmark_suite().swap_remove(0);
    circuits.push((bench.name, bench.program));

    let serial = fast_flow().jobs(1);
    let parallel = fast_flow().jobs(4);
    for (name, program) in &circuits {
        assert_eq!(
            serial.compare(name, program).expect("maps"),
            parallel.compare(name, program).expect("maps"),
            "{name}: thread count changed the result"
        );
    }
}
