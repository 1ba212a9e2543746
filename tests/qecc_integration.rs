//! Integration of the benchmark circuits with the mapper: every circuit
//! of the suite is a valid mapper workload, and its size is pinned.
//! (That each committed encoder prepares its code's stabilizer state is
//! checked by the `qspr-qecc` unit tests.)

use qspr_fabric::{Fabric, TechParams};
use qspr_qecc::codes;
use qspr_sim::{validate_trace, FlowPolicy, Mapper, Placement};

#[test]
fn every_benchmark_encoder_is_simultaneously_correct_and_mappable() {
    let fabric = Fabric::quale_45x85();
    let tech = TechParams::date2012();
    for bench in codes::benchmark_suite() {
        // Mapper validity: the circuit schedules, places and routes.
        let placement = Placement::center(&fabric, bench.program.num_qubits());
        let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
            .record_trace(true)
            .map(&bench.program, &placement)
            .expect("maps");
        validate_trace(
            &fabric,
            &bench.program,
            &placement,
            outcome.trace().expect("recorded"),
            &tech,
        )
        .expect("valid trace");
    }
}

#[test]
fn benchmark_gate_counts_are_stable() {
    // Pin the workload sizes the experiments depend on, so an accidental
    // edit of a committed circuit shows up as a test failure, not a
    // silent shift in every measured latency. The suite's [[5,1,3]] entry
    // is the paper's Fig. 3 verbatim; the encoder `qspr encode 5,1,3`
    // prints is a different, standard-form circuit.
    let expect = [
        ("[[5,1,3]]", 3, (5, 4, 8)),
        ("[[7,1,3]]", 3, (7, 3, 11)),
        ("[[9,1,3]]", 3, (9, 2, 12)),
        ("[[14,8,3]]", 3, (14, 14, 60)),
        ("[[19,1,7]]", 7, (19, 28, 108)),
        ("[[23,1,7]]", 7, (23, 11, 83)),
    ];
    for (bench, (name, d, sizes)) in codes::benchmark_suite().iter().zip(expect) {
        let p = &bench.program;
        assert_eq!((bench.name.as_str(), bench.distance), (name, d));
        let got = (
            p.num_qubits(),
            p.one_qubit_gate_count(),
            p.two_qubit_gate_count(),
        );
        assert_eq!(got, sizes, "{name}");
    }
    let five = qspr_qasm::Program::parse(codes::ENCODERS[0].2).expect("parses");
    assert_eq!(
        (five.one_qubit_gate_count(), five.two_qubit_gate_count()),
        (6, 10)
    );
}
