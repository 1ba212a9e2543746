//! Integration of the QECC substrate with the mapper: synthesized
//! encoders are correct quantum circuits *and* valid mapper workloads.

use qspr_fabric::{Fabric, TechParams};
use qspr_qecc::codes;
use qspr_qecc::encoder::encoding_circuit;
use qspr_qecc::StabilizerSim;
use qspr_sim::{validate_trace, Mapper, MapperPolicy, Placement};

#[test]
fn every_benchmark_encoder_is_simultaneously_correct_and_mappable() {
    let fabric = Fabric::quale_45x85();
    let tech = TechParams::date2012();
    for (i, bench) in codes::benchmark_suite().into_iter().enumerate() {
        // Quantum correctness: the circuit prepares a code state. The
        // first entry is the paper's Fig. 3 verbatim, which encodes the
        // five-qubit code in the paper's own (locally-Clifford-rotated)
        // convention — check it produces a well-defined stabilizer state;
        // check the synthesized entries against their exact codes.
        let mut sim = StabilizerSim::new(bench.code.num_qubits());
        sim.run(&bench.program).expect("Clifford circuit");
        if i == 0 {
            assert_eq!(sim.stabilizer_generators().len(), 5);
        } else {
            for s in bench.code.stabilizers() {
                assert_eq!(sim.stabilizes(s), Some(true), "{}: {s}", bench.name);
            }
        }
        // Mapper validity: the same circuit schedules, places and routes.
        let placement = Placement::center(&fabric, bench.program.num_qubits());
        let outcome = Mapper::new(&fabric, tech, MapperPolicy::qspr(&tech))
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
fn encoder_gate_mix_matches_fig2_style() {
    // Standard-form encoders: one H per X-type stabilizer row plus a
    // controlled-Pauli cascade — the shape of the paper's Fig. 2.
    let code = codes::five_one_three();
    let program = encoding_circuit(&code).expect("encodes");
    let h = program
        .instructions()
        .iter()
        .filter(|i| i.gate == qspr_qasm::Gate::H)
        .count();
    assert_eq!(h, 4);
    assert!(program.two_qubit_gate_count() >= 8);
}

#[test]
fn distance_7_codes_reject_all_weight_4_errors() {
    // A deeper prefix of the distance check than the unit tests run
    // (weight ≤ 4; the full weight-6 scan lives in the ignored tests).
    assert!(codes::nineteen_one_seven().min_distance_up_to(4).is_none());
    assert!(codes::twenty_three_one_seven()
        .min_distance_up_to(4)
        .is_none());
}

#[test]
fn benchmark_gate_counts_are_stable() {
    // Pin the workload bytes the experiments depend on, so accidental
    // changes to encoder synthesis or to a code's generators show up as
    // test failures, not silent shifts in every measured latency. The
    // goldens are `qspr encode <n,k,d>` output.
    let pinned = [
        (
            codes::five_one_three(),
            include_str!("golden/encode_5_1_3.qasm"),
        ),
        (codes::steane(), include_str!("golden/encode_7_1_3.qasm")),
        (
            codes::nine_one_three(),
            include_str!("golden/encode_9_1_3.qasm"),
        ),
        (
            codes::fourteen_eight_three(),
            include_str!("golden/encode_14_8_3.qasm"),
        ),
        (
            codes::nineteen_one_seven(),
            include_str!("golden/encode_19_1_7.qasm"),
        ),
        (
            codes::twenty_three_one_seven(),
            include_str!("golden/encode_23_1_7.qasm"),
        ),
    ];
    for (code, golden) in pinned {
        let qasm = encoding_circuit(&code).expect("encodes").to_qasm();
        assert_eq!(qasm, golden, "{}", code.name());
    }
    // The suite's [[5,1,3]] entry is the paper's Fig. 3 verbatim.
    let fig3 = &codes::benchmark_suite()[0].program;
    assert_eq!(
        (fig3.one_qubit_gate_count(), fig3.two_qubit_gate_count()),
        (4, 8)
    );
}
