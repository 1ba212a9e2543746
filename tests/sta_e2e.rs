//! End-to-end checks of the `qspr-sta` timing-analysis subsystem on
//! the paper's Table 1 circuits: the extracted critical path must end
//! exactly at the reported makespan, the slack algebra must hold for
//! every instruction, and reports must be byte-identically
//! deterministic.

use qspr::{Flow, ToJson};
use qspr_fabric::Fabric;
use qspr_qecc::codes::benchmark_suite;

fn sta_flow() -> Flow {
    Flow::on(Fabric::quale_45x85()).seeds(2).record_trace(true)
}

#[test]
fn critical_path_ends_at_the_makespan_on_every_table1_circuit() {
    let flow = sta_flow();
    for bench in benchmark_suite() {
        let result = flow.run(&bench.program).expect("maps");
        let report = flow
            .timing_report(&bench.program, &result)
            .expect("analyzes");
        assert_eq!(report.makespan(), result.latency, "{}", bench.name);
        assert_eq!(
            report.critical_end(),
            Some(result.latency),
            "{}: the critical path must end at the reported makespan",
            bench.name
        );
        assert!(
            !report.critical_path().is_empty(),
            "{}: a non-empty circuit has a critical path",
            bench.name
        );
        assert_eq!(report.min_slack(), Some(0), "{}", bench.name);
        for t in report.instructions() {
            // slack = required − finish, never negative (Time is
            // unsigned, so the addition form is the honest check).
            assert_eq!(
                t.finish + t.slack,
                t.required,
                "{}/{}: slack algebra",
                bench.name,
                t.gate
            );
            assert!(
                !t.critical || t.slack == 0,
                "{}/{}: critical instructions have zero slack",
                bench.name,
                t.gate
            );
        }
    }
}

#[test]
fn reports_are_byte_identical_across_runs() {
    let flow = sta_flow();
    for bench in benchmark_suite().into_iter().take(3) {
        let a = flow.run(&bench.program).expect("maps");
        let b = flow.run(&bench.program).expect("maps");
        let report_a = flow.timing_report(&bench.program, &a).expect("analyzes");
        let report_b = flow.timing_report(&bench.program, &b).expect("analyzes");
        assert_eq!(
            report_a.to_json(),
            report_b.to_json(),
            "{}: timing reports are deterministic to the byte",
            bench.name
        );
    }
}
