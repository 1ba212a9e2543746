//! Property-based tests over the whole mapping pipeline.

use proptest::prelude::*;

use qspr_fabric::{Fabric, TechParams};
use qspr_qasm::{random_program, Program, RandomProgramConfig};
use qspr_route::{ResourceState, Router, RouterConfig};
use qspr_sched::Qidg;
use qspr_sim::{validate_trace, FlowPolicy, Mapper, Placement};

fn tech() -> TechParams {
    TechParams::date2012()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random program maps to a physically valid trace whose latency
    /// is bounded below by the resource-free critical path.
    #[test]
    fn random_programs_map_to_valid_traces(
        qubits in 2usize..10,
        gates in 1usize..50,
        frac in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let program = random_program(
            &RandomProgramConfig::new(qubits, gates).two_qubit_fraction(frac),
            seed,
        );
        let fabric = Fabric::quale_45x85();
        let tech = tech();
        let placement = Placement::center(&fabric, qubits);
        let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
            .record_trace(true)
            .map(&program, &placement)
            .expect("quale fabric maps everything");
        let ideal = Qidg::new(&program, &tech).critical_path_delay();
        prop_assert!(outcome.latency() >= ideal);
        validate_trace(
            &fabric,
            &program,
            &placement,
            outcome.trace().expect("recorded"),
            &tech,
        )
        .expect("trace invariants hold");
    }

    /// The negotiated routing engine obeys the same physical invariants
    /// as the greedy one on arbitrary programs: the mapping completes,
    /// respects the ideal lower bound, and its trace replays cleanly
    /// (no teleports, capacities never exceeded).
    ///
    /// Note: the engine's never-worse guarantee is *per epoch* — it
    /// does not compose to whole-program latency on arbitrary inputs
    /// (a locally shorter joint route can shift later issue decisions
    /// either way), so no latency ordering is asserted here.
    #[test]
    fn negotiated_routing_maps_valid_traces(
        qubits in 2usize..8,
        gates in 1usize..30,
        seed in 0u64..500,
    ) {
        use qspr_sim::RouterKind;

        let program = random_program(
            &RandomProgramConfig::new(qubits, gates).two_qubit_fraction(0.8),
            seed,
        );
        let fabric = Fabric::quale_45x85();
        let tech = tech();
        let placement = Placement::center(&fabric, qubits);
        let negotiated = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
            .router(RouterKind::Negotiated)
            .record_trace(true)
            .map(&program, &placement)
            .expect("negotiated maps");
        let ideal = Qidg::new(&program, &tech).critical_path_delay();
        prop_assert!(negotiated.latency() >= ideal);
        validate_trace(
            &fabric,
            &program,
            &placement,
            negotiated.trace().expect("recorded"),
            &tech,
        )
        .expect("negotiated trace invariants hold");
    }

    /// The uncompute transformation preserves the ideal critical path and
    /// is an involution.
    #[test]
    fn uncompute_preserves_critical_path(
        qubits in 2usize..10,
        gates in 1usize..60,
        seed in 0u64..1_000,
    ) {
        let program = random_program(&RandomProgramConfig::new(qubits, gates), seed);
        let reversed = program.reversed();
        prop_assert_eq!(reversed.reversed(), program.clone());
        let tech = tech();
        prop_assert_eq!(
            Qidg::new(&program, &tech).critical_path_delay(),
            Qidg::new(&reversed, &tech).critical_path_delay()
        );
    }

    /// QASM round-trips through text for arbitrary generated programs.
    #[test]
    fn qasm_round_trips(
        qubits in 1usize..12,
        gates in 0usize..80,
        seed in 0u64..1_000,
    ) {
        let program = random_program(&RandomProgramConfig::new(qubits, gates), seed);
        let text = program.to_qasm();
        prop_assert_eq!(Program::parse(&text).expect("own output parses"), program);
    }

    /// On any regular fabric, routing between any two traps on a quiet
    /// fabric succeeds, and the plan's cost accounting is consistent.
    #[test]
    fn regular_fabrics_route_consistently(
        rows in 6u16..20,
        cols in 6u16..20,
        pitch in 2u16..5,
        a_pick in 0usize..500,
        b_pick in 0usize..500,
    ) {
        let Ok(fabric) = Fabric::regular(rows, cols, pitch) else {
            // Too small for a tile: fine, nothing to test.
            return Ok(());
        };
        let topo = fabric.topology();
        let n = topo.traps().len();
        prop_assume!(n >= 2);
        let a = qspr_fabric::TrapId((a_pick % n) as u32);
        let b = qspr_fabric::TrapId((b_pick % n) as u32);
        prop_assume!(a != b);
        let tech = tech();
        let router = Router::new(topo, RouterConfig::qspr(&tech));
        let state = ResourceState::new(topo);
        let plan = router.route(&state, a, b).expect("regular fabrics connect");
        prop_assert_eq!(
            plan.duration(),
            u64::from(plan.moves()) * tech.t_move + u64::from(plan.turns()) * tech.t_turn
        );
        // Quiet fabric: the congestion-weighted estimate equals the
        // physical duration.
        prop_assert_eq!(plan.est_cost(), plan.duration());
        // Booked resources release within the travel window, in order.
        let mut last = 0;
        for usage in plan.resources() {
            prop_assert!(usage.exit_offset >= last);
            prop_assert!(usage.exit_offset <= plan.duration());
            last = usage.exit_offset;
        }
    }

    /// Mapping is invariant under trace recording, and deterministic.
    #[test]
    fn tracing_never_changes_results(
        qubits in 2usize..8,
        gates in 1usize..30,
        seed in 0u64..1_000,
    ) {
        let program = random_program(&RandomProgramConfig::new(qubits, gates), seed);
        let fabric = Fabric::quale_45x85();
        let tech = tech();
        let placement = Placement::center(&fabric, qubits);
        let mapper = Mapper::new(&fabric, tech, FlowPolicy::Qspr);
        let plain = mapper.map(&program, &placement).expect("maps");
        let traced = mapper
            .clone()
            .record_trace(true)
            .map(&program, &placement)
            .expect("maps");
        prop_assert_eq!(plain.latency(), traced.latency());
        prop_assert_eq!(plain.final_placement(), traced.final_placement());
        prop_assert_eq!(plain.totals(), traced.totals());
    }

    /// `Flow::jobs` is a pure performance hint: for any random fabric
    /// and circuit, every engine (greedy and negotiated under MVFB, plus
    /// greedy under a Monte Carlo placer) produces byte-identical summary
    /// JSON and a byte-identical recorded trace at every thread count. This is the determinism contract behind
    /// `qspr map --jobs N` and the serve `"jobs"` field.
    #[test]
    fn jobs_never_change_flow_results(
        rows in 8u16..16,
        cols in 8u16..16,
        pitch in 2u16..4,
        qubits in 2usize..6,
        gates in 1usize..20,
        seed in 0u64..500,
    ) {
        use std::sync::Arc;
        use qspr::place::MonteCarloPlacer;
        use qspr::{Flow, RouterKind, ToJson};

        let Ok(fabric) = Fabric::regular(rows, cols, pitch) else {
            return Ok(()); // too small for a tile: nothing to test
        };
        prop_assume!(fabric.topology().traps().len() >= qubits);
        let fabric = Arc::new(fabric);
        let program = random_program(
            &RandomProgramConfig::new(qubits, gates).two_qubit_fraction(0.8),
            seed,
        );
        let flow = |router: RouterKind| {
            Flow::on(Arc::clone(&fabric))
                .router(router)
                .seeds(2)
                .record_trace(true)
        };
        let bases = [
            flow(RouterKind::Greedy),
            flow(RouterKind::Negotiated),
            flow(RouterKind::Greedy).placer(MonteCarloPlacer::new(4, seed)),
        ];
        for base in bases {
            let engine = format!("{}/{}", base.placer_name(), base.router_name());
            let reference = base.clone().run(&program);
            for jobs in [2usize, 4, 8] {
                let result = base.clone().jobs(jobs).run(&program);
                match (&reference, &result) {
                    (Ok(expected), Ok(got)) => {
                        prop_assert_eq!(
                            expected.summary().to_json(),
                            got.summary().to_json(),
                            "summary diverged at jobs={} engine={}", jobs, engine
                        );
                        prop_assert_eq!(
                            &expected.forward_trace, &got.forward_trace,
                            "trace diverged at jobs={} engine={}", jobs, engine
                        );
                    }
                    // A fabric this small can legitimately stall; the
                    // failure itself must be thread-count independent.
                    (Err(expected), Err(got)) => {
                        prop_assert_eq!(
                            expected.to_string(), got.to_string(),
                            "error diverged at jobs={} engine={}", jobs, engine
                        );
                    }
                    _ => prop_assert!(
                        false,
                        "mappability diverged at jobs={jobs} engine={engine}"
                    ),
                }
            }
        }
    }

    /// Neither policy beats the ideal bound, on any program.
    #[test]
    fn baselines_respect_the_ideal_bound(
        qubits in 2usize..8,
        gates in 1usize..30,
        seed in 0u64..1_000,
    ) {
        let program = random_program(&RandomProgramConfig::new(qubits, gates), seed);
        let fabric = Fabric::quale_45x85();
        let tech = tech();
        let ideal = Qidg::new(&program, &tech).critical_path_delay();
        let placement = Placement::center(&fabric, qubits);
        for policy in [FlowPolicy::Qspr, FlowPolicy::Quale] {
            let outcome = Mapper::new(&fabric, tech, policy)
                .map(&program, &placement)
                .expect("maps");
            prop_assert!(outcome.latency() >= ideal);
        }
    }
}
