//! Integration tests of the service-grade `Flow` API: ownership and
//! thread-safety guarantees, placer pluggability through the `dyn
//! Placer` seam, router pluggability through the `RouterFactory` seam,
//! and the stable JSON report schema.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use qspr::{Flow, QsprError, RouterKind, ToJson};
use qspr_fabric::Fabric;
use qspr_place::{MvfbConfig, MvfbPlacer, PassDirection, Placer, PlacerSolution};
use qspr_qasm::Program;
use qspr_qecc::codes::{benchmark_suite, fig3_program};
use qspr_sim::{MapError, Mapper, Placement};

/// Compile-time contract: the flow and its error must be
/// `Send + Sync + 'static` so they can serve from thread pools and
/// async tasks.
#[test]
fn flow_api_is_send_sync_static() {
    fn assert_service_grade<T: Send + Sync + 'static>() {}
    assert_service_grade::<Flow>();
    assert_service_grade::<QsprError>();
}

#[test]
fn owned_flow_moves_into_worker_threads() {
    // The whole point of dropping the lifetime parameter: a Flow can be
    // cloned into plain `thread::spawn` closures, no scoped threads or
    // fabric references needed.
    let fabric = Arc::new(Fabric::quale_45x85());
    let flow = Flow::on(Arc::clone(&fabric)).seeds(2);
    let program = fig3_program();

    let handles: Vec<_> = (0..3)
        .map(|_| {
            let flow = flow.clone();
            let program = program.clone();
            thread::spawn(move || flow.run(&program).expect("maps").latency)
        })
        .collect();
    let latencies: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(latencies.windows(2).all(|w| w[0] == w[1]), "{latencies:?}");
}

/// A third-party placer: deterministic center placement, one run.
struct CenterPlacer;

impl Placer for CenterPlacer {
    fn name(&self) -> &str {
        "center"
    }

    fn place(&self, mapper: &Mapper<'_>, program: &Program) -> Result<PlacerSolution, MapError> {
        let placement = Placement::center(mapper.fabric(), program.num_qubits());
        let outcome = mapper.map(program, &placement)?;
        Ok(PlacerSolution {
            latency: outcome.latency(),
            direction: PassDirection::Forward,
            initial_placement: placement,
            runs: 1,
            cpu: Duration::ZERO,
        })
    }
}

#[test]
fn third_party_placers_plug_into_the_flow() {
    let flow = Flow::on(Fabric::quale_45x85()).placer(CenterPlacer);
    let program = fig3_program();
    let result = flow.run(&program).expect("maps");
    assert_eq!(result.placer, "center");
    assert_eq!(result.runs, 1);
    assert_eq!(result.direction, PassDirection::Forward);
    assert!(result.latency >= flow.ideal_latency(&program));
}

#[test]
fn built_in_engines_agree_through_the_dyn_seam() {
    // Latency through the `dyn Placer` seam must equal latency through
    // a direct, statically-dispatched call — the seam adds indirection,
    // not behavior.
    let fabric = Fabric::quale_45x85();
    let tech = *Flow::on(fabric.clone()).tech_params();
    let mapper = Mapper::new(&fabric, tech, qspr_sim::FlowPolicy::Qspr);
    let program = fig3_program();

    let static_call = MvfbPlacer::new(MvfbConfig::new(3, 42))
        .place(&mapper, &program)
        .expect("places");
    let engine: Box<dyn Placer> = Box::new(MvfbPlacer::new(MvfbConfig::new(3, 42)));
    let dynamic_call = engine.place(&mapper, &program).expect("places");
    assert_eq!(static_call.latency, dynamic_call.latency);
    assert_eq!(static_call.runs, dynamic_call.runs);
    assert_eq!(
        static_call.initial_placement,
        dynamic_call.initial_placement
    );
}

/// Every engine reads the fabric's one bound table for its weights, so
/// a goal field is computed once per fabric, not once per MVFB run or
/// per mapper: a paper-effort placement fills at most one field per
/// segment, and mapping again, with the same mapper or a new one, fills
/// none. Were the table not shared, each engine would fill a private
/// table and the fabric's would stay empty.
#[test]
fn engines_share_the_fabrics_goal_fields() {
    let fabric = Fabric::quale_45x85();
    let topo = fabric.topology();
    let segments = topo.segments().len();
    let tech = *Flow::on(fabric.clone()).tech_params();
    let policy = qspr_sim::FlowPolicy::Qspr;
    let bounds = policy.router_config(&tech).travel_bounds(topo);
    let program = benchmark_suite().swap_remove(1).program;
    for router in [RouterKind::Greedy, RouterKind::Negotiated] {
        let mapper = Mapper::new(&fabric, tech, policy).router(router).jobs(2);
        let sol = MvfbPlacer::new(MvfbConfig::new(25, 0xD57E_2012))
            .place(&mapper, &program)
            .expect("places");
        let filled = bounds.goals_filled();
        assert!(
            0 < filled && filled <= segments,
            "{router}: {filled} goal fields over {} runs on {segments} segments",
            sol.runs
        );
        let again = match sol.direction {
            PassDirection::Forward => program.clone(),
            PassDirection::Backward => program.reversed(),
        };
        let fresh = Mapper::new(&fabric, tech, policy).router(router);
        for mapper in [&mapper, &fresh] {
            let outcome = mapper.map(&again, &sol.initial_placement).expect("maps");
            assert_eq!(outcome.latency(), sol.latency);
            assert_eq!(bounds.goals_filled(), filled, "{router}");
        }
    }
}

/// Every map on a fabric shares the fabric's quiet-route table. MVFB
/// fills it with the same keys at `jobs(1)` and `jobs(2)` (a key is
/// stored exactly when some query's search reads only quiet-fabric
/// weights, whichever thread runs it first), and a second placement of
/// the same program on the same fabric fills no key.
#[test]
fn mappings_share_the_fabrics_quiet_routes() {
    let tech = *Flow::on(Fabric::quale_45x85()).tech_params();
    let policy = qspr_sim::FlowPolicy::Qspr;
    let program = benchmark_suite().swap_remove(1).program;
    let mut runs = Vec::new();
    for jobs in [1, 2] {
        let fabric = Fabric::quale_45x85();
        let table = policy.router_config(&tech).quiet_routes(fabric.topology());
        let mapper = Mapper::new(&fabric, tech, policy).jobs(jobs);
        let placer = MvfbPlacer::new(MvfbConfig::new(25, 0xD57E_2012));
        let sol = placer.place(&mapper, &program).expect("places");
        let filled = table.len();
        assert!(
            0 < filled && filled < qspr_route::QUIET_ROUTES_CAP,
            "jobs {jobs}: {filled} keys"
        );
        let again = placer.place(&mapper, &program).expect("places");
        assert_eq!(again.initial_placement, sol.initial_placement);
        assert_eq!(
            table.len(),
            filled,
            "jobs {jobs}: the second map fills nothing"
        );
        runs.push((
            sol.latency,
            sol.direction,
            sol.initial_placement,
            sol.runs,
            filled,
        ));
    }
    assert_eq!(runs[0], runs[1]);
}

/// The two built-in routing engines are selectable through the same
/// flow. The latency ordering asserted below is empirical (the
/// engine's structural never-worse guarantee is per epoch, not per
/// program): this fixed circuit + seed combination is fully
/// deterministic, so the assertion is stable.
#[test]
fn routing_engines_plug_into_the_flow() {
    let bench = benchmark_suite().swap_remove(0);
    let flow = Flow::on(Fabric::quale_45x85()).seeds(3);

    let greedy = flow
        .clone()
        .router(RouterKind::Greedy)
        .run(&bench.program)
        .expect("maps");
    let negotiated = flow
        .clone()
        .router(RouterKind::Negotiated)
        .run(&bench.program)
        .expect("maps");
    assert_eq!(greedy.router, "greedy");
    assert_eq!(negotiated.router, "negotiated");
    assert!(
        negotiated.latency <= greedy.latency,
        "negotiated {} must not lose to greedy {}",
        negotiated.latency,
        greedy.latency
    );

    // Congestion stats surface in the stable JSON schema.
    let json = negotiated.summary().to_json();
    assert!(json.contains(r#""router":"negotiated""#));
    for key in [
        r#""epochs":"#,
        r#""rip_iterations":"#,
        r#""ripped_routes":"#,
        r#""max_segment_pressure":"#,
    ] {
        assert!(json.contains(key), "{key} missing in {json}");
    }
}

/// A custom factory plugs third-party engines into the mapper, exactly
/// like a custom placer plugs into the flow.
#[test]
fn custom_router_factories_plug_in() {
    use qspr_fabric::Topology;
    use qspr_route::{RouterConfig, RouterFactory, RoutingEngine};

    struct LoudGreedy;
    impl RouterFactory for LoudGreedy {
        fn name(&self) -> &str {
            "loud-greedy"
        }
        fn build<'t>(
            &self,
            topology: &'t Topology,
            config: RouterConfig,
        ) -> Box<dyn RoutingEngine + 't> {
            RouterKind::Greedy.build(topology, config)
        }
    }

    let flow = Flow::on(Fabric::quale_45x85()).seeds(2).router(LoudGreedy);
    assert_eq!(flow.router_name(), "loud-greedy");
    let result = flow.run(&fig3_program()).expect("maps");
    assert_eq!(result.router, "loud-greedy");
    // The wrapped engine is the greedy one, so the mapping matches it.
    let reference = Flow::on(Fabric::quale_45x85())
        .seeds(2)
        .run(&fig3_program());
    assert_eq!(result.latency, reference.expect("maps").latency);
}

#[test]
fn flow_errors_carry_their_layer() {
    use std::error::Error;

    // Mapping failure (zero placement runs stalls).
    let flow = Flow::on(Fabric::quale_45x85()).seeds(0);
    let err = flow.run(&fig3_program()).unwrap_err();
    assert!(matches!(err, QsprError::Map(MapError::Stalled { .. })));

    // Parse failure converts via `?` into the same enum.
    let parse_err: QsprError = Program::parse("FROB q\n").unwrap_err().into();
    assert!(matches!(parse_err, QsprError::Parse(_)));

    // A suite failure names the circuit and nests the flow error.
    let source = flow.compare("doomed", &fig3_program()).unwrap_err();
    let err = QsprError::circuit("doomed", source);
    assert!(err.to_string().starts_with("doomed: "), "{err}");
    let QsprError::Circuit { circuit, source } = &err else {
        panic!("not a circuit error: {err:?}");
    };
    assert_eq!(circuit, "doomed");
    assert!(matches!(**source, QsprError::Map(_)));
    assert!(err.source().is_some());
}

#[test]
fn report_json_is_stable_across_the_api() {
    // Spot-check the end-to-end path the CLI's `--format json` uses.
    let flow = Flow::on(Fabric::quale_45x85()).seeds(2);
    let bench = benchmark_suite().swap_remove(0);

    let row = flow.compare(&bench.name, &bench.program).expect("maps");
    let json = row.to_json();
    assert!(json.starts_with(&format!(r#"{{"circuit":"{}","baseline_us":"#, bench.name)));
}

/// `--profile` under `--jobs 2`: the placer's seed workers relay their
/// spans under the open `place` span, so the phase table is the same as
/// at one thread and phases plus `"other"` still add up to the total.
#[test]
fn profiled_runs_add_up_at_two_jobs() {
    use qspr::obs::{install_thread, Collector, ProfileReport};
    use std::time::Instant;

    let flow = Flow::on(Fabric::quale_45x85()).seeds(4);
    let program = fig3_program();
    let profile = |jobs: usize| {
        let collector = Arc::new(Collector::new());
        let guard = install_thread(Arc::clone(&collector) as _);
        let t0 = Instant::now();
        let result = flow.clone().jobs(jobs).run(&program).expect("fig3 maps");
        drop(guard);
        (
            ProfileReport::from_collector(&collector, t0.elapsed()),
            result.runs as u64,
        )
    };
    let (sequential, _) = profile(1);
    let (report, runs) = profile(2);
    let names =
        |r: &ProfileReport| -> Vec<String> { r.phases.iter().map(|p| p.name.clone()).collect() };
    assert_eq!(
        names(&report),
        names(&sequential),
        "workers must not add phases"
    );
    let sum: u64 = report.phases.iter().map(|p| p.wall_us).sum();
    assert_eq!(sum, report.total_wall_us);
    // Every placement run's `map` span nests under `place`.
    let place = report
        .spans
        .iter()
        .find(|s| s.name == "place")
        .expect("place phase");
    let maps: u64 = place
        .children
        .iter()
        .filter(|c| c.name == "map")
        .map(|c| c.count)
        .sum();
    assert_eq!(maps, runs);
}

/// `--profile` attributes meeting-trap selection to its own `probe`
/// span under every `issue` that probes, for both engines, instead of
/// folding the probes into `issue` self time. Greedy handoffs of the
/// winning probe route nothing, so they open no `route` span.
#[test]
fn profile_shows_meeting_probes_under_issue() {
    use qspr::obs::{install_thread, Collector, ProfileReport, SpanNode};
    use std::time::Instant;

    fn children_of<'n>(nodes: &'n [SpanNode], parent: &str, out: &mut Vec<&'n SpanNode>) {
        for node in nodes {
            if node.name == parent {
                out.extend(&node.children);
            }
            children_of(&node.children, parent, out);
        }
    }
    let program = benchmark_suite()
        .into_iter()
        .find(|b| b.name == "[[19,1,7]]")
        .expect("suite has the [[19,1,7]] encoder")
        .program;
    for router in [RouterKind::Greedy, RouterKind::Negotiated] {
        let flow = Flow::on(Fabric::quale_45x85()).seeds(2).router(router);
        let collector = Arc::new(Collector::new());
        let guard = install_thread(Arc::clone(&collector) as _);
        let t0 = Instant::now();
        flow.run(&program).expect("maps");
        drop(guard);
        let report = ProfileReport::from_collector(&collector, t0.elapsed());
        let mut under_issue = Vec::new();
        children_of(&report.spans, "issue", &mut under_issue);
        let count = |name: &str| -> u64 {
            under_issue
                .iter()
                .filter(|n| n.name == name)
                .map(|n| n.count)
                .sum()
        };
        assert!(count("probe") > 0, "{router}: no probe span under issue");
        // A probe opens no span of its own; only the bound-table fills
        // it triggers nest under it.
        let mut nested = Vec::new();
        children_of(&report.spans, "probe", &mut nested);
        assert!(
            nested
                .iter()
                .all(|n| n.name == "bounds" && n.children.is_empty()),
            "{router}: probe holds only leaf bounds spans"
        );
        if router == RouterKind::Greedy {
            assert!(
                count("route") < count("probe"),
                "{router}: handoffs must not open route spans ({} routes, {} probes)",
                count("route"),
                count("probe")
            );
        }
    }
}

/// `--profile` names bound-table fills: each filled duration row or
/// goal field is one `bounds` span. The tables belong to the fabric, so
/// a second `Flow::run` on the same fabric, even from a new flow, fills
/// nothing and maps to the same bytes.
#[test]
fn a_second_run_on_the_same_fabric_fills_no_bounds() {
    use qspr::obs::{install_thread, Collector};

    let fabric = Arc::new(Fabric::quale_45x85());
    let tech = *Flow::on(Arc::clone(&fabric)).tech_params();
    let bounds = qspr_sim::FlowPolicy::Qspr
        .router_config(&tech)
        .travel_bounds(fabric.topology());
    let program = fig3_program();
    let run = || {
        let collector = Arc::new(Collector::new());
        let guard = install_thread(Arc::clone(&collector) as _);
        let result = Flow::on(Arc::clone(&fabric)).seeds(4).run(&program);
        drop(guard);
        let json = result.expect("fig3 maps").summary().to_json();
        (collector.count_of("bounds"), json)
    };
    let (first, first_json) = run();
    assert!(first > 0, "the first run fills the empty tables");
    assert_eq!(
        first as usize,
        bounds.rows_filled() + bounds.goals_filled(),
        "one span per fill"
    );
    let (second, second_json) = run();
    assert_eq!(second, 0, "the second run reads the filled tables");
    assert_eq!(second_json, first_json);
}

/// Table 1 at `m = 5` (greedy router, the flow's default MVFB seed):
/// per suite circuit, MVFB's latency and run count `m'`, and the Monte
/// Carlo latency given the same `m'` runs. The literals were produced
/// before the placers shared one prepared program across their seeds;
/// both thread counts must reproduce them.
#[test]
fn table1_placer_rows_are_pinned_at_m5() {
    // (circuit, mvfb_latency, runs, mc_latency)
    let expected = [
        ("[[5,1,3]]", 628, 36, 680),
        ("[[7,1,3]]", 530, 31, 554),
        ("[[9,1,3]]", 790, 30, 780),
        ("[[14,8,3]]", 4276, 33, 4334),
        ("[[19,1,7]]", 4480, 32, 4538),
        ("[[23,1,7]]", 2494, 44, 2582),
    ]
    .map(|(circuit, mvfb, runs, mc)| (circuit.to_owned(), mvfb, runs, mc));
    let suite = benchmark_suite();
    for jobs in [1, 2] {
        let flow = Flow::on(Fabric::quale_45x85()).seeds(5).jobs(jobs);
        let rows: Vec<_> = suite
            .iter()
            .map(|bench| {
                let row = flow.compare_placers(&bench.name, &bench.program).unwrap();
                (row.circuit, row.mvfb_latency, row.runs, row.mc_latency)
            })
            .collect();
        assert_eq!(rows, expected, "jobs={jobs}");
    }
}
