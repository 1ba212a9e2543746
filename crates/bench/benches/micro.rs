//! Criterion micro-benches of the substrates: parsing, fabric
//! construction, routing (single query, batch, negotiation),
//! scheduling analysis, and encoder synthesis.

use criterion::{criterion_group, criterion_main, Criterion};

use qspr_fabric::{Coord, Fabric, TechParams, Topology, TrapId};
use qspr_qasm::Program;
use qspr_qecc::codes;
use qspr_qecc::encoder::encoding_circuit;
use qspr_route::{Resource, ResourceState, RouteRequest, Router, RouterConfig, RouterKind};
use qspr_sched::Qidg;

/// Books a fabric-wide spread of routes so the routing benches below
/// run against a realistically loaded `ResourceState` (the mapper's
/// steady state), not a quiet fabric.
fn loaded_state(router: &Router<'_>, load: usize) -> ResourceState {
    let topo = router.topology();
    let mut state = ResourceState::new(topo);
    let order = topo.traps_by_distance(Coord::new(22, 42));
    let n = order.len();
    for i in 0..load {
        let (a, b) = (order[(i * 83) % n], order[(i * 83 + 40) % n]);
        if let Some(plan) = router.route(&state, a, b) {
            for usage in plan.resources() {
                state.book(usage.resource).unwrap();
            }
        }
    }
    state
}

/// Mid-distance mover pairs around the center, the shape of a
/// scheduling epoch's batch.
fn epoch_requests(topo: &qspr_fabric::Topology, n: usize) -> Vec<RouteRequest> {
    let order = topo.traps_by_distance(Coord::new(22, 42));
    (0..n)
        .map(|i| RouteRequest::new(order[2 * i], order[2 * i + 51]))
        .collect()
}

/// Two movers into the two center-most traps that port onto one
/// segment, from traps ~60 places further out, with the target
/// segment's end junction nearer to the movers booked (capacity 1).
fn soft_congested_batch(topo: &Topology) -> (ResourceState, Vec<RouteRequest>) {
    let order = topo.traps_by_distance(Coord::new(22, 42));
    let segment = |t: TrapId| topo.trap(t).port().segment;
    let (i, k) = (0..order.len())
        .flat_map(|i| (i + 1..order.len()).map(move |k| (i, k)))
        .find(|&(i, k)| segment(order[i]) == segment(order[k]))
        .expect("some segment serves two traps");
    let requests = vec![
        RouteRequest::new(order[i + 60], order[i]),
        RouteRequest::new(order[k + 60], order[k]),
    ];
    let dst = topo.segment(segment(order[i]));
    let src = topo.trap(order[i + 60]).coord();
    let near = dst
        .ends()
        .iter()
        .filter_map(|end| end.junction())
        .min_by_key(|&j| topo.junction(j).coord().manhattan(src))
        .expect("target segment ends at a junction");
    let mut state = ResourceState::new(topo);
    state.book(Resource::Junction(near)).unwrap();
    (state, requests)
}

fn bench_micro(c: &mut Criterion) {
    let tech = TechParams::date2012();

    c.bench_function("qasm_parse_fig3", |b| {
        b.iter(|| Program::parse(codes::FIG3_QASM).expect("parses"))
    });

    c.bench_function("fabric_build_45x85", |b| b.iter(Fabric::quale_45x85));

    let fabric = Fabric::quale_45x85();
    let topo = fabric.topology();
    let router = Router::new(topo, RouterConfig::qspr(&tech));
    let state = ResourceState::new(topo);
    let order = topo.traps_by_distance(Coord::new(0, 0));
    let (from, to) = (order[0], *order.last().expect("traps exist"));
    c.bench_function("route_corner_to_corner", |b| {
        b.iter(|| router.route(&state, from, to).expect("routable"))
    });

    // The mapper's actual hot query: a mid-distance route on a loaded
    // fabric (every simulated instruction issues one or more of these).
    let loaded = loaded_state(&router, 10);
    let center_order = topo.traps_by_distance(Coord::new(22, 42));
    let (mid_from, mid_to) = (0..center_order.len() - 23)
        .map(|i| (center_order[i], center_order[i + 23]))
        .find(|&(a, b)| router.route(&loaded, a, b).is_some())
        .expect("some mid-distance pair routes under load");
    c.bench_function("route_one", |b| {
        b.iter(|| router.route(&loaded, mid_from, mid_to).expect("routable"))
    });

    // One epoch's mover batch through the greedy engine.
    let requests = epoch_requests(topo, 6);
    let mut greedy = RouterKind::Greedy.build(topo, RouterConfig::qspr(&tech));
    c.bench_function("route_batch", |b| {
        b.iter(|| greedy.route_batch(&loaded, &requests))
    });

    // A full negotiation epoch under capacity-1 contention: soft-price
    // routing, conflict scans and rip-up-and-reroute iterations. A
    // fresh engine per iteration keeps the workload steady-state —
    // reusing one would let its cross-epoch PathFinder history grow
    // and drift the measured work (construction cost is negligible
    // against the ~ms epoch).
    let contended = RouterConfig {
        channel_capacity: 1,
        junction_capacity: 1,
        ..RouterConfig::qspr(&tech)
    };
    let quiet = ResourceState::new(topo);
    c.bench_function("negotiate", |b| {
        b.iter(|| {
            let mut negotiated = RouterKind::Negotiated.build(topo, contended);
            negotiated.route_batch(&quiet, &requests)
        })
    });

    // The negotiation's soft search against a penalized goal: two
    // movers share one target segment under capacity 1, and the
    // segment's end junction nearest to them is booked in the shared
    // state, so every soft search (round 0 and each rip-up round) sees
    // that goal end over capacity and tolled while the far end is free.
    let (congested, soft_requests) = soft_congested_batch(topo);
    let mut probe = RouterKind::Negotiated.build(topo, contended);
    let (_, epoch) = probe.route_batch(&congested, &soft_requests);
    assert!(epoch.ripped > 0, "the batch must negotiate");
    c.bench_function("route_soft_congested", |b| {
        b.iter(|| {
            let mut negotiated = RouterKind::Negotiated.build(topo, contended);
            negotiated.route_batch(&congested, &soft_requests)
        })
    });

    let golay = codes::twenty_three_one_seven();
    let program = encoding_circuit(&golay).expect("encodes");
    c.bench_function("qidg_build_golay", |b| {
        b.iter(|| Qidg::new(&program, &tech).critical_path_delay())
    });

    c.bench_function("encoder_synthesis_golay", |b| {
        b.iter(|| encoding_circuit(&golay).expect("encodes"))
    });
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
