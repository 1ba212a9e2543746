//! Property-based tests of the router under random load.

#![cfg(test)]

use proptest::prelude::*;

use qspr_fabric::{Coord, Fabric, SearchGraph, TechParams, Topology, TrapId};

use crate::engine::{RouteRequest, RouterKind};
use crate::plan::{RoutePlan, Step};
use crate::resource::{Resource, ResourceState};
use crate::router::{Router, RouterConfig};

/// The reference assembly of `plan`'s steps: the resource exits are
/// re-derived by walking the cells (a move out of a segment or junction
/// releases it, and a resource entered again is booked once and
/// released at its last exit), and the seed's
/// [`RoutePlan::from_steps_reference`] turns them into offsets. Equal
/// to `plan` exactly when the router's builder and `from_steps` book
/// and time every resource as the seed did.
fn reference_plan(topo: &Topology, config: &RouterConfig, plan: &RoutePlan) -> RoutePlan {
    let resource_at = |c: Coord| {
        topo.junction_at(c)
            .map(Resource::Junction)
            .or_else(|| topo.channel_at(c).map(|(s, _)| Resource::Segment(s)))
    };
    let mut exits: Vec<(Resource, usize)> = Vec::new();
    let mut inside = None;
    for (i, step) in plan.steps().iter().enumerate() {
        let Step::Move { to } = *step else {
            continue;
        };
        let next = resource_at(to);
        if let Some(left) = inside.filter(|&r| Some(r) != next) {
            exits.retain(|&(r, _)| r != left);
            exits.push((left, i));
        }
        inside = next;
    }
    RoutePlan::from_steps_reference(
        plan.from_trap(),
        plan.to_trap(),
        plan.steps().to_vec(),
        exits,
        config.t_move,
        config.t_turn,
        plan.est_cost(),
    )
}

/// A node-simple walk over the search graph that starts at end
/// `start_end` (0 or 1; the other end when that one is a dead end) of
/// `from`'s segment and takes the `choices` (each picks among the
/// unvisited turn and edge successors), cut back to its last node that
/// is an end node of some trap's segment. Returns that trap (the
/// `pick`-th candidate, never `from`) and the walk, or `None` when the
/// source segment has no junction or no walk node has a target.
fn random_walk(
    topo: &Topology,
    from: TrapId,
    start_end: usize,
    choices: &[usize],
    pick: usize,
) -> Option<(TrapId, Vec<usize>)> {
    let graph = topo.search_graph();
    let src = topo.segment(topo.trap(from).port().segment);
    let ends = src.ends();
    let j = ends[start_end]
        .junction()
        .or(ends[1 - start_end].junction())?;
    let mut walk = vec![SearchGraph::node(j, src.orientation())];
    for &c in choices {
        let cur = walk[walk.len() - 1];
        let next: Vec<usize> = std::iter::once(SearchGraph::turn_of(cur))
            .chain(graph.edges(cur).iter().map(|e| e.to_node as usize))
            .filter(|n| !walk.contains(n))
            .collect();
        if next.is_empty() {
            break;
        }
        walk.push(next[c % next.len()]);
    }
    while let Some(&last) = walk.last() {
        let (j, orientation) = SearchGraph::parts(last);
        let targets: Vec<TrapId> = (0..topo.traps().len() as u32)
            .map(TrapId)
            .filter(|&t| t != from)
            .filter(|&t| {
                let seg = topo.segment(topo.trap(t).port().segment);
                seg.orientation() == orientation && seg.end_attached_to(j).is_some()
            })
            .collect();
        if !targets.is_empty() {
            return Some((targets[pick % targets.len()], walk));
        }
        walk.pop();
    }
    None
}

/// A route that leaves its source segment, crosses that whole segment
/// junction to junction, and re-enters it to reach a neighbour on the
/// same segment: the segment is booked once, released at the last
/// exit, exactly as the reference books it.
#[test]
fn a_route_that_reenters_its_segment_books_it_once() {
    let fabric = Fabric::regular(9, 9, 4).expect("valid grid");
    let topo = fabric.topology();
    let config = RouterConfig::qspr(&TechParams::date2012());
    let router = Router::new(topo, config);
    let (from, to) = (0..topo.traps().len() as u32)
        .map(TrapId)
        .flat_map(|a| (0..topo.traps().len() as u32).map(move |b| (a, TrapId(b))))
        .find(|&(a, b)| {
            let seg = topo.trap(a).port().segment;
            a != b
                && seg == topo.trap(b).port().segment
                && topo
                    .segment(seg)
                    .ends()
                    .iter()
                    .all(|e| e.junction().is_some())
        })
        .expect("the grid has two traps on one junction-to-junction segment");
    let seg_id = topo.trap(from).port().segment;
    let seg = topo.segment(seg_id);
    let [j0, j1] = seg.ends().map(|e| e.junction().unwrap());
    let walk = [
        SearchGraph::node(j0, seg.orientation()),
        SearchGraph::node(j1, seg.orientation()),
    ];
    let plan = router.build_walk(from, to, &walk);
    assert_eq!(plan, reference_plan(topo, &config, &plan));
    let segment = Resource::Segment(seg_id);
    let booked: Vec<Resource> = plan.resources().iter().map(|u| u.resource).collect();
    assert_eq!(
        booked,
        [Resource::Junction(j0), Resource::Junction(j1), segment],
        "three entries into the segment, one booking"
    );
    assert_eq!(plan.resources()[2].exit_offset, plan.duration());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Book a sequence of random routes; capacities must never be
    /// exceeded, and every booked route must remain releasable.
    #[test]
    fn bookings_respect_capacity(pairs in proptest::collection::vec((0usize..900, 0usize..900), 1..12)) {
        let fabric = Fabric::quale_45x85();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let router = Router::new(topo, RouterConfig::qspr(&tech));
        let mut state = ResourceState::new(topo);
        let n = topo.traps().len();
        let mut booked = Vec::new();
        for (a, b) in pairs {
            let from = TrapId((a % n) as u32);
            let to = TrapId((b % n) as u32);
            if from == to {
                continue;
            }
            if let Some(plan) = router.route(&state, from, to) {
                for usage in plan.resources() {
                    state.book(usage.resource).unwrap();
                    let cap = match usage.resource {
                        crate::resource::Resource::Segment(_) => tech.channel_capacity,
                        crate::resource::Resource::Junction(_) => tech.junction_capacity,
                    };
                    prop_assert!(
                        state.usage(usage.resource) <= cap,
                        "{} over capacity", usage.resource
                    );
                }
                booked.push(plan);
            }
        }
        for plan in &booked {
            for usage in plan.resources() {
                state.release(usage.resource);
            }
        }
        prop_assert_eq!(state.total_bookings(), 0);
    }

    /// Congestion can only make the chosen route costlier, never cheaper.
    #[test]
    fn congestion_is_monotone(a in 0usize..900, b in 0usize..900, load in 0usize..900) {
        let fabric = Fabric::quale_45x85();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let router = Router::new(topo, RouterConfig::qspr(&tech));
        let n = topo.traps().len();
        let from = TrapId((a % n) as u32);
        let to = TrapId((b % n) as u32);
        prop_assume!(from != to);

        let quiet = ResourceState::new(topo);
        let base = router.route(&quiet, from, to).expect("connected fabric");

        // Apply an unrelated route's bookings as load.
        let mut loaded = ResourceState::new(topo);
        let lt = TrapId((load % n) as u32);
        if lt != from && lt != to {
            if let Some(plan) = router.route(&loaded, from, lt) {
                for usage in plan.resources() {
                    loaded.book(usage.resource).unwrap();
                }
            }
        }
        if let Some(under_load) = router.route(&loaded, from, to) {
            prop_assert!(under_load.est_cost() >= base.est_cost());
        }
    }

    /// Epoch invariant, both engines: the joint batch answer respects
    /// the channel/junction capacities at overlapping times. Every plan
    /// of an epoch starts at once and holds each booked resource from
    /// t = 0 until its exit offset, so two plans overlap on a resource
    /// exactly when both book it — the per-resource plan count must
    /// stay within capacity. Under capacity 1 this is the ISSUE's "no
    /// two committed plans occupy the same segment at overlapping
    /// times".
    #[test]
    fn batch_answers_respect_capacity_at_overlapping_times(
        pairs in proptest::collection::vec((0usize..900, 0usize..900), 2..7),
        seed_cap in 0u8..2,
    ) {
        let fabric = Fabric::quale_45x85();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig {
            channel_capacity: 1 + seed_cap,
            junction_capacity: 1 + seed_cap,
            ..RouterConfig::qspr(&tech)
        };
        let n = topo.traps().len();
        let requests: Vec<RouteRequest> = pairs
            .iter()
            .map(|&(a, b)| RouteRequest::new(TrapId((a % n) as u32), TrapId((b % n) as u32)))
            .filter(|r| r.from != r.to)
            .collect();
        prop_assume!(!requests.is_empty());
        for kind in [RouterKind::Greedy, RouterKind::Negotiated] {
            let mut engine = kind.build(topo, config);
            let state = ResourceState::new(topo);
            let (plans, _epoch) = engine.route_batch(&state, &requests);
            // Count overlapping occupancy per resource across the epoch.
            let mut occupancy = ResourceState::new(topo);
            for plan in plans.iter().flatten() {
                for usage in plan.resources() {
                    occupancy.book(usage.resource).unwrap();
                    let cap = match usage.resource {
                        crate::Resource::Segment(_) => config.channel_capacity,
                        crate::Resource::Junction(_) => config.junction_capacity,
                    };
                    prop_assert!(
                        occupancy.usage(usage.resource) <= cap,
                        "{kind}: {} over capacity {cap} in one epoch",
                        usage.resource
                    );
                }
            }
        }
    }

    /// Plan invariant, both engines: `RoutePlan::duration` equals the
    /// sum of its steps' durations (each `Move` costs `t_move`, each
    /// `Turn` costs `t_turn`).
    #[test]
    fn plan_duration_is_the_sum_of_step_durations(
        pairs in proptest::collection::vec((0usize..900, 0usize..900), 1..6),
    ) {
        let fabric = Fabric::quale_45x85();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig::qspr(&tech);
        let n = topo.traps().len();
        let requests: Vec<RouteRequest> = pairs
            .iter()
            .map(|&(a, b)| RouteRequest::new(TrapId((a % n) as u32), TrapId((b % n) as u32)))
            .collect();
        for kind in [RouterKind::Greedy, RouterKind::Negotiated] {
            let mut engine = kind.build(topo, config);
            let state = ResourceState::new(topo);
            let (plans, _epoch) = engine.route_batch(&state, &requests);
            for plan in plans.iter().flatten() {
                prop_assert_eq!(plan, &reference_plan(topo, &config, plan), "{} plan", kind);
                let stepped: u64 = plan
                    .steps()
                    .iter()
                    .map(|s| match s {
                        Step::Move { .. } => config.t_move,
                        Step::Turn { .. } => config.t_turn,
                    })
                    .sum();
                prop_assert_eq!(plan.duration(), stepped, "{} plan", kind);
                prop_assert_eq!(
                    plan.duration(),
                    u64::from(plan.moves()) * config.t_move
                        + u64::from(plan.turns()) * config.t_turn
                );
            }
        }
    }

    /// Search equivalence: the arena-backed, goal-directed search must
    /// return plans byte-identical to the seed's fresh, run-to-
    /// exhaustion naive Dijkstra (`Router::route_naive`) — across
    /// random regular fabrics, random booked load, random trap pairs,
    /// and both hard mode and the negotiation's soft overlay mode.
    /// Identity of the whole `RoutePlan` subsumes the durations and
    /// resource usage the ISSUE asks for.
    #[test]
    fn arena_search_equals_naive_dijkstra(
        rows in 5u16..18,
        cols in 5u16..18,
        pitch in 2u16..5,
        load in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        pairs in proptest::collection::vec((0usize..64, 0usize..64), 1..8),
        caps in 1u8..3,
        soft_flag in 0u8..2,
    ) {
        let soft = soft_flag == 1;
        let Ok(fabric) = Fabric::regular(rows, cols, pitch) else {
            // Degenerate geometry (too small for a tile); nothing to test.
            return Ok(());
        };
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig {
            channel_capacity: caps,
            junction_capacity: caps,
            ..RouterConfig::qspr(&tech)
        };
        let router = Router::new(topo, config);
        let n = topo.traps().len();

        // Random booked load (routes committed under hard capacities).
        let mut state = ResourceState::new(topo);
        for (a, b) in load {
            let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
            if from == to {
                continue;
            }
            if let Some(plan) = router.route(&state, from, to) {
                for usage in plan.resources() {
                    state.book(usage.resource).unwrap();
                }
            }
        }

        let history = vec![3u32; topo.segments().len()];
        let extra_segments = vec![0u8; topo.segments().len()];
        let extra_junctions = vec![0u8; topo.junctions().len()];
        let overlay = soft.then_some(crate::router::Overlay {
            extra_segments: &extra_segments,
            extra_junctions: &extra_junctions,
            soft: true,
            pres_weight: 16,
            history: &history,
            hist_weight: 1,
        });

        for (a, b) in pairs {
            let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
            let fast = router.route_with(&state, from, to, overlay.as_ref());
            let naive = router.route_naive(&state, from, to, overlay.as_ref());
            prop_assert_eq!(&fast, &naive, "from {} to {} (soft={})", from, to, soft);
            if let Some(plan) = &fast {
                prop_assert_eq!(plan.from_trap(), from);
                prop_assert_eq!(plan.to_trap(), to);
                prop_assert_eq!(plan, &reference_plan(topo, &config, plan));
            }
            // Both engines answer single-route probes through the same
            // search; they must agree with the naive reference too.
            for kind in [RouterKind::Greedy, RouterKind::Negotiated] {
                let engine = kind.build(topo, config);
                let via_engine = engine.route_one(&state, from, to);
                prop_assert_eq!(
                    &via_engine,
                    &router.route_naive(&state, from, to, None),
                    "{} route_one from {} to {}", kind, from, to
                );
            }
        }
    }

    /// Search equivalence under *penalized goals*: random batch-internal
    /// bookings, extra load on the target segment's end junctions
    /// (driving them to or over capacity), random per-segment history
    /// and every present-congestion weight the negotiation uses
    /// (`16·4^k`, k < 5), in hard-overlay, soft-overlay and no-overlay
    /// mode. Over-capacity goal ends cost a toll in soft mode and
    /// vanish as goals in hard mode, so the two goal candidates differ
    /// widely — the case where the search stops at the best complete
    /// candidate long before the dearer goal settles.
    #[test]
    fn arena_search_equals_naive_dijkstra_with_penalized_goals(
        rows in 5u16..18,
        cols in 5u16..18,
        pitch in 2u16..5,
        caps in 1u8..3,
        mode in 0u8..3,
        k in 0u32..5,
        load in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        extra_segs in proptest::collection::vec((0usize..256, 1u8..3), 0..24),
        extra_juncs in proptest::collection::vec((0usize..256, 1u8..3), 0..12),
        history_pattern in proptest::collection::vec(0u32..50, 1..97),
        pairs in proptest::collection::vec((0usize..64, 0usize..64, 0u8..4, 0u8..4), 1..8),
    ) {
        let Ok(fabric) = Fabric::regular(rows, cols, pitch) else {
            // Degenerate geometry (too small for a tile); nothing to test.
            return Ok(());
        };
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig {
            channel_capacity: caps,
            junction_capacity: caps,
            ..RouterConfig::qspr(&tech)
        };
        let router = Router::new(topo, config);
        let n = topo.traps().len();
        let (n_seg, n_junc) = (topo.segments().len(), topo.junctions().len());

        let mut state = ResourceState::new(topo);
        for (a, b) in load {
            let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
            if let Some(plan) = router.route(&state, from, to) {
                for usage in plan.resources() {
                    state.book(usage.resource).unwrap();
                }
            }
        }
        let mut extra_segments = vec![0u8; n_seg];
        for (i, c) in extra_segs {
            extra_segments[i % n_seg] += c;
        }
        let history: Vec<u32> = (0..n_seg)
            .map(|i| history_pattern[i % history_pattern.len()])
            .collect();

        for (a, b, bump0, bump1) in pairs {
            let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
            let mut extra_junctions = vec![0u8; n_junc];
            for &(i, c) in &extra_juncs {
                extra_junctions[i % n_junc] += c;
            }
            let dst = topo.segment(topo.trap(to).port().segment);
            for (end, bump) in [bump0, bump1].into_iter().enumerate() {
                if let Some(j) = dst.ends()[end].junction() {
                    extra_junctions[j.index()] += bump;
                }
            }
            let overlay = crate::router::Overlay {
                extra_segments: &extra_segments,
                extra_junctions: &extra_junctions,
                soft: mode == 2,
                pres_weight: 16 * 4u64.pow(k),
                history: &history,
                hist_weight: 1,
            };
            let overlay = (mode > 0).then_some(&overlay);
            let fast = router.route_with(&state, from, to, overlay);
            prop_assert_eq!(
                &fast,
                &router.route_naive(&state, from, to, overlay),
                "from {} to {} (mode={}, pres_weight=16*4^{})", from, to, mode, k
            );
            if let Some(plan) = &fast {
                prop_assert_eq!(plan, &reference_plan(topo, &config, plan));
            }
        }
    }

    /// Distinct channel and junction capacities (1 to 3 each, from the
    /// router configuration): routes committed one after another never
    /// book a resource past its capacity, and the arena search stays
    /// identical to the naive reference under that load.
    #[test]
    fn configured_capacities_agree_with_the_naive_search(
        rows in 9u16..16,
        cols in 9u16..16,
        junction_cap in 1u8..4,
        channel_cap in 1u8..4,
        load in proptest::collection::vec((0usize..64, 0usize..64), 0..5),
        pairs in proptest::collection::vec((0usize..64, 0usize..64), 1..6),
    ) {
        let fabric = Fabric::regular(rows, cols, 4)
            .expect("geometry fits at least one pitch-4 tile");
        let topo = fabric.topology();
        let config = RouterConfig {
            channel_capacity: channel_cap,
            junction_capacity: junction_cap,
            ..RouterConfig::qspr(&TechParams::date2012())
        };
        let router = Router::new(topo, config);
        let n = topo.traps().len();

        let mut state = ResourceState::new(topo);
        for &(a, b) in &load {
            let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
            if from == to {
                continue;
            }
            if let Some(plan) = router.route(&state, from, to) {
                for usage in plan.resources() {
                    state.book(usage.resource).unwrap();
                    prop_assert!(
                        state.usage(usage.resource) <= router.capacity(usage.resource),
                        "{} over its capacity", usage.resource
                    );
                }
            }
        }
        for &(a, b) in &pairs {
            let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
            let fast = router.route_with(&state, from, to, None);
            let naive = router.route_naive(&state, from, to, None);
            prop_assert_eq!(&fast, &naive, "from {} to {}", from, to);
        }
    }

    /// The quiet-route table changes no answer: `route` equals the
    /// naive reference for every pair, first under random booked load
    /// (whose routes also feed the QUALE router's history) with and
    /// without random bookings (0 or 1) on the pair's two port
    /// segments, then on the quiet fabric (a second router shares the
    /// table; re-asking is a hit) and with port bookings only, then
    /// with one booking on the interior of a stored plan, and under the
    /// load again. Anything the loaded searches stored must be right on
    /// the quiet fabric. It runs the QSPR router and the
    /// history-keeping QUALE router on regular grids, at channel and
    /// junction capacities of 1 to 3 each, and `route_with` also checks
    /// every hit against the full search.
    #[test]
    fn quiet_route_hits_equal_the_naive_search(
        quale in any::<bool>(),
        rows in 9u16..16,
        cols in 9u16..16,
        junction_cap in 1u8..4,
        channel_cap in 1u8..4,
        pairs in proptest::collection::vec((0usize..64, 0usize..64), 1..6),
        load in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        ports in proptest::collection::vec((0u8..2, 0u8..2), 1..5),
        interior in proptest::collection::vec(0usize..64, 1..6),
    ) {
        let fabric = Fabric::regular(rows, cols, 4).expect("geometry fits at least one pitch-4 tile");
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = RouterConfig {
            channel_capacity: channel_cap,
            junction_capacity: junction_cap,
            ..if quale { RouterConfig::quale(&tech) } else { RouterConfig::qspr(&tech) }
        };
        let mut router = Router::new(topo, config);
        let n = topo.traps().len();
        let trap = |i: usize| TrapId((i % n) as u32);
        let pairs: Vec<(TrapId, TrapId)> = pairs
            .iter()
            .map(|&(a, b)| (trap(a), trap(b)))
            .filter(|(a, b)| a != b)
            .collect();
        let port = |t: TrapId| Resource::Segment(topo.trap(t).port().segment);
        // `base` with `bf` more bookings on `from`'s port segment and
        // `bt` more on `to`'s.
        let with_ports = |base: &ResourceState, (from, to): (TrapId, TrapId), (bf, bt): (u8, u8)| {
            let mut state = base.clone();
            for (t, k) in [(from, bf), (to, bt)] {
                for _ in 0..k {
                    state.book(port(t)).unwrap();
                }
            }
            state
        };
        let check = |router: &Router<'_>, state: &ResourceState, (from, to): (TrapId, TrapId)| {
            let got = router.route(state, from, to);
            prop_assert_eq!(&got, &router.route_naive(state, from, to, None), "{} to {}", from, to);
            Ok(got)
        };

        let quiet = ResourceState::new(topo);
        let mut loaded = ResourceState::new(topo);
        for &(a, b) in &load {
            if let Some(plan) = router.route(&loaded, trap(a), trap(b)) {
                for u in plan.resources() {
                    loaded.book(u.resource).unwrap();
                }
                router.note_booked(&plan);
            }
        }
        for &pair in &pairs {
            check(&router, &loaded, pair)?;
            for &bookings in &ports {
                check(&router, &with_ports(&loaded, pair, bookings), pair)?;
            }
        }

        let fresh = Router::new(topo, config);
        let mut stored = Vec::new();
        for &pair in &pairs {
            let plan = check(&fresh, &quiet, pair)?;
            let hits = fresh.quiet_hits.get();
            check(&fresh, &quiet, pair)?;
            if plan.is_some() {
                prop_assert_eq!(fresh.quiet_hits.get(), hits + 1, "a quiet re-query hits");
            }
            for &bookings in &ports {
                check(&fresh, &with_ports(&quiet, pair, bookings), pair)?;
                check(&router, &with_ports(&quiet, pair, bookings), pair)?;
            }
            stored.extend(plan);
        }

        for (plan, &pick) in stored.iter().zip(interior.iter().cycle()) {
            let ends = [port(plan.from_trap()), port(plan.to_trap())];
            let inner: Vec<Resource> = plan
                .resources()
                .iter()
                .map(|u| u.resource)
                .filter(|r| !ends.contains(r))
                .collect();
            if let Some(&resource) = inner.get(pick % inner.len().max(1)) {
                let mut state = ResourceState::new(topo);
                state.book(resource).unwrap();
                check(&fresh, &state, (plan.from_trap(), plan.to_trap()))?;
            }
        }
        for &pair in &pairs {
            check(&router, &loaded, pair)?;
        }
    }

    /// Routing is symmetric in travel time on a quiet fabric (paths may
    /// differ, but the physical duration must match: the graph is
    /// undirected and the cost model direction-free).
    #[test]
    fn quiet_routing_is_duration_symmetric(a in 0usize..900, b in 0usize..900) {
        let fabric = Fabric::quale_45x85();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let router = Router::new(topo, RouterConfig::qspr(&tech));
        let state = ResourceState::new(topo);
        let n = topo.traps().len();
        let from = TrapId((a % n) as u32);
        let to = TrapId((b % n) as u32);
        prop_assume!(from != to);
        let fwd = router.route(&state, from, to).expect("connected");
        let bwd = router.route(&state, to, from).expect("connected");
        prop_assert_eq!(fwd.duration(), bwd.duration());
        prop_assert_eq!(fwd.moves(), bwd.moves());
    }

    /// The plan builder books and times every resource as the seed's
    /// assembly does, along any node-simple walk of the search graph,
    /// not only the cheapest one the search returns: walks that cross
    /// their own source or target segment, or pass one junction twice,
    /// drive the sort-and-dedup of re-entered resources.
    #[test]
    fn walked_plans_match_the_reference_builder(
        rows in 5u16..18,
        cols in 5u16..18,
        pitch in 2u16..5,
        walks in proptest::collection::vec(
            (0usize..64, 0usize..2, proptest::collection::vec(0usize..6, 0..16), 0usize..64),
            1..8,
        ),
    ) {
        let Ok(fabric) = Fabric::regular(rows, cols, pitch) else {
            // Degenerate geometry (too small for a tile); nothing to test.
            return Ok(());
        };
        let topo = fabric.topology();
        let config = RouterConfig::qspr(&TechParams::date2012());
        let router = Router::new(topo, config);
        let n = topo.traps().len();
        for (a, start_end, choices, pick) in walks {
            let from = TrapId((a % n) as u32);
            let Some((to, walk)) = random_walk(topo, from, start_end, &choices, pick) else {
                continue;
            };
            let plan = router.build_walk(from, to, &walk);
            prop_assert_eq!(&plan, &reference_plan(topo, &config, &plan), "walk {:?}", walk);
        }
    }
}

/// The quale fabric (`kind` 0) or a regular grid of random geometry.
fn bounds_fabric(kind: u8, rows: u16, cols: u16, pitch: u16) -> Fabric {
    match kind % 2 {
        0 => Fabric::quale_45x85(),
        _ => Fabric::regular(rows, cols, pitch).expect("generated regular grid builds"),
    }
}

/// The fabrics of the `min_duration` reference property: the QUALE
/// fabric and every committed fabric under `examples/fabrics/`.
fn example_fabric(kind: u8) -> Fabric {
    let art = match kind % 3 {
        0 => return Fabric::quale_45x85(),
        1 => include_str!("../../../examples/fabrics/nearest_neighbor_6x6.txt"),
        _ => include_str!("../../../examples/fabrics/regular_21x41_p4.txt"),
    };
    Fabric::from_ascii(art).expect("committed fabric builds")
}

/// Books the routes of `load` pairs one after another (skipping blocked
/// ones) and feeds them to the engine's history, like committed legs.
fn book_load(
    engine: &mut dyn crate::RoutingEngine,
    state: &mut ResourceState,
    load: &[(usize, usize)],
    n: usize,
) {
    for &(a, b) in load {
        let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
        if let Some(plan) = engine.route_one(state, from, to) {
            for usage in plan.resources() {
                state.book(usage.resource).unwrap();
            }
            engine.note_booked(&plan);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `TravelBounds` is a true lower bound: no booking state, history
    /// or turn policy routes a mover faster than the empty-fabric
    /// bound, and on the empty fabric the turn-aware router meets it.
    #[test]
    fn travel_bounds_never_exceed_routed_durations(
        kind in 0u8..2,
        rows in 9u16..30,
        cols in 9u16..40,
        pitch in 2u16..5,
        extra_cap in 0u8..2,
        load in proptest::collection::vec((0usize..2000, 0usize..2000), 0..14),
        queries in proptest::collection::vec((0usize..2000, 0usize..2000), 1..8),
    ) {
        let fabric = bounds_fabric(kind, rows, cols, pitch);
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let qspr = RouterConfig {
            channel_capacity: 1 + extra_cap,
            junction_capacity: 1 + extra_cap,
            ..RouterConfig::qspr(&tech)
        };
        let n = topo.traps().len();
        for config in [qspr, RouterConfig::quale(&tech)] {
            let bounds = config.travel_bounds(topo);
            let mut engine = RouterKind::Greedy.build(topo, config);
            let empty = ResourceState::new(topo);
            if config.turn_aware {
                for &(a, b) in &queries {
                    let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
                    if let Some(plan) = engine.route_one(&empty, from, to) {
                        prop_assert_eq!(bounds.min_duration(topo, from, to), plan.duration());
                    }
                }
            }
            let mut state = ResourceState::new(topo);
            book_load(engine.as_mut(), &mut state, &load, n);
            for &(a, b) in &queries {
                let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
                if let Some(plan) = engine.route_one(&state, from, to) {
                    prop_assert!(
                        bounds.min_duration(topo, from, to) <= plan.duration(),
                        "{} to {}: bound {} above routed {}",
                        from, to, bounds.min_duration(topo, from, to), plan.duration()
                    );
                }
            }
        }
    }

    /// `TravelBounds::min_duration` is exactly what a turn-aware,
    /// history-free router finds on an empty state, on every committed
    /// fabric and whichever turn policy the table was built for (the
    /// negotiated engine's lower-bound gate relies on the equality).
    #[test]
    fn min_duration_equals_the_empty_fabric_route(
        kind in 0u8..3,
        quale in any::<bool>(),
        pairs in proptest::collection::vec((0usize..4000, 0usize..4000), 1..12),
    ) {
        let fabric = example_fabric(kind);
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = if quale { RouterConfig::quale(&tech) } else { RouterConfig::qspr(&tech) };
        let bounds = config.travel_bounds(topo);
        let reference = Router::new(
            topo,
            RouterConfig { turn_aware: true, history_cost: false, ..config },
        );
        let empty = ResourceState::new(topo);
        let n = topo.traps().len();
        for (a, b) in pairs {
            let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
            let routed = reference.route(&empty, from, to).map_or(u64::MAX, |p| p.duration());
            prop_assert_eq!(bounds.min_duration(topo, from, to), routed, "{} to {}", from, to);
        }
    }

    /// Handing an engine the sequential probes of a batch answers
    /// exactly like a fresh `route_batch`: same plans, same epoch
    /// stats, same cumulative stats, and the same engine state for the
    /// next batch.
    #[test]
    fn probed_batches_equal_fresh_batches(
        quale in any::<bool>(),
        extra_cap in 0u8..2,
        load in proptest::collection::vec((0usize..900, 0usize..900), 0..12),
        pairs in proptest::collection::vec((0usize..900, 0usize..900), 1..4),
        next in proptest::collection::vec((0usize..900, 0usize..900), 2..4),
    ) {
        let fabric = Fabric::quale_45x85();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let config = if quale {
            RouterConfig::quale(&tech)
        } else {
            RouterConfig {
                channel_capacity: 1 + extra_cap,
                junction_capacity: 1 + extra_cap,
                ..RouterConfig::qspr(&tech)
            }
        };
        let n = topo.traps().len();
        let request = |&(a, b): &(usize, usize)| {
            RouteRequest::new(TrapId((a % n) as u32), TrapId((b % n) as u32))
        };
        let requests: Vec<RouteRequest> = pairs.iter().map(request).collect();
        let follow_up: Vec<RouteRequest> = next.iter().map(request).collect();
        for kind in [RouterKind::Greedy, RouterKind::Negotiated] {
            let mut fresh = kind.build(topo, config);
            let mut handed = kind.build(topo, config);
            let mut state = ResourceState::new(topo);
            book_load(fresh.as_mut(), &mut state, &load, n);
            let mut ignored = ResourceState::new(topo);
            book_load(handed.as_mut(), &mut ignored, &load, n);

            // Probe the movers one after another, booking as we go.
            let mut scratch = state.clone();
            let mut probes = Vec::new();
            for req in &requests {
                let Some(plan) = handed.route_one(&scratch, req.from, req.to) else {
                    break;
                };
                for usage in plan.resources() {
                    scratch.book(usage.resource).unwrap();
                }
                probes.push(plan);
            }
            prop_assume!(probes.len() == requests.len());

            let want = fresh.route_batch(&state, &requests);
            let got = handed.route_batch_probed(&state, &requests, probes.clone());
            // The sequential answer's peak pressure, by booking it.
            let mut booked = state.clone();
            let mut peak = 0;
            for u in probes.iter().flat_map(|p| p.resources()) {
                booked.book(u.resource).unwrap();
                if let crate::Resource::Segment(_) = u.resource {
                    peak = peak.max(booked.usage(u.resource));
                }
            }
            if kind == RouterKind::Greedy {
                prop_assert_eq!(want.1.max_pressure, peak, "{}", kind);
            }
            prop_assert_eq!(&got, &want, "{}", kind);
            prop_assert_eq!(handed.stats(), fresh.stats(), "{}", kind);
            prop_assert_eq!(
                handed.route_batch(&state, &follow_up),
                fresh.route_batch(&state, &follow_up),
                "{}: engine state diverged", kind
            );
        }
    }
}
