//! Property-based tests of the router under random load.

#![cfg(test)]

use proptest::prelude::*;

use qspr_fabric::{Fabric, TechParams, TrapId};

use crate::engine::{RouteRequest, RouterKind};
use crate::plan::Step;
use crate::resource::ResourceState;
use crate::router::{Router, RouterConfig};

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
        let Ok(fabric) = qspr_fabric::RegularFabricSpec::new(rows, cols, pitch).build() else {
            // Degenerate spec (too small for a tile); nothing to test.
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

    /// Per-resource capacities from the spec layer. Two properties:
    /// on a fabric with *heterogeneous* junction/segment overrides the
    /// arena search stays identical to the naive reference (both read
    /// capacities through the same per-resource tables), and overrides
    /// *equal* to the config's global caps are indistinguishable from
    /// the override-free fabric — the uniform-fabric byte-identity
    /// guarantee.
    #[test]
    fn per_resource_capacities_agree_with_naive_and_uniform_baseline(
        rows in 9u16..16,
        cols in 9u16..16,
        junction_cap in 1u8..5,
        channel_cap in 1u8..5,
        load in proptest::collection::vec((0usize..64, 0usize..64), 0..5),
        pairs in proptest::collection::vec((0usize..64, 0usize..64), 1..6),
    ) {
        let tech = TechParams::date2012();
        let config = RouterConfig::qspr(&tech);
        let plain = qspr_fabric::RegularFabricSpec::new(rows, cols, 4)
            .build()
            .expect("geometry fits at least one pitch-4 tile");

        // Heterogeneous overrides: wide junctions on the left half,
        // fat channels on the top half, defaults elsewhere.
        let hetero_doc = format!(
            r#"{{
                "name": "hetero",
                "types": [
                    {{"name": "wide", "kind": "junction", "capacity": {junction_cap}}},
                    {{"name": "fat", "kind": "channel", "capacity": {channel_cap}}}
                ],
                "regions": [{{"family": "regular", "rows": {rows}, "cols": {cols}, "pitch": 4}}],
                "capacities": [
                    {{"type": "wide", "rect": [0, 0, {}, {}]}},
                    {{"type": "fat", "rect": [0, 0, {}, {}]}}
                ]
            }}"#,
            rows - 1, cols / 2, rows / 2, cols - 1,
        );
        let hetero = qspr_fabric::FabricSpec::parse_json(&hetero_doc)
            .expect("well-formed document")
            .build()
            .expect("halves of a 9+ grid contain junctions and channels");
        prop_assert!(hetero.topology().has_capacity_overrides());
        let router = Router::new(hetero.topology(), config);
        let n = hetero.topology().traps().len();

        let mut state = ResourceState::new(hetero.topology());
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
                        "{} over its per-resource capacity", usage.resource
                    );
                }
            }
        }
        for &(a, b) in &pairs {
            let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
            let fast = router.route_with(&state, from, to, None);
            let naive = router.route_naive(&state, from, to, None);
            prop_assert_eq!(&fast, &naive, "hetero from {} to {}", from, to);
        }

        // Uniform baseline: overriding every resource with the global
        // caps must reproduce the override-free plans byte for byte.
        let uniform_doc = format!(
            r#"{{
                "name": "uniform",
                "types": [
                    {{"name": "j", "kind": "junction", "capacity": {}}},
                    {{"name": "c", "kind": "channel", "capacity": {}}}
                ],
                "regions": [{{"family": "regular", "rows": {rows}, "cols": {cols}, "pitch": 4}}],
                "capacities": [
                    {{"type": "j", "rect": [0, 0, {}, {}]}},
                    {{"type": "c", "rect": [0, 0, {}, {}]}}
                ]
            }}"#,
            config.junction_capacity, config.channel_capacity,
            rows - 1, cols - 1, rows - 1, cols - 1,
        );
        let uniform = qspr_fabric::FabricSpec::parse_json(&uniform_doc)
            .expect("well-formed document")
            .build()
            .expect("full-grid rects always match");
        prop_assert!(uniform.topology().has_capacity_overrides());
        let base_router = Router::new(plain.topology(), config);
        let uni_router = Router::new(uniform.topology(), config);
        let mut base_state = ResourceState::new(plain.topology());
        let mut uni_state = ResourceState::new(uniform.topology());
        for &(a, b) in &load {
            let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
            if from == to {
                continue;
            }
            if let Some(plan) = base_router.route(&base_state, from, to) {
                for usage in plan.resources() {
                    base_state.book(usage.resource).unwrap();
                    uni_state.book(usage.resource).unwrap();
                }
            }
        }
        for &(a, b) in &pairs {
            let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
            prop_assert_eq!(
                base_router.route(&base_state, from, to),
                uni_router.route(&uni_state, from, to),
                "uniform overrides must not change plans ({} to {})", from, to
            );
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
}

/// The quale fabric (`kind` 0) or a regular grid of random geometry.
fn bounds_fabric(kind: u8, rows: u16, cols: u16, pitch: u16) -> Fabric {
    match kind % 2 {
        0 => Fabric::quale_45x85(),
        _ => qspr_fabric::RegularFabricSpec::new(rows, cols, pitch)
            .build()
            .expect("generated regular spec builds"),
    }
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
            let bounds = crate::TravelBounds::new(topo, &config);
            let mut engine = RouterKind::Greedy.build(topo, config);
            let empty = ResourceState::new(topo);
            if config.turn_aware {
                for &(a, b) in &queries {
                    let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
                    if let Some(plan) = engine.route_one(&empty, from, to) {
                        prop_assert_eq!(bounds.min_duration(from, to), plan.duration());
                    }
                }
            }
            let mut state = ResourceState::new(topo);
            book_load(engine.as_mut(), &mut state, &load, n);
            for &(a, b) in &queries {
                let (from, to) = (TrapId((a % n) as u32), TrapId((b % n) as u32));
                if let Some(plan) = engine.route_one(&state, from, to) {
                    prop_assert!(
                        bounds.min_duration(from, to) <= plan.duration(),
                        "{} to {}: bound {} above routed {}",
                        from, to, bounds.min_duration(from, to), plan.duration()
                    );
                }
            }
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
