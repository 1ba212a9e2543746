//! Routing of ion qubits through an ion-trap fabric.
//!
//! Implements the QSPR paper's router (§IV.B):
//!
//! * the fabric is modelled as a weighted graph whose vertices are
//!   junctions and whose edges are channel segments;
//! * a channel edge weighs `(n+1)·length` scaled by `T_move`, where `n`
//!   counts the qubits *already using or booked to use* the channel; a
//!   full channel weighs ∞ (Eq. 2), which folds both `T_routing` and
//!   `T_congestion` into path selection;
//! * **turn awareness** (Fig. 5): every junction vertex is split into a
//!   horizontal and a vertical node joined by an edge of weight `T_turn`,
//!   so Dijkstra correctly prefers few-turn routes. The turn-blind
//!   variant (used to model QUALE) sets that edge's weight to zero —
//!   but the returned [`RoutePlan`] still records every physical turn, so
//!   the simulator charges the cost the router ignored;
//! * an optional PathFinder-style *history* term (`history_cost`)
//!   penalizes repeatedly used channels, standing in for QUALE's
//!   negotiated-congestion router;
//! * the [`engine`] module lifts single-path queries to *batch* routing:
//!   an object-safe [`RoutingEngine`] seam with a [`GreedyRouter`]
//!   (sequential first-answer routing) and a [`NegotiatedRouter`]
//!   (full PathFinder rip-up-and-reroute over every mover of a
//!   scheduling epoch), selected via [`RouterKind`] or injected through
//!   [`RouterFactory`].
//!
//! Routes are returned as cell-level [`RoutePlan`]s: a list of
//! [`Step`]s (`Move`/`Turn`) plus the [`Resource`]s (segments, junctions)
//! the qubit books, each with the relative time at which it is released.
//!
//! # Performance
//!
//! Routing is the innermost loop of the whole mapper, so the search is
//! engineered to be allocation-free and goal-directed, and a query
//! allocates nothing but the plan it returns:
//!
//! * the graph — one node per *(junction, orientation)*, edges per
//!   same-orientation junction-to-junction segment — is precomputed
//!   once as a CSR adjacency on the topology
//!   ([`qspr_fabric::SearchGraph`]), replacing the per-pop incidence
//!   scan, orientation filter and end lookups;
//! * each [`Router`] owns a *scratch arena*: distance/predecessor
//!   arrays and the frontier heap, reused across queries and
//!   invalidated in O(1) by a generation stamp (a slot whose stamp is
//!   stale reads as unreached), so the search performs no heap
//!   allocation and no O(nodes) clearing;
//! * next to the arena, the router keeps the buffers a plan is
//!   assembled in: a via route's node chain, its cell steps and its
//!   resource exits. The returned [`RoutePlan`] copies its steps and
//!   resources out once, at exact length, so a routed query allocates
//!   exactly those two vectors, and a blocked or stationary query
//!   allocates nothing (pinned by the `plan_allocations` test);
//! * the Dijkstra run is *goal-directed* and stops on the best
//!   complete candidate: each goal (an entry junction of the target
//!   segment) carries the cost of its final leg, C* is the cheapest
//!   goal distance plus final leg found so far, and the search ends
//!   once every goal is settled or provably cannot beat C* (or the
//!   same-segment direct candidate). Relaxations whose empty-fabric
//!   lower bound plus the cheapest final leg exceeds C* are pruned.
//!   So in negotiation, an over-capacity (tolled) goal end no longer
//!   makes the search sweep a ball of the toll's radius once the cheap
//!   end is reached. Full goal junctions and full source or target
//!   segments short-circuit the search entirely. Every exit and prune
//!   keeps the winning predecessor chain and the end-0-wins tie-break,
//!   so the returned plan is byte-identical to a run-to-exhaustion
//!   search (property-tested against the naive reference, including
//!   penalized goals and a pinned tie case);
//! * the prune's *goal fields* (the empty-fabric cost from every search
//!   node to a target segment's ends, at the router's turn weight) are
//!   kept once per fabric, not per router or per mapper: they live in
//!   the fabric's [`TravelBounds`] table for the router's weights
//!   ([`RouterConfig::travel_bounds`]), one lock-free `OnceLock` per
//!   target segment, filled on first use. Every router on the fabric
//!   reads the same table, so across the `m` MVFB runs of a mapping,
//!   every seed thread and every later mapping on the same fabric,
//!   each field is computed once;
//! * most queries skip the search: a [`QuietRoutes`] table per fabric
//!   and router weights ([`RouterConfig::quiet_routes`], kept with the
//!   [`TravelBounds`] and shared the same way) holds the plans of the
//!   *quiet fabric*, keyed by the two traps and the bookings (0 or 1)
//!   on their two port segments; on a key's quiet fabric those are the
//!   only bookings and no segment has history. An overlay-free
//!   [`Router::route`] whose search read only quiet-fabric weights
//!   stores its plan (no extra search), and a later query with the
//!   same key gets a clone of it whenever every other resource on the
//!   plan still reads its quiet-fabric weight: each segment is unbooked
//!   and history-free, and each junction has room. That is exact.
//!   Bookings and history only raise an Eq. 2 weight, and a full
//!   resource only removes an edge, while a junction toll stays 0
//!   below capacity. So the plan's own edges keep their quiet weights,
//!   its path keeps its quiet cost, and no other path gets cheaper. The
//!   search settles nodes in `(cost, node)` order and a predecessor
//!   changes only on a strictly cheaper offer. Any offer that would
//!   displace one of the plan's predecessors, ties included, would have
//!   displaced it on the quiet fabric too. So the same predecessors
//!   win, and so do the same goal end and the same direct-or-via
//!   choice. The argument needs every capacity to be at least 1, so a
//!   router with a capacity of 0 has no table. The table stores only
//!   filled keys, at most [`QUIET_ROUTES_CAP`] of them, in lock-free
//!   open-addressing slots: past the cap, queries search. On a warm
//!   `m = 25` greedy suite sweep, 82 234 of 138 519 overlay-free
//!   queries are answered from the table.
//!
//! [`NegotiatedRouter`] keeps the same discipline across rip-up
//! iterations: epoch bookings, touched-resource sets and conflict
//! marks all live in generation-stamped arrays, and each iteration
//! re-routes only the movers that actually cross a conflicted
//! resource. Its negotiation gate reads the trap-to-trap durations of
//! the same [`TravelBounds`] table.
//!
//! # Examples
//!
//! ```
//! use qspr_fabric::{Fabric, TechParams};
//! use qspr_route::{ResourceState, Router, RouterConfig};
//!
//! let fabric = Fabric::quale_45x85();
//! let tech = TechParams::date2012();
//! let router = Router::new(fabric.topology(), RouterConfig::qspr(&tech));
//! let state = ResourceState::new(fabric.topology());
//!
//! let traps = fabric.topology().traps_by_distance(fabric.center());
//! let plan = router
//!     .route(&state, traps[0], traps[40])
//!     .expect("uncongested fabric is routable");
//! assert!(plan.moves() > 0);
//! assert_eq!(
//!     plan.duration(),
//!     u64::from(plan.moves()) * tech.t_move + u64::from(plan.turns()) * tech.t_turn
//! );
//! ```

#![forbid(unsafe_code)]

pub mod engine;
mod plan;
// Test-only: keeps `proptest` a dev-dependency and the module out of
// release builds entirely (the file's inner `#![cfg(test)]` alone would
// still parse it into non-test builds).
#[cfg(test)]
mod proptests;
mod quiet;
mod resource;
mod router;

pub use engine::{
    EpochStats, GreedyRouter, NegotiatedRouter, ParseRouterKindError, RouteRequest, RouterFactory,
    RouterKind, RoutingEngine, RoutingStats,
};
pub use plan::{ResourceUse, RoutePlan, Step};
pub use qspr_fabric::TravelBounds;
pub use quiet::{QuietRoutes, QUIET_ROUTES_CAP};
pub use resource::{Resource, ResourceState};
pub use router::{Router, RouterConfig};

/// A fabric realizing the paper's Fig. 5 scenario: between the two traps,
/// a *staircase* offers the fewest moves (18) at the price of eight
/// turns, while a *ring corridor* takes two extra moves (20) but only two
/// turns. A turn-blind router picks the staircase (98µs of travel at the
/// DATE-2012 timings); the turn-aware router picks the ring (40µs).
///
/// ```
/// use qspr_fabric::{Coord, Fabric, TechParams};
/// use qspr_route::{ResourceState, Router, RouterConfig, FIG5_DEMO_FABRIC};
///
/// let fabric = Fabric::from_ascii(FIG5_DEMO_FABRIC).unwrap();
/// let topo = fabric.topology();
/// let tech = TechParams::date2012();
/// let router = Router::new(topo, RouterConfig::qspr(&tech));
/// let state = ResourceState::new(topo);
/// let s = topo.trap_at(Coord::new(7, 4)).unwrap();
/// let t = topo.trap_at(Coord::new(1, 6)).unwrap();
/// let plan = router.route(&state, s, t).unwrap();
/// assert_eq!((plan.moves(), plan.turns()), (20, 2));
/// ```
pub const FIG5_DEMO_FABRIC: &str = "\
+------+.
|.....T|.
|....+-+.
|....|...
|....+-+.
|......|.
|....+-+.
|...T|...
+----+...
";
