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
//!   variant (used to model QUALE/QPOS) sets that edge's weight to zero —
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
//! engineered to be allocation-free and goal-directed:
//!
//! * the graph — one node per *(junction, orientation)*, edges per
//!   same-orientation junction-to-junction segment — is precomputed
//!   once as a CSR adjacency on the topology
//!   ([`qspr_fabric::SearchGraph`]), replacing the per-pop incidence
//!   scan, orientation filter and end lookups;
//! * each [`Router`] owns a *scratch arena*: distance/predecessor
//!   arrays and the frontier heap, reused across queries and
//!   invalidated in O(1) by a generation stamp (a slot whose stamp is
//!   stale reads as unreached), so a `route` call performs no heap
//!   allocation and no O(nodes) clearing;
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
//!   kept per mapper, not per router: they live in a [`TravelBounds`]
//!   table, one lock-free `OnceLock` per target segment, filled on
//!   first use. A [`Router::new`] router owns a table of its own, and a
//!   mapper hands one table to every engine it builds
//!   ([`RoutingEngine::share_bounds`]), so across the `m` MVFB runs of
//!   a mapping, on every seed thread, each field is computed once.
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

mod bounds;
pub mod engine;
mod plan;
// Test-only: keeps `proptest` a dev-dependency and the module out of
// release builds entirely (the file's inner `#![cfg(test)]` alone would
// still parse it into non-test builds).
#[cfg(test)]
mod proptests;
mod resource;
mod router;

pub use bounds::TravelBounds;
pub use engine::{
    EpochStats, GreedyRouter, NegotiatedRouter, ParseRouterKindError, RouteRequest, RouterFactory,
    RouterKind, RoutingEngine, RoutingStats,
};
pub use plan::{ResourceUse, RoutePlan, Step};
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
