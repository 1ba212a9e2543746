//! Congestion- and turn-aware shortest-path routing (paper §IV.B, Fig. 5).
//!
//! The search runs over the topology's precomputed
//! [`SearchGraph`] and an allocation-free, generation-stamped
//! [`SearchScratch`] arena, with goal-directed early termination — see
//! the crate docs ("Performance") for the design.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use qspr_fabric::{
    JunctionId, SearchGraph, Segment, SegmentEnd, SegmentId, TechParams, Time, Topology, TrapId,
    TravelBounds,
};

use crate::plan::{RoutePlan, Step};
use crate::quiet::{QuietKey, QuietRoutes};
use crate::resource::{Resource, ResourceState};

/// Routing policy knobs.
///
/// # Examples
///
/// ```
/// use qspr_fabric::TechParams;
/// use qspr_route::RouterConfig;
///
/// let tech = TechParams::date2012();
/// let qspr = RouterConfig::qspr(&tech);
/// assert!(qspr.turn_aware);
/// let quale = RouterConfig::quale(&tech);
/// assert!(!quale.turn_aware);
/// assert_eq!(quale.channel_capacity, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Model turn delays in path selection (the Fig. 5 enhancement).
    pub turn_aware: bool,
    /// Add a PathFinder-style history penalty to often-used channels
    /// (stands in for QUALE's negotiated-congestion router).
    pub history_cost: bool,
    /// Per-cell move delay.
    pub t_move: Time,
    /// Turn delay at a junction.
    pub t_turn: Time,
    /// Concurrent qubits allowed in one channel segment.
    pub channel_capacity: u8,
    /// Concurrent qubits allowed through one junction.
    pub junction_capacity: u8,
}

impl RouterConfig {
    /// The QSPR router: turn-aware, multiplexed channels (capacity from
    /// `tech`), pure Eq. 2 weights.
    pub fn qspr(tech: &TechParams) -> RouterConfig {
        RouterConfig {
            turn_aware: true,
            history_cost: false,
            t_move: tech.t_move,
            t_turn: tech.t_turn,
            channel_capacity: tech.channel_capacity,
            junction_capacity: tech.junction_capacity,
        }
    }

    /// The QUALE-era router: turn-blind (turns are still *executed* and
    /// charged by the simulator, just invisible to path selection),
    /// no channel multiplexing, PathFinder-style history costs.
    pub fn quale(tech: &TechParams) -> RouterConfig {
        RouterConfig {
            turn_aware: false,
            history_cost: true,
            t_move: tech.t_move,
            t_turn: tech.t_turn,
            channel_capacity: 1,
            junction_capacity: 1,
        }
    }

    /// `topology`'s empty-fabric bound table at this config's move and
    /// turn delays and search turn weight (its capacities and history
    /// setting do not matter: the bounds hold for all of them). Every
    /// router with these weights on the same fabric reads this table.
    ///
    /// # Examples
    ///
    /// ```
    /// use qspr_fabric::{Fabric, TechParams};
    /// use qspr_route::{ResourceState, Router, RouterConfig};
    ///
    /// let fabric = Fabric::quale_45x85();
    /// let topo = fabric.topology();
    /// let config = RouterConfig::qspr(&TechParams::date2012());
    /// let bounds = config.travel_bounds(topo);
    /// let traps = topo.traps_by_distance(fabric.center());
    /// let plan = Router::new(topo, config)
    ///     .route(&ResourceState::new(topo), traps[0], traps[40])
    ///     .unwrap();
    /// assert_eq!(bounds.min_duration(topo, traps[0], traps[40]), plan.duration());
    /// assert_eq!(bounds.goals_filled(), 1, "the router filled the shared table");
    /// ```
    pub fn travel_bounds(&self, topology: &Topology) -> Arc<TravelBounds> {
        topology.travel_bounds(self.t_move, self.t_turn, turn_weight(self))
    }

    /// `topology`'s quiet-route table at this config's move and turn
    /// delays and search turn weight, kept with
    /// [`RouterConfig::travel_bounds`]: every router with these weights
    /// on the same fabric, whatever its capacities (all at least 1) and
    /// history setting, reads and fills this table.
    ///
    /// # Examples
    ///
    /// ```
    /// use qspr_fabric::{Fabric, TechParams};
    /// use qspr_route::{ResourceState, Router, RouterConfig};
    ///
    /// let fabric = Fabric::quale_45x85();
    /// let topo = fabric.topology();
    /// let config = RouterConfig::qspr(&TechParams::date2012());
    /// let table = config.quiet_routes(topo);
    /// let traps = topo.traps_by_distance(fabric.center());
    /// let router = Router::new(topo, config);
    /// let quiet = ResourceState::new(topo);
    /// let searched = router.route(&quiet, traps[0], traps[40]).unwrap();
    /// assert_eq!(table.len(), 1, "the search filled the shared table");
    /// let reused = router.route(&quiet, traps[0], traps[40]).unwrap();
    /// assert_eq!(reused, searched);
    /// assert_eq!(table.len(), 1);
    /// ```
    pub fn quiet_routes(&self, topology: &Topology) -> Arc<QuietRoutes> {
        self.travel_bounds(topology).attached(QuietRoutes::default)
    }
}

/// The turn weight `config`'s router searches with.
fn turn_weight(config: &RouterConfig) -> Time {
    if config.turn_aware {
        config.t_turn
    } else {
        0
    }
}

const INF: u64 = u64::MAX;

/// Extra congestion context layered over a [`ResourceState`] for one
/// routing query, used by the negotiated-congestion engine
/// ([`crate::NegotiatedRouter`]): batch-internal bookings that are not
/// yet committed to the shared state, PathFinder present/history
/// penalty terms, and a *soft* mode in which over-capacity resources
/// become expensive instead of impassable (the rip-up-and-reroute
/// iterations need to see *how* contended a resource is, not just that
/// it is full).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Overlay<'o> {
    /// Per-segment usage added on top of the shared state.
    pub extra_segments: &'o [u8],
    /// Per-junction usage added on top of the shared state.
    pub extra_junctions: &'o [u8],
    /// When set, over-capacity resources cost a penalty per unit of
    /// overuse instead of blocking the path outright.
    pub soft: bool,
    /// Cost charged per unit of present overuse (soft mode only).
    pub pres_weight: u64,
    /// Per-segment history counters maintained by the engine across
    /// negotiation rounds (separate from the router's own
    /// `history_cost` table).
    pub history: &'o [u32],
    /// Cost charged per unit of history on a segment.
    pub hist_weight: u64,
}

/// How a Dijkstra node was reached, for path reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prev {
    Unreached,
    /// Entered the graph from the source port via source-segment end
    /// `end`.
    Start {
        end: usize,
    },
    /// Turned at the same junction, coming from node `from`.
    Turn {
        from: usize,
    },
    /// Traversed segment `seg` coming from node `from`.
    Seg {
        from: usize,
        seg: SegmentId,
    },
}

/// Reusable search arena: per-node distance/predecessor slots plus the
/// frontier heap, owned by the [`Router`] so the search allocates
/// nothing.
///
/// Slots are invalidated in O(1) per query by bumping a generation
/// counter instead of refilling the arrays: a slot whose stamp differs
/// from the current generation reads as unreached. Clearing therefore
/// costs O(nodes touched by the *previous* query), not O(all nodes).
#[derive(Debug, Clone)]
struct SearchScratch {
    /// Generation the slot arrays are valid for.
    generation: u32,
    /// Per-node generation stamp; a stale stamp means "unreached".
    stamp: Vec<u32>,
    dist: Vec<u64>,
    prev: Vec<Prev>,
    /// The Dijkstra frontier, kept allocated between queries.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl SearchScratch {
    fn new(n_nodes: usize) -> SearchScratch {
        SearchScratch {
            generation: 0,
            stamp: vec![0; n_nodes],
            dist: vec![INF; n_nodes],
            prev: vec![Prev::Unreached; n_nodes],
            heap: BinaryHeap::new(),
        }
    }

    /// Starts a fresh query: every slot reads as unreached again.
    fn begin(&mut self) {
        self.heap.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped after 2^32 queries: reset every stamp once.
            // Generation 0 is skipped (the counter restarts at 1), so a
            // 0 stamp can never read as current in any later era.
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    fn dist(&self, node: usize) -> u64 {
        if self.stamp[node] == self.generation {
            self.dist[node]
        } else {
            INF
        }
    }

    fn prev(&self, node: usize) -> Prev {
        if self.stamp[node] == self.generation {
            self.prev[node]
        } else {
            Prev::Unreached
        }
    }

    fn set(&mut self, node: usize, dist: u64, prev: Prev) {
        self.stamp[node] = self.generation;
        self.dist[node] = dist;
        self.prev[node] = prev;
    }
}

/// Reusable plan-assembly buffers, owned by the [`Router`] next to its
/// [`SearchScratch`]: a via route's node chain, and the cell steps and
/// resource exits of the plan being built. [`RoutePlan::from_steps`]
/// copies steps and exits out once, at exact length, so a routed query
/// allocates only the returned plan's two vectors.
#[derive(Debug, Clone, Default)]
struct PlanScratch {
    /// Search nodes from the seed to the goal, each with the segment
    /// that reached it (`None` for the seed and for turn edges).
    hops: Vec<(usize, Option<SegmentId>)>,
    steps: Vec<Step>,
    /// Each booked resource with the index of the step that releases it.
    exits: Vec<(Resource, usize)>,
}

/// Shortest-path router over a fabric topology.
///
/// See the crate docs for the cost model. `route` is a pure query; commit
/// a chosen plan with [`ResourceState::book`] on each of its resources and
/// tell the router via [`Router::note_booked`] (which feeds the optional
/// history term).
#[derive(Debug, Clone)]
pub struct Router<'a> {
    topology: &'a Topology,
    config: RouterConfig,
    history: Vec<u32>,
    /// Reusable search arena; `RefCell` because `route` is a pure query
    /// (`&self`) yet needs somewhere to run Dijkstra without
    /// allocating. Borrowed only for the duration of one search, never
    /// across calls, so the runtime check can't fail.
    scratch: RefCell<SearchScratch>,
    /// Reusable plan-assembly buffers; borrowed only while one plan is
    /// built, like `scratch`.
    plan: RefCell<PlanScratch>,
    /// The fabric's empty-fabric bounds at this router's weights
    /// ([`RouterConfig::travel_bounds`]), whose goal fields back the
    /// exact pruning in [`Router::route_with`].
    bounds: Arc<TravelBounds>,
    /// The fabric's quiet-route table at this router's weights
    /// ([`RouterConfig::quiet_routes`]); `None` when some capacity is 0,
    /// since a table's plans hold for every router sharing it only when
    /// every capacity is at least 1.
    quiet: Option<Arc<QuietRoutes>>,
    /// Queries answered from `quiet` (test builds only).
    #[cfg(test)]
    pub(crate) quiet_hits: std::cell::Cell<usize>,
}

impl<'a> Router<'a> {
    /// Creates a router for `topology` with the given policy.
    pub fn new(topology: &'a Topology, config: RouterConfig) -> Router<'a> {
        let bounds = config.travel_bounds(topology);
        let quiet = (config.channel_capacity > 0 && config.junction_capacity > 0)
            .then(|| bounds.attached(QuietRoutes::default));
        Router {
            topology,
            config,
            history: vec![0; topology.segments().len()],
            scratch: RefCell::new(SearchScratch::new(topology.search_graph().num_nodes())),
            plan: RefCell::default(),
            bounds,
            quiet,
            #[cfg(test)]
            quiet_hits: std::cell::Cell::new(0),
        }
    }

    /// The empty-fabric bound table this router prunes with.
    pub(crate) fn bounds(&self) -> &TravelBounds {
        &self.bounds
    }

    /// The capacity of `resource`: [`RouterConfig::channel_capacity`]
    /// for a segment, [`RouterConfig::junction_capacity`] for a junction.
    pub fn capacity(&self, resource: Resource) -> u8 {
        match resource {
            Resource::Segment(_) => self.config.channel_capacity,
            Resource::Junction(_) => self.config.junction_capacity,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The topology this router operates on.
    pub fn topology(&self) -> &'a Topology {
        self.topology
    }

    /// Finds the cheapest route from trap `from` to trap `to` under the
    /// current bookings in `state`, or `None` when every path is blocked
    /// by full channels/junctions (the instruction then waits in the busy
    /// queue).
    ///
    /// The answer is always the search's, but it may come from the
    /// fabric's quiet-route table ([`RouterConfig::quiet_routes`]) without
    /// a search: when the query's port segments hold at most one booking
    /// each and every other resource on the stored plan still reads its
    /// quiet-fabric weight, the search would return that plan again (see
    /// the crate docs, "Performance").
    pub fn route(&self, state: &ResourceState, from: TrapId, to: TrapId) -> Option<RoutePlan> {
        self.route_with(state, from, to, None)
    }

    /// [`Router::route`] with an optional congestion [`Overlay`] (the
    /// negotiated-congestion engine's window into the search). Only
    /// overlay-free queries use the quiet-route table.
    pub(crate) fn route_with(
        &self,
        state: &ResourceState,
        from: TrapId,
        to: TrapId,
        overlay: Option<&Overlay<'_>>,
    ) -> Option<RoutePlan> {
        if from == to {
            return Some(RoutePlan::stationary(from));
        }
        let keyed = match (&self.quiet, overlay) {
            (Some(table), None) => self.quiet_key(state, from, to).map(|key| (table, key)),
            _ => None,
        };
        let Some((table, key)) = keyed else {
            return self.search(state, from, to, overlay).0;
        };
        if let Some(stored) = table.get(key).filter(|p| self.reads_quiet(state, p)) {
            let plan = stored.clone();
            // Every hit must be what the search returns.
            #[cfg(test)]
            {
                assert_eq!(
                    Some(&plan),
                    self.search(state, from, to, None).0.as_ref(),
                    "quiet-route hit {from} -> {to}"
                );
                self.quiet_hits.set(self.quiet_hits.get() + 1);
            }
            return Some(plan);
        }
        let (plan, quiet) = self.search(state, from, to, None);
        if let (true, Some(plan)) = (quiet, &plan) {
            table.insert(key, plan);
        }
        plan
    }

    /// The quiet-route key of the query from `from` to `to`, or `None`
    /// when a port segment is full, holds more than one booking or has
    /// history: the table keys only port bookings of 0 and 1, and only
    /// history-free quiet fabrics.
    fn quiet_key(&self, state: &ResourceState, from: TrapId, to: TrapId) -> Option<QuietKey> {
        let port = |trap: TrapId| {
            let seg = self.topology.trap(trap).port().segment;
            let n = state.usage(Resource::Segment(seg));
            (n <= 1 && n < self.config.channel_capacity && !self.has_history(seg)).then_some(n)
        };
        Some(QuietKey::new(from, to, [port(from)?, port(to)?]))
    }

    /// Whether every resource on stored `plan` reads its quiet-fabric
    /// weight under `state`: each segment other than the two port
    /// segments (which the key matched) is unbooked and history-free,
    /// and each junction has room (its toll is 0 below capacity, as on
    /// the quiet fabric).
    fn reads_quiet(&self, state: &ResourceState, plan: &RoutePlan) -> bool {
        let topo = self.topology;
        let ports = [plan.from_trap(), plan.to_trap()].map(|t| topo.trap(t).port().segment);
        plan.resources().iter().all(|u| match u.resource {
            Resource::Segment(s) => {
                ports.contains(&s) || (state.usage(u.resource) == 0 && !self.has_history(s))
            }
            Resource::Junction(_) => state.usage(u.resource) < self.config.junction_capacity,
        })
    }

    /// Whether `seg` carries a history penalty in this router's weights.
    fn has_history(&self, seg: SegmentId) -> bool {
        self.config.history_cost && self.history[seg.index()] > 0
    }

    /// The search behind [`Router::route_with`], and whether it read
    /// only *quiet-fabric weights*: the weights of the fabric where the
    /// two port segments hold their current bookings, nothing else is
    /// booked and no segment has history. Such a search returns exactly
    /// what it returns on that quiet fabric, since it is a function of
    /// the weights it reads (the goal fields do not depend on the
    /// state).
    fn search(
        &self,
        state: &ResourceState,
        from: TrapId,
        to: TrapId,
        overlay: Option<&Overlay<'_>>,
    ) -> (Option<RoutePlan>, bool) {
        let topo = self.topology;
        let graph = topo.search_graph();
        let pf = topo.trap(from).port();
        let pt = topo.trap(to).port();
        let t_move = self.config.t_move;

        // Candidate: direct travel within a shared segment.
        let mut best_direct: Option<u64> = None;
        if pf.segment == pt.segment {
            let moves = u32::from(pf.offset.abs_diff(pt.offset));
            if let Some(w) = self.segment_weight(state, pf.segment, moves, overlay) {
                best_direct = Some(2 * t_move + w);
            }
        }

        // Every route must traverse the source and target segments;
        // when either is full (hard mode only — soft weights never
        // block), no route exists and the search is skipped outright.
        // The seed search reached the same answer by exhausting the
        // whole graph first.
        if self.segment_weight(state, pf.segment, 0, overlay).is_none()
            || self.segment_weight(state, pt.segment, 0, overlay).is_none()
        {
            return (None, false);
        }

        // `quiet` turns false at the first weight read that differs from
        // the quiet fabric's: a full resource (every capacity is at least
        // 1, so nothing is full on the quiet fabric), or a booked or
        // historic segment other than the two port segments. A junction
        // with room reads a toll of 0 whatever its bookings.
        let mut quiet = true;

        // Goal nodes: the junction-attached ends of the target segment,
        // each with `entry`, the cost of the final leg from that end into
        // the target trap (what the candidate loop below adds to the
        // goal's distance). Every via route enters through a goal. A
        // dead end contributes no goal; neither does a *full* end
        // junction — every way into a junction's node pair is
        // toll-checked, so a full junction's distance provably stays
        // infinite and waiting for it would degenerate into graph
        // exhaustion. With no goals at all, no via route exists. The
        // target segment passed the fullness check above, so its
        // weight is always defined here.
        let dst_seg = topo.segment(pt.segment);
        let goals: [Option<(usize, u64)>; 2] = [0, 1].map(|end| {
            let j = dst_seg.ends()[end].junction()?;
            if self.junction_toll(state, j, overlay).is_none() {
                quiet = false;
                return None;
            }
            let moves = dst_seg.moves_to_end(pt.offset, end);
            let w = self.segment_weight(state, pt.segment, moves, overlay)?;
            Some((
                SearchGraph::node(j, dst_seg.orientation()),
                w.saturating_add(t_move),
            ))
        });
        let Some(min_entry) = goals.iter().flatten().map(|&(_, entry)| entry).min() else {
            return (best_direct.map(|c| self.build_direct(from, to, c)), quiet);
        };

        // Goal-directed Dijkstra over the precomputed search graph,
        // running in the reusable scratch arena (no allocation).
        let h = self.bounds.goal_field(topo, pt.segment);
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        scratch.begin();

        let src_seg = topo.segment(pf.segment);
        for end in 0..2 {
            let SegmentEnd::Junction(j) = src_seg.ends()[end] else {
                continue;
            };
            let Some(toll) = self.junction_toll(state, j, overlay) else {
                quiet = false;
                continue;
            };
            let moves = src_seg.moves_to_end(pf.offset, end);
            let Some(w) = self.segment_weight(state, pf.segment, moves, overlay) else {
                continue;
            };
            let node = SearchGraph::node(j, src_seg.orientation());
            let cost = (t_move + w).saturating_add(toll);
            if cost < scratch.dist(node) {
                scratch.set(node, cost, Prev::Start { end });
                scratch.heap.push(Reverse((cost, node)));
            }
        }

        let turn_weight = turn_weight(&self.config);
        while let Some(Reverse((cost, node))) = scratch.heap.pop() {
            if cost > scratch.dist(node) {
                continue;
            }
            // `best` (C*) is the cheapest complete via candidate found
            // so far. Goal distances only decrease, so C* is an upper
            // bound on the final via cost, and a lower bound `c` on a
            // complete candidate is `beaten` when it exceeds C* or
            // reaches the direct candidate's cost. The tests are
            // deliberately asymmetric: a via candidate that only *ties*
            // C* can still win (end 0 beats end 1 on ties), whereas a
            // tie with the direct candidate loses the `cd <= cv`
            // tie-break below.
            let best = goals
                .iter()
                .flatten()
                .map(|&(g, entry)| scratch.dist(g).saturating_add(entry))
                .min()
                .unwrap_or(INF);
            let beaten = |c: u64| c > best || best_direct.is_some_and(|bd| c >= bd);
            // Early exit: every goal is settled (distance <= the
            // frontier cost, so final) or hopeless (an unsettled goal's
            // final distance is >= the frontier cost, so its candidate
            // is at least `cost + entry`, which is beaten). The winning
            // goal is never hopeless while unsettled: its final
            // candidate is <= C* and < the direct cost, which would
            // need `cost` above its final distance. So the winner is
            // settled with its final distance and predecessor, and
            // every other goal's candidate can only lose to it, as in a
            // run-to-exhaustion search. This also covers the frontier
            // reaching the direct candidate's cost.
            if goals
                .iter()
                .flatten()
                .all(|&(g, entry)| scratch.dist(g) <= cost || beaten(cost.saturating_add(entry)))
            {
                break;
            }
            // Exact lower-bound prune: `h[n]` underestimates the
            // remaining cost from `n` to the goal nodes under every
            // overlay and `min_entry` the final leg, so `f + min_entry`
            // (with `f = dist + h[n]`) lower-bounds every complete
            // candidate through `n`. Every node on the winning
            // predecessor chain has `g + h + entry <= C_final <= C*`,
            // where `C_final` is the returned via candidate's cost (and
            // `C_final < cd` when the via route wins), so a relaxation
            // whose bound is `beaten` can never sit on the returned
            // plan's chain, and the strict `> C*` keeps chains of
            // tying candidates alive. Skipping it leaves the output
            // bytes identical to the unpruned search (the `route_naive`
            // equivalence proptests pin this) while stopping the
            // frontier at the cheapest complete candidate instead of
            // sweeping out to an expensive (e.g. over-capacity) goal.
            let prune = |f: u64| beaten(f.saturating_add(min_entry));
            if prune(cost.saturating_add(h[node])) {
                continue;
            }
            // Turn edge within the junction.
            let turn_node = SearchGraph::turn_of(node);
            let turn_cost = cost.saturating_add(turn_weight);
            if turn_cost < scratch.dist(turn_node) && !prune(turn_cost.saturating_add(h[turn_node]))
            {
                scratch.set(turn_node, turn_cost, Prev::Turn { from: node });
                scratch.heap.push(Reverse((turn_cost, turn_node)));
            }
            // Precomputed segment edges along the current orientation.
            for edge in graph.edges(node) {
                let Some(toll2) = self.junction_toll(state, edge.to_junction, overlay) else {
                    quiet = false;
                    continue;
                };
                let Some(w) = self.segment_weight(state, edge.segment, edge.moves, overlay) else {
                    quiet = false;
                    continue;
                };
                if w != u64::from(edge.moves) * t_move
                    && edge.segment != pf.segment
                    && edge.segment != pt.segment
                {
                    quiet = false;
                }
                let next = edge.to_node as usize;
                let next_cost = cost.saturating_add(w).saturating_add(toll2);
                if next_cost < scratch.dist(next) && !prune(next_cost.saturating_add(h[next])) {
                    scratch.set(
                        next,
                        next_cost,
                        Prev::Seg {
                            from: node,
                            seg: edge.segment,
                        },
                    );
                    scratch.heap.push(Reverse((next_cost, next)));
                }
            }
        }

        // Final candidates: enter the target segment from either end.
        let mut best_via: Option<(u64, usize, usize)> = None; // (cost, node, entry end)
        for (end, goal) in goals.iter().enumerate() {
            let Some((node, entry)) = *goal else {
                continue;
            };
            let d = scratch.dist(node);
            if d == INF {
                continue;
            }
            let cost = d.saturating_add(entry);
            if best_via.map_or(true, |(c, _, _)| cost < c) {
                best_via = Some((cost, node, end));
            }
        }

        let plan = match (best_direct, best_via) {
            (None, None) => None,
            (Some(c), None) => Some(self.build_direct(from, to, c)),
            (Some(cd), Some((cv, _, _))) if cd <= cv => Some(self.build_direct(from, to, cd)),
            (_, Some((cv, node, end))) => {
                Some(self.build_via(from, to, |n| scratch.prev(n), node, end, cv))
            }
        };
        (plan, quiet)
    }

    /// The seed implementation of [`Router::route_with`], kept verbatim
    /// as the reference for the search-equivalence property tests: a
    /// freshly allocated, run-to-exhaustion Dijkstra with the per-pop
    /// incidence scan. The arena-backed, goal-directed search must
    /// return byte-identical plans.
    #[cfg(test)]
    pub(crate) fn route_naive(
        &self,
        state: &ResourceState,
        from: TrapId,
        to: TrapId,
        overlay: Option<&Overlay<'_>>,
    ) -> Option<RoutePlan> {
        if from == to {
            return Some(RoutePlan::stationary(from));
        }
        let topo = self.topology;
        let pf = topo.trap(from).port();
        let pt = topo.trap(to).port();
        let t_move = self.config.t_move;

        let mut best_direct: Option<u64> = None;
        if pf.segment == pt.segment {
            let moves = u32::from(pf.offset.abs_diff(pt.offset));
            if let Some(w) = self.segment_weight(state, pf.segment, moves, overlay) {
                best_direct = Some(2 * t_move + w);
            }
        }

        // Dijkstra over (junction, orientation) nodes.
        let n_nodes = topo.junctions().len() * 2;
        let mut dist = vec![INF; n_nodes];
        let mut prev = vec![Prev::Unreached; n_nodes];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();

        let src_seg = topo.segment(pf.segment);
        for end in 0..2 {
            let SegmentEnd::Junction(j) = src_seg.ends()[end] else {
                continue;
            };
            let Some(toll) = self.junction_toll(state, j, overlay) else {
                continue;
            };
            let moves = src_seg.moves_to_end(pf.offset, end);
            let Some(w) = self.segment_weight(state, pf.segment, moves, overlay) else {
                continue;
            };
            let node = SearchGraph::node(j, src_seg.orientation());
            let cost = (t_move + w).saturating_add(toll);
            if cost < dist[node] {
                dist[node] = cost;
                prev[node] = Prev::Start { end };
                heap.push(Reverse((cost, node)));
            }
        }

        let turn_weight = turn_weight(&self.config);
        while let Some(Reverse((cost, node))) = heap.pop() {
            if cost > dist[node] {
                continue;
            }
            let (j, orient) = SearchGraph::parts(node);
            let turn_node = SearchGraph::node(j, orient.perpendicular());
            let turn_cost = cost.saturating_add(turn_weight);
            if turn_cost < dist[turn_node] {
                dist[turn_node] = turn_cost;
                prev[turn_node] = Prev::Turn { from: node };
                heap.push(Reverse((turn_cost, turn_node)));
            }
            let junction = topo.junction(j);
            for (_, seg_id) in junction.incident_segments() {
                let seg = topo.segment(seg_id);
                if seg.orientation() != orient {
                    continue;
                }
                let Some(my_end) = seg.end_attached_to(j) else {
                    continue;
                };
                let SegmentEnd::Junction(j2) = seg.ends()[1 - my_end] else {
                    continue;
                };
                if j2 == j {
                    continue;
                }
                let Some(toll2) = self.junction_toll(state, j2, overlay) else {
                    continue;
                };
                let moves = u32::from(seg.len()) + 1;
                let Some(w) = self.segment_weight(state, seg_id, moves, overlay) else {
                    continue;
                };
                let next = SearchGraph::node(j2, orient);
                let next_cost = cost.saturating_add(w).saturating_add(toll2);
                if next_cost < dist[next] {
                    dist[next] = next_cost;
                    prev[next] = Prev::Seg {
                        from: node,
                        seg: seg_id,
                    };
                    heap.push(Reverse((next_cost, next)));
                }
            }
        }

        let dst_seg = topo.segment(pt.segment);
        let mut best_via: Option<(u64, usize, usize)> = None;
        for end in 0..2 {
            let SegmentEnd::Junction(j) = dst_seg.ends()[end] else {
                continue;
            };
            let node = SearchGraph::node(j, dst_seg.orientation());
            if dist[node] == INF {
                continue;
            }
            let moves = dst_seg.moves_to_end(pt.offset, end);
            let Some(w) = self.segment_weight(state, pt.segment, moves, overlay) else {
                continue;
            };
            let cost = dist[node].saturating_add(w).saturating_add(t_move);
            if best_via.map_or(true, |(c, _, _)| cost < c) {
                best_via = Some((cost, node, end));
            }
        }

        match (best_direct, best_via) {
            (None, None) => None,
            (Some(c), None) => Some(self.build_direct(from, to, c)),
            (Some(cd), Some((cv, _, _))) if cd <= cv => Some(self.build_direct(from, to, cd)),
            (_, Some((cv, node, end))) => {
                Some(self.build_via(from, to, |n| prev[n], node, end, cv))
            }
        }
    }

    /// The via plan that follows `walk`, a node-simple path over the
    /// search graph from an end node of `from`'s segment to an end node
    /// of `to`'s segment: any such path, not only a cheapest one, so the
    /// plan-builder property tests can drive [`Router::build_via`]
    /// through routes that leave and re-enter a segment or a junction.
    #[cfg(test)]
    pub(crate) fn build_walk(&self, from: TrapId, to: TrapId, walk: &[usize]) -> RoutePlan {
        let topo = self.topology;
        let graph = topo.search_graph();
        let end_of = |trap: TrapId, node: usize| {
            let seg = topo.segment(topo.trap(trap).port().segment);
            let (j, orientation) = SearchGraph::parts(node);
            assert_eq!(
                orientation,
                seg.orientation(),
                "walk ends off the segment's axis"
            );
            seg.end_attached_to(j)
                .expect("walk ends at the segment's junction")
        };
        let start = Prev::Start {
            end: end_of(from, walk[0]),
        };
        let prev_of = |node: usize| {
            let i = walk
                .iter()
                .position(|&n| n == node)
                .expect("node on the walk");
            let Some(i) = i.checked_sub(1) else {
                return start;
            };
            let from = walk[i];
            if SearchGraph::turn_of(from) == node {
                return Prev::Turn { from };
            }
            let edge = graph
                .edges(from)
                .iter()
                .find(|e| e.to_node as usize == node);
            Prev::Seg {
                from,
                seg: edge.expect("consecutive walk nodes share an edge").segment,
            }
        };
        let last = walk[walk.len() - 1];
        self.build_via(from, to, prev_of, last, end_of(to, last), 0)
    }

    /// Feeds the PathFinder-style history term after a plan is committed.
    /// A no-op unless `history_cost` is enabled.
    pub fn note_booked(&mut self, plan: &RoutePlan) {
        if !self.config.history_cost {
            return;
        }
        for usage in plan.resources() {
            if let Resource::Segment(s) = usage.resource {
                self.history[s.index()] += 1;
            }
        }
    }

    /// Accumulated history count for a segment (testing/diagnostics).
    pub fn history(&self, seg: SegmentId) -> u32 {
        self.history[seg.index()]
    }

    fn segment_weight(
        &self,
        state: &ResourceState,
        seg: SegmentId,
        moves: u32,
        overlay: Option<&Overlay<'_>>,
    ) -> Option<u64> {
        let mut n = state.usage(Resource::Segment(seg));
        if let Some(ov) = overlay {
            n = n.saturating_add(ov.extra_segments[seg.index()]);
        }
        let cap = self.config.channel_capacity;
        let soft = overlay.is_some_and(|ov| ov.soft);
        if n >= cap && !soft {
            return None;
        }
        // Hard mode keeps the paper's Eq. 2 congestion-spreading weight.
        // Soft (negotiation) mode is latency-true PathFinder instead:
        // sharing below capacity is physically free in this fabric
        // model, so the base cost is plain travel time and only
        // *overuse* is priced.
        let mut w = if soft {
            u64::from(moves) * self.config.t_move
        } else {
            u64::from(n + 1) * u64::from(moves) * self.config.t_move
        };
        if n >= cap {
            let overuse = u64::from(n + 1 - cap);
            let ov = overlay.expect("soft mode implies an overlay");
            w = w.saturating_add(overuse.saturating_mul(ov.pres_weight));
        }
        if self.config.history_cost {
            w += u64::from(self.history[seg.index()]) * self.config.t_move;
        }
        if let Some(ov) = overlay {
            let h = u64::from(ov.history[seg.index()]);
            w = w.saturating_add(h.saturating_mul(ov.hist_weight));
        }
        Some(w)
    }

    /// The extra cost of passing through junction `j`: `Some(0)` when it
    /// has spare capacity, `None` when full (hard mode), or a present-
    /// congestion penalty when full in soft mode.
    fn junction_toll(
        &self,
        state: &ResourceState,
        j: JunctionId,
        overlay: Option<&Overlay<'_>>,
    ) -> Option<u64> {
        let mut n = state.usage(Resource::Junction(j));
        if let Some(ov) = overlay {
            n = n.saturating_add(ov.extra_junctions[j.index()]);
        }
        let cap = self.config.junction_capacity;
        if n < cap {
            return Some(0);
        }
        match overlay {
            Some(ov) if ov.soft => {
                let overuse = u64::from(n + 1 - cap);
                Some(overuse.saturating_mul(ov.pres_weight))
            }
            _ => None,
        }
    }

    /// Builds the plan for a same-segment route.
    fn build_direct(&self, from: TrapId, to: TrapId, est_cost: u64) -> RoutePlan {
        let topo = self.topology;
        let pf = topo.trap(from).port();
        let pt = topo.trap(to).port();
        let seg = topo.segment(pf.segment);
        let steps = &mut self.plan.borrow_mut().steps;
        steps.clear();
        steps.push(Step::Move { to: pf.coord });
        push_segment_moves(steps, seg, pf.offset, pt.offset);
        steps.push(Step::Move {
            to: topo.trap(to).coord(),
        });
        let exit = [(Resource::Segment(pf.segment), steps.len() - 1)];
        RoutePlan::from_steps(
            from,
            to,
            steps,
            &exit,
            self.config.t_move,
            self.config.t_turn,
            est_cost,
        )
    }

    /// Builds the plan for a junction-mediated route ending at `node`,
    /// entering the target segment from its end `entry_end`. The
    /// predecessor relation is read through `prev_of` so both the
    /// arena-backed and the naive reference search share one
    /// reconstruction.
    fn build_via(
        &self,
        from: TrapId,
        to: TrapId,
        prev_of: impl Fn(usize) -> Prev,
        node: usize,
        entry_end: usize,
        est_cost: u64,
    ) -> RoutePlan {
        let topo = self.topology;
        let pf = topo.trap(from).port();
        let pt = topo.trap(to).port();

        let mut plan = self.plan.borrow_mut();
        let PlanScratch { hops, steps, exits } = &mut *plan;
        hops.clear();
        steps.clear();
        exits.clear();

        // Reconstruct the node path source → node.
        let mut cur = node;
        let start_end = loop {
            match prev_of(cur) {
                Prev::Start { end } => break end,
                Prev::Turn { from } => {
                    hops.push((cur, None));
                    cur = from;
                }
                Prev::Seg { from, seg } => {
                    hops.push((cur, Some(seg)));
                    cur = from;
                }
                Prev::Unreached => unreachable!("candidate node must be reached"),
            }
        };
        hops.push((cur, None)); // The seed node itself (marker only).
        hops.reverse();

        steps.push(Step::Move { to: pf.coord });

        // Leg 0: source port to the first junction.
        let src_seg = topo.segment(pf.segment);
        let (first_node, _) = hops[0];
        let (first_j, _) = SearchGraph::parts(first_node);
        {
            let end_offset = segment_end_offset(src_seg, start_end);
            push_segment_moves(steps, src_seg, pf.offset, end_offset);
            steps.push(Step::Move {
                to: topo.junction(first_j).coord(),
            });
            exits.push((Resource::Segment(pf.segment), steps.len() - 1));
        }

        // Middle transitions.
        let mut current_j = first_j;
        for window in hops.windows(2) {
            let (a, _) = window[0];
            let (b, via) = window[1];
            let (ja, _) = SearchGraph::parts(a);
            let (jb, _) = SearchGraph::parts(b);
            match via {
                None => {
                    // Turn edge at the same junction.
                    debug_assert_eq!(ja, jb);
                    steps.push(Step::Turn {
                        at: topo.junction(ja).coord(),
                    });
                }
                Some(seg_id) => {
                    let seg = topo.segment(seg_id);
                    let enter_end = seg
                        .end_attached_to(ja)
                        .expect("edge segment attaches to its source junction");
                    let enter_off = segment_end_offset(seg, enter_end);
                    let exit_off = segment_end_offset(seg, 1 - enter_end);
                    // Stepping off the junction releases it.
                    steps.push(Step::Move {
                        to: seg.cell_at(enter_off),
                    });
                    exits.push((Resource::Junction(ja), steps.len() - 1));
                    push_segment_moves(steps, seg, enter_off, exit_off);
                    steps.push(Step::Move {
                        to: topo.junction(jb).coord(),
                    });
                    exits.push((Resource::Segment(seg_id), steps.len() - 1));
                    current_j = jb;
                }
            }
        }

        // Final leg: off the last junction into the target segment.
        let dst_seg = topo.segment(pt.segment);
        {
            let enter_off = segment_end_offset(dst_seg, entry_end);
            steps.push(Step::Move {
                to: dst_seg.cell_at(enter_off),
            });
            exits.push((Resource::Junction(current_j), steps.len() - 1));
            push_segment_moves(steps, dst_seg, enter_off, pt.offset);
            steps.push(Step::Move {
                to: topo.trap(to).coord(),
            });
            exits.push((Resource::Segment(pt.segment), steps.len() - 1));
        }

        // A route that leaves and re-enters the same segment books it once,
        // releasing at the later exit. Each step releases at most one
        // resource, so the keys are distinct and the in-place unstable
        // sorts order exactly as stable ones would.
        exits.sort_unstable_by_key(|(r, idx)| (*r, *idx));
        exits.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = earlier.1.max(later.1);
                true
            } else {
                false
            }
        });
        exits.sort_unstable_by_key(|(_, idx)| *idx);

        RoutePlan::from_steps(
            from,
            to,
            steps,
            exits,
            self.config.t_move,
            self.config.t_turn,
            est_cost,
        )
    }
}

/// The offset of the segment cell adjacent to end `end`.
fn segment_end_offset(seg: &Segment, end: usize) -> u16 {
    match end {
        0 => 0,
        _ => seg.len() - 1,
    }
}

/// Pushes one `Move` per cell strictly between `from` and `to` offsets,
/// plus the arrival at `to` (nothing when `from == to`).
fn push_segment_moves(steps: &mut Vec<Step>, seg: &Segment, from: u16, to: u16) {
    if from == to {
        return;
    }
    if from < to {
        for o in (from + 1)..=to {
            steps.push(Step::Move { to: seg.cell_at(o) });
        }
    } else {
        for o in (to..from).rev() {
            steps.push(Step::Move { to: seg.cell_at(o) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qspr_fabric::{Coord, Fabric};

    fn quale_fabric() -> Fabric {
        Fabric::quale_45x85()
    }

    fn qspr_router(topo: &Topology) -> Router<'_> {
        Router::new(topo, RouterConfig::qspr(&TechParams::date2012()))
    }

    /// Steps must form a contiguous cell path starting next to the source
    /// trap and ending inside the target trap.
    fn assert_contiguous(topo: &Topology, plan: &RoutePlan) {
        let mut pos = topo.trap(plan.from_trap()).coord();
        for step in plan.steps() {
            match step {
                Step::Move { to } => {
                    assert_eq!(pos.manhattan(*to), 1, "teleport from {pos} to {to}");
                    pos = *to;
                }
                Step::Turn { at } => assert_eq!(pos, *at, "turn away from position"),
            }
        }
        assert_eq!(pos, topo.trap(plan.to_trap()).coord());
    }

    #[test]
    fn routes_across_the_quale_fabric() {
        let f = quale_fabric();
        let topo = f.topology();
        let router = qspr_router(topo);
        let state = ResourceState::new(topo);
        let order = topo.traps_by_distance(Coord::new(0, 0));
        let (a, b) = (order[0], *order.last().unwrap());
        let plan = router.route(&state, a, b).expect("quiet fabric routes");
        assert_contiguous(topo, &plan);
        assert!(plan.turns() >= 1, "corner-to-corner needs a turn");
        // On a quiet fabric the est. cost equals the physical duration.
        assert_eq!(plan.est_cost(), plan.duration());
    }

    #[test]
    fn stationary_route() {
        let f = quale_fabric();
        let topo = f.topology();
        let router = qspr_router(topo);
        let state = ResourceState::new(topo);
        let t = topo.traps_by_distance(f.center())[0];
        let plan = router.route(&state, t, t).unwrap();
        assert!(plan.is_stationary());
    }

    #[test]
    fn same_segment_route_is_direct() {
        // Two traps whose ports share one segment.
        let f = Fabric::from_ascii(
            "+---+\n\
             |...|\n\
             |T.T|\n\
             +---+\n",
        )
        .unwrap();
        let topo = f.topology();
        // Both traps port onto the vertical segments? Check ports: trap
        // (2,1): N (1,1) empty? no: (1,1) is '.', W (2,0) is '|'. So port
        // on the V segment of column 0; trap (2,3): E (2,4) '|'.
        let router = qspr_router(topo);
        let state = ResourceState::new(topo);
        let a = topo.trap_at(Coord::new(2, 1)).unwrap();
        let b = topo.trap_at(Coord::new(2, 3)).unwrap();
        let plan = router.route(&state, a, b).expect("routable");
        assert_contiguous(topo, &plan);
    }

    #[test]
    fn adjacent_traps_sharing_port_cost_two_moves() {
        let f = Fabric::from_ascii(
            ".T.\n\
             +-+\n\
             .T.\n",
        )
        .unwrap();
        let topo = f.topology();
        let router = qspr_router(topo);
        let state = ResourceState::new(topo);
        let a = topo.trap_at(Coord::new(0, 1)).unwrap();
        let b = topo.trap_at(Coord::new(2, 1)).unwrap();
        let plan = router.route(&state, a, b).unwrap();
        assert_eq!(plan.moves(), 2);
        assert_eq!(plan.turns(), 0);
        assert_contiguous(topo, &plan);
    }

    #[test]
    fn full_channel_blocks_routing() {
        let f = Fabric::from_ascii(
            ".T.\n\
             +-+\n\
             .T.\n",
        )
        .unwrap();
        let topo = f.topology();
        let tech = TechParams::date2012();
        let router = Router::new(
            topo,
            RouterConfig {
                channel_capacity: 1,
                ..RouterConfig::qspr(&tech)
            },
        );
        let mut state = ResourceState::new(topo);
        let a = topo.trap_at(Coord::new(0, 1)).unwrap();
        let b = topo.trap_at(Coord::new(2, 1)).unwrap();
        let plan = router.route(&state, a, b).unwrap();
        for usage in plan.resources() {
            state.book(usage.resource).unwrap();
        }
        assert!(router.route(&state, a, b).is_none(), "channel is full");
        for usage in plan.resources() {
            state.release(usage.resource);
        }
        assert!(router.route(&state, a, b).is_some(), "released again");
    }

    #[test]
    fn capacity_two_admits_a_second_qubit() {
        let f = quale_fabric();
        let topo = f.topology();
        let router = qspr_router(topo);
        let mut state = ResourceState::new(topo);
        let order = topo.traps_by_distance(f.center());
        let (a, b) = (order[0], order[30]);
        let p1 = router.route(&state, a, b).unwrap();
        for u in p1.resources() {
            state.book(u.resource).unwrap();
        }
        let p2 = router.route(&state, a, b).unwrap();
        // Second route sees (n+1) = 2 weights, so it is at least as costly.
        assert!(p2.est_cost() >= p1.est_cost());
    }

    #[test]
    fn turn_aware_router_prefers_fewer_turns() {
        // A 3x3 junction grid: corner-to-corner admits many equal-length
        // monotone paths; only the two L-shaped ones have a single turn.
        let f = RegularishGrid::build();
        let topo = f.topology();
        let tech = TechParams::date2012();
        let state = ResourceState::new(topo);

        let aware = Router::new(topo, RouterConfig::qspr(&tech));
        let a = topo.trap_at(RegularishGrid::SRC).unwrap();
        let b = topo.trap_at(RegularishGrid::DST).unwrap();
        let plan_aware = aware.route(&state, a, b).unwrap();
        assert_contiguous(topo, &plan_aware);

        let blind = Router::new(
            topo,
            RouterConfig {
                turn_aware: false,
                history_cost: false,
                channel_capacity: 2,
                junction_capacity: 2,
                ..RouterConfig::quale(&tech)
            },
        );
        let plan_blind = blind.route(&state, a, b).unwrap();
        assert_contiguous(topo, &plan_blind);

        // Both routers find minimal-move paths, but only the turn-aware
        // one is guaranteed to take a minimal-turn path. Every trap in the
        // regular grid ports onto a horizontal row, so the minimum is two
        // turns (H → V → H).
        assert_eq!(plan_aware.moves(), plan_blind.moves());
        assert_eq!(plan_aware.turns(), 2, "L-path has exactly two turns");
        assert!(plan_aware.turns() <= plan_blind.turns());
        assert!(plan_aware.duration() <= plan_blind.duration());
    }

    /// Helper: 9×9 pitch-4 grid with source bottom-left, target top-right.
    struct RegularishGrid;

    impl RegularishGrid {
        const SRC: Coord = Coord { row: 7, col: 1 };
        const DST: Coord = Coord { row: 1, col: 7 };

        fn build() -> Fabric {
            Fabric::regular(9, 9, 4).expect("valid grid")
        }
    }

    #[test]
    fn fig5_turn_blind_router_pays_for_its_turns() {
        let f = Fabric::from_ascii(crate::FIG5_DEMO_FABRIC).unwrap();
        let topo = f.topology();
        let tech = TechParams::date2012();
        let state = ResourceState::new(topo);
        let s = topo.trap_at(Coord::new(7, 4)).unwrap();
        let t = topo.trap_at(Coord::new(1, 6)).unwrap();

        let aware = Router::new(topo, RouterConfig::qspr(&tech));
        let plan_aware = aware.route(&state, s, t).unwrap();
        assert_contiguous(topo, &plan_aware);
        assert_eq!((plan_aware.moves(), plan_aware.turns()), (20, 2), "ring");
        assert_eq!(plan_aware.duration(), 40);

        let mut blind_cfg = RouterConfig::qspr(&tech);
        blind_cfg.turn_aware = false;
        let blind = Router::new(topo, blind_cfg);
        let plan_blind = blind.route(&state, s, t).unwrap();
        assert_contiguous(topo, &plan_blind);
        assert_eq!(
            (plan_blind.moves(), plan_blind.turns()),
            (18, 8),
            "staircase"
        );
        assert_eq!(plan_blind.duration(), 98);

        // The blind router believed it chose the cheaper path.
        assert!(plan_blind.est_cost() < plan_aware.est_cost() + tech.t_turn * 2);
        // Physically, it is 2.45x slower.
        assert!(plan_blind.duration() > 2 * plan_aware.duration());
    }

    #[test]
    fn resource_exit_offsets_are_monotone_and_bounded() {
        let f = quale_fabric();
        let topo = f.topology();
        let router = qspr_router(topo);
        let state = ResourceState::new(topo);
        let order = topo.traps_by_distance(Coord::new(0, 0));
        let plan = router
            .route(&state, order[0], order[order.len() / 2])
            .unwrap();
        let mut last = 0;
        for u in plan.resources() {
            assert!(u.exit_offset >= last);
            assert!(u.exit_offset <= plan.duration());
            last = u.exit_offset;
        }
        // Resources are unique after dedup.
        let mut rs: Vec<_> = plan.resources().iter().map(|u| u.resource).collect();
        rs.sort();
        rs.dedup();
        assert_eq!(rs.len(), plan.resources().len());
    }

    #[test]
    fn history_cost_shifts_routes() {
        let f = quale_fabric();
        let topo = f.topology();
        let tech = TechParams::date2012();
        let mut router = Router::new(
            topo,
            RouterConfig {
                history_cost: true,
                ..RouterConfig::qspr(&tech)
            },
        );
        let state = ResourceState::new(topo);
        let order = topo.traps_by_distance(f.center());
        let (a, b) = (order[0], order[60]);
        let p1 = router.route(&state, a, b).unwrap();
        router.note_booked(&p1);
        let seg = p1
            .resources()
            .iter()
            .find_map(|u| match u.resource {
                Resource::Segment(s) => Some(s),
                _ => None,
            })
            .unwrap();
        assert_eq!(router.history(seg), 1);
        let p2 = router.route(&state, a, b).unwrap();
        assert!(p2.est_cost() >= p1.est_cost());
    }

    /// The early exit must not drop a goal whose candidate only *ties*
    /// the best one found so far: end 0 wins ties. On this ring, with
    /// turns free (turn-blind), the source reaches the target segment's
    /// end 1 junction first (distance 6, entry 6) and its end 0
    /// junction later (distance 8, entry 4) through a zero-cost turn
    /// at that junction. Both candidates cost exactly 12, and end 0's
    /// goal node only gets its distance when the node before the turn
    /// is expanded, at a frontier cost where `cost + entry` equals the
    /// best candidate.
    #[test]
    fn tying_goal_end_zero_still_wins_after_end_one_settles() {
        let f = Fabric::from_ascii(
            ".....T...\n\
             +-------+\n\
             |.......|\n\
             +-------+\n\
             ...T.....\n",
        )
        .unwrap();
        let topo = f.topology();
        let tech = TechParams::date2012();
        let router = Router::new(
            topo,
            RouterConfig {
                turn_aware: false,
                ..RouterConfig::qspr(&tech)
            },
        );
        let state = ResourceState::new(topo);
        let a = topo.trap_at(Coord::new(0, 5)).unwrap();
        let b = topo.trap_at(Coord::new(4, 3)).unwrap();
        let dst = topo.segment(topo.trap(b).port().segment);
        let end_coord = |end: usize| topo.junction(dst.ends()[end].junction().unwrap()).coord();
        assert_eq!(
            (end_coord(0), end_coord(1)),
            (Coord::new(3, 0), Coord::new(3, 8))
        );

        let plan = router.route(&state, a, b).expect("ring routes");
        assert_eq!(Some(&plan), router.route_naive(&state, a, b, None).as_ref());
        assert_eq!(plan.est_cost(), 12);
        let visits = |c: Coord| plan.steps().contains(&Step::Move { to: c });
        assert!(visits(end_coord(0)), "enters through end 0");
        assert!(!visits(end_coord(1)), "never touches end 1");
        assert_contiguous(topo, &plan);
    }

    #[test]
    fn unreachable_target_returns_none() {
        // Two disconnected islands.
        let f = Fabric::from_ascii(
            ".T....T.\n\
             +-+..+-+\n",
        )
        .unwrap();
        let topo = f.topology();
        let router = qspr_router(topo);
        let state = ResourceState::new(topo);
        let a = topo.trap_at(Coord::new(0, 1)).unwrap();
        let b = topo.trap_at(Coord::new(0, 6)).unwrap();
        assert!(router.route(&state, a, b).is_none());
    }

    /// A router with a capacity of 0 keeps out of the quiet-route
    /// table that it shares with a capacity-2 router: it reads none of
    /// the stored plans and fills nothing, and it answers as the naive
    /// search does.
    #[test]
    fn capacity_zero_routers_keep_out_of_the_quiet_table() {
        let f = quale_fabric();
        let topo = f.topology();
        let qspr = RouterConfig::qspr(&TechParams::date2012());
        let table = qspr.quiet_routes(topo);
        let traps = topo.traps_by_distance(f.center());
        let quiet = ResourceState::new(topo);
        let pairs = [
            (traps[0], traps[40]),
            (traps[1], traps[2]),
            (traps[7], traps[3]),
        ];
        let wide = Router::new(topo, qspr);
        for &(a, b) in &pairs {
            wide.route(&quiet, a, b).expect("quiet fabric routes");
        }
        assert_eq!(table.len(), pairs.len());
        let zero_channels = RouterConfig {
            channel_capacity: 0,
            ..qspr
        };
        let zero_junctions = RouterConfig {
            junction_capacity: 0,
            ..qspr
        };
        for config in [zero_channels, zero_junctions] {
            assert!(
                Arc::ptr_eq(&table, &config.quiet_routes(topo)),
                "same weights"
            );
            let router = Router::new(topo, config);
            assert!(router.quiet.is_none());
            for &(a, b) in &pairs {
                let plan = router.route(&quiet, a, b);
                assert_eq!(plan, router.route_naive(&quiet, a, b, None));
                assert_ne!(plan, wide.route(&quiet, a, b), "{a} -> {b}");
            }
            assert_eq!(router.quiet_hits.get(), 0);
            assert_eq!(table.len(), pairs.len());
        }
    }

    /// Routers read the fabric's bound table for their weights: one
    /// with other capacities shares it and fills it, a turn-blind one
    /// and one on another fabric do not.
    #[test]
    fn routers_share_the_fabric_table_for_their_weights() {
        let f = quale_fabric();
        let topo = f.topology();
        let tech = TechParams::date2012();
        let qspr = RouterConfig::qspr(&tech);
        let shared = qspr.travel_bounds(topo);
        let blind = Router::new(topo, RouterConfig::quale(&tech));
        assert!(
            !Arc::ptr_eq(&shared, &blind.bounds),
            "turn weight 0 vs T_turn"
        );
        let small = Fabric::from_ascii(crate::FIG5_DEMO_FABRIC).unwrap();
        let other = Router::new(small.topology(), qspr);
        assert!(!Arc::ptr_eq(&shared, &other.bounds), "another fabric");
        let router = Router::new(
            topo,
            RouterConfig {
                channel_capacity: 1,
                ..qspr
            },
        );
        assert!(
            Arc::ptr_eq(&shared, &router.bounds),
            "capacities do not matter"
        );
        let traps = topo.traps_by_distance(f.center());
        router
            .route(&ResourceState::new(topo), traps[0], traps[40])
            .unwrap();
        assert_eq!(shared.goals_filled(), 1);
        assert_eq!(blind.bounds().goals_filled(), 0);
    }
}
