//! Empty-fabric travel-time lower bounds, used to prune route probes
//! and route searches that provably cannot win.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use qspr_fabric::{SearchGraph, Segment, SegmentEnd, SegmentId, Time, Topology, TrapId};

use crate::router::RouterConfig;

/// Empty-fabric travel bounds for one topology and one router config:
/// minimum travel durations between traps, and the router's
/// distance-to-goal fields.
///
/// [`TravelBounds::min_duration`] never exceeds the
/// [`RoutePlan::duration`](crate::RoutePlan::duration) of a plan the
/// router returns for the same trap pair, under every booking state,
/// overlay and turn policy: every plan is a path through the search
/// graph whose duration is `moves·T_move + turns·T_turn`, and the bound
/// is the minimum of that sum over all paths, capacities ignored. On an
/// empty fabric it equals the turn-aware router's answer.
///
/// The goal fields back the exact pruning of
/// [`Router::route`](crate::Router::route): for a target segment, the
/// empty-fabric cost from every search node to the segment's
/// junction-attached ends, at the router's own turn weight (`T_turn`
/// when [`RouterConfig::turn_aware`], else 0). The duration rows always
/// charge `T_turn`.
///
/// Both are computed on first use (one Dijkstra run over the search
/// graph per source trap or target segment) and never invalidate, so
/// one table serves every mapping run on the fabric and every thread:
/// once an entry is set, a lookup is a lock-free [`OnceLock`] read. The
/// table does not borrow the topology; every lookup takes the topology
/// it was built for.
///
/// # Examples
///
/// ```
/// use qspr_fabric::{Fabric, TechParams};
/// use qspr_route::{ResourceState, Router, RouterConfig, TravelBounds};
///
/// let fabric = Fabric::quale_45x85();
/// let topo = fabric.topology();
/// let config = RouterConfig::qspr(&TechParams::date2012());
/// let bounds = TravelBounds::new(topo, &config);
/// let traps = topo.traps_by_distance(fabric.center());
/// let plan = Router::new(topo, config)
///     .route(&ResourceState::new(topo), traps[0], traps[40])
///     .unwrap();
/// assert_eq!(bounds.min_duration(topo, traps[0], traps[40]), plan.duration());
/// ```
#[derive(Debug)]
pub struct TravelBounds {
    t_move: Time,
    t_turn: Time,
    /// Turn weight of the goal fields: the router's, not the plan's.
    goal_turn: Time,
    rows: Vec<OnceLock<Box<[Time]>>>,
    goals: Vec<OnceLock<Box<[Time]>>>,
}

/// The turn weight `config`'s router searches with.
pub(crate) fn turn_weight(config: &RouterConfig) -> Time {
    if config.turn_aware {
        config.t_turn
    } else {
        0
    }
}

impl TravelBounds {
    /// An empty table for `topology` at `config`'s move and turn delays
    /// and turn policy (its capacities and history setting do not
    /// matter: the bounds hold for all of them).
    pub fn new(topology: &Topology, config: &RouterConfig) -> TravelBounds {
        let empty = |n: usize| (0..n).map(|_| OnceLock::new()).collect();
        TravelBounds {
            t_move: config.t_move,
            t_turn: config.t_turn,
            goal_turn: turn_weight(config),
            rows: empty(topology.traps().len()),
            goals: empty(topology.segments().len()),
        }
    }

    /// `true` when this table can stand in for one built by
    /// `TravelBounds::new(topology, config)`: same fabric size, same
    /// move and turn delays, same goal-field turn weight.
    pub(crate) fn serves(&self, topology: &Topology, config: &RouterConfig) -> bool {
        self.rows.len() == topology.traps().len()
            && self.goals.len() == topology.segments().len()
            && self.t_move == config.t_move
            && self.t_turn == config.t_turn
            && self.goal_turn == turn_weight(config)
    }

    /// The minimum travel duration from `from` to `to` on an empty
    /// `topology`, or [`Time::MAX`] when no channel path connects them.
    pub fn min_duration(&self, topology: &Topology, from: TrapId, to: TrapId) -> Time {
        self.rows[from.index()].get_or_init(|| self.row(topology, from))[to.index()]
    }

    /// The goal field of target segment `dst`, indexed by search node:
    /// the empty-fabric cost from each node to the nearest
    /// junction-attached end of `dst` ([`Time::MAX`] when unreachable).
    ///
    /// Computed with base segment weights (`moves · T_move`), zero
    /// junction tolls and the router's turn weight, which lower-bounds
    /// the true edge costs under every resource state and overlay:
    /// occupancy multipliers and presence/history surcharges only ever
    /// add cost. The search graph is symmetric (every segment edge
    /// exists in both directions with equal `moves`, and the turn edge
    /// is an involution with a fixed weight), so a forward Dijkstra
    /// seeded at the goal nodes yields exact to-goal distances.
    pub(crate) fn goal_field(&self, topology: &Topology, dst: SegmentId) -> &[Time] {
        self.goals[dst.index()].get_or_init(|| {
            self.dijkstra(topology, topology.segment(dst), |_| 0, self.goal_turn)
                .into()
        })
    }

    /// How many goal fields have been computed so far (at most one per
    /// segment of the topology).
    pub fn goal_fields(&self) -> usize {
        self.goals.iter().filter(|g| g.get().is_some()).count()
    }

    /// Single-source durations from `from` to every trap, charged
    /// exactly as [`RoutePlan`](crate::RoutePlan) charges its steps: one
    /// move onto the port, the cells to a segment end plus the step
    /// onto its junction, `len + 1` moves per traversed segment, one
    /// turn per orientation change, and the mirror image into the
    /// target trap. Same-segment pairs may also travel directly.
    fn row(&self, topo: &Topology, from: TrapId) -> Box<[Time]> {
        let pf = topo.trap(from).port();
        let src_seg = topo.segment(pf.segment);
        let dist = self.dijkstra(
            topo,
            src_seg,
            |end| self.t_move * Time::from(1 + src_seg.moves_to_end(pf.offset, end)),
            self.t_turn,
        );
        topo.traps()
            .iter()
            .enumerate()
            .map(|(i, trap)| {
                if i == from.index() {
                    return 0;
                }
                let pt = trap.port();
                let dst_seg = topo.segment(pt.segment);
                let mut best = Time::MAX;
                if pt.segment == pf.segment {
                    best = self.t_move * Time::from(2 + u32::from(pf.offset.abs_diff(pt.offset)));
                }
                for end in 0..2 {
                    if let SegmentEnd::Junction(j) = dst_seg.ends()[end] {
                        let d = dist[SearchGraph::node(j, dst_seg.orientation())];
                        if d != Time::MAX {
                            let tail = Time::from(dst_seg.moves_to_end(pt.offset, end) + 1);
                            best = best.min(d + self.t_move * tail);
                        }
                    }
                }
                best
            })
            .collect()
    }

    /// Empty-fabric Dijkstra over the search graph, seeded at the
    /// junction-attached ends of `seg` with cost `seed(end)`: segment edges
    /// cost `moves · T_move`, the turn edge `turn`. Unreached nodes read
    /// [`Time::MAX`].
    fn dijkstra(
        &self,
        topo: &Topology,
        seg: &Segment,
        seed: impl Fn(usize) -> Time,
        turn: Time,
    ) -> Vec<Time> {
        let graph = topo.search_graph();
        let mut dist = vec![Time::MAX; graph.num_nodes()];
        let mut heap = BinaryHeap::new();
        for end in 0..2 {
            if let SegmentEnd::Junction(j) = seg.ends()[end] {
                let node = SearchGraph::node(j, seg.orientation());
                let cost = seed(end);
                if cost < dist[node] {
                    dist[node] = cost;
                    heap.push(Reverse((cost, node)));
                }
            }
        }
        while let Some(Reverse((cost, node))) = heap.pop() {
            if cost > dist[node] {
                continue;
            }
            let turn_node = SearchGraph::turn_of(node);
            let turn_cost = cost.saturating_add(turn);
            if turn_cost < dist[turn_node] {
                dist[turn_node] = turn_cost;
                heap.push(Reverse((turn_cost, turn_node)));
            }
            for edge in graph.edges(node) {
                let next = edge.to_node as usize;
                let next_cost = cost.saturating_add(self.t_move * Time::from(edge.moves));
                if next_cost < dist[next] {
                    dist[next] = next_cost;
                    heap.push(Reverse((next_cost, next)));
                }
            }
        }
        dist
    }
}
