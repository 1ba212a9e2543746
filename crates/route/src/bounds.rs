//! Empty-fabric travel-time lower bounds, used to prune route probes
//! that provably cannot win.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use qspr_fabric::{SearchGraph, SegmentEnd, Time, Topology, TrapId};

use crate::router::RouterConfig;

/// Minimum travel durations between traps on an empty fabric.
///
/// [`TravelBounds::min_duration`] never exceeds the
/// [`RoutePlan::duration`](crate::RoutePlan::duration) of a plan the
/// router returns for the same trap pair, under every booking state,
/// overlay and turn policy: every plan is a path through the search
/// graph whose duration is `moves·T_move + turns·T_turn`, and the bound
/// is the minimum of that sum over all paths, capacities ignored. On an
/// empty uniform fabric it equals the turn-aware router's answer.
///
/// Rows are computed one source trap at a time on first use (a single
/// Dijkstra run over the search graph) and never invalidate, so one
/// table serves every mapping run on the fabric and every thread: once
/// a row is set, a lookup is a lock-free [`OnceLock`] read.
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
/// assert_eq!(bounds.min_duration(traps[0], traps[40]), plan.duration());
/// ```
#[derive(Debug)]
pub struct TravelBounds<'t> {
    topology: &'t Topology,
    t_move: Time,
    t_turn: Time,
    rows: Vec<OnceLock<Box<[Time]>>>,
}

impl<'t> TravelBounds<'t> {
    /// An empty table for `topology` at `config`'s move and turn delays
    /// (its turn policy and capacities do not matter: the bound holds
    /// for all of them).
    pub fn new(topology: &'t Topology, config: &RouterConfig) -> TravelBounds<'t> {
        TravelBounds {
            topology,
            t_move: config.t_move,
            t_turn: config.t_turn,
            rows: (0..topology.traps().len())
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// The minimum travel duration from `from` to `to` on an empty
    /// fabric, or [`Time::MAX`] when no channel path connects them.
    pub fn min_duration(&self, from: TrapId, to: TrapId) -> Time {
        self.rows[from.index()].get_or_init(|| self.row(from))[to.index()]
    }

    /// Single-source durations from `from` to every trap, charged
    /// exactly as [`RoutePlan`](crate::RoutePlan) charges its steps: one
    /// move onto the port, the cells to a segment end plus the step
    /// onto its junction, `len + 1` moves per traversed segment, one
    /// turn per orientation change, and the mirror image into the
    /// target trap. Same-segment pairs may also travel directly.
    fn row(&self, from: TrapId) -> Box<[Time]> {
        let topo = self.topology;
        let graph = topo.search_graph();
        let pf = topo.trap(from).port();
        let src_seg = topo.segment(pf.segment);
        let mut dist = vec![Time::MAX; graph.num_nodes()];
        let mut heap = BinaryHeap::new();
        for end in 0..2 {
            if let SegmentEnd::Junction(j) = src_seg.ends()[end] {
                let node = SearchGraph::node(j, src_seg.orientation());
                let cost = self.t_move * Time::from(1 + src_seg.moves_to_end(pf.offset, end));
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
            let turn = SearchGraph::turn_of(node);
            let turn_cost = cost + self.t_turn;
            if turn_cost < dist[turn] {
                dist[turn] = turn_cost;
                heap.push(Reverse((turn_cost, turn)));
            }
            for edge in graph.edges(node) {
                let next = edge.to_node as usize;
                let next_cost = cost + self.t_move * Time::from(edge.moves);
                if next_cost < dist[next] {
                    dist[next] = next_cost;
                    heap.push(Reverse((next_cost, next)));
                }
            }
        }
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
}
