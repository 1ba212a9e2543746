//! Empty-fabric travel-time lower bounds, used to prune route probes
//! and route searches that provably cannot win.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::pmd::Time;
use crate::search::SearchGraph;
use crate::topology::{Segment, SegmentEnd, SegmentId, Topology, TrapId};

/// Empty-fabric travel bounds for one topology at one move delay, turn
/// delay and search turn weight: minimum travel durations between
/// traps, and a router's distance-to-goal fields.
///
/// [`TravelBounds::min_duration`] never exceeds the duration
/// (`moves·T_move + turns·T_turn`) of any channel path between the two
/// traps: it is the minimum of that sum over all paths, capacities
/// ignored. So a router's plan for the same trap pair, under every
/// booking state, overlay and turn policy, takes at least this long,
/// and on an empty fabric a turn-aware router's plan takes exactly
/// this long.
///
/// The goal fields back a router's exact search pruning: for a target
/// segment, the empty-fabric cost from every search node to the
/// segment's junction-attached ends, at the *search* turn weight
/// (`T_turn` for a turn-aware router, 0 for a turn-blind one). The
/// duration rows always charge `T_turn`.
///
/// Tables belong to the fabric: [`Topology::travel_bounds`] creates one
/// per distinct weight triple on first request and hands every later
/// request the same table, so every mapping run on the fabric, on every
/// thread, shares it. Entries are computed on first use (one Dijkstra
/// run over the search graph per source trap or target segment) and
/// never invalidate: once an entry is set, a lookup is a lock-free
/// [`OnceLock`] read. Each fill runs inside a `bounds` profiling span.
/// The table does not borrow the topology; every lookup takes the
/// topology that owns it.
///
/// Crates above the fabric keep their own per-fabric, per-weight tables
/// next to the bounds ([`TravelBounds::attached`]), so those are shared
/// exactly as the bounds are.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use qspr_fabric::{Fabric, TechParams};
///
/// let fabric = Fabric::quale_45x85();
/// let topo = fabric.topology();
/// let tech = TechParams::date2012();
/// let bounds = topo.travel_bounds(tech.t_move, tech.t_turn, tech.t_turn);
/// let traps = topo.traps_by_distance(fabric.center());
/// assert!(bounds.min_duration(topo, traps[0], traps[40]) > 0);
/// assert_eq!((bounds.rows_filled(), bounds.goals_filled()), (1, 0));
///
/// // Every later request with the same weights gets the same table.
/// let again = topo.travel_bounds(tech.t_move, tech.t_turn, tech.t_turn);
/// assert!(Arc::ptr_eq(&bounds, &again));
/// ```
pub struct TravelBounds {
    t_move: Time,
    t_turn: Time,
    /// Turn weight of the goal fields: the search's, not the plan's.
    goal_turn: Time,
    rows: Vec<OnceLock<Box<[Time]>>>,
    goals: Vec<OnceLock<Box<[Time]>>>,
    /// Tables of other crates kept with these bounds, at most one per
    /// type ([`TravelBounds::attached`]).
    attached: Mutex<Vec<Arc<dyn Any + Send + Sync>>>,
}

impl fmt::Debug for TravelBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TravelBounds")
            .field("t_move", &self.t_move)
            .field("t_turn", &self.t_turn)
            .field("goal_turn", &self.goal_turn)
            .field("rows_filled", &self.rows_filled())
            .field("goals_filled", &self.goals_filled())
            .finish()
    }
}

impl TravelBounds {
    fn new(topology: &Topology, t_move: Time, t_turn: Time, goal_turn: Time) -> TravelBounds {
        let empty = |n: usize| (0..n).map(|_| OnceLock::new()).collect();
        TravelBounds {
            t_move,
            t_turn,
            goal_turn,
            rows: empty(topology.traps().len()),
            goals: empty(topology.segments().len()),
            attached: Mutex::default(),
        }
    }

    /// The table of type `T` kept with these bounds, made by `make` on
    /// the first request for `T`: every later request, from any thread,
    /// gets the same table. A crate that the fabric does not know keeps
    /// a table here to share it per fabric and per weight triple, like
    /// the bounds themselves (`qspr-route` keeps its quiet-route table
    /// here).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::{Arc, Mutex};
    /// use qspr_fabric::{Fabric, TechParams};
    ///
    /// let fabric = Fabric::quale_45x85();
    /// let tech = TechParams::date2012();
    /// let bounds = fabric.topology().travel_bounds(tech.t_move, tech.t_turn, tech.t_turn);
    /// let notes = bounds.attached(|| Mutex::new(Vec::<u32>::new()));
    /// notes.lock().unwrap().push(7);
    /// let again = bounds.attached(|| -> Mutex<Vec<u32>> { unreachable!("made once") });
    /// assert!(Arc::ptr_eq(&notes, &again));
    /// ```
    pub fn attached<T: Any + Send + Sync>(&self, make: impl FnOnce() -> T) -> Arc<T> {
        // The only update is one `push` of a made table, so the list is
        // valid at every step and a poisoned lock is safe to recover.
        let mut tables = self.attached.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = tables
            .iter()
            .find_map(|table| Arc::clone(table).downcast::<T>().ok())
        {
            return table;
        }
        let table = Arc::new(make());
        tables.push(Arc::clone(&table) as Arc<dyn Any + Send + Sync>);
        table
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
    /// junction tolls and the search turn weight, which lower-bounds
    /// the true edge costs under every resource state and overlay:
    /// occupancy multipliers and presence/history surcharges only ever
    /// add cost. The search graph is symmetric (every segment edge
    /// exists in both directions with equal `moves`, and the turn edge
    /// is an involution with a fixed weight), so a forward Dijkstra
    /// seeded at the goal nodes yields exact to-goal distances.
    pub fn goal_field(&self, topology: &Topology, dst: SegmentId) -> &[Time] {
        self.goals[dst.index()].get_or_init(|| {
            let _span = qspr_obs::span("bounds");
            self.dijkstra(topology, topology.segment(dst), |_| 0, self.goal_turn)
                .into()
        })
    }

    /// How many duration rows (one per source trap) have been filled.
    pub fn rows_filled(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }

    /// How many goal fields (one per target segment) have been filled.
    pub fn goals_filled(&self) -> usize {
        self.goals.iter().filter(|g| g.get().is_some()).count()
    }

    /// Single-source durations from `from` to every trap, charged
    /// exactly as a route plan charges its steps: one move onto the
    /// port, the cells to a segment end plus the step onto its
    /// junction, `len + 1` moves per traversed segment, one turn per
    /// orientation change, and the mirror image into the target trap.
    /// Same-segment pairs may also travel directly.
    fn row(&self, topo: &Topology, from: TrapId) -> Box<[Time]> {
        let _span = qspr_obs::span("bounds");
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

/// The bound tables a [`Topology`] owns, one per weight triple, created
/// on first request. Not part of the topology's value: clones share the
/// tables (a clone has the same layout, so every entry stays exact) and
/// equality ignores them.
///
/// The only update is one `push` of a complete table, so the list is
/// valid at every step and a poisoned lock is safe to recover.
#[derive(Default)]
pub(crate) struct BoundTables(Mutex<Vec<Arc<TravelBounds>>>);

impl BoundTables {
    /// The table for `topology` at these weights, created empty on the
    /// first request.
    pub(crate) fn get(
        &self,
        topology: &Topology,
        t_move: Time,
        t_turn: Time,
        goal_turn: Time,
    ) -> Arc<TravelBounds> {
        let mut tables = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let found = tables
            .iter()
            .find(|b| (b.t_move, b.t_turn, b.goal_turn) == (t_move, t_turn, goal_turn));
        if let Some(bounds) = found {
            return Arc::clone(bounds);
        }
        let bounds = Arc::new(TravelBounds::new(topology, t_move, t_turn, goal_turn));
        tables.push(Arc::clone(&bounds));
        bounds
    }

    fn tables(&self) -> Vec<Arc<TravelBounds>> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Clone for BoundTables {
    fn clone(&self) -> BoundTables {
        BoundTables(Mutex::new(self.tables()))
    }
}

impl PartialEq for BoundTables {
    fn eq(&self, _: &BoundTables) -> bool {
        true
    }
}

impl Eq for BoundTables {}

impl fmt::Debug for BoundTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.tables()).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::{Fabric, TechParams};

    /// One table per weight triple, shared by every request and by
    /// clones of the fabric, and created empty.
    #[test]
    fn one_table_per_weight_triple() {
        let fabric = Fabric::quale_45x85();
        let topo = fabric.topology();
        let tech = TechParams::date2012();
        let aware = topo.travel_bounds(tech.t_move, tech.t_turn, tech.t_turn);
        let blind = topo.travel_bounds(tech.t_move, tech.t_turn, 0);
        assert!(!Arc::ptr_eq(&aware, &blind), "search turn weight differs");
        let slow = topo.travel_bounds(tech.t_move, 2 * tech.t_turn, tech.t_turn);
        assert!(!Arc::ptr_eq(&aware, &slow), "turn delay differs");
        assert!(Arc::ptr_eq(
            &aware,
            &topo.travel_bounds(tech.t_move, tech.t_turn, tech.t_turn)
        ));
        let clone = fabric.clone();
        assert!(Arc::ptr_eq(
            &aware,
            &clone
                .topology()
                .travel_bounds(tech.t_move, tech.t_turn, tech.t_turn)
        ));
        assert_eq!(clone, fabric);
        assert_eq!((aware.rows_filled(), aware.goals_filled()), (0, 0));

        let traps = topo.traps_by_distance(fabric.center());
        let field = aware.goal_field(topo, topo.trap(traps[9]).port().segment);
        assert_eq!(field.len(), topo.search_graph().num_nodes());
        assert_eq!((aware.rows_filled(), aware.goals_filled()), (0, 1));
        assert_eq!(aware.min_duration(topo, traps[3], traps[3]), 0);
        assert_eq!((aware.rows_filled(), aware.goals_filled()), (1, 1));
        assert_eq!((blind.rows_filled(), blind.goals_filled()), (0, 0));
    }
}
