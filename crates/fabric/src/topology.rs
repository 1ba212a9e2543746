//! Derived connectivity of a fabric: channel segments, junctions and trap
//! ports.

use std::fmt;
use std::sync::Arc;

use crate::bounds::{BoundTables, TravelBounds};
use crate::cell::{Cell, Coord, Orientation};
use crate::error::FabricError;
use crate::pmd::Time;
use crate::search::SearchGraph;

/// Identifier of a channel [`Segment`] within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u32);

/// Identifier of a [`Junction`] within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JunctionId(pub u32);

/// Identifier of a [`Trap`] within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrapId(pub u32);

impl SegmentId {
    /// Dense index for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl JunctionId {
    /// Dense index for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl TrapId {
    /// Dense index for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg#{}", self.0)
    }
}
impl fmt::Display for JunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jct#{}", self.0)
    }
}
impl fmt::Display for TrapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trap#{}", self.0)
    }
}

/// What a segment end attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentEnd {
    /// The segment continues into a junction.
    Junction(JunctionId),
    /// The segment dead-ends (fabric edge or empty cell).
    Dead,
}

impl SegmentEnd {
    /// The junction id, if this end attaches to one.
    pub fn junction(self) -> Option<JunctionId> {
        match self {
            SegmentEnd::Junction(j) => Some(j),
            SegmentEnd::Dead => None,
        }
    }
}

/// A maximal straight run of channel cells between junctions/dead ends.
///
/// Cells are ordered from the north/west end (`offset 0`) towards the
/// south/east end (`offset len-1`). `ends()[0]` is the attachment on the
/// north/west side, `ends()[1]` on the south/east side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    orientation: Orientation,
    start: Coord,
    len: u16,
    ends: [SegmentEnd; 2],
}

impl Segment {
    /// Channel direction of this segment.
    pub fn orientation(&self) -> Orientation {
        self.orientation
    }

    /// Number of channel cells in the segment. Traversing the full segment
    /// between its two end junctions costs `len + 1` moves.
    pub fn len(&self) -> u16 {
        self.len
    }

    /// Segments always contain at least one cell.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Attachments at the two ends: `[north-or-west, south-or-east]`.
    pub fn ends(&self) -> [SegmentEnd; 2] {
        self.ends
    }

    /// The coordinate of the channel cell at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len()`.
    pub fn cell_at(&self, offset: u16) -> Coord {
        assert!(offset < self.len, "offset {offset} out of segment");
        match self.orientation {
            Orientation::Horizontal => Coord::new(self.start.row, self.start.col + offset),
            Orientation::Vertical => Coord::new(self.start.row + offset, self.start.col),
        }
    }

    /// Iterates the segment's cells from offset 0 upward.
    pub fn cells(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.len).map(move |o| self.cell_at(o))
    }

    /// Which end (0 or 1) attaches to junction `j`, if either.
    pub fn end_attached_to(&self, j: JunctionId) -> Option<usize> {
        self.ends.iter().position(|e| *e == SegmentEnd::Junction(j))
    }

    /// Moves needed to go from the cell at `offset` onto the end junction
    /// `end` (0 = north/west, 1 = south/east): the cells in between plus
    /// the final step onto the junction itself.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len()` or `end > 1`.
    pub fn moves_to_end(&self, offset: u16, end: usize) -> u32 {
        assert!(offset < self.len, "offset {offset} out of segment");
        match end {
            0 => offset as u32 + 1,
            1 => (self.len - offset) as u32,
            _ => panic!("segment end index {end} out of range"),
        }
    }
}

/// Compass direction used to address a junction's incident segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Decreasing row.
    North,
    /// Increasing row.
    South,
    /// Decreasing column.
    West,
    /// Increasing column.
    East,
}

impl Direction {
    /// All four directions in N, S, W, E order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::West,
        Direction::East,
    ];

    fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::South => 1,
            Direction::West => 2,
            Direction::East => 3,
        }
    }
}

/// A junction cell: the only place a qubit may change between horizontal
/// and vertical movement (a *turn*, costing `T_turn`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Junction {
    coord: Coord,
    incident: [Option<SegmentId>; 4],
}

impl Junction {
    /// Grid position of the junction.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// The segment leaving this junction in `direction`, if any.
    pub fn incident(&self, direction: Direction) -> Option<SegmentId> {
        self.incident[direction.index()]
    }

    /// All incident segments with their directions.
    pub fn incident_segments(&self) -> impl Iterator<Item = (Direction, SegmentId)> + '_ {
        Direction::ALL
            .into_iter()
            .filter_map(move |d| self.incident(d).map(|s| (d, s)))
    }

    /// Number of connected segments (degree of the junction).
    pub fn degree(&self) -> usize {
        self.incident.iter().flatten().count()
    }
}

/// The channel cell through which a qubit enters/exits a trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port {
    /// Segment containing the port cell.
    pub segment: SegmentId,
    /// Offset of the port cell within that segment.
    pub offset: u16,
    /// Grid position of the port cell.
    pub coord: Coord,
}

/// A gate-execution site. Holds one qubit for 1-qubit gates, two for
/// 2-qubit gates; entering or leaving costs one move through the port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trap {
    coord: Coord,
    port: Port,
}

impl Trap {
    /// Grid position of the trap.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// The trap's single access port.
    pub fn port(&self) -> Port {
        self.port
    }
}

/// Derived connectivity of a [`crate::Fabric`].
///
/// Built eagerly at fabric construction; all mapper stages (placement,
/// routing, simulation) work on this view rather than raw cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    rows: u16,
    cols: u16,
    segments: Vec<Segment>,
    junctions: Vec<Junction>,
    traps: Vec<Trap>,
    // Dense per-cell indexes (row-major).
    junction_at: Vec<Option<JunctionId>>,
    trap_at: Vec<Option<TrapId>>,
    channel_at: Vec<Option<(SegmentId, u16)>>,
    // Per-resource capacity overrides (`None` = the technology default).
    segment_caps: Vec<Option<u8>>,
    junction_caps: Vec<Option<u8>>,
    search: SearchGraph,
    bounds: BoundTables,
}

impl Topology {
    /// All channel segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// All junctions.
    pub fn junctions(&self) -> &[Junction] {
        &self.junctions
    }

    /// All traps.
    pub fn traps(&self) -> &[Trap] {
        &self.traps
    }

    /// The segment with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this topology.
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// The junction with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this topology.
    pub fn junction(&self, id: JunctionId) -> &Junction {
        &self.junctions[id.index()]
    }

    /// The trap with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this topology.
    pub fn trap(&self, id: TrapId) -> &Trap {
        &self.traps[id.index()]
    }

    fn cell_index(&self, coord: Coord) -> Option<usize> {
        (coord.row < self.rows && coord.col < self.cols)
            .then(|| coord.row as usize * self.cols as usize + coord.col as usize)
    }

    /// The junction occupying `coord`, if any.
    pub fn junction_at(&self, coord: Coord) -> Option<JunctionId> {
        self.cell_index(coord).and_then(|i| self.junction_at[i])
    }

    /// The trap occupying `coord`, if any.
    pub fn trap_at(&self, coord: Coord) -> Option<TrapId> {
        self.cell_index(coord).and_then(|i| self.trap_at[i])
    }

    /// The segment and offset of the channel cell at `coord`, if any.
    pub fn channel_at(&self, coord: Coord) -> Option<(SegmentId, u16)> {
        self.cell_index(coord).and_then(|i| self.channel_at[i])
    }

    /// The precomputed `(junction, orientation)` search graph routers
    /// run shortest-path queries over (see [`SearchGraph`]).
    pub fn search_graph(&self) -> &SearchGraph {
        &self.search
    }

    /// This fabric's empty-fabric bound table at move delay `t_move`,
    /// turn delay `t_turn` and search turn weight `goal_turn` (see
    /// [`TravelBounds`]). The first request for a weight triple creates
    /// an empty table; every later one, from any thread, gets the same
    /// table, so each entry is computed once per fabric.
    pub fn travel_bounds(&self, t_move: Time, t_turn: Time, goal_turn: Time) -> Arc<TravelBounds> {
        self.bounds.get(self, t_move, t_turn, goal_turn)
    }

    /// The capacity override of a segment, `None` when it uses the
    /// technology default. Overrides come from a fabric spec's capacity
    /// assignments; a segment spanning several overridden cells takes
    /// the minimum (the narrowest cell bounds the whole run).
    pub fn segment_cap(&self, id: SegmentId) -> Option<u8> {
        self.segment_caps[id.index()]
    }

    /// The capacity override of a junction, `None` for the default.
    pub fn junction_cap(&self, id: JunctionId) -> Option<u8> {
        self.junction_caps[id.index()]
    }

    /// Per-segment capacity overrides, indexed by [`SegmentId`].
    pub fn segment_caps(&self) -> &[Option<u8>] {
        &self.segment_caps
    }

    /// Per-junction capacity overrides, indexed by [`JunctionId`].
    pub fn junction_caps(&self) -> &[Option<u8>] {
        &self.junction_caps
    }

    /// `true` when any resource carries a capacity override, i.e. the
    /// fabric is *heterogeneous* and the global technology capacities do
    /// not tell the whole story.
    pub fn has_capacity_overrides(&self) -> bool {
        self.segment_caps.iter().any(Option::is_some)
            || self.junction_caps.iter().any(Option::is_some)
    }

    /// Occupancy-capacity histogram over all segments and junctions:
    /// `(override, count)` pairs with `None` (the technology default)
    /// first, then ascending capacity values.
    pub fn capacity_histogram(&self) -> Vec<(Option<u8>, usize)> {
        let mut histogram: Vec<(Option<u8>, usize)> = Vec::new();
        for cap in self.segment_caps.iter().chain(&self.junction_caps) {
            match histogram.iter_mut().find(|(c, _)| c == cap) {
                Some((_, n)) => *n += 1,
                None => histogram.push((*cap, 1)),
            }
        }
        histogram.sort_by_key(|(c, _)| c.map_or(0u16, |v| v as u16 + 1));
        histogram
    }

    /// The trap nearest to `to` (Manhattan metric) among those for which
    /// `candidate` returns `true`. Ties break towards the smaller trap id,
    /// keeping the mapper deterministic. `to` may lie outside the grid.
    ///
    /// The search walks Manhattan rings outward from `to` through the
    /// dense per-cell trap index and stops at the first ring holding an
    /// accepted trap, so a hit at distance `d` costs O(d²) cells instead
    /// of a scan over every trap. `candidate` must therefore be a pure
    /// predicate: it is called on a subset of the traps, in no
    /// particular order.
    pub fn nearest_trap<F>(&self, to: Coord, mut candidate: F) -> Option<TrapId>
    where
        F: FnMut(TrapId) -> bool,
    {
        let (rows, cols) = (i32::from(self.rows), i32::from(self.cols));
        let (tr, tc) = (i32::from(to.row), i32::from(to.col));
        // The farthest grid corner bounds the rings worth walking.
        let max_d = tr.max(rows - 1 - tr) + tc.max(cols - 1 - tc);
        for d in 0..=max_d {
            let mut best: Option<TrapId> = None;
            for r in (tr - d).max(0)..=(tr + d).min(rows - 1) {
                let dc = d - (r - tr).abs();
                let row = r as usize * self.cols as usize;
                // One cell on the ring's top and bottom rows, two on
                // every other row (-1 is off the grid, so skipped).
                let pair = if dc == 0 {
                    [tc, -1]
                } else {
                    [tc - dc, tc + dc]
                };
                for c in pair {
                    if c < 0 || c >= cols {
                        continue;
                    }
                    if let Some(id) = self.trap_at[row + c as usize] {
                        if best.map_or(true, |b| id < b) && candidate(id) {
                            best = Some(id);
                        }
                    }
                }
            }
            if best.is_some() {
                return best;
            }
        }
        None
    }

    /// The seed implementation of [`Topology::nearest_trap`], kept as
    /// the reference for the ring-search equivalence tests: a linear
    /// scan over every trap.
    #[cfg(test)]
    pub(crate) fn nearest_trap_linear<F>(&self, to: Coord, mut candidate: F) -> Option<TrapId>
    where
        F: FnMut(TrapId) -> bool,
    {
        let mut best: Option<(u32, TrapId)> = None;
        for (i, trap) in self.traps.iter().enumerate() {
            let id = TrapId(i as u32);
            if !candidate(id) {
                continue;
            }
            let d = trap.coord.manhattan(to);
            if best.map_or(true, |(bd, bid)| (d, id) < (bd, bid)) {
                best = Some((d, id));
            }
        }
        best.map(|(_, id)| id)
    }

    /// All traps sorted by (Manhattan distance to `to`, trap id).
    /// The head of this list is QUALE's "center placement" order when `to`
    /// is the fabric center.
    pub fn traps_by_distance(&self, to: Coord) -> Vec<TrapId> {
        self.nearest_traps(to, self.traps.len())
    }

    /// The first `k` entries of [`Topology::traps_by_distance`] (every
    /// trap when `k` exceeds their number), without sorting the rest:
    /// a selection splits off the `k` nearest, and only those are
    /// sorted. Keys are distinct (the id breaks ties), so the result is
    /// exactly the head of the full order.
    pub fn nearest_traps(&self, to: Coord, k: usize) -> Vec<TrapId> {
        let key = |id: &TrapId| (self.trap(*id).coord.manhattan(to), *id);
        let mut ids: Vec<TrapId> = (0..self.traps.len() as u32).map(TrapId).collect();
        if k < ids.len() {
            ids.select_nth_unstable_by_key(k, key);
            ids.truncate(k);
        }
        ids.sort_unstable_by_key(key);
        ids
    }

    /// Builds the topology for a validated grid. Called by
    /// [`crate::Fabric::new`]; exposed for tests.
    ///
    /// `cell_caps` carries per-cell capacity overrides from the spec
    /// elaborator (row-major, same dimensions as `grid`, or empty for a
    /// uniform fabric). A junction takes its own cell's override; a
    /// segment takes the minimum override among its member cells.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::NoTraps`] or [`FabricError::TrapWithoutPort`]
    /// when the fabric cannot host computation.
    pub(crate) fn build(
        rows: u16,
        cols: u16,
        grid: &[Cell],
        cell_caps: &[Option<u8>],
    ) -> Result<Topology, FabricError> {
        let cell = |r: u16, c: u16| grid[r as usize * cols as usize + c as usize];
        let n_cells = rows as usize * cols as usize;

        let mut junctions = Vec::new();
        let mut junction_at = vec![None; n_cells];
        for r in 0..rows {
            for c in 0..cols {
                if cell(r, c) == Cell::Junction {
                    let id = JunctionId(junctions.len() as u32);
                    junction_at[r as usize * cols as usize + c as usize] = Some(id);
                    junctions.push(Junction {
                        coord: Coord::new(r, c),
                        incident: [None; 4],
                    });
                }
            }
        }

        let mut segments = Vec::new();
        let mut channel_at = vec![None; n_cells];
        let idx = |r: u16, c: u16| r as usize * cols as usize + c as usize;

        // Horizontal runs.
        for r in 0..rows {
            let mut c = 0;
            while c < cols {
                if cell(r, c) != Cell::HChannel {
                    c += 1;
                    continue;
                }
                let start = c;
                while c < cols && cell(r, c) == Cell::HChannel {
                    c += 1;
                }
                let end = c; // exclusive
                let id = SegmentId(segments.len() as u32);
                let west = start
                    .checked_sub(1)
                    .and_then(|pc| junction_at[idx(r, pc)])
                    .map_or(SegmentEnd::Dead, SegmentEnd::Junction);
                let east = (end < cols)
                    .then(|| junction_at[idx(r, end)])
                    .flatten()
                    .map_or(SegmentEnd::Dead, SegmentEnd::Junction);
                for (o, cc) in (start..end).enumerate() {
                    channel_at[idx(r, cc)] = Some((id, o as u16));
                }
                if let SegmentEnd::Junction(j) = west {
                    junctions[j.index()].incident[Direction::East.index()] = Some(id);
                }
                if let SegmentEnd::Junction(j) = east {
                    junctions[j.index()].incident[Direction::West.index()] = Some(id);
                }
                segments.push(Segment {
                    orientation: Orientation::Horizontal,
                    start: Coord::new(r, start),
                    len: end - start,
                    ends: [west, east],
                });
            }
        }

        // Vertical runs.
        for c in 0..cols {
            let mut r = 0;
            while r < rows {
                if cell(r, c) != Cell::VChannel {
                    r += 1;
                    continue;
                }
                let start = r;
                while r < rows && cell(r, c) == Cell::VChannel {
                    r += 1;
                }
                let end = r;
                let id = SegmentId(segments.len() as u32);
                let north = start
                    .checked_sub(1)
                    .and_then(|pr| junction_at[idx(pr, c)])
                    .map_or(SegmentEnd::Dead, SegmentEnd::Junction);
                let south = (end < rows)
                    .then(|| junction_at[idx(end, c)])
                    .flatten()
                    .map_or(SegmentEnd::Dead, SegmentEnd::Junction);
                for (o, rr) in (start..end).enumerate() {
                    channel_at[idx(rr, c)] = Some((id, o as u16));
                }
                if let SegmentEnd::Junction(j) = north {
                    junctions[j.index()].incident[Direction::South.index()] = Some(id);
                }
                if let SegmentEnd::Junction(j) = south {
                    junctions[j.index()].incident[Direction::North.index()] = Some(id);
                }
                segments.push(Segment {
                    orientation: Orientation::Vertical,
                    start: Coord::new(start, c),
                    len: end - start,
                    ends: [north, south],
                });
            }
        }

        // Traps and their ports.
        let mut traps = Vec::new();
        let mut trap_at = vec![None; n_cells];
        for r in 0..rows {
            for c in 0..cols {
                if cell(r, c) != Cell::Trap {
                    continue;
                }
                let coord = Coord::new(r, c);
                let port = coord
                    .neighbors(rows, cols)
                    .find_map(|n| {
                        channel_at[idx(n.row, n.col)].map(|(segment, offset)| Port {
                            segment,
                            offset,
                            coord: n,
                        })
                    })
                    .ok_or(FabricError::TrapWithoutPort(coord))?;
                let id = TrapId(traps.len() as u32);
                trap_at[idx(r, c)] = Some(id);
                traps.push(Trap { coord, port });
            }
        }
        if traps.is_empty() {
            return Err(FabricError::NoTraps);
        }

        // Fold per-cell overrides into per-resource capacities.
        let cap_at = |coord: Coord| cell_caps.get(idx(coord.row, coord.col)).copied().flatten();
        let segment_caps: Vec<Option<u8>> = segments
            .iter()
            .map(|seg| seg.cells().filter_map(cap_at).min())
            .collect();
        let junction_caps: Vec<Option<u8>> = junctions.iter().map(|j| cap_at(j.coord)).collect();

        let search = SearchGraph::build(&segments, &junctions);
        Ok(Topology {
            rows,
            cols,
            segments,
            junctions,
            traps,
            junction_at,
            trap_at,
            channel_at,
            segment_caps,
            junction_caps,
            search,
            bounds: BoundTables::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Fabric;

    /// A 5×5 cross: one junction in the middle, four channel stubs, traps
    /// hanging off the vertical stubs.
    const CROSS: &str = "\
..|..
T.|..
--+--
..|.T
..|..
";

    #[test]
    fn cross_topology_shape() {
        let f = Fabric::from_ascii(CROSS).unwrap();
        let t = f.topology();
        assert_eq!(t.junctions().len(), 1);
        assert_eq!(t.segments().len(), 4);
        assert_eq!(t.traps().len(), 2);
        let j = &t.junctions()[0];
        assert_eq!(j.coord(), Coord::new(2, 2));
        assert_eq!(j.degree(), 4);
    }

    #[test]
    fn segment_ends_attach_to_junction() {
        let f = Fabric::from_ascii(CROSS).unwrap();
        let t = f.topology();
        let j = JunctionId(0);
        for seg in t.segments() {
            // Each stub has one junction end and one dead end.
            let ends = seg.ends();
            assert!(ends.contains(&SegmentEnd::Junction(j)), "{seg:?}");
            assert!(ends.contains(&SegmentEnd::Dead), "{seg:?}");
            assert_eq!(seg.len(), 2);
        }
    }

    #[test]
    fn junction_incidence_directions() {
        let f = Fabric::from_ascii(CROSS).unwrap();
        let t = f.topology();
        let j = &t.junctions()[0];
        for d in Direction::ALL {
            let seg = j.incident(d).expect("cross has all four directions");
            let expected = match d {
                Direction::North | Direction::South => Orientation::Vertical,
                Direction::West | Direction::East => Orientation::Horizontal,
            };
            assert_eq!(t.segment(seg).orientation(), expected);
        }
    }

    #[test]
    fn trap_ports_point_to_channels() {
        let f = Fabric::from_ascii(CROSS).unwrap();
        let t = f.topology();
        for trap in t.traps() {
            let port = trap.port();
            let (seg, off) = t.channel_at(port.coord).unwrap();
            assert_eq!(seg, port.segment);
            assert_eq!(off, port.offset);
            assert_eq!(trap.coord().manhattan(port.coord), 1);
        }
    }

    #[test]
    fn channel_cells_know_their_segment() {
        let f = Fabric::from_ascii(CROSS).unwrap();
        let t = f.topology();
        for (i, seg) in t.segments().iter().enumerate() {
            for (o, coord) in seg.cells().enumerate() {
                assert_eq!(t.channel_at(coord), Some((SegmentId(i as u32), o as u16)));
            }
        }
    }

    #[test]
    fn moves_to_end_counts_cells_plus_junction_step() {
        let f = Fabric::from_ascii(CROSS).unwrap();
        let t = f.topology();
        let seg = &t.segments()[0];
        assert_eq!(seg.len(), 2);
        // From offset 0: 1 move onto end 0's neighbour, 2 moves to end 1.
        assert_eq!(seg.moves_to_end(0, 0), 1);
        assert_eq!(seg.moves_to_end(0, 1), 2);
        assert_eq!(seg.moves_to_end(1, 0), 2);
        assert_eq!(seg.moves_to_end(1, 1), 1);
    }

    #[test]
    fn trap_without_port_is_rejected() {
        let err = Fabric::from_ascii("T....\n.....\n--+--\n").unwrap_err();
        assert_eq!(err, FabricError::TrapWithoutPort(Coord::new(0, 0)));
    }

    #[test]
    fn no_traps_is_rejected() {
        let err = Fabric::from_ascii("--+--\n").unwrap_err();
        assert_eq!(err, FabricError::NoTraps);
    }

    #[test]
    fn nearest_trap_with_predicate() {
        let f = Fabric::from_ascii(CROSS).unwrap();
        let t = f.topology();
        let near_top_left = t.nearest_trap(Coord::new(0, 0), |_| true).unwrap();
        assert_eq!(t.trap(near_top_left).coord(), Coord::new(1, 0));
        let excluded = t
            .nearest_trap(Coord::new(0, 0), |id| id != near_top_left)
            .unwrap();
        assert_eq!(t.trap(excluded).coord(), Coord::new(3, 4));
        assert_eq!(t.nearest_trap(Coord::new(0, 0), |_| false), None);
    }

    #[test]
    fn traps_by_distance_is_sorted() {
        let f = Fabric::from_ascii(CROSS).unwrap();
        let t = f.topology();
        let order = t.traps_by_distance(Coord::new(2, 2));
        let dists: Vec<u32> = order
            .iter()
            .map(|id| t.trap(*id).coord().manhattan(Coord::new(2, 2)))
            .collect();
        let mut sorted = dists.clone();
        sorted.sort_unstable();
        assert_eq!(dists, sorted);
        assert_eq!(order.len(), t.traps().len());
    }

    #[test]
    fn parallel_channels_stay_disconnected() {
        // Two horizontal channels stacked with no junction: 2 segments.
        let f = Fabric::from_ascii("---\n---\nT..\n").unwrap();
        let t = f.topology();
        assert_eq!(t.segments().len(), 2);
        for seg in t.segments() {
            assert_eq!(seg.ends(), [SegmentEnd::Dead, SegmentEnd::Dead]);
        }
    }

    #[test]
    fn port_prefers_north_neighbor() {
        // Trap with channels both north and east: port picks north first.
        let f = Fabric::from_ascii(".-.\n.T-\n...\n").unwrap();
        let t = f.topology();
        let port = t.traps()[0].port();
        assert_eq!(port.coord, Coord::new(0, 1));
    }

    /// Fabrics for the ring-search equivalence property: regular grids
    /// of every pitch the generator picks, plus the committed spec
    /// fabrics (irregular regions, links and ASCII tiles).
    fn ring_search_fabric(kind: u8, rows: u16, cols: u16, pitch: u16) -> Fabric {
        let spec = match kind % 6 {
            0 => return Fabric::quale_45x85(),
            1 => include_str!("../../../examples/fabrics/two_region_bridge.json"),
            2 => include_str!("../../../examples/fabrics/ulb_tiled.json"),
            3 => include_str!("../../../examples/fabrics/nearest_neighbor_6x6.json"),
            _ => return Fabric::regular(rows, cols, pitch).expect("generated regular grid builds"),
        };
        Fabric::parse(spec).expect("committed spec builds")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The ring search returns exactly the linear scan's `(distance,
        /// id)` minimum for any predicate and query point, inside the
        /// grid or beyond it.
        #[test]
        fn ring_search_equals_linear_scan(
            kind in 0u8..6,
            rows in 7u16..40,
            cols in 7u16..40,
            pitch in 2u16..6,
            salt in proptest::prelude::any::<u64>(),
            density in 0u64..101,
            queries in proptest::collection::vec((0u16..120, 0u16..120), 1..8),
        ) {
            let fabric = ring_search_fabric(kind, rows, cols, pitch);
            let t = fabric.topology();
            // A pure pseudo-random predicate: accept roughly `density`
            // percent of the traps, keyed by `salt`.
            let accept = |id: TrapId| {
                let h = (u64::from(id.0) ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 33) % 100 < density
            };
            for (r, c) in queries {
                let to = Coord::new(r, c);
                proptest::prop_assert_eq!(
                    t.nearest_trap(to, accept),
                    t.nearest_trap_linear(to, accept),
                    "query {} on a {}x{} fabric", to, fabric.rows(), fabric.cols()
                );
            }
        }

        /// `nearest_traps(to, k)` is the head of a full sort by
        /// `(distance, id)` for every `k`, including 0 and `k` beyond
        /// the trap count.
        #[test]
        fn nearest_traps_are_the_head_of_a_full_sort(
            kind in 0u8..6,
            rows in 7u16..40,
            cols in 7u16..40,
            pitch in 2u16..6,
            queries in proptest::collection::vec((0u16..120, 0u16..120, 0usize..400), 1..8),
        ) {
            let fabric = ring_search_fabric(kind, rows, cols, pitch);
            let t = fabric.topology();
            for (r, c, k) in queries {
                let to = Coord::new(r, c);
                let mut full: Vec<TrapId> = (0..t.traps().len() as u32).map(TrapId).collect();
                full.sort_by_key(|id| (t.trap(*id).coord().manhattan(to), *id));
                full.truncate(k);
                proptest::prop_assert_eq!(t.nearest_traps(to, k), full, "k = {}", k);
            }
        }
    }
}
