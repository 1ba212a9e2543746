//! Cell-level route plans: the micro-command material for one qubit's
//! relocation.

use qspr_fabric::{Coord, Time, TrapId};

use crate::resource::Resource;

/// One micro-relocation of a qubit (paper §II.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Advance one cell (into `to`) without changing direction: `T_move`.
    Move {
        /// The cell the qubit occupies after the step.
        to: Coord,
    },
    /// Change movement direction at the junction cell `at`: `T_turn`.
    Turn {
        /// The junction where the turn happens.
        at: Coord,
    },
}

/// A booked resource with the relative time the qubit vacates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceUse {
    /// The segment or junction occupied.
    pub resource: Resource,
    /// Offset from the route's start time at which the qubit exits the
    /// resource (and the booking may be released).
    pub exit_offset: Time,
}

/// The route of one qubit from its current trap to a target trap.
///
/// Holds the full cell-level [`Step`] sequence (for micro-command traces
/// and validation), the total move/turn counts, and the resource bookings
/// with release offsets. The physical travel duration is
/// `moves·T_move + turns·T_turn`; the congestion-weighted Dijkstra cost
/// used for path *selection* is available as [`RoutePlan::est_cost`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePlan {
    from: TrapId,
    to: TrapId,
    steps: Vec<Step>,
    resources: Vec<ResourceUse>,
    moves: u32,
    turns: u32,
    duration: Time,
    est_cost: u64,
}

impl RoutePlan {
    /// A plan for a qubit that is already where it needs to be.
    pub fn stationary(trap: TrapId) -> RoutePlan {
        RoutePlan {
            from: trap,
            to: trap,
            steps: Vec::new(),
            resources: Vec::new(),
            moves: 0,
            turns: 0,
            duration: 0,
            est_cost: 0,
        }
    }

    /// Assembles a plan from raw steps. `resource_exits` pairs each booked
    /// resource with the index of the step whose completion releases it,
    /// in non-decreasing step order, so one pass over the steps counts
    /// the moves and turns and reads each exit's offset off the running
    /// clock. The plan owns exact-length copies of both slices.
    ///
    /// # Panics
    ///
    /// Panics if a resource exit index is out of range or out of order
    /// (internal router invariant).
    pub(crate) fn from_steps(
        from: TrapId,
        to: TrapId,
        steps: &[Step],
        resource_exits: &[(Resource, usize)],
        t_move: Time,
        t_turn: Time,
        est_cost: u64,
    ) -> RoutePlan {
        let mut resources = Vec::with_capacity(resource_exits.len());
        let mut exits = resource_exits.iter().peekable();
        let mut t = 0;
        let mut moves = 0;
        let mut turns = 0;
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Move { .. } => {
                    t += t_move;
                    moves += 1;
                }
                Step::Turn { .. } => {
                    t += t_turn;
                    turns += 1;
                }
            }
            while let Some(&(resource, _)) = exits.next_if(|(_, idx)| *idx == i) {
                resources.push(ResourceUse {
                    resource,
                    exit_offset: t,
                });
            }
        }
        assert!(
            exits.next().is_none(),
            "resource exit out of range or out of order"
        );
        RoutePlan {
            from,
            to,
            steps: steps.to_vec(),
            resources,
            moves,
            turns,
            duration: t,
            est_cost,
        }
    }

    /// The seed implementation of [`RoutePlan::from_steps`], kept as the
    /// reference for the plan-builder property tests: a `cumulative`
    /// vector of per-step clock readings, indexed by each exit in
    /// whatever order the exits come.
    #[cfg(test)]
    pub(crate) fn from_steps_reference(
        from: TrapId,
        to: TrapId,
        steps: Vec<Step>,
        resource_exits: Vec<(Resource, usize)>,
        t_move: Time,
        t_turn: Time,
        est_cost: u64,
    ) -> RoutePlan {
        let mut cumulative = Vec::with_capacity(steps.len());
        let mut t = 0;
        let mut moves = 0;
        let mut turns = 0;
        for step in &steps {
            match step {
                Step::Move { .. } => {
                    t += t_move;
                    moves += 1;
                }
                Step::Turn { .. } => {
                    t += t_turn;
                    turns += 1;
                }
            }
            cumulative.push(t);
        }
        let resources = resource_exits
            .into_iter()
            .map(|(resource, idx)| ResourceUse {
                resource,
                exit_offset: cumulative[idx],
            })
            .collect();
        RoutePlan {
            from,
            to,
            steps,
            resources,
            moves,
            turns,
            duration: t,
            est_cost,
        }
    }

    /// The trap the qubit starts from.
    pub fn from_trap(&self) -> TrapId {
        self.from
    }

    /// The trap the qubit ends in.
    pub fn to_trap(&self) -> TrapId {
        self.to
    }

    /// The cell-level relocation sequence.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Resources this route books, with release offsets sorted in route
    /// order (non-decreasing offsets).
    pub fn resources(&self) -> &[ResourceUse] {
        &self.resources
    }

    /// Number of one-cell moves.
    pub fn moves(&self) -> u32 {
        self.moves
    }

    /// Number of direction changes at junctions.
    pub fn turns(&self) -> u32 {
        self.turns
    }

    /// Physical travel time: `moves·T_move + turns·T_turn`.
    pub fn duration(&self) -> Time {
        self.duration
    }

    /// The congestion-weighted cost Dijkstra optimized; ≥ the share of
    /// [`RoutePlan::duration`] spent on channels when the fabric is quiet.
    pub fn est_cost(&self) -> u64 {
        self.est_cost
    }

    /// `true` when the qubit does not move at all.
    pub fn is_stationary(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qspr_fabric::SegmentId;

    #[test]
    fn stationary_plan_is_empty() {
        let p = RoutePlan::stationary(TrapId(3));
        assert!(p.is_stationary());
        assert_eq!(p.duration(), 0);
        assert_eq!(p.from_trap(), p.to_trap());
        assert!(p.resources().is_empty());
    }

    #[test]
    fn durations_and_exit_offsets() {
        let steps = vec![
            Step::Move {
                to: Coord::new(0, 1),
            },
            Step::Move {
                to: Coord::new(0, 2),
            },
            Step::Turn {
                at: Coord::new(0, 2),
            },
            Step::Move {
                to: Coord::new(1, 2),
            },
        ];
        let res = [(Resource::Segment(SegmentId(0)), 1)];
        let p = RoutePlan::from_steps(TrapId(0), TrapId(1), &steps, &res, 1, 10, 42);
        assert_eq!(p.moves(), 3);
        assert_eq!(p.turns(), 1);
        assert_eq!(p.duration(), 3 + 10);
        assert_eq!(p.est_cost(), 42);
        // Segment released after the second move completes, at t=2.
        assert_eq!(p.resources()[0].exit_offset, 2);
        assert_eq!(
            p,
            RoutePlan::from_steps_reference(TrapId(0), TrapId(1), steps, res.to_vec(), 1, 10, 42)
        );
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_exits_are_refused() {
        let steps = [Step::Move {
            to: Coord::new(0, 1),
        }; 3];
        let res = [
            (Resource::Segment(SegmentId(0)), 2),
            (Resource::Segment(SegmentId(1)), 1),
        ];
        RoutePlan::from_steps(TrapId(0), TrapId(1), &steps, &res, 1, 10, 0);
    }
}
