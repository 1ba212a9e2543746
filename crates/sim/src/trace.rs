//! Micro-command traces: the quantum-control command stream a mapping
//! produces (the paper's `T` in §IV.A).

use std::fmt;

use qspr_fabric::{Coord, Time};
use qspr_qasm::{Gate, QubitId};
use qspr_sched::InstrId;

/// One command issued by the quantum system controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroCommand {
    /// Relocate `qubit` one cell.
    Move {
        /// The relocated qubit.
        qubit: QubitId,
        /// Cell it came from.
        from: Coord,
        /// Cell it arrives in.
        to: Coord,
    },
    /// Change `qubit`'s movement direction at junction `at`.
    Turn {
        /// The turning qubit.
        qubit: QubitId,
        /// The junction cell.
        at: Coord,
    },
    /// Begin executing a gate in the trap at `trap`.
    GateStart {
        /// The QIDG node.
        instr: InstrId,
        /// The gate operation.
        gate: Gate,
        /// The trap cell hosting the operation.
        trap: Coord,
        /// First operand.
        q0: QubitId,
        /// Second operand for 2-qubit gates.
        q1: Option<QubitId>,
    },
    /// Finish executing the gate of `instr`.
    GateEnd {
        /// The QIDG node.
        instr: InstrId,
    },
}

/// A timestamped [`MicroCommand`]. Times are the *completion* instants of
/// moves/turns and the start/end instants of gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Absolute simulation time in microseconds.
    pub time: Time,
    /// The command.
    pub command: MicroCommand,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>8}µs] ", self.time)?;
        match self.command {
            MicroCommand::Move { qubit, from, to } => {
                write!(f, "move  {qubit} {from} -> {to}")
            }
            MicroCommand::Turn { qubit, at } => write!(f, "turn  {qubit} at {at}"),
            MicroCommand::GateStart {
                instr,
                gate,
                trap,
                q0,
                q1,
            } => match q1 {
                Some(q1) => write!(f, "gate+ {instr} {gate} {q0},{q1} in {trap}"),
                None => write!(f, "gate+ {instr} {gate} {q0} in {trap}"),
            },
            MicroCommand::GateEnd { instr } => write!(f, "gate- {instr}"),
        }
    }
}

/// The full command stream of one mapped execution, sorted by time.
///
/// # Examples
///
/// ```
/// use qspr_fabric::{Fabric, TechParams};
/// use qspr_qasm::Program;
/// use qspr_sim::{FlowPolicy, Mapper, Placement};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fabric = Fabric::quale_45x85();
/// let tech = TechParams::date2012();
/// let program = Program::parse("QUBIT a\nQUBIT b\nC-X a,b\n")?;
/// let placement = Placement::center(&fabric, 2);
/// let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
///     .record_trace(true)
///     .map(&program, &placement)?;
/// let trace = outcome.trace().expect("trace was recorded");
/// assert!(trace.len() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

/// Tie-break rank of commands at equal timestamps: gate ends, then move
/// completions, then turn completions, then gate starts — ends precede
/// starts so same-instant trap handovers stay well-formed, and arrivals
/// precede the gate they enable — with the qubit/instruction id as the
/// final key. This makes entry order a pure function of the entry *set*.
fn command_rank(command: &MicroCommand) -> (u8, u32) {
    match *command {
        MicroCommand::GateEnd { instr } => (0, instr.0),
        MicroCommand::Move { qubit, .. } => (1, qubit.0),
        MicroCommand::Turn { qubit, .. } => (2, qubit.0),
        MicroCommand::GateStart { instr, .. } => (3, instr.0),
    }
}

impl Trace {
    /// Wraps raw entries, sorting them by time with an explicit stable
    /// secondary key (command kind, then qubit/instruction id), so traces
    /// are reproducible regardless of the order entries were recorded in.
    pub fn new(mut entries: Vec<TraceEntry>) -> Trace {
        entries.sort_by_key(|e| (e.time, command_rank(&e.command)));
        Trace { entries }
    }

    /// The entries in time order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no commands were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEntry> {
        self.entries.iter()
    }

    /// Total moves recorded.
    pub fn move_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.command, MicroCommand::Move { .. }))
            .count()
    }

    /// Total turns recorded.
    pub fn turn_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.command, MicroCommand::Turn { .. }))
            .count()
    }

    /// The time of the last command (the trace's makespan).
    pub fn end_time(&self) -> Time {
        self.entries.last().map_or(0, |e| e.time)
    }

    /// The time-mirrored trace: entry times become `end − t`, moves swap
    /// their endpoints, gate starts and ends swap roles, and each gate is
    /// replaced by its inverse.
    ///
    /// This realizes the paper's "reverse of `T'_k`" (§IV.A): when the
    /// best MVFB pass is a *backward* (uncompute) execution, the reported
    /// control trace is its reversal, which executes the original
    /// (forward) computation.
    pub fn reversed(&self) -> Trace {
        let end = self.end_time();
        let entries = self
            .entries
            .iter()
            .rev()
            .map(|e| {
                let command = match e.command {
                    MicroCommand::Move { qubit, from, to } => MicroCommand::Move {
                        qubit,
                        from: to,
                        to: from,
                    },
                    MicroCommand::Turn { qubit, at } => MicroCommand::Turn { qubit, at },
                    MicroCommand::GateStart {
                        instr,
                        gate,
                        trap,
                        q0,
                        q1,
                    } => MicroCommand::GateStart {
                        instr,
                        gate: gate.inverse(),
                        trap,
                        q0,
                        q1,
                    },
                    MicroCommand::GateEnd { instr } => MicroCommand::GateEnd { instr },
                };
                TraceEntry {
                    time: end - e.time,
                    command,
                }
            })
            .collect();
        // Gate start/end pairs swap naturally under time mirroring; the
        // constructor re-sorts so starts precede ends again.
        Trace::new(entries)
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEntry;
    type IntoIter = std::slice::Iter<'a, TraceEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(time: Time, command: MicroCommand) -> TraceEntry {
        TraceEntry { time, command }
    }

    #[test]
    fn entries_are_sorted_on_construction() {
        let t = Trace::new(vec![
            entry(
                5,
                MicroCommand::Turn {
                    qubit: QubitId(0),
                    at: Coord::new(0, 0),
                },
            ),
            entry(
                1,
                MicroCommand::Move {
                    qubit: QubitId(0),
                    from: Coord::new(0, 1),
                    to: Coord::new(0, 0),
                },
            ),
        ]);
        assert_eq!(t.entries()[0].time, 1);
        assert_eq!(t.end_time(), 5);
        assert_eq!(t.move_count(), 1);
        assert_eq!(t.turn_count(), 1);
    }

    #[test]
    fn reversal_mirrors_times_and_moves() {
        let t = Trace::new(vec![
            entry(
                1,
                MicroCommand::Move {
                    qubit: QubitId(0),
                    from: Coord::new(0, 0),
                    to: Coord::new(0, 1),
                },
            ),
            entry(
                11,
                MicroCommand::Move {
                    qubit: QubitId(0),
                    from: Coord::new(0, 1),
                    to: Coord::new(0, 2),
                },
            ),
        ]);
        let r = t.reversed();
        assert_eq!(r.entries()[0].time, 0);
        match r.entries()[0].command {
            MicroCommand::Move { from, to, .. } => {
                assert_eq!(from, Coord::new(0, 2));
                assert_eq!(to, Coord::new(0, 1));
            }
            _ => panic!("expected a move"),
        }
        // Double reversal restores the command sequence and pacing up to a
        // constant shift (times are completion instants, and mirroring
        // happens around the last completion).
        let rr = t.reversed().reversed();
        let commands = |tr: &Trace| tr.iter().map(|e| e.command).collect::<Vec<_>>();
        assert_eq!(commands(&rr), commands(&t));
        let deltas = |tr: &Trace| {
            tr.entries()
                .windows(2)
                .map(|w| w[1].time - w[0].time)
                .collect::<Vec<_>>()
        };
        assert_eq!(deltas(&rr), deltas(&t));
    }

    #[test]
    fn reversal_inverts_gates() {
        let t = Trace::new(vec![entry(
            0,
            MicroCommand::GateStart {
                instr: InstrId(0),
                gate: Gate::S,
                trap: Coord::new(1, 1),
                q0: QubitId(0),
                q1: None,
            },
        )]);
        match t.reversed().entries()[0].command {
            MicroCommand::GateStart { gate, .. } => assert_eq!(gate, Gate::Sdg),
            _ => panic!("expected gate start"),
        }
    }

    #[test]
    fn equal_time_entries_order_independently_of_input_order() {
        let at = |t| {
            vec![
                entry(
                    t,
                    MicroCommand::GateStart {
                        instr: InstrId(1),
                        gate: Gate::H,
                        trap: Coord::new(1, 1),
                        q0: QubitId(1),
                        q1: None,
                    },
                ),
                entry(
                    t,
                    MicroCommand::Move {
                        qubit: QubitId(1),
                        from: Coord::new(0, 0),
                        to: Coord::new(0, 1),
                    },
                ),
                entry(t, MicroCommand::GateEnd { instr: InstrId(0) }),
                entry(
                    t,
                    MicroCommand::Move {
                        qubit: QubitId(0),
                        from: Coord::new(2, 0),
                        to: Coord::new(2, 1),
                    },
                ),
            ]
        };
        let mut forward = at(7);
        let mut backward = at(7);
        backward.reverse();
        let a = Trace::new(forward.clone());
        let b = Trace::new(backward);
        assert_eq!(a, b, "entry order must not depend on insertion order");
        // And the pinned kind order: end, moves (by qubit), start.
        forward.swap(0, 2);
        forward.swap(1, 3);
        forward.swap(2, 3);
        assert_eq!(a.entries(), &forward[..]);
    }

    #[test]
    fn display_is_nonempty() {
        let e = entry(3, MicroCommand::GateEnd { instr: InstrId(2) });
        assert!(e.to_string().contains("gate-"));
    }
}
