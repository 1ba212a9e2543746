//! Mapping and trace-validation errors.

use std::error::Error;
use std::fmt;

use qspr_fabric::{FabricError, Time, TrapId};
use qspr_qasm::QubitId;
use qspr_sched::InstrId;

/// Why a program could not be mapped onto a fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// The placement covers a different number of qubits than the program.
    QubitCountMismatch {
        /// Qubits in the placement.
        placement: usize,
        /// Qubits declared by the program.
        program: usize,
    },
    /// A placement referenced a trap id outside the fabric.
    TrapOutOfRange(TrapId),
    /// More than two qubits were placed into the same trap (traps hold at
    /// most two ions).
    DuplicateTrap(TrapId),
    /// The fabric has fewer traps than the program has qubits.
    NotEnoughTraps {
        /// Traps available.
        traps: usize,
        /// Qubits required.
        qubits: usize,
    },
    /// The simulation stalled: some instructions can never issue (e.g. a
    /// disconnected fabric leaves an operand pair unroutable).
    Stalled {
        /// Number of instructions that never finished.
        remaining: usize,
    },
    /// A fabric resource's booking counter saturated mid-run
    /// ([`FabricError::CapacityOverflow`]): the capacity configuration
    /// admits more simultaneous users than the occupancy accounting can
    /// count, so the simulation result would be unsound.
    Fabric(FabricError),
}

impl From<FabricError> for MapError {
    fn from(e: FabricError) -> MapError {
        MapError::Fabric(e)
    }
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::QubitCountMismatch { placement, program } => write!(
                f,
                "placement has {placement} qubits but the program declares {program}"
            ),
            MapError::TrapOutOfRange(t) => write!(f, "placement references unknown {t}"),
            MapError::DuplicateTrap(t) => {
                write!(f, "more than two qubits placed into {t}")
            }
            MapError::NotEnoughTraps { traps, qubits } => {
                write!(f, "fabric has {traps} traps but {qubits} qubits need seats")
            }
            MapError::Stalled { remaining } => write!(
                f,
                "mapping stalled with {remaining} instruction(s) blocked forever"
            ),
            MapError::Fabric(e) => write!(f, "fabric resource accounting failed: {e}"),
        }
    }
}

impl Error for MapError {}

/// An invariant violation found while replaying a [`crate::Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// Trace entries are not sorted by time.
    TimeNotMonotone {
        /// Index of the offending entry.
        index: usize,
    },
    /// A move teleported (|from − to| ≠ 1) or started from the wrong cell.
    BrokenMove {
        /// The qubit that moved.
        qubit: QubitId,
        /// Index of the offending entry.
        index: usize,
    },
    /// A qubit moved into a cell that is not walkable (empty cell) or
    /// entered a trap cell it has no business in.
    BadDestination {
        /// The qubit that moved.
        qubit: QubitId,
        /// Index of the offending entry.
        index: usize,
    },
    /// A turn happened away from a junction.
    TurnOutsideJunction {
        /// The turning qubit.
        qubit: QubitId,
        /// Index of the offending entry.
        index: usize,
    },
    /// A gate started while an operand was not in the gate's trap.
    OperandMissing {
        /// Index of the offending entry.
        index: usize,
    },
    /// A gate executed outside a trap cell.
    GateOutsideTrap {
        /// Index of the offending entry.
        index: usize,
    },
    /// More than two qubits co-located in one trap.
    TrapOverflow {
        /// Index of the offending entry.
        index: usize,
    },
    /// More qubits inside a channel segment than its capacity.
    ChannelOverflow {
        /// Index of the offending entry.
        index: usize,
    },
    /// More qubits inside a junction than its capacity.
    JunctionOverflow {
        /// Index of the offending entry.
        index: usize,
    },
    /// A gate's end did not follow its start by exactly the gate delay.
    BadGateTiming {
        /// Index of the offending entry.
        index: usize,
        /// Expected delay.
        expected: Time,
    },
    /// A qubit's move or turn completed sooner than `T_move` or
    /// `T_turn` after its previous move, turn or gate end.
    TooFast {
        /// The qubit that moved or turned.
        qubit: QubitId,
        /// Index of the offending entry.
        index: usize,
    },
    /// A qubit moved or turned between its gate's start and end.
    MoveDuringGate {
        /// The qubit that moved or turned.
        qubit: QubitId,
        /// Index of the offending entry.
        index: usize,
    },
    /// A gate started before one of its QIDG predecessors ended.
    DependencyViolated {
        /// Index of the offending entry.
        index: usize,
        /// The predecessor that had not ended.
        pred: InstrId,
    },
    /// A gate ended that never started, started or ended twice, or
    /// names no instruction of the program.
    UnmatchedGate {
        /// Index of the offending entry.
        index: usize,
    },
    /// An instruction of the program has no gate start in the trace.
    GateNeverStarted {
        /// The instruction.
        instr: InstrId,
    },
    /// An instruction's gate started but has no end in the trace.
    GateNeverEnded {
        /// The instruction.
        instr: InstrId,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::TimeNotMonotone { index } => {
                write!(f, "entry {index}: time goes backwards")
            }
            TraceError::BrokenMove { qubit, index } => {
                write!(f, "entry {index}: {qubit} move is discontinuous")
            }
            TraceError::BadDestination { qubit, index } => {
                write!(f, "entry {index}: {qubit} moved into a non-walkable cell")
            }
            TraceError::TurnOutsideJunction { qubit, index } => {
                write!(f, "entry {index}: {qubit} turned outside a junction")
            }
            TraceError::OperandMissing { index } => {
                write!(f, "entry {index}: gate started without its operands")
            }
            TraceError::GateOutsideTrap { index } => {
                write!(f, "entry {index}: gate executed outside a trap")
            }
            TraceError::TrapOverflow { index } => {
                write!(f, "entry {index}: more than two qubits in a trap")
            }
            TraceError::ChannelOverflow { index } => {
                write!(f, "entry {index}: channel capacity exceeded")
            }
            TraceError::JunctionOverflow { index } => {
                write!(f, "entry {index}: junction capacity exceeded")
            }
            TraceError::BadGateTiming { index, expected } => {
                write!(f, "entry {index}: gate did not take {expected}µs")
            }
            TraceError::TooFast { qubit, index } => {
                write!(f, "entry {index}: {qubit} moved or turned too soon")
            }
            TraceError::MoveDuringGate { qubit, index } => {
                write!(f, "entry {index}: {qubit} moved or turned during its gate")
            }
            TraceError::DependencyViolated { index, pred } => {
                write!(f, "entry {index}: gate started before {pred} ended")
            }
            TraceError::UnmatchedGate { index } => {
                write!(f, "entry {index}: gate start/end mismatch")
            }
            TraceError::GateNeverStarted { instr } => {
                write!(f, "instruction {instr} never started")
            }
            TraceError::GateNeverEnded { instr } => {
                write!(f, "instruction {instr} started but never ended")
            }
        }
    }
}

impl Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = MapError::Stalled { remaining: 3 };
        assert!(e.to_string().contains("3 instruction"));
        let e = TraceError::ChannelOverflow { index: 7 };
        assert!(e.to_string().contains("entry 7"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<MapError>();
        assert_error::<TraceError>();
    }
}
