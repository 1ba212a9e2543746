//! Fabric construction and validation errors.

use std::error::Error;
use std::fmt;

use crate::cell::Coord;

/// Why a fabric description was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FabricError {
    /// The ASCII description contained a character that is not a cell.
    UnknownChar {
        /// 1-based line of the offending character.
        line: usize,
        /// 1-based column of the offending character.
        column: usize,
        /// The character itself.
        ch: char,
    },
    /// The description had no rows or no columns.
    EmptyGrid,
    /// The grid dimensions exceed `u16` addressing.
    TooLarge {
        /// Supplied row count.
        rows: usize,
        /// Supplied column count.
        cols: usize,
    },
    /// The cell vector length does not match `rows × cols`.
    DimensionMismatch {
        /// Expected number of cells.
        expected: usize,
        /// Supplied number of cells.
        actual: usize,
    },
    /// A fabric needs at least one trap to host computation.
    NoTraps,
    /// A trap has no adjacent channel cell, so no qubit can ever enter it.
    TrapWithoutPort(Coord),
    /// A regular-fabric spec was inconsistent (e.g. pitch < 2).
    BadSpec(String),
    /// The grid holds more cells than the caller's budget allows
    /// ([`crate::Fabric::parse_within`]); rejected before any cell is
    /// built.
    TooManyCells {
        /// Cells the description would build (`rows × cols`).
        cells: usize,
        /// The budget.
        max: usize,
    },
    /// A booking counter hit its hard ceiling (`u8::MAX` concurrent
    /// bookings on one resource): the capacity configuration admits more
    /// simultaneous users than the occupancy accounting can count.
    CapacityOverflow {
        /// Display form of the saturated resource (e.g. `seg#3`).
        resource: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownChar { line, column, ch } => {
                write!(
                    f,
                    "line {line}, column {column}: unknown cell character {ch:?}"
                )
            }
            FabricError::EmptyGrid => write!(f, "fabric grid is empty"),
            FabricError::TooLarge { rows, cols } => {
                write!(f, "grid {rows}×{cols} exceeds u16 addressing")
            }
            FabricError::DimensionMismatch { expected, actual } => {
                write!(f, "expected {expected} cells, got {actual}")
            }
            FabricError::NoTraps => write!(f, "fabric contains no traps"),
            FabricError::TrapWithoutPort(c) => {
                write!(f, "trap at {c} has no adjacent channel cell")
            }
            FabricError::BadSpec(msg) => write!(f, "invalid fabric spec: {msg}"),
            FabricError::TooManyCells { cells, max } => {
                write!(
                    f,
                    "fabric grid of {cells} cells exceeds the {max}-cell budget"
                )
            }
            FabricError::CapacityOverflow { resource } => {
                write!(f, "booking counter saturated on {resource}")
            }
        }
    }
}

impl Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = FabricError::UnknownChar {
            line: 2,
            column: 5,
            ch: '?',
        };
        assert!(e.to_string().contains("line 2"));
        assert!(e.to_string().contains('?'));
        let e = FabricError::TrapWithoutPort(Coord::new(1, 1));
        assert!(e.to_string().contains("(1, 1)"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<FabricError>();
    }
}
