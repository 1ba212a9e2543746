//! The fabric grid container and its ASCII format.

use std::fmt;

use crate::cell::{Cell, Coord};
use crate::error::FabricError;
use crate::spec::FabricInfo;
use crate::topology::Topology;

/// An ion-trap circuit fabric: a rectangular grid of cells plus its derived
/// [`Topology`].
///
/// # Examples
///
/// ```
/// use qspr_fabric::{Cell, Coord, Fabric};
///
/// let fabric = Fabric::from_ascii(
///     "..|..\n\
///      T.|..\n\
///      --+--\n\
///      ..|.T\n\
///      ..|..\n",
/// )?;
/// assert_eq!(fabric.cell(Coord::new(2, 2)), Cell::Junction);
/// assert_eq!(fabric.topology().traps().len(), 2);
/// # Ok::<(), qspr_fabric::FabricError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    rows: u16,
    cols: u16,
    grid: Vec<Cell>,
    topology: Topology,
    /// Provenance metadata attached by the spec elaborator (absent on
    /// directly constructed fabrics). Descriptive only — never physics.
    info: Option<FabricInfo>,
}

impl PartialEq for Fabric {
    fn eq(&self, other: &Fabric) -> bool {
        // The topology is a pure function of the grid plus the capacity
        // overrides, so comparing those compares the physics. The `info`
        // metadata is provenance, not physics, and is excluded: a fabric
        // built from a spec equals the same fabric built directly.
        self.rows == other.rows
            && self.cols == other.cols
            && self.grid == other.grid
            && self.topology.segment_caps() == other.topology.segment_caps()
            && self.topology.junction_caps() == other.topology.junction_caps()
    }
}

impl Eq for Fabric {}

impl Fabric {
    /// Builds a fabric from a row-major cell vector and validates it.
    ///
    /// # Errors
    ///
    /// * [`FabricError::EmptyGrid`] if either dimension is zero;
    /// * [`FabricError::TooLarge`] if a dimension exceeds `u16`;
    /// * [`FabricError::DimensionMismatch`] if `cells.len() != rows*cols`;
    /// * [`FabricError::NoTraps`] / [`FabricError::TrapWithoutPort`] if the
    ///   layout cannot host computation.
    pub fn new(rows: usize, cols: usize, cells: Vec<Cell>) -> Result<Fabric, FabricError> {
        Fabric::with_capacities(rows, cols, cells, &[])
    }

    /// Like [`Fabric::new`], with per-cell capacity overrides (row-major,
    /// same dimensions; empty for a uniform fabric). This is the spec
    /// elaborator's entry point; see [`crate::FabricSpec`].
    ///
    /// # Errors
    ///
    /// As [`Fabric::new`], plus [`FabricError::DimensionMismatch`] when a
    /// non-empty `cell_caps` has the wrong length.
    pub fn with_capacities(
        rows: usize,
        cols: usize,
        cells: Vec<Cell>,
        cell_caps: &[Option<u8>],
    ) -> Result<Fabric, FabricError> {
        if rows == 0 || cols == 0 {
            return Err(FabricError::EmptyGrid);
        }
        if rows > u16::MAX as usize || cols > u16::MAX as usize {
            return Err(FabricError::TooLarge { rows, cols });
        }
        if cells.len() != rows * cols {
            return Err(FabricError::DimensionMismatch {
                expected: rows * cols,
                actual: cells.len(),
            });
        }
        if !cell_caps.is_empty() && cell_caps.len() != rows * cols {
            return Err(FabricError::DimensionMismatch {
                expected: rows * cols,
                actual: cell_caps.len(),
            });
        }
        let (rows, cols) = (rows as u16, cols as u16);
        let topology = Topology::build(rows, cols, &cells, cell_caps)?;
        Ok(Fabric {
            rows,
            cols,
            grid: cells,
            topology,
            info: None,
        })
    }

    /// Parses the ASCII fabric format: one row per line, cells `.`/space
    /// (empty), `T` (trap), `-`/`|` (channels), `+`/`J` (junction). Ragged
    /// lines are padded with empty cells on the right.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownChar`] for unrecognized characters and
    /// any validation error from [`Fabric::new`].
    pub fn from_ascii(text: &str) -> Result<Fabric, FabricError> {
        let lines: Vec<&str> = text.lines().collect();
        let (rows, cols) = ascii_dims(&lines);
        let mut cells = vec![Cell::Empty; rows * cols];
        read_ascii(&lines, |r, c, cell| {
            cells[r * cols + c] = cell;
            Ok(())
        })?;
        Fabric::new(rows, cols, cells)
    }

    /// Renders the fabric in the ASCII format accepted by
    /// [`Fabric::from_ascii`], with a trailing newline.
    pub fn to_ascii(&self) -> String {
        let mut out = String::with_capacity((self.cols as usize + 1) * self.rows as usize);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(self.cell(Coord::new(r, c)).to_char());
            }
            out.push('\n');
        }
        out
    }

    /// Number of grid rows.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Number of grid columns.
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// The cell at `coord`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` lies outside the grid.
    pub fn cell(&self, coord: Coord) -> Cell {
        assert!(
            coord.row < self.rows && coord.col < self.cols,
            "coordinate {coord} outside {}×{} fabric",
            self.rows,
            self.cols
        );
        self.grid[coord.row as usize * self.cols as usize + coord.col as usize]
    }

    /// `true` when `coord` lies inside the grid.
    pub fn in_bounds(&self, coord: Coord) -> bool {
        coord.row < self.rows && coord.col < self.cols
    }

    /// The geometric center of the fabric, the anchor of QUALE-style
    /// center placement.
    pub fn center(&self) -> Coord {
        Coord::new(self.rows / 2, self.cols / 2)
    }

    /// The derived connectivity (segments, junctions, trap ports).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Spec provenance metadata, when this fabric was elaborated from a
    /// [`crate::FabricSpec`]; `None` for directly constructed fabrics.
    pub fn info(&self) -> Option<&FabricInfo> {
        self.info.as_ref()
    }

    /// Attaches spec provenance metadata.
    pub(crate) fn set_info(&mut self, info: FabricInfo) {
        self.info = Some(info);
    }
}

/// The `(rows, cols)` of ASCII art: one row per line, as wide as its
/// longest line.
pub(crate) fn ascii_dims<S: AsRef<str>>(lines: &[S]) -> (usize, usize) {
    let cols = lines.iter().map(|l| l.as_ref().chars().count()).max();
    (lines.len(), cols.unwrap_or(0))
}

/// The one reader of the ASCII cell format, shared by
/// [`Fabric::from_ascii`] and the spec's `ascii` regions and tiles:
/// hands `put` the 0-based `(row, col)` and cell of every character in
/// row-major order. Padding of ragged lines is left to the caller.
///
/// # Errors
///
/// [`FabricError::UnknownChar`] (1-based) at the first character that is
/// not a cell, or the first error `put` returns.
pub(crate) fn read_ascii<S: AsRef<str>>(
    lines: &[S],
    mut put: impl FnMut(usize, usize, Cell) -> Result<(), FabricError>,
) -> Result<(), FabricError> {
    for (r, line) in lines.iter().enumerate() {
        for (c, ch) in line.as_ref().chars().enumerate() {
            let cell = Cell::from_char(ch).ok_or(FabricError::UnknownChar {
                line: r + 1,
                column: c + 1,
                ch,
            })?;
            put(r, c, cell)?;
        }
    }
    Ok(())
}

impl fmt::Display for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "\
..|..
T.|..
--+--
..|.T
..|..
";

    #[test]
    fn ascii_round_trip() {
        let f = Fabric::from_ascii(SMALL).unwrap();
        assert_eq!(f.to_ascii(), SMALL);
        let g = Fabric::from_ascii(&f.to_ascii()).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn ragged_lines_are_padded() {
        let f = Fabric::from_ascii("--+--\n..|\n..T\n").unwrap();
        assert_eq!(f.cols(), 5);
        assert_eq!(f.cell(Coord::new(1, 4)), Cell::Empty);
    }

    #[test]
    fn unknown_char_is_located() {
        let err = Fabric::from_ascii("--+--\n..X..\n").unwrap_err();
        assert_eq!(
            err,
            FabricError::UnknownChar {
                line: 2,
                column: 3,
                ch: 'X'
            }
        );
    }

    #[test]
    fn empty_inputs_rejected() {
        assert_eq!(Fabric::from_ascii(""), Err(FabricError::EmptyGrid));
        assert_eq!(Fabric::new(0, 5, vec![]), Err(FabricError::EmptyGrid));
        assert!(matches!(
            Fabric::new(2, 2, vec![Cell::Empty; 3]),
            Err(FabricError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn center_is_middle_cell() {
        let f = Fabric::from_ascii(SMALL).unwrap();
        assert_eq!(f.center(), Coord::new(2, 2));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn cell_out_of_bounds_panics() {
        let f = Fabric::from_ascii(SMALL).unwrap();
        let _ = f.cell(Coord::new(99, 0));
    }

    #[test]
    fn in_bounds() {
        let f = Fabric::from_ascii(SMALL).unwrap();
        assert!(f.in_bounds(Coord::new(4, 4)));
        assert!(!f.in_bounds(Coord::new(5, 0)));
        assert!(!f.in_bounds(Coord::new(0, 5)));
    }

    #[test]
    fn display_matches_ascii() {
        let f = Fabric::from_ascii(SMALL).unwrap();
        assert_eq!(format!("{f}"), SMALL);
    }
}
