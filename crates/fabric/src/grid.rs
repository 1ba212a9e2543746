//! The fabric grid container and its ASCII format.

use std::fmt;

use crate::cell::{Cell, Coord};
use crate::error::FabricError;
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
}

impl PartialEq for Fabric {
    fn eq(&self, other: &Fabric) -> bool {
        // The topology is a pure function of the grid.
        self.rows == other.rows && self.cols == other.cols && self.grid == other.grid
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
        let (rows, cols) = (rows as u16, cols as u16);
        let topology = Topology::build(rows, cols, &cells)?;
        Ok(Fabric {
            rows,
            cols,
            grid: cells,
            topology,
        })
    }

    /// Parses the ASCII fabric format: one row per line, cells `.`/space
    /// (empty), `T` (trap), `-`/`|` (channels), `+`/`J` (junction). Ragged
    /// lines are padded with empty cells on the right.
    ///
    /// This is the loader behind every `--fabric <file>` flag.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::UnknownChar`] for unrecognized characters and
    /// any validation error from [`Fabric::new`].
    pub fn from_ascii(text: &str) -> Result<Fabric, FabricError> {
        Fabric::parse_within(text, usize::MAX)
    }

    /// [`Fabric::from_ascii`] for untrusted documents: art whose grid
    /// would hold more than `max_cells` cells is rejected with
    /// [`FabricError::TooManyCells`] before any cell is built, so a few
    /// bytes cannot buy an arbitrarily large fabric.
    ///
    /// # Errors
    ///
    /// As [`Fabric::from_ascii`], plus [`FabricError::TooManyCells`].
    pub fn parse_within(text: &str, max_cells: usize) -> Result<Fabric, FabricError> {
        let lines: Vec<&str> = text.lines().collect();
        let rows = lines.len();
        let cols = lines.iter().map(|l| l.chars().count()).max().unwrap_or(0);
        let cells = rows.saturating_mul(cols);
        if cells > max_cells {
            return Err(FabricError::TooManyCells {
                cells,
                max: max_cells,
            });
        }
        let mut grid = vec![Cell::Empty; cells];
        for (r, line) in lines.iter().enumerate() {
            for (c, ch) in line.chars().enumerate() {
                grid[r * cols + c] = Cell::from_char(ch).ok_or(FabricError::UnknownChar {
                    line: r + 1,
                    column: c + 1,
                    ch,
                })?;
            }
        }
        Fabric::new(rows, cols, grid)
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
    fn cell_budget_rejects_oversized_art_before_building() {
        let art = "T-\n".repeat(600);
        assert_eq!(
            Fabric::parse_within(&art, 1000),
            Err(FabricError::TooManyCells {
                cells: 1200,
                max: 1000
            })
        );
        assert!(Fabric::parse_within(&art, 1200).is_ok());
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
