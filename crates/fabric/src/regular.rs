//! Generator for regular macro-tile fabrics, including the 45×85 layout
//! standing in for the fabric released with QUALE.

use crate::cell::{Cell, Coord};
use crate::error::FabricError;
use crate::grid::Fabric;

impl Fabric {
    /// A regular grid fabric: channel rows and columns run at every
    /// multiple of `pitch`, junctions sit at their crossings, and traps
    /// occupy the corners of each tile interior (cells whose in-tile
    /// offsets are 1 or `pitch-1` in both axes) wherever a channel is
    /// adjacent, which guards partial tiles at ragged edges.
    ///
    /// With `pitch = 4` this reproduces the macro-structure of the QUALE
    /// fabric: a sea of 3×3 tile interiors with four traps each.
    ///
    /// # Examples
    ///
    /// ```
    /// use qspr_fabric::Fabric;
    ///
    /// let fabric = Fabric::regular(9, 9, 4)?;
    /// assert_eq!(fabric.topology().junctions().len(), 9);
    /// assert_eq!(fabric.topology().traps().len(), 16);
    /// # Ok::<(), qspr_fabric::FabricError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadRegular`] when `pitch < 2` or the grid is too
    /// small to contain a full tile (needs at least `pitch+1` in each
    /// dimension), plus any validation error from [`Fabric::new`].
    pub fn regular(rows: u16, cols: u16, pitch: u16) -> Result<Fabric, FabricError> {
        if pitch < 2 || rows <= pitch || cols <= pitch {
            return Err(FabricError::BadRegular { rows, cols, pitch });
        }
        let cells = (0..rows)
            .flat_map(|r| (0..cols).map(move |c| regular_cell(rows, cols, pitch, r, c)))
            .collect();
        Fabric::new(usize::from(rows), usize::from(cols), cells)
    }

    /// The 45×85 fabric used for every experiment in the paper (Fig. 4),
    /// reconstructed as a regular pitch-4 macro-tile layout: 264 junctions,
    /// 924 traps.
    ///
    /// ```
    /// use qspr_fabric::Fabric;
    /// let f = Fabric::quale_45x85();
    /// assert_eq!(f.topology().junctions().len(), 264);
    /// ```
    pub fn quale_45x85() -> Fabric {
        Fabric::regular(45, 85, 4).expect("the QUALE grid is statically valid")
    }
}

/// The cell at `(r, c)` of a `rows × cols` regular grid (see
/// [`Fabric::regular`]).
fn regular_cell(rows: u16, cols: u16, pitch: u16, r: u16, c: u16) -> Cell {
    let on_line = |x: u16| x % pitch == 0;
    let corner = |x: u16| x % pitch == 1 || x % pitch == pitch - 1;
    match (on_line(r), on_line(c)) {
        (true, true) => Cell::Junction,
        (true, false) => Cell::HChannel,
        (false, true) => Cell::VChannel,
        (false, false) => {
            let has_port = Coord::new(r, c)
                .neighbors(rows, cols)
                .any(|n| on_line(n.row) != on_line(n.col));
            if corner(r) && corner(c) && has_port {
                Cell::Trap
            } else {
                Cell::Empty
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Coord, Orientation};
    use crate::topology::SegmentEnd;

    #[test]
    fn quale_dimensions_and_counts() {
        let f = Fabric::quale_45x85();
        assert_eq!((f.rows(), f.cols()), (45, 85));
        let t = f.topology();
        // 12 channel rows × 22 channel cols.
        assert_eq!(t.junctions().len(), 12 * 22);
        // Tiles: 11 × 21, four traps each.
        assert_eq!(t.traps().len(), 11 * 21 * 4);
        // H segments: 12 rows × 21 gaps; V segments: 22 cols × 11 gaps.
        assert_eq!(t.segments().len(), 12 * 21 + 22 * 11);
    }

    #[test]
    fn quale_segments_are_length_3_and_junction_bounded() {
        let f = Fabric::quale_45x85();
        for seg in f.topology().segments() {
            assert_eq!(seg.len(), 3);
            for end in seg.ends() {
                assert!(matches!(end, SegmentEnd::Junction(_)));
            }
        }
    }

    #[test]
    fn quale_interior_junctions_have_degree_4() {
        let f = Fabric::quale_45x85();
        let t = f.topology();
        let mut degree4 = 0;
        for j in t.junctions() {
            let Coord { row, col } = j.coord();
            let interior = row != 0 && row != 44 && col != 0 && col != 84;
            if interior {
                assert_eq!(j.degree(), 4);
                degree4 += 1;
            } else {
                assert!(j.degree() >= 2, "edge junction under-connected");
            }
        }
        assert_eq!(degree4, 10 * 20);
    }

    #[test]
    fn traps_touch_vertical_or_horizontal_channels() {
        let f = Fabric::quale_45x85();
        let t = f.topology();
        for trap in t.traps() {
            let port = trap.port();
            let seg = t.segment(port.segment);
            assert!(matches!(
                seg.orientation(),
                Orientation::Horizontal | Orientation::Vertical
            ));
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(matches!(
            Fabric::regular(45, 85, 1),
            Err(FabricError::BadRegular { .. })
        ));
        assert!(matches!(
            Fabric::regular(3, 85, 4),
            Err(FabricError::BadRegular { .. })
        ));
        // No room for a tile, without overflowing `pitch + 1`.
        assert!(matches!(
            Fabric::regular(5, 5, u16::MAX),
            Err(FabricError::BadRegular { .. })
        ));
    }

    #[test]
    fn minimal_pitch_2_builds() {
        let f = Fabric::regular(5, 5, 2).unwrap();
        assert!(!f.topology().traps().is_empty());
    }

    #[test]
    fn ragged_edges_still_build() {
        // 10×11 with pitch 4 leaves partial tiles on the south/east edges.
        let f = Fabric::regular(10, 11, 4).unwrap();
        assert!(!f.topology().traps().is_empty());
        // Round-trips like any other fabric.
        let g = Fabric::from_ascii(&f.to_ascii()).unwrap();
        assert_eq!(f, g);
    }
}
