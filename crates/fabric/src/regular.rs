//! Generator for regular macro-tile fabrics, including the 45×85 layout
//! standing in for the fabric released with QUALE.

use crate::error::FabricError;
use crate::grid::Fabric;
use crate::spec::FabricSpec;

/// Parameters of a regular grid fabric.
///
/// Channel rows and columns run at every multiple of `pitch`; junctions sit
/// at their crossings; traps occupy the corners of each tile interior
/// (cells whose in-tile offsets are 1 or `pitch-1` in both axes), which
/// puts every trap adjacent to a channel.
///
/// With `pitch = 4` this reproduces the macro-structure of the QUALE
/// fabric: a sea of 3×3 tile interiors with four traps each.
///
/// # Examples
///
/// ```
/// use qspr_fabric::RegularFabricSpec;
///
/// let fabric = RegularFabricSpec::new(9, 9, 4).build()?;
/// assert_eq!(fabric.topology().junctions().len(), 9);
/// assert_eq!(fabric.topology().traps().len(), 16);
/// # Ok::<(), qspr_fabric::FabricError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegularFabricSpec {
    rows: u16,
    cols: u16,
    pitch: u16,
}

impl RegularFabricSpec {
    /// Creates a spec; validation happens in [`RegularFabricSpec::build`].
    pub fn new(rows: u16, cols: u16, pitch: u16) -> RegularFabricSpec {
        RegularFabricSpec { rows, cols, pitch }
    }

    /// Grid rows.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Channel pitch (distance between consecutive channel rows/columns).
    pub fn pitch(&self) -> u16 {
        self.pitch
    }

    /// The equivalent declarative document: a single-region
    /// [`FabricSpec`] with the `regular` family. Serializing it with
    /// [`FabricSpec::to_json`] yields a file the CLI can load.
    pub fn to_spec(&self) -> FabricSpec {
        FabricSpec::regular(
            &format!("regular-{}x{}-p{}", self.rows, self.cols, self.pitch),
            self.rows,
            self.cols,
            self.pitch,
        )
    }

    /// Generates the fabric by elaborating [`RegularFabricSpec::to_spec`]
    /// — this type is now a thin wrapper over the declarative spec
    /// layer, and produces a byte-identical fabric to the pre-spec
    /// direct painter (pinned by round-trip tests).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadSpec`] when `pitch < 2` or the grid is too
    /// small to contain a full tile (needs at least `pitch+1` in each
    /// dimension), plus any validation error from [`Fabric::new`].
    pub fn build(&self) -> Result<Fabric, FabricError> {
        self.to_spec().build_anonymous()
    }
}

impl Fabric {
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
        RegularFabricSpec::new(45, 85, 4)
            .build()
            .expect("the QUALE spec is statically valid")
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
            RegularFabricSpec::new(45, 85, 1).build(),
            Err(FabricError::BadSpec(_))
        ));
        assert!(matches!(
            RegularFabricSpec::new(3, 85, 4).build(),
            Err(FabricError::BadSpec(_))
        ));
    }

    #[test]
    fn minimal_pitch_2_builds() {
        let f = RegularFabricSpec::new(5, 5, 2).build().unwrap();
        assert!(!f.topology().traps().is_empty());
    }

    #[test]
    fn ragged_edges_still_build() {
        // 10×11 with pitch 4 leaves partial tiles on the south/east edges.
        let f = RegularFabricSpec::new(10, 11, 4).build().unwrap();
        assert!(!f.topology().traps().is_empty());
        // Round-trips like any other fabric.
        let g = Fabric::from_ascii(&f.to_ascii()).unwrap();
        assert_eq!(f, g);
    }
}
