//! Ion-trap quantum circuit fabric model for the QSPR mapper.
//!
//! An ion-trap fabric (paper §II.B, Fig. 4) is a finite grid of cells:
//!
//! * **traps** (`T`) — sites where 1- and 2-qubit gate operations execute;
//! * **channels** — wires the ion qubits travel through, horizontal (`-`)
//!   or vertical (`|`);
//! * **junctions** (`+`) — where horizontal and vertical channels meet and
//!   qubits *turn* (a slow operation, 5–30× a straight move);
//! * **empty** cells (`.`).
//!
//! [`Fabric`] owns the grid and eagerly derives a [`Topology`]: maximal
//! channel *segments* between junctions, junction adjacency, and one *port*
//! per trap (the channel cell a qubit steps through to enter the trap).
//! Routers and the event-driven simulator work exclusively on this derived
//! topology. The topology also owns the fabric's empty-fabric
//! [`TravelBounds`] tables, created and filled on first use, so every
//! mapping on one fabric shares them, and the tables that crates above
//! the fabric keep with them ([`TravelBounds::attached`]).
//!
//! The 45×85 fabric released with QUALE is not recoverable, so
//! [`Fabric::quale_45x85`] generates a regular macro-tile layout with the
//! same dimensions (junction pitch 4, four traps per tile) in its place;
//! [`Fabric::regular`] paints that layout at any size and pitch.
//! Arbitrary layouts can be supplied as ASCII art
//! ([`Fabric::from_ascii`]) or as a JSON [`FabricSpec`] document that
//! composes regions of either kind with links and per-type capacities;
//! [`Fabric::parse`] accepts both.
//!
//! # Examples
//!
//! ```
//! use qspr_fabric::Fabric;
//!
//! let fabric = Fabric::quale_45x85();
//! assert_eq!((fabric.rows(), fabric.cols()), (45, 85));
//! assert_eq!(fabric.topology().traps().len(), 924);
//!
//! // Layouts round-trip through ASCII.
//! let same = Fabric::from_ascii(&fabric.to_ascii()).unwrap();
//! assert_eq!(same.to_ascii(), fabric.to_ascii());
//! ```

#![forbid(unsafe_code)]

mod bounds;
mod cell;
mod error;
mod grid;
mod pmd;
mod regular;
mod search;
mod spec;
mod stats;
mod topology;

pub use bounds::TravelBounds;
pub use cell::{Cell, Coord, Orientation};
pub use error::FabricError;
pub use grid::Fabric;
pub use pmd::{TechParams, Time};
pub use search::{SearchEdge, SearchGraph};
pub use spec::{FabricInfo, FabricSpec};
pub use stats::FabricStats;
pub use topology::{
    Direction, Junction, JunctionId, Port, Segment, SegmentEnd, SegmentId, Topology, Trap, TrapId,
};
