//! Declarative fabric descriptions: parse, compose, elaborate.
//!
//! A [`FabricSpec`] is a *document* describing a fabric — resource
//! types with per-type capacities, reusable tile macros, a list of
//! placed regions, inter-region channel links and capacity assignments
//! — that a single elaborator, [`FabricSpec::build`], compiles into a
//! concrete [`Fabric`]. Two front ends produce specs:
//!
//! * **JSON** ([`FabricSpec::parse_json`]), read by the strict RFC 8259
//!   parser in `qspr-json`. The grammar is documented in
//!   `docs/FABRIC_SPEC.md`; `examples/fabrics/` ships working files.
//! * **ASCII art** ([`FabricSpec::from_ascii`]), wrapping the classic
//!   one-character-per-cell format as a single-region spec.
//!
//! The programmatic constructors ([`FabricSpec::regular`], and
//! [`crate::RegularFabricSpec::build`] which now routes through it) emit
//! the same document, so every fabric in the workspace — hardcoded,
//! file-loaded or generated — flows through one elaboration pipeline:
//!
//! ```text
//! JSON / ASCII / constructor  →  FabricSpec  →  paint regions →
//! paint links → assign capacities  →  Fabric::with_capacities
//! ```
//!
//! # Region families
//!
//! | family | parameters | produces |
//! |---|---|---|
//! | `regular` | `rows`, `cols`, `pitch` | the paper's §II.B macro-tile grid |
//! | `nearest_neighbor` | `sites_rows`, `sites_cols` | a pitch-2 lattice with one trap per site, channels on all four sides |
//! | `ascii` | `art` | verbatim cells |
//! | `tiled` | `tile`, `tile_rows`, `tile_cols` | a named tile macro stamped in a grid |
//!
//! # Examples
//!
//! ```
//! use qspr_fabric::FabricSpec;
//!
//! let spec = FabricSpec::parse_json(
//!     r#"{
//!       "name": "demo",
//!       "types": [{"name": "express", "kind": "channel", "capacity": 4}],
//!       "regions": [
//!         {"family": "regular", "rows": 9, "cols": 9, "pitch": 4}
//!       ],
//!       "capacities": [{"type": "express", "rect": [0, 1, 0, 7]}]
//!     }"#,
//! )?;
//! let fabric = spec.build()?;
//! assert_eq!(fabric.info().unwrap().name, "demo");
//! assert!(fabric.topology().has_capacity_overrides());
//! # Ok::<(), qspr_fabric::FabricError>(())
//! ```

use qspr_json::{JsonArray, JsonObject, JsonValue};

use crate::cell::{Cell, Coord};
use crate::error::FabricError;
use crate::grid::Fabric;

/// Provenance metadata the elaborator attaches to a built [`Fabric`]:
/// what the spec was called and how it was composed. Descriptive only —
/// excluded from fabric equality, surfaced in the CLI's JSON `fabric`
/// summary block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricInfo {
    /// The spec's `name` field.
    pub name: String,
    /// The single region's family, or `"composite"` for multi-region
    /// specs.
    pub family: String,
    /// Number of regions the spec instantiated.
    pub regions: usize,
}

/// What kind of resource a capacity type applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TypeKind {
    Junction,
    Channel,
}

impl TypeKind {
    fn as_str(self) -> &'static str {
        match self {
            TypeKind::Junction => "junction",
            TypeKind::Channel => "channel",
        }
    }
}

/// A named resource type with its occupancy capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TypeDecl {
    name: String,
    kind: TypeKind,
    capacity: u8,
}

/// A named tile macro: a small ASCII-art cell patch for stamping.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TileDecl {
    name: String,
    art: Vec<String>,
}

/// How one region's cells are generated.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RegionKind {
    Regular {
        rows: u16,
        cols: u16,
        pitch: u16,
    },
    NearestNeighbor {
        sites_rows: u16,
        sites_cols: u16,
    },
    Ascii {
        art: Vec<String>,
    },
    Tiled {
        tile: String,
        tile_rows: u16,
        tile_cols: u16,
    },
}

impl RegionKind {
    /// The `(rows, cols)` patch this region paints, computed from the
    /// declaration alone; `(0, 0)` for a dangling tile reference, which
    /// [`FabricSpec::build`] rejects.
    fn dims(&self, tiles: &[TileDecl]) -> (usize, usize) {
        let art_dims = |art: &[String]| {
            let cols = art.iter().map(|l| l.chars().count()).max().unwrap_or(0);
            (art.len(), cols)
        };
        match self {
            RegionKind::Regular { rows, cols, .. } => (usize::from(*rows), usize::from(*cols)),
            RegionKind::NearestNeighbor {
                sites_rows,
                sites_cols,
            } => (
                2 * usize::from(*sites_rows) + 1,
                2 * usize::from(*sites_cols) + 1,
            ),
            RegionKind::Ascii { art } => art_dims(art),
            RegionKind::Tiled {
                tile,
                tile_rows,
                tile_cols,
            } => tiles.iter().find(|t| t.name == *tile).map_or((0, 0), |t| {
                let (rows, cols) = art_dims(&t.art);
                (
                    rows * usize::from(*tile_rows),
                    cols * usize::from(*tile_cols),
                )
            }),
        }
    }

    fn family(&self) -> &'static str {
        match self {
            RegionKind::Regular { .. } => "regular",
            RegionKind::NearestNeighbor { .. } => "nearest_neighbor",
            RegionKind::Ascii { .. } => "ascii",
            RegionKind::Tiled { .. } => "tiled",
        }
    }
}

/// One placed region of the fabric canvas.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RegionDecl {
    name: String,
    origin: (u16, u16),
    kind: RegionKind,
}

/// A straight inter-region channel painted between two canvas cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkDecl {
    from: (u16, u16),
    to: (u16, u16),
}

/// Which cells a capacity assignment targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selector {
    /// One cell.
    At(u16, u16),
    /// An inclusive rectangle `(r0, c0, r1, c1)`.
    Rect(u16, u16, u16, u16),
}

/// Assigns a declared type (and thereby its capacity) to cells.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CapacityRule {
    type_name: String,
    selector: Selector,
}

/// A declarative fabric description; the grammar is documented in
/// `docs/FABRIC_SPEC.md` at the repository root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricSpec {
    name: String,
    types: Vec<TypeDecl>,
    tiles: Vec<TileDecl>,
    regions: Vec<RegionDecl>,
    links: Vec<LinkDecl>,
    capacities: Vec<CapacityRule>,
}

fn bad(msg: impl Into<String>) -> FabricError {
    FabricError::BadSpec(msg.into())
}

impl FabricSpec {
    /// The spec's name (echoed into [`FabricInfo`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `rows × cols` canvas bounding every region and link,
    /// computed from the declarations without painting anything, so an
    /// oversized document can be refused cheaply.
    fn canvas_dims(&self) -> (usize, usize) {
        let mut canvas_rows = 0usize;
        let mut canvas_cols = 0usize;
        for region in &self.regions {
            let (rows, cols) = region.kind.dims(&self.tiles);
            canvas_rows = canvas_rows.max(region.origin.0 as usize + rows);
            canvas_cols = canvas_cols.max(region.origin.1 as usize + cols);
        }
        for link in &self.links {
            canvas_rows = canvas_rows.max(link.from.0.max(link.to.0) as usize + 1);
            canvas_cols = canvas_cols.max(link.from.1.max(link.to.1) as usize + 1);
        }
        (canvas_rows, canvas_cols)
    }

    /// The composition family: the single region's family, or
    /// `"composite"` when several regions are placed.
    pub fn family(&self) -> &str {
        match self.regions.as_slice() {
            [only] => only.kind.family(),
            _ => "composite",
        }
    }

    /// Number of regions the spec places.
    pub fn regions(&self) -> usize {
        self.regions.len()
    }

    /// A single-region spec generating the paper's regular macro-tile
    /// grid — the document form of [`crate::RegularFabricSpec`].
    pub fn regular(name: &str, rows: u16, cols: u16, pitch: u16) -> FabricSpec {
        FabricSpec {
            name: name.to_owned(),
            types: Vec::new(),
            tiles: Vec::new(),
            regions: vec![RegionDecl {
                name: "main".to_owned(),
                origin: (0, 0),
                kind: RegionKind::Regular { rows, cols, pitch },
            }],
            links: Vec::new(),
            capacities: Vec::new(),
        }
    }

    /// Wraps classic ASCII fabric art as a single-region spec (the
    /// second front end next to JSON).
    pub fn from_ascii(name: &str, art: &str) -> FabricSpec {
        FabricSpec {
            name: name.to_owned(),
            types: Vec::new(),
            tiles: Vec::new(),
            regions: vec![RegionDecl {
                name: "main".to_owned(),
                origin: (0, 0),
                kind: RegionKind::Ascii {
                    art: art.lines().map(str::to_owned).collect(),
                },
            }],
            links: Vec::new(),
            capacities: Vec::new(),
        }
    }

    /// Parses a JSON spec document (grammar: `docs/FABRIC_SPEC.md`).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadSpec`] for syntax errors (with the byte
    /// offset from the strict RFC 8259 parser) and for schema
    /// violations: unknown fields, missing required fields, values out
    /// of range.
    pub fn parse_json(text: &str) -> Result<FabricSpec, FabricError> {
        let value = JsonValue::parse(text).map_err(|e| bad(e.to_string()))?;
        let fields = value
            .as_object()
            .ok_or_else(|| bad("document must be a JSON object"))?;
        check_fields(
            fields,
            &["name", "types", "tiles", "regions", "links", "capacities"],
            "document",
        )?;
        let name = req_str(&value, "name", "document")?.to_owned();
        let types = opt_list(&value, "types", parse_type)?;
        let tiles = opt_list(&value, "tiles", parse_tile)?;
        let regions = opt_list(&value, "regions", parse_region)?;
        if regions.is_empty() {
            return Err(bad("document needs at least one region"));
        }
        let links = opt_list(&value, "links", parse_link)?;
        let capacities = opt_list(&value, "capacities", parse_capacity)?;
        Ok(FabricSpec {
            name,
            types,
            tiles,
            regions,
            links,
            capacities,
        })
    }

    /// Renders the spec back to its JSON document form. Parsing the
    /// output reproduces the spec (`parse_json(spec.to_json()) == spec`,
    /// property-tested), which is what lets generated specs be written
    /// to disk and loaded back with `--fabric`.
    pub fn to_json(&self) -> String {
        let mut doc = JsonObject::new().string("name", &self.name);
        if !self.types.is_empty() {
            let mut arr = JsonArray::new();
            for t in &self.types {
                arr.push_raw(
                    &JsonObject::new()
                        .string("name", &t.name)
                        .string("kind", t.kind.as_str())
                        .number("capacity", t.capacity as u64)
                        .build(),
                );
            }
            doc = doc.raw("types", &arr.build());
        }
        if !self.tiles.is_empty() {
            let mut arr = JsonArray::new();
            for tile in &self.tiles {
                arr.push_raw(
                    &JsonObject::new()
                        .string("name", &tile.name)
                        .raw("art", &string_array(&tile.art))
                        .build(),
                );
            }
            doc = doc.raw("tiles", &arr.build());
        }
        let mut regions = JsonArray::new();
        for region in &self.regions {
            let mut obj = JsonObject::new()
                .string("name", &region.name)
                .string("family", region.kind.family())
                .raw(
                    "origin",
                    &format!("[{},{}]", region.origin.0, region.origin.1),
                );
            obj = match &region.kind {
                RegionKind::Regular { rows, cols, pitch } => obj
                    .number("rows", *rows as u64)
                    .number("cols", *cols as u64)
                    .number("pitch", *pitch as u64),
                RegionKind::NearestNeighbor {
                    sites_rows,
                    sites_cols,
                } => obj
                    .number("sites_rows", *sites_rows as u64)
                    .number("sites_cols", *sites_cols as u64),
                RegionKind::Ascii { art } => obj.raw("art", &string_array(art)),
                RegionKind::Tiled {
                    tile,
                    tile_rows,
                    tile_cols,
                } => obj
                    .string("tile", tile)
                    .number("tile_rows", *tile_rows as u64)
                    .number("tile_cols", *tile_cols as u64),
            };
            regions.push_raw(&obj.build());
        }
        doc = doc.raw("regions", &regions.build());
        if !self.links.is_empty() {
            let mut arr = JsonArray::new();
            for link in &self.links {
                arr.push_raw(
                    &JsonObject::new()
                        .raw("from", &format!("[{},{}]", link.from.0, link.from.1))
                        .raw("to", &format!("[{},{}]", link.to.0, link.to.1))
                        .build(),
                );
            }
            doc = doc.raw("links", &arr.build());
        }
        if !self.capacities.is_empty() {
            let mut arr = JsonArray::new();
            for rule in &self.capacities {
                let obj = JsonObject::new().string("type", &rule.type_name);
                let obj = match rule.selector {
                    Selector::At(r, c) => obj.raw("at", &format!("[{r},{c}]")),
                    Selector::Rect(r0, c0, r1, c1) => {
                        obj.raw("rect", &format!("[{r0},{c0},{r1},{c1}]"))
                    }
                };
                arr.push_raw(&obj.build());
            }
            doc = doc.raw("capacities", &arr.build());
        }
        doc.build()
    }

    /// Elaborates the spec into a concrete [`Fabric`]: paints every
    /// region onto a common canvas, paints the inter-region links,
    /// applies the capacity assignments, and validates the result
    /// through [`Fabric::with_capacities`]. The built fabric carries a
    /// [`FabricInfo`] recording the spec's name and composition.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadSpec`] for inconsistent documents
    /// (overlapping regions, dangling tile or type references, links
    /// through occupied cells, capacity rules matching nothing) and any
    /// validation error from [`Fabric::with_capacities`].
    pub fn build(&self) -> Result<Fabric, FabricError> {
        // Pass 1: elaborate each region to its local cell patch.
        let mut patches: Vec<(&RegionDecl, u16, u16, Vec<Cell>)> = Vec::new();
        for region in &self.regions {
            let (rows, cols, cells) = match &region.kind {
                RegionKind::Regular { rows, cols, pitch } => {
                    (*rows, *cols, paint_regular(*rows, *cols, *pitch)?)
                }
                RegionKind::NearestNeighbor {
                    sites_rows,
                    sites_cols,
                } => {
                    if *sites_rows == 0 || *sites_cols == 0 {
                        return Err(bad(format!(
                            "region {:?}: nearest_neighbor needs at least one site",
                            region.name
                        )));
                    }
                    if *sites_rows > (u16::MAX - 1) / 2 || *sites_cols > (u16::MAX - 1) / 2 {
                        return Err(bad(format!(
                            "region {:?}: nearest_neighbor site grid too large",
                            region.name
                        )));
                    }
                    let rows = 2 * sites_rows + 1;
                    let cols = 2 * sites_cols + 1;
                    (rows, cols, paint_regular(rows, cols, 2)?)
                }
                RegionKind::Ascii { art } => parse_art(&region.name, art)?,
                RegionKind::Tiled {
                    tile,
                    tile_rows,
                    tile_cols,
                } => {
                    let decl = self.tiles.iter().find(|t| t.name == *tile).ok_or_else(|| {
                        bad(format!(
                            "region {:?} references unknown tile {tile:?}",
                            region.name
                        ))
                    })?;
                    if *tile_rows == 0 || *tile_cols == 0 {
                        return Err(bad(format!(
                            "region {:?}: tile repetitions must be positive",
                            region.name
                        )));
                    }
                    let (trows, tcols, tcells) = parse_art(&decl.name, &decl.art)?;
                    stamp_tile(trows, tcols, &tcells, *tile_rows, *tile_cols).ok_or_else(|| {
                        bad(format!("region {:?}: tiled area too large", region.name))
                    })?
                }
            };
            patches.push((region, rows, cols, cells));
        }

        // Canvas bounding box over regions and link endpoints.
        let (canvas_rows, canvas_cols) = self.canvas_dims();
        if canvas_rows == 0 || canvas_cols == 0 {
            return Err(FabricError::EmptyGrid);
        }
        if canvas_rows > u16::MAX as usize || canvas_cols > u16::MAX as usize {
            return Err(FabricError::TooLarge {
                rows: canvas_rows,
                cols: canvas_cols,
            });
        }
        let mut canvas = vec![Cell::Empty; canvas_rows * canvas_cols];
        let idx = |r: u16, c: u16| r as usize * canvas_cols + c as usize;

        // Pass 2: blit regions (identical cells may coincide; anything
        // else is an overlap error).
        for (region, rows, cols, cells) in &patches {
            for r in 0..*rows {
                for c in 0..*cols {
                    let cell = cells[r as usize * *cols as usize + c as usize];
                    if cell == Cell::Empty {
                        continue;
                    }
                    let (gr, gc) = (region.origin.0 + r, region.origin.1 + c);
                    let slot = &mut canvas[idx(gr, gc)];
                    if *slot != Cell::Empty && *slot != cell {
                        return Err(bad(format!(
                            "region {:?} overlaps existing {:?} cell at ({gr}, {gc})",
                            region.name, *slot
                        )));
                    }
                    *slot = cell;
                }
            }
        }

        // Pass 3: inter-region links — straight channel runs that may
        // pass through (but not overwrite) junctions and aligned
        // channels at their attachment points.
        for link in &self.links {
            let (from, to) = (link.from, link.to);
            let (channel, cells): (Cell, Vec<(u16, u16)>) = if from.0 == to.0 {
                let (lo, hi) = (from.1.min(to.1), from.1.max(to.1));
                (Cell::HChannel, (lo..=hi).map(|c| (from.0, c)).collect())
            } else if from.1 == to.1 {
                let (lo, hi) = (from.0.min(to.0), from.0.max(to.0));
                (Cell::VChannel, (lo..=hi).map(|r| (r, from.1)).collect())
            } else {
                return Err(bad(format!(
                    "link ({}, {}) -> ({}, {}) is not axis-aligned",
                    from.0, from.1, to.0, to.1
                )));
            };
            for (r, c) in cells {
                let slot = &mut canvas[idx(r, c)];
                match *slot {
                    Cell::Empty => *slot = channel,
                    Cell::Junction => {}
                    cell if cell == channel => {}
                    cell => {
                        return Err(bad(format!("link cell ({r}, {c}) already holds {cell:?}")))
                    }
                }
            }
        }

        // Pass 4: capacity assignments.
        let mut cell_caps = vec![None; canvas_rows * canvas_cols];
        for rule in &self.capacities {
            let decl = self
                .types
                .iter()
                .find(|t| t.name == rule.type_name)
                .ok_or_else(|| bad(format!("unknown capacity type {:?}", rule.type_name)))?;
            let (r0, c0, r1, c1) = match rule.selector {
                Selector::At(r, c) => (r, c, r, c),
                Selector::Rect(r0, c0, r1, c1) => (r0, c0, r1, c1),
            };
            if r1 < r0 || c1 < c0 {
                return Err(bad(format!(
                    "capacity rect [{r0},{c0},{r1},{c1}] is inverted"
                )));
            }
            if r1 as usize >= canvas_rows || c1 as usize >= canvas_cols {
                return Err(bad(format!(
                    "capacity selector [{r0},{c0},{r1},{c1}] outside the \
                     {canvas_rows}×{canvas_cols} canvas"
                )));
            }
            let mut matched = 0usize;
            for r in r0..=r1 {
                for c in c0..=c1 {
                    let applies = match decl.kind {
                        TypeKind::Junction => canvas[idx(r, c)] == Cell::Junction,
                        TypeKind::Channel => canvas[idx(r, c)].is_channel(),
                    };
                    if applies {
                        cell_caps[idx(r, c)] = Some(decl.capacity);
                        matched += 1;
                    }
                }
            }
            if matched == 0 {
                return Err(bad(format!(
                    "capacity type {:?} matched no {} cell in [{r0},{c0},{r1},{c1}]",
                    rule.type_name,
                    decl.kind.as_str()
                )));
            }
        }

        let mut fabric = Fabric::with_capacities(canvas_rows, canvas_cols, canvas, &cell_caps)?;
        fabric.set_info(Some(FabricInfo {
            name: self.name.clone(),
            family: self.family().to_owned(),
            regions: self.regions.len(),
        }));
        Ok(fabric)
    }

    /// Builds and then drops the provenance metadata — for programmatic
    /// wrappers like [`crate::RegularFabricSpec::build`] that must stay
    /// indistinguishable from the pre-spec direct constructors.
    pub(crate) fn build_anonymous(&self) -> Result<Fabric, FabricError> {
        let mut fabric = self.build()?;
        fabric.set_info(None);
        Ok(fabric)
    }
}

impl Fabric {
    /// Parses a fabric description through either front end: documents
    /// whose first non-whitespace byte is `{` are [`FabricSpec`] JSON
    /// (built with provenance attached); anything else is ASCII art,
    /// delegated to [`Fabric::from_ascii`] unchanged (no provenance, so
    /// reports for ASCII fabrics stay byte-identical to the pre-spec
    /// loader).
    ///
    /// This is the loader behind every `--fabric <file>` flag.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::BadSpec`] for malformed spec documents
    /// and the usual grid errors for malformed ASCII art.
    pub fn parse(text: &str) -> Result<Fabric, FabricError> {
        Fabric::parse_within(text, usize::MAX)
    }

    /// [`Fabric::parse`] for untrusted documents: a description whose
    /// grid would hold more than `max_cells` cells is rejected with
    /// [`FabricError::TooManyCells`] before any cell is built, so a few
    /// bytes of spec cannot buy an arbitrarily large fabric.
    ///
    /// # Errors
    ///
    /// As [`Fabric::parse`], plus [`FabricError::TooManyCells`].
    pub fn parse_within(text: &str, max_cells: usize) -> Result<Fabric, FabricError> {
        let within = |cells: usize| {
            if cells > max_cells {
                Err(FabricError::TooManyCells {
                    cells,
                    max: max_cells,
                })
            } else {
                Ok(())
            }
        };
        if text.trim_start().starts_with('{') {
            let spec = FabricSpec::parse_json(text)?;
            let (rows, cols) = spec.canvas_dims();
            within(rows.saturating_mul(cols))?;
            spec.build()
        } else {
            let rows = text.lines().count();
            let cols = text.lines().map(|l| l.chars().count()).max().unwrap_or(0);
            within(rows.saturating_mul(cols))?;
            Fabric::from_ascii(text)
        }
    }
}

/// Renders a `Vec<String>` as a JSON array of strings.
fn string_array(items: &[String]) -> String {
    let mut arr = JsonArray::new();
    for item in items {
        arr.push_raw(&format!("\"{}\"", qspr_json::escape(item)));
    }
    arr.build()
}

/// Paints the regular macro-tile pattern (the cell program previously
/// private to `fabric::regular`): channel rows/columns at every multiple
/// of `pitch`, junctions at crossings, traps at tile-interior corners
/// adjacent to a channel.
pub(crate) fn paint_regular(rows: u16, cols: u16, pitch: u16) -> Result<Vec<Cell>, FabricError> {
    if pitch < 2 {
        return Err(bad(format!("pitch must be at least 2, got {pitch}")));
    }
    if rows < pitch + 1 || cols < pitch + 1 {
        return Err(bad(format!(
            "grid {rows}×{cols} smaller than one tile (pitch {pitch})"
        )));
    }
    let mut cells = vec![Cell::Empty; rows as usize * cols as usize];
    let idx = |r: u16, c: u16| r as usize * cols as usize + c as usize;
    for r in 0..rows {
        for c in 0..cols {
            let on_h = r % pitch == 0;
            let on_v = c % pitch == 0;
            cells[idx(r, c)] = match (on_h, on_v) {
                (true, true) => Cell::Junction,
                (true, false) => Cell::HChannel,
                (false, true) => Cell::VChannel,
                (false, false) => Cell::Empty,
            };
        }
    }
    // Traps at tile-interior corners, only where a channel is adjacent
    // (this guards partial tiles at ragged edges).
    for r in 1..rows {
        for c in 1..cols {
            let (ro, co) = (r % pitch, c % pitch);
            let corner_row = ro == 1 || ro == pitch - 1;
            let corner_col = co == 1 || co == pitch - 1;
            if !(corner_row && corner_col) || ro == 0 || co == 0 {
                continue;
            }
            let coord = Coord::new(r, c);
            let has_port = coord
                .neighbors(rows, cols)
                .any(|n| cells[idx(n.row, n.col)].is_channel());
            if has_port && cells[idx(r, c)] == Cell::Empty {
                cells[idx(r, c)] = Cell::Trap;
            }
        }
    }
    Ok(cells)
}

/// Parses region/tile ASCII art into a `(rows, cols, cells)` patch,
/// padding ragged lines with empty cells on the right.
fn parse_art(name: &str, art: &[String]) -> Result<(u16, u16, Vec<Cell>), FabricError> {
    let rows = art.len();
    let cols = art.iter().map(|l| l.chars().count()).max().unwrap_or(0);
    if rows == 0 || cols == 0 {
        return Err(bad(format!("region {name:?}: empty art")));
    }
    if rows > u16::MAX as usize || cols > u16::MAX as usize {
        return Err(bad(format!("region {name:?}: art exceeds u16 addressing")));
    }
    let mut cells = Vec::with_capacity(rows * cols);
    for (ln, line) in art.iter().enumerate() {
        let mut count = 0;
        for (cn, ch) in line.chars().enumerate() {
            let cell = Cell::from_char(ch).ok_or_else(|| {
                bad(format!(
                    "region {name:?}: unknown cell character {ch:?} at line {}, column {}",
                    ln + 1,
                    cn + 1
                ))
            })?;
            cells.push(cell);
            count += 1;
        }
        cells.extend(std::iter::repeat(Cell::Empty).take(cols - count));
    }
    Ok((rows as u16, cols as u16, cells))
}

/// Stamps a tile patch `reps_r × reps_c` times; `None` on u16 overflow.
fn stamp_tile(
    trows: u16,
    tcols: u16,
    tcells: &[Cell],
    reps_r: u16,
    reps_c: u16,
) -> Option<(u16, u16, Vec<Cell>)> {
    let rows = (trows as usize).checked_mul(reps_r as usize)?;
    let cols = (tcols as usize).checked_mul(reps_c as usize)?;
    if rows > u16::MAX as usize || cols > u16::MAX as usize {
        return None;
    }
    let mut cells = vec![Cell::Empty; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            let tr = r % trows as usize;
            let tc = c % tcols as usize;
            cells[r * cols + c] = tcells[tr * tcols as usize + tc];
        }
    }
    Some((rows as u16, cols as u16, cells))
}

// ---------------------------------------------------------------------
// JSON schema helpers (strict: unknown fields are errors, like the
// service request bodies).

fn check_fields(
    fields: &[(String, JsonValue)],
    allowed: &[&str],
    ctx: &str,
) -> Result<(), FabricError> {
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(bad(format!(
                "{ctx}: unknown field {key:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn req_str<'a>(value: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a str, FabricError> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad(format!("{ctx}: field {key:?} (string) is required")))
}

fn req_u16(value: &JsonValue, key: &str, ctx: &str) -> Result<u16, FabricError> {
    let n = value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| bad(format!("{ctx}: field {key:?} (integer) is required")))?;
    u16::try_from(n).map_err(|_| bad(format!("{ctx}: field {key:?} exceeds {}", u16::MAX)))
}

fn opt_list<T>(
    value: &JsonValue,
    key: &str,
    parse: impl Fn(usize, &JsonValue) -> Result<T, FabricError>,
) -> Result<Vec<T>, FabricError> {
    match value.get(key) {
        None => Ok(Vec::new()),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| bad(format!("field {key:?} must be an array")))?;
            items
                .iter()
                .enumerate()
                .map(|(i, item)| parse(i, item))
                .collect()
        }
    }
}

/// Parses a `[row, col]` (or longer, per `len`) coordinate array of
/// u16 components.
fn coord_array(value: &JsonValue, len: usize, ctx: &str) -> Result<Vec<u16>, FabricError> {
    let items = value
        .as_array()
        .ok_or_else(|| bad(format!("{ctx} must be an array of {len} integers")))?;
    if items.len() != len {
        return Err(bad(format!("{ctx} must have exactly {len} elements")));
    }
    items
        .iter()
        .map(|item| {
            item.as_u64()
                .and_then(|n| u16::try_from(n).ok())
                .ok_or_else(|| {
                    bad(format!(
                        "{ctx}: components must be integers in 0..{}",
                        u16::MAX
                    ))
                })
        })
        .collect()
}

fn parse_type(i: usize, value: &JsonValue) -> Result<TypeDecl, FabricError> {
    let ctx = format!("types[{i}]");
    let fields = value
        .as_object()
        .ok_or_else(|| bad(format!("{ctx} must be an object")))?;
    check_fields(fields, &["name", "kind", "capacity"], &ctx)?;
    let name = req_str(value, "name", &ctx)?.to_owned();
    let kind = match req_str(value, "kind", &ctx)? {
        "junction" => TypeKind::Junction,
        "channel" => TypeKind::Channel,
        other => {
            return Err(bad(format!(
                "{ctx}: unknown kind {other:?} (expected junction or channel)"
            )))
        }
    };
    let capacity = value
        .get("capacity")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| bad(format!("{ctx}: field \"capacity\" (integer) is required")))?;
    let capacity = match u8::try_from(capacity) {
        Ok(c) if c >= 1 => c,
        _ => return Err(bad(format!("{ctx}: capacity must be in 1..=255"))),
    };
    Ok(TypeDecl {
        name,
        kind,
        capacity,
    })
}

fn parse_art_field(value: &JsonValue, ctx: &str) -> Result<Vec<String>, FabricError> {
    let items = value
        .get("art")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| {
            bad(format!(
                "{ctx}: field \"art\" (array of strings) is required"
            ))
        })?;
    items
        .iter()
        .map(|line| {
            line.as_str()
                .map(str::to_owned)
                .ok_or_else(|| bad(format!("{ctx}: art lines must be strings")))
        })
        .collect()
}

fn parse_tile(i: usize, value: &JsonValue) -> Result<TileDecl, FabricError> {
    let ctx = format!("tiles[{i}]");
    let fields = value
        .as_object()
        .ok_or_else(|| bad(format!("{ctx} must be an object")))?;
    check_fields(fields, &["name", "art"], &ctx)?;
    Ok(TileDecl {
        name: req_str(value, "name", &ctx)?.to_owned(),
        art: parse_art_field(value, &ctx)?,
    })
}

fn parse_region(i: usize, value: &JsonValue) -> Result<RegionDecl, FabricError> {
    let ctx = format!("regions[{i}]");
    let fields = value
        .as_object()
        .ok_or_else(|| bad(format!("{ctx} must be an object")))?;
    let family = req_str(value, "family", &ctx)?;
    let common = ["name", "family", "origin"];
    let kind = match family {
        "regular" => {
            check_fields(
                fields,
                &[&common[..], &["rows", "cols", "pitch"]].concat(),
                &ctx,
            )?;
            RegionKind::Regular {
                rows: req_u16(value, "rows", &ctx)?,
                cols: req_u16(value, "cols", &ctx)?,
                pitch: req_u16(value, "pitch", &ctx)?,
            }
        }
        "nearest_neighbor" => {
            check_fields(
                fields,
                &[&common[..], &["sites_rows", "sites_cols"]].concat(),
                &ctx,
            )?;
            RegionKind::NearestNeighbor {
                sites_rows: req_u16(value, "sites_rows", &ctx)?,
                sites_cols: req_u16(value, "sites_cols", &ctx)?,
            }
        }
        "ascii" => {
            check_fields(fields, &[&common[..], &["art"]].concat(), &ctx)?;
            RegionKind::Ascii {
                art: parse_art_field(value, &ctx)?,
            }
        }
        "tiled" => {
            check_fields(
                fields,
                &[&common[..], &["tile", "tile_rows", "tile_cols"]].concat(),
                &ctx,
            )?;
            RegionKind::Tiled {
                tile: req_str(value, "tile", &ctx)?.to_owned(),
                tile_rows: req_u16(value, "tile_rows", &ctx)?,
                tile_cols: req_u16(value, "tile_cols", &ctx)?,
            }
        }
        other => {
            return Err(bad(format!(
                "{ctx}: unknown family {other:?} (expected regular, \
                 nearest_neighbor, ascii or tiled)"
            )))
        }
    };
    let name = match value.get("name") {
        None => format!("region{i}"),
        Some(v) => v
            .as_str()
            .ok_or_else(|| bad(format!("{ctx}: field \"name\" must be a string")))?
            .to_owned(),
    };
    let origin = match value.get("origin") {
        None => (0, 0),
        Some(v) => {
            let rc = coord_array(v, 2, &format!("{ctx}: origin"))?;
            (rc[0], rc[1])
        }
    };
    Ok(RegionDecl { name, origin, kind })
}

fn parse_link(i: usize, value: &JsonValue) -> Result<LinkDecl, FabricError> {
    let ctx = format!("links[{i}]");
    let fields = value
        .as_object()
        .ok_or_else(|| bad(format!("{ctx} must be an object")))?;
    check_fields(fields, &["from", "to"], &ctx)?;
    let from = coord_array(
        value
            .get("from")
            .ok_or_else(|| bad(format!("{ctx}: field \"from\" is required")))?,
        2,
        &format!("{ctx}: from"),
    )?;
    let to = coord_array(
        value
            .get("to")
            .ok_or_else(|| bad(format!("{ctx}: field \"to\" is required")))?,
        2,
        &format!("{ctx}: to"),
    )?;
    Ok(LinkDecl {
        from: (from[0], from[1]),
        to: (to[0], to[1]),
    })
}

fn parse_capacity(i: usize, value: &JsonValue) -> Result<CapacityRule, FabricError> {
    let ctx = format!("capacities[{i}]");
    let fields = value
        .as_object()
        .ok_or_else(|| bad(format!("{ctx} must be an object")))?;
    check_fields(fields, &["type", "at", "rect"], &ctx)?;
    let type_name = req_str(value, "type", &ctx)?.to_owned();
    let selector = match (value.get("at"), value.get("rect")) {
        (Some(at), None) => {
            let rc = coord_array(at, 2, &format!("{ctx}: at"))?;
            Selector::At(rc[0], rc[1])
        }
        (None, Some(rect)) => {
            let rc = coord_array(rect, 4, &format!("{ctx}: rect"))?;
            Selector::Rect(rc[0], rc[1], rc[2], rc[3])
        }
        _ => {
            return Err(bad(format!(
                "{ctx}: exactly one of \"at\" or \"rect\" is required"
            )))
        }
    };
    Ok(CapacityRule {
        type_name,
        selector,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular::RegularFabricSpec;
    use crate::topology::SegmentId;

    #[test]
    fn canvas_dims_match_the_built_grid() {
        for doc in [
            include_str!("../../../examples/fabrics/two_region_bridge.json"),
            include_str!("../../../examples/fabrics/ulb_tiled.json"),
            include_str!("../../../examples/fabrics/nearest_neighbor_6x6.json"),
            include_str!("../../../examples/fabrics/regular_21x41_p4.json"),
        ] {
            let spec = FabricSpec::parse_json(doc).unwrap();
            let fabric = spec.build().unwrap();
            let (rows, cols) = (fabric.rows() as usize, fabric.cols() as usize);
            assert_eq!(spec.canvas_dims(), (rows, cols), "{}", spec.name());
            assert_eq!(Fabric::parse_within(doc, rows * cols), Ok(fabric));
        }
    }

    #[test]
    fn cell_budget_rejects_oversized_documents_before_building() {
        // A one-line document that would otherwise build 16M cells.
        let bomb =
            r#"{"name":"b","regions":[{"family":"regular","rows":4001,"cols":4001,"pitch":4}]}"#;
        let err = Fabric::parse_within(bomb, 1 << 18).unwrap_err();
        assert_eq!(
            err,
            FabricError::TooManyCells {
                cells: 4001 * 4001,
                max: 1 << 18
            }
        );
        assert!(err.to_string().contains("16008001 cells"), "{err}");
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
    fn regular_spec_matches_direct_constructor() {
        for (rows, cols, pitch) in [(9u16, 9u16, 4u16), (45, 85, 4), (31, 61, 3), (5, 5, 2)] {
            let direct = RegularFabricSpec::new(rows, cols, pitch).build().unwrap();
            let spec = FabricSpec::regular("r", rows, cols, pitch);
            let elaborated = spec.build().unwrap();
            assert_eq!(direct, elaborated);
            assert_eq!(direct.to_ascii(), elaborated.to_ascii());
            // Provenance is attached by the spec path only.
            assert!(direct.info().is_none());
            assert_eq!(elaborated.info().unwrap().family, "regular");
        }
    }

    #[test]
    fn json_round_trips_through_to_json() {
        let text = r#"{
            "name": "round-trip",
            "types": [{"name": "hub", "kind": "junction", "capacity": 3}],
            "tiles": [{"name": "ulb", "art": ["-T", "-T"]}],
            "regions": [
                {"name": "a", "family": "regular", "rows": 5, "cols": 5, "pitch": 2},
                {"name": "b", "family": "tiled", "origin": [0, 8], "tile": "ulb",
                 "tile_rows": 2, "tile_cols": 1}
            ],
            "links": [{"from": [0, 4], "to": [0, 8]}],
            "capacities": [{"type": "hub", "at": [0, 0]}]
        }"#;
        let spec = FabricSpec::parse_json(text).unwrap();
        let reparsed = FabricSpec::parse_json(&spec.to_json()).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(spec.build().unwrap(), reparsed.build().unwrap());
    }

    #[test]
    fn ascii_front_end_matches_from_ascii() {
        let art = "..|..\nT.|..\n--+--\n..|.T\n..|..\n";
        let via_spec = FabricSpec::from_ascii("cross", art).build().unwrap();
        let direct = Fabric::from_ascii(art).unwrap();
        assert_eq!(via_spec, direct);
        assert_eq!(via_spec.to_ascii(), direct.to_ascii());
        assert_eq!(via_spec.info().unwrap().family, "ascii");
    }

    #[test]
    fn nearest_neighbor_family_shape() {
        let spec = FabricSpec::parse_json(
            r#"{"name":"nn","regions":[
                {"family":"nearest_neighbor","sites_rows":3,"sites_cols":4}]}"#,
        )
        .unwrap();
        let fabric = spec.build().unwrap();
        assert_eq!((fabric.rows(), fabric.cols()), (7, 9));
        let t = fabric.topology();
        // One trap per site; every site touches channels on all sides.
        assert_eq!(t.traps().len(), 12);
        assert_eq!(t.junctions().len(), 4 * 5);
        for trap in t.traps() {
            let channel_neighbors = trap
                .coord()
                .neighbors(fabric.rows(), fabric.cols())
                .filter(|n| fabric.cell(*n).is_channel())
                .count();
            assert_eq!(channel_neighbors, 4);
        }
    }

    #[test]
    fn two_regions_join_via_link() {
        let spec = FabricSpec::parse_json(
            r#"{
                "name": "pair",
                "regions": [
                    {"name": "west", "family": "regular", "rows": 5, "cols": 5, "pitch": 4},
                    {"name": "east", "family": "regular", "origin": [0, 9],
                     "rows": 5, "cols": 5, "pitch": 4}
                ],
                "links": [{"from": [0, 4], "to": [0, 9]}]
            }"#,
        )
        .unwrap();
        let fabric = spec.build().unwrap();
        assert_eq!((fabric.rows(), fabric.cols()), (5, 14));
        assert_eq!(fabric.info().unwrap().family, "composite");
        assert_eq!(fabric.info().unwrap().regions, 2);
        // The link cells between the two east/west edge junctions became
        // one horizontal segment connecting them.
        let t = fabric.topology();
        let west_edge = t.junction_at(Coord::new(0, 4)).unwrap();
        let east_edge = t.junction_at(Coord::new(0, 9)).unwrap();
        let bridge = t
            .junction(west_edge)
            .incident(crate::topology::Direction::East)
            .unwrap();
        let ends = t.segment(bridge).ends();
        assert!(ends.contains(&crate::topology::SegmentEnd::Junction(east_edge)));
    }

    #[test]
    fn capacity_assignments_reach_the_topology() {
        let spec = FabricSpec::parse_json(
            r#"{
                "name": "het",
                "types": [
                    {"name": "express", "kind": "channel", "capacity": 4},
                    {"name": "hub", "kind": "junction", "capacity": 1}
                ],
                "regions": [{"family": "regular", "rows": 9, "cols": 9, "pitch": 4}],
                "capacities": [
                    {"type": "express", "rect": [0, 0, 0, 8]},
                    {"type": "hub", "at": [4, 4]}
                ]
            }"#,
        )
        .unwrap();
        let fabric = spec.build().unwrap();
        let t = fabric.topology();
        assert!(t.has_capacity_overrides());
        // Top-row horizontal segments carry the express override.
        let (seg, _) = t.channel_at(Coord::new(0, 1)).unwrap();
        assert_eq!(t.segment_cap(seg), Some(4));
        // The center junction carries the hub override.
        let j = t.junction_at(Coord::new(4, 4)).unwrap();
        assert_eq!(t.junction_cap(j), Some(1));
        // Untouched resources keep the default.
        let (other, _) = t.channel_at(Coord::new(1, 0)).unwrap();
        assert_eq!(t.segment_cap(other), None);
        // Histogram: default bucket plus the two override values.
        let hist = fabric.topology().capacity_histogram();
        assert_eq!(hist[0].0, None);
        assert!(hist.contains(&(Some(1), 1)));
        assert!(hist.iter().any(|(c, n)| *c == Some(4) && *n > 0));
    }

    #[test]
    fn segment_cap_is_min_over_member_cells() {
        // Two overrides on one 3-cell segment: the narrowest wins.
        let spec = FabricSpec::parse_json(
            r#"{
                "name": "min",
                "types": [
                    {"name": "wide", "kind": "channel", "capacity": 9},
                    {"name": "narrow", "kind": "channel", "capacity": 3}
                ],
                "regions": [{"family": "regular", "rows": 5, "cols": 5, "pitch": 4}],
                "capacities": [
                    {"type": "wide", "at": [0, 1]},
                    {"type": "narrow", "at": [0, 2]}
                ]
            }"#,
        )
        .unwrap();
        let t = spec.build().unwrap();
        let (seg, _) = t.topology().channel_at(Coord::new(0, 1)).unwrap();
        assert_eq!(t.topology().segment_cap(seg), Some(3));
    }

    #[test]
    fn uniform_specs_report_no_overrides() {
        let fabric = FabricSpec::regular("u", 9, 9, 4).build().unwrap();
        let t = fabric.topology();
        assert!(!t.has_capacity_overrides());
        assert_eq!(t.capacity_histogram().len(), 1);
        assert_eq!(t.segment_cap(SegmentId(0)), None);
    }

    #[test]
    fn bad_documents_are_rejected_with_context() {
        let cases: &[(&str, &str)] = &[
            ("not json", "at byte"),
            ("[1]", "must be a JSON object"),
            (r#"{"regions":[]}"#, "\"name\""),
            (r#"{"name":"x"}"#, "at least one region"),
            (r#"{"name":"x","regions":[],"frob":1}"#, "unknown field"),
            (
                r#"{"name":"x","regions":[{"family":"warp"}]}"#,
                "unknown family",
            ),
            (
                r#"{"name":"x","regions":[{"family":"regular","rows":5,"cols":5}]}"#,
                "\"pitch\"",
            ),
            (
                r#"{"name":"x","regions":[{"family":"regular","rows":5,"cols":5,"pitch":1}]}"#,
                "pitch must be at least 2",
            ),
            (
                r#"{"name":"x","regions":[{"family":"tiled","tile":"nope","tile_rows":1,"tile_cols":1}]}"#,
                "unknown tile",
            ),
            (
                r#"{"name":"x","types":[{"name":"t","kind":"channel","capacity":0}],
                   "regions":[{"family":"regular","rows":5,"cols":5,"pitch":2}]}"#,
                "1..=255",
            ),
            (
                r#"{"name":"x","regions":[{"family":"regular","rows":5,"cols":5,"pitch":2}],
                   "capacities":[{"type":"ghost","at":[0,0]}]}"#,
                "unknown capacity type",
            ),
            (
                r#"{"name":"x","types":[{"name":"t","kind":"junction","capacity":2}],
                   "regions":[{"family":"regular","rows":5,"cols":5,"pitch":2}],
                   "capacities":[{"type":"t","at":[1,1]}]}"#,
                "matched no junction cell",
            ),
            (
                r#"{"name":"x","regions":[{"family":"regular","rows":5,"cols":5,"pitch":2}],
                   "links":[{"from":[0,0],"to":[1,1]}]}"#,
                "not axis-aligned",
            ),
            (
                r#"{"name":"x","regions":[
                    {"family":"regular","rows":5,"cols":5,"pitch":2},
                    {"family":"ascii","art":["T-"],"origin":[0,1]}]}"#,
                "overlaps",
            ),
        ];
        for (text, needle) in cases {
            let err = FabricSpec::parse_json(text)
                .and_then(|s| s.build())
                .unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "expected {needle:?} in error for {text:?}, got: {msg}"
            );
        }
    }

    #[test]
    fn tiled_region_stamps_the_macro() {
        let spec = FabricSpec::parse_json(
            r#"{
                "name": "ulb-grid",
                "tiles": [{"name": "ulb", "art": ["+-", "|T"]}],
                "regions": [{"family": "tiled", "tile": "ulb",
                             "tile_rows": 2, "tile_cols": 3}]
            }"#,
        )
        .unwrap();
        let fabric = spec.build().unwrap();
        assert_eq!((fabric.rows(), fabric.cols()), (4, 6));
        // Each stamped tile contributes its one trap.
        assert_eq!(fabric.topology().traps().len(), 2 * 3);
        // Stamps repeat exactly.
        assert_eq!(fabric.cell(Coord::new(0, 0)), fabric.cell(Coord::new(2, 2)));
    }
}
