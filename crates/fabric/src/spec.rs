//! Declarative fabric descriptions: parse, compose, elaborate.
//!
//! A [`FabricSpec`] is a *document* describing a fabric — resource
//! types with per-type capacities, reusable tile macros, a list of
//! placed regions, inter-region channel links and capacity assignments
//! — that one elaborator, [`FabricSpec::build`], compiles into a
//! concrete [`Fabric`]. Documents are JSON ([`FabricSpec::parse_json`]),
//! read by the strict RFC 8259 parser in `qspr-json`; the grammar is
//! documented in `docs/FABRIC_SPEC.md` and `examples/fabrics/` ships
//! working files.
//!
//! The spec composes the fabric layer's own readers rather than
//! re-implementing them: `regular` and `nearest_neighbor` regions paint
//! with the cell program behind [`Fabric::regular`], and `ascii` regions
//! and tiles read their art with the reader behind
//! [`Fabric::from_ascii`]. Each region paints straight onto one canvas:
//!
//! ```text
//! JSON  →  FabricSpec  →  paint regions → paint links →
//! assign capacities  →  Fabric::with_capacities
//! ```
//!
//! [`Fabric::parse`] is the loader behind every `--fabric` flag: it
//! builds JSON documents through the spec (with [`FabricInfo`]
//! provenance) and hands anything else to [`Fabric::from_ascii`].
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

use std::collections::HashMap;

use qspr_json::JsonValue;

use crate::cell::Cell;
use crate::error::FabricError;
use crate::grid::{ascii_dims, read_ascii, Fabric};
use crate::regular::{check_regular, paint_regular};

/// How many times over its cell budget a document may paint: the
/// region patches, link runs and capacity rectangles of
/// [`Fabric::parse_within`] may visit at most this many cells per
/// budgeted cell. Regions may coincide where their cells agree and
/// capacity rules may repeat, so the canvas alone does not bound the
/// elaborator's work; a real document paints each cell about once per
/// layer.
pub(crate) const REPAINTS: usize = 8;

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

/// A resource type's kind and occupancy capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TypeDecl {
    kind: TypeKind,
    capacity: u8,
}

/// Tile macros by name: small ASCII-art cell patches for stamping.
type Tiles = HashMap<String, Vec<String>>;

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

impl RegionDecl {
    /// The `(rows, cols)` patch this region paints, computed from the
    /// declaration alone.
    ///
    /// # Errors
    ///
    /// [`FabricError::BadSpec`] for a region that cannot be painted: a
    /// bad regular grid, no sites, empty art, a dangling tile reference,
    /// zero repetitions, or a patch beyond `u16` addressing.
    fn extent(&self, tiles: &Tiles) -> Result<(usize, usize), FabricError> {
        let name = &self.name;
        match &self.kind {
            RegionKind::Regular { rows, cols, pitch } => {
                check_regular(*rows, *cols, *pitch)?;
                Ok((usize::from(*rows), usize::from(*cols)))
            }
            RegionKind::NearestNeighbor {
                sites_rows,
                sites_cols,
            } => {
                if *sites_rows == 0 || *sites_cols == 0 {
                    return Err(bad(format!(
                        "region {name:?}: nearest_neighbor needs at least one site"
                    )));
                }
                if *sites_rows > (u16::MAX - 1) / 2 || *sites_cols > (u16::MAX - 1) / 2 {
                    return Err(bad(format!(
                        "region {name:?}: nearest_neighbor site grid too large"
                    )));
                }
                Ok((
                    2 * usize::from(*sites_rows) + 1,
                    2 * usize::from(*sites_cols) + 1,
                ))
            }
            RegionKind::Ascii { art } => art_extent(name, art),
            RegionKind::Tiled {
                tile,
                tile_rows,
                tile_cols,
            } => {
                let art = find_tile(tiles, name, tile)?;
                if *tile_rows == 0 || *tile_cols == 0 {
                    return Err(bad(format!(
                        "region {name:?}: tile repetitions must be positive"
                    )));
                }
                let (rows, cols) = art_extent(tile, art)?;
                let (rows, cols) = (
                    rows * usize::from(*tile_rows),
                    cols * usize::from(*tile_cols),
                );
                if rows > u16::MAX as usize || cols > u16::MAX as usize {
                    return Err(bad(format!("region {name:?}: tiled area too large")));
                }
                Ok((rows, cols))
            }
        }
    }
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
    /// Resource types by name.
    types: HashMap<String, TypeDecl>,
    tiles: Tiles,
    regions: Vec<RegionDecl>,
    links: Vec<LinkDecl>,
    capacities: Vec<CapacityRule>,
}

fn bad(msg: impl Into<String>) -> FabricError {
    FabricError::BadSpec(msg.into())
}

impl FabricSpec {
    /// The `rows × cols` canvas bounding every region and link,
    /// computed from the declarations without painting anything, so an
    /// oversized document can be refused cheaply. A region that cannot
    /// be painted counts as empty; [`FabricSpec::build`] rejects it.
    fn canvas_dims(&self) -> (usize, usize) {
        let mut canvas_rows = 0usize;
        let mut canvas_cols = 0usize;
        for region in &self.regions {
            let (rows, cols) = region.extent(&self.tiles).unwrap_or((0, 0));
            canvas_rows = canvas_rows.max(region.origin.0 as usize + rows);
            canvas_cols = canvas_cols.max(region.origin.1 as usize + cols);
        }
        for link in &self.links {
            canvas_rows = canvas_rows.max(link.from.0.max(link.to.0) as usize + 1);
            canvas_cols = canvas_cols.max(link.from.1.max(link.to.1) as usize + 1);
        }
        (canvas_rows, canvas_cols)
    }

    /// The cells elaboration visits, counted from the declarations:
    /// every region's patch, link run and capacity rectangle. Coinciding
    /// regions and repeated rules each count again.
    fn painted_cells(&self) -> usize {
        let regions = self.regions.iter().map(|region| {
            let (rows, cols) = region.extent(&self.tiles).unwrap_or((0, 0));
            rows * cols
        });
        let links = self.links.iter().map(|link| {
            usize::from(link.from.0.abs_diff(link.to.0))
                + usize::from(link.from.1.abs_diff(link.to.1))
                + 1
        });
        let rules = self.capacities.iter().map(|rule| match rule.selector {
            Selector::At(..) => 1,
            Selector::Rect(r0, c0, r1, c1) => {
                (usize::from(r1.saturating_sub(r0)) + 1) * (usize::from(c1.saturating_sub(c0)) + 1)
            }
        });
        regions
            .chain(links)
            .chain(rules)
            .fold(0, usize::saturating_add)
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
        let types = by_name(opt_list(&value, "types", parse_type)?);
        let tiles = by_name(opt_list(&value, "tiles", parse_tile)?);
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
        for region in &self.regions {
            region.extent(&self.tiles)?;
        }
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
        for region in &self.regions {
            self.paint(region, &mut canvas, canvas_cols)?;
        }
        let idx = |r: u16, c: u16| r as usize * canvas_cols + c as usize;

        // Inter-region links — straight channel runs that may
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

        // Capacity assignments.
        let mut cell_caps = vec![None; canvas_rows * canvas_cols];
        for rule in &self.capacities {
            let decl = self
                .types
                .get(&rule.type_name)
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
        let family = match self.regions.as_slice() {
            [only] => only.kind.family(),
            _ => "composite",
        };
        fabric.set_info(FabricInfo {
            name: self.name.clone(),
            family: family.to_owned(),
            regions: self.regions.len(),
        });
        Ok(fabric)
    }

    /// Paints `region` onto the row-major `canvas`, `width` cells wide,
    /// which bounds it. Identical cells may coincide; anything else
    /// painted over a non-empty cell is an overlap error.
    fn paint(
        &self,
        region: &RegionDecl,
        canvas: &mut [Cell],
        width: usize,
    ) -> Result<(), FabricError> {
        let (top, left) = (usize::from(region.origin.0), usize::from(region.origin.1));
        let mut put = |r: usize, c: usize, cell: Cell| {
            let (gr, gc) = (top + r, left + c);
            let slot = &mut canvas[gr * width + gc];
            if cell == Cell::Empty || *slot == cell {
                return Ok(());
            }
            if *slot != Cell::Empty {
                return Err(bad(format!(
                    "region {:?} overlaps existing {:?} cell at ({gr}, {gc})",
                    region.name, *slot
                )));
            }
            *slot = cell;
            Ok(())
        };
        match &region.kind {
            RegionKind::Regular { rows, cols, pitch } => paint_regular(*rows, *cols, *pitch, put),
            RegionKind::NearestNeighbor {
                sites_rows,
                sites_cols,
            } => paint_regular(2 * sites_rows + 1, 2 * sites_cols + 1, 2, put),
            RegionKind::Ascii { art } => {
                read_ascii(art, put).map_err(|e| with_region(&region.name, e))
            }
            RegionKind::Tiled { tile, .. } => {
                let art = find_tile(&self.tiles, &region.name, tile)?;
                let (tile_rows, tile_cols) = ascii_dims(art);
                let mut stamp = vec![Cell::Empty; tile_rows * tile_cols];
                read_ascii(art, |r, c, cell| {
                    stamp[r * tile_cols + c] = cell;
                    Ok(())
                })
                .map_err(|e| with_region(tile, e))?;
                let (rows, cols) = region.extent(&self.tiles)?;
                for r in 0..rows {
                    for c in 0..cols {
                        put(r, c, stamp[(r % tile_rows) * tile_cols + c % tile_cols])?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl Fabric {
    /// Parses a fabric description through either front end: documents
    /// whose first non-whitespace byte is `{` are [`FabricSpec`] JSON
    /// (built with provenance attached); anything else is ASCII art,
    /// read by [`Fabric::from_ascii`] (no provenance, so reports for
    /// ASCII fabrics carry no `fabric` block).
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
    /// [`FabricError::TooManyCells`] before any cell is built, and a
    /// spec whose regions, links and capacity rules would paint more
    /// than 8 × `max_cells` cells in all with
    /// [`FabricError::TooMuchPainting`]. A few bytes of spec cannot buy
    /// an arbitrarily large fabric, nor a long elaboration of a small
    /// one.
    ///
    /// # Errors
    ///
    /// As [`Fabric::parse`], plus [`FabricError::TooManyCells`] and
    /// [`FabricError::TooMuchPainting`].
    pub fn parse_within(text: &str, max_cells: usize) -> Result<Fabric, FabricError> {
        let within = |cells: usize, max: usize| {
            if cells > max {
                Err(FabricError::TooManyCells { cells, max })
            } else {
                Ok(())
            }
        };
        if text.trim_start().starts_with('{') {
            let spec = FabricSpec::parse_json(text)?;
            let (rows, cols) = spec.canvas_dims();
            within(rows.saturating_mul(cols), max_cells)?;
            let painted = spec.painted_cells();
            if painted > max_cells.saturating_mul(REPAINTS) {
                return Err(FabricError::TooMuchPainting {
                    painted,
                    budget: max_cells,
                });
            }
            spec.build()
        } else {
            let (rows, cols) = ascii_dims(&text.lines().collect::<Vec<_>>());
            within(rows.saturating_mul(cols), max_cells)?;
            Fabric::from_ascii(text)
        }
    }
}

/// Rejects ASCII art `name` that is empty or beyond `u16` addressing,
/// else returns its `(rows, cols)`.
fn art_extent(name: &str, art: &[String]) -> Result<(usize, usize), FabricError> {
    let (rows, cols) = ascii_dims(art);
    if rows == 0 || cols == 0 {
        return Err(bad(format!("region {name:?}: empty art")));
    }
    if rows > u16::MAX as usize || cols > u16::MAX as usize {
        return Err(bad(format!("region {name:?}: art exceeds u16 addressing")));
    }
    Ok((rows, cols))
}

/// The art of the tile that `region` names.
fn find_tile<'a>(tiles: &'a Tiles, region: &str, tile: &str) -> Result<&'a [String], FabricError> {
    tiles.get(tile).map(Vec::as_slice).ok_or_else(|| {
        bad(format!(
            "region {region:?} references unknown tile {tile:?}"
        ))
    })
}

/// Indexes named declarations, so each reference costs one lookup;
/// the first of several declarations with one name wins.
fn by_name<T>(items: Vec<(String, T)>) -> HashMap<String, T> {
    let mut map = HashMap::with_capacity(items.len());
    for (name, item) in items {
        map.entry(name).or_insert(item);
    }
    map
}

/// Gives the ASCII reader's unknown-character error the context of the
/// region (or tile) `name` whose art it read.
fn with_region(name: &str, e: FabricError) -> FabricError {
    match e {
        FabricError::UnknownChar { line, column, ch } => bad(format!(
            "region {name:?}: unknown cell character {ch:?} at line {line}, column {column}"
        )),
        other => other,
    }
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

fn parse_type(i: usize, value: &JsonValue) -> Result<(String, TypeDecl), FabricError> {
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
    Ok((name, TypeDecl { kind, capacity }))
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

fn parse_tile(i: usize, value: &JsonValue) -> Result<(String, Vec<String>), FabricError> {
    let ctx = format!("tiles[{i}]");
    let fields = value
        .as_object()
        .ok_or_else(|| bad(format!("{ctx} must be an object")))?;
    check_fields(fields, &["name", "art"], &ctx)?;
    Ok((
        req_str(value, "name", &ctx)?.to_owned(),
        parse_art_field(value, &ctx)?,
    ))
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
    use crate::cell::Coord;
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
            assert_eq!(spec.canvas_dims(), (rows, cols), "{doc}");
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
    fn cell_budget_bounds_the_elaborators_work() {
        // 64 coinciding 9×9 regions: an 81-cell canvas, 64 patches.
        let region = r#"{"family":"regular","rows":9,"cols":9,"pitch":4}"#;
        let regions = format!(r#"{{"name":"c","regions":[{}]}}"#, [region; 64].join(","));
        let err = Fabric::parse_within(&regions, 100).unwrap_err();
        assert_eq!(
            err,
            FabricError::TooMuchPainting {
                painted: 64 * 81,
                budget: 100
            }
        );
        assert_eq!(
            err.to_string(),
            "fabric spec paints 5184 cells, more than 8× the 100-cell budget"
        );
        // 64 whole-canvas capacity rules over one region.
        let rule = r#"{"type":"wide","rect":[0,0,8,8]}"#;
        let rules = format!(
            r#"{{"name":"r","types":[{{"name":"wide","kind":"channel","capacity":2}}],
                "regions":[{region}],"capacities":[{}]}}"#,
            [rule; 64].join(",")
        );
        assert_eq!(
            Fabric::parse_within(&rules, 100),
            Err(FabricError::TooMuchPainting {
                painted: 65 * 81,
                budget: 100
            })
        );
        // The same documents build when the work fits the budget.
        assert!(Fabric::parse_within(&regions, 81 * 8).is_ok());
        assert!(Fabric::parse_within(&rules, 81 * 65 / 8 + 1).is_ok());
    }

    #[test]
    fn regular_spec_matches_direct_constructor() {
        for (rows, cols, pitch) in [(9u16, 9u16, 4u16), (45, 85, 4), (31, 61, 3), (5, 5, 2)] {
            let direct = Fabric::regular(rows, cols, pitch).unwrap();
            let elaborated = Fabric::parse(&format!(
                r#"{{"name":"r","regions":[
                    {{"family":"regular","rows":{rows},"cols":{cols},"pitch":{pitch}}}]}}"#
            ))
            .unwrap();
            assert_eq!(direct, elaborated);
            assert_eq!(direct.to_ascii(), elaborated.to_ascii());
            // Provenance is attached by the spec path only.
            assert!(direct.info().is_none());
            assert_eq!(elaborated.info().unwrap().family, "regular");
        }
    }

    #[test]
    fn ascii_front_end_matches_from_ascii() {
        let lines = ["..|..", "T.|..", "--+--", "..|.T", "..|"];
        let doc = |lines: &[&str]| {
            format!(
                r#"{{"name":"cross","regions":[{{"family":"ascii","art":["{}"]}}]}}"#,
                lines.join(r#"",""#)
            )
        };
        let via_spec = Fabric::parse(&doc(&lines)).unwrap();
        let direct = Fabric::from_ascii(&lines.join("\n")).unwrap();
        assert_eq!(via_spec, direct);
        assert_eq!(via_spec.to_ascii(), direct.to_ascii());
        assert_eq!(via_spec.info().unwrap().family, "ascii");
        // One reader: the same character at the same place, with the
        // region's context on the spec side.
        let bad_lines = ["--+--", "..X.."];
        assert_eq!(
            Fabric::from_ascii(&bad_lines.join("\n")),
            Err(FabricError::UnknownChar {
                line: 2,
                column: 3,
                ch: 'X'
            })
        );
        assert_eq!(
            Fabric::parse(&doc(&bad_lines)).unwrap_err().to_string(),
            "invalid fabric spec: region \"region0\": unknown cell character 'X' at line 2, column 3"
        );
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
        let fabric = Fabric::parse(
            r#"{"name":"u","regions":[{"family":"regular","rows":9,"cols":9,"pitch":4}]}"#,
        )
        .unwrap();
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

    #[test]
    fn repeated_names_resolve_to_the_first_declaration() {
        let fabric = Fabric::parse(
            r#"{
                "name": "twice",
                "types": [
                    {"name": "hub", "kind": "junction", "capacity": 2},
                    {"name": "hub", "kind": "channel", "capacity": 7}
                ],
                "tiles": [
                    {"name": "ulb", "art": ["+-", "|T"]},
                    {"name": "ulb", "art": ["+-", "|."]}
                ],
                "regions": [{"family": "tiled", "tile": "ulb",
                             "tile_rows": 2, "tile_cols": 2}],
                "capacities": [{"type": "hub", "at": [0, 0]}]
            }"#,
        )
        .unwrap();
        let t = fabric.topology();
        assert_eq!(t.traps().len(), 4);
        let hub = t.junction_at(Coord::new(0, 0)).unwrap();
        assert_eq!(t.junction_cap(hub), Some(2));
    }
}
