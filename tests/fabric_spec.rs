//! End-to-end tests of the declarative fabric description layer: specs
//! that only the spec front end can express (heterogeneous capacities,
//! multi-region fabrics) must map programs through the full [`Flow`],
//! and a fabric written as a spec document must map byte-identically to
//! the same fabric built directly.

use proptest::prelude::*;

use qspr::json::ToJson;
use qspr::{Flow, FlowSummary};
use qspr_fabric::{Coord, Fabric, FabricSpec, TechParams, Time, TrapId};
use qspr_qasm::Program;
use qspr_route::{RouterConfig, RouterKind};

const BELL: &str = "QUBIT a\nQUBIT b\nH a\nC-X a,b\n";

/// Clears the one field that legitimately differs between a spec-built
/// fabric and its directly built twin: spec provenance.
/// Everything else must match byte for byte.
fn normalized(mut summary: FlowSummary) -> FlowSummary {
    summary.fabric = None;
    summary
}

#[test]
fn heterogeneous_capacities_map_end_to_end() {
    // Expressible only through the spec layer: one wide junction type
    // assigned to part of the grid.
    let spec = FabricSpec::parse_json(
        r#"{
            "name": "hetero-e2e",
            "types": [
                {"name": "wide", "kind": "junction", "capacity": 4},
                {"name": "narrow", "kind": "channel", "capacity": 1}
            ],
            "regions": [{"family": "regular", "rows": 9, "cols": 13, "pitch": 4}],
            "capacities": [
                {"type": "wide", "rect": [0, 0, 8, 6]},
                {"type": "narrow", "at": [0, 1]}
            ]
        }"#,
    )
    .expect("well-formed spec");
    let fabric = spec.build().expect("buildable spec");
    assert!(fabric.topology().has_capacity_overrides());

    let program = Program::parse(BELL).unwrap();
    for router in [RouterKind::Greedy, RouterKind::Negotiated] {
        let result = Flow::on(fabric.clone())
            .seeds(2)
            .router(router)
            .run(&program)
            .expect("heterogeneous fabrics map");
        let summary = result.summary();
        let provenance = summary.fabric.as_ref().expect("spec provenance");
        assert_eq!(provenance.name, "hetero-e2e");
        assert_eq!(provenance.family, "regular");
        assert_eq!(provenance.regions, 1);
        assert!(provenance.capacity_histogram.contains(&(
            Some(4),
            fabric
                .topology()
                .junction_caps()
                .iter()
                .filter(|c| **c == Some(4))
                .count()
        )));
        let json = summary.to_json();
        assert!(json.contains(r#""fabric":{"name":"hetero-e2e","#), "{json}");
    }
}

#[test]
fn two_region_fabrics_map_end_to_end() {
    let spec = FabricSpec::parse_json(
        r#"{
            "name": "twin",
            "regions": [
                {"name": "west", "family": "regular", "rows": 5, "cols": 5, "pitch": 4},
                {"name": "east", "family": "regular", "origin": [0, 9],
                 "rows": 5, "cols": 5, "pitch": 4}
            ],
            "links": [{"from": [0, 4], "to": [0, 9]}]
        }"#,
    )
    .expect("well-formed spec");
    let fabric = spec.build().expect("buildable spec");
    let program = Program::parse(BELL).unwrap();
    let result = Flow::on(fabric)
        .seeds(2)
        .run(&program)
        .expect("inter-region channel connects the halves");
    let provenance = result.summary().fabric.expect("spec provenance");
    assert_eq!(provenance.family, "composite");
    assert_eq!(provenance.regions, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A regular fabric written as a JSON spec document maps every
    /// program to the byte-identical summary [`Fabric::regular`]
    /// produces, under both routing engines (modulo the provenance
    /// block, which only the spec path carries).
    #[test]
    fn round_tripped_fabrics_map_byte_identically(
        rows in 9u16..14,
        cols in 9u16..14,
        seed in 0u64..32,
    ) {
        let direct = Fabric::regular(rows, cols, 4).expect("geometry fits a pitch-4 tile");
        let document = format!(
            r#"{{"name":"r","regions":[{{"family":"regular","rows":{rows},"cols":{cols},"pitch":4}}]}}"#
        );
        let round_tripped = Fabric::parse(&document).expect("the document builds");
        prop_assert_eq!(&round_tripped, &direct);

        let program = Program::parse(BELL).unwrap();
        for router in [RouterKind::Greedy, RouterKind::Negotiated] {
            let a = Flow::on(direct.clone())
                .seeds(2)
                .mvfb_config(qspr_place::MvfbConfig::new(2, seed))
                .router(router)
                .run(&program)
                .expect("direct fabric maps");
            let b = Flow::on(round_tripped.clone())
                .seeds(2)
                .mvfb_config(qspr_place::MvfbConfig::new(2, seed))
                .router(router)
                .run(&program)
                .expect("round-tripped fabric maps");
            prop_assert!(a.summary().fabric.is_none());
            prop_assert!(b.summary().fabric.is_some());
            prop_assert_eq!(normalized(a.summary()), normalized(b.summary()));
        }
    }
}

#[test]
fn ascii_front_end_is_provenance_free() {
    // `Fabric::parse` on ASCII art must stay byte-identical to the
    // pre-spec loader: no provenance, no `fabric` JSON block.
    let art = Fabric::quale_45x85().to_ascii();
    let fabric = Fabric::parse(&art).expect("ASCII art parses");
    assert_eq!(fabric, Fabric::quale_45x85());
    assert!(fabric.info().is_none());
}

/// Bound tables belong to the fabric that owns them. A fabric and its
/// mirror image have equal trap and segment counts but different
/// layouts. Mapping on one after the other gives each exactly the
/// summary it gets on a freshly built copy of itself, whose tables start
/// empty, and each table holds its own fabric's durations: the mirror's
/// bound between two traps equals the original's between their mirror
/// images, even when the original's table was filled first.
#[test]
fn mirror_fabrics_keep_their_own_bound_tables() {
    let art = Fabric::parse(include_str!("../examples/fabrics/ulb_tiled.json"))
        .expect("committed spec parses")
        .to_ascii();
    let mirror_art: String = art
        .lines()
        .map(|line| line.chars().rev().chain(['\n']).collect::<String>())
        .collect();
    let build = |text: &str| Fabric::from_ascii(text).expect("fabric builds");
    let (fabric, mirror) = (build(&art), build(&mirror_art));
    let counts = |f: &Fabric| (f.topology().traps().len(), f.topology().segments().len());
    assert_eq!(counts(&fabric), counts(&mirror));
    assert_ne!(fabric.to_ascii(), mirror.to_ascii(), "the layouts differ");

    let (topo, mirror_topo) = (fabric.topology(), mirror.topology());
    let config = RouterConfig::qspr(&TechParams::date2012());
    let (bounds, mirror_bounds) = (
        config.travel_bounds(topo),
        config.travel_bounds(mirror_topo),
    );
    let traps: Vec<TrapId> = (0..topo.traps().len() as u32).map(TrapId).collect();
    let durations: Vec<Vec<Time>> = traps
        .iter()
        .map(|&a| {
            traps
                .iter()
                .map(|&b| bounds.min_duration(topo, a, b))
                .collect()
        })
        .collect();
    let image = |t: TrapId| {
        let c = topo.trap(t).coord();
        let mirrored = Coord::new(c.row, fabric.cols() - 1 - c.col);
        mirror_topo
            .trap_at(mirrored)
            .expect("mirror image of a trap")
    };
    assert!(traps.iter().any(|&t| image(t) != t), "the ids differ");
    for &a in &traps {
        for &b in &traps {
            assert_eq!(
                mirror_bounds.min_duration(mirror_topo, image(a), image(b)),
                durations[a.index()][b.index()],
                "{a} to {b}"
            );
        }
    }

    let programs = [
        Program::parse(BELL).unwrap(),
        qspr_qecc::codes::fig3_program(),
    ];
    for router in [RouterKind::Greedy, RouterKind::Negotiated] {
        let json = |fabric: &Fabric, program: &Program| {
            Flow::on(fabric.clone())
                .seeds(3)
                .router(router)
                .run(program)
                .expect("maps")
                .summary()
                .to_json()
        };
        for program in &programs {
            // `fabric` and `mirror` live through the whole loop, so
            // their tables fill up; the fresh copies start empty.
            let shared = [json(&fabric, program), json(&mirror, program)];
            let fresh = [
                json(&build(&art), program),
                json(&build(&mirror_art), program),
            ];
            assert_eq!(shared, fresh, "{router}");
        }
    }
}
