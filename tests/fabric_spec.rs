//! End-to-end tests of the declarative fabric description layer: specs
//! that only the spec front end can express (heterogeneous capacities,
//! multi-region fabrics) must map programs through the full [`Flow`],
//! and spec round trips must leave mapping results byte-identical.

use proptest::prelude::*;

use qspr::json::ToJson;
use qspr::{Flow, FlowSummary};
use qspr_fabric::{Fabric, FabricSpec, RegularFabricSpec};
use qspr_qasm::Program;
use qspr_route::RouterKind;

const BELL: &str = "QUBIT a\nQUBIT b\nH a\nC-X a,b\n";

/// Clears the one field that legitimately differs between a spec-built
/// fabric and its anonymous programmatic twin: spec provenance.
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

    /// A spec-round-tripped regular fabric maps every program to the
    /// byte-identical summary the direct constructor produces, under
    /// both routing engines (modulo wall-clock and the provenance
    /// block, which only the spec path carries).
    #[test]
    fn round_tripped_fabrics_map_byte_identically(
        rows in 9u16..14,
        cols in 9u16..14,
        seed in 0u64..32,
    ) {
        let direct = RegularFabricSpec::new(rows, cols, 4)
            .build()
            .expect("geometry fits a pitch-4 tile");
        let document = RegularFabricSpec::new(rows, cols, 4).to_spec().to_json();
        let round_tripped = FabricSpec::parse_json(&document)
            .expect("emitted documents parse")
            .build()
            .expect("emitted documents build");
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
