//! Property test of the declarative spec layer: a JSON `regular`
//! region, parsed and elaborated through the public front ends, must
//! reproduce the direct constructor's fabric exactly.

use proptest::prelude::*;

use qspr_fabric::{Fabric, FabricSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `JSON -> FabricSpec::parse_json -> build` and [`Fabric::parse`]
    /// both equal [`Fabric::regular`] (grid, topology, capacities, and
    /// the ASCII rendering), with spec provenance attached only on the
    /// JSON side. Degenerate geometries must fail identically through
    /// every path.
    #[test]
    fn regular_specs_round_trip_through_json(
        rows in 0u16..26,
        cols in 0u16..26,
        pitch in 0u16..7,
    ) {
        let document = format!(
            r#"{{"name":"r","regions":[
                {{"family":"regular","rows":{rows},"cols":{cols},"pitch":{pitch}}}]}}"#
        );
        let parsed = FabricSpec::parse_json(&document)
            .expect("a regular region with u16 fields is a well-formed document");
        let built = parsed.build();
        prop_assert_eq!(&Fabric::parse(&document), &built);
        match Fabric::regular(rows, cols, pitch) {
            Ok(direct) => {
                let rebuilt = built.expect("the direct path built");
                prop_assert_eq!(&rebuilt, &direct);
                prop_assert_eq!(rebuilt.to_ascii(), direct.to_ascii());
                prop_assert!(direct.info().is_none(), "the constructor stays anonymous");
                let info = rebuilt.info().expect("spec builds carry provenance");
                prop_assert_eq!(info.family.as_str(), "regular");
                prop_assert_eq!(info.regions, 1);
            }
            Err(e) => prop_assert_eq!(built.unwrap_err(), e),
        }
    }
}
