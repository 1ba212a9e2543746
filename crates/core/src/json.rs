//! Stable JSON writer and strict RFC 8259 reader.
//!
//! The implementation lives in the dependency-free [`qspr_json`] crate
//! so that lower layers (notably `qspr-fabric`'s spec loader) can parse
//! JSON without depending on the mapper core; this module re-exports it
//! unchanged, so `qspr::json` remains the canonical path for report
//! writers and service code.

pub use qspr_json::*;

#[cfg(test)]
mod tests {
    use super::ToJson;

    #[test]
    fn flow_summary_json_golden() {
        // Golden test: this string IS the `--format json` schema
        // contract for `qspr map`, congestion-stats fields included.
        // Changing it breaks downstream consumers.
        use qspr_place::PassDirection;
        use qspr_route::RoutingStats;

        use crate::{FlowPolicy, FlowSummary};

        let summary = FlowSummary {
            policy: FlowPolicy::Qspr,
            placer: "mvfb".to_owned(),
            router: "negotiated".to_owned(),
            latency: 634,
            direction: PassDirection::Backward,
            runs: 88,
            moves: 410,
            turns: 24,
            congestion_wait: 12,
            routing: RoutingStats {
                epochs: 57,
                iterations: 9,
                ripped: 14,
                max_pressure: 3,
            },
            fabric: None,
            trace_commands: None,
        };
        assert_eq!(
            summary.to_json(),
            r#"{"policy":"qspr","placer":"mvfb","router":"negotiated","latency_us":634,"direction":"backward","runs":88,"moves":410,"turns":24,"congestion_wait_us":12,"epochs":57,"rip_iterations":9,"ripped_routes":14,"max_segment_pressure":3}"#
        );

        // The optional trace count appends as the final key.
        let traced = FlowSummary {
            trace_commands: Some(1234),
            ..summary.clone()
        };
        assert!(traced
            .to_json()
            .ends_with(r#""max_segment_pressure":3,"trace_commands":1234}"#));

        // Spec-built fabrics append a provenance block (before the
        // trace count): name, family, region count, and the
        // capacity histogram with `null` for the technology default.
        let with_fabric = FlowSummary {
            fabric: Some(crate::FabricSummary {
                name: "demo".to_owned(),
                family: "composite".to_owned(),
                regions: 2,
                capacity_histogram: vec![(None, 40), (Some(1), 3), (Some(4), 2)],
            }),
            trace_commands: Some(9),
            ..summary
        };
        assert!(with_fabric.to_json().ends_with(concat!(
            r#""fabric":{"name":"demo","family":"composite","regions":2,"#,
            r#""capacity_histogram":[{"capacity":null,"count":40},"#,
            r#"{"capacity":1,"count":3},{"capacity":4,"count":2}]},"#,
            r#""trace_commands":9}"#
        )));
    }
}
