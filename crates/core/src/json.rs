//! Stable JSON writer and strict RFC 8259 reader.
//!
//! The implementation lives in the dependency-free [`qspr_json`] crate;
//! this module re-exports it unchanged, so `qspr::json` remains the
//! canonical path for report writers and service code.

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
            trace_commands: None,
        };
        assert_eq!(
            summary.to_json(),
            r#"{"policy":"qspr","placer":"mvfb","router":"negotiated","latency_us":634,"direction":"backward","runs":88,"moves":410,"turns":24,"congestion_wait_us":12,"epochs":57,"rip_iterations":9,"ripped_routes":14,"max_segment_pressure":3}"#
        );

        // The optional trace count appends as the final key.
        let traced = FlowSummary {
            trace_commands: Some(1234),
            ..summary
        };
        assert!(traced
            .to_json()
            .ends_with(r#""max_segment_pressure":3,"trace_commands":1234}"#));
    }
}
