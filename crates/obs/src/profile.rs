//! The `--profile` report: per-phase wall time, the span tree with
//! self/total breakdown, and epoch counts, serialized with a
//! golden-tested JSON schema.

use std::fmt;
use std::time::Duration;

use qspr_json::{JsonArray, JsonObject, ToJson};

use crate::span::{Collector, SpanNode};

/// One top-level pipeline phase of a profiled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfilePhase {
    /// Phase name (a root span name, or `"other"` for unattributed
    /// wall time).
    pub name: String,
    /// Total wall microseconds spent in the phase.
    pub wall_us: u64,
    /// Number of spans aggregated into the phase (0 for `"other"`).
    pub count: u64,
}

/// Per-epoch simulator activity counts extracted from the span tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochCounts {
    /// Issue phases executed (one per simulator event round).
    pub issue: u64,
    /// Engine routing calls (`route` spans). A greedy handoff of the
    /// winning meeting probe searches nothing and opens no span.
    pub route: u64,
    /// Epochs that entered joint rip-up refinement.
    pub refine: u64,
    /// Non-empty epoch finalizations.
    pub finalize: u64,
}

/// A profiled run: total wall time, phase breakdown, epoch counts and
/// the full aggregated span tree (times in microseconds).
///
/// Phase times sum to `total_wall_us` exactly: the synthetic `"other"`
/// phase absorbs wall time not covered by any root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Total profiled wall time in microseconds.
    pub total_wall_us: u64,
    /// Top-level phases in first-seen order, then `"other"`.
    pub phases: Vec<ProfilePhase>,
    /// Simulator epoch activity.
    pub epochs: EpochCounts,
    /// Aggregated span tree roots.
    pub spans: Vec<SpanNode>,
}

impl ProfileReport {
    /// Builds a report from collected span roots and the measured
    /// total wall time of the profiled region.
    pub fn new(spans: Vec<SpanNode>, total_wall: Duration) -> ProfileReport {
        let total_wall_us = total_wall.as_micros() as u64;
        let mut phases: Vec<ProfilePhase> = spans
            .iter()
            .map(|root| ProfilePhase {
                name: root.name.to_owned(),
                wall_us: root.total_ns / 1_000,
                count: root.count,
            })
            .collect();
        let covered: u64 = phases.iter().map(|p| p.wall_us).sum();
        phases.push(ProfilePhase {
            name: "other".to_owned(),
            wall_us: total_wall_us.saturating_sub(covered),
            count: 0,
        });
        let mut epochs = EpochCounts::default();
        fn walk(nodes: &[SpanNode], epochs: &mut EpochCounts) {
            for node in nodes {
                match node.name {
                    "issue" => epochs.issue += node.count,
                    "route" => epochs.route += node.count,
                    "refine" => epochs.refine += node.count,
                    "finalize" => epochs.finalize += node.count,
                    _ => {}
                }
                walk(&node.children, epochs);
            }
        }
        walk(&spans, &mut epochs);
        ProfileReport {
            total_wall_us,
            phases,
            epochs,
            spans,
        }
    }

    /// Builds a report by snapshotting `collector`.
    pub fn from_collector(collector: &Collector, total_wall: Duration) -> ProfileReport {
        ProfileReport::new(collector.snapshot(), total_wall)
    }
}

fn span_json(node: &SpanNode) -> String {
    let mut children = JsonArray::new();
    for child in &node.children {
        children.push_raw(&span_json(child));
    }
    JsonObject::new()
        .string("name", node.name)
        .number("count", node.count)
        .number("total_us", node.total_ns / 1_000)
        .number("self_us", node.self_ns / 1_000)
        .raw("children", &children.build())
        .build()
}

impl ToJson for ProfileReport {
    fn to_json(&self) -> String {
        let mut phases = JsonArray::new();
        for phase in &self.phases {
            phases.push_raw(
                &JsonObject::new()
                    .string("name", &phase.name)
                    .number("wall_us", phase.wall_us)
                    .number("count", phase.count)
                    .build(),
            );
        }
        let mut spans = JsonArray::new();
        for root in &self.spans {
            spans.push_raw(&span_json(root));
        }
        JsonObject::new()
            .number("total_wall_us", self.total_wall_us)
            .raw("phases", &phases.build())
            .raw(
                "epochs",
                &JsonObject::new()
                    .number("issue", self.epochs.issue)
                    .number("route", self.epochs.route)
                    .number("refine", self.epochs.refine)
                    .number("finalize", self.epochs.finalize)
                    .build(),
            )
            .raw("spans", &spans.build())
            .build()
    }
}

impl fmt::Display for ProfileReport {
    /// Human-readable profile: a phase table then the indented span
    /// tree (total / self µs and counts).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "profile: total {} µs", self.total_wall_us)?;
        writeln!(f, "{:<12} {:>10} {:>8}", "phase", "wall µs", "count")?;
        for phase in &self.phases {
            writeln!(
                f,
                "{:<12} {:>10} {:>8}",
                phase.name, phase.wall_us, phase.count
            )?;
        }
        writeln!(
            f,
            "epochs: issue {} route {} refine {} finalize {}",
            self.epochs.issue, self.epochs.route, self.epochs.refine, self.epochs.finalize
        )?;
        writeln!(
            f,
            "{:<28} {:>10} {:>10} {:>8}",
            "span", "total µs", "self µs", "count"
        )?;
        fn tree(f: &mut fmt::Formatter<'_>, nodes: &[SpanNode], depth: usize) -> fmt::Result {
            for node in nodes {
                let label = format!("{:indent$}{}", "", node.name, indent = depth * 2);
                writeln!(
                    f,
                    "{:<28} {:>10} {:>10} {:>8}",
                    label,
                    node.total_ns / 1_000,
                    node.self_ns / 1_000,
                    node.count
                )?;
                tree(f, &node.children, depth + 1)?;
            }
            Ok(())
        }
        tree(f, &self.spans, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanSink;

    /// Hand-drives a collector through a synthetic run shaped like a
    /// real `map --profile`: parse, then a map containing simulate
    /// with issue/route/finalize activity, then sta.
    fn synthetic_report() -> ProfileReport {
        let c = Collector::new();
        let parse = c.enter(None, "parse");
        c.exit(parse, "parse", 900_500);
        let map = c.enter(None, "map");
        let sim = c.enter(Some(map), "simulate");
        for _ in 0..3 {
            let issue = c.enter(Some(sim), "issue");
            let route = c.enter(Some(issue), "route");
            c.exit(route, "route", 40_000);
            let route = c.enter(Some(issue), "route");
            c.exit(route, "route", 40_000);
            let fin = c.enter(Some(issue), "finalize");
            c.exit(fin, "finalize", 10_000);
            c.exit(issue, "issue", 100_000);
        }
        c.exit(sim, "simulate", 320_000);
        c.exit(map, "map", 400_000);
        let sta = c.enter(None, "sta");
        c.exit(sta, "sta", 99_499);
        ProfileReport::from_collector(&c, Duration::from_micros(1_500))
    }

    #[test]
    fn profile_json_schema_golden() {
        let report = synthetic_report();
        assert_eq!(
            report.to_json(),
            concat!(
                "{\"total_wall_us\":1500,",
                "\"phases\":[",
                "{\"name\":\"parse\",\"wall_us\":900,\"count\":1},",
                "{\"name\":\"map\",\"wall_us\":400,\"count\":1},",
                "{\"name\":\"sta\",\"wall_us\":99,\"count\":1},",
                "{\"name\":\"other\",\"wall_us\":101,\"count\":0}],",
                "\"epochs\":{\"issue\":3,\"route\":6,\"refine\":0,\"finalize\":3},",
                "\"spans\":[",
                "{\"name\":\"parse\",\"count\":1,\"total_us\":900,\"self_us\":900,\"children\":[]},",
                "{\"name\":\"map\",\"count\":1,\"total_us\":400,\"self_us\":80,\"children\":[",
                "{\"name\":\"simulate\",\"count\":1,\"total_us\":320,\"self_us\":20,\"children\":[",
                "{\"name\":\"issue\",\"count\":3,\"total_us\":300,\"self_us\":30,\"children\":[",
                "{\"name\":\"route\",\"count\":6,\"total_us\":240,\"self_us\":240,\"children\":[]},",
                "{\"name\":\"finalize\",\"count\":3,\"total_us\":30,\"self_us\":30,\"children\":[]}",
                "]}]}]},",
                "{\"name\":\"sta\",\"count\":1,\"total_us\":99,\"self_us\":99,\"children\":[]}",
                "]}"
            )
        );
    }

    #[test]
    fn phase_times_sum_to_total_exactly() {
        let report = synthetic_report();
        let sum: u64 = report.phases.iter().map(|p| p.wall_us).sum();
        assert_eq!(sum, report.total_wall_us);
    }

    #[test]
    fn other_phase_never_underflows() {
        // Covered time exceeding the measured total (clock skew across
        // span boundaries) clamps "other" to zero.
        let c = Collector::new();
        let t = c.enter(None, "parse");
        c.exit(t, "parse", 10_000_000);
        let report = ProfileReport::from_collector(&c, Duration::from_micros(5));
        assert_eq!(report.phases.last().map(|p| p.wall_us), Some(0));
    }

    #[test]
    fn relayed_parallel_sections_keep_phases_summing_to_total() {
        // Under `--jobs > 1` workers emit spans from other threads
        // through a [`Relay`](crate::span::Relay); those must merge
        // under the main thread's open root rather than surface as new
        // top-level phases, or the phase table would double-count the
        // concurrent wall time and phases + other would exceed total.
        use crate::span::{install_thread, span, Relay};
        use std::sync::Arc;
        use std::time::Instant;
        let collector = Arc::new(Collector::new());
        let guard = install_thread(collector.clone());
        // The total is measured around the region, as `map --profile`
        // does: a fixed figure would undercut a slow thread spawn and
        // clamp "other" to zero.
        let t0 = Instant::now();
        {
            let _map = span("map");
            let relay = Relay::capture();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _sink = relay.install();
                        let _leg = span("worker");
                    });
                }
            });
        }
        let total = t0.elapsed();
        drop(guard);
        let report = ProfileReport::from_collector(&collector, total);
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["map", "other"], "worker spans must not add phases");
        let map = &report.spans[0];
        let legs: u64 = map
            .children
            .iter()
            .filter(|c| c.name == "worker")
            .map(|c| c.count)
            .sum();
        assert_eq!(legs, 2, "both workers' spans merge under the open root");
        let sum: u64 = report.phases.iter().map(|p| p.wall_us).sum();
        assert_eq!(sum, report.total_wall_us);
    }

    #[test]
    fn text_rendering_mentions_every_phase() {
        let text = synthetic_report().to_string();
        for name in ["parse", "map", "simulate", "issue", "route", "sta", "other"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("epochs: issue 3 route 6 refine 0 finalize 3"));
    }
}
