//! The timing report: per-instruction slack, the critical path, and
//! resource bottleneck rankings.

use std::fmt;

use qspr_fabric::{Coord, JunctionId, SegmentId, Time};
use qspr_json::{JsonArray, JsonObject, ToJson};
use qspr_qasm::QubitId;
use qspr_sched::InstrId;

/// Timing of one instruction in the executed mapping.
///
/// `ready ≤ issued ≤ gate_start ≤ finish` are the observed instants from
/// the simulator; `required` and `slack` come from the backward sweep
/// (`slack = required − finish ≥ 0`, zero on makespan-pacing paths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrTiming {
    /// The QIDG node.
    pub id: InstrId,
    /// Human-readable gate label, e.g. `C-X a,b`.
    pub gate: String,
    /// When every dependency had finished.
    pub ready: Time,
    /// When the mover routes were booked (ready + congestion wait).
    pub issued: Time,
    /// When all operands had arrived in the gate trap.
    pub gate_start: Time,
    /// When the gate completed (the arrival time of the sweep).
    pub finish: Time,
    /// Latest finish that would not have delayed the makespan, holding
    /// every successor's observed ready→finish span fixed.
    pub required: Time,
    /// `required − finish`.
    pub slack: Time,
    /// Whether the instruction lies on the extracted critical path.
    pub critical: bool,
}

impl InstrTiming {
    /// Time spent waiting for fabric resources before issue.
    pub fn congestion_wait(&self) -> Time {
        self.issued - self.ready
    }

    /// Time spent physically moving operands to the gate trap.
    pub fn routing_time(&self) -> Time {
        self.gate_start - self.issued
    }

    /// Time spent executing the gate itself.
    pub fn gate_time(&self) -> Time {
        self.finish - self.gate_start
    }

    fn fields(&self) -> JsonObject {
        JsonObject::new()
            .number("id", u64::from(self.id.0))
            .string("gate", &self.gate)
            .number("ready_us", self.ready)
            .number("issued_us", self.issued)
            .number("gate_start_us", self.gate_start)
            .number("finish_us", self.finish)
    }
}

impl ToJson for InstrTiming {
    fn to_json(&self) -> String {
        self.fields()
            .number("required_us", self.required)
            .number("slack_us", self.slack)
            .boolean("critical", self.critical)
            .build()
    }
}

/// One move or turn micro-command attributed to a critical instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainLink {
    /// A one-cell relocation.
    Move {
        /// The relocated qubit.
        qubit: QubitId,
        /// Completion instant.
        time: Time,
        /// Cell it came from.
        from: Coord,
        /// Cell it arrived in.
        to: Coord,
        /// The channel segment the move is attributed to (junction
        /// crossings have none).
        segment: Option<SegmentId>,
    },
    /// A direction change at a junction.
    Turn {
        /// The turning qubit.
        qubit: QubitId,
        /// Completion instant.
        time: Time,
        /// The junction cell.
        at: Coord,
        /// The junction the turn is attributed to.
        junction: Option<JunctionId>,
    },
}

impl ToJson for ChainLink {
    fn to_json(&self) -> String {
        fn opt_id(o: JsonObject, key: &str, id: Option<u64>) -> JsonObject {
            match id {
                Some(id) => o.number(key, id),
                None => o.raw(key, "null"),
            }
        }
        match *self {
            ChainLink::Move {
                qubit,
                time,
                from,
                to,
                segment,
            } => opt_id(
                JsonObject::new()
                    .string("kind", "move")
                    .number("qubit", u64::from(qubit.0))
                    .number("time_us", time)
                    .string("from", &from.to_string())
                    .string("to", &to.to_string()),
                "segment",
                segment.map(|s| u64::from(s.0)),
            )
            .build(),
            ChainLink::Turn {
                qubit,
                time,
                at,
                junction,
            } => opt_id(
                JsonObject::new()
                    .string("kind", "turn")
                    .number("qubit", u64::from(qubit.0))
                    .number("time_us", time)
                    .string("at", &at.to_string()),
                "junction",
                junction.map(|j| u64::from(j.0)),
            )
            .build(),
        }
    }
}

/// One instruction on the critical path, with the micro-commands that
/// paid for its routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalStep {
    /// The instruction's timing (its `critical` flag is always `true`).
    pub timing: InstrTiming,
    /// The attributed move/turn commands, in completion order.
    pub chain: Vec<ChainLink>,
}

impl ToJson for CriticalStep {
    fn to_json(&self) -> String {
        let mut chain = JsonArray::new();
        for link in &self.chain {
            chain.push_raw(&link.to_json());
        }
        self.timing.fields().raw("chain", &chain.build()).build()
    }
}

/// A channel segment ranked by its share of the makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRank {
    /// The segment.
    pub id: SegmentId,
    /// Its first channel cell (for locating it on the fabric render).
    pub at: Coord,
    /// Move time spent in this segment by critical-path instructions.
    pub critical_time: Time,
    /// Congestion wait attributed to instructions that moved through
    /// this segment (an upper bound: each delayed instruction charges
    /// every resource it crossed).
    pub queue_time: Time,
    /// Moves through this segment by critical-path instructions.
    pub critical_moves: u64,
    /// All attributed moves through this segment.
    pub moves: u64,
}

impl ToJson for SegmentRank {
    fn to_json(&self) -> String {
        JsonObject::new()
            .number("segment", u64::from(self.id.0))
            .string("at", &self.at.to_string())
            .number("critical_us", self.critical_time)
            .number("queue_us", self.queue_time)
            .number("critical_moves", self.critical_moves)
            .number("moves", self.moves)
            .build()
    }
}

/// A junction ranked by its share of the makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JunctionRank {
    /// The junction.
    pub id: JunctionId,
    /// Its cell.
    pub at: Coord,
    /// Turn time spent here by critical-path instructions.
    pub critical_time: Time,
    /// Congestion wait attributed to instructions that turned here.
    pub queue_time: Time,
    /// Turns here by critical-path instructions.
    pub critical_turns: u64,
    /// All attributed turns here.
    pub turns: u64,
}

impl ToJson for JunctionRank {
    fn to_json(&self) -> String {
        JsonObject::new()
            .number("junction", u64::from(self.id.0))
            .string("at", &self.at.to_string())
            .number("critical_us", self.critical_time)
            .number("queue_us", self.queue_time)
            .number("critical_turns", self.critical_turns)
            .number("turns", self.turns)
            .build()
    }
}

/// The full static-timing-analysis result for one mapped execution.
///
/// Produced by [`crate::TimingAnalysis::analyze`]; serializes to stable
/// JSON via [`ToJson`] and to a text block via [`fmt::Display`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingReport {
    pub(crate) makespan: Time,
    pub(crate) ideal: Time,
    pub(crate) instructions: Vec<InstrTiming>,
    pub(crate) critical_path: Vec<CriticalStep>,
    pub(crate) segments: Vec<SegmentRank>,
    pub(crate) junctions: Vec<JunctionRank>,
}

impl TimingReport {
    /// The executed makespan the analysis was anchored to.
    pub fn makespan(&self) -> Time {
        self.makespan
    }

    /// The QIDG critical-path delay (the resource-free ideal baseline).
    pub fn ideal(&self) -> Time {
        self.ideal
    }

    /// Per-instruction timing, in instruction order.
    pub fn instructions(&self) -> &[InstrTiming] {
        &self.instructions
    }

    /// The critical path, in execution order.
    pub fn critical_path(&self) -> &[CriticalStep] {
        &self.critical_path
    }

    /// Segment bottlenecks, most critical first (top 10).
    pub fn segments(&self) -> &[SegmentRank] {
        &self.segments
    }

    /// Junction bottlenecks, most critical first (top 10).
    pub fn junctions(&self) -> &[JunctionRank] {
        &self.junctions
    }

    /// Finish time of the last critical-path step (equals
    /// [`TimingReport::makespan`] for non-empty programs).
    pub fn critical_end(&self) -> Option<Time> {
        self.critical_path.last().map(|s| s.timing.finish)
    }

    /// Smallest slack across all instructions (0 for non-empty programs:
    /// the critical path has none).
    pub fn min_slack(&self) -> Option<Time> {
        self.instructions.iter().map(|t| t.slack).min()
    }
}

impl ToJson for TimingReport {
    fn to_json(&self) -> String {
        fn arr<T: ToJson>(items: &[T]) -> String {
            let mut a = JsonArray::new();
            for item in items {
                a.push_raw(&item.to_json());
            }
            a.build()
        }
        JsonObject::new()
            .number("makespan_us", self.makespan)
            .number("ideal_us", self.ideal)
            .raw("instructions", &arr(&self.instructions))
            .raw("critical_path", &arr(&self.critical_path))
            .raw("segments", &arr(&self.segments))
            .raw("junctions", &arr(&self.junctions))
            .build()
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "timing analysis")?;
        writeln!(
            f,
            "  makespan      {}µs  (dependency-ideal {}µs)",
            self.makespan, self.ideal
        )?;
        writeln!(
            f,
            "  instructions  {} total, {} on the critical path, min slack {}µs",
            self.instructions.len(),
            self.critical_path.len(),
            self.min_slack().unwrap_or(0)
        )?;
        if self.critical_path.is_empty() {
            writeln!(f, "  critical path: (empty)")?;
        } else {
            writeln!(f, "  critical path:")?;
            for step in &self.critical_path {
                let t = &step.timing;
                let moves = step
                    .chain
                    .iter()
                    .filter(|l| matches!(l, ChainLink::Move { .. }))
                    .count();
                let turns = step.chain.len() - moves;
                writeln!(
                    f,
                    "    {:<6} {:<16} ready@{:<8} gate {}..{}  wait {}µs  route {}µs  gate {}µs  ({moves} moves, {turns} turns)",
                    t.id.to_string(),
                    t.gate,
                    t.ready,
                    t.gate_start,
                    t.finish,
                    t.congestion_wait(),
                    t.routing_time(),
                    t.gate_time(),
                )?;
            }
        }
        if self.segments.is_empty() {
            writeln!(f, "  segment bottlenecks: none")?;
        } else {
            writeln!(
                f,
                "  segment bottlenecks (critical µs | queue µs | critical/total moves):"
            )?;
            for s in &self.segments {
                writeln!(
                    f,
                    "    {:<8} @ {:<10} {:>6} | {:>6} | {}/{}",
                    s.id.to_string(),
                    s.at.to_string(),
                    s.critical_time,
                    s.queue_time,
                    s.critical_moves,
                    s.moves
                )?;
            }
        }
        if self.junctions.is_empty() {
            writeln!(f, "  junction bottlenecks: none")?;
        } else {
            writeln!(
                f,
                "  junction bottlenecks (critical µs | queue µs | critical/total turns):"
            )?;
            for j in &self.junctions {
                writeln!(
                    f,
                    "    {:<8} @ {:<10} {:>6} | {:>6} | {}/{}",
                    j.id.to_string(),
                    j.at.to_string(),
                    j.critical_time,
                    j.queue_time,
                    j.critical_turns,
                    j.turns
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> TimingReport {
        let timing = InstrTiming {
            id: InstrId(0),
            gate: "H a".to_string(),
            ready: 0,
            issued: 0,
            gate_start: 3,
            finish: 13,
            required: 13,
            slack: 0,
            critical: true,
        };
        TimingReport {
            makespan: 13,
            ideal: 10,
            instructions: vec![timing.clone()],
            critical_path: vec![CriticalStep {
                timing,
                chain: vec![
                    ChainLink::Move {
                        qubit: QubitId(0),
                        time: 1,
                        from: Coord::new(0, 1),
                        to: Coord::new(0, 2),
                        segment: Some(SegmentId(4)),
                    },
                    ChainLink::Turn {
                        qubit: QubitId(0),
                        time: 2,
                        at: Coord::new(0, 3),
                        junction: None,
                    },
                ],
            }],
            segments: vec![SegmentRank {
                id: SegmentId(4),
                at: Coord::new(0, 1),
                critical_time: 1,
                queue_time: 0,
                critical_moves: 1,
                moves: 1,
            }],
            junctions: vec![],
        }
    }

    /// The JSON schema is a stability contract: key order, names and
    /// value shapes are pinned byte-for-byte.
    #[test]
    fn golden_json() {
        let expected = concat!(
            r#"{"makespan_us":13,"ideal_us":10,"#,
            r#""instructions":[{"id":0,"gate":"H a","ready_us":0,"issued_us":0,"#,
            r#""gate_start_us":3,"finish_us":13,"required_us":13,"slack_us":0,"critical":true}],"#,
            r#""critical_path":[{"id":0,"gate":"H a","ready_us":0,"issued_us":0,"#,
            r#""gate_start_us":3,"finish_us":13,"chain":["#,
            r#"{"kind":"move","qubit":0,"time_us":1,"from":"(0, 1)","to":"(0, 2)","segment":4},"#,
            r#"{"kind":"turn","qubit":0,"time_us":2,"at":"(0, 3)","junction":null}]}],"#,
            r#""segments":[{"segment":4,"at":"(0, 1)","critical_us":1,"queue_us":0,"#,
            r#""critical_moves":1,"moves":1}],"junctions":[]}"#
        );
        assert_eq!(tiny_report().to_json(), expected);
    }

    #[test]
    fn json_parses_back() {
        let v = qspr_json::JsonValue::parse(&tiny_report().to_json()).unwrap();
        assert_eq!(v.get("makespan_us").and_then(|m| m.as_u64()), Some(13));
        assert_eq!(
            v.get("critical_path")
                .and_then(|c| c.as_array())
                .map(<[qspr_json::JsonValue]>::len),
            Some(1)
        );
    }

    #[test]
    fn display_mentions_every_section() {
        let text = tiny_report().to_string();
        for needle in [
            "timing analysis",
            "makespan      13µs",
            "critical path:",
            "i#0",
            "seg#4",
            "junction bottlenecks: none",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn accessors_agree_with_fields() {
        let r = tiny_report();
        assert_eq!(r.critical_end(), Some(13));
        assert_eq!(r.min_slack(), Some(0));
    }
}
