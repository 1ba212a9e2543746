//! Independent replay validation of micro-command traces.

use qspr_fabric::{Cell, Coord, Fabric, TechParams, Time};
use qspr_qasm::{Program, QubitId};
use qspr_sched::{InstrId, Qidg};

use crate::error::TraceError;
use crate::placement::Placement;
use crate::trace::{MicroCommand, Trace};

/// Replays `trace` against the fabric and program, checking every
/// physical invariant of the ion-trap model:
///
/// * times are non-decreasing;
/// * each move is one cell long, continues from the qubit's position and
///   lands on a walkable cell (channel, junction or trap);
/// * turns happen only on junction cells, at the qubit's position;
/// * gates execute in trap cells with all operands present and at most
///   two qubits co-located;
/// * instantaneous channel-segment and junction occupancy never exceeds
///   the technology's `channel_capacity` / `junction_capacity`;
/// * each qubit's move completes at least `T_move`, and each turn at
///   least `T_turn`, after its previous move, turn or gate end (or after
///   time 0);
/// * no operand moves or turns between its gate's start and end;
/// * a gate starts no earlier than every QIDG predecessor's end;
/// * every gate's end follows its start by exactly the gate delay;
/// * every instruction of `program` starts and ends exactly once.
///
/// # Errors
///
/// Returns the first [`TraceError`] encountered, indexed by trace entry;
/// once the replay ends, the first instruction without exactly one gate
/// start and one gate end, by instruction.
///
/// # Examples
///
/// ```
/// use qspr_fabric::{Fabric, TechParams};
/// use qspr_qasm::Program;
/// use qspr_sim::{validate_trace, FlowPolicy, Mapper, Placement};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fabric = Fabric::quale_45x85();
/// let tech = TechParams::date2012();
/// let program = Program::parse("QUBIT a\nQUBIT b\nH a\nC-X a,b\n")?;
/// let placement = Placement::center(&fabric, 2);
/// let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
///     .record_trace(true)
///     .map(&program, &placement)?;
/// validate_trace(&fabric, &program, &placement, outcome.trace().unwrap(), &tech)?;
/// # Ok(())
/// # }
/// ```
pub fn validate_trace(
    fabric: &Fabric,
    program: &Program,
    placement: &Placement,
    trace: &Trace,
    tech: &TechParams,
) -> Result<(), TraceError> {
    let topo = fabric.topology();
    let mut pos: Vec<Coord> = placement
        .as_slice()
        .iter()
        .map(|&t| topo.trap(t).coord())
        .collect();
    // Instantaneous occupancy per segment / junction.
    let mut seg_occ = vec![0u8; topo.segments().len()];
    let mut jct_occ = vec![0u8; topo.junctions().len()];
    // Per qubit: when its last move, turn or gate ended, and whether
    // it is an operand of a running gate.
    let mut ready: Vec<Time> = vec![0; pos.len()];
    let mut in_gate = vec![false; pos.len()];
    // Per instruction: when its gate started and ended.
    let qidg = Qidg::new(program, tech);
    let mut started: Vec<Option<Time>> = vec![None; qidg.len()];
    let mut ended: Vec<Option<Time>> = vec![None; qidg.len()];
    let mut last_time: Time = 0;

    let occupancy_key = |c: Coord| (topo.channel_at(c).map(|(s, _)| s), topo.junction_at(c));

    for (index, entry) in trace.iter().enumerate() {
        if entry.time < last_time {
            return Err(TraceError::TimeNotMonotone { index });
        }
        last_time = entry.time;
        match entry.command {
            MicroCommand::Move { qubit, from, to } => {
                let q = check_qubit(qubit, &pos, index)?;
                if pos[q] != from || from.manhattan(to) != 1 {
                    return Err(TraceError::BrokenMove { qubit, index });
                }
                pace(
                    &mut ready[q],
                    in_gate[q],
                    qubit,
                    entry.time,
                    tech.t_move,
                    index,
                )?;
                if !fabric.in_bounds(to) || fabric.cell(to) == Cell::Empty {
                    return Err(TraceError::BadDestination { qubit, index });
                }
                let (old_seg, old_jct) = occupancy_key(from);
                let (new_seg, new_jct) = occupancy_key(to);
                if let Some(s) = old_seg {
                    seg_occ[s.index()] -= 1;
                }
                if let Some(j) = old_jct {
                    jct_occ[j.index()] -= 1;
                }
                pos[q] = to;
                if let Some(s) = new_seg {
                    seg_occ[s.index()] += 1;
                    if seg_occ[s.index()] > tech.channel_capacity {
                        return Err(TraceError::ChannelOverflow { index });
                    }
                }
                if let Some(j) = new_jct {
                    jct_occ[j.index()] += 1;
                    if jct_occ[j.index()] > tech.junction_capacity {
                        return Err(TraceError::JunctionOverflow { index });
                    }
                }
                if fabric.cell(to) == Cell::Trap {
                    let residents = pos.iter().filter(|p| **p == to).count();
                    if residents > 2 {
                        return Err(TraceError::TrapOverflow { index });
                    }
                }
            }
            MicroCommand::Turn { qubit, at } => {
                let q = check_qubit(qubit, &pos, index)?;
                if pos[q] != at {
                    return Err(TraceError::BrokenMove { qubit, index });
                }
                if topo.junction_at(at).is_none() {
                    return Err(TraceError::TurnOutsideJunction { qubit, index });
                }
                pace(
                    &mut ready[q],
                    in_gate[q],
                    qubit,
                    entry.time,
                    tech.t_turn,
                    index,
                )?;
            }
            MicroCommand::GateStart {
                instr,
                trap,
                q0,
                q1,
                ..
            } => {
                if !fabric.in_bounds(trap) || fabric.cell(trap) != Cell::Trap {
                    return Err(TraceError::GateOutsideTrap { index });
                }
                let mut operands = vec![q0];
                operands.extend(q1);
                for q in operands {
                    let qi = check_qubit(q, &pos, index)?;
                    if pos[qi] != trap {
                        return Err(TraceError::OperandMissing { index });
                    }
                }
                let residents = pos.iter().filter(|p| **p == trap).count();
                if residents > 2 {
                    return Err(TraceError::TrapOverflow { index });
                }
                match started.get_mut(instr.index()) {
                    Some(start @ None) => *start = Some(entry.time),
                    _ => return Err(TraceError::UnmatchedGate { index }),
                }
                for &pred in qidg.preds(instr) {
                    if !ended[pred.index()].is_some_and(|end| end <= entry.time) {
                        return Err(TraceError::DependencyViolated { index, pred });
                    }
                }
                for q in qidg.instruction(instr).qubits() {
                    if let Some(flag) = in_gate.get_mut(q.index()) {
                        *flag = true;
                    }
                }
            }
            MicroCommand::GateEnd { instr } => {
                let i = instr.index();
                let Some(Some(start)) = started.get(i).copied() else {
                    return Err(TraceError::UnmatchedGate { index });
                };
                if ended[i].replace(entry.time).is_some() {
                    return Err(TraceError::UnmatchedGate { index });
                }
                let expected = qidg.delay(instr);
                if entry.time - start != expected {
                    return Err(TraceError::BadGateTiming { index, expected });
                }
                for q in qidg.instruction(instr).qubits() {
                    if let Some(flag) = in_gate.get_mut(q.index()) {
                        *flag = false;
                        ready[q.index()] = entry.time;
                    }
                }
            }
        }
    }
    for (i, (start, end)) in started.iter().zip(&ended).enumerate() {
        let instr = InstrId(i as u32);
        if start.is_none() {
            return Err(TraceError::GateNeverStarted { instr });
        }
        if end.is_none() {
            return Err(TraceError::GateNeverEnded { instr });
        }
    }
    Ok(())
}

/// Checks the pace of a move or turn of `qubit` that completes at `time`
/// and takes `delay`, after the qubit was last `ready`; on success the
/// qubit is ready again at `time`.
fn pace(
    ready: &mut Time,
    in_gate: bool,
    qubit: QubitId,
    time: Time,
    delay: Time,
    index: usize,
) -> Result<(), TraceError> {
    if in_gate {
        return Err(TraceError::MoveDuringGate { qubit, index });
    }
    if time < ready.saturating_add(delay) {
        return Err(TraceError::TooFast { qubit, index });
    }
    *ready = time;
    Ok(())
}

fn check_qubit(q: QubitId, pos: &[Coord], index: usize) -> Result<usize, TraceError> {
    if q.index() < pos.len() {
        Ok(q.index())
    } else {
        Err(TraceError::BrokenMove { qubit: q, index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Mapper;
    use crate::policy::FlowPolicy;
    use crate::trace::TraceEntry;
    use qspr_qasm::Gate;

    const FIG3: &str = "\
QUBIT q0,0
QUBIT q1,0
QUBIT q2,0
QUBIT q3
QUBIT q4,0
H q0
H q1
H q2
H q4
C-X q3,q2
C-Z q4,q2
C-Y q2,q1
C-Y q3,q1
C-X q4,q1
C-Z q2,q0
C-Y q3,q0
C-Z q4,q0
";

    /// Maps Fig. 3 under `policy` on the date2012 technology and
    /// validates the trace against the capacities of `bound`.
    fn mapped_trace(policy: FlowPolicy, bound: TechParams) {
        let fabric = Fabric::quale_45x85();
        let program = Program::parse(FIG3).unwrap();
        let placement = Placement::center(&fabric, 5);
        let outcome = Mapper::new(&fabric, TechParams::date2012(), policy)
            .record_trace(true)
            .map(&program, &placement)
            .unwrap();
        validate_trace(
            &fabric,
            &program,
            &placement,
            outcome.trace().unwrap(),
            &bound,
        )
        .unwrap();
    }

    #[test]
    fn qspr_traces_validate() {
        mapped_trace(FlowPolicy::Qspr, TechParams::date2012());
    }

    /// QUALE books at most one qubit per channel and junction.
    #[test]
    fn quale_traces_validate() {
        mapped_trace(
            FlowPolicy::Quale,
            TechParams::date2012().without_multiplexing(),
        );
    }

    /// The QSPR trace of Fig. 3 on the regular 21×41 pitch-4 grid,
    /// where two qubits share a channel segment and, first, a junction:
    /// the technology's capacities of 2 allow it, capacities of 1 do
    /// not.
    #[test]
    fn technology_capacities_bound_the_occupancy() {
        let tech = TechParams::date2012();
        let fabric = Fabric::regular(21, 41, 4).unwrap();
        let program = Program::parse(FIG3).unwrap();
        let placement = Placement::center(&fabric, 5);
        let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
            .record_trace(true)
            .map(&program, &placement)
            .unwrap();
        let trace = outcome.trace().unwrap();
        validate_trace(&fabric, &program, &placement, trace, &tech).unwrap();
        let single = tech.without_multiplexing();
        let err = validate_trace(&fabric, &program, &placement, trace, &single).unwrap_err();
        assert!(matches!(err, TraceError::JunctionOverflow { .. }), "{err}");
        let single_file = TechParams {
            channel_capacity: 1,
            ..tech
        };
        let err = validate_trace(&fabric, &program, &placement, trace, &single_file).unwrap_err();
        assert!(matches!(err, TraceError::ChannelOverflow { .. }), "{err}");
    }

    #[test]
    fn teleporting_move_is_rejected() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let program = Program::parse("QUBIT a\n").unwrap();
        let placement = Placement::center(&fabric, 1);
        let start = fabric
            .topology()
            .trap(placement.trap_of(QubitId(0)))
            .coord();
        let far = Coord::new(start.row, start.col + 5);
        let trace = Trace::new(vec![TraceEntry {
            time: 1,
            command: MicroCommand::Move {
                qubit: QubitId(0),
                from: start,
                to: far,
            },
        }]);
        let err = validate_trace(&fabric, &program, &placement, &trace, &tech).unwrap_err();
        assert!(matches!(err, TraceError::BrokenMove { .. }));
    }

    #[test]
    fn gate_outside_trap_is_rejected() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let program = Program::parse("QUBIT a\nH a\n").unwrap();
        let placement = Placement::center(&fabric, 1);
        let trace = Trace::new(vec![TraceEntry {
            time: 0,
            command: MicroCommand::GateStart {
                instr: InstrId(0),
                gate: Gate::H,
                trap: Coord::new(0, 0), // a junction on the QUALE fabric
                q0: QubitId(0),
                q1: None,
            },
        }]);
        let err = validate_trace(&fabric, &program, &placement, &trace, &tech).unwrap_err();
        assert_eq!(err, TraceError::GateOutsideTrap { index: 0 });
    }

    #[test]
    fn wrong_gate_timing_is_rejected() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let program = Program::parse("QUBIT a\nH a\n").unwrap();
        let placement = Placement::center(&fabric, 1);
        let trap = fabric
            .topology()
            .trap(placement.trap_of(QubitId(0)))
            .coord();
        let trace = Trace::new(vec![
            TraceEntry {
                time: 0,
                command: MicroCommand::GateStart {
                    instr: InstrId(0),
                    gate: Gate::H,
                    trap,
                    q0: QubitId(0),
                    q1: None,
                },
            },
            TraceEntry {
                time: 7, // should be 10
                command: MicroCommand::GateEnd { instr: InstrId(0) },
            },
        ]);
        let err = validate_trace(&fabric, &program, &placement, &trace, &tech).unwrap_err();
        assert_eq!(
            err,
            TraceError::BadGateTiming {
                index: 1,
                expected: 10
            }
        );
    }

    /// The QSPR trace of Fig. 3 at the center placement, validated, and
    /// the validator's error on edited entries of it.
    fn fig3_trace() -> (Trace, impl Fn(Vec<TraceEntry>) -> TraceError) {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let program = Program::parse(FIG3).unwrap();
        let placement = Placement::center(&fabric, 5);
        let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
            .record_trace(true)
            .map(&program, &placement)
            .unwrap();
        let trace = outcome.trace().unwrap().clone();
        validate_trace(&fabric, &program, &placement, &trace, &tech).unwrap();
        let check = move |entries| {
            validate_trace(&fabric, &program, &placement, &Trace::new(entries), &tech).unwrap_err()
        };
        (trace, check)
    }

    /// The Fig. 3 trace without the entries `remove` picks, given the
    /// instruction whose gate ends last; returns the validator's error
    /// and that instruction.
    fn edited_fig3(remove: impl Fn(&MicroCommand, InstrId) -> bool) -> (TraceError, InstrId) {
        let (trace, check) = fig3_trace();
        let last = trace
            .iter()
            .rev()
            .find_map(|e| match e.command {
                MicroCommand::GateEnd { instr } => Some(instr),
                _ => None,
            })
            .unwrap();
        let kept = trace.iter().filter(|e| !remove(&e.command, last)).copied();
        (check(kept.collect()), last)
    }

    /// The Fig. 3 trace with the first move or turn that `pick` accepts
    /// and that follows another move or turn of its qubit re-stamped at
    /// `restamp(time of that previous one)`; returns the validator's
    /// error and the qubit.
    fn restamped_fig3(
        pick: impl Fn(&MicroCommand) -> bool,
        restamp: impl Fn(Time) -> Time,
    ) -> (TraceError, QubitId) {
        let (trace, check) = fig3_trace();
        let mut entries = trace.entries().to_vec();
        let mut last = [None; 5];
        for i in 0..entries.len() {
            let (MicroCommand::Move { qubit, .. } | MicroCommand::Turn { qubit, .. }) =
                entries[i].command
            else {
                continue;
            };
            if let (Some(prev), true) = (last[qubit.index()], pick(&entries[i].command)) {
                entries[i].time = restamp(prev);
                return (check(entries), qubit);
            }
            last[qubit.index()] = Some(entries[i].time);
        }
        panic!("no such entry in the trace");
    }

    #[test]
    fn a_dropped_gate_is_rejected() {
        let (err, last) = edited_fig3(|command, last| {
            matches!(*command,
                MicroCommand::GateStart { instr, .. } | MicroCommand::GateEnd { instr }
                    if instr == last)
        });
        assert_eq!(err, TraceError::GateNeverStarted { instr: last });
    }

    #[test]
    fn an_unfinished_gate_is_rejected() {
        let (err, last) = edited_fig3(
            |command, last| matches!(*command, MicroCommand::GateEnd { instr } if instr == last),
        );
        assert_eq!(err, TraceError::GateNeverEnded { instr: last });
    }

    #[test]
    fn a_gate_run_twice_is_rejected() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let program = Program::parse("QUBIT a\nH a\n").unwrap();
        let placement = Placement::center(&fabric, 1);
        let trap = fabric
            .topology()
            .trap(placement.trap_of(QubitId(0)))
            .coord();
        let start = MicroCommand::GateStart {
            instr: InstrId(0),
            gate: Gate::H,
            trap,
            q0: QubitId(0),
            q1: None,
        };
        let end = MicroCommand::GateEnd { instr: InstrId(0) };
        let trace = Trace::new(
            [(0, start), (10, end), (10, start), (20, end)]
                .into_iter()
                .map(|(time, command)| TraceEntry { time, command })
                .collect(),
        );
        let err = validate_trace(&fabric, &program, &placement, &trace, &tech).unwrap_err();
        assert_eq!(err, TraceError::UnmatchedGate { index: 2 });
    }

    #[test]
    fn unmatched_gate_end_is_rejected() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let program = Program::parse("QUBIT a\nH a\n").unwrap();
        let placement = Placement::center(&fabric, 1);
        let trace = Trace::new(vec![TraceEntry {
            time: 0,
            command: MicroCommand::GateEnd { instr: InstrId(0) },
        }]);
        let err = validate_trace(&fabric, &program, &placement, &trace, &tech).unwrap_err();
        assert_eq!(err, TraceError::UnmatchedGate { index: 0 });
    }

    #[test]
    fn a_zero_duration_move_is_rejected() {
        let (err, qubit) = restamped_fig3(|c| matches!(c, MicroCommand::Move { .. }), |prev| prev);
        assert!(
            matches!(err, TraceError::TooFast { qubit: q, .. } if q == qubit),
            "{err}"
        );
    }

    #[test]
    fn a_short_turn_is_rejected() {
        let t_turn = TechParams::date2012().t_turn;
        let (err, qubit) = restamped_fig3(
            |c| matches!(c, MicroCommand::Turn { .. }),
            |prev| prev + t_turn - 1,
        );
        assert!(
            matches!(err, TraceError::TooFast { qubit: q, .. } if q == qubit),
            "{err}"
        );
    }

    /// The validator's error on one qubit running instruction 0, an `H`,
    /// from time 0 to 10 in its trap, plus the entries `extra` returns
    /// given the trap's and its port's cells.
    fn one_qubit_trace(
        source: &str,
        extra: impl FnOnce(Coord, Coord) -> Vec<(Time, MicroCommand)>,
    ) -> TraceError {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let program = Program::parse(source).unwrap();
        let placement = Placement::center(&fabric, 1);
        let trap = fabric.topology().trap(placement.trap_of(QubitId(0)));
        let start = MicroCommand::GateStart {
            instr: InstrId(0),
            gate: Gate::H,
            trap: trap.coord(),
            q0: QubitId(0),
            q1: None,
        };
        let end = MicroCommand::GateEnd { instr: InstrId(0) };
        let entries = [(0, start), (10, end)]
            .into_iter()
            .chain(extra(trap.coord(), trap.port().coord))
            .map(|(time, command)| TraceEntry { time, command });
        let trace = Trace::new(entries.collect());
        validate_trace(&fabric, &program, &placement, &trace, &tech).unwrap_err()
    }

    #[test]
    fn a_move_inside_a_gate_is_rejected() {
        let err = one_qubit_trace("QUBIT a\nH a\n", |trap, port| {
            let step_out = MicroCommand::Move {
                qubit: QubitId(0),
                from: trap,
                to: port,
            };
            vec![(5, step_out)]
        });
        let qubit = QubitId(0);
        assert_eq!(err, TraceError::MoveDuringGate { qubit, index: 1 });
    }

    #[test]
    fn a_gate_before_its_predecessor_ends_is_rejected() {
        let err = one_qubit_trace("QUBIT a\nH a\nH a\n", |trap, _| {
            let second = MicroCommand::GateStart {
                instr: InstrId(1),
                gate: Gate::H,
                trap,
                q0: QubitId(0),
                q1: None,
            };
            vec![
                (5, second),
                (15, MicroCommand::GateEnd { instr: InstrId(1) }),
            ]
        });
        let pred = InstrId(0);
        assert_eq!(err, TraceError::DependencyViolated { index: 1, pred });
    }
}
