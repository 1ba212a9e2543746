//! ASCII visualization of mapped executions: fabric occupancy snapshots
//! and per-instruction timelines.

use qspr_fabric::{Coord, Fabric, Time};
use qspr_qasm::QubitId;

use crate::outcome::MappingOutcome;
use crate::placement::Placement;
use crate::trace::{MicroCommand, Trace};

/// The position of every qubit at time `t`, replayed from a trace.
///
/// Moves are applied when their completion time is ≤ `t`; a qubit whose
/// move completes later is still shown at its previous cell.
///
/// # Examples
///
/// ```
/// use qspr_fabric::{Fabric, TechParams};
/// use qspr_qasm::Program;
/// use qspr_sim::{qubit_positions_at, FlowPolicy, Mapper, Placement};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fabric = Fabric::quale_45x85();
/// let tech = TechParams::date2012();
/// let program = Program::parse("QUBIT a\nQUBIT b\nC-X a,b\n")?;
/// let placement = Placement::center(&fabric, 2);
/// let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
///     .record_trace(true)
///     .map(&program, &placement)?;
/// let at_start = qubit_positions_at(&fabric, &placement, outcome.trace().unwrap(), 0);
/// assert_eq!(at_start.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn qubit_positions_at(
    fabric: &Fabric,
    placement: &Placement,
    trace: &Trace,
    t: Time,
) -> Vec<Coord> {
    let topo = fabric.topology();
    let mut pos: Vec<Coord> = placement
        .as_slice()
        .iter()
        .map(|&trap| topo.trap(trap).coord())
        .collect();
    for entry in trace {
        if entry.time > t {
            break;
        }
        if let MicroCommand::Move { qubit, to, .. } = entry.command {
            if qubit.index() < pos.len() {
                pos[qubit.index()] = to;
            }
        }
    }
    pos
}

/// Renders the fabric with qubit positions overlaid at time `t`.
///
/// Qubits print as `0`–`9` then `a`–`z`; two co-located qubits print as
/// `@`. All other cells keep their fabric glyphs (`T`, `-`, `|`, `+`,
/// `.`).
pub fn render_at(fabric: &Fabric, placement: &Placement, trace: &Trace, t: Time) -> String {
    let positions = qubit_positions_at(fabric, placement, trace, t);
    let mut art: Vec<Vec<char>> = fabric
        .to_ascii()
        .lines()
        .map(|l| l.chars().collect())
        .collect();
    for (q, coord) in positions.iter().enumerate() {
        let cell = &mut art[coord.row as usize][coord.col as usize];
        *cell = if cell.is_ascii_alphanumeric() && *cell != 'T' {
            '@' // two qubits sharing a trap
        } else {
            qubit_glyph(QubitId(q as u32))
        };
    }
    let mut out = String::new();
    for row in art {
        out.extend(row);
        out.push('\n');
    }
    out
}

fn qubit_glyph(q: QubitId) -> char {
    let i = q.index();
    if i < 10 {
        (b'0' + i as u8) as char
    } else if i < 36 {
        (b'a' + (i - 10) as u8) as char
    } else {
        '*'
    }
}

/// Renders a per-instruction timeline (a textual Gantt chart): for each
/// instruction, the congestion wait (`.`), routing (`~`) and gate
/// execution (`#`) phases, scaled to `width` columns.
///
/// ```text
///  i#0 |          ####                |
///  i#4 |  ....~~~~~~########          |
/// ```
pub fn render_gantt(outcome: &MappingOutcome, width: usize) -> String {
    let width = width.max(10);
    let makespan = outcome.latency().max(1);
    let scale = |t: Time| ((t as u128 * width as u128) / makespan as u128) as usize;
    let mut out = String::new();
    for (i, s) in outcome.instr_stats().iter().enumerate() {
        let ready = scale(s.ready_at);
        let issued = scale(s.issued_at);
        let start = scale(s.gate_start);
        let finish = scale(s.finish).max(start + 1).min(width);
        let mut line = vec![' '; width];
        for (lo, hi, ch) in [
            (ready, issued, '.'),
            (issued, start, '~'),
            (start, finish, '#'),
        ] {
            for slot in line.iter_mut().take(hi.min(width)).skip(lo) {
                *slot = ch;
            }
        }
        out.push_str(&format!("i#{i:<4}|"));
        out.extend(line);
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Mapper;
    use crate::policy::FlowPolicy;
    use qspr_fabric::TechParams;
    use qspr_qasm::Program;

    fn mapped() -> (Fabric, Program, Placement, MappingOutcome) {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let program = Program::parse("QUBIT a,0\nQUBIT b,0\nH a\nC-X a,b\n").unwrap();
        let placement = Placement::center(&fabric, 2);
        let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
            .record_trace(true)
            .map(&program, &placement)
            .unwrap();
        (fabric, program, placement, outcome)
    }

    #[test]
    fn positions_start_at_placement_and_end_at_final_placement() {
        let (fabric, _p, placement, outcome) = mapped();
        let trace = outcome.trace().unwrap();
        let topo = fabric.topology();
        let at0 = qubit_positions_at(&fabric, &placement, trace, 0);
        for (q, c) in at0.iter().enumerate() {
            assert_eq!(*c, topo.trap(placement.trap_of(QubitId(q as u32))).coord());
        }
        let at_end = qubit_positions_at(&fabric, &placement, trace, trace.end_time());
        for (q, c) in at_end.iter().enumerate() {
            let final_trap = outcome.final_placement().trap_of(QubitId(q as u32));
            assert_eq!(*c, topo.trap(final_trap).coord());
        }
    }

    #[test]
    fn render_marks_qubits() {
        let (fabric, _p, placement, outcome) = mapped();
        let art = render_at(&fabric, &placement, outcome.trace().unwrap(), 0);
        assert!(art.contains('0'));
        assert!(art.contains('1'));
        // Same grid dimensions as the fabric.
        assert_eq!(art.lines().count(), fabric.rows() as usize);
    }

    #[test]
    fn colocated_qubits_render_as_at_sign() {
        let (fabric, _p, placement, outcome) = mapped();
        let trace = outcome.trace().unwrap();
        // After the CX both qubits share the meeting trap.
        let art = render_at(&fabric, &placement, trace, trace.end_time());
        assert!(art.contains('@'));
    }

    #[test]
    fn gantt_has_one_row_per_instruction() {
        let (_f, program, _pl, outcome) = mapped();
        let gantt = render_gantt(&outcome, 40);
        assert_eq!(gantt.lines().count(), program.instructions().len());
        assert!(gantt.contains('#'), "gates must appear");
    }

    #[test]
    fn gantt_minimum_width_is_enforced() {
        let (_f, _p, _pl, outcome) = mapped();
        let gantt = render_gantt(&outcome, 0);
        assert!(gantt.lines().next().unwrap().len() >= 10);
    }

    #[test]
    fn glyphs_cover_the_alphabet() {
        assert_eq!(qubit_glyph(QubitId(0)), '0');
        assert_eq!(qubit_glyph(QubitId(9)), '9');
        assert_eq!(qubit_glyph(QubitId(10)), 'a');
        assert_eq!(qubit_glyph(QubitId(35)), 'z');
        assert_eq!(qubit_glyph(QubitId(36)), '*');
    }
}
