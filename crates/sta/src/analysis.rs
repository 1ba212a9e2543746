//! The timing sweeps: arrival/required/slack, critical-path extraction
//! and trace-based resource attribution.

use qspr_fabric::{Coord, Fabric, TechParams, Time, Topology};
use qspr_qasm::{Instruction, Program, QubitId};
use qspr_route::Resource;
use qspr_sched::{InstrId, Qidg};
use qspr_sim::{InstrStats, MappingOutcome, MicroCommand};

use crate::error::StaError;
use crate::report::{
    ChainLink, CriticalStep, InstrTiming, JunctionRank, SegmentRank, TimingReport,
};

/// How many bottleneck rows a report keeps per resource kind.
const TOP_RANKS: usize = 10;

/// Static timing analysis of one mapped execution on a concrete fabric.
///
/// See the [crate docs](crate) for the timing model; construction is
/// cheap, [`TimingAnalysis::analyze`] does the work.
#[derive(Debug, Clone, Copy)]
pub struct TimingAnalysis<'a> {
    fabric: &'a Fabric,
    tech: TechParams,
}

impl<'a> TimingAnalysis<'a> {
    /// An analyzer for executions mapped onto `fabric` under `tech`.
    pub fn new(fabric: &'a Fabric, tech: TechParams) -> TimingAnalysis<'a> {
        TimingAnalysis { fabric, tech }
    }

    /// Reconstructs the timing graph of `outcome` (which must have been
    /// mapped from `program` with trace recording enabled) and extracts
    /// slack, the critical path and bottleneck rankings.
    ///
    /// When the outcome came from a *backward* MVFB pass, pass the
    /// reversed (uncompute) program here: the analysis describes the
    /// execution that actually ran.
    ///
    /// # Errors
    ///
    /// [`StaError::MissingTrace`] without a recorded trace;
    /// [`StaError::ProgramMismatch`] when `program` and `outcome`
    /// disagree on the instruction count.
    pub fn analyze(
        &self,
        program: &Program,
        outcome: &MappingOutcome,
    ) -> Result<TimingReport, StaError> {
        let _span = qspr_obs::span("sta");
        let trace = outcome.trace().ok_or(StaError::MissingTrace)?;
        let qidg = Qidg::new(program, &self.tech);
        let n = qidg.len();
        if n != outcome.instr_stats().len() {
            return Err(StaError::ProgramMismatch {
                program: n,
                outcome: outcome.instr_stats().len(),
            });
        }
        let stats = outcome.instr_stats();
        let topo = self.fabric.topology();

        // Backward sweep: the anchor is the last gate completion (equal
        // to the reported latency for policies without return legs).
        let anchor = stats.iter().map(|s| s.finish).max().unwrap_or(0);
        let mut required = vec![anchor; n];
        for i in (0..n).rev() {
            let succs = qidg.succs(InstrId(i as u32));
            if let Some(r) = succs
                .iter()
                .map(|s| {
                    let st = &stats[s.index()];
                    // Hold the successor's observed ready→finish span
                    // fixed: finishing later than this would push it.
                    required[s.index()] - (st.finish - st.ready_at)
                })
                .min()
            {
                required[i] = r;
            }
        }
        let slack: Vec<Time> = (0..n)
            .map(|i| {
                debug_assert!(required[i] >= stats[i].finish, "negative slack at i#{i}");
                required[i].saturating_sub(stats[i].finish)
            })
            .collect();

        // Critical path: walk binding predecessors back from the sink.
        let path_ids = critical_chain(&qidg, stats, &slack, anchor);
        let mut crit_pos = vec![usize::MAX; n];
        for (pos, id) in path_ids.iter().enumerate() {
            crit_pos[id.index()] = pos;
        }

        // Trace attribution: match each move/turn completion to the
        // instruction window (issued, gate_start] of its qubit.
        let mut windows: Vec<Vec<(Time, Time, InstrId)>> = vec![Vec::new(); program.num_qubits()];
        for (i, instr) in program.instructions().iter().enumerate() {
            let st = &stats[i];
            for q in instr.qubits() {
                windows[q.index()].push((st.issued_at, st.gate_start, InstrId(i as u32)));
            }
        }
        let mut ptr = vec![0usize; windows.len()];
        let mut seg = ResourceTallies::new(topo.segments().len());
        let mut junc = ResourceTallies::new(topo.junctions().len());
        let mut per_instr: Vec<Vec<Resource>> = vec![Vec::new(); n];
        let mut chains: Vec<Vec<ChainLink>> = vec![Vec::new(); path_ids.len()];
        for e in trace.entries() {
            let (qubit, resource) = match e.command {
                MicroCommand::Move { qubit, from, to } => (qubit, move_resource(topo, from, to)),
                MicroCommand::Turn { qubit, at } => {
                    (qubit, topo.junction_at(at).map(Resource::Junction))
                }
                _ => continue,
            };
            let owner = attribute(&windows, &mut ptr, qubit, e.time);
            let is_crit = owner.is_some_and(|id| crit_pos[id.index()] != usize::MAX);
            let is_turn = matches!(e.command, MicroCommand::Turn { .. });
            match resource {
                Some(Resource::Segment(s)) => {
                    seg.record(s.index(), is_crit, self.tech.t_move);
                }
                Some(Resource::Junction(j)) => {
                    let cost = if is_turn {
                        self.tech.t_turn
                    } else {
                        self.tech.t_move
                    };
                    // Junction crossings without a turn still occupy the
                    // junction; they add time but only turns are counted
                    // in the turn columns.
                    if is_turn {
                        junc.record(j.index(), is_crit, cost);
                    } else if is_crit {
                        junc.crit_time[j.index()] += cost;
                    }
                }
                None => {}
            }
            if let Some(id) = owner {
                if let Some(r) = resource {
                    per_instr[id.index()].push(r);
                }
                let pos = crit_pos[id.index()];
                if pos != usize::MAX {
                    chains[pos].push(chain_link(&e.command, e.time, resource));
                }
            }
        }

        // Queuing delay: each delayed instruction charges its full wait
        // to every distinct resource its movers crossed (upper bound).
        for (i, resources) in per_instr.iter_mut().enumerate() {
            let wait = stats[i].congestion_wait();
            if wait == 0 {
                continue;
            }
            resources.sort_unstable();
            resources.dedup();
            for r in resources.iter() {
                match *r {
                    Resource::Segment(s) => seg.queue[s.index()] += wait,
                    Resource::Junction(j) => junc.queue[j.index()] += wait,
                }
            }
        }

        let instructions: Vec<InstrTiming> = (0..n)
            .map(|i| InstrTiming {
                id: InstrId(i as u32),
                gate: label(program, &program.instructions()[i]),
                ready: stats[i].ready_at,
                issued: stats[i].issued_at,
                gate_start: stats[i].gate_start,
                finish: stats[i].finish,
                required: required[i],
                slack: slack[i],
                critical: crit_pos[i] != usize::MAX,
            })
            .collect();
        let critical_path: Vec<CriticalStep> = path_ids
            .iter()
            .zip(chains)
            .map(|(id, chain)| CriticalStep {
                timing: instructions[id.index()].clone(),
                chain,
            })
            .collect();
        Ok(TimingReport {
            makespan: outcome.latency(),
            ideal: qidg.critical_path_delay(),
            instructions,
            critical_path,
            segments: seg.ranked(|i, t| SegmentRank {
                id: qspr_fabric::SegmentId(i as u32),
                at: topo.segments()[i].cell_at(0),
                critical_time: t.crit_time,
                queue_time: t.queue,
                critical_moves: t.crit_count,
                moves: t.count,
            }),
            junctions: junc.ranked(|i, t| JunctionRank {
                id: qspr_fabric::JunctionId(i as u32),
                at: topo.junctions()[i].coord(),
                critical_time: t.crit_time,
                queue_time: t.queue,
                critical_turns: t.crit_count,
                turns: t.count,
            }),
        })
    }
}

/// Per-resource accumulators for one resource kind.
struct ResourceTallies {
    count: Vec<u64>,
    crit_count: Vec<u64>,
    crit_time: Vec<Time>,
    queue: Vec<Time>,
}

/// One resource's tallies, handed to the rank constructor.
struct Tally {
    count: u64,
    crit_count: u64,
    crit_time: Time,
    queue: Time,
}

impl ResourceTallies {
    fn new(len: usize) -> ResourceTallies {
        ResourceTallies {
            count: vec![0; len],
            crit_count: vec![0; len],
            crit_time: vec![0; len],
            queue: vec![0; len],
        }
    }

    fn record(&mut self, index: usize, critical: bool, cost: Time) {
        self.count[index] += 1;
        if critical {
            self.crit_count[index] += 1;
            self.crit_time[index] += cost;
        }
    }

    /// The top [`TOP_RANKS`] active resources: critical time first, then
    /// queuing delay, then traffic, ties by id (fully deterministic).
    fn ranked<R>(&self, make: impl Fn(usize, Tally) -> R) -> Vec<R> {
        let mut order: Vec<usize> = (0..self.count.len())
            .filter(|&i| self.count[i] > 0 || self.queue[i] > 0 || self.crit_time[i] > 0)
            .collect();
        order.sort_by(|&a, &b| {
            self.crit_time[b]
                .cmp(&self.crit_time[a])
                .then(self.queue[b].cmp(&self.queue[a]))
                .then(self.count[b].cmp(&self.count[a]))
                .then(a.cmp(&b))
        });
        order.truncate(TOP_RANKS);
        order
            .into_iter()
            .map(|i| {
                make(
                    i,
                    Tally {
                        count: self.count[i],
                        crit_count: self.crit_count[i],
                        crit_time: self.crit_time[i],
                        queue: self.queue[i],
                    },
                )
            })
            .collect()
    }
}

/// Walks the zero-slack chain back from the makespan sink.
///
/// At each step the *binding* predecessors are those whose finish equals
/// the instruction's ready time (they paced it); ties prefer the lowest
/// slack, then the smallest id, so extraction is deterministic.
fn critical_chain(qidg: &Qidg, stats: &[InstrStats], slack: &[Time], anchor: Time) -> Vec<InstrId> {
    let n = stats.len();
    let Some(sink) = (0..n)
        .map(|i| InstrId(i as u32))
        .find(|id| stats[id.index()].finish == anchor)
    else {
        return Vec::new();
    };
    let mut rev = vec![sink];
    let mut cur = sink;
    loop {
        let ready = stats[cur.index()].ready_at;
        let mut best: Option<InstrId> = None;
        for &p in qidg.preds(cur) {
            if stats[p.index()].finish != ready {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    let (sp, sb) = (slack[p.index()], slack[b.index()]);
                    sp < sb || (sp == sb && p.0 < b.0)
                }
            };
            if better {
                best = Some(p);
            }
        }
        match best {
            Some(p) => {
                rev.push(p);
                cur = p;
            }
            None => break,
        }
    }
    rev.reverse();
    rev
}

/// The fabric resource a one-cell move occupies: the segment of the cell
/// it enters (or, entering a junction or trap, the one it leaves), else
/// the junction it touches.
fn move_resource(topo: &Topology, from: Coord, to: Coord) -> Option<Resource> {
    if let Some((s, _)) = topo.channel_at(to) {
        return Some(Resource::Segment(s));
    }
    if let Some(j) = topo.junction_at(to) {
        return Some(Resource::Junction(j));
    }
    if let Some((s, _)) = topo.channel_at(from) {
        return Some(Resource::Segment(s));
    }
    topo.junction_at(from).map(Resource::Junction)
}

/// The instruction whose routing window `(issued, gate_start]` contains
/// the completion instant `t` of a command by `qubit`, if any (return
/// legs and idle relocations have no owner).
fn attribute(
    windows: &[Vec<(Time, Time, InstrId)>],
    ptr: &mut [usize],
    qubit: QubitId,
    t: Time,
) -> Option<InstrId> {
    let w = &windows[qubit.index()];
    let p = &mut ptr[qubit.index()];
    while *p < w.len() && w[*p].1 < t {
        *p += 1;
    }
    let (issued, gate_start, id) = *w.get(*p)?;
    (issued < t && t <= gate_start).then_some(id)
}

fn chain_link(command: &MicroCommand, time: Time, resource: Option<Resource>) -> ChainLink {
    match *command {
        MicroCommand::Move { qubit, from, to } => ChainLink::Move {
            qubit,
            time,
            from,
            to,
            segment: match resource {
                Some(Resource::Segment(s)) => Some(s),
                _ => None,
            },
        },
        MicroCommand::Turn { qubit, at } => ChainLink::Turn {
            qubit,
            time,
            at,
            junction: match resource {
                Some(Resource::Junction(j)) => Some(j),
                _ => None,
            },
        },
        _ => unreachable!("only moves and turns are chained"),
    }
}

fn label(program: &Program, instr: &Instruction) -> String {
    let mut s = instr.gate.mnemonic().to_string();
    for (k, q) in instr.operands.qubits().enumerate() {
        s.push(if k == 0 { ' ' } else { ',' });
        s.push_str(program.qubit_name(q));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use qspr_json::ToJson;
    use qspr_sim::{FlowPolicy, Mapper, Placement};

    fn mapped(src: &str) -> (Fabric, TechParams, Program, MappingOutcome) {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let program = Program::parse(src).unwrap();
        let placement = Placement::center(&fabric, program.num_qubits());
        let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
            .record_trace(true)
            .map(&program, &placement)
            .unwrap();
        (fabric, tech, program, outcome)
    }

    const SMALL: &str = "QUBIT a\nQUBIT b\nQUBIT c\nH a\nC-X a,b\nC-X b,c\nH c\n";

    #[test]
    fn critical_path_ends_at_the_makespan() {
        let (fabric, tech, program, outcome) = mapped(SMALL);
        let report = TimingAnalysis::new(&fabric, tech)
            .analyze(&program, &outcome)
            .unwrap();
        assert_eq!(report.critical_end(), Some(outcome.latency()));
        assert_eq!(report.makespan(), outcome.latency());
        assert!(report.ideal() <= report.makespan());
    }

    #[test]
    fn slack_is_nonnegative_and_zero_on_the_path() {
        let (fabric, tech, program, outcome) = mapped(SMALL);
        let report = TimingAnalysis::new(&fabric, tech)
            .analyze(&program, &outcome)
            .unwrap();
        assert_eq!(report.min_slack(), Some(0));
        for t in report.instructions() {
            assert!(t.required >= t.finish, "{}", t.id);
            if t.critical {
                assert_eq!(t.slack, 0, "{} is critical but has slack", t.id);
            }
        }
    }

    #[test]
    fn path_steps_bind_their_successors() {
        let (fabric, tech, program, outcome) = mapped(SMALL);
        let report = TimingAnalysis::new(&fabric, tech)
            .analyze(&program, &outcome)
            .unwrap();
        let path = report.critical_path();
        assert!(!path.is_empty());
        for pair in path.windows(2) {
            assert_eq!(
                pair[0].timing.finish, pair[1].timing.ready,
                "critical predecessor must pace its successor"
            );
        }
    }

    #[test]
    fn chains_carry_attributed_moves() {
        let (fabric, tech, program, outcome) = mapped(SMALL);
        let report = TimingAnalysis::new(&fabric, tech)
            .analyze(&program, &outcome)
            .unwrap();
        let commands: usize = report.critical_path().iter().map(|s| s.chain.len()).sum();
        assert!(commands > 0, "center placement still routes operands");
        // Every chained move carries its attributed resource id.
        let with_segment = report
            .critical_path()
            .iter()
            .flat_map(|s| s.chain.iter())
            .filter(|l| {
                matches!(
                    l,
                    ChainLink::Move {
                        segment: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert!(with_segment > 0);
        assert!(!report.segments().is_empty());
    }

    #[test]
    fn analysis_is_deterministic() {
        let (fabric, tech, program, outcome) = mapped(SMALL);
        let sta = TimingAnalysis::new(&fabric, tech);
        let a = sta.analyze(&program, &outcome).unwrap();
        let b = sta.analyze(&program, &outcome).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn missing_trace_is_a_typed_error() {
        let fabric = Fabric::quale_45x85();
        let tech = TechParams::date2012();
        let program = Program::parse("QUBIT a\nH a\n").unwrap();
        let placement = Placement::center(&fabric, 1);
        let outcome = Mapper::new(&fabric, tech, FlowPolicy::Qspr)
            .map(&program, &placement)
            .unwrap();
        let err = TimingAnalysis::new(&fabric, tech)
            .analyze(&program, &outcome)
            .unwrap_err();
        assert_eq!(err, StaError::MissingTrace);
    }

    #[test]
    fn program_mismatch_is_a_typed_error() {
        let (fabric, tech, _program, outcome) = mapped(SMALL);
        let other = Program::parse("QUBIT a\nH a\n").unwrap();
        let err = TimingAnalysis::new(&fabric, tech)
            .analyze(&other, &outcome)
            .unwrap_err();
        assert!(matches!(err, StaError::ProgramMismatch { .. }));
    }

    #[test]
    fn empty_program_yields_an_empty_report() {
        let (fabric, tech, program, outcome) = mapped("QUBIT a\n");
        let report = TimingAnalysis::new(&fabric, tech)
            .analyze(&program, &outcome)
            .unwrap();
        assert!(report.critical_path().is_empty());
        assert_eq!(report.critical_end(), None);
        assert_eq!(report.makespan(), 0);
    }
}
