//! QIDG construction and graph analyses.

use std::fmt;

use qspr_fabric::{TechParams, Time};
use qspr_qasm::{Gate, GateArity, Instruction, Program};

use crate::schedule::Schedule;

/// Identifier of an instruction node in a [`Qidg`]; equals the
/// instruction's index in the originating program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrId(pub u32);

impl InstrId {
    /// Dense index for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i#{}", self.0)
    }
}

/// The trap-resident execution delay of `gate` under `tech` (the paper's
/// `T_gate` of Eq. 1). Routing and congestion delays are added by the
/// simulator, not here.
pub fn gate_delay(gate: Gate, tech: &TechParams) -> Time {
    match gate.arity() {
        GateArity::One => tech.t_gate_1q,
        GateArity::Two => tech.t_gate_2q,
    }
}

/// Quantum instruction dependency graph.
///
/// One node per instruction; a directed edge `a → b` whenever `b` is the
/// next instruction after `a` touching one of `a`'s qubits. Edges always
/// point from a lower to a higher instruction index, so instruction order
/// is already a topological order.
///
/// # Examples
///
/// ```
/// use qspr_fabric::TechParams;
/// use qspr_qasm::Program;
/// use qspr_sched::{InstrId, Qidg};
///
/// # fn main() -> Result<(), qspr_qasm::ParseError> {
/// let p = Program::parse("QUBIT a\nQUBIT b\nH a\nH b\nC-X a,b\n")?;
/// let g = Qidg::new(&p, &TechParams::date2012());
/// assert_eq!(g.preds(InstrId(2)), &[InstrId(0), InstrId(1)]);
/// assert!(g.succs(InstrId(2)).is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Qidg {
    instructions: Vec<Instruction>,
    delays: Vec<Time>,
    preds: Vec<Vec<InstrId>>,
    succs: Vec<Vec<InstrId>>,
    num_qubits: usize,
}

impl Qidg {
    /// Builds the dependency graph of `program` with node delays taken
    /// from `tech`.
    pub fn new(program: &Program, tech: &TechParams) -> Qidg {
        let _span = qspr_obs::span("qidg");
        let n = program.instructions().len();
        let mut preds: Vec<Vec<InstrId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<InstrId>> = vec![Vec::new(); n];
        // Last instruction that touched each qubit.
        let mut last: Vec<Option<InstrId>> = vec![None; program.num_qubits()];
        for (i, instr) in program.instructions().iter().enumerate() {
            let id = InstrId(i as u32);
            for q in instr.qubits() {
                if let Some(p) = last[q.index()] {
                    // A CX a,b following a CZ a,b would add the edge twice.
                    if !preds[id.index()].contains(&p) {
                        preds[id.index()].push(p);
                        succs[p.index()].push(id);
                    }
                }
                last[q.index()] = Some(id);
            }
        }
        let delays = program
            .instructions()
            .iter()
            .map(|i| gate_delay(i.gate, tech))
            .collect();
        Qidg {
            instructions: program.instructions().to_vec(),
            delays,
            preds,
            succs,
            num_qubits: program.num_qubits(),
        }
    }

    /// Number of instruction nodes.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` when the program had no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Number of qubits in the originating program.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The instruction at node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn instruction(&self, id: InstrId) -> &Instruction {
        &self.instructions[id.index()]
    }

    /// The gate delay of node `id` (`T_gate` only).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn delay(&self, id: InstrId) -> Time {
        self.delays[id.index()]
    }

    /// Direct dependencies of `id` (instructions that must finish first).
    pub fn preds(&self, id: InstrId) -> &[InstrId] {
        &self.preds[id.index()]
    }

    /// Direct dependents of `id`.
    pub fn succs(&self, id: InstrId) -> &[InstrId] {
        &self.succs[id.index()]
    }

    /// Nodes with no dependencies, ready at time zero.
    pub fn roots(&self) -> impl Iterator<Item = InstrId> + '_ {
        (0..self.len() as u32)
            .map(InstrId)
            .filter(|id| self.preds(*id).is_empty())
    }

    /// Node ids in a topological order (instruction order, by
    /// construction).
    pub fn topo_order(&self) -> impl Iterator<Item = InstrId> + '_ {
        (0..self.len() as u32).map(InstrId)
    }

    /// Resource-free as-soon-as-possible schedule. Its makespan is the
    /// paper's ideal-baseline latency.
    pub fn asap(&self) -> Schedule {
        let mut start = vec![0; self.len()];
        let mut makespan = 0;
        for id in self.topo_order() {
            let s = self
                .preds(id)
                .iter()
                .map(|p| start[p.index()] + self.delay(*p))
                .max()
                .unwrap_or(0);
            start[id.index()] = s;
            makespan = makespan.max(s + self.delay(id));
        }
        Schedule::new(start, self.delays.clone())
    }

    /// Resource-free as-late-as-possible schedule, anchored so the last
    /// instruction finishes at the ASAP makespan (QUALE extracts its
    /// issue order from this schedule).
    pub fn alap(&self) -> Schedule {
        let horizon = self.asap().makespan();
        let mut start = vec![0; self.len()];
        for id in self.topo_order().collect::<Vec<_>>().into_iter().rev() {
            let finish = self
                .succs(id)
                .iter()
                .map(|s| start[s.index()])
                .min()
                .unwrap_or(horizon);
            start[id.index()] = finish - self.delay(id);
        }
        Schedule::new(start, self.delays.clone())
    }

    /// The ASAP makespan: the length (in time) of the longest
    /// gate-delay path through the QIDG.
    pub fn critical_path_delay(&self) -> Time {
        self.asap().makespan()
    }

    /// For every node, the longest delay path from that node (inclusive)
    /// to any end node of the QIDG — the second term of the paper's
    /// scheduling priority.
    pub fn longest_path_to_sink(&self) -> Vec<Time> {
        let mut dist = vec![0; self.len()];
        for id in self.topo_order().collect::<Vec<_>>().into_iter().rev() {
            let tail = self
                .succs(id)
                .iter()
                .map(|s| dist[s.index()])
                .max()
                .unwrap_or(0);
            dist[id.index()] = self.delay(id) + tail;
        }
        dist
    }

    /// For every node, how many distinct instructions transitively depend
    /// on it — the first term of the paper's scheduling priority.
    ///
    /// Computed with bitset reachability over the reverse topological
    /// order, O(V·E/64).
    pub fn dependent_count(&self) -> Vec<u32> {
        let n = self.len();
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        let mut counts = vec![0u32; n];
        for id in self.topo_order().collect::<Vec<_>>().into_iter().rev() {
            let i = id.index();
            // Union the successors' reachable sets plus the successors
            // themselves.
            let mut acc = vec![0u64; words];
            for s in self.succs(id) {
                let si = s.index();
                acc[si / 64] |= 1u64 << (si % 64);
                for w in 0..words {
                    acc[w] |= reach[si * words + w];
                }
            }
            counts[i] = acc.iter().map(|w| w.count_ones()).sum();
            reach[i * words..(i + 1) * words].swap_with_slice(&mut acc);
        }
        counts
    }

    /// The paper's list-scheduling priorities (§III) with unit weights:
    /// for each node, `dependent_count + longest_path_to_sink`.
    /// Higher priority instructions issue first.
    pub fn priorities(&self) -> Vec<u64> {
        let deps = self.dependent_count();
        let paths = self.longest_path_to_sink();
        deps.iter()
            .zip(&paths)
            .map(|(&d, &p)| u64::from(d) + p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn fig3() -> Qidg {
        let p = Program::parse(FIG3).unwrap();
        Qidg::new(&p, &TechParams::date2012())
    }

    #[test]
    fn edges_follow_qubit_chains() {
        let g = fig3();
        // Instruction 4 = C-X q3,q2 depends on H q2 (instr 2) only.
        assert_eq!(g.preds(InstrId(4)), &[InstrId(2)]);
        // Instruction 5 = C-Z q4,q2 depends on H q4 (3) and C-X q3,q2 (4).
        let mut p = g.preds(InstrId(5)).to_vec();
        p.sort();
        assert_eq!(p, vec![InstrId(3), InstrId(4)]);
    }

    #[test]
    fn roots_are_the_hadamards() {
        let g = fig3();
        let roots: Vec<_> = g.roots().collect();
        // H q0, H q1, H q2, H q4 and C-X q3,q2? No: C-X q3,q2 depends on
        // H q2. q3 has no prior op, but q2 does.
        assert_eq!(roots, vec![InstrId(0), InstrId(1), InstrId(2), InstrId(3)]);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let p = Program::parse("QUBIT a\nQUBIT b\nC-X a,b\nC-Z a,b\n").unwrap();
        let g = Qidg::new(&p, &TechParams::date2012());
        assert_eq!(g.preds(InstrId(1)), &[InstrId(0)]);
        assert_eq!(g.succs(InstrId(0)), &[InstrId(1)]);
    }

    #[test]
    fn asap_respects_dependencies() {
        let g = fig3();
        let s = g.asap();
        for id in g.topo_order() {
            for p in g.preds(id) {
                assert!(
                    s.finish(*p) <= s.start(id),
                    "{p} finishes after {id} starts"
                );
            }
        }
    }

    #[test]
    fn fig3_critical_path() {
        // Hand-derived ASAP chain: H q2 (10), then the q2 chain
        // C-X q3,q2 / C-Z q4,q2 / C-Y q2,q1 (300), C-X q4,q1 via q1...
        // longest chain finishes at 610.
        assert_eq!(fig3().critical_path_delay(), 610);
    }

    #[test]
    fn alap_is_no_earlier_than_asap_and_same_makespan() {
        let g = fig3();
        let asap = g.asap();
        let alap = g.alap();
        assert_eq!(asap.makespan(), alap.makespan());
        for id in g.topo_order() {
            assert!(alap.start(id) >= asap.start(id), "{id}");
        }
    }

    #[test]
    fn alap_respects_dependencies() {
        let g = fig3();
        let s = g.alap();
        for id in g.topo_order() {
            for p in g.preds(id) {
                assert!(s.finish(*p) <= s.start(id));
            }
        }
    }

    #[test]
    fn dependent_count_on_chain() {
        let p = Program::parse("QUBIT a\nH a\nX a\nY a\n").unwrap();
        let g = Qidg::new(&p, &TechParams::date2012());
        assert_eq!(g.dependent_count(), vec![2, 1, 0]);
    }

    #[test]
    fn dependent_count_on_diamond() {
        // H a ; H b ; CX a,b — both H's have 1 dependent.
        let p = Program::parse("QUBIT a\nQUBIT b\nH a\nH b\nC-X a,b\n").unwrap();
        let g = Qidg::new(&p, &TechParams::date2012());
        assert_eq!(g.dependent_count(), vec![1, 1, 0]);
    }

    #[test]
    fn dependent_count_does_not_double_count() {
        // a fans out to two ops that reconverge: a,b,c distinct qubits.
        //   H a ; CX a,b ; CX a,c ; CX b,c
        let p =
            Program::parse("QUBIT a\nQUBIT b\nQUBIT c\nH a\nC-X a,b\nC-X a,c\nC-X b,c\n").unwrap();
        let g = Qidg::new(&p, &TechParams::date2012());
        // H a reaches {1,2,3}: count 3 (3 reachable, not 4 via two paths).
        assert_eq!(g.dependent_count()[0], 3);
    }

    #[test]
    fn longest_path_includes_own_delay() {
        let p = Program::parse("QUBIT a\nH a\nX a\n").unwrap();
        let g = Qidg::new(&p, &TechParams::date2012());
        assert_eq!(g.longest_path_to_sink(), vec![20, 10]);
    }

    #[test]
    fn priorities_combine_both_terms() {
        let p = Program::parse("QUBIT a\nH a\nX a\n").unwrap();
        let g = Qidg::new(&p, &TechParams::date2012());
        assert_eq!(g.dependent_count(), vec![1, 0]);
        assert_eq!(g.longest_path_to_sink(), vec![20, 10]);
        assert_eq!(g.priorities(), vec![1 + 20, 10]);
    }

    #[test]
    fn empty_program() {
        let p = Program::parse("QUBIT a\n").unwrap();
        let g = Qidg::new(&p, &TechParams::date2012());
        assert!(g.is_empty());
        assert_eq!(g.critical_path_delay(), 0);
        assert_eq!(g.asap().makespan(), 0);
    }

    #[test]
    fn uidg_has_same_critical_path() {
        let p = Program::parse(FIG3).unwrap();
        let g = Qidg::new(&p, &TechParams::date2012());
        let u = Qidg::new(&p.reversed(), &TechParams::date2012());
        assert_eq!(g.critical_path_delay(), u.critical_path_delay());
        assert_eq!(g.len(), u.len());
    }
}

#[cfg(test)]
mod large_graph_tests {
    use super::*;
    use qspr_qasm::{random_program, RandomProgramConfig};

    /// Chains longer than 64 instructions exercise the multi-word bitset
    /// reachability in `dependent_count`.
    #[test]
    fn dependent_count_crosses_word_boundaries() {
        let mut p = Program::parse("QUBIT a\n").unwrap();
        for _ in 0..100 {
            p.apply1(qspr_qasm::Gate::X, qspr_qasm::QubitId(0)).unwrap();
        }
        let g = Qidg::new(&p, &TechParams::date2012());
        let counts = g.dependent_count();
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(*c as usize, 99 - i, "instruction {i}");
        }
    }

    #[test]
    fn wide_graph_dependent_counts() {
        // 70 independent single-qubit gates fanning into one CX chain.
        let mut p = Program::new();
        for i in 0..70 {
            p.add_qubit(&format!("q{i}")).unwrap();
        }
        for i in 0..70 {
            p.apply1(qspr_qasm::Gate::H, qspr_qasm::QubitId(i)).unwrap();
        }
        p.apply2(
            qspr_qasm::Gate::CX,
            qspr_qasm::QubitId(0),
            qspr_qasm::QubitId(1),
        )
        .unwrap();
        let g = Qidg::new(&p, &TechParams::date2012());
        let counts = g.dependent_count();
        assert_eq!(counts[0], 1); // H q0 -> CX
        assert_eq!(counts[1], 1); // H q1 -> CX
        assert_eq!(counts[2], 0); // H q2 has no dependents
        assert_eq!(counts[70], 0); // the CX itself
    }

    /// ASAP and ALAP agree on makespan for arbitrary programs, and both
    /// respect dependencies.
    #[test]
    fn schedules_agree_on_random_programs() {
        let tech = TechParams::date2012();
        for seed in 0..20 {
            let p = random_program(&RandomProgramConfig::new(7, 80), seed);
            let g = Qidg::new(&p, &tech);
            let asap = g.asap();
            let alap = g.alap();
            assert_eq!(asap.makespan(), alap.makespan(), "seed {seed}");
            for id in g.topo_order() {
                assert!(alap.start(id) >= asap.start(id));
                for pr in g.preds(id) {
                    assert!(asap.finish(*pr) <= asap.start(id));
                    assert!(alap.finish(*pr) <= alap.start(id));
                }
            }
        }
    }

    /// The ALAP issue order is a valid topological order.
    #[test]
    fn alap_issue_order_is_topological() {
        let tech = TechParams::date2012();
        for seed in 0..10 {
            let p = random_program(&RandomProgramConfig::new(6, 60), seed);
            let g = Qidg::new(&p, &tech);
            let order = g.alap().issue_order();
            let mut position = vec![0usize; g.len()];
            for (pos, id) in order.iter().enumerate() {
                position[id.index()] = pos;
            }
            for id in g.topo_order() {
                for pr in g.preds(id) {
                    assert!(
                        position[pr.index()] < position[id.index()],
                        "seed {seed}: {pr} after {id}"
                    );
                }
            }
        }
    }

    /// Priorities decrease along every dependency chain when both terms
    /// are positive (a dependent can never outrank its prerequisite).
    #[test]
    fn priorities_decrease_along_chains() {
        let tech = TechParams::date2012();
        for seed in 0..10 {
            let p = random_program(&RandomProgramConfig::new(6, 60), seed);
            let g = Qidg::new(&p, &tech);
            let pr = g.priorities();
            for id in g.topo_order() {
                for s in g.succs(id) {
                    assert!(pr[id.index()] > pr[s.index()], "seed {seed}: {id} vs {s}");
                }
            }
        }
    }
}
