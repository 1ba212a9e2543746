//! Physical machine description (PMD): the technology timing and capacity
//! parameters of an ion-trap fabric.
//!
//! The paper's CAD flow (Fig. 1) feeds a PMD into every mapping stage; the
//! experimental values of §V.A are provided by [`TechParams::date2012`].

/// Simulation time in microseconds. All paper constants are integral, so
/// integer time keeps event ordering exact.
pub type Time = u64;

/// Ion-trap technology parameters.
///
/// # Examples
///
/// ```
/// use qspr_fabric::TechParams;
///
/// let tech = TechParams::date2012();
/// assert_eq!(tech.t_move, 1);
/// assert_eq!(tech.t_turn, 10);
/// assert!(tech.t_turn >= 5 * tech.t_move, "turns are 5-30x moves");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TechParams {
    /// Delay of relocating a qubit by one cell without changing direction.
    pub t_move: Time,
    /// Delay of changing movement direction at a junction.
    pub t_turn: Time,
    /// Delay of a 1-qubit gate operation inside a trap.
    pub t_gate_1q: Time,
    /// Delay of a 2-qubit gate operation inside a trap.
    pub t_gate_2q: Time,
    /// Maximum number of qubits concurrently inside one channel segment.
    /// The paper's QSPR uses 2 (ion multiplexing); earlier tools assumed 1.
    pub channel_capacity: u8,
    /// Maximum number of qubits concurrently routed through one junction.
    pub junction_capacity: u8,
}

impl TechParams {
    /// The parameter set used for all experiments in the paper (§V.A):
    /// `T_move = 1µs`, `T_turn = 10µs`, `T_1q = 10µs`, `T_2q = 100µs`,
    /// channel capacity 2 (junctions likewise route up to two qubits).
    pub fn date2012() -> TechParams {
        TechParams {
            t_move: 1,
            t_turn: 10,
            t_gate_1q: 10,
            t_gate_2q: 100,
            channel_capacity: 2,
            junction_capacity: 2,
        }
    }

    /// The same technology with all multiplexing disabled (capacity 1), the
    /// assumption under which QUALE operates.
    pub fn without_multiplexing(mut self) -> TechParams {
        self.channel_capacity = 1;
        self.junction_capacity = 1;
        self
    }
}

impl Default for TechParams {
    /// Defaults to the paper's experimental parameters.
    fn default() -> TechParams {
        TechParams::date2012()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date2012_matches_paper() {
        let t = TechParams::date2012();
        assert_eq!(
            (t.t_move, t.t_turn, t.t_gate_1q, t.t_gate_2q),
            (1, 10, 10, 100)
        );
        assert_eq!(t.channel_capacity, 2);
    }

    #[test]
    fn default_is_date2012() {
        assert_eq!(TechParams::default(), TechParams::date2012());
    }

    #[test]
    fn without_multiplexing_only_touches_capacities() {
        let t = TechParams::date2012().without_multiplexing();
        assert_eq!(t.channel_capacity, 1);
        assert_eq!(t.junction_capacity, 1);
        assert_eq!(t.t_turn, TechParams::date2012().t_turn);
    }
}
