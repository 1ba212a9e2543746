//! Mapper policies: everything that distinguishes QSPR from the baselines.

use qspr_fabric::TechParams;
use qspr_route::RouterConfig;
use qspr_sched::PriorityWeights;

/// How the operands of a 2-qubit instruction are brought together
/// (paper §I and §IV.B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MovementPolicy {
    /// QSPR: both qubits move simultaneously towards the free trap nearest
    /// to the median of their positions.
    BothToMedian,
    /// QUALE (QCCD storage model): every qubit has a *home* trap fixed by
    /// the initial placement. The source shuttles to the destination's
    /// home, the gate executes, and the source shuttles back home before
    /// it can participate in another operation. Consecutive gates on a
    /// qubit therefore serialize through round trips — the inefficiency
    /// QSPR's stay-where-you-meet policy removes.
    ReturnToHome,
}

/// In which order ready instructions are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IssueOrder {
    /// QSPR's priority list (§III): a linear combination of transitive
    /// dependent count and longest path delay to the QIDG sink.
    PriorityList(PriorityWeights),
    /// QUALE: instructions *extracted* in ALAP order, strictly: a
    /// blocked instruction holds back every unissued instruction behind
    /// it (head-of-line blocking), as in tools that walk a precomputed
    /// schedule rather than QSPR's dynamic ready list.
    Alap,
}

/// The complete mapper policy.
///
/// # Examples
///
/// ```
/// use qspr_fabric::TechParams;
/// use qspr_sim::{MapperPolicy, MovementPolicy};
///
/// let tech = TechParams::date2012();
/// let qspr = MapperPolicy::qspr(&tech);
/// assert_eq!(qspr.movement, MovementPolicy::BothToMedian);
/// let quale = MapperPolicy::quale(&tech);
/// assert_eq!(quale.movement, MovementPolicy::ReturnToHome);
/// assert_eq!(quale.router.channel_capacity, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapperPolicy {
    /// Router configuration (turn awareness, capacities, history costs).
    pub router: RouterConfig,
    /// Operand movement policy.
    pub movement: MovementPolicy,
    /// Ready-instruction issue order.
    pub order: IssueOrder,
}

impl MapperPolicy {
    /// The full QSPR policy (§I bullets): turn-aware multiplexed routing,
    /// both operands move to a median trap, priority-list scheduling.
    pub fn qspr(tech: &TechParams) -> MapperPolicy {
        MapperPolicy {
            router: RouterConfig::qspr(tech),
            movement: MovementPolicy::BothToMedian,
            order: IssueOrder::PriorityList(PriorityWeights::default()),
        }
    }

    /// The QUALE baseline: ALAP extraction (strict order), center
    /// placement (chosen by the caller), PathFinder-style routing, no
    /// channel multiplexing, turn-blind costs, single moving qubit.
    pub fn quale(tech: &TechParams) -> MapperPolicy {
        MapperPolicy {
            router: RouterConfig::quale(tech),
            movement: MovementPolicy::ReturnToHome,
            order: IssueOrder::Alap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qspr_policy_enables_all_improvements() {
        let p = MapperPolicy::qspr(&TechParams::date2012());
        assert!(p.router.turn_aware);
        assert_eq!(p.router.channel_capacity, 2);
        assert_eq!(p.movement, MovementPolicy::BothToMedian);
        assert!(matches!(p.order, IssueOrder::PriorityList(_)));
    }

    #[test]
    fn baselines_disable_the_improvements() {
        let tech = TechParams::date2012();
        let quale = MapperPolicy::quale(&tech);
        assert!(!quale.router.turn_aware);
        assert!(quale.router.history_cost);
        assert_eq!(quale.order, IssueOrder::Alap);
    }
}
