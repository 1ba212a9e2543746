//! The mapper policy: QSPR or the paper's QUALE baseline.

use std::fmt;
use std::str::FromStr;

use qspr_fabric::TechParams;
use qspr_route::RouterConfig;

/// Which of the paper's two tools a [`Mapper`](crate::Mapper) runs
/// (§I, Tables 1–2): everything that distinguishes QSPR from QUALE.
///
/// # Examples
///
/// ```
/// use qspr_fabric::TechParams;
/// use qspr_sim::FlowPolicy;
///
/// let tech = TechParams::date2012();
/// assert_eq!("quale".parse::<FlowPolicy>(), Ok(FlowPolicy::Quale));
/// assert_eq!(FlowPolicy::Qspr.router_config(&tech).channel_capacity, 2);
/// assert_eq!(FlowPolicy::Quale.router_config(&tech).channel_capacity, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPolicy {
    /// The paper's full tool: priority-list issue (§III), both operands
    /// move to the cheapest meeting trap, turn-aware multiplexed
    /// routing (§IV.B).
    Qspr,
    /// The QUALE baseline: ALAP extraction, strictly (a blocked
    /// instruction holds back every unissued one behind it), and the
    /// QCCD storage model: every qubit has a *home* trap fixed by the
    /// initial placement, the source shuttles to the destination's home
    /// and back after the gate, so consecutive gates on a qubit
    /// serialize through round trips. Routing is turn-blind, capacity-1
    /// and PathFinder-style.
    Quale,
}

impl FlowPolicy {
    /// Stable lowercase name (`"qspr"` / `"quale"`).
    pub fn as_str(self) -> &'static str {
        match self {
            FlowPolicy::Qspr => "qspr",
            FlowPolicy::Quale => "quale",
        }
    }

    /// The router this policy maps with on technology `tech`:
    /// [`RouterConfig::qspr`] or [`RouterConfig::quale`].
    pub fn router_config(self, tech: &TechParams) -> RouterConfig {
        match self {
            FlowPolicy::Qspr => RouterConfig::qspr(tech),
            FlowPolicy::Quale => RouterConfig::quale(tech),
        }
    }
}

impl fmt::Display for FlowPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown policy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFlowPolicyError(String);

impl fmt::Display for ParseFlowPolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown policy {:?} (expected qspr or quale)", self.0)
    }
}

impl std::error::Error for ParseFlowPolicyError {}

impl FromStr for FlowPolicy {
    type Err = ParseFlowPolicyError;

    fn from_str(s: &str) -> Result<FlowPolicy, ParseFlowPolicyError> {
        match s {
            "qspr" => Ok(FlowPolicy::Qspr),
            "quale" => Ok(FlowPolicy::Quale),
            other => Err(ParseFlowPolicyError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qspr_policy_enables_all_improvements() {
        let tech = TechParams::date2012();
        let router = FlowPolicy::Qspr.router_config(&tech);
        assert!(router.turn_aware);
        assert!(!router.history_cost);
        // Capacities come from the technology.
        assert_eq!(router.channel_capacity, 2);
        let single = FlowPolicy::Qspr.router_config(&tech.without_multiplexing());
        assert_eq!((single.channel_capacity, single.junction_capacity), (1, 1));
    }

    #[test]
    fn baselines_disable_the_improvements() {
        let tech = TechParams::date2012();
        assert_eq!(tech.channel_capacity, 2);
        let router = FlowPolicy::Quale.router_config(&tech);
        assert!(!router.turn_aware);
        assert!(router.history_cost);
        // Capacity 1 whatever the technology allows.
        assert_eq!((router.channel_capacity, router.junction_capacity), (1, 1));
        assert_eq!((router.t_move, router.t_turn), (tech.t_move, tech.t_turn));
    }
}
