//! The paper's list-scheduling priority function.

/// Weights of the two priority terms of §III: the number of (transitive)
/// dependents of an instruction and the longest gate-delay path from the
/// instruction to the end of the QIDG. QSPR uses both terms
/// (`default()`).
///
/// # Examples
///
/// ```
/// use qspr_sched::PriorityWeights;
///
/// let w = PriorityWeights::default();
/// assert_eq!((w.dependents, w.path), (1.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityWeights {
    /// Weight of the transitive-dependent count term.
    pub dependents: f64,
    /// Weight of the longest-path-delay term (per microsecond).
    pub path: f64,
}

impl PriorityWeights {
    /// Creates explicit weights.
    pub fn new(dependents: f64, path: f64) -> PriorityWeights {
        PriorityWeights { dependents, path }
    }
}

impl Default for PriorityWeights {
    /// The paper's linear combination with unit weights.
    fn default() -> PriorityWeights {
        PriorityWeights::new(1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let d = PriorityWeights::default();
        assert_eq!((d.dependents, d.path), (1.0, 1.0));
    }
}
