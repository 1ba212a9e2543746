//! Qubit-to-trap placements, including center placements.

use rand::seq::SliceRandom;
use rand::Rng;

use qspr_fabric::{Fabric, TrapId};
use qspr_qasm::QubitId;

use crate::error::MapError;

/// An assignment of program qubits to fabric traps, with at most two
/// qubits per trap (the trap capacity of the ion-trap technology).
///
/// Fresh placements produced by the placers are injective; placements
/// *resulting* from a mapped execution may pair up the operands of the
/// final two-qubit gates, and the MVFB placer legitimately feeds those
/// back in as the next pass's starting point.
///
/// # Examples
///
/// ```
/// use qspr_fabric::Fabric;
/// use qspr_qasm::QubitId;
/// use qspr_sim::Placement;
///
/// let fabric = Fabric::quale_45x85();
/// let placement = Placement::center(&fabric, 5);
/// assert_eq!(placement.num_qubits(), 5);
/// // Qubit 0 sits in the trap closest to the fabric center.
/// let t = placement.trap_of(QubitId(0));
/// let closest = fabric.topology().traps_by_distance(fabric.center())[0];
/// assert_eq!(t, closest);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    traps: Vec<TrapId>,
}

impl Placement {
    /// Builds a placement from an explicit trap list (index = qubit id).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::DuplicateTrap`] when more than two qubits share
    /// one trap. Trap-id range checking happens when the placement is used
    /// with a concrete fabric in [`crate::Mapper::map`].
    pub fn new(traps: Vec<TrapId>) -> Result<Placement, MapError> {
        let mut seen = traps.clone();
        seen.sort();
        for triple in seen.windows(3) {
            if triple[0] == triple[2] {
                return Err(MapError::DuplicateTrap(triple[0]));
            }
        }
        Ok(Placement { traps })
    }

    /// QUALE's *center placement*: qubit `i` goes to the `i`-th trap
    /// closest to the fabric center (§I).
    ///
    /// # Panics
    ///
    /// Panics if the fabric has fewer than `num_qubits` traps.
    pub fn center(fabric: &Fabric, num_qubits: usize) -> Placement {
        let traps = fabric.topology().nearest_traps(fabric.center(), num_qubits);
        assert!(
            traps.len() == num_qubits,
            "fabric has {} traps, need {num_qubits}",
            traps.len()
        );
        Placement { traps }
    }

    /// A random permutation of the `num_qubits` center-closest traps — the
    /// seeds of both the Monte Carlo placer and MVFB (§IV.A, §V.A).
    ///
    /// # Panics
    ///
    /// Panics if the fabric has fewer than `num_qubits` traps.
    pub fn center_permutation<R: Rng>(
        fabric: &Fabric,
        num_qubits: usize,
        rng: &mut R,
    ) -> Placement {
        let mut placement = Placement::center(fabric, num_qubits);
        placement.traps.shuffle(rng);
        placement
    }

    /// Number of placed qubits.
    pub fn num_qubits(&self) -> usize {
        self.traps.len()
    }

    /// The trap assigned to `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn trap_of(&self, qubit: QubitId) -> TrapId {
        self.traps[qubit.index()]
    }

    /// The assignment as a slice (index = qubit id).
    pub fn as_slice(&self) -> &[TrapId] {
        &self.traps
    }

    /// Validates this placement against a fabric and program size.
    pub(crate) fn check(&self, fabric: &Fabric, program_qubits: usize) -> Result<(), MapError> {
        if self.traps.len() != program_qubits {
            return Err(MapError::QubitCountMismatch {
                placement: self.traps.len(),
                program: program_qubits,
            });
        }
        let n_traps = fabric.topology().traps().len();
        // Two qubits per trap is the hard capacity limit.
        if n_traps * 2 < program_qubits {
            return Err(MapError::NotEnoughTraps {
                traps: n_traps,
                qubits: program_qubits,
            });
        }
        for &t in &self.traps {
            if t.index() >= n_traps {
                return Err(MapError::TrapOutOfRange(t));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trap_pairs_are_allowed_but_triples_rejected() {
        // Two qubits per trap is fine (trap capacity).
        assert!(Placement::new(vec![TrapId(1), TrapId(1)]).is_ok());
        let err = Placement::new(vec![TrapId(1), TrapId(1), TrapId(1)]).unwrap_err();
        assert_eq!(err, MapError::DuplicateTrap(TrapId(1)));
    }

    #[test]
    fn center_is_deterministic_and_injective() {
        let f = Fabric::quale_45x85();
        let a = Placement::center(&f, 23);
        let b = Placement::center(&f, 23);
        assert_eq!(a, b);
        let mut traps = a.as_slice().to_vec();
        traps.sort();
        traps.dedup();
        assert_eq!(traps.len(), 23);
    }

    #[test]
    fn center_permutation_uses_same_trap_set() {
        let f = Fabric::quale_45x85();
        let mut rng = StdRng::seed_from_u64(9);
        let p = Placement::center_permutation(&f, 12, &mut rng);
        let mut a = p.as_slice().to_vec();
        let mut b = Placement::center(&f, 12).as_slice().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn center_permutation_is_seed_deterministic() {
        let f = Fabric::quale_45x85();
        let p1 = Placement::center_permutation(&f, 12, &mut StdRng::seed_from_u64(1));
        let p2 = Placement::center_permutation(&f, 12, &mut StdRng::seed_from_u64(1));
        let p3 = Placement::center_permutation(&f, 12, &mut StdRng::seed_from_u64(2));
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
    }

    #[test]
    fn check_catches_mismatches() {
        let f = Fabric::quale_45x85();
        let p = Placement::center(&f, 5);
        assert_eq!(
            p.check(&f, 6),
            Err(MapError::QubitCountMismatch {
                placement: 5,
                program: 6
            })
        );
        let bad = Placement::new(vec![TrapId(999_999)]).unwrap();
        assert_eq!(
            bad.check(&f, 1),
            Err(MapError::TrapOutOfRange(TrapId(999_999)))
        );
    }

    #[test]
    #[should_panic(expected = "traps")]
    fn center_with_too_many_qubits_panics() {
        let f = Fabric::quale_45x85();
        let _ = Placement::center(&f, 10_000);
    }
}
