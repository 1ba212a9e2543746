//! Property-based tests of the Pauli algebra.

#![cfg(test)]

use proptest::prelude::*;

use crate::pauli::{Pauli, PhasedPauli};

fn arb_pauli(n: usize) -> impl Strategy<Value = Pauli> {
    let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    (any::<u64>(), any::<u64>()).prop_map(move |(x, z)| Pauli::from_masks(n, x & mask, z & mask))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pauli_symplectic_round_trips(p in arb_pauli(17)) {
        prop_assert_eq!(Pauli::from_symplectic(17, p.symplectic()), p);
    }

    #[test]
    fn pauli_commutation_is_symmetric(a in arb_pauli(11), b in arb_pauli(11)) {
        prop_assert_eq!(a.commutes_with(&b), b.commutes_with(&a));
        prop_assert!(a.commutes_with(&a), "every Pauli commutes with itself");
    }

    #[test]
    fn phased_products_commute_up_to_the_symplectic_sign(
        a in arb_pauli(9),
        b in arb_pauli(9),
    ) {
        let pa = PhasedPauli::new(a);
        let pb = PhasedPauli::new(b);
        let ab = pa.mul(&pb);
        let ba = pb.mul(&pa);
        prop_assert_eq!(ab.pauli(), ba.pauli());
        if a.commutes_with(&b) {
            prop_assert_eq!(ab.phase(), ba.phase());
        } else {
            prop_assert_eq!((ab.phase() + 2) % 4, ba.phase());
        }
    }

    #[test]
    fn phased_squares_are_scalar(a in arb_pauli(9)) {
        // P² = ±I for any Pauli with a real phase convention.
        let p = PhasedPauli::new(a);
        let sq = p.mul(&p);
        prop_assert!(sq.pauli().is_identity());
        prop_assert_eq!(sq.phase() % 2, 0);
    }

    #[test]
    fn permutations_preserve_weight_and_commutation(
        a in arb_pauli(8),
        b in arb_pauli(8),
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut perm: Vec<usize> = (0..8).collect();
        perm.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let pa = a.permuted(&perm);
        let pb = b.permuted(&perm);
        prop_assert_eq!(pa.weight(), a.weight());
        prop_assert_eq!(pa.commutes_with(&pb), a.commutes_with(&b));
    }
}
