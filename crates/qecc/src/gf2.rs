//! GF(2) linear algebra over bit-vectors of up to 128 columns.
//!
//! Symplectic representations of Paulis on n ≤ 64 qubits fit in a `u128`
//! (`x` bits low, `z` bits high), so a simple pivoted basis suffices for
//! rank, independence and membership queries.

/// An incremental GF(2) row basis with pivot bookkeeping.
///
/// Every inserted vector is reduced against the existing basis; the
/// *combination mask* records which previously inserted vectors
/// participate, so group-membership queries can report the exact product
/// of generators (used when verifying stabilizer signs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitBasis {
    /// (pivot column, reduced vector, combination over inserted vectors)
    rows: Vec<(u32, u128, u128)>,
    inserted: usize,
}

impl BitBasis {
    /// An empty basis over `cols` columns.
    ///
    /// # Panics
    ///
    /// Panics if `cols > 128`.
    pub fn new(cols: usize) -> BitBasis {
        assert!(cols <= 128, "BitBasis supports at most 128 columns");
        BitBasis::default()
    }

    /// Current rank.
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Number of vectors inserted so far (independent or not).
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Reduces `v` against the basis. Returns the residue and the mask of
    /// inserted-vector indices whose sum (XOR) plus the residue equals
    /// `v`. A zero residue means `v` is in the span.
    pub fn reduce(&self, mut v: u128) -> (u128, u128) {
        let mut combo = 0u128;
        for &(pivot, row, row_combo) in &self.rows {
            if (v >> pivot) & 1 == 1 {
                v ^= row;
                combo ^= row_combo;
            }
        }
        (v, combo)
    }

    /// Inserts `v`; returns `true` when it enlarged the span.
    ///
    /// # Panics
    ///
    /// Panics after 128 insertions (combination masks would overflow) —
    /// far beyond any stabilizer group used here.
    pub fn insert(&mut self, v: u128) -> bool {
        assert!(self.inserted < 128, "combination mask exhausted");
        let idx = self.inserted;
        self.inserted += 1;
        let (residue, combo) = self.reduce(v);
        if residue == 0 {
            return false;
        }
        let pivot = 127 - residue.leading_zeros();
        self.rows.push((pivot, residue, combo | (1u128 << idx)));
        // Keep rows sorted by descending pivot for canonical reduction.
        self.rows.sort_by_key(|row| std::cmp::Reverse(row.0));
        true
    }

    /// `true` when `v` lies in the span.
    pub fn contains(&self, v: u128) -> bool {
        self.reduce(v).0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_basis() {
        let b = BitBasis::new(8);
        assert_eq!(b.rank(), 0);
        assert!(b.contains(0));
        assert!(!b.contains(1));
    }

    #[test]
    fn insert_and_rank() {
        let mut b = BitBasis::new(8);
        assert!(b.insert(0b1000));
        assert!(b.insert(0b1100));
        assert!(!b.insert(0b0100)); // dependent on the first two
        assert_eq!(b.rank(), 2);
        assert_eq!(b.inserted(), 3);
    }

    #[test]
    fn combo_masks_name_the_generators() {
        let mut b = BitBasis::new(8);
        b.insert(0b0001);
        b.insert(0b0010);
        b.insert(0b0100);
        let (residue, combo) = b.reduce(0b0101);
        assert_eq!(residue, 0);
        assert_eq!(combo, 0b101); // vectors 0 and 2
    }

    #[test]
    fn full_width_vectors() {
        let mut b = BitBasis::new(128);
        assert!(b.insert(1u128 << 127));
        assert!(b.insert((1u128 << 127) | 1));
        assert!(b.contains(1));
    }

    #[test]
    #[should_panic(expected = "at most 128")]
    fn too_many_columns_panics() {
        let _ = BitBasis::new(129);
    }
}
