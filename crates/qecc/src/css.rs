//! CSS codes from dual-containing binary codes, and the quantum Hamming
//! family — workloads beyond the paper's six.

use crate::pauli::Pauli;
use crate::stabilizer::{CodeError, StabilizerCode};

/// Builds the CSS stabilizer code of a *dual-containing* binary code
/// given by parity-check rows: every row becomes one X-type and one
/// Z-type generator.
///
/// # Errors
///
/// Returns [`CodeError::NonCommuting`] when the rows are not
/// self-orthogonal (the code is not dual-containing) and
/// [`CodeError::Dependent`] on redundant rows.
///
/// # Examples
///
/// ```
/// // The Steane code from the [7,4] Hamming parity check.
/// let h = [0b1110100u64, 0b0111010, 0b1101001];
/// let code = qspr_qecc::css::css_code("[[7,1,3]]", 7, &h).unwrap();
/// assert_eq!(code.num_logical(), 1);
/// assert_eq!(code.min_distance_up_to(3), Some(3));
/// ```
pub fn css_code(name: &str, n: usize, h_rows: &[u64]) -> Result<StabilizerCode, CodeError> {
    let mut generators = Vec::with_capacity(2 * h_rows.len());
    for &row in h_rows {
        generators.push(Pauli::from_masks(n, row, 0)); // X-type
    }
    for &row in h_rows {
        generators.push(Pauli::from_masks(n, 0, row)); // Z-type
    }
    StabilizerCode::from_paulis(name, generators)
}

/// The parity-check matrix of the binary Hamming code of order `r`:
/// `r` rows over `n = 2^r − 1` columns, column `j` (1-based) being the
/// binary representation of `j`.
///
/// # Panics
///
/// Panics unless `3 ≤ r ≤ 6` (n must stay within 64 qubits).
pub fn hamming_parity_check(r: u32) -> (usize, Vec<u64>) {
    assert!((3..=6).contains(&r), "supported orders are 3..=6");
    let n = (1usize << r) - 1;
    let rows = (0..r)
        .map(|bit| {
            let mut row = 0u64;
            for col in 1..=n {
                if (col >> bit) & 1 == 1 {
                    row |= 1 << (col - 1);
                }
            }
            row
        })
        .collect();
    (n, rows)
}

/// The quantum Hamming family `[[2^r−1, 2^r−1−2r, 3]]`: CSS codes of the
/// binary Hamming codes, which contain their simplex duals for `r ≥ 3`.
/// `r = 3` is the Steane code; `r = 4` gives \[\[15,7,3\]\]; `r = 5` gives
/// \[\[31,21,3\]\].
///
/// # Panics
///
/// Panics unless `3 ≤ r ≤ 6`.
///
/// # Examples
///
/// ```
/// let code = qspr_qecc::css::quantum_hamming(4);
/// assert_eq!(code.num_qubits(), 15);
/// assert_eq!(code.num_logical(), 7);
/// ```
pub fn quantum_hamming(r: u32) -> StabilizerCode {
    let (n, rows) = hamming_parity_check(r);
    let k = n - 2 * r as usize;
    let name = format!("[[{n},{k},3]]");
    css_code(&name, n, &rows)
        .expect("Hamming codes are dual-containing for r >= 3")
        .with_claimed_distance(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encoding_circuit;
    use crate::tableau::StabilizerSim;

    #[test]
    fn hamming_parity_checks_have_distinct_nonzero_columns() {
        for r in 3..=6 {
            let (n, rows) = hamming_parity_check(r);
            let mut cols = Vec::new();
            for c in 0..n {
                let mut v = 0u32;
                for (b, row) in rows.iter().enumerate() {
                    if (row >> c) & 1 == 1 {
                        v |= 1 << b;
                    }
                }
                assert_ne!(v, 0, "r={r} col {c}");
                cols.push(v);
            }
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), n, "r={r}: columns must be distinct");
        }
    }

    #[test]
    fn family_parameters() {
        for (r, n, k) in [(3u32, 7usize, 1usize), (4, 15, 7), (5, 31, 21)] {
            let code = quantum_hamming(r);
            assert_eq!(code.num_qubits(), n, "r={r}");
            assert_eq!(code.num_logical(), k, "r={r}");
        }
    }

    #[test]
    fn family_distance_is_three() {
        for r in [3u32, 4, 5] {
            let code = quantum_hamming(r);
            assert_eq!(code.min_distance_up_to(3), Some(3), "r={r}");
        }
    }

    #[test]
    fn r3_matches_steane_parameters() {
        let hamming = quantum_hamming(3);
        let steane = crate::codes::steane();
        assert_eq!(hamming.num_qubits(), steane.num_qubits());
        assert_eq!(hamming.num_logical(), steane.num_logical());
    }

    #[test]
    fn family_encoders_verify() {
        for r in [3u32, 4, 5] {
            let code = quantum_hamming(r);
            let program = encoding_circuit(&code).expect("encodes");
            let mut sim = StabilizerSim::new(code.num_qubits());
            sim.run(&program).unwrap();
            for s in code.stabilizers() {
                assert_eq!(sim.stabilizes(s), Some(true), "r={r}: {s}");
            }
        }
    }

    #[test]
    fn non_dual_containing_rows_are_rejected() {
        // Rows with odd pairwise overlap anticommute across X/Z copies.
        let err = css_code("bad", 4, &[0b0011, 0b0110]).unwrap_err();
        assert!(matches!(err, CodeError::NonCommuting(_, _)));
    }

    #[test]
    #[should_panic(expected = "supported orders")]
    fn order_out_of_range_panics() {
        let _ = hamming_parity_check(7);
    }
}
