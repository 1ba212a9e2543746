//! n-qubit Pauli operators (n ≤ 64) in symplectic representation.

use std::fmt;
use std::str::FromStr;

/// The single-qubit Pauli kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PauliKind {
    /// Identity.
    I,
    /// Bit flip.
    X,
    /// Bit+phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl PauliKind {
    /// The (x, z) symplectic bits of this kind.
    pub fn bits(self) -> (bool, bool) {
        match self {
            PauliKind::I => (false, false),
            PauliKind::X => (true, false),
            PauliKind::Y => (true, true),
            PauliKind::Z => (false, true),
        }
    }

    fn from_bits(x: bool, z: bool) -> PauliKind {
        match (x, z) {
            (false, false) => PauliKind::I,
            (true, false) => PauliKind::X,
            (true, true) => PauliKind::Y,
            (false, true) => PauliKind::Z,
        }
    }

    fn letter(self) -> char {
        match self {
            PauliKind::I => 'I',
            PauliKind::X => 'X',
            PauliKind::Y => 'Y',
            PauliKind::Z => 'Z',
        }
    }
}

/// A sign-free n-qubit Pauli operator, stored as x/z bit masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pauli {
    n: u8,
    x: u64,
    z: u64,
}

impl Pauli {
    /// The identity on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    pub fn identity(n: usize) -> Pauli {
        assert!((1..=64).contains(&n), "Pauli supports 1..=64 qubits");
        Pauli {
            n: n as u8,
            x: 0,
            z: 0,
        }
    }

    /// Builds a Pauli from raw x/z masks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range or a mask has bits above `n`.
    pub fn from_masks(n: usize, x: u64, z: u64) -> Pauli {
        assert!((1..=64).contains(&n), "Pauli supports 1..=64 qubits");
        let valid = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        assert!(
            x & !valid == 0 && z & !valid == 0,
            "mask exceeds {n} qubits"
        );
        Pauli { n: n as u8, x, z }
    }

    /// Number of qubits the operator acts on.
    pub fn num_qubits(&self) -> usize {
        self.n as usize
    }

    /// The X bit mask.
    pub fn x_mask(&self) -> u64 {
        self.x
    }

    /// The Z bit mask.
    pub fn z_mask(&self) -> u64 {
        self.z
    }

    /// The single-qubit kind at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_qubits()`.
    pub fn kind(&self, i: usize) -> PauliKind {
        assert!(i < self.num_qubits(), "qubit {i} out of range");
        PauliKind::from_bits((self.x >> i) & 1 == 1, (self.z >> i) & 1 == 1)
    }

    /// Replaces the kind at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_qubits()`.
    pub fn set_kind(&mut self, i: usize, kind: PauliKind) {
        assert!(i < self.num_qubits(), "qubit {i} out of range");
        let (x, z) = kind.bits();
        self.x = (self.x & !(1 << i)) | ((x as u64) << i);
        self.z = (self.z & !(1 << i)) | ((z as u64) << i);
    }

    /// Number of non-identity positions.
    pub fn weight(&self) -> u32 {
        (self.x | self.z).count_ones()
    }

    /// `true` for the identity.
    pub fn is_identity(&self) -> bool {
        self.x == 0 && self.z == 0
    }

    /// Symplectic commutation: `true` when the operators commute.
    pub fn commutes_with(&self, other: &Pauli) -> bool {
        debug_assert_eq!(self.n, other.n);
        ((self.x & other.z).count_ones() + (self.z & other.x).count_ones()) % 2 == 0
    }

    /// The symplectic bit-vector: x bits in the low word, z bits shifted
    /// into the high half (column layout used by [`crate::gf2::BitBasis`]).
    pub fn symplectic(&self) -> u128 {
        (self.x as u128) | ((self.z as u128) << self.n)
    }

    /// Rebuilds a Pauli from [`Pauli::symplectic`] form.
    pub fn from_symplectic(n: usize, v: u128) -> Pauli {
        let mask = if n == 64 {
            u64::MAX as u128
        } else {
            (1u128 << n) - 1
        };
        Pauli::from_masks(n, (v & mask) as u64, ((v >> n) & mask) as u64)
    }

    /// Permutes the qubits: position `i` of the result is position
    /// `perm[i]` of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn permuted(&self, perm: &[usize]) -> Pauli {
        assert_eq!(perm.len(), self.num_qubits(), "permutation length");
        let mut out = Pauli::identity(self.num_qubits());
        for (i, &src) in perm.iter().enumerate() {
            out.set_kind(i, self.kind(src));
        }
        out
    }

    /// Iterates the per-qubit kinds.
    pub fn kinds(&self) -> impl Iterator<Item = PauliKind> + '_ {
        (0..self.num_qubits()).map(move |i| self.kind(i))
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for kind in self.kinds() {
            write!(f, "{}", kind.letter())?;
        }
        Ok(())
    }
}

/// Error parsing a Pauli string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePauliError(char);

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Pauli letter {:?}", self.0)
    }
}

impl std::error::Error for ParsePauliError {}

impl TryFrom<&str> for Pauli {
    type Error = ParsePauliError;

    fn try_from(s: &str) -> Result<Pauli, ParsePauliError> {
        s.parse()
    }
}

impl FromStr for Pauli {
    type Err = ParsePauliError;

    /// Parses strings like `"XZZXI"` (case-insensitive, `_`/space
    /// ignored).
    fn from_str(s: &str) -> Result<Pauli, ParsePauliError> {
        let letters: Vec<char> = s
            .chars()
            .filter(|c| !c.is_whitespace() && *c != '_')
            .collect();
        let mut p = Pauli::identity(letters.len().max(1));
        if letters.is_empty() {
            return Err(ParsePauliError(' '));
        }
        for (i, c) in letters.iter().enumerate() {
            let kind = match c.to_ascii_uppercase() {
                'I' => PauliKind::I,
                'X' => PauliKind::X,
                'Y' => PauliKind::Y,
                'Z' => PauliKind::Z,
                other => return Err(ParsePauliError(other)),
            };
            p.set_kind(i, kind);
        }
        Ok(p)
    }
}

/// A Pauli with a global phase `i^phase` (`phase` mod 4), closed under
/// multiplication — needed to verify stabilizer *signs*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhasedPauli {
    pauli: Pauli,
    phase: u8,
}

impl PhasedPauli {
    /// Wraps a sign-free Pauli with phase `+1`.
    pub fn new(pauli: Pauli) -> PhasedPauli {
        PhasedPauli { pauli, phase: 0 }
    }

    /// Parses a Pauli string with phase `+1`.
    ///
    /// # Errors
    ///
    /// Returns an error for letters outside `IXYZ`.
    pub fn from_str_plus(s: &str) -> Result<PhasedPauli, ParsePauliError> {
        Ok(PhasedPauli::new(s.parse()?))
    }

    /// The sign-free part.
    pub fn pauli(&self) -> &Pauli {
        &self.pauli
    }

    /// The exponent of `i` in the global phase (0..4).
    pub fn phase(&self) -> u8 {
        self.phase
    }

    /// Multiplies by `i^k`.
    pub fn times_i(mut self, k: u8) -> PhasedPauli {
        self.phase = (self.phase + k) % 4;
        self
    }

    /// The product `self · other`, with exact phase.
    pub fn mul(&self, other: &PhasedPauli) -> PhasedPauli {
        debug_assert_eq!(self.pauli.n, other.pauli.n);
        let mut phase = u32::from(self.phase) + u32::from(other.phase);
        // Per-qubit phase contributions of single-Pauli products.
        for i in 0..self.pauli.num_qubits() {
            phase += kind_product_phase(self.pauli.kind(i), other.pauli.kind(i));
        }
        PhasedPauli {
            pauli: Pauli {
                n: self.pauli.n,
                x: self.pauli.x ^ other.pauli.x,
                z: self.pauli.z ^ other.pauli.z,
            },
            phase: (phase % 4) as u8,
        }
    }
}

/// Exponent of `i` in `a·b` for single-qubit Paulis (e.g. X·Z = −iY → 3).
fn kind_product_phase(a: PauliKind, b: PauliKind) -> u32 {
    use PauliKind::*;
    match (a, b) {
        (X, Y) | (Y, Z) | (Z, X) => 1,
        (Y, X) | (Z, Y) | (X, Z) => 3,
        _ => 0,
    }
}

impl fmt::Display for PhasedPauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix = match self.phase {
            0 => "+",
            1 => "+i",
            2 => "-",
            _ => "-i",
        };
        write!(f, "{prefix}{}", self.pauli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["XZZXI", "IIIII", "YYYY", "XIZ"] {
            let p: Pauli = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!("XQZ".parse::<Pauli>().is_err());
    }

    #[test]
    fn weight_counts_non_identity() {
        let p: Pauli = "XIYZI".parse().unwrap();
        assert_eq!(p.weight(), 3);
        assert!(Pauli::identity(5).is_identity());
    }

    #[test]
    fn commutation_rules() {
        let x: Pauli = "X".parse().unwrap();
        let z: Pauli = "Z".parse().unwrap();
        let y: Pauli = "Y".parse().unwrap();
        assert!(!x.commutes_with(&z));
        assert!(!x.commutes_with(&y));
        assert!(x.commutes_with(&x));
        // XX vs ZZ: two anticommuting positions -> commute overall.
        let xx: Pauli = "XX".parse().unwrap();
        let zz: Pauli = "ZZ".parse().unwrap();
        assert!(xx.commutes_with(&zz));
    }

    #[test]
    fn five_qubit_code_stabilizers_commute() {
        let gens: Vec<Pauli> = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for a in &gens {
            for b in &gens {
                assert!(a.commutes_with(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn symplectic_round_trip() {
        let p: Pauli = "XYZI".parse().unwrap();
        let v = p.symplectic();
        assert_eq!(Pauli::from_symplectic(4, v), p);
    }

    #[test]
    fn permutation_moves_kinds() {
        let p: Pauli = "XYZ".parse().unwrap();
        let q = p.permuted(&[2, 0, 1]);
        assert_eq!(q.to_string(), "ZXY");
    }

    #[test]
    fn phased_multiplication_table() {
        let x = PhasedPauli::from_str_plus("X").unwrap();
        let y = PhasedPauli::from_str_plus("Y").unwrap();
        let z = PhasedPauli::from_str_plus("Z").unwrap();
        // XY = iZ
        let xy = x.mul(&y);
        assert_eq!((xy.pauli().to_string().as_str(), xy.phase()), ("Z", 1));
        // YX = -iZ
        let yx = y.mul(&x);
        assert_eq!((yx.pauli().to_string().as_str(), yx.phase()), ("Z", 3));
        // X·X = I
        let xx = x.mul(&x);
        assert_eq!((xx.pauli().is_identity(), xx.phase()), (true, 0));
        // ZX = iY
        let zx = z.mul(&x);
        assert_eq!((zx.pauli().to_string().as_str(), zx.phase()), ("Y", 1));
    }

    #[test]
    fn phased_multiplication_is_associative_on_samples() {
        let ops: Vec<PhasedPauli> = ["XZ", "YI", "ZZ", "XY", "IZ"]
            .iter()
            .map(|s| PhasedPauli::from_str_plus(s).unwrap())
            .collect();
        for a in &ops {
            for b in &ops {
                for c in &ops {
                    assert_eq!(a.mul(b).mul(c), a.mul(&b.mul(c)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_qubits_panics() {
        let _ = Pauli::identity(0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_mask_panics() {
        let _ = Pauli::from_masks(3, 0b1000, 0);
    }
}
