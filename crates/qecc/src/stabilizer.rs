//! Stabilizer codes: validation, logical operators, distance.

use std::error::Error;
use std::fmt;

use crate::gf2::BitBasis;
use crate::pauli::Pauli;

/// Why a stabilizer set does not define a code.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodeError {
    /// Generators `i` and `j` anticommute.
    NonCommuting(usize, usize),
    /// Generator `i` is a product of earlier generators (or identity).
    Dependent(usize),
    /// A generator acts on the wrong number of qubits.
    WrongQubitCount {
        /// Index of the offending generator.
        index: usize,
        /// Its qubit count.
        got: usize,
        /// The code's qubit count.
        expected: usize,
    },
    /// More independent generators than qubits.
    TooManyGenerators,
    /// A code needs at least one stabilizer generator.
    Empty,
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::NonCommuting(i, j) => {
                write!(f, "stabilizer generators {i} and {j} anticommute")
            }
            CodeError::Dependent(i) => {
                write!(f, "stabilizer generator {i} is dependent")
            }
            CodeError::WrongQubitCount {
                index,
                got,
                expected,
            } => write!(
                f,
                "generator {index} acts on {got} qubits, expected {expected}"
            ),
            CodeError::TooManyGenerators => write!(f, "more generators than qubits"),
            CodeError::Empty => write!(f, "no stabilizer generators"),
        }
    }
}

impl Error for CodeError {}

/// An `[[n, k]]` stabilizer code: `n − k` independent commuting Pauli
/// generators plus derived logical operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilizerCode {
    name: String,
    n: usize,
    stabilizers: Vec<Pauli>,
    logical_x: Vec<Pauli>,
    logical_z: Vec<Pauli>,
    claimed_distance: Option<u32>,
}

impl StabilizerCode {
    /// Validates the generator set and derives logical operators.
    ///
    /// Generators may be given as Pauli strings (`"XZZXI"`) or [`Pauli`]
    /// values.
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] when the set is empty, inconsistent in
    /// size, anticommuting, or dependent.
    ///
    /// # Panics
    ///
    /// Panics when a generator *string* fails to parse — generator
    /// literals are programmer input. Use [`StabilizerCode::from_paulis`]
    /// with pre-parsed values for untrusted input.
    pub fn new<I, P>(name: &str, generators: I) -> Result<StabilizerCode, CodeError>
    where
        I: IntoIterator<Item = P>,
        P: TryInto<Pauli>,
        <P as TryInto<Pauli>>::Error: fmt::Debug,
    {
        let stabilizers: Vec<Pauli> = generators
            .into_iter()
            .map(|p| p.try_into().expect("caller supplies valid Pauli strings"))
            .collect();
        Self::from_paulis(name, stabilizers)
    }

    /// Validates an explicit Pauli generator list.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StabilizerCode::new`].
    pub fn from_paulis(name: &str, stabilizers: Vec<Pauli>) -> Result<StabilizerCode, CodeError> {
        let first = stabilizers.first().ok_or(CodeError::Empty)?;
        let n = first.num_qubits();
        for (i, s) in stabilizers.iter().enumerate() {
            if s.num_qubits() != n {
                return Err(CodeError::WrongQubitCount {
                    index: i,
                    got: s.num_qubits(),
                    expected: n,
                });
            }
        }
        if stabilizers.len() > n {
            return Err(CodeError::TooManyGenerators);
        }
        for i in 0..stabilizers.len() {
            for j in (i + 1)..stabilizers.len() {
                if !stabilizers[i].commutes_with(&stabilizers[j]) {
                    return Err(CodeError::NonCommuting(i, j));
                }
            }
        }
        let mut basis = BitBasis::new(2 * n);
        for (i, s) in stabilizers.iter().enumerate() {
            if !basis.insert(s.symplectic()) {
                return Err(CodeError::Dependent(i));
            }
        }
        let (logical_x, logical_z) = derive_logicals(n, &stabilizers);
        Ok(StabilizerCode {
            name: name.to_owned(),
            n,
            stabilizers,
            logical_x,
            logical_z,
            claimed_distance: None,
        })
    }

    /// Annotates the code with its published distance (recorded, not
    /// trusted: see [`StabilizerCode::min_distance_up_to`]).
    pub fn with_claimed_distance(mut self, d: u32) -> StabilizerCode {
        self.claimed_distance = Some(d);
        self
    }

    /// The code's display name, e.g. `[[7,1,3]]`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical qubit count `n`.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of stabilizer generators (`n − k`).
    pub fn num_stabilizers(&self) -> usize {
        self.stabilizers.len()
    }

    /// Logical qubit count `k`.
    pub fn num_logical(&self) -> usize {
        self.n - self.stabilizers.len()
    }

    /// The published distance, if annotated.
    pub fn claimed_distance(&self) -> Option<u32> {
        self.claimed_distance
    }

    /// The stabilizer generators.
    pub fn stabilizers(&self) -> &[Pauli] {
        &self.stabilizers
    }

    /// Logical X̄ representatives, one per logical qubit.
    pub fn logical_x(&self) -> &[Pauli] {
        &self.logical_x
    }

    /// Logical Z̄ representatives, one per logical qubit.
    pub fn logical_z(&self) -> &[Pauli] {
        &self.logical_z
    }

    /// `true` when `p` lies in the stabilizer group (sign-free).
    pub fn in_stabilizer_group(&self, p: &Pauli) -> bool {
        let mut basis = BitBasis::new(2 * self.n);
        for s in &self.stabilizers {
            basis.insert(s.symplectic());
        }
        basis.contains(p.symplectic())
    }

    /// `true` when `p` commutes with every stabilizer generator.
    pub fn in_normalizer(&self, p: &Pauli) -> bool {
        self.stabilizers.iter().all(|s| s.commutes_with(p))
    }

    /// Exhaustively searches for the minimum weight of a *logical*
    /// operator (normalizer element outside the stabilizer group) up to
    /// `max_weight`. Returns `Some(d)` when found, `None` when every
    /// operator of weight ≤ `max_weight` is benign (distance >
    /// `max_weight`).
    ///
    /// Cost grows as `C(n,w)·3^w`; keep `max_weight` small in debug
    /// builds (distance-3 checks are instant, full distance-7 checks on
    /// 23 qubits belong in `--release --ignored` tests).
    pub fn min_distance_up_to(&self, max_weight: u32) -> Option<u32> {
        let mut group = BitBasis::new(2 * self.n);
        for s in &self.stabilizers {
            group.insert(s.symplectic());
        }
        (1..=max_weight).find(|&w| self.has_logical_of_weight(w, &group))
    }

    /// Confirms the code distance is at least `d` (exhaustive check of
    /// all lighter errors).
    pub fn verify_distance_at_least(&self, d: u32) -> bool {
        d <= 1 || self.min_distance_up_to(d - 1).is_none()
    }

    fn has_logical_of_weight(&self, w: u32, group: &BitBasis) -> bool {
        let n = self.n;
        let mut support = Vec::with_capacity(w as usize);
        self.search_support(0, w as usize, n, &mut support, group)
    }

    fn search_support(
        &self,
        start: usize,
        remaining: usize,
        n: usize,
        support: &mut Vec<usize>,
        group: &BitBasis,
    ) -> bool {
        if remaining == 0 {
            return self.try_types(support, group);
        }
        for q in start..=(n - remaining) {
            support.push(q);
            if self.search_support(q + 1, remaining - 1, n, support, group) {
                return true;
            }
            support.pop();
        }
        false
    }

    fn try_types(&self, support: &[usize], group: &BitBasis) -> bool {
        // Enumerate 3^w Pauli type assignments over the support.
        let w = support.len();
        let total = 3usize.pow(w as u32);
        for mut code in 0..total {
            let mut x = 0u64;
            let mut z = 0u64;
            for &q in support {
                match code % 3 {
                    0 => x |= 1 << q,
                    1 => z |= 1 << q,
                    _ => {
                        x |= 1 << q;
                        z |= 1 << q;
                    }
                }
                code /= 3;
            }
            let p = Pauli::from_masks(self.n, x, z);
            if self.in_normalizer(&p) && !group.contains(p.symplectic()) {
                return true;
            }
        }
        false
    }
}

/// Symplectic Gram–Schmidt extraction of logical X̄/Z̄ pairs.
fn derive_logicals(n: usize, stabilizers: &[Pauli]) -> (Vec<Pauli>, Vec<Pauli>) {
    let k = n - stabilizers.len();
    if k == 0 {
        return (Vec::new(), Vec::new());
    }
    // Basis of the centralizer: vectors commuting with every stabilizer.
    let centralizer = centralizer_basis(n, stabilizers);
    let mut span = BitBasis::new(2 * n);
    for s in stabilizers {
        span.insert(s.symplectic());
    }
    let symp = |a: u128, b: u128| -> bool {
        let ax = (a & low_mask(n)) as u64;
        let az = ((a >> n) & low_mask(n)) as u64;
        let bx = (b & low_mask(n)) as u64;
        let bz = ((b >> n) & low_mask(n)) as u64;
        ((ax & bz).count_ones() + (az & bx).count_ones()) % 2 == 1
    };
    let mut pool = centralizer;
    let mut xs = Vec::with_capacity(k);
    let mut zs = Vec::with_capacity(k);
    while xs.len() < k {
        // Pick v outside the current span.
        let vi = pool
            .iter()
            .position(|&v| !span.contains(v))
            .expect("centralizer/stabilizer dimensions guarantee k pairs");
        let v = pool[vi];
        // Find a partner anticommuting with v.
        let wi = pool
            .iter()
            .position(|&w| symp(v, w) && !span.contains(w))
            .expect("a symplectic partner always exists in the centralizer");
        let w = pool[wi];
        // Sweep the rest of the pool to commute with the chosen pair.
        for u in pool.iter_mut() {
            if *u == v || *u == w {
                continue;
            }
            if symp(*u, w) {
                *u ^= v;
            }
            if symp(*u, v) {
                *u ^= w;
            }
        }
        span.insert(v);
        span.insert(w);
        xs.push(Pauli::from_symplectic(n, v));
        zs.push(Pauli::from_symplectic(n, w));
    }
    (xs, zs)
}

fn low_mask(n: usize) -> u128 {
    if n >= 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    }
}

/// A basis of all symplectic vectors commuting with every stabilizer.
fn centralizer_basis(n: usize, stabilizers: &[Pauli]) -> Vec<u128> {
    // v commutes with s  <=>  v · swap(s) = 0, where swap exchanges the
    // x and z halves. Kernel of the (n-k) x 2n constraint matrix.
    let rows: Vec<u128> = stabilizers
        .iter()
        .map(|s| (s.z_mask() as u128) | ((s.x_mask() as u128) << n))
        .collect();
    kernel_basis(&rows, 2 * n)
}

/// Kernel basis of a GF(2) matrix given as bit-rows over `cols` columns.
fn kernel_basis(rows: &[u128], cols: usize) -> Vec<u128> {
    let mut reduced: Vec<u128> = Vec::new();
    let mut pivots: Vec<usize> = Vec::new();
    for &row in rows {
        let mut r = row;
        for (p, rr) in pivots.iter().zip(&reduced) {
            if (r >> p) & 1 == 1 {
                r ^= rr;
            }
        }
        if r != 0 {
            let p = (127 - r.leading_zeros()) as usize;
            // Back-substitute into existing rows.
            for rr in reduced.iter_mut() {
                if (*rr >> p) & 1 == 1 {
                    *rr ^= r;
                }
            }
            reduced.push(r);
            pivots.push(p);
        }
    }
    let mut kernel = Vec::new();
    for free in 0..cols {
        if pivots.contains(&free) {
            continue;
        }
        let mut v = 1u128 << free;
        for (p, rr) in pivots.iter().zip(&reduced) {
            // Row rr has pivot p; if setting `free` makes the equation
            // rr·v = 1, flip the pivot coordinate.
            if (rr >> free) & 1 == 1 {
                v ^= 1u128 << p;
            }
        }
        kernel.push(v);
    }
    kernel
}

#[cfg(test)]
mod tests {
    use super::*;

    fn five_one_three() -> StabilizerCode {
        StabilizerCode::new("[[5,1,3]]", ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]).unwrap()
    }

    #[test]
    fn five_code_has_right_parameters() {
        let c = five_one_three();
        assert_eq!(c.num_qubits(), 5);
        assert_eq!(c.num_stabilizers(), 4);
        assert_eq!(c.num_logical(), 1);
    }

    #[test]
    fn logicals_commute_with_stabilizers_and_pair_up() {
        let c = five_one_three();
        assert_eq!(c.logical_x().len(), 1);
        assert_eq!(c.logical_z().len(), 1);
        let x = &c.logical_x()[0];
        let z = &c.logical_z()[0];
        for s in c.stabilizers() {
            assert!(s.commutes_with(x));
            assert!(s.commutes_with(z));
        }
        assert!(!x.commutes_with(z), "X and Z of one logical anticommute");
        assert!(!c.in_stabilizer_group(x));
        assert!(!c.in_stabilizer_group(z));
    }

    #[test]
    fn five_code_distance_is_exactly_three() {
        let c = five_one_three();
        assert!(c.verify_distance_at_least(3));
        assert_eq!(c.min_distance_up_to(3), Some(3));
    }

    #[test]
    fn anticommuting_generators_rejected() {
        let err = StabilizerCode::new("bad", ["XI", "ZI"]).unwrap_err();
        assert_eq!(err, CodeError::NonCommuting(0, 1));
    }

    #[test]
    fn dependent_generators_rejected() {
        let err = StabilizerCode::new("bad", ["XXI", "ZZI", "YYI"]).unwrap_err();
        assert_eq!(err, CodeError::Dependent(2));
    }

    #[test]
    fn too_many_generators_rejected() {
        let err = StabilizerCode::new("bad", ["XX", "ZZ", "YY"]).unwrap_err();
        assert_eq!(err, CodeError::TooManyGenerators);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let err = StabilizerCode::new("bad", ["XX", "ZZZ"]).unwrap_err();
        assert!(matches!(err, CodeError::WrongQubitCount { index: 1, .. }));
    }

    #[test]
    fn bell_code_logicals() {
        // [[2,0]] code: no logical qubits.
        let c = StabilizerCode::new("bell", ["XX", "ZZ"]).unwrap();
        assert_eq!(c.num_logical(), 0);
        assert!(c.logical_x().is_empty());
    }

    #[test]
    fn repetition_code_distance_one_in_x() {
        // Z-type repetition code: distance 1 against phase flips.
        let c = StabilizerCode::new("rep3", ["ZZI", "IZZ"]).unwrap();
        assert_eq!(c.min_distance_up_to(3), Some(1)); // Z on any qubit
    }

    #[test]
    fn steane_distance_three() {
        let c = StabilizerCode::new(
            "[[7,1,3]]",
            [
                "XXXXIII", "XXIIXXI", "XIXIXIX", "ZZZZIII", "ZZIIZZI", "ZIZIZIZ",
            ],
        )
        .unwrap();
        assert_eq!(c.num_logical(), 1);
        assert_eq!(c.min_distance_up_to(3), Some(3));
    }

    #[test]
    fn kernel_basis_spans_the_kernel() {
        // Matrix [110; 011]: kernel is {000, 111}.
        let rows = vec![0b011u128, 0b110u128];
        let k = kernel_basis(&rows, 3);
        assert_eq!(k.len(), 1);
        assert_eq!(k[0], 0b111);
    }
}
