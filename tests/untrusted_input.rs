//! Never-panic properties of the parsers that read untrusted input:
//! OpenQASM programs and ASCII-art fabrics, as served by `qspr serve`
//! and read by every `--fabric` flag. Each
//! parser must answer arbitrary bytes, arbitrary UTF-8 and near-miss
//! token soups with `Ok` or a typed error, never a panic.

use proptest::prelude::*;

use qspr_fabric::Fabric;
use qspr_qasm::Program;

/// The cell budget the service applies to request fabrics; the
/// properties build fabrics through the same bounded entry point.
const MAX_CELLS: usize = 1 << 18;

/// Arbitrary bytes as the parsers see them: lossily decoded UTF-8.
fn from_bytes(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Arbitrary scalar values, surrogates skipped.
fn from_scalars(scalars: &[u32]) -> String {
    scalars.iter().filter_map(|&c| char::from_u32(c)).collect()
}

/// `valid` with `insert` spliced in at a random character boundary
/// and a random tail cut off: a near-miss of a real document.
fn splice(valid: &str, at: usize, cut: usize, insert: &str) -> String {
    let boundaries: Vec<usize> = valid
        .char_indices()
        .map(|(i, _)| i)
        .chain([valid.len()])
        .collect();
    let at = boundaries[at % boundaries.len()];
    let end = boundaries[boundaries.len() - 1 - cut % boundaries.len()].max(at);
    format!("{}{insert}{}", &valid[..at], &valid[at..end])
}

/// A soup of grammar tokens, which gets past a parser's lexer far more
/// often than random bytes do.
fn from_tokens(vocabulary: &[&str], picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| vocabulary[i % vocabulary.len()])
        .collect()
}

const QASM_PROGRAM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n\
h q[0];\ncx q[0],q[1];\nrz(pi/4) q[2];\nbarrier q;\nmeasure q[1] -> c[1];\n";

const FABRIC_DOCUMENTS: &[&str] = &[
    include_str!("../examples/fabrics/nearest_neighbor_6x6.txt"),
    include_str!("../examples/fabrics/regular_21x41_p4.txt"),
];

const QASM_TOKENS: &[&str] = &[
    "OPENQASM 2.0;\n",
    "include \"qelib1.inc\";\n",
    "qreg q[",
    "creg c[",
    "]",
    "[",
    ";",
    ";\n",
    ",",
    " ",
    "q",
    "c",
    "0",
    "1",
    "7",
    "4294967296",
    "-1",
    "cx ",
    "h ",
    "t ",
    "tdg ",
    "rz(",
    "u3(",
    "pi",
    "/",
    "*",
    "(",
    ")",
    "measure ",
    "->",
    "barrier ",
    "gate ",
    "{",
    "}",
    "//",
    "\n",
    "reset ",
    "if(",
    "==",
];

/// JSON tokens, with a few cells among them: clients that send JSON
/// where art belongs.
const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"name\"",
    "\"rows\"",
    "\"T-+|.\"",
    "0",
    "65536",
    "-3",
    "1e999",
    "null",
    "true",
    "\"\\u0000\"",
    " ",
    "\n",
    "T",
    "-",
    "+",
];

const ART_TOKENS: &[&str] = &["T", "-", "|", "+", ".", " ", "\n", "\r\n", "x", "é"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Program::parse` answers any input without panicking.
    #[test]
    fn qasm_parser_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        scalars in proptest::collection::vec(0u32..0x11_0000, 0..120),
        picks in proptest::collection::vec(0usize..1000, 0..80),
        at in 0usize..10_000,
        cut in 0usize..10_000,
    ) {
        let soup = from_tokens(QASM_TOKENS, &picks);
        let near_miss = splice(QASM_PROGRAM, at, cut, &soup[..soup.len().min(24)]);
        for text in [from_bytes(&bytes), from_scalars(&scalars), soup, near_miss] {
            let _ = Program::parse(&text);
        }
    }

    /// The ASCII loader answers JSON-looking documents without
    /// panicking: token soups, and the committed fabrics with JSON
    /// spliced in.
    #[test]
    fn json_looking_fabrics_never_panic_the_ascii_loader(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        scalars in proptest::collection::vec(0u32..0x11_0000, 0..120),
        picks in proptest::collection::vec(0usize..1000, 0..120),
        doc in 0usize..2,
        at in 0usize..10_000,
        cut in 0usize..10_000,
        take in 0usize..6,
    ) {
        let soup = from_tokens(JSON_TOKENS, &picks);
        let insert = from_tokens(JSON_TOKENS, &picks[..take.min(picks.len())]);
        let near_miss = splice(FABRIC_DOCUMENTS[doc], at, cut, &insert);
        for text in [from_bytes(&bytes), from_scalars(&scalars), soup, near_miss] {
            let _ = Fabric::parse_within(&text, MAX_CELLS);
        }
    }

    /// The ASCII-art front end answers any input without panicking.
    #[test]
    fn fabric_ascii_parser_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        scalars in proptest::collection::vec(0u32..0x11_0000, 0..120),
        picks in proptest::collection::vec(0usize..1000, 0..300),
    ) {
        for text in [from_bytes(&bytes), from_scalars(&scalars), from_tokens(ART_TOKENS, &picks)] {
            let _ = Fabric::from_ascii(&text);
            let _ = Fabric::parse_within(&text, MAX_CELLS);
        }
    }
}
