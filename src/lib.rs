//! Umbrella crate for workspace-level examples and integration tests.
//!
//! The actual library surface lives in the `qspr*` crates; this package
//! only hosts `examples/` and `tests/` that exercise the public APIs
//! end-to-end, mirroring how a downstream user would consume them.
//!
//! New to the codebase? Read `docs/ARCHITECTURE.md` at the repository
//! root first: it walks the end-to-end dataflow (QASM → QIDG → MVFB
//! placement → routing → simulation → reports/service), maps the
//! paper's constructs to the code that implements them, and explains
//! how the front ends (the `qspr` CLI and `qspr serve`) reuse
//! the same seed-determined core.
