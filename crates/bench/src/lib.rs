//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Binaries (run with `--release`):
//!
//! * `table1` — MVFB vs Monte Carlo placers (paper Table 1);
//! * `table2` — ideal baseline vs QUALE vs QSPR (paper Table 2).
//!
//! Criterion benches (`cargo bench`): `mappers`, `placers`, `micro`.

use qspr_fabric::Fabric;
use qspr_qecc::codes::{benchmark_suite, Benchmark};

/// The paper's Table 2 reference values: (circuit, baseline, QUALE,
/// QSPR) execution latencies in µs.
pub const PAPER_TABLE2: [(&str, u64, u64, u64); 6] = [
    ("[[5,1,3]]", 510, 832, 634),
    ("[[7,1,3]]", 510, 798, 610),
    ("[[9,1,3]]", 910, 2216, 1159),
    ("[[14,8,3]]", 2500, 7511, 3390),
    ("[[19,1,7]]", 2510, 6838, 3393),
    ("[[23,1,7]]", 1410, 3738, 2066),
];

/// The paper's Table 1 reference values:
/// (circuit, m=25 MVFB µs, m=25 MC µs, m=25 runs, m=100 MVFB µs,
/// m=100 MC µs, m=100 runs).
pub const PAPER_TABLE1: [(&str, u64, u64, u64, u64, u64, u64); 6] = [
    ("[[5,1,3]]", 634, 664, 88, 634, 674, 312),
    ("[[7,1,3]]", 610, 618, 78, 603, 622, 312),
    ("[[9,1,3]]", 1159, 1212, 86, 1138, 1198, 308),
    ("[[14,8,3]]", 3390, 3540, 83, 3342, 3429, 316),
    ("[[19,1,7]]", 3393, 3483, 82, 3350, 3403, 311),
    ("[[23,1,7]]", 2066, 2183, 89, 2061, 2085, 315),
];

/// The experiment substrate: the 45×85 fabric and the six benchmark
/// circuits, loaded once.
pub struct Workbench {
    /// The QUALE-style 45×85 fabric every experiment uses.
    pub fabric: Fabric,
    /// The six benchmark circuits in table order.
    pub benchmarks: Vec<Benchmark>,
}

impl Workbench {
    /// Loads the fabric and benchmark suite.
    pub fn load() -> Workbench {
        Workbench {
            fabric: Fabric::quale_45x85(),
            benchmarks: benchmark_suite(),
        }
    }

    /// A reduced suite (first `n` circuits) for quick runs.
    pub fn quick(n: usize) -> Workbench {
        let mut wb = Workbench::load();
        wb.benchmarks.truncate(n);
        wb
    }
}

/// Parses `--m <value>` style flags shared by the binaries.
pub fn parse_flag(name: &str, default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    default
}

/// `true` when `--quick` was passed (reduced circuits / seeds).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workbench_loads_six_benchmarks() {
        let wb = Workbench::load();
        assert_eq!(wb.benchmarks.len(), 6);
        assert_eq!(wb.fabric.rows(), 45);
    }

    #[test]
    fn paper_reference_improvements_are_24_to_55_percent() {
        for (name, _, quale, qspr) in PAPER_TABLE2 {
            let imp = 100.0 * (quale as f64 - qspr as f64) / quale as f64;
            assert!((23.0..56.0).contains(&imp), "{name}: {imp}");
        }
    }
}
