//! Shared harness code for regenerating the paper's tables.
//!
//! Binaries (run with `--release`):
//!
//! * `table1` — MVFB vs Monte Carlo placers (paper Table 1);
//! * `table2` — ideal baseline vs QUALE vs QSPR (paper Table 2).
//!
//! End-to-end and per-layer speed is measured by the standalone
//! `perfbench` package.

#![forbid(unsafe_code)]

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
}

/// Parses `--m <value>` style flags shared by the binaries from the
/// process arguments. A missing or unparsable value is a usage error:
/// the message names the flag and the process exits with status 2,
/// rather than running the default experiment under a typo.
pub fn parse_flag(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    flag_value(&args, name, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The value of the first `name <value>` pair in `args`, or `default`
/// when `name` is absent; an error naming the flag when its value is
/// missing or not a non-negative integer.
fn flag_value(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args
        .get(at + 1)
        .ok_or_else(|| format!("{name} expects a value"))?;
    value
        .parse()
        .map_err(|_| format!("{name} expects a non-negative integer, got {value:?}"))
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
    fn flag_value_rejects_a_missing_or_unparsable_value() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(flag_value(&args(&["table2"]), "--m", 100), Ok(100));
        assert_eq!(
            flag_value(&args(&["table2", "--m", "25"]), "--m", 100),
            Ok(25)
        );
        let typo = flag_value(&args(&["table2", "--m", "1OO"]), "--m", 100).unwrap_err();
        assert!(typo.contains("--m") && typo.contains("1OO"), "{typo}");
        let missing = flag_value(&args(&["table2", "--m"]), "--m", 100).unwrap_err();
        assert!(missing.contains("--m"), "{missing}");
    }

    #[test]
    fn paper_reference_improvements_are_24_to_55_percent() {
        for (name, _, quale, qspr) in PAPER_TABLE2 {
            let imp = 100.0 * (quale as f64 - qspr as f64) / quale as f64;
            assert!((23.0..56.0).contains(&imp), "{name}: {imp}");
        }
    }
}
