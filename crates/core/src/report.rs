//! Report rows matching the paper's result tables.

use std::fmt;
use std::time::Duration;

use qspr_fabric::Time;

use crate::json::{JsonObject, ToJson};

/// One row of the paper's Table 2: ideal baseline vs QUALE vs QSPR.
///
/// # Examples
///
/// ```
/// use qspr::ComparisonRow;
///
/// let row = ComparisonRow::new("[[5,1,3]]", 510, 832, 634);
/// assert_eq!(row.quale_overhead(), 322);
/// assert_eq!(row.qspr_overhead(), 124);
/// assert!((row.improvement_pct() - 23.80).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComparisonRow {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Ideal (resource-free) execution latency, µs.
    pub baseline: Time,
    /// QUALE mapped latency, µs.
    pub quale: Time,
    /// QSPR mapped latency, µs.
    pub qspr: Time,
}

impl ComparisonRow {
    /// Creates a row.
    pub fn new(circuit: &str, baseline: Time, quale: Time, qspr: Time) -> ComparisonRow {
        ComparisonRow {
            circuit: circuit.to_owned(),
            baseline,
            quale,
            qspr,
        }
    }

    /// QUALE's `T_routing + T_congestion` overhead over the baseline.
    pub fn quale_overhead(&self) -> Time {
        self.quale.saturating_sub(self.baseline)
    }

    /// QSPR's `T_routing + T_congestion` overhead over the baseline.
    pub fn qspr_overhead(&self) -> Time {
        self.qspr.saturating_sub(self.baseline)
    }

    /// Percentage improvement of QSPR over QUALE (the paper's last
    /// column; 24–55% in the original experiments).
    pub fn improvement_pct(&self) -> f64 {
        if self.quale == 0 {
            return 0.0;
        }
        100.0 * (self.quale as f64 - self.qspr as f64) / self.quale as f64
    }
}

impl ToJson for ComparisonRow {
    /// Stable JSON schema, pinned by a golden test:
    /// `{"circuit","baseline_us","quale_us","qspr_us","quale_overhead_us",
    /// "qspr_overhead_us","improvement_pct"}`.
    fn to_json(&self) -> String {
        JsonObject::new()
            .string("circuit", &self.circuit)
            .number("baseline_us", self.baseline)
            .number("quale_us", self.quale)
            .number("qspr_us", self.qspr)
            .number("quale_overhead_us", self.quale_overhead())
            .number("qspr_overhead_us", self.qspr_overhead())
            .float("improvement_pct", self.improvement_pct())
            .build()
    }
}

impl fmt::Display for ComparisonRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} baseline {:>8}µs  QUALE {:>8}µs (+{:>7})  QSPR {:>8}µs (+{:>7})  improvement {:>6.2}%",
            self.circuit,
            self.baseline,
            self.quale,
            self.quale_overhead(),
            self.qspr,
            self.qspr_overhead(),
            self.improvement_pct()
        )
    }
}

/// One row of the paper's Table 1: MVFB vs Monte Carlo at equal placement
/// runs. It carries wall-clock fields, so it has no JSON form; the
/// `table1` binary formats its own columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacerComparisonRow {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Number of MVFB random seeds (`m`).
    pub m: usize,
    /// Total placement runs MVFB consumed (`m'`), also given to MC.
    pub runs: usize,
    /// Best MVFB latency, µs.
    pub mvfb_latency: Time,
    /// MVFB wall-clock time.
    pub mvfb_cpu: Duration,
    /// Best Monte Carlo latency, µs.
    pub mc_latency: Time,
    /// Monte Carlo wall-clock time.
    pub mc_cpu: Duration,
}

impl PlacerComparisonRow {
    /// `true` when MVFB matched or beat Monte Carlo (the paper's
    /// observation for every circuit and both values of `m`).
    pub fn mvfb_wins(&self) -> bool {
        self.mvfb_latency <= self.mc_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_row_arithmetic() {
        // Paper Table 2, [[9,1,3]]: baseline 910, QUALE 2216, QSPR 1159.
        let row = ComparisonRow::new("[[9,1,3]]", 910, 2216, 1159);
        assert_eq!(row.quale_overhead(), 1306);
        assert_eq!(row.qspr_overhead(), 249);
        assert!((row.improvement_pct() - 47.70).abs() < 0.01);
    }

    #[test]
    fn zero_quale_does_not_divide_by_zero() {
        let row = ComparisonRow::new("x", 0, 0, 0);
        assert_eq!(row.improvement_pct(), 0.0);
    }

    #[test]
    fn display_contains_fields() {
        let row = ComparisonRow::new("[[5,1,3]]", 510, 832, 634);
        let s = row.to_string();
        assert!(s.contains("[[5,1,3]]"));
        assert!(s.contains("510"));
        assert!(s.contains("832"));

        let prow = PlacerComparisonRow {
            circuit: "[[5,1,3]]".into(),
            m: 25,
            runs: 88,
            mvfb_latency: 634,
            mvfb_cpu: Duration::from_millis(546),
            mc_latency: 664,
            mc_cpu: Duration::from_millis(562),
        };
        assert!(prow.mvfb_wins());
    }

    #[test]
    fn comparison_row_json_golden() {
        // Golden test: this string IS the schema contract. Changing it
        // breaks downstream consumers of `--format json`.
        let row = ComparisonRow::new("[[5,1,3]]", 510, 832, 634);
        assert_eq!(
            row.to_json(),
            r#"{"circuit":"[[5,1,3]]","baseline_us":510,"quale_us":832,"qspr_us":634,"quale_overhead_us":322,"qspr_overhead_us":124,"improvement_pct":23.80}"#
        );
    }

    #[test]
    fn json_escapes_circuit_names() {
        let row = ComparisonRow::new("odd\"name", 1, 2, 2);
        assert!(row.to_json().starts_with(r#"{"circuit":"odd\"name""#));
    }
}
