//! `--diff`: two result files side by side, per workload and metric,
//! as median and quartiles over each file's runs.

use std::collections::BTreeMap;

use qspr::json::JsonValue;

use crate::stats::{median, quartiles};
use crate::{END_TO_END, PER_LAYER};

/// Samples by workload, then metric name.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let record = JsonValue::parse(line).map_err(|e| bad(&e.to_string()))?;
        let workload = record
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(JsonValue::as_object)
            .ok_or_else(|| bad("no result metrics"))?;
        let entry = runs.entry(workload.to_owned()).or_default();
        for (name, metric) in metrics {
            if let Some(JsonValue::Number(v)) = metric.get("value") {
                entry.entry(name.clone()).or_default().push(*v);
            }
        }
    }
    Ok(runs)
}

fn cell(samples: Option<&Vec<f64>>) -> String {
    match samples {
        None => format!("{:>36}", "-"),
        Some(v) => {
            let m = median(v).unwrap_or(f64::NAN);
            match quartiles(v) {
                Some([q1, _, q3]) => format!("{m:>12.4} [{q1:>10.4} {q3:>10.4}] n={:<2}", v.len()),
                None => format!("{m:>12.4} {:>23} n={:<2}", "", v.len()),
            }
        }
    }
}

pub fn run(before: &str, after: &str) -> Result<(), String> {
    let (a, b) = (load(before)?, load(after)?);
    let workloads: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for workload in workloads {
        println!("{workload}   (median [q1 q3] over runs: {before} | {after} | median change)");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let x = a.get(workload).and_then(|m| m.get(name));
            let y = b.get(workload).and_then(|m| m.get(name));
            if x.is_none() && y.is_none() {
                continue;
            }
            let change = match (x.and_then(|v| median(v)), y.and_then(|v| median(v))) {
                (Some(p), Some(q)) if p != 0.0 => format!("{:+.2}%", (q - p) / p.abs() * 100.0),
                _ => "-".to_owned(),
            };
            println!(
                "  {name:<28} {unit:<6} {} | {} | {change}",
                cell(x),
                cell(y)
            );
        }
    }
    Ok(())
}
