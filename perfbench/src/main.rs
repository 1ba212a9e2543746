//! The QSPR benchmark: the paper's Table 1 suite mapped at paper effort
//! (`m = 25`) with each routing engine, and an in-process `qspr serve`
//! under a hit/miss mix — timed end to end, and split by layer in a
//! separate traced run. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! perfbench --diff <before FILE> <after FILE>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct","attempted","failed","metrics":{name:{"value","unit"}}}`
//! holding every end-to-end metric (`--trace 0`) or every per-layer
//! metric (`--trace 1`). `--out` appends that object, tagged with the
//! workload, seed and trace flag, to FILE as one JSON line; `--diff`
//! compares two such files.

mod calib;
mod cpu;
mod diff;
mod hit_miss;
mod map;
mod serve;
mod stats;
mod suite;
mod wrap;

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use qspr::json::JsonObject;
use qspr::RouterKind;

use crate::calib::Reference;
use crate::map::MapWorkload;
use crate::serve::{Live, Scrape, Traffic};
use crate::suite::{SetupTimes, DEFAULT_SEED};

/// `(name, unit)` of every end-to-end metric, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("suite_wall_ref", "ref")];

/// `(name, unit)` of every per-layer metric, reported by the traced
/// run. A layer a workload does not exercise, or cannot see from
/// outside the program, reads 0 there (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("suite_wall_ms", "ms"),
    ("calib.ref_ms", "ms"),
    ("setup.wall_s", "s"),
    ("qecc.suite_ms", "ms"),
    ("qasm.parse_ms", "ms"),
    ("fabric.build_ms", "ms"),
    ("place.ms", "ms"),
    ("place.runs", "count"),
    ("place.ms_per_run", "ms"),
    ("sched.qidg_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("route.probe_calls", "count"),
    ("route.probe_ms", "ms"),
    ("route.probe_blocked", "count"),
    ("route.batch_calls", "count"),
    ("route.batch_ms", "ms"),
    ("route.batch_movers", "count"),
    ("route.batch_movers_max", "count"),
    ("route.batch_blocked", "count"),
    ("route.refine_calls", "count"),
    ("route.refine_ms", "ms"),
    ("route.refine_adopted", "count"),
    ("route.rip_iterations", "count"),
    ("route.ripped", "count"),
    ("flow.final_map_ms", "ms"),
    ("other.ms", "ms"),
    ("service.handle_hit_us", "us"),
    ("service.transport_hit_us", "us"),
    ("service.handler_us.p50", "us"),
    ("service.handler_us.p99", "us"),
    ("service.queue_wait_us.p50", "us"),
    ("service.queue_wait_us.p99", "us"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.misses_per_fresh_key", "ratio"),
    ("service.busy_ms", "ms"),
    ("service.rejected", "count"),
    ("service.replay_divergent", "count"),
    ("service.hit_p50_us", "us"),
    ("service.hit_p95_us", "us"),
    ("service.rps", "1/s"),
    ("process.peak_rss_mb", "MB"),
    ("obs.trace_overhead_pct", "%"),
];

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["map_greedy_m25", "map_negotiated_m25", "serve_hit_miss"];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(HashMap<&'static str, f64>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(message);
        }
    }

    pub fn with(mut self, metrics: Metrics) -> Outcome {
        self.metrics = metrics;
        self
    }
}

/// One timed set-up.
pub struct Setup {
    pub wall_s: f64,
    /// Mean reference-kernel CPU time measured just before and after it.
    pub ref_ns: f64,
    pub times: SetupTimes,
}

/// Runs `build` `repeats` times, keeping the last result and handing
/// the others to `discard`, and records the set-up metrics.
pub fn setup<T>(
    repeats: usize,
    mut build: impl FnMut() -> Result<(T, SetupTimes), String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Metrics), String> {
    let mut kernel = Reference::new();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..repeats {
        let before = kernel.measure();
        let t = Instant::now();
        let (value, times) = build()?;
        let wall_s = t.elapsed().as_secs_f64();
        let ref_ns = (before + kernel.measure()) / 2.0;
        setups.push(Setup {
            wall_s,
            ref_ns,
            times,
        });
        if let Some(old) = kept.replace(value) {
            discard(old)?;
        }
    }
    Ok((kept.expect("set-up ran"), setup_metrics(&setups)))
}

/// `setup_s` as the median set-up wall time scaled to the reference
/// speed (the kernel taking [`calib::NOMINAL_NS`]), the raw median, and
/// the median of each set-up layer.
pub fn setup_metrics(setups: &[Setup]) -> Metrics {
    let med = |f: &dyn Fn(&Setup) -> f64| {
        stats::median(&setups.iter().map(f).collect::<Vec<_>>()).expect("set-up ran")
    };
    let mut metrics = Metrics::default();
    metrics.put("setup_s", med(&|s| s.wall_s / s.ref_ns * calib::NOMINAL_NS));
    metrics.put("setup.wall_s", med(&|s| s.wall_s));
    metrics.put("qecc.suite_ms", med(&|s| s.times.qecc_ms));
    metrics.put("qasm.parse_ms", med(&|s| s.times.qasm_ms));
    metrics.put("fabric.build_ms", med(&|s| s.times.fabric_ms));
    metrics
}

/// The service-layer metrics of a traffic window that began at
/// `before`: the handler called directly, the transport as the
/// remainder of the client-observed hit latency, and the server's own
/// `/stats` and `/metrics` view. Returns the closing scrape.
pub fn service_layers(
    live: &Live,
    traffic: &Traffic,
    before: &Scrape,
    metrics: &mut Metrics,
) -> Result<Scrape, String> {
    let after = live.scrape()?;
    let handle = live.handle_hit_us(2000);
    let hit_p50 = stats::median(&traffic.hit_us).unwrap_or(0.0);
    let misses = (after.cache_misses - before.cache_misses) as f64;
    metrics.put("service.handle_hit_us", handle);
    metrics.put("service.transport_hit_us", hit_p50 - handle);
    metrics.put("service.handler_us.p50", after.handler_p50_us);
    metrics.put("service.handler_us.p99", after.handler_p99_us);
    metrics.put("service.queue_wait_us.p50", after.queue_p50_us);
    metrics.put("service.queue_wait_us.p99", after.queue_p99_us);
    metrics.put(
        "service.cache_hits",
        (after.cache_hits - before.cache_hits) as f64,
    );
    metrics.put("service.cache_misses", misses);
    let per_key = if traffic.fresh_keys == 0 {
        0.0
    } else {
        misses / traffic.fresh_keys as f64
    };
    metrics.put("service.misses_per_fresh_key", per_key);
    metrics.put(
        "service.busy_ms",
        (after.busy_us - before.busy_us) as f64 / 1e3,
    );
    metrics.put(
        "service.rejected",
        (after.rejected - before.rejected) as f64,
    );
    metrics.put("service.replay_divergent", traffic.divergent as f64);
    Ok(after)
}

/// Prints `rows` as shares of `total`, with an explicit remainder check
/// (the rows partition the total by construction).
pub fn print_table(rows: &[(&str, f64)], total: f64) {
    for (name, value) in rows {
        println!(
            "  {name:<24} {value:>12.3} ms  {:>6.2}%",
            value / total * 100.0
        );
    }
    let sum: f64 = rows.iter().map(|(_, v)| v).sum();
    println!("  {:<24} {sum:>12.3} ms  (total {total:.3} ms)", "= sum");
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                };
            }
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if parsed.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<String, String> {
    let mut outcome = match args.workload.as_str() {
        "map_greedy_m25" => map::run(
            MapWorkload {
                router: RouterKind::Greedy,
            },
            args.seed,
            args.seconds,
            args.trace,
        )?,
        "map_negotiated_m25" => map::run(
            MapWorkload {
                router: RouterKind::Negotiated,
            },
            args.seed,
            args.seconds,
            args.trace,
        )?,
        _ => hit_miss::run(args.seed, args.seconds, args.trace)?,
    };
    outcome.metrics.put("process.peak_rss_mb", peak_rss_mb()?);
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = JsonObject::new();
    for &(name, unit) in catalogue {
        let value = match outcome.metrics.0.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("{name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
        metrics = metrics.raw(
            name,
            &JsonObject::new()
                .raw("value", &format!("{value}"))
                .string("unit", unit)
                .build(),
        );
    }
    Ok(JsonObject::new()
        .boolean("correct", outcome.failed == 0)
        .number("attempted", outcome.attempted.max(1))
        .number("failed", outcome.failed)
        .raw("metrics", &metrics.build())
        .build())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        return match args.as_slice() {
            [_, before, after] => match diff::run(before, after) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: perfbench --diff <before FILE> <after FILE>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.out {
        let line = JsonObject::new()
            .string("workload", &args.workload)
            .number("seed", args.seed)
            .number("trace", u64::from(args.trace))
            .raw("result", &result)
            .build();
        let written = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = written {
            eprintln!("perfbench: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}
