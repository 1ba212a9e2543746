//! `qspr` — command-line front end for the QSPR mapper.
//!
//! ```text
//! qspr map <file.qasm> [--policy qspr|quale] [--router R] [--m N] [--jobs N] [--trace] [--dump-trace FILE] [--profile] [--fabric F] [--format FMT]
//! qspr sta <file.qasm> [--policy P] [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
//! qspr compare <file.qasm> [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
//! qspr suite [files...] [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
//! qspr serve [--addr A] [--threads T] [--cache N] [--max-queue Q] [--keep-alive SECS] [--log] [--fabric F]
//! qspr fabric [--fabric F]
//! qspr encode <CODE>
//! qspr table1 [--m N]
//! qspr table2 [--m N]
//! qspr version
//! ```
//!
//! `--fabric` takes `quale45x85` (default) or a path to a fabric file —
//! a JSON `FabricSpec` document or plain ASCII art (auto-detected); `--router` is `greedy` (default) or `negotiated`
//! (PathFinder-style rip-up-and-reroute); `--jobs N` runs the placer's
//! MVFB seeds on N worker threads with byte-identical output at every
//! N; `--format` is `text`
//! (default) or `json` (stable machine-readable schema); `CODE` is one
//! of `5,1,3`, `7,1,3`, `9,1,3`, `14,8,3`, `19,1,7`, `23,1,7`.
//! A command rejects any flag its usage line does not list, and any
//! positional argument beyond the ones it names.
//!
//! `qspr suite` prints one Table 2 row per circuit: the given QASM
//! files in order, or the paper's six benchmark circuits when no file
//! is given. It stops at the first circuit that fails to map and names
//! it in the error.
//!
//! `qspr table1` and `qspr table2` print the paper's evaluation tables
//! (arXiv:1412.8003, §V) on the 45×85 fabric, each row next to the
//! paper's numbers. Table 1 pits MVFB against Monte Carlo at equal
//! placement runs, at `m = 25` and `m = 100` unless `--m` names one
//! seed count. Table 2 is `qspr suite` with the paper's columns, at
//! `m = 100` unless `--m` says otherwise. Both check the paper's shape
//! (MVFB ≤ MC at `m` = 25 and 100; baseline ≤ QSPR ≤ QUALE) and fail
//! on the first circuit that breaks it.
//!
//! `qspr sta` maps a circuit with trace recording on and prints the
//! static timing analysis of `qspr-sta`: per-instruction slack, the
//! critical path and segment/junction bottlenecks.
//!
//! `qspr map --profile` instruments the run with the `qspr-obs` span
//! tracer and reports per-phase wall time, the span tree and per-epoch
//! counts — appended as a `"profile"` object in JSON mode, or as a
//! table after the text report.
//!
//! `qspr serve` runs the resident mapping service of `qspr::service`:
//! `POST /map`, `POST /compare` and `POST /sta` with the same JSON
//! schemas as `--format json` (one program per request), `GET /healthz`,
//! `GET /stats`, `GET /metrics` (Prometheus text format),
//! `POST /shutdown`. Connections are keep-alive by default
//! (`--keep-alive SECS` idle timeout, 0 restores close-per-request),
//! results come from an LRU cache (`--cache N` entries, 0 disables),
//! and each heavy endpoint
//! admits at most `--max-queue Q` queued requests before answering
//! `429 Too Many Requests` with `Retry-After`. `--log` writes one
//! structured access-log line per request to stderr.

use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use qspr::json::JsonArray;
use qspr::service::{MapService, ServeConfig, Server, DEFAULT_CACHE_ENTRIES};
use qspr::{ComparisonRow, Flow, FlowPolicy, QsprError, RouterKind, ToJson};
use qspr_fabric::Fabric;
use qspr_qasm::Program;
use qspr_qecc::codes;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    match run(&args, &mut out).and_then(|()| out.flush().map_err(Failure::Stdout)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`qspr ... | head`): nobody is left to
        // tell, so stop quietly.
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("qspr: cannot write output: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Qspr(e)) => {
            eprintln!("qspr: {e}");
            // The usage text helps with a mistyped command line, not
            // with a missing file or an unmappable circuit.
            if matches!(e, QsprError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped: the library refused the work, or stdout
/// refused the output.
#[derive(Debug)]
enum Failure {
    Qspr(QsprError),
    Stdout(io::Error),
}

impl From<QsprError> for Failure {
    fn from(e: QsprError) -> Failure {
        Failure::Qspr(e)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Stdout(e)
    }
}

const USAGE: &str = "\
usage:
  qspr map <file.qasm> [--policy qspr|quale] [--router R] [--m N] [--jobs N] [--trace] [--dump-trace FILE] [--profile] [--fabric F] [--format FMT]
  qspr sta <file.qasm> [--policy P] [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
  qspr compare <file.qasm> [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
  qspr suite [files...] [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
  qspr serve [--addr A] [--threads T] [--cache N] [--max-queue Q] [--keep-alive SECS] [--log] [--fabric F]
  qspr fabric [--fabric F]
  qspr encode <CODE>          (5,1,3 | 7,1,3 | 9,1,3 | 14,8,3 | 19,1,7 | 23,1,7)
  qspr table1 [--m N]         (paper Table 1; default m = 25, then m = 100)
  qspr table2 [--m N]         (paper Table 2; default m = 100)
  qspr version

options:
  --fabric F    quale45x85 (default) or a fabric file (spec JSON or ASCII art)
  --policy P    mapper policy: qspr (default) or quale
  --router R    routing engine: greedy (default) or negotiated
  --m N         MVFB seed count (default 25)
  --jobs N      placement seeds run on N threads (default 1; identical output at any N)
  --threads T   serve: heavy requests mapped at once (default: all CPUs)
  --format FMT  output format: text (default) or json
  --trace       print the micro-command trace after mapping
  --dump-trace FILE  map: write the recorded trace to FILE as JSON
  --profile     map: trace the run and report per-phase times and the span tree
  --addr A      serve: bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --cache N     serve: result-cache capacity in entries (default 128, 0 = off)
  --max-queue Q serve: queued requests per heavy endpoint before 429 (default 256)
  --keep-alive SECS  serve: idle connection timeout (default 30; 0 = close per request)
  --log         serve: one structured access-log line per request on stderr
  --help, -h    print this help and exit";

/// What `--m`, `--jobs`, `--threads` and `--max-queue` expect.
const POSITIVE: &str = "a positive number";

/// Output format selected with `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

/// Minimal flag parser: collects positional arguments and `--key value` /
/// `--switch` options. Duplicate value flags are rejected.
#[derive(Debug)]
struct Cli {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, QsprError> {
        const VALUE_FLAGS: [&str; 12] = [
            "--fabric",
            "--policy",
            "--router",
            "--m",
            "--jobs",
            "--threads",
            "--format",
            "--addr",
            "--cache",
            "--max-queue",
            "--keep-alive",
            "--dump-trace",
        ];
        const SWITCHES: [&str; 3] = ["--trace", "--profile", "--log"];
        let mut positional = Vec::new();
        let mut options: Vec<(String, Option<String>)> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(flag) = a.strip_prefix("--").map(|_| a.as_str()) {
                if VALUE_FLAGS.contains(&flag) {
                    if options.iter().any(|(f, _)| f == flag) {
                        return Err(QsprError::usage(format!(
                            "flag {flag} given more than once"
                        )));
                    }
                    let value = it
                        .next()
                        .ok_or_else(|| QsprError::usage(format!("flag {flag} needs a value")))?;
                    options.push((flag.to_owned(), Some(value.clone())));
                } else if SWITCHES.contains(&flag) {
                    options.push((flag.to_owned(), None));
                } else {
                    return Err(QsprError::usage(format!("unknown flag {flag}")));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Cli {
            positional,
            options,
        })
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn switch(&self, flag: &str) -> bool {
        self.options.iter().any(|(f, _)| f == flag)
    }

    /// The number `flag` gives, or `default` when it is absent. A value
    /// that does not parse, or is below `min`, is a usage error naming
    /// `what` the flag expects.
    fn number<T: FromStr + PartialOrd>(
        &self,
        flag: &str,
        default: T,
        min: T,
        what: &str,
    ) -> Result<T, QsprError> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => match v.parse() {
                Ok(n) if n >= min => Ok(n),
                _ => Err(QsprError::usage(format!(
                    "{flag} expects {what}, got {v:?}"
                ))),
            },
        }
    }

    fn policy(&self) -> Result<FlowPolicy, QsprError> {
        Ok(self.value("--policy").unwrap_or("qspr").parse()?)
    }

    fn router(&self) -> Result<RouterKind, QsprError> {
        match self.value("--router") {
            None => Ok(RouterKind::Greedy),
            Some(v) => v.parse().map_err(|e| QsprError::usage(format!("{e}"))),
        }
    }

    fn format(&self) -> Result<OutputFormat, QsprError> {
        match self.value("--format") {
            None | Some("text") => Ok(OutputFormat::Text),
            Some("json") => Ok(OutputFormat::Json),
            Some(other) => Err(QsprError::usage(format!(
                "--format expects text or json, got {other:?}"
            ))),
        }
    }

    fn fabric(&self) -> Result<Fabric, QsprError> {
        match self.value("--fabric") {
            None | Some("quale45x85") => Ok(Fabric::quale_45x85()),
            Some(path) => {
                let text =
                    std::fs::read_to_string(path).map_err(|e| QsprError::io("read", path, e))?;
                Ok(Fabric::parse(&text)?)
            }
        }
    }

    /// Rejects what `command` does not take: a flag missing from its
    /// usage line, or a positional argument beyond the `<...>` ones
    /// the line names (`[files...]` takes any number).
    fn check(&self, command: &str) -> Result<(), QsprError> {
        let line = USAGE
            .lines()
            .find(|l| {
                l.strip_prefix("  qspr ")
                    .and_then(|rest| rest.split_whitespace().next())
                    == Some(command)
            })
            .expect("every command has a usage line");
        for (flag, _) in &self.options {
            if !line.contains(&format!("[{flag} ")) && !line.contains(&format!("[{flag}]")) {
                return Err(QsprError::usage(format!("{command} does not take {flag}")));
            }
        }
        if !line.contains("...]") {
            if let Some(extra) = self.positional.get(line.matches('<').count()) {
                return Err(QsprError::usage(format!(
                    "unexpected argument {extra:?} for {command}"
                )));
            }
        }
        Ok(())
    }

    /// A flow on the selected fabric with the selected seed count,
    /// routing engine and seed threads. Zero seeds would place nothing,
    /// so `--m 0` is a usage error rather than a stalled mapping.
    fn flow(&self) -> Result<Flow, QsprError> {
        Ok(Flow::on(self.fabric()?)
            .seeds(self.number("--m", 25, 1, POSITIVE)?)
            .router(self.router()?)
            .jobs(self.number("--jobs", 1, 1, POSITIVE)?))
    }
}

/// Splices a pre-serialized object into the trailing brace of a summary
/// object as `"key":value` (both inputs are `qspr_json`-built objects,
/// so the result stays strictly parseable). Used for the `--profile`
/// report block.
fn splice_field(summary: &str, key: &str, value: &str) -> String {
    debug_assert!(summary.ends_with('}'));
    format!("{},\"{key}\":{value}}}", &summary[..summary.len() - 1])
}

fn load_program(path: &str) -> Result<Program, QsprError> {
    let text = std::fs::read_to_string(path).map_err(|e| QsprError::io("read", path, e))?;
    Program::parse(&text).map_err(QsprError::from)
}

/// Runs the command line `args`, writing its output to `out` (one
/// locked stdout in `main`).
fn run(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    // Help short-circuits everything: any `--help`/`-h` anywhere wins,
    // and must exit 0 rather than trip the unknown-flag path.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    // `--version` wins anywhere too, for consistency with `--help`.
    if args.first().map(String::as_str) == Some("version") || args.iter().any(|a| a == "--version")
    {
        writeln!(out, "qspr {}", env!("CARGO_PKG_VERSION"))?;
        return Ok(());
    }
    let Some(command) = args.first() else {
        return Err(QsprError::usage("missing command").into());
    };
    let handler: fn(&Cli, &mut dyn Write) -> Result<(), Failure> = match command.as_str() {
        "map" => cmd_map,
        "sta" => cmd_sta,
        "compare" => cmd_compare,
        "suite" => cmd_suite,
        "serve" => cmd_serve,
        "fabric" => cmd_fabric,
        "encode" => cmd_encode,
        "table1" => cmd_table1,
        "table2" => cmd_table2,
        other => return Err(QsprError::usage(format!("unknown command {other:?}")).into()),
    };
    let cli = Cli::parse(&args[1..])?;
    cli.check(command)?;
    handler(&cli, out)
}

fn cmd_map(cli: &Cli, out: &mut dyn Write) -> Result<(), Failure> {
    let path = cli
        .positional
        .first()
        .ok_or_else(|| QsprError::usage("map needs a QASM file argument"))?;
    let policy = cli.policy()?;
    let format = cli.format()?;
    let dump_trace = cli.value("--dump-trace");
    // `--profile`: collect the pipeline's spans into a thread-local
    // tree. Thread-local (not global) so a profiled run in one thread
    // never leaks spans into another; installed before the parse so
    // the "parse" root is captured too. The wall clock starts here —
    // the report's phases account for everything from this point on.
    let profiling = cli.switch("--profile").then(|| {
        let collector = Arc::new(qspr::obs::Collector::new());
        let guard = qspr::obs::install_thread(Arc::clone(&collector) as _);
        (collector, guard, std::time::Instant::now())
    });
    let program = load_program(path)?;
    let flow = cli
        .flow()?
        .policy(policy)
        .record_trace(cli.switch("--trace") || dump_trace.is_some());

    let result = flow.run(&program)?;
    if let Some(out) = dump_trace {
        let trace = result
            .forward_trace
            .as_ref()
            .expect("trace recording was enabled");
        std::fs::write(out, qspr::sta::trace_to_json(trace))
            .map_err(|e| QsprError::io("write", out, e))?;
    }
    let profile = profiling.map(|(collector, guard, t0)| {
        drop(guard);
        qspr::obs::ProfileReport::from_collector(&collector, t0.elapsed())
    });
    match format {
        OutputFormat::Json => {
            let mut summary = result.summary().to_json();
            if let Some(profile) = &profile {
                summary = splice_field(&summary, "profile", &profile.to_json());
            }
            writeln!(out, "{summary}")?;
        }
        OutputFormat::Text => {
            match policy {
                FlowPolicy::Qspr => {
                    writeln!(out, "policy          qspr (MVFB m={})", flow.seed_count())?
                }
                other => writeln!(out, "policy          {other}")?,
            }
            writeln!(out, "router          {}", result.router)?;
            writeln!(out, "latency         {}µs", result.latency)?;
            writeln!(out, "ideal baseline  {}µs", flow.ideal_latency(&program))?;
            writeln!(out, "placement runs  {}", result.runs)?;
            writeln!(
                out,
                "movement        {} moves, {} turns",
                result.outcome.totals().moves,
                result.outcome.totals().turns
            )?;
            writeln!(
                out,
                "congestion wait {}µs total",
                result.outcome.totals().congestion_wait
            )?;
            let routing = result.outcome.routing_stats();
            writeln!(
                out,
                "routing epochs  {} ({} rip iterations, {} ripped routes, peak pressure {})",
                routing.epochs, routing.iterations, routing.ripped, routing.max_pressure
            )?;
            if cli.switch("--trace") {
                if let Some(trace) = &result.forward_trace {
                    writeln!(out, "\ntrace ({} commands):", trace.len())?;
                    for entry in trace {
                        writeln!(out, "  {entry}")?;
                    }
                }
            }
            if let Some(profile) = &profile {
                writeln!(out, "\n{profile}")?;
            }
        }
    }
    Ok(())
}

fn cmd_sta(cli: &Cli, out: &mut dyn Write) -> Result<(), Failure> {
    let path = cli
        .positional
        .first()
        .ok_or_else(|| QsprError::usage("sta needs a QASM file argument"))?;
    let policy = cli.policy()?;
    let format = cli.format()?;
    let program = load_program(path)?;
    let flow = cli.flow()?.policy(policy).record_trace(true);
    let result = flow.run(&program)?;
    let report = flow.timing_report(&program, &result)?;
    match format {
        OutputFormat::Json => writeln!(out, "{}", report.to_json())?,
        OutputFormat::Text => {
            writeln!(out, "circuit         {path}")?;
            writeln!(out, "router          {}", result.router)?;
            writeln!(out, "latency         {}µs", result.latency)?;
            writeln!(out)?;
            writeln!(out, "{report}")?;
        }
    }
    Ok(())
}

fn cmd_compare(cli: &Cli, out: &mut dyn Write) -> Result<(), Failure> {
    let path = cli
        .positional
        .first()
        .ok_or_else(|| QsprError::usage("compare needs a QASM file argument"))?;
    let program = load_program(path)?;
    let format = cli.format()?;
    let row = cli.flow()?.compare(path, &program)?;
    match format {
        OutputFormat::Text => writeln!(out, "{row}")?,
        OutputFormat::Json => writeln!(out, "{}", row.to_json())?,
    }
    Ok(())
}

/// The paper's six benchmark circuits, named, in table order.
fn paper_circuits() -> Vec<(String, Program)> {
    codes::benchmark_suite()
        .into_iter()
        .map(|bench| (bench.name, bench.program))
        .collect()
}

/// Compares each of `circuits` in order and hands its Table 2 row to
/// `each`. The first circuit that fails to map stops the run, named in
/// the error.
fn compare_each(
    flow: &Flow,
    circuits: &[(String, Program)],
    mut each: impl FnMut(ComparisonRow) -> Result<(), Failure>,
) -> Result<(), Failure> {
    for (name, program) in circuits {
        let row = flow
            .compare(name, program)
            .map_err(|e| QsprError::circuit(name, e))?;
        each(row)?;
    }
    Ok(())
}

fn cmd_suite(cli: &Cli, out: &mut dyn Write) -> Result<(), Failure> {
    let format = cli.format()?;
    let flow = cli.flow()?;
    let circuits = if cli.positional.is_empty() {
        paper_circuits()
    } else {
        cli.positional
            .iter()
            .map(|path| Ok((path.clone(), load_program(path)?)))
            .collect::<Result<_, QsprError>>()?
    };
    let mut rows = JsonArray::new();
    compare_each(&flow, &circuits, |row| {
        match format {
            OutputFormat::Text => writeln!(out, "{row}")?,
            OutputFormat::Json => rows.push_raw(&row.to_json()),
        }
        Ok(())
    })?;
    if format == OutputFormat::Json {
        writeln!(out, "{}", rows.build())?;
    }
    Ok(())
}

/// The paper's Table 1 (arXiv:1412.8003): (circuit, m=25 MVFB µs,
/// m=25 MC µs, m=25 runs, m=100 MVFB µs, m=100 MC µs, m=100 runs).
const PAPER_TABLE1: [(&str, u64, u64, u64, u64, u64, u64); 6] = [
    ("[[5,1,3]]", 634, 664, 88, 634, 674, 312),
    ("[[7,1,3]]", 610, 618, 78, 603, 622, 312),
    ("[[9,1,3]]", 1159, 1212, 86, 1138, 1198, 308),
    ("[[14,8,3]]", 3390, 3540, 83, 3342, 3429, 316),
    ("[[19,1,7]]", 3393, 3483, 82, 3350, 3403, 311),
    ("[[23,1,7]]", 2066, 2183, 89, 2061, 2085, 315),
];

/// The paper's Table 2 (arXiv:1412.8003): (circuit, baseline, QUALE,
/// QSPR) execution latencies in µs.
const PAPER_TABLE2: [(&str, u64, u64, u64); 6] = [
    ("[[5,1,3]]", 510, 832, 634),
    ("[[7,1,3]]", 510, 798, 610),
    ("[[9,1,3]]", 910, 2216, 1159),
    ("[[14,8,3]]", 2500, 7511, 3390),
    ("[[19,1,7]]", 2510, 6838, 3393),
    ("[[23,1,7]]", 1410, 3738, 2066),
];

/// `circuit` breaks the paper's shape as `broken` says: an error naming
/// the circuit (exit 1, without the usage text).
fn shape_error(circuit: &str, broken: String) -> Failure {
    QsprError::circuit(circuit, QsprError::usage(broken)).into()
}

fn cmd_table1(cli: &Cli, out: &mut dyn Write) -> Result<(), Failure> {
    // The paper's two seed counts, or the one `--m` names.
    let ms = match cli.value("--m") {
        None => vec![25, 100],
        Some(_) => vec![cli.number("--m", 25, 1, POSITIVE)?],
    };
    let flow = Flow::on(Fabric::quale_45x85());
    let circuits = paper_circuits();
    for m in ms {
        writeln!(out, "Table 1 — MVFB vs Monte Carlo, m={m} (45x85 fabric)")?;
        writeln!(
            out,
            "{:<12} {:>9} {:>9} {:>9} {:>9} {:>6} | paper(m={m}): MVFB/MC µs, runs",
            "circuit", "MVFB µs", "MVFB ms", "MC µs", "MC ms", "runs"
        )?;
        let flow = flow.clone().seeds(m);
        for ((name, program), paper) in circuits.iter().zip(PAPER_TABLE1) {
            let row = flow
                .compare_placers(name, program)
                .map_err(|e| QsprError::circuit(name, e))?;
            let paper_ref = match m {
                25 => format!("{} / {} ({})", paper.1, paper.2, paper.3),
                100 => format!("{} / {} ({})", paper.4, paper.5, paper.6),
                _ => "-".to_owned(),
            };
            writeln!(
                out,
                "{:<12} {:>9} {:>9} {:>9} {:>9} {:>6} | {}",
                row.circuit,
                row.mvfb_latency,
                row.mvfb_cpu.as_millis(),
                row.mc_latency,
                row.mc_cpu.as_millis(),
                row.runs,
                paper_ref,
            )?;
            // The paper's observation (MVFB <= MC at equal placement
            // runs) holds at its seed counts, m = 25 and m = 100, and
            // is enforced there. At a reduced m such as 5 the search is
            // too shallow for the claim: Monte Carlo wins [[9,1,3]] by
            // ~1% (MVFB 790 vs MC 780), so off-paper seed counts only
            // warn.
            if !row.mvfb_wins() {
                let lost = format!(
                    "MVFB ({}) lost to MC ({})",
                    row.mvfb_latency, row.mc_latency
                );
                if matches!(m, 25 | 100) {
                    return Err(shape_error(name, format!("{lost} at equal runs")));
                }
                writeln!(out, "  warning: {name}: {lost} at off-paper m={m}")?;
            }
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "Shape checks passed: MVFB <= MC at the paper's seed counts everywhere."
    )?;
    Ok(())
}

fn cmd_table2(cli: &Cli, out: &mut dyn Write) -> Result<(), Failure> {
    let m = cli.number("--m", 100, 1, POSITIVE)?;
    let flow = Flow::on(Fabric::quale_45x85()).seeds(m);
    writeln!(
        out,
        "Table 2 — Baseline vs QUALE vs QSPR (45x85 fabric, MVFB m={m})"
    )?;
    writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>8} | paper: {:>6} {:>6} {:>6} {:>7}",
        "circuit", "baseline", "QUALE", "QSPR", "impr%", "base", "QUALE", "QSPR", "impr%"
    )?;
    let mut paper_rows = PAPER_TABLE2.iter();
    compare_each(&flow, &paper_circuits(), |row| {
        let paper = paper_rows.next().expect("one paper row per circuit");
        let paper_impr = 100.0 * (paper.2 as f64 - paper.3 as f64) / paper.2 as f64;
        writeln!(
            out,
            "{:<12} {:>9}µ {:>9}µ {:>9}µ {:>7.2}% | paper: {:>6} {:>6} {:>6} {:>6.2}%",
            row.circuit,
            row.baseline,
            row.quale,
            row.qspr,
            row.improvement_pct(),
            paper.1,
            paper.2,
            paper.3,
            paper_impr,
        )?;
        if !(row.baseline <= row.qspr && row.qspr <= row.quale) {
            let broken = format!(
                "baseline ({}) <= QSPR ({}) <= QUALE ({}) does not hold",
                row.baseline, row.qspr, row.quale
            );
            return Err(shape_error(&row.circuit, broken));
        }
        Ok(())
    })?;
    writeln!(
        out,
        "\nShape checks passed: baseline <= QSPR <= QUALE on every circuit."
    )?;
    Ok(())
}

fn cmd_serve(cli: &Cli, out: &mut dyn Write) -> Result<(), Failure> {
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: cli.value("--addr").unwrap_or(&defaults.addr).to_owned(),
        log: cli.switch("--log"),
        keep_alive_secs: cli.number(
            "--keep-alive",
            defaults.keep_alive_secs,
            0,
            "an idle timeout in seconds (0 disables)",
        )?,
        max_queue: cli.number("--max-queue", defaults.max_queue, 1, POSITIVE)?,
        threads: cli.number("--threads", defaults.threads, 1, POSITIVE)?,
    };
    // Per-request "jobs" budget: the permit gate already fans out
    // across requests, so each request gets at most its fair share of
    // the host's cores — permits times seed threads can never
    // oversubscribe. Clamping is safe because jobs never changes
    // response bytes.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs_budget = (cores / config.threads.max(1)).max(1);
    let service = Arc::new(
        MapService::new(
            cli.fabric()?,
            cli.number("--cache", DEFAULT_CACHE_ENTRIES, 0, "a number of entries")?,
        )
        .with_jobs_budget(jobs_budget),
    );
    // Feed every pipeline span (parse, place, route epochs, sta, ...)
    // into the service registry as per-phase latency histograms, so
    // `GET /metrics` reports where mapping time goes. Global, because
    // requests are handled on connection threads.
    qspr::obs::install_global(Arc::new(qspr::obs::MetricsSpanSink::new(Arc::clone(
        service.metrics(),
    ))));
    let server = Server::bind(Arc::clone(&service), &config)
        .map_err(|e| QsprError::io("bind", &config.addr, e))?;
    let addr = server
        .local_addr()
        .map_err(|e| QsprError::io("bind", &config.addr, e))?;
    // The bound address is the machine-readable part (CI greps it to
    // discover the ephemeral port), so it goes first on its own line.
    writeln!(out, "listening on http://{addr}/")?;
    writeln!(
        out,
        "threads {} | cache {} entries | keep-alive {}s | queue {} | POST /map, POST /compare, POST /sta, GET /healthz, GET /stats, GET /metrics, POST /shutdown",
        config.threads,
        service.cache().capacity(),
        config.keep_alive_secs,
        config.max_queue,
    )?;
    server
        .run()
        .map_err(|e| QsprError::io("serve on", addr.to_string(), e))?;
    let stats = service.stats();
    writeln!(
        out,
        "served {} requests ({} map, {} compare, {} sta) | cache {} hits / {} misses | rejected {} | busy {}ms",
        stats.requests,
        stats.map_requests,
        stats.compare_requests,
        stats.sta_requests,
        stats.cache_hits,
        stats.cache_misses,
        stats.rejected,
        stats.busy_us / 1000,
    )?;
    Ok(())
}

fn cmd_fabric(cli: &Cli, out: &mut dyn Write) -> Result<(), Failure> {
    let fabric = cli.fabric()?;
    let topo = fabric.topology();
    writeln!(out, "{fabric}")?;
    writeln!(
        out,
        "{}x{} cells | {} traps, {} junctions, {} segments | center {}",
        fabric.rows(),
        fabric.cols(),
        topo.traps().len(),
        topo.junctions().len(),
        topo.segments().len(),
        fabric.center(),
    )?;
    let stats = fabric.stats();
    writeln!(
        out,
        "connected: {} | diameter: {} moves / {} hops | mean trap distance {:.1} | empty {:.0}%",
        stats.connected,
        stats.junction_diameter_moves,
        stats.junction_diameter_hops,
        stats.mean_trap_distance,
        100.0 * stats.empty_fraction,
    )?;
    Ok(())
}

fn cmd_encode(cli: &Cli, out: &mut dyn Write) -> Result<(), Failure> {
    let name = cli
        .positional
        .first()
        .ok_or_else(|| QsprError::usage("encode needs a code argument"))?;
    let wanted = name.trim_matches(['[', ']']).trim();
    let (_, _, text) = codes::ENCODERS
        .iter()
        .find(|(code, _, _)| code.trim_matches(['[', ']']) == wanted)
        .ok_or_else(|| QsprError::usage(format!("unknown code {wanted:?}")))?;
    write!(out, "{text}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// `run` with its output discarded.
    fn run_quiet(args: &[String]) -> Result<(), QsprError> {
        run(args, &mut io::sink()).map_err(|e| match e {
            Failure::Qspr(e) => e,
            Failure::Stdout(e) => panic!("the sink refused a write: {e}"),
        })
    }

    #[test]
    fn cli_parses_flags_and_positionals() {
        let cli = Cli::parse(&strings(&[
            "file.qasm",
            "--m",
            "7",
            "--trace",
            "--policy",
            "quale",
        ]))
        .unwrap();
        assert_eq!(cli.positional, vec!["file.qasm"]);
        assert_eq!(cli.flow().unwrap().seed_count(), 7);
        assert!(cli.switch("--trace"));
        assert_eq!(cli.value("--policy"), Some("quale"));
    }

    #[test]
    fn cli_rejects_unknown_flags() {
        let err = Cli::parse(&strings(&["--frobnicate"])).unwrap_err();
        assert!(matches!(err, QsprError::Usage(_)));
        assert_eq!(err.to_string(), "unknown flag --frobnicate");
    }

    #[test]
    fn cli_rejects_missing_values() {
        let err = Cli::parse(&strings(&["--m"])).unwrap_err();
        assert_eq!(err.to_string(), "flag --m needs a value");
        assert!(Cli::parse(&strings(&["--format"])).is_err());
    }

    #[test]
    fn cli_rejects_duplicate_value_flags() {
        // Regression: `--m 4 --m 100` used to resolve silently to the
        // first occurrence.
        let err = Cli::parse(&strings(&["--m", "4", "--m", "100"])).unwrap_err();
        assert_eq!(err.to_string(), "flag --m given more than once");
        let err = Cli::parse(&strings(&["--fabric", "a", "--fabric", "b"])).unwrap_err();
        assert_eq!(err.to_string(), "flag --fabric given more than once");
        // Repeated switches stay harmless and idempotent.
        let cli = Cli::parse(&strings(&["--trace", "--trace"])).unwrap();
        assert!(cli.switch("--trace"));
    }

    #[test]
    fn format_flag_validates() {
        assert_eq!(
            Cli::parse(&[]).unwrap().format().unwrap(),
            OutputFormat::Text
        );
        assert_eq!(
            Cli::parse(&strings(&["--format", "text"]))
                .unwrap()
                .format()
                .unwrap(),
            OutputFormat::Text
        );
        assert_eq!(
            Cli::parse(&strings(&["--format", "json"]))
                .unwrap()
                .format()
                .unwrap(),
            OutputFormat::Json
        );
        let err = Cli::parse(&strings(&["--format", "yaml"]))
            .unwrap()
            .format()
            .unwrap_err();
        assert!(err.to_string().contains("text or json"));
    }

    #[test]
    fn default_m_is_25() {
        let cli = Cli::parse(&[]).unwrap();
        assert_eq!(cli.flow().unwrap().seed_count(), 25);
        assert!(USAGE.contains("MVFB seed count (default 25)"));
    }

    #[test]
    fn router_flag_parses_and_validates() {
        assert_eq!(
            Cli::parse(&[]).unwrap().router().unwrap(),
            RouterKind::Greedy
        );
        assert_eq!(
            Cli::parse(&strings(&["--router", "greedy"]))
                .unwrap()
                .router()
                .unwrap(),
            RouterKind::Greedy
        );
        assert_eq!(
            Cli::parse(&strings(&["--router", "negotiated"]))
                .unwrap()
                .router()
                .unwrap(),
            RouterKind::Negotiated
        );
        // A bad value is a usage error (exit 1 + usage text).
        let err = Cli::parse(&strings(&["--router", "fancy"]))
            .unwrap()
            .router()
            .unwrap_err();
        assert!(matches!(err, QsprError::Usage(_)));
        assert!(err.to_string().contains("unknown router \"fancy\""));
        let err = Cli::parse(&strings(&["--router", "race"]))
            .unwrap()
            .router()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"unknown router "race" (expected greedy or negotiated)"#
        );
        // A missing value is caught by the parser.
        let err = Cli::parse(&strings(&["--router"])).unwrap_err();
        assert_eq!(err.to_string(), "flag --router needs a value");
        // Duplicates are rejected like every other value flag.
        assert!(Cli::parse(&strings(&["--router", "greedy", "--router", "negotiated"])).is_err());
    }

    #[test]
    fn router_flag_feeds_the_flow() {
        let cli = Cli::parse(&strings(&["--router", "negotiated"])).unwrap();
        assert_eq!(cli.flow().unwrap().router_name(), "negotiated");
        assert_eq!(
            Cli::parse(&[]).unwrap().flow().unwrap().router_name(),
            "greedy"
        );
    }

    /// The usage error `run` returns for `line`.
    fn usage_error(line: &[&str]) -> String {
        let err = run_quiet(&strings(line)).unwrap_err();
        assert!(matches!(err, QsprError::Usage(_)), "{line:?}: {err}");
        err.to_string()
    }

    #[test]
    fn jobs_flag_parses_validates_and_feeds_the_flow() {
        assert_eq!(Cli::parse(&[]).unwrap().flow().unwrap().job_count(), 1);
        let cli = Cli::parse(&strings(&["--jobs", "4"])).unwrap();
        assert_eq!(cli.flow().unwrap().job_count(), 4);
        for bad in ["0", "many"] {
            assert_eq!(
                usage_error(&["suite", "--jobs", bad]),
                format!("--jobs expects a positive number, got {bad:?}")
            );
        }
        for command in ["suite", "table1", "table2"] {
            assert_eq!(
                usage_error(&[command, "--m", "0"]),
                r#"--m expects a positive number, got "0""#
            );
        }
        assert_eq!(
            usage_error(&["table2", "--m", "1OO"]),
            r#"--m expects a positive number, got "1OO""#
        );
        assert!(Cli::parse(&strings(&["--jobs"])).is_err());
        assert!(Cli::parse(&strings(&["--jobs", "1", "--jobs", "2"])).is_err());
    }

    #[test]
    fn threads_flag_parses_and_validates() {
        let cli = Cli::parse(&strings(&["--threads", "8"])).unwrap();
        assert_eq!(cli.number("--threads", 1, 1, POSITIVE).unwrap(), 8);
        let cli = Cli::parse(&[]).unwrap();
        assert_eq!(cli.number("--threads", 3, 1, POSITIVE).unwrap(), 3);
        for bad in ["0", "many"] {
            assert_eq!(
                usage_error(&["serve", "--threads", bad]),
                format!("--threads expects a positive number, got {bad:?}")
            );
        }
    }

    #[test]
    fn serve_flags_parse_and_validate() {
        let cli = Cli::parse(&strings(&["--addr", "127.0.0.1:0", "--cache", "16"])).unwrap();
        assert_eq!(cli.value("--addr"), Some("127.0.0.1:0"));
        assert_eq!(cli.number("--cache", 128, 0, "").unwrap(), 16);
        // Defaults: no addr flag, the library's cache size, as the help
        // says.
        let cli = Cli::parse(&[]).unwrap();
        assert_eq!(cli.value("--addr"), None);
        assert!(USAGE.contains(&format!(
            "(default {}; port 0 = ephemeral)",
            ServeConfig::default().addr
        )));
        assert!(USAGE.contains(&format!("(default {DEFAULT_CACHE_ENTRIES}, 0 = off)")));
        // Cache must be numeric; 0 (disabled) is allowed.
        let cli = Cli::parse(&strings(&["--cache", "0"])).unwrap();
        assert_eq!(cli.number("--cache", 128, 0, "").unwrap(), 0);
        assert_eq!(
            usage_error(&["serve", "--cache", "lots"]),
            r#"--cache expects a number of entries, got "lots""#
        );
        // Value-flag plumbing applies: duplicates and missing values.
        assert!(Cli::parse(&strings(&["--addr", "a", "--addr", "b"])).is_err());
        assert!(Cli::parse(&strings(&["--cache"])).is_err());
    }

    #[test]
    fn front_end_flags_parse_and_validate() {
        // The help states the library's defaults.
        let defaults = ServeConfig::default();
        assert!(USAGE.contains(&format!("before 429 (default {})", defaults.max_queue)));
        assert!(USAGE.contains(&format!(
            "(default {}; 0 = close per request)",
            defaults.keep_alive_secs
        )));
        let cli = Cli::parse(&strings(&["--max-queue", "2", "--keep-alive", "0"])).unwrap();
        assert_eq!(cli.number("--max-queue", 256, 1, POSITIVE).unwrap(), 2);
        assert_eq!(
            cli.number("--keep-alive", 30, 0, "").unwrap(),
            0,
            "0 = close per request"
        );
        // Queue depth must stay positive; keep-alive allows 0.
        assert_eq!(
            usage_error(&["serve", "--max-queue", "0"]),
            r#"--max-queue expects a positive number, got "0""#
        );
        assert_eq!(
            usage_error(&["serve", "--keep-alive", "soon"]),
            r#"--keep-alive expects an idle timeout in seconds (0 disables), got "soon""#
        );
        assert!(Cli::parse(&strings(&["--max-queue"])).is_err());
        assert!(Cli::parse(&strings(&["--keep-alive", "1", "--keep-alive", "2"])).is_err());
    }

    #[test]
    fn serve_rejects_a_bad_bind_address() {
        let cli = Cli::parse(&strings(&["--addr", "definitely:not:an:addr"])).unwrap();
        let err = cmd_serve(&cli, &mut io::sink()).unwrap_err();
        let Failure::Qspr(err @ QsprError::Io { .. }) = err else {
            panic!("not an I/O failure")
        };
        assert!(
            err.to_string()
                .starts_with("cannot bind definitely:not:an:addr: "),
            "{err}"
        );
    }

    #[test]
    fn commands_reject_what_they_do_not_take() {
        // Each case fails before any file is read.
        for (line, error) in [
            ("map a.qasm --addr x", "map does not take --addr"),
            ("map a.qasm --log", "map does not take --log"),
            ("sta a.qasm --trace", "sta does not take --trace"),
            (
                "compare a.qasm --policy quale",
                "compare does not take --policy",
            ),
            ("suite --threads 2", "suite does not take --threads"),
            ("serve --m 4", "serve does not take --m"),
            ("fabric --format json", "fabric does not take --format"),
            (
                "map a.qasm b.qasm",
                r#"unexpected argument "b.qasm" for map"#,
            ),
            (
                "sta a.qasm b.qasm",
                r#"unexpected argument "b.qasm" for sta"#,
            ),
            (
                "compare a.qasm /nonexistent.qasm",
                r#"unexpected argument "/nonexistent.qasm" for compare"#,
            ),
            (
                "encode 5,1,3 7,1,3",
                r#"unexpected argument "7,1,3" for encode"#,
            ),
            ("fabric extra", r#"unexpected argument "extra" for fabric"#),
            ("table1 --quick", "unknown flag --quick"),
            ("table2 --jobs 2", "table2 does not take --jobs"),
            ("table1 --fabric f.json", "table1 does not take --fabric"),
            ("table2 extra", r#"unexpected argument "extra" for table2"#),
        ] {
            let err = run_quiet(&strings(&line.split(' ').collect::<Vec<_>>())).unwrap_err();
            assert!(matches!(err, QsprError::Usage(_)), "{line}");
            assert_eq!(err.to_string(), error, "{line}");
        }
        // What a usage line lists passes, and `suite` takes any number
        // of files.
        for line in [
            "map a.qasm --trace --profile --jobs 2",
            "suite a.qasm b.qasm c.qasm --router negotiated",
            "serve --threads 2 --log --keep-alive 0",
            "table1 --m 5",
            "table2 --m 5",
        ] {
            let args: Vec<&str> = line.split(' ').collect();
            let cli = Cli::parse(&strings(&args[1..])).unwrap();
            assert!(cli.check(args[0]).is_ok(), "{line}");
        }
    }

    #[test]
    fn suite_stops_at_the_first_failing_circuit() {
        let err = run_quiet(&strings(&["suite", "/nonexistent.qasm"])).unwrap_err();
        assert!(matches!(err, QsprError::Io { .. }));
        // No circuit fits a two-trap fabric; the error names the first.
        let fabric =
            std::env::temp_dir().join(format!("qspr-two-traps-{}.txt", std::process::id()));
        std::fs::write(&fabric, "-+-+-\n.|T|.\n-+-+-\n.|T|.\n-+-+-\n").unwrap();
        let fabric_arg = fabric.to_str().unwrap();
        let result = run_quiet(&strings(&["suite", "--m", "2", "--fabric", fabric_arg]));
        std::fs::remove_file(&fabric).unwrap();
        let err = result.unwrap_err();
        assert!(matches!(err, QsprError::Circuit { .. }), "{err}");
        assert!(
            err.to_string()
                .starts_with("[[5,1,3]]: fabric has 2 traps but "),
            "{err}"
        );
    }

    #[test]
    fn paper_reference_improvements_are_24_to_55_percent() {
        for (name, _, quale, qspr) in PAPER_TABLE2 {
            let imp = 100.0 * (quale as f64 - qspr as f64) / quale as f64;
            assert!((23.0..56.0).contains(&imp), "{name}: {imp}");
        }
    }

    #[test]
    fn paper_tables_list_the_suite_in_order() {
        let names: Vec<String> = paper_circuits().into_iter().map(|(name, _)| name).collect();
        let table1: Vec<&str> = PAPER_TABLE1.iter().map(|row| row.0).collect();
        let table2: Vec<&str> = PAPER_TABLE2.iter().map(|row| row.0).collect();
        assert_eq!(names, table1);
        assert_eq!(names, table2);
    }

    #[test]
    fn a_broken_shape_names_its_circuit_without_the_usage_text() {
        let Failure::Qspr(err) = shape_error("[[9,1,3]]", "MVFB (790) lost".into()) else {
            panic!("not a QSPR failure")
        };
        assert!(matches!(err, QsprError::Circuit { .. }), "{err}");
        assert_eq!(err.to_string(), "[[9,1,3]]: MVFB (790) lost");
    }

    #[test]
    fn run_rejects_unknown_commands() {
        assert!(run_quiet(&strings(&["frobnicate"])).is_err());
        assert!(run_quiet(&[]).is_err());
    }

    #[test]
    fn help_exits_cleanly_everywhere() {
        // `--help` used to fall into the unknown-flag failure path; it
        // must now succeed wherever it appears.
        assert!(run_quiet(&strings(&["--help"])).is_ok());
        assert!(run_quiet(&strings(&["-h"])).is_ok());
        assert!(run_quiet(&strings(&["map", "--help"])).is_ok());
        assert!(run_quiet(&strings(&["suite", "--threads", "2", "-h"])).is_ok());
    }

    #[test]
    fn version_subcommand_succeeds() {
        assert!(run_quiet(&strings(&["version"])).is_ok());
        assert!(run_quiet(&strings(&["--version"])).is_ok());
        // Like --help, the flag form wins anywhere on the line.
        assert!(run_quiet(&strings(&["map", "--version"])).is_ok());
    }

    #[test]
    fn sta_flags_parse() {
        let cli = Cli::parse(&strings(&["file.qasm", "--dump-trace", "out.json"])).unwrap();
        assert_eq!(cli.value("--dump-trace"), Some("out.json"));
        // `--dump-trace` is a value flag: it needs a path and rejects
        // duplicates like the others.
        assert!(Cli::parse(&strings(&["--dump-trace"])).is_err());
        assert!(Cli::parse(&strings(&["--dump-trace", "a", "--dump-trace", "b"])).is_err());
        // `qspr sta` is the one way to ask for the timing report: no
        // STA switch exists, and asking for one fails before any file
        // I/O.
        for command in ["map", "sta"] {
            let err = run_quiet(&strings(&[command, "missing.qasm", "--sta"])).unwrap_err();
            assert_eq!(err.to_string(), "unknown flag --sta");
        }
    }

    #[test]
    fn reports_splice_into_summary_json() {
        let spliced = splice_field(r#"{"policy":"qspr"}"#, "profile", r#"{"total_wall_us":9}"#);
        assert_eq!(
            spliced,
            r#"{"policy":"qspr","profile":{"total_wall_us":9}}"#
        );
        // The splice stays strictly parseable.
        assert!(qspr::json::JsonValue::parse(&spliced).is_ok());
    }

    #[test]
    fn profile_and_log_switches_parse() {
        let cli = Cli::parse(&strings(&["file.qasm", "--profile"])).unwrap();
        assert!(cli.switch("--profile"));
        let cli = Cli::parse(&strings(&["--log", "--addr", "127.0.0.1:0"])).unwrap();
        assert!(cli.switch("--log"));
        // Neither takes a value: the next token stays positional.
        let cli = Cli::parse(&strings(&["--profile", "file.qasm"])).unwrap();
        assert_eq!(cli.positional, vec!["file.qasm"]);
    }

    #[test]
    fn map_rejects_bad_policy_via_flow_policy() {
        let err = "best".parse::<FlowPolicy>().unwrap_err();
        assert!(err.to_string().contains("unknown policy"));
        // The usage text offers only what parses.
        assert!(!USAGE.contains("qpos") && !USAGE.contains("[--sta]"));
    }

    #[test]
    fn compare_json_round_trips_through_the_golden_schema() {
        // End-to-end: run `compare --format json` machinery on a real
        // program and check the emitted object against the pinned
        // schema keys, in order.
        let flow = Flow::on(Fabric::quale_45x85()).seeds(2);
        let bench = codes::benchmark_suite().swap_remove(0);
        let row = flow.compare(&bench.name, &bench.program).unwrap();
        let json = row.to_json();
        let keys = [
            "\"circuit\":",
            "\"baseline_us\":",
            "\"quale_us\":",
            "\"qspr_us\":",
            "\"quale_overhead_us\":",
            "\"qspr_overhead_us\":",
            "\"improvement_pct\":",
        ];
        let mut at = 0;
        for key in keys {
            let pos = json[at..]
                .find(key)
                .unwrap_or_else(|| panic!("{key} missing (or out of order) in {json}"));
            at += pos + key.len();
        }
        // Round-trip: the values re-parse as the row's numbers.
        let grab = |key: &str| -> u64 {
            let start = json.find(key).expect("key present") + key.len();
            json[start..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("integer value")
        };
        assert_eq!(grab("\"baseline_us\":"), row.baseline);
        assert_eq!(grab("\"quale_us\":"), row.quale);
        assert_eq!(grab("\"qspr_us\":"), row.qspr);
    }
}
