//! `qspr` — command-line front end for the QSPR mapper.
//!
//! ```text
//! qspr map <file.qasm> [--policy qspr|quale|qpos] [--router R] [--m N] [--jobs N] [--trace] [--sta] [--dump-trace FILE] [--profile] [--fabric F] [--format FMT]
//! qspr sta <file.qasm> [--policy P] [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
//! qspr compare <file.qasm> [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
//! qspr suite [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
//! qspr batch [files...] [--suite] [--router R] [--m N] [--jobs N] [--threads T] [--fabric F] [--format FMT]
//! qspr serve [--addr A] [--threads T] [--cache N] [--max-queue Q] [--keep-alive SECS] [--log] [--fabric F]
//! qspr fabric [--fabric F]
//! qspr encode <CODE>
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
//!
//! `qspr sta` maps a circuit with trace recording on and prints the
//! static timing analysis of `qspr-sta`: per-instruction slack, the
//! critical path and segment/junction bottlenecks. `qspr map --sta`
//! appends the same report to a normal mapping run.
//!
//! `qspr map --profile` instruments the run with the `qspr-obs` span
//! tracer and reports per-phase wall time, the span tree and per-epoch
//! counts — appended as a `"profile"` object in JSON mode, or as a
//! table after the text report.
//!
//! `qspr serve` runs the resident mapping service of `qspr::service`:
//! `POST /map`, `POST /compare`, `POST /sta` and `POST /batch` with
//! the same JSON schemas as `--format json`, `GET /healthz`,
//! `GET /stats`, `GET /metrics` (Prometheus text format),
//! `POST /shutdown`. Connections are keep-alive by default
//! (`--keep-alive SECS` idle timeout, 0 restores close-per-request),
//! results come from an LRU cache (`--cache N` entries, 0 disables),
//! and each heavy endpoint
//! admits at most `--max-queue Q` queued requests before answering
//! `429 Too Many Requests` with `Retry-After`. `--log` writes one
//! structured access-log line per request to stderr.

use std::process::ExitCode;
use std::sync::Arc;

use qspr::json::JsonArray;
use qspr::service::{MapService, ServeConfig, Server, DEFAULT_CACHE_ENTRIES};
use qspr::{BatchJob, BatchMapper, Flow, FlowPolicy, QsprError, RouterKind, ToJson};
use qspr_fabric::Fabric;
use qspr_qasm::Program;
use qspr_qecc::codes;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qspr: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  qspr map <file.qasm> [--policy qspr|quale|qpos] [--router R] [--m N] [--jobs N] [--trace] [--sta] [--dump-trace FILE] [--profile] [--fabric F] [--format FMT]
  qspr sta <file.qasm> [--policy P] [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
  qspr compare <file.qasm> [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
  qspr suite [--router R] [--m N] [--jobs N] [--fabric F] [--format FMT]
  qspr batch [files...] [--suite] [--router R] [--m N] [--jobs N] [--threads T] [--fabric F] [--format FMT]
  qspr serve [--addr A] [--threads T] [--cache N] [--max-queue Q] [--keep-alive SECS] [--log] [--fabric F]
  qspr fabric [--fabric F]
  qspr encode <CODE>          (5,1,3 | 7,1,3 | 9,1,3 | 14,8,3 | 19,1,7 | 23,1,7)
  qspr version

options:
  --fabric F    quale45x85 (default) or a fabric file (spec JSON or ASCII art)
  --policy P    mapper policy for `map` (default qspr)
  --router R    routing engine: greedy (default) or negotiated
  --m N         MVFB seed count (default 25)
  --jobs N      placement seeds run on N threads (default 1; identical output at any N)
  --threads T   worker threads for `batch`/`serve` (default: all CPUs)
  --format FMT  output format: text (default) or json
  --suite       add the paper's six benchmark circuits to the batch
  --trace       print the micro-command trace after mapping
  --sta         map: append the static timing analysis to the report
  --dump-trace FILE  map: write the recorded trace to FILE as JSON
  --profile     map: trace the run and report per-phase times and the span tree
  --addr A      serve: bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --cache N     serve: result-cache capacity in entries (default 128, 0 = off)
  --max-queue Q serve: queued requests per heavy endpoint before 429 (default 256)
  --keep-alive SECS  serve: idle connection timeout (default 30; 0 = close per request)
  --log         serve: one structured access-log line per request on stderr
  --help, -h    print this help and exit";

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
        const SWITCHES: [&str; 5] = ["--trace", "--suite", "--sta", "--profile", "--log"];
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

    fn m(&self) -> Result<usize, QsprError> {
        match self.value("--m") {
            None => Ok(25),
            Some(v) => v
                .parse()
                .map_err(|_| QsprError::usage(format!("--m expects a number, got {v:?}"))),
        }
    }

    fn jobs(&self) -> Result<usize, QsprError> {
        match self.value("--jobs") {
            None => Ok(1),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(QsprError::usage(format!(
                    "--jobs expects a positive number, got {v:?}"
                ))),
            },
        }
    }

    fn threads(&self) -> Result<Option<usize>, QsprError> {
        match self.value("--threads") {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(QsprError::usage(format!(
                    "--threads expects a positive number, got {v:?}"
                ))),
            },
        }
    }

    fn cache(&self) -> Result<usize, QsprError> {
        match self.value("--cache") {
            None => Ok(DEFAULT_CACHE_ENTRIES),
            Some(v) => v.parse().map_err(|_| {
                QsprError::usage(format!("--cache expects a number of entries, got {v:?}"))
            }),
        }
    }

    fn max_queue(&self) -> Result<usize, QsprError> {
        match self.value("--max-queue") {
            None => Ok(256),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(QsprError::usage(format!(
                    "--max-queue expects a positive number, got {v:?}"
                ))),
            },
        }
    }

    fn keep_alive(&self) -> Result<u64, QsprError> {
        match self.value("--keep-alive") {
            None => Ok(30),
            Some(v) => v.parse().map_err(|_| {
                QsprError::usage(format!(
                    "--keep-alive expects an idle timeout in seconds (0 disables), got {v:?}"
                ))
            }),
        }
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
                let text = std::fs::read_to_string(path).map_err(|e| QsprError::io(path, e))?;
                Ok(Fabric::parse(&text)?)
            }
        }
    }

    /// A flow on the selected fabric with the selected seed count and
    /// routing engine.
    fn flow(&self) -> Result<Flow, QsprError> {
        Ok(Flow::on(self.fabric()?)
            .seeds(self.m()?)
            .router(self.router()?)
            .jobs(self.jobs()?))
    }
}

/// Splices a pre-serialized object into the trailing brace of a summary
/// object as `"key":value` (both inputs are `qspr_json`-built objects,
/// so the result stays strictly parseable). Used for the `--sta` and
/// `--profile` report blocks.
fn splice_field(summary: &str, key: &str, value: &str) -> String {
    debug_assert!(summary.ends_with('}'));
    format!("{},\"{key}\":{value}}}", &summary[..summary.len() - 1])
}

fn load_program(path: &str) -> Result<Program, QsprError> {
    let text = std::fs::read_to_string(path).map_err(|e| QsprError::io(path, e))?;
    Program::parse(&text).map_err(QsprError::from)
}

fn run(args: &[String]) -> Result<(), QsprError> {
    // Help short-circuits everything: any `--help`/`-h` anywhere wins,
    // and must exit 0 rather than trip the unknown-flag path.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    // `--version` wins anywhere too, for consistency with `--help`.
    if args.first().map(String::as_str) == Some("version") || args.iter().any(|a| a == "--version")
    {
        println!("qspr {}", env!("CARGO_PKG_VERSION"));
        return Ok(());
    }
    let Some(command) = args.first() else {
        return Err(QsprError::usage("missing command"));
    };
    let cli = Cli::parse(&args[1..])?;
    match command.as_str() {
        "map" => cmd_map(&cli),
        "sta" => cmd_sta(&cli),
        "compare" => cmd_compare(&cli),
        "suite" => cmd_suite(&cli),
        "batch" => cmd_batch(&cli),
        "serve" => cmd_serve(&cli),
        "fabric" => cmd_fabric(&cli),
        "encode" => cmd_encode(&cli),
        other => Err(QsprError::usage(format!("unknown command {other:?}"))),
    }
}

fn cmd_map(cli: &Cli) -> Result<(), QsprError> {
    let path = cli
        .positional
        .first()
        .ok_or_else(|| QsprError::usage("map needs a QASM file argument"))?;
    let policy: FlowPolicy = cli.value("--policy").unwrap_or("qspr").parse()?;
    let format = cli.format()?;
    let sta = cli.switch("--sta");
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
        .record_trace(cli.switch("--trace") || sta || dump_trace.is_some());

    let result = flow.run(&program)?;
    if let Some(out) = dump_trace {
        let trace = result
            .forward_trace
            .as_ref()
            .expect("trace recording was enabled");
        std::fs::write(out, qspr::sta::trace_to_json(trace)).map_err(|e| QsprError::io(out, e))?;
    }
    // The STA report runs inside the profiled window (its "sta" span
    // becomes a phase); the profile itself is built afterwards, once
    // all spans have closed.
    let sta_report = sta
        .then(|| flow.timing_report(&program, &result))
        .transpose()?;
    let profile = profiling.map(|(collector, guard, t0)| {
        drop(guard);
        qspr::obs::ProfileReport::from_collector(&collector, t0.elapsed())
    });
    match format {
        OutputFormat::Json => {
            let mut summary = result.summary().to_json();
            if let Some(report) = &sta_report {
                summary = splice_field(&summary, "sta", &report.to_json());
            }
            if let Some(profile) = &profile {
                summary = splice_field(&summary, "profile", &profile.to_json());
            }
            println!("{summary}");
        }
        OutputFormat::Text => {
            match policy {
                FlowPolicy::Qspr => {
                    println!("policy          qspr (MVFB m={})", flow.seed_count())
                }
                other => println!("policy          {other}"),
            }
            println!("router          {}", result.router);
            println!("latency         {}µs", result.latency);
            println!("ideal baseline  {}µs", flow.ideal_latency(&program));
            println!("placement runs  {}", result.runs);
            println!(
                "movement        {} moves, {} turns",
                result.outcome.totals().moves,
                result.outcome.totals().turns
            );
            println!(
                "congestion wait {}µs total",
                result.outcome.totals().congestion_wait
            );
            let routing = result.outcome.routing_stats();
            println!(
                "routing epochs  {} ({} rip iterations, {} ripped routes, peak pressure {})",
                routing.epochs, routing.iterations, routing.ripped, routing.max_pressure
            );
            if cli.switch("--trace") {
                if let Some(trace) = &result.forward_trace {
                    println!("\ntrace ({} commands):", trace.len());
                    for entry in trace {
                        println!("  {entry}");
                    }
                }
            }
            if let Some(report) = &sta_report {
                println!("\n{report}");
            }
            if let Some(profile) = &profile {
                println!("\n{profile}");
            }
        }
    }
    Ok(())
}

fn cmd_sta(cli: &Cli) -> Result<(), QsprError> {
    let path = cli
        .positional
        .first()
        .ok_or_else(|| QsprError::usage("sta needs a QASM file argument"))?;
    let policy: FlowPolicy = cli.value("--policy").unwrap_or("qspr").parse()?;
    let format = cli.format()?;
    let program = load_program(path)?;
    let flow = cli.flow()?.policy(policy).record_trace(true);
    let result = flow.run(&program)?;
    let report = flow.timing_report(&program, &result)?;
    match format {
        OutputFormat::Json => println!("{}", report.to_json()),
        OutputFormat::Text => {
            println!("circuit         {path}");
            println!("router          {}", result.router);
            println!("latency         {}µs", result.latency);
            println!();
            println!("{report}");
        }
    }
    Ok(())
}

fn cmd_compare(cli: &Cli) -> Result<(), QsprError> {
    let path = cli
        .positional
        .first()
        .ok_or_else(|| QsprError::usage("compare needs a QASM file argument"))?;
    let program = load_program(path)?;
    let format = cli.format()?;
    let row = cli.flow()?.compare(path, &program)?;
    match format {
        OutputFormat::Text => println!("{row}"),
        OutputFormat::Json => println!("{}", row.to_json()),
    }
    Ok(())
}

fn cmd_suite(cli: &Cli) -> Result<(), QsprError> {
    let format = cli.format()?;
    let flow = cli.flow()?;
    let mut rows = JsonArray::new();
    for bench in codes::benchmark_suite() {
        let row = flow.compare(&bench.name, &bench.program)?;
        match format {
            OutputFormat::Text => println!("{row}"),
            OutputFormat::Json => rows.push_raw(&row.to_json()),
        }
    }
    if format == OutputFormat::Json {
        println!("{}", rows.build());
    }
    Ok(())
}

fn cmd_batch(cli: &Cli) -> Result<(), QsprError> {
    let mut jobs: Vec<BatchJob> = Vec::new();
    for path in &cli.positional {
        jobs.push(BatchJob::new(path.as_str(), load_program(path)?));
    }
    if cli.switch("--suite") {
        jobs.extend(codes::benchmark_suite().into_iter().map(BatchJob::from));
    }
    if jobs.is_empty() {
        return Err(QsprError::usage("batch needs QASM files and/or --suite"));
    }
    let format = cli.format()?;
    let mut mapper = BatchMapper::new(cli.flow()?);
    if let Some(threads) = cli.threads()? {
        mapper = mapper.threads(threads);
    }
    let report = mapper.run(&jobs)?;
    match format {
        OutputFormat::Json => println!("{}", report.to_json()),
        OutputFormat::Text => {
            for item in &report.items {
                println!("{}  [{:>7.1?}]", item.row, item.cpu);
            }
            println!(
                "{} circuits | {} threads | wall {:.2?} | worker time {:.2?} | speedup {:.2}x | mean improvement {:.2}%",
                report.items.len(),
                report.threads,
                report.wall,
                report.total_cpu(),
                report.speedup(),
                report.mean_improvement_pct(),
            );
        }
    }
    Ok(())
}

fn cmd_serve(cli: &Cli) -> Result<(), QsprError> {
    let mut config = ServeConfig {
        addr: cli.value("--addr").unwrap_or("127.0.0.1:7878").to_owned(),
        log: cli.switch("--log"),
        keep_alive_secs: cli.keep_alive()?,
        max_queue: cli.max_queue()?,
        ..ServeConfig::default()
    };
    if let Some(threads) = cli.threads()? {
        config.threads = threads;
    }
    // Per-request "jobs" budget: the worker pool already fans out
    // across requests, so each request gets at most its fair share of
    // the host's cores — pool threads times seed threads can never
    // oversubscribe. Clamping is safe because jobs never changes
    // response bytes.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs_budget = (cores / config.threads.max(1)).max(1);
    let service =
        Arc::new(MapService::new(cli.fabric()?, cli.cache()?).with_jobs_budget(jobs_budget));
    // Feed every pipeline span (parse, place, route epochs, sta, ...)
    // into the service registry as per-phase latency histograms, so
    // `GET /metrics` reports where mapping time goes. Global, because
    // requests are handled on worker threads.
    qspr::obs::install_global(Arc::new(qspr::obs::MetricsSpanSink::new(Arc::clone(
        service.metrics(),
    ))));
    let server =
        Server::bind(Arc::clone(&service), &config).map_err(|e| QsprError::io(&config.addr, e))?;
    let addr = server
        .local_addr()
        .map_err(|e| QsprError::io(&config.addr, e))?;
    // The bound address is the machine-readable part (CI greps it to
    // discover the ephemeral port), so it goes first on its own line.
    println!("listening on http://{addr}/");
    println!(
        "threads {} | cache {} entries | keep-alive {}s | queue {} | POST /map, POST /compare, POST /sta, POST /batch, GET /healthz, GET /stats, GET /metrics, POST /shutdown",
        config.threads,
        service.cache().capacity(),
        config.keep_alive_secs,
        config.max_queue,
    );
    server
        .run()
        .map_err(|e| QsprError::io(addr.to_string(), e))?;
    let stats = service.stats();
    println!(
        "served {} requests ({} map, {} compare, {} sta, {} batch/{} programs) | cache {} hits / {} misses | rejected {} | busy {}ms",
        stats.requests,
        stats.map_requests,
        stats.compare_requests,
        stats.sta_requests,
        stats.batch_requests,
        stats.batch_programs,
        stats.cache_hits,
        stats.cache_misses,
        stats.rejected,
        stats.busy_us / 1000,
    );
    Ok(())
}

fn cmd_fabric(cli: &Cli) -> Result<(), QsprError> {
    let fabric = cli.fabric()?;
    let topo = fabric.topology();
    println!("{fabric}");
    println!(
        "{}x{} cells | {} traps, {} junctions, {} segments | center {}",
        fabric.rows(),
        fabric.cols(),
        topo.traps().len(),
        topo.junctions().len(),
        topo.segments().len(),
        fabric.center(),
    );
    let stats = fabric.stats();
    println!(
        "connected: {} | diameter: {} moves / {} hops | mean trap distance {:.1} | empty {:.0}%",
        stats.connected,
        stats.junction_diameter_moves,
        stats.junction_diameter_hops,
        stats.mean_trap_distance,
        100.0 * stats.empty_fraction,
    );
    Ok(())
}

fn cmd_encode(cli: &Cli) -> Result<(), QsprError> {
    let name = cli
        .positional
        .first()
        .ok_or_else(|| QsprError::usage("encode needs a code argument"))?;
    let code = match name.trim_matches(|c| c == '[' || c == ']').trim() {
        "5,1,3" => codes::five_one_three(),
        "7,1,3" => codes::steane(),
        "9,1,3" => codes::nine_one_three(),
        "14,8,3" => codes::fourteen_eight_three(),
        "19,1,7" => codes::nineteen_one_seven(),
        "23,1,7" => codes::twenty_three_one_seven(),
        other => return Err(QsprError::usage(format!("unknown code {other:?}"))),
    };
    let program =
        qspr_qecc::encoder::encoding_circuit(&code).map_err(|e| QsprError::usage(e.to_string()))?;
    print!("{}", program.to_qasm());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
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
        assert_eq!(cli.m().unwrap(), 7);
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
        assert_eq!(cli.m().unwrap(), 25);
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

    #[test]
    fn jobs_flag_parses_validates_and_feeds_the_flow() {
        assert_eq!(Cli::parse(&[]).unwrap().jobs().unwrap(), 1);
        let cli = Cli::parse(&strings(&["--jobs", "4"])).unwrap();
        assert_eq!(cli.jobs().unwrap(), 4);
        assert_eq!(cli.flow().unwrap().job_count(), 4);
        assert!(Cli::parse(&strings(&["--jobs", "0"]))
            .unwrap()
            .jobs()
            .is_err());
        assert!(Cli::parse(&strings(&["--jobs", "many"]))
            .unwrap()
            .jobs()
            .is_err());
        assert!(Cli::parse(&strings(&["--jobs"])).is_err());
        assert!(Cli::parse(&strings(&["--jobs", "1", "--jobs", "2"])).is_err());
    }

    #[test]
    fn threads_flag_parses_and_validates() {
        let cli = Cli::parse(&strings(&["--threads", "8", "--suite"])).unwrap();
        assert_eq!(cli.threads().unwrap(), Some(8));
        assert!(cli.switch("--suite"));
        assert_eq!(Cli::parse(&[]).unwrap().threads().unwrap(), None);
        assert!(Cli::parse(&strings(&["--threads", "0"]))
            .unwrap()
            .threads()
            .is_err());
        assert!(Cli::parse(&strings(&["--threads", "many"]))
            .unwrap()
            .threads()
            .is_err());
    }

    #[test]
    fn serve_flags_parse_and_validate() {
        let cli = Cli::parse(&strings(&["--addr", "127.0.0.1:0", "--cache", "16"])).unwrap();
        assert_eq!(cli.value("--addr"), Some("127.0.0.1:0"));
        assert_eq!(cli.cache().unwrap(), 16);
        // Defaults: no addr flag, 128 cache entries, as the help says.
        let cli = Cli::parse(&[]).unwrap();
        assert_eq!(cli.value("--addr"), None);
        assert_eq!(cli.cache().unwrap(), 128);
        assert!(USAGE.contains("(default 128, 0 = off)"));
        // Cache must be numeric; 0 (disabled) is allowed.
        assert_eq!(
            Cli::parse(&strings(&["--cache", "0"]))
                .unwrap()
                .cache()
                .unwrap(),
            0
        );
        let err = Cli::parse(&strings(&["--cache", "lots"]))
            .unwrap()
            .cache()
            .unwrap_err();
        assert!(err.to_string().contains("--cache expects"));
        // Value-flag plumbing applies: duplicates and missing values.
        assert!(Cli::parse(&strings(&["--addr", "a", "--addr", "b"])).is_err());
        assert!(Cli::parse(&strings(&["--cache"])).is_err());
    }

    #[test]
    fn front_end_flags_parse_and_validate() {
        // Defaults: 256-deep admission queues, 30s keep-alive.
        let cli = Cli::parse(&[]).unwrap();
        assert_eq!(cli.max_queue().unwrap(), 256);
        assert_eq!(cli.keep_alive().unwrap(), 30);
        let cli = Cli::parse(&strings(&["--max-queue", "2", "--keep-alive", "0"])).unwrap();
        assert_eq!(cli.max_queue().unwrap(), 2);
        assert_eq!(cli.keep_alive().unwrap(), 0, "0 = close per request");
        // Queue depth must stay positive; keep-alive allows 0.
        assert!(Cli::parse(&strings(&["--max-queue", "0"]))
            .unwrap()
            .max_queue()
            .is_err());
        assert!(Cli::parse(&strings(&["--keep-alive", "soon"]))
            .unwrap()
            .keep_alive()
            .is_err());
        assert!(Cli::parse(&strings(&["--max-queue"])).is_err());
        assert!(Cli::parse(&strings(&["--keep-alive", "1", "--keep-alive", "2"])).is_err());
    }

    #[test]
    fn serve_rejects_a_bad_bind_address() {
        let cli = Cli::parse(&strings(&["--addr", "definitely:not:an:addr"])).unwrap();
        let err = cmd_serve(&cli).unwrap_err();
        assert!(matches!(err, QsprError::Io { .. }));
    }

    #[test]
    fn batch_requires_some_input() {
        let cli = Cli::parse(&[]).unwrap();
        assert!(cmd_batch(&cli).is_err());
    }

    #[test]
    fn run_rejects_unknown_commands() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn help_exits_cleanly_everywhere() {
        // `--help` used to fall into the unknown-flag failure path; it
        // must now succeed wherever it appears.
        assert!(run(&strings(&["--help"])).is_ok());
        assert!(run(&strings(&["-h"])).is_ok());
        assert!(run(&strings(&["map", "--help"])).is_ok());
        assert!(run(&strings(&["batch", "--suite", "-h"])).is_ok());
    }

    #[test]
    fn version_subcommand_succeeds() {
        assert!(run(&strings(&["version"])).is_ok());
        assert!(run(&strings(&["--version"])).is_ok());
        // Like --help, the flag form wins anywhere on the line.
        assert!(run(&strings(&["map", "--version"])).is_ok());
    }

    #[test]
    fn sta_flags_parse() {
        let cli = Cli::parse(&strings(&[
            "file.qasm",
            "--sta",
            "--dump-trace",
            "out.json",
        ]))
        .unwrap();
        assert!(cli.switch("--sta"));
        assert_eq!(cli.value("--dump-trace"), Some("out.json"));
        // `--dump-trace` is a value flag: it needs a path and rejects
        // duplicates like the others.
        assert!(Cli::parse(&strings(&["--dump-trace"])).is_err());
        assert!(Cli::parse(&strings(&["--dump-trace", "a", "--dump-trace", "b"])).is_err());
        // `--sta` is the only STA switch; others fail before any file
        // I/O, for both commands that take STA flags.
        for command in ["map", "sta"] {
            let err = run(&strings(&[command, "missing.qasm", "--sta-feedback"])).unwrap_err();
            assert_eq!(err.to_string(), "unknown flag --sta-feedback");
        }
    }

    #[test]
    fn reports_splice_into_summary_json() {
        let spliced = splice_field(r#"{"policy":"qspr"}"#, "sta", r#"{"makespan_us":7}"#);
        assert_eq!(spliced, r#"{"policy":"qspr","sta":{"makespan_us":7}}"#);
        // The splice stays strictly parseable, and chains.
        assert!(qspr::json::JsonValue::parse(&spliced).is_ok());
        let chained = splice_field(&spliced, "profile", r#"{"total_wall_us":9}"#);
        assert_eq!(
            chained,
            r#"{"policy":"qspr","sta":{"makespan_us":7},"profile":{"total_wall_us":9}}"#
        );
        assert!(qspr::json::JsonValue::parse(&chained).is_ok());
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
    }

    #[test]
    fn encode_produces_parseable_qasm() {
        // Drive the command path end to end for one code.
        let cli = Cli::parse(&strings(&["5,1,3"])).unwrap();
        cmd_encode(&cli).unwrap();
    }

    #[test]
    fn suite_names_resolve() {
        for name in ["5,1,3", "7,1,3", "9,1,3", "14,8,3", "19,1,7", "23,1,7"] {
            let cli = Cli::parse(&strings(&[name])).unwrap();
            assert!(cmd_encode(&cli).is_ok(), "{name}");
        }
        let cli = Cli::parse(&strings(&["31,1,7"])).unwrap();
        assert!(cmd_encode(&cli).is_err());
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
