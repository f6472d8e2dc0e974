//! `ise` — command-line front end for the calibration scheduler.
//!
//! ```text
//! ise generate --family <name> [--jobs N] [--machines M] [--calib-len T]
//!              [--horizon H] [--seed S] [--out FILE]
//! ise solve    <instance.json> [--trim] [--mm BACKEND] [--speed S]
//!              [--decompose] [--out FILE]
//! ise validate <instance.json> <schedule.json> [--tise|--relaxed]
//! ise bounds   <instance.json>
//! ise gantt    <instance.json> <schedule.json> [--width W]
//! ise exact    <instance.json> [--max-calibrations K]
//! ise serve    [requests.jsonl] [--workers N] [--timeout-ms MS] [--out FILE]
//!              [--metrics FILE] [--metrics-out FILE]
//!              [--listen HOST:PORT] [--max-connections N]
//!              [--idle-timeout-ms MS] [--max-line-len BYTES]
//! ise trace    <instance.json> [--trim] [--mm BACKEND] [--speed S]
//! ise bench    [--quick] [--reps N] [--out FILE] [--check FILE] [--threshold X]
//!              [--factorization lu|eta]
//! ise fuzz     [--seed S] [--cases N] [--max-jobs N] [--oracles LIST]
//!              [--time-budget SECS] [--corpus DIR] [--no-shrink]
//!              [--replay DIR]
//! ```
//!
//! Instances and schedules are the serde JSON forms of
//! [`ise::model::Instance`] and [`ise::model::Schedule`]; `generate` and
//! `solve` write them, so the commands compose through files. `serve` reads
//! one JSON request per line (stdin when no file is given) and writes one
//! JSON response per line in input order, streamed as results resolve; see
//! [`ise::engine::serve`]. With `--listen HOST:PORT` it serves the same
//! protocol over TCP instead — one session scope per connection, load
//! shedding at the connection cap, idle timeouts, and graceful drain on a
//! `{"cmd": "shutdown"}` line; see [`ise::engine::net`]. `--metrics-out`
//! additionally writes engine (and, under `--listen`, network) counters
//! and latency histograms in the Prometheus text format. `trace`
//! runs one solve under an [`ise::obs`] trace and prints the span tree
//! with per-phase wall time.
//!
//! Flag parsing is strict: unknown `--flags` and value flags missing their
//! value are errors, not silently ignored.

use ise::engine::{
    serve_with, EngineConfig, MetricsSnapshot, NetMetricsSnapshot, NetOptions, NetServer,
    ServeOptions, ServeSummary,
};
use ise::model::{
    render_gantt, validate, validate_relaxed, validate_tise, Instance, RenderOptions, Schedule,
};
use ise::sched::decompose::solve_decomposed;
use ise::sched::exact::{optimal, ExactOptions};
use ise::sched::improve::{improve, ImproveOptions};
use ise::sched::lower_bound::lower_bound;
use ise::sched::{solve_with_speed, MmBackend, SolveReport, SolverOptions};
use ise::workloads as wl;
use std::io::{BufRead, BufWriter, Write};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  ise generate --family <uniform|long|short|unit|stockpile|heavy|cliff|periodic|adversarial|ill_conditioned>
               [--jobs N] [--machines M] [--calib-len T] [--horizon H]
               [--seed S] [--out FILE]
  ise solve    <instance.json> [--trim] [--improve] [--audit]
               [--mm auto|exact|greedy|unit|lp-round|portfolio]
               [--speed S] [--decompose] [--out FILE]
  ise validate <instance.json> <schedule.json> [--tise|--relaxed]
  ise bounds   <instance.json>
  ise gantt    <instance.json> <schedule.json> [--width W]
  ise exact    <instance.json> [--max-calibrations K]
  ise serve    [requests.jsonl] [--workers N] [--queue-capacity N]
               [--cache-capacity N] [--timeout-ms MS] [--no-fallback]
               [--max-pending N] [--max-line-len BYTES] [--out FILE]
               [--metrics FILE] [--metrics-out FILE]
               [--listen HOST:PORT] [--max-connections N]
               [--idle-timeout-ms MS]
  ise trace    <instance.json> [--trim]
               [--mm auto|exact|greedy|unit|lp-round|portfolio] [--speed S]
  ise bench    [--quick] [--reps N] [--out FILE] [--check FILE]
               [--threshold X] [--factorization lu|eta]
               [--skip-session] [--out-session FILE]
               [--check-session FILE]
  ise session  <script.jsonl> [--trim]
               [--mm auto|exact|greedy|unit|lp-round|portfolio] [--out FILE]
  ise fuzz     [--seed S] [--cases N] [--max-jobs N] [--max-machines M]
               [--oracles all|budgets,exact,dense,warm,engine,metamorphic,session]
               [--family NAME] [--time-budget SECS] [--corpus DIR]
               [--no-shrink] [--replay DIR]
  ise version";

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let command = it.next().ok_or("missing command")?;
    let rest: Vec<&String> = it.collect();
    match command.as_str() {
        "generate" => generate(&rest),
        "solve" => cmd_solve(&rest),
        "validate" => cmd_validate(&rest),
        "bounds" => cmd_bounds(&rest),
        "gantt" => cmd_gantt(&rest),
        "exact" => cmd_exact(&rest),
        "serve" => cmd_serve(&rest),
        "session" => cmd_session(&rest),
        "trace" => cmd_trace(&rest),
        "bench" => cmd_bench(&rest),
        "fuzz" => cmd_fuzz(&rest),
        "version" | "--version" | "-V" => {
            if !rest.is_empty() {
                return Err("version takes no arguments".into());
            }
            println!("ise {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Reject flags the subcommand does not declare, and `value` flags missing
/// their value — before any file I/O, so a typo never half-runs a command.
/// `value` flags consume the following argument; `switch` flags stand alone.
fn check_flags(args: &[&String], value: &[&str], switch: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            if value.contains(&a) {
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => i += 1,
                    _ => return Err(format!("{a} requires a value")),
                }
            } else if !switch.contains(&a) {
                return Err(format!("unknown flag `{a}`"));
            }
        }
        i += 1;
    }
    Ok(())
}

/// Pull `--flag value` out of an argument list. Errors when the flag is
/// present without a value (end of args, or followed by another flag).
fn flag_value<'a>(args: &[&'a String], name: &str) -> Result<Option<&'a String>, String> {
    match args.iter().position(|a| a.as_str() == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(format!("{name} requires a value")),
        },
    }
}

fn flag_present(args: &[&String], name: &str) -> bool {
    args.iter().any(|a| a.as_str() == name)
}

fn parse<T: std::str::FromStr>(args: &[&String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for {name}: {v}")),
    }
}

/// Positional args: everything that is neither a flag nor the value of one
/// of the declared `value_flags`.
fn positionals<'a>(args: &[&'a String], value_flags: &[&str]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i];
        if a.starts_with("--") {
            if value_flags.contains(&a.as_str()) {
                i += 1;
            }
        } else {
            out.push(a);
        }
        i += 1;
    }
    out
}

fn read_instance(path: &str) -> Result<Instance, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("parsing {path}: {e}"))
}

fn read_schedule(path: &str) -> Result<Schedule, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("parsing {path}: {e}"))
}

fn write_json<T: serde::Serialize>(value: &T, out: Option<&String>) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    match out {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn generate(args: &[&String]) -> Result<(), String> {
    const VALUE: &[&str] = &[
        "--family",
        "--jobs",
        "--machines",
        "--calib-len",
        "--horizon",
        "--seed",
        "--out",
    ];
    check_flags(args, VALUE, &[])?;
    let family: wl::WorkloadFamily = flag_value(args, "--family")?
        .ok_or("generate requires --family")?
        .parse()?;
    let params = wl::WorkloadParams {
        jobs: parse(args, "--jobs", 20usize)?,
        machines: parse(args, "--machines", 2usize)?,
        calib_len: parse(args, "--calib-len", 10i64)?,
        horizon: parse(args, "--horizon", 200i64)?,
    };
    let seed: u64 = parse(args, "--seed", 0u64)?;
    let instance = family.generate(&params, seed);
    write_json(&instance, flag_value(args, "--out")?)
}

fn cmd_solve(args: &[&String]) -> Result<(), String> {
    const VALUE: &[&str] = &["--mm", "--speed", "--out"];
    const SWITCH: &[&str] = &["--trim", "--improve", "--audit", "--decompose"];
    check_flags(args, VALUE, SWITCH)?;
    let pos = positionals(args, VALUE);
    let path = pos.first().ok_or("solve requires an instance file")?;
    let instance = read_instance(path)?;
    let mm: MmBackend = parse(args, "--mm", MmBackend::Auto)?;
    let opts = SolverOptions {
        mm,
        trim_empty_calibrations: flag_present(args, "--trim"),
        ..SolverOptions::default()
    };
    let speed: i64 = parse(args, "--speed", 1i64)?;
    let outcome = if flag_present(args, "--decompose") {
        if speed != 1 {
            return Err("--decompose and --speed cannot be combined".into());
        }
        solve_decomposed(&instance, &opts)
    } else {
        solve_with_speed(&instance, &opts, speed)
    }
    .map_err(|e| e.to_string())?;
    let mut outcome = outcome;
    if flag_present(args, "--improve") {
        if outcome.schedule.speed != 1 {
            return Err("--improve does not support speed-augmented schedules".into());
        }
        let improved = improve(&instance, &outcome.schedule, &ImproveOptions::default())
            .map_err(|e| e.to_string())?;
        eprintln!(
            "consolidation removed {} calibrations in {} rounds",
            improved.removed, improved.rounds
        );
        outcome.schedule = improved.schedule;
    }
    if flag_present(args, "--audit") {
        eprintln!("{}", ise::sched::audit(&instance, &outcome));
    }
    // Belt and braces before writing anything.
    validate(&instance, &outcome.schedule)
        .map_err(|e| format!("produced invalid schedule: {e}"))?;
    eprintln!("{}", SolveReport::new(&instance, &outcome));
    write_json(&outcome.schedule, flag_value(args, "--out")?)
}

fn cmd_validate(args: &[&String]) -> Result<(), String> {
    check_flags(args, &[], &["--tise", "--relaxed"])?;
    let pos = positionals(args, &[]);
    let [inst_path, sched_path] = pos.as_slice() else {
        return Err("validate requires <instance.json> <schedule.json>".into());
    };
    let instance = read_instance(inst_path)?;
    let schedule = read_schedule(sched_path)?;
    let result = if flag_present(args, "--tise") {
        validate_tise(&instance, &schedule)
    } else if flag_present(args, "--relaxed") {
        validate_relaxed(&instance, &schedule)
    } else {
        validate(&instance, &schedule)
    };
    match result {
        Ok(()) => {
            println!(
                "feasible: {} calibrations on {} machines",
                schedule.num_calibrations(),
                schedule.machines_used()
            );
            Ok(())
        }
        Err(e) => Err(format!("infeasible: {e}")),
    }
}

fn cmd_bounds(args: &[&String]) -> Result<(), String> {
    check_flags(args, &[], &[])?;
    let pos = positionals(args, &[]);
    let path = pos.first().ok_or("bounds requires an instance file")?;
    let instance = read_instance(path)?;
    let report = lower_bound(&instance, &Default::default());
    println!("work bound     : {}", report.work);
    println!("interval bound : {}", report.interval);
    println!(
        "LP bound       : {}",
        report.lp_long.map_or("-".to_string(), |v| v.to_string())
    );
    println!("best           : {}", report.best);
    Ok(())
}

fn cmd_gantt(args: &[&String]) -> Result<(), String> {
    const VALUE: &[&str] = &["--width"];
    check_flags(args, VALUE, &[])?;
    let pos = positionals(args, VALUE);
    let [inst_path, sched_path] = pos.as_slice() else {
        return Err("gantt requires <instance.json> <schedule.json>".into());
    };
    let instance = read_instance(inst_path)?;
    let schedule = read_schedule(sched_path)?;
    let width: usize = parse(args, "--width", 96usize)?;
    let opts = RenderOptions {
        max_width: width,
        label_jobs: true,
    };
    print!("{}", render_gantt(&instance, &schedule, &opts));
    Ok(())
}

fn cmd_exact(args: &[&String]) -> Result<(), String> {
    const VALUE: &[&str] = &["--max-calibrations", "--out"];
    check_flags(args, VALUE, &[])?;
    let pos = positionals(args, VALUE);
    let path = pos.first().ok_or("exact requires an instance file")?;
    let instance = read_instance(path)?;
    if instance.len() > 10 {
        return Err(format!(
            "exact search is for tiny instances; this one has {} jobs (max 10 via CLI)",
            instance.len()
        ));
    }
    let opts = ExactOptions {
        max_calibrations: parse(args, "--max-calibrations", 8usize)?,
        ..ExactOptions::default()
    };
    match optimal(&instance, &opts).map_err(|e| e.to_string())? {
        Some(out) => {
            println!(
                "optimum: {} calibrations ({} search nodes)",
                out.calibrations, out.nodes
            );
            write_json(&out.schedule, flag_value(args, "--out")?)
        }
        None => {
            println!(
                "infeasible with at most {} calibrations on {} machines",
                opts.max_calibrations,
                instance.machines()
            );
            Ok(())
        }
    }
}

fn cmd_serve(args: &[&String]) -> Result<(), String> {
    const VALUE: &[&str] = &[
        "--workers",
        "--queue-capacity",
        "--cache-capacity",
        "--timeout-ms",
        "--max-pending",
        "--max-line-len",
        "--out",
        "--metrics",
        "--metrics-out",
        "--listen",
        "--max-connections",
        "--idle-timeout-ms",
    ];
    const SWITCH: &[&str] = &["--no-fallback"];
    check_flags(args, VALUE, SWITCH)?;
    let pos = positionals(args, VALUE);
    if pos.len() > 1 {
        return Err("serve takes at most one input file".into());
    }

    let defaults = EngineConfig::default();
    let config = EngineConfig {
        workers: parse(args, "--workers", defaults.workers)?,
        queue_capacity: parse(args, "--queue-capacity", defaults.queue_capacity)?,
        cache_capacity: parse(args, "--cache-capacity", defaults.cache_capacity)?,
        // `--timeout-ms 0` means "no default deadline", like omitting it.
        default_timeout: parse(args, "--timeout-ms", 0u64)
            .map(|ms| (ms > 0).then(|| Duration::from_millis(ms)))?,
        fallback_on_timeout: !flag_present(args, "--no-fallback"),
        ..defaults
    };
    if config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }

    let serve_defaults = ServeOptions::default();
    let serve_opts = ServeOptions {
        max_pending: parse(args, "--max-pending", serve_defaults.max_pending)?,
        max_line_len: parse(args, "--max-line-len", serve_defaults.max_line_len)?,
        metrics_out: flag_value(args, "--metrics-out")?.map(std::path::PathBuf::from),
        ..serve_defaults
    };
    if serve_opts.max_pending == 0 {
        return Err("--max-pending must be at least 1".into());
    }
    if serve_opts.max_line_len == 0 {
        return Err("--max-line-len must be at least 1".into());
    }

    if let Some(addr) = flag_value(args, "--listen")? {
        return serve_listen(args, &pos, addr, config, serve_opts);
    }
    for flag in ["--max-connections", "--idle-timeout-ms"] {
        if flag_present(args, flag) {
            return Err(format!("{flag} requires --listen"));
        }
    }

    let out = flag_value(args, "--out")?;
    let summary = match pos.first() {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
            run_serve(std::io::BufReader::new(file), out, config, &serve_opts)?
        }
        None => run_serve(std::io::stdin().lock(), out, config, &serve_opts)?,
    };

    // Keep stdout pure JSONL: the metrics summary goes to stderr or a file.
    let metrics_json = serde_json::to_string_pretty(&summary.metrics).map_err(|e| e.to_string())?;
    match flag_value(args, "--metrics")? {
        Some(path) => {
            std::fs::write(path, &metrics_json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => eprintln!("{metrics_json}"),
    }
    eprintln!("served {} responses", summary.responses);
    Ok(())
}

/// The `--metrics` summary shape for `--listen` runs: engine counters
/// plus the network series and the per-phase span totals merged across
/// connections.
#[derive(serde::Serialize)]
struct ListenMetrics {
    engine: MetricsSnapshot,
    net: NetMetricsSnapshot,
    phases: ise::obs::PhaseTimings,
}

/// `ise serve --listen`: put the engine on a TCP socket (see
/// [`ise::engine::net`]). Blocks until a client sends
/// `{"cmd": "shutdown"}`, then drains every connection and reports.
fn serve_listen(
    args: &[&String],
    pos: &[&String],
    addr: &str,
    config: EngineConfig,
    serve_opts: ServeOptions,
) -> Result<(), String> {
    if !pos.is_empty() {
        return Err("--listen and an input file cannot be combined".into());
    }
    if flag_present(args, "--out") {
        return Err("--listen writes responses to clients; --out is not supported".into());
    }
    let max_connections: usize = parse(args, "--max-connections", 256usize)?;
    if max_connections == 0 {
        return Err("--max-connections must be at least 1".into());
    }
    // `--idle-timeout-ms 0` disables the idle timeout.
    let idle_ms: u64 = parse(args, "--idle-timeout-ms", 60_000u64)?;
    let opts = NetOptions {
        max_connections,
        idle_timeout: (idle_ms > 0).then(|| Duration::from_millis(idle_ms)),
        serve: serve_opts,
    };
    let server =
        NetServer::bind(addr, config, opts).map_err(|e| format!("serving on {addr}: {e}"))?;
    eprintln!("listening on {}", server.local_addr());
    let summary = server.join();
    let metrics = ListenMetrics {
        engine: summary.metrics,
        net: summary.net,
        phases: summary.phases,
    };
    let metrics_json = serde_json::to_string_pretty(&metrics).map_err(|e| e.to_string())?;
    match flag_value(args, "--metrics")? {
        Some(path) => {
            std::fs::write(path, &metrics_json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => eprintln!("{metrics_json}"),
    }
    eprintln!(
        "served {} responses over {} connections",
        summary.responses, summary.connections
    );
    Ok(())
}

/// `ise bench`: run the pinned LP perf suite (see `ise_bench::perf`).
/// Writes the report to `--out` (or stdout), and with `--check FILE`
/// compares against that baseline, failing on any measurement worse than
/// `--threshold` (default 2.0) times its recorded value.
/// `--factorization lu|eta` instead profiles the suite on a single
/// basis kernel (no baseline, no JSON report).
fn cmd_bench(args: &[&String]) -> Result<(), String> {
    const VALUE: &[&str] = &[
        "--reps",
        "--out",
        "--check",
        "--threshold",
        "--factorization",
        "--out-session",
        "--check-session",
    ];
    const SWITCH: &[&str] = &["--quick", "--skip-session"];
    check_flags(args, VALUE, SWITCH)?;
    if !positionals(args, VALUE).is_empty() {
        return Err("bench takes no positional arguments".into());
    }
    let quick = flag_present(args, "--quick");
    let reps: usize = parse(args, "--reps", if quick { 3usize } else { 7 })?;
    let threshold: f64 = parse(args, "--threshold", ise_bench::perf::DEFAULT_THRESHOLD)?;
    if threshold < 1.0 {
        return Err("--threshold must be at least 1.0".into());
    }

    if let Some(kind) = flag_value(args, "--factorization")? {
        let kind = match kind.as_str() {
            "lu" => ise::simplex::Factorization::Lu,
            "eta" => ise::simplex::Factorization::Eta,
            other => {
                return Err(format!(
                    "unknown factorization {other:?} (expected lu or eta)"
                ))
            }
        };
        for spec in ise_bench::perf::suite(quick) {
            let m = ise_bench::perf::measure_kernel(&spec, kind, reps)?;
            let lu_extra = if kind == ise::simplex::Factorization::Lu {
                format!(
                    "; fill {} nnz, {} FT updates, hyper-sparse {:.0}%",
                    m.fill_nnz,
                    m.ft_updates,
                    m.hypersparse_solve_ratio() * 100.0
                )
            } else {
                String::new()
            };
            eprintln!(
                "{}: {kind:?} {} ns ({} iters, {} refactorizations, {} cols scanned){lu_extra}",
                spec.name,
                m.path.ns_per_solve,
                m.path.iterations,
                m.path.refactorizations,
                m.path.cols_scanned
            );
        }
        return Ok(());
    }

    let report = ise_bench::perf::run_suite(quick, reps)?;
    for w in &report.workloads {
        eprintln!(
            "{}: {} rows x {} cols ({} nnz); lu {} ns ({} iters, {} cols scanned, \
             fill {} nnz, {} FT updates, hyper-sparse {:.0}%), eta {} ns ({} iters), \
             dantzig {} ns ({} iters, {} cols scanned), warm {} ns ({} iters)",
            w.spec.name,
            w.lp_rows,
            w.lp_cols,
            w.lp_nnz,
            w.lu.path.ns_per_solve,
            w.lu.path.iterations,
            w.lu.path.cols_scanned,
            w.lu.fill_nnz,
            w.lu.ft_updates,
            w.lu.hypersparse_solve_ratio() * 100.0,
            w.eta.ns_per_solve,
            w.eta.iterations,
            w.dantzig.ns_per_solve,
            w.dantzig.iterations,
            w.dantzig.cols_scanned,
            w.warm.ns_per_solve,
            w.warm.iterations
        );
    }

    if let Some(path) = flag_value(args, "--check")? {
        let data = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let baseline: ise_bench::perf::BenchReport =
            serde_json::from_str(&data).map_err(|e| format!("parsing {path}: {e}"))?;
        let problems = ise_bench::perf::compare(&report, &baseline, threshold);
        if !problems.is_empty() {
            return Err(format!(
                "perf regression against {path}:\n  {}",
                problems.join("\n  ")
            ));
        }
        eprintln!("no regressions against {path} (threshold {threshold}x)");
    }

    if !flag_present(args, "--skip-session") {
        let session = ise_bench::session::run_session_suite(reps)?;
        eprintln!(
            "{}: {} ns/commit incremental vs {} ns/commit scratch; {} vs {} LP iterations \
             ({:.2}x reuse ratio); tiers {} basis / {} warm / {} cold",
            session.spec.name,
            session.ns_per_commit_incremental,
            session.ns_per_commit_scratch,
            session.total_incremental_iters,
            session.total_scratch_iters,
            session.iteration_ratio,
            session.tier_counts[0],
            session.tier_counts[1],
            session.tier_counts[2]
        );
        if let Some(path) = flag_value(args, "--check-session")? {
            let data = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let baseline: ise_bench::session::SessionBenchReport =
                serde_json::from_str(&data).map_err(|e| format!("parsing {path}: {e}"))?;
            let problems = ise_bench::session::compare_session(&session, &baseline, threshold);
            if !problems.is_empty() {
                return Err(format!(
                    "session perf regression against {path}:\n  {}",
                    problems.join("\n  ")
                ));
            }
            eprintln!("no session regressions against {path} (threshold {threshold}x)");
        }
        if let Some(path) = flag_value(args, "--out-session")? {
            write_json(&session, Some(path))?;
        }
    }
    write_json(&report, flag_value(args, "--out")?)
}

/// `ise fuzz`: differential conformance fuzzing (see `ise::conform`).
/// Generates seeded adversarial instances and cross-checks the oracle
/// stack; the first discrepancy is shrunk to a minimal repro, written to
/// `--corpus` when given, and the process exits 1. With `--replay DIR`
/// the committed corpus is re-run as a regression gate instead.
fn cmd_fuzz(args: &[&String]) -> Result<(), String> {
    const VALUE: &[&str] = &[
        "--seed",
        "--cases",
        "--max-jobs",
        "--max-machines",
        "--max-calib-len",
        "--max-horizon",
        "--oracles",
        "--family",
        "--time-budget",
        "--corpus",
        "--replay",
    ];
    const SWITCH: &[&str] = &["--no-shrink"];
    check_flags(args, VALUE, SWITCH)?;
    if !positionals(args, VALUE).is_empty() {
        return Err("fuzz takes no positional arguments".into());
    }
    let oracles = match flag_value(args, "--oracles")? {
        Some(list) => ise::conform::Oracle::parse_list(list)?,
        None => ise::conform::Oracle::ALL.to_vec(),
    };

    if let Some(dir) = flag_value(args, "--replay")? {
        let dir = std::path::Path::new(dir);
        if !dir.is_dir() {
            return Err(format!("--replay: {} is not a directory", dir.display()));
        }
        let opts = ise::conform::OracleOptions::default();
        let report = ise::conform::replay(dir, &oracles, &opts)?;
        for case in &report.cases {
            match &case.failure {
                None => eprintln!("ok   {}", case.path.display()),
                Some(failure) => {
                    eprintln!("FAIL {}", case.path.display());
                    eprintln!("  originally: {}", case.original);
                    eprintln!("  now:        {failure}");
                    // Print the repro JSON so CI logs carry the witness.
                    if let Ok(text) = std::fs::read_to_string(&case.path) {
                        eprintln!("{text}");
                    }
                }
            }
        }
        if !report.all_clean() {
            return Err(format!(
                "{} of {} corpus repros still trip an oracle",
                report.failures(),
                report.cases.len()
            ));
        }
        println!("replayed {} repros clean", report.cases.len());
        return Ok(());
    }

    let defaults = ise::conform::FuzzConfig::default();
    let config = ise::conform::FuzzConfig {
        seed: parse(args, "--seed", defaults.seed)?,
        cases: parse(args, "--cases", defaults.cases)?,
        max_jobs: parse(args, "--max-jobs", defaults.max_jobs)?,
        max_machines: parse(args, "--max-machines", defaults.max_machines)?,
        max_calib_len: parse(args, "--max-calib-len", defaults.max_calib_len)?,
        max_horizon: parse(args, "--max-horizon", defaults.max_horizon)?,
        oracles,
        family: flag_value(args, "--family")?
            .map(|name| name.parse::<wl::WorkloadFamily>())
            .transpose()?,
        time_budget: parse(args, "--time-budget", 0u64)
            .map(|s| (s > 0).then(|| Duration::from_secs(s)))?,
        shrink: !flag_present(args, "--no-shrink"),
        corpus_dir: flag_value(args, "--corpus")?.map(std::path::PathBuf::from),
        ..defaults
    };

    let report = ise::conform::fuzz(&config, |case| {
        if case > 0 && (case + 1) % 100 == 0 {
            eprintln!("... {} cases clean", case + 1);
        }
    });
    match &report.failure {
        None => {
            println!(
                "fuzz: {} cases clean in {:.1}s (seed {}{})",
                report.cases_run,
                report.elapsed.as_secs_f64(),
                config.seed,
                if report.timed_out {
                    ", stopped on time budget"
                } else {
                    ""
                }
            );
            Ok(())
        }
        Some(f) => {
            eprintln!(
                "discrepancy at case {} (seed {}, generator {}): {}",
                f.repro.case, f.repro.seed, f.repro.provenance, f.repro.detail
            );
            eprintln!(
                "shrunk {} -> {} jobs in {} oracle evaluations",
                f.original_jobs, f.repro.jobs, f.shrink_evals
            );
            if let Some(path) = &f.written_to {
                eprintln!("repro written to {}", path.display());
            }
            let json = serde_json::to_string_pretty(&f.repro).map_err(|e| e.to_string())?;
            println!("{json}");
            Err(format!(
                "oracle `{}` found a discrepancy after {} cases",
                f.repro.oracle, report.cases_run
            ))
        }
    }
}

fn run_serve<R: BufRead>(
    input: R,
    out: Option<&String>,
    config: EngineConfig,
    opts: &ServeOptions,
) -> Result<ServeSummary, String> {
    match out {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("writing {path}: {e}"))?;
            let mut writer = BufWriter::new(file);
            let summary =
                serve_with(input, &mut writer, config, opts).map_err(|e| e.to_string())?;
            writer.flush().map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
            Ok(summary)
        }
        None => {
            let mut stdout = BufWriter::new(std::io::stdout());
            serve_with(input, &mut stdout, config, opts).map_err(|e| e.to_string())
        }
    }
}

/// `ise session`: replay a JSONL delta script through an incremental
/// [`ise::session::Session`], printing one telemetry line per commit
/// (reuse tier, invalidated intervals, LP iterations and iterations saved)
/// and a reuse summary at the end. `--out FILE` additionally writes the
/// per-commit telemetry as a JSON array. See [`ise::session::ScriptStep`]
/// for the line format.
fn cmd_session(args: &[&String]) -> Result<(), String> {
    const VALUE: &[&str] = &["--mm", "--out"];
    const SWITCH: &[&str] = &["--trim"];
    check_flags(args, VALUE, SWITCH)?;
    let pos = positionals(args, VALUE);
    let path = pos.first().ok_or("session requires a script file")?;
    let mm: MmBackend = parse(args, "--mm", MmBackend::Auto)?;
    let opts = SolverOptions {
        mm,
        trim_empty_calibrations: flag_present(args, "--trim"),
        ..SolverOptions::default()
    };

    let data = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut session: Option<ise::session::Session> = None;
    let mut telemetry: Vec<ise::session::SessionTelemetry> = Vec::new();
    let mut tiers = [0u64; 3];
    let mut total_iterations = 0usize;
    let mut total_saved = 0usize;
    for (lineno, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: &dyn std::fmt::Display| format!("{path}:{}: {e}", lineno + 1);
        let step: ise::session::ScriptStep = serde_json::from_str(line).map_err(|e| at(&e))?;
        match step.decode().map_err(|e| at(&e))? {
            ise::session::ScriptAction::Open(instance) => {
                session = Some(ise::session::Session::with_options(*instance, opts.clone()));
            }
            ise::session::ScriptAction::Delta(delta) => {
                let s = session.as_mut().ok_or_else(|| at(&"delta before `open`"))?;
                s.apply(&delta).map_err(|e| at(&e))?;
            }
            ise::session::ScriptAction::Commit => {
                let s = session.as_mut().ok_or_else(|| at(&"solve before `open`"))?;
                let commit = s.commit().map_err(|e| at(&e))?;
                let t = &commit.telemetry;
                let verdict = match commit.calibrations() {
                    Some(c) => format!("calibrations={c}"),
                    None => "infeasible".to_string(),
                };
                println!(
                    "commit {}: tier={} deltas={} jobs={} machines={} {verdict} \
                     lp_iters={} saved={} memo_hits={} invalidated={} solve_us={}",
                    t.commit,
                    t.tier,
                    t.deltas,
                    t.jobs,
                    t.machines,
                    t.lp_iterations,
                    t.lp_iterations_saved,
                    t.memo_hits,
                    t.invalidated_intervals,
                    t.solve_us
                );
                tiers[match t.tier {
                    ise::session::ReuseTier::Basis => 0,
                    ise::session::ReuseTier::Warm => 1,
                    ise::session::ReuseTier::Cold => 2,
                }] += 1;
                total_iterations += t.lp_iterations;
                total_saved += t.lp_iterations_saved;
                telemetry.push(commit.telemetry);
            }
        }
    }
    if telemetry.is_empty() {
        return Err(format!("{path}: script performed no commits"));
    }
    eprintln!(
        "{} commits: {} basis / {} warm / {} cold; {} LP iterations (~{} saved by reuse)",
        telemetry.len(),
        tiers[0],
        tiers[1],
        tiers[2],
        total_iterations,
        total_saved
    );
    if let Some(out) = flag_value(args, "--out")? {
        write_json(&telemetry, Some(out))?;
    }
    Ok(())
}

/// `ise trace`: run one solve under an [`ise::obs::Trace`] and print the
/// span tree — per-phase wall time and share of total — followed by the
/// usual solve report (with its `phases` summary) on stderr.
fn cmd_trace(args: &[&String]) -> Result<(), String> {
    const VALUE: &[&str] = &["--mm", "--speed"];
    const SWITCH: &[&str] = &["--trim"];
    check_flags(args, VALUE, SWITCH)?;
    let pos = positionals(args, VALUE);
    let path = pos.first().ok_or("trace requires an instance file")?;
    let instance = read_instance(path)?;
    let mm: MmBackend = parse(args, "--mm", MmBackend::Auto)?;
    let opts = SolverOptions {
        mm,
        trim_empty_calibrations: flag_present(args, "--trim"),
        ..SolverOptions::default()
    };
    let speed: i64 = parse(args, "--speed", 1i64)?;

    let trace = ise::obs::Trace::new(8192);
    let outcome = {
        let _guard = trace.install();
        solve_with_speed(&instance, &opts, speed)
    }
    .map_err(|e| e.to_string())?;

    let records = trace.drain();
    let tree = ise::obs::TraceTree::build(&records);
    print!("{}", tree.render());
    if trace.dropped() > 0 {
        eprintln!(
            "note: {} spans dropped (trace buffer full)",
            trace.dropped()
        );
    }
    let report = SolveReport::new(&instance, &outcome)
        .with_phases(ise::obs::PhaseTimings::from_records(&records));
    eprintln!("{report}");
    Ok(())
}
