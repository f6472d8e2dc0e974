//! End-to-end and per-layer benchmark of the calibration scheduler.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--spans-out PATH] [--rate R] [--mix D,S,H]
//! ```
//!
//! Workloads (see NOTES.md for why each exists and which layer it loads):
//! `solve_long`, `solve_short`, `session_edits`, `serve_mixed`. Inputs come
//! from the repository's pinned generators under `--seed`; every output is
//! checked. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed`, and the run's metrics: the end-to-end metrics
//! with `--trace 0`, the per-layer split with `--trace 1`. A run whose
//! outputs are wrong exits with status 1; bad arguments exit with 2.

mod inputs;
mod layers;
mod report;
mod serve;
mod session;
mod solve;

use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: report::Counting = report::Counting;

/// The workloads, with the operations in one latency window, which also
/// fixes each one's tail percentile (see [`report::latency_metrics`]).
const WORKLOADS: [(&str, usize); 4] = [
    // About 5 s: 35 solves of each of the four shapes.
    ("solve_long", 140),
    // About 2 s.
    ("solve_short", 250),
    // Five whole 50-commit replays, about 1.7 s.
    ("session_edits", 250),
    // 5 s of requests at the benchmark's rate.
    ("serve_mixed", 300),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Reduced-size inputs and a single set-up, for the self-tests.
    pub quick: bool,
    pub spans_out: Option<PathBuf>,
    /// `serve_mixed` load; `--rate` and `--mix` change it for capacity and
    /// mix-sensitivity runs (NOTES.md), the benchmark itself never does.
    pub load: serve::Load,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut traced = None;
        let mut quick = false;
        let mut spans_out = None;
        let mut load = serve::LOAD;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("a duration in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    traced = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                "--spans-out" => spans_out = Some(PathBuf::from(value)),
                "--rate" => {
                    load.rate = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if load.rate.is_nan() || load.rate <= 0.0 {
                        return Err(bad("a positive rate"));
                    }
                }
                "--mix" => {
                    let shares: Vec<f64> = value
                        .split(',')
                        .map(|s| s.parse::<f64>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad("DUPLICATE,SWEEP,SHORT shares"))?;
                    match shares[..] {
                        [d, s, h] if [d, s, h].iter().all(|x| *x >= 0.0) && d + s + h <= 1.0 => {
                            (load.duplicate, load.sweep, load.short) = (d, s, h)
                        }
                        _ => return Err(bad("three shares >= 0 summing to at most 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
            return Err(format!(
                "unknown workload {workload:?} (expected one of {})",
                names.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: traced.ok_or("--trace is required")?,
            quick,
            spans_out,
            load,
        })
    }

    /// Where a traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        self.spans_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                "perfbench/out/{}-seed{}.spans.jsonl",
                self.workload, self.seed
            ))
        })
    }

    /// Operations in one latency window of this workload; for
    /// `serve_mixed`, 5 s of requests at the offered rate.
    fn window_ops(&self) -> usize {
        match self.workload.as_str() {
            "serve_mixed" => ((self.load.rate * 5.0).round() as usize).max(1),
            w => WORKLOADS
                .iter()
                .find(|(name, _)| *name == w)
                .map_or(1, |(_, n)| *n),
        }
    }
}

/// Run the set-up `reps` times and return the median wall time in seconds
/// with the last set-up's result: set-up is timed as its own metric, so
/// its median over repetitions keeps one slow repetition from showing.
pub fn timed_setup<T>(args: &Args, mut f: impl FnMut() -> T) -> (f64, T) {
    let reps = if args.quick { 1 } else { 3 };
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous repetition's state (a server, say) first, so
        // its teardown is not timed as the next repetition's set-up.
        drop(last.take());
        let started = Instant::now();
        last = Some(f());
        times.push(started.elapsed().as_secs_f64());
    }
    (
        report::median(&times),
        last.expect("at least one repetition"),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--spans-out PATH] [--rate R] [--mix D,S,H]"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "workload {} seed {} for {} s, trace {}, {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let window_ops = args.window_ops();
    let (tally, metrics) = match args.workload.as_str() {
        "solve_long" => solve::run(&args, solve::Family::Long, window_ops),
        "solve_short" => solve::run(&args, solve::Family::Short, window_ops),
        "session_edits" => session::run(&args, window_ops),
        "serve_mixed" => serve::run(&args, window_ops),
        _ => unreachable!("validated in Args::parse"),
    };
    println!("{}", report::result_line(&tally, &metrics, args.traced));
    if tally.invalid > 0 || tally.attempted == 0 {
        eprintln!(
            "perfbench: {} of {} outputs were wrong",
            tally.invalid, tally.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(extra: &[&str]) -> Result<Args, String> {
        let mut v: Vec<String> = ["--workload", "solve_long", "--seed", "1", "--seconds", "10"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        v.extend(extra.iter().map(|s| s.to_string()));
        Args::parse(&v)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&["--trace", "1"]).unwrap();
        assert!(a.traced && !a.quick && a.seed == 1 && a.seconds == 10.0);
        assert!(args(&[]).is_err(), "--trace is required");
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--trace", "0", "--bogus", "1"]).is_err());
        assert!(Args::parse(&["--workload".into(), "nope".into()]).is_err());
    }

    #[test]
    fn load_flags_change_only_the_serve_load() {
        let a = args(&["--trace", "0", "--rate", "120", "--mix", "0.1,0.3,0"]).unwrap();
        let expected = serve::Load {
            rate: 120.0,
            duplicate: 0.1,
            sweep: 0.3,
            short: 0.0,
        };
        assert_eq!(a.load, expected);
        assert!(args(&["--trace", "0", "--mix", "0.5,0.5,0.5"]).is_err());
        assert!(args(&["--trace", "0", "--rate", "0"]).is_err());
        let mut serve = args(&["--trace", "0", "--rate", "120"]).unwrap();
        serve.workload = "serve_mixed".into();
        assert_eq!(serve.window_ops(), 600);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        // 140 solves a window: p90 leaves 14, p95 only 7.
        assert_eq!(args(&["--trace", "0"]).unwrap().window_ops(), 140);
        assert_eq!(report::tail_pct(140), 90.0);
        assert_eq!(report::tail_pct(250), 95.0);
        assert_eq!(report::tail_pct(1250), 99.0);
        // Too few for p90: the median stands in.
        assert_eq!(report::tail_pct(56), 50.0);
    }
}
