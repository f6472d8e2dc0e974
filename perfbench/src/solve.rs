//! `solve_long` and `solve_short`: one closed-loop stream of cold
//! `ise_sched::solve` calls, each on a new generated instance.
//!
//! Every operation gets a distinct instance: a run then samples its
//! family's cost distribution over hundreds or thousands of instances, so
//! medians and tails do not hinge on which few instances one seed drew.

use crate::inputs::{long_instance, short_instance, LONG_SHAPES};
use crate::layers::{lp_metrics, traced, SpanStats};
use crate::report::{latency_metrics, mean, median, MemoryPass, Metrics, Op, Tally};
use crate::{timed_setup, Args};
use ise_model::{validate, Instance};
use ise_sched::lp::{build, solve_lp_warm};
use ise_sched::{solve, LpTelemetry, SchedError, SolveOutcome, SolverOptions};
use std::time::{Duration, Instant};

/// Which instance family the stream solves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Long-window-dominated `perf::suite` shapes: the LP path.
    Long,
    /// Short-window-only instances: the MM path.
    Short,
}

impl Family {
    /// The stream's `index`-th instance.
    fn instance(self, seed: u64, index: usize) -> Instance {
        match self {
            Family::Long => long_instance(seed, index),
            Family::Short => short_instance(seed, index),
        }
    }
}

/// Instances solved during set-up, before timing: set-up includes warming
/// the solver on this many inputs from outside the timed stream.
const WARM_UP: usize = 32;
/// Warm-up inputs are this far along the seed-0 stream, the same for every
/// `--seed`: set-up then does the same work on every run, and `setup_s`
/// moves only when set-up itself gets slower.
const WARM_UP_OFFSET: usize = 1 << 30;
/// Operations in the memory pass after the timed run: the warm-up inputs
/// again, so that the growth it measures is the same for every `--seed`
/// and only what the timed run left behind depends on the seed.
const MEMORY_OPS: usize = WARM_UP;

/// What a checked solve leaves behind for the metrics.
struct Solved {
    /// `(calibrations, machines)` of a valid schedule.
    schedule: Option<(usize, usize)>,
    lp: Option<LpTelemetry>,
    intervals: usize,
}

/// Validate one solve's output against its instance, count it, and keep
/// only what the metrics need.
fn check(instance: &Instance, out: Result<SolveOutcome, SchedError>, tally: &mut Tally) -> Solved {
    match out {
        Ok(o) => {
            let valid = validate(instance, &o.schedule).is_ok();
            if !valid {
                eprintln!("invalid schedule");
            }
            tally.record(true, valid);
            Solved {
                schedule: valid
                    .then(|| (o.schedule.num_calibrations(), o.schedule.machines_used())),
                lp: LpTelemetry::from_outcome(&o),
                intervals: o.short.as_ref().map_or(0, |s| s.intervals.len()),
            }
        }
        Err(e) => {
            eprintln!("solve failed: {e}");
            tally.record(false, true);
            Solved {
                schedule: None,
                lp: None,
                intervals: 0,
            }
        }
    }
}

/// Set-up: solve the warm-up instances — each output validated, and on the
/// LP path the solver's LP objective checked against a direct `lp::build`
/// + `lp::solve_lp_warm` of the same LP.
fn set_up(args: &Args, family: Family) -> Result<(), String> {
    let count = if args.quick { 2 } else { WARM_UP };
    for i in 0..count {
        let instance = family.instance(0, WARM_UP_OFFSET + i);
        let out = solve(&instance, &SolverOptions::default())
            .map_err(|e| format!("warm-up instance {i}: {e}"))?;
        validate(&instance, &out.schedule)
            .map_err(|e| format!("warm-up instance {i}: invalid schedule: {e:?}"))?;
        if let Some(long) = &out.long {
            let jobs = instance.partition_long_short().0;
            let tise = build(&jobs, instance.calib_len(), 3 * instance.machines());
            let direct = solve_lp_warm(&tise, &Default::default(), None)
                .map_err(|e| format!("warm-up instance {i}: direct LP: {e}"))?;
            let (a, b) = (direct.objective, long.fractional.objective);
            if (a - b).abs() > 1e-6 * (1.0 + a.abs()) {
                return Err(format!(
                    "warm-up instance {i}: LP objective {b} differs from direct solve {a}"
                ));
            }
        }
    }
    Ok(())
}

/// `(rows, cols, nnz)` of the TISE LP of `instance`'s long-window jobs.
fn lp_shape(instance: &Instance) -> [f64; 3] {
    let jobs = instance.partition_long_short().0;
    if jobs.is_empty() {
        return [0.0; 3];
    }
    let tise = build(&jobs, instance.calib_len(), 3 * instance.machines());
    [
        tise.lp.num_rows() as f64,
        tise.lp.num_vars() as f64,
        tise.lp.nnz() as f64,
    ]
}

pub fn run(args: &Args, family: Family, window_ops: usize) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let (setup_s, ready) = timed_setup(args, || set_up(args, family));
    if let Err(e) = ready {
        eprintln!("set-up failed: {e}");
        tally.record(true, false);
        return (tally, m);
    }
    m.set("setup_s", setup_s);
    eprintln!(
        "stream of {} instances, set-up {setup_s:.3} s",
        match family {
            Family::Long => LONG_SHAPES.join("/"),
            Family::Short => "short_only".to_string(),
        }
    );

    let opts = SolverOptions::default();
    let trace = ise_obs::Trace::new(1 << 16);
    let mut spans = SpanStats::default();
    let (mut plain, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut outputs, mut traced_outputs) = (Vec::new(), Vec::new());
    let mut shapes = Vec::new();
    // Generating inputs and checking outputs are not part of the measured
    // run.
    let mut untimed = Duration::ZERO;
    let started = Instant::now();
    let mut i = 0usize;
    while (started.elapsed() - untimed).as_secs_f64() < args.seconds {
        let g0 = Instant::now();
        let instance = family.instance(args.seed, i);
        untimed += g0.elapsed();
        // Traced runs alternate an untraced and a traced solve of the same
        // instance, flipping the order each time, so tracing overhead is
        // priced on the same inputs.
        let traced_first = args.traced && i % 2 == 1;
        let mut plain_op = |tally: &mut Tally, untimed: &mut Duration| {
            let t0 = Instant::now();
            let out = solve(&instance, &opts);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let c0 = Instant::now();
            let solved = check(&instance, out, tally);
            plain.push(Op {
                at_s: (t0 - started - *untimed).as_secs_f64(),
                ms: if solved.schedule.is_some() {
                    ms
                } else {
                    f64::INFINITY
                },
            });
            outputs.push(solved);
            *untimed += c0.elapsed();
        };
        if !traced_first {
            plain_op(&mut tally, &mut untimed);
        }
        if args.traced {
            let t0 = Instant::now();
            let (out, records) = traced(&trace, "bench.solve", || solve(&instance, &opts));
            traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let c0 = Instant::now();
            spans.add_op(&records);
            traced_outputs.push(check(&instance, out, &mut tally));
            shapes.push(lp_shape(&instance));
            untimed += c0.elapsed();
        }
        if traced_first {
            plain_op(&mut tally, &mut untimed);
        }
        i += 1;
    }
    let measured = (started.elapsed() - untimed).as_secs_f64();
    let good: Vec<(usize, usize)> = outputs.iter().filter_map(|s| s.schedule).collect();
    latency_metrics(&mut m, &plain, window_ops, measured);
    m.set(
        "calibrations",
        mean(&good.iter().map(|s| s.0 as f64).collect::<Vec<_>>()),
    );
    m.set(
        "machines",
        mean(&good.iter().map(|s| s.1 as f64).collect::<Vec<_>>()),
    );

    if args.traced {
        spans.fill(&mut m, trace.dropped());
        m.set(
            "obs.overhead_frac",
            median(&traced_ms) / median(&plain.iter().map(|o| o.ms).collect::<Vec<_>>()) - 1.0,
        );
        let lp: Vec<LpTelemetry> = traced_outputs.iter().filter_map(|s| s.lp).collect();
        lp_metrics(&mut m, &lp);
        m.set(
            "short.intervals",
            mean(
                &traced_outputs
                    .iter()
                    .map(|s| s.intervals as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        for (k, name) in ["lp.rows", "lp.cols", "lp.nnz"].into_iter().enumerate() {
            m.set(name, mean(&shapes.iter().map(|s| s[k]).collect::<Vec<_>>()));
        }
        spans.write(&args.spans_path());
    }

    // The run's own records grow with the number of operations; they are
    // not the program's memory.
    drop((plain, outputs, traced_outputs, shapes, spans, trace));
    let mut memory = MemoryPass::new();
    for i in 0..if args.quick { 2 } else { MEMORY_OPS } {
        let instance = family.instance(0, WARM_UP_OFFSET + i);
        let out = memory.measure(|| solve(&instance, &opts));
        check(&instance, out, &mut tally);
    }
    m.set("ok_frac", tally.ok_frac());
    m.set("rss_peak_mb", memory.mb());
    (tally, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_line;

    #[test]
    fn a_corrupted_schedule_is_counted_as_a_failure_not_passed() {
        let instance = long_instance(0, 0);
        let mut out = solve(&instance, &SolverOptions::default()).unwrap();
        let mut tally = Tally::default();
        assert!(check(&instance, Ok(out.clone()), &mut tally)
            .schedule
            .is_some());
        // Move one job onto a machine that has no calibration.
        out.schedule.placements[0].machine += 1000;
        assert!(check(&instance, Ok(out), &mut tally).schedule.is_none());
        assert_eq!((tally.attempted, tally.failed, tally.invalid), (2, 1, 1));
        assert_eq!(tally.ok_frac(), 0.5);
        let line = result_line(&tally, &Metrics::default(), false);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"),
            "{line}"
        );
    }
}
