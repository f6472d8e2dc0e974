//! `session_edits`: replay the pinned `session_mixed` delta log through
//! `Session::apply` / `Session::commit`, over a stream of base instances.
//!
//! A traced run keeps two sessions in lockstep on the same log — one
//! untraced, one traced — and also solves every materialized instance from
//! scratch, so commit time, its split, and the from-scratch cost are all
//! measured on the same inputs.

use crate::inputs::session_base;
use crate::layers::{lp_metrics, traced, SpanStats};
use crate::report::{latency_metrics, mean, median, MemoryPass, Metrics, Op, Tally};
use crate::{timed_setup, Args};
use ise_bench::session::SessionSpec;
use ise_model::{validate, Instance};
use ise_obs::SpanRecord;
use ise_sched::{solve, LpTelemetry, SolverOptions};
use ise_session::{Commit, Delta, ReuseTier, Session, SessionError, Verdict};
use std::time::{Duration, Instant};

/// Distinct base instances (each with its 50-commit log) per run; more
/// than a run replays, so no base instance is replayed twice.
const BASES: usize = 256;

/// Index of the warm-up base along the seed-0 stream, far from any timed
/// base and the same for every `--seed`.
const WARM_UP_BASE: usize = 1 << 30;

const TIERS: [ReuseTier; 3] = [ReuseTier::Basis, ReuseTier::Warm, ReuseTier::Cold];

/// One commit's checked summary.
struct CommitOut {
    ms: f64,
    tier: ReuseTier,
    lp_iterations: usize,
    memo_hits: usize,
    memo_misses: usize,
    /// `None` for an infeasible verdict.
    calibrations: Option<usize>,
    machines: usize,
    lp: Option<LpTelemetry>,
}

/// Check a commit against its materialized instance. `Err` carries
/// whether the failure is an invalid output (as opposed to a refused one).
fn check(
    instance: &Instance,
    result: Result<Commit, SessionError>,
    ms: f64,
) -> Result<CommitOut, bool> {
    let commit = result.map_err(|e| {
        eprintln!("commit failed: {e}");
        false
    })?;
    let (calibrations, machines, lp) = match &commit.verdict {
        Verdict::Feasible { report, schedule } => {
            if let Err(e) = validate(instance, schedule) {
                eprintln!(
                    "commit {}: invalid schedule: {e:?}",
                    commit.telemetry.commit
                );
                return Err(true);
            }
            (
                Some(schedule.num_calibrations()),
                schedule.machines_used(),
                report.lp,
            )
        }
        Verdict::Infeasible { .. } => (None, 0, None),
    };
    let t = &commit.telemetry;
    Ok(CommitOut {
        ms,
        tier: t.tier,
        lp_iterations: t.lp_iterations,
        memo_hits: t.memo_hits,
        memo_misses: t.invalidated_intervals,
        calibrations,
        machines,
        lp,
    })
}

fn tally_commit(tally: &mut Tally, out: &Result<CommitOut, bool>) {
    match out {
        Ok(_) => tally.record(true, true),
        Err(invalid) => tally.record(false, !invalid),
    }
}

/// Replay `spec`'s log through one fresh session, handing each commit to
/// `commit` with the instance it must answer for.
fn replay(
    spec: &SessionSpec,
    log: &[Delta],
    mut commit: impl FnMut(&mut Session, &Instance) -> Result<(), String>,
) -> Result<(), String> {
    let mut session = Session::open(spec.instance());
    for step in 0..spec.commits {
        if step > 0 {
            session
                .apply(&log[step - 1])
                .map_err(|e| format!("delta {step}: {e}"))?;
        }
        let instance = session.instance().clone();
        commit(&mut session, &instance).map_err(|e| format!("commit {step}: {e}"))?;
    }
    Ok(())
}

/// Set-up: derive the base instances and their logs, then replay one log
/// with every commit checked. The warm-up base is the same for every
/// `--seed`, so set-up does the same work on every run.
fn set_up(args: &Args) -> Result<Vec<(SessionSpec, Vec<Delta>)>, String> {
    let bases: Vec<(SessionSpec, Vec<Delta>)> = (0..if args.quick { 1 } else { BASES })
        .map(|k| {
            let spec = session_base(args.seed, k);
            let log = spec.delta_log();
            (spec, log)
        })
        .collect();
    let warm_up = session_base(0, WARM_UP_BASE);
    replay(&warm_up, &warm_up.delta_log(), |session, instance| {
        check(instance, session.commit(), 0.0)
            .map(drop)
            .map_err(|_| "warm-up commit failed".to_string())
    })
    .map_err(|e| format!("warm-up {e}"))?;
    Ok(bases)
}

/// Where one traced commit's time went, in µs.
#[derive(Default)]
struct Split {
    /// The session's solve: `session.solve` (cold) or `session.reuse`.
    solve_us: u64,
    /// The root minus every span the session records itself: building the
    /// commit's report, mostly.
    report_us: u64,
    /// The root's direct `lp.*` children: the LP the report solves.
    report_lp_us: u64,
}

/// One traced commit.
struct TracedCommit {
    tier: ReuseTier,
    lp_iterations: usize,
    split: Split,
    ms: f64,
}

fn commit_split(records: &[SpanRecord]) -> Split {
    let Some(root) = records.iter().find(|r| r.parent == 0) else {
        return Split::default();
    };
    let children = records.iter().filter(|r| r.parent == root.id);
    let (mut session_us, mut solve_us, mut lp_us) = (0, 0, 0);
    for r in children {
        if r.name.starts_with("session.") {
            session_us += r.dur_us;
        }
        if r.name == "session.solve" || r.name == "session.reuse" {
            solve_us += r.dur_us;
        }
        if r.name.starts_with("lp.") {
            lp_us += r.dur_us;
        }
    }
    Split {
        solve_us,
        report_us: root.dur_us.saturating_sub(session_us),
        report_lp_us: lp_us,
    }
}

pub fn run(args: &Args, window_ops: usize) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let (setup_s, bases) = timed_setup(args, || set_up(args));
    let bases = match bases {
        Ok(b) => b,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            tally.record(true, false);
            return (tally, m);
        }
    };
    m.set("setup_s", setup_s);
    eprintln!(
        "{} base instances x {} commits, set-up {setup_s:.3} s",
        bases.len(),
        bases[0].0.commits
    );

    let opts = SolverOptions::default();
    let trace = ise_obs::Trace::new(1 << 16);
    let mut spans = SpanStats::default();
    let mut plain = Vec::new();
    let mut plain_ops = Vec::new();
    let mut traced_ms = Vec::new();
    let mut scratch_ms = Vec::new();
    let mut splits: Vec<TracedCommit> = Vec::new();
    let mut traced_lp = Vec::new();
    // Checking outputs is not part of the measured run.
    let mut checking = Duration::ZERO;
    let started = Instant::now();
    let mut k = 0usize;
    'replays: while (started.elapsed() - checking).as_secs_f64() < args.seconds {
        let (spec, log) = &bases[k % bases.len()];
        k += 1;
        let mut a = Session::open(spec.instance());
        let mut b = args.traced.then(|| Session::open(spec.instance()));
        for step in 0..spec.commits {
            if (started.elapsed() - checking).as_secs_f64() >= args.seconds {
                break 'replays;
            }
            if step > 0 {
                let delta = &log[step - 1];
                let applied = a.apply(delta).and_then(|()| match b.as_mut() {
                    Some(b) => b.apply(delta),
                    None => Ok(()),
                });
                if let Err(e) = applied {
                    eprintln!("delta {step} rejected: {e}");
                    tally.record(false, true);
                    continue 'replays;
                }
            }
            let instance = a.instance().clone();
            let mut plain_commit = |tally: &mut Tally, checking: &mut Duration| {
                let t0 = Instant::now();
                let res = a.commit();
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let c0 = Instant::now();
                let out = check(&instance, res, ms);
                tally_commit(tally, &out);
                plain_ops.push(Op {
                    at_s: (t0 - started - *checking).as_secs_f64(),
                    ms: if out.is_ok() { ms } else { f64::INFINITY },
                });
                *checking += c0.elapsed();
                out
            };
            let Some(b) = b.as_mut() else {
                plain.push(plain_commit(&mut tally, &mut checking));
                continue;
            };
            let traced_first = step % 2 == 1;
            let mut a_out = None;
            if !traced_first {
                a_out = Some(plain_commit(&mut tally, &mut checking));
            }
            let t0 = Instant::now();
            let (res, records) = traced(&trace, "bench.commit", || b.commit());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let b_out = check(&instance, res, ms);
            tally_commit(&mut tally, &b_out);
            if traced_first {
                a_out = Some(plain_commit(&mut tally, &mut checking));
            }
            let t0 = Instant::now();
            let scratch = solve(&instance, &opts);
            scratch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            // The session contract: a commit matches a from-scratch solve
            // of the materialized instance on verdict and calibration count.
            let scratch_cal = match scratch {
                Ok(out) => {
                    let valid = validate(&instance, &out.schedule).is_ok();
                    tally.record(true, valid);
                    Some(out.schedule.num_calibrations())
                }
                Err(ise_sched::SchedError::Infeasible { .. }) => {
                    tally.record(true, true);
                    None
                }
                Err(e) => {
                    eprintln!("scratch solve failed: {e}");
                    tally.record(false, true);
                    None
                }
            };
            if let Ok(out) = &b_out {
                if out.calibrations != scratch_cal {
                    eprintln!(
                        "step {step}: commit gave {:?} calibrations, scratch {scratch_cal:?}",
                        out.calibrations
                    );
                    tally.record(true, false);
                }
                splits.push(TracedCommit {
                    tier: out.tier,
                    lp_iterations: out.lp_iterations,
                    split: commit_split(&records),
                    ms,
                });
                traced_lp.extend(out.lp);
                traced_ms.push(ms);
                spans.add_op(&records);
            }
            plain.push(a_out.expect("plain commit ran"));
        }
    }
    let measured = (started.elapsed() - checking).as_secs_f64();
    let ok: Vec<&CommitOut> = plain.iter().filter_map(|o| o.as_ref().ok()).collect();
    let plain_ms: Vec<f64> = ok.iter().map(|o| o.ms).collect();
    latency_metrics(&mut m, &plain_ops, window_ops, measured);
    let feasible: Vec<&&CommitOut> = ok.iter().filter(|o| o.calibrations.is_some()).collect();
    m.set(
        "calibrations",
        mean(
            &feasible
                .iter()
                .map(|o| o.calibrations.unwrap_or(0) as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "machines",
        mean(
            &feasible
                .iter()
                .map(|o| o.machines as f64)
                .collect::<Vec<_>>(),
        ),
    );

    if args.traced {
        let tier_ms = |t: ReuseTier| -> Vec<f64> {
            ok.iter().filter(|o| o.tier == t).map(|o| o.ms).collect()
        };
        for (tier, name, share) in [
            (TIERS[0], "session.commit_ms.basis", "session.tier.basis"),
            (TIERS[1], "session.commit_ms.warm", "session.tier.warm"),
            (TIERS[2], "session.commit_ms.cold", "session.tier.cold"),
        ] {
            let ms = tier_ms(tier);
            m.set(name, mean(&ms));
            m.set(share, ms.len() as f64 / ok.len().max(1) as f64);
        }
        m.set("session.scratch_ms", mean(&scratch_ms));
        m.set(
            "session.commit_to_scratch",
            mean(&plain_ms) / mean(&scratch_ms),
        );
        let ms = |f: &dyn Fn(&TracedCommit) -> f64, rows: &[&TracedCommit]| {
            mean(&rows.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let all: Vec<_> = splits.iter().collect();
        m.set(
            "session.solve_ms",
            ms(&|c| c.split.solve_us as f64 / 1e3, &all),
        );
        m.set(
            "session.report_ms",
            ms(&|c| c.split.report_us as f64 / 1e3, &all),
        );
        m.set(
            "session.report_lp_ms",
            ms(&|c| c.split.report_lp_us as f64 / 1e3, &all),
        );
        let one_iter: Vec<_> = splits
            .iter()
            .filter(|c| c.tier == ReuseTier::Basis && c.lp_iterations <= 1)
            .collect();
        m.set(
            "session.basis_1iter.frac",
            one_iter.len() as f64 / splits.len().max(1) as f64,
        );
        m.set("session.basis_1iter.commit_ms", ms(&|c| c.ms, &one_iter));
        m.set(
            "session.basis_1iter.solve_ms",
            ms(&|c| c.split.solve_us as f64 / 1e3, &one_iter),
        );
        m.set(
            "session.basis_1iter.report_ms",
            ms(&|c| c.split.report_us as f64 / 1e3, &one_iter),
        );
        let hits: usize = ok.iter().map(|o| o.memo_hits).sum();
        let probes: usize = ok.iter().map(|o| o.memo_hits + o.memo_misses).sum();
        m.set("session.memo_hit_frac", hits as f64 / probes.max(1) as f64);
        m.set(
            "session.lp_iterations",
            mean(
                &ok.iter()
                    .map(|o| o.lp_iterations as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        lp_metrics(&mut m, &traced_lp);
        spans.fill(&mut m, trace.dropped());
        m.set(
            "obs.overhead_frac",
            median(&traced_ms) / median(&plain_ms) - 1.0,
        );
        spans.write(&args.spans_path());
    }

    // The run's own records grow with the number of commits; they are not
    // the program's memory. The memory pass replays the warm-up base, the
    // same for every `--seed`.
    drop(ok);
    drop((plain, plain_ops, splits, traced_lp, spans, trace));
    let mut memory = MemoryPass::new();
    let warm_up = session_base(0, WARM_UP_BASE);
    let memory_pass = replay(&warm_up, &warm_up.delta_log(), |session, instance| {
        let res = memory.measure(|| session.commit());
        let out = check(instance, res, 0.0);
        tally_commit(&mut tally, &out);
        Ok(())
    });
    if let Err(e) = memory_pass {
        eprintln!("memory pass: {e}");
        tally.record(false, true);
    }
    m.set("ok_frac", tally.ok_frac());
    m.set("rss_peak_mb", memory.mb());
    (tally, m)
}
