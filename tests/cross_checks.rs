//! Cross-validation between independent implementations of the same
//! mathematical quantity — the strongest correctness signal available
//! without a reference implementation:
//!
//! * preemptive MM feasibility via Dinic max-flow vs. via the simplex LP;
//! * the lower-bound lattice: demand <= preemptive <= exact MM <= every
//!   heuristic MM;
//! * calibration lower bounds vs. brute-force ISE optima on tiny
//!   instances;
//! * the LP bound a solve report reuses from its own solve vs. the LP
//!   bound solved again from cold;
//! * the TISE LP as built (implied work rows omitted) vs. the paper's
//!   full LP with every work row restored;
//! * serde round-trips of instances and schedules.

use ise::mm::{
    demand_lower_bound, preemptive_lower_bound, ExactMm, GreedyMm, LpRoundMm, MachineMinimizer,
    Portfolio,
};
use ise::model::{Instance, Schedule, Time};
use ise::sched::exact::{optimal, ExactOptions};
use ise::sched::lower_bound::{lower_bound, solved_lower_bound};
use ise::sched::lp::build;
use ise::sched::{solve, SolverOptions};
use ise::session::{Session, Verdict};
use ise::simplex::{
    check_solution, solve as lp_solve, Cmp, LinearProgram, SolveOptions, SolveStatus,
};
use ise::workloads::{short_only, uniform, WorkloadFamily, WorkloadParams};

/// Preemptive feasibility expressed as an LP (the same relaxation the flow
/// network decides): job work routed into window segments with per-segment
/// per-job rate limits and total capacity `w·len`.
fn preemptive_feasible_lp(jobs: &[ise::model::Job], w: usize) -> bool {
    if jobs.is_empty() {
        return true;
    }
    if w == 0 {
        return false;
    }
    let mut cuts: Vec<Time> = jobs.iter().flat_map(|j| [j.release, j.deadline]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let segments: Vec<(Time, Time)> = cuts.windows(2).map(|p| (p[0], p[1])).collect();

    let mut lp = LinearProgram::new();
    // y[j][s] = work of job j done in segment s.
    let mut vars: Vec<Vec<(usize, usize)>> = Vec::new(); // (segment, var)
    for job in jobs {
        let mut row = Vec::new();
        for (si, &(s, e)) in segments.iter().enumerate() {
            if job.release <= s && e <= job.deadline {
                let v = lp.add_var(0.0);
                // Rate limit: one machine per job at a time.
                lp.add_row([(v, 1.0)], Cmp::Le, (e - s).ticks() as f64);
                row.push((si, v));
            }
        }
        vars.push(row);
    }
    for (j, row) in vars.iter().enumerate() {
        if row.is_empty() {
            return false;
        }
        lp.add_row(
            row.iter().map(|&(_, v)| (v, 1.0)),
            Cmp::Eq,
            jobs[j].proc.ticks() as f64,
        );
    }
    for (si, &(s, e)) in segments.iter().enumerate() {
        let coeffs: Vec<(usize, f64)> = vars
            .iter()
            .flatten()
            .filter(|&&(seg, _)| seg == si)
            .map(|&(_, v)| (v, 1.0))
            .collect();
        if !coeffs.is_empty() {
            lp.add_row(coeffs, Cmp::Le, (w as i64 * (e - s).ticks()) as f64);
        }
    }
    let sol = lp_solve(&lp, &SolveOptions::default()).expect("lp solves");
    sol.status == SolveStatus::Optimal
}

#[test]
fn flow_and_lp_agree_on_preemptive_feasibility() {
    for seed in 0..8u64 {
        let params = WorkloadParams {
            jobs: 8,
            machines: 2,
            calib_len: 10,
            horizon: 60,
        };
        let inst = uniform(&params, seed);
        let jobs = inst.jobs();
        let lb = preemptive_lower_bound(jobs);
        for w in lb.saturating_sub(1)..=(lb + 1) {
            let via_flow = ise::mm::lower_bound::preemptive_feasible(jobs, w);
            let via_lp = preemptive_feasible_lp(jobs, w);
            assert_eq!(
                via_flow, via_lp,
                "seed {seed}, w={w}: flow says {via_flow}, LP says {via_lp}"
            );
        }
        // The binary-searched threshold is consistent with both.
        if lb > 0 {
            assert!(!preemptive_feasible_lp(jobs, lb - 1));
        }
        assert!(preemptive_feasible_lp(jobs, lb));
    }
}

#[test]
fn lower_bound_lattice_holds() {
    for seed in 0..10u64 {
        let params = WorkloadParams {
            jobs: 7,
            machines: 2,
            calib_len: 10,
            horizon: 40,
        };
        let inst = uniform(&params, seed);
        let jobs = inst.jobs();
        let demand = demand_lower_bound(jobs);
        let preemptive = preemptive_lower_bound(jobs);
        let exact = ExactMm::default().minimize(jobs).expect("small").machines;
        assert!(demand <= preemptive, "seed {seed}");
        assert!(preemptive <= exact, "seed {seed}");
        for heuristic in [
            &GreedyMm as &dyn MachineMinimizer,
            &LpRoundMm::default(),
            &Portfolio::standard(),
        ] {
            let h = heuristic.minimize(jobs).expect("total");
            assert!(
                h.machines >= exact,
                "seed {seed}: {} beat the exact optimum",
                heuristic.name()
            );
        }
    }
}

#[test]
fn calibration_bounds_never_exceed_brute_force_optimum() {
    for seed in 0..8u64 {
        let params = WorkloadParams {
            jobs: 5,
            machines: 1,
            calib_len: 6,
            horizon: 25,
        };
        let inst = uniform(&params, seed);
        let Some(exact) = optimal(&inst, &ExactOptions::default()).expect("budget") else {
            continue;
        };
        let bound = lower_bound(&inst, &Default::default());
        assert!(
            bound.best as usize <= exact.calibrations,
            "seed {seed}: bound {} exceeds optimum {}",
            bound.best,
            exact.calibrations
        );
    }
}

#[test]
fn reported_bounds_match_cold_bounds() {
    // Cold solves: every family, so long-only, short-only (no LP term) and
    // mixed instances all appear.
    let params = WorkloadParams {
        jobs: 20,
        machines: 2,
        calib_len: 10,
        horizon: 200,
    };
    let mut with_lp = 0;
    for family in WorkloadFamily::ALL {
        for seed in 0..3u64 {
            let inst = family.generate(&params, seed);
            let Ok(outcome) = solve(&inst, &SolverOptions::default()) else {
                continue;
            };
            let cold = lower_bound(&inst, &Default::default());
            assert_eq!(
                solved_lower_bound(&inst, &outcome),
                cold,
                "{family:?} seed {seed}"
            );
            with_lp += usize::from(cold.lp_long.is_some());
        }
    }
    assert!(with_lp >= 10, "only {with_lp} solves had an LP term");

    // Session commits: basis and warm tiers stop at another optimal vertex
    // of the same LP, and their reports must still match the cold bound.
    let spec = ise_bench::session::session_spec();
    let log = spec.delta_log();
    let mut session = Session::open(spec.instance());
    for i in 0..spec.commits {
        if i > 0 {
            session.apply(&log[i - 1]).expect("pinned delta applies");
        }
        let materialized = session.instance().clone();
        let commit = session.commit().expect("commit");
        if let Verdict::Feasible { report, .. } = &commit.verdict {
            assert_eq!(
                report.bounds,
                lower_bound(&materialized, &Default::default()),
                "commit {i} ({} tier)",
                commit.telemetry.tier
            );
        }
    }
}

#[test]
fn omitted_work_rows_are_implied() {
    // `lp::build` leaves out the work rows (3) that rows (2) imply.
    // Restoring every paper row (3) onto a clone of the built LP gives the
    // paper's full LP (emitted work rows then appear twice, which changes
    // nothing). The built LP's optimum must be feasible for it and match
    // its optimum.
    let params = WorkloadParams {
        jobs: 20,
        machines: 2,
        calib_len: 10,
        horizon: 200,
    };
    let opts = SolveOptions::default();
    let mut omitted = 0;
    for family in WorkloadFamily::ALL {
        for seed in 0..3u64 {
            let inst = family.generate(&params, seed);
            let jobs = inst.partition_long_short().0;
            if jobs.is_empty() {
                continue;
            }
            let t = inst.calib_len().ticks() as f64;
            let tise = build(&jobs, inst.calib_len(), 3 * inst.machines());
            let mut full = tise.lp.clone();
            let mut work: Vec<Vec<(usize, f64)>> = vec![Vec::new(); tise.points.len()];
            for (vars, job) in tise.x_vars.iter().zip(&jobs) {
                for &(pi, xv) in vars {
                    work[pi].push((xv, job.proc.ticks() as f64));
                }
            }
            let mut restored = 0;
            for (pi, coeffs) in work.into_iter().enumerate() {
                if !coeffs.is_empty() {
                    full.add_row(
                        coeffs.into_iter().chain([(tise.c_vars[pi], -t)]),
                        Cmp::Le,
                        0.0,
                    );
                    restored += 1;
                }
            }
            let x_terms: usize = tise.x_vars.iter().map(Vec::len).sum();
            let emitted = tise.lp.num_rows() - tise.points.len() - x_terms - jobs.len();
            omitted += restored - emitted;

            let reduced = lp_solve(&tise.lp, &opts).expect("built LP solves");
            let paper = lp_solve(&full, &opts).expect("full LP solves");
            let case = format!("{family:?} seed {seed}");
            assert_eq!(reduced.status, paper.status, "{case}");
            if reduced.status != SolveStatus::Optimal {
                continue;
            }
            let violations = check_solution(&full, &reduced.x, 1e-6);
            assert!(violations.is_empty(), "{case}: {violations:?}");
            assert!(
                (reduced.objective - paper.objective).abs()
                    <= 1e-6 * paper.objective.abs().max(1.0),
                "{case}: built LP {} vs full LP {}",
                reduced.objective,
                paper.objective
            );
        }
    }
    assert!(omitted > 0, "the sweep omitted no work row");
}

#[test]
fn instance_and_schedule_serde_round_trip() {
    let params = WorkloadParams {
        jobs: 10,
        machines: 2,
        calib_len: 10,
        horizon: 80,
    };
    let inst = short_only(&params, 3);
    let json = serde_json::to_string(&inst).expect("serialize instance");
    let back: Instance = serde_json::from_str(&json).expect("deserialize instance");
    assert_eq!(inst, back);

    let outcome = ise::sched::solve(&inst, &Default::default()).expect("feasible");
    let json = serde_json::to_string(&outcome.schedule).expect("serialize schedule");
    let back: Schedule = serde_json::from_str(&json).expect("deserialize schedule");
    assert_eq!(outcome.schedule, back);
    ise::model::validate(&inst, &back).expect("round-tripped schedule still validates");
}

/// Golden regression values: fixed seeds must keep producing exactly these
/// calibration counts. If an intentional algorithm change shifts them,
/// update the expectations alongside the change.
#[test]
fn golden_calibration_counts() {
    // Re-pinned when `rand` moved to the vendored SplitMix64 stub (the
    // instance stream changed with the generator, not the algorithm).
    // Seed 3 re-pinned 10 -> 9 when devex became the default pricing
    // rule, and 9 -> 10 when the LU kernel became the default basis
    // factorization: each lands on a different optimal vertex of the
    // same LP and rounding emits a different calibration count
    // (objective unchanged — the equivalence proptests pin that).
    let cases: [(u64, usize); 4] = [(0, 9), (1, 9), (2, 10), (3, 10)];
    for (seed, expected) in cases {
        let params = WorkloadParams {
            jobs: 10,
            machines: 1,
            calib_len: 10,
            horizon: 200,
        };
        let inst = uniform(&params, seed);
        let outcome = ise::sched::solve(
            &inst,
            &ise::sched::SolverOptions {
                trim_empty_calibrations: true,
                ..Default::default()
            },
        )
        .expect("feasible");
        ise::model::validate(&inst, &outcome.schedule).expect("valid");
        assert_eq!(
            outcome.schedule.num_calibrations(),
            expected,
            "seed {seed}: calibration count drifted"
        );
    }
}
