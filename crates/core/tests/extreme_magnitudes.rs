//! Property tests at the representable-horizon edge: instances whose
//! coordinates sit within a few thousand ticks of `±MAX_INSTANCE_TICKS`
//! (`i64::MAX / 36`, the Lemma 13 / Theorem 14 headroom), or whose
//! machine count is `MAX_MACHINES`, must solve cleanly or fail with a
//! typed verdict — never wrap, panic, or abort.

use ise_model::{validate, Dur, Instance, InstanceBuilder, Job, MAX_INSTANCE_TICKS, MAX_MACHINES};
use ise_sched::lower_bound::lower_bound;
use ise_sched::{solve, solve_with_speed, try_refine_for_speed, SchedError, SolverOptions};
use proptest::prelude::*;

/// Long-window jobs hugging one edge of the representable horizon.
fn extreme_instance() -> impl Strategy<Value = Instance> {
    let job = (0i64..500, 1i64..8, any::<bool>());
    (proptest::collection::vec(job, 1..6), 1usize..3).prop_map(|(raw, machines)| {
        let mut b = InstanceBuilder::new(machines, 8);
        for (off, p, negative) in raw {
            // Window of 3T keeps every job on the LP pipeline.
            let r = if negative {
                -MAX_INSTANCE_TICKS + off
            } else {
                MAX_INSTANCE_TICKS - off - 24
            };
            b.push(r, r + 24, p);
        }
        b.build().expect("in-range extreme instance is well-formed")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// The full pipeline is total at the edge: a feasible schedule
    /// validates, and any failure is a typed error.
    #[test]
    fn solve_is_total_at_the_horizon_edge(inst in extreme_instance()) {
        match solve(&inst, &SolverOptions::default()) {
            Ok(out) => prop_assert!(validate(&inst, &out.schedule).is_ok()),
            Err(SchedError::Infeasible { .. }) | Err(SchedError::TimeOverflow { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected failure class: {e}"),
        }
    }

    /// Speed refinement multiplies releases/deadlines by `speed`; at the
    /// edge that leaves the representable horizon and must come back as
    /// `TimeOverflow`, not a wrapped instance or a panic.
    #[test]
    fn speed_refinement_reports_overflow_at_the_edge(
        inst in extreme_instance(),
        speed in 2i64..6,
    ) {
        match try_refine_for_speed(&inst, speed) {
            Ok(refined) => {
                // All values fit after scaling: the scaled instance is
                // well-formed and the solve stays total.
                prop_assert_eq!(refined.len(), inst.len());
                let _ = solve_with_speed(&inst, &SolverOptions::default(), speed);
            }
            Err(SchedError::TimeOverflow { .. }) => {
                // The driving entry point reports the same verdict.
                prop_assert!(matches!(
                    solve_with_speed(&inst, &SolverOptions::default(), speed),
                    Err(SchedError::TimeOverflow { .. })
                ));
            }
            Err(e) => prop_assert!(false, "unexpected failure class: {e}"),
        }
    }
}

#[test]
fn work_row_sums_do_not_overflow_at_the_edge() {
    // Forty jobs of p = T = MAX_INSTANCE_TICKS share every calibration
    // point: their work there is 40 · i64::MAX / 36, past i64::MAX. The
    // LP build must still find it above T and emit each work row (3).
    let big = MAX_INSTANCE_TICKS;
    let jobs: Vec<Job> = (0..40).map(|i| Job::new(i, -big, big, big)).collect();
    let tise = ise_sched::lp::build(&jobs, Dur(big), 3);
    let x_terms: usize = tise.x_vars.iter().map(Vec::len).sum();
    let used_points = (0..tise.points.len())
        .filter(|&pi| tise.x_vars[0].iter().any(|&(p, _)| p == pi))
        .count();
    assert!(used_points > 0);
    assert_eq!(
        tise.lp.num_rows(),
        tise.points.len() + x_terms + used_points + jobs.len()
    );
}

#[test]
fn edge_instances_scale_by_36_exactly_at_the_bound() {
    // MAX_INSTANCE_TICKS is chosen so the Lemma 13 refinement (2c = 36)
    // of any valid instance still fits in i64: scaling the extreme value
    // by 36 must succeed, by 37 must not.
    let t = ise_model::Time(MAX_INSTANCE_TICKS);
    assert!(t.try_scale(36).is_ok());
    assert!(t.try_scale(37).is_err());
}

#[test]
fn solve_at_the_machine_bound_matches_a_small_machine_count() {
    // MAX_MACHINES keeps every machine multiple the pipeline forms inside
    // usize: the LP budget 3·m here, for the solve and the lower bound.
    // Seven jobs that all need [0, 20) cannot use more than seven
    // machines, so the bound solves exactly like m = 7. One machine more
    // is rejected when the instance is built.
    let jobs = [(0, 20, 10); 7];
    let at_bound = Instance::new(jobs, MAX_MACHINES, 10).unwrap();
    let seven = Instance::new(jobs, 7, 10).unwrap();
    let big = solve(&at_bound, &SolverOptions::default()).expect("feasible at the bound");
    let small = solve(&seven, &SolverOptions::default()).expect("feasible on 7 machines");
    assert!(validate(&at_bound, &big.schedule).is_ok());
    assert_eq!(
        big.schedule.num_calibrations(),
        small.schedule.num_calibrations()
    );
    let lp = ise_simplex::SolveOptions::default();
    assert_eq!(lower_bound(&at_bound, &lp), lower_bound(&seven, &lp));
    assert!(Instance::new(jobs, MAX_MACHINES + 1, 10).is_err());
}
