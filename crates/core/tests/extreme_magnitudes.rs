//! Property tests at the representable-horizon edge: instances whose
//! coordinates sit within a few thousand ticks of `±MAX_INSTANCE_TICKS`
//! (`i64::MAX / 36`, the Lemma 13 / Theorem 14 headroom) must solve
//! cleanly or fail with a typed verdict — never wrap, panic, or abort.

use ise_model::{validate, Dur, Instance, InstanceBuilder, Job, MAX_INSTANCE_TICKS};
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
