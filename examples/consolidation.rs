//! Before/after: local-search calibration consolidation.
//!
//! The approximation pipeline pays provable constant factors; the
//! exactly-verified local search (`ise::sched::improve`) reclaims most of
//! them. This example shows the same instance's schedule before and after,
//! as Gantt charts, with the certified lower bound for context.
//!
//! ```sh
//! cargo run --release --example consolidation [-- jobs seed]
//! ```

use ise::model::{render_gantt, validate, RenderOptions};
use ise::sched::improve::{improve, ImproveOptions};
use ise::sched::lower_bound::solved_lower_bound;
use ise::sched::{audit, solve, SolverOptions};
use ise::workloads::{uniform, WorkloadParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0);

    let params = WorkloadParams {
        jobs,
        machines: 1,
        calib_len: 10,
        horizon: 120,
    };
    let instance = uniform(&params, seed);
    let outcome = solve(&instance, &SolverOptions::default()).expect("feasible");
    validate(&instance, &outcome.schedule).expect("valid");
    let bound = solved_lower_bound(&instance, &outcome);

    let render = RenderOptions {
        max_width: 84,
        label_jobs: true,
    };
    println!(
        "pipeline output: {} calibrations on {} machines (certified lower bound {})",
        outcome.schedule.num_calibrations(),
        outcome.schedule.machines_used(),
        bound.best
    );
    println!("{}", render_gantt(&instance, &outcome.schedule, &render));

    let improved =
        improve(&instance, &outcome.schedule, &ImproveOptions::default()).expect("improve");
    validate(&instance, &improved.schedule).expect("still valid");
    println!(
        "after consolidation: {} calibrations on {} machines ({} removed in {} rounds)",
        improved.schedule.num_calibrations(),
        improved.schedule.machines_used(),
        improved.removed,
        improved.rounds
    );
    println!("{}", render_gantt(&instance, &improved.schedule, &render));
    println!(
        "ratio vs certified bound: {:.2}",
        improved.schedule.num_calibrations() as f64 / bound.best.max(1) as f64
    );

    // The theorem budgets still hold for the original outcome, of course.
    let report = audit(&instance, &outcome);
    assert!(report.all_ok(), "{report}");
    println!("\ntheorem-budget audit of the pipeline output:\n{report}");
}
