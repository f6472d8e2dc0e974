//! Quickstart: build an instance, solve it, inspect the schedule.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ise::model::{validate, Instance, ScheduleStats};
use ise::sched::lower_bound::solved_lower_bound;
use ise::sched::{solve, SolverOptions};

fn main() {
    // One machine, calibration length T = 10 ticks. Three test campaigns:
    // two overlapping early jobs and one late job (release, deadline, p).
    let instance = Instance::new(
        [
            (0, 40, 7),  // routine: long window
            (2, 45, 6),  // routine: long window
            (0, 12, 6),  // urgent: short window
            (80, 95, 9), // urgent, much later
        ],
        1,
        10,
    )
    .expect("well-formed instance");

    let options = SolverOptions {
        trim_empty_calibrations: true,
        ..SolverOptions::default()
    };
    let outcome = solve(&instance, &options).expect("feasible instance");

    // Never trust a scheduler, even your own: validate.
    validate(&instance, &outcome.schedule).expect("schedule is feasible");

    let stats = ScheduleStats::compute(&instance, &outcome.schedule);
    let bound = solved_lower_bound(&instance, &outcome);

    println!(
        "jobs            : {} ({} long, {} short)",
        instance.len(),
        outcome.long_jobs,
        outcome.short_jobs
    );
    println!("calibrations    : {}", stats.calibrations);
    println!("lower bound     : {}", bound.best);
    println!("machines used   : {}", stats.machines);
    println!("utilization     : {:.1}%", stats.utilization * 100.0);
    println!();
    println!("calibrations (machine @ [start, end)):");
    let mut cals = outcome.schedule.calibrations.clone();
    cals.sort_by_key(|c| (c.start, c.machine));
    for c in &cals {
        println!(
            "  machine {} @ [{}, {})",
            c.machine,
            c.start,
            c.start + instance.calib_len()
        );
    }
    println!("placements (job: machine @ [start, end)):");
    let mut places = outcome.schedule.placements.clone();
    places.sort_by_key(|p| (p.start, p.machine));
    for p in &places {
        let job = instance.job(p.job);
        println!(
            "  job {}: machine {} @ [{}, {})",
            p.job,
            p.machine,
            p.start,
            p.start + job.proc
        );
    }
}
