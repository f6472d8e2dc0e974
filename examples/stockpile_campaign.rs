//! The motivating workload: periodic stockpile-evaluation campaigns.
//!
//! Generates bursts of device tests (30% urgent short-window, 70% routine
//! long-window), schedules them with the combined Theorem 1 solver, and
//! reports calibrations against the certified lower bound — the quantity a
//! lab operator actually pays for.
//!
//! ```sh
//! cargo run --release --example stockpile_campaign [-- jobs machines seed]
//! ```

use ise::model::{validate, ScheduleStats};
use ise::sched::lower_bound::solved_lower_bound;
use ise::sched::{solve, SolverOptions};
use ise::workloads::{stockpile, WorkloadParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(24);
    let machines: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2015);

    let params = WorkloadParams {
        jobs,
        machines,
        calib_len: 10,
        horizon: 400,
    };
    let instance = stockpile(&params, 120, jobs / 3 + 1, seed);
    println!(
        "stockpile campaign: {} tests on {} machines, T = {}",
        instance.len(),
        instance.machines(),
        instance.calib_len()
    );

    let options = SolverOptions {
        trim_empty_calibrations: true,
        ..SolverOptions::default()
    };
    match solve(&instance, &options) {
        Ok(outcome) => {
            validate(&instance, &outcome.schedule).expect("schedule is feasible");
            let stats = ScheduleStats::compute(&instance, &outcome.schedule);
            let bound = solved_lower_bound(&instance, &outcome);
            println!("  long jobs (routine) : {}", outcome.long_jobs);
            println!("  short jobs (urgent) : {}", outcome.short_jobs);
            println!("  calibrations        : {}", stats.calibrations);
            println!("  lower bound         : {}", bound.best);
            println!(
                "  ratio (upper bound) : {:.2}",
                stats.calibrations as f64 / bound.best.max(1) as f64
            );
            println!(
                "  machines used       : {} (instance allows augmentation)",
                stats.machines
            );
            println!("  utilization         : {:.1}%", stats.utilization * 100.0);
            println!("  makespan            : {}", stats.makespan);
            if let Some(short) = &outcome.short {
                let crossings: usize = short.intervals.iter().map(|i| i.crossing_jobs).sum();
                println!("  crossing jobs       : {crossings}");
            }
        }
        Err(e) => {
            println!("  no schedule: {e}");
            println!("  (the certificate above means no schedule exists on {machines} machines)");
        }
    }
}
