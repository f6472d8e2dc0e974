//! # ise-bench — experiment harness shared code
//!
//! Helpers used by the `experiments` binary (which regenerates every
//! figure/theorem artifact of the paper — see EXPERIMENTS.md) and by the
//! criterion benches: instance measurement, ratio bookkeeping, and plain
//! fixed-width table rendering for reproducible textual reports.

pub mod perf;
pub mod session;

use ise_model::{validate, Instance, ScheduleStats};
use ise_sched::lower_bound::solved_lower_bound;
use ise_sched::{solve, SolverOptions};
use std::time::Instant;

/// One measured solver run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Calibrations in the produced schedule.
    pub calibrations: usize,
    /// Machines used.
    pub machines: usize,
    /// Certified lower bound on the optimum.
    pub lower_bound: u64,
    /// `calibrations / lower_bound` — an upper bound on the true ratio.
    pub ratio: f64,
    /// Utilization of calibrated time.
    pub utilization: f64,
    /// Wall-clock solve time in milliseconds.
    pub millis: f64,
}

/// Solve, validate, and measure one instance. Panics if the solver returns
/// an invalid schedule (experiments must never report unverified numbers).
pub fn measure(instance: &Instance, opts: &SolverOptions) -> Result<Measurement, String> {
    let start = Instant::now();
    let outcome = solve(instance, opts).map_err(|e| e.to_string())?;
    let millis = start.elapsed().as_secs_f64() * 1e3;
    validate(instance, &outcome.schedule).expect("experiment produced an invalid schedule");
    let stats = ScheduleStats::compute(instance, &outcome.schedule);
    let bound = solved_lower_bound(instance, &outcome);
    Ok(Measurement {
        calibrations: stats.calibrations,
        machines: stats.machines,
        lower_bound: bound.best,
        ratio: stats.calibrations as f64 / bound.best.max(1) as f64,
        utilization: stats.utilization,
        millis,
    })
}

/// Minimal fixed-width table printer (markdown-compatible output).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render as a markdown table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let body: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            format!("| {} |\n", body.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", dashes.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Run `work` over `inputs` on scoped worker threads, preserving input
/// order in the output. The experiment sweeps are embarrassingly parallel
/// (one solver run per (n, m, seed) cell), so a plain scoped fan-out covers
/// them without any shared mutable state — results come back through each
/// thread's join handle. Worker count is capped by available parallelism.
pub fn parallel_sweep<I, O, F>(inputs: Vec<I>, work: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(inputs.len().max(1));
    if workers <= 1 || inputs.len() <= 1 {
        return inputs.iter().map(&work).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_slots: Vec<std::sync::Mutex<Option<O>>> = (0..inputs.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(input) = inputs.get(i) else { break };
                let out = work(input);
                *results_slots[i]
                    .lock()
                    .expect("no poisoning: work panics abort the scope") = Some(out);
            });
        }
    });
    results_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("lock free")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_simple_instance() {
        let inst = Instance::new([(0, 40, 5), (0, 40, 5)], 1, 10).unwrap();
        let m = measure(&inst, &SolverOptions::default()).unwrap();
        assert!(m.calibrations >= 1);
        assert!(m.lower_bound >= 1);
        assert!(m.ratio >= 1.0);
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(["a", "bb"]);
        t.row(["1", "2"]);
        let s = t.render();
        assert!(s.contains("| a | bb |"));
        assert!(s.contains("| 1 |  2 |"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let inputs: Vec<u64> = (0..50).collect();
        let out = parallel_sweep(inputs.clone(), |&x| x * x);
        assert_eq!(out, inputs.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_sweep_handles_tiny_inputs() {
        assert_eq!(parallel_sweep(Vec::<u32>::new(), |&x| x), Vec::<u32>::new());
        assert_eq!(parallel_sweep(vec![7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_sweep_runs_real_solves() {
        use ise_workloads::{uniform, WorkloadParams};
        let seeds: Vec<u64> = (0..4).collect();
        let out = parallel_sweep(seeds, |&seed| {
            let params = WorkloadParams {
                jobs: 8,
                machines: 1,
                calib_len: 10,
                horizon: 80,
            };
            let inst = uniform(&params, seed);
            measure(&inst, &SolverOptions::default()).map(|m| m.calibrations)
        });
        assert_eq!(out.len(), 4);
        // Deterministic per seed: re-running sequentially matches.
        for (i, seed) in (0..4u64).enumerate() {
            let params = WorkloadParams {
                jobs: 8,
                machines: 1,
                calib_len: 10,
                horizon: 80,
            };
            let inst = uniform(&params, seed);
            let seq = measure(&inst, &SolverOptions::default()).map(|m| m.calibrations);
            assert_eq!(out[i].as_ref().ok(), seq.as_ref().ok());
        }
    }
}
