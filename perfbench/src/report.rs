//! Metric names, units, summary statistics, and the one-line JSON result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's metric contract:
//! `BENCHMARK.json` lists the same names and units, and the self-tests
//! compare the two. Every run prints every metric of its mode — a metric a
//! workload does not exercise reads 0 in a traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// `(name, unit)` of every end-to-end metric (untraced runs).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("calibrations", "count"),
    ("machines", "count"),
    ("rss_peak_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric (traced runs). Times are per
/// operation unless the unit says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lp.build_ms", "ms"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("lp.nnz", "count"),
    ("simplex.solve_ms", "ms"),
    ("simplex.phase1_ms", "ms"),
    ("simplex.phase2_ms", "ms"),
    ("simplex.pricing_ms", "ms"),
    ("simplex.lu_update_ms", "ms"),
    ("simplex.refactor_ms", "ms"),
    ("simplex.iterations", "count"),
    ("simplex.refactorizations", "count"),
    ("simplex.cols_scanned", "count"),
    ("simplex.recoveries", "count"),
    ("simplex.warm_used_frac", "ratio"),
    ("long.round_ms", "ms"),
    ("long.edf_ms", "ms"),
    ("short.ms", "ms"),
    ("short.intervals", "count"),
    ("mm.ms", "ms"),
    ("mm.calls", "count"),
    ("mm.max_call_ms", "ms"),
    ("solve.long_ms", "ms"),
    ("solve.short_ms", "ms"),
    ("solve.union_ms", "ms"),
    ("session.commit_ms.basis", "ms"),
    ("session.commit_ms.warm", "ms"),
    ("session.commit_ms.cold", "ms"),
    ("session.scratch_ms", "ms"),
    ("session.commit_to_scratch", "ratio"),
    ("session.solve_ms", "ms"),
    ("session.report_ms", "ms"),
    ("session.report_lp_ms", "ms"),
    ("session.tier.basis", "ratio"),
    ("session.tier.warm", "ratio"),
    ("session.tier.cold", "ratio"),
    ("session.memo_hit_frac", "ratio"),
    ("session.lp_iterations", "count"),
    ("session.basis_1iter.frac", "ratio"),
    ("session.basis_1iter.commit_ms", "ms"),
    ("session.basis_1iter.solve_ms", "ms"),
    ("session.basis_1iter.report_ms", "ms"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.solve_ms", "ms"),
    ("engine.serialize_ms", "ms"),
    ("engine.cache_hit_frac", "ratio"),
    ("engine.basis_hit_frac", "ratio"),
    ("engine.rejected", "count"),
    ("engine.fallbacks", "count"),
    ("net.overhead_ms", "ms"),
    ("net.bytes_in", "B"),
    ("net.bytes_out", "B"),
    ("obs.overhead_frac", "ratio"),
    ("obs.spans_per_op", "count"),
    ("obs.dropped", "count"),
    ("loadgen.lag_ms", "ms"),
    ("lp.self_frac", "ratio"),
    ("simplex.self_frac", "ratio"),
    ("long.self_frac", "ratio"),
    ("short.self_frac", "ratio"),
    ("mm.self_frac", "ratio"),
    ("solver.self_frac", "ratio"),
    ("session.self_frac", "ratio"),
    ("engine.self_frac", "ratio"),
    ("net.self_frac", "ratio"),
    ("bench.self_frac", "ratio"),
    ("op.samples", "count"),
    ("op.tail_pct", "%"),
];

/// Named metric values collected by a workload run.
#[derive(Default)]
pub struct Metrics {
    values: HashMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name`, which must be one of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        // A failed operation's latency is infinite (it misses every limit);
        // JSON has no infinity, so it prints as the largest finite number.
        let value = match value {
            v if v.is_nan() => 0.0,
            v if v.is_infinite() => f64::MAX.copysign(v),
            v => v,
        };
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Outcome counters and the correctness verdict of one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that came back wrong (an invalid schedule, a response out of
    /// order or with an unknown status). Any makes the run incorrect.
    pub invalid: u64,
}

impl Tally {
    /// Count one operation: `ok` is whether it produced a usable result,
    /// `valid` whether what it returned is correct. An invalid output is
    /// also a failure.
    pub fn record(&mut self, ok: bool, valid: bool) {
        self.attempted += 1;
        if !ok || !valid {
            self.failed += 1;
        }
        if !valid {
            self.invalid += 1;
        }
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`
/// with every metric of the run's mode, in contract order.
pub fn result_line(tally: &Tally, metrics: &Metrics, traced: bool) -> String {
    let table = if traced { PER_LAYER } else { END_TO_END };
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.invalid == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Linear-interpolated percentile (`pct` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = pct / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if s[lo] == s[hi] {
        // Also keeps a run of infinite latencies (failures) from turning
        // into NaN.
        return s[lo];
    }
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of a few repeated timings.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// One operation: when it started (seconds into the measured run; for an
/// open loop, when it was due) and how long it took — infinite for a failed
/// operation, which misses every latency limit.
#[derive(Clone, Copy)]
pub struct Op {
    pub at_s: f64,
    pub ms: f64,
}

/// The tail percentile of windows of `window_ops` operations: the highest
/// of a fixed ladder that leaves at least ten operations beyond it.
pub fn tail_pct(window_ops: usize) -> f64 {
    [99.9, 99.5, 99.0, 98.0, 95.0, 90.0]
        .into_iter()
        .find(|p| window_ops as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Record a run's latency and throughput metrics over windows of
/// `window_ops` consecutive operations (a trailing partial window is left
/// out): per window the median, the [`tail_pct`] percentile, and operations
/// per second; each reported as the median over windows, with the sample
/// count behind it. `end_s` is when the measured run ended.
///
/// Medians over windows keep a slow stretch of the host — its speed
/// drifts by ±15% over seconds — or one stall that delays a few dozen
/// requests to one window instead of the reported figure. Windows count
/// operations rather than seconds so that a workload can make each window
/// hold the same input mix (`session_edits`: whole delta-log replays).
pub fn latency_metrics(m: &mut Metrics, ops: &[Op], window_ops: usize, end_s: f64) {
    let mut ops = ops.to_vec();
    ops.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let (windows, size) = match ops.len() / window_ops {
        0 => (ops.len().min(1), ops.len()),
        n => (n, window_ops),
    };
    let tail_pct = tail_pct(window_ops);
    let (mut p50, mut tail, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for w in 0..windows {
        let window = &ops[w * size..(w + 1) * size];
        let ends_s = ops.get((w + 1) * size).map_or(end_s, |o| o.at_s);
        let ms: Vec<f64> = window.iter().map(|o| o.ms).collect();
        p50.push(percentile(&ms, 50.0));
        tail.push(percentile(&ms, tail_pct));
        rate.push(size as f64 / (ends_s - window[0].at_s).max(1e-9));
    }
    m.set("op_p50_ms", median(&p50));
    m.set("op_tail_ms", median(&tail));
    m.set("ops_per_s", median(&rate));
    m.set("op.samples", (windows * size) as f64);
    m.set("op.tail_pct", tail_pct);
    eprintln!(
        "op latency: p50 and p{tail_pct} over {} samples in {windows} windows: p50 {p50:.3?} ms, tail {tail:.3?} ms",
        windows * size
    );
}

/// The memory figure of a closed loop: the memory the process holds after
/// the timed run, plus the most memory any one operation needs on top,
/// measured in a pass of its own after the timed run.
///
/// What the process holds is its file-backed resident pages (code and
/// mapped files) plus its live heap: bytes allocated and not yet freed, as
/// the C library counts them. That counts whatever the run left live — a
/// leak, a grown cache, retained arenas — but not pages the allocator keeps
/// after they were freed. Those depend on how many per-thread arenas the
/// solver's threads happened to create: the resident size after
/// `solve_short` runs read either about 7 or about 12 MB for the same live
/// heap. What one operation needs on top is the peak of its live-heap
/// growth, counted by [`Counting`]; the high-water mark of resident memory
/// instead moved by more than 2x between runs of the same inputs,
/// depending on which freed pages the operation happened to reuse.
pub struct MemoryPass {
    held_mb: Option<f64>,
    growth_mb: Vec<f64>,
}

impl MemoryPass {
    /// Start a pass; call right after the timed run, once the benchmark's
    /// own per-operation records are dropped.
    pub fn new() -> MemoryPass {
        let held = || Some(status_mb("RssFile:")? + status_mb("RssShmem:")? + live_heap_mb()?);
        MemoryPass {
            held_mb: held(),
            growth_mb: Vec::new(),
        }
    }

    /// Run one operation and record the peak of its live-heap growth.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        LIVE.store(0, Ordering::SeqCst);
        PEAK.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        let out = f();
        COUNTING.store(false, Ordering::SeqCst);
        self.growth_mb
            .push(PEAK.load(Ordering::SeqCst) as f64 / (1024.0 * 1024.0));
        out
    }

    /// Held memory plus the largest growth, or the whole-run peak of
    /// resident memory where the allocator's counters are unavailable.
    pub fn mb(&self) -> f64 {
        match self.held_mb {
            Some(held) if !self.growth_mb.is_empty() => {
                let most = self.growth_mb.iter().copied().fold(0.0, f64::max);
                eprintln!(
                    "memory: {held:.2} MB held after the run, {most:.2} MB most growth of one operation"
                );
                held + most
            }
            _ => rss_peak_mb(),
        }
    }
}

/// Whether [`Counting`] is counting: only inside [`MemoryPass::measure`].
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting started.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Highest [`LIVE`] since counting started.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The benchmark's global allocator: the system allocator, counting live
/// bytes and their peak while a memory pass measures an operation. Outside
/// a memory pass it adds one relaxed load per call.
pub struct Counting;

impl Counting {
    fn count(delta: isize) {
        if COUNTING.load(Ordering::Relaxed) {
            let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting around it only touches atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Counting::count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Counting::count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Counting::count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Live heap in MB: bytes in use in every arena plus mmapped chunks.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn live_heap_mb() -> Option<f64> {
    /// glibc's `struct mallinfo2` (glibc 2.33 and later).
    #[repr(C)]
    struct MallInfo2 {
        _arena: usize,
        _ordblks: usize,
        _smblks: usize,
        _hblks: usize,
        hblkhd: usize,
        _usmblks: usize,
        _fsmblks: usize,
        uordblks: usize,
        _fordblks: usize,
        _keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> MallInfo2;
    }
    // SAFETY: `mallinfo2` takes no arguments, returns its struct by value,
    // and reads every arena's counters under that arena's lock.
    let m = unsafe { mallinfo2() };
    Some((m.uordblks + m.hblkhd) as f64 / (1024.0 * 1024.0))
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn live_heap_mb() -> Option<f64> {
    None
}

/// Peak resident set size of this process, in MB.
pub fn rss_peak_mb() -> f64 {
    status_mb("VmHWM:").unwrap_or(0.0)
}

/// A `/proc/self/status` memory field, in MB.
fn status_mb(field: &str) -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse::<f64>()
        .ok()
        .map(|kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut tally = Tally::default();
        tally.record(true, true);
        let line = result_line(&tally, &Metrics::default(), false);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 0, \"unit\": \"{unit}\"}}"
            )));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }

    #[test]
    fn failed_operations_miss_every_latency_limit() {
        let s = [1.0, f64::INFINITY, f64::INFINITY];
        assert_eq!(percentile(&s, 50.0), f64::INFINITY);
        assert_eq!(percentile(&s, 0.0), 1.0);
        let mut m = Metrics::default();
        m.set("op_tail_ms", percentile(&s, 99.0));
        m.set("obs.overhead_frac", f64::NAN);
        assert_eq!(m.get("op_tail_ms"), Some(f64::MAX));
        assert_eq!(m.get("obs.overhead_frac"), Some(0.0));
    }

    #[test]
    fn windows_count_operations_and_drop_the_partial_one() {
        // Ten back-to-back 100 ms operations, given out of order as an open
        // loop's connections report them; windows of four.
        let mut ops: Vec<Op> = (0..10)
            .map(|i| Op {
                at_s: i as f64 * 0.1,
                ms: if i < 4 { 1.0 } else { 3.0 },
            })
            .collect();
        ops.reverse();
        let mut m = Metrics::default();
        latency_metrics(&mut m, &ops, 4, 1.0);
        assert_eq!(m.get("op.samples"), Some(8.0));
        assert_eq!(m.get("op_p50_ms"), Some(2.0));
        assert!((m.get("ops_per_s").unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(m.get("op.tail_pct"), Some(50.0));
    }

    #[test]
    fn the_memory_pass_counts_an_operations_peak_heap() {
        let mut pass = MemoryPass::new();
        let len = pass.measure(|| {
            let big = vec![1u8; 3 << 20];
            big.len()
        });
        assert_eq!(len, 3 << 20);
        // Freed by the end, but the peak is what the operation needed.
        assert!(pass.growth_mb[0] >= 2.9, "{:?}", pass.growth_mb);
        assert!(pass.mb() >= 2.9);
    }

    #[test]
    fn invalid_output_fails_and_marks_run_incorrect() {
        let mut tally = Tally::default();
        tally.record(true, true);
        tally.record(true, false);
        assert_eq!((tally.attempted, tally.failed, tally.invalid), (2, 1, 1));
        assert_eq!(tally.ok_frac(), 0.5);
        assert!(result_line(&tally, &Metrics::default(), true).starts_with("{\"correct\": false"));
    }
}
