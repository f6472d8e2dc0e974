//! Per-layer attribution of traced operations.
//!
//! A traced operation is one public call run under an installed
//! [`ise_obs::Trace`]: the benchmark's own `bench.*` root span plus every
//! span the program already records beneath it. Each span's *self time* is
//! its duration minus the part of its interval that its children cover;
//! summing self times by layer splits the operation across the layers.
//! Concurrent children (the long and short halves of a solve, parallel MM
//! calls) can cover more than wall time, so layer shares are reported as a
//! fraction of all self time rather than of wall time.

use crate::report::{mean, Metrics};
use ise_obs::{PhaseTimings, SpanRecord};
use ise_sched::LpTelemetry;
use std::collections::HashMap;
use std::fmt::Write;

/// Layers in report order, with the metric that carries each one's share.
const LAYERS: [&str; 10] = [
    "lp.self_frac",
    "simplex.self_frac",
    "long.self_frac",
    "short.self_frac",
    "mm.self_frac",
    "solver.self_frac",
    "session.self_frac",
    "engine.self_frac",
    "net.self_frac",
    "bench.self_frac",
];

/// Index into [`LAYERS`] of the layer a span name belongs to. `lp.solve`
/// wraps presolve, the simplex, and solution checks — all `ise-simplex`
/// code — so it counts as simplex; the other `lp.*` spans build the LP.
fn layer_of(name: &str) -> usize {
    let prefix = name.split('.').next().unwrap_or(name);
    match (name, prefix) {
        ("lp.solve", _) => 1,
        (_, "lp") => 0,
        (_, "simplex") => 1,
        (_, "long") => 2,
        ("short.mm", _) => 4,
        (_, "short") => 3,
        (_, "solve") => 5,
        (_, "session") => 6,
        (_, "engine") => 7,
        (_, "net") => 8,
        _ => 9,
    }
}

/// Self time of every record, in the same order.
fn self_times(records: &[SpanRecord]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        if r.parent != 0 {
            children.entry(r.parent).or_default().push(i);
        }
    }
    records
        .iter()
        .map(|r| {
            let (start, end) = (r.start_us, r.start_us + r.dur_us);
            let mut spans: Vec<(u64, u64)> = children
                .get(&r.id)
                .into_iter()
                .flatten()
                .map(|&c| {
                    let c = &records[c];
                    (c.start_us.max(start), (c.start_us + c.dur_us).min(end))
                })
                .filter(|(s, e)| s < e)
                .collect();
            spans.sort_unstable();
            let mut covered = 0;
            let mut reach = start;
            for (s, e) in spans {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            r.dur_us - covered
        })
        .collect()
}

/// Span statistics accumulated over the traced operations of one run.
#[derive(Default)]
pub struct SpanStats {
    ops: u64,
    spans: u64,
    layer_us: [u64; LAYERS.len()],
    /// Calls and total time per span name, over all operations.
    timings: PhaseTimings,
    /// Per span name, the sum over operations of its longest single span.
    max_sum_us: HashMap<&'static str, u64>,
    /// Every span, one JSON line each, written out when the run ends.
    dump: String,
}

impl SpanStats {
    /// Fold in one traced operation's records (root span included).
    pub fn add_op(&mut self, records: &[SpanRecord]) {
        let op = self.ops;
        self.ops += 1;
        self.spans += records.len() as u64;
        for (r, own) in records.iter().zip(self_times(records)) {
            self.layer_us[layer_of(r.name)] += own;
            writeln!(
                self.dump,
                "{{\"op\": {op}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {}, \"dur_us\": {}, \"self_us\": {own}}}",
                r.id, r.parent, r.name, r.start_us, r.dur_us
            )
            .expect("write to string");
        }
        self.timings.merge(&PhaseTimings::from_records(records));
        let mut op_max: HashMap<&'static str, u64> = HashMap::new();
        for r in records {
            let m = op_max.entry(r.name).or_default();
            *m = (*m).max(r.dur_us);
        }
        for (name, m) in op_max {
            *self.max_sum_us.entry(name).or_default() += m;
        }
    }

    /// Fold in one served request, whose solver-side spans arrive only as
    /// per-name totals (the engine's `phases` block). Layers are split by
    /// the fixed span nesting instead of by interval: the engine owns queue
    /// wait, cache probe, and `engine.solve` minus the solver; the solver
    /// owns `solve` minus the LP, simplex, rounding, and short-window spans
    /// inside it; `net` is the round trip the engine never saw.
    pub fn add_phases(&mut self, phases: &PhaseTimings, round_trip_us: u64) {
        self.ops += 1;
        let total = |name: &str| phases.total_us(name).unwrap_or(0);
        self.spans += phases.phases.iter().map(|p| p.calls).sum::<u64>();
        self.timings.merge(phases);
        let lp = total("lp.build");
        let simplex = total("lp.solve");
        let long = total("long.round") + total("long.mirror") + total("long.edf");
        let mm = total("short.mm");
        let short = total("solve.short").saturating_sub(mm);
        let solver = total("solve").saturating_sub(lp + simplex + long + short + mm);
        let engine_seen =
            total("engine.queue_wait") + total("engine.cache_probe") + total("engine.solve");
        let engine = engine_seen.saturating_sub(total("solve"));
        let net = round_trip_us.saturating_sub(engine_seen);
        for (i, us) in [lp, simplex, long, short, mm, solver, 0, engine, net, 0]
            .into_iter()
            .enumerate()
        {
            self.layer_us[i] += us;
        }
    }

    fn per_op(&self, v: u64) -> f64 {
        v as f64 / self.ops.max(1) as f64
    }

    /// Mean milliseconds per operation spent in spans named `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.per_op(self.timings.total_us(name).unwrap_or(0)) / 1e3
    }

    /// Mean number of `name` spans per operation.
    pub fn calls(&self, name: &str) -> f64 {
        let calls = self.timings.phases.iter().find(|p| p.name == name);
        self.per_op(calls.map_or(0, |p| p.calls))
    }

    /// Record the solver-stack span metrics and every layer's share.
    pub fn fill(&self, m: &mut Metrics, dropped: u64) {
        m.set("lp.build_ms", self.ms("lp.build"));
        m.set("simplex.solve_ms", self.ms("lp.solve"));
        m.set("simplex.phase1_ms", self.ms("simplex.phase1"));
        m.set("simplex.phase2_ms", self.ms("simplex.phase2"));
        m.set("simplex.pricing_ms", self.ms("simplex.pricing"));
        m.set("simplex.lu_update_ms", self.ms("simplex.lu_update"));
        m.set("simplex.refactor_ms", self.ms("simplex.refactor"));
        m.set("long.round_ms", self.ms("long.round"));
        m.set("long.edf_ms", self.ms("long.mirror") + self.ms("long.edf"));
        m.set("short.ms", self.ms("solve.short"));
        m.set("mm.ms", self.ms("short.mm"));
        m.set("mm.calls", self.calls("short.mm"));
        m.set(
            "mm.max_call_ms",
            self.per_op(self.max_sum_us.get("short.mm").copied().unwrap_or(0)) / 1e3,
        );
        m.set("solve.long_ms", self.ms("solve.long"));
        m.set("solve.short_ms", self.ms("solve.short"));
        m.set("solve.union_ms", self.ms("solve.union"));
        m.set("obs.spans_per_op", self.per_op(self.spans));
        m.set("obs.dropped", dropped as f64);
        let all: u64 = self.layer_us.iter().sum();
        for (name, us) in LAYERS.iter().zip(self.layer_us) {
            m.set(name, us as f64 / all.max(1) as f64);
        }
    }

    /// Write every recorded span as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) {
        let result = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, &self.dump));
        match result {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
}

/// Run `f` under `trace` inside a `bench.<op>` root span and return its
/// result with the operation's drained span records.
pub fn traced<T>(
    trace: &std::sync::Arc<ise_obs::Trace>,
    root: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Vec<SpanRecord>) {
    let out = {
        let _guard = trace.install();
        let _root = ise_obs::Span::enter(root);
        f()
    };
    (out, trace.drain())
}

/// Record the simplex counters, averaged over the LP solves that ran.
pub fn lp_metrics(m: &mut Metrics, lp: &[LpTelemetry]) {
    let per_op = |f: &dyn Fn(&LpTelemetry) -> f64| mean(&lp.iter().map(f).collect::<Vec<_>>());
    m.set("simplex.iterations", per_op(&|t| t.iterations as f64));
    m.set(
        "simplex.refactorizations",
        per_op(&|t| t.refactorizations as f64),
    );
    m.set("simplex.cols_scanned", per_op(&|t| t.cols_scanned as f64));
    m.set(
        "simplex.recoveries",
        per_op(&|t| t.recoveries_total() as f64),
    );
    m.set(
        "simplex.warm_used_frac",
        per_op(&|t| f64::from(u8::from(t.warm_started))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: u32, name: &'static str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (concurrent halves) cover 10..70 of the
        // root; the grandchild is charged to its own parent only.
        let records = [
            rec(1, 0, "bench.solve", 0, 100),
            rec(2, 1, "solve.long", 10, 50),
            rec(3, 1, "solve.short", 30, 40),
            rec(4, 2, "lp.solve", 20, 30),
        ];
        assert_eq!(self_times(&records), vec![40, 20, 40, 30]);
    }

    #[test]
    fn layers_follow_span_names() {
        assert_eq!(LAYERS[layer_of("lp.build")], "lp.self_frac");
        assert_eq!(LAYERS[layer_of("lp.solve")], "simplex.self_frac");
        assert_eq!(LAYERS[layer_of("short.mm")], "mm.self_frac");
        assert_eq!(LAYERS[layer_of("short.memo")], "short.self_frac");
        assert_eq!(LAYERS[layer_of("solve")], "solver.self_frac");
        assert_eq!(LAYERS[layer_of("bench.commit")], "bench.self_frac");
    }

    #[test]
    fn phase_split_charges_the_unseen_round_trip_to_net() {
        let mut stats = SpanStats::default();
        let phases = PhaseTimings {
            phases: [
                ("engine.queue_wait", 100),
                ("engine.cache_probe", 10),
                ("engine.solve", 900),
                ("solve", 880),
                ("lp.build", 80),
                ("lp.solve", 700),
            ]
            .into_iter()
            .map(|(n, us)| ise_obs::PhaseStat {
                name: n.to_string(),
                calls: 1,
                total_us: us,
            })
            .collect(),
        };
        stats.add_phases(&phases, 1500);
        assert_eq!(stats.layer_us, [80, 700, 0, 0, 0, 100, 0, 130, 490, 0]);
    }
}
