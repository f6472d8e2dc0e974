//! Served metrics: engine and TCP-frontend counters, gauges and latency
//! histograms.
//!
//! Each metric is declared once, as one line of a `metrics!` list: its
//! field, live type, Prometheus name (plus an optional label), Prometheus
//! type and help text. That line yields the live field bumped by workers
//! (a relaxed atomic or a lock-free histogram), the field of the same name
//! and position in the serializable snapshot, its read in `snapshot()`, and
//! its Prometheus family in [`prometheus_text`]. Consecutive lines with the
//! same Prometheus name form one labelled family.
//!
//! Latencies go into log₂-bucketed histograms (bucket `i` counts durations
//! in `[2^(i-1), 2^i)` microseconds), from which the snapshot derives
//! approximate quantiles.

use serde::Serialize;
use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 40;

/// Lock-free log₂ histogram of microsecond durations.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one duration.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Read the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        HistogramSnapshot {
            p50_us: quantile(&buckets, count, 0.50),
            p90_us: quantile(&buckets, count, 0.90),
            p99_us: quantile(&buckets, count, 0.99),
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Upper bounds of the LP residual histogram buckets (relative residual,
/// log₁₀-spaced). A final implicit `+Inf` bucket catches anything worse.
pub const RESIDUAL_BOUNDS: [f64; 6] = [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e0];

/// Lock-free log₁₀ histogram of relative LP residuals
/// (`‖B·x_B − b‖∞ / (1 + ‖b‖∞)` per solve, reported by the simplex
/// residual monitor).
pub struct ResidualHistogram {
    buckets: [AtomicU64; RESIDUAL_BOUNDS.len() + 1],
    /// Sum of recorded residuals, stored as `f64` bits.
    sum_bits: AtomicU64,
}

impl Default for ResidualHistogram {
    fn default() -> ResidualHistogram {
        ResidualHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl ResidualHistogram {
    /// Record one solve's worst relative residual.
    pub fn record(&self, r: f64) {
        let r = if r.is_finite() { r.max(0.0) } else { f64::MAX };
        let idx = RESIDUAL_BOUNDS
            .iter()
            .position(|&b| r <= b)
            .unwrap_or(RESIDUAL_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + r).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Read the bucket counts.
    pub fn snapshot(&self) -> ResidualHistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        ResidualHistogramSnapshot {
            count: buckets.iter().sum(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

/// Serializable view of the residual histogram.
#[derive(Clone, Debug, Serialize)]
pub struct ResidualHistogramSnapshot {
    /// Total recorded solves.
    pub count: u64,
    /// Sum of recorded residuals.
    pub sum: f64,
    /// Raw counts; bucket `i` covers residuals `<= RESIDUAL_BOUNDS[i]`
    /// (cumulative from the previous bound), with a trailing `+Inf` bucket.
    pub buckets: Vec<u64>,
}

/// Upper bound (µs) of bucket `i`: `2^i - 1`, saturating.
fn bucket_upper_us(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i).saturating_sub(1)
    }
}

fn quantile(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil() as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper_us(i);
        }
    }
    bucket_upper_us(BUCKETS - 1)
}

/// Serializable view of one histogram.
#[derive(Clone, Debug, Serialize)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded durations in microseconds.
    pub sum_us: u64,
    /// Approximate (bucket upper bound) quantiles in microseconds.
    pub p50_us: u64,
    /// 90th percentile, bucket upper bound.
    pub p90_us: u64,
    /// 99th percentile, bucket upper bound.
    pub p99_us: u64,
    /// Raw counts; bucket `i` covers `[2^(i-1), 2^i)` µs.
    pub buckets: Vec<u64>,
}

/// A live metric cell and the serializable value a snapshot reads from it.
pub trait Live {
    /// The value a snapshot holds.
    type Snapshot;
    /// Read the current value.
    fn read(&self) -> Self::Snapshot;
}

impl Live for AtomicU64 {
    type Snapshot = u64;
    fn read(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
}

impl Live for LatencyHistogram {
    type Snapshot = HistogramSnapshot;
    fn read(&self) -> HistogramSnapshot {
        self.snapshot()
    }
}

impl Live for ResidualHistogram {
    type Snapshot = ResidualHistogramSnapshot;
    fn read(&self) -> ResidualHistogramSnapshot {
        self.snapshot()
    }
}

/// Bump a counter by one.
pub(crate) fn inc(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A snapshot value as Prometheus sample lines.
trait Samples {
    /// Append the samples of series `name`, with `label` (`{k="v"}` or
    /// empty) on plain values.
    fn write_samples(&self, out: &mut String, name: &str, label: &str);
}

impl Samples for u64 {
    fn write_samples(&self, out: &mut String, name: &str, label: &str) {
        let _ = writeln!(out, "{name}{label} {self}");
    }
}

impl Samples for HistogramSnapshot {
    fn write_samples(&self, out: &mut String, name: &str, _: &str) {
        let bounds = (0..self.buckets.len()).map(bucket_upper_us);
        write_histogram(out, name, bounds, &self.buckets, self.count, self.sum_us);
    }
}

impl Samples for ResidualHistogramSnapshot {
    fn write_samples(&self, out: &mut String, name: &str, _: &str) {
        let bounds = RESIDUAL_BOUNDS.iter().map(|b| format!("{b:e}"));
        let sum = format!("{:e}", self.sum);
        write_histogram(out, name, bounds, &self.buckets, self.count, sum);
    }
}

/// Cumulative `_bucket{le="..."}` series for each finite bound, then the
/// `+Inf` bucket, `_sum` and `_count`.
fn write_histogram(
    out: &mut String,
    name: &str,
    bounds: impl Iterator<Item = impl Display>,
    buckets: &[u64],
    count: u64,
    sum: impl Display,
) {
    let mut cumulative = 0u64;
    for (le, c) in bounds.zip(buckets) {
        cumulative += c;
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {sum}\n{name}_count {count}"
    );
}

/// Declare a live metrics struct and its snapshot from one list, one line
/// per metric:
///
/// ```text
/// field: LiveType => "prometheus_name" {label = "value"}, kind, "help";
/// ```
///
/// The label is optional; `kind` is the Prometheus type. Generates the
/// live struct, the snapshot struct (same field names, same order), the
/// live struct's `snapshot()`, and the snapshot's Prometheus writer, which
/// emits a family header only where the name changes from the line above.
macro_rules! metrics {
    (
        $(#[$live_meta:meta])* $live:ident,
        $(#[$snap_meta:meta])* $snap:ident {
            $($field:ident: $ty:ty => $name:literal $({$lk:ident = $lv:literal})?,
                $kind:ident, $help:literal;)*
        }
    ) => {
        $(#[$live_meta])*
        #[derive(Default)]
        pub struct $live {
            $(#[doc = $help] pub $field: $ty,)*
        }

        impl $live {
            /// A consistent-enough copy of every metric for reporting.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: self.$field.read(),)*
                }
            }
        }

        $(#[$snap_meta])*
        #[derive(Clone, Debug, Serialize)]
        pub struct $snap {
            $(#[doc = $help] pub $field: <$ty as Live>::Snapshot,)*
        }

        impl $snap {
            fn write_prometheus(&self, out: &mut String) {
                let mut family = "";
                $(
                    if family != $name {
                        family = $name;
                        let _ = writeln!(
                            out,
                            "# HELP {family} {}\n# TYPE {family} {}",
                            $help,
                            stringify!($kind)
                        );
                    }
                    let label = concat!("" $(, "{", stringify!($lk), "=\"", $lv, "\"}")?);
                    self.$field.write_samples(out, family, label);
                )*
            }
        }
    };
}

metrics! {
    /// Live counters shared by all engine workers. The engine-state gauges
    /// (`cache_evictions`, `basis_cache_entries`, `sessions_open`) are
    /// sampled by `Engine::metrics`.
    EngineMetrics,
    /// Serializable engine metrics (see [`EngineMetrics`]).
    MetricsSnapshot {
        requests: AtomicU64 => "ise_requests_total", counter, "Requests accepted into the queue";
        rejected: AtomicU64 => "ise_rejected_total", counter, "Requests refused by backpressure";
        completed: AtomicU64 => "ise_completed_total", counter, "Responses produced";
        cache_hits: AtomicU64 => "ise_cache_hits_total", counter, "Responses served from the result cache";
        cache_misses: AtomicU64 => "ise_cache_misses_total", counter, "Requests that went to the solver";
        basis_hits: AtomicU64 => "ise_basis_hits_total", counter, "Solves warm-started from a cached basis";
        basis_misses: AtomicU64 => "ise_basis_misses_total", counter, "Solves that started the LP cold";
        timeouts: AtomicU64 => "ise_timeouts_total", counter, "Solves cancelled at their deadline";
        fallbacks: AtomicU64 => "ise_fallbacks_total", counter, "Timed-out solves rescued by the greedy fallback";
        errors: AtomicU64 => "ise_errors_total", counter, "Error responses";
        session_reuse_basis: AtomicU64 => "ise_session_reuse_total" {tier = "basis"}, counter, "Session commits by reuse tier";
        session_reuse_warm: AtomicU64 => "ise_session_reuse_total" {tier = "warm"}, counter, "Session commits by reuse tier";
        session_reuse_cold: AtomicU64 => "ise_session_reuse_total" {tier = "cold"}, counter, "Session commits by reuse tier";
        lp_recoveries_refactor: AtomicU64 => "ise_lp_recoveries_total" {rung = "refactor"}, counter, "LP numerical recoveries by ladder rung";
        lp_recoveries_tighten: AtomicU64 => "ise_lp_recoveries_total" {rung = "tighten"}, counter, "LP numerical recoveries by ladder rung";
        lp_recoveries_dantzig: AtomicU64 => "ise_lp_recoveries_total" {rung = "dantzig"}, counter, "LP numerical recoveries by ladder rung";
        lp_recoveries_eta: AtomicU64 => "ise_lp_recoveries_total" {rung = "eta"}, counter, "LP numerical recoveries by ladder rung";
        lp_recoveries_dense: AtomicU64 => "ise_lp_recoveries_total" {rung = "dense"}, counter, "LP numerical recoveries by ladder rung";
        lp_lu_fill_nnz: AtomicU64 => "ise_lp_lu_fill_nnz", gauge, "Worst LU fill-in (stored L+U nonzeros) seen across solves";
        lp_lu_ft_updates: AtomicU64 => "ise_lp_lu_ft_updates_total", counter, "Forrest-Tomlin pivot updates applied";
        lp_lu_sparse_solves: AtomicU64 => "ise_lp_lu_triangular_solves_total" {path = "sparse"}, counter, "FTRAN/BTRAN solves by kernel path";
        lp_lu_dense_solves: AtomicU64 => "ise_lp_lu_triangular_solves_total" {path = "dense"}, counter, "FTRAN/BTRAN solves by kernel path";
        lp_residual: ResidualHistogram => "ise_lp_residual", histogram, "Worst relative LP residual per solve";
        cache_evictions: AtomicU64 => "ise_cache_evictions", gauge, "Cache entries evicted by LRU capacity pressure";
        basis_cache_entries: AtomicU64 => "ise_basis_cache_entries", gauge, "Live warm-start bases in the basis cache";
        sessions_open: AtomicU64 => "ise_sessions_open", gauge, "Currently open incremental sessions";
        queue_wait: LatencyHistogram => "ise_queue_wait_us", histogram, "Queue wait before a worker pickup";
        solve_time: LatencyHistogram => "ise_solve_time_us", histogram, "Solver latency (cache misses only)";
        serialize_time: LatencyHistogram => "ise_serialize_time_us", histogram, "Response serialization latency";
    }
}

metrics! {
    /// Live counters for the TCP frontend (`ise serve --listen`), shared by
    /// the acceptor and every connection thread.
    NetMetrics,
    /// Serializable TCP-frontend metrics (see [`NetMetrics`]).
    NetMetricsSnapshot {
        connections_total: AtomicU64 => "ise_connections_total", counter, "Connections accepted, including shed ones";
        connections_open: AtomicU64 => "ise_connections_open", gauge, "Currently open connections";
        shed_total: AtomicU64 => "ise_shed_total", counter, "Connections refused at accept time";
        bytes_in: AtomicU64 => "ise_bytes_in_total", counter, "Bytes read from clients";
        bytes_out: AtomicU64 => "ise_bytes_out_total", counter, "Bytes written to clients";
        oversize_lines: AtomicU64 => "ise_oversize_lines_total", counter, "Lines rejected for exceeding the maximum length";
        idle_timeouts: AtomicU64 => "ise_idle_timeouts_total", counter, "Connections closed by the read idle timeout";
        responses_total: AtomicU64 => "ise_net_responses_total", counter, "Responses written across all connections";
        write_queue_wait: LatencyHistogram => "ise_net_queue_wait_us", histogram, "Response wait in the per-connection write queue";
    }
}

/// Render the engine metrics, plus the TCP-frontend series when `net` is
/// given, in the Prometheus text exposition format: one family per
/// declared metric or labelled group, histograms as cumulative
/// `_bucket{le="..."}` series with `_sum` and `_count`.
pub fn prometheus_text(engine: &MetricsSnapshot, net: Option<&NetMetricsSnapshot>) -> String {
    let mut out = String::new();
    engine.write_prometheus(&mut out);
    if let Some(net) = net {
        net.write_prometheus(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(100));
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 lands in the 100 µs bucket (upper bound 127), p99 likewise.
        assert_eq!(s.p50_us, 127);
        assert_eq!(s.p99_us, 127);
        assert!(s.buckets.iter().sum::<u64>() == 100);
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::default();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let m = EngineMetrics::default();
        inc(&m.requests);
        m.queue_wait.record(Duration::from_micros(5));
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        assert!(json.contains("\"requests\":1"), "{json}");
        assert!(json.contains("\"queue_wait\""), "{json}");
        assert!(json.contains("\"sum_us\":5"), "{json}");
    }

    #[test]
    fn quantiles_with_all_samples_in_one_bucket() {
        // Every sample lands in the same bucket: all quantiles must agree
        // on that bucket's upper bound.
        let h = LatencyHistogram::default();
        for _ in 0..7 {
            h.record(Duration::from_micros(3));
        }
        let s = h.snapshot();
        let expect = bucket_upper_us(2); // 3 µs → bucket 2, upper bound 3
        assert_eq!(s.p50_us, expect);
        assert_eq!(s.p90_us, expect);
        assert_eq!(s.p99_us, expect);
        assert_eq!(s.sum_us, 21);
    }

    #[test]
    fn quantiles_with_all_samples_in_last_bucket() {
        // Durations beyond the histogram range clamp into the final
        // bucket; quantiles must report its upper bound, not overflow.
        let h = LatencyHistogram::default();
        for _ in 0..3 {
            h.record(Duration::from_secs(1 << 30));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[BUCKETS - 1], 3);
        let expect = bucket_upper_us(BUCKETS - 1);
        assert_eq!(s.p50_us, expect);
        assert_eq!(s.p99_us, expect);
    }

    #[test]
    fn single_sample_quantiles() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(1000));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_us, s.p99_us);
    }

    #[test]
    fn prometheus_net_series_are_well_formed() {
        let m = EngineMetrics::default();
        let net = NetMetrics::default();
        inc(&net.connections_total);
        inc(&net.shed_total);
        net.bytes_in.fetch_add(512, Ordering::Relaxed);
        net.bytes_out.fetch_add(2048, Ordering::Relaxed);
        net.write_queue_wait.record(Duration::from_micros(33));
        let text = prometheus_text(&m.snapshot(), Some(&net.snapshot()));
        for family in [
            "# TYPE ise_connections_total counter",
            "# TYPE ise_connections_open gauge",
            "# TYPE ise_shed_total counter",
            "# TYPE ise_bytes_in_total counter",
            "# TYPE ise_bytes_out_total counter",
            "# TYPE ise_oversize_lines_total counter",
            "# TYPE ise_idle_timeouts_total counter",
            "# TYPE ise_net_responses_total counter",
            "# TYPE ise_net_queue_wait_us histogram",
        ] {
            assert!(text.contains(family), "missing {family}\n{text}");
        }
        assert!(text.contains("ise_connections_total 1"), "{text}");
        assert!(text.contains("ise_shed_total 1"), "{text}");
        assert!(text.contains("ise_bytes_in_total 512"), "{text}");
        assert!(text.contains("ise_net_queue_wait_us_count 1"), "{text}");
        // The engine series are still present and every line stays
        // machine-parseable (f64: the residual histogram emits floats).
        assert!(text.contains("# TYPE ise_requests_total counter"), "{text}");
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad line: {line}");
            assert!(parts.next().is_some(), "bad line: {line}");
        }
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let m = EngineMetrics::default();
        inc(&m.requests);
        inc(&m.completed);
        m.queue_wait.record(Duration::from_micros(5));
        m.solve_time.record(Duration::from_micros(900));
        m.serialize_time.record(Duration::from_micros(12));
        let text = prometheus_text(&m.snapshot(), None);
        assert!(text.contains("# TYPE ise_requests_total counter"), "{text}");
        assert!(text.contains("ise_requests_total 1"), "{text}");
        assert!(
            text.contains("# TYPE ise_queue_wait_us histogram"),
            "{text}"
        );
        assert!(
            text.contains("ise_queue_wait_us_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("ise_solve_time_us_sum 900"), "{text}");
        assert!(text.contains("ise_serialize_time_us_count 1"), "{text}");
        assert!(
            text.contains("# TYPE ise_session_reuse_total counter"),
            "{text}"
        );
        assert!(
            text.contains("ise_session_reuse_total{tier=\"cold\"} 0"),
            "{text}"
        );
        assert!(text.contains("# TYPE ise_sessions_open gauge"), "{text}");
        assert!(text.contains("# TYPE ise_cache_evictions gauge"), "{text}");
        assert!(
            text.contains("# TYPE ise_basis_cache_entries gauge"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE ise_lp_recoveries_total counter"),
            "{text}"
        );
        assert!(
            text.contains("ise_lp_recoveries_total{rung=\"dense\"} 0"),
            "{text}"
        );
        assert!(text.contains("# TYPE ise_lp_residual histogram"), "{text}");
        assert!(
            text.contains("ise_lp_residual_bucket{le=\"1e-6\"}"),
            "{text}"
        );
        // Bucket series must be cumulative: the +Inf bucket equals _count.
        let inf: Vec<&str> = text.lines().filter(|l| l.contains("le=\"+Inf\"")).collect();
        assert_eq!(inf.len(), 4, "{text}");
        // Every non-comment line is `name{labels} value` or `name value`
        // (f64: the residual histogram emits floats).
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad line: {line}");
            assert!(parts.next().is_some(), "bad line: {line}");
        }
    }

    #[test]
    fn residual_histogram_buckets_and_prometheus_series() {
        let m = EngineMetrics::default();
        m.lp_residual.record(1e-14);
        m.lp_residual.record(1e-7);
        m.lp_residual.record(0.5);
        m.lp_residual.record(f64::INFINITY); // clamps into +Inf bucket
        inc(&m.lp_recoveries_refactor);
        inc(&m.lp_recoveries_eta);
        inc(&m.lp_recoveries_dense);
        m.lp_lu_fill_nnz.fetch_max(321, Ordering::Relaxed);
        m.lp_lu_ft_updates.fetch_add(7, Ordering::Relaxed);
        m.lp_lu_sparse_solves.fetch_add(9, Ordering::Relaxed);
        m.lp_lu_dense_solves.fetch_add(2, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.lp_residual.count, 4);
        assert!(snap.lp_residual.sum >= 0.5);
        let text = prometheus_text(&snap, None);
        assert!(
            text.contains("ise_lp_recoveries_total{rung=\"refactor\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ise_lp_recoveries_total{rung=\"eta\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ise_lp_recoveries_total{rung=\"dense\"} 1"),
            "{text}"
        );
        assert!(text.contains("ise_lp_lu_fill_nnz 321"), "{text}");
        assert!(text.contains("ise_lp_lu_ft_updates_total 7"), "{text}");
        assert!(
            text.contains("ise_lp_lu_triangular_solves_total{path=\"sparse\"} 9"),
            "{text}"
        );
        assert!(
            text.contains("ise_lp_lu_triangular_solves_total{path=\"dense\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("ise_lp_residual_bucket{le=\"+Inf\"} 4"),
            "{text}"
        );
        // Cumulative: the 1e-12 bucket already contains the 1e-14 sample.
        assert!(
            text.contains("ise_lp_residual_bucket{le=\"1e-12\"} 1"),
            "{text}"
        );
        assert!(text.contains("ise_lp_residual_count 4"), "{text}");
    }
}
