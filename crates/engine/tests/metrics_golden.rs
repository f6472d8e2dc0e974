//! Golden test for the served metrics surface: the JSON of both snapshot
//! types byte for byte, and the Prometheus text family by family.
//!
//! Every engine and net metric is set to a distinct value, so a field that
//! is dropped, renamed, reordered or read from the wrong counter changes
//! the output. Prometheus families are compared as sets: each family's
//! `# HELP` and `# TYPE` lines and its samples must match the golden file,
//! and each header must appear exactly once. Family order is free.

use ise_engine::metrics::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const ENGINE_JSON: &str = include_str!("golden/metrics_snapshot.json");
const NET_JSON: &str = include_str!("golden/net_metrics_snapshot.json");
const PROMETHEUS: &str = include_str!("golden/metrics.prom");

/// Engine and net snapshots with every metric at a distinct value.
fn snapshots() -> (MetricsSnapshot, NetMetricsSnapshot) {
    let m = EngineMetrics::default();
    let counters: [&AtomicU64; 22] = [
        &m.requests,
        &m.rejected,
        &m.completed,
        &m.cache_hits,
        &m.cache_misses,
        &m.basis_hits,
        &m.basis_misses,
        &m.timeouts,
        &m.fallbacks,
        &m.errors,
        &m.session_reuse_basis,
        &m.session_reuse_warm,
        &m.session_reuse_cold,
        &m.lp_recoveries_refactor,
        &m.lp_recoveries_tighten,
        &m.lp_recoveries_dantzig,
        &m.lp_recoveries_eta,
        &m.lp_recoveries_dense,
        &m.lp_lu_fill_nnz,
        &m.lp_lu_ft_updates,
        &m.lp_lu_sparse_solves,
        &m.lp_lu_dense_solves,
    ];
    for (i, counter) in counters.into_iter().enumerate() {
        counter.fetch_add(i as u64 + 1, Ordering::Relaxed);
    }
    for r in [1e-14, 1e-7, 0.5, f64::INFINITY] {
        m.lp_residual.record(r);
    }
    for us in [5, 900] {
        m.queue_wait.record(Duration::from_micros(us));
    }
    for us in [1_500, 70_000, 3] {
        m.solve_time.record(Duration::from_micros(us));
    }
    m.serialize_time.record(Duration::from_micros(12));
    let mut engine = m.snapshot();
    // The engine-state gauges are sampled by `Engine::metrics`; set them
    // on the snapshot.
    engine.cache_evictions = 23;
    engine.basis_cache_entries = 24;
    engine.sessions_open = 25;

    let n = NetMetrics::default();
    let counters: [&AtomicU64; 8] = [
        &n.connections_total,
        &n.connections_open,
        &n.shed_total,
        &n.bytes_in,
        &n.bytes_out,
        &n.oversize_lines,
        &n.idle_timeouts,
        &n.responses_total,
    ];
    for (i, counter) in counters.into_iter().enumerate() {
        counter.fetch_add(101 + i as u64, Ordering::Relaxed);
    }
    for us in [33, 2_000] {
        n.write_queue_wait.record(Duration::from_micros(us));
    }
    (engine, n.snapshot())
}

/// One Prometheus family: its help text, type, and sample lines in order.
#[derive(Debug, PartialEq)]
struct Family {
    help: String,
    kind: String,
    samples: Vec<String>,
}

/// Parse exposition text into families keyed by name, failing on a
/// repeated header, a sample outside any family, or a sample whose name
/// does not belong to its family.
fn families(text: &str) -> BTreeMap<String, Family> {
    let mut out: BTreeMap<String, Family> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has name and text");
            let fresh = Family {
                help: help.to_string(),
                kind: String::new(),
                samples: Vec::new(),
            };
            assert!(
                out.insert(name.to_string(), fresh).is_none(),
                "family {name} has a second header"
            );
            current = Some(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
            assert_eq!(Some(name), current.as_deref(), "TYPE without its HELP");
            let family = out.get_mut(name).expect("current family");
            assert!(family.kind.is_empty(), "family {name} has a second TYPE");
            family.kind = kind.to_string();
        } else {
            let name = current.as_deref().expect("sample before any header");
            let family = out.get_mut(name).expect("current family");
            let series = line.split(['{', ' ']).next().expect("sample name");
            let member = series == name
                || (family.kind == "histogram"
                    && ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|s| series.strip_suffix(s) == Some(name)));
            assert!(member, "sample `{line}` outside family {name}");
            family.samples.push(line.to_string());
        }
    }
    out
}

/// The full exposition: engine series plus the TCP-frontend series.
fn exposition(engine: &MetricsSnapshot, net: &NetMetricsSnapshot) -> String {
    prometheus_text(engine, Some(net))
}

#[test]
fn snapshot_json_matches_golden() {
    let (engine, net) = snapshots();
    let json = serde_json::to_string_pretty(&engine).unwrap();
    assert_eq!(format!("{json}\n"), ENGINE_JSON);
    let json = serde_json::to_string_pretty(&net).unwrap();
    assert_eq!(format!("{json}\n"), NET_JSON);
}

#[test]
fn prometheus_families_match_golden() {
    let (engine, net) = snapshots();
    let got = families(&exposition(&engine, &net));
    let want = families(PROMETHEUS);
    assert_eq!(got.len(), 31, "{:?}", got.keys());
    for (name, family) in &want {
        assert_eq!(got.get(name), Some(family), "family {name}");
    }
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>()
    );
}
