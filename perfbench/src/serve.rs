//! `serve_mixed`: an in-process `NetServer` on loopback, driven open-loop
//! by a load generator that speaks the JSONL protocol over TCP.
//!
//! The generator runs in this process as one thread per connection (two
//! connections, two threads). Requests are planned and serialized during
//! set-up; each is sent when due — at the [`LOAD`] rate on average — and its
//! latency is timed from that due time, so a stall also charges the
//! requests queued behind it.

use crate::inputs::{derive, session_base, Rng, SERVE_SHORT};
use crate::layers::{lp_metrics, SpanStats};
use crate::report::{latency_metrics, mean, median, rss_peak_mb, Metrics, Op, Tally};
use crate::{timed_setup, Args};
use ise_engine::{EngineConfig, MetricsSnapshot, NetMetricsSnapshot, NetOptions, NetServer};
use ise_model::{validate, Instance, Schedule};
use ise_obs::{PhaseStat, PhaseTimings};
use ise_sched::LpTelemetry;
use ise_workloads::short_only;
use serde::Deserialize;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The offered load: a request rate and the shares of the request kinds
/// other than [`Kind::Fresh`], which takes the rest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Load {
    /// Requests per second.
    pub rate: f64,
    pub duplicate: f64,
    pub sweep: f64,
    pub short: f64,
}

/// The benchmark's load. The rate is about a fifth of the highest rate that
/// meets a 40 ms tail limit (NOTES.md), so the engine queue stays short and
/// latency reflects service, not backlog. The shares are assumptions — the
/// repository records no traffic — picked so that both engine caches see
/// hits.
pub const LOAD: Load = Load {
    rate: 60.0,
    duplicate: 0.2,
    sweep: 0.2,
    short: 0.1,
};
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// A duplicate or a machine-budget sweep is sent at least this long after
/// the request it repeats, so that request has finished and the cache
/// state the repeat finds does not depend on worker timing.
const REPEAT_GAP_S: f64 = 1.0;
/// How long after the last due time the generator waits for responses.
const DRAIN_S: f64 = 20.0;
const SHORT_PINNED_SEED: u64 = 53;
/// Warm-up requests solved before timing, on instances outside the stream
/// and the same for every `--seed`.
const WARM_UP: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// A job set the server has not seen.
    Fresh,
    /// An exact repeat of an earlier request: a result-cache hit.
    Duplicate,
    /// An earlier job set on one or two more machines: a basis-cache hit.
    Sweep,
    /// A short-window-only instance: the MM path.
    Short,
}

struct Request {
    kind: Kind,
    due_s: f64,
    instance: usize,
    line: String,
}

/// The planned, pre-serialized request stream.
struct Plan {
    instances: Vec<Instance>,
    requests: Vec<Request>,
}

fn plan(seed: u64, seconds: f64, load: Load) -> Plan {
    let mut rng = Rng::new(seed);
    let n = ((load.rate * seconds).round() as usize).max(1);
    let (dup_below, sweep_below) = (load.duplicate, load.duplicate + load.sweep);
    let short_below = sweep_below + load.short;
    // Gaps uniform in [0.5, 1.5] of the mean, rescaled so the stream spans
    // exactly `seconds`. Poisson gaps were tried first: their chance
    // clumps (nine requests inside 70 ms) queued on the two workers and
    // alone set the p99, which then ranged 41–114 ms between runs.
    let gaps: Vec<f64> = (0..=n).map(|_| 0.5 + rng.unit()).collect();
    let scale = seconds / gaps.iter().sum::<f64>();
    let mut instances: Vec<Instance> = Vec::new();
    let mut json: Vec<String> = Vec::new();
    // Fresh requests that may be repeated: (instance, due, sweeps, last repeat due).
    let mut originals: Vec<(usize, f64, usize, f64)> = Vec::new();
    let mut requests = Vec::with_capacity(n);
    let (mut fresh, mut short) = (0usize, 0usize);
    let mut due = 0.0;
    for (id, gap) in gaps.iter().take(n).enumerate() {
        due += gap * scale;
        let u = rng.unit();
        let pick = rng.next_u64() as usize;
        let mut push = |inst: Instance, instances: &mut Vec<Instance>| {
            json.push(serde_json::to_string(&inst).expect("instances serialize"));
            instances.push(inst);
            instances.len() - 1
        };
        let eligible: Vec<usize> = (0..originals.len())
            .filter(|&o| originals[o].1 + REPEAT_GAP_S <= due)
            .collect();
        let (kind, instance) = if u < dup_below && !eligible.is_empty() {
            let o = eligible[pick % eligible.len()];
            (Kind::Duplicate, originals[o].0)
        } else if u < sweep_below {
            let sweepable: Vec<usize> = eligible
                .into_iter()
                .filter(|&o| originals[o].2 < 2 && originals[o].3 + REPEAT_GAP_S <= due)
                .collect();
            match sweepable.get(pick % sweepable.len().max(1)) {
                Some(&o) => {
                    originals[o].2 += 1;
                    originals[o].3 = due;
                    let base = &instances[originals[o].0];
                    let swept = base.with_machines(base.machines() + originals[o].2);
                    (Kind::Sweep, push(swept, &mut instances))
                }
                None => (Kind::Fresh, usize::MAX),
            }
        } else if u < short_below {
            short += 1;
            let inst = short_only(&SERVE_SHORT, derive(SHORT_PINNED_SEED, seed, short));
            (Kind::Short, push(inst, &mut instances))
        } else {
            (Kind::Fresh, usize::MAX)
        };
        let instance = if kind == Kind::Fresh {
            fresh += 1;
            let i = push(session_base(seed, fresh).instance(), &mut instances);
            originals.push((i, due, 0, 0.0));
            i
        } else {
            instance
        };
        requests.push(Request {
            kind,
            due_s: due,
            instance,
            line: format!("{{\"id\": {id}, \"instance\": {}}}\n", json[instance]),
        });
    }
    Plan {
        instances,
        requests,
    }
}

/// One connection's log: what was sent when, and every response line with
/// its arrival time.
#[derive(Default)]
struct ConnLog {
    sent: Vec<(usize, Instant)>,
    received: Vec<(Instant, String)>,
}

/// Longest the generator sleeps between polls of its socket: the
/// resolution of its receive timestamps. Socket read timeouts are not used
/// for waiting because the kernel rounds them to scheduler ticks, which
/// made the generator send several milliseconds late.
const POLL: Duration = Duration::from_micros(250);

/// Send `mine` (request indices) on `stream` as each falls due, reading
/// responses in between, until all are answered or `stop` passes.
fn drive(stream: &TcpStream, plan: &Plan, mine: &[usize], t0: Instant, stop: Instant) -> ConnLog {
    let mut log = ConnLog::default();
    if stream.set_nonblocking(true).is_err() {
        return log;
    }
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut next = 0;
    loop {
        let now = Instant::now();
        while next < mine.len()
            && t0 + Duration::from_secs_f64(plan.requests[mine[next]].due_s) <= now
        {
            let r = &plan.requests[mine[next]];
            log.sent.push((mine[next], Instant::now()));
            if write_blocking(&mut writer, r.line.as_bytes()).is_err() {
                log.sent.pop();
                return log;
            }
            next += 1;
        }
        if (next == mine.len() && log.received.len() == log.sent.len()) || now >= stop {
            return log;
        }
        // Bytes of a partial line stay in `buf` until its newline arrives.
        loop {
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => return log,
                Ok(_) if buf.ends_with(b"\n") => {
                    log.received
                        .push((Instant::now(), String::from_utf8_lossy(&buf).into_owned()));
                    buf.clear();
                }
                Ok(_) => return log,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return log,
            }
        }
        let wake = mine.get(next).map_or(stop, |&i| {
            t0 + Duration::from_secs_f64(plan.requests[i].due_s)
        });
        std::thread::sleep(wake.saturating_duration_since(Instant::now()).min(POLL));
    }
}

/// `write_all` on a nonblocking socket: retry until every byte is out.
fn write_blocking(w: &mut &TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match w.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(POLL)
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

struct Served {
    plan: Plan,
    clients: Vec<TcpStream>,
    server: NetServer,
    /// Engine and network counters after warm-up.
    base: (MetricsSnapshot, NetMetricsSnapshot),
}

fn set_up(args: &Args, seconds: f64, traced: bool) -> Result<Served, String> {
    let plan = plan(args.seed, seconds, args.load);
    let config = EngineConfig {
        workers: WORKERS,
        trace_phases: traced,
        ..EngineConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config, NetOptions::default())
        .map_err(|e| format!("bind: {e}"))?;
    let clients: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(server.local_addr()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    for c in &clients {
        c.set_nodelay(true).map_err(|e| e.to_string())?;
    }
    for (j, client) in (0..WARM_UP).zip(clients.iter().cycle()) {
        let inst = session_base(0, 1_000_000 + j).instance();
        let line = format!(
            "{{\"id\": {}, \"instance\": {}}}\n",
            1_000_000 + j,
            serde_json::to_string(&inst).expect("instances serialize")
        );
        let mut w = client;
        w.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let mut response = String::new();
        BufReader::new(client)
            .read_line(&mut response)
            .map_err(|e| format!("warm-up response: {e}"))?;
        let ok =
            check_response(&response, 1_000_000 + j, &inst).map_err(|e| format!("warm-up: {e}"))?;
        if !ok.usable {
            return Err(format!("warm-up request {j} failed: {response}"));
        }
    }
    let base = server.snapshot();
    Ok(Served {
        plan,
        clients,
        server,
        base,
    })
}

/// A checked response.
struct Checked {
    usable: bool,
    value: serde_json::Value,
    schedule: Option<Schedule>,
}

/// Check one response line against the request it answers. `Err` means
/// the output is wrong (bad id, unknown status, invalid schedule).
fn check_response(line: &str, id: usize, instance: &Instance) -> Result<Checked, String> {
    let value: serde_json::Value =
        serde_json::from_str(line.trim_end()).map_err(|e| format!("unparsable response: {e}"))?;
    if value.get("id").and_then(|v| v.as_u64()) != Some(id as u64) {
        return Err(format!("expected the response to request {id}, got {line}"));
    }
    let status = value.get("status").and_then(|s| s.as_str()).unwrap_or("");
    match status {
        "ok" => {
            let content = value
                .get("schedule")
                .ok_or("ok response without a schedule")?;
            let schedule = Schedule::from_content(content).map_err(|e| format!("schedule: {e}"))?;
            validate(instance, &schedule)
                .map_err(|e| format!("request {id}: invalid schedule: {e:?}"))?;
            let claimed = value.get("calibrations").and_then(|c| c.as_u64());
            if claimed != Some(schedule.num_calibrations() as u64) {
                return Err(format!(
                    "request {id}: calibrations field disagrees with its schedule"
                ));
            }
            Ok(Checked {
                usable: true,
                value,
                schedule: Some(schedule),
            })
        }
        // A degraded or refused answer is a failure, not a wrong output.
        "fallback" | "error" => Ok(Checked {
            usable: false,
            value,
            schedule: None,
        }),
        other => Err(format!("request {id}: unknown status {other:?}")),
    }
}

/// A response's `phases` block.
fn phases(value: &serde_json::Value) -> PhaseTimings {
    let list = value
        .get("phases")
        .and_then(|p| p.get("phases"))
        .and_then(|p| p.as_array());
    PhaseTimings {
        phases: list
            .into_iter()
            .flatten()
            .filter_map(|p| {
                Some(PhaseStat {
                    name: p.get("name")?.as_str()?.to_string(),
                    calls: p.get("calls")?.as_u64()?,
                    total_us: p.get("total_us")?.as_u64()?,
                })
            })
            .collect(),
    }
}

/// The simplex counters of a response's `lp` block: the serialized
/// `LpTelemetry` of the solve behind it.
fn lp_telemetry(t: &serde_json::Value) -> LpTelemetry {
    let n = |f: &str| t.get(f).and_then(|v| v.as_u64()).unwrap_or(0);
    LpTelemetry {
        iterations: n("iterations") as usize,
        refactorizations: n("refactorizations") as usize,
        cols_scanned: n("cols_scanned"),
        recoveries_refactor: n("recoveries_refactor"),
        recoveries_tighten: n("recoveries_tighten"),
        recoveries_dantzig: n("recoveries_dantzig"),
        recoveries_eta: n("recoveries_eta"),
        recoveries_dense: n("recoveries_dense"),
        warm_started: t.get("warm_started").and_then(|v| v.as_bool()) == Some(true),
        ..LpTelemetry::default()
    }
}

/// What one timed half-run measured.
struct Half {
    latency: Vec<Op>,
    throughput: f64,
    calibrations: Vec<f64>,
    machines: Vec<f64>,
}

fn serve_run(
    args: &Args,
    seconds: f64,
    traced: bool,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Option<Half> {
    let (setup_s, served) = timed_setup(args, || set_up(args, seconds, traced));
    let served = match served {
        Ok(s) => s,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            tally.record(true, false);
            return None;
        }
    };
    m.set("setup_s", setup_s);
    let Served {
        plan,
        clients,
        server,
        base,
    } = served;
    let kinds = |k: Kind| plan.requests.iter().filter(|r| r.kind == k).count();
    eprintln!(
        "{} requests at {}/s ({} fresh, {} duplicate, {} sweep, {} short), set-up {setup_s:.3} s",
        plan.requests.len(),
        args.load.rate,
        kinds(Kind::Fresh),
        kinds(Kind::Duplicate),
        kinds(Kind::Sweep),
        kinds(Kind::Short)
    );

    let t0 = Instant::now() + Duration::from_millis(20);
    let stop = t0 + Duration::from_secs_f64(seconds + DRAIN_S);
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<usize> = (c..plan.requests.len()).step_by(CONNECTIONS).collect();
                let plan = &plan;
                s.spawn(move || drive(stream, plan, &mine, t0, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    drop(clients);
    let summary = server.shutdown();

    let mut half = Half {
        latency: Vec::new(),
        throughput: 0.0,
        calibrations: Vec::new(),
        machines: Vec::new(),
    };
    let mut spans = SpanStats::default();
    let (mut lag_ms, mut overhead_ms, mut lp) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = t0;
    for log in &logs {
        for (k, &(i, sent)) in log.sent.iter().enumerate() {
            let r = &plan.requests[i];
            let due = t0 + Duration::from_secs_f64(r.due_s);
            lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            // Responses come back in per-connection request order.
            let Some((at, line)) = log.received.get(k) else {
                eprintln!("request {i}: no response");
                half.latency.push(Op {
                    at_s: r.due_s,
                    ms: f64::INFINITY,
                });
                tally.record(false, true);
                continue;
            };
            last = last.max(*at);
            let checked = check_response(line, i, &plan.instances[r.instance]);
            let usable = matches!(&checked, Ok(c) if c.usable);
            half.latency.push(Op {
                at_s: r.due_s,
                ms: if usable {
                    at.saturating_duration_since(due).as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                },
            });
            match checked {
                Ok(c) => {
                    tally.record(c.usable, true);
                    if let Some(s) = &c.schedule {
                        half.calibrations.push(s.num_calibrations() as f64);
                        half.machines.push(s.machines_used() as f64);
                    }
                    if traced && c.usable {
                        let round_trip_us = at.saturating_duration_since(sent).as_micros() as u64;
                        let p = phases(&c.value);
                        let seen: u64 = ["engine.queue_wait", "engine.cache_probe", "engine.solve"]
                            .iter()
                            .filter_map(|n| p.total_us(n))
                            .sum();
                        overhead_ms.push(round_trip_us.saturating_sub(seen) as f64 / 1e3);
                        spans.add_phases(&p, round_trip_us);
                        // A result-cache hit carries the telemetry of the
                        // solve it repeats; only LP work that ran counts.
                        let cached = c.value.get("cached").and_then(|v| v.as_bool()) == Some(true);
                        if let Some(t) = c.value.get("lp").filter(|t| !cached && !t.is_null()) {
                            lp.push(lp_telemetry(t));
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    tally.record(false, false);
                }
            }
        }
    }
    let answered: usize = logs.iter().map(|l| l.received.len()).sum();
    half.throughput = answered as f64 / last.saturating_duration_since(t0).as_secs_f64().max(1e-9);
    let mut sent = vec![false; plan.requests.len()];
    for &(i, _) in logs.iter().flat_map(|l| &l.sent) {
        sent[i] = true;
    }
    for (r, _) in plan.requests.iter().zip(sent).filter(|(_, sent)| !sent) {
        half.latency.push(Op {
            at_s: r.due_s,
            ms: f64::INFINITY,
        });
        tally.record(false, true);
    }

    if traced {
        let (e, n) = (&summary.metrics, &summary.net);
        let (eb, nb) = &base;
        let requests = plan.requests.len().max(1) as f64;
        let hist_ms = |sum: u64, sum0: u64, count: u64, count0: u64| {
            (sum - sum0) as f64 / 1e3 / (count - count0).max(1) as f64
        };
        m.set(
            "engine.queue_wait_ms",
            hist_ms(
                e.queue_wait.sum_us,
                eb.queue_wait.sum_us,
                e.queue_wait.count,
                eb.queue_wait.count,
            ),
        );
        m.set(
            "engine.solve_ms",
            hist_ms(
                e.solve_time.sum_us,
                eb.solve_time.sum_us,
                e.solve_time.count,
                eb.solve_time.count,
            ),
        );
        m.set(
            "engine.serialize_ms",
            hist_ms(
                e.serialize_time.sum_us,
                eb.serialize_time.sum_us,
                e.serialize_time.count,
                eb.serialize_time.count,
            ),
        );
        let frac = |hit: u64, hit0: u64, miss: u64, miss0: u64| {
            (hit - hit0) as f64 / ((hit - hit0) + (miss - miss0)).max(1) as f64
        };
        m.set(
            "engine.cache_hit_frac",
            frac(e.cache_hits, eb.cache_hits, e.cache_misses, eb.cache_misses),
        );
        m.set(
            "engine.basis_hit_frac",
            frac(e.basis_hits, eb.basis_hits, e.basis_misses, eb.basis_misses),
        );
        m.set("engine.rejected", (e.rejected - eb.rejected) as f64);
        m.set("engine.fallbacks", (e.fallbacks - eb.fallbacks) as f64);
        m.set("net.bytes_in", (n.bytes_in - nb.bytes_in) as f64 / requests);
        m.set(
            "net.bytes_out",
            (n.bytes_out - nb.bytes_out) as f64 / requests,
        );
        m.set("net.overhead_ms", mean(&overhead_ms));
        m.set("loadgen.lag_ms", mean(&lag_ms));
        spans.fill(m, 0);
        lp_metrics(m, &lp);
        spans.write(&args.spans_path());
    }
    Some(half)
}

pub fn run(args: &Args, window_ops: usize) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    if !args.traced {
        if let Some(h) = serve_run(args, args.seconds, false, &mut tally, &mut m) {
            latency_metrics(&mut m, &h.latency, window_ops, args.seconds);
            // Due times set the windows' rates to the offered load; report
            // what was answered instead.
            m.set("ops_per_s", h.throughput);
            m.set("calibrations", mean(&h.calibrations));
            m.set("machines", mean(&h.machines));
        }
    } else {
        // The same stream twice, half the time each: untraced, then with
        // the engine's per-request tracing on — which prices the spans.
        let plain = serve_run(args, args.seconds / 2.0, false, &mut tally, &mut m);
        let traced = serve_run(args, args.seconds / 2.0, true, &mut tally, &mut m);
        if let (Some(p), Some(t)) = (plain, traced) {
            latency_metrics(&mut m, &t.latency, window_ops, args.seconds / 2.0);
            let ms = |h: &Half| h.latency.iter().map(|o| o.ms).collect::<Vec<_>>();
            m.set("obs.overhead_frac", median(&ms(&t)) / median(&ms(&p)) - 1.0);
        }
    }
    m.set("ok_frac", tally.ok_frac());
    m.set("rss_peak_mb", rss_peak_mb());
    (tally, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(schedule: &Schedule, id: usize) -> String {
        format!(
            "{{\"id\": {id}, \"status\": \"ok\", \"calibrations\": {}, \"schedule\": {}}}",
            schedule.num_calibrations(),
            serde_json::to_string(schedule).unwrap()
        )
    }

    #[test]
    fn responses_are_checked_for_order_status_and_schedule() {
        let instance = session_base(0, 0).instance();
        let mut schedule = ise_sched::solve(&instance, &Default::default())
            .unwrap()
            .schedule;
        let good = response(&schedule, 3);
        assert!(check_response(&good, 3, &instance).unwrap().usable);
        assert!(
            check_response(&good, 4, &instance).is_err(),
            "out-of-order id"
        );
        let unknown = good.replace("\"ok\"", "\"maybe\"");
        assert!(
            check_response(&unknown, 3, &instance).is_err(),
            "unknown status"
        );
        let refused = "{\"id\": 3, \"status\": \"error\", \"error\": \"queue full\"}";
        assert!(!check_response(refused, 3, &instance).unwrap().usable);
        schedule.placements[0].machine += 1000;
        let corrupted = response(&schedule, 3);
        assert!(
            check_response(&corrupted, 3, &instance).is_err(),
            "invalid schedule"
        );
    }

    #[test]
    fn the_plan_repeats_only_finished_requests() {
        let plan = plan(5, 20.0, LOAD);
        assert_eq!(plan.requests.len(), (LOAD.rate * 20.0) as usize);
        let last = plan.requests.last().unwrap().due_s;
        assert!(last <= 20.0 && last > 19.0);
        for kind in [Kind::Fresh, Kind::Duplicate, Kind::Sweep, Kind::Short] {
            assert!(
                plan.requests.iter().any(|r| r.kind == kind),
                "{kind:?} planned"
            );
        }
        for (k, r) in plan.requests.iter().enumerate() {
            if r.kind == Kind::Duplicate {
                let first = plan
                    .requests
                    .iter()
                    .position(|q| q.instance == r.instance)
                    .unwrap();
                assert!(first < k);
                assert!(plan.requests[first].due_s + REPEAT_GAP_S <= r.due_s);
            }
        }
    }
}
