//! End-to-end tests of the `ise` command-line binary: generate → bounds →
//! solve → validate → gantt → exact compose through JSON files.

use std::process::Command;

fn ise(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ise"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ise-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn generate_solve_validate_roundtrip() {
    let dir = tempdir();
    let inst = dir.join("inst.json");
    let sched = dir.join("sched.json");
    let inst_s = inst.to_str().unwrap();
    let sched_s = sched.to_str().unwrap();

    let (ok, _, err) = ise(&[
        "generate",
        "--family",
        "uniform",
        "--jobs",
        "10",
        "--machines",
        "2",
        "--seed",
        "1",
        "--out",
        inst_s,
    ]);
    assert!(ok, "generate failed: {err}");

    let (ok, _, err) = ise(&["solve", inst_s, "--trim", "--out", sched_s]);
    assert!(ok, "solve failed: {err}");
    assert!(err.contains("calibrations"), "report missing: {err}");

    let (ok, out, err) = ise(&["validate", inst_s, sched_s]);
    assert!(ok, "validate failed: {err}");
    assert!(out.contains("feasible"));

    let (ok, out, _) = ise(&["gantt", inst_s, sched_s, "--width", "60"]);
    assert!(ok);
    assert!(out.contains("machine 0 |"));

    let (ok, out, _) = ise(&["bounds", inst_s]);
    assert!(ok);
    assert!(out.contains("best"));
}

#[test]
fn exact_command_on_tiny_instance() {
    let dir = tempdir();
    let inst = dir.join("tiny.json");
    let inst_s = inst.to_str().unwrap();
    let (ok, _, err) = ise(&[
        "generate",
        "--family",
        "unit",
        "--jobs",
        "5",
        "--machines",
        "1",
        "--calib-len",
        "5",
        "--horizon",
        "30",
        "--seed",
        "2",
        "--out",
        inst_s,
    ]);
    assert!(ok, "{err}");
    let (ok, out, err) = ise(&["exact", inst_s, "--max-calibrations", "6"]);
    assert!(ok, "{err}");
    assert!(
        out.contains("optimum") || out.contains("infeasible"),
        "{out}"
    );
}

#[test]
fn tampered_schedule_fails_validation() {
    let dir = tempdir();
    let inst = dir.join("i2.json");
    let sched = dir.join("s2.json");
    let (inst_s, sched_s) = (inst.to_str().unwrap(), sched.to_str().unwrap());
    let (ok, _, _) = ise(&[
        "generate", "--family", "short", "--jobs", "6", "--seed", "4", "--out", inst_s,
    ]);
    assert!(ok);
    let (ok, _, _) = ise(&["solve", inst_s, "--out", sched_s]);
    assert!(ok);
    // Tamper: shift every placement far right.
    let text = std::fs::read_to_string(&sched).unwrap();
    let mut v: serde_json::Value = serde_json::from_str(&text).unwrap();
    for p in v["placements"].as_array_mut().unwrap() {
        let s = p["start"].as_i64().unwrap();
        p["start"] = serde_json::Value::from(s + 100_000);
    }
    std::fs::write(&sched, serde_json::to_string(&v).unwrap()).unwrap();
    let (ok, _, err) = ise(&["validate", inst_s, sched_s]);
    assert!(!ok, "tampered schedule must fail");
    assert!(err.contains("infeasible"), "{err}");
}

#[test]
fn improve_flag_reduces_calibrations() {
    let dir = tempdir();
    let inst = dir.join("imp.json");
    let plain = dir.join("imp_plain.json");
    let improved = dir.join("imp_better.json");
    let inst_s = inst.to_str().unwrap();
    let (ok, _, _) = ise(&[
        "generate",
        "--family",
        "uniform",
        "--jobs",
        "10",
        "--machines",
        "1",
        "--seed",
        "3",
        "--out",
        inst_s,
    ]);
    assert!(ok);
    let (ok, _, _) = ise(&["solve", inst_s, "--out", plain.to_str().unwrap()]);
    assert!(ok);
    let (ok, _, err) = ise(&[
        "solve",
        inst_s,
        "--improve",
        "--audit",
        "--out",
        improved.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(err.contains("consolidation removed"), "{err}");
    assert!(err.contains("T12"), "audit output missing: {err}");
    let count = |p: &std::path::Path| -> usize {
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(p).unwrap()).unwrap();
        v["calibrations"].as_array().unwrap().len()
    };
    assert!(count(&improved) <= count(&plain));
    // The improved schedule still validates.
    let (ok, _, _) = ise(&["validate", inst_s, improved.to_str().unwrap()]);
    assert!(ok);
}

#[test]
fn unknown_command_prints_usage() {
    let (ok, _, err) = ise(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("usage:"));
}

#[test]
fn unknown_flag_is_rejected() {
    let (ok, _, err) = ise(&["solve", "inst.json", "--frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
    // Flags valid for one command are still rejected on another.
    let (ok, _, err) = ise(&["bounds", "inst.json", "--mm", "greedy"]);
    assert!(!ok);
    assert!(err.contains("unknown flag `--mm`"), "{err}");
}

#[test]
fn flag_without_value_is_rejected() {
    // Trailing flag with no value.
    let (ok, _, err) = ise(&["generate", "--family"]);
    assert!(!ok);
    assert!(err.contains("--family requires a value"), "{err}");
    // Value position occupied by another flag — and the error fires before
    // the (nonexistent) instance file is ever opened.
    let (ok, _, err) = ise(&["solve", "no-such-file.json", "--mm", "--trim"]);
    assert!(!ok);
    assert!(err.contains("--mm requires a value"), "{err}");
}

#[test]
fn serve_processes_jsonl_file() {
    let dir = tempdir();
    let reqs = dir.join("reqs.jsonl");
    let resps = dir.join("resps.jsonl");
    let metrics = dir.join("metrics.json");
    let line = |id: u64, proc: i64| {
        format!(
            "{{\"id\": {id}, \"instance\": {{\"jobs\": [{{\"id\": 0, \"release\": 0, \
             \"deadline\": 30, \"proc\": {proc}}}], \"machines\": 1, \"calib_len\": 10}}}}\n"
        )
    };
    // Requests 0 and 1 share an instance; one worker makes the hit certain.
    std::fs::write(&reqs, format!("{}{}{}", line(0, 4), line(1, 4), line(2, 6))).unwrap();
    let (ok, _, err) = ise(&[
        "serve",
        reqs.to_str().unwrap(),
        "--workers",
        "1",
        "--out",
        resps.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(err.contains("served 3 responses"), "{err}");
    let body = std::fs::read_to_string(&resps).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 3);
    for (i, l) in lines.iter().enumerate() {
        let v: serde_json::Value = serde_json::from_str(l).unwrap();
        assert_eq!(v["id"].as_u64(), Some(i as u64));
        assert_eq!(v["status"].as_str(), Some("ok"), "{l}");
    }
    let m: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(m["requests"].as_u64(), Some(3));
    assert_eq!(m["cache_hits"].as_u64(), Some(1));
}

#[test]
fn serve_metrics_out_writes_prometheus_text() {
    let dir = tempdir();
    let reqs = dir.join("prom_reqs.jsonl");
    let resps = dir.join("prom_resps.jsonl");
    let prom = dir.join("metrics.prom");
    std::fs::write(
        &reqs,
        "{\"id\": 0, \"instance\": {\"jobs\": [{\"id\": 0, \"release\": 0, \
         \"deadline\": 30, \"proc\": 4}], \"machines\": 1, \"calib_len\": 10}}\n",
    )
    .unwrap();
    let (ok, _, err) = ise(&[
        "serve",
        reqs.to_str().unwrap(),
        "--out",
        resps.to_str().unwrap(),
        "--metrics-out",
        prom.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(text.contains("# TYPE ise_requests_total counter"), "{text}");
    assert!(text.contains("ise_requests_total 1"), "{text}");
    for h in ["queue_wait", "solve_time", "serialize_time"] {
        assert!(
            text.contains(&format!("# TYPE ise_{h}_us histogram")),
            "missing {h} histogram: {text}"
        );
        assert!(
            text.contains(&format!("ise_{h}_us_bucket{{le=\"+Inf\"}}")),
            "missing {h} +Inf bucket: {text}"
        );
    }
    // Responses carry the per-request phase breakdown.
    let body = std::fs::read_to_string(&resps).unwrap();
    let v: serde_json::Value = serde_json::from_str(body.lines().next().unwrap()).unwrap();
    let names: Vec<&str> = v["phases"]["phases"]
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p["name"].as_str().unwrap())
        .collect();
    assert!(names.contains(&"engine.solve"), "{names:?}");
    assert!(names.contains(&"solve"), "{names:?}");
}

#[test]
fn serve_bounds_line_length_on_the_file_path() {
    // The non-network serve path enforces --max-line-len too: the
    // over-limit line gets an inline error and the stream keeps going.
    let dir = tempdir();
    let reqs = dir.join("longline_reqs.jsonl");
    let resps = dir.join("longline_resps.jsonl");
    std::fs::write(
        &reqs,
        format!(
            "{{\"id\": 0, \"note\": \"{}\"}}\n{{\"id\": 1, \"instance\": {{\"jobs\": \
             [{{\"id\": 0, \"release\": 0, \"deadline\": 30, \"proc\": 4}}], \
             \"machines\": 1, \"calib_len\": 10}}}}\n",
            "x".repeat(4096)
        ),
    )
    .unwrap();
    let (ok, _, err) = ise(&[
        "serve",
        reqs.to_str().unwrap(),
        "--max-line-len",
        "256",
        "--out",
        resps.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(err.contains("served 2 responses"), "{err}");
    let body = std::fs::read_to_string(&resps).unwrap();
    let lines: Vec<serde_json::Value> = body
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines[0]["status"].as_str(), Some("error"));
    assert!(
        lines[0]["error"]
            .as_str()
            .unwrap()
            .contains("maximum line length (256 bytes)"),
        "{:?}",
        lines[0]
    );
    assert_eq!(lines[1]["id"].as_u64(), Some(1));
    assert_eq!(lines[1]["status"].as_str(), Some("ok"));
}

/// A client that writes one request and then waits, keeping stdin open,
/// must get its answer: responses go out as they resolve, not when the
/// next line or EOF arrives.
#[test]
fn serve_answers_a_closed_loop_client_over_a_pipe() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ise"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ise serve");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read response");
        let _ = tx.send(line);
    });
    writeln!(
        stdin,
        "{{\"id\": 7, \"instance\": {{\"jobs\": [{{\"id\": 0, \"release\": 0, \
         \"deadline\": 30, \"proc\": 4}}], \"machines\": 1, \"calib_len\": 10}}}}"
    )
    .expect("write request");
    stdin.flush().expect("flush request");
    let answer = rx.recv_timeout(std::time::Duration::from_secs(10));
    // Closing stdin lets the server exit whether or not it answered.
    drop(stdin);
    let status = child.wait().expect("ise serve exits");
    reader.join().expect("reader thread");
    let line = answer.expect("no response while stdin stayed open");
    let v: serde_json::Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(v["id"].as_u64(), Some(7));
    assert_eq!(v["status"].as_str(), Some("ok"));
    assert!(status.success());
}

#[test]
fn serve_listen_fails_fast_on_an_unwritable_metrics_path() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let prom = tempdir().join("no-such-dir").join("metrics.prom");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ise"))
        .args(["serve", "--listen", "127.0.0.1:0", "--metrics-out"])
        .arg(&prom)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ise serve --listen");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll ise serve") {
            break Some(status);
        }
        if started.elapsed() > Duration::from_secs(10) {
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    if status.is_none() {
        let _ = child.kill();
    }
    let out = child.wait_with_output().expect("collect stderr");
    let err = String::from_utf8_lossy(&out.stderr);
    let status = status.expect("server kept running with an unwritable --metrics-out");
    assert!(!status.success());
    assert!(
        err.contains(&format!("writing metrics to {}", prom.display())),
        "{err}"
    );
}

#[test]
fn serve_listen_flag_validation_is_strict() {
    // Network-only flags demand --listen.
    let (ok, _, err) = ise(&["serve", "--max-connections", "4"]);
    assert!(!ok);
    assert!(err.contains("--max-connections requires --listen"), "{err}");
    let (ok, _, err) = ise(&["serve", "--idle-timeout-ms", "500"]);
    assert!(!ok);
    assert!(err.contains("--idle-timeout-ms requires --listen"), "{err}");

    // --listen is exclusive with file input and --out.
    let (ok, _, err) = ise(&["serve", "reqs.jsonl", "--listen", "127.0.0.1:0"]);
    assert!(!ok);
    assert!(err.contains("cannot be combined"), "{err}");
    let (ok, _, err) = ise(&["serve", "--listen", "127.0.0.1:0", "--out", "x.jsonl"]);
    assert!(!ok);
    assert!(err.contains("--out is not supported"), "{err}");

    // Zero-valued limits are rejected before any socket is bound.
    let (ok, _, err) = ise(&["serve", "--listen", "127.0.0.1:0", "--max-connections", "0"]);
    assert!(!ok);
    assert!(
        err.contains("--max-connections must be at least 1"),
        "{err}"
    );
    let (ok, _, err) = ise(&["serve", "--max-line-len", "0"]);
    assert!(!ok);
    assert!(err.contains("--max-line-len must be at least 1"), "{err}");

    // Unknown flags stay hard errors.
    let (ok, _, err) = ise(&["serve", "--listen-port", "9000"]);
    assert!(!ok);
    assert!(err.contains("unknown flag"), "{err}");
}

#[test]
fn trace_prints_span_tree_for_mixed_instance() {
    let dir = tempdir();
    let inst = dir.join("trace.json");
    let inst_s = inst.to_str().unwrap();
    let (ok, _, err) = ise(&[
        "generate",
        "--family",
        "uniform",
        "--jobs",
        "15",
        "--machines",
        "2",
        "--seed",
        "3",
        "--out",
        inst_s,
    ]);
    assert!(ok, "{err}");
    let (ok, out, err) = ise(&["trace", inst_s]);
    assert!(ok, "{err}");
    for span in [
        "solve.partition",
        "solve.long",
        "lp.trim",
        "lp.discretize",
        "lp.solve",
        "long.round",
        "long.edf",
        "solve.short",
        "short.mm",
    ] {
        assert!(out.contains(span), "span {span} missing from tree:\n{out}");
    }
    assert!(out.contains('%'), "tree shows percentages: {out}");
    assert!(err.contains("phases:"), "report carries phases: {err}");
}

#[test]
fn fuzz_flag_parsing_is_strict() {
    // Unknown flags rejected before any fuzzing starts.
    let (ok, _, err) = ise(&["fuzz", "--frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
    // Value flags require values.
    let (ok, _, err) = ise(&["fuzz", "--seed"]);
    assert!(!ok);
    assert!(err.contains("--seed requires a value"), "{err}");
    // No positional arguments.
    let (ok, _, err) = ise(&["fuzz", "stray.json"]);
    assert!(!ok);
    assert!(err.contains("no positional arguments"), "{err}");
    // Oracle names are validated.
    let (ok, _, err) = ise(&["fuzz", "--cases", "1", "--oracles", "nonsense"]);
    assert!(!ok);
    assert!(err.contains("unknown oracle `nonsense`"), "{err}");
}

#[test]
fn fuzz_replay_on_missing_corpus_is_a_clean_error() {
    let (ok, out, err) = ise(&["fuzz", "--replay", "/no/such/corpus-dir"]);
    assert!(!ok);
    assert!(
        err.contains("is not a directory"),
        "expected a clean error, got: {err}"
    );
    assert!(out.is_empty(), "no partial output on a bad corpus: {out}");
}

#[test]
fn fuzz_small_clean_run_exits_zero() {
    let (ok, out, err) = ise(&[
        "fuzz",
        "--seed",
        "7",
        "--cases",
        "5",
        "--max-jobs",
        "5",
        "--max-machines",
        "2",
        "--oracles",
        "budgets,metamorphic",
    ]);
    assert!(ok, "clean fuzz run must exit 0: {err}");
    assert!(out.contains("5 cases clean"), "{out}");
}

#[test]
fn fuzz_replay_runs_committed_corpus() {
    // The committed corpus (tests/corpus/) replays clean: every repro in
    // it documents a fixed (or fault-gated) bug.
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let (ok, out, err) = ise(&["fuzz", "--replay", corpus]);
    assert!(ok, "committed corpus must replay clean: {err}");
    assert!(out.contains("repros clean"), "{out}");
}

#[test]
fn speed_flag_is_accepted() {
    let dir = tempdir();
    let inst = dir.join("i3.json");
    let inst_s = inst.to_str().unwrap();
    let (ok, _, _) = ise(&[
        "generate",
        "--family",
        "long",
        "--jobs",
        "6",
        "--machines",
        "1",
        "--seed",
        "5",
        "--out",
        inst_s,
    ]);
    assert!(ok);
    let (ok, out, err) = ise(&["solve", inst_s, "--speed", "2"]);
    assert!(ok, "{err}");
    assert!(
        out.contains("\"speed\": 2"),
        "schedule JSON should carry the speed: {out}"
    );
}

#[test]
fn version_prints_workspace_version() {
    for invocation in [&["version"][..], &["--version"], &["-V"]] {
        let (ok, out, err) = ise(invocation);
        assert!(ok, "{invocation:?} failed: {err}");
        assert_eq!(out.trim(), concat!("ise ", env!("CARGO_PKG_VERSION")));
    }
    // The version subcommand takes no flags.
    let (ok, _, err) = ise(&["version", "--frobnicate"]);
    assert!(!ok);
    assert!(err.contains("no arguments"), "{err}");
}

#[test]
fn session_replays_a_delta_script() {
    let dir = tempdir();
    let script = dir.join("session.jsonl");
    let telemetry = dir.join("telemetry.json");
    let script_s = script.to_str().unwrap();
    let telemetry_s = telemetry.to_str().unwrap();
    std::fs::write(
        &script,
        concat!(
            r#"{"op": "open", "instance": {"jobs": [{"id": 0, "release": 0, "deadline": 40, "proc": 7}, {"id": 1, "release": 5, "deadline": 50, "proc": 6}], "machines": 1, "calib_len": 10}}"#,
            "\n",
            r#"{"op": "solve"}"#,
            "\n",
            r#"{"op": "set_machines", "machines": 2}"#,
            "\n",
            r#"{"op": "solve"}"#,
            "\n",
            r#"{"op": "add_jobs", "jobs": [[0, 12, 6]]}"#,
            "\n",
            r#"{"op": "solve"}"#,
            "\n",
        ),
    )
    .expect("write script");

    let (ok, out, err) = ise(&["session", script_s, "--out", telemetry_s]);
    assert!(ok, "session failed: {err}");
    assert!(
        out.contains("commit 1: tier=cold"),
        "missing cold commit: {out}"
    );
    assert!(
        out.contains("commit 2: tier=basis"),
        "missing basis commit: {out}"
    );
    assert!(
        out.contains("commit 3: tier=warm"),
        "missing warm commit: {out}"
    );
    assert!(
        err.contains("1 basis / 1 warm / 1 cold"),
        "missing tier summary: {err}"
    );
    let telemetry_json = std::fs::read_to_string(&telemetry).expect("telemetry written");
    assert!(
        telemetry_json.contains("\"tier\": \"basis\""),
        "{telemetry_json}"
    );
}

#[test]
fn session_flag_parsing_is_strict() {
    let (ok, _, err) = ise(&["session"]);
    assert!(!ok);
    assert!(err.contains("usage") || err.contains("script"), "{err}");
    let (ok, _, err) = ise(&["session", "script.jsonl", "--bogus"]);
    assert!(!ok);
    assert!(err.contains("unknown flag"), "{err}");
    let (ok, _, err) = ise(&["session", "/nonexistent/script.jsonl"]);
    assert!(!ok);
    assert!(err.contains("nonexistent"), "{err}");
}
