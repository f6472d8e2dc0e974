//! Self-tests of the benchmark binary against `BENCHMARK.json`: a
//! reduced-size run of every workload, in both modes, prints exactly the
//! contract's metrics with their units and checks clean; bad arguments
//! exit non-zero without a result.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn contract() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = list
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect();
    v.sort();
    v
}

fn run(args: &[&str]) -> (i32, String) {
    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("selftest.spans.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .arg("--spans-out")
        .arg(&spans)
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

#[test]
fn reduced_runs_print_every_contract_metric_with_its_unit() {
    let contract = contract();
    let end_to_end = names_and_units(&contract["end_to_end"]);
    let per_layer = names_and_units(&contract["per_layer"]);
    for workload in contract["workloads"].as_array().expect("workloads") {
        let name = workload["name"].as_str().expect("workload name");
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let (code, stdout) = run(&[
                "--workload",
                name,
                "--seed",
                "7",
                "--seconds",
                "0.5",
                "--trace",
                trace,
                "--quick",
            ]);
            assert_eq!(code, 0, "{name} trace {trace} exited {code}: {stdout}");
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("result line is JSON");
            assert_eq!(result["correct"].as_bool(), Some(true), "{name}: {last}");
            assert!(result["attempted"].as_u64().expect("attempted") >= 1);
            assert_eq!(result["failed"].as_u64(), Some(0), "{name}: {last}");
            let printed = match &result["metrics"] {
                Value::Object(fields) => {
                    let mut v: Vec<(String, String)> = fields
                        .iter()
                        .map(|(k, m)| {
                            assert!(m["value"].as_f64().is_some(), "{name}: {k} has no value");
                            (k.clone(), m["unit"].as_str().expect("unit").to_string())
                        })
                        .collect();
                    v.sort();
                    v
                }
                other => panic!("metrics is not an object: {other:?}"),
            };
            assert_eq!(&printed, expected, "{name} trace {trace}");
            if trace == "0" {
                for (metric, _) in expected {
                    let v = result["metrics"][metric.as_str()]["value"]
                        .as_f64()
                        .unwrap();
                    assert!(v > 0.0, "{name}: end-to-end metric {metric} reads {v}");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "solve_long", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "solve_long",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let (code, stdout) = run(args);
        assert_ne!(code, 0, "{args:?}");
        assert!(stdout.trim().is_empty(), "{args:?} printed {stdout}");
    }
}
