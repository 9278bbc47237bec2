//! Smoke test: every workload at about 1/50 of its size, untraced and
//! traced, driven through `run.sh` exactly as a benchmark driver runs it.
//! Each run must pass its own checks (served compositions equal the batch
//! pipeline, every read answered, restarts restore the state), report every
//! metric `BENCHMARK.json` declares as a finite number, and — traced —
//! write a Chrome trace whose layer spans cover at least 90% of the replay.
//!
//! `cargo test --manifest-path perfbench/Cargo.toml` (about a minute once
//! the release build exists).

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench/ is in the repository").into()
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn names(table: &Value) -> Vec<&str> {
    table.as_array().expect("an array").iter().map(|m| text(field(m, "name"))).collect()
}

fn benchmark_json() -> Value {
    let raw = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&raw).expect("BENCHMARK.json parses")
}

/// Run `perfbench/run.sh args…`; returns whether it exited 0 and its
/// standard output.
fn run_sh(args: &[&str]) -> (bool, String) {
    let out = Command::new("bash")
        .arg("perfbench/run.sh")
        .args(args)
        .current_dir(root())
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

#[test]
fn benchmark_json_matches_the_source_tables() {
    let (ok, stdout) = run_sh(&["spec"]);
    assert!(ok, "run.sh spec failed");
    let generated: Value = serde_json::from_str(&stdout).expect("spec prints JSON");
    assert_eq!(
        benchmark_json(),
        generated,
        "BENCHMARK.json differs from src/spec.rs: regenerate it with `perfbench/run.sh spec`"
    );
}

#[test]
fn every_workload_checks_and_traces_at_small_scale() {
    let bench = benchmark_json();
    let out_dir = ".bench_work/smoke";
    for workload in names(field(&bench, "workloads")) {
        for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--scale",
                "0.02",
                "--trace",
                trace,
                "--out",
                out_dir,
            ];
            let (ok, stdout) = run_sh(&args);
            let last = stdout.lines().last().unwrap_or_default();
            assert!(ok, "{workload} --trace {trace} failed: {last}");
            let result: Value = serde_json::from_str(last).expect("last line is the JSON result");
            let keys: Vec<&str> =
                result.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload}: {last}");
            assert_eq!(field(&result, "failed"), &Value::UInt(0), "{workload}: {last}");
            assert!(matches!(field(&result, "attempted"), Value::UInt(n) if *n > 0));

            let metrics = field(&result, "metrics").as_object().unwrap();
            let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(reported, names(field(&bench, table)), "{workload} --trace {trace}");
            for (name, m) in metrics {
                assert!(
                    matches!(field(m, "value"), Value::Float(x) if x.is_finite()),
                    "{workload} {name}: {m:?}"
                );
            }

            if trace == "1" {
                let coverage =
                    match field(field(field(&result, "metrics"), "trace.coverage_pct"), "value") {
                        Value::Float(x) => *x,
                        other => panic!("coverage {other:?}"),
                    };
                assert!(coverage >= 90.0, "{workload}: layer spans cover {coverage:.1}%");
                let path = root().join(out_dir).join(format!("{workload}.trace.json"));
                let raw = std::fs::read_to_string(&path).expect("the Chrome trace is written");
                let chrome: Value = serde_json::from_str(&raw).expect("the Chrome trace parses");
                let events = field(&chrome, "traceEvents").as_array().unwrap();
                assert!(!events.is_empty(), "{workload}: empty trace");
                for e in events {
                    assert_eq!(text(field(e, "ph")), "X");
                    assert!(matches!(field(e, "dur"), Value::Float(_) | Value::UInt(_)));
                }
            }
        }
    }
}
