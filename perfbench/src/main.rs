//! `perfbench`: the audit service's benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --bin-dir DIR --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--scale F] [--out DIR]
//!     One run. The last line of standard output is
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}};
//!     the exit code is 0 only when the run is correct.
//! perfbench --bin-dir DIR [--seed N] [--runs N] [--seconds S] [--trace] [--out DIR]
//!     Every workload, N runs each (run i uses seed N + 1000·i), written to
//!     DIR/seed<N>.json with a summary table on standard error.
//! perfbench compare BASE.json NEW.json
//!     Per workload and end-to-end metric: medians, quartiles, pairs won
//!     and a verdict against the metric's bound.
//! perfbench spec
//!     Print the benchmark's description (`BENCHMARK.json`) from the tables
//!     in `spec.rs`.
//! ```

mod client;
mod compare;
mod inputs;
mod layers;
mod procs;
mod run;
mod spec;
mod stats;
mod verify;

use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde::Value;

use crate::run::{RunResult, Settings};
use crate::spec::{Metric, END_TO_END, PER_LAYER};

struct Args {
    workload: Option<String>,
    seed: u64,
    runs: usize,
    settings: Settings,
    command: Cmd,
}

enum Cmd {
    Run,
    Compare(PathBuf, PathBuf),
    Spec,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut runs = 1;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut scale = 1.0;
    let mut out = PathBuf::from(".bench_work/out");
    let mut bin_dir = None;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => {
                seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--scale" => scale = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--out" => out = value("--out")?.into(),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value("--bin-dir")?)),
            // `--trace 0|1` from the driver, or a bare `--trace`.
            "--trace" => {
                trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    let command = match positional.as_slice() {
        [] => Cmd::Run,
        [cmd, base, new] if cmd == "compare" => Cmd::Compare(base.into(), new.into()),
        [cmd] if cmd == "spec" => Cmd::Spec,
        _ => return Err(format!("unexpected arguments {positional:?}")),
    };
    if matches!(command, Cmd::Run) && bin_dir.is_none() {
        return Err("--bin-dir is required (run through perfbench/run.sh)".into());
    }
    if !(seconds > 0.0 && scale > 0.0 && runs > 0) {
        return Err("--seconds, --scale and --runs must be positive".into());
    }
    let work_dir = PathBuf::from(".bench_work");
    Ok(Args {
        workload,
        seed,
        runs,
        settings: Settings {
            seconds,
            trace,
            scale,
            bins: bin_dir.unwrap_or_default(),
            out_dir: out,
            work_dir,
        },
        command,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.command, &args.workload) {
        (Cmd::Compare(base, new), _) => compare::compare(base, new),
        (Cmd::Spec, _) => {
            println!("{}", serde_json::to_string_pretty(&spec::description()).expect("serializes"));
            Ok(true)
        }
        (Cmd::Run, Some(name)) => one(name, &args),
        (Cmd::Run, None) => all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The metric table a run reports.
fn table(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` for one run.
fn result_value(r: &RunResult, trace: bool) -> io::Result<Value> {
    let mut metrics = Vec::new();
    for m in table(trace) {
        let value = r
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| io::Error::other(format!("metric {} was not measured", m.name)))?;
        if !value.is_finite() {
            return Err(io::Error::other(format!("metric {} is not finite: {value}", m.name)));
        }
        metrics.push((
            m.name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]),
        ));
    }
    Ok(Value::Object(vec![
        ("correct".into(), Value::Bool(r.correct)),
        ("attempted".into(), Value::UInt(r.attempted.max(1))),
        ("failed".into(), Value::UInt(r.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("values serialize")
}

/// Print a run's metrics and problems to standard error.
fn report(name: &str, r: &RunResult, trace: bool) {
    for m in table(trace) {
        if let Some((_, v)) = r.metrics.iter().find(|(n, _)| *n == m.name) {
            eprintln!("  {name:<14} {:<40} {v:>14.4} {}", m.name, m.unit);
        }
    }
    for p in &r.problems {
        eprintln!("  {name:<14} PROBLEM: {p}");
    }
}

/// Driver mode: one run, JSON on the last line of standard output.
fn one(name: &str, args: &Args) -> io::Result<bool> {
    let w = spec::workload(name).ok_or_else(|| {
        let names: Vec<_> = spec::workloads().iter().map(|w| w.name).collect();
        io::Error::other(format!("unknown workload {name}; known: {}", names.join(", ")))
    })?;
    let r = run::run(&w, args.seed, &args.settings)?;
    report(name, &r, args.settings.trace);
    eprintln!("  host {}", json(&host_envelope()));
    eprintln!("  run {}", json(&Value::Object(r.envelope.clone())));
    println!("{}", json(&result_value(&r, args.settings.trace)?));
    Ok(r.correct && r.failed == 0)
}

/// Set mode: every workload, `--runs` times, into `<out>/seed<N>.json`.
fn all(args: &Args) -> io::Result<bool> {
    let s = &args.settings;
    let mut records = Vec::new();
    let mut ok = true;
    for i in 0..args.runs {
        let seed = args.seed + 1000 * i as u64;
        for w in spec::workloads() {
            for trace in [false, true] {
                if trace && !s.trace {
                    continue;
                }
                let settings = Settings { trace, ..s.clone() };
                let r = run::run(&w, seed, &settings)?;
                report(w.name, &r, trace);
                ok &= r.correct && r.failed == 0;
                let mut rec = vec![
                    ("workload".to_string(), Value::Str(w.name.into())),
                    ("seed".to_string(), Value::UInt(seed)),
                    ("trace".to_string(), Value::Bool(trace)),
                ];
                if let Value::Object(fields) = result_value(&r, trace)? {
                    rec.extend(fields);
                }
                rec.push((
                    "problems".into(),
                    Value::Array(r.problems.iter().map(|p| Value::Str(p.clone())).collect()),
                ));
                rec.push(("envelope".into(), Value::Object(r.envelope.clone())));
                records.push(Value::Object(rec));
            }
        }
    }
    let doc = Value::Object(vec![
        ("host".into(), host_envelope()),
        ("runs".into(), Value::Array(records)),
    ]);
    std::fs::create_dir_all(&s.out_dir)?;
    let path = s.out_dir.join(format!("seed{}.json", args.seed));
    std::fs::write(&path, serde_json::to_string_pretty(&doc).expect("values serialize") + "\n")?;
    eprintln!("wrote {}", path.display());
    compare::summarize(&doc);
    Ok(ok)
}

/// Git revision, CPUs and toolchain of this host.
fn host_envelope() -> Value {
    let output = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("git".into(), Value::Str(output("git", &["rev-parse", "HEAD"]))),
        ("host_cpus".into(), Value::UInt(cpus as u64)),
        ("rustc".into(), Value::Str(output("rustc", &["--version"]))),
    ])
}
