//! Reading result files back: the per-set summary and `compare`.
//!
//! `compare` follows the repository's rule for claims: a gain counts only
//! when the new side wins at least nine of every ten pairs (ties count for
//! neither) and the medians differ by more than the base side's
//! inter-quartile range; a metric whose median worsens by more than its
//! bound has regressed; a metric whose base spread exceeds its bound is
//! unresolved unless every new run beats every base run.

use std::fs;
use std::io;
use std::path::Path;

use serde::Value;

use crate::spec::{Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    }
}

/// Values of `metric` over the runs of `workload` in `doc`, in run order.
fn values(doc: &Value, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    let runs = field(doc, "runs").and_then(Value::as_array).unwrap_or_default();
    runs.iter()
        .filter(|r| matches!(field(r, "workload"), Some(Value::Str(w)) if w == workload))
        .filter(|r| matches!(field(r, "trace"), Some(Value::Bool(t)) if *t == trace))
        .filter_map(|r| {
            field(r, "metrics").and_then(|m| field(m, metric)).and_then(|m| field(m, "value"))
        })
        .filter_map(number)
        .collect()
}

fn workloads_in(doc: &Value) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in field(doc, "runs").and_then(Value::as_array).unwrap_or_default() {
        if let Some(Value::Str(w)) = field(r, "workload") {
            if !names.contains(w) {
                names.push(w.clone());
            }
        }
    }
    names
}

/// Print each metric's median, quartiles and spread per workload.
pub fn summarize(doc: &Value) {
    for w in workloads_in(doc) {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            for m in table {
                let mut v = values(doc, &w, trace, m.name);
                if v.is_empty() {
                    continue;
                }
                let (q1, q3) = quartiles(&v);
                let med = median(&mut v);
                let spread = if med != 0.0 { (q3 - q1) / med.abs() } else { 0.0 };
                let flag =
                    if !trace && spread > m.bound / 3.0 { "  spread above bound/3" } else { "" };
                eprintln!(
                    "{w:<14} {:<40} median {med:>14.4} {:<12} [{q1:.4}, {q3:.4}] spread {:.1}% (n={}){flag}",
                    m.name,
                    m.unit,
                    100.0 * spread,
                    v.len()
                );
            }
        }
    }
}

/// How a metric moved from the base set to the new one.
fn verdict(m: &Metric, base: &[f64], new: &[f64]) -> (&'static str, usize, usize) {
    let better = |a: f64, b: f64| match m.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let pairs = base.len().min(new.len());
    let wins = (0..pairs).filter(|&i| better(new[i], base[i])).count();
    let (q1, q3) = quartiles(base);
    let (mb, mn) = (median(&mut base.to_vec()), median(&mut new.to_vec()));
    let worse_by = match m.better {
        Better::Lower => (mn - mb) / mb.abs(),
        Better::Higher => (mb - mn) / mb.abs(),
    };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    let v = if pairs > 0 && wins * 10 >= pairs * 9 && better(mn, mb) && (mn - mb).abs() > q3 - q1 {
        "improved"
    } else if worse_by > m.bound {
        "regressed"
    } else if (q3 - q1) / mb.abs() > m.bound && !all_better {
        "unresolved"
    } else {
        "unchanged"
    };
    (v, wins, pairs)
}

/// Compare two result files; `Ok(false)` when any metric regressed.
pub fn compare(base: &Path, new: &Path) -> io::Result<bool> {
    let load = |p: &Path| -> io::Result<Value> {
        serde_json::from_str(&fs::read_to_string(p)?).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", p.display()))
        })
    };
    let (a, b) = (load(base)?, load(new)?);
    let mut ok = true;
    println!(
        "{:<14} {:<22} {:>28} {:>28} {:>7}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "won"
    );
    for w in workloads_in(&a) {
        for m in END_TO_END {
            let (va, vb) = (values(&a, &w, false, m.name), values(&b, &w, false, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (v, wins, pairs) = verdict(m, &va, &vb);
            ok &= v != "regressed";
            let show = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.4} [{q1:.4}, {q3:.4}]", median(&mut x.to_vec()))
            };
            println!(
                "{w:<14} {:<22} {:>28} {:>28} {:>3}/{:<3}  {v} (bound {:.0}%)",
                m.name,
                show(&va),
                show(&vb),
                wins,
                pairs,
                100.0 * m.bound
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: Metric = Metric { name: "r", unit: "1/s", better: Better::Higher, bound: 0.1 };

    #[test]
    fn verdicts_follow_the_pair_rule() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let faster: Vec<f64> = base.iter().map(|b| b * 1.2).collect();
        assert_eq!(verdict(&RATE, &base, &faster).0, "improved");
        let slower: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        assert_eq!(verdict(&RATE, &base, &slower).0, "regressed");
        assert_eq!(verdict(&RATE, &base, &base).0, "unchanged");
        let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 50.0 } else { 150.0 }).collect();
        assert_eq!(verdict(&RATE, &noisy, &noisy).0, "unresolved");
    }
}
