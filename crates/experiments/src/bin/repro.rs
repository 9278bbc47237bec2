//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro list
//! repro list-scenarios
//! repro [--exp all|table1|fig1..fig8|table2|sweep|detect|filter|recover|learned|fidelity|rates|visitdef|dsdv|equiv|scenarios]
//!       [--scenario NAME[,NAME...]]
//!       [--users N] [--days N] [--seed S] [--out DIR] [--threads N] [--quick] [--paper-area] [--bench]
//! ```
//!
//! `repro list` prints every experiment with a one-line description; an
//! unknown `--exp` name prints the same list and exits non-zero.
//! `repro list-scenarios` prints the registered scenario families;
//! `--scenario` restricts the `scenarios` experiment to the named
//! families (and implies `--exp scenarios` when no `--exp` is given).
//!
//! Writes `DIR/<exp>.txt` and `DIR/<exp>*.csv` for every requested
//! experiment and prints the text reports to stdout. Every experiment is
//! wall-clock timed (`exp ... took X.XXs` on stderr) and the timings land
//! in `DIR/timings.csv`. All output is bit-identical for any `--threads`
//! value — parallelism only changes how fast it appears.

use geosocial_experiments::catalogue::{Runner, Settings, EXPERIMENTS};
use geosocial_experiments::Analysis;
use geosocial_obs::Stopwatch;
use std::path::PathBuf;

struct Args {
    exps: Vec<String>,
    settings: Settings,
    users: Option<u32>,
    days: Option<u32>,
    out: PathBuf,
    threads: Option<usize>,
    bench: bool,
}

fn print_experiment_list() {
    eprintln!("experiments (use --exp NAME[,NAME...] or --exp all):");
    for &(name, what) in EXPERIMENTS {
        eprintln!("  {name:<9} {what}");
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        exps: vec!["all".into()],
        settings: Settings { seed: 20130101, ..Settings::default() },
        users: None,
        days: None,
        out: PathBuf::from("results"),
        threads: None,
        bench: false,
    };
    let mut exp_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "list" => {
                print_experiment_list();
                std::process::exit(0);
            }
            "list-scenarios" => {
                for family in geosocial_scenario::registry() {
                    println!("{:<12} {}", family.name(), family.describe());
                }
                std::process::exit(0);
            }
            "--exp" => {
                exp_given = true;
                args.exps =
                    it.next().expect("--exp needs a value").split(',').map(str::to_string).collect()
            }
            "--scenario" => {
                args.settings.scenarios = Some(
                    it.next()
                        .expect("--scenario needs a value")
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--users" => {
                args.users = Some(it.next().expect("--users needs a value").parse().expect("users"))
            }
            "--days" => {
                args.days = Some(it.next().expect("--days needs a value").parse().expect("days"))
            }
            "--seed" => {
                args.settings.seed = it.next().expect("--seed needs a value").parse().expect("seed")
            }
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a value")),
            "--threads" => {
                args.threads =
                    Some(it.next().expect("--threads needs a value").parse().expect("threads"))
            }
            "--quick" => args.settings.quick = true,
            "--paper-area" => args.settings.paper_area = true,
            "--bench" => args.bench = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [list | list-scenarios] [--exp LIST] [--scenario LIST]\n\
                     \x20            [--users N] [--days N] [--seed S] [--out DIR]\n\
                     \x20            [--threads N] [--quick] [--paper-area] [--bench]"
                );
                print_experiment_list();
                eprintln!(
                    "  --threads N   worker threads for the parallel pipeline stages\n\
                     \x20               (default: one per core, via available_parallelism;\n\
                     \x20               output is bit-identical for every value)\n\
                     \x20 --bench      additionally time Analysis::run at 1 thread vs the\n\
                     \x20               selected width and write BENCH_pipeline.json"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    // `--scenario` without `--exp` means "score just these families":
    // run only the scenarios experiment.
    if args.settings.scenarios.is_some() && !exp_given {
        args.exps = vec!["scenarios".into()];
    }
    if let Some(names) = &args.settings.scenarios {
        for name in names {
            if geosocial_scenario::find(name).is_none() {
                eprintln!(
                    "unknown scenario {name}; registered: {}",
                    geosocial_scenario::names().join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    if args.exps.iter().any(|e| e == "all") {
        args.exps = EXPERIMENTS.iter().map(|(name, _)| name.to_string()).collect();
    }
    for exp in &args.exps {
        if !EXPERIMENTS.iter().any(|(name, _)| name == exp) {
            eprintln!("unknown experiment {exp}");
            print_experiment_list();
            std::process::exit(2);
        }
    }
    args
}

/// The revision that produced a results directory, for provenance rows in
/// `timings.csv`. Falls back to `unknown` outside a git checkout.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Time `Analysis::run` end-to-end at a given pool width.
fn time_analysis(
    config: &geosocial_checkin::scenario::ScenarioConfig,
    seed: u64,
    threads: usize,
) -> f64 {
    geosocial_par::set_max_threads(threads);
    let mut clock = Stopwatch::start();
    let a = Analysis::run(config, seed);
    let secs = clock.lap_us() as f64 / 1e6;
    // Keep the result alive through the timer so nothing is optimized away.
    assert!(a.outcome.total_checkins > 0 || a.scenario.primary.users.is_empty());
    secs
}

/// Per-stage span rows for `timings.csv`: every `span_us.*` histogram in the
/// registry, as `span:<path>` with its accumulated seconds. `Analysis::run`
/// alone contributes the four pipeline stages (`analysis`,
/// `analysis.generate`, `analysis.match`, `analysis.classify`).
fn span_rows() -> Vec<(String, f64)> {
    geosocial_obs::snapshot()
        .histograms
        .into_iter()
        .filter_map(|(name, h)| {
            let path = name.strip_prefix("span_us.")?;
            Some((format!("span:{path}"), h.sum as f64 / 1e6))
        })
        .collect()
}

fn main() {
    let args = parse_args();
    if let Some(n) = args.threads {
        geosocial_par::set_max_threads(n);
    }
    std::fs::create_dir_all(&args.out).expect("create output dir");

    let mut config =
        if args.settings.quick { Analysis::quick_config() } else { Analysis::paper_config() };
    if let Some(u) = args.users {
        config.primary_users = u;
        config.baseline_users = (u / 5).max(2);
    }
    if let Some(d) = args.days {
        config.primary_days = d;
        config.baseline_days = d + d / 2;
    }

    eprintln!(
        "generating scenario: {} primary users x ~{} days, {} baseline users (seed {}, {} threads)...",
        config.primary_users,
        config.primary_days,
        config.baseline_users,
        args.settings.seed,
        geosocial_par::max_threads(),
    );
    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut clock = Stopwatch::start();
    let analysis = Analysis::run(&config, args.settings.seed);
    let analysis_secs = clock.lap_us() as f64 / 1e6;
    eprintln!("exp analysis took {analysis_secs:.2}s");
    timings.push(("analysis".into(), analysis_secs));
    eprintln!(
        "primary: {} | baseline: {}",
        analysis.scenario.primary.stats(),
        analysis.scenario.baseline.stats()
    );

    let mut runner = Runner::new(&analysis, &config, &args.settings);
    for exp in &args.exps {
        eprintln!("running {exp}...");
        let exp_span = geosocial_obs::span(exp);
        // parse_args admits only catalogue names.
        let out = runner.run(exp).expect("catalogue experiment");
        let secs = exp_span.stop();
        eprintln!("exp {exp} took {secs:.2}s");
        timings.push((exp.clone(), secs));
        println!("==== {} ====\n{}", out.id, out.text);
        let txt_path = args.out.join(format!("{}.txt", out.id));
        std::fs::write(&txt_path, &out.text).expect("write text report");
        for (suffix, csv) in &out.csv {
            let csv_path = args.out.join(format!("{}{}.csv", out.id, suffix));
            std::fs::write(&csv_path, csv).expect("write csv");
        }
    }

    // Timing rows carry enough provenance to compare runs across machines
    // and revisions: worker-thread count, experiment scale, and the git
    // revision that produced them.
    let threads = geosocial_par::max_threads();
    let scale = if args.settings.quick { "quick" } else { "paper" };
    let git = git_describe();
    let mut csv = String::from("exp,seconds,threads,scale,git\n");
    for (exp, secs) in &timings {
        csv.push_str(&format!("{exp},{secs:.4},{threads},{scale},{git}\n"));
    }
    // Per-stage breakdown from the span-timer histograms: `span:<path>`
    // rows carry the accumulated seconds each named stage spent, with
    // nesting encoded in the dotted path (see EXPERIMENTS.md).
    let mut spans = span_rows();
    spans.sort_by(|a, b| a.0.cmp(&b.0));
    for (stage, secs) in &spans {
        csv.push_str(&format!("{stage},{secs:.4},{threads},{scale},{git}\n"));
    }
    std::fs::write(args.out.join("timings.csv"), csv).expect("write timings.csv");

    if args.bench {
        // End-to-end pipeline benchmark: Analysis::run serial vs parallel.
        // The outputs are bit-identical; only the wall clock moves.
        let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // Default to the host width, never past it: oversubscribing a
        // 1-CPU host measures scheduler churn, not the pipeline, and the
        // resulting "speedup" is noise.
        let wide = args.threads.unwrap_or(host_cpus);
        eprintln!("benchmarking Analysis::run at 1 vs {wide} threads...");
        let serial_secs = time_analysis(&config, args.settings.seed, 1);
        eprintln!("exp analysis[threads=1] took {serial_secs:.2}s");
        let parallel_secs = time_analysis(&config, args.settings.seed, wide);
        eprintln!("exp analysis[threads={wide}] took {parallel_secs:.2}s");
        geosocial_par::set_max_threads(args.threads.unwrap_or(0));
        let speedup = if parallel_secs > 0.0 { serial_secs / parallel_secs } else { 0.0 };
        let speedup_note = if wide > host_cpus {
            format!(
                ",\n  \"speedup_note\": \"{wide} threads oversubscribe {host_cpus} host CPUs; speedup reflects scheduling overhead, not parallel capacity\""
            )
        } else {
            String::new()
        };
        let json = format!(
            "{{\n  \"pipeline\": \"Analysis::run\",\n  \"scale\": \"{}\",\n  \"primary_users\": {},\n  \"seed\": {},\n  \"host_cpus\": {},\n  \"threads_serial\": 1,\n  \"threads_parallel\": {},\n  \"seconds_serial\": {:.4},\n  \"seconds_parallel\": {:.4},\n  \"speedup\": {:.2}{}\n}}\n",
            if args.settings.quick { "quick" } else { "paper" },
            config.primary_users,
            args.settings.seed,
            host_cpus,
            wide,
            serial_secs,
            parallel_secs,
            speedup,
            speedup_note,
        );
        std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
        eprintln!("speedup {speedup:.2}x; wrote BENCH_pipeline.json");
    }

    eprintln!("done; outputs in {}", args.out.display());
}
