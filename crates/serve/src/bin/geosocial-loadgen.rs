//! `geosocial-loadgen`: replay a generated scenario against a
//! `geosocial-serve` instance and write a JSON report
//! (throughput, p50/p95/p99 latency, final server counters).
//!
//! With `--spawn` the load generator hosts the server itself on an
//! ephemeral port — the one-command smoke/bench path used by
//! `scripts/check.sh`.

use geosocial_fault::FaultPlan;
use geosocial_serve::loadgen::{cluster_info, run, shutdown_server, LoadgenConfig};
use geosocial_serve::server::{spawn, ServerConfig};
use std::net::SocketAddr;
use std::process::exit;

const USAGE: &str = "\
usage: geosocial-loadgen [options]
  --addr HOST:PORT   server to replay against (default 127.0.0.1:7744)
  --router           the peer at --addr is a geosocial-router: check it
                     answers ShardMap and record the cluster map in the
                     report (replay and resume already work unchanged)
  --spawn            host the server in-process on an ephemeral port
  --shards N         shards for the spawned server (default 4)
  --scenario NAME    registered scenario family to replay (default
                     baseline; see --list-scenarios)
  --list-scenarios   print the registered scenario families and exit
  --users N          scenario cohort size (default 64)
  --days N           scenario duration in days (default 7)
  --seed N           scenario seed (default 1)
  --threads N        cap the generation worker pool (0 = all cores); the
                     population is bit-identical for every N
  --connections N    parallel client connections (default 4)
  --window N         pipeline depth per connection (default 256)
  --wire FMT         payload encoding, json | binary (default json)
  --run-len N        batch up to N consecutive GPS fixes per user into one
                     GpsRun frame (default 1 = unbatched; pairs with
                     --wire binary for the fast path)
  --verify           diff served compositions against the batch pipeline
  --retries N        reconnect attempts per lane before giving up (default 8)
  --fault SPEC       client fault plan, e.g. seed=42,truncate=20,stall=5:300
                     (with --spawn the in-process server shares it, so
                     kill=, short= and flushfail= entries fire there too)
  --trace-sample N   record 1/N of frames as end-to-end traces (default 64;
                     0 disables tracing; retried deliveries always record)
  --trace-out PATH   after the replay, dump every collected span as Chrome
                     trace-event JSON (chrome://tracing / Perfetto)
  --out PATH         report path (default loadgen-report.json)
  --shutdown         send Shutdown when done (implied by --spawn)
  --help             print this message";

struct Cli {
    addr: String,
    router: bool,
    spawn: bool,
    shards: usize,
    shutdown: bool,
    out: String,
    trace_out: Option<String>,
    load: LoadgenConfig,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        addr: "127.0.0.1:7744".to_string(),
        router: false,
        spawn: false,
        shards: 4,
        shutdown: false,
        out: "loadgen-report.json".to_string(),
        trace_out: None,
        load: LoadgenConfig::default(),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => cli.addr = value("--addr")?,
            "--router" => cli.router = true,
            "--spawn" => cli.spawn = true,
            "--shards" => {
                cli.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
            }
            "--scenario" => cli.load.scenario = value("--scenario")?,
            "--list-scenarios" => {
                for family in geosocial_scenario::registry() {
                    println!("{:<12} {}", family.name(), family.describe());
                }
                exit(0);
            }
            "--users" => {
                cli.load.users = value("--users")?.parse().map_err(|e| format!("--users: {e}"))?;
            }
            "--threads" => {
                let n: usize =
                    value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                geosocial_par::set_max_threads(n);
            }
            "--days" => {
                cli.load.days = value("--days")?.parse().map_err(|e| format!("--days: {e}"))?;
            }
            "--seed" => {
                cli.load.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--connections" => {
                cli.load.connections =
                    value("--connections")?.parse().map_err(|e| format!("--connections: {e}"))?;
            }
            "--window" => {
                cli.load.window =
                    value("--window")?.parse().map_err(|e| format!("--window: {e}"))?;
            }
            "--wire" => {
                cli.load.wire = geosocial_serve::wire::WireFormat::parse(&value("--wire")?)?;
            }
            "--run-len" => {
                cli.load.run_len =
                    value("--run-len")?.parse().map_err(|e| format!("--run-len: {e}"))?;
            }
            "--verify" => cli.load.verify = true,
            "--retries" => {
                cli.load.retry.max_retries =
                    value("--retries")?.parse().map_err(|e| format!("--retries: {e}"))?;
            }
            "--fault" => cli.load.fault = FaultPlan::parse(&value("--fault")?)?,
            "--trace-sample" => {
                cli.load.trace_sample =
                    value("--trace-sample")?.parse().map_err(|e| format!("--trace-sample: {e}"))?;
            }
            "--trace-out" => cli.trace_out = Some(value("--trace-out")?),
            "--out" => cli.out = value("--out")?,
            "--shutdown" => cli.shutdown = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            geosocial_obs::error!("loadgen", "{e}");
            eprintln!("{USAGE}");
            exit(2);
        }
    };

    if cli.router && cli.spawn {
        geosocial_obs::error!("loadgen", "--router and --spawn are mutually exclusive");
        exit(2);
    }

    let (addr, handle): (SocketAddr, Option<_>) = if cli.spawn {
        // Share the fault plan with the spawned server so kill= crashes
        // (and recovers) a real shard worker and short=/flushfail= tear
        // its store flushes.
        let config = ServerConfig {
            shards: cli.shards,
            fault: cli.load.fault.clone(),
            ..ServerConfig::default()
        };
        match spawn(config, "127.0.0.1:0") {
            Ok(h) => {
                let addr = h.addr();
                geosocial_obs::info!("loadgen", "spawned server"; addr = addr, shards = cli.shards);
                (addr, Some(h))
            }
            Err(e) => {
                geosocial_obs::error!("loadgen", "spawn server: {e}");
                exit(1);
            }
        }
    } else {
        match cli.addr.parse() {
            Ok(a) => (a, None),
            Err(e) => {
                geosocial_obs::error!("loadgen", "bad --addr: {e}"; addr = cli.addr);
                exit(2);
            }
        }
    };

    let cluster = if cli.router {
        match cluster_info(addr) {
            Ok(Some(map)) => {
                geosocial_obs::info!("loadgen", "routing through cluster";
                    addr = addr,
                    map_version = map.version,
                    shards = map.entries.len(),
                );
                Some(map)
            }
            Ok(None) => {
                geosocial_obs::error!(
                    "loadgen",
                    "--router given but the peer is a plain shard server \
                     (it rejected the ShardMap control request)";
                    addr = addr,
                );
                exit(2);
            }
            Err(e) => {
                geosocial_obs::error!("loadgen", "cluster map probe: {e}"; addr = addr);
                exit(1);
            }
        }
    } else {
        None
    };

    let mut report = match run(addr, &cli.load) {
        Ok(r) => r,
        Err(e) => {
            geosocial_obs::error!("loadgen", "replay: {e}");
            exit(1);
        }
    };
    report.cluster = cluster;

    if cli.shutdown || cli.spawn {
        if let Err(e) = shutdown_server(addr) {
            geosocial_obs::warn!("loadgen", "shutdown: {e}");
        }
        if let Some(h) = handle {
            match h.join() {
                Ok(_) => {}
                Err(e) => geosocial_obs::warn!("loadgen", "server join: {e}"),
            }
        }
    }

    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            geosocial_obs::error!("loadgen", "encode report: {e:?}");
            exit(1);
        }
    };
    if let Err(e) = std::fs::write(&cli.out, format!("{json}\n")) {
        geosocial_obs::error!("loadgen", "write report: {e}"; path = cli.out);
        exit(1);
    }

    println!(
        "replayed {} events ({} gps, {} checkins) over {} connections in {:.2}s: {:.0} events/s",
        report.total_events,
        report.gps_events,
        report.checkin_events,
        report.connections,
        report.seconds,
        report.events_per_sec
    );
    println!(
        "wire={} run_len={}: {} frames, encode {:.3}s, {} bytes sent / {} received \
         ({:.1} B/event on the wire)",
        report.wire,
        report.run_len,
        report.frames_sent,
        report.encode_seconds,
        report.bytes_sent,
        report.bytes_recv,
        report.bytes_sent as f64 / report.total_events.max(1) as f64,
    );
    println!(
        "latency p50={}us p95={}us p99={}us; server verdicts={} honest={} extraneous={}",
        report.p50_us,
        report.p95_us,
        report.p99_us,
        report.server.verdicts,
        report.server.composition.honest,
        report.server.composition.extraneous(),
    );
    let faults =
        report.fault_truncated + report.fault_aborted + report.fault_stalled + report.fault_kills;
    if report.retries > 0 || faults > 0 {
        println!(
            "robustness: {} retries, {} resent events, {} resumed from store; \
             faults truncated={} aborted={} stalled={} \
             kills={}; server duplicates={} recoveries={}",
            report.retries,
            report.resent_events,
            report.resumed_events,
            report.fault_truncated,
            report.fault_aborted,
            report.fault_stalled,
            report.fault_kills,
            report.server.duplicates,
            report.server.recoveries,
        );
    }
    if report.traces_sampled > 0 || report.traces_tail_promoted > 0 {
        let paths: Vec<String> = report
            .trace_paths
            .iter()
            .map(|p| format!("{} n={} p50={}us p99={}us", p.path, p.count, p.p50_us, p.p99_us))
            .collect();
        println!(
            "traces: {} sampled, {} tail-promoted; {}",
            report.traces_sampled,
            report.traces_tail_promoted,
            paths.join("; "),
        );
    }
    if let Some(path) = &cli.trace_out {
        // In-process spans only (client roots; plus server spans when the
        // server was spawned in-process). Cross-process, query `Traces`
        // via geosocial-trace instead.
        let spans = geosocial_obs::trace::collector().spans();
        let json = geosocial_obs::trace::chrome_trace_json(&spans);
        if let Err(e) = std::fs::write(path, json) {
            geosocial_obs::error!("loadgen", "write trace export: {e}"; path = path);
            exit(1);
        }
        println!("traces: wrote {} spans to {path}", spans.len());
    }
    match report.verified {
        Some(true) => println!("verify: served compositions match the batch pipeline"),
        Some(false) => {
            geosocial_obs::error!("loadgen", "verify MISMATCH against the batch pipeline";
                mismatches = report.mismatches.len());
            for m in report.mismatches.iter().take(20) {
                geosocial_obs::error!("loadgen", "{m}");
            }
            exit(1);
        }
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flags `USAGE` documents: the first word of each option line.
    fn documented_flags() -> Vec<&'static str> {
        USAGE
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .filter(|w| w.starts_with("--") && *w != "--help")
            .collect()
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn every_documented_flag_parses() {
        let flags = documented_flags();
        assert_eq!(flags.len(), 22, "{flags:?}");
        for flag in flags {
            let words = match flag {
                // Prints the registry and exits the process.
                "--list-scenarios" => continue,
                "--router" | "--spawn" | "--verify" | "--shutdown" => vec![flag],
                "--addr" => vec![flag, "127.0.0.1:0"],
                "--scenario" => vec![flag, "tourists"],
                "--wire" => vec![flag, "binary"],
                "--fault" => vec![flag, "seed=42,truncate=20,kill=1@500"],
                "--out" | "--trace-out" => vec![flag, "report.json"],
                // 0 = no override, so the process-global pool width stays unset.
                "--threads" => vec![flag, "0"],
                _ => vec![flag, "1"],
            };
            if let Err(e) = parse_args(args(&words)) {
                panic!("{words:?}: {e}");
            }
        }
    }

    #[test]
    fn removed_flags_are_unknown() {
        for flag in ["--backoff-base", "--backoff-max", "--drain"] {
            match parse_args(args(&[flag, "1"])) {
                Err(e) => assert!(e.contains("unknown flag"), "{flag}: {e}"),
                Ok(_) => panic!("{flag} still parses"),
            }
        }
    }
}
