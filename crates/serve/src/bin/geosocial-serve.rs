//! `geosocial-serve`: the online checkin-validity auditing server.
//!
//! Binds a TCP listener and audits streamed GPS fixes and checkins with
//! the paper's thresholds (α = 500 m, β = 30 min, §5.1 classification) in
//! event order, sharding per-user state across worker threads. Stop it
//! with a `Shutdown` request (e.g. via `geosocial-loadgen`); the final
//! per-shard counters are logged to stderr on the way out.
//!
//! Diagnostics go through the `geosocial-obs` structured logger — set
//! `GEOSOCIAL_LOG` to filter (e.g. `GEOSOCIAL_LOG=debug`, `=off`) and
//! `GEOSOCIAL_LOG_FORMAT=json` for JSON lines.

use geosocial_serve::server::{run_with, ServerConfig};
use std::net::TcpListener;
use std::process::exit;
use std::time::Duration;

const USAGE: &str = "\
usage: geosocial-serve [options]
  --addr HOST:PORT   bind address (default 127.0.0.1:7744; port 0 = ephemeral)
  --shards N         worker shards owning per-user state (default 4)
  --metrics-every S  write the metrics exposition to stderr every S seconds
                     (default off; GEOSOCIAL_METRICS_EVERY env var also works)
  --read-timeout S   per-connection idle read timeout in seconds
                     (default 30; 0 = wait forever)
  --write-timeout S  per-connection write timeout in seconds (default 30; 0 = off)
  --max-conns N      concurrently served connections before the acceptor
                     applies backpressure (default 256)
  --snapshot-every N applied events between durable store snapshots
                     (default 1024)
  --store-dir PATH   event-store root; each shard logs to PATH/shard-N/ and
                     recovery replays it on restart (default: a per-process
                     temp dir removed at shutdown)
  --segment-bytes N  roll store segments after N bytes (default 4194304)
  --flush-bytes N    flush the store log after N buffered bytes (default
                     65536; 0 = flush every append, so acked events survive
                     a SIGKILL — what cluster handoff under chaos relies on)
  --help             print this message";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(String, ServerConfig), String> {
    let mut addr = "127.0.0.1:7744".to_string();
    let mut config = ServerConfig::default();
    if let Ok(var) = std::env::var("GEOSOCIAL_METRICS_EVERY") {
        if let Ok(s) = var.trim().parse::<u64>() {
            if s > 0 {
                config.metrics_every_s = Some(s);
            }
        }
    }
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--shards" => {
                config.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
            }
            "--metrics-every" => {
                let s: u64 = value("--metrics-every")?
                    .parse()
                    .map_err(|e| format!("--metrics-every: {e}"))?;
                config.metrics_every_s = (s > 0).then_some(s);
            }
            "--read-timeout" => {
                let s: u64 =
                    value("--read-timeout")?.parse().map_err(|e| format!("--read-timeout: {e}"))?;
                config.read_timeout = (s > 0).then(|| Duration::from_secs(s));
            }
            "--write-timeout" => {
                let s: u64 = value("--write-timeout")?
                    .parse()
                    .map_err(|e| format!("--write-timeout: {e}"))?;
                config.write_timeout = (s > 0).then(|| Duration::from_secs(s));
            }
            "--max-conns" => {
                config.max_connections =
                    value("--max-conns")?.parse().map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--snapshot-every" => {
                config.snapshot_every = value("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?;
            }
            "--store-dir" => {
                config.store_dir = Some(value("--store-dir")?.into());
            }
            "--segment-bytes" => {
                config.segment_bytes = value("--segment-bytes")?
                    .parse()
                    .map_err(|e| format!("--segment-bytes: {e}"))?;
            }
            "--flush-bytes" => {
                config.flush_bytes =
                    value("--flush-bytes")?.parse().map_err(|e| format!("--flush-bytes: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((addr, config))
}

fn main() {
    let (addr, config) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            geosocial_obs::error!("serve", "{e}");
            eprintln!("{USAGE}");
            exit(2);
        }
    };
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            geosocial_obs::error!("serve", "bind failed: {e}"; addr = addr);
            exit(1);
        }
    };
    match listener.local_addr() {
        Ok(local) => {
            geosocial_obs::info!("serve", "listening"; addr = local, shards = config.shards)
        }
        Err(e) => geosocial_obs::warn!("serve", "local_addr: {e}"),
    }
    if let Err(e) = run_with(listener, config) {
        geosocial_obs::error!("serve", "serve failed: {e}");
        exit(1);
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
        assert_eq!(flags.len(), 10, "{flags:?}");
        for flag in flags {
            let sample = match flag {
                "--addr" => "127.0.0.1:0",
                "--store-dir" => "store",
                _ => "1",
            };
            if let Err(e) = parse_args(args(&[flag, sample])) {
                panic!("{flag} {sample}: {e}");
            }
        }
    }

    #[test]
    fn removed_flags_are_unknown() {
        for flag in ["--alpha", "--beta", "--lateness", "--trace-slow-us", "--fault"] {
            match parse_args(args(&[flag, "1"])) {
                Err(e) => assert!(e.contains("unknown flag"), "{flag}: {e}"),
                Ok(_) => panic!("{flag} still parses"),
            }
        }
    }
}
