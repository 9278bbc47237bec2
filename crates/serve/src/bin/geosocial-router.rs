//! `geosocial-router`: the stateless cluster router tier.
//!
//! Accepts ordinary client connections (both wire formats, traced or
//! not) and consistent-hashes users across the `geosocial-serve` shard
//! processes named by `--shard`, fanning broadcast queries out to all of
//! them and merging the answers. See the `geosocial_serve::router`
//! module docs for the topology and the handoff protocol.
//!
//! Stop the cluster with a `Shutdown` request through the router: it
//! shuts every shard process down, then itself.

use geosocial_serve::router::{run_with, RouterConfig};
use std::net::{SocketAddr, TcpListener};
use std::process::exit;
use std::time::Duration;

const USAGE: &str = "\
usage: geosocial-router --shard HOST:PORT [--shard HOST:PORT ...] [options]
  --addr HOST:PORT     bind address (default 127.0.0.1:7745; port 0 = ephemeral)
  --shard HOST:PORT    a shard process to route to; repeat per shard
                       (map entry ids are assigned 0..n in flag order)
  --shards A,B,...     comma-separated alternative to repeated --shard
  --read-timeout S     client idle read timeout in seconds (default 0 = off)
  --write-timeout S    write timeout in seconds (default 0 = off)
  --max-conns N        concurrently served client connections (default 256)
  --pending-cap N      per-link in-flight frame cap (default 1024)
  --connect-attempts N reconnect budget per link outage (default 40)
  --connect-backoff MS pause between reconnect attempts (default 250)
  --help               print this message";

fn parse_args() -> Result<(String, RouterConfig), String> {
    let mut addr = "127.0.0.1:7745".to_string();
    let mut config = RouterConfig::default();
    let parse_shard =
        |s: &str| s.parse::<SocketAddr>().map_err(|e| format!("bad shard address {s:?}: {e}"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--shard" => config.shards.push(parse_shard(&value("--shard")?)?),
            "--shards" => {
                for part in value("--shards")?.split(',').filter(|p| !p.is_empty()) {
                    config.shards.push(parse_shard(part)?);
                }
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
            "--pending-cap" => {
                config.pending_cap =
                    value("--pending-cap")?.parse().map_err(|e| format!("--pending-cap: {e}"))?;
            }
            "--connect-attempts" => {
                config.connect_attempts = value("--connect-attempts")?
                    .parse()
                    .map_err(|e| format!("--connect-attempts: {e}"))?;
            }
            "--connect-backoff" => {
                let ms: u64 = value("--connect-backoff")?
                    .parse()
                    .map_err(|e| format!("--connect-backoff: {e}"))?;
                config.connect_backoff = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if config.shards.is_empty() {
        return Err("at least one --shard is required".into());
    }
    Ok((addr, config))
}

fn main() {
    let (addr, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            geosocial_obs::error!("router", "{e}");
            eprintln!("{USAGE}");
            exit(2);
        }
    };
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            geosocial_obs::error!("router", "bind failed: {e}"; addr = addr);
            exit(1);
        }
    };
    match listener.local_addr() {
        Ok(local) => geosocial_obs::info!("router", "listening";
            addr = local,
            shards = config.shards.len(),
        ),
        Err(e) => geosocial_obs::warn!("router", "local_addr: {e}"),
    }
    if let Err(e) = run_with(listener, config) {
        geosocial_obs::error!("router", "route failed: {e}");
        exit(1);
    }
}
