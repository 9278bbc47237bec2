//! The system under test as child processes: `geosocial-serve` alone, or
//! `geosocial-router` in front of single-shard servers. Each process binds
//! an ephemeral port and logs its address; every child is killed and
//! reaped when its [`Cluster`] is dropped, whatever path the run took.

use std::fs::{self, File};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use geosocial_serve::protocol::{Request, Response};

use crate::spec::{Topology, SHARDS};

struct Proc {
    child: Child,
    addr: SocketAddr,
}

/// A running topology.
pub struct Cluster {
    /// Shard server processes first, then the router (if any).
    procs: Vec<Proc>,
    topology: Topology,
    /// Store directory of each shard server process.
    pub store_dirs: Vec<PathBuf>,
}

/// How long a process may take to log its address or to exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(30);

fn spawn(bin: &Path, args: &[String], log: &Path) -> io::Result<Proc> {
    let mut child = Command::new(bin)
        .args(args)
        .env("GEOSOCIAL_LOG", "info")
        .env_remove("GEOSOCIAL_LOG_FORMAT")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(File::create(log)?)
        .spawn()
        .map_err(|e| io::Error::new(e.kind(), format!("spawn {}: {e}", bin.display())))?;
    let started = Instant::now();
    loop {
        let text = fs::read_to_string(log).unwrap_or_default();
        if let Some(addr) = text
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("addr=").and_then(|a| a.parse().ok()))
        {
            return Ok(Proc { child, addr });
        }
        if let Some(status) = child.try_wait()? {
            return Err(io::Error::other(format!(
                "{} exited early ({status}): {text}",
                bin.display()
            )));
        }
        if started.elapsed() > PROCESS_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{} never listened", bin.display()),
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

impl Cluster {
    /// Start `topology` with its stores under `dir` and wait until every
    /// shard answers `Stats` through the entry point. Returns the cluster
    /// and the time from the first spawn to that answer.
    pub fn start(bins: &Path, topology: Topology, dir: &Path) -> io::Result<(Cluster, Duration)> {
        fs::create_dir_all(dir)?;
        let started = Instant::now();
        let server = bins.join("geosocial-serve");
        let server_args = |shards: usize, store: &Path| -> Vec<String> {
            [
                "--addr",
                "127.0.0.1:0",
                "--shards",
                &shards.to_string(),
                "--store-dir",
                &store.display().to_string(),
                "--read-timeout",
                "0",
            ]
            .map(String::from)
            .to_vec()
        };
        let mut cluster = Cluster { procs: Vec::new(), topology, store_dirs: Vec::new() };
        match topology {
            Topology::Single => {
                let store = dir.join("store");
                cluster.procs.push(spawn(
                    &server,
                    &server_args(SHARDS, &store),
                    &dir.join("serve.log"),
                )?);
                cluster.store_dirs.push(store);
                cluster.wait_ready()?;
            }
            Topology::Routed => {
                for i in 0..SHARDS {
                    let store = dir.join(format!("store-{i}"));
                    let log = dir.join(format!("serve-{i}.log"));
                    cluster.procs.push(spawn(&server, &server_args(1, &store), &log)?);
                    cluster.store_dirs.push(store);
                }
                cluster.add_router(bins, dir)?;
            }
        }
        Ok((cluster, started.elapsed()))
    }

    /// Poll `Stats` through the entry point until it covers every shard.
    fn wait_ready(&self) -> io::Result<()> {
        let started = Instant::now();
        loop {
            match geosocial_serve::loadgen::control_request(self.entry(), &Request::Stats) {
                Ok(Response::Stats { stats }) if stats.per_shard.len() == SHARDS => return Ok(()),
                _ if started.elapsed() > PROCESS_TIMEOUT => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "shards never answered Stats",
                    ))
                }
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    /// The address clients connect to: the router, or the lone server.
    pub fn entry(&self) -> SocketAddr {
        self.procs.last().expect("a cluster has processes").addr
    }

    /// Addresses of the shard server processes.
    pub fn servers(&self) -> Vec<SocketAddr> {
        let n = match self.topology {
            Topology::Single => 1,
            Topology::Routed => SHARDS,
        };
        self.procs[..n].iter().map(|p| p.addr).collect()
    }

    /// Start a router in front of the shard servers and wait until it
    /// answers for every shard; it becomes the entry point (and shuts the
    /// servers down with itself). Returns its address.
    pub fn add_router(&mut self, bins: &Path, dir: &Path) -> io::Result<SocketAddr> {
        let mut args: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
        for addr in self.servers() {
            args.push("--shard".into());
            args.push(addr.to_string());
        }
        let router = spawn(&bins.join("geosocial-router"), &args, &dir.join("router.log"))?;
        self.procs.push(router);
        self.wait_ready()?;
        Ok(self.entry())
    }

    /// Peak resident memory (`VmHWM`) summed over every process, MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let mut kib = 0u64;
        for p in &self.procs {
            let status = fs::read_to_string(format!("/proc/{}/status", p.child.id()))?;
            kib += status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
                .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        }
        Ok(kib as f64 / 1024.0)
    }

    /// Ask the entry point to shut down (a router shuts its shards down
    /// too) and wait for every process to exit cleanly.
    pub fn stop(mut self) -> io::Result<()> {
        match geosocial_serve::loadgen::control_request(self.entry(), &Request::Shutdown)? {
            Response::Ok => {}
            other => return Err(io::Error::other(format!("shutdown: unexpected reply {other:?}"))),
        }
        let started = Instant::now();
        for p in &mut self.procs {
            loop {
                if let Some(status) = p.child.try_wait()? {
                    if !status.success() {
                        return Err(io::Error::other(format!("process exited with {status}")));
                    }
                    break;
                }
                if started.elapsed() > PROCESS_TIMEOUT {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "process ignored Shutdown",
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for p in &mut self.procs {
            if let Ok(None) = p.child.try_wait() {
                let _ = p.child.kill();
            }
            let _ = p.child.wait();
        }
    }
}

/// Bytes of every file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}
